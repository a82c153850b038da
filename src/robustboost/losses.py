"""Loss families for Newton boosting, as functions of phat, the probability
the model assigns to a sample's true class.

Every family is a base loss in {cce, mae, gce, sce, nce}; two of them also
carry the focal factor (1 - phat)**r: fl is focal∘cce, rfl is focal∘gce. One
chain rule maps value derivatives in phat to the raw-score gradients and
Hessians that the tree builder consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# family -> (base loss, whether it carries the focal factor (1 - phat)**r)
CATALOG = {
    "cce": ("cce", False),
    "mae": ("mae", False),
    "fl": ("cce", True),
    "gce": ("gce", False),
    "sce": ("sce", False),
    "nce": ("nce", False),
    "rfl": ("gce", True),
}
FAMILIES = tuple(CATALOG)

# Raw scores beyond this magnitude saturate the sigmoid to the point where
# the Hessian underflows to 0 anyway.
Z_CLAMP = 30.0


class LossConfigError(ValueError):
    """Invalid loss family or parameter."""


class PhatDomainError(ValueError):
    """phat outside the open interval (0, 1)."""


@dataclass(frozen=True)
class LossSpec:
    """A loss family plus its hyperparameters.

    Parameters irrelevant to the chosen family are ignored but still
    range-checked. ``eta`` is the safeguard scalar: for mae/nce it shifts
    phat -> phat + eta when phat <= 0.5, for sce it clips phat inside the
    log term. ``eta = 0`` disables the safeguard (used to probe the raw
    losses). ``r`` is the focal exponent of fl and rfl, the only families
    that carry the focal factor (1 - phat)**r.
    """

    family: str = "rfl"
    r: float = 1.0
    q: float = 0.5
    eta: float = 1e-2
    sce_alpha: float = 1.0
    sce_beta: float = 1.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise LossConfigError(f"unknown loss family {self.family!r}")
        if not 0.0 <= self.r < np.inf:
            raise LossConfigError(f"r must be finite and >= 0, got {self.r}")
        # q up to and including 1 is accepted; at q=1 gce/rfl(r=0) is exactly mae
        if not 0.0 < self.q <= 1.0:
            raise LossConfigError(f"q must be in (0, 1], got {self.q}")
        if not 0.0 <= self.eta < 0.5:
            raise LossConfigError(f"eta must be in [0, 0.5), got {self.eta}")
        if not (0.0 <= self.sce_alpha < np.inf and 0.0 <= self.sce_beta < np.inf):
            raise LossConfigError("sce_alpha and sce_beta must be finite and >= 0")
        if self.family == "sce" and self.sce_alpha == 0 and self.sce_beta == 0:
            raise LossConfigError("sce needs at least one nonzero weight")


def _check_phat(phat):
    p = np.asarray(phat, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise PhatDomainError("phat must lie strictly inside (0, 1)")
    return p


def make_phat(y, p):
    """Probability of the ground-truth class: p if y=1, else 1-p."""
    y = np.asarray(y)
    p = np.asarray(p, dtype=float)
    return np.where(y == 1, p, 1.0 - p)


def _safeguarded(spec: LossSpec, phat):
    """Apply the eta perturbation for mae/nce: phat -> phat + eta below 0.5."""
    if CATALOG[spec.family][0] in ("mae", "nce") and spec.eta > 0.0:
        return np.where(phat <= 0.5, phat + spec.eta, phat)
    return phat


def _gce_value(u, q):
    # (1 - u**q) / q via expm1; stable down to q ~ 1e-12
    return -np.expm1(q * np.log(u)) / q


def _base(spec: LossSpec, u):
    """Value and first/second derivatives in u of the family's base loss."""
    fam = CATALOG[spec.family][0]
    if fam == "cce":
        return -np.log(u), -1.0 / u, 1.0 / u**2
    if fam == "mae":
        z = np.zeros_like(u)
        return 1.0 - u, z - 1.0, z
    if fam == "gce":
        q = spec.q
        return _gce_value(u, q), -(u ** (q - 1.0)), (1.0 - q) * u ** (q - 2.0)
    if fam == "sce":
        a, b = spec.sce_alpha, spec.sce_beta
        clipped = np.maximum(u, spec.eta) if spec.eta > 0 else u
        live = u > spec.eta  # below the clip the log term is constant
        return (-a * np.log(clipped) + b * (1.0 - u),
                np.where(live, -a / u, 0.0) - b,
                np.where(live, a / u**2, 0.0))
    # nce = A / D with A = log(u), D = log(u) + log(1 - u)
    A, B = np.log(u), np.log1p(-u)
    D = A + B
    A1, D1 = 1.0 / u, 1.0 / u - 1.0 / (1.0 - u)
    A2, D2 = -1.0 / u**2, -1.0 / u**2 - 1.0 / (1.0 - u) ** 2
    d1 = (A1 * D - A * D1) / D**2
    d2 = (A2 * D - A * D2) / D**2 - 2.0 * D1 * (A1 * D - A * D1) / D**3
    return A / D, d1, d2


def _loss(spec: LossSpec, phat):
    """(value, d1, d2) in phat: the base loss G, times F = (1-u)**r when focused."""
    u = _safeguarded(spec, _check_phat(phat))
    G, G1, G2 = _base(spec, u)
    if not CATALOG[spec.family][1]:
        return G, G1, G2
    r = spec.r
    F = (1.0 - u) ** r
    F1 = -r * (1.0 - u) ** (r - 1.0) if r > 0 else np.zeros_like(u)
    F2 = r * (r - 1.0) * (1.0 - u) ** (r - 2.0) if r > 0 else np.zeros_like(u)
    return F * G, F1 * G + F * G1, F2 * G + 2.0 * F1 * G1 + F * G2


def loss_value(spec: LossSpec, phat):
    """Loss value at phat; vectorized over phat."""
    return _loss(spec, phat)[0]


def loss_d1_d2(spec: LossSpec, phat):
    """Analytic first and second derivatives of the loss in phat."""
    return _loss(spec, phat)[1:]


def sigmoid(z):
    """Numerically stable logistic function."""
    z = np.clip(np.asarray(z, dtype=float), -Z_CLAMP, Z_CLAMP)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _chain_rule(d1, d2, p):
    """dphat/dz = s and the score-space Hessian of a y=1 sample, with
    s = p(1-p) taken at the point ``p``:

    h = d2 * s**2 + d1 * s * (1 - 2p)
    """
    s = p * (1.0 - p)
    return s, d2 * s**2 + d1 * s * (1.0 - 2.0 * p)


def grad_hess(spec: LossSpec, y, z):
    """Per-sample gradient g = d1 * (2y - 1) * s and Hessian h in raw-score
    space, with s taken at the unshifted phat.
    """
    y = np.asarray(y)
    z = np.asarray(z, dtype=float)
    # phat = sigmoid(z) for y=1, 1 - sigmoid(z) = sigmoid(-z) for y=0;
    # the signed form is exact under the label/score flip symmetry
    phat = sigmoid(np.where(y == 1, z, -z))
    d1, d2 = loss_d1_d2(spec, phat)
    s, h = _chain_rule(d1, d2, phat)
    return d1 * np.where(y == 1, 1.0, -1.0) * s, h


@dataclass
class ConditionReport:
    """Result of the Hessian-positivity grid check."""

    holds: bool
    violations: list = field(default_factory=list)  # (phat, H) pairs


def hessian_curve(spec: LossSpec, phat):
    """Hessian expressed as a function of phat for a y=1 sample.

    The eta safeguard is applied to phat throughout the expression, s
    included, so a safeguarded mae/nce reports the curve of the perturbed
    loss. grad_hess takes s at the unshifted phat, so the two differ where
    the safeguard shifts phat (phat <= 0.5).
    """
    d1, d2 = loss_d1_d2(spec, phat)
    return _chain_rule(d1, d2, _safeguarded(spec, _check_phat(phat)))[1]


def check_necessary_condition(spec: LossSpec, grid_size: int = 1000) -> ConditionReport:
    """Verify H(phat) > 0 on a uniform grid over [0.5, 1 - 1e-6].

    Positivity there is what allows a leaf to keep splitting as predictions
    approach the truth.
    """
    if grid_size < 2:
        raise ValueError("grid_size must be >= 2")
    grid = np.linspace(0.5, 1.0 - 1e-6, grid_size)
    H = hessian_curve(spec, grid)
    bad = H <= 0.0
    return ConditionReport(holds=not bool(bad.any()),
                           violations=list(zip(grid[bad].tolist(), H[bad].tolist())))
