import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from robustboost.losses import (FAMILIES, LossConfigError, LossSpec, PhatDomainError,
                                check_necessary_condition, grad_hess,
                                hessian_curve, loss_d1_d2, loss_value,
                                make_phat, sigmoid)

ALL_FAMILIES = [
    LossSpec("cce"),
    LossSpec("mae"),
    LossSpec("fl", r=2.0),
    LossSpec("gce", q=0.7),
    LossSpec("sce", sce_alpha=1.0, sce_beta=1.0),
    LossSpec("nce"),
    LossSpec("rfl", r=1.0, q=0.5),
]


def fd_d1(spec, u, eps=1e-6):
    return (loss_value(spec, u + eps) - loss_value(spec, u - eps)) / (2 * eps)


def fd_d2(spec, u, eps=1e-6):
    d = lambda x: loss_d1_d2(spec, x)[0]
    return (d(u + eps) - d(u - eps)) / (2 * eps)


def assert_close(a, b, rtol=1e-5, atol=1e-8):
    npt.assert_allclose(a, b, rtol=rtol, atol=atol)


class TestSpecValidation:
    def test_bad_family(self):
        with pytest.raises(LossConfigError):
            LossSpec("huber")

    def test_bad_q(self):
        with pytest.raises(LossConfigError, match="q"):
            LossSpec("rfl", q=1.5)

    def test_bad_r(self):
        with pytest.raises(LossConfigError, match="r"):
            LossSpec("rfl", r=-0.1)

    def test_bad_eta(self):
        with pytest.raises(LossConfigError, match="eta"):
            LossSpec("mae", eta=0.6)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["r", "sce_alpha", "sce_beta"])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(LossConfigError, match=name):
            LossSpec("sce", **{name: value})

    def test_sce_both_zero(self):
        with pytest.raises(LossConfigError):
            LossSpec("sce", sce_alpha=0.0, sce_beta=0.0)

    def test_q_one_is_mae_endpoint(self):
        u = np.linspace(0.05, 0.95, 19)
        npt.assert_allclose(loss_value(LossSpec("rfl", r=0.0, q=1.0), u),
                            loss_value(LossSpec("mae", eta=0.0), u), rtol=1e-12)


class TestValues:
    def test_rfl_midpoint(self):
        # (1-0.5)^1 * (1-0.5^0.5)/0.5
        expected = 0.5 * (1 - 0.5**0.5) / 0.5
        assert_close(loss_value(LossSpec("rfl", r=1.0, q=0.5), 0.5), expected)

    def test_mae_value(self):
        assert loss_value(LossSpec("mae", eta=0.0), 0.25) == 0.75

    def test_domain_error(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(PhatDomainError):
                loss_value(LossSpec("cce"), bad)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_boundary_vanishes(self, spec):
        assert loss_value(spec, 1 - 1e-12) < 1e-9

    def test_rfl_r0_equals_gce(self):
        u = np.linspace(0.01, 0.99, 197)
        for q in (0.3, 0.5, 0.7):
            npt.assert_array_equal(loss_value(LossSpec("rfl", r=0.0, q=q), u),
                                   loss_value(LossSpec("gce", q=q), u))


class TestDerivatives:
    def test_gce_d1_frozen(self):
        d1, _ = loss_d1_d2(LossSpec("gce", q=0.5), 0.81)
        assert_close(d1, -(0.81 ** -0.5))
        assert_close(d1, -1.1111111111111112, rtol=1e-12)

    def test_mae_flat(self):
        d1, d2 = loss_d1_d2(LossSpec("mae"), 0.7)
        assert d1 == -1.0 and d2 == 0.0

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(60):
            u = float(rng.uniform(0.02, 0.98))
            if abs(u - 0.5) < 1e-3:
                continue
            d1, d2 = loss_d1_d2(spec, u)
            assert_close(d1, fd_d1(spec, u))
            assert_close(d2, fd_d2(spec, u))

    def test_rfl_focus_point(self):
        spec = LossSpec("rfl", r=1.0, q=0.5)
        d1, d2 = loss_d1_d2(spec, 0.49)
        assert_close(d1, fd_d1(spec, 0.49))
        assert_close(d2, fd_d2(spec, 0.49))


class TestGradHess:
    def test_cce_logistic_identity(self):
        g, h = grad_hess(LossSpec("cce"), 1, 0.0)
        assert_close(g, -0.5)
        assert_close(h, 0.25)

    def test_confident_correct_vanishes(self):
        for spec in ALL_FAMILIES:
            g, h = grad_hess(spec, 1, 25.0)
            assert abs(g) < 1e-8 and abs(h) < 1e-8

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.family)
    def test_matches_z_finite_differences(self, spec):
        rng = np.random.default_rng(11)
        eps = 1e-6
        for _ in range(60):
            y = int(rng.integers(0, 2))
            z = float(rng.uniform(-5, 5))
            lv = lambda zz: float(loss_value(spec, make_phat(y, sigmoid(zz))))
            gg = lambda zz: float(grad_hess(spec, y, zz)[0])
            g, h = grad_hess(spec, y, z)
            fg = (lv(z + eps) - lv(z - eps)) / (2 * eps)
            fh = (gg(z + eps) - gg(z - eps)) / (2 * eps)
            assert_close(float(g), fg)
            assert_close(float(h), fh)

    def test_no_nan_at_extreme_scores(self):
        for spec in ALL_FAMILIES:
            for z in (-700.0, -30.0, 0.0, 30.0, 700.0):
                g, h = grad_hess(spec, 1, z)
                assert np.isfinite(g) and np.isfinite(h)

    @given(z=st.floats(-20, 20), y=st.integers(0, 1))
    @settings(max_examples=200, deadline=None)
    def test_label_symmetry(self, z, y):
        spec = LossSpec("rfl", r=1.0, q=0.5)
        g1, h1 = grad_hess(spec, y, z)
        g2, h2 = grad_hess(spec, 1 - y, -z)
        npt.assert_allclose(g1, -g2, rtol=1e-12, atol=1e-300)
        npt.assert_allclose(h1, h2, rtol=1e-12, atol=1e-300)


class TestNecessaryCondition:
    def test_gce_holds(self):
        assert check_necessary_condition(LossSpec("gce", q=0.7), 1000).holds

    def test_raw_mae_fails_at_half(self):
        rep = check_necessary_condition(LossSpec("mae", eta=0.0), 1001)
        assert not rep.holds
        phat, H = rep.violations[0]
        assert phat == 0.5 and H == 0.0

    def test_raw_nce_fails_at_half(self):
        rep = check_necessary_condition(LossSpec("nce", eta=0.0), 1001)
        assert not rep.holds
        assert rep.violations[0][0] == 0.5

    def test_safeguarded_mae_nce_hold(self):
        assert check_necessary_condition(LossSpec("mae", eta=0.01), 1000).holds
        assert check_necessary_condition(LossSpec("nce", eta=0.01), 1000).holds

    def test_rfl_holds(self):
        assert check_necessary_condition(LossSpec("rfl", r=1.0, q=0.5), 1000).holds

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            check_necessary_condition(LossSpec("cce"), 1)

    def test_cce_curve_is_p_times_one_minus_p(self):
        # classic logistic curvature, as a cross-check of the curve evaluator
        u = np.linspace(0.5, 0.99, 50)
        npt.assert_allclose(hessian_curve(LossSpec("cce"), u), u * (1 - u), rtol=1e-12)


class TestDegenerationChain:
    U = np.linspace(0.01, 0.99, 491)

    def test_rfl_to_gce_exact(self):
        npt.assert_array_equal(loss_value(LossSpec("rfl", r=0.0, q=0.5), self.U),
                               loss_value(LossSpec("gce", q=0.5), self.U))

    def test_rfl_to_fl(self):
        diff = np.abs(loss_value(LossSpec("rfl", r=1.0, q=1e-6), self.U)
                      - loss_value(LossSpec("fl", r=1.0), self.U))
        assert diff.max() < 1e-4

    def test_rfl_to_cce(self):
        diff = np.abs(loss_value(LossSpec("rfl", r=0.0, q=1e-6), self.U)
                      + np.log(self.U))
        assert diff.max() < 1e-4


@given(u=st.floats(0.01, 0.99), q=st.floats(0.05, 0.95), r=st.floats(0, 3))
@settings(max_examples=300, deadline=None)
def test_rfl_value_nonnegative_and_below_gce(u, q, r):
    rfl = float(loss_value(LossSpec("rfl", r=r, q=q), u))
    gce = float(loss_value(LossSpec("gce", q=q), u))
    assert rfl >= 0.0
    assert rfl <= gce + 1e-12  # focal factor (1-u)^r <= 1


def assert_bitwise(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSingleAlgebra:
    U = np.concatenate([np.linspace(1e-4, 1 - 1e-4, 999), [0.5, 0.491, 0.509]])
    Z = np.linspace(-12.0, 12.0, 481)
    Y = np.arange(481) % 2

    def assert_same_loss(self, a, b):
        assert_bitwise(loss_value(a, self.U), loss_value(b, self.U))
        for x, y in zip(loss_d1_d2(a, self.U), loss_d1_d2(b, self.U)):
            assert_bitwise(x, y)
        for x, y in zip(grad_hess(a, self.Y, self.Z), grad_hess(b, self.Y, self.Z)):
            assert_bitwise(x, y)

    def test_fl_r0_is_cce(self):
        self.assert_same_loss(LossSpec("fl", r=0.0), LossSpec("cce"))

    def test_trainer_and_check_differ_in_eta_band(self):
        # the trainer takes s = phat(1-phat) at the unshifted phat, the check
        # at the shifted one (README, "Loss families")
        spec = LossSpec("mae", eta=0.01)
        for phat, trainer, check in ((0.5, 0.0, 5.0e-3), (0.491, -4.5e-3, 5.0e-4)):
            h = grad_hess(spec, 1, np.log(phat) - np.log1p(-phat))[1]
            npt.assert_allclose(h, trainer, rtol=0.01, atol=1e-12)
            npt.assert_allclose(hessian_curve(spec, phat), check, rtol=0.01)


SPECS = st.builds(LossSpec, family=st.sampled_from(FAMILIES), r=st.floats(0.0, 3.0),
                  q=st.floats(0.05, 1.0), eta=st.sampled_from([0.0, 0.01]) | st.floats(0.0, 0.2),
                  sce_alpha=st.floats(0.1, 2.0), sce_beta=st.floats(0.1, 2.0))


@given(spec=SPECS, z=st.floats(-20.0, 20.0))
@settings(max_examples=300, deadline=None)
def test_hessian_curve_is_trainer_hessian_where_unshifted(spec, z):
    # p = sigmoid(z), so z is the logit of p as grad_hess sees it
    p = float(sigmoid(z))
    assume(p > 0.5 or spec.eta == 0.0 or spec.family not in ("mae", "nce"))
    h = grad_hess(spec, 1, z)[1]
    npt.assert_allclose(hessian_curve(spec, p), h, rtol=1e-9, atol=0.0)
