"""Label-corruption protocols for the benchmark harness.

Binary tasks use a symmetric minority-budget flip: floor(rate * n_minority)
minority labels become majority, and the same count of majority labels become
minority, so class sizes are preserved. Multi-class tasks flip each label to
its successor with probability rate (pair-flipping).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import write_csv

PROTOCOLS = ("binary_pairflip", "multiclass_pairflip")


@dataclass(frozen=True)
class NoiseSpec:
    rate: float
    protocol: str = "binary_pairflip"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rate < 0.5:
            raise ValueError(f"noise rate must be in [0, 0.5), got {self.rate}")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}")


def _check_protocol(spec, protocol):
    if spec.protocol != protocol:
        raise ValueError(f"needs protocol {protocol!r}, got {spec.protocol!r}")


@dataclass(frozen=True)
class Flip:
    index: int
    old_label: int
    new_label: int


def inject_binary(labels, spec: NoiseSpec):
    """Flip floor(rate * n_min) labels each way between minority and majority.

    Returns (new_labels, flip_log); the log lists every changed row, in
    ascending row order per direction, with its old and new label.
    """
    _check_protocol(spec, "binary_pairflip")
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size != 2:
        raise ValueError(f"binary protocol needs exactly 2 classes, got {classes.size}")
    counts = np.array([(labels == c).sum() for c in classes])
    minority, majority = classes[np.argmin(counts)], classes[np.argmax(counts)]
    if counts[0] == counts[1]:
        minority, majority = classes[0], classes[1]
    n_flip = int(np.floor(spec.rate * (labels == minority).sum()))

    rng = np.random.default_rng(spec.seed)
    new_labels = labels.copy()
    log = []
    for src, dst in ((minority, majority), (majority, minority)):
        pool = np.nonzero(labels == src)[0]
        if n_flip > pool.size:
            raise ValueError(f"cannot flip {n_flip} samples out of {pool.size}")
        chosen = rng.choice(pool, size=n_flip, replace=False)
        for i in np.sort(chosen):
            new_labels[i] = dst
            log.append(Flip(int(i), int(src), int(dst)))
    return new_labels, log


def inject_multiclass(labels, n_classes: int, spec: NoiseSpec):
    """Each label i independently becomes (i + 1) % n_classes with
    probability rate."""
    _check_protocol(spec, "multiclass_pairflip")
    if n_classes < 3:
        raise ValueError("multiclass protocol needs >= 3 classes; use the binary protocol")
    labels = np.asarray(labels)
    rng = np.random.default_rng(spec.seed)
    flipped = np.nonzero(rng.random(labels.size) < spec.rate)[0]
    old = labels[flipped].astype(np.int64)
    new = (old + 1) % n_classes
    new_labels = labels.copy()
    new_labels[flipped] = new
    return new_labels, list(map(Flip, flipped.tolist(), old.tolist(), new.tolist()))


def write_flip_log(log, path):
    write_csv(path, ["sample_index", "old_label", "new_label"],
              [[f.index for f in log], [f.old_label for f in log], [f.new_label for f in log]])
