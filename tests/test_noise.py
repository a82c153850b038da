import numpy as np
import numpy.testing as npt
import pytest

from robustboost.noise import NoiseSpec, inject_binary, inject_multiclass, write_flip_log


def binary_labels(n_min=10, n_maj=90):
    return np.array([1] * n_min + [0] * n_maj)


class TestSpec:
    def test_rate_range(self):
        with pytest.raises(ValueError):
            NoiseSpec(rate=0.5)
        with pytest.raises(ValueError):
            NoiseSpec(rate=-0.1)

    def test_protocol_name(self):
        with pytest.raises(ValueError):
            NoiseSpec(rate=0.1, protocol="uniform")


class TestBinary:
    def test_exact_counts(self):
        labels = binary_labels(10, 90)
        new, log = inject_binary(labels, NoiseSpec(rate=0.3, seed=0))
        min_to_maj = sum(1 for f in log if f.old_label == 1)
        maj_to_min = sum(1 for f in log if f.old_label == 0)
        assert min_to_maj == 3 and maj_to_min == 3
        # class sizes preserved
        assert int((new == 1).sum()) == 10

    def test_zero_rate_noop(self):
        labels = binary_labels()
        new, log = inject_binary(labels, NoiseSpec(rate=0.0, seed=0))
        npt.assert_array_equal(new, labels)
        assert log == []

    def test_floor_rounding(self):
        labels = binary_labels(5, 95)
        _, log = inject_binary(labels, NoiseSpec(rate=0.4, seed=1))
        assert sum(1 for f in log if f.old_label == 1) == 2  # floor(0.4*5)

    def test_deterministic(self):
        labels = binary_labels()
        a, _ = inject_binary(labels, NoiseSpec(rate=0.3, seed=9))
        b, _ = inject_binary(labels, NoiseSpec(rate=0.3, seed=9))
        npt.assert_array_equal(a, b)

    def test_flip_log_replay_and_involution(self):
        labels = binary_labels(20, 80)
        new, log = inject_binary(labels, NoiseSpec(rate=0.4, seed=2))
        # the log names exactly the changed rows, each with its old and new label
        changed = np.nonzero(new != labels)[0]
        assert sorted(f.index for f in log) == changed.tolist()
        assert all((f.old_label, f.new_label) == (labels[f.index], new[f.index]) for f in log)

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            inject_binary(np.zeros(10, dtype=int), NoiseSpec(rate=0.1))


class TestMulticlass:
    def test_zero_rate_identity(self):
        labels = np.arange(30) % 3
        new, log = inject_multiclass(labels, 3, NoiseSpec(rate=0.0, protocol="multiclass_pairflip"))
        npt.assert_array_equal(new, labels)
        assert log == []

    def test_flip_fraction_concentrates(self):
        n = 100_000
        labels = np.zeros(n, dtype=int)
        spec = NoiseSpec(rate=0.2, protocol="multiclass_pairflip", seed=3)
        new, _ = inject_multiclass(labels, 3, spec)
        frac = (new == 1).mean()
        sigma = np.sqrt(0.2 * 0.8 / n)
        assert abs(frac - 0.2) < 4 * sigma

    def test_flips_go_to_successor_only(self):
        labels = np.arange(3000) % 3
        spec = NoiseSpec(rate=0.3, protocol="multiclass_pairflip", seed=4)
        new, log = inject_multiclass(labels, 3, spec)
        for f in log:
            assert f.new_label == (f.old_label + 1) % 3

    def test_injectors_refuse_the_other_protocol(self):
        with pytest.raises(ValueError, match="'binary_pairflip', got 'multiclass_pairflip'"):
            inject_binary(binary_labels(), NoiseSpec(rate=0.1, protocol="multiclass_pairflip"))
        with pytest.raises(ValueError, match="'multiclass_pairflip', got 'binary_pairflip'"):
            inject_multiclass(np.arange(30) % 3, 3, NoiseSpec(rate=0.1))

    def test_binary_uses_other_protocol(self):
        with pytest.raises(ValueError):
            inject_multiclass(np.array([0, 1]), 2,
                              NoiseSpec(rate=0.1, protocol="multiclass_pairflip"))


def test_flip_log_csv_roundtrip(tmp_path):
    labels = binary_labels(10, 40)
    _, log = inject_binary(labels, NoiseSpec(rate=0.3, seed=6))
    path = tmp_path / "flips.csv"
    write_flip_log(log, path)
    lines = ["sample_index,old_label,new_label"]
    lines += [f"{f.index},{f.old_label},{f.new_label}" for f in log]
    assert path.read_bytes() == ("\r\n".join(lines) + "\r\n").encode()
