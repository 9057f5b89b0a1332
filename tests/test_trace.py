import math

import numpy as np
import pytest

from gradzip.errors import DataError, FormatError, IntegrityError, UsageError
from gradzip.trace import (
    GradientTensor,
    GradientTrace,
    LayerSpec,
    SynthConfig,
    abs_stats,
    load_trace,
    open_trace,
    synth_trace,
    write_trace,
)


def save(trace, path):
    write_trace(path, trace.mode, trace.layers, trace.num_rounds, trace.rounds)


def small_layers():
    return (
        LayerSpec("conv1", (4, 3, 3, 3)),
        LayerSpec("fc", (10, 8)),
        LayerSpec("bias", (10,)),
    )


class TestLayerSpec:
    def test_kind_derivation(self):
        assert LayerSpec("c", (2, 2, 3, 3)).kind == "conv4d"
        assert LayerSpec("f", (5, 4)).kind == "other"
        assert LayerSpec("b", (7,)).kind == "other"

    def test_kind_mismatch_rejected(self):
        # The kind is derived from the shape, so no spec can disagree with it.
        with pytest.raises(TypeError):
            LayerSpec("c", (2, 2), kind="conv4d")
        with pytest.raises(AttributeError):
            LayerSpec("c", (2, 2, 3, 3)).kind = "other"

    def test_bad_shapes(self):
        with pytest.raises(UsageError):
            LayerSpec("x", ())
        with pytest.raises(UsageError):
            LayerSpec("x", (1, 2, 3, 4, 5))
        with pytest.raises(UsageError):
            LayerSpec("x", (0, 3))

    def test_kernel_geometry(self):
        spec = LayerSpec("c", (4, 3, 5, 5))
        assert spec.kernel_size == 25
        assert spec.kernel_count == 12
        assert spec.numel == 4 * 3 * 25
        with pytest.raises(UsageError):
            LayerSpec("f", (4, 3)).kernel_size


class TestGradientTensor:
    def test_size_mismatch(self):
        spec = LayerSpec("f", (3, 2))
        with pytest.raises(IntegrityError):
            GradientTensor(spec, np.zeros(5, dtype=np.float32))

    def test_nonfinite_rejected(self):
        spec = LayerSpec("b", (3,))
        with pytest.raises(DataError):
            GradientTensor(spec, np.array([1.0, np.nan, 2.0], dtype=np.float32))
        with pytest.raises(DataError):
            GradientTensor(spec, np.array([1.0, np.inf, 2.0], dtype=np.float32))

    def test_flattens_row_major(self):
        spec = LayerSpec("f", (2, 2))
        t = GradientTensor(spec, np.array([[1, 2], [3, 4]], dtype=np.float32))
        assert t.values.tolist() == [1.0, 2.0, 3.0, 4.0]


class TestAbsStats:
    def test_known_pair(self):
        # |3| and |-4| have mean 3.5 and population std 0.5.
        spec = LayerSpec("b", (2,))
        t = GradientTensor(spec, np.array([3.0, -4.0], dtype=np.float32))
        mean, std = abs_stats(t)
        assert mean == pytest.approx(3.5)
        assert std == pytest.approx(0.5)

    def test_population_not_sample_std(self):
        rng = np.random.default_rng(7)
        spec = LayerSpec("b", (64,))
        t = GradientTensor(spec, rng.normal(size=64).astype(np.float32))
        _, std = abs_stats(t)
        assert std == pytest.approx(float(np.abs(t.values.astype(np.float64)).std(ddof=0)))


class TestTraceFileRoundtrip:
    def test_roundtrip_identity(self, tmp_path):
        cfg = SynthConfig(seed=11, layers=small_layers(), rounds=4)
        trace = synth_trace(cfg)
        p = tmp_path / "t.gtrc"
        save(trace, p)
        back = load_trace(p)
        assert back.mode == trace.mode
        assert back.layers == trace.layers
        assert back.num_rounds == trace.num_rounds
        for got, want in zip(back.rounds, trace.rounds):
            for g, w in zip(got, want):
                assert np.array_equal(g.values, w.values)

    def test_reader_yields_each_round_as_views_of_one_buffer(self, tmp_path):
        cfg = SynthConfig(seed=13, layers=small_layers(), rounds=3)
        trace = synth_trace(cfg)
        p = tmp_path / "t.gtrc"
        save(trace, p)
        with open_trace(p) as (mode, layers, nrounds, reader):
            assert (mode, layers, nrounds) == (trace.mode, trace.layers, 3)
            rounds = list(reader)
        assert len(rounds) == 3
        buffers = set()
        for got, want in zip(rounds, trace.rounds):
            base = got[0].values.base
            assert base is not None and all(g.values.base is base for g in got)
            buffers.add(id(base))
            assert [g.values.tobytes() for g in got] == [w.values.tobytes() for w in want]
        assert len(buffers) == 3

    def test_byte_determinism(self, tmp_path):
        cfg = SynthConfig(seed=5, layers=small_layers(), rounds=3, mode="full_batch")
        p1 = tmp_path / "a.gtrc"
        p2 = tmp_path / "b.gtrc"
        save(synth_trace(cfg), p1)
        save(synth_trace(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.gtrc"
        p.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            load_trace(p)

    def test_truncated_payload(self, tmp_path):
        cfg = SynthConfig(seed=3, layers=small_layers(), rounds=2)
        p = tmp_path / "t.gtrc"
        save(synth_trace(cfg), p)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(IntegrityError):
            load_trace(p)

    def test_nan_payload(self, tmp_path):
        spec = LayerSpec("b", (4,))
        trace = GradientTrace(
            [spec],
            [[GradientTensor(spec, np.ones(4, dtype=np.float32))]],
        )
        p = tmp_path / "t.gtrc"
        save(trace, p)
        raw = bytearray(p.read_bytes())
        raw[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        p.write_bytes(bytes(raw))
        with pytest.raises(DataError):
            load_trace(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.gtrc"
        p.write_bytes(b"")
        with pytest.raises(FormatError):
            load_trace(p)


class TestSynthTrace:
    def test_determinism(self):
        cfg = SynthConfig(seed=42, layers=small_layers(), rounds=5)
        a = synth_trace(cfg)
        b = synth_trace(cfg)
        for ra, rb in zip(a.rounds, b.rounds):
            for ta, tb in zip(ra, rb):
                assert np.array_equal(ta.values, tb.values)

    def test_seed_changes_output(self):
        layers = small_layers()
        a = synth_trace(SynthConfig(seed=1, layers=layers, rounds=2))
        b = synth_trace(SynthConfig(seed=2, layers=layers, rounds=2))
        assert not np.array_equal(a.rounds[0][0].values, b.rounds[0][0].values)

    def test_magnitude_decay_envelope(self):
        # Mean |g| at round 10 should track decay^9 within a generous band.
        layers = (LayerSpec("fc", (128, 128)),)
        cfg = SynthConfig(seed=9, layers=layers, rounds=10, magnitude_decay=0.9)
        trace = synth_trace(cfg)
        m1, _ = abs_stats(trace.rounds[0][0])
        m10, _ = abs_stats(trace.rounds[9][0])
        expected = 0.9 ** 9
        assert abs(m10 / m1 - expected) <= 0.2 * expected

    def test_sign_consistency_calibration(self):
        # Mean per-kernel consistency (counting oracle over kernel entries)
        # must reach target - 0.05; gross overshoot would also be a bug.
        layers = (LayerSpec("conv", (16, 16, 3, 3)),)
        for target in (0.6, 0.8, 0.95):
            cfg = SynthConfig(
                seed=21, layers=layers, rounds=12, target_sign_consistency=target
            )
            trace = synth_trace(cfg)
            scores = []
            for tensors in trace.rounds:
                kernels = tensors[0].values.reshape(-1, layers[0].kernel_size)
                for k in kernels:
                    scores.append(oracle_consistency(k))
            mean_c = float(np.mean(scores))
            assert mean_c >= target - 0.05, (target, mean_c)
            assert mean_c <= target + 0.12, (target, mean_c)

    def test_full_batch_oscillation(self):
        layers = (LayerSpec("fc", (32, 32)),)
        cfg = SynthConfig(
            seed=4, layers=layers, rounds=6, mode="full_batch", oscillation_period=2
        )
        trace = synth_trace(cfg)
        s = [np.sign(r[0].values) for r in trace.rounds]
        # Rounds 1-2 share signs, rounds 3-4 are their negation.
        assert np.array_equal(s[0], s[1])
        assert np.array_equal(s[2], -s[0])
        assert np.array_equal(s[4], s[0])

    def test_mini_batch_signs_vary(self):
        layers = (LayerSpec("fc", (32, 32)),)
        cfg = SynthConfig(seed=4, layers=layers, rounds=3)
        trace = synth_trace(cfg)
        s1 = np.sign(trace.rounds[0][0].values)
        s2 = np.sign(trace.rounds[1][0].values)
        assert not np.array_equal(s1, s2)


def oracle_consistency(kernel: np.ndarray) -> float:
    """Brute-force count-based kernel sign consistency, clamped to [0, 1]."""
    t = kernel.size
    p = int((kernel > 0).sum())
    n = int((kernel < 0).sum())
    z = t - p - n
    half = math.ceil(t / 2)
    if t == half:
        return 1.0
    raw = (max(p, n) + z - half) / (t - half)
    return min(1.0, max(0.0, raw))
