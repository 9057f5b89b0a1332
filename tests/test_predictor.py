import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradzip.errors import IntegrityError, UsageError
from gradzip.predictor import (
    _BLOCK,
    SIGMA_FLOOR,
    PredictParams,
    SignBitmap,
    UndefinedCorrelationError,
    bitmap_overhead_ratio,
    decode_bitmap,
    encode_bitmap,
    gradient_correlation,
    predict_magnitude,
    predict_signs,
    reconstruct_signs,
    sign_consistency,
)
from gradzip.trace import ByteReader, GradientTensor, LayerSpec


class TestPredictMagnitude:
    def test_hand_traced_step(self):
        # prev |recon| = [1,2,3]: mean 2, population std sqrt(2/3).
        memory = np.zeros(3)
        params = PredictParams(beta=0.5)
        pred = predict_magnitude(
            np.array([1.0, 2.0, 3.0]), mu_curr=1.0, sigma_curr=0.5, memory=memory, params=params
        )
        std = math.sqrt(2.0 / 3.0)
        z = np.array([-1.0, 0.0, 1.0]) / std
        want_mem = 0.5 * z
        want_pred = want_mem * 0.5 + 1.0
        np.testing.assert_allclose(pred, want_pred, rtol=0, atol=1e-12)
        np.testing.assert_allclose(memory, want_mem, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pred, [0.6938, 1.0, 1.3062], atol=5e-5)
        np.testing.assert_allclose(memory, [-0.6124, 0.0, 0.6124], atol=5e-5)

    def test_constant_input_predicts_mu(self):
        pred = predict_magnitude(
            np.full(5, 0.25), mu_curr=3.0, sigma_curr=2.0, memory=np.zeros(5), params=PredictParams()
        )
        np.testing.assert_array_equal(pred, np.full(5, 3.0))

    def test_beta_one_ignores_memory(self):
        rng = np.random.default_rng(0)
        x = np.abs(rng.normal(size=16))
        params = PredictParams(beta=1.0)
        p1 = predict_magnitude(x, 1.0, 1.0, rng.normal(size=16), params)
        p2 = predict_magnitude(x, 1.0, 1.0, np.zeros(16), params)
        np.testing.assert_array_equal(p1, p2)

    def test_clamped_nonnegative_memory_unclamped(self):
        # Large negative z with small mu forces a negative raw prediction.
        memory = np.zeros(3)
        pred = predict_magnitude(
            np.array([0.0, 1.0, 10.0]), mu_curr=0.01, sigma_curr=5.0,
            memory=memory, params=PredictParams(beta=1.0),
        )
        assert (pred >= 0.0).all()
        assert memory.min() < 0.0

    @pytest.mark.parametrize("memory", [
        np.zeros(3), np.zeros(4, dtype=np.float32), np.zeros((2, 2)),
    ], ids=["length", "float32", "2d"])
    def test_memory_mismatch(self, memory):
        with pytest.raises(UsageError):
            predict_magnitude(np.ones(4), 1.0, 1.0, memory, PredictParams())

    @pytest.mark.parametrize("n", [1, 7, _BLOCK, _BLOCK + 3, 2 * _BLOCK + 1])
    @pytest.mark.parametrize("constant", [False, True])
    def test_in_place_matches_separate_buffers(self, n, constant):
        # The signed float32 reconstruction and its float64 magnitudes, each
        # run on its own copy of one memory, give bitwise the same prediction
        # and memory, and the input is left as it was. A constant magnitude,
        # and n = 1, standardize by SIGMA_FLOOR.
        rng = np.random.default_rng(n)
        recon = rng.normal(size=n).astype(np.float32)
        if constant:
            recon = np.where(recon < 0, -0.25, 0.25).astype(np.float32)
        memory = rng.normal(size=n)
        params = PredictParams(beta=0.3)
        x = np.abs(recon, dtype=np.float64)
        want_mem = memory.copy()
        want = predict_magnitude(x, 0.7, 0.4, want_mem, params)
        assert np.array_equal(x, np.abs(recon, dtype=np.float64))
        if constant or n == 1:
            assert np.array_equal(want_mem, 0.7 * memory)
            assert float(x.std()) < SIGMA_FLOOR
        got_mem = memory.copy()
        got = predict_magnitude(recon, 0.7, 0.4, got_mem, params)
        assert got.tobytes() == want.tobytes()
        assert got_mem.tobytes() == want_mem.tobytes()
        assert not np.array_equal(got_mem, memory)

    def test_determinism(self):
        rng = np.random.default_rng(3)
        xs = [np.abs(rng.normal(size=32)) for _ in range(5)]

        def run():
            memory = np.zeros(32)
            out = [predict_magnitude(x, float(x.mean()), float(x.std()), memory, PredictParams())
                   for x in xs]
            return out, memory

        out_a, mem_a = run()
        out_b, mem_b = run()
        for a, b in zip(out_a, out_b):
            assert np.array_equal(a, b)
        assert mem_a.tobytes() == mem_b.tobytes()


class TestGradientCorrelation:
    def test_identical(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = rng.normal(size=rng.integers(1, 64))
            if np.linalg.norm(a) == 0:
                continue
            assert gradient_correlation(a, a) == pytest.approx(1.0, abs=1e-6)
            assert gradient_correlation(a, -a) == pytest.approx(-1.0, abs=1e-6)

    def test_orthogonal(self):
        assert gradient_correlation(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_zero_norm(self):
        with pytest.raises(UndefinedCorrelationError):
            gradient_correlation(np.zeros(3), np.ones(3))

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.normal(size=8)
            b = rng.normal(size=8)
            c = gradient_correlation(a, b)
            assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12


class TestSignConsistency:
    def test_all_positive(self):
        assert sign_consistency(np.ones(9)) == 1.0

    def test_near_tie(self):
        k = np.array([1.0] * 5 + [-1.0] * 4)
        assert sign_consistency(k) == 0.0

    def test_seven_two(self):
        k = np.array([1.0] * 7 + [-1.0] * 2)
        assert sign_consistency(k) == 0.5

    def test_single_element(self):
        assert sign_consistency(np.array([-3.0])) == 1.0
        assert sign_consistency(np.array([0.0])) == 1.0

    def test_zeros_count_toward_agreement(self):
        # P=4, N=0, Z=5, T=9: (4+5-5)/4 = 1.0
        k = np.array([1.0] * 4 + [0.0] * 5)
        assert sign_consistency(k) == 1.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            t = int(rng.integers(1, 30))
            k = rng.choice([-1.0, 0.0, 1.0], size=t)
            got = sign_consistency(k)
            assert 0.0 <= got <= 1.0
            p = int((k > 0).sum())
            n = int((k < 0).sum())
            z = t - p - n
            half = math.ceil(t / 2)
            want = 1.0 if t == half else min(1.0, max(0.0, (max(p, n) + z - half) / (t - half)))
            assert got == want


def conv_tensor(values, out_ch, in_ch, kh, kw):
    spec = LayerSpec("conv", (out_ch, in_ch, kh, kw))
    return GradientTensor(spec, np.asarray(values, dtype=np.float32))


class TestPredictSigns:
    def test_full_batch_anticorrelated(self):
        spec = LayerSpec("fc", (2, 2))
        g = GradientTensor(spec, np.array([1.0, -2.0, 3.0, -4.0], dtype=np.float32))
        prev_recon = -g.values
        params = PredictParams(full_batch=True)
        signs, bitmap = predict_signs(g, prev_recon, params)
        assert bitmap.variant == "flip_bit" and bitmap.flip is True
        np.testing.assert_array_equal(signs.values, -np.sign(prev_recon))

    def test_full_batch_correlated_no_flip(self):
        spec = LayerSpec("fc", (2, 2))
        g = GradientTensor(spec, np.array([1.0, -2.0, 3.0, -4.0], dtype=np.float32))
        signs, bitmap = predict_signs(g, g.values, PredictParams(full_batch=True))
        assert bitmap.flip is False
        np.testing.assert_array_equal(signs.values, np.sign(g.values))

    def test_full_batch_zero_norm_means_no_flip(self):
        spec = LayerSpec("fc", (2,))
        g = GradientTensor(spec, np.zeros(2, dtype=np.float32))
        prev_recon = np.array([1.0, -1.0], dtype=np.float32)
        signs, bitmap = predict_signs(g, prev_recon, PredictParams(full_batch=True))
        assert bitmap.flip is False
        np.testing.assert_array_equal(signs.values, [1, -1])

    def test_kernel_at_threshold_predicted(self):
        # Consistency exactly 0.5 with tau 0.5: inclusive threshold.
        g = conv_tensor([1.0] * 7 + [-1.0] * 2, 1, 1, 3, 3)
        signs, bitmap = predict_signs(g, None, PredictParams(tau=0.5))
        assert bitmap.variant == "kernel_maps"
        assert bitmap.level1.tolist() == [True]
        assert bitmap.level2.tolist() == [True]
        np.testing.assert_array_equal(signs.values, np.ones(9, dtype=np.int8))

    def test_kernel_below_threshold(self):
        g = conv_tensor([1.0] * 5 + [-1.0] * 4, 1, 1, 3, 3)
        signs, bitmap = predict_signs(g, None, PredictParams(tau=0.5))
        assert bitmap.level1.tolist() == [False]
        assert bitmap.level2.size == 0
        np.testing.assert_array_equal(signs.values, np.zeros(9, dtype=np.int8))

    def test_dominant_tie_unpredicted(self):
        # P == N with zeros filling the rest: high raw consistency, still a tie.
        g = conv_tensor([1.0, -1.0] + [0.0] * 7, 1, 1, 3, 3)
        signs, bitmap = predict_signs(g, None, PredictParams(tau=0.5))
        assert bitmap.level1.tolist() == [False]
        np.testing.assert_array_equal(signs.values, np.zeros(9, dtype=np.int8))

    def test_all_zero_kernel_unpredicted(self):
        g = conv_tensor([0.0] * 9, 1, 1, 3, 3)
        _, bitmap = predict_signs(g, None, PredictParams())
        assert bitmap.level1.tolist() == [False]

    def test_negative_dominant(self):
        g = conv_tensor([-1.0] * 8 + [1.0], 1, 1, 3, 3)
        signs, bitmap = predict_signs(g, None, PredictParams())
        assert bitmap.level1.tolist() == [True]
        assert bitmap.level2.tolist() == [False]
        np.testing.assert_array_equal(signs.values, -np.ones(9, dtype=np.int8))

    def test_non_conv_layer_no_prediction(self):
        spec = LayerSpec("fc", (4, 4))
        g = GradientTensor(spec, np.ones(16, dtype=np.float32))
        signs, bitmap = predict_signs(g, None, PredictParams())
        assert bitmap.variant == "none"
        assert not signs.values.any()

    @settings(max_examples=300, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)),
        tau=st.one_of(st.sampled_from([0.0, 0.25, 1 / 3, 0.5, 2 / 3, 1.0]), st.floats(0.0, 1.0)),
        data=st.data(),
    )
    def test_kernel_bitmap_matches_per_kernel_oracle(self, shape, tau, data):
        # Entries from a few values with zeros of both signs, so small kernels
        # often tie or sit exactly at tau.
        spec = LayerSpec("c", shape)
        entries = st.sampled_from([-2.0, -0.5, -0.0, 0.0, 0.5, 2.0])
        values = np.array(data.draw(st.lists(entries, min_size=spec.numel, max_size=spec.numel)),
                          dtype=np.float32)
        signs, bitmap = predict_signs(GradientTensor(spec, values), None, PredictParams(tau=tau))
        assert bitmap.variant == "kernel_maps" and bitmap.kernel_count == spec.kernel_count
        kernels = values.reshape(spec.kernel_count, spec.kernel_size)
        level2 = iter(bitmap.level2.tolist())
        for kernel, hit, kernel_signs in zip(
            kernels, bitmap.level1.tolist(), signs.values.reshape(kernels.shape)
        ):
            pos, neg = int((kernel > 0).sum()), int((kernel < 0).sum())
            assert hit == (sign_consistency(kernel) >= tau and pos != neg)
            want = 0
            if hit:
                assert next(level2) == (pos > neg)
                want = 1 if pos > neg else -1
            assert (kernel_signs == want).all()
        assert next(level2, None) is None


class TestReconstructSigns:
    def test_roundtrip_mini_batch(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            out_ch = int(rng.integers(1, 5))
            in_ch = int(rng.integers(1, 5))
            kh, kw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            spec = LayerSpec("c", (out_ch, in_ch, kh, kw))
            g = GradientTensor(spec, rng.normal(size=spec.numel).astype(np.float32))
            signs, bitmap = predict_signs(g, None, PredictParams(tau=0.4))
            back = reconstruct_signs(bitmap, None, spec)
            np.testing.assert_array_equal(back.values, signs.values)

    def test_roundtrip_full_batch(self):
        rng = np.random.default_rng(10)
        spec = LayerSpec("fc", (8, 8))
        for _ in range(30):
            g = GradientTensor(spec, rng.normal(size=64).astype(np.float32))
            prev_recon = rng.normal(size=64).astype(np.float32)
            signs, bitmap = predict_signs(g, prev_recon, PredictParams(full_batch=True))
            back = reconstruct_signs(bitmap, prev_recon, spec)
            np.testing.assert_array_equal(back.values, signs.values)

    def test_none_variant_gives_zeros(self):
        spec = LayerSpec("fc", (3,))
        out = reconstruct_signs(SignBitmap(), None, spec)
        assert not out.values.any()

    def test_kernel_count_mismatch(self):
        spec = LayerSpec("c", (2, 2, 3, 3))
        bitmap = SignBitmap(
            variant="kernel_maps", kernel_count=3,
            level1=np.zeros(3, dtype=bool), level2=np.zeros(0, dtype=bool),
        )
        with pytest.raises(UsageError, match="bitmap covers 3 kernels, layer has 4"):
            reconstruct_signs(bitmap, None, spec)


class TestBitmapWire:
    def test_roundtrip_all_variants(self):
        rng = np.random.default_rng(4)
        cases = [SignBitmap(), SignBitmap(variant="flip_bit", flip=True),
                 SignBitmap(variant="flip_bit", flip=False)]
        for _ in range(20):
            kc = int(rng.integers(1, 40))
            level1 = rng.random(kc) < 0.5
            level2 = rng.random(int(level1.sum())) < 0.5
            cases.append(SignBitmap(variant="kernel_maps", kernel_count=kc,
                                    level1=level1, level2=level2))
        for bm in cases:
            raw = encode_bitmap(bm)
            back = decode_bitmap(ByteReader(raw))
            assert back.variant == bm.variant
            if bm.variant == "flip_bit":
                assert back.flip == bm.flip
            if bm.variant == "kernel_maps":
                assert back.kernel_count == bm.kernel_count
                np.testing.assert_array_equal(back.level1, bm.level1)
                np.testing.assert_array_equal(back.level2, bm.level2)

    def test_wire_size_formula(self):
        # tag + u32 count + ceil(K/8) level-1 bytes + ceil(popcount/8) level-2 bytes
        rng = np.random.default_rng(8)
        for _ in range(50):
            kc = int(rng.integers(1, 100))
            level1 = rng.random(kc) < 0.6
            pred = int(level1.sum())
            bm = SignBitmap(variant="kernel_maps", kernel_count=kc,
                            level1=level1, level2=rng.random(pred) < 0.5)
            want = 1 + 4 + (kc + 7) // 8 + (pred + 7) // 8
            assert len(encode_bitmap(bm)) == want

    def test_level2_length_validated(self):
        with pytest.raises(IntegrityError):
            SignBitmap(variant="kernel_maps", kernel_count=2,
                       level1=np.array([True, True]), level2=np.array([True]))

    def test_bits_per_value_matches_formula(self):
        # Large conv layer: measured bitmap bits per value vs (1 + P) / K.
        rng = np.random.default_rng(11)
        spec = LayerSpec("c", (128, 96, 3, 3))  # 110592 elements
        raw = rng.normal(size=spec.numel).astype(np.float32)
        g = GradientTensor(spec, raw)
        signs, bitmap = predict_signs(g, None, PredictParams(tau=0.2))
        p_ratio = bitmap.predicted_count / spec.kernel_count
        bits = spec.kernel_count + bitmap.predicted_count
        measured = bits / spec.numel
        formula = (1.0 + p_ratio) / spec.kernel_size
        assert abs(measured - formula) <= 0.01 * formula


class TestOverheadRatio:
    def test_worked_example(self):
        got = bitmap_overhead_ratio(0.6, 32, 9, 1.2)
        assert got == pytest.approx(0.0046296, abs=5e-7)
        assert round(got, 4) == 0.0046

    def test_trivial_unit(self):
        assert bitmap_overhead_ratio(0.0, 1, 1, 1.0) == 1.0

    def test_full_prediction(self):
        assert bitmap_overhead_ratio(1.0, 32, 9, 1.0) == pytest.approx(2.0 / 288.0)

    def test_validation(self):
        with pytest.raises(UsageError):
            bitmap_overhead_ratio(1.5, 32, 9, 1.0)
        with pytest.raises(UsageError):
            bitmap_overhead_ratio(0.5, 32, 9, 0.5)
