import math
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradzip.codec import (
    DEFAULT_BIN_CAP,
    ErrorBoundConfig,
    HuffmanBlock,
    QuantizedStream,
    decode_block,
    decode_stream,
    dequantize,
    encode_block,
    encode_stream,
    entropy_decode,
    entropy_encode,
    lossless_compress,
    lossless_decompress,
    quantize,
    read_stream,
    resolve_bound,
)
from gradzip.errors import DataError, FormatError, IntegrityError, UsageError
from gradzip.trace import ByteReader, GradientTensor, LayerSpec


def quantize0(values, delta):
    """Quantize with a zero prediction, so the residual is the value itself."""
    values = np.asarray(values)
    return quantize(values, np.zeros(values.size), delta)[0]


def dequantize0(stream, delta):
    return dequantize(stream, np.zeros(stream.numel), delta)


def tensor(values):
    arr = np.asarray(values, dtype=np.float32)
    return GradientTensor(LayerSpec("t", (arr.size,)), arr)


class TestResolveBound:
    def test_absolute_identity(self):
        cfg = ErrorBoundConfig("absolute", 0.05)
        assert resolve_bound(cfg, tensor([1, 2, 3])) == 0.05

    def test_relative_uses_range(self):
        cfg = ErrorBoundConfig("relative", 1e-2)
        got = resolve_bound(cfg, tensor([-1.0, 0.5, 3.0]))
        assert got == pytest.approx(0.04)

    def test_relative_constant_tensor_floored(self):
        cfg = ErrorBoundConfig("relative", 1e-2)
        got = resolve_bound(cfg, tensor([2.0, 2.0, 2.0]))
        assert got > 0.0

    def test_invalid_configs(self):
        with pytest.raises(UsageError):
            ErrorBoundConfig("absolute", 0.0)
        with pytest.raises(UsageError):
            ErrorBoundConfig("typo", 0.1)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    @pytest.mark.parametrize("mode", ["absolute", "relative"])
    def test_non_finite_bound_rejected(self, mode, value):
        with pytest.raises(UsageError, match="finite"):
            ErrorBoundConfig(mode, value)


class TestQuantize:
    def test_worked_example(self):
        s = quantize0(np.array([0.12]), 0.05)
        assert s.bins.tolist() == [1]
        out = dequantize0(s, 0.05)
        assert out[0] == pytest.approx(0.10)
        assert abs(out[0] - 0.12) <= 0.05

    def test_zero_residual(self):
        s = quantize0(np.array([0.0]), 0.05)
        assert s.bins.tolist() == [0]
        assert dequantize0(s, 0.05)[0] == 0.0

    def test_cap_overflow_becomes_literal(self):
        delta = 1e-3
        val = 1e6 * delta
        s = quantize0(np.array([val]), delta)
        assert s.literal_mask.tolist() == [True]
        assert s.bins.tolist() == [0]
        assert dequantize0(s, delta)[0] == np.float32(val)

    def test_matches_bruteforce_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(1, 1000))
            delta = float(10.0 ** rng.uniform(-4, 0))
            r = rng.normal(scale=rng.uniform(0.01, 5.0), size=n)
            s = quantize0(r, delta)
            for i in range(n):
                # Python's round is ties-to-even, same convention as np.rint.
                want = round(r[i] / (2.0 * delta))
                if abs(want) > DEFAULT_BIN_CAP:
                    assert s.literal_mask[i]
                else:
                    assert not s.literal_mask[i]
                    assert s.bins[i] == want

    def test_ties_to_even(self):
        delta = 0.5  # bin width 1.0: residuals 0.5, 1.5, 2.5 are exact ties
        s = quantize0(np.array([0.5, 1.5, 2.5, -0.5, -1.5]), delta)
        assert s.bins.tolist() == [0, 2, 2, 0, -2]

    def test_nonfinite_rejected(self):
        with pytest.raises(DataError):
            quantize0(np.array([np.nan]), 0.1)
        with pytest.raises(UsageError):
            quantize0(np.array([1.0]), 0.0)

    def test_non_finite_delta_rejected(self):
        for delta in (math.inf, math.nan):
            with pytest.raises(UsageError, match="finite"):
                quantize0(np.array([1.0]), delta)
        # A relative bound that overflows once scaled by the layer's range.
        delta = resolve_bound(ErrorBoundConfig("relative", 1e308), tensor([-2.0, 2.0]))
        assert delta == math.inf
        with pytest.raises(UsageError, match="finite"):
            quantize0(np.array([-2.0, 2.0]), delta)

    def test_roundtrip_bound(self):
        rng = np.random.default_rng(17)
        for delta in (1e-4, 1e-2, 1.0):
            r = rng.normal(scale=3.0, size=4096)
            out = dequantize0(quantize0(r, delta), delta)
            assert float(np.abs(out - r).max()) <= delta

    def test_literal_exact(self):
        val = np.float32(0.1234567)
        delta = 1e-9
        s = quantize0(np.array([float(val) * 1e6], dtype=np.float64) * 0 + float(val), delta)
        # Force the literal path with a tiny delta and a large value.
        big = float(val) + 1e5
        s = quantize0(np.array([big]), delta)
        assert s.literal_mask[0]
        assert dequantize0(s, delta)[0] == np.float32(big)

    # Extreme predictions and bounds overflow float64 on the way to a
    # literal; numpy warns about that, and the literal path absorbs it.
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @example(
        data=np.array([3.4028235e38, -3.4028235e38, 1e-45, -1e-45, 0.0], dtype=np.float32),
        ghat=0.0, delta=1e-3, ulps=None,
    )
    @example(data=np.full(7, 1e-40, dtype=np.float32), ghat=-2.5, delta=0.75, ulps=None)
    # A negative-zero prediction and a residual that rounds to bin -0.0: the
    # reconstruction must be the +0.0 that dequantize rebuilds from bin 0.
    @example(data=np.array([-1.0], dtype=np.float32), ghat=-0.0, delta=1.0, ulps=None)
    # One binade and a bound of 0.6 spacings: rounding the float64
    # reconstruction to float32 pushes some elements past the bound.
    @example(
        data=(1.0 + np.arange(48) / 48 + 1 / 97).astype(np.float32),
        ghat=None, delta=1.0, ulps=0.6,
    )
    @given(
        data=hnp.arrays(
            np.float32,
            st.integers(1, 48),
            elements=st.floats(width=32, allow_nan=False, allow_infinity=False),
        ).flatmap(lambda a: st.sampled_from([a, np.full(a.size, a[0], dtype=np.float32)])),
        ghat=st.none() | st.floats(-1e3, 1e3) | st.floats(allow_nan=False, allow_infinity=False),
        delta=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        ulps=st.none() | st.floats(0.25, 4.0),
    )
    def test_bound_literals_and_reconstruction_property(self, data, ghat, delta, ulps):
        # ghat None tracks the data closely, so residuals go through the
        # bins; a scalar broadcasts one finite prediction of any magnitude.
        # ulps sets the bound to a few float32 spacings of the largest
        # element, where float32 rounding decides whether the bound holds.
        if ulps is not None:
            delta = ulps * float(np.spacing(np.abs(data).max()))
        if ghat is None:
            ghat = data.astype(np.float64) * (1 - 2**-12)
        ghat = np.broadcast_to(np.asarray(ghat, dtype=np.float64), data.shape)
        if not math.isfinite(delta):  # the float32 spacing at FLT_MAX is inf
            with pytest.raises(UsageError):
                quantize(data, ghat, delta)
            return
        stream, recon32 = quantize(data, ghat, delta)
        wire = encode_stream(stream)
        back = decode_stream(read_stream(ByteReader(wire, truncation_error=IntegrityError), data.size))
        out = dequantize(back, ghat, delta)
        assert out.dtype == np.float32
        assert np.all(np.abs(out.astype(np.float64) - data.astype(np.float64)) <= delta)
        assert stream.literals.view(np.uint32).tolist() == data[stream.literal_mask].view(np.uint32).tolist()
        assert out.view(np.uint32).tolist() == recon32.view(np.uint32).tolist()

    def test_monotone_symbol_count(self):
        rng = np.random.default_rng(19)
        r = rng.normal(size=8192)
        prev = None
        for delta in (1e-4, 1e-3, 1e-2, 1e-1, 1.0):
            nsym = np.unique(quantize0(r, delta).bins).size
            if prev is not None:
                assert nsym <= prev
            prev = nsym


class TestQuantizedStreamValidation:
    def test_literal_count_mismatch(self):
        with pytest.raises(IntegrityError):
            QuantizedStream(
                np.zeros(4, dtype=np.int32),
                np.array([True, False, False, False]),
                np.zeros(2, dtype=np.float32),
            )

    def test_nonzero_bin_under_mask(self):
        with pytest.raises(IntegrityError):
            QuantizedStream(
                np.array([5, 0], dtype=np.int32),
                np.array([True, False]),
                np.array([1.0], dtype=np.float32),
            )

    def test_cap_violation(self):
        with pytest.raises(IntegrityError):
            QuantizedStream(
                np.array([DEFAULT_BIN_CAP + 1], dtype=np.int32),
                np.array([False]),
                np.zeros(0, dtype=np.float32),
            )


def roundtrip_bins(bins):
    block = entropy_encode(np.asarray(bins))
    return entropy_decode(block)


class TestHuffman:
    def test_single_symbol_run(self):
        bins = np.zeros(17, dtype=np.int64)
        block = entropy_encode(bins)
        assert block.bit_count == 17  # one bit per symbol
        np.testing.assert_array_equal(entropy_decode(block), bins)

    def test_empty_input(self):
        block = entropy_encode(np.zeros(0, dtype=np.int64))
        assert block.bit_count == 0
        assert entropy_decode(block).size == 0

    def test_random_roundtrips(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 3000))
            spread = int(rng.integers(1, 200))
            bins = rng.integers(-spread, spread + 1, size=n)
            np.testing.assert_array_equal(roundtrip_bins(bins), bins)

    def test_skewed_distribution_roundtrip(self):
        rng = np.random.default_rng(29)
        bins = np.clip(np.round(rng.standard_cauchy(size=20000)), -500, 500).astype(np.int64)
        np.testing.assert_array_equal(roundtrip_bins(bins), bins)

    def test_negative_and_sparse_alphabet(self):
        bins = np.array([-30000, 30000, -30000, 0, 30000, 30000], dtype=np.int64)
        np.testing.assert_array_equal(roundtrip_bins(bins), bins)

    def test_mean_length_within_entropy_plus_one(self):
        rng = np.random.default_rng(31)
        for scale in (0.5, 2.0, 10.0):
            bins = np.round(rng.normal(scale=scale, size=50000)).astype(np.int64)
            block = entropy_encode(bins)
            _, counts = np.unique(bins, return_counts=True)
            p = counts / counts.sum()
            entropy = float(-(p * np.log2(p)).sum())
            mean_len = block.bit_count / bins.size
            assert mean_len <= entropy + 1.0 + 1e-9

    def test_prefix_freeness(self):
        rng = np.random.default_rng(37)
        bins = rng.integers(-40, 41, size=5000)
        block = entropy_encode(bins)
        lengths = block.lengths
        # Rebuild canonical codes the way the coder assigns them.
        used = np.nonzero(lengths)[0]
        order = used[np.argsort(lengths[used], kind="stable")]
        codes = []
        code = 0
        prev = 0
        for idx in order:
            ln = int(lengths[idx])
            code <<= ln - prev
            codes.append((format(code, f"0{ln}b")))
            code += 1
            prev = ln
        for i, a in enumerate(codes):
            for b in codes[i + 1:]:
                assert not b.startswith(a) and not a.startswith(b)

    def test_determinism(self):
        rng = np.random.default_rng(41)
        bins = rng.integers(-100, 101, size=4000)
        b1 = entropy_encode(bins)
        b2 = entropy_encode(bins)
        assert encode_block(b1) == encode_block(b2)


class TestBlockSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(43)
        bins = rng.integers(-64, 65, size=2000)
        block = entropy_encode(bins)
        raw = encode_block(block)
        back = decode_block(ByteReader(raw))
        assert back.min_symbol == block.min_symbol
        np.testing.assert_array_equal(back.lengths, block.lengths)
        assert back.bit_count == block.bit_count
        assert back.stream == block.stream
        np.testing.assert_array_equal(entropy_decode(back), bins)

    def test_truncated_stream_detected(self):
        bins = np.arange(-50, 50)
        raw = encode_block(entropy_encode(bins))
        reader = ByteReader(raw[:-3], truncation_error=IntegrityError)
        with pytest.raises(IntegrityError):
            decode_block(reader)

    def test_garbage_bitstream_detected(self):
        # Flip bits in the payload of a single-symbol block: any 1 bit is invalid.
        block = entropy_encode(np.zeros(16, dtype=np.int64))
        corrupted = HuffmanBlock(
            block.min_symbol, block.lengths.copy(), block.bit_count, b"\xff\xff", 16
        )
        with pytest.raises(IntegrityError):
            entropy_decode(corrupted)

    def test_oversubscribed_code_lengths_rejected(self):
        # Three one-bit codes break the Kraft inequality: 3 * 2**-1 > 1.
        with pytest.raises(IntegrityError):
            entropy_decode(HuffmanBlock(0, [1, 1, 1], 8, b"\xff", 0))

    def test_bit_count_beyond_stream(self):
        with pytest.raises(IntegrityError):
            HuffmanBlock(0, np.array([1], dtype=np.uint8), 64, b"\x00", 1)


class TestStreamSerialization:
    def test_roundtrip_with_literals(self):
        rng = np.random.default_rng(47)
        delta = 1e-3
        r = rng.normal(size=5000)
        r[rng.integers(0, 5000, size=12)] = 1e9  # force literals
        s = quantize0(r, delta)
        assert s.literals.size >= 12
        raw = encode_stream(s)
        back = decode_stream(read_stream(ByteReader(raw, truncation_error=IntegrityError), s.numel))
        np.testing.assert_array_equal(back.bins, s.bins)
        np.testing.assert_array_equal(back.literal_mask, s.literal_mask)
        np.testing.assert_array_equal(back.literals, s.literals)

    def test_literal_count_mismatch_detected(self):
        s = quantize0(np.array([1e9, 0.0]), 1e-3)
        raw = bytearray(encode_stream(s))
        # Literal count field sits right after the Huffman block.
        block_len = len(encode_block(entropy_encode(s.bins)))
        raw[block_len] ^= 0xFF
        with pytest.raises(IntegrityError):
            read_stream(ByteReader(bytes(raw), truncation_error=IntegrityError), 2)


class TestLosslessBackend:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(53)
        for _ in range(10):
            data = rng.bytes(int(rng.integers(0, 5000)))
            assert lossless_decompress(lossless_compress(data)) == data
            assert lossless_decompress(lossless_compress(data, "store")) == data

    def test_repeated_pattern_compresses_hard(self):
        pattern = bytes(range(64))
        data = pattern * (1 << 14)  # 1 MiB
        out = lossless_compress(data)
        assert len(out) < 0.05 * len(data)

    def test_store_is_identity_plus_header(self):
        data = b"hello world"
        out = lossless_compress(data, "store")
        assert out[1:] == data
        assert len(out) == len(data) + 1

    def test_corrupt_payload(self):
        blob = bytearray(lossless_compress(b"some payload" * 100))
        blob[5] ^= 0xFF
        with pytest.raises(IntegrityError):
            lossless_decompress(bytes(blob))

    def test_unknown_tag(self):
        with pytest.raises(FormatError):
            lossless_decompress(b"Qxxxx")
        with pytest.raises(FormatError):
            lossless_decompress(b"")

    def test_deterministic(self):
        data = zlib.compress(b"seed material")  # arbitrary fixed bytes
        assert lossless_compress(data) == lossless_compress(data)


class TestEndToEndBound:
    def test_full_chain_error_bound(self):
        rng = np.random.default_rng(59)
        for delta in (1e-4, 1e-2, 1.0):
            r = rng.normal(scale=2.0, size=10000)
            s = quantize0(r, delta)
            wire = lossless_compress(encode_stream(s))
            back = decode_stream(read_stream(
                ByteReader(lossless_decompress(wire), truncation_error=IntegrityError),
                s.numel,
            ))
            out = dequantize0(back, delta)
            assert float(np.abs(out - r).max()) <= delta
