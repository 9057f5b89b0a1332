import math
import struct
import tracemalloc
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradzip import codec
from gradzip.codec import (
    DEFAULT_BIN_CAP,
    EncodedStream,
    ErrorBoundConfig,
    HuffmanBlock,
    _canonical_codes,
    _huffman_code_lengths,
    _pack_codes,
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
    return quantize(values, np.zeros(values.size), delta, np.empty(values.size, dtype=np.float32))[0]


def dequantize0(stream, delta):
    n = stream.bins.size
    return dequantize(stream, np.zeros(n), delta, np.empty(n, dtype=np.float32))


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
        # 1e308 is finite, but its bin width 2 * delta is not.
        for delta in (math.inf, math.nan, 1e308):
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
    # A finite bound whose bin width 2 * delta overflows.
    @example(data=np.ones(3, dtype=np.float32), ghat=0.0, delta=1e308, ulps=None)
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
        if not math.isfinite(2.0 * delta):  # e.g. the float32 spacing at FLT_MAX is inf
            with pytest.raises(UsageError):
                quantize(data, ghat, delta, np.empty(data.size, dtype=np.float32))
            return
        stream, recon32 = quantize(data, ghat, delta, np.empty(data.size, dtype=np.float32))
        wire, _ = encode_stream(stream)
        back = decode_stream(read_stream(ByteReader(wire, truncation_error=IntegrityError), data.size))
        out = dequantize(back, ghat, delta, np.empty(data.size, dtype=np.float32))
        assert out.dtype == np.float32
        assert np.all(np.abs(out.astype(np.float64) - data.astype(np.float64)) <= delta)
        assert stream.literals.view(np.uint32).tolist() == data[stream.literal_mask].view(np.uint32).tolist()
        assert out.view(np.uint32).tolist() == recon32.view(np.uint32).tolist()
        # Literals are exactly the elements that must be: the bin overflows
        # the cap, or its float32 reconstruction misses the bound.
        g = data.astype(np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            want_bin = np.rint((g - ghat) / (2.0 * delta))
            capped = np.where(np.abs(want_bin) <= DEFAULT_BIN_CAP, want_bin, 0.0)
            centre32 = (capped * (2.0 * delta) + ghat).astype(np.float32)
            misses = ~(np.abs(centre32.astype(np.float64) - g) <= delta)
        assert stream.literal_mask.tolist() == ((np.abs(want_bin) > DEFAULT_BIN_CAP) | misses).tolist()

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
    # decode_stream checks the wire stream's bins; QuantizedStream does not.

    def test_nonzero_bin_under_mask(self):
        mask = np.array([True, False])
        literals = np.array([1.0], dtype=np.float32)
        ok = decode_stream(EncodedStream(entropy_encode(np.array([0, 5])), mask, literals))
        assert ok.bins.tolist() == [0, 5]
        encoded = EncodedStream(entropy_encode(np.array([5, 0])), mask, literals)
        with pytest.raises(IntegrityError, match="under the literal mask"):
            decode_stream(encoded)

    def test_cap_violation(self):
        def parse(bins):
            bins = np.array(bins)
            none = np.zeros(0, dtype=np.float32)
            wire, _ = encode_stream(codec.QuantizedStream(bins, np.zeros(bins.size, dtype=bool), none))
            return read_stream(ByteReader(wire, truncation_error=IntegrityError), bins.size)

        ends = [-DEFAULT_BIN_CAP, DEFAULT_BIN_CAP]
        assert decode_stream(parse(ends)).bins.tolist() == ends
        # read_stream checks the table's span before any bin is decoded.
        with mock.patch.object(codec, "entropy_decode", side_effect=AssertionError):
            for bins in ([0, DEFAULT_BIN_CAP + 1], [-DEFAULT_BIN_CAP - 1]):
                with pytest.raises(IntegrityError, match="DEFAULT_BIN_CAP"):
                    parse(bins)


def reference_decode(block):
    """The per-symbol decoder that entropy_decode replaced, kept as its oracle.

    It reads a code at a time: a root-table lookup on the next root_bits
    bits, else bit by bit against the canonical tables.
    """
    if block.bit_count == 0:
        return np.zeros(0, dtype=np.int64)
    lengths = block.lengths
    used = np.nonzero(lengths)[0]
    if used.size == 0:
        raise IntegrityError("Huffman table declares no symbols")
    maxlen = int(lengths[used].max())
    per_length = np.bincount(lengths[used], minlength=maxlen + 1)
    if sum(int(c) << (maxlen - ln) for ln, c in enumerate(per_length)) > 1 << maxlen:
        raise IntegrityError("Huffman code lengths over-subscribe the code space")
    order = used[np.lexsort((used, lengths[used]))]
    root_bits = min(12, maxlen)
    table_sym = [0] * (1 << root_bits)
    table_len = [0] * (1 << root_bits)
    first_code = [-1] * (maxlen + 1)
    first_index = [0] * (maxlen + 1)
    count_at = [0] * (maxlen + 1)
    canon_syms = (order + block.min_symbol).tolist()
    if min(canon_syms) < -(1 << 31) or max(canon_syms) >= 1 << 31:
        raise IntegrityError("Huffman table declares symbols outside the 32-bit range")
    code = prev_len = 0
    for rank, idx in enumerate(order):
        ln = int(lengths[idx])
        code <<= ln - prev_len
        prev_len = ln
        if first_code[ln] < 0:
            first_code[ln] = code
            first_index[ln] = rank
        count_at[ln] += 1
        if ln <= root_bits:
            start = code << (root_bits - ln)
            for e in range(start, start + (1 << (root_bits - ln))):
                table_sym[e] = canon_syms[rank]
                table_len[e] = ln
        code += 1
    data = block.stream + b"\x00" * 16
    out = []
    bitbuf = avail = pos = consumed = 0
    while consumed < block.bit_count:
        while avail <= 56 and pos < len(data):
            bitbuf = ((bitbuf << 8) | data[pos]) & ((1 << 64) - 1)
            pos += 1
            avail += 8
        look = (bitbuf >> (avail - root_bits)) & ((1 << root_bits) - 1)
        ln = table_len[look]
        if ln:
            sym = table_sym[look]
        else:
            code = ln = 0
            while True:
                ln += 1
                if ln > maxlen:
                    raise IntegrityError("invalid Huffman code in bitstream")
                code = (code << 1) | ((bitbuf >> (avail - ln)) & 1)
                fc = first_code[ln]
                if fc >= 0 and code - fc < count_at[ln]:
                    sym = canon_syms[first_index[ln] + code - fc]
                    break
        consumed += ln
        avail -= ln
        out.append(sym)
    if consumed != block.bit_count:
        raise IntegrityError("Huffman bitstream does not end on a code boundary")
    return np.asarray(out, dtype=np.int64)


def reference_decode_count(block, numel):
    """reference_decode plus the symbol-count checks entropy_decode makes."""
    out = reference_decode(block)
    if out.size != numel:
        raise IntegrityError(f"decoded {out.size} bins for a {numel}-element layer")
    if numel and np.count_nonzero(block.lengths) > numel:
        raise IntegrityError(f"Huffman table declares more symbols than {numel} elements")
    return out


def outcome(decode, *args):
    """The decoded symbols as a list, or "IntegrityError"."""
    try:
        return decode(*args).tolist()
    except IntegrityError:
        return "IntegrityError"


def pack_bits(lengths, min_symbol, message):
    """Canonical codes of ``message`` packed MSB-first, one bit at a time."""
    used = np.nonzero(lengths)[0]
    order = used[np.argsort(lengths[used], kind="stable")]
    bits = {}
    code = prev = 0
    for idx in order:
        ln = int(lengths[idx])
        code <<= ln - prev
        bits[int(idx) + min_symbol] = format(code, f"0{ln}b")
        code += 1
        prev = ln
    stream = "".join(bits[int(s)] for s in message)
    padded = stream + "0" * (-len(stream) % 8)
    return bytes(int(padded[i:i + 8], 2) for i in range(0, len(padded), 8)), len(stream)


def fibonacci_code_lengths(n):
    """Code lengths the coder builds for Fibonacci counts: a chain n - 1 deep."""
    counts = [1, 1]
    while len(counts) < n:
        counts.append(counts[-1] + counts[-2])
    return _huffman_code_lengths(np.array(counts, dtype=np.int64))


# Bins the property tests draw: single-symbol runs, sparse alphabets up to
# +-30000, and dense small-range arrays.
huffman_inputs = st.one_of(
    st.builds(
        lambda n, v: np.full(n, v, dtype=np.int64),
        st.integers(1, 3000), st.integers(-40000, 40000),
    ),
    st.lists(st.integers(-30000, 30000), min_size=1, max_size=12, unique=True).flatmap(
        lambda alphabet: st.lists(st.sampled_from(alphabet), min_size=1, max_size=2000)
    ).map(lambda v: np.array(v, dtype=np.int64)),
    hnp.arrays(np.int64, st.integers(1, 3000), elements=st.integers(-70, 70)),
)


def roundtrip_bins(bins):
    block = entropy_encode(np.asarray(bins))
    return entropy_decode(block, np.asarray(bins).size)


class TestHuffman:
    def test_single_symbol_run(self):
        bins = np.zeros(17, dtype=np.int64)
        block = entropy_encode(bins)
        assert block.bit_count == 17  # one bit per symbol
        np.testing.assert_array_equal(entropy_decode(block, 17), bins)

    def test_empty_input(self):
        block = entropy_encode(np.zeros(0, dtype=np.int64))
        assert block.bit_count == 0
        assert entropy_decode(block, 0).size == 0

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


def reference_properties(schedule):
    """The decoder properties, run with the decoder constants in schedule.

    Each call defines the tests anew, as hypothesis wants one test function
    per class.
    """

    class DecoderProperties:
        @settings(max_examples=150, deadline=None)
        @example(bins=np.arange(3) % 2)  # 3 bits: no whole 4-bit chunk
        @example(bins=np.arange(1027) % 2)  # 8-bit chunks and a 3-bit tail
        @given(bins=huffman_inputs)
        def test_decode_matches_reference_and_input(self, bins):
            block = entropy_encode(bins)
            wire = decode_block(ByteReader(encode_block(block)))
            with mock.patch.multiple(codec, **schedule):
                for b in (block, wire):
                    np.testing.assert_array_equal(entropy_decode(b, bins.size), bins)
                    np.testing.assert_array_equal(reference_decode(b), bins)

        @settings(max_examples=60, deadline=None)
        @given(
            depth=st.integers(33, 45),
            picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=300),
            min_symbol=st.integers(-30000, 30000),
        )
        def test_codes_longer_than_32_bits(self, depth, picks, min_symbol):
            # Fibonacci counts make the deepest Huffman chain; pick symbols
            # mostly from its long end, so codes cross 32- and 64-bit words. Every
            # symbol also appears once, as the table declares no unused symbol.
            lengths = fibonacci_code_lengths(depth + 1)
            assert int(lengths.max()) == depth
            picked = [int(p * p * lengths.size) for p in picks]
            message = np.array(picked + list(range(lengths.size))) + min_symbol
            stream, bit_count = pack_bits(lengths, min_symbol, message)
            block = HuffmanBlock(min_symbol, lengths, bit_count, stream)
            with mock.patch.multiple(codec, **schedule):
                np.testing.assert_array_equal(entropy_decode(block, message.size), message)
            np.testing.assert_array_equal(reference_decode(block), message)
            lens = lengths.astype(np.int64)
            assert _pack_codes(message, min_symbol, _canonical_codes(lens), lens, bit_count) == stream

        @settings(max_examples=300, deadline=None)
        # Codes "0", "10", "11": 4 bits end inside the last code, 3 bits one code short.
        @example(bins=np.array([2, 0, 1]), where=0.0, flip=False, bit_count=4)
        @example(bins=np.array([2, 0, 1]), where=0.0, flip=False, bit_count=3)
        # A single-symbol code "0": the flipped stream bit 16 is an invalid "1".
        @example(bins=np.zeros(20, dtype=np.int64), where=0.95, flip=True, bit_count=0)
        @given(
            bins=huffman_inputs,
            where=st.floats(0.0, 1.0, exclude_max=True),
            flip=st.booleans(),
            bit_count=st.integers(0, 1 << 16),
        )
        def test_tampered_blocks_fail_alike(self, bins, where, flip, bit_count):
            # One flipped bit anywhere in the serialized block, or a different
            # bit count: both decoders return the same symbols or both raise.
            raw = bytearray(encode_block(entropy_encode(bins)))
            if flip:
                at = int(where * 8 * len(raw))
                raw[at // 8] ^= 0x80 >> (at % 8)
            try:
                block = decode_block(ByteReader(bytes(raw), truncation_error=IntegrityError))
            except IntegrityError:
                return
            if not flip:
                block = HuffmanBlock(
                    block.min_symbol, block.lengths, bit_count % (8 * len(block.stream) + 1),
                    block.stream,
                )
            # Given the count the reference decodes, or the input's if it
            # refuses the block, both decoders agree.
            reference = outcome(reference_decode, block)
            count = bins.size if reference == "IntegrityError" else len(reference)
            with mock.patch.multiple(codec, **schedule):
                assert outcome(entropy_decode, block, count) == outcome(
                    reference_decode_count, block, count
                )
                assert outcome(entropy_decode, block, bins.size) == outcome(
                    reference_decode_count, block, bins.size
                )

    return DecoderProperties


TestDecoderAgainstReference = reference_properties({"_SYNC_CODES": codec._SYNC_CODES})
# No sync window: nearly every guessed state is wrong, and the vectorized
# repair sweeps alone mend them; or the one-at-a-time walk alone does.
TestDecoderRepairSweeps = reference_properties({"_SYNC_CODES": 0, "_SCALAR_REPAIR": 1})
TestDecoderRepairWalk = reference_properties({"_SYNC_CODES": 0, "_SCALAR_REPAIR": 1 << 62})


class TestPackCodes:
    @settings(max_examples=200, deadline=None)
    # Codes of 56 bits, two of which overflow a word: no pair merges.
    @example(lengths=fibonacci_code_lengths(57), picks=[0.0, 0.02, 0.0, 0.02, 0.0], chunk=3,
             merge_min=1)
    # A 33-bit and a 32-bit code: one bit too long to merge.
    @example(lengths=fibonacci_code_lengths(35), picks=[0.06, 0.09], chunk=1 << 16, merge_min=1)
    @given(
        lengths=st.one_of(
            st.lists(st.integers(1, 5000), min_size=1, max_size=60).map(
                lambda c: _huffman_code_lengths(np.array(c, dtype=np.int64))
            ),
            st.integers(2, 57).map(fibonacci_code_lengths),
        ),
        picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), min_size=1, max_size=600),
        chunk=st.sampled_from([1, 2, 3, 5, 63, 65, 255, 1 << 16]),
        merge_min=st.sampled_from([1, 2, 5, codec._MERGE_MIN]),
    )
    def test_matches_bit_string_packer(self, lengths, picks, chunk, merge_min):
        # Merged or not, and whatever the chunk size, the words hold the codes
        # one after another, MSB first.
        lens = lengths.astype(np.int64)
        index = np.array([int(p * lens.size) for p in picks], dtype=np.int64)
        stream, bit_count = pack_bits(lengths, 0, index)
        with mock.patch.multiple(codec, _PACK_CHUNK=chunk, _MERGE_MIN=merge_min):
            assert _pack_codes(index, 0, _canonical_codes(lens), lens, bit_count) == stream


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
        np.testing.assert_array_equal(entropy_decode(back, bins.size), bins)

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
            block.min_symbol, block.lengths.copy(), block.bit_count, b"\xff\xff"
        )
        with pytest.raises(IntegrityError):
            entropy_decode(corrupted, 16)

    def test_symbols_outside_32_bits_rejected(self):
        # Bins decode straight to int32, so a table whose symbols run past
        # that range, here by a flipped sign bit of its min symbol, is
        # rejected, used symbol or not; the range's two ends still decode.
        raw = bytearray(encode_block(entropy_encode(np.arange(-3, 4))))
        raw[3] ^= 0x80
        block = decode_block(ByteReader(bytes(raw)))
        assert block.min_symbol == (1 << 31) - 3
        with pytest.raises(IntegrityError, match="32-bit range"):
            entropy_decode(block, 7)
        with pytest.raises(IntegrityError, match="32-bit range"):
            reference_decode(block)
        for ends in ([-(1 << 31), 1 - (1 << 31)], [(1 << 31) - 2, (1 << 31) - 1]):
            block = entropy_encode(np.array(ends * 3, dtype=np.int64))
            out = entropy_decode(block, 6)
            assert out.dtype == np.int32 and out.tolist() == ends * 3

    def test_oversubscribed_code_lengths_rejected(self):
        # Three one-bit codes break the Kraft inequality: 3 * 2**-1 > 1.
        # Eight of them fill the 8 bits, so only that check can refuse them.
        with pytest.raises(IntegrityError, match="over-subscribe"):
            entropy_decode(HuffmanBlock(0, [1, 1, 1], 8, b"\xff"), 8)

    def test_inflated_bit_count_rejected_before_allocating(self):
        # Ten one-bit codes cannot fill 8 Mbit: decode_stream must refuse the
        # block without building a per-bit table for the whole stream.
        block = HuffmanBlock(0, np.array([1, 1], dtype=np.uint8), 8 << 20, bytes(1 << 20))
        encoded = EncodedStream(block, np.zeros(10, dtype=bool), np.zeros(0, dtype=np.float32))
        tracemalloc.start()
        try:
            with pytest.raises(IntegrityError, match="cannot hold"):
                decode_stream(encoded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_more_symbols_than_elements_rejected_before_allocating(self):
        # 4096 twelve-bit codes form a complete code, but a 10-element layer
        # cannot use them all: decode_stream refuses before building a table.
        block = HuffmanBlock(0, np.full(4096, 12, dtype=np.uint8), 120, bytes(15))
        encoded = EncodedStream(block, np.zeros(10, dtype=bool), np.zeros(0, dtype=np.float32))
        tracemalloc.start()
        try:
            with pytest.raises(IntegrityError, match="4096 symbols for 10 elements"):
                decode_stream(encoded)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bit_count_beyond_stream(self):
        with pytest.raises(IntegrityError):
            HuffmanBlock(0, np.array([1], dtype=np.uint8), 64, b"\x00")


def traced_peak(fn, *args):
    """fn(*args) and the tracemalloc peak, in bytes, of the call."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestDecoderMemory:
    def test_complete_16_bit_code(self):
        # Each of 65536 symbols once as a 16-bit code: 65535 decoder states,
        # so the decoder keeps to 4-bit chunks. Its tables take most of the
        # stated 32 MiB.
        rng = np.random.default_rng(53)
        lens = np.full(1 << 16, 16, dtype=np.int64)
        message = rng.permutation(1 << 16)
        stream = _pack_codes(message, 0, _canonical_codes(lens), lens, 16 << 16)
        block = HuffmanBlock(0, lens, 16 << 16, stream)
        out, peak = traced_peak(entropy_decode, block, message.size)
        np.testing.assert_array_equal(out, message)
        np.testing.assert_array_equal(reference_decode(block), message)
        assert peak < 32 << 20

    def test_largest_conv_layer_peak(self):
        # The size of the largest conv-minibatch layer: 589824 bins at about
        # 1.8 bits each. 9.4 MB is the peak of the per-bit-table decoder this
        # one replaced, so decompress memory cannot creep up through it.
        rng = np.random.default_rng(59)
        n = 589824
        bins = (rng.geometric(0.67, size=n) - 1) * rng.choice((-1, 1), size=n)
        block = entropy_encode(bins)
        assert 1.7 < block.bit_count / n < 1.9
        out, peak = traced_peak(entropy_decode, block, n)
        np.testing.assert_array_equal(out, bins)
        assert peak <= 9.4e6

    def test_largest_conv_layer_encode_peak(self):
        # The client's side of the same layer at round 2, with magnitude and
        # kernel sign prediction: the elementwise stages work in place and the
        # quantizer in blocks. 38.5 MB is the peak when each stage built new
        # arrays.
        from gradzip.pipeline import PipelineParams, SyncState, _encode_layer, compress_round
        from gradzip.predictor import PredictParams
        from gradzip.trace import SynthConfig, synth_trace

        spec = LayerSpec("conv5", (256, 256, 3, 3))
        assert spec.numel == 589824
        trace = synth_trace(SynthConfig(seed=61, layers=(spec,), rounds=2))
        params = PipelineParams(PredictParams(), ErrorBoundConfig("relative", 1e-2))
        _, state = compress_round(trace.rounds[0], SyncState.initial([spec]), params)
        (_, info), peak = traced_peak(_encode_layer, 0, trace.rounds[1][0], state, params)
        assert info.bitmap_variant == "kernel_maps" and info.predicted_kernels
        assert peak <= 26e6


class TestStreamSerialization:
    def test_roundtrip_with_literals(self):
        rng = np.random.default_rng(47)
        delta = 1e-3
        r = rng.normal(size=5000)
        r[rng.integers(0, 5000, size=12)] = 1e9  # force literals
        s = quantize0(r, delta)
        assert s.literals.size >= 12
        raw, _ = encode_stream(s)
        back = decode_stream(read_stream(ByteReader(raw, truncation_error=IntegrityError), s.bins.size))
        np.testing.assert_array_equal(back.bins, s.bins)
        np.testing.assert_array_equal(back.literal_mask, s.literal_mask)
        np.testing.assert_array_equal(back.literals, s.literals)

    def test_literal_count_mismatch_detected(self):
        s = quantize0(np.array([1e9, 0.0]), 1e-3)
        raw = bytearray(encode_stream(s)[0])
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
            assert lossless_decompress(lossless_compress(data), len(data)) == data
            assert lossless_decompress(lossless_compress(data, "store"), len(data)) == data

    def test_repeated_pattern_compresses_hard(self):
        pattern = bytes(range(64))
        data = pattern * (1 << 14)  # 1 MiB
        out = lossless_compress(data)
        assert len(out) < 0.05 * len(data)

    def test_store_is_identity_plus_header_and_crc(self):
        data = b"hello world"
        out = lossless_compress(data, "store")
        assert out[:1] == b"S" and out[1:-4] == data
        assert out[-4:] == struct.pack("<I", zlib.crc32(data))

    def test_store_checksum_catches_every_flip_and_cut(self):
        blob = lossless_compress(bytes(range(40)), "store")
        for at in range(1, len(blob)):
            for bit in (0x01, 0x80):
                bad = bytearray(blob)
                bad[at] ^= bit
                with pytest.raises(IntegrityError):
                    lossless_decompress(bytes(bad), 40)
        for cut in range(1, len(blob)):
            with pytest.raises(IntegrityError):
                lossless_decompress(blob[:cut], 40)

    def test_bytes_after_deflate_stream_rejected(self):
        blob = lossless_compress(b"some payload" * 100)
        with pytest.raises(IntegrityError, match="after the end"):
            lossless_decompress(blob + b"\x00", 1200)

    def test_corrupt_payload(self):
        blob = bytearray(lossless_compress(b"some payload" * 100))
        blob[5] ^= 0xFF
        with pytest.raises(IntegrityError):
            lossless_decompress(bytes(blob), 1200)

    def test_inflation_capped(self):
        blob = lossless_compress(bytes(1 << 20))
        assert lossless_decompress(blob, 1 << 20) == bytes(1 << 20)
        with pytest.raises(IntegrityError, match="inflates past"):
            lossless_decompress(blob, (1 << 20) - 1)

    def test_truncated_deflate_stream(self):
        blob = lossless_compress(bytes(range(256)) * 64)
        for cap in (256 * 64, 1 << 20):
            with pytest.raises(IntegrityError, match="truncated"):
                lossless_decompress(blob[:-4], cap)

    def test_unknown_tag(self):
        with pytest.raises(FormatError):
            lossless_decompress(b"Qxxxx", 4)
        with pytest.raises(FormatError):
            lossless_decompress(b"", 0)

    def test_deterministic(self):
        data = zlib.compress(b"seed material")  # arbitrary fixed bytes
        assert lossless_compress(data) == lossless_compress(data)


class TestEndToEndBound:
    def test_full_chain_error_bound(self):
        rng = np.random.default_rng(59)
        for delta in (1e-4, 1e-2, 1.0):
            r = rng.normal(scale=2.0, size=10000)
            s = quantize0(r, delta)
            raw, _ = encode_stream(s)
            back = decode_stream(read_stream(
                ByteReader(lossless_decompress(lossless_compress(raw), len(raw)), truncation_error=IntegrityError),
                s.bins.size,
            ))
            out = dequantize0(back, delta)
            assert float(np.abs(out - r).max()) <= delta
