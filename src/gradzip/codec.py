"""Error-bounded quantizer, canonical Huffman coder, lossless backend.

The lossy path discretizes the residual original - ghat into bins of width
2*delta with round-to-nearest (ties to even), so every reconstructed value
sits within delta of its input. Elements the bins cannot represent faithfully
(cap overflow, or floating-point corner cases where the float32
reconstruction lands outside the bound) are demoted to literals. A literal
stores the element's ORIGINAL float32 value, not the residual, so it
reconstructs with zero error and the bound holds unconditionally. Bins are
entropy coded with a canonical Huffman code and the result is passed through
a general lossless backend (DEFLATE by default, raw store as a fallback).
"""

from __future__ import annotations

import heapq
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, IntegrityError, UsageError
from .trace import ByteReader, GradientTensor

DEFAULT_BIN_CAP = 1 << 15
MODE_ABSOLUTE = "absolute"
MODE_RELATIVE = "relative"

# Constant-tensor floor for relative bounds; keeps delta strictly positive.
RELATIVE_RANGE_FLOOR = 1e-12

BACKEND_DEFAULT = "default"
BACKEND_STORE = "store"
_BACKEND_TAGS = {BACKEND_DEFAULT: b"Z", BACKEND_STORE: b"S"}

# Widest Huffman code the decoder's 64-bit window can absorb in one refill.
_MAX_CODE_LEN = 56
# Dense symbol-table guard; quantizer output always fits 2 * DEFAULT_BIN_CAP + 1.
_MAX_ALPHABET_RANGE = 1 << 20
_ROOT_TABLE_BITS = 12


@dataclass(frozen=True)
class ErrorBoundConfig:
    """Error bound: absolute delta, or epsilon relative to the layer's range."""

    mode: str
    value: float

    def __post_init__(self):
        if self.mode not in (MODE_ABSOLUTE, MODE_RELATIVE):
            raise UsageError(f"unknown error-bound mode {self.mode!r}")
        if not 0.0 < self.value < np.inf:
            raise UsageError(f"error bound must be positive and finite, got {self.value}")


@dataclass
class QuantizedStream:
    """Quantizer output: bins plus exact literals for unquantizable elements."""

    bins: np.ndarray
    literal_mask: np.ndarray
    literals: np.ndarray

    def __post_init__(self):
        bins = np.ascontiguousarray(self.bins, dtype=np.int32).reshape(-1)
        mask = np.ascontiguousarray(self.literal_mask, dtype=bool).reshape(-1)
        literals = np.ascontiguousarray(self.literals, dtype=np.float32).reshape(-1)
        if mask.size != bins.size:
            raise IntegrityError(f"literal mask covers {mask.size} of {bins.size} elements")
        if literals.size != int(mask.sum()):
            raise IntegrityError(
                f"{literals.size} literal values for {int(mask.sum())} masked elements"
            )
        if mask.any() and bins[mask].any():
            raise IntegrityError("bins under the literal mask must be zero")
        if bins.size and int(np.abs(bins).max()) > DEFAULT_BIN_CAP:
            raise IntegrityError("bin magnitude exceeds DEFAULT_BIN_CAP")
        self.bins = bins
        self.literal_mask = mask
        self.literals = literals

    @property
    def numel(self) -> int:
        return self.bins.size


@dataclass
class HuffmanBlock:
    """Canonical Huffman code table plus the packed bitstream.

    lengths[i] is the code length of symbol min_symbol + i (0 = unused).
    The bitstream packs codes MSB-first; bit_count is the payload length in
    bits, which also tells the decoder when to stop.
    """

    min_symbol: int
    lengths: np.ndarray
    bit_count: int
    stream: bytes
    symbol_count: int

    def __post_init__(self):
        lengths = np.ascontiguousarray(self.lengths, dtype=np.uint8).reshape(-1)
        if lengths.size and int(lengths.max()) > _MAX_CODE_LEN:
            raise IntegrityError(f"code length exceeds {_MAX_CODE_LEN} bits")
        if self.bit_count > 8 * len(self.stream):
            raise IntegrityError("bitstream shorter than declared bit count")
        self.lengths = lengths


def resolve_bound(cfg: ErrorBoundConfig, original: GradientTensor) -> float:
    """Absolute delta for one layer; relative mode scales by the value range."""
    if cfg.mode == MODE_ABSOLUTE:
        return float(cfg.value)
    v = original.values
    span = float(v.max()) - float(v.min()) if v.size else 0.0
    return float(cfg.value) * max(span, RELATIVE_RANGE_FLOOR)


def quantize(
    original: np.ndarray, ghat: np.ndarray, delta: float
) -> tuple[QuantizedStream, np.ndarray]:
    """Quantize original - ghat, demoting bound violators to exact literals.

    Returns the stream and the float32 reconstruction dequantize will
    compute. The check runs against that exact float32 value, so float32
    rounding can never push an element past the bound: offenders carry their
    original value.
    """
    if not 0.0 < delta < np.inf:
        raise UsageError(f"delta must be positive and finite, got {delta}")
    original = np.asarray(original).reshape(-1)
    if not np.all(np.isfinite(original)):
        raise DataError("quantizer input contains non-finite values")
    g64 = original.astype(np.float64)
    binsf = np.rint((g64 - ghat) / (2.0 * delta))
    ok = np.isfinite(binsf) & (np.abs(binsf) <= DEFAULT_BIN_CAP)
    bins = np.where(ok, binsf, 0.0).astype(np.int32)
    recon64 = _bin_centers(bins, ghat, delta)
    recon32 = recon64.astype(np.float32)
    ok &= np.isfinite(recon32)
    ok &= np.abs(recon64 - g64) <= delta
    ok &= np.abs(recon32.astype(np.float64) - g64) <= delta
    mask = ~ok
    bins[mask] = 0
    literals = original[mask]
    recon32[mask] = literals
    return QuantizedStream(bins, mask, literals), recon32


def dequantize(stream: QuantizedStream, ghat: np.ndarray, delta: float) -> np.ndarray:
    """Invert quantize: the same float32 reconstruction, literals restored exactly."""
    recon32 = _bin_centers(stream.bins, ghat, delta).astype(np.float32)
    recon32[stream.literal_mask] = stream.literals
    return recon32


def _bin_centers(bins: np.ndarray, ghat: np.ndarray, delta: float) -> np.ndarray:
    """The float64 value each bin stands for. quantize and dequantize both
    build it from the integer bins, so even a zero's sign agrees."""
    return ghat + bins.astype(np.float64) * (2.0 * delta)


def _huffman_code_lengths(counts: np.ndarray) -> np.ndarray:
    """Code length per observed symbol, by tree depth. Deterministic."""
    n = counts.size
    if n == 1:
        return np.array([1], dtype=np.uint8)
    heap = [(int(c), i) for i, c in enumerate(counts)]
    heapq.heapify(heap)
    parent = np.zeros(2 * n - 1, dtype=np.int64)
    next_node = n
    while len(heap) > 1:
        c1, a = heapq.heappop(heap)
        c2, b = heapq.heappop(heap)
        parent[a] = next_node
        parent[b] = next_node
        heapq.heappush(heap, (c1 + c2, next_node))
        next_node += 1
    root = next_node - 1
    depth = np.zeros(2 * n - 1, dtype=np.uint8)
    for node in range(root - 1, -1, -1):
        depth[node] = depth[parent[node]] + 1
    return depth[:n]


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical code values to the used symbols, ordered (length, symbol)."""
    codes = np.zeros(lengths.size, dtype=np.uint64)
    used = np.nonzero(lengths)[0]
    order = used[np.argsort(lengths[used], kind="stable")]
    code = 0
    prev_len = 0
    for idx in order:
        ln = int(lengths[idx])
        code <<= ln - prev_len
        codes[idx] = code
        code += 1
        prev_len = ln
    return codes


def _pack_codes(codes: np.ndarray, lens: np.ndarray) -> tuple[bytes, int]:
    total = int(lens.sum())
    if total == 0:
        return b"", 0
    offsets = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    bits = np.zeros((total + 7) // 8 * 8, dtype=np.uint8)
    maxlen = int(lens.max())
    for b in range(maxlen):
        sel = lens > b
        shifts = (lens[sel] - 1 - b).astype(np.uint64)
        bits[offsets[sel] + b] = ((codes[sel] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits).tobytes(), total


def entropy_encode(bins: np.ndarray) -> HuffmanBlock:
    """Canonical Huffman coding of a signed integer array.

    Empty input encodes to an empty block. A single-symbol alphabet gets a
    one-bit code, the shortest a prefix code can emit.
    """
    values = np.asarray(bins).reshape(-1)
    if values.size == 0:
        return HuffmanBlock(0, np.zeros(0, dtype=np.uint8), 0, b"", 0)
    values = values.astype(np.int64)
    symbols, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    lo, hi = int(symbols[0]), int(symbols[-1])
    span = hi - lo + 1
    if span > _MAX_ALPHABET_RANGE:
        raise UsageError(f"symbol range {span} too wide to entropy-code")
    code_lens = _huffman_code_lengths(counts)
    dense_lens = np.zeros(span, dtype=np.uint8)
    dense_lens[symbols - lo] = code_lens
    dense_codes = _canonical_codes(dense_lens)
    per_elem_idx = (symbols - lo)[inverse]
    stream, bit_count = _pack_codes(dense_codes[per_elem_idx], dense_lens[per_elem_idx].astype(np.int64))
    return HuffmanBlock(lo, dense_lens, bit_count, stream, int(values.size))


def _build_decode_tables(block: HuffmanBlock):
    lengths = block.lengths
    used = np.nonzero(lengths)[0]
    if used.size == 0:
        raise IntegrityError("Huffman table declares no symbols")
    maxlen = int(lengths[used].max())
    per_length = np.bincount(lengths[used], minlength=maxlen + 1)
    if sum(int(c) << (maxlen - ln) for ln, c in enumerate(per_length)) > 1 << maxlen:
        raise IntegrityError("Huffman code lengths over-subscribe the code space")
    codes = _canonical_codes(lengths)
    root_bits = min(_ROOT_TABLE_BITS, maxlen)
    size = 1 << root_bits
    table_sym = np.zeros(size, dtype=np.int64)
    table_len = np.zeros(size, dtype=np.uint8)
    order = used[np.lexsort((used, lengths[used]))]
    # Slow-path canonical tables, indexed by code length.
    first_code = [-1] * (maxlen + 1)
    first_index = [0] * (maxlen + 1)
    count_at = [0] * (maxlen + 1)
    canon_syms = (order + block.min_symbol).tolist()
    for rank, idx in enumerate(order):
        ln = int(lengths[idx])
        if first_code[ln] < 0:
            first_code[ln] = int(codes[idx])
            first_index[ln] = rank
        count_at[ln] += 1
    short = order[lengths[order] <= root_bits]
    if short.size:
        lens_s = lengths[short].astype(np.int64)
        starts = (codes[short].astype(np.int64)) << (root_bits - lens_s)
        widths = np.int64(1) << (root_bits - lens_s)
        fill_idx = np.concatenate(
            [np.arange(s, s + w) for s, w in zip(starts, widths)]
        )
        table_sym[fill_idx] = np.repeat(short + block.min_symbol, widths)
        table_len[fill_idx] = np.repeat(lengths[short], widths)
    return (
        table_sym.tolist(),
        table_len.tolist(),
        root_bits,
        maxlen,
        first_code,
        first_index,
        count_at,
        canon_syms,
    )


def entropy_decode(block: HuffmanBlock) -> np.ndarray:
    """Exact inverse of entropy_encode. Corrupt streams raise IntegrityError."""
    if block.bit_count == 0:
        if block.symbol_count:
            raise IntegrityError("empty bitstream for a nonzero symbol count")
        return np.zeros(0, dtype=np.int64)
    (table_sym, table_len, root_bits, maxlen,
     first_code, first_index, count_at, canon_syms) = _build_decode_tables(block)
    data = block.stream + b"\x00" * 16
    out = []
    append = out.append
    bitbuf = 0
    avail = 0
    pos = 0
    consumed = 0
    bit_count = block.bit_count
    nbytes = len(data)
    mask64 = (1 << 64) - 1
    while consumed < bit_count:
        while avail <= 56 and pos < nbytes:
            bitbuf = ((bitbuf << 8) | data[pos]) & mask64
            pos += 1
            avail += 8
        look = (bitbuf >> (avail - root_bits)) & ((1 << root_bits) - 1)
        ln = table_len[look]
        if ln:
            sym = table_sym[look]
        else:
            code = 0
            ln = 0
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
        append(sym)
    if consumed != bit_count:
        raise IntegrityError("Huffman bitstream does not end on a code boundary")
    return np.asarray(out, dtype=np.int64)


def encode_block(block: HuffmanBlock) -> bytes:
    """Serialize: min symbol i32, table span u32, lengths, bit count u64, stream."""
    head = struct.pack("<iIQ", block.min_symbol, block.lengths.size, block.bit_count)
    return head + block.lengths.tobytes() + block.stream


def decode_block(reader: ByteReader) -> HuffmanBlock:
    min_symbol, span, bit_count = reader.unpack("<iIQ")
    if span > _MAX_ALPHABET_RANGE:
        raise IntegrityError(f"Huffman table span {span} too large")
    lengths = np.frombuffer(reader.take(span), dtype=np.uint8)
    stream = reader.take((bit_count + 7) // 8)
    block = HuffmanBlock(min_symbol, lengths.copy(), bit_count, stream, 0)
    return block


def encode_stream(stream: QuantizedStream) -> bytes:
    """Huffman block followed by the literal section (count, mask, raw f32)."""
    body = encode_block(entropy_encode(stream.bins))
    mask_bytes = np.packbits(stream.literal_mask.astype(np.uint8), bitorder="little").tobytes()
    body += struct.pack("<I", stream.literals.size)
    body += mask_bytes
    body += stream.literals.astype("<f4", copy=False).tobytes()
    return body


@dataclass
class EncodedStream:
    """A parsed quantized stream whose bins are still Huffman coded."""

    block: HuffmanBlock
    literal_mask: np.ndarray
    literals: np.ndarray


def read_stream(reader: ByteReader, numel: int) -> EncodedStream:
    """Parse what encode_stream wrote and validate the literal section."""
    block = decode_block(reader)
    (lit_count,) = reader.unpack("<I")
    mask_raw = reader.take((numel + 7) // 8)
    mask = np.unpackbits(np.frombuffer(mask_raw, dtype=np.uint8), count=numel, bitorder="little").astype(bool)
    if int(mask.sum()) != lit_count:
        raise IntegrityError(
            f"literal mask marks {int(mask.sum())} elements, header says {lit_count}"
        )
    literals = np.frombuffer(reader.take(4 * lit_count), dtype="<f4").astype(np.float32)
    if not np.all(np.isfinite(literals)):
        raise DataError("literal section holds non-finite values")
    return EncodedStream(block, mask, literals)


def decode_stream(encoded: EncodedStream) -> QuantizedStream:
    """Entropy-decode the bins of a parsed stream."""
    numel = encoded.literal_mask.size
    bins = entropy_decode(encoded.block)
    if bins.size != numel:
        raise IntegrityError(f"decoded {bins.size} bins for a {numel}-element layer")
    if bins.size and (int(bins.min()) < -(1 << 31) or int(bins.max()) >= 1 << 31):
        raise IntegrityError("decoded bins outside the 32-bit range")
    return QuantizedStream(bins.astype(np.int32), encoded.literal_mask, encoded.literals)


def lossless_compress(data: bytes, backend: str = BACKEND_DEFAULT) -> bytes:
    """Final whole-blob stage: tagged DEFLATE by default, or a raw store."""
    if backend not in _BACKEND_TAGS:
        raise UsageError(f"unknown lossless backend {backend!r}")
    if backend == BACKEND_STORE:
        return _BACKEND_TAGS[BACKEND_STORE] + data
    return _BACKEND_TAGS[BACKEND_DEFAULT] + zlib.compress(data, 6)


def lossless_decompress(data: bytes) -> bytes:
    if not data:
        raise FormatError("empty lossless container")
    tag, body = data[:1], data[1:]
    if tag == _BACKEND_TAGS[BACKEND_STORE]:
        return body
    if tag == _BACKEND_TAGS[BACKEND_DEFAULT]:
        try:
            return zlib.decompress(body)
        except zlib.error as exc:
            raise IntegrityError(f"lossless payload corrupt: {exc}") from exc
    raise FormatError(f"unknown lossless backend tag {tag!r}")
