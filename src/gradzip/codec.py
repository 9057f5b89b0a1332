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

# Widest Huffman code: a 64-bit window read at a byte still holds all of it
# after the up-to-7-bit offset of the code's first bit.
_MAX_CODE_LEN = 56
# Dense symbol-table guard; quantizer output always fits 2 * DEFAULT_BIN_CAP + 1.
_MAX_ALPHABET_RANGE = 1 << 20
_ROOT_TABLE_BITS = 12
# The decoder squares its next-boundary table this many times, so its Python
# walk takes one step per 2**_JUMP_LEVELS codes.
_JUMP_LEVELS = 4
# Stream bytes whose per-bit code lengths are found at once (and 8x that many
# table entries squared at once); bounds the decoder's temporaries.
_WINDOW_CHUNK_BYTES = 1 << 13
# Symbols the encoder packs at once; bounds its temporaries.
_PACK_CHUNK = 1 << 16


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
    if not 0.0 < 2.0 * float(delta) < np.inf:
        raise UsageError(f"delta must be positive with a finite bin width 2 * delta, got {delta}")
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


def _canonical_starts(count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First code and first canonical rank of each code length.

    count[ln] is the number of codes of length ln (count[0] must be 0). The
    first code follows DEFLATE's next_code recurrence.
    """
    first_code = np.zeros(count.size, dtype=np.uint64)
    code = 0
    for ln in range(1, count.size):
        code = (code + int(count[ln - 1])) << 1
        first_code[ln] = code
    first_rank = np.cumsum(count) - count
    return first_code, first_rank


def _canonical_order(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Used symbol indices in canonical (length, symbol) order, and their lengths."""
    used = np.nonzero(lengths)[0]
    order = used[np.argsort(lengths[used], kind="stable")]
    return order, lengths[order].astype(np.int64)


def _canonical_codes(lengths: np.ndarray) -> np.ndarray:
    """Assign canonical code values to the used symbols, ordered (length, symbol)."""
    codes = np.zeros(lengths.size, dtype=np.uint64)
    order, lens = _canonical_order(lengths)
    if order.size:
        first_code, first_rank = _canonical_starts(np.bincount(lens))
        rank = np.arange(order.size) - first_rank[lens]
        codes[order] = first_code[lens] + rank.astype(np.uint64)
    return codes


def _pack_codes(index: np.ndarray, codes: np.ndarray, lens: np.ndarray, total: int) -> bytes:
    """Pack the codes of the symbols ``index`` MSB-first into 64-bit words.

    A code that crosses a word boundary puts its head in its own word and the
    rest, its spill, at the top of the next one. Symbols are packed a chunk
    at a time, so the temporaries stay bounded; total is the bit count.
    """
    words = np.zeros((total + 63) >> 6, dtype=np.uint64)
    bit = 0
    for a in range(0, index.size, _PACK_CHUNK):
        sym = index[a : a + _PACK_CHUNK]
        code, ln = codes[sym], lens[sym]
        offsets = np.cumsum(ln)
        bit, offsets = bit + int(offsets[-1]), offsets - ln + bit
        word = offsets >> 6
        end = (offsets & 63) + ln  # bit after the code, counted from its word's MSB
        head = (code << (64 - end).clip(0).view(np.uint64)) >> (end - 64).clip(0).view(np.uint64)
        firsts = np.flatnonzero(np.diff(word, prepend=-1))
        words[word[firsts]] |= np.bitwise_or.reduceat(head, firsts)
        spill = np.flatnonzero(end > 64)
        words[word[spill] + 1] |= code[spill] << (128 - end[spill]).view(np.uint64)
    return words.astype(">u8").tobytes()[: (total + 7) >> 3]


def entropy_encode(bins: np.ndarray) -> HuffmanBlock:
    """Canonical Huffman coding of a signed integer array.

    Empty input encodes to an empty block. A single-symbol alphabet gets a
    one-bit code, the shortest a prefix code can emit.
    """
    values = np.asarray(bins).reshape(-1)
    if values.size == 0:
        return HuffmanBlock(0, np.zeros(0, dtype=np.uint8), 0, b"", 0)
    lo, hi = int(values.min()), int(values.max())
    span = hi - lo + 1
    if span > _MAX_ALPHABET_RANGE:
        raise UsageError(f"symbol range {span} too wide to entropy-code")
    index = values.astype(np.int64)
    index -= lo
    counts = np.bincount(index, minlength=span)
    used = np.flatnonzero(counts)
    lens = np.zeros(span, dtype=np.int64)
    lens[used] = _huffman_code_lengths(counts[used])
    bit_count = int(counts @ lens)
    stream = _pack_codes(index, _canonical_codes(lens), lens, bit_count)
    return HuffmanBlock(lo, lens, bit_count, stream, int(values.size))


@dataclass
class _DecodeTables:
    """Canonical code tables: a root table for codes of up to root_bits bits,
    and per-length starts for the longer ones."""

    min_len: int
    max_len: int
    count: np.ndarray  # codes per length
    first_code: np.ndarray  # uint64, first canonical code of each length
    first_rank: np.ndarray  # canonical rank of that first code
    symbols: np.ndarray  # int64 symbols in canonical order
    root_bits: int
    root_len: np.ndarray  # uint8 code length per root_bits-bit prefix, 0 = longer code
    root_sym: np.ndarray  # int64 symbol per prefix, for the codes root_len holds


def _build_decode_tables(block: HuffmanBlock) -> _DecodeTables:
    order, lens = _canonical_order(block.lengths)
    if order.size == 0:
        raise IntegrityError("Huffman table declares no symbols")
    count = np.bincount(lens)
    max_len = count.size - 1
    if sum(int(c) << (max_len - ln) for ln, c in enumerate(count)) > 1 << max_len:
        raise IntegrityError("Huffman code lengths over-subscribe the code space")
    first_code, first_rank = _canonical_starts(count)
    symbols = order.astype(np.int64) + block.min_symbol
    root_bits = min(_ROOT_TABLE_BITS, max_len)
    # Left-aligned to root_bits, canonical codes cover consecutive ranges from
    # 0 upwards, so the short codes fill the front of the root table in order.
    short = lens <= root_bits
    widths = np.int64(1) << (root_bits - lens[short])
    filled = int(widths.sum())
    root_len = np.zeros(1 << root_bits, dtype=np.uint8)
    root_sym = np.zeros(1 << root_bits, dtype=np.int64)
    root_len[:filled] = np.repeat(lens[short], widths)
    root_sym[:filled] = np.repeat(symbols[short], widths)
    return _DecodeTables(
        int(lens[0]), max_len, count, first_code, first_rank, symbols,
        root_bits, root_len, root_sym,
    )


def _long_codes(aligned: np.ndarray, t: _DecodeTables) -> np.ndarray:
    """Lengths of codes longer than the root table, 0 where none matches.

    aligned holds 64-bit windows with the code's first bit at the MSB. One
    pass per long length: a window holds a length-ln code when its top ln
    bits fall in that length's canonical range, and the shortest match wins.
    """
    lens = np.zeros(aligned.size, dtype=np.uint8)
    for ln in range(t.root_bits + 1, t.max_len + 1):
        if t.count[ln]:
            code = (aligned >> np.uint64(64 - ln)) - t.first_code[ln]
            lens[(lens == 0) & (code < int(t.count[ln]))] = ln
    return lens


def _next_boundary(wins: np.ndarray, bit_count: int, t: _DecodeTables) -> np.ndarray:
    """nxt[p] = p + length of the code at bit p, for every bit of the stream.

    wins[j] is the native 64-bit window starting at stream byte j. Index
    bit_count of the result is the absorbing end and bit_count + 1 the
    absorbing error node: a position with no valid code, or whose code runs
    past bit_count, points at the error node.
    """
    end, error = bit_count, bit_count + 1
    nxt = np.empty(bit_count + 2, dtype=np.int32 if error < 1 << 31 else np.int64)
    nxt[end], nxt[error] = end, error
    shifts = np.arange(64 - t.root_bits, 56 - t.root_bits, -1, dtype=np.uint64)
    mask = np.uint64((1 << t.root_bits) - 1)
    base = np.arange(min(8 * _WINDOW_CHUNK_BYTES, bit_count), dtype=nxt.dtype)
    for j in range(0, (bit_count + 7) >> 3, _WINDOW_CHUNK_BYTES):
        w = wins[j : j + _WINDOW_CHUNK_BYTES]
        lens = t.root_len[((w[:, None] >> shifts) & mask).view(np.int64)]
        lens = lens.reshape(-1)[: bit_count - 8 * j]
        out = nxt[8 * j : 8 * j + lens.size]
        np.add(base[: lens.size], lens, out=out)
        out += 8 * j
        miss = np.flatnonzero(lens == 0)
        if miss.size:
            long_lens = _long_codes(w[miss >> 3] << (miss & 7).view(np.uint64), t)
            out[miss] += long_lens
            out[miss[long_lens == 0]] = error
    tail = nxt[max(0, end - _MAX_CODE_LEN) : end]
    tail[tail > end] = error
    return nxt


def _square_in_place(nxt: np.ndarray, levels: int) -> None:
    """Replace nxt by nxt composed with itself 2**levels times.

    Every entry points at or after its own index, so a chunk can be squared
    in place once the chunks before it are: what it reads is either inside
    it (gathered before the write) or not yet squared.
    """
    for _ in range(levels):
        for a in range(0, nxt.size, 8 * _WINDOW_CHUNK_BYTES):
            part = nxt[a : a + 8 * _WINDOW_CHUNK_BYTES]
            part[:] = nxt[part]


def _codes_at(pos: np.ndarray, wins: np.ndarray, t: _DecodeTables) -> tuple[np.ndarray, np.ndarray]:
    """Symbol and length of the code that starts at each int64 bit position."""
    aligned = wins[pos >> 3] << (pos & 7).view(np.uint64)
    prefix = (aligned >> np.uint64(64 - t.root_bits)).view(np.int64)
    symbols = t.root_sym[prefix]
    lens = t.root_len[prefix].astype(np.int64)
    long = np.flatnonzero(lens == 0)
    if long.size:
        ln = _long_codes(aligned[long], t).astype(np.int64)
        code = (aligned[long] >> (64 - ln).view(np.uint64)) - t.first_code[ln]
        symbols[long] = t.symbols[t.first_rank[ln] + code.view(np.int64)]
        lens[long] = ln
    return symbols, lens


def entropy_decode(block: HuffmanBlock, numel: int | None = None) -> np.ndarray:
    """Exact inverse of entropy_encode. Corrupt streams raise IntegrityError.

    Every bit position gets the position of the next code boundary, as if a
    code started there. _JUMP_LEVELS squarings of that table let a Python
    walk from bit 0 visit every 2**_JUMP_LEVELS-th true boundary; the codes
    from those heads on are then decoded for all heads at once. numel, when
    given, is the symbol count the block must hold: a bit count that numel
    codes cannot fill is rejected before any per-bit table is built.
    """
    bit_count = block.bit_count
    if bit_count == 0:
        if block.symbol_count or numel:
            raise IntegrityError("empty bitstream for a nonzero symbol count")
        return np.zeros(0, dtype=np.int64)
    t = _build_decode_tables(block)
    if numel is not None and not numel * t.min_len <= bit_count <= numel * t.max_len:
        raise IntegrityError(
            f"{bit_count} bits cannot hold {numel} codes of {t.min_len}..{t.max_len} bits"
        )
    # Bits past bit_count read as zeros, which start the first canonical code,
    # so a decode lane parked at the end still reads a valid code.
    padded = bytearray(block.stream[: (bit_count + 7) >> 3] + bytes(8))
    padded[bit_count >> 3] &= 0xFF00 >> (bit_count & 7)
    wins = np.ndarray((len(padded) - 7,), dtype=">u8", buffer=padded, strides=(1,))
    wins = wins.astype(np.uint64)
    jump = _next_boundary(wins, bit_count, t)
    _square_in_place(jump, _JUMP_LEVELS)
    heads = []
    pos = 0
    hop = memoryview(jump)
    while pos < bit_count:
        heads.append(pos)
        pos = hop[pos]
    del hop, jump
    if pos != bit_count:
        raise IntegrityError("invalid Huffman code in bitstream, or no code boundary at its end")
    # Each head starts a run of 2**_JUMP_LEVELS codes; only the last run can
    # reach the end early, and its lanes then stay parked at bit_count.
    out = np.empty((len(heads), 1 << _JUMP_LEVELS), dtype=np.int64)
    pos = np.array(heads, dtype=np.int64)
    last_run = 0
    for i in range(out.shape[1]):
        last_run += int(pos[-1]) < bit_count
        out[:, i], lens = _codes_at(pos, wins, t)
        np.minimum(pos + lens, bit_count, out=pos)
    symbols = out.reshape(-1)[: out.size - out.shape[1] + last_run]
    if numel is not None and symbols.size != numel:
        raise IntegrityError(f"decoded {symbols.size} bins for a {numel}-element layer")
    return symbols


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
    bins = entropy_decode(encoded.block, encoded.literal_mask.size)
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
