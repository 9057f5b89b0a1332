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
Values sent exactly are coded by byte plane, as only their high byte is
compressible.

The Huffman decoder is a byte-oriented automaton (Choueka, Klein and Perl,
1985) over the internal nodes of the code tree: one table lookup per 8- or
4-bit chunk gives the next node and the codes the chunk completes. Its state
at every chunk boundary is found at once, because canonical codes
self-synchronize (Klein and Wiseman, 2003): each state is guessed from a
short run from the root, then every guess is checked against its
predecessor and repaired until all agree, which makes the result exact.

QuantizedStream checks nothing, as quantize builds it valid; read_stream
checks a wire stream's code table and literals, decode_stream its bins.
"""

from __future__ import annotations

import heapq
import math
import struct
import zlib
from dataclasses import dataclass, field

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

# Widest Huffman code the wire format accepts: a format limit, which
# max_stream_bytes and the size checks on a parsed block rely on.
_MAX_CODE_LEN = 56
# Dense symbol-table guard; quantizer output always fits 2 * DEFAULT_BIN_CAP + 1.
_MAX_ALPHABET_RANGE = 1 << 20
# The decoder accepts at most one state per 4 stream bits, plus this many.
# Encoder output stays below that: n codes take at least n * log2(n) bits.
_STATE_ALLOWANCE = 1 << 12
# The decoder guesses its state at a chunk boundary by running this many
# codes' worth of chunks from the root, as canonical codes self-synchronize.
_SYNC_CODES = 6
# Repair stays vectorized while at least this many states change, and for
# at most this many state updates per chunk in all.
_SCALAR_REPAIR = 8
_REPAIR_WORK = 64
# Decoder table entries built, and stream chunks expanded into codes, at
# once; bounds the decoder's temporaries.
_DECODE_BLOCK = 1 << 13
# Symbols the encoder packs at once; bounds its temporaries.
_PACK_CHUNK = 1 << 16
# The encoder merges codes pairwise only while more than this many remain:
# a merge pass has a fixed cost of a few numpy calls, which fewer codes do
# not repay.
_MERGE_MIN = 1 << 11


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


@dataclass
class HuffmanBlock:
    """Canonical Huffman code table plus the packed bitstream.

    lengths[i] is the code length of symbol min_symbol + i (0 = unused).
    The bitstream packs codes MSB-first; bit_count is the payload length in
    bits, which also tells the decoder when to stop. A block is not changed
    once made: the table check it passed is kept with it.
    """

    min_symbol: int
    lengths: np.ndarray
    bit_count: int
    stream: bytes
    # (numel, what _check_table returned) once the table passed it for numel.
    checked: tuple | None = field(default=None, init=False, repr=False, compare=False)

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
    original: np.ndarray, ghat: np.ndarray, delta: float, out: np.ndarray
) -> tuple[QuantizedStream, np.ndarray]:
    """Quantize original - ghat, demoting bound violators to exact literals.

    Returns the stream and out, a float32 array of the input's length that
    holds the reconstruction dequantize will compute. An element whose bin
    overflows the cap, or whose float32 reconstruction misses the bound, is
    a literal carrying its original value, so the bound always holds. Works
    _PACK_CHUNK elements at a time in reused buffers.
    """
    if not 0.0 < 2.0 * float(delta) < np.inf:
        raise UsageError(f"delta must be positive with a finite bin width 2 * delta, got {delta}")
    original = np.asarray(original).reshape(-1)
    if not np.all(np.isfinite(original)):
        raise DataError("quantizer input contains non-finite values")
    n = original.size
    recon32 = _float32_out(out, n)
    bins = np.empty(n, dtype=np.int32)
    ok = np.empty(n, dtype=bool)
    g64, t = np.empty(min(n, _PACK_CHUNK)), np.empty(min(n, _PACK_CHUNK))
    for a in range(0, n, _PACK_CHUNK):
        b = min(a + _PACK_CHUNK, n)
        g, w, h, o = g64[: b - a], t[: b - a], ghat[a:b], ok[a:b]
        np.copyto(g, original[a:b])
        np.subtract(g, h, out=w)
        w /= 2.0 * delta
        np.rint(w, out=w)
        # NaN and infinite bins fail the cap test too.
        np.less_equal(w, DEFAULT_BIN_CAP, out=o)
        o &= w >= -DEFAULT_BIN_CAP
        w[~o] = 0.0
        np.copyto(bins[a:b], w, casting="unsafe")
        _bin_centers(bins[a:b], h, delta, out=w)
        # The one bound test, on the float32 value dequantize rebuilds; a
        # centre past the float32 range casts to inf and fails it.
        with np.errstate(over="ignore"):
            np.copyto(recon32[a:b], w, casting="same_kind")
        np.subtract(recon32[a:b], g, out=w)
        o &= np.abs(w, out=w) <= delta
    mask = np.logical_not(ok, out=ok)
    bins[mask] = 0
    literals = original[mask]
    recon32[mask] = literals
    return QuantizedStream(bins, mask, literals), recon32


def dequantize(
    stream: QuantizedStream, ghat: np.ndarray, delta: float, out: np.ndarray
) -> np.ndarray:
    """Invert quantize: the same float32 reconstruction, literals restored
    exactly, written to and returned as out, a float32 array of the
    stream's length. A reconstruction that is not finite once the literals
    are written raises DataError; out then holds it, partly written."""
    n = stream.bins.size
    recon32 = _float32_out(out, n)
    t = np.empty(min(n, _PACK_CHUNK))
    for a in range(0, n, _PACK_CHUNK):
        b = min(a + _PACK_CHUNK, n)
        _bin_centers(stream.bins[a:b], ghat[a:b], delta, out=t[: b - a])
        # In a stream quantize wrote, only a literal's centre can be past the
        # float32 range (that is why it is one), and the literal is written
        # over it below. A crafted stream can put any centre there.
        with np.errstate(over="ignore"):
            np.copyto(recon32[a:b], t[: b - a], casting="same_kind")
    recon32[stream.literal_mask] = stream.literals
    if not np.isfinite(recon32).all():
        raise DataError("reconstruction holds non-finite values")
    return recon32


def _float32_out(out: np.ndarray, n: int) -> np.ndarray:
    """out, checked to be a float32 array of n elements."""
    if out.dtype != np.float32 or out.shape != (n,):
        raise UsageError(f"out must be a float32 array of {n} elements")
    return out


def _bin_centers(bins: np.ndarray, ghat: np.ndarray, delta: float, out: np.ndarray) -> np.ndarray:
    """The float64 value each bin stands for, written to out. quantize and
    dequantize both build it from the integer bins, so even a zero's sign
    agrees."""
    np.multiply(bins, 2.0 * delta, out=out)
    out += ghat
    return out


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


def _pack_codes(values: np.ndarray, lo: int, codes: np.ndarray, lens: np.ndarray, total: int) -> bytes:
    """Pack the codes of the symbols ``values``, indexed from lo, MSB-first
    into 64-bit words.

    Symbols are packed a chunk at a time, so the temporaries stay bounded;
    total is the bit count. Within a chunk of more than _MERGE_MIN codes,
    adjacent codes are first merged pairwise, as long as the longest merged
    code still fits in a word, so there are fewer codes to place. A code that crosses a word boundary puts
    its head in its own word and the rest, its spill, at the top of the next
    one.
    """
    words = np.zeros((total + 63) >> 6, dtype=np.uint64)
    bit = 0
    for a in range(0, values.size, _PACK_CHUNK):
        sym = values[a : a + _PACK_CHUNK].astype(np.int64)
        sym -= lo
        code, ln = codes[sym], lens[sym]
        while ln.size > _MERGE_MIN:
            n = ln.size & ~1  # an odd last code is carried over unmerged
            merged = ln[0:n:2] + ln[1:n:2]
            if merged.max() > 64:
                break
            # Every code has at least one bit, so the shift stays below 64.
            pairs = (code[0:n:2] << ln[1:n:2].astype(np.uint64)) | code[1:n:2]
            code, ln = np.concatenate((pairs, code[n:])), np.concatenate((merged, ln[n:]))
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
        return HuffmanBlock(0, np.zeros(0, dtype=np.uint8), 0, b"")
    lo, hi = int(values.min()), int(values.max())
    span = hi - lo + 1
    if span > _MAX_ALPHABET_RANGE:
        raise UsageError(f"symbol range {span} too wide to entropy-code")
    counts = np.zeros(span, dtype=np.int64)
    for a in range(0, values.size, _PACK_CHUNK):
        sym = values[a : a + _PACK_CHUNK].astype(np.int64)
        sym -= lo
        chunk = np.bincount(sym)
        counts[: chunk.size] += chunk
    used = np.flatnonzero(counts)
    lens = np.zeros(span, dtype=np.int64)
    lens[used] = _huffman_code_lengths(counts[used])
    bit_count = int(counts @ lens)
    stream = _pack_codes(values, lo, _canonical_codes(lens), lens, bit_count)
    return HuffmanBlock(lo, lens, bit_count, stream)


@dataclass
class _Automaton:
    """Table-driven decoder of one canonical code.

    Its states are the internal nodes of the code tree, the root first, then
    by depth and prefix, plus one absorbing error state for prefixes no code
    continues. bit_* step one bit; nib_* step one 4-bit chunk and are
    indexed by state << 4 | chunk, holding next states pre-shifted by 4.
    """

    states: int  # internal nodes; the error state is index `states`
    len_gcd: int  # greatest common divisor of the code lengths
    symbols: np.ndarray  # int32 symbols in canonical order
    bit_next: np.ndarray  # (states + 1, 2) next state
    bit_rank: np.ndarray  # (states + 1, 2) canonical rank of the code completed, -1 none
    nib_next: np.ndarray  # intp next state << 4
    nib_count: np.ndarray  # uint8 codes completed
    nib_emit: np.ndarray  # int32 symbols completed, `slots` per entry, first count valid
    slots: int


def _check_table(block: HuffmanBlock, numel: int):
    """Check a code table, decoding no bin: symbols (at most numel), a bit
    count numel codes can fill, Kraft's inequality and 32-bit symbols. Returns
    the used symbols in canonical order, their lengths and the codes per length.
    A table is checked once per numel: read_stream's check serves the decoder."""
    if block.checked is not None and block.checked[0] == numel:
        return block.checked[1]
    order, lens = _canonical_order(block.lengths)
    if order.size == 0:
        raise IntegrityError("Huffman table declares no symbols")
    if order.size > numel:
        raise IntegrityError(f"Huffman table declares {order.size} symbols for {numel} elements")
    count = np.bincount(lens)
    min_len, max_len = int(lens[0]), count.size - 1
    if not numel * min_len <= block.bit_count <= numel * max_len:
        raise IntegrityError(
            f"{block.bit_count} bits cannot hold {numel} codes of {min_len}..{max_len} bits"
        )
    if sum(int(c) << (max_len - ln) for ln, c in enumerate(count)) > 1 << max_len:
        raise IntegrityError("Huffman code lengths over-subscribe the code space")
    lo, hi = block.min_symbol + int(order.min()), block.min_symbol + int(order.max())
    if lo < -(1 << 31) or hi >= 1 << 31:
        raise IntegrityError("Huffman table declares symbols outside the 32-bit range")
    block.checked = (numel, (order, lens, count))
    return order, lens, count


def _build_automaton(block: HuffmanBlock, numel: int) -> _Automaton:
    order, lens, count = _check_table(block, numel)
    min_len, max_len = int(lens[0]), count.size - 1
    first_code, first_rank = _canonical_starts(count)
    first_code = first_code.astype(np.int64)
    # Canonical codes fill the code space from 0 in (length, rank) order, so
    # the internal nodes of each depth are the consecutive prefixes between
    # that depth's last code and the prefix of the last code of all.
    last = int(first_code[max_len]) + int(count[max_len]) - 1
    lo = first_code + count
    hi = last >> (max_len - np.arange(max_len + 1))
    lo[max_len], hi[max_len] = 1, 0
    width = hi - lo + 1
    states = int(width.sum())
    if states > (block.bit_count >> 2) + _STATE_ALLOWANCE:
        raise IntegrityError(f"Huffman table has {states} internal nodes for {block.bit_count} bits")
    base = np.cumsum(width) - width
    depth = np.repeat(np.arange(max_len), width[:max_len])
    child = ((np.arange(states) - base[depth] + lo[depth]) << 1)[:, None] + np.array([0, 1])
    below = (depth + 1)[:, None]
    rank = child - first_code[below]
    leaf = rank < count[below]
    error = states
    bit_next = np.full((states + 1, 2), error, dtype=np.intp)
    bit_next[:states] = np.where(
        leaf, 0, np.where(child <= hi[below], base[below] + child - lo[below], error)
    )
    bit_rank = np.full((states + 1, 2), -1, dtype=np.intp)
    bit_rank[:states][leaf] = (first_rank[below] + rank)[leaf]
    del child, below, rank, leaf
    # Every code after the first one a chunk completes lies whole inside it.
    slots = 1 + 3 // min_len
    nib_next = np.empty((states + 1) << 4, dtype=np.intp)
    nib_count = np.empty(nib_next.size, dtype=np.uint8)
    nib_emit = np.zeros(nib_next.size * slots, dtype=np.int32)
    flat_next, flat_rank = bit_next.reshape(-1), bit_rank.reshape(-1)
    symbols = (order + block.min_symbol).astype(np.int32)
    for a in range(0, states + 1, _DECODE_BLOCK >> 4):
        rows = np.arange(a, min(a + (_DECODE_BLOCK >> 4), states + 1))
        at = np.repeat(rows, 16)
        chunk = np.tile(np.arange(16), rows.size)
        done = np.zeros(at.size, dtype=np.intp)
        for shift in (3, 2, 1, 0):
            i = (at << 1) | ((chunk >> shift) & 1)
            r = flat_rank[i]
            hit = np.flatnonzero(r >= 0)
            nib_emit[(a * 16 + hit) * slots + done[hit]] = symbols[r[hit]]
            done[hit] += 1
            at = flat_next[i]
        nib_next[a * 16 : a * 16 + at.size] = at << 4
        nib_count[a * 16 : a * 16 + at.size] = done
    return _Automaton(
        states, int(np.gcd.reduce(lens)), symbols, bit_next, bit_rank,
        nib_next, nib_count, nib_emit, slots,
    )


def _chunk_states(step: np.ndarray, chunks: np.ndarray, window: int, period: int) -> np.ndarray:
    """The automaton's state before each chunk and after the last, exactly.

    step[state + chunk] is the next state; states are pre-shifted by the
    chunk width. Each state is first guessed by running window chunks from
    the root, starting at a chunk boundary where a code can start: every
    period-th one, as the code lengths may share a divisor. Then every state
    is recomputed from its predecessor, in whole passes while many states
    still change and then in sweeps over the successors of the changed ones,
    until every state agrees with its predecessor. The first state is the
    root, so the sequence is then the true one. The first wrong state moves
    right on every pass, so window affects only the speed. Once a budget
    linear in the stream is spent, or few states are left, the rest is
    walked one state at a time.
    """
    n = chunks.size
    states, new = np.zeros(n + 1, dtype=np.intp), np.zeros(n + 1, dtype=np.intp)
    entry = np.empty(n, dtype=np.intp)
    for t in range(window + period - 1):
        np.add(states[:-1], chunks, out=entry)
        # Every index is in range; "clip" spares the buffered write of "raise".
        np.take(step, entry, out=states[1:], mode="clip")
        if t < period - 1:
            states[::period] = 0
    budget = _REPAIR_WORK * n
    while True:
        budget -= n
        np.add(states[:-1], chunks, out=entry)
        np.take(step, entry, out=new[1:], mode="clip")
        moved = new[1:] != states[1:]
        states, new = new, states
        if np.count_nonzero(moved) <= n >> 3 or budget <= 0:
            break
    del new, entry
    todo = np.flatnonzero(moved[:-1]) + 2
    while todo.size >= _SCALAR_REPAIR and budget > 0:
        budget -= todo.size
        new = step[states[todo - 1] + chunks[todo - 1]]
        moved = new != states[todo]
        todo = todo[moved]
        states[todo] = new[moved]
        todo = todo[todo < n] + 1
    todo, j = todo.tolist(), 0
    at, row, nxt = memoryview(states), memoryview(chunks), memoryview(step)
    while j < len(todo):
        p = todo[j]
        while p <= n:
            s = nxt[at[p - 1] + row[p - 1]]
            if s == at[p]:
                break
            at[p] = s
            p += 1
        while j < len(todo) and todo[j] <= p:
            j += 1
    return states


def entropy_decode(block: HuffmanBlock, numel: int) -> np.ndarray:
    """Exact inverse of entropy_encode. Corrupt streams raise IntegrityError.

    The stream is cut into k-bit chunks, k = 8 or 4, and a decoding
    automaton takes one table lookup per chunk (_chunk_states finds its
    state before every chunk at once). The codes each chunk completes are
    then gathered from the 4-bit table in one pass, and the bits after the
    last whole chunk are walked one at a time. The path must end at the
    root, never entering the error state. numel is the symbol count the
    block must hold; _check_table checks the table against it before any
    decoder table is built. The symbols come out as int32.
    """
    bit_count = block.bit_count
    if bit_count == 0:
        if numel:
            raise IntegrityError("empty bitstream for a nonzero symbol count")
        return np.zeros(0, dtype=np.int32)
    a = _build_automaton(block, numel)
    stream = block.stream
    raw = np.frombuffer(stream, dtype=np.uint8, count=(bit_count + 7) >> 3)
    # An 8-bit table costs 256 entries per state to compose. Up to 16
    # entries per stream byte it pays, as it halves the chunks every pass
    # over the stream visits.
    if (a.states + 1) << 7 <= bit_count:
        k, chunks = 8, raw[: bit_count >> 3]
        pair = a.nib_next.reshape(-1, 16, 1) + np.arange(16)
        step = (a.nib_next[pair] << 4).reshape(-1)
        step_count = (a.nib_count[pair] + a.nib_count.reshape(-1, 16, 1)).reshape(-1)
        del pair
    else:
        k, step, step_count = 4, a.nib_next, a.nib_count
        chunks = np.empty(2 * raw.size, dtype=np.uint8)
        np.right_shift(raw, 4, out=chunks[0::2])
        np.bitwise_and(raw, 15, out=chunks[1::2])
        chunks = chunks[: bit_count >> 2]
    window = min(chunks.size, math.ceil(_SYNC_CODES * bit_count / numel / k))
    states = _chunk_states(step, chunks, window, a.len_gcd // math.gcd(a.len_gcd, k))
    state, tail = int(states[-1]) >> k, []
    for i in range(chunks.size * k, bit_count):
        bit = (stream[i >> 3] >> (7 - (i & 7))) & 1
        if a.bit_rank[state, bit] >= 0:
            tail.append(a.bit_rank[state, bit])
        state = int(a.bit_next[state, bit])
    if state != 0:
        raise IntegrityError("invalid Huffman code in bitstream, or no code boundary at its end")
    entry = states[:-1]
    entry += chunks
    del states
    per_chunk = step_count[entry]
    total = int(per_chunk.sum(dtype=np.intp)) + len(tail)
    if total != numel:
        raise IntegrityError(f"decoded {total} bins for a {numel}-element layer")
    out = np.empty(total, dtype=np.int32)
    offsets = np.arange(min(total, k * _DECODE_BLOCK))
    o = 0
    for w in range(0, chunks.size, _DECODE_BLOCK):
        nib = entry[w : w + _DECODE_BLOCK]
        count = per_chunk[w : w + _DECODE_BLOCK]
        if k == 8:
            pair = np.empty((nib.size, 2), dtype=np.intp)
            np.right_shift(nib, 4, out=pair[:, 0])
            np.add(a.nib_next[pair[:, 0]], chunks[w : w + nib.size] & 15, out=pair[:, 1])
            nib = pair.reshape(-1)
            count = a.nib_count[nib]
        ends = np.cumsum(count, dtype=np.intp)
        size = int(ends[-1])
        at = np.repeat(nib * a.slots - (ends - count), count)
        at += offsets[:size]
        np.take(a.nib_emit, at, out=out[o : o + size], mode="clip")
        o += size
    out[o:] = a.symbols[tail]
    return out


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
    if bit_count & 7 and stream[-1] & (0xFF >> (bit_count & 7)):
        raise IntegrityError("nonzero padding bits after the Huffman bitstream")
    return HuffmanBlock(min_symbol, lengths.copy(), bit_count, stream)


def encode_stream(stream: QuantizedStream) -> tuple[bytes, int]:
    """Huffman block followed by the literal section (count, mask, raw f32).
    Returns the bytes and the block's bit count."""
    block = entropy_encode(stream.bins)
    body = encode_block(block)
    mask_bytes = np.packbits(stream.literal_mask.astype(np.uint8), bitorder="little").tobytes()
    body += struct.pack("<I", stream.literals.size)
    body += mask_bytes
    body += stream.literals.astype("<f4", copy=False).tobytes()
    return body, block.bit_count


@dataclass
class EncodedStream:
    """A parsed quantized stream whose bins are still Huffman coded."""

    block: HuffmanBlock
    literal_mask: np.ndarray
    literals: np.ndarray


def read_stream(reader: ByteReader, numel: int) -> EncodedStream:
    """Parse what encode_stream wrote; check its code table, with its span
    within +-DEFAULT_BIN_CAP, its literal section and its zero padding bits."""
    block = decode_block(reader)
    if not -DEFAULT_BIN_CAP <= block.min_symbol <= DEFAULT_BIN_CAP + 1 - block.lengths.size:
        raise IntegrityError("bin magnitude exceeds DEFAULT_BIN_CAP")
    _check_table(block, numel)
    (lit_count,) = reader.unpack("<I")
    mask = reader.take_bits(numel)
    if int(mask.sum()) != lit_count:
        raise IntegrityError(
            f"literal mask marks {int(mask.sum())} elements, header says {lit_count}"
        )
    literals = np.frombuffer(reader.take(4 * lit_count), dtype="<f4").astype(np.float32)
    if not np.all(np.isfinite(literals)):
        raise DataError("literal section holds non-finite values")
    return EncodedStream(block, mask, literals)


def max_stream_bytes(numel: int) -> int:
    """The largest stream encode_stream can write for numel elements: a full
    symbol table, numel codes of the widest length and every element a literal."""
    return 16 + _MAX_ALPHABET_RANGE + (_MAX_CODE_LEN * numel + 7) // 8 + 4 + (numel + 7) // 8 + 4 * numel


def decode_stream(encoded: EncodedStream) -> QuantizedStream:
    """Entropy-decode the bins of a stream read_stream parsed. The bins under
    the literal mask must be zero."""
    block, mask = encoded.block, encoded.literal_mask
    bins = entropy_decode(block, mask.size)
    if encoded.literals.size and bins[mask].any():
        raise IntegrityError("bins under the literal mask must be zero")
    return QuantizedStream(bins, mask, encoded.literals)


def encode_planes(values: np.ndarray, sizes) -> bytes:
    """Byte-plane coding of the float32 values of consecutive layers of the
    given sizes, exact for every float32.

    Only the high byte of a gradient float (sign and top 7 exponent bits) is
    compressible; the three low bytes are close to uniform. So the high
    bytes go through raw DEFLATE with run-length matching (Z_RLE) and each
    low plane is stored: one zero-plane flag byte per layer (bit k set:
    plane k, byte k of each of the layer's values, is all zero and omitted),
    one raw DEFLATE stream of every layer's high bytes, which ends itself
    and ends a block at each layer boundary (Z_BLOCK), so that each layer
    keeps its own Huffman tables, then planes 2, 1 and 0 in turn, each with
    the bytes of every layer whose flag bit for it is clear, in layer order.
    A single layer is coded as it would be on its own.
    """
    sizes = np.asarray(sizes, dtype=np.intp)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    raw = np.ascontiguousarray(values, dtype="<f4").view(np.uint8)
    planes = np.ascontiguousarray(raw.reshape(-1, 4).T)
    stored = np.logical_or.reduceat(planes[:3], starts, axis=1)
    flags = np.packbits(~stored, axis=0, bitorder="little")[0]
    deflate = zlib.compressobj(6, zlib.DEFLATED, -15, 8, zlib.Z_RLE)
    high = planes[3]
    parts = [flags]
    for a, b in zip(starts.tolist(), ends.tolist()):
        parts.append(deflate.compress(high[a:b]))
        if b < high.size:
            parts.append(deflate.flush(zlib.Z_BLOCK))
    parts.append(deflate.flush())
    for k in (2, 1, 0):
        if stored[k].all():
            parts.append(planes[k])
        elif stored[k].any():
            parts.append(planes[k][np.repeat(stored[k], sizes)])
    return b"".join(parts)


# Shifts of the flag bits of planes 2, 1 and 0, as a column.
_LOW_PLANES = np.array([[2], [1], [0]], dtype=np.uint8)


def _in_layer(cls, j: int, message: str):
    """A read_planes error in layer j's own bytes; its ``index`` is j, so
    that the caller can name the layer."""
    exc = cls(message)
    exc.index = j
    return exc


def read_planes(reader: ByteReader, sizes) -> np.ndarray:
    """Parse what encode_planes wrote for layers of the given sizes; returns
    their values, joined, as float32. There is one encoding per array: a
    high plane stream that does not end or inflates to other than the sizes'
    sum raises, and so do a layer's unknown flag bits and a layer's stored
    plane that is all zero, as errors whose ``index`` is the layer's
    position in sizes."""
    sizes = np.asarray(sizes, dtype=np.intp)
    numel = int(sizes.sum())
    flags = np.frombuffer(reader.take(sizes.size), dtype=np.uint8)
    unknown = flags > 0b111
    if unknown.any():
        j = int(unknown.argmax())
        raise _in_layer(FormatError, j, f"unknown zero-plane flags {int(flags[j]):#x}")
    inflate = zlib.decompressobj(-15)
    rest = memoryview(reader.data)[reader.pos:]
    try:
        high = inflate.decompress(rest, numel + 1)
    except zlib.error as exc:
        raise IntegrityError(f"high byte plane corrupt: {exc}") from exc
    if len(high) > numel:
        raise IntegrityError(f"high byte plane inflates past {numel} bytes")
    if not inflate.eof:
        raise IntegrityError("high byte plane corrupt: incomplete or truncated stream")
    if len(high) != numel:
        raise IntegrityError(f"high byte plane inflates to {len(high)} bytes for {numel} elements")
    reader.take(len(rest) - len(inflate.unused_data))
    # kept[i, j]: plane 2 - i of layer j is stored. The stored bytes hold
    # each kept (plane, layer) part in this order, plane by plane.
    kept = (flags >> _LOW_PLANES & 1) == 0
    parts = (kept * sizes)[kept]
    stored = np.frombuffer(reader.take(int(parts.sum())), dtype=np.uint8)
    if parts.size:
        nonzero = np.logical_or.reduceat(stored, np.cumsum(parts) - parts)
        if not nonzero.all():
            i, j = np.argwhere(kept)[nonzero.argmin()]
            raise _in_layer(IntegrityError, int(j), f"stored byte plane {2 - i} is all zero")
    out = np.zeros((numel, 4), dtype=np.uint8)
    out[:, 3] = np.frombuffer(high, dtype=np.uint8)
    out[:, 2::-1].T[np.repeat(kept, sizes, axis=1)] = stored
    return out.view("<f4").reshape(-1)


def max_planes_bytes(sizes) -> int:
    """The largest encode_planes output for layers of the given sizes: per
    layer, its flag byte, every low plane stored, and its part of the high
    plane stream at zlib's deflateBound for raw DEFLATE with the default
    window and memory (stored blocks, at worst), as each part ends a block."""
    return sum(8 + 4 * n + (n >> 12) + (n >> 14) + (n >> 25) for n in map(int, sizes))


def lossless_compress(data: bytes, backend: str = BACKEND_DEFAULT) -> bytes:
    """Final whole-blob stage: tagged DEFLATE by default, or a raw store.

    A stored blob ends in the CRC32 of its data. A DEFLATE blob needs none:
    its zlib wrapper already ends in an Adler-32 of the data (RFC 1950).
    """
    if backend not in _BACKEND_TAGS:
        raise UsageError(f"unknown lossless backend {backend!r}")
    if backend == BACKEND_STORE:
        return _BACKEND_TAGS[BACKEND_STORE] + data + struct.pack("<I", zlib.crc32(data))
    return _BACKEND_TAGS[BACKEND_DEFAULT] + zlib.compress(data, 6)


def lossless_decompress(data: bytes, max_size: int) -> bytes:
    """Undo lossless_compress, checking the blob's checksum. DEFLATE output
    past max_size bytes raises IntegrityError without being inflated
    further."""
    if not data:
        raise FormatError("empty lossless container")
    tag = data[:1]
    if tag == _BACKEND_TAGS[BACKEND_STORE]:
        if len(data) < 5:
            raise IntegrityError("stored payload too short for its checksum")
        (crc,) = struct.unpack_from("<I", data, len(data) - 4)
        if zlib.crc32(memoryview(data)[1:-4]) != crc:
            raise IntegrityError("stored payload corrupt: CRC32 mismatch")
        return data[1:-4]
    if tag == _BACKEND_TAGS[BACKEND_DEFAULT]:
        inflate = zlib.decompressobj()
        try:
            out = inflate.decompress(memoryview(data)[1:], max_size + 1)
        except zlib.error as exc:
            raise IntegrityError(f"lossless payload corrupt: {exc}") from exc
        if len(out) > max_size:
            raise IntegrityError(f"lossless payload inflates past {max_size} bytes")
        if not inflate.eof:
            raise IntegrityError("lossless payload corrupt: incomplete or truncated stream")
        if inflate.unused_data:
            raise IntegrityError("lossless payload corrupt: bytes after the end of its stream")
        return out
    raise FormatError(f"unknown lossless backend tag {tag!r}")
