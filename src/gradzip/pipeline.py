"""Round-level compression pipeline and client/server synchronization.

One round codes each large layer through magnitude prediction, sign
prediction, residual quantization, entropy coding, and the lossless backend,
into a blob of its own. The small layers are sent exactly, all of them in one
lossless section per round, coded by byte plane. The client keeps the
reconstruction the server will compute and feeds the predictors from it, and
both sides derive each prediction through one step from the blob's wire
fields, so they evolve bitwise-identical state using only the framed payload
as a channel. One loop, _each_layer, runs every lossy layer's step of a
round, in layer order, and names the layer in the step's errors; an error in
the section names the layer whose bytes it is in, or else the section. Each
layer writes only its own arrays of the SyncState, which advances in place;
what a round returns is valid until the next round. A caller that wants to
branch from a state keeps its own copy.

Every byte that can change a reconstruction is checked on the wire: the
lossless section by its CRC32, a DEFLATE blob by its zlib Adler-32, a stored
blob by its CRC32, and a lossy blob's result by the CRC32 of the client's
state after the round, which the server recomputes from its own. A client
therefore needs no mirror of the server to know that the server will decode
what it sent.

Wire formats (little-endian), version 4:

    lossless section, stored: "S" + the float32 values of every lossless
        layer by byte plane (codec.encode_planes) + CRC32 u32:
        zero-plane flags u8 per layer (bit k: the layer's plane k is all
        zero and omitted), one raw DEFLATE stream of the layers' high bytes
        with a block boundary at each layer, then planes 2, 1 and 0 in
        turn, each with the bytes of every layer whose flag bit for it is
        clear, in layer order

    lossy layer blob (before the lossless backend wrap):
        tag u8 = 1, flags u8 (bit 0 = prediction used), mu f32, sigma f32,
        delta f64, sign bitmap, Huffman block, literal section,
        state digest u32: CRC32 of the layer's magnitude memory (f64) and
        then its reconstruction (f32) after the round

    wrapped blob: "Z" + zlib stream, or "S" + layer blob + CRC32 u32, as the
        backend parameter picks.

    payload frame:
        magic "GEBC", version u16, client u32, round u32,
        layer-table digest 8 bytes, layer count u32,
        lossless-layer bitmap: one bit per layer, LSB first, zero padding bits,
        if a bit is set: section length u32 + lossless section,
        then per lossy layer: blob length u32 + wrapped blob
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from hashlib import blake2b
from itertools import accumulate

import numpy as np

from .codec import (
    BACKEND_DEFAULT,
    BACKEND_STORE,
    EncodedStream,
    ErrorBoundConfig,
    decode_stream,
    dequantize,
    encode_planes,
    encode_stream,
    lossless_compress,
    lossless_decompress,
    max_planes_bytes,
    max_stream_bytes,
    quantize,
    read_planes,
    read_stream,
    resolve_bound,
)
from .errors import DataError, FormatError, GradzipError, IntegrityError, ProtocolError, UsageError
from .predictor import (
    VARIANT_KERNEL,
    VARIANT_NONE,
    PredictParams,
    SignBitmap,
    bitmap_wire_bits,
    decode_bitmap,
    encode_bitmap,
    predict_magnitude,
    predict_signs,
    reconstruct_signs,
)
from .trace import KIND_CONV4D, ByteReader, GradientTensor, LayerSpec, abs_stats, encode_layer_table

PAYLOAD_MAGIC = b"GEBC"
PAYLOAD_VERSION = 4
DEFAULT_LOSSY_THRESHOLD = 1024

TAG_LOSSLESS = 0
TAG_LOSSY = 1
_FLAG_PREDICTION = 0x01
# Low byte planes a lossless layer stores, by its zero-plane flag byte.
_STORED_PLANES = [3 - bin(flags & 0b111).count("1") for flags in range(256)]


@dataclass(frozen=True)
class PipelineParams:
    predict: PredictParams
    bound: ErrorBoundConfig
    lossy_threshold: int = DEFAULT_LOSSY_THRESHOLD
    backend: str = BACKEND_DEFAULT
    prediction_enabled: bool = True

    def __post_init__(self):
        if self.lossy_threshold < 0:
            raise UsageError("lossy_threshold must be >= 0")
        if self.backend not in (BACKEND_DEFAULT, BACKEND_STORE):
            raise UsageError(f"unknown backend {self.backend!r}")


def spec_digest(layers: list[LayerSpec]) -> bytes:
    """8-byte digest of the layer table; payloads carry it to fail fast on
    desync. Each LayerSpec holds its table entry, so no caller keeps it."""
    return blake2b(encode_layer_table(layers), digest_size=8).digest()


@dataclass
class SyncState:
    """Predictor history shared (in structure) by client and server.

    Holds, per layer, the magnitude predictor's memory (float64) and the
    previous round's reconstructed gradient (float32), as flat arrays. Each
    round writes over these arrays in place; none is ever replaced, so
    ``recons`` wraps them once. The previous sign tensor is derived from the
    reconstruction when a flip bitmap needs it, never stored. After
    processing round t on both sides the two states must serialize to
    identical bytes.
    """

    layers: list[LayerSpec]
    memory: list[np.ndarray]
    prev_recon: list[np.ndarray]
    round: int = 0

    @cached_property
    def recons(self) -> list[GradientTensor]:
        """The reconstructions as GradientTensors over ``prev_recon``'s
        arrays, built once: they read each round's values as it ends."""
        return [GradientTensor(spec, r) for spec, r in zip(self.layers, self.prev_recon)]

    @classmethod
    def initial(cls, layers: list[LayerSpec]) -> "SyncState":
        return cls(
            layers=list(layers),
            memory=[np.zeros(spec.numel, dtype=np.float64) for spec in layers],
            prev_recon=[np.zeros(spec.numel, dtype=np.float32) for spec in layers],
            round=0,
        )

    def to_bytes(self) -> bytes:
        out = bytearray(struct.pack("<I", self.round))
        for memory, recon in zip(self.memory, self.prev_recon):
            out += memory.astype("<f8", copy=False).tobytes()
            out += recon.astype("<f4", copy=False).tobytes()
        return bytes(out)


@dataclass
class CompressedPayload:
    """One round's payload. ``lossless`` holds a bool per layer, true for a
    layer whose values are in ``section`` (empty when none is); ``blobs``
    holds one blob per other layer, in layer order."""

    client_id: int
    round: int
    spec_digest: bytes
    lossless: np.ndarray
    section: bytes
    blobs: list[bytes]


def _split(lossless) -> tuple[list[int], list[int]]:
    """The indices of the layers in the lossless section, and of the others."""
    lossless = np.asarray(lossless, dtype=bool)
    return lossless.nonzero()[0].tolist(), (~lossless).nonzero()[0].tolist()


def _each_layer(layers: list[LayerSpec], indices: list[int], items: list, step, *args) -> list:
    """Returns ``step(i, item, *args)`` for each layer index i in ``indices``
    and its item, in that order. A GradzipError from a step is raised again
    as the same class, its message prefixed with the layer's name."""
    out = []
    for i, item in zip(indices, items):
        try:
            out.append(step(i, item, *args))
        except GradzipError as exc:
            raise type(exc)(f"layer {layers[i].name!r}: {exc}") from exc
    return out


def _first_non_finite(values: np.ndarray, sizes: list[int]) -> int | None:
    """The position in sizes of the first layer of the joined values that
    holds a non-finite value, or None."""
    finite = np.isfinite(values)
    if finite.all():
        return None
    return int(np.searchsorted(np.cumsum(sizes), np.argmin(finite), side="right"))


def _predict(
    state: SyncState, i: int, flags: int, bitmap: SignBitmap,
    mu32: np.float32, sigma32: np.float32, params: PredictParams,
) -> np.ndarray:
    """The prediction step for layer i's lossy blob, run by client and server.

    Takes the blob's wire fields (flags, sign bitmap, mu and sigma) and the
    layer's shared history, returns ghat, and writes the next magnitude
    memory over ``state.memory[i]``. Signs come only from the bitmap, so the
    client predicts exactly what the server rebuilds from the same blob. A
    layer with no predicted sign predicts zero, and only its memory moves.
    """
    spec, prev_recon = state.layers[i], state.prev_recon[i]
    signed = bitmap.variant != VARIANT_NONE
    if flags & _FLAG_PREDICTION:
        pred_abs = predict_magnitude(
            prev_recon, float(mu32), float(sigma32), state.memory[i], params, signed
        )
        if signed:
            signs = reconstruct_signs(bitmap, prev_recon, spec)
            return np.multiply(pred_abs, signs.values, out=pred_abs)
    return np.zeros(spec.numel, dtype=np.float64)


def _state_crc(memory: np.ndarray, recon: np.ndarray) -> int:
    """CRC32 of one layer's state after a round: its magnitude memory, then
    its reconstruction, read in place."""
    crc = zlib.crc32(memory.astype("<f8", copy=False))
    return zlib.crc32(recon.astype("<f4", copy=False), crc)


def _encode_section(
    tensors: list[GradientTensor], state: SyncState, section: list[int]
) -> tuple[bytes, list["BlobInfo"]]:
    """The lossless section of a client round, of the layers ``section``, and
    the description of each; their reconstructions in ``state`` are written
    over with their values. The values are sent as they are, so a non-finite
    one (written into its tensor after it was made) raises DataError naming
    the first layer that holds one, as the reader would, before the section
    or the state is written."""
    sizes = [state.layers[i].numel for i in section]
    values = np.concatenate([tensors[i].values for i in section])
    j = _first_non_finite(values, sizes)
    if j is not None:
        raise DataError(f"layer {state.layers[section[j]].name!r}: "
                        f"non-finite gradient values at round {state.round + 1}")
    inner = encode_planes(values, sizes)
    wrapped = lossless_compress(inner, BACKEND_STORE)
    for i in section:
        np.copyto(state.prev_recon[i], tensors[i].values)
    return wrapped, _section_infos(inner, len(wrapped), sizes)


def _encode_layer(
    i: int, g: GradientTensor, state: SyncState, params: PipelineParams
) -> tuple[bytes, "BlobInfo"]:
    """Lossy layer i of a client round: (wrapped blob, the blob's
    description). Layer i's magnitude memory and reconstruction in ``state``
    are written over with the ones the server will compute. A non-finite
    value, written into the tensor after it was made, raises DataError
    before either is written."""
    spec, recon = state.layers[i], state.prev_recon[i]
    mu, sigma = abs_stats(g.values, np.empty(spec.numel))
    if not math.isfinite(mu):
        raise DataError(f"non-finite gradient values at round {state.round + 1}")
    mu32, sigma32 = np.float32(mu), np.float32(sigma)
    flags = _FLAG_PREDICTION if params.prediction_enabled else 0
    bitmap = predict_signs(g, recon, params.predict)[1] if flags and state.round else SignBitmap()
    ghat = _predict(state, i, flags, bitmap, mu32, sigma32, params.predict)
    delta = resolve_bound(params.bound, g)
    stream, _ = quantize(g.values, ghat, delta, recon)
    del ghat
    crc = _state_crc(state.memory[i], recon)
    bitmap_raw, (body, bit_count) = encode_bitmap(bitmap), encode_stream(stream)
    head = struct.pack("<BBffd", TAG_LOSSY, flags, mu32, sigma32, delta)
    inner = b"".join((head, bitmap_raw, body, struct.pack("<I", crc)))
    blob = lossless_compress(inner, params.backend)
    info = BlobInfo.lossy(
        len(blob), len(inner), flags, float(mu32), float(sigma32), delta, bitmap,
        len(bitmap_raw), bit_count, stream.literals.size, crc,
    )
    return blob, info


def encode_round(
    tensors: list[GradientTensor],
    state: SyncState,
    params: PipelineParams,
    client_id: int = 0,
) -> tuple[CompressedPayload, list["BlobInfo"], SyncState]:
    """Compress one round of gradients; returns the payload, the description
    of each layer's coded bytes, in layer order, and ``state`` itself,
    advanced in place: each layer's new magnitude memory and reconstruction
    are written over its arrays. The reconstructions are bitwise the ones the
    server will decode. Layers of at most ``params.lossy_threshold`` elements
    go in the lossless section, coded first; the rest are coded in layer
    order. A tensor for another layer raises UsageError before any layer is
    coded. A round that raises leaves ``state`` partly advanced, so it may
    not be used again.
    """
    layers = state.layers
    if len(tensors) != len(layers):
        raise UsageError(f"{len(tensors)} tensors for {len(layers)} layers")
    for spec, g in zip(layers, tensors):
        if g.spec is not spec and g.spec != spec:
            raise UsageError(f"layer {spec.name!r}: gradient is for layer {g.spec.name!r}")
    lossless = np.array([spec.numel <= params.lossy_threshold for spec in layers], dtype=bool)
    section, lossy = _split(lossless)
    infos, wrapped = [None] * len(layers), b""
    if section:
        wrapped, section_infos = _encode_section(tensors, state, section)
        for i, info in zip(section, section_infos):
            infos[i] = info
    coded = _each_layer(layers, lossy, [tensors[i] for i in lossy], _encode_layer, state, params)
    for i, (_, info) in zip(lossy, coded):
        infos[i] = info
    state.round += 1
    payload = CompressedPayload(
        client_id, state.round, spec_digest(layers), lossless, wrapped, [blob for blob, _ in coded]
    )
    return payload, infos, state


def compress_round(
    tensors: list[GradientTensor],
    state: SyncState,
    params: PipelineParams,
    client_id: int = 0,
) -> tuple[CompressedPayload, SyncState]:
    """Compress one round of gradients; returns the payload and the state,
    advanced in place (see encode_round)."""
    payload, _, next_state = encode_round(tensors, state, params, client_id)
    return payload, next_state


def check_payload(payload: CompressedPayload, layers: list[LayerSpec]) -> None:
    """Check a payload's layer-table digest, its layer and blob counts, its
    lossless section's length against the fewest and most bytes its layers
    can be coded in, and each blob's length against the fewest bytes its
    layer can be coded in. A section is a stored wrap (a tag byte and a
    CRC32) of a flag byte per layer, the high byte planes deflated, which
    inflate at most 1032:1 (a 258-byte match in 2 bits), and the stored
    planes, at most max_planes_bytes in all."""
    where = f"payload for round {payload.round}"
    if payload.spec_digest != spec_digest(layers):
        raise ProtocolError(f"{where} does not match the layer table")
    if len(payload.lossless) != len(layers):
        raise IntegrityError(f"{where} declares {len(payload.lossless)} layers for {len(layers)}")
    section, lossy = _split(payload.lossless)
    if len(payload.blobs) != len(lossy) or bool(payload.section) != bool(section):
        raise IntegrityError(
            f"{where} has {len(payload.blobs)} blobs and {'a' if payload.section else 'no'} "
            f"lossless section for {len(lossy)} lossy and {len(section)} lossless layers"
        )
    if section:
        sizes = [layers[i].numel for i in section]
        if payload.section[:1] != b"S":
            raise FormatError("lossless section: not a stored wrap")
        size, numel = len(payload.section), sum(sizes)
        if not 5 + len(sizes) + numel // 1032 <= size <= 5 + max_planes_bytes(sizes):
            raise IntegrityError(
                f"lossless section: a {size}-byte section cannot hold its layers' {numel} elements"
            )
    _each_layer(layers, lossy, payload.blobs, _check_size, layers)


def _check_size(i: int, blob: bytes, layers: list[LayerSpec]) -> None:
    """Refuse a wrapped lossy blob shorter than the fewest bytes layer i can
    be coded in. A lossy inner blob holds at least one code bit and one mask
    bit per element, and DEFLATE inflates at most 1032:1 (a 258-byte match
    in 2 bits). A literal section without the per-element mask would halve
    the lossy term, and this bound with it.
    """
    numel = layers[i].numel
    if len(blob) < 2 * ((numel + 7) // 8) // 1032:
        raise IntegrityError(f"a {len(blob)}-byte blob cannot hold {numel} elements")


def decompress_round(
    payload: CompressedPayload, state: SyncState, params: PipelineParams
) -> tuple[list[GradientTensor], SyncState]:
    """Decode one payload; returns reconstructions and the state, advanced in
    place (see decode_payload)."""
    recons, _, next_state = decode_payload(payload, state, params.predict)
    return recons, next_state


def _decode_layer(i: int, blob: bytes, state: SyncState, params: PredictParams) -> "BlobInfo":
    """Lossy layer i of a server round: returns the blob's description and
    writes layer i's new magnitude memory and reconstruction over the
    state's. A layer whose reconstruction is not finite raises DataError
    (from dequantize), and one whose state after the round differs from the
    client's, by the blob's state digest, raises ProtocolError."""
    recon = state.prev_recon[i]
    info, bitmap, body = _parse_blob(blob, state.layers[i], state.round == 0)
    stream = decode_stream(body)
    mu32, sigma32 = np.float32(info.mu), np.float32(info.sigma)
    ghat = _predict(state, i, info.flags, bitmap, mu32, sigma32, params)
    dequantize(stream, ghat, info.delta, recon)
    if _state_crc(state.memory[i], recon) != info.state_crc:
        raise ProtocolError(
            f"client/server state mismatch at round {state.round + 1}: "
            f"the payload's state digest differs from the server's"
        )
    return info


def _parse_round(payload: CompressedPayload, layers: list[LayerSpec], step, *args):
    """The walk both readers make of a checked payload: the lossless section
    first, then ``step(i, blob, *args)`` for each lossy layer i, in layer
    order, which returns the blob's BlobInfo. Returns the section's values,
    joined (None without a section), the indices of its layers, and every
    layer's BlobInfo in layer order."""
    section, lossy = _split(payload.lossless)
    infos, values = [None] * len(layers), None
    if section:
        values, section_infos = _read_section(payload.section, layers, section)
        for i, info in zip(section, section_infos):
            infos[i] = info
    for i, info in zip(lossy, _each_layer(layers, lossy, payload.blobs, step, *args)):
        infos[i] = info
    return values, section, infos


def decode_payload(
    payload: CompressedPayload, state: SyncState, predict: PredictParams
) -> tuple[list[GradientTensor], list["BlobInfo"], SyncState]:
    """Decode one payload; returns reconstructions, the description of each
    layer's parsed bytes, and ``state`` itself, advanced in place as by
    encode_round. The reconstructions are ``state.recons``'s tensors in a
    fresh list: the same objects every round, over the state's arrays, so
    they are valid until its next round and are to be read, not written.
    ``predict`` is all the decoder reads of the pipeline parameters (a
    stream carries it in its header): the rest is in the payload. The
    lossless section is read first, then each lossy layer in order. An error
    names the layer it is in, or the section, and stops the round: a
    non-finite value or reconstruction raises DataError, and a lossy layer
    whose state after the round differs from the client's raises
    ProtocolError naming the round. A round that raises leaves ``state``
    partly advanced, so it may not be used again.
    """
    check_payload(payload, state.layers)
    if payload.round != state.round + 1:
        raise ProtocolError(
            f"payload is round {payload.round}, server expects {state.round + 1}"
        )
    values, section, infos = _parse_round(payload, state.layers, _decode_layer, state, predict)
    at = 0
    for i in section:
        recon = state.prev_recon[i]
        np.copyto(recon, values[at:at + recon.size])
        at += recon.size
    state.round = payload.round
    return list(state.recons), infos, state


@dataclass
class BlobInfo:
    """Header-level description of one layer's coded bytes: what
    describe_payload reads without decoding the bins, and what the encoder
    knows of each layer it codes. A layer in the lossless section is
    described by its share of the section (see _section_infos)."""

    tag: int
    wire_bytes: int
    inner_bytes: int
    flags: int = 0
    mu: float = 0.0
    sigma: float = 0.0
    delta: float = 0.0
    bitmap_variant: str = VARIANT_NONE
    bitmap_bytes: int = 0
    bitmap_bits: int = 0
    kernel_count: int = 0
    predicted_kernels: int = 0
    huffman_bits: int = 0
    literal_count: int = 0
    state_crc: int = 0

    @classmethod
    def lossy(
        cls, wire_bytes: int, inner_bytes: int, flags: int, mu: float, sigma: float,
        delta: float, bitmap: SignBitmap, bitmap_bytes: int, huffman_bits: int,
        literal_count: int, state_crc: int,
    ) -> "BlobInfo":
        return cls(
            TAG_LOSSY, wire_bytes, inner_bytes, flags, mu, sigma, delta, bitmap.variant,
            bitmap_bytes, bitmap_wire_bits(bitmap), bitmap.kernel_count,
            bitmap.predicted_count, huffman_bits, literal_count, state_crc,
        )


def _section_infos(inner: bytes, wire_bytes: int, sizes: list[int]) -> list[BlobInfo]:
    """The BlobInfo of each layer of a lossless section whose inner bytes
    (inside the wrap) are ``inner`` and whose wrap is ``wire_bytes`` long.

    The one rule the encoder and both readers share: a layer's inner bytes
    are its flag byte, its stored planes and its share of the high plane
    stream, and its wire bytes add its share of the wrap. A share is in
    proportion to the layer's elements, rounded down at each running total,
    so the layers' rows sum to the section's sizes exactly.
    """
    ends = list(accumulate(sizes))

    def shares(total: int) -> list[int]:
        cuts = [0] + [end * total // ends[-1] for end in ends]
        return [b - a for a, b in zip(cuts, cuts[1:])]

    own = [1 + n * _STORED_PLANES[flags] for n, flags in zip(sizes, inner)]
    high, wrap = shares(len(inner) - sum(own)), shares(wire_bytes - len(inner))
    return [BlobInfo(TAG_LOSSLESS, o + h + w, o + h) for o, h, w in zip(own, high, wrap)]


def _read_section(
    wrapped: bytes, layers: list[LayerSpec], section: list[int]
) -> tuple[np.ndarray, list[BlobInfo]]:
    """Check and read the lossless section of layers ``section``: their
    values, joined, as float32, and the BlobInfo of each. The wrap's CRC32
    is checked once, the high plane stream inflated once, and the values
    checked finite in one pass. An error names the layer whose bytes it is
    in (a flag byte, a stored plane, a non-finite value), or else the
    section."""
    sizes = [layers[i].numel for i in section]
    try:
        inner = lossless_decompress(wrapped, len(wrapped))
        reader = ByteReader(inner, truncation_error=IntegrityError)
        values = read_planes(reader, sizes)
        if reader.remaining:
            raise IntegrityError("trailing bytes")
    except GradzipError as exc:
        j = getattr(exc, "index", None)
        where = "lossless section" if j is None else f"layer {layers[section[j]].name!r}"
        raise type(exc)(f"{where}: {exc}") from exc
    j = _first_non_finite(values, sizes)
    if j is not None:
        raise DataError(
            f"layer {layers[section[j]].name!r}: lossless section holds non-finite values"
        )
    return values, _section_infos(inner, len(wrapped), sizes)


def _max_inner_bytes(numel: int) -> int:
    """The largest inner blob a lossy layer of numel elements can have: its
    header with the largest sign bitmap and stream, and the state digest."""
    bitmap = 5 + 2 * ((numel + 7) // 8)  # tag, kernel count, two bit levels
    return 1 + struct.calcsize("<Bffd") + bitmap + max_stream_bytes(numel) + 4


def _parse_blob(
    blob: bytes, spec: LayerSpec, first_round: bool
) -> tuple[BlobInfo, SignBitmap, EncodedStream]:
    """Inflate and validate one lossy layer blob, leaving the bins entropy
    coded.

    Returns the blob's description, its sign bitmap and its parsed stream.
    A blob of round 1 has no previous signs to predict from, so it may not
    carry a sign bitmap, and a kernel bitmap must fit the layer's kernels.
    Its errors leave the layer unnamed: the round driver that runs it adds
    the name.
    """
    inner = lossless_decompress(blob, _max_inner_bytes(spec.numel))
    reader = ByteReader(inner, truncation_error=IntegrityError)
    (tag,) = reader.unpack("<B")
    if tag != TAG_LOSSY:
        raise FormatError(f"unknown blob tag {tag}")
    flags, mu, sigma, delta = reader.unpack("<Bffd")
    if flags & ~_FLAG_PREDICTION:
        raise FormatError(f"unknown blob flags {flags:#x}")
    if not 0.0 < 2.0 * delta < np.inf:
        raise IntegrityError("non-positive or non-finite delta or bin width on wire")
    if not (0.0 <= mu < np.inf and 0.0 <= sigma < np.inf):
        raise IntegrityError("negative or non-finite mu or sigma on wire")
    bitmap_start = reader.pos
    bitmap = decode_bitmap(reader)
    if not flags & _FLAG_PREDICTION and bitmap.variant != VARIANT_NONE:
        raise IntegrityError("sign bitmap present without prediction")
    if bitmap.variant != VARIANT_NONE and first_round:
        raise IntegrityError("sign bitmap in round 1")
    if bitmap.variant == VARIANT_KERNEL and spec.kind != KIND_CONV4D:
        raise IntegrityError("kernel bitmap for a non-conv4d layer")
    if bitmap.variant == VARIANT_KERNEL and bitmap.kernel_count != spec.kernel_count:
        raise IntegrityError(f"bitmap covers {bitmap.kernel_count} kernels, "
                             f"layer has {spec.kernel_count}")
    bitmap_bytes = reader.pos - bitmap_start
    body = read_stream(reader, spec.numel)
    (state_crc,) = reader.unpack("<I")
    if reader.remaining:
        raise IntegrityError("trailing bytes in blob")
    info = BlobInfo.lossy(
        len(blob), len(inner), flags, mu, sigma, delta, bitmap,
        bitmap_bytes, body.block.bit_count, body.literals.size, state_crc,
    )
    return info, bitmap, body


def describe_payload(payload: CompressedPayload, layers: list[LayerSpec]) -> list[BlobInfo]:
    """Check a payload against a layer table and describe each layer's
    coded bytes, in layer order, reading them as decode_payload does but
    decoding no bins."""
    check_payload(payload, layers)
    first_round = payload.round == 1
    return _parse_round(
        payload, layers, lambda i, blob: _parse_blob(blob, layers[i], first_round)[0]
    )[2]


def frame_payload(payload: CompressedPayload) -> bytes:
    if len(payload.spec_digest) != 8:
        raise UsageError("spec digest must be 8 bytes")
    if not (0 <= payload.client_id <= 0xFFFFFFFF and 0 <= payload.round <= 0xFFFFFFFF):
        raise UsageError(
            f"client {payload.client_id} or round {payload.round} outside 0..4294967295"
        )
    lossless = np.asarray(payload.lossless, dtype=bool)
    count = int(np.count_nonzero(lossless))
    if len(payload.blobs) != lossless.size - count or bool(payload.section) != bool(count):
        raise UsageError(
            f"{len(payload.blobs)} blobs and {'a' if payload.section else 'no'} lossless "
            f"section for {lossless.size} layers, {count} of them lossless"
        )
    parts = [
        PAYLOAD_MAGIC,
        struct.pack("<HII", PAYLOAD_VERSION, payload.client_id, payload.round),
        payload.spec_digest,
        struct.pack("<I", lossless.size),
        np.packbits(lossless, bitorder="little").tobytes(),
    ]
    if count:
        parts += (struct.pack("<I", len(payload.section)), payload.section)
    for blob in payload.blobs:
        parts += (struct.pack("<I", len(blob)), blob)
    return b"".join(parts)


def parse_payload(data: bytes) -> CompressedPayload:
    reader = ByteReader(data)
    payload = _parse_one(reader)
    if reader.remaining:
        raise FormatError("trailing bytes after payload frame")
    return payload


def _parse_one(reader: ByteReader) -> CompressedPayload:
    if reader.take(4) != PAYLOAD_MAGIC:
        raise FormatError("not a payload frame (bad magic)")
    version, client_id, round_idx = reader.unpack("<HII")
    if version != PAYLOAD_VERSION:
        raise FormatError(f"unsupported payload version {version}")
    digest = reader.take(8)
    (nlayers,) = reader.unpack("<I")
    if nlayers == 0:
        raise FormatError("payload declares zero layers")
    lossless = reader.take_bits(nlayers)
    count = int(np.count_nonzero(lossless))
    section = reader.take(reader.unpack("<I")[0]) if count else b""
    blobs = [reader.take(reader.unpack("<I")[0]) for _ in range(nlayers - count)]
    return CompressedPayload(client_id, round_idx, digest, lossless, section, blobs)


def iter_payloads(data):
    """Yield consecutive payload frames from a concatenated stream, given as
    bytes or as a ByteReader (a FileReader reads one whole frame per step,
    blobs included)."""
    reader = data if isinstance(data, ByteReader) else ByteReader(data)
    while reader.remaining:
        yield _parse_one(reader)
