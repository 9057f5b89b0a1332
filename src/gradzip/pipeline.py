"""Round-level compression pipeline and client/server synchronization.

One round runs per layer: small layers are sent exactly, by byte plane; large
layers go through magnitude prediction, sign prediction, residual
quantization, entropy coding, and the lossless backend. The client keeps the
reconstruction the server will compute and feeds the predictors from it, and
both sides derive each prediction through one step from the blob's wire
fields, so they evolve bitwise-identical state using only the framed payload
as a channel. One loop, _each_layer, runs every layer step of a round, in
layer order, and names the layer in the step's errors. Each layer writes only its own arrays of the SyncState, which
advances in place; what a round returns is valid until the next round. A
caller that wants to branch from a state keeps its own copy.

Every byte that can change a reconstruction is checked on the wire: a
DEFLATE blob by its zlib Adler-32, a stored blob by its CRC32, and a lossy
blob's result by the CRC32 of the client's state after the round, which the
server recomputes from its own. A client therefore needs no mirror of the
server to know that the server will decode what it sent.

Wire formats (little-endian), version 3:

    layer blob (before the lossless backend wrap):
        tag u8: 0 = lossless_only, 1 = lossy
        lossless_only: the float32 values by byte plane (codec.encode_planes):
               zero-plane flags u8 (bit k: plane k is all zero and omitted),
               raw DEFLATE stream of the high bytes, then the stored low
               planes 2, 1 and 0 that are not all zero, one byte per value
        lossy: flags u8 (bit 0 = prediction used), mu f32, sigma f32,
               delta f64, sign bitmap, Huffman block, literal section,
               state digest u32: CRC32 of the layer's magnitude memory
               (f64) and then its reconstruction (f32) after the round

    wrapped blob: "Z" + zlib stream, or "S" + layer blob + CRC32 u32. The
        encoder stores every lossless_only blob, whose high plane is already
        deflated; the backend parameter picks the wrap of lossy blobs.

    payload frame:
        magic "GEBC", version u16, client u32, round u32,
        layer-table digest 8 bytes, layer count u32,
        then per layer: blob length u32 + wrapped blob
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from hashlib import blake2b

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
PAYLOAD_VERSION = 3
DEFAULT_LOSSY_THRESHOLD = 1024

TAG_LOSSLESS = 0
TAG_LOSSY = 1
_FLAG_PREDICTION = 0x01


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
    client_id: int
    round: int
    spec_digest: bytes
    blobs: list[bytes]


def _each_layer(layers: list[LayerSpec], items: list, step, *args) -> list:
    """Returns ``step(i, item, *args)`` for each layer i and its item, in layer
    order. A GradzipError from a step is raised again as the same class, its
    message prefixed with the layer's name."""
    out = []
    for i, (spec, item) in enumerate(zip(layers, items)):
        try:
            out.append(step(i, item, *args))
        except GradzipError as exc:
            raise type(exc)(f"layer {spec.name!r}: {exc}") from exc
    return out


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


def _encode_layer(
    i: int, g: GradientTensor, state: SyncState, params: PipelineParams
) -> tuple[bytes, "BlobInfo"]:
    """Layer i of a client round: (wrapped blob, the blob's description).
    Layer i's magnitude memory and reconstruction in ``state`` are written
    over with the ones the server will compute. A lossless layer's values
    are sent as they are, so a non-finite one (written into the tensor
    after it was made) raises DataError, as the reader would, before the
    blob or the state is written."""
    spec, recon = state.layers[i], state.prev_recon[i]
    if g.spec != spec:
        raise UsageError(f"gradient is for layer {g.spec.name!r}")
    if spec.numel <= params.lossy_threshold:
        if not np.isfinite(g.values).all():
            raise DataError(f"non-finite gradient values at round {state.round + 1}")
        inner = struct.pack("<B", TAG_LOSSLESS) + encode_planes(g.values)
        blob = lossless_compress(inner, BACKEND_STORE)
        np.copyto(recon, g.values)
        return blob, BlobInfo(TAG_LOSSLESS, len(blob), len(inner))
    mu, sigma = abs_stats(g.values, np.empty(spec.numel))
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
    of each blob it wrote, and ``state`` itself, advanced in place: each
    layer's new magnitude memory and reconstruction are written over its
    arrays. The reconstructions are bitwise the ones the server will decode.
    A round that raises leaves ``state`` partly advanced, so it may not be
    used again.
    """
    if len(tensors) != len(state.layers):
        raise UsageError(f"{len(tensors)} tensors for {len(state.layers)} layers")
    coded = _each_layer(state.layers, tensors, _encode_layer, state, params)
    blobs, infos = map(list, zip(*coded))
    state.round += 1
    payload = CompressedPayload(client_id, state.round, spec_digest(state.layers), blobs)
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
    """Check a payload's layer-table digest, its blob count, and each blob's
    length against the fewest bytes its layer can be coded in."""
    if payload.spec_digest != spec_digest(layers):
        raise ProtocolError(
            f"payload for round {payload.round} does not match the layer table"
        )
    if len(payload.blobs) != len(layers):
        raise IntegrityError(
            f"payload for round {payload.round} has {len(payload.blobs)} blobs "
            f"for {len(layers)} layers"
        )
    _each_layer(layers, payload.blobs, _check_size, layers)


def _check_size(i: int, blob: bytes, layers: list[LayerSpec]) -> None:
    """Refuse a wrapped blob shorter than the fewest bytes layer i can be
    coded in. A lossy inner blob holds at least one code bit and one mask bit
    per element, and DEFLATE inflates at most 1032:1 (a 258-byte match in 2
    bits). A lossless inner blob holds its high byte plane deflated, at least
    numel / 1032 bytes, and the encoder stores it, so it passes as well; only
    a lossless blob deflated a second time could fall below the bound. A
    literal section without the per-element mask would halve the lossy term,
    and this bound with it.
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
    """Layer i of a server round: returns the blob's description and writes
    layer i's new magnitude memory and reconstruction over the state's. A
    lossy layer whose reconstruction is not finite raises DataError (from
    dequantize), and one whose state after the round differs from the
    client's, by the blob's state digest, raises ProtocolError."""
    spec, recon = state.layers[i], state.prev_recon[i]
    info, bitmap, body = _parse_blob(blob, spec, state.round == 0)
    if info.tag == TAG_LOSSLESS:
        np.copyto(recon, body)
        return info
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


def decode_payload(
    payload: CompressedPayload, state: SyncState, predict: PredictParams
) -> tuple[list[GradientTensor], list["BlobInfo"], SyncState]:
    """Decode one payload; returns reconstructions, the description of each
    parsed blob, and ``state`` itself, advanced in place as by encode_round.
    The reconstructions are ``state.recons``'s tensors in a fresh list: the
    same objects every round, over the state's arrays, so they are valid
    until its next round and are to be read, not written. ``predict`` is all
    the decoder reads of the pipeline parameters (a stream carries it in its
    header): the rest is in the payload. An error raised in a layer's step
    names the layer, and stops the round before the next layer: a
    non-finite reconstruction raises DataError, and a lossy layer whose
    state after the round differs from the client's raises ProtocolError
    naming the round. A round that raises leaves ``state`` partly advanced,
    so it may not be used again.
    """
    check_payload(payload, state.layers)
    if payload.round != state.round + 1:
        raise ProtocolError(
            f"payload is round {payload.round}, server expects {state.round + 1}"
        )
    infos = _each_layer(state.layers, payload.blobs, _decode_layer, state, predict)
    state.round = payload.round
    return list(state.recons), infos, state


@dataclass
class BlobInfo:
    """Header-level description of one layer blob: what describe_payload
    reads without decoding the bins, and what the encoder knows of each blob
    it writes."""

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


def _max_inner_bytes(numel: int) -> int:
    """The largest inner blob a layer of numel elements can have: a lossless
    one, or a lossy header with the largest sign bitmap and stream, and the
    state digest."""
    bitmap = 5 + 2 * ((numel + 7) // 8)  # tag, kernel count, two bit levels
    lossy = 1 + struct.calcsize("<Bffd") + bitmap + max_stream_bytes(numel) + 4
    return max(1 + max_planes_bytes(numel), lossy)


def _parse_blob(
    blob: bytes, spec: LayerSpec, first_round: bool
) -> tuple[BlobInfo, SignBitmap | None, np.ndarray | EncodedStream]:
    """Inflate and validate one layer blob, leaving the bins entropy coded.

    Returns the blob's description, its sign bitmap (None for a lossless
    blob) and its body: the float32 values of a lossless blob, or the
    parsed stream of a lossy one. A blob of round 1 has no
    previous signs to predict from, so it may not carry a sign bitmap, and a
    kernel bitmap must fit the layer's kernels. Its errors leave the layer
    unnamed: the round driver that runs it adds the name.
    """
    inner = lossless_decompress(blob, _max_inner_bytes(spec.numel))
    reader = ByteReader(inner, truncation_error=IntegrityError)
    (tag,) = reader.unpack("<B")
    if tag == TAG_LOSSLESS:
        info = BlobInfo(tag, len(blob), len(inner))
        bitmap = None
        body = read_planes(reader, spec.numel)
        if not np.isfinite(body).all():
            raise DataError("lossless blob holds non-finite values")
    elif tag == TAG_LOSSY:
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
        info = BlobInfo.lossy(
            len(blob), len(inner), flags, mu, sigma, delta, bitmap,
            bitmap_bytes, body.block.bit_count, body.literals.size, state_crc,
        )
    else:
        raise FormatError(f"unknown blob tag {tag}")
    if reader.remaining:
        raise IntegrityError("trailing bytes in blob")
    return info, bitmap, body


def describe_payload(payload: CompressedPayload, layers: list[LayerSpec]) -> list[BlobInfo]:
    """Check a payload against a layer table and describe each of its blobs."""
    check_payload(payload, layers)
    first_round = payload.round == 1
    return _each_layer(layers, payload.blobs,
                       lambda i, blob: _parse_blob(blob, layers[i], first_round)[0])


def frame_payload(payload: CompressedPayload) -> bytes:
    if len(payload.spec_digest) != 8:
        raise UsageError("spec digest must be 8 bytes")
    if not (0 <= payload.client_id <= 0xFFFFFFFF and 0 <= payload.round <= 0xFFFFFFFF):
        raise UsageError(
            f"client {payload.client_id} or round {payload.round} outside 0..4294967295"
        )
    parts = [
        PAYLOAD_MAGIC,
        struct.pack("<HII", PAYLOAD_VERSION, payload.client_id, payload.round),
        payload.spec_digest,
        struct.pack("<I", len(payload.blobs)),
    ]
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
    blobs = [reader.take(reader.unpack("<I")[0]) for _ in range(nlayers)]
    return CompressedPayload(client_id, round_idx, digest, blobs)


def iter_payloads(data):
    """Yield consecutive payload frames from a concatenated stream, given as
    bytes or as a ByteReader (a FileReader reads one whole frame per step,
    blobs included)."""
    reader = data if isinstance(data, ByteReader) else ByteReader(data)
    while reader.remaining:
        yield _parse_one(reader)
