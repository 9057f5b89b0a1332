"""Round-level compression pipeline and client/server synchronization.

One round runs per layer: small layers are stored losslessly; large layers go
through magnitude prediction, sign prediction, residual quantization, entropy
coding, and the lossless backend. The client keeps the reconstruction the
server will compute and feeds the predictors from it, so both sides evolve
bitwise-identical state using only the framed payload as a channel.

Wire formats (little-endian):

    layer blob (before the lossless backend wrap):
        tag u8: 0 = lossless_only, 1 = lossy
        lossless_only: raw float32 values
        lossy: flags u8 (bit 0 = prediction used), mu f32, sigma f32,
               delta f64, sign bitmap, Huffman block, literal section

    payload frame:
        magic "GEBC", version u16, client u32, round u32,
        layer-table digest 8 bytes, layer count u32,
        then per layer: blob length u32 + wrapped blob
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from hashlib import blake2b

import numpy as np

from .codec import (
    BACKEND_DEFAULT,
    BACKEND_STORE,
    EncodedStream,
    ErrorBoundConfig,
    decode_stream,
    dequantize,
    encode_stream,
    lossless_compress,
    lossless_decompress,
    quantize,
    read_stream,
    resolve_bound,
)
from .errors import FormatError, IntegrityError, ProtocolError, UsageError
from .predictor import (
    VARIANT_NONE,
    MagPredictorState,
    PredictParams,
    SignBitmap,
    SignTensor,
    bitmap_wire_bits,
    decode_bitmap,
    encode_bitmap,
    predict_magnitude,
    predict_signs,
    reconstruct_signs,
)
from .trace import ByteReader, GradientTensor, LayerSpec, abs_stats, encode_layer_table

PAYLOAD_MAGIC = b"GEBC"
PAYLOAD_VERSION = 1
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
    """8-byte digest of the layer table; payloads carry it to fail fast on desync."""
    return blake2b(encode_layer_table(layers), digest_size=8).digest()


@dataclass
class SyncState:
    """Predictor history shared (in structure) by client and server.

    Holds, per layer, the magnitude-predictor memory and the previous round's
    reconstructed gradient. The previous sign tensor is derived from the
    reconstruction on demand, never stored. After processing round t on both
    sides the two states must serialize to identical bytes.
    """

    layers: list[LayerSpec]
    mag: list[MagPredictorState]
    prev_recon: list[np.ndarray]
    round: int = 0

    @classmethod
    def initial(cls, layers: list[LayerSpec]) -> "SyncState":
        return cls(
            layers=list(layers),
            mag=[MagPredictorState.fresh(spec.numel) for spec in layers],
            prev_recon=[np.zeros(spec.numel, dtype=np.float32) for spec in layers],
            round=0,
        )

    def to_bytes(self) -> bytes:
        out = bytearray(struct.pack("<I", self.round))
        for mag, recon in zip(self.mag, self.prev_recon):
            out += mag.to_bytes()
            out += recon.astype("<f4", copy=False).tobytes()
        return bytes(out)


@dataclass
class CompressedPayload:
    client_id: int
    round: int
    spec_digest: bytes
    blobs: list[bytes]
    version: int = PAYLOAD_VERSION


def _prev_sign(recon: np.ndarray) -> SignTensor:
    return SignTensor(np.sign(recon).astype(np.int8))


def _predict(
    spec: LayerSpec,
    g_curr: GradientTensor | None,
    bitmap_in: SignBitmap | None,
    mu32: np.float32,
    sigma32: np.float32,
    mag_state: MagPredictorState,
    prev_recon: np.ndarray,
    first_round: bool,
    params: PredictParams,
) -> tuple[np.ndarray, SignBitmap, MagPredictorState]:
    """Shared prediction step. The client passes g_curr and derives the
    bitmap; the server passes the received bitmap instead. Both produce the
    same ghat and updated magnitude state."""
    prev_abs = np.abs(prev_recon).astype(np.float64)
    pred_abs, new_mag = predict_magnitude(
        prev_abs, float(mu32), float(sigma32), mag_state, params
    )
    if first_round:
        signs = SignTensor.zeros(spec.numel)
        bitmap = SignBitmap()
    elif g_curr is not None:
        signs, bitmap = predict_signs(
            g_curr, _prev_sign(prev_recon), GradientTensor(spec, prev_recon), params
        )
    else:
        signs = reconstruct_signs(bitmap_in, _prev_sign(prev_recon), spec)
        bitmap = bitmap_in
    ghat = signs.values.astype(np.float64) * pred_abs
    return ghat, bitmap, new_mag


def compress_round(
    tensors: list[GradientTensor],
    state: SyncState,
    params: PipelineParams,
    client_id: int = 0,
) -> tuple[CompressedPayload, SyncState]:
    """Compress one round of gradients; returns the payload and advanced state."""
    if len(tensors) != len(state.layers):
        raise UsageError(f"{len(tensors)} tensors for {len(state.layers)} layers")
    round_idx = state.round + 1
    blobs = []
    new_mag = []
    new_recon = []
    for i, (spec, g) in enumerate(zip(state.layers, tensors)):
        if g.spec != spec:
            raise UsageError(f"layer {i} spec mismatch: {g.spec.name!r} vs {spec.name!r}")
        if spec.numel <= params.lossy_threshold:
            inner = struct.pack("<B", TAG_LOSSLESS) + g.values.astype("<f4", copy=False).tobytes()
            new_mag.append(state.mag[i])
            new_recon.append(g.values.copy())
        else:
            mu, sigma = abs_stats(g)
            mu32, sigma32 = np.float32(mu), np.float32(sigma)
            if params.prediction_enabled:
                ghat, bitmap, mag_after = _predict(
                    spec, g, None, mu32, sigma32, state.mag[i],
                    state.prev_recon[i], round_idx == 1, params.predict,
                )
                flags = _FLAG_PREDICTION
            else:
                ghat = np.zeros(spec.numel, dtype=np.float64)
                bitmap = SignBitmap()
                mag_after = state.mag[i]
                flags = 0
            delta = resolve_bound(params.bound, g)
            stream, recon32 = quantize(g.values, ghat, delta)
            inner = struct.pack("<BBffd", TAG_LOSSY, flags, mu32, sigma32, delta)
            inner += encode_bitmap(bitmap)
            inner += encode_stream(stream)
            new_mag.append(mag_after)
            new_recon.append(recon32)
        blobs.append(lossless_compress(inner, params.backend))
    payload = CompressedPayload(
        client_id=client_id,
        round=round_idx,
        spec_digest=spec_digest(state.layers),
        blobs=blobs,
    )
    next_state = SyncState(state.layers, new_mag, new_recon, round_idx)
    return payload, next_state


def _check_payload(payload: CompressedPayload, layers: list[LayerSpec]) -> None:
    if payload.version != PAYLOAD_VERSION:
        raise FormatError(f"unsupported payload version {payload.version}")
    if payload.spec_digest != spec_digest(layers):
        raise ProtocolError(
            f"payload for round {payload.round} does not match the layer table"
        )
    if len(payload.blobs) != len(layers):
        raise IntegrityError(
            f"payload for round {payload.round} has {len(payload.blobs)} blobs "
            f"for {len(layers)} layers"
        )


def decompress_round(
    payload: CompressedPayload, state: SyncState, params: PipelineParams
) -> tuple[list[GradientTensor], SyncState]:
    """Decode one payload; returns reconstructions and advanced state."""
    recons, _, next_state = decode_payload(payload, state, params.predict)
    return recons, next_state


def decode_payload(
    payload: CompressedPayload, state: SyncState, predict: PredictParams
) -> tuple[list[GradientTensor], list["BlobInfo"], SyncState]:
    """Decode one payload; returns reconstructions, the description of each
    parsed blob, and the advanced state. ``predict`` is all the decoder reads
    of the pipeline parameters: the rest is on the wire."""
    _check_payload(payload, state.layers)
    if payload.round != state.round + 1:
        raise ProtocolError(
            f"payload is round {payload.round}, server expects {state.round + 1}"
        )
    recons = []
    infos = []
    new_mag = []
    new_recon = []
    for i, (spec, blob) in enumerate(zip(state.layers, payload.blobs)):
        info, bitmap, body = _parse_blob(blob, spec)
        mag_after = state.mag[i]
        if info.tag == TAG_LOSSLESS:
            recon32 = body
        else:
            stream = decode_stream(body)
            if info.flags & _FLAG_PREDICTION:
                ghat, _, mag_after = _predict(
                    spec, None, bitmap, np.float32(info.mu), np.float32(info.sigma),
                    state.mag[i], state.prev_recon[i], payload.round == 1, predict,
                )
            else:
                ghat = np.zeros(spec.numel, dtype=np.float64)
            recon32 = dequantize(stream, ghat, info.delta)
        infos.append(info)
        new_mag.append(mag_after)
        new_recon.append(recon32)
        recons.append(GradientTensor(spec, recon32))
    next_state = SyncState(state.layers, new_mag, new_recon, payload.round)
    return recons, infos, next_state


@dataclass
class BlobInfo:
    """Header-level description of one layer blob, without full decoding."""

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


def _parse_blob(
    blob: bytes, spec: LayerSpec
) -> tuple[BlobInfo, SignBitmap | None, np.ndarray | EncodedStream]:
    """Inflate and validate one layer blob, leaving the bins entropy coded.

    Returns the blob's description, its sign bitmap (None for a lossless
    blob) and its body: the float32 values of a lossless blob, or the parsed
    stream of a lossy one.
    """
    inner = lossless_decompress(blob)
    reader = ByteReader(inner, truncation_error=IntegrityError)
    (tag,) = reader.unpack("<B")
    if tag == TAG_LOSSLESS:
        info = BlobInfo(tag, len(blob), len(inner))
        bitmap = None
        body = np.frombuffer(reader.take(4 * spec.numel), dtype="<f4").astype(np.float32)
    elif tag == TAG_LOSSY:
        flags, mu, sigma, delta = reader.unpack("<Bffd")
        if flags & ~_FLAG_PREDICTION:
            raise FormatError(f"layer {spec.name!r}: unknown blob flags {flags:#x}")
        if not 0.0 < delta < np.inf:
            raise IntegrityError(f"layer {spec.name!r}: non-positive or non-finite delta on wire")
        bitmap_start = reader.pos
        bitmap = decode_bitmap(reader)
        if not flags & _FLAG_PREDICTION and bitmap.variant != VARIANT_NONE:
            raise IntegrityError(
                f"layer {spec.name!r}: sign bitmap present without prediction"
            )
        bitmap_bytes = reader.pos - bitmap_start
        body = read_stream(reader, spec.numel)
        info = BlobInfo(
            tag=tag,
            wire_bytes=len(blob),
            inner_bytes=len(inner),
            flags=flags,
            mu=mu,
            sigma=sigma,
            delta=delta,
            bitmap_variant=bitmap.variant,
            bitmap_bytes=bitmap_bytes,
            bitmap_bits=bitmap_wire_bits(bitmap),
            kernel_count=bitmap.kernel_count,
            predicted_kernels=bitmap.predicted_count,
            huffman_bits=body.block.bit_count,
            literal_count=body.literals.size,
        )
    else:
        raise FormatError(f"layer {spec.name!r}: unknown blob tag {tag}")
    if reader.remaining:
        raise IntegrityError(f"layer {spec.name!r}: trailing bytes in blob")
    return info, bitmap, body


def describe_blob(blob: bytes, spec: LayerSpec) -> BlobInfo:
    """Describe and validate one layer blob without entropy-decoding its bins."""
    return _parse_blob(blob, spec)[0]


def describe_payload(payload: CompressedPayload, layers: list[LayerSpec]) -> list[BlobInfo]:
    """Check a payload against a layer table and describe each of its blobs."""
    _check_payload(payload, layers)
    return [describe_blob(blob, spec) for spec, blob in zip(layers, payload.blobs)]


def frame_payload(payload: CompressedPayload) -> bytes:
    if len(payload.spec_digest) != 8:
        raise UsageError("spec digest must be 8 bytes")
    out = bytearray()
    out += PAYLOAD_MAGIC
    out += struct.pack("<HII", payload.version, payload.client_id, payload.round)
    out += payload.spec_digest
    out += struct.pack("<I", len(payload.blobs))
    for blob in payload.blobs:
        out += struct.pack("<I", len(blob))
        out += blob
    return bytes(out)


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
    blobs = []
    for _ in range(nlayers):
        (blen,) = reader.unpack("<I")
        blobs.append(reader.take(blen))
    return CompressedPayload(client_id, round_idx, digest, blobs, version)


def iter_payloads(data: bytes):
    """Yield consecutive payload frames from a concatenated stream."""
    reader = ByteReader(data)
    while reader.remaining:
        yield _parse_one(reader)
