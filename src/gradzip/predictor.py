"""Magnitude and sign predictors for gradient tensors.

The magnitude predictor runs an EMA in normalized (z-score) space: the
previous round's reconstructed magnitudes are standardized, blended with a
per-element memory, and mapped back through the current round's transmitted
mean and deviation. The sign predictor has two modes. In full-batch training
consecutive gradients correlate strongly in direction, so one flip bit per
layer carries the whole sign tensor. In mini-batch training only convolution
kernels keep a usable structure: kernels whose entries mostly agree get their
dominant sign broadcast, encoded in a two-level bitmap (one bit per kernel
saying "predicted", one bit per predicted kernel for the sign).

State goes in and comes out explicitly, so the client and server stay
bitwise-identical by construction. The one exception to purity is
predict_magnitude's memory, a plain float64 array that it writes over with
the next round's: the pipeline's state owns one per layer. SignTensor checks
nothing, as only reconstruct_signs fills it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, FormatError, IntegrityError, UsageError
from .trace import KIND_CONV4D, ByteReader, GradientTensor, LayerSpec, abs_stats

VARIANT_NONE = "none"
VARIANT_FLIP = "flip_bit"
VARIANT_KERNEL = "kernel_maps"

_TAG_NONE = 0
_TAG_FLIP = 1
_TAG_KERNEL = 2

# Floor on the deviation that standardizes the previous magnitudes.
SIGMA_FLOOR = 1e-12
# Elements the magnitude predictor works on at once; bounds its working set.
_BLOCK = 1 << 16

class UndefinedCorrelationError(DataError):
    """Correlation is undefined because one input has zero norm."""


@dataclass(frozen=True)
class PredictParams:
    beta: float = 0.5
    tau: float = 0.5
    full_batch: bool = False

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise UsageError(f"beta must be in (0, 1], got {self.beta}")
        if not 0.0 <= self.tau <= 1.0:
            raise UsageError(f"tau must be in [0, 1], got {self.tau}")


@dataclass
class SignTensor:
    """Predicted signs, one int8 per element in {-1, 0, +1}; 0 means none."""

    values: np.ndarray


@dataclass
class SignBitmap:
    """Wire-level sign prediction summary.

    variant "flip_bit" carries one bool; "kernel_maps" carries a level-1 bit
    per kernel (predicted or not) and a level-2 bit per predicted kernel
    (1 = dominant sign positive); "none" carries nothing.
    """

    variant: str = VARIANT_NONE
    flip: bool = False
    kernel_count: int = 0
    level1: np.ndarray = field(default=None)  # type: ignore[assignment]
    level2: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.variant not in (VARIANT_NONE, VARIANT_FLIP, VARIANT_KERNEL):
            raise UsageError(f"unknown bitmap variant {self.variant!r}")
        if self.variant == VARIANT_KERNEL:
            level1 = np.ascontiguousarray(self.level1, dtype=bool).reshape(-1)
            level2 = np.ascontiguousarray(self.level2, dtype=bool).reshape(-1)
            if level1.size != self.kernel_count:
                raise IntegrityError(
                    f"level-1 bitmap has {level1.size} bits for {self.kernel_count} kernels"
                )
            if level2.size != int(level1.sum()):
                raise IntegrityError(
                    f"level-2 bitmap has {level2.size} bits for {int(level1.sum())} predicted kernels"
                )
            self.level1 = level1
            self.level2 = level2

    @property
    def predicted_count(self) -> int:
        if self.variant != VARIANT_KERNEL:
            return 0
        return int(self.level1.sum())


def _pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()


def encode_bitmap(bitmap: SignBitmap) -> bytes:
    """Serialize a bitmap: tag byte, then the variant payload, bits LSB-first."""
    if bitmap.variant == VARIANT_NONE:
        return struct.pack("<B", _TAG_NONE)
    if bitmap.variant == VARIANT_FLIP:
        return struct.pack("<BB", _TAG_FLIP, int(bitmap.flip))
    out = struct.pack("<BI", _TAG_KERNEL, bitmap.kernel_count)
    return out + _pack_bits(bitmap.level1) + _pack_bits(bitmap.level2)


def bitmap_wire_bits(bitmap: SignBitmap) -> int:
    """Bits encode_bitmap writes for a bitmap, headers included, before padding."""
    if bitmap.variant == VARIANT_KERNEL:
        return 40 + bitmap.kernel_count + bitmap.predicted_count
    if bitmap.variant == VARIANT_FLIP:
        return 16
    return 8


def decode_bitmap(reader: ByteReader) -> SignBitmap:
    (tag,) = reader.unpack("<B")
    if tag == _TAG_NONE:
        return SignBitmap()
    if tag == _TAG_FLIP:
        (flip,) = reader.unpack("<B")
        if flip not in (0, 1):
            raise FormatError(f"flip bit byte must be 0 or 1, got {flip}")
        return SignBitmap(variant=VARIANT_FLIP, flip=bool(flip))
    if tag == _TAG_KERNEL:
        (kernel_count,) = reader.unpack("<I")
        level1 = reader.take_bits(kernel_count)
        level2 = reader.take_bits(int(level1.sum()))
        return SignBitmap(
            variant=VARIANT_KERNEL, kernel_count=kernel_count, level1=level1, level2=level2
        )
    raise FormatError(f"unknown bitmap tag {tag}")


def predict_magnitude(
    recon: np.ndarray,
    mu_curr: float,
    sigma_curr: float,
    memory: np.ndarray,
    params: PredictParams,
) -> np.ndarray:
    """EMA prediction of elementwise magnitudes in normalized space.

    Takes the previous round's signed reconstruction, standardizes its
    magnitudes with their own mean and population deviation (floored at
    SIGMA_FLOOR), blends with the memory as
    z_pred = (1 - beta) * memory + beta * z_prev, then de-normalizes with the
    current round's transmitted statistics. The returned prediction is a new
    float64 array clamped to be nonnegative. The unclamped z_pred is written
    over ``memory``, a float64 array of the input's length.
    """
    recon = np.asarray(recon).reshape(-1)
    n, beta = recon.size, params.beta
    if memory.dtype != np.float64 or memory.shape != (n,):
        raise UsageError(f"predictor memory must be a float64 array of {n} elements")
    pred_abs = np.empty(n)
    mean, dev = abs_stats(recon, pred_abs)
    scale = max(dev, SIGMA_FLOOR)
    sigma, mu = float(sigma_curr), float(mu_curr)
    # One pass a block at a time, so every step reads the previous one's
    # output from cache: it takes the magnitudes from the reconstruction
    # again and builds z_prev, z_pred (over the memory block it reads) and
    # the prediction, over the buffer abs_stats worked in.
    for a in range(0, n, _BLOCK):
        p, z = pred_abs[a:a + _BLOCK], memory[a:a + _BLOCK]
        np.abs(recon[a:a + _BLOCK], out=p)
        p -= mean
        p /= scale
        p *= beta
        z *= 1.0 - beta
        z += p
        np.multiply(z, sigma, out=p)
        p += mu
        np.maximum(p, 0.0, out=p)
    return pred_abs


def gradient_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine of the angle between two flat gradients."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    if a.size != b.size:
        raise UsageError(f"correlation inputs differ in length: {a.size} vs {b.size}")
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        raise UndefinedCorrelationError("correlation undefined for zero-norm input")
    return float(np.dot(a, b) / (na * nb))


def _consistency(pos: np.ndarray, neg: np.ndarray, t: int) -> np.ndarray:
    """(max(p, n) + z - half) / (t - half), clipped to [0, 1], per kernel of
    t entries with p positive, n negative and z zero ones."""
    half = math.ceil(t / 2)
    if t == half:
        return np.ones(np.shape(pos))
    raw = (np.maximum(pos, neg) + (t - pos - neg) - half) / (t - half)
    return np.clip(raw, 0.0, 1.0)


def sign_consistency(kernel: np.ndarray) -> float:
    """How uniformly a kernel's entries share one sign, in [0, 1].

    Counts positive, negative and zero entries; zeros count toward agreement.
    A single-element kernel is defined as fully consistent.
    """
    k = np.asarray(kernel).reshape(-1)
    if k.size < 1:
        raise UsageError("sign_consistency needs at least one element")
    return float(_consistency((k > 0).sum(), (k < 0).sum(), k.size))


def predict_signs(
    g_curr: GradientTensor, prev_recon: np.ndarray | None, params: PredictParams
) -> tuple[SignTensor, SignBitmap]:
    """Client-side sign prediction for one layer.

    Full-batch mode correlates the current gradient against the previous
    round's float32 reconstruction and either keeps or flips its signs
    wholesale, recording the choice in a single flip bit. Degenerate
    correlations (zero norm) count as "no flip". Mini-batch mode predicts per
    convolution kernel when the kernel's sign consistency reaches tau; other
    layers get no prediction at all. Only full-batch mode reads prev_recon.
    The signs are reconstruct_signs of the bitmap, as the server rebuilds them.
    """
    spec = g_curr.spec
    if params.full_batch:
        if prev_recon is None:
            raise UsageError("full-batch sign prediction needs the previous round")
        try:
            c = gradient_correlation(prev_recon, g_curr.values)
        except UndefinedCorrelationError:
            c = 1.0
        bitmap = SignBitmap(variant=VARIANT_FLIP, flip=c < 0.0)
    elif spec.kind == KIND_CONV4D:
        ksize = spec.kernel_size
        kernels = g_curr.values.reshape(-1, ksize)
        pos, neg = (kernels > 0).sum(axis=1), (kernels < 0).sum(axis=1)
        # A dominant-sign tie carries no direction, so the kernel stays unpredicted.
        level1 = (_consistency(pos, neg, ksize) >= params.tau) & (pos != neg)
        bitmap = SignBitmap(
            variant=VARIANT_KERNEL, kernel_count=spec.kernel_count,
            level1=level1, level2=(pos > neg)[level1],
        )
    else:
        bitmap = SignBitmap()
    return reconstruct_signs(bitmap, prev_recon, spec), bitmap


def reconstruct_signs(bitmap: SignBitmap, prev_recon: np.ndarray | None, spec: LayerSpec) -> SignTensor:
    """Server-side inverse of predict_signs, driven only by the bitmap. A
    flip bitmap keeps or flips the signs of prev_recon, the previous round's
    reconstruction; no other variant reads it. A kernel bitmap that does not
    fit the layer is a caller's error: the blob parser checks wire bitmaps."""
    if bitmap.variant == VARIANT_NONE:
        return SignTensor(np.zeros(spec.numel, dtype=np.int8))
    if bitmap.variant == VARIANT_FLIP:
        if prev_recon is None or prev_recon.size != spec.numel:
            raise IntegrityError("flip-bit bitmap without a matching previous reconstruction")
        values = np.sign(prev_recon).astype(np.int8)
        if bitmap.flip:
            np.negative(values, out=values)
        return SignTensor(values)
    if bitmap.kernel_count != spec.kernel_count:
        raise UsageError(f"bitmap covers {bitmap.kernel_count} kernels, layer has {spec.kernel_count}")
    dominant = np.zeros(spec.kernel_count, dtype=np.int8)
    dominant[bitmap.level1] = np.where(bitmap.level2, 1, -1).astype(np.int8)
    return SignTensor(np.repeat(dominant, spec.kernel_size))


def bitmap_overhead_ratio(
    prediction_ratio: float, bits_per_value: int, kernel_size: int, lossless_ratio: float
) -> float:
    """Bitmap size relative to the raw tensor: (1 + P) / (b * K * R)."""
    if not 0.0 <= prediction_ratio <= 1.0:
        raise UsageError("prediction_ratio must be in [0, 1]")
    if bits_per_value < 1 or kernel_size < 1:
        raise UsageError("bits_per_value and kernel_size must be >= 1")
    if lossless_ratio < 1.0:
        raise UsageError("lossless_ratio must be >= 1")
    return (1.0 + prediction_ratio) / (bits_per_value * kernel_size * lossless_ratio)
