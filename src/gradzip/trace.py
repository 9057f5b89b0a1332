"""Gradient traces: domain types, binary trace files, synthetic generation.

A trace is a sequence of training rounds, each holding one float32 gradient
tensor per layer. Traces are either recorded by an external exporter or
synthesized by :func:`synth_rounds`, which reproduces the two regularities the
compressor exploits: slowly decaying, temporally persistent magnitudes, and
kernel-level dominant signs in 4-D convolution layers.

Trace file format (little-endian):

    magic   4 bytes  b"GTRC"
    version u16      currently 1
    mode    u8       0 = mini_batch, 1 = full_batch
    nlayers u32
    per layer:
        name_len u16, name UTF-8 bytes
        naxes    u8
        axes     u32 * naxes
    nrounds u32
    data: nrounds * nlayers arrays of raw little-endian float32 values

:func:`open_trace` reads such a file one round at a time, so a pass over a
trace holds about one round of it; :func:`load_trace` collects its rounds.
:func:`write_trace` writes one from any iterable of rounds, such as
:func:`synth_rounds`, which generates one round per step, so neither holds
more than a round. :func:`synth_trace` collects a whole synthetic trace.
GradientTrace checks no round against its layers: the pipeline does.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, IntegrityError, UsageError

TRACE_MAGIC = b"GTRC"
TRACE_VERSION = 1

KIND_CONV4D = "conv4d"
KIND_OTHER = "other"

MODE_MINI_BATCH = "mini_batch"
MODE_FULL_BATCH = "full_batch"

_MODE_CODES = {MODE_MINI_BATCH: 0, MODE_FULL_BATCH: 1}
_MODE_NAMES = {v: k for k, v in _MODE_CODES.items()}

# Internal constants of the synthetic generator (see synth_rounds).
_LEVEL_BLEND = 0.08
_LEVEL_SPREAD = 0.8


@dataclass(frozen=True)
class LayerSpec:
    """Name and shape of one model layer."""

    name: str
    shape: tuple[int, ...]

    def __post_init__(self):
        shape = tuple(int(d) for d in self.shape)
        object.__setattr__(self, "shape", shape)
        if not self.name:
            raise UsageError("layer name must be non-empty")
        if not 1 <= len(shape) <= 4:
            raise UsageError(f"layer {self.name!r}: shape must have 1-4 axes, got {len(shape)}")
        if any(d <= 0 for d in shape):
            raise UsageError(f"layer {self.name!r}: dimensions must be positive, got {shape}")

    @property
    def kind(self) -> str:
        """``"conv4d"`` exactly when the shape has 4 axes, interpreted as
        [out_channels, in_channels, kernel_h, kernel_w]; ``"other"`` for every
        other rank."""
        return KIND_CONV4D if len(self.shape) == 4 else KIND_OTHER

    @property
    def numel(self) -> int:
        return int(math.prod(self.shape))

    @property
    def kernel_size(self) -> int:
        """Elements per convolution kernel (kernel_h * kernel_w)."""
        if self.kind != KIND_CONV4D:
            raise UsageError(f"layer {self.name!r} is not conv4d")
        return self.shape[2] * self.shape[3]

    @property
    def kernel_count(self) -> int:
        """Number of kernels (out_channels * in_channels)."""
        if self.kind != KIND_CONV4D:
            raise UsageError(f"layer {self.name!r} is not conv4d")
        return self.shape[0] * self.shape[1]


@dataclass
class GradientTensor:
    """One layer's gradient for one round, as a flat row-major float32 array."""

    spec: LayerSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float32)
        if values.ndim != 1:
            values = values.reshape(-1)
        if values.size != self.spec.numel:
            raise IntegrityError(
                f"layer {self.spec.name!r}: {values.size} values for shape {self.spec.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise DataError(f"layer {self.spec.name!r}: non-finite gradient values")
        self.values = values


@dataclass
class GradientTrace:
    """Ordered per-round, per-layer gradient tensors, plus the training mode."""

    layers: list[LayerSpec]
    rounds: list[list[GradientTensor]]
    mode: str = MODE_MINI_BATCH

    def __post_init__(self):
        if self.mode not in _MODE_CODES:
            raise UsageError(f"unknown trace mode {self.mode!r}")
        if not self.layers:
            raise FormatError("trace must declare at least one layer")
        if not self.rounds:
            raise FormatError("trace must contain at least one round")

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)

    def total_bytes(self) -> int:
        """Raw float32 size of the whole trace."""
        return 4 * sum(spec.numel for spec in self.layers) * len(self.rounds)


@dataclass(frozen=True)
class SynthConfig:
    """Parameters of the synthetic trace generator.

    target_sign_consistency only shapes conv4d layers; oscillation_period only
    matters in full_batch mode, where the gradient direction is negated every
    that many rounds.
    """

    seed: int
    layers: tuple[LayerSpec, ...]
    rounds: int
    magnitude_decay: float = 0.99
    noise_level: float = 0.3
    target_sign_consistency: float = 0.8
    oscillation_period: int = 1
    mode: str = MODE_MINI_BATCH

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")
        if not self.layers:
            raise UsageError("SynthConfig needs at least one layer")
        if self.rounds < 1:
            raise UsageError("rounds must be >= 1")
        if not 0.0 < self.magnitude_decay <= 1.0:
            raise UsageError("magnitude_decay must be in (0, 1]")
        if not 0.0 <= self.noise_level < math.inf:
            raise UsageError("noise_level must be finite and >= 0")
        if not 0.0 <= self.target_sign_consistency <= 1.0:
            raise UsageError("target_sign_consistency must be in [0, 1]")
        if self.oscillation_period < 1:
            raise UsageError("oscillation_period must be >= 1")
        if self.mode not in _MODE_CODES:
            raise UsageError(f"unknown trace mode {self.mode!r}")


def abs_stats(values: np.ndarray, out: np.ndarray) -> tuple[float, float]:
    """Mean and population standard deviation of the elementwise magnitudes.

    Built in ``out``, a float64 array of the values' length; the deviation is
    a.std()'s, from the same squared deviations summed the same way.
    """
    a = np.abs(values, out=out, dtype=np.float64)
    mean = float(a.mean())
    a -= mean
    return mean, math.sqrt(float(np.square(a, out=a).sum()) / a.size)


def encode_layer_table(layers: list[LayerSpec]) -> bytes:
    """Binary layer table shared by trace files and payload spec digests."""
    out = bytearray()
    for spec in layers:
        name = spec.name.encode("utf-8")
        if len(name) > 0xFFFF:
            raise FormatError(f"layer name too long: {spec.name!r}")
        out += struct.pack("<H", len(name)) + name
        out += struct.pack("<B", len(spec.shape))
        out += struct.pack(f"<{len(spec.shape)}I", *spec.shape)
    return bytes(out)


class ByteReader:
    """Cursor over a byte buffer that raises the right error on truncation."""

    def __init__(self, data: bytes, truncation_error=FormatError):
        self.data = data
        self.pos = 0
        self._err = truncation_error

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise self._err(f"truncated input: wanted {n} bytes at offset {self.pos}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_bits(self, count: int) -> np.ndarray:
        """The next count bits, packed LSB-first, as bools. The bits that pad
        the last byte must be zero."""
        raw = np.frombuffer(self.take((count + 7) >> 3), dtype=np.uint8)
        if count & 7 and raw[-1] >> (count & 7):
            raise IntegrityError(f"nonzero padding bits after a {count}-bit field")
        return np.unpackbits(raw, count=count, bitorder="little").view(bool)

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos


class FileReader(ByteReader):
    """ByteReader over an open binary file, read as it goes.

    Every read is checked against the bytes left in the file before anything
    is read or allocated for it, so a declared length that runs past the end
    raises FormatError at no cost.
    """

    def __init__(self, fh):
        self.fh = fh
        self.size = os.fstat(fh.fileno()).st_size
        self.pos = fh.tell()
        self._err = FormatError

    def _check(self, n: int) -> None:
        if self.pos + n > self.size:
            raise self._err(f"truncated input: wanted {n} bytes at offset {self.pos}")

    def take(self, n: int) -> bytes:
        self._check(n)
        chunk = self.fh.read(n)
        self._advance(n, len(chunk))
        return chunk

    def readinto(self, buf: np.ndarray) -> None:
        """Fill buf, a contiguous array, with the next buf.nbytes bytes."""
        self._check(buf.nbytes)
        self._advance(buf.nbytes, self.fh.readinto(buf))

    def _advance(self, wanted: int, got: int) -> None:
        if got != wanted:  # the file shrank after it was opened
            raise self._err(f"truncated input: wanted {wanted} bytes at offset {self.pos}")
        self.pos += got

    def reread(self, start: int, stop: int) -> bytes:
        """Bytes [start, stop) of the file, already passed over; the position stays."""
        self.fh.seek(start)
        data = self.fh.read(stop - start)
        self.fh.seek(self.pos)
        return data

    @property
    def remaining(self) -> int:
        return self.size - self.pos


def decode_layer_table(reader: ByteReader, nlayers: int) -> list[LayerSpec]:
    layers = []
    for _ in range(nlayers):
        (name_len,) = reader.unpack("<H")
        try:
            name = reader.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"layer name is not valid UTF-8: {exc}") from exc
        (naxes,) = reader.unpack("<B")
        if not 1 <= naxes <= 4:
            raise FormatError(f"layer {name!r}: axis count {naxes} outside 1-4")
        axes = reader.unpack(f"<{naxes}I")
        try:
            layers.append(LayerSpec(name, axes))
        except UsageError as exc:
            raise FormatError(str(exc)) from exc
    return layers


def encode_header(magic: bytes, version: int, mode: str, layers, nrounds: int) -> bytes:
    """File header shared by trace files and payload streams.

    magic, version u16, mode u8, layer count u32, layer table, rounds u32.
    """
    head = magic + struct.pack("<HBI", version, _MODE_CODES[mode], len(layers))
    return head + encode_layer_table(list(layers)) + struct.pack("<I", nrounds)


def decode_header(reader: ByteReader, magic: bytes, version: int, what: str):
    """Parse and validate what encode_header wrote: (mode, layers, nrounds)."""
    if reader.take(4) != magic:
        raise FormatError(f"{what}: bad magic")
    got_version, mode_code, nlayers = reader.unpack("<HBI")
    if got_version != version:
        raise FormatError(f"{what}: unsupported version {got_version}")
    if mode_code not in _MODE_NAMES:
        raise FormatError(f"{what}: unknown mode code {mode_code}")
    if nlayers == 0:
        raise FormatError(f"{what}: zero layers")
    layers = decode_layer_table(reader, nlayers)
    (nrounds,) = reader.unpack("<I")
    if nrounds == 0:
        raise FormatError(f"{what}: zero rounds")
    return _MODE_NAMES[mode_code], layers, nrounds


def write_trace(path, mode: str, layers: list[LayerSpec], nrounds: int, rounds) -> None:
    """Write a GTRC file from an iterable of nrounds rounds, one round at a
    time. Byte-deterministic for equal rounds."""
    with open(path, "wb") as fh:
        fh.write(encode_header(TRACE_MAGIC, TRACE_VERSION, mode, layers, nrounds))
        for tensors in rounds:
            for tensor in tensors:
                fh.write(tensor.values.astype("<f4", copy=False).data)


@contextlib.contextmanager
def open_trace(path):
    """Open a GTRC trace file to read one round at a time: (mode, layers,
    round count, rounds).

    The header, and the file size against the size it declares, are checked
    before any gradient data is read. Iterating ``rounds`` (once) yields each
    round as a list of GradientTensors: one read into a fresh float32 buffer
    per round, of which each tensor is a view, with every value checked
    finite.
    """
    with open(path, "rb") as fh:
        reader = FileReader(fh)
        mode, layers, nrounds = decode_header(reader, TRACE_MAGIC, TRACE_VERSION, f"{path}: trace file")
        expected = 4 * sum(spec.numel for spec in layers) * nrounds
        if reader.remaining != expected:
            raise IntegrityError(f"{path}: payload holds {reader.remaining} bytes, header declares {expected}")
        yield mode, layers, nrounds, _rounds(reader, layers, nrounds)


def _rounds(reader: FileReader, layers: list[LayerSpec], nrounds: int):
    size = sum(spec.numel for spec in layers)
    for _ in range(nrounds):
        buf = np.empty(size, dtype="<f4")
        reader.readinto(buf)
        tensors, at = [], 0
        for spec in layers:
            tensors.append(GradientTensor(spec, buf[at : at + spec.numel]))
            at += spec.numel
        yield tensors
        # Free this round before the next buffer is allocated, so the
        # allocator can reuse its space instead of growing the heap.
        del buf, tensors


def load_trace(path) -> GradientTrace:
    """Read a whole GTRC trace file, validating structure and value finiteness."""
    with open_trace(path) as (mode, layers, _, rounds):
        return GradientTrace(layers, list(rounds), mode)


def _kernel_flip_probability(target: float, kernel_size: int) -> float:
    # Solve E[(T - F - ceil(T/2)) / (T - ceil(T/2))] = target for the
    # per-element flip count F ~ Binomial(T, p).
    half = math.ceil(kernel_size / 2)
    denom = kernel_size - half
    if denom <= 0:
        return 0.0
    return (1.0 - target) * denom / kernel_size


def _layer_signs(rng: np.random.Generator, spec: LayerSpec, cfg: SynthConfig,
                 dominant: np.ndarray | None) -> np.ndarray:
    if spec.kind == KIND_CONV4D and dominant is not None:
        ksize = spec.kernel_size
        p = _kernel_flip_probability(cfg.target_sign_consistency, ksize)
        flips = rng.random((spec.kernel_count, ksize)) < p
        signs = np.repeat(dominant[:, None], ksize, axis=1)
        signs[flips] *= -1
        return signs.reshape(-1)
    return rng.choice(np.array([-1.0, 1.0]), size=spec.numel)


def synth_rounds(cfg: SynthConfig):
    """Generate a deterministic trace from a SynthConfig, one round per step.

    Per-element magnitude = decay envelope * slowly drifting per-element level
    * |1 + noise_level * white noise|. Signs: conv4d kernels get a dominant
    sign with a flip probability calibrated to target_sign_consistency; other
    layers get i.i.d. signs. In full_batch mode the whole sign pattern is held
    fixed and globally negated every oscillation_period rounds. Yields each
    round as a list of GradientTensors, so a writer holds one round at a time.
    """
    rng = np.random.default_rng(cfg.seed)
    layers = cfg.layers

    levels = [np.exp(rng.normal(0.0, _LEVEL_SPREAD, spec.numel)) for spec in layers]
    dominants = [
        rng.choice(np.array([-1.0, 1.0]), size=spec.kernel_count)
        if spec.kind == KIND_CONV4D
        else None
        for spec in layers
    ]
    fixed_signs = None
    if cfg.mode == MODE_FULL_BATCH:
        fixed_signs = [_layer_signs(rng, spec, cfg, dominants[i]) for i, spec in enumerate(layers)]

    for t in range(1, cfg.rounds + 1):
        envelope = cfg.magnitude_decay ** (t - 1)
        tensors = []
        for i, spec in enumerate(layers):
            levels[i] = (1.0 - _LEVEL_BLEND) * levels[i] + _LEVEL_BLEND * np.exp(
                rng.normal(0.0, _LEVEL_SPREAD, spec.numel)
            )
            noise = np.abs(1.0 + cfg.noise_level * rng.standard_normal(spec.numel))
            magnitude = envelope * levels[i] * noise
            if cfg.mode == MODE_FULL_BATCH:
                direction = -1.0 if ((t - 1) // cfg.oscillation_period) % 2 else 1.0
                signs = fixed_signs[i] * direction
            else:
                signs = _layer_signs(rng, spec, cfg, dominants[i])
            tensors.append(GradientTensor(spec, (magnitude * signs).astype(np.float32)))
        yield tensors


def synth_trace(cfg: SynthConfig) -> GradientTrace:
    """The whole trace synth_rounds generates, in memory."""
    return GradientTrace(list(cfg.layers), list(synth_rounds(cfg)), cfg.mode)
