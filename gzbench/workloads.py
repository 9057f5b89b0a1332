"""Benchmark workloads and their seeded trace generator.

The generator writes GTRC v1 trace bytes itself instead of calling
``gradzip.synth_trace``, so a change to the library's generator cannot change
the benchmark's inputs. It models the two regularities the codec exploits:
per-element magnitudes that decay and drift slowly across rounds, and
convolution kernels whose entries mostly share one dominant sign. Full-batch
traces hold one sign pattern fixed and negate it every ``oscillation`` rounds.

GTRC v1 (little-endian): magic ``GTRC``, version u16 = 1, mode u8
(0 mini-batch, 1 full-batch), layer count u32, per layer (name length u16,
UTF-8 name, axis count u8, axes u32 each), round count u32, then every
round's layers as raw float32 values.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

MINI_BATCH = 0
FULL_BATCH = 1

# Layers with at most this many elements take the lossless path. The
# benchmark passes it to the CLI explicitly so the workload does not follow a
# change of the CLI default.
LOSSY_THRESHOLD = 1024

_LEVEL_SPREAD = 0.8
_LEVEL_BLEND = 0.08
_NOISE = 0.3
_DECAY = 0.99
_KERNEL_CONSISTENCY = 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: tuple[tuple[str, tuple[int, ...]], ...]
    mode: int
    eb: float
    oscillation: int
    cli_rounds: int
    lib_rounds: int

    @property
    def numel(self) -> int:
        return sum(math.prod(shape) for _, shape in self.layers)

    @property
    def round_bytes(self) -> int:
        return 4 * self.numel

    def cli_flags(self) -> list[str]:
        return ["--eb-mode", "rel", "--eb", repr(self.eb), "--t-lossy", str(LOSSY_THRESHOLD)]

    def lossy(self) -> list[bool]:
        return [math.prod(shape) > LOSSY_THRESHOLD for _, shape in self.layers]


def _conv_minibatch() -> Workload:
    layers = []
    for i, (cout, cin) in enumerate([(64, 32), (64, 64), (128, 64), (128, 128), (256, 128), (256, 256)]):
        layers.append((f"conv{i}", (cout, cin, 3, 3)))
        layers.append((f"bn{i}", (cout,)))
    return Workload(
        name="conv-minibatch",
        why="ResNet-like conv stack at rel 1e-2: kernel sign prediction is active and "
            "almost every element goes through Huffman, so entropy decode dominates",
        layers=tuple(layers), mode=MINI_BATCH, eb=1e-2, oscillation=1,
        cli_rounds=2, lib_rounds=30,
    )


def _small_layers_fullbatch() -> Workload:
    # 200 vectors under the lossless threshold with sizes cycling 256..832,
    # fixed for every seed so that per-layer fixed costs do not vary with it.
    layers = [(f"norm{i:03d}", (256 + 64 * (i % 10),)) for i in range(200)]
    layers += [(f"fc{i}", (64, 48)) for i in range(8)]
    return Workload(
        name="small-layers-fullbatch",
        why="208 small layers in full-batch mode: per-layer fixed costs (zlib calls, "
            "framing, Python loops, describe_blob) dominate and Huffman is a minor share",
        layers=tuple(layers), mode=FULL_BATCH, eb=1e-2, oscillation=3,
        cli_rounds=12, lib_rounds=60,
    )


def _fc_tight_bound() -> Workload:
    return Workload(
        name="fc-tight-bound",
        why="fc layers at rel 1e-4 in mini-batch mode: no sign prediction, a 5001-symbol "
            "alphabet and codes longer than the decoder's 12-bit root table",
        layers=(("fc0", (1024, 512)), ("fc1", (512, 256)), ("bias0", (512,))),
        mode=MINI_BATCH, eb=1e-4, oscillation=1,
        cli_rounds=2, lib_rounds=30,
    )


WORKLOADS = {w.name: w for w in (_conv_minibatch(), _small_layers_fullbatch(), _fc_tight_bound())}


def _flip_probability(kernel_size: int) -> float:
    # Per-element flip probability whose expected kernel sign consistency
    # (as the codec defines it) equals _KERNEL_CONSISTENCY.
    half = math.ceil(kernel_size / 2)
    return (1.0 - _KERNEL_CONSISTENCY) * (kernel_size - half) / kernel_size


class _LayerGen:
    """Per-layer generator state; each layer draws from its own stream."""

    def __init__(self, seed: int, index: int, shape: tuple[int, ...], mode: int):
        self.rng = np.random.default_rng([seed, index])
        self.shape = shape
        self.numel = math.prod(shape)
        self.mode = mode
        self.level = np.exp(self.rng.normal(0.0, _LEVEL_SPREAD, self.numel))
        self.scale = 10.0 ** self.rng.uniform(-4.0, -2.0)
        self.kernel = len(shape) == 4
        if self.kernel:
            ksize = shape[2] * shape[3]
            self.dominant = self.rng.choice(np.array([-1.0, 1.0]), size=(self.numel // ksize, 1))
            self.flip_p = _flip_probability(ksize)
        self.fixed = self._signs() if mode == FULL_BATCH else None

    def _signs(self) -> np.ndarray:
        if self.kernel:
            flips = self.rng.random((self.dominant.shape[0], self.numel // self.dominant.shape[0]))
            return np.where(flips < self.flip_p, -self.dominant, self.dominant).reshape(-1)
        return np.where(self.rng.random(self.numel) < 0.5, -1.0, 1.0)

    def next_round(self, t: int, oscillation: int) -> np.ndarray:
        self.level = (1.0 - _LEVEL_BLEND) * self.level + _LEVEL_BLEND * np.exp(
            self.rng.normal(0.0, _LEVEL_SPREAD, self.numel))
        noise = np.abs(1.0 + _NOISE * self.rng.standard_normal(self.numel))
        magnitude = self.scale * _DECAY ** t * self.level * noise
        if self.fixed is not None:
            signs = -self.fixed if (t // oscillation) % 2 else self.fixed
        else:
            signs = self._signs()
        return (magnitude * signs).astype("<f4")


def trace_header(w: Workload, rounds: int) -> bytes:
    head = bytearray(b"GTRC")
    head += struct.pack("<HBI", 1, w.mode, len(w.layers))
    for name, shape in w.layers:
        raw = name.encode("utf-8")
        head += struct.pack("<H", len(raw)) + raw
        head += struct.pack(f"<B{len(shape)}I", len(shape), *shape)
    head += struct.pack("<I", rounds)
    return bytes(head)


def generate(w: Workload, seed: int) -> list[list[np.ndarray]]:
    """``w.lib_rounds`` rounds of float32 per-layer arrays for one seed."""
    gens = [_LayerGen(seed, i, shape, w.mode) for i, (_, shape) in enumerate(w.layers)]
    return [[g.next_round(t, w.oscillation) for g in gens] for t in range(w.lib_rounds)]


def trace_bytes(w: Workload, rounds: list[list[np.ndarray]]) -> bytes:
    return trace_header(w, len(rounds)) + b"".join(a.tobytes() for r in rounds for a in r)


def sha256_of_rounds(w: Workload, rounds: list[list[np.ndarray]]) -> str:
    h = hashlib.sha256(trace_header(w, len(rounds)))
    for r in rounds:
        for a in r:
            h.update(a.data)
    return h.hexdigest()


def read_trace(data: bytes, w: Workload) -> list[list[np.ndarray]]:
    """Parse GTRC v1 bytes that must carry ``w``'s layer table.

    Raises ValueError on any mismatch; this is the checker's own reader and
    shares no code with the library's.
    """
    if data[:4] != b"GTRC":
        raise ValueError("bad trace magic")
    version, mode, nlayers = struct.unpack_from("<HBI", data, 4)
    if (version, mode, nlayers) != (1, w.mode, len(w.layers)):
        raise ValueError(f"trace header {(version, mode, nlayers)} does not match the workload")
    nrounds = struct.unpack_from("<I", data, len(trace_header(w, 0)) - 4)[0]
    head = trace_header(w, nrounds)
    if data[:len(head)] != head:
        raise ValueError("trace layer table does not match the workload")
    if len(data) != len(head) + nrounds * w.round_bytes:
        raise ValueError(f"trace holds {len(data) - len(head)} data bytes for {nrounds} rounds")
    flat = np.frombuffer(data, dtype="<f4", offset=len(head))
    sizes = [math.prod(shape) for _, shape in w.layers]
    bounds = np.cumsum([0] + sizes * nrounds)
    out = []
    for r in range(nrounds):
        base = r * len(sizes)
        out.append([flat[bounds[base + i]:bounds[base + i + 1]] for i in range(len(sizes))])
    return out
