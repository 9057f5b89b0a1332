"""Span recorder and the hook table for the traced run.

Spans are recorded from the benchmark's side only: public library functions
are wrapped at the module attribute their callers look up (``from X import
f`` binds ``f`` in every importing module, so each lookup site is its own
hook). Spans stay in memory as (name, start, end, parent) and are written out
when the run ends. Counters that cost extra work are computed after the
wrapped call returns, inside a ``bench.counters`` span, so the layer's own
span and its parent's self time both exclude them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

LONG_CODE_BITS = 12  # root-table width of the library's Huffman decoder
COUNTER_SPAN = "bench.counters"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.calls: Counter = Counter()          # (phase, span name) -> invocations
        self.counts: defaultdict = defaultdict(float)  # (phase, counter) -> sum

    def phase(self) -> str:
        return self.names[self.stack[0]] if self.stack else ""

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        self.calls[(self.phase() or name, name)] += 1
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def count(self, values: dict) -> None:
        phase = self.phase()
        for key, v in values.items():
            self.counts[(phase, key)] += float(v)

    def self_times(self):
        """Per-span self time and phase (name of the root span)."""
        n = len(self.names)
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.zeros(n)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        root = list(range(n))
        for i, p in enumerate(self.parent):  # parents always precede children
            if p >= 0:
                root[i] = root[p]
        return dur, dur - child, [self.names[r] for r in root]

    def dump(self, path) -> None:
        names = sorted(set(self.names))
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.start[0] if self.start else 0.0
        spans = [[ids[n], round(s - t0, 9), round(e - t0, 9), p]
                 for n, s, e, p in zip(self.names, self.start, self.end, self.parent)]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": names, "spans": spans}, fh, separators=(",", ":"))


# --- counters: (args, kwargs, result) -> {counter: value} --------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _sign_counts(args, kwargs, result):
    g = _arg(args, kwargs, 0, "g_curr").values
    pred = result[0].values
    covered = pred != 0
    return {"sign_covered": int(covered.sum()),
            "sign_hits": int((covered & (pred == np.sign(g))).sum())}


def _bitmap_counts(args, kwargs, result):
    return {"bitmap_bytes": len(result)}


def _stream_counts(args, kwargs, result):
    stream = _arg(args, kwargs, 0, "stream")
    return {"lossy_elements": stream.bins.size, "literals": stream.literals.size}


def _encode_counts(args, kwargs, result):
    bins = np.asarray(_arg(args, kwargs, 0, "bins")).reshape(-1).astype(np.int64)
    if bins.size == 0:
        return {}
    freq = np.bincount(bins - bins.min())
    p = freq[freq > 0] / bins.size
    code_len = result.lengths[bins - result.min_symbol]
    return {"enc_symbols": bins.size, "enc_bits": result.bit_count,
            "enc_entropy_bits": float(-(p * np.log2(p)).sum()) * bins.size,
            "enc_long_codes": int((code_len > LONG_CODE_BITS).sum())}


def _decode_counts(args, kwargs, result):
    return {"dec_symbols": np.asarray(result).size}


def _backend_counts(args, kwargs, result):
    return {"backend_in": len(_arg(args, kwargs, 0, "data")), "backend_out": len(result)}


# (module, attribute path, span name, counter). The CLI and the pipeline look
# up the same functions under their own module names, so both are listed.
HOOKS = [
    ("gradzip.cli", "load_trace", "trace.load_trace", None),
    ("gradzip.cli", "save_trace", "trace.save_trace", None),
    ("gradzip.cli", "compress_round", "pipeline.compress_round", None),
    ("gradzip.cli", "decompress_round", "pipeline.decompress_round", None),
    ("gradzip.cli", "describe_blob", "pipeline.describe_blob", None),
    ("gradzip.cli", "frame_payload", "pipeline.frame_payload", None),
    ("gradzip.cli", "iter_payloads", "pipeline.iter_payloads", None),
    ("gradzip.cli", "layer_stats", "flsim.layer_stats", None),
    ("gradzip.pipeline", "compress_round", "pipeline.compress_round", None),
    ("gradzip.pipeline", "decompress_round", "pipeline.decompress_round", None),
    ("gradzip.pipeline", "SyncState.to_bytes", "pipeline.SyncState.to_bytes", None),
    ("gradzip.pipeline", "predict_magnitude", "predictor.predict_magnitude", None),
    ("gradzip.pipeline", "predict_signs", "predictor.predict_signs", _sign_counts),
    ("gradzip.pipeline", "reconstruct_signs", "predictor.reconstruct_signs", None),
    ("gradzip.pipeline", "encode_bitmap", "predictor.encode_bitmap", _bitmap_counts),
    ("gradzip.pipeline", "decode_bitmap", "predictor.decode_bitmap", None),
    ("gradzip.pipeline", "encode_stream", "codec.encode_stream", _stream_counts),
    ("gradzip.pipeline", "decode_stream", "codec.decode_stream", None),
    ("gradzip.pipeline", "lossless_compress", "codec.lossless_compress", _backend_counts),
    ("gradzip.pipeline", "lossless_decompress", "codec.lossless_decompress", None),
    ("gradzip.codec", "entropy_encode", "codec.entropy_encode", _encode_counts),
    ("gradzip.codec", "entropy_decode", "codec.entropy_decode", _decode_counts),
]

SPAN_NAMES = sorted({name for _, _, name, _ in HOOKS})


def _wrap(tracer: Tracer, name: str, fn, counter):
    if inspect.isgeneratorfunction(fn):
        # The work of a generator happens in next(), so each step is a span.
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            tracer.calls[(tracer.phase(), name)] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = tracer.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.close(idx)
                yield item
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.calls[(tracer.phase(), name)] += 1
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counter is not None:
            cidx = tracer.open(COUNTER_SPAN)
            try:
                tracer.count(counter(args, kwargs, result))
            finally:
                tracer.close(cidx)
        return result
    return wrapper


class Hooks:
    """Installs the hook table; a target that no longer exists is absent."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.installed: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def install(self) -> None:
        for module, path, name, counter in HOOKS:
            try:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{path}")
                continue
            if not callable(original):
                self.absent.append(f"{module}.{path}")
                continue
            setattr(owner, attr, _wrap(self.tracer, name, original, counter))
            self.installed.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()
