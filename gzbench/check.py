"""Independent output checks and the operation tally.

Bounds are recomputed from the original trace in float64 (``eps * (max -
min)`` per layer and round), never read from the compressed stream. Layers at
or under the lossless threshold must come back bit for bit.
"""

from __future__ import annotations

import numpy as np

from workloads import Workload


class Tally:
    """Attempted and failed operations, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 8:
                self.reasons.append(what)
        return ok


def check_round(w: Workload, original: list[np.ndarray], recon: list[np.ndarray]) -> str | None:
    """First problem found in one round's reconstruction, or None."""
    if len(recon) != len(original):
        return f"{len(recon)} layers reconstructed for {len(original)}"
    for (name, _), lossy, orig, rec in zip(w.layers, w.lossy(), original, recon):
        rec = np.asarray(rec)
        if rec.shape != orig.shape or rec.dtype.itemsize != 4:
            return f"layer {name}: reconstruction shape {rec.shape} dtype {rec.dtype}"
        if not lossy:
            if not np.array_equal(orig.view(np.uint32), rec.view(np.uint32)):
                return f"lossless layer {name} differs from the original"
            continue
        o64 = orig.astype(np.float64)
        delta = w.eb * (float(o64.max()) - float(o64.min()))
        err = np.abs(rec.astype(np.float64) - o64)
        if not np.all(np.isfinite(err)) or float(err.max()) > delta:
            return f"layer {name}: error {float(np.nanmax(err))!r} exceeds bound {delta!r}"
    return None


def check_trace(w: Workload, original, recon) -> str | None:
    if len(recon) != len(original):
        return f"{len(recon)} rounds reconstructed for {len(original)}"
    for t, (o, r) in enumerate(zip(original, recon)):
        problem = check_round(w, o, r)
        if problem:
            return f"round {t + 1}: {problem}"
    return None


def just_past_bound(orig: float, delta: float) -> np.float32:
    """Smallest float32 above ``orig`` whose distance from it exceeds delta."""
    v = np.float32(orig + delta)
    while float(v) - orig <= delta:
        v = np.nextafter(v, np.float32(np.inf))
    return v
