"""Multi-client round simulation and the analytic communication-time model.

simulate_rounds drives the compression pipeline for several clients in
lock-step, one round of each per step: every client compresses its
gradients, the server decompresses and mirrors the client's state, and the
state-sync and error-bound invariants are asserted before round_report
reports the round, which is yielded as it ends. A client on its own
(client_rounds, behind ``compress``) checks the bounds on its own
reconstruction, which the wire's state digests tie to the server's. Client
and server each hold one predictor state, advanced in place every round.
Transmission is modeled: t_comm = t_comp + 8 * S' / B + t_decomp against
a baseline of 8 * S / B.
"""

from __future__ import annotations

import csv
import math
import time
from collections.abc import Iterable
from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .codec import ErrorBoundConfig
from .errors import IntegrityError, ProtocolError, UsageError
from .pipeline import (
    TAG_LOSSY,
    BlobInfo,
    CompressedPayload,
    PipelineParams,
    SyncState,
    decode_payload,
    encode_round,
    frame_payload,
    parse_payload,
)
from .trace import GradientTensor, GradientTrace, LayerSpec


@dataclass(frozen=True)
class CommModel:
    """Inputs of the transmission-time equations for one update."""

    s_bytes: float
    sprime_bytes: float
    bandwidth_bps: float
    t_comp_s: float
    t_decomp_s: float

    def __post_init__(self):
        if not (0 < self.s_bytes < math.inf and 0 < self.sprime_bytes < math.inf):
            raise UsageError("payload sizes must be positive and finite")
        if not 0 < self.bandwidth_bps < math.inf:
            raise UsageError("bandwidth must be positive and finite")
        if not (0 <= self.t_comp_s < math.inf and 0 <= self.t_decomp_s < math.inf):
            raise UsageError("codec times must be nonnegative and finite")


def comm_times(m: CommModel) -> tuple[float, float, float]:
    """(uncompressed time, compressed time, their ratio) for one update."""
    t_ori = 8.0 * m.s_bytes / m.bandwidth_bps
    t_comm = m.t_comp_s + 8.0 * m.sprime_bytes / m.bandwidth_bps + m.t_decomp_s
    return t_ori, t_comm, t_comm / t_ori


def break_even_bandwidth(s_bytes: float, cr: float, codec_time_s: float) -> float:
    """Bandwidth at which compression stops paying for its own codec time."""
    if s_bytes <= 0:
        raise UsageError("s_bytes must be positive")
    if not 0 < codec_time_s < math.inf:
        raise UsageError("codec_time_s must be positive and finite")
    if cr <= 1.0:
        raise UsageError("no break-even exists when the compression ratio is <= 1")
    return 8.0 * s_bytes * (1.0 - 1.0 / cr) / codec_time_s


@dataclass(frozen=True)
class SimConfig:
    """One trace per client, shared pipeline parameters, optional timing model.

    fixed_times=(t_comp, t_decomp) replaces wall-clock measurement with
    constants, which keeps simulation outputs byte-deterministic. With
    fixed_times=None the codec is timed for real, after one untimed warm-up.
    """

    traces: tuple[GradientTrace, ...]
    params: PipelineParams
    bandwidths_bps: tuple[float, ...] = ()
    rounds: int | None = None
    fixed_times: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        if not self.traces:
            raise UsageError("simulation needs at least one client trace")
        first = self.traces[0].layers
        for i, t in enumerate(self.traces):
            if t.layers != first:
                raise UsageError(f"client {i} trace has a different layer table")


@dataclass
class LayerStats:
    layer: str
    s_bytes: int
    sprime_bytes: int
    cr: float
    max_err: float
    delta: float | None
    bitmap_bytes: int
    lossy: bool


@dataclass
class ClientRoundStats:
    client: int
    s_bytes: int
    sprime_bytes: int
    cr: float
    max_err: float
    bitmap_bytes: int
    t_comp_s: float
    t_decomp_s: float
    layers: list[LayerStats]


@dataclass
class CommRow:
    bandwidth_bps: float
    t_ori_s: float
    t_comm_s: float
    ratio: float


@dataclass
class RoundReport:
    round: int
    clients: list[ClientRoundStats]
    mean_cr: float
    comm: list[CommRow]
    # (pooled CR, break-even bandwidth) when the codec took time and
    # compression won; round_report fills it in.
    break_even: tuple[float, float] | None = None


# Elements check_bounds compares at once; bounds its buffer.
_CHECK_BLOCK = 1 << 16


# inf - inf is NaN, which fails the bound test.
@np.errstate(invalid="ignore")
def check_bounds(
    originals: list[GradientTensor],
    recons: list[GradientTensor],
    payload: CompressedPayload,
    infos: list[BlobInfo],
) -> list[LayerStats]:
    """Per-layer stats for one round, checking every layer against its bound.

    ``infos`` describes the payload's blobs, as decode_payload returns them.
    A lossy layer may be off by at most its wire delta, a lossless layer not
    at all, and a NaN error (a non-finite value on either side) is never in
    bound. A violation raises IntegrityError naming the round, the client and
    the layer. The errors are taken _CHECK_BLOCK elements at a time, in one
    reused buffer.
    """
    stats = []
    for g, recon, info in zip(originals, recons, infos):
        n = g.values.size
        diff = np.empty(min(n, _CHECK_BLOCK))
        worst = np.empty(-(-n // _CHECK_BLOCK))
        for k, a in enumerate(range(0, n, _CHECK_BLOCK)):
            d = diff[: min(n - a, _CHECK_BLOCK)]
            np.subtract(
                recon.values[a:a + _CHECK_BLOCK], g.values[a:a + _CHECK_BLOCK],
                out=d, dtype=np.float64,
            )
            worst[k] = np.abs(d, out=d).max()
        err = float(worst.max())
        lossy = info.tag == TAG_LOSSY
        limit = info.delta if lossy else 0.0
        if not err <= limit:  # NaN fails too
            raise IntegrityError(
                f"error bound violated at round {payload.round}, client "
                f"{payload.client_id}, layer {g.spec.name!r}: {err} > {limit}"
            )
        s = 4 * g.spec.numel
        stats.append(LayerStats(
            layer=g.spec.name,
            s_bytes=s,
            sprime_bytes=info.wire_bytes,
            cr=s / info.wire_bytes,
            max_err=err,
            delta=info.delta if lossy else None,
            bitmap_bytes=info.bitmap_bytes,
            lossy=lossy,
        ))
    return stats


def check_sync(client: SyncState, server: SyncState, payload: CompressedPayload) -> None:
    """Require bitwise-identical client and server state after ``payload``'s
    round; a difference raises ProtocolError naming the round, the client and
    the first layer whose magnitude memory or reconstruction differs."""
    where = f"round {payload.round}, client {payload.client_id}"
    if client.round != server.round:
        raise ProtocolError(f"client/server round counters differ at {where}")
    for spec, c_mem, s_mem, c_rec, s_rec in zip(
        client.layers, client.memory, server.memory, client.prev_recon, server.prev_recon
    ):
        if c_mem.tobytes() != s_mem.tobytes() or c_rec.tobytes() != s_rec.tobytes():
            raise ProtocolError(
                f"client/server state mismatch at {where}, layer {spec.name!r}"
            )


def client_rounds(
    layers: list[LayerSpec],
    rounds: Iterable[list[GradientTensor]],
    params: PipelineParams,
    client_id: int = 0,
    fixed_times: tuple[float, float] | None = None,
):
    """Run one client on its own, one round per step.

    ``rounds`` is read one round per step, so it may be open_trace's. Each
    round the client compresses and frames its payload, and
    check_bounds checks its own reconstruction, which is bitwise the one the
    server will decode: the payload carries a digest of the client's state
    that the server checks. Yields (framed bytes, ClientRoundStats row,
    client state after the round). The row's compress time is measured and
    its decompress time is 0, unless fixed_times gives both.

    The client holds one state, which each round advances in place (see
    pipeline.encode_round): the state it yields, and the reconstructions in
    it, are valid until its next step. A round that raises ends it.
    """
    client = SyncState.initial(layers)
    # Wrapped while the arrays are zeros: a non-finite value a round
    # writes is then check_bounds' to refuse, naming round and layer.
    recons = client.recons
    for tensors in rounds:
        t0 = time.perf_counter()
        payload, infos, client = encode_round(tensors, client, params, client_id)
        t1 = time.perf_counter()
        wire = frame_payload(payload)
        stats = check_bounds(tensors, recons, payload, infos)
        t_comp, t_decomp = (t1 - t0, 0.0) if fixed_times is None else fixed_times
        s_bytes = sum(ls.s_bytes for ls in stats)
        row = ClientRoundStats(
            client_id, s_bytes, len(wire), s_bytes / len(wire), max(ls.max_err for ls in stats),
            sum(ls.bitmap_bytes for ls in stats), t_comp, t_decomp, stats,
        )
        yield wire, row, client
        # Free this round before the next one is read into a fresh buffer
        # (see trace.open_trace).
        del tensors, payload, wire, infos, stats


def verified_rounds(
    layers: list[LayerSpec],
    rounds: Iterable[list[GradientTensor]],
    params: PipelineParams,
    client_id: int = 0,
    fixed_times: tuple[float, float] | None = None,
):
    """Run one client and the server's mirror of it, one round per step.

    Each round client_rounds compresses and frames the payload and checks
    the bounds on the client's reconstruction, the server parses that frame
    and decodes it, and check_sync requires the two states bitwise equal, so
    the client's row holds for the server too. Yields (framed bytes, server
    reconstructions, ClientRoundStats row). The row's codec times are
    measured unless fixed_times gives them.

    Client and server each hold one state, advanced in place every round,
    so the reconstructions it yields are valid until its next step.
    """
    server = SyncState.initial(layers)
    for wire, row, client in client_rounds(layers, rounds, params, client_id, fixed_times):
        parsed = parse_payload(wire)
        t2 = time.perf_counter()
        recons, _, server = decode_payload(parsed, server, params.predict)
        t3 = time.perf_counter()
        check_sync(client, server, parsed)
        if fixed_times is None:
            row = replace(row, t_decomp_s=t3 - t2)
        yield wire, recons, row


def round_report(t: int, client_rows: list[ClientRoundStats], bandwidths_bps=()) -> RoundReport:
    """Round t's report from its client rows: their means, one comm row per
    bandwidth, and the break-even when the codec took time and compression won."""
    mean_s = float(np.mean([c.s_bytes for c in client_rows]))
    mean_sp = float(np.mean([c.sprime_bytes for c in client_rows]))
    mean_tc = float(np.mean([c.t_comp_s for c in client_rows]))
    mean_td = float(np.mean([c.t_decomp_s for c in client_rows]))
    codec_s = float(np.mean([c.t_comp_s + c.t_decomp_s for c in client_rows]))
    cr = mean_s / mean_sp
    if codec_s > 0.0 and cr > 1.0:
        break_even = (cr, break_even_bandwidth(mean_s, cr, codec_s))
    else:
        break_even = None
    comm = []
    for b in bandwidths_bps:
        t_ori, t_comm, ratio = comm_times(CommModel(mean_s, mean_sp, b, mean_tc, mean_td))
        comm.append(CommRow(b, t_ori, t_comm, ratio))
    mean_cr = float(np.mean([c.cr for c in client_rows]))
    return RoundReport(t, client_rows, mean_cr, comm, break_even)


def simulate_rounds(
    layers: list[LayerSpec], sources: list[Iterable[list[GradientTensor]]],
    params: PipelineParams, rounds: int, bandwidths_bps: tuple[float, ...] = (),
    fixed_times: tuple[float, float] | None = None,
):
    """Each round's RoundReport, yielded once every client has run it: one
    verified_rounds per source in lock-step, each source read one round per
    step (open_trace's will do) and cut to ``rounds``. Measured times follow
    an untimed warm-up on the first source's first round. The bandwidths,
    fixed times and ``rounds`` are checked before this returns."""
    if not all(0 < b < math.inf for b in bandwidths_bps):
        raise UsageError("bandwidths must be positive and finite")
    if fixed_times is not None and not all(0 <= t < math.inf for t in fixed_times):
        raise UsageError("fixed codec times must be nonnegative and finite")
    if rounds < 1:
        raise UsageError("rounds must be >= 1")
    sources = [islice(src, rounds) for src in sources]
    if fixed_times is None:
        first = next(sources[0])
        next(verified_rounds(layers, [first], params))
        # An exhausted list iterator lets go of the round it held.
        sources[0] = chain(iter([first]), sources[0])
    drivers = [verified_rounds(layers, s, params, k, fixed_times) for k, s in enumerate(sources)]
    return (
        round_report(t, [row for _, _, row in results], bandwidths_bps)
        for t, results in enumerate(zip(*drivers), 1)
    )


def run_simulation(cfg: SimConfig) -> list[RoundReport]:
    """The reports of simulate_rounds over cfg's traces, for every round they
    all hold up to cfg.rounds. Raises ProtocolError on a client/server state
    mismatch and IntegrityError on an error-bound violation, naming the
    round, client, and layer."""
    available = min(t.num_rounds for t in cfg.traces)
    rounds = available if cfg.rounds is None else min(available, cfg.rounds)
    return list(simulate_rounds(
        cfg.traces[0].layers, [t.rounds for t in cfg.traces], cfg.params, rounds,
        cfg.bandwidths_bps, cfg.fixed_times,
    ))


CSV_COLUMNS = [
    "round", "client", "layer", "S_bytes", "Sprime_bytes", "CR", "max_err",
    "delta", "bitmap_bytes", "t_comp_s", "t_decomp_s", "bandwidth_bps",
    "t_ori_s", "t_comm_s", "ratio",
]


def reports_to_csv(reports: Iterable[RoundReport], fh) -> None:
    """Write the header, then each round's per-layer, per-client and
    per-bandwidth rows as the round arrives, then the break-even rows, to an
    open text file, in one pass over ``reports``. Columns a row does not
    name stay empty."""
    w = csv.DictWriter(fh, CSV_COLUMNS, restval="", lineterminator="\n")
    w.writeheader()
    marks = []

    def row(rnd, client, layer, **cols):
        w.writerow({"round": rnd, "client": client, "layer": layer, **cols})

    for rep in reports:
        for c in rep.clients:
            for ls in c.layers:
                row(rep.round, c.client, ls.layer, S_bytes=ls.s_bytes,
                    Sprime_bytes=ls.sprime_bytes, CR=f"{ls.cr:.6g}",
                    max_err=f"{ls.max_err:.9g}",
                    delta="" if ls.delta is None else f"{ls.delta:.9g}",
                    bitmap_bytes=ls.bitmap_bytes)
            row(rep.round, c.client, "total", S_bytes=c.s_bytes,
                Sprime_bytes=c.sprime_bytes, CR=f"{c.cr:.6g}",
                max_err=f"{c.max_err:.9g}", bitmap_bytes=c.bitmap_bytes,
                t_comp_s=f"{c.t_comp_s:.9g}", t_decomp_s=f"{c.t_decomp_s:.9g}")
        for comm in rep.comm:
            row(rep.round, "all", "all", CR=f"{rep.mean_cr:.6g}",
                bandwidth_bps=f"{comm.bandwidth_bps:.6g}", t_ori_s=f"{comm.t_ori_s:.9g}",
                t_comm_s=f"{comm.t_comm_s:.9g}", ratio=f"{comm.ratio:.9g}")
        if rep.break_even is not None:
            marks.append((rep.round, *rep.break_even))
    # The break-even bandwidth goes in the bandwidth_bps column.
    for rnd, cr, bstar in marks:
        row(rnd, "all", "break_even", CR=f"{cr:.6g}", bandwidth_bps=f"{bstar:.6g}")


@dataclass
class ModeComparison:
    eb_mode: str
    eb_value: float
    cr_on: float
    cr_off: float
    gain: float  # cr_on / cr_off


def _whole_trace_cr(reports: list[RoundReport]) -> float:
    s = sum(c.s_bytes for rep in reports for c in rep.clients)
    sp = sum(c.sprime_bytes for rep in reports for c in rep.clients)
    return s / sp


def compare_modes(
    cfg: SimConfig, bounds: list[ErrorBoundConfig] | None = None
) -> list[ModeComparison]:
    """Whole-trace compression ratios with prediction on vs off, per bound."""
    bounds = bounds or [cfg.params.bound]
    rows = []
    for bound in bounds:
        params_on = replace(cfg.params, bound=bound, prediction_enabled=True)
        params_off = replace(cfg.params, bound=bound, prediction_enabled=False)
        cr_on = _whole_trace_cr(run_simulation(replace(cfg, params=params_on)))
        cr_off = _whole_trace_cr(run_simulation(replace(cfg, params=params_off)))
        rows.append(ModeComparison(bound.mode, bound.value, cr_on, cr_off, cr_on / cr_off))
    return rows
