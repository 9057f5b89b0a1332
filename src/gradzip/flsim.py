"""Multi-client round simulation and the analytic communication-time model.

The simulator drives the compression pipeline for several clients in
lock-step: each round every client compresses its gradients, the server
decompresses and mirrors the client's state, reconstructions are averaged
FedAvg-style, and the state-sync and error-bound invariants are asserted
before the round is reported. Transmission itself is modeled analytically:
t_comm = t_comp + 8 * S' / B + t_decomp against a baseline of 8 * S / B.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .codec import ErrorBoundConfig
from .errors import IntegrityError, ProtocolError, UsageError
from .pipeline import (
    TAG_LOSSY,
    BlobInfo,
    CompressedPayload,
    PipelineParams,
    SyncState,
    compress_round,
    decode_payload,
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
        if self.s_bytes <= 0 or self.sprime_bytes <= 0:
            raise UsageError("payload sizes must be positive")
        if self.bandwidth_bps <= 0:
            raise UsageError("bandwidth must be positive")
        if self.t_comp_s < 0 or self.t_decomp_s < 0:
            raise UsageError("codec times must be nonnegative")


def comm_times(m: CommModel) -> tuple[float, float, float]:
    """(uncompressed time, compressed time, their ratio) for one update."""
    t_ori = 8.0 * m.s_bytes / m.bandwidth_bps
    t_comm = m.t_comp_s + 8.0 * m.sprime_bytes / m.bandwidth_bps + m.t_decomp_s
    return t_ori, t_comm, t_comm / t_ori


def break_even_bandwidth(s_bytes: float, cr: float, codec_time_s: float) -> float:
    """Bandwidth at which compression stops paying for its own codec time."""
    if s_bytes <= 0:
        raise UsageError("s_bytes must be positive")
    if codec_time_s <= 0:
        raise UsageError("codec_time_s must be positive")
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
        object.__setattr__(self, "bandwidths_bps", tuple(float(b) for b in self.bandwidths_bps))
        if not self.traces:
            raise UsageError("simulation needs at least one client trace")
        first = self.traces[0].layers
        for i, t in enumerate(self.traces):
            if t.layers != first:
                raise UsageError(f"client {i} trace has a different layer table")
        if any(b <= 0 for b in self.bandwidths_bps):
            raise UsageError("bandwidths must be positive")
        if self.rounds is not None and self.rounds < 1:
            raise UsageError("rounds must be >= 1")

    @property
    def num_rounds(self) -> int:
        available = min(t.num_rounds for t in self.traces)
        return min(available, self.rounds) if self.rounds else available


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
    aggregate: list[np.ndarray] = field(default_factory=list, repr=False)


def fedavg_mean(per_client: list[list[GradientTensor]]) -> list[np.ndarray]:
    """Uniform elementwise mean of reconstructions across clients, in float64."""
    if not per_client:
        raise UsageError("nothing to aggregate")
    nlayers = len(per_client[0])
    out = []
    for i in range(nlayers):
        stack = np.stack([c[i].values.astype(np.float64) for c in per_client])
        out.append(stack.mean(axis=0))
    return out


def check_bounds(
    originals: list[GradientTensor],
    recons: list[GradientTensor],
    payload: CompressedPayload,
    infos: list[BlobInfo],
) -> list[LayerStats]:
    """Per-layer stats for one round, checking every layer against its bound.

    ``infos`` describes the payload's blobs, as decode_payload returns them.
    A lossy layer may be off by at most its wire delta, a lossless layer not
    at all. A violation raises IntegrityError naming the round, the client and
    the layer.
    """
    stats = []
    for g, recon, info in zip(originals, recons, infos):
        err = float(np.abs(recon.values.astype(np.float64) - g.values.astype(np.float64)).max())
        lossy = info.tag == TAG_LOSSY
        limit = info.delta if lossy else 0.0
        if err > limit:
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


def verify_round(
    originals: list[GradientTensor],
    recons: list[GradientTensor],
    payload: CompressedPayload,
    infos: list[BlobInfo],
    framed_bytes: int,
    client: SyncState,
    server: SyncState,
    times: tuple[float, float],
) -> ClientRoundStats:
    """Check one round's two promises and summarize it as a report row.

    Client and server must end the round with bitwise-identical predictor
    state: a difference raises ProtocolError naming the round, the client and
    the first layer whose magnitude memory or reconstruction differs. Every
    reconstruction must stay within the bound of its blob in ``infos`` (see
    check_bounds). ``times`` is the (compress, decompress) time recorded in
    the row.
    """
    where = f"round {payload.round}, client {payload.client_id}"
    if client.round != server.round:
        raise ProtocolError(f"client/server round counters differ at {where}")
    for spec, c_mag, s_mag, c_rec, s_rec in zip(
        client.layers, client.mag, server.mag, client.prev_recon, server.prev_recon
    ):
        if c_mag.to_bytes() != s_mag.to_bytes() or c_rec.tobytes() != s_rec.tobytes():
            raise ProtocolError(
                f"client/server state mismatch at {where}, layer {spec.name!r}"
            )
    stats = check_bounds(originals, recons, payload, infos)
    s_bytes = sum(ls.s_bytes for ls in stats)
    return ClientRoundStats(
        client=payload.client_id,
        s_bytes=s_bytes,
        sprime_bytes=framed_bytes,
        cr=s_bytes / framed_bytes,
        max_err=max(ls.max_err for ls in stats),
        bitmap_bytes=sum(ls.bitmap_bytes for ls in stats),
        t_comp_s=times[0],
        t_decomp_s=times[1],
        layers=stats,
    )


def verified_rounds(
    layers: list[LayerSpec],
    rounds: list[list[GradientTensor]],
    params: PipelineParams,
    client_id: int = 0,
    fixed_times: tuple[float, float] | None = None,
):
    """Run one client and the server's mirror of it, one round per step.

    Each round the client compresses and frames its payload, the server
    parses that frame and decodes it, and verify_round checks the round.
    Yields (framed bytes, server reconstructions, ClientRoundStats row). The
    row's codec times are measured unless fixed_times gives them.
    """
    client = SyncState.initial(layers)
    server = SyncState.initial(layers)
    for tensors in rounds:
        t0 = time.perf_counter()
        payload, client = compress_round(tensors, client, params, client_id=client_id)
        t1 = time.perf_counter()
        wire = frame_payload(payload)
        parsed = parse_payload(wire)
        t2 = time.perf_counter()
        recons, infos, server = decode_payload(parsed, server, params.predict)
        t3 = time.perf_counter()
        times = (t1 - t0, t3 - t2) if fixed_times is None else fixed_times
        row = verify_round(tensors, recons, parsed, infos, len(wire), client, server, times)
        yield wire, recons, row


def run_simulation(cfg: SimConfig) -> list[RoundReport]:
    """Drive all clients and the server for every round; verify as we go.

    Raises ProtocolError on a client/server state mismatch and IntegrityError
    on an error-bound violation, naming the round, client, and layer.
    """
    layers = cfg.traces[0].layers
    if cfg.fixed_times is None:
        # Warm-up: one untimed first round on scratch states.
        next(verified_rounds(layers, cfg.traces[0].rounds[:1], cfg.params))
    drivers = [
        verified_rounds(layers, trace.rounds[:cfg.num_rounds], cfg.params, k, cfg.fixed_times)
        for k, trace in enumerate(cfg.traces)
    ]
    reports = []
    for t, results in enumerate(zip(*drivers)):
        client_stats = [row for _, _, row in results]
        aggregate = fedavg_mean([recons for _, recons, _ in results])
        mean_s = float(np.mean([c.s_bytes for c in client_stats]))
        mean_sp = float(np.mean([c.sprime_bytes for c in client_stats]))
        mean_tc = float(np.mean([c.t_comp_s for c in client_stats]))
        mean_td = float(np.mean([c.t_decomp_s for c in client_stats]))
        comm = []
        for b in cfg.bandwidths_bps:
            t_ori, t_comm, ratio = comm_times(
                CommModel(mean_s, mean_sp, b, mean_tc, mean_td)
            )
            comm.append(CommRow(b, t_ori, t_comm, ratio))
        reports.append(RoundReport(
            round=t + 1,
            clients=client_stats,
            mean_cr=float(np.mean([c.cr for c in client_stats])),
            comm=comm,
            aggregate=aggregate,
        ))
    return reports


CSV_COLUMNS = [
    "round", "client", "layer", "S_bytes", "Sprime_bytes", "CR", "max_err",
    "delta", "bitmap_bytes", "t_comp_s", "t_decomp_s", "bandwidth_bps",
    "t_ori_s", "t_comm_s", "ratio",
]


def reports_to_csv(reports: list[RoundReport], fh) -> None:
    """Write per-layer, per-client, and per-bandwidth aggregate rows to an
    open text file."""
    w = csv.writer(fh, lineterminator="\n")
    w.writerow(CSV_COLUMNS)
    for rep in reports:
        for c in rep.clients:
            for ls in c.layers:
                w.writerow([
                    rep.round, c.client, ls.layer, ls.s_bytes, ls.sprime_bytes,
                    f"{ls.cr:.6g}", f"{ls.max_err:.9g}",
                    "" if ls.delta is None else f"{ls.delta:.9g}",
                    ls.bitmap_bytes, "", "", "", "", "", "",
                ])
            w.writerow([
                rep.round, c.client, "total", c.s_bytes, c.sprime_bytes,
                f"{c.cr:.6g}", f"{c.max_err:.9g}", "", c.bitmap_bytes,
                f"{c.t_comp_s:.9g}", f"{c.t_decomp_s:.9g}", "", "", "", "",
            ])
        for row in rep.comm:
            w.writerow([
                rep.round, "all", "all", "", "", f"{rep.mean_cr:.6g}", "", "",
                "", "", "", f"{row.bandwidth_bps:.6g}",
                f"{row.t_ori_s:.9g}", f"{row.t_comm_s:.9g}", f"{row.ratio:.9g}",
            ])


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
