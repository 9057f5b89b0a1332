"""Command-line front end: compress, decompress, simulate, synth, inspect, bench.

Payload stream files written by ``compress`` start with a small header
(magic ``GZPS``, version 3, training mode, layer table, round count,
predictor parameters beta f64, tau f64 and full_batch u8, then an 8-byte
blake2b digest of all of these) followed by one framed payload per round.
The header makes ``decompress`` and ``inspect`` self contained; the frames
are exactly what a federated client would put on the wire. ``compress``
writes them straight from the client and decodes nothing: the wire checks
itself (see pipeline), and ``decompress --reference`` checks the result
against the original trace.

``compress``, ``decompress`` and ``inspect`` stream: they read, code and
write one round at a time, so their memory is about one round plus one
predictor state, whatever the number of rounds: every round advances
that state in place (see pipeline), and ``compress`` writes each round's
CSV rows as the round comes. The two readers walk the frames once to check
them, then read each checked frame by its byte range. ``synth`` generates
and writes one round at a time too, and ``simulate`` reads one round of
each client's trace per step and writes that round's CSV rows before it
reads the next.

Exit codes: 0 success, 1 usage error or out of memory, 2 malformed file or
frame, 3 integrity, data, or protocol violation. All output files are written
atomically (temp file plus rename), so a failed run leaves no output file;
under ``decompress --reference`` that includes a bound violation. Without
``--csv``, ``simulate`` writes to stdout as each round finishes. Every
command except ``bench`` is deterministic: identical invocations produce
byte-identical artifacts.
"""

import argparse
import contextlib
import csv
import functools
import os
import struct
import sys
import tempfile
import time
from hashlib import blake2b

import numpy as np

from .codec import (
    BACKEND_DEFAULT,
    BACKEND_STORE,
    MODE_ABSOLUTE,
    MODE_RELATIVE,
    ErrorBoundConfig,
    entropy_decode,
    entropy_encode,
)
from .errors import (
    FormatError,
    GradzipError,
    IntegrityError,
    ProtocolError,
    UsageError,
)
from .flsim import (
    check_bounds,
    client_rounds,
    reports_to_csv,
    round_report,
    simulate_rounds,
)
from .pipeline import (
    DEFAULT_LOSSY_THRESHOLD,
    TAG_LOSSY,
    PipelineParams,
    SyncState,
    check_payload,
    decode_payload,
    describe_payload,
    iter_payloads,
    parse_payload,
)
from .predictor import PredictParams
from .trace import (
    MODE_FULL_BATCH,
    MODE_MINI_BATCH,
    FileReader,
    LayerSpec,
    SynthConfig,
    decode_header,
    encode_header,
    open_trace,
    synth_rounds,
    write_trace,
)

STREAM_MAGIC = b"GZPS"
STREAM_VERSION = 3
_STREAM_PARAMS = "<ddB"  # beta, tau, full_batch


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; 2 is reserved for format
    errors here, so flag problems are rethrown as usage errors instead."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# small helpers

@contextlib.contextmanager
def _atomic_path(path):
    """Yield a temp file beside path, renamed into place when the block
    ends without an error and removed when it raises."""
    target = os.fspath(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".gradzip-")
    os.close(fd)
    try:
        yield tmp
        # mkstemp files come out 0600; give them the mode a plain open() would.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _text_output(path):
    """An open text file written atomically to path, or stdout without one."""
    if not path:
        yield sys.stdout
        return
    with _atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8", newline="") as fh:
        yield fh


def _check_paths(inputs, outputs) -> None:
    """Refuse output paths that name an input or each other (None: not given)."""
    outs = [os.path.realpath(p) for p in outputs if p]
    if len(set(outs)) < len(outs) or set(outs) & {os.path.realpath(p) for p in inputs if p}:
        raise UsageError("an output path names an input or another output")


def _parse_layers(text: str) -> list[LayerSpec]:
    """Turn "conv1:32x16x3x3,fc:256x128" into layer specs."""
    specs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, dims = part.partition(":")
        if not dims:
            raise UsageError(f"layer {part!r} must look like name:DIMxDIMx...")
        try:
            shape = tuple(int(d) for d in dims.split("x"))
        except ValueError:
            raise UsageError(f"layer {part!r} has a non-integer dimension") from None
        specs.append(LayerSpec(name.strip(), shape))
    if not specs:
        raise UsageError("no layers given")
    return specs


def _parse_bandwidths(text: str) -> tuple[float, ...]:
    """Comma-separated Mbit/s values, returned in bits per second."""
    try:
        values = tuple(float(v) * 1e6 for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"bad bandwidth list {text!r}") from None
    if not values:
        raise UsageError("bandwidth list is empty")
    return values


def _params_from_args(args, trace_mode: str) -> PipelineParams:
    bound = ErrorBoundConfig(
        MODE_ABSOLUTE if args.eb_mode == "abs" else MODE_RELATIVE, args.eb
    )
    if args.prediction == "on":
        predict = PredictParams(
            beta=args.beta,
            tau=args.tau,
            full_batch=trace_mode == MODE_FULL_BATCH,
        )
    else:
        # Predictor tuning flags are never consulted with prediction off, so
        # they are accepted unchecked (e.g. --tau 1.01 as a "never" marker).
        predict = PredictParams()
    return PipelineParams(
        predict=predict,
        bound=bound,
        lossy_threshold=args.t_lossy,
        backend=args.backend,
        prediction_enabled=args.prediction == "on",
    )


def _stream_header(mode: str, layers: list[LayerSpec], nrounds: int, predict: PredictParams) -> bytes:
    head = encode_header(STREAM_MAGIC, STREAM_VERSION, mode, layers, nrounds)
    head += struct.pack(_STREAM_PARAMS, predict.beta, predict.tau, predict.full_batch)
    return head + blake2b(head, digest_size=8).digest()


@contextlib.contextmanager
def _open_stream(path):
    """Open a stream file: ((mode, predictor parameters), layers, declared
    round count, (payload, frame size) pairs), with the header digest checked.

    The digest is checked before anything is sized from the layer table.
    Then one walk reads every frame whole and checks their framing, the
    declared round count, and each frame's check_payload and round number,
    in that order, decoding no blob, so a fault anywhere in the file is
    found before the first decode. Each checked frame is then read again by
    its byte range as it is iterated: a file changed since fails that read
    or the frame's checks.
    """
    with open(path, "rb") as fh:
        reader = FileReader(fh)
        mode, layers, nrounds = decode_header(reader, STREAM_MAGIC, STREAM_VERSION, "payload stream")
        beta, tau, full_batch = reader.unpack(_STREAM_PARAMS)
        head = reader.reread(0, reader.pos)
        if reader.take(8) != blake2b(head, digest_size=8).digest():
            raise IntegrityError("payload stream: header digest mismatch")
        if full_batch > 1:
            raise FormatError(f"payload stream: full_batch byte must be 0 or 1, got {full_batch}")
        try:
            predict = PredictParams(beta, tau, bool(full_batch))
        except UsageError as exc:
            raise FormatError(f"payload stream: {exc}") from exc
        ranges = _check_frames(reader, layers, nrounds)
        frames = ((parse_payload(reader.reread(a, b)), b - a) for a, b in ranges)
        yield (mode, predict), layers, nrounds, frames


def _check_frames(reader: FileReader, layers: list[LayerSpec], nrounds: int) -> list:
    """Read and check every frame, decoding no blob; returns the frames'
    (start, stop) byte ranges."""
    ranges, fault, start = [], None, reader.pos
    for count, payload in enumerate(iter_payloads(reader), 1):
        ranges.append((start, reader.pos))
        start = reader.pos
        if fault is None:
            try:
                check_payload(payload, layers)
                if payload.round != count:
                    raise ProtocolError(f"payload is round {payload.round}, stream expects {count}")
            except GradzipError as exc:
                fault = exc
    if len(ranges) != nrounds:
        raise IntegrityError(f"stream declares {nrounds} rounds but contains {len(ranges)}")
    if fault is not None:
        raise fault
    return ranges


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> int:
    cfg = SynthConfig(
        seed=args.seed,
        layers=tuple(_parse_layers(args.layers)),
        rounds=args.rounds,
        magnitude_decay=args.decay,
        noise_level=args.noise,
        target_sign_consistency=args.consistency,
        oscillation_period=args.oscillation,
        mode=MODE_FULL_BATCH if args.full_batch else MODE_MINI_BATCH,
    )
    with _atomic_path(args.output) as tmp:
        write_trace(tmp, cfg.mode, cfg.layers, cfg.rounds, synth_rounds(cfg))
    nbytes = 4 * sum(spec.numel for spec in cfg.layers) * cfg.rounds
    print(f"wrote {cfg.rounds}-round trace, {nbytes} gradient bytes", file=sys.stderr)
    return 0


def cmd_compress(args) -> int:
    csv_path = args.csv or os.fspath(args.output) + ".csv"
    _check_paths([args.input], [args.output, csv_path])
    with contextlib.ExitStack() as stack:
        mode, layers, nrounds, rounds = stack.enter_context(open_trace(args.input))
        params = _params_from_args(args, mode)
        # Entered after the CSV's, the stream's temp file is renamed first.
        csv_fh = stack.enter_context(_text_output(csv_path))
        stream_tmp = stack.enter_context(_atomic_path(args.output))
        with open(stream_tmp, "wb") as fh:
            head = _stream_header(mode, layers, nrounds, params.predict)
            fh.write(head)

            def reports():
                coded = client_rounds(layers, rounds, params, fixed_times=(0.0, 0.0))
                for t, (wire, row, _) in enumerate(coded, 1):
                    fh.write(wire)
                    yield round_report(t, [row])

            reports_to_csv(reports(), csv_fh)
            sp_total = fh.tell() - len(head)
    s_total = 4 * sum(spec.numel for spec in layers) * nrounds
    print(
        f"compressed {nrounds} rounds: {s_total} -> {sp_total} bytes "
        f"(ratio {s_total / sp_total:.3f})",
        file=sys.stderr,
    )
    return 0


def cmd_decompress(args) -> int:
    _check_paths([args.input, args.reference], [args.output])
    with contextlib.ExitStack() as stack:
        (mode, predict), layers, nrounds, frames = stack.enter_context(_open_stream(args.input))
        originals = None
        if args.reference:
            _, ref_layers, ref_rounds, originals = stack.enter_context(open_trace(args.reference))
            if ref_layers != layers:
                raise UsageError("reference trace has a different layer table")
            if ref_rounds != nrounds:
                raise UsageError(f"reference has {ref_rounds} rounds, stream has {nrounds}")
        lossy = []

        def rounds():
            # Each round is decoded over the state, whose reconstructions
            # are written out before the next round is.
            server = SyncState.initial(layers)
            for payload, _ in frames:
                recons, infos, server = decode_payload(payload, server, predict)
                if originals is not None:
                    stats = check_bounds(next(originals), recons, payload, infos)
                    lossy.extend(ls for ls in stats if ls.lossy)
                yield recons

        with _atomic_path(args.output) as tmp:
            write_trace(tmp, mode, layers, nrounds, rounds())
    if args.reference:
        worst = max((ls.max_err for ls in lossy), default=0.0)
        worst_frac = max((ls.max_err / ls.delta for ls in lossy), default=0.0)
        print(
            f"bound OK: {nrounds} rounds verified, worst error {worst:.6g} "
            f"({100.0 * worst_frac:.1f}% of its bound)"
        )
    else:
        print(f"wrote {nrounds} reconstructed rounds", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    _check_paths(args.traces, [args.csv])
    with contextlib.ExitStack() as stack:
        traces = [stack.enter_context(open_trace(p)) for p in args.traces]
        if len({mode for mode, _, _, _ in traces}) > 1:
            raise UsageError("client traces disagree on training mode")
        mode, layers = traces[0][:2]
        # Each client's layer table is checked against the first's as its
        # tensors are encoded.
        nrounds = min(n for _, _, n, _ in traces)
        reports = simulate_rounds(
            layers, [rounds for _, _, _, rounds in traces], _params_from_args(args, mode),
            nrounds if args.rounds is None else min(nrounds, args.rounds),
            _parse_bandwidths(args.bandwidths),
            None if args.measured else (args.t_comp, args.t_decomp),
        )
        reports_to_csv(reports, stack.enter_context(_text_output(args.csv)))
    return 0


def cmd_inspect(args) -> int:
    with _open_stream(args.input) as ((mode, predict), layers, nrounds, frames):
        lines = [
            f"stream: {len(layers)} layers, mode {mode}, {nrounds} rounds",
            f"predict beta {predict.beta:.9g} tau {predict.tau:.9g} "
            f"full_batch {int(predict.full_batch)}",
        ]
        for spec in layers:
            shape = "x".join(str(d) for d in spec.shape)
            lines.append(f"layer {spec.name} kind {spec.kind} shape {shape}")
        total_wire = 0
        for payload, framed in frames:
            total_wire += framed
            lines.append(
                f"payload client {payload.client_id} round {payload.round} "
                f"bytes {framed}"
            )
            for spec, info in zip(layers, describe_payload(payload, layers)):
                if info.tag != TAG_LOSSY:
                    lines.append(
                        f"  {spec.name}: tag lossless_only wire {info.wire_bytes} "
                        f"inner {info.inner_bytes}"
                    )
                    continue
                lines.append(
                    f"  {spec.name}: tag lossy wire {info.wire_bytes} "
                    f"inner {info.inner_bytes} delta {info.delta:.9g} "
                    f"mu {info.mu:.9g} sigma {info.sigma:.9g} "
                    f"bitmap {info.bitmap_variant} bitmap_bits {info.bitmap_bits} "
                    f"kernels {info.kernel_count} predicted {info.predicted_kernels} "
                    f"huffman_bits {info.huffman_bits} literals {info.literal_count}"
                )
    original = 4 * sum(s.numel for s in layers) * nrounds
    lines.append(
        f"total wire {total_wire} bytes, original {original} bytes, "
        f"ratio {original / total_wire:.4f}"
    )
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_bench(args) -> int:
    synth = SynthConfig(
        seed=args.seed, layers=tuple(_parse_layers(args.layers)), rounds=args.rounds,
    )
    if args.symbols < 1:
        raise UsageError("--symbols must be >= 1")
    rng = np.random.default_rng(args.seed)
    rows = [("op", "items", "bytes", "seconds", "rate", "unit")]

    # Entropy stage alone, on two-sided geometric bins (the shape quantized
    # residuals take in practice).
    n = args.symbols
    magnitudes = rng.geometric(0.3, size=n) - 1
    bins = (magnitudes * rng.choice((-1, 1), size=n)).astype(np.int32)
    t0 = time.perf_counter()
    block = entropy_encode(bins)
    t1 = time.perf_counter()
    decoded = entropy_decode(block, n)
    t2 = time.perf_counter()
    if not np.array_equal(decoded, bins):
        raise IntegrityError("entropy stage roundtrip mismatch during bench")
    for op, seconds in (("huffman_encode", t1 - t0), ("huffman_decode", t2 - t1)):
        rows.append((
            op, n, len(block.stream), f"{seconds:.6f}", f"{n / seconds / 1e6:.3f}", "Msym/s",
        ))

    # Whole pipeline: a measured one-client simulation on a synthetic trace.
    reports = list(simulate_rounds(
        list(synth.layers), [synth_rounds(synth)], _params_from_args(args, synth.mode),
        synth.rounds,
    ))
    raw = 4 * sum(spec.numel for spec in synth.layers) * synth.rounds
    t_comp = sum(rep.clients[0].t_comp_s for rep in reports)
    t_decomp = sum(rep.clients[0].t_decomp_s for rep in reports)
    for op, seconds in (("pipeline_compress", t_comp), ("pipeline_decompress", t_decomp)):
        rows.append((
            op, synth.rounds, raw,
            f"{seconds:.6f}", f"{8.0 * raw / seconds / 1e6:.1f}", "Mbit/s",
        ))
    with _text_output(args.csv) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return 0


# ---------------------------------------------------------------------------
# argument wiring

def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eb-mode", choices=("abs", "rel"), default="rel",
                   help="error bound kind: absolute delta or range-relative "
                        "epsilon (default rel)")
    p.add_argument("--eb", type=float, default=1e-2, metavar="REAL",
                   help="error bound value (default 1e-2)")
    p.add_argument("--beta", type=float, default=0.5, metavar="REAL",
                   help="magnitude predictor blending weight in (0,1]")
    p.add_argument("--tau", type=float, default=0.5, metavar="REAL",
                   help="kernel sign-consistency threshold in [0,1]; ignored "
                        "when --prediction off")
    p.add_argument("--t-lossy", type=int, default=DEFAULT_LOSSY_THRESHOLD,
                   metavar="N",
                   help="layers with at most N elements bypass the lossy path "
                        f"(default {DEFAULT_LOSSY_THRESHOLD})")
    p.add_argument("--backend", choices=(BACKEND_DEFAULT, BACKEND_STORE),
                   default=BACKEND_DEFAULT,
                   help="byte backend of lossy layer blobs: zlib (default) or "
                        "store; lossless layers are always coded by byte plane "
                        "and stored")
    p.add_argument("--prediction", choices=("on", "off"), default="on",
                   help="gradient prediction stage (default on)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="gradzip",
        description="Error-bounded lossy compression for federated gradient "
                    "updates.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("synth", help="generate a synthetic gradient trace")
    p.add_argument("output", help="trace file to write")
    p.add_argument("--layers", required=True, metavar="SPEC",
                   help='layer list like "conv1:32x16x3x3,fc:256x128"')
    p.add_argument("--rounds", type=int, default=10, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    p.add_argument("--decay", type=float, default=0.99, metavar="REAL",
                   help="per-round magnitude decay in (0,1] (default 0.99)")
    p.add_argument("--noise", type=float, default=0.3, metavar="REAL",
                   help="relative magnitude noise (default 0.3)")
    p.add_argument("--consistency", type=float, default=0.8, metavar="REAL",
                   help="target kernel sign consistency in [0,1] (default 0.8)")
    p.add_argument("--oscillation", type=int, default=1, metavar="N",
                   help="full-batch sign flip period in rounds (default 1)")
    p.add_argument("--full-batch", action="store_true",
                   help="generate a full-batch trace")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("compress",
                       help="compress a trace into a payload stream")
    p.add_argument("input", help="trace file")
    p.add_argument("output", help="payload stream to write")
    _add_pipeline_flags(p)
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="summary CSV path (default: <output>.csv)")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress",
                       help="reconstruct a trace from a payload stream")
    p.add_argument("input", help="payload stream file")
    p.add_argument("output", help="reconstructed trace to write")
    p.add_argument("--reference", default=None, metavar="TRACE",
                   help="original trace; verify every error bound against it")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("simulate",
                       help="run a multi-client round simulation, emit CSV")
    p.add_argument("traces", nargs="+", metavar="TRACE",
                   help="one trace file per client")
    _add_pipeline_flags(p)
    p.add_argument("--bandwidths", default="1,10,100,1000", metavar="LIST",
                   help="comma-separated Mbit/s values (default 1,10,100,1000)")
    p.add_argument("--rounds", type=int, default=None, metavar="N",
                   help="cap on simulated rounds")
    p.add_argument("--measured", action="store_true",
                   help="time the codec for real instead of using fixed "
                        "values (output is then not byte-deterministic)")
    p.add_argument("--t-comp", type=float, default=0.0, metavar="SEC",
                   help="fixed per-round compression time (default 0)")
    p.add_argument("--t-decomp", type=float, default=0.0, metavar="SEC",
                   help="fixed per-round decompression time (default 0)")
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inspect", help="dump payload stream framing")
    p.add_argument("input", help="payload stream file")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("bench",
                       help="measure codec throughput (not deterministic)")
    p.add_argument("--symbols", type=int, default=2_000_000, metavar="N",
                   help="entropy stage symbol count (default 2e6)")
    p.add_argument("--layers", default="conv1:128x64x3x3,conv2:64x64x3x3",
                   metavar="SPEC", help="synthetic model for the pipeline leg")
    p.add_argument("--rounds", type=int, default=4, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="U64")
    _add_pipeline_flags(p)
    p.add_argument("--csv", default=None, metavar="PATH",
                   help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"gradzip: usage error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"gradzip: format error: {exc}", file=sys.stderr)
        return 2
    except GradzipError as exc:  # integrity, data, protocol and any later subclass
        print(f"gradzip: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"gradzip: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"gradzip: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
