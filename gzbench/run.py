"""gradzip benchmark: one closed-loop client driving the CLI and the round API.

Run from the root of a source checkout:

    python3 gzbench/run.py --workload conv-minibatch --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing. One process,
a closed loop with one client, alternates between ``gradzip compress`` /
``gradzip decompress`` children (at most one alive at a time) and in-process
``pipeline.compress_round`` / ``decompress_round`` calls, one round at a
time. ``--trace 1`` runs the same work in process (the CLI through
``gradzip.cli.main``): a warm-up pass, then untraced, traced with the hook
table installed, and untraced again, and reports the per-layer metrics.
Every output is checked; the last stdout line is the JSON result.
gzbench/README.md defines the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from check import Tally, check_round, check_trace, just_past_bound
from workloads import (LOSSY_THRESHOLD, MINI_BATCH, WORKLOADS, Workload, generate, read_trace,
                       sha256_of_rounds, trace_bytes)
import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CLI_BOOT = "import sys; from gradzip.cli import main; sys.exit(main())"
SETUP_BOOT = ("import sys, gradzip; from gradzip.pipeline import SyncState; "
              "from gradzip.trace import LayerSpec; "
              "SyncState.initial([LayerSpec(n, s) for n, s in {layers!r}])")
# Setup children per run, started at even intervals through the measured
# phase so that they meet the same machine speed as the other operations.
SETUP_REPS = 15
MIN_CLI_PAIRS = 3
# Library rounds per run, at least. With one round-1 sample in 20, p90
# (position 18.9 of 20) never interpolates across it; each workload generates
# at least 30 rounds, so later sessions keep round 1 under that share too.
MIN_LIB_ROUNDS = 20
# Library rounds in each pass of the traced run, which does four passes.
TRACED_LIB_ROUNDS = 10

# Tiny trace for the checker self-test: one lossy and one lossless layer.
SELFTEST = Workload(
    name="selftest", why="checker self-test",
    layers=(("fc", (64, 48)), ("bias", (100,))), mode=MINI_BATCH, eb=1e-2,
    oscillation=1, cli_rounds=2, lib_rounds=2,
)


class Launcher:
    """The launcher.py process; children get the checkout's src on PYTHONPATH."""

    def __init__(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                     env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)

    def run(self, argv: list[str], cwd: Path) -> dict:
        req = {"argv": argv, "cwd": str(cwd), "stderr": str(cwd / "child.err")}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            # Still waiting on a child: end the launcher's whole group.
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def _quantile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=10)[q // 10 - 1]


class Bench:
    def __init__(self, w: Workload, seed: int, work: Path, launcher: "Launcher", tally: Tally):
        from gradzip import codec, pipeline, predictor, trace

        self.w, self.seed, self.work, self.launcher, self.tally = w, seed, work, launcher, tally
        self.rounds = generate(w, seed)
        self.cli_rounds = self.rounds[:w.cli_rounds]
        self.trace_path = work / "input.gtrc"
        raw = trace_bytes(w, self.cli_rounds)
        self.trace_path.write_bytes(raw)
        self.sha256 = {"cli_trace": hashlib.sha256(raw).hexdigest(),
                       "library_trace": sha256_of_rounds(w, self.rounds)}
        self.stream_path = work / "stream.gzs"
        self.csv_path = work / "stream.csv"
        self.recon_path = work / "recon.gtrc"
        self.digests: dict[str, str] = {}
        self.stream_bytes = 0
        self.setup_code = SETUP_BOOT.format(layers=[(n, s) for n, s in w.layers])
        self.setup_walls: list[float] = []
        self.specs = [trace.LayerSpec(n, s) for n, s in w.layers]
        self.tensors = [[trace.GradientTensor(sp, a) for sp, a in zip(self.specs, r)]
                        for r in self.rounds]
        self.params = pipeline.PipelineParams(
            predict=predictor.PredictParams(full_batch=w.mode != MINI_BATCH),
            bound=codec.ErrorBoundConfig(codec.MODE_RELATIVE, w.eb),
            lossy_threshold=LOSSY_THRESHOLD,
        )

    # -- child processes -----------------------------------------------------

    def spawn(self, argv: list[str]) -> tuple[bool, float, float]:
        """Run one child to completion: (exit 0, wall seconds, peak RSS MB)."""
        reply = self.launcher.run([sys.executable] + argv, self.work)
        return reply["code"] == 0, reply["wall_s"], reply["maxrss_kb"] / 1024.0

    def cli(self, *args: str):
        return self.spawn(["-c", CLI_BOOT, *args])

    def compress_args(self) -> list[str]:
        return ["compress", str(self.trace_path), str(self.stream_path),
                "--csv", str(self.csv_path), *self.w.cli_flags()]

    def decompress_args(self) -> list[str]:
        return ["decompress", str(self.stream_path), str(self.recon_path)]

    # -- output checks -------------------------------------------------------

    def same_as_before(self, key: str, data: bytes) -> bool:
        digest = hashlib.sha256(data).hexdigest()
        return self.digests.setdefault(key, digest) == digest

    def check_compress_outputs(self) -> str | None:
        """First problem with the stream and CSV that compress wrote, or None."""
        try:
            stream = self.stream_path.read_bytes()
            csv = self.csv_path.read_bytes()
        except OSError as exc:
            return f"output missing: {exc}"
        self.stream_bytes = len(stream)
        if not (self.same_as_before("stream", stream) & self.same_as_before("csv", csv)):
            return "stream or CSV bytes changed between repeats"
        return None

    def check_decompress_outputs(self) -> str | None:
        """First problem with the trace that decompress wrote, or None."""
        try:
            data = self.recon_path.read_bytes()
            problem = check_trace(self.w, self.cli_rounds, read_trace(data, self.w))
        except (OSError, ValueError, struct.error) as exc:
            return f"unreadable reconstruction: {exc}"
        if problem is None and not self.same_as_before("recon", data):
            problem = "reconstruction bytes changed between repeats"
        return problem

    def cli_op(self, what: str, args: list[str], check) -> tuple[bool, float, float]:
        """One CLI child and the check of its outputs, tallied as one operation."""
        exit_ok, wall, rss = self.cli(*args)
        problem = check() if exit_ok else "exited nonzero"
        return self.tally.record(problem is None, f"{what}: {problem}"), wall, rss

    def setup_child(self) -> None:
        ok, wall, _ = self.spawn(["-c", self.setup_code])
        if self.tally.record(ok, "setup child failed"):
            self.setup_walls.append(wall)

    # -- library rounds ------------------------------------------------------

    def fresh_states(self):
        from gradzip import pipeline
        return pipeline.SyncState.initial(self.specs), pipeline.SyncState.initial(self.specs)

    def library_round(self, t: int, states):
        """One client round then the server's decode; returns the two walls."""
        from gradzip import pipeline
        client, server = states
        try:
            t0 = time.perf_counter()
            out = pipeline.compress_round(self.tensors[t], client, self.params)
            t1 = time.perf_counter()
            back = pipeline.decompress_round(out[0], server, self.params)
            t2 = time.perf_counter()
        except Exception as exc:  # a failed round is counted, then the session restarts
            self.tally.record(False, f"library round {t + 1}: {exc!r}")
            return None, self.fresh_states()
        problem = check_round(self.w, self.rounds[t], [g.values for g in back[0]])
        ok = self.tally.record(problem is None, f"library round {t + 1}: {problem}")
        return ((t1 - t0, t2 - t1) if ok else None), (out[1], back[1])

    # -- the two modes -------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        """Run the measured phase; a metric whose samples all failed is left out."""
        self.library_round(0, self.fresh_states())  # untimed warm-up
        comp, decomp, client_ms, server_ms = [], [], [], []
        lib_time = cli_time = 0.0
        r = pairs = setups = 0
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            now = time.perf_counter()
            running = now < deadline
            if setups < SETUP_REPS and (not running or setups * seconds <= SETUP_REPS * (now - start)):
                setups += 1
                self.setup_child()
                continue
            cli_wanted = pairs < MIN_CLI_PAIRS or running
            lib_wanted = r < MIN_LIB_ROUNDS or running
            if not (cli_wanted or lib_wanted):
                break
            if lib_wanted and (not cli_wanted or lib_time <= cli_time):
                # The client starts a new session after the last generated round.
                t = r % self.w.lib_rounds
                if t == 0:
                    states = self.fresh_states()
                walls, states = self.library_round(t, states)
                r += 1
                if walls:
                    client_ms.append(1e3 * walls[0])
                    server_ms.append(1e3 * walls[1])
                    lib_time += sum(walls)
                continue
            pairs += 1
            ok, wall, rss = self.cli_op("compress", self.compress_args(),
                                        self.check_compress_outputs)
            cli_time += wall
            if ok:
                comp.append((wall, rss))
            ok, wall, rss = self.cli_op("decompress", self.decompress_args(),
                                        self.check_decompress_outputs)
            cli_time += wall
            if ok:
                decomp.append((wall, rss))
        self.samples = {"cli_compress_s": [w for w, _ in comp],
                        "cli_decompress_s": [w for w, _ in decomp],
                        "compress_rss_mb": [m for _, m in comp],
                        "decompress_rss_mb": [m for _, m in decomp],
                        "client_round_ms": client_ms, "server_round_ms": server_ms,
                        "setup_s": self.setup_walls}
        out = {}
        mbit = 8.0 * self.w.cli_rounds * self.w.round_bytes / 1e6
        if comp:
            out["compress_mbps"] = (statistics.median(mbit / w for w, _ in comp), "Mbit/s")
            out["compress_peak_rss_mb"] = (statistics.median(m for _, m in comp), "MB")
        if decomp:
            out["decompress_mbps"] = (statistics.median(mbit / w for w, _ in decomp), "Mbit/s")
            out["decompress_peak_rss_mb"] = (statistics.median(m for _, m in decomp), "MB")
        if self.stream_bytes:
            cr = self.w.cli_rounds * self.w.round_bytes / self.stream_bytes
            out["compression_ratio"] = (cr, "x")
        if len(client_ms) >= 2:
            c50, s50 = _quantile(client_ms, 50), _quantile(server_ms, 50)
            out["client_round_ms_p50"] = (c50, "ms")
            out["client_round_ms_p90"] = (_quantile(client_ms, 90), "ms")
            out["server_round_ms_p50"] = (s50, "ms")
            out["server_round_ms_p90"] = (_quantile(server_ms, 90), "ms")
            if self.stream_bytes:
                out["break_even_mbps"] = (8.0 * self.w.round_bytes * (1.0 - 1.0 / cr)
                                          / ((c50 + s50) / 1e3) / 1e6, "Mbit/s")
        if self.setup_walls:
            out["setup_s"] = (statistics.median(self.setup_walls), "s")
        return out

    def in_process_pass(self, tracer: tr.Tracer | None) -> float:
        """CLI compress and decompress through cli.main, then TRACED_LIB_ROUNDS library rounds.

        Returns the summed wall time of the operations, checks excluded.
        """
        from gradzip import cli

        def timed(name, fn):
            t0 = time.perf_counter()
            if tracer is None:
                result = fn()
            else:
                with tracer.span(name):
                    result = fn()
            return result, time.perf_counter() - t0

        def cli_main(name, args, check):
            def call():
                try:
                    return cli.main(args)
                except (Exception, SystemExit) as exc:
                    return exc
            result, wall = timed(name, call)
            problem = check() if result == 0 else f"returned {result!r}"
            self.tally.record(problem is None, f"in-process {name}: {problem}")
            return wall

        total = cli_main("cli.compress", self.compress_args(), self.check_compress_outputs)
        total += cli_main("cli.decompress", self.decompress_args(), self.check_decompress_outputs)
        states = self.fresh_states()
        for t in range(TRACED_LIB_ROUNDS):
            (walls, states), _ = timed("bench.library", lambda: self.library_round(t, states))
            total += sum(walls or ())
        return total

    def traced(self) -> dict:
        # A warm-up pass, then untraced passes on both sides of the traced
        # one, so that first-pass costs and a drift in machine speed do not
        # read as tracing overhead.
        self.in_process_pass(None)
        untraced = self.in_process_pass(None)
        tracer = tr.Tracer()
        hooks = tr.Hooks(tracer)
        hooks.install()
        try:
            traced = self.in_process_pass(tracer)
        finally:
            hooks.remove()
        untraced = (untraced + self.in_process_pass(None)) / 2
        self.absent_hooks = hooks.absent
        spans_dir = ROOT / ".gzbench_spans"
        spans_dir.mkdir(exist_ok=True)
        tracer.dump(spans_dir / f"{self.w.name}-seed{self.seed}.json")
        return layer_metrics(tracer, self.w, traced / untraced - 1.0 if untraced else 0.0)


def layer_metrics(tracer: tr.Tracer, w: Workload, overhead: float) -> dict:
    """Per-layer metrics of one traced pass.

    Times are summed over the whole pass (CLI compress, CLI decompress and
    the library rounds). Ratios of the coded data come from the library
    rounds only: the first TRACED_LIB_ROUNDS rounds of the trace, once each.
    """
    dur, self_s, phase = tracer.self_times()
    names = tracer.names
    total = defaultdict(float)
    own = defaultdict(float)
    for name, d, s in zip(names, dur, self_s):
        total[name] += d
        own[name] += s
    per_phase_calls = tracer.calls
    calls = Counter()
    for (_, name), c in per_phase_calls.items():
        calls[name] += c
    counts = tracer.counts
    lib = "bench.library"

    def share(num, den):
        return float(num) / den if den else 0.0

    def lib_share(num, den):
        return share(counts[lib, num], counts[lib, den])

    def counted(key):
        return sum(v for (_, k), v in counts.items() if k == key)

    # Verify work inside CLI compress: outermost spans of these names only.
    verify = {"pipeline.decompress_round", "pipeline.describe_blob",
              "pipeline.SyncState.to_bytes", "flsim.layer_stats"}
    verify_s = 0.0
    for i, name in enumerate(names):
        if name in verify and phase[i] == "cli.compress":
            p = tracer.parent[i]
            while p >= 0 and names[p] not in verify:
                p = tracer.parent[p]
            if p < 0:
                verify_s += dur[i]
    blobs = w.cli_rounds * len(w.layers)
    out = {}
    for name in tr.SPAN_NAMES:
        out[f"{name}.self_s"] = (own[name], "s")
        out[f"{name}.calls"] = (calls[name], "count")
    out.update({
        "cli.compress.self_s": (own["cli.compress"], "s"),
        "cli.decompress.self_s": (own["cli.decompress"], "s"),
        "predictor.sign_hit_rate": (lib_share("sign_hits", "sign_covered"), "ratio"),
        "predictor.sign_coverage": (lib_share("sign_covered", "lossy_elements"), "ratio"),
        "predictor.bitmap_bytes": (share(counts[lib, "bitmap_bytes"], calls[lib]), "B/round"),
        "pipeline.decompress_round.calls_per_compress": (
            share(per_phase_calls["cli.compress", "pipeline.decompress_round"],
                  per_phase_calls["cli.compress", "pipeline.compress_round"]), "ratio"),
        "pipeline.verify_share": (share(verify_s, total["cli.compress"]), "ratio"),
        "pipeline.literal_share": (lib_share("literals", "lossy_elements"), "ratio"),
        "codec.entropy_encode.msym_s": (
            share(counted("enc_symbols") / 1e6, total["codec.entropy_encode"]), "Msym/s"),
        "codec.entropy_decode.msym_s": (
            share(counted("dec_symbols") / 1e6, total["codec.entropy_decode"]), "Msym/s"),
        "codec.huffman_bits_per_symbol": (lib_share("enc_bits", "enc_symbols"), "bit/sym"),
        "codec.huffman_over_entropy": (lib_share("enc_bits", "enc_entropy_bits"), "ratio"),
        "codec.long_code_share": (lib_share("enc_long_codes", "enc_symbols"), "ratio"),
        "codec.lossless_compress.calls_per_blob": (
            share(per_phase_calls["cli.compress", "codec.lossless_compress"], blobs), "ratio"),
        "codec.lossless_decompress.calls_per_blob": (
            share(per_phase_calls["cli.compress", "codec.lossless_decompress"]
                  + per_phase_calls["cli.decompress", "codec.lossless_decompress"], blobs), "ratio"),
        "codec.backend_ratio": (share(counted("backend_in"), counted("backend_out")), "x"),
        "trace_overhead_share": (overhead, "ratio"),
    })
    return out


def self_test(bench: Bench) -> dict:
    """Show that the checks fail when they should.

    A clean round trip of a tiny trace must pass; an element moved just past
    its bound, a flipped bit in a lossless layer and a truncated stream must
    each count as a failed operation.
    """
    w = SELFTEST
    rounds = generate(w, bench.seed)
    trace_path = bench.work / "selftest.gtrc"
    stream_path = bench.work / "selftest.gzs"
    trace_path.write_bytes(trace_bytes(w, rounds))
    tally = Tally()
    result = {}
    ok, _, _ = bench.cli("compress", str(trace_path), str(stream_path),
                         "--csv", str(bench.work / "selftest.csv"), *w.cli_flags())
    ok = ok and bench.cli("decompress", str(stream_path), str(bench.recon_path))[0]
    try:
        recon = read_trace(bench.recon_path.read_bytes(), w) if ok else []
    except (OSError, ValueError, struct.error):
        ok = False
    result["clean_passes"] = tally.record(ok and check_trace(w, rounds, recon) is None, "clean")
    if result["clean_passes"]:
        bad = [[a.copy() for a in r] for r in recon]
        orig = rounds[0][0].astype(np.float64)
        delta = w.eb * (orig.max() - orig.min())
        bad[0][0][0] = just_past_bound(float(orig[0]), delta)
        result["bound_violation_fails"] = not tally.record(
            check_trace(w, rounds, bad) is None, "bound")
        bad = [[a.copy() for a in r] for r in recon]
        bad[1][1].view(np.uint32)[0] ^= 1
        result["lossless_bit_flip_fails"] = not tally.record(
            check_trace(w, rounds, bad) is None, "lossless")
    truncated = bench.work / "selftest-truncated.gzs"
    truncated.write_bytes(stream_path.read_bytes()[:-5] if stream_path.exists() else b"")
    result["truncated_stream_fails"] = not tally.record(
        bench.cli("decompress", str(truncated), str(bench.recon_path))[0], "truncated")
    result["passed"] = (len(result) == 4 and all(result.values())
                        and (tally.attempted, tally.failed) == (4, 3))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so the cleanup below still runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "gradzip" / "__init__.py").is_file():
        print(f"gzbench: no gradzip sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    w = WORKLOADS[args.workload]
    work = ROOT / ".gzbench_work" / f"{w.name}-{os.getpid()}"
    work.mkdir(parents=True)
    launcher = Launcher()
    tally = Tally()
    bench, selftest, metrics = None, {"passed": False}, {}
    try:
        import gradzip
        if Path(gradzip.__file__).resolve().parent != (SRC / "gradzip").resolve():
            print(f"gzbench: imported gradzip from {gradzip.__file__}, not {SRC}", file=sys.stderr)
            return 2
        bench = Bench(w, args.seed, work, launcher, tally)
        selftest = self_test(bench)
        if args.trace:
            metrics = bench.traced()
        else:
            metrics = bench.end_to_end(args.seconds)
    except Exception as exc:
        # Something the per-operation checks did not catch broke the run.
        # Count it as a failed operation and report what was measured.
        traceback.print_exc()
        tally.record(False, f"run aborted: {exc!r}")
    finally:
        launcher.close()
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics["ops_failed_share"] = (tally.failed / tally.attempted, "ratio")
    detail = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "sha256": getattr(bench, "sha256", None), "selftest": selftest,
              "ops_failed_share": metrics["ops_failed_share"][0],
              "failures": tally.reasons,
              "samples": getattr(bench, "samples", None),
              "absent_hooks": getattr(bench, "absent_hooks", None)}
    print(json.dumps(detail))
    report = {k: metrics[k] for k in declared if k in metrics}
    correct = tally.failed == 0 and selftest["passed"]
    missing = sorted(set(declared) - set(report))
    if missing and correct:
        print(f"gzbench: metrics declared in BENCHMARK.json but not measured: {missing}",
              file=sys.stderr)
        return 1
    for name, (value, unit) in {**report, "ops_failed_share": metrics["ops_failed_share"]}.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
