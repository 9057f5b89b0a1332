"""Smoke test of the benchmark's traced hooks (gzbench/tracer.py).

The traced benchmark run wraps library functions by module attribute and
computes counters from their arguments and results. These tests run a few
library rounds under those hooks, so a change to a hooked function's name,
call site or return shape fails here, not in every traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from gradzip import pipeline
from gradzip.codec import ErrorBoundConfig
from gradzip.predictor import PredictParams
from gradzip.trace import (
    MODE_FULL_BATCH, MODE_MINI_BATCH, LayerSpec, SynthConfig, load_trace, synth_rounds,
)

TRACER = Path(__file__).resolve().parent.parent / "gzbench" / "tracer.py"


def load_tracer():
    """A private copy of the tracer module, read from its file."""
    spec = importlib.util.spec_from_file_location("gzbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", [MODE_MINI_BATCH, MODE_FULL_BATCH])
def test_every_counted_hook_fires(mode):
    tr = load_tracer()
    filled = set()

    def recording(name, counter):
        def run(args, kwargs, result):
            values = counter(args, kwargs, result)
            if values:
                filled.add(name)
            return values
        return run

    # Only this private copy's table is changed.
    tr.HOOKS[:] = [(m, p, n, c and recording(n, c)) for m, p, n, c in tr.HOOKS]
    counted = {n for _, _, n, c in tr.HOOKS if c}
    targets = {f"{m}.{p}" for m, p, _, c in tr.HOOKS if c}
    layers = [LayerSpec("conv", (16, 8, 3, 3)), LayerSpec("fc", (64, 32)), LayerSpec("bias", (16,))]
    params = pipeline.PipelineParams(
        predict=PredictParams(full_batch=mode == MODE_FULL_BATCH),
        bound=ErrorBoundConfig("relative", 1e-2),
        lossy_threshold=64,
    )
    tracer = tr.Tracer()
    hooks = tr.Hooks(tracer)
    try:
        hooks.install()
        assert not targets & set(hooks.absent)
        client = pipeline.SyncState.initial(layers)
        server = pipeline.SyncState.initial(layers)
        cfg = SynthConfig(seed=3, layers=layers, rounds=3, mode=mode)
        for tensors in synth_rounds(cfg):
            payload, client = pipeline.compress_round(tensors, client, params)
            _, server = pipeline.decompress_round(payload, server, params)
    finally:
        hooks.remove()
    called = {name for (_, name), calls in tracer.calls.items() if calls}
    assert counted <= called, counted - called
    assert filled == counted, counted - filled


def test_traced_cli_and_library_rounds_close_every_span(tmp_path):
    # The benchmark's traced pass: CLI compress and decompress through
    # cli.main in process, then library rounds, on a model with two layers of
    # at least 65,536 elements. Every span must close in order on the one
    # span stack, and every counted hook must fire.
    from gradzip import cli

    tr = load_tracer()
    counted = {n for _, _, n, c in tr.HOOKS if c}
    trace, stream = tmp_path / "t.gtrc", tmp_path / "t.gzp"
    argv = ["synth", trace, "--layers", "conv1:64x128x3x3,conv2:128x128x3x3,bias:128",
            "--rounds", 3, "--seed", 7]
    assert cli.main([str(a) for a in argv]) == 0
    rounds = load_trace(trace)
    params = pipeline.PipelineParams(
        predict=PredictParams(), bound=ErrorBoundConfig("relative", 1e-2)
    )
    tracer = tr.Tracer()
    hooks = tr.Hooks(tracer)
    codes = []
    try:
        hooks.install()
        with tracer.span("cli.compress"):
            codes.append(cli.main(["compress", str(trace), str(stream)]))
        with tracer.span("cli.decompress"):
            codes.append(cli.main(["decompress", str(stream), str(tmp_path / "r.gtrc")]))
        client = pipeline.SyncState.initial(rounds.layers)
        server = pipeline.SyncState.initial(rounds.layers)
        for tensors in rounds.rounds:
            with tracer.span("bench.library"):
                payload, client = pipeline.compress_round(tensors, client, params)
                _, server = pipeline.decompress_round(payload, server, params)
    finally:
        hooks.remove()
    assert codes == [0, 0]
    assert tracer.stack == []
    called = {name for (_, name), calls in tracer.calls.items() if calls}
    assert counted <= called, counted - called


def test_only_cli_hook_targets_are_absent():
    # The benchmark hooks library functions by module attribute. A CLI name
    # may go when the CLI stops importing it, but a hooked library name that
    # goes would leave its counters silently empty.
    tr = load_tracer()
    hooks = tr.Hooks(tr.Tracer())
    try:
        hooks.install()
    finally:
        hooks.remove()
    assert [t for t in hooks.absent if not t.startswith("gradzip.cli.")] == []
