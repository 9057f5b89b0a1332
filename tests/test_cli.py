import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import gradzip
from gradzip.cli import main
from gradzip.flsim import CSV_COLUMNS
from gradzip.trace import MODE_FULL_BATCH, MODE_MINI_BATCH, load_trace

LAYERS = "conv1:16x8x3x3,conv2:16x16x3x3,fc:128x32"


def run(*argv):
    return main([str(a) for a in argv])


def make_trace(tmp_path, name="t.gtrc", seed=5, rounds=5, **kw):
    path = tmp_path / name
    argv = ["synth", path, "--layers", kw.pop("layers", LAYERS),
            "--rounds", rounds, "--seed", seed]
    for flag, value in kw.items():
        argv.append("--" + flag.replace("_", "-"))
        if value is not True:
            argv.append(value)
    assert run(*argv) == 0
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_synth_writes_deterministic_trace(tmp_path):
    a = make_trace(tmp_path, "a.gtrc", seed=11)
    b = make_trace(tmp_path, "b.gtrc", seed=11)
    assert a.read_bytes() == b.read_bytes()
    trace = load_trace(a)
    assert [s.name for s in trace.layers] == ["conv1", "conv2", "fc"]
    assert trace.num_rounds == 5
    assert trace.mode == MODE_MINI_BATCH


def test_synth_full_batch_flag(tmp_path):
    path = make_trace(tmp_path, "fb.gtrc", full_batch=True, oscillation="2")
    assert load_trace(path).mode == MODE_FULL_BATCH


def test_synth_rejects_bad_layer_string(tmp_path, capsys):
    assert run("synth", tmp_path / "x.gtrc", "--layers", "noshape") == 1
    assert run("synth", tmp_path / "x.gtrc", "--layers", "a:3xb") == 1
    assert run("synth", tmp_path / "x.gtrc", "--layers", ",") == 1
    assert "usage error" in capsys.readouterr().err


def test_compress_writes_stream_and_csv(tmp_path):
    trace = make_trace(tmp_path)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--eb", "0.01") == 0
    assert out.exists()
    rows = read_csv(str(out) + ".csv")
    assert list(rows[0].keys()) == CSV_COLUMNS
    layer_rows = [r for r in rows if r["delta"]]
    assert layer_rows, "expected at least one lossy layer row"
    for r in layer_rows:
        assert float(r["max_err"]) <= float(r["delta"])
    total_rows = [r for r in rows if r["layer"] == "total"]
    assert len(total_rows) == 5


def test_compress_deterministic(tmp_path):
    trace = make_trace(tmp_path)
    assert run("compress", trace, tmp_path / "a.gzp") == 0
    assert run("compress", trace, tmp_path / "b.gzp") == 0
    assert (tmp_path / "a.gzp").read_bytes() == (tmp_path / "b.gzp").read_bytes()


def test_roundtrip_with_reference_verdict(tmp_path, capsys):
    trace = make_trace(tmp_path)
    out = tmp_path / "t.gzp"
    recon = tmp_path / "recon.gtrc"
    assert run("compress", trace, out) == 0
    assert run("decompress", out, recon, "--reference", trace) == 0
    assert capsys.readouterr().out.startswith("bound OK")
    got = load_trace(recon)
    ref = load_trace(trace)
    assert got.layers == ref.layers
    assert got.num_rounds == ref.num_rounds
    assert got.mode == ref.mode


def test_roundtrip_absolute_bound_in_csv(tmp_path):
    trace = make_trace(tmp_path)
    out = tmp_path / "abs.gzp"
    assert run("compress", trace, out, "--eb-mode", "abs", "--eb", "0.125") == 0
    for r in read_csv(str(out) + ".csv"):
        if r["delta"]:
            assert float(r["delta"]) == 0.125
            assert float(r["max_err"]) <= 0.125


def test_roundtrip_many_seeds(tmp_path):
    for seed in range(4):
        trace = make_trace(tmp_path, f"s{seed}.gtrc", seed=seed, rounds=4)
        out = tmp_path / f"s{seed}.gzp"
        recon = tmp_path / f"s{seed}.rec"
        assert run("compress", trace, out, "--eb", "0.02") == 0
        assert run("decompress", out, recon, "--reference", trace) == 0
        ref, got = load_trace(trace), load_trace(recon)
        for tensors, recs in zip(ref.rounds, got.rounds):
            for g, r in zip(tensors, recs):
                assert np.isfinite(r.values).all()


def test_prediction_on_beats_off(tmp_path):
    # The "--tau 1.01" value is deliberately out of range: with the
    # prediction stage off it must be accepted and ignored.
    trace = make_trace(tmp_path, rounds=8)
    on, off = tmp_path / "on.gzp", tmp_path / "off.gzp"
    assert run("compress", trace, on, "--eb", "0.03") == 0
    assert run("compress", trace, off, "--eb", "0.03",
               "--prediction", "off", "--tau", "1.01") == 0
    cr = {}
    for name, out in (("on", on), ("off", off)):
        rows = [r for r in read_csv(str(out) + ".csv") if r["layer"] == "total"]
        s = sum(int(r["S_bytes"]) for r in rows)
        sp = sum(int(r["Sprime_bytes"]) for r in rows)
        cr[name] = s / sp
    assert cr["on"] >= cr["off"]


def test_bad_tau_with_prediction_on_is_usage_error(tmp_path, capsys):
    trace = make_trace(tmp_path)
    assert run("compress", trace, tmp_path / "x.gzp", "--tau", "1.5") == 1
    assert "tau" in capsys.readouterr().err


def test_missing_input_exits_2(tmp_path, capsys):
    assert run("compress", tmp_path / "nope.gtrc", tmp_path / "x.gzp") == 2
    assert "nope.gtrc" in capsys.readouterr().err
    assert not (tmp_path / "x.gzp").exists()
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".gradzip-")]


def test_unknown_command_and_flags_exit_1(capsys):
    assert run("frobnicate") == 1
    assert run("inspect") == 1  # missing positional
    capsys.readouterr()


def test_tampered_payload_exits_3(tmp_path, capsys):
    trace = make_trace(tmp_path)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    data = bytearray(out.read_bytes())
    data[len(data) // 2] ^= 0xFF
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(bytes(data))
    assert run("decompress", bad, tmp_path / "r.gtrc") == 3
    capsys.readouterr()


def test_wrong_stream_version_exits_2(tmp_path, capsys):
    trace = make_trace(tmp_path)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    data = bytearray(out.read_bytes())
    data[4] = 77
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(bytes(data))
    assert run("decompress", bad, tmp_path / "r.gtrc") == 2
    assert "version" in capsys.readouterr().err


def test_truncated_stream_exits_2(tmp_path, capsys):
    trace = make_trace(tmp_path)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    trunc = tmp_path / "trunc.gzp"
    trunc.write_bytes(out.read_bytes()[:150])
    assert run("inspect", trunc) == 2
    assert run("decompress", trunc, tmp_path / "r.gtrc") == 2
    capsys.readouterr()


def test_round_count_mismatch_exits_3(tmp_path, capsys):
    trace = make_trace(tmp_path, rounds=3)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    data = out.read_bytes()
    # Drop the last payload frame, keeping the header's round count at 3.
    from gradzip.pipeline import frame_payload
    from gradzip.cli import _read_stream

    _, _, payloads = _read_stream(out)
    frames = [frame_payload(p) for p in payloads]
    header_len = len(data) - sum(len(f) for f in frames)
    cut = tmp_path / "cut.gzp"
    cut.write_bytes(data[:header_len] + b"".join(frames[:-1]))
    assert run("decompress", cut, tmp_path / "r.gtrc") == 3
    assert "rounds" in capsys.readouterr().err


def test_non_utf8_layer_name_exits_2(tmp_path, capsys):
    trace = make_trace(tmp_path, rounds=2, layers="fc:64x16")
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    data = bytearray(out.read_bytes())
    # Header: magic 4, version u16, mode u8, layer count u32, then the first
    # layer's name length u16 and its UTF-8 bytes.
    assert data[13:15] == b"fc"
    data[13] = 0xFF
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(bytes(data))
    assert run("decompress", bad, tmp_path / "r.gtrc") == 2
    assert run("inspect", bad) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_simulate_stdout_matches_csv_file(tmp_path, capsys):
    trace = make_trace(tmp_path)
    assert run("simulate", trace, "--bandwidths", "10,100") == 0
    stdout = capsys.readouterr().out
    path = tmp_path / "sim.csv"
    assert run("simulate", trace, "--bandwidths", "10,100", "--csv", path) == 0
    assert capsys.readouterr().out == ""
    assert stdout == path.read_text()
    rows = list(csv.DictReader(stdout.splitlines()))
    comm = [r for r in rows if r["bandwidth_bps"] and r["layer"] == "all"]
    assert len(comm) == 2 * 5  # two bandwidths per round
    assert all(float(r["ratio"]) > 0 for r in comm)


def test_simulate_break_even_rows(tmp_path, capsys):
    trace = make_trace(tmp_path)
    assert run("simulate", trace, "--bandwidths", "10",
               "--t-comp", "0.05", "--t-decomp", "0.02") == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    marks = [r for r in rows if r["layer"] == "break_even"]
    assert len(marks) == 5
    for r in marks:
        assert float(r["bandwidth_bps"]) > 0
    # With zero codec time there is no break-even to mark.
    assert run("simulate", trace, "--bandwidths", "10") == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    assert not [r for r in rows if r["layer"] == "break_even"]


def test_simulate_multi_client_and_mismatch(tmp_path, capsys):
    a = make_trace(tmp_path, "a.gtrc", seed=1)
    b = make_trace(tmp_path, "b.gtrc", seed=2)
    assert run("simulate", a, b, "--bandwidths", "10", "--rounds", "2") == 0
    capsys.readouterr()
    other = make_trace(tmp_path, "c.gtrc", layers="fc:64x16")
    assert run("simulate", a, other, "--bandwidths", "10") == 1
    fb = make_trace(tmp_path, "d.gtrc", full_batch=True)
    assert run("simulate", a, fb, "--bandwidths", "10") == 1
    capsys.readouterr()


def test_inspect_reports_tags_and_bitmap_bits(tmp_path, capsys):
    trace = make_trace(tmp_path, rounds=4)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    assert run("inspect", out) == 0
    text = capsys.readouterr().out
    assert "mode mini_batch, 4 rounds" in text
    kernel_lines = [l for l in text.splitlines() if "bitmap kernel_maps" in l]
    assert kernel_lines, "conv layers should carry kernel maps after round 1"
    for line in kernel_lines:
        fields = line.split()
        bits = int(fields[fields.index("bitmap_bits") + 1])
        kernels = int(fields[fields.index("kernels") + 1])
        predicted = int(fields[fields.index("predicted") + 1])
        assert bits == 40 + kernels + predicted


def test_inspect_lossless_only_when_threshold_high(tmp_path, capsys):
    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--t-lossy", "100000") == 0
    assert run("inspect", out) == 0
    text = capsys.readouterr().out
    layer_lines = [l for l in text.splitlines() if l.startswith("  ")]
    assert layer_lines
    assert all("tag lossless_only" in l for l in layer_lines)
    # A fully lossless stream reconstructs exactly.
    recon = tmp_path / "r.gtrc"
    assert run("decompress", out, recon) == 0
    ref, got = load_trace(trace), load_trace(recon)
    for tensors, recs in zip(ref.rounds, got.rounds):
        for g, r in zip(tensors, recs):
            assert np.array_equal(g.values, r.values)


def test_bench_emits_csv(tmp_path, capsys):
    assert run("bench", "--symbols", "50000", "--layers", "conv:16x8x3x3",
               "--rounds", "2", "--seed", "1") == 0
    rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    ops = [r["op"] for r in rows]
    assert ops == ["huffman_encode", "huffman_decode",
                   "pipeline_compress", "pipeline_decompress"]
    assert all(float(r["rate"]) > 0 for r in rows)


def test_console_entry_point_separates_streams(tmp_path):
    # The child imports gradzip from wherever this process found it.
    src = os.path.dirname(os.path.dirname(gradzip.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))
    trace = tmp_path / "t.gtrc"
    proc = subprocess.run(
        [sys.executable, "-m", "gradzip.cli", "synth", str(trace),
         "--layers", "fc:64x16", "--rounds", "2"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert "2-round trace" in proc.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "gradzip.cli", "simulate", str(trace),
         "--bandwidths", "1"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(CSV_COLUMNS[:3]))


def test_compress_inflates_each_blob_once(tmp_path, monkeypatch):
    # The server's decode parses each blob; the verify step reuses that parse.
    from gradzip import pipeline

    rounds, nlayers = 3, len(LAYERS.split(","))
    trace = make_trace(tmp_path, rounds=rounds)
    real = pipeline.lossless_decompress
    calls = []

    def counted(data):
        calls.append(len(data))
        return real(data)

    monkeypatch.setattr(pipeline, "lossless_decompress", counted)
    assert run("compress", trace, tmp_path / "t.gzp") == 0
    assert len(calls) == rounds * nlayers


@pytest.mark.parametrize("flags", [
    ("--eb", "inf"),
    ("--eb-mode", "abs", "--eb", "nan"),
    # The synthetic trace spans more than 2, so the scaled bound overflows.
    ("--eb-mode", "rel", "--eb", "1e308"),
])
def test_non_finite_bound_exits_1(tmp_path, capsys, flags):
    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, *flags) == 1
    assert "gradzip: usage error:" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_wire_delta_exits_3(tmp_path, capsys):
    import struct

    from gradzip.cli import _read_stream

    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--backend", "store") == 0
    data = bytearray(out.read_bytes())
    _, _, payloads = _read_stream(out)
    blob = payloads[1].blobs[0]
    # Store tag, blob tag u8, flags u8, mu f32, sigma f32, then delta f64.
    assert blob[:2] == b"S\x01"
    at = data.find(blob) + 11
    data[at:at + 8] = struct.pack("<d", float("inf"))
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(bytes(data))
    assert run("decompress", bad, tmp_path / "r.gtrc") == 3
    assert run("inspect", bad) == 3
    assert "non-finite delta" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("synth", "{tmp}/t.gtrc", "--layers", "fc:64x16", "--seed", "-3"),
    ("bench", "--seed", "-1"),
    ("bench", "--symbols", "-1"),
    ("bench", "--symbols", "0"),
])
def test_bad_seed_or_symbol_count_exits_1(tmp_path, capsys, argv):
    assert run(*(a.format(tmp=tmp_path) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("gradzip: usage error:")
    assert "Traceback" not in err
