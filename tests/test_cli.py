import csv
import os
import subprocess
import sys

import numpy as np
import pytest

import gradzip
from gradzip.cli import main
from gradzip.flsim import CSV_COLUMNS
from gradzip.trace import MODE_FULL_BATCH, MODE_MINI_BATCH, encode_layer_table, load_trace

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


def read_frames(path):
    """The payload frames of a stream file, through the CLI's stream reader."""
    from gradzip.cli import _open_stream

    with _open_stream(path) as (_, _, _, frames):
        return [payload for payload, _ in frames]


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


@pytest.mark.parametrize("argv", [
    ("synth", "{out}", "--layers", "\udcff:4x4"),  # argv's byte 0xff, as Python decodes it
    ("synth", "{out}", "--layers", "a:4294967296"),
    ("synth", "{out}", "--layers", "a" * 70000 + ":4"),
    ("synth", "{out}", "--layers", "fc:4", "--rounds", "4294967296"),
    ("bench", "--layers", "a" * 70000 + ":4", "--csv", "{out}"),
], ids=["name-not-utf8", "dim-over-u32", "name-over-u16", "rounds-over-u32", "bench-name-over-u16"])
def test_what_the_trace_format_cannot_hold_exits_1(tmp_path, capsys, argv):
    # The layer table holds UTF-8 names of at most 65535 bytes and u32
    # dimensions, and a trace header a u32 round count.
    out = tmp_path / "out"
    assert run(*(a.format(out=out) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("gradzip: usage error:") and err.count("\n") == 1
    assert "Traceback" not in err
    assert os.listdir(tmp_path) == []


def test_an_undecodable_layer_name_in_argv_exits_1(tmp_path):
    out = tmp_path / "out"
    proc = run_child("synth", out, "--layers", "\udcff:4x4")  # passed as the byte 0xff
    assert proc.returncode == 1
    assert proc.stderr.startswith("gradzip: usage error: layer '\\udcff'")
    assert proc.stderr.count("\n") == 1
    assert os.listdir(tmp_path) == []


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


def test_failed_reference_check_leaves_no_output(tmp_path, capsys):
    trace = make_trace(tmp_path, rounds=3)
    out = tmp_path / "t.gzp"
    recon = tmp_path / "recon.gtrc"
    assert run("compress", trace, out) == 0
    # Round 2's first conv1 value moved far past any bound.
    data = bytearray(trace.read_bytes())
    round_bytes = 4 * (16 * 8 * 9 + 16 * 16 * 9 + 128 * 32)
    at = len(data) - 2 * round_bytes
    value = np.frombuffer(data, dtype="<f4", count=1, offset=at)[0]
    data[at:at + 4] = np.float32(value + 1000.0).tobytes()
    moved = tmp_path / "moved.gtrc"
    moved.write_bytes(bytes(data))
    two_rounds = make_trace(tmp_path, "two.gtrc", rounds=2)
    other_layers = make_trace(tmp_path, "other.gtrc", rounds=3, layers="fc:64x16")
    capsys.readouterr()
    for reference, code, message in (
        (moved, 3, "error bound violated at round 2, client 0, layer 'conv1'"),
        (two_rounds, 1, "reference has 2 rounds, stream has 3"),
        (other_layers, 1, "reference trace has a different layer table"),
    ):
        assert run("decompress", out, recon, "--reference", reference) == code
        assert message in capsys.readouterr().err
        assert not recon.exists()


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

    payloads = read_frames(out)
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
    # Clients with 5 and 3 rounds: the shorter trace ends the run.
    short = make_trace(tmp_path, "s.gtrc", seed=3, rounds=3)
    out = tmp_path / "sim.csv"
    assert run("simulate", a, short, "--bandwidths", "10", "--csv", out) == 0
    assert {r["round"] for r in read_csv(out)} == {"1", "2", "3"}
    out.unlink()
    # A NaN in the last round of the second client fails the run when that
    # round is read, and leaves no CSV; no round at all is a usage error.
    nan = tmp_path / "nan.gtrc"
    nan.write_bytes(b.read_bytes()[:-4] + np.float32(np.nan).tobytes())
    assert run("simulate", a, nan, "--bandwidths", "10", "--csv", out) == 3
    assert run("simulate", a, "--rounds", "0", "--csv", out) == 1
    assert not out.exists()
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
    section_lines = [l for l in layer_lines if l.startswith("  lossless section: layers 3 ")]
    assert len(section_lines) == 2  # one per round
    assert all("tag lossless_only" in l for l in layer_lines if l not in section_lines)
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


def run_child(*argv, address_space=None):
    """One command in a child process, its address space capped at
    address_space bytes when given; returns the finished process. The child
    imports gradzip from wherever this process found it."""
    import resource

    src = os.path.dirname(os.path.dirname(gradzip.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])
    ))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run(
        [sys.executable, "-m", "gradzip.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=cap if address_space else None,
    )


def test_console_entry_point_separates_streams(tmp_path):
    trace = tmp_path / "t.gtrc"
    proc = run_child("synth", trace, "--layers", "fc:64x16", "--rounds", "2")
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert "2-round trace" in proc.stderr
    proc = run_child("simulate", trace, "--bandwidths", "1")
    assert proc.returncode == 0
    assert proc.stdout.startswith(",".join(CSV_COLUMNS[:3]))


def test_compress_inflates_nothing(tmp_path, monkeypatch):
    # The client describes the blobs it writes and checks the bound on its
    # own reconstruction; the wire's checksums and state digests stand in
    # for a server mirror, so compress inflates no blob. decompress, through
    # the same counter, inflates each blob once.
    from gradzip import pipeline

    rounds, nlayers = 3, len(LAYERS.split(","))
    trace = make_trace(tmp_path, rounds=rounds)
    real = pipeline.lossless_decompress
    calls = []

    def counted(data, *cap):
        calls.append(len(data))
        return real(data, *cap)

    monkeypatch.setattr(pipeline, "lossless_decompress", counted)
    assert run("compress", trace, tmp_path / "t.gzp") == 0
    assert calls == []
    assert run("decompress", tmp_path / "t.gzp", tmp_path / "r.gtrc") == 0
    assert len(calls) == rounds * nlayers


@pytest.mark.parametrize("flags", [
    ("--eb", "inf"),
    ("--eb-mode", "abs", "--eb", "nan"),
    # The synthetic trace spans more than 2, so the scaled bound overflows.
    ("--eb-mode", "rel", "--eb", "1e308"),
    # Finite, but the bin width 2 * delta overflows.
    ("--eb-mode", "abs", "--eb", "1e308"),
])
def test_non_finite_bound_exits_1(tmp_path, capsys, flags):
    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, *flags) == 1
    assert "gradzip: usage error:" in capsys.readouterr().err
    assert not out.exists()


def test_non_finite_wire_delta_exits_3(tmp_path, capsys):
    import struct

    from gradzip.codec import lossless_compress

    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--backend", "store") == 0
    data = bytearray(out.read_bytes())
    payloads = read_frames(out)
    blob = payloads[1].blobs[0]
    # Store tag, blob tag u8, flags u8, mu f32, sigma f32, then delta f64.
    # The crafted blob carries a valid CRC.
    assert blob[:2] == b"S\x01"
    at = data.find(blob)
    # 1e308 is finite, but its bin width 2 * delta is not.
    for delta in (float("inf"), 1e308):
        inner = bytearray(blob[1:-4])
        inner[10:18] = struct.pack("<d", delta)
        data[at:at + len(blob)] = lossless_compress(bytes(inner), "store")
        bad = tmp_path / "bad.gzp"
        bad.write_bytes(bytes(data))
        assert run("decompress", bad, tmp_path / "r.gtrc") == 3
        assert run("inspect", bad) == 3
        assert "non-finite delta" in capsys.readouterr().err
        assert not (tmp_path / "r.gtrc").exists()


def test_non_finite_lossless_blob_exits_3(tmp_path, capsys):
    from dataclasses import replace

    from gradzip.codec import encode_planes, lossless_compress
    from gradzip.pipeline import frame_payload

    trace = make_trace(tmp_path, layers="conv:16x8x3x3,a:12,b:10", rounds=2, seed=1)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--backend", "store") == 0
    data = out.read_bytes()
    payloads = read_frames(out)
    header = data[:len(data) - sum(len(frame_payload(p)) for p in payloads)]
    # The lossless section of layers a and b by byte plane, b's first value
    # a NaN, stored with a valid CRC: the refusal names layer b.
    assert payloads[0].lossless.tolist() == [False, True, True]
    assert payloads[0].section[:1] == b"S"
    tensors = load_trace(trace).rounds[0]
    values = np.concatenate([tensors[1].values, tensors[2].values])
    values[12] = np.nan
    section = lossless_compress(encode_planes(values, [12, 10]), "store")
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(header + frame_payload(replace(payloads[0], section=section))
                    + frame_payload(payloads[1]))
    capsys.readouterr()
    assert run("inspect", bad) == 3
    assert run("decompress", bad, tmp_path / "r.gtrc") == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["gradzip: layer 'b': lossless section holds non-finite values"] * 2
    assert not (tmp_path / "r.gtrc").exists()


def _raw_deflate(*parts, finish=True):
    """Raw DEFLATE of the parts, with a block boundary between them."""
    import zlib

    deflate = zlib.compressobj(6, zlib.DEFLATED, -15)
    out = b"".join(deflate.compress(p) + deflate.flush(zlib.Z_BLOCK) for p in parts[:-1])
    out += deflate.compress(parts[-1])
    return out + deflate.flush(zlib.Z_FINISH if finish else zlib.Z_SYNC_FLUSH)


def _plane_cases():
    """(name, lossless section of layers a (12 elements) and b (10) from
    their values' planes, whether it is wrapped with a valid CRC32, exit
    code, message) for each refusal of a section."""
    from gradzip.codec import lossless_compress

    def section(planes, flags=(0, 0), high=None, stored=(2, 1, 0), tail=b""):
        high = _raw_deflate(planes[0][3], planes[1][3]) if high is None else high
        return bytes(flags) + high + b"".join(p[k] for k in stored for p in planes) + tail

    def crc_flip(planes):
        wrapped = bytearray(lossless_compress(section(planes), "store"))
        wrapped[len(wrapped) // 2] ^= 0x01
        return bytes(wrapped)

    def zero_plane(planes, layer):
        out = bytearray(section(planes))
        start = len(out) - 22 + 12 * layer  # plane 0: a's 12 bytes, then b's 10
        out[start:start + (12, 10)[layer]] = bytes((12, 10)[layer])
        return bytes(out)

    return [
        ("unknown flag bit", lambda p: section(p, flags=(0, 0x08)), True, 2,
         "layer 'b': unknown zero-plane flags 0x8"),
        ("short high plane", lambda p: section(p, high=_raw_deflate(p[0][3], p[1][3][:-1])),
         True, 3, "lossless section: high byte plane inflates to 21 bytes for 22 elements"),
        ("long high plane", lambda p: section(p, high=_raw_deflate(p[0][3], p[1][3] + b"\x00")),
         True, 3, "lossless section: high byte plane inflates past 22 bytes"),
        ("unended high plane",
         lambda p: section(p, flags=(7, 7), high=_raw_deflate(p[0][3], p[1][3], finish=False),
                           stored=()),
         True, 3, "lossless section: high byte plane corrupt: incomplete or truncated stream"),
        ("corrupt high plane", lambda p: section(p, high=b"\x07" + _raw_deflate(p[0][3], p[1][3])),
         True, 3, "lossless section: high byte plane corrupt: Error -3"),
        ("stored zero plane", lambda p: zero_plane(p, 1), True, 3,
         "layer 'b': stored byte plane 0 is all zero"),
        ("stored zero plane of a", lambda p: zero_plane(p, 0), True, 3,
         "layer 'a': stored byte plane 0 is all zero"),
        ("missing plane bytes", lambda p: section(p)[:-1], True, 3,
         "lossless section: truncated input: wanted 66 bytes"),
        ("missing plane", lambda p: section(p, stored=(2, 1)), True, 3,
         "lossless section: truncated input: wanted 66 bytes"),
        ("trailing plane bytes", lambda p: section(p, tail=b"\x01"), True, 3,
         "lossless section: trailing bytes"),
        ("crc flip", crc_flip, False, 3, "lossless section: stored payload corrupt: CRC32 mismatch"),
        ("deflate wrap", lambda p: lossless_compress(section(p)), False, 2,
         "lossless section: not a stored wrap"),
        ("too short", lambda p: lossless_compress(b"\x07", "store"), False, 3,
         "lossless section: a 6-byte section cannot hold its layers' 22 elements"),
    ]


@pytest.mark.parametrize("case", _plane_cases(), ids=lambda c: c[0])
def test_malformed_lossless_blob_exits_alike(tmp_path, capsys, case):
    # Each malformed lossless section, most stored with a valid CRC32:
    # decompress and inspect exit with the same code and the same message,
    # which names the layer whose bytes are at fault, or else the section.
    from dataclasses import replace

    from gradzip.codec import lossless_compress
    from gradzip.pipeline import frame_payload

    _, craft, wrap, code, message = case
    trace = make_trace(tmp_path, layers="conv:16x8x3x3,a:12,b:10", rounds=2, seed=1)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    data = out.read_bytes()
    payloads = read_frames(out)
    header = data[:len(data) - sum(len(frame_payload(p)) for p in payloads)]
    planes = []
    for g in load_trace(trace).rounds[0][1:]:
        raw = g.values.view(np.uint8).reshape(-1, 4)
        planes.append([raw[:, k].tobytes() for k in range(4)])
        assert all(any(p) for p in planes[-1])
    section = craft(planes)
    if wrap:
        section = lossless_compress(section, "store")
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(header + frame_payload(replace(payloads[0], section=section))
                    + frame_payload(payloads[1]))
    capsys.readouterr()
    assert run("inspect", bad) == code
    assert run("decompress", bad, tmp_path / "r.gtrc") == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0] == err[1]
    assert err[0].startswith("gradzip: " + "format error: " * (code == 2) + message)
    assert not (tmp_path / "r.gtrc").exists()


def test_nonzero_lossless_bitmap_padding_exits_3(tmp_path, capsys):
    # The frame's lossless-layer bitmap pads its 3 bits to a byte with zeros.
    from gradzip.pipeline import frame_payload

    trace = make_trace(tmp_path, layers="conv:16x8x3x3,a:12,b:10", rounds=2, seed=1)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    data = bytearray(out.read_bytes())
    payloads = read_frames(out)
    # The bitmap follows magic, version u16, client u32, round u32, the
    # layer-table digest and the layer count u32.
    at = len(data) - sum(len(frame_payload(p)) for p in payloads) + 4 + 2 + 4 + 4 + 8 + 4
    assert data[at] == 0b110
    data[at] |= 0x80
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(bytes(data))
    capsys.readouterr()
    assert run("inspect", bad) == 3
    assert run("decompress", bad, tmp_path / "r.gtrc") == 3
    err = capsys.readouterr().err.splitlines()
    assert err == ["gradzip: nonzero padding bits after a 3-bit field"] * 2
    assert not (tmp_path / "r.gtrc").exists()


def test_inflation_bomb_exits_3(tmp_path, capsys):
    from dataclasses import replace

    from gradzip.codec import lossless_compress
    from gradzip.pipeline import frame_payload

    trace = make_trace(tmp_path, layers="fc:8x8", rounds=1)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--t-lossy", "0") == 0
    data = out.read_bytes()
    payloads = read_frames(out)
    frame = frame_payload(payloads[0])
    assert data.endswith(frame)
    bomb = replace(payloads[0], blobs=[lossless_compress(bytes(64 << 20))])
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(data[: len(data) - len(frame)] + frame_payload(bomb))
    capsys.readouterr()
    assert run("decompress", bad, tmp_path / "r.gtrc") == 3
    assert run("inspect", bad) == 3
    captured = capsys.readouterr()
    assert "inflates past" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "r.gtrc").exists()


@pytest.mark.parametrize("backend", ["default", "store"])
def test_corrupt_layer_table_exits_2_or_3(tmp_path, backend):
    # Every frame is checked against the header's layer table before anything
    # is sized from it, so no corrupted axis drives an allocation.
    trace = make_trace(tmp_path, layers="conv:8x4x3x3,fc:40x40,b:10", rounds=3)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--backend", backend) == 0
    data = out.read_bytes()
    start = 4 + 2 + 1 + 4  # magic, version u16, mode u8, layer count u32
    table = encode_layer_table(load_trace(trace).layers)
    assert data[start:start + len(table)] == table
    bad = tmp_path / "bad.gzp"
    for off in range(start, start + len(table)):
        for byte in {0x01, data[off] ^ 0x80} - {data[off]}:
            bad.write_bytes(data[:off] + bytes([byte]) + data[off + 1:])
            assert run("decompress", bad, tmp_path / "r.gtrc") in (2, 3), off
            assert run("inspect", bad) in (2, 3), off
    assert not (tmp_path / "r.gtrc").exists()


def test_round_one_sign_bitmap_exits_3(tmp_path, capsys):
    from dataclasses import replace

    from gradzip.codec import lossless_compress
    from gradzip.pipeline import frame_payload
    from gradzip.predictor import VARIANT_FLIP, SignBitmap, encode_bitmap

    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--backend", "store") == 0
    data = out.read_bytes()
    payloads = read_frames(out)
    header = data[:len(data) - sum(len(frame_payload(p)) for p in payloads)]
    first = payloads[0]
    # Store tag, blob tag u8, flags u8, mu f32, sigma f32, delta f64, then
    # the bitmap's tag byte ("none"), which becomes a flip bit. The crafted
    # blob carries a valid CRC.
    blob = first.blobs[0]
    assert blob[:2] == b"S\x01" and blob[19:20] == b"\x00"
    inner = blob[1:19] + encode_bitmap(SignBitmap(VARIANT_FLIP, flip=True)) + blob[20:-4]
    blob = lossless_compress(inner, "store")
    tampered = replace(first, blobs=[blob] + first.blobs[1:])
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(header + frame_payload(tampered) + frame_payload(payloads[1]))
    assert run("decompress", bad, tmp_path / "r.gtrc") == 3
    assert run("inspect", bad) == 3
    assert capsys.readouterr().err.count("sign bitmap in round 1") == 2
    assert not (tmp_path / "r.gtrc").exists()


@pytest.mark.parametrize("layer", ["fc", "conv1"])
def test_kernel_bitmap_that_does_not_fit_exits_3(tmp_path, capsys, layer):
    # A round-2 kernel bitmap on a non-conv layer, or one kernel short of a
    # conv layer's count: both readers refuse it with the same message.
    from dataclasses import replace

    from gradzip.codec import lossless_compress
    from gradzip.pipeline import describe_payload, frame_payload
    from gradzip.predictor import VARIANT_KERNEL, SignBitmap, decode_bitmap, encode_bitmap
    from gradzip.trace import ByteReader

    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--backend", "store") == 0
    data = out.read_bytes()
    payloads = read_frames(out)
    header = data[:len(data) - sum(len(frame_payload(p)) for p in payloads)]
    layers = load_trace(trace).layers
    i = [spec.name for spec in layers].index(layer)
    blob = payloads[1].blobs[i]
    # Store tag, blob tag u8, flags u8, mu f32, sigma f32, delta f64, then
    # the bitmap; a stored blob ends with its CRC32. The crafted blob
    # carries a valid CRC.
    assert blob[:2] == b"S\x01"
    end = 19 + describe_payload(payloads[1], layers)[i].bitmap_bytes
    if layer == "fc":
        bitmap = SignBitmap(VARIANT_KERNEL, kernel_count=4, level1=np.zeros(4, bool),
                            level2=np.zeros(0, bool))
        message = "kernel bitmap for a non-conv4d layer"
    else:
        full = decode_bitmap(ByteReader(blob[19:end]))
        level1 = full.level1[:-1]
        bitmap = SignBitmap(VARIANT_KERNEL, kernel_count=level1.size, level1=level1,
                            level2=full.level2[:int(level1.sum())])
        message = f"bitmap covers {level1.size} kernels, layer has {full.kernel_count}"
    blobs = list(payloads[1].blobs)
    blobs[i] = lossless_compress(blob[1:19] + encode_bitmap(bitmap) + blob[end:-4], "store")
    bad = tmp_path / "bad.gzp"
    tampered = replace(payloads[1], blobs=blobs)
    bad.write_bytes(header + frame_payload(payloads[0]) + frame_payload(tampered))
    assert run("decompress", bad, tmp_path / "r.gtrc") == 3
    assert run("inspect", bad) == 3
    captured = capsys.readouterr()
    assert captured.err.count(message) == 2
    assert captured.out == ""
    assert not (tmp_path / "r.gtrc").exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
@pytest.mark.parametrize("field", ["mu", "sigma"])
@pytest.mark.parametrize("layer", ["conv1", "fc"])
def test_bad_mu_or_sigma_on_the_wire_exits_3(tmp_path, capsys, layer, field, value):
    # A round-2 lossy header whose mu or sigma is NaN, inf or negative (a
    # stored blob with a valid CRC): both readers refuse it with the same
    # message, before the prediction reads it.
    import struct
    from dataclasses import replace

    from gradzip.codec import lossless_compress
    from gradzip.pipeline import frame_payload

    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--backend", "store") == 0
    data = out.read_bytes()
    payloads = read_frames(out)
    header = data[:len(data) - sum(len(frame_payload(p)) for p in payloads)]
    i = [spec.name for spec in load_trace(trace).layers].index(layer)
    blob = payloads[1].blobs[i]
    assert blob[:2] == b"S\x01"
    # Store tag, then the inner blob: tag u8, flags u8, mu f32, sigma f32.
    inner = bytearray(blob[1:-4])
    struct.pack_into("<f", inner, {"mu": 2, "sigma": 6}[field], value)
    blobs = list(payloads[1].blobs)
    blobs[i] = lossless_compress(bytes(inner), "store")
    bad = tmp_path / "bad.gzp"
    tampered = replace(payloads[1], blobs=blobs)
    bad.write_bytes(header + frame_payload(payloads[0]) + frame_payload(tampered))
    assert run("decompress", bad, tmp_path / "r.gtrc") == 3
    assert run("inspect", bad) == 3
    captured = capsys.readouterr()
    assert captured.err.count(f"layer {layer!r}: negative or non-finite mu or sigma") == 2
    assert captured.out == ""
    assert not (tmp_path / "r.gtrc").exists()


def test_bin_cap_exceeded_on_the_wire_exits_3(tmp_path, capsys):
    import struct
    from dataclasses import replace

    from gradzip.codec import DEFAULT_BIN_CAP, lossless_compress
    from gradzip.pipeline import frame_payload

    trace = make_trace(tmp_path, rounds=1)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--backend", "store") == 0
    data = out.read_bytes()
    (first,) = read_frames(out)
    header = data[:len(data) - len(frame_payload(first))]
    # Store tag, blob tag u8, flags u8, mu f32, sigma f32, delta f64, the
    # round-1 bitmap tag ("none"), then the Huffman block's min symbol i32,
    # table span u32, bit count u64 and code lengths. The table is moved up
    # to end at DEFAULT_BIN_CAP + 1, or two of its codes get length 1, which
    # over-subscribes the code space. Each crafted blob carries a valid CRC,
    # and both readers refuse it on the table alone.
    blob = first.blobs[0]
    assert blob[:2] == b"S\x01" and blob[19:20] == b"\x00"
    (span,) = struct.unpack_from("<I", blob, 24)
    lengths = bytearray(blob[36:36 + span])
    for i in np.flatnonzero(lengths)[:2]:
        lengths[i] = 1
    crafted = {
        "exceeds DEFAULT_BIN_CAP":
            blob[1:20] + struct.pack("<i", DEFAULT_BIN_CAP + 2 - span) + blob[24:-4],
        "over-subscribe the code space": blob[1:36] + lengths + blob[36 + span:-4],
    }
    bad = tmp_path / "bad.gzp"
    for message, inner in crafted.items():
        tampered = replace(first, blobs=[lossless_compress(inner, "store")] + first.blobs[1:])
        bad.write_bytes(header + frame_payload(tampered))
        capsys.readouterr()
        assert run("decompress", bad, tmp_path / "r.gtrc") == 3
        assert run("inspect", bad) == 3
        assert capsys.readouterr().err.count(message) == 2
        assert not (tmp_path / "r.gtrc").exists()


def test_nonzero_padding_bits_exit_3(tmp_path, capsys):
    # The bits that pad a Huffman bitstream, the literal mask and each level
    # of a kernel sign bitmap to whole bytes are zero on the wire. One set
    # padding bit, in a blob that carries a valid CRC, is refused by both
    # readers.
    from dataclasses import replace

    from gradzip.codec import decode_block, lossless_compress
    from gradzip.pipeline import frame_payload
    from gradzip.predictor import decode_bitmap
    from gradzip.trace import ByteReader

    trace = make_trace(tmp_path, layers="conv:16x8x3x3,fc:41x39,b:10", rounds=3, seed=1)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--backend", "store") == 0
    payloads = read_frames(out)
    frames = [frame_payload(p) for p in payloads]
    data = out.read_bytes()
    header = data[:len(data) - sum(map(len, frames))]

    def padded_bytes(r, i, numel):
        # Store tag, then blob tag u8, flags u8, mu f32, sigma f32, delta f64.
        inner = payloads[r].blobs[i][1:-4]
        reader = ByteReader(inner)
        reader.take(18)
        bitmap = decode_bitmap(reader)
        bitmap_end = reader.pos
        block = decode_block(reader)
        stream_end = reader.pos
        mask_end = stream_end + 4 + (numel + 7) // 8  # literal count u32, mask
        return inner, {
            "level-2 bitmap": (bitmap_end - 1, bitmap.predicted_count),
            "Huffman stream": (stream_end - 1, block.bit_count),
            "literal mask": (mask_end - 1, numel),
        }

    fc_inner, fc_ends = padded_bytes(0, 1, 41 * 39)
    conv_inner, conv_ends = padded_bytes(1, 0, 16 * 8 * 9)
    cases = [
        (0, 1, fc_inner, *fc_ends["Huffman stream"], 0x01),  # MSB-first: low bits pad
        (0, 1, fc_inner, *fc_ends["literal mask"], 0x80),  # LSB-first: high bits pad
        (1, 0, conv_inner, *conv_ends["level-2 bitmap"], 0x80),
    ]
    bad = tmp_path / "bad.gzp"
    for r, i, inner, at, bits, flip in cases:
        assert bits % 8, "the field must end in padding bits"
        tampered = bytearray(inner)
        tampered[at] ^= flip
        blobs = list(payloads[r].blobs)
        blobs[i] = lossless_compress(bytes(tampered), "store")
        frame = frame_payload(replace(payloads[r], blobs=blobs))
        bad.write_bytes(header + b"".join(frames[:r]) + frame + b"".join(frames[r + 1:]))
        capsys.readouterr()
        assert run("decompress", bad, tmp_path / "r.gtrc") == 3
        assert run("inspect", bad) == 3
        assert capsys.readouterr().err.count("nonzero padding bits") == 2
        assert not (tmp_path / "r.gtrc").exists()


@pytest.mark.parametrize("argv", [
    ("compress", "{t}", "{dir}/x.gzs", "--csv", "{dir}/x.gzs"),
    ("compress", "{t}", "{t}"),
    ("compress", "{t}", "{dir}/x.gzs", "--csv", "{dir}/sub/../t.gtrc"),
    ("compress", "{dir}/link.gtrc", "{t}"),
    ("decompress", "{s}", "{s}"),
    ("decompress", "{s}", "{t}", "--reference", "{t}"),
    ("simulate", "{t}", "--csv", "{t}"),
])
def test_output_naming_an_input_or_the_other_output_exits_1(tmp_path, capsys, argv):
    # Renaming an output into place would replace that input, or the other
    # output: the clash is a usage error, no file is written and none changes.
    t = make_trace(tmp_path, rounds=2, layers="fc:64x16")
    s = tmp_path / "s.gzs"
    assert run("compress", t, s) == 0
    (tmp_path / "sub").mkdir()
    (tmp_path / "link.gtrc").symlink_to(t)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
    capsys.readouterr()
    assert run(*(a.format(t=t, s=s, dir=tmp_path) for a in argv)) == 1
    assert capsys.readouterr().err.startswith("gradzip: usage error:")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_full_batch_follows_the_trace_mode(tmp_path, capsys):
    # Only synth sets the training mode; the commands that code a trace read
    # it from the trace and take no override.
    trace = make_trace(tmp_path, rounds=3, full_batch=True)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    assert run("inspect", out) == 0
    assert "full_batch 1" in capsys.readouterr().out
    for argv in (("compress", trace, tmp_path / "x.gzp"), ("simulate", trace), ("bench",)):
        assert run(*argv, "--full-batch") == 1
        assert "--full-batch" in capsys.readouterr().err
    assert not (tmp_path / "x.gzp").exists()


def test_out_of_memory_exits_1_without_a_traceback(tmp_path):
    # 10**10 elements need 80 GB for one generator array: under a 4 GB
    # address-space cap, synth reports that in one line and writes nothing.
    out = tmp_path / "big.gtrc"
    proc = run_child("synth", out, "--layers", "a:100000x100000", address_space=4 << 30)
    assert proc.returncode == 1
    assert proc.stderr.startswith("gradzip: out of memory:")
    assert "Traceback" not in proc.stderr
    assert not out.exists()


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


@pytest.mark.parametrize("argv", [
    ("simulate", "{trace}", "--bandwidths", "inf", "--csv", "{out}"),
    ("simulate", "{trace}", "--bandwidths", "1e400", "--csv", "{out}"),
    ("simulate", "{trace}", "--bandwidths", "10,nan", "--csv", "{out}"),
    ("simulate", "{trace}", "--bandwidths", "10", "--t-comp", "nan", "--csv", "{out}"),
    ("simulate", "{trace}", "--bandwidths", "10", "--t-comp", "inf", "--csv", "{out}"),
    ("simulate", "{trace}", "--bandwidths", "10", "--t-decomp", "inf", "--csv", "{out}"),
    ("synth", "{out}", "--layers", "fc:64x16", "--noise", "nan"),
    ("synth", "{out}", "--layers", "fc:64x16", "--noise", "inf"),
])
def test_non_finite_model_inputs_exit_1(tmp_path, capsys, argv):
    # The communication model and the generator take finite inputs only: a
    # non-finite one is a usage error, with no traceback and no output file.
    trace = make_trace(tmp_path, rounds=3, layers="fc:64x16")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(*(a.format(trace=trace, out=out) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith("gradzip: usage error:")
    assert "Traceback" not in err
    assert not out.exists()


FUZZ_LAYERS = "conv:8x4x3x3,fc:40x40,b:10"


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["default", "store"])
def test_stream_fuzz_never_decodes_silently(tmp_path, backend):
    # Every single-byte mutation (0x01 and xor 0x80) and every truncation of
    # a valid stream: decompress exits 2 or 3, or exits 0 with the untampered
    # output. No other exception may escape. A stored stream decodes only
    # when the byte is a frame's client id, which no reconstruction reads.
    import contextlib
    import io

    from gradzip.pipeline import frame_payload

    trace = make_trace(tmp_path, layers=FUZZ_LAYERS, rounds=3)
    out, rec = tmp_path / "t.gzp", tmp_path / "r.gtrc"
    assert run("compress", trace, out, "--backend", backend) == 0
    assert run("decompress", out, rec) == 0
    data, want = out.read_bytes(), rec.read_bytes()
    payloads = read_frames(out)
    client_ids, at = set(), len(data) - sum(len(frame_payload(p)) for p in payloads)
    for p in payloads:
        client_ids |= set(range(at + 6, at + 10))  # after magic and version
        at += len(frame_payload(p))
    cases = [
        (off, data[:off] + bytes([byte]) + data[off + 1:])
        for off in range(len(data))
        for byte in sorted({0x01, data[off] ^ 0x80} - {data[off]})
    ]
    cases += [(None, data[:cut]) for cut in range(len(data))]
    bad, problems, decoded = tmp_path / "bad.gzp", [], set()
    for off, case in cases:
        bad.write_bytes(case)
        rec.unlink(missing_ok=True)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = run("decompress", bad, rec)
        except Exception as exc:
            problems.append((off, len(case), repr(exc)))
            continue
        if code == 0:
            decoded.add(off)
            if rec.read_bytes() != want:
                problems.append((off, len(case), "exit 0 with a changed reconstruction"))
        elif code not in (2, 3):
            problems.append((off, len(case), f"exit {code}"))
    assert problems == []
    assert 6 not in decoded  # the stream header's mode byte
    if backend == "store":
        assert decoded <= client_ids


# What decompress may refuse while inspect, which decodes no bins, passes.
NEEDS_BINS = (
    "invalid Huffman code in bitstream, or no code boundary",
    "bins for a",
    "bins under the literal mask must be zero",
    "the payload's state digest differs",
)


@pytest.mark.slow
def test_inner_blob_fuzz_both_readers_agree(tmp_path):
    # Every 4th byte of each lossy inner blob and of round 1's lossless
    # section of the fuzz stream set to 0x00, 0x01, 0xff and xor 0x80, and
    # each cut at every 4th length, then re-wrapped as a stored blob with a
    # valid CRC32, so each case reaches the parser. decompress and inspect
    # exit 2 or 3, or 0; decompress exits 0 only with the untampered output,
    # apart from the values the section carries, and inspect refuses
    # whatever decompress refuses without decoding bins. Every refusal of a
    # blob names its layer, and every refusal of the section names one of
    # its layers or the section; where both readers refuse they print the
    # same message. A section that decodes must give what a plain reading of
    # its byte planes gives. The section parses the same in every round, so
    # only round 1's is mutated. A case in round r is a stream of rounds
    # 1..r, so no later round is decoded.
    import contextlib
    import io
    import zlib
    from dataclasses import replace

    from gradzip.codec import lossless_compress, lossless_decompress
    from gradzip.pipeline import _max_inner_bytes, frame_payload
    from gradzip.trace import GradientTensor

    rec = tmp_path / "r.gtrc"
    streams, heads = [], []
    for rounds in (1, 2, 3):
        trace = make_trace(tmp_path, f"t{rounds}.gtrc", layers=FUZZ_LAYERS, rounds=rounds)
        out = tmp_path / f"t{rounds}.gzp"
        assert run("compress", trace, out) == 0
        payloads = read_frames(out)
        frames = [frame_payload(p) for p in payloads]
        streams.append(out.read_bytes())
        heads.append(streams[-1][:len(streams[-1]) - sum(map(len, frames))])
    assert run("decompress", out, rec) == 0
    want = load_trace(rec).rounds
    # Each shorter stream is the 3-round fuzz stream's first rounds.
    assert streams == [heads[r] + b"".join(frames[:r + 1]) for r in range(3)]
    section = np.flatnonzero(payloads[0].lossless).tolist()
    lossy = np.flatnonzero(~payloads[0].lossless).tolist()
    sizes = [want[0][i].spec.numel for i in section]
    assert section and lossy

    def cases():
        for r, p in enumerate(payloads):
            parts = [(None, p.section[1:-4])] if r == 0 else []
            parts += [(k, lossless_decompress(blob, _max_inner_bytes(want[r][i].spec.numel)))
                      for k, (i, blob) in enumerate(zip(lossy, p.blobs))]
            for k, inner in parts:
                for off in range(0, len(inner), 4):
                    for byte in sorted({0x00, 0x01, 0xFF, inner[off] ^ 0x80} - {inner[off]}):
                        yield r, k, inner[:off] + bytes([byte]) + inner[off + 1:]
                    yield r, k, inner[:off]

    def raw(rounds):
        return [[g.values.tobytes() for g in tensors] for tensors in rounds]

    def planes_of(inner):
        # Zero-plane flags per layer, one raw DEFLATE stream of the high
        # bytes, then planes 2, 1 and 0 of each layer whose flag bit is clear.
        flags, at = inner[:len(sizes)], np.cumsum([0] + sizes)
        inflate = zlib.decompressobj(-15)
        out = np.zeros((at[-1], 4), dtype=np.uint8)
        out[:, 3] = np.frombuffer(inflate.decompress(inner[len(sizes):]), dtype=np.uint8)
        rest = inflate.unused_data
        for k in (2, 1, 0):
            for j, size in enumerate(sizes):
                if not flags[j] >> k & 1:
                    out[at[j]:at[j + 1], k] = np.frombuffer(rest[:size], dtype=np.uint8)
                    rest = rest[size:]
        values = out.view("<f4").reshape(-1)
        return [values[at[j]:at[j + 1]] for j in range(len(sizes))]

    def run_quiet(*argv):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(*argv)
        return code, err.getvalue()

    bad, problems, count, lossless_decoded = tmp_path / "bad.gzp", [], 0, 0
    for r, k, inner in cases():
        count += 1
        if k is None:
            tampered = replace(payloads[r], section=lossless_compress(inner, "store"))
            names = ["lossless section"] + [f"layer {want[r][i].spec.name!r}" for i in section]
        else:
            blobs = list(payloads[r].blobs)
            blobs[k] = lossless_compress(inner, "store")
            tampered = replace(payloads[r], blobs=blobs)
            names = [f"layer {want[r][lossy[k]].spec.name!r}"]
        bad.write_bytes(heads[r] + b"".join(frames[:r]) + frame_payload(tampered))
        where = (r + 1, k, inner.hex())
        rec.unlink(missing_ok=True)
        try:
            code, err = run_quiet("decompress", bad, rec)
            seen, seen_err = run_quiet("inspect", bad)
        except Exception as exc:
            problems.append((where, repr(exc)))
            continue
        if code not in (0, 2, 3) or seen not in (0, 2, 3):
            problems.append((where, f"exit {code} / {seen}"))
        elif code == 0:
            expect = [list(t) for t in want[:r + 1]]
            if k is None:  # the values are the data itself
                for i, values in zip(section, planes_of(inner)):
                    expect[r][i] = GradientTensor(want[r][i].spec, values)
                    lossless_decoded += values.tobytes() != want[r][i].values.tobytes()
            if raw(load_trace(rec).rounds) != raw(expect):
                problems.append((where, "exit 0 with a changed reconstruction"))
        elif not any(f"gradzip: {'format error: ' * (code == 2)}{name}: " in err for name in names):
            problems.append((where, f"refusal names no layer: {err.strip()}"))
        elif seen == 0 and not any(m in err for m in NEEDS_BINS):
            problems.append((where, f"inspect passes what decompress refuses: {err.strip()}"))
        elif seen and seen_err != err:
            problems.append((where, f"readers differ: {err.strip()} / {seen_err.strip()}"))
    assert count > 4000
    assert problems == []
    assert lossless_decoded


def test_predictor_params_travel_in_the_header(tmp_path, capsys):
    trace = make_trace(tmp_path, rounds=4)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--beta", "0.3", "--tau", "0.9") == 0
    assert run("decompress", out, tmp_path / "r.gtrc", "--reference", trace) == 0
    assert capsys.readouterr().out.startswith("bound OK")
    assert run("inspect", out) == 0
    assert "predict beta 0.3 tau 0.9 full_batch 0" in capsys.readouterr().out
    # There is nothing left for decompress to be told.
    assert run("decompress", out, tmp_path / "x.gtrc", "--beta", "0.5") == 1
    assert "--beta" in capsys.readouterr().err
    assert not (tmp_path / "x.gtrc").exists()


def test_version_1_stream_exits_2(tmp_path, capsys):
    import struct

    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    data = bytearray(out.read_bytes())
    assert data[4:6] == struct.pack("<H", 4)
    data[4:6] = struct.pack("<H", 1)
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(bytes(data))
    assert run("decompress", bad, tmp_path / "r.gtrc") == 2
    assert run("inspect", bad) == 2
    err = capsys.readouterr().err
    assert err.count("unsupported version 1") == 2


def _older_version_exits_2(tmp_path, capsys, version):
    """A stream header of the given older version, or a frame of it under a
    version 4 header, is refused by both readers."""
    import struct

    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    data = out.read_bytes()
    frame = data.index(b"GEBC")
    assert data[4:6] == data[frame + 4:frame + 6] == struct.pack("<H", 4)
    bad = tmp_path / "bad.gzp"
    for at, message in ((4, f"payload stream: unsupported version {version}"),
                        (frame + 4, f"unsupported payload version {version}")):
        bad.write_bytes(data[:at] + struct.pack("<H", version) + data[at + 2:])
        assert run("decompress", bad, tmp_path / "r.gtrc") == 2
        assert run("inspect", bad) == 2
        assert capsys.readouterr().err.count(message) == 2
    assert not (tmp_path / "r.gtrc").exists()


def test_version_2_stream_exits_2(tmp_path, capsys):
    # Version 3 changed the lossless blob.
    _older_version_exits_2(tmp_path, capsys, 2)


def test_version_3_stream_exits_2(tmp_path, capsys):
    # Version 4 put every lossless layer of a round in one section.
    _older_version_exits_2(tmp_path, capsys, 3)


def test_mode_byte_flip_exits_3(tmp_path, capsys):
    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    data = bytearray(out.read_bytes())
    data[6] ^= 0x01  # magic 4, version u16, then the mode byte
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(bytes(data))
    assert run("decompress", bad, tmp_path / "r.gtrc") == 3
    assert "header digest" in capsys.readouterr().err
    assert not (tmp_path / "r.gtrc").exists()


@pytest.mark.parametrize("field,value,message", [
    (0, 1.5, "beta"),
    (0, float("nan"), "beta"),
    (1, -0.1, "tau"),
    (2, 2, "full_batch"),
])
def test_out_of_range_wire_params_exit_2(tmp_path, capsys, field, value, message):
    # A crafted header with a valid digest still cannot carry parameters the
    # predictor rejects: that is a malformed file, not a usage error.
    import struct
    from hashlib import blake2b

    trace = make_trace(tmp_path, rounds=2, layers="fc:64x16")
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out) == 0
    data = out.read_bytes()
    table = encode_layer_table(load_trace(trace).layers)
    start = 4 + 2 + 1 + 4 + len(table) + 4  # then beta f64, tau f64, full_batch u8
    params = list(struct.unpack_from("<ddB", data, start))
    assert params == [0.5, 0.5, 0]
    params[field] = value
    head = data[:start] + struct.pack("<ddB", *params)
    end = start + struct.calcsize("<ddB")
    bad = tmp_path / "bad.gzp"
    bad.write_bytes(head + blake2b(head, digest_size=8).digest() + data[end + 8:])
    assert run("decompress", bad, tmp_path / "r.gtrc") == 2
    assert run("inspect", bad) == 2
    err = capsys.readouterr().err
    assert err.count("format error") == 2 and message in err


def traced_run(*argv):
    """Exit code and tracemalloc peak, in bytes, of one command."""
    import tracemalloc

    tracemalloc.start()
    try:
        code = run(*argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_stays_at_about_one_round(tmp_path, capsys):
    # synth, compress, decompress and simulate hold one round at a time, so
    # four times the rounds may not raise their peak by as much as one more
    # round would.
    layers = "conv:32x16x3x3,fc:256x128,b:10"
    round_bytes = 4 * (32 * 16 * 9 + 256 * 128 + 10)
    # The first traced command in a process pays for one-time allocations.
    assert traced_run("synth", tmp_path / "w.gtrc", "--layers", "b:10", "--rounds", 1)[0] == 0
    peaks = {}
    for rounds in (3, 12):
        trace = tmp_path / f"t{rounds}.gtrc"
        code, peaks["synth", rounds] = traced_run(
            "synth", trace, "--layers", layers, "--rounds", rounds, "--seed", 5
        )
        assert code == 0
        out = tmp_path / f"t{rounds}.gzp"
        code, peaks["compress", rounds] = traced_run("compress", trace, out)
        assert code == 0
        code, peaks["decompress", rounds] = traced_run("decompress", out, tmp_path / "r.gtrc")
        assert code == 0
        code, peaks["simulate", rounds] = traced_run("simulate", trace, "--csv", tmp_path / "s.csv")
        assert code == 0
    for command in ("synth", "compress", "decompress", "simulate"):
        assert abs(peaks[command, 12] - peaks[command, 3]) < round_bytes, peaks
    capsys.readouterr()


def test_one_predictor_state_at_a_time(tmp_path, capsys):
    # compress and decompress advance one predictor state in place. The
    # state costs 12 bytes per lossy element (an f64 memory and an f32
    # reconstruction), so a second one would lift either peak past its
    # budget, in bytes per element of the one large layer.
    n = 512 * 512
    trace = make_trace(tmp_path, rounds=3, layers="fc:512x512,b:10")
    out = tmp_path / "t.gzp"
    code, compress_peak = traced_run("compress", trace, out)
    assert code == 0
    code, decompress_peak = traced_run("decompress", out, tmp_path / "r.gtrc")
    assert code == 0
    assert compress_peak < 44 * n, compress_peak / n
    assert decompress_peak < 34 * n, decompress_peak / n
    capsys.readouterr()


def test_overlong_declarations_are_rejected_before_reading(tmp_path, capsys):
    # A declared length or count that runs past the end of the file fails
    # with a format or integrity error before anything is read or allocated
    # for it, and leaves no output.
    import struct

    from gradzip.pipeline import frame_payload

    limit = 2 << 20
    small = make_trace(tmp_path, "small.gtrc", rounds=3)
    stream = tmp_path / "t.gzp"
    assert run("compress", small, stream) == 0
    data = stream.read_bytes()
    frames = read_frames(stream)
    header = len(data) - sum(len(frame_payload(p)) for p in frames)
    # The first blob length follows magic, version u16, client u32, round
    # u32, digest 8 bytes, the layer count u32 and the lossless-layer bitmap
    # (no layer is lossless, so no section follows).
    at = header + 4 + 2 + 4 + 4 + 8 + 4 + 1
    assert struct.unpack_from("<I", data, at)[0] == len(frames[0].blobs[0])
    long_blob = data[:at] + struct.pack("<I", 0xFFFFFFFF) + data[at + 4:]
    extra_frame = data + frame_payload(frames[-1])
    # An 8 MB trace whose header declares one round more than it holds.
    big = make_trace(tmp_path, "big.gtrc", rounds=8, layers="fc:512x512")
    big_stream = tmp_path / "big.gzp"
    assert run("compress", big, big_stream) == 0
    raw = bytearray(big.read_bytes())
    at = raw.index(b"fc") + 2 + 1 + 4 + 4  # name, axis count u8, two u32 axes
    assert struct.unpack_from("<I", raw, at)[0] == 8
    struct.pack_into("<I", raw, at, 9)
    short_trace = tmp_path / "short.gtrc"
    short_trace.write_bytes(bytes(raw))
    bad = tmp_path / "bad.gzp"
    out = tmp_path / "out"
    cases = [
        (long_blob, ("decompress", bad, out)),
        (long_blob, ("inspect", bad)),
        (extra_frame, ("decompress", bad, out)),
        (extra_frame, ("inspect", bad)),
        (None, ("compress", short_trace, out)),
        (None, ("decompress", big_stream, out, "--reference", short_trace)),
        (None, ("simulate", short_trace, "--csv", out)),
    ]
    for case, argv in cases:
        if case is not None:
            bad.write_bytes(case)
        code, peak = traced_run(*argv)
        assert code in (2, 3), argv
        assert peak < limit, (argv, peak)
        assert not out.exists()
    captured = capsys.readouterr()
    assert captured.err.count("declares 3 rounds but contains 4") == 2
    assert captured.err.count("header declares") == 3


def crafted_stream(layers, rounds):
    """A stream whose header declares layers and whose frame r holds the
    blobs rounds[r - 1], with a valid header digest and layer-table digest."""
    from gradzip.cli import _stream_header
    from gradzip.pipeline import CompressedPayload, frame_payload, spec_digest
    from gradzip.predictor import PredictParams

    head = _stream_header(MODE_MINI_BATCH, layers, len(rounds), PredictParams())
    return head + b"".join(
        frame_payload(CompressedPayload(
            0, r, spec_digest(layers), np.zeros(len(layers), bool), b"", blobs
        ))
        for r, blobs in enumerate(rounds, 1)
    )


@pytest.mark.parametrize("shape,backend", [
    ((1048576, 1024), "store"),
    ((65536, 65536, 3, 3), "store"),
    ((2147483648, 2147483648), "store"),
    ((2147483648, 2147483648), "default"),
])
def test_layer_larger_than_its_blob_exits_3(tmp_path, shape, backend):
    # A 10-byte blob for a layer no blob that short can code: both readers
    # refuse the stream by its bytes, before the layer table sizes any
    # memory, so they finish under a 4 GB address-space cap.
    from gradzip.codec import lossless_compress
    from gradzip.trace import LayerSpec

    spec = LayerSpec("big", shape)
    blob = lossless_compress(bytes(5) if backend == "store" else b"\x00", backend)
    assert len(blob) == 10
    bad, out = tmp_path / "bad.gzp", tmp_path / "r.gtrc"
    bad.write_bytes(crafted_stream([spec], [[blob]]))
    message = f"gradzip: layer 'big': a 10-byte blob cannot hold {spec.numel} elements\n"
    for argv in (("decompress", bad, out), ("inspect", bad)):
        proc = run_child(*argv, address_space=4 << 30)
        assert (proc.returncode, proc.stderr, proc.stdout) == (3, message, ""), argv
    assert not out.exists()


def test_header_fuzz_both_readers_agree(tmp_path):
    # Every byte of each axis word in the stream header's layer table set to
    # 0x00, 0x01, 0xff and xor 0x80, with the header digest and every
    # frame's layer-table digest recomputed, so each case reaches the frame
    # checks: decompress and inspect exit alike, with 0, 2 or 3.
    import contextlib
    import io
    import struct
    from hashlib import blake2b

    from gradzip.pipeline import frame_payload

    trace = make_trace(tmp_path, layers=FUZZ_LAYERS, rounds=2)
    stream = tmp_path / "t.gzp"
    assert run("compress", trace, stream) == 0
    data = stream.read_bytes()
    layers = load_trace(trace).layers
    table = encode_layer_table(layers)
    start = 4 + 2 + 1 + 4  # magic, version u16, mode u8, layer count u32
    assert data[start:start + len(table)] == table
    end = start + len(table) + 4 + struct.calcsize("<ddB")  # rounds u32, parameters
    frames = bytearray(data[end + 8:])
    digests, at = [], 0  # each frame's digest follows magic, version, client and round
    for p in read_frames(stream):
        digests.append(at + 4 + 2 + 4 + 4)
        at += len(frame_payload(p))
    words, at = [], 0
    for spec in layers:
        at += 2 + len(spec.name.encode()) + 1  # name length u16, name, axis count u8
        words += range(at, at + 4 * len(spec.shape))
        at += 4 * len(spec.shape)
    bad, out, problems, count = tmp_path / "bad.gzp", tmp_path / "r.gtrc", [], 0

    def run_quiet(*argv):
        with contextlib.redirect_stderr(io.StringIO()), contextlib.redirect_stdout(io.StringIO()):
            return run(*argv)

    for off in words:
        for byte in sorted({0x00, 0x01, 0xFF, table[off] ^ 0x80} - {table[off]}):
            count += 1
            mutated = table[:off] + bytes([byte]) + table[off + 1:]
            head = data[:start] + mutated + data[start + len(table):end]
            for d in digests:
                frames[d:d + 8] = blake2b(mutated, digest_size=8).digest()
            bad.write_bytes(head + blake2b(head, digest_size=8).digest() + frames)
            try:
                codes = run_quiet("decompress", bad, out), run_quiet("inspect", bad)
            except Exception as exc:
                problems.append((off, byte, repr(exc)))
                continue
            if codes[0] != codes[1] or codes[0] not in (0, 2, 3):
                problems.append((off, byte, codes))
    assert count > 90
    assert problems == []


def test_stream_faults_are_found_before_the_first_decode(tmp_path, capsys, monkeypatch):
    # Every frame's framing, then the round count, then every frame against
    # the layer table: a fault in the last frame stops the command before
    # any frame is decoded, and a framing fault outranks a layer-table
    # mismatch in an earlier frame. Frame k must carry round k.
    import struct

    import gradzip.cli as cli
    from gradzip.pipeline import frame_payload
    from gradzip.trace import LayerSpec

    trace = make_trace(tmp_path, rounds=3)
    stream = tmp_path / "t.gzp"
    assert run("compress", trace, stream) == 0
    data = stream.read_bytes()
    frames = read_frames(stream)
    header = len(data) - sum(len(frame_payload(p)) for p in frames)
    digest_at = header + 4 + 2 + 4 + 4  # magic, version u16, client u32, round u32
    wrong_digest = bytearray(data)
    wrong_digest[digest_at] ^= 0xFF
    round_at = header + len(frame_payload(frames[0])) + 4 + 2 + 4  # frame 2's round u32
    assert struct.unpack_from("<I", data, round_at)[0] == 2
    out_of_sequence = bytearray(data)
    struct.pack_into("<I", out_of_sequence, round_at, 3)
    # Blobs of 100 bytes, the fewest a layer of 4128 * 100 elements can be
    # coded in, then one byte short in the last frame.
    big = LayerSpec("big", (4128, 100))
    short_blob = crafted_stream([big], [[bytes(100)], [bytes(100)], [bytes(99)]])
    decodes = []
    monkeypatch.setattr(cli, "decode_payload", lambda *a: decodes.append(a) or 1 / 0)
    bad = tmp_path / "bad.gzp"
    out = tmp_path / "out"
    cases = [
        (data[:-1], 2, "truncated input"),
        (bytes(wrong_digest[:-1]), 2, "truncated input"),
        (data + frame_payload(frames[-1]), 3, "declares 3 rounds but contains 4"),
        (bytes(wrong_digest) + frame_payload(frames[-1]), 3, "declares 3 rounds but contains 4"),
        (bytes(wrong_digest), 3, "does not match the layer table"),
        (bytes(out_of_sequence), 3, "payload is round 3, stream expects 2"),
        (short_blob, 3, "layer 'big': a 99-byte blob cannot hold 412800 elements"),
    ]
    for case, code, message in cases:
        bad.write_bytes(case)
        for argv in (("decompress", bad, out), ("inspect", bad)):
            assert run(*argv) == code, (message, argv)
            assert message in capsys.readouterr().err, (message, argv)
            assert not out.exists()
    assert decodes == []


@pytest.mark.parametrize("message", [
    "payload declares zero layers",
    "layer 'fc': unknown blob flags",
    "layer 'fc': sign bitmap present without prediction",
    "layer 'fc': flip bit byte must be 0 or 1",
    "layer 'fc': Huffman table declares no symbols",
])
def test_crafted_wire_faults_exit_alike(tmp_path, capsys, message):
    # Round 2 of a stored stream, with one field crafted: a frame with no
    # blobs, or layer fc's blob stored again with a valid CRC32. Both readers
    # refuse it with the same exit code and message.
    import struct
    from dataclasses import replace

    from gradzip.codec import lossless_compress
    from gradzip.pipeline import frame_payload

    trace = make_trace(tmp_path, rounds=2)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--backend", "store") == 0
    data = out.read_bytes()
    payloads = read_frames(out)
    header = data[:len(data) - sum(len(frame_payload(p)) for p in payloads)]
    # fc's inner blob: tag u8, flags u8 (prediction), mu f32, sigma f32,
    # delta f64, the bitmap's tag byte ("none") at 18, then the Huffman
    # block: min symbol i32, table span u32, bit count u64 and the code
    # lengths from 35.
    blob = payloads[1].blobs[2]
    assert blob[:3] == b"S\x01\x01" and blob[19] == 0
    inner = blob[1:-4]
    (span,) = struct.unpack_from("<I", inner, 23)
    crafted = {
        "unknown blob flags": (2, inner[:1] + b"\x03" + inner[2:]),
        # A flip bitmap (tag 1, flip byte 0) with the prediction flag clear.
        "sign bitmap present without prediction":
            (3, inner[:1] + b"\x00" + inner[2:18] + b"\x01\x00" + inner[19:]),
        "flip bit byte must be 0 or 1": (2, inner[:18] + b"\x01\x02" + inner[19:]),
        "Huffman table declares no symbols": (3, inner[:35] + bytes(span) + inner[35 + span:]),
    }
    if message == "payload declares zero layers":
        code, tampered = 2, replace(payloads[1], lossless=np.zeros(0, bool), blobs=[])
    else:
        code, inner = crafted[message.removeprefix("layer 'fc': ")]
        blobs = list(payloads[1].blobs)
        blobs[2] = lossless_compress(inner, "store")
        tampered = replace(payloads[1], blobs=blobs)
    bad, r = tmp_path / "bad.gzp", tmp_path / "r.gtrc"
    bad.write_bytes(header + frame_payload(payloads[0]) + frame_payload(tampered))
    capsys.readouterr()
    errs = []
    for argv in (("decompress", bad, r), ("inspect", bad)):
        assert run(*argv) == code, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        errs.append(captured.err)
    assert errs[0] == errs[1]
    assert errs[0].startswith("gradzip: " + "format error: " * (code == 2) + message)
    assert not r.exists()


def test_overflowing_lossy_blob_is_refused_in_its_layer_step(tmp_path, capsys):
    # Round 2 of layer fc, stored, with delta 1e38: most bin centres pass the
    # float32 range. Its state digest is forged to the one the server
    # computes from it, so only the reconstruction's own check can refuse
    # it. It does so in fc's step, before layer fc2 is decoded.
    import copy
    import struct
    from dataclasses import replace

    from gradzip import pipeline
    from gradzip.cli import _open_stream
    from gradzip.codec import decode_stream, lossless_compress
    from gradzip.errors import DataError

    trace = make_trace(tmp_path, layers="fc:64x48,fc2:32x40", rounds=2, seed=1)
    out = tmp_path / "t.gzp"
    assert run("compress", trace, out, "--backend", "store") == 0
    data = out.read_bytes()
    with _open_stream(out) as ((_, predict), layers, _, frames):
        payloads = [payload for payload, _ in frames]
    header = data[:len(data) - sum(len(pipeline.frame_payload(p)) for p in payloads)]
    server = pipeline.SyncState.initial(layers)
    pipeline.decode_payload(payloads[0], server, predict)
    # Store tag, then the inner blob: tag u8, flags u8, mu f32, sigma f32,
    # delta f64; it ends with the state digest u32.
    blob = payloads[1].blobs[0]
    assert blob[:2] == b"S\x01"
    delta = 1e38
    inner = bytearray(blob[1:-4])
    inner[10:18] = struct.pack("<d", delta)
    # The server's state after this blob: its prediction's memory, and the
    # bin centres cast to float32 with the literals written over them.
    forged = copy.deepcopy(server)
    info, bitmap, body = pipeline._parse_blob(
        lossless_compress(bytes(inner), "store"), layers[0], False
    )
    stream = decode_stream(body)
    ghat = pipeline._predict(
        forged, 0, info.flags, bitmap, np.float32(info.mu), np.float32(info.sigma), predict
    )
    with np.errstate(over="ignore"):
        recon = (stream.bins * (2.0 * delta) + ghat).astype(np.float32)
    recon[stream.literal_mask] = stream.literals
    assert not np.isfinite(recon).all()
    inner[-4:] = struct.pack("<I", pipeline._state_crc(forged.memory[0], recon))
    tampered = replace(
        payloads[1], blobs=[lossless_compress(bytes(inner), "store"), payloads[1].blobs[1]]
    )

    fc2_before = server.memory[1].tobytes(), server.prev_recon[1].tobytes()
    with pytest.raises(DataError, match=r"^layer 'fc': ") as exc:
        pipeline.decode_payload(tampered, server, predict)
    assert (server.memory[1].tobytes(), server.prev_recon[1].tobytes()) == fc2_before
    assert server.round == 1
    assert str(exc.value) == "layer 'fc': reconstruction holds non-finite values"

    bad, r = tmp_path / "bad.gzp", tmp_path / "r.gtrc"
    bad.write_bytes(header + pipeline.frame_payload(payloads[0]) + pipeline.frame_payload(tampered))
    capsys.readouterr()
    assert run("decompress", bad, r) == 3
    assert capsys.readouterr().err == (
        "gradzip: layer 'fc': reconstruction holds non-finite values\n"
    )
    assert not r.exists()
