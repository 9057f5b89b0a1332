"""Golden digests of a fixed set of CLI artifacts.

``build_artifacts`` runs ``gradzip`` commands through ``cli.main`` in a
temporary directory: synthetic traces, ``compress`` streams and CSVs in
several parameter variants, ``inspect`` and ``decompress`` output, and a
two-client ``simulate`` CSV. The test pins the sha256 of every artifact, so
any change to stream, trace or CSV bytes fails here. A deliberate format
change updates the digests in the same commit.
"""

import contextlib
import hashlib
import io

import pytest

from gradzip.cli import main

LAYERS = "conv1:16x8x3x3,conv2:16x16x3x3,fc:40x40,b:10"

# name -> sha256 of the artifact's bytes (files) or of its stdout (text).
EXPECTED = {
    "abs.gzs": "222f231126d0f885a3616c2d1ed017c9a59993a697c6d5f3d577f2d9a0ecc2a9",
    "abs.gzs.csv": "31dedbf0e0552f2d303c2147b740bd2996935614304cd7cdb5e582d99f1d2934",
    "abs.rec": "0c6687130c249e3e118e1fcfdeb1d68c95d8fab61573651f787a4ad278c42b6f",
    "default.gzs": "d232ac18a20c41df831ba5c5d97295449eb76e2aef1a0a21a1d898f37e337a5b",
    "default.gzs.csv": "61c70ac31407e9a44079b99d4f52d70ca668d36e6b5899e25da60e587435b58d",
    "default.rec": "be3eaa443b736fbb20c9599270b3f3f6193cdee7591bade4fdc80bd37eeca3ad",
    "fb-reference": "93bba05131c95c55a4be56b0aade5aa5cb19c619d62cfc18d94e163166528002",
    "fb.gtrc": "654f0d97bf438c3ba1c46580200980b79357fe9b9946a920cd770cc1e663946d",
    "fb.gzs": "87ee3f782bef1238546d79d75a7a455fa9a0d3f2ca6ba75492b684d5976cc97f",
    "fb.gzs.csv": "dd0364a540f621b8e90fed542e69504ab5bda45383eb23e5865d8b3dff88dd32",
    "fb.rec": "f17fc89271cb21f880753e15c67f9b2f57b91aee6f23cd5a57e0f831e3571253",
    "inspect-default": "38b7c39055309b56db5c91fe52b3e5714ee602a297fc0ad939cae144fa021fb5",
    "inspect-fb": "3489eafc38d1a793415f1386d8d07e8107bfe1ba608995672ab818a849b0a40b",
    "mb.gtrc": "6d86c4a7bcc43bb710d1ae888f80b04f151235db34614b96c6ee24d794805373",
    "mb2.gtrc": "5177b731a0a41441a5bc0afc925d83c2e4c59b7bc0213a2cd6a0ef0a7286ef23",
    "off.gzs": "964fe30659116adccced08ba7b69af314e0934d1b1a57298f3cdc54910ff2f11",
    "off.gzs.csv": "d705f22e9712a1c47f9cf355cb122223717ac56704329037fdb80b3b108e8b9a",
    "sim.csv": "4ec2ff26f512bfd42c6ce14596496b0afebdf49d1fd0a3555da3394a17469cf2",
    "store.gzs": "421702a6c934154a66bf325699c2b45f4b9b05fdd18be7151955db781957b0ca",
    "store.gzs.csv": "fff9c4f5b3d0660116a29cc885b90e21db6d81d0624b814d36fbc65edb9c932d",
    "store.rec": "be3eaa443b736fbb20c9599270b3f3f6193cdee7591bade4fdc80bd37eeca3ad",
}


def _run(*argv) -> str:
    """Run one command, require exit 0, return its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == 0, argv
    return out.getvalue()


def build_artifacts(d) -> dict[str, bytes]:
    arts = {}

    def synth(name, seed, *flags):
        _run("synth", d / name, "--layers", LAYERS, "--rounds", 3, "--seed", seed, *flags)
        arts[name] = (d / name).read_bytes()

    def compress(name, trace, *flags):
        _run("compress", d / trace, d / name, *flags)
        arts[name] = (d / name).read_bytes()
        arts[name + ".csv"] = (d / (name + ".csv")).read_bytes()

    def decompress(name, stream, *flags):
        text = _run("decompress", d / stream, d / name, *flags)
        arts[name] = (d / name).read_bytes()
        return text

    synth("mb.gtrc", 7)
    synth("mb2.gtrc", 8)
    synth("fb.gtrc", 9, "--full-batch", "--oscillation", 2)

    compress("default.gzs", "mb.gtrc")
    compress("store.gzs", "mb.gtrc", "--backend", "store")
    compress("off.gzs", "mb.gtrc", "--prediction", "off")
    compress("fb.gzs", "fb.gtrc")
    compress("abs.gzs", "mb.gtrc", "--eb-mode", "abs", "--eb", 0.05,
             "--t-lossy", 100, "--tau", 0.9, "--beta", 0.3)

    arts["inspect-default"] = _run("inspect", d / "default.gzs").encode()
    arts["inspect-fb"] = _run("inspect", d / "fb.gzs").encode()

    decompress("default.rec", "default.gzs")
    decompress("store.rec", "store.gzs")
    decompress("abs.rec", "abs.gzs")
    arts["fb-reference"] = decompress(
        "fb.rec", "fb.gzs", "--reference", d / "fb.gtrc").encode()

    _run("simulate", d / "mb.gtrc", d / "mb2.gtrc", "--t-comp", 0.1,
         "--t-decomp", 0.1, "--csv", d / "sim.csv")
    arts["sim.csv"] = (d / "sim.csv").read_bytes()
    return arts


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    arts = build_artifacts(tmp_path_factory.mktemp("artifacts"))
    return {name: hashlib.sha256(data).hexdigest() for name, data in arts.items()}


def test_artifact_set_is_complete(digests):
    assert sorted(digests) == sorted(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_artifact_bytes_unchanged(digests, name):
    assert digests[name] == EXPECTED[name]
