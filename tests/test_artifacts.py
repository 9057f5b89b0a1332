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
    "abs.gzs": "dff073030ae1ebdfea6fc7179e6a2ab5bb06202bad39634ae1bf9f432f24fb30",
    "abs.gzs.csv": "a058181ee01f32194b78046479a6aafeb3696d3199d1992132155eb94378f2de",
    "abs.rec": "0c6687130c249e3e118e1fcfdeb1d68c95d8fab61573651f787a4ad278c42b6f",
    "default.gzs": "44089a2c554f7205a21c34cb34fb7255a6eda4d113db99388f4259b7745e97f5",
    "default.gzs.csv": "f80dc65f2322bc9388105c3c75b5163a72bb3e0517c4e9f8ef807f95d83616b2",
    "default.rec": "be3eaa443b736fbb20c9599270b3f3f6193cdee7591bade4fdc80bd37eeca3ad",
    "fb-reference": "93bba05131c95c55a4be56b0aade5aa5cb19c619d62cfc18d94e163166528002",
    "fb.gtrc": "654f0d97bf438c3ba1c46580200980b79357fe9b9946a920cd770cc1e663946d",
    "fb.gzs": "6e4dd910ceaecf7826f01e3a459dabb3efa45ae5bd8cef2d94970978e6806a8c",
    "fb.gzs.csv": "002af92d5993c6a4669a9020159ecf682f5079889d8ff9018a9229eee8c21f02",
    "fb.rec": "f17fc89271cb21f880753e15c67f9b2f57b91aee6f23cd5a57e0f831e3571253",
    "inspect-default": "3ae633f376657dcabf772329ab23394489d534906dbcafe3028b6aa1a01263f4",
    "inspect-fb": "624ff717456e2aa1a38ea5e970776fe0a0940e718855650e773ad61f77cadc20",
    "mb.gtrc": "6d86c4a7bcc43bb710d1ae888f80b04f151235db34614b96c6ee24d794805373",
    "mb2.gtrc": "5177b731a0a41441a5bc0afc925d83c2e4c59b7bc0213a2cd6a0ef0a7286ef23",
    "off.gzs": "826591964b710a5b6a5e5a76ddedfca286ae2611c9768a37a4ae51d7085b598b",
    "off.gzs.csv": "8eef371f64be70af982cfb447da67bad4022338346c1104fcc1f6f41d77aaeea",
    "sim.csv": "63635aa00c7df44fb81d835ff9ad89da7ba475edabd1aecd6943eed7cddaa04d",
    "store.gzs": "6cebb63fa84d0e448995c81cb4659b01289143dda5ab95d64a06cb5821eda5f2",
    "store.gzs.csv": "d2fcc4ea8d99774fde4a4e1cef154d37c75582dad14c39bc4ea571eac9b9572f",
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
