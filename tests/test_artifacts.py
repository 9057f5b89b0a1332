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
    "abs.gzs": "2b64c894416cf4b2407d21abc0a9e6adfe8658639d3302a5b365a31a4eab6360",
    "abs.gzs.csv": "66f9dec999f9cf99976af25cf68cb3c341594c4283404d15ea257c71e7044ccb",
    "abs.rec": "0c6687130c249e3e118e1fcfdeb1d68c95d8fab61573651f787a4ad278c42b6f",
    "default.gzs": "3da4b421e06675f7a661850b8df6502b613dcbfa46f9f8bee1dc1ca7fbf166c4",
    "default.gzs.csv": "283f0f99fe2ea35ee8955ee7bd2e566ba43eac853c21207175d09c8bf1e9bded",
    "default.rec": "be3eaa443b736fbb20c9599270b3f3f6193cdee7591bade4fdc80bd37eeca3ad",
    "fb-reference": "93bba05131c95c55a4be56b0aade5aa5cb19c619d62cfc18d94e163166528002",
    "fb.gtrc": "654f0d97bf438c3ba1c46580200980b79357fe9b9946a920cd770cc1e663946d",
    "fb.gzs": "96dd45c6121ebb6542b665358804fbad95148a79570f6bf162eb621baa8d8085",
    "fb.gzs.csv": "05686d09a7a07043edeb640ac1bb0169e2b1a3c6cf98245162d9a6a5e1f91de2",
    "fb.rec": "f17fc89271cb21f880753e15c67f9b2f57b91aee6f23cd5a57e0f831e3571253",
    "inspect-default": "e3c4404b36ba97017a1d596d962558a7e97e0432b46589216bc815d4d291df2e",
    "inspect-fb": "c9beb2009ace0a9e3167dea98bc991cca2513a638e8d2adaec611c523d43ee4e",
    "mb.gtrc": "6d86c4a7bcc43bb710d1ae888f80b04f151235db34614b96c6ee24d794805373",
    "mb2.gtrc": "5177b731a0a41441a5bc0afc925d83c2e4c59b7bc0213a2cd6a0ef0a7286ef23",
    "off.gzs": "d226e2480d6aea44a35a7b93e378776c90d6949cbf8369fb108bc96393b611e6",
    "off.gzs.csv": "e6f73cbbc0ab945668ddc4261b6f360d3718a910f06ffc0e877760c06c06d5dd",
    "sim.csv": "ad1e23c8584208f32469fdeec7f3afd44ba4ffe00b77011c23cc9b5354b9c88a",
    "store.gzs": "e701e1d98086c7e988f55fa72179a9a93e62166b7f9d48e27f66aabd6f7552a7",
    "store.gzs.csv": "70ffe0ee3293e5d04a625ce31c96fa05211719164dd5bbc1db9e2935f0124f10",
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
