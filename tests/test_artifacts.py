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
    "abs.gzs": "79898d87b2d988cb340ef871fd9b5e69af7444e71e3fb4df3cd39501de0ece8c",
    "abs.gzs.csv": "5a6618191bb3b1b7b8a698da12c3c65806915bbaae18f5f11c97aebdfc0a32c6",
    "abs.rec": "0c6687130c249e3e118e1fcfdeb1d68c95d8fab61573651f787a4ad278c42b6f",
    "default.gzs": "e2028b367153045de11b81ffc803188d5252e89c930883c9856473cafaf09b03",
    "default.gzs.csv": "b1b46f8e37fb42e737d2fb299df17a5f8be047eb7c3eb54f44f355168f0e25fd",
    "default.rec": "be3eaa443b736fbb20c9599270b3f3f6193cdee7591bade4fdc80bd37eeca3ad",
    "fb-reference": "93bba05131c95c55a4be56b0aade5aa5cb19c619d62cfc18d94e163166528002",
    "fb.gtrc": "654f0d97bf438c3ba1c46580200980b79357fe9b9946a920cd770cc1e663946d",
    "fb.gzs": "2a865b6e7c734964399daa7dd89a8a888857bd5fda3204eda79a7c6a0cfe55c7",
    "fb.gzs.csv": "eb433fd7f128d6cfb166912bdafebda4b8590efccacbaf12e072f511e55e7b5d",
    "fb.rec": "f17fc89271cb21f880753e15c67f9b2f57b91aee6f23cd5a57e0f831e3571253",
    "inspect-default": "47550d35e8cea67252c614a32ba652adbd7244fe9914307f2f290fff7c5cde7f",
    "inspect-fb": "4af579b03f0cb375c3d0e74a119d5bef8b549b99293d181ded283a5677966d81",
    "mb.gtrc": "6d86c4a7bcc43bb710d1ae888f80b04f151235db34614b96c6ee24d794805373",
    "mb2.gtrc": "5177b731a0a41441a5bc0afc925d83c2e4c59b7bc0213a2cd6a0ef0a7286ef23",
    "off.gzs": "14aaa18ceef2e607f33f8519adb922444dffeb2b545dc1d7de41fecaceaa0d7e",
    "off.gzs.csv": "81dd946b8ab52bc1b7941f39aa678e84f8cbfdcdc61c8e5ecb54329e872c9103",
    "sim.csv": "e27e4df847af71d713adaf08ab9b78811176cb788f40e4dd5a1218dad2bba1d1",
    "store.gzs": "9610da0d8636a752c30f609bfdbd780a1946811de6da84318b582c7de8946b04",
    "store.gzs.csv": "3a18837e8dac29a37927c07d53c6eafa122b70a3bfb1c391dfffba746b702d6c",
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
    decompress("abs.rec", "abs.gzs", "--beta", 0.3)
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
