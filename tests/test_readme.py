"""README's "Quick start" commands and "Library use" examples run as
written, and print what README shows; the package exports what "Library
use" imports."""

import ast
import inspect
import re
import shlex
from pathlib import Path

import numpy as np

from gradzip.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_blocks():
    text = README.read_text()
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_library_use_blocks_run_and_keep_both_sides_in_sync():
    blocks = library_use_blocks()
    assert len(blocks) == 2
    rng = np.random.default_rng(5)
    shapes = [(32, 16, 3, 3), (64, 32)]
    training_rounds = [[rng.normal(size=s) for s in shapes] for _ in range(3)]
    ns = {"training_rounds": training_rounds}
    exec(compile(blocks[0], "README.md: verified_rounds", "exec"), ns)
    assert isinstance(ns["wire"], bytes) and ns["row"].cr > 1.0

    ns["tensors"] = ns["rounds"][0]
    exec(compile(blocks[1], "README.md: one round", "exec"), ns)
    client, server = ns["client"], ns["server"]
    assert client.round == server.round == 1
    assert client.to_bytes() == server.to_bytes()
    assert [r.values.tobytes() for r in ns["recons"]] == [
        r.tobytes() for r in client.prev_recon
    ]


def test_package_exports_what_library_use_imports_and_the_errors():
    import gradzip
    from gradzip import errors

    imported = {
        alias.name
        for block in library_use_blocks()
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "gradzip"
        for alias in node.names
    }
    error_classes = {
        name for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.GradzipError)
    }
    exported = {
        name for name, obj in vars(gradzip).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert exported == imported | error_classes


def quick_start_sessions():
    """(argv, lines kept by a trailing ``| head -N`` or None, shown output
    lines) for each ``$ gradzip`` command in README's "Quick start"."""
    text = README.read_text()
    section = text.split("\n## Quick start\n", 1)[1].split("\n## ", 1)[0]
    sessions = []
    for block in re.findall(r"```\n(.*?)```", section, flags=re.S):
        for cmd in re.split(r"^\$ ", block, flags=re.M)[1:]:
            line, *shown = cmd.rstrip("\n").split("\n")
            argv, _, head = line.partition(" | head -")
            argv = shlex.split(argv)
            assert argv[0] == "gradzip"
            sessions.append((argv[1:], int(head) if head else None, [s for s in shown if s]))
    return sessions


def test_quick_start_prints_what_readme_shows(tmp_path, monkeypatch, capsys):
    # A shown line that ends in "..." is compared up to there.
    sessions = quick_start_sessions()
    assert [argv[0] for argv, _, _ in sessions] == ["synth", "compress", "decompress", "inspect"]
    monkeypatch.chdir(tmp_path)
    for argv, head, shown in sessions:
        assert main(argv) == 0, argv
        out = capsys.readouterr()
        printed = (out.out + out.err).splitlines()[:head]
        assert len(printed) == len(shown), argv
        for got, want in zip(printed, shown):
            if want.endswith("..."):
                got, want = got[: len(want) - 3], want[:-3]
            assert got == want, argv
