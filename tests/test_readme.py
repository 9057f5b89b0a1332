"""README's "Library use" examples run as written against the library."""

import re
from pathlib import Path

import numpy as np

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
