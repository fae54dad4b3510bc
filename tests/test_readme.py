"""README's "Library use" example runs as written, and so does its minimal
config under "Command line"."""

import pathlib
import re

from decolab.cli import main

README = pathlib.Path(__file__).parent.parent / "README.md"


def blocks_under(heading: str, language: str) -> list:
    section = README.read_text().split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{language}\n(.*?)```", section, re.S)


def test_library_use_example_runs():
    blocks = blocks_under("Library use", "python")
    assert len(blocks) == 1, f"expected one python block under Library use, found {len(blocks)}"
    names = {}
    exec(compile(blocks[0], str(README), "exec"), names)
    assert 0.0 < names["a"] < 1.0
    assert names["curve"].shape == (10**5,) and names["curve"][0] == 1.0
    assert names["curve"][-1] < names["a"]  # t = 2 has decayed past t = 1
    assert names["tau_d"] > 0.0


def test_minimal_config_runs_and_verifies(tmp_path):
    blocks = blocks_under("Command line", "ini")
    assert len(blocks) == 1, f"expected one ini block under Command line, found {len(blocks)}"
    cfg = tmp_path / "minimal.cfg"
    cfg.write_text(blocks[0])
    assert main(["run", str(cfg), "--verify", "--out", str(tmp_path / "out")]) == 0
