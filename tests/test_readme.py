"""README's "Library use" example runs as written, so does its minimal
config under "Command line", and its synopsis lists the options the
parser defines."""

import argparse
import pathlib
import re

from decolab.cli import _build_parser, main

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


def test_synopsis_lists_the_parser_options():
    synopsis = blocks_under("Command line", "")[0].splitlines()
    listed = {line.split()[1]: set(re.findall(r"--[\w-]+", line)) for line in synopsis}
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
        for name, sub in subparsers.choices.items()
    }
    assert listed == defined
