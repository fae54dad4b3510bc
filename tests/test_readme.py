"""README's "Library use" example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text().split("## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1, f"expected one python block under Library use, found {len(blocks)}"
    return blocks[0]


def test_library_use_example_runs():
    names = {}
    exec(compile(library_use_block(), str(README), "exec"), names)
    assert 0.0 < names["a"] < 1.0
    assert names["curve"].shape == (10**5,) and names["curve"][0] == 1.0
    assert names["curve"][-1] < names["a"]  # t = 2 has decayed past t = 1
    assert names["tau_d"] > 0.0
