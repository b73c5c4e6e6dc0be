"""The README's code examples run as written, and its tables match the code."""

import re
from pathlib import Path

from insiderank.cli import DEFAULTS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(capsys):
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "no python block under ## Library"
    exec(compile(block.group(1), f"{README}:Library", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert 0.0 <= float(lines[1]) <= 1.0


def test_config_table_lists_every_key():
    section = README.read_text().split("\n### Config keys\n", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    keys = [key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1])]
    assert len(keys) == len(set(keys))
    assert set(keys) == set(DEFAULTS)
