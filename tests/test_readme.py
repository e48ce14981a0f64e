"""The `$ symroot ...` examples in README.md, run through the CLI.

A block prints exactly what the README shows. A block shortened with `...`
lines shows pieces of the output: each piece must appear whole, in order,
and a piece that is not preceded (followed) by `...` must start (end) the
output.
"""

import re
import shlex
from pathlib import Path

import pytest

from symroot.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
GAP = "..."


def readme_examples() -> list[tuple[list[str], list[str]]]:
    blocks = re.findall(r"^```[a-z]*\n(.*?)^```", README.read_text(), re.M | re.S)
    examples = []
    for block in blocks:
        command, *shown = block.splitlines()
        if command.startswith("$ symroot "):
            examples.append((shlex.split(command)[2:], shown))
    return examples


def pieces(shown: list[str]) -> list[list[str]]:
    out = [[]]
    for line in shown:
        if line == GAP:
            out.append([])
        else:
            out[-1].append(line)
    return out


def find(lines: list[str], piece: list[str], start: int) -> int:
    for i in range(start, len(lines) - len(piece) + 1):
        if lines[i : i + len(piece)] == piece:
            return i
    return -1


EXAMPLES = readme_examples()


def test_readme_has_the_documented_examples():
    commands = [argv[0] for argv, _ in EXAMPLES]
    assert commands == ["trace", "run", "trace", "verify", "run"]


@pytest.mark.parametrize("argv, shown", EXAMPLES, ids=[" ".join(a) for a, _ in EXAMPLES])
def test_readme_example_output(capsys, argv, shown):
    main(argv)
    lines = capsys.readouterr().out.splitlines()
    if GAP not in shown:
        assert lines == shown
        return
    parts = pieces(shown)
    at = 0
    for k, piece in enumerate(parts):
        found = find(lines, piece, at)
        assert found >= 0, piece
        if k == 0:
            assert found == 0, "the shown start is not the start of the output"
        if k == len(parts) - 1:
            assert found + len(piece) == len(lines), "the shown end is not the end of the output"
        at = found + len(piece)
