"""The README's examples run as written: its `>>>` lines through doctest,
and each `$ abacore ...` line through cli.run, against the lines below it."""

import doctest
import pathlib
import shlex

from abacore import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_examples():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def cli_examples():
    """(argv, expected text) of each `$ abacore` line; the output runs to the
    next blank line or code fence."""
    lines = README.read_text().splitlines()
    for k, line in enumerate(lines):
        if line.startswith("$ abacore "):
            out = []
            for nxt in lines[k + 1 :]:
                if not nxt or nxt.startswith("```"):
                    break
                out.append(nxt)
            yield shlex.split(line[len("$ abacore ") :]), "\n".join(out)


def test_cli_examples():
    examples = list(cli_examples())
    assert examples
    for argv, expected in examples:
        assert cli.run(argv) == (0, expected)
