"""The README's command-line examples, run through cli.main.

Every `$ gapnkit ...` line in a fenced block is one example; its expected
output runs to the next blank line, `$` line or fence.  An `elapsed` value
matches any time and a `...` line matches any run of lines.
"""

import re
import shlex
from pathlib import Path

import pytest

from gapnkit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _examples():
    examples = []
    in_block, current = False, None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block, current = not in_block, None
        elif in_block and line.startswith("$ gapnkit "):
            current = (shlex.split(line[len("$ gapnkit ") :]), [])
            examples.append(current)
        elif current is not None and line.strip() and not line.startswith("$"):
            current[1].append(line)
        else:
            current = None
    return examples


# The error names README lists for exit 1.
ERROR_NAMES = {
    "BudgetExceeded", "CacheCorrupt", "DeciderDisagreement", "FactorizationTooLarge", "NotPrime",
    "OrderTooLarge", "WrongWeight", "ValueError", "UnicodeDecodeError", "OSError", "BrokenPipeError",
    "FileExistsError", "FileNotFoundError", "IsADirectoryError", "NotADirectoryError", "PermissionError",
}


def _readme_error_names():
    text = README.read_text()
    start = text.index("The `error` name is one of")
    return set(re.findall(r"`(\w+)`", text[start : text.index("\n\n", start)])) - {"error"}


def _pattern(expected):
    parts = []
    for line in expected:
        if line == "...":
            parts.append(r"(?:.*\n)*")
        elif line.startswith("elapsed: "):
            parts.append(r"elapsed: \d+\.\d+s\n")
        else:
            parts.append(re.escape(line) + r"\n")
    return "".join(parts)


EXAMPLES = _examples()


def test_readme_lists_every_error_name():
    assert _readme_error_names() == ERROR_NAMES


def test_readme_has_every_example():
    assert [argv[0] for argv, _ in EXAMPLES] == ["test", "criterion", "profile", "conjecture", "conjecture"]


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(capsys, argv, expected):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(_pattern(expected), out), out
