"""The README's command-line examples, run through cli.main, and the
names it documents.

Every `$ gapnkit ...` line in a fenced block is one example; its expected
output runs to the next blank line, `$` line or fence.  An `elapsed` value
matches any time and a `...` line matches any run of lines.  The error
names of exit 1 and every module's `__all__` are pinned to README's lists.
"""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import gapnkit
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


def _readme_api():
    """{module: names} from README's API list, one bullet per `__all__`."""
    text = README.read_text()
    start = text.index("API, one `__all__` per line:")
    block = text[start : text.index("\n\n", text.index("\n- ", start))]
    api = {}
    for bullet in block.split("\n- ")[1:]:
        module, names = bullet.split(":", 1)
        api[module.strip("`")] = re.findall(r"`(\w+)`", names)
    return api


# The package and every module in it but the __main__ entry point.
MODULES = ["gapnkit"] + sorted(
    f"gapnkit.{m.name}" for m in pkgutil.iter_modules(gapnkit.__path__) if m.name != "__main__"
)


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


def test_readme_lists_every_module_all():
    api = _readme_api()
    assert sorted(api) == MODULES
    for name in MODULES:
        listed = api[name]
        assert len(set(listed)) == len(listed), name
        assert set(importlib.import_module(name).__all__) == set(listed), name


def test_each_name_is_exported_by_its_defining_module_only():
    owner = {}
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr in module.__all__:
            assert attr not in owner, (attr, owner.get(attr), name)
            owner[attr] = name
            defined_in = getattr(getattr(module, attr), "__module__", name)
            assert defined_in == name, (attr, defined_in)
    package = importlib.import_module("gapnkit")
    for attr in package.__all__:
        if attr != "__version__":
            assert getattr(package, attr) is getattr(importlib.import_module(owner[attr]), attr), attr


def test_readme_has_every_example():
    assert [argv[0] for argv, _ in EXAMPLES] == ["test", "criterion", "profile", "conjecture", "conjecture"]


@pytest.mark.parametrize("argv,expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example(capsys, argv, expected):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert re.fullmatch(_pattern(expected), out), out
