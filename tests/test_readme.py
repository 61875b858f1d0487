"""The README's promises hold: its API example runs and prints what its
comments say, the names it documents import, and the package has no floats
anywhere."""

import ast
import re
from pathlib import Path

import pytest

import chainposet

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MODULES = sorted((ROOT / "src" / "chainposet").glob("*.py"))


def _python_block(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_api(capsys):
    exec(compile(_python_block("Quick start (API)"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "9"
    assert lines[-1] == "True"


def _documented_names():
    """Backticked names in the module table's second column, and the entry
    points the float paragraph lists; code that is not a name, such as
    `(lo, hi)`, is skipped, and `Ordinal(...)` counts as `Ordinal`."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| module ", 1)[1].split("\n\n", 1)[0]
    cells = [row.split("|")[2] for row in table.splitlines()[2:]]
    floats = re.search(r"The entry points that take numbers are (.+?)\.\s", text, re.S)
    assert cells and floats, "README layout changed"
    tokens = re.findall(r"`([^`]+)`", " ".join([*cells, floats.group(1)]))
    return [
        m.group(1) for t in tokens
        if (m := re.fullmatch(r"([A-Za-z_][\w.]*)(\(\.\.\.\))?", t))
    ]


def test_documented_names_import():
    # a dotted name resolves through the package: `cli.main` is chainposet.cli.main
    missing = []
    for name in _documented_names():
        obj = chainposet
        for part in name.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert not missing, f"not importable from chainposet: {missing}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_floats_in_the_package(path):
    # a float literal or a call to float() anywhere in the source
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    found = [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"
    ]
    assert not found, f"{path.name}: floats on lines {found}"
