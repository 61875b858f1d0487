"""The README's promises hold: its API example runs and prints what its
comments say, and the package has no floats anywhere."""

import ast
from pathlib import Path

import pytest

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
