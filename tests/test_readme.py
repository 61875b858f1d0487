"""The README's API example runs and prints what its comments say."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_block(heading: str) -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split(f"## {heading}\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_api(capsys):
    exec(compile(_python_block("Quick start (API)"), str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "9"
    assert lines[-1] == "True"
