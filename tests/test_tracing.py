"""The benchmark's tracer wraps module attributes of the package by name
(`perfbench/tracing.py`, `BOUNDARIES`).  These tests fail when one of those
names goes away or stops being called, before the benchmark does."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from chainposet import cli
from chainposet.config import parse_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
MODULES = {
    name: importlib.import_module(f"chainposet.{name}")
    for name in sorted({module for module, *_ in tracing.BOUNDARIES})
}


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, *_ in tracing.BOUNDARIES]
)
def test_boundary_exists(module, attr):
    assert hasattr(MODULES[module], attr)


def test_traced_run_counts_the_layers():
    cfg = parse_config(
        "system = ordinal\nlambda = 2\nresolutions = 64\n"
        "tasks = [components, lyapunov]\n"
    )
    original = cli.run_full
    tracer = tracing.Tracer()
    tracer.install(MODULES)
    try:
        cli.run_full(cfg, seedless=True)
    finally:
        tracer.uninstall()
    assert tracer.calls["cli.run_full"] == 1
    assert tracer.totals["chaingraph.cells"] > 0
    assert tracer.calls["systems.evaluate.verify"] > 0
    assert cli.run_full is original
