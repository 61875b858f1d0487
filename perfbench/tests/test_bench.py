"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import workloads  # noqa: E402
from run import run_child  # noqa: E402
from tracing import UNITS  # noqa: E402

N, SAMPLES = 64, 3
TINY = (
    "system = ordinal\n"
    "lambda = w\n"
    f"resolutions = [{N}]\n"
    "tasks = [components, lyapunov]\n"
    f"samples = {SAMPLES}\n"
)


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


def _chainposet():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from chainposet import cli, config, systems

    return cli, config, systems


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_generator_is_deterministic_per_seed(workload):
    _, config, _ = _chainposet()
    text = workloads.generate(workload, 7)
    assert text == workloads.generate(workload, 7)
    config.parse_config(text)


def test_generator_draws_from_the_seed():
    assert len({workloads.generate("certify", s) for s in range(10)}) > 1
    assert len({workloads.generate("refine", s) for s in range(10)}) > 1


def test_gate_rejects_one_field_perturbation(tiny):
    projection = run_child(ROOT, tiny, "run", timeout=120)["projection"]
    v = gate.verdicts(projection)
    reference = {
        "workloads": {
            "tiny": {
                "seeds": {"1": {"digest": gate.digest(projection), "verdicts": v}},
                "stable_verdicts": v,
            }
        }
    }
    assert gate.problems("tiny", 1, projection, reference) == []

    def flip_verdict(p):
        p["checks"][0]["passed"] = not p["checks"][0]["passed"]

    def move_representative(p):
        p["levels"][0]["representatives"][0] = "1/3"

    def drop_pair(p):
        p["levels"][0]["pairs"].pop()

    def change_value(p):
        p["levels"][0]["lyapunov"]["component_values"][0] = "2/3"

    for perturb in (flip_verdict, move_representative, drop_pair, change_value):
        bad = copy.deepcopy(projection)
        perturb(bad)
        assert gate.problems("tiny", 1, bad, reference), perturb.__name__
    # a seed without a stored digest still has its verdicts checked
    bad = copy.deepcopy(projection)
    flip_verdict(bad)
    assert gate.problems("tiny", 2, bad, reference)
    assert gate.problems("tiny", 2, projection, reference) == []


def test_reference_keeps_todays_failing_verdicts():
    ref = gate.load_reference()["workloads"]
    assert set(ref) == set(workloads.NAMES)
    assert ref["certify"]["seeds"]["0"]["verdicts"]["conjugacy@4096"] is False
    assert ref["plateau"]["stable_verdicts"]["signature"] is False
    assert ref["certify"]["stable_verdicts"]["lyapunov@4096"] is True


def test_wrappers_count_exactly(tiny):
    layers = run_child(ROOT, tiny, "trace", timeout=120)["layers"]
    # an increasing map is evaluated once per grid point
    assert layers["systems.evaluate.build.calls"] == N + 1
    assert layers["systems.evaluate.verify.calls"] == SAMPLES * N
    assert layers["systems.image_intervals.calls"] == 0
    assert layers["chaingraph.cells"] == N
    # chain_components, recurrent_cells, reaches_recurrent, synthesize, verify
    assert layers["chaingraph.condense.calls"] == 5


def test_traced_runs_repeat_counts_and_report(tiny):
    a = run_child(ROOT, tiny, "trace", timeout=120)
    b = run_child(ROOT, tiny, "trace", timeout=120)
    plain = run_child(ROOT, tiny, "run", timeout=120)
    counts = [name for name, unit in UNITS.items() if unit == "count"]
    assert {n: a["layers"][n] for n in counts} == {n: b["layers"][n] for n in counts}
    assert a["projection"] == b["projection"] == plain["projection"]


def test_second_in_process_run_measures_cache_hits():
    """Why every repetition gets a fresh interpreter: module-level caches
    outlive a run, so a second run in the same process recomputes nothing."""
    cli, config, systems = _chainposet()
    texts = (
        TINY,
        "system = dense_blocks\nresolutions = [64]\ndepth = 3\n",
        "system = cantor\nresolutions = [64]\ndepth = 3\n",
    )
    caches = (systems._eval_index, systems.dense_blocks, systems.cantor_gaps)
    for cache in caches:
        cache.cache_clear()
    configs = [config.parse_config(t) for t in texts]

    for cfg in configs:
        cli.run_full(cfg, seedless=True)
    first = [c.cache_info() for c in caches]
    for cfg in configs:
        cli.run_full(cfg, seedless=True)
    second = [c.cache_info() for c in caches]

    assert all(info.misses > 0 for info in first)
    assert [i.misses for i in second] == [i.misses for i in first]
    assert second[0].hits - first[0].hits >= N + 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
