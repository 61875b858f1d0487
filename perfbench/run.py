"""chainposet benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 40 --trace 0

Generates the workload's config from the seed, writes it under
`.perfbench_runs/`, and runs the analysis on that file through
`chainposet.config.load_config` -> `chainposet.cli.run_full` ->
`chainposet.cli.render_json`, every repetition in a fresh interpreter and one
child at a time.  Repetitions continue until `--seconds` is used up (at
least two).  Short set-up-only children run between repetitions, so that
`setup_s` is a median over many set-ups spread across the run.

With `--trace 0` the result holds the end-to-end metrics; with `--trace 1`
traced and untraced repetitions alternate and the result holds the per-layer
metrics of the traced ones, plus the tracing overhead.  Every repetition's
report passes the gate in `gate.py`.  The last stdout line is the JSON
result; the lines before it repeat the metrics with units for a reader.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import workloads  # noqa: E402
from tracing import UNITS  # noqa: E402

MIN_REPS = 2
SETUPS_PER_REP = 4
# every run ends well inside the 180 s a run may take, whatever --seconds says
HARD_LIMIT_S = 170.0

END_TO_END = {
    "analyze_s": "s",
    "analyze_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def write_config(root: Path, workload: str, seed: int, tag: str, text: str) -> Path:
    """Save the generated config in a fresh record directory; return its path."""
    stamp = f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}-{time.monotonic_ns()}"
    directory = root / ".perfbench_runs" / f"{workload}-seed{seed}-{tag}-{stamp}"
    directory.mkdir(parents=True)
    path = directory / "config.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def run_child(root: Path, config_path: Path, mode: str, timeout: float) -> Dict:
    """Run child.py once and return its result, or {"error": ...}."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "child.py"), str(root / "src"), str(config_path), mode]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=max(timeout, 1.0),
            env=env, cwd=root,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} child timed out after {timeout:.0f} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"error": f"{mode} child exited {proc.returncode}: {tail[0]}"}
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": f"{mode} child printed no result"}


def environment(root: Path, workload: str, seed: int) -> Dict:
    """Where and on what the numbers were taken."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=root
        )
        commit = proc.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((root / "src" / "chainposet").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _describe(values: List[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of {len(values)}, q1 {q1:.4g}, q3 {q3:.4g}"


class Measurement:
    """Repetitions of one workload config until the time budget is spent."""

    def __init__(self, root: Path, config_path: Path, seconds: float, trace: bool):
        self.root, self.config_path = root, config_path
        self.seconds, self.trace = seconds, trace
        self.start = time.perf_counter()
        self.reps: List[Dict] = []
        self.setups: List[float] = []
        self.errors: List[str] = []  # of set-up children; repetitions keep their own

    def _left(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def _child(self, mode: str) -> Dict:
        result = run_child(self.root, self.config_path, mode, self._left())
        result["mode"] = mode
        if mode == "setup" and "error" in result:
            self.errors.append(result["error"])
        elif mode != "trace" and "error" not in result:
            self.setups.append(result["setup_s"])
        return result

    def _modes(self) -> List[str]:
        # traced and untraced repetitions alternate; two traced ones at least,
        # so the per-layer counts are compared in every traced run
        return ["trace", "run", "trace"] if self.trace else ["run"] * MIN_REPS

    def run(self) -> None:
        self._child("setup")  # warm-up: bytecode compiled, files cached
        durations: List[float] = []
        plan = self._modes()
        while self._left() > 0:
            for _ in range(SETUPS_PER_REP):
                self._child("setup")
            mode = plan[len(self.reps)] if len(self.reps) < len(plan) else (
                "trace" if self.trace and self.reps[-1]["mode"] == "run" else "run"
            )
            t0 = time.perf_counter()
            self.reps.append(self._child(mode))
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - self.start
            done = len(self.reps) >= len(plan) and elapsed + max(durations) > self.seconds
            if done or "error" in self.reps[-1] or self._left() < max(durations):
                break

    def gate(self, workload: str, seed: int, reference: Dict) -> List[str]:
        """Mark each repetition's problems; a repetition fails on any.

        Besides the reference, every projection must equal the first one of
        the set, whatever the seed.
        """
        first = None
        for r in self.reps:
            if "error" in r:
                r["problems"] = [r["error"]]
                continue
            r["problems"] = gate.problems(workload, seed, r["projection"], reference)
            d = gate.digest(r["projection"])
            first = first or d
            if d != first:
                r["problems"].append("projection differs from the first repetition")
        return sorted({p for r in self.reps for p in r["problems"]})

    def end_to_end(self) -> Dict[str, List[float]]:
        good = [r for r in self.reps if r["mode"] == "run" and not r["problems"]]
        out = {name: [r[name] for r in good] for name in ("analyze_s", "analyze_cpu_s", "peak_rss_mb")}
        out["setup_s"] = list(self.setups)
        return out

    def per_layer(self) -> Dict[str, List[float]]:
        traced = [r for r in self.reps if r["mode"] == "trace" and not r["problems"]]
        out: Dict[str, List[float]] = {name: [] for name in UNITS}
        for r in traced:
            for name, value in r["layers"].items():
                out[name].append(value)
        untraced = self.end_to_end()["analyze_s"]
        if untraced and traced:
            ratio = _median([r["analyze_s"] for r in traced]) / _median(untraced) - 1
            out["trace.overhead"] = [ratio]
        return out

    def count_problems(self) -> List[str]:
        """Counts must repeat exactly between traced repetitions."""
        traced = [r for r in self.reps if r["mode"] == "trace" and not r["problems"]]
        out = []
        for name, unit in UNITS.items():
            if unit != "count":
                continue
            seen = {r["layers"][name] for r in traced}
            if len(seen) > 1:
                out.append(f"{name} differs between traced runs: {sorted(seen)}")
        return out


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="chainposet benchmark run")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chainposet" / "__init__.py").is_file():
        print(f"perfbench: no chainposet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = gate.load_reference()
    text = workloads.generate(args.workload, args.seed)
    config_path = write_config(ROOT, args.workload, args.seed, f"trace{args.trace}", text)
    env = environment(ROOT, args.workload, args.seed)

    m = Measurement(ROOT, config_path, args.seconds, bool(args.trace))
    m.run()
    problems = m.gate(args.workload, args.seed, reference)
    if args.trace:
        problems += m.count_problems()
        samples, units = m.per_layer(), UNITS
    else:
        samples, units = m.end_to_end(), END_TO_END
    attempted = len(m.reps)
    failed = sum(1 for r in m.reps if r["problems"])
    correct = not problems and not m.errors and failed == 0
    metrics = {
        name: {"value": _median(samples[name]), "unit": unit} for name, unit in units.items()
    }

    record = {
        "environment": env,
        "arguments": vars(args),
        "config": text,
        "setup_s": m.setups,
        "repetitions": [
            {k: v for k, v in r.items() if k not in ("projection", "spans")} for r in m.reps
        ],
        "problems": problems,
        "errors": m.errors,
        "metrics": metrics,
        "projection": next((r["projection"] for r in m.reps if "projection" in r), None),
        "spans": next((r["spans"] for r in m.reps if "spans" in r), None),
    }
    record_path = config_path.parent / "record.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"record: {record_path.relative_to(ROOT)}")
    for name, unit in units.items():
        print(f"{name:40s} {metrics[name]['value']:12.6g} {unit:6s} {_describe(samples[name])}")
    print(f"{'runs_failed':40s} {failed:12d} {'count':6s} of {attempted} attempted")
    for p in problems + m.errors:
        print(f"FAILED {p}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
