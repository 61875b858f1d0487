"""Run the benchmark over workloads and seeds and summarise the spread.

    python3 perfbench/matrix.py --seeds 0-9
    python3 perfbench/matrix.py --seeds 0-9 --compare .perfbench_runs/matrix-A.json

Each (workload, seed) is one `run.py` process, started the way the `command`
in BENCHMARK.json describes.  For every end-to-end metric the summary gives
the median over the seeds, the quartiles, the spread (q3 - q1) / median
against the bound in BENCHMARK.json, and `runs_failed` as failed runs out of
those attempted.
With `--compare` it also gives each median's drift from an earlier summary.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from gate import seed_range

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "error": proc.stderr.strip()[-500:]}
    return json.loads(lines[-1])


def summarise(results: Dict[str, List[Dict]], bounds: Dict[str, float]) -> Dict:
    out: Dict = {}
    for workload, runs in results.items():
        rows = {}
        names = sorted({n for r in runs for n in r["metrics"]})
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            rows[name] = {
                "unit": next(r["metrics"][name]["unit"] for r in runs if name in r["metrics"]),
                "values": values,
                "median": med,
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / med if med else 0.0,
                "bound": bounds.get(name),
            }
        out[workload] = {
            "metrics": rows,
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "incorrect": sum(1 for r in runs if not r["correct"]),
        }
    return out


def show(summary: Dict, previous: Optional[Dict]) -> None:
    for workload, s in summary.items():
        print(f"\n== {workload}: runs_failed {s['failed']} of {s['attempted']} attempted, "
              f"{s['incorrect']} sets incorrect")
        for name, row in s["metrics"].items():
            line = (f"{name:40s} {row['median']:12.6g} {row['unit']:6s} "
                    f"q1 {row['q1']:.6g} q3 {row['q3']:.6g} spread {row['spread']:.4f}")
            if row["bound"] is not None:
                line += f" bound {row['bound']} ({row['spread'] / row['bound']:.2f} of it)"
            if previous and name in previous.get(workload, {}).get("metrics", {}):
                drift = row["median"] / previous[workload]["metrics"][name]["median"] - 1
                line += f" drift {drift:+.4f}"
            print(line)


def main(argv: Optional[List[str]] = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="0-9", help="seed range LO-HI")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", metavar="SUMMARY", help="earlier matrix summary")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results: Dict[str, List[Dict]] = {}
    for workload in args.workloads.split(","):
        results[workload] = []
        for seed in seed_range(args.seeds):
            r = run_once(workload, seed, args.seconds, args.trace)
            results[workload].append(r)
            brief = " ".join(f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()
                             if v["unit"] != "count")
            print(f"{workload} seed {seed}: correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']} {brief[:300]}", flush=True)
    summary = summarise(results, bounds)
    previous = None
    if args.compare:
        previous = json.loads(Path(args.compare).read_text(encoding="utf-8"))["summary"]
    show(summary, previous)
    path = ROOT / ".perfbench_runs" / f"matrix-{time.strftime('%Y%m%dT%H%M%S')}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"arguments": vars(args), "summary": summary}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"\nwrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
