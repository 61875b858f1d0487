"""Correctness gate: a seed-free projection of a report, and its reference.

The projection keeps what the analysis decides: per level the component
count, representatives, spans and order pairs, the Lyapunov values and
verdicts, the conjugacy verdicts, the refine matches, the signature and every
check verdict.  It leaves out echoes of the input and the model predictions.

`reference.json` holds, per workload and recorded seed, the projection digest
and the check verdicts, failing ones included as the program reports them
today, plus the verdicts that all recorded seeds share.  Record it with

    python3 perfbench/gate.py --record 0-31
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"


def project(report: Dict) -> Dict:
    """The part of a `--seedless` report that the gate compares."""
    levels = []
    for entry in report["levels"]:
        comp = entry["components"]
        level = {
            "n": entry["n"],
            "count": comp["count"],
            "representatives": comp["representatives"],
            "spans": comp["spans"],
            "pairs": comp["pairs"],
        }
        if "lyapunov" in entry:
            lyap = entry["lyapunov"]
            level["lyapunov"] = {
                "component_values": lyap["component_values"],
                "certified": lyap["certified"],
                "checks": lyap["checks"],
            }
        if "conjugacy" in entry:
            conj = entry["conjugacy"]
            level["conjugacy"] = {
                k: conj[k] for k in ("isomorphic", "exact", "representatives_aligned")
            }
        levels.append(level)
    out = {"levels": levels, "checks": report["checks"]}
    if "refine" in report:
        out["refine"] = report["refine"]["matches"]
    if "signature" in report:
        out["signature"] = report["signature"]
    return out


def digest(projection: Dict) -> str:
    text = json.dumps(projection, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verdicts(projection: Dict) -> Dict[str, bool]:
    return {c["name"]: c["passed"] for c in projection["checks"]}


def load_reference(path: Path = REFERENCE) -> Dict:
    return json.loads(path.read_text(encoding="utf-8"))


def problems(workload: str, seed: int, projection: Dict, reference: Dict) -> List[str]:
    """Reasons one run's projection fails the reference; empty when it passes.

    A recorded seed must reproduce its digest and verdicts exactly.  Any
    other seed must reproduce the verdicts that every recorded seed shares.
    """
    ref = reference["workloads"][workload]
    got = verdicts(projection)
    recorded = ref["seeds"].get(str(seed))
    if recorded is None:
        want = ref["stable_verdicts"]
        got = {name: got.get(name) for name in want}
    else:
        want = recorded["verdicts"]
    out = []
    if got != want:
        out.append(f"check verdicts {got} differ from reference {want}")
    if recorded is not None and digest(projection) != recorded["digest"]:
        out.append(f"projection digest {digest(projection)} differs from reference")
    return out


def seed_range(text: str) -> List[int]:
    """Seeds from `LO-HI` (or a single `N`)."""
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def record(seeds: List[int], names: List[str]) -> Dict:
    """Run each (workload, seed) once untraced and collect the reference."""
    from run import ROOT, run_child, write_config
    from workloads import generate

    out: Dict = {"workloads": {}}
    for workload in names:
        entries: Dict[str, Dict] = {}
        for seed in seeds:
            path = write_config(ROOT, workload, seed, "reference", generate(workload, seed))
            result = run_child(ROOT, path, mode="run", timeout=600)
            if "error" in result:
                raise SystemExit(f"{workload} seed {seed}: {result['error']}")
            projection = result["projection"]
            entries[str(seed)] = {"digest": digest(projection), "verdicts": verdicts(projection)}
            print(f"{workload} seed {seed}: {entries[str(seed)]}", flush=True)
        all_verdicts = [e["verdicts"] for e in entries.values()]
        stable = {
            name: passed for name, passed in all_verdicts[0].items()
            if all(v.get(name) == passed for v in all_verdicts)
        }
        out["workloads"][workload] = {"seeds": entries, "stable_verdicts": stable}
    return out


def main(argv: Optional[List[str]] = None) -> int:
    from workloads import NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", metavar="LO-HI", required=True, help="seed range")
    parser.add_argument("--workloads", default=",".join(NAMES))
    args = parser.parse_args(argv)
    ref = record(seed_range(args.record), args.workloads.split(","))
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
