"""Batch driver: analyze configured systems, print model predictions,
export DOT, and emit deterministic JSON reports."""

import argparse
import json
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

from .chaingraph import (
    ChainGraph,
    ComponentPoset,
    Condensation,
    EpsilonField,
    build_chain_graph,
    chain_components,
    condense,
    constant_field,
    grid_for,
    dump_adjacency,
    piecewise_field,
    reaches_recurrent,
    recurrent_cells,
)
from .config import AnalysisConfig, ConfigError, EpsSpec, SystemParams, load_config
from .lyapunov import synthesize, verify
from .ordinal import format_ordinal
from .poset import (
    PosetError,
    RefinementTrace,
    TraceLevel,
    density_signature,
    is_linear,
    linear_order_type,
    match_components,
    maximal_elements,
    minimal_elements,
    order_isomorphic,
    to_dot,
)
from .systems import (
    Conjugated,
    SystemSpec,
    make_homeo,
    predicted_label,
    predicted_representatives,
)


def _fr(x: Fraction) -> str:
    return str(Fraction(x))


# analysis driver


def _field_for(eps: EpsSpec) -> Optional[EpsilonField]:
    if eps == "auto":
        return None
    if isinstance(eps, Fraction):
        return constant_field(eps)
    return piecewise_field(eps)


def _eps_echo(eps: EpsSpec):
    if eps == "auto":
        return "auto"
    if isinstance(eps, Fraction):
        return _fr(eps)
    return [[_fr(a), _fr(b)] for a, b in eps]


def _params_echo(p: SystemParams) -> Dict:
    out: Dict = {"kind": p.kind}
    if p.lam is not None:
        out["lambda"] = format_ordinal(p.lam)
    if p.depth is not None:
        out["depth"] = p.depth
    if p.kind == "dense_blocks":
        out["variant"] = p.variant.value
    if p.inner is not None:
        out["inner"] = _params_echo(p.inner)
    if p.homeo is not None:
        out["homeo"] = [[_fr(a), _fr(b)] for a, b in p.homeo]
    return out


@dataclass
class RunArtifacts:
    report: Dict
    graphs: List[ChainGraph]
    posets: List[ComponentPoset]


def _components_section(cond: Condensation, poset: ComponentPoset) -> Dict:
    out: Dict = {
        "count": len(poset),
        "representatives": [_fr(c.representative) for c in poset.components],
        "spans": [[_fr(c.span[0]), _fr(c.span[1])] for c in poset.components],
        "pairs": sorted([a, b] for a, b in poset.pairs),
        "linear": is_linear(poset),
        "minimal": list(minimal_elements(poset)),
        "maximal": list(maximal_elements(poset)),
        "recurrent_cell_count": len(recurrent_cells(cond)),
        "all_cells_reach_recurrent": all(reaches_recurrent(cond)),
    }
    if out["linear"]:
        out["order"] = list(linear_order_type(poset))
    return out


def _conjugacy_level(
    config: AnalysisConfig,
    spec: SystemSpec,
    graph: ChainGraph,
    poset: ComponentPoset,
) -> Dict:
    assert config.system.homeo is not None
    h = make_homeo(config.system.homeo)
    if isinstance(spec, Conjugated):
        other_spec: SystemSpec = spec.inner
    else:
        other_spec = Conjugated(spec, h)
    other_graph = build_chain_graph(
        other_spec,
        grid_for(other_spec, graph.grid.n),
        _field_for(config.eps),
        config.mode,
    )
    other_poset = chain_components(condense(other_graph))
    if isinstance(spec, Conjugated):
        base, twin = other_poset, poset
    else:
        base, twin = poset, other_poset
    iso = order_isomorphic(base, twin)
    tol = 8 * graph.eps.bounds(graph.grid.lo, graph.grid.hi)[1]
    aligned = len(base) == len(twin) and all(
        abs(h.apply(b.representative) - t.representative) <= tol
        for b, t in zip(base.components, twin.components)
    )
    return {
        "n": graph.grid.n,
        "isomorphic": iso.isomorphic,
        "exact": iso.exact,
        "representatives_aligned": aligned,
        "tolerance": _fr(tol),
    }


def run_full(config: AnalysisConfig, seedless: bool = False) -> RunArtifacts:
    """Execute the configured tasks and assemble the report."""
    t0 = time.monotonic()
    checks: List[Dict] = []
    graphs: List[ChainGraph] = []
    posets: List[ComponentPoset] = []
    levels: List[Dict] = []

    for level, n in enumerate(config.resolutions):
        spec = config.system.build(config.depth_at(level))
        graph = build_chain_graph(
            spec, grid_for(spec, n), _field_for(config.eps), config.mode
        )
        cond = condense(graph)
        poset = chain_components(cond)
        graphs.append(graph)
        posets.append(poset)

        entry: Dict = {"n": n, "eps_bounds": None, "components": None}
        lo, hi = graph.eps.bounds(graph.grid.lo, graph.grid.hi)
        entry["eps_bounds"] = [_fr(lo), _fr(hi)]
        depth = getattr(spec, "depth", None)
        if depth is not None:
            entry["depth"] = depth
        entry["components"] = _components_section(cond, poset)
        entry["predicted"] = {
            "label": predicted_label(spec),
            "representatives": [
                _fr(x) for x in predicted_representatives(spec, graph.grid.width)
            ],
        }
        checks.append({"name": f"components@{n}", "passed": len(poset) >= 1})

        if "lyapunov" in config.tasks:
            assignment = synthesize(cond)
            certification = verify(assignment, graph, samples=config.samples)
            entry["lyapunov"] = {
                "component_values": [_fr(v) for v in assignment.component_values],
                "certified": certification.all_passed,
                "checks": [
                    {"name": c.name, "passed": c.passed} for c in certification.checks
                ],
                "notes": list(certification.notes),
            }
            checks.append(
                {"name": f"lyapunov@{n}", "passed": certification.all_passed}
            )

        if "conjugacy" in config.tasks:
            conj = _conjugacy_level(config, spec, graph, poset)
            entry["conjugacy"] = conj
            checks.append(
                {
                    "name": f"conjugacy@{n}",
                    "passed": conj["isomorphic"] and conj["representatives_aligned"],
                }
            )

        levels.append(entry)

    report: Dict = {
        "schema": "chainposet-report-v1",
        "system": _params_echo(config.system),
        "eps": _eps_echo(config.eps),
        "mode": config.mode,
        "tasks": list(config.tasks),
        "samples": config.samples,
        "levels": levels,
    }

    trace = RefinementTrace(
        tuple(
            TraceLevel(g.grid.n, e.get("depth"), g.eps, p)
            for e, g, p in zip(levels, graphs, posets)
        )
    )

    if "refine" in config.tasks:
        matches: List[List[Optional[int]]] = []
        tolerances: List[str] = []
        all_matched = True
        for (coarse, fine), coarse_graph in zip(zip(posets, posets[1:]), graphs):
            lo, hi = coarse_graph.grid.lo, coarse_graph.grid.hi
            tol = 8 * coarse_graph.eps.bounds(lo, hi)[1]
            m = match_components(coarse, fine, tolerance=tol)
            matches.append(list(m))
            tolerances.append(_fr(tol))
            all_matched = all_matched and all(k is not None for k in m)
        report["refine"] = {
            "matches": matches,
            "tolerances": tolerances,
            "all_matched": all_matched,
        }
        checks.append({"name": "refine", "passed": all_matched})

    if "signature" in config.tasks:
        try:
            sig = density_signature(trace)
        except PosetError as e:
            report["signature"] = {"error": str(e)}
            checks.append({"name": "signature", "passed": False})
        else:
            report["signature"] = {
                "counts": list(sig.counts),
                "dense_growth": sig.dense_growth,
                "persistent_pairs": [
                    {
                        "first_pair": list(p.first_pair),
                        "gap": [_fr(p.gap[0]), _fr(p.gap[1])],
                    }
                    for p in sig.persistent_pairs
                ],
            }

    report["checks"] = sorted(checks, key=lambda c: c["name"])
    if not seedless:
        report["timing"] = {"total_seconds": round(time.monotonic() - t0, 6)}
    return RunArtifacts(report, graphs, posets)


def run(config: AnalysisConfig, seedless: bool = False) -> Dict:
    return run_full(config, seedless).report


def exit_status(report: Dict) -> int:
    return 0 if all(c["passed"] for c in report["checks"]) else 1


def render_json(report: Dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def predict_report(config: AnalysisConfig) -> Dict:
    """Model predictions per configured resolution, no graphs built."""
    out: List[Dict] = []
    for level, n in enumerate(config.resolutions):
        spec = config.system.build(config.depth_at(level))
        width = grid_for(spec, n).width
        entry: Dict = {
            "n": n,
            "label": predicted_label(spec),
            "representatives": [
                _fr(x) for x in predicted_representatives(spec, width)
            ],
        }
        depth = getattr(spec, "depth", None)
        if depth is not None:
            entry["depth"] = depth
        out.append(entry)
    return {"schema": "chainposet-predict-v1", "levels": out}


# front end


def _print_summary(report: Dict, stream) -> None:
    print(f"system: {json.dumps(report['system'], sort_keys=True)}", file=stream)
    for entry in report["levels"]:
        comp = entry["components"]
        bits = [
            f"n={entry['n']}",
            f"components={comp['count']}",
            f"linear={str(comp['linear']).lower()}",
        ]
        if "lyapunov" in entry:
            bits.append(f"certified={str(entry['lyapunov']['certified']).lower()}")
        if "conjugacy" in entry:
            bits.append(f"isomorphic={str(entry['conjugacy']['isomorphic']).lower()}")
        print(" ".join(bits), file=stream)
    if "signature" in report:
        sig = report["signature"]
        if "error" in sig:
            print(f"signature: error: {sig['error']}", file=stream)
        else:
            print(
                "signature: counts={} dense_growth={} persistent={}".format(
                    ",".join(str(c) for c in sig["counts"]),
                    str(sig["dense_growth"]).lower(),
                    len(sig["persistent_pairs"]),
                ),
                file=stream,
            )
    passed = sum(1 for c in report["checks"] if c["passed"])
    print(f"checks: {passed}/{len(report['checks'])} passed", file=stream)
    for c in report["checks"]:
        if not c["passed"]:
            print(f"  FAILED {c['name']}", file=stream)


def _write_json(report: Dict, path: str, stream) -> None:
    text = render_json(report)
    if path == "-":
        stream.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainposet",
        description="Chain-component analysis of interval maps on uniform grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="run the configured tasks")
    analyze.add_argument("config", help="path to a config file")
    analyze.add_argument("--json", metavar="PATH", help="write the JSON report ('-' for stdout)")
    analyze.add_argument(
        "--seedless",
        action="store_true",
        help="omit the timing block so reports are byte-identical across runs",
    )
    analyze.add_argument(
        "--dump-graph", metavar="DIR", help="write adjacency dumps per resolution"
    )
    analyze.add_argument(
        "--dot", metavar="DIR", help="write DOT files per resolution"
    )

    predict = sub.add_parser("predict", help="print model predictions only")
    predict.add_argument("config", help="path to a config file")
    predict.add_argument("--json", metavar="PATH", help="write predictions as JSON ('-' for stdout)")

    dot = sub.add_parser("dot", help="write component poset DOT files")
    dot.add_argument("config", help="path to a config file")
    dot.add_argument("-o", "--output-dir", required=True, help="directory for DOT files")
    return parser


def _write_dots(artifacts: RunArtifacts, outdir: str, stream) -> None:
    directory = Path(outdir)
    directory.mkdir(parents=True, exist_ok=True)
    for graph, poset in zip(artifacts.graphs, artifacts.posets):
        path = directory / f"components_n{graph.grid.n}.dot"
        path.write_text(to_dot(poset, name=f"components_n{graph.grid.n}"), encoding="utf-8")
        print(f"wrote {path}", file=stream)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    out = sys.stdout
    try:
        config = load_config(args.config)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    if args.command == "predict":
        report = predict_report(config)
        if args.json:
            _write_json(report, args.json, out)
        if args.json != "-":
            for entry in report["levels"]:
                reps = " ".join(entry["representatives"])
                print(f"n={entry['n']} label={entry['label']} representatives: {reps}", file=out)
        return 0

    artifacts = run_full(config, seedless=getattr(args, "seedless", False))
    report = artifacts.report

    if args.command == "dot":
        _write_dots(artifacts, args.output_dir, out)
        return exit_status(report)

    if args.dump_graph:
        directory = Path(args.dump_graph)
        directory.mkdir(parents=True, exist_ok=True)
        for graph in artifacts.graphs:
            path = directory / f"graph_n{graph.grid.n}.txt"
            path.write_text(dump_adjacency(graph), encoding="utf-8")
            print(f"wrote {path}", file=out)
    if args.dot:
        _write_dots(artifacts, args.dot, out)
    if args.json:
        _write_json(report, args.json, out)
    if args.json != "-":
        _print_summary(report, out)
    return exit_status(report)


if __name__ == "__main__":
    sys.exit(main())
