"""Layer tracing from outside the package, by wrapping module attributes.

Every boundary is a function that one chainposet module calls through a
name it imported from another, so replacing that attribute catches exactly
the calls made at that site.  Stage boundaries keep spans (name, start,
end, parent); hot boundaries (`evaluate`, `image_intervals`) keep only a
call count and summed time; the ordinal calls made by `systems` keep only a
count.  A span's self time is its duration minus the time of the spans and
hot calls nested in it.
"""

from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

# (module, attribute, kind, metric name)
BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("config", "load_config", "span", "config.load_config"),
    ("cli", "run_full", "span", "cli.run_full"),
    ("cli", "render_json", "span", "cli.render_json"),
    ("cli", "predicted_representatives", "span", "cli.predicted_representatives"),
    ("cli", "predicted_label", "span", "cli.predicted_label"),
    ("cli", "build_chain_graph", "span", "chaingraph.build_chain_graph"),
    ("cli", "chain_components", "span", "chaingraph.chain_components"),
    ("cli", "recurrent_cells", "span", "chaingraph.recurrent_cells"),
    ("cli", "reaches_recurrent", "span", "chaingraph.reaches_recurrent"),
    ("chaingraph", "condense", "span", "chaingraph.condense"),
    ("lyapunov", "condense", "span", "chaingraph.condense"),
    ("cli", "synthesize", "span", "lyapunov.synthesize"),
    ("cli", "verify", "span", "lyapunov.verify"),
    ("cli", "order_isomorphic", "span", "poset.order_isomorphic"),
    ("cli", "match_components", "span", "poset.match_components"),
    ("cli", "density_signature", "span", "poset.density_signature"),
    ("chaingraph", "evaluate", "hot", "systems.evaluate.build"),
    ("lyapunov", "evaluate", "hot", "systems.evaluate.verify"),
    ("chaingraph", "image_intervals", "hot", "systems.image_intervals"),
    ("systems", "fundamental", "count", "ordinal.fundamental"),
    ("systems", "classify", "count", "ordinal.classify"),
    ("systems", "add", "count", "ordinal.add"),
    ("systems", "tail_split", "count", "ordinal.tail_split"),
)


class Tracer:
    """Counters, summed times and spans for one traced run."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.seconds: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.totals: Counter = Counter()
        self.spans: List[list] = []
        self._frames: List[list] = []  # open spans: [span index, nested seconds]
        self._open: set = set()
        self._evals: set = set()
        self._spec_keys: Dict[int, int] = {}
        self._specs: List = []  # every spec seen, so that no id is reused
        self._distinct_specs: List = []
        self._saved: List[Tuple[object, str, Callable]] = []

    def span(self, name: str, fn: Callable) -> Callable:
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        spans, frames, open_ = self.spans, self._frames, self._open

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name in open_:  # recursion: the outermost call holds the time
                return fn(*args, **kwargs)
            open_.add(name)
            frame = [len(spans), 0.0]
            spans.append([name, 0.0, 0.0, frames[-1][0] if frames else None])
            frames.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                open_.discard(name)
                dt = t1 - t0
                seconds[name] += dt
                self_seconds[name] += dt - frame[1]
                spans[frame[0]][1:3] = [t0, t1]
                if frames:
                    frames[-1][1] += dt
            self._after(name, result)
            return result

        return wrapper

    def hot(self, name: str, fn: Callable) -> Callable:
        calls, seconds, frames = self.calls, self.seconds, self._frames
        note = self._note_eval if name.startswith("systems.evaluate.") else None

        def wrapper(*args):
            if note is not None:
                note(*args)
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                calls[name] += 1
                seconds[name] += dt
                if frames:
                    frames[-1][1] += dt

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _note_eval(self, spec, x) -> None:
        k = self._spec_keys.get(id(spec))
        if k is None:
            # equal specs built for different levels count as one system, as
            # in the evaluator's own cache
            distinct = self._distinct_specs
            k = next((i for i, s in enumerate(distinct) if s == spec), len(distinct))
            if k == len(distinct):
                distinct.append(spec)
            self._specs.append(spec)
            self._spec_keys[id(spec)] = k
        self._evals.add((k, x.numerator, x.denominator))

    def _after(self, name: str, result) -> None:
        if name == "chaingraph.build_chain_graph":
            self.totals["chaingraph.edges"] += result.edge_count()
            self.totals["chaingraph.cells"] += result.n
        elif name == "chaingraph.chain_components":
            self.totals["poset.pairs"] += len(result.pairs)

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap every boundary; `modules` maps short names to modules."""
        for mod_name, attr, kind, name in BOUNDARIES:
            module = modules[mod_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, getattr(self, kind)(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def metrics(self) -> Dict[str, float]:
        """Per-layer values of the traced run, keyed by metric name."""
        c, s, ss = self.calls, self.seconds, self.self_seconds
        evals = c["systems.evaluate.build"] + c["systems.evaluate.verify"]
        run = s["cli.run_full"]
        out = {
            "lyapunov.verify.s": s["lyapunov.verify"],
            "lyapunov.verify.self_s": ss["lyapunov.verify"],
            "lyapunov.synthesize.s": s["lyapunov.synthesize"],
            "systems.evaluate.verify.calls": c["systems.evaluate.verify"],
            "systems.evaluate.verify.s": s["systems.evaluate.verify"],
            "systems.evaluate.build.calls": c["systems.evaluate.build"],
            "systems.evaluate.build.s": s["systems.evaluate.build"],
            "systems.evaluate.distinct_ratio": len(self._evals) / evals if evals else 0.0,
            "systems.image_intervals.calls": c["systems.image_intervals"],
            "systems.image_intervals.s": s["systems.image_intervals"],
            "chaingraph.build_chain_graph.s": s["chaingraph.build_chain_graph"],
            "chaingraph.build_chain_graph.self_s": ss["chaingraph.build_chain_graph"],
            "chaingraph.edges": self.totals["chaingraph.edges"],
            "chaingraph.cells": self.totals["chaingraph.cells"],
            "chaingraph.condense.calls": c["chaingraph.condense"],
            "chaingraph.condense.s": s["chaingraph.condense"],
            "poset.pairs": self.totals["poset.pairs"],
            "cli.predicted_representatives.s": s["cli.predicted_representatives"],
            "cli.run_full.s": run,
            "cli.run_full.self_s": ss["cli.run_full"],
            "cli.render_json.s": s["cli.render_json"],
            "config.load_config.s": s["config.load_config"],
            "lyapunov.verify.share": s["lyapunov.verify"] / run if run else 0.0,
            "chaingraph.build_chain_graph.share": (
                s["chaingraph.build_chain_graph"] / run if run else 0.0
            ),
            "systems.image_intervals.share": (
                s["systems.image_intervals"] / run if run else 0.0
            ),
        }
        for op in ("fundamental", "classify", "add", "tail_split"):
            out[f"ordinal.{op}.calls"] = c[f"ordinal.{op}"]
        for stage in ("chain_components", "recurrent_cells", "reaches_recurrent"):
            out[f"chaingraph.{stage}.self_s"] = ss[f"chaingraph.{stage}"]
        for stage in ("order_isomorphic", "match_components", "density_signature"):
            out[f"poset.{stage}.s"] = s[f"poset.{stage}"]
        return out


# metric name -> unit; counts repeat exactly between traced runs, times do not
UNITS: Dict[str, str] = {}
for _name in Tracer().metrics():
    if _name.endswith((".calls", ".edges", ".cells", ".pairs")):
        UNITS[_name] = "count"
    elif _name.endswith((".share", "_ratio")):
        UNITS[_name] = "ratio"
    else:
        UNITS[_name] = "s"
UNITS["trace.overhead"] = "ratio"
