"""Order-theoretic views of component posets and refinement traces.

A ComponentPoset lists recurrent components left to right with (a, b)
pairs meaning a sits strictly below b.  This module adds the usual poset
queries, duality, order isomorphism and, across a trace of increasingly
fine analyses, a density signature that tells gaps that keep subdividing
apart from gaps that persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .chaingraph import (
    ComponentPoset,
    EpsilonField,
    Mode,
    build_chain_graph,
    chain_components,
    condense,
    grid_for,
)
from .systems import SystemSpec

BACKTRACK_BUDGET = 1_000_000


class PosetError(ValueError):
    pass


def is_linear(poset: ComponentPoset) -> bool:
    m = len(poset.components)
    return len(poset.pairs) == m * (m - 1) // 2


def minimal_elements(poset: ComponentPoset) -> Tuple[int, ...]:
    m = len(poset.components)
    has_lower = {b for _, b in poset.pairs}
    return tuple(a for a in range(m) if a not in has_lower)


def maximal_elements(poset: ComponentPoset) -> Tuple[int, ...]:
    m = len(poset.components)
    has_upper = {a for a, _ in poset.pairs}
    return tuple(b for b in range(m) if b not in has_upper)


def hasse_covers(poset: ComponentPoset) -> Tuple[Tuple[int, int], ...]:
    """Pairs (a, b) with a < b and nothing strictly between."""
    covers = []
    for a, b in sorted(poset.pairs):
        if any((a, c) in poset.pairs and (c, b) in poset.pairs
               for c in range(len(poset.components))):
            continue
        covers.append((a, b))
    return tuple(covers)


def dual(poset: ComponentPoset) -> ComponentPoset:
    return ComponentPoset(
        poset.grid,
        poset.components,
        frozenset((b, a) for a, b in poset.pairs),
    )


def linear_order_type(poset: ComponentPoset) -> Tuple[int, ...]:
    """Component indices from bottom to top; only for linear posets."""
    if not is_linear(poset):
        raise PosetError("poset is not linear")
    m = len(poset.components)
    below = [0] * m
    for _, b in poset.pairs:
        below[b] += 1
    return tuple(sorted(range(m), key=lambda k: below[k]))


@dataclass(frozen=True)
class IsoResult:
    isomorphic: bool
    exact: bool


def _profiles(poset: ComponentPoset) -> List[Tuple[int, int]]:
    m = len(poset.components)
    down = [0] * m
    up = [0] * m
    for a, b in poset.pairs:
        up[a] += 1
        down[b] += 1
    return [(down[k], up[k]) for k in range(m)]


def order_isomorphic(p: ComponentPoset, q: ComponentPoset) -> IsoResult:
    """Search for a bijection preserving the order both ways.

    Falls back to invariant comparison (exact=False) when the search
    space is too large to finish.
    """
    m = len(p.components)
    if m != len(q.components) or len(p.pairs) != len(q.pairs):
        return IsoResult(False, True)
    prof_p, prof_q = _profiles(p), _profiles(q)
    if sorted(prof_p) != sorted(prof_q):
        return IsoResult(False, True)
    if m == 0:
        return IsoResult(True, True)
    if m > 64:
        return IsoResult(True, False)

    budget = BACKTRACK_BUDGET
    assigned: List[Optional[int]] = [None] * m
    used = [False] * m

    def consistent(a: int, b: int) -> bool:
        for a2, b2 in enumerate(assigned):
            if b2 is None or a2 == a:
                continue
            if ((a2, a) in p.pairs) != ((b2, b) in q.pairs):
                return False
            if ((a, a2) in p.pairs) != ((b, b2) in q.pairs):
                return False
        return True

    def search(k: int) -> Optional[bool]:
        nonlocal budget
        if k == m:
            return True
        for b in range(m):
            budget -= 1
            if budget <= 0:
                return None
            if used[b] or prof_q[b] != prof_p[k]:
                continue
            if not consistent(k, b):
                continue
            assigned[k] = b
            used[b] = True
            found = search(k + 1)
            if found:
                return found
            assigned[k] = None
            used[b] = False
            if found is None:
                return None
        return False

    out = search(0)
    if out is None:
        return IsoResult(True, False)
    return IsoResult(out, True)


def to_dot(poset: ComponentPoset, name: str = "chain_components") -> str:
    """DOT digraph of the Hasse diagram, arrows pointing down the order."""
    lines = [f"digraph {name} {{"]
    for k, comp in enumerate(poset.components):
        lines.append(f'  n{k} [label="{comp.representative}"];')
    for a, b in hasse_covers(poset):
        lines.append(f"  n{b} -> n{a};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# refinement traces


@dataclass(frozen=True)
class TraceLevel:
    resolution: int
    depth: Optional[int]
    eps: EpsilonField
    poset: ComponentPoset


@dataclass(frozen=True)
class RefinementTrace:
    levels: Tuple[TraceLevel, ...]


def trace_level(
    spec: SystemSpec,
    n: int,
    eps: Optional[EpsilonField] = None,
    mode: str = Mode.ENCLOSURE,
) -> TraceLevel:
    graph = build_chain_graph(spec, grid_for(spec, n), eps, mode)
    depth = getattr(spec, "depth", None)
    return TraceLevel(n, depth, graph.eps, chain_components(condense(graph)))


def match_components(
    coarse: ComponentPoset,
    fine: ComponentPoset,
    tolerance: Fraction = Fraction(0),
) -> Tuple[Optional[int], ...]:
    """For each coarse component, the fine component whose span holds its
    representative, or None.  A positive tolerance widens the spans, since
    representatives are only located to within the coarse slack."""
    out: List[Optional[int]] = []
    for comp in coarse.components:
        found = None
        for k, cand in enumerate(fine.components):
            if cand.span[0] - tolerance <= comp.representative <= cand.span[1] + tolerance:
                found = k
                break
        out.append(found)
    return tuple(out)


@dataclass(frozen=True)
class PersistentPair:
    first_pair: Tuple[int, int]
    gap: Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class DensitySignature:
    counts: Tuple[int, ...]
    dense_growth: bool
    persistent_pairs: Tuple[PersistentPair, ...]


def _validate_spatial(poset: ComponentPoset, level: int) -> None:
    comps = poset.components
    for a, b in zip(comps, comps[1:]):
        if not a.span[1] < b.span[0]:
            raise PosetError(f"level {level}: component spans overlap")
    for a, b in poset.pairs:
        if not a < b:
            raise PosetError(f"level {level}: order runs against position")


def _gap(poset: ComponentPoset, k: int) -> Tuple[Fraction, Fraction]:
    return poset.components[k].span[1], poset.components[k + 1].span[0]


def _refines(fine: ComponentPoset, gap: Tuple[Fraction, Fraction]) -> bool:
    return any(gap[0] < c.span[0] and c.span[1] < gap[1] for c in fine.components)


def _locate(fine: ComponentPoset, x: Fraction) -> Optional[int]:
    """Index k when x sits in the gap between fine components k and k+1."""
    comps = fine.components
    for c in comps:
        if c.span[0] <= x <= c.span[1]:
            return None
    for k in range(len(comps) - 1):
        if comps[k].span[1] < x < comps[k + 1].span[0]:
            return k
    return None


def density_signature(trace: RefinementTrace) -> DensitySignature:
    """Contrast of refining and persisting gaps along the trace.

    dense_growth holds when every gap between neighbouring components
    acquires a new component at every step.  A level-0 gap persists when
    it never refines and its midpoint keeps landing in a gap between
    neighbouring components all the way down; such pairs are reported
    with their facing endpoints at the final level.
    """
    if len(trace.levels) < 2:
        raise PosetError("need at least two levels")
    for lvl, level in enumerate(trace.levels):
        _validate_spatial(level.poset, lvl)
    counts = tuple(len(level.poset.components) for level in trace.levels)
    dense = True
    base = trace.levels[0].poset
    active = [
        ((k, k + 1), _gap(base, k)) for k in range(len(base.components) - 1)
    ]
    for coarse_level, fine_level in zip(trace.levels, trace.levels[1:]):
        coarse, fine = coarse_level.poset, fine_level.poset
        for k in range(len(coarse.components) - 1):
            if not _refines(fine, _gap(coarse, k)):
                dense = False
        survivors = []
        for first, gap in active:
            if _refines(fine, gap):
                continue
            mid = (gap[0] + gap[1]) / 2
            k = _locate(fine, mid)
            if k is None:
                continue
            survivors.append((first, _gap(fine, k)))
        active = survivors
    persistent = tuple(PersistentPair(first, gap) for first, gap in active)
    return DensitySignature(counts, dense, persistent)
