"""Order-theoretic views of component posets.

A ComponentPoset lists recurrent components left to right with (a, b)
pairs meaning a sits strictly below b.  This module adds the usual poset
queries, a positional order-isomorphism check and, across a sequence of
increasingly fine analyses, a density signature that tells gaps that keep
subdividing apart from gaps that persist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .chaingraph import ComponentPoset


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


def linear_order_type(poset: ComponentPoset) -> Tuple[int, ...]:
    """Component indices from bottom to top; only for linear posets."""
    if not is_linear(poset):
        raise PosetError("poset is not linear")
    m = len(poset.components)
    below = [0] * m
    for _, b in poset.pairs:
        below[b] += 1
    return tuple(sorted(range(m), key=lambda k: below[k]))


def order_isomorphic(p: ComponentPoset, q: ComponentPoset) -> bool:
    """Whether component k of p to component k of q is an order isomorphism.

    Both posets list components left to right, and an increasing change of
    coordinates keeps that order, so k -> k is the only candidate map and
    the verdict is exact.
    """
    return len(p) == len(q) and p.pairs == q.pairs


def to_dot(poset: ComponentPoset, name: str = "chain_components") -> str:
    """DOT digraph of the Hasse diagram, arrows pointing down the order."""
    lines = [f"digraph {name} {{"]
    for k, comp in enumerate(poset.components):
        lines.append(f'  n{k} [label="{comp.representative}"];')
    for a, b in hasse_covers(poset):
        lines.append(f"  n{b} -> n{a};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# refinement


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


def density_signature(posets: Sequence[ComponentPoset]) -> DensitySignature:
    """Contrast of refining and persisting gaps along the refinement levels.

    dense_growth holds when every gap between neighbouring components
    acquires a new component at every step.  A level-0 gap persists when
    it never refines and its midpoint keeps landing in a gap between
    neighbouring components all the way down; such pairs are reported
    with their facing endpoints at the final level.
    """
    if len(posets) < 2:
        raise PosetError("need at least two levels")
    for lvl, poset in enumerate(posets):
        _validate_spatial(poset, lvl)
    counts = tuple(len(poset.components) for poset in posets)
    dense = True
    base = posets[0]
    active = [
        ((k, k + 1), _gap(base, k)) for k in range(len(base.components) - 1)
    ]
    for coarse, fine in zip(posets, posets[1:]):
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
