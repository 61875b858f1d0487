"""Synthesis and certification of discrete complete Lyapunov functions.

synthesize ranks the condensation of a chain graph from its sinks up and
places the ranks at middle-third set points, so the assignment is
constant on every strongly connected piece, strictly decreasing along
every condensation edge, and injective across components.  verify checks
those properties again from scratch against the graph and fresh samples
of the dynamics, and reports each check separately.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .chaingraph import ChainGraph, Condensation, Grid, condense
from .systems import domain_of, evaluate


def cantor_value(rank: int, total: int) -> Fraction:
    """rank-th of `total` increasing values in the middle-third set.

    The rank's binary digits, doubled, become base-3 digits, so distinct
    ranks get distinct values and order is preserved.
    """
    if total < 1:
        raise ValueError("total must be positive")
    if not 0 <= rank < total:
        raise ValueError("rank out of range")
    bits = (total - 1).bit_length()
    value = Fraction(0)
    for k in range(bits):
        b = (rank >> (bits - 1 - k)) & 1
        value += Fraction(2 * b, 3 ** (k + 1))
    return value


def in_middle_third_set(x: Fraction) -> bool:
    """Membership test for finite base-3 expansions with digits 0 and 2."""
    if not 0 <= x < 1:
        return False
    den = x.denominator
    while den % 3 == 0:
        den //= 3
    if den != 1:
        return False
    y = x
    while y > 0:
        y *= 3
        digit = int(y)
        if digit == 1:
            return False
        y -= digit
    return True


@dataclass(frozen=True)
class LyapunovAssignment:
    grid: Grid
    cell_values: Tuple[Fraction, ...]
    component_values: Tuple[Fraction, ...]
    ranks: Tuple[int, ...]


def synthesize(cond: Condensation) -> LyapunovAssignment:
    """Rank condensation nodes sinks first and map ranks to values.

    Ties between ready nodes break toward the smaller leftmost cell, so
    the result is deterministic.
    """
    m = len(cond.members)
    reversed_succs: List[List[int]] = [[] for _ in range(m)]
    pending = [0] * m
    for c, succs in enumerate(cond.successors):
        pending[c] = len(succs)
        for s in succs:
            reversed_succs[s].append(c)
    ready = [(cond.members[c][0], c) for c in range(m) if pending[c] == 0]
    heapq.heapify(ready)
    ranks = [-1] * m
    next_rank = 0
    while ready:
        _, c = heapq.heappop(ready)
        ranks[c] = next_rank
        next_rank += 1
        for u in reversed_succs[c]:
            pending[u] -= 1
            if pending[u] == 0:
                heapq.heappush(ready, (cond.members[u][0], u))
    component_values = tuple(cantor_value(r, m) for r in ranks)
    cell_values = [component_values[c] for c in cond.comp_of]
    return LyapunovAssignment(
        cond.grid, tuple(cell_values), component_values, tuple(ranks)
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Optional[str] = None


@dataclass(frozen=True)
class CertificationReport:
    checks: Tuple[CheckResult, ...]
    notes: Tuple[str, ...] = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _sample_points(grid: Grid, i: int, samples: int) -> List[Fraction]:
    # sample k of cell i is lo + w*(i + (k+1)/(samples+1)), built on the
    # integer parts of lo and w
    lo, w = grid.lo, grid.width
    m = samples + 1
    den = lo.denominator * w.denominator * m
    step = w.numerator * lo.denominator
    base = lo.numerator * w.denominator * m + step * i * m
    return [Fraction(base + step * k, den) for k in range(1, m)]


def verify(
    assignment: LyapunovAssignment,
    graph: ChainGraph,
    samples: int = 10,
) -> CertificationReport:
    """Re-check the Lyapunov properties against the graph and dynamics.

    The condensation is recomputed here from the graph on purpose: the
    certificate is then checked against structure that was not handed in
    alongside it, so a wrong condensation given to `synthesize` cannot
    certify itself.
    """
    if assignment.grid != graph.grid:
        raise ValueError("assignment and graph use different grids")
    if samples < 1:
        raise ValueError("need at least one sample per cell")
    spec = graph.spec
    grid = graph.grid
    values = assignment.cell_values
    cond = condense(graph)
    notes: List[str] = []

    constancy = CheckResult("constancy", True)
    for members in cond.members:
        vals = {values[i] for i in members}
        if len(vals) > 1:
            constancy = CheckResult(
                "constancy", False,
                f"cells {members[0]} and {members[-1]} share a component "
                f"but carry different values",
            )
            break

    rec_values = [values[members[0]]
                  for members, flag in zip(cond.members, cond.recurrent) if flag]
    injectivity = CheckResult("injectivity", True)
    if len(set(rec_values)) != len(rec_values):
        injectivity = CheckResult(
            "injectivity", False, "two recurrent components share a value"
        )

    edge_order = CheckResult("edge_order", True)
    for i, row in enumerate(graph.adjacency):
        for j in row:
            if cond.comp_of[i] != cond.comp_of[j] and not values[i] > values[j]:
                edge_order = CheckResult(
                    "edge_order", False,
                    f"edge {i} -> {j} does not descend "
                    f"({values[i]} vs {values[j]})",
                )
                break
        if not edge_order.passed:
            break

    descent = CheckResult("descent", True)
    dom = domain_of(spec)
    skipped = 0
    for i in range(grid.n):
        for x in _sample_points(grid, i, samples):
            if not dom.contains(x):
                skipped += 1
                continue
            y = evaluate(spec, x)
            if not grid.lo <= y <= grid.hi:
                skipped += 1
                continue
            j = grid.cell_of(y)
            if cond.comp_of[i] == cond.comp_of[j]:
                if values[i] != values[j]:
                    descent = CheckResult(
                        "descent", False,
                        f"step {x} -> {y} moves within one component "
                        f"but changes value",
                    )
                    break
            elif not values[i] > values[j]:
                descent = CheckResult(
                    "descent", False,
                    f"step {x} -> {y} leaves cell {i} without descending",
                )
                break
        if not descent.passed:
            break
    if skipped:
        notes.append(f"descent: skipped {skipped} samples outside the grid")

    value_set = CheckResult("value_set", True)
    # distinct values in order of first use, so the witness is the first
    # offending cell
    for v in dict.fromkeys(values):
        if not in_middle_third_set(v):
            value_set = CheckResult(
                "value_set", False,
                f"cell {values.index(v)} carries {v}, outside the value set",
            )
            break

    return CertificationReport(
        (descent, constancy, injectivity, edge_order, value_set),
        tuple(notes),
    )
