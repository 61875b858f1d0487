"""Synthesis and certification of discrete complete Lyapunov functions.

synthesize ranks the condensation of a chain graph from its sinks up and
places the ranks at middle-third set points, so the assignment is
constant on every strongly connected piece, strictly decreasing along
every condensation edge, and injective across components.  verify checks
those properties again from scratch against the graph and the exact
images of the cells, and reports each check separately.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .chaingraph import ChainGraph, Condensation, Grid, cell_images, condense
from .systems import SystemSpec, evaluate  # evaluate: unused, kept for perfbench/tracing.py to wrap


def _doubled_digits(rank: int) -> int:
    # the numerator over 3^bits: the binary digits, each 1 doubled, read in
    # base 3, so distinct ranks get distinct values and order is kept
    return int(f"{rank:b}".replace("1", "2"), 3)


# base-3 digits are read _CHUNK_DIGITS at a time; a chunk passes when it is
# one of the 2^_CHUNK_DIGITS numbers below _CHUNK whose digits are 0 and 2
_CHUNK_DIGITS = 8
_CHUNK = 3**_CHUNK_DIGITS
_DIGITS_0_2 = frozenset(_doubled_digits(r) for r in range(2**_CHUNK_DIGITS))


def _only_digits_0_2(p: int) -> bool:
    """True when every base-3 digit of p >= 0 is 0 or 2."""
    while p:
        p, chunk = divmod(p, _CHUNK)
        if chunk not in _DIGITS_0_2:
            return False
    return True


@dataclass(frozen=True)
class LyapunovAssignment:
    grid: Grid
    cell_values: Tuple[Fraction, ...]
    component_values: Tuple[Fraction, ...]


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
    three_bits = 3 ** (m - 1).bit_length()
    component_values = tuple(Fraction(_doubled_digits(r), three_bits) for r in ranks)
    cell_values = [component_values[c] for c in cond.comp_of]
    return LyapunovAssignment(cond.grid, tuple(cell_values), component_values)


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


def _descent(
    spec: SystemSpec,
    grid: Grid,
    cond: Condensation,
    values: Tuple[Fraction, ...],
    keys: List[int],
) -> Tuple[CheckResult, int]:
    """Descent over the exact cell images, and the count of image parts
    that lie wholly outside the grid.

    Some point of cell i steps into each cell j whose closed cell meets
    the image of cell i, so each such j must sit in i's component at the
    same value, or strictly below it.  Values are compared through their
    integer keys and named in the witness as they were given.  Each image
    end comes measured in cell widths on integers, so the cells it meets
    are found by integer floor division.
    """
    n = grid.n
    comp_of = cond.comp_of
    skipped = 0
    # the images are recomputed, not read off the graph, so the certificate
    # is checked against images that the build did not hand over
    for i, parts in enumerate(cell_images(spec, grid)):
        comp, key = comp_of[i], keys[i]
        for _, _, (rp, tp), (rq, tq) in parts:
            # c = ceil((p - lo)/w) and f = floor((q - lo)/w): the part lies
            # wholly outside the grid when f < 0 or c > n, and otherwise
            # meets the closed cells c - 1 to f
            c, f = -(-rp // tp), rq // tq
            if f < 0 or c > n:
                skipped += 1
                continue
            for j in range(max(0, c - 1), min(n - 1, f) + 1):
                if comp_of[j] == comp:
                    if keys[j] != key:
                        return CheckResult(
                            "descent", False,
                            f"cell {i} steps into cell {j} of its own component "
                            f"but changes value",
                        ), skipped
                elif not key > keys[j]:
                    return CheckResult(
                        "descent", False,
                        f"cell {i} steps into cell {j} without descending "
                        f"({values[i]} vs {values[j]})",
                    ), skipped
    return CheckResult("descent", True), skipped


def _value_set(values: Tuple[Fraction, ...], keys: List[int], den: int) -> CheckResult:
    """Whether every value lies in the middle-third set, read off the keys.

    With den = 3^K*m and m prime to 3, the value key/den has a power of 3
    as its denominator exactly when m divides the key, and then its base-3
    digits are the K digits of key // m.  Distinct keys are checked in
    order of first use, so the witness is the first offending cell.
    """
    m = den
    while m % 3 == 0:
        m //= 3
    for key in dict.fromkeys(keys):
        if not (0 <= key < den and key % m == 0 and _only_digits_0_2(key // m)):
            i = keys.index(key)
            return CheckResult(
                "value_set", False, f"cell {i} carries {values[i]}, outside the value set"
            )
    return CheckResult("value_set", True)


def verify(assignment: LyapunovAssignment, graph: ChainGraph) -> CertificationReport:
    """Re-check the Lyapunov properties against the graph and dynamics.

    The condensation is recomputed here from the graph on purpose: the
    certificate is then checked against structure that was not handed in
    alongside it, so a wrong condensation given to `synthesize` cannot
    certify itself.  Descent is decided on the exact image of every cell,
    recomputed here as well, so it covers every point of the grid.

    Every comparison reads integer keys: each value's numerator over the
    lcm of all the denominators (3^bits for a synthesized assignment), so
    equal values get equal keys and order is kept exactly.
    """
    if assignment.grid != graph.grid:
        raise ValueError("assignment and graph use different grids")
    values = assignment.cell_values
    if len(values) != graph.grid.n:
        raise ValueError(
            f"assignment has {len(values)} cell values for {graph.grid.n} cells"
        )
    den = math.lcm(*{v.denominator for v in values})
    keys = [v.numerator * (den // v.denominator) for v in values]
    cond = condense(graph)
    notes: List[str] = []

    constancy = CheckResult("constancy", True)
    for members in cond.members:
        if len(members) > 1 and len({keys[i] for i in members}) > 1:
            a = members[0]
            b = next(i for i in members if keys[i] != keys[a])
            constancy = CheckResult(
                "constancy", False,
                f"cells {a} and {b} share a component but carry different "
                f"values ({values[a]} vs {values[b]})",
            )
            break

    injectivity = CheckResult("injectivity", True)
    # each recurrent component's first cell, by its value's key
    first_cell: Dict[int, int] = {}
    for members, flag in zip(cond.members, cond.recurrent):
        if flag:
            b = members[0]
            a = first_cell.setdefault(keys[b], b)
            if a != b:
                injectivity = CheckResult(
                    "injectivity", False,
                    f"the recurrent components of cells {a} and {b} share "
                    f"the value {values[b]}",
                )
                break

    edge_order = CheckResult("edge_order", True)
    comp_of = cond.comp_of
    for i, row in enumerate(graph.adjacency):
        comp, key = comp_of[i], keys[i]
        for j in row:
            if comp_of[j] != comp and not key > keys[j]:
                edge_order = CheckResult(
                    "edge_order", False,
                    f"edge {i} -> {j} does not descend "
                    f"({values[i]} vs {values[j]})",
                )
                break
        if not edge_order.passed:
            break

    descent, skipped = _descent(graph.spec, graph.grid, cond, values, keys)
    if skipped:
        notes.append(f"descent: skipped {skipped} image parts outside the grid")

    return CertificationReport(
        (descent, constancy, injectivity, edge_order, _value_set(values, keys, den)),
        tuple(notes),
    )
