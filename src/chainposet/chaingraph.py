"""Cell graphs of epsilon-chain transitions and their recurrent structure.

A Grid splits the system's core interval into n closed cells.  The chain
graph has an edge i -> j when a single chain step of slack epsilon can
move from somewhere in cell i to somewhere in cell j, judged against the
exact image of cell i:

- cross edges (i != j) need dist(image(cell_i), cell_j) < epsilon, with
  epsilon taken as the supremum of the slack field over the image part
  being tested,
- the self edge i -> i needs the image to actually intersect cell i.

Keeping the self rule at distance exactly zero stops cells that map just
short of themselves from being reported as spurious one-cell recurrent
components; mutual cross edges still capture genuine recurrence bands.

Recurrent components are the strongly connected components of size at
least two plus the self-edged singletons; ordering them by reachability
(later in the flow is lower) gives the component poset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Sequence, Tuple, Union

from .systems import (
    SystemSpec,
    _PLTable,
    _pl_apply,
    _pl_table,
    evaluate,
    image_intervals,
    is_increasing,
    is_open,
    to_fraction,
    values_at,
)

MAX_CELLS = 1 << 20
MAX_EDGES = 1 << 26


class ChainGraphError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    lo: Fraction
    hi: Fraction
    n: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", to_fraction(self.lo))
        object.__setattr__(self, "hi", to_fraction(self.hi))
        if not isinstance(self.n, int):
            raise TypeError(f"cell count must be an int, got {self.n!r}")
        if not self.lo < self.hi:
            raise ChainGraphError("grid must have positive length")
        if not 1 <= self.n <= MAX_CELLS:
            raise ChainGraphError(f"cell count must be in 1..{MAX_CELLS}")

    @cached_property
    def width(self) -> Fraction:
        return (self.hi - self.lo) / self.n

    def cell(self, i: int) -> Tuple[Fraction, Fraction]:
        if not 0 <= i < self.n:
            raise IndexError(i)
        w = self.width
        return self.lo + i * w, self.lo + (i + 1) * w

    def midpoint(self, i: int) -> Fraction:
        a, b = self.cell(i)
        return (a + b) / 2

    def points(self) -> List[Fraction]:
        w = self.width
        return [self.lo + i * w for i in range(self.n + 1)]


def grid_for(spec: SystemSpec, n: int) -> Grid:
    """Grid over the closed core of the system's domain.

    Open domains are inset by exactly one cell width at each end, so n
    cells over (0, 1) cover [1/(n+2), (n+1)/(n+2)].
    """
    if is_open(spec):
        return Grid(Fraction(1, n + 2), Fraction(n + 1, n + 2), n)
    return Grid(Fraction(0), Fraction(1), n)


@dataclass(frozen=True)
class ConstantField:
    eps: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", to_fraction(self.eps))
        if not self.eps > 0:
            raise ChainGraphError("slack must be positive")

    def sup_over(self, a: Fraction, b: Fraction) -> Fraction:
        return self.eps

    def bounds(self, a: Fraction, b: Fraction) -> Tuple[Fraction, Fraction]:
        return self.eps, self.eps


@dataclass(frozen=True)
class PiecewiseField:
    """Positive piecewise-linear slack over [0, 1]."""

    points: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = tuple((to_fraction(x), to_fraction(v)) for x, v in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2 or pts[0][0] != 0 or pts[-1][0] != 1:
            raise ChainGraphError("slack breakpoints must span [0, 1]")
        for (x1, _), (x2, _) in zip(pts, pts[1:]):
            if not x1 < x2:
                raise ChainGraphError("slack breakpoints must strictly increase")
        if any(v <= 0 for _, v in pts):
            raise ChainGraphError("slack must be positive")

    @cached_property
    def _table(self) -> _PLTable:
        return _pl_table(self.points)

    def value(self, x: Fraction) -> Fraction:
        return _pl_apply(self._table, x)

    def _over(self, a: Fraction, b: Fraction) -> List[Fraction]:
        vals = [self.value(a), self.value(b)]
        vals.extend(v for x, v in self.points if a < x < b)
        return vals

    def sup_over(self, a: Fraction, b: Fraction) -> Fraction:
        return max(self._over(a, b))

    def bounds(self, a: Fraction, b: Fraction) -> Tuple[Fraction, Fraction]:
        vals = self._over(a, b)
        return min(vals), max(vals)


EpsilonField = Union[ConstantField, PiecewiseField]


def auto_field(grid: Grid) -> ConstantField:
    return ConstantField(2 * grid.width)


@dataclass(frozen=True)
class ChainGraph:
    spec: SystemSpec
    grid: Grid
    eps: EpsilonField
    adjacency: Tuple[Tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.grid.n

    def edge_count(self) -> int:
        return sum(len(row) for row in self.adjacency)


def cell_images(
    spec: SystemSpec, grid: Grid
) -> List[Tuple[Tuple[Fraction, Fraction], ...]]:
    """Exact image of every closed cell, as sorted disjoint intervals."""
    if is_increasing(spec):
        if 0 <= grid.lo and grid.hi <= 1:
            # every point in one call, as numerators over one denominator
            lo, w = grid.lo, grid.width
            d = math.lcm(lo.denominator, w.denominator)
            first = lo.numerator * (d // lo.denominator)
            step = w.numerator * (d // w.denominator)
            vals = values_at(spec, range(first, first + step * grid.n + 1, step), d)
        else:
            # a grid that leaves the domain fails here as evaluate fails
            vals = [evaluate(spec, x) for x in grid.points()]
        return [((vals[i], vals[i + 1]),) for i in range(grid.n)]
    return [image_intervals(spec, *grid.cell(i)) for i in range(grid.n)]


def build_chain_graph(
    spec: SystemSpec,
    grid: Grid,
    eps: Optional[EpsilonField] = None,
) -> ChainGraph:
    """Exact transition graph of single chain steps on the grid."""
    if eps is None:
        eps = auto_field(grid)
    parts = cell_images(spec, grid)
    n, lo, w = grid.n, grid.lo, grid.width
    adjacency: List[Tuple[int, ...]] = []
    # rows are sliced from one list, so equal targets share one int object
    cells = list(range(n))
    total = 0
    for i in range(n):
        ci_lo, ci_hi = grid.cell(i)
        ranges: List[Tuple[int, int]] = []
        hits_self = False
        for p, q in parts[i]:
            t = eps.sup_over(p, q)
            j_lo = max(0, math.floor((p - t - lo) / w))
            j_hi = min(n - 1, math.ceil((q + t - lo) / w) - 1)
            if j_lo <= j_hi:
                ranges.append((j_lo, j_hi))
            if p <= ci_hi and q >= ci_lo:
                hits_self = True
        ranges.sort()
        merged: List[List[int]] = []
        for a, b in ranges:
            if merged and a <= merged[-1][1] + 1:
                merged[-1][1] = max(merged[-1][1], b)
            else:
                merged.append([a, b])
        total += sum(b - a + 1 for a, b in merged)
        if total > MAX_EDGES:
            raise ChainGraphError("edge budget exceeded; shrink the slack or the grid")
        row: List[int] = []
        for a, b in merged:
            row += cells[a : b + 1]
        if not hits_self and i in row:
            row.remove(i)
        adjacency.append(tuple(row))
    return ChainGraph(spec, grid, eps, tuple(adjacency))


def dump_adjacency(graph: ChainGraph) -> str:
    lines = [f"{i}: {' '.join(map(str, row))}".rstrip() for i, row in enumerate(graph.adjacency)]
    return "\n".join(lines) + "\n"


def strongly_connected_components(
    adjacency: Sequence[Sequence[int]],
) -> Tuple[List[List[int]], List[int]]:
    """Tarjan's algorithm, iterative, single pass.

    Components come out with every successor component emitted before the
    components that reach it, so the emission order is sinks first.
    """
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    on_stack = bytearray(n)
    stack: List[int] = []
    comp_of = [-1] * n
    comps: List[List[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work: List[List[int]] = [[root, 0]]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = 1
            row = adjacency[v]
            advanced = False
            while ptr < len(row):
                u = row[ptr]
                ptr += 1
                if index[u] == -1:
                    work[-1][1] = ptr
                    work.append([u, 0])
                    advanced = True
                    break
                if on_stack[u] and index[u] < low[v]:
                    low[v] = index[u]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index[v]:
                comp: List[int] = []
                while True:
                    u = stack.pop()
                    on_stack[u] = 0
                    comp_of[u] = len(comps)
                    comp.append(u)
                    if u == v:
                        break
                comp.sort()
                comps.append(comp)
    return comps, comp_of


@dataclass(frozen=True)
class Condensation:
    """SCC quotient of a chain graph, in sinks-first emission order.

    The chain components, their order and the Lyapunov ranks are all read
    off this one value, so each graph needs condensing only once.
    """

    grid: Grid
    comp_of: Tuple[int, ...]
    members: Tuple[Tuple[int, ...], ...]
    successors: Tuple[Tuple[int, ...], ...]
    recurrent: Tuple[bool, ...]


def condense(graph: ChainGraph) -> Condensation:
    comps, comp_of = strongly_connected_components(graph.adjacency)
    succs: List[set] = [set() for _ in comps]
    recurrent = [len(c) > 1 for c in comps]
    for i, row in enumerate(graph.adjacency):
        ci = comp_of[i]
        for j in row:
            if j == i:
                recurrent[ci] = True
            cj = comp_of[j]
            if cj != ci:
                succs[ci].add(cj)
    return Condensation(
        graph.grid,
        tuple(comp_of),
        tuple(tuple(c) for c in comps),
        tuple(tuple(sorted(s)) for s in succs),
        tuple(recurrent),
    )


@dataclass(frozen=True)
class Component:
    cells: Tuple[int, ...]
    representative: Fraction
    span: Tuple[Fraction, Fraction]


@dataclass(frozen=True)
class ComponentPoset:
    """Recurrent components ordered by chain reachability.

    Components are listed from left to right on the grid.  A pair (a, b)
    in `pairs` says component a sits strictly below component b: chains
    flow from b down to a.
    """

    grid: Grid
    components: Tuple[Component, ...]
    pairs: frozenset

    def __len__(self) -> int:
        return len(self.components)


def chain_components(cond: Condensation) -> ComponentPoset:
    rec_ids = [c for c, flag in enumerate(cond.recurrent) if flag]
    rec_ids.sort(key=lambda c: cond.members[c][0])
    pos = {c: k for k, c in enumerate(rec_ids)}
    masks = [0] * len(cond.members)
    for c in range(len(cond.members)):
        m = 1 << pos[c] if c in pos else 0
        for s in cond.successors[c]:
            m |= masks[s]
        masks[c] = m
    pairs = set()
    for c in rec_ids:
        here = pos[c]
        below = masks[c] & ~(1 << here)
        k = 0
        while below:
            if below & 1:
                pairs.add((k, here))
            below >>= 1
            k += 1
    grid = cond.grid
    components = []
    for c in rec_ids:
        cells = cond.members[c]
        span = (grid.cell(cells[0])[0], grid.cell(cells[-1])[1])
        components.append(Component(cells, grid.midpoint(cells[0]), span))
    return ComponentPoset(grid, tuple(components), frozenset(pairs))


def recurrent_cells(cond: Condensation) -> Tuple[int, ...]:
    out = []
    for c, flag in enumerate(cond.recurrent):
        if flag:
            out.extend(cond.members[c])
    return tuple(sorted(out))


def reaches_recurrent(cond: Condensation) -> Tuple[bool, ...]:
    """Per cell: can some chain from it enter a recurrent component."""
    ok = [False] * len(cond.members)
    for c in range(len(cond.members)):
        ok[c] = cond.recurrent[c] or any(ok[s] for s in cond.successors[c])
    return tuple(ok[c] for c in cond.comp_of)
