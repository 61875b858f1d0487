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

The strongly connected components (SCCs) come out of one Tarjan pass
sinks first.  An SCC is recurrent exactly when one of its edges stays
inside it: any SCC of two or more cells has such an edge, a single cell
only through its self edge.  Ordering the recurrent SCCs by reachability
(later in the flow is lower) gives the component poset.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import FrozenSet, Iterator, List, Optional, Tuple, Union

from .systems import (
    SystemSpec,
    _PLTable,
    _pl_apply,
    _pl_table,
    evaluate,  # unused, kept for perfbench/tracing.py to wrap
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

    @cached_property
    def ticks(self) -> Tuple[int, int, int]:
        """(d, first, step): grid point k is (first + k*step)/d exactly."""
        lo, w = self.lo, self.width
        d = math.lcm(lo.denominator, w.denominator)
        return d, lo.numerator * (d // lo.denominator), w.numerator * (d // w.denominator)

    def offset(self, y: Fraction) -> Tuple[int, int]:
        """(r, t) with (y - lo)/w = r/t and t > 0: y measured in cell widths."""
        d, first, step = self.ticks
        return y.numerator * d - first * y.denominator, y.denominator * step

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


def cell_images(spec: SystemSpec, grid: Grid) -> Iterator[Tuple[Tuple[Fraction, Fraction], ...]]:
    """Exact image of each closed cell in turn, as sorted disjoint intervals."""
    if is_increasing(spec):
        # every point in one call, as numerators over one denominator; cell
        # i's image is the one interval between values i and i + 1
        d, first, step = grid.ticks
        ys = values_at(spec, range(first, first + step * grid.n + 1, step), d)
        return zip(zip(ys, islice(ys, 1, None)))
    return (image_intervals(spec, *grid.cell(i)) for i in range(grid.n))


def build_chain_graph(
    spec: SystemSpec,
    grid: Grid,
    eps: Optional[EpsilonField] = None,
) -> ChainGraph:
    """Exact transition graph of single chain steps on the grid.

    Every image end and slack is measured in cell widths on integers, so
    each target bound is one integer floor division.  All rows' ranges
    are counted before any row is built, so an over-budget graph is
    refused before it takes its memory.
    """
    if eps is None:
        eps = auto_field(grid)
    n = grid.n
    d, _, step = grid.ticks
    offset = grid.offset
    # merged target ranges [starts[k], ends[k]] of cell i for k in
    # offsets[i]:offsets[i+1], and whether cell i's image meets cell i
    starts, ends, offsets = array("i"), array("i"), array("q", [0])
    hits_self = bytearray(n)
    for i, parts in enumerate(cell_images(spec, grid)):
        ranges: List[Tuple[int, int]] = []
        for p, q in parts:
            t = eps.sup_over(p, q)
            # (p - lo)/w = rp/tp, (q - lo)/w = rq/tq and t/w = sn/sd
            rp, tp = offset(p)
            rq, tq = offset(q)
            sn, sd = t.numerator * d, t.denominator * step
            # first j with cell j's right end above p - t, and last j with
            # its left end below q + t: floor((p - t - lo)/w) and
            # ceil((q + t - lo)/w) - 1
            j_lo = max(0, (rp * sd - sn * tp) // (tp * sd))
            j_hi = min(n - 1, (rq * sd + sn * tq - 1) // (tq * sd))
            if j_lo <= j_hi:
                ranges.append((j_lo, j_hi))
            if rp <= (i + 1) * tp and rq >= i * tq:
                hits_self[i] = 1
        ranges.sort()
        for a, b in ranges:
            if len(starts) > offsets[-1] and a <= ends[-1] + 1:
                ends[-1] = max(ends[-1], b)
            else:
                starts.append(a)
                ends.append(b)
        offsets.append(len(starts))
    total = sum(ends) - sum(starts) + len(starts)
    if total > MAX_EDGES:
        raise ChainGraphError(
            f"edge budget exceeded: {total} edges > MAX_EDGES = {MAX_EDGES}; "
            "shrink the slack or the grid"
        )
    # rows are sliced from one tuple, so equal targets share one int object
    cells = tuple(range(n))
    adjacency: List[Tuple[int, ...]] = []
    for i in range(n):
        row: Tuple[int, ...] = ()
        for k in range(offsets[i], offsets[i + 1]):
            a, b = starts[k], ends[k]
            if a <= i <= b and not hits_self[i]:
                row += cells[a:i] + cells[i + 1 : b + 1]
            else:
                row += cells[a : b + 1]
        adjacency.append(row)
    return ChainGraph(spec, grid, eps, tuple(adjacency))


def dump_adjacency(graph: ChainGraph) -> str:
    lines = [f"{i}: {' '.join(map(str, row))}".rstrip() for i, row in enumerate(graph.adjacency)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Condensation:
    """SCC quotient of a chain graph, in sinks-first emission order.

    Every SCC comes after the SCCs its edges lead into, and it is
    recurrent exactly when one of its edges stays inside it.  The chain
    components, their order and the Lyapunov ranks are all read off this
    one value, so each graph needs condensing only once.
    """

    grid: Grid
    comp_of: Tuple[int, ...]
    members: Tuple[Tuple[int, ...], ...]
    successors: Tuple[Tuple[int, ...], ...]
    recurrent: Tuple[bool, ...]


def condense(graph: ChainGraph) -> Condensation:
    """Tarjan's algorithm, iterative, with one pass over the edges.

    A cell's index is its position on Tarjan's stack, where it stays until
    its SCC closes as the top slice; the cells there are exactly those
    numbered but not yet given a component.  When an SCC closes, every
    target of its rows lies in it or in an SCC emitted before it, so one
    set of their components holds its own id, if it is recurrent, and its
    successors.
    """
    adjacency = graph.adjacency
    n = len(adjacency)
    index = [-1] * n
    low = [0] * n
    comp_of = [-1] * n
    stack: List[int] = []
    members: List[Tuple[int, ...]] = []
    successors: List[Tuple[int, ...]] = []
    recurrent: List[bool] = []
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = 0  # every root starts on an empty stack
        stack.append(root)
        work = [(root, iter(adjacency[root]))]
        while work:
            v, row = work[-1]
            for u in row:
                if index[u] == -1:
                    index[u] = low[u] = len(stack)
                    stack.append(u)
                    work.append((u, iter(adjacency[u])))
                    break
                if comp_of[u] == -1 and index[u] < low[v]:
                    low[v] = index[u]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    c = len(members)
                    cells = sorted(stack[index[v] :])
                    del stack[index[v] :]
                    for u in cells:
                        comp_of[u] = c
                    targets = {comp_of[j] for i in cells for j in adjacency[i]}
                    recurrent.append(c in targets)
                    targets.discard(c)
                    members.append(tuple(cells))
                    successors.append(tuple(sorted(targets)))
    return Condensation(
        graph.grid, tuple(comp_of), tuple(members), tuple(successors), tuple(recurrent)
    )


@dataclass(frozen=True)
class Component:
    cells: Tuple[int, ...]
    representative: Fraction
    span: Tuple[Fraction, Fraction]


def _bits(mask: int) -> List[int]:
    return [k for k in range(mask.bit_length()) if mask >> k & 1]


@dataclass(frozen=True)
class ComponentPoset:
    """Recurrent components ordered by chain reachability.

    Components are listed from left to right on the grid.  `below[b]` is a
    bitmask of the components strictly below component b: bit a is set when
    chains flow from b down to a.
    """

    grid: Grid
    components: Tuple[Component, ...]
    below: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.components)

    @property
    def pairs(self) -> FrozenSet[Tuple[int, int]]:
        """Every (a, b) with a strictly below b, read off the masks."""
        return frozenset((a, b) for b, mask in enumerate(self.below) for a in _bits(mask))


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
    grid = cond.grid
    components = []
    for c in rec_ids:
        cells = cond.members[c]
        span = (grid.cell(cells[0])[0], grid.cell(cells[-1])[1])
        components.append(Component(cells, grid.midpoint(cells[0]), span))
    below = tuple(masks[c] & ~(1 << pos[c]) for c in rec_ids)
    return ComponentPoset(grid, tuple(components), below)


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
