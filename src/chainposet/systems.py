"""Exact interval dynamical systems on [0, 1].

Every system here is specified by a small frozen dataclass and evaluated
with Fraction arithmetic, so results are reproducible bit for bit.  The
bundled families are:

- Identity and Square (x and x^2),
- OrdinalMap: the transfinite family indexed by ordinals below epsilon_0,
  built by halving successor steps and shrinking-block limit steps,
- CantorExample: identity with a quadratic dip on each removed middle
  third, strictly increasing and continuous,
- DenseBlocks: piecewise-constant maps whose plateau blocks sit at the
  blocks of an iterated middle-half insertion family,
- Conjugated: h . f . h^-1 for a piecewise-linear homeomorphism h.

The model's predicted fixed points and order labels follow the evaluator.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Tuple, Union

from .ordinal import (
    ONE,
    ZERO,
    Ordinal,
    OrdinalKind,
    add,
    classify,
    compare,
    format_ordinal,
    fundamental,
    omega_power,
    tail_split,
)

MAX_FAMILY_DEPTH = 20
# steps one ordinal descent may take; above w^w a descent at a single
# rational can otherwise run for minutes
MAX_DESCENT_STEPS = 1024


class DescentBudgetError(ValueError):
    pass


@dataclass(frozen=True)
class Domain:
    lo: Fraction
    hi: Fraction
    closed_lo: bool = True
    closed_hi: bool = True

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.closed_lo:
            return False
        if x == self.hi and not self.closed_hi:
            return False
        return True


@dataclass(frozen=True)
class IntervalBlock:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("block must have positive width")


class Variant(Enum):
    WITH_MAX = "with_max"
    NO_MAX = "no_max"
    OPEN_INTERVAL = "open_interval"


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class Square:
    pass


@dataclass(frozen=True)
class OrdinalMap:
    """Member of the transfinite family with index >= 2.

    Indices 0 and 1 are Identity and Square; use make_ordinal_map to get
    the right spec for any index.
    """

    index: Ordinal

    def __post_init__(self) -> None:
        if compare(self.index, Ordinal.from_int(2)) < 0:
            raise ValueError("index must be at least 2")


@dataclass(frozen=True)
class CantorExample:
    depth: int

    def __post_init__(self) -> None:
        if not 1 <= self.depth <= MAX_FAMILY_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_FAMILY_DEPTH}")


@dataclass(frozen=True)
class DenseBlocks:
    depth: int
    variant: Variant = Variant.WITH_MAX

    def __post_init__(self) -> None:
        if not 0 <= self.depth <= MAX_FAMILY_DEPTH:
            raise ValueError(f"depth must be in 0..{MAX_FAMILY_DEPTH}")


@dataclass(frozen=True)
class PLHomeo:
    """Increasing piecewise-linear homeomorphism of [0, 1] onto itself."""

    points: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = self.points
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        if pts[0] != (Fraction(0), Fraction(0)) or pts[-1] != (Fraction(1), Fraction(1)):
            raise ValueError("must fix 0 and 1")
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            if not (x1 < x2 and y1 < y2):
                raise ValueError("breakpoints must strictly increase")

    @cached_property
    def _forward(self) -> "_PLTable":
        return _pl_table(self.points)

    @cached_property
    def _backward(self) -> "_PLTable":
        return _pl_table(tuple((b, a) for a, b in self.points))

    def apply(self, x: Fraction) -> Fraction:
        return _pl_apply(self._forward, x)

    def invert(self, y: Fraction) -> Fraction:
        return _pl_apply(self._backward, y)

    def inverse(self) -> "PLHomeo":
        return PLHomeo(tuple((b, a) for a, b in self.points))


# interior breakpoint abscissae, and for each piece integers (a, b, d) with
# value (a*x + b)/d on it, so that at x = p/q the value is (a*p + b*q)/(d*q)
_PLTable = Tuple[Tuple[Fraction, ...], Tuple[Tuple[int, int, int], ...]]


def _pl_table(points: Tuple[Tuple[Fraction, Fraction], ...]) -> _PLTable:
    pieces = []
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        slope = (y2 - y1) / (x2 - x1)
        offset = y1 - slope * x1
        d = math.lcm(slope.denominator, offset.denominator)
        pieces.append((
            slope.numerator * (d // slope.denominator),
            offset.numerator * (d // offset.denominator),
            d,
        ))
    return tuple(x for x, _ in points[1:-1]), tuple(pieces)


def _pl_apply(table: _PLTable, x: Fraction) -> Fraction:
    p, q = x.numerator, x.denominator
    if not 0 <= p <= q:
        raise ValueError("argument outside [0, 1]")
    cuts, pieces = table
    a, b, d = pieces[bisect.bisect_right(cuts, x)]
    return Fraction(a * p + b * q, d * q)


def make_homeo(points) -> PLHomeo:
    return PLHomeo(tuple((Fraction(a), Fraction(b)) for a, b in points))


@dataclass(frozen=True)
class Conjugated:
    inner: "SystemSpec"
    homeo: PLHomeo


SystemSpec = Union[Identity, Square, OrdinalMap, CantorExample, DenseBlocks, Conjugated]


def make_ordinal_map(index: Ordinal) -> SystemSpec:
    if index == ZERO:
        return Identity()
    if index == ONE:
        return Square()
    return OrdinalMap(index)


def make_cantor_example(depth: int) -> CantorExample:
    return CantorExample(depth)


def make_dense_blocks(depth: int, variant: Variant = Variant.WITH_MAX) -> DenseBlocks:
    return DenseBlocks(depth, variant)


def conjugate(spec: SystemSpec, homeo: PLHomeo) -> Conjugated:
    return Conjugated(spec, homeo)


_UNIT = Domain(Fraction(0), Fraction(1))
_OPEN_UNIT = Domain(Fraction(0), Fraction(1), closed_lo=False, closed_hi=False)


def domain_of(spec: SystemSpec) -> Domain:
    if isinstance(spec, DenseBlocks) and spec.variant is Variant.OPEN_INTERVAL:
        return _OPEN_UNIT
    if isinstance(spec, Conjugated):
        return domain_of(spec.inner)
    return _UNIT


def is_increasing(spec: SystemSpec) -> bool:
    """True when the system is continuous and strictly increasing."""
    if isinstance(spec, (Identity, Square, OrdinalMap, CantorExample)):
        return True
    if isinstance(spec, Conjugated):
        return is_increasing(spec.inner)
    return False


# transfinite family


@lru_cache(maxsize=1 << 17)
def _eval_index(index: Ordinal, x: Fraction) -> Fraction:
    # iterative descent on integers: x = p/q over a fixed q, and the value so
    # far is (s + inner)/c, where inner is the current index's map at x; the
    # block index (unbounded near 1) never turns into stack depth, and only
    # the returned value is normalised
    start = index
    p, q = x.numerator, x.denominator
    s, c = 0, 1
    for _ in range(MAX_DESCENT_STEPS):
        if p == 0:
            return Fraction(s, c)
        if p == q:
            return Fraction(s + 1, c)
        if index == ZERO:
            return Fraction(s * q + p, c * q)
        if index == ONE:
            return Fraction(s * q * q + p * p, c * q * q)
        kind, pred = classify(index)
        if kind == OrdinalKind.SUCCESSOR:
            if 2 * p > q:
                # inner = x^2 - x/2 + 1/2
                qq = q * q
                return Fraction(2 * (s * qq + p * p) - p * q + qq, 2 * qq * c)
            p, s, c = 2 * p, 2 * s, 2 * c
            index = pred
            continue
        # block n is [n/(n+1), (n+1)/(n+2)], rescaled onto [0, 1]
        head, tail_exp = tail_split(index)
        n = p // (q - p)
        block = (n + 1) * (n + 2)
        s = s * block + n * (n + 2)
        c *= block
        p = ((n + 1) * p - n * q) * (n + 2)
        index = _block_index(head, tail_exp, n)
    raise DescentBudgetError(
        f"evaluating the index-{format_ordinal(start)} map at {x} took more than "
        f"{MAX_DESCENT_STEPS} descent steps"
    )


def _block_index(head: Ordinal, tail_exp: Ordinal, n: int) -> Ordinal:
    """Index of the map on the n-th shrinking block of a limit step."""
    return head if n == 0 else add(head, fundamental(omega_power(tail_exp), n))


def _rep_points(lam: Ordinal, s: int, c: int, cutoff: Fraction) -> set:
    # fixed points of the index-lam map rescaled to [s/c, (s+1)/c], following
    # the same successor halving and limit blocks (s, c) as _eval_index; a
    # span 1/c is below the cutoff a/b when a*c > b
    a, b = cutoff.numerator, cutoff.denominator
    if lam == ZERO or a * c > b:
        return {Fraction(s, c)}
    if lam == ONE:
        return {Fraction(s, c), Fraction(s + 1, c)}
    kind, pred = classify(lam)
    if kind == OrdinalKind.SUCCESSOR:
        return _rep_points(pred, 2 * s, 2 * c, cutoff) | {Fraction(s + 1, c)}
    head, tail_exp = tail_split(lam)
    pts = {Fraction(s, c), Fraction(s + 1, c)}
    n = 0
    while True:
        block = (n + 1) * (n + 2)
        if a * c * block > b:
            break
        pts |= _rep_points(
            _block_index(head, tail_exp, n), s * block + n * (n + 2), c * block, cutoff
        )
        n += 1
    return pts


# model predictions


def predicted_representatives(spec: SystemSpec, cutoff: Fraction) -> Tuple[Fraction, ...]:
    """Fixed points the component search should find, down to the cutoff."""
    if isinstance(spec, Identity):
        return (Fraction(0),)
    if isinstance(spec, Square):
        return (Fraction(0), Fraction(1))
    if isinstance(spec, OrdinalMap):
        return tuple(sorted(_rep_points(spec.index, 0, 1, cutoff)))
    if isinstance(spec, CantorExample):
        pts = {Fraction(0), Fraction(1)}
        for a, b in cantor_gaps(spec.depth):
            pts.add(a)
            pts.add(b)
        return tuple(sorted(pts))
    if isinstance(spec, DenseBlocks):
        return tuple(b.lo for b in dense_blocks(spec.variant, spec.depth))
    if isinstance(spec, Conjugated):
        inner = predicted_representatives(spec.inner, cutoff)
        return tuple(sorted(spec.homeo.apply(x) for x in inner))
    raise ValueError(f"no prediction for {type(spec).__name__}")


_DENSE_LABELS = {
    Variant.WITH_MAX: "[0,1]∩Q truncation",
    Variant.NO_MAX: "[0,1)∩Q truncation",
    Variant.OPEN_INTERVAL: "(0,1)∩Q truncation",
}


def predicted_label(spec: SystemSpec) -> str:
    """Order-type label of the component poset under full refinement."""
    if isinstance(spec, Identity):
        return "1"
    if isinstance(spec, Square):
        return "2"
    if isinstance(spec, OrdinalMap):
        return format_ordinal(add(spec.index, ONE))
    if isinstance(spec, CantorExample):
        return f"gap-endpoint chain, depth {spec.depth} truncation"
    if isinstance(spec, DenseBlocks):
        return _DENSE_LABELS[spec.variant]
    if isinstance(spec, Conjugated):
        return predicted_label(spec.inner)
    raise ValueError(f"no prediction for {type(spec).__name__}")


# middle-half insertion families


def _insert_middle_half(gaps) -> Tuple[IntervalBlock, ...]:
    out = []
    for u, v in gaps:
        w = v - u
        out.append(IntervalBlock(u + w / 4, v - w / 4))
    return tuple(out)


@lru_cache(maxsize=None)
def dense_blocks(variant: Variant, depth: int) -> Tuple[IntervalBlock, ...]:
    """Plateau blocks at the given refinement depth, sorted and disjoint."""
    if depth < 0 or depth > MAX_FAMILY_DEPTH:
        raise ValueError(f"depth must be in 0..{MAX_FAMILY_DEPTH}")
    if depth == 0:
        if variant is Variant.WITH_MAX:
            return (
                IntervalBlock(Fraction(0), Fraction(1, 4)),
                IntervalBlock(Fraction(3, 4), Fraction(1)),
            )
        if variant is Variant.NO_MAX:
            return (IntervalBlock(Fraction(0), Fraction(1, 4)),)
        return (IntervalBlock(Fraction(3, 8), Fraction(5, 8)),)
    prev = dense_blocks(variant, depth - 1)
    gaps = []
    if variant is Variant.OPEN_INTERVAL and prev[0].lo > 0:
        gaps.append((Fraction(0), prev[0].lo))
    for a, b in zip(prev, prev[1:]):
        gaps.append((a.hi, b.lo))
    if variant in (Variant.NO_MAX, Variant.OPEN_INTERVAL) and prev[-1].hi < 1:
        gaps.append((prev[-1].hi, Fraction(1)))
    merged = sorted(prev + _insert_middle_half(gaps), key=lambda blk: blk.lo)
    return tuple(merged)


def _block_containing(blocks: Tuple[IntervalBlock, ...], x: Fraction):
    k = bisect.bisect_right([b.lo for b in blocks], x) - 1
    if k >= 0 and blocks[k].lo <= x <= blocks[k].hi:
        return blocks[k]
    return None


def _step_value(x: Fraction) -> Fraction:
    # plateau floor for open-interval points off the blocks:
    # x in [1/(m+1), 1/m) maps to 1/(m+2)
    m = math.ceil(1 / x) - 1
    return Fraction(1, m + 2)


def _eval_dense(spec: DenseBlocks, x: Fraction) -> Fraction:
    blocks = dense_blocks(spec.variant, spec.depth)
    blk = _block_containing(blocks, x)
    if blk is not None:
        return blk.lo
    if spec.variant is Variant.OPEN_INTERVAL:
        return _step_value(x)
    return Fraction(0)


# middle-third dip family


@lru_cache(maxsize=None)
def cantor_gaps(depth: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Removed middle thirds through the given level, sorted left to right."""
    if depth < 1 or depth > MAX_FAMILY_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_FAMILY_DEPTH}")
    keep = [(Fraction(0), Fraction(1))]
    gaps = []
    for _ in range(depth):
        nxt = []
        for a, b in keep:
            third = (b - a) / 3
            gaps.append((a + third, b - third))
            nxt.append((a, a + third))
            nxt.append((b - third, b))
        keep = nxt
    return tuple(sorted(gaps))


def _eval_cantor(spec: CantorExample, x: Fraction) -> Fraction:
    gaps = cantor_gaps(spec.depth)
    k = bisect.bisect_right([g[0] for g in gaps], x) - 1
    if k >= 0:
        l, r = gaps[k]
        if l < x < r:
            return x - (x - l) * (r - x)
    return x


def evaluate(spec: SystemSpec, x: Fraction) -> Fraction:
    """Exact value of the system at x; x must lie in the domain."""
    x = Fraction(x)
    if not domain_of(spec).contains(x):
        raise ValueError(f"{x} outside the domain")
    if isinstance(spec, Identity):
        return x
    if isinstance(spec, Square):
        return x * x
    if isinstance(spec, OrdinalMap):
        return _eval_index(spec.index, x)
    if isinstance(spec, CantorExample):
        return _eval_cantor(spec, x)
    if isinstance(spec, DenseBlocks):
        return _eval_dense(spec, x)
    if isinstance(spec, Conjugated):
        return spec.homeo.apply(evaluate(spec.inner, spec.homeo.invert(x)))
    raise TypeError(f"unknown system spec {spec!r}")


# image enclosures


def _dense_values_on(spec: DenseBlocks, lo: Fraction, hi: Fraction):
    """All values the plateau map attains on [lo, hi]."""
    blocks = dense_blocks(spec.variant, spec.depth)
    lows = [b.lo for b in blocks]
    first = bisect.bisect_left([b.hi for b in blocks], lo)
    last = bisect.bisect_right(lows, hi) - 1
    hit = blocks[first : last + 1]
    values = {b.lo for b in hit}
    covered = any(b.lo <= lo and hi <= b.hi for b in hit)
    if covered:
        return sorted(values)
    if spec.variant is not Variant.OPEN_INTERVAL:
        values.add(Fraction(0))
        return sorted(values)
    # walk the uncovered pieces, tracking whether each end is attained
    pieces = []
    cur, cur_closed = lo, True
    for b in hit:
        if cur < b.lo:
            pieces.append((cur, cur_closed, b.lo, False))
        cur, cur_closed = b.hi, False
        if cur >= hi:
            break
    else:
        if cur < hi or (cur == hi and cur_closed):
            pieces.append((cur, cur_closed, hi, True))
    for a, a_closed, b, b_closed in pieces:
        values.update(_step_values_on(a, a_closed, b, b_closed))
    return sorted(values)


def _step_values_on(a: Fraction, a_closed: bool, b: Fraction, b_closed: bool):
    """Plateau-floor values attained on a sub-(0,1) interval piece."""
    out = set()
    k_min = max(1, math.ceil((1 - b) / b))
    k_max = math.ceil(1 / a) - 1
    for k in range(k_min, k_max + 1):
        step_lo, step_hi = Fraction(1, k + 1), Fraction(1, k)
        left = max(a, step_lo)
        right = min(b, step_hi)
        if left > right:
            continue
        if left == right:
            inside_step = left < step_hi
            inside_piece = (left > a or a_closed) and (left < b or b_closed)
            if not (inside_step and inside_piece):
                continue
        out.add(Fraction(1, k + 2))
    return out


def image_intervals(
    spec: SystemSpec, lo: Fraction, hi: Fraction
) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Exact image of [lo, hi] as sorted disjoint closed intervals.

    Increasing systems give one interval; plateau maps give degenerate
    point intervals, one per attained value.
    """
    if is_increasing(spec):
        return ((evaluate(spec, lo), evaluate(spec, hi)),)
    if isinstance(spec, DenseBlocks):
        return tuple((v, v) for v in _dense_values_on(spec, lo, hi))
    if isinstance(spec, Conjugated):
        h = spec.homeo
        inner = image_intervals(spec.inner, h.invert(lo), h.invert(hi))
        return tuple((h.apply(a), h.apply(b)) for a, b in inner)
    raise TypeError(f"unknown system spec {spec!r}")

