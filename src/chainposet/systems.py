"""Exact interval dynamical systems on [0, 1].

Every system here is specified by a small frozen dataclass and evaluated
with Fraction arithmetic, so results are reproducible bit for bit.  The
bundled families are:

- OrdinalMap: the transfinite family indexed by ordinals below epsilon_0,
  x at index 0 and x^2 at index 1, then built by halving successor steps
  and shrinking-block limit steps,
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
from operator import itemgetter
from typing import List, Sequence, Tuple, Union

from .ordinal import (
    ONE,
    ZERO,
    Ordinal,
    OrdinalKind,
    _nf,
    add,
    classify,
    format_ordinal,
    fundamental,
    tail_split,
)

MAX_FAMILY_DEPTH = 20
# steps one ordinal descent may take; above w^w a descent at a single
# rational can otherwise run for minutes
MAX_DESCENT_STEPS = 1024


class DescentBudgetError(ValueError):
    pass


# bisect keys over sorted (lo, hi) blocks and gaps
_LO, _HI = itemgetter(0), itemgetter(1)


class Variant(Enum):
    WITH_MAX = "with_max"
    NO_MAX = "no_max"
    OPEN_INTERVAL = "open_interval"


@dataclass(frozen=True)
class OrdinalMap:
    """Member of the transfinite family: x at index 0, x^2 at index 1."""

    index: Ordinal


@dataclass(frozen=True)
class CantorExample:
    depth: int

    def __post_init__(self) -> None:
        if not isinstance(self.depth, int):
            raise TypeError(f"depth must be an int, got {self.depth!r}")
        if not 1 <= self.depth <= MAX_FAMILY_DEPTH:
            raise ValueError(f"depth must be in 1..{MAX_FAMILY_DEPTH}")


@dataclass(frozen=True)
class DenseBlocks:
    depth: int
    variant: Variant = Variant.WITH_MAX

    def __post_init__(self) -> None:
        if not isinstance(self.depth, int):
            raise TypeError(f"depth must be an int, got {self.depth!r}")
        if not 0 <= self.depth <= MAX_FAMILY_DEPTH:
            raise ValueError(f"depth must be in 0..{MAX_FAMILY_DEPTH}")


@dataclass(frozen=True)
class PLHomeo:
    """Increasing piecewise-linear homeomorphism of [0, 1] onto itself."""

    points: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self) -> None:
        pts = tuple((to_fraction(x), to_fraction(y)) for x, y in self.points)
        object.__setattr__(self, "points", pts)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        if pts[0] != (0, 0) or pts[-1] != (1, 1):
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


# (D, cuts, pieces): the interior breakpoint abscissae as integer numerators
# over their one denominator D, and for each piece integers (a, b, d) with
# value (a*x + b)/d on it, so that at x = p/q the value is (a*p + b*q)/(d*q)
_PLTable = Tuple[int, Tuple[int, ...], Tuple[Tuple[int, int, int], ...]]


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
    cuts = [x for x, _ in points[1:-1]]
    den = math.lcm(*(c.denominator for c in cuts))
    return den, tuple(c.numerator * (den // c.denominator) for c in cuts), tuple(pieces)


def _pl_apply(table: _PLTable, x: Fraction) -> Fraction:
    p, q = x.numerator, x.denominator
    if not 0 <= p <= q:
        raise ValueError("argument outside [0, 1]")
    den, cuts, pieces = table
    # c/den <= p/q exactly when c <= floor(p*den/q), c being an integer
    a, b, d = pieces[bisect.bisect_right(cuts, p * den // q)]
    return Fraction(a * p + b * q, d * q)


def to_fraction(v) -> Fraction:
    """An int, a Fraction or a "p/q" string as a Fraction; a float is refused,
    since it would silently become the binary fraction nearest to it."""
    if isinstance(v, float):
        raise TypeError(f"{v!r} is a float; give an int, a Fraction or a 'p/q' string")
    return Fraction(v)


@dataclass(frozen=True)
class Conjugated:
    inner: "SystemSpec"
    homeo: PLHomeo


SystemSpec = Union[OrdinalMap, CantorExample, DenseBlocks, Conjugated]


def is_open(spec: SystemSpec) -> bool:
    """True when the domain is (0, 1) rather than [0, 1]."""
    if isinstance(spec, Conjugated):
        return is_open(spec.inner)
    return isinstance(spec, DenseBlocks) and spec.variant is Variant.OPEN_INTERVAL


def is_increasing(spec: SystemSpec) -> bool:
    """True when the system is continuous and strictly increasing."""
    if isinstance(spec, (OrdinalMap, CantorExample)):
        return True
    if isinstance(spec, Conjugated):
        return is_increasing(spec.inner)
    return False


# transfinite family


def _descend(index: Ordinal, ps: Sequence[int], q: int, make=Fraction) -> list:
    """Values of the index map at p/q for strictly increasing p in 0..q,
    each as make(numerator, denominator) with a positive denominator.

    One iterative descent on integers over a fixed q: a group of points
    that takes the same successor halvings, or falls in the same limit
    block, shares the current index and (s, c), with the value at each of
    its points so far (s + inner)/c, where inner is the current index's map
    at p/q.  The ordinal work is done once per group, and only the
    numerators p are rewritten.  The block index (unbounded near 1) never
    turns into stack depth, and each returned value is made once.
    """
    start = index
    cur = list(ps)
    out = [None] * len(cur)
    # groups (index, first, end, s, c, steps) over positions first..end-1;
    # a group's subgroups are stacked right to left, so groups are taken left
    # to right and the first one out of budget holds the leftmost point that is
    work = [(index, 0, len(cur), 0, 1, 0)]
    while work:
        index, lo, hi, s, c, steps = work.pop()
        if steps >= MAX_DESCENT_STEPS:
            raise DescentBudgetError(
                f"evaluating the index-{format_ordinal(start)} map at "
                f"{Fraction(ps[lo], q)} took more than {MAX_DESCENT_STEPS} descent steps"
            )
        if cur[lo] == 0:
            out[lo] = make(s, c)
            lo += 1
        if lo < hi and cur[hi - 1] == q:
            hi -= 1
            out[hi] = make(s + 1, c)
        if lo == hi:
            continue
        terms = index.terms
        if not terms:
            # index 0: x
            for k in range(lo, hi):
                out[k] = make(s * q + cur[k], c * q)
            continue
        exp, m = terms[-1]
        if not exp.terms:
            qq = q * q
            if len(terms) == 1 and m == 1:
                # index 1: x^2
                for k in range(lo, hi):
                    out[k] = make(s * qq + cur[k] ** 2, c * qq)
                continue
            # above 1/2, inner = x^2 - x/2 + 1/2
            mid = bisect.bisect_right(cur, q >> 1, lo, hi)
            for k in range(mid, hi):
                p = cur[k]
                out[k] = make(2 * (s * qq + p * p) - p * q + qq, 2 * qq * c)
            # runs of t successor halvings at once, each one step: a run ends
            # where x passes 1/2, or where the finite tail m runs out (at 1
            # when the whole index is m, since index 1 is the square); below
            # that cap t is floor(log2(q/p)), so it falls as p grows, and the
            # points that share it are those above q >> (t + 1)
            cap = m - 1 if len(terms) == 1 else m
            k = mid
            while k > lo:
                t = min((q // cur[k - 1]).bit_length() - 1, cap)
                first = lo if t == cap else bisect.bisect_right(cur, q >> (t + 1), lo, k)
                for j in range(first, k):
                    cur[j] <<= t
                rest = terms[:-1] if t == m else terms[:-1] + ((ZERO, m - t),)
                work.append((_nf(rest), first, k, s << t, c << t, steps + t))
                k = first
        else:
            # block n is [n/(n+1), (n+1)/(n+2)], rescaled onto [0, 1]; n rises
            # with p, and block n holds the points from n/(n+1) below the next
            head, tail_exp = tail_split(index)
            k = hi
            while k > lo:
                n = cur[k - 1] // (q - cur[k - 1])
                first = bisect.bisect_left(cur, -(-n * q // (n + 1)), lo, k)
                for j in range(first, k):
                    cur[j] = ((n + 1) * cur[j] - n * q) * (n + 2)
                block = (n + 1) * (n + 2)
                work.append((
                    _block_index(head, tail_exp, n), first, k,
                    s * block + n * (n + 2), c * block, steps + 1,
                ))
                k = first
    return out


def _block_index(head: Ordinal, tail_exp: Ordinal, n: int) -> Ordinal:
    """Index of the map on the n-th shrinking block of a limit step."""
    return head if n == 0 else add(head, fundamental(_nf(((tail_exp, 1),)), n))


def _rep_points(lam: Ordinal, s: int, c: int, cutoff: Fraction, out: list) -> None:
    # fixed points of the index-lam map rescaled to [s/c, (s+1)/c], as
    # (s, c) pairs appended left to right, following the same successor
    # halving and limit blocks (s, c) as _descend; neighbouring blocks share
    # an end, so a point can repeat, but only next to itself.  A span 1/c is
    # below the cutoff a/b when a*c > b
    a, b = cutoff.numerator, cutoff.denominator
    if lam == ZERO or a * c > b:
        out.append((s, c))
        return
    if lam == ONE:
        out += ((s, c), (s + 1, c))
        return
    kind, pred = classify(lam)
    if kind == OrdinalKind.SUCCESSOR:
        _rep_points(pred, 2 * s, 2 * c, cutoff, out)
        out.append((s + 1, c))
        return
    head, tail_exp = tail_split(lam)
    out.append((s, c))
    n = 0
    while True:
        block = (n + 1) * (n + 2)
        if a * c * block > b:
            break
        _rep_points(
            _block_index(head, tail_exp, n), s * block + n * (n + 2), c * block, cutoff, out
        )
        n += 1
    out.append((s + 1, c))


# model predictions


def predicted_representatives(spec: SystemSpec, cutoff: Fraction) -> Tuple[Fraction, ...]:
    """Fixed points the component search should find, down to the cutoff."""
    if isinstance(spec, OrdinalMap):
        pairs: List[Tuple[int, int]] = []
        _rep_points(spec.index, 0, 1, cutoff, pairs)
        pts: List[Fraction] = []
        for s, c in pairs:
            x = Fraction(s, c)
            if not pts or x != pts[-1]:
                pts.append(x)
        return tuple(pts)
    if isinstance(spec, CantorExample):
        ends = (x for gap in cantor_gaps(spec.depth) for x in gap)
        return (Fraction(0), *ends, Fraction(1))
    if isinstance(spec, DenseBlocks):
        return tuple(lo for lo, _ in dense_blocks(spec.variant, spec.depth))
    if isinstance(spec, Conjugated):
        inner = predicted_representatives(spec.inner, cutoff)
        return tuple(spec.homeo.apply(x) for x in inner)
    raise ValueError(f"no prediction for {type(spec).__name__}")


_DENSE_LABELS = {
    Variant.WITH_MAX: "[0,1]∩Q truncation",
    Variant.NO_MAX: "[0,1)∩Q truncation",
    Variant.OPEN_INTERVAL: "(0,1)∩Q truncation",
}


def predicted_label(spec: SystemSpec) -> str:
    """Order-type label of the component poset under full refinement."""
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


def _middle_half(u: int, v: int) -> Tuple[int, int]:
    w = (v - u) // 4
    return u + w, v - w


@lru_cache(maxsize=None, typed=True)
def dense_blocks(variant: Variant, depth: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Plateau blocks (lo, hi) at the given refinement depth, sorted and disjoint."""
    if not isinstance(depth, int):
        raise TypeError(f"depth must be an int, got {depth!r}")
    if depth < 0 or depth > MAX_FAMILY_DEPTH:
        raise ValueError(f"depth must be in 0..{MAX_FAMILY_DEPTH}")
    # block ends as integer numerators over `one`; the ends of level k are
    # multiples of 4^(depth - k), so every middle half is exact
    one = 1 << (2 * depth + 3)
    eighth = one // 8
    if variant is Variant.WITH_MAX:
        blocks = [(0, 2 * eighth), (6 * eighth, one)]
    elif variant is Variant.NO_MAX:
        blocks = [(0, 2 * eighth)]
    else:
        blocks = [(3 * eighth, 5 * eighth)]
    for _ in range(depth):
        # each gap between neighbouring blocks gets its middle half as a new
        # block, placed between the two, and so do the end gaps that no block
        # closes: at 0 for the open interval, at 1 for both variants without
        # a top block; the result is sorted by construction
        out = []
        if variant is Variant.OPEN_INTERVAL:
            out.append(_middle_half(0, blocks[0][0]))
        for blk, nxt in zip(blocks, blocks[1:]):
            out += (blk, _middle_half(blk[1], nxt[0]))
        out.append(blocks[-1])
        if variant is not Variant.WITH_MAX:
            out.append(_middle_half(blocks[-1][1], one))
        blocks = out
    # replaced in place, so that each integer pair is freed as its
    # Fractions are made and the two never all coexist
    for k, (lo, hi) in enumerate(blocks):
        blocks[k] = (Fraction(lo, one), Fraction(hi, one))
    return tuple(blocks)


def _step_value(x: Fraction) -> Fraction:
    # plateau floor for open-interval points off the blocks:
    # x in [1/(m+1), 1/m) maps to 1/(m+2)
    m = math.ceil(1 / x) - 1
    return Fraction(1, m + 2)


def _eval_dense(spec: DenseBlocks, x: Fraction) -> Fraction:
    blocks = dense_blocks(spec.variant, spec.depth)
    k = bisect.bisect_right(blocks, x, key=_LO) - 1
    if k >= 0 and x <= blocks[k][1]:
        return blocks[k][0]
    if spec.variant is Variant.OPEN_INTERVAL:
        return _step_value(x)
    return Fraction(0)


# middle-third dip family


@lru_cache(maxsize=None, typed=True)
def cantor_gaps(depth: int) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Removed middle thirds through the given level, sorted left to right."""
    if not isinstance(depth, int):
        raise TypeError(f"depth must be an int, got {depth!r}")
    if depth < 1 or depth > MAX_FAMILY_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_FAMILY_DEPTH}")
    gaps = []

    def visit(a: Fraction, b: Fraction, level: int) -> None:
        # the gaps of the left third, this gap, the gaps of the right third:
        # left to right, so no sort is needed
        third = (b - a) / 3
        gap = (a + third, b - third)
        if level > 1:
            visit(a, gap[0], level - 1)
        gaps.append(gap)
        if level > 1:
            visit(gap[1], b, level - 1)

    visit(Fraction(0), Fraction(1), depth)
    return tuple(gaps)


def _eval_cantor(spec: CantorExample, x: Fraction) -> Fraction:
    gaps = cantor_gaps(spec.depth)
    k = bisect.bisect_right(gaps, x, key=_LO) - 1
    if k >= 0:
        l, r = gaps[k]
        if l < x < r:
            return x - (x - l) * (r - x)
    return x


def _check_domain(spec: SystemSpec, ps: Sequence[int], q: int) -> None:
    """The one domain rule: each p/q, p increasing and q > 0, must lie in
    [0, 1], or in (0, 1) for an open spec; the first point outside is named."""
    lo, hi = (1, q - 1) if is_open(spec) else (0, q)
    if ps and not (lo <= ps[0] and ps[-1] <= hi):
        # the points outside are a prefix below lo and a suffix above hi
        p = ps[0] if ps[0] < lo else ps[bisect.bisect_right(ps, hi)]
        raise ValueError(f"{Fraction(p, q)} outside the domain")


def values_at(spec: SystemSpec, ps: Sequence[int], q: int) -> List[Fraction]:
    """Exact values at p/q for strictly increasing p, all in the domain."""
    _check_domain(spec, ps, q)
    if isinstance(spec, OrdinalMap):
        return _descend(spec.index, ps, q)
    if isinstance(spec, CantorExample):
        return [_eval_cantor(spec, Fraction(p, q)) for p in ps]
    if isinstance(spec, DenseBlocks):
        return [_eval_dense(spec, Fraction(p, q)) for p in ps]
    if isinstance(spec, Conjugated):
        return _conjugated_values_at(spec, ps, q)
    raise TypeError(f"unknown system spec {spec!r}")


def _conjugated_values_at(spec: Conjugated, ps: Sequence[int], q: int) -> List[Fraction]:
    """h(f(h^-1(p/q))) for strictly increasing p, on integers until the end.

    h^-1 takes p/q on its piece (a, b, d) to (a*p + b*q)/(d*q), so over
    L*q, L the lcm of the pieces' d, every pulled-back point is an integer
    numerator, and they stay sorted since h^-1 increases.  The inner map's
    values come back as (numerator, denominator) pairs, h is applied to
    them the same way, and each pair is replaced in place by its one
    normalised Fraction.
    """
    h = spec.homeo
    den, cuts, pieces = h._backward
    lcm = math.lcm(*(d for _, _, d in pieces))
    over_lcm = [(a * (lcm // d), b * (lcm // d)) for a, b, d in pieces]
    # c/den <= p/q exactly when c <= floor(p*den/q), as in _pl_apply
    xs = []
    for p in ps:
        a, b = over_lcm[bisect.bisect_right(cuts, p * den // q)]
        xs.append(a * p + b * q)
    if isinstance(spec.inner, OrdinalMap):
        ys = _descend(spec.inner.index, xs, lcm * q, _pair)
    else:
        ys = [y.as_integer_ratio() for y in values_at(spec.inner, xs, lcm * q)]
    del xs
    den, cuts, pieces = h._forward
    for k, (yn, yd) in enumerate(ys):
        a, b, d = pieces[bisect.bisect_right(cuts, yn * den // yd)]
        ys[k] = Fraction(a * yn + b * yd, d * yd)
    return ys


def _pair(numerator: int, denominator: int) -> Tuple[int, int]:
    return numerator, denominator


def evaluate(spec: SystemSpec, x: Fraction) -> Fraction:
    """Exact value of the system at x; x must lie in the domain."""
    x = to_fraction(x)
    return values_at(spec, (x.numerator,), x.denominator)[0]


# image enclosures


def _dense_values_on(spec: DenseBlocks, lo: Fraction, hi: Fraction):
    """All values the plateau map attains on [lo, hi]."""
    blocks = dense_blocks(spec.variant, spec.depth)
    first = bisect.bisect_left(blocks, lo, key=_HI)
    hit = blocks[first : bisect.bisect_right(blocks, hi, key=_LO)]
    lows = [b_lo for b_lo, _ in hit]
    if any(b_lo <= lo and hi <= b_hi for b_lo, b_hi in hit):
        return lows
    if spec.variant is not Variant.OPEN_INTERVAL:
        # 0 off the blocks, below every block value; a block at 0 has it already
        return lows if lows and lows[0] == 0 else [Fraction(0), *lows]
    values = set(lows)
    # the uncovered pieces: open at every block end, closed at lo and hi
    cur = lo
    for b_lo, b_hi in hit:
        if cur < b_lo:
            values |= _step_values_on(cur, b_lo, False)
        cur = b_hi
    if cur < hi or not hit:
        values |= _step_values_on(cur, hi, True)
    return sorted(values)


def _step_values_on(a: Fraction, b: Fraction, b_closed: bool) -> set:
    """Plateau-floor values attained on a piece of (0, 1) from a to b.

    Step k is [1/(k+1), 1/k) with value 1/(k+2).  The piece meets it when
    a < 1/k, and 1/(k+1) <= b (closed b) or 1/(k+1) < b (open b).  Whether
    a is attained never matters: a step holding a also holds the points just
    above it, and a < b unless the piece is the single closed point a = b.
    """
    # with 1/b = q/p: k >= ceil(1/b) - 1 for a closed b, k >= floor(1/b) for
    # an open one, and k < ceil(1/a)
    p, q = b.numerator, b.denominator
    k_lo = -(-q // p) - 1 if b_closed else q // p
    k_end = -(-a.denominator // a.numerator)
    return {Fraction(1, k + 2) for k in range(max(1, k_lo), k_end)}


def image_intervals(
    spec: SystemSpec, lo: Fraction, hi: Fraction
) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Exact image of [lo, hi] as sorted disjoint closed intervals.

    Increasing systems give one interval; plateau maps give degenerate
    point intervals, one per attained value.  Both ends must lie in the
    domain, so the interval does.
    """
    for x in (lo, hi):
        _check_domain(spec, (x.numerator,), x.denominator)
    if is_increasing(spec):
        return ((evaluate(spec, lo), evaluate(spec, hi)),)
    if isinstance(spec, DenseBlocks):
        return tuple((v, v) for v in _dense_values_on(spec, lo, hi))
    if isinstance(spec, Conjugated):
        h = spec.homeo
        inner = image_intervals(spec.inner, h.invert(lo), h.invert(hi))
        return tuple((h.apply(a), h.apply(b)) for a, b in inner)
    raise TypeError(f"unknown system spec {spec!r}")

