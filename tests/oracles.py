"""Reference operations that more than one test module checks against.

The package itself never needs these; they are written here in the most
direct form so that the tests can read them at a glance.  The poset
oracles scan the order pairs, so they hold for any relation, reversed
pairs included, and check the package's mask queries.
"""

import bisect
import math
from fractions import Fraction
from typing import List, Tuple

from chainposet.chaingraph import ChainGraph, ComponentPoset, Condensation, Grid
from chainposet.lyapunov import CheckResult
from chainposet.systems import (
    DenseBlocks,
    SystemSpec,
    Variant,
    dense_blocks,
    evaluate,
    image_intervals,
    is_increasing,
)


def reference_cantor_value(rank: int, total: int) -> Fraction:
    """The rank's binary digits, doubled, summed as base-3 digits."""
    bits = (total - 1).bit_length()
    value = Fraction(0)
    for k in range(bits):
        b = (rank >> (bits - 1 - k)) & 1
        value += Fraction(2 * b, 3 ** (k + 1))
    return value


# The plateau map's point evaluator that the one-point image in values_at
# replaced, verbatim.
def _step_value(x: Fraction) -> Fraction:
    # plateau floor for open-interval points off the blocks:
    # x in [1/(m+1), 1/m) maps to 1/(m+2)
    m = math.ceil(1 / x) - 1
    return Fraction(1, m + 2)


def reference_dense_value(spec: DenseBlocks, x: Fraction) -> Fraction:
    """The plateau map at x: the left end of the block holding x, else the
    floor, 0 or the step value."""
    blocks = dense_blocks(spec.variant, spec.depth)
    k = bisect.bisect_right(blocks, x, key=lambda block: block[0]) - 1
    if k >= 0 and x <= blocks[k][1]:
        return blocks[k][0]
    if spec.variant is Variant.OPEN_INTERVAL:
        return _step_value(x)
    return Fraction(0)


def masks(m, pairs):
    """One mask per component: bit a of entry b for every pair (a, b)."""
    out = [0] * m
    for a, b in pairs:
        out[b] |= 1 << a
    return tuple(out)


def dual(poset: ComponentPoset) -> ComponentPoset:
    """The same components with every order pair reversed."""
    return ComponentPoset(
        poset.grid,
        poset.components,
        masks(len(poset), ((b, a) for a, b in poset.pairs)),
    )


def is_linear(poset: ComponentPoset) -> bool:
    m = len(poset.components)
    return len(poset.pairs) == m * (m - 1) // 2


def minimal_elements(poset: ComponentPoset):
    has_lower = {b for _, b in poset.pairs}
    return tuple(a for a in range(len(poset.components)) if a not in has_lower)


def maximal_elements(poset: ComponentPoset):
    has_upper = {a for a, _ in poset.pairs}
    return tuple(b for b in range(len(poset.components)) if b not in has_upper)


def hasse_covers(poset: ComponentPoset):
    """Pairs (a, b) with no c such that (a, c) and (c, b) are both pairs."""
    pairs = poset.pairs
    return tuple(
        (a, b)
        for a, b in sorted(pairs)
        if not any((a, c) in pairs and (c, b) in pairs for c in range(len(poset.components)))
    )


def linear_order_type(poset: ComponentPoset):
    below = [0] * len(poset.components)
    for _, b in poset.pairs:
        below[b] += 1
    return tuple(sorted(range(len(below)), key=lambda k: below[k]))


def order_isomorphic(p: ComponentPoset, q: ComponentPoset) -> bool:
    return len(p) == len(q) and p.pairs == q.pairs


def is_edge_subset(inner: ChainGraph, outer: ChainGraph) -> bool:
    """True when every edge of `inner` is also an edge of `outer`."""
    assert inner.grid == outer.grid, "graphs live on different grids"
    return all(set(a) <= set(b) for a, b in zip(inner.adjacency, outer.adjacency))


def reference_build(spec, grid, eps):
    """Chain graph adjacency by the module rule, cell pair by cell pair.

    Cell j is a target of cell i when some part [p, q] of i's image lies
    at distance below the slack's supremum over [p, q] from cell j; cell i
    is its own target only when some part meets it.  Every test is one
    comparison of Fractions, on images taken one cell at a time.
    """
    cells = [grid.cell(i) for i in range(grid.n)]
    adjacency = []
    for i, (a, b) in enumerate(cells):
        parts = [(p, q, eps.sup_over(p, q)) for p, q in image_intervals(spec, a, b)]
        row = []
        for j, (c, d) in enumerate(cells):
            if j == i:
                hit = any(p <= d and q >= c for p, q, _ in parts)
            else:
                hit = any(c < q + t and d > p - t for p, q, t in parts)
            if hit:
                row.append(j)
        adjacency.append(tuple(row))
    return tuple(adjacency)


# the descent check on Fractions: each image end's quotient by the cell
# width, rounded by math.ceil and math.floor
def reference_descent(
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
    integer keys and named in the witness as they were given.
    """
    n, lo, hi, w = grid.n, grid.lo, grid.hi, grid.width
    # not chaingraph.cell_images: the certificate is checked against images
    # that the graph build did not produce
    if is_increasing(spec):
        ys = [evaluate(spec, lo + k * w) for k in range(n + 1)]
        images = [((ys[i], ys[i + 1]),) for i in range(n)]
    else:
        images = [image_intervals(spec, *grid.cell(i)) for i in range(n)]
    comp_of = cond.comp_of
    skipped = 0
    for i, parts in enumerate(images):
        for p, q in parts:
            if q < lo or p > hi:
                skipped += 1
                continue
            for j in range(
                max(0, math.ceil((p - lo) / w) - 1),
                min(n - 1, math.floor((q - lo) / w)) + 1,
            ):
                if comp_of[i] == comp_of[j]:
                    if keys[i] != keys[j]:
                        return CheckResult(
                            "descent", False,
                            f"cell {i} steps into cell {j} of its own component "
                            f"but changes value",
                        ), skipped
                elif not keys[i] > keys[j]:
                    return CheckResult(
                        "descent", False,
                        f"cell {i} steps into cell {j} without descending "
                        f"({values[i]} vs {values[j]})",
                    ), skipped
    return CheckResult("descent", True), skipped


def reference_in_middle_third_set(x: Fraction) -> bool:
    """x lies in [0, 1), its denominator is a power of 3, and its numerator
    over that power has no base-3 digit 1, read one digit at a time."""
    if not 0 <= x < 1:
        return False
    p, q = x.numerator, x.denominator
    while q % 3 == 0:
        q //= 3
    if q != 1:
        return False
    while p:
        p, digit = divmod(p, 3)
        if digit == 1:
            return False
    return True


# the value-set check on Fractions: each distinct value tested on its own
def reference_value_set(values: Tuple[Fraction, ...]) -> CheckResult:
    # distinct values in order of first use, so the witness is the first
    # offending cell
    for v in dict.fromkeys(values):
        if not reference_in_middle_third_set(v):
            return CheckResult(
                "value_set", False,
                f"cell {values.index(v)} carries {v}, outside the value set",
            )
    return CheckResult("value_set", True)
