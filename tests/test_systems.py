"""System evaluation tests.

Frozen values below were derived by hand from the construction rules
(halving successor steps, shrinking-block limit steps, middle-half
insertions, middle-third dips) and pin the implementation down exactly.
"""

import bisect
import math
import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chainposet.chaingraph import (
    ChainGraph,
    ConstantField,
    Grid,
    cell_images,
    condense,
    grid_for,
)
from chainposet.lyapunov import synthesize, verify
from chainposet.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalKind,
    add,
    classify,
    omega_power,
    parse_ordinal,
    tail_split,
)
from chainposet import systems
from chainposet.systems import (
    CantorExample,
    Conjugated,
    DenseBlocks,
    DescentBudgetError,
    OrdinalMap,
    PLHomeo,
    Variant,
    _block_index,
    _step_values_on,
    cantor_gaps,
    dense_blocks,
    evaluate,
    image_intervals,
    is_increasing,
    is_open,
    predicted_label,
    predicted_representatives,
)

unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64)

SAMPLE_HOMEO = PLHomeo([(0, 0), (F(1, 3), F(1, 2)), (1, 1)])


def small_ordinal_maps() -> st.SearchStrategy:
    names = ["2", "3", "4", "7", "w", "w+1", "w*2", "w^2", "w^2+w+3", "w^(w)"]
    return st.sampled_from([OrdinalMap(parse_ordinal(s)) for s in names])


class TestMakers:
    def test_small_indices_collapse(self):
        # indices 0 and 1 predict what the identity and the square do: one
        # fixed point at 0, then the two endpoints, at any cutoff
        assert predicted_label(OrdinalMap(ZERO)) == "1"
        assert predicted_label(OrdinalMap(ONE)) == "2"
        assert predicted_label(OrdinalMap(OMEGA)) == "w+1"
        for cutoff in [F(1, 2), F(1, 1024)]:
            assert predicted_representatives(OrdinalMap(ZERO), cutoff) == (F(0),)
            assert predicted_representatives(OrdinalMap(ONE), cutoff) == (F(0), F(1))

    @given(unit_fractions)
    def test_small_indices_are_x_and_x_squared(self, x):
        assert evaluate(OrdinalMap(ZERO), x) == x
        assert evaluate(OrdinalMap(ONE), x) == x * x

    def test_specs_are_hashable(self):
        specs = {OrdinalMap(ZERO), OrdinalMap(ONE), OrdinalMap(OMEGA), CantorExample(2),
                 DenseBlocks(1, Variant.NO_MAX), Conjugated(OrdinalMap(ONE), SAMPLE_HOMEO)}
        assert len(specs) == 6

    def test_evaluate_refuses_floats(self):
        # 0.1 as a float is a binary fraction, not 1/10
        assert evaluate(OrdinalMap(ONE), 1) == evaluate(OrdinalMap(ONE), "1/1") == F(1)
        assert evaluate(OrdinalMap(ONE), "1/10") == F(1, 100)
        with pytest.raises(TypeError):
            evaluate(OrdinalMap(ONE), 0.1)
        with pytest.raises(TypeError):
            evaluate(Conjugated(CantorExample(1), SAMPLE_HOMEO), 0.5)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            evaluate(OrdinalMap(ONE), F(2))
        with pytest.raises(ValueError):
            evaluate(DenseBlocks(1, Variant.OPEN_INTERVAL), F(0))
        with pytest.raises(ValueError):
            evaluate(DenseBlocks(1, Variant.OPEN_INTERVAL), F(1))
        assert evaluate(CantorExample(1), F(1)) == F(1)
        assert is_open(Conjugated(DenseBlocks(1, Variant.OPEN_INTERVAL), SAMPLE_HOMEO))
        assert not is_open(CantorExample(1))
        assert not is_open(DenseBlocks(1, Variant.NO_MAX))


class TestOrdinalMapValues:
    def test_square_value(self):
        assert evaluate(OrdinalMap(ONE), F(1, 2)) == F(1, 4)

    def test_first_successor(self):
        f2 = OrdinalMap(parse_ordinal("2"))
        assert evaluate(f2, F(3, 4)) == F(11, 16)
        assert evaluate(f2, F(3, 5)) == F(14, 25)

    def test_second_successor(self):
        assert evaluate(OrdinalMap(parse_ordinal("3")), F(3, 10)) == F(7, 25)

    def test_limit_block_boundaries_are_fixed(self):
        fw = OrdinalMap(OMEGA)
        for n in range(8):
            assert evaluate(fw, F(n, n + 1)) == F(n, n + 1)
        assert evaluate(fw, F(7, 8)) == F(7, 8)

    def test_limit_interior_value(self):
        assert evaluate(OrdinalMap(OMEGA), F(7, 10)) == F(279, 400)

    def test_limit_block_zero_hosts_head(self):
        # below 1/2 the omega map is a half-scale square
        assert evaluate(OrdinalMap(OMEGA), F(2, 5)) == F(8, 25)

    def test_successor_of_limit(self):
        fw1 = OrdinalMap(add(OMEGA, ONE))
        assert evaluate(fw1, F(3, 4)) == F(11, 16)
        assert evaluate(fw1, F(1, 5)) == F(4, 25)

    def test_tower_value(self):
        assert evaluate(OrdinalMap(omega_power(OMEGA)), F(3, 5)) == F(539, 900)

    def test_fixed_points_of_small_successors(self):
        f2 = OrdinalMap(Ordinal.from_int(2))
        f4 = OrdinalMap(Ordinal.from_int(4))
        fixed2 = {F(0), F(1, 2), F(1)}
        fixed4 = {F(0), F(1, 8), F(1, 4), F(1, 2), F(1)}
        for x in sorted(fixed2):
            assert evaluate(f2, x) == x
        for x in sorted(fixed4):
            assert evaluate(f4, x) == x
        for x in [F(1, 4), F(3, 4), F(9, 10)]:
            assert evaluate(f2, x) != x
        for x in [F(1, 16), F(3, 16), F(3, 8), F(3, 4)]:
            assert evaluate(f4, x) != x

    def test_nested_fixed_point_inside_limit_block(self):
        assert evaluate(OrdinalMap(OMEGA), F(7, 12)) == F(7, 12)

    @given(small_ordinal_maps(), unit_fractions)
    def test_never_exceeds_identity(self, spec, x):
        assert evaluate(spec, x) <= x

    @given(small_ordinal_maps(), unit_fractions, unit_fractions)
    def test_strictly_increasing(self, spec, x, y):
        if x < y:
            assert evaluate(spec, x) < evaluate(spec, y)

    @given(small_ordinal_maps())
    def test_endpoints_fixed(self, spec):
        assert evaluate(spec, F(0)) == 0
        assert evaluate(spec, F(1)) == 1


class TestDescentBudget:
    # each successor halving and each limit block is one step, and so is the
    # final evaluation; a run of halvings taken at once counts every halving
    @pytest.mark.parametrize(
        "index, x, steps",
        [
            ("50", F(1, 10**6), 20),
            ("w^2*37+40", F(1, 3**20), 32),
            ("w^2*37", F(12345, 65536), 14),
        ],
    )
    def test_smallest_budget_that_finishes(self, monkeypatch, index, x, steps):
        index = parse_ordinal(index)

        def finishes(budget):
            monkeypatch.setattr(systems, "MAX_DESCENT_STEPS", budget)
            try:
                evaluate(OrdinalMap(index), x)
            except DescentBudgetError:
                return False
            return True

        assert finishes(steps)
        assert not finishes(steps - 1)

    @pytest.mark.parametrize("budget", [1, 3, 8, 20, 64])
    @pytest.mark.parametrize("index", ["w^(w^2)", "w^(w)+w^2*3", "w^3*2+w+5", "40"])
    def test_grid_error_names_the_leftmost_point(self, monkeypatch, index, budget):
        # the grid descends all its points at once, yet fails as evaluating
        # them one by one from the left does; so does a conjugated grid,
        # whose pulled-back points descend at once
        monkeypatch.setattr(systems, "MAX_DESCENT_STEPS", budget)
        grid = Grid(F(0), F(1), 333)
        inner = OrdinalMap(parse_ordinal(index))

        def outcome(values):
            try:
                return values()
            except DescentBudgetError as e:
                return str(e)

        for spec in (inner, Conjugated(inner, SAMPLE_HOMEO)):
            want = outcome(lambda: [evaluate(spec, x) for x in grid.points()])
            assert outcome(lambda: grid_values(spec, grid)) == want


class TestCantorExample:
    def test_gap_lists(self):
        assert cantor_gaps(1) == ((F(1, 3), F(2, 3)),)
        assert cantor_gaps(2) == (
            (F(1, 9), F(2, 9)),
            (F(1, 3), F(2, 3)),
            (F(7, 9), F(8, 9)),
        )
        assert len(cantor_gaps(3)) == 7

    def test_float_depth_is_refused(self):
        with pytest.raises(TypeError):
            CantorExample(1.0)

    def test_gap_lists_refuse_a_float_depth_cold_and_warm(self):
        cantor_gaps.cache_clear()
        with pytest.raises(TypeError, match="depth must be an int, got 1.5"):
            cantor_gaps(1.5)
        # a cached int depth must not answer for the equal float
        assert len(cantor_gaps(2)) == 3
        with pytest.raises(TypeError, match="got 2.0"):
            cantor_gaps(2.0)

    def test_identity_off_the_gaps(self):
        spec = CantorExample(2)
        for x in [F(0), F(1, 9), F(2, 9), F(1, 4), F(1, 3), F(2, 3), F(1)]:
            assert evaluate(spec, x) == x

    def test_dip_values_at_gap_centers(self):
        assert evaluate(CantorExample(1), F(1, 2)) == F(17, 36)
        assert evaluate(CantorExample(2), F(1, 6)) == F(53, 324)
        assert evaluate(CantorExample(3), F(1, 18)) == F(161, 2916)

    def test_deeper_levels_only_add_shallow_dips(self):
        assert evaluate(CantorExample(3), F(1, 2)) == F(17, 36)

    @given(st.integers(1, 4), unit_fractions, unit_fractions)
    def test_strictly_increasing(self, depth, x, y):
        if x < y:
            assert evaluate(CantorExample(depth), x) < evaluate(CantorExample(depth), y)

    @given(st.integers(1, 4), unit_fractions)
    def test_dips_below_identity_only_inside_gaps(self, depth, x):
        y = evaluate(CantorExample(depth), x)
        inside = any(l < x < r for l, r in cantor_gaps(depth))
        assert (y < x) == inside


class TestDenseBlocks:
    def test_float_depth_is_refused(self):
        with pytest.raises(TypeError):
            DenseBlocks(2.0)

    def test_block_lists_refuse_a_float_depth_cold_and_warm(self):
        dense_blocks.cache_clear()
        with pytest.raises(TypeError, match="depth must be an int, got 3.0"):
            dense_blocks(Variant.WITH_MAX, 3.0)
        # a cached int depth must not answer for the equal float
        assert len(dense_blocks(Variant.WITH_MAX, 2)) == 5
        with pytest.raises(TypeError, match="got 2.0"):
            dense_blocks(Variant.WITH_MAX, 2.0)

    def test_with_max_depth_one(self):
        assert list(dense_blocks(Variant.WITH_MAX, 1)) == [
            (F(0), F(1, 4)),
            (F(3, 8), F(5, 8)),
            (F(3, 4), F(1)),
        ]

    def test_with_max_depth_two_insertions(self):
        pairs = list(dense_blocks(Variant.WITH_MAX, 2))
        assert (F(9, 32), F(11, 32)) in pairs
        assert (F(21, 32), F(23, 32)) in pairs

    def test_counts(self):
        for d in range(5):
            assert len(dense_blocks(Variant.WITH_MAX, d)) == 2**d + 1
            assert len(dense_blocks(Variant.NO_MAX, d)) == 2**d
            assert len(dense_blocks(Variant.OPEN_INTERVAL, d)) == 2 ** (d + 1) - 1

    def test_no_max_depth_one(self):
        assert list(dense_blocks(Variant.NO_MAX, 1)) == [
            (F(0), F(1, 4)),
            (F(7, 16), F(13, 16)),
        ]

    def test_open_interval_base(self):
        assert list(dense_blocks(Variant.OPEN_INTERVAL, 0)) == [
            (F(3, 8), F(5, 8))
        ]
        pairs = list(dense_blocks(Variant.OPEN_INTERVAL, 1))
        assert pairs == [
            (F(3, 32), F(9, 32)),
            (F(3, 8), F(5, 8)),
            (F(23, 32), F(29, 32)),
        ]

    def test_with_max_uncovered_measure(self):
        for d in range(5):
            blocks = dense_blocks(Variant.WITH_MAX, d)
            covered = sum(hi - lo for lo, hi in blocks)
            assert 1 - covered == F(1, 2 ** (d + 1))

    @given(st.sampled_from(list(Variant)), st.integers(0, 6))
    def test_blocks_sorted_disjoint_and_nested(self, variant, depth):
        blocks = dense_blocks(variant, depth)
        for lo, hi in blocks:
            assert lo < hi
        for (_, a_hi), (b_lo, _) in zip(blocks, blocks[1:]):
            assert a_hi < b_lo
        assert set(blocks) <= set(dense_blocks(variant, depth + 1))

    def test_plateau_value_is_block_left(self):
        assert evaluate(DenseBlocks(1, Variant.WITH_MAX), F(1, 2)) == F(3, 8)
        assert evaluate(DenseBlocks(1, Variant.WITH_MAX), F(1)) == F(3, 4)
        assert evaluate(DenseBlocks(1, Variant.NO_MAX), F(1)) == F(0)

    def test_zero_off_blocks(self):
        assert evaluate(DenseBlocks(1, Variant.WITH_MAX), F(5, 16)) == F(0)

    def test_open_interval_step_values(self):
        spec = DenseBlocks(0, Variant.OPEN_INTERVAL)
        assert evaluate(spec, F(3, 10)) == F(1, 5)
        assert evaluate(spec, F(1, 3)) == F(1, 4)
        assert evaluate(spec, F(3, 4)) == F(1, 3)
        assert evaluate(spec, F(1, 2)) == F(3, 8)

    @given(st.sampled_from(list(Variant)), st.integers(0, 5),
           st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64))
    def test_values_stay_inside_open_domain(self, variant, depth, x):
        y = evaluate(DenseBlocks(depth, variant), x)
        assert 0 <= y < 1
        if variant is Variant.OPEN_INTERVAL:
            assert y > 0


class TestHomeo:
    def test_sample_value(self):
        assert SAMPLE_HOMEO.apply(F(1, 2)) == F(5, 8)

    def test_validation(self):
        with pytest.raises(ValueError):
            PLHomeo([(0, 0), (F(1, 2), F(1, 2))])
        with pytest.raises(ValueError):
            PLHomeo([(0, 0), (F(2, 3), F(1, 3)), (F(1, 3), F(2, 3)), (1, 1)])

    def test_refuses_floats(self):
        assert PLHomeo([(0, 0), ("1/3", F(1, 2)), (1, 1)]) == SAMPLE_HOMEO
        with pytest.raises(TypeError):
            PLHomeo([(0, 0), (0.5, F(1, 2)), (1, 1)])
        with pytest.raises(TypeError):
            PLHomeo([(0, 0), (F(1, 3), 0.5), (1, 1)])

    def test_rejects_outside_unit(self):
        for x in (F(-1, 3), F(4, 3)):
            with pytest.raises(ValueError):
                SAMPLE_HOMEO.apply(x)
            with pytest.raises(ValueError):
                SAMPLE_HOMEO.invert(x)

    @given(unit_fractions)
    def test_inverse_round_trip(self, x):
        assert SAMPLE_HOMEO.invert(SAMPLE_HOMEO.apply(x)) == x
        assert SAMPLE_HOMEO.apply(SAMPLE_HOMEO.invert(x)) == x


class TestConjugated:
    def test_transports_fixed_points(self):
        g = Conjugated(OrdinalMap(Ordinal.from_int(2)), SAMPLE_HOMEO)
        for p in [F(0), F(1, 2), F(1)]:
            q = SAMPLE_HOMEO.apply(p)
            assert evaluate(g, q) == q
        assert evaluate(g, F(5, 8)) == F(5, 8)

    def test_matches_composition(self):
        g = Conjugated(OrdinalMap(ONE), SAMPLE_HOMEO)
        x = F(3, 4)
        want = SAMPLE_HOMEO.apply(evaluate(OrdinalMap(ONE), SAMPLE_HOMEO.invert(x)))
        assert evaluate(g, x) == want

    def test_increasing_flag_follows_inner(self):
        assert is_increasing(Conjugated(OrdinalMap(ONE), SAMPLE_HOMEO))
        assert not is_increasing(Conjugated(DenseBlocks(1), SAMPLE_HOMEO))

    @pytest.mark.parametrize("inner", [OrdinalMap(ONE), CantorExample(2), DenseBlocks(1)])
    @pytest.mark.parametrize("ps, q, message", [
        pytest.param([-1, 0, 1], 2, "-1/2 outside the domain", id="ps0-2"),
        pytest.param([0, 1, 3], 2, "3/2 outside the domain", id="ps1-2"),
        pytest.param([5], 4, "5/4 outside the domain", id="ps2-4"),
    ])
    def test_grid_values_outside_the_unit_interval_raise(self, inner, ps, q, message):
        with pytest.raises(ValueError) as error:
            systems.values_at(Conjugated(inner, SAMPLE_HOMEO), ps, q)
        assert str(error.value) == message

    def test_grid_values_memory(self):
        # the certify benchmark's seed-0 system on its 4,097 grid points: the
        # pulled-back points are integers and the inner values are replaced
        # in place, so the peak stays within twice the list returned
        spec = Conjugated(OrdinalMap(OMEGA), BREAKPOINT_HOMEOS[0])
        d, first, step = grid_for(spec, 4096).ticks
        ps = range(first, first + step * 4096 + 1, step)
        # the first call fills the homeomorphism's tables and the ordinal caches
        systems.values_at(spec, ps, d)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = systems.values_at(spec, ps, d)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(out) == 4097
        assert peak - before <= 2 * (after - before)


class TestImageIntervals:
    def test_increasing_single_interval(self):
        assert image_intervals(OrdinalMap(ONE), F(1, 2), F(3, 4)) == ((F(1, 4), F(9, 16)),)

    def test_plateau_points_with_floor(self):
        got = image_intervals(DenseBlocks(1, Variant.WITH_MAX), F(5, 16), F(7, 16))
        assert got == ((F(0), F(0)), (F(3, 8), F(3, 8)))

    def test_fully_covered_cell(self):
        got = image_intervals(DenseBlocks(1, Variant.WITH_MAX), F(2, 5), F(3, 5))
        assert got == ((F(3, 8), F(3, 8)),)

    def test_open_interval_steps_in_image(self):
        got = image_intervals(DenseBlocks(0, Variant.OPEN_INTERVAL), F(1, 4), F(3, 8))
        assert got == (
            (F(1, 5), F(1, 5)),
            (F(1, 4), F(1, 4)),
            (F(3, 8), F(3, 8)),
        )

    @pytest.mark.parametrize("spec", [
        DenseBlocks(2, Variant.OPEN_INTERVAL),
        Conjugated(DenseBlocks(2, Variant.OPEN_INTERVAL), SAMPLE_HOMEO),
    ])
    @pytest.mark.parametrize("lo, hi, message", [
        (F(0), F(1, 4), "0 outside the domain"),
        (F(3, 4), F(1), "1 outside the domain"),
    ])
    def test_open_domain_ends_are_refused(self, spec, lo, hi, message):
        with pytest.raises(ValueError) as error:
            image_intervals(spec, lo, hi)
        assert str(error.value) == message

    def test_conjugated_image_maps_through(self):
        g = Conjugated(DenseBlocks(1, Variant.WITH_MAX), SAMPLE_HOMEO)
        lo, hi = SAMPLE_HOMEO.apply(F(5, 16)), SAMPLE_HOMEO.apply(F(7, 16))
        got = image_intervals(g, lo, hi)
        assert got == ((F(0), F(0)), (SAMPLE_HOMEO.apply(F(3, 8)),) * 2)

    @given(
        st.sampled_from(
            [
                OrdinalMap(ONE),
                OrdinalMap(OMEGA),
                CantorExample(2),
                DenseBlocks(2, Variant.WITH_MAX),
                DenseBlocks(2, Variant.NO_MAX),
                DenseBlocks(2, Variant.OPEN_INTERVAL),
                Conjugated(DenseBlocks(1, Variant.WITH_MAX), SAMPLE_HOMEO),
            ]
        ),
        st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64),
        st.fractions(min_value=F(1, 64), max_value=F(63, 64), max_denominator=64),
        st.fractions(min_value=0, max_value=1, max_denominator=16),
    )
    def test_every_value_lands_inside(self, spec, a, b, t):
        lo, hi = min(a, b), max(a, b)
        x = lo + (hi - lo) * t
        y = evaluate(spec, x)
        parts = image_intervals(spec, lo, hi)
        assert any(p <= y <= q for p, q in parts)
        assert list(parts) == sorted(parts)


# Reference evaluators: the Fraction arithmetic that the integer evaluators
# replaced, kept verbatim so the properties below pin the new code to it.
# The one change: the descent stops after DESCENT_STEPS steps and returns
# None.  Above w^w a few percent of rationals descend for a long time
# (w^(w^2) at 998413/1000003 runs over 20 s), and the integer evaluator
# takes the same steps.

HALF = F(1, 2)
DESCENT_STEPS = 400


def reference_eval_index(index: Ordinal, x: F):
    shift, scale = F(0), F(1)
    for _ in range(DESCENT_STEPS):
        if x == 0:
            return shift
        if x == 1:
            return shift + scale
        if index == ZERO:
            return shift + scale * x
        if index == ONE:
            return shift + scale * x * x
        kind, pred = classify(index)
        if kind == OrdinalKind.SUCCESSOR:
            if x > HALF:
                return shift + scale * (x * x - x / 2 + HALF)
            scale /= 2
            x = 2 * x
            index = pred
            continue
        head, tail_exp = tail_split(index)
        n = int(x / (1 - x))
        a_n = F(n, n + 1)
        block = (n + 1) * (n + 2)
        shift += scale * a_n
        scale /= block
        x = (x - a_n) * block
        index = _block_index(head, tail_exp, n)
    return None


# The middle-third dip, found by a scan of the gaps instead of a bisection.
def reference_eval_cantor(depth: int, x: F) -> F:
    for l, r in cantor_gaps(depth):
        if l < x < r:
            return x - (x - l) * (r - x)
    return x


def reference_pl_apply(points, x: F) -> F:
    if not points[0][0] <= x <= points[-1][0]:
        raise ValueError("argument outside [0, 1]")
    xs = [p[0] for p in points]
    k = bisect.bisect_right(xs, x) - 1
    if k == len(points) - 1:
        return points[-1][1]
    (x1, y1), (x2, y2) = points[k], points[k + 1]
    return y1 + (x - x1) * (y2 - y1) / (x2 - x1)


def reference_rep_points(lam: Ordinal, lo: F, hi: F, cutoff: F) -> set:
    if lam == ZERO or hi - lo < cutoff:
        return {lo}
    if lam == ONE:
        return {lo, hi}
    kind, pred = classify(lam)
    span = hi - lo
    if kind == OrdinalKind.SUCCESSOR:
        return reference_rep_points(pred, lo, lo + span / 2, cutoff) | {hi}
    head, tail_exp = tail_split(lam)
    pts = {lo, hi}
    n = 0
    while True:
        b_lo = lo + span * F(n, n + 1)
        b_hi = lo + span * F(n + 1, n + 2)
        if b_hi - b_lo < cutoff:
            break
        pts |= reference_rep_points(_block_index(head, tail_exp, n), b_lo, b_hi, cutoff)
        n += 1
    return pts


W_W2 = parse_ordinal("w^(w^2)")


@st.composite
def indices_up_to_w_w2(draw) -> Ordinal:
    """Normal forms from 0 up to w^(w^2): sums of w^(w*a+b)*c, plus w^(w^2)."""
    if draw(st.integers(0, 9)) == 0:
        return W_W2
    exps = draw(
        st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3, unique=True)
    )
    out = ZERO
    for a, b in sorted(exps, reverse=True):
        exp = add(omega_power(ONE, a), Ordinal.from_int(b))
        out = add(out, omega_power(exp, draw(st.integers(1, 3))))
    return out


unit_rationals = st.one_of(
    st.fractions(min_value=0, max_value=1),
    st.integers(0, 300).map(lambda n: F(n, n + 1)),
    st.sampled_from([F(0), F(1, 2), F(1)]),
)

# indices ending in a finite tail m, bare or after a limit head, and points
# near 0, where a run of successor halvings ends at the tail rather than at
# x > 1/2: the run stops at m halvings, or at m - 1 when the index is m
tailed_indices = st.builds(
    add,
    st.one_of(st.just(ZERO), indices_up_to_w_w2()),
    st.integers(1, 64).map(Ordinal.from_int),
)


@st.composite
def small_dyadics(draw) -> F:
    j = draw(st.integers(0, 72))
    return F(draw(st.integers(0, 2**j)), 2**j)


tiny_points = st.one_of(
    small_dyadics(),
    st.integers(0, 60).map(lambda j: F(1, 3**j)),
    st.integers(1, 40).map(lambda j: F(1, 10**j)),
)


# The per-step loop that the closed form in _step_values_on replaced,
# verbatim; it reads a_closed, which the closed form shows never matters.
def reference_step_values_on(a: F, a_closed: bool, b: F, b_closed: bool):
    """Plateau-floor values attained on a sub-(0,1) interval piece."""
    out = set()
    k_min = max(1, math.ceil((1 - b) / b))
    k_max = math.ceil(1 / a) - 1
    for k in range(k_min, k_max + 1):
        step_lo, step_hi = F(1, k + 1), F(1, k)
        left = max(a, step_lo)
        right = min(b, step_hi)
        if left > right:
            continue
        if left == right:
            inside_step = left < step_hi
            inside_piece = (left > a or a_closed) and (left < b or b_closed)
            if not (inside_step and inside_piece):
                continue
        out.add(F(1, k + 2))
    return out


# The Fraction construction that the integer one in dense_blocks replaced,
# verbatim.
def reference_middle_half(u: F, v: F):
    w = (v - u) / 4
    return (u + w, v - w)


def reference_dense_blocks(variant: Variant, depth: int):
    if depth == 0:
        if variant is Variant.WITH_MAX:
            return ((F(0), F(1, 4)), (F(3, 4), F(1)))
        if variant is Variant.NO_MAX:
            return ((F(0), F(1, 4)),)
        return ((F(3, 8), F(5, 8)),)
    prev = reference_dense_blocks(variant, depth - 1)
    out = []
    if variant is Variant.OPEN_INTERVAL:
        out.append(reference_middle_half(F(0), prev[0][0]))
    for blk, nxt in zip(prev, prev[1:]):
        out += (blk, reference_middle_half(blk[1], nxt[0]))
    out.append(prev[-1])
    if variant is not Variant.WITH_MAX:
        out.append(reference_middle_half(prev[-1][1], F(1)))
    return tuple(out)


# piece ends: step boundaries, block ends, and rationals in between
piece_ends = st.one_of(
    st.integers(2, 300).map(lambda k: F(1, k)),
    st.sampled_from(sorted({
        x for v in Variant for d in range(5) for blk in dense_blocks(v, d) for x in blk
        if 0 < x < 1
    })),
    st.fractions(min_value=0, max_value=1, max_denominator=1000).filter(lambda t: 0 < t < 1),
)


@st.composite
def step_pieces(draw):
    a, b = sorted((draw(piece_ends), draw(piece_ends)))
    # a single point is a piece only when it is attained
    if a == b:
        return a, True, b, True
    return a, draw(st.booleans()), b, draw(st.booleans())


@st.composite
def pl_homeos(draw):
    inner = st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(
        lambda t: 0 < t < 1
    )
    k = draw(st.integers(0, 5))
    xs = sorted(draw(st.lists(inner, min_size=k, max_size=k, unique=True)))
    ys = sorted(draw(st.lists(inner, min_size=k, max_size=k, unique=True)))
    return PLHomeo([(0, 0), *zip(xs, ys), (1, 1)])


# the certify benchmark's seed-0 homeomorphism, and one whose breakpoint
# denominators are coprime, so that each table's one denominator is a
# true lcm (35 forward, 99 backward)
BREAKPOINT_HOMEOS = (
    PLHomeo([(0, 0), (F(1, 3), F(13, 48)), (F(2, 3), F(35, 48)), (1, 1)]),
    PLHomeo([(0, 0), (F(1, 5), F(2, 9)), (F(4, 7), F(5, 11)), (1, 1)]),
)


def at_breakpoints(test):
    """Examples at each interior breakpoint, at its image, and 1/4096^2 to
    either side of both: the inputs that an integer bisect over the cuts
    puts in a wrong piece first."""
    delta = F(1, 4096**2)
    for h in BREAKPOINT_HOMEOS:
        for c in sorted({v for point in h.points[1:-1] for v in point}):
            for x in (c - delta, c, c + delta):
                test = example(h, x)(test)
    return test


@st.composite
def grids_in_unit(draw) -> Grid:
    """The unit grid, or a grid on a sub-interval of [0, 1]."""
    n = draw(st.integers(1, 512))
    if draw(st.booleans()):
        return Grid(F(0), F(1), n)
    ends = st.fractions(min_value=0, max_value=1, max_denominator=1000)
    lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
    return Grid(lo, hi, n)


increasing_specs = st.one_of(
    small_ordinal_maps(),
    st.integers(1, 4).map(CantorExample),
    st.builds(
        Conjugated, st.one_of(small_ordinal_maps(), st.integers(1, 4).map(CantorExample)),
        pl_homeos(),
    ),
)


def grid_values(spec, grid):
    """The map at every grid point, read off the cell images."""
    images = list(cell_images(spec, grid))
    return [a for ((a, _),) in images] + [images[-1][0][1]]


# cutoffs down to 1/65536, with denominators of every kind
cutoffs = st.one_of(
    st.integers(1, 65536).map(lambda m: F(1, m)),
    st.integers(0, 16).map(lambda j: F(1, 2**j)),
    st.fractions(min_value=F(1, 65536), max_value=1, max_denominator=65536),
)


class TestAgainstFractionReference:
    @settings(max_examples=600, deadline=None)
    @given(
        st.one_of(indices_up_to_w_w2(), tailed_indices),
        st.one_of(unit_rationals, tiny_points),
    )
    # capped at the tail: m - 1 halvings for a bare m, m after a limit head
    @example(Ordinal.from_int(5), F(1, 1024))
    @example(parse_ordinal("w^2*3+5"), F(1, 1024))
    @example(parse_ordinal("w+64"), F(3, 2**70))
    # a run that ends on x = 1
    @example(Ordinal.from_int(9), F(1, 8))
    def test_eval_index_matches(self, index, x):
        want = reference_eval_index(index, x)
        assume(want is not None)
        assert evaluate(OrdinalMap(index), x) == want

    @settings(max_examples=200, deadline=None)
    @given(pl_homeos(), unit_rationals)
    @at_breakpoints
    def test_homeo_matches(self, h, x):
        y = h.apply(x)
        assert y == reference_pl_apply(h.points, x)
        back = tuple((b, a) for a, b in h.points)
        assert h.invert(x) == reference_pl_apply(back, x)
        assert h.invert(y) == x

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(indices_up_to_w_w2(), tailed_indices),
        st.integers(1, 6),
        st.booleans(),
        st.one_of(st.none(), pl_homeos()),
        grids_in_unit(),
    )
    def test_grid_values_match(self, index, depth, cantor, h, grid):
        # an ordinal or middle-thirds map, bare or conjugated by h
        if cantor:
            spec, ref = CantorExample(depth), lambda x: reference_eval_cantor(depth, x)
        else:
            spec, ref = OrdinalMap(index), lambda x: reference_eval_index(index, x)
        xs = grid.points()
        if h is not None:
            spec = Conjugated(spec, h)
            xs = [reference_pl_apply(tuple((b, a) for a, b in h.points), x) for x in xs]
        want = [ref(x) for x in xs]
        assume(None not in want)
        if h is not None:
            want = [reference_pl_apply(h.points, y) for y in want]
        assert grid_values(spec, grid) == want

    @pytest.mark.parametrize("variant", list(Variant))
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 4), pl_homeos(), st.integers(1, 64), st.data())
    def test_conjugated_plateau_values_match(self, variant, depth, h, q, data):
        inner = DenseBlocks(depth, variant)
        lo, hi = (1, q - 1) if is_open(inner) else (0, q)
        assume(lo <= hi)
        ps = sorted(data.draw(st.lists(st.integers(lo, hi), min_size=1, unique=True)))
        back = tuple((b, a) for a, b in h.points)
        want = [
            reference_pl_apply(h.points, evaluate(inner, reference_pl_apply(back, F(p, q))))
            for p in ps
        ]
        assert systems.values_at(Conjugated(inner, h), ps, q) == want

    @settings(max_examples=100, deadline=None)
    @given(
        increasing_specs,
        st.fractions(min_value=-1, max_value=1, max_denominator=50),
        st.fractions(min_value=0, max_value=2, max_denominator=50),
        st.integers(1, 64),
    )
    def test_grid_outside_the_unit_interval_raises(self, spec, lo, hi, n):
        # the error that evaluating the points one by one raises first, from
        # the build's images and from verify's
        assume(lo < hi and not 0 <= lo < hi <= 1)
        grid = Grid(lo, hi, n)
        with pytest.raises(ValueError) as one_by_one:
            [evaluate(spec, x) for x in grid.points()]
        with pytest.raises(ValueError) as at_once:
            list(cell_images(spec, grid))
        g = ChainGraph(spec, grid, ConstantField(grid.width), tuple((i,) for i in range(n)))
        with pytest.raises(ValueError) as verified:
            verify(synthesize(condense(g)), g)
        assert str(at_once.value) == str(verified.value) == str(one_by_one.value)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(indices_up_to_w_w2(), tailed_indices), cutoffs)
    def test_representatives_match(self, index, cutoff):
        want = tuple(sorted(reference_rep_points(index, F(0), F(1), cutoff)))
        assert predicted_representatives(OrdinalMap(index), cutoff) == want

    @settings(max_examples=500, deadline=None)
    @given(step_pieces())
    def test_step_values_match(self, piece):
        a, a_closed, b, b_closed = piece
        want = reference_step_values_on(a, a_closed, b, b_closed)
        assert _step_values_on(a, b, b_closed) == want

    @pytest.mark.parametrize("variant", list(Variant))
    def test_dense_blocks_match(self, variant):
        for depth in range(11):
            assert dense_blocks(variant, depth) == reference_dense_blocks(variant, depth)
