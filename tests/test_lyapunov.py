"""Lyapunov synthesis and certification tests."""

import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from chainposet.chaingraph import (
    ChainGraph,
    ConstantField,
    Grid,
    build_chain_graph,
    chain_components,
    condense,
    grid_for,
)
from chainposet.lyapunov import (
    CheckResult,
    LyapunovAssignment,
    _descent,
    _doubled_digits,
    _value_set,
    synthesize,
    verify,
)
from chainposet.ordinal import OMEGA, ONE, ZERO, Ordinal, parse_ordinal
from chainposet.systems import (
    CantorExample,
    Conjugated,
    DenseBlocks,
    OrdinalMap,
    PLHomeo,
    Variant,
    is_open,
)

from oracles import (
    reference_cantor_value,
    reference_descent,
    reference_in_middle_third_set,
    reference_value_set,
)

CLOSED_SPECS = [
    OrdinalMap(ZERO),
    OrdinalMap(ONE),
    OrdinalMap(Ordinal.from_int(2)),
    OrdinalMap(Ordinal.from_int(3)),
    OrdinalMap(OMEGA),
    CantorExample(2),
    DenseBlocks(1, Variant.WITH_MAX),
    DenseBlocks(2, Variant.NO_MAX),
]


def rank_value(rank, total):
    """The value synthesize gives the rank-th of `total` ranks."""
    return F(_doubled_digits(rank), 3 ** (total - 1).bit_length())


class TestCantorValue:
    def test_frozen_values(self):
        assert rank_value(0, 2) == F(0)
        assert rank_value(1, 2) == F(2, 3)
        assert rank_value(2, 4) == F(2, 3)
        assert rank_value(3, 4) == F(8, 9)
        assert rank_value(1, 4) == F(2, 9)
        assert rank_value(0, 1) == F(0)
        assert rank_value(5, 8) == F(20, 27)

    @given(st.integers(1, 2**24).flatmap(
        lambda total: st.tuples(st.integers(0, total - 1), st.just(total))
    ))
    # the top of the range, which the draws reach only now and then
    @example((2**24 - 1, 2**24))
    @example((0xAAAAAA, 2**24))
    @example((0x555555, 2**24 - 1))
    @example((2**23, 2**23 + 1))
    def test_matches_the_fraction_sum(self, case):
        rank, total = case
        assert rank_value(rank, total) == reference_cantor_value(rank, total)

    @given(st.integers(1, 300))
    def test_strictly_increasing_in_rank(self, total):
        vals = [rank_value(r, total) for r in range(total)]
        assert vals == sorted(set(vals))
        assert all(0 <= v < 1 for v in vals)

    @given(st.integers(1, 300))
    def test_values_live_in_the_middle_third_set(self, total):
        for r in range(total):
            assert reference_in_middle_third_set(rank_value(r, total))


# values in and out of the middle-third set: synthesized ones, ones a digit
# or a denominator away from them, and ones outside [0, 1)
cantor_values = st.integers(1, 2**20).flatmap(
    lambda total: st.integers(0, total - 1).map(lambda r: rank_value(r, total))
)
set_candidates = st.one_of(
    cantor_values,
    cantor_values.map(lambda v: 1 - v),
    st.integers(0, 12).flatmap(
        lambda k: st.integers(-2 * 3**k, 4 * 3**k).map(lambda a: F(a, 2 * 3**k))
    ),
    st.integers(0, 30).flatmap(lambda k: st.integers(0, 3**k).map(lambda a: F(a, 3**k))),
    st.fractions(min_value=1, max_value=3, max_denominator=81),
    st.fractions(min_value=-3, max_value=0, max_denominator=81),
    st.fractions(max_denominator=1000),
)


MEMBERS = [F(0), F(2, 3), F(2, 9), F(8, 9), F(20, 27), F(2, 3) + F(2, 81)]
NON_MEMBERS = [F(1, 2), F(1, 3), F(1, 9), F(3, 4), F(5, 9), F(-1, 3), F(7, 6), F(1)]


def membership_examples(test):
    """The members alone, and each non-member after them."""
    test = example(MEMBERS)(test)
    for x in NON_MEMBERS:
        test = example(MEMBERS + [x])(test)
    return test


class TestValueSet:
    @given(st.one_of(
        st.lists(cantor_values, min_size=1, max_size=30),
        st.lists(set_candidates, min_size=1, max_size=30),
        st.tuples(st.lists(cantor_values, min_size=1, max_size=30), set_candidates)
        .map(lambda case: case[0] + [case[1]] + case[0]),
    ))
    @settings(max_examples=500, deadline=None)
    @example([F(0), F(2, 3), F(1)])
    @example([F(2, 9), F(-2, 9)])
    @example([F(2, 3), F(1, 6), F(2, 9)])
    @example([F(20, 27), F(2, 3**9) + F(2, 3**10), F(1, 3**9)])
    # keys whose quotient by m, or whose digits alone, would pass: 1/6 and
    # 1/18 are 0 in the quotient, and 20/9 = 202 in base 3
    @example([F(2, 3), F(1, 6)])
    @example([F(0), F(2, 9), F(1, 18)])
    @example([F(8, 9), F(20, 9)])
    @example([F(2, 3), F(-2, 3)])
    @membership_examples
    def test_keys_match_the_values(self, values):
        values = tuple(values)
        keys = keys_of(values)
        den = math.lcm(*{v.denominator for v in values})
        assert _value_set(values, keys, den) == reference_value_set(values)


class TestSynthesize:
    def test_values_follow_the_flow_for_square(self):
        g = build_chain_graph(OrdinalMap(ONE), Grid(F(0), F(1), 64), ConstantField(F(1, 32)))
        assignment = synthesize(condense(g))
        poset = chain_components(condense(g))
        bottom = poset.components[0].cells[0]
        top = poset.components[-1].cells[0]
        assert assignment.cell_values[bottom] < assignment.cell_values[top]
        # transient cells in between sit strictly between the two bands
        mid = 64 // 2
        assert assignment.cell_values[bottom] < assignment.cell_values[mid]
        assert assignment.cell_values[mid] < assignment.cell_values[top]

    def test_ranks_are_a_permutation(self):
        g = build_chain_graph(OrdinalMap(ONE), Grid(F(0), F(1), 32), ConstantField(F(1, 16)))
        assignment = synthesize(condense(g))
        m = len(assignment.component_values)
        assert sorted(assignment.component_values) == [
            reference_cantor_value(r, m) for r in range(m)
        ]

    def test_constant_on_components(self):
        g = build_chain_graph(OrdinalMap(ZERO), Grid(F(0), F(1), 16), ConstantField(F(1, 16)))
        assignment = synthesize(condense(g))
        assert len(set(assignment.cell_values)) == 1

    @given(st.sampled_from(CLOSED_SPECS), st.integers(8, 48), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_certification_passes(self, spec, n, a):
        g = build_chain_graph(spec, grid_for(spec, n), ConstantField(F(a, 32)))
        report = verify(synthesize(condense(g)), g)
        assert report.all_passed, [c for c in report.checks if not c.passed]


class TestVerifyCatchesViolations:
    def graph(self):
        return build_chain_graph(
            OrdinalMap(ONE), Grid(F(0), F(1), 16), ConstantField(F(1, 8))
        )

    def test_broken_constancy(self):
        g = self.graph()
        good = synthesize(condense(g))
        values = list(good.cell_values)
        values[1] = F(2, 9) if values[1] != F(2, 9) else F(2, 27)
        bad = LyapunovAssignment(good.grid, tuple(values), good.component_values)
        report = verify(bad, g)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["constancy"].passed
        assert "cell 1 steps into cell 0 of its own component" in (
            by_name["descent"].witness
        )

    def test_reversed_order_fails_descent_and_edges(self):
        g = self.graph()
        good = synthesize(condense(g))
        top = max(good.cell_values)
        values = tuple(top - v for v in good.cell_values)
        bad = LyapunovAssignment(good.grid, values, good.component_values)
        report = verify(bad, g)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["edge_order"].passed
        assert not by_name["descent"].passed

    def test_value_outside_the_set(self):
        g = self.graph()
        good = synthesize(condense(g))
        values = tuple(F(1, 2) if v == max(good.cell_values) else v
                       for v in good.cell_values)
        bad = LyapunovAssignment(good.grid, values, good.component_values)
        report = verify(bad, g)
        assert not [c for c in report.checks if c.name == "value_set"][0].passed

    def test_duplicate_recurrent_values(self):
        g = self.graph()
        good = synthesize(condense(g))
        cond = condense(g)
        rec = [c for c, flag in enumerate(cond.recurrent) if flag]
        assert len(rec) >= 2
        keep = good.component_values[rec[0]]
        values = list(good.cell_values)
        for i in cond.members[rec[1]]:
            values[i] = keep
        bad = LyapunovAssignment(good.grid, tuple(values), good.component_values)
        report = verify(bad, g)
        injectivity = [c for c in report.checks if c.name == "injectivity"][0]
        assert not injectivity.passed
        assert injectivity.witness == (
            "the recurrent components of cells 0 and 13 share the value 0"
        )

    def test_constancy_witness_names_cells_that_differ(self):
        # one component of cells 0-7: only cell 1 leaves its value, so the
        # witness pairs cell 0 with cell 1, not with cell 7, which keeps it
        spec = OrdinalMap(ZERO)
        g = build_chain_graph(spec, grid_for(spec, 8))
        good = synthesize(condense(g))
        assert good.cell_values == (F(0),) * 8
        values = list(good.cell_values)
        values[1] = F(2, 9)
        bad = dataclasses.replace(good, cell_values=tuple(values))
        constancy = [c for c in verify(bad, g).checks if c.name == "constancy"][0]
        assert constancy.witness == (
            "cells 0 and 1 share a component but carry different values (0 vs 2/9)"
        )

    def ordinal_graph(self):
        spec = OrdinalMap(Ordinal.from_int(2))
        g = build_chain_graph(spec, grid_for(spec, 8), ConstantField(F(1, 64)))
        assert g.adjacency == (
            (0,), (0, 1), (0, 1, 2), (2, 3, 4), (3, 4), (4, 5), (5, 6), (6, 7)
        )
        return g

    def failed(self, assignment, graph):
        return {c.name for c in verify(assignment, graph).checks if not c.passed}

    @pytest.mark.parametrize("i, j", [(3, 4), (4, 3)])
    def test_missing_true_step_fails_descent(self, i, j):
        # the fixed point 1/2 is the corner of cells 3 and 4: the image of
        # cell 3 is [9/32, 1/2] and that of cell 4 is [1/2, 37/64], so each
        # meets the other cell at one end of its range.  With the edge
        # i -> j gone the graph certifies itself, and only the images see
        # the step
        g = self.ordinal_graph()
        rows = list(g.adjacency)
        rows[i] = tuple(k for k in rows[i] if k != j)
        bad = dataclasses.replace(g, adjacency=tuple(rows))
        report = verify(synthesize(condense(bad)), bad)
        assert {c.name for c in report.checks if not c.passed} == {"descent"}
        witness = report.checks[0].witness
        assert f"cell {i} steps into cell {j}" in witness

    def test_off_by_one_image_range_fails_descent(self):
        # dropping the last target of every row is what an image range one
        # cell short produces
        g = self.ordinal_graph()
        short = dataclasses.replace(
            g, adjacency=tuple(row[:-1] for row in g.adjacency)
        )
        assert "descent" in self.failed(synthesize(condense(short)), short)

    def test_raised_cell_value_fails(self):
        g = self.ordinal_graph()
        good = synthesize(condense(g))
        values = list(good.cell_values)
        values[0] = F(26, 27)  # above every other value, still in the set
        bad = dataclasses.replace(good, cell_values=tuple(values))
        assert {"descent", "edge_order"} <= self.failed(bad, g)

    def test_raised_edge_target_value_fails(self):
        g = self.ordinal_graph()
        cond = condense(g)
        good = synthesize(cond)
        i, j = next(
            (i, j)
            for i, row in enumerate(g.adjacency)
            for j in row
            if cond.comp_of[i] != cond.comp_of[j]
        )
        values = list(good.cell_values)
        values[j] = values[i]
        bad = dataclasses.replace(good, cell_values=tuple(values))
        assert {"descent", "edge_order"} <= self.failed(bad, g)

    def test_grid_mismatch_rejected(self):
        g = self.graph()
        other = build_chain_graph(
            OrdinalMap(ONE), Grid(F(0), F(1), 8), ConstantField(F(1, 8))
        )
        with pytest.raises(ValueError):
            verify(synthesize(condense(other)), g)

    @pytest.mark.parametrize("count", [15, 17])
    def test_wrong_value_count_rejected(self, count):
        g = self.graph()
        good = synthesize(condense(g))
        values = (good.cell_values * 2)[:count]
        with pytest.raises(ValueError, match=f"{count} cell values for 16 cells"):
            verify(dataclasses.replace(good, cell_values=values), g)

    def verdicts_with(self, component, value):
        """verify's verdicts once every cell of `component` carries `value`."""
        g = self.graph()
        cond = condense(g)
        good = synthesize(cond)
        values = list(good.cell_values)
        for i in cond.members[component]:
            values[i] = value
        bad = dataclasses.replace(good, cell_values=tuple(values))
        return {c.name: c.passed for c in verify(bad, g).checks}

    def test_foreign_denominators_neither_merge_nor_split(self):
        # half a step of the value grid: the common denominator becomes
        # 2*3^bits, the values' keys change scale, and every verdict stays
        # the one that comparing the Fractions themselves gives
        cond = condense(self.graph())
        values = synthesize(cond).component_values
        first, second = [c for c, flag in enumerate(cond.recurrent) if flag][:2]
        half = F(1, 2 * 3 ** (len(values) - 1).bit_length())
        assert self.verdicts_with(second, values[first] + half) == {
            "descent": False, "constancy": True, "injectivity": True,
            "edge_order": False, "value_set": False,
        }
        assert not self.verdicts_with(second, values[first])["injectivity"]
        # the top component just above, below and at the next value down:
        # only the first still descends
        top = max(range(len(values)), key=values.__getitem__)
        below = max(v for c, v in enumerate(values) if c != top)
        assert self.verdicts_with(top, below + half) == {
            "descent": True, "constancy": True, "injectivity": True,
            "edge_order": True, "value_set": False,
        }
        for value in (below - half, below):
            verdicts = self.verdicts_with(top, value)
            assert not verdicts["descent"] and not verdicts["edge_order"]
            assert verdicts["value_set"] == (value == below)


class TestOpenDomainNotes:
    def test_out_of_grid_values_are_skipped_not_failed(self):
        # the 3/32 plateau sits below the inset core [1/10, 9/10]
        spec = DenseBlocks(1, Variant.OPEN_INTERVAL)
        g = build_chain_graph(spec, grid_for(spec, 8))
        report = verify(synthesize(condense(g)), g)
        assert report.all_passed
        assert any("skipped" in note for note in report.notes)


def keys_of(values):
    """verify's integer keys: each value's numerator over one denominator."""
    den = math.lcm(*{v.denominator for v in values})
    return [v.numerator * (den // v.denominator) for v in values]


DESCENT_INDICES = [
    ZERO, ONE, Ordinal.from_int(2), Ordinal.from_int(3), OMEGA,
    parse_ordinal("w+1"), parse_ordinal("w*2"), parse_ordinal("w^2"),
]
DESCENT_HOMEOS = [
    PLHomeo([(0, 0), (F(1, 3), F(1, 2)), (1, 1)]),
    PLHomeo([(0, 0), (F(1, 3), F(13, 48)), (F(2, 3), F(35, 48)), (1, 1)]),
    PLHomeo([(0, 0), (F(1, 5), F(2, 9)), (F(4, 7), F(5, 11)), (1, 1)]),
]
bare_specs = st.one_of(
    st.sampled_from(DESCENT_INDICES).map(OrdinalMap),
    st.integers(1, 4).map(CantorExample),
    st.builds(DenseBlocks, st.integers(0, 3), st.sampled_from(list(Variant))),
)
descent_specs = st.one_of(
    bare_specs, st.builds(Conjugated, bare_specs, st.sampled_from(DESCENT_HOMEOS))
)


@st.composite
def descent_cases(draw):
    """A graph on the spec's own grid or on a sub-interval of its domain,
    with honest values or with one cell's value moved."""
    spec = draw(descent_specs)
    n = draw(st.integers(1, 128))
    if draw(st.booleans()):
        grid = grid_for(spec, n)
    else:
        ends = st.fractions(min_value=0, max_value=1, max_denominator=24)
        if is_open(spec):
            ends = ends.filter(lambda t: 0 < t < 1)
        lo, hi = sorted((draw(ends), draw(ends)))
        assume(lo < hi)
        grid = Grid(lo, hi, n)
    eps = draw(st.one_of(
        st.none(), st.integers(1, 6).map(lambda a: ConstantField(F(a, 2 * n)))
    ))
    g = build_chain_graph(spec, grid, eps)
    cond = condense(g)
    values = list(synthesize(cond).cell_values)
    if draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        values[i] = draw(st.one_of(
            st.sampled_from(values),
            st.fractions(min_value=0, max_value=1, max_denominator=100),
        ))
    return g, cond, tuple(values)


class TestIntegerDescent:
    @given(descent_cases())
    @settings(max_examples=200, deadline=None)
    def test_matches_the_fraction_descent(self, case):
        g, cond, values = case
        args = (g.spec, g.grid, cond, values, keys_of(values))
        assert _descent(*args) == reference_descent(*args)

    # the two-plateau map takes the values 0 and 3/4 only; a part that ends
    # exactly on an end of the grid meets the end cell, and is not skipped
    @pytest.mark.parametrize("grid, skipped", [
        (Grid(F(0), F(3, 4), 6), 0),
        (Grid(F(3, 4), F(1), 4), 0),
        (Grid(F(1, 4), F(3, 4), 4), 4),
    ])
    def test_parts_at_the_grid_ends_are_checked(self, grid, skipped):
        g = build_chain_graph(DenseBlocks(0, Variant.WITH_MAX), grid)
        cond = condense(g)
        values = synthesize(cond).cell_values
        args = (g.spec, grid, cond, values, keys_of(values))
        assert _descent(*args) == reference_descent(*args) == (
            CheckResult("descent", True), skipped
        )

    def test_grid_outside_the_domain_raises_as_evaluate_does(self):
        spec = OrdinalMap(ONE)
        grid = Grid(F(-1, 4), F(1), 5)
        g = ChainGraph(spec, grid, ConstantField(F(1, 4)), tuple((i,) for i in range(5)))
        cond = condense(g)
        values = synthesize(cond).cell_values
        args = (spec, grid, cond, values, keys_of(values))
        with pytest.raises(ValueError) as reference:
            reference_descent(*args)
        with pytest.raises(ValueError) as integer:
            _descent(*args)
        assert str(integer.value) == str(reference.value) == "-1/4 outside the domain"
        with pytest.raises(ValueError, match="outside the domain"):
            verify(synthesize(cond), g)

    @pytest.mark.parametrize("spec", [
        DenseBlocks(2, Variant.OPEN_INTERVAL),
        Conjugated(DenseBlocks(2, Variant.OPEN_INTERVAL), DESCENT_HOMEOS[1]),
    ])
    def test_open_domain_plateau_on_a_closed_grid_raises(self, spec):
        # the first cell starts at 0, outside (0, 1)
        grid = Grid(F(0), F(1), 8)
        g = ChainGraph(spec, grid, ConstantField(F(1, 4)), tuple((i,) for i in range(8)))
        with pytest.raises(ValueError) as error:
            verify(synthesize(condense(g)), g)
        assert str(error.value) == "0 outside the domain"
