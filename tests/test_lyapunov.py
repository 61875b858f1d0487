"""Lyapunov synthesis and certification tests."""

import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from chainposet.chaingraph import (
    ConstantField,
    Grid,
    build_chain_graph,
    chain_components,
    condense,
    grid_for,
)
from chainposet.lyapunov import (
    LyapunovAssignment,
    cantor_value,
    in_middle_third_set,
    synthesize,
    verify,
)
from chainposet.ordinal import OMEGA, ONE, ZERO, Ordinal
from chainposet.systems import (
    CantorExample,
    DenseBlocks,
    OrdinalMap,
    Variant,
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


class TestCantorValue:
    def test_frozen_values(self):
        assert cantor_value(0, 2) == F(0)
        assert cantor_value(1, 2) == F(2, 3)
        assert cantor_value(2, 4) == F(2, 3)
        assert cantor_value(3, 4) == F(8, 9)
        assert cantor_value(1, 4) == F(2, 9)
        assert cantor_value(0, 1) == F(0)
        assert cantor_value(5, 8) == F(20, 27)

    def test_bounds_checks(self):
        with pytest.raises(ValueError):
            cantor_value(2, 2)
        with pytest.raises(ValueError):
            cantor_value(-1, 2)
        with pytest.raises(ValueError):
            cantor_value(0, 0)

    @given(st.integers(1, 300))
    def test_strictly_increasing_in_rank(self, total):
        vals = [cantor_value(r, total) for r in range(total)]
        assert vals == sorted(set(vals))
        assert all(0 <= v < 1 for v in vals)

    @given(st.integers(1, 300))
    def test_values_live_in_the_middle_third_set(self, total):
        for r in range(total):
            assert in_middle_third_set(cantor_value(r, total))


class TestMembership:
    def test_members(self):
        for x in [F(0), F(2, 3), F(2, 9), F(8, 9), F(20, 27), F(2, 3) + F(2, 81)]:
            assert in_middle_third_set(x)

    def test_non_members(self):
        for x in [F(1, 2), F(1, 3), F(1, 9), F(3, 4), F(5, 9), F(-1, 3), F(7, 6), F(1)]:
            assert not in_middle_third_set(x)


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
        assert sorted(assignment.ranks) == list(range(len(assignment.ranks)))

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
        bad = LyapunovAssignment(
            good.grid, tuple(values), good.component_values, good.ranks
        )
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
        bad = LyapunovAssignment(good.grid, values, good.component_values, good.ranks)
        report = verify(bad, g)
        by_name = {c.name: c for c in report.checks}
        assert not by_name["edge_order"].passed
        assert not by_name["descent"].passed

    def test_value_outside_the_set(self):
        g = self.graph()
        good = synthesize(condense(g))
        values = tuple(F(1, 2) if v == max(good.cell_values) else v
                       for v in good.cell_values)
        bad = LyapunovAssignment(good.grid, values, good.component_values, good.ranks)
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
        bad = LyapunovAssignment(
            good.grid, tuple(values), good.component_values, good.ranks
        )
        report = verify(bad, g)
        assert not [c for c in report.checks if c.name == "injectivity"][0].passed

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


class TestOpenDomainNotes:
    def test_out_of_grid_values_are_skipped_not_failed(self):
        # the 3/32 plateau sits below the inset core [1/10, 9/10]
        spec = DenseBlocks(1, Variant.OPEN_INTERVAL)
        g = build_chain_graph(spec, grid_for(spec, 8))
        report = verify(synthesize(condense(g)), g)
        assert report.all_passed
        assert any("skipped" in note for note in report.notes)
