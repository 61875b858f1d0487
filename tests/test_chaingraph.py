"""Chain graph tests.

The strongly-connected-component and reachability results are checked
against brute-force breadth-first closures, which are slow but obviously
correct on small graphs.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import chainposet.chaingraph as cg
from chainposet.chaingraph import (
    ChainGraphError,
    ConstantField,
    Grid,
    Mode,
    PiecewiseField,
    auto_field,
    build_chain_graph,
    chain_components,
    condense,
    constant_field,
    dump_adjacency,
    grid_for,
    is_edge_subset,
    piecewise_field,
    reaches_recurrent,
    recurrent_cells,
    strongly_connected_components,
)
from chainposet.ordinal import OMEGA, Ordinal
from chainposet.systems import (
    CantorExample,
    DenseBlocks,
    Identity,
    OrdinalMap,
    Square,
    Variant,
)

SMALL_SPECS = [
    Identity(),
    Square(),
    OrdinalMap(Ordinal.from_int(2)),
    OrdinalMap(OMEGA),
    CantorExample(1),
    DenseBlocks(1, Variant.WITH_MAX),
    DenseBlocks(1, Variant.NO_MAX),
    DenseBlocks(0, Variant.OPEN_INTERVAL),
]


def bfs_reachable(adj, start):
    # nodes reachable by at least one edge step
    seen = set(adj[start])
    frontier = list(seen)
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen


def brute_components(adj):
    n = len(adj)
    reach = [bfs_reachable(adj, i) for i in range(n)]
    comps = []
    assigned = [None] * n
    for i in range(n):
        if assigned[i] is not None:
            continue
        comp = [j for j in range(n) if j == i or (j in reach[i] and i in reach[j])]
        for j in comp:
            assigned[j] = len(comps)
        comps.append(comp)
    recurrent = [i in reach[i] for i in range(n)]
    return comps, assigned, recurrent


def digraphs():
    @st.composite
    def build(draw):
        n = draw(st.integers(1, 10))
        return tuple(
            tuple(sorted(draw(st.lists(st.integers(0, n - 1), max_size=4, unique=True))))
            for _ in range(n)
        )

    return build()


class TestGrid:
    def test_cells_partition(self):
        g = Grid(F(0), F(1), 8)
        assert g.width == F(1, 8)
        assert g.cell(0) == (F(0), F(1, 8))
        assert g.cell(7) == (F(7, 8), F(1))
        assert g.midpoint(3) == F(7, 16)

    def test_cell_of_boundaries(self):
        g = Grid(F(0), F(1), 8)
        assert g.cell_of(F(0)) == 0
        assert g.cell_of(F(1, 8)) == 1
        assert g.cell_of(F(1)) == 7
        assert g.cell_of(F(3, 16)) == 1

    def test_open_domain_grid_inset_by_one_cell(self):
        g = grid_for(DenseBlocks(1, Variant.OPEN_INTERVAL), 6)
        assert (g.lo, g.hi) == (F(1, 8), F(7, 8))
        assert g.width == F(1, 8)
        assert grid_for(Square(), 6) == Grid(F(0), F(1), 6)

    def test_size_limits(self):
        with pytest.raises(ChainGraphError):
            Grid(F(0), F(1), 0)
        with pytest.raises(ChainGraphError):
            Grid(F(1), F(0), 4)


class TestFields:
    def test_constant(self):
        f = constant_field(F(1, 4))
        assert f.value(F(1, 2)) == F(1, 4)
        assert f.sup_over(F(0), F(1)) == F(1, 4)
        with pytest.raises(ChainGraphError):
            constant_field(0)

    def test_piecewise_interpolation(self):
        f = piecewise_field([(0, 1), (F(1, 2), 3), (1, 2)])
        assert f.value(F(1, 4)) == F(2)
        assert f.value(F(3, 4)) == F(5, 2)
        assert f.sup_over(F(1, 4), F(3, 4)) == F(3)
        assert f.bounds(F(1, 4), F(3, 4)) == (F(2), F(3))
        assert f.sup_over(F(0), F(1, 4)) == F(2)

    def test_piecewise_validation(self):
        with pytest.raises(ChainGraphError):
            piecewise_field([(0, 1)])
        with pytest.raises(ChainGraphError):
            piecewise_field([(0, 1), (F(1, 2), 0), (1, 1)])
        with pytest.raises(ChainGraphError):
            piecewise_field([(F(1, 4), 1), (1, 1)])

    def test_auto_slack_is_two_cells(self):
        assert auto_field(Grid(F(0), F(1), 16)).eps == F(1, 8)


class TestEdges:
    def test_identity_reaches_neighbours(self):
        g = build_chain_graph(Identity(), Grid(F(0), F(1), 8), constant_field(F(1, 8)))
        for i, row in enumerate(g.adjacency):
            want = tuple(j for j in (i - 1, i, i + 1) if 0 <= j < 8)
            assert row == want

    def test_square_coarse_rows(self):
        g = build_chain_graph(Square(), Grid(F(0), F(1), 4), constant_field(F(1, 4)))
        assert g.adjacency[3] == (1, 2, 3)
        assert g.adjacency[0] == (0, 1)

    def test_plateau_zero_targets_low_cells(self):
        # cells strictly between blocks map to 0, so they reach exactly the
        # cells within slack of 0, and never themselves
        spec = DenseBlocks(1, Variant.WITH_MAX)
        g = build_chain_graph(spec, Grid(F(0), F(1), 32), constant_field(F(3, 32)))
        assert g.adjacency[9] == (0, 1, 2)
        assert g.adjacency[21] == (0, 1, 2)

    def test_self_edge_requires_image_overlap(self):
        n = 1024
        g = build_chain_graph(
            Square(), Grid(F(0), F(1), n), constant_field(F(2, n))
        )
        # image of cell 1020 ends 2039/2^20 below the cell, within slack,
        # but a within-slack miss must not count as recurrence
        assert not g.has_edge(1020, 1020)
        assert g.has_edge(1020, 1019)
        assert g.has_edge(1022, 1022)
        assert g.has_edge(1021, 1022)
        assert g.has_edge(1022, 1021)

    def test_rows_sorted_unique(self):
        for spec in SMALL_SPECS:
            g = build_chain_graph(spec, grid_for(spec, 12))
            for row in g.adjacency:
                assert list(row) == sorted(set(row))

    def test_edge_budget_guard(self, monkeypatch):
        monkeypatch.setattr(cg, "MAX_EDGES", 64)
        with pytest.raises(ChainGraphError):
            build_chain_graph(Identity(), Grid(F(0), F(1), 32), constant_field(F(1)))

    def test_dump_format(self):
        g = build_chain_graph(Identity(), Grid(F(0), F(1), 2), constant_field(F(1, 4)))
        assert dump_adjacency(g) == "0: 0 1\n1: 0 1\n"

    @given(
        st.sampled_from(SMALL_SPECS),
        st.integers(4, 40),
        st.integers(1, 6),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_edges_grow_with_slack(self, spec, n, a, b):
        lo_eps, hi_eps = sorted([F(a, 24), F(b, 24)])
        grid = grid_for(spec, n)
        g1 = build_chain_graph(spec, grid, ConstantField(lo_eps))
        g2 = build_chain_graph(spec, grid, ConstantField(hi_eps))
        assert is_edge_subset(g1, g2)

    @given(st.sampled_from(SMALL_SPECS), st.integers(4, 40), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_sampled_edges_within_enclosure_edges(self, spec, n, a):
        grid = grid_for(spec, n)
        eps = ConstantField(F(a, 24))
        sampled = build_chain_graph(spec, grid, eps, mode=Mode.SAMPLED)
        enclosed = build_chain_graph(spec, grid, eps)
        assert is_edge_subset(sampled, enclosed)

    @given(st.sampled_from(SMALL_SPECS), st.integers(4, 32))
    @settings(max_examples=40, deadline=None)
    def test_flat_piecewise_field_matches_constant(self, spec, n):
        grid = grid_for(spec, n)
        flat = piecewise_field([(0, F(1, 16)), (F(1, 3), F(1, 16)), (1, F(1, 16))])
        const = constant_field(F(1, 16))
        g1 = build_chain_graph(spec, grid, flat)
        g2 = build_chain_graph(spec, grid, const)
        assert g1.adjacency == g2.adjacency

    def test_variable_slack_widens_edges_locally(self):
        grid = Grid(F(0), F(1), 16)
        field = piecewise_field([(0, F(1, 16)), (1, F(5, 16))])
        g = build_chain_graph(Identity(), grid, field)
        assert g.adjacency[0] == (0, 1, 2)
        assert g.adjacency[15] == tuple(range(10, 16))


class TestComponents:
    def test_tarjan_against_brute_force_on_random_digraphs(self):
        @given(digraphs())
        @settings(max_examples=300, deadline=None)
        def check(adj):
            comps, comp_of = strongly_connected_components(adj)
            want_comps, want_assign, _ = brute_components(adj)
            got = sorted(tuple(c) for c in comps)
            want = sorted(tuple(sorted(c)) for c in want_comps)
            assert got == want
            for i in range(len(adj)):
                for j in range(len(adj)):
                    same_got = comp_of[i] == comp_of[j]
                    same_want = want_assign[i] == want_assign[j]
                    assert same_got == same_want

        check()

    @given(digraphs())
    @settings(max_examples=200, deadline=None)
    def test_emission_order_is_sinks_first(self, adj):
        comps, comp_of = strongly_connected_components(adj)
        for i, row in enumerate(adj):
            for j in row:
                if comp_of[i] != comp_of[j]:
                    assert comp_of[j] < comp_of[i]

    @given(st.sampled_from(SMALL_SPECS), st.integers(4, 32), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_recurrent_flags_against_brute_force(self, spec, n, a):
        grid = grid_for(spec, n)
        g = build_chain_graph(spec, grid, ConstantField(F(a, 20)))
        _, _, recurrent = brute_components(g.adjacency)
        assert set(recurrent_cells(condense(g))) == {i for i in range(n) if recurrent[i]}

    @given(st.sampled_from(SMALL_SPECS), st.integers(4, 32), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_reaches_recurrent_against_brute_force(self, spec, n, a):
        grid = grid_for(spec, n)
        g = build_chain_graph(spec, grid, ConstantField(F(a, 20)))
        _, _, recurrent = brute_components(g.adjacency)
        rec = {i for i in range(n) if recurrent[i]}
        flags = reaches_recurrent(condense(g))
        for i in range(n):
            want = i in rec or bool(bfs_reachable(g.adjacency, i) & rec)
            assert flags[i] == want

    @given(st.sampled_from(SMALL_SPECS), st.integers(4, 32), st.integers(1, 5))
    @settings(max_examples=60, deadline=None)
    def test_pair_order_against_brute_force(self, spec, n, a):
        grid = grid_for(spec, n)
        g = build_chain_graph(spec, grid, ConstantField(F(a, 20)))
        poset = chain_components(condense(g))
        for ka, ca in enumerate(poset.components):
            for kb, cb in enumerate(poset.components):
                if ka == kb:
                    continue
                flows_down = ca.cells[0] in bfs_reachable(g.adjacency, cb.cells[0])
                assert poset.less(ka, kb) == flows_down

    def test_identity_is_one_big_component(self):
        g = build_chain_graph(Identity(), Grid(F(0), F(1), 8), constant_field(F(1, 8)))
        poset = chain_components(condense(g))
        assert len(poset) == 1
        assert poset.components[0].cells == tuple(range(8))
        assert poset.pairs == frozenset()

    def test_square_two_bands(self):
        n = 1024
        g = build_chain_graph(Square(), Grid(F(0), F(1), n), constant_field(F(2, n)))
        poset = chain_components(condense(g))
        assert [c.cells for c in poset.components] == [(0, 1, 2), (1021, 1022, 1023)]
        assert poset.pairs == frozenset({(0, 1)})
        assert poset.components[0].representative == F(1, 2048)
        assert poset.components[1].span == (F(1021, 1024), F(1))
        assert all(reaches_recurrent(condense(g)))

    def test_condensation_recurrent_flags(self):
        g = build_chain_graph(Square(), Grid(F(0), F(1), 16), constant_field(F(1, 8)))
        cond = condense(g)
        for c, members in enumerate(cond.members):
            on_cycle = any(i in bfs_reachable(g.adjacency, i) for i in members)
            assert cond.recurrent[c] == on_cycle
