"""Chain graph tests.

The strongly-connected-component and reachability results are checked
against brute-force breadth-first closures, which are slow but obviously
correct on small graphs.
"""

import tracemalloc
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import chainposet.chaingraph as cg
from chainposet.chaingraph import (
    ChainGraphError,
    ConstantField,
    Grid,
    PiecewiseField,
    auto_field,
    build_chain_graph,
    chain_components,
    condense,
    dump_adjacency,
    grid_for,
    reaches_recurrent,
    recurrent_cells,
)
from chainposet.ordinal import OMEGA, ONE, ZERO, Ordinal, parse_ordinal
from chainposet.systems import (
    CantorExample,
    Conjugated,
    DenseBlocks,
    OrdinalMap,
    PLHomeo,
    Variant,
    evaluate,
    is_open,
)

from oracles import is_edge_subset, reference_build

SMALL_SPECS = [
    OrdinalMap(ZERO),
    OrdinalMap(ONE),
    OrdinalMap(Ordinal.from_int(2)),
    OrdinalMap(OMEGA),
    CantorExample(1),
    DenseBlocks(1, Variant.WITH_MAX),
    DenseBlocks(1, Variant.NO_MAX),
    DenseBlocks(0, Variant.OPEN_INTERVAL),
]

FAMILY_SPECS = [
    OrdinalMap(ZERO),
    OrdinalMap(ONE),
    OrdinalMap(OMEGA),
    OrdinalMap(parse_ordinal("w^2*3+2")),
    CantorExample(3),
    DenseBlocks(3, Variant.WITH_MAX),
    DenseBlocks(3, Variant.NO_MAX),
    DenseBlocks(3, Variant.OPEN_INTERVAL),
]
BENT_HOMEO = PLHomeo([(0, 0), (F(2, 7), F(1, 2)), (F(5, 8), F(3, 5)), (1, 1)])
ENCLOSURE_SPECS = FAMILY_SPECS + [Conjugated(s, BENT_HOMEO) for s in FAMILY_SPECS]


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


def cell_of(grid, x):
    """Index of a cell containing x, clamped to the ends."""
    k = int((x - grid.lo) / grid.width)
    return min(max(k, 0), grid.n - 1)


def wrap(adj):
    """A chain graph around a drawn adjacency, for `condense` alone."""
    grid = Grid(F(0), F(1), len(adj))
    return cg.ChainGraph(OrdinalMap(ZERO), grid, auto_field(grid), adj)


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
        assert cell_of(g, F(0)) == 0
        assert cell_of(g, F(1, 8)) == 1
        assert cell_of(g, F(1)) == 7
        assert cell_of(g, F(3, 16)) == 1

    def test_open_domain_grid_inset_by_one_cell(self):
        g = grid_for(DenseBlocks(1, Variant.OPEN_INTERVAL), 6)
        assert (g.lo, g.hi) == (F(1, 8), F(7, 8))
        assert g.width == F(1, 8)
        assert grid_for(OrdinalMap(ONE), 6) == Grid(F(0), F(1), 6)

    def test_size_limits(self):
        with pytest.raises(ChainGraphError):
            Grid(F(0), F(1), 0)
        with pytest.raises(ChainGraphError):
            Grid(F(1), F(0), 4)

    def test_int_ends_become_fractions(self):
        g, want = Grid(0, 1, 3), Grid(F(0), F(1), 3)
        assert g == want and isinstance(g.width, F)
        assert build_chain_graph(OrdinalMap(ONE), g) == build_chain_graph(OrdinalMap(ONE), want)

    def test_float_ends_are_refused(self):
        with pytest.raises(TypeError):
            Grid(0.0, F(1), 3)
        with pytest.raises(TypeError):
            Grid(F(0), 1.0, 3)
        with pytest.raises(TypeError):
            Grid(0, 1, 4.0)


class TestFields:
    def test_constant(self):
        f = ConstantField(F(1, 4))
        assert f.sup_over(F(0), F(1)) == F(1, 4)
        assert f.bounds(F(0), F(1)) == (F(1, 4), F(1, 4))
        with pytest.raises(ChainGraphError):
            ConstantField(0)

    def test_piecewise_interpolation(self):
        f = PiecewiseField([(0, 1), (F(1, 2), 3), (1, 2)])
        assert f.value(F(1, 4)) == F(2)
        assert f.value(F(3, 4)) == F(5, 2)
        assert f.sup_over(F(1, 4), F(3, 4)) == F(3)
        assert f.bounds(F(1, 4), F(3, 4)) == (F(2), F(3))
        assert f.sup_over(F(0), F(1, 4)) == F(2)
        with pytest.raises(ValueError):
            f.value(F(3, 2))

    def test_piecewise_validation(self):
        with pytest.raises(ChainGraphError):
            PiecewiseField([(0, 1)])
        with pytest.raises(ChainGraphError):
            PiecewiseField([(0, 1), (F(1, 2), 0), (1, 1)])
        with pytest.raises(ChainGraphError):
            PiecewiseField([(F(1, 4), 1), (1, 1)])

    def test_constant_refuses_floats(self):
        assert ConstantField(1).eps == ConstantField("1/1").eps == F(1)
        with pytest.raises(TypeError):
            ConstantField(0.01)
        assert isinstance(ConstantField(1).eps, F)

    def test_piecewise_refuses_floats(self):
        assert PiecewiseField([(0, "1/2"), (1, F(1, 2))]).points == ((0, F(1, 2)), (1, F(1, 2)))
        with pytest.raises(TypeError):
            PiecewiseField([(0, 1), (1, 0.5)])
        with pytest.raises(TypeError):
            PiecewiseField([(0.0, 1), (1, 1)])
        # exact where floats would give 0.15000000000000002
        assert PiecewiseField(((0, "1/10"), (1, "1/5"))).sup_over(0, F(1, 2)) == F(3, 20)

    def test_auto_slack_is_two_cells(self):
        assert auto_field(Grid(F(0), F(1), 16)).eps == F(1, 8)


class TestEdges:
    def test_identity_reaches_neighbours(self):
        g = build_chain_graph(OrdinalMap(ZERO), Grid(F(0), F(1), 8), ConstantField(F(1, 8)))
        for i, row in enumerate(g.adjacency):
            want = tuple(j for j in (i - 1, i, i + 1) if 0 <= j < 8)
            assert row == want

    def test_square_coarse_rows(self):
        g = build_chain_graph(OrdinalMap(ONE), Grid(F(0), F(1), 4), ConstantField(F(1, 4)))
        assert g.adjacency[3] == (1, 2, 3)
        assert g.adjacency[0] == (0, 1)

    def test_plateau_zero_targets_low_cells(self):
        # cells strictly between blocks map to 0, so they reach exactly the
        # cells within slack of 0, and never themselves
        spec = DenseBlocks(1, Variant.WITH_MAX)
        g = build_chain_graph(spec, Grid(F(0), F(1), 32), ConstantField(F(3, 32)))
        assert g.adjacency[9] == (0, 1, 2)
        assert g.adjacency[21] == (0, 1, 2)

    def test_self_edge_requires_image_overlap(self):
        n = 1024
        g = build_chain_graph(
            OrdinalMap(ONE), Grid(F(0), F(1), n), ConstantField(F(2, n))
        )
        # image of cell 1020 ends 2039/2^20 below the cell, within slack,
        # but a within-slack miss must not count as recurrence
        assert 1020 not in g.adjacency[1020]
        assert 1019 in g.adjacency[1020]
        assert 1022 in g.adjacency[1022]
        assert 1022 in g.adjacency[1021]
        assert 1021 in g.adjacency[1022]

    def test_rows_sorted_unique(self):
        for spec in SMALL_SPECS:
            g = build_chain_graph(spec, grid_for(spec, 12))
            for row in g.adjacency:
                assert list(row) == sorted(set(row))

    def test_rows_share_their_targets(self):
        # a target cell is one int object in every row that holds it, so
        # large graphs keep one copy of each; above 256, ints built apart
        # are apart objects
        n = 1024
        for spec in (OrdinalMap(ZERO), OrdinalMap(OMEGA)):
            g = build_chain_graph(spec, Grid(F(0), F(1), n), ConstantField(F(4, n)))
            first = {}
            for row in g.adjacency:
                for j in row:
                    assert first.setdefault(j, j) is j
            assert len(first) > 256

    def test_edge_budget_guard(self, monkeypatch):
        monkeypatch.setattr(cg, "MAX_EDGES", 64)
        with pytest.raises(ChainGraphError, match=r"1024 edges > MAX_EDGES = 64"):
            build_chain_graph(OrdinalMap(ZERO), Grid(F(0), F(1), 32), ConstantField(F(1)))

    def test_edge_budget_refused_before_rows(self):
        # slack 1 on 16384 cells asks for 2^28 edges, 4 * MAX_EDGES.  Rows
        # up to the budget alone would take about 530 MB, so the count has
        # to come before any row; the refusal then needs little more than
        # the grid's n + 1 values (Python 3.11).
        spec = OrdinalMap(ZERO)
        grid = grid_for(spec, 16384)
        tracemalloc.start()
        try:
            with pytest.raises(ChainGraphError, match=r"268435456 edges > MAX_EDGES = 67108864"):
                build_chain_graph(spec, grid, ConstantField(F(1)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_build_memory_bound(self):
        # the cell images stream one cell at a time, so the peak is the n + 1
        # grid values and the rows, about 2.7 MB (Python 3.11); a list of all
        # the images held through the build peaked at 3.8 MB
        spec = OrdinalMap(parse_ordinal("w^2*20"))
        grid = grid_for(spec, 1 << 14)
        tracemalloc.start()
        try:
            build_chain_graph(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.2 * 2**20

    @pytest.mark.parametrize("spec", [
        DenseBlocks(2, Variant.OPEN_INTERVAL),
        Conjugated(DenseBlocks(2, Variant.OPEN_INTERVAL), BENT_HOMEO),
    ])
    def test_open_domain_plateau_on_a_closed_grid_raises(self, spec):
        # the first cell starts at 0, outside (0, 1)
        with pytest.raises(ValueError) as error:
            build_chain_graph(spec, Grid(F(0), F(1), 8))
        assert str(error.value) == "0 outside the domain"

    def test_dump_format(self):
        g = build_chain_graph(OrdinalMap(ZERO), Grid(F(0), F(1), 2), ConstantField(F(1, 4)))
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

    @given(st.sampled_from(SMALL_SPECS), st.integers(4, 32))
    @settings(max_examples=40, deadline=None)
    def test_flat_piecewise_field_matches_constant(self, spec, n):
        grid = grid_for(spec, n)
        flat = PiecewiseField([(0, F(1, 16)), (F(1, 3), F(1, 16)), (1, F(1, 16))])
        const = ConstantField(F(1, 16))
        g1 = build_chain_graph(spec, grid, flat)
        g2 = build_chain_graph(spec, grid, const)
        assert g1.adjacency == g2.adjacency

    def test_variable_slack_widens_edges_locally(self):
        grid = Grid(F(0), F(1), 16)
        field = PiecewiseField([(0, F(1, 16)), (1, F(5, 16))])
        g = build_chain_graph(OrdinalMap(ZERO), grid, field)
        assert g.adjacency[0] == (0, 1, 2)
        assert g.adjacency[15] == tuple(range(10, 16))


def slack_fields(width):
    """Constant and piecewise slack in steps of a quarter cell width, so
    that image ends plus or minus the slack often land on cell ends."""
    step = width / 4
    constant = st.builds(lambda k: ConstantField(k * step), st.integers(1, 12))
    piecewise = st.builds(
        lambda xs, ks: PiecewiseField(
            list(zip([F(0), *sorted(set(xs)), F(1)], (k * step for k in ks)))
        ),
        st.lists(st.fractions(F(1, 16), F(15, 16), max_denominator=16), max_size=3),
        st.lists(st.integers(1, 40), min_size=5, max_size=5),
    )
    return st.one_of(constant, piecewise)


@st.composite
def build_inputs(draw):
    """A spec of any family, a grid over its core or inset in its domain,
    and a slack field."""
    spec = draw(st.sampled_from(ENCLOSURE_SPECS))
    n = draw(st.integers(1, 24))
    if draw(st.booleans()):
        grid = grid_for(spec, n)
    else:
        # mostly lo off 0, and a grid denominator other than n
        edge = F(1, 20) if is_open(spec) else F(0)
        ends = st.fractions(edge, 1 - edge, max_denominator=20)
        lo, hi = sorted(draw(st.lists(ends, min_size=2, max_size=2, unique=True)))
        grid = Grid(lo, hi, n)
    return spec, grid, draw(slack_fields(grid.width))


class TestAgainstReference:
    """The integer edge loop gives the adjacency of the module's rule, read
    cell pair by cell pair in Fraction arithmetic."""

    @given(build_inputs())
    @settings(max_examples=200, deadline=None)
    def test_adjacency_matches_reference(self, case):
        spec, grid, eps = case
        assert build_chain_graph(spec, grid, eps).adjacency == reference_build(spec, grid, eps)

    @pytest.mark.parametrize(
        "spec, grid, eps, i, row",
        [
            # inset grid of width 1/12 from 1/3: cell 2's image ends on cell
            # ends, and the slack reaches cell 0's right end exactly, which
            # is no edge (the rule is the strict <)
            (OrdinalMap(ZERO), Grid(F(1, 3), F(2, 3), 4), ConstantField(F(1, 12)), 2, (1, 2, 3)),
            # the same from above: q + t is cell 3's left end
            (OrdinalMap(ZERO), Grid(F(1, 3), F(2, 3), 4), ConstantField(F(1, 12)), 1, (0, 1, 2)),
            # piecewise slack whose supremum over cell 3, 1/4, reaches the
            # right end of cell 0 and the left end of cell 6
            (
                OrdinalMap(ZERO),
                Grid(F(0), F(1), 8),
                PiecewiseField([(0, F(1, 8)), (1, F(3, 8))]),
                3,
                (1, 2, 3, 4, 5),
            ),
            # x^2 takes cell 1 = [1/4, 1/2] onto [1/16, 1/4], which only
            # touches cell 1 at its left end: that is a self edge
            (OrdinalMap(ONE), Grid(F(0), F(1), 4), ConstantField(F(1, 64)), 1, (0, 1)),
            # cell 2 = [1/4, 3/8] takes the values 0 and 3/8; 3/8 only
            # touches cell 2 at its right end
            (DenseBlocks(1, Variant.WITH_MAX), Grid(F(0), F(1), 8), ConstantField(F(1, 64)), 2, (0, 2, 3)),
            # cell 3 = [3/8, 1/2] takes the value 3/8, its left end
            (DenseBlocks(1, Variant.WITH_MAX), Grid(F(0), F(1), 8), ConstantField(F(1, 64)), 3, (2, 3)),
            # the slack at 0 is so wide that the range of cell 2's part at
            # 0 holds that of its part at 3/8
            (
                DenseBlocks(1, Variant.WITH_MAX),
                Grid(F(0), F(1), 8),
                PiecewiseField([(0, 1), (F(3, 8), F(1, 64)), (1, F(1, 64))]),
                2,
                tuple(range(8)),
            ),
        ],
    )
    def test_boundary_cases(self, spec, grid, eps, i, row):
        adjacency = build_chain_graph(spec, grid, eps).adjacency
        assert adjacency[i] == row
        assert adjacency == reference_build(spec, grid, eps)


class TestEnclosureSoundness:
    """Every true step x -> f(x) out of a cell is an edge of the enclosure
    graph, whatever the slack; this is what lets edge order stand in for a
    pointwise descent check."""

    @given(
        st.sampled_from(ENCLOSURE_SPECS),
        st.integers(1, 256),
        st.sampled_from([F(1, 64), F(2)]),
        st.lists(
            st.tuples(
                st.integers(0, 255),
                st.fractions(0, 1, max_denominator=10**6),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_true_steps_are_edges(self, spec, n, slack, random_points):
        grid = grid_for(spec, n)
        g = build_chain_graph(spec, grid, ConstantField(slack * grid.width))
        probes = [(i, t) for i in range(n) for t in (F(0), F(1, 2), F(1))]
        probes += [(k % n, t) for k, t in random_points]
        for i, t in probes:
            a, b = grid.cell(i)
            x = a + t * (b - a)
            if is_open(spec) and not 0 < x < 1:
                continue
            y = evaluate(spec, x)
            if grid.lo <= y <= grid.hi:
                assert cell_of(grid, y) in g.adjacency[i], (i, x, y)


class TestComponents:
    def test_tarjan_against_brute_force_on_random_digraphs(self):
        @given(digraphs())
        @settings(max_examples=300, deadline=None)
        def check(adj):
            cond = condense(wrap(adj))
            want_comps, want_assign, _ = brute_components(adj)
            got = sorted(cond.members)
            want = sorted(tuple(sorted(c)) for c in want_comps)
            assert got == want
            for i in range(len(adj)):
                assert i in cond.members[cond.comp_of[i]]
                for j in range(len(adj)):
                    same_got = cond.comp_of[i] == cond.comp_of[j]
                    same_want = want_assign[i] == want_assign[j]
                    assert same_got == same_want

        check()

    @given(digraphs())
    @settings(max_examples=200, deadline=None)
    def test_emission_order_is_sinks_first(self, adj):
        comp_of = condense(wrap(adj)).comp_of
        for i, row in enumerate(adj):
            for j in row:
                if comp_of[i] != comp_of[j]:
                    assert comp_of[j] < comp_of[i]

    @given(digraphs())
    @settings(max_examples=200, deadline=None)
    def test_successors_against_brute_force(self, adj):
        cond = condense(wrap(adj))
        for c, cells in enumerate(cond.members):
            want = {cond.comp_of[j] for i in cells for j in adj[i]} - {c}
            assert cond.successors[c] == tuple(sorted(want))

    @given(digraphs())
    @settings(max_examples=200, deadline=None)
    def test_recurrence_is_the_two_case_rule(self, adj):
        # two or more cells, or a single cell with its self edge
        cond = condense(wrap(adj))
        for c, cells in enumerate(cond.members):
            want = len(cells) > 1 or cells[0] in adj[cells[0]]
            assert cond.recurrent[c] == want

    def test_condense_memory_bound(self):
        # one target set alive at a time: the peak is the returned value,
        # about 2.6 MB, plus under 1 MB
        spec = OrdinalMap(OMEGA)
        g = build_chain_graph(spec, grid_for(spec, 1 << 14))
        tracemalloc.start()
        try:
            condense(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

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
                assert ((ka, kb) in poset.pairs) == flows_down

    def test_identity_is_one_big_component(self):
        g = build_chain_graph(OrdinalMap(ZERO), Grid(F(0), F(1), 8), ConstantField(F(1, 8)))
        poset = chain_components(condense(g))
        assert len(poset) == 1
        assert poset.components[0].cells == tuple(range(8))
        assert poset.pairs == frozenset()

    def test_square_two_bands(self):
        n = 1024
        g = build_chain_graph(OrdinalMap(ONE), Grid(F(0), F(1), n), ConstantField(F(2, n)))
        poset = chain_components(condense(g))
        assert [c.cells for c in poset.components] == [(0, 1, 2), (1021, 1022, 1023)]
        assert poset.pairs == frozenset({(0, 1)})
        assert poset.components[0].representative == F(1, 2048)
        assert poset.components[1].span == (F(1021, 1024), F(1))
        assert all(reaches_recurrent(condense(g)))

    def test_condensation_recurrent_flags(self):
        g = build_chain_graph(OrdinalMap(ONE), Grid(F(0), F(1), 16), ConstantField(F(1, 8)))
        cond = condense(g)
        for c, members in enumerate(cond.members):
            on_cycle = any(i in bfs_reachable(g.adjacency, i) for i in members)
            assert cond.recurrent[c] == on_cycle
