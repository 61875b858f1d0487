"""Acceptance sweep for the whole analysis stack.

Each test prints one `ACCEPTANCE NN PASS|FAIL` line (visible with -s or
-rA) so the suite can be gated by grep as well as by pytest's exit
status.  Position tolerances are 8 times the slack bound unless a single
cell is stated; runtime caps are generous desk-scale bounds.
"""

import functools
import time
from fractions import Fraction as F

from chainposet.chaingraph import (
    build_chain_graph,
    chain_components,
    condense,
    constant_field,
    grid_for,
    is_edge_subset,
    piecewise_field,
    reaches_recurrent,
    recurrent_cells,
)
from chainposet.lyapunov import synthesize, verify
from chainposet.ordinal import ONE, parse_ordinal
from chainposet.poset import (
    density_signature,
    dual,
    hasse_covers,
    is_linear,
    linear_order_type,
    minimal_elements,
    order_isomorphic,
)
from chainposet.systems import (
    CantorExample,
    Conjugated,
    DenseBlocks,
    OrdinalMap,
    Variant,
    dense_blocks,
    make_homeo,
    predicted_representatives,
)

SAMPLE_HOMEO = ((F(0), F(0)), (F(1, 3), F(1, 2)), (F(1), F(1)))


def criterion(num: int):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num:02d} FAIL")
                raise
            print(f"ACCEPTANCE {num:02d} PASS")

        return wrapper

    return deco


def bundled_systems():
    return (
        ("square", OrdinalMap(parse_ordinal("1"))),
        ("chain_3", OrdinalMap(parse_ordinal("2"))),
        ("chain_4", OrdinalMap(parse_ordinal("3"))),
        ("chain_5", OrdinalMap(parse_ordinal("4"))),
        ("omega", OrdinalMap(parse_ordinal("w"))),
        ("omega_plus_1", OrdinalMap(parse_ordinal("w+1"))),
        ("omega_power", OrdinalMap(parse_ordinal("w^(w)"))),
        ("cantor_1", CantorExample(1)),
        ("cantor_2", CantorExample(2)),
        ("dense_with_max", DenseBlocks(2, Variant.WITH_MAX)),
        ("dense_no_max", DenseBlocks(2, Variant.NO_MAX)),
        ("dense_open", DenseBlocks(2, Variant.OPEN_INTERVAL)),
        ("conjugated", Conjugated(OrdinalMap(parse_ordinal("2")), make_homeo(SAMPLE_HOMEO))),
    )


def _contiguous(cells) -> bool:
    return cells == tuple(range(cells[0], cells[-1] + 1))


def _poset_at(spec, n):
    return chain_components(condense(build_chain_graph(spec, grid_for(spec, n))))


def _max_eps(graph) -> F:
    return graph.eps.bounds(graph.grid.lo, graph.grid.hi)[1]


@criterion(1)
def test_01_square_two_component_chain():
    # n=1024, eps=2/1024: two contiguous bands pinned to the endpoints,
    # linearly ordered, in under 5 seconds
    t0 = time.monotonic()
    spec = OrdinalMap(ONE)
    graph = build_chain_graph(spec, grid_for(spec, 1024), constant_field(F(2, 1024)))
    poset = chain_components(condense(graph))
    elapsed = time.monotonic() - t0
    assert len(poset) == 2
    low, high = poset.components
    assert _contiguous(low.cells) and _contiguous(high.cells)
    tol = 8 * F(2, 1024)
    assert F(0) <= low.span[0] and low.span[1] <= tol
    assert 1 - tol <= high.span[0] and high.span[1] <= F(1)
    assert is_linear(poset) and poset.less(0, 1)
    assert elapsed < 5.0


@criterion(2)
def test_02_finite_ordinal_order_types():
    # lambda in {2,3,4} at n=2048, auto slack: linear, lambda+1 parts,
    # each within 8*eps of a predicted fixed point, under 10 s per map
    for lam in (2, 3, 4):
        t0 = time.monotonic()
        spec = OrdinalMap(parse_ordinal(str(lam)))
        graph = build_chain_graph(spec, grid_for(spec, 2048))
        poset = chain_components(condense(graph))
        elapsed = time.monotonic() - t0
        predicted = predicted_representatives(spec, graph.grid.width)
        assert len(predicted) == lam + 1
        assert len(poset) == lam + 1
        assert is_linear(poset)
        tol = 8 * _max_eps(graph)
        for comp in poset.components:
            assert min(abs(comp.representative - q) for q in predicted) <= tol
        assert elapsed < 10.0


@criterion(3)
def test_03_limit_ordinal_growth():
    # the omega map gains components at every refinement and every
    # component sits within 8*eps of a predicted fixed point
    spec = OrdinalMap(parse_ordinal("w"))
    counts = []
    for n in (256, 1024, 4096):
        graph = build_chain_graph(spec, grid_for(spec, n))
        poset = chain_components(condense(graph))
        counts.append(len(poset))
        predicted = predicted_representatives(spec, graph.grid.width)
        tol = 8 * _max_eps(graph)
        for comp in poset.components:
            assert min(abs(comp.representative - q) for q in predicted) <= tol
    assert counts[0] < counts[1] < counts[2]


@criterion(4)
def test_04_dense_blocks_exactness():
    # depth 3 with max, n=4096, eps=1/2048: 9 components, one per block,
    # representatives within one cell of the block left endpoints, all
    # comparabilities agree with position, no upward condensation edges
    t0 = time.monotonic()
    spec = DenseBlocks(3, Variant.WITH_MAX)
    graph = build_chain_graph(spec, grid_for(spec, 4096), constant_field(F(1, 2048)))
    poset = chain_components(condense(graph))
    elapsed = time.monotonic() - t0
    lefts = [lo for lo, _ in dense_blocks(Variant.WITH_MAX, 3)]
    assert len(poset) == 9 and len(lefts) == 9
    for comp, left in zip(poset.components, lefts):
        assert abs(comp.representative - left) <= graph.grid.width
    for a, b in poset.pairs:
        assert poset.components[a].representative < poset.components[b].representative
    for k in range(1, 9):
        assert poset.less(0, k)
    cond = condense(graph)
    for u in range(len(cond.members)):
        for v in cond.successors[u]:
            assert cond.members[v][0] < cond.members[u][0]
    assert elapsed < 10.0


@criterion(5)
def test_05_density_contrast():
    # refinement traces depth 1->2->3 at n 1024->2048->4096: the dense
    # family refines every gap and keeps nothing; the middle-thirds
    # family keeps its central gap pinned near (1/3, 2/3)
    sig = density_signature([
        _poset_at(DenseBlocks(d, Variant.WITH_MAX), n)
        for d, n in ((1, 1024), (2, 2048), (3, 4096))
    ])
    assert sig.counts == (3, 5, 9)
    assert sig.dense_growth is True
    assert sig.persistent_pairs == ()

    sig = density_signature([
        _poset_at(CantorExample(d), n) for d, n in ((1, 1024), (2, 2048), (3, 4096))
    ])
    assert sig.counts == (2, 4, 4)
    assert sig.dense_growth is False
    assert len(sig.persistent_pairs) == 1
    pair = sig.persistent_pairs[0]
    tol = 8 * F(2, 4096)
    assert pair.first_pair == (0, 1)
    assert abs(pair.gap[0] - F(1, 3)) <= tol
    assert abs(pair.gap[1] - F(2, 3)) <= tol


@criterion(6)
def test_06_recurrence_and_minimal_elements():
    # every bundled system at every tested grid and slack: recurrent
    # cells exist, every cell reaches one, minimal elements exist
    for name, spec in bundled_systems():
        for n in (256, 1024):
            grid = grid_for(spec, n)
            for field in (None, constant_field(3 * grid.width)):
                graph = build_chain_graph(spec, grid, field)
                assert recurrent_cells(condense(graph)), name
                assert all(reaches_recurrent(condense(graph))), name
                assert minimal_elements(chain_components(condense(graph))), name


@criterion(7)
def test_07_lyapunov_contract():
    # synthesized assignments certify on every bundled system at n=1024:
    # descent off components, constancy and injectivity on them, edge
    # order, and middle-thirds value membership
    for name, spec in bundled_systems():
        graph = build_chain_graph(spec, grid_for(spec, 1024))
        report = verify(synthesize(condense(graph)), graph)
        failed = [c.name for c in report.checks if not c.passed]
        assert report.all_passed, (name, failed)


@criterion(8)
def test_08_conjugacy_invariance():
    # the piecewise-linear change of coordinates through (1/3, 1/2)
    # preserves the order and moves representatives with it
    base = OrdinalMap(parse_ordinal("2"))
    h = make_homeo(SAMPLE_HOMEO)
    twin = Conjugated(base, h)
    graph_f = build_chain_graph(base, grid_for(base, 1024))
    graph_g = build_chain_graph(twin, grid_for(twin, 1024))
    poset_f = chain_components(condense(graph_f))
    poset_g = chain_components(condense(graph_g))
    assert order_isomorphic(poset_f, poset_g)
    tol = 8 * _max_eps(graph_f)
    assert len(poset_f) == len(poset_g) == 3
    for bc, tc in zip(poset_f.components, poset_g.components):
        assert abs(h.apply(bc.representative) - tc.representative) <= tol
    targets = (F(0), F(5, 8), F(1))
    for comp, q in zip(poset_g.components, targets):
        assert abs(comp.representative - q) <= tol


@criterion(9)
def test_09_variable_slack_sandwich():
    # a slack field inside [1/1024, 4/1024] builds an edge set between
    # the two constant builds; a flat field is bit-identical to constant
    spec = OrdinalMap(parse_ordinal("2"))
    grid = grid_for(spec, 1024)
    lo = build_chain_graph(spec, grid, constant_field(F(1, 1024)))
    hi = build_chain_graph(spec, grid, constant_field(F(4, 1024)))
    mid = build_chain_graph(
        spec, grid, piecewise_field(((F(0), F(1, 1024)), (F(1), F(4, 1024))))
    )
    assert is_edge_subset(lo, mid)
    assert is_edge_subset(mid, hi)
    flat = build_chain_graph(
        spec, grid, piecewise_field(((F(0), F(2, 1024)), (F(1), F(2, 1024))))
    )
    const = build_chain_graph(spec, grid, constant_field(F(2, 1024)))
    assert flat.adjacency == const.adjacency


@criterion(10)
def test_10_dual_order():
    # reversing the four point chain flips covers and extremes; applying
    # dual twice returns every computed poset unchanged
    spec = OrdinalMap(parse_ordinal("3"))
    graph = build_chain_graph(spec, grid_for(spec, 1024))
    poset = chain_components(condense(graph))
    assert len(poset) == 4 and is_linear(poset)
    rev = dual(poset)
    assert is_linear(rev)
    assert linear_order_type(rev) == tuple(reversed(linear_order_type(poset)))
    assert set(hasse_covers(rev)) == {(b, a) for a, b in hasse_covers(poset)}
    assert dual(rev) == poset
    for other_spec in (OrdinalMap(ONE), DenseBlocks(1, Variant.WITH_MAX)):
        other = chain_components(
            condense(build_chain_graph(other_spec, grid_for(other_spec, 256)))
        )
        assert dual(dual(other)) == other
