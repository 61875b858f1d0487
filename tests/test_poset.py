"""Poset and refinement-trace tests.

The 5-chain layout below uses a slack larger than the gaps between
blocks (ladder regime), which lets each plateau band drain into the next
one down and produces a full linear order.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from chainposet.chaingraph import (
    Component,
    ComponentPoset,
    Grid,
    build_chain_graph,
    chain_components,
    condense,
    constant_field,
    grid_for,
)
from chainposet.poset import (
    IsoResult,
    PosetError,
    RefinementTrace,
    TraceLevel,
    density_signature,
    dual,
    hasse_covers,
    is_linear,
    linear_order_type,
    match_components,
    maximal_elements,
    minimal_elements,
    order_isomorphic,
    to_dot,
    trace_level,
)
from chainposet.systems import CantorExample, DenseBlocks, Square, Variant


def hand_poset(m, pairs, spans=None):
    grid = Grid(F(0), F(1), max(m, 1) * 4)
    if spans is None:
        spans = [(F(2 * k, 2 * m + 1), F(2 * k + 1, 2 * m + 1)) for k in range(m)]
    comps = tuple(
        Component((k,), (lo + hi) / 2, (lo, hi)) for k, (lo, hi) in enumerate(spans)
    )
    return ComponentPoset(grid, comps, frozenset(pairs))


def stub_level(poset):
    return TraceLevel(poset.grid.n, None, constant_field(F(1, 16)), poset)


def closed(pairs):
    pairs = set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(pairs):
            for c, d in list(pairs):
                if b == c and (a, d) not in pairs:
                    pairs.add((a, d))
                    changed = True
    return pairs


def posets(max_m=6):
    @st.composite
    def build(draw):
        m = draw(st.integers(1, max_m))
        pairs = set()
        for a in range(m):
            for b in range(a + 1, m):
                if draw(st.booleans()):
                    pairs.add((a, b))
        return hand_poset(m, closed(pairs))

    return build()


CHAIN3 = hand_poset(3, [(0, 1), (0, 2), (1, 2)])
FAN3 = hand_poset(3, [(0, 1), (0, 2)])


class TestQueries:
    def test_linearity(self):
        assert is_linear(CHAIN3)
        assert not is_linear(FAN3)
        assert is_linear(hand_poset(1, []))

    def test_extremes(self):
        assert minimal_elements(CHAIN3) == (0,)
        assert maximal_elements(CHAIN3) == (2,)
        assert minimal_elements(FAN3) == (0,)
        assert maximal_elements(FAN3) == (1, 2)
        anti = hand_poset(2, [])
        assert minimal_elements(anti) == (0, 1)
        assert maximal_elements(anti) == (0, 1)

    def test_hasse_of_chain(self):
        chain4 = hand_poset(4, closed([(0, 1), (1, 2), (2, 3)]))
        assert hasse_covers(chain4) == ((0, 1), (1, 2), (2, 3))

    def test_order_type(self):
        assert linear_order_type(CHAIN3) == (0, 1, 2)
        with pytest.raises(PosetError):
            linear_order_type(FAN3)

    @given(posets())
    def test_dual_is_an_involution(self, p):
        assert dual(dual(p)) == p
        assert minimal_elements(dual(p)) == maximal_elements(p)
        assert sorted(hasse_covers(dual(p))) == sorted(
            (b, a) for a, b in hasse_covers(p)
        )

    @given(posets())
    def test_pairs_never_symmetric(self, p):
        for a, b in p.pairs:
            assert (b, a) not in p.pairs


class TestIsomorphism:
    def test_same_shape(self):
        other = hand_poset(3, [(0, 1), (0, 2), (1, 2)])
        assert order_isomorphic(CHAIN3, other) == IsoResult(True, True)

    def test_chain_vs_fan(self):
        assert order_isomorphic(CHAIN3, FAN3) == IsoResult(False, True)

    def test_fan_vs_upside_down_fan(self):
        cofan = hand_poset(3, [(1, 0), (2, 0)])
        assert order_isomorphic(FAN3, cofan) == IsoResult(False, True)

    def test_size_mismatch(self):
        assert order_isomorphic(CHAIN3, hand_poset(2, [(0, 1)])).isomorphic is False

    @given(posets(), st.randoms(use_true_random=False))
    def test_relabelled_posets_are_isomorphic(self, p, rng):
        m = len(p.components)
        perm = list(range(m))
        rng.shuffle(perm)
        q = hand_poset(m, [(perm[a], perm[b]) for a, b in p.pairs])
        assert order_isomorphic(p, q) == IsoResult(True, True)


class TestDot:
    def test_chain_output(self):
        out = to_dot(hand_poset(2, [(0, 1)]))
        assert out.startswith("digraph chain_components {")
        assert '  n0 [label="1/10"];' in out
        assert "  n1 -> n0;" in out
        assert out.endswith("}\n")

    def test_edges_are_covers_only(self):
        out = to_dot(CHAIN3)
        assert "n2 -> n1;" in out and "n1 -> n0;" in out
        assert "n2 -> n0;" not in out


class TestLadderChain:
    def test_plateau_ladder_is_a_five_chain(self):
        spec = DenseBlocks(2, Variant.WITH_MAX)
        g = build_chain_graph(spec, Grid(F(0), F(1), 64), constant_field(F(3, 64)))
        poset = chain_components(condense(g))
        assert [c.cells for c in poset.components] == [
            (0, 1, 2),
            (17, 18, 19, 20),
            (23, 24, 25, 26),
            (41, 42, 43, 44),
            (47, 48, 49, 50),
        ]
        assert is_linear(poset)
        assert hasse_covers(poset) == ((0, 1), (1, 2), (2, 3), (3, 4))
        assert linear_order_type(poset) == (0, 1, 2, 3, 4)

    def test_ladder_dual_reverses(self):
        spec = DenseBlocks(2, Variant.WITH_MAX)
        g = build_chain_graph(spec, Grid(F(0), F(1), 64), constant_field(F(3, 64)))
        poset = chain_components(condense(g))
        rev = dual(poset)
        assert linear_order_type(rev) == (4, 3, 2, 1, 0)
        assert order_isomorphic(poset, rev) == IsoResult(True, True)


class TestMatching:
    def test_representative_containment(self):
        coarse = hand_poset(2, [(0, 1)], spans=[(F(1, 10), F(2, 10)), (F(7, 10), F(8, 10))])
        fine = hand_poset(
            3,
            [(0, 1), (0, 2), (1, 2)],
            spans=[(F(1, 10), F(2, 10)), (F(4, 10), F(5, 10)), (F(7, 10), F(8, 10))],
        )
        assert match_components(coarse, fine) == (0, 2)

    def test_unmatched_gives_none(self):
        coarse = hand_poset(1, [], spans=[(F(4, 10), F(5, 10))])
        fine = hand_poset(1, [], spans=[(F(7, 10), F(8, 10))])
        assert match_components(coarse, fine) == (None,)


def dense_trace():
    return RefinementTrace(
        tuple(
            trace_level(DenseBlocks(d, Variant.WITH_MAX), n)
            for d, n in [(1, 1024), (2, 2048), (3, 4096)]
        )
    )

def cantor_trace():
    return RefinementTrace(
        tuple(
            trace_level(CantorExample(d), n)
            for d, n in [(1, 1024), (2, 2048), (3, 4096)]
        )
    )


class TestDensitySignature:
    def test_needs_two_levels(self):
        lvl = trace_level(Square(), 64)
        with pytest.raises(PosetError):
            density_signature(RefinementTrace((lvl,)))

    def test_rejects_overlapping_spans(self):
        bad = hand_poset(2, [(0, 1)], spans=[(F(1, 10), F(5, 10)), (F(4, 10), F(8, 10))])
        with pytest.raises(PosetError):
            density_signature(RefinementTrace((stub_level(bad), stub_level(bad))))

    def test_rejects_order_against_position(self):
        bad = hand_poset(2, [(1, 0)])
        with pytest.raises(PosetError):
            density_signature(RefinementTrace((stub_level(bad), stub_level(bad))))

    def test_plateau_family_keeps_subdividing(self):
        sig = density_signature(dense_trace())
        assert sig.counts == (3, 5, 9)
        assert sig.dense_growth is True
        assert sig.persistent_pairs == ()

    def test_dip_family_keeps_its_central_gap(self):
        sig = density_signature(cantor_trace())
        assert sig.counts == (2, 4, 4)
        assert sig.dense_growth is False
        assert len(sig.persistent_pairs) == 1
        pair = sig.persistent_pairs[0]
        assert pair.first_pair == (0, 1)
        tol = 8 * F(2, 4096)
        assert abs(pair.gap[0] - F(1, 3)) <= tol
        assert abs(pair.gap[1] - F(2, 3)) <= tol
