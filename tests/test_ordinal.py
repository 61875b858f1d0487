"""Ordinal arithmetic tests.

The comparison and addition oracles below evaluate normal forms with
finite exponents as polynomials at a large integer base, which is order
and absorption faithful as long as coefficients never reach the base.
"""

from functools import cmp_to_key

import pytest
from hypothesis import given, strategies as st

from chainposet.ordinal import (
    OMEGA,
    ONE,
    ZERO,
    Ordinal,
    OrdinalKind,
    OrdinalSyntaxError,
    add,
    classify,
    compare,
    format_ordinal,
    fundamental,
    omega_power,
    parse_ordinal,
    tail_split,
)

BASE = 1000


def poly_value(a: Ordinal) -> int:
    # only valid for finite exponents and coefficients below BASE
    total = 0
    for exp, coef in a.terms:
        assert exp.is_finite() and coef < BASE
        total += BASE ** exp.as_int() * coef
    return total


def finite_exponent_ordinals() -> st.SearchStrategy[Ordinal]:
    @st.composite
    def build(draw):
        exps = draw(st.lists(st.integers(0, 6), max_size=4, unique=True))
        exps.sort(reverse=True)
        return Ordinal(
            tuple((Ordinal.from_int(e), draw(st.integers(1, 49))) for e in exps)
        )

    return build()


def general_ordinals(depth: int = 2) -> st.SearchStrategy[Ordinal]:
    if depth == 0:
        return st.integers(0, 9).map(Ordinal.from_int)
    sub = general_ordinals(depth - 1)

    @st.composite
    def build(draw):
        exps = draw(st.lists(sub, max_size=3, unique=True))
        exps.sort(key=cmp_to_key(compare), reverse=True)
        return Ordinal(tuple((e, draw(st.integers(1, 5))) for e in exps))

    return build()


class TestNormalForm:
    def test_rejects_increasing_exponents(self):
        with pytest.raises(ValueError):
            Ordinal(((ZERO, 1), (ONE, 1)))

    def test_rejects_zero_coefficient(self):
        with pytest.raises(ValueError):
            Ordinal(((ONE, 0),))

    def test_from_int_round_trip(self):
        assert Ordinal.from_int(0) == ZERO
        assert Ordinal.from_int(7).as_int() == 7

    def test_hashable(self):
        assert len({OMEGA, omega_power(ONE), ZERO}) == 2


class TestCompare:
    def test_extension_is_larger(self):
        a = omega_power(Ordinal.from_int(2), 2)
        b = add(a, omega_power(ONE, 3))
        assert compare(a, b) < 0
        assert compare(b, a) > 0
        assert compare(a, a) == 0

    def test_exponent_dominates_coefficient(self):
        assert compare(omega_power(ONE, 99), omega_power(Ordinal.from_int(2))) < 0

    @given(finite_exponent_ordinals(), finite_exponent_ordinals())
    def test_matches_polynomial_order(self, a, b):
        want = (poly_value(a) > poly_value(b)) - (poly_value(a) < poly_value(b))
        assert compare(a, b) == want

    @given(general_ordinals(), general_ordinals())
    def test_antisymmetric(self, a, b):
        assert compare(a, b) == -compare(b, a)
        assert (compare(a, b) == 0) == (a == b)
        # the operators order through compare
        c = compare(a, b)
        assert (a < b, a <= b, a > b, a >= b) == (c < 0, c <= 0, c > 0, c >= 0)

    @given(general_ordinals(), general_ordinals(), general_ordinals())
    def test_transitive(self, a, b, c):
        if compare(a, b) <= 0 and compare(b, c) <= 0:
            assert compare(a, c) <= 0


class TestAdd:
    def test_absorbs_lower_terms(self):
        w2 = omega_power(Ordinal.from_int(2))
        assert add(add(w2, OMEGA), w2) == omega_power(Ordinal.from_int(2), 2)

    def test_finite_before_omega_vanishes(self):
        assert add(Ordinal.from_int(5), OMEGA) == OMEGA
        assert add(OMEGA, Ordinal.from_int(5)) != OMEGA

    @given(finite_exponent_ordinals(), finite_exponent_ordinals())
    def test_matches_polynomial_absorption(self, a, b):
        got = poly_value(add(a, b))
        if b.is_zero():
            assert got == poly_value(a)
        else:
            e = b.terms[0][0].as_int()
            assert got == (poly_value(a) // BASE**e) * BASE**e + poly_value(b)

    @given(general_ordinals(), general_ordinals(), general_ordinals())
    def test_associative(self, a, b, c):
        assert add(add(a, b), c) == add(a, add(b, c))

    @given(general_ordinals(), general_ordinals())
    def test_result_dominates_both(self, a, b):
        s = add(a, b)
        assert compare(s, a) >= 0
        assert compare(s, b) >= 0

    @given(general_ordinals(), general_ordinals(), general_ordinals())
    def test_strictly_monotone_on_the_right(self, a, b1, b2):
        if compare(b1, b2) < 0:
            assert compare(add(a, b1), add(a, b2)) < 0


class TestClassify:
    def test_zero(self):
        assert classify(ZERO) == (OrdinalKind.ZERO, None)

    def test_finite_successor(self):
        kind, pred = classify(Ordinal.from_int(5))
        assert kind == OrdinalKind.SUCCESSOR and pred == Ordinal.from_int(4)

    def test_omega_is_limit(self):
        assert classify(OMEGA) == (OrdinalKind.LIMIT, None)
        assert classify(omega_power(ONE, 2)) == (OrdinalKind.LIMIT, None)

    def test_mixed_successor(self):
        kind, pred = classify(add(OMEGA, Ordinal.from_int(3)))
        assert kind == OrdinalKind.SUCCESSOR
        assert pred == add(OMEGA, Ordinal.from_int(2))

    @given(general_ordinals())
    def test_successor_of_anything(self, a):
        kind, pred = classify(add(a, ONE))
        assert kind == OrdinalKind.SUCCESSOR and pred == a


class TestTailSplit:
    def test_composite_limit(self):
        lam = add(omega_power(Ordinal.from_int(2)), OMEGA)
        assert tail_split(lam) == (omega_power(Ordinal.from_int(2)), ONE)

    def test_pure_power_head_is_one(self):
        assert tail_split(OMEGA) == (ONE, ONE)
        assert tail_split(omega_power(Ordinal.from_int(2))) == (ONE, Ordinal.from_int(2))

    def test_repeated_power(self):
        lam = omega_power(ONE, 3)
        assert tail_split(lam) == (omega_power(ONE, 2), ONE)

    def test_rejects_successor(self):
        with pytest.raises(ValueError):
            tail_split(Ordinal.from_int(4))

    @given(general_ordinals())
    def test_recomposes(self, a):
        if classify(a)[0] != OrdinalKind.LIMIT:
            return
        head, exp = tail_split(a)
        assert add(head, omega_power(exp)) == a
        assert ONE <= head < a


class TestFundamental:
    def test_omega_approximants_are_integers(self):
        assert fundamental(OMEGA, 5) == Ordinal.from_int(5)
        assert fundamental(OMEGA, 1) == ONE

    def test_omega_squared(self):
        assert fundamental(omega_power(Ordinal.from_int(2)), 3) == omega_power(ONE, 3)

    def test_omega_to_the_omega(self):
        w_w = omega_power(OMEGA)
        assert fundamental(w_w, 2) == omega_power(Ordinal.from_int(2))
        assert fundamental(w_w, 3) == omega_power(Ordinal.from_int(3))

    def test_rejects_decomposable(self):
        with pytest.raises(ValueError):
            fundamental(add(omega_power(Ordinal.from_int(2)), OMEGA), 2)
        with pytest.raises(ValueError):
            fundamental(omega_power(ONE, 2), 2)
        with pytest.raises(ValueError):
            fundamental(Ordinal.from_int(3), 2)

    @given(general_ordinals(1), st.integers(1, 8))
    def test_strictly_increasing_below_target(self, g, j):
        if g.is_zero():
            return
        lam = omega_power(g)
        assert fundamental(lam, j) < fundamental(lam, j + 1) < lam

    @given(general_ordinals(1), st.integers(1, 50), st.integers(1, 50))
    def test_sums_of_approximants_stay_below(self, g, i, j):
        if g.is_zero():
            return
        lam = omega_power(g)
        assert add(fundamental(lam, i), fundamental(lam, j)) < lam

    @given(general_ordinals(2), st.integers(1, 49))
    def test_never_zero(self, g, j):
        # w^(g'+1)[j] = w^g' * j and w^g[j] = w^(g[j]) are both at least 1
        if g.is_zero():
            return
        assert ONE <= fundamental(omega_power(g), j)


def revalidated(a: Ordinal) -> Ordinal:
    """a rebuilt through the checking constructor, exponents first."""
    return Ordinal(tuple((revalidated(exp), coef) for exp, coef in a.terms))


class TestArithmeticResultsAreNormalForms:
    # arithmetic builds its results without the constructor's checks, from
    # forms that are already valid; each result must pass those checks anyway

    @given(general_ordinals(), general_ordinals())
    def test_add(self, a, b):
        r = add(a, b)
        assert revalidated(r) == r

    @given(general_ordinals())
    def test_classify_predecessor(self, a):
        _, pred = classify(add(a, Ordinal.from_int(3)))
        assert revalidated(pred) == pred
        kind, pred = classify(a)
        if kind == OrdinalKind.SUCCESSOR:
            assert revalidated(pred) == pred

    @given(general_ordinals())
    def test_tail_split(self, a):
        if classify(a)[0] != OrdinalKind.LIMIT:
            return
        head, exp = tail_split(a)
        assert revalidated(head) == head
        assert revalidated(exp) == exp

    @given(general_ordinals(), st.integers(1, 50))
    def test_fundamental(self, g, j):
        if g.is_zero():
            return
        r = fundamental(omega_power(g), j)
        assert revalidated(r) == r


class TestText:
    def test_parse_examples(self):
        assert parse_ordinal("0") == ZERO
        assert parse_ordinal("5") == Ordinal.from_int(5)
        assert parse_ordinal("w") == OMEGA
        assert parse_ordinal("w^2*3+w+1") == Ordinal(
            ((Ordinal.from_int(2), 3), (ONE, 1), (ZERO, 1))
        )
        assert parse_ordinal("w^(w)") == omega_power(OMEGA)

    def test_parse_is_lenient(self):
        assert parse_ordinal("w^w") == omega_power(OMEGA)
        assert parse_ordinal(" w + 1 ") == add(OMEGA, ONE)
        assert parse_ordinal("1+w") == OMEGA

    def test_format_examples(self):
        assert format_ordinal(ZERO) == "0"
        assert format_ordinal(omega_power(OMEGA)) == "w^(w)"
        assert (
            format_ordinal(add(add(omega_power(Ordinal.from_int(2), 3), OMEGA), ONE))
            == "w^2*3+w+1"
        )

    def test_syntax_errors_carry_position(self):
        for text in ["", "w^", "3+", "w*0", "w)", "2 3"]:
            with pytest.raises(OrdinalSyntaxError) as info:
                parse_ordinal(text)
            assert info.value.position <= len(text)

    @given(general_ordinals(3))
    def test_round_trip(self, a):
        assert parse_ordinal(format_ordinal(a)) == a
