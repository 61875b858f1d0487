"""Exact ordinal arithmetic below epsilon_0 in Cantor normal form.

An Ordinal is a tuple of (exponent, coefficient) terms with strictly
decreasing ordinal exponents and positive integer coefficients; the empty
tuple is 0 and finite ordinals carry a single exponent-0 term.  Values are
immutable and hashable, so sharing across threads is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import total_ordering
from typing import Optional, Tuple


class OrdinalKind(Enum):
    ZERO = "zero"
    SUCCESSOR = "successor"
    LIMIT = "limit"


@total_ordering
@dataclass(frozen=True)
class Ordinal:
    """Cantor normal form: w^e1*c1 + ... + w^ek*ck with e1 > e2 > ... > ek."""

    terms: Tuple[Tuple["Ordinal", int], ...] = ()

    def __post_init__(self) -> None:
        for exp, coef in self.terms:
            if not isinstance(coef, int) or coef < 1:
                raise ValueError("coefficients must be positive integers")
            if not isinstance(exp, Ordinal):
                raise ValueError("exponents must be ordinals")
        for (e1, _), (e2, _) in zip(self.terms, self.terms[1:]):
            if compare(e1, e2) <= 0:
                raise ValueError("exponents must strictly decrease")

    @staticmethod
    def from_int(n: int) -> "Ordinal":
        if n < 0:
            raise ValueError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return Ordinal(((ZERO, n),))

    def is_zero(self) -> bool:
        return not self.terms

    def is_finite(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def as_int(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_finite():
            raise ValueError("not a finite ordinal")
        return self.terms[0][1]

    def __str__(self) -> str:
        return format_ordinal(self)

    def __repr__(self) -> str:
        return f"Ordinal[{format_ordinal(self)}]"

    def __lt__(self, other: "Ordinal") -> bool:
        return compare(self, other) < 0


ZERO = Ordinal()
ONE = Ordinal.from_int(1)


def omega_power(exp: Ordinal, coef: int = 1) -> Ordinal:
    """w^exp * coef as a one-term normal form (coef copies of w^exp)."""
    if coef == 0:
        return ZERO
    return Ordinal(((exp, coef),))


OMEGA = omega_power(ONE)


def compare(a: Ordinal, b: Ordinal) -> int:
    """Lexicographic comparison of normal forms: -1, 0 or 1."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = compare(ea, eb)
        if c != 0:
            return c
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0


def _nf(terms: Tuple[Tuple[Ordinal, int], ...]) -> Ordinal:
    """Ordinal from terms already in normal form, skipping the checks.

    Arithmetic on valid forms only yields valid forms, so results are built
    here; the public constructors (Ordinal, from_int, omega_power and
    parse_ordinal) still check what they are given.
    """
    a = object.__new__(Ordinal)
    object.__setattr__(a, "terms", terms)
    return a


def add(a: Ordinal, b: Ordinal) -> Ordinal:
    """Ordinal sum a + b; terms of a below b's leading exponent are absorbed."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    lead, lead_coef = b.terms[0]
    kept = []
    for exp, coef in a.terms:
        c = compare(exp, lead)
        if c > 0:
            kept.append((exp, coef))
        elif c == 0:
            kept.append((exp, coef + lead_coef))
            return _nf(tuple(kept) + b.terms[1:])
        else:
            break
    return _nf(tuple(kept) + b.terms)


def _drop_one(terms: Tuple[Tuple[Ordinal, int], ...]) -> Ordinal:
    """The form minus one copy of its last term."""
    last_exp, last_coef = terms[-1]
    if last_coef == 1:
        return _nf(terms[:-1])
    return _nf(terms[:-1] + ((last_exp, last_coef - 1),))


def classify(a: Ordinal) -> Tuple[OrdinalKind, Optional[Ordinal]]:
    """Zero, successor (with predecessor) or limit."""
    if a.is_zero():
        return OrdinalKind.ZERO, None
    if not a.terms[-1][0].is_zero():
        return OrdinalKind.LIMIT, None
    return OrdinalKind.SUCCESSOR, _drop_one(a.terms)


def tail_split(lam: Ordinal) -> Tuple[Ordinal, Ordinal]:
    """Split a limit ordinal as lam = alpha + w^e with 1 <= alpha < lam.

    e is the last normal-form exponent.  When lam is exactly w^e the head
    alpha is 1 (absorbed by the sum), otherwise alpha is lam minus one
    copy of w^e.
    """
    kind, _ = classify(lam)
    if kind != OrdinalKind.LIMIT:
        raise ValueError("tail_split requires a limit ordinal")
    last_exp, last_coef = lam.terms[-1]
    if len(lam.terms) == 1 and last_coef == 1:
        return ONE, last_exp
    return _drop_one(lam.terms), last_exp


def _limit_step(mu: Ordinal, j: int) -> Ordinal:
    """j-th member of the standard fundamental sequence of a limit ordinal."""
    head = _drop_one(mu.terms)
    last_exp = mu.terms[-1][0]
    kind, pred = classify(last_exp)
    if kind == OrdinalKind.SUCCESSOR:
        return add(head, _nf(((pred, j),)) if j > 0 else ZERO)
    # limit exponent: descend into it
    return add(head, _nf(((_limit_step(last_exp, j), 1),)))


def fundamental(lam: Ordinal, j: int) -> Ordinal:
    """j-th approximant of an additively indecomposable limit lam = w^g, g >= 1.

    Uses the standard rule w^(g'+1)[j] = w^g' * j and w^g[j] = w^(g[j]) for
    limit g.  Approximants increase strictly in j with supremum lam.
    """
    if j < 1:
        raise ValueError("approximant index must be >= 1")
    kind, _ = classify(lam)
    if kind != OrdinalKind.LIMIT or len(lam.terms) != 1 or lam.terms[0][1] != 1:
        raise ValueError("fundamental requires w^g with g >= 1")
    return _limit_step(lam, j)


class OrdinalSyntaxError(ValueError):
    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class _Parser:
    """Recursive-descent parser for sums of w^E*c terms.

    Accepted atoms: decimal integers, `w`, `w^E` and `w^E*c` where E is an
    integer, a bare `w`, or a parenthesized sum.  Whitespace is ignored.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> OrdinalSyntaxError:
        return OrdinalSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> None:
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        return int(self.text[start:self.pos])

    def parse_sum(self) -> Ordinal:
        total = self.parse_term()
        while self.peek() == "+":
            self.take("+")
            total = add(total, self.parse_term())
        return total

    def parse_term(self) -> Ordinal:
        ch = self.peek()
        if ch.isdigit():
            return Ordinal.from_int(self.parse_int())
        if ch != "w":
            raise self.error("expected a term")
        self.take("w")
        exp = ONE
        if self.peek() == "^":
            self.take("^")
            exp = self.parse_exponent()
        coef = 1
        if self.peek() == "*":
            self.take("*")
            coef = self.parse_int()
            if coef < 1:
                raise self.error("coefficient must be positive")
        return omega_power(exp, coef)

    def parse_exponent(self) -> Ordinal:
        ch = self.peek()
        if ch == "(":
            self.take("(")
            inner = self.parse_sum()
            self.take(")")
            return inner
        if ch.isdigit():
            return Ordinal.from_int(self.parse_int())
        if ch == "w":
            self.take("w")
            return OMEGA
        raise self.error("expected an exponent")


def parse_ordinal(text: str) -> Ordinal:
    """Parse ordinal syntax such as `0`, `5`, `w`, `w^2*3+w+1`, `w^(w)`.

    Sums are normalized left to right, so non-canonical input like `1+w`
    collapses to `w`.
    """
    parser = _Parser(text)
    if parser.peek() == "":
        raise parser.error("empty ordinal")
    out = parser.parse_sum()
    parser.skip_ws()
    if parser.pos != len(parser.text):
        raise parser.error("trailing input")
    return out


def _format_term(exp: Ordinal, coef: int) -> str:
    if exp.is_zero():
        return str(coef)
    if exp == ONE:
        head = "w"
    elif exp.is_finite():
        head = f"w^{exp.as_int()}"
    else:
        head = f"w^({format_ordinal(exp)})"
    return head if coef == 1 else f"{head}*{coef}"


def format_ordinal(a: Ordinal) -> str:
    """Canonical text form; parse_ordinal(format_ordinal(a)) == a."""
    if a.is_zero():
        return "0"
    return "+".join(_format_term(exp, coef) for exp, coef in a.terms)
