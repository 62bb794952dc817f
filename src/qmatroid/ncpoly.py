"""Free noncommutative polynomials over the rationals in matrix generators u[i,j].

An Algebra fixes the ground labels; its n*n generators u[i,j] (i, j ground
labels) are single letters.  Words are bytes: letter (i, j) encodes to
row_position * n + col_position, which makes the (row, col) lexicographic
variable order the byte order.  Polynomials map words to nonzero
coefficients: an integral coefficient is an int, any other is a Fraction, and
none is ever a float (as_coeff enforces this), so integral input stays in
int arithmetic.

The monomial order is graded: shorter words are smaller, equal-length words
compare letterwise from the right and the word whose first differing letter
is the smaller variable is the larger word.  The empty word (the constant 1)
is minimal.

Canonical text form: terms in descending word order, coefficient as a reduced
rational, letters joined with '*', e.g. ``u[1,1]*u[1,2] - 1/2*u[2,1] + 3``.
parse_poly accepts the same grammar.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from . import kernel

Coeff = int | Fraction

ZERO = 0
ONE = 1


def as_coeff(c) -> Coeff:
    """A coefficient in normal form: int when integral, Fraction otherwise.

    Accepts anything Fraction accepts (ints, Fractions, floats, decimal
    strings); the conversion is exact, so a float never survives.
    """
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


def normal_terms(terms: Mapping[bytes, Coeff]) -> dict[bytes, Coeff]:
    """A term dict with every coefficient in as_coeff normal form."""
    return {w: c if type(c) is int else as_coeff(c) for w, c in terms.items()}


def add_terms(
    terms: dict[bytes, Coeff],
    items: Iterable[tuple[bytes, Coeff]],
    scale: Coeff = ONE,
    left: bytes = b"",
    right: bytes = b"",
) -> dict[bytes, Coeff]:
    """Add scale * left·w·right for each (w, c) of items into terms, in place.

    Every sum is kept in as_coeff normal form and a zero sum drops its word,
    so terms stays a valid polynomial term dict.  Returns terms.
    """
    for w, c in items:
        w = left + w + right
        acc = terms.get(w, ZERO) + scale * c
        if type(acc) is not int:
            acc = as_coeff(acc)
        if acc:
            terms[w] = acc
        else:
            terms.pop(w, None)
    return terms


class VariableUniverseMismatch(ValueError):
    pass


class ZeroPolynomial(ValueError):
    pass


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class Variable:
    """Generator u[row, col]; row and col are ground labels."""

    row: int
    col: int

    def __str__(self) -> str:
        return f"u[{self.row},{self.col}]"


@dataclass(frozen=True)
class Algebra:
    """Variable universe: the free algebra on u[i,j] for i, j in a label tuple."""

    labels: tuple[int, ...]
    # letter of u[row, col] by (row, col), filled in from labels
    letter: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise ValueError("algebra needs at least one label")
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise ValueError("labels must be strictly increasing")
        if len(labels) > 16:
            raise ValueError("at most 16 labels supported (variable ids must fit a byte)")
        n = len(labels)
        letter = {(i, j): p * n + q for p, i in enumerate(labels) for q, j in enumerate(labels)}
        object.__setattr__(self, "letter", letter)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def nvars(self) -> int:
        return self.n * self.n

    def var_id(self, row: int, col: int) -> int:
        vid = self.letter.get((row, col))
        if vid is None:
            label = col if row in self.labels else row
            raise VariableUniverseMismatch(f"label {label} not in algebra labels {self.labels}")
        return vid

    def id_to_variable(self, vid: int) -> Variable:
        return Variable(self.labels[vid // self.n], self.labels[vid % self.n])

    def word(self, pairs: Iterable[tuple[int, int]]) -> bytes:
        return bytes(self.var_id(i, j) for i, j in pairs)

    def letters(self, word: bytes) -> tuple[Variable, ...]:
        return tuple(self.id_to_variable(b) for b in word)

    def compare_words(self, w1: bytes, w2: bytes) -> int:
        return kernel.compare_words(w1, w2)

    # -- polynomial constructors -------------------------------------------

    def zero(self) -> NcPolynomial:
        return NcPolynomial(self, {})

    def one(self) -> NcPolynomial:
        return NcPolynomial(self, {b"": ONE})

    def constant(self, c) -> NcPolynomial:
        c = as_coeff(c)
        return NcPolynomial(self, {b"": c} if c else {})

    def gen(self, row: int, col: int) -> NcPolynomial:
        return NcPolynomial(self, {bytes([self.var_id(row, col)]): ONE})

    def monomial(self, pairs: Iterable[tuple[int, int]], coeff=ONE) -> NcPolynomial:
        c = coeff if type(coeff) is int else as_coeff(coeff)
        if not c:
            return self.zero()
        return NcPolynomial(self, {self.word(pairs): c})

    def poly(self, terms: Mapping[bytes, Coeff]) -> NcPolynomial:
        return NcPolynomial(self, {w: as_coeff(c) for w, c in terms.items() if c})

    # -- text form -----------------------------------------------------------

    def format_word(self, word: bytes) -> str:
        if not word:
            return "1"
        return "*".join(str(v) for v in self.letters(word))

    def format_poly(self, p: NcPolynomial) -> str:
        if not p.terms:
            return "0"
        parts: list[str] = []
        for i, (w, c) in enumerate(p.sorted_terms()):
            mag = abs(c)
            if not w:
                body = _fmt_frac(mag)
            elif mag == 1:
                body = self.format_word(w)
            else:
                body = f"{_fmt_frac(mag)}*{self.format_word(w)}"
            if i == 0:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    def parse_poly(self, text: str) -> NcPolynomial:
        s = text.strip()
        if not s:
            raise ParseError("empty polynomial text")
        if s == "0":
            return self.zero()
        terms: dict[bytes, Coeff] = {}
        for chunk in s.replace("-", "+-").split("+"):
            chunk = chunk.strip()
            if not chunk:
                continue
            sign = ONE
            if chunk.startswith("-"):
                sign = -ONE
                chunk = chunk[1:].strip()
            if not chunk:
                raise ParseError(f"dangling sign in {text!r}")
            coeff = sign
            letters: list[int] = []
            for factor in chunk.split("*"):
                factor = factor.strip()
                m = _VAR_RE.fullmatch(factor)
                if m:
                    letters.append(self.var_id(int(m.group(1)), int(m.group(2))))
                    continue
                try:
                    coeff *= int(factor) if factor.isdecimal() else Fraction(factor)
                except (ValueError, ZeroDivisionError) as exc:
                    raise ParseError(f"bad factor {factor!r} in {text!r}") from exc
            add_terms(terms, ((bytes(letters), coeff),))
        return NcPolynomial(self, terms)


_VAR_RE = re.compile(r"u\[\s*(\d+)\s*,\s*(\d+)\s*\]")


def _fmt_frac(c: Coeff) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class NcPolynomial:
    """Immutable-by-convention free polynomial: dict of word -> nonzero coefficient.

    An integral coefficient is an int and any other is a Fraction; every
    constructor and ring operation keeps to this (see as_coeff).
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: Algebra, terms: dict[bytes, Coeff]):
        self.alg = alg
        self.terms = terms

    # -- ring structure ------------------------------------------------------

    def _check(self, other: NcPolynomial) -> None:
        if self.alg != other.alg:
            raise VariableUniverseMismatch("polynomials live in different algebras")

    def __add__(self, other) -> NcPolynomial:
        if not isinstance(other, NcPolynomial):
            return self + self.alg.constant(other)
        self._check(other)
        return NcPolynomial(self.alg, add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self) -> NcPolynomial:
        return NcPolynomial(self.alg, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other) -> NcPolynomial:
        if not isinstance(other, NcPolynomial):
            return self - self.alg.constant(other)
        return self + (-other)

    def __rsub__(self, other) -> NcPolynomial:
        return (-self) + other

    def __mul__(self, other) -> NcPolynomial:
        if not isinstance(other, NcPolynomial):
            return NcPolynomial(self.alg, add_terms({}, self.terms.items(), as_coeff(other)))
        self._check(other)
        terms: dict[bytes, Coeff] = {}
        for w, c in self.terms.items():
            add_terms(terms, other.terms.items(), c, w)
        return NcPolynomial(self.alg, terms)

    def __rmul__(self, other) -> NcPolynomial:
        # a polynomial left operand is handled by its own __mul__
        return self * other

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NcPolynomial)
            and self.alg == other.alg
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.alg, frozenset(self.terms.items())))

    # -- structure queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def sorted_terms(self) -> list[tuple[bytes, Coeff]]:
        key = kernel.sort_key
        return sorted(self.terms.items(), key=lambda item: key(item[0]), reverse=True)

    def leading_term(self) -> tuple[bytes, Coeff]:
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no leading term")
        if len(self.terms) == 1:
            (term,) = self.terms.items()
            return term
        w = max(self.terms, key=kernel.sort_key)
        return (w, self.terms[w])

    def leading_word(self) -> bytes:
        return self.leading_term()[0]

    def leading_coeff(self) -> Coeff:
        return self.leading_term()[1]

    def degree(self) -> int:
        """Length of the longest word (the order is graded, so this is len(LT))."""
        if not self.terms:
            raise ZeroPolynomial("zero polynomial has no degree")
        return max(len(w) for w in self.terms)

    def monic(self) -> NcPolynomial:
        if self.leading_coeff() == 1:
            return self
        return NcPolynomial(self.alg, data_terms(monic_data(self.terms)))

    def star(self) -> NcPolynomial:
        """Antilinear involution: reverse words; rational coefficients are fixed."""
        # reversal is injective on words, so no two terms meet
        return NcPolynomial(self.alg, {w[::-1]: c for w, c in self.terms.items()})

    def map_labels(self, mapping: Mapping[int, int], target: Algebra) -> NcPolynomial:
        """Push the polynomial through a label renaming into a target algebra."""
        items = (
            (target.word((mapping[v.row], mapping[v.col]) for v in self.alg.letters(w)), c)
            for w, c in self.terms.items()
        )
        return NcPolynomial(target, add_terms({}, items))

    def __str__(self) -> str:
        return self.alg.format_poly(self)

    def __repr__(self) -> str:
        return f"NcPolynomial({self.alg.format_poly(self)})"


def monic_data(terms: Mapping[bytes, Coeff]) -> tuple[bytes, tuple[tuple[bytes, Coeff], ...]]:
    """Kernel data (leading word, descending tail) of a nonzero term dict made monic.

    The one place a leading coefficient is divided out; the tail is in
    as_coeff normal form.  data_terms is the inverse.
    """
    key = kernel.sort_key
    items = sorted(terms.items(), key=lambda item: key(item[0]), reverse=True)
    lc = items[0][1]
    scale = ONE if lc == 1 else 1 / Fraction(lc)
    return (items[0][0], tuple((w, as_coeff(scale * c)) for w, c in items[1:]))


def data_terms(data: tuple[bytes, tuple[tuple[bytes, Coeff], ...]]) -> dict[bytes, Coeff]:
    """The term dict of kernel data (lt, tail): leading coefficient 1."""
    lt, tail = data
    return dict(((lt, ONE), *tail))


def normal_remainder(
    p: NcPolynomial,
    basis: Iterable[NcPolynomial] | kernel.Reducer,
    trace: list | None = None,
) -> NcPolynomial:
    """Normal form of p against a list of nonzero polynomials.

    Deterministic: each divisible term is rewritten through the match with the
    earliest end position in the word, ties broken by lowest basis index.
    When trace is a list it receives (cofactor, left, index, right) entries
    with p = sum(cofactor * left * basis[index].monic() * right) + remainder.

    basis may also be a kernel.Reducer already built over monic_data of the
    polynomials, which saves rebuilding its automaton when many polynomials
    are reduced against one basis (GroebnerBasis.reducer).  Its entries are
    not checked again, so the caller vouches that they come from p's algebra;
    trace indices then refer to reducer.data.
    """
    if isinstance(basis, kernel.Reducer):
        reducer = basis
    else:
        reducer = kernel.Reducer()
        for g in basis:
            if g.alg != p.alg:
                raise VariableUniverseMismatch("basis polynomial in a different algebra")
            if g.is_zero():
                raise ZeroPolynomial("zero polynomial in reduction basis")
            reducer.append(monic_data(g.terms))
    return NcPolynomial(p.alg, normal_terms(kernel.reduce_terms(p.terms, reducer, trace)))


def replay_trace(
    trace: Iterable[tuple[Coeff, bytes, int, bytes]],
    basis: list[NcPolynomial],
    remainder: NcPolynomial,
) -> NcPolynomial:
    """Rebuild p = sum(q * left * basis[idx].monic() * right) + remainder."""
    total = dict(remainder.terms)
    for q, left, idx, right in trace:
        add_terms(total, basis[idx].monic().terms.items(), q, left, right)
    return NcPolynomial(remainder.alg, total)
