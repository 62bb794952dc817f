"""Free-algebra arithmetic, the word order, and normal-form reduction."""

import random
from fractions import Fraction

import pytest

from qmatroid.groebner import EngineConfig, buchberger
from qmatroid.kernel import sort_key
from qmatroid.matroids import uniform
from qmatroid.ncpoly import (
    Algebra,
    ParseError,
    Variable,
    VariableUniverseMismatch,
    ZeroPolynomial,
    add_terms,
    data_terms,
    monic_data,
    normal_remainder,
    replay_trace,
)
from qmatroid.quantum import commutators, qsym_ideal_generators, quantum_aut_spec


@pytest.fixture
def alg2():
    return Algebra((1, 2))


@pytest.fixture
def alg3():
    return Algebra((1, 2, 3))


def random_poly(alg, rng, max_terms=5, max_len=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        w = bytes(rng.randrange(alg.nvars) for _ in range(rng.randrange(max_len + 1)))
        c = Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        if c:
            terms[w] = terms.get(w, Fraction(0)) + c
    return alg.poly({w: c for w, c in terms.items() if c})


def assert_coefficient_invariant(p):
    """Integral coefficients are ints, all others Fractions; never a float."""
    for c in p.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


class TestAlgebra:
    def test_var_ids_row_col_lexicographic(self, alg2):
        assert [alg2.var_id(i, j) for i in (1, 2) for j in (1, 2)] == [0, 1, 2, 3]

    def test_universe_mismatch(self, alg2):
        with pytest.raises(VariableUniverseMismatch):
            alg2.var_id(1, 3)

    def test_too_many_labels(self):
        with pytest.raises(ValueError):
            Algebra(tuple(range(1, 18)))

    def test_letters_round_trip(self, alg3):
        w = alg3.word([(1, 2), (3, 1), (2, 2)])
        assert alg3.letters(w) == (Variable(1, 2), Variable(3, 1), Variable(2, 2))


class TestWordOrder:
    def test_degree_dominates(self, alg2):
        w2 = alg2.word([(1, 1), (1, 2)])
        w3 = alg2.word([(2, 2), (2, 2), (2, 2)])
        assert alg2.compare_words(w2, w3) == -1
        assert alg2.compare_words(w3, w2) == 1

    def test_equal(self, alg2):
        w = alg2.word([(1, 1), (2, 1)])
        assert alg2.compare_words(w, w) == 0

    def test_tie_rule_golden(self, alg2):
        # right-to-left compare, smaller letter makes the larger word:
        # u11*u12 vs u12*u11 differ last at position 1 (u12 vs u11); u11 is
        # the smaller letter, so u12*u11 is the larger word.
        a = alg2.word([(1, 1), (1, 2)])
        b = alg2.word([(1, 2), (1, 1)])
        assert alg2.compare_words(a, b) == -1
        assert max([a, b], key=sort_key) == b

    def test_empty_word_minimal(self, alg2):
        for i in (1, 2):
            for j in (1, 2):
                assert alg2.compare_words(b"", alg2.word([(i, j)])) == -1

    def test_multiplication_compatible(self, alg2):
        rng = random.Random(7)
        words = [
            bytes(rng.randrange(4) for _ in range(rng.randrange(4)))
            for _ in range(120)
        ]
        for _ in range(400):
            u, v, a, b = (rng.choice(words) for _ in range(4))
            cuv = alg2.compare_words(u, v)
            if cuv == 0:
                continue
            assert alg2.compare_words(a + u + b, a + v + b) == cuv

    def test_sort_key_agrees_with_compare(self, alg2):
        rng = random.Random(11)
        words = [
            bytes(rng.randrange(4) for _ in range(rng.randrange(4)))
            for _ in range(60)
        ]
        by_key = sorted(words, key=sort_key)
        for w1, w2 in zip(by_key, by_key[1:]):
            assert alg2.compare_words(w1, w2) in (-1, 0)


class TestArithmetic:
    def test_distributivity_example(self, alg2):
        p = alg2.gen(1, 1) + alg2.gen(1, 2)
        q = alg2.gen(2, 1)
        want = alg2.monomial([(1, 1), (2, 1)]) + alg2.monomial([(1, 2), (2, 1)])
        assert p * q == want

    def test_ring_axioms_random(self, alg2):
        rng = random.Random(3)
        for _ in range(60):
            p, q, r = (random_poly(alg2, rng) for _ in range(3))
            assert (p + q) * r == p * r + q * r
            assert p * (q + r) == p * q + p * r
            assert (p * q) * r == p * (q * r)
            assert p + q == q + p
            assert p - p == alg2.zero()

    def test_scalar_and_constant(self, alg2):
        p = alg2.gen(1, 2)
        assert 2 * p == p + p
        assert p * Fraction(1, 2) + p * Fraction(1, 2) == p
        assert alg2.one() * p == p
        assert p * alg2.one() == p

    def test_universe_mismatch_on_ops(self, alg2, alg3):
        with pytest.raises(VariableUniverseMismatch):
            alg2.gen(1, 1) + alg3.gen(1, 1)

    def test_star_generator_product(self, alg2):
        p = alg2.monomial([(1, 1), (1, 2)])
        assert p.star() == alg2.monomial([(1, 2), (1, 1)])

    def test_star_involution_antihom(self, alg2):
        rng = random.Random(5)
        for _ in range(40):
            p, q = random_poly(alg2, rng), random_poly(alg2, rng)
            assert p.star().star() == p
            assert (p * q).star() == q.star() * p.star()

    def test_leading_term(self, alg2):
        p = alg2.gen(1, 1) + alg2.one()
        assert p.leading_term() == (alg2.word([(1, 1)]), Fraction(1))
        assert alg2.constant(5).leading_term() == (b"", Fraction(5))
        with pytest.raises(ZeroPolynomial):
            alg2.zero().leading_term()

    def test_row_relation_leading_word(self, alg2):
        # single letters tie-break right-to-left: smaller letter = larger word,
        # so the leading word of u11 + u12 - 1 is u11
        row = alg2.gen(1, 1) + alg2.gen(1, 2) - alg2.one()
        assert row.leading_word() == alg2.word([(1, 1)])

    def test_degree_and_monic(self, alg2):
        p = 3 * alg2.monomial([(1, 1), (2, 2)]) + alg2.gen(2, 1)
        assert p.degree() == 2
        assert p.monic().leading_coeff() == 1
        assert 3 * p.monic() == p
        u = alg2.gen(1, 1)
        half = (2 * u + 1).monic()
        assert half.terms == {alg2.word([(1, 1)]): 1, b"": Fraction(1, 2)}
        assert_coefficient_invariant(half)
        assert_coefficient_invariant((-u + 3).monic())

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda a: a.constant(Fraction(4, 2)), {b"": 2}),
            (lambda a: a.constant(0.5), {b"": Fraction(1, 2)}),
            (lambda a: a.monomial([(1, 2)], Fraction(6, 3)), {b"\x01": 2}),
            (lambda a: a.poly({b"\x00": Fraction(3), b"": Fraction(1, 3)}),
             {b"\x00": 3, b"": Fraction(1, 3)}),
            (lambda a: a.parse_poly("4/2*u[1,1] - 1/2"), {b"\x00": 2, b"": Fraction(-1, 2)}),
            (lambda a: Fraction(1, 2) * a.gen(1, 1) + Fraction(1, 2) * a.gen(1, 1), {b"\x00": 1}),
            (lambda a: (Fraction(1, 2) * a.gen(1, 1)) * (4 * a.gen(1, 2)), {b"\x00\x01": 2}),
            (lambda a: (a.gen(1, 1) * a.gen(1, 2) * Fraction(4, 2)).star(), {b"\x01\x00": 2}),
            (lambda a: (Fraction(1, 2) * a.gen(1, 1) + Fraction(3, 2) * a.gen(2, 2)).map_labels(
                {1: 1, 2: 1}, Algebra((1,))), {b"\x00": 2}),
            (lambda a: a.gen(1, 1) + 0.5, {b"\x00": 1, b"": Fraction(1, 2)}),
            (lambda a: a.gen(1, 1) * 0.5, {b"\x00": Fraction(1, 2)}),
            (lambda a: 0.5 * a.gen(1, 1), {b"\x00": Fraction(1, 2)}),
            (lambda a: 2.0 * a.gen(1, 1) * 0.5, {b"\x00": 1}),
            (lambda a: a.gen(1, 1) * 0.0, {}),
            (lambda a: 0 * a.gen(1, 1), {}),
        ],
    )
    def test_integral_coefficients_are_ints(self, alg2, build, expected):
        p = build(alg2)
        assert p.terms == expected
        assert_coefficient_invariant(p)

    def test_sorted_terms_descending(self, alg2):
        rng = random.Random(9)
        for _ in range(30):
            p = random_poly(alg2, rng)
            words = [w for w, _ in p.sorted_terms()]
            for w1, w2 in zip(words, words[1:]):
                assert alg2.compare_words(w1, w2) == 1


class TestAddTerms:
    def test_adds_in_place_and_returns_the_same_dict(self):
        terms = {b"\x00": 1}
        assert add_terms(terms, [(b"\x01", 2)]) is terms
        assert terms == {b"\x00": 1, b"\x01": 2}

    def test_zero_sums_are_dropped(self):
        terms = add_terms({b"\x00": 1, b"\x01": 2}, [(b"\x00", 1), (b"\x02", 0)], -1)
        assert terms == {b"\x01": 2}

    def test_integral_fraction_sum_is_an_int(self):
        terms = add_terms({b"": Fraction(1, 3)}, [(b"", Fraction(2, 3))])
        assert terms == {b"": 1} and type(terms[b""]) is int
        terms = add_terms({}, [(b"\x00", 3)], Fraction(2, 3))
        assert terms == {b"\x00": 2} and type(terms[b"\x00"]) is int

    def test_left_and_right_shift_the_words(self):
        terms = add_terms({}, [(b"\x01", 1), (b"", 2)], 1, b"\x00", b"\x03")
        assert terms == {b"\x00\x01\x03": 1, b"\x00\x03": 2}
        assert add_terms({}, [(b"\x01", 1)], left=b"\x02") == {b"\x02\x01": 1}
        assert add_terms({}, [(b"\x01", 1)], right=b"\x02") == {b"\x01\x02": 1}


class TestTextForm:
    def test_format_golden(self, alg2):
        p = alg2.monomial([(1, 1), (1, 2)]) - Fraction(2, 3) * alg2.gen(2, 1) + alg2.constant(1)
        assert str(p) == alg2.format_poly(p)
        assert alg2.format_poly(p) == "u[1,1]*u[1,2] - 2/3*u[2,1] + 1"

    def test_zero_and_one(self, alg2):
        assert alg2.format_poly(alg2.zero()) == "0"
        assert alg2.format_poly(alg2.one()) == "1"
        assert alg2.parse_poly("0") == alg2.zero()
        assert alg2.parse_poly("1") == alg2.one()

    def test_parse_round_trip_random(self, alg3):
        rng = random.Random(13)
        for _ in range(60):
            p = random_poly(alg3, rng)
            assert alg3.parse_poly(alg3.format_poly(p)) == p

    def test_parse_spacing_and_fractions(self, alg2):
        assert alg2.parse_poly("u[ 1 , 2 ]") == alg2.gen(1, 2)
        assert alg2.parse_poly("-1/2*u[1,1]*u[1,1] + u[1,1]") == (
            Fraction(-1, 2) * alg2.monomial([(1, 1), (1, 1)]) + alg2.gen(1, 1)
        )

    def test_parse_errors(self, alg2):
        with pytest.raises(ParseError):
            alg2.parse_poly("")
        with pytest.raises(ParseError):
            alg2.parse_poly("u[1,1] + bogus")
        with pytest.raises(ParseError):
            alg2.parse_poly("u[1,1] -")


class TestNormalRemainder:
    def test_self_reduction(self, alg2):
        rng = random.Random(17)
        for _ in range(30):
            g = random_poly(alg2, rng)
            if g.is_zero() or not g.leading_word():
                continue
            assert normal_remainder(g, [g]).is_zero()

    def test_exact_generator(self, alg2):
        g = alg2.monomial([(1, 1), (1, 1)]) - alg2.gen(1, 1)
        p = alg2.monomial([(1, 1), (1, 1)]) - alg2.gen(1, 1)
        assert normal_remainder(p, [g]).is_zero()

    def test_row_orthogonality_member(self, alg2):
        # u11*u12 is itself a generator of I_E for n=2
        gens = qsym_ideal_generators(alg2)
        p = alg2.monomial([(1, 1), (1, 2)])
        assert normal_remainder(p, gens).is_zero()

    def test_remainder_has_no_divisible_terms(self, alg2):
        rng = random.Random(19)
        gens = qsym_ideal_generators(alg2)
        lts = [g.leading_word() for g in gens]
        for _ in range(40):
            p = random_poly(alg2, rng)
            r = normal_remainder(p, gens)
            for w in r.terms:
                for lt in lts:
                    assert all(
                        w[i : i + len(lt)] != lt for i in range(len(w) - len(lt) + 1)
                    ), (w, lt)

    def test_trace_replay_reconstructs_input(self, alg2):
        rng = random.Random(23)
        gens = qsym_ideal_generators(alg2)
        for _ in range(40):
            p = random_poly(alg2, rng)
            trace = []
            r = normal_remainder(p, gens, trace=trace)
            assert replay_trace(trace, gens, r) == p
            assert_coefficient_invariant(r)

    @pytest.mark.parametrize(
        "basis, p, remainder, expected",
        [
            (["3*u[1,1] - 6"], "u[1,1]", "2", [(1, b"", 0, b"")]),
            (["-2*u[1,1] + 1"], "2*u[1,1]", "1", [(2, b"", 0, b"")]),
            (
                ["2/3*u[1,1] - 1"],
                "u[1,1]*u[1,1]",
                "9/4",
                [(1, b"", 0, b"\x00"), (Fraction(3, 2), b"", 0, b"")],
            ),
            (
                ["u[1,1]*u[1,1] - u[1,1]", "2*u[1,2] - 1", "-3*u[2,1] + u[2,2]"],
                "u[1,1]*u[1,1] + 3*u[1,1]*u[1,2] + u[2,1]",
                "5/2*u[1,1] + 1/3*u[2,2]",
                [(1, b"", 0, b""), (3, b"\x00", 1, b""), (1, b"", 2, b"")],
            ),
        ],
        ids=["3u-6", "-2u+1", "2/3u-1", "mixed"],
    )
    def test_non_monic_basis_divides_exactly(self, alg2, basis, p, remainder, expected):
        # the kernel reduces by each element's monic multiple, made exactly
        # (int / int would give a float), and a cofactor scales that multiple
        basis = [alg2.parse_poly(g) for g in basis]
        p = alg2.parse_poly(p)
        trace = []
        r = normal_remainder(p, basis, trace=trace)
        assert r == alg2.parse_poly(remainder)
        assert_coefficient_invariant(r)
        assert replay_trace(trace, basis, r) == p
        assert trace == expected

    @pytest.mark.parametrize("r", [2, 3])
    def test_shared_reducer_matches_polynomial_list(self, r):
        spec = quantum_aut_spec(uniform(r, 4), "bases")
        gb = buchberger(spec.generators, EngineConfig(time_budget=300.0))
        basis = list(gb.generators)
        for c in commutators(gb.algebra):
            trace = []
            nf = normal_remainder(c, gb.reducer, trace=trace)
            assert nf == normal_remainder(c, basis)
            assert replay_trace(trace, basis, nf) == c

    def test_zero_remainder_certifies_membership(self, alg2):
        gens = qsym_ideal_generators(alg2)
        # a two-sided combination of generators must reduce to 0
        g0, g5 = gens[0], gens[5 % len(gens)]
        p = alg2.gen(2, 1) * g0 * alg2.gen(1, 2) + g5
        trace = []
        r = normal_remainder(p, gens, trace=trace)
        assert r.is_zero()
        assert replay_trace(trace, gens, r) == p

    def test_star_ideal_self_adjoint(self, alg2, alg3):
        # the defining set is star-closed, hence so is the ideal it generates;
        # remainders against the raw (non-Groebner) list need not vanish
        for alg in (alg2, alg3):
            gens = qsym_ideal_generators(alg)
            assert {g.star() for g in gens} == set(gens)

    def test_monic_data_shape(self, alg2):
        p = alg2.monomial([(1, 1), (1, 1)]) - alg2.gen(1, 1)
        lt, tail = monic_data(p.terms)
        assert lt == alg2.word([(1, 1), (1, 1)])
        assert tail == ((alg2.word([(1, 1)]), Fraction(-1)),)
        assert type(tail[0][1]) is int
        assert data_terms(monic_data(p.terms)) == p.terms
        # a leading coefficient other than 1 is divided out exactly
        assert monic_data((3 * p).terms) == monic_data(p.terms)
        _, tail = monic_data((2 * p + 1).terms)
        assert tail == ((alg2.word([(1, 1)]), -1), (b"", Fraction(1, 2)))
        assert type(tail[0][1]) is int and type(tail[1][1]) is Fraction
        # kernel remainders may hold integral Fractions; the tail is normal
        _, tail = monic_data({b"\x00": Fraction(2), b"": Fraction(4)})
        assert tail == ((b"", 2),) and type(tail[0][1]) is int
