"""Buchberger engine: obstructions, budgets, interreduction, serialization."""

from __future__ import annotations

import hashlib
import heapq
import io
import random
from fractions import Fraction

import pytest

import qmatroid.groebner as groebner_module
from qmatroid import kernel
from qmatroid.batch import enumerate_jobs
from qmatroid.groebner import (
    EngineConfig,
    GBStatus,
    GroebnerBasis,
    InvalidObstruction,
    buchberger,
    find_obstructions,
    interreduce,
    read_gb,
    s_polynomial,
    write_gb,
)
from qmatroid.matroids import decode_revlex, encode_revlex, enumerate_all_matroids, uniform
from qmatroid.ncpoly import (
    Algebra,
    NcPolynomial,
    VariableUniverseMismatch,
    ZeroPolynomial,
    data_terms,
    monic_data,
    normal_remainder,
)
from qmatroid.quantum import AXIOM_KINDS, qsym_ideal_generators, quantum_aut_spec


@pytest.fixture(scope="module")
def alg2() -> Algebra:
    return Algebra((1, 2))


@pytest.fixture(scope="module")
def alg3() -> Algebra:
    return Algebra((1, 2, 3))


@pytest.fixture(scope="module")
def u24_generators():
    return quantum_aut_spec(uniform(2, 4), "bases").generators


@pytest.fixture(scope="module")
def u24_gb(u24_generators) -> GroebnerBasis:
    return buchberger(u24_generators, EngineConfig(time_budget=300.0))


def all_pair_obstructions(basis):
    gens = list(basis)
    for i, f in enumerate(gens):
        for j in range(i, len(gens)):
            g = gens[j]
            obs = find_obstructions(f, f) if i == j else find_obstructions(f, g)
            for ob in obs:
                yield ob, f, g


def assert_int_coefficients(polys) -> None:
    """Every coefficient of these integral polynomials is an int, not a Fraction or float."""
    for p in polys:
        assert all(type(c) is int for c in p.terms.values()), p


# every class with n <= 4 under bases and circuits
BOUNDED_CASES = [
    (encode_revlex(m).hex, n, m.rank, kind)
    for n in (1, 2, 3, 4)
    for m in enumerate_all_matroids(n, up_to_iso=True)
    for kind in ("bases", "circuits")
]
# less U(3,4) circuits and U(4,4) bases: their bounded runs take about 2 s
# each, as long as all the other cases together
BOUNDED_CASES.remove(("f", 4, 3, "circuits"))
BOUNDED_CASES.remove(("1", 4, 4, "bases"))

# the bounded runs among them whose discarded obstructions do not all resolve:
# U(0,4) and U(1,4) under both systems, U(2,4) bases and U(4,4) circuits
STAYS_TRUNCATED = {
    ("1", 4, 0, "bases", 2),
    ("1", 4, 0, "circuits", 2),
    ("f", 4, 1, "bases", 2),
    ("f", 4, 1, "circuits", 2),
    ("3f", 4, 2, "bases", 2),
    ("1", 4, 4, "circuits", 2),
}


def gb_text(gb: GroebnerBasis) -> str:
    """The .gb file text of a basis, under a fixed header."""
    buffer = io.StringIO()
    write_gb(gb, buffer, matroid_hex="0", n=0, r=0, axioms="bases")
    return buffer.getvalue()


def assert_buchberger_criterion(gb: GroebnerBasis) -> None:
    """Every S-polynomial of every pair must reduce to zero against the basis."""
    for ob, f, g in all_pair_obstructions(gb.generators):
        s = s_polynomial(ob, f, g)
        if not s.is_zero():
            assert gb.reduce(s).is_zero()


class TestObstructionSearch:
    def test_two_proper_overlaps_between_commuting_products(self, alg2):
        f = alg2.gen(1, 1) * alg2.gen(1, 2)
        g = alg2.gen(1, 2) * alg2.gen(1, 1)
        obs = find_obstructions(f, g)
        assert len(obs) == 2
        assert all(ob.f_index == 0 and ob.g_index == 1 for ob in obs)
        assert sorted(ob.degree for ob in obs) == [3, 3]

    def test_placement_identity_holds_for_every_obstruction(self, alg3):
        gens = qsym_ideal_generators(alg3)
        checked = 0
        for ob, f, g in all_pair_obstructions(gens):
            left = ob.f_left + f.leading_word() + ob.f_right
            right = ob.g_left + g.leading_word() + ob.g_right
            assert left == right
            assert ob.degree == len(left)
            checked += 1
        assert checked > 0

    def test_disjoint_leading_words_have_no_obstructions(self, alg2):
        assert find_obstructions(alg2.gen(1, 1), alg2.gen(2, 2)) == []

    def test_containments_of_short_word_inside_square(self, alg2):
        u11 = alg2.gen(1, 1)
        row = u11 + alg2.gen(1, 2) - alg2.one()  # leading word of length 1
        idem = u11 * u11 - u11
        obs = find_obstructions(row, idem)
        # the single letter sits at two positions inside the square
        assert len(obs) == 2
        assert {(ob.f_left, ob.f_right) for ob in obs} == {
            (b"", b"\x00"),
            (b"\x00", b""),
        }
        assert all(ob.g_left == b"" and ob.g_right == b"" for ob in obs)

    def test_self_pair_uses_equal_indices(self, alg2):
        u11 = alg2.gen(1, 1)
        idem = u11 * u11 - u11
        obs = find_obstructions(idem, idem)
        assert len(obs) == 1
        ob = obs[0]
        assert (ob.f_index, ob.g_index) == (0, 0)
        assert (ob.f_left, ob.f_right, ob.g_left, ob.g_right) == (
            b"",
            b"\x00",
            b"\x00",
            b"",
        )


class TestSPolynomial:
    def test_idempotent_self_overlap_cancels(self, alg2):
        u11 = alg2.gen(1, 1)
        idem = u11 * u11 - u11
        (ob,) = find_obstructions(idem, idem)
        assert s_polynomial(ob, idem, idem).is_zero()

    def test_row_sum_against_idempotent(self, alg2):
        u11, u12 = alg2.gen(1, 1), alg2.gen(1, 2)
        row = u11 + u12 - alg2.one()
        idem = u11 * u11 - u11
        results = {
            s_polynomial(ob, row, idem) for ob in find_obstructions(row, idem)
        }
        assert results == {u12 * u11, u11 * u12}

    def test_coefficients_are_normalized(self, alg2):
        u11, u12 = alg2.gen(1, 1), alg2.gen(1, 2)
        row = 3 * (u11 + u12 - alg2.one())
        idem = -2 * (u11 * u11 - u11)
        results = {
            s_polynomial(ob, row, idem) for ob in find_obstructions(row, idem)
        }
        assert results == {u12 * u11, u11 * u12}

    def test_placement_mismatch_raises(self, alg2):
        from qmatroid.groebner import Obstruction

        f = alg2.gen(1, 1) * alg2.gen(1, 2)
        g = alg2.gen(1, 2) * alg2.gen(2, 1)
        bogus = Obstruction(0, 1, b"", b"", b"", b"", 2)
        with pytest.raises(InvalidObstruction):
            s_polynomial(bogus, f, g)


class TestEngineConfig:
    def test_requires_some_budget(self):
        # the wall-clock safety net is on by default, next to a degree bound too
        assert EngineConfig() == EngineConfig(time_budget=600.0)
        assert EngineConfig(degree_bound=3).time_budget == 600.0
        assert EngineConfig(max_iterations=10).time_budget == 600.0

    def test_unbounded_needs_explicit_opt_in(self):
        config = EngineConfig(time_budget=None)
        assert config.degree_bound is None and config.time_budget is None
        assert config.max_iterations is None

    @pytest.mark.parametrize("bad", [0, -1])
    def test_degree_bound_must_be_positive(self, bad):
        with pytest.raises(ValueError):
            EngineConfig(degree_bound=bad)

    def test_iteration_cap_must_not_be_negative(self):
        with pytest.raises(ValueError):
            EngineConfig(max_iterations=-1)
        # zero iterations and a zero time budget stay valid: an immediate abort
        assert EngineConfig(max_iterations=0, time_budget=0.0).max_iterations == 0


class TestBuchberger:
    def test_single_idempotent_completes(self, alg2):
        u11 = alg2.gen(1, 1)
        gb = buchberger([u11 * u11 - u11], EngineConfig(time_budget=30.0))
        assert gb.status.is_complete
        assert gb.generators == (u11 * u11 - u11,)

    def test_rejects_no_nonzero_generators(self, alg2):
        with pytest.raises(ZeroPolynomial):
            buchberger([], EngineConfig(time_budget=30.0))
        with pytest.raises(ZeroPolynomial):
            buchberger([alg2.zero()], EngineConfig(time_budget=30.0))

    def test_rejects_mixed_algebras(self, alg2, alg3):
        with pytest.raises(VariableUniverseMismatch):
            buchberger(
                [alg2.gen(1, 1), alg3.gen(1, 1)], EngineConfig(time_budget=30.0)
            )

    def test_unit_ideal_collapses_to_one(self, alg2):
        u11 = alg2.gen(1, 1)
        gb = buchberger([u11, u11 - alg2.one()], EngineConfig(time_budget=30.0))
        assert gb.status.is_complete
        assert gb.generators == (alg2.one(),)

    def test_unit_remainder_leaves_basis_and_reducer_in_step(self, alg2):
        eng = groebner_module._Engine(EngineConfig(time_budget=None))
        eng.append(alg2.gen(1, 1).terms)
        eng.append(alg2.constant(3).terms)
        assert eng.unit and not eng.queue
        assert [d[0] for d in eng.reducer.data] == [alg2.gen(1, 1).leading_word()]
        assert len(eng.reducer.automaton) == 1

    def test_duplicate_generators_are_dropped(self, alg2):
        u11 = alg2.gen(1, 1)
        idem = u11 * u11 - u11
        once = buchberger([idem], EngineConfig(time_budget=30.0))
        twice = buchberger([idem, idem, idem], EngineConfig(time_budget=30.0))
        assert once.generators == twice.generators

    def test_two_by_two_quantum_permutations_commute(self, alg2):
        gb = buchberger(qsym_ideal_generators(alg2), EngineConfig(time_budget=60.0))
        assert gb.status.is_complete
        variables = [alg2.gen(i, j) for i in (1, 2) for j in (1, 2)]
        for x in variables:
            for y in variables:
                assert gb.reduce(x * y - y * x).is_zero()

    def test_three_by_three_magic_unitary(self, alg3):
        gens = qsym_ideal_generators(alg3)
        gb = buchberger(gens, EngineConfig(time_budget=60.0))
        assert gb.status.is_complete
        assert len(gb.generators) == 20
        assert gb.max_degree == 2
        for g in gens:
            assert gb.reduce(g).is_zero()

    def test_uniform_matroid_run(self, u24_generators, u24_gb):
        assert u24_gb.status.is_complete
        assert len(u24_gb.generators) == 78
        assert u24_gb.max_degree == 3
        assert u24_gb.iterations > 0
        assert u24_gb.wall_time > 0.0
        for g in u24_generators:
            assert u24_gb.reduce(g).is_zero()

    def test_generators_come_back_sorted_and_monic(self, u24_gb):
        keys = [
            (len(g.leading_word()), kernel.sort_key(g.leading_word()))
            for g in u24_gb.generators
        ]
        assert keys == sorted(keys)
        assert all(g.leading_coeff() == 1 for g in u24_gb.generators)
        assert_int_coefficients(u24_gb.generators)


class TestBudgets:
    def test_degree_bound_reports_truncated(self, u24_generators, u24_gb, alg3):
        bounded = buchberger(u24_generators, EngineConfig(degree_bound=2))
        assert bounded.status.kind == "truncated"
        assert bounded.status.degree == 2
        assert not bounded.status.is_complete
        # a discarded cubic obstruction leaves a remainder: 63 of 78 elements
        assert len(bounded.generators) == 63
        assert len(u24_gb.generators) == 78
        # every obstruction the bound discards on three labels reduces to
        # zero, so that run is complete and equals the unbounded one
        gens = qsym_ideal_generators(alg3)
        resolved = buchberger(gens, EngineConfig(degree_bound=2))
        assert resolved.status.is_complete
        complete = buchberger(gens, EngineConfig(time_budget=60.0))
        assert resolved.generators == complete.generators

    def test_iteration_cap_aborts(self, u24_generators):
        gb = buchberger(u24_generators, EngineConfig(max_iterations=3))
        assert gb.status.kind == "aborted"
        assert gb.status.reason == "iterations"
        assert gb.iterations == 3

    def test_exhausted_time_budget_aborts(self, u24_generators):
        gb = buchberger(u24_generators, EngineConfig(time_budget=0.0))
        assert gb.status.kind == "aborted"
        assert gb.status.reason == "time"
        assert gb.generators == ()

    def test_truncated_basis_still_certifies_membership(self, u24_generators):
        gens = u24_generators
        alg = gens[0].alg
        gb = buchberger(gens, EngineConfig(degree_bound=2))
        assert not gb.status.is_complete
        u13 = alg.gen(1, 3)
        member = alg.gen(2, 2) * gens[0] * u13 + gens[3]
        trace: list = []
        remainder = gb.reduce(member, trace)
        assert remainder.is_zero()
        rebuilt = remainder
        for q, left, idx, right in trace:
            step = (
                alg.poly({left: Fraction(1)})
                * gb.generators[idx]
                * alg.poly({right: Fraction(1)})
            )
            rebuilt = rebuilt + step * q
        assert rebuilt == member

    def test_deadline_during_the_check_leaves_truncated(self, monkeypatch):
        # every input was fed, so running out of time while the discarded
        # obstructions are checked is a truncation, never an abort; the pair
        # loop pops obstructions here, so the clock runs out after it
        gens = quantum_aut_spec(decode_revlex("4", 3, 2), "bases").generators
        config = EngineConfig(degree_bound=2)
        assert buchberger(gens, config).status.is_complete
        monkeypatch.setattr(
            groebner_module._Engine,
            "out_of_time",
            lambda self: self.iterations > 0 and not self.queue,
        )
        gb = buchberger(gens, config)
        assert gb.status == GBStatus.truncated(2)
        assert gb.iterations > 0

    @pytest.mark.parametrize("hexcode, n, r, kind", BOUNDED_CASES)
    def test_bounded_run_is_complete_exactly_when_unbounded(self, hexcode, n, r, kind):
        # at bound d_B, and at bound 2 where d_B is 3
        gens = quantum_aut_spec(decode_revlex(hexcode, n, r), kind).generators
        unbounded = buchberger(gens, EngineConfig(time_budget=None))
        d = unbounded.max_degree
        for bound in sorted({d, 2} if d == 3 else {d}):
            gb = buchberger(gens, EngineConfig(degree_bound=bound))
            assert gb.status.kind in ("complete", "truncated")
            assert gb.status.is_complete == (gb_text(gb) == gb_text(unbounded)), bound
            stays = (hexcode, n, r, kind, bound) in STAYS_TRUNCATED
            assert gb.status.is_complete != stays, bound


class TestQueueFairness:
    def test_popped_degrees_never_decrease(self, monkeypatch, alg3, u24_generators):
        import heapq

        for gens in (qsym_ideal_generators(alg3), u24_generators):
            popped: list[int] = []

            def spy(heap, _record=popped):
                item = heapq.heappop(heap)
                _record.append(item[0])
                return item

            monkeypatch.setattr(groebner_module, "heappop", spy)
            # the raw engine basis: interreduction pops no obstructions
            monkeypatch.setattr(groebner_module, "interreduce", list)
            gb = buchberger(gens, EngineConfig(time_budget=120.0))
            monkeypatch.undo()
            assert gb.status.is_complete
            assert len(popped) > 0
            assert all(a <= b for a, b in zip(popped, popped[1:]))


class TestPartnerIndex:
    """The engine pairs a new leading word only with indexed partners."""

    @staticmethod
    def entries(words, js, lt):
        return [(j, ob) for j in js for ob in kernel.overlap_obstructions(words[j], lt, False)]

    def test_indexed_partners_equal_full_scan(self, alg2):
        import random

        rng = random.Random(73)
        for _ in range(60):
            eng = groebner_module._Engine(EngineConfig(time_budget=None))
            letters = rng.randrange(2, 5)
            words: list[bytes] = []
            for _ in range(200):
                lt = bytes(rng.randrange(letters) for _ in range(rng.randrange(1, 7)))
                # a basis leading word is a normal form: it contains no earlier one
                if any(w in lt for w in words):
                    continue
                partners = eng.partners(lt)
                assert partners == sorted(set(partners))
                full = self.entries(words, range(len(words)), lt)
                assert self.entries(words, partners, lt) == full
                # and no partner is visited for nothing
                assert len(partners) == len({j for j, _ in full})
                eng.index(lt, len(words))
                words.append(lt)

    def test_run_matches_full_scan_engine(self, monkeypatch, alg3, u24_generators):
        # compare the raw engine bases, before interreduction
        monkeypatch.setattr(groebner_module, "interreduce", list)
        for gens, bound in ((qsym_ideal_generators(alg3), None), (u24_generators, 4)):
            config = EngineConfig(degree_bound=bound, time_budget=120.0)
            filtered = buchberger(gens, config)
            with monkeypatch.context() as m:
                m.setattr(
                    groebner_module._Engine,
                    "partners",
                    lambda self, lt: list(range(len(self.reducer.data))),
                )
                full = buchberger(gens, config)
            assert filtered.generators == full.generators
            assert filtered.status == full.status
            assert filtered.iterations == full.iterations


class TestInputScreen:
    """Monomial inputs with a factor known to lie in the ideal are not fed."""

    @staticmethod
    def kernel_inputs(monkeypatch, gens, config):
        seen: list[frozenset] = []
        reduce_terms = kernel.reduce_terms

        def spy(terms, *args):
            seen.append(frozenset(terms))
            return reduce_terms(terms, *args)

        monkeypatch.setattr(kernel, "reduce_terms", spy)
        gb = buchberger(gens, config)
        monkeypatch.undo()
        return gb, seen

    def test_known_factor_never_reaches_kernel(self, monkeypatch, alg2):
        x, y, z = alg2.gen(1, 1), alg2.gen(1, 2), alg2.gen(2, 1)
        w = x * y
        inside = z * w * z  # contains the earlier input w
        outside = z * y * x  # contains no earlier input word
        config = EngineConfig(time_budget=60.0)
        gb, seen = self.kernel_inputs(monkeypatch, [inside, outside, w], config)
        assert gb.status.is_complete
        assert frozenset(w.terms) in seen
        assert frozenset(outside.terms) in seen
        assert frozenset(inside.terms) not in seen
        # above the degree bound an input is fed as before
        _, seen = self.kernel_inputs(monkeypatch, [inside, w], EngineConfig(degree_bound=2))
        assert frozenset(inside.terms) in seen

    def test_tail_free_basis_element_screens(self, monkeypatch, alg2):
        x, y, z = alg2.gen(1, 1), alg2.gen(1, 2), alg2.gen(2, 1)
        # z is fed first and turns x*y + z into the tail-free element x*y
        inside = alg2.gen(2, 2) * x * y
        config = EngineConfig(time_budget=60.0)
        gb, seen = self.kernel_inputs(monkeypatch, [x * y + z, z, inside], config)
        assert gb.status.is_complete
        assert frozenset(inside.terms) not in seen
        assert gb.reduce(inside).is_zero()

    def test_every_input_reduces_to_zero(self):
        for n in (1, 2, 3):
            for m in enumerate_all_matroids(n, up_to_iso=True):
                for kind in AXIOM_KINDS:
                    spec = quantum_aut_spec(m, kind)
                    gb = buchberger(spec.generators, EngineConfig(time_budget=60.0))
                    assert gb.status.is_complete
                    for g in spec.generators:
                        assert gb.reduce(g).is_zero(), (m, kind, g)

    def test_run_matches_unscreened_engine(self, monkeypatch, u24_generators):
        u34_circuits = quantum_aut_spec(uniform(3, 4), "circuits").generators
        for gens in (u24_generators, u34_circuits):
            config = EngineConfig(time_budget=120.0)
            screened = buchberger(gens, config)
            with monkeypatch.context() as m:
                m.setattr(groebner_module._Engine, "screened", lambda self, g: False)
                full = buchberger(gens, config)
            assert screened.status.is_complete
            assert screened.generators == full.generators
            assert screened.status == full.status

    def test_truncated_runs_keep_their_basis(self, monkeypatch, alg2):
        # degree-bounded runs on small random ideals: the screen may only
        # turn a truncated status into complete, never change the basis
        rng = random.Random(3)
        letters = [alg2.gen(i, j) for i in (1, 2) for j in (1, 2)]

        def word(lo, hi):
            p = alg2.one()
            for _ in range(rng.randint(lo, hi)):
                p = p * rng.choice(letters)
            return p

        for _ in range(600):
            gens = [word(1, 2) - rng.choice((1, 2)) * word(0, 2) for _ in range(2)]
            factors = [word(1, 2) for _ in range(2)]
            gens += factors
            gens += [word(0, 2) * rng.choice(factors) * word(0, 2) for _ in range(4)]
            gens = [g for g in gens if not g.is_zero()]
            config = EngineConfig(degree_bound=rng.choice((2, 3, 4)), max_iterations=300)
            screened = buchberger(gens, config)
            with monkeypatch.context() as m:
                m.setattr(groebner_module._Engine, "screened", lambda self, g: False)
                full = buchberger(gens, config)
            if "aborted" in (screened.status.kind, full.status.kind):
                continue
            assert screened.generators == full.generators, gens
            assert screened.status == full.status or screened.status.is_complete
            # a complete claim survives exhaustive reverification
            for gb in (screened, full):
                if gb.status.is_complete:
                    assert_buchberger_criterion(gb)


class TestCompleteness:
    def test_magic_unitary_bases_pass_exhaustive_reverification(self, alg2, alg3):
        for alg in (alg2, alg3):
            gb = buchberger(
                qsym_ideal_generators(alg), EngineConfig(time_budget=60.0)
            )
            assert gb.status.is_complete
            assert_buchberger_criterion(gb)

    def test_small_matroid_ideals_pass_exhaustive_reverification(self):
        for matroid, axioms in [
            (uniform(1, 3), "bases"),
            (uniform(2, 3), "circuits"),
        ]:
            spec = quantum_aut_spec(matroid, axioms)
            gb = buchberger(spec.generators, EngineConfig(time_budget=120.0))
            assert gb.status.is_complete
            assert_buchberger_criterion(gb)


def random_poly(rng, alg: Algebra) -> NcPolynomial:
    """A few terms on words of up to four letters, with small rational coefficients.

    Words use the first three variables only, so leading words often divide
    tail words.  The first word has a letter, so no input is a constant.
    """
    return alg.poly(
        {
            bytes(rng.randrange(3) for _ in range(rng.randrange(i > 0, 5))): Fraction(
                rng.choice((-3, -2, -1, 1, 2, 5)), rng.choice((1, 1, 2))
            )
            for i in range(rng.randrange(1, 5))
        }
    )


def in_place_interreduce(polys):
    """Reference interreduction, memo-free, with the tails reduced in place.

    Phase one keeps heads as interreduce does, but rescans every kept word
    for eviction.  Phase two reduces each tail in ascending leading-word order
    against all kept elements, in acceptance order, the ones already done
    with their reduced tails swapped in.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    alg = polys[0].alg
    heap = [(kernel.sort_key(p.leading_word()), seq, p.terms) for seq, p in enumerate(polys)]
    heapq.heapify(heap)
    seq = len(heap)
    kept = []
    while heap:
        _, _, terms = heapq.heappop(heap)
        rem = kernel.reduce_terms(terms, kernel.Reducer(kept), trace=[])
        if not rem:
            continue
        xdata = monic_data(rem)
        if not xdata[0]:
            return [alg.one()]
        for d in [d for d in kept if xdata[0] in d[0]]:
            kept.remove(d)
            heapq.heappush(heap, (kernel.sort_key(d[0]), seq, data_terms(d)))
            seq += 1
        kept.append(xdata)
    order = sorted(range(len(kept)), key=lambda i: kernel.sort_key(kept[i][0]))
    for i in order:
        lt, tail = kept[i]
        reduced = kernel.reduce_terms(dict(tail), kernel.Reducer(kept), trace=[])
        kept[i] = monic_data({lt: 1, **reduced})
    return [NcPolynomial(alg, data_terms(kept[i])) for i in order]


class TestInterreduce:
    def test_empty_input(self):
        assert interreduce([]) == []

    def test_output_is_monic(self, alg2):
        (only,) = interreduce([2 * alg2.gen(1, 1)])
        assert only == alg2.gen(1, 1)

    def test_constant_collapses_to_one(self, alg2):
        assert interreduce([alg2.constant(5)]) == [alg2.one()]

    def test_eviction_cascade(self, alg2):
        # the cube reduces to a single letter, which then evicts the square
        u11 = alg2.gen(1, 1)
        assert interreduce([u11 * u11 - u11, u11 * u11 * u11]) == [u11]

    @staticmethod
    def automata_built(monkeypatch) -> list:
        """The kernel.Automaton instances built from here on, in order."""
        built = []

        class Spy(kernel.Automaton):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(kernel, "Automaton", Spy)
        return built

    def test_eviction_of_an_earlier_kept_word(self, monkeypatch, alg3):
        # u11*u12*u13 + u12 reduces to u12, whose word divides the kept
        # u11*u12 (but not u13*u13): the eviction scan runs and starts one
        # reducer beyond the initial one; phase two builds a third
        built = self.automata_built(monkeypatch)
        a, b, c = alg3.gen(1, 1), alg3.gen(1, 2), alg3.gen(1, 3)
        reduced = interreduce([a * b, c * c, a * b * c + b])
        assert reduced == [b, c * c]
        assert len(built) == 3

    def test_ascending_input_skips_phase_two(self, monkeypatch, alg3):
        # the remainders come in ascending leading-word order, the last one
        # reduced through both earlier elements, so phase one's reducer is
        # the output and no second reducer is built
        built = self.automata_built(monkeypatch)
        a, b, c = alg3.gen(1, 1), alg3.gen(1, 2), alg3.gen(1, 3)
        polys = [a * b * c * c + 3 * b * c * c - c, a * b - c, c * c - a]
        reduced = interreduce(polys)
        assert len(built) == 1
        assert [alg3.format_poly(p) for p in reduced] == [
            "u[1,3]*u[1,3] - u[1,1]",
            "u[1,1]*u[1,2] - u[1,3]",
            "u[1,2]*u[1,1] + 1/3*u[1,1]*u[1,3] - 1/3*u[1,3]",
        ]
        assert reduced == in_place_interreduce(polys)

    def test_non_groebner_input_keeps_two_phase_output(self, alg2):
        # not a Groebner basis, so normal forms depend on the reduction path:
        # a single pass that requeues kept elements whose tails hold a newly
        # kept leading word loses tail terms of the third element
        given = [
            "2*u[1,1]*u[2,2]*u[2,2]*u[2,1]*u[2,1] - 5*u[1,2]*u[2,2]*u[1,1]*u[2,1]"
            " + u[2,1]*u[2,1]*u[2,2]*u[2,2] + 2*u[1,2]",
            "2*u[2,1]*u[2,2] - 5*u[2,2]*u[2,2] - u[2,1] + 1",
            "u[2,1]*u[2,2] - 5",
        ]
        expected = [
            "u[2,2]*u[2,2] + 1/5*u[2,1] - 11/5",
            "u[2,1]*u[2,2] - 5",
            "u[1,2]*u[2,2]*u[1,1]*u[2,1] + 2/25*u[1,1]*u[2,1]*u[2,1]*u[2,1]"
            " - 22/25*u[1,1]*u[2,1]*u[2,1] - 1/20*u[2,1]*u[2,1] - 2/5*u[1,2]"
            " + 11/20*u[2,1] - 5/4*u[2,2] - 5",
        ]
        reduced = interreduce([alg2.parse_poly(s) for s in given])
        assert [alg2.format_poly(p) for p in reduced] == expected

    def test_rejects_mixed_algebras(self, alg2, alg3):
        u11, u12, u22 = alg2.gen(1, 1), alg2.gen(1, 2), alg2.gen(2, 2)
        with pytest.raises(VariableUniverseMismatch):
            interreduce([u11 * u22 - u12, alg3.gen(2, 1)])

    def test_equals_in_place_reference_on_random_inputs(self, alg2, alg3):
        rng = random.Random(61)
        for k in range(300):
            alg = alg2 if k % 2 else alg3
            polys = [random_poly(rng, alg) for _ in range(rng.randrange(3, 7))]
            expected = [alg.format_poly(p) for p in in_place_interreduce(polys)]
            assert [alg.format_poly(p) for p in interreduce(polys)] == expected, polys

    def test_no_leading_word_divides_another(self, alg3):
        reduced = interreduce(list(qsym_ideal_generators(alg3)))
        words = [p.leading_word() for p in reduced]
        for i, w in enumerate(words):
            for j, v in enumerate(words):
                if i != j:
                    assert w not in v

    def test_tails_are_fully_reduced(self, alg3):
        reduced = interreduce(list(qsym_ideal_generators(alg3)))
        words = [p.leading_word() for p in reduced]
        for i, p in enumerate(reduced):
            tail = [w for w, _ in p.sorted_terms()][1:]
            for w in tail:
                assert all(lt not in w for lt in words)

    def test_idempotent_operation(self, alg3):
        once = interreduce(list(qsym_ideal_generators(alg3)))
        assert interreduce(once) == once

    def test_inputs_reduce_to_zero_against_output(self, alg3):
        gens = list(qsym_ideal_generators(alg3))
        reduced = interreduce(gens)
        for g in gens:
            assert normal_remainder(g, reduced).is_zero()


class TestStatusText:
    def test_render_parse_round_trip(self):
        for status in [
            GBStatus.complete(),
            GBStatus.truncated(4),
            GBStatus.aborted("time"),
            GBStatus.aborted("iterations"),
        ]:
            assert GBStatus.parse(status.render()) == status

    def test_render_forms(self):
        assert GBStatus.complete().render() == "complete"
        assert GBStatus.truncated(7).render() == "truncated(7)"
        assert GBStatus.aborted("time").render() == "aborted(time)"

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            GBStatus.parse("finished")


class TestSerialization:
    def test_round_trip_through_stream(self, u24_gb):
        buffer = io.StringIO()
        write_gb(u24_gb, buffer, matroid_hex="3f", n=4, r=2, axioms="bases")
        buffer.seek(0)
        meta, loaded = read_gb(buffer)
        assert meta == {
            "matroid": "3f",
            "n": 4,
            "r": 2,
            "axioms": "bases",
            "degree": 3,
        }
        assert loaded.status == u24_gb.status
        assert set(loaded.generators) == set(u24_gb.generators)
        assert_int_coefficients(loaded.generators)

    def test_header_line_format(self, u24_gb):
        buffer = io.StringIO()
        write_gb(u24_gb, buffer, matroid_hex="3f", n=4, r=2, axioms="bases")
        header = buffer.getvalue().splitlines()[0]
        assert header == (
            "matroid=3f n=4 r=2 axioms=bases order=degrevlex "
            "status=complete degree=3"
        )

    def test_other_order_is_rejected(self, u24_gb):
        buffer = io.StringIO()
        write_gb(u24_gb, buffer, matroid_hex="3f", n=4, r=2, axioms="bases")
        text = buffer.getvalue()
        with pytest.raises(ValueError, match="order=deglex"):
            read_gb(io.StringIO(text.replace("order=degrevlex", "order=deglex", 1)))
        # a header without an order field still loads
        _, loaded = read_gb(io.StringIO(text.replace(" order=degrevlex", "", 1)))
        assert set(loaded.generators) == set(u24_gb.generators)

    @pytest.mark.parametrize(
        "key", ["empty file", "matroid", "n", "r", "axioms", "status", "degree"]
    )
    def test_missing_header_key_is_rejected(self, key):
        header = "matroid=3 n=2 r=1 axioms=bases order=degrevlex status=complete degree=0"
        if key == "empty file":
            text, missing = "", "matroid, n, r, axioms, status, degree"
        else:
            text = " ".join(f for f in header.split() if not f.startswith(f"{key}=")) + "\n"
            missing = key
        with pytest.raises(ValueError, match=f"lacks {missing}$"):
            read_gb(io.StringIO(text))

    @pytest.mark.parametrize("claimed, actual", [(9, 1), (0, 1), (1, 0)])
    def test_header_degree_must_match_the_generators(self, claimed, actual):
        body = "u[1,1] - 1\n" if actual else ""
        text = (
            "matroid=3 n=2 r=1 axioms=bases order=degrevlex status=complete "
            f"degree={claimed}\n{body}"
        )
        with pytest.raises(ValueError, match=f"degree={claimed} .* degree {actual}$"):
            read_gb(io.StringIO(text))

    def test_round_trip_through_path(self, tmp_path, alg2):
        gb = buchberger(qsym_ideal_generators(alg2), EngineConfig(time_budget=30.0))
        path = str(tmp_path / "basis.gb")
        write_gb(gb, path, matroid_hex="3", n=2, r=1, axioms="independent")
        meta, loaded = read_gb(path)
        assert meta["matroid"] == "3"
        assert meta["axioms"] == "independent"
        assert set(loaded.generators) == set(gb.generators)

    def test_empty_aborted_basis_round_trips(self, u24_generators):
        gb = buchberger(u24_generators, EngineConfig(time_budget=0.0))
        assert gb.generators == () and gb.max_degree == 0
        buffer = io.StringIO()
        write_gb(gb, buffer, matroid_hex="3f", n=4, r=2, axioms="bases")
        assert buffer.getvalue() == (
            "matroid=3f n=4 r=2 axioms=bases order=degrevlex "
            "status=aborted(time) degree=0\n"
        )
        buffer.seek(0)
        meta, loaded = read_gb(buffer)
        assert meta["degree"] == 0
        assert loaded.status == GBStatus.aborted("time")
        assert loaded.generators == ()

    def test_truncated_status_survives_round_trip(self, u24_generators):
        gb = buchberger(u24_generators, EngineConfig(degree_bound=2))
        buffer = io.StringIO()
        write_gb(gb, buffer, matroid_hex="3f", n=4, r=2, axioms="bases")
        buffer.seek(0)
        _, loaded = read_gb(buffer)
        assert loaded.status == GBStatus.truncated(2)


# SHA-256 of the write_gb text of every enumerate_jobs(4) class under bases
# and circuits without a degree bound, and of U(2,4) bases with degree bound
# 2 (the last key field).  The .gb files must stay byte-identical across
# engine changes, so a new digest here is a changed output.
GB_DIGESTS = {
    ("3", 2, 1, "bases", None): "22778aa0d51b681b671db8b66f13988bbb833ff1890ba239695f9567e5ef51be",
    ("3", 2, 1, "circuits", None): "4277515e8eb2217c0ae09bec24a143814ed7f33b1456aa2080fe21575eea5975",
    ("1", 2, 1, "bases", None): "46468a1b997d4075e6505f40de91214bc04ff40ee076dcca2200413f5c42e786",
    ("1", 2, 1, "circuits", None): "906875b0c305a0aca8b58fdb45bb80c3f327c7526b6eb527f78115d10be5ce26",
    ("7", 3, 1, "bases", None): "f382e5032856f1322581bac577e1fc8aef44d2a6629ee86c30c592675899b63f",
    ("7", 3, 1, "circuits", None): "4ba3c68f9a3968e6888620ac286fdcbf226b44e7480ae0208d76b452e42b66a1",
    ("1", 3, 1, "bases", None): "cda0802900c02fbdaf33d19ff9129a16e9be9bb9bce267dc63546d357fec4395",
    ("1", 3, 1, "circuits", None): "eae7a1845302cc0d5524e2c7fcb07e20439d54f50e647d164c9ee02a8b27c922",
    ("3", 3, 1, "bases", None): "ad37247ca100a5cc2ce4cdb757ca08720f97a43e4f5d1bc917308fa83dd94e40",
    ("3", 3, 1, "circuits", None): "92d4521800ac73e11e95583271e13b0c04bcaa081cc0aff4de11215f544df45b",
    ("1", 3, 2, "bases", None): "9e8fa3a1f607432f68f4056997c91e29b4af7f4c0b282f86f5a192b959ace8ab",
    ("1", 3, 2, "circuits", None): "4a69cca51d983fd5f9025ed0a25daa0f509fb0dc1b747bfff28f75f98915816b",
    ("3", 3, 2, "bases", None): "e267f5543952f966e90b51041e8d1deb43687e76216139212bb9f4872802cb92",
    ("3", 3, 2, "circuits", None): "2004fca24441de424df310773f01ef6e0cef6c1777ea8d5a330198069c49b4b2",
    ("7", 3, 2, "bases", None): "66325f4c612b60baa7ac74032a2f42785c94329766fd9a5c8b5c4da77578ce5b",
    ("7", 3, 2, "circuits", None): "1b65595b635d2434b8f895d379ee6bd883079324116a5788cbec475ca042c58d",
    ("f", 4, 1, "bases", None): "1c21ebab221e322c66930f61b847cc6cf258664abbc0e28c287394e998f1c31c",
    ("f", 4, 1, "circuits", None): "70b3f76ec0692c8d0005357561a5866cf1700d0964092d8020e3ac5e61156d3a",
    ("1", 4, 1, "bases", None): "dd3c676b4a8d2e327e52b66b627e29b96fa2699eded60e7093e3bece2e2b8118",
    ("1", 4, 1, "circuits", None): "5ce5485774291bd0ffb044de3c1feb39329a3322a517ac9bde0aebc3b6fa6e95",
    ("7", 4, 1, "bases", None): "fc8d7c4c51e043aa0da0190f0fb6ae9e3a767354a1c32952b96d0f8d653f4d91",
    ("7", 4, 1, "circuits", None): "9e843cacee40134a755d519e712c9f87a4bde59de3aa7f4e805e563714125600",
    ("3", 4, 1, "bases", None): "c6512f700a88f8790a968c43a3ebe48a37359e1734aee10408a60195fd0ed60c",
    ("3", 4, 1, "circuits", None): "85027401c2d34b8cd07d3bf3f35d0c3f41f4c40198a6917ca5ace54a66963bed",
    ("01", 4, 2, "bases", None): "fa8884df66a18363236a1a1563a8505130f32d3cf346f47afc5747d136ac38db",
    ("01", 4, 2, "circuits", None): "7a0ecdc503f89d70a8d0313fa380a25cda1195655e0b5139e8b6874a0e0d014a",
    ("03", 4, 2, "bases", None): "41f2e197095018db60ad0b27b8c82f5dd0e79ac9b0ec1fffbe447e9df0d3547e",
    ("03", 4, 2, "circuits", None): "bfe04da320d7b8accc1c33087d4184f515e099f98a35b9f46d94da7cc03ad98c",
    ("07", 4, 2, "bases", None): "79e795015787fd1d93b5dd63d0acf02736df66e3ee64983ead7ee7a0f7a849fb",
    ("07", 4, 2, "circuits", None): "7f74845f0a47042e1ec05bd8c4be908de8e751ee485d4ceae311cb68ae8ef30d",
    ("0b", 4, 2, "bases", None): "680d8bf4493672dae6165aa7223bb4bb1f97c8e39849b37fefdbfbaff7a5c22b",
    ("0b", 4, 2, "circuits", None): "959ed52f6ab3b8249845111e7dc959956bb101a763301fb0602ca6376af7e3ff",
    ("1e", 4, 2, "bases", None): "636e041ab396d2f00336d9a6e8f90eea1f5be0226d65a0d6f4a13f34f7291762",
    ("1e", 4, 2, "circuits", None): "ec10b640f8b03a48e202e4459ff0bca8462c05edb5dd9ecd0d127fbafd1a25ec",
    ("3f", 4, 2, "bases", None): "6758408f8f7102c16c2cee9a81c19b3825a30bb627c9804682037916f8da6e8e",
    ("3f", 4, 2, "circuits", None): "1d76345a8186f89d646576899b8ef0ba12101232af5780c453125263b0621c42",
    ("1f", 4, 2, "bases", None): "88508df8c89a7701be234e6fa3339baf4569da94dcaab1bc0e0b97d179a26f4f",
    ("1f", 4, 2, "circuits", None): "1d0c87315744abf7b877334a6433e9de622f419cee42ad3dc274b829b44ca9b0",
    ("1", 4, 3, "bases", None): "98d40c878ed3176bb1cd2b59f0719de71be2c94635c54433545896dbece0e9c6",
    ("1", 4, 3, "circuits", None): "0dcd99fb6999b2f6026b9a13272dd1c64867ac424256d466ac2eba2054b79c39",
    ("3", 4, 3, "bases", None): "c2ccc13f0a75cb497202026ba4961f82d9f4edc72968a2c95f815e1bd91406e3",
    ("3", 4, 3, "circuits", None): "81dffe23818ddc1482eaaa85f7d7de905162e85691157a043410726b855d32e3",
    ("7", 4, 3, "bases", None): "34dcf6ba0e52e8ac3a7b674b90f42cf20c4294ad72d3feb4a1997b8867319151",
    ("7", 4, 3, "circuits", None): "9ac27f6a6634367f6a3162df1644fe48cd403b727aaa9ce0c09046b89093e4ab",
    ("f", 4, 3, "bases", None): "03c0d3945f885b6dbe29fdd458375bd94af2a4ec77f67f1b19cc8beda2e3a7a6",
    ("f", 4, 3, "circuits", None): "d05eebb51430c909117449acb12d8413f4d7218b06634d75246ad832d950c7c1",
    ("3f", 4, 2, "bases", 2): "748bc3e53f1afa443f65fef1d1316c265b023a38fa2b9d759831eaece0c4aa51",
}


class TestGoldenFiles:
    def test_gb_texts_match_recorded_digests(self):
        keys = [
            (*job, axioms, None) for job in enumerate_jobs(4) for axioms in ("bases", "circuits")
        ]
        keys.append(("3f", 4, 2, "bases", 2))
        digests = {}
        for hexcode, n, r, axioms, bound in keys:
            spec = quantum_aut_spec(decode_revlex(hexcode, n, r), axioms)
            gb = buchberger(spec.generators, EngineConfig(degree_bound=bound))
            expected = GBStatus.complete() if bound is None else GBStatus.truncated(bound)
            assert gb.status == expected, (hexcode, n, r, axioms)
            buffer = io.StringIO()
            write_gb(gb, buffer, matroid_hex=hexcode, n=n, r=r, axioms=axioms)
            digest = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
            digests[hexcode, n, r, axioms, bound] = digest
        assert digests == GB_DIGESTS


class TestBasisInterface:
    def test_reducer_is_built_once(self, u24_gb):
        reducer = u24_gb.reducer
        assert u24_gb.reducer is reducer
        assert [d[0] for d in reducer.data] == [g.leading_word() for g in u24_gb.generators]
        assert all(len(d) == 2 for d in reducer.data)

    def test_reduce_rejects_other_algebra(self, u24_gb, alg3):
        with pytest.raises(VariableUniverseMismatch):
            u24_gb.reduce(alg3.gen(1, 2))

    def test_reduce_accepts_trace(self, u24_gb, u24_generators):
        trace: list = []
        remainder = u24_gb.reduce(u24_generators[0], trace)
        assert remainder.is_zero()
        assert len(trace) > 0

    def test_remainders_keep_int_coefficients(self, u24_gb):
        alg = u24_gb.algebra
        u, v = alg.gen(1, 2), alg.gen(2, 1)
        remainders = [
            normal_remainder(p, u24_gb.generators)
            for p in (u * v - v * u, u * v * u - 2 * v, u + v - alg.one())
        ]
        assert any(not r.is_zero() for r in remainders)
        assert_int_coefficients(remainders)
