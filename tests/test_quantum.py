"""Quantum automorphism ideals, commutativity decisions, evaluation maps."""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

import pytest

import qmatroid.quantum as quantum_module
from qmatroid import kernel
from qmatroid.autgroup import automorphism_group
from qmatroid.groebner import EngineConfig, buchberger
from qmatroid.matroids import TooLarge, decode_revlex, enumerate_all_matroids, uniform
from qmatroid.ncpoly import Algebra, VariableUniverseMismatch, normal_remainder
from qmatroid.quantum import (
    AXIOM_KINDS,
    HasLoops,
    InternalInconsistency,
    LabelOverlap,
    WrongRank,
    commutators,
    decide_commutativity,
    eval_at_permutation,
    free_product_ideal,
    graph_qaut_ideal,
    qsym_ideal_generators,
    quantum_aut_spec,
    quantum_symmetric_spec,
    theorem_shortcuts,
    tuple_ideal_generators,
    tuple_set,
)


class TestMagicUnitaryGenerators:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_generator_count(self, n):
        alg = Algebra(tuple(range(1, n + 1)))
        gens = qsym_ideal_generators(alg)
        assert len(gens) == n * n + 2 * n * n * (n - 1) + 2 * n

    def test_single_label_forces_the_identity(self):
        alg = Algebra((1,))
        gb = buchberger(qsym_ideal_generators(alg), EngineConfig(time_budget=30.0))
        assert gb.status.is_complete
        assert gb.generators == (alg.gen(1, 1) - alg.one(),)

    def test_generator_set_is_star_closed(self):
        alg = Algebra((1, 2, 3))
        gens = {frozenset(g.terms.items()) for g in qsym_ideal_generators(alg)}
        assert {frozenset(g.star().terms.items()) for g in qsym_ideal_generators(alg)} == gens

    def test_kills_exactly_permutation_matrices(self):
        alg = Algebra((1, 2, 3))
        gens = qsym_ideal_generators(alg)
        for images in permutations((1, 2, 3)):
            sigma = dict(zip((1, 2, 3), images))
            assert all(eval_at_permutation(g, sigma) == 0 for g in gens)


class TestTupleSets:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            tuple_set(uniform(1, 2), "basis")
        assert set(AXIOM_KINDS) == {"bases", "circuits", "flats", "independent"}

    def test_independent_tuples(self):
        ts = tuple_set(uniform(2, 3), "independent")
        assert {k: len(v) for k, v in ts.items()} == {1: 3, 2: 6}
        assert (1, 2) in ts[2] and (2, 1) in ts[2]
        assert (1, 1) not in ts[2]  # repeats never appear

    def test_basis_tuples(self):
        ts = tuple_set(uniform(2, 3), "bases")
        assert sorted(ts) == [2]
        assert len(ts[2]) == 6

    def test_rank_zero_has_no_basis_tuples(self):
        assert tuple_set(uniform(0, 2), "bases") == {}

    def test_circuit_tuples_include_diagonal_support(self):
        ts = tuple_set(uniform(1, 2), "circuits")
        assert ts == {2: frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})}

    def test_loops_become_length_one_circuits(self):
        m = decode_revlex("1", 2, 1)  # bases {{2}}, loop 1
        ts = tuple_set(m, "circuits")
        assert ts == {1: frozenset({(1,)}), 2: frozenset({(2, 2)})}

    def test_flat_tuples_skip_the_empty_flat(self):
        ts = tuple_set(uniform(2, 3), "flats")
        assert {k: len(v) for k, v in ts.items()} == {1: 3, 3: 6}

    @pytest.mark.parametrize("kind", AXIOM_KINDS)
    def test_every_small_class_matches_the_definitions(self, kind):
        # the module docstring's definitions, tuple by tuple through rank_of;
        # rank 0 and loops included
        checked = 0
        for n in range(1, 5):
            for m in enumerate_all_matroids(n, up_to_iso=True):
                ground = m.ground.elements
                want: dict[int, set] = {}
                for k in range(1, max(n, 2) + 1):  # diagonal pairs need k = 2
                    for t in product(ground, repeat=k):
                        s = set(t)
                        r = m.rank_of(s)
                        if len(s) < k:
                            member = kind == "circuits" and k == 2 and r == 1
                        elif kind == "independent":
                            member = r == k
                        elif kind == "bases":
                            member = r == k == m.rank
                        elif kind == "flats":
                            member = all(m.rank_of(s | {x}) > r for x in ground if x not in s)
                        else:
                            member = r == k - 1 and all(m.rank_of(s - {x}) == k - 1 for x in s)
                        if member:
                            want.setdefault(k, set()).add(t)
                ts = tuple_set(m, kind)
                assert type(ts) is dict and all(type(f) is frozenset for f in ts.values()), m
                assert ts == {k: frozenset(v) for k, v in want.items()}, m
                checked += 1
        assert checked == 31


class TestMismatchGenerators:
    def test_count_formula(self):
        alg = Algebra((1, 2, 3))
        gens = tuple_ideal_generators(alg, tuple_set(uniform(2, 3), "bases"))
        # 2 * 6 * (9 - 6) ordered mismatches at length two
        assert len(gens) == 36

    def test_each_generator_is_a_mismatch_monomial(self):
        alg = Algebra((1, 2, 3))
        ts = tuple_set(uniform(2, 3), "bases")
        for g in tuple_ideal_generators(alg, ts):
            ((word, coeff),) = g.terms.items()
            assert coeff == 1
            letters = alg.letters(word)
            rows = tuple(v.row for v in letters)
            cols = tuple(v.col for v in letters)
            assert (rows in ts[2]) != (cols in ts[2])

    def test_label_outside_the_algebra_is_refused(self):
        alg = Algebra((1, 2, 3))
        with pytest.raises(VariableUniverseMismatch, match="label 4 not in"):
            tuple_ideal_generators(alg, tuple_set(uniform(2, 4), "bases"))

    def test_generator_cap(self):
        alg = Algebra(tuple(range(1, 9)))
        with pytest.raises(TooLarge):
            tuple_ideal_generators(alg, tuple_set(uniform(4, 8), "independent"))

    def test_rank_one_uniform_adds_nothing(self):
        # every singleton is a basis and every pair is a circuit, so both
        # axiom systems present the plain quantum symmetric group
        m = uniform(1, 4)
        qsym = {
            frozenset(g.terms.items())
            for g in qsym_ideal_generators(Algebra((1, 2, 3, 4)))
        }
        for axioms in ("bases", "circuits"):
            spec = quantum_aut_spec(m, axioms)
            assert {frozenset(g.terms.items()) for g in spec.generators} == qsym


class TestSpecConstruction:
    def test_aut_spec_records_context(self):
        m = uniform(2, 4)
        spec = quantum_aut_spec(m, "bases")
        assert spec.matroid is m
        assert spec.axioms == "bases"
        assert spec.algebra.labels == (1, 2, 3, 4)
        assert spec.description == "qaut[bases]"

    def test_symmetric_spec_sorts_labels(self):
        spec = quantum_symmetric_spec([3, 1, 2])
        assert spec.algebra.labels == (1, 2, 3)
        assert spec.matroid is None

    def test_commutator_census(self):
        alg = Algebra((1, 2))
        pairs = commutators(alg)
        assert len(pairs) == 6  # 4 choose 2
        for c in pairs:
            assert c.star() == -c  # self-adjoint generators make commutators skew
        u, v = alg.gen(1, 1), alg.gen(2, 2)
        assert u * v - v * u in pairs


class TestTheoremShortcuts:
    def test_flats_shortcut_always_fires(self):
        for m in [uniform(2, 4), decode_revlex("01", 4, 2)]:
            sc = theorem_shortcuts(m, "flats")
            assert sc is not None
            assert sc.verdict == "commutative"
            assert sc.method == "theorem-shortcut:flats"

    def test_girth_shortcut_needs_girth_four(self):
        assert theorem_shortcuts(uniform(3, 4), "bases") is not None
        assert theorem_shortcuts(uniform(3, 4), "independent") is not None
        assert theorem_shortcuts(uniform(2, 4), "bases") is None
        assert theorem_shortcuts(uniform(3, 4), "circuits") is None

    def test_decide_commutativity_uses_shortcuts_only_when_asked(self):
        spec = quantum_aut_spec(uniform(3, 4), "bases")
        fast = decide_commutativity(spec)
        assert fast.method == "theorem-shortcut:girth"
        assert fast.gb is None
        assert fast.status == "shortcut"
        slow = decide_commutativity(
            spec, EngineConfig(time_budget=120.0), shortcuts=False
        )
        assert slow.method == "groebner"
        assert slow.status == "complete"
        assert slow.verdict == fast.verdict == "commutative"


class TestDecideCommutativity:
    def test_quantum_symmetric_group_small_vs_four(self):
        small = decide_commutativity(
            quantum_symmetric_spec((1, 2, 3)), EngineConfig(time_budget=60.0)
        )
        assert small.verdict == "commutative"
        assert small.witness is None
        big = decide_commutativity(
            quantum_symmetric_spec((1, 2, 3, 4)), EngineConfig(time_budget=300.0)
        )
        assert big.verdict == "noncommutative"
        assert big.gb.status.is_complete

    def test_noncommutative_witness_is_a_nonreducible_commutator(self):
        # no theorem covers U(2,4) bases, so the verdict passes its cross-check
        spec = quantum_aut_spec(uniform(2, 4), "bases")
        v = decide_commutativity(spec, EngineConfig(time_budget=300.0), shortcuts=False)
        assert v.verdict == "noncommutative"
        commutator, normal_form = v.witness
        assert not normal_form.is_zero()
        assert normal_remainder(commutator, v.gb.generators) == normal_form

    def test_circuit_and_basis_axioms_can_disagree(self):
        m = uniform(2, 4)
        by_bases = decide_commutativity(
            quantum_aut_spec(m, "bases"), EngineConfig(time_budget=300.0), shortcuts=False
        )
        by_circuits = decide_commutativity(
            quantum_aut_spec(m, "circuits"), EngineConfig(time_budget=300.0), shortcuts=False
        )
        assert by_bases.verdict == "noncommutative"
        assert by_circuits.verdict == "commutative"

    def test_commutators_share_one_reducer(self, monkeypatch):
        # after the engine returns, every commutator goes through the
        # module-level normal_remainder against one reducer of the basis
        built: list = []
        calls: list = []
        real_reducer = kernel.Reducer

        class Spy(real_reducer):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        engine = quantum_module.buchberger
        reduce = quantum_module.normal_remainder

        def run(*args):
            gb = engine(*args)
            built.clear()
            calls.clear()
            monkeypatch.setattr(kernel, "Reducer", Spy)
            return gb

        def count(p, basis, *args):
            calls.append(basis)
            return reduce(p, basis, *args)

        monkeypatch.setattr(quantum_module, "buchberger", run)
        monkeypatch.setattr(quantum_module, "normal_remainder", count)
        for r, verdict in ((2, "noncommutative"), (3, "commutative")):
            monkeypatch.setattr(kernel, "Reducer", real_reducer)
            spec = quantum_aut_spec(uniform(r, 4), "bases")
            v = decide_commutativity(spec, EngineConfig(time_budget=300.0), shortcuts=False)
            assert v.verdict == verdict
            assert len(built) == 1
            assert all(basis is built[0] for basis in calls)
            if verdict == "commutative":
                assert len(calls) == len(commutators(spec.algebra))

    @pytest.mark.parametrize("r,axioms", [(3, "bases"), (2, "flats")])
    def test_verdict_contradicting_a_theorem_raises(self, contradicting_engine, r, axioms):
        # girth 4 forces U(3,4) bases commutative; flats are always classical
        spec = quantum_aut_spec(uniform(r, 4), axioms)
        with pytest.raises(InternalInconsistency, match=f"^{axioms} axioms: completed basis"):
            decide_commutativity(spec, shortcuts=False)

    def test_verdict_no_theorem_covers_stands(self, contradicting_engine):
        spec = quantum_aut_spec(uniform(3, 4), "circuits")
        v = decide_commutativity(spec, shortcuts=False)
        assert v.verdict == "noncommutative"
        assert v.status == "complete"

    def test_partial_basis_cannot_claim_noncommutativity(self):
        spec = quantum_aut_spec(uniform(2, 4), "bases")
        truncated = decide_commutativity(
            spec, EngineConfig(degree_bound=2), shortcuts=False
        )
        assert truncated.verdict == "unknown"
        assert truncated.gb.status.kind == "truncated"
        aborted = decide_commutativity(
            spec, EngineConfig(max_iterations=1), shortcuts=False
        )
        assert aborted.verdict == "unknown"
        assert aborted.gb.status.kind == "aborted"


class TestEvalAtPermutation:
    def test_point_evaluations(self):
        alg = Algebra((1, 2))
        identity = {1: 1, 2: 2}
        assert eval_at_permutation(alg.gen(1, 1), identity) == 1
        assert eval_at_permutation(alg.gen(1, 2), identity) == 0
        assert eval_at_permutation(3 * alg.one(), identity) == 3
        swap = {1: 2, 2: 1}
        assert eval_at_permutation(alg.gen(1, 2) * alg.gen(2, 1), swap) == 1

    def test_requires_a_bijection_on_the_labels(self):
        alg = Algebra((1, 2))
        with pytest.raises(ValueError):
            eval_at_permutation(alg.gen(1, 1), {1: 1})
        with pytest.raises(ValueError):
            eval_at_permutation(alg.gen(1, 1), {1: 1, 2: 1})
        with pytest.raises(ValueError):
            eval_at_permutation(alg.gen(1, 1), {1: 1, 2: 3})

    def test_is_a_homomorphism(self):
        alg = Algebra((1, 2, 3))
        sigma = {1: 2, 2: 3, 3: 1}
        p = alg.gen(1, 2) + 2 * alg.gen(2, 3) * alg.gen(3, 1) - alg.one()
        q = alg.gen(1, 2) * alg.gen(2, 3)
        ev = eval_at_permutation
        assert ev(p * q, sigma) == ev(p, sigma) * ev(q, sigma)
        assert ev(p + q, sigma) == ev(p, sigma) + ev(q, sigma)

    @pytest.mark.parametrize("hex_string,n,r", [("1e", 4, 2), ("3f", 4, 2)])
    def test_ideal_vanishes_exactly_on_automorphisms(self, hex_string, n, r):
        m = decode_revlex(hex_string, n, r)
        spec = quantum_aut_spec(m, "bases")
        group = automorphism_group(m)
        hits = 0
        for images in permutations(m.ground.elements):
            sigma = dict(zip(m.ground.elements, images))
            vanishes = all(
                eval_at_permutation(g, sigma) == 0 for g in spec.generators
            )
            assert vanishes == (sigma in group)
            hits += vanishes
        assert hits == group.order


class TestFreeProduct:
    def test_rejects_shared_labels(self):
        with pytest.raises(LabelOverlap):
            free_product_ideal(
                quantum_symmetric_spec((1, 2)), quantum_symmetric_spec((2, 3))
            )

    def test_embeds_both_factors(self):
        left = quantum_symmetric_spec((1, 2))
        right = quantum_symmetric_spec((3, 4))
        fp = free_product_ideal(left, right)
        assert fp.algebra.labels == (1, 2, 3, 4)
        gens = {frozenset(g.terms.items()) for g in fp.generators}
        for g in qsym_ideal_generators(fp.algebra):
            assert frozenset(g.terms.items()) in gens
        # cross-block generators are present
        assert frozenset(((fp.algebra.word([(1, 3)]), Fraction(1)),)) in gens

    def test_free_product_of_two_swap_groups_is_noncommutative(self):
        # order-two factors give the infinite dihedral pattern
        fp = free_product_ideal(
            quantum_symmetric_spec((1, 2)), quantum_symmetric_spec((3, 4))
        )
        v = decide_commutativity(fp, EngineConfig(time_budget=120.0))
        assert v.verdict == "noncommutative"
        assert v.gb.status.is_complete

    def test_free_product_of_trivial_factors_is_commutative(self):
        fp = free_product_ideal(
            quantum_symmetric_spec((1,)), quantum_symmetric_spec((2,))
        )
        v = decide_commutativity(fp, EngineConfig(time_budget=30.0))
        assert v.verdict == "commutative"


class TestGraphOracle:
    def test_rank_guard(self):
        with pytest.raises(WrongRank):
            graph_qaut_ideal(uniform(1, 3))
        with pytest.raises(WrongRank):
            graph_qaut_ideal(uniform(3, 4))

    def test_loop_guard(self):
        with pytest.raises(HasLoops):
            graph_qaut_ideal(decode_revlex("1", 3, 2))

    @pytest.mark.parametrize(
        "key,expected",
        [
            ("u23", "commutative"),
            ("1e", "noncommutative"),
            ("1f", "noncommutative"),
            ("3f", "noncommutative"),
            ("07", "commutative"),
        ],
    )
    def test_matches_basis_axioms_on_rank_two(self, key, expected):
        m = uniform(2, 3) if key == "u23" else decode_revlex(key, 4, 2)
        config = EngineConfig(time_budget=300.0)
        via_bases = decide_commutativity(
            quantum_aut_spec(m, "bases"), config, shortcuts=False
        )
        via_graph = decide_commutativity(graph_qaut_ideal(m), config)
        assert via_bases.verdict == via_graph.verdict == expected
        # the two presentations generate the same ideal
        assert via_bases.gb.status.is_complete
        assert via_graph.gb.status.is_complete
        for g in via_bases.gb.generators:
            assert normal_remainder(g, via_graph.gb.generators).is_zero()
        for g in via_graph.gb.generators:
            assert normal_remainder(g, via_bases.gb.generators).is_zero()
