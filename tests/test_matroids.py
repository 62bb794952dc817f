"""Matroid kernel: construction, cryptomorphic families, revlex codec."""

import math
from itertools import combinations, permutations

import pytest

from qmatroid.matroids import (
    BadHexLength,
    ExchangeAxiomFailure,
    GroundSet,
    MatroidError,
    NotASubset,
    RankOutOfRange,
    RejectedExchangeAxiom,
    RejectedNotEqualCardinality,
    TooLarge,
    _labels,
    _mask,
    canonical_basis_masks,
    canonical_form,
    canonical_revlex_hex,
    decode_revlex,
    direct_sum,
    encode_revlex,
    enumerate_all_matroids,
    enumerate_matroids,
    new_matroid,
    relabel,
    revlex_subsets,
    uniform,
)

FANO_HEX = "3f7eefd6f"
FANO_NONBASES = [
    {1, 2, 3},
    {1, 4, 5},
    {2, 4, 6},
    {3, 5, 6},
    {3, 4, 7},
    {2, 5, 7},
    {1, 6, 7},
]

# the published worked example: all 35 triples of {1..7} in revlex order
REVLEX_735 = [
    (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4), (1, 2, 5), (1, 3, 5),
    (2, 3, 5), (1, 4, 5), (2, 4, 5), (3, 4, 5), (1, 2, 6), (1, 3, 6),
    (2, 3, 6), (1, 4, 6), (2, 4, 6), (3, 4, 6), (1, 5, 6), (2, 5, 6),
    (3, 5, 6), (4, 5, 6), (1, 2, 7), (1, 3, 7), (2, 3, 7), (1, 4, 7),
    (2, 4, 7), (3, 4, 7), (1, 5, 7), (2, 5, 7), (3, 5, 7), (4, 5, 7),
    (1, 6, 7), (2, 6, 7), (3, 6, 7), (4, 6, 7), (5, 6, 7),
]


def fano():
    return decode_revlex(FANO_HEX, 7, 3)


class TestConstruction:
    def test_uniform_2_4(self):
        m = uniform(2, 4)
        assert m.rank == 2
        assert len(m.bases) == 6
        assert m.bases == frozenset(frozenset(c) for c in combinations(range(1, 5), 2))

    def test_uniform_3_7_has_35_bases(self):
        assert len(uniform(3, 7).bases) == 35

    def test_uniform_1_1(self):
        m = new_matroid([1], [[1]])
        assert m.rank == 1
        assert m.bases == frozenset({frozenset({1})})

    def test_rank_zero_single_empty_basis(self):
        m = uniform(0, 1)
        assert m.rank == 0
        assert m.bases == frozenset({frozenset()})
        assert m.loops() == frozenset({1})

    def test_mixed_cardinality_rejected(self):
        with pytest.raises(RejectedNotEqualCardinality):
            new_matroid([1, 2, 3], [[1, 2], [3]])

    def test_exchange_violation_rejected(self):
        # {1,2} and {3,4} with no mixed pair fails exchange; so do the others
        for family in (
            [[1, 2], [3, 4]],
            [[1, 2], [1, 3], [2, 4]],
            [[1, 2, 3], [1, 2, 4], [3, 4, 5]],
        ):
            bases = {frozenset(b) for b in family}
            with pytest.raises(RejectedExchangeAxiom) as info:
                new_matroid([1, 2, 3, 4, 5], family)
            a, b, x = info.value.a_set, info.value.b_set, info.value.element
            # the reported triple is a real violation
            assert a in bases and b in bases
            assert x in a - b
            assert all((a - {x}) | {y} not in bases for y in b - a)

    def test_no_bases_rejected(self):
        with pytest.raises(MatroidError):
            new_matroid([1, 2], [])

    def test_basis_outside_ground_rejected(self):
        with pytest.raises(NotASubset):
            new_matroid([1, 2], [[3]])

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            uniform(3, 2)


class TestRankClosure:
    def test_rank_capped(self):
        assert uniform(2, 4).rank_of([1, 2, 3]) == 2

    def test_fano_nonbasis_rank(self):
        m = fano()
        assert m.rank_of([1, 2, 3]) == 2
        for nb in FANO_NONBASES:
            assert m.rank_of(nb) == 2

    def test_rank_of_empty(self):
        assert uniform(2, 4).rank_of([]) == 0
        assert fano().rank_of([]) == 0

    def test_rank_outside_ground(self):
        with pytest.raises(NotASubset):
            uniform(2, 4).rank_of([9])

    def test_closure_simple_singleton(self):
        assert uniform(2, 4).closure([1]) == frozenset({1})

    def test_fano_line_closure(self):
        assert fano().closure([1, 2]) == frozenset({1, 2, 3})

    def test_closure_idempotent_and_flat(self):
        for m in enumerate_all_matroids(3):
            for size in range(m.n + 1):
                for combo in combinations(m.ground.elements, size):
                    cl = m.closure(combo)
                    assert m.closure(cl) == cl
                    assert cl in m.flats()

    def test_rank_monotone_submodular_exhaustive(self):
        for n in range(1, 5):
            for m in enumerate_all_matroids(n):
                subsets = [
                    set(c)
                    for size in range(n + 1)
                    for c in combinations(m.ground.elements, size)
                ]
                ranks = {frozenset(s): m.rank_of(s) for s in subsets}
                for a in subsets:
                    for b in subsets:
                        ra, rb = ranks[frozenset(a)], ranks[frozenset(b)]
                        if a <= b:
                            assert ra <= rb
                        union = ranks[frozenset(a | b)]
                        inter = ranks[frozenset(a & b)]
                        assert ra + rb >= union + inter


class TestFamilies:
    def test_every_family_is_a_frozenset_of_frozensets(self):
        # bases, flats, circuits and independent sets share one type
        for m in (m for n in range(1, 5) for m in enumerate_all_matroids(n, up_to_iso=True)):
            for fam in (m.bases, m.flats(), m.circuits(), m.independent_sets()):
                assert type(fam) is frozenset, m
                assert all(type(s) is frozenset for s in fam), m

    def test_independent_u23(self):
        fam = uniform(2, 3).independent_sets()
        want = {frozenset()} | {frozenset(c) for s in (1, 2) for c in combinations([1, 2, 3], s)}
        assert fam == want

    def test_independent_u11(self):
        assert uniform(1, 1).independent_sets() == {frozenset(), frozenset({1})}

    def test_independent_downward_closed_and_brute_force(self):
        for m in enumerate_all_matroids(3) + [decode_revlex("01", 4, 2)]:
            fam = m.independent_sets()
            brute = {
                frozenset(c)
                for size in range(m.rank + 1)
                for c in combinations(m.ground.elements, size)
                if m.is_independent(c)
            }
            assert fam == brute
            for s in fam:
                for x in s:
                    assert s - {x} in fam
            # maximal members are exactly the bases
            maximal = {s for s in fam if not any(s < t for t in fam)}
            assert maximal == m.bases

    def test_flats_u23(self):
        fam = uniform(2, 3).flats()
        assert fam == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({1, 2, 3}),
        }

    def test_flats_u11(self):
        assert uniform(1, 1).flats() == {frozenset(), frozenset({1})}

    def test_flats_of_loopy_matroid_start_at_loops(self):
        m = decode_revlex("1", 2, 1)
        # the loop sits in every flat, closure of the empty set included
        assert m.closure([]) == m.loops()
        assert all(m.loops() <= f for f in m.flats())

    def test_fano_flat_census(self):
        fam = fano().flats()
        by_size: dict[int, int] = {}
        for f in fam:
            by_size[len(f)] = by_size.get(len(f), 0) + 1
        assert len(fam) == 16
        assert by_size == {0: 1, 1: 7, 3: 7, 7: 1}

    def test_flats_intersection_closed(self):
        for m in enumerate_all_matroids(3) + [fano()]:
            fam = m.flats()
            assert frozenset(m.ground.elements) in fam
            for f1 in fam:
                for f2 in fam:
                    assert f1 & f2 in fam

    def test_circuits_u24(self):
        fam = uniform(2, 4).circuits()
        assert fam == {frozenset(c) for c in combinations(range(1, 5), 3)}

    def test_circuits_u11_empty(self):
        assert uniform(1, 1).circuits() == set()

    def test_fano_circuits(self):
        fam = fano().circuits()
        triples = {frozenset(nb) for nb in FANO_NONBASES}
        assert {c for c in fam if len(c) == 3} == triples
        assert all(len(c) in (3, 4) for c in fam)
        quads = {c for c in fam if len(c) == 4}
        # complements of the lines are the 4-element circuits
        assert quads == {frozenset(range(1, 8)) - t for t in triples}

    def test_circuits_antichain_and_minimality(self):
        for m in enumerate_all_matroids(3):
            fam = m.circuits()
            for c1 in fam:
                for c2 in fam:
                    if c1 != c2:
                        assert not c1 <= c2
                assert not m.is_independent(c1)
                for x in c1:
                    assert m.is_independent(c1 - {x})

    def test_girth(self):
        assert uniform(2, 4).girth() == 3
        assert decode_revlex("3", 2, 1).girth() == 2
        assert uniform(4, 4).girth() == math.inf
        assert decode_revlex("3f", 4, 2).girth() == 3

    def test_girth_at_least_4_iff_small_sets_independent(self):
        for m in enumerate_all_matroids(4):
            small_free = all(
                m.is_independent(c)
                for size in (1, 2, 3)
                for c in combinations(m.ground.elements, size)
            )
            assert (m.girth() >= 4) == small_free

    def test_loops_parallel_simple(self):
        assert uniform(0, 2).loops() == frozenset({1, 2})
        assert uniform(2, 4).is_simple()
        m = decode_revlex("1e", 4, 2)
        assert not m.is_simple()
        assert m.parallel_pairs()


SPARSE_LABELS = (3, 5, 8, 13)


def _sparse(m):
    return relabel(m, dict(zip(m.ground.elements, SPARSE_LABELS)))


def _sparse_cases():
    """Every class with n <= 4 on labels from SPARSE_LABELS, restrictions of
    the n = 4 classes, and direct sums shifted by an offset, so that no case
    has ground set {1..n}."""
    classes = [_sparse(m) for n in range(1, 5) for m in enumerate_all_matroids(n, up_to_iso=True)]
    cases = [(f"class{i}", m) for i, m in enumerate(classes)]
    for i, m in enumerate(c for c in classes if c.n == 4):
        cases.append((f"restrict{i}a", m.restrict([5, 13])))
        cases.append((f"restrict{i}b", m.restrict([3, 8, 13])))
    small = [m for m in classes if m.n == 2]
    for i, (a, b) in enumerate((a, b) for a in small for b in small):
        cases.append((f"sum{i}", direct_sum(a, b, offset=10)))
    return cases


def _subsets(elements):
    return [frozenset(c) for k in range(len(elements) + 1) for c in combinations(elements, k)]


class TestFamiliesOnSparseLabels:
    """flats, circuits, girth and closure against their definitions through
    rank_of, on ground sets that are not {1..n}: position masks and label
    masks differ there."""

    @pytest.mark.parametrize("name, m", _sparse_cases())
    def test_families_match_rank_definitions(self, name, m):
        ground = m.ground.elements
        assert ground != tuple(range(1, m.n + 1))
        rank = {s: m.rank_of(s) for s in _subsets(ground)}
        flats = {
            s for s, r in rank.items() if all(rank[s | {x}] > r for x in ground if x not in s)
        }
        circuits = {
            s
            for s, r in rank.items()
            if r < len(s) and all(rank[s - {x}] == len(s) - 1 for x in s)
        }
        assert m.flats() == flats
        assert m.circuits() == circuits
        assert m.girth() == min((len(c) for c in circuits), default=math.inf)
        for s, r in rank.items():
            assert m.closure(s) == {x for x in ground if rank[s | {x}] == r}

    @pytest.mark.parametrize("keep", [(5, 13), (3, 8, 13), (3, 5, 8)])
    def test_restrict_keeps_the_rank_function(self, keep):
        for m in (_sparse(c) for c in enumerate_all_matroids(4, up_to_iso=True)):
            minor = m.restrict(keep)
            assert minor.ground.elements == keep
            assert all(minor.rank_of(s) == m.rank_of(s) for s in _subsets(keep))


class TestMinors:
    def test_delete_uniform(self):
        m = uniform(2, 4).delete([4])
        assert m.ground.elements == (1, 2, 3)
        assert m.bases == uniform(2, 3).bases

    def test_restrict_fano_basis_triple(self):
        # 124 is independent, so the restriction is free of rank 3
        m = fano().restrict([1, 2, 4])
        assert m.rank == 3
        assert m.bases == frozenset({frozenset({1, 2, 4})})

    def test_restrict_fano_nonbasis_triple(self):
        m = fano().restrict([1, 2, 3])
        assert m.rank == 2
        # 123 is a line: three rank-2 subsets, {1,2},{1,3},{2,3} all bases
        assert m.bases == frozenset(frozenset(c) for c in combinations((1, 2, 3), 2))

    def test_direct_sum_loop(self):
        m = direct_sum(uniform(1, 1), relabel(uniform(0, 1), {1: 2}))
        assert m.rank == 1
        assert m.loops() == frozenset({2})

    def test_direct_sum_overlap_rejected(self):
        from qmatroid.matroids import GroundSetOverlap

        with pytest.raises(GroundSetOverlap):
            direct_sum(uniform(1, 1), uniform(1, 1))

    def test_direct_sum_offset(self):
        m = direct_sum(uniform(1, 2), uniform(1, 2), offset=2)
        assert m.ground.elements == (1, 2, 3, 4)
        assert m.rank == 2


class TestRevlexCodec:
    def test_revlex_735_verbatim(self):
        assert revlex_subsets(7, 3) == REVLEX_735

    def test_fano_decode(self):
        m = fano()
        assert len(m.bases) == 28
        assert m.nonbasis_count == 7
        nonbases = {
            frozenset(c)
            for c in combinations(range(1, 8), 3)
            if frozenset(c) not in m.bases
        }
        assert nonbases == {frozenset(nb) for nb in FANO_NONBASES}

    def test_fano_round_trip(self):
        code = encode_revlex(fano())
        assert (code.n, code.r, code.hex) == (7, 3, FANO_HEX)

    def test_u24_all_bits(self):
        m = decode_revlex("3f", 4, 2)
        assert m.bases == uniform(2, 4).bases

    def test_single_basis_n2(self):
        # value 1 selects the last revlex subset (2); element 1 is the loop
        m = decode_revlex("1", 2, 1)
        assert m.bases == frozenset({frozenset({2})})
        assert m.loops() == frozenset({1})

    def test_round_trip_all_small_codes(self):
        for n in range(1, 5):
            for r in range(n + 1):
                for m in enumerate_matroids(n, r):
                    code = encode_revlex(m)
                    again = decode_revlex(code.hex, n, r)
                    assert again.basis_masks == m.basis_masks

    def test_bad_hex_length(self):
        with pytest.raises(BadHexLength):
            decode_revlex("3f7", 4, 2)
        with pytest.raises(BadHexLength):
            decode_revlex("zz", 4, 2)

    @pytest.mark.parametrize("literal", ["0x3", "0_3", "+03"])
    def test_python_int_literals_rejected(self, literal):
        # int(s, 16) reads each of these as the code 003
        with pytest.raises(BadHexLength):
            decode_revlex(literal, 5, 2)

    def test_padding_bits_rejected(self):
        # n=4 r=2 has 6 subsets; bits 6 and 7 are padding
        with pytest.raises(BadHexLength):
            decode_revlex("ff", 4, 2)

    def test_non_matroid_code_rejected(self):
        # bases {1,2} and {3,4} violate exchange
        subsets = revlex_subsets(4, 2)
        value = 0
        for k, c in enumerate(subsets):
            if set(c) in ({1, 2}, {3, 4}):
                value |= 1 << (len(subsets) - 1 - k)
        with pytest.raises(ExchangeAxiomFailure):
            decode_revlex(format(value, "02x"), 4, 2)

    def test_code_of_no_bases_rejected(self):
        with pytest.raises(MatroidError):
            decode_revlex("0", 2, 1)


class TestCanonical:
    def test_canonical_form_is_invariant(self):
        m = decode_revlex("1f", 4, 2)
        shuffled = relabel(m, {1: 3, 2: 1, 3: 4, 4: 2})
        assert canonical_basis_masks(m) == canonical_basis_masks(shuffled)
        assert canonical_form(m).basis_masks == canonical_form(shuffled).basis_masks

    def test_canonical_hex_published_rows(self):
        # every class with n <= 4 that the published tables name, by its hex
        rows = [
            ("3", 2, 1), ("1", 2, 1),
            ("7", 3, 1), ("3", 3, 1), ("1", 3, 1),
            ("f", 4, 1), ("7", 4, 1), ("3", 4, 1), ("1", 4, 1),
            ("3f", 4, 2), ("1f", 4, 2), ("1e", 4, 2), ("0b", 4, 2),
            ("07", 4, 2), ("03", 4, 2), ("01", 4, 2),
            ("f", 4, 3),
        ]
        for hx, n, r in rows:
            m = decode_revlex(hx, n, r)
            assert canonical_revlex_hex(m) == hx, (hx, n, r)
            shuffled = relabel(m, dict(zip(m.ground.elements, reversed(m.ground.elements))))
            assert canonical_revlex_hex(shuffled) == hx

    def test_canonical_hex_covers_all_iso_classes(self):
        for n in range(2, 5):
            for r in range(1, n):
                reps = enumerate_matroids(n, r, up_to_iso=True)
                hexes = {canonical_revlex_hex(m) for m in reps}
                assert len(hexes) == len(reps)
                for m in reps:
                    again = decode_revlex(canonical_revlex_hex(m), n, r)
                    assert canonical_basis_masks(again) == canonical_basis_masks(m)


# The canonical forms as computed before they shared one search, kept verbatim
# as references: one loop over relabelings for each form.


def reference_canonical_basis_masks(m):
    order_map = {x: i + 1 for i, x in enumerate(m.ground.elements)}
    base = [tuple(order_map[x] for x in _labels(b)) for b in m.basis_masks]
    n = m.n
    best = None
    for perm in permutations(range(1, n + 1)):
        imgs = tuple(sorted(_mask(perm[x - 1] for x in b) for b in base))
        if best is None or imgs < best:
            best = imgs
    assert best is not None
    return best


def reference_canonical_revlex_hex(m):
    n = m.n
    subsets = revlex_subsets(n, m.rank)
    count = len(subsets)
    position = {_mask(c): count - 1 - k for k, c in enumerate(subsets)}
    order_map = {x: i + 1 for i, x in enumerate(m.ground.elements)}
    base = [tuple(order_map[x] for x in _labels(b)) for b in m.basis_masks]
    best = None
    for perm in permutations(range(1, n + 1)):
        value = 0
        for b in base:
            value |= 1 << position[_mask(perm[x - 1] for x in b)]
        if best is None or value < best:
            best = value
    assert best is not None
    width = (count + 3) // 4
    return format(best, f"0{width}x")


LABELLED = [m for n in range(1, 6) for m in enumerate_all_matroids(n)]


def relabelled_copies(m):
    """m on non-contiguous labels, once in order and once reversed."""
    elems = m.ground.elements
    spread = (2, 5, 7, 10, 13)[: len(elems)]
    gaps = (1, 4, 6, 9, 11)[: len(elems)]
    return [relabel(m, dict(zip(elems, spread))), relabel(m, dict(zip(elems, reversed(gaps))))]


class TestCanonicalAgainstReference:
    def test_universe(self):
        assert len(LABELLED) == 497

    @pytest.mark.parametrize("n", range(1, 6))
    def test_both_forms_match(self, n):
        for m in LABELLED:
            if m.n != n:
                continue
            for copy in [m, *relabelled_copies(m)]:
                assert canonical_basis_masks(copy) == reference_canonical_basis_masks(copy)
                assert canonical_revlex_hex(copy) == reference_canonical_revlex_hex(copy)

    def test_masks_are_the_relabeling_with_the_greatest_indicator(self):
        for m in LABELLED:
            elems = m.ground.elements
            values = {
                int(encode_revlex(relabel(m, dict(zip(elems, perm)))).hex, 16): perm
                for perm in permutations(elems)
            }
            greatest = values[max(values)]
            assert canonical_basis_masks(m) == tuple(
                sorted(relabel(m, dict(zip(elems, greatest))).basis_masks)
            )
            least = values[min(values)]
            assert canonical_revlex_hex(m) == encode_revlex(relabel(m, dict(zip(elems, least)))).hex

    def test_up_to_iso_catalog_order(self):
        for n in range(1, 6):
            for r in range(n + 1):
                reps = enumerate_matroids(n, r, up_to_iso=True)
                keys = sorted({reference_canonical_basis_masks(m) for m in enumerate_matroids(n, r)})
                assert [tuple(sorted(m.basis_masks)) for m in reps] == keys

    def test_degree_guard(self):
        for f in (canonical_basis_masks, canonical_form, canonical_revlex_hex):
            with pytest.raises(TooLarge):
                f(uniform(1, 10))


class TestEnumeration:
    def test_counts_by_n(self):
        # labeled matroid counts 1, 2, 4, 8, 17 per ground size as iso classes
        assert len(enumerate_all_matroids(1, up_to_iso=True)) == 2
        assert len(enumerate_all_matroids(2, up_to_iso=True)) == 4
        assert len(enumerate_all_matroids(3, up_to_iso=True)) == 8
        assert len(enumerate_all_matroids(4, up_to_iso=True)) == 17

    def test_n2_rank1_iso_classes(self):
        reps = enumerate_matroids(2, 1, up_to_iso=True)
        assert sorted(canonical_revlex_hex(m) for m in reps) == ["1", "3"]

    def test_n1(self):
        ms = enumerate_all_matroids(1)
        assert len(ms) == 2
        assert {m.rank for m in ms} == {0, 1}

    def test_all_enumerated_pass_exchange(self):
        for n in range(1, 5):
            for m in enumerate_all_matroids(n):
                # revalidate through the checked constructor
                again = new_matroid(m.ground.elements, [tuple(b) for b in m.bases])
                assert again.basis_masks == m.basis_masks

    def test_enumeration_guard(self):
        with pytest.raises(TooLarge):
            enumerate_matroids(6, 2)


class TestGroundSet:
    def test_labels_validated(self):
        with pytest.raises(MatroidError):
            GroundSet((2, 1))
        with pytest.raises(MatroidError):
            GroundSet(())
        with pytest.raises(MatroidError):
            GroundSet(tuple(range(1, 33)))
        # bool is a subclass of int, but True is no element label
        with pytest.raises(MatroidError):
            GroundSet((True, 2))
