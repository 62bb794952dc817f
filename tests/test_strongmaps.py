"""Strong maps, hom counting, the image decomposition, and the profile test."""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from itertools import product

import pytest

from qmatroid.autgroup import is_isomorphic
from qmatroid.matroids import TooLarge, direct_sum, relabel, uniform
from qmatroid.strongmaps import (
    BASEPOINT,
    EMPTY_KEY,
    EMPTY_MATROID,
    Catalog,
    CatalogIncomplete,
    StrongMap,
    aut_order,
    hom_counts,
    hom_profile,
    is_strong_map,
    iso_class_catalog,
    iso_key,
    lovasz_isomorphism_test,
    strong_maps,
    verify_decomposition,
)
from qmatroid import strongmaps
from qmatroid.strongmaps import _count, _embeddings, _tables, _total


@pytest.fixture(scope="module")
def catalog2():
    return iso_class_catalog(2)


@pytest.fixture(scope="module")
def catalog4():
    return iso_class_catalog(4)


def brute_force_strong_maps(m1, m2):
    src = m1.ground.elements
    codomain = (BASEPOINT,) + m2.ground.elements
    out = []
    for values in product(codomain, repeat=len(src)):
        mapping = dict(zip(src, values))
        if is_strong_map(m1, m2, mapping):
            out.append(tuple(sorted(mapping.items())))
    return out


def onto(m, labels):
    return relabel(m, dict(zip(m.ground.elements, labels)))


CLASSES3 = [m for m in iso_class_catalog(3) if m is not EMPTY_MATROID]
LOOP = uniform(0, 1)
TWO_PARALLEL_CLASSES = direct_sum(uniform(1, 2), uniform(1, 2), offset=2)
LOOP_AND_TRIANGLE = direct_sum(LOOP, uniform(2, 3), offset=1)
PARALLEL_CLASS_AND_LOOP = direct_sum(uniform(1, 3), LOOP, offset=3)

# every ordered pair of classes with at most three elements, copies on
# labels that are not 1..n, and four-element pairs with loops, parallel
# elements and rank-0 targets
REFERENCE_PAIRS = (
    [(a, b) for a in CLASSES3 for b in CLASSES3]
    + [
        (onto(uniform(2, 3), (2, 5, 7)), uniform(1, 2)),
        (uniform(2, 3), onto(uniform(2, 3), (2, 5, 7))),
        (onto(LOOP_AND_TRIANGLE, (1, 4, 6, 9)), onto(uniform(1, 2), (3, 8))),
        (onto(uniform(1, 2), (4, 9)), onto(LOOP_AND_TRIANGLE, (2, 3, 5, 7))),
        (TWO_PARALLEL_CLASSES, LOOP_AND_TRIANGLE),
        (LOOP_AND_TRIANGLE, TWO_PARALLEL_CLASSES),
        (PARALLEL_CLASS_AND_LOOP, uniform(2, 4)),
        (uniform(2, 4), PARALLEL_CLASS_AND_LOOP),
        (uniform(3, 4), uniform(2, 4)),
        (uniform(2, 4), uniform(0, 4)),
        (TWO_PARALLEL_CLASSES, onto(uniform(0, 3), (2, 4, 6))),
        (uniform(0, 4), uniform(1, 3)),
    ]
)


class TestStrongMapPredicate:
    def test_domain_must_match_ground_set(self):
        with pytest.raises(ValueError):
            is_strong_map(uniform(1, 2), uniform(1, 1), {1: 1})
        with pytest.raises(ValueError):
            is_strong_map(uniform(1, 1), uniform(1, 1), {1: 1, 2: 1})

    def test_values_must_be_target_labels_or_basepoint(self):
        with pytest.raises(ValueError):
            is_strong_map(uniform(1, 1), uniform(1, 1), {1: 7})

    def test_collapsing_a_parallel_class_is_strong(self):
        assert is_strong_map(uniform(1, 2), uniform(1, 1), {1: 1, 2: 1})

    def test_deleting_one_parallel_element_is_not(self):
        # the preimage of the empty flat would be a single element of a
        # two-element parallel class, which is not closed
        assert not is_strong_map(uniform(1, 2), uniform(1, 1), {1: 1, 2: 0})

    def test_freeing_parallel_elements_is_not_strong(self):
        assert not is_strong_map(uniform(1, 2), uniform(2, 2), {1: 1, 2: 2})

    def test_all_to_basepoint_is_always_strong(self):
        for m in [uniform(1, 2), uniform(2, 3), uniform(0, 1)]:
            mapping = {x: BASEPOINT for x in m.ground}
            assert is_strong_map(m, uniform(1, 1), mapping)


class TestEnumeration:
    @pytest.mark.parametrize(
        "m1,m2",
        [
            (uniform(1, 2), uniform(2, 2)),
            (uniform(2, 2), uniform(1, 2)),
            (uniform(1, 1), uniform(2, 3)),
            (uniform(2, 3), uniform(1, 1)),
        ]
        + REFERENCE_PAIRS,
    )
    def test_matches_brute_force(self, m1, m2):
        # the same maps in the same order: itertools.product over the values
        found = [f.mapping for f in strong_maps(m1, m2)]
        assert found == brute_force_strong_maps(m1, m2)

    def test_yielded_maps_pass_the_predicate(self):
        for f in strong_maps(uniform(1, 2), uniform(1, 2)):
            assert is_strong_map(f.source, f.target, dict(f.mapping))

    def test_candidate_cap(self):
        # 9^8 candidates: every entry point refuses before enumerating
        big = uniform(1, 8)
        with pytest.raises(TooLarge):
            next(strong_maps(big, big))
        with pytest.raises(TooLarge):
            hom_counts(big, big)
        with pytest.raises(TooLarge):
            verify_decomposition(big, big, iso_class_catalog(1))
        with pytest.raises(TooLarge):
            hom_profile(big, [big])
        with pytest.raises(TooLarge):
            lovasz_isomorphism_test(big, big, [big])

    def test_map_object_surface(self):
        maps = {f.mapping: f for f in strong_maps(uniform(1, 2), uniform(1, 2))}
        collapse = maps[((1, 1), (2, 1))]
        assert collapse(1) == 1 and collapse(2) == 1
        assert collapse.image_labels == frozenset({1})
        assert not collapse.is_surjective
        assert not collapse.is_embedding
        assert collapse.image().n == 1
        to_base = maps[((1, 0), (2, 0))]
        assert to_base.image() is EMPTY_MATROID
        identity = maps[((1, 1), (2, 2))]
        assert identity.is_surjective and identity.is_embedding


class TestHomCounts:
    def test_loop_free_point_to_itself(self):
        counts = hom_counts(uniform(1, 1), uniform(1, 1))
        assert (counts.hom, counts.surj, counts.emb) == (2, 1, 1)
        assert counts.image_class_counts() == {EMPTY_KEY: 1, (1, (1,)): 1}

    @pytest.mark.parametrize(
        "m1,m2,expected",
        [
            (uniform(1, 2), uniform(1, 1), (2, 1, 0)),
            (uniform(1, 1), uniform(1, 2), (3, 0, 2)),
            (uniform(1, 2), uniform(1, 2), (5, 2, 2)),
            (uniform(2, 2), uniform(2, 2), (9, 2, 2)),
            (uniform(0, 1), uniform(0, 1), (2, 1, 1)),
        ],
    )
    def test_census(self, m1, m2, expected):
        counts = hom_counts(m1, m2)
        assert (counts.hom, counts.surj, counts.emb) == expected

    @pytest.mark.parametrize("m1,m2", REFERENCE_PAIRS)
    def test_fields_match_a_tally_of_the_reference_maps(self, m1, m2):
        maps = [StrongMap(m1, m2, mapping) for mapping in brute_force_strong_maps(m1, m2)]
        classes = Counter(iso_key(f.image()) for f in maps)
        counts = hom_counts(m1, m2)
        assert counts.hom == len(maps)
        assert counts.surj == sum(f.is_surjective for f in maps)
        assert counts.emb == sum(f.is_embedding for f in maps)
        assert counts.by_image_class == tuple(sorted(classes.items()))

    def test_self_counts_recover_the_automorphism_group(self):
        for m in [uniform(1, 2), uniform(2, 2), uniform(2, 3)]:
            counts = hom_counts(m, m)
            order = aut_order(m)
            assert counts.surj == counts.emb == order

    def test_empty_matroid_cases(self):
        m = uniform(1, 2)
        out = hom_counts(EMPTY_MATROID, m)
        assert (out.hom, out.surj, out.emb) == (1, 0, 1)
        into = hom_counts(m, EMPTY_MATROID)
        assert (into.hom, into.surj, into.emb) == (1, 1, 0)
        both = hom_counts(EMPTY_MATROID, EMPTY_MATROID)
        assert (both.hom, both.surj, both.emb) == (1, 1, 1)


class TestIsoMachinery:
    def test_empty_key_is_reserved(self):
        assert iso_key(EMPTY_MATROID) == EMPTY_KEY
        assert aut_order(EMPTY_MATROID) == 1

    def test_key_is_relabeling_invariant(self):
        m = uniform(1, 2)
        assert iso_key(m) == iso_key(relabel(m, {1: 2, 2: 1}))
        assert iso_key(uniform(1, 2)) != iso_key(uniform(2, 2))

    def test_catalog_contents(self, catalog2):
        assert len(iso_class_catalog(1)) == 3
        assert len(catalog2) == 7
        assert len(iso_class_catalog(3)) == 15
        assert catalog2[0] is EMPTY_MATROID
        keys = [iso_key(m) for m in catalog2]
        assert len(set(keys)) == len(keys)


class TestDecomposition:
    def test_identity_for_all_small_ordered_pairs(self, catalog2):
        real = [m for m in catalog2 if m is not EMPTY_MATROID]
        for m1 in real:
            for m2 in real:
                report = verify_decomposition(m1, m2, catalog2)
                assert report.ok
                assert report.total == report.hom

    def test_terms_expose_the_factorization(self, catalog2):
        u11 = uniform(1, 1)
        report = verify_decomposition(u11, u11, catalog2)
        assert report.hom == 2
        assert [(t.surj, t.emb, t.aut) for t in report.terms] == [(1, 1, 1), (1, 1, 1)]
        assert sum(t.contribution for t in report.terms) == 2

    def test_incomplete_catalog_is_rejected(self):
        with pytest.raises(CatalogIncomplete):
            verify_decomposition(uniform(1, 1), uniform(1, 1), [EMPTY_MATROID])

    def test_repeated_class_is_rejected(self, catalog2):
        # counted twice, the repeated class's term would break the identity
        u12 = uniform(1, 2)
        with pytest.raises(ValueError, match=re.escape(str(iso_key(u12)))):
            verify_decomposition(u12, u12, catalog2 + [relabel(u12, {1: 2, 2: 1})])

    def test_ten_element_catalog_entry_is_refused_before_counting(self, catalog2):
        # its key would need 10! relabelings; every map count here is small
        u11 = uniform(1, 1)
        with pytest.raises(TooLarge, match="relabeling search"):
            verify_decomposition(u11, u11, catalog2 + [uniform(1, 10)])


class TestLovaszProfileTest:
    def test_profiles_have_catalog_length(self, catalog2):
        assert len(hom_profile(uniform(1, 1), catalog2)) == 7
        assert hom_profile(uniform(1, 1), catalog2) == (1, 2, 2, 3, 3, 3, 3)
        assert hom_profile(uniform(0, 1), catalog2) == (1, 2, 1, 3, 2, 1, 1)

    def test_relabeling_preserves_profiles(self, catalog2):
        m = uniform(1, 2)
        assert hom_profile(m, catalog2) == hom_profile(relabel(m, {1: 2, 2: 1}), catalog2)

    def test_agrees_with_brute_force_on_small_classes(self, catalog2):
        real = [m for m in catalog2 if m is not EMPTY_MATROID]
        for m1 in real:
            for m2 in real:
                assert lovasz_isomorphism_test(m1, m2, catalog2) == is_isomorphic(m1, m2)

    def test_witness_names_a_separating_class(self):
        verdict, witness = lovasz_isomorphism_test(
            uniform(1, 2), uniform(2, 2), return_witness=True
        )
        assert not verdict
        separating, a, b = witness
        assert a != b
        assert hom_counts(uniform(1, 2), separating).hom == a
        assert hom_counts(uniform(2, 2), separating).hom == b

    def test_default_catalog_and_witness_on_agreement(self):
        m = uniform(1, 2)
        verdict, witness = lovasz_isomorphism_test(
            m, relabel(m, {1: 2, 2: 1}), return_witness=True
        )
        assert verdict and witness is None

    def test_three_element_spot_checks(self):
        assert lovasz_isomorphism_test(uniform(2, 3), uniform(2, 3))
        assert not lovasz_isomorphism_test(uniform(1, 3), uniform(2, 3))
        assert lovasz_isomorphism_test(EMPTY_MATROID, EMPTY_MATROID, [EMPTY_MATROID])


class TestRestrictedWalks:
    def test_restrictions_are_exact(self, catalog4):
        # onto and injective prune the walk; each must count exactly what the
        # unrestricted walk's image tally says it counts
        pairs = [(a, b) for a in catalog4 for b in catalog4] + REFERENCE_PAIRS
        for m1, m2 in pairs:
            t1, t2 = _tables(m1), _tables(m2)
            by_image = _count(t1, t2)
            onto = _count(t1, t2, onto=True)
            assert set(onto) <= {(1 << m2.n) - 1}
            assert sum(onto.values()) == by_image.get((1 << m2.n) - 1, 0), (m1, m2)
            injective = _count(t1, t2, injective=True)
            assert all(image.bit_count() == m1.n for image in injective)
            assert _embeddings(t1, t2, injective) == _embeddings(t1, t2, by_image), (m1, m2)

    def test_totals_equal_the_tallies(self, catalog4):
        # the one-integer leaf counts what the image tally sums to
        for m1, m2 in [(a, b) for a in catalog4 for b in catalog4] + REFERENCE_PAIRS:
            t1, t2 = _tables(m1), _tables(m2)
            assert _total(t1, t2) == sum(_count(t1, t2).values()), (m1, m2)
            assert _total(t1, t2, onto=True) == sum(_count(t1, t2, onto=True).values()), (m1, m2)


# SHA-256 of every verify_decomposition report over the ordered pairs of
# iso_class_catalog(4), with each term's class and counts, and of every hom
# profile against it; recorded when surj and emb were read off unrestricted
# walks, so the onto and injective walks must reproduce every term
GOLDEN_HOM4_DIGEST = "f9f797717428c74329ff28b724814ec85b0b5181874cfd9a476d0c479bcce167"


class TestGoldenOutputs:
    def test_reports_and_profiles_match_the_recorded_digest(self, catalog4):
        h = hashlib.sha256()
        for m1 in catalog4:
            for m2 in catalog4:
                rep = verify_decomposition(m1, m2, catalog4)
                terms = [(iso_key(t.matroid), t.surj, t.emb, t.aut) for t in rep.terms]
                h.update(repr((rep.hom, str(rep.total), terms)).encode())
        for m in catalog4:
            h.update(repr(hom_profile(m, catalog4)).encode())
        assert h.hexdigest() == GOLDEN_HOM4_DIGEST


class TestCatalog:
    def test_held_keys_are_the_relabeling_search_keys(self):
        catalog = iso_class_catalog(5)
        assert isinstance(catalog, Catalog)
        # the enumeration's keys are held, so reading them computes nothing
        assert all("key" in vars(e) for e in catalog.entries)
        assert [e.key for e in catalog.entries] == [iso_key(m) for m in catalog]

    def test_held_facts_match_per_call_ones(self, catalog4):
        for e in catalog4.entries:
            assert e.n == e.matroid.n and "n" in vars(e)
            assert e.tables == _tables(e.matroid)
            assert e.aut == aut_order(e.matroid)

    def test_plain_list_gives_the_same_results(self, catalog4):
        plain = list(catalog4)
        assert not isinstance(plain, Catalog)
        sample = catalog4[::5]
        for m1 in sample:
            for m2 in sample:
                assert verify_decomposition(m1, m2, plain) == verify_decomposition(
                    m1, m2, catalog4
                )
                assert lovasz_isomorphism_test(m1, m2, plain) == lovasz_isomorphism_test(
                    m1, m2, catalog4
                )
            assert hom_profile(m1, plain) == hom_profile(m1, catalog4)

    def test_counts_are_not_held(self, catalog4, monkeypatch):
        calls = []
        real = strongmaps.hom_counts

        def counting(m1, m2):
            calls.append((m1, m2))
            return real(m1, m2)

        monkeypatch.setattr(strongmaps, "hom_counts", counting)
        m = uniform(2, 3)
        first = verify_decomposition(m, m, catalog4)
        assert verify_decomposition(m, m, catalog4) == first
        assert calls == [(m, m), (m, m)]

    def test_sequence_surface(self, catalog2):
        assert isinstance(catalog2[1:], Catalog)
        assert list(catalog2[1:]) == list(catalog2)[1:]
        assert catalog2[-1] is list(catalog2)[-1]
        extended = catalog2 + [uniform(1, 3)]
        assert isinstance(extended, Catalog) and len(extended) == 8
        # entries are shared, so what catalog2 holds the sum holds too
        assert extended.entries[:7] == catalog2.entries
        assert Catalog.wrap(catalog2) is catalog2
        assert uniform(1, 1) in catalog2
