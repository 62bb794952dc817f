"""Brute-force automorphism groups and isomorphism search."""

from __future__ import annotations

from itertools import permutations

import pytest

from qmatroid.autgroup import (
    PermGroup,
    automorphism_group,
    find_isomorphism,
    is_isomorphic,
)
from qmatroid.matroids import (
    TooLarge,
    decode_revlex,
    enumerate_all_matroids,
    relabel,
    uniform,
)
from qmatroid.strongmaps import iso_class_catalog

FANO_HEX = "3f7eefd6f"


@pytest.fixture(scope="module")
def fano():
    return decode_revlex(FANO_HEX, 7, 3)


def compose(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    return {x: p[q[x]] for x in q}


class TestAutomorphismGroup:
    def test_fano_plane_has_168_symmetries(self, fano):
        assert automorphism_group(fano).order == 168

    def test_uniform_matroids_are_fully_symmetric(self):
        for r, n in [(1, 3), (2, 4), (3, 5)]:
            group = automorphism_group(uniform(r, n))
            assert group.order == len(list(permutations(range(n))))

    @pytest.mark.parametrize(
        "hex_string,n,r,expected",
        [
            ("3", 2, 1, 2),
            ("1", 2, 1, 1),
            ("7", 3, 1, 6),
            ("3", 3, 1, 2),
            ("1", 3, 1, 2),
            ("f", 4, 1, 24),
            ("3", 4, 1, 4),
            ("7", 4, 1, 6),
            ("1", 4, 1, 6),
            ("01", 4, 2, 4),
            ("03", 4, 2, 2),
            ("07", 4, 2, 6),
            ("0b", 4, 2, 6),
            ("1e", 4, 2, 8),
            ("1f", 4, 2, 4),
            ("3f", 4, 2, 24),
            ("f", 4, 3, 24),
        ],
    )
    def test_published_group_orders(self, hex_string, n, r, expected):
        m = decode_revlex(hex_string, n, r)
        assert automorphism_group(m).order == expected

    def test_group_axioms_hold_extensionally(self):
        m = decode_revlex("1e", 4, 2)
        group = automorphism_group(m)
        elements = list(group)
        identity = {x: x for x in m.ground.elements}
        assert identity in group
        for p in elements:
            assert {v: k for k, v in p.items()} in group
            for q in elements:
                assert compose(p, q) in group

    def test_every_member_preserves_nonbases(self, fano):
        from itertools import combinations

        nonbases = {
            frozenset(s)
            for s in combinations(fano.ground.elements, fano.rank)
            if frozenset(s) not in fano.bases
        }
        assert len(nonbases) == fano.nonbasis_count
        for p in automorphism_group(fano):
            for s in nonbases:
                assert frozenset(p[x] for x in s) in nonbases

    def test_degree_guard(self):
        with pytest.raises(TooLarge):
            automorphism_group(uniform(1, 10))


class TestPermGroupContainer:
    def test_membership_protocol(self):
        m = uniform(1, 3)
        group = automorphism_group(m)
        assert {1: 2, 2: 1, 3: 3} in group
        assert {1: 1, 2: 2} not in group  # missing a point
        assert (1, 2, 3) not in group  # wrong type
        assert group.order == len(list(group))

    def test_iteration_is_sorted_and_stable(self):
        group = automorphism_group(uniform(1, 3))
        first = [tuple(sorted(p.items())) for p in group]
        second = [tuple(sorted(p.items())) for p in group]
        assert first == second == sorted(first)

    def test_direct_construction(self):
        group = PermGroup(domain=(1, 2), perms=frozenset({(1, 2), (2, 1)}))
        assert group.order == 2
        assert {1: 2, 2: 1} in group


class TestIsomorphism:
    def test_relabeling_is_detected(self):
        m = decode_revlex("1f", 4, 2)
        shuffled = relabel(m, {1: 3, 2: 1, 3: 4, 4: 2})
        mapping = find_isomorphism(m, shuffled)
        assert mapping is not None
        for b in m.bases:
            assert frozenset(mapping[x] for x in b) in shuffled.bases

    def test_counts_rule_out_quickly(self):
        assert find_isomorphism(decode_revlex("1e", 4, 2), decode_revlex("01", 4, 2)) is None
        assert find_isomorphism(uniform(1, 3), uniform(1, 4)) is None
        assert find_isomorphism(uniform(1, 3), uniform(2, 3)) is None

    def test_equal_counts_can_still_fail(self):
        # both have three nonbases, but different girth
        a = decode_revlex("07", 4, 2)
        b = decode_revlex("0b", 4, 2)
        assert len(a.basis_masks) == len(b.basis_masks)
        assert not is_isomorphic(a, b)

    def test_self_isomorphism(self, fano):
        assert is_isomorphic(fano, fano)

    def test_degree_guard(self):
        with pytest.raises(TooLarge):
            find_isomorphism(uniform(1, 10), uniform(1, 10))


# The searches as written before they shared one loop, kept verbatim as
# references: one loop for the group, one for the first isomorphism.


def _apply_to_mask(images, domain, mask):
    out = 0
    for pos, label in enumerate(domain):
        if mask & (1 << (label - 1)):
            out |= 1 << (images[pos] - 1)
    return out


def reference_automorphisms(m):
    domain = m.ground.elements
    masks = m.basis_masks
    found = []
    for images in permutations(domain):
        if all(_apply_to_mask(images, domain, b) in masks for b in masks):
            found.append(images)
    return frozenset(found)


def reference_find_isomorphism(m1, m2):
    d1 = m1.ground.elements
    d2 = m2.ground.elements
    if len(d1) != len(d2) or m1.rank != m2.rank or len(m1.basis_masks) != len(m2.basis_masks):
        return None
    masks2 = m2.basis_masks
    for images in permutations(d2):
        if all(_apply_to_mask(images, d1, b) in masks2 for b in m1.basis_masks):
            return dict(zip(d1, images))
    return None


def with_relabelled_copies(max_n):
    """Every labelled matroid up to max_n, plus copies on non-contiguous labels."""
    out = []
    for n in range(1, max_n + 1):
        for m in enumerate_all_matroids(n):
            elems = m.ground.elements
            spread = (2, 5, 7, 10, 13)[:n]
            gaps = (1, 4, 6, 9, 11)[:n]
            out += [
                m,
                relabel(m, dict(zip(elems, spread))),
                relabel(m, dict(zip(elems, reversed(gaps)))),
            ]
    return out


class TestAgainstReference:
    def test_automorphism_groups(self):
        matroids = with_relabelled_copies(5)
        assert len(matroids) == 3 * 497
        for m in matroids:
            group = automorphism_group(m)
            assert group.domain == m.ground.elements
            assert group.perms == reference_automorphisms(m)

    def test_find_isomorphism_returns_the_first_mapping(self):
        matroids = with_relabelled_copies(4)
        pairs = 0
        for c in iso_class_catalog(4)[1:]:
            for m in matroids:
                if m.n != c.n:
                    continue
                pairs += 1
                assert find_isomorphism(c, m) == reference_find_isomorphism(c, m)
                assert find_isomorphism(m, c) == reference_find_isomorphism(m, c)
        assert pairs == 3924
