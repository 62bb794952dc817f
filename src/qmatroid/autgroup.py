"""Classical automorphisms and isomorphisms of small matroids, by brute force.

Permutations are stored extensionally as tuples of images aligned with the
sorted ground labels; degree is capped at 9 (9! = 362880 candidates).

One loop, _isomorphisms, yields every basis-preserving bijection in
permutations order, dropping a candidate at its first unpreserved basis;
automorphism_group collects them and find_isomorphism takes the first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .matroids import Matroid, _position_bases, _position_subsets


@dataclass(frozen=True)
class PermGroup:
    """Extensional permutation group on a fixed label tuple."""

    domain: tuple[int, ...]
    perms: frozenset[tuple[int, ...]]

    @property
    def order(self) -> int:
        return len(self.perms)

    def __iter__(self) -> Iterator[dict[int, int]]:
        for images in sorted(self.perms):
            yield dict(zip(self.domain, images))

    def __contains__(self, mapping: object) -> bool:
        if isinstance(mapping, dict):
            try:
                images = tuple(mapping[x] for x in self.domain)
            except KeyError:
                return False
            return images in self.perms
        return False


def _isomorphisms(m1: Matroid, m2: Matroid) -> Iterator[tuple[int, ...]]:
    """Images of m1's ground labels under each basis-preserving bijection
    onto m2, whose ground set must have the same size."""
    d2 = m2.ground.elements
    n = len(d2)
    subsets = _position_subsets(n, m1.rank)
    places = [subsets[b] for b in _position_bases(m1)]
    bases2 = frozenset(_position_bases(m2))
    for images, perm in zip(permutations(d2), permutations([1 << i for i in range(n)])):
        get = perm.__getitem__
        if all(sum(map(get, p)) in bases2 for p in places):
            yield images


def automorphism_group(m: Matroid) -> PermGroup:
    """All basis-preserving permutations of the ground set."""
    return PermGroup(m.ground.elements, frozenset(_isomorphisms(m, m)))


def find_isomorphism(m1: Matroid, m2: Matroid) -> dict[int, int] | None:
    """A basis-preserving bijection of ground sets, or None."""
    d1 = m1.ground.elements
    if len(d1) != m2.n or m1.rank != m2.rank or len(m1.basis_masks) != len(m2.basis_masks):
        return None
    images = next(_isomorphisms(m1, m2), None)
    return None if images is None else dict(zip(d1, images))


def is_isomorphic(m1: Matroid, m2: Matroid) -> bool:
    return find_isomorphism(m1, m2) is not None
