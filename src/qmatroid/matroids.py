"""Matroids on small ground sets, with the cryptomorphic views used downstream.

A matroid is stored by its ground set and its family of bases; everything else
(independent sets, rank, closure, flats, circuits, girth) is derived.  Subsets
are bitmasks internally, with bit ``label - 1`` standing for ``label``; the
public API speaks frozensets of integer labels.  Per-subset queries (rank,
independence, closure) scan the bases through Matroid._rank and build no
table, since ground sets reach 31 labels.  The families over all subsets
(flats, circuits) are read off one rank table over position masks, bit i for
the i-th ground element, which strongmaps shares.

The hex codec maps a matroid on ``{1..n}`` of rank ``r`` to a binary string of
length ``C(n, r)`` whose k-th character (counting from the left) is ``1``
exactly when the k-th r-subset in reverse lexicographic order is a basis, then
renders that string in hexadecimal after left-padding with zeros to a multiple
of four bits.  Reverse lexicographic order compares r-subsets by their sorted
descending label tuples, so for triples of {1..7} it begins 123, 124, 134,
234, 125, ...

Both canonical forms come from one search over the n! relabelings onto
{1..n} (n <= 9) for the least and greatest indicator value.  The least is
canonical_revlex_hex; the greatest is canonical_basis_masks, the least sorted
tuple of basis masks.  For sets of one size, ascending mask order is revlex
order (both compare the largest differing element), and relabeled families
have equally many bases; so two such tuples compare by the least mask in
which the families differ, which is the top bit where their values differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Iterable, Iterator


class MatroidError(ValueError):
    """Base class for all matroid construction and query errors."""


class RejectedNotEqualCardinality(MatroidError):
    """Raised when the proposed bases do not all have the same size."""


class RejectedExchangeAxiom(MatroidError):
    """Raised when basis exchange fails; carries a violating triple (A, B, a)."""

    def __init__(self, a_set: frozenset[int], b_set: frozenset[int], element: int):
        self.a_set = a_set
        self.b_set = b_set
        self.element = element
        super().__init__(
            f"exchange axiom fails: A={sorted(a_set)}, B={sorted(b_set)}, "
            f"a={element} admits no replacement b in B-A"
        )


class ExchangeAxiomFailure(RejectedExchangeAxiom):
    """Raised by decode_revlex when the decoded family is not a matroid."""


class RankOutOfRange(MatroidError):
    pass


class NotASubset(MatroidError):
    pass


class GroundSetOverlap(MatroidError):
    pass


class BadHexLength(MatroidError):
    pass


class TooLarge(MatroidError):
    pass


INFINITY = math.inf


def _mask(labels: Iterable[int]) -> int:
    m = 0
    for x in labels:
        m |= 1 << (x - 1)
    return m


def _labels(mask: int) -> tuple[int, ...]:
    out = []
    label = 1
    while mask:
        if mask & 1:
            out.append(label)
        mask >>= 1
        label += 1
    return tuple(out)


def _fset(mask: int) -> frozenset[int]:
    return frozenset(_labels(mask))


@dataclass(frozen=True)
class GroundSet:
    """Ordered ground set of small positive integer labels."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        object.__setattr__(self, "elements", elems)
        if not elems:
            raise MatroidError("ground set must be nonempty")
        if len(elems) > 31:
            raise TooLarge(f"ground set has {len(elems)} elements, limit is 31")
        if any(type(x) is not int or x < 1 or x > 31 for x in elems):
            raise MatroidError(f"labels must be integers in 1..31, got {elems}")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise MatroidError(f"labels must be strictly increasing, got {elems}")

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def mask(self) -> int:
        return _mask(self.elements)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __contains__(self, x: object) -> bool:
        return x in self.elements

    def __len__(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class RevlexCode:
    """Hex rendering of a basis indicator string, together with (n, r)."""

    n: int
    r: int
    hex: str


@dataclass(frozen=True)
class Matroid:
    """Immutable matroid given by ground set and basis masks.

    Use new_matroid / uniform / decode_revlex to construct; the dataclass
    constructor trusts its arguments.
    """

    ground: GroundSet
    basis_masks: frozenset[int]
    rank: int

    # -- basic views -------------------------------------------------------

    @property
    def n(self) -> int:
        return self.ground.size

    @property
    def bases(self) -> frozenset[frozenset[int]]:
        return frozenset(_fset(b) for b in self.basis_masks)

    @property
    def nonbasis_count(self) -> int:
        return math.comb(self.n, self.rank) - len(self.basis_masks)

    def __repr__(self) -> str:
        bs = ",".join("{" + ",".join(map(str, sorted(_labels(b)))) + "}" for b in sorted(self.basis_masks))
        return f"Matroid(E={list(self.ground.elements)}, rank={self.rank}, bases=[{bs}])"

    # -- rank / closure ----------------------------------------------------

    def _subset_mask(self, subset: Iterable[int]) -> int:
        m = _mask(subset)
        if m & ~self.ground.mask:
            raise NotASubset(f"{sorted(set(subset))} is not a subset of the ground set")
        return m

    def _rank(self, mask: int) -> int:
        return max((b & mask).bit_count() for b in self.basis_masks)

    def rank_of(self, subset: Iterable[int]) -> int:
        """Rank of a subset: the largest intersection with a basis."""
        return self._rank(self._subset_mask(subset))

    def is_independent(self, subset: Iterable[int]) -> bool:
        m = self._subset_mask(subset)
        return self._rank(m) == m.bit_count()

    def closure(self, subset: Iterable[int]) -> frozenset[int]:
        """All elements whose addition does not raise the rank."""
        m = self._subset_mask(subset)
        rk = self._rank(m)
        out = m
        for x in self.ground:
            bit = 1 << (x - 1)
            if not out & bit and self._rank(m | bit) == rk:
                out |= bit
        return _fset(out)

    # -- derived families --------------------------------------------------

    def independent_sets(self) -> frozenset[frozenset[int]]:
        seen: set[int] = set()
        for b in self.basis_masks:
            sub = b
            while True:
                seen.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & b
        return frozenset(_fset(s) for s in seen)

    def _positions_family(self, masks: Iterable[int]) -> frozenset[frozenset[int]]:
        """Position masks (bit i for the i-th ground element) as label sets."""
        elements = self.ground.elements
        return frozenset(frozenset(x for i, x in enumerate(elements) if s >> i & 1) for s in masks)

    def flats(self) -> frozenset[frozenset[int]]:
        rank = _rank_table(_position_bases(self), self.n)
        return self._positions_family(_flat_masks(rank))

    def circuits(self) -> frozenset[frozenset[int]]:
        """Minimal dependent sets: rank one below the size, every one-element
        deletion of the same rank (so independent)."""
        rank = _rank_table(_position_bases(self), self.n)
        bits = [1 << i for i in range(self.n)]
        circuits = (
            s
            for s, rk in enumerate(rank)
            if rk == s.bit_count() - 1 and all(rank[s & ~bit] == rk for bit in bits if s & bit)
        )
        return self._positions_family(circuits)

    def girth(self) -> int | float:
        """Size of the smallest circuit, or math.inf when none exists."""
        return min((len(c) for c in self.circuits()), default=INFINITY)

    def loops(self) -> frozenset[int]:
        return frozenset(x for x in self.ground if self.rank_of([x]) == 0)

    def parallel_pairs(self) -> frozenset[frozenset[int]]:
        loops = self.loops()
        out = []
        for x, y in combinations(self.ground.elements, 2):
            if x in loops or y in loops:
                continue
            if self.rank_of([x, y]) == 1:
                out.append(frozenset((x, y)))
        return frozenset(out)

    def is_simple(self) -> bool:
        return not self.loops() and not self.parallel_pairs()

    # -- minors ------------------------------------------------------------

    def delete(self, labels: Iterable[int]) -> Matroid:
        dm = self._subset_mask(labels)
        keep = self.ground.mask & ~dm
        if keep == 0:
            raise MatroidError("cannot delete the whole ground set")
        # a basis of the deletion is a largest trace of a basis on keep
        new_rank = self._rank(keep)
        new_bases = frozenset(
            b & keep for b in self.basis_masks if (b & keep).bit_count() == new_rank
        )
        return Matroid(GroundSet(_labels(keep)), new_bases, new_rank)

    def restrict(self, labels: Iterable[int]) -> Matroid:
        keep = self._subset_mask(labels)
        return self.delete(_labels(self.ground.mask & ~keep))


def new_matroid(elements: Iterable[int], bases: Iterable[Iterable[int]]) -> Matroid:
    """Validated constructor: checks cardinality and the basis exchange axiom.

    Exchange: for all bases A, B and every a in A - B there is b in B - A with
    A - a + b again a basis.  The first violating triple is reported.
    """
    ground = GroundSet(tuple(sorted(set(elements))))
    gm = ground.mask
    masks = set()
    sizes = set()
    for b in bases:
        m = _mask(b)
        if m & ~gm:
            raise NotASubset(f"basis {sorted(set(b))} is not a subset of the ground set")
        masks.add(m)
        sizes.add(m.bit_count())
    if not masks:
        raise MatroidError("a matroid needs at least one basis")
    if len(sizes) != 1:
        raise RejectedNotEqualCardinality(f"bases have mixed cardinalities {sorted(sizes)}")
    rank = sizes.pop()
    fmasks = frozenset(masks)
    violation = _exchange_violation(fmasks)
    if violation is not None:
        raise RejectedExchangeAxiom(*violation)
    return Matroid(ground, fmasks, rank)


def uniform(r: int, n: int) -> Matroid:
    """Uniform matroid U(r, n) on {1..n}; U(0, n) has the single basis {}."""
    if n < 1:
        raise MatroidError("n must be at least 1")
    if r < 0 or r > n:
        raise RankOutOfRange(f"rank {r} out of range 0..{n}")
    ground = GroundSet(tuple(range(1, n + 1)))
    masks = frozenset(_mask(c) for c in combinations(ground.elements, r))
    return Matroid(ground, masks, r)


def relabel(m: Matroid, mapping: dict[int, int]) -> Matroid:
    """Rename ground labels through an injective mapping."""
    new_elems = [mapping[x] for x in m.ground]
    if len(set(new_elems)) != len(new_elems):
        raise MatroidError("relabel mapping is not injective")
    new_bases = [[mapping[x] for x in _labels(b)] for b in m.basis_masks]
    ground = GroundSet(tuple(sorted(new_elems)))
    return Matroid(ground, frozenset(_mask(b) for b in new_bases), m.rank)


def direct_sum(m1: Matroid, m2: Matroid, offset: int | None = None) -> Matroid:
    """Direct sum on disjoint ground sets; offset relabels the second summand."""
    if offset is not None:
        m2 = relabel(m2, {x: x + offset for x in m2.ground})
    if m1.ground.mask & m2.ground.mask:
        overlap = sorted(_labels(m1.ground.mask & m2.ground.mask))
        raise GroundSetOverlap(f"ground sets share labels {overlap}")
    ground = GroundSet(tuple(sorted(m1.ground.elements + m2.ground.elements)))
    masks = frozenset(b1 | b2 for b1 in m1.basis_masks for b2 in m2.basis_masks)
    return Matroid(ground, masks, m1.rank + m2.rank)


# -- revlex codec -----------------------------------------------------------


def revlex_subsets(n: int, r: int) -> list[tuple[int, ...]]:
    """All r-subsets of {1..n} in reverse lexicographic order."""
    if r < 0 or r > n:
        raise RankOutOfRange(f"rank {r} out of range 0..{n}")
    return sorted(combinations(range(1, n + 1), r), key=lambda c: tuple(reversed(c)))


def decode_revlex(hex_string: str, n: int, r: int) -> Matroid:
    """Decode a hex basis-indicator string (digits 0-9, a-f only) into a validated matroid."""
    subsets = revlex_subsets(n, r)
    count = len(subsets)
    want_len = (count + 3) // 4
    hex_string = hex_string.strip().lower()
    if not set(hex_string) <= set("0123456789abcdef"):
        raise BadHexLength(f"not a hex string: {hex_string!r}")
    if len(hex_string) != want_len:
        raise BadHexLength(
            f"hex string for n={n}, r={r} must have {want_len} characters, got {len(hex_string)}"
        )
    value = int(hex_string, 16)
    if value >> count:
        raise BadHexLength(f"padding bits set in {hex_string!r}")
    bases = [subsets[k] for k in range(count) if (value >> (count - 1 - k)) & 1]
    if not bases:
        raise MatroidError("code selects no bases")
    try:
        return new_matroid(range(1, n + 1), bases)
    except RejectedExchangeAxiom as exc:
        raise ExchangeAxiomFailure(exc.a_set, exc.b_set, exc.element) from exc


def encode_revlex(m: Matroid) -> RevlexCode:
    """Encode a matroid on {1..n} as its revlex hex code."""
    n = m.n
    if m.ground.elements != tuple(range(1, n + 1)):
        raise MatroidError("encode_revlex needs ground set {1..n}; relabel first")
    subsets = revlex_subsets(n, m.rank)
    count = len(subsets)
    value = 0
    for k, combo in enumerate(subsets):
        if _mask(combo) in m.basis_masks:
            value |= 1 << (count - 1 - k)
    width = (count + 3) // 4
    return RevlexCode(n, m.rank, format(value, f"0{width}x"))


# -- enumeration and isomorphism-free canonical forms ------------------------


def _position_bases(m: Matroid) -> tuple[int, ...]:
    """Basis masks with bit i standing for the i-th ground element."""
    elements = m.ground.elements
    return tuple(
        sum(1 << i for i, x in enumerate(elements) if b >> (x - 1) & 1) for b in m.basis_masks
    )


def _rank_table(bases: tuple[int, ...], n: int) -> list[int]:
    """Rank of every mask over positions 0..n-1, from position-mask bases."""
    return [max((b & s).bit_count() for b in bases) for s in range(1 << n)]


def _flat_masks(rank: list[int]) -> list[int]:
    """Flats of a rank table, ascending: every outside element raises the rank."""
    n = len(rank).bit_length() - 1
    return [
        s
        for s, rk in enumerate(rank)
        if all(rank[s | 1 << i] > rk for i in range(n) if not s >> i & 1)
    ]


def _position_subsets(n: int, r: int) -> dict[int, tuple[int, ...]]:
    """Every r-subset of positions 0..n-1 by mask, in revlex order.  Each
    relabeling search starts here, so its guard (n <= 9, 9! = 362880) is here."""
    if n > 9:
        raise TooLarge(f"relabeling search is guarded to degree 9, got {n}")
    bits = [1 << i for i in range(n)]
    return dict(sorted(zip(map(sum, combinations(bits, r)), combinations(range(n), r))))


def _revlex_extremes(m: Matroid) -> tuple[int, int, dict[int, int]]:
    """Least and greatest revlex indicator value over all relabelings onto {1..n}.

    Also returns the indicator bit of every r-subset mask, in revlex order.
    """
    subsets = _position_subsets(m.n, m.rank)
    count = len(subsets)
    weight = {s: 1 << (count - 1 - k) for k, s in enumerate(subsets)}
    places = [subsets[b] for b in _position_bases(m)]
    # perm[i] is the new bit of position i; distinct bases keep distinct images
    values = [
        sum([weight[sum(map(perm.__getitem__, p))] for p in places])
        for perm in permutations([1 << i for i in range(m.n)])
    ]
    return min(values), max(values), weight


def canonical_basis_masks(m: Matroid) -> tuple[int, ...]:
    """Sorted basis masks minimized over all relabelings onto {1..n}: the
    relabeling with the greatest revlex indicator value (module docstring)."""
    _, greatest, weight = _revlex_extremes(m)
    return tuple(s for s, bit in weight.items() if greatest & bit)


def canonical_form(m: Matroid) -> Matroid:
    """Canonical representative of the isomorphism class, on ground {1..n}."""
    masks = canonical_basis_masks(m)
    return Matroid(GroundSet(tuple(range(1, m.n + 1))), frozenset(masks), m.rank)


def canonical_revlex_hex(m: Matroid) -> str:
    """Hex code of the relabeling that minimizes the revlex indicator value.

    This is the representative convention of the published matroid tables:
    loops take the smallest labels, pushing basis bits toward the low end of
    the indicator integer.
    """
    least, _, weight = _revlex_extremes(m)
    return format(least, f"0{(len(weight) + 3) // 4}x")


def enumerate_matroids(n: int, r: int, up_to_iso: bool = False) -> list[Matroid]:
    """All matroids on {1..n} of rank r, optionally one per isomorphism class.

    Exhaustive search over basis families, guarded to n <= 5.  A class
    representative has canonical_basis_masks as its basis masks, in
    ascending order of those tuples.
    """
    if n > 5:
        raise TooLarge(f"enumeration is guarded to n <= 5, got n={n}")
    if n < 1:
        raise MatroidError("n must be at least 1")
    if r < 0 or r > n:
        raise RankOutOfRange(f"rank {r} out of range 0..{n}")
    ground = GroundSet(tuple(range(1, n + 1)))
    combos = [_mask(c) for c in combinations(range(1, n + 1), r)]
    found: list[Matroid] = []
    for selector in range(1, 1 << len(combos)):
        fam = frozenset(combos[i] for i in range(len(combos)) if (selector >> i) & 1)
        if _exchange_violation(fam) is None:
            found.append(Matroid(ground, fam, r))
    if not up_to_iso:
        return found
    keys = sorted({canonical_basis_masks(m) for m in found})
    return [Matroid(ground, frozenset(k), r) for k in keys]


def enumerate_all_matroids(n: int, up_to_iso: bool = False) -> list[Matroid]:
    """Matroids on {1..n} across all ranks 0..n."""
    out: list[Matroid] = []
    for r in range(n + 1):
        out.extend(enumerate_matroids(n, r, up_to_iso))
    return out


def _exchange_violation(
    masks: frozenset[int],
) -> tuple[frozenset[int], frozenset[int], int] | None:
    """First violation (A, B, a) of basis exchange, or None when it holds.

    a is in A - B and no b in B - A makes A - a + b a basis.  The search runs
    in iteration order over masks, so the violation reported is deterministic.
    """
    for am in masks:
        for bm in masks:
            diff = am & ~bm
            while diff:
                abit = diff & -diff
                diff &= diff - 1
                stripped = am & ~abit
                cand = bm & ~am
                while cand:
                    bbit = cand & -cand
                    cand &= cand - 1
                    if (stripped | bbit) in masks:
                        break
                else:
                    return _fset(am), _fset(bm), abit.bit_length()
    return None
