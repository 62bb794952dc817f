"""Strong maps between pointed matroids, hom counting, and the hom-profile
isomorphism test.

Every matroid is silently extended by a basepoint loop 0; a map between
ground sets may send elements to the basepoint, which models deletion.  A
mapping f is a strong map when the preimage of every pointed flat is a
pointed flat, concretely: for each flat G of the target, the set of source
elements mapped into G or to the basepoint must be a flat of the source.

Checking hyperplanes suffices: f is strong exactly when the preimage,
basepoint included, of every hyperplane of the target is a flat of the
source.  Preimages commute with intersections, every proper flat is an
intersection of hyperplanes, intersections of flats are flats, and the
preimage of the whole target is the whole source.  A rank-0 target has no
hyperplanes, so every map into it is strong.  is_strong_map still checks
every flat and is the reference the enumeration is tested against.

One walk finds every strong map.  It assigns source elements depth first,
in itertools.product order, carrying one partial preimage per target
hyperplane, and calls a leaf function at each strong map instead of building
it: hom_counts and the embedding count keep a tally per image, the checks
that need only a number of maps add to one integer, and strong_maps collects
the assignments.
A branch is pruned as soon as a partial preimage is not the trace of any
source flat on the elements assigned so far, since no completion can then
make it a flat.  Two exact restrictions serve the decomposition check.  For
surjections, a branch is also pruned once fewer source elements are left
than target elements not yet hit; for embeddings, the basepoint and every
target element already hit are no candidates, and the count keeps the
images of the source's rank.  No surjection goes onto a class with more
elements than the source and no embedding comes from one with more than the
target, so such catalog entries are skipped before any walk.
Each public call builds the bitmask tables of its matroids (flats,
hyperplanes, ranks) once and drops them when it returns; only a Catalog
holds anything between calls.  A Catalog is the caller's table of class
representatives, and it holds three facts about each of its own entries:
the class key, the tables and the automorphism order, each found once, on
first use.  iso_class_catalog takes every key from the enumeration, so no
relabeling search runs for it.  A plain list is wrapped into a Catalog for
the length of one call.  Strong-map counts are facts about pairs, not
entries, and are never held: repeating a call repeats all of its counting,
and no matroid is changed.

Since images of maps can be empty, the catalog of isomorphism classes needs
an explicit empty matroid, which the main matroid type cannot represent; the
module-level EMPTY_MATROID sentinel stands for it.

Hom counts decompose through images: the number of strong maps M1 -> M2
equals the sum over isomorphism classes N of

    Surj(M1, N) * Emb(N, M2) / |Aut(N)|

because a map factors uniquely up to an automorphism of its image class as a
surjection onto the image followed by an embedding.  Hom profiles against a
catalog of all classes up to the larger ground set size separate isomorphism
classes, which turns isomorphism testing into comparing count vectors.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, NamedTuple, Union

from .autgroup import automorphism_group
from .matroids import (
    Matroid,
    TooLarge,
    _flat_masks,
    _position_bases,
    _rank_table,
    canonical_basis_masks,
    enumerate_all_matroids,
    relabel,
)

BASEPOINT = 0

MAP_ENUMERATION_CAP = 10_000_000


class CatalogIncomplete(ValueError):
    pass


class _EmptyMatroid:
    """Sentinel for the matroid on the empty ground set (rank 0, one basis)."""

    n = 0
    rank = 0

    def __repr__(self) -> str:
        return "EMPTY_MATROID"


EMPTY_MATROID = _EmptyMatroid()

AnyMatroid = Union[Matroid, _EmptyMatroid]

EMPTY_KEY = (0, (0,))


def iso_key(m: AnyMatroid) -> tuple[int, tuple[int, ...]]:
    """Hashable isomorphism-class key: ground size plus canonical basis masks."""
    if isinstance(m, _EmptyMatroid):
        return EMPTY_KEY
    return (m.n, canonical_basis_masks(m))


def aut_order(m: AnyMatroid) -> int:
    if isinstance(m, _EmptyMatroid):
        return 1
    return automorphism_group(m).order


@dataclass(frozen=True)
class StrongMap:
    """A verified strong map; mapping sends source labels to target labels or 0."""

    source: Matroid
    target: Matroid
    mapping: tuple[tuple[int, int], ...]

    def __call__(self, x: int) -> int:
        return dict(self.mapping)[x]

    @property
    def image_labels(self) -> frozenset[int]:
        return frozenset(v for _, v in self.mapping if v != BASEPOINT)

    @property
    def is_surjective(self) -> bool:
        return self.image_labels == frozenset(self.target.ground)

    @property
    def is_embedding(self) -> bool:
        return _is_embedding(self.source, self.target, dict(self.mapping))

    def image(self) -> AnyMatroid:
        labels = self.image_labels
        if not labels:
            return EMPTY_MATROID
        return self.target.restrict(labels)


def is_strong_map(m1: Matroid, m2: Matroid, mapping: dict[int, int]) -> bool:
    """Check the pointed flat preimage condition for an explicit mapping."""
    if sorted(mapping) != sorted(m1.ground.elements):
        raise ValueError("mapping must be defined on exactly the source ground set")
    allowed = set(m2.ground.elements) | {BASEPOINT}
    if any(v not in allowed for v in mapping.values()):
        raise ValueError("mapping values must be target labels or the basepoint 0")
    flats1 = m1.flats()
    for g in m2.flats():
        pre = frozenset(x for x, v in mapping.items() if v == BASEPOINT or v in g)
        if pre not in flats1:
            return False
    return True


def _is_embedding(m1: Matroid, m2: Matroid, mapping: dict[int, int]) -> bool:
    # An embedding needs the image restriction isomorphic to the source; for
    # an injective basepoint-free strong map this forces equal ranks, and a
    # strong bijection between equal-rank matroids is itself an isomorphism,
    # so testing isomorphy along the map is equivalent.
    values = list(mapping.values())
    if BASEPOINT in values or len(set(values)) != len(values):
        return False
    return relabel(m1, mapping) == m2.restrict(values)


class _Tables(NamedTuple):
    """One matroid as position masks: bit i stands for the i-th ground element."""

    n: int
    rank: list[int]  # rank of every position mask
    # hits[c]: bit j is set when hyperplane j holds codomain index c, where 0
    # is the basepoint, in every hyperplane, and i + 1 is position i
    hits: tuple[int, ...]
    # steps[k][p], for p the trace of a flat on positions below k: bit 0 is
    # set when p is also such a trace below k + 1, bit 1 when p | 1 << k is
    steps: tuple[dict[int, int], ...]


def _tables(m: AnyMatroid) -> _Tables:
    n = m.n
    bases = (0,) if isinstance(m, _EmptyMatroid) else _position_bases(m)
    rank = _rank_table(bases, n)
    flats = _flat_masks(rank)
    hyperplanes = [f for f in flats if rank[f] == rank[-1] - 1]
    hits = ((1 << len(hyperplanes)) - 1,) + tuple(
        sum(1 << j for j, g in enumerate(hyperplanes) if g >> i & 1) for i in range(n)
    )
    steps = []
    for k in range(n):
        below, upto = (1 << k) - 1, (1 << (k + 1)) - 1
        traces = {f & upto for f in flats}
        steps.append(
            {f & below: (f & below in traces) | (f & below | 1 << k in traces) << 1 for f in flats}
        )
    return _Tables(n, rank, hits, tuple(steps))


def _check_cap(n1: int, n2: int) -> None:
    total = (n2 + 1) ** n1
    if total > MAP_ENUMERATION_CAP:
        raise TooLarge(f"{total} candidate maps exceed cap {MAP_ENUMERATION_CAP}")


def _walk(
    t1: _Tables,
    t2: _Tables,
    leaf: Callable[[list[int], int], None],
    onto: bool = False,
    injective: bool = False,
) -> None:
    """Call leaf(values, image) at every strong map, in product order.

    values[k] is the codomain index of source position k, where 0 is the
    basepoint and i + 1 the target's position i, and image is the mask of
    target positions hit.  Source positions are assigned depth first; one
    preimage mask per target hyperplane is carried, all packed into one
    integer with n1 bits each.  onto keeps only the maps that hit every
    target position, injective only those that send distinct source
    positions to distinct target positions and none to the basepoint.
    """
    n1, n2 = t1.n, t2.n
    hits = t2.hits
    h = hits[0].bit_length()
    spread = [sum(1 << (j * n1) for j in range(h) if c >> j & 1) for c in hits]
    image_bits = [0] + [1 << i for i in range(n2)]
    chunk = (1 << n1) - 1
    shifts = [j * n1 for j in range(h)]
    codomain = range(1 if injective else 0, n2 + 1)
    full = (1 << n2) - 1
    values = [0] * n1

    def visit(k: int, packed: int, image: int) -> None:
        # onto: the n1 - k positions left must still hit every missing one
        if onto and n1 - k < (full & ~image).bit_count():
            return
        if k == n1:  # only an empty source gets here; the loop below ends the rest
            leaf(values, image)
            return
        step = t1.steps[k]
        # need_in: rows that must take position k; need_out: rows that must not
        need_in = need_out = 0
        for j, shift in enumerate(shifts):
            code = step[packed >> shift & chunk]
            if not code & 1:
                need_in |= 1 << j
            if not code & 2:
                need_out |= 1 << j
        taken = image if injective else 0
        for c in codomain:
            row = hits[c]
            if row & need_out or need_in & ~row or image_bits[c] & taken:
                continue
            values[k] = c
            if k + 1 < n1:
                visit(k + 1, packed | spread[c] << k, image | image_bits[c])
            elif not onto or image | image_bits[c] == full:
                # the last position: each c left completes a strong map
                leaf(values, image | image_bits[c])

    visit(0, 0, 0)


def _count(
    t1: _Tables, t2: _Tables, onto: bool = False, injective: bool = False
) -> dict[int, int]:
    """The number of strong maps per image mask, under the walk's restrictions."""
    by_image: dict[int, int] = {}

    def tally(values: list[int], image: int) -> None:
        by_image[image] = by_image.get(image, 0) + 1

    _walk(t1, t2, tally, onto, injective)
    return by_image


def _total(t1: _Tables, t2: _Tables, onto: bool = False) -> int:
    """The number of strong maps, or of surjections when onto: one integer, no tally."""
    total = 0

    def add(values: list[int], image: int) -> None:
        nonlocal total
        total += 1

    _walk(t1, t2, add, onto)
    return total


def _embeddings(t1: _Tables, t2: _Tables, by_image: dict[int, int]) -> int:
    # n1 image elements: injective and nothing sent to the basepoint; such a
    # strong map is an embedding exactly when it keeps the source's rank,
    # since a strong bijection between equal-rank matroids is an isomorphism
    return sum(
        count
        for image, count in by_image.items()
        if image.bit_count() == t1.n and t2.rank[image] == t1.rank[-1]
    )


def strong_maps(m1: Matroid, m2: Matroid) -> Iterator[StrongMap]:
    """All strong maps, in itertools.product order of their target values."""
    _check_cap(m1.n, m2.n)
    found: list[tuple[int, ...]] = []
    _walk(_tables(m1), _tables(m2), lambda values, image: found.append(tuple(values)))
    src = m1.ground.elements
    codomain = (BASEPOINT,) + m2.ground.elements
    for values in found:
        yield StrongMap(m1, m2, tuple(zip(src, [codomain[c] for c in values])))


@dataclass(frozen=True)
class HomCounts:
    hom: int
    surj: int
    emb: int
    by_image_class: tuple[tuple[tuple[int, tuple[int, ...]], int], ...]

    def image_class_counts(self) -> dict[tuple[int, tuple[int, ...]], int]:
        return dict(self.by_image_class)


def hom_counts(m1: AnyMatroid, m2: AnyMatroid) -> HomCounts:
    """Count strong maps m1 -> m2, the surjective ones, and the embeddings."""
    _check_cap(m1.n, m2.n)
    t1, t2 = _tables(m1), _tables(m2)
    by_image = _count(t1, t2)
    by_class: dict[tuple[int, tuple[int, ...]], int] = {}
    for image, count in by_image.items():
        if image:
            labels = [x for i, x in enumerate(m2.ground.elements) if image >> i & 1]
            key = iso_key(m2.restrict(labels))
        else:
            key = EMPTY_KEY
        by_class[key] = by_class.get(key, 0) + count
    hom, surj = sum(by_image.values()), by_image.get((1 << t2.n) - 1, 0)
    emb = _embeddings(t1, t2, by_image)
    return HomCounts(hom, surj, emb, tuple(sorted(by_class.items())))


class CatalogEntry:
    """One catalog matroid with its ground set size, class key, tables and
    automorphism order, each computed on first use and then held."""

    def __init__(self, matroid: AnyMatroid, key: tuple[int, tuple[int, ...]] | None = None):
        self.matroid = matroid
        if key is not None:
            self.key = key

    @cached_property
    def n(self) -> int:
        return self.matroid.n

    @cached_property
    def key(self) -> tuple[int, tuple[int, ...]]:
        return iso_key(self.matroid)

    @cached_property
    def tables(self) -> _Tables:
        return _tables(self.matroid)

    @cached_property
    def aut(self) -> int:
        return aut_order(self.matroid)


class Catalog(Sequence):
    """A sequence of class representatives that holds facts about each entry.

    It reads as the tuple of its matroids; slicing and + give catalogs that
    share the entries, and so what they hold.
    """

    def __init__(self, entries: Iterable[CatalogEntry]):
        self.entries = tuple(entries)

    @classmethod
    def wrap(cls, catalog: Iterable[AnyMatroid]) -> Catalog:
        """catalog itself if it is a Catalog, else its matroids with nothing held yet."""
        if isinstance(catalog, Catalog):
            return catalog
        return cls(CatalogEntry(m) for m in catalog)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Catalog(self.entries[i])
        return self.entries[i].matroid

    def __iter__(self) -> Iterator[AnyMatroid]:
        return (e.matroid for e in self.entries)

    def __add__(self, other: Iterable[AnyMatroid]) -> Catalog:
        return Catalog(self.entries + Catalog.wrap(other).entries)


def iso_class_catalog(max_n: int) -> Catalog:
    """One representative per isomorphism class with at most max_n elements."""
    entries = [CatalogEntry(EMPTY_MATROID, EMPTY_KEY)]
    for n in range(1, max_n + 1):
        # each representative is built on its canonical basis masks, so
        # those masks, sorted, are its key
        entries.extend(
            CatalogEntry(m, (n, tuple(sorted(m.basis_masks))))
            for m in enumerate_all_matroids(n, up_to_iso=True)
        )
    return Catalog(entries)


@dataclass(frozen=True)
class DecompositionTerm:
    matroid: AnyMatroid
    surj: int
    emb: int
    aut: int

    @property
    def contribution(self) -> Fraction:
        return Fraction(self.surj * self.emb, self.aut)


@dataclass(frozen=True)
class DecompositionReport:
    hom: int
    total: Fraction
    terms: tuple[DecompositionTerm, ...]

    @property
    def ok(self) -> bool:
        return self.total == self.hom


def verify_decomposition(
    m1: AnyMatroid, m2: AnyMatroid, catalog: Iterable[AnyMatroid]
) -> DecompositionReport:
    """Check hom = sum over classes of surj * emb / aut against a catalog.

    Raises CatalogIncomplete when some image class of an actual strong map has
    no representative in the catalog, since the identity cannot hold then,
    and ValueError when the catalog repeats a class, whose term would then
    be counted twice.
    """
    entries = Catalog.wrap(catalog).entries
    keys = Counter(e.key for e in entries)
    repeated = sorted(k for k, count in keys.items() if count > 1)
    if repeated:
        raise ValueError(f"catalog repeats isomorphism classes with keys {repeated}")
    direct = hom_counts(m1, m2)
    missing = [k for k, _ in direct.by_image_class if k not in keys]
    if missing:
        raise CatalogIncomplete(f"catalog lacks image classes with keys {missing}")
    n1, n2 = m1.n, m2.n
    for e in entries:
        _check_cap(n1, e.n)
        _check_cap(e.n, n2)
    t1, t2 = _tables(m1), _tables(m2)
    terms = []
    total = Fraction(0)
    for e in entries:
        # pigeonhole: no surjection onto a larger class, no embedding of one
        if e.n > n1 or e.n > n2:
            continue
        s = _total(t1, e.tables, onto=True)
        if s == 0:
            continue
        emb = _embeddings(e.tables, t2, _count(e.tables, t2, injective=True))
        if emb == 0:
            continue
        term = DecompositionTerm(e.matroid, s, emb, e.aut)
        terms.append(term)
        total += term.contribution
    return DecompositionReport(direct.hom, total, tuple(terms))


def hom_profile(m: AnyMatroid, catalog: Iterable[AnyMatroid]) -> tuple[int, ...]:
    """Vector of hom counts from m into each catalog representative."""
    t = _tables(m)
    out = []
    for e in Catalog.wrap(catalog).entries:
        _check_cap(t.n, e.n)
        out.append(_total(t, e.tables))
    return tuple(out)


def lovasz_isomorphism_test(
    m1: AnyMatroid,
    m2: AnyMatroid,
    catalog: Iterable[AnyMatroid] | None = None,
    return_witness: bool = False,
):
    """Decide isomorphism by comparing hom profiles over a separating catalog.

    Strong-map counts out of the two candidates separate isomorphism classes
    (the direction is opposite to the graph homomorphism count theorem); a
    catalog covering every class up to the larger ground set size suffices,
    since equal counts into each candidate's own class already force mutually
    surjective strong maps.
    """
    if catalog is None:
        catalog = iso_class_catalog(max(m1.n, m2.n))
    t1, t2 = _tables(m1), _tables(m2)
    for e in Catalog.wrap(catalog).entries:
        _check_cap(t1.n, e.n)
        _check_cap(t2.n, e.n)
        a = _total(t1, e.tables)
        b = _total(t2, e.tables)
        if a != b:
            return (False, (e.matroid, a, b)) if return_witness else False
    return (True, None) if return_witness else True
