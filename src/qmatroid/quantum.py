"""Quantum automorphism group ideals of matroids and commutativity decisions.

The quantum symmetric group on a label set E is presented by the magic-unitary
ideal: idempotent generators u[i,j]^2 - u[i,j], row and column orthogonality
u[i,k]u[i,l] and u[k,j]u[l,j] for k != l, and row and column sums adding to 1.
A matroid axiom system (bases, circuits, flats, independent sets) contributes
monomial mismatch generators u_AB = u[a1,b1]...u[ak,bk] over pairs of equal
length tuples where exactly one of A, B lies in the distinguished tuple
family.  Tuple families per kind:

- independent: repeat-free tuples with independent underlying set, lengths
  1..rank
- bases: repeat-free tuples over bases, length exactly rank
- circuits: diagonal pairs (a, a) for non-loops, plus repeat-free tuples over
  circuits (every circuit cardinality that occurs, including loops at length 1)
- flats: repeat-free tuples over flats, every flat cardinality that occurs

Lengths with no family member can contribute no mismatch, so only the listed
lengths ever matter; the generated ideal agrees with the unrestricted
definition over all tuple lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterable, Mapping

from .groebner import EngineConfig, GroebnerBasis, buchberger
from .matroids import Matroid, TooLarge
from .ncpoly import Algebra, NcPolynomial, normal_remainder

AXIOM_KINDS = ("bases", "circuits", "flats", "independent")

_FAMILIES = {
    "bases": lambda m: m.bases,
    "circuits": Matroid.circuits,
    "flats": Matroid.flats,
    "independent": Matroid.independent_sets,
}

GENERATOR_CAP = 5_000_000


class LabelOverlap(ValueError):
    pass


class WrongRank(ValueError):
    pass


class HasLoops(ValueError):
    pass


class InternalInconsistency(RuntimeError):
    """A structure theorem and a completed basis computation disagree."""


def tuple_set(m: Matroid, kind: str) -> dict[int, frozenset[tuple[int, ...]]]:
    """The tuple family a matroid contributes under one axiom system, by
    length: every ordering of every nonempty member, plus the circuits'
    diagonal pairs."""
    if kind not in AXIOM_KINDS:
        raise ValueError(f"axioms must be one of {AXIOM_KINDS}, got {kind!r}")
    tuples = [t for s in _FAMILIES[kind](m) if s for t in permutations(s)]
    if kind == "circuits":
        loops = m.loops()
        tuples.extend((x, x) for x in m.ground if x not in loops)
    by_length: dict[int, set[tuple[int, ...]]] = {}
    for t in tuples:
        by_length.setdefault(len(t), set()).add(t)
    return {k: frozenset(v) for k, v in by_length.items()}


def qsym_ideal_generators(alg: Algebra) -> list[NcPolynomial]:
    """Magic-unitary relations of the quantum symmetric group on alg's labels."""
    gens: list[NcPolynomial] = []
    labels = alg.labels
    one = alg.one()
    for i in labels:
        for j in labels:
            u = alg.gen(i, j)
            gens.append(u * u - u)
    for i in labels:
        for k in labels:
            for l in labels:
                if k != l:
                    gens.append(alg.gen(i, k) * alg.gen(i, l))
    for j in labels:
        for k in labels:
            for l in labels:
                if k != l:
                    gens.append(alg.gen(k, j) * alg.gen(l, j))
    for i in labels:
        s = alg.zero()
        for k in labels:
            s = s + alg.gen(i, k)
        gens.append(s - one)
    for j in labels:
        s = alg.zero()
        for k in labels:
            s = s + alg.gen(k, j)
        gens.append(s - one)
    return gens


def tuple_ideal_generators(
    alg: Algebra, tuples: dict[int, frozenset[tuple[int, ...]]]
) -> list[NcPolynomial]:
    """Mismatch monomials u_AB where exactly one of A, B is in the family,
    given by length as tuple_set returns it."""
    labels = alg.labels
    n = len(labels)
    total = 0
    for length, fam in tuples.items():
        total += 2 * len(fam) * (n**length - len(fam))
    if total > GENERATOR_CAP:
        raise TooLarge(
            f"tuple ideal would need {total} mismatch generators (cap {GENERATOR_CAP})"
        )
    # var_id raises VariableUniverseMismatch for a label outside the algebra
    for x in sorted({x for fam in tuples.values() for t in fam for x in t}):
        alg.var_id(x, x)
    letter = alg.letter
    gens: list[NcPolynomial] = []
    for length in sorted(tuples):
        fam = tuples[length]
        outside = [t for t in product(labels, repeat=length) if t not in fam]
        for a in sorted(fam):
            for b in outside:
                gens.append(NcPolynomial(alg, {bytes([letter[p] for p in zip(a, b)]): 1}))
                gens.append(NcPolynomial(alg, {bytes([letter[p] for p in zip(b, a)]): 1}))
    return gens


@dataclass(frozen=True, eq=False)
class QuantumGroupSpec:
    """An ideal presentation of a compact quantum permutation group."""

    algebra: Algebra
    generators: tuple[NcPolynomial, ...]
    matroid: Matroid | None = None
    axioms: str | None = None
    description: str = ""


def quantum_aut_spec(m: Matroid, axioms: str) -> QuantumGroupSpec:
    """Ideal of the quantum automorphism group of m under one axiom system."""
    alg = Algebra(m.ground.elements)
    gens = qsym_ideal_generators(alg)
    gens.extend(tuple_ideal_generators(alg, tuple_set(m, axioms)))
    return QuantumGroupSpec(
        algebra=alg,
        generators=tuple(gens),
        matroid=m,
        axioms=axioms,
        description=f"qaut[{axioms}]",
    )


def quantum_symmetric_spec(labels: Iterable[int]) -> QuantumGroupSpec:
    """The quantum symmetric group on a label set (no matroid constraints)."""
    alg = Algebra(tuple(sorted(labels)))
    return QuantumGroupSpec(
        algebra=alg,
        generators=tuple(qsym_ideal_generators(alg)),
        description=f"qsym({list(alg.labels)})",
    )


def commutators(alg: Algebra) -> list[NcPolynomial]:
    """u v - v u over distinct generator pairs, (row, col, row, col) lexicographic."""
    gens = [(i, j) for i in alg.labels for j in alg.labels]
    out = []
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            u = alg.gen(*gens[a])
            v = alg.gen(*gens[b])
            out.append(u * v - v * u)
    return out


@dataclass(frozen=True)
class CommutativityVerdict:
    verdict: str  # "commutative" | "noncommutative" | "unknown"
    method: str
    witness: tuple[NcPolynomial, NcPolynomial] | None = None
    gb: GroebnerBasis | None = None

    @property
    def status(self) -> str:
        """The status column: "shortcut" for a theorem verdict, else the basis status."""
        return "shortcut" if self.gb is None else self.gb.status.render()


def theorem_shortcuts(m: Matroid, axioms: str) -> CommutativityVerdict | None:
    """Verdicts that follow from structure theorems without any computation.

    The flats-axiom quantum group always equals the commutative function
    algebra of the classical automorphism group, and girth at least four
    forces commutativity under the bases and independent-set axioms.
    """
    if axioms == "flats":
        return CommutativityVerdict("commutative", "theorem-shortcut:flats")
    if axioms in ("bases", "independent") and m.girth() >= 4:
        return CommutativityVerdict("commutative", "theorem-shortcut:girth")
    return None


def decide_commutativity(
    spec: QuantumGroupSpec,
    config: EngineConfig = EngineConfig(),
    *,
    shortcuts: bool = True,
) -> CommutativityVerdict:
    """Semi-decide whether the quotient by the spec's ideal is commutative.

    A zero normal form of every commutator proves commutativity for any basis
    status (reduction to zero certifies ideal membership).  A nonzero normal
    form proves noncommutativity only against a complete basis; against a
    truncated or aborted basis the answer is unknown.  Raises
    InternalInconsistency when a complete basis says noncommutative but a
    structure theorem (theorem_shortcuts) proves the spec's matroid and axiom
    system commutative.
    """
    known = spec.matroid is not None and spec.axioms is not None
    if shortcuts and known:
        sc = theorem_shortcuts(spec.matroid, spec.axioms)
        if sc is not None:
            return sc
    gb = buchberger(spec.generators, config)
    for c in commutators(spec.algebra):
        nf = normal_remainder(c, gb.reducer)
        if not nf.is_zero():
            if not gb.status.is_complete:
                return CommutativityVerdict("unknown", "groebner", (c, nf), gb)
            # with shortcuts on, the theorems were consulted above and said nothing
            sc = theorem_shortcuts(spec.matroid, spec.axioms) if known and not shortcuts else None
            if sc is not None and sc.verdict == "commutative":
                raise InternalInconsistency(
                    f"{spec.axioms} axioms: completed basis says noncommutative but "
                    f"{sc.method} proves commutative"
                )
            return CommutativityVerdict("noncommutative", "groebner", (c, nf), gb)
    return CommutativityVerdict("commutative", "groebner", None, gb)


def eval_at_permutation(p: NcPolynomial, sigma: Mapping[int, int]) -> Fraction:
    """Apply the evaluation homomorphism u[i,j] -> [sigma(i) == j]."""
    labels = p.alg.labels
    if sorted(sigma) != sorted(labels) or sorted(sigma.values()) != sorted(labels):
        raise ValueError("sigma must be a bijection on the algebra labels")
    total = Fraction(0)
    for w, c in p.terms.items():
        ok = True
        for v in p.alg.letters(w):
            if sigma[v.row] != v.col:
                ok = False
                break
        if ok:
            total += c
    return total


def free_product_ideal(
    spec1: QuantumGroupSpec, spec2: QuantumGroupSpec
) -> QuantumGroupSpec:
    """Ideal of the free product, as a quantum permutation group on the union.

    Generators: the magic-unitary relations of the union, both factor ideals
    embedded, and every cross-block generator u[i,j] with i and j in different
    factors.
    """
    e1 = spec1.algebra.labels
    e2 = spec2.algebra.labels
    if set(e1) & set(e2):
        raise LabelOverlap(f"factors share labels {sorted(set(e1) & set(e2))}")
    alg = Algebra(tuple(sorted(e1 + e2)))
    ident = {x: x for x in alg.labels}
    gens: list[NcPolynomial] = []
    gens.extend(qsym_ideal_generators(alg))
    gens.extend(g.map_labels(ident, alg) for g in spec1.generators)
    gens.extend(g.map_labels(ident, alg) for g in spec2.generators)
    for i in e1:
        for j in e2:
            gens.append(alg.gen(i, j))
            gens.append(alg.gen(j, i))
    return QuantumGroupSpec(
        algebra=alg,
        generators=tuple(gens),
        description=f"freeproduct({spec1.description or 'left'}|{spec2.description or 'right'})",
    )


def graph_qaut_ideal(m: Matroid) -> QuantumGroupSpec:
    """Quantum automorphism ideal of the graph joining distinct rank-1 flats.

    Only defined for loopless rank-2 matroids; vertices are the ground
    elements, and two are adjacent when their closures differ.  Serves as an
    independently derived oracle for the bases-axiom quantum group.
    """
    if m.rank != 2:
        raise WrongRank(f"rank-2 construction on a rank-{m.rank} matroid")
    if m.loops():
        raise HasLoops(f"matroid has loops {sorted(m.loops())}")
    labels = m.ground.elements
    closures = {x: m.closure([x]) for x in labels}

    def adj(x: int, y: int) -> bool:
        return x != y and closures[x] != closures[y]

    alg = Algebra(labels)
    gens = qsym_ideal_generators(alg)
    for a in labels:
        for b in labels:
            for c in labels:
                for d in labels:
                    if adj(a, c) != adj(b, d):
                        gens.append(alg.gen(a, b) * alg.gen(c, d))
    return QuantumGroupSpec(
        algebra=alg,
        generators=tuple(gens),
        matroid=m,
        axioms=None,
        description="graph-qaut(parallel-class graph)",
    )
