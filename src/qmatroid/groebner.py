"""Noncommutative Buchberger engine with obstruction queue and budget semantics.

The engine keeps a priority queue of obstructions keyed by the degree of the
common multiple word (FIFO among equal degrees, which makes the selection
fair), reduces S-polynomials to normal form against the current basis through
one kernel.Reducer, and appends nonzero remainders.  Appending costs about the
size of the new leading word, not of the basis: the reducer's trie insert
walks that word once, and prefix, suffix and factor indexes of the basis
leading words name the only earlier elements whose obstructions with the new
one can be nonempty.  The finished basis is interreduced, which makes it the
reduced basis the .gb files record (Mora, TCS 134, 1994).

The feed skips a monomial input whose word contains the word of a monomial
already known to lie in the ideal: an earlier monomial input, or a basis
element with no tail.  A second automaton over those words finds such a
factor in one scan.  A skipped input lies in the ideal of what was fed, and
the reduced basis depends only on the ideal, so complete runs return the same
basis.  Degree-bounded runs screen only inputs within the bound (see
_Engine.screened); their bases then matched the unscreened engine on every
ideal tried.

Budgets: a degree bound discards the obstructions whose common word is
longer, and a wall-clock or iteration budget stops the run with the partial
basis (status GBStatus.aborted("time") or GBStatus.aborted("iterations")).
When the queue runs out, every discarded obstruction is reduced, in discard
order, against the final engine basis.  If all of them reduce to zero the
run is GBStatus.complete(): the engine never removes an element, every
obstruction it processed reduced to zero against part of the final basis or
left a remainder that joined it, and every input was fed or lies in the ideal
of those fed, so by Buchberger's criterion (Bergman's diamond lemma) the
engine basis is a Groebner basis and interreduction returns the reduced one,
the same as an unbounded run.  The first nonzero remainder, or a time budget
running out during this check, gives GBStatus.truncated(d).  A truncated or
aborted basis still proves ideal membership whenever a reduction reaches
zero; only completeness claims need the complete status.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from typing import Iterable, Sequence

from . import kernel
from .ncpoly import (
    Algebra,
    NcPolynomial,
    VariableUniverseMismatch,
    ZeroPolynomial,
    add_terms,
    data_terms,
    monic_data,
    normal_remainder,
)

ORDER = "degrevlex"  # the monomial order of every basis, recorded in .gb headers

# The wall-clock budget of a run that does not set its own: ten minutes.
DEFAULT_TIME_BUDGET = 600.0


class InvalidObstruction(ValueError):
    pass


@dataclass(frozen=True)
class Obstruction:
    """A common-multiple placement: f_left*LT(f)*f_right == g_left*LT(g)*g_right."""

    f_index: int
    g_index: int
    f_left: bytes
    f_right: bytes
    g_left: bytes
    g_right: bytes
    degree: int


@dataclass(frozen=True)
class GBStatus:
    kind: str  # "complete" | "truncated" | "aborted"
    degree: int | None = None
    reason: str | None = None

    @classmethod
    def complete(cls) -> GBStatus:
        return cls("complete")

    @classmethod
    def truncated(cls, degree: int) -> GBStatus:
        return cls("truncated", degree=degree)

    @classmethod
    def aborted(cls, reason: str) -> GBStatus:
        return cls("aborted", reason=reason)

    @property
    def is_complete(self) -> bool:
        return self.kind == "complete"

    def render(self) -> str:
        if self.kind == "complete":
            return "complete"
        if self.kind == "truncated":
            return f"truncated({self.degree})"
        return f"aborted({self.reason})"

    @classmethod
    def parse(cls, text: str) -> GBStatus:
        text = text.strip()
        if text == "complete":
            return cls.complete()
        if text.startswith("truncated(") and text.endswith(")"):
            return cls.truncated(int(text[10:-1]))
        if text.startswith("aborted(") and text.endswith(")"):
            return cls.aborted(text[8:-1])
        raise ValueError(f"bad status {text!r}")


@dataclass(frozen=True)
class EngineConfig:
    """Budgets for a Buchberger run, for every caller from the CLI down.

    A degree bound discards obstructions above it; an iteration cap or a time
    budget in seconds aborts the run.  The wall-clock DEFAULT_TIME_BUDGET stays
    on as a safety net, next to a degree bound too, unless time_budget=None.
    """

    degree_bound: int | None = None
    max_iterations: int | None = None
    time_budget: float | None = DEFAULT_TIME_BUDGET

    def __post_init__(self) -> None:
        if self.degree_bound is not None and self.degree_bound < 1:
            raise ValueError("degree bound must be positive")
        if self.max_iterations is not None and self.max_iterations < 0:
            raise ValueError("iteration cap must not be negative")


@dataclass(frozen=True)
class GroebnerBasis:
    algebra: Algebra
    generators: tuple[NcPolynomial, ...]
    status: GBStatus
    iterations: int = 0
    wall_time: float = 0.0

    @property
    def max_degree(self) -> int:
        """Largest generator degree (0 when empty); the appendix tables call this d_B."""
        return max((g.degree() for g in self.generators), default=0)

    @cached_property
    def reducer(self) -> kernel.Reducer:
        """The generators in monic kernel form, built on first use and then shared.

        Pattern i is generator i, so reduction traces index self.generators,
        each cofactor scaling generator.monic() as in normal_remainder.
        """
        return kernel.Reducer(monic_data(g.terms) for g in self.generators)

    def reduce(self, p: NcPolynomial, trace: list | None = None) -> NcPolynomial:
        if p.alg != self.algebra:
            raise VariableUniverseMismatch("polynomial from a different algebra than the basis")
        return normal_remainder(p, self.reducer, trace)


def find_obstructions(f: NcPolynomial, g: NcPolynomial) -> list[Obstruction]:
    """Obstructions of an (f, g) pair, indices 0 and 1; pass f is g for self pairs."""
    u = f.leading_word()
    same = f is g or f == g
    v = u if same else g.leading_word()
    out = []
    for lf, rf, lg, rg in kernel.overlap_obstructions(u, v, same):
        out.append(
            Obstruction(0, 0 if same else 1, lf, rf, lg, rg, len(lf) + len(u) + len(rf))
        )
    return out


def s_polynomial(ob: Obstruction, f: NcPolynomial, g: NcPolynomial) -> NcPolynomial:
    """S-polynomial of an obstruction; validates the common-multiple identity."""
    fw = ob.f_left + f.leading_word() + ob.f_right
    gw = ob.g_left + g.leading_word() + ob.g_right
    if fw != gw:
        raise InvalidObstruction("placement words disagree")
    terms = add_terms({}, f.terms.items(), 1 / Fraction(f.leading_coeff()), ob.f_left, ob.f_right)
    add_terms(terms, g.terms.items(), -1 / Fraction(g.leading_coeff()), ob.g_left, ob.g_right)
    return NcPolynomial(f.alg, terms)


class _Engine:
    """The basis under construction, kept in kernel form in reducer.data."""

    def __init__(self, config: EngineConfig):
        self.config = config
        self.reducer = kernel.Reducer()
        # proper prefixes, proper suffixes and proper factors of the basis
        # leading words -> indices of the words that have them
        self.prefixes: dict[bytes, list[int]] = {}
        self.suffixes: dict[bytes, list[int]] = {}
        self.factors: dict[bytes, list[int]] = {}
        # words of monomials known to lie in the ideal: the monomial inputs
        # fed so far and the basis elements without a tail
        self.monomials = kernel.Automaton()
        self.queue: list = []
        self.seq = 0
        # placements (j, t, lf, rf, lg, rg) dropped above the degree bound
        self.discarded: list[tuple] = []
        self.iterations = 0
        self.start = time.monotonic()
        self.deadline = None if config.time_budget is None else self.start + config.time_budget
        self.unit = False  # the ideal turned out to contain 1

    def out_of_time(self) -> bool:
        return self.deadline is not None and time.monotonic() > self.deadline

    def screened(self, g: NcPolynomial) -> bool:
        """Whether input g is a monomial with a factor known to lie in the ideal.

        Such an input adds nothing to the ideal, so it need not be fed.  Any
        other monomial input is about to be fed, so its word is recorded.
        Inputs longer than the degree bound are always fed: a truncated run
        never forms the obstructions that would rebuild their multiples, so
        its basis can depend on them (a random scan of small ideals found
        such bases change when those inputs were screened).
        """
        if len(g.terms) != 1:
            return False
        (w,) = g.terms
        bound = self.config.degree_bound
        if not w or (bound is not None and len(w) > bound):
            return False
        if self.monomials.first_match(w)[1] >= 0:
            return True
        self.monomials.insert(w)
        return False

    def partners(self, lt: bytes) -> list[int]:
        """Ascending indices j whose leading word has an obstruction with lt.

        Those are the words with a proper suffix that is a prefix of lt, with
        a proper prefix that is a suffix of lt, or with lt as a proper factor.
        lt is a normal form, so it contains no basis leading word and equals
        none: overlap_obstructions(reducer.data[j][0], lt, False) is empty for
        every other j.
        """
        found = set(self.factors.get(lt, ()))
        for k in range(1, len(lt)):
            found.update(self.suffixes.get(lt[:k], ()))
            found.update(self.prefixes.get(lt[-k:], ()))
        return sorted(found)

    def index(self, lt: bytes, t: int) -> None:
        """Record the affixes and factors of the leading word of basis element t."""
        n = len(lt)
        for k in range(1, n):
            self.prefixes.setdefault(lt[:k], []).append(t)
            self.suffixes.setdefault(lt[k:], []).append(t)
        for f in {lt[i:i + m] for m in range(1, n) for i in range(n - m + 1)}:
            self.factors.setdefault(f, []).append(t)

    def append(self, terms: dict) -> None:
        """Add a nonzero remainder from the kernel to the basis, made monic."""
        data = monic_data(terms)
        lt = data[0]
        if not lt:
            # a nonzero constant: the ideal is the whole ring, buchberger
            # returns [1], and the basis and its reducer stay as they were
            self.queue = []
            self.unit = True
            return
        t = len(self.reducer.data)
        bound = self.config.degree_bound
        # same visiting order as a scan over every j, so the queue receives
        # the same entries with the same sequence numbers
        for j in (*self.partners(lt), t):
            same = j == t
            u = self.reducer.data[j][0] if not same else lt
            for lf, rf, lg, rg in kernel.overlap_obstructions(u, lt, same):
                deg = len(lf) + len(u) + len(rf)
                placement = (j, t, lf, rf, lg, rg)
                if bound is not None and deg > bound:
                    self.discarded.append(placement)
                    continue
                heappush(self.queue, (deg, self.seq, placement))
                self.seq += 1
        self.reducer.append(data)
        self.index(lt, t)
        if not data[1]:
            self.monomials.insert(lt)

    def remainder(self, placement: tuple) -> dict:
        """The S-polynomial of a placement, reduced against the current basis."""
        j, t, lf, rf, lg, rg = placement
        data = self.reducer.data
        # both elements are monic and their leading words meet in one word,
        # so the heads cancel and the S-polynomial is the difference of the
        # shifted tails, whose words all lie below that common word
        terms = add_terms({}, data[j][1], 1, lf, rf)
        add_terms(terms, data[t][1], -1, lg, rg)
        return kernel.reduce_terms(terms, self.reducer) if terms else terms


def buchberger(generators: Iterable[NcPolynomial], config: EngineConfig) -> GroebnerBasis:
    """Noncommutative Buchberger with fair selection and budget semantics.

    Inputs are fed in ascending leading-word order.  A monomial input within
    the degree bound whose word contains an earlier monomial input's word, or
    the leading word of a basis element without a tail, is skipped without a
    reduction (see _Engine.screened); it adds nothing to the ideal.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        raise ZeroPolynomial("no nonzero generators")
    alg = gens[0].alg
    for g in gens:
        if g.alg != alg:
            raise VariableUniverseMismatch("generators live in different algebras")
    # deterministic feed order: by degree, then leading word, stable otherwise
    ordered = list(dict.fromkeys(gens))
    ordered.sort(key=lambda g: kernel.sort_key(g.leading_word()))

    eng = _Engine(config)
    status: GBStatus | None = None

    for g in ordered:
        if eng.out_of_time():
            status = GBStatus.aborted("time")
            break
        if eng.screened(g):
            continue
        rem = kernel.reduce_terms(g.terms, eng.reducer)
        if rem:
            eng.append(rem)
            if eng.unit:
                status = GBStatus.complete()
                break

    while status is None and eng.queue:
        if eng.out_of_time():
            status = GBStatus.aborted("time")
            break
        if config.max_iterations is not None and eng.iterations >= config.max_iterations:
            status = GBStatus.aborted("iterations")
            break
        rem = eng.remainder(heappop(eng.queue)[2])
        eng.iterations += 1
        if rem:
            eng.append(rem)
            if eng.unit:
                status = GBStatus.complete()
                break

    if status is None:
        # every input was fed, so a budget running out here leaves the run
        # truncated, not aborted; the check adds nothing to iterations
        status = GBStatus.complete()
        for placement in eng.discarded:
            if eng.out_of_time() or eng.remainder(placement):
                status = GBStatus.truncated(config.degree_bound)
                break

    if eng.unit:
        basis = [alg.one()]
    else:
        basis = interreduce([NcPolynomial(alg, data_terms(d)) for d in eng.reducer.data])
    return GroebnerBasis(
        algebra=alg,
        generators=tuple(basis),
        status=status,
        iterations=eng.iterations,
        wall_time=time.monotonic() - eng.start,
    )


def interreduce(polys: Sequence[NcPolynomial]) -> list[NcPolynomial]:
    """Fully interreduce: monic output, no generator reducible by the others.

    The output is in ascending leading-word order.  Phase one screens heads:
    elements are consumed in ascending leading-word order, fully reduced
    against the kept set, and accepting a new element evicts any kept element
    whose leading word it divides (evictions re-enter the pending heap, so
    cascades settle).  Only a leading word that sorts below the largest kept
    one can divide a kept word: a word containing it is at least as large in
    the admissible order, and it equals no kept word because it is reduced.
    So the eviction scan is skipped otherwise; an eviction starts a fresh
    reducer over the elements that remain.

    Phase two takes the kept elements in ascending leading-word order,
    reduces each tail against a fresh reducer of the elements already done,
    and appends the result there, so that reducer's data is the output.  No
    other kept element can match: a tail word and every word it rewrites to
    lie below the element's leading word, and a leading word that divides a
    word is no larger than it, because the order is admissible.  The kept
    leading words form a divisibility antichain, so at most one of them ends
    at any position of a word, and the earliest-ending match names the same
    element in any pattern order.

    Phase two is skipped when phase one never met a leading word below the
    largest kept one, and phase one's reducer data is returned as it is.
    Then no eviction happened and the appends arrived in ascending order, so
    step for step phase two's fresh reducer would hold the same data in the
    same pattern order as phase one's reducer when the same element was
    appended.  Every word of a phase-one remainder is irreducible against
    exactly those earlier elements, so each tail would come back unchanged
    from reduce_terms, and monic_data would return the same tuple.

    Otherwise phase two stays a second pass.  A single pass that puts back
    on the queue every kept element whose tail contains a newly kept,
    smaller leading word takes other reduction paths, and on a set that is
    not a Groebner basis normal forms depend on the path: its output differs
    on some such inputs (TestInterreduce pins one).

    The kept elements live only in the reducers, in kernel form; polynomials
    are built from them once, on return.
    """
    pending = [p for p in polys if not p.is_zero()]
    if not pending:
        return []
    alg = pending[0].alg
    if any(p.alg != alg for p in pending):
        raise VariableUniverseMismatch("polynomials live in different algebras")
    heap = [(kernel.sort_key(p.leading_word()), seq, p.terms) for seq, p in enumerate(pending)]
    heapify(heap)
    seq = len(heap)
    reducer = kernel.Reducer()
    top = None  # sort key of the largest kept leading word
    ascending = True  # no leading word has come in below top

    while heap:
        _, _, terms = heappop(heap)
        rem = kernel.reduce_terms(terms, reducer)
        if not rem:
            continue
        xdata = monic_data(rem)
        xlt = xdata[0]
        if not xlt:
            return [alg.one()]
        xkey = kernel.sort_key(xlt)
        evicted = []
        if top is not None and xkey < top:
            ascending = False
            data = reducer.data
            evicted = [d for d in data if xlt in d[0]]
            if evicted:
                reducer = kernel.Reducer(d for d in data if xlt not in d[0])
                top = max((kernel.sort_key(d[0]) for d in reducer.data), default=None)
        reducer.append(xdata)
        if top is None or xkey > top:
            top = xkey
        for d in evicted:
            heappush(heap, (kernel.sort_key(d[0]), seq, data_terms(d)))
            seq += 1

    if ascending:
        return [NcPolynomial(alg, data_terms(d)) for d in reducer.data]
    final = kernel.Reducer()
    for lt, tail in sorted(reducer.data, key=lambda d: kernel.sort_key(d[0])):
        final.append(monic_data({lt: 1, **kernel.reduce_terms(dict(tail), final)}))
    return [NcPolynomial(alg, data_terms(d)) for d in final.data]


# -- serialization ------------------------------------------------------------


def _opened(fp, mode: str):
    """A path is opened here and closed on exit; an open stream is left open."""
    return open(fp, mode, encoding="utf-8") if isinstance(fp, str) else nullcontext(fp)


def write_gb(
    gb: GroebnerBasis,
    fp,
    *,
    matroid_hex: str,
    n: int,
    r: int,
    axioms: str,
) -> None:
    """Write the basis file: a one-line header, then one generator per line."""
    with _opened(fp, "w") as stream:
        stream.write(
            f"matroid={matroid_hex} n={n} r={r} axioms={axioms} "
            f"order={ORDER} status={gb.status.render()} degree={gb.max_degree}\n"
        )
        for g in gb.generators:
            stream.write(gb.algebra.format_poly(g) + "\n")


def read_gb(fp) -> tuple[dict, GroebnerBasis]:
    """Parse a basis file back into (header fields, GroebnerBasis)."""
    with _opened(fp, "r") as stream:
        header = stream.readline().strip()
        fields = dict(part.partition("=")[::2] for part in header.split())
        missing = [k for k in ("matroid", "n", "r", "axioms", "status", "degree") if k not in fields]
        if missing:
            raise ValueError(f"basis file header {header!r} lacks {', '.join(missing)}")
        if fields.get("order", ORDER) != ORDER:
            raise ValueError(f"unsupported order={fields['order']}; only {ORDER} is read")
        n = int(fields["n"])
        alg = Algebra(tuple(range(1, n + 1)))
        gens = []
        for line in stream:
            line = line.strip()
            if line:
                gens.append(alg.parse_poly(line))
    gb = GroebnerBasis(
        algebra=alg,
        generators=tuple(gens),
        status=GBStatus.parse(fields["status"]),
    )
    degree = int(fields["degree"])
    if degree != gb.max_degree:
        raise ValueError(f"header degree={degree} but the generators have degree {gb.max_degree}")
    meta = {
        "matroid": fields["matroid"],
        "n": n,
        "r": int(fields["r"]),
        "axioms": fields["axioms"],
        "degree": degree,
    }
    return meta, gb
