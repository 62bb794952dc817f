"""The four benchmark workloads: inputs from a seed, one timed run, its checks.

Each workload has three steps.  setup(seed) imports qmatroid and builds the
inputs; that is what setup_s times.  run(inputs) is one timed operation
and does nothing but call the program.  check(inputs, output, full) verifies
the output against references that do not come from the engine, returning
(attempted, failed, errors, digest).  full=False skips the expensive checks
on repeat runs, whose digest must then equal the first run's.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import shutil
from itertools import permutations

import reference

FANO_HEX = "3f7eefd6f"
# Fano bases slice: this many distinct generators in the engine's feed order,
# run to degree 3.  About ten seconds in pure Python on one core.
FANO_SLICE = 3000
FANO_DEGREE_BOUND = 3


def automorphisms(m) -> list[dict[int, int]]:
    """Every permutation of the ground set that maps bases to bases, by brute force."""
    ground = tuple(m.ground.elements)
    bases = {frozenset(b) for b in m.bases}
    out = []
    for image in permutations(ground):
        sigma = dict(zip(ground, image))
        if all(frozenset(sigma[x] for x in b) in bases for b in bases):
            out.append(sigma)
    return out


def basis_digest(gb, matroid_hex: str, n: int, r: int) -> str:
    from qmatroid.groebner import write_gb

    buf = io.StringIO()
    write_gb(gb, buf, matroid_hex=matroid_hex, n=n, r=r, axioms="bases")
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def vanishes_at(gb, sigma: dict[int, int]) -> bool:
    """Whether every basis element maps to 0 under u[i,j] -> [sigma(i) == j].

    A word maps to 1 exactly when each of its letters is some u[i, sigma(i)],
    that is when deleting those letters leaves nothing.
    """
    alg = gb.algebra
    ones = bytes(alg.var_id(i, sigma[i]) for i in alg.labels)
    for g in gb.generators:
        if sum(c for w, c in g.terms.items() if not w.translate(None, ones)) != 0:
            return False
    return True


def check_basis(gb, auts, expected_digest, digest_args, full) -> tuple[list[str], str]:
    """Basis checks shared by the two engine workloads."""
    from qmatroid.quantum import eval_at_permutation

    errors = []
    digest = basis_digest(gb, *digest_args)
    if digest != expected_digest:
        errors.append(f"write_gb digest {digest[:12]} differs from the reference")
    if full:
        # the classical automorphisms are points of the quantum group, so
        # every element of the ideal vanishes at each of them
        bad = [sigma for sigma in auts if not vanishes_at(gb, sigma)]
        if bad:
            errors.append(f"basis does not vanish at {len(bad)} automorphisms, e.g. {bad[0]}")
        # the program's own evaluation map agrees, at one automorphism (at
        # all of them it would take most of a minute on the Fano basis)
        if any(eval_at_permutation(g, auts[-1]) != 0 for g in gb.generators):
            errors.append(f"eval_at_permutation is nonzero at {auts[-1]}")
    return errors, digest


class Tables4:
    """`qmatroid tables 4` in process: the paper's deliverable."""

    name = "tables4"

    def setup(self, seed: int, workdir: str):
        import qmatroid.cli  # noqa: F401  (import is part of set-up)

        return {"outdir": os.path.join(workdir, f"tables4-{os.getpid()}")}

    def run(self, inputs):
        from qmatroid.cli import main

        # cli prints one line per table; keep stdout for the result
        with contextlib.redirect_stdout(io.StringIO()):
            return main(["tables", "4", "--out", inputs["outdir"]])

    def check(self, inputs, output, full):
        # an operation is one verdict: 23 classes x 2 axiom systems
        attempted = 2 * reference.TABLES4_CLASSES
        try:
            return self._check(inputs["outdir"], output, attempted)
        finally:
            shutil.rmtree(inputs["outdir"], ignore_errors=True)

    def _check(self, outdir, output, attempted):
        errors = []
        bad_rows: set[tuple[str, str, str]] = set()
        if output != 0:
            return attempted, attempted, [f"cli exit code {output}"], ""
        rows = {}
        digest = hashlib.sha256()
        for name in sorted(reference.TABLES4_DIGESTS):
            path = os.path.join(outdir, f"{name}.tsv")
            with open(path, "rb") as fh:
                data = fh.read()
            digest.update(data)
            lines = data.decode("utf-8").splitlines()[1:]
            if hashlib.sha256(data).hexdigest() != reference.TABLES4_DIGESTS[name]:
                errors.append(f"{name}.tsv differs from the reference")
                bad_rows.update(tuple(line.split("\t")[:3]) for line in lines)
            for line in lines:
                cells = line.split("\t")
                rows[tuple(cells[:3])] = cells
        failed = 2 * len(bad_rows)
        if len(rows) != reference.TABLES4_CLASSES:
            errors.append(f"{len(rows)} rows, expected {reference.TABLES4_CLASSES}")
            failed += 2 * abs(reference.TABLES4_CLASSES - len(rows))
        for hexcode, n, r, girth, nonbases, aut, verdict_b in reference.PUBLISHED_ROWS:
            key = (hexcode, str(n), str(r))
            cells = rows.get(key)
            want = [str(girth), str(nonbases), str(aut), verdict_b]
            got = None if cells is None else [cells[3], cells[4], cells[5], cells[7]]
            if got != want and key not in bad_rows:
                errors.append(f"row {key}: got {got}, published {want}")
                failed += 1
        return attempted, min(failed, attempted), errors, digest.hexdigest()


class U25Bases:
    """decide_commutativity on U(2,5) bases without shortcuts: a long S-pair loop."""

    name = "u25_bases"

    def setup(self, seed: int, workdir: str):
        from qmatroid.matroids import uniform
        from qmatroid.quantum import quantum_aut_spec

        m = uniform(2, 5)
        return {"matroid": m, "spec": quantum_aut_spec(m, "bases")}

    def run(self, inputs):
        from qmatroid.quantum import decide_commutativity

        return decide_commutativity(inputs["spec"], shortcuts=False)

    def check(self, inputs, output, full):
        errors = []
        if output.verdict != "noncommutative" or output.gb is None:
            return 1, 1, [f"verdict {output.verdict}, expected noncommutative"], ""
        auts = automorphisms(inputs["matroid"]) if full else []
        if full and len(auts) != 120:
            errors.append(f"{len(auts)} automorphisms of U(2,5), expected 120")
        more, digest = check_basis(
            output.gb, auts, reference.U25_BASIS_DIGEST, ("3ff", 5, 2), full
        )
        errors += more
        return 1, int(bool(errors)), errors, digest


def fano_relabelling(seed: int):
    """The Fano plane relabelled by a permutation drawn from the seed."""
    from qmatroid.matroids import decode_revlex, encode_revlex, relabel

    labels = list(range(1, 8))
    image = labels[:]
    random.Random(seed).shuffle(image)
    m = relabel(decode_revlex(FANO_HEX, 7, 3), dict(zip(labels, image)))
    return m, encode_revlex(m).hex


def feed_slice(generators, count: int):
    """The first distinct generators in the order buchberger feeds them."""
    from qmatroid import kernel

    seen = set()
    ordered = []
    for g in generators:
        key = frozenset(g.terms.items())
        if key not in seen:
            seen.add(key)
            ordered.append(g)
    ordered.sort(key=lambda g: (len(g.leading_word()), kernel.sort_key(g.leading_word())))
    return tuple(ordered[:count])


class FanoFeed:
    """A fixed slice of the Fano bases ideal to degree 3: many basis inserts."""

    name = "fano_feed"

    def setup(self, seed: int, workdir: str):
        from qmatroid.quantum import quantum_aut_spec

        m, hexcode = fano_relabelling(seed)
        gens = feed_slice(quantum_aut_spec(m, "bases").generators, FANO_SLICE)
        return {"matroid": m, "hex": hexcode, "generators": gens}

    def run(self, inputs):
        from qmatroid.groebner import EngineConfig, buchberger

        return buchberger(inputs["generators"], EngineConfig(degree_bound=FANO_DEGREE_BOUND))

    def check(self, inputs, output, full):
        errors = []
        if output.status.render() != f"truncated({FANO_DEGREE_BOUND})":
            errors.append(f"status {output.status.render()}")
        auts = automorphisms(inputs["matroid"]) if full else []
        if full and len(auts) != 168:
            errors.append(f"{len(auts)} automorphisms of the Fano plane, expected 168")
        expected = reference.FANO_BASIS_DIGESTS.get(inputs["hex"], "")
        more, digest = check_basis(output, auts, expected, (inputs["hex"], 7, 3), full)
        errors += more
        return 1, int(bool(errors)), errors, digest


def brute_force_isomorphic(m1, m2) -> bool:
    if m1.n != m2.n or m1.rank != m2.rank or len(m1.bases) != len(m2.bases):
        return False
    g1 = tuple(m1.ground.elements)
    target = {frozenset(b) for b in m2.bases}
    for image in permutations(m2.ground.elements):
        sigma = dict(zip(g1, image))
        if all(frozenset(sigma[x] for x in b) in target for b in m1.bases):
            return True
    return False


class Hom4:
    """Hom-count decomposition identity and hom-profile isomorphism on n <= 4."""

    name = "hom4"

    def setup(self, seed: int, workdir: str):
        from qmatroid.matroids import relabel
        from qmatroid.strongmaps import EMPTY_MATROID, iso_class_catalog

        catalog = iso_class_catalog(4)
        rng = random.Random(seed)
        # one ordered pair for each (n1, r1) source class and n2 target size:
        # the cost of a pair grows with these, so stratifying keeps the cost
        # of the sample within a few percent across seeds
        sources: dict[tuple[int, int], list] = {}
        targets: dict[int, list] = {}
        for m in catalog:
            n, r = (0, 0) if m is EMPTY_MATROID else (m.n, m.rank)
            sources.setdefault((n, r), []).append(m)
            targets.setdefault(n, []).append(m)
        pairs = [
            (rng.choice(sources[a]), rng.choice(targets[b]))
            for a in sorted(sources)
            for b in sorted(targets)
        ]
        # per rank of the four-element classes: a relabelled copy, which the
        # hom profile must call isomorphic, and a second draw of that rank
        iso_tests = []
        for r in range(5):
            same_rank = sources[(4, r)]
            m1 = rng.choice(same_rank)
            image = list(m1.ground.elements)
            rng.shuffle(image)
            copy = relabel(m1, dict(zip(m1.ground.elements, image)))
            for m2 in (copy, rng.choice(same_rank)):
                iso_tests.append((m1, m2, brute_force_isomorphic(m1, m2)))
        return {"catalog": catalog, "pairs": pairs, "iso_tests": iso_tests}

    def run(self, inputs):
        from qmatroid.strongmaps import lovasz_isomorphism_test, verify_decomposition

        catalog = inputs["catalog"]
        reports = [verify_decomposition(m1, m2, catalog) for m1, m2 in inputs["pairs"]]
        verdicts = [lovasz_isomorphism_test(m1, m2, catalog) for m1, m2, _ in inputs["iso_tests"]]
        return reports, verdicts

    def check(self, inputs, output, full):
        reports, verdicts = output
        errors = []
        for (m1, m2), rep in zip(inputs["pairs"], reports):
            if not rep.ok or rep.total.denominator != 1:
                errors.append(f"decomposition {m1} -> {m2}: hom {rep.hom}, total {rep.total}")
        for (m1, m2, iso), got in zip(inputs["iso_tests"], verdicts):
            if got != iso:
                errors.append(f"isomorphism {m1} vs {m2}: hom profile {got}, brute force {iso}")
        digest = hashlib.sha256(
            repr([(r.hom, str(r.total)) for r in reports] + verdicts).encode()
        ).hexdigest()
        attempted = len(reports) + len(verdicts)
        return attempted, len(errors), errors, digest


WORKLOADS = {w.name: w for w in (Tables4(), U25Bases(), FanoFeed(), Hom4())}
