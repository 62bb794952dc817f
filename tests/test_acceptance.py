"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Every test prints a single `criterion <id>: PASS/FAIL/SOFT-FAIL` line (visible
with -s or -rA; under plain -v the test name itself carries the verdict) and
asserts the guarantee at its stated tolerance.  Budgets passed to the engine
here are part of the guarantee, not tuning knobs: partial bases may certify
commutativity but never noncommutativity.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import permutations
from operator import mul

from qmatroid import kernel
from qmatroid.autgroup import automorphism_group, is_isomorphic
from qmatroid.cli import main as cli_main
from qmatroid.groebner import (
    EngineConfig,
    buchberger,
    find_obstructions,
    s_polynomial,
    write_gb,
)
from qmatroid.matroids import (
    canonical_revlex_hex,
    decode_revlex,
    encode_revlex,
    enumerate_matroids,
    uniform,
)
from qmatroid.ncpoly import replay_trace
from qmatroid.quantum import (
    AXIOM_KINDS,
    decide_commutativity,
    eval_at_permutation,
    quantum_aut_spec,
    theorem_shortcuts,
)
from qmatroid.strongmaps import (
    EMPTY_MATROID,
    _count,
    _embeddings,
    hom_profile,
    iso_class_catalog,
    lovasz_isomorphism_test,
    verify_decomposition,
)

FANO_HEX = "3f7eefd6f"

FANO_NONBASES = {
    frozenset({1, 2, 3}),
    frozenset({1, 4, 5}),
    frozenset({2, 4, 6}),
    frozenset({3, 5, 6}),
    frozenset({3, 4, 7}),
    frozenset({2, 5, 7}),
    frozenset({1, 6, 7}),
}

# published rows with at most four elements: hex, n, r, girth, nonbases,
# automorphism group order, bases-axioms verdict
PUBLISHED_ROWS = [
    ("3", 2, 1, 2, 0, 2, "commutative"),
    ("1", 2, 1, 1, 1, 1, "commutative"),
    ("7", 3, 1, 2, 0, 6, "commutative"),
    ("3", 3, 1, 1, 1, 2, "commutative"),
    ("1", 3, 1, 1, 2, 2, "commutative"),
    ("f", 4, 1, 2, 0, 24, "noncommutative"),
    ("7", 4, 1, 1, 1, 6, "commutative"),
    ("3", 4, 1, 1, 2, 4, "noncommutative"),
    ("1", 4, 1, 1, 3, 6, "commutative"),
    ("3f", 4, 2, 3, 0, 24, "noncommutative"),
    ("1f", 4, 2, 2, 1, 4, "noncommutative"),
    ("1e", 4, 2, 2, 2, 8, "noncommutative"),
    ("0b", 4, 2, 1, 3, 6, "commutative"),
    ("07", 4, 2, 2, 3, 6, "commutative"),
    ("03", 4, 2, 1, 4, 2, "commutative"),
    ("01", 4, 2, 1, 5, 4, "noncommutative"),
    ("f", 4, 3, 4, 0, 24, "commutative"),
]


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def all_small_classes(max_n: int):
    for n in range(1, max_n + 1):
        for r in range(0, n + 1):
            yield from enumerate_matroids(n, r, up_to_iso=True)


def test_criterion_1_fano_codec_round_trip():
    start = time.monotonic()
    fano = decode_revlex(FANO_HEX, 7, 3)
    nonbases = {
        frozenset(s)
        for s in permutations(range(1, 8), 3)
        if frozenset(s) not in fano.bases
    }
    round_trip = encode_revlex(fano).hex
    elapsed = time.monotonic() - start
    ok = (
        len(fano.bases) == 28
        and nonbases == FANO_NONBASES
        and round_trip == FANO_HEX
        and elapsed < 1.0
    )
    report("1", ok, f"28 bases, 7 pinned nonbases, re-encodes, {elapsed:.3f}s")


def test_criterion_2_published_rows_n_le_4():
    start = time.monotonic()
    failures = []
    for hexcode, n, r, girth, nonbases, aut, verdict_b in PUBLISHED_ROWS:
        m = decode_revlex(hexcode, n, r)
        got = (
            m.girth(),
            m.nonbasis_count,
            automorphism_group(m).order,
            decide_commutativity(
                quantum_aut_spec(m, "bases"), EngineConfig(time_budget=300.0)
            ).verdict,
        )
        want = (girth, nonbases, aut, verdict_b)
        if got != want:
            failures.append((hexcode, n, r, want, got))
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 1800.0
    report(
        "2",
        ok,
        f"{len(PUBLISHED_ROWS) - len(failures)}/{len(PUBLISHED_ROWS)} rows exact "
        f"in {elapsed:.1f}s" + (f"; mismatches {failures}" if failures else ""),
    )


def test_criterion_3_circuit_axiom_spot_checks():
    start = time.monotonic()
    config = EngineConfig(time_budget=300.0)
    u24 = uniform(2, 4)
    c_u24 = decide_commutativity(quantum_aut_spec(u24, "circuits"), config).verdict
    b_u24 = decide_commutativity(quantum_aut_spec(u24, "bases"), config).verdict
    u14 = decode_revlex("f", 4, 1)
    c_u14 = decide_commutativity(quantum_aut_spec(u14, "circuits"), config).verdict
    b_u14 = decide_commutativity(quantum_aut_spec(u14, "bases"), config).verdict
    elapsed = time.monotonic() - start
    ok = (
        (c_u24, b_u24) == ("commutative", "noncommutative")
        and (c_u14, b_u14) == ("noncommutative", "noncommutative")
        and elapsed < 600.0
    )
    report(
        "3",
        ok,
        f"U(2,4) C/B={c_u24}/{b_u24}, U(1,4) C/B={c_u14}/{b_u14}, {elapsed:.1f}s",
    )


def test_criterion_4_basis_degree_soft_check(tmp_path):
    # target is exact agreement; a mismatch is tolerated as a soft failure
    # with the offending basis serialized for inspection
    expected = {("3", 2, 1): 2, ("3f", 4, 2): 3, ("1f", 4, 2): 2}
    soft_failures = []
    for (hexcode, n, r), want in expected.items():
        spec = quantum_aut_spec(decode_revlex(hexcode, n, r), "bases")
        gb = buchberger(spec.generators, EngineConfig(time_budget=300.0))
        assert gb.status.is_complete, f"degree check needs a complete basis for {hexcode}"
        if gb.max_degree != want:
            artifact = tmp_path / f"dB_{hexcode}_{n}_{r}.gb"
            write_gb(gb, str(artifact), matroid_hex=hexcode, n=n, r=r, axioms="bases")
            soft_failures.append((hexcode, want, gb.max_degree, str(artifact)))
    if soft_failures:
        print(f"criterion 4: SOFT-FAIL - degree mismatches {soft_failures}")
    else:
        report("4", True, "basis degrees 2, 3, 2 match exactly")


def test_criterion_5a_flats_always_commutative():
    start = time.monotonic()
    checked = 0
    for m in all_small_classes(3):
        assert theorem_shortcuts(m, "flats").verdict == "commutative"
        verdict = decide_commutativity(
            quantum_aut_spec(m, "flats"),
            EngineConfig(time_budget=120.0),
            shortcuts=False,
        )
        assert verdict.verdict == "commutative", m
        assert verdict.gb.status.is_complete, m
        checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 14 and elapsed < 600.0
    report("5a", ok, f"{checked} classes engine-verified commutative, {elapsed:.1f}s")


def test_criterion_5b_independent_matches_bases():
    start = time.monotonic()
    config = EngineConfig(time_budget=300.0)
    both_complete = equal = skipped = 0
    for m in all_small_classes(4):
        gb_i = buchberger(quantum_aut_spec(m, "independent").generators, config)
        gb_b = buchberger(quantum_aut_spec(m, "bases").generators, config)
        if not (gb_i.status.is_complete and gb_b.status.is_complete):
            skipped += 1
            continue
        both_complete += 1
        if set(gb_i.generators) == set(gb_b.generators):
            equal += 1
    elapsed = time.monotonic() - start
    ok = both_complete == equal and both_complete > 0
    report(
        "5b",
        ok,
        f"{equal}/{both_complete} complete pairs have identical reduced bases "
        f"({skipped} skipped under budget), {elapsed:.1f}s",
    )


def test_criterion_5c_girth_theorem_engine_confirmed():
    start = time.monotonic()
    for m in (uniform(3, 4), uniform(4, 5)):
        assert m.girth() >= 4
        assert theorem_shortcuts(m, "bases").verdict == "commutative"
    small = decide_commutativity(
        quantum_aut_spec(uniform(3, 4), "bases"),
        EngineConfig(time_budget=300.0),
        shortcuts=False,
    )
    # the larger instance usually completes its basis well inside the budget,
    # but how soon depends on the host, so only the verdict is asserted: every
    # commutator reducing to zero against a partial basis is still a proof
    large = decide_commutativity(
        quantum_aut_spec(uniform(4, 5), "bases"),
        EngineConfig(time_budget=120.0),
        shortcuts=False,
    )
    elapsed = time.monotonic() - start
    ok = (
        small.verdict == "commutative"
        and small.gb.status.is_complete
        and large.verdict == "commutative"
    )
    report(
        "5c",
        ok,
        f"U(3,4) {small.verdict} ({small.gb.status.render()}), "
        f"U(4,5) {large.verdict} ({large.gb.status.render()}), {elapsed:.1f}s",
    )


def test_criterion_5d_evaluation_kills_ideal_on_automorphisms():
    start = time.monotonic()
    published_orders = {
        (hexcode, n, r): aut for hexcode, n, r, _, _, aut, _ in PUBLISHED_ROWS
    }
    seen_orders = 0
    classes = 0
    for m in all_small_classes(4):
        spec = quantum_aut_spec(m, "bases")
        group = automorphism_group(m)
        vanishing = 0
        for images in permutations(m.ground.elements):
            sigma = dict(zip(m.ground.elements, images))
            kills_all = all(
                eval_at_permutation(g, sigma) == 0 for g in spec.generators
            )
            assert kills_all == (sigma in group), (m, sigma)
            vanishing += kills_all
        assert vanishing == group.order
        key = (canonical_revlex_hex(m), m.n, m.rank)
        if key in published_orders:
            assert group.order == published_orders[key], key
            seen_orders += 1
        classes += 1
    elapsed = time.monotonic() - start
    ok = classes == 31 and seen_orders == len(PUBLISHED_ROWS)
    report(
        "5d",
        ok,
        f"{classes} classes, vanishing locus equals Aut everywhere, "
        f"{seen_orders} published orders re-matched, {elapsed:.1f}s",
    )


def test_criterion_6_decomposition_and_profile_test():
    start = time.monotonic()
    catalog = iso_class_catalog(3)
    decompositions = profile_agreements = 0
    for m1 in catalog:
        for m2 in catalog:
            rep = verify_decomposition(m1, m2, catalog)
            assert rep.ok, (m1, m2, rep.hom, rep.total)
            assert rep.total.denominator == 1
            decompositions += 1
            if m1 is not EMPTY_MATROID and m2 is not EMPTY_MATROID:
                assert lovasz_isomorphism_test(m1, m2, catalog) == is_isomorphic(m1, m2)
                profile_agreements += 1
    elapsed = time.monotonic() - start
    ok = decompositions == 225 and profile_agreements == 196 and elapsed < 900.0
    report(
        "6",
        ok,
        f"{decompositions} integer decomposition identities, "
        f"{profile_agreements} profile-vs-brute-force agreements, {elapsed:.1f}s",
    )


def test_criterion_6b_hom_profiles_separate_five_element_classes():
    # the separation theorem one size further: every class with n <= 5 has
    # its own profile of strong-map counts into the catalog itself
    start = time.monotonic()
    catalog = iso_class_catalog(5)
    profiles = {hom_profile(m, catalog) for m in catalog}
    elapsed = time.monotonic() - start
    ok = len(catalog) == 70 and len(profiles) == 70
    detail = f"{len(profiles)} distinct hom profiles of {len(catalog)} classes, {elapsed:.1f}s"
    report("6b", ok, detail)


def test_criterion_6c_decomposition_matrix_identity_on_five_element_classes():
    # hom = sum over image classes of surj * emb / aut, on every ordered pair
    # of classes with n <= 5 at once: H = S * diag(1/|Aut|) * E, with the
    # counts walked over the catalog's held tables and its held orders
    start = time.monotonic()
    entries = iso_class_catalog(5).entries

    def walk(a, b, **restriction):
        return _count(a.tables, b.tables, **restriction)

    hom, scaled, emb = [], [], []
    for a in entries:
        hom.append([sum(walk(a, b).values()) for b in entries])
        # pigeonhole: no surjection onto, and no embedding of, a larger class
        scaled.append(
            [
                Fraction(sum(walk(a, b, onto=True).values()), b.aut)
                if b.matroid.n <= a.matroid.n
                else 0
                for b in entries
            ]
        )
        emb.append(
            [
                _embeddings(a.tables, b.tables, walk(a, b, injective=True))
                if a.matroid.n <= b.matroid.n
                else 0
                for b in entries
            ]
        )
    columns = list(zip(*emb))
    held = sum(
        h == sum(map(mul, row, col), Fraction(0))
        for row, hrow in zip(scaled, hom)
        for col, h in zip(columns, hrow)
    )
    elapsed = time.monotonic() - start
    ok = len(entries) == 70 and held == 4900
    report(
        "6c",
        ok,
        f"H = S diag(1/|Aut|) E on {held} of {len(entries) ** 2} ordered pairs, {elapsed:.1f}s",
    )


def _naive_first_match(patterns, text):
    for end in range(len(text)):
        for idx, p in enumerate(patterns):
            start = end + 1 - len(p)
            if start >= 0 and text[start : end + 1] == p:
                return (end, idx)
    return (-1, -1)


def test_criterion_7_engine_micro_properties():
    # part one: the automaton agrees with a naive factor scan
    rng = random.Random(20240816)
    cases = 0
    for _ in range(1100):
        alphabet = list(range(rng.randrange(2, 7)))
        patterns = [
            bytes(rng.choice(alphabet) for _ in range(rng.randrange(1, 5)))
            for _ in range(rng.randrange(1, 5))
        ]
        automaton = kernel.Automaton(patterns)
        text = bytes(rng.choice(alphabet) for _ in range(rng.randrange(0, 13)))
        assert automaton.first_match(text) == _naive_first_match(patterns, text)
        cases += 1

    # part two: every complete basis on a three-element-or-smaller instance
    # survives exhaustive S-polynomial re-verification
    reverified = 0
    for m in all_small_classes(3):
        for kind in AXIOM_KINDS:
            gb = buchberger(
                quantum_aut_spec(m, kind).generators, EngineConfig(time_budget=120.0)
            )
            if not gb.status.is_complete:
                continue
            gens = list(gb.generators)
            for i, f in enumerate(gens):
                for j in range(i, len(gens)):
                    g = gens[j]
                    obs = (
                        find_obstructions(f, f) if i == j else find_obstructions(f, g)
                    )
                    for ob in obs:
                        s = s_polynomial(ob, f, g)
                        if not s.is_zero():
                            assert gb.reduce(s).is_zero(), (m, kind, i, j)
            reverified += 1

    # part three: reduction traces replay to the input exactly; against a
    # complete basis ideal members must also vanish
    replays = vanished = 0
    setups = [
        (quantum_aut_spec(uniform(2, 3), "bases"), EngineConfig(time_budget=120.0), True),
        (quantum_aut_spec(uniform(2, 4), "bases"), EngineConfig(degree_bound=2), False),
    ]
    for spec, config, complete in setups:
        gb = buchberger(spec.generators, config)
        assert gb.status.is_complete == complete
        alg = spec.algebra
        rng2 = random.Random(7)
        for _ in range(25):
            member = alg.zero()
            for _ in range(rng2.randrange(1, 4)):
                g = spec.generators[rng2.randrange(len(spec.generators))]
                left = alg.monomial(
                    [
                        (rng2.choice(alg.labels), rng2.choice(alg.labels))
                        for _ in range(rng2.randrange(0, 3))
                    ],
                    Fraction(rng2.choice([1, -1, 2, -2]), rng2.choice([1, 2])),
                )
                right = alg.monomial(
                    [
                        (rng2.choice(alg.labels), rng2.choice(alg.labels))
                        for _ in range(rng2.randrange(0, 2))
                    ]
                )
                member = member + left * g * right
            if member.is_zero():
                continue
            trace: list = []
            remainder = gb.reduce(member, trace)
            assert replay_trace(trace, list(gb.generators), remainder) == member
            if complete:
                assert remainder.is_zero(), "ideal members must reduce to zero"
            vanished += remainder.is_zero()
            replays += 1
    ok = cases >= 1000 and reverified == 56 and replays > 30 and vanished > 20
    report(
        "7",
        ok,
        f"{cases} automaton cases, {reverified} bases re-verified, "
        f"{replays} certificates replayed ({vanished} vanished)",
    )


def test_criterion_8_extended_scale_budgets(tmp_path, capsys):
    # the Fano bases run must exit cleanly under budget instead of hanging
    start = time.monotonic()
    fano = decode_revlex(FANO_HEX, 7, 3)
    gb = buchberger(
        quantum_aut_spec(fano, "bases").generators, EngineConfig(time_budget=10.0)
    )
    fano_elapsed = time.monotonic() - start
    clean_exit = gb.status.kind in ("aborted", "truncated") and fano_elapsed < 60.0

    # six-element-and-up fixtures stay behind the extended flag
    fixtures = tmp_path / "big.txt"
    fixtures.write_text("02cb3 6 3\n")
    gated = cli_main(
        ["tables", "2", "--out", str(tmp_path / "t0"), "--fixtures", str(fixtures)]
    )
    err = capsys.readouterr().err
    gate_ok = gated == 2 and "--extended" in err

    # with the flag the same fixture runs under ordinary budget semantics
    allowed = cli_main(
        [
            "tables", "2",
            "--out", str(tmp_path / "t1"),
            "--fixtures", str(fixtures),
            "--extended",
            "--time-budget", "60",
        ]
    )
    capsys.readouterr()
    rows = []
    for name in ("table1", "table2", "table3", "table4", "unknown"):
        lines = (tmp_path / "t1" / f"{name}.tsv").read_text().splitlines()[1:]
        rows.extend(line.split("\t") for line in lines)
    fixture_rows = [r for r in rows if r[0] == "02cb3"]
    ran_ok = (
        allowed == 0
        and len(fixture_rows) == 1
        and fixture_rows[0][3:6] == ["1", "12", "8"]
    )
    ok = clean_exit and gate_ok and ran_ok
    report(
        "8",
        ok,
        f"fano {gb.status.render()} in {fano_elapsed:.1f}s, n>=6 gated without "
        f"--extended, fixture ran to status={fixture_rows[0][9] if fixture_rows else '?'}",
    )
