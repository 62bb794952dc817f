"""Command-line front end.

Subcommands: decode, encode, gb, commutativity, tables, hom.  Exit codes:
0 success (any verdict), 2 invalid input, 3 internal inconsistency between a
structure theorem and a completed basis; gb additionally returns 4 when the
basis was truncated at the degree bound (some obstruction discarded above the
bound did not reduce to zero against the final basis) and 5 when the run was
aborted by a budget.

The decode output doubles as the encode input format: a first line `n=<n>
r=<r>` (keys in either order) followed by one basis per line as
comma-separated labels; lines starting with # are ignored.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from itertools import combinations

from .batch import (
    RunConfig,
    enumerate_jobs,
    parse_fixtures,
    partition_rows,
    run_batch,
    write_tables,
)
from .groebner import DEFAULT_TIME_BUDGET, EngineConfig, buchberger, write_gb
from .matroids import (
    INFINITY,
    MatroidError,
    _mask,
    decode_revlex,
    encode_revlex,
    new_matroid,
)
from .quantum import AXIOM_KINDS, InternalInconsistency, decide_commutativity, quantum_aut_spec
from .strongmaps import hom_counts, iso_class_catalog, lovasz_isomorphism_test, verify_decomposition


def _render_matroid(m, hexcode: str) -> str:
    lines = [f"n={m.n} r={m.rank}"]
    for b in sorted(tuple(sorted(b)) for b in m.bases):
        lines.append(",".join(str(x) for x in b))
    nonbases = [
        c for c in combinations(m.ground.elements, m.rank) if _mask(c) not in m.basis_masks
    ]
    rendered = " ".join(",".join(str(x) for x in nb) for nb in nonbases)
    lines.append(f"# hex={hexcode} bases={len(m.bases)} nonbases={m.nonbasis_count}")
    if nonbases:
        lines.append(f"# nonbases: {rendered}")
    girth = m.girth()
    lines.append(f"# girth={'inf' if girth == INFINITY else girth}")
    return "\n".join(lines) + "\n"


def cmd_decode(args) -> int:
    m = decode_revlex(args.hex, args.n, args.r)
    code = encode_revlex(m).hex  # the argument as decode_revlex read it: stripped, lowercased
    text = _render_matroid(m, code)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0


def cmd_encode(args) -> int:
    n = r = None
    bases = []
    with contextlib.ExitStack() as stack:
        if args.file == "-":
            fh = sys.stdin
        else:
            fh = stack.enter_context(open(args.file, "r", encoding="utf-8"))
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if n is None:
                head = sorted(line.split())  # n=<n> sorts before r=<r>
                values = [t[2:] for t in head]
                if [t[:2] for t in head] != ["n=", "r="] or not all(v.isdecimal() for v in values):
                    raise ValueError(f"first line must be `n=<n> r=<r>`, got {line!r}")
                n, r = map(int, values)
                continue
            bases.append([int(tok) for tok in line.replace(",", " ").split()])
    if n is None:
        raise ValueError("empty bases file")
    m = new_matroid(range(1, n + 1), bases)
    if m.rank != r:
        raise ValueError(f"bases have size {m.rank}, header says r={r}")
    print(encode_revlex(m).hex)
    return 0


def _add_budgets(p: argparse.ArgumentParser) -> None:
    p.add_argument("--degree-bound", type=int, default=None)
    p.add_argument("--time-budget", type=float, default=DEFAULT_TIME_BUDGET,
                   help="seconds (default %(default)s); <= 0 lifts the bound")


def _budgets(args) -> EngineConfig:
    """The same budgets for every subcommand: a time budget <= 0 means none."""
    time_budget = args.time_budget if args.time_budget > 0 else None
    return EngineConfig(degree_bound=args.degree_bound, time_budget=time_budget)


def cmd_gb(args) -> int:
    m = decode_revlex(args.hex, args.n, args.r)
    code = encode_revlex(m).hex
    spec = quantum_aut_spec(m, args.axioms)
    gb = buchberger(spec.generators, _budgets(args))
    out = args.out or f"{code}_{args.n}_{args.r}_{args.axioms}.gb"
    write_gb(gb, out, matroid_hex=code, n=args.n, r=args.r, axioms=args.axioms)
    print(
        f"status={gb.status.render()} degree={gb.max_degree} "
        f"generators={len(gb.generators)} file={out}"
    )
    return {"complete": 0, "truncated": 4, "aborted": 5}[gb.status.kind]


def cmd_commutativity(args) -> int:
    m = decode_revlex(args.hex, args.n, args.r)
    code = encode_revlex(m).hex
    spec = quantum_aut_spec(m, args.axioms)
    verdict = decide_commutativity(spec, _budgets(args), shortcuts=not args.no_shortcuts)
    degree = "-" if verdict.gb is None else str(verdict.gb.max_degree)
    print(f"matroid={code} n={args.n} r={args.r} axioms={args.axioms}")
    print(
        f"verdict={verdict.verdict} method={verdict.method} "
        f"status={verdict.status} degree={degree}"
    )
    if verdict.witness is not None:
        c, nf = verdict.witness
        print(f"witness: {spec.algebra.format_poly(c)}")
        print(f"normal form: {spec.algebra.format_poly(nf)}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(
                f"{code}\t{args.n}\t{args.r}\t{args.axioms}\t"
                f"{verdict.verdict}\t{verdict.method}\t{verdict.status}\t{degree}\n"
            )
    return 0


def cmd_tables(args) -> int:
    config = RunConfig(
        _budgets(args), threads=args.threads, shortcuts_enabled=not args.no_shortcuts
    )
    jobs = enumerate_jobs(args.max_n)
    if args.fixtures:
        for job in parse_fixtures(args.fixtures):
            if job[1] >= 6 and not args.extended:
                raise ValueError(
                    f"fixture {job[0]} has n={job[1]}; pass --extended to run n >= 6"
                )
            jobs.append(job)
    rows = run_batch(jobs, config)
    paths = write_tables(rows, args.out)
    buckets = partition_rows(rows)
    for name in sorted(paths):
        print(f"{name}: {len(buckets[name])} rows -> {paths[name]}")
    return 0


def cmd_hom(args) -> int:
    m1 = decode_revlex(args.hex1, args.n1, args.r1)
    m2 = decode_revlex(args.hex2, args.n2, args.r2)
    # the catalog refuses n > 5, so build it before printing anything
    catalog = iso_class_catalog(max(args.n1, args.n2))
    counts = hom_counts(m1, m2)
    print(f"hom={counts.hom} surj={counts.surj} emb={counts.emb}")
    report = verify_decomposition(m1, m2, catalog)
    print(
        f"decomposition={'ok' if report.ok else 'MISMATCH'} "
        f"hom={report.hom} total={report.total}"
    )
    same = lovasz_isomorphism_test(m1, m2, catalog)
    print(f"lovasz_isomorphic={'true' if same else 'false'}")
    return 0 if report.ok else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmatroid",
        description="Quantum automorphism groups of matroids: encodings, "
        "noncommutative Groebner bases, commutativity verdicts, result tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decode", help="decode a revlex hex code into a matroid")
    p.add_argument("hex")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--out", help="also write the bases file here")
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("encode", help="encode a bases file as a revlex hex code")
    p.add_argument("file", help="bases file as printed by decode, or - for stdin")
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("gb", help="compute and serialize a Groebner basis")
    p.add_argument("hex")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("--axioms", choices=AXIOM_KINDS, default="bases")
    _add_budgets(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gb)

    p = sub.add_parser("commutativity", help="semi-decide commutativity")
    p.add_argument("hex")
    p.add_argument("n", type=int)
    p.add_argument("r", type=int)
    p.add_argument("axioms", nargs="?", choices=AXIOM_KINDS, default="bases")
    _add_budgets(p)
    p.add_argument("--no-shortcuts", action="store_true")
    p.add_argument("--out", help="append a TSV result line here")
    p.set_defaults(func=cmd_commutativity)

    p = sub.add_parser("tables", help="batch-run iso classes and write tables")
    p.add_argument("max_n", type=int, nargs="?", default=4)
    p.add_argument("--out", default="tables")
    p.add_argument("--threads", type=int, default=1)
    _add_budgets(p)
    p.add_argument("--no-shortcuts", action="store_true")
    p.add_argument("--fixtures", help="file of `hex n r` lines to append")
    p.add_argument("--extended", action="store_true",
                   help="allow n >= 6 fixture rows")
    p.set_defaults(func=cmd_tables)

    p = sub.add_parser("hom", help="strong-map counts and decomposition check")
    p.add_argument("hex1")
    p.add_argument("n1", type=int)
    p.add_argument("r1", type=int)
    p.add_argument("hex2")
    p.add_argument("n2", type=int)
    p.add_argument("r2", type=int)
    p.set_defaults(func=cmd_hom)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistency as exc:
        print(f"inconsistency: {exc}", file=sys.stderr)
        return 3
    except (MatroidError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
