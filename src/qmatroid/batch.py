"""Batch commutativity runs over matroid isomorphism classes and the grouped
result tables.

Rows are grouped by the pair of verdicts for the bases-axioms and the
circuit-axioms quantum automorphism groups:

- table1: both noncommutative
- table2: both commutative
- table3: bases commutative, circuits noncommutative
- table4: bases noncommutative, circuits commutative
- unknown: at least one verdict undecided under the budget

Output tables are a pure function of inputs and configuration when no run
reaches its wall-clock budget; rows are emitted sorted by (n, rank, hex) so
repeated runs agree byte for byte.  Wall times are kept on the in-memory rows
only and never written to files.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .autgroup import automorphism_group
from .groebner import EngineConfig
from .matroids import INFINITY, Matroid, canonical_revlex_hex, decode_revlex, enumerate_matroids
# re-exported, so batch callers can catch InternalInconsistency from here
from .quantum import InternalInconsistency, decide_commutativity, quantum_aut_spec  # noqa: F401

TABLE_NAMES = ("table1", "table2", "table3", "table4", "unknown")

COLUMNS = (
    "matroid",
    "n",
    "rank",
    "girth",
    "nonbases",
    "aut_order",
    "d_B",
    "verdict_B",
    "verdict_C",
    "status",
)


@dataclass(frozen=True)
class RunConfig:
    engine: EngineConfig = EngineConfig()
    threads: int = 1
    shortcuts_enabled: bool = True


@dataclass(frozen=True)
class ResultRow:
    hex: str
    n: int
    rank: int
    girth: int | float
    nonbases: int
    aut_order: int
    d_B: int | None
    verdict_B: str | None
    verdict_C: str | None
    status: str
    wall_time: float

    def sort_key(self) -> tuple[int, int, str]:
        return (self.n, self.rank, self.hex)

    def cells(self) -> tuple[str, ...]:
        return (
            self.hex,
            str(self.n),
            str(self.rank),
            "inf" if self.girth == INFINITY else str(self.girth),
            str(self.nonbases),
            str(self.aut_order),
            "-" if self.d_B is None else str(self.d_B),
            self.verdict_B or "-",
            self.verdict_C or "-",
            self.status,
        )


def run_matroid(m: Matroid, hexcode: str, config: RunConfig) -> ResultRow:
    """Full pipeline for one matroid: invariants, verdicts, degree, status."""
    start = time.perf_counter()
    by_bases, by_circuits = (
        decide_commutativity(
            quantum_aut_spec(m, axioms),
            config.engine,
            shortcuts=config.shortcuts_enabled,
        )
        for axioms in ("bases", "circuits")
    )
    complete = by_bases.gb is not None and by_bases.gb.status.is_complete
    return ResultRow(
        hex=hexcode,
        n=m.n,
        rank=m.rank,
        girth=m.girth(),
        nonbases=m.nonbasis_count,
        aut_order=automorphism_group(m).order,
        d_B=by_bases.gb.max_degree if complete else None,
        verdict_B=by_bases.verdict,
        verdict_C=by_circuits.verdict,
        status=by_bases.status,
        wall_time=time.perf_counter() - start,
    )


def relation_parameter(m: Matroid) -> int:
    """|B| * (sum of C(n, k) for k = 1..r minus |B|), the run-cost heuristic."""
    subsets = sum(math.comb(m.n, k) for k in range(1, m.rank + 1))
    nb = len(m.basis_masks)
    return nb * (subsets - nb)


def enumerate_jobs(max_n: int) -> list[tuple[str, int, int]]:
    """Isomorphism class representatives with 2 <= n <= max_n, 1 <= r <= n-1.

    Rank 0 and rank n classes are excluded to match the published table
    universe.  Jobs come out in the heuristic run order: ascending n, then
    rank, then the relation-count parameter.
    """
    keyed = []
    for n in range(2, max_n + 1):
        for r in range(1, n):
            for rep in enumerate_matroids(n, r, up_to_iso=True):
                code = canonical_revlex_hex(rep)
                keyed.append(((n, r, relation_parameter(rep), code), (code, n, r)))
    keyed.sort(key=lambda pair: pair[0])
    return [job for _, job in keyed]


def parse_fixtures(path: str) -> list[tuple[str, int, int]]:
    """Read `hex n r` lines; blank lines and # comments are skipped."""
    jobs = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected `hex n r`, got {line!r}")
            jobs.append((parts[0].lower(), int(parts[1]), int(parts[2])))
    return jobs


def _run_job(args: tuple[str, int, int, RunConfig]) -> ResultRow:
    hexcode, n, r, config = args
    m = decode_revlex(hexcode, n, r)
    return run_matroid(m, hexcode, config)


def run_batch(jobs: list[tuple[str, int, int]], config: RunConfig) -> list[ResultRow]:
    """Run all jobs, across a process pool when configured, and sort rows."""
    payload = [(h, n, r, config) for h, n, r in dict.fromkeys(jobs)]
    if config.threads > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            rows = list(pool.map(_run_job, payload))
    else:
        rows = [_run_job(p) for p in payload]
    return sorted(rows, key=ResultRow.sort_key)


def partition_rows(rows: list[ResultRow]) -> dict[str, list[ResultRow]]:
    buckets: dict[str, list[ResultRow]] = {name: [] for name in TABLE_NAMES}
    pair_to_table = {
        ("noncommutative", "noncommutative"): "table1",
        ("commutative", "commutative"): "table2",
        ("commutative", "noncommutative"): "table3",
        ("noncommutative", "commutative"): "table4",
    }
    for row in rows:
        buckets[pair_to_table.get((row.verdict_B, row.verdict_C), "unknown")].append(row)
    return buckets


def render_table(rows: list[ResultRow]) -> str:
    lines = ["\t".join(COLUMNS)]
    for row in sorted(rows, key=ResultRow.sort_key):
        lines.append("\t".join(row.cells()))
    return "\n".join(lines) + "\n"


def write_tables(rows: list[ResultRow], outdir: str) -> dict[str, str]:
    """Write one TSV per bucket; returns the bucket -> path mapping."""
    os.makedirs(outdir, exist_ok=True)
    buckets = partition_rows(rows)
    paths = {}
    for name in TABLE_NAMES:
        path = os.path.join(outdir, f"{name}.tsv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(render_table(buckets[name]))
        paths[name] = path
    return paths
