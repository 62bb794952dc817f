"""Compare two sets of benchmark results, metric by metric and workload by workload.

    python3 bench/compare.py parent.jsonl change.jsonl

Each file holds the lines run.py appends to .bench_out/results.jsonl.  For
every (workload, trace, metric) present on both sides it prints each side's
median, quartiles and run count, and the change as a share of the first
median.  It refuses to compare results stamped with different kernel
backends, since those measure different programs.
"""

from __future__ import annotations

import json
import sys

from run import summary


def load(path: str) -> tuple[set[str], dict]:
    backends = set()
    values: dict[tuple, list[float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            stamp, result = row["stamp"], row["result"]
            backends.add(stamp["backend"])
            for name, metric in result["metrics"].items():
                key = (stamp["workload"], stamp["trace"], name)
                values.setdefault(key, []).append(metric["value"])
    return backends, values


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    (b1, first), (b2, second) = load(argv[0]), load(argv[1])
    if len(b1 | b2) != 1:
        print(f"refusing to compare results from backends {sorted(b1 | b2)}", file=sys.stderr)
        return 2
    for key in sorted(set(first) & set(second)):
        ma, q1a, q3a = summary(first[key])
        mb, q1b, q3b = summary(second[key])
        change = f"{(mb - ma) / ma:+.1%}" if ma else "n/a"
        workload, trace, name = key
        print(
            f"{workload:10} trace={trace} {name:34} "
            f"{ma:.6g} [{q1a:.6g}..{q3a:.6g}] n={len(first[key])} -> "
            f"{mb:.6g} [{q1b:.6g}..{q3b:.6g}] n={len(second[key])}  {change}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
