"""Compare the compiled kernel backend with the pure-Python twin.

Usage:
    python benchmarks/bench_kernel.py [--quick]

The micro rows call both implementations on identical inputs built from a
real Groebner basis (uniform rank 2 on 4 elements, bases axioms).  The
end-to-end row recomputes that basis in a subprocess per backend, since the
backend is fixed at import time.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import time

from qmatroid import _core_py
from qmatroid.groebner import EngineConfig, buchberger
from qmatroid.ncpoly import poly_data
from qmatroid.quantum import quantum_aut_spec
from qmatroid.matroids import uniform

try:
    from qmatroid import _core
except ImportError:
    _core = None


def best_of(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def build_workload(quick: bool):
    spec = quantum_aut_spec(uniform(2, 4), "bases")
    gb = buchberger(spec.generators, EngineConfig(time_budget=300.0))
    assert gb.status.is_complete
    triples = [poly_data(p) for p in gb.generators]
    patterns = [t[0] for t in triples]
    alphabet = sorted({b for w in patterns for b in w})
    rng = random.Random(20240817)
    n_texts = 400 if quick else 4000
    n_words = 60 if quick else 400
    texts = [
        bytes(rng.choice(alphabet) for _ in range(rng.randrange(20, 60)))
        for _ in range(n_texts)
    ]
    words = [
        bytes(rng.choice(alphabet) for _ in range(7)) for _ in range(n_words)
    ]
    return triples, patterns, texts, words


def scan_task(mod, patterns, texts):
    def run():
        auto = mod.Automaton(patterns)
        hits = 0
        for t in texts:
            if auto.first_match(t)[1] >= 0:
                hits += 1
        return hits

    return run


def reduce_task(mod, triples, patterns, words):
    auto = mod.Automaton(patterns)

    def run():
        total = 0
        for w in words:
            out = mod.reduce_terms({w: 1}, triples, auto)
            total += len(out)
        return total

    return run


def overlap_task(mod, patterns, repeat: int):
    def run():
        count = 0
        for _ in range(repeat):
            for i, u in enumerate(patterns):
                for j, v in enumerate(patterns):
                    count += len(mod.overlap_obstructions(u, v, i == j))
        return count

    return run


END_TO_END = (
    "import time;"
    "from qmatroid.groebner import EngineConfig, buchberger;"
    "from qmatroid.quantum import quantum_aut_spec;"
    "from qmatroid.matroids import uniform;"
    "import qmatroid.kernel as k;"
    "spec = quantum_aut_spec(uniform(2, 4), 'bases');"
    "t0 = time.perf_counter();"
    "gb = buchberger(spec.generators, EngineConfig(time_budget=300.0));"
    "print(k.BACKEND, time.perf_counter() - t0)"
)


def end_to_end(pure: bool) -> float:
    env = dict(os.environ)
    env["QMATROID_PURE_PYTHON"] = "1" if pure else "0"
    out = subprocess.run(
        [sys.executable, "-c", END_TO_END],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    backend, wall = out.stdout.split()
    expected = "python" if pure else "cython"
    if backend != expected:
        raise RuntimeError(f"subprocess picked backend {backend}, wanted {expected}")
    return float(wall)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    args = parser.parse_args()

    if _core is None:
        print("compiled backend unavailable; nothing to compare")
        return 1

    triples, patterns, texts, words = build_workload(args.quick)
    repeat = 2 if args.quick else 5
    overlap_rounds = 20 if args.quick else 200

    rows = []
    for name, make in (
        ("automaton scan", lambda mod: scan_task(mod, patterns, texts)),
        ("reduce_terms", lambda mod: reduce_task(mod, triples, patterns, words)),
        ("overlaps", lambda mod: overlap_task(mod, patterns, overlap_rounds)),
    ):
        t_py = best_of(make(_core_py), repeat)
        t_cy = best_of(make(_core), repeat)
        rows.append((name, t_py, t_cy))

    rows.append(("buchberger (subprocess)", end_to_end(True), end_to_end(False)))

    print(f"{'workload':<24}{'python':>12}{'cython':>12}{'speedup':>10}")
    for name, t_py, t_cy in rows:
        ratio = t_py / t_cy if t_cy > 0 else float("inf")
        print(f"{name:<24}{t_py:>11.4f}s{t_cy:>11.4f}s{ratio:>9.2f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
