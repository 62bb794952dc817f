"""Benchmark runner: one workload, closed loop, one client, tracing on or off.

Run from the repository root:

    python3 bench/run.py --workload u25_bases --seed 1 --seconds 30 --trace 0

The program under test is the qmatroid package in ./src, imported in this
process.  Operations run one after another, each starting when the previous
one ends, until the next would overrun --seconds (at least one runs).  With
--trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run, which
pairs each traced operation with an untraced one to measure the overhead.
Exit status is 0 when the run completed, whether or not its checks passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 4  # extra set-ups in child processes; setup_s is the median of 5
OUT_DIR = ".bench_out"
COUNTERS_FILE = os.path.join(OUT_DIR, "counters.json")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program(root: str) -> None:
    """Put ./src first on the path and make sure qmatroid comes from there."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "qmatroid", "__init__.py")):
        raise SystemExit(f"error: no qmatroid package under {src}")
    sys.path.insert(0, src)
    import qmatroid

    if not os.path.realpath(qmatroid.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"error: imported qmatroid from {qmatroid.__file__}, not {src}")


def source_digest(root: str) -> str:
    """Digest of the program's source tree; keys the work-counter records."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx", ".c")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def commit_id(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles, as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


def probe_setup(workload: str, seed: int) -> float:
    """Time one set-up (import plus inputs) in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=170,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def run_operation(wl, inputs, full: bool, state: dict):
    """One timed operation and its checks; exceptions count as failures."""
    start = time.perf_counter()
    try:
        output = wl.run(inputs)
    except Exception:  # the benchmark must report a failed run, not crash
        wall = time.perf_counter() - start
        traceback.print_exc(file=sys.stderr)
        state["errors"].append("operation raised")
        state["attempted"] += 1
        state["failed"] += 1
        return wall, None
    wall = time.perf_counter() - start
    attempted, failed, errors, digest = wl.check(inputs, output, full)
    if state["digest"] is None:
        state["digest"] = digest
    elif digest != state["digest"]:
        errors.append("output differs between runs of the same input")
        failed = attempted
    state["attempted"] += attempted
    state["failed"] += failed
    state["errors"] += errors
    return wall, output


def check_counters(key: str, counters: dict, stamp: dict) -> str | None:
    """Compare work counters with earlier traced runs of the same input and code."""
    os.makedirs(OUT_DIR, exist_ok=True)
    seen = {}
    if os.path.exists(COUNTERS_FILE):
        with open(COUNTERS_FILE, encoding="utf-8") as fh:
            seen = json.load(fh)
    old = seen.get(key)
    if old is not None:
        if old["backend"] != stamp["backend"]:
            return f"refusing to compare counters across backends ({old['backend']})"
        if old["counters"] != counters:
            return f"work counters changed between runs: {old['counters']} vs {counters}"
        return None
    seen[key] = {"backend": stamp["backend"], "counters": counters}
    tmp = COUNTERS_FILE + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(tmp, COUNTERS_FILE)
    return None


def untraced_metrics(walls, setup_times, lines) -> dict:
    med, q1, q3 = summary(walls)
    setup = statistics.median(setup_times)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lines.append(f"wall_s: median {med:.4f} s, quartiles {q1:.4f}..{q3:.4f} s, "
                 f"n={len(walls)}: " + " ".join(f"{w:.3f}" for w in walls))
    lines.append(f"setup_s: median {setup:.4f} s of {len(setup_times)} set-ups")
    lines.append(f"peak_rss_mib: {rss:.2f} MiB")
    return {
        "wall_s": {"value": med, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mib": {"value": rss, "unit": "MiB"},
    }


def traced_metrics(setup_layers, layers, walls, traced_walls, lines) -> dict:
    metrics = {}
    for name in layers[0]:
        value = setup_layers.get(name, 0) + statistics.median(snap[name] for snap in layers)
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count"
        metrics[name] = {"value": value, "unit": unit}
    untraced = statistics.median(walls)
    traced = statistics.median(traced_walls)
    metrics["trace.untraced_wall_s"] = {"value": untraced, "unit": "s"}
    metrics["trace.traced_wall_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - untraced, "unit": "s"}
    for name, m in metrics.items():
        lines.append(f"{name}: {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.abspath(OUT_DIR)

    if args.setup_probe:
        start = time.perf_counter()
        import_program(root)
        wl.setup(args.seed, workdir)
        print(time.perf_counter() - start)
        return 0

    tracer = tracing.Tracer(f"{wl.name}/{args.seed}/setup") if args.trace else None
    setup_start = time.perf_counter()
    import_program(root)
    try:
        if tracer is not None:
            tracer.install()
        inputs = wl.setup(args.seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_times = [time.perf_counter() - setup_start]

    from qmatroid import kernel

    stamp = {
        "backend": kernel.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "commit": commit_id(root),
        "source": source_digest(root)[:16],
        "workload": wl.name,
        "trace": args.trace,
        "seconds": args.seconds,
    }
    print("stamp: " + json.dumps(stamp, sort_keys=True))

    state = {"attempted": 0, "failed": 0, "errors": [], "digest": None}
    walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict] = []
    setup_layers = tracer.snapshot() if tracer is not None else {}
    while True:
        wall, _ = run_operation(wl, inputs, not walls, state)
        walls.append(wall)
        if tracer is not None:
            tracer.reset()
            tracer.run_id = f"{wl.name}/{args.seed}/op{len(traced_walls)}"
            try:
                tracer.install()
                wall, _ = run_operation(wl, inputs, False, state)
            finally:
                tracer.uninstall()
            traced_walls.append(wall)
            layers.append(tracer.snapshot())
        spent = sum(walls) + sum(traced_walls)
        step = walls[-1] + (traced_walls[-1] if traced_walls else 0.0)
        if spent + step > args.seconds:
            break

    correct = state["failed"] == 0
    lines: list[str] = []
    if tracer is None:
        setup_times += [probe_setup(wl.name, args.seed) for _ in range(SETUP_PROBES)]
        metrics = untraced_metrics(walls, setup_times, lines)
    else:
        metrics = traced_metrics(setup_layers, layers, walls, traced_walls, lines)
        counters = [{k: snap[k] for k in tracing.DETERMINISTIC} for snap in layers]
        if any(c != counters[0] for c in counters):
            state["errors"].append(f"work counters differ between traced runs: {counters}")
            correct = False
        key = "|".join((wl.name, str(args.seed), stamp["backend"], source_digest(root)))
        problem = check_counters(key, counters[0], stamp)
        if problem:
            state["errors"].append(problem)
            correct = False
        span_path = os.path.join(OUT_DIR, f"spans-{wl.name}-{args.seed}-{os.getpid()}.jsonl")
        count = tracer.write_spans(span_path)
        lines.append(f"spans: {count} written to {span_path}")
    ratio = state["failed"] / state["attempted"] if state["attempted"] else 1.0
    lines.append(f"fail_ratio: {state['failed']}/{state['attempted']} = {ratio:.4f}")
    lines += [f"check failed: {err}" for err in state["errors"][:20]]
    print("\n".join(lines))

    result = {
        "correct": correct,
        "attempted": state["attempted"],
        "failed": state["failed"],
        "metrics": metrics,
    }
    with open(os.path.join(OUT_DIR, "results.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"stamp": stamp, "result": result}, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
