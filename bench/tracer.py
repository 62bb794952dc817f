"""In-memory span tracer that wraps qmatroid's public functions from outside.

Nothing under src/ is edited: the tracer swaps module attributes (and two
Automaton methods) for timing wrappers while a traced block runs, then puts
the originals back.  Each wrapped call updates an aggregate for its name
(calls, inclusive seconds, self seconds).  Calls above the kernel are also
kept as spans (name, start, end, parent span, run id) and written out when
the run ends.  The kernel's hot entry points (first_match, insert, overlap
scan) run millions of times per workload, so they are aggregated only; their
time still counts as child time of the span that called them.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# Spans whose call counts and times become per-layer metrics.  Each entry is
# (span name, module, attribute, keep spans).  Patching goes in list order, so
# quantum.commutator_check wraps the already wrapped ncpoly.normal_remainder.
TARGETS = (
    ("kernel.reduce_terms", "qmatroid.kernel", "reduce_terms", True),
    ("kernel.overlap", "qmatroid.kernel", "overlap_obstructions", False),
    ("groebner.buchberger", "qmatroid.groebner", "buchberger", True),
    ("groebner.interreduce", "qmatroid.groebner", "interreduce", True),
    ("ncpoly.normal_remainder", "qmatroid.ncpoly", "normal_remainder", True),
    ("quantum.spec", "qmatroid.quantum", "quantum_aut_spec", True),
    ("batch.run_matroid", "qmatroid.batch", "run_matroid", True),
    ("matroids.enumerate", "qmatroid.matroids", "enumerate_matroids", True),
    ("autgroup.automorphism_group", "qmatroid.autgroup", "automorphism_group", True),
    ("strongmaps.verify_decomposition", "qmatroid.strongmaps", "verify_decomposition", True),
    ("strongmaps.hom_counts", "qmatroid.strongmaps", "hom_counts", True),
)

# The commutator check has no function of its own: it is decide_commutativity
# calling normal_remainder through the name quantum imported.
LOCAL_TARGETS = (("quantum.commutator_check", "qmatroid.quantum", "normal_remainder"),)

AUTOMATON_METHODS = (("kernel.first_match", "first_match"), ("kernel.insert", "insert"))


class Tracer:
    """Collects per-name aggregates and spans for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int, str]] = []
        self._restore: list[tuple[object, str, object]] = []
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = {}
        self.counts: dict[str, int] = {}
        # frames of open calls: [start, child seconds, span id, name]
        self._stack: list[list] = [[0.0, 0.0, -1, ""]]
        # automata with inserts that no query has seen yet, by id
        self._dirty: dict[int, object] = {}

    def reset(self) -> None:
        """Clear the aggregates between operations; spans are kept for the run."""
        self.stats.clear()
        self.counts.clear()

    def bump(self, name: str, by: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def _wrap(self, name: str, fn, keep_spans: bool, observe=None):
        stats = self.stats
        stack = self._stack
        spans = self.spans
        run_id = self.run_id

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            start = perf_counter()
            sid = len(spans) if keep_spans else -1
            if keep_spans:
                spans.append(None)  # reserve the id; filled on exit
            frame = [start, 0.0, sid if keep_spans else parent[2], name]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                end = perf_counter()
                dt = end - start
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0.0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[1]
                stack[-1][1] += dt
                if keep_spans:
                    spans[sid] = (name, start, end, parent[2], run_id)
            if observe is not None:
                observe(result, args, parent[3])
            return result

        return wrapper

    def _observers(self) -> dict:
        def reduce_terms(result, args, parent):
            # reductions made by the engine itself, and how many of them
            # left a remainder that was appended to the basis
            if parent == "groebner.buchberger":
                self.bump("groebner.reductions")
                if result:
                    self.bump("groebner.appended")

        def buchberger(result, args, parent):
            self.bump("groebner.inputs", len(args[0]) if hasattr(args[0], "__len__") else 0)
            self.bump("groebner.spairs", getattr(result, "iterations", 0))
            self.bump("groebner.basis_size", len(getattr(result, "generators", ())))

        def spec(result, args, parent):
            self.bump("quantum.spec_generators", len(getattr(result, "generators", ())))

        return {
            "kernel.reduce_terms": reduce_terms,
            "groebner.buchberger": buchberger,
            "quantum.spec": spec,
        }

    def install(self) -> None:
        """Swap in the wrappers; every alias of a target in qmatroid is patched."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        # import everything first: a module imported while the wrappers are
        # in place would keep them after uninstall
        for modname in ("qmatroid.cli", *(t[1] for t in TARGETS)):
            importlib.import_module(modname)
        modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "qmatroid"]
        observers = self._observers()
        for name, modname, attr, keep in TARGETS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original, keep, observers.get(name))
            # other modules hold the same function under imported names
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, modname, attr in LOCAL_TARGETS:
            mod = sys.modules[modname]
            self._set(mod, attr, self._wrap(name, getattr(mod, attr), True))

        automaton = sys.modules["qmatroid.kernel"].Automaton
        dirty = self._dirty

        def first_match(result, args, parent):
            if dirty.pop(id(args[0]), None) is not None:
                self.bump("kernel.automaton_rebuilds")

        def insert(result, args, parent):
            # hold the automaton so its id stays unique until it is queried
            dirty[id(args[0])] = args[0]

        observers = {"kernel.first_match": first_match, "kernel.insert": insert}
        for name, attr in AUTOMATON_METHODS:
            original = getattr(automaton, attr)
            self._set(automaton, attr, self._wrap(name, original, False, observers[name]))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        self._dirty.clear()

    def snapshot(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last reset."""
        out: dict[str, float] = {}

        def calls(name: str) -> int:
            return self.stats.get(name, [0, 0.0, 0.0])[0]

        def total(name: str) -> float:
            return self.stats.get(name, [0, 0.0, 0.0])[1]

        def own(name: str) -> float:
            return self.stats.get(name, [0, 0.0, 0.0])[2]

        out["kernel.reduce_terms_s"] = own("kernel.reduce_terms")
        out["kernel.reduce_terms_calls"] = calls("kernel.reduce_terms")
        out["kernel.first_match_s"] = total("kernel.first_match")
        out["kernel.first_match_calls"] = calls("kernel.first_match")
        out["kernel.automaton_inserts"] = calls("kernel.insert")
        out["kernel.automaton_rebuilds"] = self.counts.get("kernel.automaton_rebuilds", 0)
        out["kernel.overlap_s"] = total("kernel.overlap")
        out["kernel.overlap_calls"] = calls("kernel.overlap")
        out["groebner.buchberger_s"] = total("groebner.buchberger")
        out["groebner.buchberger_self_s"] = own("groebner.buchberger")
        out["groebner.interreduce_s"] = total("groebner.interreduce")
        out["groebner.inputs"] = self.counts.get("groebner.inputs", 0)
        out["groebner.spairs"] = self.counts.get("groebner.spairs", 0)
        out["groebner.appended"] = self.counts.get("groebner.appended", 0)
        reductions = self.counts.get("groebner.reductions", 0)
        out["groebner.useful_ratio"] = out["groebner.appended"] / reductions if reductions else 0.0
        out["groebner.basis_size"] = self.counts.get("groebner.basis_size", 0)
        out["quantum.spec_s"] = total("quantum.spec")
        out["quantum.spec_generators"] = self.counts.get("quantum.spec_generators", 0)
        out["quantum.commutator_check_s"] = total("quantum.commutator_check")
        out["quantum.commutators_checked"] = calls("quantum.commutator_check")
        out["ncpoly.normal_remainder_s"] = total("ncpoly.normal_remainder")
        out["ncpoly.normal_remainder_calls"] = calls("ncpoly.normal_remainder")
        out["batch.run_matroid_s"] = total("batch.run_matroid")
        out["matroids.enumerate_s"] = total("matroids.enumerate")
        out["autgroup.automorphism_group_s"] = total("autgroup.automorphism_group")
        out["strongmaps.verify_decomposition_s"] = total("strongmaps.verify_decomposition")
        out["strongmaps.hom_counts_s"] = total("strongmaps.hom_counts")
        out["strongmaps.hom_counts_calls"] = calls("strongmaps.hom_counts")
        return out

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many were written."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, start, end, parent, run_id) in enumerate(self.spans):
                row = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "run": run_id}
                fh.write(json.dumps(row) + "\n")
        return len(self.spans)


# Work counters that must repeat exactly between traced runs of one input.
DETERMINISTIC = (
    "groebner.inputs",
    "groebner.spairs",
    "groebner.appended",
    "groebner.basis_size",
    "kernel.reduce_terms_calls",
    "kernel.automaton_rebuilds",
    "kernel.overlap_calls",
    "strongmaps.hom_counts_calls",
)
