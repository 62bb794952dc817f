"""The benchmark tracer still finds and wraps every function it measures.

bench/tracer.py patches qmatroid functions by module and attribute name.  A
refactor that renames one of them, or that stops routing reductions through
kernel.reduce_terms, would leave its counters at zero; this test fails then.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from qmatroid import kernel, strongmaps
from qmatroid.groebner import EngineConfig
from qmatroid.matroids import uniform
from qmatroid.quantum import decide_commutativity, quantum_aut_spec

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_layer_and_restores():
    original = kernel.reduce_terms
    tracer = load_tracer().Tracer("test")
    tracer.install()
    try:
        spec = quantum_aut_spec(uniform(2, 4), "bases")
        decide_commutativity(spec, EngineConfig(time_budget=60.0), shortcuts=False)
        metrics = tracer.snapshot()
    finally:
        tracer.uninstall()
    for name in (
        "kernel.reduce_terms_calls",
        "kernel.first_match_calls",
        "kernel.automaton_inserts",
        "kernel.overlap_calls",
        "groebner.appended",
        "groebner.interreduce_s",
        "quantum.commutators_checked",
        "ncpoly.normal_remainder_calls",
    ):
        assert metrics[name] > 0, name
    assert kernel.reduce_terms is original


def test_tracer_reaches_the_strongmaps_layer_and_restores():
    original = strongmaps.hom_counts
    catalog = strongmaps.iso_class_catalog(2)
    tracer = load_tracer().Tracer("test")
    tracer.install()
    try:
        strongmaps.verify_decomposition(uniform(1, 2), uniform(2, 2), catalog)
        strongmaps.lovasz_isomorphism_test(uniform(1, 2), uniform(2, 2), catalog)
        metrics = tracer.snapshot()
    finally:
        tracer.uninstall()
    assert metrics["strongmaps.verify_decomposition_s"] > 0
    assert metrics["strongmaps.hom_counts_calls"] > 0
    assert strongmaps.hom_counts is original
