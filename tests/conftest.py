"""Fixtures shared by several test modules."""

from __future__ import annotations

import pytest

import qmatroid.quantum as quantum_module
from qmatroid.groebner import GBStatus, GroebnerBasis


@pytest.fixture
def contradicting_engine(monkeypatch):
    """Make decide_commutativity's engine return the complete basis {u[1,1]}.

    Every commutator after the first keeps a nonzero normal form, so each
    verdict the engine decides is noncommutative, whatever the spec.
    """

    def engine(generators, config):
        alg = generators[0].alg
        return GroebnerBasis(alg, (alg.gen(1, 1),), GBStatus.complete())

    monkeypatch.setattr(quantum_module, "buchberger", engine)
