"""Shared fixtures: the standard deck and a prebuilt system.

Session scope keeps the repeatedly used mesh and assembled pencil to one
construction each. The mesh and DOF map arrays and the system's matrices
are read-only, so sharing them is safe; but a solve leaves its factors
and pairs on the BlockSystem it solved, and the next solve on that
system takes them over. So each test gets a dataclasses.replace copy of
the shared system: the same arrays, and no solver state from an earlier
test.
"""

import dataclasses

import numpy as np
import pytest

from critifem.assembly import assemble
from critifem.fem_space import build_dofmap
from critifem.materials import builtin_deck
from critifem.mesh import generate_unit_square


@pytest.fixture(scope="session")
def table1_deck():
    return builtin_deck("paper-table1")


@pytest.fixture(scope="session")
def table1_gc(table1_deck):
    return table1_deck[1][0]


@pytest.fixture(scope="session")
def _square16_assembled(table1_deck):
    mesh = generate_unit_square(16)
    dofmap = build_dofmap(mesh, 1)
    return mesh, dofmap, assemble(mesh, dofmap, table1_deck, 1)


@pytest.fixture
def square16_system(_square16_assembled):
    """Unit square N=16, degree 1, Dirichlet: (mesh, dofmap, system), the
    system without solver state (see above)."""
    mesh, dofmap, system = _square16_assembled
    return mesh, dofmap, dataclasses.replace(system)


@pytest.fixture
def rng():
    return np.random.default_rng(20260819)
