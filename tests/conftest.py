"""Shared fixtures: the standard deck and a prebuilt system.

Session scope keeps the repeatedly used mesh and assembled pencil to one
construction each. The mesh and DOF map arrays and the system's matrices
are read-only, so sharing them is safe; but a solve leaves its factors
and pairs on the BlockSystem it solved, and the next solve on that
system takes them over. So each test gets a dataclasses.replace copy of
the shared system: the same arrays, and no solver state from an earlier
test.

free_stiffness assembles the unweighted stiffness K, which no program
path reads and assemble does not build; test modules import it from here.
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from critifem.assembly import _element_tables, _gradient_metric, assemble
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


def free_stiffness(mesh, dofmap, system):
    """The stiffness K with coefficient 1 in every cell, on the system's
    free DOFs and in its numbering, as a CSR matrix. It is assembled here
    from the element tables and the cell DOFs, not derived from a block
    of the system, so that a test of a11 - D1 K stays a test."""
    _mass_ref, stiff_ref = _element_tables(mesh.dim, dofmap.degree)
    _det, G = _gradient_metric(mesh)
    dd = mesh.dim * mesh.dim
    local = G.reshape(-1, dd) @ stiff_ref.reshape(dd, -1)  # row i * nb + j
    dofs = dofmap.cell_dofs
    nb = dofs.shape[1]
    rows = np.repeat(dofs, nb, axis=1).ravel()
    cols = np.tile(dofs, (1, nb)).ravel()
    K = sp.csr_matrix((local.ravel(), (rows, cols)), shape=(dofmap.n, dofmap.n))
    return K[system.free_dofs][:, system.free_dofs]
