"""Eigenfunctions against the exact ones: the compact-operator estimates
(Babuska & Osborn, Handbook of Numerical Analysis II, 1991) give the
error of the first eigenfunction as O(h^(k+1)) in L2 and O(h^k) in H1,
and that of the first eigenvalue as O(h^(2k))."""

import csv

import numpy as np
import pytest

from critifem.app import cli
from critifem.assembly import assemble
from critifem.convergence import run_study, thermal_ratio
from critifem.eigensolver import SolverSettings, solve_adjoint, solve_primal
from critifem.fem_space import build_dofmap, quadrature, tabulate
from critifem.materials import builtin_deck
from critifem.mesh import generate_unit_cube, generate_unit_square


def phi1_errors(mesh, dofmap, phi):
    """L2 and H1-seminorm errors of phi against prod_i sin(pi x_i), both
    integrated cell by cell: phi is scaled to the exact L2 norm,
    (1/2)^(dim/2), and signed to agree with it."""
    dim = mesh.dim
    quad = quadrature(dim, 6)
    vals, grads = tabulate(dim, dofmap.degree, quad.points_ref)
    v = mesh.vertices[mesh.cells]
    J = (v[:, 1:] - v[:, :1]).transpose(0, 2, 1)  # (cells, x, ref)
    det = np.abs(np.linalg.det(J))
    w = quad.weights * det[:, None]  # (cells, q)
    x = v[:, 0, None, :] + np.einsum("cdr,qr->cqd", J, quad.points_ref, optimize=True)
    coef = phi[dofmap.cell_dofs]
    uh = coef @ vals
    duh = np.einsum("ci,iqr,crd->cqd", coef, grads, np.linalg.inv(J), optimize=True)
    s = np.sin(np.pi * x)  # nonzero: every point is inside a cell
    u = np.prod(s, axis=-1)
    du = np.pi * np.cos(np.pi * x) * (u[..., None] / s)
    scale = 0.5 ** (dim / 2) / np.sqrt(np.sum(w * uh ** 2)) * np.sign(np.sum(w * u * uh))
    l2 = np.sqrt(np.sum(w * (u - scale * uh) ** 2))
    h1 = np.sqrt(np.sum(w[..., None] * (du - scale * duh) ** 2))
    return l2, h1


def phi1_rates(generate, k, sizes):
    """(side, norm) rates of the primal and adjoint phi1 errors over the
    halving of h from sizes[0] to sizes[1]."""
    deck = builtin_deck("paper-table1")
    errors = []
    for N in sizes:
        mesh = generate(N)
        dofmap = build_dofmap(mesh, k)
        system = assemble(mesh, dofmap, deck, k)
        settings = SolverSettings(m=1)
        sols = solve_primal(system, settings) + solve_adjoint(system, settings)
        errors.append([phi1_errors(mesh, dofmap, sol.phi1) for sol in sols])
    return np.log2(np.array(errors[0]) / np.array(errors[1]))


@pytest.mark.parametrize("k, sizes", [(1, (16, 32)), (2, (8, 16)), (3, (4, 8))])
def test_first_eigenfunction_converges_at_the_estimated_rates(k, sizes):
    rates = phi1_rates(generate_unit_square, k, sizes)
    assert np.all(rates[:, 0] > k + 1 - 0.1), rates
    assert np.all(rates[:, 1] > k - 0.1), rates


def test_first_eigenfunction_on_the_cube_converges_at_the_estimated_rates():
    # measured 1.93 (L2) and 1.02 (H1); N = 6 -> 12 gives an L2 rate of
    # 1.89, still short of the asymptote
    rates = phi1_rates(generate_unit_cube, 1, (8, 16))
    assert np.all(rates[:, 0] > 2 - 0.1), rates
    assert np.all(rates[:, 1] > 1 - 0.1), rates


@pytest.mark.parametrize("k, resolutions", [(2, (4, 6, 8, 12)), (3, (2, 4, 6, 8))])
def test_first_eigenvalue_on_the_cube_converges_at_rate_2k(k, resolutions):
    # measured 3.74 at k = 2 and 5.60 at k = 3
    rate = run_study("cube", k, resolutions, m=1).fits[0].rate
    assert abs(rate - 2 * k) < 0.5, rate


def test_written_thermal_flux_is_the_thermal_ratio_times_the_fast(tmp_path):
    # on a homogeneous Dirichlet deck every block is a combination of the
    # stiffness K and the mass M, so phi2 = thermal_ratio(kappa) phi1 with
    # kappa the Rayleigh quotient of phi1 on (K, M)
    code = cli(["solve", "--domain", "square", "--resolutions", "6", "--degree", "2",
                "--num", "3", "--deck", "paper-table1", "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "square_k2_modes_coefficients.csv", newline="") as f:
        rows = list(csv.reader(f))
    table = np.array(rows[1:], dtype=float)
    column = {name: table[:, i] for i, name in enumerate(rows[0])}
    deck = builtin_deck("paper-table1")
    mesh = generate_unit_square(6)
    system = assemble(mesh, build_dofmap(mesh, 2), deck, 2)
    for j in (1, 2, 3):
        phi1, phi2 = column[f"phi1_{j}"], column[f"phi2_{j}"]
        x = phi1[system.free_dofs]
        kappa = (x @ (system.stiffness @ x)) / (x @ (system.mass @ x))
        ratio = thermal_ratio(kappa, deck[1][0])
        # about 1e-13 here for the double pair 2-3, whose residuals are
        # near 1e-10
        assert np.max(np.abs(phi2 - ratio * phi1)) <= 1e-11 * np.max(np.abs(phi2))
