"""Eigenfunctions against the exact ones: the compact-operator estimates
(Babuska & Osborn, Handbook of Numerical Analysis II, 1991) give the
error of the first eigenfunction as O(h^(k+1)) in L2 and O(h^k) in H1,
and that of the first eigenvalue as O(h^(2k))."""

import csv
import dataclasses

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from critifem.app import cli
from critifem.assembly import assemble
from critifem.convergence import run_study, thermal_ratio
from critifem.eigensolver import SolverSettings, solve_adjoint, solve_primal
from critifem.fem_space import build_dofmap, quadrature, tabulate
from critifem.materials import BoundaryCondition, GroupConstants, builtin_deck
from critifem.mesh import Mesh, generate_unit_cube, generate_unit_square


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


# the quarter core's outer fuel: nu Sigma_f2 / Sigma_12 is 6.75 here and 1
# in the paper-table1 deck, so the two-region pencil is not symmetrizable
OUTER_FUEL = GroupConstants(D1=1.5, D2=0.4, sigma_a1=0.01, sigma_a2=0.08,
                            sigma_12=0.02, nu_sigma_f1=0.0, nu_sigma_f2=0.135)


def split_square_lambda1():
    """Smallest eigenvalue on the unit square with paper-table1 for x < 1/2,
    OUTER_FUEL for x > 1/2 and Dirichlet on every side, in closed form.

    With phi_g = u_g(x) sin(pi y), the state s = (u, D u') of each region
    obeys s' = G s with G = [[0, D^-1], [R - lambda F, 0]]; the transfer
    matrix P over both halves maps s(0) = (0, c) to s(1), and u(1) = 0
    for some c != 0 exactly when det P[:2, 2:] = 0.
    """
    def block(gc, lam):
        R = np.array([[gc.D1 * np.pi ** 2 + gc.sigma_a1 + gc.sigma_12, 0.0],
                      [-gc.sigma_12, gc.D2 * np.pi ** 2 + gc.sigma_a2]])
        F = np.array([[gc.nu_sigma_f1, gc.nu_sigma_f2], [0.0, 0.0]])
        return np.block([[np.zeros((2, 2)), np.diag([1 / gc.D1, 1 / gc.D2])],
                         [R - lam * F, np.zeros((2, 2))]])

    table1 = builtin_deck("paper-table1")[1][0]

    def det(lam):
        P = scipy.linalg.expm(0.5 * block(OUTER_FUEL, lam)) @ scipy.linalg.expm(
            0.5 * block(table1, lam))
        return np.linalg.det(P[:2, 2:])

    grid = np.linspace(1.0, 200.0, 200)
    signs = np.sign([det(lam) for lam in grid])
    first = np.flatnonzero(signs[:-1] != signs[1:])[0]
    return scipy.optimize.brentq(det, grid[first], grid[first + 1], xtol=1e-12)


@pytest.mark.parametrize("k, sizes", [(1, (8, 16, 32)), (2, (4, 8, 16)), (3, (4, 8, 16))])
def test_non_symmetric_two_region_eigenvalue_converges_at_rate_2k(k, sizes):
    # measured rates: 2.02, 2.00 (k = 1); 3.85, 3.95 (k = 2); 5.95, 6.00 (k = 3)
    exact = split_square_lambda1()
    assert exact == pytest.approx(109.83778146369515, rel=1e-12)
    deck = {1: (builtin_deck("paper-table1")[1][0], BoundaryCondition.dirichlet()),
            2: (OUTER_FUEL, BoundaryCondition.dirichlet())}
    settings = SolverSettings(m=1)
    errors = []
    for N in sizes:
        square = generate_unit_square(N)
        left = square.vertices[square.cells].mean(axis=1)[:, 0] < 0.5
        mesh = Mesh(2, square.vertices, square.cells, np.where(left, 1, 2))
        system = assemble(mesh, build_dofmap(mesh, k), deck, k)
        lam = solve_primal(system, settings)[0].lam
        # a fresh system holds no factors or pairs of the primal solve, so
        # the adjoint runs its own Arnoldi
        adjoint = solve_adjoint(dataclasses.replace(system), settings)[0].lam
        assert abs(adjoint - lam) <= 1e-12 * abs(lam)
        errors.append(abs(lam - exact))
    rates = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(rates - 2 * k) < 0.2), rates
    assert abs(rates[-1] - 2 * k) < 0.05, rates
