"""Eigenfunctions against the exact ones: the compact-operator estimates
(Babuska & Osborn, Handbook of Numerical Analysis II, 1991) give the
error of the first eigenfunction as O(h^(k+1)) in L2 and O(h^k) in H1,
and that of the first eigenvalue as O(h^(2k))."""

import csv
import dataclasses
import functools
import itertools

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

from conftest import free_stiffness


def phi1_errors(mesh, dofmap, phi):
    """L2 and H1-seminorm errors of phi against prod_i sin(pi x_i), both
    integrated cell by cell: phi is scaled to the exact L2 norm,
    (1/2)^(dim/2), and signed to agree with it."""
    dim = mesh.dim
    points, weights = quadrature(dim, 6)
    vals, grads = tabulate(dim, dofmap.degree, points)
    v = mesh.vertices[mesh.cells]
    J = (v[:, 1:] - v[:, :1]).transpose(0, 2, 1)  # (cells, x, ref)
    det = np.abs(np.linalg.det(J))
    w = weights * det[:, None]  # (cells, q)
    x = v[:, 0, None, :] + np.einsum("cdr,qr->cqd", J, points, optimize=True)
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
    dofmap = build_dofmap(mesh, 2)
    system = assemble(mesh, dofmap, deck, 2)
    K = free_stiffness(mesh, dofmap, system)
    for j in (1, 2, 3):
        phi1, phi2 = column[f"phi1_{j}"], column[f"phi2_{j}"]
        x = phi1[system.free_dofs]
        kappa = (x @ (K @ x)) / (x @ (system.mass @ x))
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


# The same split square for the first m eigenpairs and the eigenfunctions:
# with phi_g = u_g(x) sin(j pi y), every j gives its own transfer matrix,
# and the adjoint takes R^T and F^T in place of R and F.

SPLIT_DECK = {1: (builtin_deck("paper-table1")[1][0], BoundaryCondition.dirichlet()),
              2: (OUTER_FUEL, BoundaryCondition.dirichlet())}


def split_square(N):
    """Square N with region 1 for x < 1/2 and region 2 beyond (N even)."""
    square = generate_unit_square(N)
    left = square.vertices[square.cells].mean(axis=1)[:, 0] < 0.5
    return Mesh(2, square.vertices, square.cells, np.where(left, 1, 2))


def split_square_transfer(lam, j, adjoint, x):
    """The transfer matrices of s = (u, D u') from 0 to each point of x,
    stacked as (len(x), 4, 4), for the mode sin(j pi y) at lam."""
    def generator(gc):
        R = np.array([[gc.D1 * (j * np.pi) ** 2 + gc.sigma_a1 + gc.sigma_12, 0.0],
                      [-gc.sigma_12, gc.D2 * (j * np.pi) ** 2 + gc.sigma_a2]])
        F = np.array([[gc.nu_sigma_f1, gc.nu_sigma_f2], [0.0, 0.0]])
        K = (R - lam * F).T if adjoint else R - lam * F
        return np.block([[np.zeros((2, 2)), np.diag([1 / gc.D1, 1 / gc.D2])],
                         [K, np.zeros((2, 2))]])

    x = np.asarray(x, dtype=float)[:, None, None]
    left = scipy.linalg.expm(np.minimum(x, 0.5) * generator(SPLIT_DECK[1][0]))
    right = scipy.linalg.expm(np.maximum(x - 0.5, 0.0) * generator(SPLIT_DECK[2][0]))
    return right @ left


@functools.cache
def split_square_eigenvalues(adjoint, top=500.0):
    """The eigenvalues below top, ascending: the roots of det P[:2, 2:] of
    every j, merged. The smallest root grows with j, so j stops at the
    first one with no root below top."""
    grid = np.linspace(1.0, top, 500)
    roots = []
    for j in itertools.count(1):
        def det(lam):
            return np.linalg.det(split_square_transfer(lam, j, adjoint, [1.0])[0, :2, 2:])

        signs = np.sign([det(lam) for lam in grid])
        changes = np.flatnonzero(signs[:-1] != signs[1:])
        if not len(changes):
            return np.sort(roots)
        roots += [scipy.optimize.brentq(det, grid[i], grid[i + 1], xtol=1e-12)
                  for i in changes]


def split_square_phi1_errors(mesh, dofmap, phi, lam, adjoint):
    """L2 and H1-seminorm errors of phi against the exact fast flux
    u1(x) sin(pi y) of the j = 1 eigenvalue lam, on the quadrature of
    phi1_errors; phi is scaled to its best L2 fit."""
    points, weights = quadrature(2, 6)
    vals, grads = tabulate(2, dofmap.degree, points)
    v = mesh.vertices[mesh.cells]
    J = (v[:, 1:] - v[:, :1]).transpose(0, 2, 1)
    w = weights * np.abs(np.linalg.det(J))[:, None]
    x = v[:, 0, None, :] + np.einsum("cdr,qr->cqd", J, points, optimize=True)
    coef = phi[dofmap.cell_dofs]
    uh = coef @ vals
    duh = np.einsum("ci,iqr,crd->cqd", coef, grads, np.linalg.inv(J), optimize=True)
    # s(x) = P(x) (0, c) with c the null vector of P(1)[:2, 2:], so that
    # u(0) = u(1) = 0; the points share a few abscissae
    c = np.linalg.svd(split_square_transfer(lam, 1, adjoint, [1.0])[0, :2, 2:])[2][-1]
    xs, at = np.unique(x[..., 0], return_inverse=True)
    s = (split_square_transfer(lam, 1, adjoint, xs)[:, :, 2:] @ c)[at.reshape(uh.shape)]
    D1 = np.where(x[..., 0] < 0.5, SPLIT_DECK[1][0].D1, SPLIT_DECK[2][0].D1)
    sin, cos = np.sin(np.pi * x[..., 1]), np.cos(np.pi * x[..., 1])
    u = s[..., 0] * sin
    du = np.stack([s[..., 2] / D1 * sin, np.pi * s[..., 0] * cos], axis=-1)
    scale = np.sum(w * u * uh) / np.sum(w * uh ** 2)
    l2 = np.sqrt(np.sum(w * (u - scale * uh) ** 2))
    h1 = np.sqrt(np.sum(w[..., None] * (du - scale * duh) ** 2))
    return l2, h1


@pytest.mark.parametrize("k, sizes", [(1, (16, 32)), (2, (8, 16))])
def test_non_symmetric_two_region_eigenfunctions_converge_at_the_estimated_rates(k, sizes):
    # measured 1.99 (L2) and 1.00 (H1) at k = 1, 2.99 and 1.98 at k = 2,
    # the same to two decimals for phi1 and phi1*
    settings = SolverSettings(m=1)
    errors = []
    for N in sizes:
        mesh = split_square(N)
        dofmap = build_dofmap(mesh, k)
        system = assemble(mesh, dofmap, SPLIT_DECK, k)
        # the adjoint runs its own Arnoldi on a copy without the primal's pairs
        pair = (solve_primal(system, settings)[0],
                solve_adjoint(dataclasses.replace(system), settings)[0])
        errors.append([
            split_square_phi1_errors(
                mesh, dofmap, sol.phi1, split_square_eigenvalues(adjoint)[0], adjoint)
            for adjoint, sol in zip((False, True), pair)
        ])
    rates = np.log2(np.array(errors[0]) / np.array(errors[1]))
    assert np.all(rates[:, 0] > k + 1 - 0.1), rates
    assert np.all(rates[:, 1] > k - 0.1), rates


def test_non_symmetric_two_region_first_eigenpairs_in_both_orientations():
    # the first four are j = 1, 2, 1, 3 at 109.84, 224.80, 390.27, 399.03;
    # measured relative errors 1.7e-7, 1.8e-6, 6.2e-6 and 9.3e-6 here
    mesh = split_square(12)
    system = assemble(mesh, build_dofmap(mesh, 3), SPLIT_DECK, 3)
    settings = SolverSettings(m=4)
    primal = solve_primal(system, settings)
    adjoint = solve_adjoint(dataclasses.replace(system), settings)
    for side, sols in zip((False, True), (primal, adjoint)):
        exact = split_square_eigenvalues(side)[:4]
        lams = np.array([sol.lam for sol in sols])
        assert np.all(np.abs(lams - exact) <= 3e-5 * exact), (lams, exact)
    # pairs of distinct eigenvalues are B-orthogonal: y_j^T B x_i = 0
    X, Y = (
        np.column_stack([np.concatenate([system.restrict(s.phi1), system.restrict(s.phi2)])
                         for s in sols])
        for sols in (primal, adjoint)
    )
    G = Y.T @ (system.B @ X)
    lams = np.array([sol.lam for sol in primal])
    distinct = np.abs(lams[:, None] - lams[None, :]) > 1e-6 * np.abs(lams)
    assert np.count_nonzero(distinct) == 12
    assert np.max(np.abs(G[distinct])) <= 1e-8 * np.min(np.abs(np.diag(G)))
