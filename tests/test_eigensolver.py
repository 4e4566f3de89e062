"""Eigensolver: hand-checkable pencils, a dense QZ oracle, adjoint
biorthogonality, certification, and determinism."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from critifem import eigensolver
from critifem.assembly import BlockSystem, assemble
from critifem.convergence import reference_eigenvalues, thermal_ratio
from critifem.eigensolver import (
    EigenSolution,
    SolverError,
    SolverSettings,
    residual,
    solve_adjoint,
    solve_primal,
)
from critifem.app import packaged_mesh_path
from critifem.fem_space import build_dofmap
from critifem.materials import builtin_deck
from critifem.mesh import generate_unit_square, read_gmsh


def make_system(a11, a22, coupling, f1, f2):
    """Hand-built reduced pencil with identity mass, no constraints."""
    a11 = np.atleast_2d(np.asarray(a11, dtype=float))
    n = a11.shape[0]
    blocks = {
        name: np.atleast_2d(np.asarray(mat, dtype=float))
        for name, mat in (("a22", a22), ("coupling", coupling), ("f1", f1), ("f2", f2))
    }
    return BlockSystem(
        n=n,
        n_raw=n,
        mass=sp.csr_matrix(np.eye(n)),
        stiffness=sp.csr_matrix((n, n)),
        a11=sp.csr_matrix(a11),
        a22=sp.csr_matrix(blocks["a22"]),
        coupling=sp.csr_matrix(blocks["coupling"]),
        f1=sp.csr_matrix(blocks["f1"]),
        f2=sp.csr_matrix(blocks["f2"]),
        free_dofs=np.arange(n),
        constrained_dofs=np.array([], dtype=int),
    )


# ---------------------------------------------------------------------------
# scalar analog, solvable on paper

def test_scalar_analog_eigenvalue():
    # [[2,0],[-1,3]] x = lam [[1,1],[0,0]] x  =>  x2 = x1/3, lam = 3/2
    system = make_system([[2.0]], [[3.0]], [[1.0]], [[1.0]], [[1.0]])
    sols = solve_primal(system, SolverSettings(m=1))
    assert len(sols) == 1
    sol = sols[0]
    assert abs(sol.lam - 1.5) < 1e-13
    assert abs(sol.k_eff - 2.0 / 3.0) < 1e-13
    assert sol.residual < 1e-13
    # normalized (3,1)/sqrt(10), positive phase
    assert abs(sol.phi1[0] - 3.0 / np.sqrt(10.0)) < 1e-12
    assert abs(sol.phi2[0] - 1.0 / np.sqrt(10.0)) < 1e-12
    adj = solve_adjoint(system, SolverSettings(m=1))[0]
    assert adj.adjoint
    assert abs(adj.lam - 1.5) < 1e-13
    # A^T y = lam B^T y  =>  y = (2,1)/sqrt(5)
    assert abs(adj.phi1[0] - 2.0 / np.sqrt(5.0)) < 1e-12
    assert abs(adj.phi2[0] - 1.0 / np.sqrt(5.0)) < 1e-12
    assert residual(system, adj) < 1e-13


def test_pencil_scaling_invariance():
    base = make_system([[2.0]], [[3.0]], [[1.0]], [[1.0]], [[1.0]])
    scaled = dataclasses.replace(
        base,
        a11=base.a11 * 7.3, a22=base.a22 * 7.3, coupling=base.coupling * 7.3,
        f1=base.f1 * 7.3, f2=base.f2 * 7.3,
    )
    lam0 = solve_primal(base, SolverSettings(m=1))[0].lam
    lam1 = solve_primal(scaled, SolverSettings(m=1))[0].lam
    assert abs(lam0 - lam1) < 1e-12


@pytest.mark.parametrize("solve", [solve_primal, solve_adjoint])
def test_no_fission_raises_empty_spectrum(solve):
    system = make_system([[2.0]], [[3.0]], [[1.0]], [[0.0]], [[0.0]])
    with pytest.raises(SolverError, match="certified only 0 of 5 pairs: empty spectrum"):
        solve(system)


@pytest.mark.parametrize("solve", [solve_primal, solve_adjoint])
def test_fewer_finite_eigenvalues_than_m_raises(solve):
    # fission on three of five fast DOFs: three finite eigenvalues
    eye = np.eye(5)
    system = make_system(np.diag([2.0, 3.0, 4.0, 5.0, 6.0]), eye, np.zeros((5, 5)),
                         np.diag([1.0, 1.0, 1.0, 0.0, 0.0]), np.zeros((5, 5)))
    assert len(solve(system, SolverSettings(m=3))) == 3
    with pytest.raises(SolverError, match="certified only 3 of 5 pairs"):
        solve(system, SolverSettings(m=5))


@pytest.mark.parametrize("solve", [solve_primal, solve_adjoint])
def test_arpack_shortfall_raises_without_retry(solve, monkeypatch):
    # n = 2000 takes the ARPACK path; fission on three fast DOFs gives
    # three finite eigenvalues, and the first converged attempt already
    # reaches zeros of the operator, so it must fail there, not retry
    n = 2000
    a11 = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    eye = sp.identity(n, format="csr")
    zero = sp.csr_matrix((n, n))
    f1 = sp.csr_matrix(([1.0, 1.0, 1.0], ([0, 700, 1400], [0, 700, 1400])), shape=(n, n))
    system = BlockSystem(
        n=n, n_raw=n,
        mass=eye, stiffness=zero, a11=a11, a22=eye, coupling=zero, f1=f1, f2=zero,
        free_dofs=np.arange(n), constrained_dofs=np.array([], dtype=int),
    )
    calls = []
    original = eigensolver.spla.eigs

    def spy(A, *args, **kwargs):
        calls.append(kwargs["ncv"])
        return original(A, *args, **kwargs)

    monkeypatch.setattr(eigensolver.spla, "eigs", spy)
    with pytest.raises(SolverError, match="certified only 3 of 5 pairs"):
        solve(system, SolverSettings(m=5))
    assert calls == [20]


def test_no_free_dof_raises():
    empty = np.zeros((0, 0))
    system = make_system(empty, empty, empty, empty, empty)
    assert system.n == 0
    with pytest.raises(SolverError, match="no free DOF"):
        solve_primal(system)


def test_complex_pair_reported_not_silently_realified():
    # production term rotates in a 2D fast subspace: lam = exp(-+ i theta)
    theta = 0.35
    c, s = np.cos(theta), np.sin(theta)
    eye = np.eye(2)
    system = make_system(eye, eye, np.zeros((2, 2)), [[c, -s], [s, c]], np.zeros((2, 2)))
    sols = solve_primal(system, SolverSettings(m=2))
    assert len(sols) == 2
    lams = sorted((sol.lam for sol in sols), key=lambda z: z.imag)
    assert abs(lams[0] - complex(c, -s)) < 1e-12
    assert abs(lams[1] - complex(c, s)) < 1e-12
    for sol in sols:
        assert np.isnan(sol.k_eff)
        assert sol.residual < 1e-12


def test_settings_validation():
    with pytest.raises(ValueError, match="m must be"):
        SolverSettings(m=0)
    for tol in (0.0, -1e-10, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="tolerances must be positive and finite"):
            SolverSettings(tol=tol)


# ---------------------------------------------------------------------------
# assembled problem on the unit square

def test_square_spectrum_properties(square16_system):
    _, _, system = square16_system
    sols = solve_primal(system, SolverSettings(m=5))
    assert len(sols) == 5
    lams = [sol.lam for sol in sols]
    for lam in lams:
        assert abs(lam.imag) <= 1e-8 * abs(lam)
        assert lam.real > 0.0
    assert all(lams[i].real <= lams[i + 1].real + 1e-12 for i in range(4))
    for sol in sols:
        assert sol.residual <= 1e-9
        assert residual(system, sol) <= 1e-9
        # unit mass norm over both groups
        p1 = system.restrict(sol.phi1)
        p2 = system.restrict(sol.phi2)
        norm = p1 @ (system.mass @ p1) + p2 @ (system.mass @ p2)
        assert abs(norm - 1.0) < 1e-10
        assert np.all(sol.phi1[system.constrained_dofs] == 0.0)
    # fundamental mode has one sign in both groups
    fund = sols[0]
    for phi in (fund.phi1, fund.phi2):
        assert np.min(phi.real) >= -1e-8 * np.max(phi.real)


def test_square_dispersion_relation(square16_system, table1_gc):
    # single homogeneous region: the pencil diagonalizes through the
    # scalar problem K x = mu M x, so lam and phi2/phi1 must satisfy the
    # two-group dispersion relation at the DISCRETE buckling exactly
    import scipy.sparse.linalg as spla

    from critifem.convergence import analytic_eigenvalue

    _, _, system = square16_system
    mu_h = spla.eigsh(system.stiffness, k=1, M=system.mass, sigma=0.0,
                      which="LM", return_eigenvectors=False)[0]
    sol = solve_primal(system, SolverSettings(m=1))[0]
    p1 = system.restrict(sol.phi1)
    p2 = system.restrict(sol.phi2)
    ratio = (p1 @ (system.mass @ p2)) / (p1 @ (system.mass @ p1))
    assert abs(ratio - thermal_ratio(mu_h, table1_gc)) < 1e-8
    expect = analytic_eigenvalue(mu_h, table1_gc)
    assert abs(sol.lam.real - expect) < 1e-8 * expect
    # and the discrete buckling is within 2% of the continuum 2 pi^2
    assert abs(mu_h - 2.0 * np.pi ** 2) < 0.02 * 2.0 * np.pi ** 2


def test_square_spectrum_matches_dense_qz():
    mesh = generate_unit_square(8)
    dofmap = build_dofmap(mesh, 1)
    system = assemble(mesh, dofmap, builtin_deck("paper-table1"), 1)
    assert 2 * system.n >= 80  # exercises the ARPACK path
    sols = solve_primal(system, SolverSettings(m=5))
    w, _ = scipy.linalg.eig(
        system.A.toarray(), system.B.toarray(), right=True,
        homogeneous_eigvals=True,
    )
    alpha, beta = w
    finite = np.abs(beta) > 1e-8 * np.max(np.abs(beta))
    lams = np.sort((alpha[finite] / beta[finite]).real)
    for got, want in zip((s.lam.real for s in sols), lams[:5]):
        assert abs(got - want) <= 1e-8 * abs(want)


def test_adjoint_spectrum_and_biorthogonality(square16_system):
    _, _, system = square16_system
    primal = solve_primal(system, SolverSettings(m=5))
    adjoint = solve_adjoint(system, SolverSettings(m=5))
    assert len(adjoint) == 5
    for p, a in zip(primal, adjoint):
        assert abs(p.lam - a.lam) <= 1e-8 * abs(p.lam)
        assert a.residual <= 1e-9
        assert residual(system, a) <= 1e-9
    X = np.column_stack([
        np.concatenate([system.restrict(s.phi1), system.restrict(s.phi2)])
        for s in primal
    ])
    Y = np.column_stack([
        np.concatenate([system.restrict(s.phi1), system.restrict(s.phi2)])
        for s in adjoint
    ])
    G = Y.T @ (system.B @ X)
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) <= 1e-8 * np.max(np.abs(np.diag(G)))
    assert np.min(np.abs(np.diag(G))) > 0.0


def _nonsymmetric_pencil(n, seed):
    """SPD diagonal blocks; non-symmetric, non-negative coupling and
    fission blocks, so a missing transpose changes the adjoint."""
    rng = np.random.default_rng(seed)
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)

    def nonneg():
        return rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.2)

    a11 = lap + np.diag(rng.uniform(0.5, 1.5, n))
    a22 = 2.0 * lap + np.diag(rng.uniform(0.2, 1.0, n))
    return make_system(a11, a22, nonneg(), nonneg(), nonneg())


# dense path, ARPACK path; with these seeds the first five eigenvalues
# hold a whole conjugate pair and split none
@pytest.mark.parametrize("n, seed", [(12, 2), (60, 60)])
def test_nonsymmetric_blocks_match_qz(n, seed):
    system = _nonsymmetric_pencil(n, seed)
    settings = SolverSettings(m=5)
    A, B = system.A.toarray(), system.B.toarray()
    primal = solve_primal(system, settings)
    adjoint = solve_adjoint(system, settings)
    for sols, (a, b) in ((primal, (A, B)), (adjoint, (A.T, B.T))):
        alpha, beta = scipy.linalg.eig(a, b, homogeneous_eigvals=True)[0]
        finite = np.abs(beta) > 1e-8 * np.max(np.abs(beta))
        lams = alpha[finite] / beta[finite]
        lams = lams[np.argsort(np.abs(lams))][:5]
        # the moduli of a conjugate pair differ by rounding, so match sets
        matched = [int(np.argmin(np.abs(lams - sol.lam))) for sol in sols]
        assert sorted(matched) == list(range(5))
        for sol, want in zip(sols, lams[matched]):
            assert abs(sol.lam - want) <= 1e-8 * abs(want)
            assert sol.residual <= 10 * settings.tol
            assert residual(system, sol) <= 10 * settings.tol
    # left and right eigenvectors of distinct eigenvalues are B-orthogonal
    X = np.column_stack([np.concatenate([s.phi1, s.phi2]) for s in primal])
    Y = np.column_stack([np.concatenate([s.phi1, s.phi2]) for s in adjoint])
    G = Y.T @ (B @ X)
    off = G - np.diag(np.diag(G))
    assert np.max(np.abs(off)) <= 1e-8 * np.max(np.abs(np.diag(G)))


def test_arnoldi_iterates_the_fast_flux_operator(monkeypatch):
    system = _nonsymmetric_pencil(60, seed=60)
    shapes = []
    original = eigensolver.spla.eigs

    def spy(A, *args, **kwargs):
        shapes.append(A.shape)
        return original(A, *args, **kwargs)

    monkeypatch.setattr(eigensolver.spla, "eigs", spy)
    solve_primal(system, SolverSettings(m=5))
    solve_adjoint(system, SolverSettings(m=5))
    assert len(shapes) >= 2
    assert set(shapes) == {(system.n, system.n)}


def test_rejected_wanted_pair_is_retried_not_skipped(monkeypatch, table1_gc):
    # The first Arnoldi attempt hands back a corrupted Ritz vector for the
    # 2nd-smallest |lambda| (one of the double (1,2)/(2,1) modes), so that
    # pair fails certification. The solver must retry, not return the
    # remaining pairs shifted up by one mode.
    mesh = generate_unit_square(8)
    dofmap = build_dofmap(mesh, 2)
    system = assemble(mesh, dofmap, builtin_deck("paper-table1"), 2)
    assert 2 * system.n >= 80  # exercises the ARPACK path
    clean = solve_primal(system, SolverSettings(m=5))

    original = eigensolver._arpack_pairs
    calls = []

    def corrupt_first(*args, **kwargs):
        mu, vecs = original(*args, **kwargs)
        if not calls:
            vecs = vecs.copy()
            second = np.argsort(-np.abs(mu), kind="stable")[1]
            vecs[:, second] += 1e-3 * np.cos(np.arange(vecs.shape[0]))
        calls.append(len(mu))
        return mu, vecs

    monkeypatch.setattr(eigensolver, "_arpack_pairs", corrupt_first)
    sols = solve_primal(system, SolverSettings(m=5))
    lams = [sol.lam.real for sol in sols]
    expect = reference_eigenvalues("square", 5, table1_gc)
    assert len(lams) == 5
    for got, want in zip(lams, expect):
        assert abs(got - want) <= 1e-2 * want
    for got, ref in zip(sols, clean):
        assert abs(got.lam - ref.lam) <= 1e-8 * abs(ref.lam)
        assert got.residual <= 1e-9
    assert len(calls) >= 2  # the corrupted attempt was rejected


def test_dense_solve_reports_uncertified_wanted_pair(monkeypatch):
    # the dense solve sees the whole spectrum, so a wanted pair that fails
    # certification there is an error, not a pair to skip
    system = make_system(np.diag([1.0, 2.0, 3.0]), np.eye(3), np.zeros((3, 3)),
                         np.eye(3), np.zeros((3, 3)))
    original = eigensolver._dense_pairs

    def corrupt_second(*args, **kwargs):
        mu, vecs = original(*args, **kwargs)
        vecs = vecs.copy()
        vecs[:, np.argsort(-np.abs(mu), kind="stable")[1]] += 1e-3
        return mu, vecs

    monkeypatch.setattr(eigensolver, "_dense_pairs", corrupt_second)
    with pytest.raises(SolverError, match="dense solve: eigenpair 2"):
        solve_primal(system, SolverSettings(m=2))


def test_repeated_solve_is_bitwise_deterministic(square16_system):
    _, _, system = square16_system
    a = solve_primal(system, SolverSettings(m=3))
    b = solve_primal(system, SolverSettings(m=3))
    for x, y in zip(a, b):
        assert x.lam == y.lam
        assert np.array_equal(x.phi1, y.phi1)
        assert np.array_equal(x.phi2, y.phi2)


def test_solution_is_frozen(square16_system):
    _, _, system = square16_system
    sol = solve_primal(system, SolverSettings(m=1))[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        sol.lam = 0.0
    assert not sol.phi1.flags.writeable


# ---------------------------------------------------------------------------
# factor hand-off and block certification

def _square_k2_system(deck):
    mesh = generate_unit_square(8)
    return assemble(mesh, build_dofmap(mesh, 2), deck, 2)


def _quarter_core_k1_system():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the deck has sigma_a1 = 0 regions
        mesh = read_gmsh(packaged_mesh_path())
        return assemble(mesh, build_dofmap(mesh, 1), builtin_deck("iaea-2d"), 1)


def test_primal_adjoint_pair_factors_once(table1_deck, monkeypatch):
    system = _square_k2_system(table1_deck)
    assert system.n >= 40  # exercises the ARPACK path
    blocks = []
    original = eigensolver._factor

    def spy(block):
        blocks.append(block)
        return original(block)

    monkeypatch.setattr(eigensolver, "_factor", spy)
    settings = SolverSettings(m=3)
    primal = solve_primal(system, settings)
    assert len(blocks) == 2 and blocks[0] is system.a11 and blocks[1] is system.a22
    assert system._factors is not None  # left for the adjoint
    adjoint = solve_adjoint(system, settings)
    assert len(blocks) == 2  # the adjoint took the primal's factors
    assert system._factors is None  # ... and took them off
    # the shared factors give what factoring afresh gives
    fresh = solve_adjoint(dataclasses.replace(system), settings)
    assert len(blocks) == 4
    for x, y in zip(adjoint, fresh):
        assert x.lam == y.lam
        assert np.array_equal(x.phi1, y.phi1)
    assert [s.lam for s in primal] == pytest.approx([s.lam for s in adjoint], rel=1e-8)


def test_replaced_system_factors_afresh(table1_deck, monkeypatch):
    system = _square_k2_system(table1_deck)
    settings = SolverSettings(m=2)
    lam = solve_primal(system, settings)[0].lam
    assert system._factors is not None
    calls = []
    original = eigensolver._factor

    def spy(block):
        calls.append(block)
        return original(block)

    monkeypatch.setattr(eigensolver, "_factor", spy)
    doubled = dataclasses.replace(system, a11=2.0 * system.a11)
    assert doubled._factors is None
    lam2 = solve_primal(doubled, settings)[0].lam
    assert len(calls) == 2 and calls[0] is doubled.a11
    assert abs(lam2 - lam) > 1e-3 * abs(lam)  # not the old a11's factors
    assert doubled._factors is not None and system._factors is not None


@pytest.mark.parametrize("adjoint", [False, True])
@pytest.mark.parametrize(
    "case", ["square-k2-dirichlet", "quarter-core-k1-robin", "nonsymmetric-blocks"]
)
def test_block_residual_matches_full_pencil(case, adjoint, table1_deck, rng):
    if case == "square-k2-dirichlet":
        system = _square_k2_system(table1_deck)
    elif case == "quarter-core-k1-robin":
        system = _quarter_core_k1_system()
        assert any(bc.kind == "robin" for _, bc in builtin_deck("iaea-2d").values())
    else:
        # assembled coupling and fission blocks are symmetric; these are not,
        # so a missing transpose shows
        system = _nonsymmetric_pencil(60, seed=60)
    A, B = (system.A.T, system.B.T) if adjoint else (system.A, system.B)

    def full(lam, x):
        bx = B @ x
        return np.linalg.norm(A @ x - lam * bx, axis=0) / np.linalg.norm(bx, axis=0)

    n2 = 2 * system.n
    x = rng.standard_normal((n2, 4))
    lam = rng.uniform(0.5, 2.0, 4) * np.linalg.norm(A @ x, axis=0) / np.linalg.norm(
        B @ x, axis=0
    )
    z = x[:, 0] + 1j * rng.standard_normal(n2)
    mu = complex(lam[0], 0.3 * lam[0])
    for got, want in (
        (eigensolver._pencil_residual(system, lam, x, adjoint), full(lam, x)),
        (eigensolver._pencil_residual(system, lam[1], x[:, 1], adjoint),
         full(lam[1], x[:, 1])),
        (eigensolver._pencil_residual(system, mu, z, adjoint), full(mu, z)),
    ):
        assert np.all(np.asarray(want) > 0.1)  # O(1): no cancellation to hide in
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_solves_never_build_the_full_pencil(table1_deck, monkeypatch):
    system = _square_k2_system(table1_deck)
    calls = []
    original = sp.bmat

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sp, "bmat", spy)
    settings = SolverSettings(m=3)
    sols = solve_primal(system, settings) + solve_adjoint(system, settings)
    assert all(residual(system, sol) <= 10 * settings.tol for sol in sols)
    assert calls == []
    # the properties still build the pencil on request
    assert system.A.shape == system.B.shape == (2 * system.n, 2 * system.n)
    assert len(calls) == 2
