"""Eigensolver: hand-checkable pencils, a dense QZ oracle, adjoint
biorthogonality, certification, and determinism."""

import dataclasses
import functools
import itertools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from critifem import eigensolver
from critifem.assembly import BlockSystem, assemble
from critifem.convergence import analytic_eigenvalue, reference_eigenvalues, thermal_ratio
from critifem.eigensolver import (
    EigenSolution,
    SolverError,
    SolverSettings,
    residual,
    solve_adjoint,
    solve_primal,
)
from critifem.app import _spectrum_lines, packaged_mesh_path
from critifem.fem_space import build_dofmap
from critifem.materials import (
    BoundaryCondition,
    GroupConstants,
    builtin_deck,
    ellipticity_check,
)
from critifem.mesh import (
    GENERATORS,
    Mesh,
    generate_disk,
    generate_unit_cube,
    generate_unit_square,
    read_gmsh,
)

from conftest import free_stiffness


def make_system(a11, a22, coupling, f1, f2):
    """Hand-built reduced pencil with identity mass, no constraints."""
    a11 = np.atleast_2d(np.asarray(a11, dtype=float))
    n = a11.shape[0]
    blocks = {
        name: np.atleast_2d(np.asarray(mat, dtype=float))
        for name, mat in (("a22", a22), ("coupling", coupling), ("f1", f1), ("f2", f2))
    }
    return BlockSystem(
        mass=sp.csr_matrix(np.eye(n)),
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


def _count_applies(monkeypatch):
    """Record every column the fission-source operator is applied to: the
    shape of its block, once per column, so that the count is of columns,
    not of calls."""
    seen = []
    original = eigensolver._FissionSource.apply

    def spy(self, z):
        seen.extend([z.shape] * (z.shape[-1] if z.ndim == 2 else 1))
        return original(self, z)

    monkeypatch.setattr(eigensolver._FissionSource, "apply", spy)
    return seen


@pytest.mark.parametrize("solve", [solve_primal, solve_adjoint])
def test_krylov_shortfall_raises_cheaply(solve, monkeypatch):
    # n = 2000 is far above the basis cap; fission on three fast DOFs
    # gives three finite eigenvalues, two of them an exact double. The
    # operator's range is three-dimensional, so both directions of the
    # band deflate within a few columns; the invariant basis then holds
    # every finite eigenvalue, and the solve fails at once instead of
    # running to the cap
    n = 2000
    a11 = sp.diags([-1.0, 2.5, -1.0], [-1, 0, 1], shape=(n, n), format="csr")
    eye = sp.identity(n, format="csr")
    zero = sp.csr_matrix((n, n))
    f1 = sp.csr_matrix(([1.0, 1.0, 1.0], ([0, 700, 1400], [0, 700, 1400])), shape=(n, n))
    system = BlockSystem(
        mass=eye, a11=a11, a22=eye, coupling=zero, f1=f1, f2=zero,
        free_dofs=np.arange(n), constrained_dofs=np.array([], dtype=int),
    )
    applies = _count_applies(monkeypatch)
    with pytest.raises(SolverError, match="certified only 3 of 5 pairs"):
        solve(system, SolverSettings(m=5))
    assert len(applies) <= 8
    # the three finite eigenvalues, the double included, are all found
    assert len(solve(system, SolverSettings(m=3))) == 3


@pytest.mark.parametrize("m", [1, 2])
def test_basis_cap_raises_without_restart(m, table1_deck, monkeypatch):
    # a tolerance no pair can certify: the basis grows to its cap of
    # 10 m + 40 operator columns, min(m, 2) to a block, and the solve fails there
    mesh = generate_unit_square(8)
    system = assemble(mesh, build_dofmap(mesh, 2), table1_deck, 2)
    cap = 10 * m + 40
    assert system.n > cap
    applies = _count_applies(monkeypatch)
    with pytest.raises(SolverError, match=f"Arnoldi basis exhausted: {cap} vectors without {m} "):
        solve_primal(system, SolverSettings(m=m, tol=1e-30))
    assert len(applies) == cap
    assert set(applies) == {(system.n, m)}


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
    for m in (2.5, 3.0, True, np.bool_(True), "3", None):
        with pytest.raises(ValueError, match="m must be an integer"):
            SolverSettings(m=m)
    for m in (3, np.int64(3), np.int32(3), np.uint8(3)):
        assert SolverSettings(m=m).m == 3
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

    mesh, dofmap, system = square16_system
    K = free_stiffness(mesh, dofmap, system)
    mu_h = spla.eigsh(K, k=1, M=system.mass, sigma=0.0,
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
    assert system.n == 49  # converges well before the basis spans the space
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


# a basis that spans the space (n=12), one that converges before it
# does (n=60); with these seeds the first five eigenvalues hold a whole
# conjugate pair and split none
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
    # Arnoldi runs on the n x n fission-source operator, a block of two
    # fast-group n-vectors per application, primal and adjoint alike
    system = _nonsymmetric_pencil(60, seed=60)
    applies = _count_applies(monkeypatch)
    solve_primal(system, SolverSettings(m=5))
    solve_adjoint(system, SolverSettings(m=5))
    assert len(applies) >= 2
    assert {rows for rows, _ in applies} == {system.n}
    assert (system.n, 2) in applies


def _spy_vectors(monkeypatch, column=None, times=None):
    """Record every eigenvector recovery (one per certification); spoil
    column `column` of the first `times` of them (of all for times=None)."""
    calls = []
    original = eigensolver._FissionSource.vectors

    def corrupt(self, lams, z):
        vecs = original(self, lams, z)
        if column is not None and (times is None or len(calls) < times):
            vecs = vecs.copy()
            vecs[:, column] += 1e-3 * np.cos(np.arange(vecs.shape[0]))
        calls.append(len(lams))
        return vecs

    monkeypatch.setattr(eigensolver._FissionSource, "vectors", corrupt)
    return calls


def test_rejected_wanted_pair_is_retried_not_skipped(monkeypatch, table1_gc):
    # The first certification gets a corrupted eigenvector for the
    # 2nd-smallest |lambda| (one of the double (1,2)/(2,1) modes), so that
    # pair fails. The basis must grow and certify again, not return the
    # remaining pairs shifted up by one mode.
    mesh = generate_unit_square(8)
    dofmap = build_dofmap(mesh, 2)
    system = assemble(mesh, dofmap, builtin_deck("paper-table1"), 2)
    settings = SolverSettings(m=5)
    assert system.n > 10 * settings.m + 40  # the basis cap is below n
    clean_applies = _count_applies(monkeypatch)
    clean = solve_primal(system, settings)
    clean_count = len(clean_applies)
    clean_applies.clear()

    calls = _spy_vectors(monkeypatch, column=1, times=1)
    sols = solve_primal(system, settings)
    lams = [sol.lam.real for sol in sols]
    expect = reference_eigenvalues("square", 5, table1_gc)
    assert len(lams) == 5
    for got, want in zip(lams, expect):
        assert abs(got - want) <= 1e-2 * want
    for got, ref in zip(sols, clean):
        assert abs(got.lam - ref.lam) <= 1e-8 * abs(ref.lam)
        assert got.residual <= 1e-9
    assert len(calls) >= 2  # the corrupted certification was rejected
    assert len(clean_applies) > clean_count  # ... and the basis grew


def test_whole_space_basis_reports_uncertified_wanted_pair(monkeypatch):
    # once the basis spans the whole space it holds every eigenvalue, so a
    # wanted pair that fails certification there is an error, not a pair
    # to skip or a reason to grow
    system = make_system(np.diag([1.0, 2.0, 3.0]), np.eye(3), np.zeros((3, 3)),
                         np.eye(3), np.zeros((3, 3)))
    _spy_vectors(monkeypatch, column=1)
    with pytest.raises(SolverError, match=r"eigenpair 2 \(lambda=2\) misses"):
        solve_primal(system, SolverSettings(m=2))


def _draw_deck(seed):
    """The bench's deck for a seed (bench/workloads.py draw_deck): the
    paper-table1 constants each scaled by a factor from [0.8, 1.2]."""
    base, bc = builtin_deck("paper-table1")[1]
    rng = np.random.default_rng(seed)
    names = [f.name for f in dataclasses.fields(GroupConstants)]
    while True:
        factors = rng.uniform(0.8, 1.2, size=len(names))
        gc = GroupConstants(**{n: getattr(base, n) * f for n, f in zip(names, factors)})
        if ellipticity_check(gc).elliptic:
            return {1: (gc, bc)}


def test_cube_seed4_certifies_with_one_basis(monkeypatch):
    # Cube k=1 N=6 with the seed-4 deck: the second copy of its double
    # failed certification in the first restarted ARPACK attempt, which
    # cost 114 applies over two attempts; one growing basis from two start
    # vectors certifies all five pairs at the first certification
    mesh = generate_unit_cube(6)
    system = assemble(mesh, build_dofmap(mesh, 1), _draw_deck(4), 1)
    applies = _count_applies(monkeypatch)
    certifications = _spy_vectors(monkeypatch)
    sols = solve_primal(system, SolverSettings(m=5))
    assert len(certifications) == 1
    assert len(applies) <= 57  # columns: half of the restarted solve's
    lams = [sol.lam.real for sol in sols]
    assert lams[1] == pytest.approx(lams[2], rel=1e-12)  # both copies
    assert lams == pytest.approx(
        [137.270186, 288.114908, 288.114908, 315.894541, 474.252969], rel=1e-8
    )


@pytest.mark.parametrize("solve", [solve_primal, solve_adjoint])
@pytest.mark.parametrize("domain, degree, m", [("cube", 1, 5), ("disk", 1, 3)])
def test_breakdown_keeps_both_copies_of_a_double(domain, degree, m, solve,
                                                 table1_deck, monkeypatch):
    # cube N=3 (n=8) and disk N=2 (n=9): the Krylov space of one start
    # vector is invariant after 6 steps and holds one copy of the exact
    # double; the second start vector holds the other, so the basis takes
    # no vector but the two starts and the operator's images
    mesh = GENERATORS[domain](3 if domain == "cube" else 2)
    system = assemble(mesh, build_dofmap(mesh, degree), table1_deck, degree)
    orthogonalized = []
    original = eigensolver._orthogonalize

    def spy(basis, w):
        orthogonalized.append(w.shape)
        return original(basis, w)

    applies = _count_applies(monkeypatch)
    monkeypatch.setattr(eigensolver, "_orthogonalize", spy)
    sols = solve(system, SolverSettings(m=m))
    assert len(orthogonalized) == len(applies)  # no fresh vector
    A, B = system.A.toarray(), system.B.toarray()
    if solve is solve_adjoint:
        A, B = A.T, B.T
    alpha, beta = scipy.linalg.eig(A, B, homogeneous_eigvals=True)[0]
    finite = np.abs(beta) > 1e-8 * np.max(np.abs(beta))
    want = np.sort(np.abs(alpha[finite] / beta[finite]))[:m]
    got = np.array([sol.lam.real for sol in sols])
    np.testing.assert_allclose(got, want, rtol=1e-12)
    assert got[1] == pytest.approx(got[2], rel=1e-12)  # the double
    vecs = np.column_stack([sol.phi1 for sol in sols[1:3]])
    assert np.linalg.svd(vecs, compute_uv=False)[-1] > 0.1  # two copies


def test_near_real_double_keeps_both_vectors():
    # a real double split by rounding into a conjugate pair returns real,
    # with the real and imaginary parts of the Ritz vector as its copies
    h = np.array([[2.0, 3e-15, 0.0], [-3e-15, 2.0, 0.0], [0.0, 0.0, 1.0]])
    mu, y = np.linalg.eig(h)
    assert np.iscomplexobj(mu) and np.abs(mu.imag).max() > 0
    first = np.argsort(-np.abs(mu), kind="stable")
    lams, vecs = eigensolver._ritz_pairs(mu, y, first)
    assert not np.iscomplexobj(lams) and not np.iscomplexobj(vecs)
    np.testing.assert_allclose(lams, [0.5, 0.5, 1.0], rtol=1e-14)
    assert np.linalg.svd(vecs[:2, :2], compute_uv=False)[-1] > 0.1
    np.testing.assert_allclose(h @ vecs, vecs / lams, atol=1e-13)


def test_genuinely_complex_pair_stays_complex_in_the_krylov_path():
    # n = 400, above the basis cap: a fission block that rotates two fast
    # DOFs gives the smallest |lambda| as a conjugate pair, well off the
    # real axis, ahead of a real spectrum
    n = 400
    theta = 0.35
    a11 = sp.diags(np.linspace(1.0, 40.0, n), format="csr")
    rot = sp.csr_matrix(([np.cos(theta), -np.sin(theta), np.sin(theta), np.cos(theta)],
                         ([0, 0, 1, 1], [0, 1, 0, 1])), shape=(n, n))
    f1 = (rot + sp.diags(np.r_[0.0, 0.0, np.ones(n - 2)])).tocsr()
    zero = sp.csr_matrix((n, n))
    eye = sp.identity(n, format="csr")
    system = BlockSystem(
        mass=eye, a11=a11, a22=eye, coupling=zero,
        f1=f1, f2=zero, free_dofs=np.arange(n), constrained_dofs=np.array([], dtype=int),
    )
    assert n > 10 * 4 + 40
    for solve in (solve_primal, solve_adjoint):
        sols = solve(system, SolverSettings(m=4))
        lams = [sol.lam for sol in sols]
        # T' = F1 a11^{-1}: the 2x2 block rot diag(1, 1/a11[1]) and 1/a11[j]
        block = np.array([[np.cos(theta), -np.sin(theta) / a11[1, 1]],
                          [np.sin(theta), np.cos(theta) / a11[1, 1]]])
        pair = 1.0 / np.linalg.eigvals(block)
        assert abs(pair[0].imag) > 0.1 * abs(pair[0])
        assert sorted(lams[:2], key=lambda z: z.imag) == pytest.approx(
            sorted(pair, key=lambda z: z.imag), rel=1e-10)
        assert [z.imag for z in lams[2:]] == [0.0, 0.0]
        for sol in sols:
            assert residual(system, sol) <= 1e-9


@pytest.mark.parametrize("solve", [solve_primal, solve_adjoint])
def test_near_real_complex_pair_is_complex_for_every_consumer(solve):
    # the pair 1 +- 1e-10 i is outside the eigensolver's realness rule, so
    # it comes back complex; k_eff and the CLI spectrum must agree
    n = 400
    theta = 1e-10
    a11 = sp.diags(np.r_[1.0, 1.0, np.linspace(2.0, 40.0, n - 2)], format="csr")
    rot = sp.csr_matrix(([np.cos(theta), -np.sin(theta), np.sin(theta), np.cos(theta)],
                         ([0, 0, 1, 1], [0, 1, 0, 1])), shape=(n, n))
    f1 = (rot + sp.diags(np.r_[0.0, 0.0, np.ones(n - 2)])).tocsr()
    zero = sp.csr_matrix((n, n))
    eye = sp.identity(n, format="csr")
    system = BlockSystem(
        mass=eye, a11=a11, a22=eye, coupling=zero,
        f1=f1, f2=zero, free_dofs=np.arange(n), constrained_dofs=np.array([], dtype=int),
    )
    sols = solve(system, SolverSettings(m=3))
    pair, real = sols[:2], sols[2]
    for sol in pair:
        assert abs(sol.lam - 1.0) == pytest.approx(1e-10, rel=1e-6)
        assert sol.lam.imag != 0
        assert np.isnan(sol.k_eff)
        assert np.iscomplexobj(sol.phi1) and np.iscomplexobj(sol.phi2)
    assert real.lam == pytest.approx(2.0, rel=1e-12) and real.lam.imag == 0
    assert real.k_eff == pytest.approx(0.5, rel=1e-12)
    assert real.phi1.dtype == real.phi2.dtype == np.float64
    lines = _spectrum_lines(sols)[1:]
    assert sorted(line.split()[1] for line in lines[:2]) == [
        "1.000000+1.00e-10j", "1.000000-1.00e-10j"]
    assert lines[2].split()[1:3] == ["2.0000000000", "0.500000"]


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
# the first-m contract against dense QZ

def _deck(name):
    """A built-in deck; "robin:<alpha>": the paper-table1 constants under a
    Robin boundary; or "seed:<s>": the bench's deck for seed s."""
    if name.startswith("robin:"):
        gc = builtin_deck("paper-table1")[1][0]
        return {1: (gc, BoundaryCondition.robin(float(name[len("robin:"):])))}
    if name.startswith("seed:"):
        return _draw_deck(int(name[len("seed:"):]))
    return builtin_deck(name)


def _octant_cube(N):
    """generate_unit_cube(N) reflected into the eight octants of [-1, 1]^3,
    with the shared vertices merged: a connected mesh with full cubic
    symmetry, so its spectrum has exact triples."""
    mesh = generate_unit_cube(N)
    signs = itertools.product((1.0, -1.0), repeat=3)
    vertices = np.concatenate([mesh.vertices * s for s in signs])
    cells = np.concatenate([mesh.cells + i * len(mesh.vertices) for i in range(8)])
    _, first, merged = np.unique(np.rint(vertices * N).astype(np.int64), axis=0,
                                 return_index=True, return_inverse=True)
    return Mesh(3, vertices[first], merged.ravel()[cells], np.tile(mesh.region_tags, 8))


def _mesh(domain, N):
    return _octant_cube(N) if domain == "octants" else GENERATORS[domain](N)


@functools.cache
def _assembled(domain, N, k, deck="paper-table1"):
    if domain == "nonsymmetric":  # hand-built: n = N, blocks drawn from the seed
        return _nonsymmetric_pencil(N, int(deck[len("seed:"):]))
    mesh = _mesh(domain, N)
    return assemble(mesh, build_dofmap(mesh, k), _deck(deck), k)


def _system(*case):
    """The assembled system of a case, as a copy that holds nothing a
    solve in another test left on it: an adjoint case runs its own
    Arnoldi, not the pairs of the primal case before it."""
    return dataclasses.replace(_assembled(*case))


@functools.cache
def _qz_finite_eigenvalues(case, adjoint):
    """Finite eigenvalues of (A, B), or (A^T, B^T), by ascending |lambda|."""
    system = _system(*case)
    A, B = system.A.toarray(), system.B.toarray()
    if adjoint:
        A, B = A.T, B.T
    alpha, beta = scipy.linalg.eigvals(A, B, homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-8 * np.max(np.abs(beta))
    lams = alpha[finite] / beta[finite]
    return lams[np.argsort(np.abs(lams), kind="stable")]


def _case_id(case):
    domain, N, k, deck = case
    name = f"{N}-{k}" if domain == "cube" else f"{domain}-{N}-{k}"
    if domain == "nonsymmetric":
        name = f"{domain}-{N}"
    return name if deck == "paper-table1" else f"{name}-{deck.replace(':', '')}"


# (domain, N, k, deck), each with n <= 343 free DOFs per group; the
# nonsymmetric pencils (N = n, no k) have genuinely complex pairs
_QZ_CASES = [
    *(("cube", N, k, "paper-table1") for k in (1, 2) for N in (2, 3, 4)),
    ("cube", 2, 3, "paper-table1"),
    ("square", 8, 2, "paper-table1"),
    ("lshape", 8, 2, "paper-table1"),
    ("disk", 4, 2, "paper-table1"),
    ("disk", 3, 3, "paper-table1"),
    ("square", 6, 2, "robin:0.5"),
    ("disk", 2, 1, "robin:0.5"),
    ("disk", 2, 2, "seed:1"),
    ("cube", 2, 2, "seed:1"),
    ("cube", 3, 2, "seed:2"),
    ("nonsymmetric", 12, None, "seed:2"),
    ("nonsymmetric", 60, None, "seed:60"),
]


# The cube's lambda_2 = lambda_3 is an exact double (as are the square's
# and the disk's), so m = 2 splits it and m = 3 needs its second copy,
# which a Krylov space from one vector gets only from rounding: a solver
# from one start vector returns lambda_4 there. On cube N=3 k=2 with the
# seed-2 deck it returned lambda_7 for the second copy of lambda_5 =
# lambda_6 at m = 6 and 7. N=2 k=1 has one free DOF, so one finite
# eigenvalue.
@pytest.mark.parametrize("solve", [solve_primal, solve_adjoint])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("case", _QZ_CASES, ids=_case_id)
def test_first_m_pairs_match_dense_qz(case, m, solve):
    system = _system(*case)
    want = _qz_finite_eigenvalues(case, solve is solve_adjoint)
    settings = SolverSettings(m=m)
    if len(want) < m:
        with pytest.raises(SolverError, match=f"certified only {len(want)} of {m}"):
            solve(system, settings)
        return
    sols = solve(system, settings)
    got = [sol.lam for sol in sols]
    # the moduli of a conjugate pair differ by rounding, so which of the
    # two comes first, or alone when m splits the pair, is open: the
    # moduli must match in order and the values one to one
    np.testing.assert_allclose(np.abs(got), np.abs(want[:m]), rtol=1e-8)
    left = list(want)
    for lam in got:
        match = left.pop(int(np.argmin(np.abs(np.subtract(left, lam)))))
        assert abs(lam - match) <= 1e-8 * abs(match)
    for sol in sols:
        assert residual(system, sol) <= 10 * settings.tol


# ---------------------------------------------------------------------------
# the first-m contract against the closed form

@functools.cache
def _closed_form_eigenvalues(case):
    """The ten smallest eigenvalues of a single-region Dirichlet system.
    Every block is a combination of the free-DOF stiffness K and mass M,
    so each generalized eigenvalue kappa of (K, M), with its multiplicity,
    gives the pencil eigenvalue analytic_eigenvalue(kappa, gc), in the same
    order: a symmetric oracle far past the reach of dense QZ."""
    domain, N, degree, _deck_name = case
    mesh, system = _mesh(domain, N), _system(*case)
    K = free_stiffness(mesh, build_dofmap(mesh, degree), system)
    kappa = scipy.linalg.eigh(K.toarray(), system.mass.toarray(),
                              subset_by_index=[0, 9], eigvals_only=True)
    gc = _deck(case[3])[1][0]
    return np.array([analytic_eigenvalue(k, gc) for k in kappa])


# (domain, N, k, deck), single-region Dirichlet with 64 to 1225 free DOFs
# per group; the cubes hold exact doubles among their first eight. On the
# first two, a solver from one start vector returned lambda_7 for the
# second copy of lambda_5 = lambda_6 at m = 6, primal and adjoint
# respectively. The octant cubes hold exact triples, lambda_2 = lambda_3 =
# lambda_4 and lambda_5 = lambda_6 = lambda_7: two start vectors hold two
# copies of each, and the third comes from rounding.
_CLOSED_FORM_CASES = [
    ("cube", 5, 1, "seed:3"),
    ("cube", 8, 1, "seed:2"),
    ("cube", 4, 2, "paper-table1"),
    ("cube", 3, 3, "seed:1"),
    ("square", 16, 2, "seed:1"),
    ("square", 12, 3, "seed:5"),
    ("disk", 8, 2, "seed:4"),
    ("octants", 3, 1, "paper-table1"),
    ("octants", 4, 1, "paper-table1"),
    ("octants", 2, 2, "paper-table1"),
]


@pytest.mark.parametrize("solve", [solve_primal, solve_adjoint])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("case", _CLOSED_FORM_CASES, ids=_case_id)
def test_first_m_pairs_match_closed_form(case, m, solve):
    sols = solve(_system(*case), SolverSettings(m=m))
    got = np.array([sol.lam for sol in sols])
    assert np.all(got.imag == 0)
    np.testing.assert_allclose(got.real, _closed_form_eigenvalues(case)[:m], rtol=1e-8)


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


def _mirrored_cube(N):
    """The unit cube mesh under x -> 1 - x in every axis: raw vertex 0 sits
    at the corner (1, 1, 1), and the dissected numbering starts near the
    opposite one."""
    mesh = generate_unit_cube(N)
    return Mesh(3, 1.0 - mesh.vertices, mesh.cells, mesh.region_tags)


@pytest.mark.parametrize("solve", [solve_primal, solve_adjoint])
@pytest.mark.parametrize("domain, N, k, deck", [
    ("square", 8, 2, "paper-table1"),
    ("disk", 6, 1, "paper-table1"),
    ("cube", 6, 1, "paper-table1"),
    ("cube", 4, 1, "robin:0.5"),
    ("mirrored-cube", 6, 1, "paper-table1"),
    ("mirrored-cube", 4, 2, "paper-table1"),
])
def test_phase_pivot_is_first_significant_raw_component(domain, N, k, deck, solve):
    # the phase is fixed in the raw [phi1; phi2] numbering, whatever order
    # the free DOFs are numbered in; only a simple eigenvalue fixes its
    # vector up to that phase, and the last one returned may not be simple
    if domain == "mirrored-cube":
        mesh = _mirrored_cube(N)
        system = assemble(mesh, build_dofmap(mesh, k), _deck(deck), k)
    else:
        system = _system(domain, N, k, deck)
    sols = solve(system, SolverSettings(m=8))
    lams = np.array([sol.lam for sol in sols])
    checked = 0
    for i, sol in enumerate(sols[:-1]):
        if np.sum(np.abs(lams - lams[i]) <= 1e-8 * abs(lams[i])) > 1:
            continue
        x = np.concatenate([sol.phi1, sol.phi2])
        mags = np.abs(x)
        pivot = x[np.argmax(mags > 1e-8 * mags.max())]
        assert pivot.imag == 0 and pivot.real > 0, (i, pivot)
        checked += 1
    assert checked >= 2


def _spy_arnoldi(monkeypatch):
    """Record the orientation of every Arnoldi run (True: adjoint)."""
    runs = []
    original = eigensolver._arnoldi

    def spy(system, source, m, accept):
        runs.append(source.adjoint)
        return original(system, source, m, accept)

    monkeypatch.setattr(eigensolver, "_arnoldi", spy)
    return runs


def test_primal_adjoint_pair_factors_once(table1_deck, monkeypatch):
    system = _square_k2_system(table1_deck)
    assert system.n > 10 * 3 + 40  # the basis cap is below n
    blocks = []
    original = eigensolver._factor

    def spy(block, dissected):
        blocks.append(block)
        return original(block, dissected)

    monkeypatch.setattr(eigensolver, "_factor", spy)
    runs = _spy_arnoldi(monkeypatch)
    settings = SolverSettings(m=3)
    primal = solve_primal(system, settings)
    assert len(blocks) == 2 and blocks[0] is system.a11 and blocks[1] is system.a22
    assert system._factors is not None  # left for the adjoint
    adjoint = solve_adjoint(system, settings)
    assert len(blocks) == 2  # the adjoint took the primal's factors
    assert system._factors is None  # ... and took them off
    # one region: the adjoint took the primal's pairs too, with no Arnoldi
    assert runs == [False]
    assert [s.lam for s in adjoint] == [s.lam for s in primal]
    # nu_sigma_f2 / sigma_12 is 6.75 in the quarter core's fuel and 0 in
    # its reflector: its adjoint runs Arnoldi on the shared factors, which
    # give what factoring afresh gives
    core = _quarter_core_k1_system()
    solve_primal(core, settings)
    adjoint = solve_adjoint(core, settings)
    assert len(blocks) == 4 and runs == [False, False, True]
    fresh = solve_adjoint(dataclasses.replace(core), settings)
    assert len(blocks) == 6
    for x, y in zip(adjoint, fresh):
        assert x.lam == y.lam
        assert np.array_equal(x.phi1, y.phi1)


def _two_region_disk(nu_sigma_f2):
    """Disk N=6, k=2: the paper-table1 constants outside radius 0.5 and
    other ones inside, with sigma_12 = 0.15 and this nu_sigma_f2; 0.15
    keeps paper-table1's ratio nu_sigma_f2 / sigma_12 = 1."""
    mesh = generate_disk(6)
    centres = mesh.vertices[mesh.cells].mean(axis=1)
    mesh = Mesh(2, mesh.vertices, mesh.cells,
                np.where(np.hypot(*centres.T) < 0.5, 2, 1))
    gc, bc = builtin_deck("paper-table1")[1]
    inner = dataclasses.replace(gc, D1=1.3, D2=0.4, sigma_a2=0.12, nu_sigma_f1=0.25,
                                sigma_12=0.15, nu_sigma_f2=nu_sigma_f2)
    return assemble(mesh, build_dofmap(mesh, 2), {1: (gc, bc), 2: (inner, bc)}, 2)


def _pair_system(case):
    """A new system for a primal/adjoint pair, built for each test: the
    hand-off between its solves is what these tests check."""
    if case == "table1-square":
        return _square_k2_system(builtin_deck("paper-table1"))
    if case == "robin-square":
        return _square_k2_system(_deck("robin:0.5"))
    if case == "proportional-disk":
        return _two_region_disk(0.15)
    if case == "nonproportional-disk":
        return _two_region_disk(0.12)
    if case == "quarter-core":
        return _quarter_core_k1_system()
    return _nonsymmetric_pencil(60, seed=60)


def _biorthogonality(system, primal, adjoint):
    """max |y_i^T B x_j| over pairs of distinct eigenvalues, relative to
    the largest |y_i^T B x_i|."""
    def block(sols):
        return np.column_stack([np.concatenate([system.restrict(s.phi1),
                                                system.restrict(s.phi2)]) for s in sols])

    coupling = np.abs(block(adjoint).T @ (system.B @ block(primal)))
    lams = np.array([s.lam for s in primal])
    distinct = np.abs(lams[:, None] - lams[None, :]) > 1e-9 * np.abs(lams)
    return np.max(coupling[distinct]) / np.max(np.diag(coupling))


@pytest.mark.parametrize("m1, m2", [(5, 5), (6, 3)])
@pytest.mark.parametrize("primal_first", [True, False], ids=["primal-first", "adjoint-first"])
@pytest.mark.parametrize("case", ["table1-square", "robin-square", "proportional-disk"])
def test_other_orientation_reuses_certified_pairs(case, primal_first, m1, m2,
                                                  monkeypatch):
    # A and A^T give one fission-source operator here (one region, or one
    # nu_sigma_f2 / sigma_12 ratio in every region): the second solve of
    # the pair returns the first one's eigenvalues and fast halves with its
    # own thermal halves, and runs no Arnoldi
    system = _pair_system(case)
    first, second = ((solve_primal, solve_adjoint) if primal_first
                     else (solve_adjoint, solve_primal))
    runs = _spy_arnoldi(monkeypatch)
    done = first(system, SolverSettings(m=m1))[:m2]
    reused = second(system, SolverSettings(m=m2))
    assert runs == [not primal_first]
    assert [s.lam for s in reused] == [s.lam for s in done]
    for sol in reused:
        assert sol.adjoint == primal_first
        assert sol.residual <= 1e-9 and residual(system, sol) <= 1e-9
    primal, adjoint = (done, reused) if primal_first else (reused, done)
    assert _biorthogonality(system, primal, adjoint) <= 1e-8
    # every copy of a double is kept: the vectors are independent
    singular = np.linalg.svd(np.column_stack([s.phi1 for s in reused]), compute_uv=False)
    assert singular[-1] > 0.1 * singular[0]


@pytest.mark.parametrize("case", ["quarter-core", "nonproportional-disk", "nonsymmetric"])
def test_uncertified_reuse_runs_arnoldi_as_before(case, monkeypatch):
    # A and A^T give different fission-source operators: the pairs built
    # from the primal's fast halves miss certification, and the adjoint
    # runs Arnoldi on the shared factors, bit for bit as a fresh solve
    system = _pair_system(case)
    settings = SolverSettings(m=3)
    solve_primal(system, settings)
    events = []
    thermal = eigensolver._FissionSource.thermal
    arnoldi = eigensolver._arnoldi

    def thermal_spy(self, lams, x1):
        events.append("thermal")
        return thermal(self, lams, x1)

    def arnoldi_spy(*args):
        events.append("arnoldi")
        return arnoldi(*args)

    monkeypatch.setattr(eigensolver._FissionSource, "thermal", thermal_spy)
    monkeypatch.setattr(eigensolver, "_arnoldi", arnoldi_spy)
    adjoint = solve_adjoint(system, settings)
    assert events[:2] == ["thermal", "arnoldi"]  # tried, rejected, then Arnoldi
    fresh = solve_adjoint(dataclasses.replace(system), settings)
    for x, y in zip(adjoint, fresh, strict=True):
        assert x.lam == y.lam and x.residual == y.residual
        assert np.array_equal(x.phi1, y.phi1) and np.array_equal(x.phi2, y.phi2)


@pytest.mark.parametrize("second, m", [(solve_adjoint, 5), (solve_primal, 3)],
                         ids=["larger-m", "same-orientation"])
def test_reuse_needs_the_other_orientation_and_no_more_pairs(second, m, table1_deck,
                                                             monkeypatch):
    # after a primal solve with m = 3, an adjoint solve with m = 5 or a
    # second primal solve runs Arnoldi on the shared factors
    system = _square_k2_system(table1_deck)
    solve_primal(system, SolverSettings(m=3))
    runs = _spy_arnoldi(monkeypatch)
    got = second(system, SolverSettings(m=m))
    assert runs == [second is solve_adjoint]
    fresh = second(dataclasses.replace(system), SolverSettings(m=m))
    for x, y in zip(got, fresh, strict=True):
        assert x.lam == y.lam and np.array_equal(x.phi1, y.phi1)


def test_reused_adjoint_keeps_every_copy_of_a_triple(monkeypatch):
    # octant cube k=1 N=3: lambda_2 = lambda_3 = lambda_4 exactly, and the
    # adjoint takes all three copies from the primal
    case = ("octants", 3, 1, "paper-table1")
    system = _system(*case)
    runs = _spy_arnoldi(monkeypatch)
    settings = SolverSettings(m=8)
    primal = solve_primal(system, settings)
    adjoint = solve_adjoint(system, settings)
    assert runs == [False]
    want = _closed_form_eigenvalues(case)[:8]
    assert want[1] == pytest.approx(want[3], rel=1e-12)
    for sols in (primal, adjoint):
        np.testing.assert_allclose([s.lam.real for s in sols], want, rtol=1e-8)
        assert all(residual(system, s) <= 1e-9 for s in sols)
        triple = np.column_stack([s.phi1 for s in sols[1:4]])
        singular = np.linalg.svd(triple, compute_uv=False)
        assert singular[-1] > 0.1 * singular[0]


def test_cube_ordering_fills_no_more_than_minimum_degree():
    # L + U entries of both blocks, cube N=12 k=1, in the assembled
    # (dissected) order against minimum degree: about 0.35 M against 0.41 M
    system = _system("cube", 12, 1)
    assert system.dissected
    blocks = (system.a11, system.a22)
    dissected = [eigensolver._factor(b, True) for b in blocks]
    minimum_degree = [eigensolver._factor(b, False) for b in blocks]
    assert sum(lu.L.nnz + lu.U.nnz for lu in dissected) <= sum(
        lu.L.nnz + lu.U.nnz for lu in minimum_degree)


@pytest.mark.parametrize("solve_first", [True, False], ids=["solves", "then-fresh"])
def test_shared_system_fixture_starts_without_solver_state(square16_system, solve_first):
    # the first case leaves its factors on the system it gets; the second,
    # run after it, must get a system without them
    _, _, system = square16_system
    if solve_first:
        solve_primal(system, SolverSettings(m=1))
        assert system._factors is not None
    else:
        assert system._factors is None


def test_replaced_system_factors_afresh(table1_deck, monkeypatch):
    system = _square_k2_system(table1_deck)
    settings = SolverSettings(m=2)
    lam = solve_primal(system, settings)[0].lam
    assert system._factors is not None
    calls = []
    original = eigensolver._factor

    def spy(block, dissected):
        calls.append(block)
        return original(block, dissected)

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
