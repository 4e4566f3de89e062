"""Acceptance gate: one test per acceptance criterion.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per
criterion.  The expensive refinement studies run once in module-scoped
fixtures and are shared by the criteria that grade them; wall-clock
budgets are asserted where a criterion states one.
"""

import math
import time
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from critifem.app import run_iaea2d
from critifem.assembly import assemble
from critifem.convergence import fit_rate, run_study
from critifem.eigensolver import SolverSettings, residual, solve_adjoint, solve_primal
from critifem.fem_space import build_dofmap
from critifem.materials import GroupConstants, builtin_deck, ellipticity_check
from critifem.mesh import GENERATORS

from conftest import free_stiffness

# exact eigenvalues of the homogeneous problem (closed form, frozen)
SQUARE_REF = (66.5747701901, 165.2710351639, 165.2710351639,
              263.9671349734, 329.7645162969)
DISK_REF1 = 20.05383993
CUBE_REF1 = 99.47357385
LSHAPE_REF3 = 263.9671349734

_STUDIES = {
    "square_k1": ("square", 1, (8, 16, 32, 64)),
    "square_k2": ("square", 2, (8, 16, 32, 64)),
    "square_k3": ("square", 3, (8, 16, 32, 64)),
    "disk_k1": ("disk", 1, (8, 16, 32, 64)),
    "disk_k2": ("disk", 2, (8, 16, 32, 64)),
    "disk_k3": ("disk", 3, (8, 16, 32, 64)),
    "lshape_k2": ("lshape", 2, (8, 16, 32, 64)),
    "cube_k1": ("cube", 1, (4, 8, 16, 32)),
}


@pytest.fixture(scope="module")
def studies():
    out = {}
    for key, (domain, degree, res) in _STUDIES.items():
        t0 = time.perf_counter()
        out[key] = (run_study(domain, degree, res), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def representative():
    """Direct solves spanning every domain and the degrees in use."""
    cases = {
        "square N=32 k=1": ("square", 32, 1),
        "disk N=16 k=2": ("disk", 16, 2),
        "cube N=8 k=1": ("cube", 8, 1),
        "lshape N=16 k=2": ("lshape", 16, 2),
    }
    deck = builtin_deck("paper-table1")
    out = {}
    for name, (domain, n, degree) in cases.items():
        mesh = GENERATORS[domain](n)
        dofmap = build_dofmap(mesh, degree)
        system = assemble(mesh, dofmap, deck, degree)
        out[name] = (system, solve_primal(system, SolverSettings(m=5)))
    return out


@pytest.fixture(scope="module")
def iaea():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # reflector sigma_a1 = 0, flagged elsewhere
        t0 = time.perf_counter()
        result = run_iaea2d()
        elapsed = time.perf_counter() - t0
    return result, elapsed


def _report(study, refs):
    rates = [ft.rate for ft in study.fits]
    errs = [abs(ft.extrapolated - ref) / ref
            for ft, ref in zip(study.fits, refs)]
    return rates, errs


def test_criterion_01_square_degree1_second_order(studies):
    study, elapsed = studies["square_k1"]
    rates, errs = _report(study, SQUARE_REF)
    print(f"rates={['%.3f' % r for r in rates]} "
          f"rel_err={['%.1e' % e for e in errs]} time={elapsed:.1f}s")
    assert all(1.85 <= r <= 2.15 for r in rates)
    assert all(e <= 5e-4 for e in errs)
    assert elapsed <= 120.0


def test_criterion_02_square_degrees_2_and_3(studies):
    k2, t2 = studies["square_k2"]
    k3, t3 = studies["square_k3"]
    rates2, errs2 = _report(k2, SQUARE_REF)
    rates3, errs3 = _report(k3, SQUARE_REF)
    print(f"k2 rates={['%.3f' % r for r in rates2]} "
          f"k3 rates={['%.3f' % r for r in rates3]} time={t2 + t3:.1f}s")
    assert all(3.7 <= r <= 4.3 for r in rates2)
    assert all(5.6 <= r <= 6.4 for r in rates3)
    assert all(e <= 1e-4 for e in errs2)
    assert all(e <= 1e-4 for e in errs3)
    assert t2 + t3 <= 300.0


def test_criterion_03_disk_geometry_limited_order(studies):
    # polygonal boundary caps every degree at second order
    for key in ("disk_k1", "disk_k2", "disk_k3"):
        study, _ = studies[key]
        rates = [ft.rate for ft in study.fits]
        err1 = abs(study.fits[0].extrapolated - DISK_REF1) / DISK_REF1
        print(f"{key}: rates={['%.3f' % r for r in rates]} err1={err1:.1e}")
        assert all(1.8 <= r <= 2.2 for r in rates)
        assert err1 <= 2e-3


def test_criterion_04_lshape_corner_singularity(studies):
    study, _ = studies["lshape_k2"]
    rate1 = study.fits[0].rate
    rate3 = study.fits[2].rate
    err3 = abs(study.fits[2].extrapolated - LSHAPE_REF3) / LSHAPE_REF3
    print(f"rate1={rate1:.3f} rate3={rate3:.3f} err3={err3:.1e}")
    assert 1.0 <= rate1 <= 1.6  # re-entrant corner caps the first mode
    assert rate3 >= 3.5  # the smooth 8 pi^2 mode keeps high order
    assert err3 <= 5e-4


def test_criterion_05_cube_degree1(studies):
    study, elapsed = studies["cube_k1"]
    rate1 = study.fits[0].rate
    err1 = abs(study.fits[0].extrapolated - CUBE_REF1) / CUBE_REF1
    print(f"rate1={rate1:.3f} err1={err1:.1e} time={elapsed:.1f}s")
    assert 1.8 <= rate1 <= 2.2
    assert err1 <= 5e-3
    assert elapsed <= 900.0


def test_criterion_06_spectra_stay_real(studies, representative):
    for key, (study, _) in studies.items():
        assert not any("non-real" in note for note in study.notes), key
    for name, (_, sols) in representative.items():
        for sol in sols:
            assert abs(sol.lam.imag) <= 1e-8 * abs(sol.lam), name


def test_criterion_07_adjoint_biorthogonality(square16_system):
    _, _, system = square16_system
    primal = solve_primal(system, SolverSettings(m=5))
    adjoint = solve_adjoint(system, SolverSettings(m=5))
    for p, a in zip(primal, adjoint):
        assert abs(p.lam - a.lam) <= 1e-8 * abs(p.lam)
    X = np.column_stack([
        np.concatenate([system.restrict(s.phi1), system.restrict(s.phi2)])
        for s in primal
    ])
    Y = np.column_stack([
        np.concatenate([system.restrict(s.phi1), system.restrict(s.phi2)])
        for s in adjoint
    ])
    G = Y.T @ (system.B @ X)
    off = np.max(np.abs(G - np.diag(np.diag(G))))
    scale = np.max(np.abs(np.diag(G)))
    print(f"max off-diagonal/diagonal = {off / scale:.1e}")
    assert off <= 1e-8 * scale


def test_criterion_08_residual_certification(representative, iaea):
    worst = 0.0
    for name, (system, sols) in representative.items():
        for sol in sols:
            worst = max(worst, sol.residual, residual(system, sol))
    result, _ = iaea
    for sol in result.solutions:
        worst = max(worst, sol.residual)
    print(f"worst certified residual = {worst:.1e}")
    assert worst <= 1e-9


def test_criterion_09_iaea_quarter_core(iaea):
    result, elapsed = iaea
    fast, thermal = result.boundary_peak_fraction
    print(f"k_eff={result.k_eff:.6f} boundary/max: fast={fast:.4f} "
          f"thermal={thermal:.4f} time={elapsed:.1f}s")
    assert abs(result.k_eff - 0.9814) <= 0.01
    assert 0.0 < fast < 0.2  # flux has decayed through the reflector
    assert 0.0 < thermal < 0.2
    assert elapsed <= 180.0


def test_criterion_10_source_problem_bounds(square16_system, table1_gc):
    mesh, dofmap, system = square16_system
    gc = table1_gc
    alpha1 = min(gc.D1, gc.sigma_a1 + gc.sigma_12)
    alpha2 = min(gc.D2, gc.sigma_a2)
    lu = spla.splu(system.A.tocsc())
    H1 = (free_stiffness(mesh, dofmap, system) + system.mass).tocsr()
    M = system.mass
    h1 = lambda v: math.sqrt(v @ (H1 @ v))
    l2 = lambda v: math.sqrt(v @ (M @ v))
    rng = np.random.default_rng(42)
    n = system.n
    for _ in range(100):
        f = rng.standard_normal(2 * n)
        x = lu.solve(system.B @ f)
        p1, p2 = x[:n], x[n:]
        bound1 = gc.nu_sigma_f1 * l2(f[:n]) + gc.nu_sigma_f2 * l2(f[n:])
        assert alpha1 * h1(p1) <= bound1 * (1 + 1e-10)
        assert alpha2 * h1(p2) <= gc.sigma_12 * l2(p1) * (1 + 1e-10)


def test_criterion_11_ellipticity_equivalence(table1_gc):
    def eps_admissible(gc, eps):
        # Young-splitting feasibility of the coupling term at weight eps
        return (2.0 * (gc.sigma_a1 + gc.sigma_12) * eps > gc.sigma_12
                and 2.0 * gc.sigma_a2 > eps * gc.sigma_12)

    def scan(gc):
        hi = 2.0 * gc.sigma_a2 / gc.sigma_12
        lo = gc.sigma_12 / (2.0 * (gc.sigma_a1 + gc.sigma_12))
        grid = np.linspace(0.0, 1.5 * hi + 1e-6, 2001).tolist()
        if lo < hi:
            grid.append(0.5 * (lo + hi))  # refine around the candidate interval
        return any(eps_admissible(gc, e) for e in grid if e > 0.0)

    rng = np.random.default_rng(7)
    disagreements = 0
    for _ in range(1000):
        gc = GroupConstants(
            D1=1.0, D2=1.0,
            sigma_a1=float(rng.uniform(0.0, 2.0)),
            sigma_a2=float(rng.uniform(1e-6, 2.0)),
            sigma_12=float(rng.uniform(1e-6, 2.0)),
            nu_sigma_f1=0.3, nu_sigma_f2=0.1,
        )
        if ellipticity_check(gc).elliptic != scan(gc):
            disagreements += 1
    print(f"disagreements over 1000 decks: {disagreements}")
    assert disagreements == 0
    report = ellipticity_check(table1_gc)
    assert report.elliptic
    assert abs(report.margin - (-0.11)) <= 1e-12


def test_criterion_12_rate_fit_recovery():
    h = (0.5, 0.25, 0.125, 0.0625)
    worst = 0.0
    for rate in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0):
        lam = [7.0 + 3.0 * hh ** rate for hh in h]
        fit = fit_rate(h, lam)
        worst = max(worst, abs(fit.extrapolated - 7.0) / 7.0,
                    abs(fit.rate - rate))
        assert abs(fit.extrapolated - 7.0) <= 1e-8 * 7.0
        assert abs(fit.rate - rate) <= 1e-8
    print(f"worst recovery error = {worst:.1e}")
