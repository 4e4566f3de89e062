"""Rate fitting, closed-form references, and the study driver."""

import csv
import dataclasses
import gc
import math
import os
import stat
import weakref

import numpy as np
import pytest

from critifem import convergence
from critifem.convergence import (
    DOMAINS,
    RateFit,
    analytic_eigenvalue,
    fit_rate,
    format_table,
    laplacian_modes,
    reference_eigenvalues,
    run_study,
    thermal_ratio,
    write_csv,
)
from critifem.eigensolver import EigenSolution, SolverSettings
from critifem.materials import builtin_deck

# exact criticality eigenvalues of the homogeneous Dirichlet problem,
# frozen at derivation time as a regression pin for the formula and the
# default deck together
SQUARE_REF = (66.5747701901, 165.2710351639, 165.2710351639,
              263.9671349734, 329.7645162969)
DISK_REF = (20.05383993, 49.71718439, 49.71718439, 88.69288783, 88.69288783)
CUBE_REF = (99.47357385, 198.16974127)
LSHAPE_REF1 = 129.30723824
LSHAPE_REF3 = 263.96713497


# ---------------------------------------------------------------------------
# fit_rate

H4 = (0.5, 0.25, 0.125, 0.0625)


@pytest.mark.parametrize("rate", [0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
def test_fit_recovers_planted_model(rate):
    lam = [7.0 + 3.0 * h ** rate for h in H4]
    fit = fit_rate(H4, lam)
    assert abs(fit.extrapolated - 7.0) <= 1e-8 * 7.0
    assert abs(fit.rate - rate) <= 1e-8
    assert abs(fit.scale - 3.0) <= 1e-6
    assert fit.rms <= 1e-9


def test_fit_reaches_floor_on_planted_models():
    # The fit is the profiled linear solve at the searched rate, so the
    # misfit reaches the floor only if the search resolves the rate to
    # its floating-point scale; a zoom stopped early fails this sweep.
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        h = np.sort(rng.uniform(0.01, 1.0, rng.integers(3, 6)))[::-1]
        lam_star = rng.uniform(1.0, 100.0)
        scale = rng.choice([-1.0, 1.0]) * lam_star * 10.0 ** rng.uniform(-4.0, 1.0)
        lam = lam_star + scale * h ** rng.uniform(0.8, 6.5)
        fit = fit_rate(h, lam)
        worst = max(worst, fit.rms / (np.finfo(float).eps * np.max(np.abs(lam))))
    assert worst <= 4.0


def test_fit_quadratic_example():
    h = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
    lam = [10.0 + 3.0 * hh ** 2 for hh in h]
    fit = fit_rate(h, lam)
    assert abs(fit.extrapolated - 10.0) <= 1e-8
    assert abs(fit.rate - 2.0) <= 1e-8
    assert abs(fit.scale - 3.0) <= 1e-6


def test_fit_measured_sequence():
    # second-order eigenvalue data from an actual degree-1 square run
    n = np.array([8, 16, 32, 64])
    lam = [69.1292, 67.2100, 66.7333, 66.6144]
    fit = fit_rate(np.sqrt(2.0) / n, lam)
    assert abs(fit.rate - 2.008421) < 1e-4
    assert abs(fit.extrapolated - 66.575328) < 1e-4


def test_fit_constant_data_short_circuits():
    fit = fit_rate(H4, [42.0, 42.0, 42.0, 42.0])
    assert fit == RateFit(42.0, math.inf, 0.0, 0.0)


def test_fit_reports_misfit_of_wrong_model():
    fit = fit_rate(H4, [1.0, 2.0, 1.5, 3.0])  # not a refinement sequence
    assert fit.rms > 1e-3


def test_fit_input_validation():
    with pytest.raises(ValueError, match="at least three"):
        fit_rate((0.5, 0.25), (1.0, 2.0))
    with pytest.raises(ValueError, match="distinct"):
        fit_rate((0.5, 0.25, 0.25), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="positive"):
        fit_rate((0.5, 0.25, 0.0), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="equal length"):
        fit_rate((0.5, 0.25, 0.125), (1.0, 2.0))
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="must be finite"):
            fit_rate((0.5, 0.25, 0.125), (1.0, bad, 2.0))
        with pytest.raises(ValueError, match="must be finite"):
            fit_rate((0.5, bad, 0.125), (1.0, 1.5, 2.0))
    # inf in lam used to pass as constant data (np.ptp is inf), and nan
    # used to reach the least-squares solve
    with pytest.raises(ValueError, match="must be finite"):
        fit_rate((0.5, 0.25, 0.125), (math.inf, math.inf, math.inf))


def test_run_study_rejects_a_non_integer_m():
    for m in (2.5, True):
        with pytest.raises(ValueError, match="m must be an integer"):
            run_study("square", 1, (2, 3, 4), m=m)


# ---------------------------------------------------------------------------
# closed-form references

def test_laplacian_modes_square_and_cube():
    pi2 = math.pi ** 2
    got = laplacian_modes("square", 5)
    assert np.allclose(got, [2 * pi2, 5 * pi2, 5 * pi2, 8 * pi2, 10 * pi2],
                       rtol=1e-14)
    got = laplacian_modes("cube", 8)
    assert np.allclose(got, [3 * pi2, 6 * pi2, 6 * pi2, 6 * pi2,
                             9 * pi2, 9 * pi2, 9 * pi2, 11 * pi2], rtol=1e-14)


def test_laplacian_modes_disk():
    # squared Bessel zeros, azimuthal modes doubled
    got = laplacian_modes("disk", 5)
    assert np.allclose(
        got,
        [5.783185962947, 14.681970642124, 14.681970642124,
         26.374616427163, 26.374616427163],
        rtol=1e-10,
    )


def test_disk_modes_match_the_full_bessel_enumeration():
    # reference: orders 0..100, 100 zeros each, azimuthal modes doubled
    from scipy.special import jn_zeros

    full = sorted(
        float(z) ** 2
        for n in range(101)
        for z in jn_zeros(n, 100)
        for _ in range(1 if n == 0 else 2)
    )
    for count in range(1, 101):
        assert laplacian_modes("disk", count) == full[:count]


def test_laplacian_modes_lshape():
    got = laplacian_modes("lshape", 5)
    assert got == sorted(got)
    assert abs(got[2] - 8.0 * math.pi ** 2) < 1e-14  # the one exact mode
    with pytest.raises(ValueError, match="first 5"):
        laplacian_modes("lshape", 6)


def test_laplacian_modes_errors():
    with pytest.raises(ValueError, match="unknown domain"):
        laplacian_modes("annulus", 3)
    with pytest.raises(ValueError, match="count"):
        laplacian_modes("square", 0)


def test_laplacian_modes_are_bounded():
    assert len(laplacian_modes("square", 100)) == 100
    assert len(laplacian_modes("cube", 100)) == 100
    for domain in ("square", "cube", "disk", "lshape"):
        with pytest.raises(ValueError, match="at most 100 modes are listed, got 101"):
            laplacian_modes(domain, 101)


def test_reference_eigenvalues_frozen(table1_gc):
    for domain, refs in (("square", SQUARE_REF), ("disk", DISK_REF),
                         ("cube", CUBE_REF)):
        got = reference_eigenvalues(domain, len(refs), table1_gc)
        assert np.allclose(got, refs, rtol=1e-8)
    lsh = reference_eigenvalues("lshape", 3, table1_gc)
    assert abs(lsh[0] - LSHAPE_REF1) <= 1e-8 * LSHAPE_REF1
    assert abs(lsh[2] - LSHAPE_REF3) <= 1e-8 * LSHAPE_REF3
    # the L-shape's exact 8 pi^2 mode coincides with the square's fourth
    assert abs(lsh[2] - SQUARE_REF[3]) <= 1e-7


def test_analytic_eigenvalue_and_ratio(table1_gc):
    mu = 2.0 * math.pi ** 2
    assert abs(thermal_ratio(mu, table1_gc)
               - 0.1 / (0.5 * mu + 0.1)) < 1e-15
    assert abs(analytic_eigenvalue(mu, table1_gc) - SQUARE_REF[0]) < 1e-8
    # increasing in mu, so sorted Laplacian modes map to sorted eigenvalues
    mus = np.linspace(1.0, 400.0, 50)
    vals = [analytic_eigenvalue(v, table1_gc) for v in mus]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("changes,match", [
    (dict(nu_sigma_f1=0.0, nu_sigma_f2=0.0), "no fission production"),
    (dict(sigma_a2=0.0), "thermal absorption sigma_a2 must be > 0"),
    (dict(D2=0.0), "diffusion coefficients must be > 0"),
])
def test_analytic_eigenvalue_rejects_decks_without_a_finite_eigenvalue(
    table1_gc, changes, match
):
    # without fission the denominator is 0; the other decks fail the
    # checks of an assembled solve, as the reference must too
    with pytest.raises(ValueError, match=match):
        analytic_eigenvalue(2.0 * math.pi ** 2, dataclasses.replace(table1_gc, **changes))


# ---------------------------------------------------------------------------
# study driver

@pytest.fixture(scope="module")
def small_study():
    # N=32 is deep enough that the discretely split (1,2)/(2,1) pair
    # comes back within the 0.5% gap warning
    return run_study("square", 1, (8, 16, 32), m=3)


def test_study_metadata(small_study):
    assert small_study.m == 3
    assert small_study.domain == "square"
    assert small_study.deck_label == "paper-table1"
    assert np.allclose(small_study.h, np.sqrt(2.0) / np.array([8, 16, 32]),
                       rtol=1e-15)
    assert small_study.eigenvalues.shape == (3, 3)


def test_study_converges_from_above(small_study):
    eigs = small_study.eigenvalues
    assert np.all(np.diff(eigs, axis=0) < 0.0)
    for j, ref in enumerate(SQUARE_REF[:3]):
        assert eigs[-1, j] > ref
    fit = small_study.fits[0]
    assert 1.8 <= fit.rate <= 2.2
    assert abs(fit.extrapolated - SQUARE_REF[0]) < 5e-3 * SQUARE_REF[0]


def test_study_flags_degenerate_pair(small_study):
    # lambda_2 = lambda_3 exactly, so the finest-mesh gap warning fires
    assert len(small_study.notes) == 1
    assert "indices 2 and 3" in small_study.notes[0]
    assert "<0.5%" in small_study.notes[0]


def test_study_input_validation():
    with pytest.raises(ValueError, match="at least three resolutions"):
        run_study("square", 1, (4, 8))
    with pytest.raises(ValueError, match="strictly increasing"):
        run_study("square", 1, (8, 4, 16))
    with pytest.raises(ValueError, match="strictly increasing"):
        run_study("square", 1, (4, 4, 8))
    with pytest.raises(ValueError, match="unknown domain"):
        run_study("annulus", 1, (4, 8, 16))
    assert DOMAINS == ("cube", "disk", "lshape", "square")


def test_study_reports_certification_shortfall():
    # N=2 leaves one interior vertex: the pencil has a single finite
    # eigenvalue and can never certify three
    with pytest.raises(RuntimeError, match="certified only"):
        run_study("square", 1, (2, 3, 4), m=3)


def test_study_releases_each_system_before_the_next(monkeypatch):
    systems, alive = [], []
    original = convergence.assemble

    def spy(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in systems))
        system = original(*args)
        systems.append(weakref.ref(system))
        return system

    monkeypatch.setattr(convergence, "assemble", spy)
    run_study("square", 2, (4, 6, 8), m=2)
    gc.collect()
    assert alive == [0, 0, 0]
    assert [ref() for ref in systems] == [None, None, None]


def test_study_solves_with_its_own_m_and_tol(monkeypatch):
    seen = []
    original = convergence.solve_primal

    def spy(system, settings):
        seen.append(settings)
        return original(system, settings)

    monkeypatch.setattr(convergence, "solve_primal", spy)
    study = run_study("square", 1, (4, 6, 8), m=2, tol=1e-8)
    assert seen == [SolverSettings(m=2, tol=1e-8)] * 3
    assert study.m == 2


def test_study_notes_a_pair_the_solver_returned_complex(monkeypatch):
    # 1 +- 1e-10 i: close to the real axis, yet the eigensolver returned
    # it complex, and the study reads that decision
    def spy(system, settings):
        zero = np.zeros(system.n_raw, dtype=complex)
        lams = (complex(1.0, -1e-10), complex(1.0, 1e-10), 2.0 + 0j)
        return [EigenSolution(lam, zero, zero, 0.0) for lam in lams]

    monkeypatch.setattr(convergence, "solve_primal", spy)
    study = run_study("square", 1, (4, 6, 8), m=3)
    nonreal = [note for note in study.notes if "non-real" in note]
    assert nonreal == [
        f"N={n}: non-real eigenvalue at sorted index 1, 2" for n in (4, 6, 8)
    ]


def test_study_notes_an_index_that_rises_under_refinement(monkeypatch):
    # lambda_1 rises with the DOF count, lambda_2 falls as it should
    def spy(system, settings):
        zero = np.zeros(system.n_raw)
        lams = (10.0 - 1.0 / system.n_raw, 20.0 + 1.0 / system.n_raw)
        return [EigenSolution(lam + 0j, zero, zero, 0.0) for lam in lams]

    monkeypatch.setattr(convergence, "solve_primal", spy)
    study = run_study("square", 1, (4, 6, 8), m=2)
    assert [note for note in study.notes if "monotone" in note] == [
        "index 1 is not monotone under refinement"
    ]


# ---------------------------------------------------------------------------
# reports

def test_csv_roundtrip(tmp_path, small_study):
    path = tmp_path / "study.csv"
    write_csv(small_study, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("# convergence study: domain=square degree=1 "
                        "deck=paper-table1")
    assert lines[-1].startswith("# note: indices 2 and 3")
    rows = list(csv.reader(l for l in lines if not l.startswith("#")))
    assert rows[0] == ["N", "h", "lambda_1", "lambda_2", "lambda_3"]
    for i, row in enumerate(rows[1:4]):
        assert int(row[0]) == small_study.resolutions[i]
        assert float(row[1]) == small_study.h[i]  # repr round-trips exactly
        assert [float(v) for v in row[2:]] == list(small_study.eigenvalues[i])
    labels = [row[0] for row in rows[4:]]
    assert labels == ["rate", "scale", "rms", "extrapolated"]
    extrap = [float(v) for v in rows[7][2:]]
    assert extrap == [ft.extrapolated for ft in small_study.fits]


def test_csv_line_endings(tmp_path, small_study):
    path = tmp_path / "study.csv"
    write_csv(small_study, path)
    data = path.read_bytes()
    assert b"\r" not in data
    assert data.endswith(b"\n")
    assert data.count(b"\n") == 1 + 1 + 3 + 4 + len(small_study.notes)


def test_csv_mode_follows_the_umask(tmp_path, small_study):
    old = os.umask(0o027)
    try:
        write_csv(small_study, tmp_path / "study.csv")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "study.csv").stat().st_mode) == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["study.csv"]  # no temp file left


def test_csv_write_leaves_the_umask_alone(tmp_path, small_study, monkeypatch):
    # reading the umask means setting it, and a file another thread
    # creates in between gets the wrong mode
    def umask(mask):
        raise AssertionError("os.umask called")

    monkeypatch.setattr(os, "umask", umask)
    write_csv(small_study, tmp_path / "study.csv")
    assert (tmp_path / "study.csv").read_text().startswith("# convergence study")


def test_format_table_alignment(small_study):
    text = format_table(small_study)
    lines = text.splitlines()
    assert lines[0] == "domain=square degree=1 deck=paper-table1"
    header = lines[1]
    assert header.split() == ["N", "h", "lambda_1", "lambda_2", "lambda_3"]
    # every tabular line has identical width so columns line up
    widths = {len(l) for l in lines[1:7]}
    assert widths == {len(header)}
    assert lines[5].split()[0] == "rate"
    assert lines[6].split()[0] == "extrapolated"
    assert any(l.startswith("note: indices 2 and 3") for l in lines)
