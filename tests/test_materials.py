"""Group constants, ellipticity, condensation, and the built-in decks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critifem.materials import (
    BUILTIN_DECKS,
    BoundaryCondition,
    EnergyTabulated,
    GroupConstants,
    builtin_deck,
    condense_two_group,
    ellipticity_check,
    validate_for_solve,
)

positive = st.floats(min_value=1e-4, max_value=10.0, allow_nan=False)
nonnegative = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def make_gc(sa1=0.2, sa2=0.1, s12=0.1, **kw):
    base = dict(D1=1.0, D2=0.5, sigma_a1=sa1, sigma_a2=sa2, sigma_12=s12,
                nu_sigma_f1=0.3, nu_sigma_f2=0.1)
    base.update(kw)
    return GroupConstants(**base)


# ---------------------------------------------------------------------------
# GroupConstants / BoundaryCondition validation

def test_negative_field_rejected():
    with pytest.raises(ValueError, match="sigma_a1"):
        make_gc(sa1=-0.1)


def test_nonfinite_field_rejected():
    with pytest.raises(ValueError, match="D1"):
        make_gc(D1=float("nan"))
    with pytest.raises(ValueError, match="nu_sigma_f2"):
        make_gc(nu_sigma_f2=float("inf"))


def test_zero_fission_is_allowed():
    gc = make_gc(nu_sigma_f1=0.0, nu_sigma_f2=0.0)
    validate_for_solve(gc)  # reflector-like deck is solvable


def test_validate_rejects_zero_diffusion_and_removal():
    with pytest.raises(ValueError, match="diffusion"):
        validate_for_solve(make_gc(D2=0.0))
    with pytest.raises(ValueError, match="fast removal"):
        validate_for_solve(make_gc(sa1=0.0, s12=0.0))
    with pytest.raises(ValueError, match="region 7"):
        validate_for_solve(make_gc(sa2=0.0), region=7)


def test_validate_warns_on_zero_fast_absorption():
    with pytest.warns(UserWarning, match="sigma_a1 = 0"):
        validate_for_solve(make_gc(sa1=0.0, s12=0.04))


def test_boundary_condition_kinds():
    bc = BoundaryCondition.dirichlet()
    assert bc.kind == "dirichlet"
    bc = BoundaryCondition.robin(0.4692)
    assert bc.alpha1 == bc.alpha2 == 0.4692
    bc = BoundaryCondition.robin(0.1, 0.2)
    assert (bc.alpha1, bc.alpha2) == (0.1, 0.2)
    with pytest.raises(ValueError):
        BoundaryCondition.robin(-1.0)
    with pytest.raises(ValueError):
        BoundaryCondition("neumann")


@pytest.mark.parametrize("alphas", [
    (math.inf,), (math.nan,), (1.0, math.nan), (math.inf, 1.0),
])
def test_non_finite_robin_coefficient_rejected(alphas):
    # nan < 0 is False, so a sign check alone let these through to the solver
    with pytest.raises(ValueError, match="finite"):
        BoundaryCondition.robin(*alphas)


# ---------------------------------------------------------------------------
# ellipticity

def test_ellipticity_standard_deck():
    report = ellipticity_check(make_gc())
    assert report.elliptic
    assert abs(report.margin - (-0.11)) < 1e-12


def test_ellipticity_decoupled_deck():
    report = ellipticity_check(make_gc(s12=0.0))
    assert report.elliptic
    assert report.margin == -4 * 0.2 * 0.1


def test_ellipticity_violated():
    report = ellipticity_check(make_gc(sa1=0.01, sa2=0.01, s12=1.0))
    assert not report.elliptic
    assert abs(report.margin - (1.0 - 0.04 - 0.0004)) < 1e-12


def test_ellipticity_reports_zero_absorption_and_requires_diffusion():
    # any deck GroupConstants accepts gets a verdict, given D1, D2 > 0
    report = ellipticity_check(make_gc(sa1=0.0, sa2=0.0))
    assert not report.elliptic
    assert report.margin == 0.1 ** 2
    for key in ("D1", "D2"):
        with pytest.raises(ValueError, match="must be > 0 in region 3"):
            ellipticity_check(make_gc(**{key: 0.0}), region=3)


@given(sa1=positive, sa2=positive, s12=positive)
@settings(max_examples=200, deadline=None)
def test_ellipticity_matches_interval_scan(sa1, sa2, s12):
    # the check must agree with directly searching for a weighting epsilon
    # between s12 / (2 (sa1 + s12)) and 2 sa2 / s12
    gc = make_gc(sa1=sa1, sa2=sa2, s12=s12)
    lo = s12 / (2.0 * (sa1 + s12))
    hi = 2.0 * sa2 / s12
    grid = np.linspace(0.0, hi * 1.5 + 1e-6, 2001)
    if lo < hi:  # refine the scan around the candidate interval
        grid = np.append(grid, 0.5 * (lo + hi))
    exists = bool(np.any((grid > lo) & (grid < hi)))
    assert ellipticity_check(gc).elliptic == exists


# ---------------------------------------------------------------------------
# condensation

def make_tab(energy, ib, **kw):
    M = len(energy)
    fields = dict(
        sigma_a=np.ones(M), diffusion=np.ones(M), nu_sigma_f=np.ones(M),
        scatter=np.zeros((M, M)), chi=np.zeros(M), flux=np.ones(M),
    )
    fields.update(kw)
    return EnergyTabulated(energy=np.asarray(energy, dtype=float),
                           group_boundary_index=ib, **fields)


def test_constant_data_condenses_to_itself():
    tab = make_tab([0.0, 1.0, 2.0, 3.0], 2, sigma_a=np.full(4, 0.7))
    res = condense_two_group(tab)
    assert abs(res.constants.sigma_a1 - 0.7) < 1e-15
    assert abs(res.constants.sigma_a2 - 0.7) < 1e-15


def test_linear_data_uniform_weight():
    # sigma_a(e) = e averaged over the thermal group [0, 1] gives 1/2;
    # the trapezoid rule is exact for linear data
    e = np.array([0.0, 0.5, 1.0, 2.0])
    tab = make_tab(e, 2, sigma_a=e.copy())
    res = condense_two_group(tab)
    assert abs(res.constants.sigma_a2 - 0.5) < 1e-15
    assert abs(res.constants.sigma_a1 - 1.5) < 1e-15


def test_fission_spectrum_above_boundary():
    # chi vanishing on the thermal grid nodes integrates to (0, 1)
    e = np.array([0.0, 1.0, 2.0, 3.0])
    chi = np.array([0.0, 0.0, 1.0, 0.0])
    tab = make_tab(e, 1, chi=chi)
    res = condense_two_group(tab)
    assert res.chi_thermal == 0.0
    assert abs(res.chi_fast - 1.0) < 1e-15


def test_scatter_condensation_and_upscatter_reporting():
    e = np.array([0.0, 1.0, 2.0, 3.0])
    scatter = np.full((4, 4), 0.25)  # kernel constant in both arguments
    tab = make_tab(e, 1, scatter=scatter)
    res = condense_two_group(tab)
    # from any fast energy, integral over the thermal group [0,1] is 0.25
    assert abs(res.constants.sigma_12 - 0.25) < 1e-14
    # up-scattering integrates the kernel over the fast group [1,3]
    assert abs(res.sigma_21 - 0.5) < 1e-14


@given(scale=st.floats(min_value=1e-3, max_value=1e3), seed=st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_condensation_invariant_under_flux_scaling(scale, seed):
    rng = np.random.default_rng(seed)
    e = np.sort(rng.uniform(0.0, 5.0, size=6))
    e += 0.01 * np.arange(6)  # enforce strict increase
    flux = rng.uniform(0.5, 2.0, size=6)
    data = dict(
        sigma_a=rng.uniform(0.1, 1.0, size=6),
        diffusion=rng.uniform(0.1, 2.0, size=6),
        nu_sigma_f=rng.uniform(0.0, 1.0, size=6),
        scatter=rng.uniform(0.0, 1.0, size=(6, 6)),
        chi=rng.uniform(0.0, 1.0, size=6),
    )
    a = condense_two_group(make_tab(e, 3, flux=flux, **data))
    b = condense_two_group(make_tab(e, 3, flux=scale * flux, **data))
    for name in ("D1", "D2", "sigma_a1", "sigma_a2", "sigma_12",
                 "nu_sigma_f1", "nu_sigma_f2"):
        va, vb = getattr(a.constants, name), getattr(b.constants, name)
        assert abs(va - vb) <= 1e-13 * max(1.0, abs(va))
    assert abs(a.sigma_21 - b.sigma_21) <= 1e-13 * max(1.0, abs(a.sigma_21))


def test_tabulated_validation():
    with pytest.raises(ValueError, match="increasing"):
        make_tab([0.0, 2.0, 1.0, 3.0], 1)
    with pytest.raises(ValueError, match="boundary"):
        make_tab([0.0, 1.0, 2.0], 2)
    with pytest.raises(ValueError, match="3 energy"):
        make_tab([0.0, 1.0], 1)
    with pytest.raises(ValueError, match="flux"):
        make_tab([0.0, 1.0, 2.0], 1, flux=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="scatter"):
        make_tab([0.0, 1.0, 2.0], 1, scatter=np.zeros((2, 3)))


# ---------------------------------------------------------------------------
# built-in decks

def test_builtin_homogeneous_deck():
    deck = builtin_deck("paper-table1-dirichlet")
    assert set(deck) == {1}
    gc, bc = deck[1]
    assert (gc.D1, gc.D2) == (1.0, 0.5)
    assert (gc.sigma_a1, gc.sigma_a2, gc.sigma_12) == (0.2, 0.1, 0.1)
    assert (gc.nu_sigma_f1, gc.nu_sigma_f2) == (0.3, 0.1)
    assert bc.kind == "dirichlet"


def test_builtin_deck_alias():
    assert builtin_deck("paper-table1") == builtin_deck("paper-table1-dirichlet")


def test_builtin_reactor_deck():
    deck = builtin_deck("iaea-2d")
    assert set(deck) == {1, 2, 3, 4, 5}
    gc3, bc3 = deck[3]
    assert (gc3.sigma_a2, gc3.nu_sigma_f2) == (0.130, 0.135)
    gc4, bc4 = deck[4]
    assert (gc4.D1, gc4.D2, gc4.sigma_12) == (2.0, 0.3, 0.04)
    assert gc4.sigma_a1 == 0.0 and gc4.sigma_a2 == 0.010
    assert gc4.nu_sigma_f1 == gc4.nu_sigma_f2 == 0.0
    for tag in deck:
        bc = deck[tag][1]
        assert bc.kind == "robin"
        assert bc.alpha1 == bc.alpha2 == 0.4692


def test_unknown_deck_rejected():
    with pytest.raises(ValueError, match="unknown deck"):
        builtin_deck("nope")
    assert set(BUILTIN_DECKS) == {"paper-table1-dirichlet", "iaea-2d"}
