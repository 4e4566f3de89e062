"""Two-group material data: parameter sets, ellipticity check, condensation.

A GroupConstants instance carries the seven constants of the two-group
model for one material region. Decks map region tags to a constants and
boundary-condition pair; two built-in decks cover the homogeneous test
problems and the quarter-core reactor benchmark.

The ellipticity check evaluates the quadratic form whose negativity makes
the coupled bilinear form coercive; condensation collapses tabulated
continuous-energy data onto the two groups by flux-weighted averaging.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

__all__ = [
    "GroupConstants",
    "BoundaryCondition",
    "EnergyTabulated",
    "EllipticityReport",
    "CondensationResult",
    "ellipticity_check",
    "condense_two_group",
    "builtin_deck",
    "validate_for_solve",
    "BUILTIN_DECKS",
]

_trapz = np.trapezoid if hasattr(np, "trapezoid") else np.trapz


@dataclass(frozen=True)
class GroupConstants:
    """Constants of one material region, all in reciprocal length units
    except the diffusion coefficients (length).

    D1, D2: fast/thermal diffusion coefficients.
    sigma_a1, sigma_a2: absorption.
    sigma_12: down-scattering fast -> thermal (the only group coupling).
    nu_sigma_f1, nu_sigma_f2: fission production per group.
    """

    D1: float
    D2: float
    sigma_a1: float
    sigma_a2: float
    sigma_12: float
    nu_sigma_f1: float
    nu_sigma_f2: float

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{f.name} must be finite and >= 0, got {v}")


def validate_for_solve(gc, region=None):
    """Check constants are usable in an assembled solve.

    Diffusion coefficients must be strictly positive. Zero removal terms
    are tolerated with a warning: the fast block stays coercive through
    down-scattering (and any Robin term), as in the reactor reflector
    regions where sigma_a1 = 0.
    """
    where = f" in region {region}" if region is not None else ""
    if gc.D1 <= 0 or gc.D2 <= 0:
        raise ValueError(f"diffusion coefficients must be > 0{where}")
    if gc.sigma_a1 + gc.sigma_12 <= 0:
        raise ValueError(f"fast removal sigma_a1 + sigma_12 must be > 0{where}")
    if gc.sigma_a2 <= 0:
        raise ValueError(f"thermal absorption sigma_a2 must be > 0{where}")
    if gc.sigma_a1 == 0:
        warnings.warn(
            f"sigma_a1 = 0{where}: outside the strict-positivity hypotheses, "
            "proceeding since down-scattering keeps the fast block coercive",
            stacklevel=2,
        )


@dataclass(frozen=True)
class BoundaryCondition:
    """Dirichlet (homogeneous) or Robin with weak-form coefficients.

    For Robin the boundary integrand is alpha_g * phi_g * v_g, i.e. the
    coefficient already includes whatever diffusion scaling the strong
    form carried.
    """

    kind: str
    alpha1: float = 0.0
    alpha2: float = 0.0

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError(f"unknown BC kind {self.kind!r}")
        if not all(np.isfinite(a) and a >= 0 for a in (self.alpha1, self.alpha2)):
            raise ValueError(
                f"Robin coefficients must be finite and >= 0, got "
                f"{self.alpha1}, {self.alpha2}"
            )

    @classmethod
    def dirichlet(cls):
        return cls("dirichlet")

    @classmethod
    def robin(cls, alpha1, alpha2=None):
        return cls("robin", float(alpha1), float(alpha1 if alpha2 is None else alpha2))


class EllipticityReport(NamedTuple):
    elliptic: bool
    margin: float


def ellipticity_check(gc, region=None):
    """Coercivity condition on the coupled form.

    With positive diffusion coefficients (the hypothesis of the
    condition; otherwise ValueError, naming the region if given) the
    form is elliptic exactly when
        sigma_12^2 - 4 sigma_a2 sigma_12 - 4 sigma_a1 sigma_a2 < 0;
    margin is the value of that quadratic (negative means elliptic).
    Equivalently, some weighting epsilon of the thermal test function
    exists with sigma_12 / (2 (sigma_a1 + sigma_12)) < epsilon and
    epsilon < 2 sigma_a2 / sigma_12.
    """
    if gc.D1 <= 0 or gc.D2 <= 0:
        where = f" in region {region}" if region is not None else ""
        raise ValueError(f"diffusion coefficients must be > 0{where}")
    m = (
        gc.sigma_12**2
        - 4.0 * gc.sigma_a2 * gc.sigma_12
        - 4.0 * gc.sigma_a1 * gc.sigma_a2
    )
    return EllipticityReport(elliptic=bool(m < 0), margin=float(m))


@dataclass(frozen=True)
class EnergyTabulated:
    """Continuous-energy data on an ascending grid, for condensation.

    scatter[i, j] is the differential scattering cross section from
    energy[i] to energy[j]. The thermal group is [energy[0],
    energy[group_boundary_index]] and the fast group everything above;
    the split index must be strictly interior. flux is the weighting
    spectrum, strictly positive; chi is the fission emission spectrum.
    """

    energy: np.ndarray
    sigma_a: np.ndarray
    diffusion: np.ndarray
    nu_sigma_f: np.ndarray
    scatter: np.ndarray
    chi: np.ndarray
    flux: np.ndarray
    group_boundary_index: int

    def __post_init__(self):
        e = np.asarray(self.energy, dtype=np.float64)
        M = len(e)
        if M < 3:
            raise ValueError("need at least 3 energy grid points")
        if np.any(np.diff(e) <= 0):
            raise ValueError("energy grid must be strictly increasing")
        ib = self.group_boundary_index
        if not 0 < ib < M - 1:
            raise ValueError("group boundary must be strictly inside the grid")
        for name in ("sigma_a", "diffusion", "nu_sigma_f", "chi", "flux"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (M,):
                raise ValueError(f"{name} must have shape ({M},)")
            object.__setattr__(self, name, arr)
        sc = np.asarray(self.scatter, dtype=np.float64)
        if sc.shape != (M, M):
            raise ValueError(f"scatter must have shape ({M}, {M})")
        if np.any(self.flux <= 0):
            raise ValueError("weighting flux must be strictly positive")
        object.__setattr__(self, "energy", e)
        object.__setattr__(self, "scatter", sc)


@dataclass(frozen=True)
class CondensationResult:
    """Two-group constants plus the quantities the model drops.

    sigma_21 (thermal -> fast up-scattering) is computed for reporting
    but never assembled; chi_fast / chi_thermal are the group integrals
    of the fission spectrum (the model assumes chi_fast = 1).
    """

    constants: GroupConstants
    sigma_21: float
    chi_fast: float
    chi_thermal: float


def condense_two_group(tab):
    """Collapse tabulated data to two-group constants, trapezoid rule.

    Every constant is the flux-weighted group average of its pointwise
    quantity; the transfer cross sections integrate the scattering kernel
    over the destination group before averaging over the source group.
    """
    e = tab.energy
    ib = tab.group_boundary_index
    th = slice(0, ib + 1)  # thermal: low energies
    fa = slice(ib, len(e))  # fast: high energies

    def gavg(q, s):
        w = _trapz(tab.flux[s], e[s])
        if w <= 0:
            raise ValueError("zero group flux integral")
        return float(_trapz(q[s] * tab.flux[s], e[s]) / w)

    # destination-group integral of the kernel, per source energy
    to_thermal = _trapz(tab.scatter[:, th], e[th], axis=1)
    to_fast = _trapz(tab.scatter[:, fa], e[fa], axis=1)

    gc = GroupConstants(
        D1=gavg(tab.diffusion, fa),
        D2=gavg(tab.diffusion, th),
        sigma_a1=gavg(tab.sigma_a, fa),
        sigma_a2=gavg(tab.sigma_a, th),
        sigma_12=gavg(to_thermal, fa),
        nu_sigma_f1=gavg(tab.nu_sigma_f, fa),
        nu_sigma_f2=gavg(tab.nu_sigma_f, th),
    )
    return CondensationResult(
        constants=gc,
        sigma_21=gavg(to_fast, th),
        chi_fast=float(_trapz(tab.chi[fa], e[fa])),
        chi_thermal=float(_trapz(tab.chi[th], e[th])),
    )


def _iaea_constants():
    fuel = dict(D1=1.5, D2=0.4, sigma_a1=0.01, sigma_12=0.02,
                nu_sigma_f1=0.0, nu_sigma_f2=0.135)
    refl = dict(D1=2.0, D2=0.3, sigma_a1=0.0, sigma_12=0.04,
                nu_sigma_f1=0.0, nu_sigma_f2=0.0)
    return {
        1: GroupConstants(sigma_a2=0.080, **fuel),   # outer fuel
        2: GroupConstants(sigma_a2=0.085, **fuel),   # inner fuel
        3: GroupConstants(sigma_a2=0.130, **fuel),   # fuel + control rod
        4: GroupConstants(sigma_a2=0.010, **refl),   # reflector
        5: GroupConstants(sigma_a2=0.055, **refl),   # reflector + rod
    }


BUILTIN_DECKS = ("paper-table1-dirichlet", "iaea-2d")
_ALIASES = {"paper-table1": "paper-table1-dirichlet"}


def builtin_deck(name):
    """Named parameter deck: region tag -> (GroupConstants, BoundaryCondition).

    "paper-table1-dirichlet": the homogeneous test constants with a
    homogeneous Dirichlet boundary. "iaea-2d": the five quarter-core
    regions with Robin boundary coefficient 0.4692 for both groups (the
    strong condition dphi_g/dn = -(0.4692/D_g) phi_g picks up D_g in the
    boundary integral, leaving a group-independent weak coefficient).
    """
    canon = _ALIASES.get(name, name)
    if canon == "paper-table1-dirichlet":
        gc = GroupConstants(
            D1=1.0, D2=0.5, sigma_a1=0.2, sigma_a2=0.1,
            sigma_12=0.1, nu_sigma_f1=0.3, nu_sigma_f2=0.1,
        )
        return {1: (gc, BoundaryCondition.dirichlet())}
    if canon == "iaea-2d":
        bc = BoundaryCondition.robin(0.4692)
        return {tag: (gc, bc) for tag, gc in _iaea_constants().items()}
    raise ValueError(
        f"unknown deck {name!r}; built-in decks: {', '.join(BUILTIN_DECKS)}"
    )
