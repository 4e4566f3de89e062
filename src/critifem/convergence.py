"""Mesh-refinement studies of the criticality eigenvalues.

A study solves the same two-group problem on a sequence of uniformly
refined meshes, tracks each eigenvalue by its position in the sorted
spectrum, and fits the model

    lambda_h = lambda_star + scale * h**rate

to every tracked index by profiled least squares.  The extrapolated
lambda_star is usually one to two orders more accurate than the finest
single mesh, and the fitted rate exposes where the solution regularity
(re-entrant corners, material interfaces) caps the order below the
2k the element degree would otherwise deliver.

For the homogeneous constant-coefficient deck with a Dirichlet boundary
the exact eigenvalues are available in closed form through the Laplacian
modes of the domain; `analytic_eigenvalue` maps a Laplacian eigenvalue
to the corresponding criticality eigenvalue and serves as the reference
the studies converge against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .assembly import assemble
from .eigensolver import SolverError, SolverSettings, solve_primal
from .fem_space import build_dofmap
from .materials import builtin_deck, validate_for_solve
from .mesh import GENERATORS, _atomic_write, generator, mesh_size

__all__ = [
    "RateFit",
    "fit_rate",
    "analytic_eigenvalue",
    "thermal_ratio",
    "laplacian_modes",
    "reference_eigenvalues",
    "ConvergenceStudy",
    "run_study",
    "write_csv",
    "format_table",
    "DOMAINS",
]


# ---------------------------------------------------------------------------
# closed-form references

def analytic_eigenvalue(mu, gc):
    """Criticality eigenvalue of the homogeneous Dirichlet problem whose
    spatial shape is a Laplacian mode with -lap w = mu w.

    Substituting phi_g = c_g w separates the system into a 2x2 pencil in
    (c1, c2); eliminating c2 through the thermal balance gives

        lambda = (D1 mu + sa1 + s12) / (nsf1 + nsf2 * s12 / (D2 mu + sa2))

    Every Laplacian mode yields one criticality eigenvalue this way, and
    since lambda is increasing in mu the orderings agree. The constants
    must pass validate_for_solve, and a deck without fission production
    (a zero denominator) has no finite eigenvalue: both raise ValueError.
    """
    validate_for_solve(gc)
    mu = float(mu)
    removal = gc.D1 * mu + gc.sigma_a1 + gc.sigma_12
    fission = gc.nu_sigma_f1 + gc.nu_sigma_f2 * thermal_ratio(mu, gc)
    if fission == 0:
        raise ValueError("no fission production: no finite eigenvalue")
    return removal / fission


def thermal_ratio(mu, gc):
    """c2/c1 of the separable mode: sigma_12 / (D2 mu + sigma_a2)."""
    return gc.sigma_12 / (gc.D2 * float(mu) + gc.sigma_a2)


# First five Dirichlet-Laplacian eigenvalues of the L-shaped domain with
# legs of unit length and a re-entrant corner, known to ~13 digits from
# boundary-collocation computations (no closed form exists except the
# third, which is exactly 2 pi^2).  Our L-shape has legs of length 1/2,
# which scales every eigenvalue by 4.
_LSHAPE_UNIT_LEG = (
    9.6397238440219,
    15.197251926573,
    2.0 * math.pi**2,
    29.521481114146,
    31.912635957137,
)


# Most modes laplacian_modes lists: the square and cube lists grow with
# count, and the disk table below stops here.
_MAX_MODES = 100

# First _MAX_MODES Dirichlet-Laplacian eigenvalues of the unit disk: the
# squared Bessel zeros j_{n,k}^2 in ascending order, those of order n >= 1
# twice (the cos and sin modes).  Each literal is repr(float(z) ** 2) for
# the zero z that SciPy's jn_zeros returns, tabulated so that no run loads
# the Bessel code; the test test_disk_modes_match_the_full_bessel_enumeration
# re-derives every value, bit for bit, from jn_zeros.
_DISK_UNIT_RADIUS = (
    5.783185962946783,
    14.681970642123895, 14.681970642123895,
    26.374616427163392, 26.374616427163392,
    30.471262343662087,
    40.70646581820033, 40.70646581820033,
    49.2184563216946, 49.2184563216946,
    57.582940903291124, 57.582940903291124,
    70.84999891909588, 70.84999891909588,
    74.88700679069518,
    76.9389283336474, 76.9389283336474,
    95.27757254403716, 95.27757254403716,
    98.72627247724941, 98.72627247724941,
    103.49945389513657, 103.49945389513657,
    122.42779606492816, 122.42779606492816,
    122.90760020361625, 122.90760020361625,
    135.02070886597045, 135.02070886597045,
    139.04028442645983,
    149.4528808634265, 149.4528808634265,
    152.2411535417489, 152.2411535417489,
    169.39544982609945, 169.39544982609945,
    177.52076681380464, 177.52076681380464,
    178.3373412416295, 178.3373412416295,
    184.66880733916813, 184.66880733916813,
    206.56981037699245, 206.56981037699245,
    209.54012012644094, 209.54012012644094,
    218.92018914566347, 218.92018914566347,
    219.67000667833864, 219.67000667833864,
    222.93230361763418,
    243.04335706046118, 243.04335706046118,
    246.4954661332502, 246.4954661332502,
    257.21020099790394, 257.21020099790394,
    263.2008542550082, 263.2008542550082,
    271.28165427287337, 271.28165427287337,
    278.8315508532629, 278.8315508532629,
    289.1298832956067, 289.1298832956067,
    297.2596802775586, 297.2596802775586,
    310.3222598678765, 310.3222598678765,
    316.89109351651985, 316.89109351651985,
    322.55511629254477, 322.55511629254477,
    326.5633529323285,
    334.43568585488043, 334.43568585488043,
    339.79258276137705, 339.79258276137705,
    357.20992262998226, 357.20992262998226,
    360.2454819197523, 360.2454819197523,
    376.7253994321673, 376.7253994321673,
    382.379895031191, 382.379895031191,
    384.7819051027094, 384.7819051027094,
    384.7861575775256, 384.7861575775256,
    399.77725621053963, 399.77725621053963,
    412.93447426220087, 412.93447426220087,
    432.2202064608301, 432.2202064608301,
    432.9332377047204, 432.9332377047204,
    433.76113639380605, 433.76113639380605,
)


def laplacian_modes(domain, count):
    """First `count` Dirichlet-Laplacian eigenvalues of the domain, sorted
    ascending with multiplicity; 1 <= count <= _MAX_MODES.

    square and cube: pi^2 times the sum of squares of 2 or 3 positive
    integers;
    disk (unit radius): squared Bessel zeros j_{n,k}^2, double for n >= 1,
    tabulated up to _MAX_MODES;
    lshape: tabulated (only the first five are available).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > _MAX_MODES:
        raise ValueError(f"at most {_MAX_MODES} modes are listed, got {count}")
    if domain in ("square", "cube"):
        dim = 2 if domain == "square" else 3
        r = int(round((dim * count) ** (1 / dim))) + 2
        vals = [
            math.pi**2 * sum(i * i for i in ns)
            for ns in itertools.product(range(1, r + 1), repeat=dim)
        ]
    elif domain == "disk":
        return list(_DISK_UNIT_RADIUS[:count])
    elif domain == "lshape":
        if count > len(_LSHAPE_UNIT_LEG):
            raise ValueError(
                f"only the first {len(_LSHAPE_UNIT_LEG)} L-shape modes are known"
            )
        vals = [4.0 * v for v in _LSHAPE_UNIT_LEG]
    else:
        raise ValueError(f"unknown domain {domain!r}; choose from {DOMAINS}")
    return sorted(vals)[:count]


def reference_eigenvalues(domain, count, gc):
    """First `count` exact criticality eigenvalues on the domain for a
    homogeneous deck `gc` with a Dirichlet boundary."""
    return [analytic_eigenvalue(mu, gc) for mu in laplacian_modes(domain, count)]


# ---------------------------------------------------------------------------
# rate fitting

_RATE_BOUNDS = (0.25, 8.0)  # the interval the fitted rate is searched in


class RateFit(NamedTuple):
    """Fit of lambda_h = extrapolated + scale * h**rate.

    rms is the root-mean-square misfit over the data points; a value
    comparable to the spread of the data means the model does not hold
    (pre-asymptotic meshes or index mix-ups) and the extrapolated value
    should not be trusted.
    """

    extrapolated: float
    rate: float
    scale: float
    rms: float


def _profile(h_pow, lam):
    """Linear LS in (extrapolated, scale) for each fixed rate, one per row.

    h_pow is (rates, points); returns the extrapolated values, scales and
    residual sums of squares of every row, from the centered normal
    equations of the two-column design [1, h**rate].
    """
    x = h_pow - h_pow.mean(axis=-1, keepdims=True)
    y = lam - lam.mean()
    sxx = np.einsum("...i,...i->...", x, x)
    scale = np.divide(x @ y, sxx, out=np.zeros_like(sxx), where=sxx > 0)
    res = y - scale[..., None] * x
    extrap = lam.mean() - scale * h_pow.mean(axis=-1)
    return extrap, scale, np.einsum("...i,...i->...", res, res)


def fit_rate(h, lam):
    """Least-squares fit of the three-parameter refinement model.

    h, lam: matching sequences, at least three pairs, all finite, h
    positive and distinct.  The rate is profiled out (variable projection,
    Golub & Pereyra, SIAM J. Numer. Anal. 10, 1973): for each candidate
    rate the remaining two parameters are a linear solve.  The 1-D misfit
    is searched on a 65-point grid over rates 0.25 to 8, which is zoomed
    into the bracket around its best point until the bracket is narrower
    than 1e-12, the rate's floating-point floor; the fit is that rate
    with the two linear parameters solved at it.  Data that is constant
    to machine precision short-circuits to RateFit(lam[0], inf, 0.0, 0.0):
    already converged, nothing to fit.
    """
    h = np.asarray(h, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if h.shape != lam.shape or h.ndim != 1:
        raise ValueError("h and lam must be 1-D sequences of equal length")
    if h.size < 3:
        raise ValueError("need at least three (h, lambda) pairs to fit three parameters")
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(lam))):
        raise ValueError("mesh sizes and eigenvalues must be finite")
    if np.any(h <= 0):
        raise ValueError("mesh sizes must be positive")
    if len(set(h.tolist())) != h.size:
        raise ValueError("mesh sizes must be distinct")
    if np.ptp(lam) <= 1e-14 * max(1.0, float(np.max(np.abs(lam)))):
        return RateFit(float(lam[0]), math.inf, 0.0, 0.0)

    logh = np.log(h)
    # No single grid resolves the rate to its floating-point floor, and
    # the fit stops at this search, so the bracket is zoomed to 1e-12.
    a, b = _RATE_BOUNDS
    while True:
        rates = np.linspace(a, b, 65)
        i = int(np.argmin(_profile(np.exp(rates[:, None] * logh), lam)[2]))
        if b - a < 1e-12:
            break
        a, b = rates[max(i - 1, 0)], rates[min(i + 1, 64)]
    rate = float(rates[i])
    extrap, scale, best = (float(v) for v in _profile(np.exp(rate * logh), lam))
    return RateFit(extrap, rate, scale, math.sqrt(best / h.size))


# ---------------------------------------------------------------------------
# study driver

DOMAINS = tuple(sorted(GENERATORS))


@dataclass(frozen=True)
class ConvergenceStudy:
    """Eigenvalues of one domain/degree across a refinement sequence.

    eigenvalues[i, j] is the j-th smallest eigenvalue on mesh
    resolutions[i] (real parts; a non-real pair would be recorded in
    notes).  fits[j] is the refinement fit of column j.  notes carries
    non-fatal oddities: near-degenerate clusters at the finest mesh,
    non-monotone columns, imaginary contamination.
    """

    domain: str
    degree: int
    deck_label: str
    resolutions: tuple[int, ...]
    h: tuple[float, ...]
    eigenvalues: np.ndarray
    fits: tuple[RateFit, ...]
    notes: tuple[str, ...]

    @property
    def m(self):
        return self.eigenvalues.shape[1]


def run_study(domain, degree, resolutions, deck=None, deck_label="paper-table1",
              m=5, tol=1e-10):
    """Solve on each resolution and fit every sorted index.

    deck defaults to the built-in homogeneous Dirichlet deck; pass an
    explicit deck (and a deck_label for reports) to study anything else.
    Each mesh solves for m pairs certified to 10 * tol; a pair the
    eigensolver returns complex (lam.imag != 0) is recorded in notes.
    Eigenvalues are tracked purely by sorted position, which is exact as
    long as no crossing happens between indices that are separated at
    every resolution; a note flags finest-mesh gaps below 0.5% where a
    mixed pair could silently corrupt the per-index fits. A SolverError
    of any resolution is raised again with the domain and resolution
    prefixed to its message.
    """
    generate = generator(domain)
    resolutions = tuple(int(n) for n in resolutions)
    if len(resolutions) < 3:
        raise ValueError("need at least three resolutions for the rate fit")
    if sorted(set(resolutions)) != list(resolutions):
        raise ValueError("resolutions must be strictly increasing")
    if deck is None:
        deck = builtin_deck("paper-table1")
    settings = SolverSettings(m=m, tol=tol)

    notes = []
    hs, rows = [], []
    for n in resolutions:
        mesh = generate(n)
        dofmap = build_dofmap(mesh, degree)
        try:
            # no name keeps the system (and its factors) past its solve
            sols = solve_primal(assemble(mesh, dofmap, deck, degree), settings)
        except SolverError as e:
            raise SolverError(f"{domain} N={n}: {e}") from None
        lams = np.array([s.lam for s in sols])
        bad = np.flatnonzero(lams.imag != 0)
        if len(bad):
            idx = ", ".join(str(i + 1) for i in bad)
            notes.append(f"N={n}: non-real eigenvalue at sorted index {idx}")
        hs.append(mesh_size(mesh))
        rows.append(np.sort(lams.real))

    eigs = np.vstack(rows)
    fine = eigs[-1]
    for i, j in itertools.pairwise(range(m)):
        if fine[j] - fine[i] <= 0.005 * abs(fine[j]):
            notes.append(
                f"indices {i + 1} and {j + 1} differ by <0.5% on the finest "
                "mesh; sorted-index tracking may mix the pair"
            )
    for j in range(m):
        col = eigs[:, j]
        if np.any(np.diff(col) > 1e-12 * np.abs(col[:-1])):
            notes.append(f"index {j + 1} is not monotone under refinement")

    fits = tuple(fit_rate(hs, eigs[:, j]) for j in range(m))
    return ConvergenceStudy(
        domain=domain, degree=degree, deck_label=deck_label,
        resolutions=resolutions, h=tuple(hs), eigenvalues=eigs,
        fits=fits, notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# reports

def write_csv(study, path):
    """CSV layout: one comment line with the study parameters, a header
    row `N,h,lambda_1..lambda_m`, one row per resolution (full repr
    precision, round-trip exact), then summary rows labeled `rate`,
    `scale`, `rms` and `extrapolated` with an empty h column.  Notes, if
    any, follow as trailing comment lines.  Every line ends in `\n`.
    """
    lines = [
        f"# convergence study: domain={study.domain} degree={study.degree} "
        f"deck={study.deck_label}",
        ",".join(["N", "h"] + [f"lambda_{j + 1}" for j in range(study.m)]),
    ]
    for n, h, row in zip(study.resolutions, study.h, study.eigenvalues):
        lines.append(",".join([str(n), repr(float(h))] + [repr(float(v)) for v in row]))
    for attr in ("rate", "scale", "rms", "extrapolated"):
        lines.append(
            ",".join([attr, ""] + [repr(float(getattr(ft, attr))) for ft in study.fits])
        )
    lines.extend(f"# note: {note}" for note in study.notes)
    _atomic_write(path, lines)


_TABLE_DIGITS = 10  # decimals of every value in the terminal table


def format_table(study):
    """Aligned text table of the study for terminal output."""
    width = _TABLE_DIGITS + 8
    head = ["N".rjust(6), "h".rjust(12)] + [
        f"lambda_{j + 1}".rjust(width) for j in range(study.m)
    ]
    lines = [
        f"domain={study.domain} degree={study.degree} deck={study.deck_label}",
        "  ".join(head),
    ]
    for n, h, row in zip(study.resolutions, study.h, study.eigenvalues):
        cells = [f"{n:6d}", f"{h:12.6f}"] + [f"{v:{width}.{_TABLE_DIGITS}f}" for v in row]
        lines.append("  ".join(cells))
    for label, attr in (("rate", "rate"), ("extrapolated", "extrapolated")):
        # the label spans the N and h columns (6 + 2 + 12 wide)
        cells = [label.rjust(20)]
        for ft in study.fits:
            v = getattr(ft, attr)
            cells.append(
                f"{v:{width}.{_TABLE_DIGITS}f}" if math.isfinite(v) else "inf".rjust(width)
            )
        lines.append("  ".join(cells))
    for note in study.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)
