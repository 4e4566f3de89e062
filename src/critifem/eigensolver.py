"""Shift-invert Arnoldi eigensolver for the assembled pencil A x = lambda B x.

B has no thermal rows, so the thermal equation fixes the thermal flux
from the fast flux, and eliminating it leaves an n x n operator on the
fast flux alone (shift 0):

    T x1 = a11^{-1} (F1 x1 + F2 a22^{-1} C x1),   x2 = a22^{-1} C x1.

Its dominant eigenvalues mu are the reciprocals of the pencil eigenvalues
of smallest magnitude, which carry the physics (lambda = 1/k). The
adjoint pencil A^T y = lambda B^T y eliminates the same way, with every
off-diagonal block transposed:

    T* y1 = a11^{-1} (F1^T y1 + C^T a22^{-1} F2^T y1),   y2 = lambda a22^{-1} F2^T y1.

One application costs one solve with each SPD diagonal block; the inner
solves are sparse LU factors of the two blocks in symmetric mode,
computed once per solve and shared by every operator application and by
the thermal recovery of the wanted eigenvectors.

Arnoldi itself is ARPACK's real nonsymmetric iteration (scipy
sparse.linalg.eigs) with a fixed start vector for reproducibility;
conjugate Ritz pairs come back as genuinely complex eigenvalues, which
the physical problems never produce but the solver must be able to
report. Systems too small for ARPACK fall back to a dense eigensolve of
T.

Every returned eigenpair is certified by explicitly forming
||A x - lambda B x||_2 / ||B x||_2 on the full sparse pencil. An attempt
is accepted only when every Ritz pair up to and including the m-th
smallest |lambda| meets 10x the Arnoldi tolerance; otherwise the
iteration is retried with more wanted pairs and a larger subspace before
giving up, so a poorly converged wanted pair is never replaced by a
higher mode.

The contract is all or nothing: a solve returns exactly m certified
pairs or raises SolverError, also when the pencil has fewer than m
finite eigenvalues (no fission production, no free DOF, fewer than m
fast DOFs with fission, or a system so small that the dense solve sees
its whole spectrum). A converged Arnoldi attempt whose wanted Ritz
values already include a zero of the operator has found every finite
eigenvalue, so a shortfall there fails at once instead of retrying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

__all__ = [
    "SolverSettings",
    "EigenSolution",
    "SolverError",
    "solve_primal",
    "solve_adjoint",
    "residual",
]

# Eigenvalues of the fast-flux operator below this fraction of the
# largest are zeros in exact arithmetic (infinite pencil eigenvalues):
# its range lies in a11^{-1} of the fission rows, so every fast DOF with
# no fission production, such as a reflector region, adds a zero.
# Defective zeros move by about sqrt(eps), so the cut sits just above
# that.
_ZERO_MU = 1e-7

# The first Arnoldi attempt uses a subspace of max(4m, _MIN_NCV); each
# retry doubles it, up to _RETRIES times.
_MIN_NCV = 20
_RETRIES = 6


class SolverError(RuntimeError):
    """The solve cannot return exactly m certified eigenpairs: Arnoldi
    stagnation, a wanted pair that fails certification, or fewer than m
    finite eigenvalues (none at all without fission or free DOF)."""


@dataclass(frozen=True)
class SolverSettings:
    """Eigensolver settings.

    m: number of eigenpairs to return (ascending |lambda|).
    tol: Arnoldi convergence tolerance; accepted pairs must certify a
        pencil residual below 10x this value.
    """

    m: int = 5
    tol: float = 1e-10

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.tol <= 0:
            raise ValueError("tolerances must be positive")


@dataclass(frozen=True)
class EigenSolution:
    """One certified eigenpair of the pencil.

    lam is the eigenvalue (lambda = 1/k, complex in general); phi1/phi2
    are the fast/thermal coefficient vectors over the raw scalar DOFs
    with zeros at Dirichlet-constrained entries, mass-normalized with the
    first significant component rotated to the positive real axis.
    residual is ||A x - lam B x||_2 / ||B x||_2 on the reduced pencil.
    """

    lam: complex
    phi1: np.ndarray
    phi2: np.ndarray
    residual: float
    adjoint: bool = False

    @property
    def k_eff(self):
        """1/Re(lambda) when the eigenvalue is real to 1e-8, else nan."""
        if abs(self.lam.imag) <= 1e-8 * abs(self.lam):
            return 1.0 / self.lam.real
        return math.nan


def _factor(block):
    return spla.splu(
        block.tocsc(), permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True)
    )


class _BlockSolver:
    """The n x n fast-flux operator T (T* in adjoint mode) and the
    thermal half of its eigenvectors.

    Primal: T x1 = a11^{-1} (F1 x1 + F2 a22^{-1} C x1), x2 = a22^{-1} C x1.
    Adjoint: T* y1 = a11^{-1} (F1^T y1 + C^T a22^{-1} F2^T y1),
    y2 = lambda a22^{-1} F2^T y1. Both are a11^{-1} (fast x + up a22^{-1}
    down x) with the three off-diagonal blocks below.

    Both diagonal blocks are SPD, so each is factored once by SuperLU in
    symmetric mode: minimum degree ordering on the block's own graph and
    diagonal pivots, which keeps the fill at about half of a general
    column ordering. The diagonal blocks are symmetric, so the same
    factors serve the adjoint (a11^T = a11, a22^T = a22); the coupling
    and fission blocks are not, and are transposed there.
    """

    def __init__(self, system, adjoint):
        self.adjoint = adjoint
        self._lu11 = _factor(system.a11)
        self._lu22 = _factor(system.a22)
        if adjoint:
            self._fast = system.f1.T
            self._down = system.f2.T  # fast -> thermal right-hand side
            self._up = system.coupling.T  # thermal -> fast
        else:
            self._fast = system.f1
            self._down = system.coupling
            self._up = system.f2

    def apply(self, x1):
        """T x1 (T* x1 in adjoint mode); x1 is real, one vector or columns."""
        x2 = self._lu22.solve(self._down @ x1)
        return self._lu11.solve(self._fast @ x1 + self._up @ x2)

    def thermal(self, lams, x1):
        """Thermal half of the eigenvectors with fast halves x1 (columns)
        and eigenvalues lams, by one multi-column a22 solve."""
        rhs = self._down @ x1
        if np.iscomplexobj(rhs):
            # the factors are real: solve real and imaginary parts as columns
            k = rhs.shape[1]
            parts = self._lu22.solve(np.hstack([rhs.real, rhs.imag]))
            x2 = parts[:, :k] + 1j * parts[:, k:]
        else:
            x2 = self._lu22.solve(rhs)
        return x2 * lams if self.adjoint else x2


def _mass_norm(system, x):
    n = system.n
    m = system.mass
    x1, x2 = x[:n], x[n:]
    val = (np.vdot(x1, m @ x1) + np.vdot(x2, m @ x2)).real
    return math.sqrt(max(val, 0.0))


def _normalize(system, x):
    nrm = _mass_norm(system, x)
    if nrm == 0:
        raise SolverError("eigenvector has zero mass norm")
    x = x / nrm
    # rotate the first significant component onto the positive real axis
    mags = np.abs(x)
    idx = int(np.argmax(mags > 1e-8 * mags.max()))
    pivot = x[idx]
    x = x * (pivot.conjugate() / abs(pivot))
    if np.abs(x.imag).max() <= 1e-12 * max(np.abs(x.real).max(), 1e-300):
        x = x.real.copy()
    return x


def _pencil_residual(system, lam, x, adjoint):
    """||A x - lam B x||_2 / ||B x||_2 on the pencil, transposed for adjoint.

    x may hold one vector or a column per pair (lam then holds one value
    per column); a vector with B x = 0 has residual inf.
    """
    A = system.A.T if adjoint else system.A
    B = system.B.T if adjoint else system.B
    bx = B @ x
    num = np.linalg.norm(A @ x - lam * bx, axis=0)
    denom = np.linalg.norm(bx, axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(denom > 0, num / denom, math.inf)


def residual(system, solution):
    """Recertify a solution: ||A x - lam B x||_2 / ||B x||_2.

    Adjoint solutions are checked against the transposed pencil they
    solve.
    """
    x = np.concatenate(
        [system.restrict(solution.phi1), system.restrict(solution.phi2)]
    )
    return float(_pencil_residual(system, solution.lam, x, solution.adjoint))


def _dense_pairs(system, solver, want):
    mu, vecs = np.linalg.eig(solver.apply(np.eye(system.n)))
    return mu, vecs


def _arpack_pairs(system, solver, want, ncv, tol):
    n = system.n
    op = spla.LinearOperator((n, n), matvec=solver.apply, dtype=np.float64)
    v0 = np.cos(0.7 * np.arange(n) + 0.3)  # fixed, generic start vector
    ncv_eff = min(n, max(ncv, 2 * want + 1))
    mu, vecs = spla.eigs(
        op, k=want, which="LM", v0=v0, ncv=ncv_eff, tol=tol, maxiter=8000
    )
    return mu, vecs


def _solution(system, lam, x, res, adjoint):
    x = _normalize(system, x)
    n = system.n
    phi1 = system.extend(x[:n])
    phi2 = system.extend(x[n:])
    phi1.flags.writeable = False
    phi2.flags.writeable = False
    return EigenSolution(
        lam=complex(lam), phi1=phi1, phi2=phi2, residual=float(res),
        adjoint=adjoint,
    )


def _solve(system, settings, adjoint):
    m = settings.m
    if system.n == 0:
        raise SolverError(
            "no free DOF: every node is Dirichlet-constrained; refine the mesh "
            "or use a Robin bc"
        )
    if system.B.nnz == 0 or abs(system.B).max() == 0:
        raise SolverError(
            f"solver certified only 0 of {m} pairs: empty spectrum, the deck "
            "has no fission production"
        )
    solver = _BlockSolver(system, adjoint)
    n = system.n
    ncv = max(4 * m, _MIN_NCV)
    tol = settings.tol
    accept = 10.0 * tol

    last_error = None
    for attempt in range(_RETRIES + 1):
        want = min(m + 3 + attempt, n - 2)
        use_dense = n < 40 or ncv >= n
        try:
            if use_dense:
                mu, vecs = _dense_pairs(system, solver, want)
            else:
                mu, vecs = _arpack_pairs(system, solver, want, ncv, tol)
        except spla.ArpackNoConvergence as exc:
            last_error = exc
            ncv = min(2 * ncv, n)
            continue
        finite = np.abs(mu) > _ZERO_MU * np.abs(mu).max()
        lams, x1 = 1.0 / mu[finite], vecs[:, finite]
        if len(lams) < m and (use_dense or not finite.all()):
            # the dense solve has the whole spectrum, and a converged "LM"
            # attempt that reaches a zero has every finite eigenvalue: no
            # retry can add pairs
            raise SolverError(f"solver certified only {len(lams)} of {m} pairs")
        first = np.lexsort((lams.imag, np.abs(lams)))[:m]
        lams, x1 = lams[first], x1[:, first]
        if not lams.imag.any():
            lams, x1 = lams.real, np.ascontiguousarray(x1.real)
        vecs = np.vstack([x1, solver.thermal(lams, x1)])
        res = _pencil_residual(system, lams, vecs, adjoint)
        # every pair up to the m-th smallest |lambda| must certify
        if len(lams) == m and np.all(res <= accept):
            return [
                _solution(system, lams[i], vecs[:, i], res[i], adjoint)
                for i in range(m)
            ]
        if use_dense:
            bad = int(np.argmax(res > accept))
            raise SolverError(
                f"dense solve: eigenpair {bad + 1} (lambda={lams[bad]:.6g}) "
                f"misses certification with residual {res[bad]:.2e}"
            )
        ncv = min(2 * ncv, n)
    raise SolverError(
        f"Arnoldi stagnation: {_RETRIES} restarts exhausted "
        f"without {m} certified eigenpairs"
        + (f" (last ARPACK error: {last_error})" if last_error else "")
    )


def solve_primal(system, settings=SolverSettings()):
    """First m eigenpairs of A x = lambda B x, ascending |lambda|.

    Returns exactly settings.m pairs, each certified to 10 * settings.tol.
    Strict: every Ritz pair up to and including the m-th smallest |lambda|
    must certify; a rejected pair in that range triggers a retry with a
    larger subspace, never a skip to a higher mode. Raises SolverError
    when the system has no free DOF, when B = 0 (empty spectrum), when
    the pencil has fewer than m finite eigenvalues, or when the retries
    are exhausted.
    """
    return _solve(system, settings, adjoint=False)


def solve_adjoint(system, settings=SolverSettings()):
    """First m eigenpairs of the transposed pencil (left eigenvectors),
    under the same contract as solve_primal."""
    return _solve(system, settings, adjoint=True)
