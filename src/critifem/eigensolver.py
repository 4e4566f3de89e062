"""Arnoldi eigensolver for the assembled pencil A x = lambda B x.

B has no thermal rows, so the thermal equation fixes the thermal flux
from the fast flux, and the fission source z = a11 x1 carries the whole
eigenvector. Eliminating the thermal flux leaves an n x n operator on
the fission source (shift 0), the classical outer iteration:

    T' z = (F1 + F2 a22^{-1} C) a11^{-1} z,   x1 = a11^{-1} z,   x2 = a22^{-1} C x1.

Its dominant eigenvalues mu are the reciprocals of the pencil eigenvalues
of smallest magnitude, which carry the physics (lambda = 1/k). The
adjoint pencil A^T y = lambda B^T y eliminates the same way, with every
off-diagonal block transposed:

    T'* z = (F1^T + C^T a22^{-1} F2^T) a11^{-1} z,   y1 = a11^{-1} z,
    y2 = lambda a22^{-1} F2^T y1.

One application costs one solve with each SPD diagonal block; the inner
solves are sparse LU factors of the two blocks in symmetric mode, shared
by every operator application, by the recovery of the wanted
eigenvectors and by consecutive solves on one system: the diagonal
blocks are symmetric, so the factors serve primal and adjoint alike. A
solve that factors leaves its factors on the system, and the next solve
there takes them off, so a primal/adjoint pair factors once and a system
holds at most one factorization. In 3-D both blocks are factored in the
geometric nested-dissection order the system carries
(BlockSystem.ordering) with natural column ordering, where minimum
degree fills far more; in 2-D SuperLU's minimum degree ordering serves.
The reordering stays inside the factor: Arnoldi, its start vector and
the eigenvectors keep the system's own numbering.

Arnoldi is one unrestarted iteration on T' from a fixed start vector,
orthogonalized by classical Gram-Schmidt run twice against a basis of at
most min(n, 10 m + 40) vectors. With the thermal half recovered exactly,
the pencil residual of a pair is |lambda| ||T' z - mu z|| / ||T' z||, so
the Arnoldi residual of a Ritz pair estimates the certified measure
itself: |lambda|^2 beta |y_k| for a unit Ritz vector y of the Hessenberg
matrix and the last subdiagonal entry beta. Every 2 steps the Ritz
values are checked; once the estimate of each of the first m + 1 pairs
by |lambda| is below 0.3 x the acceptance level, the first m are
recovered by one multi-column solve with each block and certified. The
one extra pair gives the second copy of an exact double time to surface
from rounding. A pair that misses certification makes the basis grow;
nothing restarts. When the new direction vanishes to rounding (a
breakdown: the basis spans an invariant subspace, which holds one copy
of an exact double) the iteration continues from a fresh vector
orthogonal to the basis, and accepts only once the basis holds every
finite eigenvalue. At n vectors the Hessenberg matrix is the whole
operator, which also covers systems too small for a Krylov method to
save anything.

Conjugate Ritz pairs come back as genuinely complex eigenvalues, which
the physical problems never produce but the solver must be able to
report. When every wanted |Im lambda| is at most _REAL |lambda| the
eigenvalues are returned real; a conjugate pair there is a real double
split by rounding, and the real and imaginary parts of its Ritz vector
give its two eigenvectors. Other real Ritz values have an imaginary
part of exactly 0, so lam.imag == 0 exactly when a pair is real.

Every returned eigenpair is certified by explicitly forming
||A x - lambda B x||_2 / ||B x||_2 from the fast and thermal halves of
the pencil, block by block; the 2n x 2n pencil is never formed. A solve
is accepted only when every Ritz pair up to and including the m-th
smallest |lambda| meets 10x the tolerance, so a poorly converged wanted
pair is never replaced by a higher mode.

The contract is all or nothing: a solve returns exactly m certified
pairs or raises SolverError, also when the pencil has fewer than m
finite eigenvalues (no fission production, no free DOF, or fewer than m
fast DOFs with fission). The basis holds every finite eigenvalue once it
spans the space, or once T' maps a fresh vector into it with a zero
diagonal entry; a shortfall then fails at once. Reaching the basis cap
without m certified pairs fails too.
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

# The Ritz values are checked every _CHECK_EVERY steps; the wanted pairs
# go to certification once their estimated pencil residual is below
# _SAFETY x the acceptance level.
_CHECK_EVERY = 2
_SAFETY = 0.3

# A new direction shorter than this fraction of ||T'|| is rounding: the
# basis spans an invariant subspace.
_BREAKDOWN = 1e-12

# Wanted eigenvalues all within this relative distance of the real axis
# are returned real: the one realness rule of the package.
_REAL = 1e-12

# The first m + _GUARD Ritz pairs by |lambda| must pass the estimate. A
# Krylov space from one vector holds one copy of an exact multiple
# eigenvalue; the other copy surfaces from rounding only after the first
# has converged to rounding level, and waiting for the next pair gives it
# that time, so a copy is not skipped when the m-th pair splits a double.
_GUARD = 1


class SolverError(RuntimeError):
    """The solve cannot return exactly m certified eigenpairs: the Arnoldi
    basis reached its cap, a wanted pair fails certification with the
    whole spectrum in the basis, or the pencil has fewer than m finite
    eigenvalues (none at all without fission or free DOF)."""


@dataclass(frozen=True)
class SolverSettings:
    """Eigensolver settings.

    m: number of eigenpairs to return (ascending |lambda|).
    tol: tolerance; accepted pairs must certify a pencil residual below
        10x this value.
    """

    m: int = 5
    tol: float = 1e-10

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class EigenSolution:
    """One certified eigenpair of the pencil.

    lam is the eigenvalue (lambda = 1/k; lam.imag == 0 exactly when the
    pair is real, and phi1/phi2 are float arrays then); phi1/phi2 are
    the fast/thermal coefficient vectors over the raw scalar DOFs with
    zeros at Dirichlet-constrained entries, mass-normalized with the
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
        """1/lambda for a real pair (lam.imag == 0), else nan."""
        return 1.0 / self.lam.real if self.lam.imag == 0 else math.nan


def _factor(block, ordering):
    """Symmetric-mode SuperLU factor of an SPD block: in the given
    ordering with natural columns, or by minimum degree when ordering is
    None."""
    options = dict(SymmetricMode=True)
    if ordering is None:
        return spla.splu(block.tocsc(), permc_spec="MMD_AT_PLUS_A", options=options)
    lu = spla.splu(block[ordering][:, ordering].tocsc(), permc_spec="NATURAL",
                   options=options)
    return _Reordered(lu, ordering)


class _Reordered:
    """A factor of block[p][:, p] that solves with the block itself."""

    def __init__(self, lu, ordering):
        self.lu = lu
        self._ordering = ordering
        self._inverse = np.argsort(ordering)

    def solve(self, rhs):
        return self.lu.solve(rhs[self._ordering])[self._inverse]


class _FissionSource:
    """The n x n fission-source operator T' (T'* in adjoint mode) and the
    pencil eigenvectors of its eigenvectors.

    Primal: T' z = (F1 + F2 a22^{-1} C) a11^{-1} z, x1 = a11^{-1} z,
    x2 = a22^{-1} C x1. Adjoint: T'* z = (F1^T + C^T a22^{-1} F2^T)
    a11^{-1} z, y1 = a11^{-1} z, y2 = lambda a22^{-1} F2^T y1. Both are
    (fast + up a22^{-1} down) a11^{-1} with the three off-diagonal blocks
    below.

    Both diagonal blocks are SPD, so _factor factors each by SuperLU in
    symmetric mode with diagonal pivots, which keeps the fill at about
    half of a general column ordering. The order is the system's
    geometric nested dissection in 3-D (natural column ordering of the
    reordered block) and minimum degree on the block's own graph in 2-D.
    The diagonal blocks are symmetric, so the same factors serve the
    adjoint (a11^T = a11, a22^T = a22); the coupling and fission blocks
    are not, and are transposed there.
    """

    def __init__(self, system, factors, adjoint):
        self.adjoint = adjoint
        self._lu11, self._lu22 = factors
        if adjoint:
            self._fast = system.f1.T
            self._down = system.f2.T  # fast -> thermal right-hand side
            self._up = system.coupling.T  # thermal -> fast
        else:
            self._fast = system.f1
            self._down = system.coupling
            self._up = system.f2

    def apply(self, z):
        """T' z (T'* z in adjoint mode) for one real n-vector z."""
        x1 = self._lu11.solve(z)
        return self._fast @ x1 + self._up @ self._lu22.solve(self._down @ x1)

    def vectors(self, lams, z):
        """Pencil eigenvectors [x1; x2] (columns) of the fission sources z
        (columns) with eigenvalues lams, by one multi-column solve with
        each block."""
        x1 = _solve_columns(self._lu11, z)
        x2 = _solve_columns(self._lu22, self._down @ x1)
        return np.vstack([x1, x2 * lams if self.adjoint else x2])


def _solve_columns(lu, rhs):
    if np.iscomplexobj(rhs):
        # the factors are real: solve real and imaginary parts as columns
        k = rhs.shape[1]
        parts = lu.solve(np.hstack([rhs.real, rhs.imag]))
        return parts[:, :k] + 1j * parts[:, k:]
    return lu.solve(rhs)


def _orthogonalize(basis, w):
    """Classical Gram-Schmidt run twice: take the components along the
    orthonormal rows of basis out of w, in place; returns them."""
    h = basis @ w
    w -= h @ basis
    again = basis @ w
    w -= again @ basis
    return h + again


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
    return x * (pivot.conjugate() / abs(pivot))


def _pencil_residual(system, lam, x, adjoint):
    """||A x - lam B x||_2 / ||B x||_2 on the pencil, transposed for adjoint.

    x may hold one vector or a column per pair (lam then holds one value
    per column); a vector with B x = 0 has residual inf. The fast and
    thermal halves are formed from the blocks:

        primal:  B x = [F1 x1 + F2 x2; 0],
                 A x - lam B x = [a11 x1 - lam (B x)_1; a22 x2 - C x1]
        adjoint: B^T y = [F1^T y1; F2^T y1],
                 A^T y - lam B^T y = [a11^T y1 - C^T y2 - lam F1^T y1;
                                      a22^T y2 - lam F2^T y1]
    """
    n = system.n
    x1, x2 = x[:n], x[n:]
    if adjoint:
        b1, b2 = system.f1.T @ x1, system.f2.T @ x1
        r1 = system.a11.T @ x1 - system.coupling.T @ x2 - lam * b1
        r2 = system.a22.T @ x2 - lam * b2
        denom = np.hypot(np.linalg.norm(b1, axis=0), np.linalg.norm(b2, axis=0))
    else:
        b1 = system.f1 @ x1 + system.f2 @ x2
        r1 = system.a11 @ x1 - lam * b1
        r2 = system.a22 @ x2 - system.coupling @ x1
        denom = np.linalg.norm(b1, axis=0)
    num = np.hypot(np.linalg.norm(r1, axis=0), np.linalg.norm(r2, axis=0))
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


def _solution(system, lam, x, res, adjoint):
    x = _normalize(system, x)
    if lam.imag == 0:
        x = x.real
    n = system.n
    phi1 = system.extend(x[:n])
    phi2 = system.extend(x[n:])
    phi1.flags.writeable = False
    phi2.flags.writeable = False
    return EigenSolution(
        lam=complex(lam), phi1=phi1, phi2=phi2, residual=float(res),
        adjoint=adjoint,
    )


def _ritz_pairs(mu, y, first):
    """Eigenvalues lambda = 1/mu and vectors of the Ritz pairs in columns
    first, real under the near-real rule."""
    lams, y = 1.0 / mu[first], y[:, first]
    if np.all(np.abs(lams.imag) <= _REAL * np.abs(lams)):
        # a conjugate pair here is a real double split by rounding: the
        # real and imaginary parts of its vector span the double, where
        # the real part twice would lose a copy
        pair = np.flatnonzero((lams.imag[:-1] != 0) & (lams[1:] == lams[:-1].conj()))
        vecs = y.real.copy()
        vecs[:, pair + 1] = y[:, pair].imag
        return lams.real, vecs
    return lams, y


def _arnoldi(system, source, m, accept):
    """Unrestarted Arnoldi on T' until the first m pairs by |lambda|
    certify; returns their eigenvalues, vectors [x1; x2] and residuals."""
    n = system.n
    cap = min(n, 10 * m + 40)  # basis vectors at most
    basis = np.empty((cap + 1, n))  # orthonormal rows, touched as they fill
    hess = np.zeros((cap + 1, cap))
    start = np.cos(0.7 * np.arange(n) + 0.3)  # fixed, generic start vector
    basis[0] = start / np.linalg.norm(start)
    fresh = 0  # the last basis vector that is not the image of another
    broken = False  # whether the basis ever spanned an invariant subspace
    norm = 0.0  # largest ||T' v|| so far, a lower bound of ||T'||
    for k in range(1, cap + 1):
        w = source.apply(basis[k - 1])
        norm = max(norm, np.linalg.norm(w))
        hess[:k, k - 1] = _orthogonalize(basis[:k], w)
        beta = np.linalg.norm(w)
        broke = beta <= _BREAKDOWN * norm
        broken |= broke
        if not broke:
            hess[k, k - 1] = beta
            basis[k] = w / beta
        if broke or k == cap or (k > m and k % _CHECK_EVERY == 0):
            mu, y = np.linalg.eig(hess[:k, :k])
            cut = _ZERO_MU * np.abs(mu).max()
            finite = np.flatnonzero(np.abs(mu) > cut)
            # The basis holds every finite eigenvalue when it spans the
            # space, or when T' maps a fresh, generic vector into it with a
            # zero diagonal entry: T' is then zero off the basis.
            whole = k == n or (broke and fresh == k - 1 and abs(hess[k - 1, k - 1]) <= cut)
            if len(finite) < m:
                if whole:
                    raise SolverError(f"solver certified only {len(finite)} of {m} pairs")
            elif whole or not broken:
                lams = 1.0 / mu[finite]
                order = finite[np.lexsort((lams.imag, np.abs(lams)))]
                guard = order[: m + _GUARD]
                # ||T' z - mu z|| of each unit Ritz vector z; the pencil
                # residual is about |lambda|^2 times that
                err = 0.0 if whole else hess[k, k - 1] * np.abs(y[-1, guard])
                if whole or k == cap or np.all(err <= _SAFETY * accept * np.abs(mu[guard]) ** 2):
                    lams, vecs = _ritz_pairs(mu, y, order[:m])
                    vecs = source.vectors(lams, basis[:k].T @ vecs)
                    res = _pencil_residual(system, lams, vecs, source.adjoint)
                    # every pair up to the m-th smallest |lambda| must certify
                    if np.all(res <= accept):
                        return lams, vecs, res
                    if whole:
                        bad = int(np.argmax(res > accept))
                        raise SolverError(
                            f"eigenpair {bad + 1} (lambda={lams[bad]:.6g}) misses "
                            f"certification with residual {res[bad]:.2e}, with every "
                            "finite eigenvalue in the Arnoldi basis"
                        )
        if broke and k < cap:
            # An invariant subspace reached from one vector holds one copy
            # of each eigenvalue, so a later copy of an exact multiple can
            # only come from outside it: continue from a fresh direction,
            # and accept only once the basis holds every finite eigenvalue.
            fresh = k
            vec = np.random.default_rng(k).standard_normal(n)
            _orthogonalize(basis[:k], vec)
            basis[k] = vec / np.linalg.norm(vec)
    raise SolverError(
        f"Arnoldi basis exhausted: {cap} vectors without {m} certified eigenpairs"
    )


def _solve(system, settings, adjoint):
    m = settings.m
    if system.n == 0:
        raise SolverError(
            "no free DOF: every node is Dirichlet-constrained; refine the mesh "
            "or use a Robin bc"
        )
    if not (np.any(system.f1.data) or np.any(system.f2.data)):
        raise SolverError(
            f"solver certified only 0 of {m} pairs: empty spectrum, the deck "
            "has no fission production"
        )
    # take the factors a previous solve left on this system, or factor
    factors = system._factors
    object.__setattr__(system, "_factors", None)
    factored = factors is None
    if factored:
        order = system.ordering
        factors = (_factor(system.a11, order), _factor(system.a22, order))
    source = _FissionSource(system, factors, adjoint)
    lams, vecs, res = _arnoldi(system, source, m, 10.0 * settings.tol)
    if factored:
        # for the next solve on this system, the other of a pair
        object.__setattr__(system, "_factors", factors)
    return [_solution(system, lams[i], vecs[:, i], res[i], adjoint) for i in range(m)]


def solve_primal(system, settings=SolverSettings()):
    """First m eigenpairs of A x = lambda B x, ascending |lambda|.

    Returns exactly settings.m pairs, each certified to 10 * settings.tol.
    Strict: every Ritz pair up to and including the m-th smallest |lambda|
    must certify; a rejected pair in that range makes the Arnoldi basis
    grow, never a skip to a higher mode. Raises SolverError when the
    system has no free DOF, when B = 0 (empty spectrum), when the pencil
    has fewer than m finite eigenvalues, when a wanted pair misses
    certification with the whole spectrum in the basis, or when the
    basis reaches its cap of min(n, 10 m + 40) vectors first.
    """
    return _solve(system, settings, adjoint=False)


def solve_adjoint(system, settings=SolverSettings()):
    """First m eigenpairs of the transposed pencil (left eigenvectors),
    under the same contract as solve_primal."""
    return _solve(system, settings, adjoint=True)
