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
The reordering stays inside the factor: Arnoldi, its start vectors and
the eigenvectors keep the system's own numbering.

Arnoldi is one unrestarted band-2 (block) iteration on T' (Ruhe, Math.
Comp. 33, 1979; Saad, Numerical Methods for Large Eigenvalue Problems,
2011). It starts from two fixed orthonormal vectors, a cosine and a
seeded random one, because a Krylov space grown from one vector holds
one copy of an exact double eigenvalue, and the square, disk and cube
spectra all have them. Step k applies T' to basis vector k - 1 and
orthogonalizes the image, by classical Gram-Schmidt run twice, against
the k + 1 vectors so far; T' takes two basis vectors at a time as one
block, so each factor does one two-column solve. At most
min(n, 10 m + 40) vectors are applied. After k steps the Rayleigh
quotient is the leading k x k block H_k of the band Hessenberg matrix.
With the thermal half recovered exactly, the pencil residual of a pair
is |lambda| ||T' z - mu z|| / ||T' z||, so the Arnoldi residual of a
Ritz pair estimates the certified measure itself: |lambda|^2 ||E_k y||
for a unit Ritz vector y of H_k, where E_k is the two rows below H_k
(beta |y_k| at width 1). Every 2 steps the Ritz values are checked; once
the estimate of each of the first m pairs by |lambda| is below 0.3 x the
acceptance level, they are recovered by one multi-column solve with each
block and certified. A pair that misses certification makes the basis
grow; nothing restarts. A new direction that vanishes to rounding
deflates, and the band narrows to width 1. Once both have deflated the
basis spans an invariant subspace, which holds every finite eigenvalue
of multiplicity up to two, and H_k is T' on it: the solve accepts or
fails there. That also covers a basis that spans the space, and systems
too small for a Krylov method to save anything.

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
fast DOFs with fission). Once the basis is invariant it holds every
finite eigenvalue of multiplicity up to two, so a shortfall then fails
at once. Reaching the basis cap without m certified pairs fails too.
"""

from __future__ import annotations

import math
import numbers
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

# A new direction shorter than this fraction of ||T'|| is rounding: it
# deflates, and the basis grows from the other direction alone.
_BREAKDOWN = 1e-12

# Wanted eigenvalues all within this relative distance of the real axis
# are returned real: the one realness rule of the package.
_REAL = 1e-12


class SolverError(RuntimeError):
    """The solve cannot return exactly m certified eigenpairs: the Arnoldi
    basis reached its cap, a wanted pair fails certification in an
    invariant basis, or the pencil has fewer than m finite
    eigenvalues (none at all without fission or free DOF)."""


@dataclass(frozen=True)
class SolverSettings:
    """Eigensolver settings.

    m: number of eigenpairs to return (ascending |lambda|); an integer,
        not a bool.
    tol: tolerance; accepted pairs must certify a pencil residual below
        10x this value.
    """

    m: int = 5
    tol: float = 1e-10

    def __post_init__(self):
        if isinstance(self.m, bool) or not isinstance(self.m, numbers.Integral):
            raise ValueError(f"m must be an integer, got {self.m!r}")
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
        """T' z (T'* z in adjoint mode) for a real n x k block z, by one
        k-column solve with each block."""
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
    """Unrestarted band-2 Arnoldi on T' until the first m pairs by |lambda|
    certify; returns their eigenvalues, vectors [x1; x2] and residuals."""
    n = system.n
    cap = min(n, 10 * m + 40)  # operator columns at most
    basis = np.empty((cap + 2, n))  # orthonormal rows, touched as they fill
    hess = np.zeros((cap + 2, cap))
    # two fixed, generic start vectors: one for each copy of an exact double
    start = [np.cos(0.7 * np.arange(n) + 0.3),
             np.random.default_rng(1).standard_normal(n)]
    start = np.linalg.qr(np.transpose(start))[0].T  # one vector when n = 1
    size = len(start)  # basis vectors so far
    basis[:size] = start
    norm = 0.0  # largest ||T' v|| so far, a lower bound of ||T'||
    k = 0  # basis vectors applied so far
    while k < cap:
        # T' on the next two basis vectors as one block: one after a
        # direction has deflated, or for the last column at an odd cap
        width = min(size - k, 2, cap - k)
        for w in np.array(source.apply(basis[k:k + width].T).T):
            norm = max(norm, np.linalg.norm(w))
            hess[:size, k] = _orthogonalize(basis[:size], w)
            beta = np.linalg.norm(w)
            if beta > _BREAKDOWN * norm:  # else this direction deflates
                hess[size, k] = beta
                basis[size] = w / beta
                size += 1
            k += 1
        # With both directions deflated the basis spans an invariant
        # subspace, which holds every finite eigenvalue of multiplicity up
        # to two; so does a basis that spans the space.
        whole = size == k
        if not (whole or k == cap or (k > m and k % _CHECK_EVERY == 0)):
            continue
        mu, y = np.linalg.eig(hess[:k, :k])
        finite = np.flatnonzero(np.abs(mu) > _ZERO_MU * np.abs(mu).max())
        if len(finite) < m:
            if whole:
                raise SolverError(f"solver certified only {len(finite)} of {m} pairs")
            continue
        lams = 1.0 / mu[finite]
        order = finite[np.lexsort((lams.imag, np.abs(lams)))][:m]
        # ||T' z - mu z|| of each unit Ritz vector z, which is 0 when the
        # basis is invariant; the pencil residual is about |lambda|^2 times that
        err = np.linalg.norm(hess[k:k + 2, :k] @ y[:, order], axis=0)
        if k == cap or np.all(err <= _SAFETY * accept * np.abs(mu[order]) ** 2):
            lams, vecs = _ritz_pairs(mu, y, order)
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
    grow, never a skip to a higher mode. Arnoldi starts from two fixed
    vectors, so both copies of an exact double are in the basis from the
    first step, and it estimates each Ritz residual from the two band rows
    below the Rayleigh quotient: an eigenvalue of multiplicity up to two
    comes back with every copy. Raises SolverError when the system has no
    free DOF, when B = 0 (empty spectrum), when the pencil has fewer than
    m finite eigenvalues, when a wanted pair misses certification in an
    invariant basis, or when the basis reaches its cap of
    min(n, 10 m + 40) applied vectors first.
    """
    return _solve(system, settings, adjoint=False)


def solve_adjoint(system, settings=SolverSettings()):
    """First m eigenpairs of the transposed pencil (left eigenvectors),
    under the same contract as solve_primal."""
    return _solve(system, settings, adjoint=True)
