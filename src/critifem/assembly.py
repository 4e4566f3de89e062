"""Sparse assembly of the two-group diffusion pencil (A, B).

The scalar space is the degree-k Lagrange space on the mesh; the vector
space is its square with the fast flux in block [0, n) and the thermal
flux in block [n, 2n). With per-region constants the pencil realizes

    A = [[ K(D1) + M(sa1 + s12) + R1,            0              ],
         [        -M(s12),            K(D2) + M(sa2) + R2       ]]

    B = [[ M(nu_sigma_f1),  M(nu_sigma_f2) ],
         [       0,               0        ]]

where K and M are stiffness and mass matrices with piecewise-constant
region coefficients, and R_g is the Robin boundary mass term. The fission
source is tested against the fast test function.

Dirichlet conditions are eliminated symmetrically (rows and columns
dropped), which keeps both diagonal blocks symmetric positive definite.

Matrices are scipy CSR throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem_space import _build_reference_any, _simplex_rule, build_reference
from .materials import validate_for_solve

__all__ = ["BlockSystem", "assemble", "apply", "dump_matrix_market"]


@dataclass(frozen=True)
class BlockSystem:
    """Reduced pencil plus boundary-condition bookkeeping.

    n is the free scalar DOF count after Dirichlet elimination and n_raw
    the unreduced count; free_dofs/constrained_dofs are index sets into
    the raw scalar numbering. A and B are 2n x 2n in the fast-then-thermal
    block ordering. mass and stiffness are the plain scalar matrices
    (coefficient 1) restricted to the free DOFs, used for norms; the
    individual pencil blocks are kept for the triangular solves.
    """

    n: int
    n_raw: int
    A: sp.csr_matrix
    B: sp.csr_matrix
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    a11: sp.csr_matrix
    a22: sp.csr_matrix
    coupling: sp.csr_matrix  # M(s12); A21 = -coupling
    f1: sp.csr_matrix
    f2: sp.csr_matrix
    free_dofs: np.ndarray
    constrained_dofs: np.ndarray

    def extend(self, reduced):
        """Zero-fill a free-DOF vector back to the raw scalar numbering."""
        full = np.zeros(self.n_raw, dtype=np.result_type(reduced, np.float64))
        full[self.free_dofs] = reduced
        return full

    def restrict(self, full):
        return np.asarray(full)[self.free_dofs]


def apply(matrix, x):
    """Matrix-vector product with an explicit dimension check."""
    x = np.asarray(x)
    if matrix.shape[1] != x.shape[0]:
        raise ValueError(
            f"dimension mismatch: matrix is {matrix.shape}, vector has {x.shape[0]}"
        )
    return matrix @ x


def _cell_geometry(mesh):
    """Jacobians of the affine maps: |det| and inverse-transpose, per cell."""
    dim = mesh.dim
    v0 = mesh.vertices[mesh.cells[:, 0]]
    J = np.stack(
        [mesh.vertices[mesh.cells[:, j + 1]] - v0 for j in range(dim)], axis=-1
    )
    det = np.linalg.det(J)
    invJ = np.linalg.inv(J)
    return np.abs(det), invJ


def _element_tables(mesh, k):
    ref = build_reference(mesh.dim, k)
    quad = _simplex_rule(mesh.dim, 2 * k)
    vals, grads = ref.tabulate(quad.points_ref)
    w = quad.weights
    # reference mass: scales by |det J| per cell
    mass_ref = np.einsum("q,iq,jq->ij", w, vals, vals)
    return ref, quad, vals, grads, w, mass_ref


def _scatter(cell_dofs, local, n):
    """Accumulate per-cell local matrices into a CSR of size n x n."""
    nb = cell_dofs.shape[1]
    rows = np.repeat(cell_dofs, nb, axis=1).ravel()
    cols = np.tile(cell_dofs, (1, nb)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def _facet_measure(mesh):
    """Reference-scaled measure of every boundary facet.

    The facet rule's weights sum to 1 on a segment and 1/2 on a
    triangle, so this is the length in 2D and twice the area in 3D.
    """
    pts = mesh.vertices[mesh.boundary_facets]
    if mesh.dim == 2:
        return np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    return np.linalg.norm(np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]), axis=1)


def assemble(mesh, dofmap, deck, k):
    """Assemble the reduced block pencil for a deck on a mesh.

    deck maps every region tag to a (GroupConstants, BoundaryCondition)
    pair; a boundary facet takes the BC of the region of its adjacent
    cell. Facets sharing a boundary tag must agree on the BC kind.
    """
    if dofmap.degree != k or dofmap.dim != mesh.dim:
        raise ValueError("dofmap does not match mesh/degree")

    regions = [int(t) for t in np.unique(mesh.region_tags)]
    for t in regions:
        if t not in deck:
            raise ValueError(f"deck is missing region {t} present in the mesh")
        validate_for_solve(deck[t][0], region=t)

    ref, quad, vals, grads, w, mass_ref = _element_tables(mesh, k)
    det, invJ = _cell_geometry(mesh)
    n = dofmap.n
    cd = dofmap.cell_dofs

    # physical gradient metric per cell: G = invJ invJ^T |detJ|
    G = np.einsum("cde,cfe,c->cdf", invJ, invJ, det)
    stiff_local = np.einsum("q,iqd,cdf,jqf->cij", w, grads, G, grads)

    def per_region(value, tags):
        """value(deck entry) of each tag's region; the tags are 1..R."""
        return np.array([value(deck[t]) for t in regions])[tags - 1]

    def coef_per_cell(attr):
        return per_region(lambda entry: getattr(entry[0], attr), mesh.region_tags)

    def mass_with(coef):
        return _scatter(cd, np.einsum("c,ij->cij", coef * det, mass_ref), n)

    def stiff_with(coef):
        return _scatter(cd, coef[:, None, None] * stiff_local, n)

    mass = _scatter(cd, np.einsum("c,ij->cij", det, mass_ref), n)
    stiffness = _scatter(cd, stiff_local, n)

    sa1 = coef_per_cell("sigma_a1")
    sa2 = coef_per_cell("sigma_a2")
    s12 = coef_per_cell("sigma_12")

    a11 = stiff_with(coef_per_cell("D1")) + mass_with(sa1 + s12)
    a22 = stiff_with(coef_per_cell("D2")) + mass_with(sa2)
    coupling = mass_with(s12)
    f1 = mass_with(coef_per_cell("nu_sigma_f1"))
    f2 = mass_with(coef_per_cell("nu_sigma_f2"))

    # boundary handling: each facet takes the BC of its owning cell's region
    facet_region = mesh.region_tags[mesh.boundary_cells]
    robin = per_region(lambda entry: entry[1].kind == "robin", facet_region)
    for t in mesh.boundary_ids():
        on_tag = robin[mesh.boundary_tags == t]
        if on_tag.any() and not on_tag.all():
            raise ValueError(f"boundary tag {t} mixes BC kinds (dirichlet and robin)")

    if np.any(robin):
        facet_ref = _build_reference_any(mesh.dim - 1, k)
        facet_quad = _simplex_rule(mesh.dim - 1, 2 * k)
        fvals, _ = facet_ref.tabulate(facet_quad.points_ref)
        facet_mass_ref = np.einsum("q,iq,jq->ij", facet_quad.weights, fvals, fvals)
        local = facet_mass_ref * _facet_measure(mesh)[robin, None, None]
        fdofs = dofmap.facet_dofs[robin]

        def robin_term(attr):
            alpha = per_region(lambda entry: getattr(entry[1], attr), facet_region[robin])
            return _scatter(fdofs, alpha[:, None, None] * local, n)

        a11 = a11 + robin_term("alpha1")
        a22 = a22 + robin_term("alpha2")

    constrained = np.unique(dofmap.facet_dofs[~robin])
    free = np.setdiff1d(np.arange(n, dtype=np.int64), constrained)
    nf = len(free)

    def reduce(mat):
        return mat[free][:, free].tocsr()

    a11r, a22r = reduce(a11), reduce(a22)
    couplingr = reduce(coupling)
    f1r, f2r = reduce(f1), reduce(f2)
    zero = sp.csr_matrix((nf, nf))

    A = sp.bmat([[a11r, None], [-couplingr, a22r]], format="csr")
    B = sp.bmat([[f1r, f2r], [zero, zero]], format="csr")

    return BlockSystem(
        n=nf,
        n_raw=n,
        A=A,
        B=B,
        mass=reduce(mass),
        stiffness=reduce(stiffness),
        a11=a11r,
        a22=a22r,
        coupling=couplingr,
        f1=f1r,
        f2=f2r,
        free_dofs=free,
        constrained_dofs=constrained,
    )


def dump_matrix_market(system, directory):
    """Write A, B and the scalar mass to MatrixMarket files for cross-checks."""
    import os

    from scipy.io import mmwrite

    os.makedirs(directory, exist_ok=True)
    for name, mat in (("A", system.A), ("B", system.B), ("mass", system.mass)):
        mmwrite(os.path.join(directory, f"{name}.mtx"), mat)
