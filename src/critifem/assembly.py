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

Every scalar block shares one CSR pattern: the sorted (row, col) pairs of
the free DOFs of each cell, built once with np.unique. Each local entry
has a slot in it, and a matrix's data is one np.bincount of its local
entries over those slots; pairs touching a constrained DOF fall into a
discard slot, so the reduction to free DOFs is part of the pattern. Robin
facet entries reuse the slots of their owning cells. Matrices are scipy
CSR throughout, with sorted, duplicate-free indices. Only the five n x n
blocks are stored; the 2n x 2n A and B are built on request. In 3-D the
pattern and the DOF coordinates also give the geometric nested
dissection order in which the solver factors the diagonal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem_space import _dof_coordinates, build_reference, quadrature
from .materials import validate_for_solve
from .mesh import _jacobians

__all__ = ["BlockSystem", "assemble"]


@dataclass(frozen=True)
class BlockSystem:
    """Reduced pencil blocks plus boundary-condition bookkeeping.

    n is the free scalar DOF count after Dirichlet elimination and n_raw
    the unreduced count; free_dofs/constrained_dofs are index sets into
    the raw scalar numbering. The pencil is held only as its five n x n
    blocks (a11, a22, coupling, f1, f2); A and B are the 2n x 2n pencil in
    the fast-then-thermal block ordering, built from them on each access
    and never used by the solver. mass and stiffness are the plain scalar
    matrices (coefficient 1) restricted to the free DOFs, used for norms.

    A solve that has to factor the diagonal blocks leaves its factors on
    the system, and the next solve on the same system (the other half of
    a primal/adjoint pair) takes them off again instead of factoring, so a
    pair factors once and a system holds at most one factorization. The
    factors left by a single solve live as long as the system: hold a
    solved system only as long as it is needed. dataclasses.replace gives
    a system without factors.

    ordering is the order in which the solver factors both diagonal
    blocks (they share one pattern), as the free-DOF index of each
    position: a geometric nested dissection of the free DOFs in 3-D,
    None in 2-D, where the factorization chooses a minimum degree order.
    """

    n: int
    n_raw: int
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    a11: sp.csr_matrix
    a22: sp.csr_matrix
    coupling: sp.csr_matrix  # M(s12); A21 = -coupling
    f1: sp.csr_matrix
    f2: sp.csr_matrix
    free_dofs: np.ndarray
    constrained_dofs: np.ndarray
    ordering: np.ndarray | None = None
    # (lu11, lu22) left by the last solve for the next one; see above
    _factors: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def A(self):
        """[[a11, 0], [-coupling, a22]] as a new 2n x 2n CSR matrix."""
        return sp.bmat([[self.a11, None], [-self.coupling, self.a22]], format="csr")

    @property
    def B(self):
        """[[f1, f2], [0, 0]] as a new 2n x 2n CSR matrix."""
        zero = sp.csr_matrix((self.n, self.n))
        return sp.bmat([[self.f1, self.f2], [zero, zero]], format="csr")

    def extend(self, reduced):
        """Zero-fill a free-DOF vector back to the raw scalar numbering."""
        full = np.zeros(self.n_raw, dtype=np.result_type(reduced, np.float64))
        full[self.free_dofs] = reduced
        return full

    def restrict(self, full):
        return np.asarray(full)[self.free_dofs]


def _gradient_metric(mesh):
    """|det J| and the gradient metric G = J^-1 J^-T |det J| of every cell.

    J^-1 is the adjugate over det J: in 2D the swapped and negated
    entries, in 3D the cross products of the rows of J as columns.
    """
    J, det = _jacobians(mesh.vertices, mesh.cells)
    if mesh.dim == 2:
        adj = np.stack(
            [J[:, 1, 1], -J[:, 0, 1], -J[:, 1, 0], J[:, 0, 0]], axis=-1
        ).reshape(-1, 2, 2)
    else:
        r0, r1, r2 = J[:, 0], J[:, 1], J[:, 2]
        adj = np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)], axis=-1)
    det = np.abs(det)
    return det, adj @ adj.transpose(0, 2, 1) / det[:, None, None]


def _element_tables(dim, k):
    """Reference mass (nb, nb) and stiffness tensor (dim, dim, nb, nb).

    S[d, f, i, j] = sum_q w_q d_d phi_i d_f phi_j, so a cell with gradient
    metric G has local stiffness sum_{d,f} G[d, f] S[d, f]; both scale
    with the cell by |det J|, the stiffness through G. At dim - 1 the
    mass table is that of the boundary facets, scaled by the facet
    measure.
    """
    ref = build_reference(dim, k)
    quad = quadrature(dim, 2 * k)
    vals, grads = ref.tabulate(quad.points_ref)
    w = quad.weights
    mass_ref = np.einsum("q,iq,jq->ij", w, vals, vals)
    stiff_ref = np.einsum("q,iqd,jqf->dfij", w, grads, grads)
    return mass_ref, stiff_ref


def _pair_keys(dofs, index, nf):
    """Key row * nf + col of every (simplex, i, j) node pair, flattened.

    index maps a raw DOF to its free number, or -1 when it is constrained;
    a pair touching a constrained DOF gets the key nf * nf, past every
    free pair, so it lands in a discard slot.
    """
    r = index[dofs]
    keys = r[:, :, None] * nf + r[:, None, :]
    keys[(r[:, :, None] < 0) | (r[:, None, :] < 0)] = nf * nf
    return keys.reshape(-1)


# Parts of at most this many nodes are leaves of the dissection.
_LEAF = 48


def _nested_dissection(coords, indptr, indices):
    """Geometric nested dissection order of a symmetric CSR pattern.

    Recursive coordinate bisection (George, SIAM J. Numer. Anal. 10, 1973;
    Gilbert, Miller & Teng, SIAM J. Sci. Comput. 19, 1998): a part of more
    than _LEAF nodes splits at the median of its longest axis, and its
    separator is the right-half nodes with a neighbour in the left half.
    No edge joins the left half to the rest of the right half, so
    eliminating in post-order (left part, right part, separator) creates
    no fill between the two halves. The recursion runs level by level on
    arrays: each level records one digit per node, 0 left, 1 right, 2
    separator (also for every node placed at an earlier level), and one
    lexicographic sort of the digits gives the order, ties by index.
    Returns p, the old index of each new position.
    """
    n, dim = coords.shape
    rows = np.repeat(np.arange(n), np.diff(indptr))
    off = rows != indices
    src, dst = rows[off], indices[off]  # both directions of every edge
    nodes = np.arange(n)  # the nodes of parts that may still split
    part = np.zeros(n, dtype=np.int64)  # the part of each of them
    digits = []
    while True:
        sizes = np.bincount(part[nodes])
        split = sizes > _LEAF
        nodes = nodes[split[part[nodes]]]
        if len(nodes) == 0:
            break
        p = (np.cumsum(split) - 1)[part[nodes]]  # parts that split, renumbered
        parts = int(split.sum())
        x = coords[nodes]
        lo = np.full((parts, dim), np.inf)
        hi = np.full((parts, dim), -np.inf)
        np.minimum.at(lo, p, x)
        np.maximum.at(hi, p, x)
        axis = np.argmax(hi - lo, axis=1)
        x = x[np.arange(len(nodes)), axis[p]]
        size = sizes[split]
        median = x[np.lexsort((x, p))[np.cumsum(size) - size + size // 2]]
        # split below the median; when it is the minimum, at and below it
        at_min = median == lo[np.arange(parts), axis]
        right = (x > median[p]) | ((x == median[p]) & ~at_min[p])
        child = np.full(n, -1, dtype=np.int64)
        child[nodes] = 2 * p + right
        # a right-half node with a neighbour in the left half of its part
        cut = (child[src] % 2 == 1) & (child[dst] == child[src] - 1)
        separator = np.zeros(n, dtype=bool)
        separator[src[cut]] = True
        digit = np.full(n, 2, dtype=np.int8)
        digit[nodes] = right
        digit[separator] = 2
        digits.append(digit)
        nodes = nodes[~separator[nodes]]
        part[nodes] = child[nodes]
        keep = (child[src] >= 0) & (child[src] == child[dst])
        keep &= ~separator[src] & ~separator[dst]
        src, dst = src[keep], dst[keep]
    return np.lexsort(digits[::-1]) if digits else np.arange(n)


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

    def per_region(value, tags):
        """value(deck entry) of each tag's region; the tags are 1..R."""
        return np.array([value(deck[t]) for t in regions])[tags - 1]

    def coef_per_cell(attr):
        return per_region(lambda entry: getattr(entry[0], attr), mesh.region_tags)

    # boundary handling: each facet takes the BC of its owning cell's region
    facet_region = mesh.region_tags[mesh.boundary_cells]
    robin = per_region(lambda entry: entry[1].kind == "robin", facet_region)
    for t in mesh.boundary_ids():
        on_tag = robin[mesh.boundary_tags == t]
        if on_tag.any() and not on_tag.all():
            raise ValueError(f"boundary tag {t} mixes BC kinds (dirichlet and robin)")

    n = dofmap.n
    constrained = np.unique(dofmap.facet_dofs[~robin])
    free = np.setdiff1d(np.arange(n, dtype=np.int64), constrained)
    nf = len(free)
    index = np.full(n, -1, dtype=np.int64)
    index[free] = np.arange(nf)

    # one CSR pattern of the free cell-pair couplings, shared by every
    # matrix; slot nnz collects the pairs that touch a constrained DOF
    keys, cell_slot = np.unique(
        _pair_keys(dofmap.cell_dofs, index, nf), return_inverse=True
    )
    nnz = int(np.searchsorted(keys, nf * nf))
    indices = keys[:nnz] % nf
    indptr = np.searchsorted(keys[:nnz], np.arange(nf + 1) * nf)

    def fill(slot, local):
        return np.bincount(slot, weights=local.ravel(), minlength=nnz)[:nnz]

    def csr(data):
        return sp.csr_matrix((data, indices, indptr), shape=(nf, nf))

    mass_ref, stiff_ref = _element_tables(mesh.dim, k)
    det, G = _gradient_metric(mesh)
    dd = mesh.dim * mesh.dim
    stiff_local = G.reshape(-1, dd) @ stiff_ref.reshape(dd, -1)
    mass_local = det[:, None] * mass_ref.ravel()

    def mass_with(coef):
        return coef[:, None] * mass_local

    def stiff_with(coef):
        return coef[:, None] * stiff_local

    s12 = coef_per_cell("sigma_12")
    a11 = fill(cell_slot, stiff_with(coef_per_cell("D1"))
               + mass_with(coef_per_cell("sigma_a1") + s12))
    a22 = fill(cell_slot, stiff_with(coef_per_cell("D2"))
               + mass_with(coef_per_cell("sigma_a2")))

    if np.any(robin):
        # a facet's node pairs are pairs of its owning cell, so in the pattern
        facet_slot = np.searchsorted(
            keys, _pair_keys(dofmap.facet_dofs[robin], index, nf)
        )
        facet_mass_ref, _ = _element_tables(mesh.dim - 1, k)
        local = _facet_measure(mesh)[robin, None] * facet_mass_ref.ravel()

        def robin_term(attr):
            alpha = per_region(lambda entry: getattr(entry[1], attr), facet_region[robin])
            return fill(facet_slot, alpha[:, None] * local)

        a11 += robin_term("alpha1")
        a22 += robin_term("alpha2")

    a11, a22 = csr(a11), csr(a22)
    coupling = csr(fill(cell_slot, mass_with(s12)))
    f1 = csr(fill(cell_slot, mass_with(coef_per_cell("nu_sigma_f1"))))
    f2 = csr(fill(cell_slot, mass_with(coef_per_cell("nu_sigma_f2"))))

    ordering = None
    if mesh.dim == 3:
        coords = _dof_coordinates(mesh, dofmap)[free]
        ordering = _nested_dissection(coords, indptr, indices)
    return BlockSystem(
        n=nf,
        n_raw=n,
        mass=csr(fill(cell_slot, mass_local)),
        stiffness=csr(fill(cell_slot, stiff_local)),
        a11=a11,
        a22=a22,
        coupling=coupling,
        f1=f1,
        f2=f2,
        free_dofs=free,
        constrained_dofs=constrained,
        ordering=ordering,
    )

