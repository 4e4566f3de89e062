"""Lagrange reference bases, simplex quadrature and global DOF maps.

Continuous scalar Lagrange spaces of degree k in {1,2,3} on triangles and
tetrahedra. One code path serves segments, triangles and tetrahedra
alike, so the element of the boundary facets is the same construction
one dimension lower. The node lattice is one loop over the entities of
the simplex. The basis is Silvester's closed form (Int. J. Eng. Sci. 7,
1969): the function of the node with integer barycentric coordinates a
is prod_i P_{a_i}(lambda_i), P_m(t) = prod_{j<m} (k t - j) / (j + 1),
which is 1 at that node and 0 at every other, and its gradient follows
by the product rule; no Vandermonde matrix is formed or inverted.

Quadrature uses conical-product Gauss-Jacobi rules whose 1-D factors
come from the Golub-Welsch eigenproblem: all weights are positive at
every degree (unlike tabulated tetrahedron rules, which go negative
beyond degree 2) and the one-point rule degenerates to the centroid rule.
A rule is two arrays, its points in the reference coordinates that
tabulate takes (not barycentric ones) and its weights.

Global DOF identity: the DOF of a vertex node is its vertex id (every
mesh vertex belongs to a cell). Any other Lagrange node is identified by
the entity carrying it, written as one integer row [number of vertices,
their global ids in ascending order, their lattice weights], padded with
-1 to a fixed width. Two cells sharing an entity derive identical rows
for its nodes, so no edge or face orientation bookkeeping is needed. One
lexicographic sort over the rows of the non-vertex nodes of every cell
and every boundary facet (mesh._group_rows) numbers them after the
vertices: edge DOFs first, then face/interior DOFs, deterministically.
At degree 1 there is nothing to sort.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .mesh import _group_rows

__all__ = [
    "DofMap",
    "tabulate",
    "quadrature",
    "build_dofmap",
]


def _lattice_nodes(dim, degree):
    """Principal lattice in entity order: vertices, edges, faces, interior.

    Returns the integer barycentric coordinates (dim+1 entries summing to
    degree) of each node. The entities of s vertices follow in
    itertools.combinations order, s = 1..dim+1, and the nodes inside one
    entity are the compositions of degree into s positive parts, in
    descending order.
    """
    nv = dim + 1
    nodes = []
    for s in range(1, nv + 1):
        parts = sorted(
            (c for c in itertools.product(range(1, degree + 1), repeat=s) if sum(c) == degree),
            reverse=True,
        )
        for entity in itertools.combinations(range(nv), s):
            for c in parts:
                lat = [0] * nv
                for v, w in zip(entity, c):
                    lat[v] = w
                nodes.append(lat)
    return np.array(nodes, dtype=np.int64)


def tabulate(dim, k, points):
    """Values and gradients of the degree-k Lagrange basis at reference
    points, dim in {1,2,3}, k in {1,2,3}.

    Returns (vals, grads) with shapes (nodes, npts) and (nodes, npts,
    dim), the nodes in _lattice_nodes order. Segments serve as the facet
    element of triangles, triangles as that of tetrahedra.
    """
    if dim not in (1, 2, 3) or k not in (1, 2, 3):
        raise ValueError(f"unsupported reference element (dim={dim}, k={k})")
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    # lambda_0 = 1 - x_{dim-1} - ... - x_0, subtracted in that order
    lam = np.column_stack([functools.reduce(np.subtract, x.T[::-1], 1.0), x])
    # P[m] = prod_{j<m} (k lam - j) / (j + 1) and its derivative dP[m]
    P = np.ones((k + 1,) + lam.shape)
    dP = np.zeros_like(P)
    for j in range(k):
        f = (k * lam - j) / (j + 1)
        dP[j + 1] = dP[j] * f + P[j] * (k / (j + 1))
        P[j + 1] = P[j] * f
    # factor i of node a is P[a_i](lambda_i): (nodes, dim + 1, npts)
    lattice, axes = _lattice_nodes(dim, k), np.arange(dim + 1)
    F, dF = P[lattice, :, axes], dP[lattice, :, axes]
    # d phi / d lambda_i, the product with factor i differentiated
    dlam = np.stack([np.where(axes[:, None] == i, dF, F).prod(axis=1) for i in axes], -1)
    # lambda_{d+1} = x_d and lambda_0 = 1 - sum(x)
    return F.prod(axis=1), dlam[..., 1:] - dlam[..., :1]


def _gauss_jacobi01(n, alpha):
    """n-point Gauss rule on [0, 1] for the weight (1 - x)^alpha.

    Golub & Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues
    of the symmetric tridiagonal Jacobi matrix of the Jacobi polynomials
    P_j^(alpha, 0), mapped from [-1, 1] to [0, 1], and the weights are
    mu0 v0^2, with v0 the first entry of each unit eigenvector and
    mu0 = 1 / (alpha + 1) the integral of the weight. alpha = 0 is
    Gauss-Legendre.
    """
    a = float(alpha)
    j = np.arange(1.0, n)
    s = 2.0 * j + a
    # diagonal -a^2 / (s (s + 2)) with s = 2j + a; at j = 0 that is 0/0
    # for a = 0, and it reduces to -a / (a + 2) for every a
    diag = np.concatenate([[-a / (a + 2.0)], -a * a / (s * (s + 2.0))])
    off = np.sqrt(4.0 * j * j * (j + a) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return (nodes + 1.0) / 2.0, vecs[0] ** 2 / (a + 1.0)


def quadrature(dim, exactness_degree):
    """Simplex rule exact to the requested total degree, dim in {1,2,3}.

    Returns (points, weights): points (npts, dim) in the reference
    coordinates that tabulate takes, weights (npts,) positive and summing
    to the reference volume (1 for the segment, 1/2 for the triangle, 1/6
    for the tetrahedron). A conical product of n-point Gauss-Jacobi
    rules, 2n - 1 >= the degree: reference coordinate j is t_j (1 - t_i)
    over every later coordinate i, and its factor rule carries the weight
    (1 - t)^j, the Jacobian of that collapse. Degrees above 6 are not
    part of the supported contract (degree 6 covers the k=3 mass terms).
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"unsupported quadrature dimension {dim}")
    if not 0 <= exactness_degree <= 6:
        raise ValueError(f"unsupported quadrature degree {exactness_degree}")
    n = max(1, (int(exactness_degree) + 2) // 2)
    rules = [_gauss_jacobi01(n, float(j)) for j in range(dim)]
    t = np.meshgrid(*(x for x, _ in rules), indexing="ij")
    coords = []
    for j in range(dim):
        c = t[j]
        for i in range(j + 1, dim):
            c = c * (1.0 - t[i])
        coords.append(c.ravel())
    weights = functools.reduce(np.multiply.outer, [w for _, w in rules]).ravel()
    return np.column_stack(coords), weights


@dataclass(frozen=True)
class DofMap:
    """Global numbering of the scalar degree-k Lagrange space on a mesh.

    cell_dofs[c, i] is the global index of local node i of cell c; n is
    the total scalar DOF count. facet_dofs[f, i] is the global index of
    node i of the degree-k facet element on mesh.boundary_facets[f], in
    that facet's vertex order; the boundary DOFs are np.unique of it.
    The DOF of a vertex node is its vertex id, so vertex DOFs occupy
    indices 0..num_vertices-1 in vertex order; this holds because a
    Mesh has no vertex outside its cells. The other DOFs follow, edge
    DOFs before face/interior DOFs.
    """

    dim: int
    degree: int
    n: int
    cell_dofs: np.ndarray
    facet_dofs: np.ndarray


def _node_rows(simplices, lattice, width):
    """Identity rows of every (simplex, lattice node) pair, simplex-major.

    Each row is [count, vertex ids ascending, their weights], with the
    vertex and weight parts padded by -1 to `width` entries. Each (vertex
    id, weight) pair is packed into one key, id * radix + weight, so one
    sort orders both parts; the absent vertices sort last as int64 max.
    """
    radix = int(lattice.max(initial=0)) + 1
    pad = np.iinfo(np.int64).max
    key = np.where(lattice > 0, simplices[:, None, :] * radix + lattice, pad)
    key.sort(axis=-1)
    ids, weights = np.divmod(key, radix)
    absent = key == pad
    ids[absent] = -1
    weights[absent] = -1
    fill = np.full(ids.shape[:2] + (width - ids.shape[2],), -1, dtype=np.int64)
    count = np.broadcast_to((lattice > 0).sum(axis=1)[:, None], ids.shape[:2] + (1,))
    rows = np.concatenate([count, ids, fill, weights, fill], axis=-1)
    return rows.reshape(-1, 1 + 2 * width)


def build_dofmap(mesh, k):
    """Build the global DOF map for degree k on a conforming mesh."""
    if k not in (1, 2, 3):
        raise ValueError(f"unsupported degree k={k}")
    lattice = _lattice_nodes(mesh.dim, k)
    facet_lattice = _lattice_nodes(mesh.dim - 1, k)
    nv, width = mesh.num_vertices, mesh.dim + 1
    # both lattices list the vertex nodes first, node i on vertex i, and a
    # vertex node's DOF is its vertex id; only the other nodes are grouped
    cell_rows = _node_rows(mesh.cells, lattice[width:], width)
    facet_rows = _node_rows(mesh.boundary_facets, facet_lattice[mesh.dim :], width)
    index, _, counts = _group_rows(np.concatenate([cell_rows, facet_rows]))
    index += nv
    split = len(cell_rows)
    cell_dofs = np.hstack([mesh.cells, index[:split].reshape(mesh.num_cells, -1)])
    facets = mesh.boundary_facets
    facet_dofs = np.hstack([facets, index[split:].reshape(len(facets), -1)])
    cell_dofs.flags.writeable = False
    facet_dofs.flags.writeable = False
    return DofMap(mesh.dim, k, nv + len(counts), cell_dofs, facet_dofs)


def _dof_coordinates(mesh, dofmap):
    """(n, dim) coordinates of every DOF: a vertex DOF at its vertex, any
    other at the lattice-weighted mean of its cell's vertices."""
    k, width = dofmap.degree, mesh.dim + 1
    coords = np.empty((dofmap.n, mesh.dim))
    coords[: mesh.num_vertices] = mesh.vertices
    if k > 1:
        lattice = _lattice_nodes(mesh.dim, k)[width:]
        coords[dofmap.cell_dofs[:, width:]] = lattice @ mesh.vertices[mesh.cells] / k
    return coords
