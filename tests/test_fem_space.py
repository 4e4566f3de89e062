"""Reference elements, quadrature exactness, and DOF map counting."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critifem.app import packaged_mesh_path
from critifem.fem_space import (
    _gauss_jacobi01,
    _lattice_nodes,
    _node_rows,
    build_dofmap,
    quadrature,
    tabulate,
)
from critifem.mesh import (
    generate_disk,
    generate_lshape,
    generate_unit_cube,
    generate_unit_square,
    read_gmsh,
)


def simplex_monomial_integral(powers):
    """Exact integral of x^a y^b (z^c) over the unit reference simplex:
    prod(a_i!) / (sum(a_i) + dim)!."""
    dim = len(powers)
    num = 1
    for p in powers:
        num *= math.factorial(p)
    return num / math.factorial(sum(powers) + dim)


# ---------------------------------------------------------------------------
# reference elements

@pytest.mark.parametrize("dim,k,count", [
    (1, 1, 2), (1, 2, 3), (1, 3, 4),
    (2, 1, 3), (2, 2, 6), (2, 3, 10),
    (3, 1, 4), (3, 2, 10), (3, 3, 20),
])
def test_node_counts(dim, k, count):
    assert len(_lattice_nodes(dim, k)) == count


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_lagrange_delta_property(dim, k):
    lattice = _lattice_nodes(dim, k)
    vals, _ = tabulate(dim, k, lattice[:, 1:] / k)
    assert np.max(np.abs(vals - np.eye(len(lattice)))) < 1e-13


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_partition_of_unity(dim, k):
    points, _ = quadrature(dim, 2 * k)
    vals, _ = tabulate(dim, k, points)
    assert np.max(np.abs(vals.sum(axis=0) - 1.0)) < 1e-13


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_gradients_match_finite_differences(dim, k):
    rng = np.random.default_rng(5)
    pts = rng.dirichlet(np.ones(dim + 1), size=7)[:, 1:]  # interior points
    _, grads = tabulate(dim, k, pts)
    eps = 1e-6
    for d in range(dim):
        shift = np.zeros(dim)
        shift[d] = eps
        vp, _ = tabulate(dim, k, pts + shift)
        vm, _ = tabulate(dim, k, pts - shift)
        fd = (vp - vm) / (2 * eps)
        scale = max(1.0, float(np.max(np.abs(grads[:, :, d]))))
        assert np.max(np.abs(fd - grads[:, :, d])) / scale < 1e-6


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=10))
@settings(max_examples=24, deadline=None)
def test_interpolation_reproduces_polynomials(k, seed):
    # random polynomial of total degree <= k, interpolated at the nodes,
    # must evaluate exactly everywhere
    dim = 2
    powers = np.array([p for p in itertools.product(range(k + 1), repeat=dim)
                       if sum(p) <= k])
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(len(powers))

    def poly(pts):
        return np.prod(pts[:, None, :] ** powers, axis=-1) @ coeff

    nodal = poly(_lattice_nodes(dim, k)[:, 1:] / k)
    pts = rng.dirichlet(np.ones(dim + 1), size=11)[:, 1:]
    vals, _ = tabulate(dim, k, pts)
    interp = nodal @ vals
    assert np.max(np.abs(interp - poly(pts))) < 1e-12


def test_unsupported_reference_rejected():
    for dim, k in ((0, 1), (4, 1), (2, 0), (2, 4), (3, 5)):
        with pytest.raises(ValueError):
            tabulate(dim, k, np.zeros((1, max(dim, 1))))


# ---------------------------------------------------------------------------
# quadrature

@pytest.mark.parametrize("dim,volume", [(1, 1.0), (2, 0.5), (3, 1.0 / 6.0)])
def test_weights_positive_and_sum_to_volume(dim, volume):
    for deg in range(7):
        _, weights = quadrature(dim, deg)
        assert np.all(weights > 0)
        assert abs(weights.sum() - volume) < 1e-14


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("deg", range(7))
def test_monomial_exactness(dim, deg):
    pts, weights = quadrature(dim, deg)
    for powers in np.ndindex(*(deg + 1,) * dim):
        if sum(powers) > deg:
            continue
        vals = np.ones(pts.shape[0])
        for d, p in enumerate(powers):
            if p:
                vals = vals * pts[:, d] ** p
        exact = simplex_monomial_integral(powers)
        assert abs(float(weights @ vals) - exact) < 1e-13


def test_centroid_rule():
    points, weights = quadrature(2, 1)
    assert abs(float(weights @ points[:, 0]) - 1.0 / 6.0) < 1e-15


def test_points_lie_in_reference_simplex():
    for dim, deg in itertools.product((1, 2, 3), range(7)):
        points, weights = quadrature(dim, deg)
        assert points.shape == (len(weights), dim)
        assert np.all(points >= 0.0)
        assert np.all(points.sum(axis=1) <= 1.0)


@pytest.mark.parametrize("alpha", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])  # quadrature() uses n <= 4
def test_gauss_jacobi_matches_scipy(alpha, n):
    from scipy.special import roots_jacobi, roots_legendre

    t, w = roots_legendre(n) if alpha == 0 else roots_jacobi(n, alpha, 0.0)
    x, v = _gauss_jacobi01(n, float(alpha))
    assert np.max(np.abs(x - (t + 1.0) / 2.0)) <= 1e-14
    ref = w / 2.0 ** (alpha + 1)
    assert np.max(np.abs(v - ref) / ref) <= 1e-14


def test_unsupported_quadrature_rejected():
    with pytest.raises(ValueError):
        quadrature(2, 7)
    with pytest.raises(ValueError):
        quadrature(0, 2)
    with pytest.raises(ValueError):
        quadrature(4, 2)
    with pytest.raises(ValueError):
        quadrature(2, -1)


# ---------------------------------------------------------------------------
# DOF maps

def entity_counts(mesh):
    """(V, E, F) with F the number of triangles (2D cells or tet faces)."""
    nloc = mesh.cells.shape[1]
    edges = set()
    for cell in mesh.cells:
        for a in range(nloc):
            for b in range(a + 1, nloc):
                edges.add(tuple(sorted((int(cell[a]), int(cell[b])))))
    if mesh.dim == 2:
        return mesh.num_vertices, len(edges), mesh.num_cells
    faces = set()
    for cell in mesh.cells:
        for drop in range(4):
            faces.add(tuple(sorted(int(v) for j, v in enumerate(cell) if j != drop)))
    return mesh.num_vertices, len(edges), len(faces)


def expected_dofs(mesh, k):
    V, E, F = entity_counts(mesh)
    n = V + (k - 1) * E + ((k - 1) * (k - 2) // 2) * F
    # k <= 3 puts nothing strictly inside a tetrahedron
    return n


@pytest.mark.parametrize("make", [
    lambda: generate_unit_square(5),
    lambda: generate_lshape(4),
    lambda: generate_disk(3),
    lambda: generate_unit_cube(2),
])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dof_count_formula(make, k):
    mesh = make()
    dofmap = build_dofmap(mesh, k)
    assert dofmap.n == expected_dofs(mesh, k)


def test_unsupported_dofmap_degree_rejected():
    mesh = generate_unit_square(2)
    for k in (0, 4):
        with pytest.raises(ValueError):
            build_dofmap(mesh, k)


def test_dof_counts_square8():
    mesh = generate_unit_square(8)
    assert build_dofmap(mesh, 1).n == 81
    assert build_dofmap(mesh, 2).n == 289
    assert build_dofmap(generate_unit_cube(2), 1).n == 27


def test_vertex_dofs_come_first_in_vertex_order():
    mesh = generate_unit_square(4)
    for k in (1, 2, 3):
        dofmap = build_dofmap(mesh, k)
        nv = mesh.dim + 1
        assert np.array_equal(dofmap.cell_dofs[:, :nv], mesh.cells)


def test_boundary_dof_sets():
    mesh = generate_unit_square(4)
    # one boundary tag: every boundary node, counted once
    assert len(np.unique(build_dofmap(mesh, 1).facet_dofs)) == 16
    assert len(np.unique(build_dofmap(mesh, 2).facet_dofs)) == 32  # + edge midpoints
    assert len(np.unique(build_dofmap(mesh, 3).facet_dofs)) == 48


def test_shared_edge_dofs_agree_between_cells():
    mesh = generate_unit_square(2)
    dofmap = build_dofmap(mesh, 3)
    # adjacent cells share an edge: 2 vertices + (k-1)=2 edge nodes
    for c1 in range(mesh.num_cells):
        for c2 in range(c1 + 1, mesh.num_cells):
            shared_verts = set(mesh.cells[c1]) & set(mesh.cells[c2])
            if len(shared_verts) == 2:
                common = set(dofmap.cell_dofs[c1]) & set(dofmap.cell_dofs[c2])
                assert len(common) == 4


def tuple_key_numbering(mesh, k):
    """Reference numbering: one (vertex id, weight) tuple key per node.

    Keys are sorted by (entity dimension, vertex ids, weights). Returns
    n, cell_dofs and the DOFs of every boundary facet's nodes.
    """
    def key(vertex_ids, lat):
        return tuple(sorted((int(v), int(w)) for v, w in zip(vertex_ids, lat) if w))

    lattice = _lattice_nodes(mesh.dim, k)
    facet_lattice = _lattice_nodes(mesh.dim - 1, k)
    cell_keys = [[key(cell, lat) for lat in lattice] for cell in mesh.cells]
    ordered = sorted({kk for ck in cell_keys for kk in ck},
                     key=lambda kk: (len(kk), [p[0] for p in kk], [p[1] for p in kk]))
    key2dof = {kk: i for i, kk in enumerate(ordered)}
    cell_dofs = np.array([[key2dof[kk] for kk in ck] for ck in cell_keys])
    facet_dofs = np.array([[key2dof[key(f, lat)] for lat in facet_lattice]
                           for f in mesh.boundary_facets])
    return len(key2dof), cell_dofs, facet_dofs


@pytest.mark.parametrize("make", [
    lambda: generate_unit_square(16),
    lambda: generate_disk(12),
    lambda: generate_lshape(8),
    lambda: generate_unit_cube(5),
    lambda: read_gmsh(packaged_mesh_path()),
], ids=["square16", "disk12", "lshape8", "cube5", "iaea2d"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_numbering_matches_tuple_key_reference(make, k):
    mesh = make()
    dofmap = build_dofmap(mesh, k)
    n, cell_dofs, facet_dofs = tuple_key_numbering(mesh, k)
    assert dofmap.n == n
    assert np.array_equal(dofmap.cell_dofs, cell_dofs)
    assert np.array_equal(dofmap.facet_dofs, facet_dofs)


def all_rows_dofmap(mesh, k):
    """The numbering before vertex DOFs were read off the cells: one
    identity row per (cell, node) and per (boundary facet, facet node),
    vertex nodes included, all numbered by one np.unique(axis=0)."""
    lattice = _lattice_nodes(mesh.dim, k)
    facet_lattice = _lattice_nodes(mesh.dim - 1, k)
    width = mesh.dim + 1
    cell_rows = _node_rows(mesh.cells, lattice, width)
    facet_rows = _node_rows(mesh.boundary_facets, facet_lattice, width)
    uniq, index = np.unique(np.concatenate([cell_rows, facet_rows]), axis=0,
                            return_inverse=True)
    index = index.ravel()
    cell_dofs = index[: len(cell_rows)].reshape(mesh.num_cells, -1)
    facet_dofs = index[len(cell_rows):].reshape(len(mesh.boundary_facets), -1)
    return len(uniq), cell_dofs, facet_dofs


@pytest.mark.parametrize("make", [
    lambda: generate_unit_square(12),
    lambda: generate_lshape(10),
    lambda: generate_disk(9),
    lambda: generate_unit_cube(4),
    lambda: read_gmsh(packaged_mesh_path()),
], ids=["square12", "lshape10", "disk9", "cube4", "iaea2d"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_dofmap_matches_all_rows_numbering(make, k):
    mesh = make()
    dofmap = build_dofmap(mesh, k)
    n, cell_dofs, facet_dofs = all_rows_dofmap(mesh, k)
    assert dofmap.n == n
    for got, want in ((dofmap.cell_dofs, cell_dofs), (dofmap.facet_dofs, facet_dofs)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
