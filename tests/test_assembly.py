"""Assembled pencil: exact small matrices, an independent quadrature
oracle for the bilinear forms, block pattern, and boundary handling."""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from critifem.app import packaged_mesh_path
from critifem.assembly import assemble
from critifem.fem_space import _dof_coordinates, build_dofmap, build_reference, quadrature
from critifem.materials import BoundaryCondition, GroupConstants, builtin_deck
from critifem.mesh import (
    Mesh,
    generate_disk,
    generate_lshape,
    generate_unit_cube,
    generate_unit_square,
    read_gmsh,
)

GC = GroupConstants(D1=1.0, D2=0.5, sigma_a1=0.2, sigma_a2=0.1, sigma_12=0.1,
                    nu_sigma_f1=0.3, nu_sigma_f2=0.1)
ROBIN0 = BoundaryCondition.robin(0.0)  # natural boundary: nothing constrained

REF_TRIANGLE = Mesh(
    2,
    np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    np.array([[0, 1, 2]]),
    np.array([1]),
)

# hand-computed degree-1 element matrices on the reference triangle
K_EXACT = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
M_EXACT = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0


def one_triangle_system(gc=GC, bc=ROBIN0):
    dofmap = build_dofmap(REF_TRIANGLE, 1)
    return assemble(REF_TRIANGLE, dofmap, {1: (gc, bc)}, 1)


# ---------------------------------------------------------------------------
# exact small matrices

def test_single_triangle_stiffness_and_mass():
    system = one_triangle_system()
    assert np.max(np.abs(system.stiffness.toarray() - K_EXACT)) < 1e-14
    assert np.max(np.abs(system.mass.toarray() - M_EXACT)) < 1e-14
    # P1 mass row sums are area / 3
    assert np.max(np.abs(system.mass.toarray().sum(axis=1) - 1.0 / 6.0)) < 1e-15


def test_single_triangle_blocks():
    system = one_triangle_system()
    assert np.max(np.abs(system.a11.toarray()
                         - (GC.D1 * K_EXACT + (GC.sigma_a1 + GC.sigma_12) * M_EXACT))) < 1e-14
    assert np.max(np.abs(system.a22.toarray()
                         - (GC.D2 * K_EXACT + GC.sigma_a2 * M_EXACT))) < 1e-14
    assert np.max(np.abs(system.coupling.toarray() - GC.sigma_12 * M_EXACT)) < 1e-14
    assert np.max(np.abs(system.f1.toarray() - GC.nu_sigma_f1 * M_EXACT)) < 1e-14
    assert np.max(np.abs(system.f2.toarray() - GC.nu_sigma_f2 * M_EXACT)) < 1e-14


def test_coupling_only_deck_gives_negative_mass_block():
    # down-scattering alone: A(2,1) must be exactly -mass
    gc = GroupConstants(D1=1.0, D2=1.0, sigma_a1=0.0, sigma_a2=1.0, sigma_12=1.0,
                        nu_sigma_f1=0.0, nu_sigma_f2=0.0)
    with pytest.warns(UserWarning, match="sigma_a1"):
        system = one_triangle_system(gc=gc)
    A = system.A.toarray()
    assert np.max(np.abs(A[1 * 3:, :3] + M_EXACT)) < 1e-14


def test_robin_boundary_mass_unit_square():
    # N=1 square, boundary edges of length 1: facet mass diag 2/3 between
    # side-adjacent vertices 1/6, diagonal pairs 0
    mesh = generate_unit_square(1)
    dofmap = build_dofmap(mesh, 1)
    alpha = 0.37
    deck = {1: (GC, BoundaryCondition.robin(alpha))}
    system = assemble(mesh, dofmap, deck, 1)
    boundary = (system.a11.toarray()
                - GC.D1 * system.stiffness.toarray()
                - (GC.sigma_a1 + GC.sigma_12) * system.mass.toarray()) / alpha
    expect = np.array([
        [2 / 3, 1 / 6, 1 / 6, 0.0],
        [1 / 6, 2 / 3, 0.0, 1 / 6],
        [1 / 6, 0.0, 2 / 3, 1 / 6],
        [0.0, 1 / 6, 1 / 6, 2 / 3],
    ])
    assert np.max(np.abs(boundary - expect)) < 1e-13


def test_distinct_group_robin_coefficients():
    mesh = generate_unit_square(1)
    dofmap = build_dofmap(mesh, 1)
    deck = {1: (GC, BoundaryCondition.robin(0.2, 0.9))}
    system = assemble(mesh, dofmap, deck, 1)
    r1 = system.a11.toarray() - GC.D1 * system.stiffness.toarray() \
        - (GC.sigma_a1 + GC.sigma_12) * system.mass.toarray()
    r2 = system.a22.toarray() - GC.D2 * system.stiffness.toarray() \
        - GC.sigma_a2 * system.mass.toarray()
    assert np.max(np.abs(r2 - r1 * (0.9 / 0.2))) < 1e-13


# ---------------------------------------------------------------------------
# block pattern and reduction

def test_block_pattern(square16_system):
    _, _, system = square16_system
    n = system.n
    A = system.A.toarray()
    B = system.B.toarray()
    assert np.max(np.abs(A[:n, n:])) == 0.0
    assert np.max(np.abs(A[n:, :n] + system.coupling.toarray())) == 0.0
    assert np.max(np.abs(A[:n, :n] - A[:n, :n].T)) < 1e-12
    assert np.max(np.abs(A[n:, n:] - A[n:, n:].T)) < 1e-12
    assert np.max(np.abs(B[:n, :n] - system.f1.toarray())) == 0.0
    assert np.max(np.abs(B[:n, n:] - system.f2.toarray())) == 0.0
    assert np.max(np.abs(B[n:, :])) == 0.0


def test_dirichlet_reduction_counts():
    mesh = generate_unit_square(8)
    dofmap = build_dofmap(mesh, 1)
    system = assemble(mesh, dofmap, builtin_deck("paper-table1"), 1)
    assert system.n == 49  # (N-1)^2 interior vertices
    assert system.n_raw == 81
    assert system.A.shape == (98, 98)
    assert len(system.constrained_dofs) == 32
    assert sorted(set(system.free_dofs) | set(system.constrained_dofs)) == list(range(81))


def test_extend_restrict_roundtrip(square16_system):
    _, _, system = square16_system
    x = np.arange(system.n, dtype=float) + 1.0
    full = system.extend(x)
    assert full.shape == (system.n_raw,)
    assert np.all(full[system.constrained_dofs] == 0.0)
    assert np.array_equal(system.restrict(full), x)


# ---------------------------------------------------------------------------
# independent quadrature oracle for the forms

def _leggauss01(npts):
    x, w = np.polynomial.legendre.leggauss(npts)
    return (x + 1.0) / 2.0, w / 2.0


def _triangle_rule(npts):
    a, wa = _leggauss01(npts)
    b, wb = _leggauss01(npts)
    A, B = np.meshgrid(a, b, indexing="ij")
    pts = np.column_stack([(A * (1.0 - B)).ravel(), B.ravel()])
    w = (wa[:, None] * wb[None, :] * (1.0 - B)).ravel()
    return pts, w


def _forms_by_quadrature(mesh, dofmap, deck, k, u, v):
    """a(u, v) and b(u, v) integrated cell by cell with a tensor rule."""
    ref = build_reference(mesh.dim, k)
    pts, w = _triangle_rule(8)
    vals, grads = ref.tabulate(pts)
    n = dofmap.n
    u1, u2, v1, v2 = u[:n], u[n:], v[:n], v[n:]
    a_val = 0.0
    b_val = 0.0
    for c in range(mesh.num_cells):
        gc = deck[int(mesh.region_tags[c])][0]
        verts = mesh.vertices[mesh.cells[c]]
        J = (verts[1:] - verts[0]).T
        det = abs(np.linalg.det(J))
        invJT = np.linalg.inv(J).T
        dofs = dofmap.cell_dofs[c]
        loc = {name: vec[dofs] for name, vec in
               (("u1", u1), ("u2", u2), ("v1", v1), ("v2", v2))}
        val = {name: c_ @ vals for name, c_ in loc.items()}
        gphys = np.einsum("df,iqf->iqd", invJT, grads)
        grad = {name: np.einsum("i,iqd->qd", c_, gphys) for name, c_ in loc.items()}
        mass = {
            pair: det * float(w @ (val[pair[:2]] * val[pair[2:]]))
            for pair in ("u1v1", "u2v2", "u1v2", "u2v1")
        }
        stiff_u1v1 = det * float(w @ np.einsum("qd,qd->q", grad["u1"], grad["v1"]))
        stiff_u2v2 = det * float(w @ np.einsum("qd,qd->q", grad["u2"], grad["v2"]))
        a_val += gc.D1 * stiff_u1v1 + (gc.sigma_a1 + gc.sigma_12) * mass["u1v1"]
        a_val += gc.D2 * stiff_u2v2 + gc.sigma_a2 * mass["u2v2"]
        a_val -= gc.sigma_12 * mass["u1v2"]
        b_val += gc.nu_sigma_f1 * mass["u1v1"] + gc.nu_sigma_f2 * mass["u2v1"]

    # Robin boundary terms, 1D Gauss along each facet
    facet_ref = build_reference(mesh.dim - 1, k)
    t, wt = _leggauss01(8)
    fvals, _ = facet_ref.tabulate(t[:, None])
    facet2cell = {}
    for c, cell in enumerate(mesh.cells):
        for drop in range(mesh.dim + 1):
            facet2cell[tuple(sorted(int(x) for j, x in enumerate(cell) if j != drop))] = c
    for i, f in enumerate(mesh.boundary_facets):
        cell = facet2cell[tuple(sorted(int(x) for x in f))]
        bc = deck[int(mesh.region_tags[cell])][1]
        if bc.kind != "robin":
            continue
        length = float(np.linalg.norm(mesh.vertices[f[1]] - mesh.vertices[f[0]]))
        fdofs = dofmap.facet_dofs[i]
        vb = {name: vec[fdofs] @ fvals for name, vec in
              (("u1", u1), ("u2", u2), ("v1", v1), ("v2", v2))}
        a_val += bc.alpha1 * length * float(wt @ (vb["u1"] * vb["v1"]))
        a_val += bc.alpha2 * length * float(wt @ (vb["u2"] * vb["v2"]))
    return a_val, b_val


@pytest.mark.parametrize("k", [1, 2, 3])
def test_matrices_match_quadrature_oracle(k, rng):
    mesh = generate_unit_square(3)
    dofmap = build_dofmap(mesh, k)
    deck = {1: (GC, BoundaryCondition.robin(0.3, 0.7))}
    system = assemble(mesh, dofmap, deck, k)
    assert system.n == system.n_raw  # Robin constrains nothing
    for _ in range(3):
        u = rng.standard_normal(2 * system.n)
        v = rng.standard_normal(2 * system.n)
        a_oracle, b_oracle = _forms_by_quadrature(mesh, dofmap, deck, k, u, v)
        a_mat = float(v @ (system.A @ u))
        b_mat = float(v @ (system.B @ u))
        assert abs(a_mat - a_oracle) < 1e-11 * max(1.0, abs(a_oracle))
        assert abs(b_mat - b_oracle) < 1e-11 * max(1.0, abs(b_oracle))


# ---------------------------------------------------------------------------
# element-loop reference for every assembled matrix

def coo_reference_system(mesh, dofmap, deck, k):
    """Every matrix of the pencil the plain way: local matrices by einsum,
    one COO->CSR sum per matrix, Dirichlet rows and columns dropped by
    indexing. Returns ({name: csr}, free DOFs)."""
    n = dofmap.n
    ref = build_reference(mesh.dim, k)
    quad = quadrature(mesh.dim, 2 * k)
    vals, grads = ref.tabulate(quad.points_ref)
    w = quad.weights
    v0 = mesh.vertices[mesh.cells[:, 0]]
    J = np.stack([mesh.vertices[mesh.cells[:, j + 1]] - v0 for j in range(mesh.dim)],
                 axis=-1)
    det = np.abs(np.linalg.det(J))
    invJ = np.linalg.inv(J)
    G = np.einsum("cde,cfe,c->cdf", invJ, invJ, det)
    stiff_local = np.einsum("q,iqd,cdf,jqf->cij", w, grads, G, grads)
    mass_local = np.einsum("c,ij->cij", det, np.einsum("q,iq,jq->ij", w, vals, vals))

    def scatter(dofs, local):
        nb = dofs.shape[1]
        rows = np.repeat(dofs, nb, axis=1).ravel()
        cols = np.tile(dofs, (1, nb)).ravel()
        return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    def coef(attr):
        return np.array([getattr(deck[int(t)][0], attr) for t in mesh.region_tags])

    def with_coef(c, local):
        return scatter(dofmap.cell_dofs, c[:, None, None] * local)

    bcs = [deck[int(mesh.region_tags[c])][1] for c in mesh.boundary_cells]
    robin = np.array([bc.kind == "robin" for bc in bcs])
    facet_quad = quadrature(mesh.dim - 1, 2 * k)
    fvals, _ = build_reference(mesh.dim - 1, k).tabulate(facet_quad.points_ref)
    facet_mass = np.einsum("q,iq,jq->ij", facet_quad.weights, fvals, fvals)
    pts = mesh.vertices[mesh.boundary_facets]
    if mesh.dim == 2:
        measure = np.linalg.norm(pts[:, 1] - pts[:, 0], axis=1)
    else:
        measure = np.linalg.norm(np.cross(pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]),
                                 axis=1)

    def robin_term(attr):
        alpha = np.array([getattr(bc, attr) if r else 0.0 for bc, r in zip(bcs, robin)])
        local = np.einsum("f,ij->fij", alpha * measure, facet_mass)
        return scatter(dofmap.facet_dofs[robin], local[robin])

    a11 = with_coef(coef("D1"), stiff_local) \
        + with_coef(coef("sigma_a1") + coef("sigma_12"), mass_local) \
        + robin_term("alpha1")
    a22 = with_coef(coef("D2"), stiff_local) + with_coef(coef("sigma_a2"), mass_local) \
        + robin_term("alpha2")
    free = np.setdiff1d(np.arange(n), dofmap.facet_dofs[~robin])
    raw = {
        "mass": scatter(dofmap.cell_dofs, mass_local),
        "stiffness": scatter(dofmap.cell_dofs, stiff_local),
        "a11": a11,
        "a22": a22,
        "coupling": with_coef(coef("sigma_12"), mass_local),
        "f1": with_coef(coef("nu_sigma_f1"), mass_local),
        "f2": with_coef(coef("nu_sigma_f2"), mass_local),
    }
    mats = {name: m[free][:, free].tocsr() for name, m in raw.items()}
    zero = sp.csr_matrix(mats["f1"].shape)
    mats["A"] = sp.bmat([[mats["a11"], None], [-mats["coupling"], mats["a22"]]], "csr")
    mats["B"] = sp.bmat([[mats["f1"], mats["f2"]], [zero, zero]], "csr")
    return mats, free


def two_region_square():
    """Square N=4, left half Dirichlet (region 1), right half Robin (region 2);
    boundary facets tagged by region, so Robin facets meet constrained DOFs."""
    base = generate_unit_square(4)
    right = base.vertices[base.cells].mean(axis=1)[:, 0] > 0.5
    regions = np.where(right, 2, 1)
    mesh = Mesh(2, base.vertices, base.cells, regions,
                boundary_facets=base.boundary_facets,
                boundary_tags=regions[base.boundary_cells])
    gc2 = GroupConstants(D1=1.3, D2=0.4, sigma_a1=0.1, sigma_a2=0.2, sigma_12=0.05,
                         nu_sigma_f1=0.2, nu_sigma_f2=0.4)
    deck = {1: (GC, BoundaryCondition.dirichlet()),
            2: (gc2, BoundaryCondition.robin(0.3, 0.8))}
    return mesh, deck


ORACLE_CASES = {
    "square": lambda: (generate_unit_square(4), builtin_deck("paper-table1")),
    "disk": lambda: (generate_disk(3), builtin_deck("paper-table1")),
    "lshape": lambda: (generate_lshape(4), builtin_deck("paper-table1")),
    "cube": lambda: (generate_unit_cube(3), builtin_deck("paper-table1")),
    "disk-robin": lambda: (generate_disk(3), {1: (GC, BoundaryCondition.robin(0.3, 0.7))}),
    "square-mixed": two_region_square,
    "iaea2d": lambda: (read_gmsh(packaged_mesh_path()), builtin_deck("iaea-2d")),
}


@pytest.mark.filterwarnings("ignore:sigma_a1 = 0")
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_matrices_match_coo_reference(case, k):
    mesh, deck = ORACLE_CASES[case]()
    dofmap = build_dofmap(mesh, k)
    system = assemble(mesh, dofmap, deck, k)
    expect, free = coo_reference_system(mesh, dofmap, deck, k)
    assert np.array_equal(system.free_dofs, free)
    for name, ref in expect.items():
        got = getattr(system, name)
        assert isinstance(got, sp.csr_matrix)
        assert got.shape == ref.shape
        # the LU and bmat rely on sorted, duplicate-free indices
        assert got.has_canonical_format, name
        scale = max(abs(ref).max(), 1e-300)
        assert abs(got - ref).max() <= 1e-13 * scale, name


@pytest.mark.parametrize("make,digest", [
    (lambda: generate_unit_square(3),
     "c58f7af39b768ee68ea7d7062caa3fffc48340e892a9fb58f5fb13209684e1a0"),
    (lambda: generate_unit_cube(2),
     "78be174c4ad5e5ad875f107e3449bd6bd8b6f5370ea0a3157d2a1ba2fdeeb92a"),
], ids=["square3", "cube2"])
def test_robin_k3_diagonal_blocks_are_pinned(make, digest):
    # the bytes of a11 and a22 depend on the order of the cell and facet
    # lattice nodes and of the quadrature points, not only on their sets
    mesh = make()
    deck = {1: (GC, BoundaryCondition.robin(0.3, 0.7))}
    system = assemble(mesh, build_dofmap(mesh, 3), deck, 3)
    data = system.a11.data.tobytes() + system.a22.data.tobytes()
    assert hashlib.sha256(data).hexdigest() == digest


# ---------------------------------------------------------------------------
# source problem

def test_source_solve_residual_and_bounds(square16_system, rng):
    _, _, system = square16_system
    gc = GC
    alpha1 = min(gc.D1, gc.sigma_a1 + gc.sigma_12)
    alpha2 = min(gc.D2, gc.sigma_a2)
    H1 = (system.stiffness + system.mass).toarray()
    M = system.mass.toarray()
    A = system.A.tocsc()
    for _ in range(5):
        f = rng.standard_normal(2 * system.n)
        rhs = system.B @ f
        x = spla.spsolve(A, rhs)
        assert np.linalg.norm(system.A @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)
        p1, p2 = x[:system.n], x[system.n:]
        f1, f2 = f[:system.n], f[system.n:]
        h1 = lambda v: float(np.sqrt(v @ (H1 @ v)))
        l2 = lambda v: float(np.sqrt(v @ (M @ v)))
        bound1 = gc.nu_sigma_f1 * l2(f1) + gc.nu_sigma_f2 * l2(f2)
        assert alpha1 * h1(p1) <= bound1 * (1 + 1e-10)
        assert alpha2 * h1(p2) <= gc.sigma_12 * l2(p1) * (1 + 1e-10)


# ---------------------------------------------------------------------------
# errors and utilities

def test_missing_region_rejected():
    mesh = generate_unit_square(2)
    dofmap = build_dofmap(mesh, 1)
    with pytest.raises(ValueError, match="missing region 1"):
        assemble(mesh, dofmap, {2: (GC, ROBIN0)}, 1)


def test_mixed_bc_kinds_on_one_tag_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = Mesh(2, verts, cells, np.array([1, 2]))
    dofmap = build_dofmap(mesh, 1)
    deck = {1: (GC, BoundaryCondition.dirichlet()), 2: (GC, ROBIN0)}
    with pytest.raises(ValueError, match="mixes BC kinds"):
        assemble(mesh, dofmap, deck, 1)


def test_dofmap_mismatch_rejected():
    mesh = generate_unit_square(2)
    dofmap = build_dofmap(mesh, 2)
    with pytest.raises(ValueError, match="dofmap"):
        assemble(mesh, dofmap, {1: (GC, ROBIN0)}, 1)


# ---------------------------------------------------------------------------
# factorization order

def _recursive_dissection(coords, indptr, indices, nodes):
    """The dissection written as a recursion over parts, nodes ascending."""
    if len(nodes) <= 48:
        return list(nodes)
    x = coords[nodes]
    x = x[:, np.argmax(x.max(axis=0) - x.min(axis=0))]
    median = np.sort(x)[len(x) // 2]
    on_left = x < median if median > x.min() else x <= median
    left = set(nodes[on_left])
    right = nodes[~on_left]
    cut = np.array([any(j in left for j in indices[indptr[i]:indptr[i + 1]])
                    for i in right], dtype=bool)
    return (_recursive_dissection(coords, indptr, indices, nodes[on_left])
            + _recursive_dissection(coords, indptr, indices, right[~cut])
            + list(right[cut]))


@pytest.mark.parametrize("bc", ["dirichlet", "robin"])
@pytest.mark.parametrize("k, N", [(1, 6), (2, 4), (3, 3)])
def test_cube_ordering_dissects_the_free_dofs(k, N, bc):
    # Robin boundary DOFs are free, so they are ordered too
    mesh = generate_unit_cube(N)
    dofmap = build_dofmap(mesh, k)
    bcs = {"dirichlet": BoundaryCondition.dirichlet(), "robin": ROBIN0}
    system = assemble(mesh, dofmap, {1: (GC, bcs[bc])}, k)
    assert system.n > 48  # more than one leaf part
    assert (system.n == system.n_raw) == (bc == "robin")
    np.testing.assert_array_equal(np.sort(system.ordering), np.arange(system.n))
    coords = _dof_coordinates(mesh, dofmap)[system.free_dofs]
    a = system.a11
    want = _recursive_dissection(coords, a.indptr, a.indices, np.arange(system.n))
    np.testing.assert_array_equal(system.ordering, want)


@pytest.mark.filterwarnings("ignore:sigma_a1 = 0")
@pytest.mark.parametrize("case", ["square", "lshape", "disk", "quarter-core"])
def test_2d_systems_carry_no_ordering(case):
    if case == "quarter-core":
        mesh, deck = read_gmsh(packaged_mesh_path()), builtin_deck("iaea-2d")
    else:
        generate = {"square": generate_unit_square, "lshape": generate_lshape,
                    "disk": generate_disk}[case]
        mesh, deck = generate(4), {1: (GC, BoundaryCondition.dirichlet())}
    assert assemble(mesh, build_dofmap(mesh, 2), deck, 2).ordering is None
