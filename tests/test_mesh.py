"""Mesh generators, validation, and the MSH subset reader/writer."""

import importlib.resources
import importlib.util
import itertools
import math
import pathlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from critifem import mesh as mesh_module
from critifem.fem_space import build_dofmap
from critifem.mesh import (
    Mesh,
    MeshFormatError,
    _group_rows,
    _signed_volumes,
    generate_disk,
    generate_lshape,
    generate_unit_cube,
    generate_unit_square,
    generator,
    mesh_size,
    read_gmsh,
    write_msh,
)


def edge_count(mesh):
    pairs = set()
    nloc = mesh.cells.shape[1]
    for cell in mesh.cells:
        for a in range(nloc):
            for b in range(a + 1, nloc):
                pairs.add(tuple(sorted((int(cell[a]), int(cell[b])))))
    return len(pairs)


# ---------------------------------------------------------------------------
# generators

@given(st.integers(min_value=1, max_value=24))
@settings(max_examples=12, deadline=None)
def test_square_counts(N):
    mesh = generate_unit_square(N)
    assert mesh.num_vertices == (N + 1) ** 2
    assert mesh.num_cells == 2 * N * N
    assert len(mesh.boundary_facets) == 4 * N
    # planar Euler formula for a disk-like complex
    assert mesh.num_vertices - edge_count(mesh) + mesh.num_cells == 1


def test_square_smallest():
    mesh = generate_unit_square(1)
    assert mesh.num_vertices == 4
    assert mesh.num_cells == 2


@given(st.integers(min_value=1, max_value=12).map(lambda n: 2 * n))
@settings(max_examples=8, deadline=None)
def test_lshape_counts(N):
    mesh = generate_lshape(N)
    assert mesh.num_cells == 3 * N * N // 2
    assert mesh.num_vertices == (N + 1) ** 2 - (N // 2) ** 2
    assert mesh.num_vertices - edge_count(mesh) + mesh.num_cells == 1


def test_lshape_rejects_odd():
    with pytest.raises(ValueError):
        generate_lshape(3)
    with pytest.raises(ValueError):
        generate_lshape(0)


def test_lshape_smallest():
    mesh = generate_lshape(2)
    assert mesh.num_cells == 6
    assert len(mesh.boundary_facets) == 8
    # the dropped quadrant leaves no vertex in its open interior
    assert not np.any(
        (mesh.vertices[:, 0] > 0.5 + 1e-12) & (mesh.vertices[:, 1] > 0.5 + 1e-12)
    )


@given(st.integers(min_value=1, max_value=5))
@settings(max_examples=5, deadline=None)
def test_cube_counts(N):
    mesh = generate_unit_cube(N)
    assert mesh.num_vertices == (N + 1) ** 3
    assert mesh.num_cells == 6 * N**3
    assert len(mesh.boundary_facets) == 12 * N * N  # 6 faces, 2N^2 each


def test_cube_smallest():
    assert generate_unit_cube(1).num_cells == 6


@pytest.mark.parametrize("generate,N,match", [
    (generate_unit_square, 0, "N must be >= 1"),
    (generate_unit_cube, 0, "N must be >= 1"),
    (generate_disk, 1, "N must be >= 2"),
])
def test_generators_reject_their_bad_resolutions(generate, N, match):
    with pytest.raises(ValueError, match=match):
        generate(N)


def test_generator_looks_up_the_registry_at_call_time(monkeypatch):
    assert generator("disk") is generate_disk
    with pytest.raises(ValueError, match=r"unknown domain 'hexagon'; choose from "
                                         r"\('cube', 'disk', 'lshape', 'square'\)"):
        generator("hexagon")
    # a wrapper put into the registry (as a tracer does) is what callers get
    wrapped = lambda N: generate_disk(N)  # noqa: E731
    monkeypatch.setitem(mesh_module.GENERATORS, "disk", wrapped)
    assert generator("disk") is wrapped


def loop_grid_triangles(N, drop_quadrant=False):
    """Reference SW-NE split of the N x N grid, one square at a time."""
    tris = []
    for j in range(N):
        for i in range(N):
            if drop_quadrant and i >= N // 2 and j >= N // 2:
                continue
            sw, se = j * (N + 1) + i, j * (N + 1) + i + 1
            nw, ne = sw + N + 1, se + N + 1
            tris += [(sw, se, ne), (sw, ne, nw)]
    return np.array(tris, dtype=np.int64)


def loop_cube(N):
    """Reference Kuhn tetrahedralization, one cube and corner path at a time."""
    xs = np.linspace(0.0, 1.0, N + 1)
    verts = [(xs[i], xs[j], xs[k])
             for k in range(N + 1) for j in range(N + 1) for i in range(N + 1)]

    def vid(i, j, k):
        return (k * (N + 1) + j) * (N + 1) + i

    tets = []
    for k in range(N):
        for j in range(N):
            for i in range(N):
                for perm in itertools.permutations(range(3)):
                    corner = [i, j, k]
                    tet = [vid(*corner)]
                    for axis in perm:
                        corner[axis] += 1
                        tet.append(vid(*corner))
                    tets.append(tet)
    return np.array(verts), np.array(tets, dtype=np.int64)


def loop_disk(N):
    """Reference concentric-ring disk, one ring, sector and triangle at a time."""
    verts = [(0.0, 0.0)]
    ring_start = [None]  # index of the first vertex of ring j
    for j in range(1, N + 1):
        ring_start.append(len(verts))
        r = j / N
        m = 8 * j
        ang = 2.0 * np.pi * np.arange(m) / m
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))

    def vid(j, t):
        return 0 if j == 0 else ring_start[j] + t % (8 * j)

    tris = []
    for j in range(1, N + 1):
        for s in range(8):
            for t in range(j):
                tris.append((vid(j, s * j + t), vid(j, s * j + t + 1),
                             vid(j - 1, s * (j - 1) + t)))
            for t in range(j - 1):
                tris.append((vid(j, s * j + t + 1), vid(j - 1, s * (j - 1) + t + 1),
                             vid(j - 1, s * (j - 1) + t)))
    return np.array(verts), np.array(tris, dtype=np.int64)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_structured_generators_match_loop_reference(N):
    xs = np.linspace(0.0, 1.0, N + 1)
    grid = np.array([(x, y) for y in xs for x in xs])
    square = generate_unit_square(N)
    ref = Mesh(2, grid, loop_grid_triangles(N), np.ones(2 * N * N, dtype=np.int64))
    assert np.array_equal(square.vertices, ref.vertices)
    assert np.array_equal(square.cells, ref.cells)

    verts, tets = loop_cube(N)
    cube = generate_unit_cube(N)
    ref = Mesh(3, verts, tets, np.ones(len(tets), dtype=np.int64))
    assert np.array_equal(cube.vertices, ref.vertices)
    assert np.array_equal(cube.cells, ref.cells)

    if N % 2 == 0:
        tris = loop_grid_triangles(N, drop_quadrant=True)
        lshape = generate_lshape(N)
        assert np.array_equal(lshape.vertices, grid[np.unique(tris)])
        assert np.array_equal(lshape.vertices[lshape.cells], grid[tris])


@pytest.mark.parametrize("N", [2, 3, 4, 5, 6, 20])
def test_disk_matches_loop_reference(N):
    verts, tris = loop_disk(N)
    disk = generate_disk(N)
    ref = Mesh(2, verts, tris, np.ones(len(tris), dtype=np.int64))
    assert np.array_equal(disk.vertices, ref.vertices)
    assert np.array_equal(disk.cells, ref.cells)


def test_boundary_cells_own_their_facets():
    for mesh in (generate_lshape(4), generate_disk(3), generate_unit_cube(2)):
        owner = mesh.cells[mesh.boundary_cells]
        on_owner = mesh.boundary_facets[:, :, None] == owner[:, None, :]
        assert np.all(on_owner.any(axis=2))
        assert not mesh.boundary_cells.flags.writeable


@given(st.integers(min_value=2, max_value=12))
@settings(max_examples=8, deadline=None)
def test_disk_counts(N):
    mesh = generate_disk(N)
    assert mesh.num_vertices == 1 + 4 * N * (N + 1)
    assert mesh.num_cells == 8 * N * N
    assert len(mesh.boundary_facets) == 8 * N
    assert np.all(np.sum(mesh.vertices**2, axis=1) <= 1.0 + 1e-12)
    # outermost ring sits exactly on the unit circle
    bverts = np.unique(mesh.boundary_facets)
    radii = np.sqrt(np.sum(mesh.vertices[bverts] ** 2, axis=1))
    assert np.max(np.abs(radii - 1.0)) < 1e-14


def cell_volumes(mesh):
    """Unsigned cell volumes (areas in 2D)."""
    return np.abs(_signed_volumes(mesh.vertices, mesh.cells))


def test_volumes_partition_domain():
    assert abs(cell_volumes(generate_unit_square(7)).sum() - 1.0) < 1e-12
    assert abs(cell_volumes(generate_lshape(6)).sum() - 0.75) < 1e-12
    assert abs(cell_volumes(generate_unit_cube(3)).sum() - 1.0) < 1e-12


def test_disk_area_converges_to_pi():
    defect64 = math.pi - cell_volumes(generate_disk(64)).sum()
    assert 0 < defect64 < 3e-3  # inscribed polygon: always from below
    defect16 = math.pi - cell_volumes(generate_disk(16)).sum()
    assert defect64 < defect16 / 4 * 1.5  # ~1/N^2 decay


def test_mesh_size_values():
    assert abs(mesh_size(generate_unit_square(1)) - math.sqrt(2)) < 1e-15
    assert abs(mesh_size(generate_unit_square(8)) - math.sqrt(2) / 8) < 1e-15
    assert abs(mesh_size(generate_unit_cube(4)) - math.sqrt(3) / 4) < 1e-15


def loop_mesh_size(mesh):
    """The per-vertex-pair loop mesh_size replaced, kept as its reference."""
    h2 = 0.0
    for i, j in itertools.combinations(range(mesh.cells.shape[1]), 2):
        d = mesh.vertices[mesh.cells[:, i]] - mesh.vertices[mesh.cells[:, j]]
        h2 = max(h2, float(np.max(np.einsum("ij,ij->i", d, d))))
    return float(np.sqrt(h2))


@pytest.mark.parametrize("domain,n", [
    ("square", 1), ("square", 5), ("square", 64), ("lshape", 2), ("lshape", 18),
    ("disk", 2), ("disk", 5), ("disk", 20), ("cube", 1), ("cube", 5), ("cube", 18),
    ("packaged", None),
])
def test_mesh_size_equals_the_pair_loop(domain, n):
    if domain == "packaged":
        ref = importlib.resources.files("critifem") / "data" / "iaea2d_quarter.msh"
        with importlib.resources.as_file(ref) as path:
            mesh = read_gmsh(path)
    else:
        mesh = generator(domain)(n)
    assert mesh_size(mesh) == loop_mesh_size(mesh)


def test_region_and_boundary_defaults():
    mesh = generate_unit_square(3)
    assert np.unique(mesh.region_tags).tolist() == [1]


# ---------------------------------------------------------------------------
# Mesh validation

TRI = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_orientation_fix():
    # clockwise cell gets its last two vertices swapped
    mesh = Mesh(2, TRI, np.array([[0, 2, 1]]), np.array([1]))
    v0, v1, v2 = mesh.vertices[mesh.cells[0]]
    a, b = v1 - v0, v2 - v0
    assert a[0] * b[1] - a[1] * b[0] > 0


def test_degenerate_cell_rejected():
    flat = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate"):
        Mesh(2, flat, np.array([[0, 1, 2]]), np.array([1]))


def test_bad_vertex_index_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Mesh(2, TRI, np.array([[0, 1, 3]]), np.array([1]))


def test_vertex_in_no_cell_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.5], [0.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError, match="vertex 2 belongs to no cell"):
        Mesh(2, verts, np.array([[0, 1, 3]]), np.array([1]))


def test_mesh_of_several_parts_rejected():
    # a square of two regions whose interface nodes are duplicated: the
    # regions share no vertex, so the cells form two parts
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                      [1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="the cells form 2 connected parts"):
        Mesh(2, verts, np.array([[0, 1, 2], [4, 3, 5]]), np.array([1, 2]))
    # two triangles that share only one vertex are two parts: a point has
    # zero H1 capacity, so the vertex does not couple them
    bowtie = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ValueError, match="the cells form 2 connected parts"):
        Mesh(2, bowtie, np.array([[0, 1, 2], [0, 3, 4]]), np.array([1, 1]))


def test_noncontiguous_region_tags_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    with pytest.raises(ValueError, match="contiguous"):
        Mesh(2, verts, cells, np.array([1, 3]))
    Mesh(2, verts, cells, np.array([1, 2]))  # contiguous pair is fine


def test_nonconforming_rejected():
    # three triangles sharing one edge cannot be a 2-manifold mesh
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
    cells = np.array([[0, 1, 2], [0, 1, 3], [0, 1, 4]])
    with pytest.raises(ValueError, match="conforming"):
        Mesh(2, verts, cells, np.array([1, 1, 1]))


def test_nonconforming_tetrahedra_rejected():
    # three tetrahedra on one triangle: a facet shared by three cells
    verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 1.0, 1.0]])
    cells = np.array([[0, 1, 2, 3], [0, 1, 2, 4], [0, 1, 2, 5]])
    with pytest.raises(ValueError, match=r"a facet is shared by >2 cells"):
        Mesh(3, verts, cells, np.array([1, 1, 1]))


INT64 = np.iinfo(np.int64)


@st.composite
def row_tables(draw):
    """Integer tables whose columns draw from a few values each: small
    ones, ones up to 2**40 in magnitude (two such columns overflow one
    packed key) and the int64 extremes (a column alone spans 2**64)."""
    nrows = draw(st.integers(0, 40))
    ncols = draw(st.integers(1, 6))
    value = st.one_of(
        st.integers(-3, 3),
        st.integers(-(2**40), 2**40),
        st.sampled_from([INT64.min, INT64.min + 1, INT64.max - 1, INT64.max]),
    )
    table = np.empty((nrows, ncols), dtype=np.int64)
    for j in range(ncols):
        pool = draw(st.lists(value, min_size=1, max_size=4))
        picks = draw(st.lists(st.sampled_from(pool), min_size=nrows, max_size=nrows))
        table[:, j] = picks
    return table


def ranked_key_rows():
    """2048 + 200 rows of 6 columns in 0..2047, the first 200 rows repeated:
    no column spans the row count, but five spans of 2048 times a sixth
    reach 2**62, so the key is ranked once."""
    rows = np.random.default_rng(11).integers(0, 2048, (2048, 6), dtype=np.int64)
    return np.concatenate([rows, rows[:200]])


@given(st.one_of(
    row_tables(),
    hnp.arrays(np.int64, st.tuples(st.integers(1, 60), st.integers(1, 7)),
               elements=st.integers(-1, 3)),
))
@example(np.array([[a, b] for a in range(5) for b in (0, 2**61)], dtype=np.int64))
@example(np.array([[INT64.min, 1, 2], [INT64.max, 0, 2]], dtype=np.int64))
@example(ranked_key_rows())
@settings(max_examples=200, deadline=None)
def test_group_rows_matches_unique(rows):
    inverse, first, counts = _group_rows(rows)
    uniq, ref_first, ref_inverse, ref_counts = np.unique(
        rows, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    assert np.array_equal(rows[first], uniq)
    assert np.array_equal(first, ref_first)
    assert np.array_equal(inverse, ref_inverse.ravel())
    assert np.array_equal(counts, ref_counts)


def test_group_rows_single_row():
    inverse, first, counts = _group_rows(np.array([[4, -1, -1]], dtype=np.int64))
    assert inverse.tolist() == [0] and first.tolist() == [0] and counts.tolist() == [1]


def test_mesh_tables_fold_into_one_key(monkeypatch):
    # the facet and DOF node tables of the generators fold without a rank
    def no_rank(values):
        raise AssertionError("ranked a column or the key")

    monkeypatch.setattr(mesh_module, "_rank", no_rank)
    generate_unit_cube(4)
    build_dofmap(generate_disk(8), 3)
    build_dofmap(generate_unit_square(8), 2)


def test_mesh_arrays_immutable():
    mesh = generate_unit_square(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0


# ---------------------------------------------------------------------------
# MSH reader/writer

def test_roundtrip_bit_exact(tmp_path):
    for mesh in (generate_lshape(4), generate_disk(3), generate_unit_cube(2)):
        path = tmp_path / "m.msh"
        write_msh(mesh, path)
        back = read_gmsh(path)
        assert back.dim == mesh.dim
        assert np.array_equal(back.vertices, mesh.vertices)
        assert np.array_equal(back.cells, mesh.cells)
        assert np.array_equal(back.region_tags, mesh.region_tags)


def test_roundtrip_multiregion(tmp_path):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = Mesh(2, verts, cells, np.array([2, 1]))
    path = tmp_path / "two.msh"
    write_msh(mesh, path)
    back = read_gmsh(path)
    assert back.region_tags.tolist() == [2, 1]
    assert back.num_vertices == 4


# two triangles on four nodes; node line k (k = 1..4) is file line k + 5
TWO_TRIANGLES = [
    "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
    "$Nodes", "4", "1 0 0 0", "2 1 0 0", "3 1 1 0", "4 0 1 0", "$EndNodes",
    "$Elements", "2", "1 2 2 1 1 1 2 3", "2 2 2 1 1 1 3 4", "$EndElements",
]


def test_read_drops_nodes_no_cell_uses(tmp_path):
    text = "\n".join([
        "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
        "$Nodes", "6",
        "9 0.5 0.5 0", "4 1 1 0", "1 0 0 0", "7 3 3 0", "2 1 0 0", "3 0 1 0",
        "$EndNodes",
        "$Elements", "3",
        "1 1 2 5 5 1 2",
        "2 2 2 1 1 1 2 3",
        "3 2 2 1 1 2 4 3",
        "$EndElements",
    ]) + "\n"
    path = tmp_path / "stray.msh"
    path.write_text(text)
    mesh = read_gmsh(path)
    # the used nodes 4, 1, 2, 3 keep their file order
    assert mesh.vertices.tolist() == [[1.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    assert mesh.cells.tolist() == [[1, 2, 3], [2, 0, 3]]
    # a boundary element is ignored, even on a node that no cell uses
    stray = text.replace("1 1 2 5 5 1 2", "1 1 2 5 5 1 9")
    bare = text.replace("$Elements\n3\n1 1 2 5 5 1 2\n", "$Elements\n2\n")
    for variant in (stray, bare):
        assert variant != text
        path.write_text(variant)
        back = read_gmsh(path)
        for name in ("vertices", "cells", "region_tags", "boundary_facets"):
            assert np.array_equal(getattr(back, name), getattr(mesh, name))


def test_read_two_triangle_file(tmp_path):
    text = "\n".join([
        "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
        "$Nodes", "4",
        "1 0 0 0", "2 1 0 0", "3 0 1 0", "4 1 1 0",
        "$EndNodes",
        "$Elements", "2",
        "1 2 2 1 1 1 2 3",
        "2 2 2 1 1 2 4 3",
        "$EndElements",
    ]) + "\n"
    path = tmp_path / "square.msh"
    path.write_text(text)
    mesh = read_gmsh(path)
    assert mesh.num_vertices == 4
    assert mesh.num_cells == 2
    assert mesh.dim == 2


def test_read_missing_elements_section(tmp_path):
    path = tmp_path / "bad.msh"
    path.write_text("$MeshFormat\n2.2 0 8\n$EndMeshFormat\n$Nodes\n0\n$EndNodes\n")
    with pytest.raises(MeshFormatError, match=r"\$Elements"):
        read_gmsh(path)


def test_read_unsupported_element_type(tmp_path):
    path = tmp_path / "quad.msh"
    path.write_text("\n".join([
        "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
        "$Nodes", "4",
        "1 0 0 0", "2 1 0 0", "3 1 1 0", "4 0 1 0",
        "$EndNodes",
        "$Elements", "1",
        "1 3 2 1 1 1 2 3 4",  # type 3 = quadrangle, unsupported
        "$EndElements",
    ]) + "\n")
    with pytest.raises(MeshFormatError, match="element type 3"):
        read_gmsh(path)


def test_read_error_carries_line_number(tmp_path):
    path = tmp_path / "short.msh"
    path.write_text("\n".join([
        "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
        "$Nodes", "2", "1 0 0 0",
        "$EndNodes",
    ]) + "\n")
    with pytest.raises(MeshFormatError, match="short.msh:5"):
        read_gmsh(path)


@pytest.mark.parametrize("line,bad", [
    (6, "2 1.0x 0 0"),  # coordinate
    (5, "one 0 0 0"),  # node id
    (12, "1 tri 2 1 1 1 2 3"),  # element type
    (12, "1 2 two 1 1 1 2 3"),  # tag count
    (13, "2 2 2 1 1 1 3 four"),  # connectivity entry
])
def test_read_non_numeric_field_reports_its_line(tmp_path, line, bad):
    lines = list(TWO_TRIANGLES)
    lines[line] = bad
    path = tmp_path / "typo.msh"
    path.write_text("\n".join(lines) + "\n")
    where = rf"typo\.msh:{line + 1}: bad (node|element) line "
    with pytest.raises(MeshFormatError, match=where):
        read_gmsh(path)


def edited(start, stop, *new):
    """An edit of a file's lines: lines[start:stop] replaced by new."""
    return lambda lines: lines[:start] + list(new) + lines[stop:]


@pytest.mark.parametrize("edit,message", [
    (edited(0, 3), "1: missing $MeshFormat section"),
    (edited(3, 10), "1: missing $Nodes section"),
    (edited(10, 15), "1: missing $Elements section"),
    (edited(4, 5, "four"), "5: bad node count"),
    (edited(4, 5, "5"), "5: expected 5 node lines, found 4"),
    (edited(11, 12, "2.0"), "12: bad element count"),
    (edited(11, 12, "1"), "12: expected 1 element lines, found 2"),
    (edited(7, 8, "3 1 1 0.5"), "8: 2D mesh has nonzero z coordinates"),
    (edited(7, 8, "3 1 1 nan"), "8: 2D mesh has nonzero z coordinates"),
    (edited(7, 8, "3 1 1 inf"), "8: 2D mesh has nonzero z coordinates"),
    (edited(6, 7, "2 nan 0 0"), "7: non-finite coordinate on node 2"),
    # node 9 is used by no cell and checked all the same
    (edited(4, 6, "5", "1 0 0 0", "9 inf 0 0"), "7: non-finite coordinate on node 9"),
    # the second of two $Elements sections, one triangle each
    (edited(11, 14, "1", "1 2 2 1 1 1 2 3", "$EndElements", "$Elements", "1",
            "2 2 2 1 1 1 3 4"), "15: repeated section $Elements"),
    (edited(6, 7, "1 1 0 0"), "5: duplicate node id"),
    (edited(11, 14, "2", "1 4 0 1 2 3 4", "2 1 0 1 2"),
     "12: line elements are unsupported in a tetrahedral mesh"),
    (edited(11, 14, "1", "1 1 0 1 2"), "12: file contains no triangles or tetrahedra"),
    (edited(1, 2, "4.1 0 8"), "2: unsupported mesh format, need '2.2 0 8'"),
    (edited(3, 3, "Nodes"), "4: expected section header, got 'Nodes'"),
], ids=["no-format", "no-nodes", "no-elements", "node-count", "node-lines",
        "element-count", "element-lines", "z-0.5", "z-nan", "z-inf", "x-nan",
        "unused-x-inf", "repeated-section", "duplicate-node", "lines-and-tets",
        "no-cells", "format", "no-header"])
def test_read_message_names_path_and_line(tmp_path, edit, message):
    path = tmp_path / "cut.msh"
    path.write_text("\n".join(edit(list(TWO_TRIANGLES))) + "\n")
    with pytest.raises(MeshFormatError) as info:
        read_gmsh(path)
    assert str(info.value) == f"{path}:{message}"


def test_read_accepts_blank_padded_markers(tmp_path):
    # headers and end markers may carry blanks; a skipped section may repeat
    padded = [f" {line}\t" if line.startswith("$") else line for line in TWO_TRIANGLES]
    notes = ["$NodeData", "note", "$EndNodeData "]
    path = tmp_path / "padded.msh"
    path.write_text("\n".join(padded + notes + notes) + "\n")
    plain = tmp_path / "plain.msh"
    plain.write_text("\n".join(TWO_TRIANGLES) + "\n")
    mesh, ref = read_gmsh(path), read_gmsh(plain)
    assert np.array_equal(mesh.vertices, ref.vertices)
    assert np.array_equal(mesh.cells, ref.cells)
    assert mesh.num_cells == 2


def test_read_unclosed_section(tmp_path):
    path = tmp_path / "open.msh"
    path.write_text("$MeshFormat\n2.2 0 8\n")
    with pytest.raises(MeshFormatError, match="not closed"):
        read_gmsh(path)


def test_packaged_quarter_core_asset():
    ref = importlib.resources.files("critifem") / "data" / "iaea2d_quarter.msh"
    with importlib.resources.as_file(ref) as path:
        mesh = read_gmsh(path)
    assert mesh.dim == 2
    assert np.unique(mesh.region_tags).tolist() == [1, 2, 3, 4, 5]
    assert mesh.num_cells > 1000


def test_packaged_quarter_core_matches_its_generator(tmp_path):
    # the packaged asset is what scripts/make_iaea_mesh.py writes, byte for byte
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "make_iaea_mesh.py"
    spec = importlib.util.spec_from_file_location("make_iaea_mesh", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = tmp_path / "quarter.msh"
    write_msh(module.build_quarter_core(), path)
    ref = importlib.resources.files("critifem") / "data" / "iaea2d_quarter.msh"
    assert path.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("line,bad", [
    (12, "elem-one 2 2 1 1 1 2 3"),  # element id
    (13, "2 2 -1 3 4"),  # negative tag count
])
def test_read_bad_element_header_reports_its_line(tmp_path, line, bad):
    lines = list(TWO_TRIANGLES)
    lines[line] = bad
    path = tmp_path / "typo.msh"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(MeshFormatError, match=rf"typo\.msh:{line + 1}: bad element line "):
        read_gmsh(path)


def test_read_duplicate_element_id_rejected(tmp_path):
    path = tmp_path / "twice.msh"
    path.write_text("\n".join([
        "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
        "$Nodes", "4", "1 0 0 0", "2 1 0 0", "3 1 1 0", "4 0 1 0", "$EndNodes",
        "$Elements", "2", "7 2 2 1 1 1 2 3", "7 2 2 1 1 1 3 4", "$EndElements",
    ]) + "\n")
    with pytest.raises(MeshFormatError, match="duplicate element id"):
        read_gmsh(path)


@pytest.mark.parametrize("first,second,message", [
    # the earlier line is named, whatever its field count and fault
    ("1 2 2 1 1 1 2 9", "2 2 x 1 3 4", "13: element references unknown node 9"),
    ("1 2 1 1 1 2 3 4", "2 2 2 1 1 1 3 9", "13: element line has wrong field count"),
    ("1 15 1 1 1 2 3", "2 2 2 1 1 1 3 x", "13: unsupported element type 15"),
])
def test_read_names_the_first_offending_element_line(tmp_path, first, second, message):
    path = tmp_path / "two.msh"
    path.write_text("\n".join([
        "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
        "$Nodes", "4", "1 0 0 0", "2 1 0 0", "3 1 1 0", "4 0 1 0", "$EndNodes",
        "$Elements", "2", first, second, "$EndElements",
    ]) + "\n")
    with pytest.raises(MeshFormatError, match=rf"two\.msh:{message}$"):
        read_gmsh(path)


def loop_read_gmsh(path):
    """Reference reader: the MSH subset parsed one line at a time, with a
    dict from node id to index (the reader before block parsing)."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    sections = {}
    i = 0
    while i < len(lines):
        name = lines[i].strip()
        if not name:
            i += 1
            continue
        j = lines.index(f"$End{name[1:]}", i + 1)
        sections[name] = lines[i + 1 : j]
        i = j + 1
    assert sections["$MeshFormat"][0].split()[:2] == ["2.2", "0"]

    body = sections["$Nodes"]
    nnodes = int(body[0])
    assert len(body) - 1 == nnodes
    ids = np.empty(nnodes, dtype=np.int64)
    xyz = np.empty((nnodes, 3))
    for r, line in enumerate(body[1:]):
        parts = line.split()
        assert len(parts) == 4
        ids[r] = int(parts[0])
        xyz[r] = [float(p) for p in parts[1:]]
    id2idx = {int(v): k for k, v in enumerate(ids)}
    assert len(id2idx) == nnodes

    body = sections["$Elements"]
    assert len(body) - 1 == int(body[0])
    sizes = {1: 2, 2: 3, 4: 4}
    by_type = {1: ([], []), 2: ([], []), 4: ([], [])}
    for line in body[1:]:
        etype, ntags, *rest = map(int, line.split()[1:])
        assert len(rest) == ntags + sizes[etype]
        by_type[etype][0].append([id2idx[p] for p in rest[ntags:]])
        by_type[etype][1].append(rest[0] if ntags >= 1 else 1)

    # boundary elements are read and checked like the cells, then ignored
    if by_type[4][0]:
        dim, (cells, rtags) = 3, by_type[4]
        assert not by_type[1][0]
    else:
        dim, (cells, rtags) = 2, by_type[2]
    return Mesh(
        dim,
        xyz[:, :dim],
        np.array(cells, dtype=np.int64),
        np.array(rtags, dtype=np.int64),
    )


def scrambled_msh(mesh, path, rng):
    """Write mesh with shuffled, non-contiguous node and element ids, 0 to 3
    tags per element line, and facet and cell lines interleaved."""
    nv = mesh.num_vertices
    node_ids = rng.permutation(rng.choice(np.arange(1, 20 * nv), nv, replace=False))
    out = ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(nv)]
    for k in rng.permutation(nv):
        coords = list(mesh.vertices[k]) + [0.0] * (3 - mesh.dim)
        out.append(f"{node_ids[k]} " + " ".join(repr(float(c)) for c in coords))
    out.append("$EndNodes")
    facet_type, cell_type = (1, 2) if mesh.dim == 2 else (2, 4)
    # every other boundary facet, tagged 2..4; cells keep their region tag
    listed = np.arange(0, len(mesh.boundary_facets), 2)
    elements = [(facet_type, 2 + k % 3, mesh.boundary_facets[f])
                for k, f in enumerate(listed)]
    elements += [(cell_type, t, c) for t, c in zip(mesh.region_tags, mesh.cells)]
    elements = [elements[k] for k in rng.permutation(len(elements))]
    elem_ids = rng.choice(np.arange(1, 10 * len(elements)), len(elements), replace=False)
    out += ["$Elements", str(len(elements))]
    for k, (etype, tag, conn) in enumerate(elements):
        ntags = k % 4
        if ntags == 0 and tag != 1:
            ntags = 1  # a line without tags would default the tag to 1
        tags = [tag, 100 + k, 7][:ntags]
        fields = [elem_ids[k], etype, ntags, *tags, *node_ids[conn]]
        out.append(" ".join(str(int(f)) for f in fields))
    out.append("$EndElements")
    path.write_text("\n".join(out) + "\n")


def two_region_square():
    base = generate_unit_square(4)
    centroid_x = base.vertices[base.cells].mean(axis=1)[:, 0]
    return Mesh(2, base.vertices, base.cells, np.where(centroid_x < 0.5, 1, 2))


def two_region_cube():
    base = generate_unit_cube(2)
    centroid_z = base.vertices[base.cells].mean(axis=1)[:, 2]
    return Mesh(3, base.vertices, base.cells, np.where(centroid_z < 0.5, 1, 2))


def msh_files(tmp_path):
    ref = importlib.resources.files("critifem") / "data" / "iaea2d_quarter.msh"
    with importlib.resources.as_file(ref) as quarter_core:
        yield quarter_core
    for name, mesh in [("square", generate_unit_square(3)), ("lshape", generate_lshape(4)),
                       ("disk", generate_disk(3)), ("cube", generate_unit_cube(2))]:
        path = tmp_path / f"{name}.msh"
        write_msh(mesh, path)
        yield path
    rng = np.random.default_rng(7)
    for name, mesh in [("mixed2d", two_region_square()), ("mixed3d", two_region_cube())]:
        path = tmp_path / f"{name}.msh"
        scrambled_msh(mesh, path, rng)
        yield path


def test_reader_matches_line_by_line_reference(tmp_path):
    for path in msh_files(tmp_path):
        mesh, ref = read_gmsh(path), loop_read_gmsh(path)
        assert mesh.dim == ref.dim
        for name in ("vertices", "cells", "region_tags", "boundary_facets"):
            got, want = getattr(mesh, name), getattr(ref, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), (path, name)
