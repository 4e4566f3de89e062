"""Mesh generators, validation, and the MSH subset reader/writer."""

import importlib.resources
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from critifem.mesh import (
    Mesh,
    MeshFormatError,
    _group_rows,
    cell_volumes,
    generate_disk,
    generate_lshape,
    generate_unit_cube,
    generate_unit_square,
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


def test_region_and_boundary_defaults():
    mesh = generate_unit_square(3)
    assert mesh.region_ids().tolist() == [1]
    assert mesh.boundary_ids().tolist() == [1]


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


@pytest.mark.parametrize("facets,tags", [
    ([[0, 1], [0, 1]], [1, 1]),
    ([[0, 1], [1, 0]], [2, 3]),  # vertex order does not make a facet distinct
    ([[0, 2], [1, 2], [2, 0]], [1, 1, 1]),
])
def test_duplicate_boundary_facet_rejected(facets, tags):
    with pytest.raises(ValueError, match="duplicate boundary facet listed"):
        Mesh(2, TRI, np.array([[0, 1, 2]]), np.array([1]),
             boundary_facets=np.array(facets), boundary_tags=np.array(tags))


def test_boundary_facets_of_wrong_width_rejected():
    with pytest.raises(ValueError, match=r"boundary_facets must be \(nb, 2\)"):
        Mesh(2, TRI, np.array([[0, 1, 2]]), np.array([1]),
             boundary_facets=np.array([[0, 1, 2]]), boundary_tags=np.array([1]))


def test_interior_facet_listed_as_boundary_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    message = ("listed facet with 0-based vertex indices (1, 2) is not a "
               "boundary facet of the cell complex")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Mesh(2, verts, cells, np.array([1, 1]),
             boundary_facets=np.array([[1, 2]]), boundary_tags=np.array([1]))


def test_boundary_tags_applied_and_defaulted():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    cells = np.array([[0, 1, 2]])
    mesh = Mesh(2, verts, cells, np.array([1]),
                boundary_facets=np.array([[0, 1]]), boundary_tags=np.array([7]))
    tags = {tuple(f): int(t) for f, t in zip(mesh.boundary_facets, mesh.boundary_tags)}
    assert tags[(0, 1)] == 7
    assert tags[(0, 2)] == 1  # unlisted boundary facets default to tag 1
    assert tags[(1, 2)] == 1


@given(
    hnp.arrays(np.int64, st.tuples(st.integers(1, 60), st.integers(1, 7)),
               elements=st.integers(-1, 3))
)
@settings(max_examples=60, deadline=None)
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
        assert np.array_equal(back.boundary_tags, mesh.boundary_tags)


def test_roundtrip_multiregion(tmp_path):
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    cells = np.array([[0, 1, 2], [1, 3, 2]])
    mesh = Mesh(2, verts, cells, np.array([2, 1]))
    path = tmp_path / "two.msh"
    write_msh(mesh, path)
    back = read_gmsh(path)
    assert back.region_tags.tolist() == [2, 1]
    assert back.num_vertices == 4


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
    lines = [
        "$MeshFormat", "2.2 0 8", "$EndMeshFormat",
        "$Nodes", "4", "1 0 0 0", "2 1 0 0", "3 1 1 0", "4 0 1 0", "$EndNodes",
        "$Elements", "2", "1 2 2 1 1 1 2 3", "2 2 2 1 1 1 3 4", "$EndElements",
    ]
    lines[line] = bad
    path = tmp_path / "typo.msh"
    path.write_text("\n".join(lines) + "\n")
    where = rf"typo\.msh:{line + 1}: bad (node|element) line "
    with pytest.raises(MeshFormatError, match=where):
        read_gmsh(path)


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
    assert mesh.region_ids().tolist() == [1, 2, 3, 4, 5]
    assert mesh.num_cells > 1000
