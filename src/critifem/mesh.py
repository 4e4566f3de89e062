"""Simplicial meshes for the reactor test domains.

Structured generators for the unit square, the L-shaped domain, the unit
cube and the unit disk, plus a reader and writer for a small subset of
the MSH 2.2 ASCII format used to ship the reactor geometry with region
tags.

All generators return a validated :class:`Mesh`: cells are oriented to
positive signed volume, conformity is checked (every interior facet is
shared by exactly two cells), the cells must form one part joined
through shared facets, and the boundary facets are computed from the
cells as exactly the set of one-cell facets.
"""

from __future__ import annotations

import itertools
import os
import secrets
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

__all__ = [
    "Mesh",
    "MeshFormatError",
    "generate_unit_square",
    "generate_lshape",
    "generate_unit_cube",
    "generate_disk",
    "GENERATORS",
    "generator",
    "read_gmsh",
    "write_msh",
    "mesh_size",
]


class MeshFormatError(ValueError):
    """Raised for malformed or unsupported mesh files, as "<path>:<line>: <message>"."""


def _all_facets(cells):
    """Every (d-1)-facet of every cell, vertex-sorted, in blocks of num_cells.

    Each cell's vertices are sorted once; block j holds every cell with
    its j-th sorted vertex dropped, so the facets come out sorted and row
    r of the stack is a facet of cell r % num_cells.
    """
    srt = np.sort(cells, axis=1)
    return np.vstack([np.delete(srt, j, axis=1) for j in range(cells.shape[1])])


def _rank(values):
    """The rank of each value among the distinct values, which keeps their order."""
    return np.unique(values, return_inverse=True)[1]


def _group_rows(rows):
    """Group the equal rows of a 2-D int64 array, in lexicographic row order.

    Returns (inverse, first, counts) as np.unique(rows, axis=0,
    return_index=True, return_inverse=True, return_counts=True) does:
    group g is the g-th distinct row in ascending lexicographic order,
    rows[first[g]] is its first occurrence and counts[g] its multiplicity.
    The columns are folded into one int64 key, most significant first,
    each shifted by its minimum: key * span + (column - min). A column
    whose range reaches the row count is first replaced by its _rank, and
    so is the key when its size times the next span would reach 2**62;
    both stay below the row count, so the fold never overflows. Every mesh
    facet and DOF node table built here folds without a rank. One
    np.unique of the key groups the rows; its return_index sorts stably,
    so first is the first occurrence.
    """
    n = len(rows)
    key, size = np.zeros(n, dtype=np.int64), 1  # every key lies in [0, size)
    for col in rows.T:
        lo, hi = (int(col.min()), int(col.max())) if n else (0, -1)  # -1: no value
        if hi - lo >= n:
            col, lo, hi = _rank(col), 0, n - 1
        if size * (hi - lo + 1) >= 1 << 62:
            key, size = _rank(key), n
        key, size = key * (hi - lo + 1) + (col - lo), size * (hi - lo + 1)
    _, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    return inverse, first, counts


def _jacobians(vertices, cells):
    """Jacobian J of each simplex's affine map and det J, in closed form.

    Column j of J[c] is the edge from vertex 0 to vertex j + 1 of cell c;
    det J is the 2x2 cofactor formula or the triple product of its rows.
    """
    v = vertices[cells]
    J = (v[:, 1:] - v[:, :1]).transpose(0, 2, 1)
    if J.shape[1] == 2:
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    else:
        det = np.einsum("ci,ci->c", J[:, 0], np.cross(J[:, 1], J[:, 2]))
    return J, det


def _signed_volumes(vertices, cells):
    _, det = _jacobians(vertices, cells)
    return det / (2.0 if vertices.shape[1] == 2 else 6.0)


@dataclass(frozen=True)
class Mesh:
    """Immutable simplicial mesh with per-cell region tags.

    Parameters
    ----------
    dim : int
        Ambient (and topological) dimension, 2 or 3.
    vertices : (nv, dim) float array
    cells : (nc, dim+1) int array
        Simplices; reoriented to positive signed volume on construction.
    region_tags : (nc,) int array
        Material region per cell; tags must form a contiguous set {1..R}.

    Validation sets boundary_facets, the one-cell facets of the cell
    complex, each vertex-sorted, and boundary_cells, the owning cell of
    each of them (aligned with boundary_facets). The mesh carries no
    boundary tags: a boundary facet takes the condition of its cell's
    region.
    Every vertex belongs to a cell; a vertex that no cell uses raises
    ValueError. The DOF map relies on it: vertex DOF = vertex id.
    The cells form one part joined through shared facets; a mesh of
    several parts raises ValueError with their number. Cells that meet
    only at a vertex (or, in 3-D, along an edge) are separate parts.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    region_tags: np.ndarray
    boundary_facets: np.ndarray = field(init=False, repr=False)
    boundary_cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        dim = self.dim
        if dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {dim}")
        verts = np.ascontiguousarray(np.asarray(self.vertices, dtype=np.float64))
        cells = np.ascontiguousarray(np.asarray(self.cells, dtype=np.int64))
        rtags = np.ascontiguousarray(np.asarray(self.region_tags, dtype=np.int64))
        if verts.ndim != 2 or verts.shape[1] != dim:
            raise ValueError(f"vertices must be (nv, {dim}), got {verts.shape}")
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise ValueError(f"cells must be (nc, {dim + 1}), got {cells.shape}")
        if rtags.shape != (cells.shape[0],):
            raise ValueError("region_tags length must match cell count")
        if cells.size and (cells.min() < 0 or cells.max() >= len(verts)):
            raise ValueError("cell vertex index out of range")
        bad = np.flatnonzero(~np.isfinite(verts).all(axis=1))
        if len(bad):
            raise ValueError(f"non-finite vertex {bad[0]}: {verts[bad[0]].tolist()}")
        unused = np.flatnonzero(np.bincount(cells.ravel(), minlength=len(verts)) == 0)
        if len(unused):
            raise ValueError(f"vertex {unused[0]} belongs to no cell")
        # orient: swap the last two vertices of any negatively oriented cell
        vol = _signed_volumes(verts, cells)
        flip = vol < 0
        if np.any(flip):
            cells = cells.copy()
            cells[flip, -2], cells[flip, -1] = (
                cells[flip, -1].copy(),
                cells[flip, -2].copy(),
            )
            vol = np.abs(vol)
        scale = float(np.max(np.abs(vol))) if len(vol) else 0.0
        if len(vol) == 0 or np.any(vol <= 1e-14 * max(scale, 1e-300)):
            raise ValueError("mesh contains a degenerate (zero volume) simplex")

        tagset = np.unique(rtags)
        if not np.array_equal(tagset, np.arange(1, len(tagset) + 1)):
            raise ValueError(
                f"region tags must be contiguous starting at 1, got {tagset.tolist()}"
            )

        # conformity + true boundary: facets shared by exactly one cell
        fac = _all_facets(cells)
        group, first, counts = _group_rows(fac)
        if np.any(counts > 2):
            raise ValueError("non-conforming mesh: a facet is shared by >2 cells")
        # one part through shared facets: the solver's Krylov space holds at
        # most two copies of an eigenvalue, and congruent parts repeat theirs.
        # A shared vertex (2-D) or edge (3-D) does not couple the parts, as a
        # point or a line has zero H1 capacity. Graph row c joins cell c to
        # the owner of each of its facets, the cell of the facet's first row;
        # column c of the (dim + 1, nc) blocks of fac lists cell c's facets.
        nc = len(cells)
        owner = first % nc
        mates = owner[group].reshape(dim + 1, nc).T.ravel()
        indptr = np.arange(nc + 1) * (dim + 1)
        graph = sp.csr_matrix((np.ones(len(fac)), mates, indptr), shape=(nc, nc))
        parts = connected_components(graph, directed=False, return_labels=False)
        if parts > 1:
            raise ValueError(f"the cells form {parts} connected parts; a mesh must be one")
        bfac, bcells = fac[first[counts == 1]], owner[counts == 1]

        for name, value in [
            ("vertices", verts), ("cells", cells), ("region_tags", rtags),
            ("boundary_facets", bfac), ("boundary_cells", bcells),
        ]:
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]


def mesh_size(mesh):
    """h = max over cells of the cell diameter (largest vertex pair distance)."""
    i, j = np.triu_indices(mesh.cells.shape[1], 1)  # every vertex pair
    h2 = 0.0
    for coord in mesh.vertices.T:  # one gather per coordinate: (cells, pairs)
        x = coord[mesh.cells]
        h2 = h2 + (x[:, i] - x[:, j]) ** 2
    return float(np.sqrt(np.max(h2)))


def _grid_triangles(N):
    """SW-NE split of the N x N grid: (N, N, 2, 3) vertex ids, [j, i] per square.

    Vertex (i, j) of the (N+1) x (N+1) grid has id j (N+1) + i.
    """
    sw = np.arange((N + 1) ** 2, dtype=np.int64).reshape(N + 1, N + 1)[:N, :N]
    se, nw, ne = sw + 1, sw + N + 1, sw + N + 2
    return np.stack([sw, se, ne, sw, ne, nw], axis=-1).reshape(N, N, 2, 3)


def _grid_vertices(N):
    xs = np.linspace(0.0, 1.0, N + 1)
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    return np.column_stack([X.ravel(), Y.ravel()])


def generate_unit_square(N):
    """Uniform triangulation of (0,1)^2: N x N squares, each split SW-NE.

    (N+1)^2 vertices and 2 N^2 triangles; every grid square is split along
    the diagonal from its south-west to its north-east corner. Single
    region tag 1.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    cells = _grid_triangles(N).reshape(-1, 3)
    return Mesh(2, _grid_vertices(N), cells, np.ones(len(cells), dtype=np.int64))


def generate_lshape(N):
    """L-shaped domain (0,1)^2 minus [1/2,1)x[1/2,1), N x N grid, N even.

    Same SW-NE split as the square; the (N/2)^2 squares in the upper-right
    quadrant are dropped, leaving (3/2) N^2 triangles. The re-entrant
    corner sits at (1/2, 1/2).
    """
    if N < 2 or N % 2 != 0:
        raise ValueError("N must be even and >= 2 for the L-shape")
    half = N // 2
    keep = np.ones((N, N), dtype=bool)
    keep[half:, half:] = False
    # drop unused grid vertices and renumber; the inverse's shape varies
    # between numpy versions
    used, cells = np.unique(_grid_triangles(N)[keep], return_inverse=True)
    cells = cells.reshape(-1, 3)
    return Mesh(2, _grid_vertices(N)[used], cells, np.ones(len(cells), dtype=np.int64))


# vertex offsets visited on the path from a cube's origin corner to the
# opposite corner, one permutation of the axes per tetrahedron
_KUHN_PERMS = list(itertools.permutations(range(3)))
# (6, 4, 3): the (i, j, k) offset of each tetrahedron's corners from the origin
_KUHN_PATHS = np.concatenate(
    [np.zeros((6, 1, 3), dtype=np.int64),
     np.cumsum(np.eye(3, dtype=np.int64)[_KUHN_PERMS], axis=1)],
    axis=1,
)


def generate_unit_cube(N):
    """Kuhn (Freudenthal) tetrahedralization of (0,1)^3: 6 N^3 tetrahedra.

    Each grid cube is cut into 6 tetrahedra along the main diagonal from
    its origin corner (i,j,k) to (i+1,j+1,k+1): for every permutation
    (p0,p1,p2) of the axes, the tetrahedron spans the corner path
    c, c+e_p0, c+e_p0+e_p1, c+e_p0+e_p1+e_p2. Identical in every cube, so
    the triangulation is conforming. Vertex (i,j,k) has id
    k (N+1)^2 + j (N+1) + i, and cubes are numbered the same way.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    xs = np.linspace(0.0, 1.0, N + 1)
    grid = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1)
    verts = grid.transpose(2, 1, 0, 3).reshape(-1, 3)  # i fastest

    ids = np.arange((N + 1) ** 3, dtype=np.int64).reshape(N + 1, N + 1, N + 1)
    base = ids[:N, :N, :N].ravel()  # origin corner of each cube, [k, j, i]
    strides = np.array([1, N + 1, (N + 1) ** 2], dtype=np.int64)
    cells = (base[:, None, None] + _KUHN_PATHS @ strides).reshape(-1, 4)
    return Mesh(3, verts, cells, np.ones(len(cells), dtype=np.int64))


def generate_disk(N):
    """Concentric-ring triangulation of the unit disk, 8 N^2 triangles.

    Ring j (j = 1..N) carries 8j vertices at radius j/N, so boundary
    vertices lie exactly on the unit circle. Between rings j-1 and j each
    of the 8 sectors of 45 degrees is filled with a strip of 2j-1
    triangles whose radial sector edges are shared with the neighbouring
    sector, keeping the mesh conforming. Total vertex count 1 + 4N(N+1).
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    verts, cells = [np.zeros((1, 2))], []
    inner = np.zeros(1, dtype=np.int64)  # ring 0: the centre
    sector = np.arange(8)[:, None]
    for j in range(1, N + 1):
        r = j / N
        m = 8 * j
        ang = 2.0 * np.pi * np.arange(m) / m
        verts.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
        # ring j's vertex ids, the first repeated at the end; sector s spans
        # its positions s j .. (s+1) j and s (j-1) .. (s+1) (j-1) of ring j-1
        outer = 1 + 4 * j * (j - 1) + np.arange(m + 1) % m
        o, i = sector * j + np.arange(j), sector * (j - 1) + np.arange(j)
        fan = np.stack([outer[o], outer[o + 1], inner[i]], axis=-1)
        back = np.stack([outer[o[:, 1:]], inner[i[:, 1:]], inner[i[:, :-1]]], axis=-1)
        cells.append(np.concatenate([fan, back], axis=1).reshape(-1, 3))
        inner = outer
    verts, cells = np.concatenate(verts), np.concatenate(cells)
    return Mesh(2, verts, cells, np.ones(len(cells), dtype=np.int64))


# the one domain registry: name -> generator of resolution N
GENERATORS = {
    "square": generate_unit_square,
    "lshape": generate_lshape,
    "cube": generate_unit_cube,
    "disk": generate_disk,
}


def generator(domain):
    """The generator of a domain name, looked up in GENERATORS at call time."""
    try:
        return GENERATORS[domain]
    except KeyError:
        raise ValueError(
            f"unknown domain {domain!r}; choose from {tuple(sorted(GENERATORS))}"
        ) from None


# ---------------------------------------------------------------------------
# MSH 2.2 ASCII subset: $MeshFormat / $Nodes / $Elements, element types
# 1 (2-node line), 2 (3-node triangle), 4 (4-node tetrahedron).
# ---------------------------------------------------------------------------

_MSH_NODES_PER_TYPE = {1: 2, 2: 3, 4: 4}
_MSH_NODE_ROW = np.dtype([("id", np.int64), ("xyz", np.float64, (3,))])
# the sections read; any other section is skipped, and may repeat
_MSH_SECTIONS = ("$MeshFormat", "$Nodes", "$Elements")


def _loadtxt(lines, dtype):
    """One np.loadtxt of the lines as rows of dtype, blank lines skipped;
    None if a line does not parse."""
    if not any(map(str.strip, lines)):  # np.loadtxt warns on no data
        return np.zeros(0, dtype)
    try:
        return np.loadtxt(lines, dtype, comments=None, ndmin=1)
    except ValueError:
        return None


def _first_bad_line(lines, dtype):
    """The index of the first line that is blank or does not parse alone
    as a row of dtype; len(lines) if there is none."""
    for k, line in enumerate(lines):
        if not line.strip() or _loadtxt([line], dtype) is None:
            return k
    return len(lines)


def _read_lines(path, encoding, error):
    """The lines of a text file. A byte that does not decode raises
    error("<path>:<line>: <message>"), with the 1-based number of the line
    that holds it."""
    data = Path(path).read_bytes()
    try:
        return data.decode(encoding).splitlines()
    except UnicodeDecodeError as e:
        # the byte is on the last line of the text before it, extended by
        # one character so that a line break just before it counts
        line = len((data[: e.start].decode(encoding) + ".").splitlines())
        message = f"cannot decode byte 0x{data[e.start]:02x} as {encoding}"
        raise error(f"{path}:{line}: {message}") from None


def read_gmsh(path):
    """Read an MSH 2.2 ASCII file into a :class:`Mesh`.

    Cells take their region tag from the first (physical) element tag;
    a cell with no tags defaults to region 1. The mesh dimension is 3
    when tetrahedra are present, else 2. Boundary elements (lines in 2-D,
    triangles in 3-D) pass the element-line checks and are then ignored:
    the boundary is the one-cell facets of the cells. Vertices are the
    nodes that some cell references, in file order; the other nodes are
    dropped.
    Malformed sections and unsupported element types raise
    :class:`MeshFormatError` with the offending line number; a mesh that
    :class:`Mesh` refuses raises it with the $Elements count line.
    """
    lines = _read_lines(path, "ascii", MeshFormatError)

    def err(msg, ln):
        raise MeshFormatError(f"{path}:{ln}: {msg}")

    # headers and end markers are matched with their surrounding blanks stripped
    marks = list(map(str.strip, lines))
    sections = {}
    i = 0
    while i < len(lines):
        name = marks[i]
        if not name:
            i += 1
            continue
        if not name.startswith("$") or name.startswith("$End"):
            err(f"expected section header, got {name!r}", i + 1)
        if name in sections and name in _MSH_SECTIONS:
            err(f"repeated section {name}", i + 1)
        end = f"$End{name[1:]}"
        try:
            j = marks.index(end, i + 1)
        except ValueError:
            err(f"section {name} not closed by {end}", i + 1)
        sections[name] = (i + 1, lines[i + 1 : j])
        i = j + 1

    def section(name):
        """The header's line number and the body of a section that must exist."""
        if name not in sections:
            err(f"missing {name} section", 1)
        return sections[name]

    def counted(name, what):
        """The header's line number and the lines that the count line counts."""
        ln0, body = section(name)
        try:
            count = int(body[0])
        except (IndexError, ValueError):
            err(f"bad {what} count", ln0 + 1)
        if len(body) - 1 != count:
            err(f"expected {count} {what} lines, found {len(body) - 1}", ln0 + 1)
        return ln0, body[1:]

    ln0, body = section("$MeshFormat")
    if not body or body[0].split()[:2] != ["2.2", "0"]:
        err("unsupported mesh format, need '2.2 0 8'", ln0 + 1)

    node_ln0, nlines = counted("$Nodes", "node")
    nodes = _loadtxt(nlines, _MSH_NODE_ROW)
    if nodes is None or len(nodes) < len(nlines):
        r = _first_bad_line(nlines, _MSH_NODE_ROW)
        err(f"bad node line {nlines[r]!r}", node_ln0 + 2 + r)
    ids, xyz = nodes["id"], nodes["xyz"]
    order = np.argsort(ids)
    sorted_ids = ids[order]
    if np.any(sorted_ids[1:] == sorted_ids[:-1]):
        err("duplicate node id", node_ln0 + 1)

    ln0, elines = counted("$Elements", "element")
    nelem = len(elines)

    # every field is an integer: id, type, tag count, tags, node ids. All
    # lines are parsed as one row of fields, line r's from start[r] on, and
    # each column below is gathered from it. If a line does not parse, only
    # the lines before it are, so that their faults come first; it and the
    # lines after it count as lines of no field, which are bad. Four fields
    # of padding keep every gather in range; a gather that leaves its line
    # serves only a line that the checks below refuse.
    nfields = np.fromiter(map(len, map(str.split, elines)), np.int64, count=nelem)
    pad = ["0 0 0 0"]
    fields = _loadtxt([" ".join(elines + pad)], np.int64)
    if fields is None:
        ok = _first_bad_line(elines, np.int64)
        fields, nfields[ok:] = _loadtxt([" ".join(elines[:ok] + pad)], np.int64), 0
    start = np.cumsum(nfields) - nfields
    eid, etype, ntags, tag = (fields[start + k] for k in range(4))
    tags = np.where(ntags >= 1, tag, 1)
    nv = np.zeros(nelem, dtype=np.int64)  # 0 marks an unsupported type
    for t, n in _MSH_NODES_PER_TYPE.items():
        nv[etype == t] = n
    # the node ids, the last nv fields, fill conn from the left; the columns
    # past nv repeat the last one, which np.searchsorted finds fastest
    first = start + nfields - nv
    conn = fields[first[:, None] + np.minimum(np.arange(4), nv[:, None] - 1)]

    bad = (nfields < 3) | (ntags < 0)
    miscount = nfields != 3 + ntags + nv
    pos = np.searchsorted(sorted_ids, conn)
    found = pos < len(ids)
    found[found] = sorted_ids[pos[found]] == conn[found]
    missing = ~found & (np.arange(4) < nv[:, None])
    failed = bad | (nv == 0) | miscount | missing.any(axis=1)
    if failed.any():
        r = int(np.argmax(failed))
        ln = ln0 + 2 + r
        if bad[r]:
            err(f"bad element line {elines[r]!r}", ln)
        if nv[r] == 0:
            err(f"unsupported element type {etype[r]}", ln)
        if miscount[r]:
            err("element line has wrong field count", ln)
        err(f"element references unknown node {conn[r][missing[r]][0]}", ln)
    if len(np.unique(eid)) != nelem:
        err("duplicate element id", ln0 + 1)

    if np.any(etype == 4):
        dim, cell_type = 3, 4
        if np.any(etype == 1):
            err("line elements are unsupported in a tetrahedral mesh", ln0 + 1)
    elif np.any(etype == 2):
        dim, cell_type = 2, 2
    else:
        err("file contains no triangles or tetrahedra", ln0 + 1)
    is_cell = etype == cell_type

    # every node line is checked, used or not; a nan z is not zero
    flat = np.abs(xyz[:, 2]) <= 1e-12
    if dim == 2 and not flat.all():
        err("2D mesh has nonzero z coordinates", node_ln0 + 2 + int(np.argmin(flat)))
    finite = np.isfinite(xyz[:, :dim]).all(axis=1)
    if not finite.all():
        r = int(np.argmin(finite))
        err(f"non-finite coordinate on node {ids[r]}", node_ln0 + 2 + r)

    # nodes in file order; those that no cell references are dropped
    cell_nodes = order[pos[is_cell, : dim + 1]]
    used = np.zeros(len(ids), dtype=bool)
    used[cell_nodes] = True
    index = np.cumsum(used) - 1
    try:
        return Mesh(dim, xyz[used, :dim], index[cell_nodes], tags[is_cell])
    except ValueError as e:  # Mesh refuses the elements as a whole
        raise MeshFormatError(f"{path}:{ln0 + 1}: {e}") from None


def _atomic_write(path, lines):
    """Write the lines, each ended by a newline, to path via temp file + rename.

    The temp file is created with mode 0o666, so the process umask sets
    its permissions as it would for a plain open(path, "w").
    """
    directory = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(directory, f".tmp-{secrets.token_hex(8)}")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
            break
        except FileExistsError:
            pass  # another writer's temp file: draw a new name
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_msh(mesh, path):
    """Write the MSH 2.2 ASCII subset read by :func:`read_gmsh`.

    Coordinates use repr-exact formatting so a write/read round trip
    reproduces them bit for bit. The boundary facets are written as
    boundary elements with tag 1, which the reader ignores.
    """
    nv, nb, nc = mesh.num_vertices, len(mesh.boundary_facets), mesh.num_cells
    xyz = mesh.vertices.T.tolist()
    if mesh.dim == 2:
        xyz.append([0.0] * nv)

    def elements(first_id, etype, conn, tags):
        # id, type, two tags (physical and elementary, both the tag), nodes
        fmt = f"{{}} {etype} 2 {{}} {{}}" + " {}" * conn.shape[1]
        tags = tags.tolist()
        ids = range(first_id, first_id + len(conn))
        return map(fmt.format, ids, tags, tags, *(conn + 1).T.tolist())

    _atomic_write(path, itertools.chain(
        ["$MeshFormat", "2.2 0 8", "$EndMeshFormat", "$Nodes", str(nv)],
        map("{} {!r} {!r} {!r}".format, range(1, nv + 1), *xyz),
        ["$EndNodes", "$Elements", str(nb + nc)],
        elements(1, 1 if mesh.dim == 2 else 2, mesh.boundary_facets, np.ones(nb, np.int64)),
        elements(nb + 1, 2 if mesh.dim == 2 else 4, mesh.cells, mesh.region_tags),
        ["$EndElements"],
    ))
