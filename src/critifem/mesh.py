"""Simplicial meshes for the reactor test domains.

Structured generators for the unit square, the L-shaped domain, the unit
cube and the unit disk, plus a reader and writer for a small subset of
the MSH 2.2 ASCII format used to ship the reactor geometry with region
and boundary tags.

All generators return a validated :class:`Mesh`: cells are oriented to
positive signed volume, conformity is checked (every interior facet is
shared by exactly two cells) and the boundary facet list is recomputed
from the cells so it is exactly the set of one-cell facets.
"""

from __future__ import annotations

import itertools
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

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
    "cell_volumes",
]


class MeshFormatError(ValueError):
    """Raised for malformed or unsupported mesh files, with a line number."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line is not None:
            loc += f"{line}:"
        super().__init__(f"{loc} {message}" if loc else message)


def _all_facets(cells):
    """Every (d-1)-facet of every cell, vertex-sorted, stacked by dropped column."""
    nloc = cells.shape[1]
    parts = []
    for drop in range(nloc):
        keep = [i for i in range(nloc) if i != drop]
        parts.append(cells[:, keep])
    fac = np.vstack(parts)
    fac = np.sort(fac, axis=1)
    return fac


def _packed_keys(rows):
    """Sort keys for the rows of a 2-D int64 array, most significant first.

    Each column is shifted by its minimum, and consecutive columns are
    packed mixed-radix into one int64 key while the product of their spans
    (max - min + 1, in Python ints) stays below 2**62. Comparing the keys
    in order compares the rows lexicographically. A column whose span
    alone reaches 2**62 becomes a key of its own, unshifted.
    """
    lo, hi = rows.min(axis=0).tolist(), rows.max(axis=0).tolist()
    keys = []
    radix = 1 << 62  # forces a new key at the first column
    for j, (a, b) in enumerate(zip(lo, hi)):
        span = b - a + 1
        if span >= 1 << 62:
            keys.append(rows[:, j])
            radix = 1 << 62
        elif radix * span < 1 << 62:
            keys[-1] = keys[-1] * span + (rows[:, j] - a)
            radix *= span
        else:
            keys.append(rows[:, j] - a)
            radix = span
    return keys


def _group_rows(rows):
    """Group the equal rows of a 2-D int64 array, in lexicographic row order.

    Returns (inverse, first, counts) as np.unique(rows, axis=0,
    return_index=True, return_inverse=True, return_counts=True) does:
    group g is the g-th distinct row in ascending lexicographic order,
    rows[first[g]] is its first occurrence and counts[g] its multiplicity.
    The rows are packed into as few int64 keys as their column spans
    allow (_packed_keys; one key for every mesh facet and DOF node table
    built here) and ordered by one stable np.lexsort over those keys.
    """
    if len(rows) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    keys = np.array(_packed_keys(rows))
    order = np.lexsort(keys[::-1])  # stable, first key most significant
    srt = keys[:, order]
    starts = np.ones(len(rows), dtype=bool)
    np.any(srt[:, 1:] != srt[:, :-1], axis=0, out=starts[1:])
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(starts) - 1
    starts = np.flatnonzero(starts)
    return inverse, order[starts], np.diff(starts, append=len(rows))


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
    """Immutable simplicial mesh with per-cell region tags and tagged boundary.

    Parameters
    ----------
    dim : int
        Ambient (and topological) dimension, 2 or 3.
    vertices : (nv, dim) float array
    cells : (nc, dim+1) int array
        Simplices; reoriented to positive signed volume on construction.
    region_tags : (nc,) int array
        Material region per cell; tags must form a contiguous set {1..R}.
    boundary_facets : (nb, dim) int array or None
        Tagged boundary facets. If None the true boundary of the cell
        complex is extracted and tagged 1. If given, every listed facet
        must actually lie on the boundary; boundary facets not listed
        default to tag 1.
    boundary_tags : (nb,) int array or None

    Validation replaces boundary_facets by the one-cell facets of the
    cell complex, each vertex-sorted, and sets boundary_cells, the
    owning cell of each of them (aligned with boundary_facets).
    Every vertex belongs to a cell; a vertex that no cell uses raises
    ValueError. The DOF map relies on it: vertex DOF = vertex id.
    """

    dim: int
    vertices: np.ndarray
    cells: np.ndarray
    region_tags: np.ndarray
    boundary_facets: np.ndarray | None = None
    boundary_tags: np.ndarray | None = None
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
        _, first, counts = _group_rows(fac)
        if np.any(counts > 2):
            raise ValueError("non-conforming mesh: a facet is shared by >2 cells")
        first = first[counts == 1]
        bfac = fac[first]
        # _all_facets stacks one block of num_cells facets per dropped column
        bcells = first % len(cells)

        if self.boundary_facets is None:
            btags = np.ones(len(bfac), dtype=np.int64)
        else:
            given = np.asarray(self.boundary_facets, dtype=np.int64)
            if given.ndim != 2 or given.shape[1] != dim:
                raise ValueError(
                    f"boundary_facets must be (nb, {dim}), got {given.shape}"
                )
            given = np.sort(given, axis=1)
            gtags = np.asarray(self.boundary_tags, dtype=np.int64)
            if gtags.shape != (len(given),):
                raise ValueError("boundary_tags length must match boundary_facets")
            # listed facets first, then the true boundary, whose rows are distinct
            group, _, counts = _group_rows(np.concatenate([given, bfac]))
            listed, true = group[: len(given)], group[len(given) :]
            if np.any(np.bincount(listed, minlength=len(counts)) > 1):
                raise ValueError("duplicate boundary facet listed")
            outside = np.flatnonzero(~np.isin(listed, true))
            if len(outside):
                raise ValueError(
                    "listed facet with 0-based vertex indices "
                    f"{tuple(given[outside[0]].tolist())} is not a boundary "
                    "facet of the cell complex"
                )
            tag_of = np.ones(len(counts), dtype=np.int64)
            tag_of[listed] = gtags
            btags = tag_of[true]

        verts.flags.writeable = False
        cells.flags.writeable = False
        rtags.flags.writeable = False
        bfac.flags.writeable = False
        btags.flags.writeable = False
        bcells.flags.writeable = False
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "region_tags", rtags)
        object.__setattr__(self, "boundary_facets", bfac)
        object.__setattr__(self, "boundary_tags", btags)
        object.__setattr__(self, "boundary_cells", bcells)

    @property
    def num_vertices(self):
        return self.vertices.shape[0]

    @property
    def num_cells(self):
        return self.cells.shape[0]

    def region_ids(self):
        """Sorted array of distinct region tags."""
        return np.unique(self.region_tags)

    def boundary_ids(self):
        return np.unique(self.boundary_tags)


def cell_volumes(mesh):
    """Unsigned cell volumes (areas in 2D)."""
    return np.abs(_signed_volumes(mesh.vertices, mesh.cells))


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
    region tag 1, all boundary facets tagged 1.
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
    cells = _grid_triangles(N)[keep].reshape(-1, 3)

    # drop unused grid vertices and renumber
    used = np.unique(cells)
    remap = -np.ones((N + 1) * (N + 1), dtype=np.int64)
    remap[used] = np.arange(len(used))
    verts = _grid_vertices(N)[used]
    cells = remap[cells]
    return Mesh(2, verts, cells, np.ones(len(cells), dtype=np.int64))


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
    verts = [(0.0, 0.0)]
    ring_start = [None]  # index of first vertex of ring j
    for j in range(1, N + 1):
        ring_start.append(len(verts))
        r = j / N
        m = 8 * j
        ang = 2.0 * np.pi * np.arange(m) / m
        verts.extend(zip(r * np.cos(ang), r * np.sin(ang)))
    verts = np.array(verts)

    def ring_vid(j, t):
        if j == 0:
            return 0
        return ring_start[j] + (t % (8 * j))

    tris = []
    for j in range(1, N + 1):
        for s in range(8):
            outer = [ring_vid(j, s * j + t) for t in range(j + 1)]
            inner = [ring_vid(j - 1, s * (j - 1) + t) for t in range(j)]
            if j == 1:
                inner = [0]
                tris.append((outer[0], outer[1], 0))
                continue
            for t in range(j):
                tris.append((outer[t], outer[t + 1], inner[t]))
            for t in range(j - 1):
                tris.append((outer[t + 1], inner[t + 1], inner[t]))
    cells = np.array(tris, dtype=np.int64)
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


def _load_rows(lines, dtype):
    """Parse each text line as one record of the structured ``dtype``.

    Returns the records and a mask of the lines that parsed. A line parses
    when it has exactly as many whitespace-separated fields as ``dtype``
    and each one converts. All lines go to one ``np.loadtxt`` call; only
    if that rejects the block is each line parsed alone, so that the
    caller can name the first bad one.
    """
    if lines:
        try:
            rows = np.loadtxt(lines, dtype, comments=None, ndmin=1)
        except ValueError:
            rows = None
        if rows is not None and len(rows) == len(lines):  # blank lines are skipped
            return rows, np.ones(len(lines), dtype=bool)
    rows = np.zeros(len(lines), dtype)
    ok = np.zeros(len(lines), dtype=bool)
    for k, line in enumerate(lines):
        if line.strip():
            try:
                rows[k : k + 1] = np.loadtxt([line], dtype, comments=None, ndmin=1)
            except ValueError:
                continue
            ok[k] = True
    return rows, ok


def read_gmsh(path):
    """Read an MSH 2.2 ASCII file into a :class:`Mesh`.

    Cells take their region tag and boundary facets their boundary tag
    from the first (physical) element tag; elements with no tags default
    to tag 1. The mesh dimension is 3 when tetrahedra are present, else 2.
    Vertices are the nodes that some cell references, in file order;
    the other nodes are dropped, and a boundary element on one of them
    is an error.
    Malformed sections and unsupported element types raise
    :class:`MeshFormatError` with the offending line number.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()

    def err(msg, ln):
        raise MeshFormatError(msg, path=str(path), line=ln)

    sections = {}
    i = 0
    while i < len(lines):
        name = lines[i].strip()
        if not name:
            i += 1
            continue
        if not name.startswith("$") or name.startswith("$End"):
            err(f"expected section header, got {name!r}", i + 1)
        end = f"$End{name[1:]}"
        try:
            j = lines.index(end, i + 1)
        except ValueError:
            err(f"section {name} not closed by {end}", i + 1)
        sections[name] = (i + 1, lines[i + 1 : j])
        i = j + 1

    if "$MeshFormat" not in sections:
        raise MeshFormatError("missing $MeshFormat section", path=str(path), line=1)
    ln0, body = sections["$MeshFormat"]
    if not body or body[0].split()[:2] != ["2.2", "0"]:
        err("unsupported mesh format, need '2.2 0 8'", ln0 + 1)

    if "$Nodes" not in sections:
        raise MeshFormatError("missing $Nodes section", path=str(path), line=1)
    ln0, body = sections["$Nodes"]
    try:
        nnodes = int(body[0])
    except (IndexError, ValueError):
        err("bad node count", ln0 + 1)
    if len(body) - 1 != nnodes:
        err(f"expected {nnodes} node lines, found {len(body) - 1}", ln0 + 1)
    nodes, ok = _load_rows(body[1:], _MSH_NODE_ROW)
    if not ok.all():
        r = int(np.argmin(ok))
        err(f"bad node line {body[1 + r]!r}", ln0 + 2 + r)
    ids, xyz = nodes["id"], nodes["xyz"]
    order = np.argsort(ids)
    sorted_ids = ids[order]
    if np.any(sorted_ids[1:] == sorted_ids[:-1]):
        err("duplicate node id", ln0 + 1)

    if "$Elements" not in sections:
        raise MeshFormatError("missing $Elements section", path=str(path), line=1)
    ln0, body = sections["$Elements"]
    try:
        nelem = int(body[0])
    except (IndexError, ValueError):
        err("bad element count", ln0 + 1)
    if len(body) - 1 != nelem:
        err(f"expected {nelem} element lines, found {len(body) - 1}", ln0 + 1)

    # every field is an integer: id, type, tag count, tags, node ids. Lines
    # are parsed in groups of equal field count; the node ids, the last nv
    # fields, are stored left-aligned in conn.
    elines = body[1:]
    nfields = np.fromiter(map(len, map(str.split, elines)), np.int64, count=nelem)
    head = np.zeros((nelem, 3), dtype=np.int64)  # id, type, tag count
    parsed = np.zeros(nelem, dtype=bool)
    tags = np.ones(nelem, dtype=np.int64)
    nv = np.zeros(nelem, dtype=np.int64)  # 0 marks an unsupported type
    conn = np.zeros((nelem, 4), dtype=np.int64)
    for width in np.unique(nfields[nfields >= 3]).tolist():
        (rows,) = np.nonzero(nfields == width)
        table, parsed[rows] = _load_rows(
            [elines[r] for r in rows], np.dtype([("f", np.int64, (width,))])
        )
        table = table["f"]
        head[rows] = table[:, :3]
        if width > 3:
            tags[rows] = np.where(table[:, 2] >= 1, table[:, 3], 1)
        for etype, n in _MSH_NODES_PER_TYPE.items():
            match = table[:, 1] == etype
            nv[rows[match]] = n
            if n <= width - 3:
                conn[rows[match], :n] = table[match, width - n :]

    etype, ntags = head[:, 1], head[:, 2]
    bad = ~parsed | (ntags < 0)
    miscount = nfields != 3 + ntags + nv
    pos = np.searchsorted(sorted_ids, conn)
    found = pos < nnodes
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
    if len(np.unique(head[:, 0])) != nelem:
        err("duplicate element id", ln0 + 1)

    if np.any(etype == 4):
        dim, facet_type, cell_type = 3, 2, 4
        if np.any(etype == 1):
            err("line elements are unsupported in a tetrahedral mesh", ln0 + 1)
    elif np.any(etype == 2):
        dim, facet_type, cell_type = 2, 1, 2
    else:
        err("file contains no triangles or tetrahedra", ln0 + 1)
    is_cell, is_facet = etype == cell_type, etype == facet_type

    if dim == 2 and np.any(np.abs(xyz[:, 2]) > 1e-12):
        raise MeshFormatError("2D mesh has nonzero z coordinates", path=str(path))

    # nodes in file order; those that no cell references are dropped
    cell_nodes = order[pos[is_cell, : dim + 1]]
    facet_nodes = order[pos[is_facet, :dim]]
    used = np.zeros(nnodes, dtype=bool)
    used[cell_nodes] = True
    stray = ~used[facet_nodes]
    if stray.any():
        r = int(np.argmax(stray.any(axis=1)))
        err(
            f"boundary element references node {ids[facet_nodes[r][stray[r]][0]]}, "
            "which no cell uses",
            ln0 + 2 + int(np.flatnonzero(is_facet)[r]),
        )
    index = np.cumsum(used) - 1
    has_facets = bool(is_facet.any())
    return Mesh(
        dim,
        xyz[used, :dim],
        index[cell_nodes],
        tags[is_cell],
        boundary_facets=index[facet_nodes] if has_facets else None,
        boundary_tags=tags[is_facet] if has_facets else None,
    )


def _atomic_write(path, lines):
    """Write the lines, each ended by a newline, to path via temp file + rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines))
            fh.write("\n")
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp defaults to 0600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_msh(mesh, path):
    """Write the MSH 2.2 ASCII subset read by :func:`read_gmsh`.

    Coordinates use repr-exact formatting so a write/read round trip
    reproduces them bit for bit.
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
        elements(1, 1 if mesh.dim == 2 else 2, mesh.boundary_facets, mesh.boundary_tags),
        elements(nb + 1, 2 if mesh.dim == 2 else 4, mesh.cells, mesh.region_tags),
        ["$EndElements"],
    ))
