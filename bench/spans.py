"""Layer spans recorded from outside the program.

`Tracer.install()` replaces the public entry points of the critifem
modules (and the scipy solvers the eigensolver calls) with wrappers that
record one span per call: name, start, end and the index of the span
that was open when the call began. Every reference to a wrapped function
held by a critifem module or by `scipy.sparse.linalg` is replaced,
including the values of module-level registries such as the
domain-generator dicts, so calls through any of them are seen.
`uninstall()` restores the originals.

Spans stay in memory; `layer_metrics()` turns one pass's spans and
counters into the per-layer metrics. A span's self time is its duration
minus the durations of its direct children, so the self times of all
spans plus the time outside every span add up to the pass's wall time.
"""

from __future__ import annotations

import os
import sys
import time
from collections import Counter

import scipy.sparse.linalg as spla

from critifem import app, assembly, convergence, eigensolver, fem_space, mesh

# span name -> the layer its self time is charged to
_LAYER_OF = {
    "mesh.generate": "mesh.generate_s",
    "mesh.read_gmsh": "mesh.read_gmsh_s",
    "fem_space.build_dofmap": "fem_space.build_dofmap_s",
    "assembly.assemble": "assembly.assemble_s",
    "eigensolver.solve_primal": "eigensolver.self_s",
    "eigensolver.solve_adjoint": "eigensolver.self_s",
    "eigensolver.factor": "eigensolver.factor_self_s",
    "eigensolver.arnoldi": "eigensolver.arnoldi_self_s",
    "eigensolver.apply": "eigensolver.apply_self_s",
    "eigensolver.cg": "eigensolver.cg_s",
    "convergence.run_study": "convergence.self_s",
    "app.entry": "app.self_s",
    "app.write": "app.write_s",
}


class Tracer:
    """Span recorder for one process; install only around traced passes."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []
        self._patches = []  # (namespace or registry dict, key, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        def wrapper(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), 0.0, parent]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return wrapper

    def _count(self, key, amount_of):
        def on_result(result, args, kwargs):
            self.counts[key] += amount_of(result, args, kwargs)
        return on_result

    def _eigs(self, original):
        """Arnoldi span whose operator counts and times every matvec."""
        apply_span = self._wrap("eigensolver.apply", lambda f, x: f(x))

        def eigs(A, k=6, *args, **kwargs):
            op = spla.aslinearoperator(A)
            counted = spla.LinearOperator(
                op.shape, matvec=lambda x: apply_span(op.matvec, x), dtype=op.dtype
            )
            self.counts["eigensolver.ritz_requested"] += k
            return original(counted, k, *args, **kwargs)

        return self._wrap("eigensolver.arnoldi", eigs)

    # -- patching ----------------------------------------------------------

    def _replace_everywhere(self, original, replacement):
        namespaces = [vars(spla)] + [
            vars(module) for name, module in list(sys.modules.items())
            if name == "critifem" or name.startswith("critifem.")
        ]
        for namespace in namespaces:
            registries = [v for v in namespace.values() if isinstance(v, dict)]
            for owner in [namespace] + registries:
                for key, value in list(owner.items()):
                    if value is original:
                        self._patches.append((owner, key, value))
                        owner[key] = replacement

    def install(self):
        """Start a fresh recording and patch every entry point."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.spans.clear()
        self.counts.clear()
        cells = self._count("mesh.cells", lambda r, a, k: r.num_cells)
        solved = self._count("eigensolver.pairs_returned", lambda r, a, k: len(r))
        written = self._count(
            "app.output_bytes", lambda r, a, k: os.path.getsize(a[-1])
        )
        targets = [
            (mesh.generate_unit_square, "mesh.generate", cells),
            (mesh.generate_lshape, "mesh.generate", cells),
            (mesh.generate_unit_cube, "mesh.generate", cells),
            (mesh.generate_disk, "mesh.generate", cells),
            (mesh.read_gmsh, "mesh.read_gmsh", cells),
            (fem_space.build_dofmap, "fem_space.build_dofmap",
             self._count("fem_space.dofs", lambda r, a, k: r.n)),
            (assembly.assemble, "assembly.assemble",
             self._count("assembly.nnz_A", lambda r, a, k: r.A.nnz)),
            (eigensolver.solve_primal, "eigensolver.solve_primal", solved),
            (eigensolver.solve_adjoint, "eigensolver.solve_adjoint", solved),
            (convergence.run_study, "convergence.run_study", None),
            (app.cli, "app.entry", None),
            (app.run_iaea2d, "app.entry", None),
            (app.write_vtk, "app.write", written),
            (app._write_coefficient_csv, "app.write", written),
            (spla.splu, "eigensolver.factor",
             self._count("eigensolver.lu_fill_nnz", lambda r, a, k: r.nnz)),
            (spla.cg, "eigensolver.cg", None),
        ]
        for fn, name, on_result in targets:
            self._replace_everywhere(fn, self._wrap(name, fn, on_result))
        self._replace_everywhere(spla.eigs, self._eigs(spla.eigs))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            owner[key] = original
        self._patches.clear()

    # -- summaries ---------------------------------------------------------

    def layer_metrics(self, wall):
        """Per-layer metrics of the spans recorded since `install()`."""
        total = Counter()   # inclusive seconds per span name
        calls = Counter()   # spans per span name
        own = Counter()     # self seconds per layer key
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            total[name] += end - start
            calls[name] += 1
            own[_LAYER_OF[name]] += end - start - inner
        counts = self.counts
        requested = counts["eigensolver.ritz_requested"]
        out = {
            "mesh.generate_s": total["mesh.generate"],
            "mesh.read_gmsh_s": total["mesh.read_gmsh"],
            "mesh.cells": counts["mesh.cells"],
            "fem_space.build_dofmap_s": total["fem_space.build_dofmap"],
            "fem_space.dofs": counts["fem_space.dofs"],
            "assembly.assemble_s": total["assembly.assemble"],
            "assembly.nnz_A": counts["assembly.nnz_A"],
            "eigensolver.solve_primal_s": total["eigensolver.solve_primal"],
            "eigensolver.solve_adjoint_s": total["eigensolver.solve_adjoint"],
            "eigensolver.self_s": own["eigensolver.self_s"],
            "eigensolver.factor_s": total["eigensolver.factor"],
            "eigensolver.factorizations": calls["eigensolver.factor"],
            "eigensolver.lu_fill_nnz": counts["eigensolver.lu_fill_nnz"],
            "eigensolver.arnoldi_s": total["eigensolver.arnoldi"],
            "eigensolver.apply_s": total["eigensolver.apply"],
            "eigensolver.arnoldi_calls": calls["eigensolver.arnoldi"],
            "eigensolver.operator_applies": calls["eigensolver.apply"],
            "eigensolver.certified_ratio": (
                counts["eigensolver.pairs_returned"] / requested if requested else 0.0
            ),
            "eigensolver.inner_cg_calls": calls["eigensolver.cg"],
            "convergence.self_s": own["convergence.self_s"],
            "app.write_s": total["app.write"],
            "app.output_bytes": counts["app.output_bytes"],
            "app.self_s": own["app.self_s"],
        }
        out["harness.other_s"] = wall - sum(own.values())
        return out
