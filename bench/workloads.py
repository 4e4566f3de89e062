"""The benchmark's workloads: inputs drawn from the seed, one pass, checks.

A workload object is built once per run from the seed. `warmup()` runs
the pipeline once at the workload's smallest size, `run()` is one timed
pass and returns the outcome of each checked operation (its result, or a
`Failed` record when it raised), and `check()` grades those outcomes
outside the timed region. An operation fails if it raises, misses a
correctness check, or returns fewer than m pairs.

Every call into the program goes through a module attribute
(`convergence.run_study`, `app.cli`, ...), so the tracer's wrappers see
it when they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import re
import traceback
from dataclasses import dataclass, fields

import numpy as np

from critifem import app, assembly, convergence, eigensolver, fem_space, materials, mesh


@dataclass(frozen=True)
class Failed:
    """An operation that raised; message carries the traceback."""

    message: str


def _attempt(fn, *args, **kwargs):
    # One failing operation must not stop the run: it is recorded and
    # counted against fail_rate instead.
    try:
        return fn(*args, **kwargs)
    except Exception:
        return Failed(traceback.format_exc(limit=-4).strip())


def draw_deck(seed):
    """Homogeneous Dirichlet deck for a seed.

    Seed 0 is the paper-table1 deck. Any other seed scales each of its
    seven constants by a factor drawn uniformly from [0.8, 1.2], redrawn
    until the coupled form is elliptic. Mesh sizes and the sparsity of
    every matrix stay fixed; only the coefficients change.
    """
    base, bc = materials.builtin_deck("paper-table1")[1]
    if seed == 0:
        return {1: (base, bc)}
    rng = np.random.default_rng(seed)
    names = [f.name for f in fields(materials.GroupConstants)]
    while True:
        factors = rng.uniform(0.8, 1.2, size=len(names))
        gc = materials.GroupConstants(
            **{n: getattr(base, n) * f for n, f in zip(names, factors)}
        )
        if materials.ellipticity_check(gc).elliptic:
            return {1: (gc, bc)}


def _rel(a, b):
    return abs(a - b) / abs(b)


def _pipeline(generate, n, degree, deck):
    grid = generate(n)
    dofmap = fem_space.build_dofmap(grid, degree)
    return assembly.assemble(grid, dofmap, deck, degree)


_GENERATE = {
    "disk": lambda n: mesh.generate_disk(n),
    "cube": lambda n: mesh.generate_unit_cube(n),
    "square": lambda n: mesh.generate_unit_square(n),
}


class Study:
    """`convergence.run_study` on one domain and degree, m = 5.

    Checks: the finest-mesh eigenvalues match the closed-form references
    in sorted order (a skipped mode shifts every later index and fails),
    the first index converges at a rate within `rates`, and its
    extrapolated value is within `extrap_tol` of the reference.
    """

    m = 5

    def __init__(self, seed, outdir, domain, degree, resolutions, fine_tol,
                 extrap_tol, rates):
        self.domain, self.degree, self.resolutions = domain, degree, resolutions
        self.deck = draw_deck(seed)
        self.label = f"seed-{seed}"
        self.refs = convergence.reference_eigenvalues(domain, self.m, self.deck[1][0])
        self.fine_tol, self.extrap_tol, self.rates = fine_tol, extrap_tol, rates

    def warmup(self):
        system = _pipeline(_GENERATE[self.domain], self.resolutions[0],
                           self.degree, self.deck)
        eigensolver.solve_primal(system, eigensolver.SolverSettings(m=self.m))

    def run(self):
        return {"run_study": _attempt(
            convergence.run_study, self.domain, self.degree, self.resolutions,
            deck=self.deck, deck_label=self.label, m=self.m,
        )}

    def check(self, out):
        study = out["run_study"]
        if isinstance(study, Failed):
            return {"run_study": [study.message]}
        errors = []
        fine = study.eigenvalues[-1]
        if len(fine) < self.m:
            errors.append(f"{len(fine)} of {self.m} eigenvalues")
        for j, (lam, ref) in enumerate(zip(fine, self.refs), 1):
            if not _rel(lam, ref) <= self.fine_tol:  # NaN fails too
                errors.append(f"lambda_{j} = {lam!r} vs reference {ref!r}")
        fit = study.fits[0]
        lo, hi = self.rates
        if not lo <= fit.rate <= hi:
            errors.append(f"rate of lambda_1 = {fit.rate:.3f}, not in [{lo}, {hi}]")
        if not _rel(fit.extrapolated, self.refs[0]) <= self.extrap_tol:
            errors.append(
                f"extrapolated lambda_1 = {fit.extrapolated!r} vs {self.refs[0]!r}"
            )
        errors += [note for note in study.notes if "non-real" in note]
        return {"run_study": errors}


class Modes:
    """Square, degree 2: `solve_primal` then `solve_adjoint` on one system.

    Checks: eigenvalues within ref_tol of the closed form, primal and
    adjoint eigenvalues equal to 1e-8, B-biorthogonality of primal and
    adjoint vectors to 1e-8 between distinct eigenvalues (vectors inside
    a degenerate cluster may mix, so those pairs are exempt), and every
    pair recertified by `eigensolver.residual` to 10 tol.
    """

    def __init__(self, seed, outdir, n, m, ref_tol):
        self.n, self.m, self.ref_tol = n, m, ref_tol
        self.deck = draw_deck(seed)
        self.settings = eigensolver.SolverSettings(m=m)
        self.refs = np.array(
            convergence.reference_eigenvalues("square", m, self.deck[1][0])
        )

    def warmup(self):
        system = _pipeline(_GENERATE["square"], 8, 2, self.deck)
        eigensolver.solve_primal(system, eigensolver.SolverSettings(m=self.m))

    def run(self):
        system = _attempt(_pipeline, _GENERATE["square"], self.n, 2, self.deck)
        if isinstance(system, Failed):
            return {"primal": system, "adjoint": system}
        return {
            "system": system,
            "primal": _attempt(eigensolver.solve_primal, system, self.settings),
            "adjoint": _attempt(eigensolver.solve_adjoint, system, self.settings),
        }

    def _pairs(self, system, sols, errors):
        if len(sols) < self.m:
            errors.append(f"{len(sols)} of {self.m} pairs")
            return
        lams = np.array([s.lam for s in sols])
        worst = np.max(np.abs(lams - self.refs) / self.refs)
        if not worst <= self.ref_tol:
            errors.append(f"eigenvalue off its reference by {worst:.2e}")
        accept = 10.0 * self.settings.tol
        for j, sol in enumerate(sols, 1):
            res = eigensolver.residual(system, sol)
            if not (res <= accept and sol.residual <= accept):
                errors.append(f"pair {j}: residual {res:.2e} > {accept:.0e}")

    def check(self, out):
        primal, adjoint = out["primal"], out["adjoint"]
        errors = {"primal": [], "adjoint": []}
        for op, sols in (("primal", primal), ("adjoint", adjoint)):
            if isinstance(sols, Failed):
                errors[op].append(sols.message)
            else:
                self._pairs(out["system"], sols, errors[op])
        if errors["primal"] or errors["adjoint"]:
            return errors
        system = out["system"]
        gap = max(_rel(p.lam, a.lam) for p, a in zip(primal, adjoint))
        if not gap <= 1e-8:
            errors["adjoint"].append(f"primal/adjoint eigenvalues differ by {gap:.1e}")
        X = np.column_stack([np.concatenate([system.restrict(s.phi1),
                                             system.restrict(s.phi2)]) for s in primal])
        Y = np.column_stack([np.concatenate([system.restrict(s.phi1),
                                             system.restrict(s.phi2)]) for s in adjoint])
        G = np.abs(Y.T @ (system.B @ X))
        distinct = np.abs(self.refs[:, None] - self.refs[None, :]) > 1e-9 * self.refs
        coupling = np.max(G[distinct]) / np.max(np.diag(G))
        if not coupling <= 1e-8:
            errors["adjoint"].append(
                f"B-biorthogonality across distinct eigenvalues {coupling:.1e}"
            )
        return errors


class Cli:
    """`critifem benchmark iaea2d`, then `critifem solve` on the packaged
    quarter-core mesh with the iaea-2d deck, writing VTK and the
    coefficient CSV. The deck is fixed; the seed does not change it.

    Checks: exit code 0, k_eff = 0.9814 +- 0.01 from both commands, five
    spectrum lines from `solve`, and output bytes identical to the first
    pass of the run.
    """

    m = 5

    def __init__(self, seed, outdir, degree):
        self.outdir = outdir
        self.degree = degree
        msh = str(app.packaged_mesh_path())
        self.commands = {
            "benchmark": ["benchmark", "iaea2d", "--out", outdir],
            "solve": ["solve", "--mesh", msh, "--deck", "iaea-2d",
                      "--degree", str(degree), "--num", str(self.m), "--out", outdir],
        }
        self.digests = None

    def _call(self, argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = app.cli(argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def _drain(self):
        """Digest of every output file, removing them for the next pass."""
        digests = {}
        for name in sorted(os.listdir(self.outdir)):
            path = os.path.join(self.outdir, name)
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
            os.unlink(path)
        return digests

    def warmup(self):
        self._call(self.commands["benchmark"])
        self._drain()

    def run(self):
        return {op: _attempt(self._call, argv) for op, argv in self.commands.items()}

    def check(self, out):
        digests = self._drain()
        errors = {}
        for op, outcome in out.items():
            errs = errors[op] = []
            if isinstance(outcome, Failed):
                errs.append(outcome.message)
                continue
            code, text, err = outcome
            if code != 0:
                errs.append(f"exit code {code}: {err.strip()}")
                continue
            if op == "benchmark":
                found = re.findall(r"k_eff = (\S+)", text)
                k_eff = float(found[0]) if found else float("nan")
            else:
                rows = [line.split() for line in text.splitlines()
                        if re.match(r"\s*\d+\s", line)]
                if len(rows) < self.m:
                    errs.append(f"{len(rows)} of {self.m} pairs")
                k_eff = float(rows[0][2]) if rows else float("nan")
            if not abs(k_eff - 0.9814) <= 0.01:
                errs.append(f"k_eff = {k_eff} not within 0.01 of 0.9814")
        if self.digests is None:
            self.digests = digests
        elif digests != self.digests:
            changed = sorted(set(digests.items()) ^ set(self.digests.items()))
            errors["solve"].append(f"output bytes differ from the first pass: {changed}")
        return errors


# Constructor arguments per workload and scale. "full" is what the
# benchmark measures; the finest study levels are trimmed from the sizes
# first proposed (disk N=48, cube N=24) so that a 25 s run holds at least
# three passes, four or more on the disk. "tiny" only exercises every code
# path quickly (smoke.py); its meshes are pre-asymptotic, so its
# tolerances are loose.
WORKLOADS = {
    "study-disk-p3": (Study, {
        "full": dict(domain="disk", degree=3, resolutions=(8, 16, 20),
                     fine_tol=2e-3, extrap_tol=2e-3, rates=(1.8, 2.2)),
        "tiny": dict(domain="disk", degree=3, resolutions=(2, 3, 4),
                     fine_tol=0.05, extrap_tol=0.05, rates=(1.8, 2.6)),
    }),
    "study-cube-p1": (Study, {
        "full": dict(domain="cube", degree=1, resolutions=(6, 12, 18),
                     fine_tol=0.1, extrap_tol=5e-3, rates=(1.8, 2.2)),
        "tiny": dict(domain="cube", degree=1, resolutions=(4, 6, 8),
                     fine_tol=0.25, extrap_tol=0.05, rates=(1.8, 2.6)),
    }),
    "cli-iaea2d": (Cli, {"full": dict(degree=2), "tiny": dict(degree=2)}),
    "modes-square-p2": (Modes, {
        "full": dict(n=64, m=20, ref_tol=1e-4),
        "tiny": dict(n=8, m=6, ref_tol=1e-2),
    }),
}


def make(name, seed, scale, outdir):
    """The workload object for a name in WORKLOADS."""
    cls, params = WORKLOADS[name]
    return cls(seed, outdir, **params[scale])
