"""Command-line front end and result serialization.

Subcommands
-----------
solve             one mesh: print the spectrum, write eigenfunction fields
converge          refinement study: print the table, write a CSV
benchmark iaea2d  packaged quarter-core problem: dominant k, flux fields
oracle            closed-form eigenvalues of the homogeneous problem
check-ellipticity coercivity report for a deck

The first three write into --out (default .); the last two only print
and take no --out or --tol.

Exit codes: 0 success, 2 configuration error (bad flags, files, deck),
3 solver failure: any SolverError, which the eigensolver raises when it
cannot certify exactly --num pairs (the Arnoldi basis reaches its cap, a
wanted pair misses certification with every eigenvalue in the basis, an
empty spectrum, fewer finite eigenvalues than --num, or no free DOF left
after the Dirichlet conditions).

Config files
------------
Plain text, INI-like, merged under the command-line flags (flags win).
Blank lines and lines starting with # are ignored; no inline comments.
Three section kinds:

    [run]            domain, mesh, degree, resolutions, num, deck, bc,
                     out
    [solver]         tol
    [deck]           inline region-1 constants: D1, D2, sigma_a1,
                     sigma_a2, sigma_12, nu_sigma_f1, nu_sigma_f2,
                     and optionally bc
    [deck.<tag>]     the same keys for further regions

`bc` values are `dirichlet` or `robin:<alpha>` (optionally
`robin:<alpha1>,<alpha2>`). A named deck (`deck = ...` under [run] or
`--deck`) and inline [deck] sections are mutually exclusive. Unknown
sections or keys are rejected with their line number.

Outputs are deterministic: identical configuration produces
byte-identical CSV and VTK files (full-precision repr formatting, no
timestamps), and every file is written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import importlib.resources
import itertools
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .assembly import assemble
from .convergence import (
    DOMAINS,
    analytic_eigenvalue,
    format_table,
    laplacian_modes,
    run_study,
    write_csv,
)
from .eigensolver import SolverError, SolverSettings, solve_primal
from .fem_space import build_dofmap
from .materials import (
    BUILTIN_DECKS,
    BoundaryCondition,
    GroupConstants,
    builtin_deck,
    ellipticity_check,
    validate_for_solve,
)
from .mesh import GENERATORS, _atomic_write, read_gmsh

__all__ = [
    "ConfigError",
    "RunConfig",
    "FieldOutput",
    "field_output",
    "write_vtk",
    "IaeaResult",
    "run_iaea2d",
    "cli",
    "main",
]

class ConfigError(ValueError):
    """Configuration problem: bad flag, file, key or deck. Exit code 2."""


# ---------------------------------------------------------------------------
# config file

_RUN_KEYS = {
    "domain", "mesh", "degree", "resolutions", "num", "deck", "bc", "out",
}
_SOLVER_KEYS = {"tol"}
# the GroupConstants fields, in declaration order
_CONSTANT_KEYS = tuple(f.name for f in fields(GroupConstants))
_DECK_KEYS = {*_CONSTANT_KEYS, "bc"}


def parse_config(path):
    """Read a config file into {section: {key: (value, line_number)}}."""
    sections = {}
    current = None
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror or e}") from e
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            base = name.split(".", 1)[0]
            if base == "deck" and "." in name:
                tag = name.split(".", 1)[1]
                if not tag.isdigit() or int(tag) < 1:
                    raise ConfigError(
                        f"{path}:{ln}: deck section tag must be a positive "
                        f"integer, got [{name}]"
                    )
            elif name not in ("run", "solver", "deck"):
                raise ConfigError(f"{path}:{ln}: unknown section [{name}]")
            if name in sections:
                raise ConfigError(f"{path}:{ln}: duplicate section [{name}]")
            current = sections.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected `key = value`, got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{ln}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        allowed = (
            _RUN_KEYS if current is sections.get("run")
            else _SOLVER_KEYS if current is sections.get("solver")
            else _DECK_KEYS
        )
        if key not in allowed:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
        if key in current:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        current[key] = (value, ln)
    return sections


def _parse_bc(text):
    if text == "dirichlet":
        return BoundaryCondition.dirichlet()
    if text.startswith("robin:"):
        parts = text[len("robin:"):].split(",")
        if len(parts) > 2:
            raise ConfigError(f"bc: at most two Robin coefficients, got {text!r}")
        try:
            alphas = [float(p) for p in parts]
        except ValueError:
            raise ConfigError(f"bc: bad Robin coefficient in {text!r}") from None
        try:
            return BoundaryCondition.robin(*alphas)
        except ValueError as e:
            raise ConfigError(f"bc: {e}") from None
    raise ConfigError(f"bc must be `dirichlet` or `robin:<alpha>`, got {text!r}")


def _inline_deck(sections, path):
    """Build a deck from [deck]/[deck.<tag>] sections."""
    deck = {}
    for name, body in sections.items():
        if name != "deck" and not name.startswith("deck."):
            continue
        tag = 1 if name == "deck" else int(name.split(".", 1)[1])
        kwargs = {}
        for key in _CONSTANT_KEYS:
            if key not in body:
                raise ConfigError(f"{path}: [{name}] is missing {key}")
            value, ln = body[key]
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise ConfigError(
                    f"{path}:{ln}: {key} must be a number, got {value!r}"
                ) from None
        bc = _parse_bc(body["bc"][0]) if "bc" in body else BoundaryCondition.dirichlet()
        try:
            deck[tag] = (GroupConstants(**kwargs), bc)
        except ValueError as e:
            raise ConfigError(f"{path}: [{name}]: {e}") from None
    return deck or None


# ---------------------------------------------------------------------------
# merged configuration

@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one CLI invocation."""

    domain: str | None
    mesh_path: str | None
    degree: int
    resolutions: tuple[int, ...]
    deck: dict
    deck_label: str
    out_dir: str
    settings: SolverSettings  # settings.m is --num


def _pick(cli_value, sections, section, key):
    if cli_value is not None:
        return cli_value
    entry = sections.get(section, {}).get(key)
    return entry[0] if entry is not None else None


def _to_int(value, name, minimum=None):
    try:
        n = int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and n < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {n}")
    return n


def _to_float(value, name):
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number, got {value!r}") from None


def build_config(ns):
    """Merge CLI flags over the config file and validate everything."""
    sections = parse_config(ns.config) if ns.config else {}

    domain = _pick(getattr(ns, "domain", None), sections, "run", "domain")
    mesh_path = _pick(getattr(ns, "mesh", None), sections, "run", "mesh")
    if domain is not None and domain not in DOMAINS:
        raise ConfigError(f"unknown domain {domain!r}; choose from {DOMAINS}")

    degree = _to_int(_pick(getattr(ns, "degree", None), sections, "run", "degree") or 1,
                     "degree")
    if degree not in (1, 2, 3):
        raise ConfigError(f"degree must be 1, 2 or 3, got {degree}")

    res_text = _pick(getattr(ns, "resolutions", None), sections, "run", "resolutions")
    resolutions = ()
    if res_text is not None:
        resolutions = tuple(
            _to_int(p.strip(), "resolutions") for p in str(res_text).split(",") if p.strip()
        )
        if any(n < 1 for n in resolutions):
            raise ConfigError(f"resolutions must be positive, got {res_text!r}")

    default_num = 1 if ns.subcommand == "benchmark" else 5
    num = _to_int(
        _pick(getattr(ns, "num", None), sections, "run", "num") or default_num,
        "num", minimum=1,
    )

    bc_text = _pick(getattr(ns, "bc", None), sections, "run", "bc")
    bc_override = _parse_bc(bc_text) if bc_text is not None else None

    deck_name = _pick(getattr(ns, "deck", None), sections, "run", "deck")
    inline = _inline_deck(sections, ns.config) if ns.config else None
    if deck_name is not None and inline is not None:
        raise ConfigError(
            "deck name and inline [deck] sections are mutually exclusive"
        )
    if inline is not None:
        deck, deck_label = inline, "inline"
    else:
        label = deck_name or (
            "iaea-2d" if ns.subcommand == "benchmark" else "paper-table1"
        )
        try:
            deck = builtin_deck(label)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        deck_label = label
    if bc_override is not None:
        deck = {tag: (gc, bc_override) for tag, (gc, bc) in deck.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # assembly re-validates and warns once
        for tag, (gc, bc) in sorted(deck.items()):
            try:
                validate_for_solve(gc, region=tag)
            except ValueError as e:
                raise ConfigError(f"deck region {tag}: {e}") from None

    solver_kwargs = {"m": num}
    tol = _pick(getattr(ns, "tol", None), sections, "solver", "tol")
    if tol is not None:
        solver_kwargs["tol"] = _to_float(tol, "tol")
    try:
        settings = SolverSettings(**solver_kwargs)
    except ValueError as e:
        raise ConfigError(str(e)) from None

    out_dir = _pick(getattr(ns, "out", None), sections, "run", "out") or "."

    return RunConfig(
        domain=domain, mesh_path=mesh_path, degree=degree, resolutions=resolutions,
        deck=deck, deck_label=deck_label, out_dir=out_dir, settings=settings,
    )


# ---------------------------------------------------------------------------
# field serialization

@dataclass(frozen=True)
class FieldOutput:
    """Vertex-sampled scalar fields over one mesh.

    fields maps names to (num_vertices,) float arrays; higher-degree
    coefficient vectors are sampled at the mesh vertices (the Lagrange
    basis is nodal there), the full coefficients travel in a sidecar
    CSV instead of the VTK file.
    """

    mesh: object
    fields: dict

    def __post_init__(self):
        nv = self.mesh.num_vertices
        for name, arr in self.fields.items():
            if arr.shape != (nv,):
                raise ValueError(
                    f"field {name!r} has shape {arr.shape}, expected ({nv},)"
                )


def field_output(mesh, solutions):
    """Per-eigenpair phi1/phi2 vertex fields, imaginary parts only when
    an eigenvalue came out genuinely complex."""
    nv = mesh.num_vertices
    fields = {}
    for j, sol in enumerate(solutions, 1):
        for gname, vec in (("phi1", sol.phi1), ("phi2", sol.phi2)):
            vertex = np.asarray(vec)[:nv]
            fields[f"{gname}_{j}"] = np.ascontiguousarray(vertex.real, dtype=float)
            if np.iscomplexobj(vertex) and np.max(np.abs(vertex.imag)) > 0:
                fields[f"{gname}_{j}_im"] = np.ascontiguousarray(
                    vertex.imag, dtype=float
                )
    return FieldOutput(mesh=mesh, fields=fields)


def write_vtk(output, path):
    """Legacy ASCII VTK unstructured grid with point-data scalars.

    Deterministic byte-for-byte: full-precision repr coordinates and
    values, constant header, fields in insertion order.
    """
    mesh = output.mesh
    nv, nc = mesh.num_vertices, mesh.num_cells
    nloc = mesh.dim + 1
    xyz = mesh.vertices.T.tolist()
    if mesh.dim == 2:
        xyz.append([0.0] * nv)
    parts = [
        [
            "# vtk DataFile Version 3.0",
            "critifem fields",
            "ASCII",
            "DATASET UNSTRUCTURED_GRID",
            f"POINTS {nv} double",
        ],
        map("{!r} {!r} {!r}".format, *xyz),
        [f"CELLS {nc} {nc * (nloc + 1)}"],
        map((f"{nloc}" + " {}" * nloc).format, *mesh.cells.T.tolist()),
        [f"CELL_TYPES {nc}"],
        itertools.repeat("5" if mesh.dim == 2 else "10", nc),
        [f"POINT_DATA {nv}"],
    ]
    for name, arr in output.fields.items():
        parts.append([f"SCALARS {name} double 1", "LOOKUP_TABLE default"])
        parts.append(map(repr, np.asarray(arr, dtype=float).tolist()))
    _atomic_write(path, itertools.chain.from_iterable(parts))


def _write_coefficient_csv(solutions, n_raw, path):
    # full higher-order coefficients, one row per scalar DOF
    header = ["dof"]
    columns = [map(str, range(n_raw))]
    for j, sol in enumerate(solutions, 1):
        for gname, vec in (("phi1", sol.phi1), ("phi2", sol.phi2)):
            header.append(f"{gname}_{j}")
            col = np.asarray(vec)[:n_raw]
            col = col.astype(complex if np.iscomplexobj(col) else float, copy=False)
            columns.append(map(repr, col.tolist()))
    rows = map(",".join, zip(*columns, strict=True))
    _atomic_write(path, itertools.chain([",".join(header)], rows))


# ---------------------------------------------------------------------------
# benchmark runner

@dataclass(frozen=True)
class IaeaResult:
    """Dominant-mode summary of the quarter-core benchmark."""

    k_eff: float
    solutions: tuple
    fields: FieldOutput
    mesh: object
    boundary_peak_fraction: tuple  # (fast, thermal), boundary max / global max


def packaged_mesh_path():
    return importlib.resources.files("critifem") / "data" / "iaea2d_quarter.msh"


def run_iaea2d(mesh_path=None, degree=1, settings=None):
    """Solve the quarter-core benchmark for its dominant mode.

    Loads the packaged mesh unless mesh_path overrides it, assembles
    with the "iaea-2d" deck, and returns the dominant k = 1/lambda_min
    with the fundamental fluxes normalized per group to unit maximum.
    """
    if mesh_path is None:
        with importlib.resources.as_file(packaged_mesh_path()) as p:
            mesh = read_gmsh(p)
    else:
        mesh = read_gmsh(mesh_path)
    if int(mesh.region_tags.max()) > 5:
        raise ConfigError(
            f"quarter-core mesh must use region tags 1..5, found "
            f"{int(mesh.region_tags.max())}"
        )
    deck = builtin_deck("iaea-2d")
    settings = settings if settings is not None else SolverSettings(m=1)
    dofmap = build_dofmap(mesh, degree)
    solutions = solve_primal(assemble(mesh, dofmap, deck, degree), settings)

    def unit_max(vec):
        vec = np.asarray(vec).real.copy()
        peak = np.argmax(np.abs(vec))
        if vec[peak] < 0:
            vec = -vec
        return vec / vec[peak]

    fundamental = solutions[0]
    normalized = replace(
        fundamental, phi1=unit_max(fundamental.phi1), phi2=unit_max(fundamental.phi2)
    )
    boundary = np.unique(mesh.boundary_facets.reshape(-1))
    nv = mesh.num_vertices
    fractions = tuple(
        float(np.max(np.abs(vec[:nv][boundary])) / np.max(np.abs(vec[:nv])))
        for vec in (normalized.phi1, normalized.phi2)
    )
    fields = field_output(mesh, [normalized] + list(solutions[1:]))
    return IaeaResult(
        k_eff=fundamental.k_eff,
        solutions=tuple([normalized] + list(solutions[1:])),
        fields=fields,
        mesh=mesh,
        boundary_peak_fraction=fractions,
    )


# ---------------------------------------------------------------------------
# subcommands

def _load_mesh(cfg):
    if (cfg.mesh_path is None) == (cfg.domain is None):
        raise ConfigError("give exactly one of --mesh and --domain")
    if cfg.mesh_path is not None:
        return read_gmsh(cfg.mesh_path)
    if len(cfg.resolutions) != 1:
        raise ConfigError(
            "--domain needs exactly one value in --resolutions, got "
            f"{list(cfg.resolutions) or 'none'}"
        )
    return GENERATORS[cfg.domain](cfg.resolutions[0])


def _spectrum_lines(solutions):
    lines = ["  #            lambda         k_eff      residual"]
    for j, sol in enumerate(solutions, 1):
        lam = sol.lam
        lam_text = (
            f"{lam.real:15.10f}" if lam.imag == 0
            else f"{lam.real:.6f}{lam.imag:+.2e}j"
        )
        lines.append(f"{j:3d}   {lam_text}   {sol.k_eff:11.6f}   {sol.residual:9.2e}")
    return lines


def _cmd_solve(cfg):
    mesh = _load_mesh(cfg)
    dofmap = build_dofmap(mesh, cfg.degree)
    solutions = solve_primal(assemble(mesh, dofmap, cfg.deck, cfg.degree), cfg.settings)
    print("\n".join(_spectrum_lines(solutions)))
    os.makedirs(cfg.out_dir, exist_ok=True)
    stem = cfg.domain if cfg.domain else os.path.splitext(
        os.path.basename(cfg.mesh_path)
    )[0]
    base = os.path.join(cfg.out_dir, f"{stem}_k{cfg.degree}_modes")
    write_vtk(field_output(mesh, solutions), base + ".vtk")
    print(f"wrote {base}.vtk")
    if cfg.degree >= 2:
        _write_coefficient_csv(solutions, dofmap.n, base + "_coefficients.csv")
        print(f"wrote {base}_coefficients.csv")
    return 0


def _cmd_converge(cfg):
    if cfg.domain is None:
        raise ConfigError("converge needs --domain")
    study = run_study(
        cfg.domain, cfg.degree, cfg.resolutions, deck=cfg.deck,
        deck_label=cfg.deck_label, m=cfg.settings.m, tol=cfg.settings.tol,
    )
    print(format_table(study))
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"{cfg.domain}_k{cfg.degree}_study.csv")
    write_csv(study, path)
    print(f"wrote {path}")
    return 0


def _cmd_benchmark(cfg, which):
    if which != "iaea2d":
        raise ConfigError(f"unknown benchmark {which!r}; available: iaea2d")
    if cfg.deck_label != "iaea-2d":
        raise ConfigError("benchmark iaea2d always uses the iaea-2d deck")
    result = run_iaea2d(
        mesh_path=cfg.mesh_path, degree=cfg.degree, settings=cfg.settings
    )
    dominant = result.solutions[0]
    print(f"k_eff = {dominant.k_eff:.6f}   (lambda = {dominant.lam.real:.6f}, "
          f"residual = {dominant.residual:.2e})")
    print(f"boundary/max flux: fast {result.boundary_peak_fraction[0]:.4f}, "
          f"thermal {result.boundary_peak_fraction[1]:.4f}")
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"iaea2d_k{cfg.degree}.vtk")
    write_vtk(result.fields, path)
    print(f"wrote {path}")
    return 0


def _cmd_oracle(cfg, modes):
    domain = cfg.domain or "square"
    if len(cfg.deck) != 1:
        raise ConfigError("oracle needs a homogeneous (single-region) deck")
    (gc, _bc), = cfg.deck.values()
    count = modes if modes is not None else cfg.settings.m
    try:
        mus = laplacian_modes(domain, count)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    print("  #              mu          lambda")
    for j, mu in enumerate(mus, 1):
        print(f"{j:3d}   {mu:13.6f}   {analytic_eigenvalue(mu, gc):13.8f}")
    return 0


def _cmd_check_ellipticity(cfg):
    for tag, (gc, _bc) in sorted(cfg.deck.items()):
        report = ellipticity_check(gc)
        verdict = "elliptic" if report.elliptic else "NOT elliptic"
        print(f"region {tag}: margin = {report.margin:+.6g} -> {verdict}")
    return 0


# ---------------------------------------------------------------------------
# entry point

def _parser():
    p = argparse.ArgumentParser(
        prog="critifem",
        description="two-group neutron-diffusion criticality solver",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--config", help="config file merged under the flags")
        sp.add_argument("--out", help="output directory (default .)")
        sp.add_argument("--tol", help="eigensolver tolerance")

    sp = sub.add_parser("solve", help="solve one mesh and write eigenfields")
    sp.add_argument("--domain", help=f"generated mesh: one of {', '.join(DOMAINS)}")
    sp.add_argument("--mesh", help="MSH 2.2 mesh file")
    sp.add_argument("--degree", help="polynomial degree 1..3")
    sp.add_argument("--resolutions", help="generator resolution (single value)")
    sp.add_argument("--num", help="eigenpairs to compute (default 5)")
    sp.add_argument("--deck", help=f"built-in deck: {', '.join(BUILTIN_DECKS)}")
    sp.add_argument("--bc", help="dirichlet or robin:<alpha>, overrides the deck")
    common(sp)

    sp = sub.add_parser("converge", help="refinement study and CSV table")
    sp.add_argument("--domain", help=f"one of {', '.join(DOMAINS)}")
    sp.add_argument("--degree", help="polynomial degree 1..3")
    sp.add_argument("--resolutions", help="comma-separated list, e.g. 8,16,32,64")
    sp.add_argument("--num", help="eigenvalues to track (default 5)")
    sp.add_argument("--deck", help=f"built-in deck: {', '.join(BUILTIN_DECKS)}")
    sp.add_argument("--bc", help="dirichlet or robin:<alpha>, overrides the deck")
    common(sp)

    sp = sub.add_parser("benchmark", help="packaged benchmark problems")
    sp.add_argument("which", choices=["iaea2d"])
    sp.add_argument("--mesh", help="override the packaged quarter-core mesh")
    sp.add_argument("--degree", help="polynomial degree 1..3")
    sp.add_argument("--num", help="eigenpairs to compute (default 1)")
    common(sp)

    sp = sub.add_parser("oracle", help="closed-form eigenvalues (homogeneous deck)")
    sp.add_argument("--domain", help=f"one of {', '.join(DOMAINS)} (default square)")
    sp.add_argument("--modes", help="how many eigenvalues (default 5)")
    sp.add_argument("--deck", help="built-in deck name (default paper-table1)")
    sp.add_argument("--config", help="config file merged under the flags")

    sp = sub.add_parser("check-ellipticity", help="coercivity report for a deck")
    sp.add_argument("--deck", help="built-in deck name")
    sp.add_argument("--config", help="config file merged under the flags")
    return p


def cli(argv=None):
    """Run one subcommand; returns the process exit code."""
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        cfg = build_config(ns)
        if ns.subcommand == "solve":
            return _cmd_solve(cfg)
        if ns.subcommand == "converge":
            return _cmd_converge(cfg)
        if ns.subcommand == "benchmark":
            return _cmd_benchmark(cfg, ns.which)
        if ns.subcommand == "oracle":
            modes = _to_int(ns.modes, "modes", minimum=1) if ns.modes else None
            return _cmd_oracle(cfg, modes)
        if ns.subcommand == "check-ellipticity":
            return _cmd_check_ellipticity(cfg)
        raise AssertionError(f"unhandled subcommand {ns.subcommand!r}")
    except (OSError, ValueError) as e:  # ConfigError and MeshFormatError too
        print(f"error: {e}", file=sys.stderr)
        return 2
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
