"""Command-line front end and result serialization.

Subcommands
-----------
solve             one mesh: print the spectrum, write eigenfunction fields
converge          refinement study: print the table, write a CSV
benchmark iaea2d  packaged quarter-core problem: dominant k, flux fields
oracle            closed-form eigenvalues of the homogeneous problem
check-ellipticity coercivity report for a deck

Each subcommand is declared once, in _SUBCOMMANDS, with its help text,
the function that runs it and the options it takes, as flags and
as config keys alike:

solve             domain, mesh, degree, resolutions, num, deck, bc, out, tol
converge          domain, degree, resolutions, num, deck, bc, out, tol
benchmark iaea2d  mesh, degree, num, out, tol
oracle            domain, num (spelled --modes as a flag), deck
check-ellipticity deck

This module parses, dispatches, writes and prints. It converts values
and checks what only it knows (flag syntax, --num >= 1, --mesh versus
--domain); each other input is checked once, by the layer that uses it:
the domain name and resolutions by the mesh generators, the degree by
build_dofmap, the deck by assemble (solve, converge, benchmark),
analytic_eigenvalue (oracle) or ellipticity_check (check-ellipticity).

Exit codes: 0 success, 2 configuration error (bad flags, files, deck:
any ValueError or OSError; an empty flag or config value is refused,
never read as unset) or out of memory (any MemoryError, printed as
"error: out of memory: ..."), 3 solver failure: any SolverError, which
the eigensolver raises when it cannot certify exactly --num pairs (the
Arnoldi basis reaches its cap, a wanted pair misses certification with
every eigenvalue in the basis, an empty spectrum, fewer finite
eigenvalues than --num, or no free DOF left after the Dirichlet
conditions).

Report: each subcommand computes its result, writes its files, and
returns its report lines; cli prints them to stdout in one write, only
then, so exits 2 and 3 print no report. A closed stdout (a reader that
has gone) drops the report and exits 0, with every file written.

Config files
------------
Plain text, INI-like, merged under the command-line flags (flags win).
Blank lines and lines starting with # are ignored; no inline comments.
A config file sets exactly the options its subcommand takes: `tol`
under [solver], every other option under [run]. Subcommands that take
`deck` also accept inline deck sections:

    [deck]           region-1 constants: D1, D2, sigma_a1, sigma_a2,
                     sigma_12, nu_sigma_f1, nu_sigma_f2, and optionally bc
    [deck.<tag>]     the same keys for further regions

`bc` values are `dirichlet` or `robin:<alpha>` (optionally
`robin:<alpha1>,<alpha2>`), with finite alphas >= 0. A named deck
(`deck = ...` under [run] or `--deck`) and inline [deck] sections are
mutually exclusive. Two sections of one region ([deck] and [deck.1], or
[deck.1] and [deck.01]) are refused. Any other section or key is
rejected with its line number.

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
from dataclasses import dataclass, fields, replace

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
)
from .mesh import _atomic_write, _read_lines, generator, read_gmsh

__all__ = [
    "ConfigError",
    "RunConfig",
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

def _ints(text):
    # comma-separated integers; blank parts are skipped
    return tuple(int(part) for part in text.split(",") if part.strip())


def _parse_bc(text):
    if text == "dirichlet":
        return BoundaryCondition.dirichlet()
    if not text.startswith("robin:"):
        raise ValueError(f"must be `dirichlet` or `robin:<alpha>`, got {text!r}")
    alphas = text[len("robin:"):].split(",")
    if len(alphas) > 2:
        raise ValueError(f"at most two Robin coefficients, got {text!r}")
    return BoundaryCondition.robin(*map(float, alphas))


# Every CLI option, declared once: its config section, the converter of
# its text, and its help text. A subcommand takes an option as a flag and
# as a config key, or not at all.
_OPTIONS = {
    "domain": ("run", str, f"generated mesh: one of {', '.join(DOMAINS)}"),
    "mesh": ("run", str, "MSH 2.2 mesh file (benchmark: replaces the packaged one)"),
    "degree": ("run", int, "polynomial degree 1..3 (default 1)"),
    "resolutions": ("run", _ints, "generator resolutions, comma-separated (solve: one)"),
    "num": ("run", int, "eigenpairs to compute (default 5, benchmark 1)"),
    "deck": ("run", str, f"built-in deck: {', '.join(BUILTIN_DECKS)}"),
    "bc": ("run", _parse_bc, "dirichlet or robin:<alpha>, overrides the deck"),
    "out": ("run", str, "output directory (default .)"),
    "tol": ("solver", float, "eigensolver tolerance"),
}
# flags not spelled --<option>
_FLAG_SPELLING = {("oracle", "num"): "--modes"}
# the GroupConstants fields, in declaration order
_CONSTANT_KEYS = tuple(f.name for f in fields(GroupConstants))
# each deck key and its converter
_DECK_KEYS = {**dict.fromkeys(_CONSTANT_KEYS, float), "bc": _parse_bc}


def _flag(subcommand, key):
    return _FLAG_SPELLING.get((subcommand, key), f"--{key}")


def _convert(convert, text, name):
    """Convert the text of one option or deck value. An empty text is
    refused; any failure is a ConfigError that starts with `name`, the
    flag or the config value's path:line and key."""
    try:
        if not text:
            raise ValueError("empty value")
        return convert(text)
    except ValueError as e:
        raise ConfigError(f"{name}: {e}") from None


def parse_config(path, subcommand):
    """Read a config file into (options, decks), accepting only the options
    (and deck sections) the subcommand takes.

    options maps each [run] and [solver] option, [run] first, to (text,
    name), and decks maps each deck region, in file order, to (section
    name, {key: (text, name)}); name, `<path>:<line>: <key>`, starts the
    errors of that value."""
    takes = _SUBCOMMANDS[subcommand][1]
    sections = {}  # every section so far, by name
    decks = {}
    current = None
    try:
        lines = _read_lines(path, "utf-8", ConfigError)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e.strerror or e}") from e
    if lines:  # a byte-order mark is no part of the first line
        lines[0] = lines[0].removeprefix("\ufeff")
    for ln, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            base, dot, tag = name.partition(".")
            if base == "deck" and "deck" in takes:
                if dot and (not tag.isdecimal() or int(tag) < 1):
                    raise ConfigError(
                        f"{path}:{ln}: deck section tag must be a positive "
                        f"integer, got [{name}]"
                    )
            elif name not in ("run", "solver"):
                raise ConfigError(
                    f"{path}:{ln}: unknown section [{name}] for {subcommand}"
                )
            if name in sections:
                raise ConfigError(f"{path}:{ln}: duplicate section [{name}]")
            current = sections[name] = {}
            if base == "deck":  # [deck] is region 1, and [deck.01] is [deck.1]
                region = int(tag) if dot else 1
                if region in decks:
                    raise ConfigError(f"{path}:{ln}: duplicate deck region {region}")
                decks[region] = (name, current)
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected `key = value`, got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{ln}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if name in ("run", "solver"):
            known = key in takes and _OPTIONS[key][0] == name
        else:
            known = key in _DECK_KEYS
        if not known:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r} for {subcommand}")
        if key in current:
            raise ConfigError(f"{path}:{ln}: duplicate key {key!r}")
        current[key] = (value, f"{path}:{ln}: {key}")
    return {**sections.get("run", {}), **sections.get("solver", {})}, decks


def _inline_deck(decks, path):
    """Build a deck from the [deck]/[deck.<tag>] sections of parse_config."""
    deck = {}
    for region, (header, body) in decks.items():
        values = {
            key: _convert(_DECK_KEYS[key], text, name)
            for key, (text, name) in body.items()
        }
        missing = [key for key in _CONSTANT_KEYS if key not in values]
        if missing:
            raise ConfigError(f"{path}: [{header}] is missing {missing[0]}")
        bc = values.pop("bc", BoundaryCondition.dirichlet())
        try:
            deck[region] = (GroupConstants(**values), bc)
        except ValueError as e:
            # the range error starts with the constant's name: point at its line
            key, reason = str(e).split(" ", 1)
            raise ConfigError(f"{body[key][1]}: {reason}") from None
    return deck or None


# ---------------------------------------------------------------------------
# merged configuration

@dataclass(frozen=True)
class RunConfig:
    """Parsed inputs of one CLI invocation; the layers that use them
    check their ranges."""

    domain: str | None
    mesh_path: str | None
    degree: int
    resolutions: tuple[int, ...]
    deck: dict | None  # None for subcommands that take no deck
    deck_label: str | None
    out_dir: str
    settings: SolverSettings  # settings.m is --num


def build_config(ns):
    """Merge CLI flags over the config file and convert the values.

    Every value, flag or config key, goes through _convert. Ranges
    (degree, resolutions, domain name) and deck constants are checked by
    the layers that use them, which raise ValueError.
    """
    takes = _SUBCOMMANDS[ns.subcommand][1]
    # option -> (text, the name its errors start with)
    given, decks = parse_config(ns.config, ns.subcommand) if ns.config else ({}, {})
    for key in takes:
        if (text := getattr(ns, key)) is not None:
            given[key] = (text, _flag(ns.subcommand, key))
    opts = {
        key: _convert(_OPTIONS[key][1], text, name)
        for key, (text, name) in given.items()
    }

    num = opts.get("num", 1 if ns.subcommand == "benchmark" else 5)
    if num < 1:
        raise ConfigError(f"{given['num'][1]}: must be >= 1, got {num}")

    deck = deck_label = None
    if "deck" in takes:
        inline = _inline_deck(decks, ns.config)
        if "deck" in opts and inline is not None:
            raise ConfigError(
                "deck name and inline [deck] sections are mutually exclusive"
            )
        if inline is not None:
            deck, deck_label = inline, "inline"
        else:
            deck_label = opts.get("deck", "paper-table1")
            deck = builtin_deck(deck_label)
        if "bc" in opts:
            deck = {tag: (gc, opts["bc"]) for tag, (gc, _bc) in deck.items()}
            deck_label += f" bc={given['bc'][0]}"

    tol = {"tol": opts["tol"]} if "tol" in opts else {}
    try:
        settings = SolverSettings(m=num, **tol)
    except ValueError as e:  # num is checked above, so only tol is out of range
        raise ConfigError(f"{given['tol'][1]}: {e}") from None
    return RunConfig(
        domain=opts.get("domain"), mesh_path=opts.get("mesh"),
        degree=opts.get("degree", 1), resolutions=opts.get("resolutions", ()),
        deck=deck, deck_label=deck_label, out_dir=opts.get("out", "."),
        settings=settings,
    )


# ---------------------------------------------------------------------------
# field serialization

def write_vtk(mesh, solutions, path):
    """Legacy ASCII VTK unstructured grid with the fluxes of each pair.

    Point data phi1_<j>, phi2_<j> for eigenpair j: the coefficient
    vector sampled at the mesh vertices (vertex DOFs come first and the
    Lagrange basis is nodal there; the full higher-degree coefficients
    travel in the sidecar CSV). A field is followed by its imaginary
    part, <name>_im, exactly when that part is nonzero at some vertex.
    Deterministic byte-for-byte: full-precision repr coordinates and
    values, constant header.
    """
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
    for j, sol in enumerate(solutions, 1):
        for gname, vec in (("phi1", sol.phi1), ("phi2", sol.phi2)):
            vertex = np.asarray(vec)[:nv]
            scalars = [(f"{gname}_{j}", vertex.real)]
            if np.any(vertex.imag):
                scalars.append((f"{gname}_{j}_im", vertex.imag))
            for name, values in scalars:
                parts.append([f"SCALARS {name} double 1", "LOOKUP_TABLE default"])
                parts.append(map(repr, values.astype(float).tolist()))
    _atomic_write(path, itertools.chain.from_iterable(parts))


def _write_coefficient_csv(solutions, path):
    # full higher-order coefficients, one row per scalar DOF
    header = ["dof"]
    columns = [map(str, range(len(solutions[0].phi1)))]
    for j, sol in enumerate(solutions, 1):
        for gname, vec in (("phi1", sol.phi1), ("phi2", sol.phi2)):
            header.append(f"{gname}_{j}")
            col = np.asarray(vec)
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
    return IaeaResult(
        k_eff=fundamental.k_eff,
        solutions=(normalized, *solutions[1:]),
        mesh=mesh,
        boundary_peak_fraction=fractions,
    )


# ---------------------------------------------------------------------------
# subcommands

def _load_mesh(cfg):
    if (cfg.mesh_path is None) == (cfg.domain is None):
        raise ConfigError("give exactly one of --mesh and --domain")
    if cfg.mesh_path is not None:
        if cfg.resolutions:
            raise ConfigError("--resolutions goes with --domain only, not with --mesh")
        return read_gmsh(cfg.mesh_path)
    if len(cfg.resolutions) != 1:
        raise ConfigError(
            "--domain needs exactly one value in --resolutions, got "
            f"{list(cfg.resolutions) or 'none'}"
        )
    return generator(cfg.domain)(cfg.resolutions[0])


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
    os.makedirs(cfg.out_dir, exist_ok=True)
    stem = cfg.domain if cfg.domain else os.path.splitext(
        os.path.basename(cfg.mesh_path)
    )[0]
    base = os.path.join(cfg.out_dir, f"{stem}_k{cfg.degree}_modes")
    write_vtk(mesh, solutions, base + ".vtk")
    lines = [*_spectrum_lines(solutions), f"wrote {base}.vtk"]
    if cfg.degree >= 2:
        _write_coefficient_csv(solutions, base + "_coefficients.csv")
        lines.append(f"wrote {base}_coefficients.csv")
    return lines


def _cmd_converge(cfg):
    if cfg.domain is None:
        raise ConfigError("converge needs --domain")
    study = run_study(
        cfg.domain, cfg.degree, cfg.resolutions, deck=cfg.deck,
        deck_label=cfg.deck_label, m=cfg.settings.m, tol=cfg.settings.tol,
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"{cfg.domain}_k{cfg.degree}_study.csv")
    write_csv(study, path)
    return [format_table(study), f"wrote {path}"]


def _cmd_benchmark(cfg):
    result = run_iaea2d(
        mesh_path=cfg.mesh_path, degree=cfg.degree, settings=cfg.settings
    )
    os.makedirs(cfg.out_dir, exist_ok=True)
    path = os.path.join(cfg.out_dir, f"iaea2d_k{cfg.degree}.vtk")
    write_vtk(result.mesh, result.solutions, path)
    dominant = result.solutions[0]
    fast, thermal = result.boundary_peak_fraction
    return [f"k_eff = {dominant.k_eff:.6f}   (lambda = {dominant.lam.real:.6f}, "
            f"residual = {dominant.residual:.2e})",
            f"boundary/max flux: fast {fast:.4f}, thermal {thermal:.4f}",
            f"wrote {path}"]


def _cmd_oracle(cfg):
    if len(cfg.deck) != 1:
        raise ConfigError("oracle needs a homogeneous (single-region) deck")
    (gc, bc), = cfg.deck.values()
    if bc.kind != "dirichlet":
        raise ConfigError(f"oracle needs a Dirichlet deck, not bc = {bc.kind}")
    mus = laplacian_modes(cfg.domain or "square", cfg.settings.m)
    return ["  #              mu          lambda"] + [
        f"{j:3d}   {mu:13.6f}   {analytic_eigenvalue(mu, gc):13.8f}"
        for j, mu in enumerate(mus, 1)
    ]


def _cmd_check_ellipticity(cfg):
    lines = []
    for tag, (gc, _bc) in sorted(cfg.deck.items()):
        report = ellipticity_check(gc, region=tag)
        verdict = "elliptic" if report.elliptic else "NOT elliptic"
        lines.append(f"region {tag}: margin = {report.margin:+.6g} -> {verdict}")
    return lines


# Every subcommand, declared once: its help text, the options it takes
# (each as a flag and as a config key), and the function that runs it.
_SUBCOMMANDS = {
    "solve": ("solve one mesh and write eigenfields", (
        "domain", "mesh", "degree", "resolutions", "num", "deck", "bc", "out", "tol",
    ), _cmd_solve),
    "converge": ("refinement study and CSV table", (
        "domain", "degree", "resolutions", "num", "deck", "bc", "out", "tol",
    ), _cmd_converge),
    "benchmark": ("packaged benchmark problems", (
        "mesh", "degree", "num", "out", "tol",
    ), _cmd_benchmark),
    "oracle": ("closed-form eigenvalues (homogeneous deck)", ("domain", "num", "deck"),
               _cmd_oracle),
    "check-ellipticity": ("coercivity report for a deck", ("deck",), _cmd_check_ellipticity),
}


# ---------------------------------------------------------------------------
# entry point

def _parser():
    p = argparse.ArgumentParser(
        prog="critifem",
        description="two-group neutron-diffusion criticality solver",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, takes, _command) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == "benchmark":
            sp.add_argument("which", choices=["iaea2d"])
        for key in takes:
            sp.add_argument(_flag(name, key), dest=key, help=_OPTIONS[key][2])
        sp.add_argument("--config", help="config file merged under the flags")
    return p


def cli(argv=None):
    """Run one subcommand and print its report, which it returns once
    every file is written; returns the process exit code."""
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        command = _SUBCOMMANDS[ns.subcommand][2]
        print("\n".join(command(build_config(ns))), flush=True)
    except BrokenPipeError:
        # stdout's reader is gone, after every file was written: drop the
        # report, and point fd 1 at devnull so the flush at exit cannot fail
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    except (OSError, ValueError) as e:  # ConfigError and MeshFormatError too
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2
    except SolverError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return 3
    return 0


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
