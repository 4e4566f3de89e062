"""CLI: config parsing, flag/file precedence, exit codes, file outputs,
and the packaged quarter-core benchmark."""

import filecmp
import gc
import hashlib
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import types
import warnings
import weakref

import numpy as np
import pytest
import scipy.linalg

import critifem
from critifem import app
from critifem.app import (
    ConfigError,
    _parser,
    _write_coefficient_csv,
    build_config,
    cli,
    packaged_mesh_path,
    parse_config,
    run_iaea2d,
    write_vtk,
)
from critifem.assembly import assemble
from critifem.fem_space import build_dofmap
from critifem.materials import BoundaryCondition, GroupConstants
from critifem.mesh import (
    Mesh,
    generate_disk,
    generate_unit_cube,
    generate_unit_square,
    read_gmsh,
    write_msh,
)

SQUARE_REF = (66.5747701901, 165.2710351639, 165.2710351639,
              263.9671349734, 329.7645162969)


def config_file(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TABLE1_DECK = dict(D1=1.0, D2=0.5, sigma_a1=0.2, sigma_a2=0.1,
                   sigma_12=0.1, nu_sigma_f1=0.3, nu_sigma_f2=0.1)


def deck_file(tmp_path, **changes):
    """Config file with one inline [deck]: the paper-table1 constants
    with `changes` applied."""
    body = "".join(f"{key} = {value}\n"
                   for key, value in {**TABLE1_DECK, **changes}.items())
    return config_file(tmp_path, "[deck]\n" + body, "deck.ini")


def tagged_square(path, tags):
    """Write the eight cells of square N=2, with these region tags, to path."""
    base = generate_unit_square(2)
    write_msh(Mesh(2, base.vertices, base.cells, np.array(tags)), path)


def six_region_mesh(tmp_path):
    """MSH file of a square whose cells carry region tags 1..6."""
    path = tmp_path / "sixregions.msh"
    tagged_square(path, [1, 2, 3, 4, 5, 6, 1, 2])
    return str(path)


def fresh_env(**extra):
    """Environment for a fresh interpreter that imports this critifem."""
    src = os.path.dirname(os.path.dirname(critifem.__file__))
    pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


# ---------------------------------------------------------------------------
# config file parsing

def test_parse_config_sections_and_lines(tmp_path):
    path = config_file(tmp_path, "\n".join([
        "# comment",
        "[run]",
        "domain = square",
        "",
        "degree = 2",
        "[solver]",
        "tol = 1e-9",
        "[deck.3]",
        "D1 = 1.0",
    ]))
    # each value carries the name its errors start with: path:line: key
    options, decks = parse_config(path, "solve")
    assert options == {
        "domain": ("square", f"{path}:3: domain"),
        "degree": ("2", f"{path}:5: degree"),
        "tol": ("1e-9", f"{path}:7: tol"),
    }
    assert decks == {3: ("deck.3", {"D1": ("1.0", f"{path}:9: D1")})}


@pytest.mark.parametrize("text,match", [
    ("[mesh]\n", r":1: unknown section"),
    ("[run]\nspeed = 9\n", r":2: unknown key 'speed'"),
    ("[run]\ndegree = 1\ndegree = 2\n", r":3: duplicate key"),
    ("degree = 1\n", r":1: key outside any \[section\]"),
    ("[run]\ndegree\n", r":2: expected `key = value`"),
    ("[deck.x]\n", r"deck section tag"),
    ("[deck.0]\n", r"deck section tag"),
    ("[deck.\u00b2]\n", r"^\S+:1: deck section tag must be a positive integer, "
                         "got \\[deck.\u00b2\\]$"),
    ("[run]\n[run]\n", r":2: duplicate section"),
    ("[solver]\ndomain = square\n", r"unknown key 'domain'"),
    ("[solver]\ninner = lu\n", r":2: unknown key 'inner'"),
    ("[solver]\ninner_tol = 1e-12\n", r":2: unknown key 'inner_tol'"),
    ("[run]\ndump_matrices = true\n", r":2: unknown key 'dump_matrices'"),
    ("[solver]\nsubspace = 20\n", r":2: unknown key 'subspace'"),
    ("[solver]\nmax_restarts = 6\n", r":2: unknown key 'max_restarts'"),
])
def test_parse_config_errors(tmp_path, text, match):
    path = config_file(tmp_path, text)
    with pytest.raises(ConfigError, match=match):
        parse_config(path, "solve")


def readme_text():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read()


def test_readme_ini_blocks_parse(tmp_path):
    # every documented config key and value must still be accepted
    blocks = re.findall(r"^```ini\n(.*?)^```", readme_text(), flags=re.M | re.S)
    assert len(blocks) >= 2
    for i, block in enumerate(blocks):
        path = config_file(tmp_path, block, f"readme{i}.ini")
        assert any(parse_config(path, "solve"))
        build(["solve", "--config", path])


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config("/nonexistent/run.ini", "solve")


def test_parse_config_closes_the_file(tmp_path):
    # an unclosed file warns when it is collected, inside __del__, where an
    # "error" filter cannot raise; so the warning is recorded and failed on
    path = config_file(tmp_path, "[run]\ndomain = square\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        parse_config(path, "solve")
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


# ---------------------------------------------------------------------------
# option table: a config file sets exactly the options its subcommand takes

# a value of every option that differs from its default
OPTION_VALUES = {
    "domain": "disk", "mesh": "x.msh", "degree": "2", "resolutions": "4,8,16",
    "num": "3", "deck": "iaea-2d", "bc": "robin:0.5", "out": "results", "tol": "1e-9",
}
# options a subcommand reads nowhere, so neither a flag nor a config key
NOT_TAKEN = {
    "benchmark": ("domain", "resolutions", "bc", "deck"),
    "converge": ("mesh",),
    "oracle": ("mesh", "degree", "resolutions", "bc", "out", "tol"),
    "check-ellipticity": (
        "domain", "mesh", "degree", "resolutions", "num", "bc", "out", "tol",
    ),
}


def command(subcommand):
    return [subcommand, "iaea2d"] if subcommand == "benchmark" else [subcommand]


@pytest.mark.parametrize("subcommand,key", [
    (name, key)
    for name, (_help, takes, _command) in app._SUBCOMMANDS.items() for key in takes
])
def test_flag_and_config_key_agree(subcommand, key, tmp_path):
    value = OPTION_VALUES[key]
    path = config_file(tmp_path, f"[{app._OPTIONS[key][0]}]\n{key} = {value}\n")
    flag = app._FLAG_SPELLING.get((subcommand, key), f"--{key}")
    by_flag = build(command(subcommand) + [flag, value])
    assert build(command(subcommand) + ["--config", path]) == by_flag
    assert by_flag != build(command(subcommand))  # the value took effect


@pytest.mark.parametrize("subcommand,key", [
    (name, key) for name, keys in NOT_TAKEN.items() for key in keys
])
def test_config_rejects_an_option_the_subcommand_does_not_take(
    subcommand, key, tmp_path, capsys
):
    section = "solver" if key == "tol" else "run"
    path = config_file(
        tmp_path, f"# read nowhere\n[{section}]\n{key} = {OPTION_VALUES[key]}\n"
    )
    assert cli(command(subcommand) + ["--config", path]) == 2
    assert f"run.ini:3: unknown key {key!r} for {subcommand}" in capsys.readouterr().err
    assert cli(command(subcommand) + [f"--{key}", OPTION_VALUES[key]]) == 2


@pytest.mark.parametrize("section", ["deck", "deck.2"])
def test_benchmark_config_rejects_deck_sections(section, tmp_path, capsys):
    path = config_file(tmp_path, f"[run]\nnum = 1\n[{section}]\nD1 = 1.0\n")
    assert cli(["benchmark", "iaea2d", "--config", path]) == 2
    err = capsys.readouterr().err
    assert f"run.ini:3: unknown section [{section}] for benchmark" in err


def test_oracle_takes_num_from_config_and_modes_flag(tmp_path, capsys):
    path = config_file(tmp_path, "[run]\nnum = 3\n")
    assert cli(["oracle", "--config", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3
    assert cli(["oracle", "--config", path, "--modes", "2"]) == 0  # the flag wins
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2


def test_documented_option_lists_match_subcommands():
    # README's table and the module docstring both list each subcommand's options
    docstring = app.__doc__.split("as config keys alike:\n\n")[1].split("\n\n")[0]
    for rows in (
        re.findall(r"^\| `([a-z-]+)` \| (.*) \|$", readme_text(), flags=re.M),
        re.findall(r"^([a-z-]+)(?: iaea2d)? +(.*)$", docstring, flags=re.M),
    ):
        documented = {
            name: tuple(re.sub(r" \(.*\)", "", part) for part in options.split(", "))
            for name, options in rows
        }
        assert documented == {
            name: takes for name, (_help, takes, _command) in app._SUBCOMMANDS.items()
        }


def test_readme_command_lines_parse():
    block = re.search(r"^## Command line\n+```\n(.*?)^```", readme_text(),
                      flags=re.M | re.S).group(1)
    lines = block.splitlines()
    assert len(lines) >= 6
    for line in lines:
        prog, *argv = line.split()
        assert prog == "critifem"
        _parser().parse_args(argv)


# ---------------------------------------------------------------------------
# merged configuration

def build(argv):
    return build_config(_parser().parse_args(argv))


def test_flags_override_config(tmp_path):
    path = config_file(tmp_path, "\n".join([
        "[run]",
        "domain = square",
        "resolutions = 8",
        "num = 3",
        "degree = 2",
        "[solver]",
        "tol = 1e-8",
    ]))
    cfg = build(["solve", "--config", path, "--num", "2"])
    assert cfg.degree == 2  # config fills the gap
    assert cfg.settings.m == 2  # flag wins
    assert cfg.settings.tol == 1e-8
    assert cfg.resolutions == (8,)


def test_bc_override_rewrites_every_region():
    cfg = build(["solve", "--domain", "square", "--resolutions", "4",
                 "--bc", "robin:0.5,0.25"])
    (gc, bc), = cfg.deck.values()
    assert bc.kind == "robin"
    assert bc.alpha1 == 0.5
    assert bc.alpha2 == 0.25


def test_inline_deck_sections(tmp_path):
    body = ("D1 = 1.0\nD2 = 0.5\nsigma_a1 = 0.2\nsigma_a2 = 0.1\n"
            "sigma_12 = 0.1\nnu_sigma_f1 = 0.3\nnu_sigma_f2 = 0.1\n")
    path = config_file(tmp_path, "[deck]\n" + body + "bc = robin:0.3\n"
                       + "[deck.2]\n" + body)
    cfg = build(["solve", "--domain", "square", "--resolutions", "4",
                 "--config", path])
    assert sorted(cfg.deck) == [1, 2]
    assert cfg.deck_label == "inline"
    assert cfg.deck[1][1].kind == "robin"
    assert cfg.deck[2][1].kind == "dirichlet"  # default when bc omitted
    assert cfg.deck[1][0].D2 == 0.5


def test_inline_deck_incomplete(tmp_path):
    path = config_file(tmp_path, "[deck]\nD1 = 1.0\n")
    with pytest.raises(ConfigError, match="missing"):
        build(["solve", "--domain", "square", "--resolutions", "4",
               "--config", path])


@pytest.mark.parametrize("hashseed", ["1", "2", "3", "4", "5"])
def test_inline_deck_names_first_missing_constant(tmp_path, hashseed):
    # the report must not depend on set iteration order, which follows
    # the string hash seed of the interpreter
    path = config_file(tmp_path, "[deck]\nD1 = 1.0\n")
    argv = ["solve", "--domain", "square", "--resolutions", "4", "--config", path]
    done = subprocess.run(
        [sys.executable, "-m", "critifem.app", *argv], capture_output=True, text=True,
        env=fresh_env(PYTHONHASHSEED=hashseed), timeout=120,
    )
    assert done.returncode == 2
    assert "is missing D2\n" in done.stderr


@pytest.mark.parametrize("first,second", [("deck", "deck.1"), ("deck.1", "deck.01")])
def test_two_deck_sections_of_one_region_refused(tmp_path, capsys, first, second):
    body = "".join(f"{key} = {value}\n" for key, value in TABLE1_DECK.items())
    path = config_file(tmp_path, f"[{first}]\n{body}[{second}]\n"
                       + body.replace("D1 = 1.0", "D1 = 2.0"))
    assert cli(["oracle", "--config", path, "--modes", "2"]) == 2
    assert capsys.readouterr().err == f"error: {path}:9: duplicate deck region 1\n"


def test_named_and_inline_deck_conflict(tmp_path):
    body = ("D1 = 1.0\nD2 = 0.5\nsigma_a1 = 0.2\nsigma_a2 = 0.1\n"
            "sigma_12 = 0.1\nnu_sigma_f1 = 0.3\nnu_sigma_f2 = 0.1\n")
    path = config_file(tmp_path, "[run]\ndeck = paper-table1\n[deck]\n" + body)
    with pytest.raises(ConfigError, match="mutually exclusive"):
        build(["solve", "--domain", "square", "--resolutions", "4",
               "--config", path])


# ---------------------------------------------------------------------------
# exit codes

@pytest.mark.parametrize("argv", [
    ["solve"],  # neither mesh nor domain
    ["solve", "--domain", "square", "--mesh", "x.msh", "--resolutions", "4"],
    ["solve", "--mesh", "/nonexistent/mesh.msh"],
    ["solve", "--domain", "square"],  # no resolution
    ["solve", "--domain", "square", "--resolutions", "4,8"],
    ["solve", "--domain", "square", "--resolutions", "4", "--deck", "nosuch"],
    ["solve", "--domain", "square", "--resolutions", "4", "--degree", "4"],
    ["solve", "--domain", "hexagon", "--resolutions", "4"],
    ["solve", "--domain", "square", "--resolutions", "4", "--num", "0"],
    ["solve", "--domain", "square", "--resolutions", "4", "--tol", "fast"],
    ["solve", "--domain", "square", "--resolutions", "4", "--bc", "neumann"],
    ["converge", "--degree", "1", "--resolutions", "4,8,16"],  # no domain
    ["converge", "--domain", "square", "--resolutions", "4,8"],
    ["oracle", "--deck", "iaea-2d"],  # needs a homogeneous deck
    ["oracle", "--domain", "lshape", "--modes", "9"],
    ["solve", "--config", "/nonexistent/run.ini", "--domain", "square"],
    ["solve", "--domain", "square", "--resolutions", "8", "--num", "3", "--tol", "nan"],
    ["solve", "--domain", "square", "--resolutions", "8", "--num", "3", "--tol", "inf"],
    ["oracle", "--out", "x"],  # writes no file, takes no --out
    ["check-ellipticity", "--out", "x"],
    # checked where they are used: the generator, run_study, assemble
    ["solve", "--domain", "square", "--resolutions", "0"],
    ["converge", "--domain", "square", "--resolutions", "0,4,8"],
    ["solve", "--domain", "square", "--resolutions", "4",
     "--config", lambda tmp_path: deck_file(tmp_path, sigma_a2=0.0)],
    ["benchmark", "iaea2d", "--mesh", six_region_mesh],
])
@pytest.mark.filterwarnings("ignore:sigma_a1 = 0")
def test_exit_code_two(argv, tmp_path, capsys):
    # a callable argument is an input file, written by it under tmp_path
    argv = [a(tmp_path) if callable(a) else a for a in argv]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert err.strip()
    assert "Traceback" not in err


@pytest.mark.parametrize("by_config", [False, True])
def test_mesh_with_resolutions_exits_two(by_config, tmp_path, capsys):
    # resolutions size a generated mesh; with a mesh file they are refused,
    # not ignored, whether given as a flag or as a config key
    mesh = str(tmp_path / "square.msh")
    write_msh(generate_unit_square(2), mesh)
    argv = ["solve", "--mesh", mesh, "--num", "1", "--out", str(tmp_path)]
    if by_config:
        argv += ["--config", config_file(tmp_path, "[run]\nresolutions = 99\n")]
    else:
        argv += ["--resolutions", "99"]
    assert cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --resolutions goes with --domain only, not with --mesh\n"
    assert not any(tmp_path.glob("*.vtk"))


def test_error_texts_name_the_checking_layer(tmp_path, capsys):
    cases = [
        (["solve", "--domain", "square", "--resolutions", "4", "--degree", "4"],
         "unsupported degree k=4"),
        (["solve", "--domain", "square", "--resolutions", "0"], "N must be >= 1"),
        (["solve", "--domain", "hexagon", "--resolutions", "4"],
         "unknown domain 'hexagon'"),
        (["converge", "--domain", "hexagon", "--resolutions", "4,8,16"],
         "unknown domain 'hexagon'"),
        (["solve", "--domain", "square", "--resolutions", "4",
          "--config", deck_file(tmp_path, sigma_a2=0.0)],
         "error: thermal absorption sigma_a2 must be > 0 in region 1\n"),
    ]
    for argv, message in cases:
        assert cli(argv + ["--out", str(tmp_path)]) == 2
        assert message in capsys.readouterr().err
    with pytest.warns(UserWarning, match="sigma_a1 = 0 in region"):
        assert cli(["benchmark", "iaea2d", "--mesh", six_region_mesh(tmp_path),
                    "--out", str(tmp_path)]) == 2
    assert "deck is missing region 6" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.vtk"))


def test_check_ellipticity_reports_any_deck_with_positive_diffusion(tmp_path, capsys):
    # sigma_a2 = 0 leaves no admissible weighting: an answer, not an error
    assert cli(["check-ellipticity", "--config",
                deck_file(tmp_path, sigma_a2=0.0)]) == 0
    assert capsys.readouterr().out == "region 1: margin = +0.01 -> NOT elliptic\n"
    # the condition assumes D1, D2 > 0
    assert cli(["check-ellipticity", "--config", deck_file(tmp_path, D1=0.0)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "diffusion coefficients must be > 0 in region 1" in captured.err


def test_oracle_without_fission_exits_two_before_printing(tmp_path, capsys):
    path = deck_file(tmp_path, nu_sigma_f1=0.0, nu_sigma_f2=0.0)
    assert cli(["oracle", "--config", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no fission production" in captured.err
    assert "Traceback" not in captured.err


def test_oracle_refuses_a_robin_deck(tmp_path, capsys):
    # the closed form holds under Dirichlet conditions only: under Robin
    # the oracle printed the Dirichlet lambda_1 = 66.57477019, where
    # converge on the same deck goes to about 7.02
    path = deck_file(tmp_path, bc="robin:0.5")
    assert cli(["oracle", "--config", path, "--modes", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "oracle needs a Dirichlet deck, not bc = robin" in captured.err
    assert cli(["oracle", "--config", deck_file(tmp_path, bc="dirichlet")]) == 0


def _limit_address_space():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("domain", ["square", "cube", "disk"])
def test_oracle_mode_count_is_bounded(domain):
    # An unbounded mode list grows with the count (square, cube) or its
    # square (disk): a child process capped at 1 GiB of address space
    # turns a missing bound into a failed test, not an exhausted machine.
    argv = ["oracle", "--domain", domain, "--modes", "99999999999999999999"]
    done = subprocess.run(
        [sys.executable, "-m", "critifem.app", *argv], capture_output=True, text=True,
        env=fresh_env(), timeout=120, preexec_fn=_limit_address_space,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert "at most 100 modes" in done.stderr
    assert "Traceback" not in done.stderr


# A valid, tiny run of each subcommand (square N=2: one free DOF; the
# benchmark's mesh carries the iaea-2d deck's five regions), and the
# values the sweep below gives each of its options in turn; HUGE may size
# an allocation, so it runs in a child under a memory cap.
FIVE_REGIONS = [1, 2, 3, 4, 5, 1, 2, 3]
SWEEP_BASELINE = {
    "solve": {"domain": "square", "resolutions": "2", "num": "1"},
    "converge": {"domain": "square", "resolutions": "2,3,4", "num": "1"},
    "benchmark": {"mesh": "five_regions.msh"},
    "oracle": {},
    "check-ellipticity": {},
}
BAD_VALUES = ("", "x", "0", "-1", "nan", "inf", "-inf", "1e-300", "1e300")
HUGE = "99999999999999999999"


def with_options(subcommand, options):
    return command(subcommand) + [
        f"{app._FLAG_SPELLING.get((subcommand, key), f'--{key}')}={value}"
        for key, value in options.items()
    ]


def sweep_argvs(subcommand, values):
    """argv of the subcommand's baseline with one option set to a value,
    for each option it takes and each of the values."""
    return [
        with_options(subcommand, {**SWEEP_BASELINE[subcommand], key: value})
        for key in app._SUBCOMMANDS[subcommand][1] for value in values
    ]


@pytest.mark.parametrize("subcommand", list(app._SUBCOMMANDS))
@pytest.mark.filterwarnings("ignore:sigma_a1 = 0")
def test_every_bad_option_value_exits_with_a_documented_code(
    subcommand, tmp_path, monkeypatch, capsys
):
    # relative --out values land in tmp_path
    monkeypatch.chdir(tmp_path)
    tagged_square(tmp_path / "five_regions.msh", FIVE_REGIONS)
    assert cli(with_options(subcommand, SWEEP_BASELINE[subcommand])) == 0
    failed = []
    for argv in sweep_argvs(subcommand, BAD_VALUES):
        code = cli(argv)
        captured = capsys.readouterr()
        if code not in (0, 2, 3) or "Traceback" in captured.out + captured.err:
            failed.append((argv, code))
    assert failed == []


def config_text(options):
    """Config file text that sets these options, each under its section."""
    sections = {}
    for key, value in options.items():
        sections.setdefault(app._OPTIONS[key][0], []).append(f"{key} = {value}")
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines)
                   for name, lines in sections.items())


@pytest.mark.parametrize("subcommand", list(app._SUBCOMMANDS))
def test_every_empty_option_value_exits_two_naming_the_option(
    subcommand, tmp_path, monkeypatch, capsys
):
    # an empty value is refused, never read as "unset", whether it comes
    # from a flag or from a config key (the baseline then goes in the file
    # too, so that no flag overrides the empty key)
    monkeypatch.chdir(tmp_path)
    tagged_square(tmp_path / "five_regions.msh", FIVE_REGIONS)
    failed = []
    for key in app._SUBCOMMANDS[subcommand][1]:
        options = {**SWEEP_BASELINE[subcommand], key: ""}
        text = config_text(options)
        path = config_file(tmp_path, text)
        line = text.splitlines().index(f"{key} = ") + 1
        for argv, name in [
            (with_options(subcommand, options),
             app._FLAG_SPELLING.get((subcommand, key), f"--{key}")),
            (command(subcommand) + ["--config", path], f"{path}:{line}: {key}"),
        ]:
            code = cli(argv)
            captured = capsys.readouterr()
            if (code, captured.out) != (2, "") or captured.err != (
                f"error: {name}: empty value\n"
            ):
                failed.append((argv, code, captured.err))
    assert failed == []


@pytest.mark.parametrize("section,key,value", [
    ("run", "degree", "two"),
    ("run", "resolutions", "4,x"),
    ("run", "num", "0"),
    ("run", "bc", "robin:x"),
    ("solver", "tol", "fast"),
    ("solver", "tol", "0"),
])
def test_bad_config_value_names_its_line(section, key, value, tmp_path, capsys):
    path = config_file(tmp_path, f"# line 1\n[{section}]\n{key} = {value}\n")
    resolutions = [] if key == "resolutions" else ["--resolutions", "4"]
    assert cli(["solve", "--domain", "square", *resolutions,
                "--out", str(tmp_path), "--config", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:3: {key}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("key,value,line", [("D1", "-1", 2), ("nu_sigma_f2", "inf", 8)])
def test_out_of_range_deck_constant_names_its_line(key, value, line, tmp_path, capsys):
    # a constant that converts but is out of range is reported in the
    # form of a conversion error: path:line, key, reason
    path = deck_file(tmp_path, **{key: value})
    assert cli(["solve", "--domain", "square", "--resolutions", "4",
                "--out", str(tmp_path), "--config", path]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}:{line}: {key}: must be finite and >= 0, got {float(value)}\n"
    )


@pytest.mark.parametrize("subcommand,resolutions", [("solve", "4"), ("converge", "4,8,16")])
def test_out_of_range_tol_flag_names_the_flag(subcommand, resolutions, tmp_path, capsys):
    assert cli([subcommand, "--domain", "square", "--resolutions", resolutions,
                "--tol", "0", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: --tol: tolerances must be positive and finite\n"
    )


@pytest.mark.parametrize("domain,n", [("square", "1000000"), ("cube", "3000")])
def test_out_of_memory_exits_two(domain, n, tmp_path):
    # the mesh needs terabytes, far beyond the child's 1 GiB of address
    # space, and the generators set no bound on N: cli reports the
    # MemoryError like any input error
    argv = ["solve", "--domain", domain, "--resolutions", n, "--out", str(tmp_path)]
    done = subprocess.run(
        [sys.executable, "-m", "critifem.app", *argv], capture_output=True, text=True,
        env=fresh_env(), timeout=120, preexec_fn=_limit_address_space,
    )
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert done.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in done.stderr


def test_every_huge_option_value_exits_with_a_documented_code(tmp_path):
    # A 20-digit integer as a count or a resolution must be refused before
    # anything of that size is allocated: the cases run in one child capped
    # at 1 GiB of address space, so a regression fails here instead of
    # exhausting the machine.
    tagged_square(tmp_path / "five_regions.msh", FIVE_REGIONS)
    argvs = [argv for name in app._SUBCOMMANDS for argv in sweep_argvs(name, [HUGE])]
    code = "\n".join([
        "import contextlib, json, sys, warnings",
        "from critifem.app import cli",
        "warnings.simplefilter('ignore')",
        "for argv in json.loads(sys.argv[1]):",
        "    with contextlib.redirect_stdout(sys.stderr):",
        "        print(cli(argv), flush=True, file=sys.__stdout__)",
    ])
    done = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)], capture_output=True,
        text=True, cwd=tmp_path, env=fresh_env(), timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
    codes = [int(line) for line in done.stdout.split()]
    assert len(codes) == len(argvs)
    assert [(argv, c) for argv, c in zip(argvs, codes) if c not in (0, 2, 3)] == []


@pytest.mark.parametrize("bc", ["robin:inf", "robin:nan", "robin:1,nan"])
def test_non_finite_robin_flag_exits_two(bc, tmp_path, capsys):
    code = cli(["solve", "--domain", "square", "--resolutions", "4", "--bc", bc,
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Robin coefficients must be finite" in err
    assert "Traceback" not in err


def test_non_finite_inline_robin_exits_two(tmp_path, capsys):
    path = config_file(tmp_path, "\n".join([
        "[deck]",
        "D1 = 1.0", "D2 = 0.5", "sigma_a1 = 0.2", "sigma_a2 = 0.1",
        "sigma_12 = 0.1", "nu_sigma_f1 = 0.3", "nu_sigma_f2 = 0.1",
        "bc = robin:inf",
    ]))
    code = cli(["solve", "--domain", "square", "--resolutions", "4",
                "--config", path, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Robin coefficients must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_config_tol_exits_two(tol, tmp_path, capsys):
    path = config_file(tmp_path, f"[solver]\ntol = {tol}\n")
    assert cli(["solve", "--domain", "square", "--resolutions", "8", "--num", "3",
                "--config", path, "--out", str(tmp_path)]) == 2
    assert "tolerances must be positive and finite" in capsys.readouterr().err
    assert not any(tmp_path.glob("*.vtk"))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("make, field, message", [
    (generate_unit_square, 1, "non-finite coordinate on node 2"),
    (generate_unit_cube, 1, "non-finite coordinate on node 2"),
    (generate_unit_square, 3, "2D mesh has nonzero z coordinates"),
], ids=["2d", "3d", "2d-z"])
def test_non_finite_vertex_exits_two(make, field, message, value, tmp_path, capsys):
    path = tmp_path / "bad.msh"
    write_msh(make(2), path)
    lines = path.read_text().splitlines()
    node = lines.index("$Nodes") + 3  # the line of the second node
    fields = lines[node].split()
    fields[field] = value
    lines[node] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")
    code = cli(["solve", "--mesh", str(path), "--num", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}:{node + 1}: {message}" in err
    assert "Traceback" not in err


def test_undecodable_mesh_names_its_line(tmp_path, capsys):
    path = tmp_path / "bad.msh"
    write_msh(generate_unit_square(2), path)
    lines = path.read_bytes().split(b"\n")
    node = lines.index(b"$Nodes") + 2  # the line of the first node
    lines[node] = lines[node].replace(b" ", " é".encode(), 1)
    path.write_bytes(b"\n".join(lines))
    code = cli(["solve", "--mesh", str(path), "--num", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}:{node + 1}: cannot decode byte 0xc3 as ascii" in err
    assert "Traceback" not in err


def disjoint_copies(mesh, count):
    """count copies of mesh, each shifted by 2 in x from the last, with the
    attributes write_msh reads; Mesh itself refuses such a mesh."""
    nv = mesh.num_vertices
    shift = 2.0 * np.eye(mesh.dim)[0]
    return types.SimpleNamespace(
        dim=mesh.dim, num_vertices=count * nv, num_cells=count * mesh.num_cells,
        vertices=np.vstack([mesh.vertices + i * shift for i in range(count)]),
        cells=np.vstack([mesh.cells + i * nv for i in range(count)]),
        region_tags=np.tile(mesh.region_tags, count),
        boundary_facets=np.vstack([mesh.boundary_facets + i * nv for i in range(count)]),
    )


@pytest.mark.parametrize("make, count, degree, num", [
    # congruent parts repeat each eigenvalue once per part, and the solver
    # holds at most two copies: these two returned a wrong spectrum with exit 0
    (lambda: generate_unit_square(8), 3, 2, 6),
    (lambda: generate_unit_cube(4), 3, 1, 8),
    (lambda: generate_unit_square(2), 2, 1, 1),
], ids=["three-squares", "three-cubes", "two-squares"])
def test_mesh_of_several_parts_exits_two(make, count, degree, num, tmp_path, capsys):
    path = tmp_path / "parts.msh"
    write_msh(disjoint_copies(make(), count), path)
    code = cli(["solve", "--mesh", str(path), "--degree", str(degree),
                "--num", str(num), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"the cells form {count} connected parts" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["parts.msh"]


def merged_cells(dim, vertices, cells):
    """The attributes write_msh reads for these cells, with coincident
    vertices merged and no boundary element; Mesh may refuse the cells."""
    _, first, inverse = np.unique(vertices.round(12), axis=0, return_index=True,
                                  return_inverse=True)
    cells = inverse.reshape(-1)[cells]
    return types.SimpleNamespace(
        dim=dim, num_vertices=len(first), num_cells=len(cells),
        vertices=vertices[first], cells=cells,
        region_tags=np.ones(len(cells), dtype=np.int64),
        boundary_facets=np.zeros((0, dim), dtype=np.int64),
    )


def corner_copies(mesh, count):
    """count copies of a unit square or cube, copy i shifted by i along
    every axis: consecutive copies share one corner vertex."""
    nv = mesh.num_vertices
    return merged_cells(mesh.dim, np.vstack([mesh.vertices + i for i in range(count)]),
                        np.vstack([mesh.cells + i * nv for i in range(count)]))


def disk_chain(count, N=6):
    """count copies of generate_disk(N), centres 2.5 apart on the x axis,
    each joined to the next by two triangles on the outer ring vertices at
    angles 0 and 2 pi / (8 N) of one disk and pi and pi - 2 pi / (8 N) of
    the next: every neck node lies on the boundary."""
    disk = generate_disk(N)
    nv, ring = disk.num_vertices, 1 + 4 * N * (N - 1) + np.arange(8 * N)
    cells = [disk.cells + i * nv for i in range(count)]
    for i in range(count - 1):
        a0, a1 = ring[[0, 1]] + i * nv
        b0, b1 = ring[[4 * N, 4 * N - 1]] + (i + 1) * nv
        cells.append(np.array([[a0, b0, b1], [a0, b1, a1]]))
    vertices = np.vstack([disk.vertices + [2.5 * i, 0.0] for i in range(count)])
    return merged_cells(2, vertices, np.vstack(cells))


@pytest.mark.parametrize("make, degree, num, bc, message", [
    # each returned a wrong spectrum with exit 0 when parts were counted
    # through shared vertices: a pinch or a Dirichlet neck does not couple
    # the lobes, and the solver holds at most two copies of an eigenvalue
    (lambda: corner_copies(generate_unit_square(8), 3), 2, 6, "dirichlet",
     "the cells form 3 connected parts"),
    (lambda: corner_copies(generate_unit_square(8), 3), 2, 6, "robin:0.5",
     "the cells form 3 connected parts"),
    (lambda: corner_copies(generate_unit_cube(4), 3), 1, 8, "dirichlet",
     "the cells form 3 connected parts"),
    (lambda: corner_copies(generate_unit_cube(4), 3), 1, 8, "robin:0.5",
     "the cells form 3 connected parts"),
    (lambda: disk_chain(3), 1, 8, "dirichlet", "the free DOFs form 3 connected parts"),
], ids=["corner-squares", "corner-squares-robin", "corner-cubes", "corner-cubes-robin",
        "disk-chain"])
def test_pinch_or_dirichlet_neck_exits_two(make, degree, num, bc, message, tmp_path,
                                           capsys):
    path = tmp_path / "pinched.msh"
    write_msh(make(), path)
    code = cli(["solve", "--mesh", str(path), "--degree", str(degree), "--num", str(num),
                "--bc", bc, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["pinched.msh"]


def test_disk_chain_under_robin_solves(tmp_path, capsys):
    # the neck nodes are free under Robin conditions, so the disks couple
    path = tmp_path / "chain.msh"
    write_msh(disk_chain(3), path)
    code = cli(["solve", "--mesh", str(path), "--num", "2", "--bc", "robin:0.5",
                "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("vertices, cells, message", [
    ([[0, 0], [1, 0], [0, 1], [1, 1], [-1, 1]], [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
     "non-conforming mesh: a facet is shared by >2 cells"),
    ([[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1]], [[0, 1, 2], [0, 3, 4]],
     "the cells form 2 connected parts"),
], ids=["three-on-one-edge", "bowtie"])
def test_mesh_refused_by_mesh_names_file_and_line(vertices, cells, message, tmp_path,
                                                  capsys):
    path = tmp_path / "refused.msh"
    write_msh(merged_cells(2, np.array(vertices, dtype=float), np.array(cells)), path)
    # the line of the element count, as "duplicate element id" names it
    line = path.read_text().splitlines().index("$Elements") + 2
    code = cli(["solve", "--mesh", str(path), "--num", "1", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}:{line}: {message}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_undecodable_config_names_its_line(newline, tmp_path, capsys):
    path = tmp_path / "run.ini"
    path.write_bytes(newline.join([b"[run]", b"# caf\xe9", b"domain = square", b""]))
    code = cli(["solve", "--config", str(path), "--resolutions", "4",
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}:2: cannot decode byte 0xe9 as utf-8" in err
    assert "Traceback" not in err


def test_config_may_start_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.ini"
    path.write_bytes(b"\xef\xbb\xbf[run]\nnum = 2\n")
    assert cli(["oracle", "--config", str(path)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2
    # the mark takes no line: a bad value after it keeps its line number
    path.write_bytes(b"\xef\xbb\xbf[run]\nnum = two\n")
    assert cli(["oracle", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: num: ")


def test_exit_code_three_no_fission(tmp_path, capsys):
    path = config_file(tmp_path, "\n".join([
        "[deck]",
        "D1 = 1.0", "D2 = 0.5", "sigma_a1 = 0.2", "sigma_a2 = 0.1",
        "sigma_12 = 0.1", "nu_sigma_f1 = 0.0", "nu_sigma_f2 = 0.0",
    ]))
    code = cli(["solve", "--domain", "square", "--resolutions", "4",
                "--config", path, "--out", str(tmp_path)])
    assert code == 3
    assert "empty spectrum" in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["square", "cube"])
def test_exit_code_three_no_free_dof(domain, tmp_path, capsys):
    # N=1: every node lies on the Dirichlet boundary
    code = cli(["solve", "--domain", domain, "--resolutions", "1",
                "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "no free DOF" in err
    assert "Traceback" not in err


def test_exit_code_three_converge_no_fission(tmp_path, capsys):
    # no fission: no resolution certifies a pair, which is a solver failure
    path = config_file(tmp_path, "\n".join([
        "[deck]",
        "D1 = 1.0", "D2 = 0.5", "sigma_a1 = 0.2", "sigma_a2 = 0.1",
        "sigma_12 = 0.1", "nu_sigma_f1 = 0.0", "nu_sigma_f2 = 0.0",
    ]))
    code = cli(["converge", "--domain", "square", "--resolutions", "4,8,16",
                "--config", path, "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 3
    assert "certified only 0 of 5" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", "square", "--resolutions", "2", "--num", "5"],
])
@pytest.mark.filterwarnings("ignore:sigma_a1 = 0")
def test_exit_code_three_fewer_pairs_than_num(argv, tmp_path, capsys):
    # square N=2 has one free DOF, hence one pair
    code = cli(argv + ["--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 3
    assert f"solver certified only 1 of {argv[-1]} pairs" in err
    assert not (tmp_path / "out").exists()


def test_absolute_certification_limit_on_nine_dofs(tmp_path, capsys):
    # README: on the 9-DOF square mesh with the quarter-core deck the
    # absolute certification passes one pair and misses a large second one
    mesh = str(tmp_path / "square2.msh")
    write_msh(generate_unit_square(2), mesh)
    argv = ["benchmark", "iaea2d", "--mesh", mesh, "--out", str(tmp_path)]
    assert cli(argv + ["--num", "1"]) == 0
    capsys.readouterr()
    assert cli(argv + ["--num", "5"]) == 3
    err = capsys.readouterr().err
    assert "misses certification" in err
    assert "Traceback" not in err


REPORTING_RUNS = [
    (["solve", "--domain", "square", "--resolutions", "8", "--degree", "2", "--num", "3"],
     ["square_k2_modes.vtk", "square_k2_modes_coefficients.csv"]),
    (["converge", "--domain", "square", "--resolutions", "4,8,16"],
     ["square_k1_study.csv"]),
]


@pytest.mark.parametrize("argv,files", REPORTING_RUNS, ids=["solve", "converge"])
def test_closed_stdout_drops_only_the_report(argv, files, tmp_path, capsys):
    # the reader of stdout is gone before the child prints: every file is
    # still written, as by a run with an open stdout, and the exit is 0
    with subprocess.Popen(
        [sys.executable, "-m", "critifem.app", *argv, "--out", str(tmp_path / "closed")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=fresh_env(),
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 0, err
    assert "Broken pipe" not in err and "Traceback" not in err
    assert cli(argv + ["--out", str(tmp_path / "open")]) == 0
    assert capsys.readouterr().out
    for name in files:
        assert filecmp.cmp(tmp_path / "closed" / name, tmp_path / "open" / name,
                           shallow=False)


@pytest.mark.parametrize("argv", [argv for argv, _files in REPORTING_RUNS],
                         ids=["solve", "converge"])
def test_run_that_fails_after_solving_prints_no_report(argv, tmp_path, capsys):
    # --out names a regular file: the solve succeeds, the write fails
    out = tmp_path / "taken"
    out.write_text("")
    assert cli(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# ---------------------------------------------------------------------------
# solve/converge outputs

def test_solve_writes_deterministic_vtk(tmp_path, capsys):
    argv = ["solve", "--domain", "square", "--resolutions", "8", "--num", "2"]
    assert cli(argv + ["--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "lambda" in out and "k_eff" in out
    assert "66.57" not in out.split("wrote")[1]  # path line, not spectrum
    vtk = tmp_path / "a" / "square_k1_modes.vtk"
    assert vtk.exists()
    text = vtk.read_text().splitlines()
    assert text[0] == "# vtk DataFile Version 3.0"
    assert "POINTS 81 double" in text
    assert "CELLS 128 512" in text
    assert "CELL_TYPES 128" in text
    assert "POINT_DATA 81" in text
    for name in ("phi1_1", "phi2_1", "phi1_2", "phi2_2"):
        assert f"SCALARS {name} double 1" in text
    assert cli(argv + ["--out", str(tmp_path / "b")]) == 0
    assert filecmp.cmp(vtk, tmp_path / "b" / "square_k1_modes.vtk",
                       shallow=False)


def test_deck_region_that_no_cell_carries_is_unread(tmp_path):
    body = "".join(f"{key} = {value}\n" for key, value in TABLE1_DECK.items())
    other = body.replace("D1 = 1.0", "D1 = 2.0") + "bc = robin:0.5\n"
    files = []
    for name, text in (("one", f"[deck]\n{body}"),
                       ("two", f"[deck]\n{body}[deck.2]\n{other}")):
        path = config_file(tmp_path, text, f"{name}.ini")
        assert cli(["solve", "--domain", "square", "--resolutions", "4",
                    "--config", path, "--out", str(tmp_path / name)]) == 0
        files.append(tmp_path / name / "square_k1_modes.vtk")
    assert filecmp.cmp(*files, shallow=False)


def test_solve_degree_two_writes_coefficient_sidecar(tmp_path):
    assert cli(["solve", "--domain", "square", "--resolutions", "4",
                "--degree", "2", "--num", "1", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "square_k2_modes.vtk").exists()
    sidecar = tmp_path / "square_k2_modes_coefficients.csv"
    lines = sidecar.read_text().splitlines()
    assert lines[0] == "dof,phi1_1,phi2_1"
    assert len(lines) == 1 + 81  # 25 vertex + 56 edge DOFs
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert max(values) > 0.0


def test_solve_from_mesh_file(tmp_path):
    mesh_path = tmp_path / "patch.msh"
    write_msh(generate_unit_square(4), mesh_path)
    assert cli(["solve", "--mesh", str(mesh_path), "--num", "1",
                "--out", str(tmp_path)]) == 0
    assert (tmp_path / "patch_k1_modes.vtk").exists()


def test_dirichlet_and_robin_regions_on_one_boundary_solve(tmp_path, capsys):
    # each boundary facet takes its cell's region's BC, so an untagged file
    # may hold a Dirichlet region next to a Robin one
    base = generate_unit_square(8)
    left = base.vertices[base.cells].mean(axis=1)[:, 0] < 0.5
    mesh = Mesh(2, base.vertices, base.cells, np.where(left, 1, 2))
    mesh_path = tmp_path / "split.msh"
    write_msh(mesh, mesh_path)
    body = "".join(f"{key} = {value}\n" for key, value in TABLE1_DECK.items())
    path = config_file(tmp_path, f"[run]\nmesh = {mesh_path}\nout = {tmp_path}\n"
                       f"[deck]\n{body}bc = dirichlet\n[deck.2]\n{body}bc = robin:0.3,0.8\n")
    assert cli(["solve", "--config", path]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    got = [float(row[1]) for row in rows if row[0].isdecimal()]
    assert len(got) == 5

    table1 = GroupConstants(**TABLE1_DECK)
    deck = {1: (table1, BoundaryCondition.dirichlet()),
            2: (table1, BoundaryCondition.robin(0.3, 0.8))}
    system = assemble(mesh, build_dofmap(mesh, 1), deck, 1)
    alpha, beta = scipy.linalg.eigvals(system.A.toarray(), system.B.toarray(),
                                       homogeneous_eigvals=True)
    finite = np.abs(beta) > 1e-8 * np.max(np.abs(beta))
    want = np.sort((alpha[finite] / beta[finite]).real)[:5]
    assert np.allclose(got, want, rtol=1e-9, atol=1e-9)


def vtk_points_and_field(path, name):
    """POINTS coordinates and one point-data scalar field of a legacy VTK file."""
    lines = path.read_text().splitlines()
    head = next(i for i, line in enumerate(lines) if line.startswith("POINTS "))
    npts = int(lines[head].split()[1])
    points = np.array([line.split() for line in lines[head + 1 : head + 1 + npts]],
                      dtype=float)
    start = lines.index(f"SCALARS {name} double 1") + 2
    return points, np.array(lines[start : start + npts], dtype=float)


def test_vtk_point_values_are_the_vertex_dofs_with_a_stray_node(tmp_path):
    # a node no cell uses, listed first, must not shift the point data
    mesh_path = tmp_path / "stray.msh"
    write_msh(generate_unit_square(2), mesh_path)
    lines = mesh_path.read_text().splitlines()
    at = lines.index("$Nodes")
    lines[at + 1 : at + 2] = ["10", "10 0.25 0.25 0.0"]
    mesh_path.write_text("\n".join(lines) + "\n")
    assert cli(["solve", "--mesh", str(mesh_path), "--degree", "2", "--num", "1",
                "--out", str(tmp_path)]) == 0
    points, phi1 = vtk_points_and_field(tmp_path / "stray_k2_modes.vtk", "phi1_1")
    rows = (tmp_path / "stray_k2_modes_coefficients.csv").read_text().splitlines()
    coeffs = np.array([float(row.split(",")[1]) for row in rows[1:]])
    mesh = read_gmsh(mesh_path)
    cell_dofs = build_dofmap(mesh, 2).cell_dofs
    assert np.array_equal(points[:, :2], mesh.vertices)
    vertex_dof = np.empty(mesh.num_vertices, dtype=np.int64)
    vertex_dof[mesh.cells] = cell_dofs[:, :3]
    assert np.array_equal(phi1, coeffs[vertex_dof])
    # the fundamental peaks at the only interior vertex, the centre
    assert points[np.argmax(phi1)].tolist() == [0.5, 0.5, 0.0]


def test_converge_writes_deterministic_csv(tmp_path, capsys):
    argv = ["converge", "--domain", "square", "--resolutions", "4,8,16",
            "--num", "2"]
    assert cli(argv + ["--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert "extrapolated" in out
    csv_a = tmp_path / "a" / "square_k1_study.csv"
    assert csv_a.exists()
    assert cli(argv + ["--out", str(tmp_path / "b")]) == 0
    assert filecmp.cmp(csv_a, tmp_path / "b" / "square_k1_study.csv",
                       shallow=False)


def test_converge_label_names_the_bc_override(tmp_path, capsys):
    # a --bc run is not the deck's own study, and its label says so; a run
    # without --bc keeps the bare deck name
    argv = ["converge", "--domain", "square", "--resolutions", "2,3,4", "--num", "1",
            "--out", str(tmp_path)]
    csv_path = tmp_path / "square_k1_study.csv"
    for extra, label in [(["--bc", "robin:0.5"], "deck=paper-table1 bc=robin:0.5"),
                         ([], "deck=paper-table1")]:
        assert cli(argv + extra) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"domain=square degree=1 {label}"
        assert csv_path.read_text().splitlines()[0] == (
            f"# convergence study: domain=square degree=1 {label}"
        )


def test_oracle_prints_references(capsys):
    assert cli(["oracle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    got = [float(l.split()[-1]) for l in lines[1:]]
    assert np.allclose(got, SQUARE_REF, atol=1e-6)


def test_check_ellipticity_reports(capsys):
    assert cli(["check-ellipticity"]) == 0
    out = capsys.readouterr().out
    assert "region 1: margin = -0.11" in out
    assert "-> elliptic" in out
    assert cli(["check-ellipticity", "--deck", "iaea-2d"]) == 0
    out = capsys.readouterr().out
    assert "region 4" in out
    assert "NOT elliptic" in out


# ---------------------------------------------------------------------------
# field serialization

def vtk_field_names(path):
    return re.findall(r"^SCALARS (\S+) double 1$", path.read_text(), flags=re.M)


def test_field_output_imaginary_fields_only_when_complex(tmp_path):
    mesh = generate_unit_square(1)
    path = tmp_path / "fields.vtk"
    # the vectors run past the 4 vertices, like higher-degree coefficients
    real = types.SimpleNamespace(phi1=np.ones(6), phi2=np.zeros(6))
    write_vtk(mesh, [real], path)
    assert vtk_field_names(path) == ["phi1_1", "phi2_1"]
    cplx = types.SimpleNamespace(phi1=np.ones(6) + 1j * np.arange(6),
                                 phi2=np.ones(6) + 0j)
    write_vtk(mesh, [real, cplx], path)
    # zero imaginary part dropped
    assert vtk_field_names(path) == ["phi1_1", "phi2_1", "phi1_2", "phi1_2_im", "phi2_2"]
    _points, imag = vtk_points_and_field(path, "phi1_2_im")
    assert np.array_equal(imag, np.arange(4, dtype=float))


def test_write_vtk_3d_cells(tmp_path):
    mesh = generate_unit_cube(1)
    path = tmp_path / "cube.vtk"
    write_vtk(mesh, [types.SimpleNamespace(phi1=np.arange(8, dtype=float),
                                           phi2=np.zeros(8))], path)
    text = path.read_text().splitlines()
    assert "POINTS 8 double" in text
    assert "CELLS 6 30" in text
    assert text.count("10") >= 6  # tetrahedron type
    assert "1.0 1.0 1.0" in text  # corner vertex with explicit z
    assert text[-1] == "0.0"


# golden bytes of the writers on the packaged quarter-core mesh, from fixed
# synthetic fields (no solver output, so no BLAS or ARPACK dependence)

def synthetic_column(n, salt):
    """Exactly rounded values over nine decades, with -0.0, 1e-300, 1/3
    and 1e16 at positions salt..salt+3."""
    i = np.arange(n)
    col = ((i * 7919 + salt * 104729) % 2003 - 1001) / 37.0
    col = col * np.array([1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4])[i % 9]
    col[salt:salt + 4] = [-0.0, 1e-300, 1.0 / 3.0, 1e16]
    return col


def synthetic_solution(n):
    """phi1 real, phi2 complex (its imaginary part carries a -0.0 too)."""
    phi2 = synthetic_column(n, 2).astype(complex)
    phi2.imag = synthetic_column(n, 3)
    return types.SimpleNamespace(phi1=synthetic_column(n, 1), phi2=phi2)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_write_vtk_bytes_are_pinned(tmp_path):
    mesh = read_gmsh(packaged_mesh_path())
    path = tmp_path / "fields.vtk"
    write_vtk(mesh, [synthetic_solution(mesh.num_vertices)], path)
    assert sha256(path) == (
        "273fbfcb47a73bf16c73874d201b83b67f0ae7230853f95647140cec9f33091c"
    )


@pytest.mark.parametrize("k,digest", [
    (1, "13bacc6b4644fc82e8d3aa5985c2b2524ea0fd5546f342fd16b3e46ffd7e22e2"),
    (2, "67322ad4aaa2ac23b6c53d60f067215135f2bad5011a5f92c35a6a1c12e739ef"),
])
def test_coefficient_csv_bytes_are_pinned(tmp_path, k, digest):
    n = build_dofmap(read_gmsh(packaged_mesh_path()), k).n
    path = tmp_path / "coefficients.csv"
    _write_coefficient_csv([synthetic_solution(n)], path)
    assert sha256(path) == digest


def test_write_msh_round_trip_bytes_are_pinned(tmp_path):
    first, second = tmp_path / "first.msh", tmp_path / "second.msh"
    write_msh(read_gmsh(packaged_mesh_path()), first)
    write_msh(read_gmsh(first), second)
    digest = "1fae1ca65b4cda35b8e2a45874560750aec03538a5f379a531a3ff62cbc7dcc0"
    assert sha256(first) == digest
    assert sha256(second) == digest


def test_write_vtk_3d_bytes_are_pinned(tmp_path):
    path = tmp_path / "cube.vtk"
    write_vtk(generate_unit_cube(2), [synthetic_solution(27)], path)
    assert sha256(path) == (
        "079c1bf2c7c3e5cd5a1b87efbc3a19f42cb2cecaabd1ab629b317e0cb0806293"
    )


def test_write_msh_3d_round_trip_bytes_are_pinned(tmp_path):
    first, second = tmp_path / "first.msh", tmp_path / "second.msh"
    write_msh(generate_unit_cube(2), first)
    write_msh(read_gmsh(first), second)
    digest = "838c9464bb7b624a1e583ce10a033eac4176774aa965c4c1e64468431e09ed01"
    assert sha256(first) == digest
    assert sha256(second) == digest


# ---------------------------------------------------------------------------
# quarter-core benchmark

def test_run_iaea2d_dominant_mode():
    # the reflector regions have sigma_a1 = 0, which assembly flags
    with pytest.warns(UserWarning, match="sigma_a1 = 0 in region"):
        result = run_iaea2d()
    assert 0.97 < result.k_eff < 0.99
    sol = result.solutions[0]
    assert sol.residual <= 1e-9
    # per-group unit-max normalization, over the vertex values written out
    nv = result.mesh.num_vertices
    assert abs(np.max(sol.phi1[:nv]) - 1.0) < 1e-12
    assert abs(np.max(sol.phi2[:nv]) - 1.0) < 1e-12
    fast, thermal = result.boundary_peak_fraction
    assert 0.0 < fast < 0.2
    assert 0.0 < thermal < 0.2


@pytest.mark.filterwarnings("ignore:sigma_a1 = 0")
def test_run_iaea2d_rejects_extra_regions(tmp_path):
    # the five-region deck has no constants for region 6; assemble says so
    with pytest.raises(ValueError, match="deck is missing region 6"):
        run_iaea2d(mesh_path=six_region_mesh(tmp_path))


def test_packaged_mesh_is_shipped():
    assert packaged_mesh_path().name.endswith(".msh")


def test_benchmark_cli(tmp_path, capsys):
    with pytest.warns(UserWarning, match="sigma_a1 = 0 in region"):
        assert cli(["benchmark", "iaea2d", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "k_eff = 0.98" in out
    assert "boundary/max flux" in out
    assert (tmp_path / "iaea2d_k1.vtk").exists()


def test_benchmark_cli_rejects_other_deck(tmp_path, capsys):
    path = config_file(tmp_path, "[run]\ndeck = paper-table1\n")
    assert cli(["benchmark", "iaea2d", "--config", path]) == 2
    assert "run.ini:2: unknown key 'deck' for benchmark" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--domain", "square", "--resolutions", "6", "--degree", "2",
     "--num", "2"],
    ["benchmark", "iaea2d"],
])
@pytest.mark.filterwarnings("ignore:sigma_a1 = 0")
def test_solved_system_is_released_before_output(argv, tmp_path, monkeypatch):
    # once its pairs are out, the system (and any factors left on it) must
    # be garbage before the fields are sampled and written
    systems, released = [], []
    assemble, write_vtk = app.assemble, app.write_vtk

    def assemble_spy(*args):
        system = assemble(*args)
        systems.append(weakref.ref(system))
        return system

    def write_vtk_spy(*args):
        gc.collect()
        released.append([ref() is None for ref in systems])
        return write_vtk(*args)

    monkeypatch.setattr(app, "assemble", assemble_spy)
    monkeypatch.setattr(app, "write_vtk", write_vtk_spy)
    assert cli(argv + ["--out", str(tmp_path)]) == 0
    assert released == [[True]]


# ---------------------------------------------------------------------------
# import footprint and exports

@pytest.mark.parametrize(
    "name", sorted(info.name for info in pkgutil.iter_modules(critifem.__path__))
)
def test_every_export_resolves(name):
    # a stale __all__ entry breaks `from critifem.<module> import *`
    module = importlib.import_module(f"critifem.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    exec(f"from critifem.{name} import *", {})


def test_import_loads_no_optional_scipy_subpackage():
    # a fresh interpreter, because this one already has scipy loaded; the
    # disk references (a bench study's set-up, the oracle) load none either
    code = "\n".join([
        "import contextlib, io, sys, critifem.app",
        "from critifem.convergence import reference_eigenvalues",
        "from critifem.materials import builtin_deck",
        "reference_eigenvalues('disk', 5, builtin_deck('paper-table1')[1][0])",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    assert critifem.app.cli(['oracle', '--domain', 'disk', '--modes', '100']) == 0",
        "print(' '.join(m for m in ('scipy.optimize', 'scipy.special', 'scipy.io') "
        "if m in sys.modules))",
    ])
    done = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(), capture_output=True, text=True,
        timeout=120, check=True,
    )
    assert done.stdout.split() == []
