"""The program surface the benchmark harness under bench/ relies on.

The harness calls the program and patches its entry points through
module attributes (`app.cli`, `mesh.generate_disk`, ...), so a rename in
the program would only show up as a failing traced run. These tests read
the harness sources without running them.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from critifem import app

BENCH = Path(__file__).resolve().parent.parent / "bench"


def critifem_attributes(path):
    """(module name, attribute, line) of every `<module>.<attribute>` in a
    bench file, for the modules it imports with `from critifem import ...`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "critifem"
        for alias in node.names
    }
    return [
        (modules[node.value.id], node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    ]


BENCH_FILES = sorted(BENCH.glob("*.py"))


def test_bench_sources_are_present():
    assert {"spans.py", "workloads.py"} <= {p.name for p in BENCH_FILES}


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_every_program_attribute_the_bench_names_exists(path):
    missing = [
        f"{path.name}:{line}: critifem.{module}.{attr}"
        for module, attr, line in critifem_attributes(path)
        if not hasattr(importlib.import_module(f"critifem.{module}"), attr)
    ]
    assert missing == []


def test_write_vtk_takes_the_path_last():
    # the tracer counts output bytes as the size of the file named by the
    # last positional argument of every write call
    for writer in (app.write_vtk, app._write_coefficient_csv):
        assert list(inspect.signature(writer).parameters)[-1] == "path"
