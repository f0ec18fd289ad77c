"""The package's layers: kernels, then suites, then reports, then the CLI.
A module imports only from the layers below it, so a kernel cannot learn
which inputs a suite's checks will visit, and the suites run without the
runner that calls them.  Read from the source by ast, not by importing."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ccrlab"
KERNELS = ("fock", "analytic", "weyl", "schrodinger", "interval", "symbolic", "exact", "rng")


def _imported_modules(name: str) -> set[str]:
    """The ccrlab modules that the module name imports, at any depth of its source."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:  # from . import x, from .x import y
            found |= {alias.name for alias in node.names} if node.module is None else {node.module.split(".")[0]}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ccrlab"):
            parts = node.module.split(".")
            found |= {parts[1]} if len(parts) > 1 else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.split(".")[1] for alias in node.names if alias.name.startswith("ccrlab.")}
    return found


@pytest.mark.parametrize("kernel", KERNELS)
def test_a_kernel_imports_no_suite_runner_or_cli(kernel):
    assert _imported_modules(kernel) & {"reports", "suites", "cli"} == set()


def test_the_suites_import_neither_the_runner_nor_the_cli():
    imported = _imported_modules("suites")
    assert imported & {"reports", "cli"} == set()
    assert imported <= set(KERNELS)


def test_the_reader_finds_both_relative_import_forms():
    assert _imported_modules("interval") >= {"fock", "schrodinger"}  # from .fock import ..., from .schrodinger import ...
    assert _imported_modules("reports") >= {"fock", "suites"}  # from . import fock, ...; from .suites import ...
    assert _imported_modules("cli") == {"reports"}
