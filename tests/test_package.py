"""The package's lazy exports, and what the bundled solver's process loads."""

import importlib
import re
import subprocess

import pytest

import polybound
import polybound.ir
from polybound.smt import BUNDLED, launch_command

from conftest import run_python


@pytest.mark.parametrize("package", [polybound, polybound.ir])
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name


@pytest.mark.parametrize("package", ["polybound", "polybound.ir"])
def test_star_import_binds_every_exported_name(package):
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(importlib.import_module(package).__all__)


def test_submodules_resolve_after_a_bare_import():
    code = "import polybound; polybound.smt.resolve_solver(); print(polybound.smt.__name__)"
    proc = run_python(["-c", code])
    assert (proc.returncode, proc.stdout) == (0, "polybound.smt\n"), proc.stderr
    assert polybound.ir.parser.parse_program is polybound.parse_program


@pytest.mark.parametrize("package", [polybound, polybound.ir])
def test_unknown_attribute_raises_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name


def test_bundled_solver_process_loads_only_what_it_uses():
    # the command a query runs, verbose: it lists every module it imports,
    # from interpreter start-up on
    command = launch_command(BUNDLED)
    proc = subprocess.run(
        [command[0], "-v", *command[1:]], input="(set-logic QF_NIA)\n"
        "(declare-const x Int)\n(assert (> (+ x (- 2)) 0))\n(check-sat)\n", capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (0, "sat\n"), proc.stderr
    loaded = re.findall(r"^import '([^']+)'", proc.stderr, re.MULTILINE)
    assert not {"site", "typing", "dataclasses", "inspect"} & set(loaded), loaded
    assert sorted(m for m in loaded if m.startswith("polybound")) == [
        "polybound",
        "polybound.ir",
        "polybound.ir.formula",
        "polybound.ir.linear",
        "polybound.ir.poly",
        "polybound.minismt",
    ]
