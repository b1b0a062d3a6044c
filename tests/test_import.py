import ast
import importlib
import os
import subprocess
import sys

import pytest

import plasmacas

# deleted, or moved to tests/oracles.py, with the module that defined them
REMOVED = {
    "roundtrip": ("AngularKernel", "m_element", "_element_once"),
    "specfun": ("ScaledBessel", "bessel_half", "legendre_p", "_dilog_series", "_RESCALE",
                "_LN_RESCALE"),
    "asymptotics": ("script_b_divided_difference", "e1", "e0", "_e0_times_t", "_e0_series",
                    "_e0_prefactor", "_e1_series", "_series_term_factory", "_hom_power_sums",
                    "_ntl_kernel", "_lin", "_e1_braces", "_fitted_tail", "_power_tail"),
    "pfa": ("PfaParams", "_r_product"),
}


def test_public_names_resolve_and_removed_names_are_gone():
    for name in plasmacas.__all__:
        assert getattr(plasmacas, name) is not None, name
    for module, names in REMOVED.items():
        mod = importlib.import_module(f"plasmacas.{module}")
        for name in names:
            assert name not in plasmacas.__all__
            assert not hasattr(plasmacas, name), name
            assert not hasattr(mod, name), f"{module}.{name}"
    assert not hasattr(plasmacas.RoundTripBlock, "dense_matrix")


# run in a child whose import system refuses scipy: every production path
# of the library, the CLI included, must work on numpy alone
_WITHOUT_SCIPY = """
import importlib.abc, sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
import plasmacas
from plasmacas import cli
from plasmacas.asymptotics import small_gap_expansion, theta

inf, g = float("inf"), 6.75e5 * 1e-6  # PC, and graphene at d = 1 um
assert plasmacas.pfa_energy(1e-3, 1e-6, g, g) < 0.0
assert plasmacas.lifshitz_plane_plane(1e-6, g, g) < 0.0
for w in (inf, g):
    e0, e1, th = small_gap_expansion(1.0, 0.01, w, w)
    assert e0 < 0.0 and th < 0.0
assert abs(theta(inf, inf) - (1.0 / 3.0 - 20.0 / 3.141592653589793 ** 2)) < 1e-9
s, p = plasmacas.SphereSheet(1.0, 2.0), plasmacas.PlaneSheet(2.0, 1.5)
assert plasmacas.casimir_energy(s, p, plasmacas.NumericsSpec(rel_tol=1e-2)).energy < 0.0
assert cli.main(["point", "--method", "all", "--radius", "1e-3", "--gap", "4e-4",
                 "--omega-sphere", "6.75e5", "--omega-plane", "6.75e5",
                 "--rel-tol", "1e-4", "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_library_runs_without_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(plasmacas.__file__)))
    out_csv = tmp_path / "point.csv"
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, str(out_csv)],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "[]"
    rows = out_csv.read_text().splitlines()
    assert len(rows) == 4 and all(row.endswith(",ok") for row in rows[1:]), rows


# run in a fresh child: the modules `import plasmacas` adds to those numpy
# loaded, and every plasmacas module attribute that is an array
_IMPORT_COST = """
import sys
import numpy
before = set(sys.modules)
import plasmacas
print(sorted(m for m in set(sys.modules) - before if m.split(".")[0] != "plasmacas"))
print(sorted(f"{name}.{key}" for name, mod in list(sys.modules.items())
             if name.split(".")[0] == "plasmacas"
             for key, value in vars(mod).items() if isinstance(value, numpy.ndarray)))
"""


def test_import_adds_no_module_and_builds_no_array():
    # every child process that imports the library pays for what its import
    # loads and computes: an added import or an import-time table must show
    # up as an edit here
    src = os.path.dirname(os.path.dirname(os.path.abspath(plasmacas.__file__)))
    out = subprocess.run([sys.executable, "-c", _IMPORT_COST],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    added, arrays = (ast.literal_eval(line) for line in out.stdout.splitlines()[-2:])
    allowed = {"__future__", "copy", "dataclasses", "numpy.polynomial"}
    assert [m for m in added if m not in allowed and not m.startswith("numpy.polynomial.")] == []
    assert arrays == []


def _scipy_imports(tree):
    """(enclosing function, imported module) of every scipy import in tree."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        names = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        found.extend((func, n) for n in names if n == "scipy" or n.startswith("scipy."))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_scipy_is_a_test_dependency_only():
    # the library needs numpy alone; gauss_laguerre, which only the oracles
    # call, keeps the one scipy import (see its docstring)
    pkg = os.path.dirname(os.path.abspath(plasmacas.__file__))
    found = {}
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                hits = _scipy_imports(ast.parse(fh.read(), name))
            if hits:
                found[name] = hits
    assert found == {"_quadrature.py": [("gauss_laguerre", "scipy.special")]}

    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    with open(os.path.join(pkg, "..", "..", "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not any(dep.startswith("scipy") for dep in project["dependencies"])
    extras = {k: [d for d in v if d.startswith("scipy")]
              for k, v in project["optional-dependencies"].items()}
    assert {k: v for k, v in extras.items() if v} == {"test": ["scipy>=1.10"]}
