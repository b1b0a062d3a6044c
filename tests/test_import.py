import importlib
import os
import subprocess
import sys

import plasmacas

# deleted, or moved to tests/oracles.py, with the module that defined them
REMOVED = {
    "roundtrip": ("AngularKernel", "m_element", "_element_once"),
    "specfun": ("ScaledBessel", "bessel_half", "legendre_p", "_dilog_series", "_RESCALE",
                "_LN_RESCALE"),
    "asymptotics": ("script_b_divided_difference", "e1", "e0", "_e0_times_t", "_e0_series",
                    "_e0_prefactor", "_e1_series"),
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


def test_import_leaves_scipy_linalg_unloaded():
    # no module of the library imports scipy.linalg, which adds about 75 ms;
    # scipy.special (0.28 s and 26 MB) is imported inside the three functions
    # that use it, none of them on the exact path, so importing the package
    # and computing one exact energy loads neither
    src = os.path.dirname(os.path.dirname(os.path.abspath(plasmacas.__file__)))
    code = ("import sys, plasmacas\n"
            "s, p = plasmacas.SphereSheet(1.0, 2.0), plasmacas.PlaneSheet(2.0, 1.5)\n"
            "res = plasmacas.casimir_energy(s, p, plasmacas.NumericsSpec(rel_tol=1e-2))\n"
            "print(res.energy < 0.0, [m for m in ('scipy.special', 'scipy.linalg') "
            "if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "True []"
