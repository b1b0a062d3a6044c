"""Print the exact and small-gap results of a fixed set of points, bit for bit.

One line per exact point: a label, then ``float.hex`` of E and of
``error_estimate`` (both for R = 1), then ``l_max_used``, ``m_max_used``
and ``kappa_nodes_used``.  The points are the exact workloads of
``bench/points.json`` (read, never written) at the benchmark's rel_tol
1e-3, perfect conductors at L/R = 11, 31, 101 and 301, PC d/R = 0.1 at
rel_tol 1e-4, PC d/R = 0.3 at rel_tol 1e-5, where the start degree grows
once, PC d/R = 0.02 at rel_tol 1e-3, which takes about 0.4 s, and
Omega R = 1 on both sheets at d/R = 0.03 and rel_tol 1e-3, where the l_max
pick rises after a kappa miss.

Then one line per small-gap point: a label starting ``small-gap``, then
``float.hex`` of ``pfa_energy``, E0, E1 and theta.  The points are the
``asympt-sweep`` gaps of ``bench/points.json`` with its Omega on both
sheets and R = 1e-3 (lengths in m), PC on both sheets, and a PC sphere
before a w = 0.2407 plane and the reverse (R = 1, d = 0.01), where the E1
series runs 29-32 terms.

A change that must leave the exact and small-gap numbers alone is checked
by running this once per checkout, each in its own process, and comparing:

    PYTHONPATH=<parent checkout>/src python3 tools/exact_points.py > a.txt
    PYTHONPATH=<changed checkout>/src python3 tools/exact_points.py > b.txt
    diff a.txt b.txt

BLAS and OpenMP run on one thread unless the environment says otherwise;
the variables are set before numpy is imported.  The last bits of a
stacked Cholesky or matrix product depend on the thread count, so a
byte-for-byte comparison holds only with that count fixed.
"""

from __future__ import annotations

import json
import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from plasmacas.asymptotics import small_gap_expansion
from plasmacas.energy_exact import NumericsSpec, casimir_energy
from plasmacas.pfa import pfa_energy
from plasmacas.scattering import PERFECT_CONDUCTOR, PlaneSheet, SphereSheet, varpi

POINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "points.json")
PC = "pc"


def _bench() -> dict:
    with open(POINTS, encoding="utf-8") as f:
        return json.load(f)


def points() -> list:
    """(label, d/R, Omega_s R, Omega_p R, rel_tol) of every exact point."""
    bench = _bench()
    out = [(f"{name}[{i}]", p["d_over_R"], p["omega_R_sphere"], p["omega_R_plane"], 1e-3)
           for name in ("exact-narrow", "exact-wide") for i, p in enumerate(bench[name])]
    out += [(f"pc L/R={q}", q - 1.0, PC, PC, 1e-3) for q in (11, 31, 101, 301)]
    out += [("pc d/R=0.1 rel_tol=1e-4", 0.1, PC, PC, 1e-4),
            ("pc d/R=0.3 rel_tol=1e-5", 0.3, PC, PC, 1e-5),
            ("pc d/R=0.02", 0.02, PC, PC, 1e-3),
            ("omega R=1 d/R=0.03", 0.03, 1.0, 1.0, 1e-3)]
    return out


def small_gap_points() -> list:
    """(label, R, d, w_s, w_p) of every small-gap point."""
    sweep = _bench()["asympt-sweep"]
    om = sweep["omega_per_m"]
    out = [(f"small-gap asympt-sweep[{i}]", 1e-3, d, varpi(om, d), varpi(om, d))
           for i, d in enumerate(sweep["gaps_m"])]
    out += [("small-gap pc-pc", 1.0, 0.01, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR),
            ("small-gap pc sphere w_p=0.2407", 1.0, 0.01, PERFECT_CONDUCTOR, 0.2407),
            ("small-gap w_s=0.2407 pc plane", 1.0, 0.01, 0.2407, PERFECT_CONDUCTOR)]
    return out


def omega(value) -> float:
    return PERFECT_CONDUCTOR if value == PC else float(value)


def main() -> int:
    for label, d, om_s, om_p, rel_tol in points():
        res = casimir_energy(SphereSheet(1.0, omega(om_s)), PlaneSheet(omega(om_p), 1.0 + d),
                             NumericsSpec(rel_tol=rel_tol))
        print(label, res.energy.hex(), res.error_estimate.hex(), res.l_max_used,
              res.m_max_used, res.kappa_nodes_used)
    for label, radius, gap, ws, wp in small_gap_points():
        values = (pfa_energy(radius, gap, ws, wp), *small_gap_expansion(radius, gap, ws, wp))
        print(label, *(v.hex() for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
