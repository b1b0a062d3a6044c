"""Write points.json: the workloads' fixed dimensionless points and the
exact-path references they are checked against.

    PYTHONPATH=src python3 bench/make_points.py

The points are drawn from the distributions in README.md with a fixed
generator, so rerunning this reproduces them.  References are computed with
the library at REF_REL_TOL, ten times tighter than the benchmark's rel_tol;
a benchmark energy must match its reference within the sum of the two error
estimates.  Expect several minutes: the d/R = 0.05 reference dominates.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from plasmacas import NumericsSpec, PlaneSheet, SphereSheet, casimir_energy  # noqa: E402
from workloads import omega_from_json  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
POINTS_SEED = 1403  # fixed: the points are part of the benchmark's definition
REF_REL_TOL = 1e-4
GRAPHENE_OMEGA = 6.75e5  # 1/m


def _bins(rng, lo, hi, count, first_hi=None):
    """One log-uniform draw in each of ``count`` equal log-bins of [lo, hi];
    ``first_hi`` lowers the upper edge of the first bin."""
    edges = np.linspace(math.log(lo), math.log(hi), count + 1)
    uppers = edges[1:].copy()
    if first_hi is not None:
        uppers[0] = math.log(first_hi)
    return [float(math.exp(rng.uniform(a, b))) for a, b in zip(edges[:-1], uppers)]


def _sheet(rng):
    """Perfect conductor or Omega*R log-uniform in [1, 100], with equal odds."""
    return "pc" if rng.uniform() < 0.5 else float(math.exp(rng.uniform(0.0, math.log(100.0))))


def draw_points() -> dict:
    rng = np.random.default_rng(POINTS_SEED)
    wide = [{"d_over_R": d, "omega_R_sphere": _sheet(rng), "omega_R_plane": _sheet(rng)}
            for d in _bins(rng, 0.2, 0.6, 10)]
    narrow = [{"d_over_R": d, "omega_R_sphere": "pc", "omega_R_plane": "pc"}
              for d in (0.1, 0.05)]
    return {
        "exact-narrow": narrow,
        "exact-wide": wide,
        # the first bin stops at w = Omega d = 0.1, so the asymptotic series'
        # log-trapezoid route (w < 0.1) runs on every pass, next to the
        # Gauss-Laguerre route that every other gap takes
        "asympt-sweep": {"omega_per_m": GRAPHENE_OMEGA,
                         "gaps_m": _bins(rng, 1e-7, 1e-4, 10, first_hi=0.1 / GRAPHENE_OMEGA)},
    }


def reference(point: dict) -> dict:
    t0 = time.perf_counter()
    res = casimir_energy(SphereSheet(1.0, omega_from_json(point["omega_R_sphere"])),
                         PlaneSheet(omega_from_json(point["omega_R_plane"]), 1.0 + point["d_over_R"]),
                         NumericsSpec(rel_tol=REF_REL_TOL))
    print(f"  {point} -> {res.energy:.10g} +- {res.error_estimate:.2e} "
          f"({time.perf_counter() - t0:.1f} s)", file=sys.stderr, flush=True)
    return {**point, "energy_R": res.energy, "error_R": float(res.error_estimate)}


def main() -> None:
    points = draw_points()
    for name in ("exact-wide", "exact-narrow"):
        print(name, file=sys.stderr)
        points[name] = [reference(p) for p in points[name]]
    points["reference_rel_tol"] = REF_REL_TOL
    with open(os.path.join(HERE, "points.json"), "w", encoding="utf-8") as fh:
        json.dump(points, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
