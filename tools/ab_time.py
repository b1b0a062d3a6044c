"""Time two checkouts of one benchmark workload against each other in one process.

Each checkout's ``src`` is imported in turn, its ``plasmacas`` modules
purged from ``sys.modules`` before the next import, so both libraries live
side by side.  Whole passes over one workload of ``bench/points.json``
(read, never written) then alternate between the two, A B in even rounds
and B A in odd ones, so a drift of the machine falls on both.  An exact
workload runs ``casimir_energy`` at R = 1 and the benchmark's rel_tol 1e-3;
``asympt-sweep`` runs the pfa and then the asympt ``cli._compute_row`` row
of each of its gaps at R = 1e-3 m and its Omega on both sheets.  Every pass
starts from empty ``_quadrature`` rule caches, as the benchmark's passes
do.  It prints each checkout's median and min pass time and the median of
the per-round ratios B/A, then one line per point with each checkout's
median time for that point, since one slow point can move the benchmark's
tail on its own:

    python3 tools/ab_time.py <checkout A> <checkout B> [--workload exact-wide] [--rounds 20]

BLAS and OpenMP run on one thread unless the environment says otherwise.
Two runs of one checkout against itself give a ratio near 1; separate
benchmark runs of one build spread far more, because each follows the
machine's state over its own window.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

POINTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "points.json")
REL_TOL = 1e-3
RADIUS_M = 1e-3  # asympt-sweep: the sphere radius, in m
WORKLOADS = ("exact-narrow", "exact-wide", "asympt-sweep")


def _purge() -> None:
    for name in [n for n in sys.modules if n.split(".")[0] == "plasmacas"]:
        del sys.modules[name]


def load_checkout(root: str, workload: str):
    """A function running one pass of ``workload`` with the library of ``root``/src."""
    src = os.path.join(os.path.abspath(root), "src")
    _purge()
    sys.path.insert(0, src)
    try:
        from plasmacas import _quadrature, cli
        from plasmacas.energy_exact import NumericsSpec, casimir_energy
        from plasmacas.scattering import PERFECT_CONDUCTOR, PlaneSheet, SphereSheet
    finally:
        sys.path.remove(src)
        _purge()
    rules = [fn for fn in vars(_quadrature).values() if hasattr(fn, "cache_clear")]

    def omega(value):
        return PERFECT_CONDUCTOR if value == "pc" else float(value)

    def exact_point(p, spec=NumericsSpec(rel_tol=REL_TOL)):
        casimir_energy(SphereSheet(1.0, omega(p["omega_R_sphere"])),
                       PlaneSheet(omega(p["omega_R_plane"]), 1.0 + p["d_over_R"]), spec)

    def asympt_point(gap, om):
        for method in ("pfa", "asympt"):
            cli._compute_row((method, RADIUS_M, gap, om, om))

    def run_pass(points) -> tuple:
        """The pass time and the time of each point."""
        for rule in rules:
            rule.cache_clear()
        ticks = [time.perf_counter()]
        for p in points:
            if workload == "asympt-sweep":
                asympt_point(*p)
            else:
                exact_point(p)
            ticks.append(time.perf_counter())
        return ticks[-1] - ticks[0], [b - a for a, b in zip(ticks, ticks[1:])]

    return run_pass


def load_points(workload: str) -> list:
    """The points of ``workload``; an asympt-sweep point is a (gap, Omega) pair."""
    with open(POINTS, encoding="utf-8") as f:
        spec = json.load(f)[workload]
    if workload == "asympt-sweep":
        return [(gap, spec["omega_per_m"]) for gap in spec["gaps_m"]]
    return spec


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--workload", default="exact-wide", choices=WORKLOADS)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    points = load_points(args.workload)

    passes = [load_checkout(root, args.workload) for root in (args.checkout_a, args.checkout_b)]
    for run_pass in passes:  # warm-up: imports, caches, first allocations
        run_pass(points)
    times, point_times = ([], []), ([], [])
    for r in range(args.rounds):
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            total, per_point = passes[k](points)
            times[k].append(total)
            point_times[k].append(per_point)

    for label, root, t in (("A", args.checkout_a, times[0]), ("B", args.checkout_b, times[1])):
        print(f"{label} {root}: median {statistics.median(t):.4f} s, min {min(t):.4f} s "
              f"over {len(t)} passes of {args.workload}")
    ratios = [b / a for a, b in zip(*times)]
    print(f"B/A per-pass ratio: median {statistics.median(ratios):.3f} "
          f"(min {min(ratios):.3f}, max {max(ratios):.3f})")
    for i in range(len(points)):
        a, b = (statistics.median(run[i] for run in side) for side in point_times)
        print(f"{args.workload}[{i}]: A median {a:.4f} s, B median {b:.4f} s, B/A {b / a:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
