"""Time two checkouts of the exact path against each other in one process.

Each checkout's ``src`` is imported in turn, its ``plasmacas`` modules
purged from ``sys.modules`` before the next import, so both libraries live
side by side.  Whole passes over one exact workload of
``bench/points.json`` (read, never written; R = 1, the benchmark's rel_tol
1e-3) then alternate between the two, A B in even rounds and B A in odd
ones, so a drift of the machine falls on both.  It prints each checkout's
median and min pass time and the median of the per-round ratios B/A:

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


def _purge() -> None:
    for name in [n for n in sys.modules if n.split(".")[0] == "plasmacas"]:
        del sys.modules[name]


def load_checkout(root: str):
    """A function running one pass of the exact path of ``root``/src."""
    src = os.path.join(os.path.abspath(root), "src")
    _purge()
    sys.path.insert(0, src)
    try:
        from plasmacas.energy_exact import NumericsSpec, casimir_energy
        from plasmacas.scattering import PERFECT_CONDUCTOR, PlaneSheet, SphereSheet
    finally:
        sys.path.remove(src)
        _purge()

    def omega(value):
        return PERFECT_CONDUCTOR if value == "pc" else float(value)

    def run_pass(points) -> float:
        spec = NumericsSpec(rel_tol=REL_TOL)
        start = time.perf_counter()
        for p in points:
            casimir_energy(SphereSheet(1.0, omega(p["omega_R_sphere"])),
                           PlaneSheet(omega(p["omega_R_plane"]), 1.0 + p["d_over_R"]), spec)
        return time.perf_counter() - start

    return run_pass


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout_a")
    parser.add_argument("checkout_b")
    parser.add_argument("--workload", default="exact-wide", choices=("exact-narrow", "exact-wide"))
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)
    with open(POINTS, encoding="utf-8") as f:
        points = json.load(f)[args.workload]

    passes = [load_checkout(args.checkout_a), load_checkout(args.checkout_b)]
    for run_pass in passes:  # warm-up: imports, caches, first allocations
        run_pass(points)
    times = ([], [])
    for r in range(args.rounds):
        for k in ((0, 1) if r % 2 == 0 else (1, 0)):
            times[k].append(passes[k](points))

    for label, root, t in (("A", args.checkout_a, times[0]), ("B", args.checkout_b, times[1])):
        print(f"{label} {root}: median {statistics.median(t):.4f} s, min {min(t):.4f} s "
              f"over {len(t)} passes of {args.workload}")
    ratios = [b / a for a, b in zip(*times)]
    print(f"B/A per-pass ratio: median {statistics.median(ratios):.3f} "
          f"(min {min(ratios):.3f}, max {max(ratios):.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
