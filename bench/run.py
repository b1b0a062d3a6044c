"""Benchmark of plasmacas: one workload per process, outputs checked.

    python3 bench/run.py --workload exact-narrow --seed 0 --seconds 20 --trace 0

Run from a checkout root (the library is imported from ``src/``).  With
``--trace 0`` the run prints the end-to-end metrics: import time in fresh
interpreters, then whole passes over the workload's points until
``--seconds`` have elapsed (at least one).  With ``--trace 1`` it prints the
per-layer metrics from one traced pass.  Every metric is printed as
"name = value unit"; the last
line of standard output is one JSON object.  A result file with the machine
record, the inputs and every point goes to ``bench/out/``.  README.md lists
the workloads and metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in the set-up child processes.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from spans import Tracer  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
RUN_BUDGET_S = 150.0  # no new pass starts that would end past this
TAIL_BEYOND = 10

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("point_s.p50", "s"),
              ("point_s.tail", "s"), ("peak_rss_mb", "MB")]

_IMPORT_TIMER = ("import time; t = time.perf_counter(); import plasmacas; "
                 "print(time.perf_counter() - t)")


def setup_seconds() -> float:
    """Median time to import plasmacas in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def tail(values):
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With TAIL_BEYOND samples
    or fewer no such percentile exists and the maximum is returned.
    """
    s = sorted(values)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    k = n - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / n, TAIL_BEYOND


def span_cost(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op."""

    def noop(x):
        return x

    wrapped = Tracer().wrap("noop", noop)
    t0 = time.perf_counter()
    for i in range(calls):
        noop(i)
    t1 = time.perf_counter()
    for i in range(calls):
        wrapped(i)
    t2 = time.perf_counter()
    return max((t2 - t1) - (t1 - t0), 0.0) / calls


def machine_info() -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {k: os.environ.get(k) for k in PINNED_ENV},
    }


def run_passes(wl, inputs, seconds, start, layers):
    """Whole untraced passes until ``seconds`` have elapsed; at least one."""
    passes = []
    t_end = time.perf_counter() + seconds
    while True:
        layers.clear_caches()
        t0 = time.perf_counter()
        points = wl.run_pass(inputs)
        passes.append((time.perf_counter() - t0, points))
        now = time.perf_counter()
        if now >= t_end or (now - start) + passes[-1][0] > RUN_BUDGET_S:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "plasmacas", "__init__.py")):
        print(f"bench: no library at {SRC}; run from a plasmacas checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import layers
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"bench: unknown workload {args.workload!r}; one of {workloads.NAMES}",
              file=sys.stderr)
        return 2

    wl = workloads.get(args.workload)
    inputs = wl.make_inputs(args.seed)
    setup_s = setup_seconds() if not args.trace else None
    wl.warm_up()

    if args.trace:
        tracer = Tracer()
        layers.install(tracer)
        layers.clear_caches()
        try:
            t0 = time.perf_counter()
            all_points = wl.run_pass(inputs, tracer)
            traced_wall = time.perf_counter() - t0
        finally:
            tracer.restore()
        hits, misses = layers.gauss_laguerre_info()
        passes = [(traced_wall, all_points)]
        metrics = layers.per_layer_metrics(tracer, hits, misses, traced_wall,
                                           len(tracer.spans) * span_cost())
        units = {name: unit for name, unit, _ in layers.PER_LAYER}
    else:
        passes = run_passes(wl, inputs, args.seconds, start, layers)
        all_points = [pt for _, pts in passes for pt in pts]
        per_point = {}
        for pt in all_points:
            per_point.setdefault(pt.point, []).append(pt.seconds)
        point_s = [statistics.median(v) for v in per_point.values()]
        tail_s, tail_pct, tail_beyond = tail(point_s)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(p[0] for p in passes),
            "point_s.p50": statistics.median(point_s),
            "point_s.tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    attempted = len(all_points)
    failed = sum(1 for pt in all_points if not pt.ok)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    print(f"workload {args.workload}  seed {args.seed}  radius {inputs['radius']:.6g}  "
          f"passes {len(passes)}  trace {args.trace}")
    for pt in all_points:
        if not pt.ok:
            print(f"  FAILED point {pt.point}: {pt.detail}")
    print(f"failed_frac = {failed / attempted:.6g} ({failed} of {attempted} points)")
    if not args.trace:
        print(f"point_s.tail is p{tail_pct:.1f} of {len(point_s)} point medians "
              f"({tail_beyond} beyond it)")
    for k, v in metrics.items():
        print(f"{k} = {v:.6g} {units[k]}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_info(), "inputs": inputs,
        "pass_seconds": [p[0] for p in passes],
        "points": [{"pass": j, "point": pt.point, "seconds": pt.seconds, "ok": pt.ok,
                    "detail": pt.detail, **pt.values}
                   for j, (_, pts) in enumerate(passes) for pt in pts],
        "failed_frac": failed / attempted,
        "result": result,
    }
    if not args.trace:
        record["tail"] = {"percentile": tail_pct, "beyond": tail_beyond, "samples": len(point_s)}
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
