"""Batch front end: points, parameter sweeps, preset dataset grids, CSV.

All core numerics is unit-free; SI enters only here through hbar*c.  The
settings of point and sweep are one table, _SETTINGS: each entry is a
config-file key and a flag.  Sweep points go to a worker pool of at most one
worker per row, but rows are written in input order, and a fixed float format
keeps the CSV byte-identical between runs of the same config.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
# The asympt row's one call into the small-gap layer: E0, E1 and theta from
# one PFA integral and one E1 series.  It is bound to the name ``theta``
# because the benchmark (bench/layers.py and its tests) counts asympt rows
# by calls to ``cli.theta``.
from .asymptotics import small_gap_expansion as theta
from .energy_exact import NumericsSpec, casimir_energy
from .errors import NumericsError
from .pfa import pfa_energy
from .scattering import PERFECT_CONDUCTOR, PlaneSheet, SphereSheet, varpi

HBARC_J_M = 3.1615268e-26  # hbar*c used for all SI conversion

CSV_COLUMNS = ["method", "R_m", "d_m", "L_m", "omega_s_per_m", "omega_p_per_m",
               "energy_J", "energy_dimensionless", "ratio_to_PFA_PC", "theta",
               "error_estimate", "l_max_used", "m_max_used", "status"]

_METHODS = ("exact", "pfa", "asympt", "all")
_SPACINGS = {"log": np.geomspace, "linear": np.linspace}

# Every setting of point and sweep: config-file key -> (type, choices, help).
# Each key is also the flag "--" + the key with dashes; the flags of the
# range keys (gap_*, radius_*) belong to sweep alone.
_SETTINGS = {
    "method": (str, _METHODS, None),
    "radius": (float, None, "sphere radius R in m"),
    "gap": (float, None, "surface gap d = L - R in m"),
    "omega_sphere": (str, None, "Omega_s in 1/m, or 'inf'"),
    "omega_plane": (str, None, "Omega_p in 1/m, or 'inf'"),
    "lmax": (int, None, None),
    "rel_tol": (float, None, None),
    "out": (str, None, None),
    "threads": (int, None, None),
    "gap_min": (float, None, None),
    "gap_max": (float, None, None),
    "gap_count": (int, None, None),
    "gap_spacing": (str, tuple(_SPACINGS), None),
    "radius_min": (float, None, None),
    "radius_max": (float, None, None),
    "radius_count": (int, None, None),
    "radius_spacing": (str, tuple(_SPACINGS), None),
}


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class SweepConfig:
    """Resolved sweep: explicit grids, material parameters, numerics, output."""

    method: str
    radii: tuple
    gaps: tuple
    omega_s: float
    omega_p: float
    lmax: int | None = None
    rel_tol: float | None = None
    out: str = "sweep.csv"
    threads: int = 1

    def __post_init__(self):
        if self.method not in _METHODS:
            raise UsageError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.radii or not self.gaps:
            raise UsageError("empty geometry range")
        if not all(0.0 < x < math.inf for x in self.gaps + self.radii):  # also nan
            raise UsageError("all radii and gaps must be finite and positive")
        if self.threads < 1:
            raise UsageError("threads must be >= 1")
        try:
            _exact_spec(self.lmax, self.rel_tol)
        except ValueError as exc:
            raise UsageError(f"bad --lmax or --rel-tol: {exc}") from None


def _exact_spec(lmax, rel_tol) -> NumericsSpec:
    """The exact path's numerics for the flags; None leaves a default."""
    return NumericsSpec(l_max="auto" if lmax is None else lmax,
                        rel_tol=1e-3 if rel_tol is None else rel_tol)


def _parse_omega(text: str, name: str) -> float:
    if text.strip().lower() in ("inf", "infinity", "pc"):
        return PERFECT_CONDUCTOR
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"{name}: cannot parse {text!r}") from None
    if not value >= 0:  # also rejects nan
        raise UsageError(f"{name} must be >= 0 or 'inf', got {text!r}")
    return value


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
        key, _, text = line.partition("=")
        key = key.strip()
        text = text.strip()
        if key not in _SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        caster = _SETTINGS[key][0]
        try:
            values[key] = caster(text)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: malformed value for {key}: {text!r}") from None
    return values


def _spacing(lo: float, hi: float, count: int, kind: str) -> tuple:
    if kind not in _SPACINGS:
        raise UsageError(f"spacing must be 'log' or 'linear', got {kind!r}")
    if count < 1 or not 0.0 < lo <= hi < math.inf:  # also rejects nan
        raise UsageError(f"bad range [{lo}, {hi}] x {count}")
    if count == 1:
        return (lo,)
    return tuple(float(x) for x in _SPACINGS[kind](lo, hi, count))


def parse_config(args: argparse.Namespace) -> SweepConfig:
    """Merge config file and flags (flags win) into a resolved SweepConfig.

    Every setting is a key of _SETTINGS, in the file as in the flags.
    Without an ``out`` flag or key the CSV goes to ``<command>.csv``.
    """
    flags = {k: v for k, v in vars(args).items() if k in _SETTINGS and v is not None}
    values = {**(_read_config_file(args.config) if args.config else {}), **flags}

    def axis(name, count_default):
        """The values of the gap or radius axis.  A single-value flag beats
        a range from the file; a range (flags, else file keys) beats a single
        value from the file."""
        lo, hi = values.get(f"{name}_min"), values.get(f"{name}_max")
        flag_range = f"{name}_min" in flags or f"{name}_max" in flags
        if (lo is None and hi is None) or (name in flags and not flag_range):
            if name not in values:
                raise UsageError(f"need --{name} or a {name} range")
            return (values[name],)
        if lo is None or hi is None:
            raise UsageError(f"{name}_min and {name}_max must be given together")
        return _spacing(lo, hi, values.get(f"{name}_count", count_default),
                        values.get(f"{name}_spacing", "log"))

    # Checked in this order, so that of several faults the first is reported.
    omega_s = _parse_omega(values.get("omega_sphere", "inf"), "omega-sphere")
    omega_p = _parse_omega(values.get("omega_plane", "inf"), "omega-plane")
    gaps = axis("gap", 25)
    radii = axis("radius", 1)
    return SweepConfig(method=values.get("method", "asympt"), radii=radii, gaps=gaps,
                       omega_s=omega_s, omega_p=omega_p, lmax=values.get("lmax"),
                       rel_tol=values.get("rel_tol"),
                       out=values.get("out", f"{args.command}.csv"),
                       threads=values.get("threads", 1))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if x == PERFECT_CONDUCTOR:
        return "inf"
    return format(float(x) + 0.0, ".17g")


def _pfa_pc_energy_j(radius: float, gap: float) -> float:
    return -HBARC_J_M * math.pi ** 3 * radius / (720.0 * gap * gap)


def _si_columns(energy: float, radius: float, gap: float) -> dict:
    """The SI energy columns of a row; NumericsError where one is not
    finite, as their own powers of the gap can be where the energy is not."""
    energy_j = energy * HBARC_J_M
    try:
        cols = {"energy_J": energy_j,
                "energy_dimensionless": energy_j * gap * gap / (HBARC_J_M * radius),
                "ratio_to_PFA_PC": energy_j / _pfa_pc_energy_j(radius, gap)}
        if all(map(math.isfinite, cols.values())):
            return cols
    except ZeroDivisionError:  # a product of lengths rounded to 0
        pass
    raise NumericsError(f"the energy columns at R = {radius!r} m, d = {gap!r} m are "
                        "outside the double range")


def _compute_row(task) -> dict:
    """One CSV row; isolated so worker processes can run it."""
    # exact rows alone read the numerics tail; the benchmark's warm-up passes a longer one
    method, radius, gap, omega_s, omega_p, *numerics = task
    ws, wp = varpi(omega_s, gap), varpi(omega_p, gap)
    row = {c: None for c in CSV_COLUMNS}
    row.update(method=method, R_m=radius, d_m=gap, L_m=radius + gap,
               omega_s_per_m=omega_s, omega_p_per_m=omega_p, status="ok")
    try:
        extra = {}
        if method == "exact":
            res = casimir_energy(SphereSheet(radius, omega_s),
                                 PlaneSheet(omega_p, radius + gap),
                                 _exact_spec(*numerics))
            energy = res.energy
            extra = dict(error_estimate=res.error_estimate * HBARC_J_M,
                         l_max_used=res.l_max_used, m_max_used=res.m_max_used)
        elif method == "pfa":
            energy = pfa_energy(radius, gap, ws, wp)
        elif method == "asympt":
            e0, e1, th = theta(radius, gap, ws, wp)
            energy = e0 + e1
            extra = dict(theta=th)
        else:
            raise ValueError(f"unknown method {method!r}")
        row.update(_si_columns(energy, radius, gap), **extra)
    except (NumericsError, ValueError) as exc:
        row.update(status=f"error: {exc}")
    return row


def _sweep_tasks(config: SweepConfig) -> list:
    methods = ("exact", "pfa", "asympt") if config.method == "all" else (config.method,)
    return [(m, r, d, config.omega_s, config.omega_p, config.lmax, config.rel_tol)
            for r in config.radii for d in config.gaps for m in methods]


def _run_tasks(tasks: list, config: SweepConfig) -> int:
    """Compute the rows of tasks, on up to config.threads workers but no
    more than there are tasks, and write them in task order to config.out;
    returns the exit status."""
    if config.threads > 1 and len(tasks) > 1:
        workers = min(config.threads, len(tasks))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_compute_row, tasks))
    else:
        rows = [_compute_row(t) for t in tasks]

    try:
        with open(config.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for row in rows:
                writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    except OSError as exc:
        raise UsageError(f"cannot write output {config.out}: {exc}") from None

    n_bad = sum(1 for row in rows if row["status"] != "ok")
    print(f"{len(rows)} rows ({len(tasks) - n_bad} ok, {n_bad} failed) -> {config.out}")
    for row in rows:
        if len(rows) <= 4 or row["status"] != "ok":
            print("  " + ", ".join(f"{c}={_fmt(row[c])}" for c in
                                   ("method", "R_m", "d_m", "energy_J", "theta", "status")))
    return 3 if n_bad else 0


def run_sweep(config: SweepConfig) -> int:
    """Run every point of the sweep, write the CSV, print a summary.

    Returns the process exit status: 0 if all rows succeeded, 3 if any row
    recorded an error.
    """
    return _run_tasks(_sweep_tasks(config), config)


_GRAPHENE_OMEGA = 6.75e5  # 1/m
_FIGURE_RADIUS = 1e-3     # m
_GRAPHENE_TO_PC = (_GRAPHENE_OMEGA, 10 * _GRAPHENE_OMEGA, 100 * _GRAPHENE_OMEGA,
                   PERFECT_CONDUCTOR)

# preset -> (log gap grid (min, max, count) in m, plasma parameters of both
# sheets); the rows of one preset run over the parameters, then the gaps
_FIGURES = {
    1: ((1e-6, 1.2e-4, 40), (_GRAPHENE_OMEGA,)),
    2: ((1e-6, 1.2e-4, 40), (_GRAPHENE_OMEGA,)),
    3: ((1e-7, 1e-3, 49), (_GRAPHENE_OMEGA,)),
    4: ((1e-7, 1e-3, 49), _GRAPHENE_TO_PC),
    5: ((1e-7, 1e-3, 49), _GRAPHENE_TO_PC),
    6: ((1e-7, 1e-3, 49), _GRAPHENE_TO_PC),
}


def _figure_configs(number: int, out: str | None, threads: int) -> list:
    """One asympt sweep per plasma parameter of a preset, all into one CSV."""
    if number not in _FIGURES:
        raise UsageError("figure number must be 1..6")
    (lo, hi, count), omegas = _FIGURES[number]
    gaps = _spacing(lo, hi, count, "log")
    return [SweepConfig(method="asympt", radii=(_FIGURE_RADIUS,), gaps=gaps,
                        omega_s=om, omega_p=om, out=out or f"figure{number}.csv",
                        threads=threads)
            for om in omegas]


def _run_figure(number: int, out: str | None, threads: int) -> int:
    configs = _figure_configs(number, out, threads)
    return _run_tasks([t for c in configs for t in _sweep_tasks(c)], configs[0])


def _add_common(parser: argparse.ArgumentParser, sweep: bool) -> None:
    """One flag per key of _SETTINGS, the range keys for sweep only."""
    for key, (kind, choices, text) in _SETTINGS.items():
        if sweep or not key.startswith(("gap_", "radius_")):
            parser.add_argument("--" + key.replace("_", "-"), type=kind, choices=choices,
                                help=text)
    parser.add_argument("--config", help="key=value config file; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plasmacas",
        description="Casimir interaction of a spherical and a planar plasma sheet")
    parser.add_argument("--version", action="version",
                        version=f"plasmacas {__version__} (hbar*c = {HBARC_J_M:.7e} J*m)")
    sub = parser.add_subparsers(dest="command", required=True)
    p_point = sub.add_parser("point", help="single parameter point")
    _add_common(p_point, sweep=False)
    p_sweep = sub.add_parser("sweep", help="parameter sweep over geometry ranges")
    _add_common(p_sweep, sweep=True)
    p_fig = sub.add_parser("figure", help="emit a preset parameter-grid dataset (1..6)")
    p_fig.add_argument("number", type=int, choices=range(1, 7))
    p_fig.add_argument("--out")
    p_fig.add_argument("--threads", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "figure":
            return _run_figure(args.number, args.out, args.threads)
        config = parse_config(args)
        if args.command == "point":
            if len(config.radii) > 1 or len(config.gaps) > 1:
                raise UsageError("point takes one radius and one gap; use sweep for ranges")
        return run_sweep(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
