"""The benchmark's workloads: inputs drawn from a seed, one timed pass, checks.

Each workload's dimensionless points (d/R and Omega*R for the exact path,
the gaps at fixed Omega for the asymptotic path) are fixed in
``points.json``; they were drawn once from the distributions in README.md by
``make_points.py``.  The
run seed draws the sphere radius, i.e. the length unit the library is
called in, and the order of the points.  The library's cost depends on the
dimensionless inputs alone and jumps with them (a point whose kappa
quadrature needs one more doubling costs three times as much), so seeded
dimensionless points would make the seed, not the code, set the spread of
the timings.  The outputs do change with the seed, and the checks run on
them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from plasmacas import cli, energy_exact
from plasmacas.energy_exact import NumericsSpec
from plasmacas.scattering import PERFECT_CONDUCTOR, PlaneSheet, SphereSheet

HERE = os.path.dirname(os.path.abspath(__file__))
POINTS_FILE = os.path.join(HERE, "points.json")

EXACT_REL_TOL = 1e-3
ASYMPT_CHECK_TOL = 1e-6


def load_points() -> dict:
    with open(POINTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def omega_from_json(value):
    """Points store the perfect conductor as the string "pc"."""
    return PERFECT_CONDUCTOR if value == "pc" else float(value)


@dataclass
class PointResult:
    point: int
    seconds: float
    ok: bool
    detail: str = ""
    values: dict = field(default_factory=dict)


class ExactWorkload:
    """Exact energies, one ``casimir_energy`` call per point."""

    radius_range = (0.1, 10.0)

    def __init__(self, points: list):
        self.points = points

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        lo, hi = self.radius_range
        radius = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        order = [int(i) for i in rng.permutation(len(self.points))]
        return {"radius": radius, "order": order}

    def warm_up(self) -> None:
        energy_exact.casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR),
                                    PlaneSheet(PERFECT_CONDUCTOR, 1.6),
                                    NumericsSpec(l_max=8, kappa_nodes=8, rel_tol=0.5))

    def run_pass(self, inputs: dict, tracer=None) -> list:
        radius = inputs["radius"]
        spec = NumericsSpec(rel_tol=EXACT_REL_TOL)
        results = []
        for i in inputs["order"]:
            p = self.points[i]
            sphere = SphereSheet(radius, _per_length(p["omega_R_sphere"], radius))
            plane = PlaneSheet(_per_length(p["omega_R_plane"], radius),
                               radius * (1.0 + p["d_over_R"]))
            if tracer is not None:
                tracer.point = i
            call = energy_exact.casimir_energy  # looked up here so a trace wrapper applies
            t0 = time.perf_counter()
            try:
                res = call(sphere, plane, spec)
            except Exception as exc:  # any raise is a failed point, never a crash
                results.append(PointResult(i, time.perf_counter() - t0, False,
                                           f"{type(exc).__name__}: {exc}"))
                continue
            dt = time.perf_counter() - t0
            ok, detail = check_exact(res.energy * radius, res.error_estimate * radius, p)
            results.append(PointResult(i, dt, ok, detail, {
                "energy_R": res.energy * radius, "error_R": res.error_estimate * radius,
                "l_max_used": res.l_max_used, "kappa_nodes_used": res.kappa_nodes_used}))
        if tracer is not None:
            tracer.point = None
        return results


def _per_length(omega_r, radius):
    om = omega_from_json(omega_r)
    return om if om == PERFECT_CONDUCTOR else om / radius


def check_exact(energy_r: float, error_r: float, ref: dict) -> tuple:
    """Energy in units hbar c / R against the committed reference point."""
    if not energy_r < 0.0:
        return False, f"energy {energy_r} not negative"
    if not error_r <= EXACT_REL_TOL * abs(energy_r):
        return False, f"error estimate {error_r:.3e} above rel_tol*|E|"
    dev = abs(energy_r - ref["energy_R"])
    allowed = error_r + ref["error_R"]
    if not dev <= allowed:
        return False, f"|E - E_ref| = {dev:.3e} above summed error estimates {allowed:.3e}"
    return True, f"|E - E_ref| = {dev:.3e} <= {allowed:.3e}"


class AsymptSweepWorkload:
    """Two ``cli.run_sweep`` calls (pfa, asympt) over the same gap grid."""

    radius_range = (5e-4, 2e-3)  # m; keeps d/R <= 0.2 on the whole gap grid

    def __init__(self, spec: dict):
        self.omega = spec["omega_per_m"]
        self.points = spec["gaps_m"]

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        lo, hi = self.radius_range
        radius = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        order = [int(i) for i in rng.permutation(len(self.points))]
        return {"radius": radius, "order": order, "gaps": [self.points[i] for i in order]}

    def warm_up(self) -> None:
        for method in ("pfa", "asympt"):
            cli._compute_row((method, 1e-3, 1e-4, self.omega, self.omega, None, None, None))

    def run_pass(self, inputs: dict, tracer=None) -> list:
        radius, gaps, order = inputs["radius"], inputs["gaps"], inputs["order"]
        point_of_gap = dict(zip(gaps, order))
        row_seconds: dict = {}
        original = cli._compute_row

        def timed_row(task):
            i = point_of_gap[task[2]]
            if tracer is not None:
                tracer.point = i
            t0 = time.perf_counter()
            try:
                return original(task)
            finally:
                row_seconds[i] = row_seconds.get(i, 0.0) + time.perf_counter() - t0

        tables = {}
        error = ""
        cli._compute_row = timed_row
        try:
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            with tempfile.TemporaryDirectory(dir=os.path.join(HERE, "out")) as tmp:
                for method in ("pfa", "asympt"):
                    out = os.path.join(tmp, f"{method}.csv")
                    config = cli.SweepConfig(method=method, radii=(radius,), gaps=tuple(gaps),
                                             omega_s=self.omega, omega_p=self.omega,
                                             out=out, threads=1)
                    with contextlib.redirect_stdout(io.StringIO()):
                        cli.run_sweep(config)  # looked up here so a trace wrapper applies
                    tables[method] = _read_rows(out)
                    if len(tables[method]) != len(gaps):
                        raise ValueError(f"{method} CSV has {len(tables[method])} rows "
                                         f"for {len(gaps)} gaps")
        except Exception as exc:  # a crashed sweep fails every point it left unchecked
            error = f"{type(exc).__name__}: {exc}"
        finally:
            cli._compute_row = original
            if tracer is not None:
                tracer.point = None

        results = []
        for k, i in enumerate(order):
            seconds = row_seconds.get(i, 0.0)
            if error:
                results.append(PointResult(i, seconds, False, error))
                continue
            ok, detail, values = check_asympt(tables["pfa"][k], tables["asympt"][k], radius)
            results.append(PointResult(i, seconds, ok, detail, values))
        return results


def _read_rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_asympt(pfa_row: dict, asympt_row: dict, radius: float) -> tuple:
    """E_asympt/E_pfa - 1 must equal (d/R) theta within ASYMPT_CHECK_TOL."""
    for row in (pfa_row, asympt_row):
        if row["status"] != "ok":
            return False, f"{row['method']} row status: {row['status']}", {}
    gap = float(asympt_row["d_m"])
    if float(pfa_row["d_m"]) != gap:
        return False, "pfa and asympt rows are for different gaps", {}
    e_pfa, e_asy = float(pfa_row["energy_J"]), float(asympt_row["energy_J"])
    th = float(asympt_row["theta"])
    dev = e_asy / e_pfa - 1.0 - gap / radius * th
    values = {"gap_m": gap, "theta": th, "deviation": dev}
    if not abs(dev) <= ASYMPT_CHECK_TOL:
        return False, f"E_asympt/E_pfa - 1 - (d/R) theta = {dev:.3e}", values
    return True, f"deviation {dev:.1e}", values


def get(name: str):
    points = load_points()
    if name == "asympt-sweep":
        return AsymptSweepWorkload(points["asympt-sweep"])
    if name in ("exact-narrow", "exact-wide"):
        return ExactWorkload(points[name])
    raise KeyError(name)


NAMES = ("exact-narrow", "exact-wide", "asympt-sweep")
