"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Criterion 5 compares the exact energy against the truncated expansion
E0 (1 + eps theta); the measured deviations are printed so a failure is
quantitative, not silent.
"""

import csv
import math
import time

import numpy as np
from scipy.special import roots_genlaguerre

import plasmacas.asymptotics as asy
from plasmacas import cli
from plasmacas.asymptotics import e0, ntl_coefficients, theta
from plasmacas.energy_exact import NumericsSpec, casimir_energy, logdet_one_minus
from plasmacas.pfa import PfaParams, pfa_energy
from plasmacas.scattering import (PERFECT_CONDUCTOR, PlaneSheet, SphereSheet,
                                  plane_r, sphere_t, Polarization)
from plasmacas.specfun import bessel_ik_log, dilog
from plasmacas._quadrature import tau_rule

from oracles import block_at, legendre_p, script_b_divided_difference

PC = PERFECT_CONDUCTOR
THETA_PC = 1.0 / 3.0 - 20.0 / math.pi ** 2


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_pc_theta():
    t0 = time.time()
    got = theta(1.0, 20.0, PC, PC)
    dt = time.time() - t0
    err = abs(got - THETA_PC)
    ok = err < 1e-4 and dt < 10.0
    _report(1, ok, f"theta_PC = {got:.8f} (exact {THETA_PC:.8f}, |diff| = {err:.2e}), "
                   f"runtime {dt:.1f}s < 10s")


def test_criterion_2_pc_pfa_leading():
    t0 = time.time()
    R, d = 1.0, 0.05
    want = -math.pi ** 3 * R / (720.0 * d * d)
    p = pfa_energy(PfaParams(PC, PC, R, d))
    a = e0(R, d, PC, PC)
    dt = time.time() - t0
    rp, ra = abs(p / want - 1.0), abs(a / want - 1.0)
    ok = rp < 1e-6 and ra < 1e-6 and dt < 5.0
    _report(2, ok, f"pfa rel dev {rp:.2e}, e0 rel dev {ra:.2e}, runtime {dt:.1f}s < 5s")


def test_criterion_3_e0_pfa_identity():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        w1 = float(10.0 ** rng.uniform(-1, 1))
        w2 = float(10.0 ** rng.uniform(-1, 1))
        a = e0(1.0, 0.25, w1, w2)
        b = pfa_energy(PfaParams(w1, w2, 1.0, 0.25))
        worst = max(worst, abs(a - b) / abs(b))
    ok = worst < 1e-6
    _report(3, ok, f"20 random (w_s, w_p) in [0.1, 10]^2, worst |e0-pfa|/|pfa| = {worst:.2e}")


def test_criterion_4_per_s_pc_reduction():
    x, wx = roots_genlaguerre(64, 0.0)
    tau, wtau = tau_rule(64)
    worst = 0.0
    for s in range(6):
        sig = s + 1.0
        t = x[:, None] / (2.0 * sig)
        g = asy._braces_times_t(s, t, tau[None, :], PC, PC)
        got = float(wx @ g @ wtau) / (2.0 * sig)
        want = 1.0 / (6.0 * sig ** 2) - 2.0 / 3.0
        worst = max(worst, abs(got - want))
    ok = worst < 1e-6
    _report(4, ok, f"s = 0..5, worst |integral - (1/(6(s+1)^2) - 2/3)| = {worst:.2e}")


def test_criterion_5_exact_vs_asymptotic_consistency():
    t0 = time.time()
    spec = NumericsSpec(rel_tol=1e-3)
    devs = {}
    for eps in (0.1, 0.05):
        res = casimir_energy(SphereSheet(1.0, PC), PlaneSheet(PC, 1.0 + eps), spec)
        target = -math.pi ** 3 / (720.0 * eps * eps) * (1.0 + eps * THETA_PC)
        devs[eps] = abs(res.energy - target) / abs(target)
    dt = time.time() - t0
    shrinks = devs[0.05] < devs[0.1]
    ok = devs[0.05] < 0.02 and devs[0.1] < 0.05 and shrinks and dt < 900.0
    _report(5, ok,
            f"deviation vs E0(1+eps*theta_PC): {devs[0.05]:.4f} at eps=0.05 (allowed 0.02), "
            f"{devs[0.1]:.4f} at eps=0.1 (allowed 0.05), shrinks with eps: {shrinks}, "
            f"runtime {dt:.0f}s < 900s")


def test_criterion_6_graphene_regime():
    om, R = 6.75e5, 1e-3
    far = [theta(d, R, om, om) for d in (1e-4, 3e-4, 1e-3)]
    far_ok = all(abs(t / THETA_PC - 1.0) < 0.05 for t in far)
    ds = np.geomspace(1e-7, 1e-3, 25)
    ths = np.array([theta(float(d), R, om, om) for d in ds])
    i = int(np.argmin(ths))
    interior = 0 < i < len(ds) - 1
    ratio = float(ds[i] * om)
    loc_ok = interior and (1.0 / 3.0 <= ratio <= 3.0)
    ok = far_ok and loc_ok
    _report(6, ok, f"theta(d >= 0.1mm) within 5% of {THETA_PC:.4f}: {far_ok} "
                   f"(values {[f'{t:.4f}' for t in far]}); interior minimum at "
                   f"d = {ds[i]:.3e} m = {ratio:.2f}/Omega (need within factor 3)")


def test_criterion_7_invariant_suites():
    rng = np.random.default_rng(103)
    details = []

    # Bessel Wronskian and recurrence at 1e-10
    worst_w = worst_r = 0.0
    for _ in range(200):
        l = int(rng.integers(0, 201))
        z = float(10.0 ** rng.uniform(-3, 3))
        log_i, log_k = bessel_ik_log(l + 1, z)
        nu = l + 0.5
        lkm1 = log_k[l - 1] if l >= 1 else log_k[0]
        t1 = log_i[l] + np.logaddexp(lkm1, math.log(nu / z) + log_k[l])
        t2 = np.logaddexp(log_i[l + 1], math.log(nu / z) + log_i[l]) + log_k[l]
        worst_w = max(worst_w, abs(np.logaddexp(t1, t2) - math.log(1.0 / z)))
        if l >= 1:
            lhs = math.exp(log_i[l - 1] - log_i[l]) - math.exp(log_i[l + 1] - log_i[l])
            worst_r = max(worst_r, abs(lhs / (2.0 * nu / z) - 1.0))
    details.append(f"wronskian {worst_w:.1e}")
    details.append(f"recurrence {worst_r:.1e}")
    ok = worst_w < 1e-10 and worst_r < 1e-10

    # Legendre derivative against finite differences at 1e-6
    worst_l = 0.0
    for _ in range(100):
        l = int(rng.integers(1, 7))
        m = int(rng.integers(0, l + 1))
        x = float(1.0 + 10.0 ** rng.uniform(-3, 1))
        h = 1e-6 * x
        _, deriv = legendre_p(l, m, x)
        vp, _ = legendre_p(l, m, x + h)
        vm, _ = legendre_p(l, m, x - h)
        worst_l = max(worst_l, abs(deriv / ((vp - vm) / (2 * h)) - 1.0))
    details.append(f"legendre fd {worst_l:.1e}")
    ok = ok and worst_l < 1e-6

    # dilog identity at 1e-13
    xs = rng.uniform(0.0, 1.0, size=100)
    worst_d = float(np.max(np.abs(dilog(xs) + dilog(-xs) - 0.5 * dilog(xs ** 2))))
    details.append(f"dilog {worst_d:.1e}")
    ok = ok and worst_d < 1e-13

    # m <-> -m determinant degeneracy at 1e-10
    worst_m = 0.0
    for m in (1, 3, 5):
        sphere = SphereSheet(1.0, 2.0)
        plane = PlaneSheet(1.5, 1.8)
        dp = logdet_one_minus(block_at(m, 0.9, sphere, plane, 9))
        dm = logdet_one_minus(block_at(-m, 0.9, sphere, plane, 9))
        worst_m = max(worst_m, abs(dp / dm - 1.0))
    details.append(f"m-degeneracy {worst_m:.1e}")
    ok = ok and worst_m < 1e-10

    # energy scaling law at 1e-6
    spec = NumericsSpec(rel_tol=1e-4)
    base = casimir_energy(SphereSheet(1.0, 2.0), PlaneSheet(1.5, 1.4), spec)
    lam = 2.5
    scaled = casimir_energy(SphereSheet(lam, 2.0 / lam), PlaneSheet(1.5 / lam, 1.4 * lam), spec)
    dev_s = abs(scaled.energy * lam / base.energy - 1.0)
    details.append(f"scaling {dev_s:.1e}")
    ok = ok and dev_s < 1e-6

    # monotonicity in L and in Omega
    e_l = [casimir_energy(SphereSheet(1.0, 5.0), PlaneSheet(5.0, L), spec).energy
           for L in (1.3, 1.6, 2.2)]
    mono_l = e_l[0] < e_l[1] < e_l[2] < 0.0
    e_o = [abs(casimir_energy(SphereSheet(1.0, om), PlaneSheet(om, 1.4), spec).energy)
           for om in (1.0, 10.0, PC)]
    mono_o = e_o[0] <= e_o[1] <= e_o[2]
    details.append(f"monotone L {mono_l}, Omega {mono_o}")
    ok = ok and mono_l and mono_o

    # script B divided difference vs power sum at 1e-12
    worst_b = 0.0
    for _ in range(50):
        s = int(rng.integers(0, 10))
        t = float(10.0 ** rng.uniform(-1, 1))
        tauv = float(rng.uniform(0.05, 0.95))
        ws = float(10.0 ** rng.uniform(-1, 1))
        wp = float(10.0 ** rng.uniform(-1, 1))
        psum = ntl_coefficients(s, t, tauv, ws, wp).script_b
        ddiff = script_b_divided_difference(s, t, tauv, ws, wp)
        worst_b = max(worst_b, abs(psum / ddiff - 1.0))
    details.append(f"B forms {worst_b:.1e}")
    ok = ok and worst_b < 1e-12

    _report(7, ok, "; ".join(details))


def test_criterion_8_csv_determinism(tmp_path):
    args = ["sweep", "--method", "asympt", "--radius", "1e-3",
            "--gap-min", "2e-6", "--gap-max", "5e-5", "--gap-count", "4",
            "--omega-sphere", "6.75e5", "--omega-plane", "6.75e5"]
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    same = out1.read_bytes() == out2.read_bytes()
    _report(8, same, f"two identical sweep runs byte-identical: {same} "
                     f"({out1.stat().st_size} bytes)")
