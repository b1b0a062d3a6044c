import dataclasses
import math

import numpy as np
import pytest
import sympy as sp
from scipy.special import roots_genlaguerre

import plasmacas.asymptotics as asy
from plasmacas.asymptotics import (NtlCoefficients, ntl_coefficients, ntl_integrand,
                                   small_gap_expansion, theta)
from plasmacas.errors import NumericsError
from plasmacas.pfa import lifshitz_plane_plane, pfa_energy
from plasmacas.scattering import PERFECT_CONDUCTOR as PC, varpi
import plasmacas._quadrature as quadrature
from plasmacas._quadrature import _log_t_nodes, tau_rule

from oracles import (e0_s_series, full_sum_theta, hom_power_sums, laguerre_theta,
                     script_b_divided_difference)

THETA_PC = 1.0 / 3.0 - 20.0 / math.pi ** 2


def per_s_integral(s, varpi_s, varpi_p, n=64):
    """int dt t int dtau tau/sqrt(1-tau^2) e^{-2t(s+1)} braces, one s."""
    x, wx = roots_genlaguerre(n, 0.0)
    tau, wtau = tau_rule(n)
    sig = s + 1.0
    t = x[:, None] / (2.0 * sig)
    g = asy._braces_times_t(s, t, tau[None, :], varpi_s, varpi_p)
    return float(wx @ g @ wtau) / (2.0 * sig)


def test_per_s_pc_reduction():
    for s in range(6):
        want = 1.0 / (6.0 * (s + 1.0) ** 2) - 2.0 / 3.0
        assert per_s_integral(s, PC, PC) == pytest.approx(want, abs=1e-12)


def _ntl_oracle(s, t, tau, ws, wp):
    """Every NtlCoefficients field and the braces at one point, re-derived in
    exact rational arithmetic; a PC side is w = 10^40, which is within 1e-40
    (relative) of the w -> oo limit."""
    R = sp.Rational
    ws = R(10) ** 40 if ws == PC else R(ws)
    wp = R(10) ** 40 if wp == PC else R(wp)
    sig = R(s + 1)
    t, tau = R(t), R(tau)
    t2 = tau ** 2
    T = {("s", "TE"): ws / (ws + t), ("s", "TM"): ws / (ws + t * (1 - t2)),
         ("p", "TE"): wp / (wp + t), ("p", "TM"): wp / (wp + t * (1 - t2))}
    f = {"t0_te": T[("s", "TE")], "t0_tm": T[("s", "TM")],
         "t0t_te": T[("p", "TE")], "t0t_tm": T[("p", "TM")]}
    f["script_a"] = (t * t2 / 3 * (sig ** 3 + 2 * sig)
                     + R(1, 3) * ((t2 - 2) * sig ** 2 - 3 * tau * sig + 2 * t2 - 1)
                     + (t2 ** 2 + t2 - 12) / (12 * t * t2) * sig
                     + (1 + tau) * (1 - t2) / (2 * t * t2)
                     - (1 - t2) / (3 * t) / sig)
    f["c_v"] = (-tau / 3 * (sig ** 3 + 2 * sig) + (1 - t2) / (6 * t * tau) * sig ** 2
                + sig / (2 * t) + (1 - 4 * t2) / (12 * t * tau))
    f["c_j"] = -t * tau / 3 * (sig ** 3 - sig) + (sig ** 2 - 1) / (6 * tau)
    f["d_vv"] = (sig ** 3 - 2 * sig ** 2 + 2 * sig - 1) / (12 * t)
    f["d_jj"] = t / 12 * (sig ** 3 - 2 * sig ** 2 - sig + 2)
    f["d_vj"] = (sig ** 3 - sig) / 6
    f["d_v"] = (2 * sig ** 2 + 1) / (6 * t)
    f["d_j"] = t / 3 * (sig ** 2 - 1)
    f["k1_te"] = -t * tau / (wp + t)
    f["k1_tm"] = t * (1 - t2) / (wp + t * (1 - t2))
    f["k2_te"] = -t * (wp + t * (1 - 2 * t2)) / (2 * (wp + t) ** 2)
    f["k2_tm"] = (t * (1 - t2) * (wp * (1 - 2 * t2) + t * (1 - t2))
                  / (2 * (wp + t * (1 - t2)) ** 2))
    f["w1_te"] = -tau / (ws + t)
    f["w1_tm"] = tau * (1 - t2) / (ws + t * (1 - t2))
    f["w2_te"] = -(t * (1 - 3 * t2) + ws * (1 - t2)) / (2 * t * (ws + t) ** 2)
    f["w2_tm"] = ((1 - t2) * (t * (1 - t2) ** 2 + ws * (1 - 3 * t2))
                  / (2 * t * (ws + t * (1 - t2)) ** 2))
    f["y2_te"] = -tau / (2 * (ws + t)) + (R(1, 4) - 5 * t2 / 12) / t
    f["y2_tm"] = tau * (1 - t2) / (2 * (ws + t * (1 - t2))) + (R(1, 4) + 7 * t2 / 12) / t
    pte = T[("s", "TE")] * T[("p", "TE")]
    ptm = T[("s", "TM")] * T[("p", "TM")]
    mix = T[("s", "TE")] * T[("p", "TM")] + T[("s", "TM")] * T[("p", "TE")]
    dd1 = sum(pte ** k * ptm ** (s - k) for k in range(s + 1))
    dd2 = sum(pte ** k * ptm ** (s - 1 - k) for k in range(s))
    f["script_b"] = (1 - t2) / (2 * t * t2) * (mix * dd1 + 2 * pte * ptm * dd2)
    for pol in ("te", "tm"):
        k1, k2, w1, w2 = (f[f"{k}_{pol}"] for k in ("k1", "k2", "w1", "w2"))
        f[f"script_c_{pol}"] = f["c_v"] * k1 + f["c_j"] * w1
        f[f"script_d_{pol}"] = (f["d_vv"] * k1 ** 2 + f["d_vj"] * k1 * w1 + f["d_jj"] * w1 ** 2
                                + f["d_v"] * k2 + f["d_j"] * w2 + sig * f[f"y2_{pol}"])
    f["braces"] = sum(
        p ** (s + 1) * (f["script_a"] + f[f"script_c_{pol}"] + f[f"script_d_{pol}"])
        for p, pol in ((pte, "te"), (ptm, "tm"))) + f["script_b"]
    return {k: float(v) for k, v in f.items()}


def test_sympy_transcription_oracle():
    # independent re-derivation of every coefficient and of the braces; the
    # points cover s = 0 .. 12, unequal finite sheets, the benchmark's w
    # (0.095, 0.85, 8.6 and 57.8) and PC sides, and one point at s = 0, 1,
    # 4, 12 and 30 pins every power of sig in the table's polynomials
    points = [(0, 1, 0.5, 1, 1), (2, 0.75, 0.4, 3, 0.5), (0, 2.5, 0.25, 0.125, 4),
              (2, 1.25, 0.625, PC, 1.5), (2, 0.5, 0.75, 0.25, PC), (3, 0.8, 0.4, PC, PC),
              (12, 0.3, 0.55, 0.095, 0.095), (7, 1.5, 0.2, 0.85, 8.6),
              (12, 4.0, 0.9, 57.8, 0.85), (5, 0.05, 0.35, 8.6, 57.8),
              (12, 0.6, 0.45, PC, 0.095), (9, 2.0, 0.15, 57.8, PC)]
    points += [(s, 0.7, 0.6, 0.85, 8.6) for s in (0, 1, 4, 12, 30)]
    fields = [f.name for f in dataclasses.fields(NtlCoefficients)]
    for s, t, tau, ws, wp in points:
        # the table the integrand sums is the scalar view, field for field
        assert sorted(asy._ntl_table(t, tau, ws, wp)) == sorted(fields)
        want = _ntl_oracle(s, t, tau, ws, wp)
        got = ntl_coefficients(s, t, tau, ws, wp)
        for name in fields:
            assert getattr(got, name) == pytest.approx(want[name], rel=1e-13, abs=1e-30), \
                (name, s, t, tau, ws, wp)
        integrand = want["braces"] * math.exp(-2.0 * t * (s + 1))
        assert ntl_integrand(s, t, tau, ws, wp) == pytest.approx(integrand, rel=1e-13, abs=0.0)


def test_ntl_coefficients_pc_limit():
    c = ntl_coefficients(3, 0.8, 0.4, PC, PC)
    assert c.k1_te == c.k2_te == c.k1_tm == c.k2_tm == 0.0
    assert c.w1_te == c.w2_te == c.w1_tm == c.w2_tm == 0.0
    assert c.t0_te == c.t0_tm == c.t0t_te == c.t0t_tm == 1.0
    t, tau, s = 0.8, 0.4, 3
    assert c.y2_te == pytest.approx((0.25 - 5 * tau ** 2 / 12) / t, rel=1e-14)
    assert c.y2_tm == pytest.approx((0.25 + 7 * tau ** 2 / 12) / t, rel=1e-14)
    want_b = (1 - tau ** 2) * (4 * s + 2) / (2 * t * tau ** 2)
    assert c.script_b == pytest.approx(want_b, rel=1e-13)


def test_script_b_power_sum_vs_divided_difference():
    rng = np.random.default_rng(61)
    for _ in range(100):
        s = int(rng.integers(0, 12))
        t = float(10.0 ** rng.uniform(-1, 1))
        tau = float(rng.uniform(0.05, 0.95))
        ws = float(10.0 ** rng.uniform(-1, 1))
        wp = float(10.0 ** rng.uniform(-1, 1))
        ps = ntl_coefficients(s, t, tau, ws, wp).script_b
        dd = script_b_divided_difference(s, t, tau, ws, wp)
        assert ps == pytest.approx(dd, rel=1e-12)


def test_running_power_sums_match_horner_oracle():
    # the series carries B's power sums from one s to the next; the oracle
    # forms them afresh at each s
    rng = np.random.default_rng(7)
    a, b = rng.uniform(0.05, 1.0, (2, 40))
    products = asy._running_products(a, b)
    for s in range(40):
        want = (a ** (s + 1), b ** (s + 1), *hom_power_sums(a, b, s))
        for got, value in zip(next(products), want):
            np.testing.assert_allclose(np.broadcast_to(got, a.shape), value, rtol=1e-13)


def test_script_b_degenerate_region_finite():
    # tau -> 0 makes the TE and TM products collide; the power-sum form is a
    # finite removable limit there
    s, t, ws, wp = 4, 0.9, 1.3, 0.7
    tau = 1e-8
    c = ntl_coefficients(s, t, tau, ws, wp)
    a = (ws / (ws + t)) * (wp / (wp + t))
    want = (1 - tau ** 2) / (2 * t * tau ** 2) * (2 * (2 * s + 1) * a ** (s + 1))
    assert math.isfinite(c.script_b)
    assert c.script_b == pytest.approx(want, rel=1e-6)


def test_e0_pc_value():
    got = small_gap_expansion(2.0, 0.1, PC, PC)[0]
    assert got == pytest.approx(-math.pi ** 3 * 2.0 / (720.0 * 0.01), rel=1e-10)


def test_e0_transparent():
    assert small_gap_expansion(1.0, 0.1, 0.0, 1.0)[0] == 0.0


def test_e0_matches_pfa():
    # E0 as its fitted s-series against the closed-form Li2 integral
    a = e0_s_series(1.0, 0.2, 2.0, 2.0)
    b = pfa_energy(1.0, 0.2, 2.0, 2.0)
    assert a == pytest.approx(b, rel=1e-8)


def test_e1_pc_value():
    # E1_PC = E0_PC * theta_PC * d/R
    R, d = 2.0, 0.1
    want = -math.pi ** 3 * R / (720.0 * d * d) * THETA_PC * d / R
    assert small_gap_expansion(R, d, PC, PC)[1] == pytest.approx(want, rel=1e-9)


def test_e1_stable_under_node_doubling(monkeypatch):
    base = small_gap_expansion(1.0, 0.1, 1.0, 1.0)[1]
    monkeypatch.setattr(quadrature, "_N_TAU", 2 * quadrature._N_TAU)
    fine = small_gap_expansion(1.0, 0.1, 1.0, 1.0)[1]
    assert fine == pytest.approx(base, rel=1e-6)


@pytest.mark.parametrize("w", [0.1, 1e-5])
def test_theta_matches_finer_quadrature(w, monkeypatch):
    # w = 0.1 needs 48 tau nodes and w = 1e-5 needs 384; a Gauss-Laguerre t
    # rule capped at 192 nodes, or a fixed 192-node tau rule, misses by 1e-8
    got = small_gap_expansion(1.0, 0.01, w, w)[2]
    monkeypatch.setattr(quadrature, "_N_TAU", 384)
    monkeypatch.setattr(quadrature, "_LOG_TRAP_H", 0.2)
    fine = small_gap_expansion(1.0, 0.01, w, w)[2]
    assert abs(got - fine) < 1e-10 * max(abs(fine), 1.0)


def test_tau_probe_raises_at_its_cap(monkeypatch):
    # w = 1e-3 needs 96 to 192 tau nodes; a cap of 48 must raise, not return
    monkeypatch.setattr(quadrature, "_N_TAU_MAX", 48)
    with pytest.raises(NumericsError, match="tau rule not settled") as info:
        small_gap_expansion(1.0, 0.01, 1e-3, 1e-3)
    assert math.isfinite(info.value.error_estimate) and info.value.error_estimate > 0.0


def test_theta_pc():
    got = theta(PC, PC)
    assert got == pytest.approx(THETA_PC, abs=1e-10)


def test_theta_scale_invariance():
    # (R, d) -> (lam R, lam d) at fixed w divides E0 and E1 by lam and
    # leaves theta unchanged
    om, R, d = 2.5, 3.0, 0.4
    ws, wp = varpi(om, d), varpi(0.8 * om, d)
    e0_1, e1_1, th_1 = small_gap_expansion(R, d, ws, wp)
    lam = 7.3
    e0_l, e1_l, th_l = small_gap_expansion(lam * R, lam * d, ws, wp)
    assert e0_l == pytest.approx(e0_1 / lam, rel=1e-9)
    assert e1_l == pytest.approx(e1_1 / lam, rel=1e-9)
    assert th_l == pytest.approx(th_1, rel=1e-9)


def test_theta_negative_for_pc_and_graphene():
    assert theta(PC, PC) < 0.0
    om = 6.75e5
    for d in np.geomspace(1e-8, 1e-3, 7):
        w = varpi(om, float(d))
        assert theta(w, w) < 0.0


def test_small_gap_expansion_matches_separate_calls():
    # E0 is the PFA energy, bit for bit
    R, d = 1.3, 0.25
    for ws, wp in ((PC, PC), (4.0, 2.0)):
        e0_, _, th = small_gap_expansion(R, d, ws, wp)
        assert (e0_, th) == (pfa_energy(R, d, ws, wp), theta(ws, wp))
    assert small_gap_expansion(R, d, PC, 0.0) == (0.0, 0.0, None)


def test_small_gap_and_pfa_values_are_plain_floats():
    R, d = 1.3, 0.25
    for ws, wp in ((PC, PC), (4.0, 2.0)):
        values = [*small_gap_expansion(R, d, ws, wp), theta(ws, wp),
                  pfa_energy(R, d, ws, wp), lifshitz_plane_plane(d, ws, wp)]
        assert [type(v) for v in values] == [float] * len(values), values


# equal graphene-like sheets from both ends of the bench gap grid; w = 0.095
# needs the most tau nodes (48), the others settle on the first 24
_GRAPHENE_W = (0.095, 0.24, 1.3, 58.0)


@pytest.mark.parametrize("ws, wp", [(PC, PC), (4.0, 2.0)] + [(w, w) for w in _GRAPHENE_W])
def test_s_series_stop_matches_full_sum(ws, wp):
    # the s-sums stop once their tail-corrected totals settle; the oracle
    # sums every term up to _S_MAX
    got = small_gap_expansion(1.0, 0.01, ws, wp)[2]
    assert got == pytest.approx(full_sum_theta(ws, wp), rel=1e-10)


def test_s_series_term_counts(monkeypatch):
    counts = {"E1": 0}

    def counted(term, p0, rel_tol, what, *floor, _orig=asy._tail_corrected_sum):
        def counted_term(s):
            counts[what] += 1
            return term(s)
        return _orig(counted_term, p0, rel_tol, what, *floor)

    monkeypatch.setattr(asy, "_tail_corrected_sum", counted)
    theta(PC, PC)
    # the E1 tail, (2/3)/(s+2) of a total 0.92, is below 5% from s = 14 on
    assert counts["E1"] <= 16, counts
    for w in _GRAPHENE_W:
        counts.update(E1=0)
        small_gap_expansion(1.0, 0.01, w, w)
        assert counts["E1"] <= 30, (w, counts)


def test_pc_terms_on_the_shared_grid():
    # every term lies on the s = 0 grid; at the step _LOG_TRAP_H that grid
    # aliases, and these terms miss by up to 7.5e-13 with alternating signs
    term = asy._e1_terms(PC, PC)
    for s in range(31):
        sig = s + 1.0
        want = (1.0 / (6.0 * sig ** 2) - 2.0 / 3.0) / sig ** 2
        assert term(s) == pytest.approx(want, rel=1e-13, abs=0.0), s


def test_one_e1_table_per_probed_tau_rule(monkeypatch):
    # a row builds the E1 table once per tau rule the probe tries, never per
    # s; w = 0.095 probes 24, 48 and 96 nodes and takes 48
    rules, terms = [], []

    def table(t, tau, *args, _orig=asy._e1_table, **kwargs):
        rules.append(np.size(tau))
        return _orig(t, tau, *args, **kwargs)

    def counted(term, *args, _orig=asy._tail_corrected_sum):
        return _orig(lambda s: terms.append(s) or term(s), *args)

    monkeypatch.setattr(asy, "_e1_table", table)
    monkeypatch.setattr(asy, "_tail_corrected_sum", counted)
    small_gap_expansion(1.0, 0.01, 0.095, 0.095)
    assert 2 <= len(rules) <= 3 and len(set(rules)) == len(rules), rules
    assert len(terms) >= 14, terms


@pytest.mark.parametrize("ws, wp", [(0.095, 0.095), (PC, 0.2407), (0.2407, PC), (4.0, 2.0),
                                    (PC, PC)])
def test_series_terms_are_the_grid_sums_of_the_braces(ws, wp):
    # the series sums TE over tau before the loop over s, contracts the TM
    # polynomial with the powers of sig and carries B's tau sums from one s
    # to the next; the braces summed on the same grid, term by term, give
    # the same terms (measured: within 2.2e-15, relative)
    t, wt = _log_t_nodes(1.0, min(ws, wp), asy._E1_STEP)
    tau, wtau = tau_rule(48)
    series = asy._e1_grid_terms(t, wt, tau, wtau, ws, wp)
    for s in range(31):
        sig = s + 1.0
        g = asy._braces_times_t(s, t[:, None], tau[None, :], ws, wp)
        want = float((wt * np.exp(-2.0 * sig * t)) @ g @ wtau) / sig ** 2
        assert next(series) == pytest.approx(want, rel=1e-13, abs=0.0), (ws, wp, s)


@pytest.mark.parametrize("w", [0.5, 3.39])
def test_log_trapezoid_route_matches_laguerre_route(w, monkeypatch):
    # sheets where Gauss-Laguerre in t converges too; the log-trapezoid's
    # first weight carries the E1 integrand below its first node, which
    # tends to c t as t -> 0.  At the fixed 1e-10 the two routes' stops
    # differ by up to 4.2e-11, so both run at 1e-11, the lowest that settles
    monkeypatch.setattr(asy, "_SERIES_TOL", 1e-11)
    trap = small_gap_expansion(1.0, 0.01, w, w)[2]
    assert abs(trap - laguerre_theta(w, w, rel_tol=1e-11)) < 1e-11


def test_series_tolerance_is_not_a_setting():
    # the s-series run at one fixed tolerance, so neither entry takes one
    with pytest.raises(TypeError, match="rel_tol"):
        small_gap_expansion(1.0, 0.01, 1.3, 1.3, rel_tol=1e-10)
    with pytest.raises(TypeError, match="rel_tol"):
        theta(PC, PC, rel_tol=1e-10)


def test_theta_checks_its_sheets_once(monkeypatch):
    calls = []

    def counted(*args, _orig=asy.check_sheets, **lengths):
        calls.append(args)
        return _orig(*args, **lengths)

    monkeypatch.setattr(asy, "check_sheets", counted)
    theta(PC, PC)
    assert calls == [(PC, PC)]


def test_s_series_unsettled_ceiling_and_sign_change():
    # alternating relative noise of 1e-10 in the terms, which the tail fit
    # amplifies: the tail stays below 5% but the total never settles
    def term(s):
        return (s + 1.0) ** -2 * (1.0 + 1e-10 * (-1) ** s)

    with pytest.raises(NumericsError, match="not settled"):
        asy._tail_corrected_sum(term, 2, 1e-10, "E1")
    # equal sheets: theta changes sign between w = 1e-4 and 2e-4, where a
    # stop relative to the E1 sum alone never fires at w = 1e-4; against the
    # E0 sum it settles in 20 terms, to 1e-10 of max(|theta|, 1)
    got = small_gap_expansion(1.0, 0.01, 1e-4, 1e-4)[2]
    assert abs(got - full_sum_theta(1e-4, 1e-4)) < 1e-10


def test_theta_transparent_raises():
    with pytest.raises(ValueError):
        theta(0.0, 1.0)


def test_ntl_integrand_array_and_scalar():
    # a (t, tau) grid, as the s-terms use it, with finite and PC sides
    t = np.array([0.05, 0.5, 1.0, 2.0, 6.0])[:, None]
    tau = np.array([0.1, 0.3, 0.7, 0.95])[None, :]
    for ws, wp in ((1.0, 2.0), (PC, 0.85), (8.6, PC), (PC, PC)):
        arr = ntl_integrand(4, t, tau, ws, wp)
        assert arr.shape == (5, 4)
        for (i, j), value in np.ndenumerate(arr):
            want = ntl_integrand(4, t[i, 0], tau[0, j], ws, wp)
            assert value == pytest.approx(want, rel=1e-14, abs=0.0), (ws, wp, i, j)


def test_ntl_coefficients_domain():
    with pytest.raises(ValueError):
        ntl_coefficients(-1, 1.0, 0.5, 1.0, 1.0)
    # s must be a non-negative integer: the sig polynomials mean nothing
    # between the integers; a bool is not one
    for bad in (-1, 2.5, np.float64(1.0), "1", True, False):
        with pytest.raises(ValueError, match="integer"):
            ntl_coefficients(bad, 1.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match="integer"):
            ntl_integrand(bad, 1.0, 0.5, 1.0, 1.0)
    assert ntl_integrand(np.int64(2), 1.0, 0.5, 1.0, 1.0) == ntl_integrand(2, 1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        ntl_coefficients(0, 0.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        ntl_coefficients(0, 1.0, 1.0, 1.0, 1.0)
