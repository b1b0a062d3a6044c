"""Small-separation expansion of the sphere-plane interaction.

Leading term E0 (which equals the PFA), next-to-leading term E1 with the
full coefficient set, and the correction ratio theta = (E1/E0)(R/d).

Layout of the s-th term of either series, in the variables (t, tau):

    E0_s ~ int dt t int dtau (tau measure) e^{-2t(s+1)} sum_pol [T0 T0t]^{s+1}
    E1_s ~ same with { sum_pol [T0 T0t]^{s+1} (A + C_pol + D_pol) + B }

All 1/t poles of the coefficients are cancelled analytically by folding one
power of t into the integrand, after which plain Gauss-Laguerre on
x = 2 t (s+1) converges at machine precision.  The divided differences in B
are evaluated as explicit homogeneous power sums, which removes the a -> b
cancellation exactly.  The s-sums decay like powers of 1/(s+1); truncation
is corrected by fitting the last terms to an inverse-power tail and summing
it with polygamma functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import polygamma

from .errors import NumericsError
from .scattering import PERFECT_CONDUCTOR, check_omega, varpi
from ._quadrature import gauss_laguerre, tau_rule

_N_T = 48
_N_TAU = 48
_N_MAX = 192            # scipy's Laguerre roots degrade beyond this
_S_MAX = 200
_SMALL_VARPI = 0.1      # below this the T0 pole sits too close to the t axis
                        # for Gauss-Laguerre; a log-axis trapezoid takes over
_LOG_TRAP_H = 0.28
_N_TAU_SMALL = 192


def _t0(t, tau, w, tm: bool):
    if w == PERFECT_CONDUCTOR:
        return np.ones(np.broadcast(t, tau).shape)
    arg = t * (1.0 - tau ** 2) if tm else t
    return w / (w + arg) * np.ones(np.broadcast(t, tau).shape)


def _hom_power_sum(a, b, n: int):
    """sum_{k=0}^{n} a^k b^{n-k}; empty (n < 0) gives 0."""
    acc = np.zeros(np.broadcast(a, b).shape)
    if n < 0:
        return acc
    ap = np.ones_like(acc)
    for _ in range(n + 1):
        acc = acc * b + ap
        ap = ap * a
    return acc


def script_b_divided_difference(s, t, tau, varpi_s, varpi_p):
    """B in its divided-difference form (reference for tests).

    Undefined exactly at T0TE*T0tTE = T0TM*T0tTM; the production path uses
    the power-sum form instead.
    """
    sig = s + 1
    te = _t0(t, tau, varpi_s, False) * _t0(t, tau, varpi_p, False)
    tm = _t0(t, tau, varpi_s, True) * _t0(t, tau, varpi_p, True)
    mix = (_t0(t, tau, varpi_s, False) * _t0(t, tau, varpi_p, True)
           + _t0(t, tau, varpi_s, True) * _t0(t, tau, varpi_p, False))
    dd1 = (te ** sig - tm ** sig) / (te - tm)
    dd2 = (te ** s - tm ** s) / (te - tm)
    return (1.0 - tau ** 2) / (2.0 * t * tau ** 2) * (mix * dd1 + 2.0 * te * tm * dd2)


@dataclass(frozen=True)
class NtlCoefficients:
    """Every named ingredient of the next-to-leading integrand at one point."""

    t0_te: float
    t0_tm: float
    t0t_te: float
    t0t_tm: float
    script_a: float
    script_b: float
    script_c_te: float
    script_c_tm: float
    script_d_te: float
    script_d_tm: float
    c_v: float
    c_j: float
    d_vv: float
    d_jj: float
    d_vj: float
    d_v: float
    d_j: float
    k1_te: float
    k1_tm: float
    k2_te: float
    k2_tm: float
    w1_te: float
    w1_tm: float
    w2_te: float
    w2_tm: float
    y2_te: float
    y2_tm: float


# Coefficients with a 1/t pole; the kernel returns them times t, which
# cancels the pole before the integration.
_TIMES_T = ("script_a", "script_b", "c_v", "d_vv", "d_v", "y2_te", "y2_tm")


def _ntl_kernel(s, t, tau, ws, wp):
    """Every coefficient of the E1 braces at (s, t, tau), vectorised.

    Returns (coef, cd_terms).  coef maps the NtlCoefficients field names to
    values, the fields in _TIMES_T multiplied by t.  cd_terms(pol) yields
    the terms of t (C_pol + D_pol) one at a time, in summation order; the
    first two make up t C_pol.
    """
    sig = s + 1.0
    t2 = tau ** 2
    zero = np.zeros(np.broadcast(t, tau).shape)
    c = {"t0_te": _t0(t, tau, ws, False), "t0_tm": _t0(t, tau, ws, True),
         "t0t_te": _t0(t, tau, wp, False), "t0t_tm": _t0(t, tau, wp, True)}
    c["script_a"] = ((t * t * t2 / 3.0) * (sig ** 3 + 2 * sig)
                     + t * ((t2 - 2.0) * sig ** 2 - 3.0 * tau * sig + 2.0 * t2 - 1.0) / 3.0
                     + (t2 ** 2 + t2 - 12.0) / (12.0 * t2) * sig
                     + (1.0 + tau) * (1.0 - t2) / (2.0 * t2)
                     - (1.0 - t2) / 3.0 / sig)
    c["c_v"] = (-(tau / 3.0) * (sig ** 3 + 2 * sig) * t + (1.0 - t2) / (6.0 * tau) * sig ** 2
                + 0.5 * sig + (1.0 - 4.0 * t2) / (12.0 * tau))
    c["c_j"] = -(t * tau / 3.0) * (sig ** 3 - sig) + (sig ** 2 - 1.0) / (6.0 * tau)
    c["d_vv"] = (sig ** 3 - 2 * sig ** 2 + 2 * sig - 1.0) / 12.0
    c["d_jj"] = (t / 12.0) * (sig ** 3 - 2 * sig ** 2 - sig + 2.0)
    c["d_vj"] = (sig ** 3 - sig) / 6.0
    c["d_v"] = (2 * sig ** 2 + 1.0) / 6.0
    c["d_j"] = (t / 3.0) * (sig ** 2 - 1.0)

    if wp == PERFECT_CONDUCTOR:
        c.update(k1_te=zero, k2_te=zero, k1_tm=zero, k2_tm=zero)
    else:
        c["k1_te"] = -t * tau / (wp + t)
        c["k2_te"] = -t * (wp + t * (1.0 - 2.0 * t2)) / (2.0 * (wp + t) ** 2)
        c["k1_tm"] = t * (1.0 - t2) / (wp + t * (1.0 - t2))
        c["k2_tm"] = (t * (1.0 - t2) * (wp * (1.0 - 2.0 * t2) + t * (1.0 - t2))
                      / (2.0 * (wp + t * (1.0 - t2)) ** 2))
    if ws == PERFECT_CONDUCTOR:
        c.update(w1_te=zero, w2_te=zero, w1_tm=zero, w2_tm=zero)
        c["y2_te"] = (0.25 - 5.0 * t2 / 12.0) + zero
        c["y2_tm"] = (0.25 + 7.0 * t2 / 12.0) + zero
    else:
        c["w1_te"] = -tau / (ws + t)
        c["w2_te"] = -(t * (1.0 - 3.0 * t2) + ws * (1.0 - t2)) / (2.0 * t * (ws + t) ** 2)
        c["w1_tm"] = tau * (1.0 - t2) / (ws + t * (1.0 - t2))
        c["w2_tm"] = ((1.0 - t2) * (t * (1.0 - t2) ** 2 + ws * (1.0 - 3.0 * t2))
                      / (2.0 * t * (ws + t * (1.0 - t2)) ** 2))
        c["y2_te"] = -t * tau / (2.0 * (ws + t)) + (0.25 - 5.0 * t2 / 12.0)
        c["y2_tm"] = (t * tau * (1.0 - t2) / (2.0 * (ws + t * (1.0 - t2)))
                      + (0.25 + 7.0 * t2 / 12.0))

    def cd_terms(pol):
        k1, k2, w1, w2 = (c[f"{k}_{pol}"] for k in ("k1", "k2", "w1", "w2"))
        yield c["c_v"] * k1
        yield t * c["c_j"] * w1
        yield c["d_vv"] * k1 ** 2
        yield t * c["d_vj"] * k1 * w1
        yield t * c["d_jj"] * w1 ** 2
        yield c["d_v"] * k2
        yield t * c["d_j"] * w2
        yield sig * c[f"y2_{pol}"]

    pte, ptm = c["t0_te"] * c["t0t_te"], c["t0_tm"] * c["t0t_tm"]
    ps1 = _hom_power_sum(pte, ptm, s)
    ps2 = _hom_power_sum(pte, ptm, s - 1)
    mix = c["t0_te"] * c["t0t_tm"] + c["t0_tm"] * c["t0t_te"]
    c["script_b"] = (1.0 - t2) / (2.0 * t2) * (mix * ps1 + 2.0 * pte * ptm * ps2)
    return c, cd_terms


def ntl_coefficients(s: int, t: float, tau: float, varpi_s, varpi_p) -> NtlCoefficients:
    """Scalar view of the coefficient set at (s, t, tau, w_s, w_p)."""
    if s < 0 or not (t > 0.0) or not (0.0 < tau < 1.0):
        raise ValueError("need s >= 0, t > 0 and tau in (0, 1)")
    coef, cd_terms = _ntl_kernel(s, t, tau, varpi_s, varpi_p)
    view = {k: float(v / t if k in _TIMES_T else v) for k, v in coef.items()}
    for pol in ("te", "tm"):
        terms = list(cd_terms(pol))
        view[f"script_c_{pol}"] = float(sum(terms[:2]) / t)
        view[f"script_d_{pol}"] = float(sum(terms[2:]) / t)
    return NtlCoefficients(**view)


def ntl_integrand(s: int, t, tau, varpi_s, varpi_p):
    """e^{-2t(s+1)} { sum_pol [T0 T0t]^{s+1} (A + C + D) + B }; scalar or arrays."""
    t = np.asarray(t, dtype=float)
    tau = np.asarray(tau, dtype=float)
    scalar = t.ndim == 0 and tau.ndim == 0
    val = np.exp(-2.0 * np.atleast_1d(t) * (s + 1)) \
        * _braces_times_t(s, np.atleast_1d(t), np.atleast_1d(tau), varpi_s, varpi_p) \
        / np.atleast_1d(t)
    return float(val[0]) if scalar else val


def _braces_times_t(s, t, tau, ws, wp):
    """t * braces of the E1 integrand, vectorized, 1/t poles cancelled."""
    c, cd_terms = _ntl_kernel(s, t, tau, ws, wp)
    pte, ptm = c["t0_te"] * c["t0t_te"], c["t0_tm"] * c["t0t_tm"]
    return (pte ** (s + 1) * (c["script_a"] + sum(cd_terms("te")))
            + ptm ** (s + 1) * (c["script_a"] + sum(cd_terms("tm"))) + c["script_b"])


_POLYGAMMA_TAIL = {
    2: lambda s0: polygamma(1, s0),
    3: lambda s0: -polygamma(2, s0) / 2.0,
    4: lambda s0: polygamma(3, s0) / 6.0,
    5: lambda s0: -polygamma(4, s0) / 24.0,
    6: lambda s0: polygamma(5, s0) / 120.0,
}


def _tail_corrected_sum(term, powers, rel_tol, what):
    """Sum term(s) over s >= 0 with an inverse-power tail fit.

    term(s) must decay like (s+1)^(-powers[0]) with corrections at the next
    powers; the fitted tail is summed exactly with polygamma functions.
    """
    terms = []
    total = 0.0
    for s in range(_S_MAX + 1):
        v = term(s)
        terms.append(v)
        total += v
        if s >= 3 and abs(v) < 0.02 * rel_tol * abs(total):
            break
    s_last = len(terms) - 1
    if abs(terms[-1]) < 1e3 * np.finfo(float).tiny:
        return total, 0.0
    sig3 = np.array([s_last - 2, s_last - 1, s_last], dtype=float) + 1.0
    basis = np.stack([sig3 ** (-p) for p in powers], axis=1)
    try:
        coef = np.linalg.solve(basis, np.array(terms[-3:]))
    except np.linalg.LinAlgError:
        coef = None
    if coef is None or not np.all(np.isfinite(coef)):
        tail = abs(terms[-1]) * (s_last + 2.0)  # crude bound, still conservative
    else:
        tail = sum(c * _POLYGAMMA_TAIL[p](s_last + 2.0) for c, p in zip(coef, powers))
    if abs(tail) > 0.05 * abs(total + tail):
        raise NumericsError(f"{what}: s-sum not converged, tail {tail} vs sum {total}",
                            error_estimate=abs(tail))
    return total + tail, abs(tail)


def _pick_nodes(term_at):
    """Grow the (t, tau) grid until the s = 0 term stops moving.

    Moderately small plasma parameters put the T0 poles close to the t axis,
    which slows the Gauss rules down; one doubling probe on the dominant term
    detects it.
    """
    n = _N_T
    v = term_at(0, n)
    while 2 * n <= _N_MAX:
        v2 = term_at(0, 2 * n)
        diff = abs(v2 - v)
        if diff <= 1e-12 * abs(v2):
            return n
        if diff <= 1e-7 * abs(v2):
            return 2 * n
        n, v = 2 * n, v2
    return _N_MAX


def _min_finite_varpi(varpi_s, varpi_p):
    vals = [v for v in (varpi_s, varpi_p) if v != PERFECT_CONDUCTOR]
    return min(vals) if vals else math.inf


def _log_t_nodes(sig, w_min):
    """Trapezoid nodes on t = e^v covering both the pole scale and the decay.

    The integrands are analytic in a strip of half-width pi around the real
    v axis (their t poles are on the negative real axis), so the trapezoid
    converges like exp(-2 pi^2 / h) regardless of how small w_min is.
    """
    lo = math.log(min(w_min, 1.0 / sig)) - 20.0
    hi = math.log(25.0 / sig)
    n = int((hi - lo) / _LOG_TRAP_H) + 1
    v = lo + (hi - lo) * np.arange(n) / (n - 1)
    t = np.exp(v)
    return t, t * (hi - lo) / (n - 1)


def _series_term_factory(varpi_s, varpi_p, g_func):
    """Per-s integral of (measure) e^{-2t(s+1)} g(s, t, tau), route chosen by
    how close the smallest plasma parameter pushes the poles to the axis."""
    w_min = _min_finite_varpi(varpi_s, varpi_p)
    if w_min >= _SMALL_VARPI:
        def term_at(s, n):
            x, wx = gauss_laguerre(n)
            tau, wtau = tau_rule(n)
            sig = s + 1.0
            t = x[:, None] / (2.0 * sig)
            g = g_func(s, t, tau[None, :])
            return float(wx @ g @ wtau) / (2.0 * sig) / sig ** 2

        n = _pick_nodes(term_at)
        return lambda s: term_at(s, n)

    tau, wtau = tau_rule(_N_TAU_SMALL)

    def term(s):
        sig = s + 1.0
        t, wt = _log_t_nodes(sig, w_min)
        g = g_func(s, t[:, None], tau[None, :])
        return float((wt * np.exp(-2.0 * sig * t)) @ g @ wtau) / sig ** 2

    return term


def _e0_series(varpi_s, varpi_p, rel_tol):
    def g_func(s, t, tau):
        sig = s + 1.0
        return t * ((_t0(t, tau, varpi_s, False) * _t0(t, tau, varpi_p, False)) ** sig
                    + (_t0(t, tau, varpi_s, True) * _t0(t, tau, varpi_p, True)) ** sig)

    term = _series_term_factory(varpi_s, varpi_p, g_func)
    return _tail_corrected_sum(term, (4, 5, 6), rel_tol, "E0")


def _e1_series(varpi_s, varpi_p, rel_tol):
    def g_func(s, t, tau):
        return _braces_times_t(s, t, tau, varpi_s, varpi_p)

    term = _series_term_factory(varpi_s, varpi_p, g_func)
    return _tail_corrected_sum(term, (2, 3, 4), rel_tol, "E1")


def _transparent(radius_R, gap_d, varpi_s, varpi_p) -> bool:
    """Check the arguments of the small-gap terms; True if a sheet is
    transparent, where E0 and E1 vanish."""
    if not (radius_R > 0.0 and gap_d > 0.0):
        raise ValueError("radius_R and gap_d must be positive")
    check_omega(varpi_s, "varpi_s")
    check_omega(varpi_p, "varpi_p")
    return varpi_s == 0.0 or varpi_p == 0.0


def _e0_prefactor(radius_R, gap_d):
    return -radius_R / (4.0 * math.pi * gap_d ** 2)


def _e1_prefactor(gap_d):
    return -1.0 / (4.0 * math.pi * gap_d)


def e0(radius_R: float, gap_d: float, varpi_s, varpi_p, rel_tol: float = 1e-10) -> float:
    """Leading small-separation term, units hbar c = 1 (dimension 1/length).

    Coincides with the PFA energy at equal dimensionless parameters; the two
    are computed along fully independent quadrature routes.
    """
    if _transparent(radius_R, gap_d, varpi_s, varpi_p):
        return 0.0
    q0, _ = _e0_series(varpi_s, varpi_p, rel_tol)
    return _e0_prefactor(radius_R, gap_d) * q0


def e1(radius_R: float, gap_d: float, varpi_s, varpi_p, rel_tol: float = 1e-10) -> float:
    """Next-to-leading term, units hbar c = 1 (dimension 1/length)."""
    if _transparent(radius_R, gap_d, varpi_s, varpi_p):
        return 0.0
    q1, _ = _e1_series(varpi_s, varpi_p, rel_tol)
    return _e1_prefactor(gap_d) * q1


def small_gap_expansion(radius_R: float, gap_d: float, varpi_s, varpi_p,
                        rel_tol: float = 1e-10) -> tuple:
    """(E0, E1, theta) from one evaluation of each series.

    Same values as e0, e1 and theta called one by one, at the cost of e0
    and e1 alone.  theta is None when a sheet is transparent.
    """
    if _transparent(radius_R, gap_d, varpi_s, varpi_p):
        return 0.0, 0.0, None
    q0, _ = _e0_series(varpi_s, varpi_p, rel_tol)
    q1, _ = _e1_series(varpi_s, varpi_p, rel_tol)
    return _e0_prefactor(radius_R, gap_d) * q0, _e1_prefactor(gap_d) * q1, q1 / q0


def theta(gap_d: float, radius_R: float, omega_s, omega_p, rel_tol: float = 1e-10) -> float:
    """Correction ratio theta = (E1/E0) (R/d), a pure function of (w_s, w_p).

    omega_s/omega_p are plasma parameters in 1/length (or PC markers); the
    dimensionless w = Omega d are formed internally, so R and d enter only
    through them.  PC-PC gives 1/3 - 20/pi^2.
    """
    _, _, th = small_gap_expansion(radius_R, gap_d, varpi(omega_s, gap_d),
                                   varpi(omega_p, gap_d), rel_tol)
    if th is None:
        raise ValueError("theta undefined for a transparent sheet (E0 = 0)")
    return th
