"""Small-separation expansion of the sphere-plane interaction.

Leading term E0, next-to-leading term E1 with the full coefficient set, and
the correction ratio theta = (E1/E0)(R/d).  E0 is the PFA: its integral q0
and its prefactor -R/(4 pi d^2) come from ``pfa``, so E0 and
``pfa_energy`` are one number.

E1 is a sum over s; its s-th term, in the variables (t, tau), is

    E1_s ~ int dt t int dtau (tau measure) e^{-2t(s+1)}
               { sum_pol [T0 T0t]_pol^{s+1} (A + C_pol + D_pol) + B }

A, B, C_pol and D_pol are entries of one coefficient table (_ntl_table),
which the scalar view ``ntl_coefficients`` reads too.  A perfect-conductor
(PC) side enters as its w -> oo limit: T0 = 1, and k1 = k2 = 0 (plane) or
w1 = w2 = 0 and a t y2 of tau alone (sphere).  All 1/t poles are cancelled
analytically by folding one power of t into the integrand.  Only powers of
sig = s + 1 and [T0 T0t]^{s+1} depend on s: A + C_pol + D_pol is a
polynomial in sig and 1/sig, and B's divided differences are homogeneous
power sums, free of the a -> b cancellation and carried from one s to the
next.  So a row builds the table once per probed tau rule (_e1_braces).

Every term of a row lies on one grid: a trapezoid on ln t (_log_t_nodes)
over the s = 0 window [ln min(w, 1) - 20, ln 25], times a Gauss rule in
tau sized by a doubling probe on the s = 0 term (_pick_nodes), the rule
``pfa`` uses too.  Above ln(25/sig) the factor e^{-2 sig t} is below
e^{-50}; below the first node t0 the first weight's geometric continuation
to t = 0 still holds, as t0 sig <= 201 e^{-20}.  The step is _E1_STEP =
0.8 times _LOG_TRAP_H.  At _LOG_TRAP_H a grid that does not scale with sig
aliases: the PC terms miss (1/(6 sig^2) - 2/3)/sig^2 by up to 7.5e-13, with
a sign that flips from one s to the next, the tail fit amplifies that, and
PC-PC takes 21 terms.  At 0.8 they are within 4e-15 for s <= 30.

The terms decay like (s+1)^-2.  After each term the last five are fitted to
the powers p0 .. p0+4 of 1/(s+1) (p0 = 2), and the fitted tail is summed
to round-off by Euler-Maclaurin.  The sum stops once two successive
tail-corrected totals agree to _SERIES_TOL/10 and the tail is at most 5% of
the total.  The tolerance is fixed at 1e-10: the fit amplifies the
round-off of the terms, so below about 1e-11 the sums stop settling.  Over
the ten graphene gaps of the benchmark (w = 0.095 .. 58) equal sheets take
14-22 terms, sheets of 10 and 100 times graphene's Omega 14-18 and 14-15,
PC on both sheets 15, a PC sphere before a graphene plane 15-31 (32 at
w = 0.2407) and a graphene sphere before a PC plane 14-29.  The E1 sum
changes sign between w = 1e-4 and 2e-4 for equal sheets, so it is judged
against the larger of itself and q0: theta = q1/q0 then settles to
_SERIES_TOL/10 times max(|theta|, 1); q0 itself is good to about 4e-12.
_S_MAX bounds the sum; a sum that has not settled there raises
NumericsError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .pfa import _pfa_prefactor, _polylog_integral, _t0
from .scattering import PERFECT_CONDUCTOR, check_sheets
from ._quadrature import _log_t_nodes, _pick_nodes, tau_rule

_S_MAX = 200
# The E1 series' relative tolerance.  Not lower: the tail fit amplifies the
# round-off of the terms, so below 1e-11 the sums stop settling (w = 1e-4
# and 0.01 fail at 3e-12).
_SERIES_TOL = 1e-10
_E1_STEP = 0.8  # the E1 grid's log-t step, in units of _LOG_TRAP_H

# A row builds an E1 table per probed tau rule and a few (t, tau) arrays per
# s-term: a traced peak of 1.6 MB at w = 0.095, on a 115 x 48 grid.  glibc
# hands its heap top back to the system once more than its trim threshold
# (128 KiB at start) lies free there, to be faulted in again by the next
# table, term or exact-path m.  Without this block a benchmark pass (seed
# 1, in-process, median of 15) takes 3269 minor faults on asympt-sweep and
# 735 on exact-wide, against 1 and 1 with it; pass times did not move
# beyond their own spread (0.05-0.08 s and 0.10-0.23 s, two runs each).
# Freeing a block above the mmap threshold raises that threshold to its
# size and the trim threshold to twice it (mallopt(3)): 2 and 4 MiB here.
# Under another allocator this is one short-lived allocation.
_block = np.empty(1 << 18)
del _block


def _running_products(pte, ptm, s=0):
    """Yield (pte^{k+1}, ptm^{k+1}, h_k, h_{k-1}) for k = s, s + 1, ..., where
    h_k = sum_{j=0}^{k} pte^j ptm^{k-j} = ptm h_{k-1} + pte^k, h_{-1} = 0."""
    pe, pm, h, h_prev, k = pte, ptm, 1.0, 0.0, 0
    while True:
        if k >= s:
            yield pe, pm, h, h_prev
        h_prev, h = h, ptm * h + pe
        pe, pm, k = pe * pte, pm * ptm, k + 1


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


# Coefficients with a 1/t pole; the table holds them times t, which
# cancels the pole before the integration.
_TIMES_T = ("script_a", "script_b", "script_c_te", "script_c_tm", "script_d_te",
            "script_d_tm", "c_v", "d_vv", "d_v", "y2_te", "y2_tm")


def _horner(p, sig):
    """The sig polynomial p, its coefficients of (sig^3, sig^2, sig, 1, 1/sig)."""
    return ((p[0] * sig + p[1]) * sig + p[2]) * sig + p[3] + p[4] / sig


def _lin(*pairs):
    """sum_k x_k P_k over (sig polynomial P_k, factor x_k) pairs; scalar zeros are skipped."""
    return tuple(sum(p[i] * x for p, x in pairs if (np.ndim(p[i]) or p[i]) and (np.ndim(x) or x))
                 for i in range(5))


def _pol_entries(c, t, tau, ws, wp, pol):
    """Add one polarisation's k1, k2 (plane) and w1, w2, t y2 (sphere) to c;
    return the pairs whose _lin is C_pol (the first two) and D_pol (the rest).
    PC sides: k1, k2 or w1, w2 the scalar 0.0, t y2 of tau alone."""
    t2 = tau ** 2
    k1 = k2 = w1 = w2 = 0.0
    y2 = 0.25 + 7.0 * t2 / 12.0 if pol == "tm" else 0.25 - 5.0 * t2 / 12.0
    if wp != PERFECT_CONDUCTOR and pol == "te":
        k1 = -t * tau / (wp + t)
        k2 = -t * (wp + t * (1.0 - 2.0 * t2)) / (2.0 * (wp + t) ** 2)
    elif wp != PERFECT_CONDUCTOR:
        k1 = t * (1.0 - t2) / (wp + t * (1.0 - t2))
        k2 = (t * (1.0 - t2) * (wp * (1.0 - 2.0 * t2) + t * (1.0 - t2))
              / (2.0 * (wp + t * (1.0 - t2)) ** 2))
    if ws != PERFECT_CONDUCTOR and pol == "te":
        w1 = -tau / (ws + t)
        w2 = -(t * (1.0 - 3.0 * t2) + ws * (1.0 - t2)) / (2.0 * t * (ws + t) ** 2)
    elif ws != PERFECT_CONDUCTOR:
        w1 = tau * (1.0 - t2) / (ws + t * (1.0 - t2))
        w2 = ((1.0 - t2) * (t * (1.0 - t2) ** 2 + ws * (1.0 - 3.0 * t2))
              / (2.0 * t * (ws + t * (1.0 - t2)) ** 2))
    y2 = y2 + 0.5 * t * w1 if ws != PERFECT_CONDUCTOR else y2
    c.update({f"k1_{pol}": k1, f"k2_{pol}": k2, f"w1_{pol}": w1, f"w2_{pol}": w2, f"y2_{pol}": y2})
    tw1 = t * w1
    return [(c["c_v"], k1), (c["c_j"], tw1), (c["d_vv"], k1 * k1), (c["d_vj"], tw1 * k1),
            (c["d_jj"], tw1 * w1), (c["d_v"], k2), (c["d_j"], t * w2),
            ((0.0, 0.0, 1.0, 0.0, 0.0), y2)]


def _ntl_table(t, tau, ws, wp, pols=("te", "tm")):
    """Every coefficient of the E1 braces on a (t, tau) grid, for every s:
    NtlCoefficients field name -> value, those in _TIMES_T times t, the
    polarisation entries of pols only.  An entry that depends on s is a sig
    polynomial (_horner); script_b is the pair (b1, b2) of B = b1 h_s +
    b2 h_{s-1} (h from _running_products)."""
    t2 = tau ** 2
    c = {"t0_te": _t0(t, tau, ws, False), "t0_tm": _t0(t, tau, ws, True),
         "t0t_te": _t0(t, tau, wp, False), "t0t_tm": _t0(t, tau, wp, True)}
    a3, cv3, g = t * t * t2 / 3.0, -(tau / 3.0) * t, 1.0 / (6.0 * tau)
    c["script_a"] = (a3, t * (t2 - 2.0) / 3.0,
                     2.0 * a3 - t * tau + (t2 ** 2 + t2 - 12.0) / (12.0 * t2),
                     t * (2.0 * t2 - 1.0) / 3.0 + (1.0 + tau) * (1.0 - t2) / (2.0 * t2),
                     -(1.0 - t2) / 3.0)
    c["c_v"] = (cv3, (1.0 - t2) * g, 2.0 * cv3 + 0.5, (0.5 - 2.0 * t2) * g, 0.0)
    c["c_j"] = (cv3, g, -cv3, -g, 0.0)
    c["d_vv"] = (1.0 / 12.0, -1.0 / 6.0, 1.0 / 6.0, -1.0 / 12.0, 0.0)
    c["d_jj"] = (t / 12.0, -t / 6.0, -t / 12.0, t / 6.0, 0.0)
    c["d_vj"] = (1.0 / 6.0, 0.0, -1.0 / 6.0, 0.0, 0.0)
    c["d_v"] = (0.0, 1.0 / 3.0, 0.0, 1.0 / 6.0, 0.0)
    c["d_j"] = (0.0, t / 3.0, 0.0, -t / 3.0, 0.0)
    b = (1.0 - t2) / (2.0 * t2)
    c["script_b"] = (b * (c["t0_te"] * c["t0t_tm"] + c["t0_tm"] * c["t0t_te"]),
                     2.0 * b * (c["t0_te"] * c["t0t_te"]) * (c["t0_tm"] * c["t0t_tm"]))
    for pol in pols:
        pairs = _pol_entries(c, t, tau, ws, wp, pol)
        c[f"script_c_{pol}"], c[f"script_d_{pol}"] = _lin(*pairs[:2]), _lin(*pairs[2:])
    return c


def _check_s(s) -> int:
    """s as an int; ValueError unless it is one >= 0, where the sig polynomials hold."""
    if not hasattr(s, "__index__") or operator.index(s) < 0:
        raise ValueError(f"s must be an integer >= 0, got {s!r}")
    return operator.index(s)


def ntl_coefficients(s: int, t: float, tau: float, varpi_s, varpi_p) -> NtlCoefficients:
    """Scalar view of the coefficient set at (s, t, tau, w_s, w_p)."""
    s = _check_s(s)
    if not (t > 0.0) or not (0.0 < tau < 1.0):
        raise ValueError("need t > 0 and tau in (0, 1)")
    c = _ntl_table(t, tau, varpi_s, varpi_p)
    pte, ptm = c["t0_te"] * c["t0t_te"], c["t0_tm"] * c["t0t_tm"]
    _, _, h, h_prev = next(_running_products(pte, ptm, s))
    c["script_b"] = c["script_b"][0] * h + c["script_b"][1] * h_prev
    return NtlCoefficients(**{k: float((_horner(v, s + 1.0) if isinstance(v, tuple) else v)
                                       / (t if k in _TIMES_T else 1.0)) for k, v in c.items()})


def ntl_integrand(s: int, t, tau, varpi_s, varpi_p):
    """e^{-2t(s+1)} { sum_pol [T0 T0t]^{s+1} (A + C + D) + B }; scalar or arrays."""
    s, scalar = _check_s(s), np.ndim(t) == 0 and np.ndim(tau) == 0
    t, tau = np.atleast_1d(np.asarray(t, dtype=float), np.asarray(tau, dtype=float))
    val = np.exp(-2.0 * t * (s + 1)) * _braces_times_t(s, t, tau, varpi_s, varpi_p) / t
    return float(val[0]) if scalar else val


def _e1_braces(t, tau, ws, wp, s=0):
    """Yield t times the E1 braces at s, s + 1, ... on one (t, tau) grid: the
    table holds A + C_pol + D_pol as one sig polynomial per polarisation
    (each built on a copy of c, whose entries go before the next), and each
    s costs a Horner evaluation per polarisation and one running step."""
    c = _ntl_table(t, tau, ws, wp, pols=())
    acd_te, acd_tm = (_lin((c["script_a"], 1.0), *_pol_entries(dict(c), t, tau, ws, wp, pol))
                      for pol in ("te", "tm"))
    (b1, b2), pte, ptm = c["script_b"], c["t0_te"] * c["t0t_te"], c["t0_tm"] * c["t0t_tm"]
    del c
    for sig, (pe, pm, h, h_prev) in enumerate(_running_products(pte, ptm, s), s + 1):
        yield pe * _horner(acd_te, sig) + pm * _horner(acd_tm, sig) + b1 * h + b2 * h_prev


def _braces_times_t(s, t, tau, ws, wp):
    """t * braces of the E1 integrand at one s, vectorized, 1/t poles cancelled."""
    return next(_e1_braces(t, tau, ws, wp, s))


_FIT_TERMS = 5


# B_2j/(2j)! for j = 1 .. 8, the Euler-Maclaurin corrections of _power_tail
_EM_BERNOULLI = (8.333333333333333e-02, -1.388888888888889e-03, 3.306878306878307e-05,
                 -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
                 1.3382536530684679e-11, -3.3896802963225827e-13)
_EM_DIRECT = 9


def _power_tail(powers, s0):
    """Hurwitz zeta(p, s0) = sum_{k >= 0} (s0 + k)^(-p) for an array of
    powers p >= 2 and s0 >= 1, by Euler-Maclaurin: _EM_DIRECT terms
    summed directly, then from a = s0 + _EM_DIRECT on

        a^(1-p)/(p-1) + a^(-p)/2 + sum_j B_2j/(2j)! p (p+1) .. (p+2j-2) a^(-p-2j+1),

    whose eight corrections leave less than 1e-17 relative for p <= 6."""
    p = np.asarray(powers, dtype=float)
    direct = ((s0 + np.arange(_EM_DIRECT)) ** -p[:, None]).sum(axis=1)
    a = s0 + _EM_DIRECT
    # p (p+1) .. (p+2j-2) / a^(2j-1) for j = 1 .. 8
    rising = np.cumprod((p[:, None] + np.arange(2 * len(_EM_BERNOULLI) - 1)) / a, axis=1)
    return direct + a ** -p * (a / (p - 1.0) + 0.5 + rising[:, ::2] @ _EM_BERNOULLI)


def _fitted_tail(last_terms, s_last, p0):
    """Sum over s > s_last of the fit of the terms at s_last - k + 1 .. s_last
    (k of them) to (s+1)^(-p0) .. (s+1)^(-p0-k+1)."""
    sig = np.arange(s_last - len(last_terms) + 2, s_last + 2, dtype=float)
    powers = np.arange(p0, p0 + len(last_terms), dtype=float)
    # columns scaled to 1 at the last node keep the solve well conditioned
    coef = np.linalg.solve((sig[-1] / sig[:, None]) ** powers, last_terms)
    return float(coef @ (sig[-1] ** powers * _power_tail(powers, s_last + 2.0)))


def _tail_corrected_sum(term, p0, rel_tol, what, floor=0.0):
    """Sum term(s) over s >= 0, stopping once the tail-corrected sum settles.

    term(s) must decay like (s+1)^(-p0) with corrections at the next powers.
    From s = _FIT_TERMS - 1 on, each new term refits the tail (see
    _fitted_tail) and adds it to the partial sum.  The sum stops at the first
    s where two successive tail-corrected totals agree to rel_tol/10 and the
    tail is at most 5% of the total, both measured against the larger of the
    total and floor, and raises NumericsError if that has not happened by
    s = _S_MAX.  Returns the last total and its difference from the one
    before, the series error.
    """
    terms = []
    total = prev = 0.0
    for s in range(_S_MAX + 1):
        terms.append(term(s))
        total += terms[-1]
        if s < _FIT_TERMS - 1:
            continue
        if abs(terms[-1]) < 1e3 * np.finfo(float).tiny:
            return float(total), 0.0
        tail = _fitted_tail(terms[-_FIT_TERMS:], s, p0)
        est = total + tail
        diff = abs(est - prev)
        scale = max(abs(est), floor)
        if s >= _FIT_TERMS and diff <= 0.1 * rel_tol * scale and abs(tail) <= 0.05 * scale:
            return float(est), float(diff)
        prev = est
    raise NumericsError(f"{what}: s-sum not settled in {_S_MAX + 1} terms: last change "
                        f"{diff:.1e}, tail {tail:.1e}, sum {est:.6e}", error_estimate=diff)


def _e1_terms(varpi_s, varpi_p):
    """term(s) of the E1 series, called for s = 0, 1, 2, ... in turn, all on
    one (t, tau) grid (module docstring): each tau rule _pick_nodes probes
    builds one table (_e1_braces), and the accepted rule's runs on."""
    t, wt = _log_t_nodes(1.0, min(varpi_s, varpi_p), _E1_STEP)
    runs = {}

    def first(n):
        runs.pop(n // 4, None)  # the probe compares each rule with the one before only
        tau, wtau = tau_rule(n)
        runs[n] = (float((wt * np.exp(-2.0 * sig * t)) @ g @ wtau) / sig ** 2 for sig, g
                   in enumerate(_e1_braces(t[:, None], tau[None, :], varpi_s, varpi_p), 1))
        return next(runs[n])

    n, value = _pick_nodes(first, "E1")
    rest = runs[n]
    return lambda s: value if s == 0 else next(rest)


def small_gap_expansion(radius_R: float, gap_d: float, varpi_s, varpi_p) -> tuple:
    """(E0, E1, theta) from one PFA integral and one E1 series.

    E0 and E1 in units hbar c = 1 (dimension 1/length).  E0 is the PFA and
    equals ``pfa_energy`` with the same arguments bit for bit; E1 is
    accurate to _SERIES_TOL (1e-10) of the larger of |E1| and |E0| d/R,
    where E1 crosses zero.  theta is None when a sheet is transparent.
    Raises NumericsError where a prefactor leaves the double range.
    """
    if check_sheets(varpi_s, varpi_p, radius_R=radius_R, gap_d=gap_d):
        return 0.0, 0.0, None
    pref0 = _pfa_prefactor(radius_R, gap_d)  # in range, so is E1's -1/(4 pi d)
    q0 = _polylog_integral(varpi_s, varpi_p, 2)
    term = _e1_terms(varpi_s, varpi_p)
    q1, _ = _tail_corrected_sum(term, 2, _SERIES_TOL, "E1", abs(q0))
    return pref0 * q0, -1.0 / (4.0 * math.pi * gap_d) * q1, q1 / q0


def theta(varpi_s, varpi_p) -> float:
    """Correction ratio theta = (E1/E0) (R/d) of the sheets w = Omega d, to
    _SERIES_TOL times max(|theta|, 1).

    R and d enter only through w, so any pair serves.  PC-PC: 1/3 - 20/pi^2.
    """
    value = small_gap_expansion(1.0, 1.0, varpi_s, varpi_p)[2]
    if value is None:
        raise ValueError("theta undefined for a transparent sheet (E0 = 0)")
    return value
