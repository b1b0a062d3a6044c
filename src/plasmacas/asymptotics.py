"""Small-separation expansion of the sphere-plane interaction.

Leading term E0, next-to-leading term E1 with the full coefficient set, and
the correction ratio theta = (E1/E0)(R/d).  E0 is the PFA: its integral q0
and its prefactor -R/(4 pi d^2) come from ``pfa``, so E0 and
``pfa_energy`` are one number.

E1 is a sum over s; its s-th term, in the variables (t, tau), is

    E1_s ~ int dt t int dtau (tau measure) e^{-2t(s+1)}
               { sum_pol [T0 T0t]_pol^{s+1} (A + C_pol + D_pol) + B }

A perfect-conductor (PC) side enters as its w -> oo limit: T0 = 1, and
k1 = k2 = 0 (plane) or w1 = w2 = 0 and a t y2 of tau alone (sphere).  All
1/t poles are cancelled analytically by folding one power of t into the
integrand.  Only powers of sig = s + 1 and [T0 T0t]^{s+1} depend on s:
A + C_pol + D_pol is a polynomial in sig and 1/sig, and B's divided
differences are homogeneous power sums, free of the a -> b cancellation.
C_pol + D_pol is one constant (5 x 12) matrix, _ACD, times twelve basis
rows of the sheet entries k1, k2, w1, w2 and t y2 (_basis_rows); with A and
B (_e1_table) that is the table of the braces, and the scalar view
``ntl_coefficients`` reads its sheet coefficients off the same matrix.

A row builds the table once per probed tau rule and weights it by the
grid's weights once (_e1_grid_terms).  TE, whose [T0 T0t] depends on t
alone, is then summed over tau before the first term.  A term sums two
grids over tau, the TM polynomial at sig and B's coefficients, each times
[T0 T0t]_TM^sig, carries B's sums from one s to the next at each t, and
adds the parts at each t before the sum over t, where the polynomial part
and B, which cancel in good part, round off as in a sum point by point.
The s = 0 term comes before the TM polynomial and B are weighted for the
loop, so a tau rule the probe drops after its s = 0 term pays for its
table and TE's sum over tau alone.

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
the powers p0 .. p0+4 of 1/(s+1) (p0 = 2), and the fitted tail, those
powers summed to round-off by Euler-Maclaurin, is the dot of the five
terms with weights solved once per s (_quadrature.tail_weights).  The sum
stops once two successive tail-corrected totals agree to _SERIES_TOL/10
and the tail is at most 5% of the total.  The tolerance is fixed at 1e-10:
the fit amplifies the round-off of the terms, so below about 1e-11 the
sums stop settling.  Over the ten graphene gaps of the benchmark (w =
0.095 .. 58) equal sheets take 14-22 terms, sheets of 10 and 100 times
graphene's Omega 14-18 and 14-15, PC on both sheets 15, a PC sphere before
a graphene plane 14-32 and a graphene sphere before a PC plane 14-30.  The
E1 sum changes sign between w = 1e-4 and 2e-4 for equal sheets, so it is
judged against the larger of itself and q0: theta = q1/q0 then settles to
_SERIES_TOL/10 times max(|theta|, 1); q0 itself is good to about 4e-12.
_S_MAX bounds the sum; a sum that has not settled there raises
NumericsError.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .pfa import _pfa_prefactor, _polylog_integral, _t0
from .scattering import PERFECT_CONDUCTOR, check_sheets
from ._quadrature import _log_t_nodes, _pick_nodes, tail_weights, tau_rule

_S_MAX = 200
# The E1 series' relative tolerance.  Not lower: the tail fit amplifies the
# round-off of the terms, so below 1e-11 the sums stop settling (w = 1e-4
# and 0.01 fail at 3e-12).
_SERIES_TOL = 1e-10
_E1_STEP = 0.8  # the E1 grid's log-t step, in units of _LOG_TRAP_H

# A row builds an E1 table per probed tau rule, whose basis rows and
# polynomials are (t, tau) grids of 0.1-0.5 MB, and one grid and a few t
# arrays per s-term: a traced peak of 1.8 MB at w = 0.095, on a 115 x 48
# grid.  glibc hands its heap top back to the system once more than its trim
# threshold (128 KiB at start) lies free there, to be faulted in again by
# the next table or exact-path m.  Without this block a benchmark pass (seed
# 1, in-process, median of 15) takes 3184 minor faults on asympt-sweep and
# 525 on exact-wide, against 0 and 1 with it; asympt-sweep passes took
# 0.054-0.060 s without it and 0.037-0.050 s with it (three runs each).
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

# C_pol + D_pol, times t, is _ACD / 12 times the polarisation's basis rows
# (_basis_rows): row j is the sheet entry of its coefficient times the
# (t, tau) factor of column j (_column_factors), and column j holds the
# (sig^3, sig^2, sig, 1, 1/sig) coefficients of row j, in twelfths, so that
# most products with them are exact.  The columns of one sheet coefficient,
# times their factors, are that coefficient: c_v = _ACD[:, :4] @ (tau t,
# 1/tau, tau, 1) / 12, and so on.
_ACD = (
    # k1 tau t, k1/tau, k1 tau, k1, t w1 tau t, t w1/tau, k1^2, t w1 k1, t t w1 w1, k2, t t w2, t y2
    (-4, 0, 0, 0, -4, 0, 1, 2, 1, 0, 0, 0),
    (0, 2, -2, 0, 0, 2, -2, 0, -2, 4, 4, 0),
    (-8, 0, 0, 6, 4, 0, 2, -2, -1, 0, 0, 12),
    (0, 1, -4, 0, 0, -2, -1, 0, 2, 2, -4, 0),
    (0,) * 12)
_C_COLUMNS = 6  # those of c_v and c_j, which make C_pol; the rest make D_pol


def _column_factors(t, tau):
    """The (t, tau) factor of each column of _ACD, grouped by the sheet
    coefficient the columns make up; sig multiplies t y2 in D_pol."""
    tau_t, inv_tau = tau * t, 1.0 / tau
    return {"c_v": (tau_t, inv_tau, tau, 1.0), "c_j": (tau_t, inv_tau),
            "d_vv": (1.0,), "d_vj": (1.0,), "d_jj": (t,), "d_v": (1.0,), "d_j": (t,),
            "sig": (1.0,)}


def _horner(p, sig):
    """The sig polynomial p, its coefficients of (sig^3, sig^2, sig, 1, 1/sig)."""
    return ((p[0] * sig + p[1]) * sig + p[2]) * sig + p[3] + p[4] / sig


def _pol_entries(t, tau, ws, wp, pol):
    """One polarisation's k1, k2 (plane), w1, w2 and t y2 (sphere).  PC
    sides: k1, k2 or w1, w2 the scalar 0.0, t y2 of tau alone."""
    t2 = tau ** 2
    k1 = k2 = w1 = w2 = 0.0
    y2 = 0.25 + 7.0 * t2 / 12.0 if pol == "tm" else 0.25 - 5.0 * t2 / 12.0
    u = t * (1.0 - t2) if pol == "tm" else t  # the argument of the TM reflections
    if wp != PERFECT_CONDUCTOR and pol == "te":
        k1 = -t * tau / (wp + t)
        k2 = -t * (wp + t * (1.0 - 2.0 * t2)) / (2.0 * (wp + t) ** 2)
    elif wp != PERFECT_CONDUCTOR:
        den = wp + u
        k1 = u / den
        k2 = u * (wp * (1.0 - 2.0 * t2) + u) / (2.0 * den ** 2)
    if ws != PERFECT_CONDUCTOR and pol == "te":
        w1 = -tau / (ws + t)
        w2 = -(t * (1.0 - 3.0 * t2) + ws * (1.0 - t2)) / (2.0 * t * (ws + t) ** 2)
    elif ws != PERFECT_CONDUCTOR:
        den = ws + u
        w1 = tau * (1.0 - t2) / den
        w2 = (1.0 - t2) * (u * (1.0 - t2) + ws * (1.0 - 3.0 * t2)) / (2.0 * t * den ** 2)
    y2 = y2 + 0.5 * t * w1 if ws != PERFECT_CONDUCTOR else y2
    return k1, k2, w1, w2, y2


def _basis_rows(t, tau, k1, k2, w1, w2, y2):
    """The (12, ...) stack of basis rows that _ACD turns into C_pol + D_pol."""
    tw1 = t * w1
    entries = (k1, tw1, k1 * k1, tw1 * k1, tw1 * w1, k2, t * w2, y2)
    rows = np.empty((len(_ACD[0]),) + np.broadcast(t, tau).shape)
    j = 0
    for entry, factors in zip(entries, _column_factors(t, tau).values()):
        for f in factors:
            np.multiply(entry, f, out=rows[j, ...])
            j += 1
    return rows


def _e1_table(t, tau, ws, wp):
    """The part of the E1 braces every polarisation shares, on a (t, tau)
    grid, for every s: the factors t0_te, t0_tm, t0t_te and t0t_tm, A times
    t as script_a, its (5, ...) sig polynomial (_horner), and script_b, the
    pair (b1, b2) of B = b1 h_s + b2 h_{s-1} (h from _running_products)."""
    t2 = tau ** 2
    c = {"t0_te": _t0(t, tau, ws, False), "t0_tm": _t0(t, tau, ws, True)}
    c["t0t_te"], c["t0t_tm"] = ((c["t0_te"], c["t0_tm"]) if wp == ws else
                                (_t0(t, tau, wp, False), _t0(t, tau, wp, True)))
    a = np.empty((5,) + np.broadcast(t, tau).shape)
    np.multiply(t * t, t2 / 3.0, out=a[0, ...])
    np.multiply(t, (t2 - 2.0) / 3.0, out=a[1, ...])
    np.subtract(2.0 * a[0], t * tau, out=a[2, ...])
    a[2] += (t2 ** 2 + t2 - 12.0) / (12.0 * t2)
    np.multiply(t, (2.0 * t2 - 1.0) / 3.0, out=a[3, ...])
    a[3] += (1.0 + tau) * (1.0 - t2) / (2.0 * t2)
    a[4] = -(1.0 - t2) / 3.0
    c["script_a"] = a
    b = (1.0 - t2) / (2.0 * t2)
    c["script_b"] = (b * (c["t0_te"] * c["t0t_tm"] + c["t0_tm"] * c["t0t_te"]),
                     2.0 * b * (c["t0_te"] * c["t0t_te"]) * (c["t0_tm"] * c["t0t_tm"]))
    return c


def _acd(c, t, tau, ws, wp, pol):
    """A + C_pol + D_pol times t on the grid of table c, a (5, ...) sig polynomial."""
    rows = _basis_rows(t, tau, *_pol_entries(t, tau, ws, wp, pol))
    acd = (np.array(_ACD, dtype=float) @ rows.reshape(len(rows), -1)).reshape((5,) + rows.shape[1:])
    acd /= 12.0
    acd += c["script_a"]
    return acd


def _ntl_table(t, tau, ws, wp):
    """Every coefficient of the E1 braces at one point (t, tau), for every
    s: NtlCoefficients field name -> value, those in _TIMES_T times t.  An
    entry that depends on s is a sig polynomial (_horner); script_b is the
    pair (b1, b2) of _e1_table."""
    c, mat = _e1_table(t, tau, ws, wp), np.array(_ACD, dtype=float)
    j = 0
    for name, factors in _column_factors(t, tau).items():
        c[name] = mat[:, j:j + len(factors)] @ np.array(factors) / 12.0
        j += len(factors)
    del c["sig"]
    for pol in ("te", "tm"):
        entries = _pol_entries(t, tau, ws, wp, pol)
        c.update(zip((f"{k}_{pol}" for k in ("k1", "k2", "w1", "w2", "y2")), entries))
        rows = _basis_rows(t, tau, *entries)
        c[f"script_c_{pol}"] = mat[:, :_C_COLUMNS] @ rows[:_C_COLUMNS] / 12.0
        c[f"script_d_{pol}"] = mat[:, _C_COLUMNS:] @ rows[_C_COLUMNS:] / 12.0
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
    return NtlCoefficients(**{k: float((_horner(v, s + 1.0) if np.ndim(v) else v)
                                       / (t if k in _TIMES_T else 1.0)) for k, v in c.items()})


def ntl_integrand(s: int, t, tau, varpi_s, varpi_p):
    """e^{-2t(s+1)} { sum_pol [T0 T0t]^{s+1} (A + C + D) + B }; scalar or arrays."""
    s, scalar = _check_s(s), np.ndim(t) == 0 and np.ndim(tau) == 0
    t, tau = np.atleast_1d(np.asarray(t, dtype=float), np.asarray(tau, dtype=float))
    val = np.exp(-2.0 * t * (s + 1)) * _braces_times_t(s, t, tau, varpi_s, varpi_p) / t
    return float(val[0]) if scalar else val


def _braces_times_t(s, t, tau, ws, wp):
    """t * braces of the E1 integrand at one s, vectorized, 1/t poles cancelled."""
    c = _e1_table(t, tau, ws, wp)
    pe, pm, h, h_prev = next(_running_products(c["t0_te"] * c["t0t_te"],
                                               c["t0_tm"] * c["t0t_tm"], s))
    (b1, b2), sig = c["script_b"], s + 1.0
    return (pe * _horner(_acd(c, t, tau, ws, wp, "te"), sig)
            + pm * _horner(_acd(c, t, tau, ws, wp, "tm"), sig) + b1 * h + b2 * h_prev)


def _e1_grid_terms(t, wt, tau, wtau, ws, wp):
    """Yield the E1 terms at s = 0, 1, 2, ... on the log-t nodes t (weights
    wt) times the tau rule (tau, wtau): sum wt wtau e^{-2 sig t} (braces
    times t) / sig^2, sig = s + 1.

    The weights go into the polynomials and B once, and TE, whose [T0 T0t]
    depends on t alone, contracts over tau to (5, n_t).  A term then sums
    two grids over tau, each times [T0 T0t]_TM^sig: the TM polynomial at sig
    (one product with the powers of sig) and b1 + b2/ptm.  B's sum over tau,
    D_s, follows at each t: h_s = pte h_{s-1} + ptm^s with pte of t alone
    makes D_s = pte D_{s-1} + sum (b1 + b2/ptm) ptm^s, D_0 = sum b1.  The
    polynomial part and B cancel in good part at each point, so they meet at
    each t, before the sum over t: summed over t first, they would leave the
    round-off of that cancellation, about 1e-15 of a term, which moves the
    series' stop.  The s = 0 term, where a polynomial is its coefficients
    summed, comes before the TM polynomial and B are weighted for the loop,
    so a rule the tau probe drops after its s = 0 term pays for none of
    that."""
    n_t, n_tau = t.size, tau.size
    tc = t[:, None]
    c = _e1_table(tc, tau, ws, wp)
    w = wt[:, None] * wtau
    pte = np.broadcast_to(c["t0_te"] * c["t0t_te"], tc.shape)[:, 0]
    ptm = np.broadcast_to(c["t0_tm"] * c["t0t_tm"], w.shape)
    te = np.einsum("kij,ij->ki", _acd(c, tc, tau, ws, wp, "te"), w)
    tm = _acd(c, tc, tau, ws, wp, "tm")
    b1, b2 = c["script_b"]
    del c
    d = (b1 * w) @ np.ones(n_tau)
    # s = 0 before the loop state: at sig = 1 a polynomial is its coefficients summed
    tm_sum = np.einsum("ij,ij->i", tm.sum(axis=0) * w, ptm)
    yield float(np.exp(-2.0 * t) @ (pte * te.sum(axis=0) + tm_sum + d))
    tm *= w
    tm = tm.reshape(5, -1)
    z = np.empty((2, n_t, n_tau))  # summed over tau: the TM polynomial at sig, b1 + b2/ptm
    np.multiply(b1 + b2 / ptm, w, out=z[1])
    d = pte * d + np.einsum("ij,ij->i", z[1], ptm)
    pe, pm = pte * pte, ptm * ptm
    for sig in itertools.count(2):
        powers = np.array([sig ** 3, sig ** 2, sig, 1.0, 1.0 / sig])
        np.dot(powers, tm, out=z[0].reshape(-1))
        tm_sum, b_sum = np.einsum("kij,ij->ki", z, pm)
        yield float(np.exp(-2.0 * sig * t) @ (pe * (powers @ te) + tm_sum + d)) / sig ** 2
        d = pte * d + b_sum
        pe, pm = pe * pte, pm * ptm


_FIT_TERMS = 5


def _tail_corrected_sum(term, p0, rel_tol, what, floor=0.0):
    """Sum term(s) over s >= 0, stopping once the tail-corrected sum settles.

    term(s) must decay like (s+1)^(-p0) with corrections at the next powers.
    From s = _FIT_TERMS - 1 on, each new term refits the tail (see
    _quadrature.tail_weights) and adds it to the partial sum.  The sum stops
    at the first s where two successive tail-corrected totals agree to
    rel_tol/10 and the tail is at most 5% of the total, both measured
    against the larger of the total and floor, and raises NumericsError if
    that has not happened by s = _S_MAX.  Returns the last total and its
    difference from the one before, the series error.
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
        tail = float(tail_weights(s, p0, _FIT_TERMS) @ terms[-_FIT_TERMS:])
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
    builds one table and gives its s = 0 term before any loop state
    (_e1_grid_terms), and the accepted rule's terms run on from there."""
    t, wt = _log_t_nodes(1.0, min(varpi_s, varpi_p), _E1_STEP)
    runs = {}

    def first(n):
        runs.pop(n // 4, None)  # the probe compares each rule with the one before only
        runs[n] = _e1_grid_terms(t, wt, *tau_rule(n), varpi_s, varpi_p)
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
