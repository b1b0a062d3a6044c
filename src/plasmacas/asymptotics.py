"""Small-separation expansion of the sphere-plane interaction.

Leading term E0, next-to-leading term E1 with the full coefficient set, and
the correction ratio theta = (E1/E0)(R/d).  E0 is the PFA: its integral q0
and its prefactor -R/(4 pi d^2) come from ``pfa``, so E0 and
``pfa_energy`` are one number.

E1 is a sum over s; its s-th term, in the variables (t, tau), is

    E1_s ~ int dt t int dtau (tau measure) e^{-2t(s+1)}
               { sum_pol [T0 T0t]^{s+1} (A + C_pol + D_pol) + B }

All 1/t poles of the coefficients are cancelled analytically by folding one
power of t into the integrand.  Every term, for every pair of sheets, is
then one trapezoid on ln t (_log_t_nodes) times one Gauss rule in tau sized
by a doubling probe (_pick_nodes), the rule ``pfa`` uses too.  The divided
differences in B are evaluated as explicit homogeneous power sums, which
removes the a -> b cancellation exactly.

The terms decay like (s+1)^-2.  After each term the last five are fitted to
the powers p0 .. p0+4 of 1/(s+1) (p0 = 2), and the fitted tail is summed
to round-off by Euler-Maclaurin.  The sum stops once two successive
tail-corrected totals agree to rel_tol/10 and the tail is at most 5% of the
total; PC and graphene-like sheets need 14-22 terms at the default rel_tol
1e-10.  The E1 sum changes sign between w = 1e-4 and 2e-4 for equal sheets,
so it is judged against the larger of itself and q0: theta = q1/q0 then
settles to rel_tol/10 times max(|theta|, 1); q0 itself is good to about
4e-12.  _S_MAX bounds the sum; a sum that has not settled there raises
NumericsError.  The fit amplifies the round-off of the terms, so below
rel_tol = _REL_TOL_FLOOR the sum stops settling, and such a rel_tol is
rejected up front with a ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError
from .pfa import _pfa_prefactor, _polylog_integral, _t0
from .scattering import PERFECT_CONDUCTOR, check_sheets
from ._quadrature import _log_t_nodes, _pick_nodes, tau_rule

_S_MAX = 200
_REL_TOL_FLOOR = 1e-11  # w = 1e-4 and 0.01 no longer settle at 3e-12

# Each E1 s-term allocates and frees about 20 (t, tau) arrays, half a MiB at
# w = 0.1.  glibc hands the top of its heap back to the system once more
# than its trim threshold (128 KiB at start) lies free there, so in a
# process whose heap top is free after a term that memory is faulted back
# in for the next one: 2300-2700 minor faults, about 5 ms, per row at
# w = 0.1 in the benchmark's sweep process.  Freeing a block above the mmap
# threshold raises that threshold to the block's size and the trim
# threshold to twice it (mallopt(3), M_MMAP_THRESHOLD): 2 and 4 MiB here.
# Under another allocator this is one short-lived allocation.
_block = np.empty(1 << 18)
del _block


def _hom_power_sums(a, b, n: int):
    """(h_n, h_{n-1}) for h_n = sum_{k=0}^{n} a^k b^{n-k} and n >= 0; h_{-1} = 0.

    The Horner loop for h_n passes through h_{n-1} one step before the end.
    """
    acc = np.zeros(np.broadcast(a, b).shape)
    prev, ap = acc, np.ones_like(acc)
    for _ in range(n + 1):
        prev, acc = acc, acc * b + ap
        ap = ap * a
    return acc, prev


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
    ps1, ps2 = _hom_power_sums(pte, ptm, s)
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


def _series_term_factory(varpi_s, varpi_p, g_func, what):
    """Per-s integral of (measure) e^{-2t(s+1)} g_func(s, t, tau, w_s, w_p):
    the log-t trapezoid times a tau rule sized once by _pick_nodes on the
    s = 0 term, which has the sharpest tau feature."""

    def term_at(s, n):
        sig = s + 1.0
        t, wt = _log_t_nodes(sig, min(varpi_s, varpi_p))
        tau, wtau = tau_rule(n)
        g = g_func(s, t[:, None], tau[None, :], varpi_s, varpi_p)
        return float((wt * np.exp(-2.0 * sig * t)) @ g @ wtau) / sig ** 2

    n, first = _pick_nodes(lambda n: term_at(0, n), what)
    return lambda s: first if s == 0 else term_at(s, n)


def _transparent(varpi_s, varpi_p, rel_tol, **lengths) -> bool:
    """check_sheets, after the rel_tol floor of the s-series."""
    if not _REL_TOL_FLOOR <= rel_tol < math.inf:  # also rejects nan
        raise ValueError(f"rel_tol must be finite and at least {_REL_TOL_FLOOR:g}, where "
                         f"the s-series still settle; got {rel_tol!r}")
    return check_sheets(varpi_s, varpi_p, **lengths)


def small_gap_expansion(radius_R: float, gap_d: float, varpi_s, varpi_p,
                        rel_tol: float = 1e-10) -> tuple:
    """(E0, E1, theta) from one PFA integral and one E1 series.

    E0 and E1 in units hbar c = 1 (dimension 1/length).  E0 is the PFA and
    equals ``pfa_energy`` with the same arguments bit for bit; E1 is
    accurate to rel_tol of the larger of |E1| and |E0| d/R, where E1
    crosses zero.  theta is None when a sheet is transparent.  Raises
    NumericsError where a prefactor leaves the double range.
    """
    if _transparent(varpi_s, varpi_p, rel_tol, radius_R=radius_R, gap_d=gap_d):
        return 0.0, 0.0, None
    pref0 = _pfa_prefactor(radius_R, gap_d)  # in range, so is E1's -1/(4 pi d)
    q0 = _polylog_integral(varpi_s, varpi_p, 2)
    term = _series_term_factory(varpi_s, varpi_p, _braces_times_t, "E1")
    q1, _ = _tail_corrected_sum(term, 2, rel_tol, "E1", abs(q0))
    return pref0 * q0, -1.0 / (4.0 * math.pi * gap_d) * q1, q1 / q0


def theta(varpi_s, varpi_p, rel_tol: float = 1e-10) -> float:
    """Correction ratio theta = (E1/E0) (R/d) of the sheets w = Omega d.

    R and d enter only through w, so any pair serves.  PC-PC: 1/3 - 20/pi^2.
    """
    if _transparent(varpi_s, varpi_p, rel_tol):
        raise ValueError("theta undefined for a transparent sheet (E0 = 0)")
    return small_gap_expansion(1.0, 1.0, varpi_s, varpi_p, rel_tol)[2]
