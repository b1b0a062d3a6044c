"""Proximity force approximation from the plane-plane Lifshitz formula.

Both operations reduce to dimensionless double integrals in (t, tau) with
reflection products

    r_TE(i) = w_i/(w_i + t),   r_TM(i) = -w_i/(w_i + t (1 - tau^2)),

where w_i = Omega_i d.  Both are integrated on the rule of the small-gap
series E1 (``_quadrature``): a trapezoid on ln t (sig = 1), which stays
accurate however close the reflection poles t = -w_i come to the origin,
times a tau rule whose node count a doubling probe settles.  Where the
probe cannot settle (below about w = 2e-7, as for E1) it raises
NumericsError.  The PFA energy is the small-gap E0, which ``asymptotics``
takes from here, with _t0, the one reflection factor of both modules.

Both take the paper's variables in the order (R, d, w_1, w_2), the
plane-plane energy without R.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NumericsError
from .scattering import PERFECT_CONDUCTOR, check_sheets
from .specfun import dilog
from ._quadrature import _log_t_nodes, _pick_nodes, tau_rule


def _t0(t, tau, w, tm: bool):
    """|r| of one sheet at (t, tau), the TM sign cancelling in every product:
    1.0 for PC, and TE shaped like t, so TE terms cost one value per t node."""
    if w == PERFECT_CONDUCTOR:
        return 1.0
    arg = t * (1.0 - tau ** 2) if tm else t
    return w / (w + arg)


def _in_range(formula, what, **lengths) -> float:
    """formula(), a closed form in the lengths; NumericsError where it is
    not a normal double (Python raises ZeroDivisionError or OverflowError
    for some of those, numpy scalars warn)."""
    try:
        with np.errstate(all="ignore"):
            value = formula()
    except (ZeroDivisionError, OverflowError):
        value = 0.0
    if not sys.float_info.min <= abs(value) < math.inf:
        raise NumericsError(f"{what} at {lengths} is outside the double range",
                            error_estimate=math.inf)
    return value


def _pfa_prefactor(radius_R, gap_d) -> float:
    """-R/(4 pi d^2), the factor of the PFA integral in the PFA energy and E0."""
    d2 = _in_range(lambda: gap_d ** 2, "d^2", gap_d=gap_d)
    return _in_range(lambda: -radius_R / (4.0 * math.pi * d2), "-R/(4 pi d^2)",
                     radius_R=radius_R, gap_d=gap_d)


def _polylog(p: int, z):
    """Li_1(z) = -ln(1 - z) or Li_2(z)."""
    if p == 1:
        with np.errstate(divide="ignore"):  # z = 1: inf, which the tau probe rejects
            return -np.log1p(-z)
    return dilog(z)


def _polylog_integral(w1, w2, p: int) -> float:
    """int_0^inf dt t^(3-p) int_0^1 dtau tau/sqrt(1-tau^2) sum_pol Li_p(r r e^{-2t}).

    p = 1 gives the plane-plane energy, p = 2 the PFA energy.  Li_p of both
    polarisations comes from one call per tau rule, the TE arguments (and
    both for PC-PC) at one value per t node.
    """
    t, wt = _log_t_nodes(1.0, min(w1, w2))
    tt = t[:, None]
    wt = wt * t ** (3 - p)
    decay = np.exp(-2.0 * tt)

    def at(n):
        tau, wtau = tau_rule(n)
        z = [_t0(tt, tau, w1, tm) * _t0(tt, tau, w2, tm) * decay for tm in (False, True)]
        li = _polylog(p, np.concatenate([zi.ravel() for zi in z]))
        te, tm = np.split(li, [z[0].size])
        acc = np.zeros((t.size, n))
        acc += te.reshape(z[0].shape)
        acc += tm.reshape(z[1].shape)
        return float(wt @ acc @ wtau)

    return _pick_nodes(at, "PFA" if p == 2 else "plane-plane")[1]


def lifshitz_plane_plane(gap_d: float, varpi_1, varpi_2) -> float:
    """Casimir energy per unit area between two planar plasma sheets.

    Units hbar c = 1, so the return value has dimension 1/length^3 and is
    negative; multiply by hbar c for SI.  PC-PC gives -pi^2/(720 d^3).
    Raises NumericsError where d^3 or the energy is not a normal double.
    """
    if check_sheets(varpi_1, varpi_2, gap_d=gap_d):
        return 0.0
    d3 = _in_range(lambda: gap_d ** 3, "d^3", gap_d=gap_d)
    q = _polylog_integral(varpi_1, varpi_2, 1)
    return _in_range(lambda: -q / (4.0 * math.pi ** 2 * d3), "plane-plane energy", gap_d=gap_d)


def pfa_energy(radius_R: float, gap_d: float, varpi_1, varpi_2) -> float:
    """PFA sphere-plane energy, units hbar c = 1 (dimension 1/length).

    -(R / 4 pi d^2) int dt t int dtau tau/sqrt(1-tau^2)
        [Li2(r_TE r_TE e^{-2t}) + Li2(r_TM r_TM e^{-2t})]

    PC-PC gives -pi^3 R/(720 d^2).  Raises NumericsError where d^2 or
    -R/(4 pi d^2) is not a normal double.
    """
    if check_sheets(varpi_1, varpi_2, radius_R=radius_R, gap_d=gap_d):
        return 0.0
    pref = _pfa_prefactor(radius_R, gap_d)
    return pref * _polylog_integral(varpi_1, varpi_2, 2)
