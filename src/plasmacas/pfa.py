"""Proximity force approximation from the plane-plane Lifshitz formula.

Both operations reduce to dimensionless double integrals in (t, tau) with
reflection products

    r_TE(i) = w_i/(w_i + t),   r_TM(i) = -w_i/(w_i + t (1 - tau^2)),

where w_i = Omega_i d.  Both are integrated on the rule of the small-gap
series E0 and E1 (``_quadrature``): a trapezoid on ln t (sig = 1), which
stays accurate however close the reflection poles t = -w_i come to the
origin, times a tau rule whose node count a doubling probe settles.  Where
the probe cannot settle (below about w = 2e-7, as for E0 and E1) it raises
NumericsError.  The integrand, with the polylogarithm in closed form, is
this module's own; E0 integrates the same energy term by term in s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scattering import PERFECT_CONDUCTOR, check_omega, varpi
from .specfun import dilog
from ._quadrature import _log_t_nodes, _pick_nodes, tau_rule


@dataclass(frozen=True)
class PfaParams:
    """Dimensionless plasma parameters (Omega_i d) and the geometry."""

    varpi_1: float
    varpi_2: float
    radius_R: float
    gap_d: float

    def __post_init__(self):
        check_omega(self.varpi_1, "varpi_1")
        check_omega(self.varpi_2, "varpi_2")
        if not (self.radius_R > 0.0 and self.gap_d > 0.0):
            raise ValueError("radius_R and gap_d must be positive")


def _r_product(t, tau, w1, w2, tm: bool):
    """Product of the two reflection coefficients; TM signs cancel."""
    arg = t * (1.0 - tau ** 2) if tm else t
    f1 = 1.0 if w1 == PERFECT_CONDUCTOR else w1 / (w1 + arg)
    f2 = 1.0 if w2 == PERFECT_CONDUCTOR else w2 / (w2 + arg)
    return f1 * f2


def _polylog(p: int, z):
    """Li_1(z) = -ln(1 - z) or Li_2(z)."""
    if p == 1:
        return -np.log1p(-z)
    return dilog(z)


def _polylog_integral(w1, w2, p: int) -> float:
    """int_0^inf dt t^(3-p) int_0^1 dtau tau/sqrt(1-tau^2) sum_pol Li_p(r r e^{-2t}).

    p = 1 gives the plane-plane energy, p = 2 the PFA energy.
    """
    t, wt = _log_t_nodes(1.0, min(w1, w2))
    tt = t[:, None]
    wt = wt * t ** (3 - p)

    def at(n):
        tau, wtau = tau_rule(n)
        acc = np.zeros((t.size, n))
        for tm in (False, True):
            acc += _polylog(p, _r_product(tt, tau[None, :], w1, w2, tm) * np.exp(-2.0 * tt))
        return float(wt @ acc @ wtau)

    return _pick_nodes(at, "PFA" if p == 2 else "plane-plane")[1]


def lifshitz_plane_plane(d: float, omega_1: float, omega_2: float) -> float:
    """Casimir energy per unit area between two planar plasma sheets.

    Units hbar c = 1, so the return value has dimension 1/length^3 and is
    negative; multiply by hbar c for SI.  PC-PC gives -pi^2/(720 d^3).
    """
    if not (d > 0.0):
        raise ValueError(f"separation must be positive, got {d}")
    check_omega(omega_1, "omega_1")
    check_omega(omega_2, "omega_2")
    if omega_1 == 0.0 or omega_2 == 0.0:
        return 0.0
    q = _polylog_integral(varpi(omega_1, d), varpi(omega_2, d), 1)
    return -q / (4.0 * math.pi ** 2 * d ** 3)


def pfa_energy(params: PfaParams) -> float:
    """PFA sphere-plane energy, units hbar c = 1 (dimension 1/length).

    -(R / 4 pi d^2) int dt t int dtau tau/sqrt(1-tau^2)
        [Li2(r_TE r_TE e^{-2t}) + Li2(r_TM r_TM e^{-2t})]

    PC-PC gives -pi^3 R/(720 d^2).
    """
    w1, w2 = params.varpi_1, params.varpi_2
    if w1 == 0.0 or w2 == 0.0:
        return 0.0
    q = _polylog_integral(w1, w2, 2)
    return -params.radius_R / (4.0 * math.pi * params.gap_d ** 2) * q
