"""Proximity force approximation from the plane-plane Lifshitz formula.

Both operations reduce to dimensionless double integrals in (t, tau) with
reflection products

    r_TE(i) = w_i/(w_i + t),   r_TM(i) = -w_i/(w_i + t (1 - tau^2)),

where w_i = Omega_i d.  The t integrand has a weak t^2 ln t endpoint
singularity wherever the reflection product reaches 1 at t = 0, so the
semi-axis is split: t = y^2 Gauss-Legendre on [0, T] (which tames the
logarithm) plus a shifted Gauss-Laguerre tail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scattering import PERFECT_CONDUCTOR, check_omega, varpi
from .specfun import dilog
from ._quadrature import gauss_laguerre, gauss_legendre_01, tau_rule

_T_SPLIT = 4.0
_N_HEAD = 64
_N_TAIL = 48
_N_TAU = 64


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
    if np.any(z > 1.0) or np.any(z < -1.0):
        raise AssertionError("dilog argument left [-1, 1]; |r r| <= 1 violated")
    return dilog(z)


def _polylog_integral(w1, w2, p: int) -> float:
    """int_0^inf dt t^(3-p) int_0^1 dtau tau/sqrt(1-tau^2) sum_pol Li_p(r r e^{-2t}).

    p = 1 gives the plane-plane energy, p = 2 the PFA energy.  On the tail
    t = T + x/2 the argument b e^{-x}, b = r r e^{-2T}, is tiny, so the
    integrand times e^{x} is summed from the first terms of
    Li_p(z) = sum_k z^k / k^p instead of forming e^{x}.
    """
    tau, wtau = tau_rule(_N_TAU)

    def pol_sum(t, li_of):
        tt = t[:, None]
        acc = np.zeros_like(tt * tau[None, :])
        for tm in (False, True):
            acc += li_of(_r_product(tt, tau[None, :], w1, w2, tm), tt)
        return tt[:, 0] ** (3 - p) * (acc @ wtau)

    y, wy = gauss_legendre_01(_N_HEAD)
    y = y * math.sqrt(_T_SPLIT)
    wy = wy * math.sqrt(_T_SPLIT)
    head = np.sum(wy * 2.0 * y * pol_sum(y * y, lambda r, tt: _polylog(p, r * np.exp(-2.0 * tt))))

    x, wx = gauss_laguerre(_N_TAIL)
    e_x = np.exp(-x)[:, None]

    def tail_series(r, tt):
        b = r * math.exp(-2.0 * _T_SPLIT)
        w = b * e_x
        return b * (1.0 + w / 2 ** p + w ** 2 / 3 ** p + w ** 3 / 4 ** p)

    tail = 0.5 * np.sum(wx * pol_sum(_T_SPLIT + 0.5 * x, tail_series))
    return head + tail


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
