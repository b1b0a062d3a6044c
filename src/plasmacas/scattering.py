"""Scattering data of the two bodies on the imaginary frequency axis.

Sphere plasma-sheet T-matrix elements and plane plasma-sheet reflection
coefficients, including the perfect-conductor (omega -> inf) and transparent
(omega = 0) limits.  The perfect conductor is the distinguished marker
``PERFECT_CONDUCTOR`` (math.inf) so the limit formulas are used exactly
instead of a huge float.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericsError
from .specfun import bessel_ik_log

PERFECT_CONDUCTOR = math.inf


class Polarization(Enum):
    TE = "TE"
    TM = "TM"


def _is_count(v) -> bool:
    """An integer of any type, numpy's included; a bool is not a count."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def check_omega(omega, name):
    """A plasma parameter (or its dimensionless form) is >= 0 and finite, or
    the perfect-conductor marker."""
    if omega == PERFECT_CONDUCTOR:
        return
    if not (omega >= 0.0) or not math.isfinite(omega):
        raise ValueError(f"{name} must be >= 0 or the perfect-conductor marker, got {omega}")


def check_sheets(varpi_1, varpi_2, **lengths) -> bool:
    """Argument check of the PFA and small-gap layer: every named length
    (radius_R, gap_d) finite and positive, both w = Omega d as in
    check_omega.  True if a sheet is transparent (w = 0), where the
    interaction vanishes."""
    for name, value in lengths.items():
        if not 0.0 < value < math.inf:  # also rejects nan
            raise ValueError(f"{name} must be finite and positive, got {value}")
    check_omega(varpi_1, "varpi_1")
    check_omega(varpi_2, "varpi_2")
    return varpi_1 == 0.0 or varpi_2 == 0.0


def varpi(omega, length):
    """Dimensionless plasma parameter Omega * length; the PC marker stays."""
    return omega if omega == PERFECT_CONDUCTOR else omega * length


@dataclass(frozen=True)
class SphereSheet:
    """Spherical plasma sheet: radius R and plasma parameter Omega_s [1/length]."""

    radius_R: float
    omega_s: float

    def __post_init__(self):
        if not (self.radius_R > 0.0) or not math.isfinite(self.radius_R):
            raise ValueError(f"radius_R must be positive, got {self.radius_R}")
        check_omega(self.omega_s, "omega_s")

    @property
    def is_pc(self) -> bool:
        return self.omega_s == PERFECT_CONDUCTOR


@dataclass(frozen=True)
class PlaneSheet:
    """Planar plasma sheet: plasma parameter Omega_p [1/length], plane at z = L."""

    omega_p: float
    distance_L: float

    def __post_init__(self):
        if not (self.distance_L > 0.0) or not math.isfinite(self.distance_L):
            raise ValueError(f"distance_L must be positive, got {self.distance_L}")
        check_omega(self.omega_p, "omega_p")

    @property
    def is_pc(self) -> bool:
        return self.omega_p == PERFECT_CONDUCTOR


def sphere_t_logs(l_max: int, kappa, sphere: SphereSheet):
    """Log-magnitudes of the scaled sphere T-matrix elements for l = 1 .. l_max.

    The true elements are

        T_l^TE = +exp(log_te[l-1] + 2 kappa R),
        T_l^TM = -exp(log_tm_abs[l-1] + 2 kappa R),

    i.e. the overall e^{2 kappa R} growth of I^2 is kept symbolic so the
    round-trip assembly can cancel it against e^{-2 kappa L}.  A transparent
    sphere gives -inf logs.  ``kappa`` is a positive scalar or a 1-D array
    of K nodes, all taken in one Bessel call; each node's column equals the
    scalar call bit for bit.

    Returns
    -------
    (log_te, log_tm_abs) : ndarray, ndarray
        shape (l_max,) for a scalar kappa, (l_max, K) for an array
    """
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    z = np.asarray(kappa, dtype=float) * sphere.radius_R
    if not np.all(z > 0.0):
        raise ValueError(f"kappa must be positive, got {kappa}")
    log_i, log_k = bessel_ik_log(l_max + 1, z)
    l = np.arange(1.0, l_max + 1).reshape((-1,) + (1,) * z.ndim)
    li = log_i[1:l_max + 1]
    lk = log_k[1:l_max + 1]
    # n = I/2 + zR I' = (l+1) i_l + z i_{l+1} > 0 ; m = K/2 + zR K' = -(z k_{l-1} + l k_l) < 0
    log_n = np.logaddexp(np.log(l + 1.0) + li, np.log(z) + log_i[2:l_max + 2])
    log_m = np.logaddexp(np.log(z) + log_k[0:l_max], np.log(l) + lk)

    if sphere.omega_s == 0.0:
        neg = np.full(li.shape, -np.inf)
        return neg, neg.copy()
    if sphere.is_pc:
        return li - lk, log_n - log_m

    two_os = 2.0 * sphere.omega_s * sphere.radius_R  # dimensionless 2 Omega_s R
    log_te = math.log(two_os) + 2.0 * li - np.log1p(two_os * np.exp(li + lk))
    denom = z * z + two_os * np.exp(log_n + log_m)
    if np.any(np.abs(denom) < 1e-300):
        raise NumericsError("TM sphere denominator underflow; the physical denominator "
                            "is sign-definite, so this indicates a bug upstream")
    log_tm = math.log(two_os) + 2.0 * log_n - np.log(denom)
    return log_te, log_tm


def sphere_t(pol: Polarization, l: int, kappa: float, sphere: SphereSheet) -> float:
    """Diagonal sphere T-matrix element at imaginary wavenumber kappa.

    TE is positive and below 1 for finite Omega_s; TM is negative, in the
    perfect-conductor limit as the exact Bessel ratio forms.  The
    value carries the physical e^{2 kappa R} factor, so it overflows a double
    for kappa R beyond roughly 350; use :func:`sphere_t_logs` in that regime.
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if not (kappa > 0.0) or not math.isfinite(kappa):
        raise ValueError(f"kappa must be positive, got {kappa}")
    if sphere.omega_s == 0.0:
        return 0.0
    log_te, log_tm_abs = sphere_t_logs(l, kappa, sphere)
    z = kappa * sphere.radius_R
    with np.errstate(over="ignore"):
        if pol is Polarization.TE:
            return float(np.exp(log_te[l - 1] + 2.0 * z))
        return float(-np.exp(log_tm_abs[l - 1] + 2.0 * z))


def plane_r(pol: Polarization, kappa, k_perp, plane: PlaneSheet):
    """Reflection coefficient of the plane sheet.

    TE: Omega_p / (Omega_p + q) in [0, 1); TM: -Omega_p q / (Omega_p q +
    kappa^2) in (-1, 0], with q = sqrt(kappa^2 + k_perp^2).  The kappa = 0
    endpoint of TM is the analytic limit -1 (for k_perp > 0).  Perfect
    conductor gives +1 (TE) and -1 (TM).  Accepts scalars or arrays.
    """
    kappa = np.asarray(kappa, dtype=float)
    k_perp = np.asarray(k_perp, dtype=float)
    if np.any(kappa < 0.0) or np.any(k_perp < 0.0):
        raise ValueError("kappa and k_perp must be >= 0")
    q2 = kappa * kappa + k_perp * k_perp
    if np.any(q2 == 0.0):
        raise ValueError("kappa and k_perp cannot both vanish (undefined direction)")
    scalar = kappa.ndim == 0 and k_perp.ndim == 0

    if plane.omega_p == 0.0:
        out = np.zeros(np.broadcast(kappa, k_perp).shape)
    elif plane.is_pc:
        fill = 1.0 if pol is Polarization.TE else -1.0
        out = np.full(np.broadcast(kappa, k_perp).shape, fill)
    else:
        q = np.sqrt(q2)
        if pol is Polarization.TE:
            out = plane.omega_p / (plane.omega_p + q)
        else:
            out = -plane.omega_p * q / (plane.omega_p * q + kappa * kappa)
    return float(out) if scalar else out
