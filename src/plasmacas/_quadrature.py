"""Cached quadrature rules shared by the integration-heavy modules."""

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_laguerre


@lru_cache(maxsize=64)
def gauss_laguerre(n: int):
    """Nodes and weights for int_0^inf e^{-x} f(x) dx."""
    return roots_laguerre(n)


@lru_cache(maxsize=64)
def gauss_legendre_01(n: int):
    """Nodes and weights on [0, 1]."""
    x, w = leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=64)
def rapidity_rule(panels: int, v_max: float):
    """Nodes u and log weights for int_0^inf e^{-u} f(u) du.

    Composite 8-point Gauss-Legendre in v = sqrt(u) on ``panels`` equal
    panels of [0, v_max]; u = v^2 and ln w = ln(2v) - v^2 + ln w_GL, kept in
    log space so that no weight underflows at any v_max.
    """
    x, w = leggauss(8)
    h = v_max / panels
    v = ((np.arange(panels)[:, None] + 0.5 * (x + 1.0)) * h).ravel()
    return v * v, np.log(2.0 * v) - v * v + np.tile(np.log(0.5 * h * w), panels)


@lru_cache(maxsize=64)
def tau_rule(n: int):
    """Nodes and weights for int_0^1 tau/sqrt(1-tau^2) f(tau) dtau.

    tau = sin(phi) removes the endpoint weight; the returned weights already
    contain the full measure.
    """
    x, w = leggauss(n)
    phi = (x + 1.0) * np.pi / 4.0
    wphi = w * np.pi / 4.0
    tau = np.sin(phi)
    return tau, wphi * tau
