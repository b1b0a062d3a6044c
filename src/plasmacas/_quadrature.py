"""Cached quadrature rules shared by the integration-heavy modules.

The sheet-sheet (t, tau) integrals of ``pfa`` and ``asymptotics`` share one
design: a trapezoid on ln t (_log_t_nodes) times a tau rule (tau_rule)
whose node count a doubling probe settles (_pick_nodes).
"""

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import NumericsError

_N_TAU = 24
_N_TAU_MAX = 768
_LOG_TRAP_H = 0.28


@lru_cache(maxsize=64)
def gauss_laguerre(n: int):
    """Nodes and weights for int_0^inf e^{-x} f(x) dx.

    The one scipy import left in the library, on no production path: only
    ``tests/oracles.py`` calls it.  It stays here because the benchmark
    reads its ``cache_info()``, so it can move only with a change to the
    benchmark.  numpy's ``laggauss`` is no substitute: at n = 96 it
    integrates e^{-x} cos x to 2.4e-13 (this rule: 6e-16), and at n = 192
    its weights are NaN, with a RuntimeWarning.
    """
    from scipy.special import roots_laguerre  # scipy.special costs 0.28 s and 26 MB to import

    return roots_laguerre(n)


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


def _pick_nodes(f, what):
    """Tau node count n and the value f(n) it settles on.

    n is doubled from _N_TAU until f stops moving: n is taken when n and 2n
    nodes agree to 1e-12 (relative), 2n when they agree to 1e-7.  The probed
    integral should carry the sharpest tau feature of the family, 1 - tau^2
    ~ w/t; a rule not settled by _N_TAU_MAX nodes raises NumericsError, and
    so does a value that is not finite, which no relative test can judge.
    """
    n = _N_TAU
    v = f(n)
    while 2 * n <= _N_TAU_MAX:
        v2 = f(2 * n)
        if not math.isfinite(v2):
            raise NumericsError(f"{what}: value {v2} on the {2 * n}-node tau rule",
                                error_estimate=math.inf)
        diff = abs(v2 - v)
        if diff <= 1e-12 * abs(v2):
            return n, v
        if diff <= 1e-7 * abs(v2):
            return 2 * n, v2
        n, v = 2 * n, v2
    raise NumericsError(f"{what}: tau rule not settled at {n} nodes: value {v:.6e} "
                        f"moved by {diff:.1e} on the last doubling",
                        error_estimate=diff / abs(v))


def _log_t_nodes(sig, w_min, step_scale=1.0):
    """Trapezoid nodes on t = e^v covering both the pole scale and the decay,
    at a step of at most step_scale times _LOG_TRAP_H.

    For integrands with the factor exp(-2 sig t) and reflection poles at
    t ~ -w_min (w_min = inf for perfect conductors).  The poles sit on the
    negative real axis, at Im v = pi, but the factor exp(-2 sig e^v) grows
    without bound past |Im v| = pi/2.  So the integrands are analytic and
    bounded in the strip |Im v| < pi/2, and the trapezoid error falls like
    exp(-pi^2 / h) however small w_min is.  Measured on single terms from
    w = 1e-5 to PC, the relative error is about 5e-7 at h = 0.5, 1e-10 at
    h = 0.35 and at most 3e-12 at h = _LOG_TRAP_H.  Below the first node
    the E1 integrand tends to c t dv, and the first weight adds the nodes
    that would continue the grid to t = 0, a geometric series; the E0 and
    PFA integrands, which fall at least like t^2 dv there, are far below
    round-off.
    """
    lo = math.log(min(w_min, 1.0 / sig)) - 20.0
    hi = math.log(25.0 / sig)
    n = int((hi - lo) / (step_scale * _LOG_TRAP_H)) + 1
    v = lo + (hi - lo) * np.arange(n) / (n - 1)
    t = np.exp(v)
    h = (hi - lo) / (n - 1)
    wt = t * h
    wt[0] /= -math.expm1(-h)
    return t, wt
