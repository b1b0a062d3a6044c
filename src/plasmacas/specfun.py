"""Overflow-safe special functions.

Half-integer modified Bessel functions, associated Legendre functions of
argument >= 1, and the dilogarithm.  Everything here is pure and re-entrant.

The Bessel pair is kept exponentially scaled,

    i_scaled = e^{-z} I_{l+1/2}(z),      k_scaled = e^{+z} K_{l+1/2}(z),

so that the products I*K appearing downstream never overflow.  At extreme
(l, z) combinations even the scaled values leave the double range, so
:func:`bessel_ik_log` returns their logarithms, which stay finite there.
"""

from __future__ import annotations

import math

import numpy as np

_LN_RESCALE = 250.0 * math.log(10.0)
_RESCALE = 1e250


def _cf1_ratio(nu: float, z: float) -> float:
    """I_{nu+1}(z)/I_nu(z) by the continued fraction, modified Lentz."""
    tiny = 1e-300
    f = tiny
    c = f
    d = 0.0
    for j in range(1, 100000):
        b = 2.0 * (nu + j) / z
        d = b + d
        if d == 0.0:
            d = tiny
        c = b + 1.0 / c
        if c == 0.0:
            c = tiny
        d = 1.0 / d
        delta = c * d
        f *= delta
        if abs(delta - 1.0) < 2e-16:
            return f
    raise ArithmeticError(f"Bessel continued fraction failed for nu={nu}, z={z}")


def bessel_ik_log(l_max: int, z: float):
    """Log-scaled half-integer Bessel ladders.

    Parameters
    ----------
    l_max : int
        highest order l, non-negative
    z : float
        positive argument

    Returns
    -------
    (log_i, log_k) : ndarray, ndarray
        log_i[l] = ln(e^{-z} I_{l+1/2}(z)) for l = 0 .. l_max+1,
        log_k[l] = ln(e^{+z} K_{l+1/2}(z)) for l = 0 .. l_max.
        The extra I order feeds the derivative ladder.
    """
    if not (z > 0.0) or not math.isfinite(z):
        raise ValueError(f"Bessel argument must be positive and finite, got {z}")
    if l_max < 0:
        raise ValueError("l_max must be >= 0")

    # K: upward recurrence, stable, with running rescale
    log_k = np.empty(l_max + 1)
    k0 = 0.5 * (math.log(math.pi / 2.0) - math.log(z))
    log_k[0] = k0
    if l_max >= 1:
        off = 0.0
        km1, kc = 1.0, 1.0 + 1.0 / z
        log_k[1] = k0 + math.log(kc)
        for l in range(1, l_max):
            km1, kc = kc, km1 + (2 * l + 1) / z * kc
            if kc > _RESCALE:
                km1 /= _RESCALE
                kc /= _RESCALE
                off += _LN_RESCALE
            log_k[l + 1] = k0 + math.log(kc) + off

    # I: downward recurrence seeded by the continued-fraction ratio at the top
    top = l_max + 1
    ratio = _cf1_ratio(top + 0.5, z)
    vals = np.empty(top + 1)
    offs = np.empty(top + 1)
    ip1, ic = ratio, 1.0
    off = 0.0
    vals[top] = ic
    offs[top] = 0.0
    for l in range(top, 0, -1):
        ip1, ic = ic, ip1 + (2.0 * (l + 0.5) / z) * ic
        if ic > _RESCALE:
            ip1 /= _RESCALE
            ic /= _RESCALE
            off += _LN_RESCALE
        vals[l - 1] = ic
        offs[l - 1] = off
    # calibrate against i_0 = e^{-z} I_{1/2}(z) = sqrt(2/(pi z)) (1-e^{-2z})/2
    log_i0 = 0.5 * math.log(2.0 / (math.pi * z)) + math.log(-math.expm1(-2.0 * z)) - math.log(2.0)
    cal = log_i0 - (math.log(vals[0]) + offs[0])
    log_i = np.log(vals) + offs + cal
    return log_i, log_k


def legendre_p(l: int, m: int, x: float):
    """Associated Legendre P_l^m(x) and dP_l^m/dx for x >= 1.

    Convention for x >= 1: P_l^m(x) = (x^2-1)^{m/2} d^m P_l/dx^m, which is
    positive and increasing; only m >= 0 is accepted, negative orders are the
    caller's factorial prefactor.

    Returns
    -------
    (value, derivative) : tuple of float
    """
    if l < 1:
        raise ValueError(f"l must be >= 1, got {l}")
    if m < 0 or m > l:
        raise ValueError(f"m must satisfy 0 <= m <= l, got m={m}, l={l}")
    if not (x >= 1.0):
        raise ValueError(f"argument must be >= 1, got {x}")

    if x == 1.0:
        value = 1.0 if m == 0 else 0.0
        if m == 0:
            deriv = l * (l + 1) / 2.0
        elif m == 1:
            deriv = math.inf
        elif m == 2:
            deriv = (l - 1) * l * (l + 1) * (l + 2) / 4.0
        else:
            deriv = 0.0
        return value, deriv

    sh2 = (x - 1.0) * (x + 1.0)
    # seed P_m^m = (2m-1)!! (x^2-1)^{m/2}, then upward in l
    if m == 0:
        pmm = 1.0
    else:
        log_pmm = math.lgamma(2 * m + 1) - m * math.log(2.0) - math.lgamma(m + 1) \
            + 0.5 * m * math.log(sh2)
        pmm = math.exp(log_pmm)
    if l == m:
        pl, plm1 = pmm, 0.0
    else:
        plm1, pl = pmm, (2 * m + 1) * x * pmm
        for ll in range(m + 2, l + 1):
            plm1, pl = pl, ((2 * ll - 1) * x * pl - (ll + m - 1) * plm1) / (ll - m)
    deriv = (l * x * pl - (l + m) * plm1) / sh2
    return pl, deriv


def legendre_pbar_log(l_max: int, m: int, x):
    """ln of the normalized Legendre ladder sqrt((l-m)!/(l+m)!) P_l^m(x).

    Stable for arbitrarily large l and x; works on a vector of arguments.

    Parameters
    ----------
    l_max : int
        highest degree, >= m
    m : int
        order, >= 0
    x : array_like
        arguments >= 1 (values exactly 1 give -inf rows for m >= 1)

    Returns
    -------
    ndarray of shape (l_max - m + 1, len(x)) with row l - m holding ln Pbar_l^m.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if l_max < m:
        raise ValueError("l_max must be >= m")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < 1.0):
        raise ValueError("arguments must be >= 1")
    n = x.size
    out = np.empty((l_max - m + 1, n))
    if m == 0:
        seed = np.zeros(n)
    else:
        sh2 = (x - 1.0) * (x + 1.0)
        with np.errstate(divide="ignore"):
            seed = 0.5 * (math.lgamma(2 * m + 1) - 2 * m * math.log(2.0)
                          - 2 * math.lgamma(m + 1)) + 0.5 * m * np.log(sh2)
    out[0] = seed
    if l_max > m:
        # ratios r_l = v_{l+1}/v_l of the normalised ladder v_l = Pbar_l^m / Pbar_m^m
        # obey r_l = a_l x - b_l / r_{l-1} with b_m = 0; every r_l > 0 for x >= 1,
        # so the ladder is one log and one running sum of them
        ll = np.arange(m, l_max, dtype=float)
        c3 = np.sqrt((ll + 1.0) ** 2 - m * m)
        r = out[1:]
        np.multiply(((2.0 * ll + 1.0) / c3)[:, None], x, out=r)
        b = (np.sqrt(ll * ll - m * m) / c3).tolist()
        tmp = np.empty(n)
        rows = list(r)
        for k in range(1, len(rows)):
            np.divide(b[k], rows[k - 1], out=tmp)
            np.subtract(rows[k], tmp, out=rows[k])
        np.log(r, out=r)
        np.cumsum(r, axis=0, out=r)
        r += seed
    return out


_DILOG_TERMS = 48


def _dilog_series(x):
    """Power series sum x^n/n^2, valid for |x| <= 1/2."""
    acc = np.zeros_like(x)
    xn = np.ones_like(x)
    for n in range(1, _DILOG_TERMS + 1):
        xn = xn * x
        acc = acc + xn / (n * n)
    return acc


def dilog(x):
    """Dilogarithm Li2(x) = sum_{n>=1} x^n/n^2 on [-1, 1].

    Series on |x| <= 1/2; the Euler reflection maps (1/2, 1] and the Landen
    transform maps [-1, -1/2) back into the series region, so convergence is
    uniform over the whole interval.
    """
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) > 1.0) or not np.all(np.isfinite(x)):
        raise ValueError("dilog argument must lie in [-1, 1]")
    out = np.empty_like(x)

    core = np.abs(x) <= 0.5
    out[core] = _dilog_series(x[core])

    hi = x > 0.5  # Li2(x) = pi^2/6 - ln x ln(1-x) - Li2(1-x)
    if np.any(hi):
        xh = x[hi]
        one_minus = 1.0 - xh
        cross = np.zeros_like(xh)
        pos = one_minus > 0.0
        cross[pos] = np.log(xh[pos]) * np.log(one_minus[pos])
        out[hi] = math.pi ** 2 / 6.0 - cross - _dilog_series(one_minus)

    lo = x < -0.5  # Li2(x) = -Li2(x/(x-1)) - ln^2(1-x)/2
    if np.any(lo):
        xl = x[lo]
        y = xl / (xl - 1.0)
        out[lo] = -_dilog_series(y) - 0.5 * np.log1p(-xl) ** 2

    return float(out[0]) if scalar else out
