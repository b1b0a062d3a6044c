"""Overflow-safe special functions.

Half-integer modified Bessel functions, associated Legendre functions of
argument >= 1 (as log ladders), and the dilogarithm, taken from scipy.
Everything here is pure and re-entrant.

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


def dilog(x):
    """Dilogarithm Li2(x) = sum_{n>=1} x^n/n^2 on [-1, 1], from scipy's spence(1 - x).

    Rounding 1 - x to y drops the low bits of x, up to 2^-53/|x| relative
    near x = 0.  The dropped part e = y - (1 - x) is exactly (y - 1) + x,
    and spence(1 - x) = spence(y) - e spence'(y) with spence'(y) =
    ln(y)/(1 - y) = -1 - x/2 + O(x^2); adding e back leaves about |e x|/2
    (at most 0.4 |e|), so relative accuracy holds down to the smallest |x|.
    For x >= 1/2, y is exact and e = 0.
    """
    from scipy.special import spence  # scipy.special costs 0.28 s and 26 MB to import

    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) > 1.0) or not np.all(np.isfinite(x)):
        raise ValueError("dilog argument must lie in [-1, 1]")
    y = 1.0 - x
    out = spence(y) + ((y - 1.0) + x)
    return float(out[0]) if scalar else out
