"""Overflow-safe special functions.

Half-integer modified Bessel functions, associated Legendre functions of
argument >= 1 (as log ladders), and the dilogarithm.  Everything here is
pure and re-entrant and needs numpy alone.

The Bessel pair is kept exponentially scaled,

    i_scaled = e^{-z} I_{l+1/2}(z),      k_scaled = e^{+z} K_{l+1/2}(z),

so that the products I*K appearing downstream never overflow.  At extreme
(l, z) combinations even the scaled values leave the double range, so
:func:`bessel_ik_log` returns their logarithms, which stay finite there.

Every ladder is one recurrence on positive ratios of neighbouring orders
(:func:`_log_ratios`), run where the wanted solution dominates: K and P
upward, I downward from a continued fraction.  A ratio cannot overflow, so
nothing is rescaled; one log and one running sum up from the closed-form
lowest order give the ladder for a whole array of arguments.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericsError


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
    raise NumericsError(f"Bessel continued fraction failed for nu={nu}, z={z}")


def _log_ratios(r, b):
    """Overwrite the rows a_k of ``r`` (one order each, over an array of
    arguments) with ln r_k of r_0 = a_0, r_k = a_k + b_k / r_{k-1}; the
    floats ``b`` are as many as the rows (b_0 unused), and every r_k > 0."""
    rows = list(r)
    for row, prev, b_k in zip(rows[1:], rows, b[1:]):
        row += b_k / prev
    return np.log(r, out=r)


def bessel_ik_log(l_max: int, z):
    """Log-scaled half-integer Bessel ladders.

    K runs upward on k_{l+1}/k_l = (2l+1)/z + k_{l-1}/k_l from k_{-1} = k_0,
    I downward on i_l/i_{l+1} = (2l+3)/z + i_{l+2}/i_{l+1} from the
    continued fraction at the top; i_0 and k_0 are closed forms.

    Parameters
    ----------
    l_max : int
        highest order l, non-negative
    z : float or 1-D array_like
        positive finite argument(s)

    Returns
    -------
    (log_i, log_k) : ndarray, ndarray
        log_i[l] = ln(e^{-z} I_{l+1/2}(z)) for l = 0 .. l_max+1,
        log_k[l] = ln(e^{+z} K_{l+1/2}(z)) for l = 0 .. l_max.
        The extra I order feeds the derivative ladder.  For an array ``z``
        of K arguments both have a trailing axis of K, shapes (l_max+2, K)
        and (l_max+1, K); each column equals the scalar call bit for bit.
    """
    zz = np.atleast_1d(np.asarray(z, dtype=float))
    if zz.ndim != 1 or not np.all(zz > 0.0) or not np.all(np.isfinite(zz)):
        raise ValueError(f"Bessel argument must be positive and finite, got {z}")
    if l_max < 0:
        raise ValueError("l_max must be >= 0")

    # row l+1 of log_k takes ln(k_{l+1}/k_l), row l+1 of log_i ln(i_l/i_{l+1})
    log_k = np.empty((l_max + 1, zz.size))
    log_k[0] = 0.5 * (math.log(math.pi / 2.0) - np.log(zz))
    r = log_k[1:]
    np.divide(np.arange(1.0, 2 * l_max, 2.0)[:, None], zz, out=r)
    r[:1] += 1.0  # k_{-1} = k_0, so the first ratio is 1 + 1/z
    np.cumsum(_log_ratios(r, [1.0] * l_max), axis=0, out=r)
    r += log_k[0]

    top = l_max + 1
    log_i = np.empty((top + 1, zz.size))
    # i_0 = e^{-z} I_{1/2}(z) = sqrt(2/(pi z)) (1-e^{-2z})/2
    log_i[0] = 0.5 * np.log(2.0 / (math.pi * zz)) + np.log(-np.expm1(-2.0 * zz)) - math.log(2.0)
    r = log_i[:0:-1]  # downward: l = top-1 .. 0
    np.divide(np.arange(2.0 * top + 1, 2.0, -2.0)[:, None], zz, out=r)
    r[0] += [_cf1_ratio(top + 0.5, x) for x in zz.tolist()]
    _log_ratios(r, [1.0] * top)
    log_i[1:] = log_i[0] - np.cumsum(log_i[1:], axis=0)
    return (log_i[:, 0], log_k[:, 0]) if np.ndim(z) == 0 else (log_i, log_k)


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
        # obey r_l = a_l x - b_l / r_{l-1} with b_m = 0; every r_l > 0 for x >= 1
        ll = np.arange(m, l_max, dtype=float)
        c3 = np.sqrt((ll + 1.0) ** 2 - m * m)
        r = out[1:]
        np.multiply(((2.0 * ll + 1.0) / c3)[:, None], x, out=r)
        np.cumsum(_log_ratios(r, (-np.sqrt(ll * ll - m * m) / c3).tolist()), axis=0, out=r)
        r += seed
    return out


# B_2k/(2k+1)! for k = 1 .. 9, the coefficients of the Li2 series in u = -ln(1 - x)
_LI2_BERNOULLI = (2.7777777777777776e-02, -2.777777777777778e-04, 4.72411186696901e-06,
                  -9.185773074661964e-08, 1.8978869988971e-09, -4.0647616451442256e-11,
                  8.921691020456452e-13, -1.9939295860721074e-14, 4.518980029619918e-16)
_ZETA_2 = math.pi ** 2 / 6.0


def dilog(x):
    """Dilogarithm Li2(x) = sum_{n>=1} x^n/n^2 on [-1, 1].

    For x <= 1/2, Li2 = u - u^2/4 + sum_k B_2k u^(2k+1)/(2k+1)! in
    u = -ln(1 - x) ('t Hooft and Veltman, Nucl. Phys. B153, 365 (1979));
    |u| <= ln 2 there, so the nine terms k = 1 .. 9 leave less than 1e-20,
    and log1p keeps the full relative accuracy down to the smallest |x|.
    For x > 1/2 the reflection Li2(x) = pi^2/6 - ln(x) ln(1 - x) - Li2(1 - x)
    takes the series at 1 - x, which is exact there, and Li2(1) = pi^2/6.
    """
    scalar = np.isscalar(x) or (isinstance(x, np.ndarray) and x.ndim == 0)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(np.abs(x) > 1.0) or not np.all(np.isfinite(x)):
        raise ValueError("dilog argument must lie in [-1, 1]")
    refl = x > 0.5
    y = np.where(refl, 1.0 - x, x)
    u = np.log1p(-y)
    np.negative(u, out=u)
    v = u * u
    s = np.full_like(u, _LI2_BERNOULLI[-1])
    for c in _LI2_BERNOULLI[-2::-1]:
        s *= v
        s += c
    s *= u
    s -= 0.25
    s *= v
    s += u
    if refl.any():
        # -ln(x) ln(1 - x) = u ln(y); at x = 1 both u and the term are 0
        ln_y = np.log(y, out=np.zeros_like(y), where=refl & (y > 0.0))
        ln_y *= u
        ln_y -= s
        ln_y += _ZETA_2
        s = np.where(refl, ln_y, s)
    return float(s[0]) if scalar else s
