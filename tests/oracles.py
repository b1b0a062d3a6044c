"""Reference implementations the tests check the production code against.

None of these is on a production path.  Each is a second, slower or more
literal transcription of a formula that ``src/plasmacas`` evaluates once in
its own way:

* :func:`m_element` computes one (l, l', m) round-trip element as a scalar
  2x2 block with its own adaptive Gauss-Laguerre rapidity quadrature; the
  block assembler ``roundtrip.assemble_block`` computes whole blocks as one
  factor H of M = H H^T, on the driver's composite Gauss-Legendre rule in
  sqrt(u);
* :func:`dense_matrix` undoes the balancing of an assembled block, so its
  entries can be compared with :func:`m_element` or fed to a cofactor
  expansion;
* :func:`legendre_p` evaluates one P_l^m(x) and its derivative by the
  plain three-term recurrence; the blocks use the normalised log ladders
  of ``specfun.legendre_pbar_log`` instead;
* :func:`script_b_divided_difference` is the coefficient B of the E1 braces
  in its divided-difference form; the production kernel uses the
  homogeneous power-sum form, which has no a -> b cancellation;
* :func:`e0_s_series` is the leading small-gap term E0 as a sum over s
  with a fitted tail, each term on the production (t, tau) rule; the
  library takes E0 from the PFA integral, ``pfa._polylog_integral``, which
  integrates the closed-form Li2 instead;
* :func:`full_sum_theta` sums both small-gap s-series over every s up to
  ``asymptotics._S_MAX`` with a three-term tail fit; the production sum
  stops as soon as its five-term tail-corrected total settles;
* :func:`laguerre_theta` integrates each small-gap s-term in t by
  Gauss-Laguerre on x = 2 t (s+1); the production terms use a trapezoid on
  ln t.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import zeta

from plasmacas.asymptotics import (_S_MAX, _braces_times_t, _series_term_factory,
                                   _tail_corrected_sum)
from plasmacas.energy_exact import _theta_rule
from plasmacas.errors import NumericsError
from plasmacas.pfa import _t0
from plasmacas.roundtrip import KappaTable, _angular_logs, assemble_block
from plasmacas.scattering import Polarization, plane_r, sphere_t_logs
from plasmacas.specfun import legendre_pbar_log
from plasmacas._quadrature import gauss_laguerre, rapidity_rule, tau_rule


def block_at(m, kappa, sphere, plane, l_max, rule=None):
    """One round-trip block, assembled on a :class:`KappaTable` of its own.

    The rapidity rule (u, ln w) is the driver's for ``l_max`` unless
    ``rule`` is given.
    """
    if rule is None:
        rule = rapidity_rule(*_theta_rule(l_max))
    return assemble_block(m, KappaTable.build(kappa, sphere, plane, l_max, rule))


def angular_logs(l_max, m_abs, c_nodes):
    """``roundtrip._angular_logs`` with the Legendre ladders computed here."""
    return _angular_logs(l_max, m_abs, c_nodes, lambda k: legendre_pbar_log(l_max, k, c_nodes))


def _element_once(l, l_prime, m, kappa, sphere, plane, n_theta):
    """One quadrature pass of the true 2x2 element."""
    mm = abs(m)
    kl = kappa * plane.distance_L
    u, v = gauss_laguerre(n_theta)
    c = 1.0 + u / (2.0 * kl)
    _, ltau_l, lpi_l = angular_logs(l, mm, c)
    _, ltau_r, lpi_r = angular_logs(l_prime, mm, c)
    hw = 0.5 * np.log(v)
    ga_t, ga_p = ltau_l[-1] + hw, lpi_l[-1] + hw
    gb_t, gb_p = ltau_r[-1] + hw, lpi_r[-1] + hw
    sig_a = max(ga_t.max(), ga_p.max() if mm > 0 else -np.inf)
    sig_b = max(gb_t.max(), gb_p.max() if mm > 0 else -np.inf)
    at, ap = np.exp(ga_t - sig_a), np.exp(ga_p - sig_a)
    bt, bp = np.exp(gb_t - sig_b), np.exp(gb_p - sig_b)
    sh = np.sqrt((c - 1.0) * (c + 1.0))
    rte = plane_r(Polarization.TE, kappa, kappa * sh, plane)
    qtm = -plane_r(Polarization.TM, kappa, kappa * sh, plane)
    kern = {
        (0, 0): at @ (rte * bt) + ap @ (qtm * bp),
        (0, 1): at @ (rte * bp) + ap @ (qtm * bt),
        (1, 0): ap @ (rte * bt) + at @ (qtm * bp),
        (1, 1): ap @ (rte * bp) + at @ (qtm * bt),
    }
    log_te, log_tm = sphere_t_logs(l, kappa, sphere)
    logt = {0: log_te[l - 1], 1: log_tm[l - 1]}
    lpref = math.log(math.pi / 2.0) + 0.5 * (
        math.log(2 * l + 1.0) + math.log(2 * l_prime + 1.0)
        - math.log(l * (l + 1.0)) - math.log(l_prime * (l_prime + 1.0)))
    z = kappa * sphere.radius_R
    common = 2.0 * z - 2.0 * kl - math.log(2.0 * kl) + lpref + sig_a + sig_b
    out = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            sgn = -1.0 if (m < 0 and i != j) else 1.0
            out[i, j] = sgn * math.exp(common + logt[i]) * kern[(i, j)]
    return out


def m_element(l, l_prime, m, kappa, sphere, plane, theta_nodes=40, rel_tol=1e-10):
    """True 2x2 polarization block of the round-trip element.

    Rows and columns are ordered (TE, TM).  The rapidity quadrature doubles
    its node count until the two finest passes agree to rel_tol; failure to
    converge raises :class:`NumericsError` carrying the last error estimate.
    Values carry the full physical scale, so extreme kappa(L-R) under- or
    overflows a double; the block assembly path is immune to that.
    """
    mm = abs(m)
    if l < max(1, mm) or l_prime < max(1, mm):
        raise ValueError(f"l, l_prime must be >= max(1, |m|), got {l}, {l_prime}, m={m}")
    if not (kappa > 0.0):
        raise ValueError(f"kappa must be positive, got {kappa}")
    if sphere.omega_s == 0.0:
        return np.zeros((2, 2))
    prev = _element_once(l, l_prime, m, kappa, sphere, plane, theta_nodes)
    n = theta_nodes
    for _ in range(4):
        n *= 2
        cur = _element_once(l, l_prime, m, kappa, sphere, plane, n)
        scale = np.max(np.abs(cur))
        err = np.max(np.abs(cur - prev))
        if scale == 0.0 or err <= rel_tol * scale:
            return cur
        prev = cur
    raise NumericsError(
        f"theta quadrature for element (l={l}, l'={l_prime}, m={m}) did not "
        f"converge below rel_tol={rel_tol}", error_estimate=err / scale)


def dense_matrix(block, sphere):
    """Un-balanced physical matrix of a block; may overflow for extreme parameters.

    ``sphere`` is the sphere the block was assembled for: the half-logs of
    |T_l| that the balancing split across rows and columns are rebuilt from
    it.
    """
    log_te, log_tm = sphere_t_logs(block.l_max, block.kappa, sphere)
    l0 = max(1, abs(block.m))
    log_t_half = np.empty(block.dim)
    log_t_half[0::2] = 0.5 * log_te[l0 - 1:]
    log_t_half[1::2] = 0.5 * log_tm[l0 - 1:]
    r = log_t_half[:, None] - log_t_half[None, :]
    with np.errstate(over="ignore"):
        return np.exp(r) * block.matrix


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


def script_b_divided_difference(s, t, tau, varpi_s, varpi_p):
    """B in its divided-difference form.

    Undefined exactly at T0TE*T0tTE = T0TM*T0tTM; the production path uses
    the power-sum form instead.
    """
    sig = s + 1
    te = _t0(t, tau, varpi_s, False) * _t0(t, tau, varpi_p, False)
    tm = _t0(t, tau, varpi_s, True) * _t0(t, tau, varpi_p, True)
    mix = (_t0(t, tau, varpi_s, False) * _t0(t, tau, varpi_p, True)
           + _t0(t, tau, varpi_s, True) * _t0(t, tau, varpi_p, False))
    dd1 = (te ** sig - tm ** sig) / (te - tm)
    dd2 = (te ** s - tm ** s) / (te - tm)
    return (1.0 - tau ** 2) / (2.0 * t * tau ** 2) * (mix * dd1 + 2.0 * te * tm * dd2)


def _e0_times_t(s, t, tau, ws, wp):
    """t * sum_pol [T0 T0t]^{s+1}, the E0 integrand without its exponential."""
    sig = s + 1.0
    value = t * ((_t0(t, tau, ws, False) * _t0(t, tau, wp, False)) ** sig
                 + (_t0(t, tau, ws, True) * _t0(t, tau, wp, True)) ** sig)
    return np.broadcast_to(value, np.broadcast(t, tau).shape)


def e0_s_series(radius_R, gap_d, varpi_s, varpi_p, rel_tol=1e-10):
    """E0 = -R/(4 pi d^2) q0 with q0 summed over s: the terms decay like
    (s+1)^-4 and stop as the E1 series does.  Agrees with ``pfa_energy``
    within about 4e-12 down to w = 2e-7."""
    term = _series_term_factory(varpi_s, varpi_p, _e0_times_t, "E0")
    q0, _ = _tail_corrected_sum(term, 4, rel_tol, "E0")
    return -radius_R / (4.0 * math.pi * gap_d ** 2) * q0


def _full_s_sum(term, p0):
    """Every term up to _S_MAX, plus the tail of the last three fitted to
    (s+1)^(-p0) .. (s+1)^(-p0-2) and summed with the Hurwitz zeta function."""
    terms = np.array([term(s) for s in range(_S_MAX + 1)])
    sig = np.arange(_S_MAX - 1, _S_MAX + 2, dtype=float)
    powers = np.arange(p0, p0 + 3)
    coef = np.linalg.solve(sig[:, None] ** -powers.astype(float), terms[-3:])
    return terms.sum() + sum(c * zeta(p, _S_MAX + 2.0) for c, p in zip(coef, powers))


def full_sum_theta(varpi_s, varpi_p):
    """theta = E1/E0 (R/d) from the full-length E0 and E1 s-series."""
    q0 = _full_s_sum(_series_term_factory(varpi_s, varpi_p, _e0_times_t, "E0"), 4)
    q1 = _full_s_sum(_series_term_factory(varpi_s, varpi_p, _braces_times_t, "E1"), 2)
    return q1 / q0


def laguerre_theta(varpi_s, varpi_p, rel_tol, n=96):
    """theta with each s-term integrated by n-point Gauss-Laguerre on
    x = 2 t (s+1) and an n-point tau rule, the s-sums stopped as in
    production.

    The T0 poles sit at x = -2 (s+1) w, close to the nodes for small w: at
    n = 96 theta is good to 1e-11 only from about w = 0.5 up.
    """
    x, wx = gauss_laguerre(n)
    tau, wtau = tau_rule(n)

    def series_term(g_func):
        def term(s):
            sig = s + 1.0
            t = x[:, None] / (2.0 * sig)
            g = g_func(s, t, tau[None, :], varpi_s, varpi_p)
            return float(wx @ g @ wtau) / (2.0 * sig) / sig ** 2
        return term

    q0, _ = _tail_corrected_sum(series_term(_e0_times_t), 4, rel_tol, "E0")
    q1, _ = _tail_corrected_sum(series_term(_braces_times_t), 2, rel_tol, "E1", abs(q0))
    return q1 / q0
