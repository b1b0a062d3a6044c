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
* :func:`m_summed_trace` sums (2 - delta_m0) ||H_m||_F^2 block by block up
  to m = l_max; ``KappaTable.m_summed_traces`` takes the same sum in
  closed form from the Legendre addition theorem;
* :func:`logdet_with_small_block_series` gives ln det(I - M) of a weak
  block as -tr M - tr M^2 / 2, where the Cholesky value of
  ``energy_exact.logdet_one_minus`` is round-off;
* :func:`far_field_energy` is the static-dipole limit of a plasma-sheet
  sphere far from a perfectly conducting plane, from the l = 1 T-matrix
  limits taken by hand; the exact driver sums the full mode series;
* :func:`angular_logs_logaddexp` forms ln tau_l of the blocks as the
  log-sum of its two Legendre terms; ``roundtrip._angular_logs`` forms it
  from ln pi_l and a bounded ratio, without a log-sum;
* :func:`legendre_p` evaluates one P_l^m(x) and its derivative by the
  plain three-term recurrence; the blocks use the normalised log ladders
  of ``specfun.legendre_pbar_log`` instead;
* :func:`script_b_divided_difference` is the coefficient B of the E1 braces
  in its divided-difference form; the production table uses the
  homogeneous power-sum form, which has no a -> b cancellation;
* :func:`hom_power_sums` forms those power sums at one s by a Horner loop
  over s; the production series carries them from one s to the next by
  the recurrence of ``asymptotics._running_products``;
* :func:`e0_s_series` is the leading small-gap term E0 as a sum over s
  with a fitted tail, each term on the production (t, tau) rule; the
  library takes E0 from the PFA integral, ``pfa._polylog_integral``, which
  integrates the closed-form Li2 instead;
* :func:`series_term_factory` integrates each small-gap s-term on a log-t
  grid scaled to that s, through ``asymptotics._braces_times_t`` at that s;
  the production series puts every term of a row on the grid of the
  s = 0 term, at a finer step, and builds the E1 table once;
* :func:`full_sum_theta` sums both small-gap s-series over every s up to
  ``asymptotics._S_MAX`` with a three-term tail fit, each term from
  :func:`series_term_factory`; the production sum stops as soon as its
  five-term tail-corrected total settles;
* :func:`laguerre_theta` integrates each small-gap s-term in t by
  Gauss-Laguerre on x = 2 t (s+1); the production terms use a trapezoid on
  ln t.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import zeta

from plasmacas.asymptotics import _S_MAX, _braces_times_t, _tail_corrected_sum
from plasmacas.energy_exact import _theta_rule, logdet_one_minus
from plasmacas.errors import NumericsError
from plasmacas.pfa import _t0
from plasmacas.roundtrip import KappaTable, _angular_logs, assemble_block
from plasmacas.scattering import Polarization, plane_r, sphere_t_logs
from plasmacas.specfun import legendre_pbar_log
from plasmacas._quadrature import (_log_t_nodes, _pick_nodes, gauss_laguerre, rapidity_rule,
                                   tau_rule)


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


def angular_logs_logaddexp(l_max, m_abs, c_nodes):
    """(ln tau, ln pi) as two log terms joined by ``np.logaddexp``, ladders computed here.

    tau_l = (m x / sinh) Pbar_l^m + sqrt((l-m)(l+m+1)) Pbar_l^{m+1}, each
    term in log space; ln pi is -inf at m = 0.
    """
    l0 = max(1, m_abs)
    lvec = np.arange(l0, l_max + 1)
    sh = np.sqrt((c_nodes - 1.0) * (c_nodes + 1.0))
    n = c_nodes.size
    # sinh * dPbar/dx = (m x / sinh) Pbar_l^m + sqrt((l-m)(l+m+1)) Pbar_l^{m+1};
    # at m = 0 only the second term survives, so the order-0 ladder is unused
    if m_abs > 0:
        pbar_m = legendre_pbar_log(l_max, m_abs, c_nodes)[l0 - m_abs:, :]
        t1 = np.log(m_abs * c_nodes / sh)[None, :] + pbar_m
        lpi = np.log(m_abs / sh)[None, :] + pbar_m
    else:
        t1 = np.full((lvec.size, n), -np.inf)
        lpi = np.full((lvec.size, n), -np.inf)
    t2 = np.full((lvec.size, n), -np.inf)
    if l_max >= m_abs + 1:
        pbar_m1 = legendre_pbar_log(l_max, m_abs + 1, c_nodes)
        rows = lvec >= m_abs + 1
        coef = (lvec[rows] - m_abs) * (lvec[rows] + m_abs + 1.0)
        t2[rows] = 0.5 * np.log(coef)[:, None] + pbar_m1[lvec[rows] - (m_abs + 1), :]
    ltau = np.logaddexp(t1, t2)
    return ltau, lpi


def _element_once(l, l_prime, m, kappa, sphere, plane, n_theta):
    """One quadrature pass of the true 2x2 element."""
    mm = abs(m)
    kl = kappa * plane.distance_L
    u, v = gauss_laguerre(n_theta)
    c = 1.0 + u / (2.0 * kl)
    ltau_l, lpi_l = angular_logs(l, mm, c)
    ltau_r, lpi_r = angular_logs(l_prime, mm, c)
    hw = 0.5 * np.log(v)
    ga_t, gb_t = ltau_l[-1] + hw, ltau_r[-1] + hw
    if mm > 0:
        ga_p, gb_p = lpi_l[-1] + hw, lpi_r[-1] + hw
        sig_a, sig_b = max(ga_t.max(), ga_p.max()), max(gb_t.max(), gb_p.max())
        ap, bp = np.exp(ga_p - sig_a), np.exp(gb_p - sig_b)
    else:  # pi = 0 at m = 0
        sig_a, sig_b = ga_t.max(), gb_t.max()
        ap = bp = np.zeros(n_theta)
    at, bt = np.exp(ga_t - sig_a), np.exp(gb_t - sig_b)
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


def m_summed_trace(table, l_keep):
    """(T, T_keep) of ``KappaTable.m_summed_traces``, block by block.

    Every block m = 0 .. l_max is assembled on ``table``, and the squares of
    its entries are summed with the weight 2 - delta_m0; T_keep sums the
    rows of degree l <= ``l_keep`` alone (two rows per degree, from
    l = max(1, m)).
    """
    nodes = len(table.c)
    total, kept = np.zeros(nodes), np.zeros(nodes)
    for m in range(table.l_max + 1):
        h = assemble_block(m, table).factor
        rows = np.sum(h * h, axis=2)
        weight = 1.0 if m == 0 else 2.0
        total += weight * rows.sum(axis=1)
        kept += weight * rows[:, :2 * max(0, l_keep - max(1, m) + 1)].sum(axis=1)
    return total, kept


def logdet_with_small_block_series(block):
    """``energy_exact.logdet_one_minus(block)`` of a stacked block, with
    -tr M - tr M^2 / 2 wherever tr M <= 1e-6.

    The Cholesky value of ln det(I - M) carries a round-off of about 1e-16
    per pivot, which is all of it once ||M|| ~ 1e-9.  The series leaves
    sum_{k >= 3} tr M^k / k <= tr M^3 / 3 / (1 - tr M) < 4e-19 there; tr M^k
    is tr G^k of the smaller Gram matrix G = H^T H.
    """
    values = logdet_one_minus(block)
    g = np.swapaxes(block.factor, 1, 2) @ block.factor
    tr1 = np.trace(g, axis1=1, axis2=2)
    small = tr1 <= 1e-6
    values[small] = -(tr1 + 0.5 * np.sum(g * g, axis=(1, 2)))[small]
    return values


def far_field_energy(radius_R, omega_s, distance_L):
    """E -> -3 hbar c (alpha_E - alpha_M) / (8 pi L^4) of a plasma-sheet sphere
    (``omega_s`` Omega_s, the perfect conductor included) far from a
    perfectly conducting plane, in units hbar c per length unit.

    The static polarisabilities are the kappa -> 0 limits of the paper's
    l = 1 sphere T-matrix, taken by hand.  With z = kappa R, i = I_{3/2}(z)
    and k = K_{3/2}(z), i k -> 1/3 and i / k -> 2 z^3 / (3 pi).  A perfect
    conductor has T^TE = i / k and T^TM = -n / |m|, n = 2 i + z I_{5/2}(z)
    -> 2 i and |m| = z K_{1/2}(z) + k -> k, so T^TM -> -2 i / k; these are
    alpha_M = -R^3 / 2 and alpha_E = R^3, with T = +-(4 / (3 pi)) kappa^3
    |alpha|.  A sheet of w = Omega_s R has
    T^TE = 2 w i^2 / (1 + 2 w i k) -> (i / k) 2 w / (2 w + 3), so
    alpha_M = -R^3 w / (2 w + 3), and T^TM = -2 w n^2 / (z^2 + 2 w n |m|)
    -> -n / |m|, the perfect conductor's, so alpha_E = R^3 for any w > 0.
    Hence E -> -(3 R^3 / (8 pi L^4)) (1 + w / (2 w + 3)), which is
    -9 R^3 / (16 pi L^4) for the perfect conductor.
    """
    w = omega_s * radius_R
    te = 0.5 if w == math.inf else w / (2.0 * w + 3.0)
    return -3.0 * radius_R ** 3 * (1.0 + te) / (8.0 * math.pi * distance_L ** 4)


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


def hom_power_sums(a, b, n: int):
    """(h_n, h_{n-1}) for h_n = sum_{k=0}^{n} a^k b^{n-k} and n >= 0; h_{-1} = 0.

    The Horner loop for h_n passes through h_{n-1} one step before the end.
    """
    acc = np.zeros(np.broadcast(a, b).shape)
    prev, ap = acc, np.ones_like(acc)
    for _ in range(n + 1):
        prev, acc = acc, acc * b + ap
        ap = ap * a
    return acc, prev


def series_term_factory(varpi_s, varpi_p, g_func, what):
    """Per-s integral of (measure) e^{-2t(s+1)} g_func(s, t, tau, w_s, w_p):
    the log-t trapezoid scaled to each s (_log_t_nodes(s + 1, w)) times a
    tau rule sized once by _pick_nodes on the s = 0 term, which has the
    sharpest tau feature."""

    def term_at(s, n):
        sig = s + 1.0
        t, wt = _log_t_nodes(sig, min(varpi_s, varpi_p))
        tau, wtau = tau_rule(n)
        g = g_func(s, t[:, None], tau[None, :], varpi_s, varpi_p)
        return float((wt * np.exp(-2.0 * sig * t)) @ g @ wtau) / sig ** 2

    n, first = _pick_nodes(lambda n: term_at(0, n), what)
    return lambda s: first if s == 0 else term_at(s, n)


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
    term = series_term_factory(varpi_s, varpi_p, _e0_times_t, "E0")
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
    q0 = _full_s_sum(series_term_factory(varpi_s, varpi_p, _e0_times_t, "E0"), 4)
    q1 = _full_s_sum(series_term_factory(varpi_s, varpi_p, _braces_times_t, "E1"), 2)
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
