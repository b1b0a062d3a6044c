"""Exact Casimir interaction energy from the round-trip determinant.

E = (hbar c / 2 pi) int_0^infty dkappa sum_m ln det(I - M_m(kappa))

with automatic truncation control in l, m and the kappa quadrature.  The
core works in units R = 1, hbar c = 1 (everything depends only on kappa R,
Omega R and L/R); results are reported per unit of the caller's length unit
together with the dimensionless combination E d^2 / (hbar c R).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, SpectralAnomalyError
from .roundtrip import KappaTable, RoundTripBlock, assemble_block
from .scattering import PlaneSheet, SphereSheet, varpi

_L_MAX_CEILING = 2000
_KAPPA_NODE_CEILING = 128  # finest kappa level n (n - 1 nodes)
_KAPPA_MAP_SCALE = 3.0  # x = a (1 + s)/(1 - s): half of every level lies below x = a
_THETA_NODE_FLOOR = 40
_THETA_NODE_CEILING = 192  # the Gauss-Laguerre rule is stable up to here
_LOGDET_POSITIVE_TOL = 1e-12


@dataclass(frozen=True)
class NumericsSpec:
    """The truncation knobs a caller sets.

    l_max/m_max may be "auto"; rel_tol applies to the dimensionless core
    value E R / (hbar c).  The rapidity nodes follow l_max (see
    :func:`_theta_nodes`).
    """

    l_max: int | str = "auto"
    m_max: int | str = "auto"
    kappa_nodes: int = 16
    rel_tol: float = 1e-3

    def __post_init__(self):
        for name in ("l_max", "m_max"):
            v = getattr(self, name)
            if v != "auto" and (not isinstance(v, int) or v < 1):
                raise ValueError(f"{name} must be a positive integer or 'auto', got {v!r}")
        # the kappa rule needs room for one doubling below its ceiling
        top = _KAPPA_NODE_CEILING // 2
        if not isinstance(self.kappa_nodes, int) or not 8 <= self.kappa_nodes <= top:
            raise ValueError(f"kappa_nodes must be an integer in 8 .. {top}, "
                             f"got {self.kappa_nodes!r}")
        if not self.rel_tol > 0.0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class EnergyResult:
    """Energy in units hbar*c per caller length unit, with convergence metadata."""

    energy: float
    energy_dimensionless: float
    error_estimate: float
    l_max_used: int
    m_max_used: int
    kappa_nodes_used: int


def _logdet_and_lead(f, kept):
    """ln det(I - F F^T) and ln det(I - F_k F_k^T), F_k the first ``kept`` rows.

    One Cholesky factorisation of the smaller of two matrices with the same
    determinant.  The l side is I - F F^T, whose leading ``kept`` pivots
    give the sub-block value.  The theta side is the bordered matrix
    K = [[I - F_k^T F_k, F_d^T], [F_d, I]], F_d the dropped rows: its Schur
    complement on the lower-right I is I - F^T F, so det K = det(I - F F^T)
    (Sylvester), and its leading pivots, one per column of F, give
    det(I - F_k^T F_k) = det(I - F_k F_k^T).
    """
    rows, cols = f.shape
    dropped = rows - kept
    if cols + dropped < rows:
        size, lead = cols + dropped, cols
        fk, fd = f[:kept], f[kept:]
        a = np.zeros((size, size))
        a[:cols, :cols] = -(fk.T @ fk)
        a[cols:, :cols] = fd
        a[:cols, cols:] = fd.T
    else:
        size, lead = rows, kept
        a = -(f @ f.T)
    a.ravel()[::size + 1] += 1.0
    lds = 2.0 * np.cumsum(np.log(np.diagonal(np.linalg.cholesky(a))))
    return lds[-1], lds[lead - 1]


def logdet_one_minus(block: RoundTripBlock, nl_keep: int | None = None):
    """ln det(I - M_m) <= 0 from a round-trip block M = H H^T.

    One Cholesky factorisation (LAPACK potrf through numpy) of whichever
    side of det(I - H H^T) = det(I - H^T H) is smaller (see
    :func:`_logdet_and_lead`): I - H H^T, of size 2 n_l, or a bordered
    matrix of size 2 n_theta plus one row per dropped l row.  The rule
    depends on the block's shape alone.  H carries the block scale and its
    entries are below 1 (see :class:`RoundTripBlock`), so nothing is
    rescaled here.  At m = 0, H is block-diagonal (TE rows on the first
    n_theta columns, TM rows on the last), so the TE and TM halves are
    factorised separately, each by the same rule.  On the imaginary axis
    I - M is symmetric positive definite, so a failed factorisation (an
    eigenvalue of M at or past 1) raises :class:`SpectralAnomalyError`, as
    does a result above round-off past 0, which M = H H^T rules out.

    With ``nl_keep`` the call returns the pair (full value, value of the
    leading principal sub-block that keeps the first ``nl_keep`` degrees l),
    both read off the one factorisation; the sub-block value is the
    l-truncation probe.
    """
    nl = block.dim // 2
    if nl_keep is not None and not 1 <= nl_keep <= nl:
        raise ValueError(f"nl_keep={nl_keep} outside 1 .. {nl}")
    h = block.factor
    n = h.shape[1] // 2
    halves = (h[0::2, :n], h[1::2, n:]) if block.m == 0 else (h,)
    # each half has one row per degree l at m = 0, the whole factor two
    rows_kept = (1 if block.m == 0 else 2) * (nl if nl_keep is None else nl_keep)

    vals = np.zeros(2)
    for f in halves:
        try:
            vals += _logdet_and_lead(f, rows_kept)
        except np.linalg.LinAlgError:
            raise SpectralAnomalyError(
                f"I - M is not positive definite in block m={block.m}, "
                f"kappa={block.kappa}; l_max too small or scattering bug") from None
    if not np.all(np.isfinite(vals)):
        raise NumericsError(
            f"non-finite factorisation in block m={block.m}, kappa={block.kappa}")
    if vals.max() > _LOGDET_POSITIVE_TOL:
        raise SpectralAnomalyError(
            f"ln det(I - M) = {vals.max()} > 0 for block m={block.m}, kappa={block.kappa}; "
            "l_max too small or scattering bug", error_estimate=float(vals.max()))
    full, kept = float(vals[0]), float(vals[1])
    return full if nl_keep is None else (full, kept)


def _mode_sum(kappa, sphere, plane, l_max, m_max, theta_nodes, rel_tol):
    """F(kappa) = sum_m ln det(I - M_m) with the m <-> -m doubling.

    Also returns the same sum on the principal submatrix with l_drop =
    max(4, l_max // 8) fewer degrees (the l-truncation probe), a geometric
    m-tail estimate and the last m summed.  The tail comes from the last two
    blocks, both when the m sum stops and when it ends at m_max < l_max; it
    is 0 when the sum runs to m = l_max, past which there are no blocks.
    The kappa-only part of the blocks is computed once, in one shared
    :class:`KappaTable`.
    """
    l_drop = max(4, l_max // 8)
    table = KappaTable.build(kappa, sphere, plane, l_max, theta_nodes)
    total = 0.0
    total_sub = 0.0
    contribs = []
    for m in range(0, min(m_max, l_max) + 1):
        block = assemble_block(m, table)
        weight = 1.0 if m == 0 else 2.0
        nl = block.dim // 2
        full, sub = logdet_one_minus(block, max(1, nl - l_drop))
        c = weight * full
        total += c
        total_sub += weight * sub
        contribs.append(abs(c))
        # inclusive, so a node whose blocks all give ln det = 0 stops at m = 4
        if m >= 4 and abs(c) <= 0.25 * rel_tol * abs(total):
            break
    else:
        if m_max >= l_max:
            return total, total_sub, 0.0, m
    ratio = min(contribs[-1] / contribs[-2], 0.9) if contribs[-2] > 0.0 else 0.0
    return total, total_sub, contribs[-1] * ratio / (1.0 - ratio), m


def _auto_l_max(d):
    """Starting l_max for the gap d (in units of R)."""
    return min(int(math.ceil(6.0 / d)) + 10, _L_MAX_CEILING)


def _theta_nodes(l_max):
    """The rapidity-node count every kappa node is evaluated with at this l_max.

    The rapidity integrand of the highest angular orders peaks near
    u = 2 l_max, so the count grows with l_max from a floor of 40 up to the
    ceiling of 192.
    """
    return min(max(_THETA_NODE_FLOOR, l_max // 2 + 24), _THETA_NODE_CEILING)


def _kappa_rule(n):
    """Level n of the nested rule for int_0^inf g(x) dx: nodes x, weights.

    Fejer's second rule on s = cos(k pi / n), k = 1 .. n-1, mapped by
    x = a (1 + s)/(1 - s) = a cot^2(k pi / 2n); the weights carry the
    Jacobian dx/ds = a / (2 sin^4(k pi / 2n)).  Level 2n holds every node of
    level n (k -> 2k) and adds n new ones.  The far nodes reach
    x ~ 4 a n^2 / pi^2.
    """
    k = np.arange(1, n)
    t = k * math.pi / n
    j = np.arange(1, n // 2 + 1)
    w_s = 4.0 / n * np.sin(t) * (np.sin(np.outer(t, 2 * j - 1)) / (2 * j - 1)).sum(axis=1)
    x = _KAPPA_MAP_SCALE / np.tan(0.5 * t) ** 2
    return x, w_s * _KAPPA_MAP_SCALE / (2.0 * np.sin(0.5 * t) ** 4)


def _quadrature_pass(n_kappa, d, prev, mode_args):
    """Level n_kappa of the kappa rule, with kappa = x / (2 d).

    Returns E, the l- and m-truncation estimates, the largest m any node
    used, and the level's nodes x, weights and ``_mode_sum(kappa,
    *mode_args)`` rows.  ``prev`` holds the rows of level n_kappa / 2, or is
    empty: node k of this level is node k / 2 of that one for every even k,
    so only the odd k are evaluated then.
    """
    x, w = _kappa_rule(n_kappa)
    rows = [prev[k // 2 - 1] if prev and k % 2 == 0
            else _mode_sum(x[k - 1] / (2.0 * d), *mode_args) for k in range(1, n_kappa)]
    f, f_sub, m_tail, m_used = (np.array(col) for col in zip(*rows))
    pref = 1.0 / (2.0 * math.pi) / (2.0 * d)
    return (pref * (w @ f), pref * abs(w @ (f - f_sub)), pref * (w @ m_tail),
            int(m_used.max()), x, w, rows)


def casimir_energy(sphere: SphereSheet, plane: PlaneSheet,
                   numerics: NumericsSpec = NumericsSpec()) -> EnergyResult:
    """Exact sphere-plane Casimir interaction energy.

    The kappa integral runs over x = 2 kappa (L-R) (the integrand decays on
    the gap scale, not L) with a nested rule: Fejer's second rule mapped
    onto 0 < x < inf by x = 3 (1+s)/(1-s).  Level n has n - 1 nodes, and
    level 2n reuses all of them and adds n new ones, so each node is
    evaluated once per l_max.  The first level is ``kappa_nodes``; the level
    doubles, up to 128, until two levels agree within rel_tol/4, their
    difference being the kappa error estimate, and ``kappa_nodes_used`` is
    the last level.  l_max grows until the last increment is below
    rel_tol/4.  At each node the m sum stops at the first m >= 4 whose
    block contributes at most rel_tol/4 of the running total, so a node
    whose blocks all give ln det = 0 stops at m = 4; ``m_max_used`` is the
    largest m any node of the last level reached.  The rapidity-node count
    follows l_max (:func:`_theta_nodes`) and is checked at the node with the
    largest weighted |F|.  The kappa, l, m and theta estimates add up to
    error_estimate, which must be at most rel_tol |E|.

    Returns energy in units hbar c per unit length of the inputs, alongside
    the dimensionless E d^2/(hbar c R).
    """
    R, L = sphere.radius_R, plane.distance_L
    if not (L > R):
        raise ValueError(f"need L > R, got L={L}, R={R}")
    if sphere.omega_s == 0.0 or plane.omega_p == 0.0:
        return EnergyResult(0.0, 0.0, 0.0, 0, 0, 0)

    # dimensionless core: R = 1
    s1 = SphereSheet(radius_R=1.0, omega_s=varpi(sphere.omega_s, R))
    p1 = PlaneSheet(omega_p=varpi(plane.omega_p, R), distance_L=L / R)
    d = L / R - 1.0

    auto_l = numerics.l_max == "auto"
    l_max = _auto_l_max(d) if auto_l else numerics.l_max

    for _growth in range(4):
        if l_max > _L_MAX_CEILING:
            raise NumericsError(f"l_max cap {_L_MAX_CEILING} exceeded (needed {l_max})")
        m_max = l_max if numerics.m_max == "auto" else numerics.m_max
        theta_nodes = _theta_nodes(l_max)
        mode_args = (s1, p1, l_max, m_max, theta_nodes, numerics.rel_tol)

        n = numerics.kappa_nodes
        level = _quadrature_pass(n, d, [], mode_args)
        err_k = math.inf
        while 2 * n <= _KAPPA_NODE_CEILING:
            n *= 2
            e_prev = level[0]
            level = _quadrature_pass(n, d, level[-1], mode_args)
            err_k = abs(level[0] - e_prev)
            if err_k <= 0.25 * numerics.rel_tol * abs(level[0]):
                break
        e_hat, err_l, err_m, m_used, x, w, rows = level

        if not auto_l or err_l <= 0.25 * numerics.rel_tol * abs(e_hat):
            break
        l_max = min(l_max + max(10, l_max // 3), _L_MAX_CEILING + 1)
    else:
        raise NumericsError(
            f"l_max growth did not converge; last increment estimate {err_l} "
            f"vs target {0.25 * numerics.rel_tol * abs(e_hat)}", error_estimate=err_l)

    # theta-node check at the dominant kappa node
    f_vals = np.array([row[0] for row in rows])
    i_peak = int(np.argmax(np.abs(w * f_vals)))
    probe_nodes = min(2 * theta_nodes, _THETA_NODE_CEILING)
    if probe_nodes == theta_nodes:
        probe_nodes -= 16
    f2, _, _, _ = _mode_sum(x[i_peak] / (2.0 * d), s1, p1, l_max, m_max, probe_nodes,
                            numerics.rel_tol)
    rel_theta = abs(f2 - f_vals[i_peak]) / max(abs(f_vals[i_peak]), 1e-300)
    err_theta = rel_theta * abs(e_hat)

    error = err_k + err_l + err_m + err_theta
    if e_hat >= 0.0:
        raise SpectralAnomalyError(f"non-negative energy {e_hat} from valid inputs")
    if error > numerics.rel_tol * abs(e_hat):
        raise NumericsError(
            f"energy not converged: error estimate {error:.3e} vs allowed "
            f"{numerics.rel_tol * abs(e_hat):.3e} "
            f"(kappa {err_k:.1e}, l {err_l:.1e}, m {err_m:.1e}, theta {err_theta:.1e})",
            error_estimate=error)

    return EnergyResult(
        energy=float(e_hat / R),
        energy_dimensionless=float(e_hat * d * d),
        error_estimate=float(error / R),
        l_max_used=l_max,
        m_max_used=m_used,
        kappa_nodes_used=n,
    )
