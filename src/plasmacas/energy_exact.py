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
from ._quadrature import rapidity_rule

_D_MIN = 0.01  # smallest d/R of the multipole path
_KAPPA_NODE_CEILING = 128  # finest kappa level n (n - 1 nodes)
_KAPPA_MAP_SCALE = 3.0  # x = a (1 + s)/(1 - s): half of every level lies below x = a
_THETA_PANEL_FLOOR = 5  # 8-point panels, so at least 40 rapidity nodes
_LOGDET_POSITIVE_TOL = 1e-12
_RATIO_CAP = 0.9  # largest m-block ratio the geometric tail extrapolates with
_TAIL_FLOOR = 0.05  # share of a steady m tail counted as its error (see _geometric_tail)
_STACK_BYTES = 4 << 20  # m = 0 factors H of one stack of kappa nodes (see _mode_sums)


@dataclass(frozen=True)
class NumericsSpec:
    """The truncation knobs a caller sets.

    l_max (at least 2, so the l probe has a degree to drop) and m_max (at
    least 1) may be "auto"; rel_tol, in (0, 1), applies to the
    dimensionless core value E R / (hbar c).  The rapidity rule follows
    l_max (see :func:`_theta_rule`).
    """

    l_max: int | str = "auto"
    m_max: int | str = "auto"
    kappa_nodes: int = 16
    rel_tol: float = 1e-3

    def __post_init__(self):
        for name, low in (("l_max", 2), ("m_max", 1)):
            v = getattr(self, name)
            if v != "auto" and (type(v) is not int or v < low):  # a bool is not a count
                raise ValueError(f"{name} must be an integer >= {low} or 'auto', got {v!r}")
        # the kappa rule needs room for one doubling below its ceiling
        top = _KAPPA_NODE_CEILING // 2
        if not isinstance(self.kappa_nodes, int) or not 8 <= self.kappa_nodes <= top:
            raise ValueError(f"kappa_nodes must be an integer in 8 .. {top}, "
                             f"got {self.kappa_nodes!r}")
        if not 0.0 < self.rel_tol < 1.0:  # also rejects nan
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")


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
    """ln det(I - F F^T) and ln det(I - F_k F_k^T) of each factor of a stack.

    ``f`` is (K, rows, cols), F_k the first ``kept`` rows; one value pair
    per factor.  One Cholesky factorisation of the smaller of two matrices
    with the same determinant.  The l side is I - F F^T, whose leading
    ``kept`` pivots give the sub-block value.  The theta side is the
    bordered matrix K = [[I - F_k^T F_k, F_d^T], [F_d, I]], F_d the dropped
    rows: its Schur complement on the lower-right I is I - F^T F, so
    det K = det(I - F F^T) (Sylvester), and its leading pivots, one per
    column of F, give det(I - F_k^T F_k) = det(I - F_k F_k^T).
    """
    nodes, rows, cols = f.shape
    dropped = rows - kept
    if cols + dropped < rows:
        size, lead = cols + dropped, cols
        fk, fd = f[:, :kept], f[:, kept:]
        a = np.zeros((nodes, size, size))
        a[:, :cols, :cols] = -(np.swapaxes(fk, 1, 2) @ fk)
        a[:, cols:, :cols] = fd
        a[:, :cols, cols:] = np.swapaxes(fd, 1, 2)
    else:
        size, lead = rows, kept
        a = -(f @ np.swapaxes(f, 1, 2))
    a.reshape(nodes, -1)[:, ::size + 1] += 1.0
    chol = np.diagonal(np.linalg.cholesky(a), axis1=1, axis2=2)
    lds = 2.0 * np.cumsum(np.log(chol), axis=1)
    return lds[:, -1], lds[:, lead - 1]


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
    does a result above round-off past 0, which M = H H^T rules out; either
    error, and a non-finite result, names the first kappa node at fault.

    With ``nl_keep`` the call returns the pair (full value, value of the
    leading principal sub-block that keeps the first ``nl_keep`` degrees l),
    both read off the one factorisation; the sub-block value is the
    l-truncation probe.  A stacked block (3-D factor) gives one value per
    node, as arrays; a 2-D factor gives floats.
    """
    nl = block.dim // 2
    if nl_keep is not None and not 1 <= nl_keep <= nl:
        raise ValueError(f"nl_keep={nl_keep} outside 1 .. {nl}")
    h = block.factor if block.factor.ndim == 3 else block.factor[None]
    kappa = np.atleast_1d(block.kappa)
    n = h.shape[2] // 2
    halves = (h[:, 0::2, :n], h[:, 1::2, n:]) if block.m == 0 else (h,)
    # each half has one row per degree l at m = 0, the whole factor two
    rows_kept = (1 if block.m == 0 else 2) * (nl if nl_keep is None else nl_keep)

    vals = np.zeros((len(h), 2))
    for f in halves:
        try:
            vals += np.column_stack(_logdet_and_lead(f, rows_kept))
        except np.linalg.LinAlgError:
            # numpy does not say which matrix of a stack failed
            bad = 0 if len(f) == 1 else next(
                i for i in range(len(f)) if not _factorises(f[i:i + 1], rows_kept))
            raise SpectralAnomalyError(
                f"I - M is not positive definite in block m={block.m}, "
                f"kappa={kappa[bad]}; l_max too small or scattering bug") from None
    finite = np.isfinite(vals).all(axis=1)
    if not finite.all():
        raise NumericsError(f"non-finite factorisation in block m={block.m}, "
                            f"kappa={kappa[np.argmin(finite)]}")
    worst = vals.max(axis=1)
    if worst.max() > _LOGDET_POSITIVE_TOL:
        bad = int(np.argmax(worst > _LOGDET_POSITIVE_TOL))
        raise SpectralAnomalyError(
            f"ln det(I - M) = {worst[bad]} > 0 for block m={block.m}, kappa={kappa[bad]}; "
            "l_max too small or scattering bug", error_estimate=float(worst[bad]))
    full, kept = (vals[:, 0], vals[:, 1]) if block.factor.ndim == 3 else map(float, vals[0])
    return full if nl_keep is None else (full, kept)


def _factorises(f, kept) -> bool:
    try:
        _logdet_and_lead(f, kept)
    except np.linalg.LinAlgError:
        return False
    return True


def _mode_sums(kappa, sphere, plane, l_max, m_max, theta_rule, rel_tol):
    """The (4, K) record of the K kappa nodes ``kappa`` (1-D): rows F, F_sub, m error, m used.

    F(kappa) = sum_m ln det(I - M_m) with the m <-> -m doubling, its
    geometric m tail included.  Also returned: the same sum on the
    principal submatrix with l_drop = max(4, l_max // 8) fewer degrees (the
    l-truncation probe), the uncertainty of the m tail (the m error) and
    the last m summed.  The rapidity rule is that of
    ``theta_rule`` = (panels, v_max).  The nodes are evaluated level-major:
    in chunks, each one :class:`KappaTable` with a leading node axis and
    one stacked block per m (:func:`_chunk_mode_sums`), so the per-call
    cost of numpy is paid once per chunk instead of once per node.  A chunk
    holds as many nodes as keep their m = 0 factors H within _STACK_BYTES,
    4 MiB.  That bounds the largest array of the chunk, not its working
    set: while block m is assembled, block m-1's H is still held, and the
    new H comes with its two angular log arrays, one exponent buffer and up
    to three Legendre ladders, each a quarter of H.  Dropping block m-1 first
    was no faster and saved 0.3 of 50.7 MB (PC d/R = 0.1 and 0.05, medians
    of 30 alternating rounds: 0.309 s held, 0.317 s dropped).  The numpy peak
    of one PC d/R = 0.02 point (tracemalloc, H of 555 kB per node, 7 nodes
    per chunk) is 13.3 MB, 3.3 times the budget.  Measured on a 2-core Xeon
    (AVX-512) with one BLAS thread, medians of 5 rounds that spread by about
    10%: a pass over PC d/R = 0.1 and 0.05 (H of 90 and 166 kB per node)
    took 0.42 s at 1 MiB, 0.39 s at 2 MiB, 0.37 s at 4 MiB and 0.38 s at
    8 MiB, with a peak RSS of 37.6, 41.1, 44.0 and 44.0 MB.  PC d/R = 0.02
    took 1.9-2.1 s at 1 MiB, 1.4-1.7 s at 2 MiB, 1.6-1.7 s at 4 MiB and
    8 MiB, and peaked at 37.6, 38.4, 46.6 and 66.2 MB; PC d/R = 0.01 (1.4 MB
    per node: 1, 2 and 5 nodes per chunk) took 10.0, 10.1 and 10.7 s at 2, 4
    and 8 MiB and peaked at 45.0, 45.1 and 58.8 MB.  4 MiB stays because no
    size is faster on the d/R = 0.1 and 0.05 pass; 2 MiB is faster and
    smaller at d/R = 0.02 only.
    """
    rule = rapidity_rule(*theta_rule)
    per_node = 8 * (2 * l_max) * (2 * rule[0].size)
    size = max(1, _STACK_BYTES // per_node)
    tables = (KappaTable.build(kappa[start:start + size], sphere, plane, l_max, rule)
              for start in range(0, len(kappa), size))
    return np.hstack([_chunk_mode_sums(table, m_max, rel_tol) for table in tables])


def _chunk_mode_sums(table, m_max, rel_tol):
    """The (4, K) record of :func:`_mode_sums` for the K nodes of ``table``.

    After each block, a node's geometric m tail T and its uncertainty are
    taken from its last three blocks (:func:`_geometric_tail`).  The m sum
    stops per node at the first m >= 4 where that uncertainty is at most
    rel_tol/4 of the node's partial sum, so a node whose blocks all give
    ln det = 0 stops at m = 4 with the record (0, 0, 0, 4).  F and F_sub
    are the partial sums minus T (blocks are negative; the same T in both
    leaves their difference, the l probe, as it was), and row 2 is the
    uncertainty of T, the m error.  A sum that ends at m_max < l_max is
    recorded the same way; one that runs to m = l_max has T = 0 and error
    0, since there are no blocks past l_max.  A node that stops leaves the
    stack, and later blocks and the cached ladders hold only the nodes
    still summing.  A node's column is written when it stops, bit-identical
    to that of the node alone.
    """
    l_max = table.l_max
    l_drop = max(4, l_max // 8)
    top = min(m_max, l_max)
    nodes = len(table.c)
    rows = np.empty((4, nodes))
    active = np.arange(nodes)
    total = total_sub = last = before = np.zeros(nodes)
    for m in range(top + 1):
        block = assemble_block(m, table)
        full, sub = logdet_one_minus(block, max(1, block.dim // 2 - l_drop))
        weight = 1.0 if m == 0 else 2.0
        c = weight * full
        total = total + c
        total_sub = total_sub + weight * sub
        earlier, before, last = before, last, np.abs(c)
        tail, err = _geometric_tail(last, before, earlier)
        # inclusive, so a node whose blocks all give ln det = 0 stops at m = 4
        stop = (err <= 0.25 * rel_tol * np.abs(total)) & (m >= 4)
        done = stop | (m == top)
        if done.any():
            if m == l_max:  # no blocks past l_max
                tail = err = np.zeros_like(total)
            record = np.stack([total - tail, total_sub - tail, err, np.full_like(total, m)])
            rows[:, active[done]] = record[:, done]
            if done.all():
                break
            keep = ~done
            table, active = table.take(keep), active[keep]
            total, total_sub = total[keep], total_sub[keep]
            last, before = last[keep], before[keep]
    return rows


def _geometric_tail(last, before, earlier):
    """The m tail past the last block, and its uncertainty (arrays, >= 0).

    ``last``, ``before`` and ``earlier`` are |block| at m, m-1 and m-2.  The
    tail is T = last r/(1 - r), r = last/before capped at 0.9.  T' applies
    the earlier ratio r' = before/earlier to ``last``; |T - T'| is the first
    order change of T with the ratio.  While the ratio is steady the
    uncertainty is |T - T'| + 0.05 T; otherwise (r at the cap, no earlier
    block, or r > r', where the geometric tail falls short if the ratio
    keeps rising) it is T itself.  The 5% floor covers the second order: a
    ratio that drifts by D per block moves the true tail from T by about
    last D/(1 - r)^3, which is 1/(1 - r) times |T - T'|.  Against the m sum
    run to l_max at the same l_max, kappa level and rapidity rule, on all
    12 benchmark points at rel_tol 1e-3, the largest per-node ratio of the
    tail's miss to the uncertainty was 1.47 with the floor at 2%, 0.92 at
    5% and 0.57 at 10% (nodes with |F| < 1e-10, whose last blocks are
    round-off, left out), and the integrated miss was 0.53, 0.34 and 0.22
    of err_m.
    """
    ratio = _capped_ratio(last, before)
    tail = last * ratio / (1.0 - ratio)
    prior = _capped_ratio(before, earlier)
    steady = (earlier > 0.0) & (ratio < _RATIO_CAP) & (ratio <= prior)
    drift = np.abs(tail - last * prior / (1.0 - prior))
    return tail, np.where(steady, drift + _TAIL_FLOOR * tail, tail)


def _capped_ratio(num, den):
    """num/den capped at _RATIO_CAP, and 0 where den is 0."""
    return np.minimum(np.divide(num, den, out=np.zeros_like(num), where=den > 0.0), _RATIO_CAP)


def _auto_l_max(d):
    """Starting l_max for the gap d (in units of R)."""
    return int(math.ceil(6.0 / d)) + 10


def _theta_rule(l_max):
    """(panels, v_max) of the rapidity rule every kappa node uses at this l_max.

    The rule is composite 8-point Gauss-Legendre in v = sqrt(u) on
    [0, v_max] (``_quadrature.rapidity_rule``).  Row l of H carries
    Pbar_l^m(c) ~ c^l with c = 1 + u/(2 kappa L), so the integrand of the
    highest row is about e^{g}, g = -u + 2 l_max ln(2 kappa L + u).  It
    peaks at u = 2 l_max - 2 kappa L <= 2 l_max, i.e. at
    v* <= sqrt(2 l_max), with curvature g'' = -2 v*^2 / l_max in v.  That
    is sharpest, -4, as kappa L -> 0, a Gaussian of width 1/2:
    g(v* + dv) - g(v*) = -2 dv^2 + (2/3) dv^3 / v* - ...  At dv = 6 that is
    e^{-72} at large l_max and still below e^{-58} at l_max = 20, so
    v_max = sqrt(2 l_max) + 6 cuts nothing a double can hold, with room for
    the polynomial prefactors that move the peak by O(1/v*).  The panel
    width of at most 5 and the floor of 5 panels are measured, not derived.
    Since every row's peak is narrowest at small kappa, the rule is weakest
    at the smallest kappa node, and the driver's theta probe runs there.
    The node count grows like sqrt(l_max), not like l_max.
    """
    v_max = math.sqrt(2.0 * l_max) + 6.0
    return max(_THETA_PANEL_FLOOR, math.ceil(v_max / 5.0)), v_max


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
    used, the level's nodes x and its (4, n_kappa - 1) record, rows F,
    F_sub, m error, m used.  ``prev`` is the record of level n_kappa / 2, or
    None: node k of this level is node k / 2 of that one for every even k,
    so only the odd k are evaluated then, all in one ``_mode_sums`` call.
    """
    x, w = _kappa_rule(n_kappa)
    if prev is None:
        rows = _mode_sums(x / (2.0 * d), *mode_args)
    else:
        rows = np.empty((4, x.size))
        rows[:, ::2] = _mode_sums(x[::2] / (2.0 * d), *mode_args)
        rows[:, 1::2] = prev
    f, f_sub, m_err, m_used = rows
    pref = 1.0 / (2.0 * math.pi) / (2.0 * d)
    return (pref * (w @ f), pref * abs(w @ (f - f_sub)), pref * (w @ m_err),
            int(m_used.max()), x, rows)


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
    rel_tol/4.  At each node the geometric tail of the m sum is added to
    the sum, and the m sum stops at the first m >= 4 where that tail's
    uncertainty is at most rel_tol/4 of the partial sum, so a node whose
    blocks all give ln det = 0 stops at m = 4; ``m_max_used`` is the
    largest m any node of the last level reached, and the m estimate is
    the integral of the tails' uncertainties.  The rapidity rule follows
    l_max (:func:`_theta_rule`) and is checked at the smallest kappa node,
    where it is weakest: F there is recomputed on twice the panels and
    1.25 v_max, and the relative change, times |E|, is the theta estimate.
    The kappa, l, m and theta estimates add up to error_estimate, which
    must be at most rel_tol |E|.  Gaps below d/R = 0.01 are outside the
    supported domain and raise :class:`NumericsError` before any block is
    built.  The limit is one of cost, not of convergence: at the default
    rel_tol, PC d/R = 0.0075 and 0.005 converge (error 3.2e-4 of |E|) in
    20 s and 50 s with one BLAS thread on a 2-core Intel Xeon.

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
    if d < _D_MIN * (1.0 - 1e-9):  # slack for the rounding of L/R - 1
        raise NumericsError(f"d/R = {d:.3g} is below the smallest supported gap "
                            f"d/R = {_D_MIN} of the multipole path")

    auto_l = numerics.l_max == "auto"
    l_max = _auto_l_max(d) if auto_l else numerics.l_max

    for _growth in range(4):
        m_max = l_max if numerics.m_max == "auto" else numerics.m_max
        panels, v_max = _theta_rule(l_max)
        mode_args = (s1, p1, l_max, m_max, (panels, v_max), numerics.rel_tol)

        n = numerics.kappa_nodes
        level = _quadrature_pass(n, d, None, mode_args)
        err_k = math.inf
        while 2 * n <= _KAPPA_NODE_CEILING:
            n *= 2
            e_prev = level[0]
            level = _quadrature_pass(n, d, level[-1], mode_args)
            err_k = abs(level[0] - e_prev)
            if err_k <= 0.25 * numerics.rel_tol * abs(level[0]):
                break
        e_hat, err_l, err_m, m_used, x, rows = level

        if not auto_l or err_l <= 0.25 * numerics.rel_tol * abs(e_hat):
            break
        l_max += max(10, l_max // 3)
    else:
        raise NumericsError(
            f"l_max growth did not converge; last increment estimate {err_l} "
            f"vs target {0.25 * numerics.rel_tol * abs(e_hat)}", error_estimate=err_l)

    # rapidity-rule check at the smallest kappa node, where the rule is weakest
    i_min = int(np.argmin(x))
    f_min = rows[0, i_min]
    f2 = _mode_sums(x[i_min:i_min + 1] / (2.0 * d), s1, p1, l_max, m_max,
                    (2 * panels, 1.25 * v_max), numerics.rel_tol)[0, 0]
    err_theta = abs(f2 - f_min) / max(abs(f_min), 1e-300) * abs(e_hat)

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
