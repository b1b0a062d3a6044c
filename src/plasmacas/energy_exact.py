"""Exact Casimir interaction energy from the round-trip determinant.

E = (hbar c / 2 pi) int_0^infty dkappa sum_m ln det(I - M_m(kappa))

with automatic truncation control in l, m and the kappa quadrature.  The
core works in units R = 1, hbar c = 1 (everything depends only on kappa R,
Omega R and L/R); results are reported per unit of the caller's length unit
together with the dimensionless combination E d^2 / (hbar c R).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericsError, SpectralAnomalyError
from .roundtrip import KappaTable, RoundTripBlock, _squared_norms, assemble_block
from .scattering import PlaneSheet, SphereSheet, varpi
from ._quadrature import rapidity_rule

_D_MIN = 0.01  # smallest d/R of the multipole path
_KAPPA_NODE_CEILING = 128  # finest kappa level n (n - 1 nodes) of F; that of T is at most 2n
_KAPPA_MAP_SCALE = 3.0  # x = a (1 + s)/(1 - s): half of every level lies below x = a
_THETA_PANEL_FLOOR = 4  # 8-point panels, so at least 32 rapidity nodes
_THETA_PANEL_STEPS = 4  # panels the theta probe may add, one per re-run
_L_MAX_GROWTHS = 3  # l_max raises the l probe may ask for
_LOGDET_POSITIVE_TOL = 1e-12
_STACK_BYTES = 4 << 20  # m = 0 factors H of one stack of kappa nodes (see _mode_sums)


def _is_count(v) -> bool:
    """An integer of any type, numpy's included; a bool is not a count."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class NumericsSpec:
    """The truncation knobs a caller sets.

    l_max (at least 2, so the l probe has a degree to drop) may be "auto";
    kappa_nodes, in 8 .. 64, is the first kappa level of F, the one the
    control variate's estimate starts from (see :func:`casimir_energy`);
    rel_tol, in (0, 1), applies to the dimensionless core value
    E R / (hbar c).  The rapidity rule follows l_max (see
    :func:`_theta_rule`), and each kappa node's m cutoff follows rel_tol
    (see :func:`_chunk_mode_sums`).  The counts may be any integer type but
    bool, and are kept as Python ints.
    """

    l_max: int | str = "auto"
    kappa_nodes: int = 8
    rel_tol: float = 1e-3

    def __post_init__(self):
        if self.l_max != "auto" and not (_is_count(self.l_max) and self.l_max >= 2):
            raise ValueError(f"l_max must be an integer >= 2 or 'auto', got {self.l_max!r}")
        # F's kappa rule needs room for one doubling below its ceiling
        top = _KAPPA_NODE_CEILING // 2
        if not (_is_count(self.kappa_nodes) and 8 <= self.kappa_nodes <= top):
            raise ValueError(f"kappa_nodes must be an integer in 8 .. {top}, "
                             f"got {self.kappa_nodes!r}")
        for name in ("l_max", "kappa_nodes"):  # np.int64 -> int, as the results report them
            if getattr(self, name) != "auto":
                object.__setattr__(self, name, int(getattr(self, name)))
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


def _logdet(f):
    """ln det(I - F F^T) of each factor F of a stack ``f``, (K, rows, cols).

    One Cholesky factorisation of the smaller of I - F F^T and
    I - F^T F, which have the same determinant (Sylvester).
    """
    ft = np.swapaxes(f, 1, 2)
    a = -(f @ ft if f.shape[1] <= f.shape[2] else ft @ f)
    a.reshape(len(a), -1)[:, ::a.shape[1] + 1] += 1.0
    chol = np.diagonal(np.linalg.cholesky(a), axis1=1, axis2=2)
    return 2.0 * np.log(chol).sum(axis=1)


def logdet_one_minus(block: RoundTripBlock):
    """ln det(I - M_m) <= 0 from a round-trip block M = H H^T.

    One Cholesky factorisation (LAPACK potrf through numpy) of whichever
    side of det(I - H H^T) = det(I - H^T H) is smaller (see
    :func:`_logdet`): I - H H^T, of size 2 n_l, or I - H^T H, of size
    2 n_theta.  The rule depends on the block's shape alone.  H carries the
    block scale and its entries are below 1 (see :class:`RoundTripBlock`),
    so nothing is rescaled here.  At m = 0, H is block-diagonal (TE rows on
    the first n_theta columns, TM rows on the last), so the TE and TM
    halves are factorised separately, each by the same rule.  On the
    imaginary axis I - M is symmetric positive definite, so a failed
    factorisation (an eigenvalue of M at or past 1) raises
    :class:`SpectralAnomalyError`, as does a result above round-off past 0,
    which M = H H^T rules out; either error, and a non-finite result, names
    the first kappa node at fault.  A stacked block (3-D factor) gives one
    value per node, as an array; a 2-D factor gives a float.
    """
    h = block.factor if block.factor.ndim == 3 else block.factor[None]
    kappa = np.atleast_1d(block.kappa)
    n = h.shape[2] // 2
    halves = (h[:, 0::2, :n], h[:, 1::2, n:]) if block.m == 0 else (h,)

    vals = np.zeros(len(h))
    for f in halves:
        try:
            vals += _logdet(f)
        except np.linalg.LinAlgError:
            # numpy does not say which matrix of a stack failed
            bad = 0 if len(f) == 1 else next(
                i for i in range(len(f)) if not _factorises(f[i:i + 1]))
            raise SpectralAnomalyError(
                f"I - M is not positive definite in block m={block.m}, "
                f"kappa={kappa[bad]}; l_max too small or scattering bug") from None
    finite = np.isfinite(vals)
    if not finite.all():
        raise NumericsError(f"non-finite factorisation in block m={block.m}, "
                            f"kappa={kappa[np.argmin(finite)]}")
    if vals.max() > _LOGDET_POSITIVE_TOL:
        bad = int(np.argmax(vals > _LOGDET_POSITIVE_TOL))
        raise SpectralAnomalyError(
            f"ln det(I - M) = {vals[bad]} > 0 for block m={block.m}, kappa={kappa[bad]}; "
            "l_max too small or scattering bug", error_estimate=float(vals[bad]))
    return vals if block.factor.ndim == 3 else float(vals[0])


def _factorises(f) -> bool:
    try:
        _logdet(f)
    except np.linalg.LinAlgError:
        return False
    return True


def _mode_sums(kappa, sphere, plane, l_max, theta_rule, m_tol, trace_only=None):
    """The (5, K) record of the K kappa nodes ``kappa`` (1-D): rows F, l probe, m error, m used, T.

    F(kappa) = sum_m ln det(I - M_m) with the m <-> -m doubling, the trace
    of the blocks not summed taken off it.  Also returned: the m-summed
    trace of the top l_drop = max(4, l_max // 8) degrees (the l-truncation
    probe), the bound on the rest of the m tail (the m error) and the last
    m summed, -1 where no block was needed, and T, the m-summed trace of
    every degree.  A node's m sum stops once its m error is at most
    ``m_tol`` |F|.  The nodes that ``trace_only`` (a (K,) bool mask, or
    None for none) marks stop before block 0 whatever their m error: their
    column is that of a weak node, F = -T with m error U (see
    :func:`_chunk_mode_sums`), and only T and the l probe are theirs.  The
    rapidity rule is that of ``theta_rule`` = (panels, v_max).  The nodes
    are evaluated level-major:
    in chunks, each one :class:`KappaTable` with a leading node axis and
    one stacked block per m (:func:`_chunk_mode_sums`), so the per-call
    cost of numpy is paid once per chunk instead of once per node.  The
    nodes go into the fewest chunks whose m = 0 factors H fit within
    _STACK_BYTES, 4 MiB, each, split as evenly as those allow.  A
    trace-only node counts as a whole node: the trace step holds an
    m-summed factor the size of block 0's H for every node of the chunk.
    The first pass of PC d/R = 0.05, the 31 nodes of kappa level 32 at
    166 kB each (blocks on 15 of them), runs as 16 + 15 nodes, not 25 + 6,
    which keeps the peak RSS of a d/R = 0.1 and 0.05 pass 3.2 MB lower
    (38.2 against 41.3-41.5 MB, 3 rounds).  The budget bounds the largest
    array of a chunk, not its working
    set: while block m is assembled, block m-1's H is still held, and the
    new H comes with its two angular log arrays, one exponent buffer and up
    to three Legendre ladders, each a quarter of H.  The trace step before
    block 0 holds the m-summed factor, the size of block 0's H, with its
    exponent buffer and two log arrays of a quarter each, and lets them
    go before block 0.  Dropping block m-1 first
    was no faster and saved 0.1 of 39.4 MB (PC d/R = 0.1 and 0.05, one
    process per round, the median of 5 passes each, medians of 20
    alternating rounds: 0.141 s held, 0.147 s dropped; measured when every
    node of the pass had blocks).  The numpy peak of one PC d/R = 0.02
    point (tracemalloc, H of 555 kB per node, at most 7 nodes per chunk)
    is 9.2 MB, 2.2 times the budget; its trace step peaks at 7.0 MB above
    what the chunk held before it.  Measured on a 2-core Xeon (AVX-512)
    with one BLAS thread, each size in its own process, medians of 5
    interleaved rounds: a pass over PC d/R = 0.1 and 0.05 (H of 72 and
    166 kB per node; the median of 5 passes per process) took 0.094 s at
    1 MiB, 0.085 s at 2 MiB, 0.060 s at 4 MiB and 0.061 s at 8 MiB, its
    rounds spreading over 0.056-0.104 s, with a peak RSS of 34.7, 37.0,
    38.2 and 44.1 MB.  PC d/R = 0.02 (3 rounds) took 0.91, 0.59, 0.52 and
    0.55 s and peaked at 36.8, 38.0, 41.4 and 46.4 MB; PC d/R = 0.01
    (1.4 MB per node: 1, 2 and 5 nodes per chunk; 3 rounds) took 4.07,
    3.83 and 4.18 s at 2, 4 and 8 MiB and peaked at 42.6, 42.6 and
    50.5 MB.  4 MiB stays: no size is faster on the d/R = 0.1 and 0.05
    pass or at d/R = 0.02 and 0.01, and 2 MiB, 3.4 MB smaller at
    d/R = 0.02, is 12% slower there and 6% slower at d/R = 0.01.
    """
    rule = rapidity_rule(*theta_rule)
    per_node = 8 * (2 * l_max) * (2 * rule[0].size)
    chunks = -(-len(kappa) // max(1, _STACK_BYTES // per_node))
    if trace_only is None:
        trace_only = np.zeros(kappa.size, dtype=bool)
    parts = zip(np.array_split(kappa, chunks), np.array_split(trace_only, chunks))
    return np.hstack([_chunk_mode_sums(KappaTable.build(part, sphere, plane, l_max, rule),
                                       m_tol, mask) for part, mask in parts])


def _chunk_mode_sums(table, m_tol, trace_only):
    """The (5, K) record of :func:`_mode_sums` for the K nodes of ``table``.

    The m tail is the trace still to come.  The table gives each node
    T = sum_m (2 - delta_m0) tr M_m over every block m = 0 .. l_max
    (:meth:`KappaTable.m_summed_traces`); after block m the blocks not yet
    summed have the trace R = T - sum_{m' <= m} (2 - delta_m'0) ||H_m'||_F^2.
    Since -ln det(I - M) = tr M + sum_{k >= 2} tr M^k / k, they add
    -R - V to the sum, 0 <= V <= U (:func:`_tail_bound`).  The node takes
    the upper end, F = partial - R, with m error U, not the midpoint: U
    charges every later block with a largest eigenvalue lam = R/w that no
    single block reaches, and against the m sum run to l_max the miss was
    at most 0.5 U at every node of the 12 benchmark points.  The m sum
    stops per node at the first m, or before any block, where
    U <= m_tol |F|; a weak node thus takes F = -T with no block, and
    its m used is -1.  So does every node ``trace_only`` marks, whatever
    its U.  A sum that runs to m = l_max is complete, and its R, round-off
    then, is dropped, so its U is 0.  Row T is the table's T, at every
    node.

    The l probe is T_top, the trace of the degrees
    l_keep < l <= l_max, l_keep = l_max - l_drop (l_drop = max(4,
    l_max // 8), at least one degree kept), over every m, summed from the
    top rows of the m-summed factor, so it is never below 0.  It is a floor
    under what dropping those degrees changes in F: per block, Fischer's
    inequality gives ln det(I - M_kk) - ln det(I - M)
    >= -ln det(I - M_dd) >= tr M_dd for the kept (k) and dropped (d)
    degrees, and the blocks not summed carry their whole trace in F.  At
    the 12 benchmark points, with every m summed, it fell short of that
    change by at most 5.6e-6 of itself at each node of kappa level 32, and
    by 1.2e-6 to 3.9e-6 in the integral.

    A node that stops leaves the stack, and later blocks and the cached
    ladders hold only the nodes still summing.  A node's column is written
    when it stops, bit-identical to that of the node alone.
    """
    l_max = table.l_max
    l_keep = max(1, l_max - max(4, l_max // 8))
    nodes = len(table.c)
    rows = np.empty((5, nodes))
    active = np.arange(nodes)
    total = np.zeros(nodes)
    rest, top = table.m_summed_traces(l_keep)
    rows[4] = rest
    for m in range(-1, l_max + 1):
        if m >= 0:
            block = assemble_block(m, table)
            weight = 1.0 if m == 0 else 2.0
            total = total + weight * logdet_one_minus(block)
            rest = rest - weight * _squared_norms(block.factor)
        # no blocks past l_max: the sum is complete, its rest round-off
        rest = np.maximum(rest, 0.0) if m < l_max else np.zeros_like(total)
        # the next block is m = 0, of weight 1, before any block
        err = _tail_bound(rest, 1.0 if m < 0 else 2.0)
        f = total - rest
        done = (err <= m_tol * np.abs(f)) | (m == l_max)
        if m < 0:
            done |= trace_only
        if done.any():
            record = np.vstack([f, top, err, np.full_like(err, m)])
            rows[:4, active[done]] = record[:, done]
            if done.all():
                break
            keep = ~done
            table, active = table.take(keep), active[keep]
            total, rest, top = total[keep], rest[keep], top[keep]
    return rows


def _tail_bound(rest, weight):
    """U >= V, what the blocks still to come add to the m sum beyond -``rest``.

    ``rest`` is their trace R = sum w tr M_m (w = 2 for m >= 1), and
    ``weight`` the least w among them.  Each later block has its largest
    eigenvalue at most its trace, so at most lam = R / weight, and
    tr M^k <= lam^{k-1} tr M; hence
    V = sum w sum_{k >= 2} tr M^k / k <= R sum_{k >= 2} lam^{k-1} / 2
    = R lam / (2 (1 - lam)).  U is infinite where lam >= 1.
    """
    lam = rest / weight
    return np.divide(rest * lam, 2.0 * (1.0 - lam), out=np.full_like(rest, np.inf),
                     where=lam < 1.0)


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
    width of at most 5 is measured, not derived, and the 4 panels are where
    the rule starts, not a floor: the driver adds panels on its theta probe
    (:func:`casimir_energy`).  Gauss-Legendre panels converge geometrically
    in the panel count for an analytic integrand (Trefethen, SIAM Rev. 50,
    67 (2008)), so one panel more is the step.  At the 12 benchmark points
    (rel_tol 1e-3, kappa level 32), against 12 panels, 4 panels miss E by
    5.6e-8 to 2.8e-6 of |E|, and the probe reads 3.0e-6 to 6.0e-5, under
    its rel_tol/4 share of 2.5e-4, so no point re-runs (PC d/R = 0.05
    starts on 5, by the width rule, and reads 2.3e-5).  3 panels miss by
    1.7e-5 to 9.1e-5, and the probe reads 1.1e-4 to 1.0e-3, past the share
    at 6 of the 12, which would re-run.  The probe over-reports the miss of
    the level 6-54 times at 4 panels, and 3-33 times at 5.  Since every
    row's peak is narrowest at small kappa, the rule is weakest at the
    smallest kappa node, and the probe runs there.  The node count grows
    like sqrt(l_max), not like l_max.
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


@dataclass(frozen=True)
class _Level:
    """One level of the kappa rule: the integral of F, its l and m
    estimates, the integral of T, the nodes x and the (5, K) record, rows
    F, l probe, m error, m used, T."""

    energy: float
    err_l: float
    err_m: float
    trace: float
    x: np.ndarray
    rows: np.ndarray


def _level(x, w, d, rows):
    """The :class:`_Level` of the kappa rule (x, w), with kappa = x / (2 d), from its record."""
    f, top, m_err, _, t = rows
    pref = 1.0 / (2.0 * math.pi) / (2.0 * d)
    return _Level(pref * (w @ f), pref * (w @ top), pref * (w @ m_err), pref * (w @ t), x, rows)


def _quadrature_pass(n_kappa, d, prev, mode_args, trace_only=False):
    """Level n_kappa of the kappa rule, with kappa = x / (2 d), as a :class:`_Level`.

    ``prev`` is the record of level n_kappa / 2, or None: node k of this
    level is node k / 2 of that one for every even k, so only the odd k are
    evaluated then, all in one ``_mode_sums`` call.  With ``trace_only``
    (and no ``prev``), the odd k take T alone and leave the stack before
    block 0, so blocks run only on the even k, level n_kappa / 2: the
    first pass of :func:`casimir_energy`.  Such a level's ``trace`` is its
    own, but its ``energy`` and ``err_m`` count each odd k as a node with
    no block, F = -T with m error U.
    """
    x, w = _kappa_rule(n_kappa)
    if prev is None:
        mask = np.zeros(x.size, dtype=bool)
        mask[::2] = trace_only
        rows = _mode_sums(x / (2.0 * d), *mode_args, mask)
    else:
        rows = np.empty((5, x.size))
        rows[:, ::2] = _mode_sums(x[::2] / (2.0 * d), *mode_args)
        rows[:, 1::2] = prev
    return _level(x, w, d, rows)


def casimir_energy(sphere: SphereSheet, plane: PlaneSheet,
                   numerics: NumericsSpec = NumericsSpec()) -> EnergyResult:
    """Exact sphere-plane Casimir interaction energy.

    The kappa integral runs over x = 2 kappa (L-R) (the integrand decays on
    the gap scale, not L) with a nested rule: Fejer's second rule mapped
    onto 0 < x < inf by x = 3 (1+s)/(1-s).  Level n has n - 1 nodes, and
    level 2n reuses all of them and adds n new ones.  The integrand is
    F = sum_m ln det(I - M_m), and its first-order part -T, with
    T = sum_m (2 - delta_m0) tr M_m, is known at every node before any
    block (see below).  So T is a control variate: the energy is the
    integral of F + T on level n less that of T on level 2n, where n is
    twice ``kappa_nodes``.  One pass evaluates every node of level 2n,
    with blocks only on the nodes of level n; the n others take T alone
    (:func:`_quadrature_pass`).  The kappa estimate is the change of the
    F + T sum from level n/2 to n plus that of the T sum from level n to
    2n.  At the 12 benchmark points F + T is 1.5-6% of F on level 16, and
    the control-variate sum missed the plain F sum on level 128 by
    0.002-0.17 times that estimate.
    If the estimate is past rel_tol/4, F is evaluated on the other nodes
    of level 2n, where T then cancels: the energy is the plain F sum on
    level 2n, and the level doubles, up to 128, until two plain sums agree
    within rel_tol/4, their difference being the kappa estimate.  So a
    miss costs one more table on those n nodes, and gives the energy a
    pass over all of level 2n would, bit for bit.  ``kappa_nodes_used`` is
    the last level of F.  At rel_tol 1e-3, 11 of the 12 benchmark points
    stop at level 16, with blocks on 15 nodes instead of 31.  The l and m
    estimates integrate over the nodes of F alone: T has no m error, and
    its l truncation cancels between the two sums.  The l estimate
    is the integral of the trace of the top l_drop degrees over every m, a
    floor under what dropping them changes (:func:`_chunk_mode_sums`);
    l_max grows until it is below rel_tol/4.
    At each node the Legendre addition theorem gives
    T = sum_m (2 - delta_m0) tr M_m over every m in closed form, so after
    block m the trace R of the blocks still to come is known.  They add
    between -R - U and -R to the sum, U = R lam / (2 (1 - lam)) with
    lam = R/2 (R before block 0) bounding each one's largest eigenvalue;
    the node takes -R and counts U as its m error, and the m sum stops at
    the first m, or before any block, where U is at most rel_tol/4 of the
    node's value.  A weak node (T below about rel_tol/2) thus needs no
    block at all.  ``m_max_used`` is the largest m any node of the last
    level of F reached (-1 if none needed a block), and the m estimate is
    the integral of the nodes' U.  The rapidity rule starts from l_max
    (:func:`_theta_rule`) and is checked at the smallest kappa node of F,
    where it is weakest: F there is recomputed on twice the panels and
    1.25 v_max, and the relative change, times |E|, is the theta estimate.
    The kappa, l, m and theta estimates add up to error_estimate, which
    must be at most rel_tol |E|.  One loop grows whichever truncation is
    short: l_max while the l estimate is past rel_tol/4 (at most three
    times), and, once it is not, the rule by one panel on the same v_max
    while error_estimate is past rel_tol |E| and the theta estimate past
    rel_tol/4 (at most ``_THETA_PANEL_STEPS`` times); each step re-runs the
    levels, and past either bound the call raises.  A run that fits
    rel_tol on its first rule never re-runs, as at every benchmark point at
    rel_tol 1e-3.  So rel_tol 1e-5 is within reach at ordinary gaps: PC
    d/R = 0.1 and 0.2, and an Omega R = 1.7 sphere before a PC plane at
    d/R = 0.1, converge in 0.34, 0.09 and 0.30 s, two panels past the
    start.  Gaps below d/R = 0.01 are outside the supported domain and
    raise :class:`NumericsError` before any block is built.  The limit is
    one of cost, not of convergence: at the default rel_tol, PC d/R =
    0.0075 and 0.005 converge (error 3.4e-4 and 3.3e-4 of |E|, l_max 810
    and 1211) in about 9 s and 25 s (8.6-8.8 s and 24.1-24.6 s), at a peak
    RSS of 46 and 57 MB, with one BLAS thread on a 2-core Intel Xeon.

    Returns energy in units hbar c per unit length of the inputs, alongside
    the dimensionless E d^2/(hbar c R).  A transparent sheet needs no block:
    E = 0, with every estimate and count 0 and ``m_max_used`` -1.
    """
    R, L = sphere.radius_R, plane.distance_L
    if not (L > R):
        raise ValueError(f"need L > R, got L={L}, R={R}")
    if sphere.omega_s == 0.0 or plane.omega_p == 0.0:
        return EnergyResult(0.0, 0.0, 0.0, 0, -1, 0)

    # dimensionless core: R = 1
    s1 = SphereSheet(radius_R=1.0, omega_s=varpi(sphere.omega_s, R))
    p1 = PlaneSheet(omega_p=varpi(plane.omega_p, R), distance_L=L / R)
    d = L / R - 1.0
    if d < _D_MIN * (1.0 - 1e-9):  # slack for the rounding of L/R - 1
        raise NumericsError(f"d/R = {d:.3g} is below the smallest supported gap "
                            f"d/R = {_D_MIN} of the multipole path")

    auto_l = numerics.l_max == "auto"
    l_max = _auto_l_max(d) if auto_l else numerics.l_max
    share = 0.25 * numerics.rel_tol  # of |E|, for each of the four estimates
    added = l_steps = 0  # panels the theta probe added; l_max growths

    while True:
        panels, v_max = _theta_rule(l_max)
        panels += added
        mode_args = (s1, p1, l_max, (panels, v_max), share)

        # one pass over level 2n: F on levels n and n / 2, T on every node;
        # copied contiguous, each level sums as a pass of its own would
        n = 2 * numerics.kappa_nodes
        first = _quadrature_pass(2 * n, d, None, mode_args, trace_only=True)
        last = _level(*_kappa_rule(n), d, np.ascontiguousarray(first.rows[:, 1::2]))
        prev = _level(*_kappa_rule(n // 2), d, np.ascontiguousarray(last.rows[:, 1::2]))
        energy = last.energy + last.trace - first.trace
        err_k = (abs(last.energy + last.trace - prev.energy - prev.trace)
                 + abs(first.trace - last.trace))
        # a miss: F on the other nodes of level 2n, where the control variate
        # cancels, and plain levels from there on
        while err_k > share * abs(energy) and 2 * n <= _KAPPA_NODE_CEILING:
            n *= 2
            prev, last = last, _quadrature_pass(n, d, last.rows, mode_args)
            energy, err_k = last.energy, abs(last.energy - prev.energy)

        if auto_l and last.err_l > share * abs(energy):
            if l_steps == _L_MAX_GROWTHS:
                raise NumericsError(
                    f"l_max growth did not converge; last increment estimate {last.err_l} "
                    f"vs target {share * abs(energy)}", error_estimate=last.err_l)
            l_max += max(10, l_max // 3)
            l_steps += 1
            continue

        # rapidity-rule check at the smallest kappa node, where the rule is weakest
        i_min = int(np.argmin(last.x))
        f_min = last.rows[0, i_min]
        f2 = _mode_sums(last.x[i_min:i_min + 1] / (2.0 * d), s1, p1, l_max,
                        (2 * panels, 1.25 * v_max), share)[0, 0]
        err_theta = abs(f2 - f_min) / max(abs(f_min), 1e-300) * abs(energy)

        error = err_k + last.err_l + last.err_m + err_theta
        if (error <= numerics.rel_tol * abs(energy) or err_theta <= share * abs(energy)
                or added == _THETA_PANEL_STEPS):
            break
        added += 1

    if energy >= 0.0:
        raise SpectralAnomalyError(f"non-negative energy {energy} from valid inputs")
    if error > numerics.rel_tol * abs(energy):
        raise NumericsError(
            f"energy not converged: error estimate {error:.3e} vs allowed "
            f"{numerics.rel_tol * abs(energy):.3e} "
            f"(kappa {err_k:.1e}, l {last.err_l:.1e}, m {last.err_m:.1e}, theta {err_theta:.1e})",
            error_estimate=error)

    return EnergyResult(
        energy=float(energy / R),
        energy_dimensionless=float(energy * d * d),
        error_estimate=float(error / R),
        l_max_used=l_max,
        m_max_used=int(last.rows[3].max()),
        kappa_nodes_used=n,
    )
