"""Exact Casimir interaction energy from the round-trip determinant.

E = (hbar c / 2 pi) int_0^infty dkappa sum_m ln det(I - M_m(kappa))

with automatic truncation control in l, m and the kappa quadrature.  The
core works in units R = 1, hbar c = 1 (everything depends only on kappa R,
Omega R and L/R); results are reported per unit of the caller's length unit
together with the dimensionless combination E d^2 / (hbar c R).
"""

from __future__ import annotations

import functools
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
_L_MAX_GROWTHS = 3  # raises of the start degree the l probe may ask for
_LOGDET_POSITIVE_TOL = 1e-12
_STACK_BYTES = 4 << 20  # m = 0 factors H of one stack of kappa nodes (see _mode_sums)


def _is_count(v) -> bool:
    """An integer of any type, numpy's included; a bool is not a count."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class NumericsSpec:
    """The truncation knobs a caller sets.

    l_max is "auto", where the driver traces every node of the first pass
    at a start degree set by the gap and picks the smallest l_max below it
    whose l estimate fits rel_tol, or an integer of at least 2 (so the l
    probe has a degree to drop), where the run traces and sums at that
    degree with no pick (see :func:`casimir_energy`); kappa_nodes, in
    8 .. 64, is the first kappa level of F, the one the control variate's
    estimate starts from; rel_tol, in (0, 1), applies to the dimensionless
    core value E R / (hbar c).  The rapidity rule follows the start degree
    or the explicit l_max (see :func:`_theta_rule`), and each kappa node's
    m cutoff follows rel_tol (see :func:`_chunk_mode_sums`).  The counts
    may be any integer type but bool, and are kept as Python ints.
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


def _mode_sums(kappa, sphere, plane, l_max, theta_rule, m_tol):
    """The (5, K) record of the K kappa nodes ``kappa`` (1-D): rows F, l probe, m error, m used, T.

    F(kappa) = sum_m ln det(I - M_m) with the m <-> -m doubling, the trace
    of the blocks not summed taken off it.  Also returned: the m-summed
    trace of the top l_drop = max(4, l_max // 8) degrees (the l-truncation
    probe), the bound on the rest of the m tail (the m error) and the last
    m summed, -1 where no block was needed, and T, the m-summed trace of
    every degree.  A node's m sum stops once its m error is at most
    ``m_tol`` |F|.  The rapidity rule is that of ``theta_rule`` = (panels,
    v_max).  The nodes are evaluated level-major: in chunks, each one
    :class:`KappaTable` with a leading node axis and one stacked block per m
    (:func:`_chunk_mode_sums`), so the per-call cost of numpy is paid once
    per chunk instead of once per node.  They run in two phases: the trace
    step of every chunk (:func:`_trace_step`), then the blocks of every
    chunk, here both at ``l_max`` on every node.  A run of
    :func:`casimir_energy` keeps its chunks between the two (:class:`_Run`)
    and picks l_max at or below the trace step's degree.  The nodes go into
    the fewest chunks whose trace-step factors, the size of block 0's H at
    the trace step's degree, fit within _STACK_BYTES, 4 MiB, each, split as
    evenly as those allow.  A node traced for T alone counts as a whole
    node.  The first pass of PC d/R = 0.05, the 31 nodes of kappa level 32
    at 166 kB each (blocks on 15 of them), runs as 16 + 15 nodes, not
    25 + 6, which kept the peak RSS of a d/R = 0.1 and 0.05 pass 3.2 MB lower
    (38.2 against 41.3-41.5 MB, 3 rounds, measured with the blocks at the
    trace step's degree).  The budget bounds the largest array of a chunk,
    not its working set: while block m is assembled, block m-1's H is still
    held, and the new H comes with its two angular log arrays, one exponent
    buffer and up to three Legendre ladders, each a quarter of H.  The trace
    step of a chunk holds half of the m-summed factor, one polarization at a
    time, with its exponent buffer and two log arrays, each a quarter of the
    whole factor, and lets them go before the next chunk's; what stays is
    each chunk's table and its (K, L, 2) row norms, until every node of it
    has F.  Dropping block m-1 first was no faster and saved 0.1 of 39.4 MB
    (PC d/R = 0.1 and 0.05, one process per round, the median of 5 passes
    each, medians of 20 alternating rounds: 0.141 s held, 0.147 s dropped;
    measured when every node of the pass had blocks).  The numpy peak of one
    PC d/R = 0.02 point (tracemalloc, H of 555 kB per node at the trace
    step's degree 310, at most 7 nodes per chunk) is 5.6 MB, 1.3 times the
    budget.  Measured on a 2-core Xeon (AVX-512) with one BLAS thread, each
    size in its own process, medians of 5 interleaved rounds: a pass over PC
    d/R = 0.1 and 0.05 (H of 72 and 166 kB per node; the median of 5 passes
    per process) took 0.057 s at 1 MiB, 0.051 s at 2 MiB, 0.052 s at 4 MiB
    and 0.047 s at 8 MiB, its rounds spreading over 0.044-0.079 s, with a
    peak RSS of 34.3, 35.6, 37.7 and 39.9 MB.  PC d/R = 0.02 (3 rounds) took
    0.51, 0.49, 0.44 and 0.39 s and peaked at 36.7, 36.9, 37.7 and 43.2 MB;
    PC d/R = 0.01 (1.4 MB per node: 1, 2 and 5 nodes per chunk; 3 rounds)
    took 3.09, 3.11 and 3.02 s at 2, 4 and 8 MiB and peaked at 42.3, 42.2
    and 47.4 MB.  4 MiB stays: 8 MiB is 9% faster on the pass and 13% faster
    at d/R = 0.02, but peaks 2.2 and 5.5 MB higher, and the budget is there
    to bound memory; at 4 MiB the pass peaks below the 38.6 MB it reached
    with the blocks at the trace step's degree.
    """
    return np.hstack([_chunk_mode_sums(table, norms, m_tol)
                      for table, norms in _trace_step(kappa, sphere, plane, l_max, theta_rule)])


def _trace_step(kappa, sphere, plane, l_top, theta_rule):
    """Phase one of :func:`_mode_sums`: the nodes ``kappa`` as chunks (table, norms).

    Each chunk is a :class:`KappaTable` of the degrees 1 .. ``l_top`` on
    the rapidity rule ``theta_rule`` = (panels, v_max), with its m-summed
    row norms (:meth:`KappaTable.m_summed_traces`), and the chunks hold the
    nodes in order.  Only the trace step's factor, the size of block 0's H
    at ``l_top``, sizes the chunks (see :func:`_mode_sums`).
    """
    rule = rapidity_rule(*theta_rule)
    per_node = 8 * (2 * l_top) * (2 * rule[0].size)
    chunks = -(-len(kappa) // max(1, _STACK_BYTES // per_node))
    tables = (KappaTable.build(part, sphere, plane, l_top, rule)
              for part in np.array_split(kappa, chunks))
    return [(table, table.m_summed_traces()) for table in tables]


def _l_keep(l_max):
    """The degrees the l probe keeps: l_max - l_drop, l_drop = max(4, l_max // 8), at least 1."""
    return np.maximum(1, l_max - np.maximum(4, l_max // 8))


def _chunk_mode_sums(table, norms, m_tol):
    """The (5, K) record of :func:`_mode_sums` for the K nodes of ``table``.

    The m tail is the trace still to come.  ``norms``, the m-summed row
    norms (:meth:`KappaTable.m_summed_traces`) of the table's degrees
    1 .. l_max at its nodes, give each node T = sum_m (2 - delta_m0) tr M_m
    over every block m = 0 .. l_max; after block m the blocks not yet summed
    have the trace R = T - sum_{m' <= m} (2 - delta_m'0) ||H_m'||_F^2.
    Since -ln det(I - M) = tr M + sum_{k >= 2} tr M^k / k, they add
    -R - V to the sum, 0 <= V <= U (:func:`_tail_bound`).  The node takes
    the upper end, F = partial - R, with m error U, not the midpoint: U
    charges every later block with a largest eigenvalue lam = R/w that no
    single block reaches, and against the m sum run to l_max the miss was
    at most 0.5 U at every node of the 12 benchmark points.  The m sum
    stops per node at the first m, or before any block, where
    U <= m_tol |F|; a weak node thus takes F = -T with no block, and its m
    used is -1.  A sum that runs to m = l_max is complete, and its R,
    round-off then, is dropped, so its U is 0.  Row T is the table's T.

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
    nodes = len(table.c)
    rows = np.empty((5, nodes))
    active = np.arange(nodes)
    total = np.zeros(nodes)
    by_row = norms.reshape(nodes, -1)
    rest, top = by_row.sum(axis=1), by_row[:, 2 * _l_keep(table.l_max):].sum(axis=1)
    rows[4] = rest
    l_max = table.l_max
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
        if done.any():
            rows[:4, active[done]] = np.vstack([f, top, err, np.full_like(err, m)])[:, done]
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
    """The start degree L for the gap d (in units of R).

    In auto mode the first pass's trace step runs at degree L, every node
    uses L's rapidity rule (:func:`_theta_rule`), and l_max is picked at
    or below L from that step's traces (:func:`casimir_energy`).  L is an
    upper bound, not a guess at l_max: at the 12 benchmark points the pick
    is 0.67-0.84 of it.
    """
    return int(math.ceil(6.0 / d)) + 10


def _theta_rule(l_max):
    """(panels, v_max) of the rapidity rule every kappa node uses at this degree.

    The degree is the start degree of an auto run, whose blocks run at a
    picked l_max at or below it, or an explicit l_max.

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
    (rel_tol 1e-3, kappa level 32, with the blocks at the start degree
    itself), against 12 panels, 4 panels miss E by
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
    t = np.arange(1, n) * math.pi / n
    j = np.arange(1, n // 2 + 1)
    w_s = 4.0 / n * np.sin(t) * (np.sin(np.outer(t, 2 * j - 1)) / (2 * j - 1)).sum(axis=1)
    x = _KAPPA_MAP_SCALE / np.tan(0.5 * t) ** 2
    return x, w_s * _KAPPA_MAP_SCALE / (2.0 * np.sin(0.5 * t) ** 4)


class _Run:
    """One run of the kappa levels on one rule: its truncations and the record of its nodes.

    The trace step runs at degree ``l_top`` and the blocks at ``l_max`` <=
    l_top ("auto" until :func:`_first_pass` picks it), both on the rapidity
    rule ``theta_rule``, each m sum stopping at ``m_tol``
    (:func:`_chunk_mode_sums`), with kappa = x / (2 ``d``).  The levels are
    ``kappa_nodes`` times powers of two up to 2 _KAPPA_NODE_CEILING, and
    ``record`` holds the rows F, l probe, m error, m used and T of
    :func:`_mode_sums` at every node of the finest, ``finest``
    (:meth:`columns`), each NaN until evaluated; ``traced`` the chunks
    traced so far that still have a node with no F, as (columns, table,
    norms); and ``rule(n)`` is level n's rule, built once per run.
    """

    def __init__(self, d, sphere, plane, l_top, theta_rule, l_max, m_tol, kappa_nodes):
        self.d, self.sphere, self.plane, self.l_top = d, sphere, plane, l_top
        self.theta_rule, self.l_max, self.m_tol = theta_rule, l_max, m_tol
        self.finest = kappa_nodes << (2 * _KAPPA_NODE_CEILING // kappa_nodes).bit_length() - 1
        self.record, self.traced = np.full((5, self.finest - 1), np.nan), []
        self.rule = functools.cache(_kappa_rule)

    def columns(self, n_kappa):
        """The record columns of the nodes k = 1 .. n_kappa - 1 of kappa level n_kappa.

        Column j is node j + 1 of the finest level N, so node k of level n
        is column k N / n - 1, at t = k pi / n bit for bit (N / n is a power
        of two); a level that does not divide N gets n or more columns.
        """
        return np.arange(self.finest // n_kappa - 1, self.finest - 1, self.finest // n_kappa)


@dataclass(frozen=True)
class _Level:
    """One level of the kappa rule: the integral of F, its l and m
    estimates, the integral of T and the (5, K) record of its K nodes,
    rows F, l probe, m error, m used, T."""

    energy: float
    err_l: float
    err_m: float
    trace: float
    rows: np.ndarray


def _level(run, n_kappa):
    """The :class:`_Level` of kappa level n_kappa from the record of ``run``.

    A node of the level with no F raises, rather than make the sums NaN.
    The columns are copied contiguous: summed on the strided rows that
    indexing gives, E moved by 1-2 ulp.
    """
    rows = np.ascontiguousarray(run.record[:, run.columns(n_kappa)])
    if np.isnan(rows).any():
        raise RuntimeError(f"kappa level {n_kappa} has nodes the run has not evaluated")
    return _Level(*(_integral(run, n_kappa, rows[i]) for i in (0, 1, 2, 4)), rows)


def _integral(run, n_kappa, values):
    """1/(2 pi) times the kappa integral of ``values``, a contiguous row over level n_kappa."""
    return 1.0 / (2.0 * math.pi) / (2.0 * run.d) * (run.rule(n_kappa)[1] @ values)


def _trace(run, n_kappa):
    """Trace the nodes of kappa level n_kappa with no T yet into new chunks of ``run``.

    A chunk's columns are its nodes', split by the chunks' own sizes:
    :func:`_trace_step` keeps the nodes in order.
    """
    cols = run.columns(n_kappa)
    new = np.isnan(run.record[4, cols])
    if new.any():
        chunks = _trace_step(run.rule(n_kappa)[0][new] / (2.0 * run.d), run.sphere, run.plane,
                             run.l_top, run.theta_rule)
        ends = np.cumsum([len(norms) for _, norms in chunks])[:-1]
        run.traced += [(c, *ch) for c, ch in zip(np.split(cols[new], ends), chunks)]


def _quadrature_pass(n_kappa, run):
    """Level n_kappa of the kappa rule, as a :class:`_Level`, on the record of ``run``.

    It traces the level's nodes with no T (:func:`_trace`), runs each
    chunk's blocks at l_max on its nodes of the level with no F, the chunk
    cut to them (:func:`_chunk_mode_sums`, which writes their T too), drops
    a chunk once all its nodes have F, and sums the level.  A column is bit
    for bit that of the node alone, so the sums are the level's afresh;
    each node is traced once per run and its blocks run at most once.
    """
    _trace(run, n_kappa)
    in_level = np.bincount(run.columns(n_kappa), minlength=run.finest - 1) > 0  # as a mask
    for c, table, norms in run.traced:
        need = np.isnan(run.record[0, c]) & in_level[c]
        if need.any():
            run.record[:, c[need]] = _chunk_mode_sums(table.cut(run.l_max).take(need),
                                                      norms[need, :run.l_max], run.m_tol)
    run.traced = [chunk for chunk in run.traced if np.isnan(run.record[0, chunk[0]]).any()]
    return _level(run, n_kappa)


def _first_pass(run, n_kappa, share):
    """The first pass of ``run``: level n_kappa of F, as a :class:`_Level`.

    It traces level 2n (:func:`_trace`), picks an "auto" l_max from the
    traces at level n's nodes, to ``share`` (:func:`_pick_l_max`), writes T
    at l_max at every traced node and passes level n (:func:`_quadrature_pass`).
    """
    _trace(run, 2 * n_kappa)
    if run.l_max == "auto":
        f_traces = np.concatenate([norms for _, _, norms in run.traced])[1::2].sum(axis=2)
        run.l_max = _pick_l_max(run.rule(n_kappa)[1] @ f_traces, share) or run.l_top
    for c, _, norms in run.traced:
        run.record[4, c] = norms[:, :run.l_max].reshape(len(c), -1).sum(axis=1)
    return _quadrature_pass(n_kappa, run)


def _pick_l_max(degree_traces, share):
    """The smallest l_max >= 2 whose l estimate is at most ``share`` of T, or None if none.

    ``degree_traces`` holds, for each degree l = 1 .. L, the integral of
    its m-summed trace over the nodes of F.  The l estimate at l_max sums
    it over the degrees the l probe drops, l_keep < l <= l_max
    (:func:`_l_keep`), and T over the degrees up to l_max.  The integral of
    T is a floor under |E|, since |F| >= T at every node.
    """
    total = np.cumsum(degree_traces)  # total[l - 1]: T up to degree l
    l_max = np.arange(2, len(degree_traces) + 1)
    fits = total[l_max - 1] - total[_l_keep(l_max) - 1] <= share * total[l_max - 1]
    return int(l_max[np.argmax(fits)]) if fits.any() else None


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
    twice ``kappa_nodes``.  Each level sums from one record of a run's
    nodes (:class:`_Run`), whose first pass traces level 2n and runs
    blocks on level n alone (:func:`_first_pass`).  The kappa estimate is the
    change of the F + T sum from level n/2 to n plus that of the T sum
    from level n to 2n.  At the 12 benchmark points F + T is 1.5-6% of F
    on level 16, and the control-variate sum missed the plain F sum on
    level 128 by 0.002-0.17 times that estimate.
    If the estimate is past rel_tol/4, F is evaluated on the other nodes
    of level 2n, where T then cancels: the energy is the plain F sum on
    level 2n, and the level doubles, up to 128, until two plain sums agree
    within rel_tol/4, their difference being the kappa estimate.  Each
    level is one :func:`_quadrature_pass`, so a miss runs the n new nodes'
    blocks on the first pass's tables, with no second trace step.
    ``kappa_nodes_used`` is the last level of F.
    At rel_tol 1e-3, 11 of the 12 benchmark points stop at level 16, with
    blocks on 15 nodes instead of 31.  The l and m estimates integrate over
    the nodes of F alone: T has no m error, and its l truncation cancels
    between the two sums.  The l estimate at l_max is the integral of the
    trace of the degrees l_max - l_drop < l <= l_max over every m,
    l_drop = max(4, l_max // 8), a floor under what dropping them changes
    (:func:`_chunk_mode_sums`).
    In auto mode l_max is picked from the first pass's trace step.  That
    step runs once, at the start degree L (:func:`_auto_l_max`) and on
    L's rapidity rule, and gives each degree's m-summed trace at every
    node (:meth:`KappaTable.m_summed_traces`).  l_max is the smallest
    l <= L whose l estimate is at most rel_tol/4 of the integral of T up
    to l over the same nodes (:func:`_pick_l_max`), which is a floor under
    |E| since |F| >= T at each node.  The blocks, T, the l probe and the
    theta probe then all run at l_max on L's rule, the first three on the
    trace step's own tables cut at l_max (:meth:`KappaTable.cut`), so a
    run builds and traces each node once.  At the 12 benchmark points
    (rel_tol 1e-3) the pick is 55 of 70 and 109 of 130 on exact-narrow,
    and 0.67-0.74 of L on exact-wide; E moved by at most 0.49 of the
    estimate of a run at L, and err_l is 1.98 to 35.7 times what raising
    l_max to 1.6 l_max changes in E, all m summed, on one rule.  Where no
    l <= L fits, l_max is L, and an explicit ``l_max`` runs at its own
    degree with no pick.
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
    the integral of the nodes' U.  The rapidity rule starts from L
    (:func:`_theta_rule`) and is checked at the smallest kappa node of F,
    where it is weakest: F there is recomputed on twice the panels and
    1.25 v_max, and the relative change, times |E|, is the theta estimate.
    The kappa, l, m and theta estimates add up to error_estimate, which
    must be at most rel_tol |E|.  One loop grows whichever truncation is
    short: the start degree L, by max(10, L // 3), while the l estimate is
    past rel_tol/4 (at most three times; each run picks l_max afresh),
    and, once it is not, the rule by one panel on the same v_max
    while error_estimate is past rel_tol |E| and the theta estimate past
    rel_tol/4 (at most ``_THETA_PANEL_STEPS`` times); each step re-runs the
    levels, and past either bound the call raises.  A run that fits
    rel_tol on its first rule never re-runs, as at every benchmark point at
    rel_tol 1e-3.  So rel_tol 1e-5 is within reach at ordinary gaps: PC
    d/R = 0.1 and 0.2, and an Omega R = 1.7 sphere before a PC plane at
    d/R = 0.1, converge in 0.34, 0.09 and 0.28 s, two panels past the
    start; each grows its start degree once (70 to 93, 41 to 54) and
    picks l_max 85, 44 and 83 there.  Gaps below d/R = 0.01 are outside
    the supported domain and raise :class:`NumericsError` before any block
    is built.  The limit is one of cost, not of convergence: at the
    default rel_tol, PC d/R = 0.0075 and 0.005 converge (error 5.0e-4 and
    6.5e-4 of |E|, l_max 715 and 1070 below the start degrees 810 and
    1211) in about 7.5 s and 12 s, at a peak RSS of 46 and 57 MB, with one
    BLAS thread on a 2-core Intel Xeon.

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
    l_top = _auto_l_max(d) if auto_l else numerics.l_max
    share = 0.25 * numerics.rel_tol  # of |E|, for each of the four estimates
    added = l_steps = 0  # panels the theta probe added; l_top growths

    while True:
        panels, v_max = _theta_rule(l_top)
        panels += added

        # F on level n, T on level 2n; levels 2n and n / 2 sum from the record
        n = 2 * numerics.kappa_nodes
        run = _Run(d, s1, p1, l_top, (panels, v_max), numerics.l_max, share, numerics.kappa_nodes)
        last = _first_pass(run, n, share)
        fine, prev = _integral(run, 2 * n, run.record[4, run.columns(2 * n)]), _level(run, n // 2)
        energy = last.energy + last.trace - fine
        err_k = abs(last.energy + last.trace - prev.energy - prev.trace) + abs(fine - last.trace)
        # a miss: F on the other nodes of level 2n, on the first pass's
        # tables, where the control variate cancels; then plain levels
        while err_k > share * abs(energy) and 2 * n <= _KAPPA_NODE_CEILING:
            n *= 2
            prev, last = last, _quadrature_pass(n, run)
            energy, err_k = last.energy, abs(last.energy - prev.energy)

        if auto_l and last.err_l > share * abs(energy):
            if l_steps == _L_MAX_GROWTHS:
                raise NumericsError(
                    f"l_max growth did not converge; last increment estimate {last.err_l} "
                    f"vs target {share * abs(energy)}", error_estimate=last.err_l)
            l_top += max(10, l_top // 3)
            l_steps += 1
            continue

        # rapidity-rule check at the smallest kappa node, the last of the
        # level, where the rule is weakest
        f_min = last.rows[0, -1]
        f2 = _mode_sums(run.rule(n)[0][-1:] / (2.0 * d), s1, p1, run.l_max,
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
        l_max_used=run.l_max,
        m_max_used=int(last.rows[3].max()),
        kappa_nodes_used=n,
    )
