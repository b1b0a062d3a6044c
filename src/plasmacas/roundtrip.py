"""Round-trip matrix of the sphere-plane cavity, block by azimuthal index.

The element coupling (l, pol) to (l', pol') at one azimuthal index m and one
imaginary wavenumber kappa is a prefactor times the sphere T element times a
rapidity integral over three 2x2 matrices (sphere angular functions, plane
reflection, angular functions again) with weight sinh(theta) e^{-2 kappa L
cosh(theta)}.

Numerical organisation, fixed once here and relied on everywhere:

* cosh(theta) = 1 + u/(2 kappa L) maps the integral onto
  int_0^inf e^{-u} g(u) du with the overall e^{-2 kappa L} pulled out; the
  rule for it (nodes u, log weights) is the caller's, and the exact driver
  uses composite Gauss-Legendre in v = sqrt(u) (``_quadrature.rapidity_rule``);
* all angular functions carry the factorial normalisation
  sqrt((l-m)!/(l+m)!) of the prefactor and are handled in log space;
* blocks are stored in the determinant-preserving balanced form with
  sqrt|T_l| split across rows and columns;
* the common factor s = e^{-2 kappa (L-R)}/(2 kappa L) is folded into the
  l prefactor, so a block holds M itself.  That cannot overflow: M is
  positive semi-definite and I - M positive definite, so every |M_ij| < 1,
  and every entry of H (M = H H^T, below) is below 1 too.  M/s alone, by
  contrast, overflows at small kappa;
* everything that depends on kappa but not on m (rapidity nodes, H's column
  half-logs from rapidity weights and plane reflections, H's row half-logs
  from the scaled l prefactor and sphere T) lives in one :class:`KappaTable`
  per set of kappa nodes, with a leading node axis, which also hands the
  m+1 Legendre ladder of block m on to block m+1.  A block then holds
  every node of its table at one m, and the ladders, the angular functions
  and the block entries are each one array operation over all of them; a
  scalar kappa is the one-node case;
* the balanced weight of an element separates into a row factor and a
  column factor, so a block is M = H H^T with H of size 2 n_l x 2 n_theta
  (a TE row [tau sqrt r_TE, pi sqrt q_TM], a TM row [pi sqrt r_TE,
  tau sqrt q_TM], q_TM = -r_TM >= 0, TM rows negated for m < 0), and a
  block is stored as H alone; M is positive semi-definite and I - M
  positive definite on the imaginary axis, and since det(I - H H^T) =
  det(I - H^T H) the log-determinant is one Cholesky factorisation of
  whichever side is smaller;
* the trace of every block, summed over m, needs no block: the Legendre
  addition theorem sums the squared angular functions over m in closed
  form, and H filled with the square roots of those sums in place of tau
  and pi is an m-summed factor whose squared row norms give that trace
  degree by degree (:meth:`KappaTable.m_summed_traces`).  One function,
  :func:`_fill_factor`, fills that factor and every block's H, and a
  table cut at fewer degrees (:meth:`KappaTable.cut`) gives the blocks
  of those degrees alone;
* ln tau is formed from ln pi and the bounded ratio tau/pi - c, with one
  exp and one log and no log-sum (see :func:`_angular_logs`); at m = 0,
  where pi = 0, only the TE/TE and TM/TM quarters of H are computed and
  the other two stay zero.  Each quarter's exponent, angular log plus row
  and column half-logs, is summed in one scratch buffer and exp writes it
  straight into H;
* the alternating azimuthal phase in the element prefactor cancels against
  the phase produced by continuing the angular functions to hyperbolic angles,
  so with the positive (Hobson) Legendre convention used by specfun the net
  kernel is positive; each m block then contributes attractively, and the
  m <-> -m degeneracy is an exact signature conjugation.

This module holds the one production transcription of the element.  The
scalar single-element route (one 2x2 element with its own adaptive rapidity
quadrature) and the un-balancing of a block are test oracles and live in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericsError
from .scattering import PlaneSheet, Polarization, SphereSheet, plane_r, sphere_t_logs
from .specfun import legendre_pbar_log


def _angular_logs(l_max: int, m_abs: int, c_nodes: np.ndarray, ladder):
    """Log arrays (ltau, lpi) of the normalised angular functions on cosh(theta) nodes.

    tau_l = sinh(theta) dPbar_l^m/dx and pi_l = (m/sinh(theta)) Pbar_l^m,
    both positive for x > 1 and m >= 1.  Rows run over l = max(1, m) ..
    l_max.  ``ladder(k)`` gives ln Pbar_l^k for l = k .. l_max on
    ``c_nodes``.  At m = 0, pi_l = 0 for every l and ``lpi`` is None.

    tau comes from pi without a log-sum: sinh dPbar_l^m/dx = c pi_l +
    sqrt((l-m)(l+m+1)) Pbar_l^{m+1}, so for m >= 1

        ln tau_l = ln pi_l + ln(c + exp(ln(tau_l/pi_l - c))),

    with tau_l/pi_l - c = 0 at l = m.  That exponential is bounded:
    Pbar_l^m = const (x^2-1)^{m/2} Q(x), Q = d^m P_l/dx^m of degree l-m with
    all its roots r_i in (-1, 1) (derivatives of P_l keep real roots
    there), so tau/pi = x + ((x^2-1)/m) sum_i 1/(x - r_i) and
    0 <= tau/pi - c <= (l-m)(c+1)/m.  The exp neither overflows nor meets
    a cancellation, and ln(c + ...) >= ln c > 0.  At m = 0 only the
    Pbar^{m+1} term survives and ln tau is read off the order-1 ladder.
    """
    if m_abs == 0:
        lvec = np.arange(1, l_max + 1)
        return 0.5 * np.log(lvec * (lvec + 1.0))[:, None] + ladder(1), None
    sh = np.sqrt((c_nodes - 1.0) * (c_nodes + 1.0))
    lpi = np.log(m_abs / sh) + ladder(m_abs)
    ltau = np.empty_like(lpi)
    ltau[0] = lpi[0] + np.log(c_nodes)
    if l_max > m_abs:
        lvec = np.arange(m_abs + 1, l_max + 1)
        ratio = ltau[1:]
        # ln(tau/pi - c), then ln tau, in place
        np.add(0.5 * np.log((lvec - m_abs) * (lvec + m_abs + 1.0))[:, None],
               ladder(m_abs + 1), out=ratio)
        ratio -= lpi[1:]
        np.exp(ratio, out=ratio)
        ratio += c_nodes
        np.log(ratio, out=ratio)
        ratio += lpi[1:]
    return ltau, lpi


@dataclass(frozen=True)
class RoundTripBlock:
    """Round-trip block at fixed m, stored as its factor, at one kappa or a stack.

    ``factor`` is H, of size 2 n_l x 2 n_theta, with M = H H^T in balanced
    form: sqrt|T_l| is split across rows and columns (a similarity
    transform, so every determinant built from the block is unchanged), and
    the common factor e^{-2 kappa (L-R)}/(2 kappa L) is included.  Every
    entry of H and of M is below 1 in magnitude, since I - M is positive
    definite and M positive semi-definite.  Row index is
    2*(l - max(1,|m|)) + pol with pol TE=0, TM=1; the first n_theta columns
    carry r_TE and the last q_TM, and at m = 0 the TE rows vanish on the
    last n_theta columns and the TM rows on the first.  A block of K kappa
    nodes has ``kappa`` of shape (K,) and a leading node axis on
    ``factor``, (K, 2 n_l, 2 n_theta); a scalar kappa gives a 2-D factor.
    ``matrix`` forms M on each access, for tests and oracles; ``dim`` is
    its size 2 n_l.
    """

    m: int
    kappa: float | np.ndarray
    l_max: int
    factor: np.ndarray = field(repr=False)

    @property
    def matrix(self) -> np.ndarray:
        return self.factor @ np.swapaxes(self.factor, -1, -2)

    @property
    def dim(self) -> int:
        return self.factor.shape[-2]


@dataclass(frozen=True)
class KappaTable:
    """The part of every block at a set of kappa nodes that does not depend on m.

    ``kappa`` is a scalar or an array of K nodes, and every array below has
    a leading axis of the K nodes (K = 1 for a scalar).  ``c`` holds the
    cosh(theta) nodes, (K, n_theta).  ``col_te``/``col_tm`` are the
    half-logs of the column weights w r_TE and w (-r_TM): rapidity weight
    (which includes e^{-u}) times plane reflection, so their exponentials
    are the sqrt weights of the rapidity sum.  ``row_te``/``row_tm`` are
    the half-logs of the row weights, (K, l_max) for l = 1 .. l_max: the
    element prefactor (pi/2) (2l+1)/(l(l+1)) times the block scale
    e^{-2 kappa (L-R)}/(2 kappa L) times the TE or TM |T_l|, whose logs
    for all K nodes come from one ``sphere_t_logs`` call.  The table
    also keeps the two Legendre ladders asked for last, each one
    array over all K n_theta nodes: the m+1 ladder of block m is the m
    ladder of block m+1, so assembling m = 0, 1, 2, ... in order computes
    each ladder of order 1 .. l_max once; block 0 needs only the order-1
    ladder, so order 0 on these nodes is never computed.  That cache makes a table a
    one-thread object.  :meth:`take` keeps some of the nodes, cached
    ladders included, so nodes that need no more m can leave the stack;
    :meth:`cut` keeps the lowest degrees.
    """

    kappa: float | np.ndarray
    c: np.ndarray = field(repr=False)
    col_te: np.ndarray = field(repr=False)
    col_tm: np.ndarray = field(repr=False)
    row_te: np.ndarray = field(repr=False)
    row_tm: np.ndarray = field(repr=False)
    _ladders: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, kappa, sphere: SphereSheet, plane: PlaneSheet,
              l_max: int, rule) -> "KappaTable":
        """The table for degrees l = 1 .. l_max on the rapidity rule (u, ln w).

        ``kappa`` is a positive scalar or a 1-D array of them.  ``rule``
        integrates int_0^inf e^{-u} f(u) du as sum exp(ln w) f(u).
        """
        kap = np.atleast_1d(np.asarray(kappa, dtype=float))
        if kap.ndim != 1 or kap.size == 0 or not np.all(kap > 0.0):
            raise ValueError(f"kappa must be positive, got {kappa}")
        kl = kap * plane.distance_L
        u, log_w = rule
        c = 1.0 + u / (2.0 * kl[:, None])
        sh = np.sqrt((c - 1.0) * (c + 1.0))
        rte = plane_r(Polarization.TE, kap[:, None], kap[:, None] * sh, plane)
        qtm = -plane_r(Polarization.TM, kap[:, None], kap[:, None] * sh, plane)
        with np.errstate(divide="ignore"):
            col_te = 0.5 * (log_w + np.log(rte))
            col_tm = 0.5 * (log_w + np.log(qtm))
        log_te, log_tm = sphere_t_logs(l_max, kap, sphere)

        log_s = 2.0 * kap * sphere.radius_R - 2.0 * kl - np.log(2.0 * kl)
        lvec = np.arange(1, l_max + 1)
        half_pref = 0.5 * (math.log(math.pi / 2.0) + log_s[:, None]
                           + np.log(2 * lvec + 1.0) - np.log(lvec * (lvec + 1.0)))
        return cls(kappa=kappa, c=c, col_te=col_te, col_tm=col_tm,
                   row_te=half_pref + 0.5 * log_te.T, row_tm=half_pref + 0.5 * log_tm.T)

    @property
    def l_max(self) -> int:
        return self.row_te.shape[1]

    def ladder(self, m_abs: int) -> np.ndarray:
        """ln Pbar_l^m_abs for l = m_abs .. l_max on the K n_theta nodes, node-major."""
        lad = self._ladders.get(m_abs)
        if lad is None:
            lad = legendre_pbar_log(self.l_max, m_abs, self.c.ravel())
            self._ladders[m_abs] = lad
            if len(self._ladders) > 2:
                del self._ladders[next(iter(self._ladders))]
        return lad

    def m_summed_traces(self) -> np.ndarray:
        """Per node and degree, the squared norms of the m-summed factor's TE and TM rows.

        The result is (K, l_max, 2): entry [k, l - 1] holds the two rows of
        degree l at node k.  Summed over its last two axes it is
        T = sum_m (2 - delta_m0) tr M_m over every block m = 0 .. l_max, and
        over the degrees l_keep < l <= l' alone it is the trace of those
        degrees in every block of a table cut at l' (:meth:`cut`).
        tr M_m = ||H_m||_F^2, and each entry of H is a row weight times a
        column weight times tau_lm or pi_lm (see :func:`assemble_block`).
        The addition theorem sums the angular functions over m in closed
        form.  With X = cosh(2 theta) = 2c^2 - 1,

            sum_m (2 - delta_m0) pi_lm^2 = P_l'(X),
            sum_m (2 - delta_m0) tau_lm^2 = l(l+1) P_l(X) - X P_l'(X),

        so T is the squared norm of an m-summed factor: the block
        assembler's fill (:func:`_fill_factor`) with the halves of the logs
        of these two sums in place of ln tau and ln pi, and degrees from
        l = 1.  That factor is the size of block 0's H; it is filled one
        polarization at a time, half of it, which took the numpy peak of a
        PC d/R = 0.05 point from 4.8 to 3.5 MB and of d/R = 0.02 from 7.0
        to 5.6 MB (tracemalloc) with the same norms, bit for bit.  A sum
        over some degrees is taken from their own rows: T - T_keep would
        leave the round-off of T where the top degrees hold nothing.
        ln P_l(X) is the order-0 ladder at X.  ln P_l'(X) is the order-1
        ladder without its seed, since Pbar_l^1 / Pbar_1^1 = P_l'(X)
        sqrt(2/(l(l+1))); so the rounding of X - 1 near X = 1 does not
        enter.  The tau sum is P_l (l(l+1) - q), q = X P_l'/P_l in
        [l, l(l+1)/2], so nothing cancels there.  Each node's norms sum
        the entries of its own factor row by row, so they are
        bit-identical stacked or alone.
        """
        l_max = self.l_max
        c = self.c.ravel()
        sh2 = (c - 1.0) * (c + 1.0)
        x = 1.0 + 2.0 * sh2
        ll = np.arange(1.0, l_max + 1.0)
        l_pl = legendre_pbar_log(l_max, 0, x)[1:]
        l_dp = legendre_pbar_log(l_max, 1, x)
        l_dp -= l_dp[0]
        l_dp += 0.5 * np.log(0.5 * ll * (ll + 1.0))[:, None]
        # ln sum_m tau^2 = ln P_l + ln(l(l+1) - q), in place
        l_tau = np.log1p(2.0 * sh2) + l_dp
        l_tau -= l_pl
        np.exp(l_tau, out=l_tau)
        np.subtract((ll * (ll + 1.0))[:, None], l_tau, out=l_tau)
        np.log(l_tau, out=l_tau)
        l_tau += l_pl
        # the order-0 ladder goes before the factor is filled: held, it
        # raised the peak RSS of a d/R = 0.1 and 0.05 pass by 0.7 MB
        del l_pl
        # the square roots of both sums, the factor's angular entries
        l_tau *= 0.5
        l_dp *= 0.5
        norms = np.empty((len(self.c), l_max, 2))
        for pol in (0, 1):
            norms[:, :, pol] = _row_norms(_fill_factor(self, l_tau, l_dp, 1, pol))
        return norms

    def cut(self, l_max: int) -> "KappaTable":
        """The table of the degrees l = 1 .. ``l_max`` alone, on the same nodes and rule.

        Its row half-logs are those of this table's first ``l_max`` degrees,
        so its blocks are this table's blocks without their rows past
        ``l_max``.  The cut starts with an empty ladder cache.
        """
        if not 1 <= l_max <= self.l_max:
            raise ValueError(f"cannot cut degrees 1 .. {self.l_max} at {l_max}")
        return KappaTable(kappa=self.kappa, c=self.c, col_te=self.col_te, col_tm=self.col_tm,
                          row_te=self.row_te[:, :l_max], row_tm=self.row_tm[:, :l_max])

    def take(self, keep) -> "KappaTable":
        """The table of the nodes ``keep`` selects (a mask or indices on the node axis)."""
        nodes, n = self.c.shape
        ladders = {k: lad.reshape(len(lad), nodes, n)[:, keep].reshape(len(lad), -1)
                   for k, lad in self._ladders.items()}
        return KappaTable(kappa=np.atleast_1d(self.kappa)[keep], c=self.c[keep],
                          col_te=self.col_te[keep], col_tm=self.col_tm[keep],
                          row_te=self.row_te[keep], row_tm=self.row_tm[keep], _ladders=ladders)


def assemble_block(m: int, table: KappaTable) -> RoundTripBlock:
    """Assemble the round-trip block for one azimuthal index as its factor H.

    ``table`` fixes the kappa nodes, the sheets, l_max and the rapidity
    nodes; the block covers every node of the table, with a 2-D factor for
    a scalar kappa.  Blocks of one table share its kappa-only work and its
    Legendre-ladder cache, so they are assembled on one thread; distinct
    tables are independent.
    """
    l_max = table.l_max
    mm = abs(m)
    l0 = max(1, mm)
    if l_max < l0:
        raise ValueError(f"l_max={l_max} below max(1, |m|)={l0}")

    ltau, lpi = _angular_logs(l_max, mm, table.c.ravel(), table.ladder)
    h = _fill_factor(table, ltau, lpi, l0)
    if m < 0:
        h[:, 1::2] *= -1.0
    finite = np.isfinite(h).all(axis=(1, 2))
    if not finite.all():
        raise NumericsError(
            f"non-finite entries in block m={m}, "
            f"kappa={np.atleast_1d(table.kappa)[np.argmin(finite)]} "
            f"(l_max={l_max}, theta_nodes={table.c.shape[1]})")
    return RoundTripBlock(m=m, kappa=table.kappa, l_max=l_max,
                          factor=h if np.ndim(table.kappa) else h[0])


def _fill_factor(table: KappaTable, ltau, lpi, l0: int, pol: int | None = None) -> np.ndarray:
    """The factor H, (K, 2 n_l, 2 n_theta), on the table's nodes from its angular logs.

    ``ltau`` and ``lpi`` hold the logs of the tau and pi entries, (n_l, K
    n_theta) for the degrees l = l0 .. l_max; ``lpi`` is None where pi = 0
    (m = 0), and then only the TE/TE and TM/TM quarters are filled and the
    other two stay zero.  Each entry is exp(angular + row half-log +
    column half-log), its exponent summed in one scratch buffer that exp
    writes straight into H.  Rows carry no sign.  With ``pol`` (TE = 0,
    TM = 1) only the rows of that polarization are filled, as a
    (K, n_l, 2 n_theta) array: the rows of H from ``pol`` on in steps of
    two, bit for bit.
    """
    nodes, n = table.c.shape
    nl = ltau.shape[0]
    row_te, row_tm = table.row_te[:, l0 - 1:, None], table.row_tm[:, l0 - 1:, None]
    col_te, col_tm = table.col_te[:, None, :], table.col_tm[:, None, :]
    # M = H H^T with a TE row [tau sqrt(r_TE), pi sqrt(q_TM)] and a TM row
    # [pi sqrt(r_TE), tau sqrt(q_TM)], each times its row weight
    quarters = [(ltau, row_te, col_te, 0, slice(None, n)),
                (ltau, row_tm, col_tm, 1, slice(n, None))]
    if lpi is not None:
        quarters += [(lpi, row_te, col_tm, 0, slice(n, None)),
                     (lpi, row_tm, col_te, 1, slice(None, n))]
    # H interleaves the two polarizations row by row; one alone fills every row
    step = 2 if pol is None else 1
    if pol is not None:
        quarters = [quarter for quarter in quarters if quarter[3] == pol]
    # the exponent buffer goes before H: allocated after it, it raised the
    # measured peak RSS of a d/R = 0.1 and 0.05 pass by 0.8 MB
    arg = np.empty((nodes, nl, n))
    h = (np.zeros if lpi is None else np.empty)((nodes, step * nl, 2 * n))
    for angular, row, col, p, cols in quarters:
        # (n_l, K n_theta) -> (K, n_l, n_theta), as a view
        np.add(angular.reshape(nl, nodes, n).swapaxes(0, 1), row, out=arg)
        arg += col
        np.exp(arg, out=h[:, (p if pol is None else 0)::step, cols])
    return h


def _row_norms(h: np.ndarray) -> np.ndarray:
    """The (K, rows) squared norms of the rows of a stack of factors H."""
    return np.einsum("kij,kij->ki", h, h)


def _squared_norms(h: np.ndarray) -> np.ndarray:
    """The (K,) squared norms of a stack of factors H, summed from its rows."""
    return _row_norms(h).sum(axis=1)
