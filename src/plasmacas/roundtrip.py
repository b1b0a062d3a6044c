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
* everything that depends on kappa but not on m (rapidity nodes and weights,
  plane reflections, sphere T logs, the scaled l prefactor) lives in one
  :class:`KappaTable` per kappa, which also hands the m+1 Legendre ladder
  of block m on to block m+1;
* the balanced weight of an element separates into a row factor and a
  column factor, so a block is M = H H^T with H of size 2 n_l x 2 n_theta
  (a TE row [tau sqrt r_TE, pi sqrt q_TM], a TM row [pi sqrt r_TE,
  tau sqrt q_TM], q_TM = -r_TM >= 0, TM rows negated for m < 0), and a
  block is stored as H alone; M is positive semi-definite and I - M
  positive definite on the imaginary axis, and since det(I - H H^T) =
  det(I - H^T H) the log-determinant is one Cholesky factorisation of
  whichever side is smaller, which also gives the leading-l truncation
  used as the l probe;
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
    """Log arrays of the normalised angular functions on cosh(theta) nodes.

    tau_l = sinh(theta) dPbar_l^m/dx and pi_l = (m/sinh(theta)) Pbar_l^m,
    both positive for x > 1.  Rows run over l = max(1, m) .. l_max.
    ``ladder(k)`` gives ln Pbar_l^k for l = k .. l_max on ``c_nodes``.
    """
    l0 = max(1, m_abs)
    lvec = np.arange(l0, l_max + 1)
    pbar_m = ladder(m_abs)[l0 - m_abs:, :]
    sh = np.sqrt((c_nodes - 1.0) * (c_nodes + 1.0))
    n = c_nodes.size
    # sinh * dPbar/dx = (m x / sinh) Pbar_l^m + sqrt((l-m)(l+m+1)) Pbar_l^{m+1}
    if m_abs > 0:
        t1 = np.log(m_abs * c_nodes / sh)[None, :] + pbar_m
        lpi = np.log(m_abs / sh)[None, :] + pbar_m
    else:
        t1 = np.full((lvec.size, n), -np.inf)
        lpi = np.full((lvec.size, n), -np.inf)
    t2 = np.full((lvec.size, n), -np.inf)
    if l_max >= m_abs + 1:
        pbar_m1 = ladder(m_abs + 1)
        rows = lvec >= m_abs + 1
        coef = (lvec[rows] - m_abs) * (lvec[rows] + m_abs + 1.0)
        t2[rows] = 0.5 * np.log(coef)[:, None] + pbar_m1[lvec[rows] - (m_abs + 1), :]
    ltau = np.logaddexp(t1, t2)
    return lvec, ltau, lpi


@dataclass(frozen=True)
class RoundTripBlock:
    """Round-trip block at fixed (m, kappa), stored as its factor.

    ``factor`` is H, of size 2 n_l x 2 n_theta, with M = H H^T in balanced
    form: sqrt|T_l| is split across rows and columns (a similarity
    transform, so every determinant built from the block is unchanged), and
    the common factor e^{-2 kappa (L-R)}/(2 kappa L) is included.  Every
    entry of H and of M is below 1 in magnitude, since I - M is positive
    definite and M positive semi-definite.  Row index is
    2*(l - max(1,|m|)) + pol with pol TE=0, TM=1; the first n_theta columns
    carry r_TE and the last q_TM, and at m = 0 the TE rows vanish on the
    last n_theta columns and the TM rows on the first.  ``matrix`` forms M
    on each access, for tests and oracles; ``dim`` is its size 2 n_l.
    """

    m: int
    kappa: float
    l_max: int
    factor: np.ndarray = field(repr=False)

    @property
    def matrix(self) -> np.ndarray:
        return self.factor @ self.factor.T

    @property
    def dim(self) -> int:
        return self.factor.shape[0]


@dataclass(frozen=True)
class KappaTable:
    """The part of every block at one kappa that does not depend on m.

    ``c`` holds the cosh(theta) nodes.  ``col_te``/``col_tm`` are the
    half-logs of the column weights w r_TE and w (-r_TM): rapidity weight
    (which includes e^{-u}) times plane reflection, so their exponentials are
    the sqrt weights of the rapidity sum.  ``half_pref`` is the half-log of the element prefactor
    (pi/2) (2l+1)/(l(l+1)) times the block scale
    e^{-2 kappa (L-R)}/(2 kappa L), and ``half_log_t`` the TE and TM
    half-logs of |T_l|, for l = 1 .. l_max.  The table also keeps the two
    Legendre ladders asked for last: the m+1 ladder of block m is the m
    ladder of block m+1, so assembling m = 0, 1, 2, ... in order computes
    each ladder once.  That cache makes a table a one-thread object.
    """

    kappa: float
    c: np.ndarray = field(repr=False)
    col_te: np.ndarray = field(repr=False)
    col_tm: np.ndarray = field(repr=False)
    half_pref: np.ndarray = field(repr=False)
    half_log_t: tuple = field(repr=False)
    _ladders: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def build(cls, kappa: float, sphere: SphereSheet, plane: PlaneSheet,
              l_max: int, rule) -> "KappaTable":
        """The table for degrees l = 1 .. l_max on the rapidity rule (u, ln w).

        ``rule`` integrates int_0^inf e^{-u} f(u) du as sum exp(ln w) f(u).
        """
        if not (kappa > 0.0):
            raise ValueError(f"kappa must be positive, got {kappa}")
        kl = kappa * plane.distance_L
        u, log_w = rule
        c = 1.0 + u / (2.0 * kl)
        sh = np.sqrt((c - 1.0) * (c + 1.0))
        rte = plane_r(Polarization.TE, kappa, kappa * sh, plane)
        qtm = -plane_r(Polarization.TM, kappa, kappa * sh, plane)
        with np.errstate(divide="ignore"):
            col_te = 0.5 * (log_w + np.log(rte))
            col_tm = 0.5 * (log_w + np.log(qtm))
        log_te, log_tm = sphere_t_logs(l_max, kappa, sphere)

        log_s = 2.0 * kappa * sphere.radius_R - 2.0 * kl - math.log(2.0 * kl)
        lvec = np.arange(1, l_max + 1)
        half_pref = 0.5 * (math.log(math.pi / 2.0) + log_s
                           + np.log(2 * lvec + 1.0) - np.log(lvec * (lvec + 1.0)))
        return cls(kappa=kappa, c=c, col_te=col_te, col_tm=col_tm, half_pref=half_pref,
                   half_log_t=(0.5 * log_te, 0.5 * log_tm))

    @property
    def l_max(self) -> int:
        return self.half_pref.size

    def ladder(self, m_abs: int) -> np.ndarray:
        """ln Pbar_l^m_abs for l = m_abs .. l_max on the nodes."""
        lad = self._ladders.get(m_abs)
        if lad is None:
            lad = legendre_pbar_log(self.l_max, m_abs, self.c)
            self._ladders[m_abs] = lad
            if len(self._ladders) > 2:
                del self._ladders[next(iter(self._ladders))]
        return lad


def assemble_block(m: int, table: KappaTable) -> RoundTripBlock:
    """Assemble the round-trip block for one azimuthal index as its factor H.

    ``table`` fixes kappa, the sheets, l_max and the rapidity nodes.  Blocks
    of one table share its kappa-only work and its Legendre-ladder cache, so
    they are assembled on one thread; distinct tables are independent.
    """
    l_max = table.l_max
    mm = abs(m)
    l0 = max(1, mm)
    if l_max < l0:
        raise ValueError(f"l_max={l_max} below max(1, |m|)={l0}")

    _, ltau, lpi = _angular_logs(l_max, mm, table.c, table.ladder)
    nl, n = ltau.shape
    row_te = (table.half_pref[l0 - 1:] + table.half_log_t[0][l0 - 1:])[:, None]
    row_tm = (table.half_pref[l0 - 1:] + table.half_log_t[1][l0 - 1:])[:, None]
    # M = H H^T with a TE row [tau sqrt(r_TE), pi sqrt(q_TM)] and a TM row
    # [pi sqrt(r_TE), tau sqrt(q_TM)], each times its row weight
    h = np.empty((2 * nl, 2 * n))
    np.exp(ltau + row_te + table.col_te, out=h[0::2, :n])
    np.exp(lpi + row_te + table.col_tm, out=h[0::2, n:])
    np.exp(lpi + row_tm + table.col_te, out=h[1::2, :n])
    np.exp(ltau + row_tm + table.col_tm, out=h[1::2, n:])
    if m < 0:
        h[1::2] *= -1.0
    if not np.all(np.isfinite(h)):
        raise NumericsError(
            f"non-finite entries in block m={m}, kappa={table.kappa} "
            f"(l_max={l_max}, theta_nodes={n})")
    return RoundTripBlock(m=m, kappa=table.kappa, l_max=l_max, factor=h)
