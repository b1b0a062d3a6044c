import concurrent.futures
import math

import numpy as np
import pytest
from scipy.integrate import quad

from plasmacas.energy_exact import _kappa_rule, _theta_rule, logdet_one_minus
from plasmacas import roundtrip
from plasmacas.roundtrip import KappaTable, assemble_block
from plasmacas.scattering import (PERFECT_CONDUCTOR, PlaneSheet, Polarization,
                                  SphereSheet, sphere_t)
from plasmacas._quadrature import rapidity_rule

from oracles import (angular_logs, angular_logs_logaddexp, block_at, dense_matrix, m_element,
                     m_summed_trace)

TE, TM = Polarization.TE, Polarization.TM


def oracle_element_l1_m1(kappa, sphere, plane):
    """Independent route: cosh(theta) = 1 + u substitution, adaptive quadrature,
    unnormalized P_1^1 with the explicit factorial prefactor."""
    op, L = plane.omega_p, plane.distance_L
    pref = (math.pi / 2.0) * (3.0 / 2.0) * 0.5  # sqrt terms at l=l'=1, m=1

    def gee(u, row, col):
        c = 1.0 + u
        rte = op / (op + kappa * c)
        qtm = op * c / (op * c + kappa)
        a, b = c, 1.0  # sinh P' and (m/sinh) P for l = 1, m = 1
        g = {(0, 0): a * rte * a + b * qtm * b,
             (0, 1): a * rte * b + b * qtm * a,
             (1, 0): b * rte * a + a * qtm * b,
             (1, 1): b * rte * b + a * qtm * a}[(row, col)]
        return g * math.exp(-2.0 * kappa * L * (1.0 + u))

    # the negative T_TM row times the negative middle-matrix row is net +,
    # so both rows carry |T| here
    t_abs = {0: sphere_t(TE, 1, kappa, sphere), 1: abs(sphere_t(TM, 1, kappa, sphere))}
    out = np.empty((2, 2))
    for i in (0, 1):
        for j in (0, 1):
            val, _ = quad(gee, 0.0, np.inf, args=(i, j), epsabs=1e-14, epsrel=1e-12)
            out[i, j] = pref * t_abs[i] * val
    return out


def test_m_element_against_independent_substitution_oracle():
    # kappa L = 1, Omega_s R = 1, Omega_p L = 1, L/R = 2
    sphere = SphereSheet(1.0, 1.0)
    plane = PlaneSheet(0.5, 2.0)
    kappa = 0.5
    got = m_element(1, 1, 1, kappa, sphere, plane)
    want = oracle_element_l1_m1(kappa, sphere, plane)
    assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-8


def test_m_element_m0_offdiagonal_zero():
    sphere = SphereSheet(1.0, 2.0)
    plane = PlaneSheet(1.5, 3.0)
    for l, lp in ((1, 1), (2, 5), (4, 3)):
        e = m_element(l, lp, 0, 0.8, sphere, plane)
        assert e[0, 1] == 0.0 and e[1, 0] == 0.0
        assert e[0, 0] != 0.0 and e[1, 1] != 0.0


def test_m_element_transparent_sphere_zero():
    e = m_element(2, 3, 1, 0.6, SphereSheet(1.0, 0.0), PlaneSheet(1.0, 2.0))
    assert np.all(e == 0.0)


def test_m_element_domain_errors():
    sphere, plane = SphereSheet(1.0, 1.0), PlaneSheet(1.0, 2.0)
    with pytest.raises(ValueError):
        m_element(1, 1, 2, 0.5, sphere, plane)
    with pytest.raises(ValueError):
        m_element(1, 1, 0, -0.5, sphere, plane)


def test_tete_integral_reduction_against_oracle():
    # raw theta integral of (sinh P_l' )^2 with unit reflection factors,
    # checked against the cosh = 1 + u substitution on the normalized ladder
    kappa, L = 0.8, 2.0
    for l, m in ((2, 0), (3, 1), (5, 2)):
        u, v = np.polynomial.laguerre.laggauss(80)
        c = 1.0 + u / (2.0 * kappa * L)
        ltau, _ = angular_logs(l, m, c)
        mine = math.exp(-2.0 * kappa * L) / (2.0 * kappa * L) * float(
            v @ np.exp(2.0 * ltau[-1]))

        def f(uu):
            cc = 1.0 + uu
            lt, _ = angular_logs(l, m, np.array([cc]))
            return math.exp(2.0 * lt[-1, 0] - 2.0 * kappa * L * cc)

        want, _ = quad(f, 0.0, np.inf, epsabs=1e-14, epsrel=1e-12)
        assert mine == pytest.approx(want, rel=1e-8)


@pytest.mark.parametrize("l_max", [20, 130, 610])
def test_angular_logs_match_the_logaddexp_form(l_max):
    # ln tau from ln pi and the bounded ratio tau/pi - c against the log-sum
    # of its two Legendre terms, from c just above 1 to far rapidities; the
    # production route raises no floating-point flag on the way
    c = np.array([1.0 + 1e-9, 1.0 + 1e-6, 1.01, 3.0, 1e3, 5e4])
    for m in sorted({0, 1, 2, 7, l_max // 2, l_max - 1, l_max}):
        want_tau, want_pi = angular_logs_logaddexp(l_max, m, c)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            ltau, lpi = angular_logs(l_max, m, c)
        assert ltau.shape == (l_max - max(1, m) + 1, c.size)
        assert np.all(np.abs(ltau - want_tau) <= 4e-15 * np.maximum(1.0, np.abs(want_tau)))
        if m == 0:
            assert lpi is None  # pi = 0 at m = 0
        else:
            assert np.array_equal(lpi, want_pi)


def test_block_dimension_single_l():
    for m in (0, 1, 4):
        l0 = max(1, m)
        b = block_at(m, 0.7, SphereSheet(1.0, 1.0), PlaneSheet(1.0, 2.0), l0)
        assert b.matrix.shape == (2, 2)


def test_block_matches_m_element_entrywise():
    # the block on the driver's sqrt(u) Gauss-Legendre rule, with twice its
    # panels, against the Gauss-Laguerre element oracle, an independent
    # rapidity rule, to 1.9e-12 here; on the driver's own 4 panels the
    # entries agree to 1.2e-7 (7.2e-9 on 5)
    rng = np.random.default_rng(31)
    sphere = SphereSheet(1.0, float(rng.uniform(0.5, 2.0)))
    plane = PlaneSheet(float(rng.uniform(0.5, 2.0)), 2.2)
    kappa, m, l_max = 0.9, 2, 6
    panels, v_max = _theta_rule(l_max)
    block = block_at(m, kappa, sphere, plane, l_max, rapidity_rule(2 * panels, v_max))
    dense = dense_matrix(block, sphere)
    l0 = max(1, m)
    for li, l in enumerate(range(l0, l_max + 1)):
        for lj, lp in enumerate(range(l0, l_max + 1)):
            e = m_element(l, lp, m, kappa, sphere, plane, theta_nodes=80)
            got = dense[2 * li:2 * li + 2, 2 * lj:2 * lj + 2]
            assert np.allclose(got, e, rtol=1e-9, atol=1e-300)


def test_block_negative_m_degeneracy():
    rng = np.random.default_rng(32)
    for _ in range(8):
        m = int(rng.integers(1, 6))
        l_max = int(rng.integers(max(1, m), 11))
        kappa = float(10.0 ** rng.uniform(-0.5, 0.5))
        sphere = SphereSheet(1.0, float(10.0 ** rng.uniform(-1, 1)))
        plane = PlaneSheet(float(10.0 ** rng.uniform(-1, 1)), float(rng.uniform(1.5, 3.0)))
        bp = block_at(m, kappa, sphere, plane, l_max)
        bm = block_at(-m, kappa, sphere, plane, l_max)
        dp = logdet_one_minus(bp)
        dm = logdet_one_minus(bm)
        assert dm == pytest.approx(dp, rel=1e-10)
        # the blocks themselves differ only by the mixed-entry signature
        assert not np.array_equal(bp.matrix, bm.matrix)


def test_block_far_distance_entries_negligible():
    # kappa L = 40 suppresses every entry well below 1e-30 once the geometric
    # factor (R/L)^{2l+1} is also in play (L/R >= 6 here; at L close to R the
    # bound e^{-2 kappa L cosh} alone does not reach 1e-30 against T ~ e^{2 kappa R})
    for lr, omega in ((6.0, PERFECT_CONDUCTOR), (10.0, 1.0)):
        kappa = 40.0 / lr
        sphere = SphereSheet(1.0, omega)
        b = block_at(1, kappa, sphere, PlaneSheet(omega, lr), 4)
        assert np.max(np.abs(dense_matrix(b, sphere))) < 1e-30


def test_block_diagonal_decay_in_l():
    kappa, l_max = 1.2, 18
    sphere = SphereSheet(1.0, PERFECT_CONDUCTOR)
    b = block_at(0, kappa, sphere, PlaneSheet(PERFECT_CONDUCTOR, 1.6), l_max)
    dense = np.abs(dense_matrix(b, sphere))
    lmin = int(2 * kappa + 5)
    for pol in (0, 1):
        diag = np.array([dense[2 * i + pol, 2 * i + pol] for i in range(l_max)])
        for i in range(lmin, l_max - 1):
            assert diag[i + 1] < diag[i]


def test_block_spectral_radius_below_one():
    rng = np.random.default_rng(33)
    for _ in range(10):
        l_max = int(rng.integers(3, 12))
        m = int(rng.integers(0, 3))
        kappa = float(10.0 ** rng.uniform(-1, 1))
        sphere = SphereSheet(1.0, float(10.0 ** rng.uniform(-1, 2)))
        plane = PlaneSheet(float(10.0 ** rng.uniform(-1, 2)), float(rng.uniform(1.3, 4.0)))
        b = block_at(m, kappa, sphere, plane, l_max)
        lam = np.linalg.eigvals(b.matrix)
        assert np.max(np.abs(lam)) < 1.0


def test_block_concurrent_assembly_matches_serial():
    sphere = SphereSheet(1.0, 1.3)
    plane = PlaneSheet(0.8, 2.0)
    jobs = [(m, 0.4 + 0.2 * k) for m in range(0, 5) for k in range(4)]
    serial = [block_at(m, kap, sphere, plane, 8).matrix for m, kap in jobs]
    with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(
            lambda jk: block_at(jk[0], jk[1], sphere, plane, 8).matrix, jobs))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("omega", [PERFECT_CONDUCTOR, 1.7])
def test_shared_kappa_table_gives_standalone_blocks(omega, monkeypatch):
    sphere, plane = SphereSheet(1.0, omega), PlaneSheet(omega, 1.3)
    kappa = 0.9
    standalone = [block_at(m, kappa, sphere, plane, 12) for m in range(13)]
    calls = []

    def counted(*args):
        calls.append(args[1])
        return legendre_pbar_log(*args)

    legendre_pbar_log = roundtrip.legendre_pbar_log
    monkeypatch.setattr(roundtrip, "legendre_pbar_log", counted)
    table = KappaTable.build(kappa, sphere, plane, 12, rapidity_rule(*_theta_rule(12)))
    for m, want in enumerate(standalone):
        got = assemble_block(m, table)
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.matrix, got.matrix.T)
    # the m+1 ladder of block m serves block m+1: one ladder per order, and
    # none of order 0, which block 0 does not read
    assert calls == list(range(1, 13))
    with pytest.raises(ValueError):
        assemble_block(13, table)  # block m = 13 needs l >= 13 > l_max = 12


@pytest.mark.parametrize("omega", [PERFECT_CONDUCTOR, 1.7])
def test_cut_table_gives_the_top_free_rows_of_every_block(omega):
    # a table of degrees up to 20 cut at 12 gives, at every m <= 12, the
    # blocks of the uncut table without their rows past degree 12, bit for
    # bit, and its m-summed norms are the uncut ones of those degrees.
    # Against a table built at 12 they agree to round-off: the Bessel I
    # ladder behind the sphere's T runs downward from the top degree
    sphere, plane = SphereSheet(1.0, omega), PlaneSheet(omega, 1.3)
    kappa, rule = np.array([0.4, 0.9, 3.0]), rapidity_rule(*_theta_rule(20))
    table = KappaTable.build(kappa, sphere, plane, 20, rule)
    cut, built = table.cut(12), KappaTable.build(kappa, sphere, plane, 12, rule)
    assert cut.l_max == 12 and table.l_max == 20
    assert np.array_equal(cut.m_summed_traces(), table.m_summed_traces()[:, :12])
    for m in range(13):
        rows = 2 * (12 - max(1, m) + 1)
        got = assemble_block(m, cut).factor
        assert np.array_equal(got, assemble_block(m, table).factor[:, :rows])
        assert got == pytest.approx(assemble_block(m, built).factor, rel=1e-12, abs=1e-300)
    for l_max in (0, 21):
        with pytest.raises(ValueError, match="cannot cut"):
            table.cut(l_max)


def test_kappa_table_takes_the_sphere_t_logs_of_all_nodes_in_one_call(monkeypatch):
    calls = []

    def counted(l_max, kappa, sphere):
        calls.append(np.shape(kappa))
        return sphere_t_logs(l_max, kappa, sphere)

    sphere_t_logs = roundtrip.sphere_t_logs
    monkeypatch.setattr(roundtrip, "sphere_t_logs", counted)
    kappa = _kappa_rule(16)[0] / (2.0 * 0.3)
    table = KappaTable.build(kappa, SphereSheet(1.0, 1.7), PlaneSheet(1.7, 1.3), 22,
                             rapidity_rule(*_theta_rule(22)))
    assert calls == [(15,)] and table.row_te.shape == (15, 22)


@pytest.mark.parametrize("omega", [PERFECT_CONDUCTOR, 1.7])
def test_array_kappa_table_stacks_the_scalar_blocks(omega):
    # a table of K nodes gives one block per m with a leading node axis;
    # node k of it is, bit for bit, the block of a scalar table at kappa_k,
    # and the log-determinants come as one array instead of one float each.
    # take() keeps a subset of the nodes, with the ladder cache
    sphere, plane = SphereSheet(1.0, omega), PlaneSheet(omega, 1.3)
    kappa = np.array([0.3, 0.9, 4.0])
    rule = rapidity_rule(*_theta_rule(12))
    table = KappaTable.build(kappa, sphere, plane, 12, rule)
    singles = [KappaTable.build(float(k), sphere, plane, 12, rule) for k in kappa]
    for m in range(6):
        if m == 3:
            table = table.take([0, 2])
            kappa, singles = kappa[[0, 2]], [singles[0], singles[2]]
        block = assemble_block(m, table)
        assert block.factor.shape[0] == kappa.size and np.array_equal(block.kappa, kappa)
        full = logdet_one_minus(block)
        for k, single in enumerate(singles):
            one = assemble_block(m, single)
            assert one.factor.ndim == 2 and np.array_equal(block.factor[k], one.factor)
            assert block.dim == one.dim and np.array_equal(block.matrix[k], one.matrix)
            value = logdet_one_minus(one)
            assert type(value) is float and value == full[k]
    with pytest.raises(ValueError):
        KappaTable.build(np.array([1.0, 0.0]), sphere, plane, 12, rule)


@pytest.mark.parametrize("d, l_max, omega_s, omega_p, xs, far", [
    (0.1, 70, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR, (0.05, 0.7, 5.0, 17.5, 60.0), True),
    (0.1, 70, 1.7, PERFECT_CONDUCTOR, (0.05, 0.7, 5.0, 17.5, 60.0), True),
    (0.1, 70, PERFECT_CONDUCTOR, 0.5, (0.05, 0.7, 5.0, 17.5, 60.0), True),
    (0.05, 130, 2.0, 5.0, (0.05, 0.7, 5.0), True),
    (0.01, 610, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR, (), False)])
def test_m_summed_traces_match_the_block_by_block_sum(d, l_max, omega_s, omega_p, xs, far):
    # the addition-theorem sum of (2 - delta_m0) tr M_m over m = 0 .. l_max
    # against the blocks assembled one by one, at x = 2 kappa d on the near
    # edge of kappa level 128, at ``xs`` and on the far edge.  X =
    # cosh(2 theta) runs from 1 + 1.6e-8 to 8e9 over the rapidity nodes,
    # and P_l(X) up to 1e5750; on the far edge every block and the trace
    # underflow to 0.  The per-degree norms sum to T over every degree and
    # to T_top over the degrees past l_keep, checked at the probe's cutoff
    # and at both ends, l_keep = 1 and l_keep = l_max, where it is exactly
    # 0.  Each entry of H is exp of a
    # sum of logs as large as ln P_l(X) <= l ln(2X) (1.4e4 at the near
    # node of d/R = 0.01), and exp turns the absolute round-off of that
    # sum, about eps times it on each side, into a relative one.  The top
    # degrees carry the largest logs, and T, summed over every degree, the
    # smallest share of them
    x = _kappa_rule(128)[0]
    kappa = np.array([x.min(), *xs] + ([x.max()] if far else [])) / (2.0 * d)
    table = KappaTable.build(kappa, SphereSheet(1.0, omega_s), PlaneSheet(omega_p, 1.0 + d), l_max,
                             rapidity_rule(*_theta_rule(l_max)))
    big_log = l_max * math.log(2.0 * (2.0 * table.c.max() ** 2 - 1.0))
    top_tol = max(1e-12, 4.0 * np.finfo(float).eps * big_log)
    norms = table.m_summed_traces()
    assert norms.shape == (kappa.size, l_max, 2) and np.all(norms >= 0.0)
    for l_keep in (1, l_max - max(4, l_max // 8), l_max):
        got, got_top = norms.sum(axis=(1, 2)), norms[:, l_keep:].sum(axis=(1, 2))
        want, want_top = m_summed_trace(table, l_keep)
        if far:
            assert want[-1] == got[-1] == want_top[-1] == got_top[-1] == 0.0
            got, got_top, want, want_top = got[:-1], got_top[:-1], want[:-1], want_top[:-1]
        assert np.all(want > 0.0)
        if l_keep == l_max:
            assert np.all(got_top == 0.0) and np.all(want_top == 0.0)
        else:
            assert np.all(want_top > 0.0) and np.all(got_top < got)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert got_top == pytest.approx(want_top, rel=top_tol, abs=0.0)
