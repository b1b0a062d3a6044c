import math
import time

import numpy as np
import pytest

from plasmacas import energy_exact
from plasmacas.energy_exact import (EnergyResult, NumericsSpec, casimir_energy,
                                    logdet_one_minus)
from plasmacas.errors import NumericsError, SpectralAnomalyError
from plasmacas.roundtrip import RoundTripBlock
from plasmacas.scattering import PERFECT_CONDUCTOR, PlaneSheet, SphereSheet
from plasmacas._quadrature import rapidity_rule

from oracles import block_at, dense_matrix


def _block_of(factor, m=1):
    n = factor.shape[0]
    return RoundTripBlock(m=m, kappa=1.0, l_max=n // 2, factor=factor)


def _recording_cholesky(monkeypatch):
    """Record the size of every matrix handed to np.linalg.cholesky, one
    entry per matrix of a stack."""
    sizes = []
    real = np.linalg.cholesky

    def recording(a, *args, **kwargs):
        sizes.extend([a.shape[-1]] * (a.shape[0] if a.ndim == 3 else 1))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    return sizes


# ---------------------------------------------------------------- logdet

def test_logdet_zero_matrix():
    assert logdet_one_minus(_block_of(np.zeros((6, 6)))) == 0.0


def test_logdet_diagonal():
    q = np.array([0.1, 0.35, 0.02, 0.6])
    b = _block_of(np.diag(np.sqrt(q)))
    assert logdet_one_minus(b) == pytest.approx(np.sum(np.log1p(-q)), rel=1e-14)


def test_block_is_built_from_its_factor():
    f = np.arange(12.0).reshape(4, 3) / 20.0
    b = _block_of(f)
    assert b.dim == 4 and np.array_equal(b.matrix, f @ f.T)
    # M = H H^T is positive semi-definite by type, so a block takes no matrix
    with pytest.raises(TypeError):
        RoundTripBlock(m=1, kappa=1.0, l_max=2, matrix=f @ f.T)


def test_logdet_spectral_anomaly(monkeypatch):
    # an eigenvalue of M = H H^T past 1 flips the determinant sign
    with pytest.raises(SpectralAnomalyError):
        logdet_one_minus(_block_of(np.diag(np.sqrt([1.5, 0.1]))))
    # two eigenvalues past 1 leave det(I - M) = 0.25 > 0, still not positive definite
    with pytest.raises(SpectralAnomalyError):
        logdet_one_minus(_block_of(np.diag(np.sqrt([1.5, 1.5]))))
    # a tall factor is factorised on the theta side, I - H^T H; a spectral
    # norm above 1 must fail there too, with and without the l probe
    tall = np.zeros((6, 2))
    tall[0, 0], tall[3, 1] = 1.2, 0.5
    sizes = _recording_cholesky(monkeypatch)
    for nl_keep in (None, 2):
        with pytest.raises(SpectralAnomalyError):
            logdet_one_minus(_block_of(tall), nl_keep)
    assert sizes == [2, 4]


def test_logdet_random_factors_of_both_shapes(monkeypatch):
    # M = H H^T cannot make det(I - M) > 1: random factors of spectral norm
    # below 1, wide (l side) and tall (theta side), give a value <= 0 equal
    # to slogdet of the explicit I - H H^T and of its leading sub-block
    rng = np.random.default_rng(7)
    sizes = _recording_cholesky(monkeypatch)
    for shape in ((4, 12), (12, 3)):
        for _ in range(5):
            f = rng.standard_normal(shape)
            f /= 1.05 * np.linalg.norm(f, 2)
            nl_keep = shape[0] // 2 - 1
            k = 2 * nl_keep
            full, lead = logdet_one_minus(_block_of(f), nl_keep)
            assert full <= lead <= 0.0
            m = f @ f.T
            assert full == pytest.approx(np.linalg.slogdet(np.eye(shape[0]) - m)[1],
                                         rel=1e-12, abs=1e-14)
            assert lead == pytest.approx(np.linalg.slogdet(np.eye(k) - m[:k, :k])[1],
                                         rel=1e-12, abs=1e-14)
    # l side I - H H^T of size 4; theta side of size 3 plus 2 dropped rows
    assert sizes == [4] * 5 + [5] * 5


@pytest.mark.parametrize("omega", [PERFECT_CONDUCTOR, 2.5])
def test_logdet_leading_l_matches_sliced_sub_block(omega):
    # the leading-l value read off the one factorisation equals the
    # log-determinant of the explicitly sliced principal sub-block
    sphere, plane = SphereSheet(1.0, omega), PlaneSheet(omega, 1.2)
    l_max, nl_drop = 14, 4
    for kappa in (0.4, 2.0, 6.0):
        for m in (0, 3, -3):
            block = block_at(m, kappa, sphere, plane, l_max)
            nl_keep = block.dim // 2 - nl_drop
            full, lead = logdet_one_minus(block, nl_keep)
            assert full == logdet_one_minus(block)
            k = 2 * nl_keep
            sub = RoundTripBlock(m=m, kappa=kappa, l_max=l_max, factor=block.factor[:k])
            want = logdet_one_minus(sub)
            assert lead == pytest.approx(want, rel=1e-12, abs=0.0)
            assert lead > full  # dropping degrees drops attraction
            lu = np.linalg.slogdet(np.eye(k) - sub.matrix)[1]
            assert lead == pytest.approx(lu, rel=1e-10, abs=0.0)
    with pytest.raises(ValueError):
        logdet_one_minus(block, 0)


@pytest.mark.parametrize("omega", [PERFECT_CONDUCTOR, 2.5])
@pytest.mark.parametrize("l_max, theta_nodes", [(40, 12), (8, 40)])
def test_logdet_factorises_the_smaller_side(monkeypatch, omega, l_max, theta_nodes):
    # det(I - H H^T) = det(I - H^T H): l_max 40 on 12 rapidity nodes puts
    # every block on the theta side, l_max 8 on 40 nodes on the l side.
    # The rule is Gauss-Laguerre here, as any rule (u, ln w) may be.
    # Both the full value and the l probe match slogdet of the explicit
    # I - H H^T and of its sliced leading sub-block, and each matrix
    # factorised is the smaller of the two sides.
    sphere, plane = SphereSheet(1.0, omega), PlaneSheet(omega, 1.2)
    nl_drop = 2
    u, w = np.polynomial.laguerre.laggauss(theta_nodes)
    sizes = _recording_cholesky(monkeypatch)
    for kappa in (0.4, 2.0, 6.0):
        for m in (0, 3, -3):
            block = block_at(m, kappa, sphere, plane, l_max, (u, np.log(w)))
            nl = block.dim // 2
            k = 2 * (nl - nl_drop)
            del sizes[:]
            full, lead = logdet_one_minus(block, nl - nl_drop)
            halves, per_l = (2, 1) if m == 0 else (1, 2)
            l_side, theta_side = per_l * nl, per_l * (theta_nodes + nl_drop)
            assert sizes == [min(l_side, theta_side)] * halves
            assert (theta_side < l_side) == (l_max == 40)
            mat = block.matrix
            want_full = np.linalg.slogdet(np.eye(block.dim) - mat)[1]
            want_lead = np.linalg.slogdet(np.eye(k) - mat[:k, :k])[1]
            assert abs(full - want_full) <= 1e-12 * max(1.0, abs(want_full))
            assert abs(lead - want_lead) <= 1e-12 * max(1.0, abs(want_lead))
            assert full < lead < 0.0


@pytest.mark.parametrize("kappa", [1e-4, 3.1e3])
def test_logdet_of_folded_block_at_extreme_scale(kappa):
    # at d/R = 0.1 the block scale e^{-2 kappa d}/(2 kappa L) is about 5e3
    # at kappa R = 1e-4 and e^{-629} at the far node kappa R = 3.1e3; it is
    # part of the matrix, whose entries stay below 1, and the Cholesky value
    # is the plain log-determinant of I - matrix
    sphere, plane = SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.1)
    for m in (0, 1, 3):
        block = block_at(m, kappa, sphere, plane, 10)
        assert np.all(np.abs(block.matrix) < 1.0)
        want = np.linalg.slogdet(np.eye(block.dim) - block.matrix)[1]
        assert logdet_one_minus(block) == pytest.approx(want, rel=1e-12, abs=1e-300)


def _det4_cofactor(a):
    """Explicit cofactor expansion, the tiny-dimension oracle."""
    if a.shape == (1, 1):
        return a[0, 0]
    det = 0.0
    for j in range(a.shape[1]):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        det += (-1.0) ** j * a[0, j] * _det4_cofactor(minor)
    return det


def test_logdet_against_cofactor_oracle():
    # 4x4 block straight from the assembler at random parameters; the oracle
    # expands det(I - M) on the physical (unbalanced) matrix
    rng = np.random.default_rng(41)
    for _ in range(5):
        sphere = SphereSheet(1.0, float(10.0 ** rng.uniform(-1, 1)))
        plane = PlaneSheet(float(10.0 ** rng.uniform(-1, 1)), float(rng.uniform(1.5, 3.0)))
        kappa = float(10.0 ** rng.uniform(-0.5, 0.5))
        block = block_at(2, kappa, sphere, plane, 3)
        assert block.dim == 4
        want = math.log(_det4_cofactor(np.eye(4) - dense_matrix(block, sphere)))
        assert logdet_one_minus(block) == pytest.approx(want, abs=1e-12, rel=1e-12)


# ---------------------------------------------------------------- energy

def test_energy_transparent_is_zero():
    r = casimir_energy(SphereSheet(1.0, 0.0), PlaneSheet(1.0, 2.0))
    assert r.energy == 0.0
    r = casimir_energy(SphereSheet(1.0, 1.0), PlaneSheet(0.0, 2.0))
    assert r.energy == 0.0


def test_energy_requires_separation():
    with pytest.raises(ValueError):
        casimir_energy(SphereSheet(1.0, 1.0), PlaneSheet(1.0, 0.9))


def test_energy_negative_and_error_bounded():
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR),
                         PlaneSheet(PERFECT_CONDUCTOR, 1.3),
                         NumericsSpec(rel_tol=1e-3))
    assert isinstance(res, EnergyResult)
    assert res.energy < 0.0
    assert res.error_estimate < 1e-3 * abs(res.energy) + 1e-12
    assert res.energy_dimensionless == pytest.approx(res.energy * 0.3 ** 2 / 1.0, rel=1e-12)


def test_energy_scaling_law():
    # energy(lam R, lam L, Omega/lam) = energy(R, L, Omega)/lam
    spec = NumericsSpec(rel_tol=1e-4)
    base = casimir_energy(SphereSheet(1.0, 2.0), PlaneSheet(1.5, 1.4), spec)
    lam = 3.7
    scaled = casimir_energy(SphereSheet(lam, 2.0 / lam), PlaneSheet(1.5 / lam, 1.4 * lam), spec)
    assert scaled.energy == pytest.approx(base.energy / lam, rel=1e-6)


def test_energy_monotone_in_distance():
    spec = NumericsSpec(rel_tol=1e-4)
    values = [casimir_energy(SphereSheet(1.0, 5.0), PlaneSheet(5.0, L), spec).energy
              for L in (1.25, 1.5, 2.0, 3.0)]
    assert all(v < 0 for v in values)
    assert all(abs(b) < abs(a) for a, b in zip(values, values[1:]))


def test_energy_monotone_in_omega_pc_bound():
    spec = NumericsSpec(rel_tol=1e-4)
    L = 1.4
    vals = []
    for om in (0.5, 2.0, 20.0, PERFECT_CONDUCTOR):
        vals.append(abs(casimir_energy(SphereSheet(1.0, om), PlaneSheet(om, L), spec).energy))
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    # each sheet parameter separately, the other held fixed
    seq_s = [abs(casimir_energy(SphereSheet(1.0, om), PlaneSheet(3.0, L), spec).energy)
             for om in (0.5, 2.0, 8.0)]
    seq_p = [abs(casimir_energy(SphereSheet(1.0, 3.0), PlaneSheet(om, L), spec).energy)
             for om in (0.5, 2.0, 8.0)]
    assert seq_s[0] <= seq_s[1] <= seq_s[2]
    assert seq_p[0] <= seq_p[1] <= seq_p[2]
    # PC upper-bounds mixed finite cases too
    for om_s, om_p in ((1.0, 7.0), (3.0, 0.2)):
        v = abs(casimir_energy(SphereSheet(1.0, om_s), PlaneSheet(om_p, L), spec).energy)
        assert v <= vals[-1]


def test_energy_truncation_convergence_within_estimate(monkeypatch):
    sphere = SphereSheet(1.0, PERFECT_CONDUCTOR)
    plane = PlaneSheet(PERFECT_CONDUCTOR, 1.25)
    res = casimir_energy(sphere, plane, NumericsSpec(rel_tol=1e-3))
    # the reference also runs on the refined rapidity rule the theta probe
    # uses: twice the panels on 1.25 v_max
    rule = energy_exact._theta_rule
    monkeypatch.setattr(energy_exact, "_theta_rule",
                        lambda l_max: (2 * rule(l_max)[0], 1.25 * rule(l_max)[1]))
    hard = casimir_energy(sphere, plane, NumericsSpec(
        l_max=2 * res.l_max_used, m_max=2 * res.l_max_used,
        kappa_nodes=2 * res.kappa_nodes_used, rel_tol=1e-3))
    assert abs(hard.energy - res.energy) < res.error_estimate


def test_energy_explicit_truncation_too_small_raises():
    with pytest.raises(NumericsError):
        casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR),
                       PlaneSheet(PERFECT_CONDUCTOR, 1.05),
                       NumericsSpec(l_max=6, rel_tol=1e-4))


def test_smallest_l_max_reports_its_truncation():
    # PC d/R = 0.1 at l_max = 2 gives E = -0.594 against -3.8183; the l
    # probe, which drops the degree l = 2, reports 0.29 of that gap (at
    # l_max = 1 it had nothing to drop and read 0)
    with pytest.raises(NumericsError, match="energy not converged") as info:
        casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.1),
                       NumericsSpec(l_max=2, rel_tol=1e-3))
    assert info.value.error_estimate > 0.1


def test_m_max_cap_puts_its_tail_into_the_estimate():
    # PC d/R = 0.1: m = 0 .. 2 give E = -3.2152 against -3.8189 with every m;
    # the cap's tail is added to E and its uncertainty enters err_m.  The
    # sum stops on its own at m = 9, so a cap at 6 is what ends it
    sphere, plane = SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.1)
    with pytest.raises(NumericsError, match="energy not converged"):
        casimir_energy(sphere, plane, NumericsSpec(m_max=2, rel_tol=1e-3))
    full = casimir_energy(sphere, plane, NumericsSpec(rel_tol=1e-3))
    capped = casimir_energy(sphere, plane, NumericsSpec(m_max=6, rel_tol=1e-3))
    assert capped.m_max_used == 6 < full.m_max_used
    assert abs(capped.energy - full.energy) < capped.error_estimate


def test_numerics_spec_validation():
    with pytest.raises(ValueError):
        NumericsSpec(l_max=0)
    # l_max = 1 leaves the l probe no degree to drop, so its estimate read 0;
    # a bool is an int to Python but not a truncation; rel_tol must be a
    # finite fraction
    for bad in (dict(l_max=1), dict(l_max=True), dict(m_max=0), dict(m_max=False),
                dict(rel_tol=math.inf), dict(rel_tol=math.nan), dict(rel_tol=1.0)):
        with pytest.raises(ValueError):
            NumericsSpec(**bad)
    with pytest.raises(ValueError):
        NumericsSpec(m_max="many")
    with pytest.raises(ValueError):
        NumericsSpec(kappa_nodes=4)
    with pytest.raises(ValueError):
        NumericsSpec(rel_tol=0.0)
    # counts the driver cannot honour: a first kappa level with no room to
    # double, and non-integers
    for bad in (dict(kappa_nodes=65), dict(kappa_nodes=128), dict(kappa_nodes=16.0)):
        with pytest.raises(ValueError):
            NumericsSpec(**bad)
    # the rapidity nodes and an absolute tolerance are not caller knobs
    for gone in (dict(theta_nodes=40), dict(abs_tol=1e-12)):
        with pytest.raises(TypeError):
            NumericsSpec(**gone)
    assert NumericsSpec(kappa_nodes=64).kappa_nodes == 64
    assert NumericsSpec().l_max == "auto"
    # the benchmark's warm-up spec
    assert NumericsSpec(l_max=8, kappa_nodes=8, rel_tol=0.5).l_max == 8


def test_exact_approaches_leading_plus_ntl():
    # Omega R = 10: the expansion E0 + E1 tracks the exact energy better as
    # the gap shrinks; the residual at eps = 0.1 is genuinely several percent
    # (next order in eps), so only the trend and a loose cap are asserted
    from plasmacas.asymptotics import small_gap_expansion

    spec = NumericsSpec(rel_tol=1e-3)
    devs = {}
    for eps in (0.1, 0.05):
        exact = casimir_energy(SphereSheet(1.0, 10.0), PlaneSheet(10.0, 1.0 + eps), spec)
        e0, e1, _ = small_gap_expansion(1.0, eps, 10.0 * eps, 10.0 * eps)
        approx = e0 + e1
        devs[eps] = abs(exact.energy - approx) / abs(exact.energy)
    assert devs[0.05] < devs[0.1] < 0.10


def test_energy_result_fields_are_plain_numbers():
    for om, L in ((PERFECT_CONDUCTOR, 1.3), (3.0, 1.4)):
        res = casimir_energy(SphereSheet(1.0, om), PlaneSheet(om, L), NumericsSpec(rel_tol=1e-3))
        for name in ("energy", "energy_dimensionless", "error_estimate"):
            assert type(getattr(res, name)) is float, name
        for name in ("l_max_used", "m_max_used", "kappa_nodes_used"):
            assert type(getattr(res, name)) is int, name


def test_energy_deterministic():
    spec = NumericsSpec(rel_tol=1e-3)
    a = casimir_energy(SphereSheet(1.0, 3.0), PlaneSheet(3.0, 1.5), spec)
    b = casimir_energy(SphereSheet(1.0, 3.0), PlaneSheet(3.0, 1.5), spec)
    assert a.energy == b.energy and a.error_estimate == b.error_estimate


# ---------------------------------------------------------------- truncation

def _counting_blocks(monkeypatch):
    """Record the m of every node-block: a stacked block of K nodes adds K
    entries."""
    calls = []
    real = energy_exact.assemble_block

    def counting(*args, **kwargs):
        block = real(*args, **kwargs)
        calls.extend([args[0]] * np.size(block.kappa))
        return block

    monkeypatch.setattr(energy_exact, "assemble_block", counting)
    return calls


def _m_sum_to_l_max(monkeypatch):
    """Give every m tail 0 and an infinite uncertainty, so no m sum stops
    before m_max."""
    monkeypatch.setattr(energy_exact, "_geometric_tail",
                        lambda last, *_: (np.zeros_like(last), np.full_like(last, np.inf)))


def _pass_args(d):
    """(l_max, m_max, theta_rule, rel_tol) of the first auto pass at gap d."""
    l_max = energy_exact._auto_l_max(d)
    return l_max, l_max, energy_exact._theta_rule(l_max), NumericsSpec().rel_tol


def test_zero_tail_node_stops_at_m4(monkeypatch):
    # at x = 2 kappa d = 60 every block's ln det rounds to 0; the m sum must
    # stop at the first m it may stop at instead of running to l_max
    d = 0.1
    calls = _counting_blocks(monkeypatch)
    out = energy_exact._mode_sums(np.array([300.0]), SphereSheet(1.0, PERFECT_CONDUCTOR),
                                  PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d), *_pass_args(d))
    assert np.array_equal(out, [[0.0], [0.0], [0.0], [4]])
    assert calls == [0, 1, 2, 3, 4]


def test_geometric_tail_of_synthetic_blocks():
    # |block| at m, m-1, m-2, one node per column
    tail, err = energy_exact._geometric_tail(np.array([1.0, 1.0, 1.0, 1.0, 1.0, 0.0]),
                                             np.array([2.0, 2.0, 1.0, 2.0, 2.0, 0.0]),
                                             np.array([4.0, 8.0, 1.0, 0.0, 2.5, 0.0]))
    floor = energy_exact._TAIL_FLOOR
    # an exact geometric sequence (ratio 1/2): T = last r/(1 - r) = 1, and
    # the uncertainty is the floor
    assert tail[0] == 1.0 and err[0] == floor
    # a rising ratio (1/4, then 1/2), a ratio at the 0.9 cap (T = 9) and no
    # earlier block: the uncertainty is the whole tail
    assert tail[1:4] == pytest.approx([1.0, 9.0, 1.0], rel=1e-15)
    assert np.array_equal(err[1:4], tail[1:4])
    # a falling ratio (0.8, then 1/2): T' = 4 with the earlier ratio
    assert tail[4] == 1.0 and err[4] == pytest.approx(3.0 + floor, rel=1e-15)
    # all-zero blocks
    assert tail[5] == 0.0 and err[5] == 0.0


def test_m_sum_to_l_max_has_no_tail_and_a_cap_has_one(monkeypatch):
    # a sum capped below l_max adds its tail to F and F_sub and reports the
    # tail's uncertainty, which covers the blocks the cap left out; one
    # that reaches m = l_max is complete, with no tail and no m error.  At
    # l_max 8 or 12 the blocks near l_max are cut short by the l truncation
    # and fall faster than any geometric tail, so l_max is 20 here
    d, l_max = 0.3, 20
    args = (np.array([0.5, 2.0]), SphereSheet(1.0, 1.7), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d),
            l_max)
    rule = energy_exact._theta_rule(l_max)
    capped = energy_exact._mode_sums(*args, 5, rule, 1e-14)
    assert capped[3].tolist() == [5, 5] and np.all(capped[2] > 0.0)
    _m_sum_to_l_max(monkeypatch)
    whole = energy_exact._mode_sums(*args, l_max, rule, 1e-14)
    assert whole[3].tolist() == [l_max, l_max] and whole[2].tolist() == [0.0, 0.0]
    assert np.all(np.abs(capped[0] - whole[0]) <= capped[2])
    # the same tail T > 0 is taken off F and F_sub, so the l probe
    # F - F_sub is that of the partial sums
    partial = energy_exact._mode_sums(*args, 5, rule, 1e-14)
    tail = partial[0] - capped[0]
    assert np.all(tail > 0.0)
    assert np.allclose(partial[1] - capped[1], tail, rtol=1e-12, atol=0.0)


def test_pc_tenth_block_count_and_m_max_used(monkeypatch):
    # far kappa nodes stop at m = 4, no kappa node is evaluated twice, and
    # the m sum stops once its tail is known: 1474 node-blocks with none of
    # these, 341 with the first two, 249 with all three; a stacked block of
    # K nodes counts K.  m_max_used is the largest m a node needed (9), not
    # l_max (70).
    calls = _counting_blocks(monkeypatch)
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.1),
                         NumericsSpec(rel_tol=1e-3))
    assert len(calls) <= 260
    assert 4 <= res.m_max_used < res.l_max_used


@pytest.mark.parametrize("d, truncation, energy", [
    (0.1, (70, 9, 32), -3.818949911789906),
    (0.05, (130, 12, 32), -16.142251429954612)])
def test_pc_exact_pair_truncations_are_pinned(d, truncation, energy):
    # the criterion-5 pair: (l_max_used, m_max_used, kappa_nodes_used) and E
    # must not move.  With the geometric m tail in F, E sits 1.55e-4 and
    # 6.96e-4 beyond the m sum run to l_max at the same l_max, kappa level
    # and rapidity rule (-3.8187946, -16.1415550), against m estimates of
    # 6.6e-4 and 2.8e-3.  The old pins, -3.8183133 and -16.1379796, left
    # the tail out and sat 4.8e-4 and 3.6e-3 short of those values
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR),
                         PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d), NumericsSpec(rel_tol=1e-3))
    assert (res.l_max_used, res.m_max_used, res.kappa_nodes_used) == truncation
    assert res.energy == pytest.approx(energy, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("d, omega_s, omega_p", [
    (0.1, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR),
    (0.2916677455724206, 2.2969562477180534, 14.374812270822432)])
def test_m_error_covers_the_m_sum_run_to_l_max(monkeypatch, d, omega_s, omega_p):
    # PC d/R = 0.1 and an exact-wide benchmark point: E against the m sum
    # run to l_max with the same l_max, kappa level and rapidity rule.  The
    # miss lies within err_m (0.23 and 0.17 of it), err_m within the m share
    # rel_tol/4 of |E|, and at every node within row 2 of the record.  A
    # block below about 1e-15 rounds to ln det = 0, so the run to l_max
    # drops it while the tail extrapolates it: 1e-14 per node covers that
    # (one node at x = 23 of the second point, F = -1.6e-12, misses by 4e-15)
    rel_tol = 1e-3
    sphere, plane = SphereSheet(1.0, omega_s), PlaneSheet(omega_p, 1.0 + d)
    res = casimir_energy(sphere, plane, NumericsSpec(rel_tol=rel_tol))
    args = (sphere, plane, res.l_max_used, res.l_max_used,
            energy_exact._theta_rule(res.l_max_used), rel_tol)
    e, _, err_m, _, _, rows = energy_exact._quadrature_pass(res.kappa_nodes_used, d, None, args)
    assert e == pytest.approx(res.energy, rel=1e-12, abs=0.0)
    assert 0.0 < err_m <= 0.25 * rel_tol * abs(e)
    _m_sum_to_l_max(monkeypatch)
    e_all, _, err_all, m_all, _, rows_all = energy_exact._quadrature_pass(
        res.kappa_nodes_used, d, None, args)
    assert err_all == 0.0 and m_all == res.l_max_used
    assert abs(e - e_all) <= err_m
    assert np.all(np.abs(rows[0] - rows_all[0]) <= rows[2] + 1e-14)


# ---------------------------------------------------------------- kappa rule

def test_kappa_rule_is_nested():
    for n in (8, 11, 16, 64):
        x, w = energy_exact._kappa_rule(n)
        x2, _ = energy_exact._kappa_rule(2 * n)
        assert x.size == n - 1 and x2.size == 2 * n - 1
        assert np.array_equal(x2[1::2], x)  # bit-identical, so a node is looked up, not redone
        assert np.all(np.diff(x) < 0.0) and np.all(w > 0.0)


def test_kappa_rule_integrates_decaying_functions():
    # int x^k e^-x = k!, and an algebraic tail int (1+x)^-3 = 1/2, relative
    # errors.  Level 16 (15 nodes, the default first level) gets the tail to
    # 2e-8 and e^-x to 2e-6, but x^3 e^-x only to 3e-4; every error shrinks
    # at level 32, and level 64 holds all five to 1e-8.
    cases = [(lambda x, k=k: x ** k * np.exp(-x), math.factorial(k)) for k in range(4)]
    cases.append((lambda x: (1.0 + x) ** -3, 0.5))
    errors = {}
    for n in (16, 32, 64):
        x, w = energy_exact._kappa_rule(n)
        errors[n] = [abs(w @ g(x) - want) / want for g, want in cases]
    assert errors[16][0] < 1e-5 and errors[16][4] < 1e-7
    assert max(errors[16]) < 1e-3
    for coarse, fine in zip(errors[16], errors[32]):
        assert fine < coarse
    assert max(errors[64]) < 1e-8


def test_each_kappa_node_evaluated_once(monkeypatch):
    calls = []
    real = energy_exact._mode_sums

    def counting(kappa, *args):
        calls.extend(kappa.tolist())
        return real(kappa, *args)

    monkeypatch.setattr(energy_exact, "_mode_sums", counting)
    d = 0.3
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d),
                         NumericsSpec(rel_tol=1e-3))
    assert res.l_max_used == energy_exact._auto_l_max(d)  # no l_max growth
    assert res.kappa_nodes_used > NumericsSpec().kappa_nodes  # at least one refinement
    # every node of the last level once, then the theta probe at one of them
    assert len(calls) == (res.kappa_nodes_used - 1) + 1
    assert len(set(calls[:-1])) == len(calls) - 1 and calls[-1] in calls[:-1]


def test_refined_level_reuses_rows_by_index():
    # level 2n takes its even nodes from level n's record and evaluates only
    # the odd ones; the result is bit-identical to evaluating every node
    d = 0.3
    mode_args = (SphereSheet(1.0, 1.7), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d), *_pass_args(d))
    coarse = energy_exact._quadrature_pass(8, d, None, mode_args)
    fine = energy_exact._quadrature_pass(16, d, coarse[-1], mode_args)
    fresh = energy_exact._quadrature_pass(16, d, None, mode_args)
    assert fine[:4] == fresh[:4]
    assert np.array_equal(fine[-1], fresh[-1]) and np.array_equal(fine[-1][:, 1::2], coarse[-1])


@pytest.mark.parametrize("omega", [PERFECT_CONDUCTOR, 1.7])
def test_level_major_rows_equal_per_node_rows(monkeypatch, omega):
    # one kappa level evaluated as one stack gives, for every node, the column
    # (F, F_sub, m error, m used) of that node evaluated alone, bit for bit;
    # the far nodes stop at m = 4 and leave the stack while the near ones
    # run on
    d = 0.3
    sphere, plane = SphereSheet(1.0, omega), PlaneSheet(omega, 1.0 + d)
    kappa = energy_exact._kappa_rule(16)[0] / (2.0 * d)
    stacks = []
    real = energy_exact.assemble_block

    def recording(m, table):
        block = real(m, table)
        stacks.append((m, np.size(block.kappa)))
        return block

    monkeypatch.setattr(energy_exact, "assemble_block", recording)
    stacked = energy_exact._mode_sums(kappa, sphere, plane, *_pass_args(d))
    assert stacks[0] == (0, kappa.size)  # the whole level in one stack
    assert [k for _, k in stacks] == sorted((k for _, k in stacks), reverse=True)
    alone = np.hstack([energy_exact._mode_sums(kappa[i:i + 1], sphere, plane, *_pass_args(d))
                       for i in range(kappa.size)])
    assert np.array_equal(stacked, alone)
    m_used = stacked[3]
    assert m_used[0] == 4 and m_used.max() > 4


def test_chunks_join_in_order(monkeypatch):
    # a level split into uneven chunks gives the record of the level in one
    # chunk, bit for bit and in node order
    d = 0.3
    sphere, plane = SphereSheet(1.0, 1.7), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    kappa = energy_exact._kappa_rule(16)[0] / (2.0 * d)
    args = _pass_args(d)
    l_max, _, theta_rule, _ = args
    per_node = 8 * (2 * l_max) * (2 * rapidity_rule(*theta_rule)[0].size)
    chunks = []
    real = energy_exact.assemble_block

    def recording(m, table):
        if m == 0:
            chunks.append(np.size(table.kappa))
        return real(m, table)

    monkeypatch.setattr(energy_exact, "assemble_block", recording)
    whole = energy_exact._mode_sums(kappa, sphere, plane, *args)
    assert chunks == [15]
    chunks.clear()
    monkeypatch.setattr(energy_exact, "_STACK_BYTES", 4 * per_node + per_node // 2)
    chunked = energy_exact._mode_sums(kappa, sphere, plane, *args)
    assert chunks == [4, 4, 4, 3]
    assert np.array_equal(chunked, whole)


def test_stacked_errors_name_the_node(monkeypatch):
    # a fault in one node of a stack is reported with that node's kappa and m
    d = 0.3
    sphere, plane = SphereSheet(1.0, 1.7), PlaneSheet(1.7, 1.0 + d)
    kappa = np.array([0.5, 1.0, 2.0])
    real = energy_exact.assemble_block

    def corrupting(scale, value=None):
        def assemble(m, table):
            block = real(m, table)
            if m == 2:
                block.factor[1] *= scale  # M past 1: I - M not positive definite
                if value is not None:
                    block.factor[1, 0, 0] = value
            return block
        return assemble

    monkeypatch.setattr(energy_exact, "assemble_block", corrupting(30.0))
    with pytest.raises(SpectralAnomalyError, match=r"not positive definite in block m=2, "
                                                   r"kappa=1\.0;"):
        energy_exact._mode_sums(kappa, sphere, plane, *_pass_args(d))
    # a non-finite entry
    monkeypatch.setattr(energy_exact, "assemble_block", corrupting(1.0, math.nan))
    with pytest.raises(NumericsError, match=r"non-finite factorisation in block m=2, "
                                            r"kappa=1\.0$"):
        energy_exact._mode_sums(kappa, sphere, plane, *_pass_args(d))
    # a positive ln det, which M = H H^T rules out, is not passed on
    monkeypatch.setattr(energy_exact, "assemble_block", real)
    real_lead = energy_exact._logdet_and_lead

    def positive(f, kept):
        full, lead = real_lead(f, kept)
        full[-1] = 1e-6
        return full, lead

    monkeypatch.setattr(energy_exact, "_logdet_and_lead", positive)
    with pytest.raises(SpectralAnomalyError, match=r"> 0 for block m=0, kappa=2\.0;") as info:
        energy_exact._mode_sums(kappa, sphere, plane, *_pass_args(d))
    assert info.value.error_estimate == pytest.approx(2e-6)  # the TE and TM halves of m = 0


def test_far_kappa_nodes_stay_finite(monkeypatch):
    # the far nodes of a refined level reach kappa R ~ 5e4 at d/R = 0.05;
    # every node must give a finite F <= 0
    values = []
    real = energy_exact._mode_sums

    def recording(kappa, *args):
        out = real(kappa, *args)
        values.extend(zip(kappa.tolist(), out.T.tolist()))
        return out

    monkeypatch.setattr(energy_exact, "_mode_sums", recording)
    d = 0.05
    sphere, plane = SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    res = casimir_energy(sphere, plane, NumericsSpec(kappa_nodes=32, rel_tol=1e-3))
    assert len(values) == res.kappa_nodes_used
    assert max(k for k, _ in values) > 1e4
    for kappa, (f, f_sub, m_err, _) in values:
        assert math.isfinite(f) and math.isfinite(f_sub) and math.isfinite(m_err)
        assert f <= 0.0 and f_sub <= 0.0
    # the edges of the stated range, kappa R = 1e6 (level 128 at d/R ~ 0.02)
    # and 1e-4 (level 128 at d/R ~ 2)
    assert np.array_equal(real(np.array([1e6]), sphere, plane, *_pass_args(d)),
                          [[0.0], [0.0], [0.0], [4]])
    for om in (PERFECT_CONDUCTOR, 0.5):
        d_wide = 2.0
        [f], [f_sub], [m_err], _ = real(np.array([1e-4]), SphereSheet(1.0, om),
                                        PlaneSheet(om, 1.0 + d_wide), *_pass_args(d_wide))
        assert math.isfinite(f) and f < 0.0 and f <= f_sub <= 0.0 and m_err >= 0.0


# ---------------------------------------------------------------- rapidity rule

def test_rapidity_log_weights_finite_up_to_the_domain_limit():
    # the largest l_max the driver reaches is the fourth pass at the
    # smallest gap; the rule and its probe stay finite there with no
    # ceiling, although their last weights underflow as plain doubles
    l_top = energy_exact._auto_l_max(energy_exact._D_MIN)
    for _ in range(3):
        l_top += max(10, l_top // 3)
    for l_max in range(1, l_top + 1):
        panels, v_max = energy_exact._theta_rule(l_max)
        for rule in ((panels, v_max), (2 * panels, 1.25 * v_max)):
            u, log_w = rapidity_rule(*rule)
            assert u.size == 8 * rule[0] and np.all(np.isfinite(log_w))
            assert u[-1] > 2 * l_max  # past the peak of the highest row
    assert np.exp(log_w[-1]) == 0.0


@pytest.mark.parametrize("d", [0.3, 0.05])
def test_rapidity_rule_error_within_its_probe(d):
    # F at the smallest node of kappa level 128 (where the driver probes)
    # and at x = 2 kappa d ~ 0.67: the production rule matches one with 4x
    # the panels on 1.5 v_max within the relative change the probe reports
    sphere, plane = SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    l_max, m_max, (panels, v_max), rel_tol = _pass_args(d)
    x_min = energy_exact._kappa_rule(128)[0].min()
    x_mid = energy_exact._kappa_rule(32)[0][22]
    assert x_mid == pytest.approx(0.672, abs=1e-3)
    for x in (x_min, x_mid):
        def f(rule):
            return energy_exact._mode_sums(np.array([x / (2.0 * d)]), sphere, plane, l_max,
                                           m_max, rule, rel_tol)[0][0]
        prod = f((panels, v_max))
        probe = abs(f((2 * panels, 1.25 * v_max)) - prod) / abs(prod)
        ref = f((4 * panels, 1.5 * v_max))
        assert abs(prod - ref) / abs(ref) <= probe


@pytest.mark.parametrize("d, omega_s, omega_p, e_ref, err_ref", [
    (0.2916677455724206, 2.2969562477180534, 14.374812270822432,
     -0.20147491635025208, 1.7836781372087212e-06),
    (0.5331081609387962, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR,
     -0.09207545004444254, 5.338224870450861e-07)])
def test_theta_probe_sees_an_under_resolved_rule(monkeypatch, d, omega_s, omega_p, e_ref,
                                                 err_ref):
    # two benchmark points with their rel_tol 1e-4 references
    # (bench/points.json, R = 1).  On 24 rapidity nodes (3 panels) E misses
    # the reference by more than the other estimates; the theta probe at
    # the smallest kappa must either make the run raise or cover the miss
    monkeypatch.setattr(energy_exact, "_THETA_PANEL_FLOOR", 3)
    assert energy_exact._theta_rule(energy_exact._auto_l_max(d))[0] == 3
    try:
        res = casimir_energy(SphereSheet(1.0, omega_s), PlaneSheet(omega_p, 1.0 + d),
                             NumericsSpec(rel_tol=1e-3))
    except NumericsError:
        return
    assert abs(res.energy - e_ref) <= res.error_estimate + err_ref


def test_gap_below_the_domain_raises_up_front(monkeypatch):
    calls = _counting_blocks(monkeypatch)
    sphere = SphereSheet(1.0, PERFECT_CONDUCTOR)
    start = time.perf_counter()
    for d in (0.9 * energy_exact._D_MIN, 1e-4):
        with pytest.raises(NumericsError, match="smallest supported gap"):
            casimir_energy(sphere, PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d))
    assert time.perf_counter() - start < 1.0
    assert calls == []

    # the limit itself is inside, also where L/R - 1 rounds below it
    class Reached(Exception):
        pass

    def reached(d):
        raise Reached

    monkeypatch.setattr(energy_exact, "_auto_l_max", reached)
    for radius in (1.0, 1e-3, 7.0):
        with pytest.raises(Reached):
            casimir_energy(SphereSheet(radius, PERFECT_CONDUCTOR),
                           PlaneSheet(PERFECT_CONDUCTOR, radius * (1.0 + energy_exact._D_MIN)))


def test_pc_small_gap_matches_tight_reference():
    # PC d/R = 0.02 at rel_tol 1e-3 against a rel_tol 1e-4 run of the
    # Gauss-Laguerre rule (E = -104.66071, estimate 4.8e-3, l_max 413)
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.02),
                         NumericsSpec(rel_tol=1e-3))
    assert abs(res.energy - -104.66071) <= res.error_estimate + 4.8e-3


def _l_max_tries(monkeypatch, start):
    """Start the auto l_max at ``start`` and record every l_max tried."""
    tried = []
    rule = energy_exact._theta_rule

    def recording(l_max):
        tried.append(l_max)
        return rule(l_max)

    monkeypatch.setattr(energy_exact, "_auto_l_max", lambda d: start)
    monkeypatch.setattr(energy_exact, "_theta_rule", recording)
    return tried


def test_l_max_growth_reaches_the_auto_value(monkeypatch):
    # PC d/R = 0.1 starts at l_max 70 on its own; from 40 the l probe grows
    # it by max(10, l_max // 3) twice and lands on the same run, bit for bit
    args = (SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.1),
            NumericsSpec(rel_tol=1e-3))
    auto = casimir_energy(*args)
    tried = _l_max_tries(monkeypatch, 40)
    res = casimir_energy(*args)
    assert tried == [40, 53, 70]
    assert res.l_max_used == auto.l_max_used == 70
    assert res.energy == auto.energy and res.error_estimate == auto.error_estimate


def test_l_max_growth_that_does_not_converge_raises(monkeypatch):
    # from 20 the four tries 20, 30, 40, 53 all miss rel_tol/4 of |E|
    tried = _l_max_tries(monkeypatch, 20)
    with pytest.raises(NumericsError, match="l_max growth did not converge") as info:
        casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.1),
                       NumericsSpec(rel_tol=1e-3))
    assert tried == [20, 30, 40, 53]
    assert math.isfinite(info.value.error_estimate) and info.value.error_estimate > 0.0
