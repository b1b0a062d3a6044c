import json
import math
import os
import time

import numpy as np
import pytest

from plasmacas import energy_exact
from plasmacas.energy_exact import (EnergyResult, NumericsSpec, casimir_energy,
                                    logdet_one_minus)
from plasmacas.errors import NumericsError, SpectralAnomalyError
from plasmacas.roundtrip import KappaTable, RoundTripBlock, assemble_block
from plasmacas.scattering import PERFECT_CONDUCTOR, PlaneSheet, SphereSheet
from plasmacas._quadrature import rapidity_rule

from oracles import (block_at, dense_matrix, far_field_energy, logdet_with_small_block_series,
                     m_summed_trace)


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
    # norm above 1 must fail there too
    tall = np.zeros((6, 2))
    tall[0, 0], tall[3, 1] = 1.2, 0.5
    sizes = _recording_cholesky(monkeypatch)
    with pytest.raises(SpectralAnomalyError):
        logdet_one_minus(_block_of(tall))
    assert sizes == [2]


def test_logdet_random_factors_of_both_shapes(monkeypatch):
    # M = H H^T cannot make det(I - M) > 1: random factors of spectral norm
    # below 1, wide (l side) and tall (theta side), give a value <= 0 equal
    # to slogdet of the explicit I - H H^T
    rng = np.random.default_rng(7)
    sizes = _recording_cholesky(monkeypatch)
    for shape in ((4, 12), (12, 3)):
        for _ in range(5):
            f = rng.standard_normal(shape)
            f /= 1.05 * np.linalg.norm(f, 2)
            full = logdet_one_minus(_block_of(f))
            assert full <= 0.0
            assert full == pytest.approx(np.linalg.slogdet(np.eye(shape[0]) - f @ f.T)[1],
                                         rel=1e-12, abs=1e-14)
    # l side I - H H^T of size 4; theta side I - H^T H of size 3
    assert sizes == [4] * 5 + [3] * 5


@pytest.mark.parametrize("omega", [PERFECT_CONDUCTOR, 2.5])
@pytest.mark.parametrize("l_max, theta_nodes", [(40, 12), (8, 40)])
def test_logdet_factorises_the_smaller_side(monkeypatch, omega, l_max, theta_nodes):
    # det(I - H H^T) = det(I - H^T H): l_max 40 on 12 rapidity nodes puts
    # every block on the theta side, l_max 8 on 40 nodes on the l side.
    # The rule is Gauss-Laguerre here, as any rule (u, ln w) may be.  The
    # value matches slogdet of the explicit I - H H^T, and each matrix
    # factorised is the smaller of the two sides, I - H H^T or I - H^T H
    # (per half at m = 0).
    sphere, plane = SphereSheet(1.0, omega), PlaneSheet(omega, 1.2)
    u, w = np.polynomial.laguerre.laggauss(theta_nodes)
    sizes = _recording_cholesky(monkeypatch)
    for kappa in (0.4, 2.0, 6.0):
        for m in (0, 3, -3):
            block = block_at(m, kappa, sphere, plane, l_max, (u, np.log(w)))
            del sizes[:]
            full = logdet_one_minus(block)
            halves, per_l = (2, 1) if m == 0 else (1, 2)
            l_side, theta_side = per_l * (block.dim // 2), per_l * theta_nodes
            assert sizes == [min(l_side, theta_side)] * halves
            assert (theta_side < l_side) == (l_max == 40)
            want = np.linalg.slogdet(np.eye(block.dim) - block.matrix)[1]
            assert abs(full - want) <= 1e-12 * max(1.0, abs(want))
            assert full < 0.0


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
    # no block is needed, so m_max_used is -1, as for a node that needs none
    r = casimir_energy(SphereSheet(1.0, 0.0), PlaneSheet(1.0, 2.0))
    assert r.energy == 0.0 and r.m_max_used == -1
    r = casimir_energy(SphereSheet(1.0, 1.0), PlaneSheet(0.0, 2.0))
    assert r.energy == 0.0 and r.m_max_used == -1


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
        l_max=2 * res.l_max_used,
        kappa_nodes=2 * res.kappa_nodes_used, rel_tol=1e-3))
    assert abs(hard.energy - res.energy) < res.error_estimate


def test_energy_explicit_truncation_too_small_raises(monkeypatch):
    # the miss is the l truncation's, not the rapidity rule's, so the run
    # raises without a re-run on more panels
    passes = _recording_passes(monkeypatch)
    with pytest.raises(NumericsError, match="energy not converged"):
        casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR),
                       PlaneSheet(PERFECT_CONDUCTOR, 1.05),
                       NumericsSpec(l_max=6, rel_tol=1e-4))
    assert len({run.theta_rule for _, run, _, _ in passes}) == 1


def test_smallest_l_max_reports_its_truncation():
    # PC d/R = 0.1 at l_max = 2 gives E = -0.594 against -3.8188; the l
    # probe, the trace of the degree l = 2, reads 0.31, a tenth of that gap
    # (at l_max = 1 it had no degree to drop and read 0)
    with pytest.raises(NumericsError, match="energy not converged") as info:
        casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.1),
                       NumericsSpec(l_max=2, rel_tol=1e-3))
    assert info.value.error_estimate > 0.1


def test_numerics_spec_validation():
    with pytest.raises(ValueError):
        NumericsSpec(l_max=0)
    # l_max = 1 leaves the l probe no degree to drop, so its estimate read 0;
    # a bool, numpy's too, is an int to Python but not a truncation; rel_tol
    # must be a finite fraction
    for bad in (dict(l_max=1), dict(l_max=True), dict(l_max=np.bool_(True)),
                dict(l_max=np.int64(1)), dict(rel_tol=math.inf), dict(rel_tol=math.nan),
                dict(rel_tol=1.0)):
        with pytest.raises(ValueError):
            NumericsSpec(**bad)
    with pytest.raises(ValueError):
        NumericsSpec(kappa_nodes=4)
    with pytest.raises(ValueError):
        NumericsSpec(rel_tol=0.0)
    # counts the driver cannot honour: a first kappa level with no room to
    # double, and non-integers
    for bad in (dict(kappa_nodes=65), dict(kappa_nodes=128), dict(kappa_nodes=16.0),
                dict(kappa_nodes=np.int8(4)), dict(kappa_nodes=np.float64(16.0))):
        with pytest.raises(ValueError):
            NumericsSpec(**bad)
    # the rapidity nodes, an absolute tolerance and an m cap are not caller
    # knobs: the trace still to come sets each node's m cutoff
    for gone in (dict(theta_nodes=40), dict(abs_tol=1e-12), dict(m_max=4)):
        with pytest.raises(TypeError):
            NumericsSpec(**gone)
    assert NumericsSpec(kappa_nodes=64).kappa_nodes == 64
    assert NumericsSpec().l_max == "auto"
    # the benchmark's warm-up spec
    assert NumericsSpec(l_max=8, kappa_nodes=8, rel_tol=0.5).l_max == 8


def test_numerics_spec_takes_numpy_integers():
    # a count taken from np.arange is a count, kept as a Python int so that
    # l_max_used stays one
    spec = NumericsSpec(l_max=np.int64(40), kappa_nodes=np.int64(16))
    assert spec == NumericsSpec(l_max=40, kappa_nodes=16)
    assert type(spec.l_max) is int and type(spec.kappa_nodes) is int
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.5),
                         NumericsSpec(l_max=np.int64(20), rel_tol=1e-2))
    assert type(res.l_max_used) is int and res.l_max_used == 20


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


# an m share below every m error: no m sum stops before l_max, except at a
# node whose F and m error are both 0
_NO_M_STOP = -1.0


def _m_sum_to_l_max(monkeypatch):
    """Take ln det of a weak block from its trace series, where the Cholesky
    value is round-off; with ``_NO_M_STOP`` an m sum then runs to l_max."""
    monkeypatch.setattr(energy_exact, "logdet_one_minus", logdet_with_small_block_series)


def _pass_args(d):
    """(l_max, theta_rule, m_tol) of a pass at gap d at the start degree
    and on its rule; the m sum's share m_tol of |F| is a quarter of the
    default rel_tol."""
    l_max = energy_exact._auto_l_max(d)
    return l_max, energy_exact._theta_rule(l_max), 0.25 * NumericsSpec().rel_tol


def _run(sphere, plane, l_max, m_tol=0.25 * NumericsSpec().rel_tol,
         kappa_nodes=NumericsSpec().kappa_nodes):
    """A fresh run of an auto call that picked ``l_max`` from its first
    pass: the trace step at the start degree, the blocks at l_max, both on
    the start degree's rule."""
    d = plane.distance_L - 1.0
    l_top, rule, _ = _pass_args(d)
    return energy_exact._Run(d, sphere, plane, l_top, rule, l_max, m_tol, kappa_nodes)


def _fresh(run):
    """A run with the truncations and finest level of ``run`` and an empty
    record: the finest level of a run from kappa_nodes = finest is finest
    itself."""
    return energy_exact._Run(run.d, run.sphere, run.plane, run.l_top, run.theta_rule, run.l_max,
                             run.m_tol, run.finest)


def _recording_passes(monkeypatch):
    """Record (n_kappa, run, level, record) of every kappa pass, the record
    copied as the pass left it."""
    passes = []
    real = energy_exact._quadrature_pass

    def recording(n_kappa, run):
        level = real(n_kappa, run)
        passes.append((n_kappa, run, level, run.record.copy()))
        return level

    monkeypatch.setattr(energy_exact, "_quadrature_pass", recording)
    return passes


def test_weak_node_needs_no_block(monkeypatch):
    # at x = 2 kappa d = 60 the trace of every block together is 3.4e-26:
    # the node takes F = -T from the table, with no block at all, and
    # records m used -1; its l probe is the trace of the top degrees
    d = 0.1
    sphere, plane = SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    calls = _counting_blocks(monkeypatch)
    out = energy_exact._mode_sums(np.array([300.0]), sphere, plane, *_pass_args(d))
    assert calls == [] and out[3].tolist() == [-1]
    l_max, theta_rule, m_tol = _pass_args(d)
    table = KappaTable.build(np.array([300.0]), sphere, plane, l_max, rapidity_rule(*theta_rule))
    want, want_top = m_summed_trace(table, l_max - max(4, l_max // 8))
    assert 0.0 < want[0] < 1e-25
    assert -out[0, 0] == pytest.approx(want[0], rel=1e-12, abs=0.0)
    assert out[1, 0] == pytest.approx(want_top[0], rel=1e-12, abs=0.0)
    # before block 0 the next block has weight 1, so lam = T and U = T^2/2
    assert out[2, 0] == pytest.approx(0.5 * want[0] ** 2, rel=1e-12, abs=0.0)
    assert 0.0 < out[2, 0] <= m_tol * abs(out[0, 0])


@pytest.mark.parametrize("omega", [PERFECT_CONDUCTOR, 1.7])
def test_record_carries_each_node_trace(monkeypatch, omega):
    # the record a run's first pass leaves, at an explicit l_max (the start
    # degree, so the trace step and the blocks share one degree): row 4 is
    # T = sum_m (2 - delta_m0) tr M_m over every m at each node of kappa
    # level 32, against the block-by-block oracle, and row 1 the l probe
    # over the top degrees at each node of level 16.  The other 16 nodes
    # take T alone: their other rows stay NaN.  The nodes of level 16 have
    # the columns of a call without those, bit for bit
    d = 0.3
    sphere, plane = SphereSheet(1.0, omega), PlaneSheet(omega, 1.0 + d)
    l_max, theta_rule, m_tol = _pass_args(d)
    passes = _recording_passes(monkeypatch)
    casimir_energy(sphere, plane, NumericsSpec(l_max=l_max))
    n_kappa, run, _, record = passes[0]
    assert n_kappa == 16 and (run.l_top, run.l_max, run.theta_rule) == (l_max, l_max, theta_rule)
    kappa = energy_exact._kappa_rule(32)[0] / (2.0 * run.d)  # d = L/R - 1, as the run has it
    rows = record[:, run.columns(32)]
    table = KappaTable.build(kappa, sphere, plane, l_max, rapidity_rule(*theta_rule))
    want, want_top = m_summed_trace(table, l_max - max(4, l_max // 8))
    assert rows[4] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rows[1, 1::2] == pytest.approx(want_top[1::2], rel=1e-12, abs=0.0)
    assert np.all(np.isnan(rows[:4, ::2]))
    alone = energy_exact._mode_sums(kappa[1::2], sphere, plane, l_max, theta_rule, m_tol)
    assert np.array_equal(rows[:, 1::2], alone) and alone[3].max() > 0


def test_tail_bound_of_synthetic_traces():
    # U = R lam / (2 (1 - lam)) with lam = R / weight, infinite once lam >= 1
    rest = np.array([0.0, 0.1, 1.0, 2.0, 3.0])
    u = energy_exact._tail_bound(rest, 2.0)
    assert u[0] == 0.0 and u[2] == 0.5
    assert u[1] == pytest.approx(0.1 * 0.05 / 1.9, rel=1e-15)
    assert np.all(np.isinf(u[3:]))
    assert energy_exact._tail_bound(np.array([0.5]), 1.0)[0] == 0.25
    # it bounds what random positive semi-definite blocks of that trace add
    # beyond -tr M: one block of weight 1, then four of weight 2
    rng = np.random.default_rng(5)
    for scale in (1e-3, 0.05, 0.2):
        factors = [scale * rng.random((6, 4)) * 0.5 ** m for m in range(5)]
        weights = [1.0] + [2.0] * 4
        trace = sum(w * np.sum(f * f) for w, f in zip(weights, factors))
        beyond = sum(w * (-np.linalg.slogdet(np.eye(6) - f @ f.T)[1] - np.sum(f * f))
                     for w, f in zip(weights, factors))
        bound = energy_exact._tail_bound(np.array([trace]), 1.0)[0]
        assert 0.0 < beyond <= bound < np.inf


def test_m_sum_to_l_max_has_no_tail_and_a_cap_has_one(monkeypatch):
    # a sum that stops below l_max takes the trace of the blocks it left
    # out off F, and reports the bound on the rest, which covers the sum
    # run to l_max; one that reaches m = l_max is complete, with no tail
    # and no m error.  Either way the l probe is the trace of the degrees
    # past l_max - l_drop over every m.  The two nodes stop at m = 6 and 5,
    # each at its own m used
    d, l_max = 0.3, 20
    kappa, sphere, plane = np.array([0.5, 6.0]), SphereSheet(1.0, 1.7), PlaneSheet(PERFECT_CONDUCTOR,
                                                                                   1.0 + d)
    rule = energy_exact._theta_rule(l_max)
    stopped = energy_exact._mode_sums(kappa, sphere, plane, l_max, rule, 1e-8)
    m_used = stopped[3].astype(int)
    assert m_used.tolist() == [6, 5] and np.all(stopped[2] > 0.0)
    # the partial sums and the trace of the blocks after each node's stop,
    # block by block
    table = KappaTable.build(kappa, sphere, plane, l_max, rapidity_rule(*rule))
    trace, top = m_summed_trace(table, l_max - 4)
    partial = np.zeros(2)
    for m in range(m_used.max() + 1):
        block, weight = assemble_block(m, table), 1.0 if m == 0 else 2.0
        summed = weight * (m <= m_used)  # a node that stopped adds no more blocks
        partial += summed * logdet_one_minus(block)
        trace -= summed * np.sum(block.factor ** 2, axis=(1, 2))
    assert np.all(trace > 0.0) and np.all(top > 0.0)
    assert stopped[0] == pytest.approx(partial - trace, rel=1e-12, abs=0.0)
    assert stopped[1] == pytest.approx(top, rel=1e-12, abs=0.0)
    _m_sum_to_l_max(monkeypatch)
    whole = energy_exact._mode_sums(kappa, sphere, plane, l_max, rule, _NO_M_STOP)
    assert whole[3].tolist() == [l_max, l_max] and whole[2].tolist() == [0.0, 0.0]
    assert np.array_equal(whole[1], stopped[1])
    assert np.all(np.abs(stopped[0] - whole[0]) <= stopped[2])
    # the tail adds attraction beyond -R, so F = partial - R lies above the whole sum
    assert np.all(whole[0] < stopped[0])


def _factorised_pivots(monkeypatch):
    """``_m_sum_to_l_max``, and per kappa node the Cholesky pivots behind
    its F: for each block whose value is the Cholesky one (tr M > 1e-6, see
    ``logdet_with_small_block_series``), the size of the smaller side
    factorised, each half at m = 0, times the block's weight 2 - delta_m0."""
    pivots = {}

    def recording(block):
        h = block.factor
        n_rows, n_cols = h.shape[1:]
        sides = 2 * min(n_rows // 2, n_cols // 2) if block.m == 0 else min(n_rows, n_cols)
        weight = 1.0 if block.m == 0 else 2.0
        for kappa, trace in zip(block.kappa, np.sum(h * h, axis=(1, 2))):
            pivots[kappa] = pivots.get(kappa, 0.0) + weight * sides * (trace > 1e-6)
        return logdet_with_small_block_series(block)

    monkeypatch.setattr(energy_exact, "logdet_one_minus", recording)
    return pivots


@pytest.mark.parametrize("d, omega_s", [(0.1, PERFECT_CONDUCTOR), (0.2, 1.7)])
def test_l_probe_is_a_floor_under_the_sub_block_sums(monkeypatch, d, omega_s):
    # the l probe, the trace of the degrees l_keep < l <= l_max over every
    # m, against what dropping those degrees changes in F: F of the same
    # nodes at l_max' = l_keep, on the same rapidity rule, minus F at
    # l_max, both summed to m = l_max' with real log-determinants.
    # Fischer's inequality makes the probe a floor under that change; at
    # the nodes of kappa level 32 it came within 4.6e-6 of it (PC) and
    # 3.7e-6 (Omega R = 1.7), and at the far nodes both are round-off of F.
    # Round-off: a Cholesky ln det is sum_i ln d_i over its pivots, and at
    # a weak block every d_i = 1 - delta_i lies near 1, where doubles are
    # eps/2 apart, so each pivot carries an absolute error of about eps
    # (the rounding of d_i, plus one ulp of its log), however small delta_i
    # is.  The allowance is that, eps times the weighted pivots of both
    # runs at the node, on top of 1e-14 |F|
    sphere, plane = SphereSheet(1.0, omega_s), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    l_max, rule, _ = _pass_args(d)
    l_keep = l_max - max(4, l_max // 8)
    kappa = energy_exact._kappa_rule(32)[0] / (2.0 * d)
    pivots = _factorised_pivots(monkeypatch)
    whole = energy_exact._mode_sums(kappa, sphere, plane, l_max, rule, _NO_M_STOP)
    kept = energy_exact._mode_sums(kappa, sphere, plane, l_keep, rule, _NO_M_STOP)
    assert whole[3].max() == l_max and kept[3].max() == l_keep
    change, top = kept[0] - whole[0], whole[1]
    eps = np.finfo(float).eps
    roundoff = 1e-14 * np.abs(whole[0]) + eps * np.array([pivots.get(k, 0.0) for k in kappa])
    assert np.all(top >= 0.0) and np.sum(top > 1e-6) >= 10
    assert np.all(change - top >= -roundoff)
    assert np.all(change - top <= 1e-5 * top + roundoff)


def test_pc_tenth_block_count_and_m_max_used(monkeypatch):
    # no kappa node is evaluated twice, and each m sum stops once the trace
    # still to come bounds the rest of it: 1474 node-blocks with neither,
    # 117 with both (the far nodes need no block), and 60 once blocks run
    # only on the nodes of F's level 16, T alone on those of 32; a stacked
    # block of K nodes counts K.  m_max_used is the largest m a node needed
    # (5), not l_max (70).
    calls = _counting_blocks(monkeypatch)
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.1),
                         NumericsSpec(rel_tol=1e-3))
    assert len(calls) <= 64
    assert 4 <= res.m_max_used < res.l_max_used


@pytest.mark.parametrize("d, truncation, energy", [
    (0.1, (55, 5, 16), -3.8183875341277664),
    (0.05, (109, 7, 16), -16.140136424623215)])
def test_pc_exact_pair_truncations_are_pinned(d, truncation, energy):
    # the criterion-5 pair: (l_max_used, m_max_used, kappa_nodes_used) and E
    # must not move.  l_max is the one the traces of the start degree (70
    # and 130) pick, and E is the control-variate sum at it.  At the start
    # degree E was -3.8187649381333215 and -16.141450465459826, with
    # estimates 7.8e-4 and 6.3e-3: E moved by 3.8e-4 and 1.3e-3, 0.49 and
    # 0.21 of them, most of it the l truncation (raising l_max from 55 to
    # 88 on the same rule moves E at d/R = 0.1 by 4.0e-4, and err_l is 1.98
    # times that).  The estimates are now 1.5e-3 and 9.6e-3 (3.9e-4 and
    # 6.0e-4 of |E|).  E lies 2.8e-4 and 1.2e-3 from the rel_tol 1e-4
    # references of bench/points.json, 0.17 and 0.12 of the summed estimates
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR),
                         PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d), NumericsSpec(rel_tol=1e-3))
    assert (res.l_max_used, res.m_max_used, res.kappa_nodes_used) == truncation
    assert res.energy == pytest.approx(energy, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("d, omega_s, omega_p, spec, want", [
    (0.1, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR, NumericsSpec(l_max=70),
     ("-0x1.e8cd4a1c32713p+1", "0x1.95a570a201b5dp-11", 70, 5, 16)),
    (0.25, 2.0, 5.0, NumericsSpec(l_max=40, rel_tol=1e-4),
     ("-0x1.d5e8f008ad23fp-3", "0x1.7abf0180bc9d9p-18", 40, 3, 32))])
def test_explicit_l_max_keeps_its_run_bit_for_bit(d, omega_s, omega_p, spec, want):
    # an explicit l_max traces and runs its blocks at that degree, with no
    # pick: E, the estimate and the truncations are those the driver gave
    # before the pick existed, in float.hex (the second case misses the
    # control variate and refines to level 32)
    res = casimir_energy(SphereSheet(1.0, omega_s), PlaneSheet(omega_p, 1.0 + d), spec)
    assert (res.energy.hex(), res.error_estimate.hex(), res.l_max_used, res.m_max_used,
            res.kappa_nodes_used) == want


def _control_variate(level, run):
    """casimir_energy's E from a plain pass ``level`` of ``run`` over its F
    level n: the integral of F + T there, less that of T on level 2n, from
    a trace step of its own on the run's rule, cut at the run's l_max."""
    x, w = energy_exact._kappa_rule(2 * (level.rows.shape[1] + 1))
    traced = energy_exact._trace_step(x / (2.0 * run.d), run.sphere, run.plane, run.l_top,
                                      run.theta_rule)
    t = np.concatenate([norms[:, :run.l_max].sum(axis=(1, 2)) for _, norms in traced])
    return level.energy + level.trace - (w @ t) / (2.0 * math.pi) / (2.0 * run.d)


@pytest.mark.parametrize("d, omega_s, omega_p", [
    (0.1, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR),
    (0.2916677455724206, 2.2969562477180534, 14.374812270822432)])
def test_m_error_covers_the_m_sum_run_to_l_max(monkeypatch, d, omega_s, omega_p):
    # PC d/R = 0.1 and an exact-wide benchmark point: E against the m sum
    # run to l_max with the same l_max, kappa levels, rapidity rule and
    # trace step.  T
    # has no m error, so the miss is that of the plain F sums on the F
    # level.  It lies within err_m (0.09 and 0.30 of it), err_m within the
    # m share rel_tol/4 of |E|, and at every node within row 2 of the
    # record (at most 0.11 and 0.31 of it where the miss passes 1e-14).
    # The run to l_max takes ln det of a block with tr M <= 1e-6 from its
    # trace series: the Cholesky value there is round-off, and the node
    # miss beyond row 2 read 9.4e-14 at x = 17.5 of the first point
    # (F = -1.3e-7) and 7.2e-14 at x = 13.4 of the second (kappa level 32),
    # which 1e-14 per node does not cover
    rel_tol = 1e-3
    sphere, plane = SphereSheet(1.0, omega_s), PlaneSheet(omega_p, 1.0 + d)
    res = casimir_energy(sphere, plane, NumericsSpec(rel_tol=rel_tol))
    m_tol = 0.25 * rel_tol
    run = _run(sphere, plane, res.l_max_used, m_tol)
    level = energy_exact._quadrature_pass(res.kappa_nodes_used, run)
    assert _control_variate(level, run) == pytest.approx(res.energy, rel=1e-12, abs=0.0)
    assert 0.0 < level.err_m <= m_tol * abs(res.energy)
    _m_sum_to_l_max(monkeypatch)
    whole = energy_exact._quadrature_pass(res.kappa_nodes_used,
                                          _run(sphere, plane, res.l_max_used, _NO_M_STOP))
    assert whole.err_m == 0.0 and whole.rows[3].max() == res.l_max_used
    assert abs(level.energy - whole.energy) <= level.err_m
    assert np.all(np.abs(level.rows[0] - whole.rows[0]) <= level.rows[2] + 1e-14)


@pytest.mark.parametrize("d, omega_s, omega_p", [
    (0.1, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR),
    (0.2916677455724206, 2.2969562477180534, 14.374812270822432)])
def test_l_estimate_is_above_the_trace_past_l_max(d, omega_s, omega_p):
    # by Fischer's inequality, raising l_max to L' takes at least the trace
    # of the degrees l_max < l <= L' over every m off F, so the integral of
    # that trace is a floor under the l error, and any honest l estimate
    # lies above it.  L' = floor(1.6 l_max), the trace on the rule the run
    # used, that of its start degree, at the nodes of the last F level of
    # the run: the l truncation of T cancels between the two sums of the
    # control variate.  err_l read 1.98 and 6.19 times the floor
    sphere, plane = SphereSheet(1.0, omega_s), PlaneSheet(omega_p, 1.0 + d)
    res = casimir_energy(sphere, plane)
    l_max, n_kappa = res.l_max_used, res.kappa_nodes_used
    run = _run(sphere, plane, l_max)
    level = energy_exact._quadrature_pass(n_kappa, run)
    assert _control_variate(level, run) == pytest.approx(res.energy, rel=1e-12, abs=0.0)
    x, w = energy_exact._kappa_rule(n_kappa)
    table = KappaTable.build(x / (2.0 * d), sphere, plane, int(1.6 * l_max),
                             rapidity_rule(*run.theta_rule))
    floor = (w @ table.m_summed_traces()[:, l_max:].sum(axis=(1, 2))) / (2.0 * math.pi) / (2.0 * d)
    assert 0.0 < floor <= level.err_l


@pytest.mark.parametrize("d, omega_s, omega_p", [
    (0.1, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR),
    (0.2916677455724206, 2.2969562477180534, 14.374812270822432)])
def test_l_estimate_covers_the_l_error(monkeypatch, d, omega_s, omega_p):
    # the l component of the error ledger: err_l against what raising l_max
    # to floor(1.6 l_max) changes in E, with every m summed and on one
    # rapidity rule, the one the run used.  T's l truncation cancels
    # between the two sums of the control variate, so the change is that of
    # the plain F sum on the run's last F level.  err_l read 1.98 and 6.19
    # times it; the floor of the test above is within 1e-5 of the change
    sphere, plane = SphereSheet(1.0, omega_s), PlaneSheet(omega_p, 1.0 + d)
    res = casimir_energy(sphere, plane)
    run = _run(sphere, plane, res.l_max_used)
    level = energy_exact._quadrature_pass(res.kappa_nodes_used, run)
    assert _control_variate(level, run) == pytest.approx(res.energy, rel=1e-12, abs=0.0)
    _m_sum_to_l_max(monkeypatch)
    x, w = energy_exact._kappa_rule(res.kappa_nodes_used)

    def f_sum(l_max):
        rows = energy_exact._mode_sums(x / (2.0 * d), sphere, plane, l_max, run.theta_rule,
                                       _NO_M_STOP)
        assert rows[3].max() == l_max
        return (w @ rows[0]) / (2.0 * math.pi) / (2.0 * d)

    l_error = abs(f_sum(res.l_max_used) - f_sum(int(1.6 * res.l_max_used)))
    assert 0.0 < l_error <= level.err_l


# ---------------------------------------------------------------- kappa rule

def test_kappa_rule_is_nested():
    for n in (8, 11, 16, 64, 128):
        x, w = energy_exact._kappa_rule(n)
        x2, _ = energy_exact._kappa_rule(2 * n)
        assert x.size == n - 1 and x2.size == 2 * n - 1
        assert np.array_equal(x2[1::2], x)  # bit-identical, so a node is looked up, not redone
        assert np.all(np.diff(x) < 0.0) and np.all(w > 0.0)
    # a run's record has a column for each node of the finest level it can
    # reach, kappa_nodes times the largest power of two that keeps it within
    # 2 _KAPPA_NODE_CEILING = 256; its levels are kappa_nodes times powers
    # of two.  The columns of level n are every other column of level 2n,
    # and its nodes are the finest level's nodes at those columns, bit for
    # bit, for a first level off the powers of two too
    d = 0.3
    sphere, plane = SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    for kappa_nodes, finest in ((8, 256), (11, 176), (12, 192), (33, 132), (64, 256)):
        run = _run(sphere, plane, 20, kappa_nodes=kappa_nodes)
        assert run.finest == finest and run.record.shape == (5, finest - 1)
        assert np.array_equal(run.columns(finest), np.arange(finest - 1))
        x_finest = energy_exact._kappa_rule(finest)[0]
        n = kappa_nodes
        while n <= finest:
            cols = run.columns(n)
            assert cols.size == n - 1
            assert np.array_equal(energy_exact._kappa_rule(n)[0], x_finest[cols])
            if n < finest:
                assert np.array_equal(run.columns(2 * n)[1::2], cols)
            n *= 2
    # a level that does not divide the finest one has more columns than
    # nodes, so it can be neither traced nor summed on the record
    run = _run(sphere, plane, 20, kappa_nodes=11)
    assert run.columns(24).size == 25
    with pytest.raises(IndexError):
        energy_exact._trace(run, 24)
    run.record[:] = 0.0
    with pytest.raises(ValueError):
        energy_exact._level(run, 24)


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
    # the first pass is one trace step over the 2n - 1 nodes of level 2n,
    # at the start degree, whose n nodes outside level n take T alone:
    # blocks run only on the n - 1 nodes of the F level n, at the picked
    # l_max.  Then the theta probe runs at the smallest of those
    calls, sizes, degrees, blocked = [], [], [], set()
    real, real_block = energy_exact._trace_step, energy_exact.assemble_block

    def counting(kappa, sphere, plane, l_top, theta_rule):
        calls.extend(kappa.tolist())
        sizes.append(kappa.size)
        degrees.append(l_top)
        return real(kappa, sphere, plane, l_top, theta_rule)

    def recording(m, table):
        block = real_block(m, table)
        if len(sizes) == 1:
            blocked.update(np.atleast_1d(block.kappa).tolist())
            degrees.append(table.l_max)
        return block

    monkeypatch.setattr(energy_exact, "_trace_step", counting)
    monkeypatch.setattr(energy_exact, "assemble_block", recording)
    d = 0.3
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d),
                         NumericsSpec(rel_tol=1e-3))
    n = res.kappa_nodes_used
    assert n == 2 * NumericsSpec().kappa_nodes  # no miss
    assert sizes == [2 * n - 1, 1]
    # the trace step at the start degree, every block at l_max, and so the probe
    l_top = energy_exact._auto_l_max(d)
    assert degrees[0] == l_top > res.l_max_used and set(degrees[1:]) == {res.l_max_used}
    assert len(set(calls)) == len(calls) - 1
    f_nodes = calls[1:2 * n - 1:2]
    assert 0 < len(blocked) and blocked <= set(f_nodes) and calls[-1] == min(f_nodes)


@pytest.mark.parametrize("kappa_nodes", [8, 11, 12])
@pytest.mark.parametrize("omega", [PERFECT_CONDUCTOR, 1.7])
def test_level_sums_of_the_record_equal_those_of_the_level_alone(omega, kappa_nodes):
    # a level summed from a run's record, with its columns among those of
    # other levels, gives bit for bit the sums of the same level from a
    # fresh _mode_sums over its nodes: with n = 2 kappa_nodes, level n after
    # a first pass that traced level 2n, level n / 2 from that record, T on
    # level 2n, then level 2n after the refine and level 4n, which traces
    # its new nodes.  A first level off the powers of two (11, 12) gives a
    # record over the finest level 176 or 192, whose levels map as exactly
    d = 0.3
    sphere, plane = SphereSheet(1.0, omega), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    l_max, rule, m_tol = _pass_args(d)
    run = energy_exact._Run(d, sphere, plane, l_max, rule, l_max, m_tol, kappa_nodes)
    n = 2 * kappa_nodes
    first = energy_exact._first_pass(run, n, m_tol)
    t_fine = energy_exact._integral(run, 2 * n, run.record[4, run.columns(2 * n)])
    levels = [first, energy_exact._level(run, n // 2), energy_exact._quadrature_pass(2 * n, run),
              energy_exact._quadrature_pass(4 * n, run)]
    pref = 1.0 / (2.0 * math.pi) / (2.0 * d)
    for level, n_kappa in zip(levels, (n, n // 2, 2 * n, 4 * n)):
        x, w = energy_exact._kappa_rule(n_kappa)
        alone = energy_exact._mode_sums(x / (2.0 * d), sphere, plane, l_max, rule, m_tol)
        want = [pref * (w @ alone[i]) for i in (0, 1, 2, 4)]
        assert [level.energy, level.err_l, level.err_m, level.trace] == want
        assert np.array_equal(level.rows, alone)
        if n_kappa == 2 * n:
            assert t_fine == want[3]
    assert not np.isnan(run.record[:, run.columns(4 * n)]).any()


@pytest.mark.parametrize("kappa_nodes", [11, 12])
def test_a_first_level_off_the_powers_of_two(monkeypatch, kappa_nodes):
    # kappa_nodes need not be a power of two: a run's levels are kappa_nodes
    # times powers of two, and its record spans the finest of them (level
    # 176 or 192).  The call converges with a finite error estimate and
    # agrees with a run from kappa_nodes = 8 within the two estimates; each
    # level it passes is bit for bit a fresh _mode_sums over its nodes, and
    # E and the kappa estimate are those of the fresh sums of levels n / 2,
    # n and 2n (n = 2 kappa_nodes), so no level reads another's columns.
    # l_max is explicit, the start degree, so the fresh sums share the
    # run's degree
    d = 0.3
    sphere, plane = SphereSheet(1.0, 1.7), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    l_max = energy_exact._auto_l_max(d)
    base = casimir_energy(sphere, plane, NumericsSpec(l_max=l_max))
    passes = _recording_passes(monkeypatch)
    res = casimir_energy(sphere, plane, NumericsSpec(l_max=l_max, kappa_nodes=kappa_nodes))
    assert math.isfinite(res.error_estimate)
    assert 0.0 < res.error_estimate <= NumericsSpec().rel_tol * abs(res.energy)
    assert abs(res.energy - base.energy) <= res.error_estimate + base.error_estimate
    n, run = 2 * kappa_nodes, passes[-1][1]
    assert run.finest == {11: 176, 12: 192}[kappa_nodes]
    assert [p[0] for p in passes if p[1] is run] == [n] and res.kappa_nodes_used == n
    pref = 1.0 / (2.0 * math.pi) / (2.0 * run.d)  # d = L/R - 1, as the run has it

    def fresh(n_kappa):
        x, w = energy_exact._kappa_rule(n_kappa)
        alone = energy_exact._mode_sums(x / (2.0 * run.d), run.sphere, run.plane, l_max,
                                        run.theta_rule, run.m_tol)
        return [pref * (w @ alone[i]) for i in (0, 1, 2, 4)], alone

    last = passes[-1][2]
    want, alone = fresh(n)
    assert [last.energy, last.err_l, last.err_m, last.trace] == want
    assert np.array_equal(last.rows, alone)
    (f_c, _, _, t_c), (_, _, _, t_f) = fresh(n // 2)[0], fresh(2 * n)[0]
    assert res.energy == last.energy + last.trace - t_f
    err_k = abs(last.energy + last.trace - f_c - t_c) + abs(t_f - last.trace)
    assert err_k + last.err_l + last.err_m <= res.error_estimate


def test_refined_level_reuses_rows_by_index(monkeypatch):
    # on one run's record, level 2n takes its even nodes from level n's
    # columns and traces and evaluates only the odd ones; the result is
    # bit-identical to evaluating every node on a fresh run
    d = 0.3
    sphere, plane = SphereSheet(1.0, 1.7), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    l_max, rule, m_tol = _pass_args(d)
    run = energy_exact._Run(d, sphere, plane, l_max, rule, l_max, m_tol, 8)
    steps = []
    real = energy_exact._trace_step

    def counting(kappa, *args):
        steps.append(kappa.size)
        return real(kappa, *args)

    monkeypatch.setattr(energy_exact, "_trace_step", counting)
    coarse = energy_exact._quadrature_pass(8, run)
    fine = energy_exact._quadrature_pass(16, run)
    fresh = energy_exact._quadrature_pass(16, _fresh(run))
    assert steps == [7, 8, 15]
    assert (fine.energy, fine.err_l, fine.err_m, fine.trace) == (fresh.energy, fresh.err_l,
                                                                 fresh.err_m, fresh.trace)
    assert fine.rows[3].max() == fresh.rows[3].max()
    assert np.array_equal(fine.rows, fresh.rows)
    assert np.array_equal(fine.rows[:, 1::2], coarse.rows)


def test_a_miss_refines_on_the_first_pass_tables(monkeypatch):
    # a first pass holds every node of level 2n traced at the start degree,
    # with blocks at a lower l_max on level n alone, here over three
    # chunks, which it keeps.  Refining to level 2n runs the blocks of the
    # other n nodes on those chunks, where they took T alone: no trace step
    # runs, every chunk is dropped once all its nodes have F, and the
    # record is bit for bit that of a pass that traces and evaluates all
    # of level 2n afresh
    d = 0.3
    sphere, plane = SphereSheet(1.0, 1.7), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    run = _run(sphere, plane, 20)
    monkeypatch.setattr(energy_exact, "_STACK_BYTES",
                        12 * 8 * (2 * run.l_top) * (2 * rapidity_rule(*run.theta_rule)[0].size))
    energy_exact._first_pass(run, 16, run.m_tol)
    assert [len(part) for part, _, _ in run.traced] == [11, 10, 10]
    first = run.record.copy()
    steps = []
    real = energy_exact._trace_step

    def counting(*args):
        steps.append(args[0].size)
        return real(*args)

    monkeypatch.setattr(energy_exact, "_trace_step", counting)
    refined = energy_exact._quadrature_pass(32, run)
    assert steps == [] and len(run.traced) == 0
    fresh = energy_exact._quadrature_pass(32, _fresh(run))
    assert steps == [31] and np.array_equal(refined.rows, fresh.rows)
    t_alone = run.columns(32)[::2]
    assert np.array_equal(refined.rows[4, ::2], first[4, t_alone])
    assert np.all(np.isnan(first[:4, t_alone])) and refined.rows[3, ::2].max() > 0


def _run_estimate(run, levels):
    """The last F level of a run, its E and its kappa estimate, from the
    levels its passes returned and its record: with one level n, the
    control variate against T on level 2n, with more, the plain sums."""
    last = levels[-1]
    if len(levels) > 1:
        return last, last.energy, abs(last.energy - levels[-2].energy)
    n = last.rows.shape[1] + 1
    fine = energy_exact._integral(run, 2 * n, run.record[4, run.columns(2 * n)])
    coarse = energy_exact._level(run, n // 2)
    return (last, last.energy + last.trace - fine,
            abs(last.energy + last.trace - coarse.energy - coarse.trace) + abs(fine - last.trace))


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-5])
def test_error_estimate_adds_up_from_the_level_records(monkeypatch, rel_tol):
    # an Omega R = 1.7 sphere before a PC plane at d/R = 0.3: every pass of
    # one call is recorded, run by run, a run being one (l_max, panels).
    # A run's first pass traces kappa level 32 for T and runs blocks on
    # level 16 alone: that level is bit for bit a pass of level 16 on a
    # fresh run, and level 8 sums from its record in turn.  E is the
    # control-variate sum, F + T on level 16 less T on level 32, and the
    # kappa estimate the change of the F + T sum from level 8 plus that of
    # T's sum from level 16.  A run whose kappa estimate misses rel_tol/4
    # takes F on the other nodes of level 32 and refines plain F sums from
    # there.  The kappa, l, m and
    # theta estimates formed from the records of the last run and from its
    # theta probe add up to error_estimate, bit for bit, and the records
    # show each stop: the levels refine until the kappa estimate is within
    # rel_tol/4, the start degree grows until the l estimate is, and a run
    # that misses rel_tol with the theta estimate past rel_tol/4 re-runs on
    # one more panel.  Each run's l_max is the one its first pass's traces
    # pick, or its start degree where none fits.  At rel_tol 1e-5 none fits
    # at the start degree 30, whose l estimate then misses too, so it grows
    # once, to 40, where the pick is 31; then the rule gains a panel once,
    # and every run refines past the control variate
    tries = {1e-3: [(30, 22, 4)],  # (start degree, l_max, panels)
             1e-5: [(30, 30, 4), (40, 31, 4), (40, 31, 5)]}[rel_tol]
    runs, probes = [], []
    real_pass, real_sums = energy_exact._quadrature_pass, energy_exact._mode_sums

    def recording_pass(n_kappa, run):
        level = real_pass(n_kappa, run)
        if not runs or runs[-1][0] is not run:  # the first pass of a run
            assert n_kappa == 16 and not np.isnan(run.record[4, run.columns(32)]).any()
            plain = real_pass(n_kappa, _fresh(run))
            assert np.array_equal(level.rows, plain.rows)
            runs.append((run, []))
        runs[-1][1].append(level)
        return level

    def recording_sums(kappa, sphere, plane, l_max, theta_rule, *rest):
        out = real_sums(kappa, sphere, plane, l_max, theta_rule, *rest)
        if kappa.size == 1:  # a theta probe
            probes.append(((l_max, theta_rule), out))
        return out

    monkeypatch.setattr(energy_exact, "_quadrature_pass", recording_pass)
    monkeypatch.setattr(energy_exact, "_mode_sums", recording_sums)
    res = casimir_energy(SphereSheet(1.0, 1.7), PlaneSheet(PERFECT_CONDUCTOR, 1.3),
                         NumericsSpec(rel_tol=rel_tol))
    share = 0.25 * rel_tol
    assert [(run.l_top, run.l_max, run.theta_rule[0]) for run, _ in runs] == tries
    # a probe follows each run at the last start degree, at the run's l_max
    # on twice its panels and 1.25 v_max
    assert len(probes) == sum(1 for l_top, _, _ in tries if l_top == tries[-1][0])
    for (run, _), (rule, _) in zip(runs[-len(probes):], probes):
        assert rule == (run.l_max, (2 * run.theta_rule[0], 1.25 * run.theta_rule[1]))
    estimates = [_run_estimate(run, levels) for run, levels in runs]
    last, energy, err_k = estimates[-1]
    run, levels = runs[-1]
    plain = levels[1:]
    assert all((len(lv) > 1) == (rel_tol == 1e-5) for _, lv in runs)
    assert [lv.rows.shape[1] + 1 for lv in levels] == [16 * 2 ** k for k in range(len(levels))]
    assert last.rows.shape[1] + 1 == res.kappa_nodes_used
    assert energy == res.energy and last.rows[3].max() == res.m_max_used

    def theta_estimate(level, energy, probe):
        f_min = level.rows[0, -1]  # the smallest node is the last of its level
        return abs(probe[0, 0] - f_min) / max(abs(f_min), 1e-300) * abs(energy)

    err_theta = theta_estimate(last, energy, probes[-1][1])
    assert err_k + last.err_l + last.err_m + err_theta == res.error_estimate
    assert err_k <= share * abs(energy) and last.err_l <= share * abs(energy)
    # each level before the last missed rel_tol/4: the control variate, then the plain sums
    if plain:
        cv = _run_estimate(run, levels[:1])
        assert cv[2] > share * abs(cv[1])
        for coarse, fine in zip(plain[:-2], plain[1:-1]):
            assert abs(fine.energy - coarse.energy) > share * abs(fine.energy)
    for (l_top, _, _), (level, e, _) in zip(tries, estimates):
        if l_top < tries[-1][0]:
            assert level.err_l > share * abs(e)
    # the run before the panel was added missed rel_tol on its theta estimate
    for (level, e, _), (_, probe) in zip(estimates[-len(probes):-1], probes[:-1]):
        assert theta_estimate(level, e, probe) > share * abs(e)


@pytest.mark.parametrize("omega", [PERFECT_CONDUCTOR, 1.7])
def test_level_major_rows_equal_per_node_rows(monkeypatch, omega):
    # one kappa level evaluated as one stack gives, for every node, the column
    # (F, l probe, m error, m used) of that node evaluated alone, bit for bit;
    # the far nodes take their value from the trace and leave the stack
    # before block 0, and the others leave it one by one
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
    assert [k for _, k in stacks] == sorted((k for _, k in stacks), reverse=True)
    alone = np.hstack([energy_exact._mode_sums(kappa[i:i + 1], sphere, plane, *_pass_args(d))
                       for i in range(kappa.size)])
    assert np.array_equal(stacked, alone)
    m_used = stacked[3]
    # every node that needed a block was in the first one
    assert stacks[0] == (0, np.sum(m_used >= 0))
    assert m_used[0] == -1 and m_used.max() > 1


def test_chunks_join_in_order(monkeypatch):
    # a level split into uneven chunks gives the record of the level in one
    # chunk, bit for bit and in node order
    d = 0.3
    sphere, plane = SphereSheet(1.0, 1.7), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    kappa = energy_exact._kappa_rule(16)[0] / (2.0 * d)
    args = _pass_args(d)
    l_max, theta_rule, _ = args
    per_node = 8 * (2 * l_max) * (2 * rapidity_rule(*theta_rule)[0].size)
    chunks = []
    real = KappaTable.m_summed_traces

    def recording(table):
        chunks.append(np.size(table.kappa))
        return real(table)

    monkeypatch.setattr(KappaTable, "m_summed_traces", recording)
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
    real_logdet = energy_exact._logdet

    def positive(f):
        full = real_logdet(f)
        full[-1] = 1e-6
        return full

    monkeypatch.setattr(energy_exact, "_logdet", positive)
    with pytest.raises(SpectralAnomalyError, match=r"> 0 for block m=0, kappa=2\.0;") as info:
        energy_exact._mode_sums(kappa, sphere, plane, *_pass_args(d))
    assert info.value.error_estimate == pytest.approx(2e-6)  # the TE and TM halves of m = 0


def test_far_kappa_nodes_stay_finite(monkeypatch):
    # the far nodes of T's level reach kappa R ~ 2e5 at d/R = 0.05; every
    # node must give a finite F <= 0 and T >= 0
    values = []
    real, real_sums = energy_exact._mode_sums, energy_exact._chunk_mode_sums

    def recording(table, *args):
        out = real_sums(table, *args)
        values.extend(zip(np.atleast_1d(table.kappa).tolist(), out.T.tolist()))
        return out

    monkeypatch.setattr(energy_exact, "_chunk_mode_sums", recording)
    passes = _recording_passes(monkeypatch)
    d = 0.05
    sphere, plane = SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    res = casimir_energy(sphere, plane, NumericsSpec(kappa_nodes=32, rel_tol=1e-3))
    # level 128 traced in one pass, with blocks on the 63 nodes of level
    # 64, then the theta probe; the other 64 nodes take T alone
    assert res.kappa_nodes_used == 64 and len(passes) == 1 and len(values) == 64
    x = energy_exact._kappa_rule(128)[0]
    t_alone = passes[0][3][:, passes[0][1].columns(128)[::2]]
    assert x[0] / (2.0 * passes[0][1].d) > 1e5
    assert np.all(np.isfinite(t_alone[4])) and np.all(t_alone[4] >= 0.0)
    for kappa, (f, top, m_err, _, t) in values:
        assert math.isfinite(f) and math.isfinite(top) and math.isfinite(t)
        assert f <= 0.0 and 0.0 <= top <= t and 0.0 <= m_err < math.inf
    # the edges of the stated range, kappa R = 4e6 (T's level 256, from
    # kappa_nodes 64, at d/R = 0.01), where every block underflows to 0 and
    # so does the trace, and 1e-4 (level 128 at d/R ~ 2)
    assert np.array_equal(real(np.array([4e6]), sphere, plane, *_pass_args(d)),
                          [[0.0], [0.0], [0.0], [-1], [0.0]])
    for om in (PERFECT_CONDUCTOR, 0.5):
        d_wide = 2.0
        [f], [top], [m_err], _, [t] = real(np.array([1e-4]), SphereSheet(1.0, om),
                                           PlaneSheet(om, 1.0 + d_wide), *_pass_args(d_wide))
        assert math.isfinite(f) and f < 0.0 and 0.0 <= top <= t and m_err >= 0.0


# ---------------------------------------------------------------- rapidity rule

def test_rapidity_log_weights_finite_up_to_the_domain_limit():
    # the largest degree the driver traces is the start degree of the
    # fourth run at the smallest gap; the rule and its probe stay finite
    # there with no ceiling, although their last weights underflow as plain
    # doubles
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
    l_max, (panels, v_max), m_tol = _pass_args(d)
    x_min = energy_exact._kappa_rule(128)[0].min()
    x_mid = energy_exact._kappa_rule(32)[0][22]
    assert x_mid == pytest.approx(0.672, abs=1e-3)
    for x in (x_min, x_mid):
        def f(rule):
            return energy_exact._mode_sums(np.array([x / (2.0 * d)]), sphere, plane, l_max,
                                           rule, m_tol)[0][0]
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


@pytest.mark.parametrize("d, omega_s", [(0.1, PERFECT_CONDUCTOR), (0.2, PERFECT_CONDUCTOR),
                                         (0.1, 1.7)])
def test_tight_rel_tol_grows_the_rapidity_rule(monkeypatch, d, omega_s):
    # on the old fixed rule these raised at rel_tol 1e-5 on the theta
    # estimate; the probe now adds panels until it fits.  Each result lies
    # within the summed estimates of the rel_tol 1e-3 one, and the rule it
    # ends on has more panels than it started with
    sphere, plane = SphereSheet(1.0, omega_s), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    loose = casimir_energy(sphere, plane, NumericsSpec(rel_tol=1e-3))
    panels = []
    real = energy_exact._trace_step

    def recording(kappa, sphere, plane, l_top, rule):
        panels.append(rule[0])
        return real(kappa, sphere, plane, l_top, rule)

    monkeypatch.setattr(energy_exact, "_trace_step", recording)
    tight = casimir_energy(sphere, plane, NumericsSpec(rel_tol=1e-5))
    assert tight.error_estimate <= 1e-5 * abs(tight.energy)
    assert abs(tight.energy - loose.energy) <= tight.error_estimate + loose.error_estimate
    assert panels[0] == energy_exact._THETA_PANEL_FLOOR
    assert panels[-2] > panels[0]  # the last run's last level; the probe doubles it


def _bench_points():
    with open(os.path.join(os.path.dirname(__file__), "..", "bench", "points.json"),
              encoding="utf-8") as f:
        return json.load(f)


def _sheets(p):
    """The sphere and plane of a ``bench/points.json`` point at R = 1."""
    def omega(value):
        return PERFECT_CONDUCTOR if value == "pc" else value

    return (SphereSheet(1.0, omega(p["omega_R_sphere"])),
            PlaneSheet(omega(p["omega_R_plane"]), 1.0 + p["d_over_R"]))


def _scanned_l_max(norms, w, share):
    """The smallest l in 2 .. L whose l estimate, the integral with weights
    ``w`` of the trace of the degrees l_keep < l' <= l over the nodes of
    ``norms`` ((K, L, 2) m-summed row norms), is at most ``share`` times that
    of the trace of every degree up to l; None if none is."""
    for l_max in range(2, norms.shape[1] + 1):
        l_keep = max(1, l_max - max(4, l_max // 8))
        dropped = w @ norms[:, l_keep:l_max].sum(axis=(1, 2))
        if dropped <= share * (w @ norms[:, :l_max].sum(axis=(1, 2))):
            return l_max
    return None


def test_pick_is_the_first_l_max_a_scan_fits():
    # per-degree traces falling as 0.7^l over one node: the pick is the
    # first l_max of a scan, and a start degree one below it picks none
    w = np.array([1.0])
    norms = (0.7 ** np.arange(1, 61))[None, :, None] * np.array([0.25, 0.75])
    want = _scanned_l_max(norms, w, 2.5e-4)
    degree_traces = w @ norms.sum(axis=2)
    assert 2 < want < 60 and energy_exact._pick_l_max(degree_traces, 2.5e-4) == want
    assert energy_exact._pick_l_max(degree_traces[:want - 1], 2.5e-4) is None


def test_bench_points_run_once_at_the_default_rel_tol(monkeypatch):
    # at the benchmark's points and rel_tol 1e-3 the starting rule passes
    # its probe and the start degree its l check: one run per point.  Its
    # first pass traces each node of kappa level 32 once, in one trace step
    # at the start degree, and l_max is the one a scan of the traces at
    # the 15 nodes of level 16 picks, below the start degree at every
    # point (55 of 70 and 109 of 130 on exact-narrow, 29 of 39 down to 14
    # of 21 on exact-wide).  Blocks run at that l_max on the nodes of level
    # 16 alone, and the control variate stops there at no fewer than 10 of
    # the 12 points (11 today).  A miss takes F on the other 16 nodes of
    # level 32 from the first pass's tables and traces, with no trace step
    # of its own.  Then one theta probe, at the smallest F node.  The run
    # builds the rule of each of the levels 8, 16 and 32 once
    bench = _bench_points()
    points = bench["exact-narrow"] + bench["exact-wide"]
    assert len(points) == 12
    calls, traced, runs, blocked, rules = [], [], [], set(), []
    real_step, real_pass, real_block, real_rule = (
        energy_exact._trace_step, energy_exact._quadrature_pass, energy_exact.assemble_block,
        energy_exact._kappa_rule)

    def counting_step(kappa, *args):
        calls.extend(kappa.tolist())
        traced.append(real_step(kappa, *args))
        return traced[-1]

    def counting_pass(n_kappa, run):
        if run not in runs:
            runs.append(run)
        return real_pass(n_kappa, run)

    def counting_rule(n):
        rules.append(n)
        return real_rule(n)

    def recording(m, table):
        block = real_block(m, table)
        if len(traced) == 1:  # before the theta probe
            blocked.update(np.atleast_1d(block.kappa).tolist())
        return block

    monkeypatch.setattr(energy_exact, "_trace_step", counting_step)
    monkeypatch.setattr(energy_exact, "_quadrature_pass", counting_pass)
    monkeypatch.setattr(energy_exact, "assemble_block", recording)
    monkeypatch.setattr(energy_exact, "_kappa_rule", counting_rule)
    stops, picks = 0, []
    for p in points:
        for record in (calls, traced, runs, blocked, rules):
            record.clear()
        res = casimir_energy(*_sheets(p), NumericsSpec(rel_tol=1e-3))
        assert [run.l_top for run in runs] == [energy_exact._auto_l_max(p["d_over_R"])]
        assert sorted(rules) == [8, 16, 32]
        assert len(traced) == 2 and len(calls) == 32
        level, f_nodes = calls[:31], calls[1:31:2]
        assert len(set(level)) == 31 and blocked
        norms = np.concatenate([n for _, n in traced[0]])[1::2]
        picks.append(res.l_max_used)
        assert picks[-1] == _scanned_l_max(norms, energy_exact._kappa_rule(16)[1], 2.5e-4)
        if res.kappa_nodes_used == 16:
            stops += 1
            assert blocked <= set(f_nodes)
        else:
            assert res.kappa_nodes_used == 32 and blocked <= set(level)
            f_nodes = level
        assert calls[-1] == min(f_nodes)
    assert picks == [55, 109, 29, 26, 24, 22, 20, 19, 19, 17, 15, 14]
    assert stops >= 10


@pytest.mark.parametrize("d, omega_s, omega_p", [
    (0.1, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR),
    (0.2916677455724206, 2.2969562477180534, 14.374812270822432)])
def test_kappa_estimate_covers_the_plain_sum_on_level_128(monkeypatch, d, omega_s, omega_p):
    # E, the control-variate sum, against the plain F sum on kappa level
    # 128 at the same l_max and rapidity rule: the miss lies within the
    # kappa estimate, at 0.070 and 0.080 of it
    real = energy_exact._quadrature_pass
    passes = _recording_passes(monkeypatch)
    res = casimir_energy(SphereSheet(1.0, omega_s), PlaneSheet(omega_p, 1.0 + d))
    run = passes[0][1]
    assert all(r is run for _, r, _, _ in passes)
    _, energy, err_k = _run_estimate(run, [level for _, _, level, _ in passes])
    assert energy == res.energy and res.kappa_nodes_used == 16
    reference = real(128, _fresh(run))
    assert abs(res.energy - reference.energy) <= err_k


def test_a_control_variate_miss_is_the_plain_level_32_sum(monkeypatch):
    # exact-wide[2] (d/R 0.2554, Omega R 1.75 and 3.98): the kappa estimate
    # of the control variate reads 3.0e-4 of |E|, past rel_tol/4, so it
    # misses.  F is then evaluated on the other 16 nodes of level 32, where
    # T is known and cancels, on the first pass's tables and traces: E is
    # the plain F sum on level 32, and its record is bit for bit that of one
    # pass over its 31 nodes.  The only other trace step is the theta probe's
    p = _bench_points()["exact-wide"][2]
    sphere, plane = _sheets(p)
    levels, steps = [], []
    real_pass, real_step = energy_exact._quadrature_pass, energy_exact._trace_step

    def recording(*args, **kwargs):
        levels.append(real_pass(*args, **kwargs))
        return levels[-1]

    def counting(kappa, *args):
        steps.append(kappa.size)
        return real_step(kappa, *args)

    monkeypatch.setattr(energy_exact, "_quadrature_pass", recording)
    monkeypatch.setattr(energy_exact, "_trace_step", counting)
    res = casimir_energy(sphere, plane)
    assert res.kappa_nodes_used == 32 and steps == [31, 1] and len(levels) == 2
    monkeypatch.undo()
    d = plane.distance_L - 1.0
    fresh = energy_exact._quadrature_pass(32, _run(sphere, plane, res.l_max_used))
    assert fresh.energy == res.energy and np.array_equal(fresh.rows, levels[-1].rows)


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


@pytest.mark.parametrize("distance_L", [101.0, 301.0])
def test_pc_far_field_meets_the_dipole_limit(monkeypatch, distance_L):
    # far apart, two perfect conductors interact through the static dipoles
    # of the sphere, E -> -9 R^3 / (16 pi L^4), an independent route.  The
    # next order is c (R/L)^2 of |E|, measured c = 1.40 at L/R = 101 and
    # 1.39 at 301; the allowance is 2 (R/L)^2.  Every kappa node takes its
    # value from the trace, with no block
    calls = _counting_blocks(monkeypatch)
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, distance_L))
    want = far_field_energy(1.0, PERFECT_CONDUCTOR, distance_L)
    assert abs(res.energy - want) <= res.error_estimate + 2.0 * abs(want) / distance_L ** 2
    assert calls == [] and res.m_max_used == -1


@pytest.mark.parametrize("omega_s", [1.0, 10.0])
@pytest.mark.parametrize("distance_L", [31.0, 101.0, 301.0])
def test_plasma_sphere_far_field_meets_the_dipole_limit(distance_L, omega_s):
    # a plasma-sheet sphere far from a perfectly conducting plane: its
    # static electric dipole is the perfect conductor's and its magnetic
    # one is that times 2 Omega R / (2 Omega R + 3), so
    # E -> -(3 R^3 / (8 pi L^4)) (1 + Omega R / (2 Omega R + 3)), from the
    # l = 1 T-matrix limits taken by hand.  The next order is (R/L)^2 of
    # |E|, allowed as 2 (R/L)^2, as for the perfect conductor: E / limit - 1
    # read -4.6e-5, -9.6e-6, -1.2e-6 (Omega R = 1) and 1.27e-3, 1.17e-4,
    # 1.3e-5 (Omega R = 10) at L/R = 31, 101, 301
    res = casimir_energy(SphereSheet(1.0, omega_s), PlaneSheet(PERFECT_CONDUCTOR, distance_L))
    want = far_field_energy(1.0, omega_s, distance_L)
    assert abs(res.energy - want) <= res.error_estimate + 2.0 * abs(want) / distance_L ** 2


def _l_max_tries(monkeypatch, start):
    """Start the auto trace degree at ``start`` and record every one tried."""
    tried = []
    rule = energy_exact._theta_rule

    def recording(l_max):
        tried.append(l_max)
        return rule(l_max)

    monkeypatch.setattr(energy_exact, "_auto_l_max", lambda d: start)
    monkeypatch.setattr(energy_exact, "_theta_rule", recording)
    return tried


def test_l_max_growth_reaches_the_auto_value(monkeypatch):
    # PC d/R = 0.1 starts its trace step at degree 70 on its own, and its
    # traces pick l_max 55.  From 40 no l_max up to the start fits, so the
    # run takes l_max 40, whose l estimate misses; the start degree grows
    # by max(10, l // 3) twice, to 70, where the pick lands on the same
    # run, bit for bit
    args = (SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.1),
            NumericsSpec(rel_tol=1e-3))
    auto = casimir_energy(*args)
    tried = _l_max_tries(monkeypatch, 40)
    res = casimir_energy(*args)
    assert tried == [40, 53, 70]
    assert res.l_max_used == auto.l_max_used == 55
    assert res.energy == auto.energy and res.error_estimate == auto.error_estimate


def test_l_max_growth_that_does_not_converge_raises(monkeypatch):
    # from 20 the traces pick no l_max at any of the four start degrees 20,
    # 30, 40, 53, and the l estimate of each run at its start degree misses
    # rel_tol/4 of |E|
    tried = _l_max_tries(monkeypatch, 20)
    with pytest.raises(NumericsError, match="l_max growth did not converge") as info:
        casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.1),
                       NumericsSpec(rel_tol=1e-3))
    assert tried == [20, 30, 40, 53]
    assert math.isfinite(info.value.error_estimate) and info.value.error_estimate > 0.0
