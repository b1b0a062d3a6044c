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
    rules = []
    real = energy_exact._quadrature_pass

    def recording(n_kappa, d, prev, mode_args, **kwargs):
        rules.append(mode_args[3])
        return real(n_kappa, d, prev, mode_args, **kwargs)

    monkeypatch.setattr(energy_exact, "_quadrature_pass", recording)
    with pytest.raises(NumericsError, match="energy not converged"):
        casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR),
                       PlaneSheet(PERFECT_CONDUCTOR, 1.05),
                       NumericsSpec(l_max=6, rel_tol=1e-4))
    assert len(set(rules)) == 1


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
    """(l_max, theta_rule, m_tol) of the first auto pass at gap d; the m
    sum's share m_tol of |F| is a quarter of the default rel_tol."""
    l_max = energy_exact._auto_l_max(d)
    return l_max, energy_exact._theta_rule(l_max), 0.25 * NumericsSpec().rel_tol


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
def test_record_carries_each_node_trace(omega):
    # row 4 of the record is T = sum_m (2 - delta_m0) tr M_m over every m,
    # node by node, against the block-by-block oracle; so is the l probe
    # of row 1, over the top degrees.  The nodes of a trace-only mask take
    # T alone: no block, m used -1 and F = -T.  The other nodes keep their
    # columns, bit for bit those of a call without them
    d = 0.3
    sphere, plane = SphereSheet(1.0, omega), PlaneSheet(omega, 1.0 + d)
    l_max, theta_rule, m_tol = _pass_args(d)
    kappa = energy_exact._kappa_rule(32)[0] / (2.0 * d)
    trace_only = np.zeros(kappa.size, dtype=bool)
    trace_only[::2] = True
    rows = energy_exact._mode_sums(kappa, sphere, plane, l_max, theta_rule, m_tol, trace_only)
    table = KappaTable.build(kappa, sphere, plane, l_max, rapidity_rule(*theta_rule))
    want, want_top = m_summed_trace(table, l_max - max(4, l_max // 8))
    assert rows[4] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rows[1] == pytest.approx(want_top, rel=1e-12, abs=0.0)
    assert np.all(rows[3, ::2] == -1) and np.array_equal(rows[0, ::2], -rows[4, ::2])
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
    (0.1, (70, 5, 16), -3.8187649381333215),
    (0.05, (130, 8, 16), -16.141450465459826)])
def test_pc_exact_pair_truncations_are_pinned(d, truncation, energy):
    # the criterion-5 pair: (l_max_used, m_max_used, kappa_nodes_used) and E
    # must not move.  E is the control-variate sum, F + T on kappa level 16
    # and T alone on level 32.  The plain F sum on level 32 gave
    # -3.8187510696907165 and -16.141414130742127: E moved by 1.4e-5 and
    # 3.6e-5, 0.020 and 0.009 of that run's estimates (6.9e-4, 4.2e-3).
    # Against the plain F sum on level 128 at the same l_max and rapidity
    # rule, E misses by 1.4e-5 and 4.0e-5, inside the kappa estimates of
    # 2.1e-4 and 2.4e-3.  With the trace still to come taken off F, E sits
    # 3.1e-5 and 1.4e-4 short of the m sum run to l_max, against m
    # estimates of 3.3e-4 and 3.0e-3
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR),
                         PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d), NumericsSpec(rel_tol=1e-3))
    assert (res.l_max_used, res.m_max_used, res.kappa_nodes_used) == truncation
    assert res.energy == pytest.approx(energy, rel=1e-10, abs=0.0)


def _control_variate(level, d, args):
    """casimir_energy's E from a plain pass ``level`` over its F level n: the
    integral of F + T there, less that of T on level 2n, from a pass whose
    new nodes take T alone."""
    fine = energy_exact._quadrature_pass(2 * (level.x.size + 1), d, None, args, trace_only=True)
    return level.energy + level.trace - fine.trace


@pytest.mark.parametrize("d, omega_s, omega_p", [
    (0.1, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR),
    (0.2916677455724206, 2.2969562477180534, 14.374812270822432)])
def test_m_error_covers_the_m_sum_run_to_l_max(monkeypatch, d, omega_s, omega_p):
    # PC d/R = 0.1 and an exact-wide benchmark point: E against the m sum
    # run to l_max with the same l_max, kappa levels and rapidity rule.  T
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
    args = (sphere, plane, res.l_max_used, energy_exact._theta_rule(res.l_max_used), m_tol)
    level = energy_exact._quadrature_pass(res.kappa_nodes_used, d, None, args)
    assert _control_variate(level, d, args) == pytest.approx(res.energy, rel=1e-12, abs=0.0)
    assert 0.0 < level.err_m <= m_tol * abs(res.energy)
    _m_sum_to_l_max(monkeypatch)
    args = (*args[:-1], _NO_M_STOP)
    whole = energy_exact._quadrature_pass(res.kappa_nodes_used, d, None, args)
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
    # lies above it.  L' = floor(1.6 l_max), the trace on the rapidity rule
    # of L', at the nodes of the last F level of the run: the l truncation of
    # T cancels between the two sums of the control variate.  err_l read
    # 3.3 and 6.3 times the floor
    sphere, plane = SphereSheet(1.0, omega_s), PlaneSheet(omega_p, 1.0 + d)
    res = casimir_energy(sphere, plane)
    l_max, n_kappa = res.l_max_used, res.kappa_nodes_used
    args = (sphere, plane, l_max, energy_exact._theta_rule(l_max), 0.25 * NumericsSpec().rel_tol)
    level = energy_exact._quadrature_pass(n_kappa, d, None, args)
    assert _control_variate(level, d, args) == pytest.approx(res.energy, rel=1e-12, abs=0.0)
    top_l = int(1.6 * l_max)
    x, w = energy_exact._kappa_rule(n_kappa)
    table = KappaTable.build(x / (2.0 * d), sphere, plane, top_l,
                             rapidity_rule(*energy_exact._theta_rule(top_l)))
    floor = (w @ table.m_summed_traces(l_max)[1]) / (2.0 * math.pi) / (2.0 * d)
    assert 0.0 < floor <= level.err_l


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
    # the first pass is one call over the 2n - 1 nodes of level 2n, whose
    # n new nodes take T alone: blocks run only on the n - 1 nodes of the
    # F level n.  Then the theta probe runs at the smallest of those
    calls, sizes, blocked = [], [], set()
    real, real_block = energy_exact._mode_sums, energy_exact.assemble_block

    def counting(kappa, *args):
        calls.extend(kappa.tolist())
        sizes.append(kappa.size)
        return real(kappa, *args)

    def recording(m, table):
        block = real_block(m, table)
        if len(sizes) == 1:
            blocked.update(np.atleast_1d(block.kappa).tolist())
        return block

    monkeypatch.setattr(energy_exact, "_mode_sums", counting)
    monkeypatch.setattr(energy_exact, "assemble_block", recording)
    d = 0.3
    res = casimir_energy(SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d),
                         NumericsSpec(rel_tol=1e-3))
    assert res.l_max_used == energy_exact._auto_l_max(d)  # no l_max growth
    n = res.kappa_nodes_used
    assert n == 2 * NumericsSpec().kappa_nodes  # no miss
    assert sizes == [2 * n - 1, 1]
    assert len(set(calls)) == len(calls) - 1
    f_nodes = calls[1:2 * n - 1:2]
    assert 0 < len(blocked) and blocked <= set(f_nodes) and calls[-1] == min(f_nodes)


def test_refined_level_reuses_rows_by_index():
    # level 2n takes its even nodes from level n's record and evaluates only
    # the odd ones; the result is bit-identical to evaluating every node
    d = 0.3
    mode_args = (SphereSheet(1.0, 1.7), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d), *_pass_args(d))
    coarse = energy_exact._quadrature_pass(8, d, None, mode_args)
    fine = energy_exact._quadrature_pass(16, d, coarse.rows, mode_args)
    fresh = energy_exact._quadrature_pass(16, d, None, mode_args)
    assert (fine.energy, fine.err_l, fine.err_m) == (fresh.energy, fresh.err_l, fresh.err_m)
    assert fine.rows[3].max() == fresh.rows[3].max()
    assert np.array_equal(fine.x, fresh.x) and np.array_equal(fine.x[1::2], coarse.x)
    assert np.array_equal(fine.rows, fresh.rows)
    assert np.array_equal(fine.rows[:, 1::2], coarse.rows)


def _run_estimate(first, plain, d):
    """The last F level of a run, its E and its kappa estimate, from the
    records of its first pass and of the plain levels after it."""
    n = (first.x.size + 1) // 2
    fine = energy_exact._level(*energy_exact._kappa_rule(n), d,
                               np.ascontiguousarray(first.rows[:, 1::2]))
    if plain:
        levels = [fine, *plain]
        return levels[-1], levels[-1].energy, abs(levels[-1].energy - levels[-2].energy)
    coarse = energy_exact._level(*energy_exact._kappa_rule(n // 2), d,
                                 np.ascontiguousarray(fine.rows[:, 1::2]))
    return (fine, fine.energy + fine.trace - first.trace,
            abs(fine.energy + fine.trace - coarse.energy - coarse.trace)
            + abs(first.trace - fine.trace))


@pytest.mark.parametrize("rel_tol", [1e-3, 1e-5])
def test_error_estimate_adds_up_from_the_level_records(monkeypatch, rel_tol):
    # an Omega R = 1.7 sphere before a PC plane at d/R = 0.3: every pass of
    # one call is recorded, run by run, a run being one (l_max, panels).
    # A run's first pass covers kappa level 32 with blocks on level 16
    # alone: its odd columns are bit for bit a pass of level 16, and level
    # 8's record is theirs in turn.  E is the control-variate sum, F + T on
    # level 16 less T on level 32, and the kappa estimate the change of the
    # F + T sum from level 8 plus that of T's sum from level 16.  A run
    # whose kappa estimate misses rel_tol/4 takes F on the other nodes of
    # level 32 and refines plain F sums from there.  The kappa, l, m and
    # theta estimates formed from the records of the last run and from its
    # theta probe add up to error_estimate, bit for bit, and the records
    # show each stop: the levels refine until the kappa estimate is within
    # rel_tol/4, l_max grows until the l estimate is, and a run that misses
    # rel_tol with the theta estimate past rel_tol/4 re-runs on one more
    # panel.  At rel_tol 1e-5 l_max grows once, then the rule gains a panel
    # once, and every run refines past the control variate
    tries = {1e-3: [(30, 4)], 1e-5: [(30, 4), (40, 4), (40, 5)]}[rel_tol]  # (l_max, panels)
    runs, probes, gaps = [], [], []
    real_pass, real_sums = energy_exact._quadrature_pass, energy_exact._mode_sums

    def recording_pass(n_kappa, d, prev, mode_args, **kwargs):
        level = real_pass(n_kappa, d, prev, mode_args, **kwargs)
        gaps.append(d)
        if prev is None:  # the first pass of a run
            assert kwargs == {"trace_only": True}
            plain = real_pass(n_kappa // 2, d, None, mode_args)
            assert np.array_equal(level.rows[:, 1::2], plain.rows)
            runs.append((mode_args, level, []))
        else:
            runs[-1][2].append(level)
        return level

    def recording_sums(kappa, *args):
        out = real_sums(kappa, *args)
        if kappa.size == 1:  # a theta probe
            probes.append((args[3], out))
        return out

    monkeypatch.setattr(energy_exact, "_quadrature_pass", recording_pass)
    monkeypatch.setattr(energy_exact, "_mode_sums", recording_sums)
    res = casimir_energy(SphereSheet(1.0, 1.7), PlaneSheet(PERFECT_CONDUCTOR, 1.3),
                         NumericsSpec(rel_tol=rel_tol))
    share, d = 0.25 * rel_tol, gaps[0]
    assert [(args[2], args[3][0]) for args, _, _ in runs] == tries
    # a probe follows each run at the last l_max, on twice its panels and 1.25 v_max
    assert len(probes) == sum(1 for l_max, _ in tries if l_max == tries[-1][0])
    for (args, _, _), (rule, _) in zip(runs[-len(probes):], probes):
        assert rule == (2 * args[3][0], 1.25 * args[3][1])
    estimates = [_run_estimate(first, plain, d) for _, first, plain in runs]
    last, energy, err_k = estimates[-1]
    first, plain = runs[-1][1:]
    assert first.x.size + 1 == 32
    assert all(bool(run[2]) == (rel_tol == 1e-5) for run in runs)
    assert [lv.x.size + 1 for lv in plain] == [32 * 2 ** k for k in range(len(plain))]
    assert last.x.size + 1 == res.kappa_nodes_used
    assert energy == res.energy and last.rows[3].max() == res.m_max_used

    def theta_estimate(level, energy, probe):
        f_min = level.rows[0, np.argmin(level.x)]
        return abs(probe[0, 0] - f_min) / max(abs(f_min), 1e-300) * abs(energy)

    err_theta = theta_estimate(last, energy, probes[-1][1])
    assert err_k + last.err_l + last.err_m + err_theta == res.error_estimate
    assert err_k <= share * abs(energy) and last.err_l <= share * abs(energy)
    # each level before the last missed rel_tol/4: the control variate, then the plain sums
    if plain:
        cv = _run_estimate(first, [], d)
        assert cv[2] > share * abs(cv[1])
        for coarse, fine in zip(plain[:-2], plain[1:-1]):
            assert abs(fine.energy - coarse.energy) > share * abs(fine.energy)
    for (l_max, _), (level, e, _) in zip(tries, estimates):
        if l_max < tries[-1][0]:
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

    def recording(table, l_keep):
        chunks.append(np.size(table.kappa))
        return real(table, l_keep)

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
    real = energy_exact._mode_sums

    def recording(kappa, *args):
        out = real(kappa, *args)
        values.extend(zip(kappa.tolist(), out.T.tolist()))
        return out

    monkeypatch.setattr(energy_exact, "_mode_sums", recording)
    d = 0.05
    sphere, plane = SphereSheet(1.0, PERFECT_CONDUCTOR), PlaneSheet(PERFECT_CONDUCTOR, 1.0 + d)
    res = casimir_energy(sphere, plane, NumericsSpec(kappa_nodes=32, rel_tol=1e-3))
    # level 128 in one pass, then the theta probe
    assert res.kappa_nodes_used == 64 and len(values) == 128
    assert max(k for k, _ in values) > 1e5
    for i, (kappa, (f, top, m_err, _, t)) in enumerate(values):
        assert math.isfinite(f) and math.isfinite(top) and math.isfinite(t)
        assert f <= 0.0 and 0.0 <= top <= t and m_err >= 0.0
        # a node of the pass's odd k takes T alone, F = -T with the bound U
        # on the whole m sum, infinite where T >= 1
        assert math.isfinite(m_err) or (i < 127 and i % 2 == 0 and t >= 1.0)
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
    real = energy_exact._mode_sums

    def recording(kappa, sphere, plane, l_max, rule, *rest):
        panels.append(rule[0])
        return real(kappa, sphere, plane, l_max, rule, *rest)

    monkeypatch.setattr(energy_exact, "_mode_sums", recording)
    tight = casimir_energy(sphere, plane, NumericsSpec(rel_tol=1e-5))
    assert tight.error_estimate <= 1e-5 * abs(tight.energy)
    assert abs(tight.energy - loose.energy) <= tight.error_estimate + loose.error_estimate
    assert panels[0] == energy_exact._THETA_PANEL_FLOOR
    assert panels[-2] > panels[0]  # the last run's level pass; the probe doubles it


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


def test_bench_points_run_once_at_the_default_rel_tol(monkeypatch):
    # at the benchmark's points and rel_tol 1e-3 the starting rule passes
    # its probe: one run per point, at the auto l_max.  Its first pass takes
    # each node of kappa level 32 once, in one call, with blocks on the 15
    # nodes of level 16 alone, and the control variate stops there at no
    # fewer than 10 of the 12 points (11 today).  A miss takes F on the
    # other 16 nodes of level 32 in one more call.  Then one theta probe,
    # at the smallest F node
    bench = _bench_points()
    points = bench["exact-narrow"] + bench["exact-wide"]
    assert len(points) == 12
    calls, sizes, runs, blocked = [], [], [], set()
    real_sums, real_pass, real_block = (energy_exact._mode_sums, energy_exact._quadrature_pass,
                                        energy_exact.assemble_block)

    def counting_sums(kappa, *args):
        calls.extend(kappa.tolist())
        sizes.append(kappa.size)
        return real_sums(kappa, *args)

    def counting_pass(n_kappa, d, prev, mode_args, **kwargs):
        if prev is None:
            runs.append(mode_args[2])
        return real_pass(n_kappa, d, prev, mode_args, **kwargs)

    def recording(m, table):
        block = real_block(m, table)
        if len(sizes) == 1:  # the first pass
            blocked.update(np.atleast_1d(block.kappa).tolist())
        return block

    monkeypatch.setattr(energy_exact, "_mode_sums", counting_sums)
    monkeypatch.setattr(energy_exact, "_quadrature_pass", counting_pass)
    monkeypatch.setattr(energy_exact, "assemble_block", recording)
    stops = 0
    for p in points:
        for record in (calls, sizes, runs, blocked):
            record.clear()
        res = casimir_energy(*_sheets(p), NumericsSpec(rel_tol=1e-3))
        assert runs == [res.l_max_used] == [energy_exact._auto_l_max(p["d_over_R"])]
        level, f_nodes = calls[:31], calls[1:31:2]
        assert len(set(level)) == 31 and blocked and blocked <= set(f_nodes)
        if res.kappa_nodes_used == 16:
            stops += 1
            assert sizes == [31, 1]
        else:
            assert res.kappa_nodes_used == 32 and sizes == [31, 16, 1]
            assert calls[31:47] == level[::2]
            f_nodes = level
        assert calls[-1] == min(f_nodes)
    assert stops >= 10


@pytest.mark.parametrize("d, omega_s, omega_p", [
    (0.1, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR),
    (0.2916677455724206, 2.2969562477180534, 14.374812270822432)])
def test_kappa_estimate_covers_the_plain_sum_on_level_128(monkeypatch, d, omega_s, omega_p):
    # E, the control-variate sum, against the plain F sum on kappa level
    # 128 at the same l_max and rapidity rule: the miss lies within the
    # kappa estimate, at 0.065 and 0.080 of it
    passes = []
    real = energy_exact._quadrature_pass

    def recording(n_kappa, d, prev, mode_args, **kwargs):
        level = real(n_kappa, d, prev, mode_args, **kwargs)
        passes.append((level, d, mode_args))
        return level

    monkeypatch.setattr(energy_exact, "_quadrature_pass", recording)
    res = casimir_energy(SphereSheet(1.0, omega_s), PlaneSheet(omega_p, 1.0 + d))
    (first, gap, mode_args), *plain = passes
    _, energy, err_k = _run_estimate(first, [level for level, _, _ in plain], gap)
    assert energy == res.energy and res.kappa_nodes_used == 16
    reference = real(128, gap, None, mode_args)
    assert abs(res.energy - reference.energy) <= err_k


def test_a_control_variate_miss_is_the_plain_level_32_sum():
    # exact-wide[2] (d/R 0.2554, Omega R 1.75 and 3.98): F + T on level 8
    # is 2.9e-4 of |E| off level 16, past rel_tol/4, so the control
    # variate misses.  F is then evaluated on the other 16 nodes of level
    # 32, where T is known and cancels: E is the plain F sum on level 32,
    # bit for bit that of one pass over its 31 nodes
    p = _bench_points()["exact-wide"][2]
    sphere, plane = _sheets(p)
    res = casimir_energy(sphere, plane)
    assert res.kappa_nodes_used == 32
    d = plane.distance_L - 1.0
    args = (sphere, plane, res.l_max_used, energy_exact._theta_rule(res.l_max_used),
            0.25 * NumericsSpec().rel_tol)
    assert energy_exact._quadrature_pass(32, d, None, args).energy == res.energy


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
