import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import ive, kve, spence

from plasmacas import energy_exact
from plasmacas.specfun import bessel_ik_log, dilog, legendre_pbar_log

from oracles import legendre_p


# ---------------------------------------------------------------- bessel

def test_bessel_half_order0_series_oracle():
    # e^{-1} I_{1/2}(1); frozen from a 60-term ascending series at 50 digits
    log_i, log_k = bessel_ik_log(0, 1.0)
    assert math.exp(log_i[0]) == pytest.approx(0.34495131388824462599, rel=1e-14)
    # K_{1/2}(z) = sqrt(pi/(2z)) e^{-z} exactly, so the scaled value is sqrt(pi/2)
    assert math.exp(log_k[0]) == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-14)


def test_bessel_half_small_argument_pair_product():
    # I_nu K_nu -> 1/(2 nu) as z -> 0
    log_i, log_k = bessel_ik_log(5, 0.01)
    assert math.exp(log_i[5]) * math.exp(log_k[5]) == pytest.approx(1.0 / 11.0, rel=1e-4)


def test_bessel_half_domain_errors():
    with pytest.raises(ValueError):
        bessel_ik_log(0, 0.0)
    with pytest.raises(ValueError):
        bessel_ik_log(0, -2.0)
    with pytest.raises(ValueError):
        bessel_ik_log(0, math.nan)
    with pytest.raises(ValueError):
        bessel_ik_log(-1, 1.0)


def test_bessel_against_scipy_scaled():
    # scipy's ive/kve use the same exponential scaling
    for l, z in [(0, 0.5), (3, 2.0), (10, 7.7), (25, 40.0), (60, 200.0)]:
        log_i, log_k = bessel_ik_log(l, z)
        assert math.exp(log_i[l]) == pytest.approx(ive(l + 0.5, z), rel=1e-12)
        assert math.exp(log_k[l]) == pytest.approx(kve(l + 0.5, z), rel=1e-12)


def test_bessel_finite_over_spec_domain():
    for l, z in [(500, 1e4), (500, 1.0), (200, 1e-3), (0, 1e4)]:
        log_i, log_k = bessel_ik_log(l, z)
        assert np.all(np.isfinite(log_i)) and np.all(np.isfinite(log_k))


def test_wronskian_invariant():
    # I K' - I' K = -1/z on the scaled values, via the log fields so the
    # check also covers ranges where the linear fields saturate
    rng = np.random.default_rng(7)
    for _ in range(1000):
        l = int(rng.integers(0, 201))
        z = float(10.0 ** rng.uniform(-3, 3))
        log_i, log_k = bessel_ik_log(l + 1, z)
        nu = l + 0.5
        lkm1 = log_k[l - 1] if l >= 1 else log_k[0]
        # both Wronskian terms are positive: i*|k'| + i'*k
        t1 = log_i[l] + np.logaddexp(lkm1, math.log(nu / z) + log_k[l])
        t2 = np.logaddexp(log_i[l + 1], math.log(nu / z) + log_i[l]) + log_k[l]
        total = np.logaddexp(t1, t2)
        assert abs(total - math.log(1.0 / z)) < 1e-10


def test_bessel_recurrence_invariant():
    # I_{nu-1} - I_{nu+1} = (2 nu / z) I_nu, on the scaled ladder
    rng = np.random.default_rng(8)
    for _ in range(300):
        l = int(rng.integers(1, 201))
        z = float(10.0 ** rng.uniform(-3, 3))
        log_i, _ = bessel_ik_log(l + 1, z)
        lhs = math.exp(log_i[l - 1] - log_i[l]) - math.exp(log_i[l + 1] - log_i[l])
        assert lhs == pytest.approx(2.0 * (l + 0.5) / z, rel=1e-10)


def _ln_k_scaled(l, z):
    # e^z K_{l+1/2}(z) = sqrt(pi/(2z)) sum_{k<=l} (l+k)!/(k!(l-k)!) (2z)^-k, a
    # finite sum of positive terms; mpmath's besselk takes seconds at l ~ 400, z = 1e3
    term = total = mp.mpf(1)
    for k in range(l):
        term *= mp.mpf((l + k + 1) * (l - k)) / ((k + 1) * 2 * z)
        total += term
    return 0.5 * mp.log(mp.pi / (2 * z)) + mp.log(total)


@pytest.mark.parametrize("l_max, z", [(1221, 4e-4), (1221, 2e-3), (1221, 1.0), (1221, 1e3),
                                      (1221, 1e6), (610, 0.02), (610, 3e4), (10, 1e6),
                                      (300, 50.0), (40, 4e-4), (1446, 1e-4), (1446, 1e6)])
def test_bessel_against_mpmath_at_domain_orders(l_max, z):
    # the T logs ask for order l_max + 1, and l_max reaches 1445 on the fourth
    # l pass at d/R = 0.01; kappa R spans 1e-4 .. 1e6 over the domain.  Both
    # ladders, their ends and a middle row
    log_i, log_k = bessel_ik_log(l_max, z)
    rows = sorted({0, 1, l_max // 3, l_max})
    with mp.workdps(40):
        zm = mp.mpf(z)
        want_i = [float(mp.log(mp.besseli(l + 0.5, zm)) - zm) for l in rows + [l_max + 1]]
        want_k = [float(_ln_k_scaled(l, zm)) for l in rows]
    for got, want in ((log_i[rows + [l_max + 1]], want_i), (log_k[rows], want_k)):
        want = np.array(want)
        assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want))), (got - want)


@pytest.mark.parametrize("d", [0.5, 0.1, 0.05])
def test_bessel_array_argument_equals_scalar_calls(d):
    # kappa R of the level-128 nodes at d/R = d, at the start degree of an auto run
    z, l_max = energy_exact._kappa_rule(128)[0] / (2.0 * d), energy_exact._auto_l_max(d)
    log_i, log_k = bessel_ik_log(l_max + 1, z)
    assert log_i.shape == (l_max + 3, z.size) and log_k.shape == (l_max + 2, z.size)
    for j, zj in enumerate(z.tolist()):
        one_i, one_k = bessel_ik_log(l_max + 1, zj)
        assert np.array_equal(log_i[:, j], one_i) and np.array_equal(log_k[:, j], one_k)


# ---------------------------------------------------------------- legendre

def test_legendre_trivial_cases():
    value, deriv = legendre_p(1, 0, 1.5)
    assert value == pytest.approx(1.5, abs=0) and deriv == pytest.approx(1.0, abs=0)
    value, _ = legendre_p(2, 1, 1.0)
    assert value == 0.0


def test_legendre_rodrigues_oracle():
    # frozen from the Rodrigues formula expanded symbolically
    value, deriv = legendre_p(7, 3, 2.0)
    assert value == pytest.approx(414721.162832537248614, rel=1e-12)
    assert deriv == pytest.approx(1711671.06475431999107, rel=1e-12)


def test_legendre_domain_errors():
    with pytest.raises(ValueError):
        legendre_p(2, 3, 1.5)
    with pytest.raises(ValueError):
        legendre_p(2, 1, 0.5)
    with pytest.raises(ValueError):
        legendre_p(2, -1, 1.5)


def test_legendre_derivative_vs_finite_differences():
    # the central-difference truncation error grows like (h l / (x-1))^2,
    # so high orders are only probed away from the endpoint
    rng = np.random.default_rng(9)
    cases = [(int(rng.integers(1, 7)), 10.0 ** rng.uniform(-3, 1)) for _ in range(100)]
    cases += [(int(rng.integers(7, 41)), 10.0 ** rng.uniform(-1, 1)) for _ in range(100)]
    for l, dx in cases:
        m = int(rng.integers(0, l + 1))
        x = 1.0 + float(dx)
        h = 1e-6 * x
        _, deriv = legendre_p(l, m, x)
        vp, _ = legendre_p(l, m, x + h)
        vm, _ = legendre_p(l, m, x - h)
        fd = (vp - vm) / (2.0 * h)
        assert deriv == pytest.approx(fd, rel=1e-6)


def test_legendre_pbar_log_matches_plain():
    rng = np.random.default_rng(10)
    for _ in range(50):
        m = int(rng.integers(0, 6))
        l_max = int(rng.integers(max(1, m), 20))
        x = float(rng.uniform(1.0001, 50.0))
        table = legendre_pbar_log(l_max, m, np.array([x]))
        for l in range(max(1, m), l_max + 1):
            value, _ = legendre_p(l, m, x)
            norm = math.exp(0.5 * (math.lgamma(l - m + 1) - math.lgamma(l + m + 1)))
            assert table[l - m, 0] == pytest.approx(math.log(value * norm), rel=1e-12)


def test_legendre_pbar_log_extreme_range_finite():
    table = legendre_pbar_log(400, 150, np.array([1.0 + 1e-6, 300.0]))
    assert np.all(np.isfinite(table[1:, :]))


def test_legendre_pbar_log_against_mpmath_recurrence():
    # 60-digit upward recurrence of the normalised ladder from the exact seed
    mp.mp.dps = 60
    xs = [1.0 + 1e-8, 1.01, 2.0, 50.0, 1e4]
    for l_max, m in ((130, 0), (130, 40), (300, 5), (600, 0)):
        got = legendre_pbar_log(l_max, m, np.array(xs))
        for j, xf in enumerate(xs):
            x = mp.mpf(xf)
            log_seed = (0.5 * mp.log(mp.factorial(2 * m)) - m * mp.log(2) - mp.log(mp.factorial(m))
                        + 0.5 * m * mp.log(x * x - 1))
            v_prev, v_cur = mp.mpf(0), mp.mpf(1)
            want = [log_seed]
            for l in range(m, l_max):
                v_prev, v_cur = v_cur, (((2 * l + 1) * x * v_cur - mp.sqrt(l * l - m * m) * v_prev)
                                        / mp.sqrt((l + 1) ** 2 - m * m))
                want.append(log_seed + mp.log(v_cur))
            want = np.array([float(w) for w in want])
            err = np.abs(got[:, j] - want)
            assert np.all(err <= 1e-12 * np.maximum(1.0, np.abs(want))), (l_max, m, xf, err.max())


# ---------------------------------------------------------------- dilog

def test_dilog_exact_points():
    assert dilog(0.0) == 0.0
    assert dilog(1.0) == pytest.approx(math.pi ** 2 / 6.0, abs=1e-15)
    assert dilog(-1.0) == pytest.approx(-math.pi ** 2 / 12.0, abs=1e-15)


def test_dilog_domain():
    with pytest.raises(ValueError):
        dilog(1.0000001)
    with pytest.raises(ValueError):
        dilog(-1.1)


def test_dilog_duplication_identity():
    # Li2(x) + Li2(-x) = Li2(x^2)/2
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 1.0, size=100)
    lhs = dilog(x) + dilog(-x)
    rhs = 0.5 * dilog(x ** 2)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def test_dilog_against_scipy_spence():
    x = np.linspace(-1.0, 1.0, 2001)
    assert np.max(np.abs(dilog(x) - spence(1.0 - x))) < 5e-15


def test_dilog_series_accuracy_absolute():
    # absolute 1e-14 against the defining series summed in extended precision
    mp.mp.dps = 40
    for x in (-0.999, -0.51, -0.5, 0.25, 0.49999, 0.5, 0.51, 0.77, 0.999, 0.9999):
        ref = float(mp.polylog(2, x))
        assert abs(dilog(x) - ref) < 1e-14


def test_dilog_relative_accuracy_near_zero():
    # spence(1 - x) rounds away the low bits of x (8e-8 relative at
    # x = 1e-10); the series in u = -log1p(-x) keeps them, 1e-14 relative
    # for both signs
    mag = np.geomspace(1e-12, 1e-1, 241)
    x = np.concatenate([mag, -mag])
    with mp.workdps(40):
        ref = np.array([float(mp.polylog(2, mp.mpf(float(v)))) for v in x])
    assert np.max(np.abs(dilog(x) - ref) / np.abs(ref)) <= 1e-14
    assert dilog(1e-10) == pytest.approx(1e-10 + 0.25e-20, rel=1e-15)


def test_dilog_relative_accuracy_against_mpmath():
    # the whole of [-1, 1], |x| from 1e-300 of both signs, and 1 - x from 1e-16
    mag = np.geomspace(1e-300, 1e-1, 300)
    x = np.concatenate([np.linspace(-1.0, 1.0, 801), mag, -mag,
                        1.0 - np.geomspace(1e-16, 1e-1, 151)])
    x = x[x != 0.0]
    with mp.workdps(40):
        ref = np.array([float(mp.polylog(2, mp.mpf(float(v)))) for v in x])
    assert np.max(np.abs(dilog(x) - ref) / np.abs(ref)) <= 1e-15
    assert dilog(1.0) == math.pi ** 2 / 6.0
