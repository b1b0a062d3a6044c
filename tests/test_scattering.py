import math

import numpy as np
import pytest

from plasmacas import energy_exact
from plasmacas.errors import NumericsError
from plasmacas.scattering import (PERFECT_CONDUCTOR, PlaneSheet, Polarization,
                                  SphereSheet, check_sheets, plane_r, sphere_t,
                                  sphere_t_logs)

TE, TM = Polarization.TE, Polarization.TM


def test_check_sheets_lengths_finite_positive_and_transparency():
    assert check_sheets(1.0, PERFECT_CONDUCTOR, radius_R=1.0, gap_d=0.1) is False
    assert check_sheets(0.0, 2.0, gap_d=0.1) is True
    assert check_sheets(PERFECT_CONDUCTOR, 0.0) is True
    for bad in (0.0, -1.0, math.inf, math.nan):
        for lengths in (dict(radius_R=bad, gap_d=0.1), dict(radius_R=1.0, gap_d=bad)):
            with pytest.raises(ValueError, match="finite and positive"):
                check_sheets(1.0, 1.0, **lengths)
    for bad in (-1.0, math.nan, -math.inf):
        with pytest.raises(ValueError):
            check_sheets(bad, 1.0)
        with pytest.raises(ValueError):
            check_sheets(1.0, bad)


# ---------------------------------------------------------------- sphere

def test_sphere_transparent_gives_zero():
    s = SphereSheet(radius_R=1.0, omega_s=0.0)
    for pol in (TE, TM):
        for l in (1, 3, 9):
            assert sphere_t(pol, l, 0.7, s) == 0.0


def test_sphere_pc_te_l1():
    # I_{3/2}(1)/K_{3/2}(1); the closed forms collapse to exactly 1/pi
    s = SphereSheet(1.0, PERFECT_CONDUCTOR)
    assert sphere_t(TE, 1, 1.0, s) == pytest.approx(1.0 / math.pi, rel=1e-13)


def test_sphere_finite_te_l1():
    # 2 I_{3/2}(1)^2 / (1 + 2 I_{3/2}(1) K_{3/2}(1)); frozen at 50 digits
    s = SphereSheet(1.0, 1.0)
    assert sphere_t(TE, 1, 1.0, s) == pytest.approx(0.11179500159409265231, rel=1e-13)


def test_sphere_t_signs():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        l = int(rng.integers(1, 30))
        kappa = float(10.0 ** rng.uniform(-2, 2))
        omega = float(10.0 ** rng.uniform(-2, 3))
        s = SphereSheet(1.0, omega)
        te = sphere_t(TE, l, kappa, s)
        tm = sphere_t(TM, l, kappa, s)
        assert te > 0.0
        assert tm < 0.0


def test_sphere_te_below_one_for_finite_omega():
    # the (0, 1) range holds where kappa R is not large compared to l; the
    # element grows like e^{2 kappa R} far outside that regime, where only
    # the perfect-conductor bound T_TE < I/K survives
    rng = np.random.default_rng(22)
    for _ in range(300):
        l = int(rng.integers(1, 20))
        kappa = float(10.0 ** rng.uniform(-2, 0))
        omega = float(10.0 ** rng.uniform(-2, 2))
        s = SphereSheet(1.0, omega)
        assert 0.0 < sphere_t(TE, l, kappa, s) < 1.0
    for _ in range(300):
        l = int(rng.integers(1, 20))
        kappa = float(10.0 ** rng.uniform(-2, 1.5))
        omega = float(10.0 ** rng.uniform(-2, 2))
        te = sphere_t(TE, l, kappa, SphereSheet(1.0, omega))
        pc = sphere_t(TE, l, kappa, SphereSheet(1.0, PERFECT_CONDUCTOR))
        assert 0.0 < te < pc


def test_sphere_pc_consistency_with_large_omega():
    s_pc = SphereSheet(1.0, PERFECT_CONDUCTOR)
    s_big = SphereSheet(1.0, 1e9)
    for l in (1, 5, 17, 50):
        for kappa in (1e-2, 0.3, 2.0, 30.0, 1e2):
            for pol in (TE, TM):
                a = sphere_t(pol, l, kappa, s_pc)
                b = sphere_t(pol, l, kappa, s_big)
                assert b == pytest.approx(a, rel=1e-6)


def test_sphere_scale_invariance():
    # T depends on (l, kappa R, Omega_s R) only
    rng = np.random.default_rng(23)
    for _ in range(100):
        l = int(rng.integers(1, 12))
        kappa = float(10.0 ** rng.uniform(-1, 1))
        omega = float(10.0 ** rng.uniform(-1, 1))
        lam = float(10.0 ** rng.uniform(-1, 1))
        for pol in (TE, TM):
            a = sphere_t(pol, l, kappa, SphereSheet(1.0, omega))
            b = sphere_t(pol, l, lam * kappa, SphereSheet(1.0 / lam, lam * omega))
            assert b == pytest.approx(a, rel=1e-12)


def test_sphere_domain_errors():
    s = SphereSheet(1.0, 1.0)
    with pytest.raises(ValueError):
        sphere_t(TE, 0, 1.0, s)
    with pytest.raises(ValueError):
        sphere_t(TE, 1, 0.0, s)
    with pytest.raises(ValueError):
        SphereSheet(0.0, 1.0)
    with pytest.raises(ValueError):
        SphereSheet(1.0, -1.0)


def test_sphere_t_logs_match_scalar():
    s = SphereSheet(2.0, 0.7)
    log_te, log_tm = sphere_t_logs(6, 0.9, s)
    z = 0.9 * 2.0
    for l in (1, 3, 6):
        assert math.exp(log_te[l - 1] + 2 * z) == pytest.approx(sphere_t(TE, l, 0.9, s), rel=1e-12)
        assert -math.exp(log_tm[l - 1] + 2 * z) == pytest.approx(sphere_t(TM, l, 0.9, s), rel=1e-12)


@pytest.mark.parametrize("omega", [PERFECT_CONDUCTOR, 2.3, 0.0])
@pytest.mark.parametrize("d", [0.5, 0.1, 0.05])
def test_sphere_t_logs_array_kappa_equals_scalar_calls(d, omega):
    # the level-128 kappa nodes at d/R = d, at the start degree of an auto run
    kappa, l_max = energy_exact._kappa_rule(128)[0] / (2.0 * d), energy_exact._auto_l_max(d)
    s = SphereSheet(1.0, omega)
    log_te, log_tm = sphere_t_logs(l_max, kappa, s)
    assert log_te.shape == log_tm.shape == (l_max, kappa.size)
    for j, k in enumerate(kappa.tolist()):
        one_te, one_tm = sphere_t_logs(l_max, k, s)
        assert np.array_equal(log_te[:, j], one_te) and np.array_equal(log_tm[:, j], one_tm)


def test_continued_fraction_failure_is_a_numerics_error():
    # at kappa R = 1e9 the Lentz iteration for the top ratio I_{nu+1}/I_nu
    # (nu = l_max + 5/2) does not settle within its step limit; the domain
    # stops near kappa R = 1e6
    s = SphereSheet(1.0, 1.0)
    with pytest.raises(NumericsError, match=r"continued fraction failed for nu=5\.5, z=1000000000\.0"):
        sphere_t_logs(3, 1e9, s)
    with pytest.raises(NumericsError, match="continued fraction failed"):
        sphere_t(TE, 1, 1e9, s)


# ---------------------------------------------------------------- plane

def test_plane_transparent():
    p = PlaneSheet(0.0, 1.0)
    assert plane_r(TE, 1.0, 2.0, p) == 0.0
    assert plane_r(TM, 1.0, 2.0, p) == 0.0


def test_plane_pc_limits():
    p = PlaneSheet(PERFECT_CONDUCTOR, 1.0)
    assert plane_r(TE, 1.0, 2.0, p) == 1.0
    assert plane_r(TM, 1.0, 2.0, p) == -1.0


def test_plane_hand_values():
    # Omega_p = 1, kappa = 3, k_perp = 4 -> q = 5
    p = PlaneSheet(1.0, 1.0)
    assert plane_r(TE, 3.0, 4.0, p) == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert plane_r(TM, 3.0, 4.0, p) == pytest.approx(-5.0 / 14.0, rel=1e-15)


def test_plane_kappa_zero_tm_limit():
    p = PlaneSheet(2.0, 1.0)
    assert plane_r(TM, 0.0, 1.5, p) == pytest.approx(-1.0, abs=0)
    with pytest.raises(ValueError):
        plane_r(TE, 0.0, 0.0, p)


def test_plane_ranges_and_signs():
    rng = np.random.default_rng(24)
    for _ in range(1000):
        omega = float(10.0 ** rng.uniform(-3, 3))
        kappa = float(10.0 ** rng.uniform(-3, 3))
        kp = float(10.0 ** rng.uniform(-3, 3))
        p = PlaneSheet(omega, 1.0)
        te = plane_r(TE, kappa, kp, p)
        tm = plane_r(TM, kappa, kp, p)
        assert 0.0 <= te < 1.0
        assert -1.0 < tm <= 0.0


def test_plane_monotone_in_omega():
    rng = np.random.default_rng(25)
    for _ in range(200):
        kappa = float(10.0 ** rng.uniform(-2, 2))
        kp = float(10.0 ** rng.uniform(-2, 2))
        omegas = np.sort(10.0 ** rng.uniform(-3, 3, size=5))
        for pol in (TE, TM):
            vals = [abs(plane_r(pol, kappa, kp, PlaneSheet(float(o), 1.0))) for o in omegas]
            assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))


def test_plane_vectorized():
    p = PlaneSheet(1.0, 1.0)
    kp = np.array([4.0, 0.1, 7.0])
    out = plane_r(TE, 3.0, kp, p)
    assert out.shape == (3,)
    assert out[0] == pytest.approx(1.0 / 6.0, rel=1e-15)
