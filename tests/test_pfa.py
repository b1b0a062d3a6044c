import math

import numpy as np
import pytest
from scipy.integrate import quad, simpson

import plasmacas._quadrature as quadrature
from plasmacas.errors import NumericsError
from plasmacas.pfa import PfaParams, lifshitz_plane_plane, pfa_energy
from plasmacas.scattering import PERFECT_CONDUCTOR
from plasmacas.asymptotics import e0


def test_lifshitz_transparent():
    assert lifshitz_plane_plane(1.0, 0.0, 5.0) == 0.0
    assert lifshitz_plane_plane(1.0, 5.0, 0.0) == 0.0


def test_lifshitz_pc_closed_form():
    for d in (0.5, 1.0, 2.0):
        want = -math.pi ** 2 / (720.0 * d ** 3)
        got = lifshitz_plane_plane(d, PERFECT_CONDUCTOR, PERFECT_CONDUCTOR)
        assert got == pytest.approx(want, rel=1e-6)


def _nsum_oracle(d, om1, om2, n_grid=501, q_max=25.0, n_max=200):
    """Brute force on the n-sum form: rectangular grid in (kappa, k_perp)
    with a square-root substitution so the corner is resolved, Simpson rule."""
    a = np.linspace(0.0, math.sqrt(q_max), n_grid)
    A, B = np.meshgrid(a, a, indexing="ij")
    K, P = A * A, B * B
    q = np.sqrt(K ** 2 + P ** 2)
    with np.errstate(invalid="ignore", divide="ignore"):
        rte = (om1 / (om1 + q)) * (om2 / (om2 + q))
        rtm = (om1 * q / (om1 * q + K ** 2)) * (om2 * q / (om2 * q + K ** 2))
    rte[q == 0] = 0.0
    rtm[q == 0] = 0.0
    rtm[(K == 0) & (P > 0)] = 1.0
    acc = np.zeros_like(q)
    pte = np.ones_like(q)
    ptm = np.ones_like(q)
    for n in range(1, n_max + 1):
        pte = pte * rte
        ptm = ptm * rtm
        acc += (pte + ptm) / n * np.exp(-2.0 * d * n * q)
    f = P * acc * (2.0 * A) * (2.0 * B)
    return -simpson(simpson(f, x=a, axis=1), x=a) / (4.0 * math.pi ** 2)


def test_lifshitz_against_nsum_oracle():
    d = 1.0
    got = lifshitz_plane_plane(d, 1.0, 1.0)
    want = _nsum_oracle(d, 1.0, 1.0)
    assert got == pytest.approx(want, rel=1e-6)


def test_lifshitz_domain():
    with pytest.raises(ValueError):
        lifshitz_plane_plane(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        lifshitz_plane_plane(1.0, -2.0, 1.0)


def test_pfa_pc_closed_form():
    p = pfa_energy(PfaParams(PERFECT_CONDUCTOR, PERFECT_CONDUCTOR, 2.0, 0.25))
    want = -math.pi ** 3 * 2.0 / (720.0 * 0.25 ** 2)
    assert p == pytest.approx(want, rel=1e-8)


def test_pfa_transparent():
    assert pfa_energy(PfaParams(0.0, 1.0, 1.0, 0.1)) == 0.0
    assert pfa_energy(PfaParams(1.0, 0.0, 1.0, 0.1)) == 0.0


def test_pfa_equals_gap_integral_of_lifshitz():
    # the defining chain: E_PFA = 2 pi R int_d^inf E_parallel(u) du, with the
    # plate plasma parameters fixed in physical units Omega_i = varpi_i / d
    R, d = 1.5, 0.4
    w = 1.0
    om = w / d
    want, _ = quad(lambda u: lifshitz_plane_plane(u, om, om), d, np.inf,
                   epsabs=1e-13, epsrel=1e-10)
    want *= 2.0 * math.pi * R
    got = pfa_energy(PfaParams(w, w, R, d))
    assert got == pytest.approx(want, rel=1e-6)


def test_pfa_tau_substitution_independence():
    # recompute the (t, tau) integral with a Gauss-Jacobi rule for the
    # 1/sqrt(1-tau^2) endpoint instead of tau = sin(phi)
    from scipy.special import roots_jacobi, roots_genlaguerre
    from plasmacas.specfun import dilog

    w1 = w2 = 0.7

    xj, wj = roots_jacobi(80, -0.5, 0.0)
    u = (xj + 1.0) / 2.0          # u = tau^2
    tau = np.sqrt(u)
    wtau = wj / (2.0 * math.sqrt(2.0))

    y, wy = np.polynomial.legendre.leggauss(96)
    y = (y + 1.0) * 0.5 * 2.0
    wy = wy * 0.5 * 2.0
    t1 = y * y
    x, wx = roots_genlaguerre(48, 0.0)
    t2 = 4.0 + 0.5 * x

    def inner(t):
        tt = t[:, None]
        acc = np.zeros((t.size, tau.size))
        for tm in (False, True):
            arg = tt * (1.0 - tau[None, :] ** 2) if tm else tt
            p = (w1 / (w1 + arg)) * (w2 / (w2 + arg))
            acc += dilog(p * np.exp(-2.0 * tt))
        return tt[:, 0] * (acc @ wtau)

    head = np.sum(wy * 2.0 * y * inner(t1))
    tail = 0.5 * np.sum(wx * np.exp(x) * inner(t2))
    q_jacobi = head + tail
    alt = -1.0 / (4.0 * math.pi * 1.0) * q_jacobi  # R = 1, d = 1
    ref = pfa_energy(PfaParams(w1, w2, 1.0, 1.0))
    assert alt == pytest.approx(ref, rel=1e-9)


def test_pfa_monotone_and_pc_bound():
    R, d = 1.0, 0.2
    pc = pfa_energy(PfaParams(PERFECT_CONDUCTOR, PERFECT_CONDUCTOR, R, d))
    prev = 0.0
    for w in (0.1, 0.5, 2.0, 10.0, 200.0):
        val = pfa_energy(PfaParams(w, w, R, d))
        assert abs(val) > abs(prev)
        assert abs(val) < abs(pc)
        prev = val


def test_pfa_params_validation():
    with pytest.raises(ValueError):
        PfaParams(-1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        PfaParams(1.0, 1.0, 0.0, 1.0)


def test_e0_equals_pfa_on_random_pairs():
    # the closed-form Li2 integrand and the fitted s-series of E0 agree at
    # 1e-8 on the shared (t, tau) rule
    rng = np.random.default_rng(55)
    for _ in range(20):
        w1 = float(10.0 ** rng.uniform(-1, 1))
        w2 = float(10.0 ** rng.uniform(-1, 1))
        a = e0(1.0, 0.3, w1, w2)
        b = pfa_energy(PfaParams(w1, w2, 1.0, 0.3))
        assert a == pytest.approx(b, rel=1e-8)


@pytest.mark.parametrize("w", [1e-3, 1e-4, 1e-5])
def test_pfa_matches_e0_at_small_w(w, monkeypatch):
    # the reflection poles t = -w crowd the origin and the tau feature
    # 1 - tau^2 ~ w/t sharpens, so a rule not sized by the probe drifts.  E0
    # is taken on a finer rule (tau from 384 nodes, h = 0.2), so that a PFA
    # on an under-resolved shared rule cannot agree with an E0 on the same one
    got = pfa_energy(PfaParams(w, w, 1.0, 0.3))
    monkeypatch.setattr(quadrature, "_N_TAU", 384)
    monkeypatch.setattr(quadrature, "_LOG_TRAP_H", 0.2)
    want = e0(1.0, 0.3, w, w)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("what, call", [
    ("PFA", lambda: pfa_energy(PfaParams(1e-3, 1e-3, 1.0, 1.0))),
    ("plane-plane", lambda: lifshitz_plane_plane(1.0, 1e-3, 1e-3)),
])
def test_tau_cap_raises_not_returns(what, call, monkeypatch):
    # w = 1e-3 needs more than 48 tau nodes; a capped rule must raise
    monkeypatch.setattr(quadrature, "_N_TAU_MAX", 48)
    with pytest.raises(NumericsError, match=f"{what}: tau rule not settled") as info:
        call()
    assert math.isfinite(info.value.error_estimate) and info.value.error_estimate > 0.0


def test_plane_plane_below_the_small_w_limit_raises():
    # at w = 1e-8 the TM product rounds to 1 on the 192-node rule, so
    # Li_1 = inf; the 96-node value, a fifth of the true energy, must not be
    # taken as settled against it
    with pytest.raises(NumericsError, match="plane-plane"):
        lifshitz_plane_plane(1.0, 1e-8, 1e-8)
