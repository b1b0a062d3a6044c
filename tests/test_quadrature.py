import numpy as np
from scipy.special import zeta

from plasmacas._quadrature import _power_tail, tail_weights

from oracles import fitted_tail


def test_power_tail_against_hurwitz_zeta():
    powers = np.arange(2.0, 7.0)
    for s0 in range(2, 203):
        want = zeta(powers, float(s0))
        got = _power_tail(powers, float(s0))
        assert np.all(np.abs(got - want) <= 2e-15 * want), (s0, got / want - 1.0)


def test_tail_weights_match_the_solve_form():
    # the oracle's tail of the k-th unit vector is the k-th weight.  Both
    # are double solves of the fit matrix, whose condition number reaches
    # 2.3e10 at s_last = 200 (p0 = 2), so they agree to that times eps of
    # the largest weight, not better: measured, up to 9.1e-7 of it at
    # s_last = 200, 3.9e-13 at 4, and at most 0.31 of the bound
    eps = np.finfo(float).eps
    for p0 in (2, 4):
        for s_last in range(4, 201):
            got = tail_weights(s_last, p0, 5)
            want = np.array([fitted_tail(e, s_last, p0) for e in np.eye(5)])
            sig = np.arange(s_last - 3, s_last + 2, dtype=float)
            cond = np.linalg.cond((sig[-1] / sig[:, None]) ** np.arange(p0, p0 + 5.0))
            assert np.max(np.abs(got - want)) <= cond * eps * np.max(np.abs(want)), (p0, s_last)

