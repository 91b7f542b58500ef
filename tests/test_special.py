"""Power-kernel helper against high-precision reference values."""

import numpy as np
import pytest
from scipy.special import rgamma

from fracstep.special import omega, omega_diff

# mpmath, 40 digits: t**(beta-1)/gamma(beta)
FROZEN = [
    (1.5, 0.75, 0.9772050238058398431727692456766940091518),
    (0.5, 2.0, 0.3989422804014326779399460599343818684759),
    (-0.3, 1.7, -0.1159429780536234427357575387728443941178),
    (2.7, 0.01, 2.577269492194228754014999438473296661563e-4),
    (1.4, 1.0, 1.1270604979860276596889109199491487449510),
]


@pytest.mark.parametrize("beta,t,want", FROZEN)
def test_omega_frozen_values(beta, t, want):
    got = omega(beta, t)
    assert got == pytest.approx(want, rel=1e-14)


def test_omega_at_gamma_poles():
    # 1/Gamma vanishes at 0, -1, -2, so the kernel is zero there
    for beta in (0.0, -1.0, -2.0):
        assert omega(beta, 1.3) == 0.0


def test_omega_matches_scipy_rgamma():
    # 1/Gamma from math.gamma against scipy's rgamma over [-5, 180]: both are 0
    # at the poles and past 171.6, where Gamma overflows.  Elsewhere each lies
    # within 4 eps of 1/Gamma (checked against mpmath at 200 bits), so the two
    # agree to 8 eps relative; about one point in ten differs by 3 to 9 ulp.
    betas = np.concatenate([np.linspace(-5.0, 180.0, 18501), np.arange(-5.0, 1.0)])
    got = np.array([omega(beta, 1.0) for beta in betas])
    want = rgamma(betas)
    assert np.array_equal(got == 0.0, want == 0.0)
    zero = betas[want == 0.0]                   # the poles and the overflow range are covered
    assert set(zero[zero < 171.0]) == {-5.0, -4.0, -3.0, -2.0, -1.0, 0.0} and zero.max() == 180.0
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * np.abs(want))


def test_omega_vectorized():
    t = np.array([0.5, 1.0, 2.0])
    out = omega(1.5, t)
    assert out.shape == t.shape
    assert out[1] == pytest.approx(omega(1.5, 1.0), rel=1e-15)


def test_omega_diff_matches_plain_difference():
    for beta in (1.5, 0.7, 2.3, -0.4):
        lo, gap = 0.8, 0.5
        want = omega(beta, lo + gap) - omega(beta, lo)
        assert omega_diff(beta, lo, gap) == pytest.approx(want, rel=1e-13)


def test_omega_diff_small_gap_accuracy():
    # naive subtraction loses ~7 digits here; the expm1 route keeps full precision
    beta, lo, gap = 1.5, 1.0, 1e-9
    # mpmath, 40 digits: omega(1.5, 1+1e-9) - omega(1.5, 1)
    want = 5.641895834067088911316640777231358506194e-10
    assert omega_diff(beta, lo, gap) == pytest.approx(want, rel=1e-12)


def test_omega_diff_sign():
    # beta > 1: omega increasing in t; beta < 1: decreasing
    assert omega_diff(1.5, 1.0, 0.3) > 0
    assert omega_diff(0.5, 1.0, 0.3) < 0
