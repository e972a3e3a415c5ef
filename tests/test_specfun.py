"""Scalar special functions against closed forms and scipy/mpmath oracles.

scipy is a test-only dependency here; the library itself never imports it.
"""

import math

import pytest
import scipy.special as sp
from hypothesis import given, strategies as st

from transmute.errors import ConvergenceError, DomainError, PoleError, RangeError
import transmute.specfun as specfun


# --- gamma family ----------------------------------------------------------

def test_gamma_classics():
    assert specfun.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
    assert specfun.gamma(5.0) == pytest.approx(24.0, rel=1e-14)
    assert specfun.gamma(1.0) == pytest.approx(1.0, rel=1e-14)
    # reflection through the negative axis
    assert specfun.gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-13)


@given(st.floats(0.05, 30.0))
def test_gamma_matches_stdlib(x):
    assert specfun.gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)


@given(st.floats(0.1, 10.0))
def test_gamma_recurrence(x):
    assert specfun.gamma(x + 1.0) == pytest.approx(x * specfun.gamma(x), rel=1e-12)


@pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
def test_gamma_poles(x):
    with pytest.raises(PoleError):
        specfun.gamma(x)


_EULER_GAMMA = 0.5772156649015328606


def test_digamma_spot_values():
    assert specfun.digamma(1.0) == pytest.approx(-_EULER_GAMMA, rel=1e-13)
    assert specfun.digamma(0.5) == pytest.approx(
        -_EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-13
    )


def test_trigamma_spot_values():
    assert specfun.trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)
    assert specfun.trigamma(0.5) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-12)


@given(st.floats(0.1, 20.0))
def test_digamma_recurrence(x):
    assert specfun.digamma(x + 1.0) == pytest.approx(
        specfun.digamma(x) + 1.0 / x, rel=1e-11, abs=1e-12
    )


@given(st.floats(0.1, 20.0))
def test_trigamma_recurrence(x):
    assert specfun.trigamma(x + 1.0) == pytest.approx(
        specfun.trigamma(x) - 1.0 / (x * x), rel=1e-10, abs=1e-12
    )


def test_digamma_trigamma_poles():
    for x in (0.0, -2.0):
        with pytest.raises(PoleError):
            specfun.digamma(x)
        with pytest.raises(PoleError):
            specfun.trigamma(x)


@given(st.floats(0.1, 8.0), st.floats(0.1, 8.0))
def test_beta_from_gammas(a, b):
    want = math.gamma(a) * math.gamma(b) / math.gamma(a + b)
    assert specfun.beta(a, b) == pytest.approx(want, rel=1e-11)


# --- Bessel J / I and the Clifford core -------------------------------------

def test_bessel_j_frozen_value():
    assert specfun.bessel_j(2.0, 1.0) == pytest.approx(
        0.11490348493190048, rel=5e-15
    )


def test_bessel_half_integer_closed_form():
    for z in (0.3, 1.0, 2.0, 7.5):
        want = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
        assert specfun.bessel_j(0.5, z) == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 0.5, 1.0, 2.5, 4.0])
def test_bessel_j_against_scipy(nu):
    for z in [0.0, 0.1, 0.9, 2.7, 5.0, 8.3, 10.0]:
        if z == 0.0 and nu < 0.0:
            continue  # J_nu blows up at the origin for negative order
        assert specfun.bessel_j(nu, z) == pytest.approx(
            sp.jv(nu, z), rel=1e-10, abs=1e-12
        )


def test_bessel_negative_order_at_origin_rejected():
    with pytest.raises(DomainError):
        specfun.bessel_j(-0.5, 0.0)


@pytest.mark.parametrize("nu", [0.0, 1.0, 1.5])
def test_bessel_j_upper_box_is_honest(nu):
    # the ascending series loses digits near the z = 20 corner; the result
    # object owns up to that instead of promising machine precision
    for z in (14.0, 20.0):
        res = specfun.bessel_j_result(nu, z)
        assert abs(res.value - sp.jv(nu, z)) <= max(res.est_abs_error, 1e-8)


@pytest.mark.parametrize("nu", [-0.5, 0.0, 1.0, 2.5])
def test_bessel_i_against_scipy(nu):
    for z in [0.0, 0.4, 1.0, 3.0, 9.0]:
        if z == 0.0 and nu < 0.0:
            continue
        assert specfun.bessel_i(nu, z) == pytest.approx(
            sp.iv(nu, z), rel=1e-10, abs=1e-12
        )


def test_bessel_range_errors():
    with pytest.raises(RangeError):
        specfun.bessel_j(-1.5, 1.0)
    with pytest.raises(RangeError):
        specfun.bessel_j(1.0, -0.1)
    with pytest.raises(RangeError):
        specfun.bessel_j(1.0, 20.5)
    with pytest.raises(RangeError):
        specfun.bessel_clifford(0.0, 101.0)


@given(st.floats(0.0, 3.0), st.floats(0.05, 10.0))
def test_clifford_reproduces_j(nu, z):
    want = specfun.bessel_clifford(nu, -z * z / 4.0) * (z / 2.0) ** nu
    assert specfun.bessel_j(nu, z) == pytest.approx(want, rel=1e-12, abs=1e-14)


@given(st.floats(0.0, 3.0), st.floats(0.05, 10.0))
def test_clifford_reproduces_i(nu, z):
    want = specfun.bessel_clifford(nu, z * z / 4.0) * (z / 2.0) ** nu
    assert specfun.bessel_i(nu, z) == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_clifford_at_zero_argument():
    # C_nu(0) = 1/gamma(nu+1); the smooth factor kernels divide by
    assert specfun.bessel_clifford(0.5, 0.0) == pytest.approx(
        1.0 / math.gamma(1.5), rel=1e-14
    )


def test_error_estimates_are_bounds():
    for nu, z in [(0.0, 1.0), (1.5, 6.0), (0.5, 12.0), (2.0, 18.0)]:
        res = specfun.bessel_j_result(nu, z)
        assert res.est_abs_error >= 0.0
        assert abs(res.value - sp.jv(nu, z)) <= 10.0 * res.est_abs_error + 1e-15


# --- Gegenbauer -------------------------------------------------------------

@pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
def test_gegenbauer_against_scipy(n):
    for lam in (0.5, 1.0, 3.0):
        for x in (-0.9, -0.3, 0.0, 0.4, 0.95):
            assert specfun.gegenbauer(n, lam, x) == pytest.approx(
                sp.eval_gegenbauer(n, lam, x), rel=1e-12, abs=1e-12
            )


def test_gegenbauer_degree_validation():
    with pytest.raises(DomainError):
        specfun.gegenbauer(-1, 3.0, 0.5)
    with pytest.raises(DomainError):
        specfun.gegenbauer(2.5, 3.0, 0.5)


# --- 1F2 ---------------------------------------------------------------------

def test_hyp1f2_reduces_to_bessel_i():
    # 1F2(1; 1, 1; z) = sum z^k/(k!)^2 = I_0(2 sqrt z)
    assert specfun.hyp1f2(1.0, 1.0, 1.0, 1.0) == pytest.approx(
        2.2795853023360673, rel=5e-15
    )


def test_hyp1f2_frozen_value():
    assert specfun.hyp1f2(1.0, 0.5, 2.0, 0.25) == pytest.approx(
        1.2642411176571154, rel=5e-15
    )


def test_hyp1f2_cosh_identity():
    # 1F2(1/2; 1/2, 1/2; z^2/4)... simplest closed form: b1 = a drops out,
    # leaving 0F1(; b2; z) and 0F1(; 1/2; z^2/4) = cosh z
    z = 0.8
    assert specfun.hyp1f2(0.5, 0.5, 0.5, z * z / 4.0) == pytest.approx(
        math.cosh(z), rel=1e-13
    )


def test_hyp1f2_pole_parameter():
    with pytest.raises(PoleError):
        specfun.hyp1f2(1.0, 0.0, 2.0, 0.1)
    with pytest.raises(PoleError):
        specfun.hyp1f2(1.0, 0.5, -3.0, 0.1)


def test_hyp1f2_overflow_raises():
    with pytest.raises(ConvergenceError):
        specfun.hyp1f2(1.0, 0.5, 2.0, 1e9)


@pytest.mark.parametrize(
    "fn",
    [specfun.bessel_j, specfun.bessel_i, specfun.bessel_clifford],
)
def test_bessel_nan_raises_domain_error(fn):
    with pytest.raises(DomainError, match="NaN"):
        fn(0.0, math.nan)
    with pytest.raises(DomainError, match="NaN"):
        fn(math.nan, 1.0)
    # out of range but not NaN stays a RangeError
    with pytest.raises(RangeError):
        fn(0.0, math.inf)
