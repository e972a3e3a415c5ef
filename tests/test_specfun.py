"""Scalar special functions against closed forms and scipy/mpmath oracles.

scipy and mpmath are test-only dependencies here; the library itself
never imports them.
"""

import itertools
import math
import random
import re
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from transmute.errors import (
    ConvergenceError, DomainError, PoleError, RangeError, TransmuteError,
)
from transmute.expr import evaluate, evaluate_jet, parse
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


def test_gamma_is_exact_at_integers():
    for n in range(1, 21):
        assert specfun.gamma(float(n)) == math.factorial(n - 1)
    assert specfun.bessel_j(0.0, 0.0) == specfun.bessel_i(0.0, 0.0) == 1.0
    # far left of the axis the value underflows to a signed zero
    assert specfun.gamma(-200.5) == 0.0
    for x in (math.inf, 172.0, 1e-320):
        with pytest.raises(RangeError):
            specfun.gamma(x)
    with pytest.raises(PoleError):
        specfun.gamma(-math.inf)
    with pytest.raises(DomainError):
        specfun.gamma(math.nan)


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


@pytest.mark.parametrize("call, error", [
    (lambda: specfun.digamma(-math.inf), PoleError),
    (lambda: specfun.trigamma(-math.inf), PoleError),
    (lambda: specfun.hyp1f2(1.0, -math.inf, 1.0, 0.5), PoleError),
    (lambda: specfun.digamma(math.nan), DomainError),
    (lambda: specfun.trigamma(math.nan), DomainError),
    (lambda: specfun.digamma(math.inf), RangeError),
    # values that are not finite, and divisions by an x*x that underflows to 0
    (lambda: specfun.digamma(1e-320), RangeError),
    (lambda: specfun.digamma(-1e-320), RangeError),
    (lambda: specfun.trigamma(1e-160), RangeError),
    (lambda: specfun.trigamma(-1e-160), RangeError),
    (lambda: specfun.trigamma(1e-320), RangeError),
    (lambda: specfun.trigamma(-1e-320), RangeError),
    (lambda: specfun.gamma_jets(1e-170), RangeError),
    (lambda: specfun.gamma_jets(1e-160), RangeError),
    (lambda: specfun.gamma_jets(171.5), RangeError),
    (lambda: evaluate_jet(parse("gamma(x)"), 1e-170, 0.5, {}), RangeError),
    (lambda: specfun.hyp1f2(0.5, 0.5, 1.5, math.nan), DomainError),
    (lambda: specfun.hyp1f2(math.nan, 0.5, 1.5, 0.5), DomainError),
], ids=["digamma-inf", "trigamma-inf", "hyp1f2-inf", "digamma-nan", "trigamma-nan",
        "digamma+inf", "digamma-tiny", "digamma-negative-tiny", "trigamma-1e-160",
        "trigamma-negative-1e-160", "trigamma-tiny", "trigamma-negative-tiny", "gamma_jets-1e-170",
        "gamma_jets-1e-160", "gamma_jets-171.5", "dsl-gamma-jet-1e-170", "hyp1f2-nan-z", "hyp1f2-nan-a"])
def test_infinite_and_nan_arguments_raise_library_errors(call, error):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert error is not DomainError or ": NaN argument" in str(info.value)  # names the NaN


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
    # Miller's recurrence keeps J accurate up to the z = 20 corner, where
    # the ascending series lost all but 8 digits (scipy's jv is itself
    # only good to about 1e-14 there, so mpmath is the oracle)
    for z in (14.0, 20.0):
        assert abs(specfun.bessel_j(nu, z) - float(mp.besselj(nu, z))) <= 1e-14


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
    with pytest.raises(RangeError):
        specfun.bessel_j(100.5, 1.0)
    with pytest.raises(RangeError):
        specfun.bessel_clifford_jets(101.0, 1.0)


@given(st.floats(0.0, 3.0), st.floats(0.05, 10.0))
def test_clifford_reproduces_j(nu, z):
    want = specfun.bessel_clifford(nu, -z * z / 4.0) * (z / 2.0) ** nu
    assert specfun.bessel_j(nu, z) == pytest.approx(want, rel=1e-12, abs=1e-14)


@given(st.floats(0.0, 3.0), st.floats(0.05, 10.0))
def test_clifford_reproduces_i(nu, z):
    want = specfun.bessel_clifford(nu, z * z / 4.0) * (z / 2.0) ** nu
    assert specfun.bessel_i(nu, z) == pytest.approx(want, rel=1e-12, abs=1e-14)


# --- Bessel accuracy against mpmath ----------------------------------------

NU_BOX = [-1.0, -0.7, -0.5, -0.2, 0.0, 0.3, 0.5, 1.0, 1.5, 2.0, 2.3, 3.7, 5.0, 5.5, 6.0]
Z_BOX = [1e-3, 0.05, 0.5, 1.0, 2.0, 3.0, 3.99, 4.0, 4.01, 5.0, 7.3, 10.0, 12.6, 15.0, 18.1,
         19.99, 20.0]


def mp_clifford(nu, w):
    """C_nu(w) = 0F1(; nu+1; w)/gamma(nu+1), and w C_1(w) at nu = -1."""
    if nu == -1.0:
        return w * mp_clifford(1.0, w)
    return mp.hyp0f1(nu + 1, w) * mp.rgamma(nu + 1)


def mp_bessel(kind, nu, z, k):
    # mpmath's besseli drops the derivative at negative integer order;
    # I_-n = I_n there
    if kind == "i" and nu < 0.0 and nu == round(nu):
        nu = -nu
    fn = mp.besselj if kind == "j" else mp.besseli
    return float(fn(nu, z, derivative=k))


def assert_close(got, want, tol=1e-14):
    assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)


@pytest.mark.parametrize("nu", NU_BOX)
def test_bessel_values_match_mpmath(nu):
    for z in Z_BOX:
        assert_close(specfun.bessel_j(nu, z), mp_bessel("j", nu, z, 0))
        assert_close(specfun.bessel_i(nu, z), mp_bessel("i", nu, z, 0))


@settings(max_examples=150, deadline=None)
@given(st.floats(-1.0, 6.0), st.floats(1e-3, 20.0))
def test_bessel_values_match_mpmath_anywhere_in_the_box(nu, z):
    assert_close(specfun.bessel_j(nu, z), mp_bessel("j", nu, z, 0))
    assert_close(specfun.bessel_i(nu, z), mp_bessel("i", nu, z, 0))


# nu < 1, integer nu <= 1 and negative non-integer nu took special
# branches when the jets were built from five separate series
@pytest.mark.parametrize("nu", [-1.0, -0.7, -0.5, 0.0, 0.25, 0.5, 0.999, 1.0, 2.3, 6.0])
@pytest.mark.parametrize("kind", ["j", "i"])
def test_bessel_jets_match_mpmath(kind, nu):
    jets = specfun.bessel_j_jets if kind == "j" else specfun.bessel_i_jets
    for z in Z_BOX:
        got = jets(nu, z)
        for k in range(3):
            assert_close(got[k], mp_bessel(kind, nu, z, k))


@pytest.mark.parametrize("nu", NU_BOX)
def test_bessel_clifford_matches_mpmath(nu):
    for w in np.linspace(-100.0, 100.0, 41).tolist() + [-4.0001, -4.0, 4.0, 4.0001, 0.0]:
        got = specfun.bessel_clifford_jets(nu, w)
        assert got[0] == specfun.bessel_clifford(nu, w)
        for k in range(3):
            # d/dw C_nu = C_nu+1
            assert_close(got[k], float(mp_clifford(nu + k, w)))


def clifford_series_oracle(nu, w):
    """sum_k w^k / (k! gamma(nu+k+1)) term by term, summed by math.fsum.

    This was the library's float path before Miller's recurrence: exact
    up to the rounding of each term, so good to about 1e-16 of the sum of
    |terms|, which is C_nu(|w|), and poor where the terms cancel.
    """
    if nu == -1.0:
        return w * clifford_series_oracle(1.0, w)
    term = 1.0 / math.gamma(nu + 1.0)
    terms = [term]
    for k in range(200):
        term *= w / ((k + 1.0) * (nu + k + 1.0))
        terms.append(term)
        if abs(term) <= 1e-18 * abs(math.fsum(terms)):
            break
    return math.fsum(terms)


@settings(max_examples=150, deadline=None)
@given(st.floats(-1.0, 6.0), st.floats(-100.0, 100.0))
def test_bessel_clifford_is_the_old_series(nu, w):
    scale = max(1.0, clifford_series_oracle(nu, abs(w)))
    assert abs(specfun.bessel_clifford(nu, w) - clifford_series_oracle(nu, w)) <= 1e-14 * scale


def _outcome(fn, *args):
    """The bits of what ``fn(*args)`` returns, or the type and message of what it raises."""
    try:
        return np.asarray(fn(*args), dtype=float).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


# each branch's edges (Miller below -4, 18 terms to 4, 36 to 100), the box's edges and beyond
_CLIFFORD_W = [-100.0, -57.3, -4.000000000000001, -4.0, -1.5, -0.0, 0.0, 2.25, 4.0,
               4.000000000000001, 63.1, 100.0, 100.00000000000001, -101.0, math.inf, -math.inf, math.nan]


@pytest.mark.parametrize("nu", [-1.0, -0.5, 0.0, 0.5, 3.0, 47.25, 100.0, -1.5, 100.5, math.nan])
def test_float_bessel_clifford_is_the_array_entry(nu):
    # a float w picks its branch and checks its box as an array entry does:
    # the same bits, or the same error
    for w in _CLIFFORD_W:
        for fn in (specfun.bessel_clifford, specfun.bessel_clifford_jets):
            assert _outcome(fn, nu, w) == _outcome(
                lambda n, v: np.ravel(fn(n, np.array([v]))), nu, w), (fn.__name__, nu, w)


@pytest.mark.parametrize(
    "fn", [specfun.bessel_j, specfun.bessel_i, specfun.bessel_j_jets, specfun.bessel_i_jets],
)
@pytest.mark.parametrize("nu, z", [(-0.5, 5e-324), (-0.99, 5e-324), (-0.99, 1e-320)])
def test_bessel_at_underflowing_z_raises_a_library_error(fn, nu, z):
    # z/2 underflows to 0, or (z/2)^nu overflows, under a negative order
    with pytest.raises(RangeError):
        fn(nu, z)
    with pytest.raises(RangeError, match=r"z=(5e-324|4\.94066e-324|9\.9998)"):
        fn(nu, np.array([1.0, z, 0.5]))


# z whose half is zero, subnormal, or the least normal floats, and beyond them
_EDGE = [0.0, 5e-324, 1e-320, 1e-310, 2 * sys.float_info.min, 4.5e-308, 1e-300, 1e-100, 0.5]


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(-0.9999, -1e-4), z=st.lists(
    st.sampled_from(_EDGE) | st.floats(0.0, 1e-305) | st.floats(0.0, 20.0), min_size=1, max_size=12))
def test_negative_order_bessel_at_the_underflow_edge_is_the_float_value(nu, z):
    # a float and each array entry share numpy's power, so the same bits, or the same
    # error type at the first entry whose (z/2)^nu is not finite, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (specfun.bessel_j, specfun.bessel_i):
            want = []
            for v in z:
                try:
                    want.append(fn(nu, v))
                except (DomainError, RangeError) as exc:
                    want.append(type(exc))
            assert all(type(w) is float or w is RangeError or (w is DomainError and v == 0.0)
                       for w, v in zip(want, z))
            failed = [w for w in want if type(w) is not float]
            if failed:
                with pytest.raises(failed[0]):
                    fn(nu, np.array(z))
            else:
                assert np.array_equal(fn(nu, np.array(z)), want)


@pytest.mark.parametrize("fn, nu", [(specfun.bessel_j_jets, 0.3), (specfun.bessel_i_jets, 2.0)])
def test_bessel_jets_at_subnormal_z_raise_a_library_error(fn, nu):
    # z/2 does not underflow, but nu/z overflows while (z/2)^nu underflows:
    # the jet would be inf and NaN
    with pytest.raises(RangeError, match=r"z=1e-310$"):
        fn(nu, 1e-310)
    with pytest.raises(RangeError, match=r"z=1e-310$"):
        fn(nu, np.array([1.0, 1e-310, 0.5]))


@pytest.mark.parametrize("nu", [-1.0, -0.5, 0.0, 0.3, 2.0])
def test_bessel_at_underflowing_z_never_escapes_as_an_arithmetic_error(nu):
    for fn in (specfun.bessel_j, specfun.bessel_i, specfun.bessel_j_jets,
               specfun.bessel_i_jets, specfun.bessel_clifford):
        try:
            out = fn(nu, 5e-324)
        except TransmuteError:
            continue
        assert np.all(np.isfinite(out)), (fn, nu, out)
    # C_nu is entire: a subnormal w is an ordinary argument
    assert specfun.bessel_clifford(nu, 5e-324) == pytest.approx(1.0 / math.gamma(nu + 1.0)
                                                               if nu > -1.0 else 0.0)


def test_bessel_at_underflowing_z_raises_through_the_dsl():
    with pytest.raises(TransmuteError):
        evaluate(parse("besselj(-0.5, x)"), {"x": 5e-324})


def test_clifford_at_zero_argument():
    # C_nu(0) = 1/gamma(nu+1); the smooth factor kernels divide by
    assert specfun.bessel_clifford(0.5, 0.0) == pytest.approx(
        1.0 / math.gamma(1.5), rel=1e-14
    )


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
    assert specfun.gegenbauer(1024, 1.0, 0.0) == 1.0  # C_2k^1(0) = (-1)^k
    with pytest.raises(RangeError, match="degree 1025.0 is above the supported 1024"):
        specfun.gegenbauer(1025.0, 1.0, 0.5)
    with pytest.raises(RangeError):
        specfun.gegenbauer(1e300, 1.0, np.array([0.5]))  # refused, not stepped 1e300 times


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


_HYP1F2_Z = np.concatenate([-np.geomspace(1000.0, 0.5, 36), [0.0], np.geomspace(0.5, 700.0, 16)])


@pytest.mark.parametrize("a,b1,b2", [(0.5, 0.5, 2.5), (1.0, 0.5, 2.0), (0.5, 1.5, 1.5), (2.5, 1.25, 0.75)])
def test_hyp1f2_is_within_its_bound_or_refuses(a, b1, b2):
    # for large negative z the alternating series cancels; a value that comes
    # back is within 1e-10 max(|value|, 1) of mpmath (40 digits), else the call
    # raises; for these parameters, where the value comes back its jet does
    # too, within the same bound
    mp.mp.dps = 40
    r1 = a / (b1 * b2)
    r2 = r1 * (a + 1.0) / ((b1 + 1.0) * (b2 + 1.0))
    refused = []
    for z in _HYP1F2_Z.tolist():
        try:
            got = specfun.hyp1f2(a, b1, b2, z)
        except ConvergenceError as exc:
            assert "cancels" in str(exc) and repr(z) in str(exc)
            refused.append(z)
            continue
        want = [
            mp.hyp1f2(a, b1, b2, z),
            r1 * mp.hyp1f2(a + 1, b1 + 1, b2 + 1, z),
            r2 * mp.hyp1f2(a + 2, b1 + 2, b2 + 2, z),
        ]
        jets = specfun.hyp1f2_jets(a, b1, b2, z)
        assert jets[0] == got
        for g, w in zip(jets, want):
            assert abs(mp.mpf(g) - w) <= 1e-10 * max(abs(w), 1), (z, jets)
    # the series alone was off by 2e11 relative at z = -1000; positive z never cancels
    assert refused and max(refused) < 0.0 and min(refused) == -1000.0


def test_hyp1f2_is_not_refused_at_a_zero():
    # 1F2(0.5; 0.5, 2.5; z) vanishes near z = -5.0477: the rounding error is
    # large against the value there, but not against 1
    mp.mp.dps = 40
    z = float(mp.findroot(lambda s: mp.hyp1f2(0.5, 0.5, 2.5, s), -5.05))
    v, d1, d2 = specfun.hyp1f2_jets(0.5, 0.5, 2.5, z)
    assert v == specfun.hyp1f2(0.5, 0.5, 2.5, z)
    assert abs(v) < 1e-14 and abs(mp.mpf(v) - mp.hyp1f2(0.5, 0.5, 2.5, z)) < 1e-14
    assert abs(mp.mpf(d1) - 0.4 * mp.hyp1f2(1.5, 1.5, 3.5, z)) < 1e-14


def test_hyp1f2_jet_is_refused_by_its_own_error():
    # 1F2(1.2; 3.25, 2.75; -137) alone is refused, but d/dz is 0.051 times it,
    # whose rounding error is within the bound, as the value's is
    mp.mp.dps = 40
    a, b1, b2, z = 0.2, 2.25, 1.75, -137.0
    with pytest.raises(ConvergenceError, match="cancels"):
        specfun.hyp1f2(a + 1.0, b1 + 1.0, b2 + 1.0, z)
    _, d1, _ = specfun.hyp1f2_jets(a, b1, b2, z)
    assert abs(mp.mpf(d1) - a / (b1 * b2) * mp.hyp1f2(a + 1, b1 + 1, b2 + 1, z)) <= 1e-10
    assert d1 == specfun.hyp1f2(a + 1.0, b1 + 1.0, b2 + 1.0, z, scale=a / (b1 * b2))


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


# --- arrays: every entry is the float value -----------------------------------

def hyp1f2_oracle(a, b1, b2, z):
    """1F2 of a float, term by term: the oracle for the array series."""
    term = 1.0
    total = mag = 1.0
    for k in range(500):
        term *= (a + k) / ((b1 + k) * (b2 + k)) * z / (k + 1.0)
        total += term
        mag += abs(term)
        if not math.isfinite(total):
            raise ConvergenceError(f"overflowed after {k + 1} terms")
        if abs(term) <= 1e-16 * abs(total):
            if 2.0**-52 * mag > 1e-10 * max(abs(total), 1.0):
                raise ConvergenceError("cancels")
            return total
    raise ConvergenceError("did not converge within 500 terms")


def gegenbauer_oracle(m, alpha, z):
    """The three-term recurrence on one float: the oracle for arrays."""
    if m == 0:
        return 1.0
    prev, cur = 1.0, 2.0 * alpha * z
    for k in range(2, m + 1):
        prev, cur = cur, (2.0 * z * (k + alpha - 1.0) * cur - (k + 2.0 * alpha - 2.0) * prev) / k
    return cur


def _array_of(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=1, max_size=40).map(np.array)


@settings(max_examples=60, deadline=None)
@given(nu=st.floats(-1.0, 6.0), z=_array_of(0.0, 20.0), w=_array_of(-100.0, 100.0))
def test_array_bessel_series_is_the_float_series(nu, z, w):
    # a float runs the series one term at a time: it is the oracle here
    z[z < 1e-300] = 0.0  # a subnormal z/2 underflows to 0, below
    if nu < 0.0 and nu != -1.0:
        z = np.maximum(z, 0.01)  # J and I of negative order are infinite at 0
    for fn in (specfun.bessel_j, specfun.bessel_i):
        assert np.array_equal(fn(nu, z), [fn(nu, v) for v in z.tolist()])
    got = specfun.bessel_clifford(nu, w)
    assert np.array_equal(got, [specfun.bessel_clifford(nu, v) for v in w.tolist()])
    z = z[z > 0.0]
    for fn in (specfun.bessel_j_jets, specfun.bessel_i_jets):
        want = {}
        for v in z.tolist():
            try:
                want[v] = fn(nu, v)
            except RangeError:  # near z = 0 the jet is not finite
                with pytest.raises(RangeError):
                    fn(nu, z)
        ok = np.array([v in want for v in z.tolist()], dtype=bool)
        got = fn(nu, z[ok])
        for k in range(3):
            assert np.array_equal(got[k], [want[v][k] for v in z[ok].tolist()])


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(0.1, 3.0), b1=st.floats(0.1, 3.0), b2=st.floats(0.1, 3.0),
    z=_array_of(-60.0, 60.0), m=st.integers(0, 9), alpha=st.floats(-2.0, 4.0),
    g=_array_of(-1.5, 1.5),
)
def test_array_hyp1f2_and_gegenbauer_are_the_float_oracles(a, b1, b2, z, m, alpha, g):
    want, refused = {}, None
    for v in z.tolist():
        try:
            want[v] = hyp1f2_oracle(a, b1, b2, v)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError):
                specfun.hyp1f2(a, b1, b2, v)
            refused = refused or (v, exc)
    if refused:  # the array names its first refused entry
        v, exc = refused
        with pytest.raises(ConvergenceError, match=rf"{re.escape(repr(v))}\) {exc}"):
            specfun.hyp1f2(a, b1, b2, z)
    # the entries that are not refused, converging at different terms, are the oracle's
    ok = np.array([v in want for v in z.tolist()], dtype=bool)
    assert np.array_equal(specfun.hyp1f2(a, b1, b2, z[ok]), [want[v] for v in z[ok].tolist()])
    for v in want:
        assert specfun.hyp1f2(a, b1, b2, v) == want[v]
    assert np.array_equal(specfun.gegenbauer(m, alpha, g),
                          [gegenbauer_oracle(m, alpha, v) for v in g.tolist()])
    assert specfun.gegenbauer(m, alpha, float(g[0])) == gegenbauer_oracle(m, alpha, float(g[0]))


def test_array_errors_name_the_first_failing_entry():
    with pytest.raises(RangeError, match=r"z=25\.0\) outside"):
        specfun.bessel_j(0.0, np.array([1.0, 25.0, 30.0]))
    with pytest.raises(DomainError, match=r"z=nan"):
        specfun.bessel_i(1.0, np.array([1.0, math.nan]))
    with pytest.raises(DomainError, match=r"z=0 with negative order"):
        specfun.bessel_j(-0.5, np.array([1.0, 0.0]))
    with pytest.raises(RangeError, match=r"w=-150\.0\)"):
        specfun.bessel_clifford(0.0, np.array([[1.0, -150.0], [200.0, 0.0]]))
    with pytest.raises(ConvergenceError, match=r"1000000000\.0\) overflowed"):
        specfun.hyp1f2(1.0, 0.5, 2.0, np.array([0.5, 1e9, 2e9]))
    with pytest.raises(DomainError, match=r"z=nan"):
        specfun.gegenbauer(2, 1.0, np.array([0.5, math.nan]))
    with pytest.raises(DomainError, match=r"jets need z > 0, got z=0\.0"):
        specfun.bessel_j_jets(1.0, np.array([1.0, 0.0]))


def test_array_results_keep_the_shape():
    z = np.array([[0.5, 1.0], [2.0, 0.0]])
    assert specfun.bessel_j(1.0, z).shape == (2, 2)
    assert specfun.bessel_j(1.0, z)[1, 1] == 0.0
    assert specfun.hyp1f2(1.0, 0.5, 2.0, z).shape == (2, 2)
    assert specfun.gegenbauer(0, 1.0, z).shape == (2, 2)
    assert type(specfun.hyp1f2(1.0, 0.5, 2.0, 0.25)) is float


@pytest.mark.parametrize("t", [0.3, 1.0, 1.7, 4.25])
def test_gamma_jet_matches_mpmath(t):
    # d/dt gamma(1+t) = gamma psi, d2/dt2 = gamma (psi^2 + psi'), all at 1+t
    jet = evaluate_jet(parse("gamma(1+t)"), 0.5, t, {})
    z = mp.mpf(1.0 + t)
    g, psi, psi1 = mp.gamma(z), mp.digamma(z), mp.polygamma(1, z)
    assert jet.value == pytest.approx(float(g), rel=1e-14)
    assert jet.dt == pytest.approx(float(g * psi), rel=1e-12, abs=1e-14)
    assert jet.dtt == pytest.approx(float(g * (psi * psi + psi1)), rel=1e-12)
    assert (jet.dx, jet.dxx) == (0.0, 0.0)


# --- the contract: finite numbers or a library error, on awkward arguments ---

# the last argument takes every edge value; each parameter takes one of the
# thinner _PARAMS, all combinations, except hyp1f2's three: seeded draws
_EDGES = (0.0, 1e-320, -1e-320, 1e-200, -1e-200, 1e200, -1e200, math.inf, -math.inf, math.nan,
          1.0, -1.0, 2.0, -2.0, 3.0, 0.5, -0.5, 1e3, -1e3)
_PARAMS = (0.0, 1e-320, 1e-200, -1e-200, 1e200, -1e200, math.inf, -math.inf, math.nan, -1.0, 0.5, 1.0, 2.0)
_CONTRACT = {
    "gamma": 0, "digamma": 0, "trigamma": 0, "gamma_jets": 0,
    "bessel_j": 1, "bessel_i": 1, "bessel_clifford": 1,
    "bessel_j_jets": 1, "bessel_i_jets": 1, "bessel_clifford_jets": 1,
    "gegenbauer": 2, "gegenbauer_jets": 2, "hyp1f2": 3, "hyp1f2_jets": 3,
}


def _parameter_tuples(n):
    tuples = list(itertools.product(_PARAMS, repeat=n))
    return random.Random(36).sample(tuples, 300) if n == 3 else tuples


@pytest.mark.parametrize("name", _CONTRACT)
def test_every_call_gives_finite_numbers_or_a_library_error(name):
    fn = getattr(specfun, name)
    escapes = []
    for params in _parameter_tuples(_CONTRACT[name]):
        calls = [(*params, z) for z in _EDGES]
        if name not in ("gamma", "digamma", "trigamma", "gamma_jets"):  # these take floats only
            calls.append((*params, np.array(_EDGES)))
        for args in calls:
            try:
                out = fn(*args)
            except TransmuteError:
                continue
            except Exception as exc:  # anything else escapes the contract
                escapes.append((args, repr(exc)))
                continue
            if not all(np.isfinite(v).all() for v in (out if name.endswith("_jets") else (out,))):
                escapes.append((args, out))
    assert not escapes, f"{len(escapes)} escapes, first {escapes[:3]}"


@pytest.mark.parametrize("call, error, needle", [
    (lambda: specfun.hyp1f2(1.0, 1e-200, 1e-200, 0.5), RangeError, "b1=1e-200, b2=1e-200"),
    (lambda: specfun.hyp1f2_jets(0.0, 1e-320, 1e-200, 0.0), RangeError, "b1=1e-320, b2=1e-200"),
    (lambda: specfun.hyp1f2_jets(1e200, 1e-200, 1e200, 0.0), RangeError, "z=0.0) with scales 1e+200 and inf"),
    (lambda: specfun.gegenbauer(1, 0.0, math.inf), DomainError, "z=inf"),
    (lambda: specfun.gegenbauer(3, 0.5, 1e200), RangeError, "z=1e+200"),
    (lambda: specfun.gegenbauer(1, math.inf, 0.5), DomainError, "alpha=inf"),
    (lambda: specfun.gegenbauer(math.inf, 1.0, 0.5), DomainError, "m=inf"),
    (lambda: specfun.gegenbauer_jets(math.nan, 1.0, 0.5), DomainError, "m=nan"),
    (lambda: specfun.gegenbauer_jets(3, 0.5, 1e200), RangeError, "z=1e+200"),
    (lambda: specfun.gegenbauer_jets(2, 1e200, 0.0), RangeError, "no finite derivative"),
    (lambda: specfun.gegenbauer(2, 1.0, np.array([0.5, 1e200, math.inf])), RangeError, "z=1e+200"),
], ids=["hyp1f2-b1b2-underflow", "hyp1f2_jets-b1b2-underflow", "hyp1f2_jets-scale-overflow",
        "gegenbauer-z-inf", "gegenbauer-overflow", "gegenbauer-alpha-inf", "gegenbauer-m-inf",
        "gegenbauer_jets-m-nan", "gegenbauer_jets-overflow", "gegenbauer_jets-d2-overflow",
        "gegenbauer-array-overflow"])
def test_escapes_end_in_an_error_that_names_the_argument(call, error, needle):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and needle in str(info.value)


def test_degree_0_is_1_at_any_argument_that_is_not_nan():
    # C_0 reads neither alpha nor z
    assert specfun.gegenbauer(0, math.inf, -math.inf) == 1.0
    assert specfun.gegenbauer_jets(0, 1.0, math.inf) == (1.0, 0.0, 0.0)
