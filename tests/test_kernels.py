import dataclasses
import math
import re

import numpy as np
import pytest

from transmute.conditions import sample_points, triangle_grid, verify_all
from transmute.errors import AdmissibilityError, UsageError
from transmute.expr import Num, evaluate, parse
from transmute.operators import DifferentialOperator
from transmute.kernels import (
    COEFFICIENT_NAMES,
    TransmutationCase,
    corrupt_case,
    describe,
    get_case,
    list_cases,
)
from transmute.quadrature import jacobi_rule

ALL_NAMES = (
    "gegenbauer",
    "poisson_bessel",
    "sonin",
    "sine_to_bessel",
    "sinh_cosh",
    "lowndes",
    "epd_bessel",
    "vekua_telegraph",
    "cosh_1f2",
)


def test_catalog_is_complete_and_ordered():
    assert tuple(list_cases()) == ALL_NAMES


def test_unknown_case():
    with pytest.raises(UsageError, match="unknown case 'nope'"):
        get_case("nope")


def test_unknown_parameter():
    with pytest.raises(UsageError, match="unknown parameter"):
        get_case("poisson_bessel", {"sigma": 2.0})


def test_parameter_override_lands_in_case():
    case = get_case("poisson_bessel", {"nu": 2.5})
    assert case.params["nu"] == 2.5
    assert case.p_diag == 2.0  # nu - 1/2


@pytest.mark.parametrize(
    "name,params,needle",
    [
        ("gegenbauer", {"beta": -1.0}, "Re beta > 0 violated"),
        ("sonin", {"mu": -2.0}, "Re mu > -1 violated"),
        ("poisson_bessel", {"nu": -0.75}, "Re nu > -1/2 violated"),
        ("gegenbauer", {"p": 4.0}, "odd positive integer"),
        ("cosh_1f2", {"alpha": 2.0}, "alpha = 1 violated"),
    ],
)
def test_admissibility_messages(name, params, needle):
    with pytest.raises(AdmissibilityError) as err:
        get_case(name, params)
    assert needle in str(err.value)


# each parameter that a builder squares for the shifted eigenvalues
SQUARED = [
    ("sine_to_bessel", "omega"),
    ("sinh_cosh", "beta"),
    ("lowndes", "omega"),
    ("lowndes", "beta"),
    ("epd_bessel", "omega"),
    ("epd_bessel", "mu"),
    ("vekua_telegraph", "omega"),
    ("vekua_telegraph", "mu"),
    ("cosh_1f2", "mu"),
]


@pytest.mark.parametrize("value", [1e155, 1e300])
@pytest.mark.parametrize("name,key", SQUARED)
def test_a_squared_parameter_beyond_the_float_range_is_refused(name, key, value):
    with pytest.raises(AdmissibilityError, match=f"float range violated .*{key}="):
        get_case(name, {key: value})


def test_a_coefficient_that_sums_to_inf_is_refused():
    # each square is finite, so the shifted eigenvalue -(omega^2 + mu^2) is -inf;
    # c1 = omega^2 + mu^2 is evaluated first and refused
    with pytest.raises(UsageError, match="coefficient c1 does not evaluate"):
        get_case("vekua_telegraph", {"mu": 1e154, "omega": 1e154})


def test_a_case_left_to_its_defaults():
    kernel_smooth, f0_smooth = parse("1"), parse("cos(t)")
    case = TransmutationCase(
        name="bare", params={}, kernel_smooth=kernel_smooth, f0_smooth=f0_smooth, f1=parse("sin(x)"),
        opA=DifferentialOperator("t", c=Num(1.0)), opB=DifferentialOperator("x", c=Num(1.0)),
    )
    # every exponent 0: K and f0 are the smooth factors themselves
    assert case.kernel is kernel_smooth and case.f0 is f0_smooth
    assert (case.lam, case.eigen_shift, case.p_diag, case.p_zero) == (0.0, None, 0.0, 0.0)
    assert (case.x_range, case.refs, case.notes, case.h0) == ((0.2, 3.0), (), "", 0.0)
    assert (case.opA.a, case.opA.b) == (Num(1.0), Num(0.0))
    with pytest.raises(TypeError):
        TransmutationCase("bare", {}, kernel_smooth, f0_smooth, f0_smooth, case.opA, case.opB)
    # K and f0 are built, never stated
    with pytest.raises(TypeError):
        TransmutationCase(
            name="bare", params={}, kernel=kernel_smooth, f0=f0_smooth, f1=case.f1, opA=case.opA, opB=case.opB
        )
    assert len([f for f in dataclasses.fields(TransmutationCase) if f.init]) == 16


def test_a_case_builds_k_and_f0_from_their_factors():
    case = TransmutationCase(
        name="built", params={"nu": 1.5}, kernel_smooth=parse("(x+t)^nu"), f0_smooth=parse("cos(t)"),
        f1=parse("x"), opA=DifferentialOperator("t"), opB=DifferentialOperator("x"),
        p_diag=0.5, kernel_t_exponent=2.0, f0_t_exponent=1.0,
    )
    assert case.kernel == parse("(x-t)^0.5*(t^2*(x+t)^nu)")
    assert case.f0 == parse("t^1*cos(t)")
    assert dataclasses.replace(case, p_diag=0.0).kernel == parse("t^2*(x+t)^nu")


def test_gegenbauer_gamma_pole_guard():
    # lambda - beta at a non-positive integer hits a gamma pole in the
    # f1 prefactor before any evaluation could
    with pytest.raises(AdmissibilityError):
        get_case("gegenbauer", {"lambda": 2.0, "beta": 2.0})


# the closed forms the catalog tags print, at each case's default parameters
PRINTED_KERNELS = {
    "gegenbauer": "(x^2-t^2)^(beta-1)",
    "poisson_bessel": "2^(1-nu)/(gamma(0.5)*gamma(nu+0.5))*((x^2-t^2)^(nu-0.5)/x^(nu-0.5))",
    "sonin": "1/(2^nu*gamma(nu+1))*((x^2-t^2)^nu/x^nu)",
    "sine_to_bessel": "t*(x^2-t^2)^(beta-1)",
    "sinh_cosh": "sinh(mu*sqrt(x^2-t^2))",
    "lowndes": "(x^2-t^2)^(mu/2)*besselj(mu, beta*sqrt(x^2-t^2))",
    "epd_bessel": "(x^2-t^2)^(nu/2)*besselj(nu, mu*sqrt(x^2-t^2))",
    "vekua_telegraph": "besselj(0, mu*sqrt(x^2-t^2))",
    "cosh_1f2": "(x^2-t^2)^(beta-1)",
}
# the printed f0 of each case whose f0 carries a power of t
PRINTED_F0 = {
    "sonin": "t^(mu+1)*besselj(mu, t)",
    "sine_to_bessel": "sin(omega*t)",
    "gegenbauer": "t^(2*(lambda-beta)+p-1)*gegenbauer(p, lambda, t)",
    "lowndes": "t^(nu+1)*besselj(nu, omega*t)",
}


def _max_gap(case, built, printed):
    """max of |built - printed| / (1 + |printed|) over the 40 x 40 triangle."""
    x, t = np.array(triangle_grid(40, 40)).T
    bindings = {**case.params, "x": x, "t": t}
    want = evaluate(parse(printed), bindings)
    return np.max(np.abs(evaluate(built, bindings) - want) / (1.0 + np.abs(want)))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_built_kernel_matches_the_printed_closed_form(name):
    case = get_case(name)
    assert _max_gap(case, case.kernel, PRINTED_KERNELS[name]) <= 2e-15


@pytest.mark.parametrize("name", sorted(PRINTED_F0))
def test_built_f0_matches_the_printed_closed_form(name):
    case = get_case(name)
    assert case.f0_t_exponent != 0.0
    assert _max_gap(case, case.f0, PRINTED_F0[name]) <= 2e-15


def test_built_kernel_is_accurate_at_the_nodes_nearest_the_diagonal():
    # K = (x-t)^p W takes x - t exactly there; the printed closed form
    # forms x^2 - t^2 by cancellation and is off by about 6e-14
    mpmath = pytest.importorskip("mpmath")
    case = get_case("poisson_bessel", {"nu": 1.0})
    rule = jacobi_rule(64, case.p_diag, case.p_zero)
    s = np.array(rule.nodes[-3:])
    worst = 0.0
    with mpmath.workdps(40):
        for x in sample_points(case):
            ts = x * (1.0 + s) / 2.0
            got = evaluate(case.kernel, {**case.params, "x": x, "t": ts})
            for t, k in zip(ts.tolist(), got.tolist()):
                X, T = mpmath.mpf(x), mpmath.mpf(t)
                want = mpmath.sqrt(X * X - T * T) / (mpmath.sqrt(mpmath.pi) * mpmath.gamma(1.5) * mpmath.sqrt(X))
                worst = max(worst, float(abs(k - want) / want))
    assert worst <= 1e-15


@pytest.mark.parametrize("name", ALL_NAMES)
def test_case_metadata(name):
    case = get_case(name)
    assert case.refs, "every case carries at least one catalog tag"
    assert case.x_range[0] > 0.0
    assert case.x_range[1] > case.x_range[0]
    assert case.opA.var == "t" and case.opA.form == "divergence"
    assert case.opB.var == "x" and case.opB.form == "nondivergence"
    if name == "gegenbauer":
        assert case.eigen_shift is None
        assert case.x_range[1] < 1.0  # operator degenerates at x = 1
    else:
        assert case.eigen_shift is not None


def _fit_slope(pairs):
    (d1, v1), (d2, v2) = pairs[0], pairs[-1]
    return (math.log(abs(v1)) - math.log(abs(v2))) / (math.log(d1) - math.log(d2))


@pytest.mark.parametrize("name", ALL_NAMES)
def test_diagonal_exponent_matches_kernel(name):
    # K(x, x-delta) ~ delta^p_diag; fit the power from three decades
    case = get_case(name)
    x = 0.8 if name == "gegenbauer" else 1.3
    pairs = []
    for delta in (1e-2, 1e-3, 1e-4):
        val = evaluate(case.kernel, {**case.params, "x": x, "t": x - delta})
        pairs.append((delta, val))
    assert _fit_slope(pairs) == pytest.approx(case.p_diag, abs=0.05)


@pytest.mark.parametrize("name", ALL_NAMES)
def test_vertex_exponent_matches_product(name):
    # K(x,t) f0(t) ~ t^p_zero as t -> 0 at fixed x
    case = get_case(name)
    x = 0.8 if name == "gegenbauer" else 1.3
    pairs = []
    for t in (1e-2, 1e-3, 1e-4):
        k = evaluate(case.kernel, {**case.params, "x": x, "t": t})
        f = evaluate(case.f0, {**case.params, "t": t})
        pairs.append((t, k * f))
    assert _fit_slope(pairs) == pytest.approx(case.p_zero, abs=0.05)


def test_poisson_f1_closed_form():
    case = get_case("poisson_bessel", {"nu": 0.5})
    x = 2.0
    want = math.sqrt(2.0 / math.pi) * math.sin(x)
    assert evaluate(case.f1, {**case.params, "x": x}) == pytest.approx(want, rel=1e-13)


def test_vekua_f1_closed_form():
    case = get_case("vekua_telegraph")
    got = evaluate(case.f1, {**case.params, "x": 1.0})
    assert got == pytest.approx(math.sin(math.sqrt(2.0)) / math.sqrt(2.0), rel=1e-14)


def test_cosh_case_f1_spot_value():
    # frozen mpmath value at the defaults (beta = 2, mu = 1); happens to be 2/e
    case = get_case("cosh_1f2")
    got = evaluate(case.f1, {**case.params, "x": 1.0})
    assert got == pytest.approx(0.73575888234288464, rel=5e-14)


def test_cosh_case_collapses_at_beta_one():
    # the hypergeometric factor degenerates to sinh(mu x)/(mu x)
    case = get_case("cosh_1f2", {"beta": 1.0})
    got = evaluate(case.f1, {**case.params, "x": 1.0})
    assert got == pytest.approx(math.sinh(1.0), rel=1e-12)


def test_describe_is_deterministic_and_tagged():
    case = get_case("vekua_telegraph")
    text = describe(case)
    assert text == describe(case)
    assert "5.4.11" in text
    assert "K(x,t)" in text and "lambda" in text
    for name in ALL_NAMES:
        assert describe(get_case(name))
    # no catalog case sets h0; the line shows only when it is not 0
    assert "h0 =" not in text
    assert "\n  h0 = 0.5\n" in describe(dataclasses.replace(case, h0=0.5))


def test_corrupt_case_targets_one_coefficient():
    case = get_case("vekua_telegraph")
    bent = corrupt_case(case, "c1", 0.1)
    base = evaluate(case.opB.c, {**case.params, "x": 1.0})
    assert evaluate(bent.opB.c, {**case.params, "x": 1.0}) == pytest.approx(base + 0.1)
    # untouched pieces are shared; K is built again from the same factors
    assert bent.kernel_smooth is case.kernel_smooth and bent.f0_smooth is case.f0_smooth
    assert bent.kernel == case.kernel and bent.f0 == case.f0
    assert bent.opA is case.opA


def test_corrupt_case_side_resolution():
    case = get_case("sonin")
    bent = corrupt_case(case, "b0", -0.05)
    t = 0.7
    base = evaluate(case.opA.b, {**case.params, "t": t})
    assert evaluate(bent.opA.b, {**case.params, "t": t}) == pytest.approx(base - 0.05)
    assert bent.opB is case.opB


def test_corrupt_case_rejects_unknown_coefficient():
    case = get_case("sonin")
    with pytest.raises(UsageError, match="coefficient"):
        corrupt_case(case, "d2", 0.1)
    assert set(COEFFICIENT_NAMES) == {"a0", "b0", "c0", "a1", "b1", "c1"}


# a value that is no finite real number: each built a case, or ended in a
# TypeError, ValueError or OverflowError, or cast a complex number to its real part
NOT_NUMBERS = {"text": "abc", "None": None, "inf": math.inf, "nan": math.nan, "int_1e400": 10**400,
               "complex128": np.complex128(1.0), "complex": 1j, "array": np.array([1.0, 2.0])}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_a_parameter_that_is_no_finite_number_is_refused(value):
    with pytest.raises(UsageError, match="^parameter 'mu' must be a finite number, got "):
        get_case("sonin", {"mu": value})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_a_corrupting_delta_that_is_no_finite_number_is_refused(value):
    with pytest.raises(UsageError, match="^delta must be a finite number, got "):
        corrupt_case(get_case("sonin"), "c1", value)


# a case's own numbers, set by ``replace``: lam ended in a numpy UFuncTypeError, x_range and
# h0 in a TypeError when verified, p_diag in a TypeError from the case's own admissibility test
OWN_FIELDS = [
    ("lam", "abc", "^lam must be a finite number, got 'abc'$"),
    ("x_range", ("a", 1.0), r"^x_range must be real numbers, got \('a', 1.0\)$"),
    ("h0", "abc", "^h0 must be a finite number, got 'abc'$"),
    ("p_diag", None, "^p_diag must be a finite number, got None$"),
    ("kernel_t_exponent", math.nan, "^kernel_t_exponent must be a finite number, got nan$"),
    ("f0_t_exponent", 1j, "^f0_t_exponent must be a finite number, got 1j$"),
    ("x_range", (1.0,), r"^x_range must be two numbers, got \(1.0,\)$"),
    ("x_range", [[0.2, 3.0]], r"^x_range must be two numbers, got \[\[0.2, 3.0\]\]$"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field,value,needle", OWN_FIELDS, ids=[f"{f}={v!r}" for f, v, _ in OWN_FIELDS])
def test_a_case_reads_its_own_numbers_by_the_number_rules(field, value, needle):
    with pytest.raises(UsageError, match=needle):
        verify_all(dataclasses.replace(get_case("sonin"), **{field: value}))


def test_a_case_holds_its_numbers_as_floats():
    case = dataclasses.replace(get_case("sonin"), lam=np.float64(-2.0), h0=1, x_range=[1, np.int8(2)])
    assert (case.lam, case.h0, case.x_range) == (-2.0, 1.0, (1.0, 2.0))
    assert {type(v) for v in (case.lam, case.h0, *case.x_range)} == {float}
    # an infinite end is sample_points' to refuse, as the range it gives overflows
    assert dataclasses.replace(case, x_range=(0.2, math.inf)).x_range == (0.2, math.inf)


# params that are no mapping ended in an AttributeError, and an empty list was read as
# none; None is no params
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params", [[("mu", 1.0)], 5, "mu=1", []], ids=repr)
def test_params_that_are_no_mapping_are_refused(params):
    needle = rf"^params must be a mapping of names to numbers, got {re.escape(repr(params))}$"
    with pytest.raises(UsageError, match=needle):
        get_case("sonin", params)
    assert get_case("sonin", None) == get_case("sonin")
