import math

import pytest

from transmute.errors import AdmissibilityError, UsageError
from transmute.expr import BinOp, Call, Neg, evaluate, parse
from transmute.kernels import (
    COEFFICIENT_NAMES,
    corrupt_case,
    describe,
    get_case,
    list_cases,
)

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


def test_gegenbauer_gamma_pole_guard():
    # lambda - beta at a non-positive integer hits a gamma pole in the
    # f1 prefactor before any evaluation could
    with pytest.raises(AdmissibilityError):
        get_case("gegenbauer", {"lambda": 2.0, "beta": 2.0})


def _contains(tree, wanted):
    if tree == wanted:
        return True
    if isinstance(tree, BinOp):
        return _contains(tree.left, wanted) or _contains(tree.right, wanted)
    if isinstance(tree, Neg):
        return _contains(tree.arg, wanted)
    if isinstance(tree, Call):
        return any(_contains(a, wanted) for a in tree.args)
    return False


@pytest.mark.parametrize("name", ALL_NAMES)
def test_every_kernel_is_built_on_the_wave_argument(name):
    # all nine closed forms are functions of x^2 - t^2; the subtree has to
    # appear verbatim in the kernel
    case = get_case(name)
    assert _contains(case.kernel, parse("x^2-t^2"))


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


def test_corrupt_case_targets_one_coefficient():
    case = get_case("vekua_telegraph")
    bent = corrupt_case(case, "c1", 0.1)
    base = evaluate(case.opB.c, {**case.params, "x": 1.0})
    assert evaluate(bent.opB.c, {**case.params, "x": 1.0}) == pytest.approx(base + 0.1)
    # untouched pieces are shared, not rebuilt
    assert bent.kernel is case.kernel
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
