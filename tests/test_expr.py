import math

import pytest
from hypothesis import given, strategies as st

from transmute.errors import DomainError, ParseError, UnboundSymbolError
from transmute.expr import (
    BinOp,
    Jet2,
    Name,
    Num,
    evaluate,
    evaluate_jet,
    free_symbols,
    parse,
    to_string,
)


@pytest.mark.parametrize(
    "text,bindings,expected",
    [
        ("2+3*4", {}, 14.0),
        ("(2+3)*4", {}, 20.0),
        ("2^3^2", {}, 512.0),          # right-associative power
        ("-x^2", {"x": 3.0}, -9.0),    # unary minus binds looser than ^
        ("2*-3", {}, -6.0),
        ("x^-1", {"x": 4.0}, 0.25),
        ("10/4/5", {}, 0.5),
        ("1-2-3", {}, -4.0),
        ("pi", {}, math.pi),
        ("sqrt(x^2-t^2)", {"x": 5.0, "t": 3.0}, 4.0),
        ("exp(log(7))", {}, 7.0),
        ("cosh(x)^2-sinh(x)^2", {"x": 0.7}, 1.0),
    ],
)
def test_evaluate(text, bindings, expected):
    assert evaluate(parse(text), bindings) == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "text",
    [
        "x^2-t^2",
        "-3*t",
        "0.5*pi*sqrt(x+t)",
        "2^(1-nu)/(gamma(0.5)*gamma(nu+0.5))",
        "besselj(nu, omega*sqrt(x^2-t^2))",
        "-(x+1)^-2",
        "1e20*x",
        "t^(mu+1)*besselj(mu, t)",
    ],
)
def test_to_string_round_trip(text):
    tree = parse(text)
    assert parse(to_string(tree)) == tree


def test_reserved_pi_folds_at_parse_time():
    assert parse("pi") == Num(math.pi)
    assert to_string(parse("0.5*pi")) == "0.5*pi"


def test_tree_shape():
    tree = parse("t*(x^2-t^2)^(beta-1)")
    assert isinstance(tree, BinOp) and tree.op == "*"
    assert tree.left == Name("t")
    power = tree.right
    assert isinstance(power, BinOp) and power.op == "^"
    assert power.left == BinOp("-", BinOp("^", Name("x"), Num(2.0)),
                               BinOp("^", Name("t"), Num(2.0)))


def test_free_symbols():
    assert free_symbols(parse("sin(omega*t)+x/pi")) == {"omega", "t", "x"}
    assert free_symbols(parse("3.5")) == set()


@pytest.mark.parametrize(
    "text,offset",
    [
        ("2*", 2),
        ("2 +* 3", 3),
        ("sin()", 4),
        ("(1+2", 4),
        ("1 + @", 4),
    ],
)
def test_parse_error_offsets(text, offset):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.offset == offset


def test_unknown_function_rejected():
    with pytest.raises(ParseError, match="unknown function 'foo'"):
        parse("foo(x)")


def test_wrong_arity_rejected():
    with pytest.raises(ParseError, match="takes 1 argument"):
        parse("sin(x, t)")
    with pytest.raises(ParseError, match="takes 2 argument"):
        parse("besselj(x)")


def test_unbound_symbol():
    with pytest.raises(UnboundSymbolError, match="'y'"):
        evaluate(parse("x+y"), {"x": 1.0})


@pytest.mark.parametrize(
    "text,bindings",
    [
        ("1/x", {"x": 0.0}),
        ("log(x)", {"x": -1.0}),
        ("x^0.5", {"x": -1.0}),
        ("x^(-2)", {"x": 0.0}),
        ("x^y", {"x": 2.0, "y": math.inf}),
        ("x^y", {"x": 0.5, "y": -math.inf}),
        ("x^y", {"x": 0.0, "y": math.inf}),
        ("x^y", {"x": -2.0, "y": math.nan}),
        ("besselj(0, y)", {"y": math.nan}),
        ("besselj(y, 1)", {"y": math.nan}),
        ("besseli(0, y)", {"y": math.nan}),
        ("bessel_clifford(0, y)", {"y": math.nan}),
    ],
)
def test_domain_errors(text, bindings):
    with pytest.raises(DomainError):
        evaluate(parse(text), bindings)


@pytest.mark.parametrize(
    "text,params",
    [
        ("x^y", {"y": math.inf}),
        ("t^(x*y)", {"y": -math.inf}),
        ("x^y", {"y": math.nan}),
        ("besselj(0, y)", {"y": math.nan}),
        ("besselj(y, x)", {"y": math.nan}),
    ],
)
def test_jet_domain_errors(text, params):
    with pytest.raises(DomainError):
        evaluate_jet(parse(text), 2.0, 0.5, params)


def test_overflowing_literal_is_a_parse_error():
    with pytest.raises(ParseError, match="overflows"):
        parse("2^1e999")


def test_zero_to_the_zero_is_one():
    # x^0 must stay 1 right up to (and at) x = 0 so kernels like
    # (x^2-t^2)^(beta-1) degenerate cleanly at beta = 1.
    assert evaluate(parse("x^t"), {"x": 0.0, "t": 0.0}) == 1.0


def _fd(fn, x, h=1e-5):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def _fd2(fn, x, h=1e-4):
    return (fn(x + h) - 2 * fn(x) + fn(x - h)) / (h * h)


@pytest.mark.parametrize(
    "text,params",
    [
        ("sin(omega*t)*cosh(x)", {"omega": 1.3}),
        ("(x^2-t^2)^1.5", {}),
        ("exp(-x*t)/(1+t^2)", {}),
        ("besselj(nu, x+0.5*t)", {"nu": 1.0}),
        ("t*log(x)+sqrt(x+t)", {}),
    ],
)
def test_jet_matches_finite_differences(text, params):
    tree = parse(text)
    x0, t0 = 1.7, 0.9
    jet = evaluate_jet(tree, x0, t0, params)

    def at(x, t):
        return evaluate(tree, {**params, "x": x, "t": t})

    assert jet.value == pytest.approx(at(x0, t0), rel=1e-12)
    assert jet.dx == pytest.approx(_fd(lambda s: at(s, t0), x0), rel=2e-7)
    assert jet.dt == pytest.approx(_fd(lambda s: at(x0, s), t0), rel=2e-7)
    assert jet.dxx == pytest.approx(_fd2(lambda s: at(s, t0), x0), rel=2e-5, abs=1e-6)
    assert jet.dtt == pytest.approx(_fd2(lambda s: at(x0, s), t0), rel=2e-5, abs=1e-6)
    # mixed partial via the four-point stencil
    h = 1e-4
    mixed = (at(x0 + h, t0 + h) - at(x0 + h, t0 - h)
             - at(x0 - h, t0 + h) + at(x0 - h, t0 - h)) / (4 * h * h)
    assert jet.dxt == pytest.approx(mixed, rel=2e-5, abs=1e-6)


def test_jet_exact_polynomial():
    jet = evaluate_jet(parse("x^2*t + 3*t^2"), 2.0, 5.0, {})
    assert (jet.value, jet.dx, jet.dt) == (95.0, 20.0, 34.0)
    assert (jet.dxx, jet.dxt, jet.dtt) == (10.0, 4.0, 6.0)


def test_jet_singularity_reported():
    with pytest.raises(DomainError):
        evaluate_jet(parse("sqrt(x)"), 0.0, 0.0, {})


@given(
    x=st.floats(0.1, 3.0),
    t=st.floats(0.05, 2.9),
    nu=st.floats(0.0, 2.0),
)
def test_jet_value_agrees_with_plain_evaluate(x, t, nu):
    tree = parse("(x+t)^nu*cos(t)+sin(x)/(1+x^2)")
    bindings = {"x": x, "t": t, "nu": nu}
    assert evaluate_jet(tree, x, t, {"nu": nu}).value == pytest.approx(
        evaluate(tree, bindings), rel=1e-13, abs=1e-13
    )


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_jet_arithmetic_product_rule(a, b):
    f = Jet2(a, dx=1.0)
    g = Jet2(b, dt=1.0)
    prod = f * g
    assert prod.value == pytest.approx(a * b)
    assert prod.dx == pytest.approx(b)
    assert prod.dt == pytest.approx(a)
    assert prod.dxt == pytest.approx(1.0)
    assert prod.dxx == 0.0 and prod.dtt == 0.0
