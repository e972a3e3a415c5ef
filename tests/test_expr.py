import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from transmute.conditions import triangle_grid
from transmute.errors import (
    AdmissibilityError,
    DomainError,
    ParseError,
    TransmuteError,
    UnboundSymbolError,
)
from transmute.expr import (
    BinOp,
    Call,
    Jet2,
    Neg,
    Name,
    Num,
    evaluate,
    evaluate_jet,
    free_symbols,
    parse,
    to_string,
)
from transmute.kernels import get_case, list_cases


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
        ("gamma(y)", {"y": math.nan}),
        ("gegenbauer(2, y, 0.5)", {"y": math.nan}),
        ("gegenbauer(2, 1, y)", {"y": math.nan}),
        ("x^2", {"x": 1e200}),
        ("1e308+1e308", {}),
        ("sin(y)", {"y": math.nan}),
        ("sqrt(y)+1", {"y": math.nan}),
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
        # "constant" is structural: 0*x is still a jet
        ("besselj(0*x, t)", {}),
        ("gegenbauer(2, x, 0.5)", {}),
        ("(y*x)^2", {"y": 5e199}),  # x^2 at x = 1e200
        ("1e308+1e308", {}),
        ("sin(y)", {"y": math.nan}),
        ("sqrt(y)+1", {"y": math.nan}),
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


def test_parameter_only_subtree_stays_a_float():
    # sqrt(p) never sees x or t, so it takes the plain value at p = 0 and
    # only the product with x becomes a jet
    assert evaluate_jet(parse("sqrt(p)*x"), 1.0, 0.5, {"p": 0.0}) == Jet2(0.0)


@pytest.mark.parametrize("name", list_cases())
def test_jet_value_is_the_float_value_on_the_catalog(name):
    case = get_case(name)
    exprs = [case.kernel, case.f0, case.f1, case.kernel_smooth, case.f0_smooth]
    exprs += [getattr(op, slot) for op in (case.opA, case.opB) for slot in "abc"]
    for x, t in triangle_grid():
        bindings = {**case.params, "x": x, "t": t}
        for e in exprs:
            assert evaluate_jet(e, x, t, case.params).value == evaluate(e, bindings)


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


def test_non_finite_binding_names_the_parameter():
    with pytest.raises(DomainError, match="bound to y"):
        evaluate(parse("sin(y)"), {"y": math.inf})
    with pytest.raises(DomainError, match="bound to t"):
        evaluate_jet(parse("x+t"), 1.0, math.nan, {})
    with pytest.raises(DomainError, match=r"bound to x at x=nan"):
        evaluate(parse("x+1"), {"x": np.array([1.0, math.nan])})


# (expression, x entries, t entries, the first point that fails)
ARRAY_FAILURES = [
    ("1/(x-t)", [1.0, 2.0, 3.0], [0.5, 2.0, 3.0], "x=2.0, t=2.0"),
    ("log(x-t)", [1.0, 2.0], [0.5, 2.5], "x=2.0, t=2.5"),
    ("(x-t)^0.5", [1.0, 2.0], [0.5, 2.5], "x=2.0, t=2.5"),
    ("(x-t)^(-2)", [1.0, 2.0], [0.5, 2.0], "x=2.0, t=2.0"),
    ("x^t", [1.0, -1.0], [0.5, 0.5], "x=-1.0, t=0.5"),
    ("exp(x*t)", [1.0, 30.0], [0.5, 30.0], "x=30.0, t=30.0"),
    ("(x*t)^2", [1.0, 1e200], [0.5, 1.0], "x=1e+200, t=1.0"),
    ("gamma(x-t)", [1.0, 2.0], [0.5, 2.0], "x=2.0, t=2.0"),
    ("besselj(0, x*t)", [1.0, 30.0], [0.5, 1.0], "x=30.0, t=1.0"),
    ("gegenbauer(2, 1, x/t)", [1.0, 2.0], [0.5, math.inf], "bound to t"),
]


@pytest.mark.parametrize("text,xs,ts,where", ARRAY_FAILURES)
def test_array_errors_name_the_first_failing_point(text, xs, ts, where):
    bindings = {"x": np.array(xs), "t": np.array(ts)}
    # the scalar walk fails at that point too, with the same error type
    k = len(xs) - 1
    with pytest.raises(TransmuteError) as scalar:
        evaluate(parse(text), {"x": xs[k], "t": ts[k]})
    with pytest.raises(type(scalar.value), match=where.replace("+", r"\+")) as array:
        evaluate(parse(text), bindings)
    if "bound" not in where:
        assert to_string(parse(text)) in str(array.value)


def test_array_evaluation_broadcasts():
    x = np.array([[1.0], [2.0]])
    t = np.array([0.25, 0.5, 0.75])
    got = evaluate(parse("x^2-t^2"), {"x": x, "t": t})
    assert got.shape == (2, 3)
    assert np.array_equal(got, x * x - t * t)
    # a tree that reads neither array still gives their shape
    assert np.array_equal(evaluate(parse("mu^2"), {"mu": 3.0, "x": x, "t": t}),
                          np.full((2, 3), 9.0))
    # the result is a fresh array, never the bound one
    assert evaluate(parse("x"), {"x": t}) is not t


def _arithmetic_only(node):
    """No function calls and only literal integer exponents: the walk then
    runs numpy's + - * /, which are IEEE operations like Python's."""
    if isinstance(node, Call):
        return False
    if isinstance(node, Neg):
        return _arithmetic_only(node.arg)
    if isinstance(node, BinOp):
        if node.op == "^":
            e = node.right.arg if isinstance(node.right, Neg) else node.right
            if not (isinstance(e, Num) and e.value == math.floor(e.value)):
                return False
        return _arithmetic_only(node.left) and _arithmetic_only(node.right)
    return True


_PINNED = {"gegenbauer": ("lambda", "p"), "cosh_1f2": ("alpha",)}
_TRIANGLE = list(triangle_grid())


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(list_cases()), data=st.data())
def test_array_evaluate_is_scalar_evaluate_per_entry(name, data):
    # Elementary functions go through numpy's ufuncs, which like libm are
    # within 1-2 ulp of the exact value; each tree applies at most a few of
    # them (sin, cosh, exp(v log u) for a power) to arguments that agree
    # bit for bit, and products and quotients do not amplify relative
    # error. 8 ulp of the value covers the worst seen (2 ulp) with margin.
    # Special functions run their scalar series on identical arguments.
    params = dict(get_case(name).params)
    for p in params:
        if p not in _PINNED.get(name, ()):
            params[p] *= data.draw(st.floats(0.75, 1.25), label=p)
    try:
        case = get_case(name, params)
    except AdmissibilityError:
        assume(False)
    xs = np.array([x for x, _ in _TRIANGLE])
    ts = np.array([t for _, t in _TRIANGLE])
    exprs = [case.kernel, case.f0, case.f1, case.kernel_smooth, case.f0_smooth]
    exprs += [getattr(op, slot) for op in (case.opA, case.opB) for slot in "abc"]
    for e in exprs:
        scalar = []
        for x, t in _TRIANGLE:
            try:
                scalar.append(evaluate(e, {**case.params, "x": x, "t": t}))
            except TransmuteError as exc:
                scalar.append(exc)
        failed = [v for v in scalar if isinstance(v, TransmuteError)]
        if failed:
            with pytest.raises(type(failed[0])):
                evaluate(e, {**case.params, "x": xs, "t": ts})
            continue
        got = evaluate(e, {**case.params, "x": xs, "t": ts})
        want = np.array(scalar)
        if _arithmetic_only(e):
            assert np.array_equal(got, want), to_string(e)
        else:
            ulp = np.spacing(np.abs(want))
            assert np.all(np.abs(got - want) <= 8 * ulp), to_string(e)


_JET_PARTS = ("value", "dx", "dt", "dxx", "dxt", "dtt")
# ulp of the jet's largest part allowed per derivative part (see below)
_JET_ULPS = {"dx": 8, "dt": 8, "dxx": 32, "dxt": 32, "dtt": 32}


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(list_cases()), data=st.data())
def test_array_jet_is_scalar_jet_per_entry(name, data):
    # Trees of + - * / and literal integer powers run the same IEEE
    # operations on arrays as on floats, so every part matches bit for
    # bit. Elsewhere the elementary functions are numpy's, 1-2 ulp from
    # math's: the value then keeps the 8 ulp of the evaluate test above.
    # A derivative part sums products of f, f' or f'' with inner
    # derivatives; where they cancel the part is far smaller than its
    # terms, so its gap is taken in ulp of the jet's largest part at that
    # point. Each further factor adds its own few ulp: over 120 random
    # draws of every case the worst seen was 4 ulp for first and 12 for
    # second derivatives, so 8 and 32 leave margin.
    params = dict(get_case(name).params)
    for p in params:
        if p not in _PINNED.get(name, ()):
            params[p] *= data.draw(st.floats(0.75, 1.25), label=p)
    try:
        case = get_case(name, params)
    except AdmissibilityError:
        assume(False)
    xs = np.array([x for x, _ in _TRIANGLE])
    ts = np.array([t for _, t in _TRIANGLE])
    exprs = [case.kernel, case.f0, case.f1, case.kernel_smooth, case.f0_smooth]
    exprs += [getattr(op, slot) for op in (case.opA, case.opB) for slot in "abc"]
    for e in exprs:
        scalar = []
        for x, t in _TRIANGLE:
            try:
                scalar.append(evaluate_jet(e, x, t, case.params))
            except TransmuteError as exc:
                scalar.append(exc)
        failed = [v for v in scalar if isinstance(v, TransmuteError)]
        if failed:
            with pytest.raises(type(failed[0])):
                evaluate_jet(e, xs, ts, case.params)
            continue
        got = evaluate_jet(e, xs, ts, case.params)
        want = {p: np.array([getattr(j, p) for j in scalar]) for p in _JET_PARTS}
        scale = np.max([np.abs(want[p]) for p in _JET_PARTS], axis=0)
        for p in _JET_PARTS:
            assert getattr(got, p).shape == xs.shape
            err = np.abs(getattr(got, p) - want[p])
            if _arithmetic_only(e):
                assert np.array_equal(getattr(got, p), want[p]), (to_string(e), p)
            elif p == "value":
                assert np.all(err <= 8 * np.spacing(np.abs(want[p]))), to_string(e)
            else:
                assert np.all(err <= _JET_ULPS[p] * np.spacing(scale)), (to_string(e), p)


def test_array_jet_errors_name_the_first_failing_point():
    xs, ts = np.array([1.0, 2.0, 3.0]), np.array([0.5, 2.0, 3.0])
    with pytest.raises(DomainError, match=r"division by zero in 1/\(x-t\) at x=2\.0, t=2\.0"):
        evaluate_jet(parse("1/(x-t)"), xs, ts, {})
    with pytest.raises(DomainError, match=r"in sqrt\(x-t\) at x=2\.0, t=2\.0"):
        evaluate_jet(parse("sqrt(x-t)"), xs, ts, {})
    with pytest.raises(DomainError, match=r"positive base in \(x-t\)\^0\.5 at x=2\.0, t=2\.0"):
        evaluate_jet(parse("(x-t)^0.5"), xs, ts, {})
    with pytest.raises(DomainError, match=r"bessel_j jets need z > 0.* at x=2\.0, t=2\.0"):
        evaluate_jet(parse("besselj(1, x-t)"), xs, ts, {})
    with pytest.raises(DomainError, match=r"only the last argument"):
        evaluate_jet(parse("besselj(x, t)"), xs, ts, {})
