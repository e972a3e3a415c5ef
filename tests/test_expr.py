import dataclasses
import math
import pickle
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings, strategies as st

from transmute.conditions import triangle_grid
from transmute.errors import (
    AdmissibilityError,
    DomainError,
    ExpressionError,
    ParseError,
    TransmuteError,
    UnboundSymbolError,
)
from transmute import expr as expr_module
from transmute.conditions import VerifyConfig, verify_all
from transmute.expr import (
    _CALL_ERRORS,
    FUNCTIONS,
    MAX_DEPTH,
    BinOp,
    Call,
    Expr,
    Jet2,
    Neg,
    Name,
    Num,
    _array_call,
    _in_call,
    _power,
    _require,
    _tokenize,
    _ufunc,
    evaluate,
    evaluate_jet,
    free_symbols,
    parse,
    to_string,
)
from transmute.goursat import problem_from_case
from transmute.kernels import get_case, list_cases
from transmute.operators import DifferentialOperator


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


# precedence corner cases, and the text each prints as
_PRINTED = {
    "-x^2": "-x^2",
    "(-x)^2": "(-x)^2",
    "2^-x^2": "2^(-x^2)",
    "x^y^z": "x^y^z",
    "(x^y)^z": "(x^y)^z",
    "x-(y-z)": "x-(y-z)",
    "x/(y*z)": "x/(y*z)",
    "x*-y": "x*-y",
    "-(-x)": "-(-x)",
}


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
        *_PRINTED,
    ],
)
def test_to_string_round_trip(text):
    tree = parse(text)
    assert parse(to_string(tree)) == tree
    if text in _PRINTED:
        assert to_string(tree) == _PRINTED[text]


def test_parse_shares_trees_and_raises_anew():
    text = "sin(omega*t) + x^2"
    assert parse(text) is parse(text)
    for _ in range(3):  # a failure is not remembered
        with pytest.raises(ParseError, match="offset 4"):
            parse("1 + ")


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


def test_binop_refuses_an_unknown_operator():
    # compiled, "%" would run as a power: 2 % 3 evaluated to 8
    with pytest.raises(ValueError, match="unknown binary operator '%'"):
        BinOp("%", Num(2.0), Num(3.0))


@pytest.mark.parametrize("run", [to_string, lambda node: evaluate(node, {})], ids=["to_string", "evaluate"])
def test_a_child_that_is_not_a_node_is_a_type_error(run):
    with pytest.raises(TypeError, match="not an expression node: 3"):
        run(BinOp("+", Num(1.0), 3))


def test_a_deep_tree_built_in_code_ends_in_a_transmute_error():
    tree = Name("x")
    for _ in range(300):
        tree = BinOp("+", tree, Name("x"))
    with pytest.raises(TransmuteError):
        evaluate(tree, {"x": 1.0})
    # up to twice parse's limit a tree built in code, such as a parsed one the
    # library wraps in a few more levels, evaluates and prints; one more is refused
    tree = Name("x")
    for _ in range(2 * MAX_DEPTH - 1):
        tree = Call("sin", (tree,))
    assert evaluate(tree, {"x": 1.0}) == evaluate(tree, {"x": np.array([1.0])})[0]
    assert math.isfinite(evaluate_jet(tree, 1.0, 0.5, {}).dxx)
    assert to_string(tree).count("sin(") == 2 * MAX_DEPTH - 1
    with pytest.raises(ExpressionError, match=f"nested deeper than {2 * MAX_DEPTH} levels"):
        evaluate_jet(Neg(tree), 1.0, 0.5, {})


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


def _depth(node):
    """The number of nodes on the longest path from ``node`` down to a leaf."""
    if type(node) is Neg:
        return 1 + _depth(node.arg)
    if type(node) is BinOp:
        return 1 + max(_depth(node.left), _depth(node.right))
    return 1 + max(map(_depth, node.args), default=0) if type(node) is Call else 1


# each way the parser nests a tree, n levels deep, and the token at which
# one level more passes the limit
_NESTINGS = {
    "sum": (lambda n: "x" + "+x" * (n - 1), "+"),
    "power": (lambda n: "x^" * (n - 1) + "x", "x"),
    "sign": (lambda n: "-" * (n - 1) + "x", "x"),
    "call": (lambda n: "sin(" * (n - 1) + "x" + ")" * (n - 1), "x"),
    "bracketed product": (lambda n: "(" * 60 + "x" + "*x" * (n - 1) + ")" * 60, "*"),
}


@pytest.mark.parametrize("shape", _NESTINGS)
def test_a_tree_max_depth_deep_evaluates_and_one_level_more_is_a_parse_error(shape):
    build, where = _NESTINGS[shape]
    node = parse(build(MAX_DEPTH))
    assert _depth(node) == MAX_DEPTH
    xs = np.linspace(0.5, 0.9, 3)
    assert math.isfinite(evaluate(node, {"x": 0.7}))
    assert evaluate(node, {"x": xs}).shape == (3,)
    assert math.isfinite(evaluate_jet(node, 0.7, 0.3, {}).dxx)
    assert evaluate_jet(node, xs, xs / 2, {}).dxx.shape == (3,)
    assert parse(to_string(node)) == node
    text = build(MAX_DEPTH + 1)
    with pytest.raises(ParseError, match=f"expression nested deeper than {MAX_DEPTH} levels") as err:
        parse(text)
    assert err.value.offset == text.rindex(where)


def test_a_power_chain_costs_calls_linear_in_its_nodes(monkeypatch):
    # each ^ takes its rule on the operands the walk computed, so no node is
    # evaluated twice: 198 elementary calls as a float, 3 x 198 over 3 points
    calls = []
    monkeypatch.setattr("transmute.expr._ufunc", lambda f, u: calls.append(f) or _ufunc(f, u))
    node = parse("x^" * (MAX_DEPTH - 1) + "x")
    xs = np.linspace(0.5, 0.9, 3)
    for run in (lambda: evaluate(node, {"x": 0.7}), lambda: evaluate(node, {"x": xs}),
                lambda: evaluate_jet(node, 0.7, 0.3, {}), lambda: evaluate_jet(node, xs, xs / 2, {})):
        calls.clear()
        run()
        assert 0 < len(calls) <= 1000


@pytest.mark.parametrize("n", [MAX_DEPTH + 1, 198, 1500])
def test_brackets_nested_past_the_limit_are_a_parse_error(n):
    assert parse("(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH) == Name("x")
    with pytest.raises(ParseError, match=f"brackets nested deeper than {MAX_DEPTH} levels") as err:
        parse("(" * n + "x" + ")" * n)
    assert err.value.offset == MAX_DEPTH


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


def test_jet_exact_polynomial():
    jet = evaluate_jet(parse("x^2*t + 3*t^2"), 2.0, 5.0, {})
    assert (jet.value, jet.dx, jet.dt) == (95.0, 20.0, 34.0)
    assert (jet.dxx, jet.dtt) == (10.0, 6.0)


def test_jet_carries_the_five_partials_the_checks_read():
    # BT = TA sets A, in t, against B, in x: no check reads the mixed partial
    assert list(vars(Jet2(1.0))) == ["value", "dx", "dt", "dxx", "dtt"]


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
    assert evaluate_jet(tree, x, t, {"nu": nu}).value == evaluate(tree, bindings)


@given(a=st.floats(-3, 3), b=st.floats(-3, 3))
def test_jet_arithmetic_product_rule(a, b):
    f = Jet2(a, dx=1.0)
    g = Jet2(b, dt=1.0)
    prod = f * g
    assert prod.value == pytest.approx(a * b)
    assert prod.dx == pytest.approx(b)
    assert prod.dt == pytest.approx(a)
    assert prod.dxx == 0.0 and prod.dtt == 0.0


# each ended in an OverflowError, a TypeError or a ValueError, or cast a complex
# number to its real part: x = [1+2j] gave [2.0]
NOT_REAL_BINDINGS = {
    "int_1e400": {"x": 10**400},
    "None": {"x": None},
    "text": {"x": "abc"},
    "complex": {"x": 1j},
    "complex128": {"x": np.complex128(1 + 2j)},
    "list": {"x": [1.0, 2.0]},
    "array_parameter": {"mu": np.array([1.0, 2.0])},
    "complex_array": {"x": np.array([1 + 2j])},
    "text_array": {"x": np.array(["1"])},
    "object_array": {"x": np.array([1.0, None])},
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bindings", NOT_REAL_BINDINGS.values(), ids=NOT_REAL_BINDINGS)
def test_a_binding_that_is_no_real_number_is_a_domain_error(bindings):
    with pytest.raises(DomainError, match="^values? bound to (x|mu) must be (a finite number|real numbers), got "):
        evaluate(parse("x + mu"), {"x": 1.0, "mu": 1.0, **bindings})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x,t", [(1j, 0.5), (np.complex128(1.0), 0.5), (1.0, "abc"), (10**400, 0.5),
                                 (np.array([1 + 2j]), 0.5), (np.array([1.0]), "abc"), (np.array([1.0]), [None])],
                         ids=["complex", "complex128", "text", "int_1e400", "complex_array", "array_text", "array_None"])
def test_a_jet_seed_that_is_no_real_number_is_a_domain_error(x, t):
    with pytest.raises(DomainError, match="^values? bound to (x|t) must be (a finite number|real numbers), got "):
        evaluate_jet(parse("x * t"), x, t, {})


# an array bound to a parameter that the expression does not read: the point a failure
# names, and the shape of the result, read it too, ending in a ComplexWarning or a ValueError
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("b", [np.array([1j]), np.array(["abc"]), np.array([1.0, 2.0, 3.0])],
                         ids=["complex", "text", "shape"])
def test_an_array_bound_to_an_unread_parameter_is_not_read(b):
    xs = np.array([1.0, 0.0])
    assert evaluate(parse("x+1"), {"b": b, "x": xs}).tolist() == [2.0, 1.0]
    with pytest.raises(DomainError, match="^division by zero in 1/x at x=0.0$"):
        evaluate(parse("1/x"), {"b": b, "x": xs})
    with pytest.raises(DomainError, match=r"^non-integer power needs a positive base in x\^x$"):
        evaluate_jet(parse("x^x"), 0.0, 0.5, {"b": b})


# bindings or params that are no mapping ended in an AttributeError or a TypeError
NO_MAPPINGS = [None, [1.0], [("x", 1.0)], 5, "x"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", NO_MAPPINGS, ids=repr)
def test_bindings_that_are_no_mapping_are_a_domain_error(value):
    text = rf"must be a mapping of names to numbers, got {re.escape(repr(value))}$"
    with pytest.raises(DomainError, match="^bindings " + text):
        evaluate(parse("x"), value)
    for x in (1.0, np.array([1.0, 2.0])):
        with pytest.raises(DomainError, match="^params " + text):
            evaluate_jet(parse("x"), x, 0.5, value)


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


_PINNED = {"gegenbauer": ("lambda", "p"), "cosh_1f2": ("alpha",)}
_TRIANGLE = list(triangle_grid())


def _drawn_case(name, data):
    """The case ``name`` with each parameter not pinned drawn at its default times [0.75, 1.25]."""
    params = dict(get_case(name).params)
    for p in params:
        if p not in _PINNED.get(name, ()):
            params[p] *= data.draw(st.floats(0.75, 1.25), label=p)
    try:
        return get_case(name, params)
    except AdmissibilityError:
        assume(False)


def _layouts(xs=np.array([x for x, _ in _TRIANGLE]), ts=np.array([t for _, t in _TRIANGLE])):
    """(x, t, order) for the rows xs and ts (by default the triangle's
    points) as given, reversed, and strided (every other entry of a longer
    array); ``order`` indexes values in the given order into each layout."""
    yield xs, ts, slice(None)
    yield xs[::-1], ts[::-1], slice(None, None, -1)
    yield np.repeat(xs, 2)[::2], np.repeat(ts, 2)[::2], slice(None)


def _case_exprs(case):
    exprs = [case.kernel, case.f0, case.f1, case.kernel_smooth, case.f0_smooth]
    return exprs + [getattr(op, slot) for op in (case.opA, case.opB) for slot in "abc"]


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(list_cases()), data=st.data())
def test_array_evaluate_is_scalar_evaluate_per_entry(name, data):
    # every elementary function and the real power are numpy's ufuncs for
    # floats and arrays alike, and the special functions run one body: each
    # entry is the float value bit for bit, whatever the arrays' layout
    case = _drawn_case(name, data)
    for e in _case_exprs(case):
        scalar = []
        for x, t in _TRIANGLE:
            try:
                scalar.append(evaluate(e, {**case.params, "x": x, "t": t}))
            except TransmuteError as exc:
                scalar.append(exc)
        failed = [v for v in scalar if isinstance(v, TransmuteError)]
        for xs, ts, order in _layouts():
            if failed:
                with pytest.raises(type(failed[0])):
                    evaluate(e, {**case.params, "x": xs, "t": ts})
                continue
            got = evaluate(e, {**case.params, "x": xs, "t": ts})
            assert np.array_equal(got, np.array(scalar)[order]), to_string(e)


_JET_PARTS = ("value", "dx", "dt", "dxx", "dtt")


@pytest.mark.parametrize("text", ["sin(x)", "cos(x)", "sinh(x)", "cosh(x)", "exp(x)", "log(x)",
                                  "sqrt(x)", "x^0.7", "x^t", "t^x"])
def test_elementary_functions_are_the_float_value_in_every_layout(text):
    # a ufunc applied to the bound x itself: a reversed or strided array takes
    # another numpy inner loop, so x and t are bound contiguous, copied if need be
    tree = parse(text)
    x = np.linspace(0.05, 5.0, 2001)
    want = np.array([evaluate(tree, {"x": v, "t": 1.25}) for v in x.tolist()])
    jets = [evaluate_jet(tree, v, 1.25, {}) for v in x.tolist()]
    for xs, ts, order in _layouts(x, np.full(x.shape, 1.25)):
        assert np.array_equal(evaluate(tree, {"x": xs, "t": ts}), want[order])
        got = evaluate_jet(tree, xs, ts, {})
        for p in _JET_PARTS:
            assert np.array_equal(getattr(got, p), np.array([getattr(j, p) for j in jets])[order]), p


@pytest.mark.parametrize("name", ["sin", "cos", "sinh", "cosh", "exp", "log", "sqrt"])
def test_float_elementary_functions_raise_no_numpy_error(name):
    # a float call skips numpy's error state only where the ufunc sets no flag:
    # under "raise" each argument still gives the ufunc's value, or a
    # DomainError where that is not finite
    tree = parse(f"{name}(x)")
    for u in (0.0, 5e-324, 1e-310, 1e-300, 0.5, 699.0, 701.0, 710.0, 1e300):
        for x in (u, -u):
            with np.errstate(all="ignore"):
                want = float(getattr(np, name)(x))
            with np.errstate(all="raise"):
                if math.isfinite(want):
                    assert evaluate(tree, {"x": x}) == want, x
                else:
                    with pytest.raises(DomainError, match="no finite value"):
                        evaluate(tree, {"x": x})


@settings(max_examples=20, deadline=None)
@given(name=st.sampled_from(list_cases()), data=st.data())
def test_array_jet_is_scalar_jet_per_entry(name, data):
    # the jet rules are one code for floats and arrays, over the same
    # functions: every part of every entry is the float jet's bit for bit
    case = _drawn_case(name, data)
    for e in _case_exprs(case):
        scalar = []
        for x, t in _TRIANGLE:
            try:
                scalar.append(evaluate_jet(e, x, t, case.params))
            except TransmuteError as exc:
                scalar.append(exc)
        failed = [v for v in scalar if isinstance(v, TransmuteError)]
        for xs, ts, order in _layouts():
            if failed:
                with pytest.raises(type(failed[0])):
                    evaluate_jet(e, xs, ts, case.params)
                continue
            got = evaluate_jet(e, xs, ts, case.params)
            for p in _JET_PARTS:
                want = np.array([getattr(j, p) for j in scalar])[order]
                assert np.array_equal(getattr(got, p), want), (to_string(e), p)


@pytest.mark.parametrize("text", ["x", "t", "2", "omega", "x*t", "sin(x)+t", "x^1"])
def test_array_outputs_are_fresh(text):
    # every component is its own writeable array of the broadcast shape,
    # even where the walk returns a seed, a bound array or a constant
    x = np.linspace(0.5, 1.5, 4)
    for t in (np.array([[0.1], [0.2], [0.3]]), x):
        shape = np.broadcast_shapes(x.shape, t.shape)
        parts = list(vars(evaluate_jet(parse(text), x, t, {"omega": 1.5})).values())
        parts.append(evaluate(parse(text), {"x": x, "t": t, "omega": 1.5}))
        for k, c in enumerate(parts):
            assert type(c) is np.ndarray and c.shape == shape and c.flags.writeable
            for other in [x, t] + parts[k + 1 :]:
                assert not np.shares_memory(c, other)


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


@pytest.mark.parametrize("x,t", [(0.4, 0.9), (1.3, 0.25), (2.7, 1.6)])
def test_jet_exponent_matches_closed_form_partials(x, t):
    # a jet in the exponent: 2^x = exp(x ln 2) and x^t = exp(t ln x)
    ln2, lnx = math.log(2.0), math.log(x)
    f = 2.0 ** x
    jet = evaluate_jet(parse("2^x"), x, t, {})
    want = (f, f * ln2, 0.0, f * ln2 * ln2, 0.0)
    got = (jet.value, jet.dx, jet.dt, jet.dxx, jet.dtt)
    assert got == pytest.approx(want, rel=1e-14, abs=0.0)
    f = x ** t
    jet = evaluate_jet(parse("x^t"), x, t, {})
    want = (
        f,
        t * f / x,
        f * lnx,
        t * (t - 1.0) * f / (x * x),
        f * lnx * lnx,
    )
    got = (jet.value, jet.dx, jet.dt, jet.dxx, jet.dtt)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text", ["2^(1e200*1e200)", "x^(1e200*1e200)", "x^(0*(1e200*1e200))", "(x+t)^-(1e200*1e200)"])
def test_a_non_finite_constant_exponent_is_a_domain_error(text):
    # an exponent that overflows, or is NaN, as a float, over an array and as a jet
    needle = rf"^non-finite exponent in {re.escape(to_string(parse(text)))}$"
    for run in (lambda: evaluate(parse(text), {"x": 1.5, "t": 0.5}),
                lambda: evaluate(parse(text), {"x": np.array([1.5, 2.0]), "t": 0.5}),
                lambda: evaluate_jet(parse(text), 1.5, 0.5, {}),
                lambda: evaluate_jet(parse(text), np.array([1.5, 2.0]), 0.5, {})):
        with pytest.raises(DomainError, match=needle):
            run()


@pytest.mark.parametrize("text", ["gamma(1+x)", "x^t", "gamma(x)*x^(t+0.5)"])
def test_per_entry_array_evaluation_is_the_float_walk(text):
    # no array rule for gamma, an exponent that varies: each entry runs the
    # float walk, so the array equals it bit for bit
    expr = parse(text)
    xs = np.linspace(0.15, 2.9, 7)[:, None]
    ts = np.linspace(0.05, 1.9, 5)[None, :]
    got = evaluate(expr, {"x": xs, "t": ts})
    assert got.shape == (7, 5)
    want = [[evaluate(expr, {"x": x, "t": t}) for t in ts.ravel().tolist()]
            for x in xs.ravel().tolist()]
    assert got.tolist() == want


@pytest.mark.parametrize("text", ["x^x", "x^(0.5*x+0.3)", "(1+x)^sin(x)"])
def test_array_jet_power_value_is_the_float_walk(text):
    # an exponent that reads x: the jet's value takes the float walk per
    # point, as evaluate does, so lam f can come from the jet's value
    expr = parse(text)
    xs = np.random.default_rng(20).uniform(0.1, 3.0, 2000)
    want = [evaluate(expr, {"x": x}) for x in xs.tolist()]
    assert evaluate(expr, {"x": xs}).tolist() == want
    assert evaluate_jet(expr, xs, 0.0, {}).value.tolist() == want


# ---------------------------------------------------------------------------
# the compiled closures against the tree walk they replaced
# ---------------------------------------------------------------------------

_ndarray = np.ndarray


def _walk(node: Expr, env):
    """The one tree walk behind ``evaluate`` and ``evaluate_jet``.

    ``env`` maps names to numbers, to Jet2 seeds (of floats or of arrays)
    or to numpy arrays.  Jets and arrays spread only from the names bound
    to them, so a subtree that reads neither stays a float and calls the
    plain value of each function.
    """
    kind = type(node)
    if kind is Num:
        return node.value
    if kind is Name:
        try:
            v = env[node.ident]
        except KeyError:
            raise UnboundSymbolError(node.ident) from None
        if type(v) is not float:
            if type(v) is Jet2 or type(v) is _ndarray:
                return v
            v = float(v)
        if v - v != 0.0:
            raise DomainError(f"non-finite value {v} bound to {node.ident}")
        return v
    if kind is Neg:
        return -_walk(node.arg, env)
    if kind is BinOp:
        u = _walk(node.left, env)
        v = _walk(node.right, env)
        op = node.op
        if op == "+":
            return u + v
        if op == "-":
            return u - v
        if op == "*":
            return u * v
        try:
            if op == "/":
                _require(node, env, (v.value if type(v) is Jet2 else v) == 0.0,
                         "division by zero")
                return u / v
            return _power(node, env, u, v)
        except ZeroDivisionError:
            raise DomainError(f"division by zero in {to_string(node)}") from None
    if kind is Call:
        args = [_walk(a, env) for a in node.args]
        z = args.pop()
        spec = FUNCTIONS[node.name]
        z0 = z.value if type(z) is Jet2 else z
        array = type(z0) is _ndarray
        for a in args:
            if type(a) is Jet2:
                raise DomainError(
                    f"only the last argument of {node.name} may depend on x or t:"
                    f" {to_string(node)}"
                )
            array = array or type(a) is _ndarray
        if array:
            return _array_call(node, env, spec, args, z)
        try:
            if type(z) is Jet2:
                return z.chain(*spec.jet(*args, z0))
            return spec.value(*args, z)
        except _CALL_ERRORS as exc:
            raise _in_call(node, exc) from None
    raise TypeError(f"not an expression node: {node!r}")


_LEAVES = st.one_of(
    st.sampled_from(["x", "t", "a", "b"]).map(Name),
    st.sampled_from([0.0, 0.0, 1.0, 2.0, 0.5, 3.0, -1.5]).map(Num),
)
# literal exponents: 1, 2, 3 and 5 take the compiled repeated product, 0 and
# the negative integers the general power
_EXPONENTS = st.sampled_from([1.0, 2.0, 3.0, 5.0, 0.0, -1.0, -2.0, 0.5, -0.5]).map(Num)
# leading function arguments: mostly constants, which a jet allows
_LEADING = st.one_of(st.sampled_from(["a", "b"]).map(Name), st.sampled_from([0.0, 0.5, 1.0, 2.0]).map(Num))


def _calls(sub):
    """A call of any function in FUNCTIONS on trees drawn from ``sub``."""
    def call(name):
        lead = st.one_of(_LEADING, _LEADING, sub)
        args = [lead] * (FUNCTIONS[name].arity - 1) + [sub]
        return st.tuples(*args).map(lambda a: Call(name, a))

    return st.sampled_from(sorted(FUNCTIONS)).flatmap(call)


def _extend(sub):
    return st.one_of(
        sub.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*//"), sub, sub),
        st.builds(BinOp, st.just("^"), sub, _EXPONENTS),
        st.builds(BinOp, st.just("^"), sub, _EXPONENTS),
        st.builds(BinOp, st.just("^"), sub, sub),
        _calls(sub),
    )


_TREES = st.recursive(_LEAVES, _extend, max_leaves=8)
# half of the trees are a call at the root, so every function is drawn often
_ROOTS = st.one_of(_TREES, _calls(_TREES))


def _outcome(run, node, env, arrays):
    """What ``run(node, env)`` gives: each component's type, shape and
    bytes, or the type and message of what it raises."""
    try:
        if arrays:
            with np.errstate(all="ignore"):
                out = run(node, env)
        else:
            out = run(node, env)
    except Exception as exc:  # the two must fail alike, whatever the failure
        return type(exc), str(exc)
    parts = vars(out).values() if type(out) is Jet2 else (out,)
    return [(type(p), np.shape(p), np.asarray(p, dtype=float).tobytes()) for p in parts]


@settings(max_examples=500, deadline=None)
@given(
    node=_ROOTS,
    xs=st.lists(st.floats(0.1, 2.5), min_size=3, max_size=3),
    ts=st.lists(st.floats(0.05, 2.0), min_size=2, max_size=2),
    a=st.floats(-1.5, 2.5),
    b=st.floats(0.1, 3.0),
)
def test_compiled_tree_is_the_tree_walk_bit_for_bit(node, xs, ts, a, b):
    x, t = np.array(xs)[:, None], np.array(ts)
    envs = [
        ({"a": a, "b": b, "x": xs[0], "t": ts[0]}, False),
        ({"a": a, "b": b, "x": x, "t": t}, True),
        ({"a": a, "b": b, "x": Jet2(xs[0], dx=1.0), "t": Jet2(ts[0], dt=1.0)}, False),
        ({"a": a, "b": b, "x": Jet2(x, dx=1.0), "t": Jet2(t, dt=1.0)}, True),
    ]
    for env, arrays in envs:
        want = _outcome(_walk, node, env, arrays)
        assert _outcome(lambda n, e: n._run(e), node, env, arrays) == want


_SPECIALISED = [
    # a literal ^2 is one product
    "x^2", "(x-t)^2", "sin(x)^2", "(x/0)^2",
    # a nonzero literal divisor skips the zero test; 0 and -0.0 keep it
    "x/4", "(x*t)/0.5", "sin(x)/3", "x/0", "(1/x)/7", "log(-x)/2",
    BinOp("/", Name("x"), Num(-0.0)), BinOp("/", Name("t"), Num(math.nan)),
    # constant leading arguments with a float, jet or array last one
    "besselj(0.5, x)", "bessel_clifford(0, -a^2*(x^2-t^2)/4)", "gegenbauer(2, 0.5, x-t)",
    "hyp1f2(0.5, 0.5, 2.5, -100*x^2)", "bessel_clifford(0, 200*x)", "besseli(-1.5, x)",
    # an error in a leading argument comes first, then one in the last
    "besselj(log(-a-2), x)", "besselj(log(-a-2), 1/0)", "besselj(0.5, log(-x))",
    "besselj(0.5, x/0)", "gegenbauer(2, sqrt(-b), x)", "bessel_clifford(a, x)", "besselj(x, t)",
]


@pytest.mark.parametrize("node", [parse(n) if isinstance(n, str) else n for n in _SPECIALISED], ids=str)
def test_compiled_specialisations_are_the_tree_walk(node):
    xs, ts = [0.3, 1.7, 2.5], [0.2, 1.1]
    x, t = np.array(xs)[:, None], np.array(ts)
    for a, b in ((0.7, 1.3), (-1.5, 0.1), (2.5, 3.0)):
        envs = [
            ({"a": a, "b": b, "x": xs[1], "t": ts[0]}, False),
            ({"a": a, "b": b, "x": x, "t": t}, True),
            ({"a": a, "b": b, "x": Jet2(xs[1], dx=1.0), "t": Jet2(ts[0], dt=1.0)}, False),
            ({"a": a, "b": b, "x": Jet2(x, dx=1.0), "t": Jet2(t, dt=1.0)}, True),
        ]
        for env, arrays in envs:
            want = _outcome(_walk, node, env, arrays)
            assert _outcome(lambda n, e: n._run(e), node, env, arrays) == want


# the extremes of the float range, and 0 and 1, with either sign
_EXTREMES = st.sampled_from([s * v for v in (0.0, 5e-324, 1e-310, 1e-160, 1.0, 1e154, 1e300) for s in (1.0, -1.0)])


# values that are no finite real number, and two that read as one ("1.5" and a 0-d array)
_NOT_REAL = st.sampled_from([10**400, -(2**1100), 1j, np.complex128(1 + 2j), None, "abc", "1.5",
                             [1.0], np.array([1.0, 2.0]), np.array([1j]), np.array(0.5),
                             math.nan, math.inf, -math.inf, np.float64(math.nan)])
# a parameter is not a real number about one draw in four
_BINDINGS = st.one_of(_EXTREMES, _EXTREMES, _EXTREMES, _NOT_REAL)


@seed(1973)
@settings(max_examples=500, deadline=None)
@given(
    node=_ROOTS,
    xs=st.lists(_EXTREMES, min_size=3, max_size=3),
    ts=st.lists(_EXTREMES, min_size=2, max_size=2),
    a=_BINDINGS,
    b=_BINDINGS,
)
def test_evaluation_gives_finite_numbers_or_a_transmute_error(node, xs, ts, a, b):
    params = {"a": a, "b": b}
    x, t = np.array(xs)[:, None], np.array(ts)
    for run in (
        lambda: evaluate(node, {**params, "x": xs[0], "t": ts[0]}),
        lambda: evaluate(node, {**params, "x": x, "t": t}),
        lambda: evaluate_jet(node, xs[0], ts[0], params),
        lambda: evaluate_jet(node, x, t, params),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out = run()
            except TransmuteError:
                continue
        for part in vars(out).values() if type(out) is Jet2 else (out,):
            assert np.isfinite(part).all(), (to_string(node), part)


def _nodes(node):
    """Every node of the tree, once each by identity."""
    seen, stack = {}, [node]
    while stack:
        n = stack.pop()
        if id(n) not in seen:
            seen[id(n)] = n
            stack += [getattr(n, k) for k in ("arg", "left", "right") if hasattr(n, k)]
            stack += getattr(n, "args", ())
    return seen


def _literal_powers(nodes):
    """The literal positive integer exponents, which compile into their power."""
    return {id(n.right) for n in nodes.values()
            if type(n) is BinOp and n.op == "^" and type(n.right) is Num
            and 0 < n.right.value <= 1024 and n.right.value.is_integer()}


def _spy_compile(monkeypatch):
    compiled = []
    compile_ = expr_module._compile
    monkeypatch.setattr(expr_module, "_compile", lambda node: compiled.append(node) or compile_(node))
    return compiled


def test_a_tree_compiles_each_node_once(monkeypatch):
    compiled = _spy_compile(monkeypatch)
    node = parse.__wrapped__("sin(x)^2 + besselj(nu, x*t)/(1+t^2) - (x+t)^0.5*gamma(nu+1)")
    xs = np.linspace(0.2, 1.0, 4)
    for k in range(1000):
        x, t = 0.5 + k / 2000, 0.25
        evaluate(node, {"nu": 0.5, "x": x, "t": t})
        if k % 100 == 0:
            evaluate_jet(node, x, t, {"nu": 0.5})
            evaluate(node, {"nu": 0.5, "x": xs, "t": xs / 2})
            evaluate_jet(node, xs, xs / 2, {"nu": 0.5})
    nodes = _nodes(node)
    assert sorted(map(id, compiled)) == sorted(nodes.keys() - _literal_powers(nodes))


def test_an_evaluated_tree_pickles_and_compiles_again():
    node = parse("besselj(nu, x*t)/(1+t^2)")
    want = evaluate(node, {"nu": 0.5, "x": 0.7, "t": 0.3})
    copy = pickle.loads(pickle.dumps(node))
    assert copy == node and "_run" not in vars(copy)
    assert evaluate(copy, {"nu": 0.5, "x": 0.7, "t": 0.3}) == want


def test_the_package_generates_no_dataclass_but_the_two_it_replaces():
    # a dataclass execs its generated methods at every import; only the two
    # records that dataclasses.replace and dataclasses.fields take stay one
    import transmute.cli  # noqa: F401

    classes = {
        obj for name, module in list(sys.modules.items()) if name.partition(".")[0] == "transmute"
        for obj in vars(module).values() if isinstance(obj, type) and obj.__module__ == name
    }
    assert len(classes) > 20
    assert sorted(c.__name__ for c in classes if dataclasses.is_dataclass(c)) == [
        "ConditionRecord", "TransmutationCase"
    ]


def test_records_keep_the_dataclass_behaviour():
    tree = parse("-x^2 + besselj(nu, sqrt(x*t)) / (1 - t)")
    assert repr(tree) == (
        "BinOp(op='+', left=Neg(arg=BinOp(op='^', left=Name(ident='x'), right=Num(value=2.0))),"
        " right=BinOp(op='/', left=Call(name='besselj', args=(Name(ident='nu'), Call(name='sqrt',"
        " args=(BinOp(op='*', left=Name(ident='x'), right=Name(ident='t')),)))),"
        " right=BinOp(op='-', left=Num(value=1.0), right=Name(ident='t'))))"
    )
    jet = Jet2(1.5, dx=1.0)
    assert repr(jet) == "Jet2(value=1.5, dx=1.0, dt=0.0, dxx=0.0, dtt=0.0)"
    assert list(vars(jet).items()) == [("value", 1.5), ("dx", 1.0), ("dt", 0.0), ("dxx", 0.0), ("dtt", 0.0)]
    assert repr(DifferentialOperator("x", b=parse("1/x"))) == (
        "DifferentialOperator(var='x', a=Num(value=1.0),"
        " b=BinOp(op='/', left=Num(value=1.0), right=Name(ident='x')), c=Num(value=0.0))"
    )
    assert repr(VerifyConfig()) == "VerifyConfig(nx=20, nt=20, n_samples=20, tol_4a=1e-08)"
    config = VerifyConfig(5, 6, n_samples=7, tol_4a=1e-6)
    assert repr(config) == "VerifyConfig(nx=5, nt=6, n_samples=7, tol_4a=1e-06)"
    # equal trees are equal and hash equal; a built tree equals its parse
    built = BinOp("+", Neg(BinOp("^", Name("x"), Num(2.0))), tree.right)
    assert built == tree and hash(built) == hash(tree) and built != tree.right
    assert Jet2(1.5, 1.0) == jet and hash(Jet2(1.5, 1.0)) == hash(jet)
    problem = problem_from_case(get_case("vekua_telegraph"), X=2.0, h=1.0 / 32.0)
    for record, field in ((tree, "op"), (Num(1.0), "value"), (jet, "dx"), (problem, "kappa"), (problem, "new")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0.0)
    copy = pickle.loads(pickle.dumps(tree))
    at = {"nu": 0.5, "x": 0.7, "t": 0.3}
    assert copy == tree and evaluate(copy, at) == evaluate(tree, at)


@pytest.mark.parametrize("name", list_cases())
def test_a_second_case_compiles_only_its_product_nodes(name, monkeypatch):
    verify_all(get_case(name))
    compiled = _spy_compile(monkeypatch)
    case = get_case(name)
    verify_all(case)
    # the memoized parsed trees keep their closures; _product's nodes are new
    built = _nodes(case.kernel) | _nodes(case.f0)
    parsed = _nodes(case.kernel_smooth) | _nodes(case.f0_smooth)
    fresh = built.keys() - parsed.keys()
    assert sorted(map(id, compiled)) == sorted(fresh - _literal_powers(built))


# ---------------------------------------------------------------------------
# precedence climbing against the recursive descent it replaced
# ---------------------------------------------------------------------------


class _DescentParser:
    """The recursive-descent parser ``parse`` had before precedence climbing,
    kept verbatim but for its name: an oracle for the trees and the errors."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected: str):
        tok = self.peek()
        if tok[0] != kind:
            got = repr(tok[1]) if tok[0] != "end" else "end of input"
            raise ParseError(f"unexpected {got}", tok[2], expected=expected)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(
                f"trailing input {tok[1]!r}", tok[2], expected="operator or end"
            )
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "number":
            self.advance()
            value = float(text)
            if math.isinf(value):
                raise ParseError(f"number {text!r} overflows a double", pos)
            return Num(value)
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.advance()
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")", "')'")
                spec = FUNCTIONS[text]
                if len(args) != spec.arity:
                    raise ParseError(
                        f"{text} takes {spec.arity} argument(s), got {len(args)}", pos
                    )
                return Call(text, tuple(args))
            if text == "pi":
                return Num(math.pi)
            return Name(text)
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        got = repr(text) if kind != "end" else "end of input"
        raise ParseError(
            f"unexpected {got}", pos, expected="number, identifier, or '('"
        )


# the printer ``to_string`` had with the descent parser, verbatim but for its names

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _descent_prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            return _PREC_ADD
        if node.op in ("*", "/"):
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def _descent_to_string(node: Expr) -> str:
    """Canonical infix form; parse(to_string(e)) reproduces the same tree."""
    if isinstance(node, Num):
        if node.value == math.pi:
            return "pi"
        text = repr(node.value)
        if text.endswith(".0"):
            text = text[:-2]
        return f"({text})" if node.value < 0 else text
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Call):
        return f"{node.name}({', '.join(_descent_to_string(a) for a in node.args)})"
    if isinstance(node, Neg):
        inner = _descent_to_string(node.arg)
        if _descent_prec(node.arg) < _PREC_POW:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(node, BinOp):
        mine = _descent_prec(node)
        left = _descent_to_string(node.left)
        right = _descent_to_string(node.right)
        if node.op == "^":
            # right-associative: parenthesize an exponent-like left child
            if _descent_prec(node.left) <= _PREC_POW:
                left = f"({left})"
            if _descent_prec(node.right) < _PREC_POW:
                right = f"({right})"
        else:
            if _descent_prec(node.left) < mine:
                left = f"({left})"
            if _descent_prec(node.right) <= mine:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def _parsed(parser, printer, text):
    """The tree ``parser`` makes of ``text`` and its printed form, or the
    message, offset and hint of its ParseError."""
    try:
        node = parser(text).parse()
    except ParseError as exc:
        return str(exc), exc.offset, exc.expected
    return node, printer(node)


# random token strings, mostly malformed; adjacent names and digits run together
_TOKEN_TEXTS = st.lists(
    st.sampled_from(["x", "t", "2", "0.5", "1e999", "pi", "-", "+", "*", "/", "^",
                     "(", ")", ",", "sin", "besselj", "foo", " ", "@"]),
    max_size=24,
).map("".join)


_OPERATORS = st.sampled_from(["+", "-", "*", "/", "^", " - ", "^-", "*-"])


def _grammar_extend(sub):
    return st.one_of(
        st.tuples(sub, _OPERATORS, sub).map("".join),
        st.tuples(sub, _OPERATORS, sub, _OPERATORS, sub).map("".join),
        sub.map(lambda a: "-" + a),
        sub.map(lambda a: f"({a})"),
        sub.map(lambda a: f"sin({a})"),
        st.tuples(sub, sub).map(lambda a: f"besselj({a[0]}, {a[1]})"),
    )


# well-formed strings built from the grammar
_GRAMMAR_TEXTS = st.recursive(st.sampled_from(["x", "t", "2", "0.5", "pi", "1e3"]),
                              _grammar_extend, max_leaves=12)


@seed(1973)
@settings(max_examples=1000, deadline=None)
@given(text=st.one_of(_TOKEN_TEXTS, _GRAMMAR_TEXTS))
def test_precedence_climbing_parses_as_the_recursive_descent(text):
    assert _parsed(expr_module._Parser, to_string, text) == _parsed(_DescentParser, _descent_to_string, text)


@seed(1973)
@settings(max_examples=500, deadline=None)
@given(node=_ROOTS)
def test_to_string_prints_as_the_descent_printer(node):
    assert to_string(node) == _descent_to_string(node)
