import math

import pytest

from transmute.errors import DomainError, TransmuteError
from transmute.expr import parse
from transmute.operators import (
    DifferentialOperator,
    apply,
    eigen_residual,
)


def _nondiv(a, b, c, var="x", h=0.0):
    return DifferentialOperator("nondivergence", var, parse(a), parse(b), parse(c), h)


def _div(a, b, c, var="t", h=0.0):
    return DifferentialOperator("divergence", var, parse(a), parse(b), parse(c), h)


def test_nondivergence_expansion():
    # a f'' + b f' + c f with f = x^3 at x = 2: 1*12 + x*12 + 2*8
    op = _nondiv("1", "x", "2")
    assert apply(op, parse("x^3"), 2.0, {}) == pytest.approx(52.0)


def test_divergence_expansion():
    # d/dt(a f') with a = t^2 unfolds to 2t f' + t^2 f''
    op = _div("t^2", "0", "0")
    t = 0.7
    want = 2 * t * math.cos(t) - t * t * math.sin(t)
    assert apply(op, parse("sin(t)"), t, {}) == pytest.approx(want, rel=1e-13)


def test_divergence_b_term_is_differentiated():
    # d/dt(b f) contributes b' f + b f'; with b = t^2, f = t: 2t*t + t^2
    op = _div("0", "t^2", "0")
    assert apply(op, parse("t"), 1.5, {}) == pytest.approx(3 * 1.5 ** 2)


def test_parameters_flow_into_coefficients():
    op = _nondiv("1", "0", "omega^2")
    got = apply(op, parse("x"), 2.0, {"omega": 3.0})
    assert got == pytest.approx(18.0)


def test_operator_form_validation():
    with pytest.raises(TransmuteError, match="unknown operator form"):
        DifferentialOperator("sideways", "t", parse("1"), parse("0"), parse("0"))
    with pytest.raises(TransmuteError, match="must be 'x' or 't'"):
        DifferentialOperator("divergence", "z", parse("1"), parse("0"), parse("0"))


def test_function_must_live_in_operator_variable():
    op = _nondiv("1", "0", "0")
    with pytest.raises(DomainError, match="also references 't'"):
        apply(op, parse("t^2"), 1.0, {})


def test_eigen_residual_on_exact_eigenfunction():
    # f'' = -omega^2 f for f = sin(omega t)
    op = _div("1", "0", "0")
    grid = [0.1 * k for k in range(1, 20)]
    out = eigen_residual(op, parse("sin(omega*t)"), -4.0, grid, {"omega": 2.0})
    assert out["max"] <= 1e-13
    assert out["count"] == len(grid)


def test_eigen_residual_detects_wrong_lambda():
    op = _div("1", "0", "0")
    out = eigen_residual(op, parse("sin(t)"), -2.0, [0.5, 1.0, 1.5], {})
    assert out["max"] > 0.1


def test_eigen_residual_is_relative():
    # same miss, hugely scaled eigenfunction: the relative residual
    # must not balloon with the amplitude
    op = _div("1", "0", "0")
    small = eigen_residual(op, parse("sin(t)"), -1.0, [0.4, 0.9], {})
    big = eigen_residual(op, parse("1e8*sin(t)"), -1.0, [0.4, 0.9], {})
    assert big["max"] <= max(10 * small["max"], 1e-7)


def test_eigen_residual_empty_grid():
    op = _div("1", "0", "0")
    with pytest.raises(TransmuteError, match="non-empty grid"):
        eigen_residual(op, parse("sin(t)"), -1.0, [], {})


def test_eigen_residual_annotates_failing_point():
    op = _nondiv("1", "0", "1/x")
    with pytest.raises(DomainError, match=r"at x=0\.0"):
        eigen_residual(op, parse("x"), 0.0, [1.0, 0.0], {})

