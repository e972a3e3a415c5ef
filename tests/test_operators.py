import math

import numpy as np
import pytest

from transmute.errors import DomainError, TransmuteError, UsageError
from transmute.expr import evaluate, evaluate_jet, parse
from transmute.kernels import get_case, list_cases
from transmute.operators import (
    DifferentialOperator,
    apply,
    eigen_residual,
)


def _nondiv(a, b, c):
    return DifferentialOperator("x", parse(a), parse(b), parse(c))


def _div(a, b, c):
    return DifferentialOperator("t", parse(a), parse(b), parse(c))


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
    with pytest.raises(TransmuteError, match="must be 'x' or 't'"):
        DifferentialOperator("z", parse("1"), parse("0"), parse("0"))


def test_function_must_live_in_operator_variable():
    op = _nondiv("1", "0", "0")
    with pytest.raises(UsageError, match=r"may only depend on 'x'.*\['t'\]"):
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


def _terms_over_arrays(op, f, pt, params):
    """``apply``'s three terms with every coefficient evaluated over the points,
    constant or not: the reference that float constant coefficients must match bit for bit."""
    x = pt if op.var == "x" else 0.0
    t = pt if op.var == "t" else 0.0

    def along(e):
        j = evaluate_jet(e, x, t, params)
        return (j.value, j.dx, j.dxx) if op.var == "x" else (j.value, j.dt, j.dtt)
    f0, f1, f2 = along(f)
    if op.var == "x":
        a, b, c = (evaluate(e, {**params, "x": pt}) for e in (op.a, op.b, op.c))
        return a * f2, b * f1, c * f0
    a, ap, _ = along(op.a)
    b, bp, _ = along(op.b)
    c = evaluate(op.c, {**params, "t": pt})
    return a * f2, (ap + b) * f1, (bp + c) * f0


def _pairs(name):
    """(operator, function, lambda, params) of a catalog case's eigen relations,
    shifted ones included, and of two hand-built pairs with constant coefficients."""
    if name == "hand-built":
        params = {"omega": 0.8, "mu": 1.3}
        return [
            (_div("2", "-0.5", "omega^2"), parse("sin(omega*t)"), -1.0, params),
            (_nondiv("-1", "0", "omega^2+mu^2"), parse("x*exp(-x)"), 0.5, params),
        ]
    case = get_case(name)
    pairs = [(case.opA, case.f0, case.lam, case.params), (case.opB, case.f1, case.lam, case.params)]
    if case.eigen_shift:
        shift = case.eigen_shift
        pairs += [(shift.opA, case.f0, shift.lam_a, case.params), (shift.opB, case.f1, shift.lam_b, case.params)]
    return pairs


@pytest.mark.parametrize("name", list_cases() + ["hand-built"])
def test_constant_coefficients_change_no_bit(name):
    pt = np.linspace(0.2, 3.0, 20)
    for op, f, lam, params in _pairs(name):
        terms = _terms_over_arrays(op, f, pt, params)
        want = terms[0] + terms[1] + terms[2]
        got = apply(op, f, pt, params)
        assert got.shape == pt.shape and got.tobytes() == want.tobytes()
        target = lam * evaluate(f, {**params, op.var: pt})
        # the scale is 1 + the largest of the three terms and lam f
        r = np.abs(want - target) / (1.0 + np.max(np.abs([*terms, target]), axis=0))
        stats = eigen_residual(op, f, lam, pt.tolist(), params)
        assert (stats["max"], stats["mean"]) == (float(r.max()), math.fsum(r.tolist()) / len(r))
