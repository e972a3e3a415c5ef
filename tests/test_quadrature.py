import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from transmute import quadrature
from transmute.conditions import identity_error, identity_rows
from transmute.errors import ConvergenceError, DomainError, UsageError
from transmute.expr import Num, evaluate, parse
from transmute.kernels import get_case, list_cases
from transmute.quadrature import (
    MAX_RULE_ORDER,
    apply_transmutation,
    jacobi_rule,
    transform,
)

EPS = 2.220446049250313e-16


def _jacobi_value(n, alpha, beta, x):
    """P_n^(alpha,beta)(x) by the three-term recurrence."""
    if n == 0:
        return 1.0
    apb = alpha + beta
    pm1 = 1.0
    p = 0.5 * ((alpha - beta) + (apb + 2.0) * x)
    for k in range(2, n + 1):
        a1 = 2.0 * k * (k + apb) * (2.0 * k + apb - 2.0)
        a2 = (2.0 * k + apb - 1.0) * (alpha * alpha - beta * beta)
        a3 = (2.0 * k + apb - 2.0) * (2.0 * k + apb - 1.0) * (2.0 * k + apb)
        a4 = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + apb)
        p, pm1 = ((a2 + a3 * x) * p - a4 * pm1) / a1, p
    return p


def _jacobi_deriv(n, alpha, beta, x):
    return 0.5 * (alpha + beta + n + 1.0) * _jacobi_value(
        n - 1, alpha + 1.0, beta + 1.0, x
    )


def newton_rule(n, alpha, beta):
    """Oracle: Newton on the recurrence with root suppression.

    This was the library's rule before Golub-Welsch. It is O(n^2)
    recurrence evaluations and, for strongly asymmetric weights such as
    (5, -0.7), finds the roots out of order, so the pairs are sorted.
    """
    nodes = []
    for k in range(n):
        r = -math.cos(math.pi * (2.0 * k + 1.0) / (2.0 * n))
        if k > 0:
            r = 0.5 * (r + nodes[k - 1])
        for _ in range(100):
            f = _jacobi_value(n, alpha, beta, r)
            fp = _jacobi_deriv(n, alpha, beta, r)
            suppress = math.fsum(1.0 / (r - xj) for xj in nodes)
            denom = fp - f * suppress
            if denom == 0.0:
                raise ConvergenceError(f"Newton stalled on root {k} of {n}")
            delta = f / denom
            r -= delta
            if abs(delta) <= 1e-15 * (1.0 + abs(r)):
                break
        else:
            raise ConvergenceError(f"root {k} of {n} did not converge")
        nodes.append(r)

    coef = math.exp(
        (alpha + beta + 1.0) * math.log(2.0)
        + math.lgamma(n + alpha + 1.0)
        + math.lgamma(n + beta + 1.0)
        - math.lgamma(n + alpha + beta + 1.0)
        - math.lgamma(n + 1.0)
    )
    pairs = sorted(
        (r, coef / ((1.0 - r * r) * _jacobi_deriv(n, alpha, beta, r) ** 2))
        for r in nodes
    )
    return [r for r, _ in pairs], [w for _, w in pairs]


def _weighted_moment(alpha, beta):
    # integral of (1-s)^alpha (1+s)^beta over [-1, 1]
    return 2.0 ** (alpha + beta + 1.0) * (
        math.gamma(alpha + 1.0) * math.gamma(beta + 1.0)
        / math.gamma(alpha + beta + 2.0)
    )


def test_single_node_legendre():
    rule = jacobi_rule(1, 0.0, 0.0)
    assert rule.nodes == (0.0,)
    assert rule.weights[0] == pytest.approx(2.0, rel=1e-15)


def test_single_node_endpoint_weight():
    # (alpha, beta) = (-1/2, 0): node at 1/3, weight 2 sqrt 2
    rule = jacobi_rule(1, -0.5, 0.0)
    assert rule.nodes[0] == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert rule.weights[0] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)


def test_plain_monomial_integration():
    rule = jacobi_rule(8, 0.0, 0.0)
    got = sum(w * s ** 6 for s, w in zip(rule.nodes, rule.weights))
    assert got == pytest.approx(2.0 / 7.0, rel=1e-14)


@pytest.mark.parametrize("n", [4, 16, 48])
@pytest.mark.parametrize("ab", [(-0.5, 0.0), (0.5, 0.5), (1.5, 0.0), (2.5, -0.3)])
def test_rule_matches_scipy(n, ab):
    alpha, beta = ab
    rule = jacobi_rule(n, alpha, beta)
    ref_x, ref_w = sp.roots_jacobi(n, alpha, beta)
    for got, want in zip(rule.nodes, ref_x):
        assert got == pytest.approx(want, abs=1e-13)
    for got, want in zip(rule.weights, ref_w):
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("ab", [(-0.5, 0.0), (0.5, 0.5), (1.5, 0.0)])
def test_weight_sum_is_the_beta_moment(ab):
    alpha, beta = ab
    for n in (1, 5, 24):
        rule = jacobi_rule(n, alpha, beta)
        assert math.fsum(rule.weights) == pytest.approx(
            _weighted_moment(alpha, beta), rel=1e-12
        )


@pytest.mark.parametrize("n", [3, 10, 25])
def test_degree_exactness_via_orthogonality(n):
    # integrating P_m^{(a,b)} against the weight gives 0 for 1 <= m <= 2n-1
    # and the Beta moment for m = 0; by linearity that is exactness on all
    # polynomials of degree <= 2n-1
    alpha, beta = 0.7, -0.2
    rule = jacobi_rule(n, alpha, beta)
    scale = _weighted_moment(alpha, beta)
    for m in range(2 * n):
        got = math.fsum(
            w * sp.eval_jacobi(m, alpha, beta, s)
            for s, w in zip(rule.nodes, rule.weights)
        )
        want = scale if m == 0 else 0.0
        assert got == pytest.approx(want, abs=1e-12 * scale)


def test_rule_shape_invariants():
    rule = jacobi_rule(32, 1.5, 0.0)
    assert len(rule.nodes) == len(rule.weights) == 32
    assert all(w > 0.0 for w in rule.weights)
    assert all(-1.0 < s < 1.0 for s in rule.nodes)
    assert all(b > a for a, b in zip(rule.nodes, rule.nodes[1:]))


# (alpha, beta): Legendre, Chebyshev (alpha + beta = -1), both endpoints
# near their limits, and two keys drawn by the catalog_sweep benchmark
ORACLE_KEYS = [
    (0.0, 0.0),
    (-0.5, -0.5),
    (-0.99, 0.3),
    (5.0, -0.7),
    (0.025650292598459412, 6.948699414803081),
    (0.25462766793377656, 2.4590499654054936),
]


@pytest.mark.parametrize("n", [1, 2, 3, 8, 64, 128])
@pytest.mark.parametrize("ab", ORACLE_KEYS)
def test_golub_welsch_matches_newton_oracle(n, ab):
    rule = jacobi_rule(n, *ab)
    ref_nodes, ref_weights = newton_rule(n, *ab)
    assert list(rule.nodes) == sorted(rule.nodes)
    for got, want in zip(rule.nodes, ref_nodes):
        assert got == pytest.approx(want, abs=1e-14)
    # Weights agree to 1e-12 relative up to n = 64. Three rounding effects
    # widen that, each measured against a 40-digit reference:
    # - both rules lose digits about linearly in n; at n = 128 each is up
    #   to 1.1e-12 off;
    # - the oracle's (1 - s^2) factor carries the node's rounding, relative
    #   eps/(1 - |s|); near s = 1 at (-0.99, 0.3), n = 128 it is 3.9e-11 off;
    # - mu0 v0^2 is exact to a few eps of the largest weight, so the
    #   smallest weights (7e-17 at (5, -0.7), n = 128) are not relatively
    #   exact.
    rel = 1e-12 * max(1.0, n / 64.0)
    floor = 1e-15 * max(ref_weights)
    for s, got, want in zip(ref_nodes, rule.weights, ref_weights):
        tol = want * (rel + EPS / (1.0 - abs(s))) + floor
        assert abs(got - want) <= tol


def test_rule_order_is_capped_before_allocation(monkeypatch):
    # without numpy any attempt to build the matrix fails loudly
    monkeypatch.setattr(quadrature, "np", None)
    with pytest.raises(UsageError, match="exceeds the maximum"):
        jacobi_rule(MAX_RULE_ORDER + 1, 0.0, 0.0)
    with pytest.raises(UsageError, match="^rule order must be an integer, got inf"):
        jacobi_rule(math.inf, 0.0, 0.0)


def test_rule_order_cap_admits_the_largest_order():
    assert MAX_RULE_ORDER >= 1024
    rule = jacobi_rule(MAX_RULE_ORDER, 0.0, 0.0)
    assert math.fsum(rule.weights) == pytest.approx(2.0, rel=1e-12)


def test_rules_are_cached():
    assert jacobi_rule(16, -0.5, 0.0) is jacobi_rule(16, -0.5, 0.0)


def test_a_cached_rule_is_read_only():
    rule = jacobi_rule(16, -0.5, 0.0)
    for part in (rule.nodes, rule.weights):
        assert part.dtype == float and part.shape == (16,)
        with pytest.raises(ValueError, match="read-only"):
            part[0] = 0.0


def test_rule_cache_is_bounded():
    limit = quadrature._jacobi_rule.cache_info().maxsize
    for k in range(limit + 10):
        jacobi_rule(2, 0.001 * k, 0.5)
    assert quadrature._jacobi_rule.cache_info().currsize == limit


@pytest.mark.parametrize("ab", [(1e6, 0.0), (1.0, 1999999.0), (1e300, 0.0)])
def test_weights_beyond_the_float_range_are_refused_before_the_matrix(monkeypatch, ab):
    # without numpy any attempt to build the matrix fails loudly
    monkeypatch.setattr(quadrature, "np", None)
    with pytest.raises(UsageError, match="beyond the float range"):
        jacobi_rule(64, *ab)


@pytest.mark.parametrize(
    "args,needle",
    [
        ((0, 0.0, 0.0), "positive integer"),
        ((1.5, 0.0, 0.0), "^rule order must be an integer, got 1.5"),
        ((4, -1.0, 0.0), "exceed -1"),
        ((4, 0.0, -2.0), "exceed -1"),
        ((4, math.nan, 0.0), "alpha must be a finite number"),
        ((4, 0.0, math.inf), "finite"),
        ((math.nan, 0.0, 0.0), "^rule order must be an integer, got nan"),
        # each of these ended in a TypeError or a ValueError
        (("8", 0.0, 0.0), "^rule order must be an integer, got '8'"),
        ((None, 0.0, 0.0), "^rule order must be an integer, got None"),
        (([8], 0.0, 0.0), "^rule order must be an integer, got "),
        ((8, "abc", 0.0), "^Jacobi exponent alpha must be a finite number, got 'abc'"),
        ((8, 0.0, 1j), "^Jacobi exponent beta must be a finite number"),
        ((8, 0.0, np.complex128(0.5)), "^Jacobi exponent beta must be a finite number"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_rule_validation(args, needle):
    with pytest.raises(UsageError, match=needle):
        jacobi_rule(*args)


def test_weight_extraction_closed_form():
    # with f == 1 the poisson transform at nu = 1 is x^1.5 / 2 exactly
    case = get_case("poisson_bessel")
    for x in (0.7, 1.5):
        got = transform(case, Num(1.0), 0.0, x, 64)
        assert got == pytest.approx(0.5 * x ** 1.5, rel=1e-12)
    assert transform(case, Num(1.0), 0.0, 1.5, 64) == pytest.approx(
        0.91855865354369179, rel=1e-12
    )


def test_transform_is_linear():
    case = get_case("poisson_bessel")
    f = parse("cos(t)")
    g = parse("t^2/(1+t)")
    combo = parse("3*cos(t) - 2*t^2/(1+t)")
    x = 1.9
    lhs = transform(case, combo, 0.0, x, 48)
    rhs = 3.0 * transform(case, f, 0.0, x, 48) - 2.0 * transform(case, g, 0.0, x, 48)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def test_transform_validation():
    case = get_case("poisson_bessel")
    with pytest.raises(UsageError, match="x > 0"):
        transform(case, Num(1.0), 0.0, 0.0)
    with pytest.raises(UsageError, match="at least 8"):
        apply_transmutation(case, 1.0, 4)
    # abscissae x nodes above the point budget are refused before evaluation
    with pytest.raises(UsageError, match="1025 abscissae x 64 nodes exceed"):
        transform(case, Num(1.0), 0.0, np.linspace(0.1, 2.0, 1025), 64)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("x,n", [([1 + 0j], 64), (np.array([1.0, 2.0 + 1j]), 64), ([[1.0], [1.0, 2.0]], 64),
                                 (None, 64), (1.0, "abc"), (1.0, None)],
                         ids=["complex", "complex_array", "ragged", "None", "order_text", "order_None"])
def test_abscissae_or_an_order_that_are_no_real_numbers_are_refused(x, n):
    # the complex abscissae were cast to their real part in silence; the others ended
    # in a TypeError or a ValueError
    needle = "^(transform's x must be real numbers|quadrature order must be an integer), got "
    with pytest.raises(UsageError, match=needle):
        apply_transmutation(get_case("sonin"), x, n)


# an order is read by the count rule: each of these built a rule or ran a transform
# (True a 1-node rule), and a numpy integer order wrapped the point budget's product
NON_INTEGER_ORDERS = [
    (lambda case: jacobi_rule(True, 0.0, 0.0), "rule order", "True"),
    (lambda case: jacobi_rule(8.0, 0.0, 0.0), "rule order", "8.0"),
    (lambda case: jacobi_rule(np.float64(8.0), 0.0, 0.0), "rule order", r"np.float64\(8.0\)"),
    (lambda case: jacobi_rule(np.bool_(True), 0.0, 0.0), "rule order", r"np.True_"),
    (lambda case: apply_transmutation(case, 1.0, 64.0), "quadrature order", "64.0"),
    (lambda case: apply_transmutation(case, 1.0, True), "quadrature order", "True"),
    (lambda case: transform(case, case.f0_smooth, case.f0_t_exponent, 1.0, 64.0), "rule order", "64.0"),
    (lambda case: identity_rows(case, [1.0], 64.0), "quadrature order", "64.0"),
    (lambda case: identity_error(case, n=math.inf), "quadrature order", "inf"),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run,what,got", NON_INTEGER_ORDERS,
                         ids=["rule_True", "rule_float", "rule_float64", "rule_bool_", "apply_float", "apply_True",
                              "transform_float", "identity_rows_float", "identity_error_inf"])
def test_an_order_that_is_no_integer_is_refused(run, what, got):
    with pytest.raises(UsageError, match=f"^{what} must be an integer, got {got}$"):
        run(get_case("sonin"))


@pytest.mark.filterwarnings("error")
def test_a_numpy_integer_order_is_read_as_its_int():
    assert np.array_equal(jacobi_rule(np.int16(8), 0.5, 0.0).nodes, jacobi_rule(8, 0.5, 0.0).nodes)
    case = get_case("sonin")
    assert apply_transmutation(case, 1.0, np.uint8(64)) == apply_transmutation(case, 1.0, 64)
    # 1025 x np.int16(64) wrapped to a product inside the budget, with a numpy overflow warning
    with pytest.raises(UsageError, match="1025 abscissae x 64 nodes exceed"):
        transform(get_case("poisson_bessel"), Num(1.0), 0.0, np.linspace(0.1, 2.0, 1025), np.int16(64))


@pytest.mark.filterwarnings("error")
def test_an_abscissa_whose_nodes_overflow_is_refused_without_a_numpy_warning():
    # x (1 + node) / 2 overflows for the upper nodes at x = 1e308; numpy warned of it first
    with pytest.raises(DomainError, match="non-finite value bound to t at x=1e"):
        apply_transmutation(get_case("sonin"), 1e308)


@pytest.mark.parametrize("name", list_cases())
def test_identity_reproduced_for_every_case(name):
    assert identity_error(get_case(name)) <= 1e-10


@pytest.mark.parametrize("name", ["sonin", "lowndes"])
def test_identity_rows_are_the_transform_f1_and_their_relative_gap(name):
    case = get_case(name)
    xs = [0.3, 1.1, 2.5]
    lhs, f1, rel = identity_rows(case, xs)
    assert np.array_equal(lhs, apply_transmutation(case, np.array(xs)))
    assert f1.tolist() == [evaluate(case.f1, {**case.params, "x": x}) for x in xs]
    assert np.array_equal(rel, np.abs(lhs - f1) / (1.0 + np.abs(f1)))
    assert identity_error(case, xs) == rel.max()
    with pytest.raises(UsageError, match="at least one abscissa"):
        identity_rows(case, [])


@pytest.mark.parametrize("name", ["sonin", "lowndes", "gegenbauer"])
def test_error_decreases_with_order_until_the_floor(name):
    case = get_case(name)
    prev = None
    for n in (16, 32, 64):
        err = identity_error(case, n=n)
        if prev is not None:
            assert err <= max(prev * 1.05, 1e-10)
        prev = err
    assert prev <= 1e-10


def test_apply_transmutation_values_match_f1():
    case = get_case("vekua_telegraph", {"omega": 0.0})
    got = apply_transmutation(case, 1.0)
    assert got == pytest.approx(math.sin(1.0), rel=1e-13)


@settings(max_examples=25)
@given(x=st.floats(0.3, 2.9))
def test_half_integer_poisson_reduces_to_sine(x):
    case = get_case("poisson_bessel", {"nu": 0.5})
    want = math.sqrt(2.0 / math.pi) * math.sin(x)
    assert apply_transmutation(case, x) == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_transform_of_an_array_is_the_transform_at_each_abscissa():
    case = get_case("lowndes")
    xs = np.array([0.3, 1.1, 2.9])
    got = apply_transmutation(case, xs)
    assert got.shape == xs.shape
    for x, g in zip(xs.tolist(), got.tolist()):
        assert g == pytest.approx(apply_transmutation(case, x), rel=1e-15, abs=1e-300)
    with pytest.raises(UsageError, match="x > 0"):
        apply_transmutation(case, np.array([1.0, -1.0]))


def test_transform_takes_a_sequence_of_abscissae():
    case = get_case("lowndes")
    got = apply_transmutation(case, [0.3, 1.1, 2.9])
    assert type(got) is np.ndarray
    assert got.tolist() == apply_transmutation(case, np.array([0.3, 1.1, 2.9])).tolist()
    grid = apply_transmutation(case, [[0.3, 1.1], [2.9, 1.7]])
    assert grid.shape == (2, 2)
    assert grid.ravel().tolist() == apply_transmutation(case, [0.3, 1.1, 2.9, 1.7]).tolist()
    assert type(apply_transmutation(case, np.array(1.1))) is float
    with pytest.raises(UsageError, match=r"x > 0, got \[1.0, 0.0\]"):
        apply_transmutation(case, [1.0, 0.0])
    with pytest.raises(UsageError, match="transform's x must be real numbers"):
        apply_transmutation(case, [1.0, "a"])
