"""Characteristic-lattice solver against closed-form kernels.

The telegraph pair is the workhorse: c1 - c0 = mu^2 with everything else
zero has the exact solution J0(mu sqrt(x^2 - t^2)), and flipping the sign
gives the I0 variant. Robin data is exercised with K = exp(t/2).
"""

import dataclasses
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from transmute.errors import NumericalError, UsageError
from transmute.expr import BinOp, Num, evaluate, free_symbols, parse
from transmute.goursat import (
    MAX_STEPS,
    GoursatProblem,
    TriangleGrid,
    _cell_weights,
    _coefficient_tables,
    _offset,
    compare,
    diagonal_values,
    problem_from_case,
    solve,
)
from transmute.kernels import get_case
from transmute.operators import DifferentialOperator
from transmute.quadrature import jacobi_rule


def _gp(sigma=1.0, b0="0", b1="0", c0="0", c1="0", **fields):
    """The problem of A = (sigma, b0, c0) in t and B = (sigma, b1, c1) in x."""
    return GoursatProblem(
        DifferentialOperator("t", Num(sigma), parse(b0), parse(c0)),
        DifferentialOperator("x", Num(sigma), parse(b1), parse(c1)),
        **fields,
    )


def _remade(problem, **changes):
    """``problem`` built again from its arguments, with ``changes``: nothing it caches carries over."""
    args = ("op_a", "op_b", "h0", "kappa", "X", "h", "params")
    return GoursatProblem(**{**{k: getattr(problem, k) for k in args}, **changes})


def _telegraph(h, sign="", X=2.0):
    return _gp(
        sigma=1.0, b0="0", b1="0", c0="0", c1=sign + "mu^2",
        X=X, h=h, params={"mu": 1.0},
    )


def test_trivial_problem_is_exact():
    grid = solve(_gp(sigma=1.0, b0="0", b1="0", c0="0", c1="0",
                     X=1.0, h=1.0 / 16.0))
    stats = compare(grid, "1")
    assert stats["max"] == 0.0


def test_telegraph_kernel():
    grid = solve(_telegraph(1.0 / 128.0))
    stats = compare(grid, "besselj(0, mu*sqrt(x^2-t^2))", {"mu": 1.0})
    assert stats["max"] <= 5e-7
    assert stats["l2"] <= stats["max"]
    # u-index runs over 2N+1 levels for N = X/h steps
    assert stats["count"] == sum(min(i, 512 - i) + 1 for i in range(513))


def test_telegraph_converges_at_second_order():
    errs = []
    for h in (1.0 / 32.0, 1.0 / 64.0, 1.0 / 128.0):
        stats = compare(solve(_telegraph(h)), "besselj(0, mu*sqrt(x^2-t^2))",
                        {"mu": 1.0})
        errs.append(stats["max"])
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(1.8 <= o <= 2.2 for o in orders)


# Telegraph draws where a march that folds the weight deviations into 1 + w
# leaves second order (observed 0.95, 2.96 and 1.61): see _cell_weights.
@pytest.mark.parametrize("mu,omega", [(0.5125, 0.757), (0.6, 1.08), (0.648, 0.868)])
def test_ladder_order_on_the_coarse_sublattice(mu, omega):
    # the benchmark ladder: X = 2, h = 1/256, 1/512, 1/1024, max error on the
    # h = 1/32 sublattice, order from the first and last rungs
    case = get_case("vekua_telegraph", {"mu": mu, "omega": omega})
    ij = [(i, j) for i in range(129) for j in range(min(i, 128 - i) + 1)]
    i, j = np.array(ij).T
    ref = evaluate(case.kernel, {**case.params, "x": (i + j) / 64.0, "t": (i - j) / 64.0})
    errors = []
    for steps in (256, 512, 1024):
        grid = solve(problem_from_case(case, X=2.0, h=1.0 / steps))
        r = steps // 32
        errors.append(max(abs(grid.value(a * r, b * r) - k) for (a, b), k in zip(ij, ref.tolist())))
    order = math.log2(errors[0] / errors[-1]) / 2.0
    assert 1.9 <= order <= 2.1, errors


def test_sign_flipped_telegraph_gives_i0():
    grid = solve(_telegraph(1.0 / 64.0, sign="-"))
    stats = compare(grid, "besseli(0, mu*sqrt(x^2-t^2))", {"mu": 1.0})
    assert stats["max"] <= 5e-6


def _robin(h):
    # K = exp(t/2) satisfies the pair and the Robin relation with h0 = 1/2
    return _gp(
        sigma=1.0, b0="0", b1="-1", c0="0", c1="0.25",
        h0=0.5, X=2.0, h=h,
    )


def test_robin_boundary_reproduces_exponential():
    errs = []
    for h in (1.0 / 64.0, 1.0 / 128.0):
        errs.append(compare(solve(_robin(h)), "exp(t/2)")["max"])
    assert errs[0] <= 2e-4 and errs[1] <= 5e-5
    assert 3.0 <= errs[0] / errs[1] <= 5.0  # second order at the wall too


def solve_even(problem):
    """Full-square march with t replaced by |t|: an oracle for the Neumann
    ghost cell.

    t -> -t is a symmetry of the identity only when b0 = 0 and h0 = 0, so
    any other problem is refused.
    """
    top = 2 * problem.steps
    b0t, c0t, b1x, c1x = _coefficient_tables(problem, top)
    if problem.h0 != 0.0 or np.any(b0t != 0.0):
        raise UsageError("even-extension marching requires b0 = 0 and h0 = 0")
    sigma, h = problem.sigma, problem.h
    diag = diagonal_values(problem, [d * h / 2.0 for d in range(top + 1)])
    full = [np.array([diag[0]])]
    for d in range(1, top + 1):
        lvl = np.empty(d + 1)
        lvl[0] = lvl[d] = diag[d]
        if d >= 2:
            js = np.arange(1, d)
            m = np.abs(d - 2 * js)
            s, q, c = full[d - 1][js], full[d - 1][js - 1], full[d - 2][js - 1]
            w_s, w_q, w_c = _cell_weights(sigma, h, b0t[m], b1x[d - 1], c0t[m], c1x[d - 1])
            lvl[1:d] = (s + q - c) + ((w_s * s + w_q * q) + w_c * c)
        full.append(lvl)
    values = np.concatenate([lvl[: d // 2 + 1] for d, lvl in enumerate(full)])
    return TriangleGrid(h=h, values=values, boundary="neumann")


def diagonal_panel_loop(problem, xs):
    """Transport data panel by panel, one scalar evaluation per node: an
    oracle for the array version in ``diagonal_values``."""
    exponent = -problem.rho / (2.0 * problem.sigma)
    if problem.kappa == 0.0:
        return [0.0 for _ in xs]

    def smooth(s):
        value = (evaluate(problem.op_b.b, {**problem.params, "x": s})
                 - evaluate(problem.op_a.b, {**problem.params, "t": s}))
        return value - problem.rho / s if problem.rho != 0.0 else value

    gl = jacobi_rule(32, 0.0, 0.0)
    panel = problem.h / 2.0
    out = [0.0] * len(xs)
    integral = 0.0
    reached = 0.0
    for idx in sorted(range(len(xs)), key=lambda k: xs[k]):
        x = xs[idx]
        while reached < x - 1e-15 * max(1.0, x):
            top = min(reached + panel, x)
            half = 0.5 * (top - reached)
            mid = 0.5 * (top + reached)
            integral += half * math.fsum(
                w * smooth(mid + half * s) for s, w in zip(gl.nodes, gl.weights)
            )
            reached = top
        if x == 0.0:
            out[idx] = problem.kappa if exponent == 0.0 else 0.0
        else:
            out[idx] = (problem.kappa * x ** exponent
                        * math.exp(-integral / (2.0 * problem.sigma)))
    return out


def cell_two_sweep(sigma, h, S, Q, base_corner, b0v, b1s, c0v, c1s):
    """The cell rule as two full predictor-corrector sweeps, each taking
    K_u, K_v and K at the midpoint afresh: an oracle for the fused
    ``_cell_weights``."""
    base = S + Q - base_corner
    p = base
    for _ in range(2):
        ku = (p + Q - S - base_corner) / (2.0 * h)
        kv = (p + S - Q - base_corner) / (2.0 * h)
        km = (p + S + Q + base_corner) / 4.0
        f = -((b0v + b1s) * ku + (b1s - b0v) * kv + (c1s - c0v) * km) / (
            4.0 * sigma
        )
        p = base + h * h * f
    return p


def _theta(problem):
    """The Robin factor b0(0) + h0 sigma of the t = 0 wall."""
    return evaluate(problem.op_a.b, {**problem.params, "t": 0.0}) + problem.h0 * problem.sigma


def march_two_sweep(problem):
    """The march with scalar coefficient tables, the panel-loop diagonal,
    index gathers and the two-sweep cell: an oracle for ``solve``.

    Only the closures the agreement tests use: the Robin wall when theta
    is nonzero, else the Neumann ghost cell (b0 regular at 0).
    """
    sigma, h = problem.sigma, problem.h
    top = 2 * problem.steps
    tab = {}
    for digit, op in (("0", problem.op_a), ("1", problem.op_b)):
        for slot in "bc":
            tab[slot + digit] = np.array([
                evaluate(getattr(op, slot), {**problem.params, op.var: m * (h / 2.0)})
                for m in range(top + 1)
            ])
    b0t, c0t, b1x, c1x = (tab[k] for k in ("b0", "c0", "b1", "c1"))
    diag = diagonal_panel_loop(problem, [d * h / 2.0 for d in range(top + 1)])
    theta = _theta(problem)
    levels = [np.array([diag[0]])]
    for d in range(1, top + 1):
        lvl = np.empty(d // 2 + 1)
        lvl[0] = diag[d]
        prev, prev2 = levels[d - 1], levels[d - 2] if d >= 2 else None
        j_hi = (d - 1) // 2
        if j_hi >= 1:
            js = np.arange(1, j_hi + 1)
            lvl[1:j_hi + 1] = cell_two_sweep(
                sigma, h, prev[js], prev[js - 1], prev2[js - 1],
                b0t[d - 2 * js], b1x[d - 1], c0t[d - 2 * js], c1x[d - 1])
        if d % 2 == 0:
            j0 = d // 2
            if abs(theta) > 1e-13:
                if j0 >= 2:
                    lvl[j0] = (sigma * (4.0 * lvl[j0 - 1] - lvl[j0 - 2])
                               / (3.0 * sigma + 2.0 * h * theta))
                else:
                    lvl[j0] = sigma * lvl[j0 - 1] / (sigma + h * theta)
            else:
                ghost = prev[j0 - 1]
                lvl[j0] = cell_two_sweep(sigma, h, ghost, ghost, prev2[j0 - 1],
                                         b0t[0], b1x[d - 1], c0t[0], c1x[d - 1])
        levels.append(lvl)
    return levels


@pytest.mark.parametrize("problem", [
    _telegraph(1.0 / 64.0),
    _robin(1.0 / 64.0),
    # every coefficient nonzero, so each term of the fused cell is exercised
    _gp(sigma=1.0, b0="t", b1="0.5*x", c0="0.3*t", c1="1+x",
        X=1.0, h=1.0 / 64.0),
    _gp(sigma=-1.0, b0="1+t", b1="0.5*x", c0="0.3*t", c1="1+x",
        h0=0.5, X=1.0, h=1.0 / 64.0),
], ids=["telegraph", "robin", "ghost_all_terms", "robin_all_terms"])
def test_fused_march_matches_two_sweep_oracle(problem):
    grid = solve(problem)
    assert grid.boundary == ("robin" if abs(_theta(problem)) > 1e-13 else "neumann")
    oracle = np.concatenate(march_two_sweep(problem))
    assert grid.values.shape == oracle.shape
    np.testing.assert_allclose(grid.values, oracle, rtol=1e-12, atol=0.0)


def march_per_level(problem):
    """The level loop ``solve`` had before its per-call overhead was cut,
    kept verbatim (each level re-slicing its buffers and testing its weight
    types, the wall read as numpy scalars): an oracle that ``solve`` must
    match bit for bit, since only Python-level dispatch was removed."""
    sigma, h = problem.sigma, problem.h
    top = 2 * problem.steps
    b0t, c0t, b1x, c1x = _coefficient_tables(problem, top)
    theta = b0t[0] + problem.h0 * sigma
    flavor = "robin" if abs(theta) > 1e-13 else "neumann"
    ghost_cell = flavor == "neumann" and not math.isnan(b0t[0])
    if ghost_cell and math.isnan(c0t[0]):
        raise UsageError("Neumann ghost cell needs c0 regular at t = 0")
    slope = sigma * theta if flavor == "robin" else 0.0
    offsets = _offset(np.arange(top + 1)).tolist()
    values = np.empty(_offset(top + 1))
    values[offsets] = diagonal_values(problem, np.arange(top + 1) * h / 2.0)
    b0, c0 = (
        float(tab[0]) if "t" not in free_symbols(expr)
        else (tab[::2][::-1].copy(), tab[1::2][::-1].copy())
        for expr, tab in ((problem.op_a.b, b0t), (problem.op_a.c, c0t))
    )
    acc, tmp = np.empty(problem.steps), np.empty(problem.steps)
    with np.errstate(over="ignore", invalid="ignore"):
        t0_weights = list(zip(*(
            w.tolist() for w in _cell_weights(sigma, h, b0t[0], b1x[:-1], c0t[0], c1x[:-1]))))
        for d in range(2, top + 1):
            o2, o1, o0 = offsets[d - 2], offsets[d - 1], offsets[d]
            n, lo = (d - 1) // 2, (top - d) // 2 + 1
            w_s, w_q, w_c = t0_weights[d - 1] if type(b0) is type(c0) is float else _cell_weights(
                sigma, h, b0 if type(b0) is float else b0[d % 2][lo : lo + n], b1x[d - 1],
                c0 if type(c0) is float else c0[d % 2][lo : lo + n], c1x[d - 1],
            )
            s, q, c = values[o1 + 1 : o1 + n + 1], values[o1 : o1 + n], values[o2 : o2 + n]
            out, a, t = values[o0 + 1 : o0 + n + 1], acc[:n], tmp[:n]
            np.multiply(w_s, s, out=a)
            np.multiply(w_q, q, out=t)
            np.add(a, t, out=a)
            np.multiply(w_c, c, out=t)
            np.add(a, t, out=a)
            np.add(s, q, out=out)
            np.subtract(out, c, out=out)
            np.add(out, a, out=out)
            if d % 2 == 0 and ghost_cell:
                w_s, w_q, w_c = t0_weights[d - 1]
                g, c = values[o1 + n], values[o2 + n]
                values[o0 + n + 1] = (g + g - c) + ((w_s * g + w_q * g) + w_c * c)
            elif d % 2 == 0 and n:
                wall = 4.0 * values[o0 + n] - values[o0 + n - 1]
                values[o0 + n + 1] = wall / (3.0 + 2.0 * h * slope)
            elif d % 2 == 0:
                values[o0 + 1] = values[o0] / (1.0 + h * slope)
    return flavor, values


@pytest.mark.parametrize("problem", [
    *(_telegraph(h) for h in (1.0 / 64.0, 1.0 / 100.0, 1.0 / 256.0)),
    _telegraph(1.0 / 64.0, sign="-"),
    _robin(1.0 / 64.0),
    # b0 and c0 read t: array weights; then c0 alone does
    _gp(sigma=1.0, b0="t", b1="0.5*x", c0="0.3*t", c1="1+x", X=1.0, h=1.0 / 64.0),
    _gp(sigma=-1.0, b0="1+t", b1="0.5*x", c0="0.3*t", c1="1+x", h0=0.5, X=1.0, h=1.0 / 64.0),
    _gp(sigma=1.0, b0="0", b1="0", c0="0.3*t", c1="mu^2", X=2.0, h=1.0 / 64.0, params={"mu": 1.0}),
    # b0 = -3/t is singular at the wall: K_t = 0 one-sided
    problem_from_case(get_case("lowndes", {"mu": 0.0}), X=2.0, h=1.0 / 128.0),
    # no first-order term, c0 free of t: wS == wQ and wC == 0 on levels 2..2N, and
    # poisson_bessel's c1 is singular at x = 0, so level 1's weights are NaN
    problem_from_case(get_case("poisson_bessel", {"nu": 0.5}), X=2.0, h=1.0 / 128.0),
    _gp(b0="0", b1="0", c0="0.3", c1="-x", X=1.0, h=1.0 / 64.0),
    _gp(b0="0", b1="0", c0="0.3", c1="-x", h0=0.7, X=1.0, h=1.0 / 64.0),
    # near misses: wS != wQ, wC != 0, array weights
    _gp(b0="0.1", b1="0", c0="0.3", c1="-x", X=1.0, h=1.0 / 64.0),
    _gp(b0="0", b1="0.5/x", c0="0.3", c1="-x", kappa=0.0, X=1.0, h=1.0 / 64.0),
    _gp(b0="0", b1="0", c0="0.3*t", c1="-x", X=1.0, h=1.0 / 64.0),
], ids=["telegraph64", "telegraph100", "telegraph256", "sign_flip", "robin",
        "ghost_all_terms", "robin_all_terms", "c0_reads_t", "lowndes_mu0",
        "poisson_bessel_half", "paired_neumann", "paired_robin",
        "b0_nonzero", "b1_nonzero", "c0_reads_t_paired_b"])
def test_march_keeps_its_bits(problem):
    flavor, values = march_per_level(problem)
    grid = solve(problem)
    assert grid.boundary == flavor
    assert np.array_equal(grid.values, values)
    assert grid.values.tobytes() == values.tobytes()  # signed zeros too


@pytest.mark.parametrize("b0,calls", [("0", 1), ("0.1", 3)], ids=["telegraph", "b0_nonzero"])
def test_a_pair_without_first_order_terms_multiplies_once_a_level(monkeypatch, b0, calls):
    # X = 1, h = 1/64: levels 2..128 are marched
    count = 0
    multiply = np.multiply

    def spy(*args, **kwargs):
        nonlocal count
        count += 1
        return multiply(*args, **kwargs)

    problem = _gp(b0=b0, c1="mu^2", X=1.0, h=1.0 / 64.0, params={"mu": 1.0})
    monkeypatch.setattr("transmute.goursat.np.multiply", spy)
    solve(problem)
    assert count == calls * 127


def _lattice_xs(problem):
    return [d * problem.h / 2.0 for d in range(2 * problem.steps + 1)]


# every GoursatProblem this file builds, by the name of its test
DIAGONAL_PROBLEMS = {
    "trivial": dict(sigma=1.0, b0="0", b1="0", c0="0", c1="0", X=1.0, h=1.0 / 16.0),
    "telegraph": dict(sigma=1.0, b0="0", b1="0", c0="0", c1="mu^2",
                      X=2.0, h=1.0 / 32.0, params={"mu": 1.0}),
    "robin": dict(sigma=1.0, b0="0", b1="-1", c0="0", c1="0.25", h0=0.5,
                  X=2.0, h=1.0 / 64.0),
    "even_b0": dict(sigma=1.0, b0="t", b1="0", c0="0", c1="0", X=1.0, h=1.0 / 8.0),
    "power_law": dict(sigma=1.0, b0="0", b1="1/x", c0="0", c1="0", X=2.0, h=1.0 / 16.0),
    "gaussian": dict(sigma=1.0, b0="0", b1="2*x", c0="0", c1="0", X=2.0, h=1.0 / 16.0),
    "kappa_zero": dict(sigma=1.0, b0="0", b1="1/x", c0="0", c1="0",
                       kappa=0.0, X=2.0, h=1.0 / 16.0),
    "c0_singular": dict(sigma=1.0, b0="0", b1="0", c0="1/t", c1="0", X=1.0,
                        h=1.0 / 8.0),
    "b0_singular": dict(sigma=1.0, b0="-1/t", b1="0", c0="0", c1="0", X=1.0,
                        h=1.0 / 8.0),
    "divergent": dict(sigma=-1.0, b0="0", b1="0", c0="0", c1="1e8", X=2.0, h=1.0 / 16.0),
    "geometry": dict(sigma=1.0, b0="0", b1="0", c0="0", c1="0", X=1.0, h=0.25),
    "sigma_minus_b": dict(sigma=-1.0, b0="t^2", b1="sin(x)", c0="0", c1="0",
                          X=1.5, h=1.0 / 32.0),
}


# catalog cases, at parameters where K(x,x) does not vanish
CATALOG_PROBLEMS = {
    "vekua_telegraph": {},
    "lowndes": {"mu": 0.0},  # b0 and b1 singular, the poles cancel
    "sonin": {"nu": 0.0},
    "sine_to_bessel": {"beta": 1.0},  # rho = -2
}


def _off_the_wall(case):
    """``case`` with the kernel x in place of one that vanishes on t = 0,
    which ``problem_from_case`` refuses; the operators, and so rho, stay
    (and for sine_to_bessel at beta = 1, where p_diag = 0 and the smooth
    factor is 1, so does K(x,x) = x)."""
    if case.kernel_t_exponent == 0.0:
        return case
    return dataclasses.replace(case, kernel_smooth=parse("x"), kernel_t_exponent=0.0)


@pytest.mark.parametrize("problem", [
    *(_gp(**kw) for kw in DIAGONAL_PROBLEMS.values()),
    *(problem_from_case(_off_the_wall(get_case(name, params)), X=2.0, h=1.0 / 32.0)
      for name, params in CATALOG_PROBLEMS.items()),
], ids=[*DIAGONAL_PROBLEMS, *CATALOG_PROBLEMS])
def test_diagonal_matches_panel_loop_oracle(problem):
    X = problem.X
    # unsorted and repeated, then the whole lattice in order
    xs = [0.25 * X, 0.25 * X, X, 0.25 * X, 0.0]
    for sample in (xs, _lattice_xs(problem)):
        if problem.rho / problem.sigma > 0.0:  # K(x,x) blows up at x = 0
            sample = [x for x in sample if x > 0.0]
        got = diagonal_values(problem, sample)
        assert isinstance(got, list)
        want = diagonal_panel_loop(problem, sample)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def diagonal_values_any_abscissa(problem, xs):
    """``diagonal_values`` as it was before it took diagonal cells only, kept
    verbatim below this docstring (any abscissae, sorted, S advancing from
    each to the next in panels of h/2, the last cut short): an oracle that
    ``diagonal_values`` must match bit for bit on lattice samples at dyadic h,
    where both integrate the same panels."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if not np.all(xs >= 0.0):
        raise UsageError("diagonal abscissae must be nonnegative")
    exponent = -problem.rho / (2.0 * problem.sigma)
    if exponent < 0.0 and problem.kappa != 0.0 and np.any(xs == 0.0):
        raise UsageError(
            "diagonal data blows up at x = 0 (rho/(2 sigma) > 0);"
            " set kappa = 0 or keep x > 0"
        )
    if problem.kappa == 0.0 or xs.size == 0:
        return [0.0] * xs.size
    panel = problem.h / 2.0
    if xs.max() > MAX_STEPS * problem.h:
        raise UsageError(
            f"diagonal abscissa {xs.max():g} is beyond the lattice budget"
            f" of {MAX_STEPS} steps of h = {problem.h:g}"
        )

    order = np.argsort(xs, kind="stable")
    ends = xs[order]
    starts = np.concatenate(([0.0], ends[:-1]))
    # panels start where the previous abscissa ended and stop once within
    # 1e-15 (relative) of the next
    tol = 1e-15 * np.maximum(1.0, ends)
    counts = np.maximum(np.ceil((ends - tol - starts) / panel), 0.0).astype(int)
    done = np.cumsum(counts)
    gap = np.repeat(np.arange(ends.size), counts)  # the abscissa a panel leads to
    k = np.arange(done[-1]) - np.repeat(done - counts, counts)  # its place in the gap
    lo = starts[gap] + k * panel
    hi = np.minimum(lo + panel, ends[gap])
    half = 0.5 * (hi - lo)
    gl = jacobi_rule(32, 0.0, 0.0)
    s = (0.5 * (hi + lo))[:, None] + half[:, None] * gl.nodes
    # b1 reads x and b0 reads t, so one tree takes both at the nodes
    smooth = evaluate(
        BinOp("-", problem.op_b.b, problem.op_a.b), {**problem.params, "x": s, "t": s}
    )
    if problem.rho != 0.0:
        smooth -= problem.rho / s
    integral = np.concatenate(([0.0], np.cumsum(half * (smooth @ gl.weights))))[done]
    with np.errstate(over="ignore"):
        k0 = problem.kappa * ends**exponent * np.exp(-integral / (2.0 * problem.sigma))
    if not np.all(np.isfinite(k0)):
        raise NumericalError("diagonal data overflows")
    out = np.empty(xs.size)
    out[order] = k0
    return out.tolist()


@pytest.mark.parametrize("h", [1.0 / 32.0, 1.0 / 256.0, 1.0 / 100.0], ids=["h32", "h256", "h100"])
def test_diagonal_cells_match_the_any_abscissa_oracle(h):
    # the problems of test_diagonal_matches_panel_loop_oracle, re-posed at X = 2
    problems = {
        **{name: _gp(**{**kw, "X": 2.0, "h": h}) for name, kw in DIAGONAL_PROBLEMS.items()},
        **{name: problem_from_case(_off_the_wall(get_case(name, params)), X=2.0, h=h)
           for name, params in CATALOG_PROBLEMS.items()},
    }
    gaps = {}
    for name, problem in problems.items():
        xs = _lattice_xs(problem)
        sample = xs[::-1] + xs[::7]  # unsorted and repeated
        if problem.rho / problem.sigma > 0.0:  # K(x,x) blows up at x = 0
            sample = [x for x in sample if x > 0.0]
        got, want = np.array(diagonal_values(problem, sample)), np.array(diagonal_values_any_abscissa(problem, sample))
        if h == 1.0 / 100.0:  # the oracle's panel edges round apart from the lattice's
            gaps[name] = np.max(np.abs(got - want) / np.where(want == 0.0, 1.0, np.abs(want)))
        else:  # dyadic: the same panels, bit for bit
            assert np.array_equal(got, want), name
    if gaps:
        name = max(gaps, key=gaps.get)
        print(f"h = 1/100: largest relative gap to the any-abscissa oracle {gaps[name]:.2e} ({name})")
        assert gaps[name] < 1e-13


@pytest.mark.parametrize("x", [0.3, 2.0 + 1.0 / 64.0, -1.0 / 64.0, math.nan, math.inf],
                         ids=["off_lattice", "beyond_X", "negative", "nan", "inf"])
def test_diagonal_values_refuses_what_is_not_a_diagonal_cell(x):
    problem = _telegraph(1.0 / 32.0)  # X = 2: cells m/64, m = 0..128
    with pytest.raises(UsageError, match="is not a diagonal cell"):
        diagonal_values(problem, [1.0, x])


def test_lattice_budget_is_checked_before_solving():
    h = 1.0 / 512.0
    base = dict(sigma=1.0, b0="0", b1="0", c0="0", c1="0", h=h)
    assert MAX_STEPS >= 2048  # the benchmark ladder's finest rung
    assert _gp(X=MAX_STEPS * h, **base).steps == MAX_STEPS
    with pytest.raises(UsageError, match="budget"):
        _gp(X=(MAX_STEPS + 1) * h, **base)
    with pytest.raises(UsageError, match="budget"):
        _gp(X=2.0, **{**base, "h": 1e-7})


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("xs", [["abc"], [1.0, None], [1.0 + 0j], [[1.0], [1.0, 2.0]]], ids=["text", "None", "complex", "ragged"])
def test_diagonal_abscissae_that_are_no_real_numbers_are_refused(xs):
    # each ended in a ValueError or a TypeError, and the complex one cast in silence
    with pytest.raises(UsageError, match="^diagonal abscissae must be real numbers, got "):
        diagonal_values(_telegraph(1.0 / 32.0), xs)


def test_diagonal_abscissa_beyond_the_budget_is_refused():
    problem = _telegraph(1.0 / 64.0)
    with pytest.raises(UsageError, match="not a diagonal cell"):
        diagonal_values(problem, [1.0, 1e9])


def test_even_extension_equals_neumann_ghost():
    # for b0 = 0 the ghost-cell closure and the honest full-square
    # even-extension march must agree to the bit
    ghost = solve(_telegraph(1.0 / 32.0))
    even = solve_even(_telegraph(1.0 / 32.0))
    top = ghost.top
    assert np.array_equal(ghost.values, even.values)
    assert all(ghost.value(i, j) == even.value(i, j) for i in range(top + 1) for j in range(min(i, top - i) + 1))


def test_even_boundary_requires_vanishing_b0():
    # the oracle above is only valid for b0 = 0
    problem = _gp(
        sigma=1.0, b0="t", b1="0", c0="0", c1="0",
        X=1.0, h=1.0 / 8.0,
    )
    with pytest.raises(UsageError, match="b0"):
        solve_even(problem)


def test_diagonal_power_law():
    # rho = 1 with b1 - b0 = 1/x exactly: K(x,x) = kappa x^(-1/2)
    problem = _gp(sigma=1.0, b0="0", b1="1/x", c0="0", c1="0",
                  X=2.0, h=1.0 / 16.0)
    lo, hi = diagonal_values(problem, [0.25, 1.0])
    assert lo / hi == pytest.approx(2.0, rel=1e-12)
    assert hi == pytest.approx(1.0, rel=1e-12)


def test_diagonal_gaussian_decay():
    # b1 - b0 = 2x integrates to x^2, so K(x,x) = exp(-x^2/2)
    problem = _gp(sigma=1.0, b0="0", b1="2*x", c0="0", c1="0",
                  X=2.0, h=1.0 / 16.0)
    for x in (0.5, 1.0, 1.75):
        (got,) = diagonal_values(problem, [x])
        assert got == pytest.approx(math.exp(-x * x / 2.0), rel=1e-12)


def test_diagonal_blowup_is_reported():
    problem = _gp(sigma=1.0, b0="0", b1="1/x", c0="0", c1="0",
                  X=2.0, h=1.0 / 16.0)
    with pytest.raises(UsageError, match="blows up"):
        diagonal_values(problem, [0.0, 1.0])
    # b1 - b0 = -2000 x: K(x,x) = exp(1000 x^2) leaves the float range at x = 2
    problem = _gp(sigma=1.0, b0="0", b1="-2000*x", c0="0", c1="0", X=2.0, h=1.0 / 16.0)
    with pytest.raises(NumericalError, match="diagonal data overflows"):
        diagonal_values(problem, [2.0])


def test_diagonal_kappa_zero_shortcut():
    problem = _gp(sigma=1.0, b0="0", b1="1/x", c0="0", c1="0",
                  kappa=0.0, X=2.0, h=1.0 / 16.0)
    assert diagonal_values(problem, [0.0, 0.5, 1.0]) == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("reference", ["1e200", "1e153"], ids=["square_overflows", "sum_overflows"])
def test_compare_refuses_a_squared_gap_beyond_the_float_range(reference):
    # 1e200 squares to inf; 1e153 squares to 1e306, and 289 of them overflow fsum
    grid = solve(_gp(X=1.0, h=1.0 / 16.0))
    with pytest.raises(NumericalError, match="overflows"):
        compare(grid, reference)


def test_problem_from_case_probes_the_operators():
    problem = problem_from_case(get_case("vekua_telegraph"), X=2.0, h=1.0 / 32.0)
    assert problem.sigma == 1.0
    assert problem.rho == 0.0
    assert problem.kappa == 1.0  # K(x,x) = J0(0) = 1, fitted exactly
    grid = solve(problem)
    stats = compare(grid, get_case("vekua_telegraph").kernel, {"mu": 1.0, "omega": 1.0})
    assert stats["max"] <= 1e-3


# lowndes at mu = 0 has b0 = -r/t with r = 1 + 2 nu: the march holds for r < 4, its
# error sits at 4e-2 at r = 4 (nu = 1.5) and grows without bound above it, so solve
# refuses r >= 4; the wall defect of ROADMAP item 3, whose fix must flip the xfails
@pytest.mark.parametrize("nu", [
    0.5, 1.0, 1.25,
    *(pytest.param(nu, marks=pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item 3: refused, and marched the max error is {error}"))
      for nu, error in ((1.5, "4.0e-2"), (2.0, "3.4e49"), (2.5, "4.1e88"), (3.0, "7.9e120"))),
])
def test_lowndes_at_mu_0_meets_the_solver_tolerance_at_every_nu(nu):
    # the defaults of `transmute solve --case`: X = 2, h = 1/128, tolerance 1e-3
    case = get_case("lowndes", {"mu": 0.0, "nu": nu})
    problem = problem_from_case(case, X=2.0, h=1.0 / 128.0)
    assert compare(solve(problem), case.kernel, problem.params)["max"] <= 1e-3


# b0 = +3/t is a singular wall with r = -3 < 0, below the r/sigma >= 4 that solve
# refuses: the march converges at an observed order of 0.31-0.36 (K(2, 0) = 1.70764,
# 1.69622, 1.68734 at h = 1/64, 1/128, 1/256), and `solve` prints it as [UNCHECKED]
# with exit 0; the wall defect of ROADMAP item 3, whose fix must flip the xfail
@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: a wall with r < 0 converges at order 0.31-0.36")
def test_a_singular_wall_with_negative_r_converges_at_second_order_or_is_refused():
    cells = []
    for k in (64, 128, 256):
        try:
            grid = solve(_gp(b0="3/t", b1="3/x", c0="1", c1="1 - x", X=2.0, h=1.0 / k))
        except (NumericalError, UsageError):
            return
        cells.append((grid.value(2 * k, 2 * k), grid.value(3 * k // 2, k // 2)))  # K(2, 0), K(1, 0.5)
    for coarse, mid, fine in zip(*cells):
        assert math.log2(abs(coarse - mid) / abs(mid - fine)) >= 1.8


@pytest.mark.parametrize("name,params", [
    ("vekua_telegraph", {}), ("poisson_bessel", {"nu": 0.5}), ("lowndes", {"mu": 0.0}),
])
def test_problem_from_case_and_solve_integrate_the_panels_once(monkeypatch, name, params):
    # the 32-point rule is taken once per transport integral
    case = get_case(name, params)
    rules = []
    monkeypatch.setattr("transmute.goursat.jacobi_rule", lambda *a: rules.append(a) or jacobi_rule(*a))
    problem = problem_from_case(case, X=2.0, h=1.0 / 128.0)
    grid = solve(problem)
    assert len(rules) == 1
    # against a problem that integrates afresh, as for the kappa = 1 scaling
    fresh = _remade(problem, kappa=1.0)
    kappa = evaluate(case.kernel, {**case.params, "x": 2.0, "t": 2.0}) / diagonal_values(fresh, [2.0])[0]
    assert str(problem.kappa) == str(kappa)
    assert grid.values.tobytes() == solve(_remade(fresh, kappa=kappa)).values.tobytes()
    assert len(rules) == 3


def test_problem_from_case_rejects_variable_leading_coefficient():
    with pytest.raises(UsageError, match="leading coefficient"):
        problem_from_case(get_case("gegenbauer"), X=0.9, h=1.0 / 32.0)


def test_problem_from_case_diagonal_residue():
    # sine_to_bessel: b1 - b0 = -2 beta / s on the diagonal, so rho is
    # exactly -2 at beta = 1 (where K(x,x) = x does not vanish)
    case = _off_the_wall(get_case("sine_to_bessel", {"beta": 1.0}))
    problem = problem_from_case(case, X=2.0, h=1.0 / 32.0)
    assert problem.rho == -2.0
    assert problem.kappa == 1.0


def test_problem_from_case_cancelling_poles():
    # sonin's b0 and b1 are each singular, but the 1/s parts cancel on the
    # diagonal; rho has to see through that and be zero (at nu = 0, where
    # K(x,x) = 1 does not vanish)
    problem = problem_from_case(get_case("sonin", {"nu": 0.0}), X=2.0, h=1.0 / 32.0)
    assert problem.rho == 0.0


@pytest.mark.parametrize("name,params,rho", [
    ("vekua_telegraph", {}, 0.0),
    ("poisson_bessel", {}, 0.0),
    ("sonin", {}, 0.0),
    ("lowndes", {"mu": 0.0}, 0.0),
    ("cosh_1f2", {"beta": 1.0}, 0.0),  # b1 = -0/x: rho is +0.0, not -0.0
    ("epd_bessel", {"nu": 0.0}, 0.0),
    ("sine_to_bessel", {"beta": 1.0}, -2.0),
    ("lowndes", {}, -2.0),
    ("sinh_cosh", {}, -1.0),
])
def test_rho_of_catalog_pairs_is_exact(name, params, rho):
    case = get_case(name, params)
    problem = GoursatProblem(case.opA, case.opB, params=dict(case.params))
    assert str(problem.rho) == str(rho)


@pytest.mark.parametrize("b0,b1,rho", [
    ("0", "1/x", 1.0),
    ("-1/t", "0", 1.0),
    ("0", "-1", 0.0),
    ("0", "2*x", 0.0),
    ("t^2", "sin(x)", 0.0),
])
def test_rho_of_a_pair_is_exact(b0, b1, rho):
    assert str(_gp(b0=b0, b1=b1).rho) == str(rho)


# x (c/x + a) rounds to c only while |c| > |a| 2^-847, 3e-252 for |a| <= 1e3;
# smaller draws become zero, keeping their sign, so -0.0 is drawn too
_RESIDUES = st.floats(-1e3, 1e3).map(lambda c: c if abs(c) >= 1e-250 else 0.0 * c)


@settings(max_examples=200, deadline=None)
@given(c=_RESIDUES, a=st.floats(-1e3, 1e3), b=st.floats(-1e3, 1e3))
def test_rho_is_the_residue_of_a_pole_plus_a_line(c, a, b):
    problem = _gp(b1="c/x + a + b*x", params={"c": c, "a": a, "b": b})
    assert str(problem.rho) == ("0.0" if c == 0.0 else str(c))


def test_rho_is_not_settable():
    with pytest.raises(TypeError):
        _gp(b1="1/x", rho=1.0)


def test_problem_from_case_accepts_a_smooth_nonzero_b():
    # the telegraph pair with b1 = -1: b1 - b0 is smooth and nonzero at 0
    case = get_case("vekua_telegraph")
    case = dataclasses.replace(case, opB=DifferentialOperator("x", case.opB.a, Num(-1.0), case.opB.c))
    assert problem_from_case(case, X=2.0, h=1.0 / 32.0).rho == 0.0


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(sigma=2.0), "leading coefficient"),
        (dict(X=1.0, h=0.3), "X/h"),
        (dict(c1="t"), "may only depend on 'x'"),
        (dict(b0="x"), "may only depend on 't'"),
        (dict(h=-0.1), r"^h must be a positive finite number, got -0.1$"),
        (dict(X=-1.0), r"^X must be a positive finite number, got -1.0$"),
        (dict(c0="log(0)"), "coefficient c0 does not evaluate"),
        # b1 - b0 is not rho/x + smooth near 0
        (dict(b1="1/x^2"), "not rho/x"),
        (dict(b1="exp(1/x)"), "not rho/x"),
        # x (b1 - b0) = 5 + x^0.001 shrinks from 2^-900 to 2^-1000 but not to 0
        (dict(b1="5/x + x^-0.999"), "not rho/x"),
        # h0 = NaN marched as Neumann, h0 = +-inf held the wall at +-0, and a
        # non-finite kappa ended in "diagonal data overflows"
        (dict(h0=math.nan), "h0 must be a finite number"),
        (dict(h0=math.inf), "h0 must be a finite number"),
        (dict(h0=-math.inf), "h0 must be a finite number"),
        (dict(kappa=math.nan), "kappa must be a finite number"),
        (dict(kappa=math.inf), "kappa must be a finite number"),
        (dict(kappa=-math.inf), "kappa must be a finite number"),
        # each of these ended in a TypeError, a ValueError or an OverflowError
        (dict(X="abc"), "X must be a finite number, got 'abc'"),
        (dict(h=None), "h must be a finite number, got None"),
        (dict(h0="abc"), "h0 must be a finite number, got 'abc'"),
        (dict(X=10**400), "X must be a finite number, got a number beyond the float range"),
        (dict(kappa=np.complex128(1.0)), r"kappa must be a finite number, got np.complex128\(1\+0j\)"),
        (dict(h=np.array([1.0 / 64.0, 1.0 / 32.0])), "h must be a finite number"),
    ],
)
@pytest.mark.filterwarnings("error")
def test_problem_validation(kwargs, needle):
    with pytest.raises(UsageError, match=needle):
        _gp(**kwargs)


# X and h are read by the positive-number rule: each ended in "need X > 0 and h > 0"
NON_POSITIVE_SIZES = [("X", 0.0), ("X", -0.0), ("X", np.float64(-2.0)), ("X", False),
                      ("h", 0.0), ("h", -1e-300), ("h", -(2**70))]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("key,value", NON_POSITIVE_SIZES, ids=[f"{k}={v!r}" for k, v in NON_POSITIVE_SIZES])
def test_a_lattice_size_that_is_not_positive_is_refused(key, value):
    needle = rf"^{key} must be a positive finite number, got {re.escape(repr(value))}$"
    with pytest.raises(UsageError, match=needle):
        _gp(**{key: value})


# params that are no mapping ended in an AttributeError or a TypeError; None is no params
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("params", [[("mu", 1.0)], [1], 5], ids=repr)
def test_params_that_are_no_mapping_are_refused(params):
    needle = rf"^params must be a mapping of names to numbers, got {re.escape(repr(params))}$"
    case = get_case("vekua_telegraph")
    with pytest.raises(UsageError, match=needle):
        GoursatProblem(case.opA, case.opB, params=params)
    grid = solve(_telegraph(1.0 / 8.0))
    with pytest.raises(UsageError, match=needle):
        compare(grid, "x", params=params)
    assert compare(grid, "x", params=None) == compare(grid, "x", {})
    assert GoursatProblem(DifferentialOperator("t", Num(1.0), Num(0.0), Num(0.0)),
                          DifferentialOperator("x", Num(1.0), Num(0.0), Num(0.0)), params=None).params == {}


def test_sigma_is_the_constant_leading_coefficient():
    def pair(a0, a1, **fields):
        return GoursatProblem(
            DifferentialOperator("t", parse(a0), Num(0.0), Num(0.0)),
            DifferentialOperator("x", parse(a1), Num(0.0), parse("mu^2")),
            **fields,
        )

    assert pair("-1", "-mu", params={"mu": 1.0}).sigma == -1.0
    # equal to 1 at t = 0.3, 0.7 and 1.1, but it reads t: not a constant
    with pytest.raises(UsageError, match="leading coefficient"):
        pair("1+(t-0.3)*(t-0.7)*(t-1.1)", "1", params={"mu": 1.0})
    with pytest.raises(UsageError, match="leading coefficient"):
        pair("1", "-1", params={"mu": 1.0})
    with pytest.raises(UsageError, match="may only depend on 'x'"):
        pair("1", "1")  # mu undeclared
    with pytest.raises(TypeError):
        pair("1", "1", params={"mu": 1.0}, sigma=1.0)
    problem = pair("1", "1", params={"mu": 1.0})
    with pytest.raises(UsageError, match="A acting in 't'"):
        GoursatProblem(problem.op_b, problem.op_a, params=problem.params)


@pytest.mark.parametrize("b0", ["1/t^1.01", "-1/t^1.01", "-5/t - t^-0.999"])
def test_a_singular_b0_that_is_not_a_pole_plus_smooth_is_refused(b0):
    # b1 - b0 = 0 on the diagonal gives rho = 0, but no r exists. t b0 = -+t^-0.01 grows
    # towards t = 0: read at t = 2^-1000 alone, r was -+1024, so the + wall marched a lattice
    # that did not converge in h and the - wall was refused as unstable. t b0 = -5 - t^0.001
    # settles only below any float t: at the t = h/2 cell r is about 6, where the wall
    # diverges, yet r = 5.536 at 2^-900 and 5.5 at 2^-1000 must not read as r = 0
    problem = _gp(b0=b0, b1=b0.replace("t", "x"), c0="1", c1="1 - x", X=2.0, h=1.0 / 64.0)
    assert str(problem.rho) == "0.0"
    with pytest.raises(UsageError, match=r"^b0 is not -r/t \+ smooth at t = 0"):
        solve(problem)


def test_boundary_flavor_guards():
    with pytest.raises(UsageError, match="c0 regular"):
        solve(_gp(sigma=1.0, b0="0", b1="0", c0="1/t", c1="0",
                  X=1.0, h=1.0 / 8.0))
    # a b0 singular at 0 closes the wall by K_t = 0, which has no room for h0
    with pytest.raises(UsageError, match="h0 = 0.5 needs b0 regular at t = 0"):
        solve(_gp(sigma=1.0, b0="-3/t", b1="-3/x", c0="1", c1="1", h0=0.5,
                  X=1.0, h=1.0 / 8.0))


def test_divergent_march_raises_numerical_error():
    # Only the last level is tested for finiteness; the error still names
    # the first level that holds a non-finite value. c0 = 0 is one float
    # per level, c0 that reads t gives array weights; then the Robin
    # closure and the wall of a b0 singular at 0.
    for fields, h, level in (
        (dict(c1="1e8"), 1.0 / 16.0, 34),
        (dict(c0="-1e8*(1+t)"), 1.0 / 16.0, 34),
        (dict(c1="1e8"), 1.0 / 64.0, 46),
        (dict(c0="1e8*t"), 1.0 / 64.0, 62),
        (dict(c1="1e6*x"), 1.0 / 64.0, 137),
        (dict(c1="1e8", h0=0.5), 1.0 / 16.0, 35),
        (dict(c1="1e8", b0="-3/t", b1="-3/x"), 1.0 / 64.0, 47),
    ):
        problem = _gp(sigma=-1.0, X=2.0, h=h, **fields)
        with pytest.raises(NumericalError, match=f"non-finite lattice value at level {level}$"):
            solve(problem)


def test_float_weights_equal_array_weights():
    # the telegraph pair with b0 and c0 reading t (as 0*t) takes the array
    # weights; it must reproduce the float weights of the plain pair bit for bit
    fields = dict(sigma=1.0, b1="0", c1="omega^2+mu^2", X=2.0, h=1.0 / 64.0,
                  params={"mu": 1.0, "omega": 0.7})
    floats = solve(_gp(b0="0", c0="omega^2", **fields))
    arrays = solve(_gp(b0="0*t", c0="omega^2+0*t", **fields))
    assert np.array_equal(floats.values, arrays.values)
    assert compare(floats, "besselj(0, mu*sqrt(x^2-t^2))", {"mu": 1.0})["max"] <= 1e-5


def test_grid_geometry_and_csv():
    grid = solve(_gp(sigma=1.0, b0="0", b1="0", c0="0", c1="0",
                     X=1.0, h=0.25))
    ij = [(i, j) for i in range(9) for j in range(min(i, 8 - i) + 1)]
    assert grid.values.size == len(ij)
    buf = io.StringIO()
    grid.export_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x,t,K"
    assert len(lines) == len(ij) + 1
    for (i, j), line in zip(ij, lines[1:]):
        x, t, k = map(float, line.split(","))
        assert (x, t, k) == ((i + j) * 0.125, (i - j) * 0.125, grid.value(i, j))
        assert 0.0 <= t <= x


def export_csv_per_point(grid, stream):
    """The lattice CSV one point at a time through ``value``: an oracle for
    ``TriangleGrid.export_csv``, which formats one run of j per i."""
    stream.write("x,t,K\n")
    top = grid.top
    for i in range(top + 1):
        for j in range(min(i, top - i) + 1):
            x, t = (i + j) * grid.h / 2.0, (i - j) * grid.h / 2.0
            stream.write(f"{x:.17g},{t:.17g},{grid.value(i, j):.17g}\n")


@pytest.mark.parametrize("steps", [15, 32])
@pytest.mark.parametrize("lattice, boundary", [
    (lambda X, h: _telegraph(h, X=X), "neumann"),  # the ghost cell
    (lambda X, h: _remade(_robin(h), X=X), "robin"),
    # b0 = -3/t is singular at the wall
    (lambda X, h: problem_from_case(get_case("lowndes", {"mu": 0.0}), X=X, h=h), "neumann"),
], ids=["ghost", "robin", "singular_b0"])
def test_export_csv_is_the_per_point_writer(lattice, boundary, steps):
    h = 1.0 / 16.0
    grid = solve(lattice(steps * h, h))
    assert grid.boundary == boundary and grid.top == 2 * steps
    got, want = io.StringIO(), io.StringIO()
    grid.export_csv(got)
    export_csv_per_point(grid, want)
    assert got.getvalue() == want.getvalue()


def test_compare_of_the_telegraph_reads_bessel_j_and_the_case_kernel_alike():
    # J0(mu sqrt(x^2 - t^2)) and the catalog's C_0(-mu^2 (x^2 - t^2)/4) differ by rounding
    case = get_case("vekua_telegraph")
    grid = solve(problem_from_case(case, X=2.0, h=1.0 / 64.0))
    by_j = compare(grid, "besselj(0, mu*sqrt(x^2-t^2))", case.params)
    by_case = compare(grid, case.kernel, case.params)
    assert by_j["count"] == by_case["count"] == grid.values.size
    assert by_j["max"] == pytest.approx(by_case["max"], rel=0.0, abs=1e-14)
    assert by_j["l2"] == pytest.approx(by_case["l2"], rel=0.0, abs=1e-14)
    assert 0.0 < by_j["max"] <= 5e-6


def test_a_step_whose_half_underflows_is_refused():
    with pytest.raises(UsageError, match="h/2 underflows"):
        _gp(X=5e-324, h=5e-324)


def test_value_reads_the_cells_and_refuses_anything_else():
    grid = solve(_telegraph(1.0 / 32.0))
    n = grid.top // 2
    for i in range(2 * n + 1):
        for j in range(min(i, 2 * n - i) + 1):
            assert grid.value(i, j) == grid.values[_offset(i + j) + j]
    for i, j in [(1, 2), (-1, 0), (2 * n + 1, 0), (n, n + 1), (2.5, 0), (np.int64(2**62), np.int64(2**62)),
                 ("a", 0), (None, 0), (1, "b"), (1j, 0), (np.array([1, 2]), 0)]:  # the last five: a TypeError or ValueError
        with pytest.raises(UsageError, match="^" + re.escape(f"({i!r}, {j!r}) is not a lattice cell")):
            grid.value(i, j)
