"""Characteristic-lattice solver against closed-form kernels.

The telegraph pair is the workhorse: c1 - c0 = mu^2 with everything else
zero has the exact solution J0(mu sqrt(x^2 - t^2)), and flipping the sign
gives the I0 variant. Robin data is exercised with K = exp(t/2).
"""

import io
import math

import numpy as np
import pytest

from transmute.errors import NumericalError, UsageError
from transmute.expr import evaluate, evaluate_jet, parse
from transmute.goursat import (
    MAX_STEPS,
    GoursatProblem,
    TriangleGrid,
    _cell_update,
    _coefficient_tables,
    compare,
    diagonal_values,
    potential_from_diagonal,
    problem_from_case,
    solve,
)
from transmute.kernels import get_case
from transmute.quadrature import jacobi_rule


def _telegraph(h, sign="", X=2.0):
    return GoursatProblem(
        sigma=1.0, b0="0", b1="0", c0="0", c1=sign + "mu^2",
        X=X, h=h, params={"mu": 1.0},
    )


def test_trivial_problem_is_exact():
    grid = solve(GoursatProblem(sigma=1.0, b0="0", b1="0", c0="0", c1="0",
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


def test_sign_flipped_telegraph_gives_i0():
    grid = solve(_telegraph(1.0 / 64.0, sign="-"))
    stats = compare(grid, "besseli(0, mu*sqrt(x^2-t^2))", {"mu": 1.0})
    assert stats["max"] <= 5e-6


def _robin(h):
    # K = exp(t/2) satisfies the pair and the Robin relation with h0 = 1/2
    return GoursatProblem(
        sigma=1.0, b0="0", b1="-1", c0="0", c1="0.25",
        h0=0.5, X=2.0, h=h, boundary="robin",
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
    tables = _coefficient_tables(problem, top)
    b0t, c0t, b1x, c1x = (tables[k] for k in ("b0", "c0", "b1", "c1"))
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
            prev, prev2 = full[d - 1], full[d - 2]
            lvl[1:d] = _cell_update(sigma, h, prev[js], prev[js - 1], prev2[js - 1],
                                    b0t[m], b1x[d - 1], c0t[m], c1x[d - 1])
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
        value = (evaluate(problem.b1, {**problem.params, "x": s})
                 - evaluate(problem.b0, {**problem.params, "t": s}))
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
    ``_cell_update``."""
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


def march_two_sweep(problem):
    """The march with scalar coefficient tables, the panel-loop diagonal,
    index gathers and the two-sweep cell: an oracle for ``solve``.

    Only the closures the agreement tests use: the Robin wall when the
    problem asks for it, else the Neumann ghost cell (b0 regular at 0).
    """
    sigma, h = problem.sigma, problem.h
    top = 2 * problem.steps
    tab = {}
    for name, var in (("b0", "t"), ("c0", "t"), ("b1", "x"), ("c1", "x")):
        expr = getattr(problem, name)
        tab[name] = np.array([evaluate(expr, {**problem.params, var: m * (h / 2.0)})
                              for m in range(top + 1)])
    b0t, c0t, b1x, c1x = (tab[k] for k in ("b0", "c0", "b1", "c1"))
    diag = diagonal_panel_loop(problem, [d * h / 2.0 for d in range(top + 1)])
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
            if problem.boundary == "robin":
                theta = b0t[0] + problem.h0 * sigma
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
    GoursatProblem(sigma=1.0, b0="t", b1="0.5*x", c0="0.3*t", c1="1+x",
                   X=1.0, h=1.0 / 64.0),
    GoursatProblem(sigma=-1.0, b0="1+t", b1="0.5*x", c0="0.3*t", c1="1+x",
                   h0=0.5, X=1.0, h=1.0 / 64.0, boundary="robin"),
], ids=["telegraph", "robin", "ghost_all_terms", "robin_all_terms"])
def test_fused_march_matches_two_sweep_oracle(problem):
    grid = solve(problem)
    assert grid.boundary == ("robin" if problem.boundary == "robin" else "neumann")
    oracle = np.concatenate(march_two_sweep(problem))
    assert grid.values.shape == oracle.shape
    np.testing.assert_allclose(grid.values, oracle, rtol=1e-12, atol=0.0)


def _lattice_xs(problem):
    return [d * problem.h / 2.0 for d in range(2 * problem.steps + 1)]


# every GoursatProblem this file builds, by the name of its test
DIAGONAL_PROBLEMS = {
    "trivial": dict(sigma=1.0, b0="0", b1="0", c0="0", c1="0", X=1.0, h=1.0 / 16.0),
    "telegraph": dict(sigma=1.0, b0="0", b1="0", c0="0", c1="mu^2",
                      X=2.0, h=1.0 / 32.0, params={"mu": 1.0}),
    "robin": dict(sigma=1.0, b0="0", b1="-1", c0="0", c1="0.25", h0=0.5,
                  X=2.0, h=1.0 / 64.0, boundary="robin"),
    "even_b0": dict(sigma=1.0, b0="t", b1="0", c0="0", c1="0", X=1.0, h=1.0 / 8.0),
    "power_law": dict(sigma=1.0, b0="0", b1="1/x", c0="0", c1="0", rho=1.0,
                      X=2.0, h=1.0 / 16.0),
    "gaussian": dict(sigma=1.0, b0="0", b1="2*x", c0="0", c1="0", X=2.0, h=1.0 / 16.0),
    "kappa_zero": dict(sigma=1.0, b0="0", b1="1/x", c0="0", c1="0", rho=1.0,
                       kappa=0.0, X=2.0, h=1.0 / 16.0),
    "c0_singular": dict(sigma=1.0, b0="0", b1="0", c0="1/t", c1="0", X=1.0,
                        h=1.0 / 8.0, boundary="neumann"),
    "b0_singular": dict(sigma=1.0, b0="-1/t", b1="0", c0="0", c1="0", X=1.0,
                        h=1.0 / 8.0, boundary="robin"),
    "divergent": dict(sigma=-1.0, b0="0", b1="0", c0="0", c1="1e8", X=2.0, h=1.0 / 16.0),
    "geometry": dict(sigma=1.0, b0="0", b1="0", c0="0", c1="0", X=1.0, h=0.25),
    "sigma_minus_b": dict(sigma=-1.0, b0="t^2", b1="sin(x)", c0="0", c1="0",
                          rho=0.5, X=1.5, h=1.0 / 32.0),
}


# catalog cases, at parameters where K(x,x) does not vanish
CATALOG_PROBLEMS = {
    "vekua_telegraph": {},
    "lowndes": {"mu": 0.0},  # b0 and b1 singular, the poles cancel
    "sonin": {"nu": 0.0},
    "sine_to_bessel": {"beta": 1.0},  # rho = -2
}


@pytest.mark.parametrize("problem", [
    *(GoursatProblem(**kw) for kw in DIAGONAL_PROBLEMS.values()),
    *(problem_from_case(get_case(name, params), X=2.0, h=1.0 / 32.0)
      for name, params in CATALOG_PROBLEMS.items()),
], ids=[*DIAGONAL_PROBLEMS, *CATALOG_PROBLEMS])
def test_diagonal_matches_panel_loop_oracle(problem):
    X = problem.X
    # unsorted and repeated, off the lattice and on it
    xs = [0.7 * X, 0.25 * X, 0.25 * X, X, 0.5 * X + 1e-3, 1e-3 * X, 0.25 * X, 0.0, 0.3 * X]
    for sample in (xs, _lattice_xs(problem)):
        if problem.rho / problem.sigma > 0.0:  # K(x,x) blows up at x = 0
            sample = [x for x in sample if x > 0.0]
        got = diagonal_values(problem, sample)
        assert isinstance(got, list)
        want = diagonal_panel_loop(problem, sample)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_lattice_budget_is_checked_before_solving():
    h = 1.0 / 512.0
    base = dict(sigma=1.0, b0="0", b1="0", c0="0", c1="0", h=h)
    assert MAX_STEPS >= 2048  # the benchmark ladder's finest rung
    assert GoursatProblem(X=MAX_STEPS * h, **base).steps == MAX_STEPS
    with pytest.raises(UsageError, match="budget"):
        GoursatProblem(X=(MAX_STEPS + 1) * h, **base)
    with pytest.raises(UsageError, match="budget"):
        GoursatProblem(X=2.0, **{**base, "h": 1e-7})


def test_diagonal_abscissa_beyond_the_budget_is_refused():
    problem = _telegraph(1.0 / 64.0)
    with pytest.raises(UsageError, match="budget"):
        diagonal_values(problem, [1.0, 1e9])


def test_even_extension_equals_neumann_ghost():
    # for b0 = 0 the ghost-cell closure and the honest full-square
    # even-extension march must agree to the bit
    ghost = solve(_telegraph(1.0 / 32.0))
    even = solve_even(_telegraph(1.0 / 32.0))
    worst = 0.0
    for (i, j, x, t, k_g) in ghost.points():
        worst = max(worst, abs(k_g - even.value(i, j)))
    assert worst == 0.0


def test_even_boundary_requires_vanishing_b0():
    # the oracle above is only valid for b0 = 0
    problem = GoursatProblem(
        sigma=1.0, b0="t", b1="0", c0="0", c1="0",
        X=1.0, h=1.0 / 8.0,
    )
    with pytest.raises(UsageError, match="b0"):
        solve_even(problem)


def test_diagonal_power_law():
    # rho = 1 with b1 - b0 = 1/x exactly: K(x,x) = kappa x^(-1/2)
    problem = GoursatProblem(sigma=1.0, b0="0", b1="1/x", c0="0", c1="0",
                             rho=1.0, X=2.0, h=1.0 / 16.0)
    lo, hi = diagonal_values(problem, [0.25, 1.0])
    assert lo / hi == pytest.approx(2.0, rel=1e-12)
    assert hi == pytest.approx(1.0, rel=1e-12)


def test_diagonal_gaussian_decay():
    # b1 - b0 = 2x integrates to x^2, so K(x,x) = exp(-x^2/2)
    problem = GoursatProblem(sigma=1.0, b0="0", b1="2*x", c0="0", c1="0",
                             X=2.0, h=1.0 / 16.0)
    for x in (0.5, 1.0, 1.75):
        (got,) = diagonal_values(problem, [x])
        assert got == pytest.approx(math.exp(-x * x / 2.0), rel=1e-12)


def test_diagonal_blowup_is_reported():
    problem = GoursatProblem(sigma=1.0, b0="0", b1="1/x", c0="0", c1="0",
                             rho=1.0, X=2.0, h=1.0 / 16.0)
    with pytest.raises(UsageError, match="blows up"):
        diagonal_values(problem, [0.0, 1.0])


def test_diagonal_kappa_zero_shortcut():
    problem = GoursatProblem(sigma=1.0, b0="0", b1="1/x", c0="0", c1="0",
                             rho=1.0, kappa=0.0, X=2.0, h=1.0 / 16.0)
    assert diagonal_values(problem, [0.0, 0.5, 1.0]) == [0.0, 0.0, 0.0]


def test_potential_from_diagonal_linear():
    xs = [0.1 * k for k in range(21)]
    q = potential_from_diagonal([x * x / 4.0 for x in xs], spacing=0.1)
    for x, val in zip(xs, q):
        assert val == pytest.approx(x, abs=1e-12)


def test_potential_from_solved_grid():
    # telegraph diagonal is constant 1, so the recovered potential vanishes
    grid = solve(_telegraph(1.0 / 32.0))
    q = potential_from_diagonal(grid)
    assert max(abs(v) for v in q) <= 1e-12


def test_potential_needs_enough_samples():
    with pytest.raises(UsageError):
        potential_from_diagonal([1.0, 2.0], spacing=0.1)


@pytest.mark.parametrize("samples,spacing", [
    ([1.0, 2.0, 3.0], math.nan),
    ([1.0, 2.0, 3.0], math.inf),
    ([1.0, 2.0, 3.0], -0.1),
    ([1.0, 2.0, 3.0], None),
    ([1.0, math.inf, 3.0], 0.1),
    ([1.0, 2.0, math.nan], 0.1),
])
def test_potential_refuses_non_finite_input(samples, spacing):
    with pytest.raises(UsageError):
        potential_from_diagonal(samples, spacing=spacing)


def test_problem_from_case_probes_the_operators():
    problem = problem_from_case(get_case("vekua_telegraph"), X=2.0, h=1.0 / 32.0)
    assert problem.sigma == 1.0
    assert problem.rho == 0.0
    assert problem.kappa == 1.0  # K(x,x) = J0(0) = 1, fitted exactly
    grid = solve(problem)
    stats = compare(grid, get_case("vekua_telegraph").kernel, {"mu": 1.0, "omega": 1.0})
    assert stats["max"] <= 1e-3


def test_problem_from_case_rejects_variable_leading_coefficient():
    with pytest.raises(UsageError, match="leading coefficient"):
        problem_from_case(get_case("gegenbauer"), X=0.9, h=1.0 / 32.0)


def test_problem_from_case_diagonal_residue():
    # sine_to_bessel: b1 - b0 = -2 beta / s on the diagonal, so the probe
    # must report rho = -2 at beta = 1 (where K(x,x) = x does not vanish)
    problem = problem_from_case(get_case("sine_to_bessel", {"beta": 1.0}), X=2.0, h=1.0 / 32.0)
    assert problem.rho == pytest.approx(-2.0, abs=1e-6)


def test_problem_from_case_cancelling_poles():
    # sonin's b0 and b1 are each singular, but the 1/s parts cancel on the
    # diagonal; the probe has to see through that and report zero (at
    # nu = 0, where K(x,x) = 1 does not vanish)
    problem = problem_from_case(get_case("sonin", {"nu": 0.0}), X=2.0, h=1.0 / 32.0)
    assert problem.rho == 0.0


@pytest.mark.parametrize(
    "kwargs,needle",
    [
        (dict(sigma=2.0), "sigma"),
        (dict(X=1.0, h=0.3), "X/h"),
        (dict(boundary="mirror"), "boundary"),
        (dict(b0="x"), "may only depend on 't'"),
        (dict(h=-0.1), "h > 0"),
        (dict(boundary="even"), "boundary"),
    ],
)
def test_problem_validation(kwargs, needle):
    base = dict(sigma=1.0, b0="0", b1="0", c0="0", c1="0")
    base.update(kwargs)
    with pytest.raises(UsageError, match=needle):
        GoursatProblem(**base)


def test_boundary_flavor_guards():
    with pytest.raises(UsageError, match="c0 regular"):
        solve(GoursatProblem(sigma=1.0, b0="0", b1="0", c0="1/t", c1="0",
                             X=1.0, h=1.0 / 8.0, boundary="neumann"))
    with pytest.raises(UsageError, match="b0 regular"):
        solve(GoursatProblem(sigma=1.0, b0="-1/t", b1="0", c0="0", c1="0",
                             X=1.0, h=1.0 / 8.0, boundary="robin"))


def test_divergent_march_raises_numerical_error():
    problem = GoursatProblem(sigma=-1.0, b0="0", b1="0", c0="0", c1="1e8",
                             X=2.0, h=1.0 / 16.0)
    with pytest.raises(NumericalError, match="non-finite"):
        solve(problem)


def test_grid_geometry_and_csv():
    grid = solve(GoursatProblem(sigma=1.0, b0="0", b1="0", c0="0", c1="0",
                                X=1.0, h=0.25))
    pts = list(grid.points())
    assert len(pts) == sum(min(i, 8 - i) + 1 for i in range(9))
    for i, j, x, t, k in pts:
        assert x == pytest.approx((i + j) * 0.125)
        assert t == pytest.approx((i - j) * 0.125)
        assert 0.0 <= t <= x + 1e-12
    buf = io.StringIO()
    grid.export_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "x,t,K"
    assert len(lines) == len(pts) + 1


def test_grid_jet_matches_closed_form():
    grid = solve(_telegraph(1.0 / 64.0))
    ref = parse("besselj(0, mu*sqrt(x^2-t^2))")
    for x, t in [(0.83, 0.41), (1.27, 0.66), (1.9, 1.11)]:
        got = grid.jet(x, t)
        want = evaluate_jet(ref, x, t, {"mu": 1.0})
        assert got.value == pytest.approx(want.value, abs=1e-5)
        assert got.dx == pytest.approx(want.dx, abs=1e-5)
        assert got.dt == pytest.approx(want.dt, abs=1e-5)
        assert got.dxx == pytest.approx(want.dxx, abs=1e-4)
        assert got.dtt == pytest.approx(want.dtt, abs=1e-4)


def test_grid_jet_needs_interior_stencil():
    grid = solve(_telegraph(1.0 / 16.0))
    with pytest.raises(UsageError):
        grid.jet(1.99, 0.005)  # too close to the corner for a 4x4 stencil
