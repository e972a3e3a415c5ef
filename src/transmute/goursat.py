"""Characteristic-lattice solver for kernels with constant leading term.

With a0 = a1 = sigma constant, the hyperbolic identity becomes, in
characteristic coordinates u = x+t, v = x-t,

    -4 sigma K_uv = (b0+b1) K_u + (b1-b0) K_v + (c1-c0) K.

The lattice lives at u = i h, v = j h with 0 <= j <= i and i+j <= 2N
(N = X/h); (x,t) = ((i+j) h/2, (i-j) h/2), so a level d = i+j is a
line of constant x = d h/2. j = 0 is the diagonal t = x, carrying the
closed-form transport data; j = i is the t = 0 edge, closed by a
Neumann or Robin condition. Marching is second order: each cell uses
the integral identity K(u,v) = K(u-h,v) + K(u,v-h) - K(u-h,v-h)
+ h^2 F(midpoint) with exactly two predictor-corrector sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import NumericalError, TransmuteError, UsageError
from .expr import Expr, Jet2, evaluate, free_symbols, parse
from .quadrature import jacobi_rule

__all__ = [
    "GoursatProblem",
    "TriangleGrid",
    "problem_from_case",
    "diagonal_values",
    "solve",
    "compare",
    "potential_from_diagonal",
]

_BOUNDARIES = ("auto", "neumann", "robin")


@dataclass(frozen=True)
class GoursatProblem:
    """Coefficients and lattice geometry for one solve.

    b0, c0 are functions of t; b1, c1 of x (plus entries of ``params``);
    each may be passed as an already-parsed tree or a grammar string.
    ``rho`` declares the 1/x residue of b1 - b0 on the diagonal, so the
    transport data can split off the x^(-rho/(2 sigma)) factor exactly.
    ``kappa`` seeds K(0,0); the vertex value is otherwise free.
    """

    sigma: float
    b0: Expr
    b1: Expr
    c0: Expr
    c1: Expr
    h0: float = 0.0
    kappa: float = 1.0
    X: float = 1.0
    h: float = 1.0 / 64.0
    rho: float = 0.0
    params: Mapping[str, float] = field(default_factory=dict)
    boundary: str = "auto"

    def __post_init__(self):
        for name in ("b0", "c0", "b1", "c1"):
            value = getattr(self, name)
            if isinstance(value, str):
                object.__setattr__(self, name, parse(value))
        if self.sigma not in (1.0, -1.0):
            raise UsageError(f"sigma must be +1 or -1, got {self.sigma!r}")
        if not (self.X > 0.0 and self.h > 0.0):
            raise UsageError("need X > 0 and h > 0")
        n = self.X / self.h
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise UsageError(f"X/h must be a positive integer, got {n!r}")
        if self.boundary not in _BOUNDARIES:
            raise UsageError(
                f"boundary must be one of {', '.join(_BOUNDARIES)},"
                f" got {self.boundary!r}"
            )
        for name, expr, var in (
            ("b0", self.b0, "t"),
            ("c0", self.c0, "t"),
            ("b1", self.b1, "x"),
            ("c1", self.c1, "x"),
        ):
            extra = free_symbols(expr) - set(self.params) - {var}
            if extra:
                raise UsageError(
                    f"coefficient {name} may only depend on {var!r} and the"
                    f" declared parameters; found {sorted(extra)}"
                )

    @property
    def steps(self):
        return int(round(self.X / self.h))


def _eval_t(problem, expr, t):
    return evaluate(expr, {**problem.params, "t": t})


def _eval_x(problem, expr, x):
    return evaluate(expr, {**problem.params, "x": x})


def _b0_at_zero(problem):
    """b0(0), or None when the coefficient is singular there."""
    try:
        value = _eval_t(problem, problem.b0, 0.0)
    except TransmuteError:
        return None
    return value if math.isfinite(value) else None


def _diag_smooth(problem, s):
    """(b1 - b0)(s) minus the declared rho/s pole."""
    value = _eval_x(problem, problem.b1, s) - _eval_t(problem, problem.b0, s)
    if problem.rho != 0.0:
        value -= problem.rho / s
    return value


def diagonal_values(problem, xs):
    """Transport data K(x,x) at the requested abscissae.

    Solves 2 sigma K0' + (b1-b0) K0 = 0 in closed form:
    K0(x) = kappa * x^(-rho/(2 sigma)) * exp(-(1/(2 sigma)) S(x)) with
    S the running integral of the smooth part, accumulated panel by
    panel with 32-point Gauss-Legendre.
    """
    xs = list(xs)
    if any(x < 0.0 for x in xs):
        raise UsageError("diagonal abscissae must be nonnegative")
    exponent = -problem.rho / (2.0 * problem.sigma)
    if exponent < 0.0 and problem.kappa != 0.0 and any(x == 0.0 for x in xs):
        raise UsageError(
            "diagonal data blows up at x = 0 (rho/(2 sigma) > 0);"
            " set kappa = 0 or keep x > 0"
        )
    if problem.kappa == 0.0:
        return [0.0 for _ in xs]

    gl = jacobi_rule(32, 0.0, 0.0)
    panel = problem.h / 2.0
    order = sorted(range(len(xs)), key=lambda k: xs[k])
    out = [0.0] * len(xs)
    integral = 0.0
    reached = 0.0
    for idx in order:
        x = xs[idx]
        while reached < x - 1e-15 * max(1.0, x):
            top = min(reached + panel, x)
            half = 0.5 * (top - reached)
            mid = 0.5 * (top + reached)
            integral += half * math.fsum(
                w * _diag_smooth(problem, mid + half * s)
                for s, w in zip(gl.nodes, gl.weights)
            )
            reached = top
        if x == 0.0:
            out[idx] = problem.kappa if exponent == 0.0 else 0.0
        else:
            out[idx] = (
                problem.kappa
                * x ** exponent
                * math.exp(-integral / (2.0 * problem.sigma))
            )
    return out


@dataclass(frozen=True, eq=False)
class TriangleGrid:
    """Solved values, one numpy row per level d = i + j (constant x)."""

    h: float
    X: float
    levels: tuple

    @property
    def steps(self):
        return len(self.levels) // 2

    def value(self, i, j):
        return float(self.levels[i + j][j])

    def points(self):
        """Yield (i, j, x, t, K) row-major by i then j."""
        top = len(self.levels) - 1
        for i in range(top + 1):
            for j in range(min(i, top - i) + 1):
                d = i + j
                yield i, j, d * self.h / 2.0, (d - 2 * j) * self.h / 2.0, float(
                    self.levels[d][j]
                )

    def diagonal(self):
        """(x, K(x,x)) samples along t = x, spacing h/2."""
        xs = [d * self.h / 2.0 for d in range(len(self.levels))]
        vals = [float(lvl[0]) for lvl in self.levels]
        return xs, vals

    def export_csv(self, stream):
        stream.write("x,t,K\n")
        for _, _, x, t, k in self.points():
            stream.write(f"{x:.17g},{t:.17g},{k:.17g}\n")

    def jet(self, x, t):
        """Second-order jet at an off-lattice point via a 4x4 tensor-cubic
        fit in characteristic coordinates."""
        h = self.h
        top = len(self.levels) - 1
        uu = (x + t) / h
        vv = (x - t) / h
        j0 = int(math.floor(vv)) - 1
        i0 = int(math.floor(uu)) - 1
        j0 = max(j0, 0)
        i0 = max(i0, j0 + 3)
        if i0 + 3 + j0 + 3 > top or vv < 0.0:
            raise UsageError(
                f"point ({x!r}, {t!r}) too close to the triangle edge for a"
                " 4x4 interpolation stencil"
            )
        xi_u = uu - i0
        xi_v = vv - j0

        def basis(xi):
            vals, d1, d2 = [], [], []
            for k in range(4):
                others = [m for m in range(4) if m != k]
                den = 1.0
                for m in others:
                    den *= k - m
                vals.append(
                    (xi - others[0]) * (xi - others[1]) * (xi - others[2]) / den
                )
                d1.append(
                    (
                        (xi - others[1]) * (xi - others[2])
                        + (xi - others[0]) * (xi - others[2])
                        + (xi - others[0]) * (xi - others[1])
                    )
                    / den
                )
                d2.append(
                    2.0 * ((xi - others[0]) + (xi - others[1]) + (xi - others[2])) / den
                )
            return vals, d1, d2

        lu, du, ddu = basis(xi_u)
        lv, dv, ddv = basis(xi_v)
        val = ku = kv = kuu = kuv = kvv = 0.0
        for a in range(4):
            for b in range(4):
                kval = float(self.levels[i0 + a + j0 + b][j0 + b])
                val += lu[a] * lv[b] * kval
                ku += du[a] * lv[b] * kval
                kv += lu[a] * dv[b] * kval
                kuu += ddu[a] * lv[b] * kval
                kuv += du[a] * dv[b] * kval
                kvv += lu[a] * ddv[b] * kval
        ku /= h
        kv /= h
        kuu /= h * h
        kuv /= h * h
        kvv /= h * h
        return Jet2(
            value=val,
            dx=ku + kv,
            dt=ku - kv,
            dxx=kuu + 2.0 * kuv + kvv,
            dxt=kuu - kvv,
            dtt=kuu - 2.0 * kuv + kvv,
        )


def _coefficient_tables(problem, count):
    """Coefficients sampled on the half-grid m -> m*h/2, m = 0..count.

    Index 0 (the t = 0 or x = 0 endpoint) is NaN when the expression is
    singular there; the marching never reads it unless the boundary
    closure legitimately needs a regular value.
    """
    half = problem.h / 2.0
    tables = {}
    for name, expr, kind in (
        ("b0", problem.b0, "t"),
        ("c0", problem.c0, "t"),
        ("b1", problem.b1, "x"),
        ("c1", problem.c1, "x"),
    ):
        arr = np.empty(count + 1)
        for m in range(count + 1):
            s = m * half
            try:
                arr[m] = (
                    _eval_t(problem, expr, s)
                    if kind == "t"
                    else _eval_x(problem, expr, s)
                )
            except TransmuteError:
                if m == 0:
                    arr[m] = math.nan
                else:
                    raise
        tables[name] = arr
    return tables


def _resolve_boundary(problem):
    b0_zero = _b0_at_zero(problem)
    flavor = problem.boundary
    if flavor == "auto":
        if b0_zero is None:
            flavor = "neumann"
        elif abs(b0_zero + problem.h0 * problem.sigma) <= 1e-13:
            flavor = "neumann"
        else:
            flavor = "robin"
    if flavor == "robin" and b0_zero is None:
        raise UsageError(
            "Robin closure needs b0 regular at t = 0; this b0 is singular,"
            " so only the Neumann variant is available"
        )
    return flavor, b0_zero


def _cell_update(sigma, h, S, Q, base_corner, b0v, b1s, c0v, c1s):
    """Two corrector sweeps of the characteristic cell rule.

    S = K(u-h, v), Q = K(u, v-h), base_corner = K(u-h, v-h); the
    returned value is K(u, v). Works elementwise on numpy arrays.
    """
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


def solve(problem):
    """March the triangle and return the solved TriangleGrid."""
    n_steps = problem.steps
    top = 2 * n_steps
    flavor, b0_zero = _resolve_boundary(problem)
    tables = _coefficient_tables(problem, top)
    if flavor == "neumann" and b0_zero is not None:
        # the t = 0 ghost cell reads the endpoint coefficients
        if math.isnan(tables["c0"][0]):
            raise UsageError("Neumann ghost cell needs c0 regular at t = 0")
    diag = diagonal_values(problem, [d * problem.h / 2.0 for d in range(top + 1)])

    # the per-level isfinite gate reports divergence; keep numpy from
    # announcing the overflow separately on stderr first
    with np.errstate(over="ignore", invalid="ignore"):
        return _march(problem, diag, flavor, b0_zero, tables)


def _march(problem, diag, flavor, b0_zero, tables):
    b0t, c0t = tables["b0"], tables["c0"]
    b1x, c1x = tables["b1"], tables["c1"]
    sigma, h = problem.sigma, problem.h
    top = 2 * problem.steps
    levels = [np.array([diag[0]])]
    for d in range(1, top + 1):
        lvl = np.empty(d // 2 + 1)
        lvl[0] = diag[d]
        prev = levels[d - 1]
        j_hi = (d - 1) // 2
        if j_hi >= 1:
            js = np.arange(1, j_hi + 1)
            prev2 = levels[d - 2]
            lvl[1 : j_hi + 1] = _cell_update(
                sigma,
                h,
                prev[js],
                prev[js - 1],
                prev2[js - 1],
                b0t[d - 2 * js],
                b1x[d - 1],
                c0t[d - 2 * js],
                c1x[d - 1],
            )
        if d % 2 == 0:
            j0 = d // 2
            if flavor == "neumann" and b0_zero is not None:
                ghost = prev[j0 - 1]
                lvl[j0] = _cell_update(
                    sigma,
                    h,
                    ghost,
                    ghost,
                    levels[d - 2][j0 - 1],
                    b0t[0],
                    b1x[d - 1],
                    c0t[0],
                    c1x[d - 1],
                )
            elif flavor == "neumann":
                # singular b0: enforce K_t(x, 0) = 0 by one-sided
                # extrapolation, never touching the coefficients at 0
                if j0 >= 2:
                    lvl[j0] = (4.0 * lvl[j0 - 1] - lvl[j0 - 2]) / 3.0
                else:
                    lvl[j0] = lvl[j0 - 1]
            else:  # robin
                theta = b0_zero + problem.h0 * sigma
                if j0 >= 2:
                    lvl[j0] = (
                        sigma
                        * (4.0 * lvl[j0 - 1] - lvl[j0 - 2])
                        / (3.0 * sigma + 2.0 * h * theta)
                    )
                else:
                    lvl[j0] = sigma * lvl[j0 - 1] / (sigma + h * theta)
        if not np.all(np.isfinite(lvl)):
            raise NumericalError(f"non-finite lattice value at level {d}")
        levels.append(lvl)
    return TriangleGrid(h=h, X=problem.X, levels=tuple(levels))


def compare(grid, reference, params=None):
    """Max and RMS gap between the grid and a closed-form expression."""
    if isinstance(reference, str):
        reference = parse(reference)
    params = params or {}
    worst = 0.0
    total = 0.0
    count = 0
    for _, _, x, t, k in grid.points():
        ref = evaluate(reference, {**params, "x": x, "t": t})
        gap = abs(k - ref)
        worst = max(worst, gap)
        total += gap * gap
        count += 1
    return {"max": worst, "l2": math.sqrt(total / count), "count": count}


def potential_from_diagonal(source, spacing=None):
    """q(x) = 2 dK(x,x)/dx by second-order differencing.

    ``source`` is either a TriangleGrid (spacing inferred) or a sequence
    of diagonal samples on a uniform grid with explicit ``spacing``.
    """
    if isinstance(source, TriangleGrid):
        _, vals = source.diagonal()
        spacing = source.h / 2.0
    else:
        vals = list(source)
        if spacing is None or spacing <= 0.0:
            raise UsageError("potential_from_diagonal needs a positive spacing")
    if len(vals) < 3:
        raise UsageError("need at least 3 diagonal samples")
    q = []
    last = len(vals) - 1
    for m, _ in enumerate(vals):
        if m == 0:
            d = (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * spacing)
        elif m == last:
            d = (3.0 * vals[last] - 4.0 * vals[last - 1] + vals[last - 2]) / (
                2.0 * spacing
            )
        else:
            d = (vals[m + 1] - vals[m - 1]) / (2.0 * spacing)
        q.append(2.0 * d)
    return q


def problem_from_case(case, X, h, kappa=1.0, boundary="auto"):
    """Adapt a catalog case to the solver's constant-sigma form.

    The leading coefficients must be the same constant +-1 (variable
    a(x), e.g. the x^2 (x^2-1) family, is out of the solver's scope).
    The 1/x residue of b1 - b0 is probed numerically so the transport
    data can be split exactly.
    """
    probes = (0.3, 0.7, 1.1)
    a_vals = [evaluate(case.opA.a, {**case.params, "t": s}) for s in probes]
    a_vals += [evaluate(case.opB.a, {**case.params, "x": s}) for s in probes]
    if any(v != a_vals[0] for v in a_vals) or a_vals[0] not in (1.0, -1.0):
        raise UsageError(
            f"case {case.name!r} does not have constant leading coefficient"
            " +-1; the characteristic solver does not apply"
        )
    sigma = a_vals[0]

    def gap(s):
        return evaluate(case.opB.b, {**case.params, "x": s}) - evaluate(
            case.opA.b, {**case.params, "t": s}
        )

    r1, r2 = 1e-3 * gap(1e-3), 1e-6 * gap(1e-6)
    if abs(r2) < 1e-10:
        rho = 0.0
    elif abs(r1 - r2) <= 1e-6 * (1.0 + abs(r2)):
        rho = r2
    else:
        raise UsageError(
            f"b1 - b0 of case {case.name!r} is not rho/x + smooth;"
            " the transport data cannot be split"
        )
    return GoursatProblem(
        sigma=sigma,
        b0=case.opA.b,
        b1=case.opB.b,
        c0=case.opA.c,
        c1=case.opB.c,
        h0=case.opA.h,
        kappa=kappa,
        X=X,
        h=h,
        rho=rho,
        params=dict(case.params),
        boundary=boundary,
    )
