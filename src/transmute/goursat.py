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
+ h^2 F(midpoint) with exactly two predictor-corrector sweeps. F takes
K_u, K_v and K at the cell midpoint from centred differences of the new
value p and its three neighbours, so h^2 F is affine in p, a p + g, and
the two sweeps fuse into p1 = base + a base + g, p2 = base + a p1 + g,
applied to a whole level at once.

Coefficient tables, the diagonal transport integral and ``compare`` each
evaluate their expression once over arrays of points, not point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import NumericalError, TransmuteError, UsageError
from .expr import BinOp, Expr, Jet2, evaluate, free_symbols, parse
from .quadrature import jacobi_rule

__all__ = [
    "MAX_STEPS",
    "GoursatProblem",
    "TriangleGrid",
    "problem_from_case",
    "diagonal_values",
    "solve",
    "compare",
    "potential_from_diagonal",
]

_BOUNDARIES = ("auto", "neumann", "robin")

# The grid keeps every level, and level d holds d // 2 + 1 doubles, so N
# steps hold about N^2 doubles: 8 N^2 bytes, 134 MB at 4096 steps, four
# times the 34 MB of the finest rung the benchmark ladder solves (2048).
MAX_STEPS = 4096


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
        if not n <= MAX_STEPS + 0.5:
            raise UsageError(
                f"X/h = {n:g} steps is beyond the lattice budget of"
                f" {MAX_STEPS} steps ({8 * MAX_STEPS**2 / 1e6:.0f} MB of values)"
            )
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


def diagonal_values(problem, xs):
    """Transport data K(x,x) at the requested abscissae.

    Solves 2 sigma K0' + (b1-b0) K0 = 0 in closed form:
    K0(x) = kappa * x^(-rho/(2 sigma)) * exp(-(1/(2 sigma)) S(x)) with
    S the running integral of the smooth part of b1 - b0 (less the
    declared rho/s pole). From each abscissa (in increasing order) to the
    next, S advances in panels of h/2, the last cut short; the smooth
    part is evaluated once over the 32 Gauss-Legendre nodes of every
    panel, and a cumulative sum of the panel integrals gives S.
    """
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
    smooth = evaluate(BinOp("-", problem.b1, problem.b0), {**problem.params, "x": s, "t": s})
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


@dataclass(frozen=True, eq=False)
class TriangleGrid:
    """Solved values, one numpy row per level d = i + j (constant x), and
    the t = 0 closure the march used ("neumann" or "robin")."""

    h: float
    levels: tuple
    boundary: str

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
    s = np.arange(1, count + 1) * (problem.h / 2.0)
    tables = {}
    for name, var in (("b0", "t"), ("c0", "t"), ("b1", "x"), ("c1", "x")):
        expr = getattr(problem, name)
        arr = np.empty(count + 1)
        try:
            arr[0] = evaluate(expr, {**problem.params, var: 0.0})
        except TransmuteError:
            arr[0] = math.nan
        arr[1:] = evaluate(expr, {**problem.params, var: s})
        tables[name] = arr
    return tables


def _resolve_boundary(problem, b0_zero):
    """The t = 0 closure, given b0(0) (NaN when b0 is singular there)."""
    flavor = problem.boundary
    if flavor == "auto":
        if math.isnan(b0_zero):
            flavor = "neumann"
        elif abs(b0_zero + problem.h0 * problem.sigma) <= 1e-13:
            flavor = "neumann"
        else:
            flavor = "robin"
    if flavor == "robin" and math.isnan(b0_zero):
        raise UsageError(
            "Robin closure needs b0 regular at t = 0; this b0 is singular,"
            " so only the Neumann variant is available"
        )
    return flavor


def _cell_update(sigma, h, S, Q, base_corner, b0v, b1s, c0v, c1s):
    """Two corrector sweeps of the characteristic cell rule, fused.

    S = K(u-h, v), Q = K(u, v-h), base_corner = K(u-h, v-h); the
    returned value is K(u, v). A sweep sets p = base + h^2 F(p), where
    4 sigma F = -(b1 (p - C) + b0 (Q - S)) / h - (c1 - c0)(p + S + Q + C) / 4
    is affine in p: h^2 F(p) = a p + g. Works elementwise on numpy arrays.
    """
    C = base_corner
    q = -h / (4.0 * sigma)
    e = (c1s - c0v) * (-h * h / (16.0 * sigma))
    a = q * b1s + e
    sq = S + Q
    base = sq - C
    g = q * (b0v * (Q - S) - b1s * C) + e * (sq + C)
    p = base + a * base + g
    return base + a * p + g


def solve(problem):
    """March the triangle and return the solved TriangleGrid."""
    top = 2 * problem.steps
    tables = _coefficient_tables(problem, top)
    flavor = _resolve_boundary(problem, tables["b0"][0])
    if flavor == "neumann" and not math.isnan(tables["b0"][0]):
        # the t = 0 ghost cell reads the endpoint coefficients
        if math.isnan(tables["c0"][0]):
            raise UsageError("Neumann ghost cell needs c0 regular at t = 0")
    diag = diagonal_values(problem, np.arange(top + 1) * problem.h / 2.0)

    # the per-level isfinite gate reports divergence; keep numpy from
    # announcing the overflow separately on stderr first
    with np.errstate(over="ignore", invalid="ignore"):
        return _march(problem, diag, flavor, tables)


def _march(problem, diag, flavor, tables):
    b0t, c0t = tables["b0"], tables["c0"]
    b1x, c1x = tables["b1"], tables["c1"]
    sigma, h = problem.sigma, problem.h
    ghost_cell = flavor == "neumann" and not math.isnan(b0t[0])
    top = 2 * problem.steps
    levels = [np.array([diag[0]])]
    for d in range(1, top + 1):
        lvl = np.empty(d // 2 + 1)
        lvl[0] = diag[d]
        prev = levels[d - 1]
        j_hi = (d - 1) // 2
        if j_hi >= 1:
            # cell j reads b0 and c0 at t = (d - 2j) h/2: reversed strided views
            lvl[1 : j_hi + 1] = _cell_update(
                sigma,
                h,
                prev[1 : j_hi + 1],
                prev[:j_hi],
                levels[d - 2][:j_hi],
                b0t[d - 2 :: -2][:j_hi],
                b1x[d - 1],
                c0t[d - 2 :: -2][:j_hi],
                c1x[d - 1],
            )
        if d % 2 == 0:
            j0 = d // 2
            if ghost_cell:
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
                theta = b0t[0] + problem.h0 * sigma
                if j0 >= 2:
                    lvl[j0] = (
                        sigma
                        * (4.0 * lvl[j0 - 1] - lvl[j0 - 2])
                        / (3.0 * sigma + 2.0 * h * theta)
                    )
                else:
                    lvl[j0] = sigma * lvl[j0 - 1] / (sigma + h * theta)
        if not np.isfinite(lvl).all():
            raise NumericalError(f"non-finite lattice value at level {d}")
        levels.append(lvl)
    return TriangleGrid(h=h, levels=tuple(levels), boundary=flavor)


# points per array evaluation in ``compare``: its temporaries (and the
# per-entry lists of a special function) stay near 100 kB at any size
_COMPARE_POINTS = 4096


def compare(grid, reference, params=None):
    """Max and RMS gap between the grid and a closed-form expression."""
    if isinstance(reference, str):
        reference = parse(reference)
    params = params or {}
    h = grid.h
    worst = total = 0.0
    count = 0
    # the last level is the longest
    per_block = max(1, _COMPARE_POINTS // len(grid.levels[-1]))
    for first in range(0, len(grid.levels), per_block):
        block = grid.levels[first : first + per_block]
        sizes = [len(lvl) for lvl in block]
        d = np.repeat(np.arange(first, first + len(block)), sizes)
        j = np.concatenate([np.arange(n) for n in sizes])
        ref = evaluate(reference, {**params, "x": d * h / 2.0, "t": (d - 2 * j) * h / 2.0})
        gap = np.abs(np.concatenate(block) - ref)
        worst = max(worst, float(gap.max()))
        total += float(gap @ gap)
        count += gap.size
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
    # central differences inside, second-order one-sided ones at the ends
    return (2.0 * np.gradient(np.asarray(vals, dtype=float), spacing, edge_order=2)).tolist()


def problem_from_case(case, X, h):
    """Adapt a catalog case to the solver's constant-sigma form, with
    kappa = 1 and the boundary closure picked by ``solve``.

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
        X=X,
        h=h,
        rho=rho,
        params=dict(case.params),
    )
