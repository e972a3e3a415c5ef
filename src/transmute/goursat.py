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
from dataclasses import dataclass, field, replace
from itertools import chain
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

# The grid keeps every level in one array of exactly (N+1)^2 doubles for N
# steps: 134 MB at 4096 steps, four times the 34 MB of the finest rung the
# benchmark ladder solves (2048).
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
                f" {MAX_STEPS} steps ({8 * (MAX_STEPS + 1) ** 2 / 1e6:.0f} MB of values)"
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


def _offset(d):
    """Where level d starts in the flat lattice array (d an int or an int
    array): level d = i + j holds K at j = 0..d // 2, the diagonal first,
    and the levels d = 0..2N lie back to back."""
    return d + (d // 2) * ((d - 1) // 2)


# the cubic Lagrange basis on the nodes 0..3, row k holding the power-series
# coefficients of L_k: the inverse of the nodes' Vandermonde matrix
_LAGRANGE = np.array([[6, -11, 6, -1], [0, 18, -15, 3], [0, -9, 12, -3], [0, 2, -3, 1]]) / 6.0


def _cubic_basis(xi, h):
    """The basis at xi (row 0), then its first and second derivatives per step h."""
    powers = [[1, xi, xi * xi, xi**3], [0, 1, 2 * xi, 3 * xi * xi], [0, 0, 2, 6 * xi]]
    return powers @ _LAGRANGE.T / np.array([[1.0], [h], [h * h]])


@dataclass(frozen=True, eq=False)
class TriangleGrid:
    """Solved values, one flat array of the levels laid out by ``_offset``
    ((N+1)^2 doubles for N = X/h steps), and the t = 0 closure the march
    used ("neumann" or "robin")."""

    h: float
    values: np.ndarray
    boundary: str

    @property
    def top(self):
        """The last level, 2N."""
        return 2 * (math.isqrt(self.values.size) - 1)

    @property
    def levels(self):
        """One view of ``values`` per level."""
        return tuple(self.values[_offset(d) : _offset(d + 1)] for d in range(self.top + 1))

    def value(self, i, j):
        return float(self.values[_offset(i + j) + j])

    def points(self):
        """Yield (i, j, x, t, K) row-major by i then j."""
        top = self.top
        for i in range(top + 1):
            for j in range(min(i, top - i) + 1):
                yield i, j, (i + j) * self.h / 2.0, (i - j) * self.h / 2.0, self.value(i, j)

    def diagonal(self):
        """(x, K(x,x)) samples along t = x, spacing h/2."""
        d = np.arange(self.top + 1)
        return (d * self.h / 2.0).tolist(), self.values[_offset(d)].tolist()

    def export_csv(self, stream):
        stream.write("x,t,K\n")
        for _, _, x, t, k in self.points():
            stream.write(f"{x:.17g},{t:.17g},{k:.17g}\n")

    def jet(self, x, t):
        """Second-order jet at an off-lattice point via a 4x4 tensor-cubic
        fit in characteristic coordinates."""
        h = self.h
        uu = (x + t) / h
        vv = (x - t) / h
        j0 = max(int(math.floor(vv)) - 1, 0)
        i0 = max(int(math.floor(uu)) - 1, j0 + 3)
        if i0 + 3 + j0 + 3 > self.top or vv < 0.0:
            raise UsageError(
                f"point ({x!r}, {t!r}) too close to the triangle edge for a"
                " 4x4 interpolation stencil"
            )
        a, b = np.ogrid[0:4, 0:4]
        stencil = self.values[_offset(i0 + j0 + a + b) + j0 + b]
        # row r, column s: the fit's r-th u- and s-th v-derivative
        k = _cubic_basis(uu - i0, h) @ stencil @ _cubic_basis(vv - j0, h).T
        (val, kv, kvv), (ku, kuv, _), (kuu, _, _) = k.tolist()
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

    # the finiteness gate after the march reports divergence; keep numpy
    # from announcing the overflow separately on stderr first
    with np.errstate(over="ignore", invalid="ignore"):
        return _march(problem, diag, flavor, tables)


def _march(problem, diag, flavor, tables):
    b0t, c0t = tables["b0"], tables["c0"]
    b1x, c1x = tables["b1"], tables["c1"]
    sigma, h = problem.sigma, problem.h
    ghost_cell = flavor == "neumann" and not math.isnan(b0t[0])
    # without the ghost cell the wall takes K_t = slope K at t = 0 one-sided:
    # Robin's sigma K_t = theta K with theta = b0(0) + h0 sigma, and slope = 0
    # (K_t = 0) for a singular b0, never touching the coefficients at 0
    slope = sigma * (b0t[0] + problem.h0 * sigma) if flavor == "robin" else 0.0
    top = 2 * problem.steps
    values = np.empty(_offset(top + 1))
    values[_offset(np.arange(top + 1))] = diag
    for d in range(2, top + 1):
        prev2, prev, lvl = (values[_offset(k) : _offset(k + 1)] for k in (d - 2, d - 1, d))
        # cells j = 1..j_hi read b0 and c0 at t = (d - 2j) h/2: reversed strided views
        j_hi = (d - 1) // 2
        lvl[1 : j_hi + 1] = _cell_update(
            sigma,
            h,
            prev[1 : j_hi + 1],
            prev[:j_hi],
            prev2[:j_hi],
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
                    sigma, h, ghost, ghost, prev2[j0 - 1], b0t[0], b1x[d - 1], c0t[0], c1x[d - 1]
                )
            elif j0 >= 2:
                lvl[j0] = (4.0 * lvl[j0 - 1] - lvl[j0 - 2]) / (3.0 + 2.0 * h * slope)
            else:
                lvl[j0] = lvl[0] / (1.0 + h * slope)
    grid = TriangleGrid(h=h, values=values, boundary=flavor)
    # NaN carries through min and max: no full-size isfinite mask is needed
    if not (math.isfinite(values.min()) and math.isfinite(values.max())):
        first = next(d for d, lvl in enumerate(grid.levels) if not np.isfinite(lvl).all())
        raise NumericalError(f"non-finite lattice value at level {first}")
    return grid


# points per array evaluation in ``compare``: its temporaries (and the
# per-entry lists of a special function) stay near 100 kB at any size
_COMPARE_POINTS = 4096


def compare(grid, reference, params=None):
    """Max and RMS gap between the grid and a closed-form expression; the
    squares are summed by ``math.fsum``, rounded once, so the RMS does not
    depend on how the points are split into blocks."""
    if isinstance(reference, str):
        reference = parse(reference)
    params = params or {}
    h = grid.h
    count = grid.values.size
    starts = _offset(np.arange(grid.top + 1))
    maxima = []

    def square_blocks():
        for first in range(0, count, _COMPARE_POINTS):
            k = np.arange(first, min(first + _COMPARE_POINTS, count))
            d = np.searchsorted(starts, k, side="right") - 1
            t = (d - 2 * (k - starts[d])) * h / 2.0
            ref = evaluate(reference, {**params, "x": d * h / 2.0, "t": t})
            gap = np.abs(grid.values[first : first + _COMPARE_POINTS] - ref)
            maxima.append(gap.max())
            yield (gap * gap).tolist()

    total = math.fsum(chain.from_iterable(square_blocks()))
    return {"max": float(max(maxima)), "l2": math.sqrt(total / count), "count": count}


def potential_from_diagonal(source, spacing=None):
    """q(x) = 2 dK(x,x)/dx by second-order differencing.

    ``source`` is either a TriangleGrid (spacing inferred) or a sequence
    of diagonal samples on a uniform grid with explicit ``spacing``.
    """
    if isinstance(source, TriangleGrid):
        _, vals = source.diagonal()
        spacing = source.h / 2.0
    elif spacing is None or not 0.0 < spacing < math.inf:
        raise UsageError("potential_from_diagonal needs a positive, finite spacing")
    else:
        vals = source
    vals = np.asarray(vals, dtype=float)
    if len(vals) < 3:
        raise UsageError("need at least 3 diagonal samples")
    if not np.isfinite(vals).all():
        raise UsageError("diagonal samples must be finite")
    # central differences inside, second-order one-sided ones at the ends
    return (2.0 * np.gradient(vals, spacing, edge_order=2)).tolist()


def problem_from_case(case, X, h):
    """Adapt a catalog case to the solver's constant-sigma form, with the
    boundary closure picked by ``solve``.

    The leading coefficients must be the same constant +-1 (variable
    a(x), e.g. the x^2 (x^2-1) family, is out of the solver's scope).
    The 1/x residue of b1 - b0 is probed numerically so the transport
    data can be split exactly, and kappa scales the transport data to
    the case's own K(X, X). A case whose K(X, X) is 0 is refused: zero
    transport data would make the march return K = 0.
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
    problem = GoursatProblem(
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
    try:
        k_diag = evaluate(case.kernel, {**case.params, "x": X, "t": X})
    except TransmuteError as exc:
        raise UsageError(
            f"K(x,x) of case {case.name!r} does not evaluate at x = {X:g}: {exc}"
        ) from exc
    if k_diag == 0.0:
        raise UsageError(
            f"K(x,x) of case {case.name!r} vanishes at x = {X:g}: zero transport data"
            " would make the march return K = 0"
        )
    return replace(problem, kappa=k_diag / diagonal_values(problem, [X])[0])
