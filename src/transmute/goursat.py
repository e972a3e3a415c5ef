"""Characteristic-lattice solver for kernels with constant leading term.

With a0 = a1 = sigma constant, the hyperbolic identity becomes, in
characteristic coordinates u = x+t, v = x-t,

    -4 sigma K_uv = (b0+b1) K_u + (b1-b0) K_v + (c1-c0) K.

The lattice lives at u = i h, v = j h with 0 <= j <= i and i+j <= 2N
(N = X/h); (x,t) = ((i+j) h/2, (i-j) h/2), so a level d = i+j is a
line of constant x = d h/2. j = 0 is the diagonal t = x, carrying the
closed-form transport data; j = i is the t = 0 edge, closed by the
Robin relation sigma K_t = (b0(0) + h0 sigma) K, or by a Neumann ghost
cell where that factor vanishes; a b0 singular at t = 0 takes the
one-sided K_t = 0 and so needs h0 = 0. Marching is second order: each cell uses
the integral identity K(u,v) = K(u-h,v) + K(u,v-h) - K(u-h,v-h)
+ h^2 F(midpoint) with exactly two predictor-corrector sweeps. F takes
K_u, K_v and K at the cell midpoint from centred differences of the new
value and its three neighbours S = K(u-h,v), Q = K(u,v-h), C = K(u-h,v-h),
so two sweeps are affine in them: K = (S + Q - C) + (wS S + wQ Q + wC C)
with O(h) weight deviations, kept apart from the stencil sum so that no
weight rounds its 1 away. A pair whose b0 and c0 do not read t (the
telegraph, any Bessel-type B side) has three float weights per level;
otherwise the weights are arrays over reversed runs of both t-tables,
b0's and c0's. A level is 8 in-place ufunc calls on two scratch
buffers, or 5 where the float weights have wS == wQ and wC == 0 on every
marched level (b0 = b1 = 0, c0 free of t): then wS S + wQ Q is read off
one product wS L of the whole previous level L, with the same roundings.

Coefficient tables, the diagonal transport integral and ``compare`` each
evaluate their expression once over arrays of points, not point by point.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain, pairwise
from typing import Mapping

import numpy as np

from .errors import NumericalError, TransmuteError, UsageError
from .expr import BinOp, Name, Record, evaluate, free_symbols, parse
from .operators import DifferentialOperator, check_pair_symbols
from .quadrature import jacobi_rule

__all__ = [
    "MAX_STEPS",
    "GoursatProblem",
    "TriangleGrid",
    "problem_from_case",
    "diagonal_values",
    "solve",
    "compare",
]

# The grid keeps every level in one array of exactly (N+1)^2 doubles for N
# steps: 134 MB at 4096 steps, four times the 34 MB of the finest rung the
# benchmark ladder solves (2048).
MAX_STEPS = 4096


class GoursatProblem(Record):
    """The operator pair and lattice geometry for one solve.

    ``op_a`` acts in t and gives b0, c0 (its b, c); ``op_b`` acts in x and
    gives b1, c1. Each coefficient may read its own variable and entries
    of ``params``. ``sigma`` and ``rho`` are derived, not set. ``sigma`` is
    the pair's leading coefficient, which must be one constant +1 or -1
    on both sides. ``rho`` is the residue of b1 - b0 = rho/x + smooth on
    the diagonal, so the transport data can split off the
    x^(-rho/(2 sigma)) factor exactly; a b1 - b0 of any other form near 0
    is refused. ``kappa`` seeds K(0,0); the vertex value is otherwise
    free. ``h0`` enters the t = 0 relation, and so picks the closure
    ``solve`` uses.
    """

    _fields = ("op_a", "op_b", "h0", "kappa", "X", "h", "params", "sigma", "rho")

    def __init__(
        self, op_a: DifferentialOperator, op_b: DifferentialOperator, h0: float = 0.0, kappa: float = 1.0,
        X: float = 1.0, h: float = 1.0 / 64.0, params: Mapping[str, float] | None = None,
    ):
        params = {} if params is None else params
        self.__dict__.update(op_a=op_a, op_b=op_b, h0=h0, kappa=kappa, X=X, h=h, params=params)
        if (self.op_a.var, self.op_b.var) != ("t", "x"):
            raise UsageError("the solver needs A acting in 't' and B in 'x'")
        check_pair_symbols(self.op_a, self.op_b, self.params)
        # an a that reads its own variable is not constant, whatever it evaluates to
        leading = [
            math.nan if op.var in free_symbols(op.a) else evaluate(op.a, self.params)
            for op in (self.op_a, self.op_b)
        ]
        if leading[0] != leading[1] or leading[0] not in (1.0, -1.0):
            raise UsageError(
                "the leading coefficients of A and B are not one constant +-1;"
                " the characteristic solver does not apply"
            )
        self.__dict__["sigma"] = leading[0]
        # x (b1 - b0) at x = t = 2^-900 and 2^-1000: a rho/x term scales by powers of
        # two exactly, giving rho bit for bit at both, and any other term shrinks
        tree = BinOp("*", Name("x"), BinOp("-", self.op_b.b, self.op_a.b))
        try:
            near, nearer = (evaluate(tree, {**self.params, "x": s, "t": s}) for s in (2.0**-900, 2.0**-1000))
        except TransmuteError:
            near = nearer = math.nan
        if not (near == nearer or abs(nearer) < abs(near)):
            raise UsageError("b1 - b0 is not rho/x + smooth at x = t = 0; the transport data cannot be split")
        self.__dict__["rho"] = near + 0.0 if near == nearer else 0.0  # +0.0, not -0.0
        if not (self.X > 0.0 and self.h > 0.0):
            raise UsageError("need X > 0 and h > 0")
        if not self.h / 2.0 > 0.0:  # the lattice's half step
            raise UsageError(f"h = {self.h!r} is too small: h/2 underflows to 0")
        n = self.X / self.h
        if not n <= MAX_STEPS + 0.5:
            raise UsageError(
                f"X/h = {n:g} steps is beyond the lattice budget of"
                f" {MAX_STEPS} steps ({8 * (MAX_STEPS + 1) ** 2 / 1e6:.0f} MB of values)"
            )
        if abs(n - round(n)) > 1e-9 or round(n) < 1:
            raise UsageError(f"X/h must be a positive integer, got {n!r}")

    @property
    def steps(self):
        return int(round(self.X / self.h))

    @cached_property  # kappa does not enter it, so ``problem_from_case`` hands it to ``solve``
    def _transport_integral(self):
        """S(m h/2), m = 0..2N, for ``diagonal_values``: the smooth part of b1 - b0 over the 32
        Gauss-Legendre nodes of each panel [k h/2, (k+1) h/2], summed cumulatively."""
        panel, gl = self.h / 2.0, jacobi_rule(32, 0.0, 0.0)
        half = 0.5 * panel
        s = ((np.arange(2 * self.steps) + 0.5) * panel)[:, None] + half * gl.nodes
        # b1 reads x and b0 reads t, so one tree takes both at the nodes
        smooth = evaluate(BinOp("-", self.op_b.b, self.op_a.b), {**self.params, "x": s, "t": s})
        with np.errstate(over="ignore", invalid="ignore"):
            if self.rho != 0.0:
                smooth -= self.rho / s
            return np.concatenate(([0.0], np.cumsum(half * (smooth @ gl.weights))))


def diagonal_values(problem, xs):
    """Transport data K(x,x) on diagonal cells x = m h/2, m an integer with
    0 <= m <= 2N, within the 1e-9 that ``GoursatProblem`` allows X/h; any
    other x is a UsageError, as ``TriangleGrid.value`` refuses non-cells.

    Solves 2 sigma K0' + (b1-b0) K0 = 0 in closed form:
    K0(x) = kappa * x^(-rho/(2 sigma)) * exp(-(1/(2 sigma)) S(x)) with
    S the running integral of the smooth part of b1 - b0 (less the
    rho/s pole). The smooth part is evaluated once per problem over the 32
    Gauss-Legendre nodes of all 2N of the lattice's own panels
    [k h/2, (k+1) h/2], and S(m h/2) is the cumulative sum of the panel
    integrals read at m, so every caller reads the same panels.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1)
    panel, top = problem.h / 2.0, 2 * problem.steps
    with np.errstate(all="ignore"):  # an inf or NaN x fails the test below
        m = np.rint(xs / panel)
        on = (np.abs(xs / panel - m) <= 1e-9) & (m >= 0.0) & (m <= top)
    if not on.all():
        raise UsageError(f"x = {float(xs[~on][0])!r} is not a diagonal cell: need x = m h/2, m in 0..{top}")
    exponent = -problem.rho / (2.0 * problem.sigma)
    if exponent < 0.0 and problem.kappa != 0.0 and np.any(xs == 0.0):
        raise UsageError("diagonal data blows up at the lattice vertex x = 0 (rho/(2 sigma) > 0); set kappa = 0")
    if problem.kappa == 0.0:
        return [0.0] * xs.size
    integral = problem._transport_integral[m.astype(int)]
    # the gate below reports an overflow; keep numpy from announcing it on stderr first
    with np.errstate(over="ignore", invalid="ignore"):
        k0 = problem.kappa * xs**exponent * np.exp(-integral / (2.0 * problem.sigma))
    if not np.all(np.isfinite(k0)):
        raise NumericalError("diagonal data overflows")
    return k0.tolist()


def _offset(d):
    """Where level d starts in the flat lattice array (d an int or an int
    array): level d = i + j holds K at j = 0..d // 2, the diagonal first,
    and the levels d = 0..2N lie back to back."""
    return d + (d // 2) * ((d - 1) // 2)


class TriangleGrid(Record):
    """Solved values, one flat array of the levels laid out by ``_offset``
    ((N+1)^2 doubles for N = X/h steps), and the t = 0 closure the march
    used ("neumann" or "robin")."""

    _fields = ("h", "values", "boundary")
    __eq__, __hash__ = object.__eq__, object.__hash__  # it holds an array: equal only to itself

    def __init__(self, h: float, values: np.ndarray, boundary: str):
        self.__dict__.update(h=h, values=values, boundary=boundary)

    @cached_property  # read by every call of ``value``
    def top(self):
        """The last level, 2N."""
        return 2 * (math.isqrt(self.values.size) - 1)

    @property
    def levels(self):
        """One view of ``values`` per level."""
        return tuple(self.values[a:b] for a, b in pairwise(_offset(np.arange(self.top + 2)).tolist()))

    def value(self, i, j):
        """K at the cell (i, j), integers with 0 <= j <= i and i + j <= 2N; anything else is a UsageError."""
        if 0 <= j <= i <= self.top - j:
            try:  # a float passes the comparisons but not numpy's indexing
                return float(self.values[_offset(i + j) + j])
            except IndexError:
                pass
        raise UsageError(f"({i!r}, {j!r}) is not a lattice cell: need integers 0 <= j <= i, i + j <= {self.top}")

    def export_csv(self, stream):
        """Write x,t,K row-major by i, then by j = 0..min(i, 2N - i), with %.17g;
        one run of j per i is formatted at a time."""
        stream.write("x,t,K\n")
        top = self.top
        for i in range(top + 1):
            j = np.arange(min(i, top - i) + 1)
            rows = np.stack(((i + j) * self.h / 2.0, (i - j) * self.h / 2.0, self.values[_offset(i + j) + j]))
            stream.write("%.17g,%.17g,%.17g\n" * j.size % tuple(rows.T.ravel().tolist()))


def _coefficient_tables(problem, count):
    """b0, c0, b1 and c1 sampled on the half-grid m -> m*h/2, m = 0..count.

    Index 0 (the t = 0 or x = 0 endpoint) is NaN when the expression is
    singular there; the marching never reads it unless the boundary
    closure legitimately needs a regular value.
    """
    s = np.arange(1, count + 1) * (problem.h / 2.0)
    tables = []
    for op in (problem.op_a, problem.op_b):
        for expr in (op.b, op.c):
            arr = np.empty(count + 1)
            try:
                arr[0] = evaluate(expr, {**problem.params, op.var: 0.0})
            except TransmuteError:
                arr[0] = math.nan
            arr[1:] = evaluate(expr, {**problem.params, op.var: s})
            tables.append(arr)
    return tables


# Folding the deviations into S (1 + wS) + Q (1 + wQ) + C (wC - 1) takes 5 ufunc
# calls a level, not 8 (telegraph at h = 1/1024: 75 against 98 ms, 2-core host),
# but each rounded 1 + w drops O(eps) of a weight, an O(eps / h^2) potential. On
# the benchmark ladder (telegraph, X = 2, h = 1/256..1/1024, h = 1/32 sublattice)
# it failed 5 of 28 draws of seeds 1-2 (order 1.10-1.79 at mu = 0.51-0.65) and gave
# 0.95, 2.96 and 1.61 in test_ladder_order_on_the_coarse_sublattice; this gives 2.00.
def _cell_weights(sigma, h, b0, b1, c0, c1):
    """The fused two-sweep cell rule as the deviations (wS, wQ, wC) of
    K = (S + Q - C) + (wS S + wQ Q + wC C), for floats and arrays alike.

    S = K(u-h, v), Q = K(u, v-h), C = K(u-h, v-h). A sweep sets
    p = base + h^2 F(p), base = S + Q - C, where h^2 F(p) = a p + g from
    4 sigma F = -(b1 (p - C) + b0 (Q - S)) / h - (c1 - c0)(p + S + Q + C) / 4,
    so a = q b1 + e with q = -h / (4 sigma), e = -(c1 - c0) h^2 / (16 sigma).
    Two sweeps give K = (1 + a + a^2) base + (1 + a) g, whose deviations
    a + a^2 + (1 + a)(e -+ q b0) and (1 + a)(e - q b1) - a - a^2 factor
    as (1 + a)(a + e -+ q b0) and -2 (1 + a) q b1.
    """
    q = -h / (4.0 * sigma)
    e = (c1 - c0) * (-h * h / (16.0 * sigma))
    a = q * b1 + e
    big, mid, qb0 = 1.0 + a, a + e, q * b0
    return big * (mid - qb0), big * (mid + qb0), big * (-2.0 * q * b1)


def solve(problem):
    """March the triangle and return the solved TriangleGrid.

    The t = 0 closure is Robin when theta = b0(0) + h0 sigma is nonzero,
    else Neumann: a ghost cell, or the one-sided K_t = 0 for a b0 singular
    at 0 (NaN in its table), which refuses an h0 other than 0 and a
    b0 = -r/t + smooth with r/sigma >= 4, where it diverges.
    """
    sigma, h = problem.sigma, problem.h
    top = 2 * problem.steps
    b0t, c0t, b1x, c1x = _coefficient_tables(problem, top)
    theta = b0t[0] + problem.h0 * sigma
    flavor = "robin" if abs(theta) > 1e-13 else "neumann"
    # Neumann's ghost cell reads the coefficients at t = 0; otherwise the wall
    # takes K_t = slope K one-sided: Robin's sigma K_t = theta K, or K_t = 0
    # for a b0 singular at 0, never touching the coefficients there
    ghost_cell = flavor == "neumann" and not math.isnan(b0t[0])
    if ghost_cell and math.isnan(c0t[0]):
        raise UsageError("Neumann ghost cell needs c0 regular at t = 0")
    if problem.h0 and math.isnan(b0t[0]):
        raise UsageError(f"h0 = {problem.h0!r} needs b0 regular at t = 0: a singular b0 takes K_t = 0 there")
    if math.isnan(b0t[0]):
        # b0 = -r/t + smooth, r found as rho is: the t = h/2 cell takes the weights
        # -+r/(2 sigma), and the one-sided K_t = 0 wall diverges from r/sigma = 4 on
        try:
            r = -evaluate(BinOp("*", Name("t"), problem.op_a.b), {**problem.params, "t": 2.0**-1000})
        except TransmuteError:  # t b0 has no value near 0: no r to refuse
            r = math.nan
        if r / sigma >= 4.0:
            raise NumericalError(f"b0 = -r/t at t = 0 with r = {r!r}: the one-sided K_t = 0 wall"
                                 f" is unstable for r/sigma >= 4 (sigma = {sigma:g})")
    slope = sigma * theta if flavor == "robin" else 0.0
    offsets = _offset(np.arange(top + 1)).tolist()
    values = np.empty(_offset(top + 1))
    values[offsets] = diagonal_values(problem, np.arange(top + 1) * h / 2.0)
    # b0 and c0 are one float each unless either reads t; the march then reads both at
    # level d's cells j = 1..n, t = (d - 2j) h/2, as strided views of the half-grid tables
    floats = "t" not in free_symbols(problem.op_a.b) | free_symbols(problem.op_a.c)
    acc, tmp = np.empty(problem.steps), np.empty(problem.steps)
    a, t, r, r_s = acc[:0], tmp[:0], tmp[:1], tmp[1:1]
    mul, add, sub, item = np.multiply, np.add, np.subtract, values.item
    # the walls' divisors, two cells and one, as numpy scalars: a zero one gives inf, not ZeroDivisionError
    wall_2, wall_1 = np.float64(3.0 + 2.0 * h * slope), np.float64(1.0 + h * slope)
    # the finiteness gate after the march reports divergence; keep numpy from
    # announcing the overflow or the division by a zero wall separately on stderr first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # entry d - 1: level d's weights with b0, c0 at t = 0 from one array call (float and
        # array arithmetic round alike), the ghost cell's and, for float b0, c0, every cell's
        t0_s, t0_q, t0_c = _cell_weights(sigma, h, b0t[0], b1x[:-1], c0t[0], c1x[:-1])
        t0_weights = list(zip(t0_s.tolist(), t0_q.tolist(), t0_c.tolist()))
        # levels 2..2N (entries 1..2N-1; entry 0, level 1's, may be NaN) with wS == wQ and
        # wC == 0, as for b0 = b1 = 0 and c0 free of t: wS S + wQ Q is R[1:] + R[:-1] of one
        # product R = wS L_{d-1}, the same roundings, and the zero wC C is dropped, which can
        # only turn a +0.0 cell into -0.0, where S = Q = -0.0 and C = +0.0
        paired = floats and np.array_equal(t0_s[1:], t0_q[1:]) and not t0_c[1:].any()
        for d in range(2, top + 1):
            o2, o1, o0 = offsets[d - 2], offsets[d - 1], offsets[d]
            n = (d - 1) // 2  # cells between diagonal and wall
            if d & 1:  # levels 2n + 1 and 2n + 2 share the scratch views
                a, t, r, r_s = acc[:n], tmp[:n], tmp[: n + 1], tmp[1 : n + 1]
            w_s, w_q, w_c = t0_weights[d - 1] if floats else _cell_weights(
                sigma, h, b0t[d - 2 : d - 2 * n - 1 : -2], b1x[d - 1], c0t[d - 2 : d - 2 * n - 1 : -2], c1x[d - 1])
            s, q, c = values[o1 + 1 : o1 + n + 1], values[o1 : o1 + n], values[o2 : o2 + n]
            out = values[o0 + 1 : o0 + n + 1]
            if paired:
                mul(w_s, values[o1 : o1 + n + 1], r)
                add(r_s, t, a)
            else:
                mul(w_s, s, a)
                mul(w_q, q, t)
                add(a, t, a)
                mul(w_c, c, t)
                add(a, t, a)
            add(s, q, out)
            sub(out, c, out)
            add(out, a, out)
            if d & 1:
                continue
            if ghost_cell:
                w_s, w_q, w_c = t0_weights[d - 1]  # Q mirrors S
                g, c = item(o1 + n), item(o2 + n)
                values[o0 + n + 1] = (g + g - c) + ((w_s * g + w_q * g) + w_c * c)
            else:  # one-sided K_t = slope K: from two cells, or at n = 0 from the diagonal
                values[o0 + n + 1] = (4.0 * item(o0 + n) - item(o0 + n - 1)) / wall_2 if n else item(o0) / wall_1
        grid = TriangleGrid(h=h, values=values, boundary=flavor)
        # the last level is enough: each cell (d, j >= 1) is the S neighbour of (d + 1, j),
        # no sum, difference, weight product or division by a finite wall factor turns
        # inf or NaN finite again, and the diagonal is checked when it is built
        if not np.isfinite(values[offsets[top]:]).all():
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
            with np.errstate(over="ignore"):  # an inf gap or square is refused below
                gap = np.abs(grid.values[first : first + _COMPARE_POINTS] - ref)
                squares = (gap * gap).tolist()
            maxima.append(gap.max())
            yield squares

    try:  # fsum raises where finite squares overflow their sum
        total = math.fsum(chain.from_iterable(square_blocks()))
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise NumericalError("the squared gap between the lattice and the reference overflows")
    return {"max": float(max(maxima)), "l2": math.sqrt(total / count), "count": count}


def problem_from_case(case, X, h):
    """The solver problem of a catalog case's operator pair.

    kappa scales the transport data to the case's own K(X, X). A case
    whose K(X, X) is 0 is refused: zero transport data would make the
    march return K = 0. So is a kernel that vanishes on t = 0: no closure
    of ``solve`` holds K = 0 there.
    """
    problem = GoursatProblem(case.opA, case.opB, h0=case.h0, X=X, h=h, params=dict(case.params))
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
    if case.kernel_t_exponent != 0.0:
        raise UsageError(
            f"K of case {case.name!r} vanishes like t^{case.kernel_t_exponent:g} on the"
            " t = 0 wall; solve closes that wall by a Neumann or Robin relation,"
            " which cannot hold K = 0 there"
        )
    # set in place, not by ``replace``: kappa enters no check and not the integral kept for ``solve``
    problem.__dict__["kappa"] = k_diag / diagonal_values(problem, [X])[0]
    return problem
