"""Second-order ordinary differential operators in one variable.

Two coefficient conventions coexist and must never be conflated:

* divergence form (in t, the A side of a pair):
      A f = d/dt(a f') + d/dt(b f) + c f
          = a f'' + (a' + b) f' + (b' + c) f
* non-divergence form (in x, the B side):
      B f = a f'' + b f' + c f

The operator's variable fixes its form. ``apply`` expands that form,
using jets for the coefficient derivatives that the divergence form
needs.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, TransmuteError, UsageError
from .expr import Expr, Jet2, Num, Record, evaluate, evaluate_jet, free_symbols

__all__ = [
    "DifferentialOperator",
    "apply",
    "eigen_residual",
    "check_symbols",
    "check_pair_symbols",
]


class DifferentialOperator(Record):
    """Coefficient triple (a, b, c) in the variable ``var``, which fixes the
    form: divergence in t, non-divergence in x. Left out, a is 1 and b, c are 0."""

    _fields = ("var", "a", "b", "c")

    def __init__(self, var: str, a: Expr = Num(1.0), b: Expr = Num(0.0), c: Expr = Num(0.0)):
        if var not in ("x", "t"):
            raise TransmuteError(f"operator variable must be 'x' or 't', got {var!r}")
        self.__dict__.update(var=var, a=a, b=b, c=c)

    @property
    def form(self):
        return "divergence" if self.var == "t" else "nondivergence"


def _at(e, var, s, params):
    """e at the points s of ``var``; one float if e reads no variable."""
    return evaluate(e, {**params, var: s} if var in free_symbols(e) else params)


def _mean(values):
    """The mean of the floats ``values`` by fsum, or the fsum of value / n if the sum overflows."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        return math.fsum(v / len(values) for v in values)


def _jet(e, var, s, params):
    """e's jet at the points s of ``var``, the other variable 0."""
    return evaluate_jet(e, s if var == "x" else 0.0, s if var == "t" else 0.0, params)


def check_symbols(what, expr, variables, params):
    """Refuse ``expr`` if it names anything but ``variables`` (a string of
    them) and the keys of ``params``: a config error, found before any evaluation."""
    extra = free_symbols(expr) - set(variables) - set(params)
    if extra:
        names = ", ".join(map(repr, variables))
        raise UsageError(
            f"{what} may only depend on {names} and the declared parameters;"
            f" found {sorted(extra)}"
        )


def check_pair_symbols(op_a, op_b, params, label="coefficient"):
    """``check_symbols`` on a0, b0, c0 of A and a1, b1, c1 of B, each in its
    operator's variable. A coefficient that reads no variable is evaluated
    here, once: one that does not evaluate is a config error too."""
    for digit, op in (("0", op_a), ("1", op_b)):
        for slot in "abc":
            what, expr = f"{label} {slot}{digit}", getattr(op, slot)
            check_symbols(what, expr, op.var, params)
            if op.var not in free_symbols(expr):
                try:
                    evaluate(expr, params)
                except TransmuteError as exc:
                    raise UsageError(f"{what} does not evaluate: {exc}") from exc


def _residual(lhs, rhs):
    """(|sum lhs - sum rhs|, that over 1 + max |term|) for the terms of each
    side, summed in order, floats or arrays: the one scale rule of the 4a
    and eigen residuals, relative where the terms are large and cancel."""
    diff = abs(sum(lhs[1:], lhs[0]) - sum(rhs[1:], rhs[0]))
    return diff, diff / (1.0 + reduce(np.maximum, map(abs, (*lhs, *rhs))))


def apply(op: DifferentialOperator, f: Expr, pt, params: Mapping[str, float]):
    """Apply the operator to a single-variable expression at a point or an array of points;
    a coefficient that reads no variable is one float (float times array rounds alike)."""
    check_symbols("the function", f, op.var, params)
    terms = _terms(op, _jet(f, op.var, pt, params), pt, params)
    with np.errstate(all="ignore"):  # an overflowing sum is inf
        return terms[0] + terms[1] + terms[2]


def _terms(op, jf, pt, params):
    """The three terms of ``apply``, (a f'', (a' + b) f', (b' + c) f) in
    divergence form and (a f'', b f', c f) otherwise, given f's jet ``jf`` at pt."""
    def along(e):  # (e, e', e'') in the operator's variable, from e or from its jet
        j = e if type(e) is Jet2 else _jet(e, op.var, pt, params)
        return (j.value, j.dx, j.dxx) if op.var == "x" else (j.value, j.dt, j.dtt)
    f0, f1, f2 = along(jf)
    with np.errstate(all="ignore"):  # an overflowing term is inf, which eigen_residual refuses
        if op.var == "x":
            a, b, c = (_at(e, "x", pt, params) for e in (op.a, op.b, op.c))
            return a * f2, b * f1, c * f0
        a, ap, _ = along(op.a) if op.var in free_symbols(op.a) else (evaluate(op.a, params), 0.0, 0.0)
        b, bp, _ = along(op.b) if op.var in free_symbols(op.b) else (evaluate(op.b, params), 0.0, 0.0)
        return a * f2, (ap + b) * f1, (bp + _at(op.c, op.var, pt, params)) * f0


def eigen_residual(
    op: DifferentialOperator,
    f: Expr,
    lam: float,
    grid: Iterable[float],
    params: Mapping[str, float],
) -> dict:
    """max and mean over the grid of |op f - lam f| / (1 + max |term|),
    the terms being op f's three and lam f (see ``_residual``).

    The whole grid is evaluated at once; a domain error names the first
    failing point.
    """
    return _eigen_residuals([(op, lam)], f, grid, params)[0]


def _eigen_residuals(pairs, f, grid, params, jf=None):
    """``eigen_residual`` for each (op, lam) of ``pairs``, all from one jet
    of f (``jf``, if known): lam f is its value, ``evaluate``'s bit for bit."""
    s = np.array(list(grid), dtype=float)
    if not s.size:
        raise TransmuteError("eigen_residual needs a non-empty grid")
    out = []
    for op, lam in pairs:
        check_symbols("the function", f, op.var, params)
        jf = _jet(f, op.var, s, params) if jf is None else jf
        target = lam * jf.value if lam else 0.0  # |lhs - 0 f| is |lhs|
        with np.errstate(all="ignore"):  # a non-finite residual raises below
            r = _residual(_terms(op, jf, s, params), (target,))[1]
        bad = ~np.isfinite(r)
        if bad.any():
            raise DomainError(f"non-finite eigen residual at {op.var}={s[np.argmax(bad)].item()!r}")
        out.append({"max": float(r.max()), "mean": _mean(r.tolist()), "count": len(r)})
    return out
