"""Second-order ordinary differential operators in one variable.

Two coefficient conventions coexist and must never be conflated:

* divergence form (used on the t side):
      A f = d/dt(a f') + d/dt(b f) + c f
          = a f'' + (a' + b) f' + (b' + c) f
* non-divergence form (used on the x side):
      B f = a f'' + b f' + c f

``apply`` expands whichever form the operator declares, using jets for
the coefficient derivatives that the divergence form needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError, TransmuteError
from .expr import Expr, evaluate, evaluate_jet, free_symbols

__all__ = [
    "DifferentialOperator",
    "apply",
    "eigen_residual",
]

_FORMS = ("divergence", "nondivergence")


@dataclass(frozen=True)
class DifferentialOperator:
    """Coefficient triple (a, b, c) in a declared form and variable.

    ``h`` is the boundary constant entering the t=0 functional
    a(eps) f'(eps) - h a(eps) f(eps).
    """

    form: str
    var: str
    a: Expr
    b: Expr
    c: Expr
    h: float = 0.0

    def __post_init__(self):
        if self.form not in _FORMS:
            raise TransmuteError(f"unknown operator form {self.form!r}")
        if self.var not in ("x", "t"):
            raise TransmuteError(f"operator variable must be 'x' or 't', got {self.var!r}")

    def coefficient_values(self, s: float, params: Mapping[str, float]):
        """(a, b, c) evaluated at s, without derivatives."""
        bindings = dict(params)
        bindings[self.var] = s
        return (
            evaluate(self.a, bindings),
            evaluate(self.b, bindings),
            evaluate(self.c, bindings),
        )


def _check_single_variable(op: DifferentialOperator, f: Expr) -> None:
    other = "t" if op.var == "x" else "x"
    if other in free_symbols(f):
        raise DomainError(
            f"operator acts in {op.var!r} but the function also references {other!r}"
        )


def apply(op: DifferentialOperator, f: Expr, pt, params: Mapping[str, float]):
    """Apply the operator to a single-variable expression at a point or an array of points."""
    _check_single_variable(op, f)
    x = pt if op.var == "x" else 0.0
    t = pt if op.var == "t" else 0.0
    jf = evaluate_jet(f, x, t, params)
    if op.var == "x":
        f0, f1, f2 = jf.value, jf.dx, jf.dxx
    else:
        f0, f1, f2 = jf.value, jf.dt, jf.dtt
    if op.form == "nondivergence":
        a, b, c = op.coefficient_values(pt, params)
        return a * f2 + b * f1 + c * f0
    ja = evaluate_jet(op.a, x, t, params)
    jb = evaluate_jet(op.b, x, t, params)
    jc_val = op.coefficient_values(pt, params)[2]
    if op.var == "x":
        a, ap, b, bp = ja.value, ja.dx, jb.value, jb.dx
    else:
        a, ap, b, bp = ja.value, ja.dt, jb.value, jb.dt
    return a * f2 + (ap + b) * f1 + (bp + jc_val) * f0


def eigen_residual(
    op: DifferentialOperator,
    f: Expr,
    lam: float,
    grid: Iterable[float],
    params: Mapping[str, float],
) -> dict:
    """max and mean over the grid of |op f - lam f| / (1 + |lam f|).

    The whole grid is evaluated at once; a domain error names the first
    failing point.
    """
    s = np.array(list(grid), dtype=float)
    if not s.size:
        raise TransmuteError("eigen_residual needs a non-empty grid")
    lhs = apply(op, f, s, params)
    target = lam * evaluate(f, {**params, op.var: s})
    with np.errstate(all="ignore"):  # a non-finite residual raises below
        r = np.abs(lhs - target) / (1.0 + np.abs(target))
    bad = ~np.isfinite(r)
    if bad.any():
        raise DomainError(f"non-finite eigen residual at {op.var}={s[np.argmax(bad)].item()!r}")
    return {
        "max": float(r.max()),
        "mean": math.fsum(r.tolist()) / len(r),
        "count": len(r),
    }
