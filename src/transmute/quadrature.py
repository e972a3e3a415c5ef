"""Gauss-Jacobi evaluation of T f0(x) = integral_0^x K(x,t) f0(t) dt.

The integrand carries algebraic endpoint factors (x-t)^p_diag and
t^p_zero. Substituting t = x(1+s)/2 turns them into the Jacobi weight
(1-s)^alpha_w (1+s)^beta_w on [-1,1]:

    T f0(x) = (x/2)^(alpha_w+beta_w+1) * sum_i w_i S(x, t_i)

where S is the product of the case's pre-factored smooth parts, so no
numeric cancellation of singular terms ever occurs. Custom cases must
declare their exponents explicitly for the same reason.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .conditions import MAX_POINTS, _walks, sample_points
from .errors import NumericalError, UsageError
from .expr import Record, evaluate

__all__ = [
    "JacobiRule",
    "jacobi_rule",
    "transform",
    "apply_transmutation",
    "identity_rows",
    "identity_error",
]


class JacobiRule(Record):
    """Nodes/weights for the weight (1-s)^alpha (1+s)^beta on [-1,1], as
    read-only float arrays: a cached rule is shared by every caller."""

    _fields = ("nodes", "weights")
    __eq__, __hash__ = object.__eq__, object.__hash__  # it holds arrays: equal only to itself

    def __init__(self, nodes: np.ndarray, weights: np.ndarray):
        self.__dict__.update(nodes=nodes, weights=weights)


# Largest rule order jacobi_rule builds: the n x n Jacobi matrix is dense,
# so the check runs before it is allocated.
MAX_RULE_ORDER = 1024
RULE_ORDER = 64  # the rule order of a transform unless one is given


def jacobi_rule(n, alpha, beta):
    """Gauss-Jacobi rule by Golub-Welsch.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix of the three-term recurrence, in ascending order; the weights
    are mu0 v0^2, with v0 the first component of each unit eigenvector
    and mu0 = integral of the weight over [-1, 1]. The last 256 rules
    built are cached.
    """
    if n > MAX_RULE_ORDER:
        raise UsageError(f"rule order {n!r} exceeds the maximum {MAX_RULE_ORDER}")
    if not n >= 1 or int(n) != n:
        raise UsageError(f"rule order must be a positive integer, got {n!r}")
    if not (-1.0 < alpha < math.inf and -1.0 < beta < math.inf):
        raise UsageError(
            f"Jacobi exponents must be finite and exceed -1, got ({alpha!r}, {beta!r})"
        )
    return _jacobi_rule(int(n), float(alpha), float(beta))


@functools.lru_cache(maxsize=256)
def _jacobi_rule(n, alpha, beta):
    apb = alpha + beta
    try:
        mu0 = math.exp(
            (apb + 1.0) * math.log(2.0)
            + math.lgamma(alpha + 1.0)
            + math.lgamma(beta + 1.0)
            - math.lgamma(apb + 2.0)
        )
    except OverflowError:
        mu0 = math.inf
    if not mu0 < math.inf:  # refused before the matrix is built
        raise UsageError(
            f"Jacobi exponents ({alpha!r}, {beta!r}) give weights beyond the float range"
        )
    k = np.arange(1.0, n)
    s = 2.0 * k + apb
    diag = np.append(
        (beta - alpha) / (apb + 2.0), (beta * beta - alpha * alpha) / (s * (s + 2.0))
    )
    off_sq = 4.0 * k * (k + alpha) * (k + beta) / (s * s * (s + 1.0))
    # (k + alpha + beta) / (s - 1) is 1 at k = 1, so alpha + beta = -1 is no 0/0
    off_sq[1:] *= (k[1:] + apb) / (s[1:] - 1.0)
    off = np.sqrt(off_sq)
    nodes, vectors = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    weights = mu0 * vectors[0] ** 2
    nodes.flags.writeable = weights.flags.writeable = False
    return JacobiRule(nodes, weights)


def transform(case, f_smooth, t_exponent, x, n=RULE_ORDER):
    """integral_0^x K(x,t) t^t_exponent f_smooth(t) dt.

    ``f_smooth`` is an expression in t (plus case parameters); its
    declared power of t folds into the Jacobi weight together with the
    kernel's own endpoint exponents.  ``x`` is a number (the result is a
    float) or an array or sequence of abscissae (the result is an array of
    its shape); each abscissa's n weighted terms are summed with math.fsum.
    """
    alpha_w = case.p_diag
    beta_w = case.kernel_t_exponent + t_exponent
    # first, so that an order above the cap is refused before any array work
    rule = jacobi_rule(n, alpha_w, beta_w)
    try:
        xs = np.array(x, dtype=float).reshape(-1)
    except (TypeError, ValueError):
        raise UsageError(f"transform needs numbers for x, got {x!r}") from None
    if not np.all((xs > 0.0) & (xs < math.inf)):
        raise UsageError(f"transform needs x > 0, got {x!r}")
    if xs.size * n > MAX_POINTS:
        raise UsageError(f"{xs.size} abscissae x {n} nodes exceed the maximum of {MAX_POINTS}")
    # one row per node, one column per abscissa
    t = xs * (1.0 + rule.nodes[:, None]) / 2.0
    bindings = {**case.params, "x": xs, "t": t}
    with np.errstate(over="ignore"):  # an overflowing term is refused below, by its abscissa
        smooth = evaluate(case.kernel_smooth, bindings) * evaluate(f_smooth, bindings)
        terms = rule.weights[:, None] * smooth
    p = alpha_w + beta_w + 1.0
    out = []
    for xk, col in zip(xs.tolist(), terms.T):
        try:
            out.append((xk / 2.0) ** p * math.fsum(col.tolist()))
        except (OverflowError, ValueError):  # fsum's overflow, or inf - inf among the terms
            out.append(math.nan)
        if not math.isfinite(out[-1]):
            raise NumericalError(f"T f0 has no finite value at x = {xk!r}")
    return out[0] if np.ndim(x) == 0 else np.reshape(out, np.shape(x))


def apply_transmutation(case, x, n=RULE_ORDER):
    """T f0 at one abscissa or an array of them, by the case's smooth factors."""
    if n < 8:
        raise UsageError(f"quadrature order must be at least 8, got {n!r}")
    return transform(case, case.f0_smooth, case.f0_t_exponent, x, n)


def identity_rows(case, xs, n=RULE_ORDER):
    """T f0, f1 and |T f0 - f1| / (1 + |f1|) at the abscissae ``xs``, as arrays;
    f1 is the value of the jet the case's eigen check walked at ``xs``, if any."""
    if not (xs := list(xs)):
        raise UsageError("identity check needs at least one abscissa")
    lhs = apply_transmutation(case, xs, n)  # first, so that n is checked before any array work
    s = np.array(xs, dtype=float)
    jf1 = _walks(case, s, fill=False)[1]
    f1 = evaluate(case.f1, {**case.params, "x": s}) if jf1 is None else jf1.value
    return lhs, f1, np.abs(lhs - f1) / (1.0 + np.abs(f1))


def identity_error(case, xs=None, n=RULE_ORDER):
    """max over xs (by default the case's sample points) of ``identity_rows``' error."""
    return float(np.max(identity_rows(case, sample_points(case) if xs is None else xs, n)[2]))
