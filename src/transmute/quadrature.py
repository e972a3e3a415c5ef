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

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .expr import evaluate

__all__ = [
    "JacobiRule",
    "jacobi_rule",
    "transform",
    "apply_transmutation",
    "identity_error",
]


@dataclass(frozen=True)
class JacobiRule:
    """Nodes/weights for the weight (1-s)^alpha (1+s)^beta on [-1,1]."""

    n: int
    alpha: float
    beta: float
    nodes: tuple
    weights: tuple


# Largest rule order jacobi_rule builds: the n x n Jacobi matrix is dense,
# so the check runs before it is allocated.
MAX_RULE_ORDER = 1024

_RULE_CACHE = {}


def jacobi_rule(n, alpha, beta):
    """Gauss-Jacobi rule by Golub-Welsch.

    The nodes are the eigenvalues of the symmetric tridiagonal Jacobi
    matrix of the three-term recurrence, in ascending order; the weights
    are mu0 v0^2, with v0 the first component of each unit eigenvector
    and mu0 = integral of the weight over [-1, 1].
    """
    if n > MAX_RULE_ORDER:
        raise UsageError(f"rule order {n!r} exceeds the maximum {MAX_RULE_ORDER}")
    if not n >= 1 or int(n) != n:
        raise UsageError(f"rule order must be a positive integer, got {n!r}")
    n = int(n)
    if not (-1.0 < alpha < math.inf and -1.0 < beta < math.inf):
        raise UsageError(
            f"Jacobi exponents must be finite and exceed -1, got ({alpha!r}, {beta!r})"
        )
    key = (n, float(alpha), float(beta))
    cached = _RULE_CACHE.get(key)
    if cached is not None:
        return cached

    apb = alpha + beta
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
    mu0 = math.exp(
        (apb + 1.0) * math.log(2.0)
        + math.lgamma(alpha + 1.0)
        + math.lgamma(beta + 1.0)
        - math.lgamma(apb + 2.0)
    )
    weights = mu0 * vectors[0] ** 2
    rule = JacobiRule(
        n, float(alpha), float(beta), tuple(nodes.tolist()), tuple(weights.tolist())
    )
    _RULE_CACHE[key] = rule
    return rule


def transform(case, f_smooth, t_exponent, x, n=64):
    """integral_0^x K(x,t) t^t_exponent f_smooth(t) dt.

    ``f_smooth`` is an expression in t (plus case parameters); its
    declared power of t folds into the Jacobi weight together with the
    kernel's own endpoint exponents.  ``x`` is a float or an array of
    abscissae; each abscissa's n weighted terms are summed with math.fsum.
    """
    alpha_w = case.p_diag
    beta_w = case.kernel_t_exponent + t_exponent
    if alpha_w <= -1.0 or beta_w <= -1.0:
        raise UsageError(
            f"non-integrable endpoint exponents ({alpha_w!r}, {beta_w!r})"
        )
    # first, so that an order above the cap is refused before any array work
    rule = jacobi_rule(n, alpha_w, beta_w)
    xs = np.array(x, dtype=float, ndmin=1) if isinstance(x, (int, float, np.ndarray)) else 0.0
    if not np.all((xs > 0.0) & (xs < math.inf)):
        raise UsageError(f"transform needs x > 0, got {x!r}")
    # one row per node, one column per abscissa
    t = xs * (1.0 + np.array(rule.nodes)[:, None]) / 2.0
    bindings = {**case.params, "x": xs, "t": t}
    smooth = evaluate(case.kernel_smooth, bindings) * evaluate(f_smooth, bindings)
    terms = np.array(rule.weights)[:, None] * smooth
    p = alpha_w + beta_w + 1.0
    out = [(xk / 2.0) ** p * math.fsum(col.tolist()) for xk, col in zip(xs.tolist(), terms.T)]
    return np.array(out).reshape(np.shape(x)) if type(x) is np.ndarray else out[0]


def apply_transmutation(case, x, n=64):
    """T f0 at one abscissa or an array of them, by the case's smooth factors."""
    if n < 8:
        raise UsageError(f"quadrature order must be at least 8, got {n!r}")
    return transform(case, case.f0_smooth, case.f0_t_exponent, x, n)


def identity_error(case, xs=None, n=64):
    """max over xs of |T f0(x) - f1(x)| / (1 + |f1(x)|)."""
    if xs is None:
        from .conditions import sample_points

        xs = sample_points(case, 20)
    xs = np.array(list(xs), dtype=float)
    if not xs.size:
        raise UsageError("identity check needs at least one abscissa")
    lhs = apply_transmutation(case, xs, n)
    f1 = evaluate(case.f1, {**case.params, "x": xs})
    return float(np.max(np.abs(lhs - f1) / (1.0 + np.abs(f1))))
