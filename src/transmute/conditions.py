"""Existence conditions for a transmutation kernel.

Four numeric checks decide whether a (K, A, B) triple is consistent:

* 4a   K solves the hyperbolic equation tying A (in t) to B (in x),
* 4b1  the two leading coefficients agree as functions,
* 4b2  the diagonal transport relation 2a K' + (b1-b0) K = 0 holds
       in the limit t -> x-,
* 4c   the boundary bracket at t = 0 annihilates f0,
* 4d   K f0 vanishes at the vertex (or tends to a finite limit, which
       is recorded and treated as informational).

Plus the eigen-relations A f0 = lam f0 and B f1 = lam f1 (and their
shifted variants when the case defines them).

All derivatives come from jet arithmetic, never finite differences, so
the 4a residual floor is rounding noise and tolerances can stay tight.
Each condition has one function, ``check_*``, which evaluates its own
points unless it is given K's jet there (``jet=``) and, for 4c and 4d,
f0 at t = eps (``f0=``).  ``verify_all`` walks K's jet once over the 4a,
4b2, 4c and 4d points together, f0's once over t = the samples then
EPS_SEQ (eigen A, 4c, 4d) and f1's once over x = the samples (eigen B,
then ``quadrature.identity_rows``); arithmetic is elementwise and special
functions run one body per entry, so no value changes a bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericalError, TransmuteError, UsageError
from .expr import Jet2, Record, evaluate, evaluate_jet, free_symbols
from .operators import _at, _eigen_residuals, _jet, _mean, _residual, _terms

__all__ = [
    "VerifyConfig",
    "ConditionRecord",
    "VerificationReport",
    "CONDITION_IDS",
    "MAX_POINTS",
    "triangle_grid",
    "sample_points",
    "check_hyperbolic",
    "check_diagonal",
    "check_boundary_t0",
    "check_vertex",
    "check_eigen",
    "verify_all",
]

CONDITION_IDS = ("4a", "4b1", "4b2", "4c", "4d", "eigenA", "eigenB")
# Points one check or transform evaluates at once: at about 0.4 kB of jets
# per grid point and 3 kB per sample, a verification stays below 0.25 GB.
MAX_POINTS = 65536


# Tolerances, limit sequences and verdict constants of the checks that no
# VerifyConfig field sets.
TOL_4B1 = 1e-12
TOL_EIGEN = 1e-8
DELTA_REL = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)  # relative diagonal offsets, largest first
EPS_SEQ = tuple(0.1 * 2.0 ** (-k) for k in range(13))  # t = eps, largest first
MIN_SLOPE = 0.1  # a vanishing limit's log-log slope exceeds this
TRANSPORT_DROP = 0.1  # 4b2's final residual is at most this times its first
DECAY_DROP = 1e-3  # the same bound for 4c and 4d
TINY = 1e-12  # rounding floor of a limit residual
# Each limit check's drop and, if a settled finite limit passes it as
# informational, the name of the value that tends to that limit.
_LIMIT_RULES = {"4b2": (TRANSPORT_DROP, None), "4c": (DECAY_DROP, None), "4d": (DECAY_DROP, "vertex product")}


class VerifyConfig(Record):
    """Grids and the 4a tolerance for one verification run.

    The hyperbolic check uses an nx x nt triangle grid up to the class
    constant x_max and the tolerance tol_4a; the other checks use
    n_samples abscissae.  The limit sequences, drops and other
    tolerances are module constants.
    """

    _fields = ("nx", "nt", "n_samples", "tol_4a")
    nx, nt, n_samples, tol_4a = 20, 20, 20, 1e-8  # the defaults
    x_max = 2.0  # not a field

    def __init__(self, nx: int = nx, nt: int = nt, n_samples: int = n_samples, tol_4a: float = tol_4a):
        if not 0.0 < tol_4a < math.inf:
            raise UsageError(f"tol_4a must be a positive finite number, got {tol_4a!r}")
        if nx < 1 or nt < 1:
            raise UsageError("hyperbolic grid must have at least one point per axis")
        if n_samples < 2:
            raise UsageError("need at least two sample points")
        if max(nx * nt, n_samples) > MAX_POINTS:
            raise UsageError(f"{nx}x{nt} grid or {n_samples} samples: maximum {MAX_POINTS}")
        self.__dict__.update(nx=nx, nt=nt, n_samples=n_samples, tol_4a=tol_4a)


@dataclass(frozen=True)
class ConditionRecord:
    id: str
    grid: str
    max_residual: float
    mean_residual: float
    tolerance: float
    passed: bool
    decay_slope: Optional[float] = None
    informational: bool = False
    limit: Optional[float] = None
    detail: str = ""

    def __post_init__(self):
        if self.id not in CONDITION_IDS:
            raise UsageError(f"unknown condition id {self.id!r}")
        if not (math.isfinite(self.max_residual) and self.max_residual >= 0.0):
            raise NumericalError(
                f"condition {self.id}: non-finite or negative residual"
            )
        if not math.isfinite(self.mean_residual):
            raise NumericalError(f"condition {self.id}: non-finite mean residual")


class VerificationReport(Record):
    _fields = ("case", "params", "records", "overall_pass")

    def __init__(self, case: str, params: dict, records: tuple):
        overall_pass = all(r.passed for r in records)
        self.__dict__.update(case=case, params=params, records=records, overall_pass=overall_pass)

    def record(self, cond_id):
        for r in self.records:
            if r.id == cond_id:
                return r
        raise UsageError(f"report has no record for {cond_id!r}")


def triangle_grid(nx=VerifyConfig.nx, nt=VerifyConfig.nt, x_max=VerifyConfig.x_max):
    """Interior points of {0 < t < x <= x_max}, nt per column."""
    return list(map(tuple, _triangle(nx, nt, x_max).tolist()))


def _triangle(nx, nt, x_max):
    """``triangle_grid`` as an (nx nt, 2) array: x = x_max i / nx, t = x j / (nt + 1)."""
    x = np.repeat(x_max * np.arange(1, nx + 1) / nx, nt)
    return np.stack([x, x * np.tile(np.arange(1, nt + 1), nx) / (nt + 1)], axis=1)


def sample_points(case, n=VerifyConfig.n_samples):
    """Evenly spaced abscissae across the case's working interval."""
    if n > MAX_POINTS:
        raise UsageError(f"{n} sample points exceed the maximum of {MAX_POINTS}")
    if n < 0:
        raise UsageError(f"the number of sample points must be nonnegative, got {n}")
    lo, hi = case.x_range
    if n == 1:
        return [0.5 * (lo + hi)]
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _abscissae(case, xs, config):
    """``xs`` as a list; by default the sample points ``config`` asks for."""
    return list(sample_points(case, (config or VerifyConfig()).n_samples) if xs is None else xs)


def _hyperbolic_residuals(case, x, t, jk=None):
    """(|lhs - rhs|, |lhs - rhs| / (1 + max|term|)) at the points (x, t), where
      lhs = d/dt(a0 dK/dt) - b0 dK/dt + c0 K   (divergence side, in t)
      rhs = a1 d2K/dx2 + b1 dK/dx + c1 K       (B K in x, by ``_terms``)
    and the terms are these six products; ``jk`` is K's jet there, if known."""
    params = case.params
    with np.errstate(all="ignore"):  # a non-finite residual is a failure
        jk = evaluate_jet(case.kernel, x, t, params) if jk is None else jk
        a0 = case.opA.a
        ja0 = _jet(a0, "t", t, params) if "t" in free_symbols(a0) else Jet2(evaluate(a0, params))
        b0, c0 = (_at(e, "t", t, params) for e in (case.opA.b, case.opA.c))
        return _residual((ja0.dt * jk.dt + ja0.value * jk.dtt, -(b0 * jk.dt), c0 * jk.value),
                         _terms(case.opB, jk, x, params))


def check_hyperbolic(case, grid=None, tol=1e-8, *, jet=None):
    """Residual of the hyperbolic identity over a triangle grid (by
    default VerifyConfig's); ``tol`` is unread.

    Per-point residual is |lhs - rhs| / (1 + max|term|), evaluated over
    the whole grid at once, or read from K's ``jet`` at the grid points.
    Points where it fails (a domain error or a non-finite residual) are
    listed in ``failures`` with the reason, and only an all-points
    failure raises.
    """
    grid = triangle_grid() if grid is None else grid
    pts = np.array(grid if isinstance(grid, np.ndarray) else list(grid), dtype=float).reshape(-1, 2)
    if not len(pts):
        raise UsageError("hyperbolic check needs a non-empty grid")
    x, t = pts.T
    outside = ~((0.0 < t) & (t < x))
    if outside.any():
        bad = tuple(pts[np.argmax(outside)].tolist())
        raise UsageError(f"grid point {bad!r} outside 0 < t < x")
    errors = {}
    try:
        raw, res = _hyperbolic_residuals(case, x, t, jet)
    except TransmuteError:
        # the array walk stops at the first failing point: walk each
        # point on its own to list them all
        raw, res = np.full((2, len(pts)), np.nan)
        for k, (xk, tk) in enumerate(pts.tolist()):
            try:
                raw[k], res[k] = _hyperbolic_residuals(case, xk, tk)
            except TransmuteError as exc:
                errors[k] = str(exc)
    ok = np.isfinite(res)
    failures = [(*pts[k].tolist(), errors.get(k, "non-finite residual"))
                for k in np.flatnonzero(~ok).tolist()]
    if not ok.any():
        first = failures[0]
        raise NumericalError(
            f"hyperbolic residual failed at every grid point;"
            f" first error at ({first[0]!r}, {first[1]!r}): {first[2]}"
        )
    return {
        "max": float(res[ok].max()),
        "mean": _mean(res[ok].tolist()),
        "max_raw": float(raw[ok].max()),
        "count": int(ok.sum()),
        "failures": failures,
    }


def _loglog_slope(xs, ys, last_n=6):
    """Least-squares slope of log y against log x over the tail."""
    pairs = [(x, y) for x, y in zip(xs, ys) if y > 0.0 and x > 0.0]
    pairs = pairs[-last_n:]
    if len(pairs) < 2:
        return None
    lx = [math.log(x) for x, _ in pairs]
    ly = [math.log(y) for _, y in pairs]
    mx, my = _mean(lx), _mean(ly)
    den = math.fsum((u - mx) ** 2 for u in lx)
    if den == 0.0:
        return None
    return math.fsum((u - mx) * (v - my) for u, v in zip(lx, ly)) / den


def _limit_record(cond_id, grid, seq, values):
    """The record of the limit check ``cond_id``: ``values``, taken along
    the decreasing ``seq``, must vanish.

    Passes if everything already sits at the rounding floor, or if the
    tail decreases with a log-log slope above MIN_SLOPE down to the
    check's drop times the initial value; ``detail`` gives the failed
    tests' reasons.  A check that ``_LIMIT_RULES`` lets settle also passes,
    as informational with its limit, once its last three values agree
    within 1e-6 (1 + |last|) and the last is above TINY.
    """
    (drop, tends), last = _LIMIT_RULES[cond_id], values[-1]
    slope = _loglog_slope(seq, values)
    tail = values[-6:]
    reasons = []
    if not all(b <= a * (1.0 + 1e-9) + TINY for a, b in zip(tail, tail[1:])):
        reasons.append("tail not decreasing")
    if not last <= max(drop * values[0], TINY):
        reasons.append(f"final {last:.3e} above {drop:g} x initial {values[0]:.3e}")
    if not (slope is not None and slope > MIN_SLOPE):
        reasons.append(f"slope {slope!r} <= {MIN_SLOPE:g}")
    floor = all(v <= TINY for v in values)
    passed = floor or not reasons
    settled = not passed and tends is not None and len(values) >= 3 and last > TINY and all(
        abs(a - b) <= 1e-6 * (1.0 + abs(last)) for a, b in zip(values[-3:], values[-2:]))
    return ConditionRecord(
        id=cond_id, grid=grid, max_residual=last, mean_residual=_mean(values), tolerance=drop,
        passed=passed or settled, decay_slope=slope, informational=settled, limit=last if settled else None,
        detail=f"{tends} tends to {last!r}, not 0" if settled else "at rounding floor" if floor else "; ".join(reasons))


def _tolerance_record(cond_id, grid, worst, mean, tolerance, detail=""):
    """The record of a tolerance check: passes when the ``worst`` residual is
    within ``tolerance`` and there is no ``detail``, which names failed points."""
    return ConditionRecord(id=cond_id, grid=grid, max_residual=worst, mean_residual=mean,
                           tolerance=tolerance, passed=worst <= tolerance and not detail, detail=detail)


def check_diagonal(case, xs=None, config=None, *, jet=None):
    """Conditions 4b1 and 4b2, returned as two ConditionRecords.

    4b2 scans t = x - delta, one row per relative delta of DELTA_REL, for
    |2 a dK/dx + (b1 - b0) K| / (1 + |K|), with a, b0 at t = x and dK/dx
    along the diagonal (d/dx + d/dt); ``jet`` is K's jet there, if known.
    """
    xs = _abscissae(case, xs, config)
    if not xs:
        raise UsageError("diagonal check needs sample points")
    params = case.params
    s = np.array(xs, dtype=float)
    a0 = _at(case.opA.a, "t", s, params)
    a1 = _at(case.opB.a, "x", s, params)
    coeff_gaps = np.broadcast_to(np.abs(a0 - a1), s.shape).tolist()
    rec_4b1 = _tolerance_record("4b1", f"{len(xs)} shared samples in [{xs[0]:g}, {xs[-1]:g}]",
                                max(coeff_gaps), _mean(coeff_gaps), TOL_4B1)

    jk = evaluate_jet(case.kernel, s, s - np.array(DELTA_REL)[:, None] * s, params) if jet is None else jet
    b0, b1 = _at(case.opA.b, "t", s, params), _at(case.opB.b, "x", s, params)
    raw = abs(2.0 * a0 * (jk.dx + jk.dt) + (b1 - b0) * jk.value)
    grid = (
        f"{len(xs)} abscissae, delta/x in [{DELTA_REL[-1]:g}, {DELTA_REL[0]:g}];"
        f" raw final {raw.max(axis=1)[-1]:.3e}"
    )
    scaled = raw / (1.0 + abs(jk.value))
    return rec_4b1, _limit_record("4b2", grid, DELTA_REL, scaled.max(axis=1).tolist())


def check_boundary_t0(case, xs=None, eps_seq=None, config=None, *, jet=None, f0=None):
    """Condition 4c: the t = 0 bracket times f0 must vanish as eps -> 0
    along ``eps_seq`` (default EPS_SEQ).

    The grid has one row per eps and one column per abscissa: ``jet`` is
    K's jet there and ``f0`` is f0 at t = eps as a column, if known.
    """
    xs = _abscissae(case, xs, config)
    eps_seq = list(EPS_SEQ if eps_seq is None else eps_seq)
    if not xs or not eps_seq:
        raise UsageError("boundary check needs sample points and an eps sequence")
    eps = np.array(eps_seq, dtype=float)[:, None]
    f0 = evaluate(case.f0, {**case.params, "t": eps}) if f0 is None else f0
    a, b0 = (_at(e, "t", eps, case.params) for e in (case.opA.a, case.opA.b))
    jk = evaluate_jet(case.kernel, np.array(xs, dtype=float), eps, case.params) if jet is None else jet
    with np.errstate(all="ignore"):  # a non-finite bracket is a failure
        values = np.abs((a * jk.dt - b0 * jk.value - case.h0 * a * jk.value) * f0).max(axis=1).tolist()
    grid = f"{len(xs)} abscissae, eps in [{eps_seq[-1]:.3e}, {eps_seq[0]:.3e}]"
    return _limit_record("4c", grid, eps_seq, values)


def check_vertex(case, pairs=None, config=None, *, jet=None, f0=None):
    """Condition 4d: K(eps, eps-delta) f0(eps) along the (eps, delta)
    ``pairs``, by default delta = eps^2 over EPS_SEQ; ``config`` is unread.
    ``jet`` is K's jet at the pairs and ``f0`` is f0 at each eps, if known.

    A finite nonzero limit does not fail the check; the record is
    marked informational and carries the limit.
    """
    if pairs is None:
        pairs = [(eps, eps * eps) for eps in EPS_SEQ]
    pairs = list(pairs)
    if not pairs:
        raise UsageError("vertex check needs (eps, delta) pairs")
    for eps, delta in pairs:
        if not 0.0 < delta < eps:
            raise UsageError(f"vertex pair needs 0 < delta < eps, got ({eps}, {delta})")
    params = case.params
    e, d = np.array(pairs, dtype=float).T
    k = evaluate(case.kernel, {**params, "x": e, "t": e - d}) if jet is None else jet.value
    f0 = evaluate(case.f0, {**params, "t": e}) if f0 is None else f0
    values = np.abs(k * f0).tolist()
    eps_vals = [eps for eps, _ in pairs]
    squares = all(delta == eps * eps for eps, delta in pairs)
    grid = (f"{len(pairs)} pairs, delta = eps^2, eps down to {eps_vals[-1]:.3e}" if squares else
            f"{len(pairs)} pairs (eps, delta) as given, down to ({eps_vals[-1]:.3e}, {pairs[-1][1]:.3e})")
    return _limit_record("4d", grid, eps_vals, values)


def _walks(case, s, fill=True):
    """(f0's jet over t = s then EPS_SEQ, f1's jet over x = s), walked for
    the first abscissae ``s`` a case is asked for (with ``fill``) and kept
    read-only on it; None at other abscissae, and for a function whose walk
    raised: its callers then walk on their own and fail as they would."""
    held, key = case._walks, s.tobytes()
    if held is None and fill:
        jets = []
        for f, x, t in ((case.f0, 0.0, np.append(s, EPS_SEQ)), (case.f1, s, 0.0)):
            try:
                jet = evaluate_jet(f, x, t, case.params)
            except Exception:  # any failure is raised again, in its place, by a caller's own walk
                jet = None
            else:
                for part in vars(jet).values():
                    part.flags.writeable = False
            jets.append(jet)
        held = (key, *jets)
        object.__setattr__(case, "_walks", held)
    return held[1:] if held and held[0] == key else (None, None)


def _part(jet, start, *shape):
    """``jet``'s components from ``start`` on, as arrays of ``shape``; None for no jet."""
    end = start + math.prod(shape)
    return None if jet is None else Jet2(*(c[start:end].reshape(shape) for c in vars(jet).values()))


def check_eigen(case, xs=None, config=None):
    """Eigen-relations on both sides, folding in shifted variants; f0 and
    f1 are the case's walks (see ``_walks``) where those are at ``xs``."""
    xs = _abscissae(case, xs, config)
    jf0, jf1 = _walks(case, np.array(xs, dtype=float))
    shift = case.eigen_shift
    records = []
    for cond_id, op, f, jf, shifted in (
        ("eigenA", case.opA, case.f0, _part(jf0, 0, len(xs)), [(shift.opA, shift.lam_a)] if shift else []),
        ("eigenB", case.opB, case.f1, jf1, [(shift.opB, shift.lam_b)] if shift else []),
    ):
        # one jet of f serves the plain and the shifted operator
        pairs = [(op, case.lam)] + shifted
        stats = _eigen_residuals(pairs, f, xs, case.params, jf)
        desc = ", shifted ".join(f"lambda={lam:g}" for _, lam in pairs)
        records.append(_tolerance_record(cond_id, f"{len(xs)} points in [{xs[0]:g}, {xs[-1]:g}]; {desc}",
                                         max(st["max"] for st in stats), _mean([st["mean"] for st in stats]),
                                         TOL_EIGEN))
    return tuple(records)


def verify_all(case, config=None):
    """Run every condition and assemble a VerificationReport: the records
    of the separate check_* calls, each expression walked once (see above)."""
    cfg = config or VerifyConfig()
    xs = sample_points(case, cfg.n_samples)
    pts, s, eps = _triangle(cfg.nx, cfg.nt, cfg.x_max), np.array(xs, dtype=float), np.array(EPS_SEQ)
    n, m, t_4b2 = len(pts), len(s), s - np.array(DELTA_REL)[:, None] * s
    # K's points, flat: the 4a grid, a row of m per delta (4b2) and per eps (4c),
    # then the 4d pairs (eps, eps - eps^2)
    x = np.concatenate([pts[:, 0], np.tile(s, len(DELTA_REL) + len(eps)), eps])
    t = np.concatenate([pts[:, 1], t_4b2.ravel(), np.repeat(eps, m), eps - eps * eps])
    jk, jf0 = None, _walks(case, s)[0]
    f0 = None if jf0 is None else jf0.value[m:]  # f0 at t = eps
    if len(x) <= MAX_POINTS:  # the union keeps to the MAX_POINTS budget of one evaluation
        try:
            jk = evaluate_jet(case.kernel, x, t, case.params)
        except TransmuteError:
            pass  # each check evaluates, and fails, on its own

    hyp = check_hyperbolic(case, pts, jet=_part(jk, 0, n))
    fails = hyp["failures"]
    rec_4a = _tolerance_record(
        "4a", f"{cfg.nx}x{cfg.nt} interior triangle, x <= {cfg.x_max:g}", hyp["max"], hyp["mean"], cfg.tol_4a,
        "{} points failed to evaluate; first at ({!r}, {!r}): {}".format(len(fails), *fails[0]) if fails else "")
    rec_4b1, rec_4b2 = check_diagonal(case, xs, jet=_part(jk, n, *t_4b2.shape))
    n_4c = n + t_4b2.size  # where the 4c points start
    rec_4c = check_boundary_t0(case, xs, jet=_part(jk, n_4c, len(eps), m), f0=None if f0 is None else f0[:, None])
    rec_4d = check_vertex(case, jet=_part(jk, n_4c + len(eps) * m, len(eps)), f0=f0)
    eig_a, eig_b = check_eigen(case, xs)
    return VerificationReport(
        case=case.name,
        params=dict(case.params),
        records=(rec_4a, rec_4b1, rec_4b2, rec_4c, rec_4d, eig_a, eig_b),
    )
