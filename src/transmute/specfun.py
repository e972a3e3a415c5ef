"""Special functions built from scratch on float arithmetic.

Everything here is plain double precision.  Accuracy targets are stated
per function; where cancellation makes a published target unreachable in
doubles the docstring says what is actually delivered.  Every function
and jet returns finite numbers or raises a SpecFunError or DomainError,
never NaN or inf: a NaN argument is a DomainError, and a value that is
not finite a RangeError (a DomainError for gegenbauer at an infinite
alpha or z).

The Bessel functions (J, I and the Clifford core C), ``gegenbauer`` and
``hyp1f2`` and their ``*_jets`` also take a numpy array as last argument.
Each algorithm is one body of plain arithmetic that runs unchanged on a
float and on an array, so each entry gets exactly the value a float gets;
an error names the first failing entry.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial, wraps

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, RangeError

__all__ = [
    "gamma",
    "digamma",
    "trigamma",
    "bessel_j",
    "bessel_i",
    "bessel_clifford",
    "gegenbauer",
    "hyp1f2",
]


def _is_nonpositive_int(x: float) -> bool:
    """A pole of gamma: 0, -1, -2, ... or -inf."""
    return x == -math.inf or (x <= 0.0 and x == math.floor(x))


def _gamma_family(f):
    """``f`` behind the guards gamma, digamma and trigamma share: DomainError
    for a NaN argument, PoleError at 0, -1, -2, ... and at -inf, and
    RangeError where the value is not finite."""

    @wraps(f)
    def guarded(x: float) -> float:
        if x != x:
            raise DomainError(f"{f.__name__}: NaN argument")
        if _is_nonpositive_int(x):
            raise PoleError(f"{f.__name__} pole at {x}")
        try:
            v = f(x)
        except ArithmeticError:  # math.gamma's overflow, or a 1/(x*x) where x*x underflows to 0
            v = math.inf
        if not math.isfinite(v):
            raise RangeError(f"{f.__name__} overflow at x={x}")
        return v

    return guarded


@_gamma_family
def gamma(x: float) -> float:
    """Gamma function by ``math.gamma``, exact at the small positive integers."""
    return math.gamma(x)


# Asymptotic tail coefficients B_{2n}/(2n): psi(x) ~ ln x - 1/(2x) - sum c_n x^{-2n}
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
)


@_gamma_family
def digamma(x: float) -> float:
    """Logarithmic derivative of gamma; recurrence into the asymptotic zone."""
    if x < 0.0:
        # psi(x) = psi(1-x) - pi / tan(pi x)
        return digamma(1.0 - x) - math.pi / math.tan(math.pi * x)
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x - tail


_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


@_gamma_family
def trigamma(x: float) -> float:
    """Second logarithmic derivative of gamma."""
    if x < 0.0:
        s = math.sin(math.pi * x)
        return math.pi * math.pi / (s * s) - trigamma(1.0 - x)
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    p = inv * inv2
    for c in _TRIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return acc + inv + 0.5 * inv2 + tail


# The Bessel layer computes the triple (C_nu, C_nu+1, C_nu+2) of the Clifford
# core C_a(w) = sum_k w^k/(k! gamma(a+k+1)) by the branch each entry's w picks:
# Miller's recurrence below -_SPLIT, where the series cancels, else the Taylor
# series, _SHORT terms up to _SPLIT and _LONG up to 100.  Each is plain arithmetic.
_SPLIT = 4.0
_SHORT, _LONG = 18, 36
_START = 54  # Miller's start above floor(nu), enough for w >= -100
_NU_MAX = 100.0  # keeps gamma(nu+2) and the scaled Miller sweep far from overflow
_DEGREE_MAX = 1024  # gegenbauer's recurrence takes one step per degree


def _first(bad, z) -> float:
    """The first entry of ``z`` where the mask ``bad`` holds."""
    return float(np.ravel(z)[np.argmax(np.ravel(bad))])


def _check_box(name, ok, nu, var, z, box):
    """Raise for the first entry of ``z`` (a float or an array) where ``ok`` is False,
    or if nu leaves [-1, _NU_MAX]: DomainError for a NaN argument, else RangeError."""
    ok = ok & (-1.0 <= nu <= _NU_MAX)
    if not (ok if type(ok) is bool else ok.all()):
        zk = z if type(ok) is bool else _first(~ok, z)
        if nu != nu or zk != zk:
            raise DomainError(f"{name}: NaN argument (nu={nu}, {var}={zk})")
        raise RangeError(f"{name}: (nu={nu}, {var}={zk}) outside -1 <= nu <= {_NU_MAX:g}, {box}")


@lru_cache(maxsize=256)
def _taylor(nu: float, terms: int) -> tuple:
    """Pairs of Taylor coefficients 1/(k! gamma(a+k+1)) of C_a for
    a = nu+1 and nu+2, k < terms, highest k first."""
    p = [1.0 / gamma(nu + 2.0)]
    for k in range(1, terms):
        p.append(p[-1] / (k * (nu + 1.0 + k)))
    return tuple((c, c / (nu + 2.0 + k)) for k, c in reversed(tuple(enumerate(p))))


def _series(terms: int, nu: float, w):
    """Horner's rule for C_nu+1 and C_nu+2, then C_{a-1} = a C_a + w C_{a+1}."""
    c1 = c2 = 0.0
    for p, q in _taylor(nu, terms):
        c1, c2 = c1 * w + p, c2 * w + q
    return (nu + 1.0) * c1 + w * c2, c1, c2


@lru_cache(maxsize=256)
def _neumann(f: float, k_max: int) -> tuple:
    """gamma(f+1) b_k, k <= k_max, with b_0 = 1, b_k = (f+2k) (f+1)_{k-1}/k!:
    then 1 = gamma(f+1) sum_k b_k (-w)^k C_{f+2k}(w), which is DLMF 10.23's
    (z/2)^f = sum_k (f+2k) gamma(f+k)/k! J_{f+2k}(z) over (z/2)^f/gamma(f+1)."""
    b = [p := gamma(f + 1.0)]
    for k in range(1, k_max + 1):
        b.append((f + 2.0 * k) * p)
        p *= (f + k) / (k + 1.0)
    return tuple(b)


def _miller(nu: float, w):
    """Miller's backward recurrence C_{a-1} = a C_a + w C_{a+1} from order
    floor(nu) + _START, normalized by ``_neumann`` (Gautschi, SIAM Rev. 9,
    1967; Olver & Sookne, Math. Comp. 26, 1972)."""
    f = nu - (n0 := math.floor(nu))
    weights = _neumann(f, (n0 + _START) // 2)
    hi, c, s = 0.0, 1e-250, 0.0  # unnormalized C_f+m+1, C_f+m and sum
    keep = []
    for m in range(2 * len(weights) - 2, min(n0, 0) - 1, -1):
        if m % 2 == 0:
            s = s * -w + weights[m // 2] * c
        if n0 <= m <= n0 + 2:
            keep.append(c)
        hi, c = c, (f + m) * c + w * hi
    return keep[2] / s, keep[1] / s, keep[0] / s


_BRANCHES = (_miller, partial(_series, _SHORT), partial(_series, _LONG))  # positional: no kwargs per call


def _clifford(nu: float, w):
    """(C_nu, C_nu+1, C_nu+2) at a float w or at each entry of an array."""
    pick = 1 * (w >= -_SPLIT) + (w > _SPLIT)  # 0, 1 or 2, numpy bools too
    if type(w) is not np.ndarray:
        return _BRANCHES[pick](nu, w)
    out = np.empty((3,) + w.shape)
    for k, branch in enumerate(_BRANCHES):
        if (mask := pick == k).any():
            out[:, mask] = branch(nu, w[mask])
    return out


def _bessel(nu: float, z, sign: float, name: str, jets: bool = False):
    """J (sign=-1) or I (sign=+1) as f = (z/2)^nu C_nu(sign z^2/4); with
    ``jets`` (f, f', f'') from f_k = (z/2)^(nu+k) C_nu+k, k = 1, 2:
    f' = nu/z f + sign f_1, f'' = nu (nu-1)/z^2 f + sign (2 nu+1)/z f_1 + f_2.
    A jet that is not finite, as at a tiny z where nu/z overflows, raises."""
    if jets and (bad := 0.5 * np.asarray(z) <= 0.0).any():
        zk = _first(bad, z)
        raise (RangeError if zk > 0 else DomainError)(
            f"{name} jets need z > 0, got z={zk}" + " whose half underflows" * (zk > 0))
    _check_box(name, (0.0 <= z) & (z <= 20.0), nu, "z", z, "0 <= z <= 20")
    if nu == -1.0:  # J_-1 = -J_1 and I_-1 = I_1 stay finite at z = 0
        out = _bessel(1.0, z, sign, name, jets)
        return tuple(sign * v for v in out) if jets else sign * out
    h = 0.5 * z
    c0, c1, c2 = _clifford(nu, sign * h * h)
    array = type(h) is np.ndarray
    # numpy's power for a float too, so that it rounds as an array entry does; with
    # z/2 <= 10 and -1 < nu <= 100 it overflows only at a zero or subnormal z/2
    if nu < 0.0:  # raised below
        with np.errstate(all="ignore"):
            p = np.power(h, nu)
    else:
        p = np.power(h, nu)
    p = p if array else float(p)
    if nu < 0.0 and not (np.isfinite(p).all() if array else p - p == 0.0):
        zk = _first(~np.isfinite(p), z) if array else z
        raise (RangeError if zk else DomainError)(
            f"{name}: z={zk:g} with negative order {nu}: (z/2)^nu is not finite")
    f = p * c0
    if not jets:
        return f
    with np.errstate(all="ignore"):  # jets near z = 0 overflow: raised as RangeError
        f1, f2 = p * h * c1, p * h * h * c2
        jet = f, nu / z * f + sign * f1, nu * (nu - 1.0) / z * f / z + sign * (2.0 * nu + 1.0) / z * f1 + f2
    if not (ok := np.isfinite(jet).all(axis=0)).all():
        raise RangeError(f"{name} jets: no finite value at nu={nu}, z={_first(~ok, z)!r}")
    return jet


def bessel_j(nu: float, z):
    """Bessel function of the first kind on the box -1 <= nu <= 100,
    0 <= z <= 20; within 3e-15 max(1, |J|) of mpmath for nu <= 6."""
    return _bessel(nu, z, -1.0, "bessel_j")


def bessel_i(nu: float, z):
    """Modified Bessel function of the first kind, same box; 6e-15 relative."""
    return _bessel(nu, z, 1.0, "bessel_i")


def bessel_clifford(nu: float, w):
    """C_nu(w) = sum_k w^k / (k! gamma(nu+k+1)), entire in w, on the box
    -1 <= nu <= 100, |w| <= 100.  The smooth core shared by J and I, as
    J_nu(z) = (z/2)^nu C_nu(-z^2/4) and I_nu(z) = (z/2)^nu C_nu(z^2/4),
    lets kernels divide out the z^nu factor without a 0/0."""
    return bessel_clifford_jets(nu, w)[0]


def _degree(m, alpha: float, z) -> int:
    """gegenbauer's degree round(m); a NaN argument or an infinite m is a DomainError."""
    nan = np.isnan(z)
    if not math.isfinite(m) or alpha != alpha or nan.any():
        raise DomainError(f"gegenbauer: NaN argument or infinite degree (m={m}, alpha={alpha}, z={_first(nan, z)})")
    return round(m)


@np.errstate(all="ignore")  # a huge z overflows: raised as RangeError
def gegenbauer(m: int, alpha: float, z):
    """Gegenbauer polynomial C_m^alpha(z) by the three-term recurrence

        m C_m = 2 z (m + alpha - 1) C_{m-1} - (m + 2 alpha - 2) C_{m-2}

    with C_0 = 1, C_1 = 2 alpha z.  The recurrence convention gives
    C_m^0 = 0 for m >= 1.  A degree above 1024 is a RangeError, raised
    before the first step.  A value that is not finite is a DomainError
    where alpha or z is infinite, else a RangeError; C_0 = 1 everywhere.
    """
    mi = _degree(m, alpha, z)
    if abs(m - mi) > 1e-9 or mi < 0:
        raise DomainError(f"gegenbauer degree must be a non-negative integer, got {m}")
    if mi > _DEGREE_MAX:
        raise RangeError(f"gegenbauer degree {m} is above the supported {_DEGREE_MAX}")
    if mi == 0:
        return np.ones(z.shape) if type(z) is np.ndarray else 1.0
    prev = 1.0
    cur = 2.0 * alpha * z
    for k in range(2, mi + 1):
        prev, cur = cur, (2.0 * z * (k + alpha - 1.0) * cur - (k + 2.0 * alpha - 2.0) * prev) / k
    if not (ok := np.isfinite(cur)).all():
        zk = _first(~ok, z)
        raise (DomainError if math.isinf(alpha) or math.isinf(zk) else RangeError)(
            f"gegenbauer: no finite value at (m={m}, alpha={alpha}, z={zk})")
    return cur


@np.errstate(all="ignore")  # an overflow is raised as ConvergenceError
def hyp1f2(a: float, b1: float, b2: float, z, *, scale: float = 1.0):
    """Generalized hypergeometric 1F2 by direct series, times ``scale``.

    Each entry of z stops when its running term drops below 1e-16 of its
    partial sum, accumulated term by term; an overflow, or a 500-term cap
    with a still-growing term, raises ConvergenceError.  The sum's rounding
    error is about 2^-52 sum|term|, so where the terms cancel (a large
    negative z) and that exceeds 1e-10 max(|sum|, 1) it raises
    ConvergenceError too, rather than return digits that are not there.
    The floor of 1 keeps a zero of 1F2, where the error is tiny but not
    small against the sum, from being refused.  With ``scale`` both sides
    are of scale * 1F2: its error |scale| 2^-52 sum|term| against 1e-10
    max(|scale * sum|, 1), as a derivative in ``hyp1f2_jets`` needs.
    """
    for b in (b1, b2):
        if _is_nonpositive_int(b):
            raise PoleError(f"hyp1f2 lower parameter {b} is a pole of gamma")
    if b1 * b2 == 0.0:  # neither is 0: the first term would divide by an underflow
        raise RangeError(f"hyp1f2: b1 * b2 underflows to 0 (b1={b1}, b2={b2})")
    zs = np.asarray(z, dtype=float).ravel()
    out, mags = np.empty(zs.size), np.zeros(zs.size)
    live, zl = np.arange(zs.size), zs
    term = total = mag = np.ones(zs.size)
    failed = {}
    for k in range(500):
        if not live.size:
            break
        term = term * ((a + k) / ((b1 + k) * (b2 + k)) * zl / (k + 1.0))
        total = total + term
        size = np.abs(term)
        mag = mag + size
        # converged, or overflowed: any comparison with inf or NaN is False
        done = ~(size > 1e-16 * np.abs(total))
        if done.any():
            over = live[done & ~np.isfinite(total)].tolist()
            failed.update(dict.fromkeys(over, f"overflowed after {k + 1} terms"))
            out[live[done]], mags[live[done]] = total[done], mag[done]
            live, zl = live[~done], zl[~done]
            term, total, mag = term[~done], total[~done], mag[~done]
    failed.update(dict.fromkeys(live.tolist(), "did not converge within 500 terms"))
    out = scale * out
    # the terms cancel: the rounding error estimate is above 1e-10 max(|sum|, 1)
    est = abs(scale) * 2.0**-52 * mags
    for i in np.flatnonzero(est > 1e-10 * np.maximum(np.abs(out), 1.0)).tolist():
        failed.setdefault(
            i, f"cancels: rounding error estimate {est[i]:.1e}, above 1e-10 max(|sum|, 1)")
    if failed:  # a NaN argument fails every entry it reaches
        if (nan := np.isnan(zs)).any() or a != a or b1 != b1 or b2 != b2:
            raise DomainError(f"hyp1f2: NaN argument (a={a}, b1={b1}, b2={b2}, z={_first(nan, zs)})")
        i = min(failed)
        raise ConvergenceError(f"hyp1f2({a},{b1},{b2},{float(zs[i])}) {failed[i]}")
    return out.reshape(z.shape) if type(z) is np.ndarray else out.item()


# ---------------------------------------------------------------------------
# (value, d/dz, d2/dz2) triples used by the jet evaluator.
# ---------------------------------------------------------------------------


def gamma_jets(x: float) -> tuple[float, float, float]:
    g = gamma(x)
    psi = digamma(x)
    jet = g, g * psi, g * (psi * psi + trigamma(x))
    if not (math.isfinite(jet[1]) and math.isfinite(jet[2])):
        raise RangeError(f"gamma jets: no finite value at x={x}")
    return jet


def bessel_j_jets(nu: float, z):
    """(J_nu, J_nu', J_nu'')."""
    return _bessel(nu, z, -1.0, "bessel_j", jets=True)


def bessel_i_jets(nu: float, z):
    """(I_nu, I_nu', I_nu'')."""
    return _bessel(nu, z, 1.0, "bessel_i", jets=True)


def bessel_clifford_jets(nu: float, w):
    """d/dw C_nu = C_{nu+1}: all three orders come from one evaluation."""
    _check_box("bessel_clifford", abs(w) <= 100.0, nu, "w", w, "|w| <= 100")
    return tuple(_clifford(nu, w))


@np.errstate(all="ignore")  # an overflowing derivative is raised as RangeError
def gegenbauer_jets(m: int, alpha: float, z: float) -> tuple[float, float, float]:
    """d/dz C_m^alpha = 2 alpha C_{m-1}^{alpha+1}."""
    mi = _degree(m, alpha, z)
    c = gegenbauer(mi, alpha, z)
    d1 = 2.0 * alpha * gegenbauer(mi - 1, alpha + 1.0, z) if mi >= 1 else 0.0
    d2 = 4.0 * alpha * (alpha + 1.0) * gegenbauer(mi - 2, alpha + 2.0, z) if mi >= 2 else 0.0
    if not (ok := np.isfinite(d1) & np.isfinite(d2)).all():
        raise RangeError(f"gegenbauer jets: no finite derivative at (m={m}, alpha={alpha}, z={_first(~ok, z)})")
    return c, d1, d2


def hyp1f2_jets(a: float, b1: float, b2: float, z: float) -> tuple[float, float, float]:
    """d/dz 1F2(a;b1,b2;z) = a/(b1 b2) 1F2(a+1;b1+1,b2+1;z)."""
    v = hyp1f2(a, b1, b2, z)
    r1 = a / (b1 * b2)
    d1 = hyp1f2(a + 1.0, b1 + 1.0, b2 + 1.0, z, scale=r1)
    r2 = r1 * (a + 1.0) / ((b1 + 1.0) * (b2 + 1.0))
    d2 = hyp1f2(a + 2.0, b1 + 2.0, b2 + 2.0, z, scale=r2)
    if not (ok := np.isfinite(d1) & np.isfinite(d2)).all():
        raise RangeError(f"hyp1f2 jets: no finite derivative at (a={a}, b1={b1}, b2={b2}, z={_first(~ok, z)})"
                         f" with scales {r1!r} and {r2!r}")
    return v, d1, d2
