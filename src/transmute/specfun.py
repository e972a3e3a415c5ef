"""Special functions built from scratch on float arithmetic.

Everything here is plain double precision.  Accuracy targets are stated
per function; where cancellation makes a published target unreachable in
doubles the docstring says what is actually delivered.  A NaN argument
raises DomainError instead of coming back as NaN.

The Bessel functions (J, I and the Clifford core C), ``gegenbauer`` and
``hyp1f2`` and their ``*_jets`` also take a numpy array as last argument
and sum over it at once; each entry gets exactly the value a float gets,
and an error names the first failing entry.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DomainError, PoleError, RangeError

__all__ = [
    "gamma",
    "digamma",
    "trigamma",
    "beta",
    "bessel_j",
    "bessel_i",
    "bessel_clifford",
    "gegenbauer",
    "hyp1f2",
]


# Lanczos approximation, g = 7, 9 coefficients.  Relative error of the
# rational part is ~1e-15 on the right half plane; after the power and
# exponential the delivered relative error stays below 1e-12 on [0.1, 30].
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _is_nonpositive_int(x: float) -> bool:
    return x <= 0.0 and x == math.floor(x)


def gamma(x: float) -> float:
    """Gamma function via Lanczos; pole error at 0, -1, -2, ..."""
    if x != x:
        raise DomainError("gamma: NaN argument")
    if _is_nonpositive_int(x):
        raise PoleError(f"gamma pole at {x}")
    if x < 0.5:
        # reflection: gamma(x) gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i, c in enumerate(_LANCZOS_COEF[1:], start=1):
        acc += c / (z + i)
    w = z + _LANCZOS_G + 0.5
    try:
        return math.sqrt(2.0 * math.pi) * w ** (z + 0.5) * math.exp(-w) * acc
    except OverflowError:
        raise RangeError(f"gamma overflow at x={x}") from None


def _rgamma(x: float) -> float:
    """1/gamma(x); exactly 0.0 at the poles."""
    if _is_nonpositive_int(x):
        return 0.0
    return 1.0 / gamma(x)


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


def digamma(x: float) -> float:
    """Logarithmic derivative of gamma; recurrence into the asymptotic zone."""
    if _is_nonpositive_int(x):
        raise PoleError(f"digamma pole at {x}")
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


def trigamma(x: float) -> float:
    """Second logarithmic derivative of gamma."""
    if _is_nonpositive_int(x):
        raise PoleError(f"trigamma pole at {x}")
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


def beta(a: float, b: float) -> float:
    """Euler beta as a gamma quotient; target 1e-11 relative on (0, 30]."""
    return gamma(a) * gamma(b) / gamma(a + b)


_SERIES_CAP = 60
_SERIES_BLOCK = 256


def _first(bad, z) -> float:
    """The first entry of ``z`` where the mask ``bad`` holds."""
    return float(np.ravel(z)[np.argmax(np.ravel(bad))])


def _check_box(name, ok, nu, var, z, box):
    """Raise for the first entry of ``z`` (a float or an array) where ``ok``
    is False: DomainError if an argument there is NaN, else RangeError."""
    if not (ok if type(ok) is bool else ok.all()):
        zk = z if type(ok) is bool else _first(~ok, z)
        if nu != nu or zk != zk:
            raise DomainError(f"{name}: NaN argument (nu={nu}, {var}={zk})")
        raise RangeError(f"{name}: (nu={nu}, {var}={zk}) outside {box}")


def _clifford_series(nu: float, w):
    """sum_k w^k / (k! gamma(nu+k+1)) for nu > -1, at a float w or at each
    entry of a 1-D array w.

    Each entry keeps its terms up to the first one below 1e-18 of its
    partial sum (at most 61) and sums them with math.fsum, so the only
    real error source is the float rounding of each term.  A float takes
    its terms one at a time: an array costs tens of numpy calls.
    """
    if type(w) is not np.ndarray:
        term = _rgamma(nu + 1.0)
        terms = [term]
        running = term
        for k in range(_SERIES_CAP):
            term *= w / ((k + 1.0) * (nu + k + 1.0))
            terms.append(term)
            running += term
            if abs(term) <= 1e-18 * abs(running):
                break
        return math.fsum(terms)
    k = np.arange(_SERIES_CAP, dtype=float)
    den = (k + 1.0) * (nu + k + 1.0)
    out = []
    # blocks of entries keep the term matrix near 125 kB
    for block in np.split(w, range(_SERIES_BLOCK, w.size, _SERIES_BLOCK)):
        terms = np.empty((block.size, _SERIES_CAP + 1))
        terms[:, 0] = _rgamma(nu + 1.0)
        terms[:, 1:] = block[:, None] / den
        np.multiply.accumulate(terms, axis=1, out=terms)
        done = np.abs(terms[:, 1:]) <= 1e-18 * np.abs(np.add.accumulate(terms, axis=1)[:, 1:])
        stop = np.where(done.any(axis=1), done.argmax(axis=1) + 2, _SERIES_CAP + 1)
        # one short list per entry, never the whole term matrix as Python floats
        out += [math.fsum(row[:s].tolist()) for row, s in zip(terms, stop.tolist())]
    return np.array(out)


def _bessel_series(nu: float, z, sign: float, name: str):
    """J (sign=-1) and I (sign=+1) as (z/2)^nu C_nu(sign z^2/4).

    Supported box: nu >= -1, 0 <= z <= 20.  For J the alternating terms
    cancel: ~1e-12 absolute for z <= 10 but only ~1e-8 near z = 20,
    where they reach 4e7.
    """
    zs = z.ravel() if type(z) is np.ndarray else z
    _check_box(name, (nu >= -1.0) & (0.0 <= zs) & (zs <= 20.0), nu, "z", zs,
               "nu >= -1, 0 <= z <= 20")
    if nu == -1.0:
        return sign * _bessel_series(1.0, z, sign, name)
    zero = zs == 0.0
    if nu < 0.0 and np.any(zero):
        raise DomainError(f"{name}: z=0 with negative order {nu}")
    if zero is True:
        return 1.0 if nu == 0.0 else 0.0
    half = 0.5 * zs
    if type(z) is not np.ndarray:
        return half**nu * _clifford_series(nu, sign * half * half)
    # Python's pow per entry: numpy's power need not round like libm's
    out = np.array([h**nu for h in half.tolist()]) * _clifford_series(nu, sign * half * half)
    out[zero] = 1.0 if nu == 0.0 else 0.0
    return out.reshape(z.shape)


def bessel_j(nu: float, z):
    """Bessel function of the first kind on the box nu >= -1, 0 <= z <= 20."""
    return _bessel_series(nu, z, -1.0, "bessel_j")


def bessel_i(nu: float, z):
    """Modified Bessel function of the first kind, same box as bessel_j."""
    return _bessel_series(nu, z, 1.0, "bessel_i")


def bessel_clifford(nu: float, w):
    """C_nu(w) = sum_k w^k / (k! gamma(nu+k+1)); entire in w.

    This is the smooth core shared by J and I:
    J_nu(z) = (z/2)^nu C_nu(-z^2/4) and I_nu(z) = (z/2)^nu C_nu(z^2/4),
    which lets kernels divide out the z^nu factor without a 0/0.
    """
    ws = w.ravel() if type(w) is np.ndarray else w
    _check_box("bessel_clifford", (nu >= -1.0) & (abs(ws) <= 100.0), nu, "w", ws,
               "nu >= -1, |w| <= 100")
    out = ws * _clifford_series(1.0, ws) if nu == -1.0 else _clifford_series(nu, ws)
    return out.reshape(w.shape) if type(w) is np.ndarray else out


@np.errstate(all="ignore")  # a huge z overflows to inf, as in float arithmetic
def gegenbauer(m: int, alpha: float, z):
    """Gegenbauer polynomial C_m^alpha(z) by the three-term recurrence

        m C_m = 2 z (m + alpha - 1) C_{m-1} - (m + 2 alpha - 2) C_{m-2}

    with C_0 = 1, C_1 = 2 alpha z.  The recurrence convention gives
    C_m^0 = 0 for m >= 1.
    """
    nan = np.isnan(z)
    if m != m or alpha != alpha or nan.any():
        raise DomainError(f"gegenbauer: NaN argument (m={m}, alpha={alpha}, z={_first(nan, z)})")
    mi = round(m)
    if abs(m - mi) > 1e-9 or mi < 0:
        raise DomainError(f"gegenbauer degree must be a non-negative integer, got {m}")
    if mi == 0:
        return np.ones(z.shape) if type(z) is np.ndarray else 1.0
    prev = 1.0
    cur = 2.0 * alpha * z
    for k in range(2, mi + 1):
        prev, cur = cur, (2.0 * z * (k + alpha - 1.0) * cur - (k + 2.0 * alpha - 2.0) * prev) / k
    return cur


@np.errstate(all="ignore")  # an overflow is raised as ConvergenceError
def hyp1f2(a: float, b1: float, b2: float, z):
    """Generalized hypergeometric 1F2 by direct series.

    Each entry of z stops when its running term drops below 1e-16 of its
    partial sum, accumulated term by term; an overflow, or a 500-term cap
    with a still-growing term, raises ConvergenceError.
    """
    for b in (b1, b2):
        if _is_nonpositive_int(b):
            raise PoleError(f"hyp1f2 lower parameter {b} is a non-positive integer")
    zs = np.asarray(z, dtype=float).ravel()
    out = np.empty(zs.size)
    live, zl = np.arange(zs.size), zs
    term = total = np.ones(zs.size)
    failed = {}
    for k in range(500):
        if not live.size:
            break
        term = term * ((a + k) / ((b1 + k) * (b2 + k)) * zl / (k + 1.0))
        total = total + term
        # converged, or overflowed: any comparison with inf or NaN is False
        done = ~(np.abs(term) > 1e-16 * np.abs(total))
        if done.any():
            over = live[done & ~np.isfinite(total)].tolist()
            failed.update(dict.fromkeys(over, f"overflowed after {k + 1} terms"))
            out[live[done]] = total[done]
            live, zl, term, total = live[~done], zl[~done], term[~done], total[~done]
    failed.update(dict.fromkeys(live.tolist(), "did not converge within 500 terms"))
    if failed:
        i = min(failed)
        raise ConvergenceError(f"hyp1f2({a},{b1},{b2},{float(zs[i])}) {failed[i]}")
    return out.reshape(z.shape) if type(z) is np.ndarray else out.item()


# ---------------------------------------------------------------------------
# (value, d/dz, d2/dz2) triples used by the jet evaluator.
# ---------------------------------------------------------------------------


def gamma_jets(x: float) -> tuple[float, float, float]:
    g = gamma(x)
    psi = digamma(x)
    return g, g * psi, g * (psi * psi + trigamma(x))


@np.errstate(all="ignore")  # tiny z overflows to inf, as in float arithmetic
def _bessel_jets(nu: float, z, sign: float, name: str):
    """(f, f', f'') of J (sign=-1) or I (sign=+1) via neighbour orders.

    J' = (J_{nu-1} - J_{nu+1})/2 and J'' = (J_{nu-2} - 2 J_nu + J_{nu+2})/4,
    with + signs for I.  Orders below the series floor of -1 are reached
    by the downward recurrence J_{m-1} = (2m/z) J_m - J_{m+1} (needs
    z > 0) or, at integer order, by the reflection J_{-n} = (-1)^n J_n
    (I_{-n} = I_n).
    """
    bad = np.asarray(z) <= 0.0
    if bad.any():
        raise DomainError(f"{name} jets need z > 0, got z={_first(bad, z)}")
    c0, p1, p2 = (_bessel_series(nu + k, z, sign, name) for k in (0.0, 1.0, 2.0))
    if nu >= 0.0:
        m1 = _bessel_series(nu - 1.0, z, sign, name)
    else:
        m1 = (2.0 * nu / z) * c0 + sign * p1
    if nu >= 1.0:
        m2 = _bessel_series(nu - 2.0, z, sign, name)
    elif nu == round(nu):
        n = round(nu - 2.0)
        m2 = _bessel_series(float(-n), z, sign, name) * sign**n
    else:
        m2 = (2.0 * (nu - 1.0) / z) * m1 + sign * c0
    return c0, 0.5 * (m1 + sign * p1), 0.25 * (m2 + sign * 2.0 * c0 + p2)


def bessel_j_jets(nu: float, z):
    """(J_nu, J_nu', J_nu'')."""
    return _bessel_jets(nu, z, -1.0, "bessel_j")


def bessel_i_jets(nu: float, z):
    """(I_nu, I_nu', I_nu'')."""
    return _bessel_jets(nu, z, 1.0, "bessel_i")


def bessel_clifford_jets(nu: float, w: float) -> tuple[float, float, float]:
    """d/dw C_nu = C_{nu+1}; no special cases anywhere in the plane."""
    return (
        bessel_clifford(nu, w),
        bessel_clifford(nu + 1.0, w),
        bessel_clifford(nu + 2.0, w),
    )


def gegenbauer_jets(m: int, alpha: float, z: float) -> tuple[float, float, float]:
    """d/dz C_m^alpha = 2 alpha C_{m-1}^{alpha+1}."""
    mi = round(m)
    c = gegenbauer(mi, alpha, z)
    d1 = 2.0 * alpha * gegenbauer(mi - 1, alpha + 1.0, z) if mi >= 1 else 0.0
    d2 = (
        4.0 * alpha * (alpha + 1.0) * gegenbauer(mi - 2, alpha + 2.0, z)
        if mi >= 2
        else 0.0
    )
    return c, d1, d2


def hyp1f2_jets(a: float, b1: float, b2: float, z: float) -> tuple[float, float, float]:
    """d/dz 1F2(a;b1,b2;z) = a/(b1 b2) 1F2(a+1;b1+1,b2+1;z)."""
    v = hyp1f2(a, b1, b2, z)
    r1 = a / (b1 * b2)
    d1 = r1 * hyp1f2(a + 1.0, b1 + 1.0, b2 + 1.0, z)
    r2 = r1 * (a + 1.0) / ((b1 + 1.0) * (b2 + 1.0))
    d2 = r2 * hyp1f2(a + 2.0, b1 + 2.0, b2 + 2.0, z)
    return v, d1, d2
