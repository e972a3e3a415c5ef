"""Scalar special functions built from scratch on float arithmetic.

Everything here is plain double precision.  Accuracy targets are stated
per function; where cancellation makes a published target unreachable in
doubles the docstring says what is actually delivered.  A NaN argument
raises DomainError instead of coming back as NaN.
"""

from __future__ import annotations

import math

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


def _clifford_series(nu: float, w: float) -> float:
    """sum_k w^k / (k! gamma(nu+k+1)) for nu > -1.

    At most 60 multiplicatively-updated terms, summed with math.fsum, so
    the only real error source is the float rounding of each term.
    """
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


def _bessel_series(nu: float, z: float, sign: float, name: str) -> float:
    """J (sign=-1) and I (sign=+1) as (z/2)^nu C_nu(sign z^2/4).

    Supported box: nu >= -1, 0 <= z <= 20.  For J the alternating terms
    cancel: ~1e-12 absolute for z <= 10 but only ~1e-8 near z = 20,
    where they reach 4e7.
    """
    if not (nu >= -1.0 and 0.0 <= z <= 20.0):
        if nu != nu or z != z:
            raise DomainError(f"{name}: NaN argument (nu={nu}, z={z})")
        raise RangeError(f"{name}: (nu={nu}, z={z}) outside nu >= -1, 0 <= z <= 20")
    if nu == -1.0:
        return sign * _bessel_series(1.0, z, sign, name)
    if z == 0.0:
        if nu == 0.0:
            return 1.0
        if nu > 0.0:
            return 0.0
        raise DomainError(f"{name}: z=0 with negative order {nu}")
    half = 0.5 * z
    return half**nu * _clifford_series(nu, sign * half * half)


def bessel_j(nu: float, z: float) -> float:
    """Bessel function of the first kind on the box nu >= -1, 0 <= z <= 20."""
    return _bessel_series(nu, z, -1.0, "bessel_j")


def bessel_i(nu: float, z: float) -> float:
    """Modified Bessel function of the first kind, same box as bessel_j."""
    return _bessel_series(nu, z, 1.0, "bessel_i")


def bessel_clifford(nu: float, w: float) -> float:
    """C_nu(w) = sum_k w^k / (k! gamma(nu+k+1)); entire in w.

    This is the smooth core shared by J and I:
    J_nu(z) = (z/2)^nu C_nu(-z^2/4) and I_nu(z) = (z/2)^nu C_nu(z^2/4),
    which lets kernels divide out the z^nu factor without a 0/0.
    """
    if not (nu >= -1.0 and abs(w) <= 100.0):
        if nu != nu or w != w:
            raise DomainError(f"bessel_clifford: NaN argument (nu={nu}, w={w})")
        raise RangeError(f"bessel_clifford: (nu={nu}, w={w}) outside nu >= -1, |w| <= 100")
    if nu == -1.0:
        return w * _clifford_series(1.0, w)
    return _clifford_series(nu, w)


def gegenbauer(m: int, alpha: float, z: float) -> float:
    """Gegenbauer polynomial C_m^alpha(z) by the three-term recurrence

        m C_m = 2 z (m + alpha - 1) C_{m-1} - (m + 2 alpha - 2) C_{m-2}

    with C_0 = 1, C_1 = 2 alpha z.  The recurrence convention gives
    C_m^0 = 0 for m >= 1.
    """
    if m != m or alpha != alpha or z != z:
        raise DomainError(f"gegenbauer: NaN argument (m={m}, alpha={alpha}, z={z})")
    mi = round(m)
    if abs(m - mi) > 1e-9 or mi < 0:
        raise DomainError(f"gegenbauer degree must be a non-negative integer, got {m}")
    if mi == 0:
        return 1.0
    prev = 1.0
    cur = 2.0 * alpha * z
    for k in range(2, mi + 1):
        prev, cur = cur, (2.0 * z * (k + alpha - 1.0) * cur - (k + 2.0 * alpha - 2.0) * prev) / k
    return cur


def hyp1f2(a: float, b1: float, b2: float, z: float) -> float:
    """Generalized hypergeometric 1F2 by direct series.

    Stops when the running term drops below 1e-16 of the partial sum;
    a 500-term cap with a still-growing term raises ConvergenceError.
    """
    for b in (b1, b2):
        if _is_nonpositive_int(b):
            raise PoleError(f"hyp1f2 lower parameter {b} is a non-positive integer")
    term = 1.0
    total = 1.0
    for k in range(500):
        ratio = (a + k) / ((b1 + k) * (b2 + k)) * z / (k + 1.0)
        term *= ratio
        total += term
        if not math.isfinite(total):
            raise ConvergenceError(
                f"hyp1f2({a},{b1},{b2},{z}) overflowed after {k + 1} terms"
            )
        if abs(term) <= 1e-16 * abs(total):
            return total
    if abs(term) >= abs(total) * 1e-16:
        raise ConvergenceError(
            f"hyp1f2({a},{b1},{b2},{z}) did not converge within 500 terms"
        )
    return total


# ---------------------------------------------------------------------------
# (value, d/dz, d2/dz2) triples used by the jet evaluator.
# ---------------------------------------------------------------------------


def gamma_jets(x: float) -> tuple[float, float, float]:
    g = gamma(x)
    psi = digamma(x)
    return g, g * psi, g * (psi * psi + trigamma(x))


def bessel_j_jets(nu: float, z: float) -> tuple[float, float, float]:
    """(J_nu, J_nu', J_nu'') via neighbour orders.

    J' = (J_{nu-1} - J_{nu+1})/2 and J'' = (J_{nu-2} - 2 J_nu + J_{nu+2})/4.
    Orders below the series floor of -1 are reached by the downward
    recurrence J_{m-1} = (2m/z) J_m - J_{m+1} (needs z > 0) or, at
    integer order, by the reflection J_{-n} = (-1)^n J_n.
    """
    if z <= 0.0:
        raise DomainError("bessel_j jets need z > 0")
    j0 = bessel_j(nu, z)
    jp1 = bessel_j(nu + 1.0, z)
    jp2 = bessel_j(nu + 2.0, z)
    if nu >= 0.0:
        jm1 = bessel_j(nu - 1.0, z)
    else:
        jm1 = (2.0 * nu / z) * j0 - jp1
    if nu >= 1.0:
        jm2 = bessel_j(nu - 2.0, z)
    elif nu == round(nu):
        n = round(nu - 2.0)
        jm2 = bessel_j(float(-n), z) * (-1.0 if n % 2 else 1.0)
    else:
        jm2 = (2.0 * (nu - 1.0) / z) * jm1 - j0
    return j0, 0.5 * (jm1 - jp1), 0.25 * (jm2 - 2.0 * j0 + jp2)


def bessel_i_jets(nu: float, z: float) -> tuple[float, float, float]:
    """(I_nu, I_nu', I_nu''); same strategy as bessel_j_jets with + signs."""
    if z <= 0.0:
        raise DomainError("bessel_i jets need z > 0")
    i0 = bessel_i(nu, z)
    ip1 = bessel_i(nu + 1.0, z)
    ip2 = bessel_i(nu + 2.0, z)
    if nu >= 0.0:
        im1 = bessel_i(nu - 1.0, z)
    else:
        im1 = (2.0 * nu / z) * i0 + ip1
    if nu >= 1.0:
        im2 = bessel_i(nu - 2.0, z)
    elif nu == round(nu):
        im2 = bessel_i(abs(nu - 2.0), z)
    else:
        im2 = (2.0 * (nu - 1.0) / z) * im1 + i0
    return i0, 0.5 * (im1 + ip1), 0.25 * (im2 + 2.0 * i0 + ip2)


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
