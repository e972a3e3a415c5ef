"""Catalog of integral-transform cases.

Each entry packages everything needed to check that

    (T f)(x) = integral_0^x K(x,t) f0(t) dt

maps f0 onto f1 while intertwining a divergence-form operator A (acting
in t) with a non-divergence operator B (acting in x):

* K and f0 by their factors, K = (x-t)^p_diag t^kernel_t_exponent W with
  W = kernel_smooth, and f0 = t^f0_t_exponent f0_smooth: the quadrature
  module weights the smooth factors by the powers, and the checks read
  the products ``kernel`` and ``f0``, which are built, never stated,
* f1 and the eigenvalue convention,
* the operator pair (opA, opB) with any corrected coefficients,
* the constant h0 of the t = 0 bracket a K_t - b0 K - h0 a K that A's
  side must annihilate (0 unless set; no catalog case sets it).

Formula tags such as "5.1.4" are opaque catalog labels used by
``describe`` and the CLI; they carry no meaning inside the library.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .errors import AdmissibilityError, UsageError, finite_number, real_numbers
from .expr import BinOp, Expr, Name, Num, Record, parse
from .operators import DifferentialOperator, check_pair_symbols, check_symbols

__all__ = [
    "TransmutationCase",
    "EigenShift",
    "list_cases",
    "get_case",
    "case_record",
    "describe",
    "corrupt_case",
    "COEFFICIENT_NAMES",
]

COEFFICIENT_NAMES = ("a0", "b0", "c0", "a1", "b1", "c1")


class EigenShift(Record):
    """Shifted operator pair for which f0/f1 become genuine eigenfunctions.

    Moving a free term across the equality A f0 = 0 produces
    opA f0 = lam_a * f0 (and similarly on the B side); the two shifted
    eigenvalues need not agree.
    """

    _fields = ("opA", "opB", "lam_a", "lam_b")

    def __init__(self, opA: DifferentialOperator, opB: DifferentialOperator, lam_a: float, lam_b: float):
        self.__dict__.update(opA=opA, opB=opB, lam_a=lam_a, lam_b=lam_b)


@dataclass(frozen=True, kw_only=True)
class TransmutationCase:
    """One case, built by keyword. ``kernel`` and ``f0`` are built, not set:
    (x-t)^p_diag t^kernel_t_exponent kernel_smooth and t^f0_t_exponent
    f0_smooth, each power whose exponent is 0 left out. Left out: no
    eigenvalue and no shifted pair, zero exponents, x in [0.2, 3], no tags
    and no notes."""

    name: str
    params: Mapping[str, float]
    kernel_smooth: Expr
    f0_smooth: Expr
    f1: Expr
    opA: DifferentialOperator
    opB: DifferentialOperator
    lam: float = 0.0
    eigen_shift: Optional[EigenShift] = None
    p_diag: float = 0.0
    kernel_t_exponent: float = 0.0
    f0_t_exponent: float = 0.0
    x_range: tuple = (0.2, 3.0)
    refs: tuple = ()
    notes: str = ""
    h0: float = 0.0
    kernel: Expr = field(init=False)
    f0: Expr = field(init=False)

    @property
    def p_zero(self):
        """The exponent of K*f0 ~ t^p_zero as t -> 0."""
        return self.kernel_t_exponent + self.f0_t_exponent

    def __post_init__(self):
        for name in ("lam", "p_diag", "kernel_t_exponent", "f0_t_exponent", "h0"):
            object.__setattr__(self, name, finite_number(getattr(self, name), name))
        if (ends := real_numbers(self.x_range, "x_range")).shape != (2,):  # inf is sample_points' to refuse
            raise UsageError(f"x_range must be two numbers, got {self.x_range!r}")
        object.__setattr__(self, "x_range", tuple(ends.tolist()))
        if not self.p_diag > -1.0:
            raise AdmissibilityError("p_diag > -1", f"got {self.p_diag}")
        if not self.p_zero > -1.0:
            raise AdmissibilityError("p_zero > -1", f"got {self.p_zero}")
        for name, variables in (("kernel_smooth", "xt"), ("f0_smooth", "t"), ("f1", "x")):
            check_symbols(name, getattr(self, name), variables, self.params)
        check_pair_symbols(self.opA, self.opB, self.params)
        if (shift := self.eigen_shift) is not None:
            check_pair_symbols(shift.opA, shift.opB, self.params, "eigen-shift coefficient")
        t = Name("t")
        kernel = _product(self.kernel_smooth, (BinOp("-", Name("x"), t), self.p_diag), (t, self.kernel_t_exponent))
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "f0", _product(self.f0_smooth, (t, self.f0_t_exponent)))


def _product(smooth, *powers):
    """The tree base^exponent ... times ``smooth``, over the (base, exponent)
    ``powers`` in order; a power whose exponent is 0 is left out."""
    for base, exponent in reversed(powers):
        if exponent != 0.0:
            smooth = BinOp("*", BinOp("^", base, Num(exponent)), smooth)
    return smooth


def _merge(defaults, params, case_name):
    if not isinstance(params := {} if params is None else params, Mapping):
        raise UsageError(f"params must be a mapping of names to numbers, got {params!r}")
    merged = dict(defaults)
    for key, value in params.items():
        if key not in defaults:
            raise UsageError(
                f"unknown parameter {key!r} for case {case_name!r}"
                f" (expected one of {', '.join(sorted(defaults))})"
            )
        merged[key] = finite_number(value, f"parameter {key!r}")
    return merged


def _require(condition, constraint, **values):
    if not condition:
        detail = ", ".join(f"{k}={v!r}" for k, v in values.items())
        raise AdmissibilityError(constraint, detail)


def _div_t(a, b, c):
    return DifferentialOperator("t", parse(a), parse(b), parse(c))


def _nondiv_x(a, b, c):
    return DifferentialOperator("x", parse(a), parse(b), parse(c))


# name -> (builder, parameter defaults), in catalog order. A builder takes the
# merged parameters and returns every field of its case but the name and params.
_CASES = {}


def _case(defaults):
    """Enter the decorated ``_name`` builder in the catalog as ``name``."""

    def enter(builder):
        _CASES[builder.__name__[1:]] = (builder, defaults)
        return builder

    return enter


@_case({"beta": 2.0, "lambda": 3.0, "p": 3.0})
def _gegenbauer(p):
    beta, lam_p, degree = p["beta"], p["lambda"], p["p"]
    _require(beta > 0.0, "Re beta > 0", beta=beta)
    _require(
        degree == math.floor(degree) and degree >= 1 and int(degree) % 2 == 1,
        "p = 2n+1 (odd positive integer)",
        p=degree,
    )
    n = (int(degree) - 1) // 2
    _require(lam_p - beta > -n, "Re(lambda-beta) > -n", **{"lambda": lam_p, "beta": beta, "n": n})
    diff = lam_p - beta
    _require(
        not (diff <= 0.0 and diff == math.floor(diff)),
        "lambda - beta not a pole of gamma",
        **{"lambda-beta": diff},
    )
    return dict(
        f1=parse(
            "0.5*gamma(lambda-beta)*gamma(beta)/gamma(lambda)"
            "*x^(2*lambda-2+p)*gegenbauer(p, lambda-beta, x)"
        ),
        opA=DifferentialOperator(
            "t",
            parse("t^2*(t^2-1)"),
            parse("-t*((2*p-4*beta+2*lambda+1)*t^2+2*(2*(beta-lambda)-p))"),
            parse(
                "4*(beta-1)*(beta-lambda-p-1)*t^2"
                "+(4*beta*p+2*beta-p*(1+p)-4*(beta-lambda)^2-2*lambda-4*lambda*p)"
            ),
        ),
        opB=DifferentialOperator(
            "x",
            parse("x^2*(x^2-1)"),
            parse("x*((5-2*(p+beta+lambda))*x^2+2*(p+2*(lambda-1)))"),
            parse("4*(beta-1)*(p+lambda-1)*x^2-(p+2*lambda-2)*(p+2*lambda-1)"),
        ),
        p_diag=beta - 1.0,
        f0_t_exponent=2.0 * (lam_p - beta) + degree,
        kernel_smooth=parse("(x+t)^(beta-1)"),
        f0_smooth=parse("gegenbauer(p, lambda, t)/t"),
        x_range=(0.2, 0.95),
        refs=("4.2.1",),
        notes=(
            "Both printed coefficient sets of tag 4.2.1 are stored verbatim"
            " and close the hyperbolic identity for every admissible"
            " (beta, lambda, p). Unlike the other entries, b1 - b0 ="
            " 2*(beta-1)*x*(2-3*x^2) does not vanish on the diagonal; the"
            " transport condition holds because K(x,x) = 0 for beta > 1."
            " The odd-degree zero of the polynomial factor at t = 0 is"
            " folded into f0_t_exponent, so f0_smooth = gegenbauer(...)/t"
            " is smooth and even."
        ),
    )


@_case({"nu": 1.0})
def _poisson_bessel(p):
    nu = p["nu"]
    _require(nu > -0.5, "Re nu > -1/2", nu=nu)
    return dict(
        f0_smooth=parse("cos(t)"),
        f1=parse("sqrt(x)*besselj(nu, x)"),
        opA=_div_t("1", "0", "1"),
        opB=_nondiv_x("1", "0", "1-(nu^2-0.25)/x^2"),
        eigen_shift=EigenShift(
            opA=_div_t("-1", "0", "0"),
            opB=_nondiv_x("-1", "0", "(nu^2-0.25)/x^2"),
            lam_a=1.0,
            lam_b=1.0,
        ),
        p_diag=nu - 0.5,
        kernel_smooth=parse(
            "(2^(1-nu)/(gamma(0.5)*gamma(nu+0.5))) * (x+t)^(nu-0.5)/x^(nu-0.5)"
        ),
        refs=("5.1.3", "5.1.4", "5.1.5"),
        notes=(
            "The normalising factor 2^(1-nu)/(gamma(0.5)*gamma(nu+0.5))"
            " carries gamma(0.5) = sqrt(pi), which some renderings of tag"
            " 5.1.3 drop; without it T[cos] misses f1 by sqrt(pi)."
            " At nu = 1/2 the kernel collapses to the constant sqrt(2/pi)"
            " and T becomes the plain Fourier cosine-to-sine map."
        ),
    )


@_case({"mu": 0.5, "nu": 0.5})
def _sonin(p):
    mu, nu = p["mu"], p["nu"]
    _require(mu > -1.0, "Re mu > -1", mu=mu)
    _require(nu > -1.0, "Re nu > -1", nu=nu)
    return dict(
        f1=parse("x^(mu+1)*besselj(mu+nu+1, x)"),
        opA=_div_t("1", "-(2*mu+1)/t", "1"),
        opB=_nondiv_x("1", "-(2*mu+1)/x", "1-nu*(nu+2*mu+2)/x^2"),
        eigen_shift=EigenShift(
            opA=_div_t("-1", "(2*mu+1)/t", "0"),
            opB=_nondiv_x("-1", "(2*mu+1)/x", "nu*(nu+2*mu+2)/x^2"),
            lam_a=1.0,
            lam_b=1.0,
        ),
        p_diag=nu,
        f0_t_exponent=2.0 * mu + 1.0,
        kernel_smooth=parse("(x+t)^nu/(x^nu*2^nu*gamma(nu+1))"),
        f0_smooth=parse("bessel_clifford(mu, -t^2/4)/2^mu"),
        refs=("5.1.7", "5.1.8"),
        notes=(
            "Two corrections against the printed tags: tag 5.1.8b shows b0"
            " with a 1/x factor, stored here as -(2*mu+1)/t (the hyperbolic"
            " identity closes only in t); and c1 is stored with /x^2 where"
            " the tag prints nu*(nu+2*mu+2)/x."
        ),
    )


@_case({"beta": 1.5, "omega": 1.0})
def _sine_to_bessel(p):
    beta, omega = p["beta"], p["omega"]
    _require(beta > 0.0, "Re beta > 0", beta=beta)
    _require(omega > 0.0, "omega > 0", omega=omega)
    return dict(
        f1=parse(
            "0.5*sqrt(pi)*gamma(beta)*(2/omega)^(beta-0.5)"
            "*x^(beta+0.5)*besselj(beta+0.5, omega*x)"
        ),
        opA=_div_t("1", "0", "omega^2"),
        opB=_nondiv_x("1", "-2*beta/x", "omega^2"),
        eigen_shift=EigenShift(
            opA=_div_t("1", "0", "0"),
            opB=_nondiv_x("1", "-2*beta/x", "0"),
            lam_a=-(omega ** 2),
            lam_b=-(omega ** 2),
        ),
        p_diag=beta - 1.0,
        kernel_t_exponent=1.0,
        f0_t_exponent=1.0,
        kernel_smooth=parse("(x+t)^(beta-1)"),
        f0_smooth=parse("omega*0.5*sqrt(pi)*bessel_clifford(0.5, -omega^2*t^2/4)"),
        refs=("5.1.9", "5.1.10", "5.1.11"),
        notes=(
            "The omega-dependence of f1 follows from rescaling the"
            " integration variable: the output picks up (2/omega)^(beta-1/2)"
            " relative to the omega = 1 statement in tag 5.1.10."
        ),
    )


@_case({"mu": 1.0, "beta": 0.5})
def _sinh_cosh(p):
    mu, beta = p["mu"], p["beta"]
    _require(mu > 0.0, "mu > 0", mu=mu)
    _require(beta >= 0.0, "beta >= 0", beta=beta)
    return dict(
        f0_smooth=parse("cosh(beta*t)"),
        f1=parse("0.5*pi*mu*x*besseli(1, sqrt(beta^2+mu^2)*x)/sqrt(beta^2+mu^2)"),
        opA=_div_t("1", "0", "-beta^2"),
        opB=_nondiv_x("1", "-1/x", "-(beta^2+mu^2)"),
        eigen_shift=EigenShift(
            opA=_div_t("1", "0", "0"),
            opB=_nondiv_x("1", "-1/x", "-mu^2"),
            lam_a=beta ** 2,
            lam_b=beta ** 2,
        ),
        p_diag=0.5,
        kernel_smooth=parse(
            "mu*0.5*sqrt(pi)*sqrt(x+t)*bessel_clifford(0.5, mu^2*(x^2-t^2)/4)"
        ),
        refs=("5.2.3",),
        notes=(
            "K(x,x) = 0, so the diagonal transport condition is met"
            " regardless of b1 - b0 = -1/x."
        ),
    )


@_case({"mu": 1.0, "nu": 1.0, "beta": 1.0, "omega": 1.0})
def _lowndes(p):
    mu, nu, beta, omega = p["mu"], p["nu"], p["beta"], p["omega"]
    _require(mu >= 0.0, "mu >= 0", mu=mu)
    _require(nu > 0.0, "nu > 0", nu=nu)
    _require(beta > 0.0, "beta > 0", beta=beta)
    _require(omega > 0.0, "omega > 0", omega=omega)
    return dict(
        f1=parse(
            "beta^mu*omega^nu*x^(mu+nu+1)"
            "*besselj(mu+nu+1, sqrt(beta^2+omega^2)*x)"
            "/(beta^2+omega^2)^((mu+nu+1)/2)"
        ),
        opA=_div_t("1", "-(1+2*nu)/t", "omega^2"),
        opB=_nondiv_x("1", "-(1+2*mu+2*nu)/x", "beta^2+omega^2"),
        eigen_shift=EigenShift(
            opA=_div_t("-1", "(1+2*nu)/t", "0"),
            opB=_nondiv_x("-1", "(1+2*mu+2*nu)/x", "0"),
            lam_a=omega ** 2,
            lam_b=beta ** 2 + omega ** 2,
        ),
        p_diag=mu,
        f0_t_exponent=2.0 * nu + 1.0,
        kernel_smooth=parse(
            "(x+t)^mu*(beta/2)^mu*bessel_clifford(mu, -beta^2*(x^2-t^2)/4)"
        ),
        f0_smooth=parse("(omega/2)^nu*bessel_clifford(nu, -omega^2*t^2/4)"),
        refs=("5.3.1", "5.3.2", "5.3.3"),
        notes=(
            "b0 is stored as -(1+2*nu)/t; tag 5.3.3 prints the same"
            " coefficient over x. The shifted eigenvalues differ by side:"
            " omega^2 on the input, beta^2 + omega^2 on the output."
        ),
    )


@_case({"nu": 1.0, "mu": 1.0, "omega": 1.0})
def _epd_bessel(p):
    nu, mu, omega = p["nu"], p["mu"], p["omega"]
    _require(nu > -0.5, "Re nu > -1/2", nu=nu)
    _require(mu > 0.0, "mu > 0", mu=mu)
    _require(omega >= 0.0, "omega >= 0", omega=omega)
    return dict(
        f0_smooth=parse("cos(omega*t)"),
        f1=parse(
            "sqrt(0.5*pi)*mu^nu*x^(nu+0.5)"
            "*besselj(nu+0.5, sqrt(omega^2+mu^2)*x)"
            "/(omega^2+mu^2)^(0.5*nu+0.25)"
        ),
        opA=_div_t("1", "0", "omega^2"),
        opB=_nondiv_x("1", "-2*nu/x", "omega^2+mu^2"),
        eigen_shift=EigenShift(
            opA=_div_t("1", "0", "0"),
            opB=_nondiv_x("1", "-2*nu/x", "0"),
            lam_a=-(omega ** 2),
            lam_b=-(omega ** 2 + mu ** 2),
        ),
        p_diag=nu,
        kernel_smooth=parse(
            "(x+t)^nu*(mu/2)^nu*bessel_clifford(nu, -mu^2*(x^2-t^2)/4)"
        ),
        refs=("5.4.3", "5.4.6", "5.4.7"),
        notes=(
            "The half-order/half-difference slips in tags 5.4.5-5.4.6 are"
            " resolved by storing the pair that closes the hyperbolic"
            " identity: order nu = (kappa0+kappa1)/2 and shift"
            " q^2 = c1 - c0 rather than the printed sum and difference."
        ),
    )


@_case({"mu": 1.0, "omega": 1.0})
def _vekua_telegraph(p):
    mu, omega = p["mu"], p["omega"]
    _require(mu > 0.0, "mu > 0", mu=mu)
    _require(omega >= 0.0, "omega >= 0", omega=omega)
    return dict(
        f0_smooth=parse("cos(omega*t)"),
        f1=parse("sin(sqrt(omega^2+mu^2)*x)/sqrt(omega^2+mu^2)"),
        opA=_div_t("1", "0", "omega^2"),
        opB=_nondiv_x("1", "0", "omega^2+mu^2"),
        eigen_shift=EigenShift(
            opA=_div_t("1", "0", "0"),
            opB=_nondiv_x("1", "0", "0"),
            lam_a=-(omega ** 2),
            lam_b=-(omega ** 2 + mu ** 2),
        ),
        kernel_smooth=parse("bessel_clifford(0, -mu^2*(x^2-t^2)/4)"),
        refs=("5.4.11", "5.4.12"),
        notes=(
            "K(0,0) = J0(0) = 1, so the vertex product tends to 1 rather"
            " than 0; the verifier records that limit and marks the vertex"
            " check informational instead of failing it."
        ),
    )


@_case({"alpha": 1.0, "beta": 2.0, "mu": 1.0})
def _cosh_1f2(p):
    alpha, beta = p["alpha"], p["beta"]
    _require(alpha == 1.0, "alpha = 1", alpha=alpha)
    _require(beta > 0.0, "Re beta > 0", beta=beta)
    return dict(
        f0_smooth=parse("cosh(mu*t)"),
        f1=parse(
            "0.5*x^(2*beta-1)*gamma(0.5)*gamma(beta)/gamma(beta+0.5)"
            "*hyp1f2(0.5, 0.5, beta+0.5, (mu*x/2)^2)"
        ),
        opA=_div_t("1", "0", "-mu^2"),
        opB=_nondiv_x("1", "-2*(beta-1)/x", "-mu^2"),
        eigen_shift=EigenShift(
            opA=_div_t("1", "0", "0"),
            opB=_nondiv_x("1", "-2*(beta-1)/x", "0"),
            lam_a=p["mu"] ** 2,
            lam_b=p["mu"] ** 2,
        ),
        p_diag=beta - 1.0,
        kernel_smooth=parse("(x+t)^(beta-1)"),
        refs=("5.5.1", "5.5.4", "5.5.5"),
        notes=(
            "Stored pair differs from tag 5.5.4, whose coefficients do not"
            " close the hyperbolic identity; differentiating the transform"
            " directly gives b0 = 0, c0 = -mu^2, b1 = -2*(beta-1)/x,"
            " c1 = -mu^2, and that is what is stored. f1 likewise carries"
            " the prefactor gamma(0.5)*gamma(beta)/(2*gamma(beta+0.5)) that"
            " tag 5.5.1 omits. alpha is pinned to 1: for alpha != 1 the"
            " endpoint term of the integration by parts survives, so no"
            " operator pair of this form exists."
        ),
    )


def list_cases():
    """Names of the built-in cases, in stable catalog order."""
    return list(_CASES)


def get_case(name, params=None):
    """Build a catalog case, merging ``params`` over its defaults."""
    try:
        builder, defaults = _CASES[name]
    except KeyError:
        raise UsageError(f"unknown case {name!r} (known: {', '.join(_CASES)})") from None
    merged = _merge(defaults, params, name)
    try:
        return TransmutationCase(name=name, params=merged, **builder(merged))
    except OverflowError:  # such as a parameter squared for a shifted eigenvalue
        _require(False, "parameter powers within the float range", **params)


def case_record(case):
    """The case as plain data, by field: what ``catalog show --format json``
    prints and ``describe`` renders."""
    shift = case.eigen_shift
    return {
        "name": case.name,
        "tags": list(case.refs),
        "parameters": dict(case.params),
        "kernel": str(case.kernel),
        "f0": str(case.f0),
        "f1": str(case.f1),
        "operators": {
            label: {"var": op.var, "form": op.form, **{slot: str(getattr(op, slot)) for slot in "abc"}}
            for label, op in (("A", case.opA), ("B", case.opB))
        },
        "h0": case.h0,
        "lambda": case.lam,
        "shifted_pair": None if shift is None else {"lambda_a": shift.lam_a, "lambda_b": shift.lam_b},
        "p_diag": case.p_diag,
        "p_zero": case.p_zero,
        "x_range": list(case.x_range),
        "notes": case.notes,
    }


def describe(case):
    """Render ``case_record(case)`` as deterministic human-readable text."""
    rec = case_record(case)
    params = ", ".join(f"{k}={v!r}" for k, v in sorted(rec["parameters"].items()))
    lines = [f"case {rec['name']}  [tags: {', '.join(rec['tags'])}]", f"  parameters: {params}",
             f"  K(x,t) = {rec['kernel']}", f"  f0(t)  = {rec['f0']}", f"  f1(x)  = {rec['f1']}"]
    for label, op in rec["operators"].items():
        lines.append(f"  {label} ({op['form']}, d/d{op['var']}):")
        lines += (f"    {slot} = {op[slot]}" for slot in "abc")
    if rec["h0"]:
        lines.append(f"  h0 = {rec['h0']!r}")
    lines.append(f"  lambda = {rec['lambda']!r}")
    if (shift := rec["shifted_pair"]) is not None:
        lines.append(f"  shifted pair: A' f0 = {shift['lambda_a']!r} f0, B' f1 = {shift['lambda_b']!r} f1")
    lines.append(f"  exponents: p_diag = {rec['p_diag']!r}, p_zero = {rec['p_zero']!r}")
    lines.append("  x range: [{!r}, {!r}]".format(*rec["x_range"]))
    if rec["notes"]:
        lines.append(f"  notes: {rec['notes']}")
    return "\n".join(lines)


def corrupt_case(case, coefficient, delta):
    """Copy of ``case`` with one operator coefficient shifted by a constant.

    ``coefficient`` is one of a0, b0, c0 (on opA) or a1, b1, c1 (on opB).
    Used to demonstrate that the verifier notices broken pairs.
    """
    if coefficient not in COEFFICIENT_NAMES:
        raise UsageError(
            f"unknown coefficient {coefficient!r}"
            f" (expected one of {', '.join(COEFFICIENT_NAMES)})"
        )
    side = "opA" if coefficient.endswith("0") else "opB"
    op = getattr(case, side)
    slot, delta = coefficient[0], finite_number(delta, "delta")
    bumped = DifferentialOperator(**{**vars(op), slot: BinOp("+", getattr(op, slot), Num(delta))})
    return dataclasses.replace(case, **{side: bumped})
