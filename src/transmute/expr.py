"""Parsing, evaluation, and second-order jets for the coefficient DSL.

Grammar (infix, case sensitive)::

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?
    atom   := NUMBER | IDENT | IDENT "(" expr ("," expr)* ")" | "(" expr ")"

"^" is right-associative and binds tighter than unary minus, so "-x^2"
parses as -(x^2).  ``pi`` is a reserved constant.  Any other identifier
that is not a registered function resolves through the binding map at
evaluation time; by convention "x" and "t" are the kernel variables and
everything else is a case parameter.

Expression nodes are frozen dataclasses: parsing never aliases mutable
state into the tree, and evaluation never mutates it, so one parsed
expression can be shared between threads and across parameter sweeps.

Powers with a literal integer exponent are evaluated by repeated
multiplication (valid for negative bases, exact for jets); any other
exponent goes through exp(v*log(u)) and requires a positive base.
Domain violations raise :class:`~transmute.errors.DomainError` naming
the offending subexpression instead of letting NaN propagate.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from . import specfun
from .errors import DomainError, ParseError, UnboundSymbolError

__all__ = [
    "Expr",
    "Num",
    "Name",
    "Neg",
    "BinOp",
    "Call",
    "Jet2",
    "parse",
    "evaluate",
    "evaluate_jet",
    "to_string",
    "free_symbols",
]


class Expr:
    """Base class for expression nodes."""

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Name(Expr):
    ident: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "number":
            tokens.append(("number", m.group(), pos))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), pos))
        elif m.lastgroup == "op":
            tokens.append((m.group(), m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected: str):
        tok = self.peek()
        if tok[0] != kind:
            got = repr(tok[1]) if tok[0] != "end" else "end of input"
            raise ParseError(f"unexpected {got}", tok[2], expected=expected)
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(
                f"trailing input {tok[1]!r}", tok[2], expected="operator or end"
            )
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.peek()[0] == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.peek()[0] == "^":
            self.advance()
            return BinOp("^", base, self.factor())
        return base

    def atom(self) -> Expr:
        kind, text, pos = self.peek()
        if kind == "number":
            self.advance()
            value = float(text)
            if math.isinf(value):
                raise ParseError(f"number {text!r} overflows a double", pos)
            return Num(value)
        if kind == "ident":
            self.advance()
            if self.peek()[0] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                self.advance()
                args = [self.expr()]
                while self.peek()[0] == ",":
                    self.advance()
                    args.append(self.expr())
                self.expect(")", "')'")
                spec = FUNCTIONS[text]
                if len(args) != spec.arity:
                    raise ParseError(
                        f"{text} takes {spec.arity} argument(s), got {len(args)}", pos
                    )
                return Call(text, tuple(args))
            if text == "pi":
                return Num(math.pi)
            return Name(text)
        if kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", "')'")
            return node
        got = repr(text) if kind != "end" else "end of input"
        raise ParseError(
            f"unexpected {got}", pos, expected="number, identifier, or '('"
        )


def parse(text: str) -> Expr:
    """Parse the DSL into an immutable expression tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: Expr) -> int:
    if isinstance(node, BinOp):
        if node.op in ("+", "-"):
            return _PREC_ADD
        if node.op in ("*", "/"):
            return _PREC_MUL
        return _PREC_POW
    if isinstance(node, Neg):
        return _PREC_NEG
    return _PREC_ATOM


def to_string(node: Expr) -> str:
    """Canonical infix form; parse(to_string(e)) reproduces the same tree."""
    if isinstance(node, Num):
        if node.value == math.pi:
            return "pi"
        text = repr(node.value)
        if text.endswith(".0"):
            text = text[:-2]
        return f"({text})" if node.value < 0 else text
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, Call):
        return f"{node.name}({', '.join(to_string(a) for a in node.args)})"
    if isinstance(node, Neg):
        inner = to_string(node.arg)
        if _prec(node.arg) < _PREC_POW:
            inner = f"({inner})"
        return "-" + inner
    if isinstance(node, BinOp):
        mine = _prec(node)
        left = to_string(node.left)
        right = to_string(node.right)
        if node.op == "^":
            # right-associative: parenthesize an exponent-like left child
            if _prec(node.left) <= _PREC_POW:
                left = f"({left})"
            if _prec(node.right) < _PREC_POW:
                right = f"({right})"
        else:
            if _prec(node.left) < mine:
                left = f"({left})"
            if _prec(node.right) <= mine:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an expression node: {node!r}")


def free_symbols(node: Expr) -> set[str]:
    """All identifiers the expression will look up in the binding map."""
    if isinstance(node, Name):
        return {node.ident}
    if isinstance(node, Neg):
        return free_symbols(node.arg)
    if isinstance(node, BinOp):
        return free_symbols(node.left) | free_symbols(node.right)
    if isinstance(node, Call):
        out: set[str] = set()
        for a in node.args:
            out |= free_symbols(a)
        return out
    return set()


# ---------------------------------------------------------------------------
# plain evaluation
# ---------------------------------------------------------------------------


def _as_int_exponent(v: float) -> int | None:
    # the range test comes first: math.floor raises on inf and NaN
    if abs(v) <= 1024 and v == math.floor(v):
        return int(v)
    return None


def _int_pow(u, n: int):
    """Binary exponentiation of a positive power; floats and jets alike."""
    acc = None
    base = u
    while n:
        if n & 1:
            acc = base if acc is None else acc * base
        base = base * base
        n >>= 1
    return acc


def evaluate(node: Expr, bindings: Mapping[str, float]) -> float:
    """Evaluate to a float.  Raises DomainError instead of returning NaN/inf."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Name):
        try:
            return float(bindings[node.ident])
        except KeyError:
            raise UnboundSymbolError(node.ident) from None
    if isinstance(node, Neg):
        return -evaluate(node.arg, bindings)
    if isinstance(node, BinOp):
        u = evaluate(node.left, bindings)
        v = evaluate(node.right, bindings)
        if node.op == "+":
            return u + v
        if node.op == "-":
            return u - v
        if node.op == "*":
            return u * v
        if node.op == "/":
            if v == 0.0:
                raise DomainError(f"division by zero in {to_string(node)}")
            return u / v
        n = _as_int_exponent(v)
        if n is not None:
            if n == 0:
                return 1.0
            if u == 0.0 and n < 0:
                raise DomainError(f"zero base with negative exponent in {to_string(node)}")
            r = _int_pow(u, abs(n))
            return 1.0 / r if n < 0 else r
        if not math.isfinite(v):
            raise DomainError(f"non-finite exponent in {to_string(node)}")
        if u < 0.0:
            raise DomainError(
                f"negative base with non-integer exponent in {to_string(node)}"
            )
        if u == 0.0:
            if v > 0.0:
                return 0.0
            raise DomainError(f"zero base with non-positive exponent in {to_string(node)}")
        try:
            return math.exp(v * math.log(u))
        except OverflowError:
            raise DomainError(f"overflow in {to_string(node)}") from None
    if isinstance(node, Call):
        args = [evaluate(a, bindings) for a in node.args]
        spec = FUNCTIONS[node.name]
        try:
            return spec.value(*args)
        except (ValueError, OverflowError) as exc:
            raise DomainError(f"{exc} in {to_string(node)}") from None
    raise TypeError(f"not an expression node: {node!r}")


# ---------------------------------------------------------------------------
# second-order jets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Value and partial derivatives through second order in (x, t)."""

    value: float
    dx: float = 0.0
    dt: float = 0.0
    dxx: float = 0.0
    dxt: float = 0.0
    dtt: float = 0.0

    @property
    def is_constant(self) -> bool:
        return (
            self.dx == 0.0
            and self.dt == 0.0
            and self.dxx == 0.0
            and self.dxt == 0.0
            and self.dtt == 0.0
        )

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.dx, -self.dt, -self.dxx, -self.dxt, -self.dtt)

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(
            self.value + other.value,
            self.dx + other.dx,
            self.dt + other.dt,
            self.dxx + other.dxx,
            self.dxt + other.dxt,
            self.dtt + other.dtt,
        )

    def __sub__(self, other: "Jet2") -> "Jet2":
        return self + (-other)

    def __mul__(self, other: "Jet2") -> "Jet2":
        a, b = self, other
        return Jet2(
            a.value * b.value,
            a.dx * b.value + a.value * b.dx,
            a.dt * b.value + a.value * b.dt,
            a.dxx * b.value + 2.0 * a.dx * b.dx + a.value * b.dxx,
            a.dxt * b.value + a.dx * b.dt + a.dt * b.dx + a.value * b.dxt,
            a.dtt * b.value + 2.0 * a.dt * b.dt + a.value * b.dtt,
        )

    def __truediv__(self, other: "Jet2") -> "Jet2":
        v = other.value
        if v == 0.0:
            raise DomainError("division by zero in jet")
        return self * other.chain(1.0 / v, -1.0 / (v * v), 2.0 / (v * v * v))

    def chain(self, f: float, d1: float, d2: float) -> "Jet2":
        """Compose an outer scalar function given f(u), f'(u), f''(u)."""
        u = self
        return Jet2(
            f,
            d1 * u.dx,
            d1 * u.dt,
            d2 * u.dx * u.dx + d1 * u.dxx,
            d2 * u.dx * u.dt + d1 * u.dxt,
            d2 * u.dt * u.dt + d1 * u.dtt,
        )

    @staticmethod
    def constant(v: float) -> "Jet2":
        return Jet2(float(v))


def _jet_pow(node: Expr, u: Jet2, v: Jet2) -> Jet2:
    n = None
    if v.is_constant:
        n = _as_int_exponent(v.value)
    if n is not None:
        if n == 0:
            return Jet2.constant(1.0)
        if u.value == 0.0 and n < 0:
            raise DomainError(f"zero base with negative exponent in {to_string(node)}")
        r = _int_pow(u, abs(n))
        return Jet2.constant(1.0) / r if n < 0 else r
    if not math.isfinite(v.value):
        raise DomainError(f"non-finite exponent in {to_string(node)}")
    if u.value <= 0.0:
        raise DomainError(
            f"non-integer power needs a positive base in {to_string(node)}"
        )
    if v.is_constant:
        p = v.value
        f = math.exp(p * math.log(u.value))
        return u.chain(f, p * f / u.value, p * (p - 1.0) * f / (u.value * u.value))
    lg = u.chain(math.log(u.value), 1.0 / u.value, -1.0 / (u.value * u.value))
    w = v * lg
    e = math.exp(w.value)
    return w.chain(e, e, e)


def evaluate_jet(node: Expr, x: float, t: float, params: Mapping[str, float]) -> Jet2:
    """Evaluate with first and second partials in x and t carried along."""
    seed_x = Jet2(float(x), dx=1.0)
    seed_t = Jet2(float(t), dt=1.0)

    def go(n: Expr) -> Jet2:
        if isinstance(n, Num):
            return Jet2.constant(n.value)
        if isinstance(n, Name):
            if n.ident == "x":
                return seed_x
            if n.ident == "t":
                return seed_t
            try:
                return Jet2.constant(params[n.ident])
            except KeyError:
                raise UnboundSymbolError(n.ident) from None
        if isinstance(n, Neg):
            return -go(n.arg)
        if isinstance(n, BinOp):
            if n.op == "^":
                return _jet_pow(n, go(n.left), go(n.right))
            u = go(n.left)
            v = go(n.right)
            if n.op == "+":
                return u + v
            if n.op == "-":
                return u - v
            if n.op == "*":
                return u * v
            if v.value == 0.0:
                raise DomainError(f"division by zero in {to_string(n)}")
            return u / v
        if isinstance(n, Call):
            args = [go(a) for a in n.args]
            try:
                return FUNCTIONS[n.name].jet(n, args)
            except (ValueError, OverflowError) as exc:
                raise DomainError(f"{exc} in {to_string(n)}") from None
        raise TypeError(f"not an expression node: {n!r}")

    return go(node)


# ---------------------------------------------------------------------------
# function registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Fn:
    arity: int
    value: Callable[..., float]
    jet: Callable[[Expr, Sequence[Jet2]], Jet2]


def _chain1(fn_triple):
    """Single-argument function given u -> (f, f', f'')."""

    def rule(node: Expr, args: Sequence[Jet2]) -> Jet2:
        (u,) = args
        f, d1, d2 = fn_triple(node, u.value)
        return u.chain(f, d1, d2)

    return rule


def _require_constant(node: Expr, jets: Sequence[Jet2], count: int) -> None:
    for j in jets[:count]:
        if not j.is_constant:
            raise DomainError(
                f"the first {count} argument(s) of {node.name} must not depend "
                f"on x or t: {to_string(node)}"
            )


def _sin_triple(node, u):
    return math.sin(u), math.cos(u), -math.sin(u)


def _cos_triple(node, u):
    return math.cos(u), -math.sin(u), -math.cos(u)


def _sinh_triple(node, u):
    s, c = math.sinh(u), math.cosh(u)
    return s, c, s


def _cosh_triple(node, u):
    s, c = math.sinh(u), math.cosh(u)
    return c, s, c


def _exp_triple(node, u):
    e = math.exp(u)
    return e, e, e


def _log_triple(node, u):
    if u <= 0.0:
        raise DomainError(f"log of non-positive value in {to_string(node)}")
    return math.log(u), 1.0 / u, -1.0 / (u * u)


def _sqrt_triple(node, u):
    if u < 0.0:
        raise DomainError(f"sqrt of negative value in {to_string(node)}")
    if u == 0.0:
        raise DomainError(f"sqrt jet singular at 0 in {to_string(node)}")
    r = math.sqrt(u)
    return r, 0.5 / r, -0.25 / (u * r)


def _abs_triple(node, u):
    if u == 0.0:
        raise DomainError(f"derivative of abs at 0 in {to_string(node)}")
    s = 1.0 if u > 0.0 else -1.0
    return abs(u), s, 0.0


def _gamma_triple(node, u):
    return specfun.gamma_jets(u)


def _value_log(u):
    if u <= 0.0:
        raise DomainError(f"log of non-positive value {u}")
    return math.log(u)


def _value_sqrt(u):
    if u < 0.0:
        raise DomainError(f"sqrt of negative value {u}")
    return math.sqrt(u)


def _besselj_jet(node: Expr, args: Sequence[Jet2]) -> Jet2:
    _require_constant(node, args, 1)
    nu, z = args[0].value, args[1]
    f, d1, d2 = specfun.bessel_j_jets(nu, z.value)
    return z.chain(f, d1, d2)


def _besseli_jet(node: Expr, args: Sequence[Jet2]) -> Jet2:
    _require_constant(node, args, 1)
    nu, z = args[0].value, args[1]
    f, d1, d2 = specfun.bessel_i_jets(nu, z.value)
    return z.chain(f, d1, d2)


def _bessel_clifford_jet(node: Expr, args: Sequence[Jet2]) -> Jet2:
    _require_constant(node, args, 1)
    nu, w = args[0].value, args[1]
    f, d1, d2 = specfun.bessel_clifford_jets(nu, w.value)
    return w.chain(f, d1, d2)


def _gegenbauer_jet(node: Expr, args: Sequence[Jet2]) -> Jet2:
    _require_constant(node, args, 2)
    m, alpha, z = args[0].value, args[1].value, args[2]
    f, d1, d2 = specfun.gegenbauer_jets(m, alpha, z.value)
    return z.chain(f, d1, d2)


def _hyp1f2_jet(node: Expr, args: Sequence[Jet2]) -> Jet2:
    _require_constant(node, args, 3)
    a, b1, b2, z = args[0].value, args[1].value, args[2].value, args[3]
    f, d1, d2 = specfun.hyp1f2_jets(a, b1, b2, z.value)
    return z.chain(f, d1, d2)


FUNCTIONS: dict[str, _Fn] = {
    "sin": _Fn(1, math.sin, _chain1(_sin_triple)),
    "cos": _Fn(1, math.cos, _chain1(_cos_triple)),
    "sinh": _Fn(1, math.sinh, _chain1(_sinh_triple)),
    "cosh": _Fn(1, math.cosh, _chain1(_cosh_triple)),
    "exp": _Fn(1, math.exp, _chain1(_exp_triple)),
    "log": _Fn(1, _value_log, _chain1(_log_triple)),
    "sqrt": _Fn(1, _value_sqrt, _chain1(_sqrt_triple)),
    "abs": _Fn(1, abs, _chain1(_abs_triple)),
    "gamma": _Fn(1, specfun.gamma, _chain1(_gamma_triple)),
    "besselj": _Fn(2, specfun.bessel_j, _besselj_jet),
    "besseli": _Fn(2, specfun.bessel_i, _besseli_jet),
    "bessel_clifford": _Fn(2, specfun.bessel_clifford, _bessel_clifford_jet),
    "gegenbauer": _Fn(3, specfun.gegenbauer, _gegenbauer_jet),
    "hyp1f2": _Fn(4, specfun.hyp1f2, _hyp1f2_jet),
}
