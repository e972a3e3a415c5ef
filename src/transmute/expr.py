"""Parsing, evaluation, and second-order jets for the coefficient DSL.

Infix and case sensitive; binding from loosest to tightest, ``+ -`` <
``* /`` < unary minus < ``^``, with ``^`` right-associative and taking a
signed factor (so "-x^2" is -(x^2), "2^-x" is 2^(-x), "x^y^z" is
x^(y^z)), the others left-associative.  Atoms are numbers, identifiers,
calls ``f(expr, ...)`` and ``(expr)``.  ``pi`` is a reserved constant.  Any
other identifier that is not a registered function resolves through the
binding map at evaluation time; by convention "x" and "t" are the kernel
variables and everything else is a case parameter.  ``parse`` refuses a
tree more than MAX_DEPTH = 100 levels deep, or brackets nested deeper,
with a ParseError at the offset where the limit is passed: every tree it
returns evaluates and prints within Python's recursion limit.

Expression nodes are immutable records: parsing never aliases mutable
state into the tree, and evaluation never mutates it, so one parsed
expression can be shared between threads and across parameter sweeps.
A node records its depth, and one built in code deeper than 2 * MAX_DEPTH
is an ExpressionError when it is evaluated, before any recursion.
``parse`` shares the trees of the last 1024 texts (a ParseError is raised
anew each time), and a tree finds its free symbols once.

Each tree compiles once into closures, kept on its nodes and shared by
floats, numpy arrays and second-order jets (:class:`Jet2`, of floats or of
arrays), whose five components leave out the mixed partial no check reads.
``evaluate`` binds numbers to any name and arrays to x and t only;
``evaluate_jet`` binds x and t to jet seeds, floats or arrays.
Jets and arrays spread only from the names bound to them, so a subtree
that depends on parameters alone stays a float and calls the plain value
of each function.  A jet's value is therefore exactly the float result.
Only the last argument of a function may depend on x or t in a jet.  An
array call has a fixed cost, mostly finiteness checks, numpy's error
state and one fresh block for the output components (6-7 us for ``x``
at 20 points on a 2-core x86-64 Xeon host, 15-16 us as a jet).

Each entry of an array is the float value bit for bit: arithmetic is IEEE
for both, each elementary function and the real power exp(v*log(u)) is
numpy's ufunc for both (a float result is turned back into a float), the
Bessel functions, gegenbauer and hyp1f2 run their one body over the whole
array, and gamma runs per entry.  x and t are bound as contiguous arrays,
copied if need be: numpy takes another inner loop for a reversed or
strided array.  numpy does not promise that a float and a contiguous
array share an inner loop; this was verified with numpy 2.4.6 on an x86-64
host, and the tests assert it exactly.

Powers with a literal integer exponent are evaluated by repeated
multiplication (valid for negative bases, exact for jets); any other
exponent goes through exp(v*log(u)) and requires a positive base (a
constant zero base stays zero under a positive power).  An exponent that
varies over an array takes this rule on each entry of the operands the
walk computed, in a jet's value too, so no node is evaluated twice and a
tree costs time linear in its nodes times its points.  Three literal
shapes compile to fewer steps over the same operations, so to the same
bits: u^2 is u * u, the product repeated multiplication forms;
a divisor literal other than 0 and -0.0 skips a zero test that cannot fire;
a call with literal leading arguments hands a float last one straight on.
Domain violations raise :class:`~transmute.errors.DomainError` naming
the offending subexpression (and, for arrays, the first failing point)
instead of letting NaN propagate; a non-finite result or jet component is
a DomainError too, and so is a bound value that ``errors.finite_number``
or, for an array, ``errors.real_numbers`` refuses.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Callable, Mapping

import numpy as np

from . import specfun
from .errors import DomainError, ExpressionError, ParseError, SpecFunError, UnboundSymbolError
from .errors import finite_number, real_numbers

__all__ = [
    "MAX_DEPTH",
    "Record",
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


class Record:
    """Immutable attributes ``_fields``, written into ``__dict__`` by
    ``__init__``: equal and hashed by value, printed as the constructor
    call.  Unlike a dataclass's, these methods are compiled and cached with
    the module, not generated by ``exec`` at every import."""

    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__


class Expr(Record):
    """Base class for expression nodes.  ``_depth`` counts the nodes on the
    longest path to a leaf, a child that is not a node counting 0."""

    _depth = 1  # a leaf's

    def __str__(self) -> str:
        return to_string(self)

    @cached_property  # compiled once per node: a tree is evaluated at many points
    def _run(self) -> Callable:
        return _compile(self)

    def __getstate__(self):  # a closure does not pickle; it is compiled again on first use
        return {k: v for k, v in vars(self).items() if k != "_run"}

    @cached_property  # found once per tree: cases and problems check every expression
    def _symbols(self) -> frozenset[str]:
        out: set[str] = set()
        stack = [self]
        while stack:
            node = stack.pop()
            kind = type(node)
            if kind is Name:
                out.add(node.ident)
            elif kind is Neg:
                stack.append(node.arg)
            elif kind is BinOp:
                stack += (node.left, node.right)
            elif kind is Call:
                stack += node.args
        return frozenset(out)


class Num(Expr):
    _fields = ("value",)

    def __init__(self, value: float):
        self.__dict__["value"] = value


class Name(Expr):
    _fields = ("ident",)

    def __init__(self, ident: str):
        self.__dict__["ident"] = ident


class Neg(Expr):
    _fields = ("arg",)

    def __init__(self, arg: Expr):
        self.__dict__.update(arg=arg, _depth=1 + getattr(arg, "_depth", 0))


class BinOp(Expr):
    _fields = ("op", "left", "right")  # op is one of + - * / ^

    def __init__(self, op: str, left: Expr, right: Expr):
        if op not in _BINDS:
            raise ValueError(f"unknown binary operator {op!r}: expected one of {' '.join(_BINDS)}")
        depth = 1 + max(getattr(left, "_depth", 0), getattr(right, "_depth", 0))
        self.__dict__.update(op=op, left=left, right=right, _depth=depth)


class Call(Expr):
    _fields = ("name", "args")

    def __init__(self, name: str, args: tuple[Expr, ...]):
        depth = 1 + max([getattr(a, "_depth", 0) for a in args], default=0)
        self.__dict__.update(name=name, args=args, _depth=depth)


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


# how tightly each binary operator binds, for the parser and the printer; unary
# minus binds at _NEG, between * and ^, and ^ reads its exponent at _NEG too: a
# signed factor, so 2^-x parses and x^y^z is x^(y^z)
_BINDS = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG = 3

MAX_DEPTH = 100


def _too_deep(what: str, pos: int) -> ParseError:
    return ParseError(f"{what} nested deeper than {MAX_DEPTH} levels", pos)


class _Parser:
    """Precedence climbing (Pratt, POPL 1973) over ``_BINDS``.  ``expr``
    refuses a tree deeper than MAX_DEPTH, and ``bracketed`` brackets nested
    deeper, before recursing further; a node's ``_depth`` is what counts."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0
        self.brackets = 0  # open around the current token

    def expect(self, kind: str, expected: str):
        tok = self.tokens[self.i]
        if tok[0] != kind:
            got = repr(tok[1]) if tok[0] != "end" else "end of input"
            raise ParseError(f"unexpected {got}", tok[2], expected=expected)
        self.i += 1

    def parse(self) -> Expr:
        node = self.expr(1, 0)
        kind, text, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError(
                f"trailing input {text!r}", pos, expected="operator or end"
            )
        return node

    def expr(self, floor: int, above: int) -> Expr:
        """The longest expression from here whose binary operators bind at
        ``floor`` or tighter; ``above`` nodes will hold it."""
        kind, _, pos = self.tokens[self.i]
        if above >= MAX_DEPTH:
            raise _too_deep("expression", pos)
        if kind == "-":
            self.i += 1
            node = Neg(self.expr(_NEG, above + 1))
        else:
            node = self.atom(above)
        while (bind := _BINDS.get(self.tokens[self.i][0], 0)) >= floor:
            op, _, pos = self.tokens[self.i]
            self.i += 1
            node = BinOp(op, node, self.expr(_NEG if op == "^" else bind + 1, above + 1))
            if above + node._depth > MAX_DEPTH:
                raise _too_deep("expression", pos)
        return node

    def bracketed(self, above: int, many: bool) -> tuple[Expr, ...]:
        """The expressions, comma-separated if ``many``, in the brackets
        that open here."""
        self.brackets += 1
        if self.brackets > MAX_DEPTH:
            raise _too_deep("brackets", self.tokens[self.i][2])
        self.i += 1
        items = [self.expr(1, above)]
        while many and self.tokens[self.i][0] == ",":
            self.i += 1
            items.append(self.expr(1, above))
        self.expect(")", "')'")
        self.brackets -= 1
        return tuple(items)

    def atom(self, above: int) -> Expr:
        kind, text, pos = self.tokens[self.i]
        if kind == "number":
            self.i += 1
            value = float(text)
            if math.isinf(value):
                raise ParseError(f"number {text!r} overflows a double", pos)
            return Num(value)
        if kind == "ident":
            self.i += 1
            if self.tokens[self.i][0] == "(":
                if text not in FUNCTIONS:
                    raise ParseError(f"unknown function {text!r}", pos)
                args = self.bracketed(above + 1, many=True)
                spec = FUNCTIONS[text]
                if len(args) != spec.arity:
                    raise ParseError(
                        f"{text} takes {spec.arity} argument(s), got {len(args)}", pos
                    )
                return Call(text, args)
            return Num(math.pi) if text == "pi" else Name(text)
        if kind == "(":
            (node,) = self.bracketed(above, many=False)
            return node
        got = repr(text) if kind != "end" else "end of input"
        raise ParseError(
            f"unexpected {got}", pos, expected="number, identifier, or '('"
        )


@lru_cache(maxsize=1024)
def parse(text: str) -> Expr:
    """Parse the DSL into an immutable tree, shared by calls with the same text."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _prec(node: Expr) -> int:
    """How tightly ``node`` binds as an operand; an atom binds tightest."""
    if isinstance(node, BinOp):
        return _BINDS[node.op]
    return _NEG if isinstance(node, Neg) else 5


def _operand(node: Expr, floor: int) -> str:
    text = to_string(node)
    return f"({text})" if _prec(node) < floor else text


def to_string(node: Expr) -> str:
    """Canonical infix form; parse(to_string(e)) reproduces the same tree.

    An operand is bracketed where the parser, reading its slot, would stop
    before it, and a minus sign is bracketed under ^ or another minus too,
    so that signs never stack: x^(-y) and -(-x).
    """
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
        return "-" + _operand(node.arg, _NEG + 1)
    if isinstance(node, BinOp):
        bind = _BINDS[node.op]
        power = node.op == "^"  # right-associative: the base binds tighter
        return _operand(node.left, bind + power) + node.op + _operand(node.right, bind + (not power))
    raise TypeError(f"not an expression node: {node!r}")


def free_symbols(node: Expr) -> frozenset[str]:
    """All identifiers the expression will look up in the binding map."""
    return node._symbols


# ---------------------------------------------------------------------------
# second-order jets
# ---------------------------------------------------------------------------


class Jet2(Record):
    """Value, first partials and pure second partials in (x, t).

    BT = TA sets A, acting in t, against B, acting in x, so no existence
    condition or eigen relation reads the mixed partial, and it is not
    carried.  The components are floats, or numpy arrays of one shape for
    a jet at many points.  A plain float on either side of an operator acts
    as a constant.  The value of a quotient is the float quotient of the
    values, so a jet's value is bit for bit what float evaluation gives.
    """

    _fields = ("value", "dx", "dt", "dxx", "dtt")

    def __init__(self, value: float, dx: float = 0.0, dt: float = 0.0, dxx: float = 0.0, dtt: float = 0.0):
        self.__dict__.update(value=value, dx=dx, dt=dt, dxx=dxx, dtt=dtt)

    # numpy operands defer to Jet2's operators instead of building object arrays
    __array_ufunc__ = None

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.dx, -self.dt, -self.dxx, -self.dtt)

    def __add__(self, other) -> "Jet2":
        if type(other) is not Jet2:
            return Jet2(self.value + other, self.dx, self.dt, self.dxx, self.dtt)
        return Jet2(
            self.value + other.value,
            self.dx + other.dx,
            self.dt + other.dt,
            self.dxx + other.dxx,
            self.dtt + other.dtt,
        )

    __radd__ = __add__

    # u - v is u + (-v) exactly in IEEE arithmetic
    def __sub__(self, other) -> "Jet2":
        return self + (-other)

    def __rsub__(self, other) -> "Jet2":
        return -self + other

    def __mul__(self, other) -> "Jet2":
        a = self
        if type(other) is not Jet2:
            c = other
            return Jet2(a.value * c, a.dx * c, a.dt * c, a.dxx * c, a.dtt * c)
        b = other
        return Jet2(
            a.value * b.value,
            a.dx * b.value + a.value * b.dx,
            a.dt * b.value + a.value * b.dt,
            a.dxx * b.value + 2.0 * a.dx * b.dx + a.value * b.dxx,
            a.dtt * b.value + 2.0 * a.dt * b.dt + a.value * b.dtt,
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet2":
        """Quotient rule; a zero divisor raises ZeroDivisionError, as for floats."""
        u = self
        if type(other) is not Jet2:
            c = other
            return Jet2(u.value / c, u.dx / c, u.dt / c, u.dxx / c, u.dtt / c)
        w = other
        v = w.value
        q = u.value / v
        qx = (u.dx - q * w.dx) / v
        qt = (u.dt - q * w.dt) / v
        return Jet2(
            q,
            qx,
            qt,
            (u.dxx - 2.0 * qx * w.dx - q * w.dxx) / v,
            (u.dtt - 2.0 * qt * w.dt - q * w.dtt) / v,
        )

    def __rtruediv__(self, other) -> "Jet2":
        return Jet2(other) / self

    def chain(self, f: float, d1: float, d2: float) -> "Jet2":
        """Compose an outer scalar function given f(u), f'(u), f''(u)."""
        u = self
        return Jet2(
            f,
            d1 * u.dx,
            d1 * u.dt,
            d2 * u.dx * u.dx + d1 * u.dxx,
            d2 * u.dt * u.dt + d1 * u.dtt,
        )


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _as_int_exponent(v: float) -> int | None:
    # the range test comes first: math.floor raises on inf and NaN
    if abs(v) <= 1024 and v == math.floor(v):
        return int(v)
    return None


def _int_pow(u, n: int):
    """Binary exponentiation of a positive power; floats, jets and arrays alike."""
    acc = u if n & 1 else None
    while n > 1:
        n >>= 1
        u = u * u
        if n & 1:
            acc = u if acc is None else acc * u
    return acc


# a module global: a name lookup instead of an attribute lookup per node
_ndarray = np.ndarray


def _where(env, bad) -> str:
    """' at x=..., t=...': the first point where the mask ``bad`` holds, given by x and t where
    ``env`` binds them to arrays or jets of arrays, the 0-d ones only if neither varies."""
    arrays = {k: a for k in ("x", "t") if type(a := getattr(env.get(k), "value", env.get(k))) is _ndarray}
    arrays = {k: a for k, a in arrays.items() if a.ndim} or arrays
    if not arrays:
        return ""
    shape = np.broadcast_shapes(*(v.shape for v in arrays.values()))
    k = int(np.argmax(np.broadcast_to(bad, shape)))
    at = ", ".join(f"{n}={float(np.broadcast_to(v, shape).flat[k])!r}" for n, v in arrays.items())
    return f" at {at}"


def _require(node, env, bad, what):
    """Raise DomainError naming ``node`` and the first point where ``bad`` holds."""
    if bad if type(bad) is bool else bad.any():
        raise DomainError(f"{what} in {to_string(node)}{_where(env, bad)}")


def _entrywise(env, f, args):
    """The scalar rule ``f`` over the broadcast entries of ``args``.

    Entries go in as Python floats, so each value is the one a scalar
    evaluation gives; an error gains the point where it happened.  A rule that
    returns a (f, f', f'') triple gives an array with a last axis of 3.
    """
    shape = np.broadcast_shapes(*(np.shape(a) for a in args))
    cols = [
        np.broadcast_to(a, shape).ravel().tolist() if type(a) is _ndarray else repeat(a)
        for a in args
    ]
    out = []
    for k, point in enumerate(zip(*cols)):
        try:
            out.append(f(*point))
        except (DomainError, SpecFunError) as exc:
            bad = np.zeros(shape, bool)
            bad.flat[k] = True
            raise type(exc)(f"{exc}{_where(env, bad)}") from None
    out = np.array(out, dtype=float)
    return out.reshape(shape + out.shape[1:])


_CALL_ERRORS = (ValueError, ArithmeticError, DomainError, SpecFunError)


def _in_call(node, exc):
    """The error to raise for ``exc`` from the function of ``node``: a
    special-function error keeps its type, anything else is a DomainError."""
    kind = type(exc) if isinstance(exc, SpecFunError) else DomainError
    return kind(f"{exc} in {to_string(node)}")


def _power(node, env, u, v):
    """u^v for floats, jets and arrays alike, by the rules in the module docstring."""
    if type(v) is _ndarray:
        # an exponent that varies: this rule on each entry of the computed operands,
        # each the float a point walk gives, so no node is evaluated twice
        return _entrywise(env, lambda a, b: _power(node, {}, a, b), (u, v))
    u0 = u.value if type(u) is Jet2 else u
    v0 = v.value if type(v) is Jet2 else v
    n = None if type(v) is Jet2 else _as_int_exponent(v)
    if n is not None:
        if n == 0:
            return 1.0
        r = _int_pow(u, abs(n))
        if n > 0:
            return r
        _require(node, env, u0 == 0.0, "zero base with negative exponent")
        _require(node, env, (r.value if type(r) is Jet2 else r) == 0.0, "division by zero")
        return 1.0 / r
    if type(v0) is not _ndarray and not math.isfinite(v0):
        raise DomainError(f"non-finite exponent in {to_string(node)}")
    _require(node, env, (u0 < 0.0) | ((u0 == 0.0) & ((v0 <= 0.0) | (type(u) is Jet2))),
             "non-integer power needs a positive base")
    if type(u) is float and u == 0.0:
        return 0.0
    if type(v) is Jet2:
        f = _power(node, env, u0, v0)  # evaluate's value: this rule on the values
        log_u = _ufunc(np.log, u0)
        if type(u) is Jet2:
            log_u = u.chain(log_u, 1.0 / u0, -1.0 / (u0 * u0))
        return (v * log_u).chain(f, f, f)
    # exp(v * -inf) = 0 at a zero base of an array
    f = _ufunc(np.exp, v * _ufunc(np.log, u0))
    _require(node, env, f == math.inf, "overflow")
    if type(u) is Jet2:
        return u.chain(f, v * f / u0, v * (v - 1.0) * f / (u0 * u0))
    return f


def _divide(node, env, u, v):
    _require(node, env, (v.value if type(v) is Jet2 else v) == 0.0, "division by zero")
    return u / v


def _array_call(node, env, spec, args, z):
    """A function with an array, or a jet of arrays, among its arguments;
    ``z`` is the last one."""
    jet = type(z) is Jet2
    u = z.value if jet else z
    rule = spec.jet if jet else spec.value

    def one(*a):
        try:
            return rule(*a)
        except _CALL_ERRORS as exc:
            raise _in_call(node, exc) from None

    if spec.value is specfun.gamma or any(type(a) is _ndarray for a in args):
        # gamma has no array rule, and no rule takes an array parameter:
        # the scalar rule per entry
        out = _entrywise(env, one, (*args, u))
        out = np.moveaxis(out, -1, 0) if jet else out
    else:
        try:
            out = rule(*args, u)
        except _CALL_ERRORS as exc:
            _entrywise(env, one, (*args, u))  # names the first failing point
            raise _in_call(node, exc) from None
    finite = np.isfinite(out[0]) & np.isfinite(out[1]) & np.isfinite(out[2]) if jet else np.isfinite(out)
    if not finite.all():
        _require(node, env, np.isfinite(u) & ~finite, "no finite value")
    return z.chain(*out) if jet else out


def _compiled(node):
    """The closure of ``node``, compiled on first use and kept on the node."""
    if type(node) not in (Num, Name, Neg, BinOp, Call):
        raise TypeError(f"not an expression node: {node!r}")
    return node._run


def _compile(node: Expr) -> Callable:
    """The closure ``run(env)`` of ``node``; ``env`` maps names to numbers,
    to Jet2 seeds (of floats or of arrays) or to numpy arrays.  The node's
    kind, operator, function, a literal positive integer exponent and
    leading function arguments that are all numbers are read here, once."""
    if node._depth > 2 * MAX_DEPTH:  # built in code: parse refuses a tree deeper than MAX_DEPTH
        raise ExpressionError(f"expression nested deeper than {2 * MAX_DEPTH} levels")
    kind = type(node)
    if kind is Num:
        value = node.value
        return lambda env: value
    if kind is Name:
        ident = node.ident
        variable = ident in ("x", "t")  # the names arrays and jets may be bound to

        def name(env):
            try:
                v = env[ident]
            except KeyError:
                raise UnboundSymbolError(ident) from None
            if type(v) is not float or v - v != 0.0:
                if variable and (type(v) is Jet2 or type(v) is _ndarray):
                    return v
                v = finite_number(v, f"value bound to {ident}", DomainError)
            return v
        return name
    if kind is Neg:
        arg = _compiled(node.arg)
        return lambda env: -arg(env)
    if kind is BinOp:
        op = node.op
        left = _compiled(node.left)
        literal = node.right.value if type(node.right) is Num else 0.0  # 0.0: no shortcut
        if op == "^" and (n := _as_int_exponent(literal) or 0) > 0:
            return (lambda env: (u := left(env)) * u) if n == 2 else lambda env: _int_pow(left(env), n)
        if op == "/" and literal:  # not 0 or -0.0: _divide's zero test cannot fire
            return lambda env: left(env) / literal
        right = _compiled(node.right)
        if op == "+":
            return lambda env: left(env) + right(env)
        if op == "-":
            return lambda env: left(env) - right(env)
        if op == "*":
            return lambda env: left(env) * right(env)
        apply = _divide if op == "/" else _power

        def binop(env):
            u = left(env)
            v = right(env)
            try:
                return apply(node, env, u, v)
            except ZeroDivisionError:  # a jet rule's divisor, such as u^2, underflowing to 0
                raise DomainError(f"division by zero in {to_string(node)}") from None
        return binop
    spec = FUNCTIONS[node.name]  # a Call
    *first, last = map(_compiled, node.args)
    consts = [a.value for a in node.args[:-1]] if all(type(a) is Num for a in node.args[:-1]) else None

    def call(env):
        args = [a(env) for a in first] if consts is None else consts
        z = last(env)
        if type(z) is not float or consts is None:  # constants and a float: nothing to check
            z0 = z.value if type(z) is Jet2 else z
            array = type(z0) is _ndarray
            for a in args:
                if type(a) is Jet2:
                    raise DomainError(
                        f"only the last argument of {node.name} may depend on x or t:"
                        f" {to_string(node)}"
                    )
                array = array or type(a) is _ndarray
            if array:
                return _array_call(node, env, spec, args, z)
        try:
            if type(z) is Jet2:
                return z.chain(*spec.jet(*args, z0))
            return spec.value(*args, z)
        except _CALL_ERRORS as exc:
            raise _in_call(node, exc) from None
    return call


def evaluate(node: Expr, bindings: Mapping[str, object]):
    """Evaluate to a float, or to an array when x or t is bound to one.

    Arrays bound to x and t broadcast together and the result has their
    shape.  Raises DomainError instead of returning NaN or inf; for arrays
    the message names the first failing point.
    """
    try:
        array = type(bindings.get("x")) is _ndarray or type(bindings.get("t")) is _ndarray
    except AttributeError:
        raise DomainError(f"bindings must be a mapping of names to numbers, got {bindings!r}") from None
    if array:
        return _evaluate_array(node, bindings)
    out = _compiled(node)(bindings)
    if out - out != 0.0:
        raise DomainError(f"non-finite result {out} in {to_string(node)}")
    return out


def _evaluate_array(node, bindings, jet=False):
    """``evaluate`` over the arrays bound to x and t; with ``jet`` they
    are seeded as jets and the result is a Jet2 of fresh arrays."""
    env = dict(bindings)
    for k in ("x", "t"):
        if jet or type(env.get(k)) is _ndarray:
            # contiguous, copied if need be: numpy takes another inner loop for a
            # reversed or strided array, whose last bits may differ from a float's
            a = env[k] = real_numbers(env[k], f"values bound to {k}", DomainError)
            if not np.isfinite(a).all():
                raise DomainError(f"non-finite value bound to {k}{_where(env, ~np.isfinite(a))}")
    shapes = {v.shape for v in (env.get("x"), env.get("t")) if type(v) is _ndarray}
    shape = shapes.pop() if len(shapes) == 1 else np.broadcast_shapes(*shapes)
    if jet:
        env["x"] = Jet2(env["x"], dx=1.0)
        env["t"] = Jet2(env["t"], dt=1.0)
    # every failure is raised by name below; keep numpy from warning first
    with np.errstate(all="ignore"):
        out = _compiled(node)(env)
    # the components are the rows of one block, so one reduction checks them all;
    # a constant's jet has zero derivatives
    block = np.zeros((5 if jet else 1,) + shape)
    for k, part in enumerate(vars(out).values() if type(out) is Jet2 else (out,)):
        block[k] = part
    finite = np.isfinite(block)
    if not finite.all():
        _require(node, env, ~finite.all(axis=0), "non-finite result")
    # block[k, ...] is an array at a 0-d shape too, where block[k] is a scalar
    return Jet2(*(block[k, ...] for k in range(5))) if jet else block.reshape(shape)


def evaluate_jet(node: Expr, x, t, params: Mapping[str, float]) -> Jet2:
    """Evaluate with first and second partials in x and t carried along.

    With numpy arrays for x or t (broadcast together) every component of
    the jet is an array of their shape, one jet per point.  A component
    that is not finite is a DomainError naming the first such point.
    """
    try:
        env = {**params, "x": x, "t": t}
    except TypeError:
        raise DomainError(f"params must be a mapping of names to numbers, got {params!r}") from None
    if type(x) is _ndarray or type(t) is _ndarray:
        return _evaluate_array(node, env, jet=True)
    x, t = (finite_number(v, f"value bound to {k}", DomainError) for k, v in (("x", x), ("t", t)))
    env["x"], env["t"] = Jet2(x, dx=1.0), Jet2(t, dt=1.0)
    out = _compiled(node)(env)
    if type(out) is not Jet2:
        out = Jet2(out)
    for part in vars(out).values():
        if part - part != 0.0:
            raise DomainError(f"non-finite result {part} in {to_string(node)} at x={x!r}, t={t!r}")
    return out


# ---------------------------------------------------------------------------
# function registry
# ---------------------------------------------------------------------------


class _Fn(Record):
    _fields = ("arity", "value", "jet")

    # ``value``: every function but gamma also takes an array last argument;
    # ``jet``: (f, f', f'') with respect to the last argument, the others floats
    def __init__(self, arity: int, value: Callable[..., float], jet: Callable[..., tuple[float, float, float]]):
        self.__dict__.update(arity=arity, value=value, jet=jet)


def _ufunc(f, u):
    """numpy's ufunc ``f`` at u: the one implementation of an elementary
    function, so each entry of an array is the float value bit for bit.  An
    array runs under its caller's error state (``_evaluate_array``'s); a
    float gives a float, with numpy's warnings off."""
    if type(u) is _ndarray:
        return f(u)
    with np.errstate(all="ignore"):
        return float(f(u))


def _elementary(f):
    """The DSL function of the ufunc ``f``; a float result that is not
    finite is a DomainError, as an array's is in ``_array_call``."""
    def value(u):
        r = _ufunc(f, u)
        if type(r) is float and r - r != 0.0:
            raise DomainError(f"no finite value of {f.__name__}({u!r})")
        return r
    return value


_sin, _cos, _sinh, _cosh, _exp, _log, _sqrt = map(
    _elementary, (np.sin, np.cos, np.sinh, np.cosh, np.exp, np.log, np.sqrt))

# Each jet rule gives (f, f', f'').  A singular derivative is a
# ZeroDivisionError for floats and a non-finite entry for arrays; both end
# as a DomainError naming the call.
FUNCTIONS: dict[str, _Fn] = {
    "sin": _Fn(1, _sin, lambda u: ((s := _sin(u)), _cos(u), -s)),
    "cos": _Fn(1, _cos, lambda u: ((c := _cos(u)), -_sin(u), -c)),
    "sinh": _Fn(1, _sinh, lambda u: ((s := _sinh(u)), _cosh(u), s)),
    "cosh": _Fn(1, _cosh, lambda u: ((c := _cosh(u)), _sinh(u), c)),
    "exp": _Fn(1, _exp, lambda u: ((e := _exp(u)), e, e)),
    "log": _Fn(1, _log, lambda u: (_log(u), 1.0 / u, -1.0 / (u * u))),
    "sqrt": _Fn(1, _sqrt, lambda u: ((r := _sqrt(u)), 0.5 / r, -0.25 / (u * r))),
    "abs": _Fn(1, abs, lambda u: (abs(u), u / abs(u), 0.0)),
    "gamma": _Fn(1, specfun.gamma, specfun.gamma_jets),
    "besselj": _Fn(2, specfun.bessel_j, specfun.bessel_j_jets),
    "besseli": _Fn(2, specfun.bessel_i, specfun.bessel_i_jets),
    "bessel_clifford": _Fn(2, specfun.bessel_clifford, specfun.bessel_clifford_jets),
    "gegenbauer": _Fn(3, specfun.gegenbauer, specfun.gegenbauer_jets),
    "hyp1f2": _Fn(4, specfun.hyp1f2, specfun.hyp1f2_jets),
}
