"""Expression AST for potentials and volatilities.

Nodes are immutable; trees are freely shareable.  Variables are the fixed set
``x, y, t, r_polar, theta, S``; any other bare identifier is a named
parameter; an identifier applied to one argument is either a known analytic
function (exp, ln, sin, cos, sqrt, arctan) or an opaque one-argument function
symbol bound at evaluation time.

Evaluation is transparent to :class:`liesolve.hyperdual.Dual2` inputs, which
is how expression-backed fields get exact derivatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import hyperdual as hd
from ..errors import EvalDomainError, UnboundSymbol

VARIABLES = ("x", "y", "t", "r_polar", "theta", "S")
FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt", "arctan")

_FUNC_IMPL = {
    "exp": hd.exp,
    "ln": hd.log,
    "sin": hd.sin,
    "cos": hd.cos,
    "sqrt": hd.sqrt,
    "arctan": hd.atan,
}


class Expr:
    __slots__ = ()

    def __add__(self, o):
        return Bin("+", self, _as_expr(o))

    def __sub__(self, o):
        return Bin("-", self, _as_expr(o))

    def __mul__(self, o):
        return Bin("*", self, _as_expr(o))

    def __truediv__(self, o):
        return Bin("/", self, _as_expr(o))


def _as_expr(v):
    if isinstance(v, Expr):
        return v
    return Num(float(v))


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Param(Expr):
    name: str


@dataclass(frozen=True)
class Bin(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr
    prime: int = 0  # derivative order for opaque symbols (C, C', C'', ...)

    @property
    def opaque(self):
        return self.fn not in FUNCTIONS


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------

# unary minus sits strictly between the multiplicative ops and ^, so a
# negated product prints with parentheses and re-parses to the same tree
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2.5, "^": 3, "atom": 4}


def _prec(e):
    if isinstance(e, Bin):
        return _PREC[e.op]
    if isinstance(e, Neg):
        return _PREC["neg"]
    if isinstance(e, Num) and e.value < 0:
        return _PREC["neg"]
    return _PREC["atom"]


def _fmt_num(v):
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def pprint(e):
    """Canonical print; print(parse(print(e))) is a fixed point."""
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, (Var, Param)):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}{'_prime' * e.prime}({pprint(e.arg)})"
    if isinstance(e, Neg):
        inner = pprint(e.operand)
        if _prec(e.operand) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(e, Bin):
        lp, rp = _prec(e.left), _prec(e.right)
        ls = pprint(e.left)
        rs = pprint(e.right)
        if lp < _PREC[e.op]:
            ls = f"({ls})"
        # left-associative: equal precedence on the right needs parens
        if rp < _PREC[e.op] or (rp == _PREC[e.op]) or (
            e.op in ("*", "/", "^") and _prec(e.right) == _PREC["neg"]
        ):
            rs = f"({rs})"
        if e.op in ("+", "-"):
            return f"{ls} {e.op} {rs}"
        return f"{ls}{e.op}{rs}"
    raise TypeError(f"not an Expr: {e!r}")


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _finite(v):
    x = hd.value(v)
    if isinstance(x, complex):
        return math.isfinite(x.real) and math.isfinite(x.imag)
    return math.isfinite(x)


class _OpaqueWrapper:
    """Evaluates an opaque symbol and its derivative orders.

    The binding may be a bare callable or a tuple of callables
    (f, f', f'', ...).  Missing derivative orders fall back to the standard
    five-point stencils on the outermost provided order.
    """

    def __init__(self, name, binding):
        self.name = name
        if callable(binding):
            self.fns = (binding,)
        else:
            self.fns = tuple(binding)
            if not all(callable(f) for f in self.fns):
                raise EvalDomainError(f"opaque binding for {name} must be callable(s)")

    def call(self, prime, z):
        from .. import numdiff

        if prime < len(self.fns):
            f = self.fns[prime]
        else:
            base = self.fns[-1]
            k = prime - (len(self.fns) - 1)
            if k == 1:
                f = lambda v: numdiff.d1(base, v, 1e-5)
            elif k == 2:
                f = lambda v: numdiff.d2(base, v, 1e-5)
            else:
                raise EvalDomainError(
                    f"opaque symbol {self.name} needs derivative order {prime}, "
                    f"only {len(self.fns) - 1} provided"
                )
        if isinstance(z, hd.Dual2):
            # chain through the dual parts with the next two orders
            f0 = self.call(prime, z.a)
            f1 = self.call(prime + 1, z.a)
            f2 = self.call(prime + 2, z.a)
            return hd.Dual2(
                f0, z.b * f1, z.c * f1, z.d * f1 + z.b * z.c * f2
            )
        return f(z)


# polar variables derived from bound x, y (r_polar as sqrt(x^2 + y^2), not libm hypot)
_POLAR = {"r_polar": lambda x, y: hd.sqrt(x * x + y * y), "theta": lambda x, y: hd.atan2(y, x)}


def evaluate(e, point=None, params=None, opaque=None):
    """Evaluate an expression.

    ``point`` binds variables, ``params`` named parameters, ``opaque`` opaque
    function symbols.  ``r_polar`` and ``theta`` are derived from bound x, y
    when not bound themselves, the first time the expression reads them.
    Never returns NaN: domain problems raise :class:`EvalDomainError`.
    """
    point = dict(point or {})
    params = params or {}
    opaque = {k: _OpaqueWrapper(k, v) for k, v in (opaque or {}).items()}

    def ev(n):
        if isinstance(n, Num):
            return n.value
        if isinstance(n, Var):
            if n.name not in point:
                if n.name not in _POLAR or "x" not in point or "y" not in point:
                    raise UnboundSymbol(f"variable {n.name} not bound")
                point[n.name] = _POLAR[n.name](point["x"], point["y"])
            return point[n.name]
        if isinstance(n, Param):
            if n.name not in params:
                raise UnboundSymbol(f"parameter {n.name} not bound")
            return params[n.name]
        if isinstance(n, Neg):
            return -ev(n.operand)
        if isinstance(n, Call):
            z = ev(n.arg)
            if not n.opaque:
                zv = hd.value(z)
                if n.fn == "ln" and zv <= 0:
                    raise EvalDomainError(f"ln of non-positive value {zv}")
                if n.fn == "sqrt" and zv < 0:
                    raise EvalDomainError(f"sqrt of negative value {zv}")
                return _FUNC_IMPL[n.fn](z)
            if n.fn not in opaque:
                raise UnboundSymbol(f"opaque function {n.fn} not bound")
            return opaque[n.fn].call(n.prime, z)
        if isinstance(n, Bin):
            a = ev(n.left)
            b = ev(n.right)
            if n.op == "+":
                return a + b
            if n.op == "-":
                return a - b
            if n.op == "*":
                return a * b
            if n.op == "/":
                if hd.value(b) == 0:
                    raise EvalDomainError("division by zero")
                return a / b
            if n.op == "^":
                av, bv = hd.value(a), hd.value(b)
                if av == 0 and bv < 0:
                    raise EvalDomainError("zero raised to a negative power")
                if av < 0 and bv != int(bv):
                    raise EvalDomainError("negative base with non-integer exponent")
                if isinstance(b, hd.Dual2):
                    return a**b
                return a ** (int(bv) if bv == int(bv) and av < 0 else bv)
        raise TypeError(f"not an Expr: {n!r}")

    out = ev(e)
    if not _finite(out):
        raise EvalDomainError("evaluation produced a non-finite value")
    return out


def free_parameters(e):
    out = set()

    def walk(n):
        if isinstance(n, Param):
            out.add(n.name)
        elif isinstance(n, Bin):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, Neg):
            walk(n.operand)
        elif isinstance(n, Call):
            walk(n.arg)

    walk(e)
    return out


def opaque_symbols(e):
    out = set()

    def walk(n):
        if isinstance(n, Call):
            if n.opaque:
                out.add(n.fn)
            walk(n.arg)
        elif isinstance(n, Bin):
            walk(n.left)
            walk(n.right)
        elif isinstance(n, Neg):
            walk(n.operand)

    walk(e)
    return out
