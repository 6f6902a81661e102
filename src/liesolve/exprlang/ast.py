"""Expression AST for potentials and volatilities.

Nodes are immutable; trees are freely shareable.  Variables are the fixed set
``x, y, t, r_polar, theta, S``; any other bare identifier is a named
parameter; an identifier applied to one argument is either a known analytic
function (exp, ln, sin, cos, sqrt, arctan) or an opaque one-argument function
symbol bound at evaluation time.

:func:`compile_expr` turns an expression into a tree of closures once;
:func:`evaluate` compiles and calls it.  The callable is transparent to
:class:`liesolve.hyperdual.Dual2` inputs, which is how expression-backed
fields get exact derivatives, and takes lanes, each lane bitwise the call at
its point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .. import hyperdual as hd
from ..errors import EvalDomainError, UnboundSymbol

VARIABLES = ("x", "y", "t", "r_polar", "theta", "S")
FUNCTIONS = ("exp", "ln", "sin", "cos", "sqrt", "arctan")


class Expr:
    __slots__ = ()


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
# evaluation: an expression compiled once into a tree of closures
# ---------------------------------------------------------------------------


def _any(holds):
    """Whether a comparison holds: at the one value, or at any lane."""
    return holds.any() if isinstance(holds, np.ndarray) else holds


def _finite(v):
    x = hd.value(v)
    if isinstance(x, np.ndarray):
        return bool(np.isfinite(x).all())
    if isinstance(x, complex):
        return math.isfinite(x.real) and math.isfinite(x.imag)
    return math.isfinite(x)


def _ln(z):
    zv = hd.value(z)
    if _any(zv <= 0):
        raise EvalDomainError(f"ln of non-positive value {zv}")
    return hd.log(z)


def _sqrt(z):
    zv = hd.value(z)
    if _any(zv < 0):
        raise EvalDomainError(f"sqrt of negative value {zv}")
    return hd.sqrt(z)


def _no_overflow(name, fn):
    """``fn``, with an overflow an :class:`EvalDomainError` naming ``name``."""

    def checked(*args):
        try:
            return fn(*args)
        except OverflowError as exc:
            raise EvalDomainError(f"{name} overflowed ({exc})") from exc

    return checked


_FUNC_IMPL = {
    "exp": _no_overflow("exp", hd.exp),
    "ln": _ln,
    "sin": hd.sin,
    "cos": hd.cos,
    "sqrt": _sqrt,
    "arctan": hd.atan,
}


def _div(a, b):
    if _any(hd.value(b) == 0):
        raise EvalDomainError("division by zero")
    return a / b


def _pow(a, b):
    """``a^b`` by the scalar rules, at one value or at every lane of a base.

    An integral exponent goes in as an int where the base is negative (at
    some lane).  For |exponent| < 2**53 the int and the float give the same
    bits, so the lanes of a base of both signs take the scalar value each.
    """
    av, bv = hd.value(a), hd.value(b)
    if isinstance(bv, np.ndarray):
        return _pow_lane_exponent(a, b, av, bv)
    if bv < 0 and _any(av == 0):
        raise EvalDomainError("zero raised to a negative power")
    negative = av < 0
    if isinstance(b, hd.Dual2):
        if _any(negative) and bv != int(bv):
            raise EvalDomainError("negative base with non-integer exponent")
        return a**b
    integral = bv == int(bv)  # int() raises on inf and nan, as in the scalar call
    if not _any(negative):
        p = bv
    elif not integral:
        raise EvalDomainError("negative base with non-integer exponent")
    elif isinstance(negative, np.ndarray) and abs(bv) >= 2**53 and not negative.all():
        raise EvalDomainError("bases of both signs under an exponent beyond 2**53")
    else:
        p = int(bv)
    if isinstance(av, np.ndarray) and not isinstance(a, hd.Dual2):
        return hd._each(pow, a, p)  # libm pow per lane
    return a**p


def _pow_lane_exponent(a, b, av, bv):
    """:func:`_pow` where the exponent holds lanes."""
    if _any((av == 0) & (bv < 0)):
        raise EvalDomainError("zero raised to a negative power")
    if _any((av < 0) & (bv != np.trunc(bv))):
        raise EvalDomainError("negative base with non-integer exponent")
    if isinstance(b, hd.Dual2):
        return a**b
    if not np.isfinite(bv).all():
        raise EvalDomainError("non-finite exponent")  # the scalar call's int() raises
    if isinstance(a, hd.Dual2):
        raise EvalDomainError("an exponent with lanes on a jet base")
    return hd._each(pow, a, bv)


def _binary(op, left, right):
    # operands left to right, as the scalar rules read them
    if op == "+":
        return lambda env: left(env) + right(env)
    if op == "-":
        return lambda env: left(env) - right(env)
    if op == "*":
        return lambda env: left(env) * right(env)
    f = _div if op == "/" else _no_overflow("power (^)", _pow)
    return lambda env: f(left(env), right(env))


class _Opaque:
    """An opaque symbol's binding, by derivative order.

    The binding may be a bare callable or a tuple of callables
    (f, f', f'', ...).  The two orders past the last one bound come from the
    five-point stencils on it.  A lane argument reaches the binding as float
    lanes, as in :func:`liesolve.hyperdual.lift1`.
    """

    def __init__(self, name, binding):
        from .. import numdiff

        fns = (binding,) if callable(binding) else binding
        if not isinstance(fns, (tuple, list)) or not all(map(callable, fns)):
            raise EvalDomainError(f"opaque binding for {name} must be callable(s)")
        self.name, self.fns = name, tuple(fns)
        last = self.fns[-1]
        self._orders = (
            *self.fns,
            lambda v: numdiff.d1(last, v, 1e-5),
            lambda v: numdiff.d2(last, v, 1e-5),
        )

    def __call__(self, prime, z):
        if prime >= len(self._orders):
            raise EvalDomainError(
                f"opaque symbol {self.name} needs derivative order {prime}, "
                f"only {len(self.fns) - 1} provided"
            )
        if isinstance(z, hd.Dual2):
            # chain through the dual parts with the next two orders
            return hd._chain1(z, self(prime, z.a), self(prime + 1, z.a), self(prime + 2, z.a))
        if not isinstance(z, np.ndarray):
            return self._orders[prime](z)
        out = self._orders[prime](hd.float_lanes(z))
        # back to the plain arrays the compiled expression computes on
        return np.asarray(out) if isinstance(out, np.ndarray) else out


# polar variables derived from bound x, y (r_polar as sqrt(x^2 + y^2), not libm hypot)
_POLAR = {"r_polar": lambda x, y: hd.sqrt(x * x + y * y), "theta": lambda x, y: hd.atan2(y, x)}


def _raises(cls, message):
    def node(env):
        raise cls(message)

    return node


def _compile(n, variables, params, opaque):
    """A closure ``env -> value`` for the node ``n``.  ``env`` holds the
    bound variables in order, then one slot per polar variable, filled the
    first time it is read."""
    if isinstance(n, Num):
        v = n.value
        return lambda env: v
    if isinstance(n, Var):
        if n.name in variables:
            return operator.itemgetter(variables.index(n.name))
        if n.name not in _POLAR or "x" not in variables or "y" not in variables:
            return _raises(UnboundSymbol, f"variable {n.name} not bound")
        k = len(variables) + tuple(_POLAR).index(n.name)
        ix, iy, derive = variables.index("x"), variables.index("y"), _POLAR[n.name]

        def polar(env):
            v = env[k]
            if v is None:
                v = env[k] = derive(env[ix], env[iy])
            return v

        return polar
    if isinstance(n, Param):
        if n.name not in params:
            return _raises(UnboundSymbol, f"parameter {n.name} not bound")
        v = params[n.name]
        return lambda env: v
    if isinstance(n, Neg):
        operand = _compile(n.operand, variables, params, opaque)
        return lambda env: -operand(env)
    if isinstance(n, Call):
        arg = _compile(n.arg, variables, params, opaque)
        if not n.opaque:
            fn = _FUNC_IMPL[n.fn]
            return lambda env: fn(arg(env))
        if n.fn not in opaque:

            def unbound(env):
                arg(env)  # the argument's own errors come first
                raise UnboundSymbol(f"opaque function {n.fn} not bound")

            return unbound
        symbol, prime = opaque[n.fn], n.prime
        return lambda env: symbol(prime, arg(env))
    if isinstance(n, Bin):
        left = _compile(n.left, variables, params, opaque)
        right = _compile(n.right, variables, params, opaque)
        return _binary(n.op, left, right)
    raise TypeError(f"not an Expr: {n!r}")


def compile_expr(e, variables, params=None, opaque=None):
    """``e`` as a callable of the ``variables`` (names, in argument order).

    ``params`` binds named parameters and ``opaque`` opaque function symbols,
    once.  The callable takes floats, float lanes or ``Dual2`` lanes (nested
    ones too), and each lane is bitwise the call at its point (see
    :mod:`liesolve.hyperdual`).  ``r_polar`` and ``theta`` are derived from
    x, y when not among the variables, at most once per call and only when
    the expression reads them.  An unbound symbol raises
    :class:`UnboundSymbol` when the callable is called; a binding that is not
    a callable or a tuple of them raises :class:`EvalDomainError` here.
    Never returns NaN: a domain problem at any lane, or an ``exp`` or ``^``
    that overflows, raises :class:`EvalDomainError`.
    """
    variables = tuple(variables)
    opaque = {k: _Opaque(k, v) for k, v in (opaque or {}).items()}
    root = _compile(e, variables, params or {}, opaque)

    def fn(*args):
        # float lanes as plain arrays: their arithmetic is the same and
        # cheaper, and every power goes through _pow
        out = root([np.asarray(a) if isinstance(a, np.ndarray) else a for a in args] + [None, None])
        if not _finite(out):
            raise EvalDomainError("evaluation produced a non-finite value")
        return out

    return fn


def evaluate(e, point=None, params=None, opaque=None):
    """``e`` at ``point``, which binds variables by name; ``params`` and
    ``opaque`` as in :func:`compile_expr`."""
    point = point or {}
    return compile_expr(e, point, params, opaque)(*point.values())


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
