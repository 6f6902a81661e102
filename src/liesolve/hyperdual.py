"""Second-order forward-mode dual numbers.

A ``Dual2`` is ``a + b*e1 + c*e2 + d*e1*e2`` with ``e1**2 = e2**2 = 0``.
Evaluating a composite function on seeded ``Dual2`` inputs propagates exact
first derivatives (the ``e1``/``e2`` slots) and one exact mixed second
derivative (the ``e1*e2`` slot).  Seeding both slots with the same direction
yields a pure second derivative.

The ``c`` slot may instead carry a second first-order direction
(:func:`derivative_pair`).  No operation reads ``c`` or ``d`` into ``a`` or
``b`` and every ``c`` formula mirrors its ``b`` formula, so each derivative
slot of such a pass is bitwise equal to that of a separate pass.  Values must
come from float passes: division multiplies by the reciprocal, so the ``a``
slot of a seeded pass can differ from a float quotient in the last bit.

This is how the similarity maps, gauge prefactors and separated factors get
machine-precision derivatives without symbolic machinery; finite differences
remain the *independent* route used by the verification oracles.
"""

from __future__ import annotations

import math

from .errors import DomainError


class Dual2:
    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b=0.0, c=0.0, d=0.0):
        self.a = a  # value
        self.b = b  # e1 coefficient
        self.c = c  # e2 coefficient
        self.d = d  # e1*e2 coefficient

    def __repr__(self):
        return f"Dual2(a={self.a!r}, b={self.b!r}, c={self.c!r}, d={self.d!r})"

    # -- ring operations ----------------------------------------------------

    def __add__(self, o):
        if isinstance(o, Dual2):
            return Dual2(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)
        return Dual2(self.a + o, self.b, self.c, self.d)

    __radd__ = __add__

    def __neg__(self):
        return Dual2(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, o):
        return self + (-o)

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Dual2):
            return Dual2(
                self.a * o.a,
                self.a * o.b + self.b * o.a,
                self.a * o.c + self.c * o.a,
                self.a * o.d + self.d * o.a + self.b * o.c + self.c * o.b,
            )
        return Dual2(self.a * o, self.b * o, self.c * o, self.d * o)

    __rmul__ = __mul__

    def __truediv__(self, o):
        if isinstance(o, Dual2):
            return self * o._inv()
        return Dual2(self.a / o, self.b / o, self.c / o, self.d / o)

    def __rtruediv__(self, o):
        return self._inv() * o

    def _inv(self):
        ia = 1.0 / self.a
        return _chain1(self, ia, -ia * ia, 2.0 * ia * ia * ia)

    def __pow__(self, p):
        if isinstance(p, Dual2):
            return exp(p * log(self))
        if p == 0:
            return Dual2(1.0)
        if p == 1:
            return self
        if p == 2:
            return self * self
        a = self.a
        if a == 0.0 and p > 1:
            # derivative structure still defined for p > 1 integer-ish cases
            f = 0.0
            fp = 0.0 if p > 1 else float("inf")
            fpp = 0.0 if p > 2 else (2.0 if p == 2 else float("inf"))
            return _chain1(self, f, fp, fpp)
        try:
            f = a ** p
            fp = p * a ** (p - 1)
            fpp = p * (p - 1) * a ** (p - 2)
        except (ZeroDivisionError, DomainError) as exc:
            # 0 to a negative power, here or in a nested pass's inner power
            raise DomainError(f"x**{p} or a derivative of it is infinite at x = 0") from exc
        return _chain1(self, f, fp, fpp)

    def __rpow__(self, base):
        return exp(self * math.log(base))

    # comparisons act on the value part (used for domain guards)
    def __lt__(self, o):
        return self.a < value(o)

    def __le__(self, o):
        return self.a <= value(o)

    def __gt__(self, o):
        return self.a > value(o)

    def __ge__(self, o):
        return self.a >= value(o)

    def __float__(self):
        return float(self.a)


def value(x):
    while isinstance(x, Dual2):
        x = x.a
    return x


def _chain1(x, f, fp, fpp):
    """f(x) for Dual2 x given f, f', f'' at x.a."""
    return Dual2(f, x.b * fp, x.c * fp, x.d * fp + x.b * x.c * fpp)


def _chain2(x, y, f, fx, fy, fxx, fxy, fyy):
    """f(x, y) for Dual2 x, y given value and partials at (x.a, y.a)."""
    return Dual2(
        f,
        x.b * fx + y.b * fy,
        x.c * fx + y.c * fy,
        x.d * fx + y.d * fy + x.b * x.c * fxx + (x.b * y.c + y.b * x.c) * fxy + y.b * y.c * fyy,
    )


def _as_dual(x):
    return x if isinstance(x, Dual2) else Dual2(float(x))


# -- elementary functions (accept float or Dual2; recursion keeps nested
#    Dual2-of-Dual2 working, which higher-order derivative chains rely on) ---

def exp(x):
    if not isinstance(x, Dual2):
        return math.exp(x)
    e = exp(x.a)
    return _chain1(x, e, e, e)


def log(x):
    if not isinstance(x, Dual2):
        return math.log(x)
    ia = 1.0 / x.a
    return _chain1(x, log(x.a), ia, -ia * ia)


def sqrt(x):
    if not isinstance(x, Dual2):
        return math.sqrt(x)
    s = sqrt(x.a)
    return _chain1(x, s, 0.5 / s, -0.25 / (s * x.a))


def sin(x):
    if not isinstance(x, Dual2):
        return math.sin(x)
    s, c = sin(x.a), cos(x.a)
    return _chain1(x, s, c, -s)


def cos(x):
    if not isinstance(x, Dual2):
        return math.cos(x)
    s, c = sin(x.a), cos(x.a)
    return _chain1(x, c, -s, -c)


def atan(x):
    if not isinstance(x, Dual2):
        return math.atan(x)
    den = 1.0 + x.a * x.a
    return _chain1(x, atan(x.a), 1.0 / den, -2.0 * x.a / (den * den))


def atan2(y, x):
    if not isinstance(y, Dual2) and not isinstance(x, Dual2):
        return math.atan2(y, x)
    y = _as_dual(y)
    x = _as_dual(x)
    r2 = x.a * x.a + y.a * y.a
    r4 = r2 * r2
    f = atan2(y.a, x.a)
    fy, fx = x.a / r2, -y.a / r2
    fyy = -2.0 * x.a * y.a / r4
    fxy = (y.a * y.a - x.a * x.a) / r4
    fxx = 2.0 * x.a * y.a / r4
    return _chain2(y, x, f, fy, fx, fyy, fxy, fxx)


def hypot(x, y):
    return sqrt(x * x + y * y)


def lift1(f, df, d2f):
    """Wrap callables (f, f', f'') into a Dual2-aware univariate function."""

    def wrapped(x):
        if not isinstance(x, Dual2):
            return f(x)
        return _chain1(x, f(x.a), df(x.a), d2f(x.a))

    return wrapped


# -- seeded evaluation helpers ----------------------------------------------

def _keep(a):
    # nested derivative chains pass Dual2 coordinates through as-is
    return a if isinstance(a, Dual2) else float(a)


def _seeded_pass(fn, args, i, j):
    """fn at args with the e1 slot seeded along args[i] and e2 along args[j]."""
    seeded = [
        Dual2(_keep(a), 1.0 if k == i else 0.0, 1.0 if k == j else 0.0)
        for k, a in enumerate(args)
    ]
    return _as_dual(fn(*seeded))


def derivative(fn, args, i, order=1):
    """Exact d^order fn / d args[i]^order (order 1 or 2) at args."""
    out = _seeded_pass(fn, args, i, i if order == 2 else None)
    return out.b if order == 1 else out.d


def derivative_pair(fn, args, i, j):
    """(d fn / d args[i], d fn / d args[j]) at args from one pass; each is
    bitwise equal to the corresponding :func:`derivative`."""
    out = _seeded_pass(fn, args, i, j)
    return out.b, out.c


def jet(fn, args, i):
    """(value, first, second) of fn along coordinate i at args."""
    out = _seeded_pass(fn, args, i, i)
    return out.a, out.b, out.d
