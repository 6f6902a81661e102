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
come from float passes: division multiplies by the reciprocal and a square is
``a * a``, so the ``a`` slot of a seeded pass can differ from a float call in
the last bit.  Only the invariance defect of
:func:`liesolve.symmetry.symmetry_residual` reads value slots: its tolerance
is far above one rounding, and the reading spares a float pass per callable.

This is how the similarity maps, gauge prefactors and separated factors get
machine-precision derivatives without symbolic machinery; finite differences
remain the *independent* route used by the verification oracles.

Lanes (forward "vector mode", Griewank & Walther, *Evaluating Derivatives*,
2nd ed., ch. 3).  A slot may hold a numpy array: element k of every slot is
then lane k, one independent evaluation.  :func:`lane_pass` is the one
seeded-pass core (:func:`jet`, :func:`derivative` and :func:`derivative_pair`
are its one-pattern forms): the seeded passes of one field at one point set
are one call, one evaluation on lanes.  :func:`float_lanes` hands plain
values to a callable as lanes.  Each lane is bitwise its scalar pass, by
three rules:

- ``+ - * /`` on float64 arrays are correctly rounded, as on floats, and
  every formula is the scalar one, so the association is the same;
- transcendental functions (and ``sqrt``) map libm per element, as in
  ``np.fromiter(map(math.exp, a), float, n)``: ``np.exp`` is not libm and
  differs in the last bit;
- ``**`` on float lanes goes through Python's ``pow`` per element, both in
  :meth:`Dual2.__pow__` and on :func:`float_lanes`, which is also how
  :func:`lift1` hands lane values to its callables: numpy's ``a ** 2`` is
  ``a * a``, which is not always libm ``pow(a, 2)``.

A value-dependent branch cannot take lanes: the truth value of an array
comparison raises, and so do ``math`` functions, ``float()`` and, inside
lane passes, a division by zero (``LANE_ERRSTATE``), where a float would
raise ``ZeroDivisionError``.  A caller whose lane evaluation raises a
``TypeError``, ``ValueError``, ``ArithmeticError`` or ``LiesolveError``
reruns it with its callables wrapped in :func:`per_lane`, which gives the
scalar result or the scalar error lane by lane, so a lane never stands in
for a domain error; :func:`liesolve.verify.sampled` is that rule for every
sampled evaluation.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import DomainError

# numpy returns inf or nan where float arithmetic raises ZeroDivisionError;
# lane passes raise FloatingPointError there instead
LANE_ERRSTATE = {"divide": "raise", "invalid": "raise"}
_ndarray = np.ndarray  # a global, not an attribute lookup, on the scalar power path


class Dual2:
    __slots__ = ("a", "b", "c", "d")

    # ndarray (op) Dual2 defers to Dual2, which then holds array slots
    __array_ufunc__ = None

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
        if isinstance(a, _ndarray):
            # lanes: each value through the float rule, as its scalar pass
            f, fp, fpp = (np.array(q, float) for q in zip(*(_pow_parts(v, p) for v in a.tolist())))
        else:
            f, fp, fpp = _pow_parts(a, p)
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


def _pow_parts(a, p):
    """(a**p, its first and second derivative) at a float or a Dual2 a."""
    if a == 0.0 and p > 1:
        # derivative structure still defined for p > 1 integer-ish cases
        f = 0.0
        fp = 0.0 if p > 1 else float("inf")
        fpp = 0.0 if p > 2 else (2.0 if p == 2 else float("inf"))
        return f, fp, fpp
    try:
        return a ** p, p * a ** (p - 1), p * (p - 1) * a ** (p - 2)
    except (ZeroDivisionError, DomainError) as exc:
        # 0 to a negative power, here or in a nested pass's inner power
        raise DomainError(f"x**{p} or a derivative of it is infinite at x = 0") from exc


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


# -- float lanes ----------------------------------------------------------------


class _FloatLanes(np.ndarray):
    """Float lanes handed to a callable: ``**`` is Python's pow per element,
    and an in-place operator rebinds, as both do on floats."""

    def __pow__(self, p):
        return _each(pow, self, p)

    def __rpow__(self, base):
        return _each(pow, base, self)


for _op in ("add", "sub", "mul", "truediv", "floordiv", "mod", "pow"):
    setattr(_FloatLanes, f"__i{_op}__", getattr(_FloatLanes, f"__{_op}__"))


def float_lanes(values):
    """``values`` (lanes along the last axis) as float lanes for a callable."""
    return np.array(values, float).view(_FloatLanes)


def _each(f, *args):
    """f element by element over lane arrays: libm or Python's pow, so each
    lane is bitwise the float call.  Float lanes stay float lanes."""
    if len(args) == 1 and isinstance(args[0], np.ndarray) and args[0].ndim == 1:
        a = args[0]  # one lane array: the quick path of the elementary functions
        out = np.fromiter(map(f, a.tolist()), float, a.size)
        return out.view(_FloatLanes) if isinstance(a, _FloatLanes) else out
    lanes = [a for a in args if isinstance(a, np.ndarray)]
    if not lanes:
        return f(*args)  # no lanes: the float call's own error
    size = lanes[0].size
    if any(a.shape != (size,) for a in lanes):
        raise ValueError("lane arrays must be 1-D and of one length")
    cols = (a.tolist() if isinstance(a, np.ndarray) else itertools.repeat(a, size) for a in args)
    out = np.fromiter(map(f, *cols), float, size)
    return out.view(_FloatLanes) if any(isinstance(a, _FloatLanes) for a in lanes) else out


# -- elementary functions (accept float, lanes or Dual2; recursion keeps nested
#    Dual2-of-Dual2 working, which higher-order derivative chains rely on) ---

def exp(x):
    if not isinstance(x, Dual2):
        return _each(math.exp, x) if isinstance(x, np.ndarray) else math.exp(x)
    e = exp(x.a)
    return _chain1(x, e, e, e)


def log(x):
    if not isinstance(x, Dual2):
        return _each(math.log, x) if isinstance(x, np.ndarray) else math.log(x)
    ia = 1.0 / x.a
    return _chain1(x, log(x.a), ia, -ia * ia)


def sqrt(x):
    if not isinstance(x, Dual2):
        return _each(math.sqrt, x) if isinstance(x, np.ndarray) else math.sqrt(x)
    s = sqrt(x.a)
    return _chain1(x, s, 0.5 / s, -0.25 / (s * x.a))


def sin(x):
    if not isinstance(x, Dual2):
        return _each(math.sin, x) if isinstance(x, np.ndarray) else math.sin(x)
    s, c = sin(x.a), cos(x.a)
    return _chain1(x, s, c, -s)


def cos(x):
    if not isinstance(x, Dual2):
        return _each(math.cos, x) if isinstance(x, np.ndarray) else math.cos(x)
    s, c = sin(x.a), cos(x.a)
    return _chain1(x, c, -s, -c)


def atan(x):
    if not isinstance(x, Dual2):
        return _each(math.atan, x) if isinstance(x, np.ndarray) else math.atan(x)
    den = 1.0 + x.a * x.a
    return _chain1(x, atan(x.a), 1.0 / den, -2.0 * x.a / (den * den))


def atan2(y, x):
    if not isinstance(y, Dual2) and not isinstance(x, Dual2):
        if isinstance(y, np.ndarray) or isinstance(x, np.ndarray):
            return _each(math.atan2, y, x)
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
    if isinstance(x, Dual2) or isinstance(y, Dual2):
        return sqrt(x * x + y * y)
    return _each(math.hypot, x, y)


def lift1(f, df, d2f):
    """Wrap callables (f, f', f'') into a Dual2-aware univariate function."""

    def wrapped(x):
        if not isinstance(x, Dual2):
            return f(x)
        # float lanes: a ** in f, f', f'' is pow per element, as in the scalar pass
        a = x.a.view(_FloatLanes) if isinstance(x.a, np.ndarray) else x.a
        return _chain1(x, f(a), df(a), d2f(a))

    return wrapped


# -- seeded evaluation helpers ----------------------------------------------

def _keep(a):
    # nested derivative chains pass Dual2 coordinates through as-is, and
    # lane arrays stay lanes
    if isinstance(a, Dual2):
        return a
    return np.asarray(a, float) if isinstance(a, np.ndarray) and a.ndim else float(a)


def _seeded_pass(fn, args, i, j):
    """fn at args with the e1 slot seeded along args[i] and e2 along args[j]."""
    seeded = [
        Dual2(_keep(a), 1.0 if k == i else 0.0, 1.0 if k == j else 0.0)
        for k, a in enumerate(args)
    ]
    return _as_dual(fn(*seeded))


def derivative(fn, args, i, order=1):
    """Exact d^order fn / d args[i]^order (order 1 or 2) at args."""
    (out,) = lane_pass(fn, args, ((i, i if order == 2 else None),))
    return out.b if order == 1 else out.d


def derivative_pair(fn, args, i, j):
    """(d fn / d args[i], d fn / d args[j]) at args from one pass; each is
    bitwise equal to the corresponding :func:`derivative`."""
    (out,) = lane_pass(fn, args, ((i, j),))
    return out.b, out.c


def jet(fn, args, i):
    """(value, first, second) of fn along coordinate i at args."""
    (out,) = lane_pass(fn, args, ((i, i),))
    return out.a, out.b, out.d


# -- lane passes ----------------------------------------------------------------


def _lane_count(args):
    """The number of lanes that args hold, or None at a point."""
    for a in args:
        a = value(a)
        if isinstance(a, np.ndarray) and a.ndim:
            return a.shape[-1]
    return None


def _tile(a, n):
    if isinstance(a, Dual2):
        return Dual2(_tile(a.a, n), _tile(a.b, n), _tile(a.c, n), _tile(a.d, n))
    if isinstance(a, np.ndarray):
        return np.concatenate((np.asarray(a),) * n)
    return a


@functools.lru_cache(maxsize=64)
def _seed(patterns, k, slot, size):
    marks = [1.0 if p[slot] == k else 0.0 for p in patterns]
    if not any(marks):
        return 0.0
    out = np.repeat(np.array(marks), size)
    out.flags.writeable = False  # shared by every pass with these patterns
    return out


def _split(v, n):
    """v's lanes as n equal parts, one per pattern."""
    if isinstance(v, Dual2):
        return [Dual2(*part) for part in zip(*(_split(s, n) for s in (v.a, v.b, v.c, v.d)))]
    if isinstance(v, np.ndarray):
        return list(v.reshape(n, -1))
    return [v] * n


def _split_output(out, n):
    if isinstance(out, tuple):
        return list(zip(*(_split_output(o, n) for o in out)))
    return _split(out if isinstance(out, Dual2) else Dual2(out), n)


def lane_pass(fn, args, patterns):
    """fn seeded with each of ``patterns`` at the point or lanes ``args``.

    Pattern ``(i, j)`` seeds e1 on ``args[i]`` and e2 on ``args[j]``
    (``j = None``: no e2), as :func:`derivative_pair` or, with ``i == j``,
    :func:`jet` does.  Returns one entry per pattern: fn's output (a Dual2,
    or a tuple of them), each lane bitwise equal to the scalar pass at that
    point.  At a point (floats, or Dual2 with float slots from an enclosing
    pass) fn makes one seeded pass per pattern; on L lanes (arrays, or Dual2
    with array slots) one pass over ``len(patterns) x L`` lanes, one
    (pattern, point) pair per lane, under ``LANE_ERRSTATE``, where a callable
    that carries values of its own on L lanes repeats them over each block.
    """
    size = _lane_count(args)
    if size is None:
        return [_seeded_pass(fn, args, i, j) for i, j in patterns]
    n = len(patterns)
    seeded = [
        Dual2(_tile(a, n), _seed(patterns, k, 0, size), _seed(patterns, k, 1, size))
        for k, a in enumerate(args)
    ]
    with np.errstate(**LANE_ERRSTATE):
        out = fn(*seeded)
    return _split_output(out, n)


def _unstack(a, size):
    if isinstance(a, Dual2):
        slots = (_unstack(s, size) for s in (a.a, a.b, a.c, a.d))
        return [Dual2(*lane) for lane in zip(*slots)]
    if isinstance(a, np.ndarray):
        return a.tolist()
    return [a] * size


def _stack(outs):
    duals = [isinstance(o, Dual2) for o in outs]
    if outs and all(duals):
        return Dual2(*(_stack([getattr(o, s) for o in outs]) for s in Dual2.__slots__))
    if any(duals):
        raise TypeError("lanes mix Dual2 and plain values")
    return np.array(outs, float)


def per_lane(fn):
    """fn for lanes, one lane at a time: for callables that branch on values.

    Each lane's arguments are rebuilt as floats or scalar Dual2, so each call
    is the scalar one; the results are stacked back into array slots.
    """

    def wrapped(*args):
        size = _lane_count(args)
        lanes = zip(*(_unstack(a, size) for a in args))
        return _stack([fn(*lane) for lane in lanes])

    return wrapped
