"""Five-point central finite-difference stencils.

These are the *independent* derivative routes used by the verification
oracles; everything that has an analytic derivative path uses it instead.
Step-size convention: ``h = h0 * max(1, |coordinate|)`` with ``h0`` given by
the caller (the symmetry checks use 1e-3, the potential assembly 1e-4).

:func:`partial12` takes the first and the second partial along one axis from
one shared stencil, and accepts the center value when the caller already has
it, so a residual that needs both derivatives and the value pays four
evaluations per axis plus one for the center.  Its formulas are those of
:func:`d1` and :func:`d2`, so the results are bit-identical to theirs.
"""

from __future__ import annotations

# O(h^4) central first derivative:  (-f2 + 8f1 - 8fm1 + fm2) / (12 h)
# O(h^4) central second derivative: (-f2 + 16f1 - 30f0 + 16fm1 - fm2) / (12 h^2)

DEFAULT_H = 1e-3


def step(coord, h0=DEFAULT_H):
    return h0 * max(1.0, abs(coord))


def d1(f, x, h0=DEFAULT_H):
    h = step(x, h0)
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


def d2(f, x, h0=DEFAULT_H):
    h = step(x, h0)
    return (-f(x + 2 * h) + 16 * f(x + h) - 30 * f(x) + 16 * f(x - h) - f(x - 2 * h)) / (
        12 * h * h
    )


def _along(f, args, i):
    """f(*args) as a function of coordinate i alone."""
    args = list(args)

    def g(v):
        a = list(args)
        a[i] = v
        return f(*a)

    return g


def partial1(f, args, i, h0=DEFAULT_H):
    """First partial of f(*args) in coordinate i."""
    return d1(_along(f, args, i), args[i], h0)


def partial2(f, args, i, h0=DEFAULT_H):
    """Second partial of f(*args) in coordinate i."""
    return d2(_along(f, args, i), args[i], h0)


def partial12(f, args, i, h0=DEFAULT_H, center=None):
    """(first, second) partial of f(*args) in coordinate i from one
    five-point stencil; ``center`` is f(*args) when the caller has it."""
    g = _along(f, args, i)
    x = args[i]
    h = step(x, h0)
    fp2, fp1, fm1, fm2 = g(x + 2 * h), g(x + h), g(x - h), g(x - 2 * h)
    f0 = g(x) if center is None else center
    return (
        (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h),
        (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h),
    )


def mixed2(f, args, i, j, h0=DEFAULT_H):
    """Mixed second partial d^2 f / d args[i] d args[j] (i != j)."""
    hi = step(args[i], h0)
    hj = step(args[j], h0)

    def at(di, dj):
        a = list(args)
        a[i] += di
        a[j] += dj
        return f(*a)

    return (at(hi, hj) - at(hi, -hj) - at(-hi, hj) + at(-hi, -hj)) / (4 * hi * hj)
