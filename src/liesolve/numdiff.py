"""Five-point central finite-difference stencils.

These are the *independent* derivative routes used by the verification
oracles; everything that has an analytic derivative path uses it instead.
Step-size convention: ``h = h0 * max(1, |coordinate|)`` with ``h0`` given by
the caller (the symmetry checks use 1e-3, the potential assembly 1e-4).

The formulas live in :func:`first`, :func:`second` and :func:`cross`, which
combine stencil values given as floats or as lanes (numpy arrays, element k
the stencil of sample point k).  :func:`stencil_lanes` lays out every
stencil point of many sample points as lanes of one evaluation, with the
same step and offsets as the float routes, so each lane's combination is
bitwise the float one (see :mod:`liesolve.hyperdual` on lanes).
"""

from __future__ import annotations

import numpy as np

DEFAULT_H = 1e-3


def step(coord, h0=DEFAULT_H):
    return h0 * max(1.0, abs(coord))


# O(h^4) central first derivative:  (-f2 + 8f1 - 8fm1 + fm2) / (12 h)
def first(fp2, fp1, fm1, fm2, h):
    return (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)


# O(h^4) central second derivative: (-f2 + 16f1 - 30f0 + 16fm1 - fm2) / (12 h^2)
def second(fp2, fp1, f0, fm1, fm2, h):
    return (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)


# O(h^2) mixed second derivative from the four corners (+h_i +h_j, +h_i -h_j, ...)
def cross(fpp, fpm, fmp, fmm, hi, hj):
    return (fpp - fpm - fmp + fmm) / (4 * hi * hj)


def d1(f, x, h0=DEFAULT_H):
    h = step(x, h0)
    return first(f(x + 2 * h), f(x + h), f(x - h), f(x - 2 * h), h)


def d2(f, x, h0=DEFAULT_H):
    h = step(x, h0)
    return second(f(x + 2 * h), f(x + h), f(x), f(x - h), f(x - 2 * h), h)


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


def mixed2(f, args, i, j, h0=DEFAULT_H):
    """Mixed second partial d^2 f / d args[i] d args[j] (i != j)."""
    hi = step(args[i], h0)
    hj = step(args[j], h0)

    def at(di, dj):
        a = list(args)
        a[i] += di
        a[j] += dj
        return f(*a)

    return cross(at(hi, hj), at(hi, -hj), at(-hi, hj), at(-hi, -hj), hi, hj)


def stencil_lanes(pts, axes, h0=DEFAULT_H, mixed=None):
    """Every stencil point of the sample points ``pts`` as lanes.

    Returns ``(coords, h)``: row ``k`` of ``coords`` holds coordinate ``k``
    of every lane, in blocks of ``len(pts)`` lanes: the sample points, then
    for each axis ``i`` of ``axes`` the points at +2h, +h, -h, -2h along it
    (the argument order of :func:`first`), then for ``mixed = (i, j)`` the
    corners in the argument order of :func:`cross`.  ``h[i]`` holds the
    steps along axis ``i``.  Offsets and steps are computed as
    :func:`partial1`, :func:`partial2` and :func:`mixed2` compute them, so
    every lane is bitwise their point.
    """
    center = np.array(pts, float).reshape(len(pts), -1).T
    h = {i: h0 * np.maximum(1.0, np.abs(center[i])) for i in {*axes, *(mixed or ())}}
    blocks = [center]

    def moved(*shifts):
        b = center.copy()
        for i, v in shifts:
            b[i] = v
        blocks.append(b)

    for i in axes:
        x, hi = center[i], h[i]
        for v in (x + 2 * hi, x + hi, x - hi, x - 2 * hi):
            moved((i, v))
    if mixed:
        i, j = mixed
        xi, xj, hi, hj = center[i], center[j], h[i], h[j]
        for di, dj in ((hi, hj), (hi, -hj), (-hi, hj), (-hi, -hj)):
            moved((i, xi + di), (j, xj + dj))
    return np.concatenate(blocks, axis=1), h
