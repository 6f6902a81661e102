"""Scalar fields: the universal "solution candidate" currency.

A :class:`ScalarField` wraps a plain callable on ``(x, y, t)`` / ``(x, y)``
(two spatial dimensions) or ``(x, t)`` / ``(x,)`` (one spatial dimension) and
provides partial derivatives.  Fields whose callables are transparent to
:mod:`liesolve.hyperdual` numbers (everything built inside this package) get
exact derivatives; black-box callables fall back to the five-point stencils
of :mod:`liesolve.numdiff`.

Fields are immutable closures over immutable data, safe to share across
threads.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import hyperdual as hd
from . import numdiff


class ScalarField:
    def __init__(self, fn, nargs=3, dual=True, h0=numdiff.DEFAULT_H, name=""):
        self.fn = fn
        self.nargs = nargs
        self.dual = dual
        self.h0 = h0
        self.name = name

    def __call__(self, *args):
        return hd.value(self.fn(*args))

    def __repr__(self):
        return f"ScalarField({self.name or 'anonymous'}, nargs={self.nargs})"

    # -- derivatives ---------------------------------------------------------

    def deriv(self, i, args, order=1):
        if self.dual:
            return hd.derivative(self.fn, args, i, order)
        if order == 1:
            return numdiff.partial1(self.fn, args, i, self.h0)
        return numdiff.partial2(self.fn, args, i, self.h0)

    def grad(self, i, j, args):
        """(d/d args[i], d/d args[j]); one pass for dual fields."""
        if self.dual:
            return hd.derivative_pair(self.fn, args, i, j)
        return self.deriv(i, args), self.deriv(j, args)

    # convenience names assuming argument order (x, y, t) or (x, t)
    def dxx(self, *a):
        return self.deriv(0, a, order=2)

    def dyy(self, *a):
        return self.deriv(1, a, order=2)

    def dt(self, *a):
        return self.deriv(self.nargs - 1, a)


# -- test-field builders ------------------------------------------------------


def polynomial_field(coeffs, nargs=3, name="poly"):
    """Field ``sum c * x^i * y^j * t^k`` with exact (dual) derivatives.

    ``coeffs`` maps exponent tuples of length ``nargs`` to coefficients.
    """
    items = tuple(coeffs.items())

    def fn(*args):
        total = 0.0
        for expo, c in items:
            term = c
            for v, p in zip(args, expo):
                if p:
                    term = term * v**p
            total = term + total
        return total

    return ScalarField(fn, nargs=nargs, name=name)


def _random_coeffs(rng, nargs, degree, scale=1.0):
    expos = (e for e in itertools.product(range(degree + 1), repeat=nargs) if sum(e) <= degree)
    return {e: scale * rng.uniform(-1.0, 1.0) for e in expos}


def random_polynomial_field(rng, nargs=3, degree=3, scale=1.0, name="randpoly"):
    return polynomial_field(_random_coeffs(rng, nargs, degree, scale), nargs=nargs, name=name)


def gaussian_bump(center, width, amplitude=1.0, nargs=3, name="bump"):
    """amplitude * exp(-sum((z-c)^2) / (2 width^2)) over the spatial arguments.

    With nargs=3 the bump is in (x, y) and constant in t; with nargs=2 it is
    in x only (1-D field on (x, t)).
    """
    spatial = 2 if nargs >= 3 else 1
    c = tuple(center)
    inv2w2 = 1.0 / (2.0 * width * width)

    def fn(*args):
        q = 0.0
        for k in range(spatial):
            dz = args[k] - c[k]
            q = q + dz * dz
        return amplitude * hd.exp(-q * inv2w2)

    return ScalarField(fn, nargs=nargs, name=name)


def random_smooth_field(rng, nargs=3, name="smooth"):
    """Random low-order polynomial times a Gaussian envelope.

    The standard draw for reduction-consistency trials: smooth, decaying,
    with exact derivatives.
    """
    return smooth_field_lanes([rng], None, nargs, name)


def smooth_field_lanes(rngs, counts, nargs=3, name="smooth"):
    """A :func:`random_smooth_field` draw from each of ``rngs`` in turn, the
    k-th draw's coefficients on ``counts[k]`` consecutive lanes (see
    :mod:`liesolve.hyperdual`); ``counts=None`` keeps one draw's floats."""
    spatial = 2 if nargs >= 3 else 1
    draws = []
    for rng in rngs:
        coeffs = _random_coeffs(rng, nargs, 2)
        center = [rng.uniform(-0.5, 0.5) for _ in range(spatial)]
        draws.append([*coeffs.values(), *center, rng.uniform(1.5, 3.0)])
    cols = draws[0] if counts is None else [np.repeat(col, counts) for col in zip(*draws)]
    poly = polynomial_field(dict(zip(coeffs, cols)), nargs=nargs, name="p")
    bump = gaussian_bump(cols[len(coeffs):-1], cols[-1], nargs=nargs)

    def fn(*args):
        return (poly.fn(*args) + 0.5) * bump.fn(*args)

    return ScalarField(fn, nargs=nargs, name=name)


def heat_kernel(nargs=3):
    """Fundamental solution of u_t = (1/2) Laplacian(u)."""
    spatial = 2 if nargs >= 3 else 1

    def fn(*args):
        t = args[-1]
        q = 0.0
        for k in range(spatial):
            q = q + args[k] * args[k]
        if spatial == 2:
            return hd.exp(-q / (2.0 * t)) / (2.0 * math.pi * t)
        return hd.exp(-q / (2.0 * t)) / hd.sqrt(2.0 * math.pi * t)

    return ScalarField(fn, nargs=nargs, name="heat-kernel")


def shifted_heat_kernel(x0, y0=0.0, nargs=3):
    def fn(*args):
        t = args[-1]
        if nargs >= 3:
            q = (args[0] - x0) ** 2 + (args[1] - y0) ** 2
            return hd.exp(-q / (2.0 * t)) / (2.0 * math.pi * t)
        q = (args[0] - x0) ** 2
        return hd.exp(-q / (2.0 * t)) / hd.sqrt(2.0 * math.pi * t)

    return ScalarField(fn, nargs=nargs, name="heat-kernel-shifted")


def halton(n, dim, skip=20):
    """Quasi-random points in [0,1)^dim (Halton sequence, small primes)."""
    primes = [2, 3, 5, 7, 11, 13][:dim]
    out = np.empty((n, dim))
    for j, p in enumerate(primes):
        seq = []
        for i in range(skip, skip + n):
            f, r = 1.0, 0.0
            k = i
            while k > 0:
                f /= p
                r += f * (k % p)
                k //= p
            seq.append(r)
        out[:, j] = seq
    return out
