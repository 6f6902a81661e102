"""Test-field builders.

A field is a plain callable on ``(x, y, t)`` / ``(x, y)`` (two spatial
dimensions) or ``(x, t)`` / ``(x,)`` (one spatial dimension).  The builders
here return callables that are transparent to :mod:`liesolve.hyperdual`
numbers, so :func:`liesolve.hyperdual.derivative` gives their exact partial
derivatives; the five-point stencils of :mod:`liesolve.numdiff` serve
black-box callables.

Fields are immutable closures over immutable data, safe to share across
threads.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from . import hyperdual as hd


# -- test-field builders ------------------------------------------------------


def polynomial_field(coeffs):
    """Field ``sum c * x^i * y^j * t^k``.

    ``coeffs`` maps exponent tuples, one exponent per argument, to
    coefficients.
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

    return fn


def _random_coeffs(rng, nargs, degree, scale=1.0):
    expos = (e for e in itertools.product(range(degree + 1), repeat=nargs) if sum(e) <= degree)
    return {e: scale * rng.uniform(-1.0, 1.0) for e in expos}


def random_polynomial_field(rng, nargs=3, degree=3, scale=1.0):
    return polynomial_field(_random_coeffs(rng, nargs, degree, scale))


def gaussian_bump(center, width, amplitude=1.0, nargs=3):
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

    return fn


def random_smooth_field(rng, nargs=3):
    """Random low-order polynomial times a Gaussian envelope.

    The standard draw for reduction-consistency trials: smooth, decaying,
    with exact derivatives.
    """
    return smooth_field_lanes([rng], None, nargs)


def smooth_field_lanes(rngs, counts, nargs=3):
    """A :func:`random_smooth_field` draw from each of ``rngs`` in turn, the
    k-th draw's coefficients on ``counts[k]`` consecutive lanes (see
    :mod:`liesolve.hyperdual`), repeated over each pattern block of a stacked
    :func:`~liesolve.hyperdual.lane_pass`; ``counts=None`` keeps one draw's
    floats."""
    spatial = 2 if nargs >= 3 else 1
    draws = []
    for rng in rngs:
        coeffs = _random_coeffs(rng, nargs, 2)
        center = [rng.uniform(-0.5, 0.5) for _ in range(spatial)]
        draws.append([*coeffs.values(), *center, rng.uniform(1.5, 3.0)])
    # one row of lanes per coefficient
    lanes = None if counts is None else np.repeat(np.transpose(draws), counts, axis=1)

    @functools.lru_cache(maxsize=4)  # one entry per pattern count seen
    def field(blocks):
        cols = draws[0] if lanes is None else list(np.tile(lanes, blocks))
        poly = polynomial_field(dict(zip(coeffs, cols)))
        bump = gaussian_bump(cols[len(coeffs):-1], cols[-1], nargs=nargs)
        return lambda *args: (poly(*args) + 0.5) * bump(*args)

    if lanes is None:
        return field(1)
    size = lanes.shape[1]
    return lambda *args: field((hd._lane_count(args) or size) // size)(*args)


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

    return fn


def shifted_heat_kernel(x0, y0=0.0, nargs=3):
    def fn(*args):
        t = args[-1]
        if nargs >= 3:
            q = (args[0] - x0) ** 2 + (args[1] - y0) ** 2
            return hd.exp(-q / (2.0 * t)) / (2.0 * math.pi * t)
        q = (args[0] - x0) ** 2
        return hd.exp(-q / (2.0 * t)) / hd.sqrt(2.0 * math.pi * t)

    return fn


def halton(n, dim):
    """Quasi-random points in [0,1)^dim (Halton sequence, small primes),
    from index 40 on.  All indices take each digit step together, in the
    digit order of the one-index loop; an index out of digits adds 0.0."""
    primes = [2, 3, 5, 7, 11, 13][:dim]
    out = np.zeros((n, dim))
    for j, p in enumerate(primes):
        k = np.arange(40, 40 + n)
        f = 1.0
        while k.any():
            f /= p
            out[:, j] += f * (k % p)
            k //= p
    return out
