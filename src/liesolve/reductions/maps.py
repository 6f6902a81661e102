"""Similarity maps: the one map type of the 1-D and 2-D reduction chains.

A :class:`SimilarityMap` holds, for bound parameters, four callables on the
original arguments, ``(x, y, t)`` for the catalog cases or ``(x, t)`` for
the one-asset studies:

* ``to_sim(...) -> (xi, eta)`` or ``(xi,)``   (dual-transparent),
* ``prefactor_log(...) -> W``   with ``P = exp(W) u``,
* ``jacobian(...) -> J``        with ``FP(u) = J * reduced_op(P)``,
* ``singular(x, y, t) -> bool`` the singular-locus guard of a catalog map;
  ``None`` for a one-asset map, whose studies sample away from its loci.

:meth:`SimilarityMap.reconstruct` maps a reduced solution ``P`` back to
``u = P(to_sim) exp(-W)``; it serves :func:`liesolve.reductions.reconstruct_u`
and the one-asset studies alike.

The formulas are the closed forms of the characteristic-system integrals for
the admissible generator family; where the source displays are garbled the
entries below are re-derived and then pinned by the reduction-consistency
checks (the Jacobian-ratio test would flag any sign or constant slip).  The
time families are shared: ``f1 = d2 t^2 + d1 t`` (polynomial) serves 1.1a,
1.2a, 1.5a and the one-asset inverse-square map, and ``f1 = d1 e^{2at} +
d2 e^{-2at}`` (exponential) serves 1.1b, 1.2b and the one-asset quadratic
map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .. import hyperdual as hd
from ..errors import SingularPoint

SING_MARGIN = 0.1


@dataclass
class SimilarityMap:
    to_sim: object
    prefactor_log: object
    jacobian: object
    singular: object

    def check(self, x, y, t):
        if self.singular(hd.value(x), hd.value(y), hd.value(t)):
            raise SingularPoint(f"similarity map singular at {(x, y, t)}")

    def reconstruct(self, P):
        """u = P(similarity variables) * exp(-W), as a dual-capable field."""
        to_sim, W = self.to_sim, self.prefactor_log

        def fn(*args):
            return P(*to_sim(*args)) * hd.exp(-W(*args))

        return fn


# ---------------------------------------------------------------------------
# polynomial family: f1 = d2 t^2 + d1 t  (t > 0)
# ---------------------------------------------------------------------------


def _f1_poly(d1, d2):
    def f1(t):
        return t * (d2 * t + d1)

    return f1


def map_11a(C0, b, c0, d1, d2, b0, b1):
    f1 = _f1_poly(d1, d2)

    def phi(t):
        return (-b * d1**2 * t * t + (8 * b0 * d2 - 4 * b1 * d1) * t + 4 * b0 * d1) / (
            2 * d1**2
        )

    def to_sim(x, y, t):
        s = hd.sqrt(f1(t))
        return x / s, (y + phi(t)) / s

    def W(x, y, t):
        s = hd.sqrt(f1(t))
        xi = x / s
        eta = (y + phi(t)) / s
        K = s * (b * d1**2 * t + 2 * b1 * d1 - 4 * b0 * d2) / d1**2
        R = (
            b * b * t**3 / 3.0
            + 2 * b * (b1 * d1 - 2 * b0 * d2) * t * t / d1**2
            + (
                c0
                - 2 * b * b0 / d1
                + 2 * b1**2 / d1**2
                - 8 * b0 * b1 * d2 / d1**3
                + 8 * b0**2 * d2**2 / d1**4
            )
            * t
            + (1.0 + 2 * b0 * b1 / d1**2 - 2 * b0**2 * d2 / d1**3) * hd.log(d2 * t + d1)
            + (2 * b0**2 * d2 / d1**3 - 2 * b0 * b1 / d1**2) * hd.log(t)
        )
        return 0.5 * d2 * (xi * xi + eta * eta) * t + eta * K + R

    def jacobian(x, y, t):
        # printed operator carries the extra d1^2 xi^2 factor
        xi, _ = to_sim(x, y, t)
        return -hd.exp(-W(x, y, t)) / (2.0 * f1(t) * d1**2 * xi * xi)

    def singular(x, y, t):
        return t <= SING_MARGIN / 2 or f1(t) <= 0 or abs(x) < 1e-8

    return SimilarityMap(to_sim, W, jacobian, singular)


def map_12a(c0, d1, d2):
    f1 = _f1_poly(d1, d2)

    def to_sim(x, y, t):
        s = hd.sqrt(f1(t))
        return x / s, y / s

    def W(x, y, t):
        xi, eta = to_sim(x, y, t)
        return (
            hd.log(d2 * t + d1)
            + 0.5 * d2 * (xi * xi + eta * eta) * t
            + c0 * t
        )

    def jacobian(x, y, t):
        xi, eta = to_sim(x, y, t)
        rho2 = xi * xi + eta * eta
        return -hd.exp(-W(x, y, t)) / (2.0 * f1(t) * rho2)

    def singular(x, y, t):
        return t <= SING_MARGIN / 2 or f1(t) <= 0 or x * x + y * y < 1e-10

    return SimilarityMap(to_sim, W, jacobian, singular)


def map_15a(a, b, c0, d1, d2, a0, a1, b0, b1):
    f1 = _f1_poly(d1, d2)

    def phi_shift(p, p0, p1):
        def phi(t):
            return (
                -p * d1**2 * t * t + (8 * p0 * d2 - 4 * p1 * d1) * t + 4 * p0 * d1
            ) / (2 * d1**2)

        return phi

    phiA = phi_shift(a, a0, a1)
    phiB = phi_shift(b, b0, b1)

    def to_sim(x, y, t):
        s = hd.sqrt(f1(t))
        return (x + phiA(t)) / s, (y + phiB(t)) / s

    def K(p, p0, p1, s, t):
        return s * (p * d1**2 * t + 2 * p1 * d1 - 4 * p0 * d2) / d1**2

    def W(x, y, t):
        s = hd.sqrt(f1(t))
        xi, eta = to_sim(x, y, t)
        aa = a * a + b * b
        cross01 = a0 * a1 + b0 * b1
        sq0 = a0 * a0 + b0 * b0
        R = (
            aa * t**3 / 3.0
            + 2 * (d1 * (a * a1 + b * b1) - 2 * d2 * (a * a0 + b * b0)) * t * t / d1**2
            + (
                c0
                - 2 * (a * a0 + b * b0) / d1
                + 2 * (a1 * a1 + b1 * b1) / d1**2
                - 8 * d2 * cross01 / d1**3
                + 8 * d2**2 * sq0 / d1**4
            )
            * t
            + (1.0 + 2 * cross01 / d1**2 - 2 * d2 * sq0 / d1**3) * hd.log(d2 * t + d1)
            + (2 * d2 * sq0 / d1**3 - 2 * cross01 / d1**2) * hd.log(t)
        )
        return (
            0.5 * d2 * (xi * xi + eta * eta) * t
            + xi * K(a, a0, a1, s, t)
            + eta * K(b, b0, b1, s, t)
            + R
        )

    def jacobian(x, y, t):
        return -hd.exp(-W(x, y, t)) / (2.0 * f1(t) * d1**2)

    def singular(x, y, t):
        return t <= SING_MARGIN / 2 or f1(t) <= 0

    return SimilarityMap(to_sim, W, jacobian, singular)


def map_1d_poly(d1, d2):
    """One-asset map for M = C0/x^2 (t > 0)."""
    f1 = _f1_poly(d1, d2)

    def to_sim(x, t):
        return (x / hd.sqrt(f1(t)),)

    def W(x, t):
        (xi,) = to_sim(x, t)
        return 0.5 * hd.log(d2 * t + d1) + 0.5 * d2 * xi * xi * t

    def jacobian(x, t):
        return -hd.exp(-W(x, t)) / (2.0 * f1(t))

    return SimilarityMap(to_sim, W, jacobian, None)


# ---------------------------------------------------------------------------
# exponential family: f1 = d1 e^{2at} + d2 e^{-2at},  a = sqrt(2c)
# ---------------------------------------------------------------------------


def _f1_g1_exp(a, d1, d2):
    """f1 and its companion g1 = d1 e^{2at} - d2 e^{-2at}."""

    def f1(t):
        return d1 * hd.exp(2 * a * t) + d2 * hd.exp(-2 * a * t)

    def g1(t):
        return d1 * hd.exp(2 * a * t) - d2 * hd.exp(-2 * a * t)

    return f1, g1


def map_12b(c, c0, d1, d2):
    a = math.sqrt(2.0 * c)
    f1, g1 = _f1_g1_exp(a, d1, d2)

    def to_sim(x, y, t):
        s = hd.sqrt(f1(t))
        return x / s, y / s

    def W(x, y, t):
        xi, eta = to_sim(x, y, t)
        return (
            0.5 * hd.log(f1(t))
            + c0 * t
            + 0.5 * a * g1(t) * (xi * xi + eta * eta)
        )

    def jacobian(x, y, t):
        xi, eta = to_sim(x, y, t)
        rho2 = xi * xi + eta * eta
        return -hd.exp(-W(x, y, t)) / (2.0 * f1(t) * rho2)

    def singular(x, y, t):
        return hd.value(f1(t)) <= 0 or x * x + y * y < 1e-10

    return SimilarityMap(to_sim, W, jacobian, singular)


def map_11b(C0, c, b, c0, d1, d2, b1, b2):
    a = math.sqrt(2.0 * c)
    f1, g1 = _f1_g1_exp(a, d1, d2)

    def h(t):
        return (
            -b / (a * a)
            + b2 * hd.exp(a * t) / (2 * a * d2)
            - b1 * hd.exp(-a * t) / (2 * a * d1)
        )

    def to_sim(x, y, t):
        s = hd.sqrt(f1(t))
        return x / s, (y - h(t)) / s

    def W(x, y, t):
        s = hd.sqrt(f1(t))
        xi = x / s
        eta = (y - h(t)) / s
        ep, em = hd.exp(a * t), hd.exp(-a * t)
        K = s * (b1 * em / (2 * d1) + b2 * ep / (2 * d2))
        rest = (
            0.5 * hd.log(f1(t))
            + (c0 - b * b / (4.0 * c)) * t
            - b1 * b1 * em * em / (8 * a * d1 * d1)
            + b2 * b2 * ep * ep / (8 * a * d2 * d2)
            + (
                b1 * b1 / (4 * a * d1 ** 1.5 * math.sqrt(d2))
                + b2 * b2 / (4 * a * math.sqrt(d1) * d2 ** 1.5)
            )
            * hd.atan(math.sqrt(d2 / d1) * em * em)
        )
        return 0.5 * a * g1(t) * (xi * xi + eta * eta) + eta * K + rest

    def jacobian(x, y, t):
        xi, _ = to_sim(x, y, t)
        # printed operator carries the extra d1 d2 xi^2 factor
        return -hd.exp(-W(x, y, t)) / (2.0 * f1(t) * d1 * d2 * xi * xi)

    def singular(x, y, t):
        return hd.value(f1(t)) <= 0 or abs(x) < 1e-8

    return SimilarityMap(to_sim, W, jacobian, singular)


def map_1d_exp(c, c0, d1, d2):
    """One-asset map for M = C0/x^2 + c x^2 + c0."""
    a = math.sqrt(2.0 * c)
    f1, g1 = _f1_g1_exp(a, d1, d2)

    def to_sim(x, t):
        return (x / hd.sqrt(f1(t)),)

    def W(x, t):
        (xi,) = to_sim(x, t)
        return 0.25 * hd.log(f1(t)) + c0 * t + 0.5 * a * g1(t) * xi * xi

    def jacobian(x, t):
        (xi,) = to_sim(x, t)
        return -hd.exp(-W(x, t)) / (2.0 * f1(t) * xi * xi)

    return SimilarityMap(to_sim, W, jacobian, None)


# ---------------------------------------------------------------------------
# rotation-coupled and time-frozen families
# ---------------------------------------------------------------------------


def map_13(lam, c0, k):
    # f1 = (2k/lam) t; the k-scale cancels from the similarity variables
    def to_sim(x, y, t):
        sq = hd.sqrt(t)
        ph = 0.5 * lam * hd.log(t)
        cp, sp = hd.cos(ph), hd.sin(ph)
        return (cp * x - sp * y) / sq, (sp * x + cp * y) / sq

    def W(x, y, t):
        return c0 * t

    def jacobian(x, y, t):
        xi, eta = to_sim(x, y, t)
        rho2 = xi * xi + eta * eta
        return -hd.exp(-c0 * t) / (2.0 * t * rho2)

    def singular(x, y, t):
        return t <= SING_MARGIN / 2 or x * x + y * y < 1e-10

    return SimilarityMap(to_sim, W, jacobian, singular)


def map_16(d, k):
    def to_sim(x, y, t):
        return x * x + y * y, t

    def W(x, y, t):
        th = hd.atan2(y, x)
        return d * th * t

    def jacobian(x, y, t):
        xi = x * x + y * y
        return -hd.exp(-W(x, y, t)) / (2.0 * xi)

    def singular(x, y, t):
        # the angle branch cut sits on the negative x-axis
        return x * x + y * y < 1e-10 or (x < 0 and abs(y) < SING_MARGIN)

    return SimilarityMap(to_sim, W, jacobian, singular)


def map_18a(b, b0, b1):
    def h(t):
        return b1 * t + b0

    def to_sim(x, y, t):
        return x, t

    def W(x, y, t):
        return (0.5 * b1 * y * y + (0.5 * b * b1 * t * t + b * b0 * t) * y) / h(t)

    def jacobian(x, y, t):
        return -hd.exp(-W(x, y, t)) / (8.0 * h(t) ** 2)

    def singular(x, y, t):
        return abs(hd.value(h(t))) < SING_MARGIN / 2

    return SimilarityMap(to_sim, W, jacobian, singular)


def map_18b(c, b, b1, b2):
    a1 = math.sqrt(2.0 * c)

    def f3(t):
        return b1 * hd.exp(a1 * t) + b2 * hd.exp(-a1 * t)

    def g3(t):
        return b1 * hd.exp(a1 * t) - b2 * hd.exp(-a1 * t)

    def to_sim(x, y, t):
        return x, t

    def W(x, y, t):
        # the pure-time factor makes the reduced operator exactly
        # P_xx - 2 P_t - 2 C(x) P
        f3t = f3(t)
        core = (g3(t) / f3t) * y * (c * y + b) / a1
        sign = (hd.value(f3t) > 0) * 2.0 - 1.0  # a product, not a branch, so lanes pass
        theta_t = (
            0.5 * hd.log(f3t * sign)
            - b * b * t / (4.0 * c)
            + b * b * g3(t) / (4.0 * c * a1 * f3t)
        )
        return core + theta_t

    def jacobian(x, y, t):
        return -hd.exp(-W(x, y, t)) / 2.0

    def singular(x, y, t):
        return abs(hd.value(f3(t))) < SING_MARGIN / 2

    return SimilarityMap(to_sim, W, jacobian, singular)
