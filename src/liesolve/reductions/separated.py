"""Separated solution factors for the reduction catalog.

Factors are dual-transparent callables assembled from the special-function
kernel; second derivatives come from exact parameter-shift jets, never finite
differences.  Free-function cases integrate the factor ODE numerically with a
high-order adaptive scheme at local tolerance 1e-10.

One evaluation per distinct point: a float argument asks the jet for the
value only, and a ``Dual2`` argument asks for the value and both derivatives
once, at its value part, and chains them.  The real and imaginary solutions
of :func:`imag_whittaker_radial` share that one jet.  Each Whittaker jet and
each :func:`ode_factor` keeps the values at its last few distinct points in a
bounded :class:`~liesolve.specfun.PointMemo`, keyed on the exact bits of the
argument, so repeated stencil points cost nothing; the memo belongs to the
factor that a ``closed_form`` call builds, and nothing is cached process-wide.

The factors also take float lanes (see :mod:`liesolve.hyperdual`), each
lane bitwise its float call: the Whittaker and Bessel jets take lanes (see
:mod:`liesolve.specfun`), the even reflection is a product with +-1.0
rather than a branch, and an ODE factor evaluates its dense output once on
each half of its span.  The memos serve points, not lanes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import hyperdual as hd
from ..errors import DomainError, SpecfunDomain
from ..specfun import (
    ComplexLanes,
    PointMemo,
    bessel_jet,
    point_key,
    whittakerM_jet,
    whittakerW_jet,
)


def solve_ivp(*args, **kwargs):
    """``scipy.integrate.solve_ivp``, imported on first call."""
    from scipy.integrate import solve_ivp

    return solve_ivp(*args, **kwargs)


@dataclass
class SeparatedSolution:
    F1: object  # dual-capable callable of the first similarity variable
    F2: object  # dual-capable callable of the second
    coordinate_system: str = "cartesian"  # or "polar"

    def P(self, xi, eta):
        if self.coordinate_system == "polar":
            rho = hd.sqrt(xi * xi + eta * eta)
            th = hd.atan2(eta, xi)
            return self.F1(rho) * self.F2(th)
        return self.F1(xi) * self.F2(eta)


def _real(v):
    return v.real if isinstance(v, ComplexLanes) else complex(v).real


def _real_lift(jets):
    f, d1, d2 = jets
    return hd.lift1(lambda z: _real(f(z)), lambda z: _real(d1(z)), lambda z: _real(d2(z)))


def reflect(xi):
    """xi -> |xi| as a product with +-1.0, not a branch, so lanes pass: the
    factor ODEs are invariant under xi -> -xi, and the even reflection keeps
    the xi^(-1/2) branch real on both half-lines."""
    return xi * (1.0 - (hd.value(xi) < 0) * 2.0)


def whittaker_radial(d, s, C0, C1=1.0, C2=0.0):
    """Solution of F'' + d xi F' + (s - 2 C0/xi^2) F = 0:
    exp(-d xi^2/4) xi^(-1/2) Whittaker(kappa, mu)(d xi^2/2),
    kappa = s/(2d) - 1/4, mu = sqrt(8 C0 + 1)/4."""
    if 8 * C0 + 1 < 0:
        raise SpecfunDomain("whittaker order requires 8*C0 + 1 >= 0")
    mu = math.sqrt(8 * C0 + 1) / 4.0
    kap = s / (2.0 * d) - 0.25
    mfun = _real_lift(whittakerM_jet(kap, mu))
    wfun = _real_lift(whittakerW_jet(kap, mu)) if C2 else None

    def F(xi):
        xi = reflect(xi)
        z = 0.5 * d * xi * xi
        core = C1 * mfun(z)
        if wfun is not None:
            core = core + C2 * wfun(z)
        return hd.exp(-d * xi * xi / 4.0) * xi ** (-0.5) * core

    return F


def imag_whittaker_radial(w, s, C0, C1=1.0, C2=0.0):
    """Real solutions of F'' + (w^2 xi^2 + s - 2 C0/xi^2) F = 0 from the real
    and imaginary parts of xi^(-1/2) M_{-i s/(4w), mu}(i w xi^2)."""
    if 8 * C0 + 1 < 0:
        raise SpecfunDomain("whittaker order requires 8*C0 + 1 >= 0")
    mu = math.sqrt(8 * C0 + 1) / 4.0
    kap = -1j * s / (4.0 * w)
    f, d1, d2 = whittakerM_jet(kap, mu)
    iw = 1j * w

    def jets(xi):
        # value, first and second derivative of the complex factor at xi >= 0
        z = 1j * w * xi * xi
        val = f(z)
        dz = 2j * w * xi
        fz1 = d1(z)
        d1v = fz1 * dz
        d2v = d2(z) * dz * dz + fz1 * (2j * w)
        pref = xi ** (-0.5)
        Fv = pref * val
        F1v = -0.5 * xi ** (-1.5) * val + pref * d1v
        F2v = 0.75 * xi ** (-2.5) * val - xi ** (-1.5) * d1v + pref * d2v
        return Fv, F1v, F2v

    def F(xi):
        # even equation: reflect to the positive half-line (see
        # whittaker_radial); on the negative half-line F' changes sign
        if not isinstance(xi, hd.Dual2):
            xi = reflect(xi)
            # on lanes the complex products are CPython's, lane by lane
            i = ComplexLanes.of(iw) if isinstance(xi, np.ndarray) else iw
            v = xi ** (-0.5) * f(i * xi * xi)
            return C1 * v.real + C2 * v.imag
        x = xi.a
        Fv, F1v, F2v = jets(-x if x < 0 else x)
        if x < 0:
            F1v = -F1v
        re = hd._chain1(xi, Fv.real, F1v.real, F2v.real)
        im = hd._chain1(xi, Fv.imag, F1v.imag, F2v.imag)
        return C1 * re + C2 * im

    return F


def bessel_radial_jy(b, c1, C1=1.0, C2=0.0):
    """Solution of rho^2 F'' + rho F' + (4 b^2 rho^4 - c1) F = 0:
    C1 J_nu(b rho^2) + C2 Y_nu(b rho^2), nu = sqrt(c1)/2."""
    if c1 < 0:
        raise SpecfunDomain("bessel order requires c1 >= 0")
    nu = math.sqrt(c1) / 2.0
    jf = hd.lift1(*bessel_jet("J", nu))
    yf = hd.lift1(*bessel_jet("Y", nu)) if C2 else None

    def F(rho):
        z = b * rho * rho
        core = C1 * jf(z)
        if yf is not None:
            core = core + C2 * yf(z)
        return core

    return F


def bessel_radial_ik(d, c1, C1=1.0, C2=0.0):
    """Solution of F'' + (d rho + 1/rho) F' - (c1/rho^2) F = 0:
    rho e^{-d rho^2/4} [C1 (I_{nm} + I_{np}) + C2 (K_{nm} - K_{np})](d rho^2/4)."""
    if c1 < 0:
        raise SpecfunDomain("modified-bessel order requires c1 >= 0")
    nm = (math.sqrt(c1) - 1.0) / 2.0
    np_ = (math.sqrt(c1) + 1.0) / 2.0
    i1 = hd.lift1(*bessel_jet("I", nm))
    i2 = hd.lift1(*bessel_jet("I", np_))
    k1 = hd.lift1(*bessel_jet("K", nm)) if C2 else None
    k2 = hd.lift1(*bessel_jet("K", np_)) if C2 else None

    def F(rho):
        s = d * rho * rho / 4.0
        core = C1 * (i1(s) + i2(s))
        if k1 is not None:
            core = core + C2 * (k1(s) - k2(s))
        return rho * hd.exp(-s) * core

    return F


def trig_angular(c1, C0, C3=1.0, C4=0.0):
    """C3 sin(q theta) + C4 cos(q theta) with q = sqrt(c1 - 2 C0)."""
    if c1 - 2 * C0 < 0:
        raise SpecfunDomain("angular frequency requires c1 >= 2 C0")
    q = math.sqrt(c1 - 2 * C0)

    def F(th):
        return C3 * hd.sin(q * th) + C4 * hd.cos(q * th)

    return F


def ode_factor(C, c1, span, Ca=1.0, Cb=0.0, anchor=None):
    """Numeric fundamental solutions of F'' + (c1 - 2 C(s)) F = 0 on span.

    Returns Ca*S1 + Cb*S2 with S1(anchor)=1, S1'(anchor)=0 and S2(anchor)=0,
    S2'(anchor)=1.  Second derivatives come from the ODE itself.
    """
    a, bnd = span
    anchor = anchor if anchor is not None else 0.5 * (a + bnd)

    def rhs(s, state):
        f1, f1p, f2, f2p = state
        acc = 2.0 * C(s) - c1
        return [f1p, acc * f1, f2p, acc * f2]

    sol = solve_ivp(
        rhs,
        (anchor, bnd),
        [1.0, 0.0, 0.0, 1.0],
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
        dense_output=True,
    )
    sol_back = solve_ivp(
        rhs,
        (anchor, a),
        [1.0, 0.0, 0.0, 1.0],
        method="DOP853",
        rtol=1e-10,
        atol=1e-12,
        dense_output=True,
    )

    states = PointMemo()  # point -> (S1, S1', S2, S2') from the dense output

    def state_at(s):
        if isinstance(s, np.ndarray):
            return states_on(np.asarray(s, float))
        key = point_key(s)
        st = states.get(key)
        if st is not None:
            return st
        if s >= anchor:
            if s > sol.t[-1] + 1e-12:
                raise DomainError(f"ODE factor evaluated outside span at {s}")
            st = sol.sol(min(s, sol.t[-1]))
        else:
            if s < sol_back.t[-1] - 1e-12:
                raise DomainError(f"ODE factor evaluated outside span at {s}")
            st = sol_back.sol(max(s, sol_back.t[-1]))
        states.put(key, s, st)
        return st

    def states_on(s):
        # lanes: each half of the span's dense output once on its lanes
        fwd = s >= anchor
        out = np.empty((4, s.size))
        for mask, res, beyond, clip in (
            (fwd, sol, s > sol.t[-1] + 1e-12, np.minimum),
            (~fwd, sol_back, s < sol_back.t[-1] - 1e-12, np.maximum),
        ):
            bad = mask & beyond
            if bad.any():
                raise DomainError(f"ODE factor evaluated outside span at {s[bad][0]}")
            if mask.any():
                out[:, mask] = res.sol(clip(s[mask], res.t[-1]))
        return out

    def value(s):
        st = state_at(s)
        return Ca * st[0] + Cb * st[2]

    def deriv(s):
        st = state_at(s)
        return Ca * st[1] + Cb * st[3]

    def second(s):
        return (2.0 * C(s) - c1) * value(s)

    return hd.lift1(value, deriv, second)


def exp_factor_18b(c1):
    def F(eta):
        return hd.exp(-0.5 * c1 * eta)

    return F


def exp_factor_18a(c1, b, b0, b1):
    """F2 for the boost-on-a-line case: F'/F = -c1/2 - V(eta) with
    V = b1/(2h) - b^2 eta^2 (b1 eta + 2 b0)^2 / (8 h^2), h = b1 eta + b0."""

    def intV(eta):
        h = b1 * eta + b0
        if b1 == 0.0:
            quart = 4.0 * eta**3 / 3.0
            logh = 0.0
        else:
            quart = (
                eta**3 / 3.0
                + b0 * eta * eta / b1
                - b0 * b0 * eta / (b1 * b1)
                - b0**4 / (b1**3 * h)
            )
            logh = 0.5 * hd.log(h)
        return logh - b * b * quart / 8.0

    def F(eta):
        return hd.exp(-0.5 * c1 * eta - intV(eta))

    return F
