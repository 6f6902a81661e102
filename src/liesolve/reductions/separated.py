"""Separated solution factors for the reduction catalog.

Factors are dual-transparent callables assembled from the special-function
kernel; second derivatives come from exact parameter-shift jets or from the
factor's own equation, never finite differences.  Free-function cases solve
the factor ODE F'' = (2 C(s) - c1) F in one Chebyshev spectral-integration
solve over the whole span (:func:`ode_factor`): the degree doubles from 48
until the last Chebyshev coefficients of both fundamental solutions fall
below 1e-13 of the largest, and a C the cap cannot resolve raises
:class:`DivergenceError`, as a node where C is not finite, or a bad span or
anchor, raises :class:`DomainError`.  Case 1.1b's factor
(:func:`imag_whittaker_radial`) is the real Frobenius pair of its equation.

One evaluation per distinct point or lane set: a float argument asks for
the value only, and a ``Dual2`` argument for the value and both derivatives
once, at its value part.  Each jet and factor keeps its values at its last
few distinct points or lane sets in a bounded
:class:`~liesolve.specfun.PointMemo`, so repeated stencil points, and the
stacked seeded pass and the float pass of a reduced operator on one set of
points, cost one evaluation; no value is cached process-wide.

The factors take float and ``Dual2`` lanes (see :mod:`liesolve.hyperdual`),
each lane bitwise its float call: the jets take lanes, the even reflection
is a product with +-1.0 rather than a branch, powers are Python's pow per
lane, and an ODE factor interpolates on all its lanes in one pass whose
per-lane sums run over the nodes alone.  The Chebyshev matrices of each
degree are built once per process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .. import hyperdual as hd
from ..errors import DivergenceError, DomainError, SpecfunDomain
from ..specfun import bessel_jet, coulomb_jet, lane_memo, whittakerM_jet, whittakerW_jet


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
    return v if isinstance(v, np.ndarray) else complex(v).real


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


def _power(xi, p):
    """(xi^p, its derivative): an integer p continues across 0 with its
    parity, any other is taken of |xi|, as (xi^2)^(p/2)."""
    if isinstance(xi, np.ndarray):
        xi = xi.view(hd._FloatLanes)  # ** per lane
    if p != int(p):
        g = (xi * xi) ** (0.5 * p)
        return g, p * g / xi
    return (1.0, 0.0) if p == 0 else (xi ** int(p), p * xi ** (int(p) - 1))


def _state_factor(at_point, at_lanes, coef):
    """A factor from its (F, F') states at a point and at distinct lanes (see
    :func:`~liesolve.specfun.lane_memo`) and its equation F'' = coef(x) F."""
    state = lane_memo(at_point, at_lanes)
    return hd.lift1(lambda x: state(x)[0], lambda x: state(x)[1], lambda x: coef(x) * state(x)[0])


def imag_whittaker_radial(w, s, C0, C1=1.0, C2=0.0):
    """C1 F+ + C2 F- for F'' + (w^2 xi^2 + s - 2 C0/xi^2) F = 0: the real
    Frobenius pair F+- = xi^(1/2 +- 2 mu) psi+-(w xi^2), mu = sqrt(8 C0 +
    1)/4, psi+- the Coulomb series (:func:`~liesolve.specfun.coulomb_jet`)
    at b = 1 +- 2 mu, eta = s/(4 w).  F+ is xi^(-1/2) M_{-is/(4w),mu}(i w
    xi^2) over e^(i pi (2 mu + 1)/4) w^(mu + 1/2); F-, built only when C2
    != 0, raises :class:`SpecfunDomain` at an integer 2 mu.  Powers follow
    :func:`_power` (C0 = 0: F+ odd, F- even); F'' comes from the equation,
    so float and ``Dual2`` lanes pass, each bitwise its point."""
    if 8 * C0 + 1 < 0:
        raise SpecfunDomain("whittaker order requires 8*C0 + 1 >= 0")
    if not w > 0:
        raise SpecfunDomain(f"imaginary-Whittaker factor requires w > 0, got w = {w!r}")
    mu = math.sqrt(8 * C0 + 1) / 4.0
    if C2 and abs(2.0 * mu - round(2.0 * mu)) <= 1e-12:
        raise SpecfunDomain(f"the second Frobenius solution needs a non-integer 2 mu; "
                            f"2 mu = {2.0 * mu!r} at C0 = {C0!r} (C2 = {C2!r})")
    pair = [(C, 0.5 + 2.0 * m, coulomb_jet(1.0 + 2.0 * m, s / (4.0 * w)))
            for C, m in ((C1, mu), (C2, -mu))[: 2 if C2 else 1]]

    def frobenius(xi):  # (F, F') at a point or at distinct lanes
        tau = w * xi * xi
        F = dF = 0.0
        for C, p, psi in pair:
            v, dv = psi(tau)
            g, dg = _power(xi, p)
            F = F + C * (g * v)
            dF = dF + C * (dg * v + g * (2.0 * w * xi) * dv)
        return F, dF

    def coef(xi):
        r = w * w * (xi * xi) + s
        return -(r - 2.0 * C0 / (xi * xi)) if C0 else -r

    return _state_factor(frobenius, frobenius, coef)


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


# Chebyshev degrees of an ODE factor's spectral solve: the first, and the cap
# the doubling stops at; the relative size its last coefficients must reach
ODE_N_START = 48
ODE_N_CAP = 384
ODE_TAIL_TOL = 1e-13
_ODE_TAIL = 4  # coefficients in the tail


@lru_cache(maxsize=None)
def _chebyshev(n):
    """Chebyshev points x_j = cos(j pi / n) of degree n (exactly symmetric),
    their barycentric weights, the values-to-coefficients matrix ``T``, the
    indefinite-integration matrix ``BT`` (values to the coefficients of an
    antiderivative) and its values ``EBT`` at the points."""
    j = np.arange(n + 1)
    x = np.sin(np.pi * (n - 2 * j) / (2 * n))
    half = np.where((j == 0) | (j == n), 0.5, 1.0)
    w = (-1.0) ** j * half
    # T_k(x_j) = cos(jk pi / n) and the discrete orthogonality of its rows
    T = (2.0 / n) * half[:, None] * np.cos(np.outer(j, j) * (np.pi / n)) * half
    # antiderivatives up to a constant: T_0 -> T_1, T_1 -> T_2/4 and
    # T_k -> T_{k+1}/(2(k+1)) - T_{k-1}/(2(k-1)) for k >= 2
    B = np.zeros((n + 2, n + 1))
    B[j + 1, j] = np.where(j == 0, 1.0, 0.5 / (j + 1))
    B[j[2:] - 1, j[2:]] = -0.5 / (j[2:] - 1)
    BT = B @ T
    return x, w, T, BT, np.cos(np.outer(j, np.arange(n + 2)) * (np.pi / n)) @ BT


def _fundamental(C, c1, a, b, anchor):
    """Nodes s, their barycentric weights, and the states of S1, S2
    (columns) and of S1', S2' at the nodes.

    Spectral integration (Greengard 1991): the unknowns are g = F'' at the
    Chebyshev points of [a, b].  With Q the indefinite integral from the
    anchor in x = (2s - a - b)/(b - a) and h = (b - a)/2, F = base + h^2 Q^2 g
    and F' = base' + h Q g, so one dense solve of (I - diag(q) h^2 Q^2) g =
    q base, q = 2 C(s) - c1 at the nodes, gives both fundamental solutions.
    The degree doubles from ``ODE_N_START`` until the last coefficients of
    both solutions are below ``ODE_TAIL_TOL`` of their largest."""
    h, mid = 0.5 * (b - a), 0.5 * (a + b)
    theta_a = math.acos(min(1.0, max(-1.0, (anchor - mid) / h)))
    n = ODE_N_START
    while True:
        x, w, T, BT, EBT = _chebyshev(n)
        s = mid + h * x
        s[0], s[n] = b, a
        q = np.empty(n + 1)
        for i, sv in enumerate(s.tolist()):
            try:
                qv = float(2.0 * C(sv) - c1)
            except (ZeroDivisionError, OverflowError) as exc:
                raise DomainError(f"ODE factor: C is not finite at node s = {sv!r} ({exc})") from exc
            if not math.isfinite(qv):
                raise DomainError(f"ODE factor: 2 C(s) - c1 = {qv!r} at node s = {sv!r}")
            q[i] = qv
        Q = EBT - np.cos(np.arange(n + 2) * theta_a) @ BT  # integral from the anchor
        hQ2 = (h * h) * (Q @ Q)
        base = np.stack([np.ones(n + 1), s - anchor], axis=1)
        g = np.linalg.solve(np.eye(n + 1) - q[:, None] * hQ2, q[:, None] * base)
        F = base + hQ2 @ g
        coef = np.abs(T @ F)
        tail = (coef[-_ODE_TAIL:].max(axis=0) / coef.max(axis=0)).max()
        if tail <= ODE_TAIL_TOL:
            return s, w, F, np.array([0.0, 1.0]) + h * (Q @ g)
        if n >= ODE_N_CAP:
            raise DivergenceError(
                f"ODE factor on span ({a!r}, {b!r}) unresolved at Chebyshev degree {n}: "
                f"coefficient tail {tail:.3g} of the largest (> {ODE_TAIL_TOL:g})"
            )
        n *= 2


def _barycentric(s, nodes, w, vals):
    """Rows of ``vals`` (nodal values) interpolated at the points ``s``, one
    row per point.  Each point's sums run over the nodes alone, so a point
    gives the same bits alone or among other lanes; a point on a node takes
    the node's values."""
    d = s[:, None] - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        t = w / d
        out = (t[:, None, :] * vals).sum(axis=-1) / t.sum(axis=-1)[:, None]
    at, node = np.nonzero(d == 0.0)
    out[at] = vals[:, node].T
    return out


def ode_factor(C, c1, span, Ca=1.0, Cb=0.0, anchor=None):
    """Numeric fundamental solutions of F'' + (c1 - 2 C(s)) F = 0 on span.

    Returns Ca*S1 + Cb*S2 with S1(anchor)=1, S1'(anchor)=0 and S2(anchor)=0,
    S2'(anchor)=1, from one Chebyshev spectral solve over the whole span (see
    :func:`_fundamental`); the value and F' are barycentric interpolants of
    their nodal values, and F'' comes from the ODE itself.

    Raises :class:`DomainError` for an empty or non-finite span, an anchor
    outside it, a node where C is not finite, and a point outside the span;
    :class:`DivergenceError` when degree ``ODE_N_CAP`` cannot resolve C.
    """
    a, b = float(span[0]), float(span[1])
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"ODE factor span ({a!r}, {b!r}) must be finite and non-empty")
    anchor = 0.5 * (a + b) if anchor is None else float(anchor)
    if not a <= anchor <= b:
        raise DomainError(f"ODE factor anchor {anchor!r} outside span ({a!r}, {b!r})")
    nodes, w, F, Fp = _fundamental(C, c1, a, b, anchor)
    vals = np.stack([Ca * F[:, 0] + Cb * F[:, 1], Ca * Fp[:, 0] + Cb * Fp[:, 1]])
    lo, hi = a - 1e-12, b + 1e-12

    def check(s):
        bad = (s < lo) | (s > hi)
        if np.any(bad):
            at = s[bad][0] if np.ndim(s) else s
            raise DomainError(f"ODE factor evaluated outside span at {at}")
        return s

    return _state_factor(
        lambda s: _barycentric(np.array([check(s)], float), nodes, w, vals)[0].tolist(),
        lambda s: _barycentric(check(s), nodes, w, vals).T,
        lambda s: 2.0 * C(s) - c1,
    )


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
