"""Asset-space to potential-form transformation chain.

Pipeline for the two-asset pricing equation

    c_t + (1/2) s1^2 c_11 + rho s1 s2 c_12 + (1/2) s2^2 c_22
        + r S1 c_1 + r S2 c_2 - r c = 0:

1. integrate 1/sigma per asset and combine the antiderivatives into sum and
   difference coordinates (:func:`coord_map`);
2. eliminate the first-order drift with a scalar gauge exp(omega), where
   grad(omega) = -(Q1, Q2) and the compatibility (zero-curl) condition makes
   omega well-defined (:func:`drift_and_gauge`);
3. read off the potential M = (1/2)(div Q + |Q|^2) (:func:`potential_m`);
4. map solutions of the potential heat equation back to prices
   (:func:`price_from_u`).

Every field here is a plain callable.  The derivatives of Q are exact jets
when every volatility carries them and five-point stencils otherwise
(:func:`_q_partial`): a :class:`TabulatedVol` is a black box.

Chart conventions.  ``coord_map`` uses the prefactors sqrt(2/(1 +/- rho)) on
the antiderivative sum/difference.  Producing *exactly* the normalized heat
operator (1/2) Laplacian requires half those prefactors, so the gauge chain
(steps 2-4) runs on the "gauge chart" (x, y)/2; `gauge_coord_map` exposes it.
In one dimension x = integral dS/sigma is already normalized and the two
charts coincide.  The one-dimensional drift coefficient is derived directly
from the pricing equation: Q = r S / sigma - sigma'(S)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hyperdual as hd
from . import numdiff
from .errors import (
    DomainError,
    GaugeObstruction,
    OutOfRange,
    QuadratureFailure,
)

QUAD_TOL = 1e-11


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first call; every quadrature in
    this module looks it up here, so wrapping this name sees them all."""
    from scipy.integrate import quad

    return quad(*args, **kwargs)


# ---------------------------------------------------------------------------
# volatility specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CEVVol:
    """sigma(S) = sigma * S^alpha (the total diffusion coefficient)."""

    sigma: float
    alpha: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError("CEV sigma must be positive")
        if self.alpha < 0:
            raise DomainError("CEV alpha must be non-negative")

    dual = True

    def value(self, S):
        if self.alpha == 0.0:
            return self.sigma + 0.0 * S
        return self.sigma * S**self.alpha

    def slope(self, S):
        if self.alpha == 0.0:
            return 0.0 * S
        return self.sigma * self.alpha * S ** (self.alpha - 1.0)

    def antideriv(self, S):
        # integral dS/sigma from 0 for alpha < 1; the same closed form
        # S^(1-alpha)/(sigma (1-alpha)) continues through alpha > 1, where it
        # is negative (improper integral convention)
        a = self.alpha
        if a == 1.0:
            return hd.log(S) / self.sigma
        return S ** (1.0 - a) / (self.sigma * (1.0 - a))

    def invert(self, I):
        a = self.alpha
        if a == 1.0:
            return hd.exp(self.sigma * I)
        base = self.sigma * (1.0 - a) * I
        if hd.value(base) <= 0.0:
            raise OutOfRange(f"antiderivative value {hd.value(I)} not attained by the CEV map")
        return base ** (1.0 / (1.0 - a))


@dataclass(frozen=True)
class ExponentialVol:
    """sigma(S) = exp(-S)."""

    dual = True

    def value(self, S):
        return hd.exp(-S)

    def slope(self, S):
        return -hd.exp(-S)

    def antideriv(self, S):
        return hd.exp(S) - 1.0

    def invert(self, I):
        if hd.value(I) <= -1.0:
            raise OutOfRange(f"antiderivative value {hd.value(I)} not attained")
        return hd.log(1.0 + I)


@dataclass(frozen=True)
class RescaledExponentialVol:
    """sigma(S) = sigma0 * S0 * exp(alpha (1 - S/S0))."""

    sigma0: float
    s0: float
    alpha: float

    def __post_init__(self):
        if self.sigma0 <= 0 or self.s0 <= 0:
            raise DomainError("sigma0 and S0 must be positive")

    dual = True

    def value(self, S):
        return self.sigma0 * self.s0 * hd.exp(self.alpha * (1.0 - S / self.s0))

    def slope(self, S):
        return -(self.alpha / self.s0) * self.value(S)

    def antideriv(self, S):
        if self.alpha == 0.0:
            return S / (self.sigma0 * self.s0)
        return (hd.exp(self.alpha * (S / self.s0 - 1.0)) - math.exp(-self.alpha)) / (
            self.sigma0 * self.alpha
        )

    def invert(self, I):
        if self.alpha == 0.0:
            return I * self.sigma0 * self.s0
        arg = self.sigma0 * self.alpha * I + math.exp(-self.alpha)
        if hd.value(arg) <= 0.0:
            raise OutOfRange(f"antiderivative value {hd.value(I)} not attained")
        return self.s0 * (1.0 + hd.log(arg) / self.alpha)


@dataclass(frozen=True)
class TabulatedVol:
    """Black-box sigma(S) with its derivative; quadrature antiderivative."""

    fn: object
    dfn: object
    s_ref: float = 0.0
    s_min: float = 1e-8
    s_max: float = 1e8

    dual = False

    def value(self, S):
        return self.fn(hd.value(S))

    def slope(self, S):
        return self.dfn(hd.value(S))

    def antideriv(self, S):
        S = hd.value(S)
        val, err = quad(lambda u: 1.0 / self.fn(u), self.s_ref, S, epsabs=QUAD_TOL, limit=200)
        if err > max(1e-10, 1e-12 * abs(val)):
            raise QuadratureFailure(f"antiderivative quadrature error {err:.2e}")
        return val

    def invert(self, I):
        from scipy.optimize import brentq

        I = hd.value(I)

        def g(S):
            return self.antideriv(S) - I

        # 1/sigma > 0 makes the antiderivative monotone: expand the bracket
        lo = self.s_min
        hi = max(1.0, 4.0 * self.s_min)
        try:
            if g(lo) > 0:
                raise OutOfRange(f"antiderivative value {I} below the domain image")
            while g(hi) < 0:
                hi *= 4.0
                if hi > self.s_max:
                    raise OutOfRange(f"antiderivative value {I} above the domain image")
            return brentq(g, lo, hi, xtol=1e-12, rtol=1e-14)
        except ValueError as exc:
            raise OutOfRange(str(exc)) from exc


@dataclass(frozen=True)
class MarketModel:
    vol1: object
    vol2: object = None
    rho: float = 0.0
    rate: float = 0.0

    def __post_init__(self):
        if abs(self.rho) >= 1.0:
            raise DomainError("the coordinate map degenerates at |rho| = 1")
        if self.rate < 0.0:
            raise DomainError("rate must be non-negative")

    @property
    def one_dim(self):
        return self.vol2 is None

    @property
    def dual_ok(self):
        if self.one_dim:
            return self.vol1.dual
        return self.vol1.dual and self.vol2.dual


@dataclass
class GaugeData:
    Q1: object  # callables on the gauge chart
    Q2: object
    omega: object
    curl_residual: object
    max_curl: float


# ---------------------------------------------------------------------------
# coordinate maps
# ---------------------------------------------------------------------------


def _prefactors(rho):
    return math.sqrt(2.0 / (1.0 + rho)), math.sqrt(2.0 / (1.0 - rho))


def coord_map(model: MarketModel, S1, S2=None):
    """Printed-prefactor map: x = a (I2 + I1), y = b (I2 - I1)."""
    if model.one_dim:
        if S2 is not None:
            raise DomainError("one-dimensional model takes a single price")
        return model.vol1.antideriv(S1), None
    a, b = _prefactors(model.rho)
    i1 = model.vol1.antideriv(S1)
    i2 = model.vol2.antideriv(S2)
    return a * (i2 + i1), b * (i2 - i1)


def gauge_coord_map(model: MarketModel, S1, S2=None):
    """Chart on which the transformed equation carries exactly (1/2) Lap."""
    x, y = coord_map(model, S1, S2)
    if model.one_dim:
        return x, None
    return 0.5 * x, 0.5 * y


def invert_coord(model: MarketModel, x, y=None):
    """Inverse of coord_map; OutOfRange when (x, y) is not attained."""
    if model.one_dim:
        return (model.vol1.invert(x),)
    if y is None:
        raise DomainError("two-dimensional model needs both coordinates")
    a, b = _prefactors(model.rho)
    i1 = 0.5 * (x / a - y / b)
    i2 = 0.5 * (x / a + y / b)
    return model.vol1.invert(i1), model.vol2.invert(i2)


def invert_gauge_coord(model: MarketModel, xg, yg=None):
    if model.one_dim:
        return (model.vol1.invert(xg),)
    return invert_coord(model, 2.0 * xg, 2.0 * yg)


# ---------------------------------------------------------------------------
# drift coefficients, gauge and potential
# ---------------------------------------------------------------------------


def _q_partial(model: MarketModel, Q, args, i):
    """dQ/d args[i]: the exact jet when every volatility carries jets, the
    five-point stencil at h0 = 1e-4 otherwise."""
    if model.dual_ok:
        return hd.derivative(Q, args, i)
    return numdiff.partial1(Q, args, i, 1e-4)


def _q_fields(model: MarketModel):
    r = model.rate
    if model.one_dim:
        vol = model.vol1

        def Q(x):
            S = vol.invert(x)
            return r * S / vol.value(S) - 0.5 * vol.slope(S)

        return Q, None

    ah = 1.0 / math.sqrt(2.0 * (1.0 + model.rho))
    bh = 1.0 / math.sqrt(2.0 * (1.0 - model.rho))
    v1, v2 = model.vol1, model.vol2

    def Q1(xg, yg):
        S1, S2 = invert_gauge_coord(model, xg, yg)
        return ah * (
            r * S1 / v1.value(S1)
            + r * S2 / v2.value(S2)
            - 0.5 * (v1.slope(S1) + v2.slope(S2))
        )

    def Q2(xg, yg):
        S1, S2 = invert_gauge_coord(model, xg, yg)
        return bh * (
            r * S2 / v2.value(S2)
            - r * S1 / v1.value(S1)
            + 0.5 * (v1.slope(S1) - v2.slope(S2))
        )

    return Q1, Q2


def default_gauge_sampling(model: MarketModel):
    """Forward-mapped 6-point-per-axis grid of the desk-scale price box
    [0.5, 2]^d."""
    ss = np.linspace(0.5, 2.0, 6)
    pts = []
    if model.one_dim:
        for s in ss:
            pts.append((hd.value(gauge_coord_map(model, s)[0]),))
        return pts
    for s1 in ss:
        for s2 in ss:
            xg, yg = gauge_coord_map(model, s1, s2)
            pts.append((hd.value(xg), hd.value(yg)))
    return pts


def drift_and_gauge(model: MarketModel) -> GaugeData:
    """Drift coefficients, scalar gauge, and the compatibility residual.

    omega integrates -(Q1, Q2) along the axis-aligned L-path from the image
    of the spot (1, 1); path independence is exactly the zero-curl
    condition, which is checked first, to 1e-8, on
    :func:`default_gauge_sampling`.  On failure the data is still assembled
    and attached to the raised :class:`GaugeObstruction`.
    """
    Q1, Q2 = _q_fields(model)

    if model.one_dim:
        x0 = hd.value(gauge_coord_map(model, 1.0)[0])

        def omega(x):
            val, err = quad(lambda s: -Q1(s), x0, hd.value(x), epsabs=QUAD_TOL, limit=200)
            if err > 1e-9:
                raise QuadratureFailure(f"gauge quadrature error {err:.2e}")
            return val

        return GaugeData(Q1, None, omega, None, 0.0)

    def curl(xg, yg):
        return _q_partial(model, Q2, (xg, yg), 0) - _q_partial(model, Q1, (xg, yg), 1)

    max_curl = 0.0
    for p in default_gauge_sampling(model):
        try:
            max_curl = max(max_curl, abs(curl(*p)))
        except (OutOfRange, DomainError):
            continue

    x0, y0 = gauge_coord_map(model, 1.0, 1.0)
    x0, y0 = hd.value(x0), hd.value(y0)

    def omega(xg, yg):
        xg, yg = hd.value(xg), hd.value(yg)
        leg1, e1 = quad(lambda s: -Q1(s, y0), x0, xg, epsabs=QUAD_TOL, limit=200)
        leg2, e2 = quad(lambda s: -Q2(xg, s), y0, yg, epsabs=QUAD_TOL, limit=200)
        if max(e1, e2) > 1e-9:
            raise QuadratureFailure(f"gauge quadrature error {max(e1, e2):.2e}")
        return leg1 + leg2

    data = GaugeData(Q1, Q2, omega, curl, max_curl)
    if max_curl > 1e-8:
        raise GaugeObstruction(
            f"compatibility condition violated: max |curl Q| = {max_curl:.3e}", gauge=data
        )
    return data


def potential_m(model: MarketModel, gauge: GaugeData | None = None):
    """M = (1/2)(dQ1/dx + dQ2/dy + Q1^2 + Q2^2) on the gauge chart."""
    if gauge is None:
        gauge = drift_and_gauge(model)
    Q1, Q2 = gauge.Q1, gauge.Q2

    if model.one_dim:
        def M(x):
            return 0.5 * (_q_partial(model, Q1, (x,), 0) + Q1(x) ** 2)

        return M

    def M(xg, yg):
        return 0.5 * (
            _q_partial(model, Q1, (xg, yg), 0)
            + _q_partial(model, Q2, (xg, yg), 1)
            + Q1(xg, yg) ** 2
            + Q2(xg, yg) ** 2
        )

    return M


def price_from_u(model: MarketModel, u, T: float, gauge: GaugeData | None = None):
    """c(S1, S2, t) = exp(omega - r (T-t)) u(gauge coords, T-t)."""
    if gauge is None:
        gauge = drift_and_gauge(model)
    omega = gauge.omega
    r = model.rate

    if model.one_dim:
        def c(S, t):
            x, _ = gauge_coord_map(model, S)
            tau = T - t
            return math.exp(omega(hd.value(x)) - r * tau) * u(hd.value(x), tau)

        return c

    def c(S1, S2, t):
        xg, yg = gauge_coord_map(model, S1, S2)
        xg, yg = hd.value(xg), hd.value(yg)
        tau = T - t
        return math.exp(omega(xg, yg) - r * tau) * u(xg, yg, tau)

    return c
