"""Asset-space to potential-form transformation chain.

Pipeline for the two-asset pricing equation

    c_t + (1/2) s1^2 c_11 + rho s1 s2 c_12 + (1/2) s2^2 c_22
        + r S1 c_1 + r S2 c_2 - r c = 0:

1. integrate 1/sigma per asset and combine the antiderivatives into sum and
   difference coordinates (:func:`coord_map`);
2. eliminate the first-order drift with a scalar gauge exp(omega), where
   grad(omega) = -(Q1, Q2) and the compatibility (zero-curl) condition makes
   omega well-defined (:func:`drift_and_gauge`); omega is a Gauss-Kronrod
   lane rule (:func:`gauss_kronrod`), one evaluation of Q per panel for
   every lane;
3. read off the potential M = (1/2)(div Q + |Q|^2) (:func:`potential_m`);
4. map solutions of the potential heat equation back to prices
   (:func:`price_from_u`).

Every field here is a plain callable, and every map, drift field, omega
and price takes float lanes (see :mod:`liesolve.hyperdual`) as it takes
floats; an inverse map raises :class:`OutOfRange` when any lane is not
attained.  The derivatives of Q are exact jets when every volatility carries
them and five-point stencils otherwise (:func:`_q_partial`): a
:class:`TabulatedVol` is a black box, evaluated one lane at a time, whose
antiderivative is the one adaptive quadrature left (:func:`quad`).

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
GAUGE_TOL = 1e-9  # |K15 - G7| bound of an accepted omega panel
GAUGE_PANELS = 200  # panels per lane before omega raises QuadratureFailure


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, imported on first call; every adaptive
    quadrature in this module (the :class:`TabulatedVol` antiderivative)
    looks it up here, so wrapping this name sees them all."""
    from scipy.integrate import quad

    return quad(*args, **kwargs)


# Gauss-Kronrod G7/K15 on [-1, 1] (Piessens et al., QUADPACK, 1983, qk15):
# the positive Kronrod nodes, largest first, with their Kronrod weights; the
# Gauss nodes are those of odd index, and the centre is a node of both rules
_GK_X = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_GK_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,  # centre
)
_GK_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,  # centre
)
# the 15 nodes in increasing order, as a column, and (node index, weight)
# pairs of each rule
_NODES = np.array([-x for x in _GK_X] + [0.0] + list(reversed(_GK_X)))[:, None]
_KRONROD = tuple(enumerate(_GK_WK + _GK_WK[-2::-1]))
_GAUSS = tuple(zip(range(1, 15, 2), _GK_WG + _GK_WG[-2::-1]))


def gauss_kronrod(f, a, b, args=()):
    """The integral of ``f`` from ``a`` to ``b`` on every lane, by the G7/K15
    pair.

    ``a``, ``b`` and each of ``args`` are floats or lanes, broadcast to one
    shape; ``f(s, *args)`` takes float lanes of nodes, with ``args`` taken at
    each node's lane.  Each round evaluates ``f`` once, at the 15 nodes of
    every open panel.  A panel whose |K15 - G7| is at most GAUGE_TOL adds
    its K15 to its lane's sum; any other is halved.  A non-finite panel, or
    a lane that needs more than GAUGE_PANELS panels, raises
    :class:`QuadratureFailure`.  A lane's panels and their order of
    summation depend on that lane alone, so each lane is bitwise its own
    one-lane call, and float bounds, one lane, give a float.
    """
    scalar = not any(isinstance(v, np.ndarray) for v in (a, b, *args))
    cols = np.broadcast_arrays(*(np.asarray(v, float) for v in (a, b, *args)))
    shape = cols[0].shape
    lo, hi, *args = (c.ravel() for c in cols)
    total = np.zeros(lo.size)
    panels = np.ones(lo.size, int)
    lane = np.arange(lo.size)
    while lane.size:
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        nodes = mid + half * _NODES
        at = np.broadcast_to(lane, nodes.shape).ravel()
        fs = f(hd.float_lanes(nodes.ravel()), *(hd.float_lanes(v[at]) for v in args))
        fs = np.broadcast_to(np.asarray(fs, float), at.shape).reshape(nodes.shape)
        kronrod = gauss = 0.0
        for k, w in _KRONROD:
            kronrod = kronrod + w * fs[k]
        for k, w in _GAUSS:
            gauss = gauss + w * fs[k]
        kronrod, gauss = half * kronrod, half * gauss
        if not np.isfinite(kronrod).all():
            raise QuadratureFailure("gauge integrand is not finite on a panel")
        done = np.abs(kronrod - gauss) <= GAUGE_TOL
        np.add.at(total, lane[done], kronrod[done])
        split = ~done
        lane, lo, mid, hi = lane[split], lo[split], mid[split], hi[split]
        np.add.at(panels, lane, 1)
        if lane.size and panels[lane].max() > GAUGE_PANELS:
            raise QuadratureFailure(
                f"gauge quadrature: |K15 - G7| above {GAUGE_TOL:g} on {GAUGE_PANELS} panels"
            )
        lane = np.repeat(lane, 2)
        lo, hi = np.stack((lo, mid), 1).ravel(), np.stack((mid, hi), 1).ravel()
    if scalar:
        return float(total[0])
    return hd.float_lanes(total.reshape(shape))


def _unattained(bad, I):
    """The first value of ``I`` (a float or lanes) at which ``bad`` holds, or
    None: an inverse map raises :class:`OutOfRange` there."""
    if not isinstance(bad, np.ndarray):
        return hd.value(I) if bad else None
    if not bad.any():
        return None
    return float(np.broadcast_to(hd.value(I), bad.shape)[bad][0])


def _per_lane_value(f, S):
    """``f`` at the value of ``S``, one call per lane when it holds lanes."""
    v = hd.value(S)
    if not isinstance(v, np.ndarray):
        return f(v)
    return hd.float_lanes([f(s) for s in v.ravel().tolist()]).reshape(v.shape)


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
        bad = _unattained(hd.value(base) <= 0.0, I)
        if bad is not None:
            raise OutOfRange(f"antiderivative value {bad} not attained by the CEV map")
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
        bad = _unattained(hd.value(I) <= -1.0, I)
        if bad is not None:
            raise OutOfRange(f"antiderivative value {bad} not attained")
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
        bad = _unattained(hd.value(arg) <= 0.0, I)
        if bad is not None:
            raise OutOfRange(f"antiderivative value {bad} not attained")
        return self.s0 * (1.0 + hd.log(arg) / self.alpha)


@dataclass(frozen=True)
class TabulatedVol:
    """Black-box sigma(S) with its derivative; quadrature antiderivative.
    Each method takes lanes one lane at a time."""

    fn: object
    dfn: object
    s_ref: float = 0.0
    s_min: float = 1e-8
    s_max: float = 1e8

    dual = False

    def value(self, S):
        return _per_lane_value(self.fn, S)

    def slope(self, S):
        return _per_lane_value(self.dfn, S)

    def antideriv(self, S):
        return _per_lane_value(self._antideriv, S)

    def invert(self, I):
        return _per_lane_value(self._invert, I)

    def _antideriv(self, S):
        val, err = quad(lambda u: 1.0 / self.fn(u), self.s_ref, S, epsabs=QUAD_TOL, limit=200)
        if err > max(1e-10, 1e-12 * abs(val)):
            raise QuadratureFailure(f"antiderivative quadrature error {err:.2e}")
        return val

    def _invert(self, I):
        from scipy.optimize import brentq

        def g(S):
            return self._antideriv(S) - I

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
    of the spot (1, 1), each leg one :func:`gauss_kronrod` over every lane
    (one leg in 1-D); path independence is exactly the zero-curl
    condition, which is checked first, to 1e-8, on
    :func:`default_gauge_sampling`.  On failure the data is still assembled
    and attached to the raised :class:`GaugeObstruction`.
    """
    Q1, Q2 = _q_fields(model)

    if model.one_dim:
        x0 = hd.value(gauge_coord_map(model, 1.0)[0])

        def omega(x):
            return gauss_kronrod(lambda s: -Q1(s), x0, hd.value(x))

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
        leg1 = gauss_kronrod(lambda s: -Q1(s, y0), x0, xg)
        return leg1 + gauss_kronrod(lambda s, x: -Q2(x, s), y0, yg, (xg,))

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
    """c(S1, S2, t) = exp(omega - r (T-t)) u(gauge coords, T-t); c takes
    float lanes when ``u`` does."""
    if gauge is None:
        gauge = drift_and_gauge(model)
    omega = gauge.omega
    r = model.rate

    if model.one_dim:
        def c(S, t):
            x = hd.value(gauge_coord_map(model, S)[0])
            tau = T - t
            return hd.exp(omega(x) - r * tau) * u(x, tau)

        return c

    def c(S1, S2, t):
        xg, yg = gauge_coord_map(model, S1, S2)
        xg, yg = hd.value(xg), hd.value(yg)
        tau = T - t
        return hd.exp(omega(xg, yg) - r * tau) * u(xg, yg, tau)

    return c
