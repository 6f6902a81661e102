"""Transformation-chain tests.

The heavyweight check is the operational round trip: pushing an arbitrary
smooth field through the gauge must intertwine the pricing operator with the
potential-form heat operator.  Both operators are evaluated here with local
finite differences, fully independent of the package's derivative machinery.
"""

import math

import numpy as np
import pytest

from liesolve import hyperdual as hd, numdiff, transform as tr
from liesolve.errors import DomainError, GaugeObstruction, OutOfRange, QuadratureFailure
from liesolve.verify import Region, bs_residual

SQRT2 = math.sqrt(2.0)


def cev_model_51(r=0.05):
    return tr.MarketModel(tr.CEVVol(1.0, 2.0), tr.CEVVol(1.0, 2.0), rho=0.0, rate=r)


# ---------------------------------------------------------------------------
# coordinate maps
# ---------------------------------------------------------------------------


def test_coord_map_cev_alpha2():
    # S^(1-alpha)/(sigma(1-alpha)) with alpha=2: I(1) = -1 per asset,
    # so (x, y) = (sqrt(2)(-1-1), sqrt(2)(-1+1)) = (-2 sqrt(2), 0)
    m = cev_model_51()
    x, y = tr.coord_map(m, 1.0, 1.0)
    assert x == pytest.approx(-2 * SQRT2, rel=1e-14)
    assert y == pytest.approx(0.0, abs=1e-14)


def test_coord_map_antisymmetry():
    m = tr.MarketModel(tr.CEVVol(1.0, 0.5), tr.CEVVol(1.0, 0.5), rho=0.0, rate=0.0)
    for s in (0.5, 1.0, 1.7):
        _, y = tr.coord_map(m, s, s)
        assert y == pytest.approx(0.0, abs=1e-14)


def test_coord_map_1d_exponential_zero():
    m = tr.MarketModel(tr.ExponentialVol(), rate=0.0)
    x, y = tr.coord_map(m, 0.0)
    assert x == 0.0 and y is None


def test_invert_coord_closed_form():
    m = cev_model_51()
    s1, s2 = tr.invert_coord(m, -2 * SQRT2, 0.0)
    assert s1 == pytest.approx(1.0, rel=1e-12)
    assert s2 == pytest.approx(1.0, rel=1e-12)


def test_invert_coord_round_trip_property():
    rng = np.random.default_rng(11)
    m = tr.MarketModel(tr.CEVVol(0.8, 1.6), tr.CEVVol(1.2, 0.4), rho=0.3, rate=0.02)
    for _ in range(100):
        s1, s2 = rng.uniform(0.5, 2.0, size=2)
        x, y = tr.coord_map(m, s1, s2)
        t1, t2 = tr.invert_coord(m, x, y)
        assert t1 == pytest.approx(s1, rel=1e-9)
        assert t2 == pytest.approx(s2, rel=1e-9)


def test_invert_coord_out_of_range():
    m = cev_model_51()
    # the alpha=2 map attains only negative antiderivative values
    with pytest.raises(OutOfRange):
        tr.invert_coord(m, 0.0, 0.0)


def test_coord_map_monotone():
    m = tr.MarketModel(tr.CEVVol(1.0, 0.7), tr.CEVVol(1.0, 1.3), rho=-0.2, rate=0.0)
    xs = []
    for s in np.linspace(0.5, 2.0, 9):
        x, _ = tr.coord_map(m, s, 1.0)
        xs.append(x)
    assert all(b > a for a, b in zip(xs, xs[1:]))


def test_tabulated_vol_round_trip():
    vol = tr.TabulatedVol(lambda s: 1.0 + 0.1 * s, lambda s: 0.1, s_ref=0.0)
    m = tr.MarketModel(vol, rate=0.0)
    x, _ = tr.coord_map(m, 1.4)
    (s,) = tr.invert_coord(m, x)
    assert s == pytest.approx(1.4, rel=1e-9)


REXP_VOLS = {
    "alpha 0": tr.RescaledExponentialVol(0.3, 2.0, 0.0),
    "alpha 1.5": tr.RescaledExponentialVol(0.3, 2.0, 1.5),
    "alpha -0.8": tr.RescaledExponentialVol(1.2, 0.7, -0.8),
}
REXP_SPOTS = [float(s) for s in np.linspace(-1.0, 4.0, 11)]


@pytest.mark.parametrize("name", list(REXP_VOLS))
def test_rescaled_exponential_vol_round_trip(name):
    vol = REXP_VOLS[name]
    assert vol.antideriv(0.0) == 0.0
    for s in REXP_SPOTS:
        i = vol.antideriv(s)
        assert vol.invert(i) == pytest.approx(s, rel=1e-12, abs=1e-12)
        # the antiderivative of 1/sigma
        assert hd.derivative(vol.antideriv, (s,), 0) == pytest.approx(1.0 / vol.value(s),
                                                                      rel=1e-12)


@pytest.mark.parametrize("name", list(REXP_VOLS))
def test_rescaled_exponential_vol_slope(name):
    vol = REXP_VOLS[name]
    for s in REXP_SPOTS:
        assert vol.slope(s) == pytest.approx(hd.derivative(vol.value, (s,), 0), rel=1e-13,
                                             abs=1e-15)


def test_rescaled_exponential_vol_out_of_range():
    vol = REXP_VOLS["alpha 1.5"]
    # for alpha > 0 the antiderivative only tends to -exp(-alpha)/(sigma0 alpha)
    # as S -> -inf
    floor = -math.exp(-1.5) / (0.3 * 1.5)
    assert vol.invert(floor + 1e-3) < -1.0
    for i in (floor, floor - 0.1, -10.0):
        with pytest.raises(OutOfRange, match="not attained"):
            vol.invert(i)
    with pytest.raises(DomainError):
        tr.RescaledExponentialVol(0.0, 2.0, 1.5)


def test_tabulated_quadratures_go_through_module_quad(monkeypatch):
    # tr.quad is the one patch point for every quadrature: a wrapper set on
    # the module sees the antiderivatives of a tabulated coord_map
    calls = []
    quad = tr.quad

    def counting(f, a, b, **kwargs):
        calls.append((a, b))
        return quad(f, a, b, **kwargs)

    monkeypatch.setattr(tr, "quad", counting)
    vol = tr.TabulatedVol(lambda s: 1.0 + 0.1 * s, lambda s: 0.1, s_ref=0.0)
    x, y = tr.coord_map(tr.MarketModel(vol, vol, rho=0.3), 1.4, 0.8)
    assert calls == [(0.0, 1.4), (0.0, 0.8)]
    i1, i2 = 10.0 * math.log(1.14), 10.0 * math.log(1.08)
    a, b = tr._prefactors(0.3)
    assert (x, y) == pytest.approx((a * (i2 + i1), b * (i2 - i1)), rel=1e-12)


# ---------------------------------------------------------------------------
# drift and gauge
# ---------------------------------------------------------------------------


def test_q_constant_vols_vanish():
    vol = tr.CEVVol(1.0, 0.0)
    m = tr.MarketModel(vol, vol, rho=0.0, rate=0.0)
    g = tr.drift_and_gauge(m)
    for (x, y) in tr.default_gauge_sampling(m):
        assert abs(g.Q1(x, y)) <= 1e-13
        assert abs(g.Q2(x, y)) <= 1e-13
        assert abs(g.omega(x, y)) <= 1e-10
    assert g.max_curl <= 1e-10


def test_q_1d_lognormal_constant():
    # sigma(S) = sigma_tilde S, r=0: Q = -sigma_tilde/2, omega linear
    st = 0.4
    m = tr.MarketModel(tr.CEVVol(st, 1.0), rate=0.0)
    g = tr.drift_and_gauge(m)
    for (x,) in tr.default_gauge_sampling(m):
        assert g.Q1(x) == pytest.approx(-st / 2.0, rel=1e-12)
    # omega' = -Q = st/2 (linear omega)
    x0 = tr.gauge_coord_map(m, 1.0)[0]
    assert g.omega(x0 + 1.0) - g.omega(x0) == pytest.approx(st / 2.0, rel=1e-9)


def test_curl_vanishes_for_quadratic_cev_pair():
    g = tr.drift_and_gauge(cev_model_51())
    assert g.max_curl <= 1e-12


def test_gauge_obstruction_flags_incompatible_model():
    # correlated assets with unequal CEV slopes break the zero-curl condition
    m = tr.MarketModel(tr.CEVVol(1.0, 0.5), tr.CEVVol(1.0, 1.5), rho=0.4, rate=0.1)
    with pytest.raises(GaugeObstruction) as ei:
        tr.drift_and_gauge(m)
    assert ei.value.gauge is not None
    assert ei.value.gauge.max_curl > 1e-8


DUAL_VOLS = {
    "cev alpha 2": tr.CEVVol(1.0, 2.0),
    "cev alpha 0.5": tr.CEVVol(0.8, 0.5),
    "exponential": tr.ExponentialVol(),
    "rescaled exponential": tr.RescaledExponentialVol(0.3, 2.0, 1.5),
}


def _quad_omega(gauge, x0, y0, x, y):
    # the adaptive reference: one scipy quad per leg of the L-path
    from scipy.integrate import quad

    if y is None:
        return quad(lambda s: -gauge.Q1(s), x0, x, epsabs=tr.QUAD_TOL, limit=200)[0]
    leg1 = quad(lambda s: -gauge.Q1(s, y0), x0, x, epsabs=tr.QUAD_TOL, limit=200)[0]
    return leg1 + quad(lambda s: -gauge.Q2(x, s), y0, y, epsabs=tr.QUAD_TOL, limit=200)[0]


@pytest.mark.parametrize("two_dim", [False, True], ids=["1d", "2d"])
@pytest.mark.parametrize("name", list(DUAL_VOLS))
def test_lane_omega_matches_quad_and_its_one_lane_calls(name, two_dim):
    vol = DUAL_VOLS[name]
    model = tr.MarketModel(vol, vol if two_dim else None, rate=0.05)
    gauge = tr.drift_and_gauge(model)
    spots = np.linspace(0.55, 1.95, 8)
    if two_dim:
        pts = [tr.gauge_coord_map(model, s1, s2) for s1 in spots for s2 in spots[::-1]]
        x0, y0 = tr.gauge_coord_map(model, 1.0, 1.0)
        lanes = gauge.omega(*(hd.float_lanes(c) for c in zip(*pts)))
    else:
        pts = [(tr.gauge_coord_map(model, s)[0], None) for s in spots]
        x0, y0 = tr.gauge_coord_map(model, 1.0)
        lanes = gauge.omega(hd.float_lanes([x for x, _ in pts]))
    assert lanes.shape == (len(pts),)
    for (x, y), lane in zip(pts, lanes.tolist()):
        one = gauge.omega(x) if y is None else gauge.omega(x, y)
        assert type(one) is float and one == lane  # bitwise its 1-lane call
        ref = _quad_omega(gauge, x0, y0, x, y)
        assert abs(lane - ref) <= 1e-14 * max(1.0, abs(ref))


def test_omega_lane_out_of_cev_range_raises_and_bs_residual_skips_that_point():
    # alpha = 2: x = -1/S, so S < 0 maps to x > 0, and the path from
    # x0 = -1 crosses x = 0, which no price attains
    model = tr.MarketModel(tr.CEVVol(1.0, 2.0), rate=0.05)
    gauge = tr.drift_and_gauge(model)
    good = [-1.6, -1.1, -0.7]
    assert gauge.omega(hd.float_lanes(good)).tolist() == [gauge.omega(x) for x in good]
    with pytest.raises(OutOfRange):
        gauge.omega(hd.float_lanes(good + [0.5]))

    price = tr.price_from_u(model, lambda x, tau: 1.0 + 0.1 * x * x + tau, T=1.0, gauge=gauge)
    region = Region(((-0.6, 1.6), (0.3, 0.8)), guard=lambda s, t: abs(s) < 0.2)
    n_bad = sum(s < 0 for s, _ in region.points(20))
    assert n_bad >= 1
    rep = bs_residual(model, price, region, threshold=1.0, n=20)
    assert rep.notes == ("per-lane: OutOfRange",)
    assert rep.singular_points_skipped == n_bad and rep.n_points == 20 - n_bad
    # the same region without its negative prices takes lanes
    pos = Region(region.bounds, guard=lambda s, t: s < 0.2)
    assert bs_residual(model, price, pos, threshold=1.0, n=20).notes == ("lanes",)


def test_gauss_kronrod_panel_cap_and_non_finite_panels_raise():
    # about 1 600 periods on [0, 1]: more than GAUGE_PANELS panels
    with pytest.raises(QuadratureFailure, match="panels"):
        tr.gauss_kronrod(lambda s: hd.sin(1e4 * s), 0.0, 1.0)
    # one lane the cap cannot resolve fails the call, as an out-of-range lane does
    with pytest.raises(QuadratureFailure):
        tr.gauss_kronrod(lambda s, k: hd.sin(k * s), 0.0, 1.0, (hd.float_lanes([1.0, 1e4]),))
    assert tr.gauss_kronrod(lambda s, k: hd.sin(k * s), 0.0, 1.0, (1e2,)) == pytest.approx(
        (1.0 - math.cos(1e2)) / 1e2, abs=1e-13)
    with pytest.raises(QuadratureFailure, match="not finite"):
        tr.gauss_kronrod(lambda s: s * math.inf, 0.0, 1.0)


def test_potential_constant_vols_zero():
    vol = tr.CEVVol(1.0, 0.0)
    m = tr.MarketModel(vol, vol, rho=0.0, rate=0.0)
    M = tr.potential_m(m)
    for (x, y) in tr.default_gauge_sampling(m):
        assert abs(M(x, y)) <= 1e-10


def test_potential_1d_quadratic_vol_heat_reducible():
    # sigma(S) = S^2, r = 0 is gauge-equivalent to the bare heat equation
    m = tr.MarketModel(tr.CEVVol(1.0, 2.0), rate=0.0)
    M = tr.potential_m(m)
    for (x,) in tr.default_gauge_sampling(m):
        assert abs(M(x)) <= 1e-9


# ---------------------------------------------------------------------------
# price reconstruction
# ---------------------------------------------------------------------------


def test_price_identity_gauge():
    vol = tr.CEVVol(1.0, 0.0)
    m = tr.MarketModel(vol, vol, rho=0.0, rate=0.0)
    u = lambda x, y, t: x + 2 * y + t
    c = tr.price_from_u(m, u, T=1.0)
    for s1, s2 in [(0.8, 1.1), (1.4, 0.6)]:
        xg, yg = tr.gauge_coord_map(m, s1, s2)
        assert c(s1, s2, 0.25) == pytest.approx(u(xg, yg, 0.75), rel=1e-9)


def test_price_pure_discounting():
    vol = tr.CEVVol(1.0, 0.0)
    m = tr.MarketModel(vol, vol, rho=0.0, rate=0.07)
    u = lambda x, y, t: 1.0
    g = tr.drift_and_gauge(m)
    c = tr.price_from_u(m, u, T=2.0, gauge=g)
    # constant vols with r > 0 have a nontrivial gauge; remove it explicitly
    for s1, s2, t in [(1.0, 1.0, 0.0), (0.9, 1.3, 1.5)]:
        xg, yg = tr.gauge_coord_map(m, s1, s2)
        expected = math.exp(g.omega(xg, yg)) * math.exp(-0.07 * (2.0 - t))
        assert c(s1, s2, t) == pytest.approx(expected, rel=1e-9)


# ---------------------------------------------------------------------------
# the operational intertwining check (independent FD oracle)
# ---------------------------------------------------------------------------


def _bs_operator_fd(model, c, S1, S2, t):
    """Pricing operator via plain finite differences in (S1, S2, t)."""
    s1v = model.vol1.value(S1)
    s2v = model.vol2.value(S2)
    r = model.rate
    args = (S1, S2, t)
    c_t = numdiff.partial1(c, args, 2, 1e-5)
    c_11 = numdiff.partial2(c, args, 0, 1e-4)
    c_22 = numdiff.partial2(c, args, 1, 1e-4)
    c_12 = numdiff.mixed2(c, args, 0, 1, 1e-4)
    c_1 = numdiff.partial1(c, args, 0, 1e-5)
    c_2 = numdiff.partial1(c, args, 1, 1e-5)
    return (
        c_t
        + 0.5 * s1v**2 * c_11
        + model.rho * s1v * s2v * c_12
        + 0.5 * s2v**2 * c_22
        + r * S1 * c_1
        + r * S2 * c_2
        - r * c(S1, S2, t)
    )


def _fp_operator_fd(u, M, x, y, tau):
    u_t = numdiff.partial1(u, (x, y, tau), 2, 1e-5)
    u_xx = numdiff.partial2(u, (x, y, tau), 0, 1e-4)
    u_yy = numdiff.partial2(u, (x, y, tau), 1, 1e-4)
    return u_t - 0.5 * (u_xx + u_yy) + M(x, y) * u(x, y, tau)


@pytest.mark.parametrize(
    "model",
    [
        cev_model_51(r=0.05),
        tr.MarketModel(tr.CEVVol(1.0, 0.5), tr.CEVVol(1.0, 0.5), rho=0.0, rate=0.03),
        tr.MarketModel(tr.CEVVol(0.9, 1.0), tr.CEVVol(0.9, 1.0), rho=0.25, rate=0.04),
    ],
    ids=["quad-cev", "sqrt-cev", "corr-lognormal"],
)
def test_operational_intertwining(model):
    """BS(c) = -exp(omega - r tau) FP(u) for arbitrary smooth u."""
    gauge = tr.drift_and_gauge(model)
    M = tr.potential_m(model, gauge)
    T = 1.0

    def u_fn(x, y, tau):
        return (1.0 + 0.3 * x - 0.2 * y + 0.1 * x * y) * math.exp(
            -0.1 * ((x + 2.0) ** 2 + y**2)
        ) * (1.0 + 0.5 * tau)

    u = u_fn
    c = tr.price_from_u(model, u, T=T, gauge=gauge)

    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(30):
        s1, s2 = rng.uniform(0.7, 1.6, size=2)
        t = rng.uniform(0.2, 0.8)
        tau = T - t
        xg, yg = tr.gauge_coord_map(model, s1, s2)
        lhs = _bs_operator_fd(model, c, s1, s2, t)
        rhs = -math.exp(gauge.omega(xg, yg) - model.rate * tau) * _fp_operator_fd(
            u, M, xg, yg, tau
        )
        scale = max(1.0, abs(lhs), abs(rhs))
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-5


def test_model_validation():
    with pytest.raises(DomainError):
        tr.MarketModel(tr.CEVVol(1.0, 0.5), tr.CEVVol(1.0, 0.5), rho=1.0)
    with pytest.raises(DomainError):
        tr.CEVVol(-1.0, 0.5)


def test_price_inverse_gauge_identity():
    # stripping the gauge off the price field recovers the input exactly
    model = cev_model_51(r=0.04)
    gauge = tr.drift_and_gauge(model)
    T = 1.0

    def u_fn(x, y, tau):
        return (0.7 + 0.3 * x - 0.1 * y) * math.exp(-0.2 * ((x + 2.0) ** 2 + y * y))

    u = u_fn
    c = tr.price_from_u(model, u, T=T, gauge=gauge)
    rng = np.random.default_rng(8)
    for _ in range(20):
        s1, s2 = rng.uniform(0.7, 1.6, size=2)
        t = rng.uniform(0.1, 0.9)
        xg, yg = tr.gauge_coord_map(model, s1, s2)
        tau = T - t
        back = math.exp(-gauge.omega(xg, yg) + model.rate * tau) * c(s1, s2, t)
        assert back == pytest.approx(u_fn(xg, yg, tau), rel=1e-12)


def test_tabulated_vol_matches_closed_form_pipeline():
    # black-box square-root volatility: the FD-backed assembly must agree
    # with the closed-form route
    closed = tr.MarketModel(tr.CEVVol(1.0, 0.5), rate=0.03)
    tabbed = tr.MarketModel(
        tr.TabulatedVol(lambda s: math.sqrt(s), lambda s: 0.5 / math.sqrt(s), s_ref=0.0),
        rate=0.03,
    )
    M1 = tr.potential_m(closed)
    M2 = tr.potential_m(tabbed)
    g1, g2 = tr.drift_and_gauge(closed), tr.drift_and_gauge(tabbed)
    x_tabs = []
    for s in (0.6, 1.0, 1.7):
        x_closed = tr.gauge_coord_map(closed, s)[0]
        x_tab = tr.gauge_coord_map(tabbed, s)[0]
        assert x_tab == pytest.approx(x_closed, abs=1e-9)
        assert M2(x_tab) == pytest.approx(M1(x_closed), rel=1e-5, abs=1e-7)
        # the lane rule inverts a tabulated vol one node at a time
        assert g2.omega(x_tab) == pytest.approx(g1.omega(x_closed), abs=1e-9)
        x_tabs.append(x_tab)
    assert g2.omega(hd.float_lanes(x_tabs)).tolist() == [g2.omega(x) for x in x_tabs]
