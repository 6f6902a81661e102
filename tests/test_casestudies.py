"""Case-study tests: end-to-end chains and the smile-asymmetry expansion."""

import math

import numpy as np
import pytest

from liesolve import casestudies, hyperdual as hd, transform
from liesolve.casestudies import (
    _wedge_angle,
    cev_1d,
    double_cev,
    expvol_1d,
    published_power_law_coefficients,
    smirk_expansion,
)
from liesolve.errors import AlphaOne


@pytest.fixture(scope="module")
def dcev():
    return double_cev(r=0.05)


def _check(result, name):
    for c in result.verification.checks:
        if c.name == name:
            return c
    raise AssertionError(f"check {name!r} missing from the report")


def test_double_cev_potential_value(dcev):
    # direct evaluation of the published display at (2, 1), r = 0.05
    assert dcev.verification.payload["catalog potential at (2,1)"] == pytest.approx(
        48 * 5 / 9 + 0.0025 * 5 - 0.9, rel=1e-14
    )
    assert dcev.verification.payload["catalog potential at (2,1)"] == pytest.approx(
        25.779166666666665, rel=1e-12
    )


def test_double_cev_classified_12b(dcev):
    assert dcev.case_match.case_id == "1.2b"
    assert _check(dcev, "classification lands on case 1.2b").passed


def test_double_cev_f4_coefficients(dcev):
    r = 0.05
    assert dcev.verification.payload["f4 growth coefficient"] == pytest.approx(
        (math.sqrt(2) - 18) * r, rel=1e-12
    )
    assert dcev.verification.payload["f4 decay coefficient"] == pytest.approx(
        -(math.sqrt(2) + 18) * r, rel=1e-12
    )


def test_double_cev_catalog_chain_passes(dcev):
    for name in (
        "gauge compatibility max |curl Q|",
        "determining-condition residual on catalog potential",
        "reduced-equation residual of the separated solution",
        "reconstruction solves the catalog potential equation (relative FD residual)",
        "published hypergeometric angular form solves the angular equation",
    ):
        assert _check(dcev, name).passed, name


def _branching_wedge_angle(xi, eta):
    th = hd.atan2(eta, xi)
    return th + 2.0 * math.pi if hd.value(th) < 0 else th


def _slot_hexes(jet, k=None):
    return [float(getattr(jet, s) if k is None else getattr(jet, s)[k]).hex() for s in "abcd"]


def test_wedge_angle_lanes_match_scalar_calls():
    # 2 pi is added as a product, not a branch: float lanes and Dual2 lanes
    # on both sides of theta = pi are bitwise the scalar calls, which are
    # bitwise the branch
    xi = [-1.0, -0.7, -1.3, -0.4, -2.0]
    eta = [0.8, 1e-9, -1e-9, -0.6, -1.7]
    scalar = [_wedge_angle(x, e) for x, e in zip(xi, eta)]
    assert min(scalar) < math.pi < max(scalar)
    branch = [_branching_wedge_angle(x, e) for x, e in zip(xi, eta)]
    assert [v.hex() for v in scalar] == [v.hex() for v in branch]
    lanes = _wedge_angle(hd.float_lanes(xi), hd.float_lanes(eta))
    assert [v.hex() for v in lanes.tolist()] == [v.hex() for v in scalar]

    def seeded(x, e):
        return hd.Dual2(x, 1.0, 0.3, 0.0), hd.Dual2(e, 0.2, 1.0, 0.5)

    jets = _wedge_angle(*seeded(np.array(xi), np.array(eta)))
    for k, (x, e) in enumerate(zip(xi, eta)):
        one = _wedge_angle(*seeded(x, e))
        assert _slot_hexes(one) == _slot_hexes(_branching_wedge_angle(*seeded(x, e)))
        assert _slot_hexes(jets, k) == _slot_hexes(one)


def test_double_cev_documented_discrepancies(dcev):
    entry = _check(dcev, "catalog potential equals the drift-eliminated assembly")
    assert entry.expected_discrepancy and not entry.passed
    bridge = _check(
        dcev, "price chain satisfies the asset-space pricing equation (relative FD residual)"
    )
    assert bridge.expected_discrepancy
    # every emitted solution carries a populated verification report
    assert dcev.verification.checks
    assert dcev.verification.clean


def test_double_cev_generic_route():
    res = double_cev(r=0.03, alpha=(0.5, 0.5), rho=0.0)
    assert res.verification.clean
    assert res.solution_chain is None


def test_cev_1d_alpha_zero_kills_inverse_square():
    C0, c, c0 = published_power_law_coefficients(1.3, 0.0, 0.05)
    assert C0 == 0.0


def test_cev_1d_exponent_arithmetic():
    # sigma=1, alpha=2, r=0.1: c = 0.01, c0 = -0.45, exponent ~ 3.4320
    C0, c, c0 = published_power_law_coefficients(1.0, 2.0, 0.1)
    assert c == pytest.approx(0.01, rel=1e-14)
    assert c0 == pytest.approx(-0.45, rel=1e-14)
    exponent = 0.25 - c0 / math.sqrt(2 * c)
    assert exponent == pytest.approx(3.4319805153394637, rel=1e-12)


def test_cev_1d_report():
    res = cev_1d(1.0, 2.0, 0.1)
    claim = _check(res, "published power-law profile solves the reduced equation")
    assert claim.expected_discrepancy and not claim.passed
    good = _check(res, "verified separated profile solves the reduced equation")
    assert good.passed
    recon = _check(
        res, "reconstruction solves the catalog potential equation (relative FD residual)"
    )
    assert recon.passed and recon.value <= 1e-6
    assert res.verification.clean


def test_cev_1d_lognormal_guard():
    with pytest.raises(AlphaOne):
        cev_1d(1.0, 1.0, 0.05)


def test_expvol_report():
    res = expvol_1d()
    assert res.verification.payload["whittaker second index"] == pytest.approx(
        math.sqrt(5) / 4, rel=1e-14
    )
    assert res.verification.payload["inverse-square coefficient"] == 0.5
    recon = _check(
        res, "reconstruction solves the catalog potential equation (relative FD residual)"
    )
    assert recon.passed and recon.value <= 1e-6
    disc = _check(res, "published potential equals the drift-eliminated assembly")
    assert disc.expected_discrepancy
    assert res.verification.clean


@pytest.mark.parametrize("study", [
    lambda: double_cev(r=0.05),
    lambda: cev_1d(1.0, 2.0, 0.1),
    lambda: expvol_1d(),
], ids=["double-cev", "cev", "expvol"])
def test_pricing_residual_takes_lanes(study, monkeypatch):
    # omega is a lane rule: the price chain's bs_residual evaluates the price
    # on lanes, with no per-point rerun and no adaptive quadrature
    reports = []
    bs = casestudies.bs_residual

    def recording(*args, **kwargs):
        reports.append(bs(*args, **kwargs))
        return reports[-1]

    def no_quad(*args, **kwargs):
        raise AssertionError("transform.quad called")

    monkeypatch.setattr(casestudies, "bs_residual", recording)
    monkeypatch.setattr(transform, "quad", no_quad)
    study()
    assert [r.notes for r in reports] == [("lanes",)]
    assert reports[0].singular_points_skipped == 0


def test_smirk_values():
    assert smirk_expansion(0.0) == (1.0, -1.0, 1.0)
    assert smirk_expansion(1.0) == (1.0, -2.0, 2.5)


def test_smirk_skew_sign():
    for alpha in np.linspace(-0.9, 4.0, 23):
        a0, a1, a2 = smirk_expansion(alpha)
        assert a1 < 0.0


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
def test_smirk_matches_numerical_taylor_fit(alpha):
    """Fourth-order FD Taylor coefficients of sigma0 (S0/S) e^{alpha(1-S/S0)}
    around S = S0 must match the closed-form expansion within 1e-6."""
    s0 = 1.0
    sigma0 = 1.0

    def f(x):  # x = S/S0 - 1
        s = s0 * (1.0 + x)
        return sigma0 * (s0 / s) * math.exp(alpha * (1.0 - s / s0)) / sigma0

    h = 1e-3
    # O(h^4) central stencils for f, f', f''
    d1 = (-f(2 * h) + 8 * f(h) - 8 * f(-h) + f(-2 * h)) / (12 * h)
    d2 = (-f(2 * h) + 16 * f(h) - 30 * f(0.0) + 16 * f(-h) - f(-2 * h)) / (12 * h * h)
    got = (f(0.0), d1, d2 / 2.0)
    want = smirk_expansion(alpha)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-6)


def test_double_cev_propagates_gauge_obstruction():
    from liesolve.errors import GaugeObstruction

    # unequal exponents with correlation violate the zero-curl condition
    with pytest.raises(GaugeObstruction):
        double_cev(r=0.05, sigma=(1.0, 1.0), alpha=(0.5, 1.5), rho=0.4)


def test_double_cev_assembled_potential_is_the_gauge_assembly(dcev):
    # the study's assembled potential must be the drift-eliminated assembly
    # itself, not a reimplementation
    from liesolve.transform import potential_m

    M_direct = potential_m(dcev.model)
    M_study = dcev.extras["assembled_potential"]
    for (x, y) in [(-1.9, 0.3), (-2.4, -0.5), (-1.6, 0.1)]:
        assert M_study(x, y) == pytest.approx(M_direct(x, y), abs=1e-8)


def test_rel_fp_scale_skips_typed_errors_only():
    from liesolve.verify import relative_scale
    from liesolve.errors import DomainError

    def u_typed(x, t):
        if x > 1.0:
            raise DomainError("outside the factor's domain")
        return 2.0

    def u_defect(x, t):
        if x > 1.0:
            raise RuntimeError("defect in u")
        return 2.0

    pts = [(0.5, 0.2), (1.5, 0.2)]
    assert relative_scale(u_typed, lambda x: 1.0, pts) == 4.0
    with pytest.raises(RuntimeError, match="defect in u"):
        relative_scale(u_defect, lambda x: 1.0, pts)


@pytest.mark.parametrize("family", ["quadratic", "inverse-square"])
def test_one_asset_jacobian_ratio(family):
    # u = reconstruct(P) solves u_t - u_xx/2 + M u = J op(P) on a smooth P;
    # the one-asset maps carry no Jacobian, so J is stated here
    from liesolve import hyperdual as hd
    from liesolve.casestudies import _inverse_square_op, _quadratic_op
    from liesolve.reductions.maps import _f1_g1_exp, _f1_poly, map_1d_exp, map_1d_poly

    C0, c, c0, d1, d2 = 0.7, 0.3, -0.4, 1.2, 0.8
    if family == "quadratic":
        smap, op = map_1d_exp(c, c0, d1, d2), _quadratic_op(C0, c, d1, d2)
        f1 = _f1_g1_exp(math.sqrt(2.0 * c), d1, d2)[0]

        def M(x):
            return C0 / (x * x) + c * x * x + c0

        def J(x, t):
            (xi,) = smap.to_sim(x, t)
            return -hd.exp(-smap.prefactor_log(x, t)) / (2.0 * f1(t) * xi * xi)
    else:
        smap, op = map_1d_poly(d1, d2), _inverse_square_op(C0, d1)
        f1 = _f1_poly(d1, d2)

        def M(x):
            return C0 / (x * x)

        def J(x, t):
            return -hd.exp(-smap.prefactor_log(x, t)) / (2.0 * f1(t))

    def P(xi):
        return (1.0 + 0.3 * xi - 0.2 * xi * xi) * hd.exp(-0.25 * xi * xi)

    u = smap.reconstruct(P)
    worst = 0.0
    for x in (0.6, 0.9, 1.3, 1.8):
        for t in (0.2, 0.5, 0.9):
            u_t, u_xx = hd.derivative(u, (x, t), 1), hd.derivative(u, (x, t), 0, 2)
            lhs = u_t - 0.5 * u_xx + M(x) * u(x, t)
            (xi,) = smap.to_sim(x, t)
            rhs = J(x, t) * op(P, xi)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    assert worst < 1e-12


# NaN-keeping folds: a NaN sample reads NaN and fails its gate


def test_angular_factor_deviation_keeps_nan():
    from liesolve.casestudies import _angular_factor_deviation

    th = 2.5
    good = 48.0 / math.cos(2 * th) ** 2
    assert _angular_factor_deviation([(th, good)]) <= 1e-7
    worst = _angular_factor_deviation([(th, good), (2.6, math.nan)])
    assert math.isnan(worst)
    assert not worst <= 1e-7


def test_2f1_angular_claim_keeps_nan(monkeypatch):
    import liesolve.casestudies as cs
    from liesolve.specfun import SpecialValue

    nan = SpecialValue(math.nan, False, math.nan)
    monkeypatch.setattr(cs, "hypergeometric", lambda *a, **k: nan)
    worst = cs._check_2f1_angular_claim(1.0)
    assert math.isnan(worst)
    assert not worst <= 1e-7
