"""End-to-end case studies: the two-asset quadratic-volatility model, the
one-asset power-law model, and the one-asset exponentially decaying
volatility, plus the smile-asymmetry expansion of the latter.

Every chain runs on the catalog's map type,
:class:`~liesolve.reductions.maps.SimilarityMap`: the two-asset study on
case 1.2b, the one-asset studies on ``map_1d_exp`` (M = C0/x^2 + c x^2 +
c0) and ``map_1d_poly`` (M = C0/x^2) with the reduced operators defined
here.  Reduced residuals go through
:func:`~liesolve.reductions.operator_residual` and reconstruction through
``SimilarityMap.reconstruct``, as in the catalog chain.

Policy for the catalog-vs-assembly tension: every study verifies the catalog
potential chain (classification, admissibility, reduced equation, closed
form, reconstruction) with hard thresholds, assembles the potential
independently from the volatility specification, and compares the two.  The
catalog value is the published coefficient set; where the independent
assembly disagrees, the comparison is reported as a documented discrepancy
and nothing is silently reconciled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hyperdual as hd
from .errors import AlphaOne, DomainError
from .exprlang import compile_expr, match_case, parse
from .report import VerificationReport
from .reductions import get_case, operator_residual, reconstruct_u
from .reductions.maps import map_1d_exp, map_1d_poly
from .reductions.separated import bessel_radial_jy, ode_factor, reflect, whittaker_radial
from .specfun import hypergeometric
from .symmetry import compatibility_condition
from .transform import (
    CEVVol,
    ExponentialVol,
    MarketModel,
    drift_and_gauge,
    gauge_coord_map,
    potential_m,
    price_from_u,
)
from .verify import Region, bs_residual, fp_residual, relative_scale


@dataclass
class CaseStudyResult:
    model: MarketModel
    case_match: object
    solution_chain: object  # the price callable, or None
    verification: VerificationReport
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# helpers shared by the one-dimensional studies
# ---------------------------------------------------------------------------


def _quadratic_op(C0, c, d1, d2):
    """Reduced operator of M = C0/x^2 + c x^2 + c0 under ``map_1d_exp``."""

    def op(P, xi):
        p2 = hd.derivative(P, (xi,), 0, order=2)
        return xi * xi * p2 + 2.0 * (4.0 * c * d1 * d2 * xi**4 - C0) * P(xi)

    return op


def _inverse_square_op(C0, d1):
    """Reduced operator of M = C0/x^2 under ``map_1d_poly``."""

    def op(P, xi):
        _, p1, p2 = hd.jet(P, (xi,), 0)
        return p2 + d1 * xi * p1 - 2.0 * C0 / (xi * xi) * P(xi)

    return op


# ---------------------------------------------------------------------------
# two-asset quadratic-volatility study
# ---------------------------------------------------------------------------

TWO_ASSET_POTENTIAL_SRC = "48*(x^2+y^2)/(x^2-y^2)^2 + r^2*(x^2+y^2) - 18*r"


def _wedge_angle(xi, eta):
    """Continuous angle on the left wedge (the image of the price box):
    2 pi is added as a product with 0 or 1, not a branch, so lanes pass."""
    th = hd.atan2(eta, xi)
    return th + (hd.value(th) < 0) * (2.0 * math.pi)


def double_cev(r, sigma=(1.0, 1.0), alpha=(2.0, 2.0), rho=0.0,
               delta1=1.0, delta2=1.0, c1=4.0, seed=0) -> CaseStudyResult:
    """Two independent power-law assets.

    The published catalog chain exists for rho = 0, alpha = (2, 2); other
    parameters route through the generic transform-and-classify pipeline and
    report whatever the classifier finds.
    """
    model = MarketModel(CEVVol(sigma[0], alpha[0]), CEVVol(sigma[1], alpha[1]), rho=rho, rate=r)
    rep = VerificationReport("two-asset power-law study")

    gauge = drift_and_gauge(model)
    rep.check("gauge compatibility max |curl Q|", gauge.max_curl, 1e-8)
    M_asm = potential_m(model, gauge)

    exact_branch = rho == 0.0 and alpha == (2.0, 2.0)
    if not exact_branch:
        m = match_case(M_asm)
        rep.record(
            "generic pipeline classification",
            True,
            notes=f"classifier result: {getattr(m, 'case_id', None)}",
        )
        return CaseStudyResult(model, m, None, rep, {"assembled_potential": M_asm})

    # --- catalog potential and classification -------------------------------
    M_cat = compile_expr(parse(TWO_ASSET_POTENTIAL_SRC), ("x", "y"), {"r": r})
    rep.payload["catalog potential at (2,1)"] = M_cat(2.0, 1.0)

    m = match_case(M_cat)
    if missing := sorted({"c", "c0"} - set(m.bindings)):
        raise DomainError(f"double-cev at r = {r!r}: the potential classifies as {m.case_id}, "
                          f"binding no {' or '.join(map(repr, missing))}; 1.2b needs r != 0")
    rep.record(
        "classification lands on case 1.2b",
        m.case_id == "1.2b",
        notes=f"matched {m.case_id} with fit residual {m.fit_residual:.2e}",
    )
    rep.check("classified quadratic coefficient |c - r^2|", abs(m.bindings["c"] - r * r), 1e-9)
    rep.check("classified constant |c0 + 18 r|", abs(m.bindings["c0"] + 18 * r), 1e-8)
    # angular factor identity: M_sing = C(theta)/rho^2 with C = 48/cos^2(2 theta),
    # equivalently (2/rho^2) * 24/cos^2(2 theta)
    rep.check(
        "angular factor matches 48/cos^2(2 theta) = 2*24/cos^2(2 theta)",
        _angular_factor_deviation(m.opaque_samples),
        1e-7,
    )

    # --- admissibility -------------------------------------------------------
    a_exp = math.sqrt(2.0) * r

    def C_theta(s):
        return 48.0 / hd.cos(2 * s) ** 2

    params = {
        "c": r * r,
        "c0": -18.0 * r,
        "delta1": delta1,
        "delta2": delta2,
        "C": C_theta,
    }
    case = get_case("1.2b")
    data = case.symmetry_data(params)
    # time-function coefficients of the admissible family
    rep.payload["f4 growth coefficient"] = (math.sqrt(2.0) - 18.0) * r * delta1
    rep.payload["f4 decay coefficient"] = -(math.sqrt(2.0) + 18.0) * r * delta2
    rep.record(
        "f4 coefficients equal (sqrt(2)-18) r delta1 and -(sqrt(2)+18) r delta2",
        abs(data.f4.d1 - (math.sqrt(2.0) - 18.0) * r * delta1) < 1e-12
        and abs(data.f4.d2 + (math.sqrt(2.0) + 18.0) * r * delta2) < 1e-12,
    )
    wedge_pts = _wedge_region_points(n=14, seed=seed)
    rep.check(
        "determining-condition residual on catalog potential",
        compatibility_condition(data, M_cat, points=wedge_pts),
        1e-9,
    )

    # --- closed form on the wedge -------------------------------------------
    b_arg = math.sqrt(2.0 * delta1 * delta2) * r
    F1 = bessel_radial_jy(b_arg, c1)
    margin = 0.18
    F2 = ode_factor(C_theta, c1, (0.75 * math.pi + margin, 1.25 * math.pi - margin),
                    anchor=math.pi)

    def P_wedge(xi, eta):
        rho_ = hd.sqrt(xi * xi + eta * eta)
        return F1(rho_) * F2(_wedge_angle(xi, eta))

    red_worst = operator_residual(
        case.reduced_operator(params), P_wedge, _wedge_sim_points(n=20, seed=seed)
    )
    rep.check("reduced-equation residual of the separated solution", red_worst, 1e-7)

    u = reconstruct_u(case, params, P_wedge)
    region = _wedge_xyt_region()
    fp = fp_residual(u, M_cat, region, threshold=1.0, n=30)
    scale = relative_scale(u, M_cat, region.points(10))
    rep.check("reconstruction solves the catalog potential equation (relative FD residual)",
              fp.max_abs / scale, 1e-6)

    # --- published closed-form cross-check -----------------------------------
    worst_2f1 = _check_2f1_angular_claim(c1)
    rep.check(
        "published hypergeometric angular form solves the angular equation",
        worst_2f1,
        1e-7,
        expected_discrepancy=worst_2f1 > 1e-7,
        notes="cross-check of the published 2F1 display against the angular factor equation",
    )

    # --- catalog vs assembled potential --------------------------------------
    diff = 0.0
    for (x, y, _) in wedge_pts:
        xg, yg = x, y
        diff = max(diff, abs(M_cat(xg, yg) - M_asm(xg, yg)))
    rep.check(
        "catalog potential equals the drift-eliminated assembly",
        diff,
        1e-8,
        expected_discrepancy=True,
        notes=(
            "the published potential carries a 1/rho^2 singular part that the "
            "gauge assembly of this quadratic-volatility model does not produce; "
            "both values are reported, the catalog entry is used for the chain"
        ),
    )

    # --- asset-space chain ----------------------------------------------------
    T = 1.0
    price = price_from_u(model, u, T=T, gauge=gauge)
    s_region = Region(((0.8, 1.6), (0.8, 1.6), (0.2, 0.8)),
                      guard=lambda s1, s2, t: abs(s1 - s2) < 0.12)
    bs = bs_residual(model, price, s_region, threshold=1.0, n=20)
    price_scale = max(abs(price(1.2, 1.0, 0.5)), 1e-6)
    rep.check(
        "price chain satisfies the asset-space pricing equation (relative FD residual)",
        bs.max_abs / price_scale,
        1e-5,
        expected_discrepancy=True,
        notes=(
            "follows from the potential discrepancy above: the catalog solution "
            "anchors to the published potential, not to this model's assembly"
        ),
    )

    extras = {
        "assembled_potential": M_asm,
        "catalog_potential": M_cat,
        "params": params,
        "bessel_argument_coefficient": b_arg,
    }
    return CaseStudyResult(model, m, price, rep, extras)


def _wedge_region_points(n, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        rho_ = rng.uniform(1.5, 3.5)
        th = rng.uniform(0.78 * math.pi, 1.22 * math.pi)
        x, y = rho_ * math.cos(th), rho_ * math.sin(th)
        if abs(x * x - y * y) < 0.35:
            continue
        pts.append((x, y, rng.uniform(0.1, 0.7)))
    return pts


def _wedge_sim_points(n, seed):
    rng = np.random.default_rng(seed + 1)
    pts = []
    while len(pts) < n:
        rho_ = rng.uniform(0.8, 1.8)
        th = rng.uniform(0.85 * math.pi, 1.15 * math.pi)
        xi, eta = rho_ * math.cos(th), rho_ * math.sin(th)
        if abs(xi * xi - eta * eta) < 0.2:
            continue
        pts.append((xi, eta))
    return pts


def _wedge_xyt_region():
    def guard(x, y, t):
        rho_ = math.hypot(x, y)
        th = math.atan2(y, x) % (2 * math.pi)
        return (
            rho_ < 1.4
            or rho_ > 3.6
            or th < 0.85 * math.pi
            or th > 1.15 * math.pi
            or abs(x * x - y * y) < 0.4
        )

    return Region(((-3.6, -1.0), (-1.4, 1.4), (0.1, 0.7)), guard=guard)


def _angular_factor_deviation(samples):
    """Largest relative deviation of sampled angular-factor values from
    48/cos^2(2 theta) and from 2*24/cos^2(2 theta); a NaN value reads NaN."""
    devs = []
    for th, val in samples:
        target = 48.0 / math.cos(2 * th) ** 2
        devs.append((val - target) / abs(target))
        devs.append((val - 2.0 * 24.0 / math.cos(2 * th) ** 2) / abs(target))
    return float(np.max(np.abs(devs), initial=0.0))


def _check_2f1_angular_claim(c1):
    """Residual of the published hypergeometric angular display against
    F'' + (c1 - 2*48/cos^2(2 theta)) F = 0, sampled on the wedge.

    Derivatives are exact: the Gauss function's jet follows from its own
    differential equation, and the prefactor is dual-transparent on the
    sub-wedge where sin(4 theta) < 0.
    """
    s97 = math.sqrt(97.0)
    sc1 = math.sqrt(c1)
    a = (3.0 + s97 + sc1) / 4.0
    b = (3.0 + s97 - sc1) / 4.0
    c = 1.0 + s97 / 2.0

    def hyp_val(w):
        return hypergeometric("Gauss2F1", a=a, b=b, c=c, z=w).value

    def hyp_d1(w):
        return a * b / c * hypergeometric("Gauss2F1", a=a + 1, b=b + 1, c=c + 1, z=w).value

    def hyp_d2(w):
        # from the hypergeometric differential equation
        return (a * b * hyp_val(w) - (c - (a + b + 1) * w) * hyp_d1(w)) / (w * (1.0 - w))

    H = hd.lift1(hyp_val, hyp_d1, hyp_d2)

    def F(th):
        w = (hd.cos(4.0 * th) + 1.0) / 2.0
        pre = (2.0 - 2.0 * hd.cos(4.0 * th)) ** 0.75 / hd.sqrt(-hd.sin(4.0 * th))
        return pre * w ** (0.5 + s97 / 4.0) * H(w)

    rels = []
    for th in np.linspace(0.80 * math.pi, 0.94 * math.pi, 7):
        val, _, d2 = hd.jet(F, (th,), 0)
        resid = d2 + (c1 - 2.0 * 48.0 / math.cos(2 * th) ** 2) * val
        rels.append(resid / max(abs(val), 1e-12))
    return float(np.max(np.abs(rels), initial=0.0))  # NaN-propagating


# ---------------------------------------------------------------------------
# one-asset power-law study
# ---------------------------------------------------------------------------


def published_power_law_coefficients(sigma, alpha, r):
    """The published potential coefficients for sigma(S) = sigma S^alpha."""
    C0 = alpha * sigma**2 * (alpha * sigma**2 / (alpha - 1.0) ** 2 - 1.0 / (2.0 * (alpha - 1.0)))
    c = r * r * (alpha - 1.0) ** 2 / sigma**4
    c0 = -2.0 * r * alpha - r * (alpha - 1.0) / (2.0 * sigma**2)
    return C0, c, c0


def cev_1d(sigma, alpha, r, delta1=1.0, delta2=1.0) -> CaseStudyResult:
    if alpha == 1.0:
        raise AlphaOne("alpha = 1 is the lognormal case, outside this chain")
    model = MarketModel(CEVVol(sigma, alpha), rate=r)
    rep = VerificationReport("one-asset power-law study")

    C0, c, c0 = published_power_law_coefficients(sigma, alpha, r)
    rep.payload["published coefficients"] = {"C0": C0, "c": c, "c0": c0}
    if r > 0:
        exponent = 0.25 - c0 / math.sqrt(2.0 * c)
        rep.payload["published power-law exponent"] = exponent

    def M_cat(x):
        return C0 / (x * x) + c * x * x + c0

    if alpha == 0.0:
        rep.record("inverse-square coefficient vanishes at alpha = 0", C0 == 0.0)

    M_asm = potential_m(model)
    x_lo, x_hi = sorted(
        (hd.value(gauge_coord_map(model, 0.6)[0]), hd.value(gauge_coord_map(model, 1.9)[0]))
    )
    xs = np.linspace(x_lo + 0.02, x_hi - 0.02, 25)
    diff = max(abs(M_cat(x) - M_asm(x)) for x in xs)
    rep.check(
        "published potential equals the drift-eliminated assembly",
        diff,
        1e-8,
        expected_discrepancy=diff > 1e-8,
        notes="published coefficients retain sigma explicitly; the normalized assembly does not",
    )

    if r == 0.0 or c == 0.0:
        return CaseStudyResult(model, None, None, rep, {"catalog_potential": M_cat})

    smap = map_1d_exp(c, c0, delta1, delta2)
    op = _quadratic_op(C0, c, delta1, delta2)
    xis = np.linspace(0.5, 1.6, 12)
    sim_pts = [(xi,) for xi in xis]

    # the published separated profile (even reflection: the reduced
    # equation is invariant under xi -> -xi and the chart sits at xi < 0
    # for alpha > 1)
    exponent = 0.25 - c0 / math.sqrt(2.0 * c)

    def P_claim(xi):
        xi = reflect(xi)
        return xi**exponent

    claim_resid = operator_residual(op, P_claim, sim_pts)
    scale = max(abs(P_claim(x)) for x in xis)
    rep.check(
        "published power-law profile solves the reduced equation",
        claim_resid / scale,
        1e-7,
        expected_discrepancy=claim_resid / scale > 1e-7,
        notes=(
            "a pure power xi^p needs p(p-1) = 2*C0 and a vanishing quartic term; "
            f"the published exponent {exponent:.6g} satisfies neither here"
        ),
    )

    # the verified separated profile: sqrt(xi) x Bessel in sqrt(2 c d1 d2) xi^2
    nu = math.sqrt(8.0 * C0 + 1.0) / 4.0
    b_arg = math.sqrt(2.0 * c * delta1 * delta2)
    from .specfun import bessel_jet

    jf = hd.lift1(*bessel_jet("J", nu))

    def P_good(xi):
        xi = reflect(xi)
        return hd.sqrt(xi) * jf(b_arg * xi * xi)

    good_resid = operator_residual(op, P_good, sim_pts)
    rep.check("verified separated profile solves the reduced equation", good_resid, 1e-8)
    rep.payload["verified radial order"] = nu

    u = smap.reconstruct(P_good)
    region = Region(((x_lo + 0.05, x_hi - 0.05), (0.1, 0.6)))
    fp = fp_residual(u, M_cat, region, threshold=1.0, n=30)
    scale = relative_scale(u, M_cat, region.points(10))
    rep.check(
        "reconstruction solves the catalog potential equation (relative FD residual)",
        fp.max_abs / scale,
        1e-6,
    )

    price = _priced_chain_with_bridge_check(model, u, rep, s_range=(0.7, 1.7))

    return CaseStudyResult(
        model, None, price, rep,
        {"catalog_potential": M_cat, "assembled_potential": M_asm, "similarity_map": smap,
         "invariant_solution": u},
    )


def _priced_chain_with_bridge_check(model, u, rep, s_range, T=1.0):
    """Map a potential-form solution to prices and record the asset-space
    residual.  The catalog potential differs from this model's assembly, so
    the bridge check is a documented discrepancy, never a silent one."""
    gauge = drift_and_gauge(model)
    price = price_from_u(model, u, T=T, gauge=gauge)
    region = Region(((s_range[0], s_range[1]), (0.3, 0.8)))
    bs = bs_residual(model, price, region, threshold=1.0, n=15)
    mid = 0.5 * (s_range[0] + s_range[1])
    price_scale = max(abs(price(mid, 0.5)), 1e-9)
    rep.check(
        "price chain satisfies the asset-space pricing equation (relative FD residual)",
        bs.max_abs / price_scale,
        1e-5,
        expected_discrepancy=True,
        notes=(
            "the invariant solution anchors to the published potential, which "
            "differs from this model's drift-eliminated assembly (reported above)"
        ),
    )
    return price


# ---------------------------------------------------------------------------
# one-asset exponential-volatility study
# ---------------------------------------------------------------------------


def expvol_1d(delta1=1.0, delta2=1.0) -> CaseStudyResult:
    model = MarketModel(ExponentialVol(), rate=0.0)
    rep = VerificationReport("one-asset exponential-volatility study")

    C0 = 0.5
    second_index = math.sqrt(8.0 * C0 + 1.0) / 4.0
    rep.record(
        "second Whittaker index sqrt(8 C0 + 1)/4 = sqrt(5)/4 at C0 = 1/2",
        abs(second_index - math.sqrt(5.0) / 4.0) < 1e-15,
    )
    rep.payload["whittaker second index"] = second_index
    rep.payload["inverse-square coefficient"] = C0

    def M_cat(x):
        return 0.5 / (x * x)

    M_asm = potential_m(model)
    xs = np.linspace(0.6, 3.0, 25)
    diff = max(abs(M_cat(x) - M_asm(x)) for x in xs)
    rep.check(
        "published potential equals the drift-eliminated assembly",
        diff,
        1e-8,
        expected_discrepancy=True,
        notes="both values are computed and reported; the catalog entry drives the chain",
    )
    rep.payload["assembled potential at x=1"] = M_asm(1.0)
    rep.payload["catalog potential at x=1"] = M_cat(1.0)

    smap = map_1d_poly(delta1, delta2)
    F = whittaker_radial(delta1, 0.0, C0)  # the one-variable family pins c1 = 0
    xis = np.linspace(0.5, 1.8, 12)
    resid = operator_residual(_inverse_square_op(C0, delta1), F, [(xi,) for xi in xis])
    scale = max(abs(hd.value(F(x))) for x in xis)
    rep.check("whittaker profile solves the reduced equation", resid / scale, 1e-8)

    u = smap.reconstruct(F)
    region = Region(((0.6, 2.6), (0.2, 0.9)))
    fp = fp_residual(u, M_cat, region, threshold=1.0, n=30)
    scale = relative_scale(u, M_cat, region.points(10))
    rep.check(
        "reconstruction solves the catalog potential equation (relative FD residual)",
        fp.max_abs / scale,
        1e-6,
    )

    price = _priced_chain_with_bridge_check(model, u, rep, s_range=(0.6, 1.6))

    return CaseStudyResult(
        model, None, price, rep,
        {"catalog_potential": M_cat, "assembled_potential": M_asm, "similarity_map": smap,
         "invariant_solution": u},
    )


# ---------------------------------------------------------------------------
# smile-asymmetry expansion
# ---------------------------------------------------------------------------


def smirk_expansion(alpha):
    """Coefficients of sigma_tilde(S)/sigma0 = sigma0 (S0/S) e^{alpha(1-S/S0)}
    expanded in powers of (S/S0 - 1): (1, -(1+alpha), 1 + alpha + alpha^2/2).

    The first-order coefficient is negative for every alpha > -1: the local
    volatility falls as the price rises.
    """
    return 1.0, -(1.0 + alpha), 1.0 + alpha + 0.5 * alpha * alpha
