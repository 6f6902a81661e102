"""Catalog tests: structure, round trips, consistency, closed forms."""

import math
import zlib

import numpy as np
import pytest

from liesolve import hyperdual as hd
from liesolve.errors import DivergenceError, NoClosedForm, SamplingError, SingularPoint
from liesolve.fields import random_smooth_field
from liesolve.reductions import (
    catalog,
    closed_form_solution,
    get_case,
    reconstruct_u,
    reduced_residual,
    similarity_map,
    verify_reduction_consistency,
)
from liesolve.symmetry import compatibility_condition, infinitesimals, symmetry_residual

ALL_CASES = sorted(catalog())


def params_for(cid, seed=0):
    # crc32, not hash(): str hashes change with PYTHONHASHSEED
    rng = np.random.default_rng(seed + zlib.crc32(cid.encode()) % 1000)
    return get_case(cid).draw_params(rng)


# ---------------------------------------------------------------------------
# structure
# ---------------------------------------------------------------------------


def test_catalog_size():
    assert len(catalog()) == 11


def test_catalog_contains_11a_template():
    assert get_case("1.1a").template == "C0/x^2 + b*y + c0"


def test_fixed_params_are_set_after_the_same_draws():
    # 1.4a/1.4b fix a = b = 0 over the draws, so every other value keeps its draw
    for cid in ("1.4a", "1.4b"):
        case = get_case(cid)
        rng = np.random.default_rng(5)
        drawn = {n: float(rng.uniform(0.5, 2.0)) for n in case.case_params + case.sym_params}
        assert case.draw_params(np.random.default_rng(5)) == dict(drawn, a=0.0, b=0.0)


def test_cases_without_closed_form():
    for cid in ("1.3", "1.6"):
        case = get_case(cid)
        assert not case.has_closed_form
        with pytest.raises(NoClosedForm):
            closed_form_solution(case, params_for(cid))


# ---------------------------------------------------------------------------
# similarity maps
# ---------------------------------------------------------------------------


def test_similarity_map_12b_degenerate_time():
    # delta2 = 0, c = 1/2, c0 = 0 at t = 0: (xi, eta) = (x, y), prefactor
    # exp((xi^2+eta^2)/2)  [f1 = e^{2at}, a = 1 at t=0 gives sqrt(f1) = 1]
    params = {"c": 0.5, "c0": 0.0, "delta1": 1.0, "delta2": 0.0}
    xi, eta, pref = similarity_map("1.2b", params, (0.7, -0.4, 0.0))
    assert xi == pytest.approx(0.7, rel=1e-14)
    assert eta == pytest.approx(-0.4, rel=1e-14)
    assert pref == pytest.approx(math.exp((0.7**2 + 0.4**2) / 2.0), rel=1e-12)


def test_similarity_map_12a_identity_slice():
    # delta2 = 0, delta1 = 1, c0 = 0 at t = 1: xi = x, eta = y, prefactor = 1
    params = {"c0": 0.0, "delta1": 1.0, "delta2": 0.0}
    xi, eta, pref = similarity_map("1.2a", params, (1.3, 0.8, 1.0))
    assert xi == pytest.approx(1.3, rel=1e-14)
    assert eta == pytest.approx(0.8, rel=1e-14)
    assert pref == pytest.approx(1.0, rel=1e-12)


def test_similarity_map_singular_guard():
    params = params_for("1.1a")
    with pytest.raises(SingularPoint):
        similarity_map("1.1a", params, (1.0, 0.5, 1e-12))


def test_reconstruct_round_trip():
    # 100 non-singular points per case
    for cid in ALL_CASES:
        case = get_case(cid)
        params = params_for(cid, seed=4)
        rng = np.random.default_rng(9)
        P = random_smooth_field(rng, nargs=2)
        u = reconstruct_u(case, params, P)
        smap = case.similarity(params)
        for (x, y, t) in case.region_xyt(params, n=100, seed=5):
            xi, eta = smap.to_sim(x, y, t)
            pref = math.exp(hd.value(smap.prefactor_log(x, y, t)))
            # P = prefactor * u must recover the drawn P
            assert pref * u(x, y, t) == pytest.approx(
                P(hd.value(xi), hd.value(eta)), rel=1e-10, abs=1e-12
            ), cid


# ---------------------------------------------------------------------------
# admissibility: the catalog symmetry data satisfies the determining
# condition, and generates true invariances
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cid", ALL_CASES)
def test_compatibility_all_cases_ten_draws(cid):
    case = get_case(cid)
    rng = np.random.default_rng(31)
    for _ in range(10):
        params = case.draw_params(rng)
        data = case.symmetry_data(params)
        M = case.potential_field(params)
        pts = case.region_xyt(params, n=10, seed=1)
        assert compatibility_condition(data, M, points=pts) <= 1e-9, params


@pytest.mark.parametrize("cid", ALL_CASES)
def test_symmetry_residual_all_cases(cid):
    case = get_case(cid)
    rng = np.random.default_rng(13)
    params = case.draw_params(rng)
    data = case.symmetry_data(params)
    vf = infinitesimals(data)
    M = case.potential_field(params)
    pts = case.region_xyt(params, n=8, seed=3)
    for trial in range(3):
        u = random_smooth_field(np.random.default_rng(trial + 50), nargs=3)
        assert symmetry_residual(vf, M, u, points=pts) <= 1e-6


# ---------------------------------------------------------------------------
# reduction consistency (the Jacobian-ratio test)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cid", ALL_CASES)
def test_reduction_consistency(cid):
    case = get_case(cid)
    params = params_for(cid, seed=2)
    rep = verify_reduction_consistency(case, params, trials=3, seed=11)
    assert rep.consistent, rep


def test_consistency_flags_corrupted_map():
    # scaling eta by 1.01 must break the ratio agreement visibly
    case = get_case("1.2a")
    params = params_for("1.2a", seed=2)
    smap = case.similarity(params)
    orig = smap.to_sim
    smap_to_sim = lambda x, y, t: (orig(x, y, t)[0], 1.01 * orig(x, y, t)[1])

    import dataclasses

    import liesolve.reductions as R

    monkey = dataclasses.replace(smap, to_sim=smap_to_sim)
    try:
        case.similarity = lambda p: monkey
        rep = R.verify_reduction_consistency(case, params, trials=1, seed=5)
        assert not rep.consistent
        assert rep.max_rel_deviation > 1e-3
    finally:
        del case.similarity


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def _solves_reduced_equation(cid, params):
    case = get_case(cid)
    constants = {"c1": 4.0} if cid in ("1.4a", "1.4b") else {"c1": 1.0}
    sol = closed_form_solution(case, params, constants)
    pts = case.region_sim(params, n=30, seed=8)
    r = reduced_residual(case, params, sol, points=pts)
    # normalize by the field scale on the sampling set
    scale = max(abs(hd.value(sol.P(xi, eta))) for (xi, eta) in pts[:10])
    assert r / max(scale, 1e-6) <= 1e-7, (cid, r, scale)


@pytest.mark.parametrize("cid", [c for c in ALL_CASES if c not in ("1.3", "1.6")])
def test_closed_form_solves_reduced_equation(cid):
    _solves_reduced_equation(cid, params_for(cid, seed=6))


# A 1.5a draw that leaves the 1F1 box at every sampling point: rng 752 is
# seed 6 + abs(hash("1.5a")) % 1000 under PYTHONHASHSEED=4, which the
# hash-seeded params_for used to draw.
def _box_escape(error):
    return pytest.mark.xfail(
        raises=error,
        strict=True,
        reason="ROADMAP item 1: draw_params leaves the 1F1 box",
    )


@_box_escape(SamplingError)
def test_closed_form_solves_reduced_equation_15a_box_escape():
    _solves_reduced_equation("1.5a", get_case("1.5a").draw_params(np.random.default_rng(752)))


def test_zero_field_residual_is_zero():
    case = get_case("1.4b")
    params = params_for("1.4b", seed=1)
    r = reduced_residual(case, params, lambda xi, eta: 0.0 * xi)
    assert r == 0.0


def test_14b_separation_algebra():
    # the angular frequency obeys q = sqrt(c1 - 2 C0); c1 = 4, C0 = 1 -> sqrt(2)
    params = {"C0": 1.0, "c": 0.5, "a": 0.0, "b": 0.0, "c0": 0.0, "delta1": 1.0, "delta2": 1.0}
    sol = closed_form_solution("1.4b", params, {"c1": 4.0, "C3": 0.0, "C4": 1.0})
    th = 0.37
    assert hd.value(sol.F2(th)) == pytest.approx(math.cos(math.sqrt(2.0) * th), rel=1e-12)


def test_18b_wrong_factor_sign_reported():
    # replacing F2' = -(c1/2) F2 by +(c1/2) F2 leaves a visible residual when
    # c1 != 0: the separation algebra pins the sign
    case = get_case("1.8b")
    params = params_for("1.8b", seed=3)
    c1 = 2.0
    good = closed_form_solution(case, params, {"c1": c1})
    pts = case.region_sim(params, n=20, seed=2)
    r_good = reduced_residual(case, params, good, points=pts)

    F1 = good.F1

    def bad_P(xi, eta):
        return F1(xi) * hd.exp(+0.5 * c1 * eta)

    r_bad = reduced_residual(case, params, bad_P, points=pts)
    assert r_good <= 1e-9
    assert r_bad > 1e-2


def _reconstructs_to_solution(cid, params):
    case = get_case(cid)
    constants = {"c1": 4.0} if cid in ("1.4a", "1.4b") else {"c1": 1.0}
    sol = closed_form_solution(case, params, constants)
    u = reconstruct_u(case, params, sol)
    M = case.potential_field(params)
    worst = 0.0
    for (x, y, t) in case.region_xyt(params, n=10, seed=4):
        pt = (x, y, t)
        r = hd.derivative(u, pt, 2) - 0.5 * (
            hd.derivative(u, pt, 0, 2) + hd.derivative(u, pt, 1, 2)
        ) + M(x, y) * u(x, y, t)
        scale = max(1.0, abs(u(x, y, t)))
        worst = max(worst, abs(r) / scale)
    assert worst <= 1e-8, (cid, worst)


@pytest.mark.parametrize("cid", [c for c in ALL_CASES if c not in ("1.3", "1.6")])
def test_closed_form_reconstructs_to_solution(cid):
    """Reconstructed u from the separated solution solves the full equation
    (checked with exact derivatives here; the FD oracle runs in acceptance)."""
    _reconstructs_to_solution(cid, params_for(cid, seed=6))


@_box_escape(DivergenceError)
def test_closed_form_reconstructs_to_solution_15a_box_escape():
    _reconstructs_to_solution("1.5a", get_case("1.5a").draw_params(np.random.default_rng(752)))


def test_factor_ode_separation_residuals():
    """Each factor satisfies its one-variable ODE (finite differences
    h=1e-4, the stated independent check)."""
    case = get_case("1.4b")
    params = {"C0": 1.0, "c": 0.5, "a": 0.0, "b": 0.0, "c0": 0.0, "delta1": 1.0, "delta2": 1.0}
    c1 = 4.0
    sol = closed_form_solution(case, params, {"c1": c1})
    b = math.sqrt(2.0 * 0.5 * 1.0 * 1.0)
    from liesolve import numdiff

    worst = 0.0
    F = lambda r: hd.value(sol.F1(r))
    for rho in np.linspace(0.5, 1.8, 50):
        d1 = numdiff.d1(F, rho, 1e-4)
        d2 = numdiff.d2(F, rho, 1e-4)
        resid = rho**2 * d2 + rho * d1 + (4 * b**2 * rho**4 - c1) * F(rho)
        worst = max(worst, abs(resid))
    assert worst <= 1e-7
