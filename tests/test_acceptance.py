"""Acceptance suite: the exit criteria, one test per criterion.

Every criterion prints a single PASS/FAIL line (visible with ``pytest -s``
or in the captured output) and asserts at its stated tolerance.  Documented
discrepancies of the published displays are accepted only where the relevant
study marks them ``expected_discrepancy``; silent failures are not.
"""

import math

import numpy as np
import pytest

from liesolve import specfun as sf
from liesolve.casestudies import cev_1d, double_cev, expvol_1d
from liesolve.cli import run as cli_run
from liesolve.exprlang import match_case, parse, evaluate
from liesolve.fields import heat_kernel, random_smooth_field, shifted_heat_kernel
from liesolve.reductions import (
    catalog,
    closed_form_solution,
    get_case,
    reconstruct_u,
    verify_reduction_consistency,
)
from liesolve.symmetry import (
    commutator,
    compatibility_condition,
    expected_commutator,
    infinitesimals,
    poly,
    rotation_derived_solution,
    symmetry_residual,
    transform_solution,
    v1,
    v2,
    v3,
    v4,
    v5,
    v6,
    vector_fields_equal,
    PRINTED_TABLE_DEVIATIONS,
)
from liesolve.transform import CEVVol, MarketModel
from liesolve.verify import Grid, Region, SdeConfig, fd_evolve, fp_residual, mc_simulate

M_ZERO = lambda x, y: 0.0


def _verdict(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


# ---------------------------------------------------------------------------
# 1. special-function identities
# ---------------------------------------------------------------------------


def test_criterion_1_special_functions():
    zs = [0.1 * (200.0) ** (i / 49.0) for i in range(50)]
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 2.5):
        jf, jd, _ = sf.bessel_jet("J", nu)
        yf, yd, _ = sf.bessel_jet("Y", nu)
        i_f, i_d, _ = sf.bessel_jet("I", nu)
        kf, kd, _ = sf.bessel_jet("K", nu)
        for z in zs:
            wjy = jf(z) * yd(z) - jd(z) * yf(z)
            worst = max(worst, abs(wjy - 2.0 / (math.pi * z)) / (2.0 / (math.pi * z)))
            wik = i_f(z) * kd(z) - i_d(z) * kf(z)
            worst = max(worst, abs(wik + 1.0 / z) * z)
    rng = np.random.default_rng(2024)
    kworst = 0.0
    for _ in range(100):
        a = rng.uniform(-5, 5)
        b = rng.uniform(0.5, 8)
        z = rng.uniform(-30, 30)
        lhs = sf.hypergeometric("Kummer1F1", a=a, b=b, z=z).value
        rhs = math.exp(z) * sf.hypergeometric("Kummer1F1", a=b - a, b=b, z=-z).value
        kworst = max(kworst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-290))
    ok = worst <= 1e-9 and kworst <= 1e-9
    _verdict(1, ok, f"wronskians {worst:.2e}, kummer transform {kworst:.2e} (<= 1e-9)")


# ---------------------------------------------------------------------------
# 2. determining condition + linearized invariance for all eleven cases
# ---------------------------------------------------------------------------


def test_criterion_2_symmetry_criterion():
    rng = np.random.default_rng(77)
    worst_compat = 0.0
    worst_sym = 0.0
    for cid, case in catalog().items():
        for draw in range(10):
            params = case.draw_params(rng)
            data = case.symmetry_data(params)
            M = case.potential_field(params)
            pts = case.region_xyt(params, n=6, seed=draw)
            worst_compat = max(worst_compat, compatibility_condition(data, M, points=pts))
            vf = infinitesimals(data)
            for trial in range(3):
                u = random_smooth_field(np.random.default_rng(1000 * draw + trial), nargs=3)
                worst_sym = max(worst_sym, symmetry_residual(vf, M, u, points=pts))
    ok = worst_compat <= 1e-9 and worst_sym <= 1e-6
    _verdict(
        2,
        ok,
        f"compatibility {worst_compat:.2e} (<= 1e-9), invariance {worst_sym:.2e} (<= 1e-6), "
        "11 cases x 10 draws x 3 fields",
    )


# ---------------------------------------------------------------------------
# 3. commutation-table replication
# ---------------------------------------------------------------------------


def test_criterion_3_commutation_table():
    rng = np.random.default_rng(31)
    worst = 0.0

    def cubic():
        return poly(*rng.uniform(-1.0, 1.0, size=4))

    def build(i, phi, psi):
        return {1: lambda: v1(), 2: lambda: v2(phi), 3: lambda: v3(phi),
                4: lambda: v4(phi), 5: lambda: v5(phi), 6: lambda: v6(psi)}[i]()

    for i in range(1, 7):
        for j in range(i, 7):
            phi_i, phi_j = cubic(), cubic()
            psi = random_smooth_field(rng, nargs=3)
            got = commutator(build(i, phi_i, psi), build(j, phi_j, psi))
            want = expected_commutator(i, j, phi_i=phi_i, phi_j=phi_j, psi=psi)
            worst = max(worst, vector_fields_equal(got, want))
    ok = worst <= 1e-7
    _verdict(
        3,
        ok,
        f"all 21 entries match the verified table, max dev {worst:.2e} (<= 1e-7); "
        f"printed-source deviations documented for cells {sorted(PRINTED_TABLE_DEVIATIONS)}",
    )


# ---------------------------------------------------------------------------
# 4. closed forms reconstruct to solutions
# ---------------------------------------------------------------------------


def _reconstruction_relative_residual(cid, constants):
    case = get_case(cid)
    params = case.draw_params(np.random.default_rng(5))
    sol = closed_form_solution(case, params, constants)
    u = reconstruct_u(case, params, sol)
    M = case.potential_field(params)
    pts = case.region_xyt(params, n=40, seed=2)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    ts = [p[2] for p in pts]
    smap = case.similarity(params)
    region = Region(
        ((min(xs), max(xs)), (min(ys), max(ys)), (min(ts), max(ts))),
        guard=lambda x, y, t: smap.singular(x, y, t),
    )
    rep = fp_residual(u, M, region, threshold=1.0, n=30)
    scale = 0.0
    for p in region.points(12):
        try:
            scale = max(scale, abs(u(*p)) * (1.0 + abs(M(*p[:2]))))
        except Exception:
            continue
    return rep.max_abs / max(scale, 1e-12)


def test_criterion_4_closed_form_verification():
    # hard requirements: the hand-verified radial/trig case and the linear case
    hard = {
        "1.4b": {"c1": 4.0},
        "1.5a": {"c1": 1.0},
    }
    lines = []
    ok = True
    for cid, constants in hard.items():
        rel = _reconstruction_relative_residual(cid, constants)
        lines.append(f"{cid}:{rel:.2e}")
        ok = ok and rel <= 1e-6
    # remaining closed-form cases run through the same check
    for cid, constants in {
        "1.1a": {"c1": 1.0},
        "1.1b": {"c1": 1.0},
        "1.2a": {"c1": 1.0},
        "1.2b": {"c1": 1.0},
        "1.4a": {"c1": 4.0},
        "1.8a": {"c1": 1.0},
        "1.8b": {"c1": 1.0},
    }.items():
        rel = _reconstruction_relative_residual(cid, constants)
        lines.append(f"{cid}:{rel:.2e}")
        ok = ok and rel <= 1e-6
    # the published study chains: pass or documented discrepancy, never silent
    for res in (double_cev(r=0.05), cev_1d(1.0, 2.0, 0.1), expvol_1d()):
        ok = ok and res.verification.clean
        n_disc = len(res.verification.documented_discrepancies)
        lines.append(f"{res.verification.title.split(',')[0]}: clean with {n_disc} documented")
    _verdict(4, ok, "reconstruction residuals " + ", ".join(lines))


# ---------------------------------------------------------------------------
# 5. reduction consistency
# ---------------------------------------------------------------------------


def test_criterion_5_reduction_consistency():
    worst = 0.0
    for cid, case in catalog().items():
        params = case.draw_params(np.random.default_rng(17))
        rep = verify_reduction_consistency(case, params, trials=3, seed=4)
        worst = max(worst, rep.max_rel_deviation)
        assert rep.consistent, cid
    _verdict(5, worst <= 1e-6, f"jacobian-ratio agreement {worst:.2e} (<= 1e-6), 11 cases x 3 trials")


# ---------------------------------------------------------------------------
# 6. group actions on solutions
# ---------------------------------------------------------------------------


def test_criterion_6_transforms():
    phi = shifted_heat_kernel(0.6, -0.4)
    region = Region(((-1.4, 1.4), (-1.4, 1.4), (0.6, 1.6)))
    M0 = lambda x, y: 0.0
    results = {}
    u1 = transform_solution(1, phi, eps=0.7)
    u5 = transform_solution(5, phi, eps=1.1, f4=poly(0.7))
    u6 = transform_solution(6, phi, eps=0.3, g=heat_kernel())
    u2 = transform_solution(2, phi, eps=0.5, delta=0.8)
    for name, u in (("u1", u1), ("u2", u2), ("u5", u5), ("u6", u6)):
        results[name] = fp_residual(u, M0, region, threshold=1e-6, n=25).max_abs
    # group law for the scaling action
    f4 = poly(0.4, 0.3)
    a = transform_solution(5, transform_solution(5, phi, eps=0.3, f4=f4), eps=0.9, f4=f4)
    b = transform_solution(5, phi, eps=1.2, f4=f4)
    law = 0.0
    for (x, y, t) in [(0.5, -0.3, 0.8), (1.0, 0.7, 1.2), (-0.6, 0.2, 0.9)]:
        law = max(law, abs(a(x, y, t) - b(x, y, t)) / abs(b(x, y, t)))
    # rotation-derived solution for a radial-type potential
    g = shifted_heat_kernel(0.5, 0.0)
    rot = rotation_derived_solution(g, M0)
    results["rotation-derived"] = fp_residual(rot, M0, region, threshold=1e-6, n=25).max_abs
    ok = all(v <= 1e-6 for v in results.values()) and law <= 1e-12
    _verdict(
        6,
        ok,
        "residuals "
        + ", ".join(f"{k}={v:.1e}" for k, v in results.items())
        + f"; composition law {law:.1e} (<= 1e-12)",
    )


# ---------------------------------------------------------------------------
# 7. oracle cross-checks
# ---------------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::liesolve.errors.BoundaryContamination")
def test_criterion_7a_heat_kernel_evolution():
    s0, tau = 0.5, 0.5
    grid = Grid(((-8.0, 8.0, 256), (-8.0, 8.0, 256)), dt=1e-3)
    u0 = lambda x, y: math.exp(-(x * x + y * y) / (2 * s0)) / (2 * math.pi * s0)
    out = fd_evolve(M_ZERO, u0, grid, tau)
    X, Y = out.meshgrid()
    s1 = s0 + tau
    ref = np.exp(-(X**2 + Y**2) / (2 * s1)) / (2 * math.pi * s1)
    err = float(np.max(np.abs(out.values - ref)))

    # convergence order from a nested pair
    errs = []
    M = lambda x, y: 0.5 + 0.1 * math.tanh(x) * math.tanh(y)
    g0 = lambda x, y: math.exp(-(x * x + y * y)) / math.pi
    fine = Grid(((-7.0, 7.0, 193), (-7.0, 7.0, 193)), dt=6.25e-4)
    ref2 = fd_evolve(M, g0, fine, 0.25)
    for (n, dt) in ((49, 5e-3), (97, 2.5e-3)):
        g = Grid(((-7.0, 7.0, n), (-7.0, 7.0, n)), dt=dt)
        o = fd_evolve(M, g0, g, 0.25)
        step = 192 // (n - 1)
        errs.append(float(np.max(np.abs(o.values - ref2.values[::step, ::step]))))
    order = math.log2(errs[0] / errs[1])
    ok = err <= 1e-3 and 1.7 <= order <= 2.3
    _verdict(7, ok, f"heat L-inf {err:.2e} (<= 1e-3), observed order {order:.2f} in [1.7, 2.3]")


@pytest.mark.slow
def test_criterion_7b_gbm_martingale():
    cfg = SdeConfig(
        vol1=CEVVol(0.2, 1.0), use_risk_neutral=True, rate=0.05,
        s0_1=1.0, paths=1_000_000, steps=64, seed=99,
    )
    out = mc_simulate(cfg, T=1.0)
    mean = float(np.mean(out.s1))
    se = float(np.std(out.s1) / math.sqrt(len(out.s1)))
    target = math.exp(0.05)
    ok = abs(mean - target) <= 3 * se
    _verdict(7, ok, f"terminal mean {mean:.6f} vs e^rT = {target:.6f} within 3 s.e. ({se:.2e})")


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::liesolve.errors.BoundaryContamination")
def test_criterion_7c_cev_density_fd_vs_mc():
    """Two independent routes to the square-root-volatility terminal law:
    the evolved potential-form density versus raw path simulation."""
    sigma, alpha, r, s0, T = 1.0, 0.5, 0.0, 1.0, 1.0
    model = MarketModel(CEVVol(sigma, alpha), rate=r)

    # potential-form route: x = 2 sqrt(S), M = 3/(8 x^2), start at x0 = 2
    from liesolve.transform import potential_m

    M = potential_m(model)
    x0 = 2.0 * math.sqrt(s0)
    width = 0.02
    u0 = lambda x: math.exp(-((x - x0) ** 2) / (2 * width**2)) / (
        math.sqrt(2 * math.pi) * width
    )
    grid = Grid(((0.05, 12.0, 1200),), dt=5e-4)
    out = fd_evolve(M, u0, grid, T)
    xs = out.axis(0)
    # gauge weight exp(omega(x0) - omega(x)) = sqrt(x0/x); S-CDF reduces to
    # the x-integral of that weighted density
    w = np.sqrt(x0 / xs) * out.values
    cdf_x = np.concatenate([[0.0], np.cumsum(0.5 * (w[1:] + w[:-1]) * np.diff(xs))])
    survival = cdf_x[-1]
    atom = max(0.0, 1.0 - survival)

    cfg = SdeConfig(
        vol1=CEVVol(sigma, alpha), use_risk_neutral=True, rate=r,
        s0_1=s0, paths=1_000_000, steps=256, seed=7,
    )
    mc = mc_simulate(cfg, T=T)

    from liesolve.verify import sup_cdf_distance

    sup = sup_cdf_distance(
        mc.s1,
        lambda v: atom + float(np.interp(2.0 * math.sqrt(v), xs, cdf_x, left=0.0)),
        atom_at_zero=atom,
    )
    ok = sup <= 2e-2
    _verdict(
        7,
        ok,
        f"square-root-vol sup-CDF distance {sup:.4f} (<= 0.02), absorbed atom {atom:.4f}",
    )


# ---------------------------------------------------------------------------
# 8. classification
# ---------------------------------------------------------------------------


_OPAQUE = {
    "1.2a": lambda s: 2.0 + math.sin(s) + 0.3 * math.sin(2 * s),
    "1.2b": lambda s: 2.0 + math.sin(s) + 0.3 * math.sin(2 * s),
    "1.3": lambda s: 2.0 + math.sin(s),
    "1.6": lambda s: math.exp(-s) + 0.2 * s**3,
    "1.8a": lambda s: math.sin(1.3 * s) + 0.1 * s**4,
    "1.8b": lambda s: math.sin(1.3 * s) + 0.1 * s**4,
}

_MATCH_PARAMS = {
    "1.1a": ["C0", "b", "c0"],
    "1.1b": ["C0", "c", "b", "c0"],
    "1.2a": ["c0"],
    "1.2b": ["c", "c0"],
    "1.3": ["lam", "c0"],
    "1.4a": ["C0", "a", "b", "c0"],
    "1.4b": ["C0", "c", "a", "b", "c0"],
    "1.5a": ["a", "b", "c0"],
    "1.6": ["d"],
    "1.8a": ["b"],
    "1.8b": ["c", "b"],
}


def test_criterion_8_classification():
    rng = np.random.default_rng(123)
    worst = 0.0
    for cid, names in _MATCH_PARAMS.items():
        params = {n: float(rng.uniform(0.5, 2.0)) for n in names}
        opaque = {"C": _OPAQUE[cid]} if cid in _OPAQUE else None
        from liesolve.exprlang import template_expr

        m = match_case(template_expr(cid), params=params, opaque=opaque)
        assert m.case_id == cid, (cid, m)
        for n, v in params.items():
            worst = max(worst, abs(m.bindings[n] - v))

    # the two-asset study potential classifies as the quadratic-radial case
    # with angular factor 48/cos^2(2 th), i.e. (2/rho^2) * 24/cos^2(2 th)
    r = 0.05
    expr = parse("48*(x^2+y^2)/(x^2-y^2)^2 + r^2*(x^2+y^2) - 18*r")
    f = lambda x, y: evaluate(expr, {"x": x, "y": y}, {"r": r})
    m = match_case(f)
    ok_dcev = m.case_id == "1.2b"
    ang = 0.0
    for th, val in m.opaque_samples:
        ang = max(ang, abs(val - 2.0 * 24.0 / math.cos(2 * th) ** 2) / val)
    ok = worst <= 1e-8 and ok_dcev and ang <= 1e-8
    _verdict(
        8,
        ok,
        f"template parameter recovery {worst:.2e} (<= 1e-8); study potential -> 1.2b "
        f"with angular factor = 2*24/cos^2(2 theta) to {ang:.2e}",
    )


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism():
    cfg = {
        "version": 1,
        "command": "verify",
        "case": "1.4b",
        "seed": 3,
        "params": {"delta1": 1.0, "delta2": 1.0, "c": 0.5, "C0": 1.0},
        "constants": {"c1": 4.0},
    }
    _, rep1 = cli_run(dict(cfg))
    _, rep2 = cli_run(dict(cfg))
    ok = rep1.to_json() == rep2.to_json()
    _verdict(9, ok, "byte-identical machine-readable reports for identical config + seed")
