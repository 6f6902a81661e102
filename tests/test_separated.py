"""Separated-factor tests: one special-function evaluation per point and
order, golden digests of the Whittaker factors and their jets, 1.1b's
Frobenius pair, the Wronskian of every two-constant factor, and the ODE
factor's spectral solve against a tight reference, with its typed errors."""

import hashlib
import math

import numpy as np
import pytest

from liesolve import hyperdual as hd
from liesolve import specfun as sf
from liesolve.errors import DivergenceError, DomainError, SpecfunDomain
from liesolve.reductions import closed_form_solution, get_case
from liesolve.reductions import separated as SEP
from liesolve.reductions.catalog import _C_LINE as C_LINE
from liesolve.reductions.catalog import _C_THETA as C_THETA


@pytest.fixture
def hyp1f1_calls(monkeypatch):
    """Every (a, b) that _hyp1f1 is called with, in call order."""
    calls = []
    original = sf._hyp1f1

    def counting(a, b, z, tol=1e-12):
        calls.append((complex(a), complex(b)))
        return original(a, b, z, tol)

    monkeypatch.setattr(sf, "_hyp1f1", counting)
    return calls


def _shifted_orders(kappa, mu):
    a = complex(mu - kappa + 0.5)
    b = complex(1.0 + 2.0 * mu)
    return [(a + k, b + k) for k in range(3)]


@pytest.fixture
def coulomb_sums(monkeypatch):
    """Every (b, eta) that the scalar Coulomb series is summed at, in order."""
    calls = []
    original = sf._coulomb_series

    def counting(b, eta, tau, tol, cap=sf._SERIES_CAP):
        calls.append((b, eta))
        return original(b, eta, tau, tol, cap)

    monkeypatch.setattr(sf, "_coulomb_series", counting)
    return calls


def _frobenius_orders(w, s, C0):
    mu = math.sqrt(8 * C0 + 1) / 4.0
    return [(1.0 + 2.0 * mu, s / (4.0 * w)), (1.0 - 2.0 * mu, s / (4.0 * w))]


def test_imag_whittaker_factor_dual_pass_sums_each_series_once(coulomb_sums, hyp1f1_calls):
    # a Dual2 pass sums the +mu and the -mu series once each, with their
    # derivatives, and a float call at its point sums none
    w, s, C0 = 1.3, 0.7, 0.6
    F = SEP.imag_whittaker_radial(w, s, C0, 1.0, 0.4)
    F(hd.Dual2(0.8, 1.0, 1.0))
    assert coulomb_sums == _frobenius_orders(w, s, C0)
    F(0.8)
    assert len(coulomb_sums) == 2
    assert hyp1f1_calls == []


def test_imag_whittaker_factor_float_sums_each_series_once(coulomb_sums):
    # one sum per series and point; the -mu series only when C2 != 0
    F = SEP.imag_whittaker_radial(1.3, 0.7, 0.6, 1.0, 0.4)
    F(0.8)
    F(-1.1)
    assert coulomb_sums == _frobenius_orders(1.3, 0.7, 0.6) * 2
    coulomb_sums.clear()
    SEP.imag_whittaker_radial(1.3, 0.7, 0.6)(0.8)
    assert coulomb_sums == _frobenius_orders(1.3, 0.7, 0.6)[:1]


def test_imag_whittaker_factor_derivative_sign_on_negative_half_line():
    # C0 = 0.6: the exponents 1/2 +- 2 mu are not integers, and the factor
    # is the even extension of its positive half-line
    w, s, C0 = 1.3, 0.7, 0.6
    F = SEP.imag_whittaker_radial(w, s, C0)
    x, h = -1.1, 1e-5
    central = (F(x + h) - F(x - h)) / (2 * h)
    seeded = F(hd.Dual2(x, 1.0, 1.0))
    assert central == pytest.approx(-0.94997, abs=5e-5)
    assert seeded.b == pytest.approx(central, rel=1e-8)
    assert seeded.c == seeded.b
    # the even factor: F'(-x) = -F'(x), F''(-x) = F''(x)
    mirrored = F(hd.Dual2(-x, 1.0, 1.0))
    assert (seeded.a, seeded.b, seeded.d) == (mirrored.a, -mirrored.b, mirrored.d)


def test_imag_whittaker_pair_at_c0_zero_continues_across_zero():
    # C0 = 0: F+ = xi psi+(w xi^2) is odd and F- = psi-(w xi^2) even, both
    # analytic through xi = 0, where the central difference meets F'
    w, s = 1.7, -0.9
    odd = SEP.imag_whittaker_radial(w, s, 0.0, 1.0, 0.0)
    even = SEP.imag_whittaker_radial(w, s, 0.0, 0.0, 1.0)
    for x in (0.3, 1.2):
        p, m = odd(hd.Dual2(x, 1.0, 1.0)), odd(hd.Dual2(-x, 1.0, 1.0))
        assert (p.a, p.b, p.d) == (-m.a, m.b, -m.d)
        p, m = even(hd.Dual2(x, 1.0, 1.0)), even(hd.Dual2(-x, 1.0, 1.0))
        assert (p.a, p.b, p.d) == (m.a, -m.b, m.d)
    h = 1e-4
    for F, slope in ((odd, 1.0), (even, 0.0)):
        at0 = F(hd.Dual2(0.0, 1.0, 1.0))
        assert at0.b == slope
        assert (F(h) - F(-h)) / (2 * h) == pytest.approx(slope, abs=1e-7)


def test_imag_whittaker_second_solution_at_integer_two_mu_raises():
    # C0 = 3/8 gives 2 mu = 1: the -mu series meets k + b - 1 = 0, and the
    # second solution is logarithmic
    SEP.imag_whittaker_radial(1.3, 0.7, 0.375)  # the +mu solution alone
    with pytest.raises(SpecfunDomain, match=r"2 mu = 1\.0 at C0 = 0\.375"):
        SEP.imag_whittaker_radial(1.3, 0.7, 0.375, 1.0, 0.5)
    with pytest.raises(SpecfunDomain, match="w > 0"):
        SEP.imag_whittaker_radial(0.0, 0.7, 0.6)


def test_imag_whittaker_factor_lanes_match_points():
    # float and Dual2 lanes, each lane bitwise its point, with no rerun
    F = SEP.imag_whittaker_radial(2.1, 0.7, 0.6, 1.0, 0.4)
    fresh = SEP.imag_whittaker_radial(2.1, 0.7, 0.6, 1.0, 0.4)
    xs = np.array([0.45, -1.1, 1.9, 0.45, 2.6])
    seeded = F(hd.Dual2(xs, np.ones(5), np.ones(5)))
    values = F(hd.float_lanes(xs))
    for k, x in enumerate(xs.tolist()):
        want = fresh(hd.Dual2(x, 1.0, 1.0))
        assert [getattr(seeded, slot)[k].hex() for slot in "abcd"] == [
            getattr(want, slot).hex() for slot in "abcd"
        ]
        assert values[k].hex() == fresh(x).hex()


def test_whittaker_radial_dual_pass_makes_three_calls(hyp1f1_calls):
    d, s, C0 = 0.9, 1.4, 0.3
    F = SEP.whittaker_radial(d, s, C0)
    F(hd.Dual2(1.2, 1.0, 1.0))
    mu = np.sqrt(8 * C0 + 1) / 4.0
    assert hyp1f1_calls == _shifted_orders(s / (2.0 * d) - 0.25, mu)
    # the float call lands on the point of the Dual2 pass: the memo has it
    hyp1f1_calls.clear()
    F(1.2)
    assert len(hyp1f1_calls) == 0
    SEP.whittaker_radial(d, s, C0)(1.2)
    assert len(hyp1f1_calls) == 1


# -- golden digests, recorded with a separate jet call per element and order --

WHITTAKER_CASES = ("1.1a", "1.1b", "1.5a")
# the second set switches on the second solution: Whittaker W in 1.1a and
# 1.5a, the -mu Frobenius solution in 1.1b
CONSTANTS = ({}, {"c1": 0.7, "C2": 0.4, "C4": -0.3})
XS = (0.45, 0.9, 1.35, -1.1, 1.75)
SIM_POINTS = ((0.6, 0.5), (1.3, -0.8), (-0.9, 1.2), (1.7, 0.35))
JET_ARGS = ((0.3, 0.45, 1.7), (0.8, 0.6, 0.9), (-0.2j, 0.25, 3.1j), (0.35j, 0.55, 1.4j))


def _hexc(v):
    v = complex(v)
    return f"{v.real.hex()},{v.imag.hex()}"


def _record(h, out):
    if isinstance(out, hd.Dual2):
        h.update("D".join(_hexc(s) for s in (out.a, out.b, out.c, out.d)).encode())
    else:
        h.update(_hexc(out).encode())
    h.update(b";")


def _factor_digest(cid):
    case = get_case(cid)
    h = hashlib.sha256()
    for draw in range(3):
        params = case.draw_params(np.random.default_rng([11, draw]))
        for constants in CONSTANTS:
            sol = closed_form_solution(case, params, constants)
            op = case.reduced_operator(params)
            for F in (sol.F1, sol.F2):
                for x in XS:
                    _record(h, F(x))
                    _record(h, F(hd.Dual2(x, 1.0, 1.0)))
                    _record(h, F(hd.Dual2(x, 1.0, -0.5, 0.25)))
                    for v in hd.jet(F, (x,), 0):
                        _record(h, v)
            for xi, eta in SIM_POINTS:
                _record(h, sol.P(xi, eta))
                _record(h, op(sol.P, xi, eta))
    return h.hexdigest()


# 1.1b was re-recorded when its factor became the real Frobenius pair
# F+- = xi^(1/2 +- 2 mu) psi+-(w xi^2): C1's solution is the old one divided
# by cos(pi (2 mu + 1)/4) w^(mu + 1/2), C2's is the -mu solution (the old
# C2 rescaled C1's), and the C0 = 0 factor is odd in place of the even
# reflection
FACTOR_GOLDEN = {
    "1.1a": "844d2782e9d60b5e467307d5a0f0f4a1cf827c837cd107f123f1acefbad78275",
    "1.1b": "f0e4acafcb9c0f11c2d60a58eae90f4e9db242fcbfeacada6ecb451c49aa7d18",
    "1.5a": "382dfcc645c7e45dcd354d6d0e9afe3f2fbc4ac485111e4c44b02491c7c5e5e7",
}


@pytest.mark.parametrize("cid", WHITTAKER_CASES)
def test_whittaker_factor_golden_digests(cid):
    assert _factor_digest(cid) == FACTOR_GOLDEN[cid]


def _jet_digest():
    h = hashlib.sha256()
    for kappa, mu, z in JET_ARGS:
        for builder in (sf.whittakerM_jet, sf.whittakerW_jet):
            f, df, ddf = builder(kappa, mu)
            # single elements at alternating points (the one-point memo must
            # follow z), then all three at one point
            _record(h, ddf(z))
            _record(h, f(z * 1.25))
            _record(h, df(z))
            for g in (f, df, ddf):
                _record(h, g(z * 0.75))
    return h.hexdigest()


JET_GOLDEN = "6da87ccaae57f8ff75921c90a6016a22aa585a167811db0e12bd71de09bf3d3f"


def test_whittaker_jet_golden_digest():
    assert _jet_digest() == JET_GOLDEN


# -- two constants, two independent solutions --------------------------------------

RADII = (0.5, 0.9, 1.3)
ANGLES = (-0.6, 0.4, 1.1)
LINE = (-1.0, 0.3, 1.2)
# case -> (factor, its builder, points of its variable) per two-constant factor
TWO_CONSTANT_FACTORS = {
    "1.1a": (("F1", "whittaker_radial", RADII), ("F2", "whittaker_radial", RADII)),
    "1.1b": (("F1", "imag_whittaker_radial", RADII), ("F2", "imag_whittaker_radial", RADII)),
    "1.2a": (("F1", "bessel_radial_ik", RADII), ("F2", "ode_factor", ANGLES)),
    "1.2b": (("F1", "bessel_radial_jy", RADII), ("F2", "ode_factor", ANGLES)),
    "1.4a": (("F1", "bessel_radial_ik", RADII), ("F2", "trig_angular", ANGLES)),
    "1.4b": (("F1", "bessel_radial_jy", RADII), ("F2", "trig_angular", ANGLES)),
    "1.5a": (("F1", "whittaker_radial", RADII), ("F2", "whittaker_radial", RADII)),
    "1.8a": (("F1", "ode_factor", LINE),),
    "1.8b": (("F1", "ode_factor", LINE),),
}
FIRST = {"C1": 1.0, "C2": 0.0, "C3": 1.0, "C4": 0.0}
SECOND = {"C1": 0.0, "C2": 1.0, "C3": 0.0, "C4": 1.0}


def test_every_two_constant_builder_is_covered():
    builders = {b for factors in TWO_CONSTANT_FACTORS.values() for _, b, _ in factors}
    assert builders == {
        "imag_whittaker_radial", "whittaker_radial", "bessel_radial_jy",
        "bessel_radial_ik", "trig_angular", "ode_factor",
    }


# F2 of 1.1a and 1.5a at draw 0: kappa leaves the 1F1 box (ROADMAP item 1),
# as `verify` of both cases at seed 0 does
BOX_ESCAPES = {("1.1a", "F2", 0), ("1.5a", "F2", 0)}


def _wronskian_params():
    for cid, factors in sorted(TWO_CONSTANT_FACTORS.items()):
        for name, _, xs in factors:
            for seed in (0, 1, 2):
                marks = ()
                if (cid, name, seed) in BOX_ESCAPES:
                    marks = pytest.mark.xfail(raises=DivergenceError, strict=True,
                                              reason="1F1 parameters outside the box")
                yield pytest.param(cid, name, xs, seed, marks=marks, id=f"{cid}-{name}-{seed}")


@pytest.mark.parametrize("cid, name, xs, seed", _wronskian_params())
def test_two_constants_span_two_independent_solutions(cid, name, xs, seed):
    # at the draws of tests/test_catalog_pins.py, the solutions that the two
    # constants of a factor multiply have a Wronskian W = y1 y2' - y1' y2
    # bounded away from 0 against the size of its two products; a pair that
    # is one solution twice gives rounding
    case = get_case(cid)
    params = case.draw_params(np.random.default_rng(seed))
    c1 = 2.0 * params["C0"] + 1.0 if cid in ("1.4a", "1.4b") else 1.0  # c1 >= 2 C0
    one = getattr(closed_form_solution(case, params, dict(FIRST, c1=c1)), name)
    two = getattr(closed_form_solution(case, params, dict(SECOND, c1=c1)), name)
    for x in xs:
        y1, d1 = hd.jet(one, (x,), 0)[:2]
        y2, d2 = hd.jet(two, (x,), 0)[:2]
        assert abs(y1 * d2 - d1 * y2) >= 1e-6 * (abs(y1 * d2) + abs(d1 * y2)), x


# -- the ODE factor's spectral solve ---------------------------------------------


def C_DOUBLE_CEV(s):  # the angular coefficient of casestudies.double_cev
    return 48.0 / math.cos(2 * s) ** 2


CEV_SPAN = (0.75 * math.pi + 0.18, 1.25 * math.pi - 0.18)

ODE_CASES = {
    "theta c1=1": (C_THETA[0], 1.0, (-math.pi, math.pi), None),
    "theta c1=5": (C_THETA[0], 5.0, (-math.pi, math.pi), None),
    "line": (C_LINE[0], 1.0, (-2.5, 2.5), None),
    "double-cev": (C_DOUBLE_CEV, 1.0, CEV_SPAN, math.pi),
    "anchor 0.3": (lambda s: 0.3 * s * s, 1.2, (-2.0, 2.0), 0.3),
    "oscillatory": (C_THETA[0], 12.0, (-math.pi, math.pi), None),  # c1 > 2 max C = 6.6
}


def _reference_states(C, c1, span, anchor, pts):
    """(S1, S1', S2, S2') at pts from DOP853 at rtol 1e-13, anchor to each end."""
    from scipy.integrate import solve_ivp

    def rhs(s, y):
        acc = 2.0 * C(s) - c1
        return [y[1], acc * y[0], y[3], acc * y[2]]

    out = np.empty((len(pts), 4))
    for end in span:
        sol = solve_ivp(rhs, (anchor, end), [1.0, 0.0, 0.0, 1.0], method="DOP853",
                        rtol=1e-13, atol=1e-15, dense_output=True)
        ahead = [(p - anchor) * (end - anchor) >= 0 for p in pts]
        out[ahead] = sol.sol(np.asarray(pts)[ahead]).T
    return out


@pytest.mark.parametrize("name", ODE_CASES)
def test_ode_factor_matches_a_tight_reference(name):
    C, c1, (a, b), anchor = ODE_CASES[name]
    pts = np.linspace(a, b, 41).tolist() + [a + 0.37 * (b - a)]
    ref = _reference_states(C, c1, (a, b), 0.5 * (a + b) if anchor is None else anchor, pts)
    for k, (Ca, Cb) in enumerate(((1.0, 0.0), (0.0, 1.0))):
        F = SEP.ode_factor(C, c1, (a, b), Ca, Cb, anchor=anchor)
        got = np.array([[v.a, v.b] for v in (F(hd.Dual2(p, 1.0, 0.0)) for p in pts)])
        S, dS = ref[:, 2 * k], ref[:, 2 * k + 1]
        # each quantity against its own largest size on the span
        assert np.abs(got[:, 0] - S).max() <= 1e-11 * np.abs(S).max()
        assert np.abs(got[:, 1] - dS).max() <= 1e-11 * np.abs(dS).max()


def test_ode_factor_nan_coefficient_fails_at_the_first_node():
    calls = []

    def C(s):
        calls.append(s)
        return float("nan")

    with pytest.raises(DomainError, match=r"at node s = 1\.0"):
        SEP.ode_factor(C, 1.0, (-1.0, 1.0))
    assert calls == [1.0]


def test_ode_factor_pole_inside_span_names_its_node():
    with pytest.raises(DomainError, match=r"C is not finite at node s = 0\.0"):
        SEP.ode_factor(lambda s: 1.0 / s**2, 1.0, (-1.0, 1.0), anchor=0.5)
    with pytest.raises(DomainError, match=r"= inf at node s = 0\.0"):
        SEP.ode_factor(lambda s: 1.0 / s**2 if s else math.inf, 1.0, (-1.0, 1.0))


def test_ode_factor_unresolved_coefficient_names_span_and_tail():
    with pytest.raises(DivergenceError, match=r"span \(-1\.0, 1\.0\).*degree 384.*tail"):
        SEP.ode_factor(lambda s: 50.0 * math.sin(400.0 * s), 1.0, (-1.0, 1.0))


@pytest.mark.parametrize(
    "span, anchor",
    [((1.0, 1.0), None), ((1.0, -1.0), None), ((-math.inf, 1.0), None),
     ((math.nan, 1.0), None), ((-1.0, 1.0), 1.5), ((-1.0, 1.0), math.nan)],
)
def test_ode_factor_bad_span_or_anchor(span, anchor):
    with pytest.raises(DomainError, match="span"):
        SEP.ode_factor(lambda s: 1.0, 1.0, span, anchor=anchor)
