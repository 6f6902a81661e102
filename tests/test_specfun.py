"""Special-function kernel tests.

Expected values follow from stated independent oracles:
* factorials / reflection identities for gamma;
* a plain high-precision Taylor sum (implemented here, independent of the
  kernel's transformations) for 1F1, and for its extended-precision rerun
  the same sum in mpmath arithmetic with 40 more digits than the rerun;
* numerical quadrature of the Laplace integral representation, plus one
  exact contiguous recurrence step, for Whittaker W;
* the direct power series for Bessel J at half-integer order;
* mpmath's complex 1F1 at 40 digits for the real Coulomb-wave series.

On lanes the reference is the scalar call itself: each lane must equal it
bit for bit, or raise its error.
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import NoConvergence
from scipy.integrate import quad

from liesolve import hyperdual as hd
from liesolve import specfun as sf
from liesolve.errors import DivergenceError, DomainError, LiesolveError, PoleError

SQRT_PI = 1.7724538509055159


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def series_1f1_oracle(a, b, z, terms=300):
    """Plain Taylor sum in exact rational arithmetic where possible."""
    if all(float(v) == int(v) or isinstance(v, Fraction) for v in (a, b)) and z == int(z):
        af, bf, zf = Fraction(a), Fraction(b), Fraction(int(z))
        term = Fraction(1)
        s = Fraction(1)
        for n in range(terms):
            term = term * (af + n) / (bf + n) * zf / (n + 1)
            s += term
        return float(s)
    term, s = 1.0, 1.0
    for n in range(terms):
        term = term * (a + n) / (b + n) * z / (n + 1)
        s += term
    return s


def bessel_j_series_oracle(nu, z, terms=120):
    s = 0.0
    for k in range(terms):
        s += (-1) ** k / (math.gamma(k + 1) * math.gamma(nu + k + 1)) * (z / 2) ** (2 * k + nu)
    return s


def whittaker_w_quadrature_oracle(kappa, mu, z):
    """W via the Laplace integral of U, valid for Re(mu - kappa + 1/2) > 0."""
    a = mu - kappa + 0.5
    b = 1.0 + 2.0 * mu
    assert a > 0
    integrand = lambda t: math.exp(-z * t) * t ** (a - 1.0) * (1.0 + t) ** (b - a - 1.0)
    val, err = quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12)
    u = val / math.gamma(a)
    return math.exp(-z / 2.0) * z ** (mu + 0.5) * u


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def test_gamma_factorial():
    assert sf.gamma(5).value == 24.0


def test_gamma_half():
    assert sf.gamma(0.5).value == pytest.approx(SQRT_PI, rel=1e-14)


def test_gamma_negative_half_by_recurrence():
    # Gamma(z+1) = z Gamma(z)  =>  Gamma(-1/2) = Gamma(1/2) / (-1/2)
    expected = sf.gamma(0.5).value / (-0.5)
    assert sf.gamma(-0.5).value == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(-2.0 * SQRT_PI, rel=1e-13)


def test_gamma_pole_and_overflow():
    with pytest.raises(PoleError):
        sf.gamma(0.0)
    with pytest.raises(PoleError):
        sf.gamma(-3.0)
    with pytest.raises(DivergenceError, match="z=200.0"):
        sf.gamma(200.0)


def test_gamma_accuracy_across_range():
    import mpmath

    rng = np.random.default_rng(7)
    for _ in range(60):
        z = rng.uniform(-170, 170)
        if abs(z - round(z)) < 1e-3 and z < 0.5:
            continue
        got = sf.gamma(z).value
        ref = float(mpmath.gamma(z))
        assert got == pytest.approx(ref, rel=1e-13)


# ---------------------------------------------------------------------------
# Kummer 1F1
# ---------------------------------------------------------------------------


def test_1f1_exponential_identity():
    v = sf.hypergeometric("Kummer1F1", a=2, b=2, z=1)
    assert v.value == pytest.approx(math.e, rel=1e-13)
    assert v.converged


def test_1f1_terminating():
    assert sf.hypergeometric("Kummer1F1", a=0, b=3, z=5).value == 1.0


def test_1f1_against_series_oracle():
    expected = series_1f1_oracle(1, 2, 1)
    got = sf.hypergeometric("Kummer1F1", a=1, b=2, z=1).value
    assert got == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(math.e - 1.0, rel=1e-14)


def test_1f1_negative_argument_uses_stable_path():
    # e^-30 scale output from an alternating series: the raw sum would lose
    # all digits; the kernel must stay at ~1e-12 relative.
    import mpmath

    got = sf.hypergeometric("Kummer1F1", a=1.3, b=2.7, z=-30.0)
    ref = float(mpmath.hyp1f1(1.3, 2.7, -30.0))
    assert got.value == pytest.approx(ref, rel=1e-11)


def test_1f1_imaginary_argument_cancellation_band():
    import mpmath

    for w in (8.0, 18.0, 45.0, 120.0):
        got = sf.hypergeometric("Kummer1F1", a=0.75 + 0.5j, b=1.5, z=w * 1j)
        ref = complex(mpmath.hyp1f1(0.75 + 0.5j, 1.5, mpmath.mpc(0, w)))
        assert abs(got.value - ref) / abs(ref) < 1e-10
        assert got.est_error <= 1e-10


def test_1f1_pole_and_box():
    with pytest.raises(PoleError):
        sf.hypergeometric("Kummer1F1", a=1.0, b=-2.0, z=1.0)
    with pytest.raises(DivergenceError):
        sf.hypergeometric("Kummer1F1", a=1.0, b=2.0, z=250.0)


def test_kummer_transformation_property():
    # 1F1(a,b,z) = e^z 1F1(b-a, b, -z) on 100 random points in the box
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-5, 5)
        b = rng.uniform(0.5, 8)
        z = rng.uniform(-30, 30)
        lhs = sf.hypergeometric("Kummer1F1", a=a, b=b, z=z).value
        rhs = math.exp(z) * sf.hypergeometric("Kummer1F1", a=b - a, b=b, z=-z).value
        rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-280)
        worst = max(worst, rel)
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# Tricomi U
# ---------------------------------------------------------------------------

# (a, b, z) -> float.hex of (Re U, Im U, est_error), recorded while _hypU
# carried its own copy of the extended-precision series.  Every input cancels
# too much in the double-precision connection formula, so each takes the
# extended-precision rerun.
HYPU_EXTENDED_GOLDEN = {
    (0.3, 1.5, 25.0): ("0x1.86c918cba938fp-2", "0x0.0p+0", "0x1.c0159232d5984p-70"),
    (0.3, 1.5, 12.0): ("0x1.e83ba582953dap-2", "0x0.0p+0", "0x1.998cb1aca57b8p-71"),
    (1.2, 0.4, 20.0): ("0x1.97a30b7e4cb12p-6", "0x0.0p+0", "0x1.3b1ee9742ade5p-66"),
    (0.3 + 0.2j, 1.5, 25.0): ("0x1.38dc780b1e4bdp-2", "-0x1.d65aee24e3564p-3", "0x1.44ceb0547acf1p-72"),
    (0.4, 1.3, 22 + 6j): ("0x1.230796994b88ap-2", "-0x1.efc0e81c3363dp-6", "0x1.ac65923a18664p-69"),
    (1.1, 0.6, 15 + 10j): ("0x1.04a8defa9435dp-5", "-0x1.670207924d925p-6", "0x1.aa683ae4be06fp-69"),
    (2.5, 1.7, 29.0): ("0x1.91643ae99f8ddp-13", "0x0.0p+0", "0x1.24cbf283bee2cp-59"),
}


@pytest.mark.parametrize("a, b, z", sorted(HYPU_EXTENDED_GOLDEN, key=repr))
def test_hypU_extended_precision_golden(monkeypatch, a, b, z):
    # count the mpmath.hyp1f1 calls that the connection formula makes itself,
    # apart from the ones behind an extended-precision 1F1
    import mpmath

    direct = []
    hyp1f1, series_1f1 = mpmath.hyp1f1, sf._mp_series_1f1

    def counting(*args):
        direct.append(args)
        return hyp1f1(*args)

    def via_1f1(*args):
        n = len(direct)
        out = series_1f1(*args)
        del direct[n:]
        return out

    monkeypatch.setattr(mpmath, "hyp1f1", counting)
    monkeypatch.setattr(sf, "_mp_series_1f1", via_1f1)
    got = sf._hypU(a, b, z)
    v = complex(got.value)
    assert (v.real.hex(), v.imag.hex(), got.est_error.hex()) == HYPU_EXTENDED_GOLDEN[(a, b, z)]
    assert len(direct) >= 2


# ---------------------------------------------------------------------------
# extended precision
# ---------------------------------------------------------------------------


def reference_mp_series(a, b, z, dps):
    """1F1(a; b; z) summed term by term at ``dps`` digits until a term drops
    below 10^-dps of the largest one, rounded to ``complex``."""
    import mpmath

    with mpmath.workdps(dps):
        am, bm, zm = map(mpmath.mpmathify, (a, b, z))
        term = s = max_term = mpmath.mpf(1)
        rel_tol = mpmath.mpf(10) ** (-dps)
        for n in range(10_000):
            term = term * (am + n) / (bm + n) * zm / (n + 1)
            s += term
            max_term = max(max_term, abs(term))
            if abs(term) <= rel_tol * max_term and n > abs(z):
                return complex(s)
    raise AssertionError("reference series hit its iteration cap")


def _rerun_digits(monkeypatch):
    """The digits of each extended-precision 1F1 rerun, as they run."""
    digits, rerun = [], sf._mp_series_1f1

    def spy(a, b, z, dps):
        digits.append(dps)
        return rerun(a, b, z, dps)

    monkeypatch.setattr(sf, "_mp_series_1f1", spy)
    return digits


# a rerun at 83 digits; the reference series summed at those same 83 digits
# rounds a few ulps away from the correctly rounded value
HARD_RERUN = (9.164739378184663, 25.740689314738987, 23.244876383201007 + 183.05667457404792j)


def test_1f1_rerun_matches_reference_series(monkeypatch):
    # seeded draws in the box with Re z >= 0 whose plain series cancels too
    # much: the rerun rounds to the reference summed with 40 more digits
    digits = _rerun_digits(monkeypatch)
    rng = np.random.default_rng(2024)
    draws = []
    for _ in range(100):
        r, theta = rng.uniform(20.0, 200.0), rng.uniform(-math.pi / 2, math.pi / 2)
        draws.append((rng.uniform(-10.0, 10.0), rng.uniform(0.5, 30.0), cmath.rect(r, theta)))
    checked = 0
    for a, b, z in draws:
        del digits[:]
        got = complex(sf._hyp1f1(a, b, z).value)
        if not digits:
            continue
        assert got == reference_mp_series(a, b, z, digits[-1] + 40), (a, b, z)
        checked += 1
    assert checked >= 50, checked


def test_1f1_rerun_hard_draw_rounds_correctly(monkeypatch):
    digits = _rerun_digits(monkeypatch)
    correct = complex(-3.556496803176071e-08, 1.5126377469122567e-08)
    assert complex(sf._hyp1f1(*HARD_RERUN).value) == correct
    assert digits == [83]
    assert reference_mp_series(*HARD_RERUN, 83 + 40) == correct
    assert reference_mp_series(*HARD_RERUN, 83) == complex(
        -3.556496803176074e-08, 1.5126377469122577e-08
    )


def _failing_hyp1f1(error):
    def hyp1f1(*args):
        raise error

    return hyp1f1


# the three errors mpmath.hyp1f1 raises: no convergence, hypsum's maxprec
# cap, and a division by zero
MP_FAILURES = [
    pytest.param(NoConvergence("hypsum"), id="NoConvergence"),
    pytest.param(ValueError("hypsum: maxprec exceeded"), id="ValueError"),
    pytest.param(ZeroDivisionError("division by zero"), id="ZeroDivisionError"),
]


@pytest.mark.parametrize("error", MP_FAILURES)
def test_extended_precision_failure_is_typed(monkeypatch, error):
    import mpmath

    monkeypatch.setattr(mpmath, "hyp1f1", _failing_hyp1f1(error))
    with pytest.raises(DivergenceError, match="1F1 extended precision"):
        sf._hyp1f1(*HARD_RERUN)
    with pytest.raises(DivergenceError, match="U extended precision"):
        sf._hypU(0.3, 1.5, 25.0)


@pytest.mark.parametrize("error", MP_FAILURES)
def test_fp_residual_skips_points_whose_rerun_fails(monkeypatch, error):
    # 1.1b at the draw of CLI seed 3 with c = 2 takes extended-precision
    # reruns of its Coulomb series in its residual: a failing one sends the
    # residual one lane at a time, which skips its point
    import mpmath

    from liesolve.cli import _bounding_region
    from liesolve.reductions import closed_form_solution, get_case, reconstruct_u
    from liesolve.verify import fp_residual

    case = get_case("1.1b")
    params = dict(case.draw_params(np.random.default_rng(3)), c=2.0)
    u = reconstruct_u(case, params, closed_form_solution(case, params))
    monkeypatch.setattr(mpmath, "hyp1f1", _failing_hyp1f1(error))
    box = _bounding_region(case, params, 3)
    rep = fp_residual(u, case.potential_field(params), box, threshold=1.0, n=25)
    assert rep.notes == ("per-lane: DivergenceError",)
    assert rep.singular_points_skipped > 0
    assert rep.n_points + rep.singular_points_skipped == 25


# ---------------------------------------------------------------------------
# Gauss 2F1
# ---------------------------------------------------------------------------


def test_2f1_at_zero():
    assert sf.hypergeometric("Gauss2F1", a=0.3, b=1.7, c=2.2, z=0.0).value == 1.0


def test_2f1_log_identity():
    # 2F1(1,1;2;z) = -ln(1-z)/z
    for z in (0.2, 0.45, -0.7, -4.0):
        got = sf.hypergeometric("Gauss2F1", a=1.0, b=1.0, c=2.0, z=z).value
        assert got == pytest.approx(-math.log1p(-z) / z, rel=1e-12)


def test_2f1_near_one_connection():
    import mpmath

    for (a, b, c, z) in [(1.2, 0.7, 2.6, 0.85), (2.6, 0.9, 3.8, 0.97), (0.4, 1.9, 2.75, 0.72)]:
        got = sf.hypergeometric("Gauss2F1", a=a, b=b, c=c, z=z).value
        ref = float(mpmath.hyp2f1(a, b, c, z))
        assert got == pytest.approx(ref, rel=1e-10)


def test_2f1_contiguous_relation_spot_checks():
    # Gauss contiguous relation:
    #   (c-a) F(a-1) + (2a - c + (b-a) z) F(a) + a (z-1) F(a+1) = 0
    rng = np.random.default_rng(3)
    count = 0
    while count < 20:
        a = rng.uniform(0.3, 3.0)
        b = rng.uniform(0.3, 3.0)
        c = rng.uniform(3.5, 6.0)
        z = rng.uniform(-0.8, 0.8)
        F = lambda aa: sf.hypergeometric("Gauss2F1", a=aa, b=b, c=c, z=z).value
        lhs = (c - a) * F(a - 1) + (2 * a - c + (b - a) * z) * F(a) + a * (z - 1) * F(a + 1)
        scale = max(abs(F(a)), 1.0)
        assert abs(lhs) / scale < 1e-9
        count += 1


@pytest.mark.parametrize("seed", [0, 1])
def test_terminating_series_match_mpmath(seed):
    """2F1 with a or b a non-positive integer (the kernel swaps b = -n into
    a) and U(-n, b, z), a Laguerre polynomial, within est_error of mpmath at
    40 digits, also where the terms cancel."""
    import mpmath

    rng = np.random.default_rng(seed)
    with mpmath.workdps(40):
        for k in range(60):
            n = -int(rng.integers(1, 9))
            p, c, z = rng.uniform(-4.0, 4.0), rng.uniform(0.3, 4.0), rng.uniform(-0.95, 0.95)
            a, b = (n, p) if k % 2 else (p, n)
            got = sf.hypergeometric("Gauss2F1", a=a, b=b, c=c, z=z)
            ref = mpmath.hyp2f1(a, b, c, z)
            assert float(abs(got.value - ref) / abs(ref)) <= got.est_error, (a, b, c, z)
            b, z = rng.uniform(-4.0, 4.0), rng.uniform(0.2, 20.0)
            got = sf.hypergeometric("TricomiU", a=n, b=b, z=z)
            ref = mpmath.hyperu(n, b, z)
            assert float(abs(got.value - ref) / abs(ref)) <= got.est_error, (n, b, z)


def test_2f1_domain_errors():
    with pytest.raises(DomainError):
        sf.hypergeometric("Gauss2F1", a=0.3, b=0.4, c=1.5, z=1.2)
    with pytest.raises(DomainError):
        sf.hypergeometric("Gauss2F1", a=0.5, b=0.5, c=2.0, z=0.9)  # c-a-b integer near 1


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sf.hypergeometric("Kummer1F1", 1.0, 2.0, z=math.nan), "1F1 arguments outside"),
        (lambda: sf.hypergeometric("Gauss2F1", 1.0, 2.0, 3.0, z=math.nan), "z=nan is not finite"),
        (lambda: sf.hypergeometric("TricomiU", 0.5, 1.5, z=math.nan), "U arguments outside"),
        (lambda: sf.whittaker("M", 0.3, 0.2, math.nan), "Whittaker arguments outside"),
        (lambda: sf.coulomb_jet(1.5, math.nan)(1.0), "Coulomb series arguments outside"),
    ],
    ids=["Kummer1F1", "Gauss2F1", "TricomiU", "whittaker", "coulomb_jet"],
)
def test_nan_lies_outside_the_box(call, message):
    # the box check raises at once: no series runs to its cap on a NaN
    with pytest.raises(DivergenceError, match=message):
        call()


# ---------------------------------------------------------------------------
# Whittaker
# ---------------------------------------------------------------------------


def test_whittaker_m_terminating_case():
    # kappa = mu + 1/2 makes the 1F1 terminate at 1: M = e^{-z/2} z^{mu+1/2}
    got = sf.whittaker("M", kappa=1, mu=0.5, z=2)
    assert got.value == pytest.approx(2.0 / math.e, rel=1e-13)


def test_whittaker_m_leading_order():
    # M ~ z^{mu+1/2} as z -> 0+
    for z in (1e-4, 1e-6):
        got = sf.whittaker("M", kappa=0.3, mu=0.4, z=z).value
        assert got / z**0.9 == pytest.approx(1.0, rel=1e-3)


def test_whittaker_w_against_quadrature_oracle():
    # Direct quadrature where the integral representation converges...
    got = sf.whittaker("W", kappa=0.3, mu=0.6, z=2.5)
    ref = whittaker_w_quadrature_oracle(0.3, 0.6, 2.5)
    assert got.value == pytest.approx(ref, rel=1e-8)
    # ...and the pinned point (kappa=1, mu=1/2) through one exact recurrence:
    #   W_{k+1,m} = (z - 2k) W_{k,m} - (k+m-1/2)(k-m-1/2) W_{k-1,m}
    # with k=0 the second term drops (k+m-1/2 = 0), so W_{1,1/2}(2) = 2 W_{0,1/2}(2).
    w0 = whittaker_w_quadrature_oracle(0.0, 0.5, 2.0)
    expected = 2.0 * w0
    got = sf.whittaker("W", kappa=1, mu=0.5, z=2)
    assert got.value == pytest.approx(expected, rel=1e-8)


def test_whittaker_composition_is_the_same_path():
    # M must equal its defining gamma/1F1 composition bit-for-bit.
    kappa, mu, z = 0.7, 0.8, 3.1
    a, b = mu - kappa + 0.5, 1 + 2 * mu
    direct = math.exp(-z / 2) * z ** (mu + 0.5) * sf.hypergeometric(
        "Kummer1F1", a=a, b=b, z=z
    ).value
    got = sf.whittaker("M", kappa=kappa, mu=mu, z=z).value
    assert got == pytest.approx(direct, abs=0.0, rel=3e-16)


def test_whittaker_domain():
    with pytest.raises(DomainError):
        sf.whittaker("M", kappa=0.3, mu=0.4, z=0.0)
    with pytest.raises(DivergenceError):
        sf.whittaker("M", kappa=0.3, mu=0.4, z=500.0)


def test_whittaker_imaginary_arguments():
    import mpmath

    for w in (2.0, 11.0, 37.0):
        got = sf.whittaker("M", kappa=0.4j, mu=0.25, z=w * 1j).value
        ref = complex(mpmath.whitm(0.4j, 0.25, mpmath.mpc(0, w)))
        assert abs(got - ref) / abs(ref) < 1e-10


def test_whittaker_m_jet_consistency():
    f, df, ddf = sf.whittakerM_jet(0.3, 0.45)
    z = 1.7
    h = 1e-4
    fd1 = (f(z + h) - f(z - h)) / (2 * h)
    fd2 = (f(z + h) - 2 * f(z) + f(z - h)) / h**2
    assert df(z) == pytest.approx(fd1, rel=1e-7)
    assert ddf(z) == pytest.approx(fd2, rel=1e-6)


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------


def test_bessel_at_zero():
    assert sf.bessel("J", 0, 0.0).value == 1.0
    assert sf.bessel("I", 0, 0.0).value == 1.0


def test_bessel_half_order_closed_form():
    # J_{1/2}(z) = sqrt(2/(pi z)) sin z, checked against the series oracle
    z = math.pi / 2
    got = sf.bessel("J", 0.5, z).value
    closed = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
    assert closed == pytest.approx(2.0 / math.pi, rel=1e-14)
    assert got == pytest.approx(closed, rel=1e-10)
    assert got == pytest.approx(bessel_j_series_oracle(0.5, z), rel=1e-10)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        sf.bessel("Y", 1.0, 0.0)
    with pytest.raises(DomainError):
        sf.bessel("K", 1.0, -1.0)
    with pytest.raises(DivergenceError):
        sf.bessel("J", 25.0, 1.0)


def _wronskian_sampling():
    return [0.1 * (200.0) ** (i / 49.0) for i in range(50)]  # 50 log-spaced in [0.1, 20]


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
def test_bessel_jy_wronskian(nu):
    # J_nu(z) Y_nu'(z) - J_nu'(z) Y_nu(z) = 2 / (pi z), recurrence derivatives
    jf, jd, _ = sf.bessel_jet("J", nu)
    yf, yd, _ = sf.bessel_jet("Y", nu)
    for z in _wronskian_sampling():
        w = jf(z) * yd(z) - jd(z) * yf(z)
        expected = 2.0 / (math.pi * z)
        assert abs(w - expected) / abs(expected) < 1e-9


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0, 2.5])
def test_bessel_ik_wronskian(nu):
    # I_nu K_nu' - I_nu' K_nu = -1/z
    ifn, idn, _ = sf.bessel_jet("I", nu)
    kfn, kdn, _ = sf.bessel_jet("K", nu)
    for z in _wronskian_sampling():
        w = ifn(z) * kdn(z) - idn(z) * kfn(z)
        expected = -1.0 / z
        assert abs(w - expected) / abs(expected) < 1e-9


def test_bessel_near_zero_absolute_accuracy():
    import mpmath

    # near the first zero of J_0 the absolute error must stay <= 1e-12
    z0 = 2.404825557695773
    got = sf.bessel("J", 0.0, z0).value
    ref = float(mpmath.besselj(0, z0))
    assert abs(got - ref) < 1e-12


def test_special_value_invariant():
    v = sf.hypergeometric("Kummer1F1", a=1.5, b=2.5, z=10.0, tol=1e-10)
    assert v.converged
    assert v.est_error <= 1e-10
    assert math.isfinite(abs(v.value))


# ---------------------------------------------------------------------------
# lanes: each lane bitwise its scalar call
# ---------------------------------------------------------------------------


def _hex(v):
    v = complex(v)
    return v.real.hex(), v.imag.hex()


def _lane_hexes(lanes):
    return [_hex(v) for v in np.asarray(lanes).tolist()]


def _scalar_1f1(a, b, z):
    try:
        return _hex(sf._hyp1f1(a, b, z).value)
    except (LiesolveError, ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _check_1f1_lanes(a, b, zs):
    want = [_scalar_1f1(a, b, z) for z in zs]
    errors = [w for w in want if isinstance(w[0], type)]
    if errors:
        with pytest.raises((LiesolveError, ArithmeticError, ValueError)) as info:
            sf._hyp1f1_lanes(a, b, np.array(zs, float))
        assert (type(info.value), str(info.value)) in errors
        return
    assert _lane_hexes(sf._hyp1f1_lanes(a, b, np.array(zs, float))) == want


parameter = st.one_of(
    st.floats(min_value=-12.0, max_value=12.0),
    st.integers(min_value=-6, max_value=6).map(float),
)


@settings(max_examples=60, deadline=None)
@given(parameter, parameter, st.lists(st.floats(min_value=-40.0, max_value=40.0), min_size=1, max_size=6))
@example(-10.5, 2.0, [35.0, 2.0, 35.0])  # a < 0, large z: extended precision
@example(0.8, 1.6, [-3.0, 1.5])  # z < 0: Kummer reflection
@example(0.8, 1.6, [0.0, 0.7, -0.0])  # z = 0
@example(-3.0, 1.6, [2.0, 5.0])  # terminating series
@example(0.8, 1.6, [250.0, 1.0])  # outside the box: the scalar error
@example(0.8, -2.0, [1.0])  # pole in b
def test_hyp1f1_lanes_match_scalar(a, b, zs):
    _check_1f1_lanes(a, b, zs)


def test_hyp1f1_lanes_take_real_parameters():
    # a complex parameter has complex values, which real lanes cannot hold;
    # a real one passed as a complex keeps its lanes
    with pytest.raises(DomainError, match="real parameters"):
        sf._hyp1f1_lanes(0.8 + 0.1j, 1.6, np.array([1.5]))
    with pytest.raises(DomainError, match="real parameters"):
        sf._hyp1f1_lanes(0.8, 1.6 - 0.2j, np.array([1.5]))
    assert _lane_hexes(sf._hyp1f1_lanes(complex(0.8), 1.6, np.array([1.5, 30.0]))) == [
        _scalar_1f1(0.8, 1.6, z) for z in (1.5, 30.0)
    ]


def test_hyp1f1_lanes_take_every_route(monkeypatch):
    # each hand-back route of the examples above is taken by its lanes, and
    # only by them: extended precision from the lane sum, the rest through
    # the scalar _hyp1f1 (the Kummer reflection calls it again inside)
    routes = []
    for name in ("_series_value", "_hyp1f1"):
        original = getattr(sf, name)

        def record(a, b, z, *rest, _f=original, _n=name):
            routes.append((_n, complex(z)))
            return _f(a, b, z, *rest)

        monkeypatch.setattr(sf, name, record)
    sf._hyp1f1_lanes(-10.5, 2.0, np.array([35.0, 2.0]))
    assert routes == [("_series_value", 35.0)]
    handed_back = [
        (0.8, [-3.0, 1.5], [-3.0]),  # Kummer reflection
        (0.8, [0.0, 0.7], [0.0]),  # z = 0
        (-3.0, [2.0, 5.0], [2.0, 5.0]),  # terminating series
    ]
    for a, z, back in handed_back:
        routes.clear()
        sf._hyp1f1_lanes(a, 1.6, np.array(z))
        assert routes[: len(back)] == [("_hyp1f1", v) for v in back]
        assert not {v for _, v in routes} & set(z) - set(back)  # plain lanes stay on lanes


def test_hyp1f1_lane_outside_box_raises_scalar_error():
    with pytest.raises(DivergenceError, match="1F1 arguments outside the supported box"):
        sf._hyp1f1_lanes(0.8, 1.6, np.array([1.0, 250.0, 2.0]))


@pytest.mark.parametrize(
    "jet, kappa, lanes",
    [
        (sf.whittakerM_jet, 0.3, np.array([1.7, 0.4, 1.7, 2.9, 0.4])),
        (sf.whittakerW_jet, 0.3, np.array([1.7, 0.4, 1.7, 35.0])),
    ],
    ids=["M-real", "W-real"],
)
def test_whittaker_jets_on_lanes_match_scalar(monkeypatch, jet, kappa, lanes):
    # each lane is the real value of its point, bit for bit
    f, df, ddf = jet(kappa, 0.45)
    for g in (f, df, ddf):
        fresh = jet(kappa, 0.45)[(f, df, ddf).index(g)]
        points = [complex(fresh(z)) for z in lanes.tolist()]
        assert not any(v.imag for v in points)
        assert [v.hex() for v in g(lanes).tolist()] == [v.real.hex() for v in points]
    # one evaluation per distinct lane
    sizes = []
    original = sf._hyp1f1_lanes

    def counting(a, b, z, tol=1e-12):
        sizes.append(np.size(z))
        return original(a, b, z, tol)

    monkeypatch.setattr(sf, "_hyp1f1_lanes", counting)
    sf.whittakerM_jet(kappa, 0.45)[2](lanes)
    assert sizes == [len(set(lanes.tolist()))] * 3


@pytest.mark.parametrize("jet", [sf.whittakerM_jet, sf.whittakerW_jet])
def test_whittaker_jet_lane_with_a_complex_value_raises(jet):
    # z < 0 gives a complex value at its point: its lanes raise, so a caller
    # reruns them one point at a time
    lanes = np.array([1.5, -2.0])
    with pytest.raises(DomainError, match="complex value"):
        jet(0.4, 0.45)[0](lanes)
    assert complex(jet(0.4, 0.45)[0](-2.0)).imag != 0.0


@pytest.mark.parametrize("kind", ["J", "Y", "I", "K"])
def test_bessel_jet_on_lanes_matches_scalar(kind):
    lanes = np.array([0.3, 1.7, 4.2, 1.7])
    for g in sf.bessel_jet(kind, 0.7):
        got = g(lanes)
        assert [v.hex() for v in got.tolist()] == [g(z).hex() for z in lanes.tolist()]
        assert isinstance(g(1.7), float)


@pytest.mark.parametrize("cap", [sf._SERIES_CAP, 40], ids=["cap", "short-cap"])
def test_real_kummer_lanes_match_scalar_series(cap):
    # real a, b and z: the series sums float64 lanes, each bit for bit the
    # complex scalar series (sum, truncation and cancellation ratios), and a
    # lane that hits the cap is flagged where the scalar series gives None
    rng = np.random.default_rng(20)
    for _ in range(400):
        a, b = rng.uniform(-5.0, 8.0), rng.uniform(0.5, 9.0)
        z = sf.Z_BOX * rng.random(50) ** 2
        s, trunc, canc, converged = sf._kahan_lanes_1f1(a, b, z, 1e-14, cap)
        assert isinstance(s, np.ndarray)
        for k, zk in enumerate(z.tolist()):
            want = sf._kahan_series_1f1(complex(a), complex(b), complex(zk), 1e-14, cap)
            assert converged[k] == (want is not None)
            if want is not None:
                got = (complex(s[k]), float(trunc[k]), float(canc[k]))
                assert _hex(got[0]) == _hex(want[0])
                assert (got[1].hex(), got[2].hex()) == (want[1].hex(), want[2].hex())


def _check_kummer_lanes(a, b, z, cap):
    """_kahan_lanes_1f1 against _kahan_series_1f1 lane by lane, bit for bit:
    the sum, both ratios and the converged flag; returns each lane's term
    count (None where the scalar series hits the cap)."""
    with np.errstate(**hd.LANE_ERRSTATE):
        s, trunc, canc, converged = sf._kahan_lanes_1f1(a, b, z, 1e-14, cap)
    used = []
    for k, zk in enumerate(z.tolist()):
        want = sf._kahan_series_1f1(complex(a), complex(b), complex(zk), 1e-14, cap)
        assert converged[k] == (want is not None)
        used.append(None if want is None else want[3])
        if want is not None:
            got = (complex(s[k]), float(trunc[k]), float(canc[k]))
            assert _hex(got[0]) == _hex(want[0])
            assert (got[1].hex(), got[2].hex()) == (want[1].hex(), want[2].hex())
    return used


def test_kummer_lanes_leave_at_every_offset_of_a_block():
    # the block kernel tests convergence once per _KUMMER_BLOCK terms and
    # takes each lane's first passing term; the at most K - 1 terms a lane
    # computes past it stay finite (inside the box) and divide by no zero
    # (b is not a non-positive integer), so under the lane error state they
    # raise nothing, and the lane's results are its scalar series'
    K = sf._KUMMER_BLOCK
    z = np.linspace(0.01, 40.0, 300)
    used = _check_kummer_lanes(0.7, 1.9, z, sf._SERIES_CAP)
    assert {(n - 1) % K for n in used} == set(range(K))
    for k in (0, 150, 299):  # one lane
        _check_kummer_lanes(0.7, 1.9, z[k:k + 1], sf._SERIES_CAP)


@pytest.mark.parametrize("cap", [1, 3, sf._KUMMER_BLOCK - 1, sf._KUMMER_BLOCK + 3, 45])
def test_kummer_lanes_at_caps_off_the_block(cap):
    # caps that are not a multiple of the block, one below it: lanes that
    # converge before the cap, and lanes that never do
    z = np.array([1e-7, 0.001, 0.05, 0.3, 2.0, 9.0, 30.0, 150.0])
    used = _check_kummer_lanes(-2.5, 3.7, z, cap)
    assert None in used
    if cap >= 3:
        assert any(n is not None for n in used)


# ---------------------------------------------------------------------------
# the Coulomb-wave series: psi = exp(-i tau/2) 1F1(b/2 + i eta; b; i tau)
# ---------------------------------------------------------------------------


def _coulomb_reference(b, eta, tau):
    """(psi, psi') from mpmath's complex 1F1 at 40 digits."""
    return tuple(sf._mp_coulomb(b, eta, tau, order, 40) for order in (0, 1))


def _coulomb_grid():
    """A seeded (b, eta, tau) grid over the orders 1.1b reaches (b = 1 +- 2 mu
    for C0 in [0, 2]) and its tau range, out to where the sums cancel."""
    rng = np.random.default_rng(33)
    rows = []
    for _ in range(40):
        mu = math.sqrt(8.0 * rng.uniform(0.0, 2.0) + 1.0) / 4.0
        b = 1.0 + 2.0 * mu * (1.0 if rng.random() < 0.5 else -1.0)
        rows.append((b, rng.uniform(-5.0, 5.0), rng.uniform(0.0, 24.0, 6)))
    return rows


def test_coulomb_jet_matches_mpmath(monkeypatch):
    # every lane within 1e-11 of mpmath's complex 1F1 at 40 digits, lanes
    # whose sums cancel too far through their extended-precision rerun
    reruns = []
    original = sf._mp_coulomb

    def counting(b, eta, tau, order, dps):
        reruns.append(tau)
        return original(b, eta, tau, order, dps)

    worst = 0.0
    for b, eta, taus in _coulomb_grid():
        want = np.array([_coulomb_reference(b, eta, t) for t in taus.tolist()]).T
        with monkeypatch.context() as m:
            m.setattr(sf, "_mp_coulomb", counting)
            got = sf.coulomb_jet(b, eta)(taus)
        err = np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
        worst = max(worst, float(err.max()))
    assert worst <= 1e-11
    assert 5 <= len(set(reruns)) < 120  # some lanes, not most, rerun


def _check_coulomb_lanes(b, eta, tau, cap):
    """_coulomb_lanes against _coulomb_series lane by lane, bit for bit;
    returns each lane's term count (None where the series hits the cap)."""
    with np.errstate(**hd.LANE_ERRSTATE):
        sums, trunc, canc, converged = sf._coulomb_lanes(b, eta, tau, 1e-14, cap)
    used = []
    for k, t in enumerate(tau.tolist()):
        want = sf._coulomb_series(b, eta, t, 1e-14, cap)
        assert converged[k] == (want is not None)
        if want is None:
            used.append(None)
            continue
        got = [tuple(v.hex() for v in part[:, k].tolist()) for part in (sums, trunc, canc)]
        assert got == [tuple(float(v).hex() for v in part) for part in want]
        used.append(next(n for n in range(1, cap + 1) if sf._coulomb_series(b, eta, t, 1e-14, n)))
    return used


def test_coulomb_lanes_leave_at_every_offset_of_a_block():
    K = sf._KUMMER_BLOCK
    tau = np.linspace(0.0, 30.0, 240)
    used = _check_coulomb_lanes(2.3, 0.7, tau, sf._SERIES_CAP)
    assert {(n - 1) % K for n in used} == set(range(K))
    for k in (0, 120, 239):  # one lane
        _check_coulomb_lanes(2.3, 0.7, tau[k:k + 1], sf._SERIES_CAP)


@pytest.mark.parametrize("cap", [1, 3, sf._KUMMER_BLOCK - 1, sf._KUMMER_BLOCK + 3, 45])
def test_coulomb_lanes_at_caps_off_the_block(cap):
    tau = np.array([0.0, 1e-7, 0.05, 0.3, 2.0, 9.0, 30.0, 150.0])
    used = _check_coulomb_lanes(-0.4, -1.3, tau, cap)
    assert None in used
    if cap >= 3:
        assert any(n is not None for n in used)


def test_coulomb_jet_lanes_match_points():
    # each lane is its point's pair bit for bit, reruns included; a lane set
    # seen again is the memo's read-only value
    for b, eta, taus in _coulomb_grid()[:12]:
        lanes = sf.coulomb_jet(b, eta)
        got = lanes(taus)
        assert got is lanes(taus.copy())
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 0.0
        for k, t in enumerate(taus.tolist()):
            want = sf.coulomb_jet(b, eta)(t)
            assert (got[0, k].hex(), got[1, k].hex()) == (want[0].hex(), want[1].hex())


def test_coulomb_jet_errors():
    with pytest.raises(PoleError, match="b=-1.0"):
        sf.coulomb_jet(-1.0, 0.5)
    psi = sf.coulomb_jet(1.5, 0.5)
    for bad in (250.0, math.nan, np.array([1.0, 250.0])):
        with pytest.raises(DivergenceError, match="outside the supported box"):
            psi(bad)
    with pytest.raises(DivergenceError, match="outside the supported box"):
        sf.coulomb_jet(1.5, 31.0)(1.0)
    with pytest.raises(DomainError, match="not a Dual2"):
        psi(hd.Dual2(1.0, 1.0))
