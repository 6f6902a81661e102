"""Symmetry-machinery tests: generator assembly, determining-equation
residuals, the commutation table, group actions."""

import dataclasses
import math

import numpy as np
import pytest

from liesolve import fields, hyperdual as hd, symmetry as sym
from liesolve.errors import NotRadialPotential, UnsupportedF1Form
from liesolve.symmetry import (
    SymmetryData,
    commutator,
    compatibility_condition,
    exp_pair,
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
)

M_ZERO = lambda x, y: 0.0


def test_timefn_derivatives_are_symbolic():
    f = poly(1.0, 2.0, 3.0)  # 1 + 2t + 3t^2
    assert f.d().coeffs == (2.0, 6.0)
    assert f.d().d().coeffs == (6.0,)
    g = exp_pair(1.5, -0.5, 2.0)
    gd = g.d()
    assert (gd.d1, gd.d2, gd.lam) == (3.0, 1.0, 2.0)
    t = 0.7
    assert gd(t) == pytest.approx(
        1.5 * 2 * math.exp(2 * t) + 0.5 * 2 * math.exp(-2 * t), rel=1e-14
    )


def test_infinitesimals_linear_time():
    # f1 = t, everything else zero: (T, X, Y) = (t, x/2, y/2), U = 0
    vf = infinitesimals(SymmetryData(f1=poly(0.0, 1.0)))
    T, X, Y, A, B = vf.coefficients(2.0, 4.0, 3.0)
    assert (T, X, Y) == (3.0, 1.0, 2.0)
    assert A == 0.0 and B == 0.0


def test_infinitesimals_rotation():
    vf = infinitesimals(SymmetryData(k=1.0))
    T, X, Y, A, B = vf.coefficients(1.3, -0.4, 0.9)
    assert (T, X, Y, A, B) == (0.0, -0.4, -1.3, 0.0, 0.0)


def test_infinitesimals_scaling_matches_v5():
    vf = infinitesimals(SymmetryData(f4=poly(1.0)))
    _, _, _, A, _ = vf.coefficients(0.3, 0.7, 1.1)
    assert A == -1.0  # U = -u
    w = v5(poly(1.0))
    assert vector_fields_equal(vf, w) == 0.0


def test_vector_fields_equal_keeps_nan():
    # a NaN coefficient reads NaN and fails the equality gate
    vf = infinitesimals(SymmetryData(f4=poly(1.0)))
    worst = vector_fields_equal(vf, dataclasses.replace(vf, B=lambda x, y, t: math.nan))
    assert math.isnan(worst)
    assert not worst <= 1e-7


# ---------------------------------------------------------------------------
# compatibility condition
# ---------------------------------------------------------------------------


def case_11a_data(rng, C0, b, c0):
    d2, d1 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    b1, b0 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    f1 = poly(0.0, d1, d2)
    f3 = poly(b0, b1, 0.75 * b * d1, 0.5 * b * d2)
    f4 = poly(
        0.0,
        d2 + c0 * d1 + b * b0,
        0.5 * b * b1 + c0 * d2,
        0.25 * b * b * d1,
        0.125 * b * b * d2,
    )
    return SymmetryData(f1=f1, f3=f3, f4=f4)


def test_compatibility_zero_potential():
    data = SymmetryData(f1=poly(0.0, 1.0, 0.5), f4=poly(0.0, 0.5))
    # for M = 0 the condition reduces to f4' = (1/2) f1''
    assert compatibility_condition(data, M_ZERO) <= 1e-13


def test_compatibility_case_11a():
    rng = np.random.default_rng(5)
    C0, b, c0 = 1.3, 0.8, 0.6
    M = lambda x, y: C0 / x**2 + b * y + c0
    data = case_11a_data(rng, C0, b, c0)
    assert compatibility_condition(data, M) <= 1e-9


def test_compatibility_case_12b_exp_pair():
    rng = np.random.default_rng(6)
    c, c0 = 0.5, 0.8
    a = math.sqrt(2 * c)
    d1, d2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    C = lambda th: 2.0 + math.sin(th)

    def Mfn(x, y):
        r2 = x * x + y * y
        th = math.atan2(y, x)
        return C(th) / r2 + c * r2 + c0

    f1 = exp_pair(d1, d2, 2 * a)
    f4 = exp_pair((a + c0) * d1, -(a - c0) * d2, 2 * a)
    data = SymmetryData(f1=f1, f4=f4)
    M = Mfn
    assert compatibility_condition(data, M) <= 1e-9


def test_compatibility_negative_control():
    # perturbing b by 10% in f3 only must break the condition visibly
    rng = np.random.default_rng(5)
    C0, b, c0 = 1.3, 0.8, 0.6
    M = lambda x, y: C0 / x**2 + b * y + c0
    data = case_11a_data(rng, C0, 1.1 * b, c0)
    bad = SymmetryData(f1=data.f1, f3=data.f3, f4=case_11a_data(np.random.default_rng(5), C0, b, c0).f4)
    assert compatibility_condition(bad, M) > 1e-3


# ---------------------------------------------------------------------------
# symmetry residual (linearized invariance)
# ---------------------------------------------------------------------------


def test_symmetry_residual_rotation_on_zero_potential():
    rng = np.random.default_rng(2)
    u = fields.random_polynomial_field(rng, nargs=3, degree=3)
    assert symmetry_residual(v1(), M_ZERO, u) <= 1e-8


def test_symmetry_residual_case_11a():
    rng = np.random.default_rng(7)
    C0, b, c0 = 1.1, 0.9, 0.4
    M = lambda x, y: C0 / x**2 + b * y + c0
    data = case_11a_data(rng, C0, b, c0)
    vf = infinitesimals(data)
    for trial in range(3):
        u = fields.random_polynomial_field(np.random.default_rng(trial), nargs=3, degree=3)
        assert symmetry_residual(vf, M, u) <= 1e-7


def test_symmetry_residual_negative_control():
    # X = x^2 is not in the family for M = 0
    bad = sym.VectorField(
        lambda x, y, t: 0.0,
        lambda x, y, t: x * x,
        lambda x, y, t: 0.0,
        lambda x, y, t: 0.0,
        lambda x, y, t: 0.0,
        name="bad",
    )
    rng = np.random.default_rng(3)
    u = fields.random_polynomial_field(rng, nargs=3, degree=3)
    assert symmetry_residual(bad, M_ZERO, u) > 1e-2


# ---------------------------------------------------------------------------
# commutators / Table replication
# ---------------------------------------------------------------------------


def _random_cubic(rng):
    return poly(*rng.uniform(-1.0, 1.0, size=4))


def _vf_of(i, phi, psi):
    if i == 1:
        return v1()
    if i == 2:
        return v2(phi)
    if i == 3:
        return v3(phi)
    if i == 4:
        return v4(phi)
    if i == 5:
        return v5(phi)
    return v6(psi)


@pytest.mark.parametrize("i,j", [(i, j) for i in range(1, 7) for j in range(i, 7)])
def test_commutation_table_entry(i, j):
    rng = np.random.default_rng(100 + 10 * i + j)
    phi_i = _random_cubic(rng)
    phi_j = _random_cubic(rng)
    psi = fields.random_polynomial_field(rng, nargs=3, degree=2)
    v = _vf_of(i, phi_i, psi)
    w = _vf_of(j, phi_j, psi)
    got = commutator(v, w)
    want = expected_commutator(i, j, phi_i=phi_i, phi_j=phi_j, psi=psi)
    assert vector_fields_equal(got, want, tol=1e-7) <= 1e-7


def test_commutator_antisymmetry():
    assert vector_fields_equal(commutator(v1(), v1()),
                               sym.VectorField(sym._zero3, sym._zero3, sym._zero3,
                                               sym._zero3, sym._zero3)) <= 1e-12


def test_jacobi_identity():
    rng = np.random.default_rng(17)
    builders = [
        lambda: v1(),
        lambda: v2(_random_cubic(rng)),
        lambda: v3(_random_cubic(rng)),
        lambda: v4(_random_cubic(rng)),
        lambda: v5(_random_cubic(rng)),
    ]
    for trial in range(3):
        u, v, w = (builders[k]() for k in rng.choice(len(builders), size=3, replace=False))
        j1 = commutator(u, commutator(v, w))
        j2 = commutator(v, commutator(w, u))
        j3 = commutator(w, commutator(u, v))
        pts = sym.default_sampling(n=6, seed=trial)
        worst = 0.0
        for (x, y, t) in pts:
            for c1, c2, c3 in zip(
                j1.coefficients(x, y, t), j2.coefficients(x, y, t), j3.coefficients(x, y, t)
            ):
                from liesolve import hyperdual as hd

                worst = max(worst, abs(hd.value(c1) + hd.value(c2) + hd.value(c3)))
        assert worst <= 1e-6


# ---------------------------------------------------------------------------
# group actions on solutions
# ---------------------------------------------------------------------------


def _fp_residual_lite(u, M, pts):
    worst = 0.0
    for (x, y, t) in pts:
        pt = (x, y, t)
        lap = hd.derivative(u, pt, 0, 2) + hd.derivative(u, pt, 1, 2)
        r = hd.derivative(u, pt, 2) - 0.5 * lap + M(x, y) * u(x, y, t)
        worst = max(worst, abs(r))
    return worst


def test_transform_identity_at_zero_eps():
    phi = fields.heat_kernel()
    u = transform_solution(5, phi, eps=0.0, f4=poly(1.0))
    for (x, y, t) in sym.default_sampling(n=5, seed=2):
        assert u(x, y, t) == pytest.approx(phi(x, y, t), rel=1e-14)


def test_transform_superposition_cancels():
    phi = fields.heat_kernel()
    u = transform_solution(6, phi, eps=1.0, g=phi)
    for (x, y, t) in sym.default_sampling(n=5, seed=2):
        assert abs(u(x, y, t)) <= 1e-15


def test_transform_rotation_preserves_radial():
    phi = fields.heat_kernel()  # radial
    u = transform_solution(1, phi, eps=math.pi / 2)
    for (x, y, t) in sym.default_sampling(n=5, seed=4):
        assert u(x, y, t) == pytest.approx(phi(x, y, t), rel=1e-12)


def test_transforms_preserve_solutions_of_heat_equation():
    phi = fields.shifted_heat_kernel(0.6, -0.4)
    pts = sym.default_sampling(n=12, seed=9, t_range=(0.6, 1.4))
    Mz = lambda x, y: 0.0
    assert _fp_residual_lite(phi, Mz, pts) <= 1e-12
    u1 = transform_solution(1, phi, eps=0.7)
    u2 = transform_solution(2, phi, eps=0.5, delta=0.8)
    u3 = transform_solution(3, phi, eps=0.4, f2=poly(0.3, 0.9))
    u4 = transform_solution(4, phi, eps=0.4, f3=poly(-0.2, 0.5))
    u5 = transform_solution(5, phi, eps=1.1, f4=poly(0.7))
    u6 = transform_solution(6, phi, eps=0.3, g=fields.heat_kernel())
    for u in (u1, u2, u3, u4, u5, u6):
        assert _fp_residual_lite(u, Mz, pts) <= 1e-10, u.name


def test_transform_group_law_index5():
    phi = fields.heat_kernel()
    f4 = poly(0.4, 0.3)
    a = transform_solution(5, transform_solution(5, phi, eps=0.3, f4=f4), eps=0.9, f4=f4)
    b = transform_solution(5, phi, eps=1.2, f4=f4)
    for (x, y, t) in sym.default_sampling(n=8, seed=5):
        assert a(x, y, t) == pytest.approx(b(x, y, t), rel=1e-12)


def test_transform_index2_rejects_other_forms():
    phi = fields.heat_kernel()
    with pytest.raises(UnsupportedF1Form):
        transform_solution(2, phi, eps=0.5)


def test_rotation_derived_solution():
    # g = x solves the zero-potential equation; y g_x - x g_y = y does too
    g = fields.polynomial_field({(1, 0, 0): 1.0})
    out = rotation_derived_solution(g, M_ZERO)
    pts = sym.default_sampling(n=6, seed=8)
    for (x, y, t) in pts:
        assert out(x, y, t) == pytest.approx(y, abs=1e-12)
    assert _fp_residual_lite(out, lambda x, y: 0.0, pts) <= 1e-12


def test_rotation_derived_radial_gives_zero():
    g = fields.heat_kernel()
    out = rotation_derived_solution(g, M_ZERO)
    for (x, y, t) in sym.default_sampling(n=5, seed=12):
        assert abs(out(x, y, t)) <= 1e-12


def test_rotation_derived_guard():
    M_bad = lambda x, y: x
    with pytest.raises(NotRadialPotential):
        rotation_derived_solution(fields.heat_kernel(), M_bad)
