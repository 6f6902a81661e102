"""Lane passes: every lane of a batched jet pass is bitwise the scalar pass at
its point, for plain and nested passes, powers, quotients of jets and the
elementary functions; the invariance residual reruns its passes one lane at a
time when a test field or a coefficient cannot take lanes, and equals the
nested scalar passes kept here as the reference."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liesolve import fields as F
from liesolve import hyperdual as hd
from liesolve import symmetry as S
from liesolve.errors import LiesolveError, UnboundSymbol
from liesolve.fields import ScalarField
from liesolve.reductions import catalog

# every (i, j) seeding that derivative, derivative_pair and jet make
PATTERNS = ((0, None), (1, None), (2, None), (0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2))

coord = st.floats(min_value=-2.0, max_value=2.0)
points = st.lists(
    st.tuples(coord, coord, st.floats(min_value=0.2, max_value=2.0)), min_size=1, max_size=7
)


def _elementary(x, y, t):
    return (
        hd.exp(x * y)
        + hd.log(t + 2.0)
        + hd.sqrt(x * x + y * y + t)
        + hd.sin(x - t) * hd.cos(y)
        + hd.atan(x * y * t)
        + hd.atan2(y, x * t + 3.0)
        + (y * y * t + 0.5) ** 1.5
    )


def _field(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "poly3":  # reaches Dual2.__pow__ with p = 3 and float lanes ** 3
        return F.random_polynomial_field(rng, degree=3).fn
    if kind == "smooth":
        return F.random_smooth_field(rng).fn
    if kind == "heat":  # a Dual2 divided by a Dual2
        return F.heat_kernel().fn
    return _elementary


KINDS = ("poly3", "smooth", "heat", "elementary")


def _nested(f, lanes):
    """A field built from first and second derivatives of f, by lane passes
    or by the scalar helpers."""

    def g(x, y, t):
        if lanes:
            p_xy, p_tt = hd.lane_pass(f, (x, y, t), ((0, 1), (2, 2)))
            fx, fy, ftt = p_xy.b, p_xy.c, p_tt.d
        else:
            fx, fy = hd.derivative_pair(f, (x, y, t), 0, 1)
            ftt = hd.derivative(f, (x, y, t), 2, order=2)
        return fx * y + fy * x * t + ftt

    return g


def _hex(v):
    return float(v).hex()


def _assert_lanes_equal_scalar(lane_fn, scalar_fn, pts):
    xyt = hd.float_lanes(np.transpose(pts))
    for (i, j), out in zip(PATTERNS, hd.lane_pass(lane_fn, xyt, PATTERNS)):
        for k, pt in enumerate(pts):
            if j is None:
                want = [hd.derivative(scalar_fn, pt, i)]
                got = [out.b[k]]
            elif i == j:
                want = list(hd.jet(scalar_fn, pt, i))
                got = [out.a[k], out.b[k], out.d[k]]
            else:
                want = list(hd.derivative_pair(scalar_fn, pt, i, j))
                got = [out.b[k], out.c[k]]
            assert [_hex(v) for v in got] == [_hex(v) for v in want], ((i, j), pt)


@settings(max_examples=40, deadline=None)
@given(pts=points, kind=st.sampled_from(KINDS), seed=st.integers(0, 2**16))
def test_lane_pass_is_bitwise_the_scalar_passes(pts, kind, seed):
    f = _field(kind, seed)
    _assert_lanes_equal_scalar(f, f, pts)


@settings(max_examples=25, deadline=None)
@given(pts=points, kind=st.sampled_from(KINDS), seed=st.integers(0, 2**16))
def test_nested_lane_pass_is_bitwise_the_nested_scalar_passes(pts, kind, seed):
    f = _field(kind, seed)
    _assert_lanes_equal_scalar(_nested(f, lanes=True), _nested(f, lanes=False), pts)
    # the scalar helpers take lane arguments too, one pattern at a time
    _assert_lanes_equal_scalar(_nested(f, lanes=False), _nested(f, lanes=False), pts)


@settings(max_examples=40, deadline=None)
@given(pts=points, kind=st.sampled_from(KINDS), seed=st.integers(0, 2**16))
def test_float_lane_values_are_bitwise_the_float_calls(pts, kind, seed):
    f = _field(kind, seed)
    got = f(*hd.float_lanes(np.transpose(pts)))
    assert [_hex(v) for v in got] == [_hex(f(*pt)) for pt in pts]


@settings(max_examples=60, deadline=None)
@given(
    vals=st.lists(st.floats(min_value=0.01, max_value=50.0), min_size=1, max_size=9),
    p=st.sampled_from([2, 3, 0.5, 2.5, -1.5]),
)
def test_power_of_float_lanes_is_python_pow(vals, p):
    lanes = hd.float_lanes(vals)
    assert [_hex(v) for v in lanes**p] == [_hex(v**p) for v in vals]
    assert [_hex(v) for v in 1.5**lanes] == [_hex(1.5**v) for v in vals]
    jet = hd.Dual2(np.array(vals), 1.0, 1.0) ** p
    for k, v in enumerate(vals):
        want = hd.Dual2(v, 1.0, 1.0) ** p
        got = (jet.a[k], jet.b[k], jet.d[k])
        assert [_hex(s) for s in got] == [_hex(want.a), _hex(want.b), _hex(want.d)]


def test_in_place_operators_on_float_lanes_rebind():
    x = hd.float_lanes([1.0, 2.0])
    y = x
    y += 1.0
    y **= 2
    assert x.tolist() == [1.0, 2.0]
    assert y.tolist() == [4.0, 9.0]


def test_lane_division_by_zero_raises_where_floats_raise():
    with pytest.raises(ZeroDivisionError):
        hd.derivative(lambda x: 1.0 / x, (0.0,), 0)
    with pytest.raises(FloatingPointError):
        hd.lane_pass(lambda x: 1.0 / x, (hd.float_lanes([1.0, 0.0]),), ((0, None),))


def test_per_lane_rebuilds_scalar_arguments_and_stacks_the_results():
    seen = []

    def branchy(x, y):
        seen.append((type(x), type(hd.value(x))))
        return x * y if hd.value(x) > 0 else x - y

    x = hd.Dual2(np.array([1.0, -2.0]), np.array([1.0, 0.0]))
    out = hd.per_lane(branchy)(x, hd.float_lanes([3.0, 4.0]))
    assert seen == [(hd.Dual2, float), (hd.Dual2, float)]
    assert out.a.tolist() == [3.0, -6.0]
    assert out.b.tolist() == [3.0, 0.0]


# -- the invariance residual ------------------------------------------------------


def _scalar_defect(vf, M, u, x, y, t):
    """The invariance defect at one point from separate nested scalar passes."""

    def sigma(x, y, t):
        ut = hd.derivative(u, (x, y, t), 2)
        ux, uy = hd.derivative_pair(u, (x, y, t), 0, 1)
        return (
            vf.A(x, y, t) * u(x, y, t)
            + vf.B(x, y, t)
            - vf.T(x, y, t) * ut
            - vf.X(x, y, t) * ux
            - vf.Y(x, y, t) * uy
        )

    def E(x, y, t):
        ut = hd.derivative(u, (x, y, t), 2)
        uxx = hd.derivative(u, (x, y, t), 0, order=2)
        uyy = hd.derivative(u, (x, y, t), 1, order=2)
        return ut - 0.5 * (uxx + uyy) + M.fn(x, y) * u(x, y, t)

    def L_of(F, x, y, t):
        ft = hd.derivative(F, (x, y, t), 2)
        fxx = hd.derivative(F, (x, y, t), 0, order=2)
        fyy = hd.derivative(F, (x, y, t), 1, order=2)
        return ft - 0.5 * (fxx + fyy) + M.fn(x, y) * F(x, y, t)

    Tt = hd.derivative(vf.T, (x, y, t), 2)
    Ex, Ey = hd.derivative_pair(E, (x, y, t), 0, 1)
    resid = (
        L_of(sigma, x, y, t)
        - (vf.A(x, y, t) - Tt) * E(x, y, t)
        + vf.T(x, y, t) * hd.derivative(E, (x, y, t), 2)
        + vf.X(x, y, t) * Ex
        + vf.Y(x, y, t) * Ey
    )
    return hd.value(resid)


def _draw(cid, draw):
    case = catalog()[cid]
    rng = np.random.default_rng([9, list(catalog()).index(cid), draw])
    params = case.draw_params(rng)
    vf = S.infinitesimals(case.symmetry_data(params))
    return vf, case.potential_field(params), case.region_xyt(params, n=6, seed=draw)


@settings(max_examples=20, deadline=None)
@given(
    cid=st.sampled_from(sorted(catalog())),
    draw=st.integers(0, 50),
    kind=st.sampled_from(("poly3", "smooth", "heat")),
    seed=st.integers(0, 2**16),
)
# the exponential families sample t in (-0.3, 0.6): this region has a point
# at t = -0.0008, where the heat kernel's exp(-q/(2t)) overflows
@example(cid="1.1b", draw=24, kind="heat", seed=0)
def test_invariance_lanes_are_bitwise_the_scalar_defects(cid, draw, kind, seed):
    vf, M, pts = _draw(cid, draw)
    u = _field(kind, seed)
    try:
        want = [_hex(_scalar_defect(vf, M, u, *pt)) for pt in pts]
    except ArithmeticError as err:
        # a point outside the field's domain: the lanes raise where the
        # floats raise, and the residual gives the scalar passes' error
        with pytest.raises(ArithmeticError), np.errstate(**hd.LANE_ERRSTATE):
            S._lane_defects(vf, M, u, pts)
        with pytest.raises(type(err)):
            S.symmetry_residual(vf, M, ScalarField(u, name=kind), points=pts)
        return
    with np.errstate(**hd.LANE_ERRSTATE):
        lanes = S._lane_defects(vf, M, u, pts)
    assert [_hex(v) for v in lanes] == want


def test_field_on_math_exp_returns_the_scalar_result_through_the_fallback():
    # math.exp of a jet's value cannot take lanes (float() of an array raises)
    u = ScalarField(lambda x, y, t: math.exp(-0.1 * float(t)) * x * y + y * y * t, name="libm")
    vf, M, pts = _draw("1.2b", 3)
    with pytest.raises(TypeError):
        S._lane_defects(vf, M, u.fn, pts)
    want = max(abs(_scalar_defect(vf, M, u.fn, *pt)) for pt in pts)
    assert S.symmetry_residual(vf, M, u, points=pts).hex() == want.hex()


def test_coefficient_on_math_exp_falls_back_with_the_field():
    # the catalog coefficients with a B that calls math.exp on a jet's value:
    # the rerun has to take every coefficient one lane at a time, not only u
    vf, M, pts = _draw("1.2b", 3)
    vf = S.VectorField(vf.T, vf.X, vf.Y, vf.A, lambda x, y, t: math.exp(-float(t)), name="libm B")
    u = F.random_smooth_field(np.random.default_rng(5)).fn
    with pytest.raises(TypeError):
        S._lane_defects(vf, M, hd.per_lane(u), pts)
    want = max(abs(_scalar_defect(vf, M, u, *pt)) for pt in pts)
    got = S.symmetry_residual(vf, M, ScalarField(u, name="smooth"), points=pts)
    assert got.hex() == want.hex()


def _branch_on_t(x, y, t):
    # the truth value of a lane comparison raises ValueError
    return hd.exp(-t) * x * y if hd.value(t) > 0.6 else x * x - y * y + t


def _raises_on_lanes(err):
    def u(x, y, t):
        if isinstance(hd.value(t), np.ndarray):
            raise err
        return hd.exp(-0.5 * t) * x * y + y * y * t

    return u


# TypeError: the math.exp tests above
@pytest.mark.parametrize(
    "u",
    [
        _branch_on_t,
        _raises_on_lanes(FloatingPointError("lanes")),
        _raises_on_lanes(UnboundSymbol("lanes")),
    ],
    ids=["ValueError", "ArithmeticError", "LiesolveError"],
)
def test_each_caught_class_reruns_one_lane_at_a_time(u):
    vf, M, pts = _draw("1.4a", 2)
    with pytest.raises((TypeError, ValueError, ArithmeticError, LiesolveError)):
        S._lane_defects(vf, M, u, pts)
    want = max(abs(_scalar_defect(vf, M, u, *pt)) for pt in pts)
    assert S.symmetry_residual(vf, M, ScalarField(u, name="u"), points=pts).hex() == want.hex()


def test_runtime_error_propagates_unchanged():
    err = RuntimeError("not a lane error")

    def u(x, y, t):
        raise err

    vf, M, pts = _draw("1.4a", 2)
    with pytest.raises(RuntimeError) as got:
        S.symmetry_residual(vf, M, ScalarField(u, name="u"), points=pts)
    assert got.value is err


def test_float_only_method_on_lanes_is_not_rescued():
    # the scalar passes take hd.value(t).is_integer(); lanes raise
    # AttributeError, which is not one of the rerun's classes
    def u(x, y, t):
        return hd.exp(t) * x if hd.value(t).is_integer() else y * t

    vf, M, pts = _draw("1.4a", 2)
    _scalar_defect(vf, M, u, *pts[0])
    with pytest.raises(AttributeError):
        S.symmetry_residual(vf, M, ScalarField(u, name="u"), points=pts)
