"""Lane passes: every lane of a batched jet pass is bitwise the scalar pass at
its point, for plain and nested passes, powers, quotients of jets and the
elementary functions; the invariance residual evaluates the test field and
each coefficient once per point set and the potential twice, reruns its
passes one lane at a time when a test field or a coefficient cannot take
lanes, and equals the nested scalar passes kept here as the reference; the
reduction-consistency check evaluates every trial's points as lanes of one
evaluation, reruns each trial one lane at a time when the lanes raise, and
equals the scalar ratio loop kept here as the reference; each site that seeds
one field several times at one point set seeds it once on lanes and once per
pattern at a point; the determining condition runs on lanes and equals the
per-point formula kept here as the reference, and the potential's sampling
filter keeps what the per-point filter keeps."""

import collections
import dataclasses
import importlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liesolve.reductions as R
from liesolve import fields as F
from liesolve import hyperdual as hd
from liesolve import symmetry as S
from liesolve.errors import LiesolveError, SamplingError, UnboundSymbol
from liesolve.exprlang import compile_expr, parse
from liesolve.reductions import catalog, reconstruct_u
from point_loop import point_loop

CAT = importlib.import_module("liesolve.reductions.catalog")  # the module, not catalog()

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
        return F.random_polynomial_field(rng, degree=3)
    if kind == "smooth":
        return F.random_smooth_field(rng)
    if kind == "heat":  # a Dual2 divided by a Dual2
        return F.heat_kernel()
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


def test_lifted_callables_take_float_lanes():
    # numpy's a**4 is not pow(a, 4) in the last bit at the first point
    f = hd.lift1(lambda s: 0.1 * s**4, lambda s: 0.4 * s**3, lambda s: 1.2 * s**2)

    def g(s):
        return f(s) * f(s)

    xs = [1.9967044602602857, 0.33413039750901763, 0.5, 1.3, 2.7]
    want = [hd.derivative(g, (x,), 0, order=2) for x in xs]
    got = hd.derivative(g, (hd.float_lanes(xs),), 0, order=2)
    assert [_hex(v) for v in got] == [_hex(v) for v in want]
    (tiled,) = hd.lane_pass(g, (hd.float_lanes(xs),), ((0, 0),))
    assert [_hex(v) for v in tiled.d] == [_hex(v) for v in want]
    assert [_hex(v) for v in tiled.a] == [_hex(g(x)) for x in xs]


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


def test_per_lane_on_zero_lanes_gives_zero_lanes():
    calls = []

    def fn(*args):
        calls.append(args)
        return args[0]

    for args in ((hd.float_lanes([]),), (hd.Dual2(hd.float_lanes([]), 1.0), hd.float_lanes([]))):
        out = hd.per_lane(fn)(*args)
        assert isinstance(out, np.ndarray) and out.shape == (0,)
    assert calls == []


# -- the invariance residual ------------------------------------------------------


def _t_pass(F, x, y, t):
    """The value slot and the t-derivative of F's t-pass, the pass that
    ``hd.derivative(F, (x, y, t), 2)`` makes."""
    (out,) = hd.lane_pass(F, (x, y, t), ((2, None),))
    return out.a, out.b


def _scalar_defect(vf, M, u, x, y, t):
    """The invariance defect at one point from separate nested scalar passes.

    sigma, E, u and the coefficients are the value slots of their t-passes and
    m is M's float value, as on the lanes."""

    def sigma(x, y, t):
        uv, ut = _t_pass(u, x, y, t)
        ux, uy = hd.derivative_pair(u, (x, y, t), 0, 1)
        return (
            vf.A(x, y, t) * uv
            + vf.B(x, y, t)
            - vf.T(x, y, t) * ut
            - vf.X(x, y, t) * ux
            - vf.Y(x, y, t) * uy
        )

    def E0(x, y, t):  # E without its potential term M u
        ut = hd.derivative(u, (x, y, t), 2)
        uxx = hd.derivative(u, (x, y, t), 0, order=2)
        uyy = hd.derivative(u, (x, y, t), 1, order=2)
        return ut - 0.5 * (uxx + uyy)

    def E(x, y, t):
        return E0(x, y, t) + M(x, y) * _t_pass(u, x, y, t)[0]

    m = M(x, y)
    sv, st = _t_pass(sigma, x, y, t)
    sxx = hd.derivative(sigma, (x, y, t), 0, order=2)
    syy = hd.derivative(sigma, (x, y, t), 1, order=2)
    Ev = _t_pass(E0, x, y, t)[0] + m * _t_pass(u, x, y, t)[0]
    Ex, Ey = hd.derivative_pair(E, (x, y, t), 0, 1)
    Tv, Tt = _t_pass(vf.T, x, y, t)
    A, X, Y = (_t_pass(c, x, y, t)[0] for c in (vf.A, vf.X, vf.Y))
    resid = (
        st - 0.5 * (sxx + syy) + m * sv
        - (A - Tt) * Ev
        + Tv * hd.derivative(E, (x, y, t), 2)
        + X * Ex
        + Y * Ey
    )
    return hd.value(resid)


def _kept(M, pts):
    """``(point, M value)`` pairs, as the potential's sampling filter keeps them."""
    return [(pt, M(pt[0], pt[1])) for pt in pts]


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
# a lane where pow(t, 2) != t * t (t = 0x1.36c37eaf61649p-2): the float call
# of this field squares by pow, its value slots by *, and the defect reads
# the value slots
@example(cid="1.1a", draw=20, kind="poly3", seed=11)
def test_invariance_lanes_are_bitwise_the_scalar_defects(cid, draw, kind, seed):
    vf, M, pts = _draw(cid, draw)
    u = _field(kind, seed)
    try:
        want = [_hex(_scalar_defect(vf, M, u, *pt)) for pt in pts]
    except ArithmeticError as err:
        # a point outside the field's domain: the lanes raise where the
        # floats raise, and the residual gives the scalar passes' error
        with pytest.raises(ArithmeticError), np.errstate(**hd.LANE_ERRSTATE):
            S._lane_defects(vf, M, u, _kept(M, pts))
        with pytest.raises(type(err)):
            S.symmetry_residual(vf, M, u, points=pts)
        return
    with np.errstate(**hd.LANE_ERRSTATE):
        lanes = S._lane_defects(vf, M, u, _kept(M, pts))
    assert [_hex(v) for v in lanes] == want


def test_each_callable_runs_once_per_point_set():
    # u once, on the nested 16 n lanes; each coefficient once, on the outer
    # lanes; M in the sampling filter and in the jet pass
    vf, M, pts = _draw("1.2b", 3)
    u = F.random_smooth_field(np.random.default_rng(5))
    calls = collections.Counter()

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    coeffs = (counted(name, getattr(vf, name)) for name in "TXYAB")
    got = S.symmetry_residual(S.VectorField(*coeffs), counted("M", M), counted("u", u), points=pts)
    assert calls == {"u": 1, "T": 1, "X": 1, "Y": 1, "A": 1, "B": 1, "M": 2}
    assert got.hex() == S.symmetry_residual(vf, M, u, points=pts).hex()


def test_field_on_math_exp_returns_the_scalar_result_through_the_fallback():
    # math.exp of a jet's value cannot take lanes (float() of an array raises)
    u = lambda x, y, t: math.exp(-0.1 * float(t)) * x * y + y * y * t
    vf, M, pts = _draw("1.2b", 3)
    with pytest.raises(TypeError):
        S._lane_defects(vf, M, u, _kept(M, pts))
    want = max(abs(_scalar_defect(vf, M, u, *pt)) for pt in pts)
    assert S.symmetry_residual(vf, M, u, points=pts).hex() == want.hex()


def test_coefficient_on_math_exp_falls_back_with_the_field():
    # the catalog coefficients with a B that calls math.exp on a jet's value:
    # the rerun has to take every coefficient one lane at a time, not only u
    vf, M, pts = _draw("1.2b", 3)
    vf = S.VectorField(vf.T, vf.X, vf.Y, vf.A, lambda x, y, t: math.exp(-float(t)), name="libm B")
    u = F.random_smooth_field(np.random.default_rng(5))
    with pytest.raises(TypeError):
        S._lane_defects(vf, M, hd.per_lane(u), _kept(M, pts))
    want = max(abs(_scalar_defect(vf, M, u, *pt)) for pt in pts)
    got = S.symmetry_residual(vf, M, u, points=pts)
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
        S._lane_defects(vf, M, u, _kept(M, pts))
    want = max(abs(_scalar_defect(vf, M, u, *pt)) for pt in pts)
    assert S.symmetry_residual(vf, M, u, points=pts).hex() == want.hex()


def test_runtime_error_propagates_unchanged():
    err = RuntimeError("not a lane error")

    def u(x, y, t):
        raise err

    vf, M, pts = _draw("1.4a", 2)
    with pytest.raises(RuntimeError) as got:
        S.symmetry_residual(vf, M, u, points=pts)
    assert got.value is err


def test_float_only_method_on_lanes_is_not_rescued():
    # the scalar passes take hd.value(t).is_integer(); lanes raise
    # AttributeError, which is not one of the rerun's classes
    def u(x, y, t):
        return hd.exp(t) * x if hd.value(t).is_integer() else y * t

    vf, M, pts = _draw("1.4a", 2)
    _scalar_defect(vf, M, u, *pts[0])
    with pytest.raises(AttributeError):
        S.symmetry_residual(vf, M, u, points=pts)


def test_nan_field_certifies_no_generator():
    # a quiet NaN raises nothing on lanes; the residual must not drop it
    vf, M, pts = _draw("1.4a", 2)
    wrong = S.VectorField(vf.T, vf.X, vf.Y, vf.A, lambda x, y, t: 1000.0 * x, name="B = 1000 x")
    nan_u = lambda x, y, t: x * y * t * math.nan
    smooth = lambda x, y, t: x * y * hd.exp(t)
    assert S.symmetry_residual(wrong, M, smooth, points=pts) > 1.0
    for v in (vf, wrong):
        assert math.isnan(S.symmetry_residual(v, M, nan_u, points=pts))
    # the determining condition folds its residuals the same way
    assert math.isnan(S.compatibility_condition(S.SymmetryData(f2=S.poly(math.nan)), M, points=pts))


# -- the reduction-consistency check ----------------------------------------------


def _reference_per_trial(case, params, trials=3, seed=0, n_points=12):
    """The Jacobian-ratio loop one trial and one point at a time."""
    smap = case.similarity(params)
    op = case.reduced_operator(params)
    M = case.potential_field(params)
    worst = 0.0
    per_trial = []
    for k in range(trials):
        rng = np.random.default_rng(seed + 1000 * k + 7)
        Pf = F.random_smooth_field(rng, nargs=2)
        u = reconstruct_u(case, params, Pf)
        pts = case.region_xyt(params, n=n_points, seed=seed + k)

        def ratio(x, y, t):
            lhs = (
                hd.derivative(u, (x, y, t), 2)
                - 0.5 * (hd.derivative(u, (x, y, t), 0, 2) + hd.derivative(u, (x, y, t), 1, 2))
                + M(x, y) * u(x, y, t)
            )
            xi, eta = smap.to_sim(x, y, t)
            rhs = hd.value(smap.jacobian(x, y, t)) * hd.value(
                op(Pf, hd.value(xi), hd.value(eta))
            )
            return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-8)

        kept, _ = point_loop(ratio, [pt for pt in pts if not smap.singular(*pt)])
        if len(kept) < max(3, n_points // 3):
            raise SamplingError(f"case {case.case_id}: only {len(kept)} usable sample points")
        trial_worst = max([0.0] + [v for _, v in kept])
        per_trial.append(trial_worst)
        worst = max(worst, trial_worst)
    return per_trial


def _outcome(fn, *args, **kw):
    try:
        return [_hex(v) for v in fn(*args, **kw)]
    except (LiesolveError, ArithmeticError, ValueError, TypeError) as err:
        return type(err).__name__, str(err)


def _consistency(monkeypatch, case, params, **kw):
    """(per_trial hex or the error, number of _sides evaluations)."""
    calls = []
    sides = R._sides
    monkeypatch.setattr(R, "_sides", lambda *a: calls.append(a) or sides(*a))
    got = _outcome(lambda: R.verify_reduction_consistency(case, params, **kw).per_trial)
    return got, len(calls)


@settings(max_examples=30, deadline=None)
@given(
    cid=st.sampled_from(sorted(catalog())),
    draw=st.integers(0, 2**16),
    seed=st.integers(0, 64),
    trials=st.integers(1, 3),
    n_points=st.sampled_from((6, 12)),
)
def test_consistency_lanes_are_bitwise_the_scalar_loop(cid, draw, seed, trials, n_points):
    case = catalog()[cid]
    params = case.draw_params(np.random.default_rng([13, draw]))
    kw = dict(trials=trials, seed=seed, n_points=n_points)
    got = _outcome(lambda: R.verify_reduction_consistency(case, params, **kw).per_trial)
    assert got == _outcome(_reference_per_trial, case, params, **kw)


@pytest.mark.parametrize("cid", sorted(catalog()))
def test_consistency_runs_every_case_on_lanes(monkeypatch, cid):
    case = catalog()[cid]
    params = case.draw_params(np.random.default_rng(3))
    got, evaluations = _consistency(monkeypatch, case, params, seed=3)
    assert evaluations == 1  # one lane evaluation, no fallback
    assert got == _outcome(_reference_per_trial, case, params, seed=3)


def _params_12a(**over):
    return {**catalog()["1.2a"].draw_params(np.random.default_rng(2)), **over}


@pytest.mark.parametrize(
    "params, seed, evaluations, reruns",
    [
        # an opaque factor on math.sin cannot take lanes: each trial reruns
        # its points one lane at a time
        (_params_12a(C=lambda s: 2.0 + math.sin(s)), 0, 1 + 3 * 12, 3),
        # math.sqrt also raises ValueError at theta < 0, where the scalar
        # loop skips the point; trial 1 keeps too few, and trial 2 never runs
        (_params_12a(C=lambda s: 2.0 + math.sqrt(s)), 2, 1 + 2 * 12, 2),
        # f1 = t (delta2 t + delta1) <= 0 for t > 0.38: trial 0 keeps no point
        (_params_12a(delta1=0.5, delta2=-1.3), 1, 1, 0),
    ],
    ids=["fallback", "fallback-sampling-error", "lanes-sampling-error"],
)
def test_consistency_pins_the_fallback_and_the_sampling_error(monkeypatch, params, seed,
                                                              evaluations, reruns):
    from liesolve import verify

    runs = []
    rerun = verify._per_lane_or_nan
    monkeypatch.setattr(verify, "_per_lane_or_nan", lambda fn: runs.append(fn) or rerun(fn))
    case = catalog()["1.2a"]
    got = _consistency(monkeypatch, case, params, seed=seed)
    assert got == (_outcome(_reference_per_trial, case, params, seed=seed), evaluations)
    assert len(runs) == reruns


@pytest.mark.filterwarnings("ignore:overflow encountered in multiply")
@pytest.mark.parametrize("seed", [0, 16])
def test_consistency_lanes_skip_non_finite_ratios(monkeypatch, seed):
    # J * e^(300 y) * 1e300 overflows to inf for y > 0 without raising, on
    # lanes as on floats; those ratios are NaN and skipped, and at seed 16
    # a trial keeps only 3 points
    case = catalog()["1.2a"]
    params = case.draw_params(np.random.default_rng(2))
    smap = case.similarity(params)
    J = smap.jacobian
    big = dataclasses.replace(smap, jacobian=lambda x, y, t: J(x, y, t) * hd.exp(300.0 * y) * 1e300)
    try:
        case.similarity = lambda p: big
        got = _consistency(monkeypatch, case, params, seed=seed)
        assert got == (_outcome(_reference_per_trial, case, params, seed=seed), 1)
    finally:
        del case.similarity


# -- one seeded pass per point set ------------------------------------------------


def _seeded_calls(fn):
    """fn, and the lane count (None at a point) of each call of fn with a
    Dual2 argument: one per seeded pass."""
    calls = []

    def counted(*args):
        if any(isinstance(a, hd.Dual2) for a in args):
            calls.append(hd._lane_count(args))
        return fn(*args)

    return counted, calls


class _Rebuilds:
    """A similarity map whose reconstruct gives the field u for every P."""

    def __init__(self, smap, u):
        self.smap, self.u = smap, u

    def reconstruct(self, P):
        return self.u

    def __getattr__(self, name):
        return getattr(self.smap, name)


def _pieces(cid):
    case = catalog()[cid]
    params = case.draw_params(np.random.default_rng(3))
    return case, params


def _op_site(cid):
    case, params = _pieces(cid)
    op = case.reduced_operator(params)
    return 2, lambda P: lambda xi, eta: op(P, xi, eta), case.region_sim(params, n=6)


def _sides_site():
    case, params = _pieces("1.2a")
    smap, op = case.similarity(params), case.reduced_operator(params)
    M = case.potential_field(params)
    P = F.random_smooth_field(np.random.default_rng(4), nargs=2)
    pts = [pt for pt in case.region_xyt(params, n=6) if not smap.singular(*pt)]
    return 3, lambda u: lambda *pt: R._sides(_Rebuilds(smap, u), op, M, P, *pt), pts


def _vector_field_sites():
    case, params = _pieces("1.1a")
    vf = S.infinitesimals(case.symmetry_data(params))
    pts = S.default_sampling(n=6, seed=2)

    def bracket(psi):
        return S.expected_commutator(2, 6, phi_i=S.poly(0.2, 0.7, 0.1), psi=psi).B

    return [("apply", (3, vf.apply, pts)), ("(2, 6)", (3, bracket, pts))]


SIM_POINTS = [(0.7, 0.4), (1.3, -0.6), (0.45, 1.1), (1.7, 0.2), (0.9, -1.2)]
SEEDED_SITES = [
    ("_lap_grad", (2, lambda P: lambda xi, eta: CAT._lap_grad(P, xi, eta), SIM_POINTS)),
    ("_polar_jet", (2, lambda P: lambda xi, eta: CAT._polar_jet(P, xi, eta), SIM_POINTS)),
    ("1.6", _op_site("1.6")),
    ("1.8a", _op_site("1.8a")),
    ("1.8b", _op_site("1.8b")),
    ("_sides", _sides_site()),
    *_vector_field_sites(),
]
# seeded passes of the field per point, one per seed pattern
PASSES_PER_POINT = {"_sides": 3}


@pytest.mark.parametrize("name, site", SEEDED_SITES, ids=[n for n, _ in SEEDED_SITES])
def test_each_site_seeds_its_field_once_per_point_set(name, site):
    # on lanes one seeded pass over a block of lanes per pattern, on points
    # one seeded pass per pattern; each lane is bitwise its point
    nargs, make, pts = site
    field, calls = _seeded_calls(F.random_smooth_field(np.random.default_rng(9), nargs=nargs))
    fn = make(field)
    passes = PASSES_PER_POINT.get(name, 2)
    by_point = [_outputs(fn(*pt)) for pt in pts]
    assert calls == [None] * (passes * len(pts))
    calls.clear()
    lanes = _outputs(fn(*hd.float_lanes(np.transpose(pts))))
    assert calls == [passes * len(pts)]
    for k, want in enumerate(by_point):
        assert [_hex(np.broadcast_to(v, (len(pts),))[k]) for v in lanes] == [_hex(v) for v in want]


def _outputs(out):
    return [hd.value(v) for v in (out if isinstance(out, tuple) else (out,))]


# -- the determining condition ----------------------------------------------------


def _reference_compatibility(data, M, points):
    """The determining condition one point at a time: the per-point formula."""
    vf = S.infinitesimals(data)
    kept, _ = point_loop(lambda x, y, t: M(x, y), points)
    if len(kept) < max(4, len(points) // 3):
        raise SamplingError("sampling region intersects the potential's singular loci")
    f1d = data.f1.d()
    resids = []
    for (x, y, t), Mv in kept:
        Mx, My = hd.derivative_pair(M, (x, y), 0, 1)
        A_t = hd.derivative(vf.A, (x, y, t), 2)
        A_xx = hd.derivative(vf.A, (x, y, t), 0, order=2)
        A_yy = hd.derivative(vf.A, (x, y, t), 1, order=2)
        resid = (
            A_t
            - 0.5 * (A_xx + A_yy)
            + f1d(t) * Mv
            + vf.X(x, y, t) * Mx
            + vf.Y(x, y, t) * My
        )
        resids.append(hd.value(resid))
    return float(np.max(np.abs(resids), initial=0.0))


@pytest.mark.parametrize("cid", sorted(catalog()))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_compatibility_lanes_are_bitwise_the_per_point_formula(monkeypatch, cid, seed):
    case = catalog()[cid]
    params = case.draw_params(np.random.default_rng(seed))
    data, M = case.symmetry_data(params), case.potential_field(params)
    pts = case.region_xyt(params, n=12, seed=seed)
    calls = []
    formula = S._compatibility_lanes
    monkeypatch.setattr(S, "_compatibility_lanes", lambda *a: calls.append(a) or formula(*a))
    got = _outcome(lambda: [S.compatibility_condition(data, M, pts)])
    assert len(calls) == 1  # on lanes, no rerun
    assert got == _outcome(lambda: [_reference_compatibility(data, M, pts)])


# at x = 0, sqrt(x^2) has a value but its jet divides by zero, and 1/x has none
@pytest.mark.parametrize("src", ["sqrt(x^2) + y", "1/x + y"], ids=["jet-raises", "value-raises"])
def test_compatibility_gives_the_scalar_error_or_skip_of_the_potential(src):
    case = catalog()["1.4a"]
    params = case.draw_params(np.random.default_rng(2))
    data = case.symmetry_data(params)
    pts = case.region_xyt(params, n=8, seed=2) + [(0.0, 0.9, 0.6)]
    M = compile_expr(parse(src), ("x", "y"))
    want = _outcome(lambda: [_reference_compatibility(data, M, pts)])
    assert isinstance(want, tuple) == (src == "sqrt(x^2) + y")
    assert _outcome(lambda: [S.compatibility_condition(data, M, pts)]) == want


_FILTER_POINTS = [(0.5, 0.3, 0.4), (0.7, -0.2, 0.5), (0.0, 0.9, 0.6), (2.0, 0.4, 0.7),
                  (-0.6, 0.8, 0.8), (0.9, -0.9, 0.9)]


@pytest.mark.parametrize(
    "fn",
    [
        compile_expr(parse("1/x + y"), ("x", "y")),  # raises at x = 0
        lambda x, y: 1e308 * x * x + y,  # inf at x = 2, on lanes and floats alike
        lambda x, y: hd.exp(400.0 * x) * y,  # OverflowError at x = 2
    ],
    ids=["exprlang-domain-error", "inf", "overflow"],
)
def test_filter_points_keeps_what_sampled_keeps(fn):
    M = fn
    want = point_loop(lambda x, y, t: fn(x, y), _FILTER_POINTS)[0]
    got = S._filter_points(M, _FILTER_POINTS)
    assert [(pt, v.hex()) for pt, v in got] == [(pt, v.hex()) for pt, v in want]
    assert len(want) == len(_FILTER_POINTS) - 1
