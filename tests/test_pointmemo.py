"""One evaluation per distinct point or lane set: the value-keyed memos of
the Whittaker jets and the ODE factors, the shared five-point stencils of the
FD residual oracles, and the reduced-operator residual, which evaluate once
on lanes and rerun one lane at a time, bit for bit, when a field cannot take
lanes."""

import math

import numpy as np
import pytest

from liesolve import hyperdual as hd
from liesolve import numdiff
from liesolve import specfun as sf
from liesolve.errors import DomainError
from liesolve.fields import heat_kernel
from liesolve.reductions import closed_form_solution, get_case, reconstruct_u
from liesolve.reductions import separated as SEP
from liesolve.transform import CEVVol, MarketModel
from liesolve.verify import Region, bs_residual, fp_residual
from point_loop import point_loop


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


def _hexes(v):
    if isinstance(v, hd.Dual2):
        return tuple(_hexes(s) for s in (v.a, v.b, v.c, v.d))
    v = complex(v)
    return v.real.hex(), v.imag.hex()


# -- keys and the bounded memo -------------------------------------------------


def test_point_key_is_exact():
    assert sf.point_key(1.3) == sf.point_key(np.float64(1.3))
    assert sf.point_key(0.0) != sf.point_key(-0.0)
    assert sf.point_key(complex(-2.0, 0.0)) != sf.point_key(complex(-2.0, -0.0))
    assert sf.point_key(2.0) != sf.point_key(complex(2.0, 0.0))
    assert sf.point_key(np.complex128(1 + 2j)) == sf.point_key(1 + 2j)
    d = hd.Dual2(1.3, 1.0)
    assert sf.point_key(d) != sf.point_key(1.3)
    assert sf.point_key(d) != sf.point_key(hd.Dual2(1.3, 1.0))


def test_memo_shares_float_and_numpy_float_entries(hyp1f1_calls):
    f, _, _ = sf.whittakerM_jet(0.3, 0.45)
    a = f(1.7)
    b = f(np.float64(1.7))
    assert len(hyp1f1_calls) == 1
    assert _hexes(a) == _hexes(b)


def test_memo_keeps_signed_zero_branches_apart():
    z_up, z_down = complex(-2.0, 0.0), complex(-2.0, -0.0)
    f, _, _ = sf.whittakerW_jet(0.3, 0.45)
    up, down = f(z_up), f(z_down)
    assert _hexes(up) != _hexes(down)
    assert _hexes(up) == _hexes(sf.whittakerW_jet(0.3, 0.45)[0](z_up))
    assert _hexes(down) == _hexes(sf.whittakerW_jet(0.3, 0.45)[0](z_down))


def test_nested_dual_is_not_keyed_by_its_value_part():
    # a Dual2 argument neither hits the entry of its value part nor loses its
    # derivative parts: every jet element refuses it
    z = 1.7
    f, df, ddf = sf.whittakerM_jet(0.3, 0.45)
    for g in (f, df, ddf):
        g(z)
    nested = hd.Dual2(z, 1.0, 0.5)
    for g in (f, df, ddf):
        with pytest.raises(DomainError, match="not a Dual2"):
            g(nested)


def test_memo_stays_bounded():
    memo = sf.PointMemo()
    for i in range(1000):
        z = 1.0 + i / 1000.0
        memo.put(sf.point_key(z), z, i)
        assert len(memo._entries) <= sf.MEMO_POINTS
    assert memo.get(sf.point_key(1.999)) == 999
    assert memo.get(sf.point_key(1.0)) is None


def test_memo_forgets_old_points(hyp1f1_calls):
    f, _, _ = sf.whittakerM_jet(0.3, 0.45)
    zs = [1.0 + i / 100.0 for i in range(100)]
    for z in zs:
        f(z)
    assert len(hyp1f1_calls) == 100
    f(zs[0])
    assert len(hyp1f1_calls) == 101


def test_raising_evaluation_caches_nothing(monkeypatch):
    memo = sf.PointMemo()
    monkeypatch.setattr(sf, "PointMemo", lambda: memo)
    f, _, _ = sf.whittakerM_jet(0.3, 0.45)
    with pytest.raises(sf.DivergenceError):
        f(250.0)  # outside the |z| <= 200 box
    assert len(memo._entries) == 0
    f(1.5)
    assert len(memo._entries) == 1


def test_y_stencil_at_fixed_xi_makes_one_f1_call(hyp1f1_calls):
    case = get_case("1.5a")
    params = case.draw_params(np.random.default_rng(3))
    u = reconstruct_u(case, params, closed_form_solution(case, params, {"c1": 1.0}))
    x, y, t = case.region_xyt(params, n=1, seed=2)[0]
    kappa, mu = 1.0 / (2.0 * params["delta1"]) - 0.25, 0.25  # F1: s = c1, C0 = 0
    f1_order = (complex(mu - kappa + 0.5), complex(1.0 + 2.0 * mu))
    numdiff.partial2(u, (x, y, t), 1)
    assert hyp1f1_calls.count(f1_order) == 1
    assert len(hyp1f1_calls) == 6  # and F2 at each of the 5 points


def test_ode_factor_dual_pass_makes_one_state_evaluation(monkeypatch):
    solves, states = [], []
    fundamental, barycentric = SEP._fundamental, SEP._barycentric

    def counting_solve(*args):
        solves.append(args)
        return fundamental(*args)

    def counting_state(s, *args):
        states.append(s.tolist())
        return barycentric(s, *args)

    monkeypatch.setattr(SEP, "_fundamental", counting_solve)
    monkeypatch.setattr(SEP, "_barycentric", counting_state)
    F = SEP.ode_factor(lambda s: 0.3 * s * s, 1.2, (-2.0, 2.0), 1.0, 0.4)
    assert len(solves) == 1 and not states
    out = F(hd.Dual2(0.7, 1.0, 1.0))
    assert states == [[0.7]]
    F(0.7)
    assert states == [[0.7]]
    F(hd.Dual2(-1.1, 1.0, 1.0))
    assert states == [[0.7], [-1.1]]
    fresh = SEP.ode_factor(lambda s: 0.3 * s * s, 1.2, (-2.0, 2.0), 1.0, 0.4)
    assert len(solves) == 2
    assert _hexes(out) == _hexes(fresh(hd.Dual2(0.7, 1.0, 1.0)))


@pytest.fixture
def memos(monkeypatch):
    """Every PointMemo that a jet or a factor makes, in creation order."""
    made, memo_type = [], sf.PointMemo

    def make():
        made.append(memo_type())
        return made[-1]

    monkeypatch.setattr(sf, "PointMemo", make)
    monkeypatch.setattr(SEP, "PointMemo", make)
    return made


def _seeded(lanes):
    return hd.Dual2(lanes, np.ones(lanes.size), np.ones(lanes.size))


def test_whittaker_factor_evaluates_each_order_once_per_lane_set(monkeypatch):
    # a Dual2 pass asks f, f' and f'' of the jet: one inner 1F1 per order,
    # and a second seeded pass or a float pass on the same lanes none
    orders = []
    original = sf._hyp1f1_lanes

    def counting(a, b, z, tol=1e-12):
        orders.append((complex(a), complex(b), np.size(z)))
        return original(a, b, z, tol)

    monkeypatch.setattr(sf, "_hyp1f1_lanes", counting)
    F = SEP.whittaker_radial(0.8, 1.3, 0.4)
    xi = np.array([0.4, 1.1, 1.7, 1.1, 0.9])
    out = F(_seeded(xi))
    assert [o[2] for o in orders] == [4, 4, 4]  # the distinct lanes
    assert len({o[:2] for o in orders}) == 3
    again = F(_seeded(xi))
    value = F(hd.float_lanes(xi))
    assert len(orders) == 3
    fresh = SEP.whittaker_radial(0.8, 1.3, 0.4)
    for k, x in enumerate(xi.tolist()):
        want = fresh(hd.Dual2(x, 1.0, 1.0))
        for got in (out, again):
            assert [getattr(got, slot)[k].hex() for slot in "abcd"] == [
                getattr(want, slot).hex() for slot in "abcd"
            ]
        assert value[k].hex() == fresh(x).hex()


def test_ode_factor_interpolates_once_per_lane_set(monkeypatch):
    # closes the triple interpolation of a Dual2 lane call: value, F' and
    # F'' = (2 C - c1) F share one barycentric pass, and later passes on the
    # same lanes make none
    states = []
    barycentric = SEP._barycentric

    def counting_state(s, *args):
        states.append(s.tolist())
        return barycentric(s, *args)

    monkeypatch.setattr(SEP, "_barycentric", counting_state)
    F = SEP.ode_factor(lambda s: 0.3 * s * s, 1.2, (-2.0, 2.0), 1.0, 0.4)
    lanes = np.array([0.7, -1.1, 1.9])
    out = F(_seeded(lanes))
    assert states == [lanes.tolist()]
    F(_seeded(lanes))
    value = F(hd.float_lanes(lanes))
    assert len(states) == 1
    with pytest.raises(ValueError, match="read-only"):
        value[0] = 0.0  # the memo's rows are shared by every pass
    fresh = SEP.ode_factor(lambda s: 0.3 * s * s, 1.2, (-2.0, 2.0), 1.0, 0.4)
    for k, x in enumerate(lanes.tolist()):
        want = fresh(hd.Dual2(x, 1.0, 1.0))
        assert [getattr(out, slot)[k].hex() for slot in "abcd"] == [
            getattr(want, slot).hex() for slot in "abcd"
        ]


def test_lane_memo_stays_bounded(memos):
    F = SEP.whittaker_radial(0.8, 1.3, 0.4)
    G = SEP.ode_factor(lambda s: 0.3 * s * s, 1.2, (-2.0, 2.0), 1.0, 0.4)
    assert len(memos) == 2
    for i in range(100):
        lanes = np.linspace(0.3, 1.9, 7) + i / 1000.0
        F(_seeded(lanes))
        G(_seeded(lanes))
        assert all(len(m._entries) <= sf.MEMO_POINTS for m in memos)
    assert all(len(m._entries) > 0 for m in memos)


def test_ode_factor_lanes_match_points():
    # one interpolation pass on the lanes, bit for bit the points; a lane
    # outside the span raises the point's DomainError
    F = SEP.ode_factor(lambda s: 0.3 * s * s, 1.2, (-2.0, 2.0), 1.0, 0.4, anchor=0.3)
    lanes = np.array([-1.7, 0.3, 1.9, -0.2, 0.3, 2.0])
    fresh = SEP.ode_factor(lambda s: 0.3 * s * s, 1.2, (-2.0, 2.0), 1.0, 0.4, anchor=0.3)
    assert [v.hex() for v in F(lanes).tolist()] == [fresh(s).hex() for s in lanes.tolist()]
    with pytest.raises(DomainError, match="outside span"):
        F(np.array([0.5, 2.5]))


# -- shared stencils -------------------------------------------------------------


def _counting(fn):
    calls = []

    def counted(*args):
        calls.append(args)
        return fn(*args)

    return counted, calls


def _poly3(x, y, t):
    return 1.0 + 0.3 * x**3 - 0.7 * x * y * y + 0.2 * y**4 * t + 0.5 * t * t * x


def _poly2(x, t):
    return 0.4 - 0.6 * x**3 * t + 0.25 * x**4 + 0.1 * t**3


REGION_2D = Region(((-1.5, 1.5), (-1.2, 1.3), (0.5, 2.0)))
REGION_1D = Region(((-1.5, 1.5), (0.5, 2.0)))
PRICE_2D = Region(((0.6, 1.8), (0.7, 1.6), (0.1, 0.9)))
PRICE_1D = Region(((0.6, 1.8), (0.1, 0.9)))


def _scalar_only(fn):
    """fn for float arguments; lanes raise TypeError, as a field that
    branches on its values does."""

    def g(*args):
        if any(isinstance(a, np.ndarray) for a in args):
            raise TypeError("this field takes floats")
        return fn(*args)

    return g


def _model(one_dim):
    vol = CEVVol(0.4, 1.0)
    return MarketModel(vol, None if one_dim else CEVVol(0.3, 0.5), 0.0 if one_dim else 0.35, 0.05)


def _fp_counted(region, wrap):
    fn = _poly3 if len(region.bounds) == 3 else _poly2
    u, calls = _counting(fn)
    M = (lambda x, y: 0.3) if len(region.bounds) == 3 else (lambda x: 0.3)
    return fp_residual(wrap(u), M, region, threshold=1.0, n=7), calls


def _bs_counted(region, wrap):
    one_dim = len(region.bounds) == 2
    c, calls = _counting(_poly2 if one_dim else _poly3)
    return bs_residual(_model(one_dim), wrap(c), region, threshold=1.0, n=7), calls


@pytest.mark.parametrize(
    "region, per_point", [(REGION_2D, 13), (REGION_1D, 9)], ids=["2d", "1d"]
)
def test_fp_residual_evaluations_per_point(region, per_point):
    # one call on lanes that hold every stencil point of every sample point
    rep, calls = _fp_counted(region, lambda f: f)
    assert (rep.n_points, rep.notes) == (7, ("lanes",))
    assert len(calls) == 1
    assert all(np.shape(a) == (per_point * 7,) for a in calls[0])


@pytest.mark.parametrize(
    "region, per_point", [(PRICE_2D, 17), (PRICE_1D, 9)], ids=["2d", "1d"]
)
def test_bs_residual_evaluations_per_point(region, per_point):
    rep, calls = _bs_counted(region, lambda f: f)
    assert (rep.n_points, rep.notes) == (7, ("lanes",))
    assert len(calls) == 1
    assert all(np.shape(a) == (per_point * 7,) for a in calls[0])


@pytest.mark.parametrize(
    "residual, region, per_point",
    [
        (_fp_counted, REGION_2D, 13),
        (_fp_counted, REGION_1D, 9),
        (_bs_counted, PRICE_2D, 17),
        (_bs_counted, PRICE_1D, 9),
    ],
    ids=["fp-2d", "fp-1d", "bs-2d", "bs-1d"],
)
def test_residual_evaluations_per_point_without_lanes(residual, region, per_point):
    # a field that rejects lanes reruns the formula one lane at a time: the
    # shared stencils still cost 13 / 9 / 17 evaluations per point
    rep, calls = residual(region, _scalar_only)
    assert (rep.n_points, rep.notes) == (7, ("per-lane: TypeError",))
    assert len(calls) == per_point * 7
    lanes, _ = residual(region, lambda f: f)
    assert (lanes.max_abs.hex(), lanes.rms.hex()) == (rep.max_abs.hex(), rep.rms.hex())


VERIFY_DRAWS = [
    ("1.1a", 1), ("1.1b", 0), ("1.2a", 0), ("1.2b", 0), ("1.5a", 1), ("1.8a", 0), ("1.8b", 0)
]


@pytest.mark.parametrize("case_id, seed", VERIFY_DRAWS)
def test_closed_form_residual_runs_on_lanes(case_id, seed):
    # the residual that `verify` takes of each closed form, at one draw:
    # lanes, with the report of the per-lane rerun bit for bit
    from liesolve.cli import _bounding_region

    case = get_case(case_id)
    params = case.draw_params(np.random.default_rng(seed))
    u = reconstruct_u(case, params, closed_form_solution(case, params))
    M = case.potential_field(params)
    box = _bounding_region(case, params, seed)
    lanes = fp_residual(u, M, box, threshold=1.0, n=25)
    points = fp_residual(_scalar_only(u), M, box, threshold=1.0, n=25)
    assert lanes.notes == ("lanes",)
    assert points.notes == ("per-lane: TypeError",)
    assert (lanes.n_points, lanes.singular_points_skipped) == (
        points.n_points,
        points.singular_points_skipped,
    )
    assert (lanes.max_abs.hex(), lanes.rms.hex()) == (points.max_abs.hex(), points.rms.hex())


# -- the reduced-operator residual on lanes --------------------------------------


class _Captured(Exception):
    pass


def _reduced_residual_args(case_id, seed, monkeypatch):
    """(reduced operator, P, similarity points) of the closed-form residual
    that `verify` takes at one draw, or of double-cev's wedge solution."""
    if case_id == "double-cev":
        import liesolve.casestudies as CS

        got = []

        def capture(*args):
            got.append(args)
            raise _Captured

        with monkeypatch.context() as m:
            m.setattr(CS, "operator_residual", capture)
            with pytest.raises(_Captured):
                CS.double_cev(0.05, seed=seed)
        return got[0]
    case = get_case(case_id)
    params = case.draw_params(np.random.default_rng(seed))
    P = closed_form_solution(case, params).P
    return case.reduced_operator(params), P, case.region_sim(params, n=30, seed=seed)


@pytest.fixture
def lane_reruns(monkeypatch):
    """(points, skipped) of every one-lane-at-a-time rerun of a sampled
    evaluation (``verify._per_lane_or_nan``), as operator_residual takes them."""
    from liesolve import verify

    runs = []
    rerun = verify._per_lane_or_nan

    def spy(fn):
        one_lane = rerun(fn)

        def counted(*lanes):
            values = one_lane(*lanes)
            runs.append((values.size, int(np.count_nonzero(~np.isfinite(values)))))
            return values

        return counted

    monkeypatch.setattr(verify, "_per_lane_or_nan", spy)
    return runs


def _by_points(op, P, pts):
    kept, _ = point_loop(lambda *pt: op(P, *pt), pts)
    return max([0.0] + [abs(v) for _, v in kept])


LANE_RESIDUALS = [d for d in VERIFY_DRAWS if d[0] != "1.1b"] + [("double-cev", 0)]


@pytest.mark.parametrize("case_id, seed", LANE_RESIDUALS)
def test_reduced_residual_runs_on_lanes(case_id, seed, monkeypatch, lane_reruns):
    # one evaluation of the operator on lanes, bit for bit the per-point
    # loop (on factors of their own, so no memo is shared); a P that rejects
    # lanes reruns one lane at a time with the same result
    from liesolve.reductions import operator_residual

    op, P, pts = _reduced_residual_args(case_id, seed, monkeypatch)
    lanes = operator_residual(op, P, pts)
    assert lane_reruns == []
    _, P_ref, _ = _reduced_residual_args(case_id, seed, monkeypatch)
    assert lanes.hex() == _by_points(op, P_ref, pts).hex()
    assert operator_residual(op, _scalar_only(P_ref), pts).hex() == lanes.hex()
    assert lane_reruns == [(len(pts), 0)]


def test_imag_whittaker_residual_stays_on_points(monkeypatch, lane_reruns):
    # 1.1b's factor branches on its value part under Dual2: its lane attempt
    # raises at once, and the one-lane rerun gives the residual
    from liesolve.reductions import operator_residual

    op, P, pts = _reduced_residual_args("1.1b", 0, monkeypatch)
    got = operator_residual(op, P, pts)
    assert lane_reruns == [(30, 0)]
    _, P_ref, _ = _reduced_residual_args("1.1b", 0, monkeypatch)
    assert got.hex() == _by_points(op, P_ref, pts).hex()


def _spoilt_at(P, bad, kind):
    """P, but at the points whose first argument is in ``bad``: a
    DomainError ("raise"), or P times NaN or inf, on lanes as on floats."""

    def g(xi, eta):
        at_bad = np.isin(hd.value(xi), bad)
        if kind == "raise":
            if np.any(at_bad):
                raise DomainError("P is not defined here")
            return P(xi, eta)
        w = np.where(at_bad, math.nan if kind == "nan" else math.inf, 1.0)
        return P(xi, eta) * (w if w.ndim else float(w))

    return g


@pytest.mark.parametrize("n_bad", [1, 23, 24])
@pytest.mark.parametrize("kind", ["raise", "nan", "inf"])
def test_reduced_residual_skips_points_as_the_point_loop(kind, n_bad, monkeypatch, lane_reruns):
    # a point where P raises, or where an inf meets a zero derivative slot
    # (invalid, under the lane error state), sends the lanes to the
    # one-lane rerun, which skips it; a NaN lane is skipped on the lanes.
    # 7 of 30 points must remain (max(4, 30 // 4))
    from liesolve.errors import SamplingError
    from liesolve.reductions import operator_residual

    op, P, pts = _reduced_residual_args("1.8b", 0, monkeypatch)
    bad = [pt[0] for pt in pts[:n_bad]]
    if n_bad == 24:
        with pytest.raises(SamplingError, match="evaluable at only 6 of 30 points"):
            operator_residual(op, _spoilt_at(P, bad, kind), pts)
    else:
        got = operator_residual(op, _spoilt_at(P, bad, kind), pts)
        _, P_ref, _ = _reduced_residual_args("1.8b", 0, monkeypatch)
        assert got.hex() == _by_points(op, _spoilt_at(P_ref, bad, kind), pts).hex()
    assert lane_reruns == ([] if kind == "nan" else [(30, n_bad)])


def test_field_that_branches_on_float_t_runs_per_point():
    heat = heat_kernel()

    def u(x, y, t):
        return heat(x, y, t) if float(t) > 0.0 else 0.0

    rep = fp_residual(u, lambda x, y: 0.0, REGION_2D, threshold=1e-6, n=9)
    assert rep.notes == ("per-lane: TypeError",)
    assert rep.n_points == 9


# Reference: the residuals as they were computed before the stencils were
# shared, one stencil per derivative.


def _old_fp(ufn, Mfn, p, h0):
    if len(p) == 2:
        x, tau = p
        ut = numdiff.partial1(ufn, (x, tau), 1, h0)
        uxx = numdiff.partial2(ufn, (x, tau), 0, h0)
        return ut - 0.5 * uxx + Mfn(x) * ufn(x, tau)
    x, y, tau = p
    ut = numdiff.partial1(ufn, (x, y, tau), 2, h0)
    uxx = numdiff.partial2(ufn, (x, y, tau), 0, h0)
    uyy = numdiff.partial2(ufn, (x, y, tau), 1, h0)
    return ut - 0.5 * (uxx + uyy) + Mfn(x, y) * ufn(x, y, tau)


def _old_bs(model, cfn, p, h0):
    r_ = model.rate
    if model.one_dim:
        S, t = p
        sv = model.vol1.value(S)
        ct = numdiff.partial1(cfn, (S, t), 1, h0)
        css = numdiff.partial2(cfn, (S, t), 0, h0)
        cs = numdiff.partial1(cfn, (S, t), 0, h0)
        return ct + 0.5 * sv * sv * css + r_ * S * cs - r_ * cfn(S, t)
    S1, S2, t = p
    s1v = model.vol1.value(S1)
    s2v = model.vol2.value(S2)
    args = (S1, S2, t)
    ct = numdiff.partial1(cfn, args, 2, h0)
    c11 = numdiff.partial2(cfn, args, 0, h0)
    c22 = numdiff.partial2(cfn, args, 1, h0)
    c12 = numdiff.mixed2(cfn, args, 0, 1, h0)
    c1 = numdiff.partial1(cfn, args, 0, h0)
    c2 = numdiff.partial1(cfn, args, 1, h0)
    return (
        ct
        + 0.5 * s1v**2 * c11
        + model.rho * s1v * s2v * c12
        + 0.5 * s2v**2 * c22
        + r_ * S1 * c1
        + r_ * S2 * c2
        - r_ * cfn(*args)
    )


class _OnePoint:
    """A region that yields one given point."""

    def __init__(self, p):
        self.bounds = tuple((v, v) for v in p)
        self._p = p

    def points(self, n):
        return [self._p]


def _assert_matches_reference(residual, reference, region, n):
    pts = region.points(n)
    rep = residual(region)
    old = np.asarray([reference(p) for p in pts])
    assert rep.n_points == len(pts)
    assert rep.max_abs.hex() == float(np.max(np.abs(old))).hex()
    assert rep.rms.hex() == float(np.sqrt(np.mean(old**2))).hex()
    for p, r in zip(pts, old):
        assert residual(_OnePoint(p)).max_abs.hex() == float(abs(r)).hex()


def _bs_call(S, t, K=1.1, T=1.0, sigma=0.4, r=0.05):
    # Black-Scholes call under sigma(S) = 0.4 S, a closed-form price
    tau = T - t
    d1 = (math.log(S / K) + (r + 0.5 * sigma * sigma) * tau) / (sigma * math.sqrt(tau))
    d2 = d1 - sigma * math.sqrt(tau)
    N = lambda v: 0.5 * (1.0 + math.erf(v / math.sqrt(2.0)))  # noqa: E731
    return S * N(d1) - K * math.exp(-r * tau) * N(d2)


def _case15a_field():
    case = get_case("1.5a")
    params = case.draw_params(np.random.default_rng(3))
    u = reconstruct_u(case, params, closed_form_solution(case, params, {"c1": 1.0}))
    return u, case.potential_field(params)


@pytest.mark.parametrize("field", ["poly2d", "poly1d", "closed2d", "closed1d"])
def test_fp_residual_matches_per_derivative_stencils(field):
    h0 = 1e-3
    if field == "closed2d":
        ufn, Mfn = _case15a_field()
        region = Region(((0.4, 1.4), (-0.8, 0.9), (0.3, 0.9)))
    elif field == "closed1d":
        ufn, Mfn, region = heat_kernel(nargs=2), (lambda x: 0.0), REGION_1D
    elif field == "poly2d":
        ufn, Mfn, region = _poly3, (lambda x, y: 0.3 * x - y), REGION_2D
    else:
        ufn, Mfn, region = _poly2, (lambda x: 0.3 * x), REGION_1D
    _assert_matches_reference(
        lambda reg: fp_residual(ufn, Mfn, reg, threshold=1.0, h0=h0, n=9),
        lambda p: _old_fp(ufn, Mfn, p, h0),
        region,
        9,
    )


@pytest.mark.parametrize("field", ["poly2d", "poly1d", "closed2d", "closed1d"])
def test_bs_residual_matches_per_derivative_stencils(field):
    h0 = 1e-3
    one_dim = field.endswith("1d")
    model = _model(one_dim)
    region = PRICE_1D if one_dim else PRICE_2D
    cfn = {
        "poly2d": _poly3,
        "poly1d": _poly2,
        "closed2d": lambda S1, S2, t: _bs_call(S1, t) * _bs_call(S2, t, K=0.9, sigma=0.3),
        "closed1d": _bs_call,
    }[field]
    _assert_matches_reference(
        lambda reg: bs_residual(model, cfn, reg, threshold=1.0, h0=h0, n=9),
        lambda p: _old_bs(model, cfn, p, h0),
        region,
        9,
    )


# -- the per-lane rerun against the per-point loop -------------------------------


def _spotty(fn, raised):
    """fn on floats, except at some stencil points: a DomainError, a
    ZeroDivisionError or a ValueError (each recorded in ``raised``), or inf.
    The class of a point hangs on digits finer than the stencil step, so the
    stencil points of one sample point fall in different classes."""

    def g(*p):
        k = int(sum(abs(v) for v in p) * 1e4) % 97
        if k == 0:
            raised.add("DomainError")
            raise DomainError("spotty field")
        if k == 1:
            raised.add("ZeroDivisionError")
            return 1.0 / (k - 1)
        if k == 2:
            raised.add("ValueError")
            return math.sqrt(-1.0)
        if k == 3:
            return math.inf
        return fn(*p)

    return g


@pytest.mark.parametrize("oracle", ["fp-2d", "fp-1d", "bs-2d", "bs-1d"])
def test_per_lane_rerun_matches_per_point_loop(oracle):
    # the field rejects lanes (int() of an array) and raises or gives inf at
    # some stencil points: the per-lane rerun skips and keeps the points the
    # per-point loop of the reference formulas skips and keeps, bit for bit
    h0, n, raised = 1e-3, 30, set()
    one_dim = oracle.endswith("1d")
    if oracle.startswith("fp"):
        region = REGION_1D if one_dim else REGION_2D
        ufn = _spotty(_poly2 if one_dim else _poly3, raised)
        Mfn = (lambda x: 0.3 * x) if one_dim else (lambda x, y: 0.3 * x - y)
        rep = fp_residual(ufn, Mfn, region, threshold=1.0, h0=h0, n=n)
        reference = lambda *p: _old_fp(ufn, Mfn, p, h0)  # noqa: E731
    else:
        region = PRICE_1D if one_dim else PRICE_2D
        model = _model(one_dim)
        cfn = _spotty(_poly2 if one_dim else _poly3, raised)
        rep = bs_residual(model, cfn, region, threshold=1.0, h0=h0, n=n)
        reference = lambda *p: _old_bs(model, cfn, p, h0)  # noqa: E731
    with np.errstate(invalid="ignore"):  # numpy scalar points: inf - inf
        kept, skipped = point_loop(reference, region.points(n))
    old = np.asarray([v for _, v in kept])
    assert rep.notes == ("per-lane: TypeError",)
    assert raised == {"DomainError", "ZeroDivisionError", "ValueError"}
    assert 0 < skipped < n
    assert (rep.n_points, rep.singular_points_skipped) == (len(kept), skipped)
    assert rep.max_abs.hex() == float(np.max(np.abs(old))).hex()
    assert rep.rms.hex() == float(np.sqrt(np.mean(old**2))).hex()


@pytest.mark.parametrize(
    "residual, region", [(_fp_counted, REGION_2D), (_bs_counted, PRICE_2D)], ids=["fp", "bs"]
)
def test_type_error_of_the_field_on_floats_propagates(residual, region):
    # not a skip: a TypeError on floats is a fault of the field, as it is in
    # the per-point loop
    def wrap(fn):
        def g(*p):
            if p[0] > 0.9:
                raise TypeError("not a domain error")
            return fn(*p)

        return _scalar_only(g)

    with pytest.raises(TypeError, match="not a domain error"):
        residual(region, wrap)
