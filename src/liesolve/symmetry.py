"""Point-symmetry machinery for the potential heat equation
``u_t - (1/2) Laplacian(u) + M(x, y) u = 0``.

The admissible generator family is parameterized by a rotation constant ``k``
and four functions of time:

    T = f1
    X = (1/2) f1' x + k y + f2
    Y = (1/2) f1' y - k x + f3
    U = -[(1/4) f1'' (x^2+y^2) + f2' x + f3' y + f4] u + g

with ``g`` a known solution carried along as the inhomogeneous part.  The
scalar compatibility condition tying the time functions to the potential is
the u-coefficient of the determining equations,

    A_t - (1/2) Laplacian(A) + T_t M + X M_x + Y M_y = 0,

where ``A`` is the u-coefficient of ``U``.  (The literature often abbreviates
this as "T_t M + X M_x + Y M_y + U_u M = 0"; the abbreviation does not vanish
on the admissible family, the full u-coefficient above does, and it is what
:func:`compatibility_condition` evaluates.)

All residuals here use exact derivatives of the closed-form coefficients; the
independent finite-difference routes live in :mod:`liesolve.verify`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import hyperdual as hd
from .errors import NotRadialPotential, SamplingError, UnsupportedF1Form
from .verify import _LANE_ERRORS, SKIPPED_ERRORS, sampled


# ---------------------------------------------------------------------------
# time functions: closed under differentiation, Dual2-transparent
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyTimeFn:
    """c0 + c1 t + c2 t^2 + c3 t^3 + c4 t^4."""

    coeffs: tuple

    def __call__(self, t):
        acc = 0.0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def d(self):
        return PolyTimeFn(tuple((i + 1) * c for i, c in enumerate(self.coeffs[1:])) or (0.0,))


@dataclass(frozen=True)
class ExpPairTimeFn:
    """d1 exp(lam t) + d2 exp(-lam t)."""

    d1: float
    d2: float
    lam: float

    def __call__(self, t):
        return self.d1 * hd.exp(self.lam * t) + self.d2 * hd.exp(-self.lam * t)

    def d(self):
        return ExpPairTimeFn(self.d1 * self.lam, -self.d2 * self.lam, self.lam)


def poly(*coeffs):
    return PolyTimeFn(tuple(float(c) for c in coeffs) or (0.0,))


ZERO_FN = poly(0.0)


def exp_pair(d1, d2, lam):
    return ExpPairTimeFn(float(d1), float(d2), float(lam))


@dataclass(frozen=True)
class SymmetryData:
    k: float = 0.0
    f1: object = ZERO_FN
    f2: object = ZERO_FN
    f3: object = ZERO_FN
    f4: object = ZERO_FN
    g: object = None  # a known solution (x, y, t) -> value, or None


# ---------------------------------------------------------------------------
# vector fields with affine u-part (U = A u + B)
# ---------------------------------------------------------------------------


@dataclass
class VectorField:
    T: object  # callables (x, y, t) -> scalar, Dual2-transparent
    X: object
    Y: object
    A: object  # u-coefficient of U
    B: object  # inhomogeneous part of U
    name: str = ""

    def coefficients(self, x, y, t):
        return (
            self.T(x, y, t),
            self.X(x, y, t),
            self.Y(x, y, t),
            self.A(x, y, t),
            self.B(x, y, t),
        )

    def apply(self, F):
        """First-order action T F_t + X F_x + Y F_y on a coefficient callable."""

        def out(x, y, t):
            f_t, f_xy = hd.lane_pass(F, (x, y, t), ((2, None), (0, 1)))
            return self.T(x, y, t) * f_t.b + self.X(x, y, t) * f_xy.b + self.Y(x, y, t) * f_xy.c

        return out


def _zero3(x, y, t):
    return 0.0


def infinitesimals(data: SymmetryData) -> VectorField:
    """Assemble (T, X, Y, U) from the admissible family."""
    f1, f2, f3, f4, k = data.f1, data.f2, data.f3, data.f4, data.k
    f1d, f1dd = f1.d(), f1.d().d()
    f2d, f3d = f2.d(), f3.d()

    def T(x, y, t):
        return f1(t)

    def X(x, y, t):
        return 0.5 * f1d(t) * x + k * y + f2(t)

    def Y(x, y, t):
        return 0.5 * f1d(t) * y - k * x + f3(t)

    def A(x, y, t):
        return -(0.25 * f1dd(t) * (x * x + y * y) + f2d(t) * x + f3d(t) * y + f4(t))

    B = _zero3 if data.g is None else data.g
    return VectorField(T, X, Y, A, B, name="infinitesimal")


# the named generator family (u-parts per the sign convention above)
def v1():
    return infinitesimals(SymmetryData(k=1.0))


def v2(phi):
    return infinitesimals(SymmetryData(f1=phi))


def v3(phi):
    return infinitesimals(SymmetryData(f2=phi))


def v4(phi):
    return infinitesimals(SymmetryData(f3=phi))


def v5(phi):
    return infinitesimals(SymmetryData(f4=phi))


def v6(psi):
    return VectorField(_zero3, _zero3, _zero3, _zero3, psi, name="v6")


def commutator(v: VectorField, w: VectorField) -> VectorField:
    """Lie bracket [v, w] as a first-order operator on (x, y, t, u)-space.

    Coefficient derivatives are exact (dual-number propagation through the
    closed-form coefficients).
    """

    def bracket_coeff(getter_v, getter_w):
        vf_w = v.apply(getter_w)
        wf_v = w.apply(getter_v)

        def out(x, y, t):
            return vf_w(x, y, t) - wf_v(x, y, t)

        return out

    T = bracket_coeff(v.T, w.T)
    X = bracket_coeff(v.X, w.X)
    Y = bracket_coeff(v.Y, w.Y)
    A = bracket_coeff(v.A, w.A)
    b_core = bracket_coeff(v.B, w.B)

    def B(x, y, t):
        return b_core(x, y, t) + w.A(x, y, t) * v.B(x, y, t) - v.A(x, y, t) * w.B(x, y, t)

    return VectorField(T, X, Y, A, B, name=f"[{v.name},{w.name}]")


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------


def default_sampling(n=30, seed=1, r_range=(0.6, 2.4), t_range=(0.3, 1.2)):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < n:
        r = rng.uniform(*r_range)
        th = rng.uniform(0.15, 2 * math.pi - 0.15)
        x, y = r * math.cos(th), r * math.sin(th)
        if abs(x) < 0.2 or abs(y) < 0.2 or abs(x * x - y * y) < 0.1:
            continue
        pts.append((x, y, rng.uniform(*t_range)))
    return pts


def _filter_points(M, points):
    """``(point, M value)`` at each point where M is finite, as
    :func:`sampled` keeps them."""
    good = sampled(lambda x, y, t: M(x, y), points)[0]
    if len(good) < max(4, len(points) // 3):
        raise SamplingError("sampling region intersects the potential's singular loci")
    return good


def compatibility_condition(data: SymmetryData, M, points=None) -> float:
    """Max abs of the scalar determining condition over the sampling set, or NaN.

    Every kept point is a lane of one evaluation: one jet pass of M gives
    M_x and M_y, one of A gives A_t, A_xx and A_yy.  Each lane is bitwise
    the scalar passes at its point.  A lane evaluation that raises a
    TypeError, ValueError, ArithmeticError or LiesolveError reruns the same
    formula with M, f1' and vf's five coefficients wrapped in
    :func:`liesolve.hyperdual.per_lane`, which gives the scalar values or
    their error.
    """
    vf = infinitesimals(data)
    kept = _filter_points(M, points or default_sampling())
    f1d = data.f1.d()
    with np.errstate(**hd.LANE_ERRSTATE):
        try:
            resids = _compatibility_lanes(vf, f1d, M, kept)
        except _LANE_ERRORS:
            one_lane = VectorField(*map(hd.per_lane, (vf.T, vf.X, vf.Y, vf.A, vf.B)))
            resids = _compatibility_lanes(one_lane, *map(hd.per_lane, (f1d, M)), kept)
    return float(np.max(np.abs(resids), initial=0.0))  # NaN-propagating


def _compatibility_lanes(vf, f1d, M, kept):
    xyt = hd.float_lanes(np.transpose([pt for pt, _ in kept]))
    Mv = hd.float_lanes([v for _, v in kept])
    x, y, t = xyt
    (M_xy,) = hd.lane_pass(M, (x, y), ((0, 1),))
    A_t, A_xx, A_yy = hd.lane_pass(vf.A, xyt, ((2, None), (0, 0), (1, 1)))
    resid = (
        A_t.b
        - 0.5 * (A_xx.d + A_yy.d)
        + f1d(t) * Mv
        + vf.X(x, y, t) * M_xy.b
        + vf.Y(x, y, t) * M_xy.c
    )
    return np.broadcast_to(hd.value(resid), (len(kept),)).tolist()


def symmetry_residual(vf: VectorField, M, u_test, points=None) -> float:
    """Invariance defect of the linearized equation on the jet variety.

    For the evolutionary symmetry function sigma = A u + B - T u_t - X u_x -
    Y u_y, the linearization of the equation along sigma equals, after
    eliminating u_t through the equation itself,

        L(sigma) - (A - T_t) E(u) + T dE/dt + X dE/dx + Y dE/dy

    with L(w) = w_t - (1/2) Lap(w) + M w and E(u) = L(u).  The expression
    vanishes identically in u exactly when vf generates a symmetry, so any
    smooth test field certifies it; no PDE solve is needed.

    All points run as lanes of two nested jet passes (see
    :mod:`liesolve.hyperdual`).  The inner pass seeds u with the patterns
    ``_INNER`` and gives u_t, u_x, u_y, u_xx and u_yy, from which one function
    forms sigma and E; the outer pass seeds that function with ``_OUTER`` and
    gives sigma_t, sigma_xx, sigma_yy, E_t, E_x and E_y; one float-lane call
    gives the values of sigma and E.  u is evaluated four times per call, on
    16 n, 4 n, 4 n and n lanes for n points.  M is evaluated only on the
    lanes that read E: the term M u of E joins after the outer pass.  Every
    lane is bitwise equal to the scalar nested passes at its point.  A lane
    evaluation that raises a TypeError, ValueError, ArithmeticError or
    LiesolveError (a callable that branches on values or calls ``math`` on a
    jet, a lane division by zero, a domain error of M at some point) reruns
    the same passes with u, M and vf's five coefficients wrapped in
    :func:`liesolve.hyperdual.per_lane`, one lane at a time, which gives the
    scalar passes' defects or their error, and a NaN defect gives NaN.
    """
    points = [pt for pt, _ in _filter_points(M, points or default_sampling())]
    with np.errstate(**hd.LANE_ERRSTATE):
        try:
            defects = _lane_defects(vf, M, u_test, points)
        except _LANE_ERRORS:
            one_lane = VectorField(*map(hd.per_lane, (vf.T, vf.X, vf.Y, vf.A, vf.B)))
            defects = _lane_defects(one_lane, *map(hd.per_lane, (M, u_test)), points)
    return float(np.max(np.abs(defects), initial=0.0))  # NaN-propagating


# seed patterns (i, j): e1 on coordinate i, e2 on coordinate j of (x, y, t)
_INNER = ((2, None), (0, 1), (0, 0), (1, 1))
_OUTER = ((2, None), (0, 0), (1, 1), (0, 1))


def _lane_defects(vf, M, u, points):
    xyt = hd.float_lanes(np.transpose(points))

    def sigma_E0(x, y, t):
        # sigma, E without its potential term M u, and u: M joins E after
        # the pass, on the lanes of the patterns that read E
        p_t, p_xy, p_xx, p_yy = hd.lane_pass(u, (x, y, t), _INNER)
        ut = p_t.b
        uv = u(x, y, t)
        sigma = (
            vf.A(x, y, t) * uv
            + vf.B(x, y, t)
            - vf.T(x, y, t) * ut
            - vf.X(x, y, t) * p_xy.b
            - vf.Y(x, y, t) * p_xy.c
        )
        return sigma, ut - 0.5 * (p_xx.d + p_yy.d), uv

    x, y, t = xyt
    outer = hd.lane_pass(sigma_E0, xyt, _OUTER)
    (s_t, E0_t, u_t), (s_xx, _, _), (s_yy, _, _), (_, E0_xy, u_xy) = outer
    M_t, M_xy = hd.lane_pass(M, (x, y), ((2, None), (0, 1)))
    E_t = E0_t + M_t * u_t
    E_xy = E0_xy + M_xy * u_xy
    m = M(x, y)
    sigma, E0, uv = sigma_E0(x, y, t)
    E = E0 + m * uv
    (T_t,) = hd.lane_pass(vf.T, xyt, ((2, None),))
    defect = (
        s_t.b - 0.5 * (s_xx.d + s_yy.d) + m * sigma
        - (vf.A(x, y, t) - T_t.b) * E
        + vf.T(x, y, t) * E_t.b
        + vf.X(x, y, t) * E_xy.b
        + vf.Y(x, y, t) * E_xy.c
    )
    return np.broadcast_to(hd.value(defect), (len(points),)).tolist()


# ---------------------------------------------------------------------------
# group actions on solutions
# ---------------------------------------------------------------------------


def transform_solution(index: int, phi, *, eps=0.0, delta=None,
                       f2=None, f3=None, f4=None, g=None):
    """Push a solution through one of the six one-parameter group actions.

    index 1: rotation by eps.
    index 2: time scaling, integrated for the linear time function f1 = delta*t
             only (the exponential-pair flow is not integrated in closed form
             here); parabolic rescaling of (x, y, t).
    index 3/4: translation+boost along x/y with time function f2/f3.
    index 5: exp(-f4 eps) scaling.
    index 6: superposition phi - g*eps with a known solution g.
    """
    if index == 1:
        c, s = math.cos(eps), math.sin(eps)

        def fn(x, y, t):
            return phi(c * x - s * y, s * x + c * y, t)

        return fn
    if index == 2:
        if delta is None:
            raise UnsupportedF1Form("index 2 requires the linear-coefficient delta")
        a = math.exp(-delta * eps)
        root = math.sqrt(a)

        def fn(x, y, t):
            return phi(root * x, root * y, a * t)

        return fn
    if index in (3, 4):
        fj = f2 if index == 3 else f3
        if fj is None:
            raise ValueError(f"index {index} requires the time function f{index - 1}")
        fjd = fj.d()
        if index == 3:
            def fn(x, y, t):
                shift = fj(t) * eps
                return hd.exp(fjd(t) * (0.5 * fj(t) * eps * eps - x * eps)) * phi(
                    x - shift, y, t
                )
        else:
            def fn(x, y, t):
                shift = fj(t) * eps
                return hd.exp(fjd(t) * (0.5 * fj(t) * eps * eps - y * eps)) * phi(
                    x, y - shift, t
                )
        return fn
    if index == 5:
        if f4 is None:
            raise ValueError("index 5 requires the time function f4")

        def fn(x, y, t):
            return hd.exp(-f4(t) * eps) * phi(x, y, t)

        return fn
    if index == 6:
        if g is None:
            raise ValueError("index 6 requires a known solution g")

        def fn(x, y, t):
            return phi(x, y, t) - g(x, y, t) * eps

        return fn
    raise ValueError(f"index must be 1..6, got {index}")


def rotation_derived_solution(g, M):
    """y g_x - x g_y: a new solution whenever the potential is of the radial
    quadratic type c (x^2 + y^2) (including c = 0)."""
    # radial-type check: least squares against c (x^2+y^2) on a ring
    pts = default_sampling(n=24, seed=3)
    rows, rhs = [], []
    for (x, y, _) in pts:
        try:
            rows.append(x * x + y * y)
            rhs.append(M(x, y))
        except SKIPPED_ERRORS as exc:
            raise SamplingError(str(exc)) from exc
    rows = np.asarray(rows)
    rhs = np.asarray(rhs)
    c = float(rows @ rhs / (rows @ rows))
    resid = float(np.max(np.abs(c * rows - rhs)))
    if resid > 1e-9 * max(1.0, float(np.max(np.abs(rhs)))):
        raise NotRadialPotential(
            "rotation-derived solutions need M of the type c*(x^2+y^2); "
            f"best fit deviates by {resid:.2e}"
        )

    def fn(x, y, t):
        gx, gy = hd.derivative_pair(g, (x, y, t), 0, 1)
        return y * gx - x * gy

    return fn


# ---------------------------------------------------------------------------
# the commutation table (derived form; the printed deviations noted at their cells)
# ---------------------------------------------------------------------------


def expected_commutator(i, j, phi_i=None, phi_j=None, psi=None):
    """The verified bracket [v_i, v_j] for the generator family above.

    phi_i / phi_j are time functions for rows/columns 2..5; psi is the field
    argument of v6.
    """
    key = (i, j)
    Z = VectorField(_zero3, _zero3, _zero3, _zero3, _zero3, name="0")

    def chi(a, b, half=False):
        # a b' - b' scaling helpers on time functions
        ad, bd = a.d(), b.d()
        if half:
            return lambda t: a(t) * bd(t) - 0.5 * ad(t) * b(t)
        return lambda t: a(t) * bd(t) - ad(t) * b(t)

    def fn_time(fn):
        class _Wrap:
            def __init__(self, f):
                self.f = f

            def __call__(self, t):
                return self.f(t)

            def d(self):
                return _Wrap(lambda t, f=self.f: hd.derivative(lambda s: f(s), (t,), 0))

        return _Wrap(fn)

    if key in ((1, 1), (1, 2)):
        return Z
    if key == (1, 3):
        return v4(phi_j)
    if key == (1, 4):
        vv = v3(phi_j)
        return VectorField(
            lambda x, y, t: -vv.T(x, y, t),
            lambda x, y, t: -vv.X(x, y, t),
            lambda x, y, t: -vv.Y(x, y, t),
            lambda x, y, t: -vv.A(x, y, t),
            lambda x, y, t: -vv.B(x, y, t),
            name="-v3",
        )
    if key == (1, 5):
        return Z
    if key == (1, 6):
        def fn(x, y, t):
            px, py = hd.derivative_pair(psi, (x, y, t), 0, 1)
            return y * px - x * py

        return v6(fn)
    if key == (2, 2):
        return v2(fn_time(chi(phi_i, phi_j)))
    if key == (2, 3):
        return v3(fn_time(chi(phi_i, phi_j, half=True)))
    if key == (2, 4):
        return v4(fn_time(chi(phi_i, phi_j, half=True)))
    if key == (2, 5):
        pid = phi_i

        def f(t):
            return pid(t) * phi_j.d()(t)

        return v5(fn_time(f))
    if key == (2, 6):  # the printed entry omits the (1/4) phi'' (x^2+y^2) psi term
        phid = phi_i.d()
        phidd = phi_i.d().d()

        def fn(x, y, t):
            p_t, p_xy = hd.lane_pass(psi, (x, y, t), ((2, None), (0, 1)))
            return (
                phi_i(t) * p_t.b
                + 0.5 * phid(t) * (x * p_xy.b + y * p_xy.c)
                + 0.25 * phidd(t) * (x * x + y * y) * psi(x, y, t)
            )

        return v6(fn)
    if key in ((3, 3), (4, 4)):
        return v5(fn_time(chi(phi_i, phi_j)))
    if key in ((3, 4), (3, 5), (4, 5), (5, 5), (6, 6)):
        return Z
    if key == (3, 6):  # the printed entry carries the opposite relative sign pattern
        phid = phi_i.d()

        def fn(x, y, t):
            px = hd.derivative(psi, (x, y, t), 0)
            return phi_i(t) * px + phid(t) * x * psi(x, y, t)

        return v6(fn)
    if key == (4, 6):  # the printed entry carries the opposite relative sign pattern
        phid = phi_i.d()

        def fn(x, y, t):
            py = hd.derivative(psi, (x, y, t), 1)
            return phi_i(t) * py + phid(t) * y * psi(x, y, t)

        return v6(fn)
    if key == (5, 6):
        def fn(x, y, t):
            return phi_i(t) * psi(x, y, t)

        return v6(fn)
    raise KeyError(f"no table entry for {key}")


def vector_fields_equal(v, w, points=None, tol=1e-7):
    """Max coefficient deviation between two vector fields on sample points."""
    points = points or default_sampling(n=20, seed=11)
    devs = [
        hd.value(a) - hd.value(b)
        for (x, y, t) in points
        for a, b in zip(v.coefficients(x, y, t), w.coefficients(x, y, t))
    ]
    return float(np.max(np.abs(devs), initial=0.0))  # NaN-propagating
