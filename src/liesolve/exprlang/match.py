"""Classification of a potential against the reduction-case templates.

Eleven template families, in two groups, each described once in a family
table that both classifiers read:

* finite-parameter families (``_LINEAR_FAMILIES``), fitted by linear least
  squares on basis columns;
* free-function families (an arbitrary one-argument factor): 1.3 by its
  slope relation, the rest (``_SLICE_FAMILIES``) by per-slice regression of
  the finite parameters, after which the factor is recovered by pointwise
  division on the slice grid.

Structural AST unification runs first and recovers exact bindings when the
input is literally a template instance; the sampled path is the fallback and
the only route for plain callables.  The sampled path evaluates the potential
once per point of the polar grid and once per point of the x-slice grid, and
every fitter reads those values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .. import hyperdual as hd
from ..errors import AmbiguousMatch, EvalDomainError, LiesolveError, UnboundSymbol
from . import ast as A
from .parser import parse

MATCH_TOL = 1e-9


@dataclass
class CaseMatch:
    case_id: str
    bindings: dict
    fit_residual: float
    opaque_samples: tuple = ()  # ((arg, value), ...) for free-function families

    def __bool__(self):
        return True


@dataclass
class NoMatchResult:
    residuals: dict = field(default_factory=dict)
    case_id = None

    def __bool__(self):
        return False


# specificity-descending order: constrained finite families first, then the
# free-function families with more structure, the bare radial+angle one last
CASE_ORDER = (
    "1.4b",
    "1.1b",
    "1.4a",
    "1.1a",
    "1.5a",
    "1.2b",
    "1.2a",
    "1.3",
    "1.8b",
    "1.8a",
    "1.6",
)

TEMPLATE_SOURCES = {
    "1.1a": "C0/x^2 + b*y + c0",
    "1.1b": "C0/x^2 + c*r_polar^2 + b*y + c0",
    "1.2a": "C(theta)/r_polar^2 + c0",
    "1.2b": "C(theta)/r_polar^2 + c*r_polar^2 + c0",
    "1.3": "C(lam*ln(r_polar) + theta)/r_polar^2 + c0",
    "1.4a": "C0/r_polar^2 + a*x + b*y + c0",
    "1.4b": "C0/r_polar^2 + c*r_polar^2 + a*x + b*y + c0",
    "1.5a": "a*x + b*y + c0",
    "1.6": "C(r_polar) + d*theta",
    "1.8a": "C(x) + b*y",
    "1.8b": "C(x) + c*y^2 + b*y",
}


@functools.cache
def template_expr(case_id):
    # parsed once: the tree is immutable, so every caller can share it
    return parse(TEMPLATE_SOURCES[case_id])


def instantiate(case_id, params, opaque=None):
    """Callable (x, y) -> M for a template with bound parameters."""
    return _as_xy_callable(template_expr(case_id), params, opaque)


# ---------------------------------------------------------------------------
# family table
# ---------------------------------------------------------------------------

# basis columns of the finite-parameter families; the structural pass uses the
# same keys for the term shapes it recognizes
_BASIS = {
    "one": lambda x, y: 1.0,
    "x": lambda x, y: x,
    "y": lambda x, y: y,
    "y2": lambda x, y: y * y,
    "r2": lambda x, y: x * x + y * y,
    "inv_x2": lambda x, y: 1.0 / (x * x),
    "inv_r2": lambda x, y: 1.0 / (x * x + y * y),
}

_LINEAR_FAMILIES = {
    "1.1a": (("inv_x2", "C0"), ("y", "b"), ("one", "c0")),
    "1.1b": (("inv_x2", "C0"), ("r2", "c"), ("y", "b"), ("one", "c0")),
    "1.4a": (("inv_r2", "C0"), ("x", "a"), ("y", "b"), ("one", "c0")),
    "1.4b": (("inv_r2", "C0"), ("r2", "c"), ("x", "a"), ("y", "b"), ("one", "c0")),
    "1.5a": (("x", "a"), ("y", "b"), ("one", "c0")),
}

_REQUIRED_NONZERO = {
    "1.1a": ("C0",),
    "1.1b": ("C0", "c"),
    "1.4a": ("C0",),
    "1.4b": ("c",),
    "1.5a": (),
    "1.2b": ("c",),
    "1.8a": ("b",),
    "1.8b": ("c",),
}


# a log-spaced polar grid for every family but 1.8a/1.8b, which read an
# x-slice grid
_RADII = np.exp(np.linspace(math.log(0.4), math.log(2.8), 8))
_THETAS = np.linspace(0.07, 2 * math.pi + 0.07, 25, endpoint=False)
_XS = np.concatenate([-np.linspace(0.4, 2.8, 6)[::-1], np.linspace(0.4, 2.8, 6)])
_YS = np.linspace(-2.8, 2.8, 9)
_GAP = 0.1  # polar points with |x^2 - y^2| < gap stay out of the fits
_BIG = 1e8  # a value at least this large counts as not evaluable


def _polar_point(r, th):
    return r * math.cos(th), r * math.sin(th)


# slice coordinate -> (slice points, inner points, regression abscissa of the
# inner points, (slice point, inner point) -> (x, y))
_SLICINGS = {
    "theta": (_THETAS, _RADII, _RADII, lambda th, r: _polar_point(r, th)),
    "r": (_RADII, _THETAS, np.arctan2(np.sin(_THETAS), np.cos(_THETAS)), _polar_point),
    "x": (_XS, _YS, _YS, lambda x, y: (x, y)),
}


@dataclass(frozen=True)
class _SliceFamily:
    """A free-function family fitted slice by slice.

    Each slice (one angle, radius or x) is regressed on ``columns`` of its
    abscissa; a finite parameter is the median of its column's coefficient
    over the slices.  The free factor at a slice is the mean of ``remainder``
    over the slice's points, and ``predict`` rebuilds the potential from it.
    """

    by: str  # the coordinate a slice holds fixed, a key of _SLICINGS
    columns: object  # abscissa -> design columns
    binds: tuple  # (parameter, design column), in binding order
    min_slices: int  # regressed slices a fit needs
    min_points: int  # fit points a slice needs to enter the residual
    remainder: object  # (value, abscissa, **params) -> free-factor term
    predict: object  # (free factor, abscissa, **params) -> potential


# C(theta) = r^2 (M - c r^2 - c0) along a ray, and C(x) = M - c y^2 - b y
# along an x-slice; 1.2a and 1.8a are the c = 0 members
_ANGULAR = (
    lambda v, r, c0, c=0.0: r * r * (v - c * r * r - c0),
    lambda C, r, c0, c=0.0: C / r**2 + c * r**2 + c0,
)
_X_SLICE = (
    lambda v, y, b, c=0.0: v - c * y * y - b * y,
    lambda C, y, b, c=0.0: C + c * y**2 + b * y,
)

_SLICE_FAMILIES = {
    "1.2a": _SliceFamily(
        "theta", lambda r: (1.0 / r**2, np.ones_like(r)), (("c0", 1),), 6, 2, *_ANGULAR
    ),
    "1.2b": _SliceFamily(
        "theta",
        lambda r: (1.0 / r**2, r**2, np.ones_like(r)),
        (("c0", 2), ("c", 1)),
        6,
        2,
        *_ANGULAR,
    ),
    # the linear angle term lives on the atan2 branch (-pi, pi], so the 1.6
    # abscissa is the wrapped angle, while the points stay on the grid angles
    "1.6": _SliceFamily(
        "r",
        lambda th: (th, np.ones_like(th)),
        (("d", 0),),
        4,
        2,
        lambda v, th, d: v - d * th,
        lambda C, th, d: C + d * th,
    ),
    "1.8a": _SliceFamily("x", lambda y: (y, np.ones_like(y)), (("b", 0),), 5, 1, *_X_SLICE),
    "1.8b": _SliceFamily(
        "x", lambda y: (y * y, y, np.ones_like(y)), (("b", 1), ("c", 0)), 5, 1, *_X_SLICE
    ),
}


# ---------------------------------------------------------------------------
# structural path
# ---------------------------------------------------------------------------


def _flatten_sum(e):
    """Expression -> list of (sign, term)."""
    out = []

    def walk(n, sign):
        if isinstance(n, A.Bin) and n.op == "+":
            walk(n.left, sign)
            walk(n.right, sign)
        elif isinstance(n, A.Bin) and n.op == "-":
            walk(n.left, sign)
            walk(n.right, -sign)
        elif isinstance(n, A.Neg):
            walk(n.operand, -sign)
        else:
            out.append((sign, n))

    walk(e, 1)
    return out


def _const_value(e, params):
    """Evaluate a variable-free subtree, or return None."""
    try:
        return A.evaluate(e, {}, params, {})
    except (UnboundSymbol, EvalDomainError):
        return None


def _is_var_pow(e, name, p):
    return (
        isinstance(e, A.Bin)
        and e.op == "^"
        and isinstance(e.left, A.Var)
        and e.left.name == name
        and isinstance(e.right, A.Num)
        and e.right.value == p
    )


def _is_r2(e):
    # r_polar^2 or (x^2 + y^2)
    if _is_var_pow(e, "r_polar", 2):
        return True
    if isinstance(e, A.Bin) and e.op == "+":
        l, r = e.left, e.right
        return (_is_var_pow(l, "x", 2) and _is_var_pow(r, "y", 2)) or (
            _is_var_pow(l, "y", 2) and _is_var_pow(r, "x", 2)
        )
    return False


def _classify_term(term, params):
    """Return (key, payload) or None.

    Keys: one, x, y, theta, y2, r2, inv_x2, inv_r2, opq_over_r2, opq.
    Payload is the numeric coefficient, except for opaque keys where it is
    (coef, fn_name, arg_expr).
    """
    c = _const_value(term, params)
    if c is not None:
        return ("one", c)

    def split_coef(n):
        # peel numeric/constant multipliers and divisors off a product
        coef = 1.0
        core = n
        changed = True
        while changed:
            changed = False
            if isinstance(core, A.Neg):
                coef, core, changed = -coef, core.operand, True
            elif isinstance(core, A.Bin) and core.op == "*":
                cl = _const_value(core.left, params)
                if cl is not None:
                    coef, core, changed = coef * cl, core.right, True
                else:
                    cr = _const_value(core.right, params)
                    if cr is not None:
                        coef, core, changed = coef * cr, core.left, True
            elif isinstance(core, A.Bin) and core.op == "/":
                cr = _const_value(core.right, params)
                if cr is not None and cr != 0:
                    coef, core, changed = coef / cr, core.left, True
        return coef, core

    coef, core = split_coef(term)

    if isinstance(core, A.Var):
        if core.name in ("x", "y", "theta"):
            return (core.name, coef)
        return None
    if _is_var_pow(core, "y", 2):
        return ("y2", coef)
    if _is_r2(core):
        return ("r2", coef)
    if isinstance(core, A.Bin) and core.op == "/":
        num_c = _const_value(core.left, params)
        den = core.right
        if num_c is not None:
            if _is_var_pow(den, "x", 2):
                return ("inv_x2", coef * num_c)
            if _is_r2(den):
                return ("inv_r2", coef * num_c)
        if isinstance(core.left, A.Call) and core.left.opaque and core.left.prime == 0:
            if _is_r2(den):
                return ("opq_over_r2", (coef, core.left.fn, core.left.arg))
    if isinstance(core, A.Call) and core.opaque and core.prime == 0:
        return ("opq", (coef, core.fn, core.arg))
    return None


def _structural_match(expr, params, opaque):
    terms = _flatten_sum(expr)
    classified = []
    for sign, t in terms:
        k = _classify_term(t, params)
        if k is None:
            return None
        key, payload = k
        if key in ("opq_over_r2", "opq"):
            coef, fn, arg = payload
            classified.append((key, (sign * coef, fn, arg)))
        else:
            classified.append((key, sign * payload))

    buckets = {}
    for key, payload in classified:
        buckets.setdefault(key, []).append(payload)

    def scalar(key):
        vals = buckets.get(key, [])
        return sum(vals) if vals else 0.0

    # finite-parameter families: every term is one of the family's columns
    # (a vanishing required parameter is left to _excluded)
    results = [
        CaseMatch(cid, {name: scalar(key) for key, name in family}, 0.0)
        for cid, family in _LINEAR_FAMILIES.items()
        if all(key in dict(family) for key in buckets)
    ]

    # free-function families (need exactly one opaque term)
    opq_r2 = buckets.get("opq_over_r2", [])
    opq_bare = buckets.get("opq", [])
    if len(opq_r2) == 1 and not opq_bare:
        coef, fn, arg = opq_r2[0]
        binding_c = _bound_opaque(fn, coef, opaque)
        extra = [k for k in buckets if k not in ("opq_over_r2", "one", "r2")]
        if not extra and binding_c is not None:
            if isinstance(arg, A.Var) and arg.name == "theta":
                c = scalar("r2")
                if c != 0.0:
                    results.append(
                        CaseMatch("1.2b", {"C": binding_c, "c": c, "c0": scalar("one")}, 0.0)
                    )
                else:
                    results.append(CaseMatch("1.2a", {"C": binding_c, "c0": scalar("one")}, 0.0))
            else:
                lam = _log_spiral_arg(arg, params)
                if lam is not None and lam != 0.0 and scalar("r2") == 0.0:
                    results.append(
                        CaseMatch(
                            "1.3", {"C": binding_c, "lam": lam, "c0": scalar("one")}, 0.0
                        )
                    )
    if len(opq_bare) == 1 and not opq_r2:
        coef, fn, arg = opq_bare[0]
        binding_c = _bound_opaque(fn, coef, opaque)
        extra = [k for k in buckets if k not in ("opq", "theta", "y", "y2")]
        if not extra and binding_c is not None:
            if isinstance(arg, A.Var) and arg.name == "r_polar":
                if not any(k in buckets for k in ("y", "y2")):
                    results.append(
                        CaseMatch("1.6", {"C": binding_c, "d": scalar("theta")}, 0.0)
                    )
            elif isinstance(arg, A.Var) and arg.name == "x" and "theta" not in buckets:
                if "y2" in buckets and scalar("y2") != 0.0:
                    results.append(
                        CaseMatch(
                            "1.8b",
                            {"C": binding_c, "c": scalar("y2"), "b": scalar("y")},
                            0.0,
                        )
                    )
                else:
                    results.append(CaseMatch("1.8a", {"C": binding_c, "b": scalar("y")}, 0.0))
    return results or None


def _bound_opaque(fn, coef, opaque):
    if opaque is None or fn not in opaque:
        return None
    wrapper = A._Opaque(fn, opaque[fn])
    if coef == 1.0:
        return wrapper.fns[0] if len(wrapper.fns) == 1 else wrapper.fns
    base = wrapper.fns[0]
    return lambda s, _b=base, _c=coef: _c * _b(s)


def _log_spiral_arg(arg, params):
    """Recognize lam*ln(r_polar) + theta and return lam."""
    if not (isinstance(arg, A.Bin) and arg.op == "+"):
        return None
    for l, r in ((arg.left, arg.right), (arg.right, arg.left)):
        if isinstance(r, A.Var) and r.name == "theta":
            if isinstance(l, A.Call) and l.fn == "ln" and isinstance(l.arg, A.Var) and l.arg.name == "r_polar":
                return 1.0
            if isinstance(l, A.Bin) and l.op == "*":
                c = _const_value(l.left, params)
                inner = l.right
                if c is None:
                    c = _const_value(l.right, params)
                    inner = l.left
                if (
                    c is not None
                    and isinstance(inner, A.Call)
                    and inner.fn == "ln"
                    and isinstance(inner.arg, A.Var)
                    and inner.arg.name == "r_polar"
                ):
                    return c
    return None


# free-factor arguments at which a structural match is sampled for _excluded
_RESAMPLE_AT = {
    "1.2a": _THETAS,
    "1.2b": _THETAS,
    "1.3": np.linspace(-1.5, 7.0, 12),
    "1.6": _RADII,
    "1.8a": np.linspace(0.4, 2.8, 8),
    "1.8b": np.linspace(0.4, 2.8, 8),
}


def _resample_structural(match):
    C = match.bindings["C"]
    if isinstance(C, tuple):  # (C, C', ...): sample the factor itself
        C = C[0]
    return tuple((float(s), float(C(s))) for s in _RESAMPLE_AT[match.case_id])


# ---------------------------------------------------------------------------
# sampled path
# ---------------------------------------------------------------------------


def _safe_eval(f, x, y):
    try:
        v = f(x, y)
    except (EvalDomainError, ZeroDivisionError, OverflowError, ValueError):
        return None
    if math.isfinite(v) and abs(v) < _BIG:
        return v
    return None


@functools.lru_cache(maxsize=None)
def _grid(by):
    """The grid of ``_SLICINGS[by]`` as x and y lanes, and its fit points."""
    outer, inner, _, point = _SLICINGS[by]
    xs, ys = np.array([point(s, t) for s in outer for t in inner]).T
    return xs, ys, (by == "x") | (np.abs(xs * xs - ys * ys) >= _GAP)


def _eval_grid(by, f):
    """(raw, fit): f on the grid of ``_SLICINGS[by]``, one row per slice and
    NaN where f is not evaluable; ``fit`` also drops the points near the
    diagonals.  f runs once on float lanes; where that raises or gives other
    than floats, it reruns point by point through :func:`_safe_eval`, which
    gives every point its scalar skip or error."""
    xs, ys, fits = _grid(by)
    try:
        with np.errstate(over="ignore", **hd.LANE_ERRSTATE):
            vals = np.broadcast_to(np.asarray(f(*hd.float_lanes([xs, ys]))), xs.shape)
        if vals.dtype != np.float64:
            raise TypeError(f"lane values of dtype {vals.dtype}")
        vals = np.where(np.isfinite(vals) & (np.abs(vals) < _BIG), vals, np.nan)
    except (TypeError, LiesolveError, ArithmeticError, ValueError):
        vals = np.array([np.nan if v is None else v for v in map(_safe_eval, [f] * xs.size,
                                                                 xs.tolist(), ys.tolist())])
    raw = vals.reshape(len(_SLICINGS[by][0]), -1)
    return raw, np.where(fits.reshape(raw.shape), raw, np.nan)


def _fit_linear_family(fit, cid):
    """Fit M ~ sum(coef * column(x, y)) over the polar grid; the residual is
    relative to the RMS of M."""
    family = _LINEAR_FAMILIES[cid]
    columns = [_BASIS[k] for k, _ in family]
    rows, rhs = [], []
    for i, r in enumerate(_RADII):
        for j, th in enumerate(_THETAS):
            v = fit[i, j]
            if not math.isfinite(v):
                continue
            x, y = _polar_point(r, th)
            row = [col(x, y) for col in columns]
            if all(math.isfinite(c) and abs(c) < _BIG for c in row):
                rows.append(row)
                rhs.append(v)
    if len(rows) < 2 * len(columns):
        return None
    Amat = np.asarray(rows)
    bvec = np.asarray(rhs)
    coefs, *_ = np.linalg.lstsq(Amat, bvec, rcond=None)
    resid = Amat @ coefs - bvec
    scale = max(float(np.sqrt(np.mean(bvec**2))), 1e-30)
    bindings = {name: float(c) for (_, name), c in zip(family, coefs)}
    return CaseMatch(cid, bindings, float(np.sqrt(np.mean(resid**2))) / scale)


def _fit_slices(f, grid, cid):
    """The free-function families of ``_SLICE_FAMILIES`` on their grid."""
    fam = _SLICE_FAMILIES[cid]
    outer, inner, abscissa, point = _SLICINGS[fam.by]
    raw, fit = grid
    coefs = []
    for k in range(len(outer)):
        mask = np.isfinite(fit[k])
        if mask.sum() < 4:  # points a slice needs to enter the regression
            continue
        Amat = np.stack(fam.columns(abscissa[mask]), axis=1)
        coefs.append(np.linalg.lstsq(Amat, fit[k, mask], rcond=None)[0])
    if len(coefs) < fam.min_slices:
        return None
    p = {name: float(np.median([c[col] for c in coefs])) for name, col in fam.binds}

    def C(s):
        acc = []
        for t, a in zip(inner, abscissa):
            v = _safe_eval(f, *point(s, t))
            if v is not None:
                acc.append(fam.remainder(v, a, **p))
        if not acc:
            raise EvalDomainError(f"free factor of case {cid} not evaluable at {s}")
        return float(np.mean(acc))

    samples, resid_num, resid_den, n_pts = [], 0.0, 0.0, 0
    for k, s in enumerate(outer):
        mask = np.isfinite(fit[k])
        if mask.sum() < fam.min_points:
            continue
        ok = np.isfinite(raw[k])  # C(s) on the values already at hand
        C_s = float(np.mean(fam.remainder(raw[k, ok], abscissa[ok], **p)))
        samples.append((float(s), C_s))
        v = fit[k, mask]
        pred = fam.predict(C_s, abscissa[mask], **p)
        resid_num += float(np.sum((pred - v) ** 2))
        resid_den += float(np.sum(v**2))
        n_pts += int(mask.sum())
    resid = math.sqrt(resid_num / max(1, n_pts)) / max(
        math.sqrt(resid_den / max(1, n_pts)), 1e-30
    )
    return CaseMatch(cid, {"C": C, **p}, resid, opaque_samples=tuple(samples))


def _fit_log_spiral(f, fit):
    """Case 1.3: the product M r^2 must be constant along lam ln(r) + theta =
    const up to the 2 c0 r^2 drift, which makes the slope pair linear:

        d(M r^2)/d ln r  =  lam d(M r^2)/d theta + 2 c0 r^2.

    Derivatives are taken on the continuous callable with the standard
    stencils, so the recovery is exact for exact template data.
    """
    from .. import numdiff as nd

    def g(lr, th):
        r = math.exp(lr)
        v = f(r * math.cos(th), r * math.sin(th))
        return v * r * r

    rows, rhs = [], []
    for i in range(0, len(_RADII), 2):
        for j in range(0, len(_THETAS), 3):
            if not math.isfinite(fit[i, j]):
                continue
            lr, th = math.log(_RADII[i]), _THETAS[j]
            try:
                d_lnr = nd.partial1(g, (lr, th), 0, 1e-5)
                d_th = nd.partial1(g, (lr, th), 1, 1e-5)
            except (EvalDomainError, ZeroDivisionError, OverflowError, ValueError):
                continue
            if not (math.isfinite(d_lnr) and math.isfinite(d_th)):
                continue
            rows.append([d_th, 2.0 * _RADII[i] ** 2])
            rhs.append(d_lnr)
    if len(rows) < 8:
        return None
    (lam, c0), *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    lam, c0 = float(lam), float(c0)
    if abs(lam) < 1e-10:
        return None

    def C(s):
        # the angular coordinate is 2 pi periodic, hence so is the profile;
        # evaluate on the unit circle where s = theta exactly
        v = _safe_eval(f, math.cos(s), math.sin(s))
        if v is None:
            raise EvalDomainError(f"spiral factor not evaluable at s={s}")
        return v - c0

    samples, resid_num, resid_den, n_pts = [], 0.0, 0.0, 0
    for i, r in enumerate(_RADII):
        for j, th in enumerate(_THETAS):
            if not math.isfinite(fit[i, j]):
                continue
            s = lam * math.log(r) + th
            try:
                C_s = C(s)
            except EvalDomainError:
                continue
            pred = C_s / r**2 + c0
            resid_num += (pred - fit[i, j]) ** 2
            resid_den += fit[i, j] ** 2
            n_pts += 1
            if i == 0:
                samples.append((float(s), float(C_s)))
    if n_pts < 20:
        return None
    resid = math.sqrt(resid_num / n_pts) / max(math.sqrt(resid_den / n_pts), 1e-30)
    return CaseMatch(
        "1.3",
        {"C": C, "lam": lam, "c0": c0},
        resid,
        opaque_samples=tuple(sorted(samples)),
    )


# ---------------------------------------------------------------------------
# exclusion rules (the constraints that keep the families disjoint)
# ---------------------------------------------------------------------------


def _samples_of(match):
    return np.asarray([v for _, v in match.opaque_samples])


def _args_of(match):
    return np.asarray([s for s, _ in match.opaque_samples])


def _is_constant(vals, tol=1e-8):
    if len(vals) == 0:
        return True
    scale = max(float(np.max(np.abs(vals))), 1.0)
    return float(np.std(vals)) <= tol * scale


def _basis_fit(args, vals, columns, tol=1e-8):
    """Least-squares coefficients of vals on the columns, or None when the
    RMS residual exceeds tol times the RMS of vals (at least 1)."""
    Amat = np.stack([c(args) for c in columns], axis=1)
    coefs, *_ = np.linalg.lstsq(Amat, vals, rcond=None)
    resid = Amat @ coefs - vals
    scale = max(float(np.sqrt(np.mean(vals**2))), 1.0)
    return coefs if float(np.sqrt(np.mean(resid**2))) <= tol * scale else None


def _fits_basis(args, vals, columns, tol=1e-8):
    return _basis_fit(args, vals, columns, tol) is not None


_QUADRATIC_FORM = (
    lambda s: np.cos(s) ** 2,
    lambda s: np.cos(s) * np.sin(s),
    lambda s: np.sin(s) ** 2,
)


def _is_sinusoid_square(th, q, tol=1e-8):
    """q = (c1 cos + c2 sin)^2 on the samples: q fits the quadratic form
    a cos^2 + b cos sin + c sin^2, and the form has rank one (b^2 = 4 a c)."""
    coefs = _basis_fit(th, q, _QUADRATIC_FORM, tol)
    if coefs is None:
        return False
    a, b, c = (float(v) for v in coefs)
    return abs(b * b - 4.0 * a * c) <= tol * (a + c) ** 2


def _excluded(match, fitted=False):
    """Exclusion constraints from the classification; returns a reason or None.

    ``fitted``: the bindings come from a least-squares fit to samples, so a
    required parameter is weighed against the largest binding rather than
    against 1 (a structural binding is exact).
    """
    cid = match.case_id
    if cid in ("1.2a", "1.2b", "1.3"):
        vals = _samples_of(match)
        if len(vals) and _is_constant(vals):
            return "free angular factor is constant"
        if cid in ("1.2a", "1.2b") and len(vals) and np.all(vals > 0):
            # the (c1 cos + c2 sin)^(-2) family belongs elsewhere; 1/C is then
            # the square of a sinusoid, which may change sign on the samples
            if _is_sinusoid_square(_args_of(match), 1.0 / vals):
                return "angular factor is of the inverse-square sinusoid family"
    if cid == "1.3" and abs(match.bindings.get("lam", 0.0)) < 1e-10:
        return "spiral slope vanishes"
    if cid == "1.6":
        vals = _samples_of(match)
        r = _args_of(match)
        if abs(match.bindings.get("d", 0.0)) < 1e-10 and len(vals):
            if _fits_basis(
                r, vals, [lambda r: r**-2.0, lambda r: r**2.0, lambda r: np.ones_like(r)]
            ):
                return "radial factor belongs to the inverse-square/quadratic family"
    if cid in ("1.8a", "1.8b"):
        vals = _samples_of(match)
        xs = _args_of(match)
        if len(vals) and np.all(np.abs(xs) > 1e-9):
            # the span covering every finite-parameter family overlap
            # (quadratic, linear, inverse-square pieces live elsewhere)
            if _fits_basis(
                xs,
                vals,
                [
                    lambda x: x**-2.0,
                    lambda x: x**2,
                    lambda x: x,
                    lambda x: np.ones_like(x),
                ],
            ):
                return "C(x) belongs to a finite-parameter family"
    scale = 1.0
    if fitted:
        numbers = [v for v in match.bindings.values() if isinstance(v, float) and math.isfinite(v)]
        scale = max([scale] + [abs(v) for v in numbers])
    for name in _REQUIRED_NONZERO.get(cid, ()):
        if abs(match.bindings.get(name, 0.0)) < 1e-10 * scale:
            return f"required parameter {name} vanishes"
    return None


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _as_xy_callable(m, params=None, opaque=None):
    if isinstance(m, A.Expr):
        return A.compile_expr(m, ("x", "y"), params, opaque)
    if callable(m):  # a field on (x, y)
        return m
    raise TypeError(f"cannot classify object of type {type(m)!r}")


def _single(matches):
    """The one match, or None; several matches raise AmbiguousMatch."""
    if len(matches) > 1:
        raise AmbiguousMatch(sorted(matches, key=lambda s: CASE_ORDER.index(s.case_id)))
    return matches[0] if matches else None


def match_case(m, params=None, opaque=None):
    """Classify a potential.

    Returns a :class:`CaseMatch` (or :class:`NoMatchResult`); raises
    :class:`AmbiguousMatch` when several templates fit within tolerance, with
    the matches sorted most-specific-first on the exception.
    """
    if isinstance(m, A.Expr):
        structural = _structural_match(m, params or {}, opaque)
        if structural:
            survivors = [s for s in structural if _excluded(s) is None]
            # attach samples for opaque families so the exclusions can use them
            for s in survivors:
                if "C" in s.bindings:
                    s.opaque_samples = _resample_structural(s)
            found = _single([s for s in survivors if _excluded(s) is None])
            if found:
                return found

    f = _as_xy_callable(m, params, opaque)
    grids = {by: _eval_grid(by, f) for by in ("r", "x")}
    grids["theta"] = tuple(v.T for v in grids["r"])

    candidates = []
    for cid in CASE_ORDER:
        try:
            if cid in _LINEAR_FAMILIES:
                cand = _fit_linear_family(grids["r"][1], cid)
            elif cid == "1.3":
                cand = _fit_log_spiral(f, grids["r"][1])
            else:
                cand = _fit_slices(f, grids[_SLICE_FAMILIES[cid].by], cid)
        except (np.linalg.LinAlgError, ValueError):
            cand = None
        if cand is None:
            continue
        if cand.fit_residual <= MATCH_TOL and _excluded(cand, fitted=True) is None:
            candidates.append(cand)
    return _single(candidates) or NoMatchResult()
