"""Special-function kernel: gamma, confluent/Gauss hypergeometric, Whittaker,
Bessel.

Every closed-form catalog solution is assembled from these four entry points.
Conventions:

* ``M_{kappa,mu}(z) = exp(-z/2) z^(mu+1/2) 1F1(mu-kappa+1/2, 1+2mu, z)`` and
  ``W`` uses the Tricomi function in the same composition.
* Confluent series are summed with compensated (Kahan) accumulation and an
  iteration cap of 10 000 terms.  When floating-point cancellation would eat
  the requested accuracy (large imaginary argument, Tricomi connection
  formula), the value is recomputed in extended precision; when the series
  route is hopeless for Tricomi (large ``|z|``) the asymptotic expansion is
  used instead.
* ``est_error`` is a running bound assembled from the first neglected term
  plus a cancellation-scaled roundoff term.  It is a heuristic, not a proof.
* Extended precision is ``mpmath.hyp1f1``, for 1F1 and both terms of the
  Tricomi connection formula, at the digits :func:`_raise_digits` picks from
  the size of the cancelling terms and checks against the result.  mpmath
  raises its own working precision while its terms cancel; its failures
  raise :class:`DivergenceError`.
* One evaluation per distinct argument and order, per point or per lane
  set: the ``(f, f', f'')`` jet builders derive the derivatives from
  parameter-shifted orders, and each Whittaker jet keeps the prefactor and
  each shifted order for its last ``MEMO_POINTS`` distinct points or lane
  sets in a :class:`PointMemo`, so a full jet costs three inner
  evaluations and a point or lane set seen again costs none.  The memo is
  keyed on the exact bits of a float or complex argument, and a lane set on
  those of its distinct lanes, so a stacked ``lane_pass`` and a float pass
  at one point set share each order.  A ``Dual2`` argument raises
  :class:`~liesolve.errors.DomainError` rather than losing its derivative
  parts.
* Lanes: the jets also take an array of float lanes or
  :class:`ComplexLanes` (see :mod:`liesolve.hyperdual`), and each lane is
  bitwise the call at its point.  A Whittaker jet evaluates each distinct
  lane of a lane set once.  The plain Kahan route of 1F1 sums all lanes at
  once (:func:`_hyp1f1_lanes`), in CPython's complex arithmetic, or in
  float64 arrays when the parameters and the lanes are real, testing
  convergence once per block of terms; a lane that leaves the plain route
  (Kummer reflection, terminating series, extended precision,
  ``z = 0``, outside the box) takes the scalar route alone, with its value
  or its error.  Tricomi U runs lane by lane.  Bessel jets map the
  ``scipy.special`` ufunc over the lanes.
* ``scipy.special`` (complex gamma, Bessel) and ``mpmath`` (extended
  precision) are imported on first use, so importing this module loads
  neither.

Supported box for 1F1/U/Whittaker: ``|a|,|b|,|kappa|,|mu| <= 30`` and
``|z| <= 200``; outside it a :class:`DivergenceError` is raised rather than
returning silently degraded values.  Complex arguments are supported for
1F1/U/Whittaker only; Gauss 2F1 and Bessel are real.

All operations are reentrant.  Each memo belongs to one jet (or, in
:mod:`liesolve.reductions.separated`, one ODE factor), holds at most
``MEMO_POINTS`` points or lane sets, and is cleared when full; nothing is
cached per process, and no state is shared between jets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DivergenceError, DomainError, PoleError
from .hyperdual import Dual2

_EPS = 2.2204460492503131e-16
_SERIES_CAP = 10_000
_KUMMER_BLOCK = 8  # terms of the lane series between its convergence tests
PARAM_BOX = 30.0
Z_BOX = 200.0


@dataclass(frozen=True)
class SpecialValue:
    value: complex
    converged: bool
    est_error: float

    @property
    def real(self):
        return self.value.real if isinstance(self.value, complex) else self.value


class HypKind(Enum):
    Kummer1F1 = "Kummer1F1"
    TricomiU = "TricomiU"
    Gauss2F1 = "Gauss2F1"


class WhittakerKind(Enum):
    M = "M"
    W = "W"


class BesselKind(Enum):
    J = "J"
    Y = "Y"
    I = "I"  # noqa: E741 - standard Bessel letter
    K = "K"


MEMO_POINTS = 16  # distinct points or lane sets one jet or factor remembers


def point_key(z):
    """Exact memo key of a point: the bits of a float or complex argument
    (numpy subclasses included, -0.0 apart from +0.0), the bytes of every
    lane of float lanes or :class:`ComplexLanes` (the two kinds apart), else
    the identity of the object, which stays sound while :class:`PointMemo`
    holds it."""
    if isinstance(z, float):
        return float.hex(z)
    if isinstance(z, complex):
        return float.hex(z.real), float.hex(z.imag)
    if isinstance(z, ComplexLanes):
        return tuple(part.tobytes() for part in _lane_parts(z))
    if isinstance(z, np.ndarray):
        return np.ascontiguousarray(z, float).tobytes()
    return id(z)


class PointMemo:
    """Values at the last few distinct points or lane sets of one jet or
    factor.

    Keys come from :func:`point_key`, so a hit returns what a fresh
    evaluation at that point returns.  A full memo is cleared rather than
    trimmed: there is no lock, and concurrent callers can miss an entry but
    never read another point's values.  Callers store only evaluations that
    returned.
    """

    __slots__ = ("_entries",)

    def __init__(self):
        self._entries = {}

    def get(self, key):
        hit = self._entries.get(key)
        return None if hit is None else hit[1]

    def put(self, key, z, value):
        if len(self._entries) >= MEMO_POINTS:
            self._entries.clear()
        self._entries[key] = (z, value)  # holding z keeps an identity key's id taken


def _is_nonpositive_int(x, tol=1e-12):
    if isinstance(x, complex):
        if abs(x.imag) > tol:
            return False
        x = x.real
    return x <= tol and abs(x - round(x)) <= tol


def _as_scalar(z):
    """Return a float when the imaginary part is negligible, else complex."""
    if isinstance(z, complex):
        if z.imag == 0.0 or abs(z.imag) <= 1e-14 * max(1.0, abs(z.real)):
            return z.real
    return z


# ---------------------------------------------------------------------------
# complex lanes
# ---------------------------------------------------------------------------


class ComplexLanes:
    """Complex lanes: real and imaginary parts as float64 arrays (or floats
    shared by every lane), under CPython's complex arithmetic, so each lane
    is bitwise the ``complex`` operation at its point.  Products follow
    ``_Py_c_prod`` and quotients ``_Py_c_quot`` (Smith's division); numpy's
    complex128 loops need not match them.  A real operand, a float or float
    lanes, acts as ``complex(x, 0.0)``, as CPython 3.11 promotes it."""

    __slots__ = ("real", "imag")
    __array_ufunc__ = None  # ndarray (op) ComplexLanes defers to ComplexLanes

    def __init__(self, real, imag):
        self.real = real
        self.imag = imag

    @staticmethod
    def of(v):
        if isinstance(v, ComplexLanes):
            return v
        if isinstance(v, complex):
            return ComplexLanes(v.real, v.imag)
        return ComplexLanes(v, 0.0)

    def __add__(self, o):
        o = ComplexLanes.of(o)
        return ComplexLanes(self.real + o.real, self.imag + o.imag)

    def __sub__(self, o):
        o = ComplexLanes.of(o)
        return ComplexLanes(self.real - o.real, self.imag - o.imag)

    def __mul__(self, o):
        return _cprod(self, ComplexLanes.of(o))

    def __rmul__(self, o):
        return _cprod(ComplexLanes.of(o), self)

    def __truediv__(self, o):
        return _cquot(self, ComplexLanes.of(o))

    def __rtruediv__(self, o):
        return _cquot(ComplexLanes.of(o), self)

    def __abs__(self):
        # CPython's abs(complex) is libm hypot, as np.hypot is
        return np.hypot(self.real, self.imag)


def _cprod(a, b):
    return ComplexLanes(a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real)


def _cquot(a, b):
    br, bi = b.real, b.imag
    if not isinstance(br, np.ndarray) and not isinstance(bi, np.ndarray):
        # one denominator for every lane: CPython's branch, taken once
        if abs(br) >= abs(bi):
            if br == 0.0:
                raise ZeroDivisionError("complex division by zero")
            ratio = bi / br
            denom = br + bi * ratio
            return ComplexLanes(
                (a.real + a.imag * ratio) / denom, (a.imag - a.real * ratio) / denom
            )
        if abs(bi) >= abs(br):
            ratio = br / bi
            denom = br * ratio + bi
            return ComplexLanes(
                (a.real * ratio + a.imag) / denom, (a.imag * ratio - a.real) / denom
            )
        return ComplexLanes(math.nan, math.nan)
    # a denominator per lane: both branches, each lane keeps CPython's
    abr, abi = np.abs(br), np.abs(bi)
    if np.any((abr == 0.0) & (abi == 0.0)):
        raise ZeroDivisionError("complex division by zero")
    with np.errstate(all="ignore"):
        r1 = bi / br
        d1 = br + bi * r1
        r2 = br / bi
        d2 = br * r2 + bi
        by_real = abr >= abi
        by_imag = ~by_real & (abi >= abr)
        parts = []
        for one, two in (
            ((a.real + a.imag * r1) / d1, (a.real * r2 + a.imag) / d2),
            ((a.imag - a.real * r1) / d1, (a.imag * r2 - a.real) / d2),
        ):
            parts.append(np.where(by_real, one, np.where(by_imag, two, math.nan)))
    return ComplexLanes(*parts)


def _is_lanes(z):
    return isinstance(z, (np.ndarray, ComplexLanes))


def _lane_parts(z):
    """(real parts, imaginary parts) of lanes as float64 arrays."""
    if isinstance(z, ComplexLanes):
        re, im = np.broadcast_arrays(np.asarray(z.real, float), np.asarray(z.imag, float))
        return np.ascontiguousarray(re), np.ascontiguousarray(im)
    re = np.ascontiguousarray(z, float)
    return re, np.zeros_like(re)


def _lane_scalars(z):
    """Each lane as the scalar its point would be: a float for real lanes,
    a complex for :class:`ComplexLanes`."""
    if isinstance(z, ComplexLanes):
        return list(map(complex, *_lane_parts(z)))
    return np.asarray(z, float).tolist()


def _distinct(z):
    """(the distinct lanes of ``z`` in the order they first occur, each
    lane's index among them, and the memo key of the distinct lanes), on the
    bits of each lane as :func:`point_key` keys a point.  The key differs
    from every :func:`point_key`, and lane sets of one set of points (a
    float pass, the repeated pattern blocks of a stacked pass) share it."""
    re, im = _lane_parts(z)
    if isinstance(z, ComplexLanes):
        bits = np.stack([re, im], axis=1).view(np.int64)
        _, first, inverse = np.unique(bits, axis=0, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(re.view(np.int64), return_index=True, return_inverse=True)
    order = np.argsort(first)
    first, inverse = first[order], np.argsort(order)[inverse.ravel()]
    pts = ComplexLanes(re[first], im[first]) if isinstance(z, ComplexLanes) else re[first]
    return pts, inverse, ("distinct", point_key(pts))


def _each_scalar(fn, z):
    """``fn`` at each lane of ``z`` alone (a scalar call, with its error), as
    :class:`ComplexLanes`."""
    vals = [complex(fn(v)) for v in _lane_scalars(z)]
    return ComplexLanes(
        np.array([v.real for v in vals], float), np.array([v.imag for v in vals], float)
    )


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------


def gamma(z):
    """Gamma function for real z away from the poles at 0, -1, -2, ..."""
    if isinstance(z, complex):
        raise DomainError("gamma() takes real arguments; internal complex use goes through _cgamma")
    if _is_nonpositive_int(z):
        raise PoleError(f"gamma pole at z={z}")
    try:
        v = math.gamma(z)
    except ValueError as exc:  # pragma: no cover - guarded above
        raise PoleError(str(exc)) from exc
    # math.gamma is correctly rounded to within a few ulp
    return SpecialValue(v, True, 8 * _EPS)


def _cgamma(z):
    """Complex gamma, used internally by connection formulas."""
    if _is_nonpositive_int(z):
        raise PoleError(f"gamma pole at z={z}")
    import scipy.special

    return complex(scipy.special.gamma(complex(z)))


# ---------------------------------------------------------------------------
# Kummer 1F1
# ---------------------------------------------------------------------------


def _kahan_series_1f1(a, b, z, tol, cap=_SERIES_CAP):
    """Raw Taylor series of 1F1 with compensated accumulation.

    Returns (sum, first_neglected_over_sum, max_term_over_sum, n_used)
    or None when the cap is hit before the term drops below tol*|sum|.
    """
    term = 1.0 + 0.0j
    s = 1.0 + 0.0j
    comp = 0.0 + 0.0j
    max_term = 1.0
    for n in range(cap):
        term = term * (a + n) / (b + n) * z / (n + 1)
        at = abs(term)
        if at > max_term:
            max_term = at
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if at <= tol * max(abs(s), 1e-300) and n > abs(z):
            return s, at / max(abs(s), 1e-300), max_term / max(abs(s), 1e-300), n + 1
    return None


def _mp_hyp1f1(a, b, z, what):
    """``mpmath.hyp1f1(a, b, z)`` at the caller's working precision; its
    convergence, precision-cap and division failures raise
    :class:`DivergenceError` naming ``what``."""
    import mpmath

    try:
        return mpmath.hyp1f1(a, b, z)
    except (mpmath.libmp.NoConvergence, ValueError, ZeroDivisionError) as exc:
        raise DivergenceError(f"{what} extended precision failed: {exc}") from exc


def _mp_series_1f1(a, b, z, dps):
    import mpmath

    with mpmath.workdps(dps):
        return complex(_mp_hyp1f1(a, b, z, "1F1"))


def _raise_digits(evaluate, big, tol, what):
    """``(evaluate(dps), rel)`` with enough digits ``dps`` to absorb a
    cancellation among terms of absolute size up to ``big``.

    Precision is driven by ``big`` and verified against the result it
    produces, so a noise-contaminated double-precision estimate can never
    under-provision it; after four rounds a :class:`DivergenceError` names
    ``what``.
    """
    dps = 22 + max(0, int(math.ceil(math.log10(max(big, 1.0)))))
    for _ in range(4):
        v = evaluate(dps)
        rel = big * 10.0 ** (1 - dps) / max(abs(v), 1e-300)
        if rel <= tol:
            return v, rel
        dps += max(10, int(math.ceil(math.log10(rel / tol))) + 5)
    raise DivergenceError(f"{what} cancellation exceeded the extended-precision budget")


def _hyp1f1(a, b, z, tol=1e-12):
    """1F1(a; b; z) for real or complex arguments inside the box."""
    if _is_nonpositive_int(b):
        raise PoleError(f"1F1 undefined for b={b}")
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if abs(z) > Z_BOX or abs(a) > PARAM_BOX or abs(b) > PARAM_BOX:
        raise DivergenceError("1F1 arguments outside the supported box")
    if z == 0:
        return SpecialValue(_as_scalar(1.0 + 0j), True, 0.0)
    # terminating series: a a non-positive integer
    if _is_nonpositive_int(a):
        n_terms = int(round(-a.real))
        term = 1.0 + 0.0j
        s = 1.0 + 0.0j
        for n in range(n_terms):
            term = term * (a + n) / (b + n) * z / (n + 1)
            s += term
        return SpecialValue(_as_scalar(s), True, 4 * _EPS * (n_terms + 1))
    # Kummer transform keeps Re z >= 0, where the series cancels least
    if z.real < 0:
        inner = _hyp1f1(b - a, b, -z, tol)
        ez = cmath.exp(z)
        return SpecialValue(
            _as_scalar(ez * inner.value), inner.converged, inner.est_error + 4 * _EPS
        )
    out = _kahan_series_1f1(a, b, z, tol=min(tol, 1e-14))
    if out is not None:
        return _series_value(a, b, z, *out[:3], tol)
    raise DivergenceError("1F1 series failed to converge within the iteration cap")


def _series_value(a, b, z, s, trunc_rel, canc, tol):
    """1F1 from its converged plain series: the sum ``s``, or an
    extended-precision rerun when cancellation ate the error budget."""
    round_rel = canc * _EPS * 4
    est = trunc_rel + round_rel
    if est <= tol:
        return SpecialValue(_as_scalar(s), True, est)
    # cancellation ate the budget: redo with enough extra digits
    max_term_abs = canc * max(abs(s), 1e-300)
    v, rel = _raise_digits(lambda dps: _mp_series_1f1(a, b, z, dps), max_term_abs, tol, "1F1")
    return SpecialValue(_as_scalar(v), True, max(trunc_rel, rel))


def _kahan_lanes_1f1(a, b, z, tol, cap=_SERIES_CAP):
    """:func:`_kahan_series_1f1` on the lanes of ``z``, term by term in its
    order of operations; a lane leaves the sum at the term where its scalar
    series returns.

    ``z`` is :class:`ComplexLanes`, or, with float ``a`` and ``b``, a float64
    array of real lanes: the series then sums float64 arrays, which are the
    real parts of the complex series bit for bit (every imaginary part it
    multiplies by is a zero, and ``hypot(x, 0) = |x|``).

    ``|term|``, the running maximum and the sum of each term go to a block
    of ``_KUMMER_BLOCK`` rows, and once per block the scalar convergence
    test runs on every row, each lane taking its first passing term.  The at
    most ``_KUMMER_BLOCK - 1`` terms a lane computes past it are dropped and
    raise no lane error: inside the box they stay finite, and ``b + n`` is
    never zero, as ``b`` is not a non-positive integer.

    Returns (sum as :class:`ComplexLanes`, first_neglected_over_sum,
    max_term_over_sum, converged) per lane; a lane that hits the cap has
    ``converged`` False.
    """
    real = isinstance(z, np.ndarray)
    size = np.size(z.real)
    sums = ComplexLanes(np.empty(size), np.zeros(size))
    trunc, canc, converged = np.empty(size), np.empty(size), np.zeros(size, bool)
    live, az = np.arange(size), abs(z)
    ones, zeros = np.ones(size), np.zeros(size)
    term = ones if real else ComplexLanes(ones, zeros)
    s, comp = ([ones], [zeros]) if real else ([ones, zeros], [zeros, zeros])
    max_term = ones
    for n0 in range(0, cap, _KUMMER_BLOCK):
        if not live.size:
            break
        k = min(_KUMMER_BLOCK, cap - n0)
        at, mx = np.empty((k, live.size)), np.empty((k, live.size))
        sk = [np.empty((k, live.size)) for _ in s]
        for j in range(k):
            n = n0 + j
            term = term * (a + n) / (b + n) * z / (n + 1)
            parts = (term,) if real else (term.real, term.imag)
            (np.abs if real else np.hypot)(*parts, out=at[j])  # abs(term)
            max_term = np.fmax(max_term, at[j], out=mx[j])
            for p, part in enumerate(parts):
                y = part - comp[p]
                t = np.add(s[p], y, out=sk[p][j])
                comp[p] = (t - s[p]) - y
                s[p] = t
        big = np.maximum((np.abs if real else np.hypot)(*sk), 1e-300)  # max(abs(s), 1e-300)
        done = (at <= tol * big) & (np.arange(n0, n0 + k)[:, None] > az)
        go = ~done.any(axis=0)
        if go.all():
            continue
        cols = np.flatnonzero(~go)
        rows, idx = done[:, cols].argmax(axis=0), live[cols]
        sums.real[idx] = sk[0][rows, cols]
        if not real:
            sums.imag[idx] = sk[1][rows, cols]
        trunc[idx], canc[idx] = at[rows, cols] / big[rows, cols], mx[rows, cols] / big[rows, cols]
        converged[idx] = True
        live, az, max_term = live[go], az[go], max_term[go]
        s, comp = [v[go] for v in s], [v[go] for v in comp]
        term, z = (v[go] if real else ComplexLanes(v.real[go], v.imag[go]) for v in (term, z))
    return sums, trunc, canc, converged


def _hyp1f1_lanes(a, b, z, tol=1e-12):
    """``_hyp1f1(a, b, z).value`` on the lanes of ``z`` (float lanes or
    :class:`ComplexLanes`), as :class:`ComplexLanes`; a real value ``v``
    reads ``complex(v, 0.0)``, as it promotes in complex arithmetic.

    Lanes on the plain route (inside the box, ``z != 0``, ``Re z >= 0``,
    ``a`` not a non-positive integer) run :func:`_kahan_lanes_1f1` together,
    on float64 arrays when ``a``, ``b`` and every such lane are real; a lane
    whose sum misses the error budget takes the scalar
    extended-precision rerun (:func:`_series_value`) from that sum.  Each
    other lane goes through :func:`_hyp1f1` alone, which gives its value or
    raises its error.
    """
    if _is_nonpositive_int(b):
        raise PoleError(f"1F1 undefined for b={b}")
    a = complex(a)
    b = complex(b)
    re, im = _lane_parts(z)
    az = np.hypot(re, im)
    plain = np.isfinite(az) & (az <= Z_BOX) & (az != 0.0) & (re >= 0.0)
    if abs(a) > PARAM_BOX or abs(b) > PARAM_BOX or _is_nonpositive_int(a):
        plain[:] = False
    idx = np.flatnonzero(plain)
    out = ComplexLanes(np.empty(re.size), np.empty(re.size))
    if a.imag == 0.0 and b.imag == 0.0 and not im[idx].any():
        s, trunc_rel, canc, converged = _kahan_lanes_1f1(a.real, b.real, re[idx], min(tol, 1e-14))
    else:
        s, trunc_rel, canc, converged = _kahan_lanes_1f1(
            a, b, ComplexLanes(re[idx], im[idx]), min(tol, 1e-14)
        )
    ok = converged & (trunc_rel + canc * _EPS * 4 <= tol)
    # _as_scalar: a negligible imaginary part leaves a real value
    big = np.abs(s.real)
    real = (s.imag == 0.0) | (np.abs(s.imag) <= 1e-14 * np.where(big > 1.0, big, 1.0))
    out.real[idx[ok]] = s.real[ok]
    out.imag[idx[ok]] = np.where(real, 0.0, s.imag)[ok]
    for k in np.flatnonzero(converged & ~ok).tolist():
        # cancellation ate the budget: the scalar extended-precision rerun
        v = complex(_series_value(
            a, b, complex(re[idx[k]], im[idx[k]]),
            complex(s.real[k], s.imag[k]), float(trunc_rel[k]), float(canc[k]), tol,
        ).value)
        out.real[idx[k]], out.imag[idx[k]] = v.real, v.imag
    plain[idx[~converged]] = False
    rest = np.flatnonzero(~plain)
    if rest.size:
        # Kummer reflection, terminating series, z = 0, outside the box, the
        # iteration cap: the scalar route, lane by lane
        back = _each_scalar(lambda v: _hyp1f1(a, b, v, tol).value, ComplexLanes(re[rest], im[rest]))
        out.real[rest], out.imag[rest] = back.real, back.imag
    return out


# ---------------------------------------------------------------------------
# Tricomi U
# ---------------------------------------------------------------------------


def _hypU_asymptotic(a, b, z):
    """U(a,b,z) ~ z^-a * 2F0(a, a-b+1; ; -1/z), truncated at the smallest term.

    Valid for large |z|; returns (value, est_rel) or None when the optimal
    truncation error is not small.
    """
    a = complex(a)
    b = complex(b)
    z = complex(z)
    term = 1.0 + 0.0j
    s = 1.0 + 0.0j
    best = abs(term)
    for n in range(400):
        term = term * (a + n) * (a - b + 1 + n) * (-1.0 / z) / (n + 1)
        if abs(term) >= best and n > 2:
            break
        s += term
        best = abs(term)
    est = best / max(abs(s), 1e-300)
    if est > 1e-11:
        return None
    pref = cmath.exp(-a * cmath.log(z))
    return pref * s, est + 8 * _EPS


def _hypU(a, b, z, tol=1e-10):
    """Tricomi U(a,b,z), principal branch."""
    a = complex(a)
    b = complex(b)
    z = complex(z)
    if z == 0:
        raise DomainError("U undefined at z=0")
    if abs(z) > Z_BOX or abs(a) > PARAM_BOX or abs(b) > PARAM_BOX:
        raise DivergenceError("U arguments outside the supported box")
    if _is_nonpositive_int(a):
        # terminating: U(-n, b, z) is a polynomial (generalized Laguerre)
        n_terms = int(round(-a.real))
        term = 1.0 + 0.0j
        s = 1.0 + 0.0j
        for k in range(n_terms):
            term = term * (a + k) * (a - b + 1 + k) * (-1.0 / z) / 1.0 / (k + 1)
            s += term
        pref = cmath.exp(-a * cmath.log(z))
        return SpecialValue(_as_scalar(pref * s), True, 8 * _EPS * (n_terms + 1))
    if abs(z) >= 30.0:
        out = _hypU_asymptotic(a, b, z)
        if out is not None:
            v, est = out
            return SpecialValue(_as_scalar(v), True, est)
    # connection formula through two 1F1's; needs b away from the integers
    if abs(b.imag) < 1e-12 and abs(b.real - round(b.real)) < 1e-8:
        raise DomainError(
            "U via the connection formula needs a non-integer second parameter; "
            f"b={b} is too close to an integer"
        )
    g1 = _cgamma(1 - b) / _cgamma(a - b + 1)
    g2 = _cgamma(b - 1) / _cgamma(a)
    m1 = _hyp1f1(a, b, z, tol=tol)
    m2 = _hyp1f1(a - b + 1, 2 - b, z, tol=tol)
    zp = cmath.exp((1 - b) * cmath.log(z))
    t1 = g1 * m1.value
    t2 = g2 * zp * m2.value
    s = t1 + t2
    canc = (abs(t1) + abs(t2)) / max(abs(s), 1e-300)
    est = canc * (_EPS * 8 + m1.est_error + m2.est_error)
    if est <= tol:
        return SpecialValue(_as_scalar(s), True, est)

    # extended-precision rerun of the same connection formula; digits driven
    # by the absolute size of the cancelling pair
    def connection(dps):
        import mpmath

        with mpmath.workdps(dps):
            am, bm, zm = map(mpmath.mpmathify, (a, b, z))
            return complex(
                mpmath.gamma(1 - bm) / mpmath.gamma(am - bm + 1) * _mp_hyp1f1(am, bm, zm, "U")
                + mpmath.gamma(bm - 1) / mpmath.gamma(am)
                * mpmath.exp((1 - bm) * mpmath.log(zm))
                * _mp_hyp1f1(am - bm + 1, 2 - bm, zm, "U")
            )

    v, rel = _raise_digits(connection, abs(t1) + abs(t2), tol, "U")
    return SpecialValue(_as_scalar(v), True, rel)


# ---------------------------------------------------------------------------
# Gauss 2F1 (real arguments)
# ---------------------------------------------------------------------------


def _series_2f1(a, b, c, z, tol):
    term = 1.0
    s = 1.0
    comp = 0.0
    max_term = 1.0
    for n in range(_SERIES_CAP):
        term = term * (a + n) * (b + n) / (c + n) * z / (n + 1)
        at = abs(term)
        max_term = max(max_term, at)
        y = term - comp
        t = s + y
        comp = (t - s) - y
        s = t
        if at <= tol * max(abs(s), 1e-300):
            return s, at / max(abs(s), 1e-300) + max_term / max(abs(s), 1e-300) * 4 * _EPS
    raise DivergenceError("2F1 series failed to converge within the iteration cap")


def _hyp2f1(a, b, c, z, tol=1e-12):
    for p in (a, b, c, z):
        if isinstance(p, complex):
            raise DomainError("Gauss 2F1 is real-only in this kernel")
    if abs(a) > PARAM_BOX or abs(b) > PARAM_BOX or abs(c) > PARAM_BOX:
        raise DivergenceError("2F1 parameters outside the supported box")
    if _is_nonpositive_int(c) and not (
        (_is_nonpositive_int(a) and a > c) or (_is_nonpositive_int(b) and b > c)
    ):
        raise PoleError(f"2F1 undefined for c={c}")
    if z == 0.0:
        return SpecialValue(1.0, True, 0.0)
    # terminating series short-circuits every transformation question
    if _is_nonpositive_int(a) or _is_nonpositive_int(b):
        if _is_nonpositive_int(b) and not _is_nonpositive_int(a):
            a, b = b, a
        n_terms = int(round(-a))
        term, s = 1.0, 1.0
        for n in range(n_terms):
            term = term * (a + n) * (b + n) / (c + n) * z / (n + 1)
            s += term
        return SpecialValue(s, True, 8 * _EPS * (n_terms + 1))
    if z >= 1.0:
        raise DomainError("2F1 branch point/cut at z >= 1 is not supported")
    if z < 0.0:
        # Pfaff maps z < 0 into (0, 1), where the plain series always
        # converges without sign cancellation worth worrying about
        w = z / (z - 1.0)
        s, est = _series_2f1(a, c - b, c, w, min(tol, 1e-15))
        pref = (1.0 - z) ** (-a)
        return SpecialValue(pref * s, True, est + 4 * _EPS)
    if z <= 0.6:
        s, est = _series_2f1(a, b, c, z, min(tol, 1e-15))
        return SpecialValue(s, True, est)
    # 0.6 < z < 1: connection at 1-z; needs c-a-b away from the integers
    cab = c - a - b
    if abs(cab - round(cab)) < 1e-8:
        raise DomainError(
            "2F1 near z=1 needs c-a-b away from the integers (logarithmic case not implemented)"
        )
    s1, e1 = _series_2f1(a, b, a + b - c + 1.0, 1.0 - z, min(tol, 1e-15))
    s2, e2 = _series_2f1(c - a, c - b, cab + 1.0, 1.0 - z, min(tol, 1e-15))
    g = math.gamma
    t1 = g(c) * g(cab) / (g(c - a) * g(c - b)) * s1
    t2 = (1.0 - z) ** cab * g(c) * g(-cab) / (g(a) * g(b)) * s2
    s = t1 + t2
    canc = (abs(t1) + abs(t2)) / max(abs(s), 1e-300)
    est = canc * (8 * _EPS + e1 + e2)
    return SpecialValue(s, True, est)


# ---------------------------------------------------------------------------
# public hypergeometric entry point
# ---------------------------------------------------------------------------


def hypergeometric(kind, a, b, c=None, z=0.0, tol=None):
    """Kummer 1F1(a;b;z), Tricomi U(a,b,z) or Gauss 2F1(a,b;c;z)."""
    kind = HypKind(kind) if not isinstance(kind, HypKind) else kind
    if kind is HypKind.Gauss2F1:
        if c is None:
            raise DomainError("Gauss2F1 requires the third parameter c")
        return _hyp2f1(a, b, c, z, tol or 1e-12)
    if c is not None:
        raise DomainError(f"{kind.value} takes no third parameter")
    if kind is HypKind.Kummer1F1:
        return _hyp1f1(a, b, z, tol or 1e-12)
    return _hypU(a, b, z, tol or 1e-10)


# ---------------------------------------------------------------------------
# Whittaker
# ---------------------------------------------------------------------------


def whittaker(kind, kappa, mu, z, tol=1e-11):
    """Whittaker M or W, principal branch, complex-capable."""
    kind = WhittakerKind(kind) if not isinstance(kind, WhittakerKind) else kind
    kappa = complex(kappa)
    mu = complex(mu)
    z = complex(z)
    if z == 0:
        raise DomainError("Whittaker functions undefined at z=0")
    if abs(kappa) > PARAM_BOX or abs(mu) > PARAM_BOX or abs(z) > Z_BOX:
        raise DivergenceError("Whittaker arguments outside the supported box")
    a = mu - kappa + 0.5
    b = 1.0 + 2.0 * mu
    pref = cmath.exp(-z / 2.0) * cmath.exp((mu + 0.5) * cmath.log(z))
    if kind is WhittakerKind.M:
        if _is_nonpositive_int(b):
            raise PoleError(f"Whittaker M undefined for 1+2mu={b}")
        inner = _hyp1f1(a, b, z, tol=tol)
    else:
        inner = _hypU(a, b, z, tol=tol)
    return SpecialValue(
        _as_scalar(pref * inner.value), inner.converged, inner.est_error + 8 * _EPS
    )


# ---------------------------------------------------------------------------
# Bessel (real order and argument; scipy backend behind the spec surface)
# ---------------------------------------------------------------------------

# names of the scipy.special ufuncs: the module is imported when a Bessel
# function is first needed
_BESSEL = {
    BesselKind.J: "jv",
    BesselKind.Y: "yv",
    BesselKind.I: "iv",
    BesselKind.K: "kv",
}


def _bessel_ufunc(kind):
    import scipy.special

    return getattr(scipy.special, _BESSEL[kind])


def bessel(kind, nu, z):
    kind = BesselKind(kind) if not isinstance(kind, BesselKind) else kind
    if isinstance(nu, complex) or isinstance(z, complex):
        raise DomainError("Bessel kernel is real-only")
    if abs(nu) > 20.0:
        raise DivergenceError("Bessel order outside |nu| <= 20")
    if abs(z) > 1e4:
        raise DivergenceError("Bessel argument outside |z| <= 1e4")
    if kind in (BesselKind.Y, BesselKind.K):
        if z <= 0.0:
            raise DomainError(f"Bessel {kind.value} needs z > 0")
    elif z < 0.0:
        raise DomainError(f"Bessel {kind.value} needs z >= 0")
    v = float(_bessel_ufunc(kind)(nu, z))
    if math.isnan(v) or math.isinf(v):
        raise DomainError(f"Bessel {kind.value}({nu}, {z}) not finite")
    return SpecialValue(v, True, 1e-12 * max(1.0, abs(v)))


def bessel_jet(kind, nu):
    """(f, f', f'') callables for a fixed-order Bessel function.

    Derivatives use the standard contiguous recurrences, not finite
    differences.  Each callable takes a float, giving a float, or float
    lanes, giving an array: the ufunc maps each element as it maps a float.
    """
    kind = BesselKind(kind) if not isinstance(kind, BesselKind) else kind
    f = _bessel_ufunc(kind)
    if kind in (BesselKind.J, BesselKind.Y):
        def d1(z):
            return 0.5 * (f(nu - 1, z) - f(nu + 1, z))

        def d2(z):
            return 0.25 * (f(nu - 2, z) - 2.0 * f(nu, z) + f(nu + 2, z))
    elif kind is BesselKind.I:
        def d1(z):
            return 0.5 * (f(nu - 1, z) + f(nu + 1, z))

        def d2(z):
            return 0.25 * (f(nu - 2, z) + 2.0 * f(nu, z) + f(nu + 2, z))
    else:
        def d1(z):
            return -0.5 * (f(nu - 1, z) + f(nu + 1, z))

        def d2(z):
            return 0.25 * (f(nu - 2, z) + 2.0 * f(nu, z) + f(nu + 2, z))

    def out(v):
        return v if np.ndim(v) else float(v)

    return (lambda z: out(f(nu, z))), (lambda z: out(d1(z))), (lambda z: out(d2(z)))


def _hyp1f1_value(a, b, z):
    return _hyp1f1_lanes(a, b, z) if _is_lanes(z) else _hyp1f1(a, b, z).value


def hyp1f1_jet(a, b):
    """(f, f', f'') for z -> 1F1(a;b;z) via the parameter-shift derivative;
    each takes a point or lanes (see :func:`_hyp1f1_lanes`)."""

    def f(z):
        return _hyp1f1_value(a, b, z)

    def d1(z):
        return a / b * _hyp1f1_value(a + 1, b + 1, z)

    def d2(z):
        return a * (a + 1) / (b * (b + 1)) * _hyp1f1_value(a + 2, b + 2, z)

    return f, d1, d2


def hypU_jet(a, b):
    """(f, f', f'') for z -> U(a,b,z) via the parameter-shift derivative;
    lanes go through :func:`_hypU` one at a time."""

    def value(a, b, z):
        if _is_lanes(z):
            return _each_scalar(lambda v: _hypU(a, b, v).value, z)
        return _hypU(a, b, z).value

    def f(z):
        return value(a, b, z)

    def d1(z):
        return -a * value(a + 1, b + 1, z)

    def d2(z):
        return a * (a + 1) * value(a + 2, b + 2, z)

    return f, d1, d2


def _whittaker_jet(inner_jet, kappa, mu):
    """(f, f', f'') for z -> exp(-z/2) z^(mu+1/2) F(z), with ``inner_jet``
    the jet builder of F at a = mu - kappa + 1/2, b = 1 + 2 mu.

    The prefactor and F, F', F'' are computed at most once per distinct
    point or lane set and kept in a :class:`PointMemo` of this jet, filled
    order by order as the elements ask for them, so the three elements of a
    ``Dual2`` pass, and a later pass on the same points, share one
    evaluation of each order.  On lanes (float lanes or
    :class:`ComplexLanes`; the result is :class:`ComplexLanes`), each
    distinct lane is evaluated once.  A :class:`Dual2` argument raises
    :class:`DomainError`: ``cmath`` would drop its derivative parts.
    """
    a = complex(mu - kappa + 0.5)
    b = complex(1.0 + 2.0 * mu)
    inner = inner_jet(a, b)
    e = mu + 0.5
    # point or lane set -> (distinct lanes, each lane's index among them,
    # prefactor, {order: inner value}), a point its own distinct lane; the
    # key of the distinct lanes -> (prefactor, {order: inner value})
    memo = PointMemo()

    def prefactor(z):
        return cmath.exp(-z / 2.0) * cmath.exp(e * cmath.log(z))

    def at(z, *orders):
        if isinstance(z, Dual2):
            raise DomainError("Whittaker jets take a float or complex argument, not a Dual2")
        key = point_key(z)
        hit = memo.get(key)
        if hit is None and _is_lanes(z):
            pts, inverse, dkey = _distinct(z)
            pref, vals = memo.get(dkey) or (_each_scalar(prefactor, pts), {})
        elif hit is None:
            pts, inverse, dkey = z, None, None
            pref, vals = prefactor(z), {}
        else:
            pts, inverse, pref, vals = hit
        new = {k: inner[k](pts) for k in orders if k not in vals}
        if hit is None:
            if dkey is not None:
                memo.put(dkey, pts, (pref, vals))
            memo.put(key, z, (pts, inverse, pref, vals))
        vals.update(new)
        out = [pref] + [vals[k] for k in orders]
        if inverse is not None:
            out = [ComplexLanes(v.real[inverse], v.imag[inverse]) for v in out]
        return out[0], out[1:]

    def f(z):
        pref, (F,) = at(z, 0)
        return pref * F

    def df(z):
        pref, (F, F1) = at(z, 0, 1)
        return pref * ((e / z - 0.5) * F + F1)

    def ddf(z):
        pref, (F, F1, F2) = at(z, 0, 1, 2)
        g = e / z - 0.5
        return pref * ((g * g - e / (z * z)) * F + 2.0 * g * F1 + F2)

    return f, df, ddf


def whittakerW_jet(kappa, mu):
    """(f, f', f'') for z -> W_{kappa,mu}(z), complex-capable in z."""
    return _whittaker_jet(hypU_jet, kappa, mu)


def whittakerM_jet(kappa, mu):
    """(f, f', f'') for z -> M_{kappa,mu}(z), complex-capable in z."""
    return _whittaker_jet(hyp1f1_jet, kappa, mu)
