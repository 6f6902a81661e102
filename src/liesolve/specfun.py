"""Special-function kernel: gamma, confluent/Gauss hypergeometric, Whittaker,
Bessel, and the Coulomb-wave series.

Every closed-form catalog solution is assembled from these entry points.
Conventions:

* ``M_{kappa,mu}(z) = exp(-z/2) z^(mu+1/2) 1F1(mu-kappa+1/2, 1+2mu, z)`` and
  ``W`` uses the Tricomi function in the same composition.
* Confluent series are summed with compensated (Kahan) accumulation and an
  iteration cap of 10 000 terms.  When cancellation would eat the requested
  accuracy, the value is recomputed in extended precision (``mpmath.hyp1f1``
  at the digits :func:`_raise_digits` picks from the size of the cancelling
  terms and checks; its failures raise :class:`DivergenceError`); Tricomi at
  large ``|z|`` takes its asymptotic expansion.  ``est_error`` is a running
  bound from the first neglected term plus a cancellation-scaled roundoff
  term: a heuristic, not a proof.
* exp(-i tau/2) 1F1(b/2 + i eta; b; i tau) is real; :func:`coulomb_jet`
  sums it and its derivative from their real Coulomb-wave series, which
  cancel far less than the complex 1F1 series at ``i tau``.
* One evaluation per distinct argument and order, per point or lane set:
  the jet builders derive the derivatives from parameter-shifted orders,
  and each jet keeps its values at its last ``MEMO_POINTS`` distinct points
  or lane sets in a :class:`PointMemo`, keyed on the exact bits of a float
  or complex argument, and of a lane set's lanes and distinct lanes, so a
  stacked ``lane_pass`` and a float pass at one point set share each order.
  A ``Dual2`` argument raises :class:`~liesolve.errors.DomainError` rather
  than losing its derivative parts.
* The jets take float lanes (see :mod:`liesolve.hyperdual`), each lane
  bitwise its point; a lane whose point has a complex value raises
  :class:`DomainError`.  The plain Kahan route of 1F1 with real parameters
  and the Coulomb series sum all lanes at once in float64 arrays, testing
  convergence once per block of terms; a lane that needs extended
  precision reruns alone, and a 1F1 lane off the plain route takes the
  scalar route, with its value or its error.  Tricomi U runs lane by lane;
  Bessel jets map the ``scipy.special`` ufunc over the lanes.
* ``scipy.special`` (complex gamma, Bessel) and ``mpmath`` are imported on
  first use, so importing this module loads neither.

Supported box: ``|a|,|b|,|kappa|,|mu|,|eta| <= 30`` and ``|z|, |tau| <=
200`` (a NaN lies outside it, as does a non-finite 2F1 argument); outside
it a :class:`DivergenceError` is raised rather than returning silently
degraded values.  Complex arguments are supported for
1F1/U/Whittaker at a point only.

All operations are reentrant.  Each memo belongs to one jet or factor,
holds at most ``MEMO_POINTS`` points or lane sets, and is cleared when full;
nothing is cached per process, and no state is shared between jets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

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
    lane of float lanes, else the identity of the object, which stays sound
    while :class:`PointMemo` holds it."""
    if isinstance(z, float):
        return float.hex(z)
    if isinstance(z, complex):
        return float.hex(z.real), float.hex(z.imag)
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
# lanes
# ---------------------------------------------------------------------------


def _distinct(z):
    """(the distinct lanes of ``z`` in the order they first occur, each
    lane's index among them, and the memo key of the distinct lanes), on the
    bits of each lane as :func:`point_key` keys a point.  The key differs
    from every :func:`point_key`, and lane sets of one set of points (a
    float pass, the repeated pattern blocks of a stacked pass) share it."""
    re = np.ascontiguousarray(z, float)
    _, first, inverse = np.unique(re.view(np.int64), return_index=True, return_inverse=True)
    order = np.argsort(first)
    first, inverse = first[order], np.argsort(order)[inverse.ravel()]
    pts = re[first]
    return pts, inverse, ("distinct", point_key(pts))


def lane_memo(at_point, at_lanes):
    """``z -> at_point(z)`` at a point, and on float lanes ``at_lanes`` (rows,
    a column per lane) at the distinct lanes, spread to every lane as a
    read-only array; kept in a :class:`PointMemo`, a lane set's rows also
    under the key of its distinct lanes (see :func:`_distinct`)."""
    memo = PointMemo()

    def at(z):
        key = point_key(z)
        out = memo.get(key)
        if out is not None:
            return out
        if isinstance(z, np.ndarray):
            pts, inverse, dkey = _distinct(z)
            rows = memo.get(dkey)
            if rows is None:
                rows = np.asarray(at_lanes(pts))
                memo.put(dkey, pts, rows)
            out = rows[:, inverse]
            out.flags.writeable = False  # handed out as the value of every call
        else:
            out = at_point(z)
        memo.put(key, z, out)
        return out

    return at


def _each_scalar(fn, z):
    """``fn`` at each lane of ``z`` alone (a scalar call, with its error), as
    float lanes; a lane whose value is not real raises :class:`DomainError`."""
    vals = [complex(fn(v)) for v in np.asarray(z, float).tolist()]
    if any(v.imag for v in vals):
        raise DomainError("a lane takes a complex value: real lanes hold real values only")
    return np.array([v.real for v in vals], float)


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
    except OverflowError as exc:
        raise DivergenceError(f"gamma overflows float64 at z={z}") from exc
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
    if not (abs(z) <= Z_BOX and abs(a) <= PARAM_BOX and abs(b) <= PARAM_BOX):
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
    """:func:`_kahan_series_1f1` on the float64 lanes ``z`` with float ``a``
    and ``b``, in its order of operations: the real parts of the complex
    series bit for bit (every imaginary part it multiplies by is a zero).
    ``|term|``, the running maximum and the sum go to a block of
    ``_KUMMER_BLOCK`` rows, and once per block the scalar test runs on every
    row, each lane taking its first passing term; the terms past it are
    dropped and raise no lane error (inside the box they stay finite, and
    ``b + n`` is never zero).  Returns (sum, first neglected term over sum,
    largest term over sum, converged) per lane, converged False at the cap.
    """
    size = np.size(z)
    sums, trunc, canc = np.empty(size), np.empty(size), np.empty(size)
    converged = np.zeros(size, bool)
    live, az = np.arange(size), np.abs(z)
    term = s = max_term = np.ones(size)
    comp = np.zeros(size)
    for n0 in range(0, cap, _KUMMER_BLOCK):
        if not live.size:
            break
        k = min(_KUMMER_BLOCK, cap - n0)
        at, mx, sk = (np.empty((k, live.size)) for _ in range(3))
        for j in range(k):
            n = n0 + j
            term = term * (a + n) / (b + n) * z / (n + 1)
            np.abs(term, out=at[j])
            max_term = np.fmax(max_term, at[j], out=mx[j])
            y = term - comp
            t = np.add(s, y, out=sk[j])
            comp = (t - s) - y
            s = t
        big = np.maximum(np.abs(sk), 1e-300)  # max(abs(s), 1e-300)
        done = (at <= tol * big) & (np.arange(n0, n0 + k)[:, None] > az)
        go = ~done.any(axis=0)
        if go.all():
            continue
        cols = np.flatnonzero(~go)
        rows, idx = done[:, cols].argmax(axis=0), live[cols]
        sums[idx] = sk[rows, cols]
        trunc[idx], canc[idx] = at[rows, cols] / big[rows, cols], mx[rows, cols] / big[rows, cols]
        converged[idx] = True
        live, az, max_term = live[go], az[go], max_term[go]
        s, comp, term, z = s[go], comp[go], term[go], z[go]
    return sums, trunc, canc, converged


def _hyp1f1_lanes(a, b, z, tol=1e-12):
    """``_hyp1f1(a, b, z).value`` on the float lanes ``z``, for real ``a``
    and ``b`` (else :class:`DomainError`).  Lanes on the plain route (inside
    the box, ``z > 0``, ``a`` not a non-positive integer) run
    :func:`_kahan_lanes_1f1` together, a lane whose sum misses the error
    budget rerunning in extended precision (:func:`_series_value`); each
    other lane goes through :func:`_hyp1f1` alone, with its value or error.
    """
    if _is_nonpositive_int(b):
        raise PoleError(f"1F1 undefined for b={b}")
    a, b = complex(a), complex(b)
    if a.imag or b.imag:
        raise DomainError("1F1 lanes take real parameters")
    z = np.ascontiguousarray(z, float)
    plain = np.isfinite(z) & (z <= Z_BOX) & (z > 0.0)
    if not (abs(a) <= PARAM_BOX and abs(b) <= PARAM_BOX) or _is_nonpositive_int(a):
        plain[:] = False
    idx = np.flatnonzero(plain)
    out = np.empty(z.size)
    s, trunc_rel, canc, converged = _kahan_lanes_1f1(a.real, b.real, z[idx], min(tol, 1e-14))
    ok = converged & (trunc_rel + canc * _EPS * 4 <= tol)
    out[idx[ok]] = s[ok]
    for k in np.flatnonzero(converged & ~ok).tolist():
        # cancellation ate the budget: the scalar extended-precision rerun
        out[idx[k]] = _series_value(
            a, b, complex(z[idx[k]]), complex(s[k]), float(trunc_rel[k]), float(canc[k]), tol
        ).value
    plain[idx[~converged]] = False
    rest = np.flatnonzero(~plain)
    if rest.size:
        # Kummer reflection, terminating series, z = 0, outside the box, the
        # iteration cap: the scalar route, lane by lane
        out[rest] = _each_scalar(lambda v: _hyp1f1(a, b, v, tol).value, z[rest])
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
    if not (abs(z) <= Z_BOX and abs(a) <= PARAM_BOX and abs(b) <= PARAM_BOX):
        raise DivergenceError("U arguments outside the supported box")
    if _is_nonpositive_int(a):
        # terminating: U(-n, b, z) is a polynomial (generalized Laguerre)
        n_terms = int(round(-a.real))
        term = 1.0 + 0.0j
        s = 1.0 + 0.0j
        size = 1.0  # sum of |term|: the sum's rounding error scales with it
        for k in range(n_terms):
            term = term * (a + k) * (a - b + 1 + k) * (-1.0 / z) / 1.0 / (k + 1)
            s += term
            size += abs(term)
        pref = cmath.exp(-a * cmath.log(z))
        est = 8 * _EPS * (n_terms + 1) * size / max(abs(s), 1e-300)
        return SpecialValue(_as_scalar(pref * s), True, est)
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
    if not (abs(a) <= PARAM_BOX and abs(b) <= PARAM_BOX and abs(c) <= PARAM_BOX):
        raise DivergenceError("2F1 parameters outside the supported box")
    if not math.isfinite(z):
        raise DivergenceError(f"2F1 argument z={z} is not finite")
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
        term, s, size = 1.0, 1.0, 1.0  # size: the sum of |term|, as in _hypU
        for n in range(n_terms):
            term = term * (a + n) * (b + n) / (c + n) * z / (n + 1)
            s += term
            size += abs(term)
        return SpecialValue(s, True, 8 * _EPS * (n_terms + 1) * size / max(abs(s), 1e-300))
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
    if not (abs(kappa) <= PARAM_BOX and abs(mu) <= PARAM_BOX and abs(z) <= Z_BOX):
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
    return _hyp1f1_lanes(a, b, z) if isinstance(z, np.ndarray) else _hyp1f1(a, b, z).value


def _hypU_value(a, b, z):
    if isinstance(z, np.ndarray):
        return _each_scalar(lambda v: _hypU(a, b, v).value, z)
    return _hypU(a, b, z).value


def _shift_jet(value, a, b, c1, c2):
    """(f, f', f'') with f^(k)(z) = c_k() value(a + k, b + k, z), the
    parameter-shift derivatives; each takes a point or float lanes."""
    return (lambda z: value(a, b, z), lambda z: c1() * value(a + 1, b + 1, z),
            lambda z: c2() * value(a + 2, b + 2, z))


def hyp1f1_jet(a, b):
    """(f, f', f'') for z -> 1F1(a;b;z); lanes as :func:`_hyp1f1_lanes`."""
    return _shift_jet(_hyp1f1_value, a, b, lambda: a / b, lambda: a * (a + 1) / (b * (b + 1)))


def hypU_jet(a, b):
    """(f, f', f'') for z -> U(a,b,z); lanes through :func:`_hypU` one by one."""
    return _shift_jet(_hypU_value, a, b, lambda: -a, lambda: a * (a + 1))


def _whittaker_jet(inner_jet, kappa, mu):
    """(f, f', f'') for z -> exp(-z/2) z^(mu+1/2) F(z), with ``inner_jet``
    the jet builder of F at a = mu - kappa + 1/2, b = 1 + 2 mu.

    The prefactor and F, F', F'' are computed at most once per distinct
    point or lane set, filled order by order as the elements ask for them,
    so the three elements of a ``Dual2`` pass, and a later pass on the same
    points, share one evaluation of each order.  Float lanes give float
    lanes (a lane whose point is complex raises :class:`DomainError`); a
    :class:`Dual2` raises :class:`DomainError`: ``cmath`` would drop its
    derivative parts.
    """
    a = mu - kappa + 0.5
    b = 1.0 + 2.0 * mu
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
        if hit is None and isinstance(z, np.ndarray):
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
            out = [v[inverse] for v in out]
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


# ---------------------------------------------------------------------------
# Coulomb-wave series: 1F1 on the imaginary axis, in real arithmetic
# ---------------------------------------------------------------------------


def _coulomb_series(b, eta, tau, tol, cap=_SERIES_CAP):
    """psi(tau) = exp(-i tau/2) 1F1(b/2 + i eta; b; i tau) and psi'(tau) from
    their real series, with compensated sums: psi solves tau psi'' + b psi'
    + (tau/4 + eta) psi = 0, so psi = sum t_k, t_k = c_k tau^k, c_0 = 1,
    c_-1 = 0, c_k = -(eta c_{k-1} + c_{k-2}/4)/(k (k + b - 1)) (Abramowitz &
    Stegun ch. 14; DLMF 33.6), and psi' = sum d_k, d_k = k c_k tau^(k-1) =
    -(eta t_{k-1} + tau t_{k-2}/4)/(k + b - 1), t_k = d_k tau/k.  Returns
    ((psi, psi'), (last two terms over the sum of each), (largest term over
    the sum of each)) at the first k > |tau| where both last two terms are
    within ``tol`` of their sums (one can be small by accident), or None at
    the cap."""
    q, atau = 0.25 * tau, abs(tau)
    t1, t2 = 1.0, 0.0  # t_{k-1}, t_{k-2}
    s, ds, cs, cds = 1.0, 0.0, 0.0, 0.0
    mt, md, at1, ad1 = 1.0, 0.0, 1.0, 0.0
    for k in range(1, cap + 1):
        d = (eta * t1 + q * t2) / (1.0 - k - b)
        t = d * tau / k
        y = t - cs
        u = s + y
        cs = (u - s) - y
        s = u
        y = d - cds
        u = ds + y
        cds = (u - ds) - y
        ds = u
        at, ad = abs(t), abs(d)
        if at > mt:  # np.fmax: a NaN term leaves the maximum
            mt = at
        if ad > md:
            md = ad
        if k > atau:
            big, dbig = abs(s), abs(ds)
            big = 1e-300 if big < 1e-300 else big  # np.maximum: a NaN sum stays
            dbig = 1e-300 if dbig < 1e-300 else dbig
            pt, pd = at1 + at, ad1 + ad
            if pt <= tol * big and pd <= tol * dbig:
                return (s, ds), (pt / big, pd / dbig), (mt / big, md / dbig)
        t1, t2, at1, ad1 = t, t1, at, ad
    return None


def _coulomb_lanes(b, eta, tau, tol, cap=_SERIES_CAP):
    """:func:`_coulomb_series` on the float64 lanes ``tau`` in its order of
    operations, psi and psi' as rows, with the block test of
    :func:`_kahan_lanes_1f1`: its three pairs as (2, lanes) arrays, and
    ``converged`` per lane."""
    n = tau.size
    sums, trunc, canc = np.empty((2, n)), np.empty((2, n)), np.empty((2, n))
    converged = np.zeros(n, bool)
    live, atau, q = np.arange(n), np.abs(tau), 0.25 * tau
    t1, t2, comp = np.ones(n), np.zeros(n), np.zeros((2, n))
    s, top, prev = (np.stack([np.ones(n), np.zeros(n)]) for _ in range(3))
    for k0 in range(1, cap + 1, _KUMMER_BLOCK):
        if not live.size:
            break
        m = min(_KUMMER_BLOCK, cap + 1 - k0)
        ab, sk = np.empty((m + 1, 2, live.size)), np.empty((m, 2, live.size))
        ab[0] = prev  # |t|, |d| of the last term before the block
        for j in range(m):
            td = np.empty((2, live.size))  # t_k and d_k
            d = np.divide(eta * t1 + q * t2, 1.0 - (k0 + j) - b, out=td[1])
            np.divide(d * tau, k0 + j, out=td[0])
            np.abs(td, out=ab[j + 1])
            y = td - comp
            u = np.add(s, y, out=sk[j])
            comp = (u - s) - y
            s, t1, t2 = u, td[0], t1
        big = np.maximum(np.abs(sk), 1e-300)
        pair = ab[:-1] + ab[1:]
        mx = np.fmax.accumulate(np.concatenate([top[None], ab[1:]]), axis=0)[1:]
        done = (np.arange(k0, k0 + m)[:, None] > atau) & (pair <= tol * big).all(axis=1)
        go = ~done.any(axis=0)
        top, prev = mx[-1], ab[-1]
        if not go.all():
            cols = np.flatnonzero(~go)
            rows, idx = done[:, cols].argmax(axis=0), live[cols]
            sums[:, idx] = sk[rows, :, cols].T
            trunc[:, idx] = (pair[rows, :, cols] / big[rows, :, cols]).T
            canc[:, idx] = (mx[rows, :, cols] / big[rows, :, cols]).T
            converged[idx] = True
            live, atau, q, tau, t1, t2 = (v[go] for v in (live, atau, q, tau, t1, t2))
            s, comp, top, prev = (v[:, go] for v in (s, comp, top, prev))
    return sums, trunc, canc, converged


def _mp_coulomb(b, eta, tau, order, dps):
    """psi = Re exp(-i tau/2) 1F1(a; b; i tau), a = b/2 + i eta (order 0), or
    psi' = Re exp(-i tau/2) i (a/b 1F1(a + 1; b + 1; i tau) - 1F1/2), at dps."""
    import mpmath

    with mpmath.workdps(dps):
        a, z = mpmath.mpc(b / 2.0, eta), mpmath.mpc(0.0, tau)
        m = _mp_hyp1f1(a, b, z, "Coulomb series")
        if order:
            m = 1j * (a / b * _mp_hyp1f1(a + 1, b + 1, z, "Coulomb series") - m / 2)
        return float(mpmath.re(mpmath.expj(-mpmath.mpf(tau) / 2) * m))


def _coulomb_value(b, eta, tau, sums, trunc, canc, tol):
    """[psi, psi'] from their converged sums, each rerun in extended
    precision by the rule of :func:`_series_value`."""
    out = [float(v) for v in sums]
    for k in (0, 1):
        if trunc[k] + canc[k] * _EPS * 4 > tol:
            big = float(canc[k]) * max(abs(out[k]), 1e-300)
            mp = partial(_mp_coulomb, b, eta, tau, k)
            out[k] = _raise_digits(mp, big, tol, "Coulomb series")[0]
    return out


def coulomb_jet(b, eta):
    """tau -> (psi(tau), psi'(tau)), psi = exp(-i tau/2) 1F1(b/2 + i eta; b;
    i tau), real by Kummer's transformation (DLMF 13.2.39), from its
    Coulomb-wave series: a pair at a float, a (2, lanes) array on float
    lanes (see :func:`lane_memo`), each lane bitwise its point.  Outside the
    box or at the cap any lane raises :class:`DivergenceError`, a ``Dual2``
    :class:`DomainError`, and a non-positive integer ``b`` :class:`PoleError`
    here."""
    if _is_nonpositive_int(b):
        raise PoleError(f"Coulomb series undefined for b={b}")
    tol = 1e-12  # the error budget, as 1F1's; the sums run to 1e-14

    def check(tau, converged=True):
        if isinstance(tau, Dual2):
            raise DomainError("the Coulomb jet takes a float or float lanes, not a Dual2")
        if not (abs(b) <= PARAM_BOX and abs(eta) <= PARAM_BOX and np.all(np.abs(tau) <= Z_BOX)):
            raise DivergenceError("Coulomb series arguments outside the supported box")
        if not np.all(converged):
            raise DivergenceError("Coulomb series failed to converge within the iteration cap")

    def at_point(tau):
        check(tau)
        series = _coulomb_series(b, eta, float(tau), 1e-14)
        check(tau, series is not None)
        return tuple(_coulomb_value(b, eta, float(tau), *series, tol))

    def at_lanes(tau):
        check(tau)
        out, trunc, canc, converged = _coulomb_lanes(b, eta, tau, 1e-14)
        check(tau, converged)
        for k in np.flatnonzero((trunc + canc * _EPS * 4 > tol).any(axis=0)).tolist():
            out[:, k] = _coulomb_value(b, eta, tau[k], out[:, k], trunc[:, k], canc[:, k], tol)
        return out

    return lane_memo(at_point, at_lanes)
