"""Independent numerical oracles.

Nothing in this module trusts the analytic machinery it checks: residuals
use plain five-point finite differences on field *values*, the evolution
scheme is a standard Crank-Nicolson / corrected-Douglas pair, and the Monte
Carlo engine discretizes the price processes directly.

* :func:`fp_residual` - pointwise residual of u_tau - (1/2) Lap u + M u.
* :func:`bs_residual` - pointwise residual of the asset-space pricing
  operator (the same oracle in original coordinates).
* :func:`fd_evolve` - Crank-Nicolson (one space dimension) or Douglas ADI
  with an explicit-then-corrected reaction term (two dimensions), on the
  calling thread; the constant implicit matrices are factored once per run
  as L D L^T.
* :func:`mc_simulate` - Euler-Maruyama with correlated draws from a
  counter-based generator, reproducible per seed; path blocks run on one
  thread per available core, with samples that do not depend on the
  number of threads.
* :func:`compare` - L-infinity / sup-CDF comparison of two oracles; the
  sup-CDF search (:func:`sup_cdf_distance`) calls a nondecreasing model CDF
  only where the maximum can lie, skips its NaN values, and gives a
  decreasing model the full pass.

The two residual oracles hold one formula each: the five-point formulas of
:mod:`liesolve.numdiff` over float lanes (see :mod:`liesolve.hyperdual`)
that hold every stencil point of every sample point.  The field is
evaluated once on those lanes, the potential and the volatilities once per
sample point, one lane at a time.  Each lane is bitwise its scalar
evaluation, so the report is the per-point loop's.  When the lanes raise a
``TypeError``, ``ValueError``, ``ArithmeticError`` or ``LiesolveError`` (a
field that branches on its values, a domain error at some stencil point),
the formula reruns with every callable one lane at a time, NaN where it
raised an error that :func:`sampled` skips; ``ResidualReport.notes`` names
the run.

The array kernels update preallocated buffers in place, keeping the order
of every floating-point operation of the plain formulas, so for fixed
inputs their outputs are bit-identical to a straightforward NumPy
transcription; the one exception is the L D L^T solve of :func:`fd_evolve`,
within 1e-12 of a transcription that solves each step with
``solve_banded``.
"""

from __future__ import annotations

import math
import numbers
import os
import warnings
from dataclasses import dataclass

import numpy as np

from . import hyperdual as hd
from . import numdiff
from .errors import (
    BoundaryContamination,
    ConfigError,
    DomainMismatch,
    LiesolveError,
    PathExplosion,
    SamplingError,
    UnstableConfig,
)
from .fields import halton
from .transform import CEVVol, ExponentialVol, RescaledExponentialVol

RESID_H = 1e-3  # five-point stencil base step, h = RESID_H * max(1, |coord|)


@dataclass
class ResidualReport:
    max_abs: float
    rms: float
    n_points: int
    h_used: float
    singular_points_skipped: int
    verdict: str  # pass | fail | inconclusive
    threshold: float = float("nan")
    notes: tuple = ()

    @property
    def passed(self):
        return self.verdict == "pass"


def _verdict(max_abs, threshold, n_points, n_skipped):
    if n_points == 0 or n_points < n_skipped:
        return "inconclusive"
    return "pass" if max_abs <= threshold else "fail"


@dataclass(frozen=True)
class Region:
    """Axis-aligned sampling box with an optional singular-locus guard."""

    bounds: tuple  # ((lo, hi), ...) per argument
    guard: object = None  # callable(*point) -> True when the point is bad

    def points(self, n):
        dim = len(self.bounds)
        qr = halton(3 * n, dim)
        out = []
        for row in qr:
            p = tuple(lo + (hi - lo) * v for (lo, hi), v in zip(self.bounds, row))
            if self.guard is not None and self.guard(*p):
                continue
            out.append(p)
            if len(out) == n:
                break
        return out


# the errors at a point that make the sampled residuals skip it
SKIPPED_ERRORS = (LiesolveError, ArithmeticError, ValueError)


def sampled(fn, pts):
    """The one skip policy of the sampled residuals: ``(point, value)`` for
    each point where ``hd.value(fn(*point))`` is finite, and the number of
    points skipped because ``fn`` raised a typed, arithmetic or value error
    there or gave a non-finite value.  Each caller keeps its own rule for how
    many points must remain."""
    kept = []
    skipped = 0
    for pt in pts:
        try:
            v = hd.value(fn(*pt))
        except SKIPPED_ERRORS:
            skipped += 1
            continue
        if math.isfinite(v):
            kept.append((pt, v))
        else:
            skipped += 1
    return kept, skipped


def relative_scale(u, M, pts):
    """Scale of a relative residual: max |u| (1 + |M|) over the points of
    ``u``'s arguments (``M`` takes the spatial ones), at least 1e-12.  Points
    are skipped as in :func:`sampled`."""
    kept, _ = sampled(lambda *p: abs(u(*p)) * (1.0 + abs(M(*p[:-1]))), pts)
    return max([1e-12] + [v for _, v in kept])


def _per_lane_or_nan(fn):
    """fn one lane at a time (:func:`hyperdual.per_lane`), NaN at a lane
    where it raised one of :data:`SKIPPED_ERRORS`."""

    def at(*args):
        try:
            return fn(*args)
        except SKIPPED_ERRORS:
            return math.nan

    return hd.per_lane(at)


def _residual_report(formula, pts, threshold, h0, what) -> ResidualReport:
    """Summarize the residual at the points ``pts``.

    ``formula(pts, field, scalar)`` gives the residual at every point from
    one evaluation on lanes; ``field`` and ``scalar`` make lane callables of
    the field and of the callables that take one point at a time.  It runs
    with the field on lanes and the others through :func:`hyperdual.per_lane`,
    then, on a ``TypeError`` or an error of :data:`SKIPPED_ERRORS`, with
    every callable through :func:`_per_lane_or_nan`.  A non-finite residual
    is skipped; ``notes`` names the run that gave the values."""
    try:
        with np.errstate(**hd.LANE_ERRSTATE):
            values = formula(pts, lambda fn: fn, hd.per_lane)
        notes = ("lanes",)
    except (TypeError, *SKIPPED_ERRORS) as exc:
        with np.errstate(invalid="ignore"):
            values = formula(pts, _per_lane_or_nan, _per_lane_or_nan)
        notes = (f"per-lane: {type(exc).__name__}",)
    values = np.broadcast_to(values, (len(pts),)).tolist()
    kept = [v for v in values if math.isfinite(v)]
    skipped = len(values) - len(kept)
    if not kept:
        raise SamplingError(f"no usable sampling points for the {what}")
    arr = np.asarray(kept)
    max_abs = float(np.max(np.abs(arr)))
    return ResidualReport(
        max_abs,
        float(np.sqrt(np.mean(arr**2))),
        len(kept),
        h0,
        skipped,
        _verdict(max_abs, threshold, len(kept), skipped),
        threshold,
        notes,
    )


def _on_stencils(fn, pts, axes, h0, mixed=None):
    """``fn`` once over every stencil point of ``pts`` (see
    :func:`numdiff.stencil_lanes`): the sample points as float lanes, the
    values as one row per stencil point, and the steps per axis."""
    coords, h = numdiff.stencil_lanes(pts, axes, h0, mixed)
    X = hd.float_lanes(coords)
    values = np.broadcast_to(fn(*X), X[0].shape)
    return X[:, : len(pts)], values.reshape(-1, len(pts)), h


def fp_residual(u, M, region: Region, threshold, h0=RESID_H, n=40) -> ResidualReport:
    """Five-point-FD residual of the potential-form evolution operator.

    ``u`` is a field on (x, y, tau) or (x, tau); ``M`` a field on the spatial
    arguments.  Derivatives are always finite differences here: this is the
    independent route, deliberately blind to any analytic derivative the
    fields may carry.

    ``u`` is evaluated once, on lanes that hold every stencil point of every
    sample point (13 per point in two dimensions, 9 in one), and ``M`` once
    per sample point through :func:`hyperdual.per_lane`; lanes that cannot
    be taken rerun the formula one lane at a time (see
    :func:`_residual_report`).
    """
    one_dim = len(region.bounds) == 2
    axes = (1, 0) if one_dim else (2, 0, 1)

    def formula(pts, field, scalar):
        X, U, h = _on_stencils(field(u), pts, axes, h0)
        u0 = U[0]
        ut = numdiff.first(*U[1:5], h[axes[0]])
        uxx = numdiff.second(U[5], U[6], u0, U[7], U[8], h[0])
        m = scalar(M)(*X[:-1])
        if one_dim:
            return ut - 0.5 * uxx + m * u0
        uyy = numdiff.second(U[9], U[10], u0, U[11], U[12], h[1])
        return ut - 0.5 * (uxx + uyy) + m * u0

    return _residual_report(formula, region.points(n), threshold, h0, "residual")


def bs_residual(model, c, region: Region, threshold, h0=RESID_H, n=30) -> ResidualReport:
    """FD residual of the asset-space pricing operator applied to c.

    ``c`` is evaluated once, on lanes that hold every stencil point of every
    sample point (17 per point with two assets, 9 with one), and the
    volatilities once per sample point, as in :func:`fp_residual`."""
    r_ = model.rate
    vols = (model.vol1,) if model.one_dim else (model.vol1, model.vol2)
    axes = (1, 0) if model.one_dim else (2, 0, 1)

    def formula(pts, field, scalar):
        X, C, h = _on_stencils(field(c), pts, axes, h0, None if model.one_dim else (0, 1))
        c0 = C[0]
        ct = numdiff.first(*C[1:5], h[axes[0]])
        c1 = numdiff.first(C[5], C[6], C[7], C[8], h[0])
        c11 = numdiff.second(C[5], C[6], c0, C[7], C[8], h[0])
        # vol values as float lanes, so that ** is the float power
        sv = [hd.float_lanes(scalar(vol.value)(S)) for vol, S in zip(vols, X)]
        if model.one_dim:
            return ct + 0.5 * sv[0] * sv[0] * c11 + r_ * X[0] * c1 - r_ * c0
        c2 = numdiff.first(C[9], C[10], C[11], C[12], h[1])
        c22 = numdiff.second(C[9], C[10], c0, C[11], C[12], h[1])
        c12 = numdiff.cross(*C[13:17], h[0], h[1])
        s1v, s2v = sv
        return (
            ct
            + 0.5 * s1v**2 * c11
            + model.rho * s1v * s2v * c12
            + 0.5 * s2v**2 * c22
            + r_ * X[0] * c1
            + r_ * X[1] * c2
            - r_ * c0
        )

    return _residual_report(formula, region.points(n), threshold, h0, "pricing residual")


# ---------------------------------------------------------------------------
# finite-difference evolution
# ---------------------------------------------------------------------------


@dataclass
class Grid:
    extents: tuple  # ((min, max, n), ...) one or two spatial axes
    dt: float
    values: np.ndarray | None = None
    tau: float = 0.0

    def __post_init__(self):
        if len(self.extents) not in (1, 2):
            raise UnstableConfig(f"grid needs one or two axes, got {len(self.extents)}")
        for (lo, hi, n) in self.extents:
            if not isinstance(n, numbers.Integral):
                raise UnstableConfig(f"grid point counts must be integers, got {n!r}")
            if n < 16:
                raise UnstableConfig("grid needs at least 16 points per axis")
            if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
                raise UnstableConfig("grid extents must be finite and increasing")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise UnstableConfig("dt must be finite and positive")

    @property
    def dims(self):
        return len(self.extents)

    def axis(self, i):
        lo, hi, n = self.extents[i]
        return np.linspace(lo, hi, n)

    def spacing(self, i):
        lo, hi, n = self.extents[i]
        return (hi - lo) / (n - 1)

    def meshgrid(self):
        axes = [self.axis(i) for i in range(self.dims)]
        if self.dims == 1:
            return (axes[0],)
        return np.meshgrid(axes[0], axes[1], indexing="ij")

    def to_csv(self, path):
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            if self.dims == 1:
                w.writerow(["x", "value"])
                for x, v in zip(self.axis(0), self.values):
                    w.writerow([repr(float(x)), repr(float(v))])
            else:
                w.writerow(["x", "y", "value"])
                xs, ys = self.axis(0), self.axis(1)
                for i, x in enumerate(xs):
                    for j, y in enumerate(ys):
                        w.writerow([repr(float(x)), repr(float(y)), repr(float(self.values[i, j]))])


def _tridiagonal_solver(n, h, dt, bval, reaction=0.0):
    """``solve(b)`` for the implicit half-step matrix I - (dt/2) (1/2) D2,
    plus ``reaction`` ((dt/2) M) on the interior diagonal, on ``n`` points of
    spacing ``h`` with identity boundary rows, the Dirichlet values ``bval``.
    ``solve`` works along the first axis of ``b``, whose first and last rows
    hold ``bval``, in place when ``b`` is Fortran-contiguous, and returns
    ``b``.

    The couplings of rows 1 and n-2 to the known boundary values move to the
    right-hand side (coef * bval), which leaves a symmetric matrix with a
    diagonal of at least 2 coef (the callers' growth checks), positive
    definite; it is factored once as L D L^T (LAPACK ``dpttrf``) and each
    solve back-substitutes (``dpttrs``)."""
    from scipy.linalg.lapack import dpttrf, dpttrs

    coef = 0.5 * dt * 0.5 / (h * h)
    d = np.full(n, 1.0 + 2.0 * coef)
    d[1:-1] += reaction
    d[0] = d[-1] = 1.0
    e = np.full(n - 1, -coef)
    e[0] = e[-1] = 0.0
    d, e, info = dpttrf(d, e)
    if info != 0:
        raise UnstableConfig("implicit-step matrix is not positive definite")
    lift = coef * bval

    def solve(b):
        if lift:
            b[1] += lift
            b[-2] += lift
        x = dpttrs(d, e, b, overwrite_b=1)[0]
        if x is not b:
            b[...] = x
        return b

    return solve


def _half_lap_into(v, hh, out, axis=0):
    """Write (1/2) the second difference of ``v`` along ``axis`` into the
    interior of ``out``; ``hh`` is the squared spacing.  The edge rows (or
    columns) of ``out`` are left at zero, the zero second derivative outside
    the Dirichlet values.

    Along axis 1 of C-ordered grids the difference runs in one contiguous
    pass over the flattened arrays.  Its lanes at the edge columns wrap
    around to the neighbouring rows; they are set to zero before the
    difference is scaled, so that they raise no overflow the lanes of a
    pass row by row would not."""
    vf, flat = (v.reshape(-1), out.reshape(-1)) if axis == 1 else (v, out)
    o = flat[1:-1]
    np.multiply(vf[1:-1], 2.0, out=o)
    np.subtract(vf[2:], o, out=o)
    o += vf[:-2]
    if axis == 1:
        out[:, 0] = out[:, -1] = 0.0
    o *= 0.5
    o /= hh


def _check_contamination(u0_vals, grid, tau_total):
    """Warn when the diffusion cone from the initial support reaches the
    boundary: spread ~ 4 sqrt(tau) for unit-half diffusivity.  Non-finite
    initial values have no support to measure and raise UnstableConfig."""
    spread = 4.0 * math.sqrt(max(tau_total, 0.0))
    bad = int(np.count_nonzero(~np.isfinite(u0_vals)))
    if bad:
        raise UnstableConfig(f"initial values are not finite at {bad} grid points")
    mx = float(np.max(np.abs(u0_vals)))
    if mx == 0.0:
        return
    mask = np.abs(u0_vals) > 1e-12 * mx
    if grid.dims == 1:
        xs = grid.axis(0)
        lo, hi = xs[mask].min(), xs[mask].max()
        margin = min(lo - xs[0], xs[-1] - hi)
    else:
        X, Y = grid.meshgrid()
        xs, ys = grid.axis(0), grid.axis(1)
        margin = min(
            X[mask].min() - xs[0],
            xs[-1] - X[mask].max(),
            Y[mask].min() - ys[0],
            ys[-1] - Y[mask].max(),
        )
    if margin < spread:
        warnings.warn(
            f"boundary influence likely reaches the comparison region "
            f"(margin {margin:.2f} < spread {spread:.2f})",
            BoundaryContamination,
        )


def fd_evolve(M, u0, grid: Grid, tau_end, bc="absorbing", bc_value=0.0) -> Grid:
    """Evolve u_tau = (1/2) Lap u - M u from tau=0 to tau_end.

    One dimension: Crank-Nicolson with the reaction folded into the theta
    scheme.  Two dimensions: Douglas splitting with the reaction term taken
    explicitly and corrected by a second trapezoidal pass, second order in
    dt and h.  Deterministic for fixed inputs; runs on the calling thread.

    The implicit matrices are constant and, with the boundary couplings
    moved to the right-hand side, symmetric positive definite, so each is
    factored once per run as L D L^T (LAPACK ``dpttrf``) and every step only
    back-substitutes (``dpttrs``); each step evaluates the half-Laplacians
    of u once and reuses them.  The result agrees with solving each step's
    full matrix with ``solve_banded`` to within 1e-12 of max |u|.

    ``tau_end`` must be finite, at least 0 and a whole number of steps.
    ``bc`` is ``"absorbing"`` (zero boundary values) or ``"fixed"`` (the
    boundary held at ``bc_value``); any other value raises
    :class:`ConfigError`.  Raises :class:`UnstableConfig` for a bad
    ``tau_end`` and when the evolved values are not finite.
    """
    if bc not in ("absorbing", "fixed"):
        raise ConfigError(f"bc must be 'absorbing' or 'fixed', got {bc!r}")
    if not (math.isfinite(tau_end) and tau_end >= 0.0):
        raise UnstableConfig(f"tau_end must be finite and >= 0, got {tau_end!r}")
    steps = int(round(tau_end / grid.dt))
    if abs(steps * grid.dt - tau_end) > 1e-9 * max(1.0, tau_end):
        raise UnstableConfig("tau_end must be an integer number of time steps")
    dt = grid.dt
    hdt = 0.5 * dt
    bval = 0.0 if bc == "absorbing" else float(bc_value)

    if grid.dims == 1:
        xs = grid.axis(0)
        h = grid.spacing(0)
        u = np.array([u0(x) for x in xs], dtype=float)
        mvals = np.array([M(x) for x in xs], dtype=float)
        if dt * float(np.max(np.abs(mvals))) > 2.0:
            raise UnstableConfig("dt too large for the reaction term (growth check)")
        _check_contamination(u, grid, tau_end)
        n = len(xs)
        solve = _tridiagonal_solver(n, h, dt, bval, 0.5 * dt * mvals[1:-1])
        hh = h * h
        lap, expl, rhs = np.zeros(n), np.empty(n), np.empty(n)
        u[0] = u[-1] = bval
        for _ in range(steps):
            # explicit half plus implicit half (theta = 1/2):
            # rhs = u + (dt/2) ((1/2) D2 u - M u)
            _half_lap_into(u, hh, lap)
            np.multiply(mvals, u, out=expl)
            np.subtract(lap, expl, out=expl)
            expl *= hdt
            np.add(u, expl, out=rhs)
            rhs[0] = rhs[-1] = bval
            u, rhs = solve(rhs), u
        return _evolved(grid, u, steps)

    # two dimensions: Douglas + trapezoidal correction
    hx, hy = grid.spacing(0), grid.spacing(1)
    hxx, hyy = hx * hx, hy * hy
    X, Y = grid.meshgrid()
    u = np.ascontiguousarray(np.vectorize(u0)(X, Y), dtype=float)
    mvals = np.vectorize(M)(X, Y).astype(float)
    if dt * float(np.max(np.abs(mvals))) > 1.0:
        raise UnstableConfig("dt too large for the explicit reaction term")
    _check_contamination(u, grid, tau_end)
    u[0, :] = u[-1, :] = bval
    u[:, 0] = u[:, -1] = bval

    nx, ny = u.shape
    solve_x = _tridiagonal_solver(nx, hx, dt, bval)
    solve_y = _tridiagonal_solver(ny, hy, dt, bval)
    # every full-grid pass runs on C-ordered buffers; lap_x, lap_y keep zero
    # edges.  The x solve works in place on the Fortran-ordered rhs_x, filled
    # and read back by plain copies, and the y solve on the transpose of a
    # C-ordered buffer
    lap_x, lap_y = np.zeros_like(u), np.zeros_like(u)
    f_u, f_y2, y0, y2, cx, cy, tmp = (np.empty_like(u) for _ in range(7))
    rhs_x = np.empty(u.shape, order="F")

    def F(v, out):
        # (1/2) Lap v - M v; leaves the half-Laplacians of v in lap_x, lap_y
        _half_lap_into(v, hxx, lap_x, 0)
        _half_lap_into(v, hyy, lap_y, 1)
        np.add(lap_x, lap_y, out=out)
        np.multiply(mvals, v, out=tmp)
        out -= tmp

    def sweeps(rhs, out):
        # implicit x then implicit y, each against the explicit half-step of u
        np.subtract(rhs, cx, out=tmp)
        tmp[0] = tmp[-1] = bval
        rhs_x[...] = tmp
        out[...] = solve_x(rhs_x)
        out -= cy
        out[:, 0] = out[:, -1] = bval
        solve_y(out.T)

    for _ in range(steps):
        F(u, f_u)
        np.multiply(lap_x, hdt, out=cx)
        np.multiply(lap_y, hdt, out=cy)
        np.multiply(f_u, dt, out=y0)
        y0 += u
        sweeps(y0, y2)
        # corrector right-hand side y0 + (dt/2) (F(y2) - F(u))
        F(y2, f_y2)
        f_y2 -= f_u
        f_y2 *= hdt
        f_y2 += y0
        sweeps(f_y2, u)
        u[0, :] = u[-1, :] = bval
        u[:, 0] = u[:, -1] = bval
    return _evolved(grid, u, steps)


def _evolved(grid, u, steps):
    if not np.all(np.isfinite(u)):
        raise UnstableConfig("the evolution produced non-finite values")
    return Grid(grid.extents, grid.dt, u, tau=steps * grid.dt)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SdeConfig:
    vol1: object
    vol2: object = None
    rho: float = 0.0
    mu1: float = 0.0
    mu2: float = 0.0
    use_risk_neutral: bool = True
    rate: float = 0.0
    s0_1: float = 1.0
    s0_2: float = 1.0
    paths: int = 100_000
    steps: int = 64
    seed: int = 0
    explosion_cap_mult: float = 1e6
    max_excluded_frac: float = 0.01

    def __post_init__(self):
        if not all(isinstance(v, numbers.Integral) for v in (self.paths, self.steps)):
            raise UnstableConfig("paths and steps must be integers")
        if self.paths < 1 or self.steps < 1:
            raise UnstableConfig("paths and steps must be at least 1")
        if not (isinstance(self.seed, numbers.Integral) and 0 <= self.seed < 2**128):
            raise UnstableConfig(f"seed must be an integer in [0, 2**128), got {self.seed!r}")
        if abs(self.rho) >= 1.0:
            raise UnstableConfig("|rho| < 1 required for the correlation factor")


@dataclass
class SampleSet:
    s1: np.ndarray
    s2: np.ndarray | None
    n_excluded: int
    seed: int

    def to_csv(self, path):
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            if self.s2 is None:
                w.writerow(["path_id", "S1"])
                for i, v in enumerate(self.s1):
                    w.writerow([i, repr(float(v))])
            else:
                w.writerow(["path_id", "S1", "S2"])
                for i, (v1, v2) in enumerate(zip(self.s1, self.s2)):
                    w.writerow([i, repr(float(v1)), repr(float(v2))])


_CHUNK = 1 << 16


def _workers(n_blocks):
    """Threads for ``n_blocks`` blocks of work: one per core this process
    may run on, and no more than there are blocks."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU-affinity call on this platform
        cores = os.cpu_count() or 1
    return min(n_blocks, cores)


def mc_simulate(cfg: SdeConfig, T: float) -> SampleSet:
    """Euler-Maruyama terminal samples.

    Correlated increments come from a Cholesky mix of independent draws; the
    counter-based generator is jumped per path block, so path streams do not
    depend on scheduling.  Paths crossing zero are absorbed (full truncation);
    paths exceeding the explosion cap are flagged and excluded with the count
    reported.  ``T`` must be finite and at least 0 (:class:`UnstableConfig`).

    Blocks of ``_CHUNK`` paths run on a thread pool with one worker per core
    this process may use (``os.sched_getaffinity``), or inline when there is
    one block.  Each block's generator is built before the pool starts and
    each block writes only its own slice of the output, so the samples are
    bit-identical whatever the number of workers.
    """
    if not (math.isfinite(T) and T >= 0.0):
        raise UnstableConfig(f"T must be finite and >= 0, got {T!r}")
    dt = T / cfg.steps
    sq = math.sqrt(dt)
    mu1 = cfg.rate if cfg.use_risk_neutral else cfg.mu1
    mu2 = cfg.rate if cfg.use_risk_neutral else cfg.mu2
    # one leg per asset: (vol, drift, start, explosion cap)
    legs = [(cfg.vol1, mu1, cfg.s0_1, cfg.explosion_cap_mult * cfg.s0_1)]
    if cfg.vol2 is not None:
        legs.append((cfg.vol2, mu2, cfg.s0_2, cfg.explosion_cap_mult * cfg.s0_2))
    mix = (cfg.rho, math.sqrt(1.0 - cfg.rho**2))

    outs = [np.empty(cfg.paths) for _ in legs]
    excluded = np.empty(cfg.paths, dtype=bool)
    base = np.random.Philox(key=cfg.seed)
    n_chunks = (cfg.paths + _CHUNK - 1) // _CHUNK
    blocks = [
        (slice(k * _CHUNK, min(cfg.paths, (k + 1) * _CHUNK)), np.random.Generator(base.jumped(k)))
        for k in range(n_chunks)
    ]
    workers = _workers(n_chunks)
    # worker j runs blocks j, j + workers, ...; its scratch arrays are
    # allocated here, in the calling thread: blocks that allocated their own
    # in the worker threads left about 4 MB more resident afterwards
    scratch = [_block_scratch(min(cfg.paths, _CHUNK), len(legs)) for _ in range(workers)]

    def run(lane):
        for paths, rng in blocks[lane::workers]:
            _euler_block(rng, legs, mix, [o[paths] for o in outs], excluded[paths],
                         cfg.steps, dt, sq, scratch[lane])

    if workers <= 1:
        run(0)
    else:
        from concurrent.futures import ThreadPoolExecutor  # kept out of the cold start

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run, range(workers)))

    n_exc = int(np.sum(excluded))
    if n_exc > cfg.max_excluded_frac * cfg.paths:
        raise PathExplosion(
            f"{n_exc} of {cfg.paths} paths exceeded the explosion cap"
        )
    if n_exc:
        keep = ~excluded
        outs = [o[keep] for o in outs]
    return SampleSet(outs[0], outs[1] if len(legs) == 2 else None, n_exc, cfg.seed)


def _block_scratch(m, n_legs):
    """Work arrays for blocks of up to ``m`` paths: four float buffers, one
    flag buffer and the absorbed flags of each leg."""
    return [np.empty(m) for _ in range(4)] + [np.empty(m, dtype=bool) for _ in range(1 + n_legs)]


def _euler_block(rng, legs, mix, prices, boom, steps, dt, sq, scratch):
    """Run one block of paths, writing each leg's terminal prices into
    ``prices`` and the explosion flags into ``boom`` (views of the outputs).

    Every update is made in place with the association of the plain
    formulas, ``(S + (mu S) dt) + (sigma(S) sqrt(dt)) Z`` and
    ``rho Z1 + sqrt(1 - rho^2) W``, so the results keep their bits."""
    m = len(boom)
    z, w, v, t, flag, *dead = (a[:m] for a in scratch)
    for d in dead:
        d.fill(False)
    boom.fill(False)
    for s, (_, _, s0, _) in zip(prices, legs):
        s.fill(s0)
    rho, rho_c = mix
    # numpy's error state is per thread, so it is set here, in the worker:
    # exploding paths may overflow before the cap flags them; the
    # flag-and-exclude bookkeeping handles those values
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps):
            rng.standard_normal(out=z)
            _euler_step(legs[0], prices[0], z, dead[0], boom, v, t, flag, dt, sq)
            if len(legs) == 2:
                rng.standard_normal(out=w)
                w *= rho_c
                np.multiply(z, rho, out=v)
                w += v
                _euler_step(legs[1], prices[1], w, dead[1], boom, v, t, flag, dt, sq)


def _euler_step(leg, s, z, dead, boom, v, t, flag, dt, sq):
    """One Euler step of one leg, in place; ``v``, ``t``, ``flag`` are scratch."""
    vol, mu, s0, cap = leg
    np.maximum(s, 1e-300, out=v)
    _diffusion_into(vol, v)
    if not s0 > 0.0:
        # the diffusion vanishes at and below zero.  With a positive start
        # only absorbed paths sit there, and the floor below resets them to
        # zero whatever their diffusion, so only this case needs the mask
        np.greater(s, 0.0, out=flag)
        np.logical_not(flag, out=flag)
        np.copyto(v, 0.0, where=flag)
    v *= sq
    v *= z
    np.multiply(s, mu, out=t)
    t *= dt
    s += t
    s += v
    np.less_equal(s, 0.0, out=flag)
    dead |= flag
    np.copyto(s, 0.0, where=dead)
    if math.isfinite(cap):
        # after the floor no price is below zero, so "not s <= cap" is
        # exactly "non-finite or above the cap"
        np.less_equal(s, cap, out=flag)
        np.logical_not(flag, out=flag)
    else:
        np.isfinite(s, out=flag)
        np.logical_not(flag, out=flag)
        flag |= s > cap
    boom |= flag
    np.copyto(s, s0, where=boom)


def _diffusion_into(vol, v):
    """Overwrite ``v``, prices already floored at 1e-300, with sigma(v) for
    the volatility specs (falls back pointwise)."""
    if isinstance(vol, CEVVol):
        if vol.alpha == 0.0:
            v.fill(vol.sigma)
            return
        # S^(1/2) is sqrt(S) and S^1 is S, bit for bit
        if vol.alpha == 0.5:
            np.sqrt(v, out=v)
        elif vol.alpha != 1.0:
            np.power(v, vol.alpha, out=v)
        v *= vol.sigma
    elif isinstance(vol, ExponentialVol):
        np.negative(v, out=v)
        np.exp(v, out=v)
    elif isinstance(vol, RescaledExponentialVol):
        v /= vol.s0
        np.subtract(1.0, v, out=v)
        v *= vol.alpha
        np.exp(v, out=v)
        v *= vol.sigma0 * vol.s0
    else:
        v[:] = [vol.value(x) for x in v]


# ---------------------------------------------------------------------------
# oracle comparison
# ---------------------------------------------------------------------------


_CDF_BLOCK = 1 << 16
_CDF_LEAF = 8


def sup_cdf_distance(samples, model_cdf, atom_at_zero=0.0):
    """Kolmogorov distance between a sample set and a model CDF.

    Tied samples are deduplicated so a point mass (the absorbed-at-zero atom)
    is compared jump-against-jump; the model's only discontinuity is at zero.
    Its jump there is ``model_cdf(0.0)`` against a left limit of 0, so
    ``atom_at_zero`` is never read; the parameter stays for the callers that
    pass it.  ``model_cdf`` takes one value, must be nondecreasing, and a NaN
    it returns is skipped.

    The search calls it only where the maximum can lie.  Between two distinct
    values a < b where the model is known, a nondecreasing model bounds the
    deviation at every value strictly between them by
    max(F(b) - #{samples <= a}/n, #{samples < b}/n - F(a)).  It is first
    called at every ``_CDF_BLOCK``-th distinct value, the last one, and the
    first one >= 0, where the atom rule applies; a gap whose bound does not
    exceed the running maximum is skipped, one of at most ``_CDF_LEAF`` values
    is called outright, and any other is split at its midpoint.  On the 1e6
    samples of acceptance criterion 7c that is about 1 000 calls for 864 012
    distinct values.  Each deviation is computed by the formula of the full
    pass, and rounded subtraction and division are monotone, so no skipped
    deviation exceeds its gap's bound and the result is the full pass's float
    bit for bit.  NaN samples, which have no order, are each called, and a gap
    with a NaN end is never skipped.  If the values the search sees decrease in
    sample order (NaN ignored), the model is no CDF and the function returns
    the full pass, one call per distinct value; a decrease inside a skipped
    gap cannot be seen.

    The distinct values come from one sorted copy and the index where each
    first appears, which needs a third less memory than the values and
    counts of ``numpy.unique``.  Unlike there, NaN samples stay apart; they
    sort last, and splitting a tie away from zero changes no maximum.
    """
    ordered = np.sort(np.asarray(samples), axis=None)
    n = len(ordered)
    first = np.empty(n + 1, dtype=bool)
    first[0] = first[n] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:n])
    values = ordered[first[:n]]
    starts = np.flatnonzero(first)  # samples below each distinct value, then n
    del ordered, first
    m = len(values)
    end = int(np.searchsorted(values, np.nan))  # NaN samples sort last
    sup = 0.0

    def evaluate(lo, hi):
        # the deviations at values[lo:hi] into sup; returns the model there
        nonlocal sup
        v = values[lo:hi]
        model_hi = np.fromiter(map(model_cdf, v), dtype=float, count=len(v))
        model_lo = np.where(v == 0.0, 0.0, model_hi)
        sup = np.fmax.reduce(np.abs(model_hi - starts[lo + 1:hi + 1] / n), initial=sup)
        sup = np.fmax.reduce(np.abs(model_lo - starts[lo:hi] / n), initial=sup)
        return model_hi

    def search():
        # the bounded search; False when the model decreases
        for lo in range(end, m, _CDF_BLOCK):
            evaluate(lo, min(lo + _CDF_BLOCK, m))
        if not end:
            return True
        # the first value >= 0 is a node: the atom rule breaks the bound at zero
        zero = min(int(np.searchsorted(values, 0.0)), end - 1)
        nodes = sorted({*range(0, end, _CDF_BLOCK), zero, end - 1})
        model = [evaluate(i, i + 1)[0] for i in nodes]
        # gaps (a, b, F(a), F(b)) leftmost on top, so every value left of the
        # popped gap is settled and ``last`` is the last finite model value
        gaps = list(zip(nodes, nodes[1:], model, model[1:]))[::-1]
        last = -math.inf
        while gaps:
            a, b, fa, fb = gaps.pop()
            if fa < last:
                return False
            if fa == fa:
                last = fa
            if b - a < 2 or fa == fa and fb == fb and max(
                    fb - starts[a + 1] / n, starts[b] / n - fa) <= sup:
                continue
            if b - a - 1 > _CDF_LEAF:
                mid = (a + b) // 2
                fm = evaluate(mid, mid + 1)[0]
                gaps += [(mid, b, fm, fb), (a, mid, fa, fm)]
                continue
            f = np.append(last, evaluate(a + 1, b))
            f = f[~np.isnan(f)]
            if np.any(f[1:] < f[:-1]):
                return False
            last = f[-1]
        return not model[-1] < last

    if not search():
        sup = 0.0
        for lo in range(0, m, _CDF_BLOCK):
            evaluate(lo, min(lo + _CDF_BLOCK, m))
    return float(sup)


def compare(closed_form, oracle, metric="Linf_rel", threshold=1e-3,
            boundary_margin=0.0, absorbed_mass=None) -> ResidualReport:
    """Compare a closed form against an independent oracle.

    ``metric="Linf_rel"``: oracle is a :class:`Grid`; relative L-infinity over
    the subregion that excludes ``boundary_margin`` near every edge.

    ``metric="cdf_sup"``: oracle is a :class:`SampleSet`; the closed form is a
    density :class:`Grid` (values >= 0 on a price axis) whose CDF, including
    any mass absorbed at zero, is compared against the empirical CDF.
    """
    if metric == "Linf_rel":
        if not isinstance(oracle, Grid) or oracle.values is None:
            raise DomainMismatch("Linf_rel expects an evolved Grid oracle")
        if oracle.dims == 1:
            xs = oracle.axis(0)
            mask = (xs >= xs[0] + boundary_margin) & (xs <= xs[-1] - boundary_margin)
            ref = np.array([closed_form(x, oracle.tau) for x in xs[mask]])
            got = oracle.values[mask]
        else:
            xs, ys = oracle.axis(0), oracle.axis(1)
            mx = (xs >= xs[0] + boundary_margin) & (xs <= xs[-1] - boundary_margin)
            my = (ys >= ys[0] + boundary_margin) & (ys <= ys[-1] - boundary_margin)
            X, Y = np.meshgrid(xs[mx], ys[my], indexing="ij")
            ref = np.vectorize(lambda a, b: closed_form(a, b, oracle.tau))(X, Y)
            got = oracle.values[np.ix_(mx, my)]
        scale = max(float(np.max(np.abs(ref))), 1e-300)
        diff = float(np.max(np.abs(got - ref))) / scale
        return ResidualReport(
            diff, diff, int(got.size), float("nan"), 0,
            "pass" if diff <= threshold else "fail", threshold,
        )

    if metric == "cdf_sup":
        if not isinstance(oracle, SampleSet):
            raise DomainMismatch("cdf_sup expects a Monte Carlo SampleSet oracle")
        if not isinstance(closed_form, Grid) or closed_form.values is None:
            raise DomainMismatch("cdf_sup expects a density Grid for the closed form")
        xs = closed_form.axis(0)
        dens = np.maximum(closed_form.values, 0.0)
        cdf_grid = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) * 0.5 * np.diff(xs))])
        mass = cdf_grid[-1]
        atom = absorbed_mass if absorbed_mass is not None else max(0.0, 1.0 - mass)
        sup = sup_cdf_distance(
            oracle.s1,
            lambda v: atom + float(np.interp(v, xs, cdf_grid, left=0.0, right=cdf_grid[-1])),
            atom_at_zero=atom,
        )
        return ResidualReport(
            sup, sup, len(oracle.s1), float("nan"), 0,
            "pass" if sup <= threshold else "fail", threshold,
        )

    raise DomainMismatch(f"unknown metric {metric!r}")
