"""Verification-oracle tests: residual sampler, FD evolution, Monte Carlo,
oracle comparison."""

import hashlib
import math
import sys
import threading
import warnings

import numpy as np
import pytest

from liesolve import fields, verify
from liesolve.errors import BoundaryContamination, ConfigError, DomainMismatch, UnstableConfig
from liesolve.fields import ScalarField, heat_kernel
from liesolve.transform import CEVVol, ExponentialVol, RescaledExponentialVol, TabulatedVol
from liesolve.verify import Grid, Region, SdeConfig, compare, fd_evolve, fp_residual, mc_simulate

REGION_2D = Region(((-1.5, 1.5), (-1.5, 1.5), (0.5, 2.0)))


def test_fp_residual_heat_kernel():
    u = heat_kernel()
    M = ScalarField(lambda x, y: 0.0, nargs=2)
    rep = fp_residual(u, M, REGION_2D, threshold=1e-6)
    assert rep.passed
    assert rep.max_abs <= 1e-6


def test_fp_residual_constant_solution():
    u = ScalarField(lambda x, y, t: 1.0, nargs=3)
    M = ScalarField(lambda x, y: 0.0, nargs=2)
    rep = fp_residual(u, M, REGION_2D, threshold=1e-12)
    assert rep.max_abs <= 1e-12


def test_fp_residual_negative_control():
    u = heat_kernel()
    M = ScalarField(lambda x, y: 1.0, nargs=2)
    rep = fp_residual(u, M, REGION_2D, threshold=1e-6)
    assert rep.verdict == "fail"
    assert rep.max_abs > 1e-4  # residual = |u| > 0 on the sampling region


def test_sampled_skips_typed_errors_and_non_finite_values():
    from liesolve import hyperdual as hd
    from liesolve.errors import DomainError

    def fn(x, t):
        if x == 1.0:
            raise DomainError("outside the domain")
        if x == 2.0:
            return 1.0 / (x - 2.0)  # ZeroDivisionError, an ArithmeticError
        if x == 3.0:
            return math.nan
        if x == 4.0:
            return math.inf
        return hd.Dual2(x * t, 1.0, 0.0, 0.0)

    pts = [(0.5, 2.0), (1.0, 0.0), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0), (5.0, 1.0)]
    assert verify.sampled(fn, pts) == ([((0.5, 2.0), 1.0), ((5.0, 1.0), 5.0)], 4)

    def defect(x, t):
        raise RuntimeError("defect")

    with pytest.raises(RuntimeError, match="defect"):
        verify.sampled(defect, pts)
    # an infinite |u| (1 + |M|) is skipped, not taken as the scale
    u = lambda x, t: math.inf if x > 1.0 else -3.0
    assert verify.relative_scale(u, lambda x: 1.0, [(0.5, 0.1), (1.5, 0.1)]) == 6.0


def _heat_kernel_derivative(x, y, t, nx, ny):
    """Exact mixed spatial derivative of the heat kernel via probabilists'
    Hermite polynomials: d^n/dx^n e^{-x^2/2t} = (-1/sqrt(t))^n He_n(x/sqrt(t)) e^{...}."""
    from numpy.polynomial.hermite_e import hermeval

    st = math.sqrt(t)

    def he(n, z):
        c = np.zeros(n + 1)
        c[n] = 1.0
        return hermeval(z, c)

    base = math.exp(-(x * x + y * y) / (2 * t)) / (2 * math.pi * t)
    return base * (-1.0 / st) ** (nx + ny) * he(nx, x / st) * he(ny, y / st)


def _heat_kernel_t5(x, y, t):
    """d^5/dt^5 of the heat kernel = (Lap/2)^5 applied to it."""
    total = 0.0
    for k in range(6):
        total += math.comb(5, k) * _heat_kernel_derivative(x, y, t, 2 * k, 10 - 2 * k)
    return total / 32.0


def test_fp_residual_truncation_error_model():
    """Self-calibration: the reported max_abs must sit within a factor of 10
    of the analytic truncation model for the five-point stencils."""
    u = heat_kernel()
    M = ScalarField(lambda x, y: 0.0, nargs=2)
    rep = fp_residual(u, M, REGION_2D, threshold=1.0, n=60)
    # five-point stencils: first-derivative truncation h^4 |f^(5)|/30,
    # second-derivative truncation h^4 |f^(6)|/90
    pts = REGION_2D.points(60)
    eps = 2.220446049250313e-16
    model = 0.0
    for (x, y, t) in pts:
        h_t = verify.RESID_H * max(1.0, t)
        h_x = verify.RESID_H * max(1.0, abs(x))
        h_y = verify.RESID_H * max(1.0, abs(y))
        d5t = abs(_heat_kernel_t5(x, y, t))
        d6x = abs(_heat_kernel_derivative(x, y, t, 6, 0))
        d6y = abs(_heat_kernel_derivative(x, y, t, 0, 6))
        trunc = h_t**4 * d5t / 30 + 0.5 * (h_x**4 * d6x + h_y**4 * d6y) / 90
        # at h = 1e-3 the stencils sit near the truncation/roundoff
        # crossover for O(0.1) fields, so the model carries both terms:
        # |first-deriv roundoff| <= 1.5 eps |u| / h, |second| <= 5.4 eps |u|/h^2
        amp = abs(u.fn(x, y, t))
        round_ = eps * amp * (1.5 / h_t + 0.5 * 5.4 * (1.0 / h_x**2 + 1.0 / h_y**2))
        model = max(model, trunc + round_)
    assert rep.max_abs <= 10 * model
    assert rep.max_abs >= model / 10


# ---------------------------------------------------------------------------
# finite-difference evolution
# ---------------------------------------------------------------------------


def gaussian_2d(s):
    def fn(x, y):
        return math.exp(-(x * x + y * y) / (2.0 * s)) / (2.0 * math.pi * s)

    return fn


@pytest.mark.filterwarnings("ignore::liesolve.errors.BoundaryContamination")
def test_fd_evolve_1d_heat():
    s0, tau = 0.5, 0.5
    grid = Grid(((-8.0, 8.0, 257),), dt=1e-3)
    u0 = lambda x: math.exp(-x * x / (2 * s0)) / math.sqrt(2 * math.pi * s0)
    out = fd_evolve(lambda x: 0.0, u0, grid, tau)
    xs = out.axis(0)
    s1 = s0 + tau
    ref = np.exp(-xs**2 / (2 * s1)) / math.sqrt(2 * math.pi * s1)
    assert float(np.max(np.abs(out.values - ref))) <= 1e-3


def test_fd_evolve_zero_initial():
    grid = Grid(((-4.0, 4.0, 33),), dt=1e-2)
    out = fd_evolve(lambda x: 0.0, lambda x: 0.0, grid, 0.1)
    assert np.all(out.values == 0.0)


@pytest.mark.slow
@pytest.mark.filterwarnings("ignore::liesolve.errors.BoundaryContamination")
def test_fd_evolve_2d_heat_spec_settings():
    # 256^2 grid on [-8, 8]^2, dt = 1e-3, tau = 0.5: L-inf error <= 1e-3
    s0, tau = 0.5, 0.5
    grid = Grid(((-8.0, 8.0, 256), (-8.0, 8.0, 256)), dt=1e-3)
    out = fd_evolve(lambda x, y: 0.0, gaussian_2d(s0), grid, tau)
    X, Y = out.meshgrid()
    s1 = s0 + tau
    ref = np.exp(-(X**2 + Y**2) / (2 * s1)) / (2 * math.pi * s1)
    err = float(np.max(np.abs(out.values - ref)))
    assert err <= 1e-3


@pytest.mark.filterwarnings("ignore::liesolve.errors.BoundaryContamination")
def test_fd_evolve_2d_convergence_order():
    # halving h and dt should quarter the error: observed order in [1.7, 2.3]
    s0, tau = 0.5, 0.25
    errs = []
    M = lambda x, y: 0.5 + 0.1 * math.tanh(x) * math.tanh(y)
    fine = Grid(((-7.0, 7.0, 193), (-7.0, 7.0, 193)), dt=6.25e-4)
    ref = fd_evolve(M, gaussian_2d(s0), fine, tau)
    for (n, dt) in ((49, 5e-3), (97, 2.5e-3)):
        grid = Grid(((-7.0, 7.0, n), (-7.0, 7.0, n)), dt=dt)
        out = fd_evolve(M, gaussian_2d(s0), grid, tau)
        # compare on the coarse nodes (every grid nests in the fine one)
        step = (193 - 1) // (n - 1)
        ref_on_coarse = ref.values[::step, ::step]
        errs.append(float(np.max(np.abs(out.values - ref_on_coarse))))
    order = math.log2(errs[0] / errs[1])
    assert 1.7 <= order <= 2.3, (errs, order)


def test_fd_evolve_mass_conservation():
    grid = Grid(((-8.0, 8.0, 161), (-8.0, 8.0, 161)), dt=2e-3)
    out = fd_evolve(lambda x, y: 0.0, gaussian_2d(0.4), grid, 0.5)
    hx, hy = grid.spacing(0), grid.spacing(1)
    mass = float(np.sum(out.values)) * hx * hy
    assert mass == pytest.approx(1.0, abs=1e-4)


def test_fd_evolve_growth_guard():
    grid = Grid(((-4.0, 4.0, 33), (-4.0, 4.0, 33)), dt=0.5)
    with pytest.raises(UnstableConfig):
        fd_evolve(lambda x, y: 100.0, gaussian_2d(0.5), grid, 1.0)


def test_fd_evolve_contamination_warning():
    grid = Grid(((-2.0, 2.0, 65),), dt=1e-2)
    u0 = lambda x: math.exp(-x * x)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fd_evolve(lambda x: 0.0, u0, grid, 1.0)
    assert any(issubclass(w.category, BoundaryContamination) for w in caught)


def test_fd_evolve_rejects_non_finite_initial_values():
    grid = Grid(((-2.0, 2.0, 65),), dt=1e-2)
    u0 = lambda x: math.nan if abs(x) < 0.1 else math.exp(-x * x)
    with pytest.raises(UnstableConfig, match="initial values are not finite"):
        fd_evolve(lambda x: 0.0, u0, grid, 1.0)


@pytest.mark.parametrize("extents", [(), ((-1.0, 1.0, 17),) * 3])
def test_grid_needs_one_or_two_axes(extents):
    with pytest.raises(UnstableConfig, match="one or two axes"):
        Grid(extents, dt=1e-2)


@pytest.mark.parametrize("dims", [1, 2])
def test_fd_evolve_rejects_unknown_bc(dims):
    grid = Grid(((-4.0, 4.0, 33),) * dims, dt=1e-2)
    u0 = lambda *x: math.exp(-sum(v * v for v in x))
    with pytest.raises(ConfigError, match="'absorbing' or 'fixed'"):
        fd_evolve(lambda *x: 0.0, u0, grid, 0.1, bc="reflecting", bc_value=0.3)


@pytest.mark.parametrize("tau_end", [-0.1, math.nan, math.inf, -math.inf])
def test_fd_evolve_rejects_bad_tau_end(tau_end):
    grid = Grid(((-4.0, 4.0, 33),), dt=1e-2)
    with pytest.raises(UnstableConfig, match="tau_end must be finite and >= 0"):
        fd_evolve(lambda x: 0.0, lambda x: math.exp(-x * x), grid, tau_end)


@pytest.mark.parametrize("n", [33.5, 33.0, "33", None])
def test_grid_rejects_non_integer_point_counts(n):
    with pytest.raises(UnstableConfig, match="point counts must be integers"):
        Grid(((-4.0, 4.0, n),), dt=1e-2)
    assert len(Grid(((-4.0, 4.0, np.int64(33)),), dt=1e-2).axis(0)) == 33


@pytest.mark.parametrize("lo, hi, dt", [
    (math.nan, 4.0, 1e-2), (-4.0, math.inf, 1e-2), (4.0, -4.0, 1e-2),
    (-4.0, 4.0, math.nan), (-4.0, 4.0, math.inf), (-4.0, 4.0, 0.0),
])
def test_grid_rejects_non_finite_extents_or_dt(lo, hi, dt):
    with pytest.raises(UnstableConfig, match="must be finite and"):
        Grid(((lo, hi, 33),), dt=dt)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_mc_gbm_martingale_mean():
    cfg = SdeConfig(
        vol1=CEVVol(0.2, 1.0), rho=0.0, use_risk_neutral=True, rate=0.05,
        s0_1=1.0, paths=1_000_000, steps=64, seed=42,
    )
    out = mc_simulate(cfg, T=1.0)
    mean = float(np.mean(out.s1))
    se = float(np.std(out.s1) / math.sqrt(len(out.s1)))
    target = math.exp(0.05)
    assert abs(mean - target) <= 3 * se
    assert target == pytest.approx(1.0512710963760241, rel=1e-12)


def test_mc_zero_vol_deterministic():
    from liesolve.transform import TabulatedVol

    cfg = SdeConfig(
        vol1=TabulatedVol(lambda s: 0.0, lambda s: 0.0), use_risk_neutral=True,
        rate=0.04, s0_1=2.0, paths=100, steps=32, seed=1,
    )
    out = mc_simulate(cfg, T=1.0)
    # Euler compounding of the drift: S0 (1 + r dt)^n, all paths identical
    expected = 2.0 * (1 + 0.04 / 32) ** 32
    assert np.all(out.s1 == out.s1[0])
    assert out.s1[0] == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("T", [-1.0, math.nan, math.inf, -math.inf])
def test_mc_simulate_rejects_bad_horizon(T):
    cfg = SdeConfig(vol1=CEVVol(0.3, 1.0), paths=10, steps=4)
    with pytest.raises(UnstableConfig, match="T must be finite and >= 0"):
        mc_simulate(cfg, T=T)


@pytest.mark.parametrize("kw", [dict(paths=1e3), dict(steps=8.0), dict(paths="10")])
def test_sde_config_rejects_non_integer_counts(kw):
    with pytest.raises(UnstableConfig, match="paths and steps must be integers"):
        SdeConfig(vol1=CEVVol(0.3, 1.0), **kw)


def test_mc_zero_correlation():
    cfg = SdeConfig(
        vol1=CEVVol(0.2, 1.0), vol2=CEVVol(0.3, 1.0), rho=0.0,
        use_risk_neutral=True, rate=0.0, paths=200_000, steps=16, seed=3,
    )
    out = mc_simulate(cfg, T=1.0)
    r1 = np.log(out.s1)
    r2 = np.log(out.s2)
    corr = float(np.corrcoef(r1, r2)[0, 1])
    assert abs(corr) <= 3.0 / math.sqrt(len(out.s1))


def test_mc_bit_reproducible():
    cfg = SdeConfig(vol1=CEVVol(0.4, 0.7), rate=0.02, s0_1=1.0, paths=5000, steps=16, seed=11)
    a = mc_simulate(cfg, T=0.5)
    b = mc_simulate(cfg, T=0.5)
    assert np.array_equal(a.s1, b.s1)


def test_mc_correlated_pair_reproduces_rho():
    cfg = SdeConfig(
        vol1=CEVVol(0.2, 1.0), vol2=CEVVol(0.2, 1.0), rho=0.6,
        rate=0.0, paths=200_000, steps=16, seed=9,
    )
    out = mc_simulate(cfg, T=1.0)
    corr = float(np.corrcoef(np.log(out.s1), np.log(out.s2))[0, 1])
    assert corr == pytest.approx(0.6, abs=0.01)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


@pytest.mark.filterwarnings("ignore::liesolve.errors.BoundaryContamination")
def test_compare_grid_self():
    grid = Grid(((-8.0, 8.0, 129),), dt=1e-2)
    out = fd_evolve(lambda x: 0.0, lambda x: math.exp(-x * x), grid, 0.2)
    f = lambda x, tau: np.interp(x, out.axis(0), out.values)
    rep = compare(f, out, metric="Linf_rel", threshold=1e-12)
    assert rep.passed


@pytest.mark.filterwarnings("ignore::liesolve.errors.BoundaryContamination")
def test_compare_heat_kernel_vs_fd():
    s0, tau = 0.5, 0.5
    grid = Grid(((-8.0, 8.0, 257),), dt=1e-3)
    u0 = lambda x: math.exp(-x * x / (2 * s0)) / math.sqrt(2 * math.pi * s0)
    out = fd_evolve(lambda x: 0.0, u0, grid, tau)

    def exact(x, tau_):
        s1 = s0 + tau_
        return math.exp(-x * x / (2 * s1)) / math.sqrt(2 * math.pi * s1)

    rep = compare(exact, out, metric="Linf_rel", threshold=1e-3, boundary_margin=1.0)
    assert rep.passed


def test_compare_domain_mismatch():
    with pytest.raises(DomainMismatch):
        compare(lambda x, t: 0.0, object(), metric="Linf_rel")
    with pytest.raises(DomainMismatch):
        compare(lambda x, t: 0.0, object(), metric="cdf_sup")


# ---------------------------------------------------------------------------
# exports and path-explosion handling
# ---------------------------------------------------------------------------


def test_grid_csv_export(tmp_path):
    grid = Grid(((-1.0, 1.0, 17),), dt=1e-2)
    out = fd_evolve(lambda x: 0.0, lambda x: math.exp(-x * x), grid, 0.05)
    path = tmp_path / "grid.csv"
    out.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,value"
    assert len(lines) == 18


def test_grid_csv_export_2d(tmp_path):
    grid = Grid(((-1.0, 1.0, 17), (-1.0, 1.0, 17)), dt=1e-2)
    out = fd_evolve(lambda x, y: 0.0, lambda x, y: math.exp(-x * x - y * y), grid, 0.02)
    path = tmp_path / "grid2.csv"
    out.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 1 + 17 * 17


def test_sample_set_csv_export(tmp_path):
    cfg = SdeConfig(vol1=CEVVol(0.2, 1.0), rate=0.01, paths=50, steps=4, seed=2)
    out = mc_simulate(cfg, T=0.5)
    path = tmp_path / "samples.csv"
    out.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "path_id,S1"
    assert len(lines) == 51


def test_mc_path_explosion_flagging():
    from liesolve.errors import PathExplosion

    # a super-linear diffusion with a tiny cap: most paths must be flagged
    cfg = SdeConfig(
        vol1=CEVVol(3.0, 2.0), rate=0.0, s0_1=1.0, paths=2000, steps=64, seed=5,
        explosion_cap_mult=5.0, max_excluded_frac=0.0005,
    )
    with pytest.raises(PathExplosion):
        mc_simulate(cfg, T=1.0)
    # a permissive exclusion budget reports the count instead
    cfg2 = SdeConfig(
        vol1=CEVVol(3.0, 2.0), rate=0.0, s0_1=1.0, paths=2000, steps=64, seed=5,
        explosion_cap_mult=5.0, max_excluded_frac=1.0,
    )
    out = mc_simulate(cfg2, T=1.0)
    assert out.n_excluded > 0
    assert len(out.s1) == 2000 - out.n_excluded


def test_compare_cdf_sup_public_api():
    # lognormal terminal law: density grid vs simulated samples
    sigma_t, r, T = 0.3, 0.02, 1.0
    cfg = SdeConfig(
        vol1=CEVVol(sigma_t, 1.0), use_risk_neutral=True, rate=r,
        s0_1=1.0, paths=200_000, steps=128, seed=21,
    )
    mc = mc_simulate(cfg, T=T)
    n = 800
    grid = Grid(((1e-4, 6.0, n),), dt=1.0)
    xs = grid.axis(0)
    mu = (r - 0.5 * sigma_t**2) * T
    dens = np.exp(-((np.log(xs) - mu) ** 2) / (2 * sigma_t**2 * T)) / (
        xs * sigma_t * math.sqrt(2 * math.pi * T)
    )
    grid.values = dens
    rep = compare(grid, mc, metric="cdf_sup", threshold=2e-2)
    assert rep.passed, rep.max_abs
    # Euler discretization + sampling noise, but nowhere near the bound
    assert rep.max_abs < 1e-2


def test_compare_linf_2d():
    s0, tau = 0.5, 0.2
    grid = Grid(((-6.0, 6.0, 65), (-6.0, 6.0, 65)), dt=2e-3)
    u0 = lambda x, y: math.exp(-(x * x + y * y) / (2 * s0)) / (2 * math.pi * s0)
    out = fd_evolve(lambda x, y: 0.0, u0, grid, tau)

    def exact(x, y, tau_):
        s1 = s0 + tau_
        return math.exp(-(x * x + y * y) / (2 * s1)) / (2 * math.pi * s1)

    rep = compare(exact, out, metric="Linf_rel", threshold=5e-3, boundary_margin=1.0)
    assert rep.passed


# ---------------------------------------------------------------------------
# bit-identity of the oracle kernels
# ---------------------------------------------------------------------------

# sha256 of the samples, recorded with the straightforward array engine
# (per-step temporaries, one path block after another)
MC_GOLDEN = {
    # 150 000 paths: three blocks, the last one partial; paths absorbed at 0
    "cev_half": (dict(vol1=CEVVol(1.0, 0.5), rate=0.02, paths=150_000, steps=8, seed=7),
                 "88820f03b3994371ba6f36ccd097ef021313f4a4305d5ea2ecfee8188476e30f"),
    "gbm": (dict(vol1=CEVVol(0.3, 1.0), rate=0.05, paths=70_000, steps=8, seed=8),
            "2c5c2e657d9b34abb3296d74c7bcf211f9e496f9e29378f133399d3129337388"),
    "cev_07": (dict(vol1=CEVVol(0.4, 0.7), rate=0.02, paths=70_000, steps=8, seed=9),
               "d4c8b8bfcee66bf7cec7efea8376475685ad7b9908ef2e5ba6d8215439c87104"),
    "pair": (dict(vol1=CEVVol(0.2, 1.0), vol2=CEVVol(0.6, 0.5), rho=0.6, rate=0.05,
                  paths=70_000, steps=8, seed=10),
             "775e49281f83095e3328a23c403a4c2ee480c1c79e4d82c342d48cbd5b3d40fa"),
    "explode": (dict(vol1=CEVVol(3.0, 2.0), rate=0.0, paths=2000, steps=64, seed=5,
                     explosion_cap_mult=5.0, max_excluded_frac=1.0),
                "b929930d19fe778431407c8563dbc309b7300feb5a8130762a23ea64f4b8b0cc"),
    "explode_pair": (dict(vol1=CEVVol(0.2, 1.0), vol2=CEVVol(3.0, 2.0), rho=-0.3, paths=2000,
                          steps=64, seed=6, explosion_cap_mult=5.0, max_excluded_frac=1.0),
                     "dd762c0a18785812dd174c3e59305715df80718fa0010ce564b256b15ec748b3"),
    "const": (dict(vol1=CEVVol(0.5, 0.0), rate=0.01, paths=3000, steps=16, seed=11),
              "ae221b68825b08752a5ee8dd7c57defe202a6bf5c2b048f505bf0f0224f1525a"),
    # starts on the absorbing floor: the diffusion must vanish there
    "floor": (dict(vol1=CEVVol(0.5, 0.0), s0_1=0.0, paths=3000, steps=4, seed=12),
              "4b95918b9ee6876b77072e278fb7a1f36dcac530473e0089df930348930a7e5b"),
    "expvol": (dict(vol1=ExponentialVol(), rate=0.03, paths=3000, steps=16, seed=13),
               "7be124d6dff768defde20e2a939912ff18efad488cb74f52f912beab39624979"),
    "rexpvol": (dict(vol1=RescaledExponentialVol(0.3, 2.0, 1.5), s0_1=1.5, rate=0.03, paths=3000,
                     steps=16, seed=14),
                "efa48653c6135471ef79a4c986022c82bbb1a31e1e3843701d7682abde85259d"),
    "tabulated": (dict(vol1=TabulatedVol(lambda s: 0.3 * s**0.8, lambda s: 0.24 * s**-0.2),
                       rate=0.01, paths=500, steps=8, seed=15),
                  "e6d8be539812bf5b54e58d082b5703b190db932b02141474a0c427706deafe29"),
}


def _sha(*arrays, tail=b""):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(tail)
    return h.hexdigest()


def _samples_sha(s):
    return _sha(s.s1, *(() if s.s2 is None else (s.s2,)), tail=str(s.n_excluded).encode())


@pytest.mark.parametrize("name", sorted(MC_GOLDEN))
def test_mc_golden_digests(name):
    kw, digest = MC_GOLDEN[name]
    assert _samples_sha(mc_simulate(SdeConfig(**kw), T=1.0)) == digest


_M1 = lambda x: 0.5 + 0.1 * math.tanh(x)
_G1 = lambda x: math.exp(-x * x)
_M2 = lambda x, y: 0.5 + 0.1 * math.tanh(x) * math.tanh(y)
_G2 = lambda x, y: math.exp(-x * x - 0.5 * y * y)
_GRID1 = Grid(((-4.0, 4.0, 65),), dt=1e-2)
_GRID2 = Grid(((-4.0, 4.0, 33), (-3.0, 3.0, 25)), dt=1e-2)
# (M, u0, grid, tau_end, keyword arguments): the four golden runs, absorbing
# and fixed boundary in one and two dimensions
FD_GOLDEN_RUNS = [
    (_M1, _G1, _GRID1, 0.2, {}),
    (_M1, _G1, _GRID1, 0.2, dict(bc="fixed", bc_value=0.1)),
    (_M2, _G2, _GRID2, 0.1, {}),
    (_M2, _G2, _GRID2, 0.1, dict(bc="fixed", bc_value=0.05)),
]


@pytest.mark.filterwarnings("ignore::liesolve.errors.BoundaryContamination")
def test_fd_evolve_golden_digests():
    # recorded with the L D L^T solve; test_fd_evolve_matches_solve_banded
    # bounds their distance from the solve_banded engine
    got = [_sha(fd_evolve(M, u0, grid, tau, **kw).values)
           for M, u0, grid, tau, kw in FD_GOLDEN_RUNS]
    assert got == [
        "dffe0bae15478edf269d5a0b40cc7b8e89d44ccbca0bc1cb1bd80ebcdb4a5675",
        "48b6906d012e4e6b51f2dfc03e9684e51310ba982f403d65a4cb50087966cb97",
        "5b2bdcb2a8bfc009f1eea4c7f132100697a819a55e16a695573b78a67667b872",
        "52fcffc14eb883ac932ba3601030f954ae6440213c3475b2b3b59eaea3cf4827",
    ]


def _half_lap(v, h, axis):
    out = np.zeros_like(v)
    if axis == 0:
        out[1:-1] = 0.5 * (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    else:
        out[:, 1:-1] = 0.5 * (v[:, 2:] - 2.0 * v[:, 1:-1] + v[:, :-2]) / (h * h)
    return out


def _implicit_bands(n, h, dt, reaction):
    # I - (dt/2) (1/2) D2 + reaction, identity boundary rows that keep their
    # couplings, in solve_banded's storage
    coef = 0.5 * dt * 0.5 / (h * h)
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = -coef
    ab[1] = 1.0 + 2.0 * coef + reaction
    ab[1, 0] = ab[1, -1] = 1.0
    ab[0, 1] = ab[2, -2] = 0.0
    return ab


def _solve_banded_reference(M, u0, grid, tau_end, bc="absorbing", bc_value=0.0):
    """fd_evolve's scheme in its first form: per-step temporaries, and each
    implicit step solved by ``scipy.linalg.solve_banded`` on the full
    matrix."""
    from scipy.linalg import solve_banded

    dt, steps = grid.dt, int(round(tau_end / grid.dt))
    bval = 0.0 if bc == "absorbing" else bc_value
    if grid.dims == 1:
        xs, h = grid.axis(0), grid.spacing(0)
        u = np.array([u0(x) for x in xs])
        m = np.array([M(x) for x in xs])
        ab = _implicit_bands(len(xs), h, dt, 0.5 * dt * m)
        u[0] = u[-1] = bval
        for _ in range(steps):
            rhs = u + 0.5 * dt * (_half_lap(u, h, 0) - m * u)
            rhs[0] = rhs[-1] = bval
            u = solve_banded((1, 1), ab, rhs)
        return u
    hx, hy = grid.spacing(0), grid.spacing(1)
    X, Y = grid.meshgrid()
    u = np.vectorize(u0)(X, Y).astype(float)
    m = np.vectorize(M)(X, Y).astype(float)
    abx = _implicit_bands(X.shape[0], hx, dt, 0.0)
    aby = _implicit_bands(X.shape[1], hy, dt, 0.0)
    u[0, :] = u[-1, :] = u[:, 0] = u[:, -1] = bval

    def F(v):
        return _half_lap(v, hx, 0) + _half_lap(v, hy, 1) - m * v

    def sweeps(rhs, v_old):
        b = rhs - 0.5 * dt * _half_lap(v_old, hx, 0)
        b[0, :] = b[-1, :] = bval
        b = solve_banded((1, 1), abx, b) - 0.5 * dt * _half_lap(v_old, hy, 1)
        b[:, 0] = b[:, -1] = bval
        return solve_banded((1, 1), aby, b.T).T

    for _ in range(steps):
        y0 = u + dt * F(u)
        y2 = sweeps(y0, u)
        u = sweeps(y0 + 0.5 * dt * (F(y2) - F(u)), u)
        u[0, :] = u[-1, :] = u[:, 0] = u[:, -1] = bval
    return u


@pytest.mark.filterwarnings("ignore::liesolve.errors.BoundaryContamination")
@pytest.mark.parametrize("run", [
    *FD_GOLDEN_RUNS,
    # a rung of the 2-D convergence-order check
    (_M2, lambda x, y: math.exp(-(x * x + y * y)) / math.pi,
     Grid(((-7.0, 7.0, 97), (-7.0, 7.0, 97)), dt=2.5e-3), 0.25, {}),
], ids=["1d", "1d-fixed", "2d", "2d-fixed", "2d-97"])
def test_fd_evolve_matches_solve_banded(run):
    M, u0, grid, tau, kw = run
    ref = _solve_banded_reference(M, u0, grid, tau, **kw)
    got = fd_evolve(M, u0, grid, tau, **kw).values
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::liesolve.errors.BoundaryContamination")
def test_fd_evolve_non_finite_is_typed():
    # the second difference of values near the largest double overflows
    u0 = lambda x: 1e308 * math.exp(-x * x)
    with pytest.raises(UnstableConfig):
        fd_evolve(lambda x: 0.0, u0, Grid(((-6.0, 6.0, 65),), dt=1e-2), 0.05)


def test_mc_worker_count_independence(monkeypatch):
    def run(cfg, workers):
        monkeypatch.setattr(verify, "_workers", lambda n_blocks: workers)
        # more workers than blocks or cores, switching threads often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            return mc_simulate(cfg, T=1.0)
        finally:
            sys.setswitchinterval(interval)

    for name in ("cev_half", "pair"):
        cfg = SdeConfig(**MC_GOLDEN[name][0])
        one, four = run(cfg, 1), run(cfg, 4)
        assert np.array_equal(one.s1, four.s1)
        if one.s2 is not None:
            assert np.array_equal(one.s2, four.s2)
        assert one.n_excluded == four.n_excluded

    # three blocks whose paths overflow before the cap flags them: the
    # workers must run under the same floating-point error state
    boom = SdeConfig(vol1=CEVVol(3.0, 2.0), rate=0.0, paths=140_000, steps=16, seed=5,
                     explosion_cap_mult=1e300, max_excluded_frac=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run(boom, 4)
    assert out.n_excluded > 0
    assert np.array_equal(out.s1, run(boom, 1).s1)


def _sup_cdf_reference(samples, model_cdf):
    """The scalar loop that the blocked reduction replaces."""
    values, counts = np.unique(np.asarray(samples), return_counts=True)
    n = counts.sum()
    cum = np.cumsum(counts)
    sup = 0.0
    for v, hi, c in zip(values, cum, counts):
        emp_hi = hi / n
        emp_lo = (hi - c) / n
        model_hi = model_cdf(v)
        model_lo = 0.0 if v == 0.0 else model_hi
        sup = max(sup, abs(model_hi - emp_hi), abs(model_lo - emp_lo))
    return float(sup)


def test_sup_cdf_distance_matches_scalar_loop(monkeypatch):
    monkeypatch.setattr(verify, "_CDF_BLOCK", 1 << 12)
    rng = np.random.default_rng(4)
    # an atom at zero, ties from rounding, and several blocks of values,
    # the last one partial
    samples = np.concatenate([np.zeros(3000), np.round(rng.exponential(1.0, 27_000), 5)])
    assert 4 * verify._CDF_BLOCK < len(np.unique(samples)) < len(samples) - 3000
    # NaN samples, and a signed zero that ties with the atom
    samples = rng.permutation(np.concatenate([samples, [np.nan] * 5, [-0.0] * 7]))
    # the model fits the samples, so that the jump at zero sets the distance
    # whenever it is compared the wrong way
    xs = np.linspace(0.0, 9.0, 400)
    smooth = lambda v: 0.1 + 0.9 * float(np.interp(v, xs, 1.0 - np.exp(-xs), left=0.0))
    holey = lambda v: math.nan if 1.0 < v < 1.5 else smooth(v)
    nan_aware = lambda v: 0.5 if v != v else smooth(v)
    for model in (smooth, holey, nan_aware):
        got = verify.sup_cdf_distance(samples, model, atom_at_zero=0.1)
        assert got == _sup_cdf_reference(samples, model)
    assert verify.sup_cdf_distance(samples, smooth) < 0.02
    assert verify.sup_cdf_distance(np.array([]), smooth) == 0.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.filterwarnings("ignore::liesolve.errors.BoundaryContamination")
def test_fd_evolve_keeps_error_state():
    # the half-Laplacian overflows only at x > 1: the step raises under the
    # caller's error state and starts no thread
    u0 = lambda x, y: 1.5e308 * math.exp(-(x - 2.0) ** 2 - y * y)
    grid = Grid(((-4.0, 4.0, 41), (-4.0, 4.0, 41)), dt=1e-2)
    threads = threading.active_count()
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        fd_evolve(lambda x, y: 0.0, u0, grid, 0.1)
    assert threading.active_count() == threads
    with pytest.raises(UnstableConfig):
        fd_evolve(lambda x, y: 0.0, u0, grid, 0.1)
    # near 1e307, rising from the zero boundary with second differences that
    # do not overflow: the y half-Laplacian, one pass over the flattened
    # rows, must not overflow at its lanes that wrap around the edge columns
    # ((1/2) 1.5e307 / 0.2^2), nor leave non-finite values there
    ramp = (0.0, 1.5, 3.0, 4.0, 4.5)
    q = lambda t: ramp[min(round((t + 4.0) / 0.2), round((4.0 - t) / 0.2), 4)]
    u0 = lambda x, y: 1e307 * (q(x) * q(y) / 4.5)
    with np.errstate(over="raise", invalid="raise"):
        strict = fd_evolve(lambda x, y: 0.0, u0, grid, 0.05).values
    assert np.array_equal(strict, fd_evolve(lambda x, y: 0.0, u0, grid, 0.05).values)
