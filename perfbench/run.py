"""liesolve benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload cli_mix --seed 0 --seconds 36 --trace 0

Run from a source checkout; the program is imported from ``src/`` next to
this directory.  Each run

1. measures set-up: ``SETUP_SPAWNS`` fresh interpreters, each importing
   ``liesolve.cli`` and building the catalog (after one unmeasured spawn
   that writes the bytecode cache);
2. runs whole passes of the workload until the next one would end after
   ``--seconds`` (always at least one).  Every pass runs the ops generated
   from ``--seed``, and every pass must give the verdicts and output digests
   of the first.  With ``--trace 1`` each pass runs twice, untraced and then
   traced;
3. checks every op's output (see ``workloads.py``) and prints the outcome
   table, the run metadata, and every metric with its unit and sample
   count;
4. prints as its last line one JSON object: ``correct``, ``attempted``,
   ``failed`` and the end-to-end (``--trace 0``) or per-layer
   (``--trace 1``) metrics.

Every time metric is corrected for the drift of the machine's speed: a
fixed pure-Python probe of about 2 ms runs at the start and end of a pass
and every ``PROBE_EVERY_S`` during it (from an interval timer, so long ops
are sampled too; its cost is taken out of the op times), and around every
set-up spawn.  A time is scaled by ``PROBE_REF_S / median(probe)`` over the
probes of its pass.  On a shared 2-vCPU VM the speed drifts by +-20% over
minutes; the probe follows that drift, so the correction keeps runs made
minutes apart comparable.  The uncorrected times and the probe medians are
printed as context.

The exit code is 0 when every op ended as expected or as listed in
``workloads.KNOWN_FAILURES``, 1 when an output is wrong, and 2 when the
program cannot be loaded from this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

DEFAULT_SEED = 0
# seed kept back while a change is written, for confirming a claimed gain
HELD_OUT_SEED = 1
SETUP_SPAWNS = 5
SETUP_TIMEOUT_S = 60
PROBE_ITERS = 50_000
# probe time of the reference machine (2-vCPU x86_64 VM, CPython 3.11) in a
# quiet spell; corrected times are seconds at that machine speed
PROBE_REF_S = 1.8e-3
PROBE_EVERY_S = 0.2
SETUP_PROBES = 3  # before each spawn

_SETUP_CHILD = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import liesolve.cli as c\n"
    "t1 = time.perf_counter()\n"
    "c.catalog()\n"
    "t2 = time.perf_counter()\n"
    "print(t1 - t0, t2 - t1, c.__file__)\n"
)


def _fail_load(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_program():
    """Import liesolve from this checkout's src/, and only from there."""
    if not (SRC / "liesolve" / "__init__.py").is_file():
        _fail_load(f"no liesolve sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import liesolve.cli
    except ImportError as exc:
        _fail_load(f"cannot import liesolve: {exc}")
    if Path(liesolve.cli.__file__).resolve().parent.parent != SRC.resolve():
        _fail_load(f"liesolve imported from {liesolve.cli.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# context: metadata and the noise probe
# ---------------------------------------------------------------------------


def run_metadata():
    import mpmath
    import numpy
    import scipy

    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for p in sorted((SRC / "liesolve").rglob("*.py")):
        src_hash.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k, "unset") for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "LIESOLVE_THREADS")}
    return {
        "git_sha": sha,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": threads,
        "machine": platform.machine(),
    }


def probe():
    """Fixed pure-Python kernel; its time tracks machine speed, not liesolve."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERS):
        acc += i
    return time.perf_counter() - t0


def drift_scale(probes):
    """Factor that takes times measured beside these probes to reference speed."""
    return PROBE_REF_S / statistics.median(probes)


class SpeedSampler:
    """Runs the probe in the main thread every PROBE_EVERY_S while active.

    The handler runs between bytecodes, so it also samples during long ops
    (every FD or MC step returns to Python); ``spent`` adds up the probes'
    own time so that it can be taken out of the op times."""

    def __init__(self, probes):
        self.probes = probes
        self.spent = 0.0

    def _tick(self, signum, frame):
        t = probe()
        self.probes.append(t)
        self.spent += t

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def measure_setup(spawns):
    """Wall time of fresh interpreters importing liesolve.cli and building
    the catalog, as a CLI user pays it on every call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, imports, catalogs, probes = [], [], [], []
    for i in range(spawns + 1):
        probes += [probe() for _ in range(SETUP_PROBES)]
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if out.returncode != 0:
            _fail_load(f"set-up child failed: {out.stderr.strip()[-500:]}")
        t_imp, t_cat, where = out.stdout.split()
        if Path(where).resolve().parent.parent != SRC.resolve():
            _fail_load(f"set-up child imported liesolve from {where}")
        if i == 0:
            continue  # writes the bytecode cache of a fresh checkout
        walls.append(wall)
        imports.append(float(t_imp))
        catalogs.append(float(t_cat))
    probes += [probe() for _ in range(SETUP_PROBES)]
    return walls, imports, catalogs, probes


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


class PassResult:
    def __init__(self, index, traced):
        self.index = index
        self.traced = traced
        self.rows = []  # (label, seconds, verdict)
        self.wall = 0.0
        self.probes = []

    @property
    def scale(self):
        return drift_scale(self.probes)

    def corrected(self):
        """Op times scaled to reference speed."""
        k = self.scale
        return [dt * k for (_, dt, _) in self.rows]


def run_pass(workloads, name, seed, size, index, tracer=None):
    res = PassResult(index, tracer is not None)
    ops = workloads.WORKLOADS[name](seed, size)
    res.probes.append(probe())
    undo = tracing.install(tracer) if tracer is not None else None
    try:
        with SpeedSampler(res.probes) as sampler:
            t_pass = time.perf_counter()
            for i, op in enumerate(ops):
                row = None
                if tracer is not None:
                    tracer.op = i
                    row = tracer.open("bench.op")
                spent, t0 = sampler.spent, time.perf_counter()
                try:
                    out = op.run()
                except Exception as exc:  # the verdict records it
                    out = workloads.Raised(exc)
                dt = time.perf_counter() - t0 - (sampler.spent - spent)
                if row is not None:
                    tracer.close(row)
                res.rows.append((op.label, dt, op.check(out)))
            res.wall = time.perf_counter() - t_pass
    finally:
        if undo is not None:
            tracing.uninstall(undo)
    res.probes.append(probe())
    return res


def pass_wall(passes, corrected=True):
    """Time one pass spends in the program: the sum over its ops of each
    op's median time across the passes.  Every pass runs the same inputs,
    so a slow spell of the machine during part of one pass drops out once
    there are three passes; the benchmark's own output checks and probes
    are excluded."""
    times = [p.corrected() if corrected else [dt for (_, dt, _) in p.rows] for p in passes]
    return sum(statistics.median(col) for col in zip(*times))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

# op_p90_s is defined only where one pass has at least this many ops, so that
# ten samples lie beyond it
P90_MIN_OPS = 100


def end_to_end(passes, setup):
    """Metric name -> (value, unit, sample count, sample description)."""
    walls, _, _, probes = setup
    lat = [t for p in passes for t in p.corrected()]
    n_ops = len(passes[0].rows)
    failed = sum(v.status != "pass" for p in passes for (_, _, v) in p.rows)
    m = {
        "setup_s": (statistics.median(walls) * drift_scale(probes), "s", len(walls),
                    "fresh interpreters"),
        "wall_s": (pass_wall(passes), "s", len(passes), "passes"),
        "op_p50_s": (statistics.median(lat), "s", len(lat), "ops"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
                        "process"),
    }
    extra = {"fail_frac": (failed / len(lat), "ratio", len(lat), "ops")}
    if n_ops >= P90_MIN_OPS:
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
        extra["op_p90_s"] = (p90, "s", len(lat), "ops")
    return m, extra


def per_layer(tracer, traced, untraced, setup):
    """Per-layer metrics of the traced passes, per pass where they are totals."""
    n = len(traced)
    st = tracer.stats
    _, imports, catalogs, probes = setup
    k_setup = drift_scale(probes)
    k = drift_scale([x for p in traced for x in p.probes])

    def stat(name):
        return st.get(name, tracing.SpanStats())

    def rate(names, scale, per="units"):
        """Self time per unit of work (or per call) over the given spans."""
        ns = sum(stat(x).self_ns for x in names)
        units = sum(stat(x).calls if per == "calls" else stat(x).units for x in names)
        return (ns * 1e-9 * k * scale / units if units else 0.0), int(units)

    def layer(name):
        return tracer.layer_self_s(name) * k / n

    spec = stat("specfun.call")
    spec_self = tracer.layer_self_s("specfun") * k
    fp, bs = stat("verify.fp_residual"), stat("verify.bs_residual")
    att = fp.extra.get("attempted", 0) + bs.extra.get("attempted", 0)
    skip = fp.extra.get("skipped", 0) + bs.extra.get("skipped", 0)
    mc1, mc2 = stat("verify.mc_simulate_1d"), stat("verify.mc_simulate_2d")
    paths = mc1.extra.get("paths", 0) + mc2.extra.get("paths", 0)
    excl = mc1.extra.get("excluded", 0) + mc2.extra.get("excluded", 0)
    un_wall = pass_wall(untraced)
    tr_wall = pass_wall(traced)

    m = {}

    def put(key, value_count, unit, what):
        value, count = value_count
        m[key] = (value, unit, count, what)

    put("setup.import_s", (statistics.median(imports) * k_setup, len(imports)), "s", "interpreters")
    put("setup.catalog_s", (statistics.median(catalogs) * k_setup, len(catalogs)), "s", "interpreters")
    put("specfun.calls", (spec.calls / n, spec.calls), "count", "calls, per pass")
    put("specfun.self_s", (spec_self / n, spec.calls), "s", "calls, per pass")
    put("specfun.us_per_call", ((spec_self * 1e6 / spec.calls if spec.calls else 0.0), spec.calls),
        "us", "calls")
    mc = stat("exprlang.match_case")
    put("exprlang.match_case.calls", (mc.calls / n, mc.calls), "count", "calls, per pass")
    put("exprlang.match_case.ms_per_call", rate(["exprlang.match_case"], 1e3, "calls"), "ms", "calls")
    put("transform.self_s", (layer("transform"), stat("transform.api").calls), "s", "api calls, per pass")
    q = stat("transform.quad")
    put("transform.quad_calls", (q.calls / n, q.calls), "count", "quad calls, per pass")
    put("symmetry.compatibility.us_per_point", rate(["symmetry.compatibility"], 1e6), "us", "points")
    put("symmetry.invariance.us_per_point", rate(["symmetry.invariance"], 1e6), "us", "points")
    put("symmetry.self_s", (layer("symmetry"), n), "s", "passes")
    put("reductions.consistency.ms_per_call", rate(["reductions.consistency"], 1e3, "calls"), "ms", "calls")
    put("reductions.closed_form.ms_per_call", rate(["reductions.closed_form"], 1e3, "calls"), "ms", "calls")
    put("reductions.reduced_residual.us_per_point", rate(["reductions.reduced_residual"], 1e6),
        "us", "points")
    put("reductions.self_s", (layer("reductions"), n), "s", "passes")
    put("casestudies.self_s", (layer("casestudies"), stat("casestudies.study").calls), "s",
        "studies, per pass")
    put("verify.fp_residual.us_per_point", rate(["verify.fp_residual"], 1e6), "us", "points")
    put("verify.bs_residual.us_per_point", rate(["verify.bs_residual"], 1e6), "us", "points")
    put("verify.residual.skip_frac", ((skip / att if att else 0.0), att), "ratio", "points")
    put("verify.fd_evolve_2d.ns_per_point_step", rate(["verify.fd_evolve_2d"], 1e9), "ns", "point-steps")
    put("verify.fd_evolve_1d.ns_per_point_step", rate(["verify.fd_evolve_1d"], 1e9), "ns", "point-steps")
    put("verify.mc_simulate_1d.ns_per_path_step", rate(["verify.mc_simulate_1d"], 1e9), "ns", "path-steps")
    put("verify.mc_simulate_2d.ns_per_path_step", rate(["verify.mc_simulate_2d"], 1e9), "ns", "path-steps")
    put("verify.mc.excluded_frac", ((excl / paths if paths else 0.0), paths), "ratio", "paths")
    put("verify.sup_cdf.ns_per_sample", rate(["verify.sup_cdf"], 1e9), "ns", "samples")
    put("cli.self_s", (layer("cli"), stat("cli.run").calls), "s", "cli.run calls, per pass")
    put("trace.overhead_frac", ((tr_wall - un_wall) / un_wall, n), "ratio", "pass pairs")
    return m


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def print_table(p):
    tag = "traced" if p.traced else "untraced"
    print(f"# pass {p.index} ({tag}): {len(p.rows)} ops, wall {p.wall:.3f} s uncorrected, "
          f"probe {p.probes[0] * 1e3:.3f} ms before / {p.probes[-1] * 1e3:.3f} ms after / "
          f"{statistics.median(p.probes) * 1e3:.3f} ms median of {len(p.probes)}, "
          f"drift scale {p.scale:.4f}")
    for i, (label, dt, v) in enumerate(p.rows):
        print(f"op {p.index}.{i:03d} {v.status:<10} {dt:9.4f} s  {v.digest[:16]}  "
              f"{v.outcome:<28} {label}" + (f"  [{v.detail}]" if v.detail else ""))


def print_metric(kind, name, value, unit, count, what):
    print(f"metric {kind} {name} = {value:.6g} {unit} (n={count} {what})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=["cli_mix", "invariance", "oracles"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny: reduced inputs for the smoke check; never for measurements")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")

    load_program()
    import workloads
    from liesolve.errors import BoundaryContamination

    # the criterion-7 grids are sized so that boundary influence stays below
    # the compared tolerance; the acceptance suite ignores this warning too
    warnings.filterwarnings("ignore", category=BoundaryContamination)

    meta = run_metadata()
    print("# run " + json.dumps({"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace,
                                 "size": args.size, "held_out_seed": HELD_OUT_SEED, **meta},
                                sort_keys=True))
    setup = measure_setup(SETUP_SPAWNS)

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []
    t_start = time.perf_counter()
    j = 0
    while True:
        t0 = time.perf_counter()
        untraced.append(run_pass(workloads, args.workload, args.seed, args.size, j))
        if tracer is not None:
            traced.append(run_pass(workloads, args.workload, args.seed, args.size, j, tracer))
        step = time.perf_counter() - t0
        j += 1
        if time.perf_counter() - t_start + step > args.seconds:
            break

    for p in untraced + traced:
        print_table(p)

    all_passes = untraced + traced
    attempted = sum(len(p.rows) for p in all_passes)
    failed = sum(v.status != "pass" for p in all_passes for (_, _, v) in p.rows)
    unexpected = [(p, label, v) for p in all_passes for (label, _, v) in p.rows
                  if v.status == "unexpected"]
    # same inputs, so every pass, traced or not, must repeat the first
    first = [(label, v.status, v.outcome, v.digest) for (label, _, v) in untraced[0].rows]
    mismatches = [(p, a[0]) for p in all_passes[1:] for a, (label, _, v) in zip(first, p.rows)
                  if a != (label, v.status, v.outcome, v.digest)]
    for p, label, v in unexpected:
        print(f"# UNEXPECTED pass {p.index}: {label}: {v.outcome} {v.detail}")
    for p, label in mismatches:
        kind = "traced" if p.traced else "untraced"
        print(f"# MISMATCH {kind} pass {p.index}: {label}: verdict or digest differs from pass 0")
    known = sorted({(label.split()[0], v.outcome, v.detail) for p in all_passes
                    for (label, _, v) in p.rows if v.status == "known"})
    for kind, outcome, why in known:
        print(f"# known failure: {kind}: {outcome}: {why}")

    e2e, extra = end_to_end(untraced, setup)
    print(f"# uncorrected: setup_s {statistics.median(setup[0]):.6g} s "
          f"(probe median {statistics.median(setup[3]) * 1e3:.3f} ms), "
          f"wall_s {pass_wall(untraced, corrected=False):.6g} s")
    for name, (value, unit, count, what) in {**e2e, **extra}.items():
        print_metric("end_to_end", name, value, unit, count, what)
    if tracer is not None:
        layers = per_layer(tracer, traced, untraced, setup)
        for name, (value, unit, count, what) in layers.items():
            print_metric("per_layer", name, value, unit, count, what)
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(path)
        print(f"# spans: {len(tracer.names)} names, {len(tracer.cols['name'])} spans -> "
              f"{path.relative_to(ROOT)}")
        metrics = layers
    else:
        metrics = e2e

    correct = not unexpected and not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
