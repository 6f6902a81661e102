"""Batch front end.

Subcommands: ``classify`` (potential -> catalog case), ``reduce`` (print the
similarity variables and reduced equation), ``solve`` (build a separated
solution, sample it to CSV), ``verify`` (full residual suite for one case),
``transform`` (apply a group action to a base solution and re-verify),
``case-study`` (the end-to-end study chains).

Every run is driven by a config mapping validated against a versioned JSON
schema; command-line flags are sugar that assembles the same mapping.  Exit
codes: 0 all verdicts pass, 2 verification failures, 1 usage/config errors.
Reports are deterministic for a fixed config and seed (no timestamps).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

import jsonschema

from . import casestudies
from . import hyperdual as hd
from .errors import AmbiguousMatch, ConfigError, LiesolveError
from .exprlang import free_parameters, match_case, parse as parse_expr
from .fields import shifted_heat_kernel
from .reductions import (
    catalog,
    closed_form_solution,
    get_case,
    reconstruct_u,
    reduced_residual,
    verify_reduction_consistency,
)
from .report import VerificationReport
from .symmetry import compatibility_condition, poly, transform_solution
from .verify import Region, fp_residual

SCHEMA_VERSION = 1

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["version", "command"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "command": {
            "enum": ["classify", "reduce", "solve", "verify", "transform", "case-study"]
        },
        "seed": {"type": "integer"},
        "potential": {"type": "string"},
        "potential_params": {"type": "object", "additionalProperties": {"type": "number"}},
        "case": {"type": "string"},
        "params": {"type": "object", "additionalProperties": {"type": "number"}},
        "constants": {"type": "object", "additionalProperties": {"type": "number"}},
        "allow_unverified": {"type": "boolean"},
        "samples_csv": {"type": "string"},
        "transform_index": {"type": "integer", "minimum": 1, "maximum": 6},
        "eps": {"type": "number"},
        "delta": {"type": "number"},
        "study": {"enum": ["double-cev", "cev", "expvol"]},
        "r": {"type": "number"},
        "sigma": {"type": "array", "items": {"type": "number"}, "minItems": 1, "maxItems": 2},
        "alpha": {"type": "array", "items": {"type": "number"}, "minItems": 1, "maxItems": 2},
        "rho": {"type": "number"},
        "out_json": {"type": "string"},
        "out_text": {"type": "string"},
    },
}

# human-readable similarity-variable summaries for `reduce`
CASE_SUMMARIES = {
    "1.1a": (
        "xi = x/sqrt(f1), eta = (y + shift_b(t))/sqrt(f1), f1 = delta2 t^2 + delta1 t",
        "d1^2 xi^2 (P_xixi + P_etaeta) + d1^3 xi^3 P_xi + d1^3 xi^2 eta P_eta "
        "+ [4(delta2 beta0^2 - delta1 beta0 beta1) xi^2 - 2 C0 d1^2] P = 0",
    ),
    "1.1b": (
        "xi = x/sqrt(f1), eta = (y - h(t))/sqrt(f1), f1 = delta1 e^{2at} + delta2 e^{-2at}",
        "d1 d2 xi^2 (P_xixi + P_etaeta) + [8 c d1^2 d2^2 xi^2 (xi^2+eta^2) "
        "- xi^2 (beta1^2 d2 + beta2^2 d1) - 2 C0 d1 d2] P = 0",
    ),
    "1.2a": (
        "xi = x/sqrt(f1), eta = y/sqrt(f1), f1 = delta2 t^2 + delta1 t",
        "rho^2 P_rhorho + (delta1 rho^3 + rho) P_rho + P_thetatheta - 2 C(theta) P = 0",
    ),
    "1.2b": (
        "xi = x/sqrt(f1), eta = y/sqrt(f1), f1 = delta1 e^{2at} + delta2 e^{-2at}",
        "rho^2 P_rhorho + rho P_rho + P_thetatheta + 2[4 c d1 d2 rho^4 - C(theta)] P = 0",
    ),
    "1.3": (
        "rotating frame: xi + i eta = (x + i y) e^{i lam ln(t)/2} / sqrt(t)",
        "rho^2 [lap P + (xi + lam eta) P_xi + (eta - lam xi) P_eta] - 2 C(lam ln rho + theta) P = 0",
    ),
    "1.4a": (
        "as 1.2a (the constant-angular-factor specialization)",
        "rho^2 lap P + delta1 rho^2 (xi P_xi + eta P_eta) - 2 C0 P = 0",
    ),
    "1.4b": (
        "as 1.2b (the constant-angular-factor specialization)",
        "rho^2 lap P + 2[4 c d1 d2 rho^4 - C0] P = 0",
    ),
    "1.5a": (
        "xi = (x + shift_a(t))/sqrt(f1), eta = (y + shift_b(t))/sqrt(f1)",
        "lap P + delta1 (xi P_xi + eta P_eta) + kappa P = 0, "
        "kappa = 4[delta2(a0^2+b0^2) - delta1(a0 a1 + b0 b1)]/delta1^2",
    ),
    "1.6": (
        "xi = x^2 + y^2, eta = t",
        "4 xi^2 P_xixi + 4 xi P_xi - 2 xi P_eta + (d^2 eta^2 - 2 xi C(sqrt(xi))) P = 0",
    ),
    "1.8a": (
        "xi = x, eta = t (boost along y)",
        "4 h^2 P_xixi - 8 h^2 P_eta + [b^2 eta^2 (b1 eta + 2 b0)^2 - 4 b1 h "
        "- 8 C(xi) h^2] P = 0, h = b1 eta + b0",
    ),
    "1.8b": (
        "xi = x, eta = t (exponential boost along y)",
        "P_xixi - 2 P_eta - 2 C(xi) P = 0",
    ),
}


def validate_config(config):
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        pointer = "/" + "/".join(str(p) for p in exc.absolute_path)
        raise ConfigError(f"config invalid at {pointer or '/'}: {exc.message}") from exc


def _parse_kv(text):
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        if not piece.strip():
            continue
        if "=" not in piece:
            raise ConfigError(f"expected name=value, got {piece!r}")
        k, v = piece.split("=", 1)
        out[k.strip()] = float(v)
    return out


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a VerificationReport)
# ---------------------------------------------------------------------------


def _cmd_classify(config):
    rep = VerificationReport("potential classification")
    expr = parse_expr(config["potential"])
    params = config.get("potential_params", {})
    missing = free_parameters(expr) - set(params)
    if missing:
        raise ConfigError(f"unbound potential parameters: {sorted(missing)}")
    try:
        m = match_case(expr, params=params)
    except AmbiguousMatch as exc:
        rep.record(
            "classification is unambiguous",
            False,
            notes="candidates: " + ", ".join(c.case_id for c in exc.matches),
        )
        return rep
    if not m:
        # no-match is a legitimate classification outcome, not a failure
        rep.record(
            "classification completed", True, notes="no catalog template fits this potential"
        )
        rep.payload["case"] = None
        return rep
    rep.record("potential matches a catalog family", True, notes=f"case {m.case_id}")
    rep.check("fit residual", m.fit_residual, 1e-9)
    rep.payload["case"] = m.case_id
    rep.payload["bindings"] = {
        k: (v if isinstance(v, float) else "<function>") for k, v in sorted(m.bindings.items())
    }
    if m.opaque_samples:
        rep.payload["free-function samples"] = [[s, v] for s, v in m.opaque_samples[:8]]
    return rep


def _cmd_reduce(config):
    case = get_case(config["case"])
    rep = VerificationReport(f"similarity reduction, case {case.case_id}")
    sim, red = CASE_SUMMARIES[case.case_id]
    rep.payload["similarity variables"] = sim
    rep.payload["reduced equation"] = red
    rep.payload["potential template"] = case.template
    rep.payload["closed form available"] = case.has_closed_form
    rep.record("case present in catalog", True)
    return rep


def _required_params(case, given, seed):
    params = case.draw_params(np.random.default_rng(seed))
    params.update(given)
    return params


def _cmd_verify(config):
    case = get_case(config["case"])
    seed = config.get("seed", 0)
    params = _required_params(case, config.get("params", {}), seed)
    constants = dict(config.get("constants", {}))
    rep = VerificationReport(f"verification suite, case {case.case_id}")
    rep.payload["parameters"] = {k: v for k, v in sorted(params.items()) if isinstance(v, float)}

    data = case.symmetry_data(params)
    M = case.potential_field(params)
    pts = case.region_xyt(params, n=12, seed=seed)
    rep.check(
        "determining-condition residual", compatibility_condition(data, M, points=pts), 1e-9
    )

    con = verify_reduction_consistency(case, params, trials=3, seed=seed)
    rep.check("reduction-consistency ratio deviation", con.max_rel_deviation, 1e-6)

    if case.has_closed_form:
        sol = closed_form_solution(case, params, constants)
        sim_pts = case.region_sim(params, n=30, seed=seed)
        scale = max(abs(hd.value(sol.P(xi, eta))) for (xi, eta) in sim_pts[:10])
        rep.check(
            "closed-form reduced residual (relative)",
            reduced_residual(case, params, sol, points=sim_pts) / max(scale, 1e-12),
            1e-7,
        )
        u = reconstruct_u(case, params, sol)
        box = _bounding_region(case, params, seed)
        fp = fp_residual(u, M, box, threshold=1.0, n=25)
        rep.check(
            "reconstruction FD residual (relative)",
            fp.max_abs / max(scale, 1e-12),
            1e-6,
        )
    else:
        rep.record("closed form", True, notes="catalog provides the reduced operator only")
    return rep


def _bounding_region(case, params, seed):
    pts = case.region_xyt(params, n=40, seed=seed)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    ts = [p[2] for p in pts]
    smap = case.similarity(params)

    def guard(x, y, t):
        return smap.singular(x, y, t)

    return Region(
        ((min(xs), max(xs)), (min(ys), max(ys)), (min(ts), max(ts))), guard=guard
    )


def _cmd_solve(config):
    rep = _cmd_verify(config) if not config.get("allow_unverified") else VerificationReport(
        f"solution build, case {config['case']} (verification skipped)"
    )
    if config.get("allow_unverified"):
        rep.record(
            "WARNING: verification skipped on request",
            True,
            notes="--allow-unverified was given; the sampled solution is unchecked",
        )
    case = get_case(config["case"])
    seed = config.get("seed", 0)
    params = _required_params(case, config.get("params", {}), seed)
    sol = closed_form_solution(case, params, dict(config.get("constants", {})))
    path = config.get("samples_csv")
    if path:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["xi", "eta", "P"])
            for (xi, eta) in case.region_sim(params, n=60, seed=seed):
                try:
                    val = hd.value(sol.P(xi, eta))
                except Exception:
                    continue
                w.writerow([repr(float(xi)), repr(float(eta)), repr(float(val))])
        rep.payload["samples_csv"] = path
    return rep


def _cmd_transform(config):
    index = config.get("transform_index", 5)
    eps = config.get("eps", 0.5)
    seed = config.get("seed", 0)
    rep = VerificationReport(f"group action u({index}) on a base heat solution")
    phi = shifted_heat_kernel(0.6, -0.4)
    kwargs = {"eps": eps}
    if index == 2:
        kwargs["delta"] = config.get("delta", 0.8)
    elif index == 3:
        kwargs["f2"] = poly(0.3, 0.9)
    elif index == 4:
        kwargs["f3"] = poly(-0.2, 0.5)
    elif index == 5:
        kwargs["f4"] = poly(0.7)
    elif index == 6:
        kwargs["g"] = shifted_heat_kernel(-0.5, 0.2)
    u = transform_solution(index, phi, **kwargs)
    region = Region(((-1.5, 1.5), (-1.5, 1.5), (0.6, 1.6)))
    M0 = lambda x, y: 0.0
    before = fp_residual(phi, M0, region, threshold=1e-6, n=25)
    after = fp_residual(u, M0, region, threshold=1e-6, n=25)
    rep.check("base solution FD residual", before.max_abs, 1e-6)
    rep.check("transformed solution FD residual", after.max_abs, 1e-6)
    rep.payload["index"] = index
    rep.payload["eps"] = eps
    return rep


def _cmd_case_study(config):
    study = config["study"]
    if study == "double-cev":
        sigma = tuple(config.get("sigma", [1.0, 1.0]))
        alpha = tuple(config.get("alpha", [2.0, 2.0]))
        res = casestudies.double_cev(
            r=config.get("r", 0.05), sigma=sigma, alpha=alpha, rho=config.get("rho", 0.0),
            seed=config.get("seed", 0),
        )
    elif study == "cev":
        sigma = config.get("sigma", [1.0])[0]
        alpha = config.get("alpha", [2.0])[0]
        res = casestudies.cev_1d(sigma, alpha, config.get("r", 0.1))
    else:
        res = casestudies.expvol_1d()
    return res.verification


_COMMANDS = {
    "classify": _cmd_classify,
    "reduce": _cmd_reduce,
    "solve": _cmd_solve,
    "verify": _cmd_verify,
    "transform": _cmd_transform,
    "case-study": _cmd_case_study,
}


def run(config):
    """Execute a validated run configuration.

    Returns (exit_code, report): 0 when every check passes (documented
    discrepancies included by design), 2 on unexpected verification failures.
    Config errors raise :class:`ConfigError` (exit code 1 at the CLI).
    """
    validate_config(config)
    rep = _COMMANDS[config["command"]](config)
    rep.payload.setdefault("seed", config.get("seed", 0))
    return (0 if rep.clean else 2), rep


def build_parser():
    # SUPPRESS keeps a subcommand's unset options from clobbering values
    # parsed at the top level, so flags work on either side of the verb
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--seed", type=int)
    common.add_argument("--json", dest="out_json",
                        help="write the machine-readable report here")
    common.add_argument("--text", dest="out_text",
                        help="write the human-readable report here")

    ap = argparse.ArgumentParser(
        prog="liesolve",
        description="similarity-reduction solution builder and verifier for pricing potentials",
        parents=[common],
    )
    ap.add_argument("--config", help="JSON run configuration (overrides other flags)")
    sub = ap.add_subparsers(dest="command", parser_class=lambda **kw: argparse.ArgumentParser(parents=[common], **kw))

    c = sub.add_parser("classify", help="classify a potential against the catalog")
    c.add_argument("--potential", required=True)
    c.add_argument("--param", action="append", default=[], help="name=value binding")

    r = sub.add_parser("reduce", help="print similarity variables and the reduced equation")
    r.add_argument("--case", required=True)

    s = sub.add_parser("solve", help="build a separated solution and sample it")
    s.add_argument("--case", required=True)
    s.add_argument("--params", default="")
    s.add_argument("--c1", type=float, default=None)
    s.add_argument("--constants", default="")
    s.add_argument("--samples", dest="samples_csv")
    s.add_argument("--allow-unverified", action="store_true")

    v = sub.add_parser("verify", help="run the residual suite for one case")
    v.add_argument("--case", required=True)
    v.add_argument("--params", default="")
    v.add_argument("--c1", type=float, default=None)
    v.add_argument("--constants", default="")

    t = sub.add_parser("transform", help="apply a group action and re-verify")
    t.add_argument("--index", type=int, required=True, choices=range(1, 7))
    t.add_argument("--eps", type=float, default=0.5)
    t.add_argument("--delta", type=float, default=0.8)

    cs = sub.add_parser("case-study", help="run an end-to-end study")
    cs.add_argument("study", choices=["double-cev", "cev", "expvol"])
    cs.add_argument("--r", type=float, default=None)
    cs.add_argument("--sigma", type=float, nargs="+", default=None)
    cs.add_argument("--alpha", type=float, nargs="+", default=None)
    cs.add_argument("--rho", type=float, default=None)

    return ap


def config_from_args(args):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            cfg = json.load(fh)
        for name in ("out_json", "out_text"):
            v = getattr(args, name, None)
            if v:
                cfg[name] = v
        return cfg
    if not args.command:
        raise ConfigError("a subcommand or --config is required")
    cfg = {
        "version": SCHEMA_VERSION,
        "command": args.command,
        "seed": getattr(args, "seed", 0),
    }
    if getattr(args, "out_json", None):
        cfg["out_json"] = args.out_json
    if getattr(args, "out_text", None):
        cfg["out_text"] = args.out_text
    if args.command == "classify":
        cfg["potential"] = args.potential
        cfg["potential_params"] = _parse_kv(",".join(args.param))
    elif args.command == "reduce":
        cfg["case"] = args.case
    elif args.command in ("solve", "verify"):
        cfg["case"] = args.case
        cfg["params"] = _parse_kv(args.params)
        constants = _parse_kv(args.constants)
        if args.c1 is not None:
            constants["c1"] = args.c1
        cfg["constants"] = constants
        if args.command == "solve":
            if args.samples_csv:
                cfg["samples_csv"] = args.samples_csv
            cfg["allow_unverified"] = bool(args.allow_unverified)
    elif args.command == "transform":
        cfg["transform_index"] = args.index
        cfg["eps"] = args.eps
        cfg["delta"] = args.delta
    elif args.command == "case-study":
        cfg["study"] = args.study
        for name in ("r", "rho"):
            v = getattr(args, name)
            if v is not None:
                cfg[name] = v
        for name in ("sigma", "alpha"):
            v = getattr(args, name)
            if v is not None:
                cfg[name] = list(v)
    return cfg


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        config = config_from_args(args)
        code, rep = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LiesolveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    text = rep.to_text()
    print(text)
    if config.get("out_text"):
        with open(config["out_text"], "w") as fh:
            fh.write(text + "\n")
    if config.get("out_json"):
        with open(config["out_json"], "w") as fh:
            fh.write(rep.to_json() + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
