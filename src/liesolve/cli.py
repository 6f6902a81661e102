"""Batch front end.

Subcommands: ``classify`` (potential -> catalog case), ``reduce`` (print the
similarity variables and reduced equation), ``solve`` (build a separated
solution, sample it to CSV), ``verify`` (full residual suite for one case),
``transform`` (apply a group action to a base solution and re-verify),
``case-study`` (the end-to-end study chains).

Every run is driven by a config mapping validated against a versioned JSON
schema, ``CONFIG_SCHEMA``.  ``validate_config`` in this module checks it: it
implements the few flat keywords the schema uses, refuses a schema that uses
any other, and raises the line jsonschema would give (the tests compare the
two, so jsonschema is a test dependency only).  Command-line flags assemble
the same mapping: each option's argparse dest is its config key (``--index``
-> ``transform_index``, ``--samples`` -> ``samples_csv``, ``--param`` ->
``potential_params``, ``--json`` -> ``out_json``), and an option left unset
is absent, so its default is stated once, by the command that reads it.
Exit codes: 0 all verdicts pass, 2 verification failures, 1 usage and config
errors (a bad flag, an unreadable ``--config`` file, an unknown case, a
report path that cannot be written).
Reports are deterministic for a fixed config and seed (no timestamps).
"""

from __future__ import annotations

import argparse
import functools
import json
import numbers
import sys

import numpy as np

from . import casestudies
from . import hyperdual as hd
from .errors import AmbiguousMatch, ConfigError, LiesolveError
from .exprlang import free_parameters, match_case, parse as parse_expr
from .fields import shifted_heat_kernel
from .reductions import (
    catalog,
    closed_form_solution,
    reconstruct_u,
    reduced_residual,
    verify_reduction_consistency,
)
from .report import VerificationReport
from .symmetry import compatibility_condition, poly, transform_solution
from .verify import Region, fp_residual, sampled

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
        "seed": {"type": "integer", "minimum": 0},
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

# the JSON Schema keywords and types validate_config checks; it refuses a
# CONFIG_SCHEMA that uses any other, so a schema edit cannot go unchecked
_KEYWORDS = frozenset({
    "type", "enum", "const", "required", "properties", "additionalProperties",
    "minimum", "maximum", "items", "minItems", "maxItems",
})
_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, numbers.Number) and not isinstance(v, bool),
    "integer": lambda v: not isinstance(v, bool)
    and (isinstance(v, int) or isinstance(v, float) and v.is_integer()),
}


def _unsupported(schema):
    # what in schema _errors does not implement: keywords, types other than
    # one name, and const or enum values that are not scalars
    if not isinstance(schema, dict):
        return [f"subschema {schema!r}"]
    t = schema.get("type", "object")
    values = [schema["const"]] if "const" in schema else []
    bad = [repr(k) for k in schema if k not in _KEYWORDS]
    if not (isinstance(t, str) and t in _TYPES):
        bad.append(f"type {t!r}")
    bad += [f"value {v!r}" for v in values + list(schema.get("enum", []))
            if not isinstance(v, (str, int, float, type(None)))]
    subs = list(schema.get("properties", {}).values())
    subs += [v for k, v in schema.items()
             if k == "items" or k == "additionalProperties" and not isinstance(v, bool)]
    return bad + [b for sub in subs for b in _unsupported(sub)]


def _equal(a, b):
    # JSON equality of scalars: a boolean equals only a boolean (True is not 1)
    return a == b and isinstance(a, bool) == isinstance(b, bool)


def _errors(schema, instance, path=()):
    # (path, message) for each failed keyword, in jsonschema's order and words
    for key, value in schema.items():
        if key == "type":
            if not _TYPES[value](instance):
                yield path, f"{instance!r} is not of type {value!r}"
        elif key == "enum":
            if not any(_equal(each, instance) for each in value):
                yield path, f"{instance!r} is not one of {value!r}"
        elif key == "const":
            if not _equal(instance, value):
                yield path, f"{value!r} was expected"
        elif _TYPES["object"](instance):
            if key == "required":
                for k in value:
                    if k not in instance:
                        yield path, f"{k!r} is a required property"
            elif key == "properties":
                for k, sub in value.items():
                    if k in instance:
                        yield from _errors(sub, instance[k], path + (k,))
            elif key == "additionalProperties":
                extras = [k for k in instance if k not in schema.get("properties", {})]
                if isinstance(value, dict):
                    for k in extras:
                        yield from _errors(value, instance[k], path + (k,))
                elif value is False and extras:
                    names = ", ".join(map(repr, sorted(extras, key=str)))
                    verb = "was" if len(extras) == 1 else "were"
                    yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif _TYPES["array"](instance):
            if key == "items":
                for i, item in enumerate(instance):
                    yield from _errors(value, item, path + (i,))
            elif key == "minItems" and len(instance) < value:
                yield path, f"{instance!r} {'should be non-empty' if value == 1 else 'is too short'}"
            elif key == "maxItems" and len(instance) > value:
                yield path, f"{instance!r} {'is expected to be empty' if value == 0 else 'is too long'}"
        elif _TYPES["number"](instance):
            if key == "minimum" and instance < value:
                yield path, f"{instance!r} is less than the minimum of {value!r}"
            elif key == "maximum" and instance > value:
                yield path, f"{instance!r} is greater than the maximum of {value!r}"


def validate_config(config):
    """Raise ConfigError with the line ``jsonschema.validate`` would give.

    Of several errors that line names the one jsonschema's ``best_match``
    picks: the shortest path, then of sibling paths the greatest, then the
    first in schema order.
    """
    bad = _unsupported(CONFIG_SCHEMA)
    if bad:
        raise NotImplementedError("CONFIG_SCHEMA uses what validate_config does not check: "
                                  + ", ".join(bad))
    best = max(_errors(CONFIG_SCHEMA, config), key=lambda e: (-len(e[0]), e[0]), default=None)
    if best is not None:
        path, message = best
        raise ConfigError(f"config invalid at /{'/'.join(map(str, path))}: {message}")


def _parse_kv(text):
    # the argparse type of the name=value,... options
    out = {}
    for piece in text.split(","):
        if not piece.strip():
            continue
        k, _, v = piece.partition("=")
        try:
            out[k.strip()] = float(v)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected name=number, got {piece!r}") from None
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


def _case(config):
    cases = catalog()
    if config.get("case") not in cases:
        raise ConfigError(f"case must be one of {sorted(cases)}, got {config.get('case')!r}")
    return cases[config["case"]]


def _cmd_reduce(config):
    case = _case(config)
    rep = VerificationReport(f"similarity reduction, case {case.case_id}")
    sim, red = case.summary
    rep.payload["similarity variables"] = sim
    rep.payload["reduced equation"] = red
    rep.payload["potential template"] = case.template
    rep.payload["closed form available"] = case.has_closed_form
    rep.record("case present in catalog", True)
    return rep


def _required_params(case, config):
    params = case.draw_params(np.random.default_rng(config["seed"]))
    params.update(config.get("params", {}))
    return params


def _cmd_verify(config):
    return _verify_suite(config)[0]


def _verify_suite(config):
    """The verify report with the case, the drawn parameters and the closed
    form it checked (None when the case has none), for ``solve`` to reuse."""
    case = _case(config)
    seed = config["seed"]
    params = _required_params(case, config)
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
        sol = None
        rep.record("closed form", True, notes="catalog provides the reduced operator only")
    return rep, case, params, sol


def _bounding_region(case, params, seed):
    pts = case.region_xyt(params, n=40, seed=seed)
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    ts = [p[2] for p in pts]
    return Region(
        ((min(xs), max(xs)), (min(ys), max(ys)), (min(ts), max(ts))),
        guard=case.similarity(params).singular,
    )


def _cmd_solve(config):
    seed = config["seed"]
    if config.get("allow_unverified"):
        case = _case(config)
        rep = VerificationReport(f"solution build, case {case.case_id} (verification skipped)")
        rep.record(
            "WARNING: verification skipped on request",
            True,
            notes="--allow-unverified was given; the sampled solution is unchecked",
        )
        params = _required_params(case, config)
        sol = None
    else:
        rep, case, params, sol = _verify_suite(config)
    if sol is None:
        sol = closed_form_solution(case, params, dict(config.get("constants", {})))
    path = config.get("samples_csv")
    if path:
        import csv

        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["xi", "eta", "P"])
            for (xi, eta), val in sampled(sol.P, case.region_sim(params, n=60, seed=seed))[0]:
                w.writerow([repr(float(xi)), repr(float(eta)), repr(float(val))])
        rep.payload["samples_csv"] = path
    return rep


def _cmd_transform(config):
    index = config.get("transform_index", 5)
    eps = config.get("eps", 0.5)
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
        given = {k: tuple(config[k]) for k in ("sigma", "alpha") if k in config}
        if "rho" in config:
            given["rho"] = config["rho"]
        res = casestudies.double_cev(r=config.get("r", 0.05), seed=config["seed"], **given)
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


# the keys a command reads with no default of its own; verify, solve and
# reduce check their case in _case
_REQUIRED_KEYS = {"classify": ("potential",), "case-study": ("study",)}


def run(config):
    """Execute a validated run configuration.

    Returns (exit_code, report): 0 when every check passes (documented
    discrepancies included by design), 2 on unexpected verification failures.
    Config errors raise :class:`ConfigError` (exit code 1 at the CLI).
    """
    validate_config(config)
    for key in _REQUIRED_KEYS.get(config["command"], ()):
        if key not in config:
            raise ConfigError(f"command {config['command']} needs the config key {key!r}")
    config = {"seed": 0, **config}
    # JSON Schema counts 2.0 as an integer; the commands get the int
    for key, sub in CONFIG_SCHEMA["properties"].items():
        if sub.get("type") == "integer" and isinstance(config.get(key), float):
            config[key] = int(config[key])
    rep = _COMMANDS[config["command"]](config)
    rep.payload.setdefault("seed", config["seed"])
    return (0 if rep.clean else 2), rep


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a usage error is a config error (exit 1); argparse would exit 2,
        # the code of a failed verification
        raise ConfigError(message)


def build_parser():
    # every dest is a config key, and SUPPRESS leaves an unset option out of
    # the namespace: a subcommand's unset options then cannot clobber values
    # parsed at the top level, and each default lives in the command that
    # reads it
    parser = functools.partial(_Parser, argument_default=argparse.SUPPRESS)
    common = parser(add_help=False)
    common.add_argument("--seed", type=int,
                        help="draws the parameters and sample points of verify and solve; "
                        "of the case studies only double-cev reads it (its sample points)")
    common.add_argument("--json", dest="out_json",
                        help="write the machine-readable report here")
    common.add_argument("--text", dest="out_text",
                        help="write the human-readable report here")

    ap = parser(
        prog="liesolve",
        description="similarity-reduction solution builder and verifier for pricing potentials",
        parents=[common],
    )
    ap.add_argument("--config", help="JSON run configuration (overrides other flags)")
    sub = ap.add_subparsers(dest="command",
                            parser_class=functools.partial(parser, parents=[common]))

    c = sub.add_parser("classify", help="classify a potential against the catalog")
    c.add_argument("--potential", required=True)
    c.add_argument("--param", dest="potential_params", type=_parse_kv, action="append",
                   help="name=value binding")

    r = sub.add_parser("reduce", help="print similarity variables and the reduced equation")
    r.add_argument("--case", required=True)

    s = sub.add_parser("solve", help="build a separated solution and sample it")
    v = sub.add_parser("verify", help="run the residual suite for one case")
    for p in (s, v):
        p.add_argument("--case", required=True)
        p.add_argument("--params", type=_parse_kv)
        p.add_argument("--c1", type=float)
        p.add_argument("--constants", type=_parse_kv)
    s.add_argument("--samples", dest="samples_csv")
    s.add_argument("--allow-unverified", action="store_true")

    t = sub.add_parser("transform", help="apply a group action and re-verify")
    t.add_argument("--index", dest="transform_index", type=int, required=True,
                   choices=range(1, 7))
    t.add_argument("--eps", type=float)
    t.add_argument("--delta", type=float)

    cs = sub.add_parser("case-study", help="run an end-to-end study")
    cs.add_argument("study", choices=["double-cev", "cev", "expvol"])
    cs.add_argument("--r", type=float)
    cs.add_argument("--sigma", type=float, nargs="+")
    cs.add_argument("--alpha", type=float, nargs="+")
    cs.add_argument("--rho", type=float)

    return ap


def config_from_args(args):
    """The run configuration of parsed flags, whose dests are its keys."""
    given = dict(vars(args))
    path = given.pop("config", None)
    if path:
        # the file is the run; only the report paths come from flags
        try:
            with open(path) as fh:
                cfg = json.load(fh)
        except ValueError as exc:
            raise ConfigError(f"--config {path}: {exc}") from exc
        if isinstance(cfg, dict):
            cfg.update({k: given[k] for k in ("out_json", "out_text") if given.get(k)})
        return cfg
    if given["command"] is None:
        raise ConfigError("a subcommand or --config is required")
    cfg = {"version": SCHEMA_VERSION, **given}
    if "c1" in cfg:
        cfg["constants"] = {**cfg.get("constants", {}), "c1": cfg.pop("c1")}
    if "potential_params" in cfg:
        cfg["potential_params"] = {k: x for kv in cfg["potential_params"] for k, x in kv.items()}
    return cfg


def _option_names(parser):
    """Each dest of ``parser`` and its subcommands -> its first option string."""
    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out.update(_option_names(sub))
        elif action.option_strings:
            out[action.dest] = action.option_strings[0]
    return out


def _ignored_by_config(parser, args):
    """The subcommand and options that ``--config`` overrides, in the order given."""
    given = vars(args)
    if not given.get("config"):
        return []
    names = _option_names(parser)
    ignored = [given["command"]] if given.get("command") else []
    skip = ("config", "command", "out_json", "out_text")
    # an option by its flag, a positional argument (the study) by its value
    return ignored + [names.get(k, str(v)) for k, v in given.items() if k not in skip]


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        ignored = _ignored_by_config(parser, args)
        if ignored:
            print(f"warning: --config {args.config} ignores: {' '.join(ignored)}", file=sys.stderr)
        config = config_from_args(args)
        code, rep = run(config)
        text = rep.to_text()
        print(text)
        if config.get("out_text"):
            with open(config["out_text"], "w") as fh:
                fh.write(text + "\n")
        if config.get("out_json"):
            with open(config["out_json"], "w") as fh:
                fh.write(rep.to_json() + "\n")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except LiesolveError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a --config file that cannot be read, or a report path that cannot
        # be written; the message names the file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
