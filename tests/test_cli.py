"""CLI and run-configuration tests."""

import copy
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesolve import cli
from liesolve.cli import main, run, validate_config
from liesolve.errors import ConfigError, DomainError


def test_classify_example():
    code, rep = run(
        {"version": 1, "command": "classify", "potential": "1/x^2 + 2*y + 3"}
    )
    assert code == 0
    assert rep.payload["case"] == "1.1a"
    assert rep.payload["bindings"] == {"C0": 1.0, "b": 2.0, "c0": 3.0}


def test_classify_no_match_is_a_result():
    code, rep = run({"version": 1, "command": "classify", "potential": "exp(x)"})
    assert code == 0
    assert rep.payload["case"] is None


def test_classify_unbound_parameter_is_config_error():
    with pytest.raises(ConfigError):
        run({"version": 1, "command": "classify", "potential": "a*x + y"})


def test_reduce_emits_formulas():
    code, rep = run({"version": 1, "command": "reduce", "case": "1.2b"})
    assert code == 0
    assert "rho^2 P_rhorho" in rep.payload["reduced equation"]
    assert "sqrt(f1)" in rep.payload["similarity variables"]


def test_verify_spec_example():
    code, rep = run(
        {
            "version": 1,
            "command": "verify",
            "case": "1.4b",
            "params": {"delta1": 1.0, "delta2": 1.0, "c": 0.5, "C0": 1.0},
            "constants": {"c1": 4.0},
        }
    )
    assert code == 0
    assert rep.clean


def test_case_study_expvol_contains_whittaker_index():
    code, rep = run({"version": 1, "command": "case-study", "study": "expvol"})
    assert code == 0
    assert rep.payload["whittaker second index"] == pytest.approx(math.sqrt(5) / 4)
    assert "0.559016994" in rep.to_json()


def test_transform_subcommand():
    code, rep = run(
        {"version": 1, "command": "transform", "transform_index": 5, "eps": 0.7}
    )
    assert code == 0


def test_solve_writes_csv_with_verification(tmp_path):
    out = tmp_path / "samples.csv"
    code, rep = run(
        {
            "version": 1,
            "command": "solve",
            "case": "1.4b",
            "params": {"delta1": 1.0, "delta2": 1.0, "c": 0.5, "C0": 1.0},
            "constants": {"c1": 4.0},
            "samples_csv": str(out),
        }
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "xi,eta,P"
    assert len(lines) > 30
    # the verification verdicts are embedded in the report
    assert any("reconstruction FD residual" in c.name for c in rep.checks)


def test_solve_allow_unverified_banner(tmp_path):
    code, rep = run(
        {
            "version": 1,
            "command": "solve",
            "case": "1.4b",
            "params": {"delta1": 1.0, "delta2": 1.0, "c": 0.5, "C0": 1.0},
            "constants": {"c1": 4.0},
            "allow_unverified": True,
        }
    )
    assert code == 0
    assert any("WARNING" in c.name for c in rep.checks)


def _solve_with_sampled_P(monkeypatch, tmp_path, P):
    class Solution:
        pass

    sol = Solution()
    sol.P = P
    monkeypatch.setattr(cli, "closed_form_solution", lambda *args: sol)
    out = tmp_path / "samples.csv"
    run({"version": 1, "command": "solve", "case": "1.4b", "allow_unverified": True,
         "samples_csv": str(out)})
    return out.read_text().strip().splitlines()


def test_solve_samples_skip_typed_errors(monkeypatch, tmp_path):
    def P(xi, eta):
        if xi < 0:
            raise DomainError("outside the factor's domain")
        return 1.0

    lines = _solve_with_sampled_P(monkeypatch, tmp_path, P)
    assert 1 < len(lines) < 61
    assert all(float(row.split(",")[0]) >= 0 for row in lines[1:])


def test_solve_samples_let_an_untyped_error_propagate(monkeypatch, tmp_path):
    def P(xi, eta):
        raise RuntimeError("defect in P")

    with pytest.raises(RuntimeError, match="defect in P"):
        _solve_with_sampled_P(monkeypatch, tmp_path, P)


# sha256 of the report JSON and of the samples CSV of solve --case 1.2b at
# seed 0, with and without the verification suite; re-recorded for the
# spectral ODE factor (samples moved by at most 3.5e-10 of max |P|, the
# report's FD residual from 1.9e-7 to 7.3e-9)
SOLVE_12B = {
    False: ("abf89991cd64d95d1522bd851c1b72a480f3b8754679090f09f45165ff279081",
            "1e5ab17e3733fd7b05d114dac16bf94d3d2bd13aa2c569222c205a3c9f6ded19"),
    True: ("1d668614f561dcf5542a252a9764e1b2eea8f54322102f6b7b1d9f36f60595c2",
           "1e5ab17e3733fd7b05d114dac16bf94d3d2bd13aa2c569222c205a3c9f6ded19"),
}


@pytest.mark.parametrize("unverified", [False, True])
def test_solve_draws_and_builds_once(monkeypatch, tmp_path, unverified):
    from liesolve.reductions.catalog import CaseReduction

    calls = {"build": 0, "draw": 0}
    build, draw = cli.closed_form_solution, CaseReduction.draw_params

    def counting_build(*args):
        calls["build"] += 1
        return build(*args)

    def counting_draw(self, rng):
        calls["draw"] += 1
        return draw(self, rng)

    monkeypatch.setattr(cli, "closed_form_solution", counting_build)
    monkeypatch.setattr(CaseReduction, "draw_params", counting_draw)
    monkeypatch.chdir(tmp_path)
    code, rep = run({"version": 1, "command": "solve", "case": "1.2b",
                     "allow_unverified": unverified, "samples_csv": "samples.csv"})
    assert code == 0
    assert calls == {"build": 1, "draw": 1}
    digests = (hashlib.sha256(rep.to_json().encode()).hexdigest(),
               hashlib.sha256((tmp_path / "samples.csv").read_bytes()).hexdigest())
    assert digests == SOLVE_12B[unverified]


def test_schema_rejects_unknown_keys():
    with pytest.raises(ConfigError) as ei:
        validate_config({"version": 1, "command": "classify", "bogus": 1})
    assert "/" in str(ei.value)
    # the worker cap is gone from the schema; the oracles size their own pool
    with pytest.raises(ConfigError):
        validate_config({"version": 1, "command": "reduce", "case": "1.3", "threads": 2})


def test_schema_rejects_bad_command_with_pointer():
    with pytest.raises(ConfigError) as ei:
        validate_config({"version": 1, "command": "frobnicate"})
    assert "/command" in str(ei.value)


# each keyword and type rule of CONFIG_SCHEMA, then configs with several
# errors, where jsonschema's best_match picks the one the line names
BAD_CONFIGS = [
    {"version": 1, "command": "classify", "bogus": 1},
    {"version": 1, "command": "frobnicate"},
    {"version": 2, "command": "verify"},
    {"command": "verify"},
    {"version": 1, "command": "verify", "seed": 1.5, "case": 3},
    {"version": 1, "command": "transform", "transform_index": 9},
    {"version": 1, "command": "case-study", "sigma": [1.0, 2.0, 3.0]},
    {"version": 1, "command": "verify", "params": {"a": "x"}},
    [],
    # type: the root, booleans are neither integers nor numbers, a tuple is
    # not an array, None is no string
    "verify",
    None,
    {"version": 1, "command": "verify", "seed": True},
    {"version": 1, "command": "verify", "seed": "3"},
    {"version": 1, "command": "transform", "eps": True},
    {"version": 1, "command": "transform", "delta": None},
    {"version": 1, "command": "classify", "potential": None},
    {"version": 1, "command": "solve", "allow_unverified": 1},
    {"version": 1, "command": "case-study", "sigma": (1.0,)},
    {"version": 1, "command": "case-study", "alpha": 0.5},
    # enum and const: True is not 1, "1" is not 1
    {"version": 1, "command": 1},
    {"version": 1, "command": "case-study", "study": "heston"},
    {"version": True, "command": "verify"},
    {"version": "1", "command": "verify"},
    # required, additionalProperties (False, and a subschema per extra key)
    {},
    {"version": 1},
    {"version": 1, "command": "verify", "threads": 2, "bogus": 1},
    {"version": 1, "command": "classify", "potential": "a*x", "potential_params": {"a": "1"}},
    {"version": 1, "command": "verify", "constants": {"c1": None}},
    # minimum and maximum, on integers and on floats that are integers
    {"version": 1, "command": "transform", "transform_index": 0},
    {"version": 1, "command": "transform", "transform_index": -3.0},
    {"version": 1, "command": "transform", "transform_index": 7.0},
    # a seed is non-negative, as numpy's generators need
    {"version": 1, "command": "verify", "case": "1.3", "seed": -1},
    {"version": 1, "command": "case-study", "study": "double-cev", "seed": -1.0},
    # items, minItems, maxItems
    {"version": 1, "command": "case-study", "sigma": [1.0, "a"]},
    {"version": 1, "command": "case-study", "alpha": [True]},
    {"version": 1, "command": "case-study", "sigma": []},
    # several errors: the root's beat a key's, required before additional
    # keys, and of siblings the greatest key or index wins
    {"bogus": 1},
    {"version": 1, "command": "verify", "extra": 1, "seed": "x"},
    {"version": 2, "command": "x", "seed": "s"},
    {"version": 1, "command": "verify", "params": {"a": "x", "b": True}},
    {"version": 1, "command": "verify", "params": {"b": "x", "a": True}},
    {"version": 1, "command": "case-study", "alpha": "x", "sigma": []},
    {"version": 1, "command": "case-study", "alpha": ["a", "b"]},
    {"version": 1, "command": "case-study", "sigma": [1, "a", 3]},
    # two errors at one key: the first in schema order (type before maximum)
    {"version": 1, "command": "transform", "transform_index": 9.5},
    {"version": 1, "command": "transform", "transform_index": 0.5},
]

# accepted by jsonschema: 1.0 is an integer and equals the const 1
GOOD_CONFIGS = [
    {"version": 1, "command": "classify", "potential": "a/x^2", "potential_params": {"a": 1}},
    {"version": 1, "command": "verify", "case": "1.4b", "seed": 3,
     "params": {"delta1": 1.0, "c": 0.5}, "constants": {"c1": 4}},
    {"version": 1.0, "command": "transform", "seed": 2.0, "transform_index": 6.0, "eps": 0.7,
     "delta": -1},
    {"version": 1, "command": "case-study", "study": "cev", "sigma": [0.3, 2], "alpha": [0.5],
     "r": 0.1, "rho": 0.2},
    {"version": 1, "command": "solve", "case": "1.2b", "allow_unverified": False,
     "samples_csv": "s.csv", "out_json": "r.json", "out_text": "r.txt"},
]


# what jsonschema.validate runs, less its check of the schema itself (done
# once, in test_config_schema_is_a_valid_json_schema)
_JSONSCHEMA = jsonschema.validators.validator_for(cli.CONFIG_SCHEMA)(cli.CONFIG_SCHEMA)


def _jsonschema_line(config):
    # the line validate_config must give: jsonschema.validate's error, or None
    exc = jsonschema.exceptions.best_match(_JSONSCHEMA.iter_errors(config))
    if exc is None:
        return None
    pointer = "/" + "/".join(str(p) for p in exc.absolute_path)
    return f"config invalid at {pointer}: {exc.message}"


def _validate_config_line(config):
    try:
        validate_config(config)
    except ConfigError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("config", BAD_CONFIGS, ids=range(len(BAD_CONFIGS)))
def test_schema_messages_match_jsonschema_validate(config):
    want = _jsonschema_line(config)
    assert want is not None
    assert _validate_config_line(config) == want


@pytest.mark.parametrize("config", GOOD_CONFIGS, ids=range(len(GOOD_CONFIGS)))
def test_schema_accepts_what_jsonschema_accepts(config):
    assert _jsonschema_line(config) is None
    validate_config(config)


_KEYS = sorted(cli.CONFIG_SCHEMA["properties"]) + ["bogus", "threads"]
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 9), st.floats(-3, 9),
              st.sampled_from([1.0, 6.0, 7.0, 0.5, "verify", "cev", "1"]), st.text(max_size=3)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=6,
)
_MUTATIONS = st.lists(st.one_of(
    # drop a key, or set one (known or not) to any value
    st.tuples(st.just("drop"), st.sampled_from(_KEYS), st.none()),
    st.tuples(st.just("set"), st.sampled_from(_KEYS), _JSON),
    # set one entry of a name -> number map
    st.tuples(st.just("bind"), st.sampled_from(["params", "constants", "potential_params"]),
              st.tuples(st.sampled_from(["a", "b", "C0"]), _JSON)),
    # push the bounds: the transform index, the array lengths and items
    st.tuples(st.just("set"), st.just("transform_index"),
              st.one_of(st.integers(-2, 9), st.floats(-2, 9), st.sampled_from([1.0, 6.0]))),
    st.tuples(st.just("set"), st.sampled_from(["sigma", "alpha"]),
              st.lists(st.one_of(st.floats(0, 3), st.integers(0, 3), st.booleans()), max_size=4)),
), max_size=4)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from(GOOD_CONFIGS), _MUTATIONS)
def test_schema_outcome_matches_jsonschema_on_mutated_configs(base, mutations):
    config = json.loads(json.dumps(base))
    for op, key, value in mutations:
        if op == "drop":
            config.pop(key, None)
        elif op == "set":
            config[key] = value
        else:
            name, number = value
            binding = config.get(key)
            config[key] = dict(binding if isinstance(binding, dict) else {}, **{name: number})
    assert _validate_config_line(config) == _jsonschema_line(config)


def test_config_schema_is_a_valid_json_schema():
    jsonschema.validators.validator_for(cli.CONFIG_SCHEMA).check_schema(cli.CONFIG_SCHEMA)


@pytest.mark.parametrize("edit, named", [
    (lambda s: s["properties"]["potential"].update(pattern="^[a-z]"), "'pattern'"),
    (lambda s: s.update(minProperties=2), "'minProperties'"),
    (lambda s: s["properties"]["sigma"]["items"].update(exclusiveMinimum=0), "'exclusiveMinimum'"),
    (lambda s: s["properties"]["study"].update(enum=[["cev"]]), "value ['cev']"),
    (lambda s: s["properties"]["seed"].update(type=["integer", "null"]),
     "type ['integer', 'null']"),
    (lambda s: s["properties"].update(extra=True), "subschema True"),
])
def test_schema_drift_fails_closed(monkeypatch, edit, named):
    """A keyword validate_config does not implement is refused wherever it
    sits, even under a key the config does not hold."""
    schema = copy.deepcopy(cli.CONFIG_SCHEMA)
    edit(schema)
    monkeypatch.setattr(cli, "CONFIG_SCHEMA", schema)
    with pytest.raises(NotImplementedError, match=re.escape(named)):
        validate_config({"version": 1, "command": "reduce", "case": "1.3"})


def test_deterministic_reports():
    cfg = {
        "version": 1,
        "command": "verify",
        "case": "1.5a",
        "seed": 7,
        "params": {"a": 1.0, "b": 0.5, "c0": 0.2},
    }
    _, rep1 = run(json.loads(json.dumps(cfg)))
    _, rep2 = run(json.loads(json.dumps(cfg)))
    assert rep1.to_json() == rep2.to_json()


@pytest.mark.parametrize("config", [
    {"version": 1, "command": "verify", "case": "1.3", "seed": 2},
    {"version": 1, "command": "transform", "seed": 3, "transform_index": 5},
])
def test_an_integral_float_runs_as_its_integer(config, tmp_path):
    # JSON Schema counts 2.0 as an integer; the report is the one of 2
    floats = {k: float(v) if k in ("seed", "transform_index") else v for k, v in config.items()}
    reports = []
    for i, cfg in enumerate((config, floats)):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--json", str(tmp_path / f"{i}.out")]) == 0
        reports.append((tmp_path / f"{i}.out").read_bytes())
    assert reports[0] == reports[1]


def test_main_exit_codes(capsys):
    assert main(["classify", "--potential", "1/x^2 + 2*y + 3"]) == 0
    out = capsys.readouterr().out
    assert "1.1a" in out


def test_main_config_error_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "command": "nope"}))
    assert main(["--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


# invocations that end in one "config error:" or "error:" line and exit 1:
# usage errors (argparse's own exit code, 2, is the one of a failed
# verification), unreadable configs, non-numeric bindings, an unknown case,
# and report paths that cannot be written
BAD_INVOCATIONS = [
    "transform --index 9",
    "--seed abc reduce --case 1.2b",
    "verify",
    "frobnicate",
    "reduce --case 1.2b --bogus",
    "--config missing.json",
    "--config invalid.json",
    "--config classify.json",
    "verify --case 1.3 --params a=x",
    "verify --case 1.3 --params a",
    "solve --case 1.3 --constants c1=x",
    "classify --potential a*x --param a=x",
    "verify --case 9.9",
    "verify --case 1.3 --seed -1",
    "case-study double-cev --seed -1",
    "reduce --case 1.6 --json nodir/report.json",
    "reduce --case 1.6 --text nodir/report.txt",
    "solve --case 1.2b --allow-unverified --samples nodir/samples.csv",
]


@pytest.mark.parametrize("argv", BAD_INVOCATIONS)
def test_bad_invocations_exit_1_with_one_line(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "invalid.json").write_text('{"version": 1,')
    (tmp_path / "classify.json").write_text('{"version": 1, "command": "classify"}')
    assert main(shlex.split(argv)) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(("config error: ", "error: ")) and "Traceback" not in err


def test_unknown_or_missing_case_is_a_config_error_in_run():
    for command in ("reduce", "solve", "verify"):
        for config in ({"case": "9.9"}, {}):
            with pytest.raises(ConfigError, match="case must be one of"):
                run(dict(config, version=1, command=command))


@pytest.mark.parametrize("command, key", [("classify", "potential"), ("case-study", "study")])
def test_a_command_without_its_required_key_is_a_config_error(command, key):
    with pytest.raises(ConfigError, match=f"command {command} needs the config key '{key}'"):
        run({"version": 1, "command": command})


def test_config_names_the_flags_it_ignores_on_stderr(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "run.json").write_text('{"version": 1, "command": "reduce", "case": "1.3"}')
    assert main(["--config", "run.json", "--json", "plain.json"]) == 0
    plain = capsys.readouterr()
    assert plain.err == ""
    argv = "--config run.json --seed 5 --json flags.json case-study cev --r 0.2"
    assert main(shlex.split(argv)) == 0
    flagged = capsys.readouterr()
    assert flagged.err == "warning: --config run.json ignores: case-study --seed cev --r\n"
    # the run, its stdout and its report are the config file's
    assert flagged.out == plain.out
    assert (tmp_path / "flags.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as ei:
        main(["verify", "--help"])
    assert ei.value.code == 0
    assert "--case" in capsys.readouterr().out


def test_usage_error_process_exit_status():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "liesolve.cli", "transform", "--index", "9"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 1, out.stderr
    assert out.stderr.startswith("config error: argument --index: invalid choice: 9")


def test_main_writes_reports(tmp_path):
    out_json = tmp_path / "report.json"
    out_text = tmp_path / "report.txt"
    code = main(
        [
            "--json", str(out_json), "--text", str(out_text),
            "reduce", "--case", "1.6",
        ]
    )
    assert code == 0
    data = json.loads(out_json.read_text())
    assert data["title"].endswith("1.6")
    assert "similarity" in out_text.read_text()


def test_verify_case_without_closed_form():
    code, rep = run({"version": 1, "command": "verify", "case": "1.3", "seed": 1})
    assert code == 0
    assert any("reduced operator only" in c.notes for c in rep.checks)


def test_solve_no_closed_form_is_an_error(capsys):
    assert main(["solve", "--case", "1.6", "--allow-unverified"]) == 1
    assert "NoClosedForm" in capsys.readouterr().err


def test_classify_then_verify_loop():
    """The end-to-end user workflow: sample an unknown potential, classify
    it, and verify the catalog chain on the extracted bindings."""
    import numpy as np

    from liesolve.exprlang import instantiate

    true = {"C0": 1.3, "c": 0.7, "a": 0.0, "b": 0.0, "c0": 0.4}
    f = instantiate("1.4b", true)
    from liesolve import match_case

    m = match_case(f)
    assert m.case_id == "1.4b"
    params = {k: v for k, v in m.bindings.items()}
    code, rep = run(
        {
            "version": 1,
            "command": "verify",
            "case": "1.4b",
            "params": params,
            "constants": {"c1": 2 * params["C0"] + 2.0},
            "seed": 4,
        }
    )
    assert code == 0 and rep.clean


def test_verify_18a_seed4_passes_its_fd_residual():
    # the FD stencil (h = 1e-3) read the step-boundary jumps of the former
    # piecewise ODE dense output as a 1.42e-6 residual; the spectral factor
    # is one polynomial on the span
    code, rep = run({"version": 1, "command": "verify", "case": "1.8a", "seed": 4})
    fd = [c for c in rep.checks if c.name.startswith("reconstruction FD residual")]
    assert code == 0 and len(fd) == 1 and fd[0].value < 1e-8


_IMPORT_BUDGET = """
import sys
import liesolve.cli as cli

def heavy():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "mpmath"))

cli.catalog()
assert "jsonschema" not in sys.modules and "concurrent.futures" not in sys.modules
# perfbench/tracing.install imports liesolve.cli and then wraps each layer's
# functions in the modules loaded by then; a layer that cli loaded lazily
# would run unwrapped in traced benchmark passes
missing = [m for m in sys.argv[1:] if m not in sys.modules]
assert not missing, missing
for config in (
    {"command": "classify", "potential": "1/x^2 + 2*y + 3"},
    {"command": "reduce", "case": "1.2b"},
    {"command": "transform", "transform_index": 5},
):
    code, _ = cli.run(dict(config, version=cli.SCHEMA_VERSION))
    assert code == 0, config
assert not heavy(), heavy()
# the ODE factors of 1.8a and 1.8b are spectral solves in numpy
for case in ("1.8a", "1.8b"):
    assert cli.main(["verify", "--case", case]) == 0
    assert not heavy(), (case, heavy())
# the first Bessel call imports scipy.special on demand
assert cli.main(["verify", "--case", "1.2b"]) == 0
assert "scipy.special" in sys.modules and "scipy.integrate" not in sys.modules
"""


def test_scipy_free_commands_import_no_scipy():
    """Importing the CLI loads neither jsonschema nor concurrent.futures but
    every module the benchmark's tracer wraps; classify, reduce, transform
    and verify of 1.8a and 1.8b never load scipy or mpmath; a verify run in
    the same interpreter loads them when it needs them."""
    tracing = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    wrapped = sorted(set(re.findall(r'"(liesolve(?:\.\w+)*)"', tracing.read_text())))
    assert "liesolve.casestudies" in wrapped and len(wrapped) >= 9, wrapped
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _IMPORT_BUDGET, *wrapped], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
