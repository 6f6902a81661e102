"""CLI and run-configuration tests."""

import json
import math

import pytest

from liesolve.cli import main, run, validate_config
from liesolve.errors import ConfigError


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


def test_main_exit_codes(capsys):
    assert main(["classify", "--potential", "1/x^2 + 2*y + 3"]) == 0
    out = capsys.readouterr().out
    assert "1.1a" in out


def test_main_config_error_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "command": "nope"}))
    assert main(["--config", str(cfg)]) == 1
    assert "config error" in capsys.readouterr().err


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
