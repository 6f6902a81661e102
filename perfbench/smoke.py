"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at the reduced ``--size tiny``, untraced and traced,
and asserts that

* the run exits 0 and its last line is the result object with exactly the
  keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
* the result carries every metric BENCHMARK.json names for that mode, with
  the unit BENCHMARK.json gives it;
* every such metric, plus ``fail_frac`` (and ``op_p90_s`` where a pass has
  enough ops), is printed on a ``metric`` line with its unit and sample
  count;

and that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import OUT_DIR, P90_MIN_OPS  # noqa: E402

METRIC_LINE = re.compile(r"^metric (end_to_end|per_layer) (\S+) = (\S+) (\S+) \(n=(\d+) [^)]+\)$")
OP_LINE = re.compile(r"^op (\d+)\.\d+ ")


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_run(spec, workload, trace):
    out = run_bench(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    assert out.returncode == 0, f"{where}: exit {out.returncode}\n{out.stdout[-2000:]}{out.stderr[-2000:]}"
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"], where

    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == wanted, f"{where}: result metrics {got} != {wanted}"
    for v in result["metrics"].values():
        assert set(v) == {"value", "unit"} and isinstance(v["value"], (int, float)), where

    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(2)] = (m.group(4), int(m.group(5)))
    expected = dict(wanted)
    expected["fail_frac"] = "ratio"
    ops_per_pass = sum(1 for line in lines if line.startswith("op 0."))
    ops_per_pass //= 2 if trace else 1
    if ops_per_pass >= P90_MIN_OPS:
        expected["op_p90_s"] = "s"
    for name, unit in expected.items():
        assert name in printed, f"{where}: no metric line for {name}"
        assert printed[name][0] == unit, f"{where}: {name} printed in {printed[name][0]}, not {unit}"
    print(f"ok  {where}: {len(expected)} metrics printed with units and sample counts, "
          f"{result['attempted']} ops, {result['failed']} failed")


def check_refuses_without_program():
    bare = OUT_DIR / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(bare, "cli_mix", 0)
        assert out.returncode != 0, "benchmark ran without the program's sources"
        assert '"correct"' not in out.stdout, "benchmark printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without src/ (exit code "
          f"{out.returncode}: {out.stderr.strip().splitlines()[-1]})")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            check_run(spec, workload, trace)
    check_refuses_without_program()
    return 0


if __name__ == "__main__":
    sys.exit(main())
