"""The benchmark's own tests; quick (a few seconds):

    python3 -m pytest perfbench -q
"""

import json
import math
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

workloads.use_checkout_source()

from spinbus import dynamics, fisher, states, sweep  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _benchmark_json() -> dict:
    return json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_every_metric_has_a_valid_name_and_a_unit():
    produced = {**run.END_TO_END_UNITS, **run.REPORT_UNITS, **tracing.PER_LAYER_UNITS}
    for name, unit in produced.items():
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == set(tracing.PER_LAYER_UNITS) - {
        "zzzz_exact.self_s", "fullspace.self_s", "sweep.pool_wait_s"}
    assert all(produced[name] == unit for name, unit in declared.items())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_traced_self_times_add_up_to_no_more_than_the_wall_time(tmp_path):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        workloads.run_cli(["fig", "6", "--out", str(tmp_path / "fig6.csv")])
        fisher.global_qfi_fd(dynamics.ModelSpec(dynamics.ModelKind.ZZXX), 20,
                             states.DEFAULT_ANGLES, fisher.Param.X)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    metrics = tracer.per_layer(overhead_s=0.0)
    total = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert 0.0 < total <= wall
    assert min(tracer.self_times()) >= 0.0
    assert metrics["sweep.points"] == 500
    assert metrics["fisher.propagations_per_quantity"] == 5
    assert metrics["dynamics.eigensolves"] == 5
    assert metrics["dynamics.eigensolve_dim_max"] == 42
    # fisher's own binding of propagate was wrapped, so propagate nests in it
    parents = {tracer.spans[s[4]][0] for s in tracer.spans
               if s[:2] == ["dynamics", "propagate"]}
    assert parents == {"fisher"}
    assert fisher.propagate is dynamics.propagate
    assert not hasattr(fisher.propagate, "__wrapped__")


def _reference_rows(reference, change=None):
    rows = {}
    for (fig, n, quantity, regime), (value, flag, _) in reference.items():
        row = sweep.Row(n, quantity, regime, value, flag)
        if change is not None and change[0] == (fig, n, quantity, regime):
            row = change[1](row)
        if row is not None:
            rows.setdefault(fig, []).append(row)
    return rows


def test_figures_gate_fails_a_wrong_value_a_lost_row_and_an_error():
    reference = workloads.load_reference()
    assert workloads.compare_rows(_reference_rows(reference), reference).failed == 0
    key = next(k for k, (value, flag, rtol) in reference.items()
               if not flag and rtol < 1e-4 and value > 0)
    for change in (
            lambda r: sweep.Row(r.n, r.quantity, r.regime, r.value * 1.001, r.flag),
            lambda r: None,
            lambda r: sweep.Row(r.n, r.quantity, r.regime, math.nan, "error:ValueError")):
        gate = workloads.compare_rows(_reference_rows(reference, (key, change)), reference)
        assert gate.failed == 1


def test_pool_gate_fails_when_a_csv_differs(tmp_path):
    paths = {}
    for name in ("pool", "serial"):
        (tmp_path / f"{name}.csv").write_text("N,quantity,regime,value,flag\n1,a,b,1,\n")
        (tmp_path / f"{name}.csv.fits.csv").write_text("quantity\n")
        paths[name] = {"2": tmp_path / f"{name}.csv"}
    assert workloads.identical_csv_checks(paths["pool"], paths["serial"]).failed == 0
    (tmp_path / "serial.csv").write_text("N,quantity,regime,value,flag\n1,a,b,1.0000001,\n")
    assert workloads.identical_csv_checks(paths["pool"], paths["serial"]).failed == 1


def test_large_n_gate_fails_a_wrong_value():
    rows = [sweep.Row(n, q, "weak", 7500.0 * n, "") for n in (250, 500, 1000)
            for q in ("global_qfi", "pt2")]
    fits = [{"quantity": "global_qfi", "exponent": "1.0"}]
    assert workloads.check_large_n(rows, fits).failed == 0
    rows[0] = sweep.Row(250, "global_qfi", "weak", 7500.0 * 250 * 1.03, "")
    assert workloads.check_large_n(rows, fits).failed == 1
    assert workloads.check_large_n(rows[1:], [{"quantity": "global_qfi",
                                               "exponent": "1.2"}]).failed == 2


def test_oracle_gate_fails_a_check_over_its_bound():
    oracle = workloads.Oracle.__new__(workloads.Oracle)
    checks = [workloads.Check("ok", 0.5, 1.0, True),
              workloads.Check("over", 1.19e-8, 1e-8, False)]
    gate = oracle.check(checks)
    assert (gate.attempted, gate.failed) == (2, 1)
    assert max(c.deviation / c.bound for c in gate.checks) == pytest.approx(1.19)


def test_generated_suite_d_inputs_reproduce_the_package_at_its_seed():
    inputs = workloads.generate_oracle_inputs(workloads.DEFAULT_SEED)
    ours = workloads.suite_d_checks(inputs["suite_d"])
    package = workloads.validate_checks(
        workloads.run_cli(["validate", "--suite", "d"], exit_codes=(0, 1)))
    assert [c.passed for c in ours] == [c.passed for c in package]
    for a, b in zip(ours, package):
        assert a.deviation == pytest.approx(b.deviation, rel=0.01, abs=1e-15)
    other = workloads.generate_oracle_inputs(1)
    assert other["suite_d"] != inputs["suite_d"]
    assert other["suite_d"] == workloads.generate_oracle_inputs(1)["suite_d"]


def test_fullspace_oracle_draws_its_inputs_from_the_seed():
    inputs = workloads.generate_fullspace_inputs(1)
    assert inputs == workloads.generate_fullspace_inputs(1)
    assert inputs != workloads.generate_fullspace_inputs(2)
    # oracle keeps tests/test_dynamics.py's fixed N = 10 inputs on every seed
    assert (workloads.generate_oracle_inputs(1)["fullspace"]
            == workloads.generate_oracle_inputs(2)["fullspace"])


def test_validate_output_parses_into_deviations():
    checks = workloads.validate_checks(
        workloads.run_cli(["validate", "--suite", "a"], exit_codes=(0, 1)))
    assert len(checks) == 2
    for c in checks:
        assert math.isfinite(c.deviation)
        assert c.passed == (c.deviation <= c.bound)


def test_fails_without_printing_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figures",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
