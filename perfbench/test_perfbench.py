"""Self-test of the benchmark: tiny-size runs of every workload.

    python3 -m pytest perfbench

Each run must be correct and emit exactly the metrics BENCHMARK.json
names, and every function the tracer wraps must still exist, so that a
rename in lievol fails here instead of reporting zero.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer
from workloads import Checks

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# per-layer metrics that stay zero on a workload that never calls them
CALLED = {
    "sweep_quick": ("reproduce.", "cli.", "volumes.", "roots.", "exact.",
                    "curvature.", "montecarlo.", "cpn."),
    "algebra": ("volumes.", "roots.", "exact.", "curvature."),
}


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert ([(m["name"], m["unit"]) for m in SPEC["end_to_end"]]
            == list(run.END_TO_END))
    assert ([(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]
            == tracer.PER_LAYER)


def test_every_wrapped_name_resolves():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        t = tracer.Tracer()
        tracer.instrument(t)   # raises AttributeError on a renamed function
        t.uninstall()
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_a_failing_operation_is_counted_and_the_pass_goes_on():
    checks = Checks()
    checks.run("divides", lambda: 1 / 0 > 0)
    checks.run("holds", lambda: True)
    checks.run("does not hold", lambda: False)
    assert checks.attempted == 3
    assert len(checks.failures) == 2
    assert "ZeroDivisionError" in checks.failures[0]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = _run(workload, 0)
    assert proc.returncode == 0
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert list(out["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(m["value"] > 0 for m in out["metrics"].values())
    assert "failed_frac = 0 " in proc.stdout


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_reports_every_layer_it_calls(workload):
    proc = _run(workload, 1)
    assert proc.returncode == 0
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["correct"] and out["failed"] == 0
    assert list(out["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name, metric in out["metrics"].items():
        if name == "trace.overhead_frac":
            continue
        assert ((metric["value"] != 0)
                == name.startswith(CALLED[workload])), name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("algebra", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
