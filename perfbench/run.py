"""Benchmark of lievol: one run of one workload.

    python3 perfbench/run.py --workload {sweep_quick,algebra} \
        --seed N --seconds S --trace {0,1} [--size smoke]

Run from the root of a checkout; the program is imported from its
``src``.  Every pass runs in a fresh interpreter (perfbench/workloads.py)
with the BLAS thread variables set to 1.

- With ``--trace 0`` a run makes untraced passes while the next one,
  and the interpreters still owed below, would end within ``--seconds``
  of the run's start, at least one.  It then starts interpreters that
  only set up, at least ``SETUP_RUNS`` of them and more until
  ``--seconds`` is used up.  It reports the median of each end-to-end
  metric; set-up time is taken from every interpreter it started.
- With ``--trace 1`` it runs one untraced and one traced pass and reports
  the per-layer metrics of the traced pass, plus the tracing overhead.

The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it record
the environment, the Monte Carlo stream fingerprint, any failed checks
and each metric with its unit.  perfbench/README.md lists the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("sweep_quick", "algebra")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MiB"))
SETUP_RUNS = 3
# a run must end within 180 s; leave room to report
DEADLINE_S = 170.0


def _now() -> float:
    # CLOCK_MONOTONIC is one clock for every process, so a child can
    # measure its set-up from the moment it was spawned
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Starts the interpreters of one run, each within the run's deadline."""

    def __init__(self, args, out_dir: Path):
        self.args = args
        self.out_dir = out_dir
        self.env = child_env()
        self.deadline = _now() + DEADLINE_S

    def spawn(self, *flags: str) -> dict:
        timeout = self.deadline - _now()
        if timeout <= 0:
            raise RuntimeError(f"run exceeded {DEADLINE_S:.0f} s")
        spawned = _now()
        cmd = [sys.executable, str(HERE / "workloads.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--size", self.args.size, "--out-dir", str(self.out_dir),
               "--spawned-at", repr(spawned), *flags]
        proc = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=timeout,
                              stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["process_s"] = _now() - spawned
        return result


def measure(args, out_dir: Path) -> dict:
    runner = Runner(args, out_dir)
    if args.trace:
        passes = [runner.spawn(), runner.spawn("--trace")]
        samples = {}
        metrics = dict(passes[1]["layers"])
        metrics["trace.overhead_frac"] = (passes[1]["wall_s"]
                                          / passes[0]["wall_s"] - 1.0)
    else:
        # A shared machine's speed drifts over tens of seconds, so a run
        # spends all of --seconds measuring; set-up-only interpreters fill
        # what the passes leave.
        end = _now() + args.seconds
        passes = [runner.spawn()]
        setup = passes[0]["process_s"] - passes[0]["wall_s"]
        while (_now() + passes[-1]["process_s"] + SETUP_RUNS * setup
               <= end):
            passes.append(runner.spawn())
        setups = []
        while len(setups) < SETUP_RUNS or _now() + setup <= end:
            setups.append(runner.spawn("--setup-only")["setup_s"])
        samples = {"setup_s": setups + [p["setup_s"] for p in passes]}
        samples.update({name: [p[name] for p in passes]
                        for name, _ in END_TO_END[1:]})
        metrics = {k: statistics.median(v) for k, v in samples.items()}

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    prints = [p["fingerprint"] for p in passes]
    if len(prints) > 1:
        # a report is bit-identical for a given (seed, count), traced or not
        attempted += 1
        if any(fp != prints[0] for fp in prints):
            failures.append("Monte Carlo fingerprint differs between passes")
    return {"env": passes[0]["env"], "fingerprint": prints[0],
            "passes": len(passes), "attempted": attempted,
            "failures": failures, "metrics": metrics, "samples": samples}


def report(res: dict, trace: bool) -> None:
    print("env " + json.dumps(res["env"], sort_keys=True))
    digest = hashlib.sha256(
        json.dumps(res["fingerprint"]).encode()).hexdigest()[:16]
    print(f"fingerprint sha256:{digest} [group, seed, r, empirical_mass, "
          "ks_statistic] " + json.dumps(res["fingerprint"]))
    for f in res["failures"]:
        print(f"FAILED {f}")
    units = ({name: unit for name, unit, _ in PER_LAYER} if trace
             else dict(END_TO_END))
    for name, value in res["metrics"].items():
        line = f"{name} = {value:.6g} {units[name]}"
        if name in res["samples"]:
            line += " (median of " + ", ".join(
                f"{v:.6g}" for v in res["samples"][name]) + ")"
        print(line)
    failed = len(res["failures"])
    print(f"failed_frac = {failed / res['attempted']:.6g} "
          f"({failed} of {res['attempted']} checks in {res['passes']} passes)")
    print(json.dumps({
        "correct": failed == 0, "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in res["metrics"].items()}}))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for the benchmark's self-test")
    args = p.parse_args(argv)

    if not (SRC / "lievol" / "__init__.py").is_file():
        print(f"error: no lievol sources under {SRC}", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that subprocess.run kills and reaps the pass
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    out_dir = OUT / str(os.getpid())
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        res = measure(args, out_dir)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            OUT.rmdir()
        except OSError:
            pass
    report(res, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
