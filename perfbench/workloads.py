"""One pass of one benchmark workload, in a fresh interpreter.

run.py starts this script once per pass, with PYTHONPATH pointing at
the checkout's ``src`` and the BLAS thread variables set to 1, so numpy
never starts more threads than the workload asks for and the process's
peak RSS belongs to this workload alone.

    python3 perfbench/workloads.py --workload algebra --seed 42 \
        --out-dir DIR --spawned-at T [--trace] [--size smoke]

where T is CLOCK_MONOTONIC when run.py started the process.

The script first sets up: it imports ``lievol.cli`` and
``lievol.reproduce`` and makes one tiny call per layer.  It then runs
the pass and prints one JSON object with the setup time, the pass's
wall, CPU and peak-RSS figures, the checks attempted and failed, the
Monte Carlo stream fingerprint and, with ``--trace``, the per-layer
metrics.  With ``--setup-only`` it stops after setting up.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tracer

FAILURES = (ValueError, ArithmeticError, OverflowError, ZeroDivisionError,
            np.linalg.LinAlgError, MemoryError)

# criterion 3's tolerance for the chi identities
CHI_TOL = 1e-9
# Monte Carlo draws always use the acceptance seed.  The 3-sigma gates
# fail by chance at about 1 seed in 40 for the sweep, so a stream keyed
# by the run's seed would make runs fail that found no defect; a fixed
# stream also makes the fingerprint comparable between commits.  The
# run's seed orders the independent operations instead.
MC_SEED = 42


class Checks:
    """Checks attempted and failed in one pass."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, label: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)

    def run(self, label: str, op) -> None:
        """Run one operation whose result is its verdict.

        One of the FAILURES exceptions counts as a failed check, and the
        pass goes on with its next operation.
        """
        try:
            ok = op()
        except FAILURES as exc:
            self.check(f"{label}: {type(exc).__name__}: {exc}", False)
        else:
            self.check(label, ok)


# -- workloads ---------------------------------------------------------

def sweep_quick(seed: int, size: str, out_dir: Path, checks: Checks) -> None:
    """`lievol reproduce --seed 42 --quick`, in-process through the CLI.

    The sweep is one call, so the run's seed changes nothing here.
    """
    from lievol import cli

    out = out_dir / "reproduce.json"
    report = {}

    def reproduce():
        # the sweep prints its progress; keep stdout for the result line
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(["reproduce", "--seed", str(MC_SEED), "--quick",
                           "--output", str(out)])
        if rc == 0:
            report.update(json.loads(out.read_text()))
        return rc == 0

    checks.run("reproduce exit code 0", reproduce)
    criteria = report.get("criteria", [])
    for i, name in enumerate(tracer.CRITERIA):
        passed = i < len(criteria) and criteria[i]["passed"]
        checks.check(f"criterion {i + 1} ({name}) passed", passed)
    checks.check("all_passed agrees with the criteria",
                 bool(criteria) and report["all_passed"]
                 == all(c["passed"] for c in criteria))


ALGEBRA_RANKS = {"full": (10, 20, 30), "smoke": (4, 5)}
# su(12) alone would take 9 s, longer than the rest of the pass
ALGEBRA_SIZES = {"full": {"su": (8, 10), "so": (8, 12), "usp": (8, 12)},
                 "smoke": {"su": (4, 6), "so": (4, 6), "usp": (4, 6)}}


def algebra(seed: int, size: str, out_dir: Path, checks: Checks) -> None:
    """Exact volumes against the closed forms, and curvature reports."""
    from lievol.curvature import curvature_report
    from lievol.roots import Series
    from lievol.volumes import closed_form_volume, group_volume

    def volume(tag, n):
        s = Series(tag, n)
        return group_volume(s).exact == closed_form_volume(s)

    def curvature(alg, m):
        rep = curvature_report(alg, m)
        if alg == "su":
            return abs(2 * rep.chi - rep.chi_prime) < CHI_TOL
        return abs(rep.chi - rep.claimed_chi) < CHI_TOL

    # The seed orders the operations within each layer; the set is always
    # the same.  Curvature goes first, so that its dense arrays, which set
    # the peak RSS, never land on a heap the big rationals have grown.
    rng = random.Random(seed)
    curv = [(a, m) for a, ms in ALGEBRA_SIZES[size].items() for m in ms]
    vols = [(t, n) for t in "ABCD" for n in ALGEBRA_RANKS[size]]
    rng.shuffle(curv)
    rng.shuffle(vols)
    for a, m in curv:
        checks.run(f"curvature {a}({m}) chi", lambda: curvature(a, m))
    for t, n in vols:
        checks.run(f"volume {t}{n} equals the closed form",
                   lambda: volume(t, n))


WORKLOADS = {"sweep_quick": sweep_quick, "algebra": algebra}


# -- set-up, environment and the pass ---------------------------------

def set_up(src: Path) -> None:
    """Import the CLI and the sweep, then make one tiny call per layer."""
    from lievol import cli, reproduce
    from lievol.cpn import band_mass
    from lievol.curvature import curvature_report
    from lievol.montecarlo import SamplerConfig, concentration_experiment
    from lievol.roots import Series
    from lievol.volumes import closed_form_volume, group_volume

    if Path(cli.__file__).resolve().parent != src / "lievol":
        raise SystemExit(f"lievol imported from {cli.__file__}, "
                         f"not from {src}")
    cli.build_parser()
    reproduce.criterion_ratio_asymptotics()
    group_volume(Series("A", 2))
    closed_form_volume(Series("A", 2))
    curvature_report("su", 2)
    concentration_experiment(SamplerConfig(Series("A", 3), 16, 0), 0.3)
    band_mass(1, 0.3)


def environment(seed: int) -> dict:
    import dataclasses

    import scipy
    from lievol import montecarlo

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in os.environ.items()
                    if k.endswith("_NUM_THREADS")},
        "montecarlo.CHUNK": montecarlo.CHUNK,
        # the sweep's draws use SamplerConfig's default
        "workers": next(f.default for f in dataclasses.fields(
            montecarlo.SamplerConfig) if f.name == "workers"),
        "seed": seed,
        "mc_seed": MC_SEED,
    }


def fingerprint_hook(prints: list):
    """Record (empirical_mass, ks_statistic) of every concentration report."""
    def hook(t, args, kwargs, rep):
        prints.append([rep.series.group_name, rep.seed, rep.r,
                       rep.empirical_mass, rep.ks_statistic])
    return hook


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="CLOCK_MONOTONIC time at which run.py started this")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    set_up(src)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    from lievol import montecarlo

    t = tracer.Tracer()
    if args.trace:
        tracer.instrument(t)
    prints = []
    t.install(montecarlo, "concentration_experiment", "fingerprint",
              fingerprint_hook(prints), timed=False)
    checks = Checks()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    WORKLOADS[args.workload](args.seed, args.size, args.out_dir, checks)
    wall = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    t.uninstall()
    result.update({
        "wall_s": wall,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "attempted": checks.attempted,
        "failures": checks.failures,
        # sorted, so that the order the seed chose does not show
        "fingerprint": sorted(prints),
        "env": environment(args.seed),
    })
    if args.trace:
        result["layers"] = tracer.layer_metrics(t)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
