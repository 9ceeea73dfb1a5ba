"""Command-line entry point.

JSON is the canonical output; text and CSV are renderings of the same
report object.  Every run carries a provenance block (version, seed,
config echo).  Exit codes: 0 success, 1 computation error, 2 usage
error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .curvature import (LEVY_MIN_INDEX, LEVY_PER_INDEX, curvature_report,
                        ricci_bound_sequence, rescaled_levy_check)
from .montecarlo import (CHUNK, SamplerConfig, check_bins, check_radius,
                         concentration_experiment, draw, xi_histogram)
from .roots import Series, build_root_system, root_system_json
from .volumes import (USP_DIMENSION_NOTE, VolumeResult, closed_form_volume,
                      group_volume, log_volume, ratio_asymptote,
                      ratio_exponent)


FORMATS = ("json", "csv", "text")

# Most indices one levy run lists: 10^5 take 0.5-1 s and ~45 MiB in
# any format, 10^6 4-9 s and 183 MiB.
LEVY_MAX_TERMS = 100_000

# Most vector entries one roots listing writes (group_dim * n: every
# simple root, positive root and coroot in Z^n).  The time sets it: A228,
# B181, C181 and D181 (11.8-11.9 M entries) take 4-7 s as JSON and
# 17-24 s as text or CSV on a 2-core host.  They peak at 176-187 MiB in
# every format, as the report shares one str per distinct entry.
ROOTS_MAX_ENTRIES = 12_000_000

# The scale sequences c_n of `levy --rescale`, by name.
_RESCALE = {"log": math.log, "sqrt": math.sqrt, "linear": float,
            "const": lambda n: 1.0}


def _provenance(args) -> dict:
    # not where the report goes: --output writes the bytes stdout shows
    cfg = {k: v for k, v in vars(args).items()
           if k not in ("func", "output") and v is not None}
    build = np.show_config(mode="dicts")
    blas = build["Build Dependencies"]["blas"]
    # Monte Carlo draws call no BLAS or LAPACK: their bits depend on the
    # SIMD kernels numpy dispatches to (a fused complex multiply-add
    # rounds differently from re^2 + im^2 in the last bit)
    simd = build["SIMD Extensions"]
    return {"artifact_version": __version__, "config": cfg,
            "numpy": np.__version__,
            "numpy_simd": {"baseline": simd["baseline"],
                           "found": simd["found"]},
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "montecarlo_chunk": CHUNK}


# Pieces per write of a JSON report (about 13 KB of a roots listing):
# json.dump writes each token on its own, a system call apiece on an
# unbuffered stdout.
_JSON_BLOCK = 1024


def _write(report: dict, fmt: str, out) -> None:
    """Write the report to out, each piece as it is rendered."""
    if fmt == "json":
        # json.dump's encoder and its pieces, joined into blocks
        pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
        for block in iter(lambda: list(itertools.islice(pieces, _JSON_BLOCK)),
                          []):
            out.write("".join(block))
        out.write("\n")
    elif fmt == "csv":
        import csv
        w = csv.writer(out)
        w.writerow(("key", "value"))
        w.writerows(_flatten(report))
    else:
        out.writelines(f"{k} = {v}\n" for k, v in _flatten(report))


def _flatten(obj, prefix=""):
    """(dotted key, leaf) pairs of a report, in sorted key order."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            yield from _flatten(v, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), obj


def _finite(text: str) -> float:
    """A float option's value; nan and +-inf are usage errors, as JSON
    has no token for them and a check against them passes vacuously."""
    try:
        x = float(text)
    except ValueError:
        x = math.nan
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _series(args) -> Series:
    return Series(args.series, args.n)


# -- subcommands ------------------------------------------------------
# Each returns its report; main adds the provenance block.

def cmd_roots(args) -> dict:
    s = _series(args)
    entries = s.group_dim * s.n
    if entries > ROOTS_MAX_ENTRIES:
        raise ValueError(f"roots lists at most {ROOTS_MAX_ENTRIES} vector "
                         f"entries, not {entries} for {s.group_name}")
    return {"roots": root_system_json(build_root_system(s))}


def cmd_volume(args) -> dict:
    s = _series(args)
    out = {}
    if args.log or (not args.exact and s.n > 30):
        out["volume"] = VolumeResult(
            s, args.gamma, log_volume(s, args.gamma)).to_json()
    else:
        res = group_volume(s, args.gamma)
        closed = closed_form_volume(s)
        out["volume"] = res.to_json()
        # an equal value renders alike: reuse the pipeline's digits
        out["closed_form"] = (res.exact if closed == res.exact
                              else closed).to_json()
    if s.tag == "C":
        out["note"] = USP_DIMENSION_NOTE
    return out


def cmd_ratio(args) -> dict:
    s = _series(args)
    val = ratio_exponent(s)
    asym = ratio_asymptote(s)
    return {"ratio": {"group": s.group_name, "ratio_exponent": val,
                      "sphere_asymptote": asym, "quotient": val / asym}}


def cmd_curvature(args) -> dict:
    out = {"curvature": curvature_report(args.series, args.n).to_json()}
    if args.series == "usp":
        out["note"] = USP_DIMENSION_NOTE
    return out


def cmd_cpn(args) -> dict:
    from .cpn import band_mass, band_complement_mass
    from .reproduce import _STRUCTURE_TOL, criterion_geometry
    out = {}
    if args.action == "band-mass":
        out["band_mass"] = {
            "n": args.n, "eps": args.eps,
            "mass": band_mass(args.n, args.eps),
            "neighbourhood_measure": band_complement_mass(args.n, args.eps),
        }
    else:  # check-metric
        if not args.tol > 0:   # no deviation lies below it
            raise ValueError(f"--tol must be positive, not {args.tol}")
        res = criterion_geometry(points=args.points, ns=(args.n,))
        # relative: the densities shrink fast with n, and an absolute
        # bound passed a vielbein off by 1e-6 of itself from n = 5 on
        ok = bool(res["vielbein_density_rel_dev"] < args.tol
                  and res["pullback_dev"] < args.tol
                  and res["structure_equation_dev"] < _STRUCTURE_TOL)
        out["check_metric"] = {**res, "tol": args.tol, "passed": ok}
        if not ok:
            raise ArithmeticError("metric cross-check failed")
    return out


def cmd_sample(args) -> dict:
    cfg = SamplerConfig(_series(args), count=args.count, seed=args.seed,
                        workers=args.workers)
    # every argument is checked before the one draw that both read
    check_radius(args.r)
    if args.hist:
        if cfg.series.tag != "A":
            raise ValueError("--hist ksi is defined for the SU series")
        check_bins(args.bins)
    scalars = draw(cfg)
    out = {}
    if args.hist:
        out["histogram"] = xi_histogram(scalars, bins=args.bins)
    out["report"] = concentration_experiment(cfg, args.r, scalars).to_json()
    return out


def cmd_levy(args) -> dict:
    start = LEVY_MIN_INDEX[args.family] if args.start is None else args.start
    if start > args.stop:
        raise ValueError(f"--start {start} is above --stop {args.stop}")
    if args.stop - start >= LEVY_MAX_TERMS:
        raise ValueError(f"levy lists at most {LEVY_MAX_TERMS} indices, "
                         f"not {args.stop - start + 1}")
    ns = list(range(start, args.stop + 1))
    r_seq = ricci_bound_sequence(args.family, ns,
                                 coroot_length=args.coroot_length)
    out = {"ricci_bounds": {"family": args.family.upper(), "n": ns,
                            "R": r_seq}}
    if args.rescale:
        c_seq = [_RESCALE[args.rescale](n) for n in ns]
        ok, scaled = rescaled_levy_check(r_seq, c_seq, args.floor)
        out["rescaled"] = {"c": c_seq, "R_scaled": scaled, "levy": ok}
    return out


def cmd_reproduce(args) -> dict:
    from .reproduce import run_all
    report = run_all(seed=args.seed, quick=args.quick)
    for c in report["criteria"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] criterion {c['id']}: {c['name']} "
              f"({c['runtime_s']}s)", file=sys.stderr)
    return report


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="lievol",
        description="Exact volumes, curvature and concentration checks "
                    "for classical compact Lie groups")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp, series=True):
        if series:
            sp.add_argument("--series", required=True,
                            help="a/su, b/spin-odd, c/usp, d/spin-even")
            sp.add_argument("--n", type=int, required=True)
        sp.add_argument("--format", choices=FORMATS, default="json")
        sp.add_argument("--output", help="write the report to a file")

    sp = sub.add_parser("roots", help="root system data")
    add_common(sp)
    sp.set_defaults(func=cmd_roots)

    sp = sub.add_parser("volume", help="group volume, exact or log")
    add_common(sp)
    sp.add_argument("--gamma", type=int, default=1,
                    help="order of the central subgroup quotiented out")
    route = sp.add_mutually_exclusive_group()
    route.add_argument("--exact", action="store_true")
    route.add_argument("--log", action="store_true")
    sp.set_defaults(func=cmd_volume)

    sp = sub.add_parser("ratio", help="volume-ratio exponent")
    add_common(sp)
    sp.set_defaults(func=cmd_ratio)

    sp = sub.add_parser("curvature", help="Killing/Ricci/chi report")
    sp.add_argument("--series", required=True, choices=LEVY_PER_INDEX)
    sp.add_argument("--n", type=int, required=True,
                    help="defining matrix size")
    add_common(sp, series=False)
    sp.set_defaults(func=cmd_curvature)

    sp = sub.add_parser("cpn", help="quotient-geometry checks")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("action", choices=("band-mass", "check-metric"))
    sp.add_argument("--eps", type=_finite, default=0.3)
    sp.add_argument("--points", type=int, default=100)
    sp.add_argument("--tol", type=_finite, default=1e-8)
    add_common(sp, series=False)
    sp.set_defaults(func=cmd_cpn)

    sp = sub.add_parser("sample", help="Haar Monte Carlo band statistics")
    add_common(sp)
    sp.add_argument("--count", type=int, default=10_000)
    sp.add_argument("--r", type=_finite, default=0.3)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--workers", type=int, default=1)
    sp.add_argument("--hist", choices=("ksi",))
    sp.add_argument("--bins", type=int, default=200)
    sp.set_defaults(func=cmd_sample)

    sp = sub.add_parser("levy", help="Ricci bound sequences and rescaling")
    sp.add_argument("--family", required=True, choices=LEVY_PER_INDEX)
    sp.add_argument("--start", type=int,
                    help="first index (default: the family's smallest, "
                         "SU 2, SO 3, USp 2)")
    sp.add_argument("--stop", type=int, default=20)
    sp.add_argument("--coroot-length", type=_finite)
    sp.add_argument("--rescale", choices=_RESCALE)
    sp.add_argument("--floor", type=_finite, default=0.5)
    add_common(sp, series=False)
    sp.set_defaults(func=cmd_levy)

    sp = sub.add_parser("reproduce", help="run the full verification sweep")
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--quick", action="store_true")
    add_common(sp, series=False)
    sp.set_defaults(func=cmd_reproduce)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # opened first, so that a bad path fails before the work
        with (open(args.output, "w") if args.output
              else contextlib.nullcontext(sys.stdout)) as out:
            report = args.func(args)
            report["provenance"] = _provenance(args)
            _write(report, args.format, out)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
