"""Per-layer spans and counters around lievol's public functions.

The program has no tracing of its own, so this module wraps public
functions from outside: each wrapper is rebound under every name in
every ``lievol`` module that holds the original function, so calls made
through ``from .x import f`` are caught as well as calls through the
defining module.  A span records inclusive time; self time is inclusive
time minus the time of the spans it encloses.  Spans nest per thread.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from collections import Counter, defaultdict


class Tracer:
    """Collects spans and counters; create one per traced pass."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.total = defaultdict(float)       # span name -> inclusive s
        self.self_time = defaultdict(float)   # span name -> self s
        self.busy = defaultdict(float)        # layer -> s, nested calls once
        self.calls = Counter()
        self.counters = defaultdict(float)
        self._installed = []

    def count(self, **amounts: float) -> None:
        with self._lock:
            for name, amount in amounts.items():
                self.counters[name] += amount

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, hook, timed: bool):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not timed:
                out = fn(*args, **kwargs)
                with self._lock:
                    self.calls[name] += 1
                if hook is not None:
                    hook(self, args, kwargs, out)
                return out
            stack = self._stack()
            frame = [layer, 0.0]            # [layer, child seconds]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += dur
                with self._lock:
                    self.calls[name] += 1
                    self.total[name] += dur
                    self.self_time[name] += dur - frame[1]
                    if parent is None or parent[0] != layer:
                        self.busy[layer] += dur
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return wrapper

    def install(self, module, attr: str, name: str, hook=None,
                timed: bool = True) -> None:
        """Wrap ``module.attr`` and rebind it wherever lievol imported it.

        Raises AttributeError when the name no longer exists, so a rename
        in the program fails loudly instead of reporting zero.
        ``hook(tracer, args, kwargs, result)`` runs after each call.
        """
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, hook, timed)
        for mod in list(sys.modules.values()):
            modname = getattr(mod, "__name__", "")
            if modname != "lievol" and not modname.startswith("lievol."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._installed.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._installed):
            setattr(mod, key, original)
        self._installed.clear()


# -- lievol instrumentation -------------------------------------------

CRITERIA = ("exact_volumes", "ratio_asymptotics", "curvature",
            "band_identity", "su_concentration", "product_factorization",
            "geometry", "calibration")

# Columns of each Haar sample that concentration_experiment's statistics
# read: SU uses g[:, 0, 0], Spin the first two columns, USp the first.
COLUMNS_USED = {"A": 1, "B": 2, "C": 1, "D": 2}

# cpn functions that other modules call.
CPN_PUBLIC = ("angular_velocity_to_dz", "band_complement_mass", "band_mass",
              "chart_volume", "fs_metric_affine_on_velocity",
              "fs_metric_angular", "macdonald_quotient", "measure_density",
              "structure_equation_residual", "vielbein_density")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"reproduce.{c}_s", "s", "lower") for c in CRITERIA]
    + [("cli.self_s", "s", "lower"),
       ("volumes.group_volume_s", "s", "lower"),
       ("volumes.closed_form_volume_s", "s", "lower"),
       ("roots.build_root_system_s", "s", "lower"),
       ("roots.torus_volume_s", "s", "lower"),
       ("roots.coroot_norm_product_s", "s", "lower"),
       ("roots.positive_roots", "count", "lower"),
       ("exact.result_bits", "bit", "lower"),
       ("curvature.curvature_report_s", "s", "lower"),
       ("curvature.build_basis_s", "s", "lower"),
       ("curvature.structure_constants_s", "s", "lower"),
       ("curvature.killing_form_s", "s", "lower"),
       ("curvature.killing_form_calls", "count", "lower"),
       ("curvature.ricci_tensor_self_s", "s", "lower"),
       ("curvature.chi_coefficient_self_s", "s", "lower"),
       ("curvature.dense_bytes", "B", "lower"),
       ("montecarlo.sample_s", "s", "lower"),
       ("montecarlo.samples", "count", "lower"),
       ("montecarlo.chunks", "count", "lower"),
       ("montecarlo.samples_per_s", "1/s", "higher"),
       ("montecarlo.bytes_materialized", "B", "lower"),
       ("montecarlo.columns_used_frac", "ratio", "higher"),
       ("montecarlo.duplicate_draw_frac", "ratio", "lower"),
       ("montecarlo.ks_test_s", "s", "lower"),
       ("montecarlo.ks_points", "count", "lower"),
       ("montecarlo.stats_self_s", "s", "lower"),
       ("cpn.busy_s", "s", "lower"),
       ("cpn.calls", "count", "lower"),
       ("trace.overhead_frac", "ratio", "lower")])


def _result_bits(t, args, kwargs, res):
    q = res.exact.q
    t.count(result_bits=q.numerator.bit_length() + q.denominator.bit_length())


def _positive_roots(t, args, kwargs, rs):
    t.count(positive_roots=len(rs.positive_roots))


def _dense_bytes(t, args, kwargs, st):
    basis = args[0] if args else kwargs["basis"]
    # the (d, d, m, m) complex commutator-product intermediate
    t.count(dense_bytes=basis.dim ** 2 * basis.matrix_dim ** 2 * 16)


def _chunk(t, args, kwargs, g):
    t.count(chunks=1, samples=g.shape[0], bytes=g.nbytes)


def _ks_points(t, args, kwargs, res):
    t.count(ks_points=len(args[0] if args else kwargs["samples"]))


def instrument(t: Tracer) -> None:
    """Wrap the public functions of every lievol layer."""
    from lievol import cli, cpn, curvature, montecarlo, reproduce, roots
    from lievol import volumes

    seen = set()

    def draw(t, args, kwargs, g):
        cfg = args[0] if args else kwargs["cfg"]
        key = (cfg.series, cfg.seed, cfg.count)
        t.count(draws=1, duplicate_draws=key in seen, bytes=g.nbytes,
                columns_drawn=cfg.count * g.shape[-1],
                columns_used=cfg.count * COLUMNS_USED[cfg.series.tag])
        seen.add(key)

    t.install(cli, "main", "cli.main")
    for c in CRITERIA:
        t.install(reproduce, f"criterion_{c}", f"reproduce.{c}")
    t.install(volumes, "group_volume", "volumes.group_volume", _result_bits)
    t.install(volumes, "closed_form_volume", "volumes.closed_form_volume")
    t.install(roots, "build_root_system", "roots.build_root_system",
              _positive_roots)
    t.install(roots, "torus_volume", "roots.torus_volume")
    t.install(roots, "coroot_norm_product", "roots.coroot_norm_product")
    t.install(curvature, "curvature_report", "curvature.curvature_report")
    t.install(curvature, "build_basis", "curvature.build_basis")
    t.install(curvature, "structure_constants",
              "curvature.structure_constants", _dense_bytes)
    for name in ("killing_form", "ricci_tensor", "chi_coefficient"):
        t.install(curvature, name, f"curvature.{name}")
    for family in ("su", "so", "usp"):
        t.install(montecarlo, f"sample_{family}", "montecarlo.sample", draw)
        # chunks may run on pool threads: count them, span nothing
        t.install(montecarlo, f"haar_{family}_chunk", "montecarlo.chunk",
                  _chunk, timed=False)
    t.install(montecarlo, "ks_test", "montecarlo.ks_test", _ks_points)
    t.install(montecarlo, "concentration_experiment",
              "montecarlo.concentration_experiment")
    for name in CPN_PUBLIC:
        t.install(cpn, name, f"cpn.{name}")


def layer_metrics(t: Tracer) -> dict:
    """Per-layer values of a traced pass (trace.overhead_frac excluded)."""
    c = t.counters
    draws = c["draws"]
    sample_s = t.total["montecarlo.sample"]
    out = {f"reproduce.{k}_s": t.total[f"reproduce.{k}"] for k in CRITERIA}
    out.update({
        "cli.self_s": t.self_time["cli.main"],
        "volumes.group_volume_s": t.total["volumes.group_volume"],
        "volumes.closed_form_volume_s": t.total["volumes.closed_form_volume"],
        "roots.build_root_system_s": t.total["roots.build_root_system"],
        "roots.torus_volume_s": t.total["roots.torus_volume"],
        "roots.coroot_norm_product_s": t.total["roots.coroot_norm_product"],
        "roots.positive_roots": c["positive_roots"],
        "exact.result_bits": c["result_bits"],
        "curvature.curvature_report_s":
            t.total["curvature.curvature_report"],
        "curvature.build_basis_s": t.total["curvature.build_basis"],
        "curvature.structure_constants_s":
            t.total["curvature.structure_constants"],
        "curvature.killing_form_s": t.total["curvature.killing_form"],
        "curvature.killing_form_calls": t.calls["curvature.killing_form"],
        "curvature.ricci_tensor_self_s":
            t.self_time["curvature.ricci_tensor"],
        "curvature.chi_coefficient_self_s":
            t.self_time["curvature.chi_coefficient"],
        "curvature.dense_bytes": c["dense_bytes"],
        "montecarlo.sample_s": sample_s,
        "montecarlo.samples": c["samples"],
        "montecarlo.chunks": c["chunks"],
        "montecarlo.samples_per_s":
            c["samples"] / sample_s if sample_s else 0.0,
        "montecarlo.bytes_materialized": c["bytes"],
        "montecarlo.columns_used_frac":
            c["columns_used"] / c["columns_drawn"] if draws else 0.0,
        "montecarlo.duplicate_draw_frac":
            c["duplicate_draws"] / draws if draws else 0.0,
        "montecarlo.ks_test_s": t.total["montecarlo.ks_test"],
        "montecarlo.ks_points": c["ks_points"],
        "montecarlo.stats_self_s":
            t.self_time["montecarlo.concentration_experiment"],
        "cpn.busy_s": t.busy["cpn"],
        "cpn.calls": sum(n for k, n in t.calls.items()
                         if k.startswith("cpn.")),
    })
    return out
