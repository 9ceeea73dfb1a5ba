"""Every lievol function the benchmark's tracer wraps still exists, and
the benchmark's workloads still call lievol as they expect.

perfbench/tracer.py times lievol from outside by rebinding public
functions by name, and perfbench/workloads.py calls some of them, so a
rename or a signature change in src would otherwise surface only in the
benchmark's own self-test.  Both are loaded read-only: no bytecode is
written beside them.
"""

import importlib.util
import sys
from pathlib import Path

import lievol.cpn
import lievol.montecarlo
import lievol.reproduce

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bytecode():
    return {(p, p.stat().st_mtime_ns)
            for p in PERFBENCH.glob("__pycache__/*")}


def test_instrument_then_uninstall(monkeypatch):
    before = _bytecode()
    tracer = _load(monkeypatch, "tracer")
    original = lievol.cpn.vielbein_density
    t = tracer.Tracer()
    try:
        tracer.instrument(t)   # AttributeError on a renamed function
        # rebound where it is defined and where it is imported
        assert lievol.cpn.vielbein_density is not original
        assert lievol.reproduce.vielbein_density is not original
    finally:
        t.uninstall()
    assert lievol.cpn.vielbein_density is original
    assert lievol.reproduce.vielbein_density is original
    assert _bytecode() == before


def test_workloads_call_shapes(monkeypatch):
    # set_up's calls, and one fingerprint entry per concentration report
    # of criteria 5 and 6
    before = _bytecode()
    tracer = _load(monkeypatch, "tracer")
    monkeypatch.setitem(sys.modules, "tracer", tracer)   # workloads' import
    workloads = _load(monkeypatch, "workloads")
    workloads.set_up(Path(lievol.cpn.__file__).resolve().parent.parent)
    prints = []
    t = tracer.Tracer()
    try:
        t.install(lievol.montecarlo, "concentration_experiment",
                  "fingerprint", workloads.fingerprint_hook(prints),
                  timed=False)
        lievol.reproduce.criterion_su_concentration(count=2048)
        lievol.reproduce.criterion_product_factorization(count=2048)
    finally:
        t.uninstall()
    assert len(prints) == 19
    assert _bytecode() == before
