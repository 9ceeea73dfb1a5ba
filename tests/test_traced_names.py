"""Every lievol function the benchmark's tracer wraps still exists.

perfbench/tracer.py times lievol from outside by rebinding public
functions by name, so a rename in src would otherwise surface only in
the benchmark's own self-test.  The tracer is loaded read-only: no
bytecode is written beside it.
"""

import importlib.util
import sys
from pathlib import Path

import lievol.cpn
import lievol.reproduce

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bytecode():
    return {(p, p.stat().st_mtime_ns)
            for p in TRACER.parent.glob("__pycache__/tracer*")}


def test_instrument_then_uninstall(monkeypatch):
    before = _bytecode()
    tracer = _load_tracer(monkeypatch)
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
