"""Acceptance gate: the eight headline criteria at their stated tolerances.

Each test runs one criterion from lievol.reproduce and prints a single
pass/fail line.  Tolerances are pinned inside the criterion functions:
exact equality for the volume tables, [0.98, 1.02] for the ratio
asymptote at n = 50, 1e-9 for the curvature identities, 1e-10 for the
band-mass quadrature identity, |z| < 3 for the Monte Carlo band masses
with a KS majority at p > 0.01, 1e-8 / 1e-4 for the geometry
cross-checks, and 1e-6 relative for the calibration closure.
"""

import json

import pytest

from lievol import reproduce

SEED = 42


def _builtin(obj) -> bool:
    """True when obj holds only builtin containers and scalars."""
    if isinstance(obj, dict):
        return all(_builtin(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(_builtin(v) for v in obj)
    return type(obj) in (str, int, float, bool, type(None))


def _announce(capsys, result):
    status = "PASS" if result["passed"] else "FAIL"
    with capsys.disabled():
        print(f"[{status}] criterion {result['id']}: {result['name']} "
              f"({result['runtime_s']}s)")


@pytest.mark.parametrize("fn,kwargs", [
    (reproduce.criterion_exact_volumes, {}),
    (reproduce.criterion_ratio_asymptotics, {}),
    (reproduce.criterion_curvature, {}),
    (reproduce.criterion_band_identity, {}),
    (reproduce.criterion_su_concentration, {"seed": SEED}),
    (reproduce.criterion_product_factorization, {"seed": SEED + 1}),
    (reproduce.criterion_geometry, {"seed": SEED + 2}),
    (reproduce.criterion_calibration, {}),
], ids=["exact-volumes", "ratio-asymptotics", "curvature-identities",
        "band-mass-identity", "su-concentration", "product-factorization",
        "quotient-geometry", "chart-calibration"])
def test_criterion(fn, kwargs, capsys):
    result = fn(**kwargs)
    _announce(capsys, result)
    assert result["passed"], result
    # the report serializes as returned; a numpy float64 would pass
    # json.dumps as a float subclass, so the types are checked too
    json.dumps(result)
    assert _builtin(result), result
