"""Riemannian volumes of the classical compact groups.

Two independent evaluation routes are provided and compared in tests:
the torus-times-spheres-times-coroot-norms pipeline built from the root
data, and the four per-series closed forms.  A log-gamma route covers
ranks where the exact value overflows doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import ExactScalar
from .roots import Series, build_root_system, coroot_norm_product, torus_volume

LOG_2PI = math.log(2 * math.pi)

# Largest n of the log-gamma route, which sums O(n) lgamma terms:
# `volume --log` at n = 10^6 takes 0.5 s, at 10^7 2.6 s; `ratio` reads
# two ranks and takes 0.9 s, resp. 5.5 s.
LOG_VOLUME_MAX_RANK = 10 ** 6

# Largest |Gamma| for a subgroup of the center of the simply connected form.
_CENTER_ORDER = {"A": lambda n: n, "B": lambda n: 2,
                 "C": lambda n: 2, "D": lambda n: 4}

# The defining-matrix dimension quoted for USp(2n) in some sources is
# inconsistent with the basis count n(2n+1); reports carry this note.
USP_DIMENSION_NOTE = ("USp(2n) dimension taken as n(2n+1) from the basis "
                      "count; a quoted value 2n^2+2 is inconsistent with it")


@dataclass(frozen=True)
class VolumeResult:
    series: Series
    center_order: int
    log_value: float
    exact: Optional[ExactScalar] = None

    def to_json(self) -> dict:
        out = {"group": self.series.group_name, "series": self.series.tag,
               "n": self.series.n, "center_order": self.center_order,
               "log_volume": self.log_value}
        if self.exact is not None:
            out["exact"] = self.exact.to_json()
            out["exact_str"] = str(self.exact)
            try:
                out["decimal"] = self.exact.decimal()
            except OverflowError:
                pass
        return out


def sphere_volume(d: int) -> ExactScalar:
    """Volume of the unit odd sphere S^{2d-1}: 2 pi^d / (d-1)!."""
    if d < 1:
        raise ValueError("d must be >= 1")
    return ExactScalar(Fraction(2, math.factorial(d - 1)), d, 1)


def _validate_gamma(series: Series, center_order: int) -> None:
    if center_order < 1 or _CENTER_ORDER[series.tag](series.n) % center_order:
        raise ValueError(
            f"|Gamma|={center_order} is not a subgroup order of the center "
            f"of {series.group_name}")


def group_volume(series: Series, center_order: int = 1) -> VolumeResult:
    """Exact volume via the torus/spheres/coroot-norm pipeline.

    Raises ValueError above n = roots.MAX_EXACT_RANK.
    """
    _validate_gamma(series, center_order)
    rs = build_root_system(series)
    vol = torus_volume(rs)
    for d in rs.degrees:
        vol = vol * sphere_volume(d)
    vol = vol * coroot_norm_product(rs)
    vol = vol * ExactScalar(Fraction(1, center_order))
    return VolumeResult(series=series, center_order=center_order,
                        log_value=vol.log(), exact=vol)


def closed_form_volume(series: Series) -> ExactScalar:
    """The per-series closed forms, as an independent route."""
    n = series.n
    if series.tag == "A":
        e = n * (n + 1) // 2 - 1
        den = math.prod(math.factorial(i) for i in range(1, n))
        return ExactScalar(Fraction(2 ** e, den), e, n)
    if series.tag == "B":
        den = math.prod(math.factorial(2 * i - 1) for i in range(1, n + 1))
        return ExactScalar(Fraction(2 ** (n * (n + 2) + 1), den),
                           n * (n + 1), 1)
    if series.tag == "C":
        den = math.prod(math.factorial(2 * i - 1) for i in range(1, n + 1))
        return ExactScalar(Fraction(2 ** (n * n), den), n * (n + 1), 1)
    # D
    den = math.factorial(n - 1) * math.prod(
        math.factorial(2 * i - 1) for i in range(1, n))
    return ExactScalar(Fraction(2 ** (n * n + 1), den), n * n, 1)


def log_volume(series: Series, center_order: int = 1) -> float:
    """ln(V / |Gamma|) via log-gamma; exact-path independent and
    overflow-free.

    Raises ValueError above n = LOG_VOLUME_MAX_RANK, and for a |Gamma|
    that is not a subgroup order of the center.
    """
    _validate_gamma(series, center_order)
    n = series.n
    if n > LOG_VOLUME_MAX_RANK:
        raise ValueError(f"the log-gamma route runs to n = "
                         f"{LOG_VOLUME_MAX_RANK}, not {n}")
    if series.tag == "A":
        value = (0.5 * math.log(n) + (n * (n + 1) / 2 - 1) * LOG_2PI
                 - sum(math.lgamma(i + 1) for i in range(1, n)))
    elif series.tag == "B":
        value = ((n * (n + 2) + 1) * math.log(2)
                 + n * (n + 1) * math.log(math.pi)
                 - sum(math.lgamma(2 * i) for i in range(1, n + 1)))
    elif series.tag == "C":
        value = (n * n * math.log(2) + n * (n + 1) * math.log(math.pi)
                 - sum(math.lgamma(2 * i) for i in range(1, n + 1)))
    else:
        value = ((n * n + 1) * math.log(2) + n * n * math.log(math.pi)
                 - math.lgamma(n)
                 - sum(math.lgamma(2 * i) for i in range(1, n)))
    return value - math.log(center_order)


# Dimension jump to the previous group of the same series (next for A).
def _dim_step(series: Series) -> int:
    n = series.n
    return {"A": 2 * n + 1, "B": 4 * n - 1,
            "C": 4 * n - 1, "D": 4 * n - 3}[series.tag]


def ratio_exponent(series: Series) -> float:
    """(V_next / V_n)^(1/ddim), evaluated in log space.

    For the A series this is SU(n+1)/SU(n); for B, C, D it is the step
    down one rank, matching the dimension differences 2n+1, 4n-1, 4n-1,
    4n-3.  The value tends to sqrt(2 pi e / n-scale), the sphere-like
    behaviour that signals concentration.
    """
    n, tag = series.n, series.tag
    if tag == "A":
        other = Series("A", n + 1)
        dlog = log_volume(other) - log_volume(series)
    else:
        other = Series(tag, n - 1)  # raises if n-1 below series minimum
        dlog = log_volume(series) - log_volume(other)
    return math.exp(dlog / _dim_step(series))


def ratio_scale(series: Series) -> int:
    """The n-scale in the asymptote sqrt(2 pi e / scale)."""
    return series.n if series.tag == "A" else 2 * series.n
