"""Riemannian volumes of the classical compact groups.

Two independent evaluation routes are compared in tests: the
torus-times-spheres-times-coroot-norms pipeline built from the root data,
and Macdonald's closed forms, one record (a, k, s, f) per series with
V = 2^a pi^k sqrt(s) / prod_{i in f} i!.  The log route is that record
evaluated in logs, for ranks where the exact value overflows doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

from .exact import ExactScalar
from .roots import Series, build_root_system, coroot_norm_product, torus_volume

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


def _validate_gamma(series: Series, center_order: int) -> None:
    if center_order < 1 or _CENTER_ORDER[series.tag](series.n) % center_order:
        raise ValueError(
            f"|Gamma|={center_order} is not a subgroup order of the center "
            f"of {series.group_name}")


def _tree_prod(xs) -> int:
    """Product of the ints xs in a balanced binary tree, so each big
    multiplication pairs operands of like size, where left to right each
    step would multiply a growing integer by a small one.  Runs of at
    most 8, whose products are still small, are multiplied directly."""
    xs = list(xs)

    def prod(lo, hi):
        if hi - lo <= 8:
            return math.prod(xs[lo:hi])
        mid = (lo + hi) // 2
        return prod(lo, mid) * prod(mid, hi)

    return prod(0, len(xs))


def group_volume(series: Series, center_order: int = 1) -> VolumeResult:
    """Exact volume via the torus/spheres/coroot-norm pipeline.

    Raises ValueError above n = roots.MAX_EXACT_RANK.
    """
    _validate_gamma(series, center_order)
    rs = build_root_system(series)
    # the spheres S^{2d-1}, 2 pi^d / (d-1)! each, and 1/|Gamma| as one factor
    spheres = ExactScalar(
        Fraction(2 ** len(rs.degrees), center_order * _tree_prod(
            math.factorial(d - 1) for d in rs.degrees)),
        sum(rs.degrees))
    vol = torus_volume(rs) * coroot_norm_product(rs) * spheres
    return VolumeResult(series=series, center_order=center_order,
                        log_value=vol.log(), exact=vol)


def _closed_form(series: Series) -> tuple:
    """Macdonald's closed form as (a, k, s, f), V = 2^a pi^k sqrt(s) /
    prod_{i in f} i!.  f is lazy, so the log route holds no list."""
    n = series.n
    if series.tag == "A":
        e = n * (n + 1) // 2 - 1
        return e, e, n, range(1, n)
    if series.tag == "B":
        return n * (n + 2) + 1, n * (n + 1), 1, range(1, 2 * n, 2)
    if series.tag == "C":
        return n * n, n * (n + 1), 1, range(1, 2 * n, 2)
    return n * n + 1, n * n, 1, chain((n - 1,), range(1, 2 * n - 2, 2))


def closed_form_volume(series: Series) -> ExactScalar:
    """The per-series closed forms, as an independent route."""
    a, k, s, f = _closed_form(series)
    return ExactScalar(Fraction(2 ** a, _tree_prod(map(math.factorial, f))),
                       k, s)


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
    a, k, s, f = _closed_form(series)
    value = (a * math.log(2) + k * math.log(math.pi) + 0.5 * math.log(s)
             - sum(math.lgamma(i + 1) for i in f))
    return value - math.log(center_order)


def ratio_exponent(series: Series) -> float:
    """(V_big / V_small)^(1/ddim), evaluated in log space.

    big/small is SU(n+1)/SU(n) for A and the step down one rank for B, C,
    D; ddim is their dimension difference.  The value tends to sqrt(2 pi
    e / n-scale), the sphere-like behaviour that signals concentration.
    """
    n, tag = series.n, series.tag
    if tag == "A":
        big, small = Series(tag, n + 1), series
    else:
        try:
            big, small = series, Series(tag, n - 1)
        except ValueError:
            raise ValueError(f"the ratio of {series.group_name} steps below "
                             f"series {tag}; it takes n >= {n + 1}") from None
    if big.n > LOG_VOLUME_MAX_RANK:   # refused before the first lgamma
        raise ValueError(f"the ratio of {series.group_name} takes n <= "
                         f"{LOG_VOLUME_MAX_RANK - big.n + n} on the "
                         f"log-gamma route")
    dlog = log_volume(big) - log_volume(small)
    return math.exp(dlog / (big.group_dim - small.group_dim))


def ratio_asymptote(series: Series) -> float:
    """sqrt(2 pi e / scale), the limit ratio_exponent tends to; the scale
    is n for A and 2n for B, C, D."""
    scale = series.n if series.tag == "A" else 2 * series.n
    return math.sqrt(2 * math.pi * math.e / scale)
