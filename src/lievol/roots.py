"""Closed-form root data for the classical series A, B, C, D.

Roots are stored as integer vectors in the ambient Z^n (the A series
lives in the trace-zero hyperplane).  In this embedding every coroot
2 alpha / (alpha, alpha) is integral too, so coroot norms are integers
and the Gram determinant of the simple coroots comes from fraction-free
(Bareiss) elimination: exact, with no rational arithmetic.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from .exact import ExactScalar

_MIN_RANK = {"A": 2, "B": 2, "C": 2, "D": 4}

# Largest n with exact root data: the dense root table holds about n^3
# integers, and D200 already takes ~2 s and ~80 MiB.
MAX_EXACT_RANK = 200

# CLI / report aliases for each series tag.
SERIES_ALIASES = {
    "a": "A", "su": "A",
    "b": "B", "spin-odd": "B", "so-odd": "B",
    "c": "C", "usp": "C", "sp": "C",
    "d": "D", "spin-even": "D", "so-even": "D",
}


@dataclass(frozen=True)
class Series:
    """One classical family at one rank parameter.

    The parameter n follows the group naming: SU(n) for A, Spin(2n+1)
    for B, USp(2n) for C, Spin(2n) for D.
    """

    tag: str
    n: int

    def __post_init__(self):
        tag = SERIES_ALIASES.get(self.tag.lower(), self.tag.upper())
        if tag not in _MIN_RANK:
            raise ValueError(f"unknown series tag {self.tag!r}")
        object.__setattr__(self, "tag", tag)
        if self.n < _MIN_RANK[tag]:
            raise ValueError(
                f"series {tag} needs n >= {_MIN_RANK[tag]}, got {self.n}")

    @property
    def rank(self) -> int:
        return self.n - 1 if self.tag == "A" else self.n

    @property
    def group_dim(self) -> int:
        n = self.n
        return {"A": n * n - 1, "B": n * (2 * n + 1),
                "C": n * (2 * n + 1), "D": n * (2 * n - 1)}[self.tag]

    @property
    def group_name(self) -> str:
        n = self.n
        return {"A": f"SU({n})", "B": f"Spin({2 * n + 1})",
                "C": f"USp({2 * n})", "D": f"Spin({2 * n})"}[self.tag]


Vector = tuple[int, ...]


def _root(dim: int, *terms: tuple[int, int]) -> Vector:
    """The vector sum of c * e_i over the (i, c) terms."""
    v = [0] * dim
    for i, c in terms:
        v[i] += c
    return tuple(v)


def dot(u: Vector, v: Vector) -> int:
    return sum(map(operator.mul, u, v))


def coroot(alpha: Vector) -> Vector:
    """2 alpha / (alpha, alpha), which is integral for every A-D root.

    A and D roots have norm 2 and are their own coroots; the short B
    root e_i gives 2 e_i and the long C root 2 e_i gives e_i.
    """
    norm = dot(alpha, alpha)
    if norm == 2:
        return alpha
    scaled = [2 * a for a in alpha]
    if any(a % norm for a in scaled):
        raise ArithmeticError(f"coroot of {alpha} is not integral")
    return tuple(a // norm for a in scaled)


@dataclass(frozen=True)
class RootSystem:
    series: Series
    rank: int
    ambient_dim: int
    simple_roots: tuple = field(repr=False)
    positive_roots: tuple = field(repr=False)
    coroots: tuple = field(repr=False)  # coroots of the positive roots
    degrees: tuple = ()

    @property
    def simple_coroots(self) -> tuple:
        return tuple(coroot(a) for a in self.simple_roots)


def build_root_system(series: Series) -> RootSystem:
    """Enumerate simple and positive roots in closed form."""
    n = series.n
    tag = series.tag
    if n > MAX_EXACT_RANK:
        raise ValueError(
            f"exact root data for {series.group_name} is refused above "
            f"n = {MAX_EXACT_RANK} (its dense root table grows as n^3); "
            f"use the log-gamma route")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    simple = [_root(n, (i, 1), (i + 1, -1)) for i in range(n - 1)]
    positive = [_root(n, (i, 1), (j, -1)) for i, j in pairs]
    if tag == "A":
        degrees = tuple(i + 1 for i in range(1, n))
    else:
        positive += [_root(n, (i, 1), (j, 1)) for i, j in pairs]
        if tag == "B":
            simple.append(_root(n, (n - 1, 1)))
            positive += [_root(n, (i, 1)) for i in range(n)]
            degrees = tuple(2 * i for i in range(1, n + 1))
        elif tag == "C":
            simple.append(_root(n, (n - 1, 2)))
            positive += [_root(n, (i, 2)) for i in range(n)]
            degrees = tuple(2 * i for i in range(1, n + 1))
        else:  # D
            # last simple root is e_{n-1} + e_n
            simple.append(_root(n, (n - 2, 1), (n - 1, 1)))
            degrees = tuple(2 * i for i in range(1, n)) + (n,)

    rs = RootSystem(series=series, rank=series.rank, ambient_dim=n,
                    simple_roots=tuple(simple),
                    positive_roots=tuple(positive),
                    coroots=tuple(coroot(a) for a in positive),
                    degrees=degrees)
    expected = (series.group_dim - series.rank) // 2
    if len(rs.positive_roots) != expected:
        raise AssertionError(
            f"positive root count {len(rs.positive_roots)} != {expected}")
    return rs


def _det_bareiss(rows: list[list[int]]) -> int:
    """Exact determinant of a positive-definite integer matrix (Bareiss).

    Every leading minor of a positive-definite matrix is positive, so
    each pivot is nonzero and no row exchange is needed; each division
    by the previous pivot is exact.
    """
    m = [row[:] for row in rows]
    n = len(m)
    prev = 1
    for c in range(n - 1):
        piv = m[c][c]
        if piv <= 0:
            raise ArithmeticError("Gram matrix is not positive definite")
        tail = m[c][c + 1:]
        for row in m[c + 1:]:
            f = row[c]
            row[c + 1:] = [(piv * a - f * b) // prev
                           for a, b in zip(row[c + 1:], tail)]
        prev = piv
    return m[n - 1][n - 1]


def torus_volume(rs: RootSystem) -> ExactScalar:
    """|a1^ ^ ... ^ ar^| = sqrt(det Gram) of the simple coroots, exactly."""
    cr = rs.simple_coroots
    gram = [[dot(u, v) for v in cr] for u in cr]
    return ExactScalar.sqrt_rational(_det_bareiss(gram))


def coroot_norm_product(rs: RootSystem) -> ExactScalar:
    """Product of (a^|a^) over all positive coroots."""
    return ExactScalar.from_rational(
        math.prod(dot(cv, cv) for cv in rs.coroots))


def root_system_json(rs: RootSystem) -> dict:
    def vecs(vs):
        return [[str(x) for x in v] for v in vs]
    return {
        "series": rs.series.tag,
        "n": rs.series.n,
        "group": rs.series.group_name,
        "rank": rs.rank,
        "ambient_dim": rs.ambient_dim,
        "simple_roots": vecs(rs.simple_roots),
        "positive_roots": vecs(rs.positive_roots),
        "coroots": vecs(rs.coroots),
        "degrees": list(rs.degrees),
        "torus_volume": torus_volume(rs).to_json(),
    }
