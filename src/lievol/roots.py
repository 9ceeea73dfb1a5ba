"""Closed-form root data for the classical series A, B, C, D.

Roots live in the ambient Z^n (the A series in its trace-zero
hyperplane), where every classical root has at most two nonzero
coordinates.  So each root and coroot is a sparse record of (index,
coefficient) pairs, and dense vectors are made only for
root_system_json.  In this embedding every coroot 2 alpha / (alpha,
alpha) is integral too, so coroot norms are integers, and their product
is prod norm**count over the (at most two) coroot lengths.  The Gram
matrix of the simple coroots is tridiagonal along the Dynkin chain,
except for the fork of D, so its determinant is an integer continuant
with a closed term for the two fork leaves: O(n) exact integer steps,
with no rational arithmetic.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

from .exact import ExactScalar

_MIN_RANK = {"A": 2, "B": 2, "C": 2, "D": 4}

# Largest n with exact root data.  The ~4 * 10^5-bit result sets the
# limit more than the O(n^2) root records do.  `volume --series d --n 260
# --exact` takes 1.2-1.4 s on a 2-core host: rendering the digits 0.34 s
# (quadratic), the factorial products of the two routes 0.30 s, the
# 135k `dot` calls of root enumeration 0.19 s and Fraction gcds 0.14 s.
MAX_EXACT_RANK = 260

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


# A root or coroot as a sparse record: (index, coefficient) pairs with
# distinct indices in ascending order and nonzero coefficients.  Every
# classical root has at most two.
Record = tuple[tuple[int, int], ...]


def dot(u: Record, v: Record) -> int:
    """Inner product of two records."""
    s = 0
    for i, a in u:
        for j, b in v:
            if i == j:
                s += a * b
    return s


def coroot(alpha: Record) -> Record:
    """2 alpha / (alpha, alpha), which is integral for every A-D root.

    A and D roots have norm 2 and are their own coroots; the short B
    root e_i gives 2 e_i and the long C root 2 e_i gives e_i.
    """
    norm = dot(alpha, alpha)
    if norm == 2:
        return alpha
    if any(2 * c % norm for _, c in alpha):
        raise ArithmeticError(f"coroot of {alpha} is not integral")
    return tuple((i, 2 * c // norm) for i, c in alpha)


@dataclass(frozen=True)
class RootSystem:
    """Root data of one series; roots and coroots are records."""

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


def _records(tag: str, n: int) -> tuple[list, list]:
    """Simple and positive roots of series `tag` in Z^n, as records."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    simple = [((i, 1), (i + 1, -1)) for i in range(n - 1)]
    positive = [((i, 1), (j, -1)) for i, j in pairs]
    if tag != "A":
        positive += [((i, 1), (j, 1)) for i, j in pairs]
    if tag == "B":
        simple.append(((n - 1, 1),))
        positive += [((i, 1),) for i in range(n)]
    elif tag == "C":
        simple.append(((n - 1, 2),))
        positive += [((i, 2),) for i in range(n)]
    elif tag == "D":
        # last simple root is e_{n-1} + e_n
        simple.append(((n - 2, 1), (n - 1, 1)))
    return simple, positive


def build_root_system(series: Series) -> RootSystem:
    """Enumerate simple and positive roots in closed form."""
    n = series.n
    tag = series.tag
    if n > MAX_EXACT_RANK:
        raise ValueError(
            f"exact root data for {series.group_name} is refused above "
            f"n = {MAX_EXACT_RANK} (its exact volume grows as n^2 log n "
            f"bits); use the log-gamma route")
    simple, positive = _records(tag, n)
    if tag == "A":
        degrees = tuple(i + 1 for i in range(1, n))
    elif tag == "D":
        degrees = tuple(2 * i for i in range(1, n)) + (n,)
    else:
        degrees = tuple(2 * i for i in range(1, n + 1))

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


def _path_minors(chain) -> tuple[int, int]:
    """Gram determinants of `chain` and of `chain` without its last entry.

    The records must lie on a path: each is orthogonal to all but its
    neighbours, so the Gram matrix is tridiagonal and its leading minors
    follow the continuant f_k = a_k f_{k-1} - b_k^2 f_{k-2}, with a_k the
    norm of entry k and b_k its product with entry k - 1.
    """
    prev, cur = 0, 1
    last = ()
    for c in chain:
        b = dot(last, c)
        prev, cur = cur, dot(c, c) * cur - b * b * prev
        last = c
    return cur, prev


def torus_volume(rs: RootSystem) -> ExactScalar:
    """|a1^ ^ ... ^ ar^| = sqrt(det Gram) of the simple coroots, exactly.

    The simple coroots of A, B and C lie on a path.  Those of D are a
    path with two orthogonal leaves l1, l2 on its end: expanding along
    the leaves gives det = a1 a2 f - (b1^2 a2 + b2^2 a1) f', where f and
    f' are the path's determinant and that of the path without its end.
    """
    cr = rs.simple_coroots
    if rs.series.tag != "D":
        det, _ = _path_minors(cr)
    else:
        *path, l1, l2 = cr
        f, f1 = _path_minors(path)
        a1, a2 = dot(l1, l1), dot(l2, l2)
        b1, b2 = dot(path[-1], l1), dot(path[-1], l2)
        det = a1 * a2 * f - (b1 * b1 * a2 + b2 * b2 * a1) * f1
    return ExactScalar(1, 0, det)


def coroot_norm_product(rs: RootSystem) -> ExactScalar:
    """Product of (a^|a^) over all positive coroots.

    There are at most two coroot lengths, so this is prod norm**count.
    """
    lengths = Counter(dot(cv, cv) for cv in rs.coroots)
    return ExactScalar(math.prod(norm ** count
                                 for norm, count in lengths.items()))


def _dense(dim: int, rec: Record) -> list[int]:
    """The record as a vector of Z^dim."""
    v = [0] * dim
    for i, c in rec:
        v[i] = c
    return v


def root_system_json(rs: RootSystem) -> dict:
    def vecs(recs):
        return [[str(x) for x in _dense(rs.ambient_dim, r)] for r in recs]
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
