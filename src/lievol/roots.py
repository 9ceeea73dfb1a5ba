"""Closed-form root data for the classical series A, B, C, D.

Roots live in the ambient Z^n (the A series in its trace-zero
hyperplane), where every classical root has at most two nonzero
coordinates.  So a set of N roots is one int64 array of shape (N, 2, 2):
row r holds the indices [i, j] and the coefficients [c_i, c_j] of root r,
and a one-term root has coefficient 0 in its second slot.  The sets made
here are stored slot-major (a (2, 2, N) buffer seen through a transpose),
so each of the four columns is contiguous and whole-set arithmetic runs
over long rows; every function also takes a plain (N, 2, 2) array.  Sets
are enumerated, corooted and normed as whole arrays; dense vectors are
made only for the rank-many simple coroots and for root_system_json.

In this embedding every coroot 2 alpha / (alpha, alpha) is integral too,
so coroot norms are integers, and their product is prod norm**count over
the (at most two) coroot lengths.  The Gram matrix of the simple coroots
is tridiagonal along the Dynkin chain, except for the fork of D, so its
determinant is an integer continuant with a closed term for the two fork
leaves: O(n) exact integer steps, with no rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .exact import ExactScalar

_MIN_RANK = {"A": 2, "B": 2, "C": 2, "D": 4}

# Largest n with exact root data.  The ~4 * 10^5-bit result sets the
# limit, not the O(n^2) root arrays.  `volume --series d --n 260 --exact`
# takes 0.7-0.8 s on a 2-core host, import included: rendering the
# digits 0.25 s (quadratic), Fraction products and gcds 0.18 s, the
# factorial products of the two routes 0.06 s and the root data 4-6 ms.
MAX_EXACT_RANK = 260

# CLI / report aliases for each series tag.
SERIES_ALIASES = {
    "a": "A", "su": "A",
    "b": "B", "spin-odd": "B",
    "c": "C", "usp": "C",
    "d": "D", "spin-even": "D",
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
    def matrix_dim(self) -> int:
        """m of the m x m matrices the group is sampled as: SU(m),
        SO(m) under Spin(m) and USp(m)."""
        n = self.n
        return {"A": n, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}[self.tag]

    @property
    def group_name(self) -> str:
        n = self.n
        return {"A": f"SU({n})", "B": f"Spin({2 * n + 1})",
                "C": f"USp({2 * n})", "D": f"Spin({2 * n})"}[self.tag]


def norms(roots: np.ndarray) -> np.ndarray:
    """(alpha, alpha) of each root of the set, as int64."""
    _, coef = roots.transpose(1, 2, 0)
    return (coef * coef).sum(0)


def coroots(roots: np.ndarray) -> np.ndarray:
    """2 alpha / (alpha, alpha) of each root, which is integral for every
    A-D root: A and D roots have norm 2 and are their own coroots, the
    short B root e_i gives 2 e_i and the long C root 2 e_i gives e_i.
    """
    idx, coef = roots.transpose(1, 2, 0)
    q, rem = np.divmod(2 * coef, norms(roots))
    if rem.any():
        raise ArithmeticError("a coroot of the set is not integral")
    return np.concatenate((idx, q)).reshape(2, 2, -1).transpose(2, 0, 1)


def dense(roots: np.ndarray, dim: int) -> np.ndarray:
    """The set as an (N, dim) int64 matrix of vectors in Z^dim."""
    out = np.zeros((len(roots), dim), np.int64)
    rows = np.arange(len(roots))
    # a one-term root writes 0 from its second slot, so that goes first
    out[rows, roots[:, 0, 1]] = roots[:, 1, 1]
    out[rows, roots[:, 0, 0]] = roots[:, 1, 0]
    return out


@dataclass(frozen=True, eq=False)
class RootSystem:
    """Root data of one series; each set is an (N, 2, 2) int64 array."""

    series: Series
    rank: int
    ambient_dim: int
    simple_roots: np.ndarray = field(repr=False)
    positive_roots: np.ndarray = field(repr=False)
    simple_coroots: np.ndarray = field(repr=False)
    coroots: np.ndarray = field(repr=False)  # of the positive roots
    degrees: tuple = ()


def _root_set(*blocks) -> np.ndarray:
    """Concatenate blocks (i, j, c_i, c_j), each of two index arrays and
    two coefficients, into one (N, 2, 2) root set."""
    cols = np.empty((4, sum(len(b[0]) for b in blocks)), np.int64)
    start = 0
    for b in blocks:
        stop = start + len(b[0])
        for col, x in zip(cols, b):
            col[start:stop] = x
        start = stop
    return cols.reshape(2, 2, -1).transpose(2, 0, 1)


def _enumerate(tag: str, n: int) -> np.ndarray:
    """The simple roots of series `tag` in Z^n, then its positive roots,
    as one root set."""
    k = np.arange(n)
    # the pairs i < j in row-major order, as np.triu_indices gives them;
    # its mask pages in ~50 KiB more of numpy's code in a fresh process
    i, j = np.nonzero(k[:, None] < k)
    simple = [(k[:-1], k[1:], 1, -1)]
    positive = [(i, j, 1, -1)]
    if tag != "A":
        positive.append((i, j, 1, 1))
    last = k[-1:]
    if tag == "B":
        simple.append((last, last, 1, 0))
        positive.append((k, k, 1, 0))
    elif tag == "C":
        simple.append((last, last, 2, 0))
        positive.append((k, k, 2, 0))
    elif tag == "D":
        # last simple root is e_{n-1} + e_n
        simple.append((k[-2:-1], last, 1, 1))
    return _root_set(*simple, *positive)


def build_root_system(series: Series) -> RootSystem:
    """Enumerate simple and positive roots in closed form."""
    n = series.n
    tag = series.tag
    if n > MAX_EXACT_RANK:
        raise ValueError(
            f"exact root data for {series.group_name} is refused above "
            f"n = {MAX_EXACT_RANK} (its exact volume grows as n^2 log n "
            f"bits); use the log-gamma route")
    roots = _enumerate(tag, n)
    r = series.rank
    cor = coroots(roots)
    if tag == "A":
        degrees = tuple(i + 1 for i in range(1, n))
    elif tag == "D":
        degrees = tuple(2 * i for i in range(1, n)) + (n,)
    else:
        degrees = tuple(2 * i for i in range(1, n + 1))

    rs = RootSystem(series=series, rank=series.rank, ambient_dim=n,
                    simple_roots=roots[:r], positive_roots=roots[r:],
                    simple_coroots=cor[:r], coroots=cor[r:],
                    degrees=degrees)
    expected = (series.group_dim - series.rank) // 2
    if len(rs.positive_roots) != expected:
        raise AssertionError(
            f"positive root count {len(rs.positive_roots)} != {expected}")
    return rs


def _path_minors(a: list, b: list) -> tuple[int, int]:
    """Gram determinants of a path and of the path without its last entry.

    On a path each entry is orthogonal to all but its neighbours, so the
    Gram matrix is tridiagonal and its leading minors follow the
    continuant f_k = a_k f_{k-1} - b_k^2 f_{k-2}, with a_k the norm of
    entry k and b_k its product with entry k - 1 (b holds b_1, b_2, ...).
    Python ints throughout: an int64 continuant would overflow silently.
    """
    prev, cur = 0, 1
    for ak, bk in zip(a, [0] + b):
        prev, cur = cur, ak * cur - bk * bk * prev
    return cur, prev


def torus_volume(rs: RootSystem) -> ExactScalar:
    """|a1^ ^ ... ^ ar^| = sqrt(det Gram) of the simple coroots, exactly.

    The simple coroots of A, B and C lie on a path.  Those of D are a
    path with two orthogonal leaves l1, l2 on its end: expanding along
    the leaves gives det = a1 a2 f - (b1^2 a2 + b2^2 a1) f', where f and
    f' are the path's determinant and that of the path without its end.
    """
    m = dense(rs.simple_coroots, rs.ambient_dim)
    a = (m * m).sum(1).tolist()
    b = (m[1:] * m[:-1]).sum(1).tolist()
    if rs.series.tag != "D":
        det, _ = _path_minors(a, b)
    else:
        f, f1 = _path_minors(a[:-2], b[:-2])
        a1, a2 = a[-2], a[-1]
        b1, b2 = b[-2], int((m[-3] * m[-1]).sum())
        det = a1 * a2 * f - (b1 * b1 * a2 + b2 * b2 * a1) * f1
    return ExactScalar(1, 0, det)


def coroot_norm_product(rs: RootSystem) -> ExactScalar:
    """Product of (a^|a^) over all positive coroots.

    There are at most two coroot lengths, so this is prod norm**count.
    """
    counts = np.bincount(norms(rs.coroots)).tolist()
    return ExactScalar(math.prod(norm ** count
                                 for norm, count in enumerate(counts)))


def root_system_json(rs: RootSystem) -> dict:
    def vecs(roots):
        # one shared str per distinct entry (the coefficients and 0): a
        # str per entry, or a numpy str copy, would take 50-84 B each
        text = {x: str(x) for x in [0, *np.unique(roots[:, 1]).tolist()]}
        return [[text[x] for x in row]
                for row in dense(roots, rs.ambient_dim).tolist()]
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
