"""Orthonormal bases of su(n), so(m), usp(2n) and the curvature chain.

Every basis satisfies -1/2 Tr(T_i T_j) = delta_ij in the defining
representation and is stored as the nonzero entries of its matrices.
Structure constants are computed from those nonzeros by two index joins
(pair products, then triple traces) over the pairs i < j alone: every
element is anti-Hermitian (checked with the orthonormality), so
Tr(T_j T_i T_k) = -conj Tr(T_i T_j T_k) and c_ijk = -Re Tr(T_i T_j T_k),
and c_jik = -c_ijk gives the rest.  The Killing form K (checked
against the trace-form identity K = -2 kappa I), the Ricci tensor
(checked against -K/4) and chi follow by the same sparse contraction,
with K computed once per report and passed to the other two.  Every
tensor stays in coordinate form (under 0.3% of c_ijk are nonzero, ~2d
of the d^2 entries of K and Ric), so no (d, d) array is built; dense
views, the Riemann tensor and the Jacobi residual live in the tests.
Matrix sizes above MAX_MATRIX_DIM, the measured limit of each algebra,
are refused before a basis is built.  The Levy-family bound sequences
close the module: R_i is the claimed chi at the matrix size m = p*i of
index i (p from LEVY_PER_INDEX), over |coroot|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence

import numpy as np

ZERO_CUTOFF = 1e-12

# Tolerance of the chain's identity checks and of a report's chi match.
_IDENTITY_TOL = 1e-9

# Smallest matrix size of each algebra's basis (usp's is also even).
MIN_MATRIX_DIM = {"su": 2, "so": 3, "usp": 4}

# Largest matrix size of each algebra's curvature chain, for a budget of
# about 2 GiB: su(93), so(262) and usp(144) take 5.2-6.8, 12.9-15.1 and
# 5.9-6.1 s at 1.33, 1.92 and 1.11 GiB peak RSS (fresh processes, 2-core
# host).
MAX_MATRIX_DIM = {"su": 93, "so": 262, "usp": 144}

# chi values claimed for the classical algebras (m the matrix size); the
# su value disagrees with the adjoint trace, and reports record both.
CLAIMED_CHI = {"su": lambda m: m + 2, "so": lambda m: m - 2,
               "usp": lambda m: m + 2}

# Killing form over the trace form, B(X, Y) = kappa Tr(XY) (Bourbaki,
# Lie Groups ch. VIII); with -1/2 Tr(T_i T_j) = delta_ij, K = -2 kappa I.
TRACE_FORM_INDEX = {"su": lambda m: 2 * m, "so": lambda m: m - 2,
                    "usp": lambda m: m + 2}


@dataclass(frozen=True)
class LieAlgebraBasis:
    """The basis matrices of one algebra, in coordinate (COO) form."""
    algebra: str           # 'su' | 'so' | 'usp'
    matrix_dim: int        # defining-rep matrix size
    dim: int               # number of basis elements
    index: np.ndarray = field(repr=False)  # (nnz, 3) (e, row, col), sorted
    value: np.ndarray = field(repr=False)  # (nnz,) complex T_e[row, col]
    labels: tuple = ()


def _basis(algebra: str, m: int, elements: list) -> LieAlgebraBasis:
    """The basis from one (label, scale, [(row, col, coef), ...]) per
    element: the element is scale * sum of coef * E_{row, col}."""
    labels, scales, entries = zip(*elements)
    e = np.repeat(np.arange(len(entries)), [len(x) for x in entries])
    r, c, v = zip(*((a, b, s * complex(coef)) for x, s in zip(entries, scales)
                    for a, b, coef in sorted(x)))
    return LieAlgebraBasis(algebra, m, len(labels), np.stack([e, r, c], 1),
                           np.array(v), labels)


def su_basis(m: int) -> LieAlgebraBasis:
    """H_k, S_kj, A_kj for su(m), m >= 2."""
    check_matrix_dim("su", m)
    out = []
    for k in range(1, m):
        c = 1j * math.sqrt(2.0) / math.sqrt(k * k + k)
        out.append((f"H_{k}", c, [(a, a, 1) for a in range(k)] + [(k, k, -k)]))
    for k in range(m):
        for j in range(k + 1, m):
            out.append((f"S_{k + 1},{j + 1}", 1j, [(k, j, 1), (j, k, 1)]))
            out.append((f"A_{k + 1},{j + 1}", 1, [(k, j, 1), (j, k, -1)]))
    return _basis("su", m, out)


def so_basis(m: int) -> LieAlgebraBasis:
    """Antisymmetric A_kj for so(m), m >= 3."""
    check_matrix_dim("so", m)
    return _basis("so", m, [(f"A_{k + 1},{j + 1}", 1, [(k, j, 1), (j, k, -1)])
                            for k in range(m) for j in range(k + 1, m)])


def usp_basis(two_n: int) -> LieAlgebraBasis:
    """The nine-family basis of usp(2n) in the 2n x 2n complex form."""
    check_matrix_dim("usp", two_n)
    n = two_n // 2
    r2 = math.sqrt(2.0)
    out = [(f"H_{a + 1}", 1j, [(a, a, 1), (a + n, a + n, -1)])
           for a in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out.append((f"Sd_{i + 1},{j + 1}", 1j / r2, [
                (i, j, 1), (j, i, 1), (i + n, j + n, -1), (j + n, i + n, -1)]))
            out.append((f"Ad_{i + 1},{j + 1}", 1 / r2, [
                (i, j, 1), (j, i, -1), (i + n, j + n, 1), (j + n, i + n, -1)]))
    out += [(f"T_{a + 1}", 1j, [(a, a + n, 1), (a + n, a, 1)])
            for a in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out.append((f"Sa_{i + 1},{j + 1}", 1j / r2, [
                (i, j + n, 1), (j, i + n, 1), (i + n, j, 1), (j + n, i, 1)]))
    out += [(f"U_{a + 1}", 1, [(a, a + n, 1), (a + n, a, -1)])
            for a in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            out.append((f"Aa_{i + 1},{j + 1}", 1 / r2, [
                (i, j + n, 1), (j, i + n, 1), (i + n, j, -1), (j + n, i, -1)]))
    return _basis("usp", two_n, out)


def check_matrix_dim(algebra: str, m: int) -> None:
    """Refuse a matrix size m that the algebra's basis does not take, or
    whose curvature chain is above MAX_MATRIX_DIM."""
    low = MIN_MATRIX_DIM.get(algebra)
    if algebra == "usp" and (m < low or m % 2):
        raise ValueError(f"usp needs even matrix size >= {low}")
    if low is not None and m < low:
        raise ValueError(f"{algebra}(m) needs m >= {low}")
    high = MAX_MATRIX_DIM.get(algebra)
    if high is not None and m > high:
        raise ValueError(f"{algebra}({m}) is above the curvature budget: "
                         f"m <= {high}")


def build_basis(algebra: str, matrix_dim: int) -> LieAlgebraBasis:
    builders = {"su": su_basis, "so": so_basis, "usp": usp_basis}
    if algebra not in builders:
        raise ValueError(f"unknown algebra {algebra!r}")
    return builders[algebra](matrix_dim)


def _sort(keys: np.ndarray):
    """(keys ascending, the stable order that sorts them), for integer
    keys.

    Where key * 2^b + position fits in an int64 (b the bits of the
    largest position), one in-place sort of these distinct packed values
    gives both: several times faster than an argsort, with no gather.
    Otherwise a stable argsort gives the same order.
    """
    b = max(keys.size - 1, 0).bit_length()
    bound = 1 << (63 - b)
    if keys.size and -bound <= keys.min() and keys.max() < bound:
        packed = keys.astype(np.int64)
        packed <<= b
        packed |= np.arange(keys.size)
        packed.sort()
        order = packed & ((1 << b) - 1)
        packed >>= b
        return packed, order
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def _ranges(ordered: np.ndarray, left: np.ndarray):
    """(lo, n) per left key: its matches are ordered[lo:lo + n].  The
    keys are searched in sorted order, so each search reads `ordered`
    front to back, and the results are scattered back to their places.
    A function of its own, so the sorted keys are freed before _match
    builds the matches (the join's peak)."""
    found, q = _sort(left)
    lo = np.empty_like(q)
    lo[q] = np.searchsorted(ordered, found, "left")
    n = np.empty_like(q)
    n[q] = np.searchsorted(ordered, found, "right")
    n -= lo
    return lo, n


def _pairs(order: np.ndarray, lo: np.ndarray, n: np.ndarray):
    """Every index pair (l, order[lo[l] + s]) for s < n[l], l ascending."""
    start = np.cumsum(n) - n
    li = np.repeat(np.arange(n.size), n)
    return li, order[np.repeat(lo - start, n) + np.arange(li.size)]


def _match(left: np.ndarray, ranked: tuple):
    """Every index pair (l, r) with left[l] == right[r], l ascending and,
    for each l, r in the stable sort order of right; `ranked` is
    _sort(right)."""
    ordered, order = ranked
    return _pairs(order, *_ranges(ordered, left))


def _summed(keys: np.ndarray, values: np.ndarray):
    """Distinct keys, ascending, with the sum of the values of each.

    The values are read in the stable order of their keys, so bincount
    adds each key's values front to back in input order.
    """
    ordered, order = _sort(keys)
    new = np.empty(ordered.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return ordered[new], np.bincount(np.cumsum(new) - 1,
                                     weights=values[order])


def _split(d: int, keys: np.ndarray, values: np.ndarray):
    """The diagonal (absent entries 0) and the off-diagonal rows and
    values of the (d, d) M with `values` at flat `keys`."""
    row = keys // d
    on = keys % d == row
    diag = np.zeros(d)
    diag[row[on]] = values[on]
    return diag, row[~on], values[~on]


def _scalar_deviation(d: int, keys: np.ndarray, values: np.ndarray,
                      scalar: float) -> float:
    """Max |M - scalar I| of the (d, d) M with `values` at flat `keys`."""
    diag, _, off = _split(d, keys, values)
    return float(max(np.max(np.abs(diag - scalar)),
                     np.max(np.abs(off), initial=0.0)))


def check_orthonormal(basis: LieAlgebraBasis) -> float:
    """Max |-1/2 Tr(T_i T_j) - delta_ij|; above 1e-12 raises ValueError.

    Every element must also be anti-Hermitian, the premise of
    structure_constants: each entry T_e[a, b] meets its own element's
    entry at (b, a) once, equal to -conj T_e[a, b] within 1e-12.
    """
    d, m = basis.dim, basis.matrix_dim
    e, r, c = basis.index.T
    v = basis.value
    # Tr(T_i T_j) = sum_{a,b} T_i[a, b] T_j[b, a]
    li, ri = _match(c * m + r, _sort(r * m + c))
    own = e[li] == e[ri]
    if (np.bincount(li[own], minlength=v.size) != 1).any() or np.max(
            np.abs(v[ri[own]] + np.conj(v[li[own]])), initial=0.0) > 1e-12:
        raise ValueError("basis not anti-Hermitian")
    keys, g = _summed(e[li] * d + e[ri], (v[li] * v[ri]).real)
    dev = _scalar_deviation(d, keys, -0.5 * g, 1.0)
    if dev > 1e-12:
        raise ValueError(f"basis not orthonormal (dev {dev:.2e})")
    return dev


@dataclass(frozen=True)
class StructureTensor:
    """The nonzero c_ijk of one algebra, in coordinate (COO) form."""
    algebra: str
    matrix_dim: int
    dim: int
    index: np.ndarray = field(repr=False)  # (nnz, 3) rows (i, j, k), sorted
    value: np.ndarray = field(repr=False)  # (nnz,) c_ijk

    @cached_property
    def jk_sorted(self) -> tuple:
        """_sort of the keys j d + k, which killing_form and
        ricci_tensor both match against: sorted once per tensor."""
        _, j, k = self.index.T
        return _sort(j * self.dim + k)


def structure_constants(basis: LieAlgebraBasis) -> StructureTensor:
    """c_ij^k = -1/2 Tr([T_i, T_j] T_k), with tiny entries dropped.

    With t_ijk = Tr(T_i T_j T_k), c_ijk = -1/2 Re(t_ijk - t_jik).  Every
    element is anti-Hermitian, T^dagger = -T (check_orthonormal refuses
    a basis that is not), so conj t_ijk = Tr(T_k^dagger T_j^dagger
    T_i^dagger) = -Tr(T_k T_j T_i) = -t_jik and c_ijk = -Re t_ijk.  Term
    by term, T_i[a, b] T_j[b, c] T_k[c, a] is -conj of the term
    T_j[c, b] T_i[b, a] T_k[a, c] of t_jik, so only the pairs i < j are
    joined.  Two joins over the basis nonzeros: the entries of every
    product T_i T_j, i < j, pair the column of an entry of T_i with the
    row of an entry of T_j; t_ijk then reads T_k at the transposed
    position.  -Re t_ijk is summed by key, and c_jik = -c_ijk mirrors it.
    """
    d, m = basis.dim, basis.matrix_dim
    e, r, c = basis.index.T
    v = basis.value
    check_orthonormal(basis)
    # (T_i T_j)[a, c] terms T_i[a, b] T_j[b, c], i < j: the entries
    # (j, b, c), j > i, are the run of sorted keys row d + e above
    # b d + i and below (b + 1) d; `index` is sorted by (e, row, col), so
    # the run keeps the order of a join on the row alone
    ordered, order = _sort(r * d + e)
    lo = np.searchsorted(ordered, c * d + e, "right")
    pl, pr = _pairs(order, lo, np.searchsorted(ordered, (c + 1) * d) - lo)
    # Tr(T_i T_j T_k) terms (T_i T_j)[a, c] T_k[c, a]
    tl, tk = _match(c[pr] * m + r[pl], _sort(r * m + c))
    t = (v[pl] * v[pr])[tl] * v[tk]
    keys, vals = _summed((e[pl] * d + e[pr])[tl] * d + e[tk], -t.real)
    keep = np.abs(vals) >= ZERO_CUTOFF
    keys, vals = keys[keep], vals[keep]
    first, second, k = keys // (d * d), keys // d % d, keys % d
    keys = np.concatenate([keys, (second * d + first) * d + k])
    keys, order = _sort(keys)
    index = np.stack([keys // (d * d), keys // d % d, keys % d], axis=1)
    vals = np.concatenate([vals, -vals])[order]
    return StructureTensor(algebra=basis.algebra, matrix_dim=m, dim=d,
                           index=index, value=vals)


def killing_form(st: StructureTensor) -> tuple:
    """K_ab = sum_{k,l} c_akl c_blk as (flat keys a d + b, ascending,
    values), checked against -2 kappa I: every K_aa is present.

    kappa is the trace-form index of the algebra (TRACE_FORM_INDEX); an
    entry off by more than _IDENTITY_TOL raises ArithmeticError.
    """
    d = st.dim
    i, j, k = st.index.T
    # entry (a, k, l) meets entry (b, l, k)
    li, ri = _match(k * d + j, st.jk_sorted)
    keys, vals = _summed(i[li] * d + i[ri], st.value[li] * st.value[ri])
    want = -2.0 * TRACE_FORM_INDEX[st.algebra](st.matrix_dim)
    dev = _scalar_deviation(d, keys, vals, want)
    if dev > _IDENTITY_TOL:
        raise ArithmeticError(
            f"Killing form deviates from the trace-form value "
            f"{want:g} I by {dev:.2e}")
    return keys, vals


class ChiValues(NamedTuple):
    chi: float        # -1/2 Tr(ad_{T_1}^2)
    chi_prime: float  # K = -chi_prime * I


def chi_coefficient(st: StructureTensor, K: tuple) -> ChiValues:
    """chi and chi' of st, K its scalar Killing form (flat keys, values)."""
    d = st.dim
    first = st.index[:, 0] == 0
    _, j, k = st.index[first].T
    v = st.value[first]
    # Tr(ad_1^2) = sum_{j,k} c_1jk c_1kj, with (ad_i)_kj = c_ij^k; the
    # i = 0 rows are already in (j, k) order
    li, ri = _match(k * d + j, (j * d + k, np.arange(v.size)))
    chi = float(-0.5 * np.sum(v[li] * v[ri]))
    diag, _, off = _split(d, *K)
    if max(np.max(np.abs(off), initial=0.0), np.ptp(diag)) > _IDENTITY_TOL:
        raise ArithmeticError("Killing matrix is not scalar")
    return ChiValues(chi=chi, chi_prime=float(-np.mean(diag)))


def ricci_tensor(st: StructureTensor, K: tuple) -> tuple:
    """Ric as (flat keys, values, max |Ric + K/4|), by contraction and
    checked against -K/4 (K the Killing form; an absent key is a zero)."""
    d = st.dim
    i, j, k = st.index.T
    # ric_ab = 1/4 sum_{k,s} c_kbs c_ask: entry (k, b, s) meets (a, s, k)
    li, ri = _match(k * d + i, st.jk_sorted)
    keys, vals = _summed(i[ri] * d + j[li], st.value[li] * st.value[ri])
    vals *= 0.25
    _, diff = _summed(np.concatenate([keys, K[0]]),
                      np.concatenate([vals, 0.25 * K[1]]))
    dev = float(np.max(np.abs(diff), initial=0.0))
    if dev > _IDENTITY_TOL:
        raise ArithmeticError(
            f"Ricci contraction vs -K/4 mismatch {dev:.2e}")
    return keys, vals, dev


@dataclass(frozen=True)
class CurvatureReport:
    algebra: str
    matrix_dim: int
    dim: int
    killing: tuple = field(repr=False)  # K as (flat keys, values)
    ricci: tuple = field(repr=False)    # Ric as (flat keys, values)
    ricci_killing_dev: float            # max |Ric + K/4|
    chi: float
    chi_prime: float
    claimed_chi: float
    ricci_lower_bound: float

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "matrix_dim": self.matrix_dim,
            "dim": self.dim,
            "chi_adjoint_trace": self.chi,
            "chi_killing_scalar": self.chi_prime,
            "chi_claimed": self.claimed_chi,
            "chi_matches_claimed": bool(
                abs(self.chi - self.claimed_chi) < _IDENTITY_TOL),
            "ricci_lower_bound": self.ricci_lower_bound,
            "killing_diagonal": float(self.killing[1][0]),
        }


def curvature_report(algebra: str, matrix_dim: int) -> CurvatureReport:
    """Killing, Ricci and chi of one algebra, from one structure tensor.

    The matrix size is checked before the basis is built, so an oversize
    request builds nothing.  The Ricci lower bound is Gershgorin's,
    min_i (Ric_ii - sum_{j != i} |Ric_ij|), at most the smallest
    eigenvalue of Ric.
    """
    check_matrix_dim(algebra, matrix_dim)
    basis = build_basis(algebra, matrix_dim)
    st = structure_constants(basis)
    K = killing_form(st)
    keys, vals, dev = ricci_tensor(st, K=K)
    chi = chi_coefficient(st, K=K)
    diag, row, off = _split(basis.dim, keys, vals)
    off = np.bincount(row, weights=np.abs(off), minlength=basis.dim)
    return CurvatureReport(
        algebra=algebra, matrix_dim=matrix_dim, dim=basis.dim,
        killing=K, ricci=(keys, vals), ricci_killing_dev=dev,
        chi=chi.chi, chi_prime=chi.chi_prime,
        claimed_chi=float(CLAIMED_CHI[algebra](matrix_dim)),
        ricci_lower_bound=float(np.min(diag - off)))


# -- Levy-family bound sequences -------------------------------------

# Matrix size per index p of the families SU(i), SO(i) and USp(2i).
LEVY_PER_INDEX = {"su": 1, "so": 1, "usp": 2}

# Smallest index with a basis here, the least i whose matrix size p*i
# reaches MIN_MATRIX_DIM; and the largest, up to which every index
# converts to a float exactly.
LEVY_MIN_INDEX = {alg: -(-MIN_MATRIX_DIM[alg] // p)
                  for alg, p in LEVY_PER_INDEX.items()}
LEVY_MAX_INDEX = 2 ** 53


def ricci_bound_sequence(family: str, n_range: Sequence[int],
                         coroot_length: Optional[float] = None) -> list:
    """R_i = CLAIMED_CHI at the matrix size m = p*i, over |coroot|^2.

    The coroot length is 2 (SU (i+2)/4, SO (i-2)/4, USp(2i) (i+1)/2);
    for SU an explicit coroot length replaces it.  Every index and
    length is checked before the first bound.
    """
    fam = family.lower()
    if fam not in LEVY_PER_INDEX:
        raise ValueError(f"unknown family {family!r}")
    if coroot_length is not None and not coroot_length > 0:
        raise ValueError(f"the coroot length must be positive, "
                         f"not {coroot_length}")
    low = LEVY_MIN_INDEX[fam]
    if any(not low <= i <= LEVY_MAX_INDEX for i in n_range):
        raise ValueError(f"{fam.upper()} bounds start at index {low} and "
                         f"end at 2^53")
    if coroot_length is not None and fam != "su":
        raise ValueError("coroot_length rescaling is defined for SU only")
    # x ** 2, not x * x: the two differ in the last bit for about one
    # length in a thousand, and ** raises where the square overflows
    try:
        ell2 = 4.0 if coroot_length is None else coroot_length ** 2
    except OverflowError:
        ell2 = math.inf
    if not 0 < ell2 < math.inf:
        raise ValueError(f"the coroot length {coroot_length} has no positive "
                         f"finite square; about 1.6e-162 to 1.3e154 do")
    return [CLAIMED_CHI[fam](LEVY_PER_INDEX[fam] * i) / ell2
            for i in n_range]


def rescaled_levy_check(r_seq: Sequence[float], c_seq: Sequence[float],
                        floor: float):
    """Levy criterion after metric rescaling by 1/c_i.

    True iff R_i >= floor from some index onward (finite exceptions) and
    the c_i diverge on the window: the last element exceeds every prior
    maximum by 1e-12.  Returns (ok, [c_i * R_i]).
    """
    if len(r_seq) != len(c_seq):
        raise ValueError("sequences must have equal length")
    if floor <= 0:
        raise ValueError("floor must be positive")
    bounded = len(r_seq) > 0 and r_seq[-1] >= floor
    diverging = (len(c_seq) > 1
                 and c_seq[-1] > max(c_seq[:-1]) + 1e-12)
    scaled = [c * r for c, r in zip(c_seq, r_seq)]
    return bounded and diverging, scaled
