"""Orthonormal bases of su(n), so(m), usp(2n) and the curvature chain.

Every basis satisfies -1/2 Tr(T_i T_j) = delta_ij in the defining
representation.  Structure constants are computed numerically from the
matrices, as two dense matrix products (pair products, then triple
traces); the printed commutator tables of the construction then serve
as test oracles rather than inputs.  The Killing form (two contraction
routes, cross-checked), the Ricci tensor (checked against -K/4) and chi
follow by tensordot, with K computed once per report.  Inputs whose
dense arrays would exceed DENSE_BUDGET are refused.  The Levy-family
bound sequences close the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .roots import Series

ZERO_CUTOFF = 1e-12

# Largest dense allocation of one curvature chain (check_dense_budget):
# su(16) (~0.9 GiB) runs, su(20) (~3.3 GiB) is refused.
DENSE_BUDGET = 2 * 2 ** 30

# Basis size of each algebra at matrix size m (usp: m = 2n).
ALGEBRA_DIM = {"su": lambda m: m * m - 1, "so": lambda m: m * (m - 1) // 2,
               "usp": lambda m: m * (m + 1) // 2}

# chi values claimed for the classical algebras; the su value disagrees
# with the brute-force adjoint trace (see chi_comparison).
CLAIMED_CHI = {"su": lambda m: m + 2, "so": lambda m: m - 2,
               "usp": lambda m: m + 2}  # m = matrix size (usp: m = 2n)


@dataclass(frozen=True)
class LieAlgebraBasis:
    algebra: str           # 'su' | 'so' | 'usp'
    matrix_dim: int        # defining-rep matrix size
    dim: int               # number of basis elements
    elements: np.ndarray = field(repr=False)   # (dim, m, m) complex
    labels: tuple = ()


def _E(i, j, m):
    out = np.zeros((m, m), dtype=complex)
    out[i, j] = 1.0
    return out


def su_basis(m: int) -> LieAlgebraBasis:
    """H_k, S_kj, A_kj for su(m), m >= 2."""
    if m < 2:
        raise ValueError("su(m) needs m >= 2")
    mats, labels = [], []
    for k in range(1, m):
        h = np.zeros((m, m), dtype=complex)
        c = 1j * math.sqrt(2.0) / math.sqrt(k * k + k)
        for a in range(k):
            h[a, a] = c
        h[k, k] = -k * c
        mats.append(h)
        labels.append(f"H_{k}")
    for k in range(m):
        for j in range(k + 1, m):
            mats.append(1j * (_E(k, j, m) + _E(j, k, m)))
            labels.append(f"S_{k + 1},{j + 1}")
            mats.append(_E(k, j, m) - _E(j, k, m))
            labels.append(f"A_{k + 1},{j + 1}")
    return LieAlgebraBasis("su", m, len(mats),
                           np.array(mats), tuple(labels))


def so_basis(m: int) -> LieAlgebraBasis:
    """Antisymmetric A_kj for so(m), m >= 3."""
    if m < 3:
        raise ValueError("so(m) needs m >= 3")
    mats, labels = [], []
    for k in range(m):
        for j in range(k + 1, m):
            mats.append((_E(k, j, m) - _E(j, k, m)).astype(complex))
            labels.append(f"A_{k + 1},{j + 1}")
    return LieAlgebraBasis("so", m, len(mats), np.array(mats), tuple(labels))


def usp_basis(two_n: int) -> LieAlgebraBasis:
    """The nine-family basis of usp(2n) in the 2n x 2n complex form."""
    if two_n < 4 or two_n % 2:
        raise ValueError("usp needs even matrix size >= 4")
    n = two_n // 2
    m = two_n
    r2 = math.sqrt(2.0)
    mats, labels = [], []
    for a in range(n):
        mats.append(1j * (_E(a, a, m) - _E(a + n, a + n, m)))
        labels.append(f"H_{a + 1}")
    for i in range(n):
        for j in range(i + 1, n):
            mats.append((1j / r2) * (_E(i, j, m) + _E(j, i, m)
                                     - _E(i + n, j + n, m) - _E(j + n, i + n, m)))
            labels.append(f"Sd_{i + 1},{j + 1}")
            mats.append((1 / r2) * (_E(i, j, m) - _E(j, i, m)
                                    + _E(i + n, j + n, m) - _E(j + n, i + n, m)))
            labels.append(f"Ad_{i + 1},{j + 1}")
    for a in range(n):
        mats.append(1j * (_E(a, a + n, m) + _E(a + n, a, m)))
        labels.append(f"T_{a + 1}")
    for i in range(n):
        for j in range(i + 1, n):
            mats.append((1j / r2) * (_E(i, j + n, m) + _E(j, i + n, m)
                                     + _E(i + n, j, m) + _E(j + n, i, m)))
            labels.append(f"Sa_{i + 1},{j + 1}")
    for a in range(n):
        mats.append(_E(a, a + n, m) - _E(a + n, a, m))
        labels.append(f"U_{a + 1}")
    for i in range(n):
        for j in range(i + 1, n):
            mats.append((1 / r2) * (_E(i, j + n, m) + _E(j, i + n, m)
                                    - _E(i + n, j, m) - _E(j + n, i, m)))
            labels.append(f"Aa_{i + 1},{j + 1}")
    return LieAlgebraBasis("usp", m, len(mats), np.array(mats), tuple(labels))


def build_basis(algebra: str, matrix_dim: int) -> LieAlgebraBasis:
    builders = {"su": su_basis, "so": so_basis, "usp": usp_basis}
    if algebra not in builders:
        raise ValueError(f"unknown algebra {algebra!r}")
    return builders[algebra](matrix_dim)


def basis_for_series(series: Series) -> LieAlgebraBasis:
    n = series.n
    return {"A": lambda: su_basis(n), "B": lambda: so_basis(2 * n + 1),
            "C": lambda: usp_basis(2 * n), "D": lambda: so_basis(2 * n)}[
        series.tag]()


def check_orthonormal(basis: LieAlgebraBasis, tol: float = 1e-12) -> float:
    """Max deviation of -1/2 Tr(T_i T_j) from delta_ij."""
    B = basis.elements
    g = -0.5 * np.einsum("iab,jba->ij", B, B).real
    dev = float(np.max(np.abs(g - np.eye(basis.dim))))
    if dev > tol:
        raise ValueError(f"basis not orthonormal (dev {dev:.2e})")
    return dev


@dataclass(frozen=True)
class StructureTensor:
    dim: int
    array: np.ndarray = field(repr=False)  # dense (d, d, d), c[i,j,k]

    @property
    def entries(self) -> dict:
        idx = np.argwhere(np.abs(self.array) > 0)
        return {tuple(map(int, t)): float(self.array[tuple(t)]) for t in idx}


def check_dense_budget(dim: int, matrix_dim: int) -> None:
    """Refuse a curvature chain whose dense arrays exceed DENSE_BUDGET.

    With d = dim and m = matrix_dim the chain holds two complex
    (d^2, m^2) buffers of pair products T_i T_j (the gemm output and its
    (i, j, a, c) reordering), then the complex (d, d, d) triple traces
    beside the real structure tensor.
    """
    need = 32 * dim ** 2 * matrix_dim ** 2 + 24 * dim ** 3
    if need > DENSE_BUDGET:
        raise ValueError(
            f"dense curvature arrays for dim {dim}, matrix size "
            f"{matrix_dim} need {need / 2 ** 30:.1f} GiB, above the "
            f"{DENSE_BUDGET / 2 ** 30:.0f} GiB budget")


def structure_constants(basis: LieAlgebraBasis) -> StructureTensor:
    """c_ij^k = -1/2 Tr([T_i, T_j] T_k), with tiny entries dropped.

    Two gemms: all pair products T_i T_j as one (d m, m) @ (m, d m), then
    t_ijk = Tr(T_i T_j T_k) as (d^2, m^2) @ (m^2, d) against the
    transposed basis; c_ijk = -1/2 Re(t_ijk - t_jik).
    """
    d, m = basis.dim, basis.matrix_dim
    check_dense_budget(d, m)
    check_orthonormal(basis)
    B = basis.elements
    # pairs[i, a, j, c] = (T_i T_j)[a, c]
    pairs = B.reshape(d * m, m) @ B.transpose(1, 0, 2).reshape(m, d * m)
    pairs = pairs.reshape(d, m, d, m).transpose(0, 2, 1, 3).reshape(d * d,
                                                                    m * m)
    # Tr(P T_k) = sum_{a,c} P[a, c] T_k[c, a]
    t = (pairs @ B.transpose(2, 1, 0).reshape(m * m, d)).reshape(d, d, d)
    del pairs
    re = t.real
    c = re - re.transpose(1, 0, 2)
    del t, re
    c *= -0.5
    c[np.abs(c) < ZERO_CUTOFF] = 0.0
    return StructureTensor(dim=d, array=c)


def adjoint_matrices(st: StructureTensor) -> np.ndarray:
    """(ad_i)_{kj} = c_ij^k, stacked as (d, d, d)."""
    return st.array.transpose(0, 2, 1)


def killing_form(st: StructureTensor, tol: float = 1e-9) -> np.ndarray:
    """K_ij by double contraction, cross-checked against adjoint traces."""
    c = st.array
    k_a = np.tensordot(c, c, axes=([1, 2], [2, 1]))
    ad = adjoint_matrices(st)
    k_b = np.tensordot(ad, ad, axes=([1, 2], [2, 1]))
    dev = float(np.max(np.abs(k_a - k_b)))
    if dev > tol:
        raise ArithmeticError(
            f"Killing-form routes disagree by {dev:.2e}")
    return k_a


class ChiValues(NamedTuple):
    chi: float        # -1/2 Tr(ad_{T_1}^2)
    chi_prime: float  # K = -chi_prime * I


def chi_coefficient(st: StructureTensor, tol: float = 1e-9, *,
                    K: Optional[np.ndarray] = None) -> ChiValues:
    """Both normalisation constants of the (scalar) Killing matrix.

    K is the Killing form of st; it is computed when not given.
    """
    ad1 = adjoint_matrices(st)[0]
    chi = float(-0.5 * np.trace(ad1 @ ad1).real)
    if K is None:
        K = killing_form(st)
    diag = np.diagonal(K)
    off = K - np.diag(diag)
    if np.max(np.abs(off)) > tol or np.ptp(diag) > tol:
        raise ArithmeticError("Killing matrix is not scalar")
    return ChiValues(chi=chi, chi_prime=float(-np.mean(diag)))


def riemann_tensor(st: StructureTensor) -> np.ndarray:
    """R^k_jlm = 1/4 sum_s c_lm^s c_js^k (dense; small dims only).

    The (d, d, d, d) result takes 8 d^4 bytes; above DENSE_BUDGET (su(12)
    already needs 3.1 GiB) it is refused with ValueError.
    """
    need = 8 * st.dim ** 4
    if need > DENSE_BUDGET:
        raise ValueError(
            f"dense Riemann tensor for dim {st.dim} needs "
            f"{need / 2 ** 30:.1f} GiB, above the "
            f"{DENSE_BUDGET / 2 ** 30:.0f} GiB budget")
    c = st.array
    return 0.25 * np.einsum("lms,jsk->kjlm", c, c)


def ricci_tensor(st: StructureTensor, tol: float = 1e-9, *,
                 K: Optional[np.ndarray] = None) -> np.ndarray:
    """Ricci by contraction, verified equal to -K/4.

    K is the Killing form of st; it is computed when not given.
    """
    c = st.array
    # ric[j, m] = 1/4 sum_{k,s} c[k, m, s] c[j, s, k]
    ric = 0.25 * np.tensordot(c, c, axes=([0, 2], [2, 1])).T
    if K is None:
        K = killing_form(st)
    dev = float(np.max(np.abs(ric + 0.25 * K)))
    if dev > tol:
        raise ArithmeticError(
            f"Ricci contraction vs -K/4 mismatch {dev:.2e}")
    return ric


def jacobi_residual(st: StructureTensor, samples: int = 10_000,
                    seed: int = 0) -> float:
    """Max |Jacobi identity| over random index quadruples."""
    c = st.array
    d = st.dim
    rng = np.random.default_rng(seed)
    i, j, k = rng.integers(0, d, size=(3, samples))
    t1 = np.einsum("sm,msl->sl", c[i, j], c[:, k, :])
    t2 = np.einsum("sm,msl->sl", c[j, k], c[:, i, :])
    t3 = np.einsum("sm,msl->sl", c[k, i], c[:, j, :])
    return float(np.max(np.abs(t1 + t2 + t3)))


@dataclass(frozen=True)
class CurvatureReport:
    algebra: str
    matrix_dim: int
    dim: int
    killing_matrix: np.ndarray = field(repr=False)
    ricci_matrix: np.ndarray = field(repr=False)
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
                abs(self.chi - self.claimed_chi) < 1e-9),
            "ricci_lower_bound": self.ricci_lower_bound,
            "killing_diagonal": float(self.killing_matrix[0, 0]),
        }


def curvature_report(algebra: str, matrix_dim: int) -> CurvatureReport:
    """Killing, Ricci and chi of one algebra, from one structure tensor.

    The budget is checked before the basis is built, so an oversize
    request allocates nothing.
    """
    if algebra in ALGEBRA_DIM:
        check_dense_budget(ALGEBRA_DIM[algebra](matrix_dim), matrix_dim)
    basis = build_basis(algebra, matrix_dim)
    st = structure_constants(basis)
    K = killing_form(st)
    ric = ricci_tensor(st, K=K)
    chi = chi_coefficient(st, K=K)
    return CurvatureReport(
        algebra=algebra, matrix_dim=matrix_dim, dim=basis.dim,
        killing_matrix=K, ricci_matrix=ric,
        chi=chi.chi, chi_prime=chi.chi_prime,
        claimed_chi=float(CLAIMED_CHI[algebra](matrix_dim)),
        ricci_lower_bound=float(np.min(np.linalg.eigvalsh(ric))))


# -- Levy-family bound sequences -------------------------------------

def ricci_bound_sequence(family: str, n_range: Sequence[int],
                         coroot_length: Optional[float] = None) -> list:
    """R_i per family: SU (i+2)/4, SO (i-2)/4, USp(2i) (i+1)/2.

    For SU an explicit coroot length replaces the standard value 2 via
    R_i = (i+2)/|coroot|^2.
    """
    fam = family.upper()
    if fam == "SU":
        ell2 = 4.0 if coroot_length is None else coroot_length ** 2
        return [(i + 2) / ell2 for i in n_range]
    if coroot_length is not None:
        raise ValueError("coroot_length rescaling is defined for SU only")
    if fam == "SO":
        return [(i - 2) / 4.0 for i in n_range]
    if fam == "USP":
        return [(i + 1) / 2.0 for i in n_range]
    raise ValueError(f"unknown family {family!r}")


def rescaled_levy_check(r_seq: Sequence[float], c_seq: Sequence[float],
                        floor: float, margin: float = 1e-12):
    """Levy criterion after metric rescaling by 1/c_i.

    True iff R_i >= floor from some index onward (finite exceptions) and
    the c_i diverge on the window: the last element exceeds every prior
    maximum by `margin`.  Returns (ok, [c_i * R_i]).
    """
    if len(r_seq) != len(c_seq):
        raise ValueError("sequences must have equal length")
    if floor <= 0:
        raise ValueError("floor must be positive")
    tail_ok = len(r_seq) > 0 and r_seq[-1] >= floor
    # require an all->=floor suffix, i.e. only finitely many exceptions
    bounded = tail_ok
    diverging = (len(c_seq) > 1
                 and c_seq[-1] > max(c_seq[:-1]) + margin)
    scaled = [c * r for c, r in zip(c_seq, r_seq)]
    return bounded and diverging, scaled


def multi_locus_bound(n: int, N: int, eps: float) -> float:
    """Tail-mass scale N exp(-n eps^2 / N) for N transversal loci."""
    if n < 1 or N < 1:
        raise ValueError("n and N must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return N * math.exp(-n * eps * eps / N)


def codim_growth_ok(n_of_n: Sequence[float], n_values: Sequence[int]) -> bool:
    """Check N_n log(n)/n decreases toward zero on the sampled window."""
    vals = [N * math.log(n) / n for N, n in zip(n_of_n, n_values)]
    return (len(vals) > 1 and all(b < a for a, b in zip(vals, vals[1:]))
            and vals[-1] > 0 and vals[-1] < vals[0])


def two_plane_orbit_length(basis: LieAlgebraBasis, element_index: int,
                           steps: int = 256) -> float:
    """Arclength of exp(theta*T) over [0, 2pi] in the normalised metric.

    The orbit is discretized and each step length is taken from the
    matrix log of the step transition, measured with -1/2 Tr(X^2).
    """
    from scipy.linalg import expm, logm

    T = basis.elements[element_index]
    h = 2 * math.pi / steps
    gs = [expm(t * T) for t in np.arange(0.0, 2 * math.pi + h / 2, h)]
    total = 0.0
    for g0, g1 in zip(gs, gs[1:]):
        X = logm(g0.conj().T @ g1)
        total += math.sqrt(max(0.0, (-0.5 * np.trace(X @ X)).real))
    return total
