"""Quotient geometry of SU(n+1) over U(n): charts, measure, metric.

The chart point is h = prod_a exp(i theta_a T_a) exp(i phi_a P_a),
a = 1..n, on C^{n+1} with indices 0..n.  T_a = diag(1, ..., 1, 1 - b,
0, ..., 0) with b = max(a, 2) (so T_1 = T_2, which the calibrated theta
periods assume), and P_a = -i E_{0a} + i E_{a0} rotates the (0, a)
plane.  The coset directions of the U(n) quotient are the off-diagonal
entries of row and column n.

No factor is built as a matrix.  `_chart_factors` lists each as a record
(the diagonal of T_a, or the plane index a of P_a), and h^-1 dh applies
the factors as row operations: a phase per row for T_a, a cos/sin mix
of rows 0 and a for P_a.  The chart functions take stacks of charts.

The tests hold the second routes: the Gell-Mann generators, the
finite-difference Maurer-Cartan form and the Kaehler-potential Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import gauss_legendre

# Chart calibration for the quotient parametrization.  The phi_a all run
# over [0, pi/2]; the theta_a periods below are fixed once so that the
# integral of the chart density reproduces the exact volume quotient
# V(SU(n+1)) / V(U(n)) at n = 1 and n = 2, with the fiber volume taken
# as V(U(n)) = V(SU(n)) * 2*pi * U_FIBER_CONSTANT.  Periods beyond the
# second coordinate are the natural 2*pi.
U_FIBER_CONSTANT = 2.0 * math.sqrt(2.0)
_THETA_PERIOD_1 = math.pi
_THETA_PERIOD_2 = 2.0 * math.sqrt(3.0) * math.pi


def theta_periods(n: int) -> list:
    """Calibrated periods of theta_1..theta_n."""
    out = [_THETA_PERIOD_1, _THETA_PERIOD_2] + [2.0 * math.pi] * max(0, n - 2)
    return out[:n]


@dataclass(frozen=True, eq=False)
class QuotientCoords:
    """Angles (theta_1..theta_n, phi_1..phi_n) of one quotient chart, or
    of a stack of charts: float arrays of shape (..., n)."""

    thetas: np.ndarray
    phis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "thetas", np.asarray(self.thetas, float))
        object.__setattr__(self, "phis", np.asarray(self.phis, float))
        if self.thetas.ndim == 0 or self.thetas.shape != self.phis.shape:
            raise ValueError("thetas and phis must have equal shapes")

    @property
    def n(self) -> int:
        return self.thetas.shape[-1]


@dataclass(frozen=True, eq=False)
class AffineCoords:
    """Angular form (xi, R, psi) of chart-0 points z = tan(xi) R e^{i psi}:
    float arrays xi of shape (...) and R, psi of shape (..., n), as are
    the velocities of the pullback functions, which sum over n."""

    xi: np.ndarray
    R: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        if np.any(np.abs(np.sum(self.R * self.R, axis=-1) - 1.0) > 1e-12):
            raise ValueError("R must lie on the unit sphere")

    def to_z(self) -> np.ndarray:
        return np.tan(self.xi)[..., None] * self.R * np.exp(1j * self.psi)


def _chart_factors(c: QuotientCoords) -> list:
    """(angle, M) of each factor exp(i angle M) of h, in chart order.

    For theta_a, M is the nonzero diagonal (1, ..., 1, 1 - b) of T_a, an
    array of length b; for phi_a, M is the plane index a of P_a.  The
    angles are arrays of the stack's shape.
    """
    out = []
    pairs = np.moveaxis([c.thetas, c.phis], -1, 0)  # (n, 2, ...)
    for a, (theta, phi) in enumerate(pairs, start=1):
        b = max(a, 2)
        out += [(theta, np.array([1.0] * (b - 1) + [1.0 - b])), (phi, a)]
    return out


def maurer_cartan(c: QuotientCoords) -> np.ndarray:
    """h^-1 dh per coordinate, by factor-wise analytic differentiation.

    With tail = F_j ... F_K, the component of factor j is tail^H (i M_j)
    tail.  Returns an array of shape (..., 2n, m, m) of anti-hermitian
    matrices, ordered (theta_1..theta_n, phi_1..phi_n).
    """
    n = c.n
    out = np.empty(c.thetas.shape[:-1] + (2 * n, n + 1, n + 1), dtype=complex)
    tail = np.tile(np.eye(n + 1, dtype=complex), c.thetas.shape[:-1] + (1, 1))
    for j, (angle, M) in reversed(list(enumerate(_chart_factors(c)))):
        if isinstance(M, int):  # i P_a = E_0a - E_a0 rotates rows 0 and a
            cos, sin = np.cos(angle)[..., None], np.sin(angle)[..., None]
            row0 = cos * tail[..., 0, :] + sin * tail[..., M, :]
            rowa = cos * tail[..., M, :] - sin * tail[..., 0, :]
            tail[..., 0, :], tail[..., M, :] = row0, rowa
            comp = out[..., n + M - 1, :, :]
            np.multiply(row0.conj()[..., None], rowa[..., None, :], out=comp)
            comp -= rowa.conj()[..., None] * row0[..., None, :]
        else:  # T_a is diagonal: one phase per row
            rows = tail[..., :len(M), :]
            rows *= np.exp(1j * (angle[..., None] * M))[..., None]
            np.matmul(rows.conj().swapaxes(-1, -2) * (1j * M), rows,
                      out=out[..., j // 2, :, :])
    return out


def structure_equation_residual(c: QuotientCoords) -> float:
    """Max |dj + 1/2 [j, j]| with the exterior derivative by differences.

    For each coordinate pair (u, v) the two-form component is
    d_u j_v - d_v j_u + [j_u, j_v]; all three terms vanish together when
    the one-form is a genuine Maurer-Cartan form.
    """
    n = c.n
    step = 1e-6  # of the central differences
    eye = np.eye(2 * n)  # the chart and its 4n shifts, as one stack
    pts = np.concatenate([c.thetas, c.phis]) + step * np.concatenate(
        [np.zeros((1, 2 * n)), eye, -eye])
    j = maurer_cartan(QuotientCoords(pts[:, :n], pts[:, n:]))
    d = (j[1:2 * n + 1] - j[2 * n + 1:]) / (2 * step)  # d[u, v] = d_u j_v
    worst = 0.0
    for u in range(2 * n - 1):
        v = slice(u + 1, None)  # every pair u < v at once
        res = d[u, v] - d[v, u] + j[0, u] @ j[0, v] - j[0, v] @ j[0, u]
        worst = max(worst, float(np.max(np.abs(res))))
    return worst


def vielbein(c: QuotientCoords) -> np.ndarray:
    """Coset covectors e^l_mu = Tr[j_mu C_l] / (2i).

    Shape (..., 2n, 2n): rows are coordinates (thetas then phis), columns the
    coset directions C_{2k+1} = E_{kn} + E_{nk} and C_{2k+2} = -i E_{kn}
    + i E_{nk}, k = 0..n-1, so the traces read column and row n of j.
    """
    n = c.n
    j = maurer_cartan(c)
    col, row = j[..., :n, n], j[..., n, :n]
    pairs = np.stack([(col + row).imag, (col - row).real], axis=-1) * 0.5
    # a trace sums from +0, so exact zeros of j give no -0
    return pairs.reshape(col.shape[:-1] + (2 * n,)) + 0.0


def vielbein_density(c: QuotientCoords):
    """|det| of the vielbein; the chart density of the invariant measure."""
    return np.abs(np.linalg.det(vielbein(c)))


def measure_density(c: QuotientCoords):
    """Closed-form chart density, independent of the vielbein route; on
    Python floats, chart by chart, as numpy's ** may differ in the last bit."""
    n = c.n
    out = []
    for phis in c.phis.reshape(-1, n).tolist():
        d = 2.0 * math.cos(phis[-1]) * math.sin(phis[-1]) ** (2 * n - 1)
        for a in range(1, n):
            d *= math.sin(phis[a - 1]) * math.cos(phis[a - 1]) ** (2 * a - 1)
        out.append(d)
    return np.reshape(out, c.phis.shape[:-1])[()]


def chart_volume(n: int) -> float:
    """Integral of the density over the calibrated chart domain.

    The density is a product of one-dimensional factors, so the integral
    splits into theta periods times phi quadratures.
    """
    total = float(np.prod(theta_periods(n)))
    total *= gauss_legendre(
        lambda p: 2.0 * np.cos(p) * np.sin(p) ** (2 * n - 1), 0.0, math.pi / 2)
    for a in range(1, n):
        total *= gauss_legendre(
            lambda p, a=a: np.sin(p) * np.cos(p) ** (2 * a - 1),
            0.0, math.pi / 2)
    return total


def macdonald_quotient(n: int) -> float:
    """Exact-volume target V(SU(n+1)) / V(U(n)) for the chart volume."""
    from .exact import ExactScalar
    from .roots import Series
    from .volumes import closed_form_volume

    v_top = closed_form_volume(Series("A", n + 1))
    if n == 1:
        v_sub = ExactScalar(1)
    else:
        v_sub = closed_form_volume(Series("A", n))
    return (v_top / v_sub).to_float() / (2.0 * math.pi * U_FIBER_CONSTANT)


def fs_metric_angular(a: AffineCoords, d_xi, d_R, d_psi):
    """ds^2 of the angular form on the given coordinate velocity."""
    if not np.all((0.0 <= a.xi) & (a.xi < math.pi / 2)):
        raise ValueError("xi must lie in [0, pi/2)")
    s2 = np.sin(a.xi) ** 2
    R2 = a.R * a.R
    mixed = np.sum(R2 * d_psi, axis=-1)
    return (d_xi * d_xi
            + s2 * (np.sum(d_R * d_R, axis=-1)
                    + np.sum(R2 * d_psi * d_psi, axis=-1))
            - s2 * s2 * mixed * mixed)


def fs_metric_affine_on_velocity(z: np.ndarray, dz: np.ndarray):
    """ds^2 of the affine form evaluated on a complex velocity."""
    w = 1.0 + np.sum(z.conj() * z, axis=-1).real
    return (np.sum(dz.conj() * dz, axis=-1).real / w
            - np.abs(np.sum(z.conj() * dz, axis=-1)) ** 2 / (w * w))


def angular_velocity_to_dz(a: AffineCoords, d_xi, d_R, d_psi) -> np.ndarray:
    """Chain rule for z = tan(xi) R e^{i psi}."""
    t = np.tan(a.xi)
    radial = ((1.0 + t * t) * d_xi)[..., None] * a.R
    t = t[..., None]
    return (radial + t * d_R + 1j * t * a.R * d_psi) * np.exp(1j * a.psi)


def band_mass(n: int, eps: float) -> float:
    """Unnormalized mass cos^{2n}(eps)/(2n) of the chart band phi_n < pi/2-eps.

    Verified on the fly, to 1e-10, against Gauss-Legendre quadrature of
    the defining integral, with nodes doubled until two estimates agree;
    the normalized complement 1 - cos^{2n}(eps) is the measure of the
    radius-eps neighbourhood of the locus at infinity.
    """
    if not (0.0 <= eps <= math.pi / 2):
        raise ValueError("eps must lie in [0, pi/2]")
    if n < 1:
        raise ValueError("n must be >= 1")
    val = math.cos(eps) ** (2 * n) / (2 * n)
    num = gauss_legendre(lambda p: np.cos(p) * np.sin(p) ** (2 * n - 1),
                         0.0, math.pi / 2 - eps)
    if abs(num - val) > 1e-10:
        raise ArithmeticError(
            f"band mass quadrature mismatch: {num} vs {val}")
    return val


def band_complement_mass(n: int, r: float) -> float:
    """Normalized measure 1 - cos^{2n}(r) of the neighbourhood V_r."""
    if not (0.0 <= r <= math.pi / 2):
        raise ValueError("r must lie in [0, pi/2]")
    return 1.0 - math.cos(r) ** (2 * n)

