import math

import numpy as np
import pytest

from lievol.cpn import (AffineCoords, QuotientCoords, _chart_factors,
                        angular_velocity_to_dz,
                        band_complement_mass, band_mass, chart_volume,
                        fs_metric_affine_on_velocity, fs_metric_angular,
                        macdonald_quotient, maurer_cartan, measure_density,
                        structure_equation_residual,
                        theta_periods, vielbein, vielbein_density)
from lievol.reproduce import (GEOMETRY_MAX_N, GEOMETRY_MAX_POINTS,
                              criterion_geometry)

RNG = np.random.default_rng(2024)


def random_coords(n, lo=0.05, hi=1.3, rng=RNG):
    return QuotientCoords(tuple(rng.uniform(lo, hi, n)),
                          tuple(rng.uniform(lo, hi, n)))


def gellmann_basis(m):
    """Generalized Gell-Mann matrices, Tr(l_I l_J) = 2 delta_IJ.

    Ordered block by block: for each a = 2..m the off-diagonal pairs
    (k, a), k < a, then the diagonal matrix at index a^2 - 1 (1-based).
    The oracle for the chart: its generators are lam[2], lam[1],
    lam[a^2 - 2] / eps_a and lam[a^2] (0-based), its coset directions
    the matrices n^2 .. n^2 + 2n - 1 (1-based).
    """
    mats = []
    for a in range(2, m + 1):
        for k in range(1, a):
            S = np.zeros((m, m), dtype=complex)
            S[k - 1, a - 1] = S[a - 1, k - 1] = 1.0
            mats.append(S)
            A = np.zeros((m, m), dtype=complex)
            A[k - 1, a - 1] = -1j
            A[a - 1, k - 1] = 1j
            mats.append(A)
        D = np.zeros((m, m), dtype=complex)
        c = math.sqrt(2.0 / (a * (a - 1)))
        for b in range(a - 1):
            D[b, b] = c
        D[a - 1, a - 1] = -(a - 1) * c
        mats.append(D)
    return np.array(mats)


def maurer_cartan_fd(c, step=1e-6):
    """Central finite-difference oracle for the Maurer-Cartan components,
    differentiating dense_chart's h."""
    n = c.n
    inv = dense_chart(c)[0].conj().T
    out = []
    coords = list(c.thetas) + list(c.phis)
    for idx in range(2 * n):
        up = coords.copy()
        dn = coords.copy()
        up[idx] += step
        dn[idx] -= step
        hp = dense_chart(QuotientCoords(tuple(up[:n]), tuple(up[n:])))[0]
        hm = dense_chart(QuotientCoords(tuple(dn[:n]), tuple(dn[n:])))[0]
        out.append(inv @ (hp - hm) / (2 * step))
    return np.array(out)


def kahler_potential(z):
    return 0.5 * math.log(1.0 + float(np.vdot(z, z).real))


def fs_metric_from_potential(z, step=1e-4):
    """Finite-difference complex Hessian of the Kaehler potential.

    The line element is ds^2 = sum_ij G_ij dz_i conj(dz_j) with G twice
    the Hessian d^2 K / dz_i dconj(z)_j.
    """
    n = len(z)

    def hess(u_dir, v_dir):
        # central second difference of K along two real directions
        f = kahler_potential
        return (f(z + step * (u_dir + v_dir)) - f(z + step * (u_dir - v_dir))
                - f(z + step * (v_dir - u_dir)) + f(z - step * (u_dir + v_dir))
                ) / (4.0 * step * step)

    ex = list(np.eye(n, dtype=complex))
    ey = [1j * e for e in ex]
    G = np.zeros((n, n), dtype=complex)
    # d2/dz_i dzbar_j = (K_xx + K_yy + i K_xy - i K_yx) / 4
    for i in range(n):
        for j in range(n):
            G[i, j] = (hess(ex[i], ex[j]) + hess(ey[i], ey[j])
                       + 1j * hess(ex[i], ey[j])
                       - 1j * hess(ey[i], ex[j])) / 4.0
    return 2.0 * G


def expi(h):
    """exp(i h) of a hermitian matrix by eigendecomposition."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def gellmann_generators(n):
    """The chart generators T_1, P_1, ..., T_n, P_n from the Gell-Mann basis.

    The T_a are rounded to their integer entries: dividing out the
    Gell-Mann normalization leaves an error of ~1e-15, which the chart's
    phases e^{i theta (1 - a)} would magnify past 1e-14.
    """
    lam = gellmann_basis(n + 1)
    gens = [lam[2], lam[1]]
    for a in range(2, n + 1):
        eps = math.sqrt(2.0 / (a * (a - 1)))
        gens += [np.round(lam[a * a - 2] / eps), lam[a * a]]
    return gens


def dense_chart(c):
    """Second route: h and h^-1 dh from eigh exponentials and dense products.

    Independent of the chart's factor records, so that it, and
    maurer_cartan_fd, which differentiates its h, catch a wrong factor.
    """
    gens = gellmann_generators(c.n)
    angles = [x for pair in zip(c.thetas, c.phis) for x in pair]
    tail = np.eye(c.n + 1, dtype=complex)
    comps = []
    for M, t in reversed(list(zip(gens, angles))):
        tail = expi(t * M) @ tail
        comps.append(tail.conj().T @ (1j * M) @ tail)
    comps.reverse()
    return tail, np.array(comps[0::2] + comps[1::2])


def record_generator(M, m):
    """The dense generator a chart factor record stands for."""
    G = np.zeros((m, m), dtype=complex)
    if isinstance(M, int):
        G[0, M], G[M, 0] = -1j, 1j
    else:
        G[range(len(M)), range(len(M))] = M
    return G


class TestGellmann:
    def test_pauli_base_case(self):
        lam = gellmann_basis(2)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.array([[1, 0], [0, -1]], dtype=complex)
        assert np.allclose(lam, [sx, sy, sz])

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_gram(self, m):
        lam = gellmann_basis(m)
        assert lam.shape == (m * m - 1, m, m)
        g = np.einsum("iab,jba->ij", lam, lam)
        assert np.allclose(g, 2 * np.eye(m * m - 1), atol=1e-13)

    @pytest.mark.parametrize("m", [3, 5])
    def test_hermitian_traceless(self, m):
        for l in gellmann_basis(m):
            assert np.allclose(l, l.conj().T)
            assert abs(np.trace(l)) < 1e-13


class TestChartGenerators:
    """The chart route builds its own generators; Gell-Mann is the oracle.

    These draw from their own generator, so that the other tests keep
    their points.
    """

    @pytest.mark.parametrize("n", range(1, 9))
    def test_generators_are_the_gellmann_ones(self, n):
        want = gellmann_generators(n)
        rng = np.random.default_rng(n)
        got = [record_generator(M, n + 1)
               for _, M in _chart_factors(random_coords(n, rng=rng))]
        assert len(got) == len(want) == 2 * n
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_vielbein_is_the_gellmann_trace(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            c = random_coords(n, rng=rng)
            j = maurer_cartan(c)
            coset = gellmann_basis(n + 1)[n * n - 1: n * n - 1 + 2 * n]
            want = np.einsum("uab,lba->ul", j, coset).imag * 0.5
            assert vielbein(c).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", range(1, 17))
    def test_closed_form_exponentials(self, n):
        # the row operations against the dense eigh route
        rng = np.random.default_rng(100 + n)
        for _ in range(3):
            c = random_coords(n, hi=2 * math.pi, rng=rng)
            _, j = dense_chart(c)
            assert np.max(np.abs(maurer_cartan(c) - j)) <= 1e-13

    def test_second_routes_ship_with_the_tests(self):
        # the oracles and dense views live in the tests; the deleted
        # helpers stay gone.  With no dense view of the basis in src, the
        # curvature chain has nothing to build a dense stack from.
        import inspect

        import lievol.cpn
        import lievol.curvature
        import lievol.montecarlo
        import lievol.reproduce
        import lievol.volumes
        from lievol.curvature import (LieAlgebraBasis, StructureTensor,
                                      chi_coefficient, ricci_tensor)
        from lievol.exact import ExactScalar

        gone = ("gellmann_basis", "maurer_cartan_fd", "kahler_potential",
                "fs_metric_from_potential", "fs_metric_affine",
                "jacobi_residual", "two_plane_orbit_length",
                "sphere_band_mass_quadrature", "symplectic_form",
                "kolmogorov_pvalue", "Reduction", "_SU_MAGNITUDE",
                "_SPIN_COORDINATES", "_USP_COORDINATE", "_check_columns",
                "_haar_unitary", "_usp_partner", "_col_order",
                "_householder_reduce", "_equator_distance", "_chunks",
                "riemann_tensor", "_dense_view", "_pyify", "sphere_volume",
                "_dim_step", "LOG_2PI", "quotient_point", "_dense",
                "DENSE_BUDGET", "check_dense_budget", "ALGEBRA_DIM",
                "CURVATURE_BUDGET", "_JOIN_BYTES", "check_curvature_budget")
        for mod in (lievol, lievol.cpn, lievol.curvature, lievol.montecarlo,
                    lievol.reproduce, lievol.volumes):
            assert not [name for name in gone if hasattr(mod, name)]
        for cls, names in ((AffineCoords, ("from_z",)),
                           (LieAlgebraBasis, ("elements",)),
                           (StructureTensor, ("array", "entries")),
                           (ExactScalar, ("one", "from_rational",
                                          "sqrt_rational", "from_json"))):
            assert not [name for name in names if hasattr(cls, name)]
        # the Killing form is passed down, never recomputed
        for fn in (ricci_tensor, chi_coefficient):
            assert (inspect.signature(fn).parameters["K"].default
                    is inspect.Parameter.empty)


class TestQuotientPoint:
    # the chart point h of the test route, which maurer_cartan_fd reads
    def test_identity_at_origin(self):
        c = QuotientCoords((0.0, 0.0), (0.0, 0.0))
        assert np.allclose(dense_chart(c)[0], np.eye(3))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_special_unitary(self, n):
        c = random_coords(n)
        h = dense_chart(c)[0]
        assert np.allclose(h @ h.conj().T, np.eye(n + 1), atol=1e-12)
        assert abs(np.linalg.det(h) - 1.0) < 1e-12

    def test_n1_phi_rotation(self):
        # at theta = 0 the n = 1 chart is a lambda_2 rotation
        phi = 0.7
        h = dense_chart(QuotientCoords((0.0,), (phi,)))[0]
        want = np.array([[math.cos(phi), math.sin(phi)],
                         [-math.sin(phi), math.cos(phi)]])
        assert np.allclose(h, want, atol=1e-13)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            QuotientCoords((0.1,), (0.2, 0.3))
        with pytest.raises(ValueError):
            QuotientCoords(np.zeros((2, 3)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            QuotientCoords(0.1, 0.2)


class TestMaurerCartan:
    # the ranks above 3 draw from their own generators, so that the
    # other tests keep their points

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 12])
    def test_analytic_matches_fd(self, n):
        c = random_coords(n, rng=RNG if n <= 3 else np.random.default_rng(n))
        dev = np.max(np.abs(maurer_cartan(c) - maurer_cartan_fd(c)))
        assert dev < 1e-5

    def test_antihermitian(self):
        for ju in maurer_cartan(random_coords(2)):
            assert np.allclose(ju, -ju.conj().T, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 8, 16, GEOMETRY_MAX_N])
    def test_structure_equation(self, n):
        c = random_coords(n, rng=RNG if n <= 2 else np.random.default_rng(n))
        assert structure_equation_residual(c) < 1e-4


class TestStacks:
    """A stack of charts gives, byte for byte, what its charts give one
    at a time."""

    @pytest.mark.parametrize("shape", [(1,), (7,), (2, 3)])
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_stack_equals_single_charts(self, n, shape):
        rng = np.random.default_rng(200 + n)
        thetas = rng.uniform(0.05, 2 * math.pi, shape + (n,))
        phis = rng.uniform(0.05, 1.5, shape + (n,))
        stack = QuotientCoords(thetas, phis)
        singles = [QuotientCoords(t, p) for t, p in
                   zip(thetas.reshape(-1, n), phis.reshape(-1, n))]
        for f in (maurer_cartan, vielbein, vielbein_density,
                  measure_density):
            got = np.asarray(f(stack))
            want = np.array([f(c) for c in singles])
            assert got.shape == shape + want.shape[1:]
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), f.__name__

    @pytest.mark.parametrize("shape", [(1,), (7,), (2, 3)])
    @pytest.mark.parametrize("n", [1, 2, 5, 27])
    def test_pullback_stack_equals_single_points(self, n, shape):
        rng = np.random.default_rng(600 + n)
        R = np.abs(rng.normal(size=shape + (n,)))
        R /= np.linalg.norm(R, axis=-1, keepdims=True)
        xi, d_xi = rng.uniform(0.1, 1.3, shape), rng.normal(size=shape)
        psi, dR, dpsi = rng.normal(size=(3,) + shape + (n,))
        stack = (AffineCoords(xi, R, psi), d_xi, dR, dpsi)
        k = int(np.prod(shape))
        singles = [(AffineCoords(*p[:3]), *p[3:]) for p in zip(
            xi.reshape(k), R.reshape(k, n), psi.reshape(k, n),
            d_xi.reshape(k), dR.reshape(k, n), dpsi.reshape(k, n))]
        for name, f in (
                ("to_z", lambda a, *v: a.to_z()),
                ("fs_metric_angular", fs_metric_angular),
                ("angular_velocity_to_dz", angular_velocity_to_dz),
                ("fs_metric_affine_on_velocity",
                 lambda a, *v: fs_metric_affine_on_velocity(
                     a.to_z(), angular_velocity_to_dz(a, *v)))):
            got = np.asarray(f(*stack))
            want = np.array([f(*p) for p in singles])
            assert got.shape == shape + want.shape[1:]
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes(), name

    def test_one_chart_gives_scalars(self):
        c = random_coords(3, rng=np.random.default_rng(7))
        assert maurer_cartan(c).shape == (6, 4, 4)
        assert np.ndim(vielbein_density(c)) == np.ndim(measure_density(c)) == 0

    def test_structure_equation_is_one_pass(self, monkeypatch):
        # the chart and its 4n shifts go through one Maurer-Cartan pass
        import lievol.cpn
        calls = []
        monkeypatch.setattr(lievol.cpn, "_chart_factors",
                            lambda c, f=_chart_factors: calls.append(
                                c.thetas.shape) or f(c))
        structure_equation_residual(random_coords(
            4, rng=np.random.default_rng(8)))
        assert calls == [(17, 4)]


class TestDensity:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_vielbein_equals_closed_form(self, n):
        for _ in range(20):
            c = random_coords(n)
            assert abs(vielbein_density(c) - measure_density(c)) < 1e-8

    @pytest.mark.parametrize("n", range(1, GEOMETRY_MAX_N + 1))
    def test_density_ratio(self, n):
        # relative: past n ~ 8 the densities fall below any absolute bound
        rng = np.random.default_rng(300 + n)
        for _ in range(10):
            c = QuotientCoords(tuple(rng.uniform(0.05, 1.2, n)),
                               tuple(rng.uniform(0.1, 1.4, n)))
            assert abs(vielbein_density(c) / measure_density(c) - 1) <= 1e-11

    def test_degenerate_at_boundary(self):
        c = QuotientCoords((0.3, 0.4), (0.5, math.pi / 2))
        assert abs(measure_density(c)) < 1e-12
        assert vielbein_density(c) < 1e-8

    def test_vielbein_shape(self):
        assert vielbein(random_coords(2)).shape == (4, 4)

    def test_n1_density(self):
        phi = 0.8
        c = QuotientCoords((0.2,), (phi,))
        assert measure_density(c) == pytest.approx(math.sin(2 * phi),
                                                   abs=1e-13)


class TestCalibration:
    def test_theta_periods(self):
        assert theta_periods(1) == [math.pi]
        assert theta_periods(3) == [math.pi, 2 * math.sqrt(3) * math.pi,
                                    2 * math.pi]

    @pytest.mark.parametrize("n", [1, 2])
    def test_chart_volume_matches_quotient(self, n):
        got = chart_volume(n)
        want = macdonald_quotient(n)
        assert abs(got - want) < 1e-6 * want

    def test_n1_chart_volume_is_pi(self):
        # area of the n = 1 quotient: pi * integral of sin(2 phi) = pi
        assert chart_volume(1) == pytest.approx(math.pi, rel=1e-12)


class TestFubiniStudy:
    def test_origin(self):
        dz = np.array([0.3 - 1.2j, 0.5j, -2.0])
        got = fs_metric_affine_on_velocity(np.zeros(3, dtype=complex), dz)
        assert got == pytest.approx(float(np.vdot(dz, dz).real), abs=1e-14)

    def test_n1_real_point(self):
        got = fs_metric_affine_on_velocity(np.array([1.0 + 0j]),
                                           np.array([1.0 + 0j]))
        assert got == pytest.approx(0.25, abs=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_potential_hessian(self, n):
        z = RNG.normal(size=n) + 1j * RNG.normal(size=n)
        G = fs_metric_from_potential(z)
        rng = np.random.default_rng(400 + n)  # RNG keeps the later points
        for _ in range(4 * n):
            dz = rng.normal(size=n) + 1j * rng.normal(size=n)
            want = fs_metric_affine_on_velocity(z, dz)
            got = (dz @ G @ np.conj(dz)).real
            assert abs(got - want) <= 1e-6 * want

    def test_pure_radial_velocity(self):
        # moving only in xi gives ds^2 = d_xi^2 exactly
        a = AffineCoords(0.6, np.array([0.6, 0.8]), np.array([0.3, 1.1]))
        assert fs_metric_angular(a, 0.37, np.zeros(2), np.zeros(2)) \
            == pytest.approx(0.37 ** 2, abs=1e-14)

    def test_n1_closed_form(self):
        # n = 1: ds^2 = d_xi^2 + sin^2 cos^2 d_psi^2
        xi, dpsi = 0.5, 0.9
        a = AffineCoords(xi, np.array([1.0]), np.array([0.4]))
        got = fs_metric_angular(a, 0.0, np.zeros(1), np.array([dpsi]))
        want = (math.sin(xi) * math.cos(xi) * dpsi) ** 2
        assert got == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_angular_pullback(self, n):
        # 25 points as one stack
        R = np.abs(RNG.normal(size=(25, n)))
        R /= np.linalg.norm(R, axis=-1, keepdims=True)
        a = AffineCoords(RNG.uniform(0.1, 1.3, 25), R,
                         RNG.uniform(0, 2 * math.pi, (25, n)))
        d_xi = RNG.normal(size=25)
        dR = RNG.normal(size=(25, n))
        dR -= R * np.sum(R * dR, axis=-1, keepdims=True)  # tangent at R
        dpsi = RNG.normal(size=(25, n))
        v_ang = fs_metric_angular(a, d_xi, dR, dpsi)
        v_aff = fs_metric_affine_on_velocity(
            a.to_z(), angular_velocity_to_dz(a, d_xi, dR, dpsi))
        assert v_ang.shape == v_aff.shape == (25,)
        assert np.max(np.abs(v_ang - v_aff)) < 1e-8

    def test_affine_coords_are_checked(self):
        R = np.full((2, 4), 0.5)
        R[1, 0] += 1e-9   # one point of the stack off the sphere
        with pytest.raises(ValueError, match="unit sphere"):
            AffineCoords(np.zeros(2), R, R)
        one = np.ones((2, 1))   # the second point's xi lies past pi/2
        with pytest.raises(ValueError, match="xi"):
            fs_metric_angular(AffineCoords(np.array([0.1, 2.0]), one, one),
                              np.zeros(2), one, one)

    def test_criterion_at_the_most_points(self):
        res = criterion_geometry(points=GEOMETRY_MAX_POINTS, ns=(2,))
        assert res["passed"] and res["pullback_dev"] < 1e-8


class TestBandMass:
    def test_n1_at_zero(self):
        assert band_mass(1, 0.0) == pytest.approx(0.5, abs=1e-14)

    def test_vanishes_at_pi_half(self):
        assert band_mass(3, math.pi / 2) == pytest.approx(0.0, abs=1e-14)

    def test_n10_complement(self):
        got = band_complement_mass(10, 0.3)
        assert got == pytest.approx(1.0 - math.cos(0.3) ** 20, abs=1e-14)
        assert 0.59 < got < 0.61

    @pytest.mark.parametrize("n", [1, 2, 5, 20])
    @pytest.mark.parametrize("eps", [0.0, 0.3, 0.8, 1.4])
    def test_quadrature_identity(self, n, eps):
        band_mass(n, eps)  # raises on mismatch

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            band_mass(2, -0.1)
        with pytest.raises(ValueError):
            band_complement_mass(2, 2.0)

