"""special.py against scipy, the independent second route."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import betainc, kolmogorov, roots_legendre

from lievol import special
from lievol.cpn import chart_volume, theta_periods
from lievol.special import betainc_half, gauss_legendre, kolmogorov_sf

# x = 0 and x = 1, a uniform grid, and points crowding both ends.  Not
# closer to 1: there scipy's I_x(1/2, 1/2) loses digits like
# 1 / sqrt(1 - x) (3.5e-11 at 1 - x = 1e-12), see test_m1_next_to_one.
X_GRID = np.unique(np.concatenate([
    np.linspace(0.0, 1.0, 1001), np.geomspace(1e-12, 1e-1, 60),
    1.0 - np.geomspace(1e-6, 1e-1, 30)]))


class TestBetaincHalf:
    @pytest.mark.parametrize("m", range(1, 81))
    def test_matches_scipy(self, m):
        got = betainc_half(m, X_GRID)
        assert np.max(np.abs(got - betainc(0.5, m / 2.0, X_GRID))) < 1e-13

    def test_m1_next_to_one(self):
        # I_x(1/2, 1/2) = 1 - (2/pi) asin(sqrt(1 - x)), exact as 1 - x -> 0
        x = 1.0 - np.geomspace(1e-16, 1e-1, 60)
        want = 1.0 - 2.0 / math.pi * np.arcsin(np.sqrt(1.0 - x))
        assert np.max(np.abs(betainc_half(1, x) - want)) < 1e-15

    @pytest.mark.parametrize("m", [1, 2, 7, 80])
    def test_endpoints(self, m):
        assert betainc_half(m, 0.0) == 0.0
        assert betainc_half(m, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_scalar_and_array_agree(self):
        assert betainc_half(9, 0.3) == betainc_half(9, np.array([0.3]))[0]

    @pytest.mark.parametrize("m", [0, -3, 2.5, 3.0, True])
    def test_rejects_bad_m(self, m):
        with pytest.raises(ValueError):
            betainc_half(m, 0.5)


class TestKolmogorovSf:
    LAMBDAS = np.concatenate([np.linspace(0.01, 10.0, 2000),
                              [0.99, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.01]])

    def test_matches_scipy(self):
        want = kolmogorov(self.LAMBDAS)
        got = kolmogorov_sf(self.LAMBDAS)
        assert np.max(np.abs(got - want) / want) < 1e-13

    def test_nonpositive_is_one(self):
        assert np.all(kolmogorov_sf([0.0, -1.0, 1e-9]) == 1.0)


# The node counts gauss_legendre tries: GL_START doubled up to GL_CAP.
GL_COUNTS = [special.GL_START << i for i in range(
    (special.GL_CAP // special.GL_START).bit_length())]


class TestLeggauss:
    @pytest.mark.parametrize("n", GL_COUNTS)
    def test_nodes_match_scipy(self, n):
        x, w = special._leggauss(n)
        assert np.max(np.abs(x - roots_legendre(n)[0])) <= 4.5e-16
        assert np.array_equal(x, -x[::-1])
        assert abs(w.sum() - 2.0) <= 1e-14

    @pytest.mark.parametrize("n", [GL_COUNTS[0], GL_COUNTS[-1]])
    def test_weights_match_mpmath(self, n):
        # not scipy's weights: its end weights are off by up to 1.8e-9
        # at n = 1024.  P_n' at the float node from mpmath's P_n and
        # P_(n-1); the worst node reads 4.9e-12.
        x, w = special._leggauss(n)
        with mpmath.workdps(40):
            for i in (0, 1, n // 2):
                t = mpmath.mpf(float(x[i]))
                dp = n * (mpmath.legendre(n - 1, t)
                          - t * mpmath.legendre(n, t)) / (1 - t * t)
                want = 2 / ((1 - t * t) * dp * dp)
                assert abs(w[i] - want) <= 1e-11 * want

    def test_step_cap_raises(self, monkeypatch):
        # Tricomi's estimates need 3 steps at n = 64
        monkeypatch.setattr(special, "_NEWTON_STEPS", 2)
        with pytest.raises(ArithmeticError, match="Newton"):
            special._leggauss.__wrapped__(special.GL_START)


def _band(n):
    return lambda p: np.cos(p) * np.sin(p) ** (2 * n - 1)


def _quad(f, a, b):
    val, _ = quad(f, a, b, epsabs=1e-14, epsrel=1e-13, limit=200)
    return val


class TestGaussLegendre:
    @pytest.mark.parametrize("n", list(range(1, 21)) + [5000])
    @pytest.mark.parametrize("eps", [0.0, 0.3, 1.2])
    def test_band_integral_matches_quad(self, n, eps):
        b = math.pi / 2 - eps
        got = gauss_legendre(_band(n), 0.0, b)
        want = _quad(_band(n), 0.0, b)
        assert abs(got - want) < 1e-13 * max(1.0, abs(want))
        assert abs(got - math.cos(eps) ** (2 * n) / (2 * n)) < 1e-14

    def test_doubling_fixes_the_first_estimate(self):
        # at n = 5000 the integrand is a spike next to pi/2, which the
        # first GL_START nodes miss
        n, b = 5000, math.pi / 2
        t, w = special._leggauss(special.GL_START)
        first = 0.5 * b * float(np.dot(w, _band(n)(0.5 * b * (t + 1.0))))
        assert abs(first - 1.0 / (2 * n)) > 1e-11
        assert abs(gauss_legendre(_band(n), 0.0, b) - 1.0 / (2 * n)) < 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_chart_volume_matches_quad(self, n):
        want = float(np.prod(theta_periods(n))) * _quad(
            lambda p: 2.0 * math.cos(p) * math.sin(p) ** (2 * n - 1),
            0.0, math.pi / 2)
        for a in range(1, n):
            want *= _quad(lambda p: math.sin(p) * math.cos(p) ** (2 * a - 1),
                          0.0, math.pi / 2)
        assert chart_volume(n) == pytest.approx(want, rel=1e-13)

    def test_node_cap_raises(self):
        # a jump converges like 1/nodes, far from 1e-13 at the cap
        with pytest.raises(ArithmeticError):
            gauss_legendre(lambda x: np.sign(x - 1.0 / 3.0), 0.0, 1.0)
