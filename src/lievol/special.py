"""The special functions behind lievol's band masses and KS p-values.

- ``betainc_half(m, x)``: the regularized incomplete beta I_x(1/2, m/2),
  the mass of a band around an equator of S^m;
- ``kolmogorov_sf(lam)``: the asymptotic Kolmogorov tail P(K > lam);
- ``gauss_legendre(f, a, b)``: Gauss-Legendre quadrature with node
  doubling, for the band and chart integrals; its nodes come from
  Newton's method on the Legendre recurrence, not from an eigen-solve.

They need numpy alone, so that no scipy subpackage is imported at run
time; the tests compare each with scipy, the independent second route.
"""

from __future__ import annotations

import functools
import math

import numpy as np

# Node counts of gauss_legendre: start, and the last one tried.
GL_START = 64
GL_CAP = 1024
GL_RTOL = 1e-13

# Newton steps _leggauss takes at most, and the step below which a node
# is a root to working precision: in a sweep of n up to 4096, steps
# after convergence read at most 1.3e-16, and from n = GL_START to
# GL_CAP the step before them at least 8e-13.
_NEWTON_STEPS = 8
_NEWTON_TOL = 2.0 * np.finfo(float).eps

# Enough terms of each Kolmogorov series for double precision: at the
# crossover lam = 1 the fifth term is below 1e-21 of the sum.
_KS_TERMS = np.arange(1, 9)


def betainc_half(m: int, x) -> np.ndarray:
    """I_x(1/2, m/2) for an integer m >= 1, elementwise over x in [0, 1].

    Upward recurrence in b (Abramowitz & Stegun 26.5.16 at a = 1/2):
    I_x(1/2, b+1) = I_x(1/2, b) + c_b sqrt(x) (1-x)^b with
    c_b = Gamma(b+1/2) / (Gamma(1/2) Gamma(b+1)), from I_x(1/2, 1/2) =
    (2/pi) asin(sqrt(x)) for odd m and I_x(1/2, 1) = sqrt(x) for even m.
    Every term is nonnegative, so nothing cancels.
    """
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)) or m < 1:
        raise ValueError(f"m must be an integer >= 1, got {m!r}")
    x = np.asarray(x, dtype=float)
    root = np.sqrt(x)
    if m % 2:
        b, c, power = 0.5, 2.0 / math.pi, np.sqrt(1.0 - x)
        # asin(sqrt(x)), without asin's loss of digits next to x = 1
        out = c * np.arctan2(root, power)
    else:
        b, c, power = 1.0, 0.5, 1.0 - x
        out = root
    tail = np.zeros_like(x)
    while b < m / 2.0:
        tail += c * power
        power = power * (1.0 - x)
        c *= (b + 0.5) / (b + 1.0)
        b += 1.0
    return out + root * tail


def kolmogorov_sf(lam) -> np.ndarray:
    """Kolmogorov tail P(K > lam), elementwise; 1 for lam <= 0.

    For lam >= 1 the alternating series 2 sum (-1)^(k-1) exp(-2 k^2 lam^2);
    below it the theta form 1 - sqrt(2 pi)/lam sum exp(-(2k-1)^2 pi^2 /
    (8 lam^2)), where the alternating series would converge slowly.
    """
    lam = np.asarray(lam, dtype=float)
    k = _KS_TERMS
    big = np.maximum(lam, 1.0)[..., None]
    sign = np.where(k % 2, 1.0, -1.0)
    upper = 2.0 * np.sum(sign * np.exp(-2.0 * k * k * big * big), axis=-1)
    # below lam = 1e-3 the tail is 1 to double precision
    small = np.clip(lam, 1e-3, 1.0)[..., None]
    theta = np.sum(np.exp(-((2 * k - 1) * math.pi / small) ** 2 / 8.0),
                   axis=-1)
    lower = 1.0 - math.sqrt(2.0 * math.pi) / small[..., 0] * theta
    return np.where(lam >= 1.0, upper, np.where(lam > 0.0, lower, 1.0))


@functools.lru_cache(maxsize=None)
def _leggauss(n: int) -> tuple:
    """Gauss-Legendre nodes x, ascending, and weights 2 / ((1 - x^2)
    P_n'(x)^2) on [-1, 1].

    Newton's method on the recurrence for P_n (Numerical Recipes, 3rd
    ed., section 4.6) from Tricomi's estimates -cos(pi (k - 1/4) / (n +
    1/2)), k = 1..n, which are within 3e-5 of the roots from n = 64; from
    there to GL_CAP 3 steps make the next one round-off.  The estimates
    are made antisymmetric, and the recurrence's P_n is exactly odd or
    even in floating point, so every step keeps the nodes exactly
    antisymmetric.  A round-off step is not taken, so the evaluation
    that finds it gives the weights; the recurrence keeps them within
    5e-12 relative of 2 / ((1 - x^2) P_n'(x)^2) at the end nodes of
    n = 1024 (against mpmath), and to a few ulp in the middle.
    """
    x = -np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    x = 0.5 * (x - x[::-1])
    for _ in range(_NEWTON_STEPS + 1):
        p_prev, p = np.ones_like(x), x
        for k in range(2, n + 1):
            p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
        dp = n * (p_prev - x * p) / (1.0 - x * x)
        step = p / dp
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            return x, 2.0 / ((1.0 - x * x) * dp * dp)
        x = x - step
    raise ArithmeticError(
        f"Gauss-Legendre nodes at n = {n}: Newton's method took more than "
        f"{_NEWTON_STEPS} steps")


def gauss_legendre(f, a: float, b: float) -> float:
    """Integral of a vectorized f over [a, b].

    Gauss-Legendre with GL_START nodes, doubled until two successive
    estimates agree to GL_RTOL * max(1, |I|).  Raises ArithmeticError
    when GL_CAP nodes still disagree with the estimate before them.
    """
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    prev = None
    n = GL_START
    while n <= GL_CAP:
        t, w = _leggauss(n)
        est = half * float(np.dot(w, f(half * t + mid)))
        tol = GL_RTOL * max(1.0, abs(est))
        if prev is not None and abs(est - prev) <= tol:
            return est
        prev = est
        n *= 2
    raise ArithmeticError(
        f"Gauss-Legendre quadrature on [{a}, {b}] did not converge at "
        f"{GL_CAP} nodes")
