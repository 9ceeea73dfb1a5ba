"""Exact scalars of the form q * pi^k * sqrt(s).

q is an arbitrary-precision rational, k a non-negative integer power of pi
and s a positive square-free integer radicand.  Values are built by the
constructor alone, and the class is closed under multiplication and
division, which is all the volume formulas need; there is deliberately no
addition, so every value has a unique normal form.  `to_float` rounds the
exact value once, so `decimal` is right to all of its 15 digits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction
from functools import cached_property

# pi to 50 digits, for to_float's 40-digit context.
_PI = Decimal("3.1415926535897932384626433832795028841971693993751")


def _digits(n: int) -> str:
    """str(n) without the interpreter's cap on converted digits.

    str() refuses ints above sys.get_int_max_str_digits() digits (4300
    by default), and an exact volume at n = 200 has ~66,000; Decimal
    converts exactly with no cap.
    """
    return str(Decimal(n))


def _split_square(n: int) -> tuple[int, int]:
    """Return (a, b) with n = a^2 * b and b square-free."""
    if n <= 0:
        raise ValueError("radicand must be positive")
    a, b = 1, 1
    d = 2
    m = n
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            a *= d ** (e // 2)
            if e % 2:
                b *= d
        d += 1 if d == 2 else 2
    return a, b * m


@dataclass(frozen=True)
class ExactScalar:
    """Value q * pi^k * sqrt(s), stored in normal form."""

    q: Fraction
    k: int = 0
    s: int = 1

    def __post_init__(self):
        q = Fraction(self.q)
        k, s = self.k, self.s
        if k < 0:
            raise ValueError("negative pi power not representable")
        if q == 0:
            k, s = 0, 1
        else:
            a, s = _split_square(s)
            q = q * a
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)

    # -- arithmetic ---------------------------------------------------

    def __mul__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return ExactScalar(self.q * other.q, self.k + other.k,
                           self.s * other.s)

    def __truediv__(self, other: "ExactScalar") -> "ExactScalar":
        if not isinstance(other, ExactScalar):
            return NotImplemented
        if other.q == 0:
            raise ZeroDivisionError("division by exact zero")
        if self.k < other.k:
            raise ValueError(
                "quotient would need a negative pi power; use the log path")
        # 1/sqrt(s) = sqrt(s)/s
        return ExactScalar(self.q / (other.q * other.s),
                           self.k - other.k, self.s * other.s)

    # -- conversions --------------------------------------------------

    def to_float(self) -> float:
        """The value rounded once to the nearest float; OverflowError
        outside the normal float range, zero aside."""
        num, den = self.q.numerator, self.q.denominator
        # q to ~128 bits by integer shifts, the product in 40 digits
        shift = 128 - num.bit_length() + den.bit_length()
        m = (num << shift) // den if shift >= 0 else num // (den << -shift)
        with localcontext(prec=40, Emax=MAX_EMAX, Emin=MIN_EMIN):
            x = float(Decimal(m) * _PI ** self.k * Decimal(self.s).sqrt()
                      * Decimal(2) ** -shift)
        if num and not sys.float_info.min <= abs(x) <= sys.float_info.max:
            raise OverflowError("value outside the normal float range")
        return x

    def log(self) -> float:
        """Natural log, safe for rationals far beyond float range."""
        if self.q <= 0:
            raise ValueError("log of non-positive value")
        q = self.q
        return (math.log(q.numerator) - math.log(q.denominator)
                + self.k * math.log(math.pi) + 0.5 * math.log(self.s))

    # -- rendering ----------------------------------------------------

    @cached_property
    def _q_digits(self) -> tuple[str, str]:
        """q's numerator and denominator in decimal, rendered once."""
        return _digits(self.q.numerator), _digits(self.q.denominator)

    def to_json(self) -> dict:
        num, den = self._q_digits
        return {"q": f"{num}/{den}", "pi_pow": self.k, "sqrt": self.s}

    def __str__(self) -> str:
        num, den = self._q_digits
        parts = [num if self.q.denominator == 1 else f"{num}/{den}"]
        if self.k == 1:
            parts.append("pi")
        elif self.k > 1:
            parts.append(f"pi^{self.k}")
        if self.s != 1:
            parts.append(f"sqrt({self.s})")
        return " * ".join(parts)

    def decimal(self) -> str:
        """to_float rendered to 15 significant digits."""
        return f"{self.to_float():.15g}"

