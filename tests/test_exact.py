import math
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lievol.exact import ExactScalar


def ES(q, k=0, s=1):
    return ExactScalar(Fraction(q), k, s)


scalars = st.builds(
    ExactScalar,
    st.fractions(min_value=Fraction(-50), max_value=Fraction(50),
                 max_denominator=40),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=60),
)


class TestNormalization:
    def test_square_extracted(self):
        assert ES(1, 0, 8) == ES(2, 0, 2)
        assert ES(1, 0, 36) == ES(6, 0, 1)

    def test_zero_canonical(self):
        assert ES(0, 3, 7) == ES(0, 0, 1)

    def test_idempotent(self):
        x = ES(Fraction(3, 4), 2, 12)
        y = ExactScalar(x.q, x.k, x.s)
        assert x == y

    def test_negative_pi_power_rejected(self):
        with pytest.raises(ValueError):
            ExactScalar(Fraction(1), -1, 1)


class TestMul:
    def test_sqrt2_squared(self):
        assert ES(1, 0, 2) * ES(1, 0, 2) == ES(2)

    def test_radical_squares_out(self):
        assert ES(Fraction(1, 2), 2, 2) * ES(3, 1, 2) == ES(3, 3, 1)

    def test_identity(self):
        x = ES(Fraction(7, 3), 2, 5)
        assert x * ExactScalar(1) == x

    @given(scalars, scalars)
    def test_commutative(self, a, b):
        assert a * b == b * a

    @given(scalars, scalars, scalars)
    @settings(max_examples=200)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(scalars, scalars)
    def test_float_consistency(self, a, b):
        lhs = (a * b).to_float()
        rhs = a.to_float() * b.to_float()
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


class TestDiv:
    def test_simple(self):
        assert ES(4, 2, 2) / ES(2, 2, 2) == ES(2)

    @given(scalars)
    def test_self_division(self, a):
        if a.q != 0:
            assert a / a == ExactScalar(1)

    def test_sqrt6_over_sqrt2(self):
        q = ES(1, 0, 6) / ES(1, 0, 2)
        assert q == ES(1, 0, 3)
        assert abs(q.to_float() - math.sqrt(3)) < 1e-15 * math.sqrt(3)

    def test_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ES(1) / ES(0)

    def test_negative_pi_power(self):
        with pytest.raises(ValueError):
            ES(1, 0, 1) / ES(1, 1, 1)


class TestConversions:
    def test_two_pi(self):
        assert abs(ES(2, 1, 1).to_float() - 2 * math.pi) < 1e-15

    def test_sqrt2(self):
        assert abs(ES(1, 0, 2).to_float() - math.sqrt(2)) < 1e-15

    def test_log_of_nonpositive(self):
        with pytest.raises(ValueError):
            ES(0).log()
        with pytest.raises(ValueError):
            ES(-2).log()

    def test_log_matches_float_log(self):
        x = ES(Fraction(355, 113), 3, 7)
        assert abs(x.log() - math.log(x.to_float())) < 1e-12

    def test_rounds_once(self):
        # float(q) * math.pi ** k rounds k + 1 times; to_float rounds the
        # exact value once
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 60
        for q, k, s in ((Fraction(355, 113), 40, 7),
                        (Fraction(-2 ** 900, 3 ** 700), 300, 5),
                        (Fraction(1, 10 ** 300), 500, 2)):
            want = mpmath.mpf(q.numerator) / q.denominator
            want *= mpmath.pi ** k * mpmath.sqrt(s)
            assert ES(q, k, s).to_float() == float(want)

    @pytest.mark.parametrize("q", [Fraction(1, 2 ** 1030),
                                   Fraction(-1, 2 ** 1030),
                                   Fraction(2 ** 1024)])
    def test_outside_normal_range(self, q):
        # subnormal or past the largest float: refused, not rounded
        with pytest.raises(OverflowError):
            ES(q).to_float()

    def test_zero_and_sign(self):
        assert ES(0).to_float() == 0.0
        x = ES(3, 1, 2).to_float()
        assert abs(x - 3 * math.pi * math.sqrt(2)) <= 2e-16 * x
        assert ES(-3, 1, 2).to_float() == -x

    def test_log_beyond_float_range(self):
        huge = ES(Fraction(math.factorial(200)), 40, 3)
        with pytest.raises(OverflowError):
            huge.to_float()
        expected = (math.lgamma(201) + 40 * math.log(math.pi)
                    + 0.5 * math.log(3))
        assert abs(huge.log() - expected) < 1e-9 * abs(expected)

    def test_su5_volume_log_cross_check(self):
        # sqrt(5) (2pi)^14 / (1! 2! 3! 4!) against the log-gamma route
        from lievol.roots import Series
        from lievol.volumes import log_volume

        v = ES(Fraction(2 ** 14, 1 * 2 * 6 * 24), 14, 5)
        assert abs(v.log() - log_volume(Series("A", 5))) < 1e-12


class TestSerialization:
    def test_json_shape(self):
        d = ES(Fraction(3, 2), 2, 5).to_json()
        assert d == {"q": "3/2", "pi_pow": 2, "sqrt": 5}

    def test_decimal_rendering(self):
        assert ES(2, 1, 1).decimal().startswith("6.2831853071795")

    def test_str(self):
        assert str(ES(Fraction(3, 2), 2, 5)) == "3/2 * pi^2 * sqrt(5)"
        assert str(ES(Fraction(-4), 1, 1)) == "-4 * pi"

    def test_past_the_str_digit_cap(self):
        # 10^5 digits, far above sys.get_int_max_str_digits(): the
        # rendering matches str() with the cap lifted
        num, den = 7 ** 118300, 3 ** 50000
        x = ES(Fraction(num, den), 3, 2)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            want = f"{num}/{den}"
        finally:
            sys.set_int_max_str_digits(old)
        assert len(want) > 10 ** 5
        assert x.to_json()["q"] == want
        assert str(x) == f"{want} * pi^3 * sqrt(2)"
