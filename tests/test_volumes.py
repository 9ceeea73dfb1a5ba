import math
import sys
from fractions import Fraction

import pytest

from lievol.exact import ExactScalar
from lievol.roots import _MIN_RANK, MAX_EXACT_RANK, Series
from lievol.volumes import (LOG_VOLUME_MAX_RANK, _tree_prod,
                            closed_form_volume, group_volume, log_volume,
                            ratio_asymptote, ratio_exponent)


def ES(q, k=0, s=1):
    return ExactScalar(Fraction(q), k, s)


class TestFrozenValues:
    """Pinned volumes, each checked against both evaluation routes."""

    CASES = [
        (Series("A", 2), ES(4, 2, 2)),                    # 4 sqrt2 pi^2
        (Series("A", 3), ES(16, 5, 3)),                   # 16 sqrt3 pi^5
        (Series("A", 4), ES(Fraction(2 ** 10, 12), 9, 1)),  # sqrt4 -> 2
        (Series("B", 2), ES(Fraction(2 ** 9, 6), 6, 1)),  # 2^9 pi^6 / 3!
        (Series("B", 3), ES(Fraction(2 ** 16, 6 * 120), 12, 1)),
        (Series("C", 2), ES(Fraction(2 ** 4, 6), 6, 1)),  # 8 pi^6 / 3
        (Series("C", 3), ES(Fraction(2 ** 9, 6 * 120), 12, 1)),
        (Series("D", 4), ES(Fraction(2 ** 17, 6 * 6 * 120), 16, 1)),
    ]

    @pytest.mark.parametrize("series,value", CASES,
                             ids=[s.group_name for s, _ in CASES])
    def test_pinned(self, series, value):
        assert closed_form_volume(series) == value
        assert group_volume(series).exact == value

    def test_su2_decimal(self):
        v = closed_form_volume(Series("A", 2)).to_float()
        assert abs(v - 4 * math.sqrt(2) * math.pi ** 2) < 1e-12


class TestPipelineVsClosedForm:
    @pytest.mark.parametrize("n,tag", [(n, tag) for n in range(2, 41)
                                       for tag in "ABCD"
                                       if n >= _MIN_RANK[tag]])
    def test_exact_equality(self, n, tag):
        s = Series(tag, n)
        assert group_volume(s).exact == closed_form_volume(s)

    @pytest.mark.parametrize("tag,n", [(t, n) for n in (100, MAX_EXACT_RANK)
                                       for t in "ABCD"] + [("D", 200)])
    def test_spot_checks_at_high_rank(self, tag, n):
        # every series at n = 100 and at the rank limit
        s = Series(tag, n)
        assert group_volume(s).exact == closed_form_volume(s)

    @pytest.mark.parametrize("tag,n", [(t, n) for t in "ABCD"
                                       for n in range(4 if t == "D" else 2,
                                                      61)])
    def test_log_route_agrees(self, tag, n):
        # both routes read one closed-form record, one in exact
        # arithmetic and one in logs
        s = Series(tag, n)
        lv = log_volume(s)
        assert abs(lv - closed_form_volume(s).log()) < 1e-12 * abs(lv)

    @pytest.mark.parametrize("tag", "ABCD")
    def test_decimal_correctly_rounded(self, tag):
        # every n <= 60 against 80-digit mpmath: in the normal float range
        # the 15 digits are those of the correctly rounded value, outside
        # it the field is left out
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 80
        for n in range(4 if tag == "D" else 2, 61):
            d = group_volume(Series(tag, n)).to_json()
            e = d["exact"]
            num, den = (int(x) for x in e["q"].split("/"))
            want = (mpmath.mpf(num) / den * mpmath.pi ** e["pi_pow"]
                    * mpmath.sqrt(e["sqrt"]))
            if sys.float_info.min <= want <= sys.float_info.max:
                assert d["decimal"] == f"{float(want):.15g}", (tag, n)
            else:
                assert "decimal" not in d, (tag, n)


class TestCenterQuotient:
    def test_gamma_divides_out(self):
        s = Series("A", 4)
        full = group_volume(s, 1).exact
        quot = group_volume(s, 2).exact
        assert full == quot * ES(2)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            group_volume(Series("A", 4), 3)  # 3 does not divide |Z| = 4
        with pytest.raises(ValueError):
            group_volume(Series("B", 3), 4)
        group_volume(Series("D", 5), 4)  # |Z(Spin(10))| = 4: fine
        with pytest.raises(ValueError):
            log_volume(Series("A", 4), 3)   # the log route checks it too


@pytest.mark.parametrize("xs", [[], [7], [3, 5], list(range(1, 12)),
                                [math.factorial(i) for i in range(1, 40, 3)]])
def test_tree_prod_is_the_product(xs):
    assert _tree_prod(xs) == math.prod(xs)
    assert _tree_prod(iter(xs)) == math.prod(xs)


def test_exact_rank_guard():
    with pytest.raises(ValueError, match="refused"):
        group_volume(Series("D", MAX_EXACT_RANK + 1))


def test_log_rank_guard():
    # the lgamma sums run at the limit and are refused one past it
    assert math.isfinite(log_volume(Series("A", LOG_VOLUME_MAX_RANK)))
    with pytest.raises(ValueError, match="log-gamma route"):
        log_volume(Series("A", LOG_VOLUME_MAX_RANK + 1))


class TestRatioExponent:
    def test_a2_exact_value(self):
        # (V(SU(3))/V(SU(2)))^{1/5} = (sqrt(3/2) (2 pi)^3 / 2)^{1/5}
        want = (math.sqrt(1.5) * (2 * math.pi) ** 3 / 2) ** 0.2
        assert abs(ratio_exponent(Series("A", 2)) - want) < 1e-12

    def test_b3_matches_exact_quotient(self):
        q = (closed_form_volume(Series("B", 3))
             / closed_form_volume(Series("B", 2)))
        want = q.to_float() ** (1 / 11)
        assert abs(ratio_exponent(Series("B", 3)) - want) < 1e-12

    @pytest.mark.parametrize("tag,n", [(t, n) for t in "ABCD"
                                       for n in range(5 if t == "D" else 3,
                                                      9)])
    def test_matches_exact_quotient(self, tag, n):
        # the float root of the exact quotient, over the dimension step
        # written out per series
        big, small = ((Series(tag, n + 1), Series(tag, n)) if tag == "A"
                      else (Series(tag, n), Series(tag, n - 1)))
        step = {"A": 2 * n + 1, "B": 4 * n - 1, "C": 4 * n - 1,
                "D": 4 * n - 3}[tag]
        q = closed_form_volume(big) / closed_form_volume(small)
        want = q.to_float() ** (1 / step)
        assert abs(ratio_exponent(Series(tag, n)) - want) < 1e-12 * want

    def test_scales(self):
        # n for A, 2n for the rest, in the one expression both callers read
        two_pi_e = 2 * math.pi * math.e
        assert ratio_asymptote(Series("A", 7)) == math.sqrt(two_pi_e / 7)
        assert ratio_asymptote(Series("C", 7)) == math.sqrt(two_pi_e / 14)

    @pytest.mark.parametrize("tag", "ABCD")
    def test_asymptote_at_50(self, tag):
        s = Series(tag, 50)
        quot = ratio_exponent(s) / ratio_asymptote(s)
        assert 0.98 <= quot <= 1.02

    @pytest.mark.parametrize("tag", "ABCD")
    def test_monotone_decreasing(self, tag):
        lo = 5
        vals = [ratio_exponent(Series(tag, n)) for n in range(lo, 61)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_volume_result_json():
    d = group_volume(Series("C", 2)).to_json()
    assert d["group"] == "USp(4)"
    assert d["exact"] == {"q": "8/3", "pi_pow": 6, "sqrt": 1}
    assert d["exact_str"] == "8/3 * pi^6"


@pytest.mark.parametrize("tag,n", [("A", 30), ("B", 30), ("C", 30),
                                   ("D", 30)])
def test_volume_reads_no_dense_roots(monkeypatch, tag, n):
    # the pipeline works on (N, 2, 2) root sets; only the rank-many
    # simple coroots are made dense, for the torus volume, so a dense
    # positive root or coroot set on the volume path fails this
    import lievol.roots

    s = Series(tag, n)
    dense = lievol.roots.dense
    made = []

    def small_dense(roots, dim):
        assert len(roots) <= s.rank, "dense root set built"
        made.append(len(roots))
        return dense(roots, dim)

    monkeypatch.setattr(lievol.roots, "dense", small_dense)
    assert group_volume(s).exact == closed_form_volume(s)
    assert made == [s.rank]
