from fractions import Fraction

import pytest

from lievol.exact import ExactScalar
from lievol.roots import (Series, build_root_system, coroot,
                          coroot_norm_product, dot, root_system_json,
                          torus_volume)


def ES(q, k=0, s=1):
    return ExactScalar(Fraction(q), k, s)


def dense(dim, rec):
    v = [0] * dim
    for i, c in rec:
        v[i] += c
    return v


def dense_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def dense_roots(tag, n):
    """(simple, positive, coroots) as dense integer vectors, enumerated
    directly in Z^n: the reference for the records."""
    def e(*terms):
        return dense(n, terms)

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    simple = [e((i, 1), (i + 1, -1)) for i in range(n - 1)]
    positive = [e((i, 1), (j, -1)) for i, j in pairs]
    if tag != "A":
        positive += [e((i, 1), (j, 1)) for i, j in pairs]
    if tag == "B":
        simple.append(e((n - 1, 1)))
        positive += [e((i, 1)) for i in range(n)]
    elif tag == "C":
        simple.append(e((n - 1, 2)))
        positive += [e((i, 2)) for i in range(n)]
    elif tag == "D":
        simple.append(e((n - 2, 1), (n - 1, 1)))
    coroots = []
    for a in positive:
        norm = dense_dot(a, a)
        assert all(2 * x % norm == 0 for x in a)
        coroots.append([2 * x // norm for x in a])
    return simple, positive, coroots


def det_bareiss(rows):
    """Exact determinant of a positive-definite integer matrix (Bareiss).

    Every leading minor of a positive-definite matrix is positive, so
    each pivot is nonzero and no row exchange is needed; each division
    by the previous pivot is exact.
    """
    m = [row[:] for row in rows]
    n = len(m)
    prev = 1
    for c in range(n - 1):
        piv = m[c][c]
        assert piv > 0, "Gram matrix is not positive definite"
        tail = m[c][c + 1:]
        for row in m[c + 1:]:
            f = row[c]
            row[c + 1:] = [(piv * a - f * b) // prev
                           for a, b in zip(row[c + 1:], tail)]
        prev = piv
    return m[n - 1][n - 1]


ALL_SERIES = [(t, n) for t in "ABCD" for n in range(2, 41)
              if not (t == "D" and n < 4)]


class TestSeries:
    def test_aliases(self):
        assert Series("su", 4).tag == "A"
        assert Series("spin-odd", 3).tag == "B"
        assert Series("usp", 2).tag == "C"
        assert Series("spin-even", 4).tag == "D"

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            Series("E", 8)

    def test_min_ranks(self):
        with pytest.raises(ValueError):
            Series("D", 3)
        with pytest.raises(ValueError):
            Series("A", 1)

    def test_names_and_dims(self):
        assert Series("A", 3).group_name == "SU(3)"
        assert Series("A", 3).group_dim == 8
        assert Series("B", 2).group_name == "Spin(5)"
        assert Series("B", 2).group_dim == 10
        assert Series("C", 3).group_name == "USp(6)"
        assert Series("C", 3).group_dim == 21
        assert Series("D", 4).group_name == "Spin(8)"
        assert Series("D", 4).group_dim == 28

    def test_rank(self):
        assert Series("A", 5).rank == 4
        assert Series("B", 5).rank == 5


class TestRootCounts:
    def test_examples(self):
        assert len(build_root_system(Series("A", 4)).positive_roots) == 6
        assert len(build_root_system(Series("B", 3)).positive_roots) == 9
        assert len(build_root_system(Series("C", 3)).positive_roots) == 9
        assert len(build_root_system(Series("D", 4)).positive_roots) == 12

    @pytest.mark.parametrize("tag", "ABCD")
    @pytest.mark.parametrize("n", range(2, 13))
    def test_count_identity(self, tag, n):
        if tag == "D" and n < 4:
            pytest.skip("below minimum rank")
        s = Series(tag, n)
        rs = build_root_system(s)
        assert 2 * len(rs.positive_roots) + s.rank == s.group_dim

    def test_degrees(self):
        assert build_root_system(Series("A", 4)).degrees == (2, 3, 4)
        assert build_root_system(Series("B", 3)).degrees == (2, 4, 6)
        assert build_root_system(Series("C", 2)).degrees == (2, 4)
        assert build_root_system(Series("D", 4)).degrees == (2, 4, 6, 4)


class TestCoroots:
    @pytest.mark.parametrize("tag,n", [("A", 4), ("B", 3), ("C", 3), ("D", 5)])
    def test_pairing_is_two(self, tag, n):
        rs = build_root_system(Series(tag, n))
        for alpha in rs.positive_roots:
            assert dot(coroot(alpha), alpha) == 2

    def test_long_short(self):
        # B short roots e_i have coroot 2 e_i; C long roots 2 e_i have
        # coroot e_i
        rs_b = build_root_system(Series("B", 2))
        norms_b = sorted(dot(cv, cv) for cv in rs_b.coroots)
        assert norms_b == [2, 2, 4, 4]
        rs_c = build_root_system(Series("C", 2))
        norms_c = sorted(dot(cv, cv) for cv in rs_c.coroots)
        assert norms_c == [1, 1, 2, 2]

    @pytest.mark.parametrize("tag,n", [("B", 3), ("C", 3), ("B", 5),
                                       ("C", 5)])
    def test_records_mixed_lengths(self, tag, n):
        # long and short roots side by side: dot and coroot on records
        # agree with the dense vectors
        rs = build_root_system(Series(tag, n))
        recs = rs.simple_roots + rs.positive_roots
        vecs = [dense(n, r) for r in recs]
        assert len({dot(r, r) for r in recs}) == 2
        for r, v in zip(recs, vecs):
            norm = dense_dot(v, v)
            assert dense(n, coroot(r)) == [2 * x // norm for x in v]
            for s, w in zip(recs, vecs):
                assert dot(r, s) == dense_dot(v, w)

    def test_record_examples(self):
        short, long = ((1, 1),), ((1, 2),)
        mixed = ((0, 1), (1, -1))
        assert dot(mixed, short) == -1
        assert dot(mixed, long) == -2
        assert dot(long, mixed) == -2
        assert dot(((0, 1), (2, 1)), ((1, 1),)) == 0
        assert coroot(short) == long
        assert coroot(long) == short
        assert coroot(mixed) is mixed
        with pytest.raises(ArithmeticError):
            coroot(((0, 3),))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_norm_products(self, n):
        assert coroot_norm_product(
            build_root_system(Series("A", n))) == ES(2 ** (n * (n - 1) // 2))
        assert coroot_norm_product(
            build_root_system(Series("B", n))) == ES(2 ** (n * n + n))
        assert coroot_norm_product(
            build_root_system(Series("C", n))) == ES(2 ** (n * n - n))
        if n >= 4:
            assert coroot_norm_product(
                build_root_system(Series("D", n))) == ES(2 ** (n * n - n))


class TestTorusVolume:
    @pytest.mark.parametrize("n", range(2, 41))
    def test_a_series(self, n):
        assert torus_volume(build_root_system(Series("A", n))) == ES(1, 0, n)

    @pytest.mark.parametrize("tag,val", [("B", 2), ("C", 1), ("D", 2)])
    @pytest.mark.parametrize("n", range(4, 41))
    def test_bcd_series(self, tag, val, n):
        assert torus_volume(build_root_system(Series(tag, n))) == ES(val)

    @pytest.mark.parametrize("tag,n", ALL_SERIES)
    def test_continuant_equals_bareiss(self, tag, n):
        # the dense Gram determinant of the simple coroots is the oracle
        cr = [[2 * x // dense_dot(a, a) for x in a]
              for a in dense_roots(tag, n)[0]]
        gram = [[dense_dot(u, v) for v in cr] for u in cr]
        assert torus_volume(build_root_system(Series(tag, n))) == \
            ExactScalar(1, 0, det_bareiss(gram))

    @pytest.mark.parametrize("tag,n", [("A", 5), ("B", 4), ("C", 4), ("D", 5)])
    def test_gram_positive_definite(self, tag, n):
        import numpy as np
        cr = build_root_system(Series(tag, n)).simple_coroots
        gram = np.array([[float(dot(u, v)) for v in cr] for u in cr])
        assert np.all(np.linalg.eigvalsh(gram) > 0)


def test_json_round_numbers():
    d = root_system_json(build_root_system(Series("B", 2)))
    assert d["group"] == "Spin(5)"
    assert d["rank"] == 2
    assert len(d["positive_roots"]) == 4
    assert d["torus_volume"] == {"q": "2/1", "pi_pow": 0, "sqrt": 1}


@pytest.mark.parametrize("tag,n", [(t, n) for t in "ABCD"
                                   for n in range(2, 13)
                                   if not (t == "D" and n < 4)])
def test_json_equals_dense_reference(tag, n):
    simple, positive, coroots = dense_roots(tag, n)
    d = root_system_json(build_root_system(Series(tag, n)))

    def strs(vs):
        return [[str(x) for x in v] for v in vs]

    assert d["ambient_dim"] == n
    assert d["simple_roots"] == strs(simple)
    assert d["positive_roots"] == strs(positive)
    assert d["coroots"] == strs(coroots)
