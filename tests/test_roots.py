from fractions import Fraction

import numpy as np
import pytest

from lievol.exact import ExactScalar
from lievol.roots import (Series, build_root_system, coroot_norm_product,
                          coroots, dense, norms, root_system_json,
                          torus_volume)


def ES(q, k=0, s=1):
    return ExactScalar(Fraction(q), k, s)


def vector(dim, terms):
    v = [0] * dim
    for i, c in terms:
        v[i] += c
    return v


def root_set(*roots):
    """An (N, 2, 2) root set from roots of one or two (index, coefficient)
    terms, in the plain C layout (build_root_system's sets are not)."""
    return np.array([[[t[0][0], t[-1][0]],
                      [t[0][1], t[1][1] if len(t) == 2 else 0]]
                     for t in roots], dtype=np.int64).reshape(-1, 2, 2)


def dense_dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def dense_roots(tag, n):
    """(simple, positive, coroots) as dense integer vectors, enumerated
    directly in Z^n: the reference for the root sets."""
    def e(*terms):
        return vector(n, terms)

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
        pairing = (dense(rs.coroots, n) * dense(rs.positive_roots, n)).sum(1)
        assert pairing.tolist() == [2] * len(rs.positive_roots)

    def test_long_short(self):
        # B short roots e_i have coroot 2 e_i; C long roots 2 e_i have
        # coroot e_i
        rs_b = build_root_system(Series("B", 2))
        assert sorted(norms(rs_b.coroots).tolist()) == [2, 2, 4, 4]
        rs_c = build_root_system(Series("C", 2))
        assert sorted(norms(rs_c.coroots).tolist()) == [1, 1, 2, 2]

    @pytest.mark.parametrize("tag,n", [("B", 3), ("C", 3), ("B", 5),
                                       ("C", 5)])
    def test_records_mixed_lengths(self, tag, n):
        # long and short roots side by side, in one concatenated set:
        # norms, coroots and inner products agree with the dense vectors
        rs = build_root_system(Series(tag, n))
        roots = np.concatenate((rs.simple_roots, rs.positive_roots))
        vecs = dense(roots, n).tolist()
        assert len(set(norms(roots).tolist())) == 2
        assert norms(roots).tolist() == [dense_dot(v, v) for v in vecs]
        assert dense(coroots(roots), n).tolist() == [
            [2 * x // dense_dot(v, v) for x in v] for v in vecs]
        gram = dense(roots, n) @ dense(roots, n).T
        assert gram.tolist() == [[dense_dot(v, w) for w in vecs]
                                 for v in vecs]

    def test_record_examples(self):
        short, long = [(1, 1)], [(1, 2)]
        mixed, other = [(0, 1), (1, -1)], [(0, 1), (2, 1)]
        roots = root_set(mixed, short, long, other)
        assert dense(roots, 3).tolist() == [[1, -1, 0], [0, 1, 0],
                                            [0, 2, 0], [1, 0, 1]]
        gram = dense(roots, 3) @ dense(roots, 3).T
        assert gram[0, 1] == -1 and gram[0, 2] == -2 and gram[2, 0] == -2
        assert gram[1, 3] == 0
        assert norms(roots).tolist() == [2, 1, 4, 2]
        assert coroots(roots).tolist() == root_set(mixed, long, short,
                                                   other).tolist()
        with pytest.raises(ArithmeticError):
            coroots(root_set([(0, 3)]))
        with pytest.raises(ArithmeticError):
            coroots(root_set(mixed, [(0, 1), (1, 2)]))

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
        cr = dense(build_root_system(Series(tag, n)).simple_coroots, n)
        gram = (cr @ cr.T).astype(float)
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
    simple, positive, coroot_vecs = dense_roots(tag, n)
    d = root_system_json(build_root_system(Series(tag, n)))

    def strs(vs):
        return [[str(x) for x in v] for v in vs]

    assert d["ambient_dim"] == n
    assert d["simple_roots"] == strs(simple)
    assert d["positive_roots"] == strs(positive)
    assert d["coroots"] == strs(coroot_vecs)


@pytest.mark.parametrize("tag,n", ALL_SERIES)
def test_arrays_equal_dense_reference(tag, n):
    # every set as an (N, 2, 2) int64 array equals the dense enumeration;
    # each coroot is integral and pairs to 2 with its root
    simple, positive, coroot_vecs = dense_roots(tag, n)
    rs = build_root_system(Series(tag, n))
    for roots in (rs.simple_roots, rs.positive_roots, rs.coroots,
                  rs.simple_coroots):
        assert roots.dtype == np.int64 and roots.shape[1:] == (2, 2)
    assert dense(rs.simple_roots, n).tolist() == simple
    assert dense(rs.positive_roots, n).tolist() == positive
    assert dense(rs.coroots, n).tolist() == coroot_vecs
    assert dense(rs.simple_coroots, n).tolist() == [
        [2 * x // dense_dot(a, a) for x in a] for a in simple]
    assert norms(rs.positive_roots).tolist() == [dense_dot(a, a)
                                                 for a in positive]
    assert norms(rs.coroots).tolist() == [dense_dot(c, c)
                                          for c in coroot_vecs]
    assert all(dense_dot(c, a) == 2 for c, a in zip(coroot_vecs, positive))

