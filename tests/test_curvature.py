import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from lievol.curvature import (CLAIMED_CHI, LEVY_MAX_INDEX, LEVY_MIN_INDEX,
                              MAX_MATRIX_DIM,
                              TRACE_FORM_INDEX, LieAlgebraBasis,
                              StructureTensor, _match, _sort, _summed,
                              build_basis, check_orthonormal,
                              chi_coefficient, curvature_report,
                              killing_form, rescaled_levy_check,
                              ricci_bound_sequence, ricci_tensor, so_basis,
                              structure_constants, su_basis, usp_basis)

# Basis size of each algebra at matrix size m (usp: m = 2n).
ALGEBRA_DIM = {"su": lambda m: m * m - 1, "so": lambda m: m * (m - 1) // 2,
               "usp": lambda m: m * (m + 1) // 2}

# every size the dense route below runs in well under a second
TIER1_SIZES = ([("su", m) for m in range(2, 13)]
               + [("so", m) for m in range(3, 17)]
               + [("usp", m) for m in range(4, 17, 2)])


def dense(coo, shape):
    """The dense array of `shape` with coo.value at the COO rows coo.index
    (the (d, m, m) basis stack, or the (d, d, d) c[i, j, k]), or with the
    values at the flat keys of a (keys, values, ...) tuple (K or Ric)."""
    if isinstance(coo, tuple):
        index, value = np.unravel_index(coo[0], shape), coo[1]
    else:
        index, value = tuple(coo.index.T), coo.value
    out = np.zeros(shape, dtype=value.dtype)
    out[index] = value
    return out


def killing_ricci(alg, m):
    """The structure tensor, and K and Ric as dense (d, d) arrays."""
    st = structure_constants(build_basis(alg, m))
    K = killing_form(st)
    return st, dense(K, (st.dim,) * 2), dense(ricci_tensor(st, K),
                                              (st.dim,) * 2)


def riemann_tensor(st):
    """R^k_jlm = 1/4 sum_s c_lm^s c_js^k, dense (8 d^4 bytes)."""
    c = dense(st, (st.dim,) * 3)
    return 0.25 * np.einsum("lms,jsk->kjlm", c, c)


def dense_structure_constants(basis):
    """The dense second route: c as (d, d, d) from complex gemms.

    For each block of i, all pair products T_i T_j and T_j T_i as
    (b m, m) @ (m, d m) and (d m, m) @ (m, b m), then t_ijk =
    Tr(T_i T_j T_k) and t_jik as (b d, m^2) @ (m^2, d) against the
    transposed basis; c_ijk = -1/2 Re(t_ijk - t_jik).  Each block's pair
    products take about 8 MiB, so the peak stays near the result's size.
    """
    d, m = basis.dim, basis.matrix_dim
    B = dense(basis, (d, m, m))
    # Tr(P T_k) = sum_{a,c} P[a, c] T_k[c, a]
    Bt = B.transpose(2, 1, 0).reshape(m * m, d)
    c = np.empty((d, d, d))
    step = max(1, 2 ** 23 // (16 * d * m * m))
    for i in range(0, d, step):
        Bi = B[i:i + step]
        b = len(Bi)
        # ij[i, a, j, c] = (T_i T_j)[a, c], ji[j, a, i, c] = (T_j T_i)[a, c]
        ij = Bi.reshape(b * m, m) @ B.transpose(1, 0, 2).reshape(m, d * m)
        ji = B.reshape(d * m, m) @ Bi.transpose(1, 0, 2).reshape(m, b * m)
        ij = ij.reshape(b, m, d, m).transpose(0, 2, 1, 3).reshape(b * d,
                                                                  m * m)
        ji = ji.reshape(d, m, b, m).transpose(2, 0, 1, 3).reshape(b * d,
                                                                  m * m)
        block = -0.5 * ((ij @ Bt).real - (ji @ Bt).real)
        block[np.abs(block) < 1e-12] = 0.0
        c[i:i + b] = block.reshape(b, d, d)
    return c


def jacobi_residual(st, samples=10_000, seed=0):
    """Max |Jacobi identity| over random index triples, from the COO form.

    For each triple (i, j, k) and every l, sums c_ij^m c_mk^l and its two
    cyclic shifts.
    """
    d = st.dim
    rng = np.random.default_rng(seed)
    i, j, k = rng.integers(0, d, size=(3, samples))
    a, b, c = st.index.T
    pair = _sort(a * d + b)               # keys of the rows c[a, b, :]
    keys, vals = [], []
    for x, y, z in ((i, j, k), (j, k, i), (k, i, j)):
        s, e1 = _match(x * d + y, pair)           # c[x, y, m]
        t, e2 = _match(c[e1] * d + z[s], pair)    # c[m, z, l]
        keys.append(s[t] * d + c[e2])
        vals.append(st.value[e1][t] * st.value[e2])
    _, total = _summed(np.concatenate(keys), np.concatenate(vals))
    return float(np.max(np.abs(total), initial=0.0))


def match_reference(left, right):
    """Every (l, r) with left[l] == right[r]: l ascending, then r in the
    stable sorted order of right."""
    ranked = sorted(range(len(right)), key=lambda r: right[r])
    return [(l, r) for l in range(len(left)) for r in ranked
            if left[l] == right[r]]


def summed_reference(keys, values):
    """(key, sum) per distinct key, ascending; each sum left to right."""
    sums = {}
    for k, v in zip(keys.tolist(), values.tolist()):
        sums[k] = sums.get(k, 0.0) + v
    return sorted(sums.items())


# int64 keys from a range of 1, 3, 10 or 2^62 values, so that duplicates
# run from every key equal to almost none
key_arrays = hs.sampled_from([0, 2, 9, 2 ** 62]).flatmap(
    lambda top: hs.lists(hs.integers(0, top), max_size=40)).map(
    lambda x: np.array(x, np.int64))
EDGE_CASES = {
    "empty left": ([], [3, 1, 3]),
    "empty right": ([3, 1], []),
    "both empty": ([], []),
    "no match": ([0, 2, 4], [1, 3, 5, 7]),
    "every key equal": ([5] * 4, [5] * 6),
    "heavy duplicates": ([2, 0, 2, 1, 2, 7, 0], [2, 2, 0, 9, 2, 0, 1, 2]),
}


class TestJoinHelpers:
    # the chain and the Jacobi oracle both rest on _match and _summed,
    # so both are checked here against plain Python
    @pytest.mark.parametrize("left,right", EDGE_CASES.values(),
                             ids=EDGE_CASES.keys())
    def test_match_edge_cases(self, left, right):
        left, right = np.array(left, np.int64), np.array(right, np.int64)
        li, ri = _match(left, _sort(right))
        assert list(zip(li.tolist(), ri.tolist())) == match_reference(
            left.tolist(), right.tolist())

    @settings(deadline=None)
    @given(left=key_arrays, right=key_arrays)
    def test_match_is_the_ordered_pair_list(self, left, right):
        li, ri = _match(left, _sort(right))
        assert list(zip(li.tolist(), ri.tolist())) == match_reference(
            left.tolist(), right.tolist())

    @settings(deadline=None)
    @given(data=hs.data(), keys=key_arrays)
    def test_summed_sums_each_key_left_to_right(self, data, keys):
        # magnitudes 1e-8 to 1e8, so a changed order changes the bits
        values = np.array(data.draw(hs.lists(
            hs.floats(-1e8, 1e8, allow_nan=False), min_size=keys.size,
            max_size=keys.size)), float)
        uniq, sums = _summed(keys, values)
        want = summed_reference(keys, values)
        assert uniq.tolist() == [k for k, _ in want]
        assert np.array_equal(sums.view(np.int64), np.array(
            [v for _, v in want], float).view(np.int64))

    def test_summed_keeps_the_input_order_of_duplicates(self):
        # (1e16 + 1) - 1e16 is 0 and 1e16 - 1e16 + 1 is 1
        keys = np.array([4, 4, 4, 1])
        uniq, sums = _summed(keys, np.array([1e16, 1.0, -1e16, 2.0]))
        assert uniq.tolist() == [1, 4]
        assert sums.tolist() == [2.0, 0.0]
        assert _summed(keys, np.array([1e16, -1e16, 1.0, 2.0]))[1].tolist() \
            == [2.0, 1.0]

    @settings(deadline=None)
    @given(keys=hs.sampled_from([9, 2 ** 40, 2 ** 63 - 1]).flatmap(
        lambda top: hs.lists(hs.integers(-top - 1, top), max_size=40)))
    def test_sort_is_the_stable_argsort(self, keys):
        # packed where key and position fit in an int64, else argsort:
        # the same order either way
        keys = np.array(keys, np.int64)
        ordered, order = _sort(keys)
        want = np.argsort(keys, kind="stable")
        assert np.array_equal(order, want)
        assert np.array_equal(ordered, keys[want])

    @pytest.mark.parametrize("n", [2, 3, 40, 1000])
    def test_sort_at_the_packing_bound(self, n):
        # keys at the largest magnitudes that pack, then one key past
        # them, which takes the argsort
        bound = 1 << (63 - (n - 1).bit_length())
        rng = np.random.default_rng(n)
        inside = rng.choice(np.array([-bound, 1 - bound, -1, 0, bound - 2,
                                      bound - 1]), n)
        for keys in (inside, np.append(inside[1:], bound),
                     np.append(inside[1:], -bound - 1)):
            want = np.argsort(keys, kind="stable")
            ordered, order = _sort(keys)
            assert np.array_equal(order, want)
            assert np.array_equal(ordered, keys[want])

    @pytest.mark.parametrize("alg,m", [("su", 5), ("so", 7), ("usp", 8)])
    def test_shared_order_is_the_sort_of_jk(self, alg, m):
        st = structure_constants(build_basis(alg, m))
        _, j, k = st.index.T
        jk = j * st.dim + k
        want = np.argsort(jk, kind="stable")
        assert np.array_equal(st.jk_sorted[0], jk[want])
        assert np.array_equal(st.jk_sorted[1], want)
        assert st.jk_sorted is st.jk_sorted      # sorted once per tensor


class TestBases:
    def test_dimensions(self):
        assert su_basis(4).dim == 15
        assert so_basis(7).dim == 21
        assert usp_basis(4).dim == 10
        assert usp_basis(6).dim == 21

    @pytest.mark.parametrize("alg,m", [("su", m) for m in range(2, 13)]
                             + [("so", m) for m in range(3, 17)]
                             + [("usp", m) for m in range(4, 17, 2)])
    def test_orthonormal(self, alg, m):
        assert check_orthonormal(build_basis(alg, m)) < 1e-12

    def test_non_orthonormal_refused(self):
        b = su_basis(3)
        e = b.index[:, 0]
        # scaled by 1.01; the first element zeroed; the first element
        # twice, in place of the last
        for index, value in ((b.index, 1.01 * b.value),
                             (b.index[e > 0], b.value[e > 0]),
                             (np.concatenate([b.index[e == 0],
                                              b.index[e < b.dim - 1]
                                              + [1, 0, 0]]),
                              np.concatenate([b.value[e == 0],
                                              b.value[e < b.dim - 1]]))):
            with pytest.raises(ValueError, match="orthonormal"):
                check_orthonormal(LieAlgebraBasis("su", 3, b.dim, index,
                                                  value))

    @pytest.mark.parametrize("label", ["H_1", "S_1,2", "A_2,3", "missing"])
    def test_non_antihermitian_refused(self, monkeypatch, label):
        # c_ijk = -Re t_ijk needs T^dagger = -T: one element made
        # Hermitian (times -i), or one entry of A_1,3 dropped, is refused
        # before any sum is taken, so before any structure constant
        import lievol.curvature

        def no_sum(*args):
            raise AssertionError("summed a non-anti-Hermitian basis")

        b = su_basis(3)
        e = b.index[:, 0]
        index, value = b.index, b.value.copy()
        if label == "missing":
            keep = np.arange(e.size) != np.flatnonzero(
                e == b.labels.index("A_1,3"))[0]
            index, value = index[keep], value[keep]
        else:
            value[e == b.labels.index(label)] *= -1j
        monkeypatch.setattr(lievol.curvature, "_summed", no_sum)
        with pytest.raises(ValueError, match="anti-Hermitian"):
            structure_constants(LieAlgebraBasis("su", 3, b.dim, index,
                                                value))

    @pytest.mark.parametrize("alg,m", TIER1_SIZES)
    def test_coo_is_the_nonzeros_of_the_dense_view(self, alg, m):
        b = build_basis(alg, m)
        T = dense(b, (b.dim, m, m))
        assert np.array_equal(np.stack(np.nonzero(T)), b.index.T)
        assert np.array_equal(T[tuple(b.index.T)], b.value)

    def test_antihermitian_traceless(self):
        for alg, m in (("su", 5), ("usp", 6)):
            b = build_basis(alg, m)
            for T in dense(b, (b.dim, m, m)):
                assert np.max(np.abs(T + T.conj().T)) < 1e-14
                assert abs(np.trace(T)) < 1e-14

    @pytest.mark.parametrize("alg,m", [("su", 5), ("so", 7), ("usp", 8)])
    def test_algebra_dim(self, alg, m):
        assert ALGEBRA_DIM[alg](m) == build_basis(alg, m).dim

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            su_basis(1)
        with pytest.raises(ValueError):
            usp_basis(5)  # odd size
        with pytest.raises(ValueError):
            build_basis("g2", 7)


class TestStructureConstants:
    def test_su2_table(self):
        st = structure_constants(su_basis(2))
        # [H, S] = 2A, [H, A] = -2S, [S, A] = 2H in this normalisation
        assert st.index.tolist() == [[0, 1, 2], [0, 2, 1], [1, 0, 2],
                                     [1, 2, 0], [2, 0, 1], [2, 1, 0]]
        assert st.value.tolist() == [-2.0, 2.0, 2.0, -2.0, -2.0, 2.0]

    def test_su3_spot(self):
        b = su_basis(3)
        st = structure_constants(b)
        i = b.labels.index("A_1,2")
        j = b.labels.index("A_1,3")
        k = b.labels.index("A_2,3")
        assert dense(st, (st.dim,) * 3)[i, j, k] == pytest.approx(-1.0,
                                                                   abs=1e-12)

    def test_usp4_spot(self):
        b = usp_basis(4)
        st = structure_constants(b)
        c = dense(st, (st.dim,) * 3)
        assert c[b.labels.index("H_1"), b.labels.index("T_1"),
                 b.labels.index("U_1")] == pytest.approx(-2.0, abs=1e-12)

    @pytest.mark.parametrize("alg,m", [("su", 4), ("so", 6), ("usp", 6)])
    def test_totally_antisymmetric(self, alg, m):
        st = structure_constants(build_basis(alg, m))
        c = dense(st, (st.dim,) * 3)
        assert np.max(np.abs(c + c.transpose(1, 0, 2))) < 1e-12
        assert np.max(np.abs(c + c.transpose(0, 2, 1))) < 1e-12

    @pytest.mark.parametrize("alg,m", [("su", 4), ("so", 6), ("usp", 6)])
    def test_per_triple_oracle(self, alg, m):
        # a second route, one commutator trace per index triple
        b = build_basis(alg, m)
        c = dense(structure_constants(b), (b.dim,) * 3)
        T = dense(b, (b.dim, m, m))
        want = np.array([[[-0.5 * np.trace((Ti @ Tj - Tj @ Ti) @ Tk).real
                           for Tk in T] for Tj in T] for Ti in T])
        assert np.max(np.abs(c - want)) < 1e-13

    @pytest.mark.parametrize("alg,m", [("su", 5), ("so", 7), ("usp", 8)])
    def test_jacobi(self, alg, m):
        st = structure_constants(build_basis(alg, m))
        assert jacobi_residual(st) < 1e-10


class TestDenseOracle:
    # su(16) only here: its (d, d, d) array is 133 MB, about 2 s in all
    @pytest.mark.parametrize("alg,m", TIER1_SIZES + [("su", 16)])
    def test_sparse_chain_matches_dense(self, alg, m):
        b = build_basis(alg, m)
        st = structure_constants(b)
        want = dense_structure_constants(b)
        # the dense c is st.value at the (distinct) rows st.index and 0
        # elsewhere: its nonzeros are want's, and c - want is at most
        # 1e-12, read at those rows, so no second (d, d, d) array is built
        at = want[tuple(st.index.T)]
        assert np.count_nonzero(want) == at.size and np.all(at != 0)
        assert np.max(np.abs(at - st.value)) < 1e-12
        # K_ab = sum_{k,l} c_akl c_blk over blocks of b, and
        # 4 Ric_ab = sum_{k,s} c_ask c_kbs over blocks of k, so each
        # transposed copy that tensordot makes is a block of want
        d = st.dim
        K_want, ric = np.empty((d, d)), np.zeros((d, d))
        for lo in range(0, d, 16):
            block = slice(lo, lo + 16)
            K_want[:, block] = np.tensordot(want, want[block],
                                            axes=([1, 2], [2, 1]))
            ric += np.tensordot(want[:, :, block], want[block],
                                axes=([1, 2], [2, 0]))
        ric *= 0.25
        K = killing_form(st)
        assert np.max(np.abs(dense(K, (d, d)) - K_want)) < 1e-12
        assert np.max(np.abs(dense(ricci_tensor(st, K), (d, d))
                             - ric)) < 1e-12

    def test_coo_rows_are_sorted_and_distinct(self):
        st = structure_constants(usp_basis(8))
        keys = (st.index[:, 0] * st.dim + st.index[:, 1]) * st.dim \
            + st.index[:, 2]
        assert np.all(np.diff(keys) > 0)
        assert np.all(st.value != 0)


class TestPastTheDenseSizes:
    # sizes the dense route cannot reach: su(32)'s dense chain needed
    # 34 GiB, and its (d, d, d) tensor alone 8 GiB; at usp(64) (d = 2080)
    # the joins take most of the time
    @pytest.mark.parametrize("alg,m,chi_prime", [
        ("su", 32, 4 * 32), ("so", 48, 2 * (48 - 2)),
        ("usp", 48, 2 * (48 + 2)), ("usp", 64, 2 * (64 + 2))])
    def test_chain_runs(self, alg, m, chi_prime):
        st = structure_constants(build_basis(alg, m))
        K = killing_form(st)
        ric = dense(ricci_tensor(st, K), (st.dim,) * 2)
        assert chi_coefficient(st, K).chi_prime == pytest.approx(
            chi_prime, abs=1e-9)
        assert np.max(np.abs(ric + 0.25 * dense(K, ric.shape))) < 1e-10
        assert jacobi_residual(st) < 1e-10


class TestKillingAndChi:
    def test_so5_killing(self):
        K = killing_ricci("so", 5)[1]
        assert np.max(np.abs(K + 6 * np.eye(10))) < 1e-10

    def test_usp4_killing(self):
        K = killing_ricci("usp", 4)[1]
        assert np.max(np.abs(K + 12 * np.eye(10))) < 1e-10

    @pytest.mark.parametrize("m,chi", [(3, 1.0), (5, 3.0), (8, 6.0),
                                       (12, 10.0), (16, 14.0)])
    def test_chi_so(self, m, chi):
        st = structure_constants(so_basis(m))
        cv = chi_coefficient(st, killing_form(st))
        assert cv.chi == pytest.approx(chi, abs=1e-10)
        assert cv.chi_prime == pytest.approx(2 * chi, abs=1e-10)

    @pytest.mark.parametrize("m,chi", [(4, 6.0), (6, 8.0), (10, 12.0),
                                       (16, 18.0)])
    def test_chi_usp(self, m, chi):
        st = structure_constants(usp_basis(m))
        cv = chi_coefficient(st, killing_form(st))
        assert cv.chi == pytest.approx(chi, abs=1e-10)

    @pytest.mark.parametrize("m", [*range(2, 9), 12])
    def test_chi_su_adjoint_trace(self, m):
        # the adjoint-trace value is 2m; it disagrees with the tabulated
        # m + 2 for m > 2, and the report records both
        st = structure_constants(su_basis(m))
        cv = chi_coefficient(st, killing_form(st))
        assert cv.chi == pytest.approx(2.0 * m, abs=1e-10)
        assert cv.chi_prime == pytest.approx(2 * cv.chi, abs=1e-10)

    def test_claimed_chi_table(self):
        assert CLAIMED_CHI["so"](9) == 7
        assert CLAIMED_CHI["usp"](8) == 10
        assert CLAIMED_CHI["su"](4) == 6


class TestRiemannRicci:
    def test_su2_sectional_value(self):
        R = riemann_tensor(structure_constants(su_basis(2)))
        assert R[0, 1, 0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_riemann_antisymmetry(self):
        R = riemann_tensor(structure_constants(su_basis(3)))
        assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) < 1e-12

    @pytest.mark.parametrize("alg,m", [("su", 4), ("so", 6), ("usp", 6),
                                       ("su", 12), ("so", 16),
                                       ("usp", 16)])
    def test_ricci_is_minus_quarter_killing(self, alg, m):
        _, K, ric = killing_ricci(alg, m)
        assert np.max(np.abs(ric + 0.25 * K)) < 1e-10

    def test_so6_usp4_ricci_values(self):
        for alg, m, value in (("so", 6, 2), ("usp", 4, 3)):
            st, _, ric = killing_ricci(alg, m)
            assert np.max(np.abs(ric - value * np.eye(st.dim))) < 1e-10

    @pytest.mark.parametrize("alg,m", TIER1_SIZES)
    def test_lower_bound_is_the_least_eigenvalue(self, alg, m):
        # Gershgorin's bound against the dense eigenvalue route
        rep = curvature_report(alg, m)
        least = np.min(np.linalg.eigvalsh(dense(rep.ricci, (rep.dim,) * 2)))
        assert abs(rep.ricci_lower_bound - least) < 1e-12

    def test_lower_bound_of_a_non_scalar_ricci(self, monkeypatch):
        # Ric is scalar for every algebra here, so the off-diagonal part
        # of the bound is checked on a stand-in: row bounds 1.5, 2.25, 0.75
        import lievol.curvature
        ric = np.array([[2.0, 0.5, 0.0], [0.5, 3.0, -0.25],
                        [0.0, -0.25, 1.0]])
        keys = np.flatnonzero(ric)
        monkeypatch.setattr(lievol.curvature, "ricci_tensor",
                            lambda st, K: (keys, ric.flat[keys], 0.0))
        bound = curvature_report("su", 2).ricci_lower_bound
        assert bound == 0.75
        assert bound < np.min(np.linalg.eigvalsh(ric))

    @pytest.mark.parametrize("alg,m", [("su", 5), ("so", 7), ("usp", 8)])
    def test_report_reads_no_dense_basis(self, monkeypatch, alg, m):
        # the basis has no dense view; one put back and read on the
        # report's path fails this
        def no_dense(self):
            raise AssertionError("dense basis built")

        monkeypatch.setattr(LieAlgebraBasis, "elements", property(no_dense),
                            raising=False)
        assert curvature_report(alg, m).chi_prime == pytest.approx(
            2 * TRACE_FORM_INDEX[alg](m), abs=1e-9)

    def test_report(self):
        rep = curvature_report("so", 6)
        assert rep.dim == 15
        assert rep.ricci_lower_bound == pytest.approx(2.0, abs=1e-10)
        d = rep.to_json()
        assert d["chi_claimed"] == 4.0
        assert d["chi_matches_claimed"]


class TestKillingPassedDown:
    @pytest.mark.parametrize("alg,m", [("su", 5), ("so", 7), ("usp", 8)])
    def test_one_flipped_entry_is_caught(self, alg, m):
        st = structure_constants(build_basis(alg, m))
        value = st.value.copy()
        value[len(value) // 2] *= -1
        bad = StructureTensor(st.algebra, st.matrix_dim, st.dim, st.index,
                              value)
        with pytest.raises(ArithmeticError, match="trace-form"):
            killing_form(bad)

    def test_wrong_killing_is_caught(self):
        st = structure_constants(so_basis(5))
        keys, vals = killing_form(st)
        with pytest.raises(ArithmeticError, match="-K/4"):
            ricci_tensor(st, K=(keys, 2 * vals))
        # K + 1.0 at (0, 1) and (1, 0)
        off = _summed(np.concatenate([keys, [1, st.dim]]),
                      np.concatenate([vals, [1.0, 1.0]]))
        with pytest.raises(ArithmeticError, match="not scalar"):
            chi_coefficient(st, K=off)


class Joined(Exception):
    pass


def no_join(monkeypatch):
    """Make the first index join raise Joined: a request that gets this
    far was admitted by the budget."""
    import lievol.curvature

    def joined(*args):
        raise Joined

    monkeypatch.setattr(lievol.curvature, "_match", joined)


def first_join(alg, m):
    """Matches of a first join over all pairs i, j, from the basis's
    L[a, b], the number of entries at (a, b); structure_constants joins
    the pairs i < j alone."""
    b = build_basis(alg, m)
    L = np.bincount(b.index[:, 1] * m + b.index[:, 2],
                    minlength=m * m).reshape(m, m)
    return int(L.sum(0) @ L.sum(1))


class TestDenseBudget:
    # MAX_MATRIX_DIM is the budget; no (d, d) array is built
    @pytest.mark.parametrize("alg,m", [("su", 20), ("so", 30), ("usp", 30),
                                       ("su", 81), ("so", 224),
                                       ("usp", 122), ("su", 93),
                                       ("so", 262), ("usp", 144)])
    def test_admitted_past_the_dense_chain(self, monkeypatch, alg, m):
        # up to the largest admitted size of each algebra, past the
        # largest that the full i != j join admitted (su 81, so 224,
        # usp 122)
        no_join(monkeypatch)
        with pytest.raises(Joined):
            curvature_report(alg, m)

    @pytest.mark.parametrize("alg,m", [("su", 94), ("so", 263),
                                       ("usp", 146)])
    def test_oversize_refused(self, monkeypatch, alg, m):
        # the smallest refused sizes, refused before any join
        no_join(monkeypatch)
        with pytest.raises(ValueError, match="budget"):
            curvature_report(alg, m)

    @pytest.mark.parametrize("alg", ["su", "so", "usp"])
    def test_far_oversize_refused_before_the_basis(self, monkeypatch, alg):
        import lievol.curvature

        def no_basis(*args):
            raise AssertionError("basis built for an oversize request")

        monkeypatch.setattr(lievol.curvature, "build_basis", no_basis)
        with pytest.raises(ValueError, match="budget"):
            curvature_report(alg, 10 ** 4)

    @pytest.mark.parametrize("alg,m", [("su", 2), ("su", 7), ("so", 3),
                                       ("so", 9), ("usp", 4), ("usp", 10)])
    def test_only_the_half_join_is_built(self, monkeypatch, alg, m):
        # the first join pairs i < j only: half of its i != j pairs, with
        # sum_b c_b r_b - sum_e sum_b c_b(e) r_b(e) of them
        import lievol.curvature
        built = []
        pairs = lievol.curvature._pairs

        def counted(order, lo, n):
            built.append(int(n.sum()))
            return pairs(order, lo, n)

        monkeypatch.setattr(lievol.curvature, "_pairs", counted)
        b = build_basis(alg, m)
        e, r, c = b.index.T
        own = np.bincount(e * m + c, minlength=b.dim * m) @ np.bincount(
            e * m + r, minlength=b.dim * m)
        structure_constants(b)
        # check_orthonormal's join, then the two of structure_constants
        assert len(built) == 3
        assert built[1] == (first_join(alg, m) - own) // 2

    @pytest.mark.parametrize("builder,m", [(su_basis, 94), (so_basis, 263),
                                           (usp_basis, 146)])
    def test_entry_points_refuse_at_the_limit(self, builder, m):
        # the builders and build_basis refuse what curvature_report does
        alg = builder.__name__.split("_")[0]
        limit = f"budget: m <= {MAX_MATRIX_DIM[alg]}"
        with pytest.raises(ValueError, match=limit):
            builder(m)
        with pytest.raises(ValueError, match=limit):
            build_basis(alg, m)

    def test_no_dense_square_array(self):
        # so(96): one (d, d) float64 array, 166 MB, is more than the
        # chain's whole traced peak
        tracemalloc.start()
        try:
            rep = curvature_report("so", 96)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * rep.dim ** 2


class TestLevySequences:
    def test_su_default(self):
        assert ricci_bound_sequence("su", [10]) == [3.0]

    def test_su_coroot_rescaled(self):
        got = ricci_bound_sequence("su", [10], coroot_length=math.sqrt(10))
        assert got == pytest.approx([1.2])

    def test_so_usp(self):
        assert ricci_bound_sequence("so", [10]) == [2.0]
        assert ricci_bound_sequence("usp", [10]) == [5.5]

    @pytest.mark.parametrize("family", ["su", "so"])
    @pytest.mark.parametrize("length", [0.0, -2.0, math.nan])
    def test_coroot_length_must_be_positive(self, family, length):
        # 0 divided by zero and -2 squared to the bound of length 2
        with pytest.raises(ValueError, match="coroot length must be "
                                             "positive"):
            ricci_bound_sequence(family, [5], coroot_length=length)

    def test_coroot_rescale_su_only(self):
        with pytest.raises(ValueError):
            ricci_bound_sequence("so", [5], coroot_length=2.0)

    def test_bounds_are_the_parent_closed_forms(self):
        # the three per-family formulas, bit for bit, at the first 10^4
        # indices and at the last 8 whose float conversion is exact
        closed = {"su": lambda i: (i + 2) / 4.0, "so": lambda i: (i - 2) / 4.0,
                  "usp": lambda i: (i + 1) / 2.0}
        top = range(2 ** 53 - 7, 2 ** 53 + 1)
        for family, low in (("su", 2), ("so", 3), ("usp", 2)):
            for ns in (range(low, low + 10 ** 4), top):
                got = ricci_bound_sequence(family, ns)
                assert [x.hex() for x in got] == [
                    closed[family](i).hex() for i in ns]
        for length in (0.7, math.sqrt(10), 3.5):
            for ns in (range(2, 2 + 10 ** 4), top):
                got = ricci_bound_sequence("su", ns, coroot_length=length)
                assert [x.hex() for x in got] == [
                    ((i + 2) / length ** 2).hex() for i in ns]

    @pytest.mark.parametrize("family", ["su", "so", "usp"])
    def test_indices_end_at_2_to_the_53(self, family):
        # above 2^53 an index rounds on its way to a float: 2^53 + 1
        # gave the bound of 2^53, and 10^400 no float at all
        assert LEVY_MAX_INDEX == 2 ** 53
        assert len(ricci_bound_sequence(family, [LEVY_MAX_INDEX])) == 1
        for i in (LEVY_MAX_INDEX + 1, 10 ** 400):
            with pytest.raises(ValueError, match=r"end at 2\^53"):
                ricci_bound_sequence(family, [LEVY_MAX_INDEX, i])

    @pytest.mark.parametrize("length", [1e-170, 1e-162, 1.4e154, 1e160])
    def test_coroot_square_must_be_a_positive_float(self, length):
        # 1e-170 squared underflows to 0 and 1e160 squared overflows
        with pytest.raises(ValueError, match="no positive finite square"):
            ricci_bound_sequence("su", [5], coroot_length=length)

    @pytest.mark.parametrize("length", [1.6e-162, 1e-150, 1.3e154])
    def test_coroot_square_in_float_range(self, length):
        assert ricci_bound_sequence("su", [5], coroot_length=length)[0] > 0

    def test_unknown_family_is_named_first(self):
        for length in (None, -1.0, 2.0):
            with pytest.raises(ValueError, match="unknown family 'e8'"):
                ricci_bound_sequence("e8", [5], coroot_length=length)

    def test_rescaled_levy_pass(self):
        ns = list(range(3, 20))
        r = ricci_bound_sequence("so", ns)
        c = [float(n) for n in ns]
        ok, scaled = rescaled_levy_check(r, c, floor=0.2)
        assert ok
        assert scaled[0] == pytest.approx(3 * 0.25)

    def test_rescaled_levy_fails_without_divergence(self):
        r = [1.0, 1.0, 1.0]
        ok, _ = rescaled_levy_check(r, [1.0, 1.0, 1.0], floor=0.5)
        assert not ok

    def test_rescaled_levy_fails_below_floor(self):
        ok, _ = rescaled_levy_check([0.1, 0.1], [1.0, 2.0], floor=0.5)
        assert not ok

    @pytest.mark.parametrize("family,low", [("su", 2), ("so", 3),
                                            ("usp", 2)])
    def test_minimum_index(self, family, low):
        assert len(ricci_bound_sequence(family, [low])) == 1
        with pytest.raises(ValueError, match="start at index"):
            ricci_bound_sequence(family, [low - 1, low])

    @pytest.mark.parametrize("family,per_index", [("su", 1), ("so", 1),
                                                  ("usp", 2)])
    def test_minimum_index_is_the_smallest_basis(self, family, per_index):
        # the first index has a basis, the one before it none
        low = LEVY_MIN_INDEX[family]
        build_basis(family, per_index * low)
        with pytest.raises(ValueError, match="needs"):
            build_basis(family, per_index * (low - 1))
