import inspect
import itertools
import math
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import stats

from lievol import montecarlo, reproduce
from lievol.cpn import band_complement_mass
from lievol.montecarlo import (CHUNK, ConcentrationReport, SamplerConfig,
                               concentration_experiment, ks_test,
                               sphere_band_mass, xi_histogram)
from lievol.roots import Series
from lievol.special import gauss_legendre, kolmogorov_sf


def symplectic_form(two_n):
    n = two_n // 2
    J = np.zeros((two_n, two_n))
    J[:n, n:] = np.eye(n)
    J[n:, :n] = -np.eye(n)
    return J


def sphere_band_mass_quadrature(m, r):
    """sphere_band_mass by quadrature of cos^(m-1) over the band."""
    def density(t):
        return np.cos(t) ** (m - 1)

    return (gauss_legendre(density, -r, r)
            / gauss_legendre(density, -math.pi / 2, math.pi / 2))


def cp_coordinate(g):
    """(|zeta_0|, xi) of the fiber point: first column as homogeneous rep."""
    mag = np.abs(g[..., 0, 0])
    return mag, np.arccos(np.clip(mag, 0.0, 1.0))


def chunks(count):
    """(index, size) of each chunk of a count-sample draw."""
    start = 0
    idx = 0
    while start < count:
        yield idx, min(CHUNK, count - start)
        start += CHUNK
        idx += 1


def householder_reduce(cols, first):
    """Map each `first` vector to e_1 and return the reduced second column.

    cols: (s, m) second columns; first: (s, m) unit vectors.  Returns
    (s, m-1) unit vectors, distributed uniformly and independently.
    """
    x = first.copy()
    s, m = x.shape
    e1 = np.zeros(m)
    e1[0] = 1.0
    sign = np.where(x[:, 0] >= 0, 1.0, -1.0)
    u = x + sign[:, None] * e1[None, :]
    u /= np.linalg.norm(u, axis=1)[:, None]
    # H v = v - 2 u (u.v); H maps x to -sign*e1 (orthogonal, fixed rule)
    v = cols - 2.0 * np.einsum("sa,sa->s", u, cols)[:, None] * u
    return v[:, 1:]


def equator_distance(coord):
    return np.arcsin(np.clip(np.abs(coord), 0.0, 1.0))


def cfg(tag, n, count=4096, seed=11, workers=1):
    return SamplerConfig(Series(tag, n), count=count, seed=seed,
                         workers=workers)


# -- the full-matrix samplers -----------------------------------------
# The second route of the program's column draw: whole Haar matrices,
# chunk by chunk on the same Philox streams and worker map.

def complex_gaussian(rng, shape):
    """Standard complex Gaussians, the real parts drawn first."""
    re = rng.standard_normal(shape)
    return (re + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def full_su_chunk(rng, size, m):
    """(size, m, m) Haar SU(m): QR of complex Gaussians, the phases of R's
    diagonal moved into Q, then the det phase divided out."""
    q, r = np.linalg.qr(complex_gaussian(rng, (size, m, m)))
    d = np.einsum("sii->si", r)
    q *= (d / np.abs(d))[:, None, :]
    q *= (np.linalg.det(q) ** (-1.0 / m))[:, None, None]
    return q


def full_so_chunk(rng, size, m):
    """(size, m, m) Haar SO(m): QR of real Gaussians, the signs of R's
    diagonal moved into Q, the det = -1 coset folded onto SO(m) by a
    fixed reflection."""
    q, r = np.linalg.qr(rng.standard_normal((size, m, m)))
    q *= np.sign(np.einsum("sii->si", r))[:, None, :]
    q[np.linalg.det(q) < 0, :, 0] *= -1.0
    return q


def usp_partner(v):
    """Quaternionic partner of complex columns (..., 2n)."""
    n = v.shape[-1] // 2
    out = np.empty_like(v)
    out[..., :n] = -np.conj(v[..., n:])
    out[..., n:] = np.conj(v[..., :n])
    return out


def full_usp_chunk(rng, size, two_n):
    """(size, 2n, 2n) Haar USp(2n): quaternion Gram-Schmidt on complex
    Gaussian columns j < n, each followed by its partner at j + n."""
    n = two_n // 2
    g = np.empty((size, two_n, two_n), complex)
    for j in range(n):
        v = complex_gaussian(rng, (size, two_n))
        for i in range(j):
            for w in (g[:, :, i], g[:, :, i + n]):
                v -= np.einsum("sa,sa->s", np.conj(w), v)[:, None] * w
        v /= np.linalg.norm(v, axis=1)[:, None]
        g[:, :, j] = v
        g[:, :, j + n] = usp_partner(v)
    return g


def matrix_size(tag, n):
    return {"A": n, "B": 2 * n + 1, "C": 2 * n, "D": 2 * n}[tag]


# the program's chunk map, kept for the full samplers while a test
# patches the module's name
MAP_CHUNKS = montecarlo._map_chunks


def full_sample(c, chunk, dtype):
    """(count, m, m) samples of chunk(rng, size, m), chunk by chunk."""
    m = matrix_size(c.series.tag, c.series.n)
    return MAP_CHUNKS(
        (c,), lambda rng, size, buffers: [chunk(rng, size, m)],
        [np.empty((c.count, m, m), dtype)])[0]


# The full samplers keep the names they had in the program, whose
# sample_* now return the scalars the statistics read.

def sample_su(c):
    return full_sample(c, full_su_chunk, complex)


def sample_so(c):
    return full_sample(c, full_so_chunk, float)


def sample_usp(c):
    return full_sample(c, full_usp_chunk, complex)


SAMPLERS = {"A": sample_su, "B": sample_so, "C": sample_usp, "D": sample_so}

# The program's draw: its sampler, its chunk function, the columns k it
# draws per sample and their dtype.
COLUMN_DRAW = {"A": (montecarlo.sample_su, montecarlo.haar_su_chunk, 1,
                     complex),
               "B": (montecarlo.sample_so, montecarlo.haar_so_chunk, 2,
                     float),
               "C": (montecarlo.sample_usp, montecarlo.haar_usp_chunk, 1,
                     complex),
               "D": (montecarlo.sample_so, montecarlo.haar_so_chunk, 2,
                     float)}


def chunk_fill(seed, i, size, m):
    """The normals a chunk function reads for `size` samples of m x m
    matrices: 2 size m of chunk i's stream."""
    return montecarlo._chunk_rng(seed, i).standard_normal(2 * size * m)


def gaussian_columns(tag, rng, size, m):
    """(size, m, k): Gram-Schmidt of an explicit Gaussian draw of the
    k columns the program's chunk draws on the stream `rng`."""
    k = COLUMN_DRAW[tag][2]
    z = (rng.standard_normal((size, m, k)) if tag in "BD"
         else complex_gaussian(rng, (size, m, k)))
    return montecarlo._gram_schmidt(z, montecarlo._Buffers())


def column_array(c):
    """The (count, m, k) columns the program's draw reduces, chunk by
    chunk on its streams."""
    tag = c.series.tag
    m = matrix_size(tag, c.series.n)
    return np.concatenate([
        gaussian_columns(tag, montecarlo._chunk_rng(c.seed, i), size, m)
        for i, size in chunks(c.count)])


def scalars_read(tag, g):
    """The scalars the program's sample_* return, read off g's columns."""
    if tag == "A":
        return np.abs(g[:, 0, :1])
    if tag == "C":
        return g[:, 0, :1].real
    return montecarlo._spin_coordinates(g)


class TestSamplers:
    def test_su_unitary_and_det(self):
        g = sample_su(cfg("A", 5, count=512))
        eye = np.eye(5)
        assert np.max(np.abs(g @ g.conj().transpose(0, 2, 1) - eye)) < 1e-12
        assert np.max(np.abs(np.linalg.det(g) - 1.0)) < 1e-12

    def test_so_orthogonal_special(self):
        g = sample_so(cfg("B", 3, count=512))
        assert g.shape == (512, 7, 7)
        eye = np.eye(7)
        assert np.max(np.abs(g @ g.transpose(0, 2, 1) - eye)) < 1e-12
        assert np.max(np.abs(np.linalg.det(g) - 1.0)) < 1e-10

    def test_so_even(self):
        g = sample_so(cfg("D", 4, count=256))
        assert g.shape == (256, 8, 8)
        assert np.max(np.abs(np.linalg.det(g) - 1.0)) < 1e-10

    def test_usp_unitary_symplectic(self):
        g = sample_usp(cfg("C", 3, count=256))
        eye = np.eye(6)
        assert np.max(np.abs(g @ g.conj().transpose(0, 2, 1) - eye)) < 1e-12
        J = symplectic_form(6)
        dev = np.max(np.abs(g.transpose(0, 2, 1) @ J @ g - J))
        assert dev < 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(Series("A", 3), count=0, seed=1)
        with pytest.raises(ValueError):
            SamplerConfig(Series("A", 3), count=10, seed=1, workers=0)
        # each seed in [0, 2^64) is its own Philox key
        for seed in (-1, 2 ** 64, 2 ** 64 + 1):
            with pytest.raises(ValueError, match="seed"):
                SamplerConfig(Series("A", 3), count=10, seed=seed)
        SamplerConfig(Series("A", 3), count=10, seed=2 ** 64 - 1)


class TestDeterminism:
    @pytest.mark.parametrize("sampler,tag,n",
                             [(sample_su, "A", 4), (sample_so, "B", 2),
                              (sample_usp, "C", 2)])
    def test_bit_identical_across_workers(self, sampler, tag, n):
        # count > CHUNK so multiple chunks are actually in flight
        a = sampler(cfg(tag, n, count=5000, seed=3, workers=1))
        b = sampler(cfg(tag, n, count=5000, seed=3, workers=4))
        assert a.tobytes() == b.tobytes()

    def test_seed_changes_stream(self):
        a = sample_su(cfg("A", 3, count=64, seed=1))
        b = sample_su(cfg("A", 3, count=64, seed=2))
        assert not np.allclose(a, b)


class TestColumnRoute:
    """The program's k-column draw: its own stream, the full route's law."""

    @pytest.mark.parametrize("tag,n", [("A", 6), ("A", 21), ("B", 2),
                                       ("D", 4)])
    def test_stream_oracle(self, tag, n):
        # a Spin chunk is Gram-Schmidt of an explicit (size, m, 2) draw,
        # an SU chunk the entry g_00 of that of a (size, m, 1) draw
        _, chunk, k, _ = COLUMN_DRAW[tag]
        size, m = 3000, matrix_size(tag, n)
        got = chunk(chunk_fill(31, 0, size, m), size, m,
                    montecarlo._Buffers())
        want = gaussian_columns(tag, montecarlo._chunk_rng(31, 0), size, m)
        gram = np.conj(want).transpose(0, 2, 1) @ want
        assert np.max(np.abs(gram - np.eye(k))) < 1e-12
        if tag == "A":
            want = want[:, 0, 0]
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tag,n", [("A", 6), ("A", 21), ("B", 2),
                                       ("D", 4)])
    def test_marginals_match_full_route(self, tag, n):
        # independent seeds: a two-sample test of each scalar read
        got = COLUMN_DRAW[tag][0](cfg(tag, n, count=10000, seed=34))
        full = scalars_read(tag, SAMPLERS[tag](cfg(tag, n, count=10000,
                                                   seed=35)))
        for a, b in zip(got.T, full.T):
            assert stats.ks_2samp(a, b).pvalue > 0.01

    @pytest.mark.parametrize("n", [2, 3])
    def test_usp_columns_bit_equal(self, n):
        # the quaternion fill's column 0 has no partner to project out
        c = cfg("C", n, count=3000, seed=32)
        full = sample_usp(c)
        assert column_array(c).tobytes() == full[:, :, :1].tobytes()
        assert montecarlo.sample_usp(c).tobytes() == \
            full[:, 0, :1].real.tobytes()

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_usp_draw_is_the_su_column_draw(self, n):
        # USp(2n) is transitive on the unit sphere of C^{2n}
        for i in range(3):
            usp, su = (chunk(chunk_fill(40, i, CHUNK, 2 * n), CHUNK, 2 * n,
                             montecarlo._Buffers())
                       for chunk in (montecarlo.haar_usp_chunk,
                                     montecarlo.haar_su_chunk))
            column = gaussian_columns("A", montecarlo._chunk_rng(40, i),
                                      CHUNK, 2 * n)
            assert usp.tobytes() == su.tobytes() == column[:, 0, 0].tobytes()

    def test_one_draw_route(self):
        # no optional parameter selects another route
        for sampler, chunk, _, _ in COLUMN_DRAW.values():
            for f in (sampler, chunk):
                params = inspect.signature(f).parameters.values()
                assert all(p.default is p.empty for p in params), f

    @pytest.mark.parametrize("tag,n", [("A", 4), ("B", 2), ("C", 2)])
    def test_bit_identical_across_workers(self, tag, n):
        sampler = COLUMN_DRAW[tag][0]
        count = CHUNK + 1000
        a = sampler(cfg(tag, n, count=count, seed=3))
        b = sampler(cfg(tag, n, count=count, seed=3, workers=4))
        assert a.tobytes() == b.tobytes()

    @staticmethod
    def _full_route_report(monkeypatch, c, r):
        # the same statistics read off the full matrices, put in at the
        # chunk map every draw goes through
        batches = []

        def full_route(cfgs, fn, outs):
            batches.append(cfgs)
            for one, out in zip(cfgs, outs):
                out[:] = scalars_read(one.series.tag,
                                      SAMPLERS[one.series.tag](one))
            return outs

        monkeypatch.setattr(montecarlo, "_map_chunks", full_route)
        rep = concentration_experiment(c, r)
        assert batches == [(c,)]   # the report read the full route
        return rep

    @pytest.mark.parametrize("tag,n,r", [("C", 3, 0.5)])
    def test_reports_match_full_samplers(self, monkeypatch, tag, n, r):
        c = cfg(tag, n, count=5000, seed=33)
        got = concentration_experiment(c, r)
        want = self._full_route_report(monkeypatch, c, r)
        assert got.empirical_mass == want.empirical_mass
        assert got.ks_statistic == pytest.approx(want.ks_statistic,
                                                 abs=1e-12)

    @pytest.mark.parametrize("tag,n,r", [("A", 6, 0.4), ("B", 2, 0.5),
                                         ("D", 4, 0.5)])
    def test_reports_agree_with_full_samplers(self, monkeypatch, tag, n, r):
        # two estimates of one band mass: their gap has stderr sqrt(2)*se
        c = cfg(tag, n, count=5000, seed=33)
        got = concentration_experiment(c, r)
        want = self._full_route_report(monkeypatch, c, r)
        gap = abs(got.empirical_mass - want.empirical_mass)
        assert gap < 4 * math.sqrt(2) * got.stderr


def column_array_report(c, r):
    """concentration_experiment's statistics read off whole (count, m, k)
    column arrays, as they were before each chunk was reduced."""
    series, n = c.series, c.series.n
    g = column_array(c)
    note = ""
    if series.tag == "A":
        _, xi = cp_coordinate(g)
        inside = math.pi / 2 - xi < r
        predicted = band_complement_mass(n - 1, r)
        base = f"CP^{n - 1} hyperplane at infinity"
        mag2 = np.sort(np.abs(g[:, 0, 0]) ** 2)
        stat, pval = ks_test(mag2, lambda s2: 1.0 - (1.0 - s2) ** (n - 1))
    elif series.tag in ("B", "D"):
        m = 2 * n + 1 if series.tag == "B" else 2 * n
        first = g[:, :, 0]
        second = householder_reduce(g[:, :, 1], first)
        inside = ((equator_distance(first[:, 0]) < r)
                  & (equator_distance(second[:, 0]) < r))
        predicted = sphere_band_mass(m - 1, r) * sphere_band_mass(m - 2, r)
        base = f"S^{m - 1} x S^{m - 2} bi-equator"
        samp = np.sort(np.abs(first[:, 0]))
        stat, pval = ks_test(samp,
                             lambda t: montecarlo._band_cdf(m - 1, t))
        note = ("sampling on SO(m); band statistics live on the base "
                "spheres and are unchanged under the double cover")
    else:
        coord = g[:, 0, 0].real
        inside = equator_distance(coord) < r
        predicted = sphere_band_mass(4 * n - 1, r)
        base = f"S^{4 * n - 1} equator"
        samp = np.sort(np.abs(coord))
        stat, pval = ks_test(samp,
                             lambda t: montecarlo._band_cdf(4 * n - 1, t))
    emp = float(np.mean(inside))
    stderr = math.sqrt(predicted * (1.0 - predicted) / c.count)
    return ConcentrationReport(
        series=series, n=n, r=r, count=c.count, seed=c.seed,
        empirical_mass=emp, predicted_mass=predicted, stderr=stderr,
        z_score=(emp - predicted) / stderr, ks_statistic=stat,
        ks_pvalue=pval, base_description=base, note=note)


class TestReducedRoute:
    """Each chunk reduced to its scalars: the same reports, bit for bit."""

    @pytest.mark.parametrize("tag,n,r", [("A", 6, 0.4), ("A", 21, 0.2),
                                         ("B", 2, 0.5), ("D", 4, 0.5),
                                         ("C", 2, 0.5), ("C", 3, 0.5)])
    @pytest.mark.parametrize("workers", [1, 3])
    def test_report_equals_the_column_array_report(self, tag, n, r,
                                                   workers):
        # three chunks, the last one short
        c = cfg(tag, n, count=2 * CHUNK + 77, seed=37, workers=workers)
        want = column_array_report(cfg(tag, n, count=c.count, seed=37), r)
        assert concentration_experiment(c, r) == want

    def test_workers_keep_their_own_buffers(self):
        # four workers on seven chunks, with frequent thread switches: a
        # buffer shared between workers would mix their chunks
        c = cfg("A", 9, count=6 * CHUNK + 5, seed=6, workers=4)
        want = concentration_experiment(cfg("A", 9, count=c.count, seed=6),
                                         0.3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = concentration_experiment(c, 0.3)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("workers", [1, 3])
    def test_histogram_equals_the_column_array_histogram(self, workers):
        c = cfg("A", 7, count=2 * CHUNK + 77, seed=38, workers=workers)
        _, xi = cp_coordinate(column_array(cfg("A", 7, count=c.count,
                                               seed=38)))
        counts, edges = np.histogram(xi, bins=60, range=(0.0, math.pi / 2))
        assert xi_histogram(montecarlo.draw(c), bins=60) == {
            "edges": edges.tolist(), "counts": counts.tolist()}

    @pytest.mark.parametrize("tag,n,count", [("A", 10 ** 9, 100),
                                             ("A", 21, 10 ** 8),
                                             ("B", 10 ** 8, 100),
                                             ("D", 4, 10 ** 8),
                                             ("C", 10 ** 8, 100),
                                             ("C", 3, 10 ** 8)])
    def test_oversize_refused_before_drawing(self, monkeypatch, tag, n,
                                             count):
        # an oversize group fills the chunk buffers, an oversize count
        # the statistics' arrays
        def no_chunk(*args):
            raise AssertionError("chunk drawn for an oversize request")

        monkeypatch.setattr(montecarlo, "_map_chunks", no_chunk)
        with pytest.raises(ValueError, match="budget"):
            concentration_experiment(cfg(tag, n, count=count), 0.3)
        with pytest.raises(ValueError, match="budget"):
            montecarlo.draw(cfg(tag, n, count=count))

    def test_statistics_cap(self):
        # about 2.7 * 10^7 samples of SU(21) fit the budget
        def need(count):
            montecarlo._check_sample_budget(count, 21, 1, 16, 1)

        need(2 * 10 ** 7)
        with pytest.raises(ValueError, match="budget"):
            need(3 * 10 ** 7)


class TestSpinClosedForm:
    """_spin_coordinates against the whole Householder reflection."""

    @pytest.mark.parametrize("tag,n", [("B", 2), ("D", 4), ("B", 10),
                                       ("D", 32)])
    def test_closed_form_is_the_reflection(self, tag, n):
        m = matrix_size(tag, n)
        for seed in (42, 43, 44):
            for i in range(3):
                g = montecarlo.haar_so_chunk(chunk_fill(seed, i, CHUNK, m),
                                             CHUNK, m, montecarlo._Buffers())
                got = montecarlo._spin_coordinates(g)
                want = householder_reduce(g[:, :, 1], g[:, :, 0])[:, 0]
                assert got[:, 0].tobytes() == g[:, 0, 0].tobytes()
                assert np.max(np.abs(got[:, 1] - want)) < 1e-14
                for r in (0.2, 0.5, 1.0):
                    assert np.array_equal(equator_distance(got[:, 1]) < r,
                                          equator_distance(want) < r)


def arcsin_verdicts(tag, scalars, r):
    """The band test through the angles: pi/2 - xi for SU, arcsin |x|
    of each coordinate for Spin and USp."""
    if tag == "A":
        _, xi = cp_coordinate(scalars[:, :, None])
        return math.pi / 2 - xi < r
    return np.all(equator_distance(scalars) < r, axis=1)


class TestBandThreshold:
    @pytest.mark.parametrize("seed", [42, 43])
    def test_threshold_is_the_arcsin_test(self, monkeypatch, seed):
        # every draw and radius of criteria 5 and 6 at the quick count:
        # the same verdict per sample, so the same reported band mass
        draws = {}

        def recorded(cfgs, fn, outs):
            draws.update(zip(cfgs, MAP_CHUNKS(cfgs, fn, outs)))
            return outs

        monkeypatch.setattr(montecarlo, "_map_chunks", recorded)
        reports = []
        monkeypatch.setattr(reproduce, "concentration_experiment",
                            lambda c, *args: reports.append(
                                (c, concentration_experiment(c, *args)))
                            or reports[-1][1])
        reproduce.criterion_su_concentration(count=20_000, seed=seed)
        reproduce.criterion_product_factorization(count=20_000,
                                                  seed=seed + 1)
        assert len(reports) == 19 and len(draws) == 16
        for c, rep in reports:   # each report beside the draw of its config
            scalars = draws[c]
            want = arcsin_verdicts(c.series.tag, scalars, rep.r)
            inside = np.all(np.abs(scalars) < math.sin(rep.r), axis=1)
            assert np.array_equal(inside, want)
            assert rep.empirical_mass == float(np.mean(want))


class TestWorkerThreads:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_calling_thread_is_worker_zero(self, monkeypatch, workers):
        # a one-worker draw starts no thread; w workers start at most w - 1
        started = []
        start = threading.Thread.start

        def recorded(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recorded)
        c = cfg("A", 4, count=3 * CHUNK, seed=3, workers=workers)
        got = montecarlo.sample_su(c)
        monkeypatch.undo()
        assert (len(started) == 0) == (workers == 1)
        assert len(started) <= workers - 1
        assert got.tobytes() == montecarlo.sample_su(
            cfg("A", 4, count=c.count, seed=3)).tobytes()


class TestOneDrawPerConfig:
    """Callers draw once and pass the scalars; no draw is kept."""

    @staticmethod
    def _sweep(monkeypatch, seed):
        # the (config, radius, report) of criteria 5 and 6 at the quick
        # count, and the configs of each draw they made
        draws, reports = [], []
        monkeypatch.setattr(montecarlo, "_map_chunks",
                            lambda *args: draws.append(args[0])
                            or MAP_CHUNKS(*args))

        def experiment(c, r, *args):
            reports.append((c, r, concentration_experiment(c, r, *args)))
            return reports[-1][2]

        monkeypatch.setattr(reproduce, "concentration_experiment",
                            experiment)
        reproduce.criterion_su_concentration(count=20_000, seed=seed)
        reproduce.criterion_product_factorization(count=20_000,
                                                  seed=seed + 1)
        monkeypatch.undo()
        return reports, draws

    @pytest.mark.parametrize("seed", [42, 43])
    def test_one_draw_per_config(self, monkeypatch, seed):
        # r = 0.2 and r = 0.4 score one sample of each SU(n); criterion 5
        # draws its three groups together at each of four seeds, and
        # criterion 6 its four groups at one
        reports, draws = self._sweep(monkeypatch, seed)
        assert len(reports) == 19
        assert [len(batch) for batch in draws] == [3, 3, 3, 3, 4]
        configs = list(itertools.chain(*draws))
        assert len(set(configs)) == 16 == len(configs)
        assert {c for c, _, _ in reports} == set(configs)

    @pytest.mark.parametrize("seed", [42, 43])
    def test_reports_equal_fresh_draws(self, monkeypatch, seed):
        reports, _ = self._sweep(monkeypatch, seed)
        assert [rep for _, _, rep in reports] == \
            [concentration_experiment(c, r) for c, r, _ in reports]

    @pytest.mark.parametrize("sampler,tag,n",
                             [(montecarlo.sample_su, "A", 4),
                              (montecarlo.sample_so, "B", 2),
                              (montecarlo.sample_usp, "C", 2)])
    def test_scalars_are_read_only(self, sampler, tag, n):
        g = sampler(cfg(tag, n, count=100))
        assert not g.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            g[0, 0] = 0.0

    def test_no_draw_outlives_its_statistics(self):
        c = cfg("A", 4, count=3 * CHUNK)
        scalars = montecarlo.sample_su(c)
        held = weakref.ref(scalars)
        concentration_experiment(c, 0.3, scalars)
        xi_histogram(scalars)
        del scalars
        assert held() is None

    @pytest.mark.parametrize("tag,n", [("A", 4), ("B", 2), ("C", 2)])
    def test_scalars_of_the_wrong_count_refused(self, tag, n):
        # the stderr and z-score take their count from cfg
        c = cfg(tag, n, count=100)
        for rows in (101, 99):
            with pytest.raises(ValueError, match="scalars for count 100"):
                concentration_experiment(c, 0.3, np.zeros((rows, 1)))
        assert concentration_experiment(c, 0.3, montecarlo.draw(c)) == \
            concentration_experiment(c, 0.3)


class TestBatchDraw:
    """Configs at one seed read prefixes of one Gaussian fill per chunk."""

    # SU(9) is the widest (18 normals a sample); each family reads less
    MIXED = (("A", 9), ("B", 3), ("C", 2), ("D", 4))

    @staticmethod
    def _batch(workers=1):
        return [cfg(tag, n, count=3 * CHUNK + 5, seed=44, workers=workers)
                for tag, n in TestBatchDraw.MIXED]

    @pytest.mark.parametrize("workers", [1, 4])
    def test_batch_equals_single_draws(self, workers):
        batch = self._batch(workers)
        got = montecarlo.draw(*batch)
        assert len(got) == len(batch)
        for c, scalars in zip(batch, got):
            assert not scalars.flags.writeable
            alone = montecarlo.draw(cfg(c.series.tag, c.series.n,
                                        count=c.count, seed=c.seed))
            assert scalars.shape == alone.shape
            assert scalars.tobytes() == alone.tobytes()

    def test_one_fill_per_chunk(self, monkeypatch):
        # the mutation gate: a fill per config would make four per chunk
        fills = []
        chunk_rng = montecarlo._chunk_rng

        class Counted:
            def __init__(self, rng):
                self.rng = rng

            def standard_normal(self, *args, **kwargs):
                normals = self.rng.standard_normal(*args, **kwargs)
                fills.append(normals.size)
                return normals

        monkeypatch.setattr(montecarlo, "_chunk_rng",
                            lambda seed, i: Counted(chunk_rng(seed, i)))
        montecarlo.draw(*self._batch())
        assert fills == [CHUNK * 18] * 3 + [5 * 18]

    @pytest.mark.parametrize("other", [{"seed": 45}, {"count": CHUNK},
                                       {"workers": 2}])
    def test_batch_must_share_seed_count_workers(self, monkeypatch, other):
        def no_chunk(*args):
            raise AssertionError("chunk drawn for a refused batch")

        monkeypatch.setattr(montecarlo, "_map_chunks", no_chunk)
        same = {"count": 3 * CHUNK + 5, "seed": 44, "workers": 1}
        with pytest.raises(ValueError, match="share seed, count and workers"):
            montecarlo.draw(cfg("A", 9, **same),
                            cfg("B", 3, **{**same, **other}))

    def test_budget_counts_every_draw_of_a_batch(self, monkeypatch):
        # 10^7 samples of SU(21) fit the budget alone, three of them not
        def no_chunk(*args):
            raise AssertionError("chunk drawn for an oversize batch")

        monkeypatch.setattr(montecarlo, "_map_chunks", no_chunk)
        c = cfg("A", 21, count=10 ** 7)
        montecarlo._check_sample_budget(c.count, 21, 1, 16, 1)
        with pytest.raises(ValueError, match="3 draws of 10000000 samples, "
                                             "the widest 21 x 1, need"):
            montecarlo.draw(c, c, c)


# (group, seed, r, empirical_mass.hex(), ks_statistic.hex()) of the 19
# reports of criteria 5 and 6 at count 2048 and acceptance seed 42,
# recorded before the draws at one seed shared their chunk fills.
STREAM_PIN = sorted([
    ("SU(11)", 42, 0.2, "0x1.5d80000000000p-2", "0x1.fbdca9cd32900p-7"),
    ("SU(11)", 42, 0.4, "0x1.9b40000000000p-1", "0x1.fbdca9cd32900p-7"),
    ("SU(11)", 43, 0.2, "0x1.4f80000000000p-2", "0x1.6a5500b8bdec0p-6"),
    ("SU(11)", 44, 0.2, "0x1.6480000000000p-2", "0x1.1d1aa731a0210p-5"),
    ("SU(11)", 45, 0.2, "0x1.4200000000000p-2", "0x1.b1ddd67685e60p-6"),
    ("SU(21)", 42, 0.2, "0x1.1900000000000p-1", "0x1.a7da0624e8040p-6"),
    ("SU(21)", 42, 0.4, "0x1.ebc0000000000p-1", "0x1.a7da0624e8040p-6"),
    ("SU(21)", 43, 0.2, "0x1.1100000000000p-1", "0x1.6fd9326bd1c60p-6"),
    ("SU(21)", 44, 0.2, "0x1.1880000000000p-1", "0x1.f608ca25a1c80p-7"),
    ("SU(21)", 45, 0.2, "0x1.1c40000000000p-1", "0x1.70bdfcc46c640p-7"),
    ("SU(6)", 42, 0.2, "0x1.8000000000000p-3", "0x1.e9e5de2255d00p-7"),
    ("SU(6)", 42, 0.4, "0x1.1b00000000000p-1", "0x1.e9e5de2255d00p-7"),
    ("SU(6)", 43, 0.2, "0x1.7900000000000p-3", "0x1.ca71b34577100p-7"),
    ("SU(6)", 44, 0.2, "0x1.6a00000000000p-3", "0x1.145569edc9aa0p-6"),
    ("SU(6)", 45, 0.2, "0x1.8400000000000p-3", "0x1.00fb92a9d0480p-6"),
    ("Spin(5)", 43, 0.5, "0x1.8a00000000000p-2", "0x1.412709f0eaa60p-6"),
    ("Spin(8)", 43, 0.5, "0x1.3340000000000p-1", "0x1.076ca3d638530p-6"),
    ("USp(4)", 43, 0.5, "0x1.9f80000000000p-1", "0x1.e6b4a940d0a20p-7"),
    ("USp(6)", 43, 0.5, "0x1.ce80000000000p-1", "0x1.0a823daaccb60p-6"),
])


def test_sweep_stream_is_pinned(monkeypatch):
    # the acceptance sweep's Monte Carlo numbers, bit for bit, in any
    # order of draws and reports
    got = []

    def experiment(c, r, *args):
        rep = concentration_experiment(c, r, *args)
        got.append((rep.series.group_name, rep.seed, rep.r,
                    rep.empirical_mass.hex(), rep.ks_statistic.hex()))
        return rep

    monkeypatch.setattr(reproduce, "concentration_experiment", experiment)
    reproduce.criterion_su_concentration(count=2048, seed=42)
    reproduce.criterion_product_factorization(count=2048, seed=43)
    assert sorted(got) == STREAM_PIN


class TestSampleBudget:
    def test_large_column_sample_fits(self):
        # 10^6 samples of SU(21): 80 MB of scalars and statistics
        montecarlo._check_sample_budget(10 ** 6, 21, 1, 16, 1)

    @pytest.mark.parametrize("sampler,tag,n,columns,count",
                             [(montecarlo.sample_su, "A", 21, 1, 10 ** 9),
                              (montecarlo.sample_so, "B", 10, 2, 10 ** 9),
                              (montecarlo.sample_usp, "C", 10, 1, 10 ** 9)])
    def test_oversize_refused_before_drawing(self, monkeypatch, sampler, tag,
                                             n, columns, count):
        def no_chunk(*args):
            raise AssertionError("chunk drawn for an oversize request")

        monkeypatch.setattr(montecarlo, "_map_chunks", no_chunk)
        m = matrix_size(tag, n)
        # the refusal names the columns a sample would be drawn as
        with pytest.raises(ValueError, match=f"of {m} x {columns} need .* "
                                             f"budget"):
            sampler(cfg(tag, n, count=count))


@pytest.mark.parametrize("workers", [0, montecarlo.MAX_WORKERS + 1])
def test_worker_count_is_bounded(workers):
    with pytest.raises(ValueError, match="workers"):
        cfg("A", 3, workers=workers)
    cfg("A", 3, workers=montecarlo.MAX_WORKERS)   # no thread is started


class TestSampleMemory:
    @pytest.mark.parametrize("sampler,tag,n,columns",
                             [(montecarlo.sample_su, "A", 6, 1),
                              (montecarlo.sample_so, "B", 2, 2),
                              (montecarlo.sample_usp, "C", 2, 1)])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_is_the_result_plus_chunks(self, sampler, tag, n, columns,
                                            workers):
        # 32 chunks: beside its scalars a draw holds each worker's work
        # arrays, _WORK_CHUNKS chunks of columns at most, never all chunks
        c = cfg(tag, n, count=32 * CHUNK, seed=5, workers=workers)
        itemsize = np.dtype(COLUMN_DRAW[tag][3]).itemsize
        chunk = CHUNK * matrix_size(tag, n) * columns * itemsize
        tracemalloc.start()
        try:
            g = sampler(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < g.nbytes + workers * montecarlo._WORK_CHUNKS * chunk

    @pytest.mark.parametrize("stat", [
        lambda c: concentration_experiment(c, 0.2),
        pytest.param(lambda c: xi_histogram(montecarlo.draw(c)),
                     id="xi_histogram")])
    def test_statistics_hold_no_column_array(self, stat):
        # a quarter of the (count, 21, 1) complex array once held
        c = cfg("A", 21, count=16 * CHUNK, seed=5)
        stat(c)   # imports and caches outside the measurement
        tracemalloc.start()
        try:
            stat(c)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * c.count * 21 * 16

    def test_rows_follow_chunk_order(self):
        # each chunk's rows are its own draw, whichever worker wrote them;
        # four workers on seven chunks, with frequent thread switches
        c = cfg("C", 2, count=6 * CHUNK + 5, seed=6, workers=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            g = montecarlo.sample_usp(c)
        finally:
            sys.setswitchinterval(interval)
        assert g.tobytes() == scalars_read("C", column_array(c)).tobytes()


class TestInvariance:
    def test_left_translation(self):
        # Re tr(g) and Re tr(g0 g) must be equidistributed under Haar
        g = sample_su(cfg("A", 5, count=20000, seed=5))
        rng = np.random.default_rng(5)
        x = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        q, r = np.linalg.qr(x)
        g0 = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        g0 *= np.linalg.det(g0) ** (-1 / 5)
        t1 = np.trace(g, axis1=1, axis2=2).real
        t2 = np.trace(g0 @ g, axis1=1, axis2=2).real
        passes = 0
        for k in range(3):
            sl = slice(k * 6000, (k + 1) * 6000)
            passes += stats.ks_2samp(t1[sl], t2[sl]).pvalue > 0.01
        assert passes >= 2

    def test_su2_trace_semicircle(self):
        # Re tr(g)/2 on SU(2) follows the semicircle law
        g = sample_su(cfg("A", 2, count=30000, seed=9))
        x = np.sort(np.trace(g, axis1=1, axis2=2).real / 2.0)

        def cdf(t):
            t = np.clip(t, -1.0, 1.0)
            return 0.5 + (t * np.sqrt(1 - t * t) + np.arcsin(t)) / np.pi

        _, p = ks_test(x, cdf)
        assert p > 0.01

    def test_first_entry_law(self):
        # |g_00|^2 of Haar SU(n) is Beta(1, n-1): cdf 1 - (1-s)^{n-1}
        n = 6
        g = sample_su(cfg("A", n, count=20000, seed=13))
        s = np.sort(np.abs(g[:, 0, 0]) ** 2)
        _, p = ks_test(s, lambda t: 1.0 - (1.0 - t) ** (n - 1))
        assert p > 0.01


class TestSphereBandMass:
    def test_m1_closed_form(self):
        # S^1: band mass is 2r/pi
        for r in (0.1, 0.7, 1.2):
            assert sphere_band_mass(1, r) == pytest.approx(2 * r / math.pi,
                                                           abs=1e-12)

    def test_m2_closed_form(self):
        for r in (0.2, 0.9):
            assert sphere_band_mass(2, r) == pytest.approx(math.sin(r),
                                                           abs=1e-12)

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    @pytest.mark.parametrize("r", [0.15, 0.5, 1.0])
    def test_matches_quadrature(self, m, r):
        assert sphere_band_mass(m, r) == pytest.approx(
            sphere_band_mass_quadrature(m, r), abs=1e-10)

    def test_endpoints(self):
        assert sphere_band_mass(7, math.pi / 2) == pytest.approx(1.0)
        assert sphere_band_mass(7, 0.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("m", [3, 4, 7, 11])
    def test_band_cdf_matches_scalar_route(self, m):
        # the KS cdf of |x_0| on S^m, against the per-point band mass
        t = np.concatenate([np.linspace(0.0, 1.0, 201), [1.0 + 1e-12]])
        want = [sphere_band_mass(m, math.asin(min(1.0, v))) for v in t]
        assert np.max(np.abs(montecarlo._band_cdf(m, t) - want)) < 1e-14

    def test_monotone_in_r(self):
        vals = [sphere_band_mass(9, r) for r in np.linspace(0.01, 1.5, 30)]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestKSTest:
    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            ks_test(np.array([0.5, 0.1, 0.9] * 10), lambda t: t)

    def test_rejects_short(self):
        with pytest.raises(ValueError):
            ks_test(np.arange(5) / 5.0, lambda t: t)

    def test_uniform_null(self):
        rng = np.random.default_rng(17)
        x = np.sort(rng.uniform(size=5000))
        d, p = ks_test(x, lambda t: t)
        assert p > 0.01
        # agreement with the scipy implementation of the same statistic
        assert d == pytest.approx(stats.kstest(x, "uniform").statistic,
                                  abs=1e-12)

    def test_wrong_null_rejected(self):
        rng = np.random.default_rng(18)
        x = np.sort(rng.uniform(size=5000) ** 2)
        _, p = ks_test(x, lambda t: t)
        assert p < 1e-6

    def test_cdf_called_once_on_the_array(self):
        calls = []

        def cdf(t):
            calls.append(t)
            return t

        ks_test(np.linspace(0.0, 1.0, 50), cdf)
        assert len(calls) == 1 and calls[0].shape == (50,)

    def test_rejects_scalar_cdf_result(self):
        with pytest.raises(ValueError):
            ks_test(np.linspace(0.0, 1.0, 50), lambda t: 0.5)

    def test_pvalue_limits(self):
        assert kolmogorov_sf(0.0) == 1.0
        assert kolmogorov_sf(10.0) < 1e-12
        # spot value lambda = 1 from the classical table
        assert kolmogorov_sf(1.0) == pytest.approx(0.27, abs=0.005)


class TestConcentration:
    def test_su_band(self):
        rep = concentration_experiment(cfg("A", 6, count=20000, seed=21), 0.4)
        assert rep.predicted_mass == pytest.approx(1 - math.cos(0.4) ** 10)
        assert abs(rep.z_score) < 4.0

    def test_so_product(self):
        rep = concentration_experiment(cfg("B", 2, count=20000, seed=22), 0.5)
        assert rep.predicted_mass == pytest.approx(
            sphere_band_mass(4, 0.5) * sphere_band_mass(3, 0.5))
        assert abs(rep.z_score) < 4.0

    def test_usp_band(self):
        rep = concentration_experiment(cfg("C", 2, count=20000, seed=23), 0.5)
        assert rep.predicted_mass == pytest.approx(sphere_band_mass(7, 0.5))
        assert abs(rep.z_score) < 4.0

    def test_r_validation(self):
        with pytest.raises(ValueError):
            concentration_experiment(cfg("A", 3, count=100), 0.0)

    def test_report_json(self):
        rep = concentration_experiment(cfg("D", 4, count=4096, seed=24), 0.5)
        d = rep.to_json()
        assert d["group"] == "Spin(8)"
        assert d["count"] == 4096
        assert "bi-equator" in d["base"]


def test_xi_histogram():
    h = xi_histogram(montecarlo.draw(cfg("A", 3, count=4096, seed=25)),
                     bins=50)
    assert len(h["counts"]) == 50
    assert sum(h["counts"]) == 4096


def test_cp_coordinate_range():
    mag = montecarlo.sample_su(cfg("A", 4, count=256, seed=26))[:, 0]
    xi = montecarlo._chart_angle(mag)
    assert np.all((mag >= 0) & (mag <= 1))
    assert np.all((xi >= 0) & (xi <= math.pi / 2))
