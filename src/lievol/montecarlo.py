"""Haar sampling on SU(n), Spin(m), USp(2n) and concentration experiments.

The concentration statistics read at most two columns of a Haar sample,
so a sampler draws only those: k Gaussian columns per sample (k = 1 for
SU and USp, 2 for Spin), orthonormalized by Gram-Schmidt; SU and USp
read only g_00, so their chunks divide that one entry by its column's
norm.  For k < m the first k columns of a Haar matrix are uniform on
the Stiefel manifold, the law of Gram-Schmidt applied to k i.i.d.
Gaussian columns (Mezzadri, Notices AMS 2007), and the det phase or
sign that makes a sample special leaves that law alone.  USp(2n) acts
transitively on the unit sphere of C^{2n}, so its first column is drawn
as SU(2n)'s.  The full-matrix samplers that check this law live beside
the tests.

Each chunk is reduced, as soon as it is drawn, to the float64 scalars
its statistic reads (SU |g_00|, Spin the first coordinates of its two
base-sphere points, USp Re g_00), so a draw holds one or two scalars per
sample and never a (count, m, k) array.  Spin's second base point is its
second column reflected by the Householder map that takes the first to
a multiple of e_0; the one coordinate read has a closed form.
Chunks have a fixed size (CHUNK), each is driven by its own
counter-keyed Philox stream and written into its rows of one
preallocated result, so the statistics are bit-identical for a given
(seed, count) at any worker count.  With w busy workers, worker j draws
chunks j, j + w, ... into one set of work arrays, kept for the whole
draw; the calling thread is worker 0, and only a draw with a second
worker imports a thread pool.  A draw whose scalars, statistics
and work arrays would exceed SAMPLE_BUDGET bytes is refused before any
chunk is drawn.

Chunk i of every draw at (seed, count) covers the same rows and is read
off the stream Philox(key=seed, counter=[0, 0, 0, i]) from the front:
SU(m) reads its first 2 size m normals (the real parts, then the
imaginary), USp(2n) its first 4 size n, Spin(m) its first 2 size m in
(size, m, 2) order.  Every narrower draw at a seed thus reads a prefix
of the widest one's normals, so draw(cfg, *more) fills each chunk once,
as wide as its widest config, and each config reduces its own prefix:
the same scalars, bit for bit, as its own draw.  The draws at one seed
shared their normals in this way before they were batched too, so no
draw's law changes.  `reproduce --quick` draws its 16 configs in 5
batches, 3.68 M normals where one draw per config filled 7.0 M; on a
2-core host criteria 5 and 6 take 0.11-0.12 s quick and 0.51-0.54 s
full, where one draw per config took 0.16-0.17 s and 0.79-0.87 s.

Callers draw once and pass the read-only scalars to each statistic that
reads them, so criterion 5's two radii and `sample --hist ksi` score one
draw each; nothing keeps a draw after its statistics.

A sample lies in the band of half-width r around the concentration
locus when each of its scalars has |x| < sin r, which is asin |x| < r.
Band masses are I_x(1/2, m/2) (special.betainc_half); their second
route, Gauss-Legendre quadrature of the band (special.gauss_legendre),
lives beside the tests that use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .roots import Series
from .special import betainc_half, kolmogorov_sf

CHUNK = 2048

_RSQRT2 = 1.0 / math.sqrt(2.0)

# Most bytes one draw may hold, its scalars, statistics and work arrays
# together: the concentration statistics of SU(21) take up to
# 2.68 * 10^7 samples.
SAMPLE_BUDGET = 2 * 2 ** 30

# Bytes per sample the concentration statistics hold at their peak,
# their scalars included: tracemalloc measured 49 B for SU(6) and
# SU(21), 64 B for Spin(5), USp(4) and USp(6), and 72 B for Spin(8), at
# count 10^5.
_STATS_BYTES = 80

# Work arrays one worker holds while it draws and reduces a chunk, in
# chunks of its widest config's drawn columns (min(CHUNK, count) x m x k
# x itemsize), the chunk's Gaussian fill among them: above the draw's
# result, tracemalloc measured peaks of 3.2-4.6 chunks at count
# 32 * CHUNK and 3.2-4.9 at count 256, the most for SU(2), whose
# per-sample arrays weigh most beside its short column (SU(2), SU(6),
# SU(21), USp(4), USp(6), Spin(5), Spin(8), Spin(21), Spin(64)), and
# 3.2 chunks of SU(21) for criterion 5's SU(6), SU(11), SU(21) batch.
_WORK_CHUNKS = 5

# Most threads one sample may use.  The draw stops gaining at the core
# count (SU(21), 2 * 10^5 samples on 2 cores: 1.31 s at 1 worker, 1.05 s
# at 2, 1.07 s at 32), and each worker holds its work arrays beside the
# result.
MAX_WORKERS = 64

# Most bins of xi_histogram: each costs ~60 B and 2-6 us (edges, counts,
# their lists, the written report), so `sample --hist ksi` with 10^5
# bins takes 0.5-0.6 s and 43 MiB, with 10^6 2-6 s and 98 MiB.
HIST_MAX_BINS = 10 ** 5

# Seeds lie in [0, SEED_LIMIT), and each is its own Philox key: no two
# seeds share a stream.
SEED_LIMIT = 2 ** 64


@dataclass(frozen=True)
class SamplerConfig:
    series: Series
    count: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if not 0 <= self.seed < SEED_LIMIT:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(f"workers must lie in [1, {MAX_WORKERS}], "
                             f"got {self.workers}")


def _chunk_rng(seed: int, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed,
                                                counter=[0, 0, 0, chunk_index]))


class _Buffers:
    """Work arrays of one worker, kept for every chunk it draws.

    Each name holds one flat byte array, viewed in the shape and dtype
    asked for, so the configs of one draw share a single set of arrays,
    as large as the widest config asks.  A worker's first chunk is its
    largest, so a later chunk takes a leading slice, which stays
    C-contiguous.  Reuse matters: when each chunk allocates and frees its
    own arrays of a few hundred KiB, glibc trims the heap after every
    chunk and the next one faults its pages in again.
    """

    def __init__(self):
        self._arrays = {}

    def get(self, name: str, shape: tuple, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        a = self._arrays.get(name)
        if a is None or len(a) < nbytes:
            a = self._arrays[name] = np.empty(nbytes, np.uint8)
        return a[:nbytes].view(dtype).reshape(shape)


def _map_chunks(cfgs: tuple, fn: Callable, outs: list) -> list:
    """Write the blocks fn(chunk_rng, size, buffers) of chunk i into their
    rows of `outs`, one block per array, for configs that share seed,
    count and workers.

    Worker w draws chunks w, w + busy, ... into one _Buffers, so beside
    `outs` only one chunk's work arrays per worker are alive; the rows a
    chunk fills depend only on its index, whichever worker draws it.
    The calling thread is worker 0 and a pool runs the others; a
    one-worker draw starts no thread and imports no thread pool.
    """
    cfg = cfgs[0]
    chunks = -(-cfg.count // CHUNK)
    busy = min(cfg.workers, chunks)

    def worker(w: int) -> None:
        buffers = _Buffers()
        for i in range(w, chunks, busy):
            start = i * CHUNK
            size = min(CHUNK, cfg.count - start)
            blocks = fn(_chunk_rng(cfg.seed, i), size, buffers)
            for out, block in zip(outs, blocks):
                out[start:start + size] = block

    if busy == 1:
        worker(0)
        return outs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=busy - 1) as pool:
        others = [pool.submit(worker, w) for w in range(1, busy)]
        worker(0)
        for fut in others:
            fut.result()
    return outs


# -- samplers ---------------------------------------------------------

def _row_norms(v: np.ndarray, buffers: _Buffers) -> np.ndarray:
    """np.linalg.norm(v, axis=1) of a (size, m) array, in work buffers.

    The same conj, multiply, .real, add.reduce and sqrt sequence as
    numpy's, so the norms are bit-equal to it.  re^2 + im^2 is not:
    numpy's SIMD complex multiply fuses a multiply-add, which rounds
    once where the real products round twice.
    """
    if np.iscomplexobj(v):
        sq = buffers.get("norm_sq", v.shape, v.dtype)
        np.conjugate(v, out=sq)
        np.multiply(sq, v, out=sq)
        sq = sq.real
    else:   # a real array's conj() is the array itself
        sq = np.multiply(v, v, out=buffers.get("norm_sq", v.shape, v.dtype))
    norms = buffers.get("norm", v.shape[:1], float)
    np.add.reduce(sq, axis=1, out=norms)
    return np.sqrt(norms, out=norms)


def _gram_schmidt(z: np.ndarray, buffers: _Buffers) -> np.ndarray:
    """The k columns of each (m, k) slice of z orthonormalized, in order,
    into a work buffer; z is only read.

    Modified Gram-Schmidt: column j equals column j of the QR factor
    whose R has a positive diagonal, so no phase correction follows.
    The projections need contiguous columns: on strided ones einsum and
    norm sum in another order, and the samples change in the last bits.
    """
    q = buffers.get("columns", z.shape, z.dtype)
    for j in range(z.shape[-1]):
        v = z[:, :, j] if j == 0 else z[:, :, j].copy()
        for i in range(j):
            w = q[:, :, i]
            v -= np.einsum("sa,sa->s", np.conj(w), v)[:, None] * w
        np.divide(v, _row_norms(v, buffers)[:, None], out=q[:, :, j])
    return q


def _complex_gaussian(fill: np.ndarray, size: int, m: int,
                      buffers: _Buffers) -> np.ndarray:
    """(size, m) standard complex Gaussians (re + i im) / sqrt(2), re the
    first size * m normals of `fill` and im the next.

    numpy divides a complex array by a real scalar as a product with its
    reciprocal, so the halves written in place are bit-equal to that
    quotient, without its temporaries.
    """
    z = buffers.get("columns", (size, m), complex)
    k = size * m
    np.multiply(fill[:k].reshape(size, m), _RSQRT2, out=z.real)
    np.multiply(fill[k:2 * k].reshape(size, m), _RSQRT2, out=z.imag)
    return z


# Each chunk function reads the chunk's Gaussian fill, the normals of its
# counter-keyed Philox stream, from the front, and writes only into
# `buffers`: the fill is shared by every config of one draw.  A Spin
# chunk lives in `buffers` until the next chunk drawn with them.  An SU
# or USp chunk divides only the entry g_00 by its column's norm: the same
# bits as the whole column's divide.

def haar_su_chunk(fill: np.ndarray, size: int, m: int,
                  buffers: _Buffers) -> np.ndarray:
    """(size,): the entry g_00 of `size` Haar SU(m) samples, read off the
    first 2 size m normals of `fill`."""
    z = _complex_gaussian(fill, size, m, buffers)
    return z[:, 0] / _row_norms(z, buffers)


def haar_so_chunk(fill: np.ndarray, size: int, m: int,
                  buffers: _Buffers) -> np.ndarray:
    """(size, m, 2): the first two columns of `size` Haar SO(m) samples,
    read off the first 2 size m normals of `fill` in (size, m, 2) order."""
    return _gram_schmidt(fill[:2 * size * m].reshape(size, m, 2), buffers)


def haar_usp_chunk(fill: np.ndarray, size: int, two_n: int,
                   buffers: _Buffers) -> np.ndarray:
    """(size,): the entry g_00 of `size` Haar USp(2n) samples, read off
    the first 4 size n normals of `fill`.

    USp(2n) acts transitively on the unit sphere of C^{2n}, so the first
    column is uniform on it, drawn as SU(2n)'s.
    """
    z = _complex_gaussian(fill, size, two_n, buffers)
    return z[:, 0] / _row_norms(z, buffers)


def _check_sample_budget(count: int, rows: int, cols: int, itemsize: int,
                         workers: int, draws: int = 1) -> None:
    """Refuse a draw whose results and work arrays exceed SAMPLE_BUDGET.

    The results and the statistics built from them cost _STATS_BYTES a
    sample of each of the `draws` configs; each busy worker holds
    _WORK_CHUNKS chunks of the widest config's rows x cols columns
    besides.
    """
    busy = min(workers, -(-count // CHUNK))
    need = (draws * count * _STATS_BYTES
            + busy * _WORK_CHUNKS * min(CHUNK, count) * rows * cols * itemsize)
    if need > SAMPLE_BUDGET:
        what = f"{count} samples of {rows} x {cols}"
        if draws > 1:
            what = (f"{draws} draws of {count} samples, the widest "
                    f"{rows} x {cols},")
        raise ValueError(
            f"{what} need {need / 2 ** 30:.1f} "
            f"GiB, above the {SAMPLE_BUDGET / 2 ** 30:.0f} GiB sample budget")


def _reader(cfg: SamplerConfig) -> tuple:
    """(rows, cols, itemsize, read) of cfg's draw: each sample is drawn as
    rows x cols columns of itemsize bytes, and read(fill, size, buffers)
    reduces a chunk of them to its (size, cols) scalars.

    The lambdas look haar_*_chunk up when called, so rebinding one in
    this module (to trace or to fail it) reaches every draw.
    """
    tag, n = cfg.series.tag, cfg.series.n
    if tag == "A":   # |g_00|
        return n, 1, 16, lambda fill, size, buffers: np.abs(
            haar_su_chunk(fill, size, n, buffers))[:, None]
    if tag == "C":   # Re g_00
        return 2 * n, 1, 16, lambda fill, size, buffers: haar_usp_chunk(
            fill, size, 2 * n, buffers).real[:, None]
    m = 2 * n + 1 if tag == "B" else 2 * n
    return m, 2, 8, lambda fill, size, buffers: _spin_coordinates(
        haar_so_chunk(fill, size, m, buffers))


def draw(cfg: SamplerConfig, *more: SamplerConfig):
    """The read-only (count, k) scalars that the statistics of each config
    read: an array for one config, a list of arrays for several.

    The configs must share seed, count and workers.  Chunk i of every
    config is read off one fill of the chunk's Philox stream, as many
    normals a sample as the widest config reads; each config reads a
    prefix of it, the same normals it would read drawn alone.
    """
    cfgs = (cfg, *more)
    if any((c.seed, c.count, c.workers)
           != (cfg.seed, cfg.count, cfg.workers) for c in more):
        raise ValueError("the configs of one draw must share seed, count "
                         "and workers")
    readers = [_reader(c) for c in cfgs]
    # the widest reads first, so that its chunk sizes the shared buffers
    order = sorted(range(len(cfgs)),
                   key=lambda j: -math.prod(readers[j][:3]))
    rows, cols, itemsize, _ = readers[order[0]]
    _check_sample_budget(cfg.count, rows, cols, itemsize, cfg.workers,
                         len(cfgs))
    width = rows * cols * itemsize // 8   # normals a sample

    def chunk(rng, size, buffers):
        fill = rng.standard_normal(out=buffers.get("fill", (size * width,),
                                                   float))
        return [readers[j][3](fill, size, buffers) for j in order]

    outs = _map_chunks(tuple(cfgs[j] for j in order), chunk,
                       [np.empty((cfg.count, readers[j][1])) for j in order])
    scalars = [None] * len(cfgs)
    for j, out in zip(order, outs):
        out.flags.writeable = False
        scalars[j] = out
    return scalars if more else scalars[0]


# One family's draw, under the names perfbench/tracer.py wraps; the
# program draws through draw().

def sample_su(cfg: SamplerConfig) -> np.ndarray:
    """(count, 1): |g_00| of Haar SU(n) samples."""
    return draw(cfg)


def sample_so(cfg: SamplerConfig) -> np.ndarray:
    """(count, 2): the _spin_coordinates of Haar SO(m) samples."""
    return draw(cfg)


def sample_usp(cfg: SamplerConfig) -> np.ndarray:
    """(count, 1): Re g_00 of Haar USp(2n) samples."""
    return draw(cfg)


# -- chart coordinate and band statistics -----------------------------

def _chart_angle(mag: np.ndarray) -> np.ndarray:
    """The chart angle xi of the fiber points whose |zeta_0| is `mag`.

    The first column of an SU sample is the homogeneous representative
    of its fiber point, so mag is |g_00|.
    """
    return np.arccos(np.clip(mag, 0.0, 1.0))


def sphere_band_mass(m: int, r: float) -> float:
    """Mass of the geodesic band of half-width r around an equator of S^m."""
    if not (0.0 <= r <= math.pi / 2):
        raise ValueError("r must lie in [0, pi/2]")
    return float(betainc_half(m, math.sin(r) ** 2))


def _band_cdf(m: int, t: np.ndarray) -> np.ndarray:
    """sphere_band_mass(m, asin(min(1, t))) elementwise, for t >= 0.

    The cdf of |x_0| for x uniform on S^m: sin(asin t)^2 = t^2.
    """
    return betainc_half(m, np.minimum(t, 1.0) ** 2)


# -- KS test ----------------------------------------------------------

def ks_test(samples: np.ndarray, cdf: Callable) -> tuple:
    """One-sample KS statistic and asymptotic p-value.

    `samples` must be sorted ascending; at least 8 values.  `cdf` is
    called once, on the whole sorted array, and must return the cdf of
    each value elementwise (numpy ufuncs and array arithmetic do).
    """
    x = np.asarray(samples, dtype=float)
    if len(x) < 8:
        raise ValueError("need at least 8 samples")
    if np.any(np.diff(x) < 0):
        raise ValueError("samples must be sorted ascending")
    n = len(x)
    f = np.asarray(cdf(x), dtype=float)
    if f.shape != x.shape:
        raise ValueError("cdf must return one value per sample")
    i = np.arange(1, n + 1)
    d = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    return d, float(kolmogorov_sf(math.sqrt(n) * d))


# -- concentration experiments ----------------------------------------

@dataclass(frozen=True)
class ConcentrationReport:
    series: Series
    n: int
    r: float
    count: int
    seed: int
    empirical_mass: float
    predicted_mass: float
    stderr: float
    z_score: float
    ks_statistic: float
    ks_pvalue: float
    base_description: str
    note: str = ""

    def to_json(self) -> dict:
        return {
            "group": self.series.group_name,
            "series": self.series.tag, "n": self.n, "r": self.r,
            "count": self.count, "seed": self.seed,
            "empirical_mass": self.empirical_mass,
            "predicted_mass": self.predicted_mass,
            "stderr": self.stderr, "z_score": self.z_score,
            "ks_statistic": self.ks_statistic, "ks_pvalue": self.ks_pvalue,
            "base": self.base_description, "note": self.note,
        }


def _spin_coordinates(g: np.ndarray) -> np.ndarray:
    """(size, 2): x_0 and (H y)_1 of each sample's first columns x, y.

    Spin's base points are x on S^{m-1} and H y on S^{m-2}, where H is
    the Householder reflection I - 2 u u^T, u = (x + s e_0) / |x + s e_0|
    with s = +1 if x_0 >= 0 else -1, which maps x to -s e_0 (Golub & Van
    Loan, Matrix Computations, 5.1): H y is orthogonal to e_0, so its
    rows 1.. are the point.  As x is a unit vector orthogonal to y,
    |x + s e_0|^2 = 2 (1 + |x_0|) and u.y = s y_0 / |x + s e_0|, so
    (H y)_1 = y_1 - s x_1 y_0 / (1 + |x_0|).
    """
    x0, x1 = g[:, 0, 0], g[:, 1, 0]
    y0, y1 = g[:, 0, 1], g[:, 1, 1]
    s = np.where(x0 >= 0, 1.0, -1.0)
    out = np.empty((len(g), 2))
    out[:, 0] = x0
    out[:, 1] = y1 - s * x1 * y0 / (1.0 + np.abs(x0))
    return out


def check_radius(r: float) -> None:
    """Refuse a band radius outside (0, pi/2)."""
    if not (0.0 < r < math.pi / 2):
        raise ValueError("r must lie in (0, pi/2)")


def check_bins(bins: int) -> None:
    """Refuse a histogram bin count outside [1, HIST_MAX_BINS]."""
    if not 1 <= bins <= HIST_MAX_BINS:
        raise ValueError(f"bins must lie in [1, {HIST_MAX_BINS}], not {bins}")


def concentration_experiment(cfg: SamplerConfig, r: float,
                             scalars: np.ndarray | None = None
                             ) -> ConcentrationReport:
    """Empirical band mass around the concentration locus vs closed form,
    read off draw(cfg)'s `scalars`, drawn here when none are given."""
    check_radius(r)
    series = cfg.series
    n = series.n
    note = ""
    if scalars is None:
        scalars = draw(cfg)
    elif len(scalars) != cfg.count:   # the stderr reads cfg.count
        raise ValueError(f"{len(scalars)} scalars for count {cfg.count}")

    if series.tag == "A":
        # SU(n): distance of the fiber point to the hyperplane at
        # infinity, pi/2 - xi = asin |g_00|
        from .cpn import band_complement_mass  # keeps cpn off CLI start-up
        predicted = band_complement_mass(n - 1, r)
        base = f"CP^{n - 1} hyperplane at infinity"
        stat, pval = ks_test(np.sort(scalars[:, 0] ** 2),
                             lambda s2: 1.0 - (1.0 - s2) ** (n - 1))
    elif series.tag in ("B", "D"):
        m = 2 * n + 1 if series.tag == "B" else 2 * n
        predicted = sphere_band_mass(m - 1, r) * sphere_band_mass(m - 2, r)
        base = f"S^{m - 1} x S^{m - 2} bi-equator"
        stat, pval = ks_test(np.sort(np.abs(scalars[:, 0])),
                             lambda t: _band_cdf(m - 1, t))
        note = ("sampling on SO(m); band statistics live on the base "
                "spheres and are unchanged under the double cover")
    else:  # C
        # first real coordinate of S^{4n-1}
        predicted = sphere_band_mass(4 * n - 1, r)
        base = f"S^{4 * n - 1} equator"
        stat, pval = ks_test(np.sort(np.abs(scalars[:, 0])),
                             lambda t: _band_cdf(4 * n - 1, t))

    # each scalar is a base point's distance to its equator, as a sine
    inside = np.all(np.abs(scalars) < math.sin(r), axis=1)
    emp = float(np.mean(inside))
    stderr = math.sqrt(predicted * (1.0 - predicted) / cfg.count)
    z = (emp - predicted) / stderr if stderr > 0 else 0.0
    return ConcentrationReport(
        series=series, n=n, r=r, count=cfg.count, seed=cfg.seed,
        empirical_mass=emp, predicted_mass=predicted, stderr=stderr,
        z_score=z, ks_statistic=stat, ks_pvalue=pval,
        base_description=base, note=note)


def xi_histogram(scalars: np.ndarray, bins: int = 200) -> dict:
    """Histogram of the chart angle xi over the scalars of SU(n) samples."""
    check_bins(bins)
    xi = _chart_angle(scalars[:, 0])
    counts, edges = np.histogram(xi, bins=bins, range=(0.0, math.pi / 2))
    return {"edges": edges.tolist(), "counts": counts.tolist()}
