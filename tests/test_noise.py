import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import ndtri

from shelab.grid import GridSpec, GridError
from shelab.noise import NoiseSpec, _philox_words, generate, standard_normals, stream_for_level_pair


def small_grid(**kw):
    args = dict(R=1.0, dx=0.1, dt=0.005, T=0.1)
    args.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # deliberately small windows
        return GridSpec(**args)


# Random123 philox4x32_10 known-answer vectors: (counter, key) -> first two
# output words (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3")
@pytest.mark.parametrize(
    "ctr,key,words",
    [
        ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D)),
        ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E)),
        ((0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344), (0xA4093822, 0x299F31D0),
         (0xD16CFE09, 0x94FDCCEB)),
    ],
)
def test_philox_known_answer_vectors(ctr, key, words):
    c = [np.array([v], dtype=np.uint64) for v in ctr]
    w0, w1 = _philox_words(*c, np.uint32(key[0]), np.uint32(key[1]))
    assert (int(w0[0]), int(w1[0])) == words


# The astype-based Philox and normal map that the (2, n) lane layout
# replaced, kept as the reference the lanes must match bit for bit.
_M0, _M1 = np.uint64(0xD2511F53), np.uint64(0xCD9E8D57)
_W0, _W1 = np.uint32(0x9E3779B9), np.uint32(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)


def reference_philox_words(c0, c1, c2, c3, k0, k1):
    c0 = c0.astype(np.uint32)
    c1 = c1.astype(np.uint32)
    c2 = c2.astype(np.uint32)
    c3 = c3.astype(np.uint32)
    with np.errstate(over="ignore"):  # uint32 wraparound is the point
        for _ in range(10):
            p0 = c0.astype(np.uint64) * _M0
            p1 = c2.astype(np.uint64) * _M1
            hi0 = (p0 >> np.uint64(32)).astype(np.uint32)
            lo0 = (p0 & _MASK32).astype(np.uint32)
            hi1 = (p1 >> np.uint64(32)).astype(np.uint32)
            lo1 = (p1 & _MASK32).astype(np.uint32)
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
            k0 = k0 + _W0
            k1 = k1 + _W1
    return c0, c1


def reference_standard_normals(seed, replication, m, j):
    rep = np.asarray(replication, dtype=np.uint64)
    m = np.asarray(m, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    rep, m, j = np.broadcast_arrays(rep, m, j)
    seed = np.uint64(seed)
    k0 = np.uint32(seed & _MASK32)
    k1 = np.uint32(seed >> np.uint64(32))
    w0, w1 = reference_philox_words(j & _MASK32, m & _MASK32, rep & _MASK32, rep >> np.uint64(32), k0, k1)
    bits = (w0.astype(np.uint64) << np.uint64(32)) | w1.astype(np.uint64)
    u = ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    out = ndtri(u)
    return out if out.ndim else float(out)


_U64 = st.integers(0, 2 ** 64 - 1)
# small values, values just past 2^32 (whose high word the counter drops for m and j) and any 64-bit value
_INDEX = st.one_of(st.integers(0, 50), st.integers(2 ** 32 - 2, 2 ** 32 + 2), _U64)


def _index_array(draw, shape):
    return np.array(draw(st.lists(_INDEX, min_size=math.prod(shape), max_size=math.prod(shape))),
                    dtype=np.uint64).reshape(shape)


@st.composite
def normal_arguments(draw):
    """(replication, m, j) as scalars, 1-d arrays, zero-size arrays or a (B,1,1) x (s,1) x (J,) block."""
    layout = draw(st.sampled_from(["scalar", "1-d", "empty", "block"]))
    if layout == "scalar":
        return tuple(draw(_INDEX) for _ in range(3))
    if layout == "block":
        B, s, J = (draw(st.integers(1, 5)) for _ in range(3))
        return _index_array(draw, (B, 1, 1)), _index_array(draw, (s, 1)), _index_array(draw, (J,))
    n = 0 if layout == "empty" else draw(st.integers(1, 12))
    return tuple(_index_array(draw, (n,)) for _ in range(3))


@settings(max_examples=150, deadline=None)
@given(seed=_U64, args=normal_arguments())
def test_standard_normals_match_the_astype_reference_bit_for_bit(seed, args):
    got = standard_normals(seed, *args)
    want = reference_standard_normals(seed, *args)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=60, deadline=None)
@given(ctr=st.lists(_U64, min_size=4, max_size=4), k0=st.integers(0, 2 ** 32 - 1), k1=st.integers(0, 2 ** 32 - 1))
def test_philox_words_match_the_astype_reference(ctr, k0, k1):
    c = [np.array([v], dtype=np.uint64) for v in ctr]
    got = _philox_words(*c, np.uint32(k0), np.uint32(k1))
    want = reference_philox_words(*c, np.uint32(k0), np.uint32(k1))
    assert [w.dtype for w in got] == [np.uint32, np.uint32]
    assert [int(w[0]) for w in got] == [int(w[0]) for w in want]


def test_regeneration_is_bit_identical():
    spec = NoiseSpec(seed=987654321, replication=3, grid=small_grid())
    a = generate(spec)
    b = generate(spec)
    assert np.array_equal(a.increments, b.increments)
    assert a.shape == (spec.grid.n_steps, spec.grid.n_points)


def test_increments_are_read_only():
    field = generate(NoiseSpec(seed=1, replication=0, grid=small_grid()))
    with pytest.raises(ValueError):
        field.increments[0, 0] = 1.0


def test_order_independence_under_permutation():
    spec = NoiseSpec(seed=42, replication=5, grid=small_grid())
    field = generate(spec)
    M, J = field.shape
    rng = np.random.default_rng(0)
    ms = rng.integers(0, M, size=500)
    js = rng.integers(0, J, size=500)
    scattered = standard_normals(42, 5, ms, js) * math.sqrt(spec.grid.dt * spec.grid.dx)
    assert np.array_equal(scattered, field.increments[ms, js])


def test_cell_variance_scales_with_grid():
    g1 = small_grid(dx=0.1, dt=0.005)
    g2 = small_grid(dx=0.05, dt=0.002)
    z = standard_normals(7, 0, np.arange(200)[:, None], np.arange(500)[None, :])
    for g in (g1, g2):
        dw = z * math.sqrt(g.dt * g.dx)
        assert np.var(dw) == pytest.approx(g.dt * g.dx, rel=0.02)


# one million increments on a (2000 x 500) lattice with dt=1e-3, dx=0.05
@pytest.fixture(scope="module")
def increments():
    z = standard_normals(20240601, 0, np.arange(2000)[:, None], np.arange(500)[None, :])
    return z * math.sqrt(1e-3 * 0.05)


class TestDistribution:
    def test_mean_within_clt_band(self, increments):
        sd = math.sqrt(1e-3 * 0.05)
        assert abs(float(increments.mean())) <= 4.0 * sd / 1000.0

    def test_variance_within_one_percent(self, increments):
        # chi-square concentration: sd of the sample variance is ~0.14% here
        assert float(increments.var()) == pytest.approx(5e-5, rel=0.01)

    def test_kolmogorov_smirnov_on_standardised_sample(self):
        z = standard_normals(77, 0, np.arange(1000)[:, None], np.arange(100)[None, :]).ravel()
        p = stats.kstest(z, "norm").pvalue
        assert p > 1e-3


def test_level_pair_views_share_increments_exactly():
    spec = NoiseSpec(seed=5, replication=2, grid=small_grid())
    a, b = stream_for_level_pair(spec)
    assert a.increments is b.increments or np.array_equal(a.increments, b.increments)
    assert np.array_equal(a.increments, b.increments)


def test_distinct_replications_differ_and_decorrelate():
    g = small_grid(R=2.5, dx=0.05, dt=0.001, T=0.25)
    f0 = generate(NoiseSpec(seed=11, replication=0, grid=g))
    f1 = generate(NoiseSpec(seed=11, replication=1, grid=g))
    assert not np.array_equal(f0.increments, f1.increments)
    a = f0.increments.ravel()
    b = f1.increments.ravel()
    corr = float(np.corrcoef(a, b)[0, 1])
    assert abs(corr) <= 4.0 / math.sqrt(a.size)


def test_seed_and_replication_bounds():
    g = small_grid()
    with pytest.raises(ValueError):
        NoiseSpec(seed=-1, replication=0, grid=g)
    with pytest.raises(ValueError):
        NoiseSpec(seed=2 ** 64, replication=0, grid=g)
    with pytest.raises(ValueError):
        NoiseSpec(seed=0, replication=-2, grid=g)


def test_degenerate_grids_rejected():
    with pytest.raises(GridError):
        small_grid(T=0.001, dt=0.005)  # shorter than one step
    with pytest.raises(GridError):
        small_grid(dt=0.05)  # violates dt <= dx^2
    with pytest.raises(GridError, match="2 cell"):
        small_grid(R=0.4, dx=0.8)  # two cells: no interior cell for the stencil
