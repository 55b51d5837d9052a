import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.random import Philox
from scipy import stats
from scipy.special import ndtri

from shelab import noise
from shelab.grid import GridSpec, GridError
from shelab.noise import NoiseSpec, _normal_quantiles, _uniforms, generate, standard_normals, stream_for_level_pair


def small_grid(**kw):
    args = dict(R=1.0, dx=0.1, dt=0.005, T=0.1)
    args.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # deliberately small windows
        return GridSpec(**args)


M64 = 2 ** 64 - 1


def reference_philox4x64_10(counter, key):
    """Philox4x64-10 in Python ints: ten rounds, the key bumped by the Weyl constants after each.

    Salmon, Moraes, Dror and Shaw, "Parallel random numbers: as easy as
    1, 2, 3", SC 2011.  A round multiplies words 0 and 2 by (M0, M1) into
    128-bit products and sets ``(hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0)``.
    """
    x0, x1, x2, x3 = counter
    k0, k1 = key
    for _ in range(10):
        p0 = 0xD2E7470EE14C6C93 * x0
        p1 = 0xCA5A826395121157 * x2
        x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 & M64, (p0 >> 64) ^ x3 ^ k1, p0 & M64
        k0 = (k0 + 0x9E3779B97F4A7C15) & M64
        k1 = (k1 + 0xBB67AE8584CAA73B) & M64
    return x0, x1, x2, x3


def counter_words(c):
    """The 256-bit counter ``c`` as four little-endian 64-bit words."""
    return [(c >> s) & M64 for s in (0, 64, 128, 192)]


def reference_horner(coef, r):
    acc = r * coef[0]
    for c in coef[1:-1]:
        acc = (acc + c) * r
    return acc + coef[-1]


def reference_quantile(u):
    """AS241 on one Python float, in the vectorised map's operation order (``math.frexp``, ``math.sqrt``)."""
    q = u - 0.5
    r = noise._SPLIT - q * q
    if not r < 0.0:
        return q * (reference_horner(noise._CENTRAL[0], r) / reference_horner(noise._CENTRAL[1], r))
    m, e = math.frexp(0.5 - abs(q))
    s = (m - noise._SQRT_HALF) / (m + noise._SQRT_HALF)
    series = reference_horner(noise._LOG_SERIES, s * s) * s
    r = math.sqrt((0.5 - e) * noise._LN2 - (series + series))
    if r > noise._FAR_START:
        num, den = noise._FAR
        r = r - noise._FAR_START
    else:
        num, den = noise._TAIL
        r = r - noise._TAIL_MID
    return math.copysign(reference_horner(num, r) / reference_horner(den, r), q)


def reference_normal(seed, rep, m, j, n_points):
    """Draw (m, j): word j % 4 of the block at counter m * ceil(J / 4) + j // 4, key (seed, rep)."""
    c = m * -(-n_points // 4) + j // 4
    word = reference_philox4x64_10(counter_words(c), (seed, rep))[j % 4]
    return reference_quantile(((word >> 12) + 0.5) * 2.0 ** -52)


# Random123 philox4x64_10 known-answer vectors (kat_vectors): (counter, key) -> the four output words
@pytest.mark.parametrize(
    "ctr,key,words",
    [
        ((0, 0, 0, 0), (0, 0),
         (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC, 0xD7E772CEE186176B, 0x7E68B68AEC7BA23B)),
        ((M64,) * 4, (M64,) * 2,
         (0x87B092C3013FE90B, 0x438C3C67BE8D0224, 0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0)),
    ],
)
def test_reference_matches_the_published_known_answers(ctr, key, words):
    assert reference_philox4x64_10(ctr, key) == words


@pytest.mark.parametrize("counter", [0, 1, M64 - 1, M64, 2 ** 64, 2 ** 256 - 2, 2 ** 256 - 1])
@pytest.mark.parametrize("key", [(0, 0), (M64, M64), (12345, 2 ** 63)])
def test_random_raw_starts_one_block_past_its_counter(counter, key):
    # numpy's generator draws the blocks c + 1, c + 2, ...: counter M64 carries
    # into word 1, and 2^256 - 1 wraps to block 0
    gen = Philox(counter=np.array(counter_words(counter), dtype=np.uint64), key=np.array(key, dtype=np.uint64))
    want = [w for c in (counter + 1, counter + 2) for w in reference_philox4x64_10(counter_words(c % 2 ** 256), key)]
    assert gen.random_raw(8).tolist() == want


def reference_normals(seed, reps, ms, js, n_points):
    reps, ms, js = np.broadcast_arrays(*(np.asarray(a, dtype=np.uint64) for a in (reps, ms, js)))
    return np.array([reference_normal(seed, int(r), int(m), int(j), n_points)
                     for r, m, j in zip(reps.ravel(), ms.ravel(), js.ravel())]).reshape(reps.shape)


# keys and indices near 0, near 2^64 - 1 and anywhere in 64 bits
_U64 = st.integers(0, M64)
_EDGE = st.one_of(st.integers(0, 40), st.integers(M64 - 40, M64), _U64)


@st.composite
def step_blocks(draw):
    """The solver's layout: (B, 1, 1) replications x s consecutive steps x every cell of J.

    The first step puts the counter near 0, near 2^64 - 1 (so that the block
    may carry into counter word 1) or anywhere.
    """
    n_points = draw(st.integers(1, 13))
    per_step = -(-n_points // 4)
    s = draw(st.integers(1, 4))
    m0 = draw(st.one_of(st.integers(0, 5), st.integers(M64 // per_step - 4, M64 // per_step), _U64))
    m0 = min(m0, M64 + 1 - s)
    reps = draw(st.lists(_EDGE, min_size=1, max_size=3))
    return (n_points, np.array(reps, dtype=np.uint64)[:, None, None],
            np.arange(m0, m0 + s, dtype=np.uint64)[:, None], np.arange(n_points, dtype=np.uint64))


@settings(max_examples=60, deadline=None)
@given(seed=_EDGE, block=step_blocks())
def test_step_blocks_match_the_python_int_reference(seed, block):
    n_points, reps, steps, cells = block
    got = standard_normals(seed, reps, steps, cells, n_points)
    assert got.shape == (reps.size, steps.size, n_points)
    assert got.tobytes() == reference_normals(seed, reps, steps, cells, n_points).tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=_EDGE, n_points=st.integers(1, 9), data=st.data())
def test_scattered_draws_match_the_python_int_reference(seed, n_points, data):
    # every element its own replication, step and cell, as scalars or a 1-d array
    n = data.draw(st.integers(0, 6))
    reps = np.array(data.draw(st.lists(_EDGE, min_size=n, max_size=n)), dtype=np.uint64)
    ms = np.array(data.draw(st.lists(_EDGE, min_size=n, max_size=n)), dtype=np.uint64)
    js = np.array(data.draw(st.lists(st.integers(0, n_points - 1), min_size=n, max_size=n)), dtype=np.uint64)
    got = standard_normals(seed, reps, ms, js, n_points)
    assert got.tobytes() == reference_normals(seed, reps, ms, js, n_points).tobytes()
    if n:
        assert standard_normals(seed, int(reps[0]), int(ms[0]), int(js[0]), n_points) == got[0]


def test_a_block_across_the_counter_carry_matches_the_reference():
    # J = 8 puts two counters in a step, so steps 2^63 - 1 and 2^63 span
    # counters 2^64 - 2 to 2^64 + 1, across the carry into word 1
    steps = np.array([[2 ** 63 - 1], [2 ** 63]], dtype=np.uint64)
    cells = np.arange(8, dtype=np.uint64)
    got = standard_normals(3, np.uint64(M64), steps, cells, 8)
    assert got.tobytes() == reference_normals(3, M64, steps, cells, 8).tobytes()


def test_the_replication_may_sit_on_any_axis():
    got = standard_normals(5, np.arange(3, dtype=np.uint64), np.arange(4)[:, None], 2, 7)
    assert got.flags.c_contiguous
    assert got.tobytes() == reference_normals(5, np.arange(3), np.arange(4)[:, None], 2, 7).tobytes()


def test_extreme_words_map_strictly_inside_the_unit_interval():
    # the largest word once mapped to (2^53 - 1 + 0.5) 2^-53, which rounds to 1.0 (ndtri: +inf)
    bits = np.array([0, 2 ** 12 - 1, M64 - (2 ** 12 - 1), M64], dtype=np.uint64)
    u = _uniforms(bits)
    assert u.tolist() == [2.0 ** -53, 2.0 ** -53, 1.0 - 2.0 ** -53, 1.0 - 2.0 ** -53]
    z = _normal_quantiles(u)
    assert np.all(np.isfinite(z)) and z[0] == -z[-1] and z[-1] < 8.21


def grid_uniforms(centre, width):
    """The stream's uniforms (odd multiples of 2^-53) within ``width`` of ``centre`` on both sides."""
    k = round(centre * 2.0 ** 52)
    return [(2 * f + 1) * 2.0 ** -53 for f in range(max(0, k - width), min(2 ** 52, k + width))]


def map_inputs():
    """2^16 uniforms from stream words, both sides of |q| = 0.425 and of sqrt(-log p) = 5, and the extremes."""
    words = Philox(key=np.array([17, 3], dtype=np.uint64)).random_raw(1 << 16)
    u = _uniforms(words).tolist()
    for centre in (0.075, 0.925, math.exp(-25.0), 1.0 - math.exp(-25.0)):
        u += grid_uniforms(centre, 64)
    # one uniform per binade of p down to 2^-53, on each side
    tails = [(2 * f + 1) * 2.0 ** -53 for f in [0] + [2 ** b + 7 for b in range(50)]]
    return np.array(u + tails + [1.0 - p for p in tails] + [0.5 - 2.0 ** -53, 0.5 + 2.0 ** -53])


def test_map_matches_the_scalar_mirror_bit_for_bit():
    u = map_inputs()
    q = np.abs(u - 0.5)
    p = 0.5 - q
    # every branch is reached from both sides of its switch
    assert (q <= 0.425).sum() > 1000 and (q > 0.425).sum() > 1000
    assert ((p < math.exp(-25.0)) & (p > 1e-12)).any() and ((p > math.exp(-25.0)) & (p < 1e-10)).any()
    got = _normal_quantiles(u.copy())
    want = np.array([reference_quantile(v) for v in u.tolist()])
    assert got.tobytes() == want.tobytes()


def test_map_agrees_with_ndtri():
    u = map_inputs()
    want = ndtri(u)
    got = _normal_quantiles(u.copy())
    assert np.all(np.abs(got - want) <= 4e-15 * np.abs(want))


def test_a_draw_depends_on_the_grid_width_only_past_step_0():
    cells = np.arange(5, dtype=np.uint64)
    first = standard_normals(9, 1, 0, cells)
    assert first.tobytes() == standard_normals(9, 1, 0, cells, 5).tobytes() == standard_normals(9, 1, 0, cells, 9).tobytes()
    # J = 5 and 8 both give two counters a step, J = 9 three
    assert standard_normals(9, 1, 1, cells, 5).tobytes() == standard_normals(9, 1, 1, cells, 8).tobytes()
    assert not np.array_equal(standard_normals(9, 1, 1, cells, 5), standard_normals(9, 1, 1, cells, 9))


def test_out_of_grid_indices_are_rejected():
    with pytest.raises(ValueError, match="n_points is required"):
        standard_normals(1, 0, np.array([0, 1]), 0)
    with pytest.raises(ValueError, match="cell index 5 is not below n_points = 5"):
        standard_normals(1, 0, 0, np.arange(6), 5)


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
    scattered = standard_normals(42, 5, ms, js, J) * math.sqrt(spec.grid.dt * spec.grid.dx)
    assert np.array_equal(scattered, field.increments[ms, js])


def test_cell_variance_scales_with_grid():
    g1 = small_grid(dx=0.1, dt=0.005)
    g2 = small_grid(dx=0.05, dt=0.002)
    z = standard_normals(7, 0, np.arange(200)[:, None], np.arange(500)[None, :], 500)
    for g in (g1, g2):
        dw = z * math.sqrt(g.dt * g.dx)
        assert np.var(dw) == pytest.approx(g.dt * g.dx, rel=0.02)


# one million increments on a (2000 x 500) lattice with dt=1e-3, dx=0.05
@pytest.fixture(scope="module")
def increments():
    z = standard_normals(20240601, 0, np.arange(2000)[:, None], np.arange(500)[None, :], 500)
    return z * math.sqrt(1e-3 * 0.05)


class TestDistribution:
    def test_mean_within_clt_band(self, increments):
        sd = math.sqrt(1e-3 * 0.05)
        assert abs(float(increments.mean())) <= 4.0 * sd / 1000.0

    def test_variance_within_one_percent(self, increments):
        # chi-square concentration: sd of the sample variance is ~0.14% here
        assert float(increments.var()) == pytest.approx(5e-5, rel=0.01)

    def test_kolmogorov_smirnov_on_standardised_sample(self):
        z = standard_normals(77, 0, np.arange(1000)[:, None], np.arange(100)[None, :], 100).ravel()
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
