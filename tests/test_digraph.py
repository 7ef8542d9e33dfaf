"""Graph type, sampling, the test-side SCC oracle, and the two package oracles."""

from fractions import Fraction
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from randqnet import (
    CostGuardError,
    DirectedGraph,
    estimate_pc_monte_carlo,
    exact_pc_bruteforce,
    sample_digraph,
    strongly_connected_counts,
    wilson_interval,
)
import randqnet.digraph as digraph_module
from randqnet.digraph import arc_index, arc_pairs, sample_arc_bits
from conftest import is_strongly_connected, naive_strongly_connected, strongly_connected_components


# --- graph type ---------------------------------------------------------------

def test_arc_layout_row_major_without_diagonal():
    assert arc_pairs(3) == [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    assert [arc_index(3, u, v) for u, v in arc_pairs(3)] == list(range(6))


def test_rejects_self_loops_and_out_of_range():
    with pytest.raises(ValueError):
        DirectedGraph(3, {(1, 1)})
    with pytest.raises(ValueError):
        DirectedGraph(3, {(0, 3)})
    with pytest.raises(ValueError):
        DirectedGraph(0, set())


@given(st.integers(2, 5), st.data())
def test_mask_round_trip(n, data):
    mask = data.draw(st.integers(0, 2 ** (n * (n - 1)) - 1))
    g = DirectedGraph.from_mask(n, mask)
    assert g.mask == mask
    assert DirectedGraph(n, g.arcs).mask == mask


def test_complete_and_cycle():
    assert len(DirectedGraph.complete(4).arcs) == 12
    c = DirectedGraph.cycle(4)
    assert c.arcs == {(0, 1), (1, 2), (2, 3), (3, 0)}


# --- sampling -------------------------------------------------------------------

def test_sample_endpoints():
    assert sample_digraph(5, 1, rng=3).arcs == DirectedGraph.complete(5).arcs
    assert sample_digraph(5, 0, rng=3).arcs == frozenset()


def test_sample_deterministic_per_seed():
    g1 = sample_digraph(4, Fraction(1, 2), rng=12345)
    g2 = sample_digraph(4, Fraction(1, 2), rng=12345)
    g3 = sample_digraph(4, Fraction(1, 2), rng=54321)
    assert g1.arcs == g2.arcs
    assert g1.arcs != g3.arcs  # overwhelmingly likely; pinned by the fixed seeds


def test_sample_rejects_bad_p():
    with pytest.raises(ValueError):
        sample_digraph(3, 1.5, rng=0)


@pytest.mark.parametrize("n, masks", [
    (2, [2, 0, 2, 3, 2, 0, 1, 1]),
    (5, [21218, 535477, 287491, 560912, 307024, 533837, 816280, 4431]),
])
def test_sample_arc_bits_rows_are_successive_graph_draws(n, masks):
    # the masks of eight successive sample_digraph calls on one stream,
    # recorded before the bulk draw existed: its rows must give the same
    # graphs for a Generator and for an int seed
    rng = np.random.default_rng(2024)
    assert [sample_digraph(n, 0.3, rng).mask for _ in range(8)] == masks
    for source in (np.random.default_rng(2024), 2024):
        rows = sample_arc_bits(n, 0.3, 8, source)
        assert rows.shape == (8, n * (n - 1))
        assert [int(row @ (1 << np.arange(n * (n - 1)))) for row in rows] == masks


# --- SCC decomposition ------------------------------------------------------------

def test_scc_cycle_is_single_component():
    scc = strongly_connected_components(DirectedGraph.cycle(3))
    assert len(scc.components) == 1
    assert scc.components[0] == frozenset({0, 1, 2})
    assert scc.condensation == frozenset()


def test_scc_two_joined_two_cycles():
    g = DirectedGraph(4, {(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)})
    scc = strongly_connected_components(g)
    assert sorted(sorted(c) for c in scc.components) == [[0, 1], [2, 3]]
    assert len(scc.condensation) == 1


def test_scc_single_vertex():
    scc = strongly_connected_components(DirectedGraph(1, set()))
    assert scc.components == (frozenset({0}),)


def test_scc_partitions_vertices_and_condensation_acyclic(rng):
    for _ in range(200):
        n = int(rng.integers(2, 12))
        g = sample_digraph(n, rng.uniform(0.05, 0.6), rng)
        scc = strongly_connected_components(g)
        seen = sorted(v for comp in scc.components for v in comp)
        assert seen == list(range(n))
        # condensation respects reverse topological order: arcs point from
        # later-listed components to earlier-listed ones
        assert all(cu > cv for cu, cv in scc.condensation)


def test_is_strongly_connected_basics():
    for n in range(2, 7):
        assert is_strongly_connected(DirectedGraph.complete(n))
        assert not is_strongly_connected(DirectedGraph(n, set()))
    star_out = DirectedGraph(4, {(0, 1), (0, 2), (0, 3)})
    assert not is_strongly_connected(star_out)


def test_agrees_with_naive_reachability_exhaustively():
    for n in range(1, 5):
        for mask in range(1 << (n * (n - 1))):
            g = DirectedGraph.from_mask(n, mask)
            assert is_strongly_connected(g) == naive_strongly_connected(g)


def test_agrees_with_naive_reachability_random_large(rng):
    for _ in range(1000):
        n = int(rng.integers(5, 65))
        g = sample_digraph(n, rng.uniform(0.5, 2.5) * np.log(n) / n, rng)
        assert is_strongly_connected(g) == naive_strongly_connected(g)


# --- exhaustive oracle ---------------------------------------------------------------

def test_bruteforce_two_vertices_symbolic():
    for p in (Fraction(1, 7), Fraction(1, 2), Fraction(5, 6)):
        assert exact_pc_bruteforce(2, p) == p * p
    # one vertex: the general sum has the single term p^0 q^0, in the type of p
    for p in (Fraction(1, 3), 0.3):
        value = exact_pc_bruteforce(1, p)
        assert value == 1 and type(value) is type(p)


def test_bruteforce_three_vertices():
    # 18 strongly connected digraphs out of 64
    assert exact_pc_bruteforce(3, Fraction(1, 2)) == Fraction(9, 32)


def test_counts_match_per_graph_tarjan_small():
    for n in (1, 2, 3, 4):
        n_arcs = n * (n - 1)
        expected = [0] * (n_arcs + 1)
        for mask in range(1 << n_arcs):
            g = DirectedGraph.from_mask(n, mask)
            if is_strongly_connected(g):
                expected[bin(mask).count("1")] += 1
        assert list(strongly_connected_counts(n)) == expected


def test_counts_match_per_graph_tarjan_sampled_n5(rng):
    counts = strongly_connected_counts(5)
    masks = rng.integers(0, 1 << 20, size=3000)
    for mask in masks:
        g = DirectedGraph.from_mask(5, int(mask))
        by_kernel = is_strongly_connected(g)
        # membership in the aggregated counts cannot be read back per graph,
        # so recheck the kernel flag against Tarjan directly
        assert by_kernel == naive_strongly_connected(g)
    assert sum(counts) == 565080  # pinned after the exhaustive n<=4 cross-checks


def test_bruteforce_cost_guard():
    with pytest.raises(CostGuardError):
        exact_pc_bruteforce(6, Fraction(1, 2))


# --- Wilson interval -------------------------------------------------------------------

def test_wilson_interval_contains_proportion_and_is_clamped():
    for hits, samples in ((0, 10), (10, 10), (3, 17), (500, 1000)):
        lo, hi = wilson_interval(hits, samples)
        assert 0.0 <= lo <= hits / samples <= hi <= 1.0


def test_wilson_interval_symmetry():
    lo, hi = wilson_interval(300, 1000)
    lo2, hi2 = wilson_interval(700, 1000)
    assert lo == pytest.approx(1 - hi2, abs=1e-12)
    assert hi == pytest.approx(1 - lo2, abs=1e-12)


def test_wilson_hand_computed():
    # z = 2.5758293035489004 at 99%: hits=80, samples=100
    z = 2.5758293035489004
    zz = z * z
    center = (80 + zz / 2) / (100 + zz)
    half = z * (80 * 20 / 100 + zz / 4) ** 0.5 / (100 + zz)
    lo, hi = wilson_interval(80, 100)
    assert (lo, hi) == pytest.approx((center - half, center + half), abs=1e-15)


def test_wilson_z_is_the_two_sided_99_percent_normal_quantile():
    from statistics import NormalDist

    assert digraph_module._WILSON_Z == NormalDist().inv_cdf(0.995)


def test_wilson_rejects_bad_inputs():
    with pytest.raises(ValueError):
        wilson_interval(5, 3)
    with pytest.raises(ValueError):
        wilson_interval(-1, 3)


# --- Monte Carlo -----------------------------------------------------------------------

def test_mc_endpoints_are_exact():
    assert estimate_pc_monte_carlo(4, 1, 5000, seed=1).estimate == 1.0
    assert estimate_pc_monte_carlo(4, 0, 5000, seed=1).estimate == 0.0
    assert estimate_pc_monte_carlo(1, Fraction(1, 2), 100, seed=1).estimate == 1.0
    # every lane of a ragged last word, and of a ragged last chunk, counts once
    for samples in (1, 63, 65, (1 << 18) + 77):
        assert estimate_pc_monte_carlo(4, 1, samples, seed=1).hits == samples
        assert estimate_pc_monte_carlo(4, 0, samples, seed=1).hits == 0


def test_mc_deterministic_and_worker_independent():
    # 600 000 samples are three 2^18-graph chunks
    assert -(-600_000 // digraph_module._MC_CHUNK) == 3
    a = estimate_pc_monte_carlo(5, 0.4, 600_000, seed=99)
    b = estimate_pc_monte_carlo(5, 0.4, 600_000, seed=99)
    assert (a.hits, a.lo, a.hi) == (b.hits, b.lo, b.hi)
    d = estimate_pc_monte_carlo(5, 0.4, 600_000, seed=100)
    assert d.hits != a.hits


def test_mc_starts_no_thread(monkeypatch):
    # three chunks, the last one ragged, drawn in the calling thread; the
    # hits are those the estimator gave with one, two and three workers
    def no_thread(self):
        raise AssertionError("started a thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert estimate_pc_monte_carlo(5, 0.4, 600_000, seed=99).hits == 171447


def test_mc_memory_guard_refuses_before_drawing(monkeypatch):
    # n = 17 000: the plane of the smallest, 64-graph chunk of 288 983 000 arcs needs ~2.3 GB
    def no_draws(*args):
        raise AssertionError("drew before the guard refused")

    with monkeypatch.context() as m:
        m.setattr(digraph_module, "_mc_chunk_hits", no_draws)
        with pytest.raises(CostGuardError, match=r"~2\.3 GB .*smallest chunk of 64 graphs"):
            estimate_pc_monte_carlo(17_000, 0.5, 10 ** 6, seed=1)
    # a large n whose short chunk fits is drawn for real
    est = estimate_pc_monte_carlo(200, 0.5, 64, seed=1)
    assert est.samples == 64


def test_mc_chunk_sized_from_memory_budget(monkeypatch):
    # the plan only, nothing is drawn: 1 plane x 8 B x 89 700 arcs x 2^18/64
    # words = 2.9 GB, so n = 300 runs 2^17-graph chunks of 1.5 GB
    assert [digraph_module._mc_chunk(n) for n in (2, 120, 247)] == [1 << 18] * 3
    assert [digraph_module._mc_chunk(n) for n in (248, 300)] == [1 << 17] * 2
    chunk_sizes = []

    def seeded_hits(n, threshold, size, seed):
        chunk_sizes.append(size)
        return int(seed.generate_state(1)[0]) % (size + 1)

    monkeypatch.setattr(digraph_module, "_mc_chunk_hits", seeded_hits)
    estimate_pc_monte_carlo(300, 0.5, 10 ** 6, seed=1)
    assert chunk_sizes == [1 << 17] * 7 + [10 ** 6 - 7 * (1 << 17)]


def test_mc_memory_guard_admits_n120_with_one_worker(monkeypatch):
    # the estimate only, nothing is drawn: 1 plane x 8 B x 14 280 arcs x
    # 4096 words = 0.47 GB per chunk
    chunk_sizes = []

    def record_chunk(n, threshold, size, seed):
        chunk_sizes.append(size)
        return 0

    monkeypatch.setattr(digraph_module, "_mc_chunk_hits", record_chunk)
    est = estimate_pc_monte_carlo(120, 0.5, 10 ** 6, seed=1)
    assert est.samples == 10 ** 6
    assert chunk_sizes == [1 << 18] * 3 + [10 ** 6 - 3 * (1 << 18)]


def test_mc_keeps_no_per_chunk_state(monkeypatch):
    # 20 000 chunks, nothing drawn: each chunk's seed is built when the chunk
    # is drawn; a spawned seed list with a plan and a future per chunk
    # traced about 40 MB
    seeds = []

    def record_chunk(n, threshold, size, seed):
        if len(seeds) < 3:
            seeds.append(seed.spawn_key)
        return size

    monkeypatch.setattr(digraph_module, "_mc_chunk_hits", record_chunk)
    samples = 20_000 * digraph_module._mc_chunk(7)
    tracemalloc.start()
    try:
        est = estimate_pc_monte_carlo(7, 0.5, samples, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.hits == samples
    assert peak < 4e6
    assert seeds[:3] == [(0,), (1,), (2,)]


def _planes_oracle(seed: int, threshold: int, shape: tuple) -> np.ndarray:
    """Bits U < threshold, U assembled lane by lane from complemented raw digits.

    A fresh PCG64(seed) walks the flat plane in blocks of ``_MC_BLOCK``
    words. Each block draws one raw array per top digit of U, from digit 15
    down to digit 8 or to the threshold's lowest set bit if that is higher;
    then, if the threshold has set digits below 2^8, one array per low digit
    from its lowest set bit up to digit 7, over the block's words that hold
    a lane whose top digits equal the threshold's, in index order. Digit i
    of a lane's variate is the complement of the lane's bit in the array
    drawn for digit i; lane j of a word is its bit j. Digits never drawn for
    a lane cannot change its comparison, so they are taken as zero.
    """
    bitgen = np.random.PCG64(seed)
    lanes = np.arange(64, dtype=np.uint64)
    low = (threshold & -threshold).bit_length() - 1
    stop = max(low, 8)

    def digit_values(words: int, digit: int) -> np.ndarray:
        bits = (bitgen.random_raw(words)[:, None] >> lanes) & np.uint64(1)
        return (1 - bits.astype(np.int64)) << digit

    words = int(np.prod(shape))
    u = np.zeros((words, 64), dtype=np.int64)
    for start in range(0, words, digraph_module._MC_BLOCK):
        block = u[start:start + digraph_module._MC_BLOCK]
        for digit in range(15, stop - 1, -1):
            block += digit_values(len(block), digit)
        if low < 8:
            tied = np.flatnonzero((block >> 8 == threshold >> 8).any(axis=1))
            for digit in range(low, 8):
                block[tied] += digit_values(len(tied), digit)
    below = (u < threshold).astype(np.uint64)
    return (below << lanes).sum(axis=-1, dtype=np.uint64).reshape(shape)


@pytest.mark.parametrize("threshold", [1, 3, 19661, 32768, 45875, 49152, 65535])
def test_bernoulli_planes_equal_u_below_threshold(threshold):
    # one block, and three 8192-word blocks of which the last is ragged
    for shape in ((7, 33), (5, 3500)):
        for seed in (0, 12345):
            planes = digraph_module._bernoulli_planes(np.random.PCG64(seed), threshold, shape)
            assert planes.dtype == np.uint64 and planes.shape == shape
            assert np.array_equal(planes, _planes_oracle(seed, threshold, shape))


class _CountingBitGenerator:
    """A PCG64 whose ``random_raw`` counts the raw words it draws."""

    def __init__(self, seed: int):
        self.inner = np.random.PCG64(seed)
        self.words = 0

    def random_raw(self, size):
        self.words += int(np.prod(size))
        return self.inner.random_raw(size)


def test_bernoulli_planes_raw_words_per_plane_word():
    # an odd threshold draws the top byte for every word and the low byte
    # only where a lane ties, 8 + 8 (1 - (255/256)^64) = 9.77 words per word
    shape = (380, 4096)
    ratios = {}
    for threshold in (19661, 32768):
        bitgen = _CountingBitGenerator(5)
        digraph_module._bernoulli_planes(bitgen, threshold, shape)
        ratios[threshold] = bitgen.words / np.prod(shape)
    assert ratios[19661] <= 10.0 and ratios[32768] == 1.0


def test_bernoulli_planes_at_one_half_are_the_raw_words():
    shape = (90, 4096)
    planes = digraph_module._bernoulli_planes(np.random.PCG64(8), 32768, shape)
    assert np.array_equal(planes, np.random.PCG64(8).random_raw(shape))


def test_mc_interval_contains_exact_value():
    exact = float(exact_pc_bruteforce(5, Fraction(1, 3)))
    est = estimate_pc_monte_carlo(5, Fraction(1, 3), 200_000, seed=7)
    assert est.lo <= exact <= est.hi
    assert est.samples == 200_000
    assert 0 <= est.hits <= est.samples


def test_mc_one_vertex_takes_the_general_path():
    # no arcs: nothing is drawn and every lane is strongly connected
    for samples in (1, 65, 2 ** 18 + 77):
        est = estimate_pc_monte_carlo(1, 0.3, samples, seed=5)
        assert est.hits == est.samples == samples
        assert est.estimate == 1.0


def test_mc_odd_sample_counts():
    est = estimate_pc_monte_carlo(3, 0.5, 12_345, seed=11)
    assert est.samples == 12_345
    assert 0 <= est.hits <= 12_345
    # estimate consistent with the exact 9/32 to a loose stochastic margin
    assert abs(est.estimate - 9 / 32) < 0.02
