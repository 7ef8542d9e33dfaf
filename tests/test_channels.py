"""CNOT conjugation, transfer matrices, and asymptotic channel behavior."""

import itertools
import math
import sys
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import randqnet.channels as ch
from randqnet import (
    ChannelSpec,
    DirectedGraph,
    asymptotic_channel,
    asymptotic_channel_exact,
    asymptotic_state,
    averaged_channel_ptm,
    channel_ptm,
    cnot_conjugate,
    convergence_trace,
    hs_distance,
    index_to_word,
    index_words,
    state_mixed,
    state_plus,
    state_zero,
    static_average_iterate,
    static_convergence_traces,
)
from randqnet.digraph import CostGuardError, arc_pairs
from conftest import (
    dense_cnot,
    dense_power_distances,
    is_strongly_connected,
    kron_pauli,
    link_sum_moments,
    pauli_coeffs,
    ptm_of_unitary,
)


def _uniform(g: DirectedGraph) -> np.ndarray:
    return channel_ptm(ChannelSpec.uniform(g))


def _graph_weight(p: float, n: int, mask: int) -> float:
    n_arcs = n * (n - 1)
    e = bin(mask).count("1")
    return p ** e * (1 - p) ** (n_arcs - e)


# --- Pauli words -----------------------------------------------------------------

@given(st.integers(1, 4), st.data())
def test_word_index_round_trip(n, data):
    # the qubit-q letter is the q-th base-4 digit of the index
    idx = data.draw(st.integers(0, 4 ** n - 1))
    word = index_to_word(idx, n)
    assert len(word) == n
    assert sum("IXYZ".index(ch) * 4 ** q for q, ch in enumerate(word)) == idx


def test_all_identity_word_is_index_zero():
    assert index_to_word(0, 3) == "III"


def test_words_past_31_letters_are_refused(monkeypatch):
    # 4^31 - 1 is the largest index an int64 holds; longer words are refused
    # by one check, and cnot_conjugate refuses before it computes an image
    assert index_to_word(4 ** 31 - 1, 31) == "Z" * 31

    def no_images(*args):
        raise AssertionError("computed a CNOT image of a 32-letter word")

    monkeypatch.setattr(ch, "_cnot_images", no_images)
    refusals = (lambda: index_to_word(4 ** 32 - 1, 32), lambda: index_words([0], 32),
                lambda: cnot_conjugate("X" * 32, 0, 31))
    for call in refusals:
        with pytest.raises(ValueError, match="^a word has an int64 index only up to 31 letters$"):
            call()


# --- CNOT conjugation ---------------------------------------------------------------

def test_cnot_conjugate_examples():
    assert cnot_conjugate("XI", 0, 1) == ch.SignedPauli("XX", 1)
    assert cnot_conjugate("II", 0, 1) == ch.SignedPauli("II", 1)
    assert cnot_conjugate("XZ", 0, 1) == ch.SignedPauli("YY", -1)


def test_cnot_conjugate_rejects_equal_control_target():
    with pytest.raises(ValueError):
        cnot_conjugate("XX", 1, 1)


def test_cnot_conjugate_takes_words_with_an_int64_index():
    # the word goes through its index, which holds 31 letters at most
    assert cnot_conjugate("X" * 31, 0, 30) == ch.SignedPauli("X" * 30 + "I", 1)
    with pytest.raises(ValueError, match="31 letters"):
        cnot_conjugate("X" * 32, 0, 31)


def test_cnot_conjugate_is_involution():
    for word in ("".join(w) for w in itertools.product("IXYZ", repeat=2)):
        sp = cnot_conjugate(word, 0, 1)
        back = cnot_conjugate(sp.word, 0, 1)
        assert back.word == word
        assert back.sign * sp.sign == 1


def test_cnot_conjugate_leaves_spectator_qubits():
    sp = cnot_conjugate("XZY", 0, 2)
    assert sp.word[1] == "Z"


def test_cnot_conjugate_against_dense_two_qubit():
    U = dense_cnot(2, 0, 1)
    for word in ("".join(w) for w in itertools.product("IXYZ", repeat=2)):
        sp = cnot_conjugate(word, 0, 1)
        lhs = U @ kron_pauli(word) @ U.conj().T
        assert np.array_equal(lhs, sp.sign * kron_pauli(sp.word))
    # and with the roles swapped
    U = dense_cnot(2, 1, 0)
    for word in ("".join(w) for w in itertools.product("IXYZ", repeat=2)):
        sp = cnot_conjugate(word, 1, 0)
        lhs = U @ kron_pauli(word) @ U.conj().T
        assert np.array_equal(lhs, sp.sign * kron_pauli(sp.word))


def test_cnot_conjugate_against_dense_three_qubit(rng):
    for _ in range(100):
        word = "".join(rng.choice(list("IXYZ"), size=3))
        control, target = rng.choice(3, size=2, replace=False)
        U = dense_cnot(3, control, target)
        sp = cnot_conjugate(word, control, target)
        lhs = U @ kron_pauli(word) @ U.conj().T
        assert np.array_equal(lhs, sp.sign * kron_pauli(sp.word))


# --- channel construction -------------------------------------------------------------

def test_single_arc_channel_is_signed_permutation_involution():
    M = _uniform(DirectedGraph(2, {(0, 1)}))
    assert set(np.unique(M)) <= {-1.0, 0.0, 1.0}
    assert (np.abs(M).sum(axis=0) == 1).all()
    assert np.array_equal(M @ M, np.eye(16))


def test_channel_row_zero_is_unit_vector(rng):
    for n in (2, 3):
        for _ in range(5):
            mask = int(rng.integers(1, 1 << (n * (n - 1))))
            g = DirectedGraph.from_mask(n, mask)
            w = rng.uniform(0.1, 1.0, size=len(g.arcs))
            spec = ChannelSpec(g, dict(zip(sorted(g.arcs), w / w.sum())))
            M = channel_ptm(spec)
            e0 = np.zeros(4 ** n)
            e0[0] = 1.0
            assert np.abs(M[0] - e0).max() <= 1e-14


def test_channel_column_sparsity_bounded_by_arc_count():
    g = DirectedGraph(3, {(0, 1), (1, 2), (2, 0)})
    M = _uniform(g)
    assert int((M != 0).sum(axis=0).max()) <= len(g.arcs)


def test_channel_spec_validation():
    g = DirectedGraph(2, {(0, 1)})
    # the uniform weights of an arcless graph are an empty dict, which the constructor refuses
    with pytest.raises(ValueError, match="no links to apply"):
        ChannelSpec.uniform(DirectedGraph(3))
    with pytest.raises(ValueError, match="no links to apply"):
        ChannelSpec(DirectedGraph(3), {})
    with pytest.raises(ValueError):
        ChannelSpec(g, {(0, 1): 0.5})
    with pytest.raises(ValueError):
        ChannelSpec(g, {(0, 1): -1.0, (1, 0): 2.0})
    with pytest.raises(ValueError):
        ChannelSpec(g, {(1, 0): 1.0})


def test_channel_spec_is_hashable():
    g = DirectedGraph(3, {(0, 1), (1, 2)})
    a = ChannelSpec(g, {(0, 1): 0.25, (1, 2): 0.75})
    b = ChannelSpec(DirectedGraph(3, {(1, 2), (0, 1)}), {(1, 2): 0.75, (0, 1): 0.25})
    c = ChannelSpec.uniform(g)
    assert a == b and hash(a) == hash(b)
    assert {a, b, c} == {a, c} and len({a, b, c}) == 2


def test_two_qubit_complete_average_closed_form():
    p = 0.3
    M = averaged_channel_ptm(2, p)
    w_id = (1 - p) ** 2
    expected = w_id * np.eye(16)
    c = (1 - w_id) / 2
    expected += c * _uniform(DirectedGraph(2, {(0, 1)}))
    expected += c * _uniform(DirectedGraph(2, {(1, 0)}))
    assert np.abs(M - expected).max() <= 1e-15


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("p", (0.2, 0.5, 0.8))
def test_averaged_channel_matches_graph_enumeration(n, p):
    d = 4 ** n
    acc = np.zeros((d, d))
    for mask in range(1 << (n * (n - 1))):
        M_g = np.eye(d) if mask == 0 else _uniform(DirectedGraph.from_mask(n, mask))
        acc += _graph_weight(p, n, mask) * M_g
    assert np.abs(averaged_channel_ptm(n, p) - acc).max() <= 1e-14


def _reverse(g: DirectedGraph) -> DirectedGraph:
    return DirectedGraph(g.n, {(v, u) for u, v in g.arcs})


def test_qubit_relabeling_conjugates_the_transfer_matrix():
    # the class-reduced static average rests on this: symmetrizing one
    # graph's transfer matrix over the qubit relabelings and the global
    # Hadamard, in the flat block space, gives the sum of the transfer
    # matrices of all its relabeled copies and of theirs reversed
    g = DirectedGraph(3, {(0, 1), (1, 0), (1, 2)})  # fixed by no relabeling or reversal
    expected = sum(
        _uniform(DirectedGraph(3, {(perm[u], perm[v]) for u, v in h.arcs}))
        for perm in itertools.permutations(range(3))
        for h in (g, _reverse(g))
    )
    ens = ch._StaticEnsemble(3, [g.mask], {0.5: np.ones(1)}, symmetrize=True)
    (summed,) = ens.averages()
    assert np.abs(ch._from_blocks(summed, ens.blocks) - expected).max() <= 1e-15


def test_global_hadamard_reverses_every_link():
    # H (x) H (x) H maps X <-> Z and Y -> -Y, so it swaps control and target of every CNOT
    H1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    T = ptm_of_unitary(3, np.kron(np.kron(H1, H1), H1))
    for mask in range(1, 1 << 6):
        g = DirectedGraph.from_mask(3, mask)
        assert np.abs(T @ _uniform(g) @ T - _uniform(_reverse(g))).max() <= 1e-14


@pytest.mark.parametrize("n, classes", [(2, 3), (3, 13), (4, 144)])
def test_iso_classes_up_to_relabeling_and_reversal(n, classes):
    reps = ch._iso_classes(n)
    assert len(reps) == classes
    assert sum(orbit for _, orbit in reps) == 1 << (n * (n - 1))
    # each representative is the smallest mask of its class, and no two share a class
    seen = set()
    for mask, orbit in reps:
        g = DirectedGraph.from_mask(n, mask)
        images = {
            DirectedGraph(n, {(perm[u], perm[v]) for u, v in h.arcs}).mask
            for perm in itertools.permutations(range(n))
            for h in (g, _reverse(g))
        }
        assert len(images) == orbit and min(images) == mask
        assert not images & seen
        seen |= images


def test_each_symmetry_moves_the_channel_by_its_word_map():
    # _iso_classes and _relabel_orbits both read _symmetries, so its arc map
    # and word map must describe one symmetry: the uniform channel of the
    # arc-mapped graph, gathered by the word map, is the graph's own channel
    n = 3
    blocks = ch._word_blocks(n)

    def dense(mask):
        return ch._from_blocks(ch._link_sums(n, *ch._uniform_weights(n, [mask]), blocks)[0], blocks)

    symmetries = list(ch._symmetries(n))
    assert len(symmetries) == 2 * 6
    for mask, _ in ch._iso_classes(n):
        for arcs, words in symmetries:
            image = sum(1 << arcs[a] for a in range(n * (n - 1)) if mask >> a & 1)
            assert np.array_equal(dense(image)[np.ix_(words, words)], dense(mask))


def _moved_index(word: str, perm, reverse: bool) -> int:
    # string oracle: the letter of qubit q moves to qubit perm[q], and X and
    # Z swap when the element reverses
    moved = [""] * len(word)
    for q, letter in enumerate(word):
        moved[perm[q]] = {"X": "Z", "Z": "X"}.get(letter, letter) if reverse else letter
    return sum("IXYZ".index(letter) * 4 ** q for q, letter in enumerate(moved))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_word_maps_match_a_string_oracle(n):
    # both symmetry reductions move words by _word_maps: every relabeling
    # of _symmetries, and every element e of the sector group (bit j < n // 2
    # swaps qubits 2j and 2j + 1, bit n // 2 reverses)
    words = ["".join("IXYZ"[a >> 2 * q & 3] for q in range(n)) for a in range(4 ** n)]
    elements = itertools.product(itertools.permutations(range(n)), (False, True))
    checked = 0
    for (perm, reverse), (_, word_map) in zip(elements, ch._symmetries(n), strict=True):
        assert word_map.tolist() == [_moved_index(w, perm, reverse) for w in words]
        checked += 1
    m = n // 2
    maps = ch._sector_maps(n)
    assert maps.shape == (2 << m, 4 ** n)
    for e, word_map in enumerate(maps):
        perm = [q ^ 1 if q < 2 * m and e >> q // 2 & 1 else q for q in range(n)]
        assert word_map.tolist() == [_moved_index(w, perm, bool(e >> m & 1)) for w in words]
        checked += 1
    assert checked == 2 * math.factorial(n) + (2 << m)


def _link_ptm(n: int, control: int, target: int) -> np.ndarray:
    # dense signed permutation of one CNOT, column by column from cnot_conjugate
    P = np.zeros((4 ** n, 4 ** n))
    for b in range(4 ** n):
        sp = cnot_conjugate(index_to_word(b, n), control, target)
        P[sum("IXYZ".index(c) * 4 ** q for q, c in enumerate(sp.word)), b] = sp.sign
    return P


@pytest.mark.parametrize("n", (2, 3, 4))
def test_batched_link_sums_equal_dense_link_sums(n):
    # every class's row, bit for bit, against the sum of the dense CNOT
    # transfer matrices of its arcs, added in arc_pairs order
    blocks = ch._word_blocks(n)
    masks = [mask for mask, _ in ch._iso_classes(n)]
    rows = ch._link_sums(n, *ch._uniform_weights(n, masks), blocks)
    links = [_link_ptm(n, u, v) for u, v in arc_pairs(n)]
    for mask, row in zip(masks, rows):
        held = [P for a, P in enumerate(links) if mask >> a & 1]
        expected = np.eye(4 ** n) if not held else np.zeros((4 ** n, 4 ** n))
        for P in held:
            expected = expected + P * (1.0 / len(held))
        assert np.array_equal(ch._from_blocks(row, blocks), expected)


# --- asymptotic channel ------------------------------------------------------------------

@pytest.mark.parametrize("n", (1, 2, 3, 5))
def test_spanning_states_overlap(n):
    zero = np.zeros(2 ** n)
    zero[0] = 1.0
    plus = np.full(2 ** n, 2 ** (-n / 2))
    assert plus @ zero == pytest.approx(2 ** (-n / 2), rel=1e-12)
    if n >= 2:  # both states lie in the attractor: the limit map fixes them
        for r in (state_zero(n), state_plus(n)):
            assert np.abs(asymptotic_channel(n) @ r - r).max() <= 1e-15


def test_spanning_states_invariant_under_every_cnot():
    for n in (2, 3):
        zero = np.zeros(2 ** n)
        zero[0] = 1.0
        plus = np.full(2 ** n, 2 ** (-n / 2))
        for c, t in arc_pairs(n):
            U = dense_cnot(n, c, t)
            assert np.array_equal(U @ zero, zero)
            assert np.abs(U @ plus - plus).max() <= 1e-15


def test_asymptotic_channel_rejects_single_qubit():
    with pytest.raises(ValueError):
        asymptotic_channel(1)
    with pytest.raises(ValueError):
        asymptotic_state(1, state_mixed(1))


def _fixed_basis(n: int) -> tuple[np.ndarray, list[int]]:
    """The limit's fixed vectors b_k as the rows of a dense integer matrix, and the word count of each class."""
    label, sign = ch._word_classes(n)
    B = np.zeros((5, 4 ** n), dtype=np.int64)
    B[label, np.arange(4 ** n)] = sign
    return B, np.bincount(label, minlength=5).tolist()


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_fixed_basis_is_orthogonal_with_closed_form_norms(n):
    B, norms = _fixed_basis(n)
    K = 2 ** n - 1
    assert norms == [1, K, K, K * (K - 1) // 2, 2 ** (n - 1) * K]
    assert np.array_equal(B @ B.T, np.diag(norms))
    assert set(np.unique(B)) <= {-1, 0, 1}
    # every basis vector is fixed by every CNOT
    for c, t in arc_pairs(n):
        perm, sign = ch._cnot_images(np.arange(4 ** n), c, t)
        image = np.zeros_like(B)
        image[:, perm] = B * sign.astype(np.int64)
        assert np.array_equal(image, B)


def test_limit_state_peak_stays_below_four_inputs():
    # int8 labels and signs beside two int64 bit planes; five int64 4^n
    # arrays, 5.25 inputs, were live at once when the labels were int64
    rho = state_plus(9)
    tracemalloc.start()
    try:
        out = asymptotic_state(9, rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    label, sign = ch._word_classes(9)
    assert label.dtype == sign.dtype == np.int8
    assert peak <= 4 * rho.nbytes
    assert out.shape == rho.shape


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6))
def test_word_blocks_partition_the_words_with_closed_form_sizes(n):
    idxs, pos = ch._word_blocks(n)
    K = 2 ** n - 1
    assert [len(idx) for idx in idxs] == [1, K, K, K * (2 ** (n - 1) - 1), K * 2 ** (n - 1)]
    assert np.array_equal(np.sort(np.concatenate(idxs)), np.arange(4 ** n))
    for idx in idxs:
        assert np.array_equal(pos[idx], np.arange(len(idx)))
    # word class k is exactly the support of fixed-space basis vector k
    B, _ = _fixed_basis(n)
    for k, b in enumerate(B):
        assert np.array_equal(np.flatnonzero(b), idxs[k])


@pytest.mark.parametrize("n", range(2, 10))
def test_closed_form_class_sizes_match_the_classes_and_the_fixed_norms(n):
    sizes = ch._class_sizes(n)
    K = 2 ** n - 1
    assert sizes == (1, K, K, K * (K - 1) // 2, 2 ** (n - 1) * K)
    idxs, _ = ch._word_blocks(n)
    assert [len(idx) for idx in idxs] == list(sizes)
    B, norms = _fixed_basis(n)
    assert (B * B).sum(axis=1).tolist() == norms == list(sizes)
    # a static ensemble holds three floats per block entry for each graph,
    # from n = 4 on more than the dense 4^n x 4^n result of static_average_iterate
    assert ch._static_graph_bytes(n) == 24 * sum(m * m for m in sizes)
    assert (ch._static_graph_bytes(n) > 8 * 16 ** n) == (n >= 4)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_every_cnot_maps_each_word_block_onto_itself(n):
    idxs, _ = ch._word_blocks(n)
    for c, t in arc_pairs(n):
        perm, _ = ch._cnot_images(np.arange(4 ** n), c, t)
        for idx in idxs:
            assert np.array_equal(np.sort(perm[idx]), idx)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
@pytest.mark.parametrize("p", (0.2, 0.5, 0.9))
def test_blocked_dynamic_spectrum_matches_dense(n, p):
    # the p-independent link spectrum, shifted and scaled for p, is the
    # spectrum of S - L without the five zeros on the range of L
    dense = np.linalg.eigvalsh(averaged_channel_ptm(n, p) - asymptotic_channel(n))
    w_id, c = ch._average_weights(n, p)
    blocked = np.sort(np.concatenate([w_id + c * ch._link_spectrum(n), np.zeros(5)]))
    assert np.abs(blocked - dense).max() <= 1e-13


def test_dynamic_spectrum_builds_no_dense_matrix():
    # at n = 5 one 4^n x 4^n float matrix is 8.4 MB; the blocks stay below it
    tracemalloc.start()
    try:
        ch._link_spectrum.__wrapped__(5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (4 ** 5) ** 2 * 8


def test_sector_spectrum_at_n7_stays_below_a_class_block():
    # one dense class block at n = 7 (8128 words) would be 528 MB; the
    # largest sector matrix is 1010 words
    tracemalloc.start()
    try:
        ch._link_spectrum.__wrapped__(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100e6


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
def test_link_spectrum_moments_match_the_sparse_action(n):
    # the dropped eigenvalues are n(n-1), one per word class: five in all
    spectrum = ch._link_spectrum(n)
    n_arcs = n * (n - 1)
    trace, frob2 = link_sum_moments(n)
    assert len(spectrum) == 4 ** n - 5
    assert spectrum.sum() == pytest.approx(trace - 5 * n_arcs, rel=1e-12, abs=1e-10 * 4 ** n)
    assert (spectrum ** 2).sum() == pytest.approx(frob2 - 5 * n_arcs ** 2, rel=1e-12)


def _character_dimensions(n, maps, k, words):
    """Dimension of every sector chi of class k, |G|^-1 sum_e chi(e) #{w in class k : e w = w}.

    G has the n // 2 swap bits of the sector maps, and on classes 3 and 4
    also the Hadamard bit; chi(e) = (-1)^|chi & e|, and e acts by its
    unsigned word map.
    """
    order = 1 << (n // 2 + (k >= 3))
    fixed = [int((maps[e, words] == words).sum()) for e in range(order)]
    dims = []
    for chi in range(order):
        total = sum((-1) ** bin(chi & e).count("1") * f for e, f in enumerate(fixed))
        assert total % order == 0
        dims.append(total // order)
    return dims


@pytest.mark.parametrize("n", (2, 3, 4, 5, 6, 7))
def test_sector_dimensions_match_the_character_formula(n):
    # the built sectors are exactly the nonzero terms of the character formula
    idxs, pos = ch._word_blocks(n)
    maps = ch._sector_maps(n)
    for k, words in enumerate(idxs):
        formula = _character_dimensions(n, maps, k, words)
        built = {chi: len(A) for chi, A in ch._link_sectors(n, maps, words, pos, k)}
        assert sum(formula) == len(words)
        assert built == {chi: d for chi, d in enumerate(formula) if d}


@pytest.mark.parametrize("n, largest", ((4, 25), (5, 100), (6, 257), (7, 1010), (8, 2551), (9, 10094)))
def test_largest_sector(n, largest):
    # the largest sector is a trivial one (|chi| <= 1); it grows with n, and
    # evolve dynamic stops at the last n below 10000 words
    idxs, _ = ch._word_blocks(n)
    maps = ch._sector_maps(n)
    assert max(_character_dimensions(n, maps, k, words)[0] for k, words in enumerate(idxs)) == largest
    assert (n <= ch.DYNAMIC_MAX_N) == (largest < 10000)


def test_static_draw_is_refused_before_drawing(monkeypatch):
    # a sampled draw holds a double and a bool per arc slot and two int64
    # masks per graph: 196 bytes at n = 5, so --budget 10^9 needs ~196 GB
    def draw(*args):
        raise AssertionError("drawn")

    monkeypatch.setattr(ch, "sample_arc_bits", draw)
    with pytest.raises(CostGuardError, match=r"n=5 needs ~196.0 GB to draw 1000000000 graphs, over"):
        static_convergence_traces(5, [0.5], 1, budget=10 ** 9)
    fits = ch.MEMORY_BUDGET_BYTES // 196
    with pytest.raises(CostGuardError, match="to draw"):
        ch._static_ensembles(5, [0.5], fits + 1, 0)  # refused before the iterator
    with pytest.raises(AssertionError, match="drawn"):
        next(ch._static_ensembles(5, [0.5], fits, 0))


@pytest.mark.parametrize("n", (3, 4))
def test_sector_generators_commute_with_the_link_sum(n):
    blocks = ch._word_blocks(n)
    idxs, pos = blocks
    views = ch._block_views(ch._link_sums(n, np.ones(n * (n - 1)), 0.0, blocks), blocks)
    maps = ch._sector_maps(n)
    for k, (words, (A,)) in enumerate(zip(idxs, views)):
        for bit in range(n // 2 + (k >= 3)):
            image = maps[1 << bit, words]
            assert np.array_equal(np.sort(image), words)  # a permutation of the class
            P = np.zeros_like(A)
            P[pos[image], np.arange(len(words))] = 1.0
            assert np.array_equal(P @ A, A @ P)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_asymptotic_state_matches_dense_map(n, rng):
    M = asymptotic_channel(n)
    for _ in range(3):
        rho = rng.normal(size=4 ** n)
        assert np.abs(asymptotic_state(n, rho) - M @ rho).max() <= 1e-15


def test_asymptotic_state_holds_a_few_arrays_of_its_input_size():
    # one bincount over the class labels: no 5 x 4^n basis (as int64 and as
    # floats) is formed
    rho = state_plus(9)
    tracemalloc.start()
    try:
        sigma = asymptotic_state(9, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(sigma, rho)
    assert peak < 8 * rho.nbytes


def test_asymptotic_state_checks_the_shape_before_any_table(monkeypatch):
    # the class tables alone would need about 34 GB at n = 16
    def tables(n):
        raise AssertionError("built")

    monkeypatch.setattr(ch, "_word_classes", tables)
    with pytest.raises(ValueError, match=r"rho must have shape \(64,\) for n=3, got \(5,\)"):
        asymptotic_state(3, np.zeros(5))
    with pytest.raises(ValueError, match="n=16"):
        asymptotic_state(16, np.zeros(4))


@pytest.mark.parametrize("n", range(2, 8))
def test_asymptotic_state_fixes_basis_states_exactly(n):
    for rho in (state_zero(n), state_plus(n), state_mixed(n)):
        assert np.array_equal(asymptotic_state(n, rho), rho)


@pytest.mark.parametrize("n", (2, 3, 4))
def test_asymptotic_channel_structure(n):
    M = asymptotic_channel(n)
    d = 4 ** n
    e0 = np.zeros(d)
    e0[0] = 1.0
    assert np.array_equal(M[0], e0)       # trace preservation, exact
    assert np.array_equal(M[:, 0], e0)    # unitality, exact
    assert np.abs(M @ M - M).max() <= 1e-12
    assert np.abs(M - M.T).max() == 0.0
    assert np.trace(M) == pytest.approx(5.0, abs=1e-9)  # 5-dim fixed operator space


def test_asymptotic_channel_exact_is_idempotent_and_matches_float():
    for n in (2, 3, 4):
        M = asymptotic_channel(n)
        assert M.dtype == np.float64
        assert np.array_equal(M, np.array(asymptotic_channel_exact(n), dtype=float))
    exact2 = asymptotic_channel_exact(2)
    prod = [[sum(exact2[a][k] * exact2[k][b] for k in range(16)) for b in range(16)] for a in range(16)]
    assert prod == exact2
    with pytest.raises(CostGuardError):
        asymptotic_channel_exact(5)


def test_asymptotic_channel_against_dense_projector_map():
    # independent construction: dense projector, dense Paulis, explicit traces
    n = 2
    dim, d = 4, 16
    zero = np.zeros(dim)
    zero[0] = 1.0
    plus = np.full(dim, 0.5)
    u2 = plus - (plus @ zero) * zero
    u2 /= np.linalg.norm(u2)
    P = np.outer(zero, zero) + np.outer(u2, u2)
    expected = np.zeros((d, d))
    for b in range(d):
        sb = kron_pauli(index_to_word(b, n))
        image = P @ sb @ P + np.trace((np.eye(dim) - P) @ sb) / (dim - 2) * (np.eye(dim) - P)
        for a in range(d):
            expected[a, b] = np.trace(kron_pauli(index_to_word(a, n)) @ image).real / dim
    assert np.abs(asymptotic_channel(2) - expected).max() <= 1e-14


def test_asymptotic_channel_absorbs_strongly_connected_channels(rng):
    # every strongly connected graph on n = 2, 3, 4 with random positive
    # weights leaves the limit map invariant on both sides
    for n in (2, 3, 4):
        Minf = asymptotic_channel(n)
        worst = 0.0
        checked = 0
        for mask in range(1, 1 << (n * (n - 1))):
            g = DirectedGraph.from_mask(n, mask)
            if not is_strongly_connected(g):
                continue
            w = rng.uniform(0.2, 1.0, size=len(g.arcs))
            spec = ChannelSpec(g, dict(zip(sorted(g.arcs), w / w.sum())))
            M = channel_ptm(spec)
            worst = max(worst, hs_distance(M @ Minf, Minf), hs_distance(Minf @ M, Minf))
            checked += 1
        assert worst <= 1e-10
        assert checked == {2: 1, 3: 18, 4: 1606}[n]


def test_iterated_channel_converges_to_asymptotic_for_n3():
    Minf = asymptotic_channel(3)
    for g in (DirectedGraph.cycle(3), DirectedGraph.complete(3)):
        M = _uniform(g)
        P = M.copy()
        for _ in range(13):  # M^8192
            P = P @ P
        assert hs_distance(P, Minf) <= 1e-8


def test_two_qubit_network_has_period_two_attractor():
    # the lone strongly connected two-qubit graph supports an extra
    # attractor operator of eigenvalue -1 (a combination of single-Y
    # words), so its iterates never reach the rank-5 projector map:
    # even powers converge to the projector plus that rank-1 piece
    M = _uniform(DirectedGraph.complete(2))
    ev = np.linalg.eigvals(M)
    assert sum(abs(e - 1) < 1e-9 for e in ev) == 5
    assert sum(abs(e + 1) < 1e-9 for e in ev) == 1
    P = M.copy()
    for _ in range(13):
        P = P @ P
    Minf = asymptotic_channel(2)
    assert hs_distance(P, Minf) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(M @ P @ M - P).max() <= 1e-12  # even-power limit, period 2


def test_universality_across_graphs_n3():
    mats = []
    for g in (DirectedGraph.cycle(3), DirectedGraph.complete(3)):
        P = _uniform(g)
        for _ in range(13):
            P = P @ P
        mats.append(P)
    assert hs_distance(mats[0], mats[1]) <= 1e-6
    assert hs_distance(mats[0], asymptotic_channel(3)) <= 1e-6


# --- distances and states --------------------------------------------------------------

def test_hs_distance_basics():
    M = averaged_channel_ptm(2, 0.4)
    assert hs_distance(M, M) == 0.0
    with pytest.raises(ValueError):
        hs_distance(np.eye(4), np.eye(16))


def test_hs_distance_of_displacing_permutation():
    # a permutation moving k indices sits at distance sqrt(2k) from identity
    for k in (2, 3, 7):
        d = 16
        perm = list(range(d))
        perm[:k] = perm[1:k] + [perm[0]]
        P = np.eye(d)[perm]
        assert hs_distance(np.eye(d), P) == pytest.approx((2 * k) ** 0.5, rel=1e-12)


@given(st.integers(0, 10 ** 6))
def test_hs_distance_triangle_inequality(seed):
    gen = np.random.default_rng(seed)
    mats = [gen.normal(size=(16, 16)) for _ in range(3)]
    a, b, c = mats
    assert hs_distance(a, c) <= hs_distance(a, b) + hs_distance(b, c) + 1e-9


def test_states_have_unit_trace_coefficient():
    for n in (1, 2, 3):
        for r in (state_zero(n), state_plus(n), state_mixed(n)):
            assert r[0] == 1.0 / 2 ** n
    # purity sum_a 2^n r_a^2 = Tr rho^2
    n = 3
    assert 2 ** n * (state_zero(n) ** 2).sum() == pytest.approx(1.0)
    assert 2 ** n * (state_mixed(n) ** 2).sum() == pytest.approx(2.0 ** -n)


def test_pauli_coeffs_round_trip(rng):
    n = 2
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    amp /= np.linalg.norm(amp)
    rho = np.outer(amp, amp.conj())
    coeffs = pauli_coeffs(rho)
    rebuilt = sum(c * kron_pauli(index_to_word(a, n)) for a, c in enumerate(coeffs))
    assert np.abs(rebuilt - rho).max() <= 1e-12
    zero = np.zeros(4)
    zero[0] = 1
    assert np.abs(pauli_coeffs(np.outer(zero, zero)) - state_zero(2)).max() == 0.0


def test_random_pure_state_converges_to_asymptotic_image_n3(rng):
    # state-level convergence oracle on a clean (n >= 3) network
    n = 3
    amp = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    amp /= np.linalg.norm(amp)
    r0 = pauli_coeffs(np.outer(amp, amp.conj()))
    M = _uniform(DirectedGraph.complete(n))
    evolved = np.linalg.matrix_power(M, 1000) @ r0
    target = asymptotic_channel(n) @ r0
    assert np.linalg.norm(evolved - target) <= 1e-6


def test_two_qubit_state_iteration_oscillates(rng):
    # companion to the period-two attractor: generic two-qubit states keep
    # a (-1)-eigenoperator component, so consecutive iterates stay apart
    n = 2
    amp = rng.normal(size=4) + 1j * rng.normal(size=4)
    amp /= np.linalg.norm(amp)
    r0 = pauli_coeffs(np.outer(amp, amp.conj()))
    M = _uniform(DirectedGraph.complete(2))
    a = np.linalg.matrix_power(M, 1000) @ r0
    b = M @ a
    gap = np.linalg.norm(a - b)
    assert gap > 1e-3
    assert np.linalg.norm(M @ b - a) <= 1e-9


# --- static averages and traces ------------------------------------------------------------

def test_static_average_r0_is_identity():
    for n in (2, 3, 4):
        assert np.array_equal(static_average_iterate(n, 0.4, 0), np.eye(4 ** n))


@pytest.mark.parametrize("n", (2, 3, 4))
def test_static_average_r1_equals_dynamic_average(n):
    psi1 = static_average_iterate(n, 0.35, 1)
    assert np.abs(psi1 - averaged_channel_ptm(n, 0.35)).max() <= 1e-14


@pytest.mark.parametrize("n", (2, 3, 4))
def test_static_average_class_reduction_matches_direct(n):
    # the exhaustive path iterates one representative per isomorphism class
    # and symmetrizes; check r=2 against the raw average over labeled graphs
    p, r = 0.3, 2
    d = 4 ** n
    acc = np.zeros((d, d))
    for mask in range(1 << (n * (n - 1))):
        M_g = np.eye(d) if mask == 0 else _uniform(DirectedGraph.from_mask(n, mask))
        acc += _graph_weight(p, n, mask) * (M_g @ M_g)
    psi2 = static_average_iterate(n, p, r)
    assert np.abs(psi2 - acc).max() <= 1e-13


@pytest.mark.parametrize("n, n_orbits", [(2, 21), (3, 135), (4, 752)])
def test_orbit_space_distance_equals_the_dense_norm(n, n_orbits):
    # the static trace takes D from the orbit sums and never forms the
    # symmetrized average; that rests on the limit being constant on every
    # orbit of the relabelings and Hadamard conjugations
    blocks = ch._word_blocks(n)
    orbit, size = ch._relabel_orbits(n, blocks)
    assert len(size) == n_orbits
    assert np.array_equal(size, np.bincount(orbit))
    limit = ch._flat_limit(n, blocks)[0]
    low, high = np.full(n_orbits, np.inf), np.full(n_orbits, -np.inf)
    np.minimum.at(low, orbit, limit)
    np.maximum.at(high, orbit, limit)
    assert np.array_equal(low, high)
    (ens,) = ch._static_ensembles(n, [0.2, 0.95], 1, 0)
    for r in range(1, 8):
        if r > 1:
            ens.step()
        if r in (1, 2, 7):
            dense = np.linalg.norm(ens.averages() - ens.limit, axis=1)
            np.testing.assert_allclose(ens.distances(), dense, rtol=1e-12, atol=0)


def test_static_trace_matches_the_dense_static_iterate():
    p = 0.4
    trace = dict(static_convergence_traces(3, [p], 40)[p])
    for r in (1, 2, 5, 40):
        dense = np.linalg.norm(static_average_iterate(3, p, r) - asymptotic_channel(3))
        assert abs(trace[r] - dense) <= 1e-12


def test_static_average_exhaustive_cost_guard():
    # above the exhaustive range the default 10^4 draws give ~10^4 distinct
    # graphs at n = 5, of ~11 MB each: refused before any is built
    with pytest.raises(CostGuardError, match="distinct graphs at n=5"):
        static_average_iterate(5, 0.5, 1)


def _refused_peak(call, match) -> int:
    """Traced peak of ``call``, which must refuse with a ``CostGuardError`` matching ``match``."""
    tracemalloc.start()
    try:
        with pytest.raises(CostGuardError, match=match):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_static_refusal_per_graph_comes_before_any_table():
    # one graph's blocks at n = 11 would need ~210 TB; the refusal builds no
    # 4^n word table (33 MB each at n = 11) and draws no graph
    peak = _refused_peak(lambda: static_convergence_traces(11, [0.5], 1, budget=1), r"n=11 .* per graph")
    assert peak < 10e6


@pytest.mark.parametrize("n, dense_gb, graph_gb", ((7, "2.1", "3.1"), (8, "34.4", "50.7")))
def test_dense_builders_refuse_at_entry(n, dense_gb, graph_gb):
    # one dense 4^n x 4^n float matrix is 8 * 16^n bytes, over the 2 GB guard
    # from n = 7; the static iterate is refused on one graph's blocks, which
    # outweigh its dense result
    spec = ChannelSpec.uniform(DirectedGraph.complete(n))
    dense = (lambda: channel_ptm(spec), lambda: averaged_channel_ptm(n, 0.5), lambda: asymptotic_channel(n))
    for call in dense:
        assert _refused_peak(call, rf"n={n} needs ~{dense_gb} GB, over") < 1e6
    peak = _refused_peak(lambda: static_average_iterate(n, 0.5, 1), rf"n={n} needs ~{graph_gb} GB per graph")
    assert peak < 1e6


def test_evolution_entry_points_need_two_qubits():
    # one check, before any table: no CNOT exists on one qubit
    calls = (lambda: static_convergence_traces(1, [0.5], 2), lambda: static_average_iterate(1, 0.5, 2),
             lambda: convergence_trace(1, 0.5, "static", 2), lambda: convergence_trace(1, 0.5, "dynamic", 2))
    for call in calls:
        with pytest.raises(ValueError, match=r"n must be >= 2"):
            call()


def test_static_paths_check_the_budget(monkeypatch):
    # an empty sampled ensemble would average to the zero matrix; the
    # exhaustive ensemble, which draws nothing, refuses it too, as the CLI does
    by_n = (lambda: static_convergence_traces(5, [0.5], 1, budget=-1),  # sampled
            lambda: static_average_iterate(3, 0.5, 1, budget=0))  # exhaustive
    drawn_small = (lambda: static_convergence_traces(3, [0.5], 2, budget=0),
                   lambda: static_average_iterate(2, 0.5, 2, budget=0))
    for call in by_n:
        with pytest.raises(ValueError, match=r"\(--budget\), got -?[01]"):
            call()
    monkeypatch.setattr(ch, "STATIC_EXHAUSTIVE_MAX_N", 1)  # n = 2 and 3 draw their graphs
    for call in drawn_small:
        with pytest.raises(ValueError, match=r"\(--budget\), got -?[01]"):
            call()


def test_static_paths_check_p():
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
        static_convergence_traces(3, [1.5], 2)
    with pytest.raises(ValueError, match=r"p must lie in \[0, 1\]"):
        static_average_iterate(3, -0.2, 1)


def test_static_average_sampled_deterministic(monkeypatch):
    exact = static_average_iterate(2, 0.5, 3)
    monkeypatch.setattr(ch, "STATIC_EXHAUSTIVE_MAX_N", 1)  # n = 2 draws its graphs
    a = static_average_iterate(2, 0.5, 3, budget=500, seed=4)
    b = static_average_iterate(2, 0.5, 3, budget=500, seed=4)
    c = static_average_iterate(2, 0.5, 3, budget=500, seed=5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    # equal-weight sample average approaches the exhaustive weighting
    big = static_average_iterate(2, 0.5, 3, budget=20_000, seed=4)
    assert np.abs(big - exact).max() < 0.05


def test_convergence_trace_dynamic():
    rows = convergence_trace(3, 0.5, "dynamic", 400, stop_below=1e-9)
    assert rows[0][0] == 0
    assert rows[0][1] == pytest.approx(hs_distance(np.eye(64), asymptotic_channel(3)), rel=1e-12)
    dist = [d for _, d in rows]
    assert all(b <= a + 1e-12 for a, b in zip(dist, dist[1:]))
    assert dist[-1] < 1e-9


def test_dynamic_trace_matches_dense_stepping():
    for p in (0.2, 0.5, 0.9):
        rows = convergence_trace(3, p, "dynamic", 40)
        dense = dense_power_distances(averaged_channel_ptm(3, p), asymptotic_channel(3), 40)
        assert [r for r, _ in rows] == list(range(41))
        assert max(abs(d - e) for (_, d), e in zip(rows, dense)) <= 1e-12


def test_dynamic_trace_below_the_float_range_of_its_square():
    # D(r)^2 leaves the normal float range near r = 640 at n = 3, p = 0.95;
    # every D(r) must still match a 60-digit sum over the same spectrum, and
    # the trace must end at the last r whose m^r = max|mu|^r is normal
    w_id, c = ch._average_weights(3, 0.95)
    mu = w_id + c * ch._link_spectrum(3)
    m = float(np.abs(mu).max())
    rows = convergence_trace(3, 0.95, "dynamic", 3000)
    with localcontext() as ctx:
        ctx.prec = 60
        last = int(Decimal(sys.float_info.min).ln() / Decimal(m).ln())
        assert Decimal(m) ** last >= Decimal(sys.float_info.min) > Decimal(m) ** (last + 1)
        assert rows[-1][0] == last
        squares = [Decimal(float(x)) ** 2 for x in mu]
        powers = list(squares)
        worst = 0.0
        for r, dist in rows[1:]:
            exact = sum(powers).sqrt()
            worst = max(worst, float(abs(Decimal(dist) - exact) / exact))
            powers = [a * b for a, b in zip(powers, squares)]
    assert worst < 1e-11
    assert format(dict(rows)[1200], ".6g") == "3.82034e-160"


def test_convergence_trace_static_r1_matches_dynamic_r1():
    dyn = convergence_trace(3, 0.45, "dynamic", 1)
    sta = convergence_trace(3, 0.45, "static", 1)
    assert sta[0][1] == pytest.approx(dyn[0][1], rel=1e-12)
    assert sta[1][1] == pytest.approx(dyn[1][1], rel=1e-9)


def test_static_traces_multi_p_consistent_with_single():
    traces = static_convergence_traces(3, [0.3, 0.6], 5)
    single = convergence_trace(3, 0.6, "static", 5)
    for (r1, d1), (r2, d2) in zip(traces[0.6], single):
        assert r1 == r2
        assert d1 == pytest.approx(d2, rel=1e-12)


def test_static_traces_of_an_empty_p_list_build_no_ensemble(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an empty p list must build no ensemble")

    monkeypatch.setattr(ch, "_StaticEnsemble", refuse)
    assert static_convergence_traces(3, [], 3) == {}
    assert static_convergence_traces(5, [], 3, budget=5) == {}
    with pytest.raises(ValueError, match=r"n must be >= 2"):  # the checks still run
        static_convergence_traces(1, [], 3)


def test_static_traces_repeated_p_give_one_trace():
    traces = static_convergence_traces(2, [0.5, 0.5], 1)
    assert [r for r, _ in traces[0.5]] == [0, 1]


def test_convergence_trace_rejects_unknown_mode():
    with pytest.raises(ValueError):
        convergence_trace(3, 0.5, "quasi", 5)
