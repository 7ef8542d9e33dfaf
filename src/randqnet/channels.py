"""Random CNOT dynamics on qubit networks in the Pauli-transfer representation.

Each network link applies a CNOT from its tail (control) to its head
(target). Because CNOT is a Clifford operation it conjugates every Pauli
word to a single signed Pauli word, so the transfer matrix of one CNOT is
a signed permutation of the 4^n Pauli indices and the transfer matrix of a
random-unitary mixture is a weighted sum of such permutations. All channel
algebra here (composition, iteration, distances) is therefore real linear
algebra on 4^n-dimensional coefficient vectors and their transfer matrices.

Conventions: Pauli words are strings over "IXYZ" with the qubit-0 letter
first; index ``a`` carries the qubit-q letter in its q-th base-4 digit.
A state is the real coefficient vector r[a] = Tr(sigma_a rho) / 2^n, so
r[0] = 1/2^n encodes unit trace and trace preservation of a channel is
exactly "row 0 equals the unit vector e_0".

A CNOT maps the word (x, z) by x_t ^= x_c and z_c ^= z_t, so it keeps five
word classes (``_word_classes``): the identity, the other {I,Z} words, the
other {I,X} words, and the remaining words with an even and with an odd
number of Y letters, of sizes 1, 2^n - 1, 2^n - 1, (2^n - 1)(2^(n-1) - 1)
and (2^n - 1) 2^(n-1) (``_class_sizes``). Every transfer matrix here is
block-diagonal over them. ``_link_sums`` builds the link sums of many
weightings at once, each as one row of the flat block space (the blocks
laid end to end); only the public builders form a 4^n x 4^n matrix
(``_dense``), and refuse it from n = 7 on.

Every strongly connected network drives a state to one limit L, the
orthogonal projector onto the Pauli vectors b_k every CNOT fixes: b_k is
(-1)^floor(#Y/2) on word class k and 0 elsewhere, so |b_k|^2 is the
class size. These labels, signs and sizes (``_limit_classes``) are the
only description of L; the exact and dense maps, the O(4^n) state map
(``asymptotic_state``) and the rank-1 block terms of the evolution paths
(``_flat_limit``) are built from them.

A dynamic network redraws its graph every step, so its r-th iterate is the
r-th power S^r of the graph-averaged channel S; since S^r - L = (S - L)^r,
the spectrum of S - L gives D(r) for every r. S = w_id Id + c A with A the
sum of all link permutations, which does not depend on p, so one spectrum
of A per n serves every p. It is taken one symmetry sector at a time
(``_link_sectors``): the sector group, the subgroup of the ``_symmetries``
action generated by the disjoint qubit swaps (0 1), (2 3), ... and the
global Hadamard letter swap, commutes with A, and each of its characters
gives one small matrix per block, up to ``DYNAMIC_MAX_N`` qubits. A static
network keeps one unknown graph, so its r-th iterate is the ensemble
average of the per-graph powers M_g^r, held per block for all graphs in
one array: exact, from one representative per class of graphs up to
relabeling and reversal, up to ``STATIC_EXHAUSTIVE_MAX_N`` qubits, and
over seeded graph draws above. n alone picks between the two, in
``_static_ensembles``, the one place that branches on it; it refuses
before any draw when one graph's blocks (``_static_graph_bytes``) or the
draw exceed ``MEMORY_BUDGET_BYTES``, and the ensemble when all its
distinct graphs do.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .digraph import (MEMORY_BUDGET_BYTES, CostGuardError, DirectedGraph, Prob, arc_index, arc_pairs,
                      closed_prob, sample_arc_bits)

__all__ = [
    "PAULI_LETTERS",
    "SignedPauli",
    "index_to_word",
    "index_words",
    "cnot_conjugate",
    "ChannelSpec",
    "channel_ptm",
    "averaged_channel_ptm",
    "asymptotic_channel",
    "asymptotic_channel_exact",
    "asymptotic_state",
    "hs_distance",
    "state_zero",
    "state_plus",
    "state_mixed",
    "static_average_iterate",
    "convergence_trace",
    "static_convergence_traces",
]

PAULI_LETTERS = "IXYZ"

STATIC_EXHAUSTIVE_MAX_N = 4   # 2^(n(n-1)) graphs in 144 classes up to relabeling and reversal at n = 4
EXACT_CHANNEL_MAX_N = 4       # exact rational asymptotic map

_I, _X, _Y, _Z = 0, 1, 2, 3

# CNOT conjugation of the control and target letters, indexed [control, target]:
# with letter d = (x ^ z) + 2z for its X-bit x and Z-bit z, x_t ^= x_c and
# z_c ^= z_t, with sign (-1)^(x_c z_t (x_t ^ z_c ^ 1)) (Aaronson and Gottesman,
# "Improved simulation of stabilizer circuits", PRA 70, 052328, 2004).
_XC = (np.arange(4)[:, None] + 1) >> 1 & 1  # X-bit of the control letter, along axis 0
_ZC = np.arange(4)[:, None] >> 1
_XT, _ZT = _XC.T, _ZC.T
_CNOT_C = (_XC ^ _ZC ^ _ZT) + 2 * (_ZC ^ _ZT)
_CNOT_T = (_XT ^ _XC ^ _ZT) + 2 * _ZT
_CNOT_SIGN = 1 - 2 * (_XC & _ZT & (_XT ^ _ZC ^ 1))


def _check_word_length(n: int) -> None:
    """Refuse words whose index does not fit an int64: 4^31 - 1 is the largest that does."""
    if n > 31:
        raise ValueError("a word has an int64 index only up to 31 letters")


def index_words(indices, n: int) -> np.ndarray:
    """Pauli words of an array of indices, as a numpy string array, built from base-4 digits."""
    _check_word_length(n)
    digits = (np.asarray(indices)[..., None] >> (2 * np.arange(n))) & 3
    return np.frombuffer(PAULI_LETTERS.encode(), np.uint8)[digits].view(f"S{n}")[..., 0].astype(str)


def index_to_word(index: int, n: int) -> str:
    if not 0 <= index < 4 ** n:
        raise ValueError("index out of range")
    return str(index_words(index, n))


@dataclass(frozen=True)
class SignedPauli:
    word: str
    sign: int


def cnot_conjugate(word: str, control: int, target: int) -> SignedPauli:
    """Image U P U^dagger of a Pauli word under the CNOT with given control/target.

    Always another Pauli word with sign +-1; only the control and target
    letters change. It is ``_cnot_images`` of the word's index.
    """
    n = len(word)
    if control == target:
        raise ValueError("control and target must differ")
    if not (0 <= control < n and 0 <= target < n):
        raise ValueError("control/target out of range")
    _check_word_length(n)
    image, sign = _cnot_images(sum(PAULI_LETTERS.index(c) << 2 * q for q, c in enumerate(word)), control, target)
    return SignedPauli(index_to_word(int(image), n), int(sign))


def _cnot_images(idx, control: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """Image index and integer sign of a Pauli index, or of each in an array ``idx``, under CNOT conjugation."""
    dc = (idx >> (2 * control)) & 3
    dt = (idx >> (2 * target)) & 3
    perm = idx + (_CNOT_C[dc, dt] - dc) * 4 ** control + (_CNOT_T[dc, dt] - dt) * 4 ** target
    return perm, _CNOT_SIGN[dc, dt]


@dataclass(frozen=True)
class ChannelSpec:
    """A graph together with positive link weights summing to one."""

    graph: DirectedGraph
    weights: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.graph.arcs:
            raise ValueError("no links to apply: graph has an empty arc set")
        if set(self.weights) != set(self.graph.arcs):
            raise ValueError("weight keys must be exactly the graph's arcs")
        vals = list(self.weights.values())
        if any(w <= 0 for w in vals):
            raise ValueError("all link weights must be positive")
        if abs(sum(vals) - 1.0) > 1e-9:
            raise ValueError("link weights must sum to 1")

    def __hash__(self):
        return hash((self.graph, frozenset(self.weights.items())))

    @classmethod
    def uniform(cls, graph: DirectedGraph) -> "ChannelSpec":
        return cls(graph, {arc: 1.0 / len(graph.arcs) for arc in graph.arcs})


def _flat_rows(blocks) -> np.ndarray:
    """Per word a, where its row starts in the flat block space: entry (a, b) sits at rows[a] + pos[b]."""
    idxs, pos = blocks
    rows = np.empty(len(pos), dtype=np.int64)
    off = 0
    for idx in idxs:
        rows[idx] = off + pos[idx] * len(idx)
        off += len(idx) ** 2
    return rows


def _block_views(flat: np.ndarray, blocks) -> list[np.ndarray]:
    """(rows, m, m) views of each block of a flat (rows, sum of m^2) array."""
    views, off = [], 0
    for m in (len(idx) for idx in blocks[0]):
        views.append(flat[:, off:off + m * m].reshape(len(flat), m, m))
        off += m * m
    return views


def _link_sums(n: int, W, w_id, blocks) -> np.ndarray:
    """w_id * Id + sum over arcs of W[:, a] * P_a, one flat block-space row per row of W.

    P_a is the signed permutation of link a, and W has one column per arc
    in ``arc_pairs`` order; ``w_id`` is one number or one per row.
    ``blocks`` is ``_word_blocks(n)``, whose classes every P_a maps onto
    themselves. One pass over the arcs: each arc's flat positions and signs
    are computed once and added into every row, so a row's entries sum
    their arcs in ``arc_pairs`` order, and an arc of weight 0 leaves them
    unchanged.
    """
    rows, pos = _flat_rows(blocks), blocks[1]
    W = np.atleast_2d(np.asarray(W, dtype=float))
    flat = np.zeros((len(W), sum(len(idx) ** 2 for idx in blocks[0])))
    flat[:, rows + pos] = np.reshape(w_id, (-1, 1))
    for a, (u, v) in enumerate(arc_pairs(n)):
        perm, sign = _cnot_images(np.arange(4 ** n), u, v)
        flat[:, rows[perm] + pos] += W[:, a:a + 1] * sign  # entry (perm[w], w) for every word w
    return flat


def _dense(n: int, row) -> np.ndarray:
    """Dense 4^n x 4^n matrix of the flat block-space row ``row(_word_blocks(n))``.

    Refused at entry, before any 4^n table, where it would exceed
    ``MEMORY_BUDGET_BYTES`` (n >= 7).
    """
    if 8 * 16 ** n > MEMORY_BUDGET_BYTES:
        raise CostGuardError(f"dense {4 ** n} x {4 ** n} matrix at n={n} needs ~{8 * 16 ** n / 1e9:.1f} GB, "
                             f"over the {MEMORY_BUDGET_BYTES / 1e9:.0f} GB guard")
    blocks = _word_blocks(n)
    return _from_blocks(row(blocks), blocks)


def channel_ptm(spec: ChannelSpec) -> np.ndarray:
    """Transfer matrix of the random-unitary channel sum_l q_l U_l rho U_l^dagger.

    Each link contributes its signed permutation weighted by q_l; the
    result has at most |E| non-zero entries per column and row 0 = e_0.
    """
    n = spec.graph.n
    W = [spec.weights.get(arc, 0.0) for arc in arc_pairs(n)]
    return _dense(n, lambda blocks: _link_sums(n, W, 0.0, blocks)[0])


def _check_qubits(n: int) -> None:
    """The one check of every channel entry point: a CNOT needs two qubits."""
    if n < 2:
        raise ValueError(f"n must be >= 2 (a CNOT needs two qubits), got {n}")


def _average_weights(n: int, p: Prob) -> tuple[float, float]:
    """w_id and c of the graph-averaged channel S = w_id * Id + c * sum of all P_uv."""
    _check_qubits(n)
    if not 0 < float(p) < 1:
        raise ValueError("p must lie strictly in (0, 1)")
    n_arcs = n * (n - 1)
    w_id = (1.0 - float(p)) ** n_arcs
    return w_id, (1.0 - w_id) / n_arcs


def averaged_channel_ptm(n: int, p: Prob) -> np.ndarray:
    """Transfer matrix of the graph-averaged single-step channel.

    Averaging the per-graph uniform-weight channel over G(n, p) collapses,
    by link symmetry, to w_id * Id + c * sum over all n(n-1) links of the
    link's signed permutation, where w_id = (1-p)^(n(n-1)) is the no-link
    probability (an arcless graph applies no operation) and
    c = (1 - w_id) / (n(n-1)).
    """
    w_id, c = _average_weights(n, p)
    return _dense(n, lambda blocks: _link_sums(n, np.full(n * (n - 1), c), w_id, blocks)[0])


def _word_classes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Class label 0..4 of every Pauli word, and its sign (-1)^floor(#Y/2) in its class's fixed vector.

    A CNOT maps the Pauli word (x, z) by x_t ^= x_c and z_c ^= z_t, so it
    keeps x = 0, z = 0 and the parity of the number of Y letters. The
    classes are the identity word; the {I,Z} words and the {I,X} words
    without it; the other words with an even number of Y letters; and the
    words with an odd number.
    """
    low = (4 ** n - 1) // 3  # the low bit of every base-4 digit
    x = np.arange(4 ** n)  # X- and Z-bits, built in place, as a letter is (x ^ z) + 2z
    z = x >> 1
    z &= low
    x &= low
    x ^= z
    label = np.full(4 ** n, 3, dtype=np.int8)
    label[z == 0] = 2
    label[x == 0] = 1
    label[0] = 0
    x &= z
    ny = np.bitwise_count(x)  # Y letters, uint8
    label[ny & 1 == 1] = 4  # an odd count has x != 0 and z != 0
    return label, np.where(ny & 2, np.int8(-1), np.int8(1))


def _class_sizes(n: int) -> tuple[int, ...]:
    """Words in each class (``_word_classes``): 1, K, K, K(K-1)/2 and 2^(n-1) K, with K = 2^n - 1."""
    K = 2 ** n - 1
    return 1, K, K, K * (K - 1) // 2, K << (n - 1)


def _word_blocks(n: int) -> tuple[list[np.ndarray], np.ndarray]:
    """Index arrays of the five word classes (``_word_classes``), and each word's position in its class.

    Every transfer matrix in this module is block-diagonal over them, and
    class k is the support of the limit's fixed vector b_k.
    """
    label, _ = _word_classes(n)
    idxs = [np.flatnonzero(label == k) for k in range(5)]
    pos = np.empty(4 ** n, dtype=np.int64)
    for idx in idxs:
        pos[idx] = np.arange(len(idx))
    return idxs, pos


def _limit_classes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The limit L: each word's class label and sign (``_word_classes``), and |b_k|^2 (``_class_sizes``).

    The orthogonal vectors b_k span the operators every CNOT fixes: b_k is
    each word's sign on word class k and 0 elsewhere. The fixed operators
    I, |0..0><0..0|, |+..+><+..+| and the two coherences between |0..0>
    and |+..+> give e_0; the {I,Z}-word and the {I,X}-word indicators minus
    e_0; Re i^(#Y letters) minus those three; and Im i^(#Y letters).
    """
    _check_qubits(n)
    return (*_word_classes(n), np.array(_class_sizes(n)))


def asymptotic_channel(n: int) -> np.ndarray:
    """Transfer matrix of the common limit of iterated strongly connected CNOT networks.

    Implements rho -> P rho P + Tr((I-P) rho)/(2^n - 2) (I-P) with P the
    projector onto span{|0...0>, |+...+>}: the orthogonal projector onto
    the operators every CNOT fixes, one map per n, independent of the graph
    and of the link weights. Trace-preserving and idempotent. Each entry,
    +-1/|b_k|^2 or 0 (``_flat_limit``), is the float of the exact one.
    """
    return _dense(n, lambda blocks: _flat_limit(n, blocks)[0])


def asymptotic_channel_exact(n: int) -> list[list[Fraction]]:
    """Exact rational entries of the asymptotic transfer matrix (n <= 4): sign_a sign_b / |b_k|^2 on class k."""
    if n > EXACT_CHANNEL_MAX_N:
        raise CostGuardError(f"exact asymptotic map refused for n={n} (max {EXACT_CHANNEL_MAX_N})")
    label, sign, sizes = (x.tolist() for x in _limit_classes(n))
    zero = Fraction(0)
    return [[Fraction(sa * sb, sizes[ka]) if ka == kb else zero for kb, sb in zip(label, sign)]
            for ka, sa in zip(label, sign)]


def asymptotic_state(n: int, rho: np.ndarray) -> np.ndarray:
    """Image of the coefficient vector ``rho`` under the asymptotic map, in O(4^n).

    Sums b_k (b_k . rho) / |b_k|^2 over the five classes with one
    ``bincount``; no 4^n x 4^n map and no 5 x 4^n basis is formed. A zero
    coefficient is +0.0, whatever its word's sign. ``rho``'s shape is checked first.
    """
    if np.shape(rho) != (4 ** n,):
        raise ValueError(f"rho must have shape ({4 ** n},) for n={n}, got {np.shape(rho)}")
    label, sign, sizes = _limit_classes(n)
    coef = np.bincount(label, weights=sign * rho, minlength=5) / sizes
    return coef[label] * sign + 0.0  # -0.0 + 0.0 is +0.0


def hs_distance(m1: np.ndarray, m2: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) distance between two transfer matrices."""
    m1 = np.asarray(m1)
    m2 = np.asarray(m2)
    if m1.shape != m2.shape:
        raise ValueError(f"dimension mismatch: {m1.shape} vs {m2.shape}")
    return float(np.linalg.norm(m1 - m2))


def _product_state(n: int, letters: tuple[int, int]) -> np.ndarray:
    """2^-n on every word made only of the two given letters, as one Kronecker power."""
    single = np.zeros(4)
    single[list(letters)] = 1.0
    return reduce(np.kron, [single] * n, np.ones(1)) / 2 ** n


def state_zero(n: int) -> np.ndarray:
    """Coefficient vector of |0...0><0...0|: 2^-n on every {I,Z} word."""
    return _product_state(n, (_I, _Z))


def state_plus(n: int) -> np.ndarray:
    """Coefficient vector of |+...+><+...+|: 2^-n on every {I,X} word."""
    return _product_state(n, (_I, _X))


def state_mixed(n: int) -> np.ndarray:
    """Coefficient vector of the maximally mixed state I / 2^n."""
    r = np.zeros(4 ** n)
    r[0] = 1.0 / 2 ** n
    return r


# ---------------------------------------------------------------------------
# Static (quenched) ensemble averages
# ---------------------------------------------------------------------------

def _uniform_weights(n: int, masks) -> tuple[np.ndarray, np.ndarray]:
    """``_link_sums`` weights of the uniform-weight channel of every graph in ``masks``.

    W[g, a] is 1/|E| where graph g holds arc a and 0 elsewhere; arcless
    graphs apply the identity, w_id = 1.
    """
    has = (np.asarray(masks, dtype=np.int64)[:, None] >> np.arange(n * (n - 1))) & 1
    arcs = has.sum(axis=1)
    return has / np.maximum(arcs, 1)[:, None], (arcs == 0).astype(float)


def _from_blocks(flat: np.ndarray, blocks) -> np.ndarray:
    """Dense 4^n x 4^n matrix of one flat block-space vector."""
    M = np.zeros((len(blocks[1]), len(blocks[1])))
    for idx, (block,) in zip(blocks[0], _block_views(flat[None], blocks)):
        M[np.ix_(idx, idx)] = block
    return M


def _flat_limit(n: int, blocks) -> np.ndarray:
    """The limit L in the flat block space, one row: b_k b_k^T / |b_k|^2 in block k."""
    _, sign, sizes = _limit_classes(n)
    flat = np.empty((1, sum(len(idx) ** 2 for idx in blocks[0])))
    for idx, size, (block,) in zip(blocks[0], sizes, _block_views(flat, blocks)):
        block[:] = np.outer(sign[idx], sign[idx]) / size
    return flat


def _word_maps(n: int, elements):
    """Yield per (perm, reverse) the image of every Pauli index under q -> perm[q], and X <-> Z if reverse."""
    digits = [(np.arange(4 ** n) >> (2 * q)) & 3 for q in range(n)]  # extracted once per call
    for perm, reverse in elements:
        letters = np.array([_I, _Z, _Y, _X] if reverse else [_I, _X, _Y, _Z])
        yield sum(letters[d] << 2 * t for d, t in zip(digits, perm))


def _symmetries(n: int):
    """Yield (arc map, word map) for the 2 n! relabelings q -> perm[q], each without and with reversal.

    The arc map sends each arc slot to its image's slot, the word map each
    Pauli index to its image's. Reversal applies the global Hadamard
    (X <-> Z, Y -> -Y), which swaps control and target of every CNOT, so the
    image graph's transfer matrix at (word map[a], word map[b]) is the
    graph's at (a, b); the Y signs cancel, as each word class has one Y parity.
    """
    pairs = arc_pairs(n)
    elements = [(perm, reverse) for perm in itertools.permutations(range(n)) for reverse in (False, True)]
    for (perm, reverse), words in zip(elements, _word_maps(n, elements)):
        ends = [(perm[v], perm[u]) if reverse else (perm[u], perm[v]) for u, v in pairs]
        yield [arc_index(n, *e) for e in ends], words


@lru_cache(maxsize=None)
def _iso_classes(n: int) -> tuple[tuple[int, int], ...]:
    """(representative mask, orbit size) for digraphs up to vertex relabeling and arc reversal.

    Each class is represented by its smallest mask, in ascending order, and
    the orbit sizes sum to 2^(n(n-1)): 3, 13 and 144 classes at n = 2, 3
    and 4. Reversal keeps the arc count and so the graph's probability.
    """
    n_arcs = n * (n - 1)
    bits = (np.arange(1 << n_arcs)[:, None] >> np.arange(n_arcs)) & 1
    images = bits @ (1 << np.array([arcs for arcs, _ in _symmetries(n)]).T)
    reps, orbit = np.unique(images.min(axis=1), return_counts=True)
    return tuple(zip(reps.tolist(), orbit.tolist()))


def _relabel_orbits(n: int, blocks) -> tuple[np.ndarray, np.ndarray]:
    """Orbit label of every flat block-space entry under ``_symmetries``, and each orbit's size.

    Each word map keeps the word classes or swaps the {I,Z} and {I,X}
    classes, which have one size, so moving a block-diagonal matrix by it is
    one gather over the flat block space. The 2 n! gathers carry each entry
    over its orbit, |stabilizer| = 2 n!/|orbit| times per entry.
    """
    idxs, pos = blocks
    rows = _flat_rows(blocks)
    entry_row = np.concatenate([np.repeat(idx, len(idx)) for idx in idxs])  # (a, b) of each entry
    entry_col = np.concatenate([np.tile(idx, len(idx)) for idx in idxs])
    least = None
    for _, image in _symmetries(n):
        gather = rows[image][entry_row] + pos[image][entry_col]
        least = gather if least is None else np.minimum(least, gather, out=least)
    _, orbit, size = np.unique(least, return_inverse=True, return_counts=True)
    return orbit, size


def _graph_weights(n: int, p: float, masks) -> np.ndarray:
    n_arcs = n * (n - 1)
    q = 1.0 - p
    return np.array([p ** bin(m).count("1") * q ** (n_arcs - bin(m).count("1")) for m in masks])


class _StaticEnsemble:
    """Incrementally iterable per-graph channel powers and their averaging weights.

    Each graph's powers are held per word block, all graphs in one
    (graphs, sum of m_b^2) array built in one pass (``_link_sums``),
    so a step is one batched ``matmul`` per block and the weighted averages
    for every p are one product with the (p, graph) weight matrix. The
    powers start at r = 1, as a copy of the bases. ``weights`` maps each
    edge probability the ensemble serves to one weight per graph in
    ``masks``, computed once. With ``symmetrize`` the weighted sum is also
    summed over the n! qubit relabelings, each with and without the global
    Hadamard: an exhaustive ensemble holds one representative per class of
    graphs up to relabeling and reversal, weighted by its graph probability
    times orbit / (2 n!). Relabeling a graph conjugates its transfer matrix
    by the matching Pauli-index permutation and reversing it conjugates by
    the Hadamard, so the result is the exact average over every labeled
    graph.
    """

    def __init__(self, n: int, masks: list[int], weights: dict, symmetrize: bool):
        per_graph = _static_graph_bytes(n)
        if len(masks) * per_graph > MEMORY_BUDGET_BYTES:
            raise CostGuardError(
                f"static ensemble of {len(masks)} distinct graphs at n={n} needs "
                f"~{len(masks) * per_graph / 1e9:.1f} GB; at most "
                f"{MEMORY_BUDGET_BYTES // per_graph} distinct graphs fit under the "
                f"{MEMORY_BUDGET_BYTES / 1e9:.0f} GB guard, and --budget caps the number drawn"
            )
        self.blocks = _word_blocks(n)
        self.p_list = list(weights)
        self.W = np.array([weights[p] for p in self.p_list])
        self.bases = _link_sums(n, *_uniform_weights(n, masks), self.blocks)
        self.powers = self.bases.copy()  # r = 1
        self._buf = np.empty_like(self.powers)
        self._views = [_block_views(a, self.blocks) for a in (self.powers, self.bases, self._buf)]
        self.limit = _flat_limit(n, self.blocks)
        self.orbit = None
        if symmetrize:
            self.orbit, self._orbit_size = _relabel_orbits(n, self.blocks)
            # o + i * (number of orbits) on row i's entries of orbit o
            self._labels = (self.orbit + len(self._orbit_size) * np.arange(len(self.W))[:, None]).ravel()
            self._scale = 2 * math.factorial(n) / self._orbit_size
            self._orbit_limit = np.empty(len(self._orbit_size))
            self._orbit_limit[self.orbit] = self.limit[0]
            if not np.array_equal(self._orbit_limit[self.orbit], self.limit[0]):
                raise RuntimeError("the limit must be constant on every relabeling orbit")

    def step(self):
        powers, bases, buf = self._views
        for P, B, out in zip(powers, bases, buf):
            np.matmul(P, B, out=out)
        self.powers, self._buf = self._buf, self.powers
        self._views = [buf, bases, powers]

    def _orbit_values(self, A: np.ndarray) -> np.ndarray:
        """Sum of g B g^T over the 2 n! relabelings and Hadamard conjugations g, per flat row B of A and orbit.

        That sum is 2 n!/|o| times the sum of B over orbit o on every entry
        of o; one ``bincount`` sums every row over every orbit, each sum
        adding its entries in flat order.
        """
        return np.bincount(self._labels, weights=A.ravel()).reshape(len(A), -1) * self._scale

    def averages(self) -> np.ndarray:
        """Weighted sums of the current powers, one flat row per p in ``p_list``."""
        A = self.W @ self.powers
        return A if self.orbit is None else self._orbit_values(A)[:, self.orbit]

    def distances(self) -> np.ndarray:
        """Hilbert-Schmidt distance of each average to the limit, one per p in ``p_list``.

        A symmetrized average takes one value T_o on every entry of orbit o,
        and the limit one value L_o, so D^2 is the sum over orbits of
        |o| (T_o - L_o)^2.
        """
        A = self.W @ self.powers
        if self.orbit is None:
            return np.linalg.norm(A - self.limit, axis=1)
        diff = self._orbit_values(A) - self._orbit_limit
        return np.sqrt((diff * diff * self._orbit_size).sum(axis=1))


def _static_graph_bytes(n: int) -> int:
    """Bytes of one graph in a ``_StaticEnsemble``: bases, powers and buffer, a float per block entry."""
    return 3 * 8 * sum(m * m for m in _class_sizes(n))


def _static_ensembles(n: int, p_list: list[float], budget: int, seed: int):
    """Ensembles whose averages give the static iterate at every p in ``p_list``.

    n alone picks the ensemble. Up to ``STATIC_EXHAUSTIVE_MAX_N`` qubits it
    is exhaustive: the classes up to relabeling and reversal weighed by
    p^|E| (1-p)^(n(n-1)-|E|) (arcless graphs apply the identity), one
    ensemble for all p. Above, it is sampled: ``budget`` seeded draws
    weighed equally, one ensemble per p. ``n``, ``p``, ``budget`` and the
    bytes of one graph and of the draw are checked at once; the result is
    an iterator that builds each ensemble only when the caller asks for the
    next, and is empty for no p.
    """
    _check_qubits(n)
    for p in p_list:
        closed_prob(p)
    if budget < 1:
        raise ValueError(f"the static ensemble needs at least one drawn graph (--budget), got {budget}")
    exhaustive = n <= STATIC_EXHAUSTIVE_MAX_N
    # a draw holds a double and a bool per arc slot and two int64 masks per graph
    draw = 0 if exhaustive else budget * (9 * n * (n - 1) + 16)
    for need, what in ((_static_graph_bytes(n), "per graph"), (draw, f"to draw {budget} graphs")):
        if need > MEMORY_BUDGET_BYTES:
            raise CostGuardError(f"static ensemble at n={n} needs ~{need / 1e9:.1f} GB {what}, over "
                                 f"the {MEMORY_BUDGET_BYTES / 1e9:.0f} GB guard")
    if exhaustive:
        def build():
            classes = _iso_classes(n)
            masks = [m for m, _ in classes]
            orbit = np.array([o for _, o in classes], dtype=float)
            weights = {p: _graph_weights(n, p, masks) * orbit / (2 * math.factorial(n)) for p in p_list}
            yield _StaticEnsemble(n, masks, weights, symmetrize=True)
    else:
        def build():
            for p in dict.fromkeys(p_list):
                bits = sample_arc_bits(n, p, budget, np.random.SeedSequence(seed))
                masks, counts = np.unique(bits @ (1 << np.arange(n * (n - 1))), return_counts=True)
                yield _StaticEnsemble(n, masks, {p: counts / budget}, symmetrize=False)
    return build() if p_list else iter(())


def _identity_distance(n: int) -> float:
    """D(0), the norm of Id - L: a projector of rank 4^n - 5, since L has rank 5."""
    return math.sqrt(4 ** n - 5)


def static_average_iterate(
    n: int,
    p: Prob,
    r: int,
    budget: int = 10_000,
    seed: int = 0,
) -> np.ndarray:
    """Average of the r-th channel power over graphs drawn once and then fixed.

    n alone picks the ensemble (``_static_ensembles``): up to
    ``STATIC_EXHAUSTIVE_MAX_N`` qubits the sum of p^|E| (1-p)^(n(n-1)-|E|)
    M_g^r over every graph (arcless graphs contribute the identity), above
    it the equal-weight average over ``budget`` seeded graph draws. The
    blocks are scattered into one dense 4^n x 4^n matrix. From n = 4 on one
    graph's blocks outweigh that matrix, so the check of
    ``_static_ensembles`` refuses first, from n = 7.
    """
    if r < 0:
        raise ValueError("r must be >= 0")
    ensembles = _static_ensembles(n, [float(p)], budget, seed)  # checks n, p, budget and the bytes
    if r == 0:
        return np.eye(4 ** n)  # every graph contributes M^0 = Id
    (ens,) = ensembles
    for _ in range(r - 1):  # the ensemble starts at r = 1
        ens.step()
    return _from_blocks(ens.averages()[0], ens.blocks)


def static_convergence_traces(
    n: int,
    p_list,
    r_max: int,
    budget: int = 10_000,
    seed: int = 0,
) -> dict:
    """Distance-to-limit traces of the static ensemble for several p at once.

    Returns {p: [(r, D)]} with D the Hilbert-Schmidt distance between the
    ensemble-averaged r-th power and the asymptotic map; n picks the
    ensemble, and ``budget`` and ``seed`` are as in
    ``static_average_iterate``. The exhaustive per-graph powers do not
    depend on p, so all requested p values share one sweep. Every graph's
    M^0 is Id, so D(0) is ``_identity_distance(n)``, and the sweep starts
    from the bases at r = 1 and takes r_max - 1 steps.
    """
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    p_list = list(p_list)
    traces = {}
    for ens in _static_ensembles(n, [float(p) for p in p_list], budget, seed):
        for r in range(r_max + 1):
            if r > 1:
                ens.step()
            dists = ens.distances() if r else [_identity_distance(n)] * len(ens.p_list)
            for pf, dist in zip(ens.p_list, dists):
                traces.setdefault(pf, []).append((r, float(dist)))
        del ens  # one ensemble in memory at a time: free it before the next is built
    return {p: traces[float(p)] for p in p_list}


# ---------------------------------------------------------------------------
# Dynamic spectrum, one symmetry sector at a time
# ---------------------------------------------------------------------------

DYNAMIC_MAX_N = 8  # its largest sector matrix holds 2551 words, against 10094 at n = 9


def _sector_maps(n: int) -> np.ndarray:
    """Word maps (``_word_maps``) of the 2^(n//2 + 1) sector-group elements, row e for bit mask e.

    Bit j < n // 2 swaps qubits 2j and 2j + 1, and bit n // 2 swaps X and Z:
    the subgroup of the ``_symmetries`` action generated by the disjoint
    swaps and the Hadamard. The elements commute and each is its own inverse.
    """
    m = n // 2
    elements = [([q ^ (e >> q // 2 & 1) if q < 2 * m else q for q in range(n)], e >> m & 1) for e in range(2 << m)]
    return np.stack(list(_word_maps(n, elements)))


def _link_sectors(n: int, maps: np.ndarray, words: np.ndarray, pos: np.ndarray, k: int):
    """Yield (chi, A_chi): the link sum A = sum of P_uv on word class k, in each nonempty sector chi.

    ``maps`` is ``_sector_maps(n)``, ``words`` class k and ``pos`` each word's
    position in its class. The group G of ``maps`` (without the Hadamard bit
    on classes 0 to 2, which it swaps) commutes with A: a qubit swap relabels
    the links, and the Hadamard maps P_uv to P_vu as the signed permutation
    +perm on class 3 and -perm on class 4. Sector chi has the orthonormal
    basis v_O = |O|^-1/2 sum_{t in O} chi(g_t) e_t over the orbits O whose
    stabilizer chi is trivial on, where g_t maps O's least word r_O to t, and
    A v_O = sum_l s_l(r_O) sqrt(|O| / |O'|) chi(g_t) v_O' with t = pi_l(r_O)
    in orbit O'. So each sector matrix comes from the n(n-1) link images of
    the representatives alone.
    """
    order = 1 << (n // 2 + (k >= 3))
    images = maps[:order, words]
    rep = images.min(axis=0)
    reps, orbit, size = np.unique(rep, return_inverse=True, return_counts=True)
    g_of = (images == rep).argmax(axis=0)  # g_t, since g r_O = t exactly when g t = r_O
    stab = images[:, pos[reps]] == reps
    e = np.arange(order)
    parity = (np.bitwise_count(e[:, None] & e) & 1).astype(np.int64)  # chi(e) = (-1)^parity[chi, e]
    keep = parity @ stab == 0
    control, target = np.array(arc_pairs(n)).T[:, :, None]
    image, sign = _cnot_images(reps, control, target)  # (arcs, orbits)
    at = pos[image]
    dest, src, g = orbit[at], np.broadcast_to(np.arange(len(reps)), at.shape), g_of[at]
    coef = sign * np.sqrt(size / size[dest])
    for chi in range(order):
        kept = keep[chi]
        dim = int(kept.sum())
        if dim:
            new = np.cumsum(kept) - 1
            sel = kept[dest] & kept
            A = np.bincount(new[dest[sel]] * dim + new[src[sel]], minlength=dim * dim,
                            weights=(coef * (1 - 2 * parity[chi, g]))[sel])
            yield chi, A.reshape(dim, dim)


@lru_cache(maxsize=None)
def _link_spectrum(n: int) -> np.ndarray:
    """Eigenvalues of A = sum of P_uv over all n(n-1) links, one ``eigvalsh`` per sector (``_link_sectors``).

    Each block's fixed-space vector b_k lies in its trivial sector and has
    that sector's largest eigenvalue, n(n-1) (every P_uv fixes b_k, and no
    other vector is fixed by all of them); it is checked and dropped, so
    the rest is the spectrum of A on the complement of the limit's range.
    """
    n_arcs = n * (n - 1)
    parts = []
    (idxs, pos), maps = _word_blocks(n), _sector_maps(n)
    for k, words in enumerate(idxs):
        for chi, A in _link_sectors(n, maps, words, pos, k):
            lam = np.linalg.eigvalsh(A)
            if chi == 0:
                if abs(lam[-1] - n_arcs) > 1e-9 * n_arcs:
                    raise ArithmeticError(f"largest link-sum eigenvalue {lam[-1]!r} is not n(n-1) = {n_arcs}")
                lam = lam[:-1]
            parts.append(lam)
    spectrum = np.concatenate(parts)
    spectrum.setflags(write=False)
    return spectrum


def _dynamic_trace(n: int, p: Prob, r_max: int):
    """Yield (r, D(r)) for the powers of the graph-averaged single-step channel S.

    Every link's transfer matrix is a symmetric signed permutation that
    fixes each basis vector of the limit L, so S L = L S = L and
    S^r - L = (S - L)^r for r >= 1. One spectrum mu of the symmetric S - L
    then gives D(r)^2 = sum mu^(2r) for every r >= 1, and D(0) is
    ``_identity_distance(n)``. S = w_id * Id + c * A, and A commutes with L, so
    off the five zero eigenvalues on the range of L mu = w_id + c * lambda
    over ``_link_spectrum(n)``, shared by every p. The sum is taken as
    D(r) = m^r sqrt(sum (mu/m)^(2r)) with m = max |mu|, so it holds no
    subnormal term that matters; the trace ends before m^r leaves the
    normal float range. Refuses n > ``DYNAMIC_MAX_N`` before anything is
    built: the largest sector grows with n, to 10094 words at n = 9.
    """
    _check_qubits(n)
    if n > DYNAMIC_MAX_N:
        raise CostGuardError(f"dynamic evolution refused for n={n} (max {DYNAMIC_MAX_N}): above it the "
                             "largest symmetry sector holds over 10000 words")
    yield 0, _identity_distance(n)
    if r_max < 1:
        return
    w_id, c = _average_weights(n, p)
    mu = w_id + c * _link_spectrum(n)
    m = float(np.abs(mu).max())
    ratio2 = (mu / m) ** 2
    power, scale = ratio2, m
    for r in range(1, r_max + 1):
        if scale < sys.float_info.min:  # m^r would be subnormal
            return
        yield r, scale * math.sqrt(power.sum())
        power = power * ratio2
        scale *= m


def convergence_trace(
    n: int,
    p: Prob,
    mode: str,
    r_max: int,
    stop_below: float | None = None,
) -> list[tuple[int, float]]:
    """Distance D(r) between the r-th iterate and the asymptotic map, r = 0..r_max.

    ``dynamic``: the graph is redrawn every step, so the r-th iterate is
    the r-th power of the averaged single-step channel. ``static``: one
    unknown graph is fixed throughout, so the r-th iterate is the ensemble
    average of per-graph r-th powers, over the ensemble that n picks
    (``static_convergence_traces``, at its defaults).
    ``stop_below`` truncates the trace once D drops under the given value.
    A dynamic trace also ends before r_max where max|mu|^r, a factor of
    every later D(r), would leave the normal float range.
    """
    if r_max < 0:
        raise ValueError("r_max must be >= 0")
    if mode == "dynamic":
        trace = _dynamic_trace(n, p, r_max)
    elif mode == "static":
        trace = static_convergence_traces(n, [p], r_max)[p]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    rows = []
    for r, dist in trace:
        rows.append((r, dist))
        if stop_below is not None and dist < stop_below:
            break
    return rows
