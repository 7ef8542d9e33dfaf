"""Directed graphs, G(n, p) sampling and the strong-connectivity oracles.

Graphs are immutable: a vertex count plus a set of ordered pairs (no
self-loops). Arcs are also addressable through a fixed bit layout, index
``u*(n-1) + (v if v < u else v - 1)``, which lets a graph be encoded as an
integer mask; exhaustive enumeration is then just integer counting.

Two oracles validate the analytic recursion elsewhere in the package:

* ``exact_pc_bruteforce`` enumerates every digraph on n <= 5 vertices once,
  aggregates strongly connected counts by arc count, and evaluates the
  resulting polynomial in p exactly.
* ``estimate_pc_monte_carlo`` samples graphs in bulk and reports a Wilson
  score interval.

Both use a bit-parallel reachability kernel that processes 64 graphs per
machine word; ``sample_arc_bits`` draws G(n, p) graphs in bulk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Union

import numpy as np

Prob = Union[Fraction, float]  # an edge probability: exact as a Fraction, binary64 as a float

__all__ = [
    "Prob",
    "CostGuardError",
    "DirectedGraph",
    "McEstimate",
    "arc_pairs",
    "arc_index",
    "sample_arc_bits",
    "sample_digraph",
    "strongly_connected_counts",
    "exact_pc_bruteforce",
    "wilson_interval",
    "estimate_pc_monte_carlo",
    "mc_arc_prob",
]

BRUTEFORCE_MAX_N = 5  # 2^(n(n-1)) graphs; n = 5 is already ~10^6

# Monte Carlo arcs compare a 16-bit variate with round(p * 2^16), most
# significant digit first: p is realized on a 1/65536 grid (exact for
# p = k/65536, off by at most 2^-17 otherwise). A digit costs one raw random
# word per 64 arcs; the top byte is drawn for every word and the low byte
# only for the words where some arc still ties.
_MC_DIGITS = 16
_MC_P_GRID = 1 << _MC_DIGITS
_MC_BLOCK = 8192  # plane words compared together, so that the tie scratch stays in cache
_MC_CHUNK = 1 << 18  # graphs per chunk, halved at large n until its arc plane fits the budget

# One memory budget for the arrays a single run holds: the Monte Carlo
# chunks in flight and the static channel ensembles.
MEMORY_BUDGET_BYTES = 2_000_000_000


class CostGuardError(RuntimeError):
    """Raised when a computation is refused because it exceeds the cost envelope."""


def arc_index(n: int, u: int, v: int) -> int:
    """Bit position of arc (u, v) in the row-major no-diagonal layout."""
    return u * (n - 1) + (v if v < u else v - 1)


def arc_pairs(n: int) -> list[tuple[int, int]]:
    """All ordered pairs (u, v), u != v, in bit-layout order."""
    return [(u, v) for u in range(n) for v in range(n) if v != u]


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable digraph: vertex count plus a set of ordered arcs, no self-loops."""

    n: int
    arcs: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("vertex count must be >= 1")
        arcs = frozenset((int(u), int(v)) for u, v in self.arcs)
        for u, v in arcs:
            if u == v:
                raise ValueError(f"self-loop ({u}, {v}) not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc ({u}, {v}) out of range for n={self.n}")
        object.__setattr__(self, "arcs", arcs)

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "DirectedGraph":
        pairs = arc_pairs(n)
        return cls(n, frozenset(pairs[j] for j in range(len(pairs)) if (mask >> j) & 1))

    @classmethod
    def complete(cls, n: int) -> "DirectedGraph":
        return cls(n, frozenset(arc_pairs(n)))

    @classmethod
    def cycle(cls, n: int) -> "DirectedGraph":
        """Directed n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
        return cls(n, frozenset((u, (u + 1) % n) for u in range(n)))

    @property
    def mask(self) -> int:
        m = 0
        for u, v in self.arcs:
            m |= 1 << arc_index(self.n, u, v)
        return m


def closed_prob(p: Prob) -> float:
    """``p`` as a float, checked to lie in the closed interval [0, 1]."""
    if not 0.0 <= float(p) <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return float(p)


def sample_arc_bits(n: int, p: Prob, count: int, rng) -> np.ndarray:
    """Arc bits of ``count`` G(n, p) draws: row g says which arc slots graph g holds.

    Each ordered arc is present independently with probability p, one
    uniform double per arc slot in bit-layout order, so the rows are the
    graphs of ``count`` successive one-graph draws from the same stream.
    ``rng`` is a ``numpy.random.Generator`` or a seed for ``default_rng``;
    a fixed seed reproduces the same graphs.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pf = closed_prob(p)
    return np.random.default_rng(rng).random((count, n * (n - 1))) < pf


def sample_digraph(n: int, p: Prob, rng) -> DirectedGraph:
    """Sample one G(n, p) graph (``sample_arc_bits`` with one row)."""
    (bits,) = sample_arc_bits(n, p, 1, rng)
    return DirectedGraph(n, frozenset(pr for pr, b in zip(arc_pairs(n), bits) if b))


# ---------------------------------------------------------------------------
# Bit-parallel ensemble kernel: one bit per graph, 64 graphs per word.
# ---------------------------------------------------------------------------

def _strong_flags(planes: np.ndarray, n: int) -> np.ndarray:
    """Bitmask of strongly connected graphs.

    ``planes[a]`` holds, for arc slot ``a`` in bit-layout order, one bit per
    graph telling whether that arc is present. A graph is strongly connected
    iff vertex 0 reaches every vertex and every vertex reaches vertex 0.
    """
    pairs = arc_pairs(n)
    words = planes.shape[1]
    flags = np.full(words, ~np.uint64(0), dtype=np.uint64)
    tmp = np.empty(words, dtype=np.uint64)
    for backward in (False, True):
        reach = np.zeros((n, words), dtype=np.uint64)
        reach[0] = ~np.uint64(0)
        for _ in range(n - 1):
            before = reach.copy()
            for a, (u, v) in enumerate(pairs):
                if backward:
                    u, v = v, u
                np.bitwise_and(reach[u], planes[a], out=tmp)
                np.bitwise_or(reach[v], tmp, out=reach[v])
            if np.array_equal(before, reach):
                break
        for v in range(1, n):
            np.bitwise_and(flags, reach[v], out=flags)
    return flags


def _enumeration_planes(n: int) -> np.ndarray:
    """Arc planes for the full enumeration: lane g holds graph g, so plane j is bit j of the lane index."""
    n_arcs = n * (n - 1)
    lanes = np.arange(max(64, 1 << n_arcs), dtype=np.uint32)
    planes = [np.packbits((lanes & (1 << j)) != 0, bitorder="little").view(np.uint64) for j in range(n_arcs)]
    return np.array(planes, dtype=np.uint64).reshape(n_arcs, len(lanes) >> 6)


@lru_cache(maxsize=None)
def strongly_connected_counts(n: int) -> tuple[int, ...]:
    """Count strongly connected digraphs on n labeled vertices, by arc count.

    Entry e is the number of strongly connected digraphs with exactly e
    arcs; the enumeration covers all 2^(n(n-1)) graphs, so n is capped at
    ``BRUTEFORCE_MAX_N``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > BRUTEFORCE_MAX_N:
        raise CostGuardError(f"exhaustive enumeration refused for n={n} (max {BRUTEFORCE_MAX_N})")
    n_arcs = n * (n - 1)
    flags = _strong_flags(_enumeration_planes(n), n)
    bits = np.unpackbits(flags.view(np.uint8), bitorder="little")[: 1 << n_arcs]
    sizes = np.bitwise_count(np.arange(1 << n_arcs, dtype=np.uint32))
    counts = np.bincount(sizes[bits.astype(bool)], minlength=n_arcs + 1)
    return tuple(int(c) for c in counts)


def exact_pc_bruteforce(n: int, p: Prob) -> Prob:
    """Strong-connectivity probability by exhaustive enumeration (n <= 5).

    Aggregates the count of strongly connected digraphs by arc count e and
    evaluates sum_e c_e p^e (1-p)^(n(n-1)-e); exact when p is a Fraction.
    The counts are computed once per n and cached.
    """
    counts = strongly_connected_counts(n)
    q = 1 - p
    n_arcs = n * (n - 1)
    total = 0
    for e, c in enumerate(counts):
        if c:
            total += c * p ** e * q ** (n_arcs - e)
    return total


# ---------------------------------------------------------------------------
# Monte Carlo estimation
# ---------------------------------------------------------------------------

_WILSON_Z = 2.5758293035489  # NormalDist().inv_cdf(0.995), two-sided 99 %


def wilson_interval(hits: int, samples: int) -> tuple[float, float]:
    """Wilson score interval at 99 % confidence for a binomial proportion.

    Chosen over the Wald interval because it behaves sensibly when the
    estimate sits near 0 or 1, which is the regime of interest here.
    """
    if not 0 <= hits <= samples or samples < 1:
        raise ValueError("need 0 <= hits <= samples, samples >= 1")
    zz = _WILSON_Z * _WILSON_Z
    denom = samples + zz
    center = (hits + zz / 2.0) / denom
    half = _WILSON_Z * ((hits * (samples - hits) / samples + zz / 4.0) ** 0.5) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo estimate with a Wilson confidence interval."""

    samples: int
    hits: int
    estimate: float
    lo: float
    hi: float
    confidence: float = 0.99


def _bernoulli_planes(bitgen: np.random.BitGenerator, threshold: int, shape: tuple) -> np.ndarray:
    """uint64 words whose bits are independently 1 with probability threshold / 2^16.

    Bit j of a word is lane j. Each lane compares a uniform 16-bit variate
    U with the threshold, U's binary digit i being the complement of the
    lane's bit in the raw words drawn for digit i. The flat plane is walked
    in blocks of ``_MC_BLOCK`` words, and each block compares the top byte
    most significant digit first: at a 1 digit of the threshold, tied lanes
    whose U digit is 0 are decided present, and at a 0 digit, tied lanes
    whose U digit is 1 are decided absent. Only the words where some lane
    still ties draw the low byte, least significant digit first (an OR at a
    1 digit, an AND at a 0 digit), and those lanes are present where it
    compares below. Digits below the threshold's lowest set bit cannot
    decide the comparison and are never drawn, and a lane tied there has
    U >= threshold. So p = 1/2 is the raw words themselves, one per 64
    lanes, and an odd threshold costs 8 + 8 (1 - (255/256)^64), about
    9.8, raw words per 64 lanes.
    """
    if threshold <= 0:
        return np.zeros(shape, dtype=np.uint64)
    if threshold >= _MC_P_GRID:
        return np.full(shape, ~np.uint64(0), dtype=np.uint64)
    low = (threshold & -threshold).bit_length() - 1
    if low == _MC_DIGITS - 1:
        return bitgen.random_raw(shape)
    planes = np.zeros(shape, dtype=np.uint64)
    flat = planes.reshape(-1)
    top = range(_MC_DIGITS - 1, max(low, 8) - 1, -1)
    for start in range(0, flat.size, _MC_BLOCK):
        less = flat[start:start + _MC_BLOCK]
        tie = np.full(less.size, ~np.uint64(0))
        for digit in top:
            raw = bitgen.random_raw(less.size)
            if (threshold >> digit) & 1:
                np.bitwise_and(raw, tie, out=raw)  # tied lanes with U digit 0: decided present
                np.bitwise_or(less, raw, out=less)
                np.bitwise_xor(tie, raw, out=tie)
            else:
                np.bitwise_and(tie, raw, out=tie)  # tied lanes with U digit 1 are decided absent
        if low < 8:
            idx = np.flatnonzero(tie)
            chain = bitgen.random_raw(idx.size)
            for digit in range(low + 1, 8):
                if (threshold >> digit) & 1:
                    np.bitwise_or(chain, bitgen.random_raw(idx.size), out=chain)
                else:
                    np.bitwise_and(chain, bitgen.random_raw(idx.size), out=chain)
            less[idx] |= tie[idx] & chain
    return planes


def mc_arc_prob(p: Prob) -> Fraction:
    """The arc probability ``estimate_pc_monte_carlo`` samples for ``p``: round(p * 2^16) / 2^16."""
    return Fraction(round(closed_prob(p) * _MC_P_GRID), _MC_P_GRID)


def _mc_chunk_hits(n: int, threshold: int, size: int, seed: np.random.SeedSequence) -> int:
    """Count strongly connected graphs among ``size`` samples from one RNG stream."""
    planes = _bernoulli_planes(np.random.PCG64(seed), threshold, (n * (n - 1), (size + 63) >> 6))
    flags = _strong_flags(planes, n)
    if size & 63:
        # lane j of a word is its bit j; mask the lanes past the last sample
        flags[-1] &= np.uint64((1 << (size & 63)) - 1)
    return int(np.bitwise_count(flags).sum())


def _plane_bytes(n: int, size: int) -> int:
    """Bytes a ``size``-graph chunk holds while it is drawn: its arc plane and its block scratch.

    The scratch is at most six block-sized word arrays: the ties, a raw digit
    and, for the tied words, their indices, the low-byte chain, its next raw
    digit and one gathered copy.
    """
    return 8 * (n * (n - 1) * ((size + 63) >> 6) + 6 * _MC_BLOCK)


def _mc_chunk(n: int) -> int:
    """Graphs per chunk: the largest power of two up to ``_MC_CHUNK`` whose planes fit the budget.

    It depends only on n, so it fixes the chunk seeds, and with them the
    hits, for a given (seed, samples). Every n <= 247 gets the full 2^18.
    """
    chunk = _MC_CHUNK
    while chunk > 64 and _plane_bytes(n, chunk) > MEMORY_BUDGET_BYTES:
        chunk >>= 1
    return chunk


def estimate_pc_monte_carlo(n: int, p: Prob, samples: int, seed: int = 0) -> McEstimate:
    """Estimate the strong-connectivity probability of G(n, p) by sampling.

    The sample budget is split into fixed-size chunks, drawn one after the
    other in the calling thread; chunk i draws from the i-th child of
    ``SeedSequence(seed).spawn``, built when it is drawn, so results are
    deterministic for a given (seed, samples) and merging is plain count
    addition. A chunk is 2^18 graphs, or the largest power of two below
    that fits the memory budget (``_mc_chunk``).
    Each arc compares a 16-bit variate with round(p * 65536)
    (``mc_arc_prob``), most significant digit first, one raw 64-bit word
    per binary digit and 64 graphs (``_bernoulli_planes``): the top byte
    for every word, the low byte only for the words where some arc still
    ties. So p is realized on a 1/65536 grid (exact at the endpoints and
    for p = k/65536), a general p costs about 9.8 raw words per 64 arcs and
    p = 1/2 one. A chunk holds one plane of 8 bytes per arc and 64 graphs,
    plus a scratch of a few 8192-word blocks, and only one chunk is held
    at a time; a run is refused before anything is drawn only when one
    64-graph chunk does not fit in ``MEMORY_BUDGET_BYTES``.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    threshold = int(mc_arc_prob(p) * _MC_P_GRID)
    chunk = _mc_chunk(n)
    if _plane_bytes(n, chunk) > MEMORY_BUDGET_BYTES:
        raise CostGuardError(
            f"Monte Carlo at n={n} needs ~{_plane_bytes(n, chunk) / 1e9:.1f} GB of arc planes "
            f"for the smallest chunk of {chunk} graphs, over the "
            f"{MEMORY_BUDGET_BYTES / 1e9:.0f} GB guard"
        )
    root = np.random.SeedSequence(seed)
    hits = sum(_mc_chunk_hits(n, threshold, min(chunk, samples - i * chunk),
                              np.random.SeedSequence(root.entropy, spawn_key=(i,)))
               for i in range(-(-samples // chunk)))
    return McEstimate(samples, hits, hits / samples, *wilson_interval(hits, samples))
