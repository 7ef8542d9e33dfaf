"""Shared test oracles, kept independent of the package implementations.

``partition_sum_pc`` assembles the partition helpers and the
acyclic-interconnect recursion below (each tested against brute force)
into an exact P_C algorithm independent of the package's factorization.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby, product

import numpy as np
import pytest

from randqnet import DirectedGraph


# --- dense quantum oracles -------------------------------------------------

_P1 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_pauli(word: str) -> np.ndarray:
    """Dense Pauli word, qubit 0 least significant."""
    out = np.array([[1.0 + 0j]])
    for ch in reversed(word):
        out = np.kron(out, _P1[ch])
    return out


def pauli_coeffs(rho: np.ndarray) -> np.ndarray:
    """Pauli coefficient vector r[a] = Tr(sigma_a rho) / 2^n of a density matrix."""
    dim = rho.shape[0]
    n = dim.bit_length() - 1
    return np.array([np.trace(kron_pauli("".join(w)) @ rho).real / dim for w in _index_words(n)])


def dense_cnot(n: int, control: int, target: int) -> np.ndarray:
    """Dense CNOT unitary on n qubits, qubit q <-> bit q of the basis index."""
    dim = 1 << n
    U = np.zeros((dim, dim))
    for b in range(dim):
        b2 = b ^ (1 << target) if (b >> control) & 1 else b
        U[b2, b] = 1.0
    return U


def ptm_of_unitary(n: int, U: np.ndarray) -> np.ndarray:
    """Transfer matrix of rho -> U rho U^dagger via explicit traces."""
    d = 4 ** n
    words = ["".join(w[q] for q in range(n)) for w in _index_words(n)]
    sigmas = [kron_pauli(w) for w in words]
    M = np.zeros((d, d))
    for b in range(d):
        image = U @ sigmas[b] @ U.conj().T
        for a in range(d):
            M[a, b] = np.trace(sigmas[a] @ image).real / 2 ** n
    return M


def dense_power_distances(step: np.ndarray, limit: np.ndarray, r_max: int) -> list[float]:
    """||step^r - limit||_F for r = 0..r_max by dense matrix powers."""
    return [float(np.linalg.norm(np.linalg.matrix_power(step, r) - limit)) for r in range(r_max + 1)]


def link_sum_moments(n: int, w_id: float = 0.0, c: float = 1.0) -> tuple[float, float]:
    """Trace and squared Frobenius norm of w_id Id + c * (sum of all link permutations).

    Built from the sparse CNOT actions alone: every nonzero entry is summed
    over the links that put it there; no matrix and no eigensolver.
    """
    from randqnet.channels import _cnot_images
    from randqnet.digraph import arc_pairs

    dim = 4 ** n
    perms, signs = zip(*(_cnot_images(np.arange(dim), u, v) for u, v in arc_pairs(n)))
    rows = np.concatenate([np.arange(dim), *perms])
    cols = np.tile(np.arange(dim), len(perms) + 1)
    vals = np.concatenate([np.full(dim, float(w_id)), *(c * s for s in signs)])
    keys, inverse = np.unique(rows * dim + cols, return_inverse=True)
    entries = np.bincount(inverse, weights=vals)
    return float(entries[keys // dim == keys % dim].sum()), float((entries ** 2).sum())


def _index_words(n: int):
    for a in range(4 ** n):
        word = []
        aa = a
        for _ in range(n):
            word.append("IXYZ"[aa % 4])
            aa //= 4
        yield word


# --- graph oracles ----------------------------------------------------------

def naive_strongly_connected(g: DirectedGraph) -> bool:
    """n BFS passes: every vertex reaches every other."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.arcs:
        adj[u].append(v)
    for src in range(g.n):
        seen = {src}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        if len(seen) != g.n:
            return False
    return True


@dataclass(frozen=True)
class SccDecomposition:
    """Strongly connected components plus the deduplicated condensation arcs.

    Components are frozensets partitioning the vertex set, listed in
    reverse topological order of the condensation (sinks first);
    condensation arcs are pairs of component indices.
    """

    components: tuple
    condensation: frozenset


def strongly_connected_components(g: DirectedGraph) -> SccDecomposition:
    """Tarjan's algorithm, iterative so deep graphs cannot hit the recursion limit."""
    n = g.n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(g.arcs):
        adj[u].append(v)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comp_id = [-1] * n
    components: list[frozenset] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(adj[v]):
                w = adj[v][pi]
                pi += 1
                if index[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_id[w] = len(components)
                    comp.append(w)
                    if w == v:
                        break
                components.append(frozenset(comp))
    condensation = frozenset(
        (comp_id[u], comp_id[v]) for u, v in g.arcs if comp_id[u] != comp_id[v]
    )
    return SccDecomposition(tuple(components), condensation)


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff the graph has exactly one strongly connected component."""
    return len(strongly_connected_components(g).components) == 1


def block_digraph_is_acyclic(k: int, arcs: set) -> bool:
    state = [0] * k
    def dfs(u):
        state[u] = 1
        for (a, b) in arcs:
            if a == u:
                if state[b] == 1:
                    return False
                if state[b] == 0 and not dfs(b):
                    return False
        state[u] = 2
        return True
    return all(state[u] or dfs(u) for u in range(k))


def acyclic_interconnect_oracle(parts, p: Fraction) -> Fraction:
    """Brute force: enumerate the 2^(k(k-1)) block-level digraphs.

    An arc between blocks of sizes a and b exists with probability
    1 - (1-p)^(ab); the result sums the probability of every acyclic
    block-level digraph.
    """
    parts = tuple(parts)
    k = len(parts)
    pairs = [(i, j) for i in range(k) for j in range(k) if i != j]
    total = Fraction(0)
    for mask in range(1 << len(pairs)):
        arcs = {pairs[t] for t in range(len(pairs)) if (mask >> t) & 1}
        if not block_digraph_is_acyclic(k, arcs):
            continue
        prob = Fraction(1)
        for t, (i, j) in enumerate(pairs):
            absent = (1 - p) ** (parts[i] * parts[j])
            prob *= (1 - absent) if (mask >> t) & 1 else absent
        total += prob
    return total


# --- partition view of strong connectivity ---------------------------------------

def _partitions_desc(n: int, max_part: int):
    """Partitions of ``n`` with parts <= max_part, non-increasing, reverse-lex order."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


def enumerate_partitions(n: int, min_length: int = 1) -> list[tuple[int, ...]]:
    """List all partitions of ``n`` with at least ``min_length`` parts.

    Each partition is a non-increasing tuple of positive integers summing
    to ``n``; the list is in reverse-lexicographic order, e.g.
    ``enumerate_partitions(4, 2) == [(3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if min_length < 1:
        raise ValueError("min_length must be >= 1")
    return [parts for parts in _partitions_desc(n, n) if len(parts) >= min_length]


def _canonical(parts) -> tuple[int, ...]:
    parts = tuple(int(x) for x in parts)
    if any(x < 1 for x in parts):
        raise ValueError("partition parts must be positive integers")
    return tuple(sorted(parts, reverse=True))


def count_labeled_decompositions(parts) -> int:
    """Number of ways to split sum(parts) labeled items into unlabeled groups of these sizes.

    Multinomial coefficient divided by the factorials of the multiplicities
    of repeated group sizes; the empty partition counts as 1.
    """
    parts = _canonical(parts)
    if not parts:
        return 1
    count = math.factorial(sum(parts))
    for size in parts:
        count //= math.factorial(size)
    for _, grp in groupby(parts):
        count //= math.factorial(len(tuple(grp)))
    return count


class AcyclicInterconnect:
    """Memoized acyclic-interconnect probabilities at one edge probability ``p``."""

    def __init__(self, p):
        if not 0 < p < 1:
            raise ValueError(f"edge probability must satisfy 0 < p < 1, got {p!r}")
        self._one = type(p)(1)
        self._q = 1 - p
        self._memo = {(): self._one}

    def prob_acyclic_interconnect(self, parts):
        """Probability that arcs between the given vertex groups form no directed cycle.

        The groups, of sizes ``parts``, are contracted to super-nodes; an
        arc between two groups of sizes a and b exists with probability
        1 - (1-p)^(ab). Returned is the probability that the contracted
        digraph is acyclic. Empty and single-group splits give 1.
        """
        return self._acyclic_rec(_canonical(parts))

    def _acyclic_rec(self, parts: tuple[int, ...]):
        memo = self._memo
        val = memo.get(parts)
        if val is not None:
            return val
        if len(parts) == 1:
            memo[parts] = self._one
            return self._one
        n = sum(parts)
        # Inclusion-exclusion over the sub-multisets of groups that have no
        # outgoing arcs: identical sub-multisets are grouped, each weighted
        # by the product of binomials over repeated group sizes.
        sizes = []
        counts = []
        for s, grp in groupby(parts):
            sizes.append(s)
            counts.append(len(tuple(grp)))
        total = 0
        for choice in product(*(range(c + 1) for c in counts)):
            chosen = sum(choice)
            if chosen == 0:
                continue
            m = 0
            sqsum = 0
            coeff = 1
            for j, s, c in zip(choice, sizes, counts):
                m += j * s
                sqsum += j * s * s
                coeff = coeff * math.comb(c, j)
            residual = []
            for j, s, c in zip(choice, sizes, counts):
                residual.extend([s] * (c - j))
            # forbidden arcs: every chosen group loses all m_i(n - m_i)
            # of its outgoing arcs, which totals m*n - sum(m_i^2)
            term = coeff * self._q ** (m * n - sqsum) * self._acyclic_rec(tuple(residual))
            total = total + term if chosen % 2 else total - term
        memo[parts] = total
        return total


def prob_acyclic_interconnect(parts, p):
    """Probability that arcs between vertex groups of sizes ``parts`` form no directed cycle."""
    return AcyclicInterconnect(p).prob_acyclic_interconnect(parts)


def partition_sum_pc(n_max: int, p: Fraction) -> list[Fraction]:
    """Exact P_C(0..n_max) by inclusion-exclusion over integer partitions.

    A digraph that is not strongly connected splits uniquely into at least
    two maximal strongly connected pieces whose quotient graph is acyclic,
    so 1 - P_C(n) sums, over partitions of n into two or more parts, the
    number of labeled splits times the per-piece P_C values times the
    acyclic-interconnect probability. Entry 0 is a placeholder.
    """
    acyclic = AcyclicInterconnect(p)
    pc = [Fraction(1), Fraction(1)]
    for n in range(2, n_max + 1):
        disconnected = Fraction(0)
        for parts in enumerate_partitions(n, min_length=2):
            term = count_labeled_decompositions(parts) * acyclic.prob_acyclic_interconnect(parts)
            for size in parts:
                term *= pc[size]
            disconnected += term
        pc.append(1 - disconnected)
    return pc


def undirected_connected_oracle(n: int, p: Fraction) -> Fraction:
    """Brute force over all 2^C(n,2) undirected graphs."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    total = Fraction(0)
    for mask in range(1 << len(pairs)):
        parent = list(range(n))
        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x
        edges = 0
        for t, (i, j) in enumerate(pairs):
            if (mask >> t) & 1:
                edges += 1
                parent[find(i)] = find(j)
        if len({find(v) for v in range(n)}) == 1:
            total += p ** edges * (1 - p) ** (len(pairs) - edges)
    return total


class ScalarReachSession:
    """The reach factorization of P_C, one Python loop per table entry.

    With T the set of vertices that reach vertex 1, P_C(n) = R(n) -
    sum_t C(n-1, t-1) P_C(t) q^(t(n-t)) U(t, n-t), where U(t, w) = 1 -
    sum_{y<w} C(w, y) U(t, y) q^((t+y)(w-y)) is the probability that a
    mutually reachable block of t vertices reaches w outside ones and
    R(n) = U(1, n-1). This O(n^3) derivation shares no recurrence but R
    with the package's ``ConnectivitySession``, so on exact number types it
    is an independent oracle for every value the session returns.
    """

    def __init__(self, p):
        self._one = one = type(p)(1)
        self._q = 1 - p
        self._qpow = []
        self._binom = {}
        self._strong = [one, one]
        self._disc = [one, one - one]
        self._spread = {}  # t -> U(t, w) for w = 0, 1, ...
        self._reach_sums = [one - one]  # 1 - U(1, w), summed directly

    def _binom_row(self, n):
        row = self._binom.get(n)
        if row is None:
            one = c = self._one
            row = [c]
            for j in range(n):
                c *= one * (n - j) / (j + 1)
                row.append(c)
            self._binom[n] = row
        return row

    def _spread_upto(self, t, w):
        """U(t, w), growing the row for t."""
        vals = self._spread.setdefault(t, [self._one])
        pw = self._qpow
        while len(pw) <= (t + w) ** 2 // 4:
            pw.append(self._q ** len(pw))
        for m in range(len(vals), w + 1):
            row = self._binom_row(m)
            s = 0
            for y in range(m):
                s += row[y] * vals[y] * pw[(t + y) * (m - y)]
            vals.append(self._one - s)
            if t == 1:
                self._reach_sums.append(s)
        return vals[w]

    def _fill(self, n):
        one, strong, disc = self._one, self._strong, self._disc
        self._spread_upto(1, n - 1)
        reach = self._spread[1]
        for m in range(len(strong), n + 1):
            row = self._binom_row(m - 1)
            s = 0
            for t in range(1, m):
                s += row[t - 1] * strong[t] * self._qpow[t * (m - t)] * self._spread_upto(t, m - t)
            strong.append(one - (one - (reach[m - 1] - s)))
            disc.append(self._reach_sums[m - 1] + s)

    def prob_strongly_connected(self, n):
        self._fill(n)
        return self._strong[n]

    def prob_disconnected(self, n):
        self._fill(n)
        return self._disc[n]

    def prob_connected_undirected(self, n):
        return self._spread_upto(1, n - 1)

    def prob_disconnected_undirected(self, n):
        self._spread_upto(1, n - 1)
        return self._reach_sums[n - 1]


def set_partitions(items):
    """All partitions of a list into unordered non-empty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1:]
        yield [[first]] + smaller


def partition_count(n: int) -> int:
    """Number of integer partitions of n, by the two-variable DP."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][min(m - k, k)] if m >= k else 0)
    return table[n][n]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20250809)
