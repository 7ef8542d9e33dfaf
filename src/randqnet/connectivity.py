"""Strong-connectivity probabilities of directed Erdos-Renyi graphs.

For a random digraph on ``n`` labeled vertices in which each of the
``n(n-1)`` ordered arcs is present independently with probability ``p``,
this module evaluates

* the probability that the graph is strongly connected,
* the complementary probability that it is not,
* the connectivity probability of the undirected G(n, p) model, and
* an exponential lower bound useful for large ``n``.

The core algorithm is a reachability factorization (see
``ConnectivitySession``): conditioning on the set of vertices that reach
a fixed vertex gives P_C(n) in O(n^3) operations from one auxiliary
reachability recurrence. Its t = 1 row, the probability that a fixed
vertex reaches all others, is the undirected connectivity recurrence, so
the same table answers the undirected model. One code path serves every
number type, so the result is exact (``fractions.Fraction``) when ``p``
is a ``Fraction`` and IEEE-754 binary64 when ``p`` is a float;
``pc_curve`` keeps a rational ``p`` exact up to ``EXACT_PC_MAX_N``.

The partition view of the same quantity (a non-strongly-connected digraph
splits uniquely into at least two maximal strongly connected pieces whose
quotient graph is acyclic) lives in the test suite as an independent exact
oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .digraph import CostGuardError, Prob

__all__ = [
    "Prob",
    "ConnectivitySession",
    "prob_disconnected",
    "prob_strongly_connected",
    "prob_connected_undirected",
    "prob_disconnected_undirected",
    "lower_bound_pc",
    "pc_curve",
    "PcCurve",
]

# Largest n for which a rational p stays on the exact path (pc_curve, pc table).
EXACT_PC_MAX_N = 30
FLOAT_PC_MAX_N = 1030  # float binomial rows C(n - 1, j) stay finite up to here


class ConnectivitySession:
    """Memoized evaluator of connectivity probabilities at a fixed edge probability.

    One session holds the memo tables for a single ``p``; distinct sessions
    may be used freely from concurrent threads. All arithmetic happens in
    the number type of ``p`` (exact for a ``Fraction``, binary64 for a
    float) on one code path. With q = 1 - p, two recurrences, each
    conditioning on an exact reached set, give strong connectivity:

    * U(t, w) = 1 - sum_{y<w} C(w, y) U(t, y) q^((t+y)(w-y)), the
      probability that a mutually reachable block of t vertices reaches all
      of w outside vertices. Its t = 1 row R(n) = U(1, n-1) is the
      probability that vertex 1 reaches every vertex; this is term for term
      the undirected connectivity recurrence (Gilbert 1959), so R(n) is also
      the probability that an undirected G(n, p) graph is connected;
    * P_C(n) = R(n) - sum_{t<n} C(n-1, t-1) P_C(t) q^(t(n-t)) U(t, n-t):
      with T the co-reach set of vertex 1, vertex 1 reaches everything iff
      no arc enters T, T is strongly connected and T spreads to the rest.

    The t = 1 row keeps, next to each R, the non-negative sum it subtracts.
    The disconnection probabilities are sums of non-negative parts: that
    sum for the undirected graph, and that sum plus sum_t(...) for the
    directed one, so they stay accurate in floats where 1 - P_C(n) rounds
    to zero.

    The tables are numpy arrays of dtype float64 for a float ``p`` and
    object otherwise, grown in one batch to the n asked for. Column w of U
    needs only the columns before it, so it takes one numpy pass over every
    block size t, and each P_C(m) one pass over t: O(n) numpy calls for the
    O(n^3) arithmetic. Products run left to right and sums through
    ``cumsum``, which adds in sequence, so each float keeps the bits of the
    scalar recurrence. An undirected query fills only the t = 1 row: O(n^2).
    """

    def __init__(self, p: Prob):
        if not 0 < p < 1:
            raise ValueError(f"edge probability must satisfy 0 < p < 1, got {p!r}")
        self.p = p
        self.exact = isinstance(p, Fraction)
        self._one = one = type(p)(1)
        self._q = 1 - p  # probability that a given arc is absent
        self._dtype = np.float64 if isinstance(p, float) else object
        self._qpow = np.empty(0, self._dtype)  # q^e, each computed in Python as q ** e
        self._binom: list[np.ndarray] = []  # row m holds C(m, j) for j = 0..m
        # U[t, w], known for t + w <= self._tri and, on the t = 1 row, for every column
        self._spread, self._tri = np.full((2, 1), one, self._dtype), 1
        self._reach_sums: list[Prob] = [one - one]  # 1 - U(1, w), summed directly
        # entry n belongs to n vertices; index 0 is a placeholder
        self._strong = np.full(2, one, self._dtype)
        self._disc: list[Prob] = [one, one - one]

    def prob_strongly_connected(self, n: int) -> Prob:
        """Probability that G(n, p) is strongly connected."""
        self._fill(n)
        return self._strong.item(n)

    def prob_disconnected(self, n: int) -> Prob:
        """Probability that G(n, p) is not strongly connected (0 for n = 1)."""
        self._fill(n)
        return self._disc[n]

    def prob_connected_undirected(self, n: int) -> Prob:
        """Probability that an undirected G(n, p) graph is connected."""
        self._grow(n, directed=False)
        return self._spread.item(1, n - 1)

    def prob_disconnected_undirected(self, n: int) -> Prob:
        """Probability that an undirected G(n, p) graph is disconnected (0 for n = 1)."""
        self._grow(n, directed=False)
        return self._reach_sums[n - 1]

    @np.errstate(over="ignore", invalid="ignore")  # float cancellation may reach inf and nan
    def _grow(self, n: int, directed: bool) -> None:
        """Grow U to the columns w < n: every block size t <= n - w if ``directed``, else t = 1."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > FLOAT_PC_MAX_N and self._dtype is np.float64:
            raise CostGuardError(f"float binomials C({n - 1}, j) overflow; the float path "
                                 f"supports at most n = {FLOAT_PC_MAX_N} vertices")
        tri, reach = self._tri, self._spread.shape[1]
        size, width = max(tri, n) if directed else tri, max(reach, n)
        if (size, width) == (tri, reach):
            return
        binom, one = self._binom, self._one
        ints = one * np.arange(width).astype(self._dtype)  # 0, 1, ..., width - 1 in the type of p
        for m in range(len(binom), width):  # C(m, j): c *= (m - j) / (j + 1), ratio by ratio
            binom.append(np.cumprod(np.concatenate(([one], ints[m:0:-1] / ints[1:m + 1]))))
        old, e = self._spread, len(self._qpow)
        # (t+y)(w-y) with t + w <= n stays below n^2 / 4
        new = [self._q ** k for k in range(e, width * width // 4 + 1)]
        self._qpow = qpow = np.concatenate((self._qpow, np.array(new, self._dtype)))
        U = np.full((max(size, 2), width), one, self._dtype)
        U[:old.shape[0], :reach] = old
        for w in range(1, width):
            lo, hi = max(tri - w, int(w < reach)) + 1, max(size - w, 1)  # rows t still missing
            if lo <= hi:
                t, y = np.arange(lo, hi + 1)[:, None], np.arange(w)
                terms = (binom[w][:w] * U[lo:hi + 1, :w]) * qpow[(t + y) * (w - y)]
                s = terms.cumsum(axis=1)[:, -1]
                U[lo:hi + 1, w] = one - s
                if lo == 1:  # only R needs its sum
                    self._reach_sums.append(s.item(0))
        self._spread, self._tri = U, size

    @np.errstate(over="ignore", invalid="ignore")
    def _fill(self, n: int) -> None:
        """Extend P_C and the disconnection table to n vertices, ascending."""
        self._grow(n, directed=True)
        done = len(self._strong) - 1
        if n <= done:
            return
        one, U, qpow, miss = self._one, self._spread, self._qpow, self._reach_sums
        self._strong = strong = np.concatenate((self._strong, np.empty(n - done, self._dtype)))
        for m in range(done + 1, n + 1):
            t = np.arange(1, m)
            terms = ((self._binom[m - 1][:m - 1] * strong[1:m]) * qpow[t * (m - t)]) * U[t, m - t]
            s = terms.cumsum().item(-1)
            # the double complement rounds a float P_C(m) to the grid of 1,
            # so 1 - (1 - P_C) == P_C; on exact types it is the identity
            strong[m] = one - (one - (U.item(1, m - 1) - s))
            self._disc.append(miss[m - 1] + s)


# -- module-level conveniences (fresh session per call) --

def prob_disconnected(n: int, p: Prob) -> Prob:
    """Probability that G(n, p) is not strongly connected."""
    return ConnectivitySession(p).prob_disconnected(n)


def prob_strongly_connected(n: int, p: Prob) -> Prob:
    """Probability that G(n, p) is strongly connected."""
    return ConnectivitySession(p).prob_strongly_connected(n)


def prob_disconnected_undirected(n: int, p: Prob) -> Prob:
    """Probability that an undirected G(n, p) graph is disconnected.

    Summed from non-negative terms, not as ``1 - prob_connected_undirected``,
    so values far below the float resolution of 1 - x stay meaningful (at
    large n the probability is dominated by a single isolated vertex and
    can be ~1e-200 while still comparable against bounds).
    """
    return ConnectivitySession(p).prob_disconnected_undirected(n)


def prob_connected_undirected(n: int, p: Prob) -> Prob:
    """Probability that an undirected G(n, p) graph is connected.

    By conditioning on the component of a fixed vertex, P(n) = 1 -
    sum_{k<n} C(n-1, k-1) P(k) (1-p)^(k(n-k)), the session's R(n).
    """
    return ConnectivitySession(p).prob_connected_undirected(n)


def lower_bound_pc(n: int, p: Prob) -> float:
    """Exponential lower bound 1 - (n-1)^2 (1-p^2)^(n-1) on the strong-connectivity probability.

    Valid (and useful) for large ``n``; may be negative for small ``n``.
    Evaluated in the log domain so the power never underflows.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    pf = float(p)
    if not 0 < pf <= 1:
        raise ValueError(f"edge probability must satisfy 0 < p <= 1, got {p!r}")
    t = (1.0 - pf) * (1.0 + pf)
    if t <= 0.0:
        return 1.0
    return 1.0 - math.exp(2.0 * math.log(n - 1.0) + (n - 1.0) * math.log(t))


@dataclass(frozen=True)
class PcCurve:
    """Strong-connectivity probability for n = 1..n_max at a fixed p."""

    p: Prob
    rows: tuple[tuple[int, Prob], ...]
    argmin_n: int


def pc_curve(n_max: int, p: Prob) -> PcCurve:
    """Tabulate the strong-connectivity probability for n = 1..n_max.

    A ``Fraction`` p with ``n_max <= EXACT_PC_MAX_N`` is computed exactly,
    any other p in binary64 floats; ``PcCurve.p`` is the p in the type used.
    The argmin over the computed range breaks ties toward smaller n.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    pv: Prob = p if isinstance(p, Fraction) and n_max <= EXACT_PC_MAX_N else float(p)
    session = ConnectivitySession(pv)
    session.prob_strongly_connected(n_max)  # grows the tables once, in one batch
    rows = [(n, session.prob_strongly_connected(n)) for n in range(1, n_max + 1)]
    best = min(range(len(rows)), key=lambda i: (rows[i][1], rows[i][0]))
    return PcCurve(p=pv, rows=tuple(rows), argmin_n=rows[best][0])
