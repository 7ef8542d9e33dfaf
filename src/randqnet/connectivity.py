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
from typing import Union

Prob = Union[Fraction, float]

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


def _check_open_unit(p: Prob) -> None:
    if not 0 < p < 1:
        raise ValueError(f"edge probability must satisfy 0 < p < 1, got {p!r}")


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
    to zero. The recurrences share one table of powers of
    q and one binomial row per size; R(n) costs O(n^2) operations and
    P_C(n) O(n^3).
    """

    def __init__(self, p: Prob):
        _check_open_unit(p)
        self.p = p
        self.exact = isinstance(p, Fraction)
        self._one = one = type(p)(1)
        self._q = 1 - p  # probability that a given arc is absent
        self._qpow: list[Prob] = []
        self._binom: dict[int, list[Prob]] = {}
        # entry n belongs to n vertices; index 0 is a placeholder
        self._strong: list[Prob] = [one, one]
        self._disc: list[Prob] = [one, one - one]
        self._spread: dict[int, list[Prob]] = {}  # t -> U(t, w) for w = 0, 1, ...
        self._reach_sums: list[Prob] = [one - one]  # 1 - U(1, w), summed directly

    def _powers(self, e_max: int) -> list[Prob]:
        """The shared table of q^e, each entry computed as ``q ** e``, grown to e_max."""
        pw = self._qpow
        while len(pw) <= e_max:
            pw.append(self._q ** len(pw))
        return pw

    def _binom_row(self, n: int) -> list[Prob]:
        """C(n, j) for j = 0..n in the number type of ``p``; OverflowError past binary64."""
        row = self._binom.get(n)
        if row is None:
            one = c = self._one
            row = [c]
            for j in range(n):
                c *= one * (n - j) / (j + 1)
                row.append(c)
            if c == math.inf:  # an overflowed entry stays inf to the row's end
                raise OverflowError(f"float binomials C({n}, j) overflow; the float path "
                                    f"supports at most n = {FLOAT_PC_MAX_N} vertices")
            self._binom[n] = row
        return row

    def prob_strongly_connected(self, n: int) -> Prob:
        """Probability that G(n, p) is strongly connected."""
        self._fill(n)
        return self._strong[n]

    def prob_disconnected(self, n: int) -> Prob:
        """Probability that G(n, p) is not strongly connected (0 for n = 1)."""
        self._fill(n)
        return self._disc[n]

    def prob_connected_undirected(self, n: int) -> Prob:
        """Probability that an undirected G(n, p) graph is connected."""
        return self._reach_row(n)[0][n - 1]

    def prob_disconnected_undirected(self, n: int) -> Prob:
        """Probability that an undirected G(n, p) graph is disconnected (0 for n = 1)."""
        return self._reach_row(n)[1][n - 1]

    def _reach_row(self, n: int) -> tuple[list[Prob], list[Prob]]:
        """The t = 1 row of U and its sums grown to w = n - 1, so R(m) = U(1, m - 1) for m <= n."""
        if n < 1:
            raise ValueError("n must be >= 1")
        self._powers(n * n // 4)  # (t+y)(w-y) with t + w <= n stays below
        self._spread_upto(1, n - 1)
        return self._spread[1], self._reach_sums

    def _fill(self, n: int) -> None:
        """Extend P_C and the disconnection table to n vertices, ascending."""
        reach, miss = self._reach_row(n)  # also sizes the power table
        one, qpow = self._one, self._qpow
        strong, disc = self._strong, self._disc
        for m in range(len(strong), n + 1):
            row = self._binom_row(m - 1)
            s = 0
            for t in range(1, m):
                s += row[t - 1] * strong[t] * qpow[t * (m - t)] * self._spread_upto(t, m - t)
            # the double complement rounds a float P_C(m) to the grid of 1,
            # so 1 - (1 - P_C) == P_C; on exact types it is the identity
            strong.append(one - (one - (reach[m - 1] - s)))
            disc.append(miss[m - 1] + s)

    def _spread_upto(self, t: int, w: int) -> Prob:
        """U(t, w), growing the row for t; ``_reach_row`` has sized the power table."""
        vals = self._spread.setdefault(t, [self._one])
        qpow = self._qpow
        for m in range(len(vals), w + 1):
            row = self._binom_row(m)
            s = 0
            for y in range(m):
                s += row[y] * vals[y] * qpow[(t + y) * (m - y)]
            vals.append(self._one - s)
            if t == 1:  # only R needs its sum: keeping every row's costs ~10 % at n = 240
                self._reach_sums.append(s)
        return vals[w]


# -- module-level conveniences (fresh session per call) --

def prob_disconnected(n: int, p: Prob) -> Prob:
    """Probability that G(n, p) is not strongly connected."""
    return ConnectivitySession(p).prob_disconnected(n)


def prob_strongly_connected(n: int, p: Prob) -> Prob:
    """Probability that G(n, p) is strongly connected.

    Exact rational when ``p`` is a ``Fraction``; float otherwise.
    """
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

    Uses the classical recurrence obtained by conditioning on the size of
    the component containing a fixed vertex:

        P(n) = 1 - sum_{k=1}^{n-1} C(n-1, k-1) P(k) (1-p)^(k(n-k))

    with P(1) = 1, which is the session's R(n) = U(1, n - 1). Exact when
    ``p`` is a ``Fraction``.
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


def pc_curve(n_max: int, p: Prob, exact: bool | None = None) -> PcCurve:
    """Tabulate the strong-connectivity probability for n = 1..n_max.

    ``exact=None`` picks exact arithmetic when ``p`` is a ``Fraction`` and
    ``n_max <= EXACT_PC_MAX_N``, floats otherwise. The argmin over the
    computed range breaks ties toward smaller n.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if exact is None:
        exact = isinstance(p, Fraction) and n_max <= EXACT_PC_MAX_N
    pv: Prob = p if exact else float(p)
    if exact and not isinstance(p, Fraction):
        raise ValueError("exact mode requires p as a Fraction")
    session = ConnectivitySession(pv)
    rows = [(n, session.prob_strongly_connected(n)) for n in range(1, n_max + 1)]
    best = min(range(len(rows)), key=lambda i: (rows[i][1], rows[i][0]))
    return PcCurve(p=pv, rows=tuple(rows), argmin_n=rows[best][0])
