"""Strong-connectivity probabilities of directed Erdos-Renyi graphs.

For a random digraph on ``n`` labeled vertices in which each of the
``n(n-1)`` ordered arcs is present independently with probability ``p``,
this module evaluates

* the probability that the graph is strongly connected,
* the complementary probability that it is not,
* the connectivity probability of the undirected G(n, p) model, and
* an exponential lower bound useful for large ``n``.

The core algorithm (see ``ConnectivitySession``) runs three recurrences
over the number of vertices alone, O(n^2) operations to n: the undirected
connectivity recurrence, a signed sum over the source strong components
of a digraph, and the strong-connectivity recurrence built on that sum
(Liskovets 1969; Wright 1971). One set of recurrences serves every
number type. For a ``Fraction`` p = a/b it runs on integer numerators over
powers of b, and each value comes back as one exact ``fractions.Fraction``;
for a float ``p`` it runs in IEEE-754 binary64, and for a ``Decimal`` in
the context precision. ``pc_curve`` keeps a rational ``p`` exact up to
``EXACT_PC_MAX_N``.

The partition view of the same quantity (a non-strongly-connected digraph
splits uniquely into at least two maximal strongly connected pieces whose
quotient graph is acyclic) lives in the test suite as an independent exact
oracle.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

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
    may be used freely from concurrent threads. With q = 1 - p and sums over
    1 <= k < n, three recurrences over n alone give every quantity:

    * R(n) = 1 - sum C(n-1, k-1) R(k) q^(k(n-k)), the probability that
      vertex 1 reaches every vertex, from the component of vertex 1: the
      undirected connectivity recurrence (Gilbert 1959), so R(n) is also
      the probability that an undirected G(n, p) graph is connected;
    * eta(n) = 1 - sum C(n, k) q^(k(n-k)) eta(k), the weight of n vertices
      split into strongly connected pieces with no arc between them, signed
      (-1)^(pieces - 1). Every digraph has a source strong component; the
      non-empty sets of source components, signed so, count 1, and a k-set
      is the union of one exactly when no arc enters it and it splits as
      eta counts, so 1 = sum_{k<=n} C(n, k) q^(k(n-k)) eta(k);
    * P_C(n) = eta(n) + sum C(n-1, k-1) P_C(k) q^(2k(n-k)) eta(n-k), the
      same identity with the piece that holds vertex 1 split off.

    The disconnection probabilities are sums, not 1 minus a rounded value:
    1 - R(n) is the sum R subtracts and 1 - P_C(n) = sum_eta - sum_P, so
    they stay accurate in floats where 1 - P_C(n) rounds to zero.

    One loop runs the recurrences for every number type; only its
    constants differ. A float or ``Decimal`` p runs them in its own type,
    with b = 1 and c = q below. For a ``Fraction`` p = a/b the tables hold
    integer numerators over the common denominator of their n, with
    c = b - a: R(n) and 1 - R(n) times b^(n(n-1)/2), and eta(n), P_C(n) and
    1 - P_C(n) times b^(n(n-1)). Then q^e = c^e / b^e, and the k-th term
    of each sum is padded to that denominator: by b^((n-k)(n-k-1)/2) in
    the R sum and b^((n-k)(n-1)) in the eta sum; the P_C sum needs no
    padding. No gcd is taken until a query builds its one ``Fraction``.

    The tables are numpy arrays of dtype float64 for a float ``p`` and
    object (Python ints, or ``Decimal``) otherwise, indexed by n and grown
    in one batch to the n asked for: O(n^2) arithmetic, one numpy pass per
    n over the sizes below it. The integer route reads exact binomial rows.
    The float and ``Decimal`` routes form C(n, k) as C(n-1, k-1) * n / k
    with the power multiplied in before the ratio, so no float reads
    binomial row n, which overflows at n = 1030. Products run left to right
    and sums through ``cumsum``, which adds in sequence.
    """

    def __init__(self, p: Prob):
        if not 0 < p < 1:
            raise ValueError(f"edge probability must satisfy 0 < p < 1, got {p!r}")
        self.p = p
        self.exact = isinstance(p, Fraction)  # perfbench/tracing.py reads it
        if self.exact:  # integer numerators over powers of b, with c = b - a; see above
            self._one, self._q = 1, p.denominator - p.numerator
            self._bhalf = np.array([1, 1], object)  # b^(m(m-1)/2), the denominator of R(m)
        else:
            self._one, self._q = type(p)(1), 1 - p
        one = self._one
        self._dtype = np.float64 if isinstance(p, float) else object
        self._qpow = np.empty(0, self._dtype)  # c^e (c = q unless exact), each computed in Python as c ** e
        self._binom: list[np.ndarray] = []  # row m holds C(m, j) for j = 0..m
        # R, 1 - R, eta, P_C and 1 - P_C; entry n belongs to n vertices, index 0 is a placeholder
        at_one = dict(reach=one, miss=one - one, eta=one, strong=one, disc=one - one)
        self._tables = {k: np.array([one, v], self._dtype) for k, v in at_one.items()}

    def prob_strongly_connected(self, n: int) -> Prob:
        """Probability that G(n, p) is strongly connected."""
        return self._value("strong", n)

    def prob_disconnected(self, n: int) -> Prob:
        """Probability that G(n, p) is not strongly connected (0 for n = 1)."""
        return self._value("disc", n)

    def prob_connected_undirected(self, n: int) -> Prob:
        """Probability that an undirected G(n, p) graph is connected."""
        return self._value("reach", n)

    def prob_disconnected_undirected(self, n: int) -> Prob:
        """Probability that an undirected G(n, p) graph is disconnected (0 for n = 1)."""
        return self._value("miss", n)

    def _value(self, name: str, n: int) -> Prob:
        """Entry n of a table: as it is, or a numerator over its power of b as one ``Fraction``."""
        value = self._fill(n)[name].item(n)
        if not self.exact:
            return value
        half = self._bhalf[n]
        return Fraction(value, half if name in ("reach", "miss") else half * half)

    @np.errstate(over="ignore", invalid="ignore")  # float cancellation may reach inf and nan
    def _fill(self, n: int) -> dict[str, np.ndarray]:
        """Extend every table to n vertices, ascending, and return the tables."""
        if n < 1:
            raise ValueError("n must be >= 1")
        if n > FLOAT_PC_MAX_N and self._dtype is np.float64:
            raise CostGuardError(f"float binomials C({n - 1}, j) overflow; the float path "
                                 f"supports at most n = {FLOAT_PC_MAX_N} vertices")
        done = len(self._tables["reach"]) - 1
        if n <= done:
            return self._tables
        binom, one = self._binom, self._one
        if self.exact:  # exact rows to row n, and b^(m(m-1)/2) = b^((m-1)(m-2)/2) * b^(m-1)
            b = self.p.denominator
            binom.extend(np.array([math.comb(m, j) for j in range(m + 1)], object)
                         for m in range(len(binom), n + 1))
            half = [*self._bhalf]
            half.extend(half[-1] * b ** (m - 1) for m in range(len(half), n + 1))
            self._bhalf = half = np.array(half, object)
        else:
            ints = one * np.arange(n + 1).astype(self._dtype)  # 0, 1, ..., n in the type of p
            for m in range(len(binom), n):  # C(m, j): c *= (m - j) / (j + 1), ratio by ratio
                binom.append(np.cumprod(np.concatenate(([one], ints[m:0:-1] / ints[1:m + 1]))))
        new = [self._q ** e for e in range(len(self._qpow), n * n // 4 + 1)]  # k(n - k) <= n^2 / 4
        self._qpow = qpow = np.concatenate((self._qpow, np.array(new, self._dtype)))
        tables = {k: np.concatenate((t, np.empty(n - done, self._dtype))) for k, t in self._tables.items()}
        reach, miss, eta, strong, disc = tables.values()
        for m in range(done + 1, n + 1):
            k = np.arange(1, m)
            c, pw = binom[m - 1][:m - 1], qpow[k * (m - k)]
            if self.exact:  # padding b^((m-k)(m-k-1)/2) and b^((m-k)(m-1)) = (b^(m-1))^(m-k)
                pad = np.cumprod(np.full(m - 1, b ** (m - 1), object))[::-1]
                w_reach, w_eta = pw * half[m - 1:0:-1], (binom[m][1:m] * pw) * pad
                top_reach, top = half[m], half[m] * half[m]
            else:  # b = 1: nothing padded, and C(m, k) = C(m-1, k-1) * m / k
                w_reach, w_eta = pw, (c * pw) * (ints[m] / ints[1:m])
                top_reach = top = one
            miss[m] = ((c * reach[1:m]) * w_reach).cumsum()[-1]
            reach[m] = top_reach - miss[m]
            s_eta = (w_eta * eta[1:m]).cumsum()[-1]
            eta[m] = top - s_eta
            s_strong = (((c * strong[1:m]) * (pw * pw)) * eta[m - 1:0:-1]).cumsum()[-1]
            strong[m] = eta[m] + s_strong
            disc[m] = s_eta - s_strong
        self._tables = tables
        return tables


# -- module-level conveniences (one shared session per recent p) --

_SESSION_LOCK = threading.Lock()  # a cached session is shared, so one call runs at a time


@lru_cache(maxsize=8, typed=True)
def _cached_session(p: Prob) -> ConnectivitySession:
    """The session of the eight most recent (type(p), p): 0.5 and Fraction(1, 2) hash alike."""
    return ConnectivitySession(p)


def _session(p: Prob) -> ConnectivitySession:
    """A session at ``p``: cached, except for a Decimal, whose values depend on the context precision."""
    return ConnectivitySession(p) if isinstance(p, Decimal) else _cached_session(p)


def prob_disconnected(n: int, p: Prob) -> Prob:
    """Probability that G(n, p) is not strongly connected."""
    with _SESSION_LOCK:
        return _session(p).prob_disconnected(n)


def prob_strongly_connected(n: int, p: Prob) -> Prob:
    """Probability that G(n, p) is strongly connected."""
    with _SESSION_LOCK:
        return _session(p).prob_strongly_connected(n)


def prob_disconnected_undirected(n: int, p: Prob) -> Prob:
    """Probability that an undirected G(n, p) graph is disconnected.

    Summed from non-negative terms, not as ``1 - prob_connected_undirected``,
    so values far below the float resolution of 1 - x stay meaningful (at
    large n one isolated vertex dominates, ~1e-200); its float terms hold
    R(k), so at small p it cancels as R does.
    """
    with _SESSION_LOCK:
        return _session(p).prob_disconnected_undirected(n)


def prob_connected_undirected(n: int, p: Prob) -> Prob:
    """Probability that an undirected G(n, p) graph is connected.

    By conditioning on the component of a fixed vertex, P(n) = 1 -
    sum_{k<n} C(n-1, k-1) P(k) (1-p)^(k(n-k)), the session's R(n). As a
    float sum it cancels at small p, like P_C (``scripts/pc_accuracy.py``).
    """
    with _SESSION_LOCK:
        return _session(p).prob_connected_undirected(n)


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
