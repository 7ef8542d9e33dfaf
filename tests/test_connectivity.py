"""Strong-connectivity recursion, undirected recurrence, and the lower bound."""

import math
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from randqnet import (
    ConnectivitySession,
    CostGuardError,
    estimate_pc_monte_carlo,
    exact_pc_bruteforce,
    lower_bound_pc,
    pc_curve,
    prob_connected_undirected,
    prob_disconnected,
    prob_disconnected_undirected,
    prob_strongly_connected,
)
import randqnet.connectivity as connectivity_module
from randqnet.cli import main
from randqnet.connectivity import FLOAT_PC_MAX_N
from conftest import (
    AcyclicInterconnect,
    ScalarReachSession,
    acyclic_interconnect_oracle,
    partition_sum_pc,
    prob_acyclic_interconnect,
    undirected_connected_oracle,
)

HALF = Fraction(1, 2)
P_GRID = [Fraction(1, 5), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), HALF, Fraction(2, 3)]


# --- acyclic interconnect ----------------------------------------------------

def test_acyclic_single_group_is_one():
    for p in (Fraction(1, 10), HALF, Fraction(9, 10)):
        assert prob_acyclic_interconnect((5,), p) == 1
        assert prob_acyclic_interconnect((), p) == 1


def test_acyclic_two_singletons():
    # two vertices, 4 arc configurations, cyclic only when both arcs present
    assert prob_acyclic_interconnect((1, 1), HALF) == Fraction(3, 4)


def test_acyclic_three_singletons_counts_labeled_dags():
    # all 2^6 digraphs on 3 vertices; 25 are acyclic
    assert prob_acyclic_interconnect((1, 1, 1), HALF) == Fraction(25, 64)


def test_acyclic_two_blocks_closed_form():
    # blocks of sizes a,b: acyclic unless arcs run in both directions
    for a, b in ((2, 1), (3, 2), (4, 1)):
        for p in (Fraction(1, 3), HALF):
            q = 1 - p
            expected = 2 * q ** (a * b) - q ** (2 * a * b)
            assert prob_acyclic_interconnect((a, b), p) == expected


@pytest.mark.parametrize(
    "parts", [(2, 1), (2, 2), (3, 1), (2, 1, 1), (1, 1, 1, 1), (3, 2, 1)]
)
@pytest.mark.parametrize("p", [Fraction(1, 3), HALF, Fraction(2, 5)])
def test_acyclic_against_block_enumeration(parts, p):
    assert prob_acyclic_interconnect(parts, p) == acyclic_interconnect_oracle(parts, p)


def test_acyclic_upper_bounded_by_single_block_removals():
    # removing one outgoing-free block at a time overcounts, giving an upper bound
    for parts in [(2, 1), (2, 2), (2, 1, 1), (3, 2, 1), (1, 1, 1, 1)]:
        for p in (Fraction(1, 3), HALF):
            session = AcyclicInterconnect(p)
            n = sum(parts)
            bound = Fraction(0)
            for i, m in enumerate(parts):
                residual = parts[:i] + parts[i + 1:]
                bound += (1 - p) ** (m * (n - m)) * session.prob_acyclic_interconnect(residual)
            assert session.prob_acyclic_interconnect(parts) <= bound


def test_acyclic_rejects_bad_p():
    for bad in (Fraction(0), Fraction(1), 0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            prob_acyclic_interconnect((2, 1), bad)


# --- disconnection / strong connectivity --------------------------------------

def test_single_vertex():
    assert prob_disconnected(1, HALF) == 0
    assert prob_strongly_connected(1, HALF) == 1


def test_two_vertices():
    assert prob_disconnected(2, HALF) == Fraction(3, 4)
    assert prob_strongly_connected(2, HALF) == Fraction(1, 4)


def test_three_vertices_enumeration_verified():
    # all 64 digraphs on 3 vertices: 18 strongly connected
    assert prob_strongly_connected(3, HALF) == Fraction(9, 32)
    assert prob_disconnected(3, HALF) == Fraction(23, 32)


@pytest.mark.parametrize("p", P_GRID)
@pytest.mark.parametrize("n", range(1, 6))
def test_matches_bruteforce_enumeration(n, p):
    assert prob_strongly_connected(n, p) == exact_pc_bruteforce(n, p)


def test_complement_is_exact():
    for n in range(1, 9):
        for p in (Fraction(1, 3), HALF):
            pc = prob_strongly_connected(n, p)
            pd = prob_disconnected(n, p)
            assert pc + pd == 1
            assert 0 <= pd <= 1


def test_strictly_increasing_in_p():
    grid = [Fraction(k, 12) for k in range(1, 12)]
    for n in (2, 3, 5, 8):
        vals = [prob_strongly_connected(n, p) for p in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))


def test_float_path_matches_exact_path():
    for p in (HALF, Fraction(1, 3), Fraction(2, 3)):
        session = ConnectivitySession(p)
        fsession = ConnectivitySession(float(p))
        for n in range(2, 21):
            exact = float(session.prob_strongly_connected(n))
            approx = fsession.prob_strongly_connected(n)
            assert abs(exact - approx) <= 1e-12


@pytest.mark.parametrize("p", P_GRID + [Fraction(1, 100)])
def test_factorization_equals_partition_sum_oracle(p):
    oracle = partition_sum_pc(12, p)
    session = ConnectivitySession(p)
    for n in range(1, 13):
        assert session.prob_strongly_connected(n) == oracle[n]
        assert session.prob_disconnected(n) == 1 - oracle[n]


def test_float_disconnection_keeps_relative_accuracy():
    # 1 - P_C(n) rounds to zero in floats from n ~ 60 at p = 1/2; the
    # disconnection side is summed from its own non-negative terms instead.
    # The reference runs the same recurrences in 50-digit decimals, far
    # cheaper than big rationals at n = 100
    with localcontext() as ctx:
        ctx.prec = 50
        reference = ConnectivitySession(Decimal(1) / 2)
        refs = {n: Fraction(reference.prob_disconnected(n)) for n in (40, 60, 100)}
    fsession = ConnectivitySession(0.5)
    for n, ref in refs.items():
        assert abs(Fraction(fsession.prob_disconnected(n)) - ref) <= Fraction(1, 10 ** 12) * ref
    assert float(refs[100]) == pytest.approx(3.155443620884047221646914e-28, rel=1e-15)


def test_float_bits_are_pinned():
    # binary64 results of the float recurrences as released. Each of these
    # changes moves at least one pin: the eta product regrouped (p = 0.2,
    # n = 17), its sum taken pairwise (p = 0.01, n = 20), powers by repeated
    # multiplication (p = 0.2, n = 2) and binomials rounded once instead of
    # by the step c * (N - j) / (j + 1) (p = 0.01, n = 20). Both p = 0.01
    # values are wrong (exact: 2.7485909e-9 and 1.3e-21): the sums cancel at
    # small p, a known defect that a certified path is to mend
    pinned = {
        0.5: {20: "0x1.fff600185f6b8p-1", 55: "0x1.fffffffffffc9p-1",
              100: "0x1.0000000000000p+0", 240: "0x1.0000000000000p+0"},
        0.2: {2: "0x1.47ae147ae1480p-5", 17: "0x1.927edf187bf6dp-2", 20: "0x1.2285af9c56579p-1",
              30: "0x1.d2c0064b54fb6p-1", 160: "0x1.ffffffffffb9bp-1"},
        0.01: {5: "0x1.79c3660000000p-29", 20: "0x1.1990800000000p-40"},
    }
    for p, by_n in pinned.items():
        session = ConnectivitySession(p)
        assert {n: session.prob_strongly_connected(n).hex() for n in by_n} == by_n
    # the p = 0.2 and 0.5 pins lie within 5 units of 2^-52, relative, of the
    # same recurrences run in 300-digit decimals at the binary value of p
    for p in (0.2, 0.5):
        with localcontext() as ctx:
            ctx.prec = 300
            reference = ConnectivitySession(Decimal(p))
            refs = {n: Fraction(reference.prob_strongly_connected(n)) for n in pinned[p]}
        for n, ref in refs.items():
            assert abs(Fraction(float.fromhex(pinned[p][n])) - ref) <= Fraction(5, 2 ** 52) * ref, (p, n)


def test_undirected_float_bits_are_pinned():
    # binary64 results of R(n) = 1 - miss(n), with miss(n) the sum over
    # k < n of C(n - 1, k - 1) R(k) q^(k(n - k)), and of miss(n) itself, as
    # released. At p = 0.01 the n = 20 and n = 100 values are far from the
    # exact ones (R = 6.6e-16 and 6.4e-21): 1 - miss cancels there. These
    # pins hold the bits of the current one-dimensional recurrence; a more
    # accurate one moves them on purpose
    pinned = {
        0.5: ({2: "0x1.0000000000000p-1", 20: "0x1.fffaffffffb8bp-1",
               100: "0x1.0000000000000p+0", 1030: "0x1.0000000000000p+0"},
              {2: "0x1.0000000000000p-1", 20: "0x1.40000011d38e9p-15",
               100: "0x1.8fffffffffffcp-93", 1030: "0x1.017ffffffffe5p-1019"}),
        0.01: ({2: "0x1.47ae147ae1480p-7", 20: "0x1.7300000000000p-41",
                100: "0x1.0cbd8c1a80468p+18", 1030: "0x1.ef44bad5a0ee9p-1"},
               {2: "0x1.fae147ae147aep-1", 20: "0x1.fffffffffe8d0p-1",
                100: "-0x1.0cbd4c1a80468p+18", 1030: "0x1.0bb452a5f1177p-5"}),
    }
    for p, (connected, disconnected) in pinned.items():
        session = ConnectivitySession(p)
        assert {n: session.prob_connected_undirected(n).hex() for n in connected} == connected
        assert {n: session.prob_disconnected_undirected(n).hex() for n in disconnected} == disconnected


QUANTITIES = ("prob_strongly_connected", "prob_disconnected",
              "prob_connected_undirected", "prob_disconnected_undirected")


@pytest.mark.parametrize("name", QUANTITIES)
@pytest.mark.parametrize("p", [0.2, 1 / 3, 0.5, 0.7])
def test_float_values_stay_close_to_a_decimal_session(p, name):
    # each quantity for n <= 240 lies within 1e-13, relative, of the same
    # recurrences run in 60-digit decimals at the binary value of p (the
    # worst is 3.2e-14, P_C at p = 0.2). Smaller p cancels: see the pins
    # above and the CLI warnings
    session = ConnectivitySession(p)
    with localcontext() as ctx:
        ctx.prec = 60
        reference = ConnectivitySession(Decimal(p))
        reference.prob_strongly_connected(240)
    for n in range(2, 241):
        ref = Fraction(getattr(reference, name)(n))
        assert abs(Fraction(getattr(session, name)(n)) - ref) <= Fraction(1, 10 ** 13) * ref, n


@pytest.mark.parametrize("p", [HALF, Fraction(1, 3), Fraction(2, 3)])
def test_exact_columns_equal_the_scalar_loop(p):
    session, ref = ConnectivitySession(p), ScalarReachSession(p)
    for name in QUANTITIES:
        got = [getattr(session, name)(n) for n in range(1, 21)]
        assert got == [getattr(ref, name)(n) for n in range(1, 21)], name


@pytest.mark.parametrize("p", [0.01, Fraction(2, 5)])
def test_growth_order_keeps_the_bits(p):
    # each n reads only the entries below it, so tables grown in several
    # batches, through any of the four queries, hold the bits of one batch
    session, ref = ConnectivitySession(p), ConnectivitySession(p)
    ref.prob_strongly_connected(40)
    for name, n in [("prob_disconnected_undirected", 25), ("prob_strongly_connected", 12),
                    ("prob_disconnected", 30), ("prob_connected_undirected", 40),
                    ("prob_strongly_connected", 35), ("prob_disconnected_undirected", 5)]:
        assert repr(getattr(session, name)(n)) == repr(getattr(ref, name)(n)), (name, n)


def test_float_path_at_its_limit(capsys):
    # n = 1030 reads binomial rows up to C(1029, j) only; row 1030 overflows
    assert prob_strongly_connected(1030, 0.5) == 1.0
    disc = prob_disconnected(1030, 0.5)
    assert math.isfinite(disc) and disc > 0
    assert main(["pc", "table", "--p", "1/2", "--nmax", "1030"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1030,1.0000"


def test_pc_curve_grows_its_session_once(monkeypatch):
    grown = []
    fill = ConnectivitySession._fill

    def counted(self, n):
        before = len(self._tables["strong"])
        tables = fill(self, n)
        if len(tables["strong"]) != before:
            grown.append(len(tables["strong"]) - 1)
        return tables

    monkeypatch.setattr(ConnectivitySession, "_fill", counted)
    assert len(pc_curve(160, 0.2).rows) == 160
    assert grown == [160]


def test_sessions_are_independent_across_threads():
    def run(p):
        s = ConnectivitySession(p)
        return [s.prob_strongly_connected(n) for n in range(2, 12)]

    ps = [Fraction(1, 3), HALF, Fraction(2, 3), Fraction(2, 5)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(run, ps))
    assert threaded == [run(p) for p in ps]


def test_module_functions_share_sessions_by_type_and_p():
    # 0.5 == Fraction(1, 2) and the two hash alike, yet each keeps its own number type
    funcs = (prob_disconnected, prob_strongly_connected, prob_disconnected_undirected,
             prob_connected_undirected)
    connectivity_module._cached_session.cache_clear()
    for p, kind in ((0.5, float), (HALF, Fraction), (0.5, float)):
        for f in funcs:
            assert type(f(12, p)) is kind
            assert f(12, p) == getattr(ConnectivitySession(p), f.__name__)(12)
    # two threads growing the shared tables get the values of fresh sessions
    connectivity_module._cached_session.cache_clear()
    ps = (0.3, HALF, 0.5, Fraction(2, 7))
    queries = [(f, n, p) for n in range(2, 40, 5) for p in ps for f in funcs]
    with ThreadPoolExecutor(max_workers=2) as pool:
        threaded = list(pool.map(lambda q: q[0](q[1], q[2]), queries))
    fresh = {(type(p), p): ConnectivitySession(p) for p in ps}
    serial = [getattr(fresh[type(p), p], f.__name__)(n) for f, n, p in queries]
    assert [repr(v) for v in threaded] == [repr(v) for v in serial]
    # a Decimal session is not shared: its values follow the context precision of each call
    for prec in (40, 20):
        with localcontext() as ctx:
            ctx.prec = prec
            value = prob_disconnected(9, Decimal("0.3"))
            assert value == ConnectivitySession(Decimal("0.3")).prob_disconnected(9)
            assert len(value.as_tuple().digits) <= prec


# --- undirected connectivity ---------------------------------------------------

def test_undirected_base_cases():
    assert prob_connected_undirected(1, HALF) == 1
    for p in (Fraction(1, 7), HALF, Fraction(4, 5)):
        assert prob_connected_undirected(2, p) == p
    assert prob_connected_undirected(3, HALF) == HALF


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("p", [Fraction(1, 3), HALF, Fraction(3, 7)])
def test_undirected_against_edge_enumeration(n, p):
    assert prob_connected_undirected(n, p) == undirected_connected_oracle(n, p)


def test_undirected_float_matches_exact():
    for p in (Fraction(1, 10), HALF, Fraction(9, 10)):
        for n in (2, 7, 19, 40):
            exact = float(prob_disconnected_undirected(n, p))
            approx = prob_disconnected_undirected(n, float(p))
            assert approx == pytest.approx(exact, rel=1e-11, abs=1e-300)


def test_float_binomial_overflow_raises():
    # row C(1030, j) is the first to overflow binary64, and n = 1031 reads it:
    # inf times a power of 1 - p would turn the sums into nan, so the session
    # refuses before it computes anything
    assert FLOAT_PC_MAX_N == 1030
    for p in (0.5, 0.01):
        value = prob_disconnected_undirected(1030, p)
        assert math.isfinite(value) and 0 < value < 1
        session = ConnectivitySession(p)
        for query in (session.prob_disconnected_undirected, session.prob_strongly_connected):
            with pytest.raises(CostGuardError, match="at most n = 1030"):
                query(1031)
        assert [len(t) for t in session._tables.values()] == [2] * 5 and len(session._qpow) == 0


def test_undirected_term_ratio_identity():
    # consecutive terms a_k = C(n-1,k-1)(1-p)^(k(n-k)) of the tail bound
    # satisfy a_{k+1}/a_k = (n-k)/k * (1-p)^(n-2k-1)
    for n in (5, 9, 14):
        for p in (Fraction(1, 3), HALF, Fraction(5, 7)):
            q = 1 - p
            terms = [math.comb(n - 1, k - 1) * q ** (k * (n - k)) for k in range(1, n)]
            for k in range(1, n - 1):
                assert terms[k] / terms[k - 1] == Fraction(n - k, k) * q ** (n - 2 * k - 1)


# --- lower bound -----------------------------------------------------------------

def test_lower_bound_values():
    # direct rational evaluation of 1 - (n-1)^2 (1-p^2)^(n-1)
    for n, p in ((10, HALF), (50, HALF), (30, Fraction(1, 5))):
        expected = float(1 - (n - 1) ** 2 * (1 - p * p) ** (n - 1))
        assert lower_bound_pc(n, p) == pytest.approx(expected, rel=1e-12)
    assert lower_bound_pc(10, HALF) == pytest.approx(-5.08185958862304, rel=1e-10)
    assert lower_bound_pc(50, HALF) == pytest.approx(0.99818701560389, rel=1e-10)


def test_lower_bound_degenerate_and_errors():
    assert lower_bound_pc(7, 1.0) == 1.0
    with pytest.raises(ValueError):
        lower_bound_pc(1, HALF)
    with pytest.raises(ValueError):
        lower_bound_pc(10, 0.0)


def test_directed_dominates_undirected_square():
    # connectivity of the undirected graph at p^2 forces strong connectivity
    # at p; for n <= 2 the two events coincide, so equality holds there and
    # the inequality is strict from n = 3 on
    for p in P_GRID:
        assert prob_strongly_connected(2, p) == prob_connected_undirected(2, p * p)
        for n in range(3, 13):
            assert prob_strongly_connected(n, p) > prob_connected_undirected(n, p * p)


def test_undirected_tail_bound_holds_for_large_n():
    for p in (0.1, 0.5, 0.9):
        for n in (30, 80, 200):
            disc = prob_disconnected_undirected(n, p)
            rhs = math.exp(2 * math.log(n - 1) + (n - 1) * math.log1p(-p))
            assert disc < rhs


# --- curve ------------------------------------------------------------------------

def test_curve_single_vertex():
    curve = pc_curve(1, HALF)
    assert curve.rows == ((1, 1),)
    assert curve.argmin_n == 1


def test_curve_half_monotone_after_two():
    curve = pc_curve(7, HALF)
    vals = [v for _, v in curve.rows]
    assert curve.argmin_n == 2
    assert all(a < b for a, b in zip(vals[1:], vals[2:]))


def test_curve_small_p_interior_minimum():
    curve = pc_curve(12, Fraction(1, 5))
    assert 2 < curve.argmin_n < 12
    by_n = dict(curve.rows)
    n_star = curve.argmin_n
    assert by_n[n_star] < by_n[n_star - 1]
    assert by_n[n_star] < by_n[n_star + 1]
    # stochastic cross-check: the exact values at the minimum and its
    # neighbours all sit inside their Monte Carlo intervals
    for n in (n_star - 1, n_star, n_star + 1):
        est = estimate_pc_monte_carlo(n, Fraction(1, 5), 300_000, seed=909 + n)
        assert est.lo <= float(by_n[n]) <= est.hi


def test_curve_float_mode_beyond_exact_limit():
    curve = pc_curve(40, Fraction(1, 3))
    vals = dict(curve.rows)
    assert isinstance(vals[30], float)
    assert vals[40] > 0.99
