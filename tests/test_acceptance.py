"""Acceptance criteria A1-A9.

Each test prints one PASS/FAIL line. Two checks encode external reference
claims that exhaustive enumeration (and the cross-validated recursion)
contradicts; they are implemented as stated and fail with a full account:

* A1 pins reference values 0.3438..0.8114 for P_C(n, 1/2), n = 3..7. The
  true values, confirmed by enumerating every digraph up to n = 5 with two
  independent strong-connectivity checks, are 0.2813, 0.3921, 0.5389,
  0.6843, 0.8011.
* A6 requires two-qubit networks to converge to the rank-5 projector map.
  The only strongly connected two-qubit graph carries a period-2 attractor
  operator (channel eigenvalue -1), so its iterates provably never get
  there; n = 3 and n = 4 converge as required.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np

import randqnet.channels as ch
from randqnet import (
    ChannelSpec,
    ConnectivitySession,
    DirectedGraph,
    asymptotic_channel,
    asymptotic_channel_exact,
    averaged_channel_ptm,
    channel_ptm,
    cnot_conjugate,
    convergence_trace,
    estimate_pc_monte_carlo,
    exact_pc_bruteforce,
    hs_distance,
    pc_curve,
    prob_connected_undirected,
    prob_disconnected_undirected,
    prob_strongly_connected,
    static_average_iterate,
    static_convergence_traces,
)
from randqnet.digraph import arc_pairs
from conftest import dense_cnot, kron_pauli

A2_GRID = [Fraction(1, 5), Fraction(1, 3), Fraction(2, 5), Fraction(3, 7), Fraction(1, 2), Fraction(2, 3)]


def _report(tag: str, ok: bool, detail: str = ""):
    print(f"{tag}: {'PASS' if ok else 'FAIL'}{' - ' + detail if detail else ''}")
    assert ok, f"{tag}: {detail}"


def test_a1_reference_table():
    reference = {2: 0.25, 3: 0.3438, 4: 0.4331, 5: 0.5742, 6: 0.7049, 7: 0.8114}
    t0 = time.perf_counter()
    session = ConnectivitySession(Fraction(1, 2))
    computed = {n: float(session.prob_strongly_connected(n)) for n in range(2, 8)}
    elapsed = time.perf_counter() - t0
    mismatches = {
        n: (computed[n], reference[n])
        for n in range(2, 8)
        if abs(computed[n] - reference[n]) > 5e-5
    }
    detail = f"runtime {elapsed:.3f}s"
    if mismatches:
        listing = ", ".join(f"n={n}: computed {c:.4f} vs reference {r}" for n, (c, r) in mismatches.items())
        detail += (
            f"; reference values are inconsistent with exhaustive enumeration ({listing}); "
            "enumeration over all digraphs (n <= 5, cross-checked by per-graph Tarjan and "
            "bit-parallel reachability) confirms the computed values, see A2"
        )
    _report("A1", elapsed < 1.0 and not mismatches, detail)


def test_a2_exact_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for p in A2_GRID:
        session = ConnectivitySession(p)
        for n in range(2, 6):
            assert session.prob_strongly_connected(n) == exact_pc_bruteforce(n, p)
            checked += 1
    elapsed = time.perf_counter() - t0
    _report(
        "A2",
        elapsed < 120.0,
        f"{checked} (n, p) pairs equal as exact rationals, runtime {elapsed:.1f}s",
    )


def test_a3_monte_carlo_consistency():
    t0 = time.perf_counter()
    p_values = [Fraction(3, 10), Fraction(1, 2), Fraction(7, 10)]
    samples, reps = 10 ** 6, 100
    worst = (1.0, None)
    for pi, p in enumerate(p_values):
        session = ConnectivitySession(p)
        for n in range(5, 11):
            exact = float(exact_pc_bruteforce(n, p) if n <= 5 else session.prob_strongly_connected(n))
            inside = 0
            for rep in range(reps):
                seed = (pi * 100 + n) * 1000 + rep
                est = estimate_pc_monte_carlo(n, p, samples, seed=seed)
                if est.lo <= exact <= est.hi:
                    inside += 1
            if inside / reps < worst[0]:
                worst = (inside / reps, (n, p))
            assert inside >= 95, f"(n={n}, p={p}): only {inside}/100 intervals covered"
    _report(
        "A3",
        True,
        f"18 cells x 100 runs of 1e6 samples; worst coverage {worst[0]:.0%} at {worst[1]}; "
        f"runtime {time.perf_counter() - t0:.0f}s",
    )


def test_a4_bound_chain_and_curve_shape():
    # directed vs undirected-square: the events coincide for n <= 2, so the
    # inequality is an equality there and strict from n = 3 on
    for p in A2_GRID:
        for n in (1, 2):
            assert prob_strongly_connected(n, p) == prob_connected_undirected(n, p * p)
        for n in range(3, 13):
            assert prob_strongly_connected(n, p) > prob_connected_undirected(n, p * p)
    # undirected tail bound over the large-n regime, on the complement side
    # so the strict inequality survives float resolution near 1
    for p10 in range(1, 10):
        p = p10 / 10
        for n in range(30, 201):
            disc = prob_disconnected_undirected(n, p)
            assert disc < math.exp(2 * math.log(n - 1) + (n - 1) * math.log1p(-p))
    # curve shape: interior-or-boundary minimum, then growth beyond 0.99
    shapes = []
    for p, n_max in ((Fraction(2, 3), 15), (Fraction(1, 2), 20), (Fraction(3, 7), 25),
                     (Fraction(2, 5), 28), (Fraction(1, 3), 35), (Fraction(1, 5), 50)):
        curve = pc_curve(n_max, float(p))
        vals = [v for _, v in curve.rows]
        n_star = curve.argmin_n
        assert n_star < n_max
        assert all(a < b for a, b in zip(vals[n_star - 1:], vals[n_star:]))
        assert vals[-1] > 0.99
        shapes.append((str(p), n_star, round(vals[-1], 5)))
    _report("A4", True, f"bound chain n<=12 and tail bound n in [30,200] hold; curve minima {shapes}")


def test_a5_channel_validity():
    rng = np.random.default_rng(42)
    mats = []
    for n in (2, 3, 4):
        mats.append(asymptotic_channel(n))
        for p in (0.2, 0.5, 0.8):
            mats.append(averaged_channel_ptm(n, p))
        for u, v in arc_pairs(n):
            mats.append(channel_ptm(ChannelSpec.uniform(DirectedGraph(n, {(u, v)}))))
        for _ in range(5):
            mask = int(rng.integers(1, 1 << (n * (n - 1))))
            g = DirectedGraph.from_mask(n, mask)
            w = rng.uniform(0.1, 1.0, size=len(g.arcs))
            mats.append(channel_ptm(ChannelSpec(g, dict(zip(sorted(g.arcs), w / w.sum())))))
    mats.append(static_average_iterate(3, 0.4, 3))
    worst = 0.0
    for M in mats:
        e0 = np.zeros(M.shape[0])
        e0[0] = 1.0
        worst = max(worst, float(np.abs(M[0] - e0).max()))
    assert worst <= 1e-14
    U = dense_cnot(2, 0, 1)
    for word in ("".join(w) for w in itertools.product("IXYZ", repeat=2)):
        sp = cnot_conjugate(word, 0, 1)
        assert np.array_equal(U @ kron_pauli(word) @ U.conj().T, sp.sign * kron_pauli(sp.word))
    _report("A5", True, f"{len(mats)} transfer matrices trace-preserving within {worst:.1e}; "
                        "all 16 two-qubit conjugations match dense matrices exactly")


def test_a6_asymptotic_universality():
    rng = np.random.default_rng(4242)
    failures = []
    details = []
    for n in (2, 3, 4):
        limit = asymptotic_channel(n)
        graphs = {}
        for name, g in (("cycle", DirectedGraph.cycle(n)), ("complete", DirectedGraph.complete(n))):
            graphs.setdefault(g.arcs, name)  # n = 2: cycle and complete coincide
        for arcs, name in graphs.items():
            g = DirectedGraph(n, arcs)
            iterates = []
            for _ in range(3):
                w = rng.uniform(0.2, 1.0, size=len(g.arcs))
                spec = ChannelSpec(g, dict(zip(sorted(g.arcs), w / w.sum())))
                P = channel_ptm(spec)
                for _ in range(13):  # r = 8192 <= 10^4
                    P = P @ P
                iterates.append(P)
            dists = [hs_distance(P, limit) for P in iterates]
            pairwise = max(
                hs_distance(a, b) for a, b in itertools.combinations(iterates, 2)
            )
            if max(dists) > 1e-8 or pairwise > 1e-8:
                failures.append(f"n={n} {name}: D(8192)={max(dists):.3e}, weight spread {pairwise:.1e}")
            else:
                details.append(f"n={n} {name}: D(8192)={max(dists):.1e}")
    detail = "; ".join(details)
    if failures:
        detail += (
            " | unreachable legs: " + "; ".join(failures)
            + " - the lone strongly connected two-qubit graph has a period-2 attractor "
            "operator (channel eigenvalue -1 spanned by single-Y words), so for n=2 the "
            "iterates converge to the rank-5 projector map plus that rank-1 piece, at "
            "constant distance 1.0, for every positive weight vector"
        )
    _report("A6", not failures, detail)


def test_a7_dynamic_convergence_shape():
    t0 = time.perf_counter()
    p_list = (0.2, 0.4, 0.6, 0.8, 0.95)
    traces = {p: convergence_trace(4, p, "dynamic", 5000, stop_below=1e-7) for p in p_list}
    reached = {}
    for p, rows in traces.items():
        dist = [d for _, d in rows]
        assert all(b <= a + 1e-12 for a, b in zip(dist, dist[1:])), f"p={p} not non-increasing"
        below = [r for r, d in rows if d <= 1e-6]
        assert below and below[0] <= 5000, f"p={p} never reached 1e-6"
        reached[p] = below[0]
    # larger p converges faster at every fixed r >= 5; beyond a trace's
    # truncation point its distance is already < 1e-7 while slower traces
    # are still above it, so checking the common prefix suffices
    common = min(len(rows) for rows in traces.values()) - 1
    for p_small, p_large in zip(p_list, p_list[1:]):
        for r in range(5, common + 1):
            assert traces[p_small][r][1] > traces[p_large][r][1]
    _report("A7", True, f"first r with D<=1e-6: {reached}; runtime {time.perf_counter() - t0:.0f}s")


def test_a8_static_convergence_floors():
    t0 = time.perf_counter()
    p_list = (0.2, 0.4, 0.6, 0.8, 0.95)
    r_max = 160
    traces = static_convergence_traces(4, list(p_list), r_max)
    floors = {}
    for p in p_list:
        dist = [d for _, d in traces[p]]
        tail = dist[-24:]
        prev = dist[-48:-24]
        assert min(tail) > 1e-4, f"p={p}: floor not strictly positive"
        drift = abs(sum(tail) / len(tail) - sum(prev) / len(prev)) / (sum(tail) / len(tail))
        assert drift < 0.10, f"p={p}: tail still drifting ({drift:.2%})"
        floors[p] = sum(tail) / len(tail)
    ordered = all(floors[a] > floors[b] for a, b in zip(p_list, p_list[1:]))
    elapsed = time.perf_counter() - t0
    assert ordered
    assert elapsed < 600.0
    _report(
        "A8",
        True,
        "floors " + ", ".join(f"p={p}: {floors[p]:.2e}" for p in p_list) + f"; runtime {elapsed:.0f}s",
    )


def _exact_state_zero(n):
    # 2^-n on every word made only of I and Z letters
    return [Fraction(1, 2 ** n) if set(ch.index_to_word(a, n)) <= {"I", "Z"} else Fraction(0)
            for a in range(4 ** n)]


def _exact_state_mixed(n):
    out = [Fraction(0)] * 4 ** n
    out[0] = Fraction(1, 2 ** n)
    return out


def test_a9_fixed_points():
    # asymptotic channel: exact rational arithmetic, zero tolerance
    for n in (2, 3, 4):
        M = asymptotic_channel_exact(n)
        for state in (_exact_state_zero(n), _exact_state_mixed(n)):
            image = [sum(row[b] * state[b] for b in range(len(state)) if state[b]) for row in M]
            assert image == state
        # float projection of the same matrix moves them by at most 1e-15
        Mf = asymptotic_channel(n)
        for state in (ch.state_zero(n), ch.state_mixed(n)):
            assert np.abs(Mf @ state - state).max() <= 1e-15
    # every per-graph channel: single-step deviation below 1e-12
    rng = np.random.default_rng(7)
    worst = 0.0
    for n in (2, 3):
        for mask in range(1, 1 << (n * (n - 1))):
            M = channel_ptm(ChannelSpec.uniform(DirectedGraph.from_mask(n, mask)))
            for state in (ch.state_zero(n), ch.state_mixed(n)):
                worst = max(worst, float(np.abs(M @ state - state).max()))
    for _ in range(50):
        mask = int(rng.integers(1, 1 << 12))
        g = DirectedGraph.from_mask(4, mask)
        w = rng.uniform(0.1, 1.0, size=len(g.arcs))
        M = channel_ptm(ChannelSpec(g, dict(zip(sorted(g.arcs), w / w.sum()))))
        for state in (ch.state_zero(4), ch.state_mixed(4)):
            worst = max(worst, float(np.abs(M @ state - state).max()))
    assert worst <= 1e-12
    _report("A9", True, f"exact fixed points under the asymptotic map; per-step deviation "
                        f"under every sampled channel <= {worst:.1e}")
