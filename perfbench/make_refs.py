"""Compute the stored references the checker compares randqnet's output with.

    python3 perfbench/make_refs.py          # from the repository root; a few minutes

Writes ``perfbench/refs/*.json``. Every reference comes from code in this
file, not from randqnet, except one cross-check that calls randqnet's exact
partition recursion:

* P_C(n, p): the reachability factorization in ``decimal`` at two
  precisions (>= 120 digits) that must agree, and that must equal the
  exact partition recursion for n <= 20.
* Dynamic D(r) = sqrt(sum over eigenvalues lambda != 1 of lambda^(2r)),
  from one ``eigvalsh`` of the graph-averaged step matrix. That the
  lambda = 1 eigenprojector is the closed-form asymptotic map is checked
  here for n = 3, 4.
* Static D(r) = ||sum_g w_g M_g^r - L||_F over every labeled graph g, each
  M_g^r from its own ``eigh``, with L the closed-form asymptotic map.

CNOT conjugation of Pauli words uses the symplectic rule (Aaronson and
Gottesman 2004), checked against dense 2^n x 2^n matrices.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import DEFAULTS, REF_DIR, mc_grid_p  # noqa: E402
from workloads import WORKLOADS, commands  # noqa: E402

PRECISIONS = (130, 160)
STORED_DIGITS = 40

# ---------------------------------------------------------------------------
# P_C(n, p) by the reachability factorization, in decimal
# ---------------------------------------------------------------------------


def pc_decimal(p: Fraction, nmax: int, prec: int) -> list[Decimal]:
    """P_C(n, p) for n = 0..nmax (index 0 unused) at ``prec`` significant digits.

    R(m) = 1 - sum_{k<m} C(m-1, k-1) R(k) q^(k(m-k)) is the probability that
    vertex 1 reaches every vertex; U(t, w) = 1 - sum_{y<w} C(w, y) U(t, y)
    q^((t+y)(w-y)) that a t-vertex block reaches all of w outsiders; then
    P_C(n) = R(n) - sum_{t<n} C(n-1, t-1) P_C(t) q^(t(n-t)) U(t, n-t).
    """
    with localcontext() as ctx:
        ctx.prec = prec
        q = Decimal(p.denominator - p.numerator) / p.denominator
        qp = [Decimal(1)]
        for _ in range(nmax * nmax // 4 + 1):
            qp.append(qp[-1] * q)
        binom = [[Decimal(math.comb(w, y)) for y in range(w + 1)] for w in range(nmax + 1)]
        one = Decimal(1)
        reach = [None, one]
        for m in range(2, nmax + 1):
            reach.append(one - sum(binom[m - 1][k - 1] * reach[k] * qp[k * (m - k)] for k in range(1, m)))
        spread = []
        for t in range(nmax + 1):
            u = [one]
            for w in range(1, nmax - t + 1):
                row = binom[w]
                u.append(one - sum(row[y] * u[y] * qp[(t + y) * (w - y)] for y in range(w)))
            spread.append(u)
        pc = [None, one]
        for n in range(2, nmax + 1):
            pc.append(reach[n] - sum(
                binom[n - 1][t - 1] * pc[t] * qp[t * (n - t)] * spread[t][n - t] for t in range(1, n)
            ))
        return pc


def pc_reference(p: Fraction, nmax: int) -> list[str]:
    lo, hi = (pc_decimal(p, nmax, prec) for prec in PRECISIONS)
    with localcontext() as ctx:
        ctx.prec = STORED_DIGITS + 5
        for n in range(1, nmax + 1):
            if abs(lo[n] - hi[n]) > abs(hi[n]) * Decimal(10) ** -(STORED_DIGITS + 2):
                raise SystemExit(f"P_C({n}, {p}): {PRECISIONS} digits disagree")
    if nmax >= 2:
        from randqnet.connectivity import ConnectivitySession

        session = ConnectivitySession(p)
        for n in range(1, min(nmax, 20) + 1):
            exact = session.prob_strongly_connected(n)
            with localcontext() as ctx:
                ctx.prec = STORED_DIGITS + 5
                ex = Decimal(exact.numerator) / exact.denominator
                if abs(ex - hi[n]) > abs(ex) * Decimal(10) ** -(STORED_DIGITS + 2):
                    raise SystemExit(f"P_C({n}, {p}): factorization differs from the partition recursion")
    with localcontext() as ctx:
        ctx.prec = STORED_DIGITS
        return [str(+v) for v in hi[1:]]


# ---------------------------------------------------------------------------
# Pauli transfer matrices
# ---------------------------------------------------------------------------

_LETTER_BITS = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1)}  # I, X, Y, Z as (x, z)
_BITS_LETTER = {v: k for k, v in _LETTER_BITS.items()}


def cnot_action(n: int, control: int, target: int) -> tuple[np.ndarray, np.ndarray]:
    """(image, sign) of every Pauli index under conjugation by CNOT(control -> target).

    Symplectic rule: x_t ^= x_c, z_c ^= z_t, and the sign flips when
    x_c z_t (x_t xor z_c xor 1) = 1.
    """
    d = 4 ** n
    image = np.empty(d, dtype=np.int64)
    sign = np.empty(d)
    for a in range(d):
        x = [0] * n
        z = [0] * n
        for qb in range(n):
            x[qb], z[qb] = _LETTER_BITS[(a >> (2 * qb)) & 3]
        flip = x[control] & z[target] & (x[target] ^ z[control] ^ 1)
        x[target] ^= x[control]
        z[control] ^= z[target]
        image[a] = sum(_BITS_LETTER[(x[qb], z[qb])] << (2 * qb) for qb in range(n))
        sign[a] = -1.0 if flip else 1.0
    return image, sign


def link_matrix(n: int, control: int, target: int) -> np.ndarray:
    image, sign = cnot_action(n, control, target)
    d = 4 ** n
    m = np.zeros((d, d))
    m[image, np.arange(d)] = sign
    return m


_PAULI = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]


def pauli_dense(a: int, n: int) -> np.ndarray:
    """Dense matrix of Pauli index ``a``; qubit q is tensor factor q."""
    out = np.eye(1)
    for qb in range(n):
        out = np.kron(out, _PAULI[(a >> (2 * qb)) & 3])
    return out


def cnot_dense(n: int, control: int, target: int) -> np.ndarray:
    dim = 2 ** n
    u = np.zeros((dim, dim))
    for basis in range(dim):
        bits = [(basis >> (n - 1 - qb)) & 1 for qb in range(n)]  # factor q is bit n-1-q
        bits[target] ^= bits[control]
        u[sum(b << (n - 1 - qb) for qb, b in enumerate(bits)), basis] = 1.0
    return u


def check_cnot_rule(n: int) -> None:
    paulis = [pauli_dense(a, n) for a in range(4 ** n)]
    for control, target in itertools.permutations(range(n), 2):
        u = cnot_dense(n, control, target)
        image, sign = cnot_action(n, control, target)
        for a, sigma in enumerate(paulis):
            if not np.allclose(u @ sigma @ u.T, sign[a] * paulis[image[a]]):
                raise SystemExit(f"symplectic CNOT rule disagrees with the dense matrix, n={n}")


def asymptotic_map(n: int) -> np.ndarray:
    """Transfer matrix of rho -> P rho P + Tr((I-P) rho) / (2^n - 2) (I-P).

    P projects onto span{|0...0>, |+...+>}; entry (a, b) is
    Tr(sigma_a Phi(sigma_b)) / 2^n.
    """
    dim = 2 ** n
    zero = np.zeros(dim)
    zero[0] = 1.0
    plus = np.full(dim, dim ** -0.5)
    w = plus - (plus @ zero) * zero
    w /= np.linalg.norm(w)
    proj = np.outer(zero, zero) + np.outer(w, w)
    rest = np.eye(dim) - proj
    paulis = [pauli_dense(a, n) for a in range(4 ** n)]
    out = np.empty((4 ** n, 4 ** n))
    for b, sb in enumerate(paulis):
        phi = proj @ sb @ proj + np.trace(rest @ sb) / (dim - 2) * rest
        out[:, b] = [np.trace(sa @ phi).real / dim for sa in paulis]
    return out


def averaged_step(n: int, p: float) -> np.ndarray:
    """Graph-averaged step: a fresh G(n, p) graph applies one uniformly chosen link.

    A link is applied with probability sum_k C(N-1, k-1) p^k q^(N-k) / k over
    graphs with k >= 1 arcs; an arcless graph applies the identity.
    """
    pairs = list(itertools.permutations(range(n), 2))
    big_n = len(pairs)
    q = 1.0 - p
    per_link = sum(math.comb(big_n - 1, k - 1) * p ** k * q ** (big_n - k) / k for k in range(1, big_n + 1))
    out = q ** big_n * np.eye(4 ** n)
    for control, target in pairs:
        out += per_link * link_matrix(n, control, target)
    return out


def dynamic_reference(n: int, p: float, r_max: int) -> list[float]:
    lam = np.linalg.eigvalsh(averaged_step(n, p))
    fixed = np.abs(lam - 1.0) < 1e-9
    if fixed.sum() != 5:
        raise SystemExit(f"expected a rank-5 fixed space at n={n}, p={p}, found {fixed.sum()}")
    lam2 = lam[~fixed] ** 2
    return [math.sqrt(float(np.sum(lam2 ** r))) for r in range(r_max + 1)]


def check_fixed_space(n: int) -> None:
    lam, vec = np.linalg.eigh(averaged_step(n, 0.5))
    ones = vec[:, np.abs(lam - 1.0) < 1e-9]
    if not np.allclose(ones @ ones.T, asymptotic_map(n), atol=1e-10):
        raise SystemExit(f"lambda = 1 eigenprojector is not the asymptotic map at n={n}")


def static_reference(n: int, p_list: list[float], r_max: int) -> dict[float, list[float]]:
    """Ensemble distance over every labeled graph, without relabeling symmetry."""
    pairs = list(itertools.permutations(range(n), 2))
    big_n = len(pairs)
    d = 4 ** n
    links = [link_matrix(n, c, t) for c, t in pairs]
    limit = asymptotic_map(n)
    coef = np.array([[p ** k * (1.0 - p) ** (big_n - k) for k in range(big_n + 1)] for p in p_list])
    graphs = []
    for mask in range(1 << big_n):
        arcs = [links[j] for j in range(big_n) if mask >> j & 1]
        m = sum(arcs) / len(arcs) if arcs else np.eye(d)
        if not np.array_equal(m, m.T):
            raise SystemExit("per-graph transfer matrix is not symmetric")
        graphs.append((bin(mask).count("1"), m))
    cache = len(graphs) * d * d <= 1 << 22
    eig = [np.linalg.eigh(m) for _, m in graphs] if cache else None
    chunk = max(1, min(r_max + 1, (1 << 25) // (d * d * (big_n + 1))))
    out = {p: [] for p in p_list}
    for r0 in range(0, r_max + 1, chunk):
        rs = np.arange(r0, min(r0 + chunk, r_max + 1))
        by_arcs = np.zeros((big_n + 1, len(rs), d, d))
        for g, (k, m) in enumerate(graphs):
            lam, vec = eig[g] if cache else np.linalg.eigh(m)
            scaled = vec[None, :, :] * (lam[None, :] ** rs[:, None])[:, None, :]
            by_arcs[k] += scaled @ vec.T
        avg = np.tensordot(coef, by_arcs, axes=1)  # (p, r, d, d)
        dist = np.sqrt(((avg - limit) ** 2).sum(axis=(2, 3)))
        for i, p in enumerate(p_list):
            out[p].extend(float(x) for x in dist[i])
    return out


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def needed() -> tuple[dict, set, dict]:
    """(P_C nmax per p, dynamic (n, p, rmax), static (n, rmax) -> p list) over all workloads."""
    pc: dict[Fraction, int] = {}
    dynamic, static = set(), {}
    for workload in WORKLOADS:
        for cmd in commands(workload, 0):
            args = dict(DEFAULTS[cmd.cls])
            args.update({k: cmd.flag(k) for k in args if cmd.flag(k) is not None})
            if cmd.cls == "pc_table":
                p = Fraction(args["--p"])
                pc[p] = max(pc.get(p, 0), int(args["--nmax"]))
            elif cmd.cls == "pc_curve":
                for tok in args["--p-list"].split(","):
                    p = Fraction(tok)
                    pc[p] = max(pc.get(p, 0), int(args["--nmax"]))
            elif cmd.cls == "pc_mc":
                p = mc_grid_p(args["--p"])
                pc[p] = max(pc.get(p, 0), int(args["--n"]))
            elif cmd.cls == "evolve_dynamic":
                for tok in args["--p-list"].split(","):
                    dynamic.add((int(args["--n"]), tok, int(args["--rmax"])))
            elif cmd.cls == "evolve_static":
                static.setdefault((int(args["--n"]), int(args["--rmax"])), args["--p-list"].split(","))
    return pc, dynamic, static


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    pc, dynamic, static = needed()
    for n in (2, 3):
        check_cnot_rule(n)
    for n in (3, 4):
        check_fixed_space(n)
    os.makedirs(REF_DIR, exist_ok=True)

    pc_out = {}
    for p, nmax in sorted(pc.items()):
        print(f"P_C p={p} nmax={nmax}", flush=True)
        pc_out[str(p)] = pc_reference(p, nmax)
    evolve_out = {}
    for n, p, r_max in sorted(dynamic):
        print(f"dynamic n={n} p={p} rmax={r_max}", flush=True)
        evolve_out[f"dynamic n={n} p={p}"] = [repr(x) for x in dynamic_reference(n, float(p), r_max)]
    for (n, r_max), p_list in sorted(static.items()):
        print(f"static n={n} rmax={r_max}", flush=True)
        traces = static_reference(n, [float(p) for p in p_list], r_max)
        for p in p_list:
            evolve_out[f"static n={n} p={p}"] = [repr(x) for x in traces[float(p)]]
    for name, payload in (("pc.json", pc_out), ("evolve.json", evolve_out)):
        with open(os.path.join(REF_DIR, name), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=0, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
