"""Count the wrong float P_C and R rows of one or more source trees.

    python3 scripts/pc_accuracy.py PARENT CHANGE

For each tree, in a child process with that tree's ``src`` on
``PYTHONPATH``, and for each p of a fixed grid, compares the float
``ConnectivitySession(p)`` values P_C(n) and the undirected connection
probability R(n) (``prob_connected_undirected``), n = 1..160, with the
tree's own ``ConnectivitySession(Decimal(p))`` at 300 digits, run at the
binary value of p. A row is wrong when its 6 significant digits, as
``pc curve`` prints them, differ from the reference's. Wrong rows are
counted in two groups: unflagged (inside [0, 1]) and flagged (outside
[0, 1] or nan, which ``pc table`` and ``pc curve`` report on stderr for
P_C; no command prints R). Prints one line per p: ``unflagged/flagged``
and the largest relative error of P_C and of R for each tree. Each
reference is checked against a 350-digit run to 1e-30 relative; the
script exits 1 if the two disagree.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext

P_GRID = (0.005, 0.01, 0.02, 0.03, 0.05, 0.1, 0.2, 1 / 3, 1 / 2, 0.7)
N_MAX = 160
DIGITS, CHECK_DIGITS, CHECK_TOLERANCE = 300, 350, Decimal("1e-30")
QUANTITIES = {"P_C": "prob_strongly_connected", "R": "prob_connected_undirected"}


def reference(p: float, digits: int) -> dict[str, list[Decimal]]:
    """P_C(n) and R(n) for n = 0..N_MAX (entry 0 unused) in ``digits``-digit decimals."""
    from randqnet import ConnectivitySession

    with localcontext() as ctx:
        ctx.prec = digits
        session = ConnectivitySession(Decimal(p))
        return {name: [Decimal(1)] + [getattr(session, method)(n) for n in range(1, N_MAX + 1)]
                for name, method in QUANTITIES.items()}


def count(name: str, p: float, values: list[float], ref: list[Decimal], check: list[Decimal]) -> dict:
    """Wrong-row counts and the largest relative error of one float quantity, entry n for n = 1..N_MAX."""
    unflagged = flagged = 0
    worst = Decimal(0)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        for n in range(1, N_MAX + 1):
            if abs(ref[n] - check[n]) > CHECK_TOLERANCE * abs(check[n]):
                raise SystemExit(f"{name}({n}, {p!r}): the {DIGITS}- and {CHECK_DIGITS}-digit "
                                 "references disagree")
            value = values[n]
            if not math.isfinite(value):
                flagged, worst = flagged + 1, Decimal("Infinity")
                continue
            worst = max(worst, abs(Decimal(value) - ref[n]) / abs(ref[n]))
            if Decimal(format(value, ".5e")) != Decimal(format(ref[n], ".5e")):
                if 0 <= value <= 1:
                    unflagged += 1
                else:
                    flagged += 1
    return {"unflagged": unflagged, "flagged": flagged, "max_rel": float(worst)}


def measure(p: float) -> dict:
    """``count`` of the float P_C and R at ``p``, keyed by quantity."""
    from randqnet import ConnectivitySession

    ref, check = reference(p, DIGITS), reference(p, CHECK_DIGITS)
    session = ConnectivitySession(p)
    return {name: count(name, p, [None] + [getattr(session, method)(n) for n in range(1, N_MAX + 1)],
                        ref[name], check[name])
            for name, method in QUANTITIES.items()}


def run_tree(tree: str) -> list[dict]:
    """``measure`` for every p of the grid, run on the code of ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure"], env=env,
                          capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"{tree}: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trees", nargs="*", metavar="TREE")
    ap.add_argument("--measure", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.measure:
        print(json.dumps([measure(p) for p in P_GRID]))
        return 0
    if not args.trees:
        ap.error("name at least one TREE")
    results = [run_tree(tree) for tree in args.trees]
    print(f"wrong rows at 6 digits, n <= {N_MAX} (unflagged/flagged) and the largest relative error, "
          f"of P_C and of R per tree")
    columns = [(tree, name) for tree in args.trees for name in QUANTITIES]
    print(f"{'p':>8}" + "".join(f"  {(name + ' ' + tree[-20:]):>24}" for tree, name in columns))
    for i, p in enumerate(P_GRID):
        cells = [r[i][name] for r in results for name in QUANTITIES]
        print(f"{p:8.4g}" + "".join(f"  {c['unflagged']}/{c['flagged']} {c['max_rel']:9.2e}".rjust(26)
                                    for c in cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
