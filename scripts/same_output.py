"""Check that two source trees print the same output for every benchmark command.

    python3 scripts/same_output.py PARENT CHANGE --seed 7 \\
        --also "pc table --p 1/100 --nmax 12 --precision 9"

Runs each command of both workloads in ``perfbench/workloads.py`` (taken
from CHANGE, read only), and every ``--also`` command, as ``python -m
randqnet.cli ARGS`` from each tree's root with that tree's ``src`` on
``PYTHONPATH``, one run at a time. Prints one line per command: the
sha256 of standard output and the exit code in each tree, and ``same`` or
``DIFF``. Exits 1 if any command differs.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys


def run(tree: str, argv: list[str]) -> tuple[str, int]:
    """sha256 of the standard output and the exit code of one command in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "randqnet.cli", *argv], cwd=tree, env=env,
                          capture_output=True)
    return hashlib.sha256(proc.stdout).hexdigest(), proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=7, help="workload seed (the Monte Carlo --seed)")
    ap.add_argument("--also", action="append", default=[], help="one more command, quoted")
    args = ap.parse_args()
    sys.path.insert(0, os.path.join(os.path.abspath(args.change), "perfbench"))
    import workloads

    commands = [list(cmd.argv) for name in workloads.WORKLOADS for cmd in workloads.commands(name, args.seed)]
    commands += [shlex.split(text) for text in args.also]
    differ = 0
    for argv in commands:
        (h_par, c_par), (h_chg, c_chg) = run(args.parent, argv), run(args.change, argv)
        same = (h_par, c_par) == (h_chg, c_chg)
        differ += not same
        print(f"{'same' if same else 'DIFF'}  {h_par[:16]} {c_par}  {h_chg[:16]} {c_chg}  {shlex.join(argv)}",
              flush=True)
    print(f"{len(commands) - differ} of {len(commands)} commands same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
