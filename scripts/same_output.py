"""Check that two source trees print the same output for every benchmark command.

    python3 scripts/same_output.py PARENT CHANGE --seed 7 \\
        --also "pc table --p 1/100 --nmax 12 --precision 9"

Runs each command of both workloads in ``perfbench/workloads.py`` (taken
from CHANGE, read only), each ``randqnet ...`` line of CHANGE's README.md
that does not write a file with ``--out``, the ``--help`` of every command
path, usage errors at every kind of node (bare ``randqnet``, ``pc`` and
``evolve``; ``pc mc`` without its required ``--n``; the unknown command
``pc tabel``; an unknown flag or token after a command; a flag before
the command path) and every ``--also`` command, as
``python -m randqnet.cli ARGS`` from each tree's root with that tree's
``src`` on ``PYTHONPATH``, one run at a time. The README lines reach paths
the benchmark does not, such as the sampled static ensemble above n = 4. The
help and usage lines show drift between the parsers of the two trees; their
layout follows ``COLUMNS``, which both trees inherit from the same
environment. Prints one line per command: the
sha256 of standard output and standard error and the exit code in each
tree, and ``same`` or ``DIFF``. A command is ``DIFF`` if anything of that
differs, or if it exits with a code the CLI does not use (0, 2, 3 and 4),
as a tree that cannot be imported would. Exits 1 if any command is ``DIFF``.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys


CLI_EXIT_CODES = (0, 2, 3, 4)
COMMAND_PATHS = ("", "pc", "pc table", "pc curve", "pc mc", "pc bound", "evolve", "evolve dynamic",
                 "evolve static", "asymptote")
USAGE_ERRORS = ("", "pc", "evolve", "pc mc", "pc tabel", "pc table --bogus 1", "evolve dynamic extra",
                "asymptote pc", "--bogus pc table")
PARSER_COMMANDS = [[*path.split(), "--help"] for path in COMMAND_PATHS] + [text.split() for text in USAGE_ERRORS]


def run(tree: str, argv: list[str]) -> tuple[str, str, int]:
    """sha256 of the standard output and of the standard error, and the exit code, of one command in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.run([sys.executable, "-m", "randqnet.cli", *argv], cwd=tree, env=env,
                          capture_output=True)
    return hashlib.sha256(proc.stdout).hexdigest(), hashlib.sha256(proc.stderr).hexdigest(), proc.returncode


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=7, help="workload seed (the Monte Carlo --seed)")
    ap.add_argument("--also", action="append", default=[], help="one more command, quoted")
    args = ap.parse_args()
    # absolute, as each run's cwd is its tree and a relative src path would not resolve from there
    trees = os.path.abspath(args.parent), os.path.abspath(args.change)
    sys.path.insert(0, os.path.join(trees[1], "perfbench"))
    import workloads

    commands = [list(cmd.argv) for name in workloads.WORKLOADS for cmd in workloads.commands(name, args.seed)]
    with open(os.path.join(trees[1], "README.md"), encoding="utf-8") as fh:
        readme = [shlex.split(line, comments=True) for line in fh if line.startswith("randqnet ")]
    commands += [argv[1:] for argv in readme if "--out" not in argv]
    commands += PARSER_COMMANDS
    commands += [shlex.split(text) for text in args.also]
    differ = 0
    for argv in commands:
        par, chg = (run(tree, argv) for tree in trees)
        same = par == chg and par[2] in CLI_EXIT_CODES
        differ += not same
        print(f"{'same' if same else 'DIFF'}  {par[0][:12]} {par[1][:8]} {par[2]}  "
              f"{chg[0][:12]} {chg[1][:8]} {chg[2]}  {shlex.join(argv)}", flush=True)
    print(f"{len(commands) - differ} of {len(commands)} commands same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
