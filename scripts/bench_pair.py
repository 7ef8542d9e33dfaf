"""Paired benchmark runs of a parent tree and a change tree, written as ``BENCH_<label>.json``.

    python3 scripts/bench_pair.py --parent ../parent --change . --label pc_columns \\
        --run scale:10 --run paper:5 --seed 61 --seconds 55 --claim scale:pc_table_s \\
        --change-text "what the change does"

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each tree, from that tree's root, one run at a time:
odd pairs run the parent first, even pairs the change first. The last line
of each run's output is its JSON result; the end-to-end metrics are read
from it. The record is rewritten after every pair, so an interrupted
session keeps the pairs it finished; ``--earlier`` carries the runs of an
earlier version of the change. A tree's revision is its ``git rev-parse
HEAD``, or null when it has no git metadata or uncommitted changes (then
the HEAD would not name what ran).

Per metric and workload the record holds the median and quartiles of each
side (quartiles by linear interpolation, as ``numpy.percentile``), the
number of pairs in which the change read lower and higher than the parent,
and every run.

After the pairs, the tier-1 test suite runs once in each tree, parent
first, with ``--durations=15``; the record keeps each side's wall time,
exit code, summary line and 15 slowest test phases. The record also
keeps each tree's ``src/**/*.py`` line count, and its code-line count:
the lines that are not blank, not only a comment and not in a docstring.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
import tokenize

import numpy


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``root``; its JSON result, the last line of standard output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "--durations=15"]


def tier1(root: str) -> dict:
    """One timed tier-1 run in ``root``, with its ``src`` first on ``PYTHONPATH``."""
    path = [os.path.join(os.path.abspath(root), "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    t0 = time.monotonic()
    proc = subprocess.run(TIER1, cwd=root, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    slowest = [{"s": float(m[1]), "phase": m[2], "test": m[3]}
               for m in (re.match(r"([0-9.]+)s (setup|call|teardown) +(\S+)", line) for line in lines) if m]
    return {"wall_s": round(wall, 1), "exit": proc.returncode, "summary": lines[-1] if lines else "",
            "slowest": slowest}


def src_lines(root: str) -> int:
    """Lines in the ``src/**/*.py`` files of the tree at ``root``."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def code_lines(source: str) -> int:
    """Lines of Python ``source`` that hold a token other than a comment and are not in a docstring."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                docs.update(range(first.lineno, first.end_lineno + 1))
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
              tokenize.ENCODING, tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in layout:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def src_code_lines(root: str) -> int:
    """Code lines (``code_lines``) in the ``src/**/*.py`` files of the tree at ``root``."""
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            total += code_lines(fh.read())
    return total


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return dict.fromkeys(("median", "q1", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]]) -> dict:
    """The per-workload record from the parent's and the change's run results, in pair order."""
    names = list(runs["parent"][0]["metrics"])
    metrics = {}
    for name in names:
        par = [r["metrics"][name]["value"] for r in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"]]
        metrics[name] = {
            "unit": runs["parent"][0]["metrics"][name]["unit"],
            "parent": quartiles(par),
            "change": quartiles(chg),
            "pairs_change_lower": sum(c < p for p, c in zip(par, chg)),
            "pairs_change_higher": sum(c > p for p, c in zip(par, chg)),
            "parent_runs": par,
            "change_runs": chg,
        }
    return {
        "pairs": len(runs["change"]),
        "order": "odd pairs ran the parent first, even pairs the change first",
        "correct": {side: all(r["correct"] for r in rs) for side, rs in runs.items()},
        "metrics": metrics,
    }


def git_rev(root: str) -> str | None:
    """HEAD of the git tree at ``root``; None without git metadata or with uncommitted changes."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(os.path.abspath(root))}

    def git(*cmd: str) -> subprocess.CompletedProcess:
        return subprocess.run(["git", *cmd], cwd=root, capture_output=True, text=True, env=env, timeout=10)

    try:
        rev, dirty = git("rev-parse", "HEAD"), git("status", "--porcelain")
    except (OSError, subprocess.TimeoutExpired):
        return None
    if rev.returncode or dirty.returncode or dirty.stdout.strip():
        return None
    return rev.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent tree")
    ap.add_argument("--change", required=True, help="root of the change tree")
    ap.add_argument("--label", required=True, help="the record goes to BENCH_<label>.json")
    ap.add_argument("--run", action="append", required=True, metavar="WORKLOAD:PAIRS",
                    help="a workload and its number of pairs; repeat for more workloads")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC",
                    help="the metric the change claims to lower, if any")
    ap.add_argument("--change-text", default="", help="one line on what the change does")
    ap.add_argument("--parent-rev", default=None, help="parent revision, when the tree has no git metadata")
    ap.add_argument("--earlier", nargs=2, metavar=("FILE", "NOTE"),
                    help="keep the workloads of an earlier record, with a note on how its tree differed")
    args = ap.parse_args()

    plan = []
    for item in args.run:
        workload, _, pairs = item.partition(":")
        if not pairs.isdigit() or int(pairs) < 1:
            ap.error(f"--run takes WORKLOAD:PAIRS, got {item!r}")
        plan.append((workload, int(pairs)))
    out = f"BENCH_{args.label}.json"
    roots = {"parent": args.parent, "change": args.change}

    record = {
        "label": args.label,
        "change": args.change_text,
        "parent_rev": args.parent_rev or git_rev(args.parent),
        "change_rev": git_rev(args.change),
        "claim": None,
        "command": f"python3 perfbench/run.py --workload <{'|'.join(w for w, _ in plan)}> "
                   f"--seed {args.seed} --seconds {args.seconds:g} --trace 0",
        "how": "alternating parent/change runs, each in its own tree, one at a time; each value "
               "is the median over the passes of one run (scripts/bench_pair.py)",
        "src_lines": {side: src_lines(root) for side, root in roots.items()},
        "src_code_lines": {side: src_code_lines(root) for side, root in roots.items()},
        "environment": {"nproc": os.cpu_count(), "python": platform.python_version(),
                        "numpy": numpy.__version__, "platform": platform.platform()},
        "workloads": {},
    }
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        record["claim"] = {"workload": workload, "metric": metric, "better": "lower"}
    if args.earlier:
        with open(args.earlier[0], encoding="utf-8") as fh:
            earlier = json.load(fh)
        record["earlier_runs"] = {"tree": args.earlier[1], "command": earlier["command"],
                                  "workloads": earlier["workloads"]}
    for workload, pairs in plan:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for k in range(pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            results = {}
            for side in order:
                t0 = time.monotonic()
                results[side] = run_once(roots[side], workload, args.seed, args.seconds)
                print(f"{workload} pair {k + 1}/{pairs} {side}: {time.monotonic() - t0:.0f} s, "
                      f"correct {results[side]['correct']}", file=sys.stderr, flush=True)
            for side in ("parent", "change"):
                runs[side].append(results[side])
            record["workloads"][workload] = summarize(runs)
            write(record, out)
    record["tier1"] = {"command": " ".join(["python -m pytest", *TIER1[3:]]) + ", src on PYTHONPATH"}
    for side in ("parent", "change"):
        record["tier1"][side] = tier1(roots[side])
        print(f"tier-1 {side}: {record['tier1'][side]['wall_s']} s, {record['tier1'][side]['summary']}",
              file=sys.stderr, flush=True)
        write(record, out)
    return 0


def write(record: dict, out: str) -> None:
    """Replace ``out`` with the record, through a temporary file."""
    tmp = out + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    os.replace(tmp, out)


if __name__ == "__main__":
    sys.exit(main())
