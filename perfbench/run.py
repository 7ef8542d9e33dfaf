"""randqnet benchmark: checked time-to-result of each CLI command class.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the repository root. Each command of the workload runs in a fresh
child process (child.py), one at a time; the child times
``randqnet.cli.main`` alone and reports its import time and rusage. The
parent checks every printed value against the references (check.py),
outside the timed region. Whole passes over the workload repeat for
``--seconds`` (at least one), and each time metric is the median over passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes for ``--seconds`` and prints the per-layer
metrics (layers.py), including the tracing overhead. The last line of
standard output is the JSON result; the full run record, with the spans of
the last traced pass, goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
from check import Refs, check, printed_hits, within_known  # noqa: E402
from workloads import CLASSES, WORKLOADS, commands  # noqa: E402

RUN_LIMIT_S = 170.0  # every run ends well inside 180 s
RESULTS = os.path.join(HERE, "results")


def run_child(root: str, cmd, trace: bool, deadline: float) -> dict:
    argv = [sys.executable, os.path.join(HERE, "child.py"), os.path.join(root, "src"),
            "1" if trace else "0", "--", *cmd.argv]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=root, capture_output=True, text=True,
                              timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        exit_, stderr = "timeout", ""
    else:
        if proc.returncode == 0:
            return json.loads(proc.stdout)
        exit_, stderr = f"child exit {proc.returncode}", proc.stderr[-2000:]
    # The child died before reporting: charge its whole lifetime to the command.
    return {"exit": exit_, "wall_s": time.monotonic() - t0, "cpu_s": 0.0, "import_s": None,
            "maxrss_mb": 0.0, "stdout": "", "stderr": stderr, "spans": None}


def run_pass(root: str, cmds, refs: Refs, trace: bool, deadline: float) -> list:
    """Run every command once; return (command, child record, check outcome) triples."""
    out = []
    first_hits: dict[tuple, int] = {}  # MC argv without --threads -> hits of its first run
    for cmd in cmds:
        rec = run_child(root, cmd, trace, deadline)
        twin = first_hits.get(cmd.without("--threads")) if cmd.cls == "pc_mc" else None
        outcome = check(cmd, rec["exit"], rec["stdout"], refs, twin_hits=twin)
        if cmd.cls == "pc_mc" and twin is None and rec["exit"] == 0:
            hits = printed_hits(rec["stdout"])
            if hits is not None:
                first_hits[cmd.without("--threads")] = hits
        out.append((cmd, rec, outcome))
    return out


def end_to_end(passes: list) -> dict[str, float]:
    m = {}
    for c in CLASSES:
        m[f"{c}_s"] = statistics.median(
            sum(rec["wall_s"] for cmd, rec, _ in p if cmd.cls == c) for p in passes
        )
    imports = [rec["import_s"] for p in passes for _, rec, _ in p if rec["import_s"] is not None]
    m["setup_s"] = statistics.median(imports) if imports else 0.0
    m["peak_rss_mb"] = max(rec["maxrss_mb"] for p in passes for _, rec, _ in p)
    expected = sum(o.expected for p in passes for _, _, o in p)
    m["failed_ratio"] = sum(o.failed for p in passes for _, _, o in p) / expected
    return m


UNITS = {**{f"{c}_s": "s" for c in CLASSES}, "setup_s": "s", "peak_rss_mb": "MB", "failed_ratio": "1"}


def environment(root: str) -> dict:
    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                             env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)},
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        # OpenBLAS reads these in this order and otherwise uses every core.
        "blas_threads": int(next((os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                                         "OMP_NUM_THREADS") if os.environ.get(k)),
                                 os.cpu_count())),
        "platform": platform.platform(),
    }


def command_record(cmd, rec, outcome) -> dict:
    return {
        "command": cmd.label, "class": cmd.cls, "exit": rec["exit"], "wall_s": rec["wall_s"],
        "cpu_s": rec["cpu_s"], "import_s": rec["import_s"], "peak_rss_mb": rec["maxrss_mb"],
        "values": outcome.expected, "failed": outcome.failed, "known_defect_failed": outcome.known,
        "misses": outcome.examples, "stderr": rec["stderr"][-2000:] if rec["exit"] != 0 else "",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "randqnet", "cli.py")):
        print("error: run from the randqnet repository root (src/randqnet/cli.py not found)", file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    refs = Refs()
    cmds = commands(args.workload, args.seed)

    # Rounds of whole passes (an untraced one, then a traced one with --trace 1)
    # while the next round, at the mean round time so far, ends within --seconds.
    kinds = (False, True) if args.trace else (False,)
    plain, traced = [], []
    while True:
        for trace in kinds:
            (traced if trace else plain).append(run_pass(root, cmds, refs, trace, deadline))
        rounds = len(plain)
        if (time.monotonic() - start) * (rounds + 1) / rounds > min(args.seconds, RUN_LIMIT_S):
            break
    passes = plain + traced
    spans = []
    if args.trace:
        metrics = layers.metrics([[(c, r) for c, r, _ in p] for p in plain],
                                 [[(c, r) for c, r, _ in p] for p in traced])
        units = {k: u for k, (u, _) in layers.METRICS.items()}
        spans = [{"command": c.label, "spans": r["spans"]} for c, r, _ in traced[-1]]
    else:
        metrics = end_to_end(plain)
        units = UNITS

    runs = [(cmd, rec, o) for p in passes for cmd, rec, o in p]
    failed = sum(rec["exit"] != 0 for _, rec, _ in runs)
    correct = failed == 0 and all(within_known(cmd, o) for cmd, _, o in runs)
    result = {
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(root),
        "passes": [[command_record(*t) for t in p] for p in passes],
        "result": result, "spans": spans,
    }
    with open(os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for cmd, rec, o in runs:
        print(f"{rec['wall_s']:9.3f} s  {o.failed:5d}/{o.expected:<5d} missed  {cmd.label}")
    for k, v in metrics.items():
        print(f"{k:36s} {v:14.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
