"""Run one randqnet CLI command in this fresh process and report what it cost.

    python3 child.py <src-dir> <trace 0|1> -- <randqnet arguments...>

The command runs through ``randqnet.cli.main(argv)`` with its standard
output and error captured in memory. One JSON object goes to standard
output: the import time of ``randqnet.cli`` (numpy included), the wall and
CPU time of ``main`` alone, this process's peak RSS, the exit code, the
captured output and, when tracing, the recorded spans.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def main() -> int:
    src, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: child.py <src-dir> <trace 0|1> -- <randqnet arguments...>")
    sys.path.insert(0, os.path.abspath(src))
    t0 = time.perf_counter()
    from randqnet import cli

    import_s = time.perf_counter() - t0
    recorder = None
    if trace == "1":
        import tracing

        recorder = tracing.Recorder()
        recorder.install()
    out, err = io.StringIO(), io.StringIO()
    c0, t0 = time.process_time(), time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    wall_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
    record = {
        "import_s": import_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "spans": recorder.spans if recorder else None,
    }
    json.dump(record, sys.__stdout__)
    return 0


if __name__ == "__main__":
    sys.exit(main())
