"""Traced stand-in for ``python -m torvdw.cli`` in the cli workload's traced run.

Usage: python perfbench/cli_child.py SPANS_FILE [torvdw arguments...]

Imports torvdw.cli, wraps the layer boundaries, runs ``main(argv)`` in
process and writes its spans to SPANS_FILE as JSON.  Timestamps are
``perf_counter_ns`` (CLOCK_MONOTONIC, shared by every process on the host),
so the parent can place them inside the task span it measured.
"""

import time

T_START = time.perf_counter_ns()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = tracing.Recorder()
    rec.begin_task(0)
    rec.spans[0][tracing.NAME] = "trace.child"
    t0 = time.perf_counter_ns()
    import torvdw.cli

    rec.add("import.torvdw", t0, time.perf_counter_ns(), 0)
    status = rec.install()
    try:
        rc = torvdw.cli.main(argv)
        sys.stdout.flush()
    finally:
        rec.end_task()
        rec.uninstall()
        with open(spans_path, "w") as fh:
            json.dump({"t_start": T_START, "t_end": time.perf_counter_ns(),
                       "status": status, "spans": rec.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
