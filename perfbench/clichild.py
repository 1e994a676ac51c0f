"""Run one uavwpt CLI invocation with span tracing.

Usage: python3 perfbench/clichild.py <trace.json> <uavwpt arguments...>

Behaves like the ``uavwpt`` console script (same stdout, stderr and exit
code) and writes the folded span totals and the time spent in ``main`` to
the trace file.
"""

import json
import sys
import time

import tracer
from uavwpt import cli


def main():
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.call_id = 0
    t.install()
    start = time.perf_counter()
    code = cli.main(argv)
    run_s = time.perf_counter() - start
    t.uninstall()
    t.fold()
    sys.stdout.flush()
    with open(trace_path, "w") as fh:
        json.dump({"totals": t.totals.as_dict(), "run_s": run_s}, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
