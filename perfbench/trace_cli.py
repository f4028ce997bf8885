"""Per-layer figures of one in-process pdocycles command.

    python3 perfbench/trace_cli.py verify closedness --k 2 --samples 3

Wraps the layers as a traced run does (tracer.py), runs `cli.main` on the
given arguments, and prints the command's wall time, then calls, total and
self seconds, and total as a share of wall time for every wrapped name.
Run it from the root of a checkout.  The command's own output goes to
standard error.
"""

from __future__ import annotations

import contextlib
import sys
import time

import tracer
import workloads


def main(argv: list[str]) -> int:
    pd = workloads.load_program()
    trace = tracer.Tracer()
    trace.install(pd)
    start = time.perf_counter()
    with contextlib.redirect_stdout(sys.stderr):
        code = pd.cli.main(argv)
    wall = time.perf_counter() - start
    print(f"command: {' '.join(argv)}  exit={code}  wall_s={wall:.3f}")
    print(f"{'name':40} {'calls':>10} {'total_s':>9} {'self_s':>9} {'share':>6}")
    for name, (calls, total, self_s) in sorted(trace.stats.items(),
                                               key=lambda item: -item[1][1]):
        print(f"{name:40} {calls:10d} {total:9.3f} {self_s:9.3f} {total / wall:6.1%}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
