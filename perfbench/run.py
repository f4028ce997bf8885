"""pdocycles benchmark runner.

    python3 perfbench/run.py --workload closedness --seed 1 --seconds 25 --trace 0

Runs one workload from the root of a checkout.  Load is one closed-loop
client: the next operation starts only after the previous one returned.
Each output is checked against the benchmark's own reference outside the
timed region; a mismatching or raising operation counts as failed and the
run goes on.

With --trace 0 the loop runs until the operations have taken --seconds
and there have been at least 100 of them, and the run reports the
end-to-end metrics, with times expressed at a fixed host speed (see
`host_kernel`).  With --trace 1 it runs a fixed number of operations
twice, untraced and then with every layer wrapped (see tracer.py), and
reports the per-layer metrics of the traced pass.
Spans and per-name totals go to perfbench/out/.

Human-readable lines (every metric by name and unit, the op count, the
machine) come first; the last line of standard output is one JSON
object.  The exit status is 0 when no operation failed, 1 when some did
and 2 when there is nothing to benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 9
# A timed run goes past --seconds until it has MIN_OPS operations, so that
# op_p90_ms has at least ten samples beyond it.  MAX_STRETCH * --seconds of
# busy time is only a safety cap, so that a very slow program still ends.
MIN_OPS = 100
MAX_STRETCH = 2.0
# Time of `host_kernel` at the host speed the end-to-end times are
# expressed at.
REFERENCE_KERNEL_S = 0.001
PROBE_TIMEOUT_S = 60
MAX_FAILURE_LINES = 5

END_TO_END_UNITS = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def host_kernel() -> float:
    """Seconds a fixed piece of exact rational arithmetic takes now.

    The machine is shared, and its speed drifts by up to 1.5x within
    seconds and over minutes.  So the benchmark times this kernel right
    before and right after each timed operation and scales the operation's
    wall time by REFERENCE_KERNEL_S / (mean kernel time): that is the time
    the operation takes at the host speed where the kernel takes
    REFERENCE_KERNEL_S.  The kernel is stdlib `Fraction` arithmetic, like
    the program's scalars, so it slows down with the host as the program
    does, and no change to the program changes it.  It runs with the
    garbage collector off, so that collecting an operation's garbage is not
    charged to the host.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for _ in range(3):
        acc: dict[int, Fraction] = {}
        x = Fraction(1, 3)
        for i in range(1, 60):
            acc[i % 7] = acc.get(i % 7, 0) + Fraction(i, i + 1) * x + Fraction(1, i)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


def build(name: str, seed: int):
    pd = workloads.load_program()
    workload = workloads.WORKLOADS[name](pd)
    return pd, workload, workload.build(seed)


def measure_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to inputs ready: the
    pdocycles import plus building the inputs, at the reference host speed.
    Median of several probes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    samples = []
    for _ in range(SETUP_PROBES):
        before = host_kernel()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=PROBE_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
        samples.append(elapsed * 2 * REFERENCE_KERNEL_S / (before + host_kernel()))
    return statistics.median(samples)


class Outcome:
    """Latencies, also at the reference host speed, and correctness of a
    sequence of operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kernels: list[float] = []
        self.adjusted: list[float] = []
        self.failed = 0
        self.failures: list[str] = []

    def record(self, workload, inp):
        before = host_kernel()
        start = time.perf_counter()
        try:
            out, error = workload.run(inp), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, error = None, f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
        self.latencies.append(latency)
        kernel = (before + host_kernel()) / 2
        self.kernels.append(kernel)
        self.adjusted.append(latency * REFERENCE_KERNEL_S / kernel)
        if error is None:
            try:
                error = workload.check(inp, out)
            except Exception as exc:  # malformed output
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            if len(self.failures) < MAX_FAILURE_LINES:
                self.failures.append(error)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def timed_run(workload, inputs, seconds: float) -> Outcome:
    outcome = Outcome()
    gc.collect()
    i = 0
    while (outcome.busy_s < seconds or outcome.attempted < MIN_OPS) \
            and outcome.busy_s < MAX_STRETCH * seconds:
        outcome.record(workload, inputs[i % len(inputs)])
        i += 1
    return outcome


def end_to_end(outcome: Outcome, setup_s: float) -> dict[str, float]:
    lat = outcome.adjusted
    return {
        "ops_per_s": outcome.attempted / sum(lat),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_run(pd, workload, inputs, header: dict):
    """Untraced, then traced, passes over the same fixed operations."""
    ops = [inputs[i % len(inputs)] for i in range(workload.trace_ops)]
    untraced, traced = Outcome(), Outcome()
    gc.collect()
    for inp in ops:
        untraced.record(workload, inp)
    trace = tracer.Tracer()
    trace.install(pd)
    gc.collect()
    for op_id, inp in enumerate(ops):
        trace.op_id = op_id
        traced.record(workload, inp)
    measured = trace.metrics()
    measured["trace.overhead_ratio"] = untraced.busy_s / traced.busy_s
    trace.write(OUT / f"trace-{header['workload']}-seed{header['seed']}.json",
                dict(header, ops=len(ops), untraced_s=untraced.busy_s,
                     traced_s=traced.busy_s))
    metrics = {name: measured.get(name, 0) for name, _, _ in tracer.PER_LAYER}
    return [untraced, traced], metrics, trace.bases()


def machine() -> str:
    return (f"cores={len(os.sched_getaffinity(0))} python={platform.python_version()} "
            f"{platform.machine()}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            build(args.workload, args.seed)
            print("ready", flush=True)
            return 0
        pd, workload, inputs = build(args.workload, args.seed)
    except workloads.ProgramMissing as exc:
        print(f"nothing to benchmark: {exc}", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)

    header = {"workload": args.workload, "seed": args.seed, "machine": machine()}
    if args.trace:
        outcomes, metrics, bases = traced_run(pd, workload, inputs, header)
        units = {name: unit for name, unit, _ in tracer.PER_LAYER}
    else:
        outcomes = [timed_run(workload, inputs, args.seconds)]
        metrics, units, bases = end_to_end(outcomes[0], setup_s), END_TO_END_UNITS, {}
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    failures = [line for o in outcomes for line in o.failures]

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} {machine()}")
    print(f"ops={attempted} failed={failed} fail_ratio={failed / attempted:.6g}")
    if not args.trace:
        wall = outcomes[0]
        print(f"  wall clock: busy_s={wall.busy_s:.6g} "
              f"ops_per_s={wall.attempted / wall.busy_s:.6g} "
              f"op_p50_ms={statistics.median(wall.latencies) * 1e3:.6g} "
              f"host_kernel_ms={statistics.median(wall.kernels) * 1e3:.6g} "
              f"(reference {REFERENCE_KERNEL_S * 1e3:g})")
    for line in failures:
        print(f"  failure: {line}")
    for name, value in metrics.items():
        base = f" (base {bases[name]})" if name in bases else ""
        print(f"  {name} = {value:.6g} {units[name]}{base}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
