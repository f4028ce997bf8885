"""The benchmark's own checks: seeded inputs, repeatable traced counts,
references that agree with known values, and BENCHMARK.json in step with
the runner.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import reference
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
PD = workloads.load_program()


def plain(inputs):
    """Inputs without their callables (a cochain's rule is a fresh lambda)."""
    return [{k: v for k, v in vars(inp).items() if not callable(v)} for inp in inputs]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs(name):
    workload = workloads.WORKLOADS[name](PD)
    first, again, other = workload.build(3), workload.build(3), workload.build(4)
    assert plain(first) == plain(again)
    assert plain(first) != plain(other)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_outputs_match_reference(name):
    workload = workloads.WORKLOADS[name](PD)
    for inp in workload.build(5)[:3]:
        assert workload.check(inp, workload.run(inp)) is None


def test_check_catches_a_wrong_value():
    workload = workloads.Cocycle(PD)
    inp = workload.build(1)[0]
    code, text = workload.run(inp)
    doc = json.loads(text)
    doc["result"]["permutations"][0]["trace"] = ["7", "0"]
    assert workload.check(inp, (code, json.dumps(doc))) is not None


def test_reference_known_values():
    # README: cocycle --k 1 z^-1 z^1 -> 1, and tr(O(z^-2,z^2) O(z^-3,z^3)) = 2d.
    assert reference.shift_cocycle_rows([-1, 1])[1] == 1
    assert reference.shift_chain_trace([-2, 2, -3, 3], (0, 1, 2, 3)) == 2
    assert reference.curvature_case(-3, 3, 2) == 1
    assert reference.curvature_case(3, -3, 2) == -1
    assert reference.curvature_case(-3, 3, 0) == 0
    assert reference.case_rank(-3, 3) == 3


def traced(name: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", name, "--seed", str(seed), "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(name):
    first, second = traced(name, 2), traced(name, 2)
    assert first["correct"] and second["correct"]
    counts = [m for m in first["metrics"] if m.endswith(tracer.DETERMINISTIC_SUFFIXES)]
    assert counts
    for metric in counts:
        assert first["metrics"][metric] == second["metrics"][metric], metric


def test_benchmark_json_matches_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(tracer.PER_LAYER)


def test_refuses_a_checkout_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "symbols",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
