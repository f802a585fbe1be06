"""Self-test of the benchmark harness at toy size.

    python3 -m pytest perfbench/test_harness.py -q

Toy sizes are far too coarse for the physics, so checks fail there on
purpose: the tests assert that failures are counted rather than raised,
that every metric BENCHMARK.json names is emitted with its unit, and that
a traced run puts every wrapped function back.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run._import_program()

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _snapshot():
    """Identity of every function and method the tracer may patch."""
    import tracing
    snap = {}
    for mod in tracing._critwave_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = id(value)
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    snap[(mod.__name__, name, attr)] = id(member)
    return snap


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(name):
    doc = run.run_workload(name, seed=7, seconds=0.0, trace=False, size_name="toy")
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in doc["metrics"].values())
    assert doc["attempted"] >= 1
    assert doc["correct"] == (doc["failed"] == 0)


def test_failed_checks_are_counted_not_raised():
    # a 512-node grid under-resolves the ground state: checks must fail
    doc = run.run_workload("static", seed=7, seconds=0.0, trace=False,
                           size_name="toy")
    assert doc["failed"] >= 1
    assert not doc["correct"]
    assert len(doc["checks"]) == doc["attempted"]
    assert all("reasons" in c for c in doc["checks"] if not c["passed"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_emits_layers_and_restores_originals(name):
    before = _snapshot()
    doc = run.run_workload(name, seed=7, seconds=0.0, trace=True, size_name="toy")
    assert _snapshot() == before
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
    assert doc["harness_checks"]["originals restored"]
    assert doc["harness_checks"]["self times partition the workload span"]
    trace = json.loads((BENCH_DIR.parent / doc["trace_file"]).read_text())
    assert trace["spans"][0][1] == "workload"
    assert abs(trace["partition_gap_s"]) < 1e-6
