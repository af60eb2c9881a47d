"""Tests of the benchmark itself (not of the package).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for p in (str(BENCH), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import entbridge  # noqa: E402
import entbridge.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from entbridge.bridge import verify_instance  # noqa: E402

SMALL = [
    {"kind": "shift", "modulus": 3, "height": 5, "level": 1, "steps": 4},
    {"kind": "finite", "moduli": [12, 18], "endomorphism": [[1, 2], [3, 5]], "subgroup": [[2, 3]], "steps": 4},
    {"kind": "qp", "prime": 2, "matrix": [["1/2", "1"], ["0", "3"]], "steps": 4},
    {"kind": "real", "matrix": [[2, 1], [0, 1]], "tolerance": 1e-9},
]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_instance_lists_are_deterministic_in_the_seed(workload):
    first = workloads.make_instances(workload, 7)
    assert first == workloads.make_instances(workload, 7)
    assert len(first) == workloads.LIST_LENGTH[workload]
    if workload != "shift-tower":  # shift lists differ only in rotation
        assert first != workloads.make_instances(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_instances_pass_the_instance_schema(workload):
    import jsonschema

    schema = entbridge.cli.load_schema("instance")
    for inst in workloads.make_instances(workload, 0)[:6]:
        jsonschema.validate(inst, schema)


def _snapshot() -> dict:
    """Every name bound in every package module and package class."""
    snap = {}
    for m in tracer._package_modules():
        for key, value in vars(m).items():
            snap[(m.__name__, key)] = value
            if isinstance(value, type) and value.__module__.startswith("entbridge"):
                for attr, member in vars(value).items():
                    snap[(value.__module__, value.__qualname__, attr)] = member
    return snap


def test_tracer_restores_every_patched_name():
    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        assert t.missing == []
        during = _snapshot()
        changed = {k for k in before if during[k] is not before[k]}
        # a function imported by name elsewhere is rebound there too
        assert ("entbridge.bridge", "index") in changed
        assert ("entbridge.fingroup", "index") in changed
        assert ("entbridge", "hnf") in changed
        assert ("entbridge.exactlinalg", "IntMatrix", "__matmul__") in changed
        assert ("entbridge.cli", "jsonschema") in changed
        assert entbridge.cli.jsonschema.ValidationError is before[("entbridge.cli", "jsonschema")].ValidationError
    finally:
        t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _traced_small_ops(tmp_path: Path) -> tuple[tracer.Tracer, int]:
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(SMALL[1]), encoding="utf-8")
    t = tracer.Tracer()
    t.install()
    begin = time.perf_counter_ns()
    try:
        for inst in SMALL:
            with t.op():
                entbridge.bridge.verify_instance(inst)
        with t.op(), contextlib.redirect_stdout(io.StringIO()):
            assert entbridge.cli.main(["verify", str(path)]) == 0
    finally:
        wall = time.perf_counter_ns() - begin
        t.uninstall()
    return t, wall


def test_self_times_are_non_negative_and_fit_in_the_wall_time(tmp_path):
    t, wall = _traced_small_ops(tmp_path)
    assert t.ops == len(SMALL) + 1
    assert all(ns >= 0 for ns in t.self_ns.values())
    assert sum(t.self_ns.values()) <= t.op_ns <= wall
    m = t.metrics(untraced_op_ns=t.op_ns)
    assert set(m) == set(tracer.metric_units())
    layered = sum(m[f"{mod}.self_ms"] for mod in tracer.MODULES) + m["other.self_ms"]
    assert layered <= wall / t.ops / 1e6
    assert m["cli.schema_validate.calls"] == 2 / t.ops
    assert m["padic.self_ms"] > 0 and m["realspace.self_ms"] > 0
    assert m["exactlinalg.max_entry_bits"] > 0


def test_call_counts_repeat_exactly(tmp_path):
    first, _ = _traced_small_ops(tmp_path)
    second, _ = _traced_small_ops(tmp_path)
    assert first.calls == second.calls
    assert first.max_entry_bits == second.max_entry_bits
    assert first.hnf_cols_in == second.hnf_cols_in


def test_altered_index_sequence_counts_as_a_failure():
    instances = SMALL[:3]
    reports = [verify_instance(inst) for inst in instances]
    expected = [workloads.check_report(i, r)[0] for i, r in zip(instances, reports)]
    outcomes = worker.Outcomes(instances, expected)
    for k, report in enumerate(reports):
        outcomes.record(k, report, None)
    assert outcomes.failed == 0

    # both sides altered the same way: still equal, so only the digest catches it
    altered = json.loads(json.dumps(reports[1]))
    altered["indices"]["primal"][-1] += 1
    altered["indices"]["dual"][-1] += 1
    fresh = worker.Outcomes(instances, expected)
    fresh.record(1, altered, None)
    assert fresh.failed == 1 and "reference" in fresh.errors[0]

    one_sided = json.loads(json.dumps(reports[2]))
    one_sided["indices"]["dual"][0] += 1
    assert workloads.check_report(instances[2], one_sided)[1] is not None

    # a repeat of an instance must reproduce the digest seen first
    unchecked = worker.Outcomes(instances, None)
    unchecked.record(1, reports[1], None)
    unchecked.record(1, altered, None)
    assert unchecked.failed == 1

    # shift towers also meet the closed form without any reference
    shifted = json.loads(json.dumps(reports[0]))
    shifted["indices"]["primal"][-1] *= 3
    shifted["indices"]["dual"][-1] *= 3
    assert "m^(n-1)" in workloads.check_report(instances[0], shifted)[1]


def test_tail_is_p90_with_ten_samples_beyond_at_the_minimum_op_count():
    value, beyond = run.tail([float(i) for i in range(worker.MIN_OPS, 0, -1)])
    assert beyond >= 10
    assert value == pytest.approx(0.9 * (worker.MIN_OPS - 1) + 1)


def test_op_times_are_scaled_by_the_kernel_times_around_them():
    ref = run.REFERENCE_S
    timed = {"latencies_s": [0.1, 0.2, 0.3], "kernel_s": [ref, ref, 2 * ref, 2 * ref]}
    assert run.scaled_latencies(timed) == pytest.approx([0.1, 0.2 / 1.5, 0.15])


def test_benchmark_json_names_what_the_benchmark_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.metric_units()


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-batch", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
