"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload shift-tower --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (the package is imported from
``src/``; nothing is installed).  With ``--trace 0`` it starts
``SETUPS`` worker processes one after another: all of them set up, and
the middle one then runs the timed closed loop.  Times are reported at
reference host speed (``calibrate.py``), with the wall-clock figure
beside them.  It prints every end-to-end metric by name with its unit,
then one JSON line with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 1`` it starts one worker that makes an
untraced and a traced pass over the instance list and reports the
per-layer metrics instead.

Workers run with one BLAS thread and a fixed hash seed, so a run uses
one process and one thread at a time.  The exit code is 0 whenever a
result line is printed; a run whose outputs are wrong says so with
``"correct": false``.  Anything that stops a result from being
produced (no package source, a worker that crashed or overran the time
limit) exits non-zero without a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 9
DEADLINE_S = 170.0

UNITS = {
    "throughput_ips": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class RunError(Exception):
    """No result can be produced."""


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
    )
    return env


def run_worker(args: argparse.Namespace, mode: str, workdir: Path, deadline: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--spawned-at", repr(spawned_at),
        "--workdir", str(workdir),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError(f"{mode} worker overran the {DEADLINE_S:.0f} s limit")
    if proc.returncode != 0:
        raise RunError(f"{mode} worker exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RunError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> tuple[float, int]:
    """(p90 value, samples beyond it).  Every timed run makes at least
    worker.MIN_OPS ops, so at least ten samples lie beyond p90; the
    percentile is fixed so that every run reports the same statistic."""
    value = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return value, sum(x > value for x in latencies)


def scaled_latencies(timed: dict) -> list[float]:
    """Every op's wall time at reference host speed: scaled by
    REFERENCE_S over the mean of the kernel times just before and just
    after the op (calibrate.py)."""
    k = timed["kernel_s"]
    return [t * REFERENCE_S * 2 / (k[i] + k[i + 1]) for i, t in enumerate(timed["latencies_s"])]


def end_to_end(args: argparse.Namespace, workdir: Path, deadline: float) -> tuple[dict, dict]:
    # Half the set-ups run after the timed loop, so that a change of host
    # speed during the run shows in the median instead of deciding it.
    before = [run_worker(args, "setup", workdir, deadline) for _ in range(SETUPS // 2)]
    timed = run_worker(args, "timed", workdir, deadline)
    after = [run_worker(args, "setup", workdir, deadline) for _ in range(SETUPS - 1 - SETUPS // 2)]
    setups = before + after
    workers = before + [timed] + after
    setup_times = [r["setup_s"] * r["setup_scale"] for r in workers]
    wall = timed["latencies_s"]
    lat = scaled_latencies(timed)
    tail_value, beyond = tail(lat)
    speed = statistics.median(REFERENCE_S / s for s in timed["kernel_s"])
    metrics = {
        "throughput_ips": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    notes = {
        "throughput_ips": f"{len(lat)} ops, closed loop, 1 client; wall clock {len(wall) / sum(wall):.4g}",
        "latency_p50_ms": f"median of {len(lat)} ops; wall clock {statistics.median(wall) * 1e3:.4g}",
        "latency_tail_ms": f"p90 of {len(lat)} ops, {beyond} beyond it; wall clock {tail(wall)[0] * 1e3:.4g}",
        "setup_s": f"median of {SETUPS} set-ups: " + ", ".join(f"{s:.3f}" for s in setup_times)
        + "; wall clock " + ", ".join(f"{r['setup_s']:.3f}" for r in workers),
        "peak_rss_mb": "ru_maxrss of the timed process",
    }
    failed = sum(r["failed"] for r in setups)
    timed["failed"] += failed
    timed["attempted"] += failed
    timed["errors"] = [e for r in setups for e in r["errors"]] + timed["errors"]
    print(f"host speed: {speed:.3f} x reference (median over the timed loop); "
          "times below are at reference speed unless marked wall clock")
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {UNITS[name]} ({notes[name]})")
    return timed, {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}


def per_layer(args: argparse.Namespace, workdir: Path, deadline: float) -> tuple[dict, dict]:
    from tracer import metric_units

    traced = run_worker(args, "traced", workdir, deadline)
    units = metric_units()
    values = traced["per_layer"]
    if traced["missing"]:
        print("not found, reported as 0: " + ", ".join(traced["missing"]))
    for name in sorted(values):
        if values[name]:
            print(f"{name}: {values[name]:.6g} {units[name]}")
    return traced, {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="entbridge benchmark: one workload, one result line")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "entbridge" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'entbridge'}", file=sys.stderr)
        return 2
    workdir = HERE / ".work"
    try:
        run, metrics = (per_layer if args.trace else end_to_end)(args, workdir, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = run["attempted"], run["failed"]
    print(f"failure_rate: {failed / attempted:.6g} fraction ({failed} of {attempted} ops failed)")
    for error in run["errors"]:
        print(f"failure: {error}")
    if not run["reference_checked"]:
        print(f"no reference digests for seed {args.seed}; checked by verdict, primal == dual and repeats")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
