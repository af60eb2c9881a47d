"""One benchmark process: set up a workload, then time it or trace it.

Started by ``run.py`` with the environment it prepares; prints one JSON
object on stdout.  Modes:

* ``setup``: import, generate the instance list, run one untimed
  warm-up op (always on the same instance), collect garbage, report the
  set-up time and exit;
* ``timed``: the same set-up, then a closed loop (one client, one
  thread) over the list until ``--seconds`` have passed and at least
  ``MIN_OPS`` ops are done, reporting every op's wall time and the
  calibration kernel's time before and after each op;
* ``traced``: the same set-up, then one untraced and one traced pass over
  the whole list, reporting per-layer metrics and checking that both
  passes give identical digests.

Set-up time runs from ``--spawned-at`` (the launcher's monotonic clock
just before it started this process) to the end of the warm-up.  Right
after it the process times the calibration kernel (``calibrate.py``) a
few times and reports the scale that turns the set-up time into a time
at reference host speed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
from workloads import WORKLOADS, Runner, check_report, load_reference, make_instances  # noqa: E402

REFERENCE = HERE / "reference.json"
MAX_ERRORS_SHOWN = 5
# The warm-up op is the first instance of this seed's list whatever the
# run's seed, so that set-up time does not depend on the seed.
WARMUP_SEED = 0
# Enough samples for ten of them to lie beyond the p90 tail in every run.
MIN_OPS = 100
# Kernel calls just before and just after the set-up that scale it.
SETUP_KERNELS = 10


class Outcomes:
    """Failure bookkeeping for a stream of ops over one instance list."""

    def __init__(self, instances: list[dict], expected: list[str | None] | None) -> None:
        self.instances = instances
        self.expected = expected
        self.digests: dict[int, str | None] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, k: int, report: dict | None, error: str | None) -> str | None:
        """Check one op's report; returns its digest."""
        self.attempted += 1
        d = None
        if error is None:
            want = self.expected[k] if self.expected is not None else None
            d, error = check_report(self.instances[k], report, want)
        if error is None and k in self.digests and self.digests[k] != d:
            error = f"digest {d} differs from {self.digests[k]} seen earlier in this run"
        self.digests.setdefault(k, d)
        if error is not None:
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_SHOWN:
                self.errors.append(f"instance {k}: {error}")
        return d


def load_list(workload: str, seed: int) -> tuple[list[dict], list[str | None] | None]:
    """The instance list and its reference digests (None if not recorded)."""
    instances = make_instances(workload, seed)
    expected = load_reference(REFERENCE, workload, seed)
    if expected is not None and len(expected) != len(instances):
        raise SystemExit(f"reference digests for {workload} seed {seed} do not match the instance list")
    return instances, expected


def run_op(runner: Runner, k: int) -> tuple[dict | None, str | None]:
    try:
        return runner.run(k), None
    except Exception as exc:  # any exception is a failed op, counted, not raised
        return None, f"{type(exc).__name__}: {exc}"


def timed_loop(runner: Runner, outcomes: Outcomes, seconds: float) -> dict:
    """Closed loop over the list.  The calibration kernel runs once before
    the first op and once after every op, so op k lies between kernel
    times k and k + 1."""
    latencies = []
    kernel_s = [calibrate.kernel_seconds()]
    n = len(runner.instances)
    clock = time.perf_counter
    begin = clock()
    k = 0
    while True:
        start = clock()
        report, error = run_op(runner, k % n)
        end = clock()
        latencies.append(end - start)
        kernel_s.append(calibrate.kernel_seconds())
        outcomes.record(k % n, report, error)
        k += 1
        if end - begin >= seconds and k >= MIN_OPS:
            break
    return {"latencies_s": latencies, "kernel_s": kernel_s, "wall_s": end - begin}


def traced_passes(runner: Runner, outcomes: Outcomes) -> dict:
    """One untraced and one traced pass over the list.  Both passes time
    the calibration kernel between ops, so that the tracing overhead is
    taken between op times at reference host speed, as in run.py."""
    from tracer import Tracer

    def one_pass(tracer: Tracer | None) -> tuple[float, float]:
        """(wall seconds, seconds at reference speed) summed over the ops."""
        wall = scaled = 0.0
        before = calibrate.kernel_seconds()
        for k in range(len(runner.instances)):
            start = time.perf_counter()
            with tracer.op() if tracer else contextlib.nullcontext():
                report, error = run_op(runner, k)
            op_s = time.perf_counter() - start
            after = calibrate.kernel_seconds()
            wall += op_s
            scaled += op_s * calibrate.REFERENCE_S * 2 / (before + after)
            before = after
            outcomes.record(k, report, error)
        return wall, scaled

    _, untraced_scaled = one_pass(None)
    tracer = Tracer()
    tracer.install()
    try:
        traced_wall, traced_scaled = one_pass(tracer)
    finally:
        tracer.uninstall()
    # The untraced pass's op time, had it run at the traced pass's speed.
    untraced_ns = round(untraced_scaled * traced_wall / traced_scaled * 1e9)
    return {"per_layer": tracer.metrics(untraced_ns), "missing": tracer.missing}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    kernel_s = [calibrate.kernel_seconds() for _ in range(SETUP_KERNELS)]
    warm_list, warm_expected = load_list(args.workload, WARMUP_SEED)
    instances, expected = load_list(args.workload, args.seed)
    workdir = args.workdir / f"{args.mode}-{os.getpid()}"
    warm_runner = Runner(args.workload, warm_list[:1], workdir / "warmup")
    runner = Runner(args.workload, instances, workdir / "ops")
    try:
        warmup = Outcomes(warm_list[:1], warm_expected[:1] if warm_expected else None)
        report, error = run_op(warm_runner, 0)
        warmup.record(0, report, error)
        gc.collect()
        setup_s = time.monotonic() - args.spawned_at - sum(kernel_s)
        kernel_s += [calibrate.kernel_seconds() for _ in range(SETUP_KERNELS)]
        result: dict = {"setup_s": setup_s, "setup_scale": calibrate.REFERENCE_S / statistics.median(kernel_s)}
        outcomes = Outcomes(instances, expected)
        if args.mode == "timed":
            result.update(timed_loop(runner, outcomes, args.seconds))
        elif args.mode == "traced":
            result.update(traced_passes(runner, outcomes))
    finally:
        warm_runner.close()
        runner.close()
    result.update(
        attempted=outcomes.attempted + warmup.failed,
        failed=outcomes.failed + warmup.failed,
        errors=warmup.errors + outcomes.errors,
        reference_checked=expected is not None,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
