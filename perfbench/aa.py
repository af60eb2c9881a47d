"""A/A check: do two sets of runs of the same code agree within the bounds?

    python3 perfbench/aa.py                            # both sets from this checkout
    python3 perfbench/aa.py --a ../copy1 --b ../copy2 --runs 10

For run i (seed FIRST_SEED + i) and every workload of BENCHMARK.json, it
runs ``perfbench/run.py`` once in each set's directory, alternating
which set goes first.  For every end-to-end metric on every workload it
prints each set's median and quartiles (``statistics.quantiles``, n=4),
the spread (quartile distance over median) and how far the second
set's median lies from the first's, either way, as a share of the
first.  A row is ``ok`` when both spreads and that distance are within
the metric's bound, and ``steady`` when in addition both spreads are
below a third of the bound.  Exit code 0 when every row is ok and every
run was correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIRST_SEED = 1
RUN_TIMEOUT_S = 200


def run_once(directory: Path, workload: str, seed: int, seconds: int) -> tuple[bool, dict[str, float]]:
    """(correct, every end-to-end metric of the run)."""
    cmd = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, cwd=directory, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{directory} {workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["correct"], {m: v["value"] for m, v in result["metrics"].items()}


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, spread) with spread = (q3 - q1) / median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--a", type=Path, default=ROOT, help="checkout of the first set")
    parser.add_argument("--b", type=Path, default=ROOT, help="checkout of the second set")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    sets = [("A", args.a.resolve()), ("B", args.b.resolve())]
    values = {s: {w: {m["name"]: [] for m in metrics} for w in workloads} for s, _ in sets}
    all_correct = True

    for i in range(args.runs):
        seed = FIRST_SEED + i
        order = sets if i % 2 == 0 else sets[::-1]
        for w in workloads:
            for name, directory in order:
                correct, run_values = run_once(directory, w, seed, bench["run_seconds"])
                all_correct &= correct
                for m in values[name][w]:
                    values[name][w][m].append(run_values[m])
                print(f"run {i + 1}/{args.runs} seed {seed} {w} set {name}: "
                      + " ".join(f"{m}={v:.5g}" for m, v in run_values.items()),
                      flush=True)

    all_ok = all_correct
    all_steady = True
    print()
    print(f"{'workload':<12} {'metric':<16} {'set':<3} {'median':>10} {'q1':>10} {'q3':>10} "
          f"{'spread':>7} {'apart':>7} {'bound':>6}  status")
    for w in workloads:
        for m in metrics:
            (_, a), (_, b) = rows = [(s, summary(values[s][w][m["name"]])) for s, _ in sets]
            apart = abs(b[0] - a[0]) / a[0]
            bound = m["bound"]
            ok = apart <= bound and a[3] <= bound and b[3] <= bound
            steady = ok and a[3] < bound / 3 and b[3] < bound / 3
            all_ok &= ok
            all_steady &= steady
            verdict = "steady" if steady else "ok" if ok else "FAIL"
            for s, (med, q1, q3, spread) in rows:
                last = f"{apart:>7.1%} {bound:>6.0%}  {verdict}" if s == "B" else ""
                print(f"{w:<12} {m['name']:<16} {s:<3} {med:>10.5g} {q1:>10.5g} {q3:>10.5g} "
                      f"{spread:>7.1%} {last}")
    print()
    print(f"every run correct: {all_correct}; every row ok: {all_ok}; every row steady: {all_steady}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
