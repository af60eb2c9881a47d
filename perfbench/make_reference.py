"""Record reference digests of the index sequences for chosen seeds.

    python3 perfbench/make_reference.py --seed 0 --seed 1

Verifies every instance of every workload once for each seed and merges
the per-instance digests into ``perfbench/reference.json``.  Refuses to
record anything if a report fails its check.  Run it only when the
instance lists change: the point of the file is that a later change to
the package which alters an index sequence shows up as a failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, Runner, check_report, make_instances  # noqa: E402

REFERENCE = HERE / "reference.json"


def digests_for(workload: str, seed: int) -> list[str | None]:
    instances = make_instances(workload, seed)
    runner = Runner(workload, instances, HERE / ".work" / f"reference-{workload}-{seed}")
    try:
        out = []
        for k, inst in enumerate(instances):
            d, error = check_report(inst, runner.run(k))
            if error is not None:
                raise SystemExit(f"{workload} seed {seed} instance {k}: {error}")
            out.append(d)
        return out
    finally:
        runner.close()


def dump(table: dict) -> str:
    """JSON with one line per workload and seed."""
    blocks = []
    for workload in sorted(table):
        seeds = sorted(table[workload], key=int)
        lines = ",\n".join(f"  {json.dumps(s)}: {json.dumps(table[workload][s])}" for s in seeds)
        blocks.append(f" {json.dumps(workload)}: {{\n{lines}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, action="append", required=True)
    args = parser.parse_args(argv)
    table = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    for workload in WORKLOADS:
        for seed in args.seed:
            table.setdefault(workload, {})[str(seed)] = digests_for(workload, seed)
            print(f"{workload} seed {seed}: {len(table[workload][str(seed)])} digests", flush=True)
    REFERENCE.write_text(dump(table), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
