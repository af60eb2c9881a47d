"""Seeded instance lists for the four workloads, the operation each one
runs, and the check every result must pass.

The generators are the benchmark's own: they follow the same sampling
rules as the package's ``random_*_instance`` helpers but do not call
them, so a later change to those helpers cannot change what is measured
or invalidate the reference digests.  The package only ever receives
the generated instance dicts (or, for ``cli-batch``, JSON files).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("shift-tower", "qp-lattice", "finite-wide", "cli-batch")

# Instances per list.  One pass over a list takes about 10 s on a 2-vCPU
# Xeon VM, so a traced run (one untraced and one traced pass) takes about
# as long as a timed run of 20 s.
LIST_LENGTH = {"shift-tower": 50, "qp-lattice": 42, "finite-wide": 66, "cli-batch": 120}

SHIFT_HEIGHT = 16
SHIFT_MODULI = (2, 3, 4, 5, 6)
QP_PRIMES = (2, 3, 5)
QP_DIM = 5
QP_STEPS = 24
FINITE_RANKS = (6, 7, 8)
FINITE_BITS = (40, 90)
FINITE_GENERATORS = 2
FINITE_STEPS = 16
CLI_KINDS = ("finite", "shift", "qp", "real")


class OpFailure(Exception):
    """An operation ran but did not produce a usable report."""


# ---- instance generation ---------------------------------------------------


def _det_nonzero(rows: list[list[Fraction]]) -> bool:
    """Exact rank test by rational Gaussian elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    for c in range(n):
        piv = next((i for i in range(c, n) if a[i][c] != 0), None)
        if piv is None:
            return False
        a[c], a[piv] = a[piv], a[c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            if f:
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return True


def _residue_endomorphism(rng: random.Random, moduli: list[int]) -> list[list[int]]:
    """Entry (i, j) is a multiple of d_i / gcd(d_i, d_j): every valid residue
    is equally likely (the rule of ``bridge.random_endomorphism``)."""
    rows = []
    for di in moduli:
        row = []
        for dj in moduli:
            g = math.gcd(di, dj)
            row.append((di // g) * rng.randrange(g))
        rows.append(row)
    return rows


def _qp_matrix(rng: random.Random, prime: int, dim: int) -> list[list[str]]:
    """Invertible matrix with entries in [-4, 4] / p^{0,1} (rule of
    ``bridge.random_qp_instance``)."""
    while True:
        entries = [
            [Fraction(rng.randint(-4, 4), prime ** rng.randint(0, 1)) for _ in range(dim)]
            for _ in range(dim)
        ]
        if _det_nonzero(entries):
            return [[str(x) for x in row] for row in entries]


def _smooth_modulus(rng: random.Random) -> int:
    lo, hi = FINITE_BITS
    while True:
        m = 2 ** rng.randint(0, 60) * 3 ** rng.randint(0, 38) * 5 ** rng.randint(0, 26)
        if lo <= m.bit_length() <= hi:
            return m


def _shift_list(rng: random.Random, n: int) -> list[dict]:
    start = rng.randrange(len(SHIFT_MODULI))
    return [
        {
            "kind": "shift",
            "modulus": SHIFT_MODULI[(start + i) % len(SHIFT_MODULI)],
            "height": SHIFT_HEIGHT,
            "level": 1,
            "steps": SHIFT_HEIGHT - 1,
        }
        for i in range(n)
    ]


def _qp_list(rng: random.Random, n: int) -> list[dict]:
    start = rng.randrange(len(QP_PRIMES))
    out = []
    for i in range(n):
        p = QP_PRIMES[(start + i) % len(QP_PRIMES)]
        out.append({"kind": "qp", "prime": p, "matrix": _qp_matrix(rng, p, QP_DIM), "steps": QP_STEPS})
    return out


def _finite_list(rng: random.Random, n: int) -> list[dict]:
    # Rank cycles and the generator count is fixed because those two set
    # most of an instance's cost; drawing them freely made the mean op
    # time depend on the seed far more than on the code.
    start = rng.randrange(len(FINITE_RANKS))
    out = []
    for i in range(n):
        rank = FINITE_RANKS[(start + i) % len(FINITE_RANKS)]
        moduli = [_smooth_modulus(rng) for _ in range(rank)]
        out.append(
            {
                "kind": "finite",
                "moduli": moduli,
                "endomorphism": _residue_endomorphism(rng, moduli),
                "subgroup": [[rng.randrange(d) for d in moduli] for _ in range(FINITE_GENERATORS)],
                "steps": FINITE_STEPS,
            }
        )
    return out


def _default_instance(rng: random.Random, kind: str) -> dict:
    """One instance drawn like ``entbridge generate <kind>`` with its defaults."""
    if kind == "finite":
        moduli = []
        budget = 4096
        for _ in range(rng.randint(1, 3)):
            cap = min(16, budget)
            d = rng.randint(2, cap) if cap >= 2 else 1
            moduli.append(d)
            budget //= d
        rows = _residue_endomorphism(rng, moduli)
        count = rng.randint(0, len(moduli))
        gens = [[rng.randrange(d) for d in moduli] for _ in range(count)]
        return {"kind": "finite", "moduli": moduli, "endomorphism": rows, "subgroup": gens, "steps": 6}
    if kind == "shift":
        return {"kind": "shift", "modulus": rng.randint(2, 6), "height": 8, "level": 1, "steps": 7}
    if kind == "qp":
        return {"kind": "qp", "prime": 2, "matrix": _qp_matrix(rng, 2, 2), "steps": 10}
    dim = rng.randint(1, 5)
    return {
        "kind": "real",
        "matrix": [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)],
        "tolerance": 1e-9,
    }


def _cli_list(rng: random.Random, n: int) -> list[dict]:
    start = rng.randrange(len(CLI_KINDS))
    return [_default_instance(rng, CLI_KINDS[(start + i) % len(CLI_KINDS)]) for i in range(n)]


_GENERATORS = {
    "shift-tower": _shift_list,
    "qp-lattice": _qp_list,
    "finite-wide": _finite_list,
    "cli-batch": _cli_list,
}


def make_instances(workload: str, seed: int) -> list[dict]:
    """The instance list of a workload; identical for identical seeds."""
    rng = random.Random(f"{workload}/{seed}")
    return _GENERATORS[workload](rng, LIST_LENGTH[workload])


# ---- checking --------------------------------------------------------------


def digest(primal: list[int], dual: list[int]) -> str:
    payload = json.dumps([primal, dual], separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def check_report(instance: dict, report: dict, expected: str | None = None) -> tuple[str | None, str | None]:
    """(digest, error) for one report; error is None when the report is right.

    Real instances carry no index sequences, so they have no digest and
    are checked by verdict alone.  Shift towers at level 1 also meet the
    closed form a_n = m^(n-1), an oracle independent of the package.
    """
    if report.get("verdict") != "pass":
        return None, f"verdict {report.get('verdict')!r}"
    if instance["kind"] == "real":
        return None, None
    primal = report["indices"]["primal"]
    dual = report["indices"]["dual"]
    d = digest(primal, dual)
    if primal != dual:
        return d, "primal and dual index sequences differ"
    if len(primal) != instance["steps"]:
        return d, f"{len(primal)} indices for {instance['steps']} steps"
    if instance["kind"] == "shift" and instance["level"] == 1:
        m = instance["modulus"]
        if primal != [m**n for n in range(instance["steps"])]:
            return d, "shift indices differ from m^(n-1)"
    if expected is not None and d != expected:
        return d, f"digest {d} differs from reference {expected}"
    return d, None


def load_reference(path: Path, workload: str, seed: int) -> list[str | None] | None:
    """Reference digests for this workload and seed, or None if not recorded."""
    if not path.is_file():
        return None
    table = json.loads(path.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


# ---- the operation ---------------------------------------------------------


class Runner:
    """Runs instance k of a list through the workload's entry point.

    Library workloads call ``entbridge.bridge.verify_instance``;
    ``cli-batch`` writes every instance to a JSON file under ``workdir``
    once and then calls ``entbridge.cli.main(["verify", path])`` with
    stdout and stderr captured.  Both entry points are looked up on their
    module at every call, so a tracer that rebinds them is seen.
    """

    def __init__(self, workload: str, instances: list[dict], workdir: Path) -> None:
        self.instances = instances
        self.paths: list[str] = []
        self.workdir: Path | None = None
        if workload == "cli-batch":
            from entbridge import cli

            self._module = cli
            self.workdir = workdir
            workdir.mkdir(parents=True, exist_ok=False)
            for k, inst in enumerate(instances):
                path = workdir / f"instance-{k:03d}.json"
                path.write_text(json.dumps(inst), encoding="utf-8")
                self.paths.append(str(path))
            self.run = self._run_cli
        else:
            from entbridge import bridge

            self._module = bridge
            self.run = self._run_library

    def _run_library(self, k: int) -> dict:
        return self._module.verify_instance(self.instances[k])

    def _run_cli(self, k: int) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self._module.main(["verify", self.paths[k]])
        if code != 0:
            raise OpFailure(f"exit code {code}: {err.getvalue().strip()}")
        return json.loads(out.getvalue())

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)
