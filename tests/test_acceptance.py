"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (run with -s to stream them)
and asserts the same condition, so the suite doubles as a report.
"""

import math
import random
import time
import warnings

from conftest import (
    conjugate_tower_endo,
    det,
    shifted_submultiplicative,
    tower_index_sequences,
    unimodular_pair,
)
from entbridge.bridge import (
    check_all_laws,
    finite_bridge,
    qp_bridge,
    random_endomorphism,
    random_finite_group,
    random_qp_instance,
    random_subgroup,
)
from entbridge.duality import annihilator
from entbridge.entropyseq import estimate_entropy
from entbridge.exactlinalg import IntMatrix, hnf
from entbridge.padic import char_poly, newton_entropy, rational_matrix
from entbridge.realspace import (
    BoundaryEigenvalueWarning,
    algebraic_entropy,
    topological_entropy,
)
from entbridge.tdlca import full_shift_tower, padic_tower


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_finite_duality_exact():
    rng = random.Random(20260814)
    start = time.monotonic()
    failures = 0
    for _ in range(200):
        group = random_finite_group(rng, max_order=4096)
        f = random_endomorphism(rng, group)
        u = random_subgroup(rng, group)
        rep = finite_bridge(f, u, 6)
        if rep["verdict"] != "pass" or not all(rep["per_step_equal"]):
            failures += 1
    elapsed = time.monotonic() - start
    ok = failures == 0 and elapsed < 60.0
    report(1, ok, f"200 finite instances, per-step index equality, {elapsed:.1f}s")


def test_criterion_2_duality_law_suite():
    rng = random.Random(67)
    bad = []
    for _ in range(100):
        group = random_finite_group(rng, max_order=1024)
        f = random_endomorphism(rng, group)
        u = random_subgroup(rng, group)
        v = random_subgroup(rng, group)
        for check in check_all_laws(f, u, v, 4):
            if not check.passed:
                bad.append((check.law, check.payload))
    ok = not bad
    report(2, ok, f"7 duality laws on 100 instances, counterexamples: {bad or 'none'}")


def test_criterion_3_full_shift_towers():
    problems = []
    for modulus in (2, 3, 4, 6):
        start = time.monotonic()
        endo = full_shift_tower(modulus, 8)
        co, tr = tower_index_sequences(endo, 1, 7)
        elapsed = time.monotonic() - start
        expected = tuple(modulus**t for t in range(7))
        est = estimate_entropy(co)
        if co != expected or tr != expected:
            problems.append((modulus, "indices"))
        if est.ratio != modulus:
            problems.append((modulus, "ratio"))
        if elapsed >= 5.0:
            problems.append((modulus, f"{elapsed:.1f}s"))
    report(3, not problems, f"full shifts m in (2, 3, 4, 6): {problems or 'all exact'}")


def test_criterion_4_padic_routes():
    problems = []
    for prime in (2, 3):
        contracting = qp_bridge(prime, [[f"1/{prime}"]], 8)
        estimates = contracting["estimates"]
        reached = (
            contracting["agreement"]["primal"] == {"consistent": True, "reached": True}
            and contracting["agreement"]["dual"] == {"consistent": True, "reached": True}
            and estimates["primal"]["ratio"] == prime
            and estimates["dual"]["ratio"] == prime
        )
        closed = contracting["closed_form"]["multiple"] == 1
        values = (
            abs(estimates["primal"]["value"] - math.log(prime)) < 1e-12
            and abs(contracting["closed_form"]["value"] - math.log(prime)) < 1e-12
        )
        if not (contracting["verdict"] == "pass" and reached and closed and values):
            problems.append((prime, "scalar 1/p"))
        integral = qp_bridge(prime, [[prime]], 8)
        if not (
            integral["verdict"] == "pass"
            and integral["closed_form"]["multiple"] == 0
            and integral["indices"]["primal"] == [1] * 8
        ):
            problems.append((prime, "scalar p"))

    rng = random.Random(404)
    count = 0
    for prime in (2, 3):
        for dim in (2, 3):
            for _ in range(8 if dim == 2 else 7):
                count += 1
                inst = random_qp_instance(rng, prime=prime, dim=dim, steps=10)
                rep = qp_bridge(inst["prime"], inst["matrix"], inst["steps"])
                newton = newton_entropy(
                    prime, char_poly(rational_matrix(inst["matrix"]))
                )
                for side in ("primal", "dual"):
                    agreement = rep["agreement"][side]
                    reached = rep["estimates"][side]["ratio"] == prime**newton
                    if not (reached and agreement["reached"] and agreement["consistent"]):
                        problems.append((prime, dim, side))
                if rep["verdict"] != "pass":
                    problems.append((prime, dim, "verdict"))
    ok = not problems and count == 30
    report(4, ok, f"p-adic routes, scalars plus {count} random matrices: {problems or 'agree'}")


def test_criterion_5_real_duality():
    rng = random.Random(88)
    worst = 0.0
    for _ in range(100):
        dim = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryEigenvalueWarning)
            worst = max(worst, abs(topological_entropy(m) - algebraic_entropy(m)))
    hyperbolic = [[2, 0], [0, "1/2"]]
    pinned = max(
        abs(topological_entropy(hyperbolic) - math.log(2)),
        abs(algebraic_entropy(hyperbolic) - math.log(2)),
    )
    ok = worst <= 1e-9 and pinned <= 1e-12
    report(5, ok, f"100 integer matrices, max route gap {worst:.2e}, pinned {pinned:.2e}")


def test_criterion_6_representation_invariance():
    rng = random.Random(505)
    problems = 0
    cases = []
    for i in range(44):
        modulus = 2 + i % 8
        height = 5 + i % 4
        level = i % 3
        cases.append(("shift", full_shift_tower(modulus, height), level, height - level))
    for prime, dim in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]:
        entries = [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)]
        cases.append(("padic", padic_tower(prime, 3, entries), 1, 4))
    assert len(cases) == 50
    for _, endo, level, steps in cases:
        pairs = [unimodular_pair(rng, g.rank, 5) for g in endo.tower.levels]
        other = conjugate_tower_endo(endo, pairs)
        mine = tower_index_sequences(other, level, steps)
        problems += sum(a != b for a, b in zip(mine, tower_index_sequences(endo, level, steps)))
    report(6, problems == 0, f"50 towers re-presented, sequence mismatches: {problems}")


def test_criterion_7_property_suites():
    start = time.monotonic()
    rng = random.Random(909)
    problems = []

    for _ in range(100):
        group = random_finite_group(rng, max_order=512)
        f = random_endomorphism(rng, group)
        u = random_subgroup(rng, group)
        seq = finite_bridge(f, u, 6)["indices"]["primal"]
        if not shifted_submultiplicative(seq):
            problems.append(("shifted-submultiplicative", seq))

    for _ in range(100):
        # a sequence that obeys the ratio law: each ratio a random divisor
        # of the one before
        seq, ratio = [rng.randint(1, 3)], rng.randint(1, 64)
        for _ in range(rng.randint(2, 6)):
            ratio = rng.choice([d for d in range(1, ratio + 1) if ratio % d == 0])
            seq.append(seq[-1] * ratio)
        bounds = [estimate_entropy(seq[:n]).ratio for n in range(2, len(seq) + 1)]
        antitone = all(later <= earlier for earlier, later in zip(bounds, bounds[1:]))
        if not antitone or any(bounds[-1] ** n > a for n, a in enumerate(seq)):
            problems.append(("bound-antitone", seq))

    for _ in range(100):
        group = random_finite_group(rng, max_order=1024)
        u = random_subgroup(rng, group)
        if annihilator(annihilator(u)) != u:
            problems.append(("double-annihilator", group.moduli))

    for _ in range(100):
        dim = rng.randint(1, 4)
        while True:
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
            )
            if det(m) != 0:
                break
        canonical = hnf(m)
        recombined = hnf(m @ unimodular_pair(rng, dim, 8)[0])
        if recombined.matrix != canonical.matrix:
            problems.append(("hnf-canonical", m.entries))
        if hnf(canonical.matrix).matrix != canonical.matrix:
            problems.append(("hnf-idempotent", m.entries))

    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 180.0
    report(7, ok, f"4 property suites x 100 cases in {elapsed:.1f}s: {problems or 'hold'}")
