"""End-to-end verification: both entropy computations on both sides.

A *bridge report* takes one dynamical instance, runs the topological
computation (cotrajectory indices) and the algebraic computation on the
dual (trajectory indices of the adjoint), compares them step by step,
and attaches the entropy estimates.  Everything exact stays exact: the
verdict says "mismatch" only when two integers that duality says are
equal came out different, and the report then carries a reproducible
counterexample payload: the first failing step, both indices and both
chain terms.

The finite, shift and qp kinds differ only in the two sides, each some
maps and one subgroup, that they hand to the driver
:func:`entbridge.fingroup.two_chains`: finite gives the powers f^k with U
and the powers g^k with perp U, g the adjoint of f; shift gives the maps
that keep the coordinates (x_t, ..., x_{t+j}) of the working level with
the trivial subgroup and their adjoints with the full group
(:func:`entbridge.tdlca.shift_pairs`); qp gives p^(N-ke) B^k from the
matrix with the trivial subgroup of G = (Z/p^N)^d, and p^(N-ke) B'^k
from its transpose with G
(:func:`entbridge.padic.cotrajectory_pairs`, :func:`~entbridge.padic.trajectory_pairs`).
The two sides are separate computations; neither is derived from the
other.  Every exact report names them ``primal`` (cotrajectory indices
a_n) and ``dual`` (trajectory indices b_n of the adjoint); the qp report
also checks each side against the closed form of the Newton polygon.

The module also packages the individual duality laws as checkable
units (LawCheck): the two chain laws read the driver's finite chains,
each distinct term once, and the quotient law wraps
:func:`entbridge.duality.check_quotient_duality`.  Seeded random
generators for groups, endomorphisms, subgroups and instances make
large randomized suites one loop away.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import padic
from .duality import annihilator, check_quotient_duality, dual_hom
from .entropyseq import EntropyEstimate, estimate_entropy
from .exactlinalg import InputError, IntMatrix
from .fingroup import (
    FinAbGroup,
    GroupHom,
    SubgroupLattice,
    image,
    index,
    powers,
    preimage,
    subgroup_from_generators,
    two_chains,
)
from .realspace import BoundaryEigenvalueWarning, algebraic_entropy, topological_entropy
from .tdlca import shift_pairs

__all__ = [
    "LawCheck",
    "check_preimage_annihilator",
    "check_chain_laws",
    "check_sum_intersection",
    "check_double_annihilator",
    "check_invariance_transport",
    "check_all_laws",
    "finite_bridge",
    "shift_bridge",
    "qp_bridge",
    "real_bridge",
    "verify_instance",
    "random_finite_group",
    "random_endomorphism",
    "random_subgroup",
    "random_finite_instance",
    "random_shift_instance",
    "random_qp_instance",
    "random_real_instance",
    "random_instance",
]


def _rows(m: IntMatrix) -> list[list[int]]:
    return [list(r) for r in m.entries]


def _subgroup_payload(u: SubgroupLattice) -> dict:
    return {"moduli": list(u.ambient.moduli), "basis": _rows(u.basis.matrix)}


def _hom_payload(f: GroupHom) -> dict:
    return {
        "domain_moduli": list(f.domain.moduli),
        "codomain_moduli": list(f.codomain.moduli),
        "matrix": _rows(f.matrix),
    }


def _estimate_payload(e: EntropyEstimate) -> dict:
    return {"ratio": e.ratio, "value": e.value, "exact": e.exact}


@dataclass(frozen=True)
class LawCheck:
    """Outcome of testing one duality law on one instance."""

    law: str
    passed: bool
    payload: Optional[dict]


def _law(law: str, passed: bool, payload: dict) -> LawCheck:
    return LawCheck(law, passed, None if passed else payload)


def check_preimage_annihilator(f: GroupHom, u: SubgroupLattice, steps: int) -> LawCheck:
    """perp(f^-t U) == (adjoint f)^t (perp U) for t = 1..steps."""
    fhat = dual_hom(f)
    pulled = u
    pushed = annihilator(u)
    for t in range(1, steps + 1):
        pulled = preimage(f, pulled)
        pushed = image(fhat, pushed)
        if annihilator(pulled) != pushed:
            return _law(
                "annihilator-of-preimage-is-image-of-annihilator",
                False,
                {
                    "endomorphism": _hom_payload(f),
                    "subgroup": _subgroup_payload(u),
                    "step": t,
                    "annihilator_of_preimage": _subgroup_payload(annihilator(pulled)),
                    "image_of_annihilator": _subgroup_payload(pushed),
                },
            )
    return _law("annihilator-of-preimage-is-image-of-annihilator", True, {})


def _finite_chains(f: GroupHom, u: SubgroupLattice, steps: int):
    """Both chains of (f, U) and their indices, by :func:`two_chains`: the meet
    side (f^k, k < steps; U) and the join side (g^k, k < steps; perp U), g the
    adjoint of f."""
    if u.ambient != f.domain:
        raise ValueError("need an endomorphism of the subgroup's group")
    return two_chains(
        (powers(f, steps), u), (powers(dual_hom(f), steps), annihilator(u)), steps
    )


def check_chain_laws(f: GroupHom, u: SubgroupLattice, steps: int) -> list[LawCheck]:
    """perp(C_n(f, U)) == T_n(adjoint f, perp U) and [U : C_n] == [T_n : perp U]
    for n = 1..steps, on the driver's chains.

    The indices come from the checked :func:`index`, not from the driver,
    and each step built is checked once: the driver's padded tail repeats
    the last step built, as the same objects.  A step built can keep one
    chain's term, as the same object, only while the other chain changes,
    so only both terms repeated mark the tail.  Each law reports its own
    first failing step.
    """
    (co, _), (tr, _) = _finite_chains(f, u, steps)
    instance = {"endomorphism": _hom_payload(f), "subgroup": _subgroup_payload(u)}
    perp_failure = index_failure = None
    for n, (c, t) in enumerate(zip(co, tr)):
        if n and c is co[n - 1] and t is tr[n - 1]:
            break
        if perp_failure is None:
            cperp = annihilator(c)
            if cperp != t:
                perp_failure = {
                    **instance,
                    "step": n + 1,
                    "annihilator_of_cotrajectory": _subgroup_payload(cperp),
                    "dual_trajectory": _subgroup_payload(t),
                }
        if index_failure is None:
            a, b = index(co[0], c), index(t, tr[0])
            if a != b:
                index_failure = {**instance, "step": n + 1, "primal_index": a, "dual_index": b}
    return [
        _law("cotrajectory-annihilator-is-dual-trajectory", perp_failure is None, perp_failure),
        _law("per-step-index-identity", index_failure is None, index_failure),
    ]


def check_sum_intersection(u: SubgroupLattice, v: SubgroupLattice) -> LawCheck:
    """perp(U + V) == perp U ∩ perp V, and dually with sum and intersection swapped."""
    sum_law = annihilator(u.sum(v)) == annihilator(u).intersect(annihilator(v))
    meet_law = annihilator(u.intersect(v)) == annihilator(u).sum(annihilator(v))
    return _law(
        "annihilator-exchanges-sum-and-intersection",
        sum_law and meet_law,
        {
            "first": _subgroup_payload(u),
            "second": _subgroup_payload(v),
            "sum_side_holds": sum_law,
            "intersection_side_holds": meet_law,
        },
    )


def check_double_annihilator(u: SubgroupLattice) -> LawCheck:
    """perp(perp(U)) == U back in the original group."""
    again = annihilator(annihilator(u))
    return _law(
        "double-annihilator-restores",
        again == u,
        {"subgroup": _subgroup_payload(u), "double_annihilator": _subgroup_payload(again)},
    )


def check_invariance_transport(f: GroupHom, u: SubgroupLattice) -> LawCheck:
    """U is f-invariant exactly when perp U is invariant under the adjoint."""
    primal = u.contains(image(f, u))
    uperp = annihilator(u)
    dual_side = uperp.contains(image(dual_hom(f), uperp))
    return _law(
        "invariance-transport",
        primal == dual_side,
        {
            "endomorphism": _hom_payload(f),
            "subgroup": _subgroup_payload(u),
            "primal_invariant": primal,
            "dual_invariant": dual_side,
        },
    )


def check_all_laws(
    f: GroupHom, u: SubgroupLattice, v: SubgroupLattice, steps: int
) -> list[LawCheck]:
    """All duality laws on one instance; the nested pair is (U + V, U ∩ V)."""
    outer, inner = u.sum(v), u.intersect(v)
    primal, dual_side = check_quotient_duality(outer, inner)
    return [
        check_preimage_annihilator(f, u, steps),
        *check_chain_laws(f, u, steps),
        check_sum_intersection(u, v),
        check_double_annihilator(u),
        check_invariance_transport(f, u),
        _law(
            "quotient-invariants-match",
            primal == dual_side,
            {
                "outer": _subgroup_payload(outer),
                "inner": _subgroup_payload(inner),
                "primal_invariants": list(primal),
                "dual_invariants": list(dual_side),
            },
        ),
    ]


def _two_sided_report(kind: str, chains, extra: dict, closed: Optional[tuple] = None) -> dict:
    """The report of an exact kind from the driver's ((C, a), (T, b)), plus `extra`.

    Each side's indices must obey the ratio law of :mod:`entbridge.entropyseq`
    on their own; a side that breaks it is a mismatch, and the
    counterexample names the side, the step and the indices that show
    the break.  A kind with a closed form passes `closed` = (w, payload),
    w the limit ratio it predicts and `payload` the report's
    ``closed_form``: since w divides every ratio, a side is consistent
    with it when w divides the side's last ratio, and has reached it when
    the two are equal.  An inconsistent side is a mismatch, and the
    counterexample then carries the agreement.
    """
    (co, primal), (tr, dual_side) = chains
    per_step = [a == b for a, b in zip(primal, dual_side)]
    indices = {"primal": primal, "dual": dual_side}
    sides = {side: (seq, estimate_entropy(seq)) for side, seq in indices.items()}
    counterexample: dict = {}
    if False in per_step:
        n = per_step.index(False)
        counterexample = {
            "step": n + 1,
            "primal_index": primal[n],
            "dual_index": dual_side[n],
            "cotrajectory": _subgroup_payload(co[n]),
            "dual_trajectory": _subgroup_payload(tr[n]),
        }
    broken = {
        side: {"step": est.broken_at, "indices": seq[max(0, est.broken_at - 3) : est.broken_at]}
        for side, (seq, est) in sides.items()
        if est.broken_at is not None
    }
    if broken:
        counterexample["ratio_law"] = broken
    report = {
        "kind": kind,
        "steps": len(primal),
        "indices": indices,
        "per_step_equal": per_step,
        "estimates": {side: _estimate_payload(est) for side, (_, est) in sides.items()},
        **extra,
    }
    if closed is not None:
        w, report["closed_form"] = closed
        ratios = {side: est.ratio for side, (_, est) in sides.items()}
        agreement = report["agreement"] = {
            side: {"consistent": r is not None and r % w == 0, "reached": r == w}
            for side, r in ratios.items()
        }
        if counterexample or not all(a["consistent"] for a in agreement.values()):
            counterexample["agreement"] = agreement
    report["verdict"] = "mismatch" if counterexample else "pass"
    report["counterexample"] = counterexample or None
    return report


def _check_steps(steps: int) -> None:
    """Refuse a step count below 2, which gives no entropy estimate."""
    if steps < 2:
        raise InputError("step count must be at least 2")


def finite_bridge(f: GroupHom, u: SubgroupLattice, steps: int) -> dict:
    """Cotrajectory indices of (f, U) against trajectory indices of the adjoint."""
    _check_steps(steps)
    extra = {
        "moduli": list(f.domain.moduli),
        "endomorphism": _rows(f.matrix),
        "subgroup": _rows(u.basis.matrix),
    }
    return _two_sided_report("finite", _finite_chains(f, u, steps), extra)


def shift_bridge(modulus: int, height: int, level: int, steps: int) -> dict:
    """Both index sequences for the truncated full shift at a base level,
    from the closed-form sides of :func:`~entbridge.tdlca.shift_pairs`,
    which check (level, steps) against the height before any map is built.
    """
    _check_steps(steps)
    chains = two_chains(*shift_pairs(modulus, height, level, steps), steps)
    extra = {"modulus": modulus, "height": height, "level": level}
    return _two_sided_report("shift", chains, extra)


def qp_bridge(prime: int, entries: Sequence[Sequence], steps: int) -> dict:
    """Both index sequences on Q_p^d, each checked against the closed form
    m log p of the Newton polygon."""
    _check_steps(steps)
    m = padic.rational_matrix(entries)
    # the index routes refuse an oversized working modulus cheaply, so they
    # run before char_poly: a 16 x 16 matrix of distinct 14-digit
    # denominators needs over a hundred CRT primes there
    chains = two_chains(
        padic.cotrajectory_pairs(prime, m, steps),
        padic.trajectory_pairs(prime, tuple(zip(*m)), steps),
        steps,
    )
    multiple = padic.newton_entropy(prime, padic.char_poly(m))
    closed_form = {"multiple": multiple, "prime": prime, "value": multiple * math.log(prime)}
    extra = {"prime": prime, "matrix": [[str(x) for x in row] for row in m]}
    return _two_sided_report("qp", chains, extra, (prime**multiple, closed_form))


def real_bridge(entries: Sequence[Sequence], tol: float = 1e-9) -> dict:
    """Two float routes on R^n: eigenvalues of M and of its transpose.

    A tolerance that is not a positive finite number raises InputError.
    """
    if not 0 < tol < math.inf:
        raise InputError(f"tolerance {tol!r} is not a positive finite number")
    m = padic.rational_matrix(entries)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        top = topological_entropy(m, tol)
        alg = algebraic_entropy(m, tol)
    boundary = any(issubclass(w.category, BoundaryEigenvalueWarning) for w in caught)
    difference = abs(top - alg)
    matched = difference <= tol
    return {
        "kind": "real",
        "matrix": [[str(x) for x in row] for row in m],
        "tolerance": tol,
        "topological": top,
        "algebraic": alg,
        "difference": difference,
        "boundary_warning": boundary,
        "verdict": "pass" if matched else "mismatch",
        "counterexample": None if matched else {"topological": top, "algebraic": alg},
    }


def random_finite_group(rng: random.Random, max_order: int = 4096) -> FinAbGroup:
    """Random small presented group; the order never exceeds the cap."""
    rank = rng.randint(1, 3)
    moduli = []
    budget = max_order
    for _ in range(rank):
        cap = min(16, budget)
        d = rng.randint(2, cap) if cap >= 2 else 1
        moduli.append(d)
        budget //= d
    return FinAbGroup(tuple(moduli))


def random_endomorphism(rng: random.Random, group: FinAbGroup) -> GroupHom:
    """Uniform over all endomorphisms: entry (i, j) runs over the multiples
    of d_i / gcd(d_i, d_j), which is exactly the valid residue set."""
    rows = []
    for di in group.moduli:
        row = []
        for dj in group.moduli:
            g = math.gcd(di, dj)
            row.append((di // g) * rng.randrange(g))
        rows.append(row)
    return GroupHom(group, group, IntMatrix.from_rows(rows, cols=group.rank))


def random_subgroup(rng: random.Random, group: FinAbGroup) -> SubgroupLattice:
    count = rng.randint(0, group.rank)
    gens = [[rng.randrange(d) for d in group.moduli] for _ in range(count)]
    return subgroup_from_generators(group, gens)


def random_finite_instance(rng: random.Random) -> dict:
    group = random_finite_group(rng)
    f = random_endomorphism(rng, group)
    u = random_subgroup(rng, group)
    return {
        "kind": "finite",
        "moduli": list(group.moduli),
        "endomorphism": _rows(f.matrix),
        "subgroup": u.basis.matrix.column_list(),
        "steps": 6,
    }


def random_shift_instance(rng: random.Random) -> dict:
    return {"kind": "shift", "modulus": rng.randint(2, 6), "height": 8, "level": 1, "steps": 7}


def random_qp_instance(
    rng: random.Random, prime: int = 2, dim: int = 2, steps: int = 10
) -> dict:
    """Random invertible matrix over Q with p-power denominators."""
    while True:
        entries = [
            [Fraction(rng.randint(-4, 4), prime ** rng.randint(0, 1)) for _ in range(dim)]
            for _ in range(dim)
        ]
        if padic.char_poly(tuple(tuple(r) for r in entries))[0] != 0:
            break
    return {
        "kind": "qp",
        "prime": prime,
        "matrix": [[str(x) for x in row] for row in entries],
        "steps": steps,
    }


def random_real_instance(rng: random.Random) -> dict:
    dim = rng.randint(1, 5)
    return {
        "kind": "real",
        "matrix": [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)],
        "tolerance": 1e-9,
    }


def _finite_run(instance: dict) -> dict:
    group = FinAbGroup(tuple(instance["moduli"]))
    f = GroupHom(group, group, IntMatrix.from_rows(instance["endomorphism"], cols=group.rank))
    u = subgroup_from_generators(group, instance["subgroup"])
    return finite_bridge(f, u, instance["steps"])


# kind -> (required keys, the bridge run on an instance dict, the generator);
# the keys are the instance schema's, "kind" aside.  The runs look each
# bridge up by name when called, so a wrapper set on this module sees it.
_KINDS = {
    "finite": (("moduli", "endomorphism", "subgroup", "steps"), _finite_run, random_finite_instance),
    "shift": (
        ("modulus", "height", "level", "steps"),
        lambda i: shift_bridge(i["modulus"], i["height"], i["level"], i["steps"]),
        random_shift_instance,
    ),
    "qp": (
        ("prime", "matrix", "steps"),
        lambda i: qp_bridge(i["prime"], i["matrix"], i["steps"]),
        random_qp_instance,
    ),
    "real": (
        ("matrix",),
        lambda i: real_bridge(i["matrix"], i.get("tolerance", 1e-9)),
        random_real_instance,
    ),
}


def verify_instance(instance: dict) -> dict:
    """Dispatch one parsed instance description to its bridge; a refusal raises InputError."""
    if not isinstance(instance, dict):
        raise InputError(f"an instance is a dict, not {type(instance).__name__}")
    kind = instance.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InputError(f"unknown instance kind: {kind!r}")
    required, run, _ = _KINDS[kind]
    missing = [key for key in required if key not in instance]
    if missing:
        raise InputError(f"{kind} instance lacks {missing[0]!r}")
    return run(instance)


def random_instance(rng: random.Random, kind: str) -> dict:
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValueError(f"unknown instance kind: {kind!r}")
    return _KINDS[kind][2](rng)
