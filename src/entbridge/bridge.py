"""End-to-end verification: both entropy computations on both sides.

A *bridge report* takes one dynamical instance, runs the topological
computation (cotrajectory indices) and the algebraic computation on the
dual (trajectory indices of the adjoint), compares them step by step,
and attaches the entropy estimates.  Everything exact stays exact: the
verdict says "mismatch" only when two integers that duality says are
equal came out different, and the report then carries a reproducible
counterexample payload.

The finite chains are built once per report by the two builders of
:mod:`entbridge.fingroup`: C_n is the running intersection of the
preimages f^-k(U), built from the pairs (f^k, U), and T_n the running
sum of the images of perp U under the powers g^k of the adjoint, built
from the pairs (g^k, perp U), k < n; the indices are
a_n = [C_1 : C_n] and b_n = [T_n : T_1].  Neither side is derived from
the other.  Each chain stops at its own first repeated term and repeats
it up to the step count, which changes no term: for fixed (f, U),
C_(n+1) = U ∩ f^-1(C_n) and T_(n+1) = perp U + g(T_n), so
C_(n+1) = C_n gives C_(n+2) = U ∩ f^-1(C_(n+1)) = C_(n+1), and
likewise for T.  The builders are lazy, so no power and no elimination
past the repeat is computed.

The module also packages the individual duality laws as checkable
units (LawCheck): the two chain laws share one build of each chain in
:func:`check_chain_laws`, and the quotient law wraps
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
from typing import Iterator, Optional, Sequence

from . import padic
from .duality import annihilator, check_quotient_duality, dual_hom
from .entropyseq import EntropyEstimate, estimate_entropy
from .exactlinalg import IntMatrix
from .fingroup import (
    FinAbGroup,
    GroupHom,
    SubgroupLattice,
    image,
    index,
    join_chain,
    meet_chain,
    powers,
    preimage,
    subgroup_from_generators,
)
from .realspace import BoundaryEigenvalueWarning, algebraic_entropy, topological_entropy
from .tdlca import full_shift_tower, working_level

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
    return {
        "bound": {
            "index": e.bound.index,
            "steps": e.bound.steps,
            "value": e.bound.as_float(),
        },
        "status": e.status,
        "ratio": e.ratio,
        "value": e.value,
        "demoted": e.demoted,
        "window": e.window,
    }


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


def _finite_chains(
    f: GroupHom, u: SubgroupLattice, steps: int
) -> tuple[list[SubgroupLattice], list[SubgroupLattice]]:
    """([C_1, ..., C_steps], [T_1, ..., T_steps]) with C_n = U ∩ f^-1 U ∩ ... ∩ f^-(n-1) U
    and T_n = perp U + g(perp U) + ... + g^(n-1)(perp U), g the adjoint of f.
    """
    if u.ambient != f.domain:
        raise ValueError("need an endomorphism of the subgroup's group")
    co = _until_repeat(meet_chain((h, u) for h in powers(f, steps)), steps)
    uperp = annihilator(u)
    tr = _until_repeat(join_chain((h, uperp) for h in powers(dual_hom(f), steps)), steps)
    return co, tr


def _until_repeat(chain: Iterator[SubgroupLattice], steps: int) -> list[SubgroupLattice]:
    """The first `steps` terms of a chain of one fixed (f, U), built only up
    to the first term equal to the one before it and padded with that term."""
    terms: list[SubgroupLattice] = []
    for term in chain:
        if terms and term == terms[-1]:
            break
        terms.append(term)
    return terms + [terms[-1]] * (steps - len(terms))


def check_chain_laws(f: GroupHom, u: SubgroupLattice, steps: int) -> list[LawCheck]:
    """perp(C_n(f, U)) == T_n(adjoint f, perp U) and [U : C_n] == [T_n : perp U]
    for n = 1..steps, from one build of each chain.

    Each law reports its own first failing step.
    """
    co, tr = _finite_chains(f, u, steps)
    instance = {"endomorphism": _hom_payload(f), "subgroup": _subgroup_payload(u)}
    perp_failure = index_failure = None
    for n, (c, t) in enumerate(zip(co, tr), start=1):
        if perp_failure is None:
            cperp = annihilator(c)
            if cperp != t:
                perp_failure = {
                    **instance,
                    "step": n,
                    "annihilator_of_cotrajectory": _subgroup_payload(cperp),
                    "dual_trajectory": _subgroup_payload(t),
                }
        if index_failure is None:
            a, b = index(co[0], c), index(t, tr[0])
            if a != b:
                index_failure = {**instance, "step": n, "primal_index": a, "dual_index": b}
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


def _two_sided_report(
    kind: str,
    primal: Sequence[int],
    dual_side: Sequence[int],
    extra: dict,
    counterexample: Optional[dict],
) -> dict:
    per_step = [a == b for a, b in zip(primal, dual_side)]
    matched = all(per_step)
    report = {
        "kind": kind,
        "steps": len(primal),
        "indices": {"primal": list(primal), "dual": list(dual_side)},
        "per_step_equal": per_step,
        "estimates": {
            "primal": _estimate_payload(estimate_entropy(primal)),
            "dual": _estimate_payload(estimate_entropy(dual_side)),
        },
        "verdict": "pass" if matched else "mismatch",
        "counterexample": None if matched else counterexample,
    }
    report.update(extra)
    return report


def finite_bridge(f: GroupHom, u: SubgroupLattice, steps: int) -> dict:
    """Cotrajectory indices of (f, U) against trajectory indices of the adjoint."""
    co, tr = _finite_chains(f, u, steps)
    primal, dual_side, counterexample = [], [], None
    for n, (c, t) in enumerate(zip(co, tr)):
        # a padded tail repeats the last term built, as one object: index it once
        primal.append(primal[-1] if n and c is co[n - 1] else index(co[0], c))
        dual_side.append(dual_side[-1] if n and t is tr[n - 1] else index(t, tr[0]))
        if counterexample is None and primal[-1] != dual_side[-1]:
            counterexample = {
                "step": n + 1,
                "primal_index": primal[-1],
                "dual_index": dual_side[-1],
                "cotrajectory": _subgroup_payload(c),
                "dual_trajectory": _subgroup_payload(t),
            }
    extra = {
        "moduli": list(f.domain.moduli),
        "endomorphism": _rows(f.matrix),
        "subgroup": _rows(u.basis.matrix),
    }
    return _two_sided_report("finite", primal, dual_side, extra, counterexample)


def shift_bridge(modulus: int, height: int, level: int, steps: int) -> dict:
    """Both index sequences for the truncated full shift at a base level.

    (level, steps) is checked against the height before any level is
    built, and only levels 0..level+steps-1 are built: no deeper level
    enters either chain.  A height below 2 is still refused by
    :func:`~entbridge.tdlca.full_shift_tower`.
    """
    top = working_level(height, 1, level, steps)
    endo = full_shift_tower(modulus, min(height, max(top + 1, 2)))
    co, tr = endo.chains(level, steps)
    primal = [index(co[0], c) for c in co]
    dual_side = [index(t, tr[0]) for t in tr]
    extra = {"modulus": modulus, "height": height, "level": level}
    return _two_sided_report("shift", primal, dual_side, extra, extra)


def _route_agreement(est: EntropyEstimate, ratio: int) -> dict:
    """Whether an index route agrees with the closed form log(ratio), ratio = p^m:
    a stabilized ratio equals it, a certified bound log(index)/steps is at least it."""
    if est.stabilized:
        consistent = est.ratio == ratio
    else:
        consistent = est.bound.index >= ratio**est.bound.steps
    return {"mode": est.status, "consistent": consistent}


def qp_bridge(prime: int, entries: Sequence[Sequence], steps: int) -> dict:
    """Three routes on Q_p^d: cotrajectory, adjoint trajectory, closed form."""
    m = padic.rational_matrix(entries)
    # the index routes refuse an oversized working modulus cheaply, so they
    # run before char_poly: a matrix of many distinct large denominators
    # needs thousands of CRT primes there and takes seconds
    co = padic.cotrajectory_indices(prime, m, steps)
    tr = padic.trajectory_indices(prime, tuple(zip(*m)), steps)
    coeffs = padic.char_poly(m)
    if coeffs[0] == 0:
        raise ValueError("v1 requires invertible endomorphism")
    newton = padic.newton_entropy(prime, coeffs)
    est_co = estimate_entropy(co)
    est_tr = estimate_entropy(tr)
    per_step = [a == b for a, b in zip(co, tr)]
    agreement = {
        "cotrajectory": _route_agreement(est_co, prime**newton),
        "trajectory": _route_agreement(est_tr, prime**newton),
    }
    matched = (
        all(per_step)
        and agreement["cotrajectory"]["consistent"]
        and agreement["trajectory"]["consistent"]
    )
    return {
        "kind": "qp",
        "prime": prime,
        "matrix": [[str(x) for x in row] for row in m],
        "steps": steps,
        "indices": {"primal": list(co), "dual": list(tr)},
        "per_step_equal": per_step,
        "routes": {
            "cotrajectory": _estimate_payload(est_co),
            "trajectory": _estimate_payload(est_tr),
            "newton": {"multiple": newton, "prime": prime, "value": newton * math.log(prime)},
        },
        "agreement": agreement,
        "verdict": "pass" if matched else "mismatch",
        "counterexample": None
        if matched
        else {"indices": {"primal": list(co), "dual": list(tr)}, "agreement": agreement},
    }


def real_bridge(entries: Sequence[Sequence], tol: float = 1e-9) -> dict:
    """Two float routes on R^n: eigenvalues of M and of its transpose.

    A tolerance that is not a positive finite number raises ValueError.
    """
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance {tol!r} is not a positive finite number")
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


def verify_instance(instance: dict) -> dict:
    """Dispatch one parsed instance description to its bridge."""
    kind = instance.get("kind")
    if kind in ("finite", "shift", "qp") and instance["steps"] < 2:
        raise ValueError("step count must be at least 2")
    if kind == "finite":
        group = FinAbGroup(tuple(instance["moduli"]))
        f = GroupHom(group, group, IntMatrix.from_rows(instance["endomorphism"], cols=group.rank))
        u = subgroup_from_generators(group, instance["subgroup"])
        return finite_bridge(f, u, instance["steps"])
    if kind == "shift":
        return shift_bridge(
            instance["modulus"], instance["height"], instance["level"], instance["steps"]
        )
    if kind == "qp":
        return qp_bridge(instance["prime"], instance["matrix"], instance["steps"])
    if kind == "real":
        return real_bridge(instance["matrix"], instance.get("tolerance", 1e-9))
    raise ValueError(f"unknown instance kind: {kind!r}")


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


def random_instance(rng: random.Random, kind: str) -> dict:
    if kind == "finite":
        return random_finite_instance(rng)
    if kind == "shift":
        return random_shift_instance(rng)
    if kind == "qp":
        return random_qp_instance(rng)
    if kind == "real":
        return random_real_instance(rng)
    raise ValueError(f"unknown instance kind: {kind!r}")
