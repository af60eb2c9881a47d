"""Metamorphic relations: the same pipeline on two related instances.

A fault that every route of one instance shares is invisible to the
comparison of its routes; it shows when related instances disagree.
Direct sums split both chains: for f + f' on G + G' with U + U' (finite),
or A + A' over one prime (qp), every term is the direct sum of the parts'
terms, so both index sequences of the sum are the products of the parts'
sequences, step by step, and the characteristic polynomial is the
product of the parts', so the Newton multiple is the sum of theirs.  The
block instances are built here, from the parts' instance dictionaries.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from entbridge.bridge import random_finite_instance, random_qp_instance, verify_instance

STEPS = 6
# seeds for the package's own instance generators, which draw valid maps
seeded = st.integers(0, 2**32).map(random.Random)


def block(a, b, zero):
    """The block-diagonal matrix of the row lists a and b, `zero` off the blocks."""
    k, l = len(a[0]), len(b[0])
    return [list(row) + [zero] * l for row in a] + [[zero] * k + list(row) for row in b]


def finite_sum(a, b):
    k, l = len(a["moduli"]), len(b["moduli"])
    return {
        "kind": "finite",
        "moduli": a["moduli"] + b["moduli"],
        "endomorphism": block(a["endomorphism"], b["endomorphism"], 0),
        "subgroup": [g + [0] * l for g in a["subgroup"]] + [[0] * k + g for g in b["subgroup"]],
        "steps": STEPS,
    }


def assert_indices_multiply(whole, left, right):
    assert whole["verdict"] == "pass"
    for side in ("primal", "dual"):
        parts = zip(left["indices"][side], right["indices"][side])
        assert whole["indices"][side] == [x * y for x, y in parts], side


@given(seeded, seeded)
@settings(max_examples=150, deadline=None)
def test_finite_direct_sum_multiplies_the_indices(rng_a, rng_b):
    a, b = ({**random_finite_instance(rng), "steps": STEPS} for rng in (rng_a, rng_b))
    left, right = verify_instance(a), verify_instance(b)
    assert_indices_multiply(verify_instance(finite_sum(a, b)), left, right)


@given(st.sampled_from([2, 3, 5]), st.integers(1, 3), st.integers(1, 3), seeded, seeded)
@settings(max_examples=60, deadline=None)
def test_qp_direct_sum_multiplies_the_indices_and_adds_the_multiples(prime, d_a, d_b, rng_a, rng_b):
    a = random_qp_instance(rng_a, prime, d_a, STEPS)
    b = random_qp_instance(rng_b, prime, d_b, STEPS)
    whole = {**a, "matrix": block(a["matrix"], b["matrix"], "0")}
    left, right = verify_instance(a), verify_instance(b)
    report = verify_instance(whole)
    assert_indices_multiply(report, left, right)
    multiples = [r["routes"]["newton"]["multiple"] for r in (report, left, right)]
    assert multiples[0] == multiples[1] + multiples[2]
