"""Metamorphic relations: the same pipeline on two related instances.

A fault that every route of one instance shares is invisible to the
comparison of its routes; it shows when related instances disagree.
Direct sums split both chains: for f + f' on G + G' with U + U' (finite),
or A + A' over one prime (qp), every term is the direct sum of the parts'
terms, so both index sequences of the sum are the products of the parts'
sequences, step by step, and the characteristic polynomial is the
product of the parts', so the Newton multiple is the sum of theirs.  The
block instances are built here, from the parts' instance dictionaries.

Conjugation re-presents one instance: P A P^-1 with P in GL_d(Z), which
fixes Z_p^d for every p, has the index sequences and the Newton multiple
of A (qp), and an automorphism phi of G carries (f, U) to
(phi f phi^-1, phi(U)), with the same index sequences (finite).  P and
phi are products of elementary operations, and their inverses are built
here from the reversed operations, in plain list arithmetic over
``Fraction`` and the integers, not by the package.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from entbridge.bridge import random_finite_instance, random_qp_instance, verify_instance
from entbridge.fingroup import FinAbGroup, subgroup_from_generators

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
    multiples = [r["closed_form"]["multiple"] for r in (report, left, right)]
    assert multiples[0] == multiples[1] + multiples[2]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def elementary(n, i, j, c):
    """I + c e_i e_j^T: x_i += c x_j for i != j, x_i -> (1 + c) x_i for i == j."""
    m = identity(n)
    m[i][j] += c
    return m


def product_of(factors, n):
    """factors[0] @ factors[1] @ ...: the last factor acts first."""
    m = identity(n)
    for factor in factors:
        m = matmul(m, factor)
    return m


def qp_conjugator(rng, d):
    """(P, P^-1): P applies 3 operations x_i += c x_j, c in {+-1, +-2}, and
    P^-1 undoes them in reverse order."""
    ops = [(*rng.sample(range(d), 2), rng.choice([-2, -1, 1, 2])) for _ in range(3)]
    p = product_of([elementary(d, i, j, c) for i, j, c in ops], d)
    p_inv = product_of([elementary(d, i, j, -c) for i, j, c in reversed(ops)], d)
    return p, p_inv


def finite_automorphism(rng, moduli):
    """(phi, phi^-1) on Z^k / diag(moduli), both reduced row by row: phi
    applies 1-4 operations, each a unit scaling x_i -> u x_i or an
    elementary x_i += c x_j with c a multiple of d_i / gcd(d_i, d_j), the
    homomorphism certificate, and phi^-1 undoes them in reverse order."""
    k = len(moduli)
    forward, backward = [], []
    for _ in range(rng.randint(1, 4)):
        i, j = rng.randrange(k), rng.randrange(k)
        d = moduli[i]
        if i == j:
            u = rng.choice([u for u in range(1, max(d, 2)) if math.gcd(u, d) == 1])
            forward.append(elementary(k, i, i, u - 1))
            backward.append(elementary(k, i, i, pow(u, -1, d) - 1))
        else:
            c = d // math.gcd(d, moduli[j]) * rng.randrange(math.gcd(d, moduli[j]))
            forward.append(elementary(k, i, j, c))
            backward.append(elementary(k, i, j, -c))
    return reduce_rows(product_of(forward, k), moduli), reduce_rows(product_of(backward[::-1], k), moduli)


def reduce_rows(m, moduli):
    return [[x % d for x in row] for row, d in zip(m, moduli)]


def qp_report_key(report):
    return report["indices"], report["closed_form"]["multiple"]


def conjugated_qp_instance(rng, prime, d):
    """(A, P A P^-1) for a package-drawn A over Q_p^d and a P that moves it;
    A is redrawn when 20 draws of P leave it in place (a scalar A)."""
    while True:
        a = random_qp_instance(rng, prime, d, STEPS)
        m = [[Fraction(x) for x in row] for row in a["matrix"]]
        for _ in range(20):
            p, p_inv = qp_conjugator(rng, d)
            assert matmul(p, p_inv) == identity(d)
            conjugate = matmul(matmul(p, m), p_inv)
            if conjugate != m:
                return a, {**a, "matrix": [[str(x) for x in row] for row in conjugate]}


def conjugated_finite_instance(rng):
    """(instance, conjugate) for a package-drawn finite instance (f, U) and
    an automorphism phi that moves f or U: the conjugate is
    (phi f phi^-1, phi(U)).  The instance is redrawn when 20 draws of phi
    move neither, as on a cyclic group, whose automorphisms commute with f
    and fix every subgroup."""
    while True:
        a = {**random_finite_instance(rng), "steps": STEPS}
        moduli = a["moduli"]
        group = FinAbGroup(tuple(moduli))
        u = subgroup_from_generators(group, a["subgroup"])
        for _ in range(20):
            phi, phi_inv = finite_automorphism(rng, moduli)
            assert reduce_rows(matmul(phi, phi_inv), moduli) == reduce_rows(identity(len(moduli)), moduli)
            f = reduce_rows(matmul(matmul(phi, a["endomorphism"]), phi_inv), moduli)
            gens = [[sum(x * y for x, y in zip(row, g)) % d for row, d in zip(phi, moduli)] for g in a["subgroup"]]
            if f != a["endomorphism"] or subgroup_from_generators(group, gens) != u:
                return a, {**a, "endomorphism": f, "subgroup": gens}


def test_qp_conjugation_keeps_the_indices_and_the_multiple():
    rng = random.Random(35)
    for _ in range(100):
        a, conjugate = conjugated_qp_instance(rng, rng.choice([2, 3]), rng.randint(2, 4))
        report = verify_instance(conjugate)
        assert report["verdict"] == "pass"
        assert qp_report_key(report) == qp_report_key(verify_instance(a))


def test_finite_conjugation_keeps_the_indices():
    rng = random.Random(36)
    for _ in range(200):
        a, conjugate = conjugated_finite_instance(rng)
        report = verify_instance(conjugate)
        assert report["verdict"] == "pass"
        assert report["indices"] == verify_instance(a)["indices"]
