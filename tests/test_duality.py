import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import all_elements, oracle_annihilator, oracle_pairing, subgroup_elements
from test_fingroup import CHAIN_MODULI, reference_annihilator, shaped_hom
from entbridge.bridge import random_endomorphism, random_finite_group, random_subgroup
from entbridge.duality import (
    annihilator,
    check_quotient_duality,
    dual_group,
    dual_hom,
    pairing,
    quotient_invariants,
)
from entbridge.exactlinalg import IntMatrix
from entbridge.fingroup import (
    FinAbGroup,
    GroupHom,
    full_subgroup,
    subgroup_from_generators,
    trivial_subgroup,
)

SMALL_MODULI = [(2,), (6,), (4, 2), (2, 4, 2), (8, 3), (9, 3), (4, 4), (12,)]


def random_cases(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, FinAbGroup(rng.choice(SMALL_MODULI))


class TestPairing:
    def test_worked_value(self):
        g = FinAbGroup((4,))
        value = pairing(g, (1,), (1,))
        assert isinstance(value, Fraction) and value == Fraction(1, 4)
        assert pairing(g, (3,), (3,)) == Fraction(1, 4)  # 9/4 reduced mod 1
        assert pairing(g, (2,), (2,)) == 0

    def test_matches_oracle(self):
        for rng, group in random_cases(21, 40):
            x = tuple(rng.randrange(d) for d in group.moduli)
            y = tuple(rng.randrange(d) for d in group.moduli)
            assert pairing(group, x, y) == oracle_pairing(group, x, y)

    def test_bilinear(self):
        for rng, group in random_cases(22, 30):
            x = tuple(rng.randrange(d) for d in group.moduli)
            y = tuple(rng.randrange(d) for d in group.moduli)
            z = tuple(rng.randrange(d) for d in group.moduli)
            lhs = pairing(group, group.add(x, y), z)
            rhs = (pairing(group, x, z) + pairing(group, y, z)) % 1
            assert lhs == rhs

    def test_well_defined_on_representatives(self):
        g = FinAbGroup((4, 2))
        assert pairing(g, (5, 3), (1, 1)) == pairing(g, (1, 1), (1, 1))

    def test_nondegenerate(self):
        for _, group in random_cases(23, 10):
            zero = group.zero()
            for x in all_elements(group):
                if x == zero:
                    continue
                assert any(pairing(group, x, y) != 0 for y in all_elements(group))


class TestDualGroup:
    def test_involution(self):
        g = FinAbGroup((4, 2))
        assert dual_group(g) != g
        assert dual_group(dual_group(g)) == g


class TestAnnihilator:
    def test_worked_example(self):
        # oracle-derived: in Z/4 x Z/2 the perp of <(1,1)> is {(0,0), (2,1)}
        g = FinAbGroup((4, 2))
        u = subgroup_from_generators(g, [[1, 1]])
        perp = annihilator(u)
        assert perp.ambient == dual_group(g)
        assert subgroup_elements(perp) == frozenset({(0, 0), (2, 1)})
        assert perp.basis.matrix.entries == ((2, 0), (1, 2))

    def test_matches_oracle(self):
        for rng, group in random_cases(24, 60):
            u = random_subgroup(rng, group)
            got = subgroup_elements(annihilator(u))
            assert got == oracle_annihilator(group, subgroup_elements(u))

    def test_extremes(self):
        g = FinAbGroup((6, 4))
        assert annihilator(full_subgroup(g)).order == 1
        assert annihilator(trivial_subgroup(g)).order == g.order

    def test_order_product(self):
        for rng, group in random_cases(25, 40):
            u = random_subgroup(rng, group)
            assert u.order * annihilator(u).order == group.order

    def test_double_annihilator(self):
        for rng, group in random_cases(26, 40):
            u = random_subgroup(rng, group)
            assert annihilator(annihilator(u)) == u

    def test_reverses_containment(self):
        for rng, group in random_cases(27, 30):
            u = random_subgroup(rng, group)
            v = random_subgroup(rng, group)
            s = u.sum(v)
            assert s.contains(u)
            assert annihilator(u).contains(annihilator(s))


def smooth_modulus(rng, lo, hi):
    """A modulus 2^a 3^b 5^c of lo to hi bits."""
    while True:
        m = 2 ** rng.randint(0, 128) * 3 ** rng.randint(0, 80) * 5 ** rng.randint(0, 55)
        if lo <= m.bit_length() <= hi:
            return m


def wide_subgroups(seed, count):
    """Subgroups far too large to enumerate: rank 6-8, smooth moduli of 40
    to 128 bits, 0-3 generators, each scaled by a random smooth factor so
    that the subgroup is not merely cyclic in each coordinate."""
    rng = random.Random(seed)
    for _ in range(count):
        group = FinAbGroup(tuple(smooth_modulus(rng, 40, 128) for _ in range(rng.randint(6, 8))))
        gens = []
        for _ in range(rng.randint(0, 3)):
            scale = 2 ** rng.randint(0, 8) * 3 ** rng.randint(0, 5)
            gens.append([scale * rng.randrange(d) for d in group.moduli])
        yield subgroup_from_generators(group, gens)


class TestAnnihilatorAtScale:
    """The perp at the benchmark's finite sizes, checked by plain integer
    products: with L = lcm(moduli) and W = diag(L / d_i), a character y
    kills x exactly when x^T W y == 0 (mod L)."""

    def test_orthogonal_and_of_complementary_order(self):
        for u in wide_subgroups(41, 30):
            g = u.ambient
            perp = annihilator(u)
            assert perp.ambient == dual_group(g)
            lcm = math.lcm(*g.moduli)
            weights = [lcm // d for d in g.moduli]
            bu, bp = u.basis.matrix.entries, perp.basis.matrix.entries
            k = g.rank
            for a in range(k):
                for b in range(k):
                    pair = sum(bu[i][a] * weights[i] * bp[i][b] for i in range(k))
                    assert pair % lcm == 0
            assert u.order * perp.order == g.order

    def test_matches_the_scaled_preimage(self):
        for u in wide_subgroups(42, 30):
            assert annihilator(u) == reference_annihilator(u)

    def test_double_annihilator(self):
        for u in wide_subgroups(43, 10):
            assert annihilator(annihilator(u)) == u


@st.composite
def homs_for_the_adjoint(draw, homogeneous):
    """A map between groups of rank 0-4 by shaped_hom: over one modulus
    (1 among them), or, unless `homogeneous`, possibly over mixed moduli."""
    if homogeneous or draw(st.booleans()):
        d = draw(CHAIN_MODULI)
        dom, cod = (FinAbGroup((d,) * draw(st.integers(0, 4))) for _ in range(2))
    else:
        dom, cod = (FinAbGroup(tuple(draw(st.lists(CHAIN_MODULI, max_size=4)))) for _ in range(2))
    return draw(shaped_hom(dom, cod))


def adjoint_by_entries(f):
    """[j][i] = M[i][j] * d_j / e_i, each entry divided out."""
    dom, cod = f.domain.moduli, f.codomain.moduli
    rows = [[f.matrix.entries[i][j] * dj // ei for i, ei in enumerate(cod)] for j, dj in enumerate(dom)]
    return IntMatrix.from_rows(rows, cols=len(cod))


class TestDualHom:
    @given(homs_for_the_adjoint(homogeneous=False))
    @settings(max_examples=200)
    def test_matches_the_per_entry_formula(self, f):
        # one modulus throughout takes the transpose; mixed moduli divide
        fhat = dual_hom(f)
        assert fhat.matrix == adjoint_by_entries(f)
        assert (fhat.domain, fhat.codomain) == (dual_group(f.codomain), dual_group(f.domain))

    @given(homs_for_the_adjoint(homogeneous=True), st.data())
    @settings(max_examples=200)
    def test_adjoint_identity_on_one_modulus(self, f, data):
        x = [data.draw(st.integers(0, d - 1)) for d in f.domain.moduli]
        y = [data.draw(st.integers(0, d - 1)) for d in f.codomain.moduli]
        fhat = dual_hom(f)
        assert pairing(f.codomain, f.apply(x), y) == pairing(f.domain, x, fhat.apply(y))

    def test_adjoint_identity(self):
        for rng, group in random_cases(28, 40):
            f = random_endomorphism(rng, group)
            fhat = dual_hom(f)
            for _ in range(10):
                x = tuple(rng.randrange(d) for d in group.moduli)
                y = tuple(rng.randrange(d) for d in group.moduli)
                assert pairing(group, f.apply(x), y) == pairing(group, x, fhat.apply(y))

    def test_identity_and_contravariance(self):
        g = FinAbGroup((4, 2))
        assert dual_hom(GroupHom.identity(g)).matrix == IntMatrix.identity(2)
        rng = random.Random(29)
        f = random_endomorphism(rng, g)
        h = random_endomorphism(rng, g)
        assert dual_hom(f.compose(h)) == dual_hom(h).compose(dual_hom(f))

    def test_double_dual_is_original(self):
        for rng, group in random_cases(30, 30):
            f = random_endomorphism(rng, group)
            again = dual_hom(dual_hom(f))
            assert again.matrix == f.matrix
            assert again.domain == f.domain

    def test_mixed_moduli_matrix(self):
        g = FinAbGroup((4, 2))
        f = GroupHom(g, g, IntMatrix.from_rows([[1, 2], [1, 1]]))
        # adjoint entry [j][i] = M[i][j] * d_j / d_i
        assert dual_hom(f).matrix.entries == ((1, 2), (1, 1))


class TestQuotientInvariants:
    def test_worked_examples(self):
        g = FinAbGroup((2, 2))
        assert quotient_invariants(full_subgroup(g), trivial_subgroup(g)) == (2, 2)
        diag = subgroup_from_generators(g, [[1, 1]])
        assert quotient_invariants(full_subgroup(g), diag) == (2,)
        g4 = FinAbGroup((4,))
        assert quotient_invariants(full_subgroup(g4), trivial_subgroup(g4)) == (4,)

    def test_order_consistency(self):
        for rng, group in random_cases(31, 40):
            u = random_subgroup(rng, group)
            v = random_subgroup(rng, group)
            outer, inner = u.sum(v), u.intersect(v)
            inv = quotient_invariants(outer, inner)
            prod = 1
            for d in inv:
                prod *= d
            assert prod == outer.order // inner.order

    def test_requires_nesting(self):
        g = FinAbGroup((4, 2))
        a = subgroup_from_generators(g, [[1, 0]])
        b = subgroup_from_generators(g, [[0, 1]])
        with pytest.raises(ValueError, match="not a subgroup pair"):
            quotient_invariants(a, b)

    def test_counts_elements_killed_by_each_divisor(self):
        # Q = outer/inner with invariant factors d_i has prod gcd(n, d_i)
        # elements killed by n, for every n; these counts fix Q up to
        # isomorphism, so a merged answer such as (4) for (2, 2) fails here
        # although it has the right product
        rng = random.Random(33)
        for _ in range(200):
            group = random_finite_group(rng, max_order=512)
            u = random_subgroup(rng, group)
            v = random_subgroup(rng, group)
            outer, inner = u.sum(v), u.intersect(v)
            inv = quotient_invariants(outer, inner)
            assert all(d > 1 for d in inv)
            assert all(b % a == 0 for a, b in zip(inv, inv[1:]))
            outer_elements = subgroup_elements(outer)
            inner_elements = subgroup_elements(inner)
            index = len(outer_elements) // len(inner_elements)
            for n in range(1, index + 1):
                if index % n:
                    continue
                killed = sum(
                    group.reduce([n * a for a in x]) in inner_elements for x in outer_elements
                )
                assert killed == len(inner_elements) * math.prod(math.gcd(n, d) for d in inv)

    def test_duality_identifies_quotients(self):
        for rng, group in random_cases(32, 60):
            u = random_subgroup(rng, group)
            v = random_subgroup(rng, group)
            primal, dual_side = check_quotient_duality(u.sum(v), u.intersect(v))
            assert primal == dual_side
