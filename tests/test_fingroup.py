import math
import random
from itertools import accumulate, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_elements,
    closure,
    conjugate_tower_endo,
    oracle_cotrajectory,
    oracle_image,
    oracle_kernel,
    oracle_preimage,
    oracle_trajectory,
    subgroup_elements,
    tower_chains,
    unimodular_pair,
)
import entbridge.exactlinalg as exactlinalg
import entbridge.fingroup as fingroup
from entbridge.bridge import random_endomorphism, random_subgroup
from entbridge.duality import dual_group, dual_hom
from entbridge.exactlinalg import (
    HnfBasis,
    InputError,
    IntMatrix,
    hnf,
    kernel_basis,
    preimage_lattice,
)
from entbridge.fingroup import (
    FinAbGroup,
    GroupHom,
    SubgroupLattice,
    full_subgroup,
    image,
    index,
    is_surjective,
    join_chain,
    kernel,
    meet_chain,
    powers,
    preimage,
    subgroup_from_generators,
    trivial_subgroup,
)
from entbridge.tdlca import full_shift_tower, padic_tower

SMALL_MODULI = [(2,), (6,), (2, 2), (4, 2), (2, 4, 2), (8, 3), (9, 3), (4, 4)]


def random_hom(rng, domain, codomain):
    """Uniform over Hom(domain, codomain): entry (i, j) runs over the
    multiples of c_i / gcd(c_i, d_j)."""
    rows = [
        [(c // math.gcd(c, d)) * rng.randrange(math.gcd(c, d)) for d in domain.moduli]
        for c in codomain.moduli
    ]
    return GroupHom(domain, codomain, IntMatrix.from_rows(rows, cols=domain.rank))


def small_group(rng):
    return FinAbGroup(rng.choice(SMALL_MODULI))


def wide_group(rng):
    """A group too large to enumerate: rank 1-5, moduli 2-60."""
    return FinAbGroup(tuple(rng.randint(2, 60) for _ in range(rng.randint(1, 5))))


def random_cases(seed, count, make_group=small_group):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, make_group(rng)


# Reference lattice routes in two steps: the preimage is read off a
# saturated kernel (an echelon that tracks only the identity), then
# multiplied by the basis and put in Hermite form.  preimage_lattice does
# both in one elimination that tracks the basis; these oracles never
# track anything but the identity.


def reference_preimage(m, target):
    """HnfBasis of {y : m y in target}: the y-block of the kernel of [m | -target]."""
    negated = IntMatrix.from_rows([[-x for x in row] for row in target.matrix.entries], cols=m.rows)
    gens = kernel_basis(m.hstack(negated))
    return hnf(IntMatrix(m.cols, gens.cols, gens.entries[: m.cols]))


def reference_annihilator(subgroup):
    """The perp by the N-scaled congruences, N = lcm(moduli): each basis
    column b of the subgroup imposes sum_i (N / d_i) b_i y_i == 0 (mod N),
    and the perp is the preimage of N Z^k under those k rows."""
    g = subgroup.ambient
    n = math.lcm(*g.moduli)
    b = subgroup.basis.matrix.entries
    k = g.rank
    constraints = IntMatrix.from_rows(
        [[n // g.moduli[i] * b[i][r] for i in range(k)] for r in range(k)], cols=k
    )
    target = HnfBasis(IntMatrix.diagonal([n] * k))
    return SubgroupLattice(dual_group(g), preimage_lattice(constraints, target, IntMatrix.identity(k)))


def reference_intersect(a, b):
    """a n b = B1 {y : B1 y in B2 Z^k}, as hnf(B1 @ preimage)."""
    b1 = a.basis.matrix
    return SubgroupLattice(a.ambient, hnf(b1 @ reference_preimage(b1, b.basis).matrix))


def reference_meet_chain(maps, target):
    """C_n = hnf(B @ {y : f_n(B y) in V}), B the basis of C_(n-1)."""
    group = maps[0].domain
    basis = IntMatrix.identity(group.rank)
    chain = []
    for f in maps:
        coords = reference_preimage(f.matrix @ basis, target.basis)
        chain.append(SubgroupLattice(group, hnf(basis @ coords.matrix)))
        basis = chain[-1].basis.matrix
    return chain


# moduli near 2^90 and 2^128: powers of 2, 3 and 6, and two odd ones
BIG_MODULI = [2**90, 3**57, 2**90 - 3, 2**128, 6**49, 2**128 - 159]


def big_group(rng):
    """A group of rank 1-6 over BIG_MODULI."""
    return FinAbGroup(tuple(rng.choice(BIG_MODULI) for _ in range(rng.randint(1, 6))))


def unreduced_meet_chain(maps, target):
    """C_n = preimage_lattice(f_n.matrix @ B, V, B), the product left unreduced."""
    group = maps[0].domain
    basis = IntMatrix.identity(group.rank)
    chain = []
    for f in maps:
        chain.append(SubgroupLattice(group, preimage_lattice(f.matrix @ basis, target.basis, basis)))
        basis = chain[-1].basis.matrix
    return chain


def unreduced_join_chain(maps, source):
    """T_n = hnf(B | g_n.matrix @ S), the product left unreduced."""
    group = maps[0].codomain
    basis = group.relations.matrix
    chain = []
    for g in maps:
        chain.append(SubgroupLattice(group, hnf(basis.hstack(g.matrix @ source.basis.matrix))))
        basis = chain[-1].basis.matrix
    return chain


def random_meet_side(rng, group, other_group):
    """(maps, target): 1-5 maps out of `group` into one other group, and one
    random subgroup of that group."""
    other = other_group(rng)
    maps = [random_hom(rng, group, other) for _ in range(rng.randint(1, 5))]
    return maps, random_subgroup(rng, other)


def random_join_side(rng, group, other_group):
    """(maps, source): 1-5 maps from one other group into `group`, and one
    random subgroup of that group."""
    other = other_group(rng)
    maps = [random_hom(rng, other, group) for _ in range(rng.randint(1, 5))]
    return maps, random_subgroup(rng, other)


@st.composite
def known_answer_pairs(draw):
    """(group, meet side, join side) on a small group: an identity first map
    or none, then zero maps, identities (whose known answer holds only
    first) and ordinary maps, out of and into one other small group, which
    is the group itself when an identity is drawn; each side's one
    subgroup, whole or random, is drawn once."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    group = FinAbGroup(draw(st.sampled_from(SMALL_MODULI)))
    first_identity = draw(st.booleans())
    other = group if first_identity or draw(st.booleans()) else small_group(rng)
    meet = [GroupHom.identity(group)] if first_identity else []
    join = list(meet)
    kinds = ["zero", "ordinary"] + (["identity"] if other == group else [])
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=5)):
        if kind == "identity":
            f = g = GroupHom.identity(group)
        elif kind == "zero":
            f = GroupHom(group, other, IntMatrix.zero(other.rank, group.rank))
            g = GroupHom(other, group, IntMatrix.zero(group.rank, other.rank))
        else:
            f, g = random_hom(rng, group, other), random_hom(rng, other, group)
        meet.append(f)
        join.append(g)
    if not meet:
        meet.append(random_hom(rng, group, other))
        join.append(random_hom(rng, other, group))
    v = full_subgroup(other) if draw(st.booleans()) else random_subgroup(rng, other)
    s = full_subgroup(other) if draw(st.booleans()) else random_subgroup(rng, other)
    return group, (meet, v), (join, s)


class TestFinAbGroup:
    def test_basic(self):
        g = FinAbGroup((4, 2))
        assert g.rank == 2
        assert g.order == 8
        assert g.reduce((5, 3)) == (1, 1)
        assert g.add((3, 1), (2, 1)) == (1, 0)

    def test_invalid_moduli(self):
        with pytest.raises(InputError, match="moduli must be positive"):
            FinAbGroup((0, 2))
        with pytest.raises(TypeError):
            FinAbGroup((4.7, 2))

    def test_element_length(self):
        with pytest.raises(InputError, match="element length mismatch"):
            FinAbGroup((4, 2)).reduce((1, 1, 1))

    def test_elements_must_be_integers(self):
        with pytest.raises(TypeError):
            FinAbGroup((4, 2)).reduce((2.9, "1"))

    def test_dual_tag_distinguishes(self):
        assert FinAbGroup((2,)) != FinAbGroup((2,), dual=True)

    def test_relations_built_once(self):
        g = FinAbGroup((12, 4, 1))
        assert g.relations is g.relations
        assert g.relations == HnfBasis(IntMatrix.diagonal((12, 4, 1)))

    def test_relations_cache_outside_eq_hash_repr(self):
        cached, fresh = FinAbGroup((6, 2), dual=True), FinAbGroup((6, 2), dual=True)
        before = repr(cached)
        cached.relations
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh) == before


class TestSubgroups:
    def test_generated_matches_closure(self):
        for rng, group in random_cases(11, 60):
            gens = [
                [rng.randrange(d) for d in group.moduli]
                for _ in range(rng.randint(0, 3))
            ]
            sub = subgroup_from_generators(group, gens)
            assert subgroup_elements(sub) == closure(group, gens)
            assert sub.order == len(closure(group, gens))

    def test_sum_and_intersection_match_oracle(self):
        for rng, group in random_cases(12, 60):
            a = random_subgroup(rng, group)
            b = random_subgroup(rng, group)
            ea, eb = subgroup_elements(a), subgroup_elements(b)
            assert subgroup_elements(a.sum(b)) == closure(group, list(ea | eb))
            assert subgroup_elements(a.intersect(b)) == ea & eb

    def test_index(self):
        g = FinAbGroup((4, 2))
        u = subgroup_from_generators(g, [[2, 0], [0, 1]])
        assert index(full_subgroup(g), u) == 2
        assert index(u, trivial_subgroup(g)) == 4

    def test_index_requires_nesting(self):
        g = FinAbGroup((4, 2))
        a = subgroup_from_generators(g, [[1, 0]])
        b = subgroup_from_generators(g, [[0, 1]])
        with pytest.raises(ValueError, match="not a subgroup pair"):
            index(a, b)

    def test_index_requires_same_group(self):
        a = full_subgroup(FinAbGroup((2,)))
        b = full_subgroup(FinAbGroup((3,)))
        with pytest.raises(ValueError, match="different groups"):
            index(a, b)

    def test_basis_must_contain_relations(self):
        g = FinAbGroup((4, 4))
        with pytest.raises(ValueError, match="basis does not contain the relation lattice"):
            SubgroupLattice(g, HnfBasis(IntMatrix.from_rows([[8, 0], [0, 1]])))

    def test_relation_missed_off_the_diagonal(self):
        # every diagonal entry divides its modulus, yet (2, 0) is not in the
        # lattice spanned by (2, 1) and (0, 3)
        g = FinAbGroup((2, 3))
        basis = HnfBasis(IntMatrix.from_rows([[2, 0], [1, 3]]))
        with pytest.raises(ValueError, match="basis does not contain the relation lattice"):
            SubgroupLattice(g, basis)
        assert SubgroupLattice(FinAbGroup((6, 3)), basis).order == 3

    def test_intersect_matches_reference(self):
        for rng, group in random_cases(21, 60, wide_group):
            a = random_subgroup(rng, group)
            b = random_subgroup(rng, group)
            assert a.intersect(b) == reference_intersect(a, b)


class TestGroupHom:
    def test_certificate_rejects(self):
        g = FinAbGroup((2, 4))
        with pytest.raises(InputError, match="homomorphism"):
            GroupHom(g, g, IntMatrix.from_rows([[0, 0], [1, 0]]))

    def test_shape_must_match_the_groups(self):
        g = FinAbGroup((2, 4))
        with pytest.raises(InputError, match="matrix shape mismatch"):
            GroupHom(g, g, IntMatrix.from_rows([[1, 0]]))

    def test_certificate_matches_per_entry_rule(self):
        # the constructor accepts exactly the matrices that the per-entry
        # rule d_j x = 0 (mod d_i) accepts, over mixed moduli
        rng = random.Random(18)
        moduli = (1, 2, 3, 4, 6, 8, 9, 12, 2**70)
        verdicts = set()
        for _ in range(400):
            domain, codomain = (
                FinAbGroup(tuple(rng.choice(moduli) for _ in range(rng.randint(1, 4))))
                for _ in range(2)
            )
            rows = [[rng.randrange(-30, 30) for _ in domain.moduli] for _ in codomain.moduli]
            if rng.random() < 0.5:
                # scale each entry to a multiple of its q_ij, so about half the draws are valid
                rows = [
                    [x * (di // math.gcd(di, dj)) for x, dj in zip(row, domain.moduli)]
                    for row, di in zip(rows, codomain.moduli)
                ]
            valid = not any(
                dj * (x % di) % di
                for row, di in zip(rows, codomain.moduli)
                for x, dj in zip(row, domain.moduli)
            )
            verdicts.add(valid)
            if valid:
                GroupHom(domain, codomain, IntMatrix.from_rows(rows))
            else:
                with pytest.raises(InputError, match="does not define a homomorphism"):
                    GroupHom(domain, codomain, IntMatrix.from_rows(rows))
        assert verdicts == {True, False}

    def test_rows_normalized(self):
        g = FinAbGroup((2, 4))
        a = GroupHom(g, g, IntMatrix.from_rows([[1, 2], [2, 3]]))
        b = GroupHom(g, g, IntMatrix.from_rows([[3, 4], [6, 7]]))
        assert a == b

    def test_apply_consistent_with_enumeration(self):
        for rng, group in random_cases(13, 40):
            f = random_endomorphism(rng, group)
            for x in all_elements(group):
                y = f.apply(x)
                expected = tuple(
                    sum(f.matrix.entries[i][j] * x[j] for j in range(group.rank)) % d
                    for i, d in enumerate(group.moduli)
                )
                assert y == expected

    def test_compose(self):
        g = FinAbGroup((5, 5))
        f = GroupHom(g, g, IntMatrix.from_rows([[1, 1], [0, 1]]))
        h = GroupHom(g, g, IntMatrix.from_rows([[2, 0], [0, 3]]))
        fh = f.compose(h)
        for x in all_elements(g):
            assert fh.apply(x) == f.apply(h.apply(x))


# Moduli with divisibility chains (1 | 2 | 4 | 8, 1 | 3 | 6 | 12, 2^64 |
# 2^65) so that unit rows from a finer modulus are valid maps.
CHAIN_MODULI = st.sampled_from([1, 2, 3, 4, 6, 8, 12, 2**64, 2**65])


@st.composite
def shaped_hom(draw, domain, codomain):
    """A homomorphism domain -> codomain through the public constructor,
    each row drawn by shape: zero; a unit row e_k, valid when the row's
    modulus c divides d_k (so k may be a finer modulus); or dense, entry
    (i, j) a multiple of c / gcd(c, d_j), unreduced."""
    rows = []
    for c in codomain.moduli:
        units = [k for k, d in enumerate(domain.moduli) if d % c == 0]
        shape = draw(st.sampled_from(["zero", "unit", "dense"]))
        row = [0] * domain.rank
        if shape == "unit" and units:
            row[draw(st.sampled_from(units))] = 1
        elif shape == "dense":
            row = [c // math.gcd(c, d) * draw(st.integers(-2 * d, 2 * d)) for d in domain.moduli]
        rows.append(row)
    return GroupHom(domain, codomain, IntMatrix.from_rows(rows, cols=domain.rank))


@st.composite
def composable_homs(draw):
    """(outer, inner) with inner.codomain == outer.domain: three groups of
    rank 0-4 over CHAIN_MODULI, maps by shaped_hom."""
    a, b, c = (FinAbGroup(tuple(draw(st.lists(CHAIN_MODULI, max_size=4)))) for _ in range(3))
    return draw(shaped_hom(b, c)), draw(shaped_hom(a, b))


@st.composite
def shaped_powers(draw):
    """(f, n): an endomorphism of a group of rank 0-4 over CHAIN_MODULI, by
    shaped_hom, and a power count n of 1-6."""
    group = FinAbGroup(tuple(draw(st.lists(CHAIN_MODULI, max_size=4))))
    return draw(shaped_hom(group, group)), draw(st.integers(1, 6))


class TestComposeReducesAsItMultiplies:
    @given(composable_homs())
    @settings(max_examples=300)
    def test_matches_the_reduced_product(self, homs):
        # zero rows, unit rows copied from the same or a finer modulus,
        # modulus 1 and rank 0, against the product reduced afterwards
        outer, inner = homs
        composite = outer.compose(inner)
        expected = fingroup._mod_rows(outer.matrix @ inner.matrix, outer.codomain.moduli)
        assert composite.matrix == expected
        assert (composite.domain, composite.codomain) == (inner.domain, outer.codomain)

    def test_copied_rows_from_a_finer_modulus_are_reduced(self):
        # rows of a map into Z/4 x Z/8, copied by unit rows into Z/2 x Z/4
        finer, coarser = FinAbGroup((4, 8)), FinAbGroup((2, 4))
        inner = GroupHom(finer, finer, IntMatrix.from_rows([[3, 2], [6, 7]]))
        outer = GroupHom(finer, coarser, IntMatrix.from_rows([[1, 0], [0, 1]]))
        assert outer.compose(inner).matrix.entries == ((1, 0), (2, 3))

    def test_copied_rows_from_the_same_modulus_are_shared(self):
        g = FinAbGroup((5, 5, 5))
        inner = GroupHom(g, g, IntMatrix.from_rows([[1, 2, 3], [4, 0, 1], [2, 2, 2]]))
        outer = GroupHom(g, g, IntMatrix.from_rows([[0, 0, 1], [0, 0, 0], [1, 0, 0]]))
        rows = outer.compose(inner).matrix.entries
        assert rows == ((2, 2, 2), (0, 0, 0), (1, 2, 3))
        assert rows[0] is inner.matrix.entries[2] and rows[2] is inner.matrix.entries[0]


class TestHomLattices:
    def test_image_preimage_kernel_match_oracle(self):
        for rng, group in random_cases(14, 60):
            f = random_endomorphism(rng, group)
            u = random_subgroup(rng, group)
            ue = subgroup_elements(u)
            assert subgroup_elements(image(f, u)) == oracle_image(f, ue)
            assert subgroup_elements(preimage(f, u)) == oracle_preimage(f, ue)
            assert subgroup_elements(kernel(f)) == oracle_kernel(f)

    def test_is_surjective_matches_image_oracle(self):
        # the whole image compared with the whole codomain, and on small
        # groups the image counted element by element
        seen = set()
        for rng, group in random_cases(22, 60):
            for other in (small_group(rng), small_group(rng)):
                f = random_hom(rng, other, group)
                expected = image(f, full_subgroup(other)) == full_subgroup(group)
                assert is_surjective(f) == expected
                assert expected == (len(oracle_image(f, all_elements(other))) == group.order)
                seen.add(expected)
        for rng, group in random_cases(23, 60, wide_group):
            f = random_hom(rng, wide_group(rng), group)
            expected = image(f, full_subgroup(f.domain)) == full_subgroup(group)
            assert is_surjective(f) == expected
            seen.add(expected)
        assert seen == {True, False}

    def test_preimage_wrong_side(self):
        g = FinAbGroup((2, 2))
        h = FinAbGroup((2,))
        f = GroupHom(g, h, IntMatrix.from_rows([[1, 0]], cols=2))
        with pytest.raises(ValueError):
            preimage(f, full_subgroup(g))


def cotrajectory(f, u, steps):
    """C_steps = U ∩ f^-1 U ∩ ... ∩ f^-(steps-1) U."""
    return list(meet_chain(powers(f, steps), u))[-1]


def trajectory(f, u, steps):
    """T_steps = U + f U + ... + f^(steps-1) U."""
    return list(join_chain(powers(f, steps), u))[-1]


def two_builder_meet(maps, target):
    """Reference: the running intersection of the whole preimages f_t^-1(V)."""
    preimages = (SubgroupLattice(f.domain, reference_preimage(f.matrix, target.basis)) for f in maps)
    return list(accumulate(preimages, reference_intersect))


def two_builder_join(maps, source):
    """Reference: the running sum of the whole images g_t(S)."""
    return list(accumulate((image(g, source) for g in maps), SubgroupLattice.sum))


class TestTrajectories:
    def test_match_oracle(self):
        for rng, group in random_cases(15, 50):
            f = random_endomorphism(rng, group)
            u = random_subgroup(rng, group)
            ue = subgroup_elements(u)
            steps = rng.randint(1, 4)
            assert subgroup_elements(cotrajectory(f, u, steps)) == oracle_cotrajectory(
                f, ue, steps
            )
            assert subgroup_elements(trajectory(f, u, steps)) == oracle_trajectory(
                f, ue, steps
            )

    def test_step_count_validated(self):
        g = FinAbGroup((2, 2))
        f = GroupHom.identity(g)
        with pytest.raises(ValueError, match="at least 1"):
            powers(f, 0)
        with pytest.raises(ValueError, match="at least 1"):
            powers(f, -1)

    def test_needs_endomorphism(self):
        g = FinAbGroup((2, 2))
        h = FinAbGroup((2,))
        f = GroupHom(g, h, IntMatrix.from_rows([[1, 0]], cols=2))
        with pytest.raises(ValueError, match="endomorphism"):
            powers(f, 2)

    def test_frozen_left_shift(self):
        # left shift on (Z/2)^4 with U = {x : x_1 = 0}; oracle-derived
        g = FinAbGroup((2, 2, 2, 2))
        f = GroupHom(
            g,
            g,
            IntMatrix.from_rows(
                [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]], cols=4
            ),
        )
        u = subgroup_from_generators(g, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        got = [index(u, cotrajectory(f, u, n)) for n in range(1, 6)]
        assert got == [1, 2, 4, 8, 8]

    def test_powers(self):
        for rng, group in random_cases(18, 30):
            f = random_endomorphism(rng, group)
            n = rng.randint(1, 5)
            fs = list(powers(f, n))
            assert len(fs) == n and fs[0] == GroupHom.identity(group)
            for k, h in enumerate(fs):
                for x in all_elements(group):
                    y = x
                    for _ in range(k):
                        y = f.apply(y)
                    assert h.apply(x) == y

    @given(shaped_powers())
    @settings(max_examples=300)
    def test_powers_match_plain_products(self, case):
        # map k is the k-fold plain product of f, reduced afterwards: mixed
        # moduli, modulus 1, rank 0, zero, unit and dense rows
        f, n = case
        maps = list(powers(f, n))
        assert len(maps) == n
        product = IntMatrix.identity(f.domain.rank)
        for h in maps:
            assert h.matrix == fingroup._mod_rows(product, f.domain.moduli)
            assert h.domain == h.codomain == f.domain
            product = product @ f.matrix

    @pytest.mark.parametrize("moduli", [(), (1, 1)], ids=["rank-0", "modulus-1"])
    def test_powers_of_trivial_groups(self, moduli):
        g = FinAbGroup(moduli)
        f = GroupHom(g, g, IntMatrix.from_rows([[1, 2], [3, 4]][: len(moduli)], cols=len(moduli)))
        assert list(powers(f, 5)) == [GroupHom.identity(g)] * 5

    def test_powers_are_multiplied_only_when_read(self, monkeypatch):
        # reading the first k of n maps costs max(0, k - 2) products, each by
        # the fixed factor f, and nothing past the n-th map is multiplied
        rng = random.Random(8)
        g = FinAbGroup((8, 12, 2**64))
        f = random_endomorphism(rng, g)
        right = []
        real_rows = exactlinalg._rows

        def rows(a, b, moduli, reduced, packing):
            right.append(b)
            return real_rows(a, b, moduli, reduced, packing)

        monkeypatch.setattr(exactlinalg, "_rows", rows)
        for k in range(7):
            right.clear()
            maps = powers(f, 6)
            assert len(list(islice(maps, k))) == k
            assert len(right) == max(0, k - 2)
            assert all(b is f.matrix for b in right)
        assert next(maps, None) is None and len(right) == 4


class TestChainBuilders:
    def test_kernel_chain_matches_enumeration(self):
        for rng, group in random_cases(16, 40):
            target = FinAbGroup(rng.choice(SMALL_MODULI))
            maps = [random_hom(rng, group, target) for _ in range(rng.randint(1, 4))]
            chain = list(meet_chain(maps, trivial_subgroup(target)))
            assert len(chain) == len(maps)
            for t, sub in enumerate(chain):
                expected = {
                    x
                    for x in all_elements(group)
                    if all(m.apply(x) == target.zero() for m in maps[: t + 1])
                }
                assert subgroup_elements(sub) == expected

    def test_image_chain_matches_enumeration(self):
        for rng, group in random_cases(17, 40):
            source = FinAbGroup(rng.choice(SMALL_MODULI))
            maps = [random_hom(rng, source, group) for _ in range(rng.randint(1, 4))]
            chain = list(join_chain(maps, full_subgroup(source)))
            assert len(chain) == len(maps)
            for t, sub in enumerate(chain):
                images = [m.apply(x) for m in maps[: t + 1] for x in all_elements(source)]
                assert subgroup_elements(sub) == closure(group, images)

    def test_running_meet_and_join_match_enumeration(self):
        # varying endomorphisms, not the powers of one, with one subgroup U:
        # C_n = f_1^-1(U) n ... n f_n^-1(U) and T_n = f_1(U) + ... + f_n(U)
        for rng, group in random_cases(19, 40):
            maps = [random_endomorphism(rng, group) for _ in range(rng.randint(1, 4))]
            u = random_subgroup(rng, group)
            elements = subgroup_elements(u)
            meets, joins = list(meet_chain(maps, u)), list(join_chain(maps, u))
            assert len(meets) == len(joins) == len(maps)
            members, images = frozenset(all_elements(group)), []
            for f, meet, join in zip(maps, meets, joins):
                members &= oracle_preimage(f, elements)
                images += oracle_image(f, elements)
                assert subgroup_elements(meet) == members
                assert subgroup_elements(join) == closure(group, images)

    def test_meet_chain_matches_reference(self):
        for rng, group in random_cases(24, 60, wide_group):
            maps, target = random_meet_side(rng, group, wide_group)
            assert list(meet_chain(maps, target)) == reference_meet_chain(maps, target)

    def test_reduced_steps_match_unreduced_products(self):
        # the builders reduce each step's product modulo the codomain moduli;
        # the terms are those of the unreduced products, whose entries reach
        # past the moduli (counted, so the reduction is exercised; a side
        # whose one subgroup is whole, or a meet side of one map, takes no
        # product past them, so 50 draws give the 30 that do)
        past = 0
        for rng, group in random_cases(26, 50, big_group):
            meet_maps, target = random_meet_side(rng, group, big_group)
            join_maps, source = random_join_side(rng, group, big_group)
            meets = list(meet_chain(meet_maps, target))
            joins = list(join_chain(join_maps, source))
            assert meets == unreduced_meet_chain(meet_maps, target)
            assert joins == unreduced_join_chain(join_maps, source)
            bases = [IntMatrix.identity(group.rank)] + [c.basis.matrix for c in meets[:-1]]
            products = [(f.matrix @ b, target.ambient) for f, b in zip(meet_maps, bases)]
            products += [(g.matrix @ source.basis.matrix, group) for g in join_maps]
            past += any(
                x >= d for m, cod in products for row, d in zip(m.entries, cod.moduli) for x in row
            )
        assert past >= 30

    def test_meet_chain_pairs_match_enumeration(self):
        for rng, group in random_cases(25, 40):
            maps, target = random_meet_side(rng, group, small_group)
            chain = list(meet_chain(maps, target))
            assert chain == reference_meet_chain(maps, target)
            members = frozenset(all_elements(group))
            for f, sub in zip(maps, chain):
                members &= oracle_preimage(f, subgroup_elements(target))
                assert subgroup_elements(sub) == members

    def test_pairs_match_two_builder_oracle(self):
        # meet: maps out of one group into one other group, with one random
        # subgroup of it; join: maps from one other group into one group,
        # with one random subgroup of it
        for rng, group in random_cases(20, 60):
            meet_maps, target = random_meet_side(rng, group, small_group)
            join_maps, source = random_join_side(rng, group, small_group)
            assert list(meet_chain(meet_maps, target)) == two_builder_meet(meet_maps, target)
            assert list(join_chain(join_maps, source)) == two_builder_join(join_maps, source)

    @pytest.mark.parametrize(
        "endo, j, steps",
        [
            (full_shift_tower(2, 6), 0, 6),
            (full_shift_tower(3, 5), 1, 4),
            (padic_tower(2, 4, [[2, 1], [0, 2]]), 0, 4),
            (padic_tower(3, 3, [[0, 1, 0], [0, 0, 1], [3, 0, 1]]), 1, 2),
            (
                conjugate_tower_endo(
                    full_shift_tower(2, 5),
                    [unimodular_pair(random.Random(5), k + 1, 6) for k in range(5)],
                ),
                0,
                5,
            ),
        ],
    )
    def test_tower_pairs_match_two_builder_oracle(self, endo, j, steps):
        conditions = list(endo.pairs(j, steps)[0][0])
        zero = trivial_subgroup(endo.tower.levels[j])
        duals = [dual_hom(c) for c in conditions]
        whole = full_subgroup(dual_group(endo.tower.levels[j]))
        cotrajectory, trajectory = tower_chains(endo, j, steps)
        assert cotrajectory == two_builder_meet(conditions, zero) == reference_meet_chain(conditions, zero)
        assert trajectory == two_builder_join(duals, whole)

    @given(known_answer_pairs())
    @settings(max_examples=150, deadline=None)
    def test_known_answer_steps_match_the_plain_steps(self, case):
        # an identity first map, a zero product, a whole source and a step
        # that adds no generator each skip a product or an elimination; every
        # term is what the plain step gives and what enumeration gives
        group, (meet, v), (join, s) = case
        meets, joins = list(meet_chain(meet, v)), list(join_chain(join, s))
        basis = IntMatrix.identity(group.rank)
        members = frozenset(all_elements(group))
        for f, term in zip(meet, meets):
            assert term == SubgroupLattice(group, preimage_lattice(f.matrix @ basis, v.basis, basis))
            members &= oracle_preimage(f, subgroup_elements(v))
            assert subgroup_elements(term) == members
            basis = term.basis.matrix
        basis = group.relations.matrix
        images = []
        for g, term in zip(join, joins):
            assert term == SubgroupLattice(group, hnf(basis.hstack(g.matrix @ s.basis.matrix)))
            images += oracle_image(g, subgroup_elements(s))
            assert subgroup_elements(term) == closure(group, images)
            basis = term.basis.matrix
        assert len(meets) == len(meet) and len(joins) == len(join)

    @pytest.mark.parametrize(
        "moduli, rows, identity",
        [
            ((4, 1, 6), [[1, 0, 0], [0, 0, 0], [0, 0, 1]], True),
            ((4, 2, 6), [[1, 0, 0], [0, 1, 0], [0, 0, 5]], False),
            ((4, 2, 6), [[1, 0, 0], [0, 1, 0], [3, 0, 1]], False),
            ((), [], True),
        ],
        ids=["modulus-1", "one-row-scaled", "one-row-off-diagonal", "rank-0"],
    )
    def test_first_identity_map_is_read_off_its_matrix(self, moduli, rows, identity):
        # a Z/1 row of the identity is all zero; the identity's first terms
        # are V and S themselves, any other map's are its plain step's
        group = FinAbGroup(moduli)
        f = GroupHom(group, group, IntMatrix.from_rows(rows, cols=group.rank))
        assert (f == GroupHom.identity(group)) is identity
        v = subgroup_from_generators(group, [[2] * group.rank])
        s = subgroup_from_generators(group, [[1] * group.rank])
        meet, join = next(meet_chain([f], v)), next(join_chain([f], s))
        assert (meet is v, join is s) == (identity, identity)
        assert (meet, join) == (preimage(f, v), image(f, s))

    def test_meet_step_is_one_elimination(self, monkeypatch):
        # preimage_lattice reduces its tracked rows in its own elimination,
        # so a step puts nothing through hnf afterwards
        group = FinAbGroup((8, 4, 6))
        rng = random.Random(3)
        f, v = random_hom(rng, group, group), random_subgroup(rng, group)
        counts = {"preimage_lattice": 0, "hnf": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            fingroup, "preimage_lattice", counted("preimage_lattice", fingroup.preimage_lattice)
        )
        monkeypatch.setattr(exactlinalg, "hnf", counted("hnf", exactlinalg.hnf))
        monkeypatch.setattr(fingroup, "hnf", counted("hnf", fingroup.hnf))
        monkeypatch.setattr(fingroup, "_joined", counted("hnf", fingroup._joined))
        next(meet_chain([f], v))
        assert counts == {"preimage_lattice": 1, "hnf": 0}

    def test_needs_maps_on_one_group(self):
        g = FinAbGroup((4, 2))
        h = FinAbGroup((2,))
        to_h = random_hom(random.Random(0), g, h)
        to_g = random_hom(random.Random(0), h, g)
        for build in (meet_chain, join_chain):
            with pytest.raises(ValueError, match="at least one"):
                list(build([], full_subgroup(g)))
        with pytest.raises(ValueError, match="out of different groups"):
            list(meet_chain([to_h, to_g], full_subgroup(h)))
        with pytest.raises(ValueError, match="into different groups"):
            list(join_chain([to_h, to_g], full_subgroup(g)))

    def test_subgroup_on_the_wrong_side(self):
        g = FinAbGroup((4, 2))
        h = FinAbGroup((2,))
        to_h = random_hom(random.Random(0), g, h)
        with pytest.raises(ValueError, match="not in the codomain"):
            list(meet_chain([to_h], full_subgroup(g)))
        with pytest.raises(ValueError, match="not in the domain"):
            list(join_chain([to_h], full_subgroup(h)))
