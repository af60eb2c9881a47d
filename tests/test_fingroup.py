import math
import random
from itertools import accumulate

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


def reference_meet_chain(pairs):
    """C_n = hnf(B @ {y : f_n(B y) in V_n}), B the basis of C_(n-1)."""
    group = pairs[0][0].domain
    basis = IntMatrix.identity(group.rank)
    chain = []
    for f, v in pairs:
        coords = reference_preimage(f.matrix @ basis, v.basis)
        chain.append(SubgroupLattice(group, hnf(basis @ coords.matrix)))
        basis = chain[-1].basis.matrix
    return chain


# moduli near 2^90 and 2^128: powers of 2, 3 and 6, and two odd ones
BIG_MODULI = [2**90, 3**57, 2**90 - 3, 2**128, 6**49, 2**128 - 159]


def big_group(rng):
    """A group of rank 1-6 over BIG_MODULI."""
    return FinAbGroup(tuple(rng.choice(BIG_MODULI) for _ in range(rng.randint(1, 6))))


def unreduced_meet_chain(pairs):
    """C_n = preimage_lattice(f_n.matrix @ B, V_n, B), the product left unreduced."""
    group = pairs[0][0].domain
    basis = IntMatrix.identity(group.rank)
    chain = []
    for f, v in pairs:
        chain.append(SubgroupLattice(group, preimage_lattice(f.matrix @ basis, v.basis, basis)))
        basis = chain[-1].basis.matrix
    return chain


def unreduced_join_chain(pairs):
    """T_n = hnf(B | g_n.matrix @ S_n), the product left unreduced."""
    group = pairs[0][0].codomain
    basis = group.relations.matrix
    chain = []
    for g, s in pairs:
        chain.append(SubgroupLattice(group, hnf(basis.hstack(g.matrix @ s.basis.matrix))))
        basis = chain[-1].basis.matrix
    return chain


def random_meet_pairs(rng, group, other_group):
    """1-5 maps out of `group`, each paired with a random subgroup of its codomain."""
    pairs = []
    for _ in range(rng.randint(1, 5)):
        other = other_group(rng)
        pairs.append((random_hom(rng, group, other), random_subgroup(rng, other)))
    return pairs


@st.composite
def known_answer_pairs(draw):
    """(group, meet pairs, join pairs) on a small group: an identity first
    map or none, then zero maps, maps paired with a whole subgroup,
    identities (whose known answer holds only first) and ordinary maps,
    into and out of small groups."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    group = FinAbGroup(draw(st.sampled_from(SMALL_MODULI)))
    meet, join = [], []
    if draw(st.booleans()):
        identity = GroupHom.identity(group)
        meet.append((identity, random_subgroup(rng, group)))
        join.append((identity, random_subgroup(rng, group)))
    kinds = st.sampled_from(["zero", "whole", "identity", "ordinary"])
    for kind in draw(st.lists(kinds, max_size=5)):
        other = group if kind == "identity" else small_group(rng)
        if kind == "identity":
            f = g = GroupHom.identity(group)
        elif kind == "zero":
            f = GroupHom(group, other, IntMatrix.zero(other.rank, group.rank))
            g = GroupHom(other, group, IntMatrix.zero(group.rank, other.rank))
        else:
            f, g = random_hom(rng, group, other), random_hom(rng, other, group)
        if kind == "whole":
            v = s = full_subgroup(other)
        else:
            v, s = random_subgroup(rng, other), random_subgroup(rng, other)
        meet.append((f, v))
        join.append((g, s))
    if not meet:
        other = small_group(rng)
        meet.append((random_hom(rng, group, other), random_subgroup(rng, other)))
        join.append((random_hom(rng, other, group), random_subgroup(rng, other)))
    return group, meet, join


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
    return list(meet_chain([(h, u) for h in powers(f, steps)]))[-1]


def trajectory(f, u, steps):
    """T_steps = U + f U + ... + f^(steps-1) U."""
    return list(join_chain([(h, u) for h in powers(f, steps)]))[-1]


def two_builder_meet(pairs):
    """Reference: the running intersection of the whole preimages f_t^-1(V_t)."""
    preimages = (SubgroupLattice(f.domain, reference_preimage(f.matrix, v.basis)) for f, v in pairs)
    return list(accumulate(preimages, reference_intersect))


def two_builder_join(pairs):
    """Reference: the running sum of the whole images g_t(S_t)."""
    return list(accumulate((image(g, s) for g, s in pairs), SubgroupLattice.sum))


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


class TestChainBuilders:
    def test_kernel_chain_matches_enumeration(self):
        for rng, group in random_cases(16, 40):
            targets = [FinAbGroup(rng.choice(SMALL_MODULI)) for _ in range(rng.randint(1, 4))]
            maps = [random_hom(rng, group, t) for t in targets]
            chain = list(meet_chain([(m, trivial_subgroup(m.codomain)) for m in maps]))
            assert len(chain) == len(maps)
            for t, sub in enumerate(chain):
                expected = {
                    x
                    for x in all_elements(group)
                    if all(m.apply(x) == m.codomain.zero() for m in maps[: t + 1])
                }
                assert subgroup_elements(sub) == expected

    def test_image_chain_matches_enumeration(self):
        for rng, group in random_cases(17, 40):
            sources = [FinAbGroup(rng.choice(SMALL_MODULI)) for _ in range(rng.randint(1, 4))]
            maps = [random_hom(rng, s, group) for s in sources]
            chain = list(join_chain([(m, full_subgroup(m.domain)) for m in maps]))
            assert len(chain) == len(maps)
            for t, sub in enumerate(chain):
                images = [m.apply(x) for m in maps[: t + 1] for x in all_elements(m.domain)]
                assert subgroup_elements(sub) == closure(group, images)

    def test_running_meet_and_join_match_enumeration(self):
        for rng, group in random_cases(19, 40):
            subs = [random_subgroup(rng, group) for _ in range(rng.randint(1, 4))]
            elements = [subgroup_elements(s) for s in subs]
            pairs = [(GroupHom.identity(group), s) for s in subs]
            meets, joins = list(meet_chain(pairs)), list(join_chain(pairs))
            assert len(meets) == len(joins) == len(subs)
            for t in range(len(subs)):
                assert subgroup_elements(meets[t]) == frozenset.intersection(*elements[: t + 1])
                union = [x for e in elements[: t + 1] for x in e]
                assert subgroup_elements(joins[t]) == closure(group, union)

    def test_meet_chain_matches_reference(self):
        for rng, group in random_cases(24, 60, wide_group):
            pairs = random_meet_pairs(rng, group, wide_group)
            assert list(meet_chain(pairs)) == reference_meet_chain(pairs)

    def test_reduced_steps_match_unreduced_products(self):
        # the builders reduce each step's product modulo the codomain moduli;
        # the terms are those of the unreduced products, whose entries reach
        # past the moduli (counted, so the reduction is exercised)
        past = 0
        for rng, group in random_cases(26, 40, big_group):
            meet_pairs = random_meet_pairs(rng, group, big_group)
            join_pairs = []
            for _ in range(rng.randint(1, 5)):
                other = big_group(rng)
                join_pairs.append((random_hom(rng, other, group), random_subgroup(rng, other)))
            meets = list(meet_chain(meet_pairs))
            joins = list(join_chain(join_pairs))
            assert meets == unreduced_meet_chain(meet_pairs)
            assert joins == unreduced_join_chain(join_pairs)
            bases = [IntMatrix.identity(group.rank)] + [c.basis.matrix for c in meets[:-1]]
            products = [(f.matrix @ b, f.codomain) for (f, _), b in zip(meet_pairs, bases)]
            products += [(g.matrix @ t.basis.matrix, group) for g, t in join_pairs]
            past += any(
                x >= d for m, cod in products for row, d in zip(m.entries, cod.moduli) for x in row
            )
        assert past >= 30

    def test_meet_chain_pairs_match_enumeration(self):
        for rng, group in random_cases(25, 40):
            pairs = random_meet_pairs(rng, group, small_group)
            chain = list(meet_chain(pairs))
            assert chain == reference_meet_chain(pairs)
            members = frozenset(all_elements(group))
            for (f, v), sub in zip(pairs, chain):
                members &= oracle_preimage(f, subgroup_elements(v))
                assert subgroup_elements(sub) == members

    def test_pairs_match_two_builder_oracle(self):
        # meet: maps out of one group into mixed codomains, each paired with
        # a random subgroup of its codomain; join: maps from mixed domains
        # into one group, each paired with a random subgroup of its domain
        for rng, group in random_cases(20, 60):
            meet_pairs, join_pairs = [], []
            for _ in range(rng.randint(1, 5)):
                other = FinAbGroup(rng.choice(SMALL_MODULI))
                meet_pairs.append((random_hom(rng, group, other), random_subgroup(rng, other)))
                join_pairs.append((random_hom(rng, other, group), random_subgroup(rng, other)))
            assert list(meet_chain(meet_pairs)) == two_builder_meet(meet_pairs)
            assert list(join_chain(join_pairs)) == two_builder_join(join_pairs)

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
        conditions = [c for c, _ in endo.pairs(j, steps)[0]]
        kernels = [(c, trivial_subgroup(c.codomain)) for c in conditions]
        duals = [dual_hom(c) for c in conditions]
        images = [(d, full_subgroup(d.domain)) for d in duals]
        cotrajectory, trajectory = tower_chains(endo, j, steps)
        assert cotrajectory == two_builder_meet(kernels) == reference_meet_chain(kernels)
        assert trajectory == two_builder_join(images)

    @given(known_answer_pairs())
    @settings(max_examples=150, deadline=None)
    def test_known_answer_steps_match_the_plain_steps(self, case):
        # an identity first map, a zero product, a whole subgroup and a step
        # that adds no generator each skip a product or an elimination; every
        # term is what the plain step gives and what enumeration gives
        group, meet, join = case
        meets, joins = list(meet_chain(meet)), list(join_chain(join))
        basis = IntMatrix.identity(group.rank)
        members = frozenset(all_elements(group))
        for (f, v), term in zip(meet, meets):
            assert term == SubgroupLattice(group, preimage_lattice(f.matrix @ basis, v.basis, basis))
            members &= oracle_preimage(f, subgroup_elements(v))
            assert subgroup_elements(term) == members
            basis = term.basis.matrix
        basis = group.relations.matrix
        images = []
        for (g, s), term in zip(join, joins):
            assert term == SubgroupLattice(group, hnf(basis.hstack(g.matrix @ s.basis.matrix)))
            images += oracle_image(g, subgroup_elements(s))
            assert subgroup_elements(term) == closure(group, images)
            basis = term.basis.matrix
        assert len(meets) == len(meet) and len(joins) == len(join)

    def test_meet_step_is_one_elimination(self, monkeypatch):
        # preimage_lattice reduces its tracked rows in its own elimination,
        # so a step puts nothing through hnf afterwards
        group = FinAbGroup((8, 4, 6))
        rng = random.Random(3)
        pairs = [(random_hom(rng, group, group), random_subgroup(rng, group))]
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
        next(meet_chain(pairs))
        assert counts == {"preimage_lattice": 1, "hnf": 0}

    def test_needs_maps_on_one_group(self):
        g = FinAbGroup((4, 2))
        h = FinAbGroup((2,))
        to_h = random_hom(random.Random(0), g, h)
        to_g = random_hom(random.Random(0), h, g)
        for build in (meet_chain, join_chain):
            with pytest.raises(ValueError, match="at least one"):
                list(build([]))
        with pytest.raises(ValueError, match="out of different groups"):
            list(meet_chain([(to_h, full_subgroup(h)), (to_g, full_subgroup(g))]))
        with pytest.raises(ValueError, match="into different groups"):
            list(join_chain([(to_h, full_subgroup(g)), (to_g, full_subgroup(h))]))

    def test_subgroup_on_the_wrong_side(self):
        g = FinAbGroup((4, 2))
        h = FinAbGroup((2,))
        to_h = random_hom(random.Random(0), g, h)
        with pytest.raises(ValueError, match="not in the codomain"):
            list(meet_chain([(to_h, full_subgroup(g))]))
        with pytest.raises(ValueError, match="not in the domain"):
            list(join_chain([(to_h, full_subgroup(h))]))
