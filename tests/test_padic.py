import math
import operator
import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_elements, char_poly_oracle, closure, det
from entbridge import padic
from entbridge.bridge import verify_instance
from entbridge.exactlinalg import HnfBasis, InputError, IntMatrix
from entbridge import fingroup
from entbridge.fingroup import FinAbGroup, GroupHom, SubgroupLattice, powers
from entbridge.padic import (
    _MR_BOUND,
    PadicLattice,
    apply_matrix,
    char_poly,
    contains,
    cotrajectory_indices,
    dual_lattice,
    index_valuation,
    is_prime,
    lattice_from_columns,
    lattice_index,
    newton_entropy,
    preimage,
    rational_inverse,
    rational_matrix,
    standard_lattice,
    sum_lattices,
    trajectory_indices,
)


def random_lattice(rng, prime, dim):
    while True:
        cols = [
            [
                Fraction(rng.randint(-6, 6), prime ** rng.randint(0, 2))
                for _ in range(dim)
            ]
            for _ in range(dim)
        ]
        try:
            return lattice_from_columns(prime, cols)
        except ValueError:
            continue


def random_invertible(rng, prime, dim):
    while True:
        m = tuple(
            tuple(
                Fraction(rng.randint(-4, 4), prime ** rng.randint(0, 1))
                for _ in range(dim)
            )
            for _ in range(dim)
        )
        if char_poly(m)[0] != 0:
            return m


def lattice_cotrajectory(prime, m, steps):
    """a_n on canonical Z_p-lattices: C_{n+1} = {x in U : m x in C_n}."""
    u = standard_lattice(prime, len(m))
    current, out = u, []
    for _ in range(steps):
        out.append(lattice_index(u, current))
        current = preimage(m, current, u)
    return tuple(out)


def lattice_trajectory(prime, m, steps):
    """b_n on canonical Z_p-lattices: T_{n+1} = U + m T_n."""
    u = standard_lattice(prime, len(m))
    current, out = u, []
    for _ in range(steps):
        out.append(lattice_index(current, u))
        pushed = [
            [sum((x * y for x, y in zip(row, col)), Fraction(0)) for row in m]
            for col in current.basis_columns()
        ]
        current = lattice_from_columns(prime, u.basis_columns() + pushed)
    return tuple(out)


def unscaled_chains(prime, m, steps):
    """(meet chain, join chain) of the unscaled route on G = (Z/p^N)^d,
    N = (steps - 1) e for m = B / (u p^e): the running intersection of the
    preimages B^-k(p^(ke) G) and the running sum of the images
    B^k(p^(N-ke) G), k < steps, each p^c G a checked subgroup."""
    den = math.lcm(*(x.denominator for row in m for x in row))
    e = 0
    while den % prime**(e + 1) == 0:
        e += 1
    top = (steps - 1) * e
    group = FinAbGroup((prime**top,) * len(m))
    b = IntMatrix.from_rows([[x.numerator * (den // x.denominator) for x in row] for row in m])
    b_powers = list(powers(GroupHom(group, group, b), steps))

    def multiples(c):
        return SubgroupLattice(group, HnfBasis(IntMatrix.diagonal((c,) * len(m))))

    meet = [fingroup.preimage(h, multiples(prime ** (k * e))) for k, h in enumerate(b_powers)]
    join = [fingroup.image(h, multiples(prime ** (top - k * e))) for k, h in enumerate(b_powers)]
    return list(accumulate(meet, SubgroupLattice.intersect)), list(accumulate(join, SubgroupLattice.sum))


def chain_indices(terms, meet):
    """det C_n / det C_1 for a meet chain, det T_1 / det T_n for a join chain."""
    dets = [t.basis.det() for t in terms]
    return tuple(d // dets[0] if meet else dets[0] // d for d in dets)


def trial_division_is_prime(n):
    return n >= 2 and all(n % q for q in range(2, math.isqrt(n) + 1))


def intersect(a, b):
    # lattice intersection through the annihilator: (A + B)^* = A* ∩ B*
    return dual_lattice(sum_lattices(dual_lattice(a), dual_lattice(b)))


class TestHelpers:
    def test_is_prime(self):
        assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
        assert not is_prime(1)

    def test_is_prime_matches_trial_division(self):
        assert all(is_prime(n) == trial_division_is_prime(n) for n in range(2, 20000))

    @pytest.mark.parametrize(
        "n", [561, 3215031751, 3825123056546413051, 318665857834031151167461]
    )
    def test_is_prime_rejects_pseudoprimes(self, n):
        # a Carmichael number, then the least strong pseudoprimes to the
        # prime bases up to 7, 23 and 37
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**61 - 1, 1125899906842597])
    def test_is_prime_accepts_large_primes(self, n):
        assert is_prime(n)

    def test_is_prime_refuses_the_miller_rabin_bound(self):
        # the bases are proven exact only below the bound
        with pytest.raises(InputError, match="primality is decided only below"):
            is_prime(_MR_BOUND)

    def test_verify_instance_refuses_a_prime_past_the_bound(self):
        # 2**89 - 1 is prime; the schema would reject it, a direct call raises
        instance = {"kind": "qp", "prime": 2**89 - 1, "matrix": [["2"]], "steps": 3}
        with pytest.raises(InputError, match="primality is decided only below"):
            verify_instance(instance)

    def test_rational_matrix_parsing(self):
        m = rational_matrix([[1, "3/4"], [Fraction(-2, 5), 0]])
        assert m == ((Fraction(1), Fraction(3, 4)), (Fraction(-2, 5), Fraction(0)))

    def test_rational_matrix_shape(self):
        with pytest.raises(InputError, match="equal length"):
            rational_matrix([[1, 2], [3]])
        with pytest.raises(InputError, match="nonempty"):
            rational_matrix([])

    @pytest.mark.parametrize(
        "entry,message",
        [
            (math.inf, "is not a finite number"),
            (math.nan, "is not a finite number"),
            ("3/0", "has a zero denominator"),
            ("abc", "Invalid literal for Fraction: 'abc'"),
            ("1 /2", "Invalid literal for Fraction: '1 /2'"),
        ],
        ids=["inf", "nan", "zero-denominator", "word", "space"],
    )
    def test_rational_matrix_refuses_an_entry_with_no_exact_value(self, entry, message):
        with pytest.raises(InputError, match=message):
            rational_matrix([[1, entry], [0, 1]])


class TestCanonicalForm:
    def test_worked_examples(self):
        l1 = lattice_from_columns(2, [[1, 0], [0, Fraction(1, 2)]])
        assert l1.scaled.entries == ((2, 0), (0, 1)) and l1.shift == 1
        l2 = lattice_from_columns(2, [[Fraction(3, 4), 0], [Fraction(1, 2), Fraction(5, 6)]])
        assert l2.scaled.entries == ((1, 0), (0, 2)) and l2.shift == 2
        assert l2.det_valuation == 1

    def test_standard(self):
        std = standard_lattice(5, 3)
        assert std.scaled == IntMatrix.identity(3) and std.shift == 0
        assert std.det_valuation == 0

    def test_unit_denominators_are_canonicalized_away(self):
        # 1/3 is a 2-adic unit, so these span the same Z_2-lattice
        assert lattice_from_columns(2, [[Fraction(1, 3)]]) == standard_lattice(2, 1)

    @pytest.mark.parametrize("prime", [2, 3, 5])
    def test_invariant_under_recombination(self, prime):
        rng = random.Random(prime)
        for _ in range(25):
            dim = rng.randint(1, 3)
            lat = random_lattice(rng, prime, dim)
            cols = [list(c) for c in lat.basis_columns()]
            rng.shuffle(cols)
            unit = 1 + prime * rng.randint(1, 3)
            cols[0] = [unit * x for x in cols[0]]
            if dim > 1:
                t = prime * rng.randint(-2, 2)
                cols[1] = [x + t * y for x, y in zip(cols[1], cols[0])]
            cols.append([sum(col[i] for col in cols) for i in range(dim)])
            assert lattice_from_columns(prime, cols) == lat

    def test_rejects_rank_deficient(self):
        with pytest.raises(ValueError, match="lattice not full rank"):
            lattice_from_columns(2, [[1, 2], [2, 4]])
        with pytest.raises(ValueError, match="lattice not full rank"):
            lattice_from_columns(2, [])

    def test_validation(self):
        with pytest.raises(InputError, match="prime required"):
            PadicLattice(4, IntMatrix.identity(1), 0)
        with pytest.raises(ValueError, match="shift must be nonnegative"):
            PadicLattice(2, IntMatrix.identity(1), -1)
        with pytest.raises(ValueError, match="prime power"):
            PadicLattice(2, IntMatrix.diagonal([3]), 0)
        with pytest.raises(ValueError, match="shift is not minimal"):
            PadicLattice(2, IntMatrix.diagonal([2, 2]), 1)


class TestIndex:
    def test_frozen_values(self):
        std = standard_lattice(2, 2)
        half = lattice_from_columns(2, [[Fraction(1, 2), 0], [0, Fraction(1, 2)]])
        sub = lattice_from_columns(2, [[2, 0], [0, 8]])
        assert index_valuation(half, std) == 2
        assert index_valuation(std, sub) == 4
        assert lattice_index(std, sub) == 16
        assert index_valuation(std, std) == 0

    def test_requires_nesting(self):
        std = standard_lattice(2, 2)
        shifted = lattice_from_columns(2, [[2, 0], [0, Fraction(1, 2)]])
        with pytest.raises(ValueError, match="not a subgroup pair"):
            index_valuation(std, shifted)

    def test_requires_same_space(self):
        with pytest.raises(ValueError, match="different spaces"):
            index_valuation(standard_lattice(2, 2), standard_lattice(3, 2))

    @pytest.mark.parametrize("prime", [2, 5])
    def test_multiplicative_on_scaled_chains(self, prime):
        rng = random.Random(31 + prime)
        for _ in range(20):
            dim = rng.randint(1, 3)
            a = random_lattice(rng, prime, dim)
            ks = [rng.randint(0, 2) for _ in range(dim)]
            b = lattice_from_columns(
                prime,
                [
                    [x * prime**k for x in col]
                    for k, col in zip(ks, a.basis_columns())
                ],
            )
            assert contains(a, b)
            assert index_valuation(a, b) == sum(ks)

    def test_contains(self):
        std = standard_lattice(3, 2)
        assert contains(std, lattice_from_columns(3, [[3, 0], [0, 1]]))
        assert not contains(std, lattice_from_columns(3, [[Fraction(1, 3), 0], [0, 1]]))


class TestDuality:
    def test_frozen_dual(self):
        sub = lattice_from_columns(2, [[2, 0], [0, 8]])
        d = dual_lattice(sub)
        assert d.scaled.entries == ((4, 0), (0, 1)) and d.shift == 3

    def test_standard_self_dual(self):
        std = standard_lattice(7, 2)
        assert dual_lattice(std) == std

    @pytest.mark.parametrize("prime", [2, 3])
    def test_involution_and_index_duality(self, prime):
        rng = random.Random(17 * prime)
        for _ in range(20):
            dim = rng.randint(1, 3)
            a = random_lattice(rng, prime, dim)
            assert dual_lattice(dual_lattice(a)) == a
            b = intersect(a, random_lattice(rng, prime, dim))
            assert index_valuation(a, b) == index_valuation(
                dual_lattice(b), dual_lattice(a)
            )


class TestPreimage:
    def test_integral_matrix_is_no_constraint(self):
        std = standard_lattice(2, 2)
        m = rational_matrix([[1, 2], [3, 4]])
        assert preimage(m, std, std) == std

    def test_matches_inverse_image_intersection(self):
        # for invertible M, {x in W : Mx in L} is W ∩ M^-1 L
        rng = random.Random(23)
        for _ in range(25):
            prime = rng.choice([2, 3])
            a, b, c, d = (
                Fraction(rng.randint(-4, 4), prime ** rng.randint(0, 1))
                for _ in range(4)
            )
            det = a * d - b * c
            if det == 0:
                continue
            m = ((a, b), (c, d))
            minv = ((d / det, -b / det), (-c / det, a / det))
            lat = random_lattice(rng, prime, 2)
            within = random_lattice(rng, prime, 2)
            expected = intersect(within, apply_matrix(minv, lat))
            assert preimage(m, lat, within) == expected

    def test_lands_inside_both_constraints(self):
        rng = random.Random(29)
        for _ in range(15):
            prime = rng.choice([2, 5])
            m = random_invertible(rng, prime, 2)
            lat = random_lattice(rng, prime, 2)
            within = random_lattice(rng, prime, 2)
            pre = preimage(m, lat, within)
            assert contains(within, pre)
            assert contains(lat, apply_matrix(m, pre))


class TestIndexSequences:
    def test_contracting_direction_counts(self):
        m = rational_matrix([["1/2"]])
        assert cotrajectory_indices(2, m, 6) == (1, 2, 4, 8, 16, 32)
        assert trajectory_indices(2, m, 6) == (1, 2, 4, 8, 16, 32)

    def test_working_modulus_cap(self):
        # the sequences work modulo p^((steps - 1) e), accepted up to 2^128
        for prime, steps in [(2, 129), (3, 81)]:  # 2^128, and 3^80 < 2^128 < 3^81
            m = rational_matrix([[Fraction(1, prime)]])
            expected = tuple(prime**n for n in range(steps))
            assert cotrajectory_indices(prime, m, steps) == expected
            assert trajectory_indices(prime, m, steps) == expected
            for route in (cotrajectory_indices, trajectory_indices):
                with pytest.raises(InputError, match="working modulus"):
                    route(prime, m, steps + 1)
        with pytest.raises(InputError, match=r"working modulus 1000003\^63 exceeds 2\^128"):
            cotrajectory_indices(1000003, rational_matrix([["1/1000003"]]), 64)

    def test_prime_required(self):
        m = rational_matrix([["1/2"]])
        for route in (cotrajectory_indices, trajectory_indices):
            with pytest.raises(InputError, match="prime required"):
                route(4, m, 3)

    def test_integral_direction_is_silent(self):
        m = rational_matrix([[2]])
        assert cotrajectory_indices(2, m, 6) == (1, 1, 1, 1, 1, 1)
        assert trajectory_indices(2, m, 6) == (1, 1, 1, 1, 1, 1)

    def test_triangular_example(self):
        m = rational_matrix([[Fraction(1, 3), 1], [0, 3]])
        assert cotrajectory_indices(3, m, 5) == (1, 3, 9, 27, 81)
        assert trajectory_indices(3, tuple(zip(*m)), 5) == (1, 3, 9, 27, 81)

    @pytest.mark.parametrize("route", [cotrajectory_indices, trajectory_indices])
    def test_each_route_runs_on_one_group(self, route, monkeypatch):
        # one working group per route, and every map built is an
        # endomorphism of it: no map crosses between different groups
        groups, crossing = [], []

        def counted(*args, **kwargs):
            groups.append(FinAbGroup(*args, **kwargs))
            return groups[-1]

        check = GroupHom.__post_init__

        def checked(self):
            if self.domain != self.codomain:
                crossing.append(self)
            check(self)

        monkeypatch.setattr(padic, "FinAbGroup", counted)
        monkeypatch.setattr(GroupHom, "__post_init__", checked)
        m = rational_matrix([[Fraction(1, 9), 1], [0, 3]])
        assert route(3, m, 5) == (1, 9, 81, 729, 6561)
        assert len(groups) == 1 and groups[0].moduli == (3**8, 3**8)
        assert crossing == []

    @pytest.mark.parametrize("prime,dim", [(2, 2), (3, 2), (2, 3)])
    def test_cotrajectory_is_transpose_trajectory(self, prime, dim):
        rng = random.Random(1000 * prime + dim)
        for _ in range(8):
            m = random_invertible(rng, prime, dim)
            mt = tuple(zip(*m))
            assert cotrajectory_indices(prime, m, 5) == trajectory_indices(prime, mt, 5)

    @pytest.mark.parametrize("prime", [2, 3, 5, 7])
    def test_matches_lattice_recursion(self, prime):
        # unit denominators and p-adic depth e >= 2 in every matrix
        rng = random.Random(2000 + prime)
        unit = 3 if prime != 3 else 7
        dens = [1, unit, prime, unit * prime, prime**2, unit * prime**2, prime**3]
        for dim in range(1, 5):
            for _ in range(3):
                while True:
                    m = [
                        [Fraction(rng.randint(-6, 6), rng.choice(dens)) for _ in range(dim)]
                        for _ in range(dim)
                    ]
                    m[rng.randrange(dim)][rng.randrange(dim)] = Fraction(
                        rng.randint(1, prime - 1), unit * prime**2
                    )
                    m = rational_matrix(m)
                    if char_poly(m)[0] != 0:
                        break
                mt = tuple(zip(*m))
                assert cotrajectory_indices(prime, m, 6) == lattice_cotrajectory(prime, m, 6)
                assert trajectory_indices(prime, mt, 6) == lattice_trajectory(prime, mt, 6)

    @pytest.mark.parametrize("prime", [2, 3, 5])
    def test_singular_matches_lattice_recursion(self, prime):
        # M = L R with R of rank r < d: the recursion inverts lattice bases,
        # never M, so it checks singular matrices as it checks the others,
        # and the report agrees with the Newton polygon
        rng = random.Random(43 + prime)

        def entry():
            return Fraction(rng.randint(-4, 4), prime ** rng.randint(0, 1))

        for dim in range(1, 5):
            for _ in range(3):
                rank = rng.randrange(dim)
                left = [[entry() for _ in range(rank)] for _ in range(dim)]
                right = [[entry() for _ in range(dim)] for _ in range(rank)]
                product = [
                    [sum(map(operator.mul, row, col), Fraction(0)) for col in zip(*right)]
                    for row in left
                ]
                m = rational_matrix(product if rank else [[0] * dim] * dim)
                assert char_poly(m)[0] == 0
                mt = tuple(zip(*m))
                assert cotrajectory_indices(prime, m, 6) == lattice_cotrajectory(prime, m, 6)
                assert trajectory_indices(prime, mt, 6) == lattice_trajectory(prime, mt, 6)
                matrix = [[str(x) for x in row] for row in m]
                instance = {"kind": "qp", "prime": prime, "matrix": matrix, "steps": 6}
                assert verify_instance(instance)["verdict"] == "pass"

    def test_matches_enumeration_on_tiny_levels(self):
        # On G = (Z/p^N)^d with N = (steps - 1) e, element by element:
        # a_n = [G : {x : B^k x = 0 mod p^(ke) for k < n}] and b_n is the
        # order of the subgroup spanned by the columns of p^(N-ke) (B^T)^k.
        rng = random.Random(41)
        cases = [(2, 2, 1, 5), (2, 3, 2, 3), (3, 2, 1, 4), (5, 2, 1, 3), (7, 1, 2, 3), (2, 1, 3, 5)]
        for prime, dim, e, steps in cases:
            top = (steps - 1) * e
            group = FinAbGroup((prime**top,) * dim)
            assert group.order <= 4096  # small enough to enumerate
            for _ in range(4):
                den = prime**e * rng.choice([1, 3 if prime != 3 else 5])
                b = [[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)]
                if b[0][0] % prime == 0:
                    b[0][0] += 1
                m = rational_matrix([[Fraction(x, den) for x in row] for row in b])
                powers = [[[int(i == j) for j in range(dim)] for i in range(dim)]]
                for _ in range(steps - 1):
                    last = powers[-1]
                    powers.append(
                        [
                            [sum(b[i][k] * last[k][j] for k in range(dim)) for j in range(dim)]
                            for i in range(dim)
                        ]
                    )
                # first k at which x fails its condition (steps if never)
                depths = [
                    next(
                        (
                            k
                            for k in range(steps)
                            if any(
                                sum(a * y for a, y in zip(row, x)) % prime ** (k * e)
                                for row in powers[k]
                            )
                        ),
                        steps,
                    )
                    for x in all_elements(group)
                ]
                primal, dual = [], []
                for n in range(1, steps + 1):
                    primal.append(group.order // sum(1 for k in depths if k >= n))
                    gens = [
                        [prime ** (top - k * e) * x for x in row]
                        for k in range(n)
                        for row in powers[k]
                    ]
                    dual.append(len(closure(group, gens)))
                assert cotrajectory_indices(prime, m, steps) == tuple(primal)
                assert trajectory_indices(prime, tuple(zip(*m)), steps) == tuple(dual)

    def test_scaled_pairs_match_unscaled_pairs(self):
        # the routes give p^(N-ke) B^k with the trivial subgroup and with G;
        # the unscaled route, B^k with p^(ke) G and with p^(N-ke) G, gives
        # the same indices, on matrices with unit and p-power denominators,
        # singular ones included
        rng = random.Random(43)
        cases = 0
        for prime in (2, 3, 5, 7):
            unit = 3 if prime != 3 else 2
            dens = [1, unit, prime, unit * prime, prime**2, unit * prime**2]
            for _ in range(80):
                dim = rng.randint(1, 4)
                steps = rng.randint(2, 6)
                rows = [[rng.randint(-6, 6) for _ in range(dim)] for _ in range(dim)]
                m = rational_matrix([[Fraction(x, rng.choice(dens)) for x in row] for row in rows])
                meet, join = unscaled_chains(prime, m, steps)
                assert cotrajectory_indices(prime, m, steps) == chain_indices(meet, True)
                assert trajectory_indices(prime, m, steps) == chain_indices(join, False)
                cases += 1
        assert cases >= 300

    def test_scaled_maps_match_plain_products(self):
        # map k of each side is p^(N-ke) B^k mod p^N, B^k by plain @ on the
        # unreduced B read off the matrix that side is given; B has negative
        # entries, and e runs from 0 to 3
        rng = random.Random(47)
        counted = {"negative": 0, "e >= 2": 0}
        for prime in (2, 3, 5):
            unit = 3 if prime != 3 else 2
            for _ in range(40):
                dim, steps = rng.randint(1, 4), rng.randint(1, 6)
                den = prime ** rng.randint(0, 3) * rng.choice([1, unit])
                rows = [[Fraction(rng.randint(-9, 9), den) for _ in range(dim)] for _ in range(dim)]
                m = rational_matrix(rows)
                sides = ((padic.cotrajectory_pairs, m), (padic.trajectory_pairs, tuple(zip(*m))))
                for route, given in sides:
                    lcm = math.lcm(*(x.denominator for row in given for x in row))
                    b = IntMatrix.from_rows([[int(x * lcm) for x in row] for row in given])
                    e = 0
                    while lcm % prime ** (e + 1) == 0:
                        e += 1
                    top = (steps - 1) * e
                    modulus = prime**top
                    maps = list(route(prime, given, steps)[0])
                    assert len(maps) == steps
                    power = IntMatrix.identity(dim)
                    for k, h in enumerate(maps):
                        c = prime ** (top - k * e)
                        scaled = tuple(tuple(c * x % modulus for x in row) for row in power.entries)
                        assert h.matrix.entries == scaled
                        assert h.domain == h.codomain == FinAbGroup((modulus,) * dim)
                        power = power @ b
                    counted["negative"] += any(x < 0 for row in b.entries for x in row)
                    counted["e >= 2"] += e >= 2 and steps >= 3
        assert counted["negative"] >= 150 and counted["e >= 2"] >= 40

    def test_each_side_powers_its_own_matrix(self, monkeypatch):
        # a qp verify runs the powers kernel twice: on B mod p^N for the meet
        # side and on the transpose's B' mod p^N for the join side, and no
        # power of one side is a power of the other
        runs = []
        real_powers = padic._powers

        def recording(b, moduli):
            run = (b, [])
            runs.append(run)
            for power in real_powers(b, moduli):
                run[1].append(power)
                yield power

        monkeypatch.setattr(padic, "_powers", recording)
        matrix = [["1/2", "1", "-3"], ["3", "1/4", "0"], ["-1", "2", "1/2"]]
        report = verify_instance({"kind": "qp", "prime": 2, "matrix": matrix, "steps": 5})
        assert report["verdict"] == "pass"
        b = [[int(Fraction(x) * 4) % 2**8 for x in row] for row in matrix]
        assert [run[0].entries for run in runs] == [
            tuple(map(tuple, b)),
            tuple(zip(*b)),
        ]
        (_, meet), (_, join) = runs
        assert len(meet) >= 3 and len(join) >= 3
        assert not {id(p) for p in meet} & {id(p) for p in join}
        assert [p.transpose() for p in meet[: len(join)]] == join[: len(meet)]

    def test_step_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            cotrajectory_indices(2, rational_matrix([[1]]), 0)
        with pytest.raises(ValueError, match="at least 1"):
            trajectory_indices(2, rational_matrix([[1]]), 0)


class TestCharPoly:
    def test_frozen(self):
        assert char_poly(rational_matrix([[2, 1], [0, 3]])) == (
            Fraction(6),
            Fraction(-5),
            Fraction(1),
        )
        assert char_poly(rational_matrix([[2, 0], [0, "1/2"]])) == (
            Fraction(1),
            Fraction(-5, 2),
            Fraction(1),
        )

    def test_companion_matrix_recovers_polynomial(self):
        # companion of x^3 + c2 x^2 + c1 x + c0
        c0, c1, c2 = Fraction(3, 2), Fraction(-1, 4), Fraction(5)
        companion = rational_matrix(
            [[0, 0, -c0], [1, 0, -c1], [0, 1, -c2]]
        )
        assert char_poly(companion) == (c0, c1, c2, Fraction(1))

    def test_requires_square(self):
        with pytest.raises(ValueError, match="square"):
            char_poly(((Fraction(1), Fraction(2)),))

    @staticmethod
    def _matrices(seed):
        """210 seeded matrices: 50 integer, 60 with p-power denominators as
        random_qp_instance draws them, 40 with distinct 7-digit denominators,
        20 singular, 6 zero, 14 1 x 1 and 20 companion matrices."""
        rng = random.Random(seed)
        out = []
        for _ in range(50):
            d, size = rng.randint(1, 6), rng.choice((9, 10**6, 2**100))
            out.append([[rng.randint(-size, size) for _ in range(d)] for _ in range(d)])
        for _ in range(60):
            d, prime = rng.randint(2, 5), rng.choice((2, 3, 5))
            out.append(
                [
                    [Fraction(rng.randint(-4, 4), prime ** rng.randint(0, 1)) for _ in range(d)]
                    for _ in range(d)
                ]
            )
        for _ in range(40):
            d = rng.randint(2, 5)
            dens = rng.sample(range(10**6, 10**7), d * d)
            out.append(
                [
                    [Fraction(rng.randint(-(10**7), 10**7), dens.pop()) for _ in range(d)]
                    for _ in range(d)
                ]
            )
        for _ in range(20):
            # a repeated row, or a zero column
            d = rng.randint(2, 6)
            m = [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
                for _ in range(d)
            ]
            if rng.random() < 0.5:
                m[0] = list(m[-1])
            else:
                j = rng.randrange(d)
                for row in m:
                    row[j] = Fraction(0)
            out.append(m)
        out += [[[0] * d for _ in range(d)] for d in range(1, 7)]
        out += [
            [[Fraction(rng.randint(-(10**9), 10**9), rng.randint(1, 10**9))]] for _ in range(14)
        ]
        for _ in range(20):
            d = rng.randint(1, 6)
            c = [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(d)]
            out.append(
                [[Fraction(int(i == j + 1)) for j in range(d - 1)] + [-c[i]] for i in range(d)]
            )
        return out

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_faddeev_leverrier_oracle(self, seed):
        matrices = self._matrices(seed)
        assert len(matrices) == 210
        for entries in matrices:
            m = rational_matrix(entries)
            assert char_poly(m) == char_poly_oracle(m), entries
        # the singular, zero and companion kinds are what they claim to be
        assert all(char_poly(rational_matrix(m))[0] == 0 for m in matrices[150:176])
        for entries in matrices[190:]:
            d = len(entries)
            assert char_poly(rational_matrix(entries))[:d] == tuple(-row[-1] for row in entries)

    @pytest.mark.parametrize("row_dens", ["multiple-of-crt-prime", "40-digit"])
    def test_row_denominators(self, row_dens):
        # row 0 with denominators that the first CRT prime divides, so that
        # prime has no inverse and is skipped; or one row of 40-digit ones
        rng = random.Random(5)
        m = [[Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(5)] for _ in range(5)]
        if row_dens == "multiple-of-crt-prime":
            m[0] = [Fraction(rng.randint(1, 9), padic._chi_prime(0) * rng.randint(1, 9)) for _ in range(5)]
        else:
            m[3] = [Fraction(rng.randint(-99, 99), rng.randrange(10**39, 10**40)) for _ in range(5)]
        m = rational_matrix(m)
        assert char_poly(m) == char_poly_oracle(m)

    def test_ci_fraction_block_needs_few_primes(self, monkeypatch):
        # the leading 10 x 10 block of the CI's 16 x 16 matrix of 7-digit
        # fractions: a bound from the lcm of all its denominators takes 218
        # CRT primes, the row-wise bound 26
        rng = random.Random(0)
        entry = lambda: f"{rng.randrange(10**6, 10**7)}/{rng.randrange(10**6, 10**7)}"
        m = rational_matrix([[entry() for _ in range(16)][:10] for _ in range(10)])
        calls = []
        chi_prime = padic._chi_prime
        monkeypatch.setattr(padic, "_chi_prime", lambda k: calls.append(k) or chi_prime(k))
        assert char_poly(m) == char_poly_oracle(m)
        assert len(calls) < 50

    def test_modular_recurrence_with_small_primes(self):
        # over F_2 .. F_7 sparse matrices need row swaps and skip zero columns
        rng = random.Random(3)
        for _ in range(200):
            d, p = rng.randint(1, 7), rng.choice((2, 3, 5, 7))
            m = [[rng.choice((0, 0, 0, rng.randint(-9, 9))) for _ in range(d)] for _ in range(d)]
            expected = [int(c) % p for c in char_poly_oracle(m)]
            assert padic._char_poly_mod([[x % p for x in row] for row in m], p) == expected

    def test_hadamard_bound_is_reached(self):
        # k H for the 16 x 16 Sylvester-Hadamard matrix H: every row has
        # 2-norm 4k, so the bound is nu^16 = (4k)^16 = det(k H) = c_0.  k puts
        # that bound just under the product M of the first five CRT primes:
        # M exceeds the bound but not twice it, so a lift after five primes
        # would turn c_0 negative.
        h = [[1]]
        for _ in range(4):
            h = [row + row for row in h] + [row + [-x for x in row] for row in h]
        product = math.prod(padic._chi_prime(i) for i in range(5))
        k = int(product ** (1 / 16)) // 4
        while (4 * k) ** 16 >= product:
            k -= 1
        while (4 * k + 4) ** 16 < product:
            k += 1
        assert (4 * k) ** 16 < product <= 2 * (4 * k) ** 16
        # (k H)^2 = 16 k^2 I and trace(H) = 0, so chi = (x^2 - 16 k^2)^8
        expected = [0] * 17
        for j in range(9):
            expected[2 * j] = math.comb(8, j) * (-16 * k * k) ** (8 - j)
        coeffs = char_poly(rational_matrix([[k * x for x in row] for row in h]))
        assert coeffs == tuple(Fraction(c) for c in expected)
        assert coeffs[0] == (4 * k) ** 16


class TestNewtonEntropy:
    @pytest.mark.parametrize(
        "prime,matrix,multiple",
        [
            (2, [[2]], 0),
            (2, [["1/2"]], 1),
            (2, [[2, 0], [0, "1/2"]], 1),
            (5, [["1/5", 0], [0, "1/5"]], 2),
        ],
    )
    def test_from_matrices(self, prime, matrix, multiple):
        assert newton_entropy(prime, char_poly(rational_matrix(matrix))) == multiple

    def test_from_raw_coefficients(self):
        coeffs = (Fraction(-1, 3), Fraction(-1, 3), Fraction(1))
        assert newton_entropy(3, coeffs) == 1

    def test_degenerate_inputs(self):
        assert newton_entropy(2, (Fraction(1),)) == 0
        with pytest.raises(InputError, match="prime required"):
            newton_entropy(6, (Fraction(1), Fraction(1)))

    def test_matches_index_growth(self):
        # the last cotrajectory ratio equals p^multiple on the same map
        m = rational_matrix([[Fraction(1, 3), 1], [0, 3]])
        seq = cotrajectory_indices(3, m, 5)
        ratio = seq[-1] // seq[-2]
        assert ratio == 3 ** newton_entropy(3, char_poly(m))


rational_entries = st.fractions(min_value=-9, max_value=9, max_denominator=9)


def rational_rows(n):
    return st.lists(
        st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n
    )


def rational_product(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def rational_det_is_zero(rows) -> bool:
    # scale to an integer matrix; the determinant only changes by a power of the lcm
    scale = math.lcm(*(x.denominator for row in rows for x in row))
    return det(IntMatrix.from_rows([[int(x * scale) for x in row] for row in rows])) == 0


class TestRationalInverse:
    @given(st.integers(min_value=1, max_value=5).flatmap(rational_rows))
    @settings(max_examples=100)
    def test_product_is_identity(self, rows):
        assume(not rational_det_is_zero(rows))
        n = len(rows)
        inverse = rational_inverse(rows)
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert rational_product(rows, inverse) == identity
        assert rational_product(inverse, rows) == identity
        assert all(isinstance(x, Fraction) for row in inverse for x in row)

    @given(
        st.integers(min_value=1, max_value=5).flatmap(
            lambda n: st.tuples(
                rational_rows(n), st.lists(rational_entries, min_size=n - 1, max_size=n - 1)
            )
        )
    )
    @settings(max_examples=100)
    def test_singular_raises(self, case):
        # the last row is a combination of the others (the zero row when n == 1)
        rows, coeffs = case
        rows[-1] = [
            sum((c * r[j] for c, r in zip(coeffs, rows)), Fraction(0)) for j in range(len(rows))
        ]
        with pytest.raises(ValueError, match="matrix is singular"):
            rational_inverse(rows)
