import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import capped_instances, det, unimodular_pair
from entbridge import exactlinalg, fingroup
from entbridge.bridge import verify_instance
from entbridge.exactlinalg import (
    HnfBasis,
    InputError,
    IntMatrix,
    _hnf_insert,
    _product,
    hnf,
    kernel_basis,
    preimage_lattice,
    snf,
)

small_entries = st.integers(min_value=-9, max_value=9)
# zeros, small values and entries well past 64 bits, both signs
mixed_entries = st.one_of(
    st.just(0), small_entries, st.integers(min_value=-(2**100), max_value=2**100)
)


def square_matrices(max_dim=4, entries=small_entries):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        ).map(lambda rows: IntMatrix.from_rows(rows, cols=n))
    )


@st.composite
def product_pairs(draw):
    """(a, b) with a.cols == b.rows; any dimension may be 0."""
    rows, inner, cols = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))

    def matrix(r, c):
        row = st.lists(mixed_entries, min_size=c, max_size=c)
        grid = draw(st.lists(row, min_size=r, max_size=r))
        return IntMatrix(r, c, tuple(tuple(row) for row in grid))

    return matrix(rows, inner), matrix(inner, cols)


# entries well past 64 bits, both signs
huge_entries = st.integers(min_value=2**64, max_value=2**130).flatmap(
    lambda x: st.sampled_from([x, -x])
)


@st.composite
def shaped_product_pairs(draw):
    """(a, b) with a.cols == b.rows, each row of a drawn by shape: zero, a
    unit row, a single entry -1 or 2, or dense with small or huge entries;
    b mixes zeros, small and huge entries.  Any dimension may be 0."""
    rows, inner, cols = (draw(st.integers(min_value=0, max_value=5)) for _ in range(3))
    grid = []
    for _ in range(rows):
        shape = draw(st.sampled_from(["zero", "unit", "scaled", "dense"]))
        if shape == "dense" or inner == 0:
            entries = st.one_of(st.just(0), small_entries, huge_entries)
            grid.append(draw(st.lists(entries, min_size=inner, max_size=inner)))
            continue
        row = [0] * inner
        if shape != "zero":
            k = draw(st.integers(min_value=0, max_value=inner - 1))
            row[k] = 1 if shape == "unit" else draw(st.sampled_from([-1, 2]))
        grid.append(row)
    entries = st.one_of(st.just(0), small_entries, huge_entries)
    other = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=inner, max_size=inner))
    return IntMatrix(rows, inner, tuple(map(tuple, grid))), IntMatrix(inner, cols, tuple(map(tuple, other)))


def naive_product(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Entry (i, j) is the sum over t of a[i][t] * b[t][j], by definition."""
    data = tuple(
        tuple(sum(a.entries[i][t] * b.entries[t][j] for t in range(a.cols)) for j in range(b.cols))
        for i in range(a.rows)
    )
    return IntMatrix(a.rows, b.cols, data)


# moduli from 1 to 2^128, with the edges of that range on their own
product_moduli = st.one_of(st.sampled_from([1, 2, 2**90, 2**128]), st.integers(1, 2**128))


@st.composite
def reduced_product_pairs(draw):
    """(a, b, moduli, reduced) for a reduced product: ranks 0-16, the moduli
    drawn from a pool of one to three, so a unit row often meets its own
    modulus.  Row i of a is zero, a unit row or dense in [0, moduli[i]);
    row k of b lies in [0, reduced[k]] and often holds the bound itself,
    as a Hermite row whose diagonal is the modulus does."""
    rows, inner, cols = (draw(st.integers(min_value=0, max_value=16)) for _ in range(3))
    pool = draw(st.lists(product_moduli, min_size=1, max_size=3))
    moduli = [draw(st.sampled_from(pool)) for _ in range(rows)]
    reduced = [draw(st.sampled_from(pool)) for _ in range(inner)]
    grid = []
    for d in moduli:
        shape = draw(st.sampled_from(["zero", "unit", "dense"]))
        row = [0] * inner
        if shape == "dense" or inner == 0:
            entries = st.one_of(st.just(0), st.just(d - 1), st.integers(0, d - 1))
            row = draw(st.lists(entries, min_size=inner, max_size=inner))
        elif shape == "unit":
            row[draw(st.integers(min_value=0, max_value=inner - 1))] = 1
        grid.append(row)
    other = [
        draw(st.lists(st.one_of(st.just(0), st.just(r), st.integers(0, r)), min_size=cols, max_size=cols))
        for r in reduced
    ]
    a = IntMatrix(rows, inner, tuple(map(tuple, grid)))
    return a, IntMatrix(inner, cols, tuple(map(tuple, other))), moduli, reduced


# a bound at the edge of a power of two: one below it, at it or one above
edge_bounds = st.integers(min_value=0, max_value=64).flatmap(
    lambda t: st.sampled_from([max(2**t - 1, 1), 2**t, 2**t + 1])
)


@st.composite
def slot_edge_pairs(draw):
    """(a, b, moduli, reduced) for a packed product whose slots fill the
    width _product sets from n, the largest modulus and the largest bound.

    Every entry of b is at its bound R = reduced[k], the same power-of-two
    edge for every row, and every row of a is dense at moduli[i] - 1.  The
    last modulus, 2^s + 1 with 2^s > n R, is the largest, so that row's
    slots hold n R 2^s, of the bit length of n (2^s + 1) R: the width.
    The other moduli are small or at most the last."""
    rows, inner, cols = (draw(st.integers(min_value=1, max_value=8)) for _ in range(3))
    bound = draw(edge_bounds)
    top = 2 ** ((inner * bound).bit_length() + draw(st.integers(0, 64))) + 1
    # modulus 2 on a one-column a would make the row (1,), a unit row
    small = [2, 3] if inner > 1 else [3]
    below = st.sampled_from([*small, top - 2, top - 1, top])
    moduli = [draw(below) for _ in range(rows - 1)] + [top]
    a = IntMatrix.from_rows([[d - 1] * inner for d in moduli])
    b = IntMatrix.from_rows([[bound] * cols] * inner)
    return a, b, moduli, [bound] * inner


def permutation_det(m: IntMatrix) -> int:
    """Leibniz expansion, the slow reference determinant."""
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term *= m.entries[i][perm[i]]
        total += term
    return total


class TestIntMatrix:
    def test_constructors_agree(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m == IntMatrix.from_columns([[1, 3], [2, 4]])
        assert m.transpose() == IntMatrix.from_rows([[1, 3], [2, 4]])

    def test_matmul_apply(self):
        a = IntMatrix.from_rows([[1, 2], [0, 1]])
        b = IntMatrix.from_rows([[1, 0], [3, 1]])
        assert (a @ b).entries == ((7, 2), (3, 1))
        assert a.apply((5, 7)) == (19, 7)

    @given(product_pairs())
    def test_matmul_matches_definition(self, pair):
        a, b = pair
        assert a @ b == naive_product(a, b)

    @given(shaped_product_pairs())
    @settings(max_examples=200)
    def test_matmul_by_row_shape_matches_definition(self, pair):
        # the zero-row, unit-row and dense paths against the triple sum
        a, b = pair
        product = a @ b
        assert product == naive_product(a, b)
        assert (product.rows, product.cols) == (a.rows, b.cols)

    @pytest.mark.parametrize("rows, inner, cols", [(0, 3, 2), (2, 0, 3), (3, 2, 0), (0, 0, 0)])
    def test_matmul_empty_shapes(self, rows, inner, cols):
        a = IntMatrix.from_rows([[1] * inner] * rows, cols=inner)
        b = IntMatrix.from_rows([[2**70] * cols] * inner, cols=cols)
        assert a @ b == IntMatrix.zero(rows, cols)

    def test_matmul_unit_rows_copy_and_scaled_rows_multiply(self):
        big = 2**100 + 7
        b = IntMatrix.from_rows([[big, -3], [5, -big]])
        a = IntMatrix.from_rows([[0, 1], [-1, 0], [0, 2], [0, 0], [1, 1]])
        assert (a @ b).entries == (
            (5, -big),
            (-big, 3),
            (10, -2 * big),
            (0, 0),
            (big + 5, -3 - big),
        )

    @given(reduced_product_pairs())
    @settings(max_examples=200)
    def test_reduced_product_matches_definition(self, case):
        # each row is the product row modulo its modulus, except a unit row
        # that meets a row of b bounded by the same modulus: that row is
        # copied as it stands, congruent and at most the modulus
        a, b, moduli, reduced = case
        product = _product(a, b, moduli, reduced)
        naive = naive_product(a, b)
        assert (product.rows, product.cols) == (a.rows, b.cols)
        for i, (row, d) in enumerate(zip(a.entries, moduli)):
            got = product.entries[i]
            if row.count(0) == a.cols - 1 and 1 in row and reduced[row.index(1)] == d:
                assert got is b.entries[row.index(1)]
            else:
                assert got == tuple(x % d for x in naive.entries[i])
            assert all(0 <= x <= d and (x - y) % d == 0 for x, y in zip(got, naive.entries[i]))

    def test_reduced_unit_row_copies_a_hermite_row_at_the_modulus(self):
        # the relation lattice's rows hold the modulus on the diagonal: a
        # unit row over the same modulus copies one as it stands, entry equal
        # to the modulus, and a dense row over it is reduced below it
        relations = IntMatrix.diagonal([2**128, 2**90])
        a = IntMatrix.from_rows([[0, 1], [3, 5], [1, 0]])
        product = _product(a, relations, [2**90, 2**128, 2**64], [2**128, 2**90])
        assert product.entries == ((0, 2**90), (0, 5 * 2**90), (0, 0))
        assert product.entries[0] is relations.entries[1]

    @given(slot_edge_pairs())
    @settings(max_examples=200)
    def test_packed_product_at_the_edge_of_its_slots(self, case):
        # a slot one bit narrower would carry into the next slot
        a, b, moduli, reduced = case
        product = _product(a, b, moduli, reduced)
        naive = naive_product(a, b)
        assert product.entries == tuple(
            tuple(x % d for x in row) for row, d in zip(naive.entries, moduli)
        )

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            IntMatrix.zero(2, 3) @ IntMatrix.zero(2, 3)

    def test_ragged_rejected(self):
        with pytest.raises(InputError, match="column count mismatch"):
            IntMatrix.from_rows([[1, 2], [3]])
        for columns in ([[1, 2], [3, 4, 5]], [[1, 2, 9], [3, 4]]):
            with pytest.raises(InputError, match="column length mismatch"):
                IntMatrix.from_columns(columns)

    def test_constructor_refuses_a_wrong_shape(self):
        with pytest.raises(InputError, match="dimensions must be non-negative"):
            IntMatrix(-1, 0, ())
        with pytest.raises(InputError, match="row count mismatch"):
            IntMatrix(2, 1, ((1,),))

    @pytest.mark.parametrize("entry", [2.9, 2.0, "1", Fraction(4, 2)])
    def test_entries_must_be_integers(self, entry):
        # an entry must be an int; int() would also take these, truncating 2.9
        for build in (
            IntMatrix.from_rows,
            IntMatrix.from_columns,
            lambda rows: IntMatrix.diagonal(rows[0]),
            lambda rows: HnfBasis(IntMatrix.identity(1)).solve(rows[0]),
        ):
            with pytest.raises(TypeError):
                build([[entry]])

    @given(square_matrices())
    def test_det_matches_leibniz(self, m):
        assert det(m) == permutation_det(m)

    @given(square_matrices(max_dim=3), square_matrices(max_dim=3))
    def test_det_multiplicative(self, a, b):
        if a.rows == b.rows:
            assert det(a @ b) == det(a) * det(b)


class TestHnf:
    def test_worked_example(self):
        basis = hnf(IntMatrix.from_columns([[1, 1], [1, -1]], rows=2))
        assert basis.matrix.entries == ((1, 0), (1, 2))

    def test_diagonal_input(self):
        basis = hnf(IntMatrix.from_columns([[2, 0], [0, 3]], rows=2))
        assert basis.matrix.entries == ((2, 0), (0, 3))

    def test_rank_deficient(self):
        with pytest.raises(ValueError, match="lattice not full rank"):
            hnf(IntMatrix.from_columns([[1, 2], [2, 4]], rows=2))
        with pytest.raises(ValueError, match="lattice not full rank"):
            hnf(IntMatrix.from_columns([[1, 0]], rows=2))

    def test_shape_invariants(self):
        rng = random.Random(1)
        for _ in range(50):
            n = rng.randint(1, 4)
            cols = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n + 2)]
            cols.append([0] * (n - 1) + [97])  # keep full rank likely
            try:
                basis = hnf(IntMatrix.from_columns(cols, rows=n))
            except ValueError:
                continue
            h = basis.matrix.entries
            for i in range(n):
                assert h[i][i] > 0
                for j in range(i + 1, n):
                    assert h[i][j] == 0
                for j in range(i):
                    assert 0 <= h[i][j] < h[i][i]

    @given(square_matrices(max_dim=3), st.integers(min_value=0, max_value=2**30))
    @settings(max_examples=100)
    def test_canonical_under_recombination(self, m, seed):
        """Two generating sets of the same lattice hash to the same basis."""
        if det(m) == 0:
            return
        basis = hnf(m)
        u, _ = unimodular_pair(random.Random(seed), m.rows)
        assert hnf(m @ u) == basis
        assert hnf(basis.matrix) == basis

    def test_solve_and_contains(self):
        basis = hnf(IntMatrix.from_columns([[2, 1], [0, 3]], rows=2))
        for x in range(-4, 5):
            for y in range(-4, 5):
                v = basis.matrix.apply((x, y))
                assert basis.solve(v) == (x, y)
                assert basis.contains(v)
        assert basis.solve((1, 0)) is None

    @given(square_matrices(entries=mixed_entries), st.data())
    def test_solve_coordinates_or_none(self, m, data):
        assume(det(m) != 0)
        basis = hnf(m)
        k = basis.dim
        vectors = st.lists(mixed_entries, min_size=k, max_size=k)
        x = data.draw(vectors)
        assert basis.solve(basis.matrix.apply(x)) == tuple(x)
        v = data.draw(vectors)
        coords = basis.solve(v)
        # v is a member exactly when adjoining it leaves the lattice unchanged
        member = hnf(basis.matrix.hstack(IntMatrix.from_columns([v], rows=k))) == basis
        if coords is None:
            assert not member
        else:
            assert member
            assert basis.matrix.apply(coords) == tuple(v)

    def test_contains_lattice(self):
        outer = hnf(IntMatrix.from_columns([[1, 0], [0, 1]], rows=2))
        inner = hnf(IntMatrix.from_columns([[2, 0], [0, 3]], rows=2))
        assert outer.contains_lattice(inner)
        assert not inner.contains_lattice(outer)
        with pytest.raises(ValueError, match="dimension mismatch"):
            outer.contains_lattice(hnf(IntMatrix.identity(3)))

    def test_contains_lattice_matches_solve_per_column(self):
        # random Hermite pairs, half of them contained by construction
        # (other = self . R) and half drawn independently
        rng = random.Random(31)

        def full_rank(k, scale):
            while True:
                rows = [[rng.randint(-scale, scale) for _ in range(k)] for _ in range(k)]
                m = IntMatrix.from_rows(rows, cols=k)
                if det(m):
                    return m

        seen = set()
        for _ in range(200):
            k = rng.randint(1, 5)
            outer = hnf(full_rank(k, 6))
            if rng.random() < 0.5:
                inner = hnf(outer.matrix @ full_rank(k, 3))
            else:
                inner = hnf(full_rank(k, 6))
            columns = inner.matrix.column_list()
            expected = all(outer.solve(c) is not None for c in columns)
            assert outer.contains_lattice(inner) == expected
            seen.add(expected)
        assert seen == {True, False}


def rational_rank(m: IntMatrix) -> int:
    """Rank over Q, by Gauss-Jordan elimination on Fractions."""
    rows = [[Fraction(x) for x in row] for row in m.entries]
    rank = 0
    for c in range(m.cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def maximal_minor_gcd(m: IntMatrix) -> int:
    """gcd of the m.cols x m.cols minors of a tall matrix.

    It is 1 exactly when the columns are independent and span a saturated
    lattice, one that contains every integer vector of its rational span.
    """
    g = 0
    for rows in combinations(range(m.rows), m.cols):
        g = math.gcd(g, det(IntMatrix.from_rows([m.entries[r] for r in rows], cols=m.cols)))
    return g


# moduli up to 2^128, with 1, 2, 6 and the top on their own
relation_moduli = st.one_of(st.sampled_from([1, 2, 6, 2**128]), st.integers(1, 2**128))


@st.composite
def relation_bases(draw):
    """(basis, moduli): a Hermite basis of rank 1-6 whose lattice contains
    diag(moduli), the row-scan Hermite form of the relations next to 0-3
    columns of entries up to 2^128, so it is the relation lattice itself
    or a lattice above it."""
    k = draw(st.integers(1, 6))
    moduli = draw(st.lists(relation_moduli, min_size=k, max_size=k))
    extra = draw(st.lists(st.lists(st.integers(0, 2**128), min_size=k, max_size=k), max_size=3))
    return hnf(IntMatrix.diagonal(moduli).hstack(IntMatrix.from_columns(extra, rows=k))), moduli


@st.composite
def generator_matrices(draw, moduli):
    """0-5 generator columns for the moduli, each drawn by shape: zero, a
    unit column, or dense, its entries zero, at the modulus less one,
    reduced, or of either sign and past 2^128, so past the modulus."""
    k = len(moduli)
    columns = []
    for _ in range(draw(st.integers(0, 5))):
        shape = draw(st.sampled_from(["zero", "unit", "dense"]))
        column = [0] * k
        if shape == "unit":
            column[draw(st.integers(0, k - 1))] = 1
        elif shape == "dense":
            column = [
                draw(st.one_of(st.just(0), st.just(d - 1), st.integers(0, d - 1), st.integers(-(2**130), 2**130)))
                for d in moduli
            ]
        columns.append(column)
    return IntMatrix.from_columns(columns, rows=k)


@st.composite
def kernel_cases(draw):
    """Any shape up to 3 x 5; tiny entries make rank deficiency common."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    entries = draw(st.sampled_from([st.integers(-2, 2), mixed_entries]))
    grid = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return IntMatrix.from_rows(grid, cols=cols)


@st.composite
def preimage_cases(draw):
    """(m, target): m of size 0 x k (the target is Z^0), 1 x 1, or square
    of size 2 or 3, target any full-rank lattice of determinant at most
    12, drawn directly in Hermite form."""
    r, k = draw(st.sampled_from([(2, 2), (3, 3), (1, 1), (0, 1), (0, 3)]))
    m = IntMatrix.from_rows(
        draw(st.lists(st.lists(small_entries, min_size=k, max_size=k), min_size=r, max_size=r)),
        cols=k,
    )
    diag = draw(
        st.lists(st.integers(1, 4), min_size=r, max_size=r).filter(lambda d: math.prod(d) <= 12)
    )
    rows = [
        [draw(st.integers(0, diag[i] - 1)) if j < i else diag[i] if j == i else 0 for j in range(r)]
        for i in range(r)
    ]
    return m, HnfBasis(IntMatrix.from_rows(rows, cols=r))


class TestHnfModuloRelations:
    """Generators inserted into a Hermite basis that contains the relations,
    against the row-scan of both together: hnf(gens, moduli) into diag(moduli),
    and the private _hnf_insert into any such basis."""

    def test_worked_example(self):
        # Z^2 / diag(4, 6): the generator (2, 3) joins the relations, and
        # then (1, 0) joins that subgroup
        gens = IntMatrix.from_columns([[2, 3]], rows=2)
        relations = hnf(IntMatrix.diagonal([4, 6]))
        subgroup = hnf(gens, [4, 6])
        assert subgroup.matrix.entries == ((2, 0), (3, 6))
        assert subgroup == hnf(relations.matrix.hstack(gens))
        unit = IntMatrix.from_columns([[1, 0]], rows=2)
        assert _hnf_insert(subgroup, unit, [4, 6]).matrix.entries == ((1, 0), (0, 3))
        assert _hnf_insert(subgroup, unit, [4, 6]) == hnf(subgroup.matrix.hstack(unit))

    @given(relation_bases().flatmap(lambda case: st.tuples(st.just(case), generator_matrices(case[1]))))
    @settings(max_examples=300)
    def test_insertion_matches_the_row_scan(self, case):
        (basis, moduli), gens = case
        assert hnf(gens, moduli) == hnf(IntMatrix.diagonal(moduli).hstack(gens))
        assert _hnf_insert(basis, gens, moduli) == hnf(basis.matrix.hstack(gens))

    @given(
        relation_bases().flatmap(
            lambda case: st.tuples(
                st.just(case),
                st.lists(
                    st.lists(st.integers(-(2**130), 2**130), min_size=len(case[1]), max_size=len(case[1])),
                    max_size=4,
                ),
            )
        )
    )
    @settings(max_examples=200)
    def test_generators_in_the_lattice_return_the_basis_itself(self, case):
        # integer combinations of the basis columns replace no pivot
        (basis, moduli), coefficients = case
        columns = [basis.matrix.apply(c) for c in coefficients]
        gens = IntMatrix.from_columns(columns, rows=basis.dim)
        assert _hnf_insert(basis, gens, moduli) is basis

    @given(relation_bases().flatmap(lambda case: st.tuples(st.just(case), generator_matrices(case[1]))))
    @settings(max_examples=300)
    def test_new_generators_give_the_hermite_form_of_both(self, case):
        # the basis itself exactly when every generator lies in its lattice,
        # and otherwise a new basis, the row-scan Hermite form of both
        (basis, moduli), gens = case
        result = _hnf_insert(basis, gens, moduli)
        if all(basis.contains(column) for column in zip(*gens.entries)):
            assert result is basis
        else:
            assert result != basis
            assert result == hnf(basis.matrix.hstack(gens))

    def test_no_generators_give_the_basis(self):
        # (6, 0) = 3 (2, 1) - (0, 3), so the basis contains diag(6, 3)
        basis = hnf(IntMatrix.from_columns([[2, 1], [0, 3]], rows=2))
        zeros = IntMatrix.from_columns([[0, 0]], rows=2)
        relations = hnf(IntMatrix.diagonal([6, 3]))
        for gens in (zeros, IntMatrix.zero(2, 0)):
            assert _hnf_insert(basis, gens, [6, 3]) == basis
            assert hnf(gens, [6, 3]) == relations

    @pytest.mark.parametrize("moduli", [[2], [2, 3, 5], [2, 0], [-4, 6]], ids=["short", "long", "zero", "negative"])
    def test_moduli_refused(self, moduli):
        with pytest.raises(InputError, match="moduli must be positive, one per row of the generators"):
            hnf(IntMatrix.identity(2), moduli)

    def test_package_skips_the_containment_check(self, monkeypatch):
        # no insertion checks its basis: hnf starts from diag(moduli), and the
        # join helper from a subgroup, whose basis holds the relations; such
        # a check would cost about as much as the insertion
        def refuse(self, other):
            raise AssertionError("a containment check ran on the verify route")

        monkeypatch.setattr(HnfBasis, "contains_lattice", refuse)
        finite = {"kind": "finite", "moduli": [12, 18], "endomorphism": [[1, 2], [3, 5]], "subgroup": [[2, 3]], "steps": 6}
        shift = {"kind": "shift", "modulus": 6, "height": 8, "level": 1, "steps": 7}
        for instance in (finite, shift):
            assert verify_instance(instance)["verdict"] == "pass"

    def test_inserted_pivots_stay_within_the_largest_modulus(self, monkeypatch):
        """Every entry of the pivots that _normalize receives from an
        insertion on the dense 16 x 16 qp instance over Q_3 at 64 steps is
        at most the working modulus 3^63.  Without the reduction modulo the
        moduli the same report comes out, but the entries grow with every
        row and the instance takes two orders of magnitude longer."""
        largest = []
        inserting = []
        original_insert, original_normalize = exactlinalg._hnf_insert, exactlinalg._normalize

        def insert_spy(basis, gens, moduli):
            inserting.append(True)
            try:
                return original_insert(basis, gens, moduli)
            finally:
                inserting.pop()

        def normalize_spy(pivots, changed):
            if inserting:
                largest.append(max(abs(x) for piv in pivots for x in piv))
            return original_normalize(pivots, changed)

        for module in (exactlinalg, fingroup):
            monkeypatch.setattr(module, "_hnf_insert", insert_spy)
        monkeypatch.setattr(exactlinalg, "_normalize", normalize_spy)
        report = verify_instance(capped_instances()["qp-dense-3-steps-64"])
        assert report["verdict"] == "pass"
        assert len(largest) > 60  # the join steps ran through the insertion
        assert max(largest) <= 3**63


class TestKernel:
    @given(
        st.lists(
            st.lists(small_entries, min_size=3, max_size=3), min_size=2, max_size=2
        )
    )
    def test_kernel_annihilates(self, rows):
        m = IntMatrix.from_rows(rows, cols=3)
        k = kernel_basis(m)
        if k.cols:
            assert (m @ k).entries == tuple((0,) * k.cols for _ in range(2))

    @given(kernel_cases())
    @settings(max_examples=100)
    def test_kernel_is_a_saturated_basis(self, m):
        # inside the kernel, of the kernel's dimension, and saturated: so it
        # spans every integer kernel vector
        k = kernel_basis(m)
        assert k.rows == m.cols
        assert (m @ k).entries == tuple((0,) * k.cols for _ in range(m.rows))
        assert k.cols == m.cols - rational_rank(m)
        assert maximal_minor_gcd(k) == 1

    def test_kernel_saturated(self):
        # kernel of [2 -2] over Z is spanned by (1, 1), not (2, 2)
        k = kernel_basis(IntMatrix.from_rows([[2, -2]], cols=2))
        assert k.column_list() == [[1, 1]]

    def test_full_rank_matrix_trivial_kernel(self):
        k = kernel_basis(IntMatrix.from_rows([[1, 2], [3, 5]]))
        assert k.cols == 0


class TestPreimageLattice:
    def test_against_enumeration(self):
        m = IntMatrix.from_rows([[1, 2], [0, 2]])
        target = hnf(IntMatrix.from_columns([[2, 0], [0, 4]], rows=2))
        lattice = preimage_lattice(m, target, IntMatrix.identity(2))
        for x in range(-8, 9):
            for y in range(-8, 9):
                expected = target.contains(m.apply((x, y)))
                assert lattice.contains((x, y)) == expected

    @given(preimage_cases())
    @settings(max_examples=100)
    def test_membership_matches_definition(self, case):
        # both lattices contain det(target) * Z^k, so agreeing on every
        # residue mod det(target) means they are equal
        m, target = case
        k, order = m.cols, target.det()
        lattice = preimage_lattice(m, target, IntMatrix.identity(k))
        assert lattice.contains_lattice(HnfBasis(IntMatrix.diagonal([order] * k)))
        for x in product(range(order), repeat=k):
            assert lattice.contains(x) == target.contains(m.apply(x))

    @given(preimage_cases(), st.data())
    @settings(max_examples=100)
    def test_tracked_basis_matches_two_steps(self, case, data):
        # basis . {y : m y in target} in one elimination equals the plain
        # preimage multiplied by the basis and put in Hermite form; a
        # singular basis spans no full-rank lattice
        m, target = case
        k = m.cols
        row = st.lists(st.integers(-6, 6), min_size=k, max_size=k)
        basis = IntMatrix.from_rows(data.draw(st.lists(row, min_size=k, max_size=k)), cols=k)
        if det(basis) == 0:
            with pytest.raises(ValueError, match="lattice not full rank"):
                preimage_lattice(m, target, basis)
            return
        plain = preimage_lattice(m, target, IntMatrix.identity(k))
        assert preimage_lattice(m, target, basis) == hnf(basis @ plain.matrix)

    @given(preimage_cases(), st.data())
    @settings(max_examples=200)
    def test_hermite_basis_with_killed_columns_matches_two_steps(self, case, data):
        # the chain steps' shape: a Hermite basis holding relations, whose
        # sparse generators leave many columns d e_j, and a map that kills
        # some columns; a killed column d e_j stays the pivot of its row
        m, target = case
        k = m.cols
        moduli = data.draw(st.lists(st.integers(1, 6), min_size=k, max_size=k))
        entry = st.sampled_from([0, 0, 0, 1, 2, 5])
        gens = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k), max_size=3))
        basis = hnf(IntMatrix.from_columns(gens, rows=k), moduli).matrix
        killed = data.draw(st.sets(st.integers(0, k - 1)))
        m = IntMatrix.from_rows([[0 if j in killed else x for j, x in enumerate(row)] for row in m.entries], cols=k)
        plain = preimage_lattice(m, target, IntMatrix.identity(k))
        assert preimage_lattice(m, target, basis) == hnf(basis @ plain.matrix)

    def test_killed_unit_columns_skip_the_elimination(self, monkeypatch):
        # m kills 2 e_0 and 5 e_2, which stay pivots; of the tracked columns
        # only the one for 3 e_1, with y_1 in 4Z, is inserted
        inserted = []
        original = exactlinalg._insert

        def spy(pivots, column, moduli, changed):
            inserted.append(list(column))
            return original(pivots, column, moduli, changed)

        monkeypatch.setattr(exactlinalg, "_insert", spy)
        m = IntMatrix.from_rows([[0, 1, 0]])
        target = hnf(IntMatrix.from_rows([[4]]))
        lattice = preimage_lattice(m, target, IntMatrix.diagonal([2, 3, 5]))
        assert lattice.matrix == IntMatrix.diagonal([2, 12, 5])
        assert inserted == [[0, -12, 0]]

    @pytest.mark.parametrize(
        "m, target, rows",
        [
            # column (3, 2) is killed but nonzero above its row
            ([[1, 0]], [[2]], [[1, 3], [0, 2]]),
            # lower triangular, both columns killed, 5 unreduced modulo 3
            ([[0, 0]], [[1]], [[2, 0], [5, 3]]),
            # a negative diagonal on a killed unit column
            ([[1, 0]], [[3]], [[1, 0], [0, -4]]),
        ],
        ids=["nonzero-above", "unreduced", "negative"],
    )
    def test_killed_columns_of_other_bases(self, m, target, rows):
        m, basis = IntMatrix.from_rows(m), IntMatrix.from_rows(rows)
        target = hnf(IntMatrix.from_rows(target))
        plain = preimage_lattice(m, target, IntMatrix.identity(2))
        assert preimage_lattice(m, target, basis) == hnf(basis @ plain.matrix)

    @pytest.mark.parametrize("rows", [[[2, 0, 0], [1, 3, 0], [0, 0, 1]], [[0, 1, 0], [2, 0, 0], [0, 4, -1]]])
    def test_map_with_no_rows(self, rows):
        # m: Z^3 -> Z^0 kills everything, so the result is the basis' lattice
        m, target = IntMatrix(0, 3, ()), hnf(IntMatrix.zero(0, 0))
        basis = IntMatrix.from_rows(rows)
        assert preimage_lattice(m, target, basis) == hnf(basis)

    def test_basis_shape_checked(self):
        m = IntMatrix.identity(2)
        target = hnf(IntMatrix.identity(2))
        with pytest.raises(ValueError, match="different domains"):
            preimage_lattice(m, target, IntMatrix.identity(3))

    def test_always_full_rank(self):
        # even a singular map has a full-rank preimage lattice
        m = IntMatrix.from_rows([[1, 1], [1, 1]])
        target = hnf(IntMatrix.from_columns([[5, 0], [0, 5]], rows=2))
        lattice = preimage_lattice(m, target, IntMatrix.identity(2))
        assert lattice.det() > 0
        assert lattice.contains((1, -1))


@st.composite
def snf_cases(draw):
    """Any shape up to 4 x 5, 0 rows or 0 columns included; entries in
    [-2, 2] make rank deficiency common."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    row = st.lists(st.integers(-2, 2), min_size=cols, max_size=cols)
    return IntMatrix.from_rows(draw(st.lists(row, min_size=rows, max_size=rows)), cols=cols)


def minor_gcd(m: IntMatrix, size: int) -> int:
    """gcd of all size x size minors of m (0 when every one vanishes)."""
    g = 0
    for rows in combinations(range(m.rows), size):
        for cols in combinations(range(m.cols), size):
            minor = IntMatrix.from_rows([[m.entries[r][c] for c in cols] for r in rows], cols=size)
            g = math.gcd(g, det(minor))
    return g


class TestSnf:
    def test_worked_example(self):
        assert snf(IntMatrix.from_rows([[2, 0], [0, 3]])) == (1, 6)

    @given(snf_cases())
    @settings(max_examples=200)
    def test_determinantal_divisors_and_divisibility(self, m):
        # d_1 ... d_i is the gcd of the i x i minors, for every i
        d = snf(m)
        assert len(d) == min(m.rows, m.cols)
        for i in range(1, len(d) + 1):
            assert math.prod(d[:i]) == minor_gcd(m, i)
        nonzero = [x for x in d if x]
        assert all(x > 0 for x in nonzero)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
        assert list(d) == nonzero + [0] * (len(d) - len(nonzero))


# a few magnitudes of both signs, most of them negative: rows with equal
# sizes make tied pivots (the first is taken), and negative pivots give
# negative nearest-integer quotients
tied_entries = st.sampled_from([0, 1, -1, 2, -2, -3, -4, 6, -6, 2**70, -(2**70), -(3 * 2**69)])


@st.composite
def tied_matrices(draw):
    """Any shape up to 3 x 5 over `tied_entries`; a drawn row may be
    negated whole, so every pivot candidate on it is negative."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    grid = []
    for _ in range(rows):
        row = draw(st.lists(tied_entries, min_size=cols, max_size=cols))
        grid.append([-abs(x) for x in row] if draw(st.booleans()) else row)
    return IntMatrix.from_rows(grid, cols=cols)


class TestEchelonTiesAndSigns:
    """hnf, kernel_basis and snf on negative pivots and tied pivot sizes."""

    def test_worked_examples(self):
        # sizes tie on row 0 at 2 and the pivot -2 is negative
        assert kernel_basis(IntMatrix.from_rows([[-2, 2]], cols=2)).column_list() == [[1, 1]]
        assert kernel_basis(IntMatrix.from_rows([[-2, -2]], cols=2)).column_list() in ([[1, -1]], [[-1, 1]])
        assert hnf(IntMatrix.from_rows([[-4, -6, -4]], cols=3)).matrix.entries == ((2,),)
        assert snf(IntMatrix.from_rows([[-2, -2], [-2, 2]])) == (2, 4)

    @given(tied_matrices())
    @settings(max_examples=200)
    def test_hnf_spans_the_columns(self, m):
        # the columns lie in the Hermite lattice, and its determinant is the
        # gcd of the maximal minors, the determinant of their span
        span_det = minor_gcd(m, m.rows)
        if span_det == 0:
            with pytest.raises(ValueError, match="lattice not full rank"):
                hnf(m)
            return
        basis = hnf(m)
        HnfBasis(basis.matrix)  # passes the Hermite checks
        assert basis.det() == span_det
        assert all(basis.solve(c) is not None for c in m.column_list())

    @given(tied_matrices())
    @settings(max_examples=200)
    def test_kernel_is_a_saturated_basis(self, m):
        k = kernel_basis(m)
        assert (m @ k).entries == tuple((0,) * k.cols for _ in range(m.rows))
        assert k.cols == m.cols - rational_rank(m)
        assert maximal_minor_gcd(k) == 1

    @given(tied_matrices())
    @settings(max_examples=200)
    def test_snf_determinantal_divisors(self, m):
        d = snf(m)
        for i in range(1, len(d) + 1):
            assert math.prod(d[:i]) == minor_gcd(m, i)
        nonzero = [x for x in d if x]
        assert all(x > 0 for x in nonzero)
        assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))


# positive moduli of the magnitudes in tied_entries, so a column entry and
# the pivot it meets may fail to divide each other either way
tied_moduli = st.sampled_from([1, 2, 3, 4, 6, 2**70, 3 * 2**69])


@st.composite
def tied_preimage_cases(draw):
    """(m, target, basis): the shape and target of `preimage_cases`, with the
    map and a nonsingular basis over `tied_entries`, so the kernel columns
    inserted with no moduli meet negative pivots."""
    m, target = draw(preimage_cases())
    k = m.cols
    rows = lambda r: st.lists(st.lists(tied_entries, min_size=k, max_size=k), min_size=r, max_size=r)
    basis = draw(rows(k).filter(lambda b: det(IntMatrix.from_rows(b)) != 0))
    return IntMatrix.from_rows(draw(rows(m.rows)), cols=k), target, IntMatrix.from_rows(basis)


class TestInsertionTiesAndSigns:
    """The insertion's Bezout step on negative entries, on entries that do not
    divide each other either way and on 2^70 magnitudes, against the row-scan."""

    @pytest.mark.parametrize("moduli", [None, [8, 10]], ids=["plain", "moduli"])
    def test_worked_example(self, moduli):
        # the pivot -4 of row 0 meets the column entry 6: the new pivot is +2
        # there and the column goes on zero there, then meets the pivot 5 of
        # row 1; the columns (-4, 5) and (0, 5) span diag(8, 10)
        pivots = [[-4, 5], [0, 5]]
        column = [6, 14]
        changed = [False, False]
        exactlinalg._insert(pivots, column, moduli, changed)
        assert pivots[0][0] == 2 and column == [0, 0]
        assert changed == [True, True] and pivots[1][1] == 1
        if moduli is None:
            assert pivots[0][1] == 19  # (-4, 5) + (6, 14), a = b = 1
        else:
            assert pivots[0][1] == 9  # 19 reduced modulo 10
        spanned = IntMatrix.from_columns([[-4, 5], [0, 5], [6, 14]])
        assert exactlinalg._normalize(pivots, changed) == hnf(spanned)

    @given(
        st.integers(1, 3).flatmap(
            lambda k: st.tuples(
                st.lists(tied_moduli, min_size=k, max_size=k),
                st.lists(st.lists(tied_entries, min_size=k, max_size=k), max_size=4),
            )
        )
    )
    @settings(max_examples=200)
    def test_hnf_with_moduli_matches_the_row_scan(self, case):
        moduli, columns = case
        gens = IntMatrix.from_columns(columns, rows=len(moduli))
        assert hnf(gens, moduli) == hnf(IntMatrix.diagonal(moduli).hstack(gens))

    @given(tied_preimage_cases())
    @settings(max_examples=200)
    def test_preimage_matches_two_steps(self, case):
        m, target, basis = case
        plain = preimage_lattice(m, target, IntMatrix.identity(m.cols))
        assert preimage_lattice(m, target, basis) == hnf(basis @ plain.matrix)


class TestUnimodular:
    """The tests' re-presentation oracle, checked against the Bareiss determinant."""

    def test_inverse(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 4)
            u, v = unimodular_pair(rng, n)
            assert abs(det(u)) == 1
            assert (u @ v).entries == IntMatrix.identity(n).entries
            assert (v @ u).entries == IntMatrix.identity(n).entries


class TestHnfBasisValidation:
    def test_rejects_non_triangular(self):
        with pytest.raises(ValueError):
            HnfBasis(IntMatrix.from_rows([[1, 1], [0, 1]]))

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            HnfBasis(IntMatrix.from_rows([[2, 0], [5, 3]]))

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(ValueError):
            HnfBasis(IntMatrix.from_rows([[0, 0], [0, 1]]))
