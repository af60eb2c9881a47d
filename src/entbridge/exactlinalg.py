"""Exact integer linear algebra: Hermite and Smith normal forms, integer
kernels, and lattice preimages.

Everything runs on arbitrary-precision integers and never rounds.  The
canonical sublattice representation used throughout the package is the
lower-triangular column Hermite normal form computed by :func:`hnf`:
strictly positive diagonal, and every entry left of the diagonal reduced
modulo the diagonal entry of its own row.  Canonicality turns lattice
equality into plain matrix equality, which the higher layers rely on for
exact subgroup comparisons.

There are two integer eliminations here.  The row-scan column echelon
takes arbitrary columns: it reduces the first rows of a list of columns,
the rows below follow the column operations, and the columns left zero
on every reduced row stay behind.  It runs Euclid with the
nearest-integer quotient, so every remainder is at most half the pivot
(Cohen, GTM 138, section 2.4): each round divides by the least entry on
the row, and a column leaves the round once it is zero there.
:func:`hnf` of plain generators reduces every row and puts the pivots in
Hermite form, and :func:`kernel_basis` reads the identity rows of m
stacked on the identity.  :func:`snf` runs the echelon on a matrix and
then on the transpose of its pivot columns, alternately, until every
pivot column has a single nonzero entry (Kannan and Bachem, SIAM J.
Comput. 8, 1979).

The other elimination inserts columns one at a time into the pivots of
a triangular basis.  On row t the column meets the pivot of row t in
one Bezout step, the extended Euclid identity a x + b y = gcd(x, y)
(Cohen, GTM 138, section 1.3) taken from one gcd and one modular
inverse: the new pivot is gcd(x, y) > 0 there, and the column goes on
down, zero on row t.  A row with no pivot yet takes the column.  Into
a Hermite basis that contains diag(d_1, ..., d_k) this is Hermite form
modulo the relations (Domich, Kannan and Trotter, Math. Oper. Res. 12,
1987; Cohen, GTM 138, algorithm 2.4.8): row s of both, for every s
below t, is then reduced modulo d_s.  That is exact: the pivots of
rows s and below still span the part of the lattice zero above row s,
d_s e_s among it.  So no entry past the largest modulus reaches the
Hermite step, where the row-scan on the basis next to the generators
lets entries grow with every row.  :func:`hnf` with `moduli` starts
from diag(moduli) itself; the private :func:`_hnf_insert` trusts its
basis, which its one caller outside this module takes from a subgroup.

:func:`preimage_lattice` uses both.  A column of the tracked basis that
m sends to zero and that is d e_j, d > 0, on its own row j is already a
kernel column and stays the pivot of row j.  The row-scan reduces the
rows of m over the other columns of [m | target] stacked on
[basis | 0], and the kernel columns it leaves, basis . y for a basis of
{y : m y in target}, are inserted among those pivots with no modular
reduction (no relation lattice is known there).

Every Hermite basis ends in one normalizer, :func:`_normalize`, given
the rows whose pivot changed: the pivots must be Hermite except at those
rows.  A changed row's pivot is made positive and reduces every pivot
to its left; any other row reduces only the pivots already modified,
and the rows above the first change are left alone.  :func:`hnf` of
plain generators passes every row; an insertion replaces pivots and
never edits one, and reports the rows it replaced, so
:func:`_hnf_insert` returns its basis itself when it replaced none.

``IntMatrix @ IntMatrix`` is the definitional row-by-column sum.  The
products the package computes all reduce row i modulo a modulus, and
all are built by one row routine, :func:`_rows`, behind
:func:`_product` (:meth:`~entbridge.fingroup.GroupHom.compose` and the
chain steps of :mod:`entbridge.fingroup`) and the powers kernel
:func:`_powers`.  It goes by the shape of each row of the left factor:
a zero row gives zeros, a unit row (a single nonzero entry, 1) copies
the matching row of the right factor, kept as it stands when that row
is already bounded by the same modulus, and any other (dense) row takes
one sum of its entries times the rows of the right factor, each row
packed into a single integer by the one packing routine,
:func:`_packing` (Kronecker substitution): row k packs to
sum_j b[k][j] 2^(w j), so entry j of the product row sits in slot j of
the sum, bits w j to w (j + 1), and is read back with a shift and a
mask.  This is exact because no slot carries into the next: the moduli
bound the entries of both factors, none is negative, every entry of the
product is at most n times the two bounds, n the inner dimension, and w
is the bit length of that bound.  The right factor is packed only if a
dense row occurs, once per product, and once per chain for the powers:
b^(k+1) is b^k times the fixed factor b, so b is packed once for the
whole list.  The one
forward substitution (behind :meth:`HnfBasis.solve`, and
:meth:`HnfBasis.contains_lattice` for all columns of a basis in one
call) skips rows whose residual is already zero.  The shift maps of
:mod:`entbridge.tdlca` are unit rows.  These shortcuts, the zero-image
columns that :func:`preimage_lattice` keeps as pivots and the unchanged
rows that :func:`_normalize` skips, are all the sparsity support there
is: every matrix stays a dense tuple of rows.

Values are checked where they enter, and refused with :class:`InputError`:
``IntMatrix(...)``, ``from_rows`` and ``from_columns`` check the shape of
what they are given.  Every matrix computed here (products, stacks,
transposes, diagonals and Hermite forms) has its shape by construction
and is built unchecked by :func:`_trusted`.
Every tuple of entries or rows built here comes from a list (or is a
row that zip builds, at its final size): tuple() of a list is
allocated at its final size, while tuple() of a generator, a map or a
zip is resized as it grows, and CPython keeps resized tuples on its
per-size free lists until a full collection, which the peak RSS shows.

Deliberately out of scope: floating point, modular determinant tricks
for lattices with no known relations, sparse matrix formats (a step
skips the columns and rows it leaves unchanged, but stores them dense),
and basis reduction.  The intended scale is small ambient rank (up to a
dozen or so) with possibly huge entries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Sequence, TypeVar

__all__ = [
    "InputError",
    "IntMatrix",
    "HnfBasis",
    "hnf",
    "snf",
    "kernel_basis",
    "preimage_lattice",
]

_T = TypeVar("_T")


class InputError(ValueError):
    """A value refused where it enters; an internal check raises plain ValueError."""


def _trusted(cls: type[_T], *values: object) -> _T:
    """The frozen dataclass `cls` holding `values` (its fields, in order),
    built without running ``__post_init__``: only for values the package
    computed, whose invariants hold by construction (matrices, Hermite
    bases, homomorphisms, subgroups and the shift route's groups).  The public
    constructors check; ``tests/test_invariants.py`` rebuilds each value
    made here through them and requires an equal value."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


@dataclass(frozen=True)
class IntMatrix:
    """Immutable arbitrary-precision integer matrix, row-major."""

    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise InputError("matrix dimensions must be non-negative")
        if len(self.entries) != self.rows:
            raise InputError("row count mismatch")
        if any(len(row) != self.cols for row in self.entries):
            raise InputError("column count mismatch")

    # ---- constructors -------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence[int]], cols: int | None = None) -> "IntMatrix":
        data = tuple([tuple([operator.index(x) for x in row]) for row in rows])
        width = len(data[0]) if data else (cols if cols is not None else 0)
        return IntMatrix(len(data), width, data)

    @staticmethod
    def from_columns(columns: Sequence[Sequence[int]], rows: int | None = None) -> "IntMatrix":
        cols = [tuple([operator.index(x) for x in c]) for c in columns]
        height = len(cols[0]) if cols else (rows if rows is not None else 0)
        if any(len(c) != height for c in cols):
            raise InputError("column length mismatch")
        data = tuple(list(zip(*cols))) if cols else ((),) * height
        return _trusted(IntMatrix, height, len(cols), data)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix.diagonal((1,) * n)

    @staticmethod
    def diagonal(values: Sequence[int]) -> "IntMatrix":
        n = len(values)
        data = []
        for i, v in enumerate(values):
            row = [0] * n
            row[i] = operator.index(v)
            data.append(tuple(row))
        return _trusted(IntMatrix, n, n, tuple(data))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return _trusted(IntMatrix, rows, cols, ((0,) * cols,) * rows)

    # ---- views ----------------------------------------------------------

    def column(self, j: int) -> tuple[int, ...]:
        return tuple([row[j] for row in self.entries])

    def column_list(self) -> list[list[int]]:
        return [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        data = list(zip(*self.entries)) if self.rows else [()] * self.cols
        return _trusted(IntMatrix, self.cols, self.rows, tuple(data))

    def hstack(self, other: "IntMatrix") -> "IntMatrix":
        if self.rows != other.rows:
            raise ValueError("row mismatch in hstack")
        data = tuple([a + b for a, b in zip(self.entries, other.entries)])
        return _trusted(IntMatrix, self.rows, self.cols + other.cols, data)

    # ---- arithmetic ------------------------------------------------------

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in matrix product")
        columns = other.transpose().entries
        data = [tuple([sum(map(operator.mul, r, c)) for c in columns]) for r in self.entries]
        return _trusted(IntMatrix, self.rows, other.cols, tuple(data))

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple([sum(map(operator.mul, row, vector)) for row in self.entries])


def _packing(
    b: IntMatrix, moduli: Sequence[int], reduced: Sequence[int]
) -> tuple[list[int], range, int]:
    """(packed, shifts, mask): the rows of b packed into single integers for
    products whose row i is reduced modulo moduli[i], row k of b lying in
    [0, reduced[k]].  Row k packs to sum_j b[k][j] 2^(w j), with w the bit
    length of n max(moduli) max(reduced), n = b.rows: no slot of a sum of
    rows times entries of a row of the left factor carries into the next.
    Slot j of such a sum is read back as sum >> shifts[j] & mask."""
    width = (b.rows * max(moduli) * max(reduced)).bit_length()
    shifts = range(0, width * b.cols, width)
    return [sum(map(operator.lshift, r, shifts)) for r in b.entries], shifts, (1 << width) - 1


def _rows(
    a: IntMatrix, b: IntMatrix, moduli: Sequence[int], reduced: Sequence[int], packing: list
) -> tuple[tuple[int, ...], ...]:
    """The rows of a @ b with row i reduced modulo moduli[i], for a.cols ==
    b.rows, built row by row by the shape of each row of a.

    Row i of a lies in [0, moduli[i]) and row k of b in [0, reduced[k]],
    bounded by the modulus and possibly equal to it (a Hermite row of a
    subgroup holds its diagonal, which may be the modulus itself).  A
    zero row gives zeros, a unit row (a single nonzero entry, 1, at k)
    is row k of b, copied as it stands when reduced[k] == moduli[i] and
    reduced otherwise, and any other row is multiplied into the rows of
    b packed by :func:`_packing`, whose slots are the entries of the
    product row.  `packing` holds that packing of b as its one item, or
    is empty until a dense row first needs it, and then keeps it: a
    caller that multiplies by the same b again passes the same list.  So
    a product row is always congruent to row i of a @ b modulo
    moduli[i], and lies in [0, moduli[i]) when the rows of b lie below
    their bounds.
    """
    n = a.cols
    zero = (0,) * b.cols
    packed = None
    data = []
    for i, row in enumerate(a.entries):
        zeros = row.count(0)
        d = moduli[i]
        if zeros == n:
            data.append(zero)
        elif zeros == n - 1 and 1 in row:
            k = row.index(1)
            data.append(b.entries[k] if d == reduced[k] else tuple([x % d for x in b.entries[k]]))
        else:
            if packed is None:
                if not packing:
                    packing.append(_packing(b, moduli, reduced))
                packed, shifts, mask = packing[0]
            total = sum(map(operator.mul, row, packed))
            data.append(tuple([(total >> s & mask) % d for s in shifts]))
    return tuple(data)


def _product(
    a: IntMatrix, b: IntMatrix, moduli: Sequence[int], reduced: Sequence[int]
) -> IntMatrix:
    """a @ b with row i reduced modulo moduli[i] (:func:`_rows`); b is packed
    only if a dense row of a occurs."""
    return _trusted(IntMatrix, a.rows, b.cols, _rows(a, b, moduli, reduced, []))


def _powers(b: IntMatrix, moduli: Sequence[int]) -> Iterator[IntMatrix]:
    """Yield b, b^2, b^3, ... for a square b whose row i lies in
    [0, moduli[i]), row i of each power reduced modulo moduli[i].

    Each power is the one before it times the fixed factor b, by
    :func:`_rows`, and b is packed once for the whole list, when a dense
    row first needs it.  A power is multiplied only when it is asked for.
    """
    packing: list = []
    power = b
    while True:
        yield power
        power = _trusted(IntMatrix, b.rows, b.cols, _rows(power, b, moduli, moduli, packing))


@dataclass(frozen=True)
class HnfBasis:
    """Canonical basis (columns) of a full-rank sublattice of Z^k.

    The matrix is square, lower triangular with positive diagonal, and each
    entry left of the diagonal lies in [0, diagonal of its row).  Two
    sublattices are equal exactly when their HnfBasis matrices are equal.
    """

    matrix: IntMatrix

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != m.cols:
            raise ValueError("basis matrix must be square")
        for i, row in enumerate(m.entries):
            d = row[i]
            if d <= 0:
                raise ValueError("diagonal entries must be positive")
            if not all(0 <= x < d for x in row[:i]):
                raise ValueError("off-diagonal entries must be reduced")
            if any(row[i + 1 :]):
                raise ValueError("basis matrix must be lower triangular")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def det(self) -> int:
        d = 1
        for i in range(self.dim):
            d *= self.matrix.entries[i][i]
        return d

    def solve(self, vector: Sequence[int]) -> tuple[int, ...] | None:
        """Integer coordinates of `vector` in this basis, or None."""
        if len(vector) != self.dim:
            raise ValueError("vector length mismatch")
        coords = self._substitute([operator.index(x) for x in vector], 0)
        return None if coords is None else tuple(coords)

    def contains(self, vector: Sequence[int]) -> bool:
        return self.solve(vector) is not None

    def contains_lattice(self, other: "HnfBasis") -> bool:
        """Whether every column of `other` lies in this lattice.  Column c of
        `other` is zero above row c (it is lower triangular), so its
        substitution starts at row c."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        columns = enumerate(zip(*other.matrix.entries))
        return all(self._substitute(list(col), c) is not None for c, col in columns)

    def _substitute(self, v: list[int], start: int) -> list[int] | None:
        """Forward substitution of `v`, zero above row `start`, changed in place:
        its coordinates from `start` on, or None if a division is inexact."""
        entries = self.matrix.entries
        k = len(entries)
        coords = []
        for j in range(start, k):
            q = 0
            if v[j]:
                q, r = divmod(v[j], entries[j][j])
                if r:
                    return None
                for i in range(j + 1, k):
                    v[i] -= q * entries[i][j]
            coords.append(q)
        return coords


def _echelon(pending: list[list[int]], rows: int) -> list[list[int] | None]:
    """Column echelon of the columns `pending` on their first `rows` rows.

    Row i is shrunk by Euclid across the pending columns until at most one
    is nonzero there: the pivot of row i, or None.  Each round takes the
    column of least size on row i (the first, on a tie) and subtracts the
    nearest-integer multiple of it from the others, so every remainder is
    at most half the pivot; a column leaves the round once it is zero on
    row i.  Each pivot leaves `pending`, and the columns left are zero
    above row i, so updates start at row i.  Returns the pivots; `pending`
    keeps the columns left zero on every row reduced, and the rows below
    follow the column operations.
    """
    pivots: list[list[int] | None] = []
    for i in range(rows):
        live = [c for c in pending if c[i]]
        while len(live) > 1:
            sizes = [abs(c[i]) for c in live]
            piv = live[sizes.index(min(sizes))]
            p = piv[i]
            span = range(i, len(piv))
            left = [piv]
            for c in live:
                if c is not piv:
                    # q = round(c[i] / p), half up: |c[i] - q p| <= |p| / 2
                    q = (2 * c[i] + p) // (2 * p)
                    for t in span:
                        c[t] -= q * piv[t]
                    if c[i]:
                        left.append(c)
            live = left
        if live:
            pending.remove(live[0])  # the only pending column nonzero on row i
        pivots.append(live[0] if live else None)
    return pivots


def _normalize(pivots: list[list[int] | tuple[int, ...] | None], changed: list[bool]) -> HnfBasis:
    """Hermite basis of the pivots of every row, changed in place, or
    ValueError("lattice not full rank") if a row has none.  Each pivot is
    a list, or a tuple at a row not flagged, which is copied to a list
    only when a reduction changes it.

    The pivots must be Hermite except at the rows flagged in `changed`:
    the pivot of each other row is positive on its row, and the other
    unflagged pivots to its left are reduced modulo it there.  Rows above
    the first flagged one are left as they are.  A flagged pivot is made
    positive on its own row and reduces every pivot to its left there;
    any other row reduces only the pivots modified so far (the flagged
    ones, and those a reduction changed below an earlier row), since the
    rest are reduced there already.  A pivot that :func:`_insert` makes
    by a Bezout step is positive on its row already; those the row-scan
    makes, and the columns a pivotless row takes, may be negative.
    """
    if None in pivots:
        raise ValueError("lattice not full rank")
    n = len(pivots)
    moved: set[int] = set()
    for i in range(changed.index(True) if True in changed else n, n):
        piv = pivots[i]
        d = piv[i]
        if changed[i]:
            if d < 0:
                piv[:] = [-x for x in piv]
                d = -d
            for j in range(i):
                b = pivots[j]
                q = b[i] // d
                if q:
                    if b.__class__ is tuple:
                        pivots[j] = b = list(b)
                    for t in range(i, n):
                        b[t] -= q * piv[t]
                    moved.add(j)
            moved.add(i)
        else:
            for j in moved:
                b = pivots[j]
                q = b[i] // d
                if q:
                    for t in range(i, n):
                        b[t] -= q * piv[t]
    return _trusted(HnfBasis, _trusted(IntMatrix, n, n, tuple(list(zip(*pivots)))))


def _insert(
    pivots: list[list[int] | tuple[int, ...] | None],
    column: list[int],
    moduli: Sequence[int] | None,
    changed: list[bool],
) -> None:
    """Insert `column` into `pivots`, the pivot of each row of a triangular
    basis, and flag in `changed` each row whose pivot it replaces.  A
    pivot is replaced, never edited in place.

    On each row t where the column is nonzero, with x the entry of the
    pivot of row t and y the column's: when x divides y the column takes
    off y / x times the pivot, which stays; otherwise one Bezout step
    replaces both.  With g = gcd(x, y) > 0, c = -y / g and e = x / g,
    |e| > 1 and y / g is a unit modulo it, so b = (y / g)^-1 mod |e| and
    a = (g - b y) / x are integers with a x + b y = g and a e - b c = 1:
    the new pivot a piv + b column is g on row t, and the column goes on
    to the rows below as c piv + e column, zero on row t.  This unimodular
    2 x 2 transform comes from one gcd and one modular inverse, with no
    Euclid rounds, and acts on the rows below.  With `moduli`, for a
    lattice that contains diag(moduli), each entry of row s of both is
    reduced modulo moduli[s] as it is made.  That reduction takes a
    multiple of d_s e_s off, which the pivots of rows s and below span,
    since they are untouched still and d_s e_s is zero above row s.  With
    no `moduli` (no relation lattice is known), a row may have no pivot
    (None) yet, and the column, zero above that row, becomes its pivot.
    """
    n = len(pivots)
    for t in range(n):
        y = column[t]
        if not y:
            continue
        piv = pivots[t]
        if piv is None:
            pivots[t] = column
            changed[t] = True
            return
        x = piv[t]
        column[t] = 0
        # the tails are short (the rank), so plain loops beat comprehensions
        if not y % x:  # one round, and the pivot stays
            q = y // x
            if moduli is None:
                for s in range(t + 1, n):
                    column[s] -= q * piv[s]
            else:
                for s in range(t + 1, n):
                    column[s] = (column[s] - q * piv[s]) % moduli[s]
            continue
        # one Bezout step: a x + b y = g, c x + e y = 0, a e - b c = 1
        g = math.gcd(x, y)
        c, e = -(y // g), x // g
        b = pow(-c, -1, abs(e))
        a = (g - b * y) // x
        pivots[t] = new = [0] * n
        new[t] = g
        changed[t] = True
        if moduli is None:
            for s in range(t + 1, n):
                u, v = piv[s], column[s]
                new[s] = a * u + b * v
                column[s] = c * u + e * v
        else:
            for s in range(t + 1, n):
                u, v, d = piv[s], column[s], moduli[s]
                new[s] = (a * u + b * v) % d
                column[s] = (c * u + e * v) % d


def _hnf_insert(basis: HnfBasis, gens: IntMatrix, moduli: Sequence[int]) -> HnfBasis:
    """Hermite form of `basis` and the columns of `gens` (:func:`_insert`), for
    a basis whose lattice contains diag(`moduli`), which is not checked.
    Only the rows whose pivot an insertion replaced are normalized again,
    and when none was replaced (every generator lay in the lattice) the
    result is `basis` itself.  :func:`_insert` only reads the pivots it
    keeps, so they stay the columns of `basis`, as tuples, and
    :func:`_normalize` copies only those it changes."""
    pivots: list[list[int] | tuple[int, ...] | None] = list(zip(*basis.matrix.entries))
    changed = [False] * len(pivots)
    for column in zip(*gens.entries):
        if any(column):
            _insert(pivots, list(column), moduli, changed)
    return _normalize(pivots, changed) if True in changed else basis


def hnf(gens: IntMatrix, moduli: Sequence[int] | None = None) -> HnfBasis:
    """Canonical column Hermite form of the columns of `gens` and, when given,
    diag(`moduli`), one positive integer per row: then each column is
    inserted into that diagonal, so no entry grows past its modulus.  With
    no `moduli`, one echelon of the columns, which raises ValueError("lattice
    not full rank") when their span has rank below the ambient dimension.
    Built unchecked: the result is a Hermite basis by construction."""
    if moduli is None:
        pivots = _echelon([list(c) for c in zip(*gens.entries)], gens.rows)
        return _normalize(pivots, [True] * gens.rows)
    if len(moduli) != gens.rows or any(d < 1 for d in moduli):
        raise InputError("moduli must be positive, one per row of the generators")
    return _hnf_insert(_trusted(HnfBasis, IntMatrix.diagonal(moduli)), gens, moduli)


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """Columns spanning the whole integer kernel {x : m @ x = 0}.

    Read off the identity block of the echelon of m stacked on the
    identity.  The column operations are unimodular, so the basis is
    saturated (it generates the kernel exactly, not a finite-index
    sublattice of it).
    """
    pending = [list(c) for c in zip(*m.entries, *IntMatrix.identity(m.cols).entries)]
    _echelon(pending, m.rows)
    return IntMatrix.from_columns([c[m.rows :] for c in pending], rows=m.cols)


def preimage_lattice(m: IntMatrix, target: HnfBasis, basis: IntMatrix) -> HnfBasis:
    """HNF basis of {basis @ y : m @ y lies in the target lattice}.

    y is in the preimage exactly when (y, z) is in the kernel of
    [m | target] for some z.  The echelon of [m | target] stacked on
    [basis | 0] reduces the rows of m, leaving basis @ y for a basis of
    that kernel on the rows below.  A column of `basis` that m sends to
    zero and that is d e_j, d > 0, for its own j (every column of a
    diagonal Hermite basis) lies in that kernel as it stands: it stays
    the pivot of row j, skips the echelon, and needs no normalizing,
    since no other such column is nonzero on row j.  The row-scan runs
    over the other columns and the target; the kernel columns it leaves
    are inserted among those pivots (:func:`_insert` with no moduli), and
    :func:`_normalize` puts the rows whose pivot changed in Hermite form.
    Pass the identity for the plain preimage.  The preimage always has
    full rank (it contains det(target) * Z^k), so the result has full
    rank whenever `basis` is square and nonsingular.
    """
    if m.rows != target.dim:
        raise ValueError("codomain dimension mismatch")
    if basis.cols != m.cols:
        raise ValueError("basis and map take different domains")
    k, n = m.rows, basis.rows
    pivots: list[list[int] | None] = [None] * n
    pending = []
    for j, column in enumerate(map(list, zip(*m.entries, *basis.entries))):
        if j < n and column[k + j] > 0 and column.count(0) == k + n - 1:
            pivots[j] = column[k:]
        else:
            pending.append(column)
    pending += [list(c) + [0] * n for c in zip(*target.matrix.entries)]
    _echelon(pending, k)
    changed = [False] * n
    for column in pending:
        tracked = column[k:]
        if any(tracked):
            _insert(pivots, tracked, None, changed)
    return _normalize(pivots, changed)


def snf(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors of `m`: the diagonal of its Smith normal form.

    The tuple has min(rows, cols) entries, non-negative, each dividing
    the next, zeros trailing.  The echelons alternate between the pivot
    columns and their transpose until each pivot column has a single
    nonzero entry; those columns are a diagonal matrix up to order.  A
    gcd/lcm exchange over every pair i < j then sorts the exponent of
    each prime, so each entry divides the next.
    """
    pivots = [c for c in _echelon([list(c) for c in zip(*m.entries)], m.rows) if c is not None]
    while any(sum(map(bool, c)) > 1 for c in pivots):
        pivots = [c for c in _echelon([list(c) for c in zip(*pivots)], len(pivots)) if c is not None]
    diag = [abs(next(x for x in c if x)) for c in pivots]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            g = math.gcd(diag[i], diag[j])
            diag[i], diag[j] = g, diag[i] // g * diag[j]
    return tuple(diag) + (0,) * (min(m.rows, m.cols) - len(diag))

