"""Exact entropy arithmetic on Q_p^d.

The index sequences of a matrix A on Q_p^d are read off one finite
group, the reduction :mod:`entbridge.tdlca` uses for towers.  Write
A = B / (u p^e) with B an integer matrix and u a unit at p, and let
U = Z_p^d.  The n-step cotrajectory of U is {x : B^k x in p^(ke) U,
k < n}, and it contains p^N U for N = (steps - 1) e.  So both routes
run on the one group G = (Z/p^N)^d, through the maps p^(N-ke) B^k,
reduced modulo p^N.  B^k x lies in p^(ke) G exactly when
p^(N-ke) B^k x = 0 in G, so the cotrajectory chain is the running
intersection of the kernels of these maps; and, scaled by p^N, the
trajectory U + AU + ... + A^(n-1)U becomes the running sum of the
images B^k (p^(N-ke) G) = p^(N-ke) B^k (G).  :func:`cotrajectory_pairs`
gives these maps with the trivial subgroup and :func:`trajectory_pairs`
with the whole group G, one subgroup per side, and
:func:`entbridge.fingroup.two_chains` builds both chains.  A join step
takes the columns of its map with no product, a step whose map or
product is zero takes no elimination (the first map, p^N B^0, is zero),
and a meet product, reduced modulo p^N, is reduced modulo the target,
the relation lattice, too.  The powers come from the kernel
:func:`~entbridge.exactlinalg._powers`, one product each by the fixed
factor B mod p^N, and each is scaled straight into its one map.  Each
route is called with its own matrix, so the adjoint route powers and
scales the transpose that it is given and shares nothing with the
primal route but the finite arithmetic.

A compact open subgroup of Q_p^d is a full-rank Z_p-lattice, and the
lattice layer below models it directly over the rationals: clear unit
denominators column by column, scale by p^e into the integers, take the
column Hermite form, and saturate with p^v * I (v the p-part of the
determinant) so that the stored integer matrix spans exactly (Z_p-span
of the generators) intersect Z^d.  Two generating sets of the same
lattice produce the same stored pair (matrix, e), so lattice equality is
structural equality, and indices are read off determinant valuations.
The pairing x . y mod Z_p makes Q_p^d self-dual with adjoint =
transpose.  The index sequences do not use this layer; the tests
compare them against its preimage and sum recursion.

The closed-form route is the Newton polygon: the entropy of a matrix is
log(p) times the sum of the positive slopes of the lower hull of the
points (i, v_p(c_i)) of the nonzero coefficients of the characteristic
polynomial, counted with multiplicity (a singular matrix has c_0 = 0,
and its zero eigenvalues add nothing); that sum is a nonnegative
integer m, so the value is carried as the multiple m of log(p) and
compared exactly.

The characteristic polynomial is computed on one exact integer path,
scaled row by row.  Let D_r be the lcm of the denominators in row r,
C = diag(D) A (integral) and P the product of the D_r.  Up to sign,
c_(d-m)(A) is the sum of the principal m-minors of A, and the minor on
the rows and columns S is det C_S / (product of D_r, r in S).  So
P c_(d-m)(A) is an integer, and by Hadamard's inequality on the rows it
is at most [x^m] of the product of (D_r + nu_r x), nu_r the 2-norm of
row r of C rounded up.  Each P c_i(A) is found modulo primes q near
2^81: A itself is reduced mod q, row r as the inverse of D_r times
row r of C, the Hessenberg recurrence gives det(xI - A)
mod q (Cohen, GTM 138, §2.2), and the result is multiplied by P mod q.
A prime that divides some D_r has no such inverse and is skipped.  The
residues are lifted by the Chinese remainder theorem to the
representative of least absolute value, which is exact once the product
M of the primes exceeds twice the bound: every P c_i(A) lies in
(-M/2, M/2), where its residue mod M determines it.  The primes are
found once, in descending order, by :func:`is_prime`.

:func:`rational_matrix` is the one reader of instance matrices; the
real kind (:mod:`entbridge.realspace`) reads its matrix through it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from operator import mul
from typing import Iterator, Sequence, Union

from .exactlinalg import HnfBasis, InputError, IntMatrix, _powers, _trusted, hnf
from .fingroup import FinAbGroup, GroupHom, Side, _indexed, full_subgroup, join_chain, kernel
from .fingroup import meet_chain, trivial_subgroup

__all__ = [
    "PadicLattice",
    "is_prime",
    "rational_matrix",
    "rational_inverse",
    "standard_lattice",
    "lattice_from_columns",
    "contains",
    "index_valuation",
    "lattice_index",
    "apply_matrix",
    "preimage",
    "sum_lattices",
    "dual_lattice",
    "cotrajectory_pairs",
    "trajectory_pairs",
    "cotrajectory_indices",
    "trajectory_indices",
    "char_poly",
    "newton_entropy",
]

RationalLike = Union[int, float, str, Fraction]
RationalMatrix = tuple[tuple[Fraction, ...], ...]


# Miller-Rabin with these bases is exact below _MR_BOUND (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981

# Largest working modulus p^N, as a power of two.  The time of the index
# sequences grows with N log p.  Measured for a 16 x 16 matrix over 64
# steps (p = 2, one `verify_instance` call, 2-vCPU Xeon VM): at 2^126 an upper
# bidiagonal matrix takes 0.12-0.15 s and a dense one 0.24-0.33 s; with
# the cap raised to 2^1008 they take 0.2 s and 1.4 s.
_LEVEL_BITS = 128


def is_prime(n: int) -> bool:
    """Exact primality test: deterministic Miller-Rabin with the prime bases 2..41.

    It is exact only below 3 317 044 064 679 887 385 961 981, so any n at
    or above that bound raises InputError.
    """
    if n >= _MR_BOUND:
        raise InputError(f"primality is decided only below {_MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(x: RationalLike) -> Fraction:
    """One matrix entry as an exact rational; an entry with no exact value is an input error."""
    if isinstance(x, float) and not math.isfinite(x):
        raise InputError(f"matrix entry {x!r} is not a finite number")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise InputError(f"matrix entry {x!r} has a zero denominator") from None
    except ValueError as exc:  # Fraction's "Invalid literal for Fraction: ..."
        raise InputError(str(exc)) from None


def rational_matrix(entries: Sequence[Sequence[RationalLike]]) -> RationalMatrix:
    """Normalize nested ints / floats / 'a/b' strings / Fractions into a square Fraction grid;
    an unreadable entry or a matrix that is not square raises InputError."""
    rows = tuple(tuple(_rational(x) for x in row) for row in entries)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise InputError("endomorphism matrix must be square: nonempty, n rows of equal length n")
    return rows


def _vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _vp_frac(x: Fraction, p: int) -> int:
    return _vp(x.numerator, p) - _vp(x.denominator, p)


def _unit_part(n: int, p: int) -> int:
    """Largest divisor of n coprime to p."""
    while n % p == 0:
        n //= p
    return n


def _clear_units(column: Sequence[Fraction], p: int) -> tuple[Fraction, ...]:
    """Scale a column by a p-adic unit so denominators become pure p powers."""
    dens = [x.denominator for x in column if x]
    if not dens:
        return tuple(column)
    u = _unit_part(math.lcm(*dens), p)
    return tuple(x * u for x in column)


def _rat_matmul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    return tuple(
        tuple(sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(len(b[0])))
        for row in a
    )


def _rat_transpose(a: RationalMatrix) -> RationalMatrix:
    return tuple(tuple(row[j] for row in a) for j in range(len(a[0])))


def rational_inverse(rows: Sequence[Sequence[Fraction]]) -> RationalMatrix:
    """Exact Gauss-Jordan inverse; entries must be Fractions (1 / int is a float)."""
    n = len(rows)
    work = [list(r) + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise AssertionError("scaling was chosen to clear this denominator")
    return x.numerator


@dataclass(frozen=True)
class PadicLattice:
    """Canonical form of a full-rank Z_p-lattice: basis = scaled / prime**shift.

    ``scaled`` is a column Hermite basis whose determinant is a power of
    the prime, and ``shift`` is minimal, so equal lattices are equal
    dataclasses.
    """

    prime: int
    scaled: IntMatrix
    shift: int

    def __post_init__(self) -> None:
        if not is_prime(self.prime):
            raise InputError("prime required")
        if self.shift < 0:
            raise ValueError("shift must be nonnegative")
        basis = HnfBasis(self.scaled)
        det = basis.det()
        if _unit_part(det, self.prime) != 1:
            raise ValueError("canonical determinant must be a prime power")
        if self.shift > 0 and all(
            x % self.prime == 0 for row in self.scaled.entries for x in row
        ):
            raise ValueError("shift is not minimal")

    @property
    def dim(self) -> int:
        return self.scaled.rows

    @property
    def det_valuation(self) -> int:
        return _vp(HnfBasis(self.scaled).det(), self.prime)

    def basis_columns(self) -> list[tuple[Fraction, ...]]:
        q = Fraction(1, self.prime**self.shift)
        return [
            tuple(self.scaled.entries[i][j] * q for i in range(self.dim))
            for j in range(self.dim)
        ]

    def basis_rows(self) -> RationalMatrix:
        q = Fraction(1, self.prime**self.shift)
        return tuple(tuple(x * q for x in row) for row in self.scaled.entries)


def standard_lattice(prime: int, dim: int) -> PadicLattice:
    return PadicLattice(prime, IntMatrix.identity(dim), 0)


def lattice_from_columns(
    prime: int, columns: Sequence[Sequence[RationalLike]]
) -> PadicLattice:
    """Canonicalize the Z_p-span of the given rational column vectors."""
    cols = [_clear_units([Fraction(x) for x in col], prime) for col in columns]
    if not cols:
        raise ValueError("lattice not full rank")
    dim = len(cols[0])
    shift = max((_vp(x.denominator, prime) for col in cols for x in col if x), default=0)
    scale = prime**shift
    integral = [[_as_int(x * scale) for x in col] for col in cols]
    h0 = hnf(IntMatrix.from_columns(integral, rows=dim))
    vstar = _vp(h0.det(), prime)
    sat = hnf(h0.matrix, [prime**vstar] * dim)
    entries = [list(row) for row in sat.matrix.entries]
    while shift > 0 and all(x % prime == 0 for row in entries for x in row):
        entries = [[x // prime for x in row] for row in entries]
        shift -= 1
    return PadicLattice(prime, IntMatrix.from_rows(entries, cols=dim), shift)


def _check_pair(a: PadicLattice, b: PadicLattice) -> None:
    if a.prime != b.prime or a.dim != b.dim:
        raise ValueError("lattices live in different spaces")


def _transition(outer: PadicLattice, inner: PadicLattice) -> RationalMatrix:
    """Coordinates of the inner basis in the outer basis."""
    _check_pair(outer, inner)
    raw = _rat_matmul(rational_inverse(outer.basis_rows()), inner.basis_rows())
    return raw


def contains(outer: PadicLattice, inner: PadicLattice) -> bool:
    c = _transition(outer, inner)
    return all(_vp_frac(x, outer.prime) >= 0 for row in c for x in row if x)


def index_valuation(outer: PadicLattice, inner: PadicLattice) -> int:
    """v_p of the index [outer : inner]; the pair must nest."""
    if not contains(outer, inner):
        raise ValueError("not a subgroup pair")
    return (
        inner.det_valuation
        - outer.det_valuation
        + inner.dim * (outer.shift - inner.shift)
    )


def lattice_index(outer: PadicLattice, inner: PadicLattice) -> int:
    return outer.prime ** index_valuation(outer, inner)


def apply_matrix(matrix: RationalMatrix, lattice: PadicLattice) -> PadicLattice:
    """Image lattice; the matrix must keep full rank."""
    image = _rat_matmul(matrix, lattice.basis_rows())
    return lattice_from_columns(lattice.prime, _rat_transpose(image))


def sum_lattices(a: PadicLattice, b: PadicLattice) -> PadicLattice:
    _check_pair(a, b)
    return lattice_from_columns(a.prime, a.basis_columns() + b.basis_columns())


def dual_lattice(a: PadicLattice) -> PadicLattice:
    """Annihilator under the self-pairing x . y mod Z_p: the transpose inverse basis."""
    inv = rational_inverse(_rat_transpose(a.basis_rows()))
    return lattice_from_columns(a.prime, _rat_transpose(inv))


def preimage(
    matrix: RationalMatrix, lattice: PadicLattice, within: PadicLattice
) -> PadicLattice:
    """{x in within : matrix @ x in lattice}, always full rank.

    In coordinates the condition is C y in Z_p^d with
    C = B_lattice^-1 . matrix . B_within; clearing unit rows leaves pure
    p-power denominators, and the condition becomes a kernel over
    (Z / p^c)^d.
    """
    _check_pair(lattice, within)
    p = lattice.prime
    d = lattice.dim
    c = _rat_matmul(rational_inverse(lattice.basis_rows()), _rat_matmul(matrix, within.basis_rows()))
    cleared = [_clear_units(row, p) for row in c]
    depth = max((_vp(x.denominator, p) for row in cleared for x in row if x), default=0)
    if depth == 0:
        return within
    modulus = p**depth
    rows = [[_as_int(x * modulus) % modulus for x in row] for row in cleared]
    level = FinAbGroup((modulus,) * d)
    ker = kernel(GroupHom(level, level, IntMatrix.from_rows(rows, cols=d)))
    coords = tuple(tuple(Fraction(x) for x in row) for row in ker.basis.matrix.entries)
    basis = _rat_matmul(within.basis_rows(), coords)
    return lattice_from_columns(p, _rat_transpose(basis))


def _scaled_powers(
    prime: int, matrix: RationalMatrix, steps: int
) -> tuple[FinAbGroup, Iterator[GroupHom]]:
    """(G, maps) for matrix = B / (u p^e): map k is p^(N-ke) B^k, k < steps, yielded lazily.

    B is integral and u is a unit at p; G = (Z/p^N)^d with
    N = (steps - 1) e is the only group built, and each map is an
    endomorphism of it, its entries reduced modulo p^N.  B enters through
    the public ``GroupHom(...)``, which reduces it; the powers B, B^2, ...
    come from the kernel :func:`~entbridge.exactlinalg._powers`, which
    packs B mod p^N once, and each is scaled straight into its one map
    (:func:`_scaled`); no map is built for an unscaled power.  A working
    modulus p^N above 2^_LEVEL_BITS raises InputError.
    """
    if not is_prime(prime):
        raise InputError("prime required")
    if steps < 1:
        raise ValueError("step count must be at least 1")
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    b = [[x.numerator * (den // x.denominator) for x in row] for row in matrix]
    e = _vp(den, prime)
    top = (steps - 1) * e
    # p >= 2, so top > _LEVEL_BITS already decides it without the power
    if top > _LEVEL_BITS or prime**top > 2**_LEVEL_BITS:
        raise InputError(
            f"working modulus {prime}^{top} exceeds 2^{_LEVEL_BITS}:"
            " use fewer steps or smaller p-power denominators"
        )
    modulus = prime**top
    group = FinAbGroup((modulus,) * len(b))
    reduced = GroupHom(group, group, IntMatrix.from_rows(b)).matrix
    b_powers = chain((IntMatrix.identity(len(b)),), islice(_powers(reduced, group.moduli), steps - 1))
    return group, (_scaled(group, m, prime ** (top - k * e), modulus) for k, m in enumerate(b_powers))


def _scaled(group: FinAbGroup, m: IntMatrix, c: int, modulus: int) -> GroupHom:
    """c m as an endomorphism of `group` = (Z/modulus)^d, its entries
    reduced modulo the modulus: the one map built for m."""
    rows = tuple([tuple([c * x % modulus for x in row]) for row in m.entries])
    return _trusted(GroupHom, group, group, _trusted(IntMatrix, m.rows, m.cols, rows))


def cotrajectory_pairs(prime: int, matrix: RationalMatrix, steps: int) -> Side:
    """The meet side: the maps p^(N-ke) B^k, k < steps, with the trivial
    subgroup.  x lies in U ∩ φ^-1 U ∩ ... ∩ φ^-(n-1) U exactly when B^k x
    lies in p^(ke) G, that is when p^(N-ke) B^k x = 0 in G, for k < n."""
    group, maps = _scaled_powers(prime, matrix, steps)
    return maps, trivial_subgroup(group)


def trajectory_pairs(prime: int, matrix: RationalMatrix, steps: int) -> Side:
    """The join side: the maps p^(N-ke) B^k, k < steps, with the whole G.
    Scaled by p^N, U + φU + ... + φ^(n-1)U is spanned by their images,
    since B^k(p^(N-ke) G) = p^(N-ke) B^k(G), and U is p^N G = 0."""
    group, maps = _scaled_powers(prime, matrix, steps)
    return maps, full_subgroup(group)


def cotrajectory_indices(prime: int, matrix: RationalMatrix, steps: int) -> tuple[int, ...]:
    """a_n for n = 1..steps, from :func:`cotrajectory_pairs` alone."""
    return tuple(_indexed(meet_chain(*cotrajectory_pairs(prime, matrix, steps)), steps, True)[1])


def trajectory_indices(prime: int, matrix: RationalMatrix, steps: int) -> tuple[int, ...]:
    """b_n for n = 1..steps, from :func:`trajectory_pairs` alone."""
    return tuple(_indexed(join_chain(*trajectory_pairs(prime, matrix, steps)), steps, False)[1])


# The primes of the multimodular char_poly, descending from 2^81 - 1, so
# below _MR_BOUND where is_prime decides them; found once, as needed.
_CHI_PRIMES: list[int] = []


def _chi_prime(k: int) -> int:
    """The k-th prime of _CHI_PRIMES, extending the list as needed."""
    while len(_CHI_PRIMES) <= k:
        q = _CHI_PRIMES[-1] - 2 if _CHI_PRIMES else 2**81 - 1
        while not is_prime(q):
            q -= 2
        _CHI_PRIMES.append(q)
    return _CHI_PRIMES[k]


def _char_poly_mod(h: list[list[int]], p: int) -> list[int]:
    """Coefficients (c_0, ..., c_d) of det(xI - H) mod p, for rows h reduced mod p.

    h is brought to upper Hessenberg form in place by similarities, then
    the characteristic polynomials of its leading blocks follow by
    Hessenberg's recurrence (Cohen, GTM 138, Algorithm 2.2.9).
    """
    n = len(h)
    for m in range(1, n - 1):
        col = m - 1
        i = next((r for r in range(m, n) if h[r][col]), None)
        if i is None:
            continue
        if i != m:
            h[i], h[m] = h[m], h[i]
            for row in h:
                row[i], row[m] = row[m], row[i]
        pivot = h[m][col:]
        inv = pow(pivot[0], -1, p)
        # row r -= u_r row m clears h[r][col]; the inverse similarity
        # then adds u_r column r to column m, for every r at once
        weights = [1]
        for r in range(m + 1, n):
            row = h[r]
            u = row[col] * inv % p
            weights.append(u)
            if u:
                row[col:] = [(x - u * y) % p for x, y in zip(row[col:], pivot)]
        for row in h:
            row[m] = sum(map(mul, row[m:], weights)) % p
    # chi_k = (x - h_kk) chi_(k-1) - sum_(i<k) h_ik h_(i+1,i) ... h_(k,k-1) chi_(i-1)
    polys = [[1]]
    for k in range(n):
        acc = [0] + polys[k]
        for j, c in enumerate(polys[k]):
            acc[j] -= h[k][k] * c
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * h[i + 1][i] % p
            if not t:
                break
            f = h[i][k] * t % p
            for j, c in enumerate(polys[i]):
                acc[j] -= f * c
        polys.append([c % p for c in acc])
    return polys[n]


def _crt(residues: Sequence[Sequence[int]], primes: Sequence[int], modulus: int) -> list[int]:
    """The vector c in [0, M)^k with c = r (mod q) for each residue vector r
    and its prime q, where M = modulus is the product of the primes.

    Explicit CRT: c = sum_q s_q M/q (mod M) with s_q = r (M/q)^-1 mod q.
    The sum is merged pairwise, V(S + T) = V(S) M(T) + V(T) M(S), so no
    inverse modulo a large number is ever taken.
    """
    terms = []
    for r, q in zip(residues, primes):
        y = pow(modulus % (q * q) // q, -1, q)  # (M/q)^-1 mod q
        terms.append(([x * y % q for x in r], q))
    while len(terms) > 1:
        merged = [
            ([a * m2 + b * m1 for a, b in zip(v1, v2)], m1 * m2)
            for (v1, m1), (v2, m2) in zip(terms[::2], terms[1::2])
        ]
        terms = merged + terms[2 * len(merged) :]
    return [v % modulus for v in terms[0][0]]


def char_poly(matrix: RationalMatrix) -> tuple[Fraction, ...]:
    """Coefficients (c_0, ..., c_d) of det(xI - M), monic, exact.

    With D_r the lcm of the denominators in row r and P their product,
    each P c_i(M) is an integer.  It is found modulo enough primes near
    2^81 to exceed twice the row-wise Hadamard bound, skipping any prime
    that divides some D_r, then lifted by the CRT and divided by P.
    """
    d = len(matrix)
    if any(len(row) != d for row in matrix):
        raise ValueError("endomorphism matrix must be square")
    dens = [math.lcm(*(x.denominator for x in row)) for row in matrix]
    c_rows = [[x.numerator * (den // x.denominator) for x in row] for row, den in zip(matrix, dens)]
    # P c_(d-m) is a signed sum, over the principal m-minors on rows S, of
    # det C_S times the D_r off S, and |det C_S| is at most the product of
    # the nu_r on S (Hadamard): so it is at most [x^m] prod_r (D_r + nu_r x)
    bound = [1]
    for row, den in zip(c_rows, dens):
        norm2 = sum(x * x for x in row)
        nu = math.isqrt(norm2 - 1) + 1 if norm2 else 0
        bound = [a * den + b * nu for a, b in zip(bound + [0], [0] + bound)]
    limit = 2 * max(bound)
    primes: list[int] = []
    modulus = 1
    k = 0
    while modulus <= limit:
        q = _chi_prime(k)
        k += 1
        if all(den % q for den in dens):
            primes.append(q)
            modulus *= q
    scale = math.prod(dens)
    chis = []
    for q in primes:
        # row r of M is D_r^-1 times row r of C: one inverse per row
        inverses = [pow(den, -1, q) for den in dens]
        h = [[x * inv % q for x in row] for row, inv in zip(c_rows, inverses)]
        s = scale % q
        chis.append([c * s % q for c in _char_poly_mod(h, q)])
    return tuple(
        Fraction(c - modulus if 2 * c > modulus else c, scale)
        for c in _crt(chis, primes, modulus)
    )


def newton_entropy(prime: int, coeffs: Sequence[Fraction]) -> int:
    """Sum of positive lower-hull rises of (i, v_p(c_i)): log of the p-adic
    moduli above 1, with multiplicity, as the integer multiple of log(prime)."""
    if not is_prime(prime):
        raise InputError("prime required")
    points = [
        (i, _vp_frac(Fraction(c), prime)) for i, c in enumerate(coeffs) if Fraction(c) != 0
    ]
    if len(points) < 2:
        return 0
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            ox, oy = hull[-2]
            ax, ay = hull[-1]
            if (ax - ox) * (pt[1] - oy) - (ay - oy) * (pt[0] - ox) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return sum(b[1] - a[1] for a, b in zip(hull, hull[1:]) if b[1] > a[1])
