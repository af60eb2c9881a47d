"""Brute-force oracles shared by the test modules.

Everything here works by enumerating group elements and applying
definitions literally, with no lattice arithmetic, so the fast exact
code paths can be checked against first principles on small groups.
The exceptions are :func:`det`, the Bareiss determinant that the
Hermite and Smith forms are checked against, :func:`char_poly_oracle`,
the Faddeev-LeVerrier characteristic polynomial over ``Fraction`` that
the multimodular ``padic.char_poly`` is checked against,
:func:`tower_chains` and :func:`tower_index_sequences`,
shared helpers that build a tower's two chains once and read both index
sequences off them with the checked ``index``, and the re-presentation oracle: :func:`unimodular_pair` draws a random change of
basis together with its inverse, and :func:`conjugate_tower_endo`
presents the same dynamics through one such pair per level, so tests can
check that index sequences do not depend on the presentation.  Last come
the index-sequence laws :func:`validate_indices`, :func:`ratios`,
:func:`ratios_nonincreasing` and :func:`shifted_submultiplicative`, read
literally off the integers, the subadditive bound
:func:`certified_upper_bound`, exact through :class:`LogIndexBound`'s
cross powers, and
:func:`capped_instances`, instances at the schema caps that the golden
digests and the entry-bound check share.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import total_ordering
from itertools import product

from entbridge.exactlinalg import IntMatrix
from entbridge.fingroup import FinAbGroup, GroupHom, SubgroupLattice, index, two_chains
from entbridge.tdlca import Tower, TowerEndo


def all_elements(group: FinAbGroup) -> list[tuple[int, ...]]:
    return [tuple(x) for x in product(*(range(d) for d in group.moduli))]


def closure(group: FinAbGroup, generators) -> frozenset:
    """Subgroup generated by the given elements, by breadth-first addition."""
    seen = {group.zero()}
    frontier = [group.zero()]
    gens = [group.reduce(g) for g in generators]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def subgroup_elements(sub: SubgroupLattice) -> frozenset:
    """Elements of a subgroup, from its basis columns by closure."""
    basis = sub.basis.matrix
    gens = [basis.column(j) for j in range(basis.cols)]
    return frozenset(closure(sub.ambient, gens))


def oracle_sum(a: frozenset, b: frozenset, group: FinAbGroup) -> frozenset:
    return frozenset(group.add(x, y) for x in a for y in b)


def oracle_image(f: GroupHom, elements) -> frozenset:
    return frozenset(f.apply(x) for x in elements)


def oracle_preimage(f: GroupHom, target: frozenset) -> frozenset:
    return frozenset(x for x in all_elements(f.domain) if f.apply(x) in target)


def oracle_kernel(f: GroupHom) -> frozenset:
    return oracle_preimage(f, frozenset({f.codomain.zero()}))


def oracle_pairing(group: FinAbGroup, x, y) -> Fraction:
    total = sum(Fraction(a * b, d) for a, b, d in zip(x, y, group.moduli))
    return total % 1


def oracle_annihilator(group: FinAbGroup, elements: frozenset) -> frozenset:
    out = []
    for y in all_elements(group):
        if all(oracle_pairing(group, x, y) == 0 for x in elements):
            out.append(y)
    return frozenset(out)


def oracle_cotrajectory(f: GroupHom, elements: frozenset, steps: int) -> frozenset:
    current = set(elements)
    for _ in range(steps - 1):
        pulled = {x for x in all_elements(f.domain) if f.apply(x) in current}
        current = elements & pulled
    return frozenset(current)


def oracle_trajectory(f: GroupHom, elements: frozenset, steps: int) -> frozenset:
    current = frozenset(elements)
    for _ in range(steps - 1):
        pushed = oracle_image(f, current)
        current = oracle_sum(elements, pushed, f.domain)
    return current


def det(m: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def char_poly_oracle(matrix) -> tuple[Fraction, ...]:
    """Coefficients (c_0, ..., c_d) of det(xI - M) by Faddeev-LeVerrier over Fraction.

    M_1 = M, c_(d-k) = -tr(M_k) / k and M_(k+1) = M (M_k + c_(d-k) I):
    exact rational arithmetic throughout, sharing nothing with the
    Hessenberg recurrence and the CRT that ``padic.char_poly`` uses.
    """
    d = len(matrix)
    m = [[Fraction(x) for x in row] for row in matrix]
    coeffs = [Fraction(0)] * d + [Fraction(1)]
    b = [[Fraction(int(i == j)) for j in range(d)] for i in range(d)]
    for k in range(1, d + 1):
        a = [
            [sum((m[i][t] * b[t][j] for t in range(d)), Fraction(0)) for j in range(d)]
            for i in range(d)
        ]
        coeffs[d - k] = -sum((a[i][i] for i in range(d)), Fraction(0)) / k
        b = [[a[i][j] + (coeffs[d - k] if i == j else 0) for j in range(d)] for i in range(d)]
    return tuple(coeffs)


def tower_chains(endo, j, steps):
    """([W_1, ..., W_steps], [T_1, ..., T_steps]): the driver's chains of one
    call of TowerEndo.pairs."""
    (cotrajectory, _), (trajectory, _) = two_chains(*endo.pairs(j, steps), steps)
    return cotrajectory, trajectory


def tower_index_sequences(endo, j, steps):
    """(a_n = [W_1 : W_n], b_n = [T_n : T_1]) by the checked index, from one
    build of a tower's chains."""
    cotrajectory, trajectory = tower_chains(endo, j, steps)
    primal = tuple(index(cotrajectory[0], w) for w in cotrajectory)
    dual_side = tuple(index(t, trajectory[0]) for t in trajectory)
    return primal, dual_side


def unimodular_pair(rng, n, steps=None):
    """(U, U^-1) for a random determinant +-1 matrix U of size n.

    U is a product of elementary row operations with small shear
    coefficients (3n of them by default).  Each one is mirrored on U^-1
    by the inverse column operation: row i += c row j pairs with column
    j -= c column i, and a swap or a negation is its own inverse.
    """
    if n < 1:
        raise ValueError("dimension must be positive")
    if steps is None:
        steps = 3 * n
    a = [[int(i == j) for j in range(n)] for i in range(n)]
    inverse_cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        if n >= 2:
            i, j = rng.sample(range(n), 2)
        else:
            i = j = 0
        if kind == 0 and n >= 2:
            c = rng.choice([-2, -1, 1, 2])
            a[i] = [x + c * y for x, y in zip(a[i], a[j])]
            inverse_cols[j] = [x - c * y for x, y in zip(inverse_cols[j], inverse_cols[i])]
        elif kind == 1 and n >= 2:
            a[i], a[j] = a[j], a[i]
            inverse_cols[i], inverse_cols[j] = inverse_cols[j], inverse_cols[i]
        else:
            a[i] = [-x for x in a[i]]
            inverse_cols[i] = [-x for x in inverse_cols[i]]
    return IntMatrix.from_rows(a, cols=n), IntMatrix.from_columns(inverse_cols, rows=n)


def conjugate_tower_endo(endo, pairs):
    """The same dynamics re-presented through level-wise changes of basis.

    `pairs` holds one (U, U^-1) per level; U is an automorphism of its
    level, and every projection and component is conjugated by these, so
    the index sequences are unchanged.
    """
    tower = endo.tower
    assert len(pairs) == tower.height, "need one (U, U^-1) pair per level"
    forward = [GroupHom(g, g, u) for g, (u, _) in zip(tower.levels, pairs)]
    backward = [GroupHom(g, g, v) for g, (_, v) in zip(tower.levels, pairs)]
    projections = [
        forward[k].compose(pi).compose(backward[k + 1]) for k, pi in enumerate(tower.projections)
    ]
    maps = [forward[k].compose(f).compose(backward[k + endo.lag]) for k, f in enumerate(endo.maps)]
    return TowerEndo(Tower(tower.levels, projections), endo.lag, maps)


def validate_indices(indices) -> tuple[int, ...]:
    """Nondecreasing positive integers, else ValueError."""
    seq = tuple(indices)
    if not seq:
        raise ValueError("invalid index sequence")
    for a in seq:
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise ValueError("invalid index sequence")
    for a, b in zip(seq, seq[1:]):
        if b < a:
            raise ValueError("invalid index sequence")
    return seq


@total_ordering
@dataclass(frozen=True, eq=False)
class LogIndexBound:
    """The exact real number log(index) / steps, ordered by the cross
    powers index ** other.steps against other.index ** steps."""

    index: int
    steps: int

    def as_float(self) -> float:
        return math.log(self.index) / self.steps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogIndexBound):
            return NotImplemented
        return self.index**other.steps == other.index**self.steps

    def __lt__(self, other: "LogIndexBound") -> bool:
        return self.index**other.steps < other.index**self.steps

    def exceeded_by_ratio(self, ratio: int) -> bool:
        """Whether log(ratio) > self, decided exactly."""
        return ratio**self.steps > self.index


def certified_upper_bound(indices) -> LogIndexBound:
    """The subadditive bound: b_k = log a_(k+1) is subadditive, so the
    entropy is inf log(a_n)/(n-1) over n >= 2, and each candidate is an
    upper bound.  The oracle that the ratio law's bound log r_(N-1) is
    compared against."""
    seq = validate_indices(indices)
    if len(seq) < 2:
        raise ValueError("invalid index sequence")
    return min(LogIndexBound(a, n) for n, a in enumerate(seq[1:], start=1))


def ratios(indices) -> tuple[int, ...]:
    """Successive ratios a_{n+1} / a_n; they must be integers."""
    seq = validate_indices(indices)
    if any(b % a for a, b in zip(seq, seq[1:])):
        raise ValueError("invalid index sequence")
    return tuple(b // a for a, b in zip(seq, seq[1:]))


def ratios_nonincreasing(indices) -> bool:
    """Log-concavity a_{k+1}^2 >= a_k * a_{k+2}, i.e. nonincreasing ratios."""
    seq = validate_indices(indices)
    return all(b * b >= a * c for a, b, c in zip(seq, seq[1:], seq[2:]))


def shifted_submultiplicative(indices) -> bool:
    """Check a_{n+m+1} <= a_{n+1} * a_{m+1} wherever defined (1-based)."""
    seq = validate_indices(indices)
    n = len(seq)
    return all(seq[i + j] <= seq[i] * seq[j] for i in range(1, n) for j in range(i, n - i))


def capped_instances() -> dict[str, dict]:
    """Verify instances at the schema caps, where the Hermite entries of a
    chain step are widest: finite rank 16 with moduli 2^128 and 16
    generators, and with moduli alternating 2^128 and 6^49 (the
    endomorphism by the residue rule, entry (i, j) a multiple of
    d_i / gcd(d_i, d_j)); the shift over Z/2^128 at height 64 from level
    1; a dense 16 x 16 qp matrix of thirds over Q_3 at 64 steps, whose
    working modulus is 3^63; and the upper-bidiagonal 16 x 16 qp matrix
    with 1/4 on the diagonal over Q_2 at 64 steps, working modulo 2^126.
    Each is built from its own random.Random(0)."""
    rng = random.Random(0)
    pow2 = [2**128] * 16
    vector = lambda: [rng.randrange(2**128) for _ in range(16)]
    finite_pow2 = {
        "kind": "finite", "moduli": pow2, "steps": 64,
        "endomorphism": [vector() for _ in range(16)], "subgroup": [vector() for _ in range(16)],
    }
    rng = random.Random(0)
    mixed = [2**128 if i % 2 == 0 else 6**49 for i in range(16)]
    entry = lambda di, dj: di // math.gcd(di, dj) * rng.randrange(math.gcd(di, dj))
    finite_mixed = {
        "kind": "finite", "moduli": mixed, "steps": 64,
        "endomorphism": [[entry(di, dj) for dj in mixed] for di in mixed],
        "subgroup": [[rng.randrange(d) for d in mixed] for _ in range(2)],
    }
    rng = random.Random(0)
    thirds = [[f"{rng.randrange(-9, 10)}/3" for _ in range(16)] for _ in range(16)]
    bidiagonal = [["1/4" if c == r else "1" if c == r + 1 else "0" for c in range(16)] for r in range(16)]
    return {
        "finite-2^128-rank-16": finite_pow2,
        "finite-mixed-rank-16": finite_mixed,
        "shift-2^128-height-64": {"kind": "shift", "modulus": 2**128, "height": 64, "level": 1, "steps": 63},
        "qp-dense-3-steps-64": {"kind": "qp", "prime": 3, "matrix": thirds, "steps": 64},
        "qp-bidiagonal-2-steps-64": {"kind": "qp", "prime": 2, "matrix": bidiagonal, "steps": 64},
    }
