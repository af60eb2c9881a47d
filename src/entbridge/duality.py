"""Character duality for finite abelian groups, made exact.

For G = Z^k / diag(d) Z^k the character group is presented on the same
moduli ("self-dual presentation") through the pairing

    <x, y> = sum_i x_i * y_i / d_i   (mod 1),

returned as a ``fractions.Fraction`` in [0, 1), never a float.  On top
of the pairing sit the three workhorses of the package:

* ``annihilator``: the exact perp of a subgroup, X^T Z^k with
  X = B^-1 diag(moduli) for the subgroup's Hermite basis B, read off
  one back-substitution per modulus and put in Hermite form;
* ``dual_hom``: the adjoint of a homomorphism, whose matrix entry
  [j][i] = M[i][j] * d_j / e_i is integral precisely because of the
  homomorphism certificate; when every domain and codomain modulus is
  the same it is the transpose, which is returned as such, with no
  per-entry division (every map of the shift route is of this kind);
* ``check_quotient_duality``: invariant factors of outer/inner against
  those of perp(inner)/perp(outer), which duality says agree; the law
  suite of :mod:`entbridge.bridge` reports this comparison and has no
  copy of its own.

Annihilators exchange sums with intersections, preimages with dual
images, and reverse containments; the test suite exercises all of these
as exact identities of canonical lattices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exactlinalg import IntMatrix, _trusted, hnf, snf
from .fingroup import FinAbGroup, GroupHom, SubgroupLattice

__all__ = [
    "dual_group",
    "pairing",
    "annihilator",
    "dual_hom",
    "quotient_invariants",
    "check_quotient_duality",
]


def dual_group(group: FinAbGroup) -> FinAbGroup:
    """Character group in the self-dual presentation; involutive on the tag.

    Built unchecked: its moduli are those of a group already built."""
    return _trusted(FinAbGroup, group.moduli, not group.dual)


def pairing(group: FinAbGroup, x: Sequence[int], y: Sequence[int]) -> Fraction:
    """Evaluate <x, y> = sum x_i y_i / d_i mod 1 exactly, as a Fraction in [0, 1)."""
    xs = group.reduce(x)
    ys = group.reduce(y)
    n = math.lcm(*group.moduli)
    num = sum(a * b * (n // d) for a, b, d in zip(xs, ys, group.moduli))
    return Fraction(num, n) % 1


def annihilator(subgroup: SubgroupLattice) -> SubgroupLattice:
    """Exact perp: all characters vanishing on the subgroup.

    With B the Hermite basis of the subgroup and D = diag(moduli), y is
    in the perp exactly when B^T D^-1 y is integral, so the perp is
    X^T Z^k with X = B^-1 D.  X is integral because the subgroup contains
    the relations D Z^k: its column i is the coordinate vector of d_i e_i
    in B, which :meth:`HnfBasis.solve` returns.  The perp contains the
    relations of the dual group, which are diag(moduli) again, so its
    Hermite form is :func:`~entbridge.exactlinalg.hnf` of those k rows
    with the moduli: inserted into that diagonal, reduced modulo the
    moduli as they go, on entries never scaled by lcm(moduli).
    """
    g = subgroup.ambient
    # the relation matrix is diagonal: its row i is the column d_i e_i
    rows = [subgroup.basis.solve(r) for r in g.relations.matrix.entries]
    gens = _trusted(IntMatrix, g.rank, g.rank, tuple(rows))
    return _trusted(SubgroupLattice, dual_group(g), hnf(gens, g.moduli))


def dual_hom(f: GroupHom) -> GroupHom:
    """Adjoint homomorphism between the dual groups.

    Defined by pairing(f(x), y) == pairing(x, dual_hom(f)(y)); with domain
    moduli (d_j) and codomain moduli (e_i) the matrix is
    [j][i] = M[i][j] * d_j / e_i, integral by the certificate.  When
    every d_j and e_i is the same modulus that entry is M[i][j], so the
    matrix is the transpose of M, and only mixed moduli divide entry by
    entry.  It is built unchecked: row j lies in [0, d_j) because M[i][j]
    lies in [0, e_i), and e_i times an entry is M[i][j] d_j, zero mod d_j.
    """
    dom, cod = f.domain, f.codomain
    if len(set(dom.moduli).union(cod.moduli)) <= 1:
        return _trusted(GroupHom, dual_group(cod), dual_group(dom), f.matrix.transpose())
    data = []
    for j, dj in enumerate(dom.moduli):
        row = []
        for i, ei in enumerate(cod.moduli):
            num = f.matrix.entries[i][j] * dj
            if num % ei:
                raise AssertionError("certificate guarantees integrality of the adjoint")
            row.append(num // ei)
        data.append(tuple(row))
    matrix = _trusted(IntMatrix, dom.rank, cod.rank, tuple(data))
    return _trusted(GroupHom, dual_group(cod), dual_group(dom), matrix)


def quotient_invariants(outer: SubgroupLattice, inner: SubgroupLattice) -> tuple[int, ...]:
    """Invariant factors (> 1) of the finite quotient outer/inner."""
    if outer.ambient != inner.ambient:
        raise ValueError("subgroups live in different groups")
    # the coordinates of each inner basis column in the outer basis; one
    # that has none means inner is not inside outer
    cols = [outer.basis.solve(c) for c in zip(*inner.basis.matrix.entries)]
    if any(c is None for c in cols):
        raise ValueError("not a subgroup pair")
    rel = IntMatrix.from_columns(cols, rows=outer.basis.dim)
    return tuple(d for d in snf(rel) if d > 1)


def check_quotient_duality(
    outer: SubgroupLattice, inner: SubgroupLattice
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Invariant factors of outer/inner and of perp(inner)/perp(outer).

    Duality identifies the two quotients, so the lists agree; both are
    returned so callers (and tests) can compare them directly.
    """
    primal = quotient_invariants(outer, inner)
    dual_side = quotient_invariants(annihilator(inner), annihilator(outer))
    return primal, dual_side
