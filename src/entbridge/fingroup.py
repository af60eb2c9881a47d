"""Finite abelian groups presented as Z^k modulo diag(d_1, ..., d_k).

A subgroup is held as the integer lattice of its representatives, an
:class:`~entbridge.exactlinalg.HnfBasis` squeezed between the relation
lattice diag(d) Z^k and Z^k.  Because the basis is canonical, subgroup
equality is structural equality, indices are determinant quotients, and
all operations (sum, intersection, image, preimage, iterated forward and
backward orbits of a subgroup under an endomorphism) reduce to exact
integer lattice computations.

Homomorphisms carry an eagerly checked divisibility certificate:
a matrix M induces a well-defined map between the presented groups
exactly when d_j(domain) * M[i][j] == 0 mod d_i(codomain) for all i, j.

Two more chain builders take a list of maps instead of an
endomorphism: :func:`kernel_chain` intersects the kernels of maps out of
one group, one map at a time, and :func:`image_chain` adds up the images
of maps into one group.  The tower route (:mod:`entbridge.tdlca`) and
the p-adic route (:mod:`entbridge.padic`) both read their index
sequences off these two chains.

Element enumeration is intentionally gated; it exists as a first-class
brute-force oracle for the test suite, not as a computation path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .exactlinalg import HnfBasis, IntMatrix, hnf, preimage_lattice

__all__ = [
    "ENUMERATION_LIMIT",
    "FinAbGroup",
    "SubgroupLattice",
    "GroupHom",
    "subgroup_from_generators",
    "full_subgroup",
    "trivial_subgroup",
    "index",
    "image",
    "preimage",
    "kernel",
    "is_surjective",
    "cotrajectory_chain",
    "trajectory_chain",
    "cotrajectory",
    "trajectory",
    "kernel_chain",
    "image_chain",
]

ENUMERATION_LIMIT = 100_000


@dataclass(frozen=True)
class FinAbGroup:
    """Finite abelian group Z^k / diag(moduli) Z^k.

    The moduli are not forced into invariant-factor form; any list of
    positive integers is a valid presentation.  The `dual` flag tags the
    character group in the self-dual presentation used by
    :mod:`entbridge.duality`; dualizing twice returns the primal tag.
    """

    moduli: tuple[int, ...]
    dual: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "moduli", tuple(int(d) for d in self.moduli))
        if any(d < 1 for d in self.moduli):
            raise ValueError("moduli must be positive")

    @property
    def rank(self) -> int:
        return len(self.moduli)

    @property
    def order(self) -> int:
        n = 1
        for d in self.moduli:
            n *= d
        return n

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.rank

    def reduce(self, vector: Sequence[int]) -> tuple[int, ...]:
        if len(vector) != self.rank:
            raise ValueError("element length mismatch")
        return tuple(int(v) % d for v, d in zip(vector, self.moduli))

    def add(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        return self.reduce([a + b for a, b in zip(x, y)])

    def relation_basis(self) -> HnfBasis:
        return HnfBasis(IntMatrix.diagonal(self.moduli))

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All elements; brute-force oracle, refuses large groups."""
        if self.order > ENUMERATION_LIMIT:
            raise ValueError("group too large to enumerate")
        return itertools.product(*(range(d) for d in self.moduli))


@dataclass(frozen=True)
class SubgroupLattice:
    """Subgroup of a FinAbGroup, canonically represented.

    The basis lattice always contains the ambient relation lattice, which
    is checked at construction, so every instance really is a subgroup of
    the presented group and equality of instances is subgroup equality.
    """

    ambient: FinAbGroup
    basis: HnfBasis

    def __post_init__(self) -> None:
        if self.basis.dim != self.ambient.rank:
            raise ValueError("basis dimension mismatch")
        for i, d in enumerate(self.ambient.moduli):
            rel = [d if j == i else 0 for j in range(self.ambient.rank)]
            if not self.basis.contains(rel):
                raise ValueError("basis does not contain the relation lattice")

    @property
    def order(self) -> int:
        return self.ambient.order // self.basis.det()

    def contains(self, other: "SubgroupLattice") -> bool:
        if other.ambient != self.ambient:
            raise ValueError("subgroups live in different groups")
        return self.basis.contains_lattice(other.basis)

    def sum(self, other: "SubgroupLattice") -> "SubgroupLattice":
        if other.ambient != self.ambient:
            raise ValueError("subgroups live in different groups")
        gens = self.basis.matrix.hstack(other.basis.matrix)
        return SubgroupLattice(self.ambient, hnf(gens))

    def intersect(self, other: "SubgroupLattice") -> "SubgroupLattice":
        if other.ambient != self.ambient:
            raise ValueError("subgroups live in different groups")
        # B1 a lies in the other lattice exactly when a lies in its B1-preimage
        b1 = self.basis.matrix
        coords = preimage_lattice(b1, other.basis)
        return SubgroupLattice(self.ambient, hnf(b1 @ coords.matrix))

    def elements(self) -> Iterator[tuple[int, ...]]:
        """All subgroup elements; gated brute-force oracle."""
        for v in self.ambient.elements():
            if self.basis.contains(v):
                yield v


def subgroup_from_generators(group: FinAbGroup, generators: Iterable[Sequence[int]]) -> SubgroupLattice:
    """Subgroup generated by the given elements."""
    cols = [list(group.reduce(g)) for g in generators]
    gens = IntMatrix.from_columns(cols, rows=group.rank).hstack(IntMatrix.diagonal(group.moduli))
    return SubgroupLattice(group, hnf(gens))


def full_subgroup(group: FinAbGroup) -> SubgroupLattice:
    return SubgroupLattice(group, HnfBasis(IntMatrix.identity(group.rank)))


def trivial_subgroup(group: FinAbGroup) -> SubgroupLattice:
    return SubgroupLattice(group, group.relation_basis())


def index(outer: SubgroupLattice, inner: SubgroupLattice) -> int:
    """Exact index [outer : inner]; requires inner to be contained in outer."""
    if outer.ambient != inner.ambient:
        raise ValueError("subgroups live in different groups")
    if not outer.contains(inner):
        raise ValueError("not a subgroup pair")
    return inner.basis.det() // outer.basis.det()


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between presented groups, given by an integer matrix.

    The matrix has shape codomain.rank x domain.rank and acts by x -> M x
    on representatives.  Rows are normalized modulo the codomain moduli on
    construction, so homomorphism equality is matrix equality.  The
    divisibility certificate is validated eagerly and invalid matrices are
    rejected.
    """

    domain: FinAbGroup
    codomain: FinAbGroup
    matrix: IntMatrix

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != self.codomain.rank or m.cols != self.domain.rank:
            raise ValueError("matrix shape mismatch")
        reduced = tuple(
            tuple(x % d for x in row) for row, d in zip(m.entries, self.codomain.moduli)
        )
        object.__setattr__(self, "matrix", IntMatrix(m.rows, m.cols, reduced))
        for i, di in enumerate(self.codomain.moduli):
            for j, dj in enumerate(self.domain.moduli):
                if (dj * self.matrix.entries[i][j]) % di:
                    raise ValueError("matrix does not define a homomorphism for these moduli")

    @staticmethod
    def identity(group: FinAbGroup) -> "GroupHom":
        return GroupHom(group, group, IntMatrix.identity(group.rank))

    @property
    def is_endo(self) -> bool:
        return self.domain == self.codomain

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        return self.codomain.reduce(self.matrix.apply(self.domain.reduce(vector)))

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self after inner."""
        if inner.codomain != self.domain:
            raise ValueError("homomorphisms do not compose")
        return GroupHom(inner.domain, self.codomain, self.matrix @ inner.matrix)


def image(f: GroupHom, subgroup: SubgroupLattice) -> SubgroupLattice:
    if subgroup.ambient != f.domain:
        raise ValueError("subgroup not in the domain")
    gens = (f.matrix @ subgroup.basis.matrix).hstack(IntMatrix.diagonal(f.codomain.moduli))
    return SubgroupLattice(f.codomain, hnf(gens))


def preimage(f: GroupHom, subgroup: SubgroupLattice) -> SubgroupLattice:
    if subgroup.ambient != f.codomain:
        raise ValueError("subgroup not in the codomain")
    return SubgroupLattice(f.domain, preimage_lattice(f.matrix, subgroup.basis))


def kernel(f: GroupHom) -> SubgroupLattice:
    return preimage(f, trivial_subgroup(f.codomain))


def is_surjective(f: GroupHom) -> bool:
    return image(f, full_subgroup(f.domain)) == full_subgroup(f.codomain)


def _require_endo_on(f: GroupHom, subgroup: SubgroupLattice, steps: int) -> None:
    if not f.is_endo or f.domain != subgroup.ambient:
        raise ValueError("need an endomorphism of the subgroup's group")
    if steps < 1:
        raise ValueError("step count must be at least 1")


def cotrajectory_chain(
    f: GroupHom, subgroup: SubgroupLattice, steps: int
) -> list[SubgroupLattice]:
    """[C_1, ..., C_steps] with C_1 = U and C_{k+1} = U n f^-1(C_k)."""
    _require_endo_on(f, subgroup, steps)
    chain = [subgroup]
    for _ in range(steps - 1):
        chain.append(subgroup.intersect(preimage(f, chain[-1])))
    return chain


def trajectory_chain(
    f: GroupHom, subgroup: SubgroupLattice, steps: int
) -> list[SubgroupLattice]:
    """[T_1, ..., T_steps] with T_1 = U and T_{k+1} = U + f(T_k)."""
    _require_endo_on(f, subgroup, steps)
    chain = [subgroup]
    for _ in range(steps - 1):
        chain.append(subgroup.sum(image(f, chain[-1])))
    return chain


def cotrajectory(f: GroupHom, subgroup: SubgroupLattice, steps: int) -> SubgroupLattice:
    """Intersection of the first `steps` preimages U, f^-1(U), ...: the last C_n."""
    return cotrajectory_chain(f, subgroup, steps)[-1]


def trajectory(f: GroupHom, subgroup: SubgroupLattice, steps: int) -> SubgroupLattice:
    """Sum of the first `steps` forward images U, f(U), ...: the last T_n."""
    return trajectory_chain(f, subgroup, steps)[-1]


def kernel_chain(maps: Sequence[GroupHom]) -> list[SubgroupLattice]:
    """[K_1, ..., K_n] with K_t = ker(maps[0]) n ... n ker(maps[t-1]).

    The maps must share one domain; the chain lives in it.
    """
    if not maps:
        raise ValueError("need at least one map")
    chain = [kernel(maps[0])]
    for f in maps[1:]:
        chain.append(chain[-1].intersect(kernel(f)))
    return chain


def image_chain(maps: Sequence[GroupHom]) -> list[SubgroupLattice]:
    """[S_1, ..., S_n] with S_t = maps[0](domain) + ... + maps[t-1](domain).

    The maps must share one codomain; the chain lives in it.
    """
    if not maps:
        raise ValueError("need at least one map")
    chain = [image(maps[0], full_subgroup(maps[0].domain))]
    for f in maps[1:]:
        chain.append(chain[-1].sum(image(f, full_subgroup(f.domain))))
    return chain
