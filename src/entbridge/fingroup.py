"""Finite abelian groups presented as Z^k modulo diag(d_1, ..., d_k).

A subgroup is held as the integer lattice of its representatives, an
:class:`~entbridge.exactlinalg.HnfBasis` squeezed between the relation
lattice diag(d) Z^k and Z^k.  The group owns its relation lattice
(:attr:`FinAbGroup.relations`, built once on first use), and every
subgroup check, Hermite form modulo the relations and join chain starts
from that one basis.  Because the basis is canonical, subgroup
equality is structural equality, indices are determinant quotients, and
all operations (sum, intersection, image, preimage, kernel) reduce to
exact integer lattice computations.  ``SubgroupLattice(...)`` checks the
basis it is given; the subgroups computed here contain the relations by
construction and are built unchecked (:func:`~entbridge.exactlinalg._trusted`).

Homomorphisms follow the same rule: ``GroupHom(...)`` reduces the
matrix it is given and checks that it defines a homomorphism, while
identities, composites and powers are reduced but built unchecked.  A
composite or a power is reduced as it is multiplied, in the one
row-shape routine of :mod:`entbridge.exactlinalg`; :func:`powers`
takes each f^(k+1) as f^k times the fixed factor f, from the powers
kernel, which packs f once per list.

Every index chain in the package is built by one of two builders, each
over one side: an iterable of maps and one subgroup.  :func:`meet_chain`
takes maps f_t out of one group into the group of a target V and yields
the running intersections of the preimages f_t^-1(V) (the
cotrajectories), and :func:`join_chain` takes maps g_t from the group of
a source S into one group and yields the running sums of the images
g_t(S) (the trajectories).  Each step is at most one elimination, and
pays only for what it changes.  A meet step is one
:func:`~entbridge.exactlinalg.preimage_lattice` of V restricted to the
previous term, whose basis it tracks: a basis column d e_j that f_t
sends to zero stays the pivot of its row, and only the other columns
are eliminated.  A join step inserts the generators of g_t(S) into the
Hermite basis of the previous term, reducing modulo the moduli as it
goes (Hermite form modulo the relations), in :func:`_joined`, as sums
do: it takes a subgroup, whose basis holds the relations, not a bare
basis; only the rows that got a new pivot are put in Hermite form
again.  Images, generated
subgroups and the surjectivity check insert theirs into the relations
themselves, by :func:`~entbridge.exactlinalg.hnf` with the moduli.  The
product that feeds each step, f_t times the previous basis or g_t
times the basis of S, is reduced modulo the codomain moduli as it is
multiplied, like a composite.  That is exact and leaves every term as
it was: V contains the codomain's relation lattice, so m y lies in
V exactly when (m mod e) y does, row i of m taken mod e_i; and the
previous join term contains the relation lattice too, so a generator
spans the same lattice with it after any multiple of d_i is taken off
its entry i.  Reduced, no entry that enters an elimination is past its
modulus, and no entry of a join step grows past it.
Three kinds of step have a known answer and skip work, each giving the
plain step's term: a first identity map gives C_1 = V and T_1 = S (the
term before it is the whole group, or the relation lattice, which S
contains), as at the k = 0 step of every :func:`powers` list; a whole S
(its Hermite basis is the identity) lets each g_t contribute its own
columns, reduced already, with no product; and a step whose product
f_t B is zero, or that adds no nonzero generator, keeps the term before
it, as the same object (B y then lies in the preimage for every y, and
zero generators span nothing new).
Both builders are lazy:
each term is yielded as soon as it is built, and the next map is read
only when the next term is asked for, so a caller that stops early
pays for no later step.  :mod:`entbridge.bridge` lists the sides each
kind gives: the powers f^k of one endomorphism, or the condition maps
of a tower or of Q_p, on the meet side, and on the join side their
adjoints, each side with one subgroup.

One driver, :func:`two_chains`, turns the meet and join sides of any
kind into both chains and both index sequences a_n = [C_1 : C_n] and
b_n = [T_n : T_1].  Each meet term lies inside the one before it and
each join term contains it, by construction, so the indices are read
off the Hermite diagonals, with no containment re-proved; for the same
reason a term is unchanged exactly when its determinant is, and each
determinant is computed once.  Both chains are built together and end
at the first step where neither changed, which is final for the sides
every kind gives (the :func:`two_chains` docstring says why, and which
sides those are).  On a correct route a_n = b_n, so both chains stall
together; a stall on one side only is a fault, and both chains go on.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from .exactlinalg import HnfBasis, InputError, IntMatrix, _hnf_insert, _powers, _product, _trusted
from .exactlinalg import hnf, preimage_lattice

__all__ = [
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
    "powers",
    "meet_chain",
    "join_chain",
    "two_chains",
]


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
        # from a list, not a map: see the exactlinalg module docstring
        object.__setattr__(self, "moduli", tuple([operator.index(d) for d in self.moduli]))
        if any(d < 1 for d in self.moduli):
            raise InputError("moduli must be positive")

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
            raise InputError("element length mismatch")
        return tuple([operator.index(v) % d for v, d in zip(vector, self.moduli)])

    def add(self, x: Sequence[int], y: Sequence[int]) -> tuple[int, ...]:
        return self.reduce([a + b for a, b in zip(x, y)])

    @cached_property
    def relations(self) -> HnfBasis:
        """The relation lattice diag(moduli) Z^k, built on first use.

        Cached in the instance dict, outside the dataclass fields, so it
        takes no part in equality, hashing or repr.
        """
        return _trusted(HnfBasis, IntMatrix.diagonal(self.moduli))


@dataclass(frozen=True)
class SubgroupLattice:
    """Subgroup of a FinAbGroup, canonically represented.

    The basis lattice always contains the ambient relation lattice (the
    constructor checks it; computed subgroups hold it by construction), so
    equality of instances is subgroup equality.
    """

    ambient: FinAbGroup
    basis: HnfBasis

    def __post_init__(self) -> None:
        if self.basis.dim != self.ambient.rank:
            raise ValueError("basis dimension mismatch")
        if not self.basis.contains_lattice(self.ambient.relations):
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
        return _joined(self, other.basis.matrix)

    def intersect(self, other: "SubgroupLattice") -> "SubgroupLattice":
        """The intersection, as B1 {a : B1 a in B2 Z^k}: one elimination
        that tracks B1, the basis of this subgroup."""
        if other.ambient != self.ambient:
            raise ValueError("subgroups live in different groups")
        b1 = self.basis.matrix
        return _trusted(SubgroupLattice, self.ambient, preimage_lattice(b1, other.basis, b1))


def subgroup_from_generators(group: FinAbGroup, generators: Iterable[Sequence[int]]) -> SubgroupLattice:
    """Subgroup generated by the given elements."""
    cols = [list(group.reduce(g)) for g in generators]
    gens = IntMatrix.from_columns(cols, rows=group.rank)
    return _trusted(SubgroupLattice, group, hnf(gens, group.moduli))


def full_subgroup(group: FinAbGroup) -> SubgroupLattice:
    return _trusted(SubgroupLattice, group, _trusted(HnfBasis, IntMatrix.identity(group.rank)))


def trivial_subgroup(group: FinAbGroup) -> SubgroupLattice:
    return _trusted(SubgroupLattice, group, group.relations)


def _joined(subgroup: SubgroupLattice, gens: IntMatrix) -> SubgroupLattice:
    """`subgroup` joined by the columns of `gens`, inserted into its Hermite
    basis, which contains the relations, as every subgroup basis does."""
    group = subgroup.ambient
    return _trusted(SubgroupLattice, group, _hnf_insert(subgroup.basis, gens, group.moduli))


def index(outer: SubgroupLattice, inner: SubgroupLattice) -> int:
    """Exact index [outer : inner]; requires inner to be contained in outer."""
    if outer.ambient != inner.ambient:
        raise ValueError("subgroups live in different groups")
    if not outer.contains(inner):
        raise ValueError("not a subgroup pair")
    return inner.basis.det() // outer.basis.det()


def _mod_rows(m: IntMatrix, moduli: Sequence[int]) -> IntMatrix:
    """`m` with row i reduced modulo moduli[i]."""
    # from lists: see the exactlinalg module docstring
    reduced = tuple([tuple([x % d for x in row]) for row, d in zip(m.entries, moduli)])
    return _trusted(IntMatrix, m.rows, m.cols, reduced)


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism between presented groups, given by an integer matrix.

    The matrix has shape codomain.rank x domain.rank and acts by x -> M x
    on representatives.  Rows are normalized modulo the codomain moduli on
    construction, so homomorphism equality is matrix equality.  M induces
    a well-defined map exactly when d_j M[i][j] = 0 mod d_i for all i, j,
    with d_j the domain moduli and d_i the codomain's; the constructor
    checks this per entry and rejects any other matrix.  Identities,
    composites and powers hold it by construction, and :meth:`identity`,
    :meth:`compose` and :func:`powers` build them unchecked, but still
    reduced: entries would otherwise grow from power to power.  So every
    entry of row k of any GroupHom matrix lies in [0, codomain modulus
    k), and :meth:`compose` relies on it to keep copied rows as they
    stand.
    """

    domain: FinAbGroup
    codomain: FinAbGroup
    matrix: IntMatrix

    def __post_init__(self) -> None:
        m = self.matrix
        if m.rows != self.codomain.rank or m.cols != self.domain.rank:
            raise InputError("matrix shape mismatch")
        reduced = _mod_rows(m, self.codomain.moduli)
        object.__setattr__(self, "matrix", reduced)
        if any(
            x * dj % di
            for row, di in zip(reduced.entries, self.codomain.moduli)
            for x, dj in zip(row, self.domain.moduli)
        ):
            raise InputError("matrix does not define a homomorphism for these moduli")

    @staticmethod
    def identity(group: FinAbGroup) -> "GroupHom":
        identity = _mod_rows(IntMatrix.identity(group.rank), group.moduli)
        return _trusted(GroupHom, group, group, identity)

    @property
    def is_endo(self) -> bool:
        return self.domain == self.codomain

    def apply(self, vector: Sequence[int]) -> tuple[int, ...]:
        return self.codomain.reduce(self.matrix.apply(self.domain.reduce(vector)))

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self after inner, reduced as it is multiplied.

        Row i of the product is reduced modulo codomain modulus i as it is
        built.  Row k of inner's matrix already lies in [0, d_k), d_k the
        modulus of the middle group, so a unit row of self that copies it
        keeps it as it stands when d_k is the same modulus, and reduces it
        otherwise (a p-adic projection copies rows from a finer modulus).
        """
        if inner.codomain != self.domain:
            raise ValueError("homomorphisms do not compose")
        product = _product(self.matrix, inner.matrix, self.codomain.moduli, self.domain.moduli)
        return _trusted(GroupHom, inner.domain, self.codomain, product)


def image(f: GroupHom, subgroup: SubgroupLattice) -> SubgroupLattice:
    if subgroup.ambient != f.domain:
        raise ValueError("subgroup not in the domain")
    # reduced as it is multiplied, like a join step: inserted into the relations
    cod = f.codomain
    product = _product(f.matrix, subgroup.basis.matrix, cod.moduli, f.domain.moduli)
    return _trusted(SubgroupLattice, cod, hnf(product, cod.moduli))


def preimage(f: GroupHom, subgroup: SubgroupLattice) -> SubgroupLattice:
    if subgroup.ambient != f.codomain:
        raise ValueError("subgroup not in the codomain")
    identity = IntMatrix.identity(f.domain.rank)
    return _trusted(SubgroupLattice, f.domain, preimage_lattice(f.matrix, subgroup.basis, identity))


def kernel(f: GroupHom) -> SubgroupLattice:
    return preimage(f, trivial_subgroup(f.codomain))


def is_surjective(f: GroupHom) -> bool:
    """Whether the columns of M and the codomain relations span Z^k: their
    Hermite form is the identity, which is the only one of determinant 1."""
    cod = f.codomain
    return hnf(f.matrix, cod.moduli).det() == 1


# one side of a chain: its maps, read lazily, and its one subgroup
Side = tuple[Iterable[GroupHom], SubgroupLattice]


def powers(f: GroupHom, n: int) -> Iterator[GroupHom]:
    """Yield 1, f, f^2, ..., f^(n-1) for an endomorphism f and n >= 1.

    Both checks run at the call.  The identity comes first and f^1 is f
    itself; each later power is the one before it times f, one product
    by the kernel :func:`~entbridge.exactlinalg._powers`, which packs f
    once for the whole list.  A power is multiplied only when it is
    asked for, so reading the first k maps costs max(0, k - 2) products.
    """
    if not f.is_endo:
        raise ValueError("need an endomorphism")
    if n < 1:
        raise ValueError("power count must be at least 1")
    group = f.domain
    later = islice(_powers(f.matrix, group.moduli), 1, None)
    maps = chain((GroupHom.identity(group), f), (_trusted(GroupHom, group, group, m) for m in later))
    return islice(maps, n)


def _is_identity(f: GroupHom) -> bool:
    """Whether f is the identity of its group, read off its matrix: an
    endomorphism whose row i is e_i reduced modulo d_i, so all zero where
    d_i = 1, as every GroupHom matrix is reduced.  Builds no identity."""
    if not f.is_endo:
        return False
    n = f.domain.rank
    for i, (row, d) in enumerate(zip(f.matrix.entries, f.domain.moduli)):
        one = 1 % d
        if row[i] != one or row.count(0) != n - one:
            return False
    return True


def meet_chain(maps: Iterable[GroupHom], target: SubgroupLattice) -> Iterator[SubgroupLattice]:
    """Yield C_1, C_2, ... with C_n = f_1^-1(V) n ... n f_n^-1(V), every f_t
    from one group into the group of V = `target`.

    With B the basis of C_(n-1) (the whole group before the first step),
    step n is C_n = B {y : f_n(B y) in V}, one preimage_lattice that tracks
    B, on f_n B reduced modulo the codomain moduli.  A first identity map
    gives C_1 = V, and a zero product f_n B keeps C_(n-1), with no
    elimination.  The map f_n is read only when C_n is asked for.
    """
    rest = iter(maps)
    first = next(rest, None)
    if first is None:
        raise ValueError("need at least one map")
    group, cod = first.domain, target.ambient
    term = full_subgroup(group)
    for n, f in enumerate(chain((first,), rest)):
        if f.domain != group:
            raise ValueError("maps out of different groups")
        if f.codomain != cod:
            raise ValueError("subgroup not in the codomain")
        if n == 0 and _is_identity(f):
            term = target
        else:
            basis = term.basis.matrix
            product = _product(f.matrix, basis, cod.moduli, group.moduli)
            if any(map(any, product.entries)):
                term = _trusted(SubgroupLattice, group, preimage_lattice(product, target.basis, basis))
        yield term


def join_chain(maps: Iterable[GroupHom], source: SubgroupLattice) -> Iterator[SubgroupLattice]:
    """Yield T_1, T_2, ... with T_n = g_1(S) + ... + g_n(S), every g_t
    from the group of S = `source` into one group.

    Step n inserts the generators of g_n(S), reduced modulo the moduli,
    into the Hermite basis of T_(n-1), starting from the relation lattice.
    A first identity map gives T_1 = S with no elimination, a whole S
    (tested once per chain) gives the columns of g_n with no product, and
    a step that adds no nonzero generator keeps T_(n-1).  The map g_n is
    read only when T_n is asked for.
    """
    rest = iter(maps)
    first = next(rest, None)
    if first is None:
        raise ValueError("need at least one map")
    group, dom = first.codomain, source.ambient
    term = trivial_subgroup(group)
    basis = source.basis.matrix
    whole = all(row[i] == 1 for i, row in enumerate(basis.entries))
    for n, g in enumerate(chain((first,), rest)):
        if g.codomain != group:
            raise ValueError("maps into different groups")
        if g.domain != dom:
            raise ValueError("subgroup not in the domain")
        if n == 0 and _is_identity(g):
            term = source
        else:
            gens = g.matrix if whole else _product(g.matrix, basis, group.moduli, dom.moduli)
            if any(map(any, gens.entries)):
                term = _joined(term, gens)
        yield term


def _indexed(
    terms: Iterable[SubgroupLattice], steps: int, meet: bool, dets: Sequence[int] | None = None
) -> tuple[list, list[int]]:
    """The terms of a meet (or join) chain padded with the last to `steps`, and
    the index of each against the first, det C_n / det C_1 (or det T_1 / det T_n).
    `dets` are the determinants of the terms, when the caller has them."""
    terms = list(terms)
    if dets is None:
        dets = [term.basis.det() for term in terms]
    indices = [d // dets[0] if meet else dets[0] // d for d in dets]
    pad = steps - len(terms)
    return terms + terms[-1:] * pad, indices + indices[-1:] * pad


def two_chains(meet: Side, join: Side, steps: int):
    """((C, a), (T, b)): the first `steps` terms of C = meet_chain(*meet) and
    T = join_chain(*join), each built from its own side (maps, subgroup)
    only, with a_n = [C_1 : C_n] and b_n = [T_n : T_1].

    The chains are built in step; the first step at which neither changed
    ends both, and the last terms built fill the remaining steps.  That
    stop needs sides whose repeat is final: the iterates of one
    endomorphism, or one tower endomorphism's condition maps at one base
    level, each side with its one subgroup.  For one endomorphism f and
    subgroup U, C_(n+1) = U ∩ f^-1(C_n) and T_(n+1) = perp U + g(T_n), g
    the adjoint, and a tower's working level and the p-adic group
    (Z/p^N)^d hold faithful copies of both chains.  Other sides can
    repeat a term and change again (on (Z/2)^2 the maps 1, 1 and the swap
    with V = Z/2 x 0 give V, V, 0): any other caller should use
    :func:`meet_chain` and :func:`join_chain`, which build every term.
    """
    if steps < 1:
        raise ValueError("step count must be at least 1")
    # each meet term lies inside the one before it and each join term
    # contains it, so a term is unchanged exactly when its determinant is;
    # each determinant is computed once, here, and the indices reuse it
    built, dets = [], []
    for c, t in zip(islice(meet_chain(*meet), steps), islice(join_chain(*join), steps)):
        pair = (c.basis.det(), t.basis.det())
        if dets and pair == dets[-1]:
            break
        built.append((c, t))
        dets.append(pair)
    else:
        if len(built) < steps:
            raise ValueError(f"the sides end after {len(built)} of {steps} steps")
    co, tr = zip(*built)
    co_dets, tr_dets = zip(*dets)
    return (
        _indexed(co, steps, meet=True, dets=co_dets),
        _indexed(tr, steps, meet=False, dets=tr_dets),
    )
