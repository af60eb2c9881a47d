"""Brute-force oracles shared by the test modules.

Everything here works by enumerating group elements and applying
definitions literally, with no lattice arithmetic, so the fast exact
code paths can be checked against first principles on small groups.
The one exception is :func:`tower_index_sequences`, a shared helper
that reads both index sequences off one build of a tower's chains.
"""

from fractions import Fraction
from itertools import product

from entbridge.fingroup import FinAbGroup, GroupHom, SubgroupLattice, index


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


def tower_index_sequences(endo, j, steps):
    """(a_n = [W_1 : W_n], b_n = [T_n : T_1]) from one call of TowerEndo.chains."""
    cotrajectory, trajectory = endo.chains(j, steps)
    primal = tuple(index(cotrajectory[0], w) for w in cotrajectory)
    dual_side = tuple(index(t, trajectory[0]) for t in trajectory)
    return primal, dual_side
