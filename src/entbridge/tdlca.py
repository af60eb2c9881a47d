"""Totally disconnected LCA dynamics presented by towers of finite groups.

An inverse tower ``levels[0] <- levels[1] <- ...`` of finite abelian
groups with surjective bonding maps presents a profinite group G; the
compact open subgroups U_j are the kernels of the projections G ->
levels[j].  A continuous endomorphism with *lag* s is a compatible
family f_k : levels[k+s] -> levels[k]: the k-th coordinate of the image
depends on coordinates no deeper than k+s.  The full one-sided shift has
lag 1; a p-adic integer matrix acts level-wise with lag 0.

Everything is pushed down to a single finite working level.  The n-step
cotrajectory of U_j needs level l = j + (n-1)s, where it becomes

    W_n = ker(pi_{l->j}) ∩ ker(f_j pi) ∩ ... ∩ ker(F_{j,n-1} pi),

with F_{j,t} = f_j f_{j+s} ... f_{j+(t-1)s}, and [U_j : C_n] equals
[ker(pi_{l->j}) : W_n] because ker(G -> levels[l]) sits inside both.
The dual group is the colimit of the character groups along the adjoint
inclusions, and the trajectory of the annihilator of U_j is the sum of
the images of the adjoints of F_{j,t} pi, all inside the character
group of the same working level.  Both index sequences therefore come
out of finite exact lattice arithmetic, and the annihilator of W_n is
literally the n-step trajectory subgroup.

Both chains are driven by the same condition maps F_{j,t} pi_{l->j+ts},
t = 0..n-1, which :meth:`TowerEndo.pairs` builds by their definition
and gives the driver :func:`entbridge.fingroup.two_chains` as two sides,
each its maps and one subgroup: the maps with the trivial subgroup of
levels[j] (the cotrajectory is the running intersection of their
kernels), and their adjoints with the full dual group (the trajectory
is the running sum of their images).  The two sides share only these
input maps; neither chain is computed from the other.  ``Tower(...)``
and ``TowerEndo(...)`` check the data they are given, and
:func:`full_shift_tower` and :func:`padic_tower` build through them.

For the one-sided full shift over Z/m the condition maps have a closed
form: levels[i] = (Z/m)^(i+1), the projections drop the last coordinate
and the shift drops the first, so F_{j,t} pi_{l->j+t} keeps the
coordinates (x_t, ..., x_{t+j}) of (Z/m)^(l+1).  :func:`shift_pairs`
builds these maps as rows t..t+j of the identity, with the subgroups of
:meth:`TowerEndo.pairs` and no tower; the tests compare the two.
:func:`working_level` checks (j, n) against a height before any map
exists, so a caller can refuse an out-of-range request without building
anything.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

from .duality import dual_group, dual_hom
from .exactlinalg import InputError, IntMatrix, _trusted
from .fingroup import (
    FinAbGroup,
    GroupHom,
    Side,
    _indexed,
    full_subgroup,
    is_surjective,
    join_chain,
    meet_chain,
    trivial_subgroup,
)
from .padic import is_prime

__all__ = [
    "Tower",
    "TowerEndo",
    "working_level",
    "shift_pairs",
    "full_shift_tower",
    "padic_tower",
]


def working_level(height: int, lag: int, j: int, steps: int) -> int:
    """Deepest level entering the n-step computation at base level j,
    j + (steps-1) * lag, checked against a tower of the given height."""
    if not 0 <= j < height:
        raise InputError(f"tower has no level {j}")
    if steps < 1:
        raise InputError("step count must be at least 1")
    level = j + (steps - 1) * lag
    if level >= height:
        raise InputError(f"tower too short for (j, n) = ({j}, {steps}); need level {level}")
    return level


@dataclass(frozen=True)
class Tower:
    """Finite inverse tower with surjective bonding projections.

    projections[k] maps levels[k+1] onto levels[k].
    """

    levels: tuple[FinAbGroup, ...]
    projections: tuple[GroupHom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "projections", tuple(self.projections))
        if not self.levels:
            raise ValueError("tower needs at least one level")
        if len(self.projections) != len(self.levels) - 1:
            raise ValueError("need exactly one projection between consecutive levels")
        for k, pi in enumerate(self.projections):
            if pi.domain != self.levels[k + 1] or pi.codomain != self.levels[k]:
                raise ValueError(f"projection {k} does not map level {k + 1} to level {k}")
            if not is_surjective(pi):
                raise ValueError(f"projection {k} is not surjective")

    @property
    def height(self) -> int:
        return len(self.levels)

    def project(self, upper: int, lower: int) -> GroupHom:
        """Composite projection levels[upper] -> levels[lower]."""
        if not 0 <= lower <= upper < self.height:
            raise ValueError(f"tower has no projection from level {upper} to level {lower}")
        h = GroupHom.identity(self.levels[upper])
        for k in range(upper - 1, lower - 1, -1):
            h = self.projections[k].compose(h)
        return h


@dataclass(frozen=True)
class TowerEndo:
    """Endomorphism data over a tower: maps[k] sends levels[k+lag] to levels[k].

    Compatibility means every square commutes:
    projections[k] . maps[k+1] == maps[k] . projections[k+lag].
    """

    tower: Tower
    lag: int
    maps: tuple[GroupHom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "maps", tuple(self.maps))
        if self.lag < 0:
            raise ValueError("lag must be nonnegative")
        height = self.tower.height
        if height <= self.lag:
            raise ValueError(f"tower too short for (j, n) = (0, 1); need level {self.lag}")
        if len(self.maps) != height - self.lag:
            raise ValueError("need one endomorphism component per reachable level")
        for k, f in enumerate(self.maps):
            if f.domain != self.tower.levels[k + self.lag] or f.codomain != self.tower.levels[k]:
                raise ValueError(f"component {k} does not map level {k + self.lag} to level {k}")
        for k in range(len(self.maps) - 1):
            left = self.tower.projections[k].compose(self.maps[k + 1])
            right = self.maps[k].compose(self.tower.projections[k + self.lag])
            if left != right:
                raise ValueError(f"components do not commute with projections at level {k}")

    def iterate(self, j: int, t: int) -> GroupHom:
        """F_{j,t} = maps[j] . maps[j+lag] ... : levels[j + t*lag] -> levels[j]."""
        h = GroupHom.identity(self.tower.levels[j])
        for i in range(t):
            h = h.compose(self.maps[j + i * self.lag])
        return h

    def pairs(self, j: int, steps: int) -> tuple[Side, Side]:
        """(meet side, join side) of the condition maps
        F_{j,t} . pi_{level -> j+t*lag}, t = 0..steps-1, built by their definition:
        the maps with the trivial subgroup of levels[j], and their adjoints,
        each built when the join chain reads it, with its full dual group.

        The meet chain is W_1 = U_j, ..., W_steps at the working level; the
        join chain, on its character group, is T_1 = perp U_j, ..., T_steps.
        """
        level = working_level(self.tower.height, self.lag, j, steps)
        conditions = [
            self.iterate(j, t).compose(self.tower.project(level, j + t * self.lag))
            for t in range(steps)
        ]
        base = self.tower.levels[j]
        return (
            (conditions, trivial_subgroup(base)),
            ((dual_hom(c) for c in conditions), full_subgroup(dual_group(base))),
        )

    def cotrajectory_indices(self, j: int, steps: int) -> tuple[int, ...]:
        """a_n = [U_j : C_n] = [W_1 : W_n] for n = 1..steps, from the meet side alone."""
        return tuple(_indexed(meet_chain(*self.pairs(j, steps)[0]), steps, meet=True)[1])

    def trajectory_indices(self, j: int, steps: int) -> tuple[int, ...]:
        """b_n = [T_n : T_1] for n = 1..steps, on the dual side, from the join side alone."""
        return tuple(_indexed(join_chain(*self.pairs(j, steps)[1]), steps, meet=False)[1])


def _shift_modulus(modulus: int, height: int) -> int:
    """`modulus` as an int, after refusing a modulus or a height below 2."""
    modulus = operator.index(modulus)
    if modulus < 2:
        raise InputError("modulus must be at least 2")
    if height < 2:
        raise InputError("tower needs at least two levels for the shift")
    return modulus


def shift_pairs(modulus: int, height: int, level: int, steps: int) -> tuple[Side, Side]:
    """(meet side, join side) of the full shift over Z/modulus at a base
    level, those of ``full_shift_tower(modulus, height).pairs(level, steps)``,
    from the closed form: condition map t keeps the coordinates
    t..t+level of the working level (Z/modulus)^(l+1), l = level + steps - 1.

    (level, steps) is checked against the height before anything is
    built.  The groups and the maps are built unchecked, from checked
    integers.
    """
    top = working_level(height, 1, level, steps)
    modulus = _shift_modulus(modulus, height)
    domain = _trusted(FinAbGroup, (modulus,) * (top + 1), False)
    base = _trusted(FinAbGroup, (modulus,) * (level + 1), False)
    rows, width = IntMatrix.identity(top + 1).entries, level + 1
    conditions = [
        _trusted(GroupHom, domain, base, _trusted(IntMatrix, width, top + 1, rows[t : t + width]))
        for t in range(steps)
    ]
    return (
        (conditions, trivial_subgroup(base)),
        ((dual_hom(c) for c in conditions), full_subgroup(dual_group(base))),
    )


def full_shift_tower(modulus: int, height: int) -> TowerEndo:
    """One-sided full shift over Z/modulus, truncated to the given height.

    levels[i] = (Z/modulus)^(i+1); projections drop the last coordinate,
    the shift drops the first, so the lag is 1.
    """
    modulus = _shift_modulus(modulus, height)
    levels = [FinAbGroup((modulus,) * (i + 1)) for i in range(height)]
    projections, shifts = [], []
    for i in range(height - 1):
        ident = IntMatrix.identity(i + 2).entries
        projections.append(GroupHom(levels[i + 1], levels[i], IntMatrix.from_rows(ident[:-1])))
        shifts.append(GroupHom(levels[i + 1], levels[i], IntMatrix.from_rows(ident[1:])))
    return TowerEndo(Tower(tuple(levels), tuple(projections)), 1, tuple(shifts))


def padic_tower(prime: int, height: int, entries: Sequence[Sequence[int]]) -> TowerEndo:
    """An integer matrix acting on the p-adic tower (Z/p^(k+1))^d, lag 0."""
    if not is_prime(prime):
        raise InputError("prime required")
    if height < 1:
        raise InputError("tower needs at least one level")
    m = IntMatrix.from_rows([list(row) for row in entries])
    if m.rows != m.cols:
        raise InputError("endomorphism matrix must be square")
    d = m.rows
    levels = [FinAbGroup((prime ** (k + 1),) * d) for k in range(height)]
    projections = tuple(
        GroupHom(levels[k + 1], levels[k], IntMatrix.identity(d)) for k in range(height - 1)
    )
    maps = tuple(GroupHom(levels[k], levels[k], m) for k in range(height))
    return TowerEndo(Tower(tuple(levels), projections), 0, maps)
