import random

import pytest

from conftest import conjugate_tower_endo, tower_chains, tower_index_sequences, unimodular_pair
from entbridge.duality import annihilator, dual_group, dual_hom
from entbridge.exactlinalg import InputError, IntMatrix
from entbridge import tdlca
from entbridge.fingroup import FinAbGroup, GroupHom, full_subgroup, kernel, trivial_subgroup
from entbridge.tdlca import (
    Tower,
    TowerEndo,
    full_shift_tower,
    padic_tower,
    shift_pairs,
    working_level,
)


def two_level_tower():
    upper = FinAbGroup((2, 2))
    lower = FinAbGroup((2,))
    pi = GroupHom(upper, lower, IntMatrix.from_rows([[1, 0]]))
    return Tower((lower, upper), (pi,))


class TestTowerValidation:
    def test_needs_levels(self):
        with pytest.raises(ValueError, match="at least one level"):
            Tower((), ())

    def test_projection_count(self):
        g = FinAbGroup((2,))
        with pytest.raises(ValueError, match="one projection"):
            Tower((g, g), ())

    def test_projection_endpoints(self):
        g = FinAbGroup((2,))
        h = FinAbGroup((4,))
        wrong = GroupHom.identity(g)
        with pytest.raises(ValueError, match="does not map level 1 to level 0"):
            Tower((g, h), (wrong,))

    def test_projection_surjective(self):
        g = FinAbGroup((2,))
        zero = GroupHom(g, g, IntMatrix.from_rows([[0]]))
        with pytest.raises(ValueError, match="not surjective"):
            Tower((g, g), (zero,))

    def test_project_bounds(self):
        tower = two_level_tower()
        with pytest.raises(ValueError, match="no projection"):
            tower.project(2, 0)
        with pytest.raises(ValueError, match="no projection"):
            tower.project(0, 1)

    def test_project_composes(self):
        endo = full_shift_tower(2, 4)
        tower = endo.tower
        direct = tower.project(3, 0)
        stepwise = tower.projections[0].compose(
            tower.projections[1].compose(tower.projections[2])
        )
        assert direct == stepwise

    def test_open_subgroup_order(self):
        # ker((Z/2)^3 -> Z/2) forgets two free coordinates
        tower = full_shift_tower(2, 3).tower
        assert kernel(tower.project(2, 0)).order == 4
        assert kernel(tower.project(2, 2)).order == 1


class TestTowerEndoValidation:
    def test_negative_lag(self):
        tower = two_level_tower()
        with pytest.raises(ValueError, match="lag must be nonnegative"):
            TowerEndo(tower, -1, ())

    def test_component_count(self):
        tower = two_level_tower()
        with pytest.raises(ValueError, match="one endomorphism component"):
            TowerEndo(tower, 1, ())

    def test_component_endpoints(self):
        tower = two_level_tower()
        bad = GroupHom.identity(tower.levels[1])
        with pytest.raises(ValueError, match="component 0 does not map"):
            TowerEndo(tower, 1, (bad,))

    def test_commuting_squares(self):
        # skew the top component so the square over level 0 breaks
        shift = full_shift_tower(2, 3)
        tower = shift.tower
        top = shift.maps[-1]
        skew = IntMatrix.from_rows([[0, 1, 1], [0, 0, 1]])
        broken = (*shift.maps[:-1], GroupHom(top.domain, top.codomain, skew))
        with pytest.raises(ValueError, match="do not commute with projections at level 0"):
            TowerEndo(tower, 1, broken)


class TestWorkingLevel:
    def test_values(self):
        endo = full_shift_tower(2, 6)
        assert working_level(endo.tower.height, endo.lag, 0, 1) == 0
        assert working_level(endo.tower.height, endo.lag, 1, 4) == 4
        assert working_level(endo.tower.height, endo.lag, 2, 4) == 5

    def test_missing_level(self):
        endo = full_shift_tower(2, 3)
        with pytest.raises(InputError, match="tower has no level 9"):
            working_level(endo.tower.height, endo.lag, 9, 1)

    def test_step_count(self):
        endo = full_shift_tower(2, 3)
        with pytest.raises(InputError, match="step count must be at least 1"):
            working_level(endo.tower.height, endo.lag, 0, 0)

    def test_too_short(self):
        endo = full_shift_tower(2, 4)
        with pytest.raises(
            InputError, match=r"tower too short for \(j, n\) = \(1, 5\); need level 5"
        ):
            working_level(endo.tower.height, endo.lag, 1, 5)

    def test_lag_zero_needs_no_depth(self):
        endo = padic_tower(3, 1, [[2]])
        assert working_level(endo.tower.height, endo.lag, 0, 50) == 0

    def test_checked_against_a_height_alone(self):
        # the same checks and messages, before any tower exists
        assert working_level(64, 1, 0, 64) == 63
        with pytest.raises(InputError, match="tower has no level 70"):
            working_level(64, 1, 70, 2)
        with pytest.raises(InputError, match=r"\(j, n\) = \(63, 2\); need level 64"):
            working_level(64, 1, 63, 2)
        with pytest.raises(InputError, match="step count must be at least 1"):
            working_level(64, 1, 0, 0)


class TestFullShift:
    @pytest.mark.parametrize(
        "modulus,height,j,steps",
        [
            (2, 5, 0, 5),
            (3, 4, 1, 3),
            (4, 6, 2, 4),
            (6, 8, 1, 7),
            (2, 28, 0, 28),
            (3, 28, 0, 28),
        ],
    )
    def test_index_sequences(self, modulus, height, j, steps):
        endo = full_shift_tower(modulus, height)
        expected = tuple(modulus**t for t in range(steps))
        assert tower_index_sequences(endo, j, steps) == (expected, expected)

    def test_prefix_consistency(self):
        endo = full_shift_tower(3, 6)
        full = tower_index_sequences(endo, 0, 6)
        for n in range(1, 6):
            assert tower_index_sequences(endo, 0, n) == (full[0][:n], full[1][:n])

    def test_per_route_methods_read_the_chains(self):
        endo = full_shift_tower(2, 6)
        primal, dual_side = tower_index_sequences(endo, 1, 5)
        assert endo.cotrajectory_indices(1, 5) == primal
        assert endo.trajectory_indices(1, 5) == dual_side

    def test_chains_build_each_paired_subgroup_once(self, monkeypatch):
        calls = {"trivial_subgroup": 0, "full_subgroup": 0}

        def counted(name):
            original = getattr(tdlca, name)

            def wrapper(group):
                calls[name] += 1
                return original(group)

            return wrapper

        for name in calls:
            monkeypatch.setattr(tdlca, name, counted(name))
        endo = full_shift_tower(2, 8)
        expected = tuple(2**t for t in range(6))
        assert tower_index_sequences(endo, 1, 6) == (expected, expected)
        assert calls == {"trivial_subgroup": 1, "full_subgroup": 1}

    def test_parameter_validation(self):
        with pytest.raises(InputError, match="modulus"):
            full_shift_tower(1, 4)
        with pytest.raises(InputError, match="two levels"):
            full_shift_tower(2, 1)


class TestConditionMaps:
    """The maps of TowerEndo.pairs, built by the definition
    F_{j,t} . pi_{level -> j+t*lag}, against closed forms computed another way."""

    @pytest.mark.parametrize("j,steps", [(0, 1), (0, 6), (1, 4), (2, 3), (5, 1)])
    def test_full_shift(self, j, steps):
        # map t keeps the coordinates t..t+j of the working level (Z/3)^(level+1)
        endo = full_shift_tower(3, 6)
        level = j + steps - 1
        maps = list(endo.pairs(j, steps)[0][0])
        levels = endo.tower.levels
        assert {(c.domain, c.codomain) for c in maps} == {(levels[level], levels[j])}
        windows = [
            [[int(col == t + row) for col in range(level + 1)] for row in range(j + 1)]
            for t in range(steps)
        ]
        assert [[list(row) for row in c.matrix.entries] for c in maps] == windows

    @pytest.mark.parametrize("j,steps", [(0, 1), (0, 5), (2, 4)])
    def test_padic_lag_zero(self, j, steps):
        # with lag 0 the working level is level j, and map t is M^t on it
        m = IntMatrix.from_rows([[3, 1], [2, 1]])
        endo = padic_tower(2, 3, m.entries)
        group = endo.tower.levels[j]
        power, expected = IntMatrix.identity(2), []
        for _ in range(steps):
            expected.append(GroupHom(group, group, power))
            power = m @ power
        assert list(endo.pairs(j, steps)[0][0]) == expected

    @pytest.mark.parametrize("j,steps", [(0, 5), (1, 3), (3, 2)])
    def test_conjugated(self, j, steps):
        # re-presented through (U_k, U_k^-1) on each level, map t is
        # U_j . (the shift's window map t) . U_level^-1
        rng = random.Random(7 + j)
        endo = full_shift_tower(2, 5)
        pairs = [unimodular_pair(rng, level.rank, 6) for level in endo.tower.levels]
        other = conjugate_tower_endo(endo, pairs)
        level = j + steps - 1
        levels = endo.tower.levels
        forward = GroupHom(levels[j], levels[j], pairs[j][0])
        backward = GroupHom(levels[level], levels[level], pairs[level][1])
        windows = list(shift_pairs(2, 5, j, steps)[0][0])
        expected = [forward.compose(c).compose(backward) for c in windows]
        assert list(other.pairs(j, steps)[0][0]) == expected


SWEEP_MODULI = [2, 3, 6, 2**128]
SWEEP_TOP = 24


@pytest.mark.parametrize("modulus", SWEEP_MODULI)
def test_shift_pairs_match_the_tower_condition_maps(modulus):
    # every meet map of shift_pairs is the tower's condition map
    # F_{j,t} . pi_{l -> j+t}, composed here from Tower.project and
    # TowerEndo.iterate, and every join map is its adjoint, for heights
    # 2..24 and every (j, steps) each height holds; the maps do not depend
    # on the height, so one tower of the largest height serves them all
    endo = full_shift_tower(modulus, SWEEP_TOP)
    tower = endo.tower
    iterates = {(j, t): endo.iterate(j, t) for j in range(SWEEP_TOP) for t in range(SWEEP_TOP - j)}
    condition = {}
    for (j, t), f in iterates.items():
        for level in range(j + t, SWEEP_TOP):
            condition[j, level, t] = f.compose(tower.project(level, j + t))
    for height in range(2, SWEEP_TOP + 1):
        for j in range(height):
            zero = trivial_subgroup(tower.levels[j])
            whole = full_subgroup(dual_group(tower.levels[j]))
            for steps in range(1, height - j + 1):
                level = j + steps - 1
                (meet, v), (join, s) = shift_pairs(modulus, height, j, steps)
                maps = [condition[j, level, t] for t in range(steps)]
                assert (list(meet), v) == (maps, zero)
                assert (list(join), s) == ([dual_hom(c) for c in maps], whole)


class TestShiftPairsRefusals:
    """The range first, then the modulus's type, its size and the height."""

    def test_range_first(self):
        with pytest.raises(InputError, match="tower has no level 70"):
            shift_pairs(2.5, 64, 70, 2)
        with pytest.raises(InputError, match=r"\(j, n\) = \(0, 2\); need level 1"):
            shift_pairs(1, 1, 0, 2)
        with pytest.raises(InputError, match="step count must be at least 1"):
            shift_pairs(1, 1, 0, 0)

    def test_modulus_must_be_an_integer(self):
        for modulus in (2.5, "3"):
            with pytest.raises(TypeError):
                shift_pairs(modulus, 1, 0, 1)

    def test_modulus_must_be_at_least_2(self):
        with pytest.raises(InputError, match="modulus must be at least 2"):
            shift_pairs(1, 1, 0, 1)

    def test_two_levels(self):
        with pytest.raises(InputError, match="tower needs at least two levels for the shift"):
            shift_pairs(2, 1, 0, 1)


class TestAnnihilatorIsTrajectory:
    def test_shift_lattices_match(self):
        endo = full_shift_tower(2, 4)
        cochain, trchain = tower_chains(endo, 0, 4)
        assert cochain[0] == kernel(endo.tower.project(3, 0))
        for w, t in zip(cochain, trchain):
            assert annihilator(w) == t

    def test_lag_zero_lattices_match(self):
        endo = padic_tower(2, 3, [[3, 1], [0, 1]])
        cochain, trchain = tower_chains(endo, 1, 3)
        assert cochain[0] == kernel(endo.tower.project(1, 1))
        for w, t in zip(cochain, trchain):
            assert annihilator(w) == t


class TestPadicTower:
    def test_lag_zero_is_degenerate(self):
        # an integral matrix preserves every level, so all indices collapse
        endo = padic_tower(2, 3, [[3, 1], [0, 1]])
        assert tower_index_sequences(endo, 1, 3) == ((1, 1, 1), (1, 1, 1))

    @pytest.mark.parametrize("not_prime", [1, 4, 9, 15])
    def test_requires_prime(self, not_prime):
        with pytest.raises(InputError, match="prime required"):
            padic_tower(not_prime, 2, [[1]])

    @pytest.mark.parametrize("prime", [2, 3, 7919])
    def test_accepts_prime(self, prime):
        assert padic_tower(prime, 2, [[1]]).tower.levels[1].moduli == (prime**2,)

    def test_requires_square_matrix(self):
        with pytest.raises(InputError, match="square"):
            padic_tower(2, 2, [[1, 0]])

    def test_height_refusal_is_input_error(self):
        with pytest.raises(InputError, match="tower needs at least one level"):
            padic_tower(2, 0, [[1]])

    def test_projection_reduces_the_rows_it_copies(self):
        # the projection Z/4 -> Z/2 is the identity matrix, so each of its
        # unit rows copies a row of maps[1], reduced mod 4, that must be
        # reduced again mod 2; the commuting square checked at construction
        # needs the same
        endo = padic_tower(2, 3, [[3, 1], [2, 3]])
        assert endo.maps[1].matrix.entries == ((3, 1), (2, 3))
        left = endo.tower.projections[0].compose(endo.maps[1])
        assert left.matrix.entries == ((1, 1), (0, 1))
        assert left == endo.maps[0].compose(endo.tower.projections[0])
        assert endo.tower.project(2, 0).compose(endo.maps[2]).matrix.entries == ((1, 1), (0, 1))


class TestConjugation:
    @pytest.mark.parametrize("modulus,j,steps", [(2, 0, 4), (3, 1, 3), (5, 0, 3)])
    def test_sequences_invariant(self, modulus, j, steps):
        rng = random.Random(100 * modulus + j)
        endo = full_shift_tower(modulus, 5)
        pairs = [unimodular_pair(rng, level.rank, 6) for level in endo.tower.levels]
        other = conjugate_tower_endo(endo, pairs)
        assert tower_index_sequences(other, j, steps) == tower_index_sequences(endo, j, steps)

    def test_lag_zero_invariant(self):
        rng = random.Random(11)
        endo = padic_tower(3, 2, [[2, 1], [1, 1]])
        pairs = [unimodular_pair(rng, level.rank, 5) for level in endo.tower.levels]
        other = conjugate_tower_endo(endo, pairs)
        assert tower_index_sequences(other, 0, 4) == tower_index_sequences(endo, 0, 4)
