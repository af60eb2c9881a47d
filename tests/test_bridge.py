import argparse
import json
import math
import random
from functools import partial

import jsonschema
import pytest

from conftest import certified_upper_bound, tower_chains
import entbridge.bridge as bridge
import entbridge.cli as cli
import entbridge.exactlinalg as exactlinalg
import entbridge.fingroup as fingroup
import entbridge.tdlca as tdlca
from entbridge.bridge import (
    check_all_laws,
    check_chain_laws,
    finite_bridge,
    qp_bridge,
    random_endomorphism,
    random_finite_group,
    random_instance,
    random_qp_instance,
    random_subgroup,
    real_bridge,
    shift_bridge,
    verify_instance,
)
from entbridge.bridge import (
    _finite_chains,
    _hom_payload,
    _law,
    _subgroup_payload,
    _two_sided_report,
)
from entbridge.cli import load_schema
from entbridge.duality import annihilator, dual_group, dual_hom
from entbridge.entropyseq import estimate_entropy
from entbridge.exactlinalg import HnfBasis, InputError, IntMatrix
from entbridge.fingroup import (
    FinAbGroup,
    GroupHom,
    full_subgroup,
    image,
    join_chain,
    meet_chain,
    powers,
    preimage,
    subgroup_from_generators,
    two_chains,
)
from entbridge.tdlca import full_shift_tower, padic_tower, shift_pairs

LAW_NAMES = [
    "annihilator-of-preimage-is-image-of-annihilator",
    "cotrajectory-annihilator-is-dual-trajectory",
    "per-step-index-identity",
    "annihilator-exchanges-sum-and-intersection",
    "double-annihilator-restores",
    "invariance-transport",
    "quotient-invariants-match",
]


def frozen_instance():
    g = FinAbGroup((4, 2, 2))
    f = GroupHom(g, g, IntMatrix.from_rows([[0, 0, 2], [1, 0, 0], [1, 1, 0]]))
    u = subgroup_from_generators(g, [[1, 0, 0], [0, 1, 1]])
    return g, f, u


def recursive_cotrajectory(f, u, steps):
    """Reference: C_1 = U and C_{k+1} = U ∩ f^-1(C_k)."""
    chain = [u]
    for _ in range(steps - 1):
        chain.append(u.intersect(preimage(f, chain[-1])))
    return chain


def recursive_trajectory(f, u, steps):
    """Reference: T_1 = U and T_{k+1} = U + f(T_k)."""
    chain = [u]
    for _ in range(steps - 1):
        chain.append(u.sum(image(f, chain[-1])))
    return chain


class TestChains:
    def test_lengths_and_first_entry(self):
        g, f, u = frozen_instance()
        co = list(meet_chain(powers(f, 4), u))
        assert len(co) == 4 and co[0] == u
        tr = list(join_chain(powers(f, 4), u))
        assert len(tr) == 4 and tr[0] == u

    def test_chains_shrink_and_grow(self):
        g, f, u = frozen_instance()
        (co, _), (tr, _) = _finite_chains(f, u, 5)
        assert all(a.contains(b) for a, b in zip(co, co[1:]))
        assert all(b.contains(a) for a, b in zip(tr, tr[1:]))

    def test_step_validation(self):
        g, f, u = frozen_instance()
        with pytest.raises(ValueError, match="at least 1"):
            _finite_chains(f, u, 0)
        with pytest.raises(ValueError, match="at least 1"):
            powers(dual_hom(f), 0)

    def test_driver_builds_exactly_steps_terms(self):
        # 1/2 on Q_2 grows at every step: sides that end at 3 maps are not
        # padded as if the chains had stalled, and of 8 maps per side only
        # the first 5 are read for 5 steps
        m = bridge.padic.rational_matrix([["1/2"]])
        for steps in (0, -1):
            with pytest.raises(ValueError, match="at least 1"):
                two_chains(*qp_pairs(2, m, 3), steps)
        with pytest.raises(ValueError, match="end after 3 of 6 steps"):
            two_chains(*qp_pairs(2, m, 3), 6)
        read = []

        def counted(side):
            maps, subgroup = side

            def read_maps():
                for h in maps:
                    read.append(h)
                    yield h

            return read_maps(), subgroup

        (co, a), (tr, b) = two_chains(*map(counted, qp_pairs(2, m, 8)), 5)
        assert len(co) == len(tr) == 5 and len(read) == 10
        assert a == b == [1, 2, 4, 8, 16]

    def test_match_the_recursion(self):
        # rank 1-4, steps 1-8; U is cyclic on a random generator, drawn
        # independently of the endomorphism, so many draws are not invariant
        rng = random.Random(43)
        non_invariant = 0
        for _ in range(80):
            group = FinAbGroup(tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 4))))
            f = random_endomorphism(rng, group)
            u = subgroup_from_generators(group, [[rng.randrange(d) for d in group.moduli]])
            steps = rng.randint(1, 8)
            non_invariant += not u.contains(image(f, u))
            (co, _), (tr, _) = _finite_chains(f, u, steps)
            assert co == recursive_cotrajectory(f, u, steps)
            assert tr == recursive_trajectory(dual_hom(f), annihilator(u), steps)
        assert non_invariant >= 20


def left_shift(rank):
    """x -> (x_1, ..., x_(rank-1), 0) on (Z/2)^rank."""
    g = FinAbGroup((2,) * rank)
    rows = [[int(j == i + 1) for j in range(rank)] for i in range(rank)]
    return g, GroupHom(g, g, IntMatrix.from_rows(rows, cols=rank))


def coordinate_hyperplane(group, i):
    """{x : x_i = 0}."""
    return subgroup_from_generators(
        group, [[int(j == k) for j in range(group.rank)] for k in range(group.rank) if k != i]
    )


def strictly_monotone(chain):
    return all(a != b for a, b in zip(chain, chain[1:]))


def qp_pairs(prime, m, steps):
    """The meet side of m and the join side of its transpose, as qp_bridge builds them."""
    padic = bridge.padic
    return padic.cotrajectory_pairs(prime, m, steps), padic.trajectory_pairs(prime, tuple(zip(*m)), steps)


class TestEarlyExit:
    def test_keeps_every_term(self):
        # random draws, f-invariant U (the image of f, so the chains repeat at
        # step 1) and the left shift with U = {x_0 = 0}, whose meet chain
        # strictly decreases for rank steps
        rng = random.Random(44)
        cases = []
        for _ in range(40):
            group = FinAbGroup(tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 4))))
            f = random_endomorphism(rng, group)
            u = subgroup_from_generators(group, [[rng.randrange(d) for d in group.moduli]])
            cases.append((f, u, rng.randint(1, 10)))
        for _ in range(25):
            group = FinAbGroup(tuple(rng.randint(2, 12) for _ in range(rng.randint(1, 4))))
            f = random_endomorphism(rng, group)
            cases.append((f, image(f, full_subgroup(group)), rng.randint(2, 16)))
        for _ in range(25):
            g, f = left_shift(rng.randint(2, 8))
            cases.append((f, coordinate_hyperplane(g, 0), rng.randint(2, g.rank)))
        repeats_at_step_1 = never_repeats = 0
        for f, u, steps in cases:
            (co, _), (tr, _) = _finite_chains(f, u, steps)
            uperp = annihilator(u)
            assert co == list(meet_chain(powers(f, steps), u))
            assert tr == list(join_chain(powers(dual_hom(f), steps), uperp))
            assert co == recursive_cotrajectory(f, u, steps)
            assert tr == recursive_trajectory(dual_hom(f), uperp, steps)
            repeats_at_step_1 += steps >= 2 and co[1] == co[0] and tr[1] == tr[0]
            never_repeats += steps >= 2 and strictly_monotone(co) and strictly_monotone(tr)
        assert len(cases) >= 80
        assert repeats_at_step_1 >= 20 and never_repeats >= 20
        # qp and tower sides: unipotent matrices with 1/p, which stall after
        # step 2, p-adic towers, some of which stall, and shifts, which never
        # do; the driver's padded chains equal the full builds at every step
        pair_cases = []
        for prime, entries in [(2, [["1", "1/2"], ["0", "1"]]), (3, [["1", "1/3"], ["0", "1"]])]:
            m = bridge.padic.rational_matrix(entries)
            pair_cases += [(partial(qp_pairs, prime, m, steps), steps) for steps in range(1, 11)]
        for _ in range(20):
            height = rng.randint(1, 4)
            entries = [[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)]
            endo = padic_tower(rng.choice([2, 3]), height, entries)
            steps = rng.randint(1, 6)
            pair_cases.append((partial(endo.pairs, rng.randrange(height), steps), steps))
        for _ in range(20):
            height = rng.randint(3, 8)
            j = rng.randrange(height - 2)
            steps = rng.randint(3, height - j)
            pair_cases.append((partial(full_shift_tower(rng.randint(2, 4), height).pairs, j, steps), steps))
        stalled = growing = 0
        for make_pairs, steps in pair_cases:
            (co, _), (tr, _) = two_chains(*make_pairs(), steps)
            meet, join = make_pairs()
            assert co == list(meet_chain(*meet))
            assert tr == list(join_chain(*join))
            stalled += steps > 2 and co[-1] is co[-2]
            growing += steps > 2 and strictly_monotone(co) and strictly_monotone(tr)
        assert len(pair_cases) == 60
        assert stalled >= 20 and growing >= 20

    @pytest.mark.parametrize(
        "hyperplane, eliminations, products",
        [(15, 1, 0), (0, 15, 14)],
        ids=["invariant", "strictly-decreasing"],
    )
    def test_counts_the_work(self, monkeypatch, hyperplane, eliminations, products):
        # the left shift on (Z/2)^16 leaves {x_15 = 0} invariant, so both
        # chains repeat at step 1; with {x_0 = 0} they never repeat in 16 steps
        g, f = left_shift(16)
        u = coordinate_hyperplane(g, hyperplane)
        fhat = dual_hom(f)
        counts = {"preimage_lattice": 0, "join": 0, f: 0, fhat: 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        real_rows = exactlinalg._rows

        def rows(a, b, moduli, reduced, packing):
            # the powers kernel's products are the ones by the fixed factor
            for h in (f, fhat):
                counts[h] += b == h.matrix
            return real_rows(a, b, moduli, reduced, packing)

        monkeypatch.setattr(
            fingroup, "preimage_lattice", counted("preimage_lattice", fingroup.preimage_lattice)
        )
        monkeypatch.setattr(fingroup, "_joined", counted("join", fingroup._joined))
        monkeypatch.setattr(exactlinalg, "_rows", rows)
        (co, _), (tr, _) = _finite_chains(f, u, 16)
        assert len(co) == len(tr) == 16
        # one elimination per term built after the first, which the identity
        # gives as U or perp U: the meet chain's are preimage lattices, the
        # join chain's Hermite forms; one product per power read after f
        # itself, so none when the chains stall at the second term
        assert counts == {
            "preimage_lattice": eliminations,
            "join": eliminations,
            f: products,
            fhat: products,
        }

    @pytest.mark.parametrize(
        "hyperplane, read", [(15, 2), (0, 16)], ids=["invariant", "strictly-decreasing"]
    )
    def test_reads_no_power_past_the_stall(self, monkeypatch, hyperplane, read):
        # each side reads its powers lazily: a chain that stalls at its second
        # term reads 1 and f only, and one that never stalls reads all 16
        g, f = left_shift(16)
        u = coordinate_hyperplane(g, hyperplane)
        seen = []
        real_powers = bridge.powers

        def recording(h, n):
            maps = []
            seen.append(maps)
            for power in real_powers(h, n):
                maps.append(power)
                yield power

        monkeypatch.setattr(bridge, "powers", recording)
        (co, _), (tr, _) = _finite_chains(f, u, 16)
        assert len(co) == len(tr) == 16
        assert [len(maps) for maps in seen] == [read, read]
        assert seen[0][:2] == [GroupHom.identity(g), f] and seen[0][1] is f

    @pytest.mark.parametrize(
        "hyperplane, built, distinct",
        [(15, 2, 1), (0, 16, 16)],
        ids=["invariant", "strictly-decreasing"],
    )
    def test_indexes_each_distinct_term_once(self, monkeypatch, hyperplane, built, distinct):
        # the report builds each chain up to its first repeat (one elimination
        # per term built after the first, the repeat included: the identity
        # gives the first) and reads the determinant of each term built once,
        # the repeat included, since an unchanged determinant is what finds
        # the repeat; it never calls the checked index
        g, f = left_shift(16)
        u = coordinate_hyperplane(g, hyperplane)
        counts = {"preimage_lattice": 0, "join": 0, "det": 0, "index": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            fingroup, "preimage_lattice", counted("preimage_lattice", fingroup.preimage_lattice)
        )
        monkeypatch.setattr(fingroup, "_joined", counted("join", fingroup._joined))
        monkeypatch.setattr(HnfBasis, "det", counted("det", HnfBasis.det))
        monkeypatch.setattr(bridge, "index", counted("index", bridge.index))
        report = finite_bridge(f, u, 16)
        assert counts == {
            "preimage_lattice": built - 1,
            "join": built - 1,
            "det": 2 * built,
            "index": 0,
        }
        expected = [1] * 16 if hyperplane == 15 else [2**n for n in range(16)]
        assert report["indices"] == {"primal": expected, "dual": expected}
        assert len(set(expected)) == distinct
        assert report["verdict"] == "pass"

    def test_qp_stops_where_neither_chain_changed(self, monkeypatch):
        # the unipotent [[1, 1/2], [0, 1]] has indices [1] + [2] * 9: C_3 = C_2
        # and T_3 = T_2 end both chains, after one elimination on each side.
        # With B = [[2, 1], [0, 2]] and G = (Z/2^9)^2 the maps 2^(9-k) B^k are
        # zero for k = 0 and k = 2, so steps 1 and 3 keep the term before
        counts = {"preimage_lattice": 0, "join": 0}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(
            fingroup, "preimage_lattice", counted("preimage_lattice", fingroup.preimage_lattice)
        )
        monkeypatch.setattr(fingroup, "_joined", counted("join", fingroup._joined))
        report = qp_bridge(2, [["1", "1/2"], ["0", "1"]], 10)
        assert counts == {"preimage_lattice": 1, "join": 1}
        expected = [1] + [2] * 9
        assert report["indices"] == {"primal": expected, "dual": expected}
        assert report["verdict"] == "pass"


class TestLaws:
    def test_names_and_frozen_instance(self):
        g, f, u = frozen_instance()
        v = subgroup_from_generators(g, [[2, 0, 0]])
        checks = check_all_laws(f, u, v, 4)
        assert [c.law for c in checks] == LAW_NAMES
        assert all(c.passed and c.payload is None for c in checks)

    def test_random_instances(self):
        rng = random.Random(41)
        for _ in range(20):
            group = random_finite_group(rng, max_order=512)
            f = random_endomorphism(rng, group)
            u = random_subgroup(rng, group)
            v = random_subgroup(rng, group)
            assert all(c.passed for c in check_all_laws(f, u, v, 4))

    def test_chain_laws_report_first_failing_index_step(self, monkeypatch):
        # per step the law asks for index(U, C_n), then index(T_n, perp U)
        # (calls 2n - 1 and 2n); every dual index from step 3 on is made wrong
        g, f, u = frozen_instance()
        real_index = bridge.index
        calls = []

        def faulty_index(outer, inner):
            calls.append(None)
            value = real_index(outer, inner)
            return value + 1 if len(calls) >= 6 and len(calls) % 2 == 0 else value

        monkeypatch.setattr(bridge, "index", faulty_index)
        perp_law, index_law = check_chain_laws(f, u, 5)
        assert perp_law.law == "cotrajectory-annihilator-is-dual-trajectory"
        assert perp_law.passed and perp_law.payload is None
        assert index_law.law == "per-step-index-identity" and not index_law.passed
        assert index_law.payload == {
            "endomorphism": _hom_payload(f),
            "subgroup": _subgroup_payload(u),
            "step": 3,
            "primal_index": 4,
            "dual_index": 5,
        }

    def test_chain_laws_report_first_failing_annihilator_step(self, monkeypatch):
        # the first call is perp U; the annihilator of C_n is call n + 1
        g, f, u = frozen_instance()
        real_annihilator = bridge.annihilator
        wrong = full_subgroup(dual_group(g))
        calls = []

        def faulty_annihilator(subgroup):
            calls.append(None)
            return wrong if len(calls) >= 3 else real_annihilator(subgroup)

        monkeypatch.setattr(bridge, "annihilator", faulty_annihilator)
        perp_law, index_law = check_chain_laws(f, u, 5)
        assert index_law.passed and index_law.payload is None
        assert not perp_law.passed
        t2 = recursive_trajectory(dual_hom(f), annihilator(u), 2)[1]
        assert perp_law.payload == {
            "endomorphism": _hom_payload(f),
            "subgroup": _subgroup_payload(u),
            "step": 2,
            "annihilator_of_cotrajectory": _subgroup_payload(wrong),
            "dual_trajectory": _subgroup_payload(t2),
        }

    def test_quotient_law_payload(self, monkeypatch):
        g, f, u = frozen_instance()
        v = subgroup_from_generators(g, [[2, 0, 0]])
        monkeypatch.setattr(bridge, "check_quotient_duality", lambda outer, inner: ((2,), (4,)))
        checks = check_all_laws(f, u, v, 4)
        assert all(c.passed for c in checks[:-1])
        quotient = checks[-1]
        assert quotient.law == "quotient-invariants-match" and not quotient.passed
        assert quotient.payload == {
            "outer": _subgroup_payload(u.sum(v)),
            "inner": _subgroup_payload(u.intersect(v)),
            "primal_invariants": [2],
            "dual_invariants": [4],
        }

    def test_law_payload_plumbing(self):
        assert _law("x", True, {"detail": 1}).payload is None
        failing = _law("x", False, {"detail": 1})
        assert not failing.passed and failing.payload == {"detail": 1}


class TestFiniteBridge:
    def test_frozen_example(self):
        g, f, u = frozen_instance()
        report = finite_bridge(f, u, 6)
        assert report["verdict"] == "pass"
        assert report["indices"] == {
            "primal": [1, 2, 4, 4, 4, 4],
            "dual": [1, 2, 4, 4, 4, 4],
        }
        assert report["per_step_equal"] == [True] * 6
        assert report["counterexample"] is None
        assert report["moduli"] == [4, 2, 2]
        # the chains stall, so the last ratio is 1 and entropy 0 is exact
        assert report["estimates"]["primal"] == {"ratio": 1, "value": 0.0, "exact": True}

    def test_left_shift_example(self):
        g = FinAbGroup((2, 2, 2, 2))
        rows = [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]
        f = GroupHom(g, g, IntMatrix.from_rows(rows))
        u = subgroup_from_generators(g, [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        report = finite_bridge(f, u, 5)
        assert report["indices"]["primal"] == [1, 2, 4, 8, 8]
        assert report["indices"]["dual"] == [1, 2, 4, 8, 8]
        assert report["verdict"] == "pass"

    @pytest.mark.parametrize(
        "moduli, endomorphism, subgroup",
        [([], [], []), ([1, 1], [[1, 2], [3, 4]], [[1, 1]])],
        ids=["rank-0", "modulus-1"],
    )
    def test_trivial_groups(self, moduli, endomorphism, subgroup):
        # the trivial group of rank 0 and Z/1 x Z/1: every index is 1, and
        # the powers kernel never needs to pack a row
        instance = {"kind": "finite", "moduli": moduli, "endomorphism": endomorphism, "subgroup": subgroup}
        report = verify_instance({**instance, "steps": 3})
        assert report["indices"] == {"primal": [1, 1, 1], "dual": [1, 1, 1]}
        assert report["verdict"] == "pass"

    def test_requires_matching_endomorphism(self):
        g, f, u = frozen_instance()
        other = FinAbGroup((2,))
        w = subgroup_from_generators(other, [])
        with pytest.raises(ValueError, match="endomorphism"):
            finite_bridge(f, w, 3)

    def test_mismatch_plumbing(self):
        # a two-sided report over unequal sequences names the first failing
        # step with both indices and both chain terms; the dual ratios (2, 4)
        # also break the ratio law, at the index b_3
        g, f, u = frozen_instance()
        (co, primal), (tr, dual_side) = _finite_chains(f, u, 3)
        assert primal == dual_side == [1, 2, 4]
        report = _two_sided_report("finite", ((co, primal), (tr, [1, 2, 8])), {"moduli": [4, 2, 2]})
        assert report["verdict"] == "mismatch"
        assert report["per_step_equal"] == [True, True, False]
        assert report["counterexample"] == {
            "step": 3,
            "primal_index": 4,
            "dual_index": 8,
            "cotrajectory": _subgroup_payload(co[2]),
            "dual_trajectory": _subgroup_payload(tr[2]),
            "ratio_law": {"dual": {"step": 3, "indices": [1, 2, 8]}},
        }

    def test_mismatch_names_the_first_failing_step(self, monkeypatch):
        # the left shift on (Z/2)^6 with U = {x_0 = 0} has indices 2^n on both
        # sides; the dual side's third map is zero, so T_3 = T_2 while
        # C_3 != C_2, and the dual chain keeps growing past its stall
        g, f = left_shift(6)
        u = coordinate_hyperplane(g, 0)
        (co, _), (tr, _) = _finite_chains(f, u, 6)
        two_chains = bridge.two_chains
        monkeypatch.setattr(
            bridge,
            "two_chains",
            lambda meet, join, steps: two_chains(meet, third_map_zero(join), steps),
        )
        report = finite_bridge(f, u, 6)
        assert report["indices"] == {"primal": [1, 2, 4, 8, 16, 32], "dual": [1, 2, 2, 4, 8, 16]}
        assert report["verdict"] == "mismatch"
        assert report["per_step_equal"] == [True, True, False, False, False, False]
        assert report["counterexample"] == {
            "step": 3,
            "primal_index": 4,
            "dual_index": 2,
            "cotrajectory": _subgroup_payload(co[2]),
            "dual_trajectory": _subgroup_payload(tr[1]),
            "ratio_law": {"dual": {"step": 4, "indices": [2, 2, 4]}},
        }


def third_map_zero(side):
    """The side with its third map replaced by the zero map, still read
    lazily, so the third join term repeats the second."""
    maps, source = side

    def zero(h):
        return GroupHom(h.domain, h.codomain, IntMatrix.zero(h.codomain.rank, h.domain.rank))

    return (zero(h) if k == 2 else h for k, h in enumerate(maps)), source


class TestShiftBridge:
    def test_binary_shift(self):
        report = shift_bridge(2, 8, 1, 7)
        expected = [2**t for t in range(7)]
        assert report["indices"] == {"primal": expected, "dual": expected}
        assert report["verdict"] == "pass"
        assert report["estimates"]["primal"] == {"ratio": 2, "value": math.log(2), "exact": False}
        assert report["modulus"] == 2 and report["level"] == 1

    def test_range_refused_before_any_level_is_built(self, monkeypatch):
        # shift_pairs builds every group and map of the route through
        # tdlca._trusted, after its range checks
        def unreachable(cls, *values):
            raise AssertionError(f"{cls.__name__} built")

        monkeypatch.setattr(tdlca, "_trusted", unreachable)
        with pytest.raises(InputError, match="tower has no level 70"):
            shift_bridge(2, 64, 70, 2)
        instance = {"kind": "shift", "modulus": 2, "height": 64, "level": 63, "steps": 2}
        with pytest.raises(InputError, match=r"\(j, n\) = \(63, 2\); need level 64"):
            verify_instance(instance)

    def test_only_the_working_levels_are_built(self, monkeypatch):
        ranks = []

        def recording(modulus, height, level, steps):
            (maps, zero), join = shift_pairs(modulus, height, level, steps)
            maps = list(maps)
            ranks.append({f.domain.rank for f in maps})
            return (maps, zero), join

        monkeypatch.setattr(bridge, "shift_pairs", recording)
        report = shift_bridge(2, 64, 0, 2)
        shorter = shift_bridge(3, 64, 5, 4)
        # every map starts at the working level l = level + steps - 1, of rank l + 1
        assert ranks == [{2}, {9}]
        # the report carries the given height, and the indices of a
        # 64-level tower
        estimate = {"exact": False, "ratio": 2, "value": math.log(2)}
        assert report == {
            "counterexample": None,
            "estimates": {"dual": estimate, "primal": estimate},
            "height": 64,
            "indices": {"dual": [1, 2], "primal": [1, 2]},
            "kind": "shift",
            "level": 0,
            "modulus": 2,
            "per_step_equal": [True, True],
            "steps": 2,
            "verdict": "pass",
        }
        assert shorter["height"] == 64
        assert shorter["indices"]["primal"] == shorter["indices"]["dual"] == [1, 3, 9, 27]

    def test_condition_maps_built_once_per_verify(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return shift_pairs(*args)

        monkeypatch.setattr(bridge, "shift_pairs", counting)
        instance = {"kind": "shift", "modulus": 3, "height": 10, "level": 2, "steps": 6}
        assert verify_instance(instance)["verdict"] == "pass"
        assert calls == [(3, 10, 2, 6)]

    def test_verify_builds_no_tower(self, monkeypatch):
        # the closed-form maps need neither the tower nor its composites
        def unreachable(*args):
            raise AssertionError("tower code reached")

        trusted = tdlca._trusted

        def no_tower(cls, *values):
            assert cls not in (tdlca.Tower, tdlca.TowerEndo), cls.__name__
            return trusted(cls, *values)

        monkeypatch.setattr(tdlca, "full_shift_tower", unreachable)
        monkeypatch.setattr(tdlca, "_trusted", no_tower)
        for name in ("__post_init__", "project"):
            monkeypatch.setattr(tdlca.Tower, name, unreachable)
        for name in ("__post_init__", "iterate", "pairs"):
            monkeypatch.setattr(tdlca.TowerEndo, name, unreachable)
        instance = {"kind": "shift", "modulus": 6, "height": 12, "level": 3, "steps": 9}
        report = verify_instance(instance)
        assert report["verdict"] == "pass"
        assert report["indices"]["primal"] == [6**n for n in range(9)]

    def test_mismatch_names_the_first_failing_step(self, monkeypatch):
        # the dual side's third map is zero, so T_3 = T_2 and the dual index
        # at step 3 is 2 where the primal one is 4
        def wrong_dual(*args):
            meet, join = shift_pairs(*args)
            return meet, third_map_zero(join)

        co, tr = tower_chains(full_shift_tower(2, 8), 1, 7)
        monkeypatch.setattr(bridge, "shift_pairs", wrong_dual)
        report = shift_bridge(2, 8, 1, 7)
        assert report["indices"] == {
            "primal": [1, 2, 4, 8, 16, 32, 64],
            "dual": [1, 2, 2, 8, 16, 32, 64],
        }
        assert report["verdict"] == "mismatch"
        assert report["per_step_equal"] == [True, True, False, True, True, True, True]
        assert report["counterexample"] == {
            "step": 3,
            "primal_index": 4,
            "dual_index": 2,
            "cotrajectory": _subgroup_payload(co[2]),
            "dual_trajectory": _subgroup_payload(tr[1]),
            "ratio_law": {"dual": {"step": 4, "indices": [2, 2, 8]}},
        }


class TestQpBridge:
    def test_contracting_scalar(self):
        report = qp_bridge(2, [["1/2"]], 6)
        assert report["verdict"] == "pass"
        assert report["indices"]["primal"] == [1, 2, 4, 8, 16, 32]
        assert report["closed_form"] == {"multiple": 1, "prime": 2, "value": math.log(2)}
        assert report["agreement"]["primal"]["consistent"]
        assert report["agreement"]["dual"]["consistent"]

    def test_integral_scalar(self):
        report = qp_bridge(2, [[2]], 6)
        assert report["verdict"] == "pass"
        assert report["indices"]["primal"] == [1] * 6
        assert report["closed_form"]["multiple"] == 0

    def test_singular_closed_forms(self):
        # over Q_2, (1/2, 0) has entropy log 2 and the projection with
        # eigenvalues 1 and 0 has entropy 0; the zero eigenvalue adds nothing
        report = qp_bridge(2, [["1/2", "0"], ["0", "0"]], 8)
        assert report["verdict"] == "pass"
        assert report["indices"]["primal"] == [2**n for n in range(8)]
        assert report["closed_form"]["multiple"] == 1
        report = qp_bridge(2, [["1/2", "1/2"], ["1/2", "1/2"]], 8)
        assert report["verdict"] == "pass"
        assert report["indices"]["primal"] == [1] + [2] * 7
        assert report["closed_form"]["multiple"] == 0

    def test_working_modulus_refused_before_char_poly(self, monkeypatch):
        # entries 1/(8 b) with 256 distinct odd b: char_poly would spend
        # seconds on Fraction sums, but 64 steps need 2^(63 * 3) = 2^189
        entries = [[f"1/{8 * (32 * i + 2 * j + 1)}" for j in range(16)] for i in range(16)]
        instance = {"kind": "qp", "prime": 2, "matrix": entries, "steps": 64}
        jsonschema.validate(instance, load_schema("instance"))

        def unreachable(matrix):
            raise AssertionError("char_poly reached")

        monkeypatch.setattr(bridge.padic, "char_poly", unreachable)
        with pytest.raises(InputError, match=r"working modulus 2\^189 exceeds 2\^128"):
            verify_instance(instance)

    def test_mismatch_names_the_first_failing_step(self, monkeypatch):
        # 1/2 on Q_2 over 6 steps has indices 2^n on both sides; the dual
        # side's third map is zero, so T_3 = T_2 and b_3 = 2 where a_3 = 4
        m = bridge.padic.rational_matrix([["1/2"]])
        (co, _), (tr, _) = two_chains(
            bridge.padic.cotrajectory_pairs(2, m, 6), bridge.padic.trajectory_pairs(2, m, 6), 6
        )
        trajectory_pairs = bridge.padic.trajectory_pairs
        monkeypatch.setattr(
            bridge.padic,
            "trajectory_pairs",
            lambda prime, matrix, steps: third_map_zero(trajectory_pairs(prime, matrix, steps)),
        )
        report = qp_bridge(2, [["1/2"]], 6)
        assert report["indices"] == {"primal": [1, 2, 4, 8, 16, 32], "dual": [1, 2, 2, 8, 16, 32]}
        assert report["verdict"] == "mismatch"
        assert report["per_step_equal"] == [True, True, False, True, True, True]
        assert report["counterexample"] == {
            "step": 3,
            "primal_index": 4,
            "dual_index": 2,
            "cotrajectory": _subgroup_payload(co[2]),
            "dual_trajectory": _subgroup_payload(tr[1]),
            "ratio_law": {"dual": {"step": 4, "indices": [2, 2, 8]}},
            "agreement": report["agreement"],
        }

    def test_closed_form_mismatch_carries_the_agreement(self, monkeypatch):
        # every step matches, so the counterexample names no step
        newton_entropy = bridge.padic.newton_entropy
        monkeypatch.setattr(
            bridge.padic, "newton_entropy", lambda prime, coeffs: newton_entropy(prime, coeffs) + 1
        )
        report = qp_bridge(2, [["1/2"]], 6)
        assert report["per_step_equal"] == [True] * 6
        assert report["closed_form"] == {"multiple": 2, "prime": 2, "value": 2 * math.log(2)}
        assert report["agreement"] == {
            "primal": {"consistent": False, "reached": False},
            "dual": {"consistent": False, "reached": False},
        }
        assert report["verdict"] == "mismatch"
        assert report["counterexample"] == {"agreement": report["agreement"]}

    @staticmethod
    def _draws_with_closed_form_moved(monkeypatch, delta):
        """200 seeded qp draws, each route of which reaches p^m, with the
        Newton multiple m moved by delta (draws with m = 0 left out for
        delta < 0)."""
        padic = bridge.padic
        newton_entropy = padic.newton_entropy

        def multiple(inst):
            return newton_entropy(inst["prime"], padic.char_poly(padic.rational_matrix(inst["matrix"])))

        draws = [
            random_qp_instance(random.Random(seed), prime=prime, dim=dim)
            for seed in range(50)
            for prime, dim in [(2, 2), (3, 2), (2, 3), (3, 3)]
        ]
        if delta < 0:
            draws = [inst for inst in draws if multiple(inst) >= 1]
        monkeypatch.setattr(padic, "newton_entropy", lambda p, coeffs: newton_entropy(p, coeffs) + delta)
        return [verify_instance(inst) for inst in draws]

    @pytest.mark.parametrize("delta", [0, 1])
    def test_closed_form_off_by_one_is_a_mismatch(self, monkeypatch, delta):
        # every route reaches p^m, so p^(m + 1) divides no last ratio;
        # unchanged, every draw passes
        reports = self._draws_with_closed_form_moved(monkeypatch, delta)
        assert {report["verdict"] for report in reports} == {"pass" if delta == 0 else "mismatch"}

    def test_closed_form_one_below_is_consistent_but_not_reached(self, monkeypatch):
        # p^(m - 1) divides every ratio, so no finite run refutes it (the
        # ratios could still fall to it), but no route reaches it
        reports = self._draws_with_closed_form_moved(monkeypatch, -1)
        assert {report["verdict"] for report in reports} == {"pass"}
        agreements = [a for report in reports for a in report["agreement"].values()]
        assert all(a == {"consistent": True, "reached": False} for a in agreements)

    @pytest.mark.parametrize("multiple,consistent", [(1, True), (2, False)])
    def test_bounded_only_agreement(self, monkeypatch, multiple, consistent):
        # indices [1, 2, 4] only bound the entropy, by log 2, their last
        # ratio: 2^m divides 2, and so agrees with it, only for m <= 1
        monkeypatch.setattr(bridge.padic, "newton_entropy", lambda prime, coeffs: multiple)
        report = qp_bridge(2, [["1/2"]], 3)
        assert report["indices"]["primal"] == [1, 2, 4]
        estimate = {"ratio": 2, "value": math.log(2), "exact": False}
        assert report["estimates"] == {"primal": estimate, "dual": estimate}
        agreement = {"consistent": consistent, "reached": consistent}
        assert report["agreement"] == {"primal": agreement, "dual": agreement}
        assert report["verdict"] == ("pass" if consistent else "mismatch")

    def test_closed_form_dividing_the_last_ratio_is_consistent(self):
        # the ratios 9, 9, 9 of 4 steps fall to 3 = 3^1, the Newton multiple,
        # only at 5 steps: 3 divides 9, so both routes agree without reaching it
        matrix = [
            ["-162", "0", "81", "-6"],
            ["1", "-6", "0", "54"],
            ["-81", "-1", "-9", "-18"],
            ["-1/9", "81", "1/9", "0"],
        ]
        report = qp_bridge(3, matrix, 4)
        assert report["indices"]["primal"] == report["indices"]["dual"] == [1, 9, 81, 729]
        assert report["closed_form"]["multiple"] == 1
        assert report["verdict"] == "pass"
        assert all(a == {"consistent": True, "reached": False} for a in report["agreement"].values())
        for steps in range(5, 13):
            report = qp_bridge(3, matrix, steps)
            assert report["verdict"] == "pass"
            assert all(a == {"consistent": True, "reached": True} for a in report["agreement"].values())


class TestRatioLaw:
    @pytest.mark.parametrize("kind", ["finite", "shift", "qp"])
    def test_law_holds_on_both_sides_of_random_draws(self, kind):
        # each side's ratios are integers that divide the one before, and
        # r_(N-1)^(n-1) <= a_n at every n, so the last ratio is never a
        # looser bound than the subadditive one.  Draws are counted only
        # when their indices move: about 7 in 8 finite draws have U = 0,
        # U = G or another f-invariant U, whose chains are constant
        rng = random.Random(f"ratio-law/{kind}")
        moving = 0
        while moving < 200:
            report = verify_instance(random_instance(rng, kind))
            assert report["verdict"] == "pass"
            moving += report["indices"]["primal"][-1] > 1
            for seq in report["indices"].values():
                est = estimate_entropy(seq)
                assert est.broken_at is None, seq
                assert all(est.ratio ** (n - 1) <= a for n, a in enumerate(seq, start=1)), seq
                assert not certified_upper_bound(seq).exceeded_by_ratio(est.ratio), seq

    @pytest.mark.parametrize(
        "instance",
        [
            {"kind": "shift", "modulus": 2, "height": 8, "level": 1, "steps": 7},
            {"kind": "qp", "prime": 2, "matrix": [["1/2"]], "steps": 7},
        ],
        ids=["shift", "qp"],
    )
    def test_broken_law_on_both_sides_is_a_mismatch(self, monkeypatch, tmp_path, capsys, instance):
        # both sides give the same indices, whose ratios (2, 4, ...) break the
        # law at a_3: every step is equal, and still the verdict is mismatch
        two_chains = bridge.two_chains
        broken = [1, 2, 8, 32, 128, 512, 2048]

        def breaking(meet, join, steps):
            (co, _), (tr, _) = two_chains(meet, join, steps)
            return (co, list(broken)), (tr, list(broken))

        monkeypatch.setattr(bridge, "two_chains", breaking)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance), encoding="utf-8")
        assert cli.main(["verify", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["per_step_equal"] == [True] * 7
        assert report["verdict"] == "mismatch"
        law = {side: {"step": 3, "indices": [1, 2, 8]} for side in ("primal", "dual")}
        assert report["counterexample"]["ratio_law"] == law
        assert cli.main(["verify", str(path), "--format", "text"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "verdict: mismatch" in lines
        assert all(f"{side} ratio law broken at step 3" in lines for side in ("primal", "dual"))


class TestRealBridge:
    def test_hyperbolic(self):
        report = real_bridge([[2, 0], [0, "1/2"]])
        assert report["verdict"] == "pass"
        assert not report["boundary_warning"]
        assert report["difference"] <= 1e-12

    def test_rotation_flags_boundary(self):
        report = real_bridge([[0, -1], [1, 0]])
        assert report["verdict"] == "pass"
        assert report["boundary_warning"]
        assert report["topological"] == 0.0

    @pytest.mark.parametrize("tol", [0, -1e-9, math.inf, math.nan])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(InputError, match="not a positive finite number"):
            real_bridge([[2]], tol)

    def test_echoes_the_parsed_entries(self):
        report = real_bridge([[2.0, "6/4"], [0, 0.5]])
        assert report["matrix"] == [["2", "3/2"], ["0", "1/2"]]


class TestVerifyDispatch:
    def test_each_kind(self, monkeypatch):
        rng = random.Random(3)
        instances = {kind: random_instance(rng, kind) for kind in ["finite", "shift", "qp", "real"]}
        for kind, instance in instances.items():
            report = verify_instance(instance)
            assert report["kind"] == kind
            assert report["verdict"] == "pass"

        # fewer than two steps are refused before any chain is built, from a
        # dict and by each exact bridge called directly
        def no_chain(*args):
            raise AssertionError("chain built")

        monkeypatch.setattr(bridge, "two_chains", no_chain)
        for kind in ["finite", "shift", "qp"]:
            with pytest.raises(InputError, match="step count must be at least 2"):
                verify_instance({**instances[kind], "steps": 1})
        _, f, u = frozen_instance()
        for steps in (0, 1):
            for call in (
                lambda: finite_bridge(f, u, steps),
                lambda: shift_bridge(2, 8, 1, steps),
                lambda: qp_bridge(2, [["1/2"]], steps),
            ):
                with pytest.raises(InputError, match="step count must be at least 2"):
                    call()

    @pytest.mark.parametrize(
        "change",
        [
            {"endomorphism": [[2.9]]},
            {"moduli": [4.7]},
            {"subgroup": [["1"]]},
            {"kind": "shift", "modulus": 2.5, "height": 4, "level": 0},
        ],
        ids=["float-entry", "float-modulus", "string-generator", "float-shift-modulus"],
    )
    def test_non_integer_counts_are_refused(self, change):
        # int() would truncate 2.9 to 2 and parse "1", and verify another instance
        instance = {"kind": "finite", "moduli": [4], "endomorphism": [[2]], "subgroup": [[1]], "steps": 3}
        assert verify_instance(instance)["verdict"] == "pass"
        with pytest.raises(TypeError):
            verify_instance({**instance, **change})

    @pytest.mark.parametrize(
        "instance, message",
        [
            ({"kind": "finite", "moduli": [4], "endomorphism": [[1]], "subgroup": []}, "finite instance lacks 'steps'"),
            ({"kind": "shift", "steps": 3}, "shift instance lacks 'modulus'"),
            ({"kind": "qp", "prime": 2, "steps": 3}, "qp instance lacks 'matrix'"),
            ({"kind": "real"}, "real instance lacks 'matrix'"),
            ([["1"]], "an instance is a dict, not list"),
        ],
        ids=["finite-no-steps", "shift-no-modulus", "qp-no-matrix", "real-no-matrix", "not-a-dict"],
    )
    def test_malformed_instance_is_refused(self, monkeypatch, instance, message):
        # the keys are checked before anything is parsed, so no bridge runs
        def no_bridge(*args):
            raise AssertionError("bridge called")

        for name in ["finite_bridge", "shift_bridge", "qp_bridge", "real_bridge"]:
            monkeypatch.setattr(bridge, name, no_bridge)
        with pytest.raises(InputError, match=message):
            verify_instance(instance)

    def test_required_keys_are_the_schemas(self):
        # every kind of the shipped schema, and no other, requires the keys
        # of its schema branch, "kind" aside, in the schema's order; and
        # `entbridge generate` offers exactly those kinds
        schema = load_schema("instance")
        kinds = [branch["$ref"].rsplit("/", 1)[1] for branch in schema["oneOf"]]
        assert sorted(kinds) == sorted(bridge._KINDS)
        for kind in kinds:
            required = schema["$defs"][kind]["required"]
            assert "kind" in required, kind
            assert [key for key in required if key != "kind"] == list(bridge._KINDS[kind][0]), kind
        commands = next(a for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction))
        generate = next(a for a in commands.choices["generate"]._actions if a.dest == "kind")
        assert set(generate.choices) == set(bridge._KINDS) == set(kinds)

    def test_unknown_kind(self):
        with pytest.raises(InputError, match="unknown instance kind"):
            verify_instance({"kind": "adelic"})
        with pytest.raises(ValueError, match="unknown instance kind"):
            random_instance(random.Random(0), "adelic")


class TestGenerators:
    def test_instances_satisfy_schema(self):
        schema = load_schema("instance")
        rng = random.Random(9)
        for kind in ["finite", "shift", "qp", "real"]:
            for _ in range(10):
                jsonschema.validate(random_instance(rng, kind), schema)

    def test_group_order_cap(self):
        rng = random.Random(13)
        for _ in range(200):
            assert random_finite_group(rng).order <= 4096

    def test_qp_instances_are_invertible(self):
        rng = random.Random(15)
        for _ in range(10):
            inst = random_qp_instance(rng, prime=3, dim=3)
            report = verify_instance(inst)
            assert report["verdict"] == "pass"
