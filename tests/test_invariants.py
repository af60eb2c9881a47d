"""Every value the package builds without its checks passes them.

The package builds the matrices, homomorphisms, subgroups, Hermite bases,
dual groups and the shift route's groups and maps it computes
through ``exactlinalg._trusted``, which
skips ``__post_init__``.  Here the helper is replaced, in every module
that binds it, by one that builds through the checked constructor, and
each exact route, and the duality laws over mixed moduli, must run with
no check firing, every checked value equal to the unchecked one, and
the same result.

Likewise the chain driver ``fingroup.two_chains`` reads each index as a
determinant ratio, without re-proving that the two terms nest.  Here
every pair it indexes, on each exact route, must nest, and its ratio
must equal the checked ``fingroup.index``.
"""

import random
import sys
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import capped_instances
from entbridge import exactlinalg, fingroup, padic
from entbridge.bridge import check_all_laws, random_instance, random_qp_instance, verify_instance
from entbridge.cli import canonical_json
from entbridge.exactlinalg import IntMatrix
from entbridge.fingroup import FinAbGroup, GroupHom, full_subgroup, image, subgroup_from_generators
from entbridge.tdlca import shift_pairs

# the classes each case must build through the helper; the finite and
# shift routes dualize, so they build dual groups
COMMON = {"IntMatrix", "GroupHom", "HnfBasis", "SubgroupLattice"}
BUILT = {
    "finite": COMMON | {"FinAbGroup"},
    "shift": COMMON | {"FinAbGroup"},
    "qp": COMMON,
    "laws": COMMON | {"FinAbGroup"},
}


@contextmanager
def checked_builds():
    """Route every ``_trusted`` build through the checked constructor; yields
    the count of builds per class and the list of checks that fired.

    A checked value that differs from the unchecked one counts as fired:
    ``GroupHom`` reduces its matrix rather than raising, so an unreduced
    composite would otherwise pass."""
    trusted = exactlinalg._trusted
    built, fired = Counter(), []

    def checked(cls, *values):
        built[cls.__name__] += 1
        try:
            obj = cls(*values)
        except ValueError as exc:
            fired.append(f"{cls.__name__}: {exc}")
            return trusted(cls, *values)
        if obj != trusted(cls, *values):
            fired.append(f"{cls.__name__}: checked value differs")
        return obj

    binders = [
        module
        for name, module in sorted(sys.modules.items())
        if name.startswith("entbridge") and getattr(module, "_trusted", None) is trusted
    ]
    for module in binders:
        module._trusted = checked
    try:
        yield built, fired
    finally:
        for module in binders:
            module._trusted = trusted


@st.composite
def shift_instances(draw):
    height = draw(st.integers(2, 10))
    level = draw(st.integers(0, height - 2))
    return {
        "kind": "shift",
        "modulus": draw(st.integers(2, 6)),
        "height": height,
        "level": level,
        "steps": draw(st.integers(2, height - level)),
    }


def qp_instance(seed, prime, dim, steps):
    return random_qp_instance(random.Random(seed), prime, dim, steps)


INSTANCES = {
    "finite": st.integers(0, 2**32).map(lambda seed: random_instance(random.Random(seed), "finite")),
    "shift": shift_instances(),
    "qp": st.builds(
        qp_instance,
        st.integers(0, 2**32),
        st.sampled_from([2, 3, 5]),
        st.integers(1, 3),
        st.integers(2, 8),
    ),
}


def report(instance):
    return canonical_json(verify_instance(instance))


def laws(instance):
    """``check_all_laws`` on a finite instance's (f, U) with V = f(G): adjoints,
    composites, images and preimages between groups of mixed moduli."""
    group = FinAbGroup(tuple(instance["moduli"]))
    f = GroupHom(group, group, IntMatrix.from_rows(instance["endomorphism"], cols=group.rank))
    u = subgroup_from_generators(group, instance["subgroup"])
    return check_all_laws(f, u, image(f, full_subgroup(group)), instance["steps"])


# each case: the instances it draws and the run it repeats with checked builds
CASES = {kind: (instances, report) for kind, instances in INSTANCES.items()}
CASES["laws"] = (INSTANCES["finite"], laws)


@pytest.mark.parametrize("kind", sorted(CASES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_built_values_pass_their_checks(kind, data):
    instances, run = CASES[kind]
    instance = data.draw(instances)
    expected = run(instance)
    with checked_builds() as (built, fired):
        result = run(instance)
    assert fired == []
    assert BUILT[kind] <= set(built), built
    assert result == expected


@pytest.mark.parametrize("name", ["shift-2^128-height-64", "finite-mixed-rank-16"])
def test_capped_instances_pass_their_checks(name):
    # at the schema caps every Hermite basis a chain step returns, of rank
    # 64 on the shift's working level and 16 on the finite group, passes
    # HnfBasis's checks, not only the small bases drawn above
    instance = capped_instances()[name]
    expected = report(instance)
    with checked_builds() as (built, fired):
        result = report(instance)
    assert fired == []
    assert BUILT[instance["kind"]] <= set(built), built
    assert result == expected


def test_shift_levels_and_dual_groups_go_through_the_helper():
    # every unchecked build of shift_pairs: the working level (Z/3)^5 and
    # the base level (Z/3)^2, the base level's dual group, and one map per
    # step; each adjoint builds its map and its two dual groups
    with checked_builds() as (built, fired):
        meet, join = shift_pairs(3, 6, 1, 4)
        levels = built["FinAbGroup"]
        maps = list(meet[0])
        adjoints = list(join[0])
    assert fired == []
    assert levels == 3 and built["FinAbGroup"] == 3 + 2 * 4
    assert built["GroupHom"] == 2 * 4
    assert {(f.domain, f.codomain) for f in maps} == {(FinAbGroup((3,) * 5), FinAbGroup((3, 3)))}
    assert {g.domain for g in adjoints} == {FinAbGroup((3, 3), dual=True)}


def test_scaled_qp_maps_go_through_the_helper():
    # each p-adic route builds the n scaled maps p^(N-ke) B^k unchecked and
    # no map for an unscaled power B^k: n maps per route
    m = padic.rational_matrix([["1/2", "1"], ["3", "1/4"]])
    for route in (padic.cotrajectory_pairs, padic.trajectory_pairs):
        with checked_builds() as (built, fired):
            maps = list(route(2, m, 5)[0])
        assert fired == []
        assert built["GroupHom"] == len(maps) == 5


@contextmanager
def indexed_chains():
    """Record (terms, indices, meet) for every chain the driver indexes."""
    indexed = fingroup._indexed
    seen = []

    def recording(terms, steps, meet, dets=None):
        terms, indices = indexed(terms, steps, meet=meet, dets=dets)
        seen.append((terms, indices, meet))
        return terms, indices

    fingroup._indexed = recording
    try:
        yield seen
    finally:
        fingroup._indexed = indexed


@pytest.mark.parametrize("kind", sorted(INSTANCES))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_driver_indices_are_checked_indices(kind, data):
    instance = data.draw(INSTANCES[kind])
    with indexed_chains() as seen:
        verify_instance(instance)
    assert [meet for _, _, meet in seen] == [True, False]
    for terms, indices, meet in seen:
        assert len(terms) == len(indices) == instance["steps"]
        for term, index in zip(terms, indices):
            outer, inner = (terms[0], term) if meet else (term, terms[0])
            assert outer.contains(inner)
            assert index == inner.basis.det() // outer.basis.det() == fingroup.index(outer, inner)
        # each meet term lies inside the one before it, each join term contains it
        for before, after in zip(terms, terms[1:]):
            assert before.contains(after) if meet else after.contains(before)
