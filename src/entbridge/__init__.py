"""Exact entropy on totally disconnected LCA groups, with duality cross-checks.

The package computes topological entropy (shrinking cotrajectories of a
compact open subgroup) and algebraic entropy (growing trajectories on
the character group) as exact integer index sequences, and verifies
that Pontryagin duality exchanges the two, step by step, on finite
groups, profinite towers, p-adic vector spaces and R^n.
"""

from .duality import (
    annihilator,
    check_quotient_duality,
    dual_group,
    dual_hom,
    pairing,
    quotient_invariants,
)
from .entropyseq import EntropyEstimate, estimate_entropy
from .exactlinalg import HnfBasis, InputError, IntMatrix, hnf, kernel_basis, preimage_lattice, snf
from .fingroup import (
    FinAbGroup,
    GroupHom,
    SubgroupLattice,
    full_subgroup,
    image,
    index,
    join_chain,
    kernel,
    meet_chain,
    powers,
    preimage,
    subgroup_from_generators,
    trivial_subgroup,
    two_chains,
)
from .padic import (
    PadicLattice,
    char_poly,
    lattice_from_columns,
    newton_entropy,
    standard_lattice,
)
from .realspace import BoundaryEigenvalueWarning, algebraic_entropy, topological_entropy
from .tdlca import Tower, TowerEndo, full_shift_tower, padic_tower, shift_pairs
from .bridge import (
    LawCheck,
    check_all_laws,
    finite_bridge,
    qp_bridge,
    real_bridge,
    shift_bridge,
    verify_instance,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "InputError",
    "IntMatrix",
    "HnfBasis",
    "hnf",
    "snf",
    "kernel_basis",
    "preimage_lattice",
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
    "powers",
    "meet_chain",
    "join_chain",
    "two_chains",
    "dual_group",
    "pairing",
    "annihilator",
    "dual_hom",
    "quotient_invariants",
    "check_quotient_duality",
    "EntropyEstimate",
    "estimate_entropy",
    "Tower",
    "TowerEndo",
    "full_shift_tower",
    "padic_tower",
    "shift_pairs",
    "PadicLattice",
    "standard_lattice",
    "lattice_from_columns",
    "char_poly",
    "newton_entropy",
    "BoundaryEigenvalueWarning",
    "topological_entropy",
    "algebraic_entropy",
    "LawCheck",
    "check_all_laws",
    "finite_bridge",
    "shift_bridge",
    "qp_bridge",
    "real_bridge",
    "verify_instance",
]
