"""Entropy of linear endomorphisms of R^n.

Both entropies of x -> Mx on R^n equal the sum of log|lambda| over
eigenvalues with modulus above 1; the dual endomorphism under the
pairing x . y is the transpose, so the algebraic side is computed from
M^T independently and the two floats cross-check each other.

Unlike the totally disconnected half of the package this is inherently
approximate: eigenvalues come from floating point.  When some modulus
falls within the tolerance band around 1 the classification
expanding/non-expanding is not trustworthy and a
BoundaryEigenvalueWarning is emitted rather than silently picking a
side.

Matrix entries are read by :func:`entbridge.padic.rational_matrix`, as
on Q_p, so both kinds refuse the same entries and shapes.  Each route
reads its matrix once and hands the grid to one eigenvalue helper; the
dual route transposes the grid it read.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

from .exactlinalg import InputError
from .padic import RationalLike, RationalMatrix, rational_matrix

__all__ = [
    "BoundaryEigenvalueWarning",
    "eigenvalue_moduli",
    "topological_entropy",
    "algebraic_entropy",
]


class BoundaryEigenvalueWarning(UserWarning):
    """Some eigenvalue modulus is within tolerance of 1."""


def eigenvalue_moduli(entries: Sequence[Sequence[RationalLike]]) -> list[float]:
    """Moduli of the eigenvalues, descending; an entry too large for a float,
    or a modulus that overflows to inf or NaN, is an input error (InputError)."""
    return _moduli(rational_matrix(entries))


def _moduli(rows: RationalMatrix) -> list[float]:
    """:func:`eigenvalue_moduli` of a grid that :func:`rational_matrix` returned."""
    import numpy as np  # only the real kind loads numpy

    try:
        floats = [[float(x) for x in row] for row in rows]
    except OverflowError:
        raise InputError("matrix entry too large for floating point") from None
    moduli = [abs(v) for v in np.linalg.eigvals(np.array(floats, dtype=float))]
    if not all(math.isfinite(m) for m in moduli):
        raise InputError("an eigenvalue modulus is not finite in floating point")
    return sorted(moduli, reverse=True)


def _expanding_sum(moduli: Sequence[float], tol: float) -> float:
    if any(abs(m - 1.0) <= tol for m in moduli):
        warnings.warn(
            "eigenvalue modulus within tolerance of 1; entropy classification is unreliable",
            BoundaryEigenvalueWarning,
            stacklevel=3,
        )
    return sum(math.log(m) for m in moduli if m > 1.0 + tol)


def topological_entropy(
    entries: Sequence[Sequence[RationalLike]], tol: float = 1e-9
) -> float:
    """Sum of log|lambda| over expanding eigenvalues of M."""
    return _expanding_sum(eigenvalue_moduli(entries), tol)


def algebraic_entropy(
    entries: Sequence[Sequence[RationalLike]], tol: float = 1e-9
) -> float:
    """Same quantity computed on the dual side, i.e. from the transpose.

    The matrix is read, and so checked square, before it is transposed."""
    return _expanding_sum(_moduli(tuple(zip(*rational_matrix(entries)))), tol)
