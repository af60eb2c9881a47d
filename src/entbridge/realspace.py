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
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from typing import Sequence, Union

import numpy as np

__all__ = [
    "BoundaryEigenvalueWarning",
    "eigenvalue_moduli",
    "topological_entropy",
    "algebraic_entropy",
]

RationalLike = Union[int, float, str, Fraction]


class BoundaryEigenvalueWarning(UserWarning):
    """Some eigenvalue modulus is within tolerance of 1."""


def _rational(x: RationalLike) -> Fraction:
    """One matrix entry as an exact rational; non-finite or 'a/0' entries are input errors."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValueError(f"matrix entry {x!r} is not a finite number")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"matrix entry {x!r} has a zero denominator") from None


def _square_rows(entries: Sequence[Sequence[RationalLike]]) -> list[list[Fraction]]:
    """The entries as exact rationals, row by row; a matrix that is not
    square is an input error, whichever route reads it."""
    rows = [[_rational(x) for x in row] for row in entries]
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ValueError("endomorphism matrix must be square")
    return rows


def _as_array(entries: Sequence[Sequence[RationalLike]]) -> np.ndarray:
    rows = _square_rows(entries)
    try:
        return np.array([[float(x) for x in row] for row in rows], dtype=float)
    except OverflowError:
        raise ValueError("matrix entry too large for floating point") from None


def eigenvalue_moduli(entries: Sequence[Sequence[RationalLike]]) -> list[float]:
    """Moduli of the eigenvalues, descending; a modulus that overflows to
    inf or NaN in floating point is an input error (ValueError)."""
    moduli = [abs(v) for v in np.linalg.eigvals(_as_array(entries))]
    if not all(math.isfinite(m) for m in moduli):
        raise ValueError("an eigenvalue modulus is not finite in floating point")
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
    """Same quantity computed on the dual side, i.e. from the transpose."""
    transposed = [list(column) for column in zip(*_square_rows(entries))]
    return _expanding_sum(eigenvalue_moduli(transposed), tol)
