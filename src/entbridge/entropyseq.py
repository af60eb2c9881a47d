"""Entropy estimation from a finite run of cotrajectory (or trajectory) indices.

The inputs are the integers a_n = [U : C_n] for n = 1..N (equivalently
[T_n : U_perp] on the dual side).  Two exact artefacts are extracted:

* a certified upper bound.  The shifted sequence b_k = log a_{k+1} is
  subadditive, so lim log(a_n)/n = inf_n log(a_{n+1})/n and every
  log(a_n)/(n-1) with n >= 2 is a true upper bound for the entropy.
  The unshifted quantity log(a_n)/n is *not* monotone-safe: a_1 = 1
  would certify 0 for everything.  Bounds are kept as (index, steps)
  pairs and compared through integer cross powers, never floats.

* a stabilization estimate.  The ratio [C_n : C_{n+1}] = a_{n+1}/a_n is
  a nonincreasing positive integer, so once its last three values agree
  it has very likely reached its limit r, and the entropy is log r.
  A stabilized value that exceeds the certified bound is demoted to
  bounded-only rather than reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import total_ordering
from typing import ClassVar, Iterable, Optional, Sequence

__all__ = [
    "LogIndexBound",
    "EntropyEstimate",
    "validate_indices",
    "certified_upper_bound",
    "estimate_entropy",
]

# the stabilization estimate needs this many equal trailing ratios; the
# report records it as "window"
_WINDOW = 3


@total_ordering
@dataclass(frozen=True, eq=False)
class LogIndexBound:
    """The exact real number log(index) / steps.

    Ordering and equality compare values, not representations, via
    index ** other.steps against other.index ** steps.
    """

    index: int
    steps: int

    def __post_init__(self) -> None:
        if self.index < 1 or self.steps < 1:
            raise ValueError("invalid index sequence")

    def as_float(self) -> float:
        return math.log(self.index) / self.steps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LogIndexBound):
            return NotImplemented
        return self.index**other.steps == other.index**self.steps

    def __lt__(self, other: "LogIndexBound") -> bool:
        return self.index**other.steps < other.index**self.steps

    __hash__ = None  # value equality has no cheap canonical form

    def exceeded_by_ratio(self, ratio: int) -> bool:
        """Whether log(ratio) > self, decided exactly."""
        return ratio**self.steps > self.index


@dataclass(frozen=True)
class EntropyEstimate:
    """Outcome of analyzing one finite index sequence."""

    bound: LogIndexBound
    ratio: Optional[int]
    stabilized: bool
    demoted: bool
    window: ClassVar[int] = _WINDOW

    @property
    def status(self) -> str:
        return "stabilized" if self.stabilized else "bounded-only"

    @property
    def value(self) -> Optional[float]:
        if not self.stabilized:
            return None
        return math.log(self.ratio)


def validate_indices(indices: Iterable[int]) -> tuple[int, ...]:
    """Nondecreasing positive integers, else ValueError."""
    seq = tuple(indices)
    if not seq:
        raise ValueError("invalid index sequence")
    for a in seq:
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise ValueError("invalid index sequence")
    for a, b in zip(seq, seq[1:]):
        if b < a:
            raise ValueError("invalid index sequence")
    return seq


def _integer_ratios(seq: Sequence[int]) -> Optional[tuple[int, ...]]:
    out = []
    for a, b in zip(seq, seq[1:]):
        if b % a:
            return None
        out.append(b // a)
    return tuple(out)


def certified_upper_bound(indices: Sequence[int]) -> LogIndexBound:
    """Least log(a_n)/(n-1) over n >= 2, as an exact (index, steps) pair."""
    return _least_bound(validate_indices(indices))


def _least_bound(seq: Sequence[int]) -> LogIndexBound:
    if len(seq) < 2:
        raise ValueError("invalid index sequence")
    return min(LogIndexBound(a, n) for n, a in enumerate(seq[1:], start=1))


def estimate_entropy(indices: Sequence[int]) -> EntropyEstimate:
    """Certified bound plus ratio-stabilization estimate for one sequence.

    Stabilization requires integer ratios throughout and the last
    three of them equal; a stabilized log(ratio) strictly above the
    certified bound cannot be the entropy, so the estimate is demoted
    and only the bound stands.
    """
    seq = validate_indices(indices)
    bound = _least_bound(seq)
    r = _integer_ratios(seq) or ()
    ratio: Optional[int] = None
    stabilized = False
    demoted = False
    if len(r) >= _WINDOW and len(set(r[-_WINDOW:])) == 1:
        ratio = r[-1]
        stabilized = True
        if bound.exceeded_by_ratio(ratio):
            stabilized = False
            demoted = True
    return EntropyEstimate(bound=bound, ratio=ratio, stabilized=stabilized, demoted=demoted)
