"""Entropy from the ratio law of one index sequence.

The inputs are the integers a_n = [U : C_n], n = 1..N, of the meet side
(C_n = U ∩ f^-1(U) ∩ ... ∩ f^-(n-1)(U)), or b_n = [T_n : U^⊥] of the
join side (T_n = U^⊥ + g(U^⊥) + ... + g^(n-1)(U^⊥), g the adjoint).
Both obey one exact law: every ratio r_n = a_(n+1)/a_n is an integer,
and r_(n+1) divides r_n.

* Meet side.  C_(n+1) = U ∩ f^-1(C_n) lies in C_n, so r_n = [C_n : C_(n+1)]
  is an integer.  x ↦ f x maps C_n into C_(n-1) and C_(n+1) into C_n, so
  it induces a map C_n/C_(n+1) → C_(n-1)/C_n.  That map is injective: if
  x ∈ C_n and f x ∈ C_n, then x ∈ U ∩ f^-1(C_n) = C_(n+1).  So r_n divides
  r_(n-1).
* Join side.  T_(n+1) = U^⊥ + g(T_n) contains T_n, so s_n = [T_(n+1) : T_n]
  is an integer.  g maps T_(n+1)/T_n onto T_(n+2)/T_(n+1): every element
  of T_(n+2) is u + g(y) with u ∈ U^⊥ ⊆ T_(n+1) and y ∈ T_(n+1).  So
  s_(n+1) divides s_n.

The towers and Q_p^d compute the same sequences on one finite working
level, which holds faithful copies of both chains, so the law holds
there too.  The ratios therefore fall by divisibility to a limit r that
divides every one of them; the entropy lim log(a_n)/n is log r, and the
last ratio gives the certified bound log r_(N-1) >= log r.  The bound is
never looser than the subadditive bound min log(a_n)/(n-1), because
a_n >= r_(N-1)^(n-1).  When r_(N-1) = 1 every later ratio is 1, so
entropy 0 is proved: this is how a stalled chain ends.  This is the
limit-free form of the entropy: D. Dikranjan and A. Giordano Bruno,
"Limit free computation of entropy", Rend. Istit. Mat. Univ. Trieste 44
(2012).

A sequence that breaks the law was not computed right; the estimate
names the first step where the break shows, and the bridge reports it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

__all__ = ["EntropyEstimate", "estimate_entropy"]


@dataclass(frozen=True)
class EntropyEstimate:
    """The ratios of one index sequence, up to the first break of the law.

    `broken_at` is the step n (1-based) of the index a_n at which the law
    first fails, or None when every ratio obeys it.
    """

    ratios: tuple[int, ...]
    broken_at: Optional[int] = None

    @property
    def ratio(self) -> Optional[int]:
        """The last ratio, or None when the law breaks."""
        return None if self.broken_at is not None else self.ratios[-1]

    @property
    def value(self) -> Optional[float]:
        """log of the last ratio, a certified upper bound for the entropy."""
        ratio = self.ratio
        return None if ratio is None else math.log(ratio)

    @property
    def exact(self) -> bool:
        """Whether the bound is the entropy: the last ratio is 1."""
        return self.ratio == 1


def estimate_entropy(indices: Sequence[int]) -> EntropyEstimate:
    """The ratios of a_1..a_N, or the first step where the law breaks:
    a ratio that is not an integer (a falling index included) or that
    does not divide the ratio before it.

    Fewer than two indices, or an index that is not a positive integer,
    raises ValueError.
    """
    seq = tuple(indices)
    if len(seq) < 2 or not all(type(a) is int and a >= 1 for a in seq):
        raise ValueError("invalid index sequence")
    ratios: list[int] = []
    for n, (a, b) in enumerate(zip(seq, seq[1:]), start=2):
        r, rest = divmod(b, a)
        if rest or (ratios and ratios[-1] % r):
            return EntropyEstimate(tuple(ratios), n)
        ratios.append(r)
    return EntropyEstimate(tuple(ratios))
