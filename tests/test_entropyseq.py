import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    LogIndexBound,
    certified_upper_bound,
    ratios,
    ratios_nonincreasing,
    shifted_submultiplicative,
    validate_indices,
)
from entbridge.entropyseq import estimate_entropy

# index sequences as divisibility chains: a_1 = start, a_{n+1} = a_n * ratio_n
chains = st.builds(
    lambda start, rs: tuple(
        start * math.prod(rs[:k]) for k in range(len(rs) + 1)
    ),
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=7),
)


def _divisor_chain(start, first, picks):
    """a_1 = start and ratios first, then each a divisor of the one before,
    chosen by the picks."""
    rs = [first]
    for pick in picks:
        divisors = [d for d in range(1, rs[-1] + 1) if rs[-1] % d == 0]
        rs.append(divisors[pick % len(divisors)])
    return tuple(start * math.prod(rs[:k]) for k in range(len(rs) + 1))


# index sequences that obey the ratio law
lawful_chains = st.builds(
    _divisor_chain,
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=36),
    st.lists(st.integers(min_value=0, max_value=8), max_size=7),
)


class TestValidation:
    def test_accepts_chain(self):
        assert validate_indices([1, 2, 4, 12]) == (1, 2, 4, 12)

    def test_accepts_nondecreasing_without_divisibility(self):
        assert validate_indices([2, 4, 8, 12]) == (2, 4, 8, 12)

    @pytest.mark.parametrize(
        "bad", [[], [0, 2], [-1], [4, 2], [1, True], [1, 2.0]]
    )
    def test_rejects(self, bad):
        with pytest.raises(ValueError, match="invalid index sequence"):
            validate_indices(bad)

    def test_ratios(self):
        assert ratios([1, 2, 4, 8]) == (2, 2, 2)
        assert ratios([3, 3, 6]) == (1, 2)
        assert ratios_nonincreasing([1, 4, 8, 16])
        assert not ratios_nonincreasing([1, 2, 8])

    def test_ratios_require_integrality(self):
        with pytest.raises(ValueError, match="invalid index sequence"):
            ratios([2, 4, 8, 12])


class TestLogIndexBound:
    def test_cross_power_order(self):
        # log(8)/2 vs log(4)/1: 8 < 16
        assert LogIndexBound(8, 2) < LogIndexBound(4, 1)
        assert LogIndexBound(4, 2) == LogIndexBound(2, 1)
        assert LogIndexBound(12, 3) < LogIndexBound(8, 2)
        assert LogIndexBound(1, 5) == LogIndexBound(1, 1)

    def test_exceeded_by_ratio(self):
        assert LogIndexBound(2, 1).exceeded_by_ratio(4)
        assert not LogIndexBound(4, 1).exceeded_by_ratio(4)
        assert not LogIndexBound(16, 2).exceeded_by_ratio(4)

    def test_as_float(self):
        assert LogIndexBound(8, 2).as_float() == pytest.approx(math.log(8) / 2)

    @given(
        st.integers(1, 50), st.integers(1, 6), st.integers(1, 50), st.integers(1, 6)
    )
    def test_order_matches_floats(self, a, m, b, n):
        x, y = LogIndexBound(a, m), LogIndexBound(b, n)
        fx, fy = x.as_float(), y.as_float()
        if abs(fx - fy) > 1e-12:
            assert (x < y) == (fx < fy)


class TestCertifiedBound:
    def test_worked_example(self):
        # candidates log(4)/1, log(8)/2, log(12)/3; the last is least
        assert certified_upper_bound([2, 4, 8, 12]) == LogIndexBound(12, 3)

    def test_constant_powers(self):
        assert certified_upper_bound([1, 2, 4, 8]) == LogIndexBound(2, 1)

    def test_needs_two(self):
        with pytest.raises(ValueError, match="invalid index sequence"):
            certified_upper_bound([5])

    @given(chains)
    def test_is_upper_bound_for_every_candidate(self, seq):
        bound = certified_upper_bound(seq)
        for n, a in enumerate(seq[1:], start=1):
            assert bound <= LogIndexBound(a, n)

    @given(chains)
    def test_antitone_in_prefix_length(self, seq):
        if len(seq) < 3:
            return
        shorter = certified_upper_bound(seq[:-1])
        longer = certified_upper_bound(seq)
        assert longer <= shorter


class TestShiftedSubmultiplicative:
    def test_on_cotrajectory_like_sequences(self):
        assert shifted_submultiplicative([1, 2, 4, 8, 8])
        assert shifted_submultiplicative([1, 2, 4, 4, 4, 4])

    def test_detects_violation(self):
        # a_5 = 32 > a_2 * a_3 = 2 * 4 would need a_{2+2+1}; use indices 1-based
        assert not shifted_submultiplicative([1, 2, 4, 8, 64])


class TestEstimate:
    def test_stabilized(self):
        # a law-abiding sequence: its ratios, and log of the last one as the bound
        est = estimate_entropy([1, 2, 4, 8, 16, 32])
        assert est.ratios == (2, 2, 2, 2, 2) and est.broken_at is None
        assert est.ratio == 2 and not est.exact
        assert est.value == pytest.approx(math.log(2))
        est = estimate_entropy([1, 12, 72, 144, 288])
        assert est.ratios == (12, 6, 2, 2) and est.ratio == 2

    def test_zero_entropy(self):
        # a last ratio of 1 proves entropy 0, as when a chain stalls
        for seq in ([1, 1, 1, 1], [1, 4, 8, 8]):
            est = estimate_entropy(seq)
            assert est.ratio == 1 and est.exact and est.value == 0.0

    def test_not_stabilized(self):
        # the ratios (6, 2, 1, 2) rise again after 1, which 2 does not divide
        est = estimate_entropy([1, 6, 12, 12, 24])
        assert est.broken_at == 5 and est.ratios == (6, 2, 1)
        assert est.ratio is None and est.value is None and not est.exact

    def test_demotion(self):
        # once the case where a ratio estimate was demoted: the ratios
        # (2, 4, 4, 4) break the law where 4 follows 2, at the index a_3
        est = estimate_entropy([1, 2, 8, 32, 128])
        assert est.broken_at == 3 and est.ratios == (2,)
        assert est.ratio is None and est.value is None

    def test_non_integer_ratio_breaks_the_law(self):
        # 12 / 8 is no integer
        est = estimate_entropy([2, 4, 8, 12])
        assert est.broken_at == 4 and est.ratios == (2, 2)
        assert est.ratio is None and est.value is None and not est.exact

    @pytest.mark.parametrize("seq, step", [([2, 1], 2), ([1, 4, 8, 4], 4), ([3, 3, 2], 3)])
    def test_decreasing_sequence_breaks_the_law(self, seq, step):
        # a falling index is a ratio below 1, so no integer: a break, not an error
        est = estimate_entropy(seq)
        assert est.broken_at == step and est.ratio is None

    @pytest.mark.parametrize("bad", [[], [5], [0, 2], [1, True], [1, 2.0], [-1, 1]])
    def test_refuses_what_is_no_index_sequence(self, bad):
        with pytest.raises(ValueError, match="invalid index sequence"):
            estimate_entropy(bad)

    @given(chains)
    def test_stabilized_never_exceeds_bound(self, seq):
        # where the law holds, r_(N-1)^(n-1) <= a_n at every n, so log of the
        # last ratio is never above the subadditive bound
        est = estimate_entropy(seq)
        if est.broken_at is not None:
            return
        assert all(est.ratio ** (n - 1) <= a for n, a in enumerate(seq, start=1))
        assert not certified_upper_bound(seq).exceeded_by_ratio(est.ratio)

    @given(chains)
    def test_break_is_the_first_ratio_that_fails_to_divide(self, seq):
        # chains have integer ratios, so the law breaks exactly where a
        # ratio does not divide the one before it
        rs = ratios(seq)
        first = next((k for k in range(1, len(rs)) if rs[k - 1] % rs[k]), None)
        est = estimate_entropy(seq)
        if first is None:
            assert est.broken_at is None and est.ratios == rs
        else:
            assert est.broken_at == first + 2 and est.ratios == rs[:first]

    @given(lawful_chains)
    def test_dividing_ratios_never_break(self, seq):
        est = estimate_entropy(seq)
        assert est.broken_at is None and est.ratios == ratios(seq)
        assert ratios_nonincreasing(seq)
