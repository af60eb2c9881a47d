import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ratios, ratios_nonincreasing, shifted_submultiplicative
from entbridge.entropyseq import (
    LogIndexBound,
    certified_upper_bound,
    estimate_entropy,
    validate_indices,
)

# index sequences as divisibility chains: a_1 = start, a_{n+1} = a_n * ratio_n
chains = st.builds(
    lambda start, rs: tuple(
        start * math.prod(rs[:k]) for k in range(len(rs) + 1)
    ),
    st.integers(min_value=1, max_value=8),
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=7),
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
        est = estimate_entropy([1, 2, 4, 8, 16, 32])
        assert est.stabilized and est.ratio == 2 and not est.demoted
        assert est.status == "stabilized"
        assert est.value == pytest.approx(math.log(2))

    def test_zero_entropy(self):
        est = estimate_entropy([1, 1, 1, 1])
        assert est.stabilized and est.ratio == 1 and est.value == 0.0

    def test_not_stabilized(self):
        # the last three ratios (2, 1, 2) differ
        est = estimate_entropy([1, 6, 12, 12, 24])
        assert not est.stabilized
        assert est.status == "bounded-only"
        assert est.value is None

    def test_demotion(self):
        # ratios (2, 4, 4, 4) stabilize at 4 but the bound log(2)/1 is smaller
        est = estimate_entropy([1, 2, 8, 32, 128])
        assert est.demoted
        assert not est.stabilized
        assert est.ratio == 4
        assert est.bound == LogIndexBound(2, 1)

    def test_non_integer_ratios_stay_bounded_only(self):
        est = estimate_entropy([2, 4, 8, 12])
        assert not est.stabilized and not est.demoted
        assert est.ratio is None and est.value is None
        assert est.status == "bounded-only"
        assert est.bound == LogIndexBound(12, 3)

    @given(chains)
    def test_stabilized_never_exceeds_bound(self, seq):
        if len(seq) < 2:
            return
        est = estimate_entropy(seq)
        if est.stabilized:
            assert not est.bound.exceeded_by_ratio(est.ratio)

    @given(chains)
    def test_nonincreasing_ratios_never_demote(self, seq):
        if len(seq) < 2 or not ratios_nonincreasing(seq):
            return
        assert not estimate_entropy(seq).demoted
