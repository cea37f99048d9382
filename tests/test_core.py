import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ralab import core


def class_slots(t_p, t_ind):
    """Frame slots in which offset class ``t_ind`` may transmit, read off the table."""
    return {fs for fs, k in enumerate(core.SLOT_CLASS[t_p]) if k == t_ind}


class TestSlotClass:
    def test_period_three_first_class(self):
        assert class_slots(3, 1) == {1, 4, 7}

    def test_period_three_rows(self):
        rows = tuple(class_slots(3, k) for k in (1, 2, 3))
        assert rows == ({1, 4, 7}, {2, 5, 8}, {3, 6, 9})

    def test_period_one_covers_frame(self):
        assert class_slots(1, 1) == set(range(10))

    def test_period_two_second_class(self):
        assert class_slots(2, 2) == {1, 3, 5, 7, 9}

    @pytest.mark.parametrize("t_p,t_ind", [(0, 1), (4, 1), (3, 0), (3, 4), (2, 3)])
    def test_out_of_range_rejected(self, t_p, t_ind):
        # no such period has a row, and no such class owns a slot (0 marks none)
        assert t_p not in core.SLOT_CLASS or t_ind not in set(core.SLOT_CLASS[t_p]) - {0}
        with pytest.raises(ValueError):
            core.next_tx_slot(0, t_p, t_ind)

    def test_union_coverage(self):
        for t_p in (1, 2):
            union = set()
            for t_ind in range(1, t_p + 1):
                union |= class_slots(t_p, t_ind)
            assert union == set(range(10))
        union3 = set()
        for t_ind in (1, 2, 3):
            union3 |= class_slots(3, t_ind)
        assert union3 == set(range(1, 10))

    def test_classes_disjoint_within_period(self):
        for t_p in (1, 2, 3):
            sets = [class_slots(t_p, k) for k in range(1, t_p + 1)]
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    assert not (sets[i] & sets[j])


class TestNextTxSlot:
    def test_generation_slot_allowed_is_kept(self):
        assert core.next_tx_slot(17, 3, 1) == 17  # frame slot 7

    def test_wraps_to_next_frame(self):
        assert core.next_tx_slot(18, 3, 1) == 21  # frame slot 8 -> 1

    def test_period_one_never_waits(self):
        assert core.next_tx_slot(20, 1, 1) == 20

    @given(
        gen=st.integers(min_value=0, max_value=10**9),
        t_p=st.integers(min_value=1, max_value=3),
        data=st.data(),
    )
    def test_result_allowed_and_close(self, gen, t_p, data):
        t_ind = data.draw(st.integers(min_value=1, max_value=t_p))
        s = core.next_tx_slot(gen, t_p, t_ind)
        assert gen <= s <= gen + core.FRAME_LEN
        assert core.SLOT_CLASS[t_p][s % core.FRAME_LEN] == t_ind
        assert core.next_tx_slot(s, t_p, t_ind) == s  # idempotent

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError):
            core.next_tx_slot(-1, 1, 1)


class TestMeanClassStrideSlots:
    def test_effective_period(self):
        assert core.mean_class_stride_slots(3) == pytest.approx(10 / 3)
        assert core.mean_class_stride_slots(2) == 2.0
        assert core.mean_class_stride_slots(1) == 1.0

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            core.mean_class_stride_slots(4)


class TestDetectionProb:
    def test_values(self):
        assert core.detection_prob(1) == pytest.approx(0.632121, abs=5e-7)
        assert core.detection_prob(2) == pytest.approx(0.864665, abs=5e-7)

    def test_monotone_to_one(self):
        # Strictly increasing until float64 saturates 1 - e^{-m} at 1.0
        # (around m = 37), never decreasing after that.
        values = [core.detection_prob(m) for m in range(1, 40)]
        assert all(b > a for a, b in zip(values[:30], values[1:31]))
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-12)

    def test_invalid_attempt(self):
        # load 0 (no transmission) is never detected; a negative or NaN
        # load has no meaning
        assert core.detection_prob(0) == 0.0
        for load in (-1, -0.5, math.nan):
            with pytest.raises(ValueError):
                core.detection_prob(load)

    def test_whole_loads_match_one_minus_exp(self):
        # the simulator draws against this rule: at whole loads expm1 and
        # 1 - exp give the same bits, so either form keeps the random stream
        for m in range(80):
            assert core.detection_prob(m) == 1.0 - math.exp(-m)


class TestLatencyBudget:
    def test_fourstep_constants(self):
        assert core.CP_FOURSTEP_MS == 8.5
        assert core.UP_DATA_MS == 3.0
        assert core.CP_FOURSTEP_MS + core.UP_DATA_MS == 11.5

    def test_twostep_constants(self):
        assert core.CP_TWOSTEP_MS == 3.5
        assert core.UP_DATA_MS == 3.0
        assert core.CP_TWOSTEP_MS + core.UP_DATA_MS == 6.5

    def test_component_sums(self):
        assert sum(core.LATENCY_COMPONENTS_MS) == core.CP_FOURSTEP_MS
        assert sum(core.LATENCY_COMPONENTS_MS[:4]) == core.CP_TWOSTEP_MS

    def test_quarter_ms_grid(self):
        for c in core.LATENCY_COMPONENTS_MS:
            assert (c / 0.25) == int(c / 0.25)
