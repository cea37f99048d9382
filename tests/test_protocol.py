import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import balanced_event_cell, smallest_free_cell_index
from ralab import protocol
from ralab.estimator import EstimatorState, TrafficEstimate
from ralab.protocol import (
    AllocationError,
    BsRegistry,
    UeRecord,
    allocate_context_id,
    cell_id,
    filter_candidates,
    grant_threshold,
    select_offset_index,
    select_preamble,
)


def make_registry(ids=(), n_total=64, n_cr=4, t_p=3):
    reg = BsRegistry(n_total=n_total, n_cr=n_cr, t_p=t_p)
    for id_ in ids:
        reg.add(
            UeRecord(
                id=id_,
                pid=select_preamble(id_, n_total, n_cr),
                t_ind=select_offset_index(id_, n_cr, t_p),
                traffic_kind="event",
            )
        )
    return reg


def assert_registry_consistent(reg):
    """The (pid, t_ind) reverse index lists exactly the registered ids."""
    rebuilt = {}
    for id_, rec in reg.records.items():
        assert rec.id == id_
        rebuilt.setdefault((rec.pid, rec.t_ind), []).append(id_)
    for pid in range(reg.n_total):
        for t_ind in range(1, reg.t_p + 1):
            assert sorted(reg.ids_for_cell(pid, t_ind)) == \
                sorted(rebuilt.get((pid, t_ind), []))


class TestSelectPreamble:
    def test_shared_top_preamble(self):
        assert select_preamble(13, 64, 4) == 63
        assert select_preamble(1, 64, 4) == 63

    def test_cycles_down_the_pool(self):
        assert select_preamble(4, 64, 4) == 60

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            select_preamble(0, 64, 4)
        with pytest.raises(ValueError):
            select_preamble(1, 64, 0)

    @given(id_=st.integers(min_value=1, max_value=10**6), n_cr=st.integers(min_value=1, max_value=54))
    def test_stays_in_pool(self, id_, n_cr):
        pid = select_preamble(id_, 64, n_cr)
        assert 64 - n_cr <= pid <= 63


class TestSelectOffsetIndex:
    def test_examples(self):
        assert select_offset_index(13, 4, 3) == 1
        assert select_offset_index(5, 4, 3) == 2

    @given(id_=st.integers(min_value=1, max_value=10**6), n_cr=st.integers(min_value=1, max_value=54))
    def test_period_one_forces_first_class(self, id_, n_cr):
        assert select_offset_index(id_, n_cr, 1) == 1

    @given(
        id_=st.integers(min_value=1, max_value=10**6),
        n_cr=st.integers(min_value=1, max_value=54),
        t_p=st.integers(min_value=1, max_value=3),
    )
    def test_range(self, id_, n_cr, t_p):
        assert 1 <= select_offset_index(id_, n_cr, t_p) <= t_p


class TestIdMapProperties:
    @given(
        id_=st.integers(min_value=1, max_value=10**6),
        mult=st.integers(min_value=1, max_value=100),
        n_cr=st.integers(min_value=1, max_value=54),
        t_p=st.integers(min_value=1, max_value=3),
    )
    def test_ids_apart_by_cell_stride_collide(self, id_, mult, n_cr, t_p):
        other = id_ + mult * n_cr * t_p
        assert select_preamble(id_, 64, n_cr) == select_preamble(other, 64, n_cr)
        assert select_offset_index(id_, n_cr, t_p) == select_offset_index(other, n_cr, t_p)

    @given(
        n_cr=st.integers(min_value=1, max_value=54),
        t_p=st.integers(min_value=1, max_value=3),
        t_ind=st.integers(min_value=1, max_value=3),
        offset=st.integers(min_value=0, max_value=53),
        k=st.integers(min_value=0, max_value=40),
    )
    def test_cell_id_round_trip(self, n_cr, t_p, t_ind, offset, k):
        if t_ind > t_p:
            t_ind = t_p
        pid = 63 - (offset % n_cr)
        id_ = cell_id(pid, t_ind, k, 64, n_cr, t_p)
        assert select_preamble(id_, 64, n_cr) == pid
        assert select_offset_index(id_, n_cr, t_p) == t_ind


class TestFilterCandidates:
    def test_registry_shortlist(self):
        # ids 1 and 13 share preamble 63 and slot class 1; ids 5 and 9 share
        # the preamble but sit in classes 2 and 3.
        reg = make_registry(ids=(1, 13, 5, 9, 2))
        assert filter_candidates(reg, 63, rx_slot=1) == [1, 13]

    def test_empty_registry(self):
        reg = make_registry()
        assert filter_candidates(reg, 63, rx_slot=1) == []

    def test_slot_class_mismatch(self):
        reg = make_registry(ids=(5,))  # pid 63, class 2 = slots {2, 5, 8}
        assert filter_candidates(reg, 63, rx_slot=1) == []
        assert filter_candidates(reg, 63, rx_slot=2) == [5]

    def test_transmitter_never_missed(self):
        rng = random.Random(7)
        reg = make_registry(ids=range(1, 37))
        for _ in range(200):
            id_ = rng.randint(1, 36)
            rec = reg.records[id_]
            slot = protocol.core.next_tx_slot(rng.randrange(1000), reg.t_p, rec.t_ind)
            assert id_ in filter_candidates(reg, rec.pid, slot)


class TestRarGrantDecision:
    """A response carries the grant iff its time t >= grant_threshold(state)."""

    def make_periodic(self, t0, period, margin):
        """A periodic device whose latest access was anchored at ``t0``
        (``None``: no access since classification)."""
        est = TrafficEstimate(kind="periodic", period_ms=period, margin_ms=margin)
        if t0 is None:
            return EstimatorState(estimate=est)
        est.anchor_ms = t0
        return EstimatorState(times=[t0], ticks=[0], estimate=est)

    def test_window_boundary_inclusive(self):
        state = self.make_periodic(t0=100.0, period=50.0, margin=1.0)
        assert grant_threshold(state) == 149.0
        assert 149.0 >= grant_threshold(state)
        assert not 148.5 >= grant_threshold(state)

    @given(t0=st.floats(min_value=0, max_value=1e9, allow_nan=False))
    def test_event_always_granted(self, t0):
        state = EstimatorState(times=[t0], ticks=[0], estimate=TrafficEstimate(kind="event"))
        assert grant_threshold(state) == -math.inf

    def test_periodic_without_estimate_granted(self):
        # still observing: initial-phase samples but no classification yet
        state = EstimatorState(times=[97.5, 147.5])
        assert grant_threshold(state) == -math.inf

    def test_periodic_before_first_success_granted(self):
        state = self.make_periodic(t0=None, period=50.0, margin=0.0)
        assert grant_threshold(state) == -math.inf


class TestAllocation:
    def test_periodic_takes_reserved_preamble(self):
        reg = make_registry()
        id_ = allocate_context_id(reg, "periodic", preferred_offset=1)
        rec = reg.records[id_]
        assert rec.pid == 63
        assert rec.t_ind == 1
        assert id_ % 12 == 1  # every id of the (63, 1) cell

    def test_first_allocation_takes_smallest_id(self):
        reg = make_registry()
        assert allocate_context_id(reg, "periodic", preferred_offset=1) == 1

    def test_event_avoids_reserved_preamble(self):
        reg = make_registry()
        for _ in range(30):
            id_ = allocate_context_id(reg, "event")
            assert reg.records[id_].pid in {60, 61, 62}

    def test_balanced_policy_spreads_cells(self):
        reg = make_registry()
        for _ in range(9):
            allocate_context_id(reg, "event")
        loads = [reg.cell_load(p, k) for p in (60, 61, 62) for k in (1, 2, 3)]
        assert loads == [1] * 9
        assert_registry_consistent(reg)

    def test_round_trip_invariant(self):
        reg = make_registry()
        ids = [allocate_context_id(reg, "event") for _ in range(50)]
        ids.append(allocate_context_id(reg, "periodic", preferred_offset=2))
        for id_ in ids:
            rec = reg.records[id_]
            assert select_preamble(id_, reg.n_total, reg.n_cr) == rec.pid
            assert select_offset_index(id_, reg.n_cr, reg.t_p) == rec.t_ind
        assert_registry_consistent(reg)

    def test_growth_is_flagged(self):
        reg = BsRegistry(n_cr=4, t_p=3, ids_per_cell=1)
        allocate_context_id(reg, "periodic", preferred_offset=1)
        assert not reg.grew_capacity
        allocate_context_id(reg, "periodic", preferred_offset=1)
        assert reg.grew_capacity

    @given(
        n_cr=st.integers(min_value=2, max_value=6),
        t_p=st.sampled_from([1, 2, 3]),
        ops=st.lists(
            st.one_of(
                st.just(("event",)),
                st.tuples(st.just("periodic"), st.integers(min_value=1, max_value=3)),
                # a direct registration: (pid index, offset index, id slot k)
                st.tuples(st.just("add"), st.integers(min_value=0, max_value=4),
                          st.integers(min_value=1, max_value=3),
                          st.integers(min_value=0, max_value=12)),
            ),
            max_size=60,
        ),
    )
    def test_event_cell_matches_full_scan(self, n_cr, t_p, ops):
        """The lazy heap picks the oracle's cell, and each allocation the
        smallest free id of it, after any mix of event and periodic
        allocations and registrations that bypass the allocator."""
        reg = BsRegistry(n_total=20, n_cr=n_cr, t_p=t_p, ids_per_cell=2)
        for op in ops:
            if op[0] in ("event", "periodic"):
                if op[0] == "event":
                    want = balanced_event_cell(reg)
                    k = smallest_free_cell_index(reg, *want)
                    id_ = allocate_context_id(reg, "event")
                else:
                    want = (reg.reserved_pid, min(op[1], t_p))
                    k = smallest_free_cell_index(reg, *want)
                    id_ = allocate_context_id(reg, "periodic", preferred_offset=want[1])
                rec = reg.records[id_]
                assert (rec.pid, rec.t_ind) == want
                assert id_ == cell_id(*want, k, reg.n_total, n_cr, t_p)
            else:
                _, p, t_ind, k = op
                pid = reg.n_total - n_cr + p % n_cr
                t_ind = min(t_ind, t_p)
                id_ = cell_id(pid, t_ind, k, reg.n_total, n_cr, t_p)
                if id_ not in reg.records:
                    reg.add(UeRecord(id=id_, pid=pid, t_ind=t_ind, traffic_kind="event"))
        assert_registry_consistent(reg)

    def test_needs_two_preambles_for_event_devices(self):
        reg = BsRegistry(n_cr=1, t_p=3)
        with pytest.raises(AllocationError):
            allocate_context_id(reg, "event")
