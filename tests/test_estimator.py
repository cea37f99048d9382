import copy
import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import general_twostep_update
from ralab import estimator
from ralab.estimator import (
    EstimatorState,
    classify_traffic_type,
    linear_regression,
    margin_value,
    observe_twostep_attempt,
    observe_uplink_packet,
    preferred_offset,
    successive_difference_variance,
)


class TestLinearRegression:
    def test_exact_fit(self):
        assert linear_regression([0.0, 50.0, 100.0]) == (0.0, 50.0)

    def test_least_squares_fit(self):
        intercept, slope = linear_regression([0.0, 49.0, 101.0])
        assert intercept == pytest.approx(-0.5, abs=1e-12)
        assert slope == pytest.approx(50.5, abs=1e-12)

    def test_constant_series(self):
        assert linear_regression([5.0, 5.0]) == (5.0, 0.0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            linear_regression([1.0])

    @given(
        a=st.floats(min_value=-1e6, max_value=1e6),
        b=st.floats(min_value=-1e4, max_value=1e4),
        r=st.integers(min_value=2, max_value=60),
    )
    def test_recovers_affine_sequences(self, a, b, r):
        times = [a + b * i for i in range(r)]
        intercept, slope = linear_regression(times)
        scale = max(1.0, abs(a))
        assert abs(intercept - a) <= 1e-9 * scale
        assert abs(slope - b) <= 1e-9 * max(1.0, abs(b))


class TestMarginValue:
    def test_zero_for_exact_fit(self):
        assert margin_value([0.0, 50.0, 100.0], 0.0, 50.0) == 0.0

    def test_mean_absolute_residual(self):
        assert margin_value([0.0, 49.0, 101.0], -0.5, 50.5) == pytest.approx(2 / 3, abs=1e-12)

    def test_two_points_fit_exactly(self):
        intercept, slope = linear_regression([0.0, 52.0])
        assert margin_value([0.0, 52.0], intercept, slope) == pytest.approx(0.0, abs=1e-12)

    @given(
        times=st.lists(st.floats(min_value=0, max_value=1e6), min_size=2, max_size=30),
        intercept=st.floats(min_value=-100, max_value=100),
        slope=st.floats(min_value=0, max_value=100),
    )
    def test_never_negative(self, times, intercept, slope):
        assert margin_value(times, intercept, slope) >= 0.0

    @given(
        a=st.floats(min_value=-1e4, max_value=1e4),
        b=st.floats(min_value=0, max_value=1e3),
        r=st.integers(min_value=2, max_value=40),
    )
    def test_zero_iff_affine(self, a, b, r):
        times = [a + b * i for i in range(r)]
        intercept, slope = linear_regression(times)
        assert margin_value(times, intercept, slope) <= 1e-7


class TestDifferenceVariance:
    def test_periodic_series_has_zero_variance(self):
        times = [7.5 + 50.0 * i for i in range(10)]
        assert successive_difference_variance(times) == 0.0

    def test_known_small_case(self):
        # diffs 1 and 2, mean 1.5, population variance 0.25
        assert successive_difference_variance([0.0, 1.0, 3.0]) == pytest.approx(0.25)

    def test_short_series(self):
        assert successive_difference_variance([3.0]) == 0.0
        assert successive_difference_variance([3.0, 9.0]) == 0.0


class TestPreferredOffset:
    def slots_to_times(self, slots):
        return [0.5 * s for s in slots]

    def test_single_class_period(self):
        assert preferred_offset(self.slots_to_times([4, 9, 2]), t_p=1, t_tti=0.5) == 1

    def test_period_three_tally(self):
        times = self.slots_to_times([1, 4, 7, 2, 1])
        assert preferred_offset(times, t_p=3, t_tti=0.5) == 1

    def test_period_two_tally(self):
        times = self.slots_to_times([0, 2, 1])
        assert preferred_offset(times, t_p=2, t_tti=0.5) == 1

    def test_slot_zero_counts_toward_first_class(self):
        assert preferred_offset(self.slots_to_times([0, 0, 3]), t_p=3, t_tti=0.5) == 1

    def test_tie_takes_smallest_class(self):
        assert preferred_offset(self.slots_to_times([1, 2]), t_p=3, t_tti=0.5) == 1
        assert preferred_offset(self.slots_to_times([5, 4]), t_p=3, t_tti=0.5) == 1

    @given(
        slots=st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=25),
        t_p=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_range_and_permutation_invariance(self, slots, t_p, seed):
        times = [0.5 * s for s in slots]
        k = preferred_offset(times, t_p, 0.5)
        assert 1 <= k <= t_p
        shuffled = times[:]
        random.Random(seed).shuffle(shuffled)
        assert preferred_offset(shuffled, t_p, 0.5) == k

    def test_matches_slot_class_membership(self):
        # Every slot inside class k must map to k on its own.
        from ralab import core

        for t_p in (2, 3):
            for s, t_ind in enumerate(core.SLOT_CLASS[t_p]):
                if t_ind:
                    assert preferred_offset([0.5 * s], t_p, 0.5) == t_ind

    def test_minimizes_waiting_for_aligned_periodic_input(self):
        # A device whose packets always land in frame slot s waits least by
        # picking the class containing s; verify against brute force.
        from ralab import core

        for t_p in (2, 3):
            for s in range(10):
                times = [0.5 * (s + 10 * i) for i in range(5)]
                k = preferred_offset(times, t_p, 0.5)
                waits = {}
                for t_ind in range(1, t_p + 1):
                    waits[t_ind] = core.next_tx_slot(s + 20, t_p, t_ind) - (s + 20)
                assert waits[k] == min(waits.values())


class TestObserveUplinkPacket:
    def test_adjusted_time(self):
        state = EstimatorState()
        observe_uplink_packet(state, now=10.0, t_up=3.0, t_tti=0.5)
        assert state.times == [7.5]
        assert state.r == 1

    def test_classification_stores_the_fit(self):
        state = EstimatorState()
        for i in range(3):
            observe_uplink_packet(state, now=10.0 + 50.0 * i, t_up=3.0, t_tti=0.5)
        assert state.estimate is None  # recording only: no fit before classification
        est = classify_traffic_type(state, r_threshold=3, var_threshold=0.1, t_p=3, t_tti=0.5)
        assert est.kind == "periodic"
        assert state.estimate is est
        assert est.period_ms == pytest.approx(50.0)

    def test_rejected_after_classification(self):
        state = EstimatorState(estimate=estimator.TrafficEstimate(kind="event"))
        with pytest.raises(ValueError):
            observe_uplink_packet(state, now=1.0, t_up=3.0, t_tti=0.5)


def periodic_state(n=10, period=50.0, start=10.0, jitter=None):
    state = EstimatorState()
    for i in range(n):
        t = start + period * i
        if jitter:
            t += jitter[i % len(jitter)]
        observe_uplink_packet(state, now=t, t_up=3.0, t_tti=0.5)
    return state


class TestClassifyTrafficType:
    def test_periodic_input(self):
        state = periodic_state(n=10, period=50.0)
        est = classify_traffic_type(state, r_threshold=10, var_threshold=0.1, t_p=3, t_tti=0.5)
        assert est.kind == "periodic"
        assert est.period_ms == pytest.approx(50.0)
        assert est.margin_ms == pytest.approx(0.0, abs=1e-9)
        assert state.estimate is not None

    def test_poisson_input_classified_event(self):
        rng = random.Random(123)
        misclassified = 0
        for _ in range(300):
            state = EstimatorState()
            t = 0.0
            for _ in range(10):
                t += rng.expovariate(6.8 / 1000.0)
                observe_uplink_packet(state, now=t, t_up=3.0, t_tti=0.5)
            est = classify_traffic_type(state, r_threshold=10, var_threshold=0.1, t_p=3, t_tti=0.5)
            if est.kind != "event":
                misclassified += 1
        assert misclassified == 0

    def test_timer_expiry_is_event(self):
        state = periodic_state(n=3)
        est = classify_traffic_type(
            state, r_threshold=10, var_threshold=0.1, t_p=3, t_tti=0.5, timer_expired=True
        )
        assert est.kind == "event"

    def test_sample_count_enforced(self):
        state = periodic_state(n=4)
        with pytest.raises(ValueError):
            classify_traffic_type(state, r_threshold=10, var_threshold=0.1, t_p=3, t_tti=0.5)

    def test_double_classification_rejected(self):
        state = periodic_state(n=10)
        classify_traffic_type(state, r_threshold=10, var_threshold=0.1, t_p=3, t_tti=0.5)
        with pytest.raises(ValueError):
            classify_traffic_type(state, r_threshold=10, var_threshold=0.1, t_p=3, t_tti=0.5)

    def test_preferred_offset_present(self):
        state = periodic_state(n=10, period=50.0, start=10.0)
        est = classify_traffic_type(state, r_threshold=10, var_threshold=0.1, t_p=3, t_tti=0.5)
        # adjusted times 7.5 + 50 i -> frame slot 5 for every sample -> class 2
        assert est.preferred_offset == 2


class TestObserveTwostepAttempt:
    def classified(self):
        state = periodic_state(n=10, period=50.0, start=10.0)
        classify_traffic_type(state, r_threshold=10, var_threshold=0.1, t_p=3, t_tti=0.5)
        return state

    def test_window_restarts_on_access_samples(self):
        state = self.classified()
        assert state.times == []  # access times form a fresh series

    def test_success_appends_and_refreshes(self):
        state = self.classified()
        base = 457.5  # last initial sample: the access lattice sits above it
        for i in range(1, 12):
            observe_twostep_attempt(state, preamble_time=base + 50.0 * i)
        assert state.estimate.period_ms == pytest.approx(50.0)
        assert len(state.times) == state.window

    def test_first_success_anchors_directly(self):
        state = self.classified()
        period, margin = state.estimate.period_ms, state.estimate.margin_ms
        observe_twostep_attempt(state, preamble_time=509.0)
        assert state.estimate.anchor_ms == 509.0
        # classification fit stays in force until the series can be refit
        assert state.estimate.period_ms == period
        assert state.estimate.margin_ms == margin

    def test_successes_keep_the_classification_fit_until_the_window_fills(self):
        state = self.classified()
        fit = (state.estimate.intercept_ms, state.estimate.period_ms, state.estimate.margin_ms)
        observe_twostep_attempt(state, preamble_time=509.0)
        observe_twostep_attempt(state, preamble_time=559.0)
        est = state.estimate
        assert (est.intercept_ms, est.period_ms, est.margin_ms) == fit
        assert est.anchor_ms == 559.0
        assert state.ticks == [1, 2]

    def test_jitter_shows_up_in_margin(self):
        state = self.classified()
        base = 457.5
        for i in range(1, 11):
            jitter = 1.5 if i == 5 else 0.0
            observe_twostep_attempt(state, preamble_time=base + 50.0 * i + jitter)
            # the window's own fit replaces the classification fit once full
            assert (state.estimate.margin_ms > 0.0) == (i == state.window)

    def test_samples_never_share_a_period(self):
        # each access serves a new packet; in a two-sample window, two
        # samples on one tick would leave no positions to regress against
        state = periodic_state(n=2, period=50.0, start=10.0)
        classify_traffic_type(state, r_threshold=2, var_threshold=0.1, t_p=3, t_tti=0.5)
        for t in (108.0, 120.0, 130.0):  # 12 and 10 ms apart at a 50 ms period
            observe_twostep_attempt(state, preamble_time=t)
        assert state.ticks == [2, 3]
        assert state.estimate.period_ms == 10.0

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["deepcopy", "pickle"])
    def test_mid_window_state_survives_copying(self, clone):
        # a slotted record has no __dict__, yet must copy and pickle whole
        state = self.classified()
        base = 457.5
        for i in range(1, 15):
            jitter = 1.5 if i == 12 else 0.0
            observe_twostep_attempt(state, preamble_time=base + 50.0 * i + jitter)
        assert not hasattr(state, "__dict__")
        assert state.origin > 0 and state.estimate.margin_ms > 0.0  # slid, jittered
        twin = clone(state)
        assert twin == state and twin.estimate is not state.estimate
        for s in (state, twin):
            observe_twostep_attempt(s, preamble_time=base + 50.0 * 15)
        assert twin == state

    def test_event_devices_rejected(self):
        state = EstimatorState(estimate=estimator.TrafficEstimate(kind="event"))
        with pytest.raises(ValueError):
            observe_twostep_attempt(state, preamble_time=1.0)


def is_locked_lattice(est):
    """A zero-margin fit with positive slope, intercept and slope on the 0.125 ms grid."""
    return (est.margin_ms == 0.0 and est.period_ms > 0
            and est.period_ms % 0.125 == 0 and est.intercept_ms % 0.125 == 0)


def replay_access_series(t_tti, period_slots, window, steps, start=40):
    """Feed a classified periodic device a series of successful accesses.

    ``steps`` holds (periods skipped, jitter in slots) pairs.  The first
    initial-phase sample sits at slot ``start``.  Preamble times are whole
    slots, ``(s + 1) * t_tti``.  Every access is taken into the window.
    Until the window is full the classification fit must hold and the
    anchor must equal the sample.  Once it is full, the fit must equal
    ``linear_regression`` over the same window, bit for bit, after every
    access: an unlocked update refits with it, and a locked one keeps its
    line and only rebases the intercept when the window slides.  An update
    must take that shortcut exactly when the window was full and its fit
    was a locked lattice (zero margin, positive slope and intercept and
    slope on the 0.125 ms grid) and the sample lands on the lattice point,
    and ``state.locked`` must be set exactly when the fit after the update
    is such a lattice.  Every update must leave the state bit-equal to the
    general update of ``oracles``, which takes the periods elapsed by
    ``round`` for every sample.  Returns how many updates filled the window, slid it and skipped periods, how
    many full-window updates ran the margin pass and how many skipped it,
    and how many refits fitted a slope off the 0.125 ms grid.
    """
    state = EstimatorState()
    for i in range(window):
        # stored as now - t_up + t_tti: the access lattice (s + 1) * t_tti
        now = (start + i * period_slots) * t_tti + 3.0
        observe_uplink_packet(state, now=now, t_up=3.0, t_tti=t_tti)
    classify_traffic_type(state, r_threshold=window, var_threshold=0.1, t_p=3, t_tti=t_tti)
    assert state.estimate.kind == "periodic"
    fit = (state.estimate.intercept_ms, state.estimate.period_ms, state.estimate.margin_ms)
    seen = {"fills": 0, "slides": 0, "skips": 0,
            "margin_passes": 0, "shortcuts": 0, "off_grid": 0}
    n = window - 1  # the anchor: the last initial sample
    for skipped, jitter in steps:
        n += 1 + skipped
        t = (start + n * period_slots + jitter + 1) * t_tti
        full = len(state.times) == window
        est = state.estimate
        elapsed = max(1, round((t - est.anchor_ms) / est.period_ms))
        on_lattice = full and is_locked_lattice(est) \
            and t == est.anchor_ms + elapsed * est.period_ms
        general = general_twostep_update(state, t)
        with mock.patch.object(estimator, "margin_value", wraps=margin_value) as margin:
            observe_twostep_attempt(state, t)
        assert repr(state) == repr(general)  # bit for bit
        assert state.times[-1] == t  # no sample is turned away
        assert state.locked == (len(state.times) == window
                                and is_locked_lattice(state.estimate))
        if full:
            seen["slides"] += 1
        if len(state.ticks) >= 2 and state.ticks[-1] - state.ticks[-2] > 1:
            seen["skips"] += 1
        est = state.estimate
        if len(state.times) < window:
            seen["fills"] += 1
            assert margin.call_count == 0
            assert (est.intercept_ms, est.period_ms, est.margin_ms) == fit
            assert est.anchor_ms == t
            continue
        seen["margin_passes" if margin.call_count else "shortcuts"] += 1
        assert (margin.call_count == 0) == on_lattice
        if est.period_ms % 0.125:
            seen["off_grid"] += 1
        # ticks are absolute period numbers; the fit counts them from origin
        xs = [k - state.origin for k in state.ticks]
        intercept, slope = linear_regression(state.times, xs)
        assert (est.intercept_ms, est.period_ms) == (intercept, slope)
        assert est.margin_ms == margin_value(state.times, intercept, slope, xs)
    return seen


class TestWindowRefit:
    def test_fills_slides_and_skips_match_full_refit(self):
        # four exact samples after each jittered one: three flush it from
        # the window, and the fourth finds the lattice locked
        steps = [(0, 0)] * 3 + ([(0, 1), (2, 0)] + [(0, 0)] * 3
                                + [(0, -1), (1, 0)] + [(0, 0)] * 3) * 3
        seen = replay_access_series(0.5, 100, 3, steps)
        assert all(count > 0 for count in seen.values()), seen

    def test_exact_lattice_with_skips_needs_one_margin_pass(self):
        # only the refit that fills the window, which replaces the
        # classification fit, runs the pass; every later one keeps the line
        steps = [(0, 0), (2, 0), (0, 0), (1, 0), (3, 0)] * 3
        seen = replay_access_series(0.5, 100, 4, steps)
        assert seen["skips"] > 0 and seen["slides"] > 0, seen
        assert (seen["fills"], seen["margin_passes"]) == (3, 1), seen
        assert seen["shortcuts"] == len(steps) - 4, seen

    def test_off_grid_slope_runs_the_margin_pass(self):
        # one sample half a slot late bends four-sample fits off the grid;
        # the shortcut resumes once it has left the window
        steps = [(0, 0)] * 5 + [(0, 1)] + [(0, 0)] * 8
        seen = replay_access_series(0.5, 100, 4, steps)
        assert seen["off_grid"] > 0, seen
        assert seen["margin_passes"] >= 1 + seen["off_grid"], seen
        assert seen["shortcuts"] > 0, seen
        # one slot of drift every three periods: every window lies exactly on
        # a line of slope 50 + 0.125/3 ms, and every refit runs the pass
        steps = [(2, k) for k in range(12)]
        seen = replay_access_series(0.125, 400, 3, steps)
        assert seen["off_grid"] == seen["margin_passes"] == len(steps) - 2, seen
        assert seen["shortcuts"] == 0, seen

    def test_locked_lattice_skips_the_refit(self):
        t_tti, period_slots, window, start = 0.5, 100, 4, 40
        state = EstimatorState()
        for i in range(window):
            now = (start + i * period_slots) * t_tti + 3.0
            observe_uplink_packet(state, now=now, t_up=3.0, t_tti=t_tti)
        classify_traffic_type(state, r_threshold=window, var_threshold=0.1, t_p=3,
                              t_tti=t_tti)
        n = window - 1

        def access(skipped, jitter=0):
            # the update's calls: (linear_regression, margin_value)
            nonlocal n
            n += 1 + skipped
            t = (start + n * period_slots + jitter + 1) * t_tti
            with mock.patch.object(estimator, "linear_regression",
                                   wraps=linear_regression) as fit, \
                    mock.patch.object(estimator, "margin_value",
                                      wraps=margin_value) as margin:
                observe_twostep_attempt(state, t)
            assert state.times[-1] == t
            return fit.call_count, margin.call_count

        # the window fills, and the access that fills it makes the first fit
        assert [access(0) for _ in range(window)] == [(0, 0)] * (window - 1) + [(1, 1)]
        steps = [0, 2, 0, 1, 3, 0, 0] * 2
        assert [access(skipped) for skipped in steps] == [(0, 0)] * len(steps)
        # the window slid and spans skipped periods
        assert state.origin > window and state.ticks[-1] - state.ticks[0] >= len(state.ticks)
        # one slot of jitter leaves the locked path: an exact refit
        assert access(0, jitter=1) == (1, 1)
        xs = [k - state.origin for k in state.ticks]
        intercept, slope = linear_regression(state.times, xs)
        est = state.estimate
        assert (est.intercept_ms, est.period_ms) == (intercept, slope)
        assert est.margin_ms == margin_value(state.times, intercept, slope, xs) > 0.0

    def test_on_grid_fit_with_a_margin_is_not_locked(self):
        # jitters of -1, +2 and -1 slots in a five-sample window keep the
        # line on the schedule and on the grid, with a margin of 0.8 slot;
        # on-lattice samples must still refit while the jitter leaves the
        # window, since each jittered sample that leaves moves the line
        steps = [(0, 0)] * 5 + [(0, -1), (0, 2), (0, -1)] + [(0, 0)] * 6
        seen = replay_access_series(0.5, 100, 5, steps)
        assert seen["off_grid"] == 4, seen
        # passes: the first fit, three jittered samples, five to flush them
        assert (seen["fills"], seen["margin_passes"], seen["shortcuts"]) == (4, 9, 1), seen

    @pytest.mark.parametrize("t_tti", [0.125, 0.5, 1.0])
    def test_times_at_full_scale_length(self, t_tti):
        # preamble times near 1.05e6 ms, the length of full_scale.scn
        steps = [(0, 0)] * 3 + ([(0, 1), (2, 0)] + [(0, 0)] * 5 + [(1, 0)]) * 3
        seen = replay_access_series(t_tti, 100, 5, steps, start=int(1.05e6 / t_tti))
        assert seen["shortcuts"] > 3 and seen["margin_passes"] > 3, seen

    @given(
        t_tti=st.sampled_from([0.125, 0.25, 0.5, 1.0]),
        period_slots=st.integers(min_value=40, max_value=400),
        window=st.integers(min_value=2, max_value=12),
        steps=st.lists(
            st.tuples(st.integers(min_value=0, max_value=3),
                      st.one_of(st.just(0), st.integers(min_value=-1, max_value=2))),
            min_size=1, max_size=40,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_full_refit(self, t_tti, period_slots, window, steps):
        replay_access_series(t_tti, period_slots, window, steps)


class TestLatticeLock:
    T_TTI, PERIOD_SLOTS, WINDOW, START = 0.5, 100, 4, 40

    def classified(self):
        state = EstimatorState()
        for i in range(self.WINDOW):
            now = (self.START + i * self.PERIOD_SLOTS) * self.T_TTI + 3.0
            observe_uplink_packet(state, now=now, t_up=3.0, t_tti=self.T_TTI)
        classify_traffic_type(state, r_threshold=self.WINDOW, var_threshold=0.1, t_p=3,
                              t_tti=self.T_TTI)
        return state

    def on_lattice(self, n, jitter=0):
        return (self.START + n * self.PERIOD_SLOTS + jitter + 1) * self.T_TTI

    def locked(self, accesses=9):
        # window - 1 fills, then the refit that fills the window locks it
        state = self.classified()
        for n in range(self.WINDOW, self.WINDOW + accesses):
            observe_twostep_attempt(state, self.on_lattice(n))
        assert state.locked
        return state

    def test_classification_leaves_the_flag_false(self):
        # an exact on-grid series: the classification fit is a zero-margin
        # lattice, yet only the window's own fit may lock
        state = self.classified()
        est = state.estimate
        assert est.margin_ms == 0.0 and est.period_ms == 50.0
        assert not state.locked
        # a stale flag does not survive the reset either
        state = EstimatorState(locked=True)
        observe_uplink_packet(state, now=10.0, t_up=3.0, t_tti=0.5)
        classify_traffic_type(state, r_threshold=10, var_threshold=0.1, t_p=3, t_tti=0.5,
                              timer_expired=True)
        assert not state.locked

    def test_locked_window_refits_to_the_estimate(self):
        state = self.locked()
        assert state.origin > 0  # the window slid while locked
        xs = [k - state.origin for k in state.ticks]
        intercept, slope = linear_regression(state.times, xs)
        est = state.estimate
        assert (est.intercept_ms, est.period_ms) == (intercept, slope)
        assert margin_value(state.times, intercept, slope, xs) == est.margin_ms == 0.0
        assert est.anchor_ms == state.times[-1]

    def test_off_lattice_sample_clears_the_flag_and_refits(self):
        state = self.locked()
        n = self.WINDOW + 9
        with mock.patch.object(estimator, "linear_regression",
                               wraps=linear_regression) as fit:
            observe_twostep_attempt(state, self.on_lattice(n, jitter=1))
        assert fit.call_count == 1
        assert not state.locked and state.estimate.margin_ms > 0.0
        # exact samples refit until the jittered one leaves the window,
        # and the refit that drops it locks again
        for i in range(1, self.WINDOW + 1):
            with mock.patch.object(estimator, "linear_regression",
                                   wraps=linear_regression) as fit:
                observe_twostep_attempt(state, self.on_lattice(n + i))
            assert fit.call_count == 1
            assert state.locked == (i == self.WINDOW)

    @pytest.mark.parametrize("skipped, jitter, rounds", [
        (0, 0, 0),  # exactly one period after the anchor: no round
        (2, 0, 1),  # skips two periods, on the lattice
        (0, 1, 1),  # one period on, but a slot off the lattice point
        (3, -1, 1),  # skips periods and misses the lattice
    ])
    def test_locked_update_matches_the_general_path(self, skipped, jitter, rounds):
        state = self.locked()
        n = self.WINDOW + 9 + skipped
        t = self.on_lattice(n, jitter)
        general = general_twostep_update(state, t)
        with mock.patch.object(estimator, "round", create=True, wraps=round) as rnd:
            observe_twostep_attempt(state, t)
        assert rnd.call_count == rounds
        assert repr(state) == repr(general)
        assert state.locked == (jitter == 0)
        assert state.ticks[-1] - state.ticks[-2] == 1 + skipped

    def test_zero_slope_fit_never_locks(self):
        # identical times: a zero-margin, on-grid fit with slope 0, which
        # must not lock, or a locked update would divide by the period
        state = EstimatorState()
        for _ in range(3):
            observe_uplink_packet(state, now=103.0, t_up=3.0, t_tti=0.5)
        est = classify_traffic_type(state, r_threshold=3, var_threshold=0.1, t_p=3, t_tti=0.5)
        assert est.kind == "periodic" and est.period_ms == 0.0
        for _ in range(6):
            observe_twostep_attempt(state, preamble_time=100.5)
            assert not state.locked
        assert state.estimate.period_ms == state.estimate.margin_ms == 0.0
        assert state.ticks == [3, 4, 5]
