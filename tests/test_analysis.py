import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    collision_probability_binomial,
    fourstep_tau_exact,
    fourstep_transition_matrix,
    root_by_bisection,
    solution_vector,
    stationary_by_power_iteration,
    twostep_detection_prob_per_m,
    twostep_transition_matrix,
)
from ralab import analysis, core
from ralab.analysis import (
    FourStepParams,
    InfeasibleError,
    TwoStepParams,
    collision_probability,
    effective_rar_load,
    failure_probability,
    load_fourstep,
    load_twostep,
    optimize_preamble_split,
    solve_fourstep,
    solve_twostep,
    twostep_detection_prob,
)

RATE_1_PER_S = 0.001
RATE_HALF_PER_S = 0.0005
RATE_6_8_PER_S = 0.0068


def fourstep(n_ue=1000, rate=RATE_1_PER_S, n_cb=25, **kw):
    return FourStepParams(n_ue=n_ue, rate_per_ms=rate, n_cb=n_cb, **kw)


def twostep(n_event=300, n_cr=29, rate=RATE_6_8_PER_S, t_p=3, **kw):
    return TwoStepParams(
        n_ue=1000, n_event=n_event, rate_per_ms=rate, t_p=t_p, n_cr=n_cr, **kw
    )


class TestCollisionProbability:
    def test_single_ue_never_collides(self):
        assert collision_probability(0.7, 1, 10) == 0.0

    def test_two_ue_reduces_to_ratio(self):
        for tau in (0.01, 0.3, 0.9):
            for n_cb in (1, 10, 54):
                got = collision_probability(tau, 2, n_cb)
                assert got == pytest.approx(tau / n_cb, rel=1e-12)

    def test_certain_collision(self):
        assert collision_probability(1.0, 2, 1) == 1.0

    def test_subnormal_tau_underflows_to_zero(self):
        # 5e-324 / 2 underflows to exactly 0.0; must not hit log(0)
        assert collision_probability(5e-324, 2, 2) == 0.0

    def test_matches_closed_form(self):
        # The binomial sum telescopes to 1 - (1 - tau/n_cb)^(N-1); the
        # closed form is the implementation under test, the explicit sum
        # the oracle.
        for n_ue in (2, 5, 100, 10_000, 100_000):
            for tau in (1e-6, 1e-3, 0.05, 0.4):
                for n_cb in (5, 25, 54):
                    got = collision_probability(tau, n_ue, n_cb)
                    want = collision_probability_binomial(tau, n_ue, n_cb)
                    assert got == pytest.approx(want, rel=1e-9, abs=1e-300)

    def test_monotone_in_population_and_pool(self):
        taus = [collision_probability(0.01, n, 25) for n in (2, 10, 100, 1000)]
        assert all(b >= a for a, b in zip(taus, taus[1:]))
        pools = [collision_probability(0.01, 100, n) for n in (1, 5, 25, 54)]
        assert all(b <= a for a, b in zip(pools, pools[1:]))

    @given(
        tau=st.floats(min_value=0, max_value=1),
        n_ue=st.integers(min_value=1, max_value=5000),
        n_cb=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, tau, n_ue, n_cb):
        assert 0.0 <= collision_probability(tau, n_ue, n_cb) <= 1.0


class TestFourStepSolution:
    def test_probabilities_normalized(self):
        for n_ue in (1, 100, 5000):
            sol = solve_fourstep(fourstep(n_ue=n_ue))
            assert sol.total_probability == pytest.approx(1.0, abs=1e-9)

    def test_residual_below_tolerance(self):
        sol = solve_fourstep(fourstep(n_ue=2000, n_cb=20))
        assert sol.residual < 1e-10

    def test_single_ue_collision_free(self):
        sol = solve_fourstep(fourstep(n_ue=1))
        assert sol.rho_col == 0.0
        # with p2 = p3 = p4 = 1 the only failures are detection failures
        assert failure_probability(sol) == pytest.approx(
            sol.pi[-1, 0] * math.exp(-10.0), rel=1e-12
        )

    def test_single_ue_against_hand_chain(self):
        # Independent reconstruction of the collision-free chain.
        params = fourstep(n_ue=1)
        sol = solve_fourstep(params)
        lam, t_tti = params.rate_per_ms, params.t_tti_ms
        p_idle = math.exp(-lam * t_tti)
        detect = [1 - math.exp(-m) for m in range(1, 11)]
        f = [1 - p_idle]
        for m in range(1, 10):
            f.append(f[-1] * (1 - detect[m - 1]))
        pi_states = sum(f) + sum(p * x for p, x in zip(detect, f)) * 3
        p_conn = 1 - math.exp(-lam * (params.t_up_ms + params.t_inactive_ms))
        x_conn = sum(p * x for p, x in zip(detect, f)) / (1 - p_conn)
        total = x_conn + 1 + pi_states
        assert sol.pi.sum() == pytest.approx(pi_states / total, rel=1e-12)
        # load = sum pi / t_tot
        assert load_fourstep(sol) == pytest.approx(sol.pi.sum() / sol.t_tot, rel=1e-12)

    def test_load_grows_as_pool_shrinks(self):
        loads = [
            load_fourstep(solve_fourstep(fourstep(n_ue=5000, n_cb=n_cb)))
            for n_cb in (54, 44, 34, 24, 18)
        ]
        assert all(b >= a for a, b in zip(loads, loads[1:]))

    def test_failure_grows_as_pool_shrinks(self):
        fails = [
            failure_probability(solve_fourstep(fourstep(n_ue=5000, n_cb=n_cb)))
            for n_cb in (54, 44, 34, 24, 18)
        ]
        assert all(b >= a for a, b in zip(fails, fails[1:]))

    def test_all_p_one_never_fails(self):
        # force detection-only failures off by using a huge attempt cap proxy:
        # with p2=p4=1 and a single UE, failure equals the all-detection-miss
        # path only; with all step successes at 1 and detection certain the
        # failure probability must be 0. Detection is never exactly 1, so
        # check the analytic bound instead.
        sol = solve_fourstep(fourstep(n_ue=1, max_attempts=3))
        bound = math.exp(-1.0) * math.exp(-2.0) * math.exp(-3.0)
        assert failure_probability(sol) <= bound

    @given(
        n_ue=st.integers(min_value=1, max_value=3000),
        n_cb=st.integers(min_value=1, max_value=54),
        rate=st.floats(min_value=1e-5, max_value=0.05),
        max_attempts=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=25, deadline=None)
    def test_solution_well_formed(self, n_ue, n_cb, rate, max_attempts):
        sol = solve_fourstep(
            fourstep(n_ue=n_ue, n_cb=n_cb, rate=rate, max_attempts=max_attempts)
        )
        vec = solution_vector(sol)
        assert (vec >= -1e-15).all() and (vec <= 1 + 1e-12).all()
        assert sol.total_probability == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= sol.tau <= 1.0
        assert 0.0 <= sol.rho_col <= 1.0
        assert (sol.holding > 0).all()


class TestFourStepFixedPoint:
    @staticmethod
    def rhs(params, tau, collision=collision_probability):
        detect = [core.detection_prob(m) for m in range(1, params.max_attempts + 1)]
        return analysis._fourstep_chain(
            params, collision(tau, params.n_ue, params.n_cb), np.array(detect))[0]

    @pytest.mark.parametrize("rate", [1e-9, 1e-12, 1e-13, 1e-15])
    def test_low_rate_fixed_point(self, rate):
        # tau is about rate * t_tti here, below any absolute tolerance
        params = fourstep(rate=rate)
        sol = solve_fourstep(params)
        assert abs(self.rhs(params, sol.tau) - sol.tau) <= 1e-9 * sol.tau

    def test_tiny_rate_keeps_first_preamble_weight(self):
        # rate * t_tti = 5e-17: 1 - exp(-x) rounds to 0 there, expm1 does not
        assert solve_fourstep(fourstep(rate=1e-16)).tau > 0.0
        assert solve_twostep(twostep(rate=1e-16)).tau > 0.0

    @pytest.mark.parametrize("solve, params", [
        (solve_fourstep, fourstep(rate=1e-303)),
        (solve_twostep, twostep(rate=1e-303)),
    ])
    def test_rate_below_leave_resolution_solves(self, solve, params):
        # exp(-rate * (t_up + t_inactive)) rounds to 1 here: the connected
        # holding time p_conn / rate needs p_conn from expm1 to stay positive,
        # and tends to t_up + t_inactive as the rate falls
        sol = solve(params)
        assert sol.total_probability == pytest.approx(1.0, abs=1e-9)
        assert sol.holding_connected == pytest.approx(
            params.t_up_ms + params.t_inactive_ms, rel=1e-12)

    def test_tiny_rate_matches_exact_fixed_point(self):
        params = fourstep(rate=1e-15)
        want = fourstep_tau_exact(params)
        assert solve_fourstep(params).tau == pytest.approx(want, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n_ue", [1, 40, 23_000, 100_000])
    def test_root_matches_oracle_bisection(self, n_ue):
        params = fourstep(n_ue=n_ue, rate=RATE_HALF_PER_S)
        want = root_by_bisection(
            lambda tau: self.rhs(params, tau, collision_probability_binomial) - tau)
        assert solve_fourstep(params).tau == pytest.approx(want, rel=1e-12)


class TestFourStepMatrixOracle:
    @pytest.mark.parametrize("max_attempts", [1, 2, 3])
    def test_stationary_matches_power_iteration(self, max_attempts):
        params = fourstep(
            n_ue=40, rate=0.05, n_cb=3, max_attempts=max_attempts, p2=0.9, p4=0.8
        )
        sol = solve_fourstep(params)
        p_conn = 1 - math.exp(-params.rate_per_ms * (params.t_up_ms + params.t_inactive_ms))
        p_idle = math.exp(-params.rate_per_ms * params.t_tti_ms)
        P = fourstep_transition_matrix(
            max_attempts, sol.detect, params.p2, 1 - sol.rho_col, params.p4,
            p_conn, p_idle,
        )
        want = stationary_by_power_iteration(P)
        got = solution_vector(sol)
        assert np.abs(got - want).max() < 1e-8


class TestParamsValidation:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0, -1.0])
    def test_rate_must_be_finite_and_positive(self, rate):
        with pytest.raises(ValueError, match="rate_per_ms"):
            fourstep(rate=rate)
        with pytest.raises(ValueError, match="rate_per_ms"):
            twostep(rate=rate)

    @pytest.mark.parametrize("p2", [1.5, -0.2, math.nan])
    def test_p2_must_be_a_probability(self, p2):
        with pytest.raises(analysis.ModelInputError, match="p2 must be in"):
            fourstep(p2=p2)
        with pytest.raises(analysis.ModelInputError, match="p2 must be in"):
            twostep(p2=p2)


class TestTwoStepDetection:
    def test_cell_mean_devices(self):
        assert twostep().n_rar == pytest.approx(300 / 84, rel=1e-12)

    def test_lonely_cell_reduces_to_baseline(self):
        params = twostep(n_event=0, n_cr=29)
        assert params.n_rar == 1.0
        want = [1 - math.exp(-m) for m in range(1, params.max_attempts + 1)]
        assert twostep_detection_prob(params) == pytest.approx(want, rel=1e-12)

    def test_sharing_never_hurts(self):
        params = twostep(n_event=700, n_cr=20)
        sol = solve_twostep(params)
        for m in range(1, 11):
            assert sol.detect[m - 1] >= 1 - math.exp(-m) - 1e-15

    def test_attempt_range_checked(self):
        # the previous vector may be partial, never longer than max_attempts
        twostep_detection_prob(twostep(), [0.5] * 10)
        with pytest.raises(ValueError):
            twostep_detection_prob(twostep(), [0.5] * 11)

    @given(
        n_event=st.integers(min_value=0, max_value=1000),
        n_cr=st.integers(min_value=2, max_value=54),
        t_p=st.sampled_from([1, 2, 3]),
        rate=st.floats(min_value=1e-4, max_value=0.1),
        max_attempts=st.integers(min_value=1, max_value=10),
        n_prev=st.integers(min_value=0, max_value=10),
        prev=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_vector_matches_per_attempt_oracle(
            self, n_event, n_cr, t_p, rate, max_attempts, n_prev, prev):
        params = twostep(n_event=n_event, n_cr=n_cr, rate=rate, t_p=t_p,
                         max_attempts=max_attempts)
        p_prev = [prev] * min(n_prev, max_attempts)
        got = twostep_detection_prob(params, p_prev)
        want = [twostep_detection_prob_per_m(m, params, p_prev)
                for m in range(1, max_attempts + 1)]
        # the vector adds m after the peers' sum, the oracle before it
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


class TestTwoStepSolution:
    def test_effective_period(self):
        # An inactive device waits half the mean class stride for its slot.
        for t_p, stride in ((3, 10 / 3), (2, 2.0), (1, 1.0)):
            sol = solve_twostep(twostep(t_p=t_p))
            assert sol.holding_inactive == pytest.approx(0.5 * stride)

    def test_probabilities_normalized(self):
        for n_event in (0, 30, 300, 700):
            sol = solve_twostep(twostep(n_event=n_event))
            assert sol.total_probability == pytest.approx(1.0, abs=1e-9)

    def test_holding_times(self):
        params = twostep()
        sol = solve_twostep(params)
        assert np.allclose(sol.holding[:, 1], 2.75)
        assert sol.holding_inactive == pytest.approx(0.5 * 10 / 3)
        assert (sol.holding > 0).all()

    @pytest.mark.parametrize("max_attempts", [1, 2, 3])
    def test_stationary_matches_power_iteration(self, max_attempts):
        params = twostep(
            n_event=40, n_cr=3, rate=0.05, t_p=2, max_attempts=max_attempts, p2=0.9
        )
        sol = solve_twostep(params)
        p_conn = 1 - math.exp(-params.rate_per_ms * (params.t_up_ms + params.t_inactive_ms))
        p_idle = math.exp(-params.rate_per_ms * core.mean_class_stride_slots(params.t_p)
                          * params.t_tti_ms)
        P = twostep_transition_matrix(
            max_attempts, sol.detect, params.p2, p_conn, p_idle
        )
        want = stationary_by_power_iteration(P)
        got = solution_vector(sol)
        assert np.abs(got - want).max() < 1e-8


class TestTwoStepLoad:
    def test_lonely_cell_effective_load_is_one(self):
        params = twostep(n_event=0)
        sol = solve_twostep(params)
        assert effective_rar_load(params, sol.detect) == 1.0
        assert load_twostep(sol, params) == pytest.approx(
            sol.pi.sum() / sol.t_tot, rel=1e-12
        )

    def test_load_decreases_with_bigger_pool(self):
        loads = []
        for n_cr in (10, 20, 29, 36, 54):
            params = twostep(n_event=500, n_cr=n_cr)
            loads.append(load_twostep(solve_twostep(params), params))
        assert all(b <= a for a, b in zip(loads, loads[1:]))

    def test_load_increases_with_event_population(self):
        loads = []
        for n_event in (100, 300, 500, 700):
            params = twostep(n_event=n_event, n_cr=29)
            loads.append(load_twostep(solve_twostep(params), params))
        assert all(b >= a for a, b in zip(loads, loads[1:]))


class TestOptimizer:
    def test_objective_terms_trade_off(self):
        fs = fourstep(n_ue=2000, rate=RATE_HALF_PER_S)
        ts = twostep(n_event=300)
        res = optimize_preamble_split(fs, ts)
        feasible = [p for p in res.points if p.feasible]
        assert len(feasible) > 5
        cb = [p.load_fourstep for p in feasible]
        ed = [p.load_twostep for p in feasible]
        assert all(b >= a - 1e-15 for a, b in zip(cb, cb[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(ed, ed[1:]))

    def test_argmin_consistent_with_table(self):
        fs = fourstep(n_ue=2000, rate=RATE_HALF_PER_S)
        ts = twostep(n_event=300)
        res = optimize_preamble_split(fs, ts)
        best = min((p for p in res.points if p.feasible), key=lambda p: p.objective)
        assert res.best_n_cr == best.n_cr
        assert res.point(best.n_cr) is res.points[best.n_cr]

    def test_no_event_devices_prefers_biggest_fourstep_pool(self):
        fs = fourstep(n_ue=2000, rate=RATE_HALF_PER_S)
        res = optimize_preamble_split(fs, None)
        feasible = [p.n_cr for p in res.points if p.feasible]
        assert res.best_n_cr == min(feasible)

    def test_infeasible_scenario_raises(self):
        fs = fourstep(n_ue=100, rate=RATE_1_PER_S)
        with pytest.raises(InfeasibleError):
            optimize_preamble_split(fs, None, p_fail_max=1e-300)

    def test_pool_size_guards(self):
        fs = fourstep(n_ue=100, rate=RATE_1_PER_S)
        ts = twostep(n_event=10)
        res = optimize_preamble_split(fs, ts)
        assert not res.points[0].feasible  # n_cr = 0 cannot host event devices
        assert not res.points[1].feasible
        assert not res.points[54].feasible  # n_cb = 0 cannot host fourstep devices


class TestExactOutput:
    """Solver outputs pinned bit for bit over a small parameter grid.

    Every other analysis test compares with a tolerance; these digests
    change when any floating-point operation of a chain solve changes its
    order or its operands. The grid covers a single attempt, step success
    probabilities below 1, a lone device and near-zero rates. The digests
    also depend on the platform's libm and numpy build; after changing
    either, recompute them from an unchanged solver.
    """

    FIELDS = ("tau", "rho_col", "residual", "t_tot", "pi_connected", "pi_inactive",
              "holding_connected", "holding_inactive", "pi", "holding", "detect",
              "p_steps")

    @staticmethod
    def feed(h, value):
        h.update(b"none" if value is None else np.asarray(value, dtype=np.float64).tobytes())

    def digest(self, cases, solve, load):
        h = hashlib.sha256()
        for params in cases:
            sol = solve(params)
            for name in self.FIELDS:
                self.feed(h, getattr(sol, name))
            self.feed(h, load(sol, params))
            self.feed(h, failure_probability(sol))
        return h.hexdigest()

    def test_fourstep_digest(self):
        cases = [
            fourstep(n_ue=n_ue, n_cb=n_cb, rate=rate, max_attempts=m, p2=p2, p4=p4)
            for (n_ue, n_cb), m, (p2, p4), rate in itertools.product(
                ((1, 25), (40, 3), (3000, 25)), (1, 3, 10),
                ((1.0, 1.0), (0.9, 0.8)), (1e-15, RATE_HALF_PER_S, 0.05))
        ]
        got = self.digest(cases, solve_fourstep, lambda sol, _: load_fourstep(sol))
        assert got == "9c76c3718a038f7b2233b1f1720be208e9087de35fcf4324edb39ab44c2bc57f"

    def test_twostep_digest(self):
        cases = [
            TwoStepParams(n_ue=n_ue, n_event=n_event, n_cr=n_cr, rate_per_ms=rate,
                          t_p=t_p, max_attempts=m, p2=p2)
            for (n_ue, n_event, n_cr), t_p, m, p2, rate in itertools.product(
                ((1, 1, 2), (1000, 0, 29), (1000, 300, 29), (1000, 700, 5)), (1, 3),
                (1, 3, 10), (1.0, 0.7), (1e-15, RATE_6_8_PER_S, 0.05))
        ]
        got = self.digest(cases, solve_twostep, load_twostep)
        assert got == "6d4e33f1d8c225b61a7ff156da6db9f813e7ecdcc741cf3bd5bf375b232ccb51"
