"""Independent oracles shared by the test modules.

The transition matrices here are written directly from the state diagrams,
on purpose not reusing any closed-form recursion from the package, so they
can arbitrate the analytical solutions. The collision probability is the
explicit binomial tail the package's closed form telescopes, and the root
finder is plain bisection, to arbitrate the package's fixed point. The
two-step detection probability is the per-attempt form the package's vector
form factors, and the exact four-step fixed point solves the explicit chain
in 50-digit arithmetic. The balanced event cell is a scan of every cell,
which the package's allocation heap must agree with, and the smallest free
cell index a scan of the cell's ids.  The general access update takes the
periods elapsed by ``round`` for every sample, which the estimator's
locked shortcut must agree with.
"""

import copy
import math

import numpy as np
from scipy.special import gammaln

from ralab.estimator import linear_regression, margin_value


def collision_probability_binomial(tau, n_ue, n_cb):
    """P(>= 1 of the other n_ue - 1 devices picks this preamble and slot).

    The explicit binomial tail sum over k = 1 .. n_ue - 1 colliders, with
    log-gamma coefficients so device counts up to 1e5 stay finite.
    """
    n = n_ue - 1
    q = tau / n_cb
    if n == 0 or q == 0.0:
        return 0.0
    if q >= 1.0:
        return 1.0
    k = np.arange(1, n + 1, dtype=np.float64)
    log_terms = (
        gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
        + k * math.log(q) + (n - k) * math.log1p(-q)
    )
    return float(min(1.0, np.exp(log_terms).sum()))


def balanced_event_cell(registry):
    """The least-loaded event cell (pid, t_ind) of a ``BsRegistry``: ties go
    to the smallest pid, then the smallest offset index."""
    return min(
        ((p, k) for p in registry.event_pids() for k in range(1, registry.t_p + 1)),
        key=lambda cell: (registry.cell_load(*cell), cell[0], cell[1]),
    )


def smallest_free_cell_index(registry, pid, t_ind):
    """The smallest k whose context id in cell (pid, t_ind) is unregistered,
    by a scan of every id the cell holds."""
    stride = registry.n_cr * registry.t_p
    used = {(i - 1) // stride for i in registry.ids_for_cell(pid, t_ind)}
    k = 0
    while k in used:
        k += 1
    return k


def general_twostep_update(state, preamble_time):
    """A copy of a classified periodic ``EstimatorState`` after one access
    update, the periods elapsed since the anchor always taken by ``round``
    and a full window refitted unless the locked line holds the sample."""
    state = copy.deepcopy(state)
    est = state.estimate
    period = est.period_ms
    if (state.times or est.anchor_ms) and period > 0:
        elapsed = max(1, round((preamble_time - est.anchor_ms) / period))
        tick = state.anchor_tick + elapsed
        locked = state.locked and preamble_time == est.anchor_ms + elapsed * period
    else:
        tick = state.anchor_tick + 1 if state.times else 0
        locked = False
    state.times.append(preamble_time)
    state.ticks.append(tick)
    if len(state.times) > state.window:
        del state.times[0], state.ticks[0]
        est.intercept_ms += (state.ticks[0] - state.origin) * period
        state.origin = state.ticks[0]
    state.anchor_tick = tick
    if locked or len(state.times) < state.window:
        est.anchor_ms = preamble_time
        return state
    xs = [k - state.origin for k in state.ticks]
    intercept, slope = linear_regression(state.times, xs)
    margin = margin_value(state.times, intercept, slope, xs)
    est.intercept_ms, est.period_ms, est.margin_ms = intercept, slope, margin
    est.anchor_ms = intercept + xs[-1] * slope
    state.locked = (margin == 0.0 and slope > 0 and slope % 0.125 == 0
                    and intercept % 0.125 == 0)
    return state


def root_by_bisection(h, lo=0.0, hi=1.0):
    """Root of h on [lo, hi] (h(lo) >= 0 > h(hi)), bisected to the last bit."""
    assert h(lo) >= 0.0 > h(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if h(mid) >= 0.0:
            lo = mid
        else:
            hi = mid


def fourstep_transition_matrix(M, detect, p2, p3, p4, p_conn, p_idle):
    """Explicit four-step chain: states [C, I, (m,1..4) for m=1..M]."""
    size = 2 + 4 * M
    P = np.zeros((size, size))
    P[0, 0] = p_conn
    P[0, 1] = 1 - p_conn
    P[1, 1] = p_idle
    P[1, 2] = 1 - p_idle
    for m in range(1, M + 1):
        base = 2 + 4 * (m - 1)
        nxt = 2 + 4 * m if m < M else 1
        pm1 = detect[m - 1]
        P[base + 0, base + 1] = pm1
        P[base + 0, nxt] = 1 - pm1
        P[base + 1, base + 2] = p2
        P[base + 1, nxt] += 1 - p2
        P[base + 2, base + 3] = p3
        P[base + 2, nxt] += 1 - p3
        P[base + 3, 0] = p4
        P[base + 3, nxt] += 1 - p4
    return P


def twostep_transition_matrix(M, detect, p2, p_conn, p_idle):
    """Explicit two-step chain: states [C, I, (m,1..2) for m=1..M]."""
    size = 2 + 2 * M
    P = np.zeros((size, size))
    P[0, 0] = p_conn
    P[0, 1] = 1 - p_conn
    P[1, 1] = p_idle
    P[1, 2] = 1 - p_idle
    for m in range(1, M + 1):
        base = 2 + 2 * (m - 1)
        nxt = 2 + 2 * m if m < M else 1
        pm1 = detect[m - 1]
        P[base + 0, base + 1] = pm1
        P[base + 0, nxt] = 1 - pm1
        P[base + 1, 0] = p2
        P[base + 1, nxt] += 1 - p2
    return P


def stationary_by_power_iteration(P, squarings=80):
    """Stationary distribution via repeated squaring of the matrix.

    Squaring k times applies the chain for 2**k steps; rows are
    renormalized each squaring to hold off drift.
    """
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    Q = P.copy()
    for _ in range(squarings):
        Q = Q @ Q
        Q /= Q.sum(axis=1, keepdims=True)
    pi = Q.mean(axis=0)
    return pi / pi.sum()


def solution_vector(solution):
    """Flatten a StationarySolution into the oracle's state order."""
    return np.concatenate(
        ([solution.pi_connected, solution.pi_inactive], solution.pi.ravel())
    )


def twostep_detection_prob_per_m(m, params, p_prev=()):
    """Detection probability of the m-th preamble under cell sharing.

    One attempt at a time: the exponent starts at m and adds every peer
    attempt j in turn, so the peers' sum is recomputed for each m.
    """
    assert 1 <= m <= params.max_attempts
    peers = math.ceil(params.n_rar) - 1
    exponent = float(m)
    if peers > 0:
        stride = 10.0 / 3.0 if params.t_p == 3 else float(params.t_p)
        per_slot = stride / params.slot_avg
        for j in range(1, params.max_attempts + 1):
            if j == 1:
                prev = 0.0
            elif j - 2 < len(p_prev):
                prev = p_prev[j - 2]
            else:
                prev = 1.0 - math.exp(-(j - 1.0))
            q_j = min(max(per_slot * (1.0 - prev), 0.0), 1.0)
            exponent += j * peers * q_j
    return 1.0 - math.exp(-exponent)


def fourstep_tau_exact(params, iterations=8):
    """The four-step fixed point tau = rhs(tau), in 50-digit arithmetic.

    Solves the explicit chain of ``fourstep_transition_matrix`` for its
    stationary distribution, weights each state by its holding time, and
    iterates tau -> rhs(tau) from 0 until a step no longer moves it. The
    iteration contracts by about the collision probability's slope, so it
    suits low rates, where it settles within a few steps.
    """
    from mpmath import mp

    with mp.workdps(50):
        M = params.max_attempts
        lam = mp.mpf(params.rate_per_ms)
        t_tti = mp.mpf(params.t_tti_ms)
        w, bw = mp.mpf(params.rar_window_ms), mp.mpf(params.backoff_avg_ms)
        wres = mp.mpf(params.conres_timer_ms)
        p2, p4 = mp.mpf(params.p2), mp.mpf(params.p4)
        detect = [-mp.expm1(-m) for m in range(1, M + 1)]
        p_conn = -mp.expm1(-lam * (params.t_up_ms + params.t_inactive_ms))
        p_idle = mp.exp(-lam * t_tti)

        def rhs(tau):
            p3 = (1 - tau / params.n_cb) ** (params.n_ue - 1)
            size = 2 + 4 * M
            P = mp.zeros(size, size)
            P[0, 0], P[0, 1] = p_conn, 1 - p_conn
            P[1, 1], P[1, 2] = p_idle, -mp.expm1(-lam * t_tti)
            hold = [p_conn / lam, t_tti]
            for m in range(1, M + 1):
                base = 2 + 4 * (m - 1)
                nxt = 2 + 4 * m if m < M else 1
                d = detect[m - 1]
                for n, (p, target) in enumerate(
                        ((d, base + 1), (p2, base + 2), (p3, base + 3), (p4, 0))):
                    P[base + n, target] += p
                    P[base + n, nxt] += 1 - p
                hold += [
                    t_tti * d + (t_tti + w + bw) * (1 - d),
                    mp.mpf("1.5") * p2 + (w + bw) * (1 - p2),
                    mp.mpf("1.75") * p3 + (mp.mpf("1.75") + wres + bw) * (1 - p3),
                    mp.mpf("4.5") * p4 + (wres + bw) * (1 - p4),
                ]
            # pi (P - I) = 0 with the last balance equation swapped for sum(pi) = 1
            A = P.T - mp.eye(size)
            for j in range(size):
                A[size - 1, j] = 1
            b = mp.zeros(size, 1)
            b[size - 1] = 1
            pi = mp.lu_solve(A, b)
            t_tot = sum(pi[i] * hold[i] for i in range(size))
            first = sum(pi[2 + 4 * (m - 1)] * detect[m - 1] for m in range(1, M + 1))
            return first * t_tti / t_tot

        tau = mp.mpf(0)
        for _ in range(iterations):
            tau, prev = rhs(tau), tau
            if abs(tau - prev) <= mp.mpf("1e-40") * tau:
                return float(tau)
        raise AssertionError(f"no fixed point within {iterations} iterations")
