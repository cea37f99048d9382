"""Markov-chain load models for both access procedures and the pool optimizer.

Each procedure is modeled as a per-device renewal chain over the states
``connected``, ``inactive``, and ``(attempt m, step n)``. One solver serves
both procedures, and each procedure supplies only its step success
probabilities (the per-attempt preamble detection vector, then one scalar
per later step) and each step's holding times on success and on failure:
four steps for the four-step procedure, two for the two-step one. Solving
a chain yields the stationary state probabilities, the mean holding time,
the expected signaling load per device per ms, and the access-failure
probability.

The four-step chain couples to itself through the collision probability
(more transmissions cause more collisions cause more retransmissions),
solved as a one-dimensional fixed point: the collision probability is the
closed form ``1 - (1 - tau/n_cb)^(N-1)``, and the root of ``rhs(tau) -
tau`` is found by Illinois false position on the bracket ``[0, 1]``, which
always holds. The module needs only numpy. The optimizer sweeps the split
of the shared preamble pool between the two procedures and minimizes the
total signaling load subject to a failure-probability cap.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import core
from .scenario import ScenarioError


class SolverError(RuntimeError):
    """A chain has no finite solution, or its fixed point missed the residual."""


class InfeasibleError(RuntimeError):
    """No preamble split satisfies the failure-probability constraint."""


class ModelInputError(ValueError):
    """A model input out of the models' range; the message names the field,
    which is also the scenario key for every duration."""


def _check_positive(params, names) -> None:
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value) or value <= 0:
            raise ModelInputError(f"{name} must be finite and > 0, got {value!r}")


def _check_probability(params, names) -> None:
    for name in names:
        value = getattr(params, name)
        if not 0.0 <= value <= 1.0:
            raise ModelInputError(f"{name} must be in [0, 1], got {value!r}")


@dataclass(frozen=True)
class FourStepParams:
    """Per-device model inputs for the four-step procedure."""

    n_ue: int                    # devices sharing the four-step pool
    rate_per_ms: float           # per-device packet rate (1/ms)
    n_cb: int                    # preambles in the four-step pool
    max_attempts: int = 10
    t_tti_ms: float = 0.5
    t_up_ms: float = core.UP_DATA_MS
    t_inactive_ms: float = 5.0
    rar_window_ms: float = 2.5
    backoff_avg_ms: float = 5.0
    conres_timer_ms: float = 24.0
    p2: float = 1.0              # success of the response step
    p4: float = 1.0              # success of the setup step

    def __post_init__(self) -> None:
        if self.n_ue < 1:
            raise ModelInputError("n_ue must be >= 1")
        if self.n_cb < 1:
            raise ModelInputError("n_cb must be >= 1")
        if self.max_attempts < 1:
            raise ModelInputError("max_attempts must be >= 1")
        _check_positive(self, ("rate_per_ms", "t_tti_ms", "t_up_ms", "t_inactive_ms",
                               "rar_window_ms", "backoff_avg_ms", "conres_timer_ms"))
        _check_probability(self, ("p2", "p4"))


@dataclass(frozen=True)
class TwoStepParams:
    """Per-device model inputs for the two-step procedure (event devices)."""

    n_ue: int                    # all two-step devices
    n_event: int                 # event-traffic devices among them
    rate_per_ms: float           # per event device (1/ms)
    t_p: int = 3
    n_cr: int = 4
    max_attempts: int = 10
    t_tti_ms: float = 0.5
    t_up_ms: float = core.UP_DATA_MS
    t_inactive_ms: float = 5.0
    rar_window_ms: float = 2.5
    p2: float = 1.0

    def __post_init__(self) -> None:
        if self.n_ue < 0 or self.n_event < 0:
            raise ModelInputError("device counts must be >= 0")
        if self.n_event > self.n_ue:
            raise ModelInputError("n_event must not exceed n_ue")
        _check_positive(self, ("rate_per_ms", "t_tti_ms", "t_up_ms", "t_inactive_ms",
                               "rar_window_ms"))
        _check_probability(self, ("p2",))
        if self.t_p not in (1, 2, 3):
            raise ModelInputError("t_p must be in {1, 2, 3}")
        if self.n_event > 0 and self.n_cr < 2:
            raise ModelInputError("n_cr must be >= 2 when event devices exist "
                                  "(one preamble is reserved for periodic devices)")
        if self.n_cr < 0:
            raise ModelInputError("n_cr must be >= 0")
        if self.max_attempts < 1:
            raise ModelInputError("max_attempts must be >= 1")

    @property
    def slot_avg(self) -> float:
        """Mean slots between packets of one event device."""
        return 1.0 / (self.rate_per_ms * self.t_tti_ms)

    @property
    def n_rar(self) -> float:
        """Mean devices per (preamble, offset) cell, at least one."""
        if self.n_event <= 0:
            return 1.0
        return max(self.n_event / (self.t_p * (self.n_cr - 1)), 1.0)


def fourstep_params(sc) -> FourStepParams | None:
    """The four-step model inputs of a scenario (``ralab.scenario.Scenario``).

    ``None`` when the scenario has no four-step devices.
    """
    if sc.fourstep_n_ue == 0:
        return None
    params = FourStepParams(
        n_ue=sc.fourstep_n_ue,
        rate_per_ms=sc.fourstep_rate_per_s / 1000.0,
        n_cb=sc.n_cb,
        max_attempts=sc.max_attempts,
        t_tti_ms=sc.t_tti_ms,
        t_up_ms=sc.t_up_ms,
        t_inactive_ms=sc.t_inactive_ms,
        rar_window_ms=sc.rar_window_ms,
        backoff_avg_ms=sc.backoff_avg_ms,
        conres_timer_ms=sc.conres_timer_ms,
    )
    bw = params.backoff_avg_ms
    _check_holding_times(params, (
        {"t_tti_ms": (params.max_attempts + 1) * params.t_tti_ms,
         "rar_window_ms": params.rar_window_ms, "backoff_avg_ms": bw},
        {"conres_timer_ms": params.conres_timer_ms, "backoff_avg_ms": bw},
    ))
    return params


def twostep_params(sc) -> TwoStepParams | None:
    """The two-step model inputs of a scenario's event population.

    ``None`` when the scenario has no two-step event devices.
    """
    if sc.twostep_n_event == 0:
        return None
    params = TwoStepParams(
        n_ue=sc.twostep_n_periodic + sc.twostep_n_event,
        n_event=sc.twostep_n_event,
        rate_per_ms=sc.twostep_event_rate_per_s / 1000.0,
        t_p=sc.t_p,
        n_cr=sc.n_cr,
        max_attempts=sc.max_attempts,
        t_tti_ms=sc.t_tti_ms,
        t_up_ms=sc.t_up_ms,
        t_inactive_ms=sc.t_inactive_ms,
        rar_window_ms=sc.rar_window_ms,
    )
    stride = core.mean_class_stride_slots(params.t_p)
    _check_holding_times(params, (
        {"t_tti_ms": (stride + params.max_attempts) * params.t_tti_ms,
         "rar_window_ms": params.rar_window_ms},
    ))
    # slot_avg, the mean slots between packets, is the reciprocal of this
    # product and must not read 0; the error names the larger factor
    if not math.isfinite(params.rate_per_ms * params.t_tti_ms):
        key = "t_tti_ms" if params.t_tti_ms > params.rate_per_ms else "twostep_event_rate_per_s"
        raise ScenarioError(f"{key} = {getattr(sc, key)!r} gives event packets per slot "
                            "beyond the float range")
    return params


def _check_holding_times(params: FourStepParams | TwoStepParams, holds) -> None:
    """Refuse model inputs under which the chain's holding times overflow.

    Each entry of ``holds`` is a sum of holding times, as its terms keyed
    by the duration field (also the scenario key) they come from; the
    connected state's, at most ``t_up_ms + t_inactive_ms``, is added here.
    Each sum must be finite, and the error names its largest term.

    The first entry bounds the time the chain spends, per visit to the
    idle state, in the idle state, in every attempt's preamble slot and in
    the wait after a missed preamble: no state weighs more than the idle
    state, and the misses weigh less than it together, as attempt ``m`` is
    missed with probability at most ``exp(-m)`` (``core.detection_prob``).
    A later step's failure weighs as much as the solved collision
    probability makes it, so only its own hold is checked.  Only durations
    are read, so a sweep over the pool split needs the check once.
    """
    for terms in (*holds, {"t_up_ms": params.t_up_ms, "t_inactive_ms": params.t_inactive_ms}):
        if not math.isfinite(sum(terms.values())):
            key = max(terms, key=terms.get)
            raise ScenarioError(f"{key} = {getattr(params, key)!r} gives a model holding "
                                "time beyond the float range")


@dataclass(frozen=True)
class StationarySolution:
    """Solved chain: stationary probabilities, holding times, load."""

    procedure: str               # "fourstep" or "twostep"
    pi_connected: float
    pi_inactive: float
    pi: np.ndarray               # (max_attempts, steps); steps = 4 or 2
    detect: np.ndarray           # per-attempt preamble detection probability
    p_steps: tuple[float, ...]   # success of steps 2.. (p2, p3, p4) or (p2,)
    holding_connected: float
    holding_inactive: float
    holding: np.ndarray          # (max_attempts, steps), ms
    t_tot: float                 # mean holding time over all states, ms
    tau: float                   # detected-preamble transmissions per slot
    rho_col: float | None        # four-step only
    residual: float | None       # |fixed point residual|, four-step only

    def __post_init__(self) -> None:
        total = self.total_probability
        if not math.isclose(total, 1.0, abs_tol=1e-9):
            raise ValueError(f"stationary probabilities sum to {total}, not 1")
        values = np.concatenate(
            ([self.pi_connected, self.pi_inactive], self.pi.ravel())
        )
        if (values < -1e-15).any() or (values > 1 + 1e-12).any():
            raise ValueError("stationary probabilities outside [0, 1]")
        if (self.holding <= 0).any() or self.holding_connected <= 0 \
                or self.holding_inactive <= 0 or self.t_tot <= 0:
            raise ValueError("holding times must be > 0")

    @property
    def total_probability(self) -> float:
        return self.pi_connected + self.pi_inactive + float(self.pi.sum())


def collision_probability(tau: float, n_ue: int, n_cb: int) -> float:
    """Probability that >= 1 of the other ``n_ue - 1`` devices lands a
    detected transmission on the same preamble in the same slot.

    Each other device picks this preamble in this slot with probability
    ``q = tau / n_cb``, so the binomial tail telescopes to the closed form
    ``1 - (1 - q)^(n_ue - 1)``, evaluated as ``-expm1((n_ue - 1) log1p(-q))``
    to stay accurate when ``q`` is tiny.
    """
    if not 0.0 <= tau <= 1.0:
        raise ValueError("tau must be in [0, 1]")
    if n_ue < 1 or n_cb < 1:
        raise ValueError("n_ue and n_cb must be >= 1")
    q = tau / n_cb
    # branch on q, not tau: subnormal tau can underflow to q == 0.0
    if n_ue == 1 or q == 0.0:
        return 0.0
    if q >= 1.0:
        return 1.0
    return -math.expm1((n_ue - 1) * math.log1p(-q))


def _connected_state(params: FourStepParams | TwoStepParams) -> tuple[float, float]:
    """Leave probability ``1 - p_conn`` and mean holding time (ms) of the
    connected state (``p_conn`` is its stay probability).

    The leave probability is computed as ``exp(-rate·(t_up_ms +
    t_inactive_ms))``.  The chain's connected weight is at most
    ``1 / (1 - p_conn)`` and its time there at most ``p_conn / rate``
    times that; SolverError is raised when either bound is beyond the
    float range, which an exponent above about 708 gives.  The holding
    time ``p_conn / rate`` takes ``p_conn`` from ``expm1``, so it stays
    positive for rates so tiny that the leave probability rounds to 1.
    """
    lam = params.rate_per_ms
    hold = params.t_up_ms + params.t_inactive_ms
    leave = math.exp(-lam * hold)
    hold_conn = -math.expm1(-lam * hold) / lam
    if leave * sys.float_info.max < max(1.0, hold_conn):
        raise SolverError(
            f"rate_per_ms {lam:g} too high: the connected state's leave "
            f"probability {leave:g} gives the chain no finite solution"
        )
    return leave, hold_conn


def _chain(params: FourStepParams | TwoStepParams, f0: float, hold_idle: float,
           probs: tuple, holds: tuple):
    """Solve a renewal chain given its step success probabilities.

    ``probs[0]`` is the per-attempt preamble detection vector and
    ``probs[1:]`` the scalar success probabilities of the later steps;
    ``holds`` has one ``(hold on success, hold on failure)`` pair (ms) per
    step, and step n holds their mean under ``probs[n]``. ``f0`` is the
    first preamble state's weight relative to the inactive state, held for
    ``hold_idle`` ms. An attempt fails at its first unsuccessful step and
    the last step's success connects the device.

    Returns (tau, parts); ``_solution`` turns the parts into a
    StationarySolution.
    """
    leave_conn, hold_conn = _connected_state(params)

    # every sum runs left to right over the steps, so results stay bit-stable
    fail, reach = 1 - probs[0], probs[0]
    for p in probs[1:]:
        fail = fail + reach * (1 - p)
        reach = reach * p
    # weights[n][m] is the unnormalized probability of step n + 1 of attempt
    # m + 1, with the inactive state fixed at weight 1; attempt m + 1 starts
    # after m failed attempts
    f = np.empty(len(fail))
    f[0], f[1:] = f0, fail[:-1]
    weights = [np.cumprod(f, out=f)]
    for p in probs[:-1]:
        weights.append(p * weights[-1])
    x_conn = probs[-1] * weights[-1].sum() / leave_conn
    total = x_conn + 1.0 + sum(weights[1:], weights[0]).sum()

    # steps >= 2 hold scalars here; _solution broadcasts them
    holding = [on_success * p + on_failure * (1 - p)
               for p, (on_success, on_failure) in zip(probs, holds)]
    t_tot = x_conn * hold_conn + hold_idle
    for w, h in zip(weights, holding):
        t_tot += (w * h).sum()
    t_tot /= total

    tau = float((weights[0] * probs[0]).sum() * params.t_tti_ms / (total * t_tot))
    return tau, (probs, weights, holding, x_conn, total, hold_conn, hold_idle, t_tot)


def _solution(procedure: str, tau: float, parts, rho_col: float | None = None,
              residual: float | None = None) -> StationarySolution:
    """The StationarySolution of a chain that ``_chain`` solved into ``parts``."""
    probs, weights, holding, x_conn, total, hold_conn, hold_idle, t_tot = parts
    pi = np.stack(weights, axis=1) / total
    # filled column by column: np.stack over np.broadcast_arrays made the
    # optimizer's sweep about 7 % slower
    holding_matrix = np.empty(pi.shape)
    for n, h in enumerate(holding):
        holding_matrix[:, n] = h
    return StationarySolution(
        procedure=procedure, pi_connected=x_conn / total, pi_inactive=1.0 / total,
        pi=pi, detect=probs[0], p_steps=tuple(probs[1:]),
        holding_connected=hold_conn, holding_inactive=hold_idle, holding=holding_matrix,
        t_tot=t_tot, tau=tau, rho_col=rho_col, residual=residual,
    )


# A successful step holds its messages' share of the latency budget (ms):
# four-step steps 2-4, and the two-step response step, which holds
# detection, response and device processing.
_FOURSTEP_STEP_MS = (core.LATENCY_COMPONENTS_MS[2], sum(core.LATENCY_COMPONENTS_MS[3:5]),
                     sum(core.LATENCY_COMPONENTS_MS[5:8]))
_TWOSTEP_RESPONSE_MS = sum(core.LATENCY_COMPONENTS_MS[2:4])


def _fourstep_chain(params: FourStepParams, rho_col: float, pm1: np.ndarray):
    """The four-step chain for a fixed collision probability; ``pm1`` is the
    detection probability of each attempt's preamble. Returns (tau, parts)."""
    t_tti = params.t_tti_ms
    w, bw, wres = params.rar_window_ms, params.backoff_avg_ms, params.conres_timer_ms
    t2, t3, t4 = _FOURSTEP_STEP_MS
    # expm1 keeps tiny rates precise
    return _chain(
        params, -math.expm1(-params.rate_per_ms * t_tti), t_tti,
        (pm1, params.p2, 1.0 - rho_col, params.p4),
        ((t_tti, t_tti + w + bw), (t2, w + bw), (t3, t3 + wres + bw), (t4, wres + bw)),
    )


# largest |h(tau)| solve_fourstep accepts at its fixed point
_RESIDUAL_TOL = 1e-10


def solve_fourstep(params: FourStepParams) -> StationarySolution:
    """Solve the four-step chain coupled with the collision fixed point.

    Root-finds h(tau) = rhs(tau) - tau on the bracket [0, 1] by Illinois
    false position. The bracket always holds: h(0) = rhs(0) >= 0, and
    h(1) = rhs(1) - 1 < 0 because every preamble state is held for at
    least one TTI and the other states take time too, so a device makes
    fewer than one detected transmission per slot.  At tau = 1 a huge
    contention timer can overflow the chain's total time to infinity, which
    still gives rhs(1) = 0, so that one evaluation ignores the overflow.
    """
    detect = np.array([core.detection_prob(m) for m in range(1, params.max_attempts + 1)])

    def h(tau: float) -> float:
        rho = collision_probability(tau, params.n_ue, params.n_cb)
        return _fourstep_chain(params, rho, detect)[0] - tau

    a, b = 0.0, 1.0
    ha = h(a)
    with np.errstate(over="ignore"):
        hb = h(b)
    if not ha >= 0.0 > hb:
        raise SolverError(f"no sign change on [0, 1]: h(0) = {ha:.3e}, h(1) = {hb:.3e}")
    tau, ht = a, ha
    side = 0
    for _ in range(100):  # converges in under 20 evaluations
        if ht == 0.0 or b - a <= 4e-16 * b:
            break
        tau = (a * hb - b * ha) / (hb - ha)
        ht = h(tau)
        # Illinois: halve the weight of an end that stayed twice in a row
        if ht > 0.0:
            a, ha = tau, ht
            if side == 1:
                hb *= 0.5
            side = 1
        else:
            b, hb = tau, ht
            if side == -1:
                ha *= 0.5
            side = -1
    residual = abs(ht)
    if not residual < _RESIDUAL_TOL:
        raise SolverError(f"fixed point residual {residual:.3e} >= {_RESIDUAL_TOL:.1e}")

    rho = collision_probability(tau, params.n_ue, params.n_cb)
    return _solution("fourstep", tau, _fourstep_chain(params, rho, detect)[1], rho, residual)


def load_fourstep(solution: StationarySolution) -> float:
    """Mean four-step signals per device per ms (every state emits one)."""
    if solution.procedure != "fourstep":
        raise ValueError("needs a four-step solution")
    return float(solution.pi.sum() / solution.t_tot)


def failure_probability(solution: StationarySolution) -> float:
    """Stationary mass of failure transitions per chain step.

    Returns ``Σ_n π(M, n)·(1 − p_n)`` over the states of the last attempt
    M: the stationary probability that a chain step is an access failing
    its last attempt, not the probability that an access fails.  The
    figure per access divides this by ``pi[0, 0]``, the access starts per
    step.
    """
    last = solution.pi[-1]
    p_first = solution.detect[-1]
    out = last[0] * (1.0 - p_first)
    for n, p_n in enumerate(solution.p_steps, start=1):
        out += last[n] * (1.0 - p_n)
    return float(out)


def twostep_detection_prob(params: TwoStepParams, p_prev=()) -> np.ndarray:
    """Detection probabilities of the m-th preamble, m = 1..M, under cell sharing.

    Devices in the same cell that transmit simultaneously add their attempt
    indices to the detection load (the receiver sees the superposition), so
    detection is better than the single-device ``core.detection_prob(m)``:
    attempt m is detected with ``detection_prob(m + S)``, where the peers'
    share ``S`` sums over their attempts j and is the same for every m.
    ``p_prev`` is the current estimate of the per-attempt detection vector;
    missing entries fall back to the single-device baseline.
    """
    M = params.max_attempts
    if len(p_prev) > M:
        raise ValueError(
            f"p_prev has {len(p_prev)} attempts, more than max_attempts = {M}"
        )
    peers = math.ceil(params.n_rar) - 1
    shared = 0.0
    if peers > 0:
        per_slot = core.mean_class_stride_slots(params.t_p) / params.slot_avg
        for j in range(1, M + 1):
            if j == 1:
                prev = 0.0
            elif j - 2 < len(p_prev):
                prev = p_prev[j - 2]
            else:
                prev = core.detection_prob(j - 1)
            q_j = min(max(per_slot * (1.0 - prev), 0.0), 1.0)
            shared += j * peers * q_j
    return np.array([core.detection_prob(m + shared) for m in range(1, M + 1)])


def _twostep_detection_vector(params: TwoStepParams) -> np.ndarray:
    M = params.max_attempts
    p = np.array([core.detection_prob(m) for m in range(1, M + 1)])
    for _ in range(500):
        p_new = twostep_detection_prob(params, p)
        if np.max(np.abs(p_new - p)) < 1e-14:
            return p_new
        p = p_new
    return p


def solve_twostep(params: TwoStepParams) -> StationarySolution:
    """Solve the two-step chain (linear; only detection self-couples)."""
    t_tti, w = params.t_tti_ms, params.rar_window_ms
    stride = core.mean_class_stride_slots(params.t_p)
    pm1 = _twostep_detection_vector(params)
    return _solution("twostep", *_chain(
        params, -math.expm1(-params.rate_per_ms * stride * t_tti), t_tti * stride,
        (pm1, params.p2), ((t_tti, t_tti + w), (_TWOSTEP_RESPONSE_MS, w)),
    ))


def effective_rar_load(params: TwoStepParams, detect: np.ndarray) -> float:
    """Mean responses a detected preamble costs, per transmitting device.

    When k cell members transmit the same preamble together, the base
    station answers all of them with one response burst, so the per-device
    cost of the burst shrinks with k. Averages n_rar / k over the binomial
    distribution of simultaneous transmitters.
    """
    n_rar = params.n_rar
    n_ceil = math.ceil(n_rar)
    if n_ceil <= 1:
        return 1.0
    per_slot = core.mean_class_stride_slots(params.t_p) / params.slot_avg
    retry_sum = 1.0 + float(np.sum(1.0 - detect[: params.max_attempts - 1]))
    x = min(max(per_slot * retry_sum, 0.0), 1.0)
    eff = 0.0
    for k in range(1, n_ceil + 1):
        weight = math.comb(n_ceil - 1, k - 1) * x ** (k - 1) * (1.0 - x) ** (n_ceil - k)
        eff += weight * n_rar / k
    return eff


def load_twostep(solution: StationarySolution, params: TwoStepParams) -> float:
    """Mean two-step signals per event device per ms.

    Preamble states emit one signal; response states emit the effective
    response burst plus the matching uplink grants, minus the one necessary
    grant (2 eff - 1).
    """
    if solution.procedure != "twostep":
        raise ValueError("needs a two-step solution")
    eff = effective_rar_load(params, solution.detect)
    per_attempt = solution.pi[:, 0] + (2.0 * eff - 1.0) * solution.pi[:, 1]
    return float(per_attempt.sum() / solution.t_tot)


@dataclass(frozen=True)
class SplitPoint:
    """One row of the optimizer sweep."""

    n_cr: int
    n_cb: int
    feasible: bool
    p_fail: float
    load_fourstep: float
    load_twostep: float
    objective: float


@dataclass(frozen=True)
class SplitResult:
    best_n_cr: int
    points: tuple[SplitPoint, ...]

    def point(self, n_cr: int) -> SplitPoint:
        return self.points[n_cr - self.points[0].n_cr]


def optimize_preamble_split(
    fourstep: FourStepParams | None,
    twostep: TwoStepParams | None,
    n_pool: int = 54,
    p_fail_max: float = 1e-7,
    n_cr_min: int = 0,
    n_cr_max: int | None = None,
) -> SplitResult:
    """Minimize total signaling load over the pool split.

    Sweeps ``n_cr`` from ``n_cr_min`` to ``n_cr_max`` (default the whole
    pool, with ``n_cb = n_pool - n_cr``), skips infeasible points (failure
    probability at or above ``p_fail_max``, or a pool too small for its
    population), and returns the argmin of
    ``load_fourstep * N_cb + load_twostep * N_ed`` with the full table.
    A chain that cannot be solved raises ``SolverError``.
    """
    if n_cr_max is None:
        n_cr_max = n_pool
    if not 0 <= n_cr_min <= n_cr_max <= n_pool:
        raise ValueError("need 0 <= n_cr_min <= n_cr_max <= n_pool")
    n_fourstep = fourstep.n_ue if fourstep is not None else 0
    n_event = twostep.n_event if twostep is not None else 0
    points = []
    best: SplitPoint | None = None
    for n_cr in range(n_cr_min, n_cr_max + 1):
        n_cb = n_pool - n_cr
        p_fail = 0.0
        load_cb = 0.0
        load_ed = 0.0
        feasible = True
        if n_fourstep > 0 and n_cb < 1:
            feasible = False
        if n_event > 0 and n_cr < 2:
            feasible = False
        if feasible and n_fourstep > 0:
            sol = solve_fourstep(replace(fourstep, n_cb=n_cb))
            p_fail = failure_probability(sol)
            load_cb = load_fourstep(sol)
            if p_fail >= p_fail_max:
                feasible = False
        if feasible and n_event > 0:
            tp = replace(twostep, n_cr=n_cr)
            load_ed = load_twostep(solve_twostep(tp), tp)
        objective = load_cb * n_fourstep + load_ed * n_event if feasible else math.inf
        points.append(
            SplitPoint(
                n_cr=n_cr, n_cb=n_cb, feasible=feasible, p_fail=p_fail,
                load_fourstep=load_cb, load_twostep=load_ed, objective=objective,
            )
        )
        if feasible and (best is None or objective < best.objective):
            best = points[-1]
    if best is None:
        raise InfeasibleError(
            f"no split in [{n_cr_min}, {n_cr_max}] keeps the failure "
            f"probability below {p_fail_max:g}"
        )
    return SplitResult(best_n_cr=best.n_cr, points=tuple(points))
