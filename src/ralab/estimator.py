"""Per-device uplink traffic estimation at the base station.

During an initial observation phase the device stays connected and the base
station timestamps its uplink packets; that phase only records samples.
Once ``r_threshold`` packets arrived (or an observation timer expires
first) the device is classified as ``periodic`` or ``event`` from the
variance of its inter-reception times. Periodic devices additionally get a
period/margin estimate via least squares, fitted once at classification,
and a preferred transmission-slot class. After classification the
estimate is refreshed from the access series: for each successful access,
the reception time of the preamble the device sent on its *first* attempt
for that packet.  A retry therefore adds no delay to the series.  This
assumes that the device reports its first-attempt slot, or its attempt
count, in the uplink packet that the grant schedules.

Each access appends its sample and slides the window when it is full: the
window's ticks are absolute period numbers and positions count from
``EstimatorState.origin``, so a slide drops the oldest sample, moves the
origin and rebases the intercept, and rewrites no list.  Until the window
is full the classification fit stays and only the anchor moves.  Then an
access on a locked lattice only moves the anchor, which is O(1); any other
access refits the window with :func:`linear_regression` and runs one
O(window) margin pass.  Whether the lattice is locked (a zero-margin fit
with a positive slope on the 0.125 ms grid) is state,
``EstimatorState.locked``: a refit decides it once, and a locked access
tests only that its sample lands on the lattice point.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

from . import core


@dataclass(slots=True)
class TrafficEstimate:
    """Classification outcome plus the quantities the grant rule needs."""

    kind: str                     # "periodic" or "event"
    period_ms: float = 0.0        # regression slope
    intercept_ms: float = 0.0     # regression intercept
    margin_ms: float = 0.0        # mean absolute residual
    preferred_offset: int = 1     # transmission slot class for periodic devices
    anchor_ms: float = 0.0        # fitted reception time of the newest sample

    def __post_init__(self) -> None:
        if self.kind not in ("periodic", "event"):
            raise ValueError(f"kind must be 'periodic' or 'event', got {self.kind!r}")
        if self.kind == "periodic" and (self.period_ms < 0 or self.margin_ms < 0):
            raise ValueError("periodic estimate needs period_ms >= 0 and margin_ms >= 0")


@dataclass(slots=True)
class EstimatorState:
    """Observation state for one device; classified once ``estimate`` is set."""

    times: list[float] = field(default_factory=list)
    estimate: TrafficEstimate | None = None
    window: int = 0                   # sample cap after classification (0 = none)
    ticks: list[int] = field(default_factory=list)  # period number per sample
    anchor_tick: int = 0              # period number of the current anchor
    # period number the fit's positions count from, the window's first tick
    # once it slides: the intercept is the fitted time at this tick, and
    # small positions keep a rebased intercept bit-identical to a refit
    origin: int = 0
    # the window's own fit has zero margin and a positive slope, and its
    # intercept and slope are whole multiples of core.TTI_GRID_MS: set by a
    # refit, kept by a locked update, cleared by one that misses the lattice
    locked: bool = False

    @property
    def r(self) -> int:
        return len(self.times)


def linear_regression(times, xs=None) -> tuple[float, float]:
    """Ordinary least squares of ``times`` against sample positions.

    Positions default to the sample index 0..r-1 (consecutive
    observations); pass ``xs`` when samples carry their own position
    numbers, e.g. period counts with gaps.  Returns ``(intercept,
    slope)``; the slope is the period estimate.
    """
    r = len(times)
    if r < 2:
        raise ValueError("linear_regression needs at least 2 samples")
    if xs is None:
        xs = range(r)
    elif len(xs) != r:
        raise ValueError("xs must match times in length")
    # map, not generators: this runs on every unlocked access update
    sx = math.fsum(xs)
    denom = r * math.fsum(map(operator.mul, xs, xs)) - sx * sx
    if denom == 0:
        raise ValueError("sample positions must not all coincide")
    sy = math.fsum(times)
    slope = (r * math.fsum(map(operator.mul, xs, times)) - sx * sy) / denom
    intercept = (sy - slope * sx) / r
    return intercept, slope


def margin_value(times, intercept: float, slope: float, xs=None) -> float:
    """Mean absolute regression residual (the grant-window margin)."""
    r = len(times)
    if r < 2:
        raise ValueError("margin_value needs at least 2 samples")
    if xs is None:
        xs = range(r)
    elif len(xs) != r:
        raise ValueError("xs must match times in length")
    return math.fsum([abs(t - (intercept + x * slope)) for x, t in zip(xs, times)]) / r


def successive_difference_variance(times) -> float:
    """Population variance of successive differences of ``times``.

    Zero for an exactly periodic series regardless of its length, large for
    bursty arrivals; this is the classification statistic.
    """
    if len(times) < 3:
        return 0.0
    diffs = [b - a for a, b in zip(times, times[1:])]
    mean = math.fsum(diffs) / len(diffs)
    return math.fsum((d - mean) ** 2 for d in diffs) / len(diffs)


def preferred_offset(times, t_p: int, t_tti: float) -> int:
    """Transmission-slot class that contains most of the observed times.

    Each time maps to its frame slot ``s = floor(time / t_tti) mod 10`` and
    then to the slot class covering ``s`` (``core.SLOT_CLASS``); the most
    frequent class wins, smallest index on ties. Frame slot 0 is outside
    every class when ``t_p = 3`` and counts toward class 1.
    """
    if t_p not in core.SLOT_CLASS:
        raise ValueError(f"t_p must be in {{1, 2, 3}}, got {t_p!r}")
    slot_class = core.SLOT_CLASS[t_p]
    tally = [0] * t_p
    for t in times:
        k = slot_class[int(t / t_tti) % core.FRAME_LEN] or 1
        tally[k - 1] += 1
    best = max(range(t_p), key=lambda i: (tally[i], -i))
    return best + 1


def observe_uplink_packet(
    state: EstimatorState, now: float, t_up: float, t_tti: float
) -> EstimatorState:
    """Record one uplink packet received at ``now`` during the initial phase.

    The stored value is the packet time shifted back by the uplink duration
    and forward by one slot, approximating when a preamble for this packet
    would have been received.  Nothing is fitted here: the initial-phase
    fit is made once, by :func:`classify_traffic_type`.
    """
    if state.estimate is not None:
        raise ValueError("observe_uplink_packet applies to the initial phase only")
    state.times.append(now - t_up + t_tti)
    return state


def classify_traffic_type(
    state: EstimatorState,
    r_threshold: int,
    var_threshold: float,
    t_p: int,
    t_tti: float,
    timer_expired: bool = False,
) -> TrafficEstimate:
    """Classify the device and end its initial phase.

    Call either when ``r == r_threshold`` or when the observation timer
    expires earlier; an expired timer always classifies as ``event``.  A
    periodic classification fits the observed samples into the returned
    estimate, which the state also holds.
    """
    if state.estimate is not None:
        raise ValueError("device already classified")
    if timer_expired and state.r < r_threshold:
        est = TrafficEstimate(kind="event")
    else:
        if state.r != r_threshold:
            raise ValueError(
                f"classification needs r == r_threshold ({r_threshold}), have {state.r}"
            )
        if successive_difference_variance(state.times) <= var_threshold:
            intercept, slope = linear_regression(state.times)
            est = TrafficEstimate(
                kind="periodic",
                period_ms=slope,
                intercept_ms=intercept,
                margin_ms=margin_value(state.times, intercept, slope),
                preferred_offset=preferred_offset(state.times, t_p, t_tti),
                anchor_ms=intercept + (len(state.times) - 1) * slope,
            )
        else:
            est = TrafficEstimate(kind="event")
    state.estimate = est
    state.window = max(r_threshold, 2)
    # The initial-phase samples are adjusted uplink times; after
    # classification the window tracks successful access times instead.
    # The two series sit on different lattices (an access happens a fixed
    # alignment gap after the packet it serves), so regressing across the
    # boundary would bias the slope while the window mixes them.  Start the
    # access-time series fresh; the classification fit stays in force until
    # the new series fills the window.
    state.times = []
    state.ticks = []
    state.anchor_tick = state.origin = 0
    state.locked = False
    return est


def observe_twostep_attempt(state: EstimatorState, preamble_time: float) -> EstimatorState:
    """Fold a successful two-step access into a periodic estimate.

    The sample is the reception time of the preamble the device sent on its
    first attempt for the packet, so a success reached through retries
    carries the device's schedule, not the retry delay.  The sample window
    keeps the most recent ``state.window`` values.  Ticks are stored as
    absolute period numbers and the fit's positions count from
    ``state.origin`` (0 until the window first slides, then its first
    tick): a slide drops the oldest sample, moves the origin and rebases
    the intercept onto it, which is O(1) and rewrites no list.  Preamble
    times are whole slots, ``(s+1)·t_tti`` with ``t_tti`` a multiple of
    0.125 ms (which ``Scenario`` enforces), so every window value is an
    exact binary fraction.

    Every sample takes one of two paths once the window is full.  Until
    then the classification fit stays in force and the anchor moves onto
    the sample.  Cost: O(1) on a locked lattice, with no regression;
    otherwise one O(window) ``linear_regression`` refit of the window plus
    one O(window) ``margin_value`` pass.  A refit locks the lattice
    (``state.locked``) when its margin is zero, its slope positive and its
    intercept and slope whole multiples of 0.125 ms; a locked update keeps
    all three, since a slide moves the intercept by whole periods.  A
    locked sample then needs one test, that it lands exactly on the lattice
    point.  Every sample then lies on the fitted line, every residual is
    computed exactly, and least squares over the new window returns that
    line on the rebased ticks with a zero margin, bit for bit: the update
    only moves the intercept by the rebase and the anchor onto the sample.
    A sample off the lattice point refits, and the refit decides the lock
    afresh.  The lock is tested first: a locked sample exactly one period
    after the anchor, the common case, needs no division or ``round``.

    Each sample carries the number of periods elapsed since the anchor, at
    least one, since each access serves a new packet.  So accesses that skip
    periods (failed cycles) keep the regression aligned with the device's
    schedule, and the window's positions never all coincide.
    """
    est = state.estimate
    if est is None:
        raise ValueError("observe_twostep_attempt applies after classification")
    if est.kind != "periodic":
        raise ValueError("attempt tracking applies to periodic devices only")
    times, ticks = state.times, state.ticks
    period = est.period_ms
    if state.locked and preamble_time == est.anchor_ms + period:
        # the next lattice point: every value of a locked lattice lies on
        # the 0.125 ms grid, so the sum is exact and round() would give 1
        tick = state.anchor_tick + 1
        locked = True
    elif (times or est.anchor_ms) and period > 0:
        elapsed = round((preamble_time - est.anchor_ms) / period)
        if elapsed < 1:  # a new packet: no two samples share a period
            elapsed = 1
        tick = state.anchor_tick + elapsed
        locked = state.locked and preamble_time == est.anchor_ms + elapsed * period
    else:
        tick = state.anchor_tick + 1 if times else 0
        locked = False
    times.append(preamble_time)
    ticks.append(tick)
    if state.window < len(times):  # slide: the line moves with origin
        times.pop(0)
        ticks.pop(0)
        est.intercept_ms += (ticks[0] - state.origin) * period
        state.origin = ticks[0]
    state.anchor_tick = tick
    if locked or len(times) < state.window:
        # a locked line already fits the new window; a window that is not
        # full yet keeps the classification-time period and margin.  Either
        # way the anchor is the sample itself.
        est.anchor_ms = preamble_time
    else:
        origin = state.origin
        xs = [k - origin for k in ticks]
        intercept, slope = linear_regression(times, xs)
        margin = margin_value(times, intercept, slope, xs)
        est.intercept_ms, est.period_ms, est.margin_ms = intercept, slope, margin
        est.anchor_ms = intercept + xs[-1] * slope
        state.locked = (margin == 0.0 and slope > 0
                        and slope % core.TTI_GRID_MS == 0
                        and intercept % core.TTI_GRID_MS == 0)
    return state
