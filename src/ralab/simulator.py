"""Slot-driven Monte Carlo engine for both random-access procedures.

The engine advances one transmission slot at a time and keeps three event
tables, each a dict from a slot to what is due then: packet arrivals,
preamble transmissions, and administrative events (context allocation,
observation-timer expiry).  They hold only occupied slots, so memory
follows the pending events, not the run length.
Everything a run produces lands in a :class:`~ralab.metrics.MetricsReport`.

The device population is built with the cyclic garbage collector paused.
The build makes two long-lived containers per device (the device and its
packet queue) in one burst, which would set off dozens of collections and
a full one over the whole heap, and the population holds no reference
cycle, so each of them would find nothing.

Conventions (times in ms, slots are ``t_tti`` wide):

* a packet arriving in slot ``g`` is stamped mid-slot, ``A = g*t_tti + t_tti/2``;
* a preamble sent in slot ``s`` is received at ``(s+1)*t_tti``, which is also
  the time the grant rule is evaluated at;
* a successful two-step access delivers the uplink packet at
  ``s*t_tti + CP_TWOSTEP_MS + t_up - t_tti/2`` (6.25 ms after the preamble
  slot start under defaults), the four-step equivalent uses
  ``CP_FOURSTEP_MS`` (``core``'s latency budget);
* deliveries over an already-established connection complete at
  ``A + t_up + t_tti/2``; packets that queued during an access follow its
  delivery ``D`` over the new connection, at ``max(D, A + t_up + t_tti/2)``;
* a device stays connected until ``t_inactive`` after its last delivery.
"""

from __future__ import annotations

import gc
import heapq
import math
from random import Random

from . import core, estimator, protocol
from .metrics import ClassMetrics, MetricsReport
from .scenario import Scenario, ScenarioError

CLASS_TWOSTEP_PERIODIC = "twostep_periodic"
CLASS_TWOSTEP_EVENT = "twostep_event"
CLASS_FOURSTEP = "fourstep"


class _Ue:
    """Mutable per-device state; one instance per simulated device.

    A four-step device gets only the slots the four-step path reads (it
    sets ``trigger_arrival`` when an access starts); a two-step device also
    gets its uid, period, context record, preamble and offset class.
    """

    __slots__ = (
        "uid", "periodic", "twostep", "cm",
        "period_ms", "rate_per_ms", "next_arrival_ms",
        "est", "record", "pid", "t_ind",
        "connected_until", "in_ra", "attempt", "trigger_arrival", "queue",
        "first_slot",  # two-step only: the slot of the packet's first preamble
    )

    def __init__(self, uid: int, true_kind: str, procedure: str, cm: ClassMetrics,
                 rate_per_ms: float = 0.0, next_arrival_ms: float = 0.0) -> None:
        self.periodic = true_kind == "periodic"
        self.twostep = procedure == "twostep"
        self.cm = cm  # the report's counters for this device's class
        self.rate_per_ms = rate_per_ms
        self.next_arrival_ms = next_arrival_ms
        self.est: estimator.EstimatorState | None = None
        self.connected_until = -math.inf
        self.in_ra = False
        self.attempt = 0
        self.queue: list[float] = []
        if self.twostep:
            self.uid = uid
            self.period_ms = 0.0
            self.record: protocol.UeRecord | None = None
            self.pid = -1
            self.t_ind = 0
            self.trigger_arrival = 0.0


def _check_slot_counts(sc: Scenario) -> None:
    """Refuse a scenario with a time the engine cannot count in slots.

    The engine turns times into whole slots: the response window, the
    backoff range (twice its mean), the contention timer, the observation
    timer, a delivery plus the inactivity timer, and arrival times up to a
    first arrival plus one period or plus one exponential gap, which is at
    most 37 mean gaps (``-log`` of the smallest 53-bit draw).  Their sum,
    in slots, bounds each of them, and must be finite.

    It also refuses an arrival clock that cannot advance: a populated
    class whose period, or mean gap, added to ``duration_ms`` leaves it
    unchanged would serve one slot's arrivals for ever.
    """
    spans = {
        "duration_ms": sc.duration_ms, "rar_window_ms": sc.rar_window_ms,
        "backoff_avg_ms": 2.0 * sc.backoff_avg_ms, "conres_timer_ms": sc.conres_timer_ms,
        "t_initial_ms": sc.t_initial_ms, "t_up_ms": sc.t_up_ms,
        "t_inactive_ms": sc.t_inactive_ms,
    }
    gaps = {}  # ms between one device's arrivals: the period, or the mean gap
    if sc.twostep_n_periodic:
        spans["twostep_period_ms"] = 2.0 * sc.twostep_period_ms
        gaps["twostep_period_ms"] = sc.twostep_period_ms
    for key, n in (("twostep_event_rate_per_s", sc.twostep_n_event),
                   ("fourstep_rate_per_s", sc.fourstep_n_ue)):
        if n:
            spans[key] = 37_000.0 / getattr(sc, key)  # ms, from a rate per s
            gaps[key] = 1000.0 / getattr(sc, key)
    if not math.isfinite(sum(spans.values()) / sc.t_tti_ms):
        key = max(spans, key=spans.get)
        raise ScenarioError(f"{key} = {getattr(sc, key)!r} gives a slot count beyond "
                            f"the float range at t_tti_ms = {sc.t_tti_ms!r}")
    for key, gap in gaps.items():
        if sc.duration_ms + gap == sc.duration_ms:
            raise ScenarioError(f"{key} = {getattr(sc, key)!r} gives an arrival gap below "
                                f"the time resolution at duration_ms = {sc.duration_ms!r}")


class _Engine:
    def __init__(self, sc: Scenario, seed: int) -> None:
        _check_slot_counts(sc)
        self.sc = sc
        self.rng = Random(seed)
        self._random = self.rng.random
        self._getrandbits = self.rng.getrandbits
        self.t_tti = sc.t_tti_ms
        self.half = sc.t_tti_ms / 2.0
        self.n_slots = sc.duration_slots
        self.t_up = sc.t_up_ms
        self.t_inactive = sc.t_inactive_ms
        self.max_attempts = sc.max_attempts
        self.mode = sc.estimator_mode
        self.perfect = sc.detection == "perfect"
        self.report = MetricsReport(duration_ms=sc.duration_ms, seeds=(seed,))
        self.report.populations = {
            CLASS_TWOSTEP_PERIODIC: sc.twostep_n_periodic,
            CLASS_TWOSTEP_EVENT: sc.twostep_n_event,
            CLASS_FOURSTEP: sc.fourstep_n_ue,
        }
        self.cm = {
            name: self.report.class_metrics(name)
            for name in (CLASS_TWOSTEP_PERIODIC, CLASS_TWOSTEP_EVENT, CLASS_FOURSTEP)
        }

        # timing offsets, all in whole slots unless suffixed _ms
        self.rar_expiry_slots = 1 + math.ceil(sc.rar_window_ms / self.t_tti)
        self.backoff_slots_max = round(2.0 * sc.backoff_avg_ms / self.t_tti)
        # Uniform integer draws below n: the bit width ``randrange`` and
        # ``randint`` use for n, so inlining their rejection loop
        # (``r = getrandbits(k)`` until ``r < n``) keeps every draw.
        self.n_cb = sc.n_cb
        self.cb_bits = sc.n_cb.bit_length()
        self.backoff_n = self.backoff_slots_max + 1
        self.backoff_bits = self.backoff_n.bit_length()
        # core.detection_prob indexed by load: one preamble's attempt number,
        # or the summed attempts of a two-step group when they fit
        self.detect_prob = [core.detection_prob(m) for m in range(sc.max_attempts + 1)]
        msg_exchange_ms = self.half + core.CP_TWOSTEP_MS  # preamble..msg3 sent
        self.conres_known_slots = math.ceil(
            (msg_exchange_ms + sc.conres_timer_ms) / self.t_tti
        )
        self.two_delivery_ms = core.CP_TWOSTEP_MS + sc.t_up_ms - self.half
        self.four_delivery_ms = core.CP_FOURSTEP_MS + sc.t_up_ms - self.half

        self.registry = protocol.BsRegistry(
            n_total=sc.n_total, n_cr=sc.n_cr, t_p=sc.t_p,
            ids_per_cell=sc.ids_per_cell,
        )
        self.reserved_pid = self.registry.reserved_pid
        self.slot_class = core.SLOT_CLASS[sc.t_p]
        # class_rows[t_ind][r]: core.next_tx_slot from frame slot r, so the
        # next slot of class t_ind from slot s is s - r + row[r], r = s % FRAME_LEN
        self.class_rows = [None] + [
            [core.next_tx_slot(r, sc.t_p, k) for r in range(core.FRAME_LEN)]
            for k in range(1, sc.t_p + 1)
        ]
        # (pid, t_ind) -> devices registered in that event (always-grant)
        # cell, counted per class as [event, periodic]
        self.cells: dict[tuple[int, int], list[int]] = {}
        self.cell_cms = (self.cm[CLASS_TWOSTEP_EVENT], self.cm[CLASS_TWOSTEP_PERIODIC])
        # t_ind -> heap of (grant threshold, uid, ue) for gated periodic devices
        self.pu_heaps: dict[int, list[tuple[float, int, _Ue]]] = {
            k: [] for k in range(1, sc.t_p + 1)
        }

        # slot -> what is due then, each list in the order it was queued
        self.arrivals: dict[int, list[_Ue]] = {}
        self.tx: dict[int, list[_Ue]] = {}
        self.admin: dict[int, list[tuple[str, _Ue]]] = {}
        self.ues: list[_Ue] = []
        # The population holds no reference cycle, so a collection during
        # its build would find nothing (see the module docstring): pause
        # the collector, and restore the caller's setting whatever happens.
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._build_population()
        finally:
            if enabled:
                gc.enable()

    # ------------------------------------------------------------------
    # population setup

    def _build_population(self) -> None:
        sc = self.sc
        ues = self.ues
        for _ in range(sc.twostep_n_periodic):
            ue = _Ue(len(ues), "periodic", "twostep", self.cm[CLASS_TWOSTEP_PERIODIC],
                     next_arrival_ms=self.rng.uniform(0.0, sc.twostep_period_ms))
            ue.period_ms = sc.twostep_period_ms
            self._setup_twostep(ue)
            ues.append(ue)
        rate_ms = sc.twostep_event_rate_per_s / 1000.0
        for _ in range(sc.twostep_n_event):
            ue = _Ue(len(ues), "event", "twostep", self.cm[CLASS_TWOSTEP_EVENT],
                     rate_ms, self.rng.expovariate(rate_ms))
            self._setup_twostep(ue)
            ues.append(ue)
        four_rate_ms = sc.fourstep_rate_per_s / 1000.0
        four_cm = self.cm[CLASS_FOURSTEP]
        random, log = self._random, math.log
        for _ in range(sc.fourstep_n_ue):
            # Random.expovariate's own formula, without its call overhead
            ues.append(_Ue(len(ues), "event", "fourstep", four_cm,
                           four_rate_ms, -log(1.0 - random()) / four_rate_ms))
        # first arrivals, in device order within each slot
        for ue in ues:
            slot = int(ue.next_arrival_ms / self.t_tti)
            if slot < self.n_slots:
                self.arrivals.setdefault(slot, []).append(ue)

    def _setup_twostep(self, ue: _Ue) -> None:
        sc = self.sc
        if sc.estimator_mode == "on":
            ue.est = estimator.EstimatorState()
            expiry_slot = math.ceil(sc.t_initial_ms / self.t_tti)
            self.admin.setdefault(expiry_slot, []).append(("expiry", ue))
            return
        if sc.estimator_mode == "oracle" and ue.periodic:
            est = estimator.TrafficEstimate(
                kind="periodic",
                period_ms=ue.period_ms,
                intercept_ms=ue.next_arrival_ms,
                margin_ms=0.0,
                preferred_offset=self._oracle_offset(ue),
            )
        else:
            # "off" treats every two-step device as event traffic
            est = estimator.TrafficEstimate(kind="event")
        self._allocate(ue, est)

    def _oracle_offset(self, ue: _Ue) -> int:
        """The offset class an exact observer of the pattern would pick."""
        stamps = []
        for i in range(self.sc.r_threshold):
            g = int((ue.next_arrival_ms + i * ue.period_ms) / self.t_tti)
            stamps.append((g + 2) * self.t_tti)
        return estimator.preferred_offset(stamps, self.sc.t_p, self.t_tti)

    def _allocate(self, ue: _Ue, est: estimator.TrafficEstimate) -> None:
        id_ = protocol.allocate_context_id(
            self.registry,
            est.kind,
            preferred_offset=est.preferred_offset if est.kind == "periodic" else None,
        )
        record = self.registry.records[id_]
        record.estimate = est
        ue.record = record
        ue.pid = record.pid
        ue.t_ind = record.t_ind
        if est.kind == "periodic" and self.mode == "on":
            heapq.heappush(self.pu_heaps[ue.t_ind],
                           (protocol.grant_threshold(record), ue.uid, ue))
        elif est.kind != "periodic":
            self.cells.setdefault((ue.pid, ue.t_ind), [0, 0])[ue.periodic] += 1
        # oracle-mode periodic devices need no lookup structure: the grant
        # decision falls out of exact knowledge of who is transmitting

    # ------------------------------------------------------------------
    # deliveries

    def _complete(self, done: list[_Ue], delivery_ms: float, signals: int) -> None:
        """Settle one slot's random-access successes, in order: each costs
        ``signals`` necessary signals and delivers its packet at
        ``delivery_ms``, then the packets it queued meanwhile over the new
        connection, which stays up for ``t_inactive``."""
        connected_until = delivery_ms + self.t_inactive
        for ue in done:
            cm = ue.cm
            cm.necessary += signals
            cm.add_ra_sample(delivery_ms - ue.trigger_arrival)
            if ue.queue:  # packets that arrived during the access
                for arrival in ue.queue:
                    connected = max(delivery_ms, arrival + self.t_up + self.half)
                    cm.add_connected_sample(connected - arrival)
                ue.queue.clear()
            ue.in_ra = False
            ue.attempt = 0
            ue.connected_until = connected_until

    def _class_slot(self, s: int, t_ind: int) -> int:
        """``core.next_tx_slot(s, t_p, t_ind)``, read from ``class_rows``."""
        r = s % core.FRAME_LEN
        return s - r + self.class_rows[t_ind][r]

    def _push_tx(self, ue: _Ue, slot: int) -> None:
        """Queue a preamble; beyond the horizon the packet stays pending."""
        if slot < self.n_slots:
            self.tx.setdefault(slot, []).append(ue)

    def _fail_packet(self, ue: _Ue, known_slot: int) -> None:
        """Attempt cap hit: drop the packet being served, serve the queue."""
        ue.cm.failed += 1
        if ue.queue:
            ue.trigger_arrival = ue.queue.pop(0)
            ue.attempt = 1
            if ue.twostep:
                known_slot = ue.first_slot = self._class_slot(known_slot, ue.t_ind)
            self._push_tx(ue, known_slot)
        else:
            ue.in_ra = False
            ue.attempt = 0

    # ------------------------------------------------------------------
    # per-slot event handlers

    def _handle_admin(self, events: list[tuple[str, _Ue]]) -> None:
        for kind, ue in events:
            if kind == "alloc":
                self._allocate(ue, ue.est.estimate)
            elif kind == "expiry":
                if ue.est is not None and ue.est.phase == "initial":
                    self._allocate(ue, self._classify(ue, timer_expired=True))

    def _handle_arrivals(self, due: list[_Ue], slot: int) -> None:
        """Serve the packets arriving in ``slot``, in order, and queue each
        device's next one; a next one in this slot joins ``due`` in turn."""
        t_tti, n_slots = self.t_tti, self.n_slots
        arrival = slot * t_tti + self.half
        # a two-step access starts in its class's first slot from slot + 1
        r = (slot + 1) % core.FRAME_LEN
        base, class_rows = slot + 1 - r, self.class_rows
        # deliveries over an established connection
        delivery = arrival + self.t_up + self.half
        connected = delivery - arrival
        connected_until = delivery + self.t_inactive
        arrivals, tx = self.arrivals, self.tx
        random, log = self._random, math.log
        for ue in due:
            cm = ue.cm
            cm.generated += 1
            # A device without a context is never in random access, so testing
            # in_ra first changes no outcome; a four-step device only ever
            # takes the in_ra, connected and new-access branches.
            if ue.in_ra:
                ue.queue.append(arrival)
            elif (ue.twostep and ue.record is None) or arrival <= ue.connected_until:
                # a two-step device without a context (observation phase, or
                # classified and waiting for its context) is still on its
                # initial connection
                cm.add_connected_sample(connected)
                ue.connected_until = connected_until
                if ue.est is not None and ue.est.phase == "initial":
                    self._observe(ue, delivery, slot)
            else:
                ue.in_ra = True
                ue.attempt = 1
                ue.trigger_arrival = arrival
                t = slot + 1
                if ue.twostep:
                    t = ue.first_slot = base + class_rows[ue.t_ind][r]
                # beyond the horizon the packet stays pending
                if t < n_slots:
                    tx.setdefault(t, []).append(ue)
            # next packet of this device's process
            if ue.periodic:
                ue.next_arrival_ms += ue.period_ms
            else:
                # Random.expovariate's own formula, without its call overhead
                ue.next_arrival_ms += -log(1.0 - random()) / ue.rate_per_ms
            t = int(ue.next_arrival_ms / t_tti)
            if t < n_slots:
                arrivals.setdefault(t, []).append(ue)

    def _observe(self, ue: _Ue, delivery: float, slot: int) -> None:
        """Record an initial-phase packet; classify once enough arrived."""
        sc = self.sc
        estimator.observe_uplink_packet(ue.est, delivery, sc.t_up_ms, self.t_tti)
        if ue.est.r >= sc.r_threshold:
            self._classify(ue)
            alloc_slot = math.ceil((delivery + sc.t_inactive_ms) / self.t_tti)
            self.admin.setdefault(max(alloc_slot, slot + 1), []).append(("alloc", ue))

    def _classify(self, ue: _Ue, timer_expired: bool = False) -> estimator.TrafficEstimate:
        """End an initial phase: classify the device and count the outcome."""
        sc = self.sc
        est = estimator.classify_traffic_type(
            ue.est, sc.r_threshold, sc.var_threshold, sc.t_p, self.t_tti,
            timer_expired=timer_expired,
        )
        true_kind = "periodic" if ue.periodic else "event"
        self.report.classification[f"{true_kind}_as_{est.kind}"] += 1
        return est

    def _retry_twostep(self, ue: _Ue, s: int) -> None:
        known = s + self.rar_expiry_slots
        if ue.attempt >= self.max_attempts:
            self._fail_packet(ue, known)
        else:
            ue.attempt += 1
            self._push_tx(ue, self._class_slot(known, ue.t_ind))

    def _handle_tx(self, txs: list[_Ue], s: int) -> None:
        two_groups: dict[int, list[_Ue]] = {}
        # four-step preamble index within the pool -> [detections,
        # (device, detected), ...]
        four_groups: dict[int, list] = {}
        perfect = self.perfect
        getrandbits, random = self._getrandbits, self._random
        n_cb, k = self.n_cb, self.cb_bits
        detect_prob = self.detect_prob
        for ue in txs:
            if ue.twostep:
                group = two_groups.get(ue.pid)
                if group is None:
                    two_groups[ue.pid] = [ue]
                else:
                    group.append(ue)
            else:
                # randrange(n_cb)
                preamble = getrandbits(k)
                while preamble >= n_cb:
                    preamble = getrandbits(k)
                detected = perfect or random() < detect_prob[ue.attempt]
                group = four_groups.get(preamble)
                if group is None:
                    four_groups[preamble] = [detected, (ue, detected)]
                else:
                    group[0] += detected
                    group.append((ue, detected))
        if two_groups:
            self._resolve_twostep(two_groups, s, perfect)
        done = []
        miss_known = s + self.rar_expiry_slots
        collision_known = s + self.conres_known_slots
        max_attempts, n_slots, tx = self.max_attempts, self.n_slots, self.tx
        backoff_n, backoff_bits = self.backoff_n, self.backoff_bits
        for group in four_groups.values():
            entries = iter(group)
            # a lone preamble cannot collide, whatever its detection
            collision = next(entries) >= 2
            for ue, detected in entries:
                cm = ue.cm
                if not detected:
                    cm.unnec_failed += 1
                    known = miss_known
                elif collision:
                    # preamble, response and resume request all wasted
                    cm.unnec_failed += 3
                    known = collision_known
                else:
                    done.append(ue)
                    continue
                if ue.attempt >= max_attempts:
                    self._fail_packet(ue, known)
                    continue
                ue.attempt += 1
                # randint(0, backoff_slots_max)
                backoff = getrandbits(backoff_bits)
                while backoff >= backoff_n:
                    backoff = getrandbits(backoff_bits)
                t = known + backoff
                if t < n_slots:
                    tx.setdefault(t, []).append(ue)
        if done:
            self._complete(done, s * self.t_tti + self.four_delivery_ms, 4)

    def _resolve_twostep(self, groups: dict[int, list[_Ue]], s: int, perfect: bool) -> None:
        t_tti = self.t_tti
        t_rar = (s + 1) * t_tti
        k = self.slot_class[s % core.FRAME_LEN]
        reserved = self.reserved_pid
        gated = self.mode == "on"
        cells, cell_cms = self.cells, self.cell_cms
        detect_prob = self.detect_prob
        done = []
        for pid, ues in groups.items():
            if perfect:
                detected = True
            else:
                load = 0
                for ue in ues:
                    load += ue.attempt
                detected = self._random() < (detect_prob[load] if load < len(detect_prob)
                                             else core.detection_prob(load))
            if not detected:
                for ue in ues:
                    ue.cm.unnec_failed += 1
                    self._retry_twostep(ue, s)
                continue
            if pid == reserved and gated:
                # The grant gate, one pass over class k's heap.  Every gated
                # device has exactly one entry on the heap of its class, so
                # the due ones, keyed by uid, are the devices granted now.  A
                # transmitter among them succeeds and gets a fresh entry; one
                # not among them has its response withheld; a due device
                # that did not transmit is granted for nothing and its entry
                # goes back unchanged.
                heap = self.pu_heaps[k]
                heappop, heappush = heapq.heappop, heapq.heappush
                observe, threshold = estimator.observe_twostep_attempt, protocol.grant_threshold
                due = {}
                while heap and heap[0][0] <= t_rar:
                    entry = heappop(heap)
                    due[entry[1]] = entry
                for ue in ues:
                    if due.pop(ue.uid, None) is None:
                        # response withheld by the grant rule; looks like a miss
                        ue.cm.unnec_failed += 1
                        self._retry_twostep(ue, s)
                        continue
                    # fit the first attempt's preamble time, which the
                    # device reports in the packet this grant carries: a
                    # retry's delay would drag the fit late
                    observe(ue.est, (ue.first_slot + 1) * t_tti)
                    record = ue.record
                    record.t0_last = record.estimate.anchor_ms
                    heappush(heap, (threshold(record), ue.uid, ue))
                    done.append(ue)
                for entry in due.values():
                    cm = entry[2].cm
                    cm.unnec_rar += 1
                    cm.unnec_grant += 1
                    heappush(heap, entry)
            elif pid != reserved:
                # Every member of event cell (pid, k) is granted, and every
                # transmitter here is one: the others get a response and a
                # grant for nothing.
                extras = cells[(pid, k)][:]
                for ue in ues:
                    extras[ue.periodic] -= 1
                for cm, n in zip(cell_cms, extras):
                    cm.unnec_rar += n
                    cm.unnec_grant += n
                done += ues
            else:
                # oracle mode ("off" registers none on the reserved pid):
                # exact schedule knowledge grants the transmitters only
                done += ues
        if done:
            self._complete(done, s * t_tti + self.two_delivery_ms, 2)

    # ------------------------------------------------------------------

    def run(self) -> MetricsReport:
        admin, arrivals, tx = self.admin, self.arrivals, self.tx
        handle_admin, handle_arrivals = self._handle_admin, self._handle_arrivals
        handle_tx = self._handle_tx
        for slot in range(self.n_slots):
            events = admin.pop(slot, None)
            if events is not None:
                handle_admin(events)
            due = arrivals.get(slot)
            if due is not None:
                # served in place: a next arrival in this slot joins `due`
                handle_arrivals(due, slot)
                del arrivals[slot]
            txs = tx.pop(slot, None)
            if txs is not None:
                handle_tx(txs, slot)
        self._finish()
        return self.report

    def _finish(self) -> None:
        for ue in self.ues:
            if ue.in_ra:
                ue.cm.pending += 1 + len(ue.queue)
            est = ue.est.estimate if ue.periodic and ue.est is not None else None
            if est is not None and est.kind == "periodic":
                self.report.period_estimates.append(est.period_ms)
                self.report.margin_estimates.append(est.margin_ms)
        self.report.registry_grew = self.registry.grew_capacity
        self.report.check_conservation()


def run_scenario(sc: Scenario, seed: int | None = None) -> MetricsReport:
    """Simulate one scenario with one seed and return its report."""
    return _Engine(sc, sc.seed if seed is None else seed).run()


def run_seeds(sc: Scenario, seeds) -> tuple[MetricsReport, list[MetricsReport]]:
    """Simulate one scenario once per seed, serially.

    Returns the reports pooled in seed order (``MetricsReport.merge``) and
    the per-seed reports.
    """
    per_seed = [run_scenario(sc, seed) for seed in seeds]
    pooled = MetricsReport()
    for rep in per_seed:
        pooled.merge(rep)
    return pooled, per_seed
