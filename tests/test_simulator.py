import dataclasses
import gc
import hashlib
import json
import math
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ralab import core, estimator, protocol
from ralab.metrics import MetricsReport
from ralab.scenario import (
    Scenario, ScenarioError, emit_scenario, parse_scenario, read_scenario,
)
from ralab.simulator import (
    _NO_QUEUE, MAX_WORK, _check_slot_counts, _Engine, _Ue, run_scenario, run_seeds,
)

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

MIXED = Scenario(
    duration_ms=5_000.0, n_cr=8, estimator_mode="on", detection="model",
    twostep_n_periodic=20, twostep_n_event=20, twostep_period_ms=50.0,
    fourstep_n_ue=50, fourstep_rate_per_s=2.0,
)


class TestDeterminism:
    def test_identical_inputs_identical_report(self):
        a = run_scenario(MIXED, seed=7)
        b = run_scenario(MIXED, seed=7)
        assert a.to_dict() == b.to_dict()
        # byte-for-byte once serialized
        assert json.dumps(a.to_dict(), sort_keys=True) == \
            json.dumps(b.to_dict(), sort_keys=True)

    def test_seed_changes_outcome(self):
        a = run_scenario(MIXED, seed=7)
        b = run_scenario(MIXED, seed=8)
        assert a.to_dict() != b.to_dict()


class TestRandomStream:
    """Seeded reports pinned by digest.

    Every random draw of a run (arrival gaps, four-step preambles,
    detection and backoff) feeds the report, so a change to any draw or to
    the order of draws changes these digests.
    """

    # name -> (scenario file or None for the defaults, fields set on it,
    #          seed, sha256 of the sorted-key JSON report)
    CASES = {
        # collisions, misses, backoff and the attempt cap
        "fourstep_backoff": (None, dict(
            duration_ms=3_000.0, detection="model", n_cr=4, n_total=15,
            fourstep_n_ue=100, fourstep_rate_per_s=5.0, max_attempts=3,
        ), 3, "73d1d3be79f2c24f175a92b30336466e0ef00551fb85ac91391d3e544f97dfd5"),
        # estimator on, gated grants; a 47 ms period gives non-zero margins
        "smart_factory_mix": ("smart_factory_mix.scn", dict(
            duration_ms=3_000.0, twostep_period_ms=47.0,
        ), 1, "76bb3ec734dd7c569f96fec32bb9979177e590168c1d5a2f2f121c20ea4f3f96"),
        # periods off the 0.5 ms slot grid: no window fit locks, so every
        # update on a full window refits
        "smart_factory_mix_77_3ms": ("smart_factory_mix.scn", dict(
            duration_ms=3_000.0, twostep_period_ms=77.3,
        ), 1, "aed98c96407efa2f247773bc87c8b1c26eb61070c2e28c0862893df4c56b61e8"),
        "smart_factory_mix_99_7ms": ("smart_factory_mix.scn", dict(
            duration_ms=3_000.0, twostep_period_ms=99.7,
        ), 1, "74e59abfd87f1b17d7bb57abd9953315b4c986caad403a301b75d8562b057861"),
        # perfect detection: four-step collisions are the only failures
        "mixed_perfect": (None, dict(
            duration_ms=2_000.0, n_total=24, n_cr=8, estimator_mode="on",
            detection="perfect", twostep_n_periodic=20, twostep_n_event=20,
            twostep_period_ms=50.0, fourstep_n_ue=200, fourstep_rate_per_s=5.0,
        ), 7, "582e0560c67467ecda6e0a772213ed5207040e78ced841d2850bec104821e7e4"),
        # 50 ms periods, model detection and gated grants: the estimator's
        # exact-lattice updates run alongside retries, which it learns from
        # by their first-attempt slots
        "estimator_benefit": ("estimator_benefit.scn", dict(
            duration_ms=3_000.0,
        ), 9, "001c9d13339b12f4fdb469f0030f10b3717700387a9995f5545151340a6124a1"),
        # the same run on the 0.25 ms and 1 ms slot grids
        "estimator_benefit_quarter_ms": ("estimator_benefit.scn", dict(
            duration_ms=3_000.0, t_tti_ms=0.25, t_p=2, r_threshold=9,
        ), 9, "54c4cea48b88cae36cdbcaca679a7531cf3312effb9e53a6e7dc67ab0ce2f1f5"),
        "estimator_benefit_one_ms": ("estimator_benefit.scn", dict(
            duration_ms=3_000.0, t_tti_ms=1.0, t_p=1,
        ), 9, "fbba2e55d5b3fdc0b846b772efeab9ea98ed9e47e67fec297201baeba0581951"),
        # the two-step resolve's other grant modes: exact schedule knowledge,
        # and every device served as event traffic
        "smart_factory_oracle": ("smart_factory_mix.scn", dict(
            duration_ms=3_000.0, estimator_mode="oracle",
        ), 1, "5ccc5d7b2f4accc5d659d9c3b3f1b5ff30f20c9d5be701e5b495f2feda3825fc"),
        "smart_factory_off": ("smart_factory_mix.scn", dict(
            duration_ms=3_000.0, estimator_mode="off",
        ), 1, "1b34ef94be2ac48c705e96660100b8c4036e99432eac97e7d452ed8417939652"),
        # four-step gaps of ~20 s on a 0.125 ms grid: many next arrivals are
        # queued some 160 000 slots ahead, and many fall beyond the run
        "fourstep_far_arrivals": (None, dict(
            duration_ms=10_000.0, t_tti_ms=0.125, n_cr=4, n_total=30,
            fourstep_n_ue=200, fourstep_rate_per_s=0.05, max_attempts=3,
        ), 3, "d16dadccb7734e261dafcc83a3121c39fc86af76ea8f2547a74cbe5a878851a8"),
        # a backoff of up to 80 000 slots: retries are queued far ahead,
        # and some beyond the run, where the packet stays pending
        "fourstep_long_backoff": (None, dict(
            duration_ms=12_000.0, t_tti_ms=0.125, n_cr=4, n_total=20,
            fourstep_n_ue=60, fourstep_rate_per_s=2.0, backoff_avg_ms=5_000.0,
            max_attempts=4,
        ), 3, "b77fad40ae53c4a4c891a8fd418804f351049b662cd7411dc7b375166181d18f"),
        # 0.9 packets per 1 ms slot and device: next arrivals often land in
        # the slot being handled
        "same_slot_arrivals": (None, dict(
            duration_ms=2_000.0, t_tti_ms=1.0, t_p=1, n_cr=6, n_total=20,
            estimator_mode="off", twostep_n_event=10,
            twostep_event_rate_per_s=900.0, fourstep_n_ue=10,
            fourstep_rate_per_s=900.0,
        ), 3, "56f5c72e1471097c08e098cdd34b5872a9d6831bae8851e131c85fc0a34820f2"),
        # the 24 000-device scenario of the paper
        "full_scale": ("full_scale.scn", dict(
            duration_ms=1_000.0,
        ), 3, "d82b001c745bd3216cb64b1929b82fddc9c68cac5458e386ae70f166396560f2"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_report_digest(self, name):
        path, fields, seed, want = self.CASES[name]
        base = read_scenario(SCENARIOS / path) if path else Scenario()
        report = run_scenario(dataclasses.replace(base, **fields), seed)
        text = json.dumps(report.to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want


class TestEventTables:
    def test_memory_does_not_grow_with_duration(self):
        # built, not run: 10**8 slots of an empty cell hold no entry
        sc = Scenario(duration_ms=5e7, n_total=1, n_cf=0, n_cr=0)
        assert sc.duration_slots == 10**8
        eng = _Engine(sc, seed=1)
        assert eng.arrivals == {}
        assert eng.tx == {}

    @pytest.mark.parametrize("name", ["same_slot_arrivals", "fourstep_long_backoff"])
    def test_tables_empty_after_run(self, name):
        # nothing is queued at or past n_slots, and every slot's list is
        # served and removed, next arrivals in the slot being served included
        _, fields, seed, _ = TestRandomStream.CASES[name]
        eng = _Engine(dataclasses.replace(Scenario(), **fields), seed)
        eng.run()
        for table in ("arrivals", "tx"):
            left = getattr(eng, table)
            assert not left, (f"{table} still holds {sum(map(len, left.values()))} "
                              f"entries, in slots {sorted(left)[:5]} of {eng.n_slots}")


class TestConservation:
    @pytest.mark.parametrize("sc", [
        MIXED,
        Scenario(duration_ms=3_000.0, estimator_mode="off", detection="model",
                 n_cr=4, twostep_n_event=30),
        Scenario(duration_ms=3_000.0, detection="model", n_cr=4, n_total=15,
                 fourstep_n_ue=100, fourstep_rate_per_s=5.0, max_attempts=2),
    ])
    def test_packets_conserved(self, sc):
        report = run_scenario(sc, seed=3)
        for name, cm in report.classes.items():
            cm.check_conservation()
            assert cm.generated == cm.delivered + cm.failed + cm.pending, name


class TestLatencyFloors:
    def test_floors_under_contention(self):
        report = run_scenario(MIXED, seed=11)
        two = (report.classes["twostep_periodic"].ra_latency
               + report.classes["twostep_event"].ra_latency)
        assert two and min(two) >= 6.5
        four = report.classes["fourstep"].ra_latency
        assert four and min(four) >= 11.5

    @pytest.mark.parametrize("t_up", [0.0, 1.5, 6.0])
    def test_ra_floor_follows_t_up(self, t_up):
        # criterion 1's single-device runs: every error-free access takes
        # its procedure's fixed budget (3.5 or 8.5 ms) plus the uplink time
        two = Scenario(duration_ms=10_000.0, t_p=1, estimator_mode="oracle",
                       detection="perfect", twostep_n_periodic=1,
                       twostep_period_ms=50.0, t_up_ms=t_up)
        four = Scenario(duration_ms=10_000.0, estimator_mode="off",
                        detection="perfect", fourstep_n_ue=1,
                        fourstep_rate_per_s=0.5, t_up_ms=t_up)
        two_ra = run_scenario(two, seed=3).classes["twostep_periodic"].ra_latency
        four_ra = run_scenario(four, seed=3).classes["fourstep"].ra_latency
        assert set(two_ra) == {3.5 + t_up}
        assert set(four_ra) == {8.5 + t_up}

    def test_connected_floor(self):
        # established-connection deliveries take t_up + half a slot
        report = run_scenario(MIXED, seed=11)
        for cm in report.classes.values():
            if cm.connected_latency:
                assert min(cm.connected_latency) >= 3.25


class TestSlotDiscipline:
    def test_twostep_transmissions_respect_allowed_slots(self, monkeypatch):
        """Every two-step preamble (retries included) lands in the device's
        slot class, and no device sends twice in one slot."""
        seen: list[tuple[int, int, int]] = []
        orig = _Engine._handle_tx

        def spy(self, txs, s):
            for ue in txs:
                if ue.twostep:
                    seen.append((ue.uid, ue.t_ind, s))
            return orig(self, txs, s)

        monkeypatch.setattr(_Engine, "_handle_tx", spy)
        sc = Scenario(duration_ms=4_000.0, n_cr=6, estimator_mode="oracle",
                      detection="model", t_p=3, twostep_n_periodic=10,
                      twostep_n_event=10)
        run_scenario(sc, seed=5)
        assert seen
        per_slot = set()
        for uid, t_ind, s in seen:
            assert core.SLOT_CLASS[3][s % core.FRAME_LEN] == t_ind
            assert (uid, s) not in per_slot, "device sent twice in one slot"
            per_slot.add((uid, s))

    @pytest.mark.parametrize("t_p", [1, 2, 3])
    def test_next_slot_choice_matches_core(self, t_p):
        """The slot a two-step access starts or retries in, read from the
        engine's per-class rows, is core.next_tx_slot's, for every class
        and every slot of three frames."""
        eng = _Engine(Scenario(duration_ms=100.0, t_p=t_p, r_threshold=11, estimator_mode="off"),
                      seed=1)
        cm = eng.cm["twostep_event"]
        for t_ind in range(1, t_p + 1):
            for s in range(3 * core.FRAME_LEN):
                want = core.next_tx_slot(s, t_p, t_ind)
                # a retry, or the next packet after a failed one
                assert eng._class_slot(s, t_ind) == want
                if s == 0:
                    continue
                # a new access by a packet that arrives in slot s - 1
                ue = _Ue(0, "event", "twostep", cm)
                ue.rate_per_ms = 1e-3
                ue.pid = 0  # any pid >= 0: the device has a context
                ue.t_ind = t_ind
                eng._handle_arrivals([ue], s - 1)
                assert ue.in_ra and ue.first_slot == want

    def test_fourstep_attempts_capped(self, monkeypatch):
        cap = 3
        attempts_seen: list[int] = []
        orig = _Engine._handle_tx

        def spy(self, txs, s):
            attempts_seen.extend(
                ue.attempt for ue in txs if not ue.twostep
            )
            return orig(self, txs, s)

        monkeypatch.setattr(_Engine, "_handle_tx", spy)
        sc = Scenario(duration_ms=3_000.0, detection="model", n_cr=4, n_total=15,
                      fourstep_n_ue=100, fourstep_rate_per_s=5.0,
                      max_attempts=cap)
        report = run_scenario(sc, seed=9)
        assert attempts_seen and max(attempts_seen) == cap
        assert report.classes["fourstep"].failed > 0  # cap actually bites


class TestShortlistMatchesEventCells:
    """The engine grants event cells from per-class member counts, never
    calling ``protocol.filter_candidates``; both must name the same
    devices, so criterion 2's worked example speaks for the simulator."""

    @pytest.mark.parametrize("mode,t_p", [("on", 3), ("on", 2), ("off", 3), ("off", 1)])
    def test_cell_counts_equal_shortlist_classes(self, mode, t_p, monkeypatch):
        # context id -> whether the device that holds it is periodic: an
        # allocation appends its id to its cell last
        periodic = {}
        allocate = _Engine._allocate

        def spy(self, ue, kind, preferred_offset):
            allocate(self, ue, kind, preferred_offset)
            periodic[self.registry.ids_for_cell(ue.pid, ue.t_ind)[-1]] = ue.periodic

        monkeypatch.setattr(_Engine, "_allocate", spy)
        sc = Scenario(duration_ms=6_000.0, t_p=t_p, n_cr=5, estimator_mode=mode,
                      detection="model", r_threshold=9, twostep_n_periodic=20,
                      twostep_n_event=21)  # 21 cannot fill the cells evenly
        eng = _Engine(sc, seed=7)
        eng.run()
        assert periodic.keys() == eng.registry.ids
        assert eng.cells and all(key[0] != eng.reserved_pid for key in eng.cells)
        for pid in eng.registry.event_pids():
            for fs in range(core.FRAME_LEN):
                k = core.SLOT_CLASS[t_p][fs]
                shortlist = [0, 0]  # [event, periodic], as the engine counts
                for id_ in protocol.filter_candidates(eng.registry, pid, 1230 + fs):
                    shortlist[periodic[id_]] += 1
                assert shortlist == eng.cells.get((pid, k), [0, 0]), (pid, fs)
        # "off" registers every periodic device in an event cell as well
        assert any(counts[mode == "off"] for counts in eng.cells.values())


class TestWorkedExample:
    """Two same-cell devices transmit the same slot; a third sits idle."""

    def make_engine(self):
        sc = Scenario(duration_ms=100.0, n_cr=2, t_p=1, estimator_mode="oracle",
                      detection="perfect", twostep_n_event=3,
                      twostep_event_rate_per_s=0.001)
        return _Engine(sc, seed=1)

    def test_both_succeed_and_idle_candidate_costs_a_grant(self):
        eng = self.make_engine()
        a, b, idle = eng.ues
        # all three share the one event cell
        assert a.pid == b.pid == idle.pid
        assert a.t_ind == b.t_ind == idle.t_ind
        s = 40
        for ue, arrival in ((a, 19.25), (b, 19.75)):
            ue.in_ra = True
            ue.attempt = 1
            ue.trigger_arrival = arrival
        eng._handle_tx([a, b], s)

        cm = eng.cm["twostep_event"]
        # both transmitters delivered by individually scrambled responses
        assert cm.delivered == 2
        delivery = s * eng.t_tti + 6.25
        assert cm.ra_latency == {delivery - 19.25: 1, delivery - 19.75: 1}
        assert cm.necessary == 4  # 2 signals per success
        # the idle candidate was granted too: one response + one grant wasted
        assert cm.unnec_rar == 1
        assert cm.unnec_grant == 1
        assert cm.unnec_failed == 0

    def test_sole_candidate_costs_nothing_extra(self):
        eng = self.make_engine()
        a, b, idle = eng.ues
        a.in_ra = True
        a.attempt = 1
        a.trigger_arrival = 19.25
        eng._handle_tx([a], 40)
        cm = eng.cm["twostep_event"]
        assert cm.delivered == 1
        assert cm.necessary == 2
        # b and idle were granted without transmitting
        assert cm.unnec_rar == 2
        assert cm.unnec_grant == 2


class TestCompletionRule:
    """Every random-access success ends the same way: its packet is
    delivered, the packets that queued during the access follow over the
    new connection, and the device stays connected for t_inactive."""

    def one_device(self, path):
        """An engine whose one device succeeds when it transmits alone, on
        ``path``, and the necessary signals that success costs."""
        if path == "fourstep":
            # the device's first arrival, 144 s in, falls inside the run, so
            # the device is built
            sc = Scenario(duration_ms=1e6, detection="perfect", fourstep_n_ue=1,
                          fourstep_rate_per_s=0.001)
            eng = _Engine(sc, seed=1)
            return eng, eng.ues[0], 4
        mode = "on" if path == "gated" else "oracle"
        kind = "twostep_n_event" if path == "event_cell" else "twostep_n_periodic"
        sc = Scenario(duration_ms=100.0, n_cr=2, t_p=1, estimator_mode=mode,
                      detection="perfect", twostep_period_ms=50.0,
                      twostep_event_rate_per_s=0.001, **{kind: 1})
        eng = _Engine(sc, seed=1)
        ue = eng.ues[0]
        if path == "gated":
            # an exactly periodic observation phase classifies it periodic
            for i in range(sc.r_threshold):
                estimator.observe_uplink_packet(ue.est, 10.0 + 50.0 * i, sc.t_up_ms, eng.t_tti)
            est = estimator.classify_traffic_type(
                ue.est, sc.r_threshold, sc.var_threshold, sc.t_p, eng.t_tti)
            eng._allocate(ue, est.kind, est.preferred_offset)
            assert eng.pu_heaps[ue.t_ind][0][2] is ue
        assert (ue.pid == eng.reserved_pid) == (path != "event_cell")
        return eng, ue, 2

    @pytest.mark.parametrize("path", ["fourstep", "gated", "event_cell", "oracle"])
    def test_queued_packets_follow_the_access(self, path):
        eng, ue, signals = self.one_device(path)
        s = 40
        budget = core.CP_FOURSTEP_MS if signals == 4 else core.CP_TWOSTEP_MS
        delivery = s * eng.t_tti + budget + eng.t_up - eng.t_tti / 2
        trigger = s * eng.t_tti - 9.75
        # one packet queued early in the access, and one so late that its
        # own uplink ends after the delivery
        queue = [trigger + 2.5, delivery - eng.t_up]
        ue.in_ra = True
        ue.attempt = 2
        ue.trigger_arrival = trigger
        ue.first_slot = s
        ue.queue = list(queue)
        cm = ue.cm
        necessary = cm.necessary
        eng._handle_tx([ue], s)

        assert cm.ra_latency == {delivery - trigger: 1}
        assert cm.connected_latency == Counter(
            max(delivery, arrival + eng.t_up + eng.t_tti / 2) - arrival for arrival in queue)
        assert len(cm.connected_latency) == 2  # both arms of the max
        assert ue.connected_until == delivery + eng.t_inactive
        assert not ue.in_ra
        assert ue.attempt == 0
        assert ue.queue == []
        assert cm.necessary - necessary == signals


class TestArrivalGap:
    @pytest.mark.parametrize("fields, key", [
        (dict(twostep_n_event=1, twostep_event_rate_per_s=1e308), "twostep_event_rate_per_s"),
        (dict(twostep_n_periodic=1, twostep_period_ms=1e-300), "twostep_period_ms"),
        (dict(fourstep_n_ue=1, fourstep_rate_per_s=1e308), "fourstep_rate_per_s"),
        # one slot that every arrival of the run maps to
        (dict(t_tti_ms=1e308, duration_ms=1e308, fourstep_n_ue=1), "fourstep_rate_per_s"),
    ], ids=["event_rate", "period", "fourstep_rate", "one_slot"])
    def test_clock_that_cannot_advance_is_refused(self, fields, key):
        sc = Scenario(**{"duration_ms": 200.0, "n_cr": 2, **fields})
        with pytest.raises(ScenarioError, match=f"^{key} = .* over the cap of 1e\\+09$"):
            _Engine(sc, 1)


class TestWorkBound:
    """A run whose expected slots plus arrivals exceed MAX_WORK is refused
    before anything is built, naming the key behind the largest term."""

    @pytest.mark.parametrize("fields, key", [
        (dict(duration_ms=200.0, fourstep_n_ue=1, fourstep_rate_per_s=1e16),
         "fourstep_rate_per_s"),
        (dict(duration_ms=200.0, twostep_n_event=1, twostep_event_rate_per_s=1e16),
         "twostep_event_rate_per_s"),
        (dict(duration_ms=200.0, twostep_n_periodic=1000, twostep_period_ms=1e-6),
         "twostep_period_ms"),
        (dict(t_tti_ms=1.0, duration_ms=1e308), "duration_ms"),
        (dict(t_tti_ms=1.0, duration_ms=1e12, twostep_n_periodic=1), "duration_ms"),
    ], ids=["fourstep_rate", "event_rate", "period", "empty_slots", "one_device"])
    def test_work_over_the_cap_is_refused(self, fields, key):
        sc = Scenario(**{"n_cr": 2, **fields})
        with pytest.raises(ScenarioError, match=f"^{key} = .* over the cap of 1e\\+09$"):
            _Engine(sc, 1)

    def test_cap_is_inclusive(self):
        # slots alone, no device: exactly MAX_WORK builds, twice it does not
        empty = Scenario(t_tti_ms=1.0, n_total=1, n_cf=0, n_cr=0)
        _check_slot_counts(dataclasses.replace(empty, duration_ms=MAX_WORK))
        with pytest.raises(ScenarioError, match="^duration_ms = "):
            _check_slot_counts(dataclasses.replace(empty, duration_ms=2 * MAX_WORK))

    @pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.scn")), ids=lambda p: p.stem)
    def test_every_scenario_file_is_under_the_cap(self, path):
        _check_slot_counts(read_scenario(path))


class TestCollectorPause:
    """Building the population pauses the cyclic collector and restores
    the caller's setting."""

    SC = Scenario(duration_ms=100.0, n_cr=4, twostep_n_periodic=2, twostep_n_event=2,
                  fourstep_n_ue=5)

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        """The collector's setting at the test's start; restored after it."""
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_caller_setting_is_restored(self, collector):
        _Engine(self.SC, 1)
        assert gc.isenabled() is collector

    def test_setting_is_restored_when_the_build_raises(self, collector, monkeypatch):
        def fail(engine, ue):
            raise RuntimeError("no context")

        monkeypatch.setattr(_Engine, "_setup_twostep", fail)
        with pytest.raises(RuntimeError, match="no context"):
            _Engine(self.SC, 1)
        assert gc.isenabled() is collector

    def test_no_collection_while_24k_devices_are_built(self, monkeypatch):
        # every four-step first arrival falls inside 1000 s, so all are built
        sc = dataclasses.replace(read_scenario(SCENARIOS / "full_scale.scn"),
                                 duration_ms=1e6)
        assert sc.twostep_n_periodic + sc.twostep_n_event + sc.fourstep_n_ue == 24_000
        building = False
        generations = []

        def hook(phase, info):
            if phase == "start" and building:
                generations.append(info["generation"])

        build = _Engine._build_population

        def watched(engine):
            nonlocal building
            building = True
            try:
                build(engine)
            finally:
                building = False

        monkeypatch.setattr(_Engine, "_build_population", watched)
        was = gc.isenabled()
        gc.enable()
        gc.callbacks.append(hook)
        try:
            eng = _Engine(sc, 1)
        finally:
            gc.callbacks.remove(hook)
            if not was:
                gc.disable()
        assert len(eng.ues) == 24_000
        assert generations == []


class TestFourStepRecord:
    """A four-step device carries only the state the four-step path reads."""

    def test_fourstep_device_lacks_the_twostep_slots(self):
        # long enough for the four-step device's first arrival to be built
        sc = Scenario(duration_ms=1e6, n_cr=4, twostep_n_event=1, fourstep_n_ue=1)
        two, four = _Engine(sc, 1).ues
        for name in ("uid", "pid", "t_ind", "period_ms"):
            assert hasattr(two, name), name
            assert not hasattr(four, name), name

    def test_fourstep_run_fails_queues_and_reconnects(self, monkeypatch):
        # one attempt per packet and a missed preamble about one time in
        # three: packets that queue during an access are served after its
        # failure, and a 50 ms connection carries most later packets
        sc = Scenario(duration_ms=3_000.0, detection="model", n_cr=4, fourstep_n_ue=20,
                      fourstep_rate_per_s=50.0, max_attempts=1, t_inactive_ms=50.0)
        queued_at_failure = []
        queued_at_success = 0
        fail, complete = _Engine._fail_packet, _Engine._complete

        def watched_fail(engine, ue, known_slot):
            queued_at_failure.append(len(ue.queue))
            fail(engine, ue, known_slot)

        def watched_complete(engine, done, delivery_ms, signals):
            nonlocal queued_at_success
            queued_at_success += sum(len(ue.queue) for ue in done)
            complete(engine, done, delivery_ms, signals)

        monkeypatch.setattr(_Engine, "_fail_packet", watched_fail)
        monkeypatch.setattr(_Engine, "_complete", watched_complete)
        cm = run_scenario(sc, 5).classes["fourstep"]

        assert max(queued_at_failure) > 0
        # connected deliveries beyond the packets that queued for an access
        # went over an established connection
        assert sum(cm.connected_latency.values()) > queued_at_success
        assert cm.failed == len(queued_at_failure)
        assert cm.generated == cm.delivered + cm.failed + cm.pending


class TestReachablePopulation:
    """The engine builds every two-step device and each four-step device
    whose first arrival falls inside the run; a device starts on a shared
    empty queue."""

    def engines(self, seed):
        """Engines of ``full_scale.scn`` over one slot and over 10**6 ms."""
        full = read_scenario(SCENARIOS / "full_scale.scn")
        one_slot = dataclasses.replace(full, duration_ms=full.t_tti_ms)
        assert one_slot.duration_slots == 1
        return (_Engine(one_slot, seed),
                _Engine(dataclasses.replace(full, duration_ms=1e6), seed))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_draw_per_device_whatever_the_horizon(self, seed):
        short, long = self.engines(seed)
        assert short.rng.getstate() == long.rng.getstate()

    @pytest.mark.parametrize("seed", [1, 2])
    def test_one_slot_builds_twostep_and_slot_0_fourstep_devices(self, seed):
        short, long = self.engines(seed)
        assert len(long.ues) == 24_000
        n_twostep = short.sc.twostep_n_periodic + short.sc.twostep_n_event
        assert sum(ue.twostep for ue in short.ues) == n_twostep
        in_slot_0 = [ue.next_arrival_ms for ue in long.ues
                     if not ue.twostep and int(ue.next_arrival_ms / long.t_tti) == 0]
        built = [ue.next_arrival_ms for ue in short.ues if not ue.twostep]
        assert built == in_slot_0
        assert 0 < len(built) < 50
        assert short.arrivals[0][-len(built):] == short.ues[n_twostep:]

    @given(seed=st.integers(min_value=0, max_value=2**32),
           t_tti=st.sampled_from([0.125, 0.25, 0.5, 1.0]),
           rate=st.floats(min_value=0.01, max_value=1e4),
           k=st.integers(min_value=0, max_value=199), inside=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_built_fourstep_devices_match_the_exact_test(self, seed, t_tti, rate, k, inside):
        # the horizon ends just before device k's first-arrival slot, or
        # just after it: the built devices are those int(first / t_tti) <
        # n_slots picks, in order, and the stream ends where 200 draws leave it
        rng = Random(seed)
        firsts = [-math.log(1.0 - rng.random()) / (rate / 1000.0) for _ in range(200)]
        n_slots = max(1, int(firsts[k] / t_tti) + inside)
        sc = Scenario(duration_ms=n_slots * t_tti, t_tti_ms=t_tti, fourstep_n_ue=200,
                      fourstep_rate_per_s=rate)
        eng = _Engine(sc, seed)
        assert eng.n_slots == n_slots
        assert [ue.next_arrival_ms for ue in eng.ues] == \
            [first for first in firsts if int(first / t_tti) < n_slots]
        assert eng.rng.getstate() == rng.getstate()

    def test_queued_packet_makes_a_list(self):
        sc = Scenario(duration_ms=1e6, detection="perfect", fourstep_n_ue=2)
        eng = _Engine(sc, 1)
        ue, idle = eng.ues
        assert ue.queue is _NO_QUEUE and idle.queue is _NO_QUEUE
        ue.in_ra = True
        eng._handle_arrivals([ue], 10)
        first = ue.queue
        assert type(first) is list and first == [10 * eng.t_tti + eng.t_tti / 2]
        eng._handle_arrivals([ue], 11)
        assert ue.queue is first and len(first) == 2
        assert idle.queue is _NO_QUEUE
        assert _NO_QUEUE == ()

    def test_run_leaves_the_shared_queue_empty(self):
        # packets queue during accesses (see TestFourStepRecord): each
        # device that queued one holds a list of its own
        sc = Scenario(duration_ms=3_000.0, detection="model", n_cr=4, fourstep_n_ue=20,
                      fourstep_rate_per_s=50.0, max_attempts=1, t_inactive_ms=50.0,
                      twostep_n_event=5, twostep_event_rate_per_s=0.5)
        eng = _Engine(sc, 5)
        eng.run()
        queues = [ue.queue for ue in eng.ues]
        assert any(type(q) is list for q in queues)
        assert any(q is _NO_QUEUE for q in queues)
        assert all(type(q) is list or q is _NO_QUEUE for q in queues)
        assert _NO_QUEUE == ()


class TestGrantGate:
    def test_heap_thresholds_follow_grant_threshold(self):
        """The gated heap orders devices by protocol.grant_threshold and
        holds one entry per periodic-classified device."""
        # a period off the 5 ms frame grid, so the fitted margins are not 0
        sc = dataclasses.replace(read_scenario(SCENARIOS / "smart_factory_mix.scn"),
                                 duration_ms=5_000.0, twostep_period_ms=47.0)
        eng = _Engine(sc, seed=1)
        eng.run()
        entries = [(threshold, ue) for heap in eng.pu_heaps.values()
                   for threshold, _, ue in heap]
        assert any(math.isfinite(threshold) for threshold, _ in entries)
        assert any(ue.est.estimate.margin_ms > 0 for _, ue in entries)
        for threshold, ue in entries:
            assert threshold == protocol.grant_threshold(ue.est)
        uids = sorted(ue.uid for _, ue in entries)
        periodic = [ue.uid for ue in eng.ues
                    if ue.pid >= 0 and ue.est.estimate.kind == "periodic"]
        assert uids == periodic
        classification = eng.report.classification
        assert len(uids) == (classification["periodic_as_periodic"]
                             + classification["event_as_periodic"]) > 0


class TestUncontendedFourStep:
    def test_large_pool_small_population_hits_floor(self):
        # no collisions and no misses: every sample is exactly the floor
        sc = Scenario(duration_ms=60_000.0, detection="perfect", n_cr=4,
                      fourstep_n_ue=3, fourstep_rate_per_s=1.0)
        assert sc.n_cb == 50
        report = run_scenario(sc, seed=2)
        cm = report.classes["fourstep"]
        assert cm.delivered > 100
        assert set(cm.ra_latency) == {11.5}
        assert cm.unnec_failed == 0


class TestOracleModePeriodic:
    def test_oracle_grants_without_extras(self):
        sc = Scenario(duration_ms=10_000.0, n_cr=6, estimator_mode="oracle",
                      detection="perfect", twostep_n_periodic=30,
                      twostep_period_ms=50.0)
        report = run_scenario(sc, seed=4)
        cm = report.classes["twostep_periodic"]
        assert cm.failed == 0
        assert cm.unnec_rar == 0
        assert cm.unnec_grant == 0
        assert cm.unnec_failed == 0
        assert cm.necessary == 2 * sum(cm.ra_latency.values())


class TestSeedPooling:
    def test_merge_of_real_runs_is_order_independent(self):
        runs = [run_scenario(MIXED, seed=s) for s in (1, 2, 3)]

        def pooled(order):
            out = MetricsReport()
            for idx in order:
                out.merge(runs[idx])
            d = out.to_dict()
            d["seeds"] = sorted(d["seeds"])
            d["period_estimates"] = sorted(d["period_estimates"])
            d["margin_estimates"] = sorted(d["margin_estimates"])
            return d

        assert pooled([0, 1, 2]) == pooled([2, 1, 0])

    def test_run_seeds_merges_in_seed_order(self):
        sc = dataclasses.replace(MIXED, duration_ms=1_000.0)
        pooled, per_seed = run_seeds(sc, [2, 1])
        assert [rep.seeds for rep in per_seed] == [(2,), (1,)]
        want = MetricsReport()
        for seed in (2, 1):
            want.merge(run_scenario(sc, seed))
        assert pooled.to_dict() == want.to_dict()


@st.composite
def valid_scenarios(draw):
    """Small valid scenarios, biased toward the edge shapes of the model."""
    t_p = draw(st.sampled_from([1, 2, 3]))
    r_threshold = draw(st.integers(min_value=2, max_value=6))
    if t_p == 2 and r_threshold % 2 == 0:
        r_threshold += 1
    mode = draw(st.sampled_from(["on", "off", "oracle"]))
    n_periodic = draw(st.integers(min_value=0, max_value=12))
    n_event = draw(st.integers(min_value=0, max_value=12))
    # n_cr = 0 leaves no two-step preambles, so no two-step devices; only
    # oracle mode can serve periodic devices without an event preamble
    if draw(st.booleans()):
        n_cr, n_periodic, n_event = 0, 0, 0
    elif n_event > 0 or mode in ("off", "on"):
        n_cr = draw(st.integers(min_value=2, max_value=6))
    else:
        n_cr = draw(st.integers(min_value=1, max_value=6))
    fourstep_n_ue = draw(st.integers(min_value=0, max_value=20))
    n_cf = draw(st.integers(min_value=0, max_value=10))
    return Scenario(
        duration_ms=draw(st.sampled_from([250.0, 1_000.0, 2_000.0])),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        t_tti_ms=draw(st.sampled_from([0.125, 0.25, 0.5, 1.0])),
        t_p=t_p,
        # the pool needs one preamble even when no device uses it
        n_total=draw(st.integers(min_value=max(1, n_cf + n_cr + min(fourstep_n_ue, 1)),
                                 max_value=64)),
        n_cf=n_cf,
        n_cr=n_cr,
        estimator_mode=mode,
        detection=draw(st.sampled_from(["model", "perfect"])),
        ids_per_cell=draw(st.integers(min_value=1, max_value=3)),
        max_attempts=draw(st.integers(min_value=1, max_value=4)),
        rar_window_ms=draw(st.sampled_from([0.0, 1.0, 2.5])),
        backoff_avg_ms=draw(st.sampled_from([0.0, 2.5, 5.0])),
        conres_timer_ms=draw(st.sampled_from([0.0, 8.0, 24.0])),
        t_inactive_ms=draw(st.sampled_from([0.0, 5.0, 20.0])),
        t_initial_ms=draw(st.sampled_from([50.0, 400.0, 5_000.0])),
        t_up_ms=draw(st.sampled_from([0.0, 1.5, 3.0])),
        r_threshold=r_threshold,
        var_threshold=draw(st.sampled_from([0.1, 10.0])),
        twostep_n_periodic=n_periodic,
        twostep_n_event=n_event,
        twostep_period_ms=draw(st.sampled_from([5.0, 20.0, 47.0, 50.0])),
        twostep_event_rate_per_s=draw(st.floats(min_value=1.0, max_value=200.0)),
        fourstep_n_ue=fourstep_n_ue,
        fourstep_rate_per_s=draw(st.floats(min_value=1.0, max_value=200.0)),
    )


class TestAnyValidScenario:
    @given(sc=valid_scenarios())
    # The observation timer expires before the second packet, so the
    # periodic device is served as event traffic (at n_cr = 1 this used to
    # end in AllocationError, and the scenario is now rejected).
    @example(sc=Scenario(duration_ms=250.0, seed=0, n_cr=2, estimator_mode="on",
                         t_initial_ms=50.0, r_threshold=2, twostep_n_periodic=1,
                         twostep_period_ms=47.0))
    # An event device classified periodic from two packets: accesses closer
    # than half its estimated period once shared a tick, and the two-sample
    # window could not be refit.
    @example(sc=Scenario(duration_ms=250.0, seed=9, t_tti_ms=0.125, t_p=1, n_total=2,
                         n_cf=0, n_cr=2, ids_per_cell=1, max_attempts=4,
                         backoff_avg_ms=0.0, conres_timer_ms=0.0, t_inactive_ms=0.0,
                         t_initial_ms=50.0, t_up_ms=0.0, r_threshold=2,
                         twostep_n_event=1, twostep_period_ms=5.0,
                         twostep_event_rate_per_s=42.0, fourstep_rate_per_s=1.0))
    # No device at all: the smallest pool a scenario accepts.
    @example(sc=Scenario(duration_ms=250.0, seed=0, n_total=1, n_cf=0, n_cr=0))
    @settings(max_examples=200, deadline=None)
    def test_round_trips_runs_conserves_and_repeats(self, sc):
        again = parse_scenario(emit_scenario(sc))
        assert again == sc
        first = run_scenario(again)
        for name, cm in first.classes.items():
            assert cm.generated == cm.delivered + cm.failed + cm.pending, name
        second = run_scenario(again)
        assert json.dumps(first.to_dict(), sort_keys=True) == \
            json.dumps(second.to_dict(), sort_keys=True)


@st.composite
def off_slot_gated_scenarios(draw):
    """Perfect detection and gated grants at a period off the slot grid."""
    t_tti = draw(st.sampled_from([0.25, 0.5, 1.0]))
    t_p = draw(st.sampled_from([1, 2, 3]))
    # a period of 20-200 ms in 0.01 ms steps that is no whole number of slots
    centi_ms = draw(st.integers(min_value=2_000, max_value=20_000)
                    .filter(lambda c: c % round(100 * t_tti)))
    return periodic_gate_scenario(centi_ms / 100, t_tti, t_p)


def periodic_gate_scenario(period_ms, t_tti, t_p):
    return Scenario(
        duration_ms=10_000.0, detection="perfect", estimator_mode="on",
        t_tti_ms=t_tti, t_p=t_p, r_threshold=9 if t_p == 2 else 10,
        twostep_n_periodic=50, twostep_n_event=50, twostep_period_ms=period_ms,
    )


class TestOffSlotPeriodicGate:
    """With perfect detection a periodic device can lose a packet only to
    responses the grant gate withholds, so no loss is an exact check of the
    gate, off the frame and off the slot grid alike."""

    @given(sc=off_slot_gated_scenarios())
    @example(sc=periodic_gate_scenario(47.0, 0.5, 3))
    @example(sc=periodic_gate_scenario(77.3, 0.5, 3))
    @example(sc=periodic_gate_scenario(99.7, 0.25, 2))
    @example(sc=periodic_gate_scenario(123.45, 1.0, 1))
    @settings(max_examples=30, deadline=None)
    def test_perfect_detection_fails_no_periodic_packet(self, sc):
        report = run_scenario(sc)
        periodic = report.classes["twostep_periodic"]
        assert periodic.generated > 0
        assert periodic.failed == 0
