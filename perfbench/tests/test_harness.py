"""Tests of the benchmark harness's own arithmetic and wrapper handling.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import heapq
import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import pace  # noqa: E402
from spans import (  # noqa: E402
    NAME_RE, CountingHeapq, Tracer, check_name, layer_self_time, patched, span_totals,
    tail_quantile,
)

UNIT_RE = r"[A-Za-z0-9_/%.-]{1,16}"


class TestSelfTime:
    def test_nested_spans(self):
        # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
        names = ["root", "a", "b", "c"]
        name_id = [0, 1, 3, 2]
        parent = [-1, 0, 1, 0]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        totals = span_totals(names, name_id, parent, start, end)
        assert totals["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
        assert totals["a"] == {"calls": 1, "s": 3.0, "self_s": 2.0}
        assert totals["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
        assert totals["b"] == {"calls": 1, "s": 4.0, "self_s": 4.0}

    def test_repeated_names_add_up(self):
        names = ["sim.run", "est.fit"]
        name_id = [0, 1, 1, 1]
        parent = [-1, 0, 0, 0]
        start = [0.0, 1.0, 3.0, 6.0]
        end = [8.0, 2.0, 5.0, 7.0]
        totals = span_totals(names, name_id, parent, start, end)
        assert totals["est.fit"]["calls"] == 3
        assert totals["est.fit"]["s"] == pytest.approx(4.0)
        assert totals["sim.run"]["self_s"] == pytest.approx(4.0)

    def test_layer_self_time_sums_by_prefix(self):
        totals = {
            "estimator.observe": {"calls": 1, "s": 5.0, "self_s": 2.0},
            "estimator.fit": {"calls": 2, "s": 3.0, "self_s": 3.0},
            "simulator.run": {"calls": 1, "s": 9.0, "self_s": 4.0},
        }
        assert layer_self_time(totals) == {"estimator": 5.0, "simulator": 4.0}

    def test_tracer_records_parents_and_self_time_covers_root(self):
        tracer = Tracer("run-1")

        def leaf(x):
            return x + 1

        wrapped_leaf = tracer.wrap("mod.leaf", leaf)

        def middle(x):
            return wrapped_leaf(x) + wrapped_leaf(x)

        wrapped_middle = tracer.wrap("mod.middle", middle)
        root = tracer.wrap("mod.root", lambda: wrapped_middle(1) + wrapped_leaf(0))
        assert root() == 5
        name_id, parent, start, end = tracer.arrays()
        names = [tracer.names[i] for i in name_id]
        assert names == ["mod.root", "mod.middle", "mod.leaf", "mod.leaf", "mod.leaf"]
        assert list(parent) == [-1, 0, 1, 1, 0]
        assert (end >= start).all()
        totals = span_totals(tracer.names, name_id, parent, start, end)
        assert totals["mod.leaf"]["calls"] == 3
        self_sum = sum(row["self_s"] for row in totals.values())
        assert self_sum == pytest.approx(end[0] - start[0], rel=1e-9, abs=1e-12)

    def test_span_closes_when_call_raises(self):
        tracer = Tracer("run-2")

        def boom():
            raise KeyError("x")

        wrapped = tracer.wrap("mod.boom", boom)
        with pytest.raises(KeyError):
            wrapped()
        after = tracer.wrap("mod.after", lambda: None)
        after()
        _, parent, start, end = tracer.arrays()
        assert list(parent) == [-1, -1]
        assert end[0] >= start[0] > 0.0


class TestTailQuantile:
    @pytest.mark.parametrize("n, expected", [
        (19, None),
        (20, 0.5),
        (99, 0.5),
        (100, 0.9),
        (156, 0.9),
        (999, 0.9),
        (1_000, 0.99),
        (9_999, 0.99),
        (10_000, 0.999),
        (41_982, 0.999),
        (100_000, 0.9999),
        (10_000_000, 0.99999),
    ])
    def test_highest_with_ten_beyond(self, n, expected):
        assert tail_quantile(n) == expected


class TestNames:
    @pytest.mark.parametrize("name", [
        "setup_s", "run_s", "estimator.self_s", "analysis.solve_fourstep.p90_ms",
        "best_n_cr.share_0.3", "a-b", "0x",
    ])
    def test_valid(self, name):
        assert check_name(name) == name

    @pytest.mark.parametrize("name", [
        "", "_lead", ".lead", "has space", "slash/name", "colon:name", "a" * 65, "ünï",
    ])
    def test_invalid(self, name):
        with pytest.raises(ValueError):
            check_name(name)

    def test_pattern_is_the_contract_alphabet(self):
        assert NAME_RE.pattern == "[A-Za-z0-9_.-]+"

    def test_benchmark_file_names_and_units(self):
        import re

        spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
        seen = set()
        for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
            assert check_name(entry["name"]) == entry["name"]
            assert entry["name"] not in seen
            seen.add(entry["name"])
        for entry in spec["end_to_end"] + spec["per_layer"]:
            assert re.fullmatch(UNIT_RE, entry["unit"])
            assert entry["better"] in ("lower", "higher")
        for entry in spec["end_to_end"]:
            assert 0 < entry["bound"] <= 0.25
        setup = [e for e in spec["end_to_end"] if e["name"] == "setup_s"]
        assert setup and setup[0]["bound"] == max(e["bound"] for e in spec["end_to_end"])


class TestPatched:
    def test_module_attribute_installed_and_restored(self):
        mod = types.ModuleType("fake_mod")

        def original(x):
            return x

        mod.fn = original
        tracer = Tracer("run-3")
        with patched([(mod, "fn", tracer.wrap("fake.fn", mod.fn))]):
            assert mod.fn is not original
            assert mod.fn(3) == 3
        assert mod.fn is original
        assert len(tracer.start) == 1

    def test_method_wrapped_on_class_binds_self(self):
        class Box:
            def __init__(self):
                self.items = []

            def add(self, item):
                self.items.append(item)

        original = Box.__dict__["add"]
        tracer = Tracer("run-4")
        box = Box()
        with patched([(Box, "add", tracer.wrap("box.add", Box.add))]):
            box.add(1)
            box.add(2)
        assert Box.__dict__["add"] is original
        assert box.items == [1, 2]
        assert len(tracer.start) == 2

    def test_restored_when_body_raises(self):
        mod = types.ModuleType("fake_mod2")
        mod.keep, mod.other = 1, 2
        with pytest.raises(RuntimeError):
            with patched([(mod, "keep", 3), (mod, "other", 4)]):
                assert (mod.keep, mod.other) == (3, 4)
                raise RuntimeError("body failed")
        assert (mod.keep, mod.other) == (1, 2)

    def test_missing_attribute_refused_and_earlier_ones_restored(self):
        # a shim at a name the owner never had would count nothing
        mod = types.ModuleType("fake_mod3")
        mod.keep = 1
        with pytest.raises(AttributeError):
            with patched([(mod, "keep", 2), (mod, "extra", 3)]):
                pass
        assert mod.keep == 1
        assert not hasattr(mod, "extra")

    def test_inherited_method_wrapped_on_subclass_is_removed_again(self):
        class Base:
            def name(self):
                return "base"

        class Child(Base):
            pass

        with patched([(Child, "name", lambda self: "wrapped")]):
            assert Child().name() == "wrapped"
        assert "name" not in vars(Child)
        assert Child().name() == "base"

    def test_counting_heapq_counts_and_delegates(self):
        shim = CountingHeapq()
        heap = []
        for x in (5, 1, 3):
            shim.heappush(heap, x)
        assert shim.heappop(heap) == 1
        assert (shim.pushes, shim.pops) == (3, 1)
        assert shim.heapify is heapq.heapify
        assert heap == [3, 5]


class TestPace:
    def test_mean_leaves_out_preempted_samples(self):
        assert pace.mean_kernel_s([1.0, 1.0, 2.0, 2.0, 9.0]) == pytest.approx(1.5)

    def test_mean_keeps_a_slow_half(self):
        # the host slowing down mid-run is what the probe is there to see
        assert pace.mean_kernel_s([1.0, 1.0, 2.0, 2.0]) == pytest.approx(1.5)

    def test_scaled_removes_probe_time_and_host_speed(self):
        probe = pace.Probe()
        probe.samples = [1.0, 1.0]
        probe.overhead_s = 0.5
        since = probe.mark()
        probe.samples += [2 * pace.REFERENCE_KERNEL_S] * 4
        probe.overhead_s += 1.0
        seconds, factor = probe.scaled(11.0, since)
        assert factor == pytest.approx(0.5)
        assert seconds == pytest.approx(5.0)

    def test_probe_samples_while_running_and_restores_handler(self):
        import signal
        import time

        before = signal.getsignal(signal.SIGALRM)
        probe = pace.Probe().start()
        try:
            end = time.perf_counter() + 5 * pace.INTERVAL_S
            while time.perf_counter() < end:
                pass
        finally:
            probe.stop()
        assert len(probe.samples) >= 3
        assert probe.overhead_s >= sum(probe.samples)
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
