import copy
import math
import os
import pickle
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ralab import metrics
from ralab.metrics import (
    ClassMetrics,
    ConservationError,
    MetricsReport,
    QUANTILES,
    ecdf_points,
    load_accounting,
    quantile_summary,
    satisfiable_latency,
)
from ralab.scenario import Scenario
from ralab.simulator import run_scenario


class TestSatisfiableLatency:
    def test_rank_statistic(self):
        # {1..100} at reliability 0.99 -> the 99th order statistic
        est = satisfiable_latency(range(1, 101), 0.99)
        assert est.latency_ms == 99.0
        assert not est.insufficient_samples

    def test_degenerate_all_equal(self):
        for rel in (0.5, 0.9, 0.99999):
            est = satisfiable_latency([6.5] * 10, rel)
            assert est.latency_ms == 6.5

    def test_failures_push_to_infinity(self):
        # 9 deliveries + 1 failure: the 0.95 quantile needs 10 ordered
        # samples but only 9 are finite
        est = satisfiable_latency([1.0] * 9, 0.95, failures=1)
        assert math.isinf(est.latency_ms)

    def test_failures_below_target_rank_are_absorbed(self):
        est = satisfiable_latency([1.0] * 99, 0.95, failures=1)
        assert est.latency_ms == 1.0

    def test_insufficient_samples_flag(self):
        est = satisfiable_latency([1.0] * 10, 0.99999)
        assert est.insufficient_samples
        est = satisfiable_latency([1.0] * 100_000, 0.99999)
        assert not est.insufficient_samples

    def test_accepts_histogram(self):
        hist = Counter({6.5: 50, 10.0: 50})
        assert satisfiable_latency(hist, 0.5).latency_ms == 6.5
        assert satisfiable_latency(hist, 0.51).latency_ms == 10.0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            satisfiable_latency([1.0], 0.0)
        with pytest.raises(ValueError):
            satisfiable_latency([1.0], 1.0)
        with pytest.raises(ValueError):
            satisfiable_latency([], 0.9)
        with pytest.raises(ValueError):
            satisfiable_latency([1.0], 0.9, failures=-1)

    def test_all_failed(self):
        est = satisfiable_latency([], 0.9, failures=5)
        assert math.isinf(est.latency_ms)

    @given(
        samples=st.lists(
            st.floats(min_value=0.25, max_value=1e4, allow_nan=False),
            min_size=1, max_size=200,
        ),
        reliability=st.floats(min_value=0.01, max_value=0.999),
    )
    @settings(max_examples=200, deadline=None)
    def test_quantile_rank_property(self, samples, reliability):
        # The result is the smallest sample value whose empirical CDF
        # reaches the target, and at least ceil(rel*n) samples are <= it.
        est = satisfiable_latency(samples, reliability)
        n = len(samples)
        need = math.ceil(reliability * n - 1e-9)
        at_or_below = sum(1 for s in samples if s <= est.latency_ms)
        assert at_or_below >= need
        assert est.latency_ms in samples
        strictly_below = sum(1 for s in samples if s < est.latency_ms)
        assert strictly_below < need


class TestEcdf:
    def test_monotone_and_saturates(self):
        pts = ecdf_points([1.0, 2.0, 2.0, 3.0])
        values = [v for v, _ in pts]
        probs = [p for _, p in pts]
        assert values == sorted(values)
        assert probs == sorted(probs)
        assert probs[-1] == pytest.approx(1.0)

    def test_failures_cap_below_one(self):
        pts = ecdf_points([1.0, 2.0], failures=2)
        assert pts[-1][1] == pytest.approx(0.5)

    def test_empty(self):
        assert ecdf_points([]) == []


def make_metrics(**kw) -> ClassMetrics:
    cm = ClassMetrics()
    for key, value in kw.items():
        setattr(cm, key, value)
    return cm


class TestClassMetrics:
    def test_conservation_passes(self):
        cm = make_metrics(generated=10, delivered=7, failed=2, pending=1)
        cm.check_conservation()

    def test_conservation_catches_leak(self):
        cm = make_metrics(generated=10, delivered=7, failed=2, pending=0)
        with pytest.raises(ConservationError, match="packets leaked"):
            cm.check_conservation()

    def test_conservation_checked_under_python_O(self):
        code = (
            "from ralab.metrics import ClassMetrics, ConservationError\n"
            "cm = ClassMetrics(generated=10, delivered=7, failed=2)\n"
            "try:\n"
            "    cm.check_conservation()\n"
            "except ConservationError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = str(Path(metrics.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "raised: packets leaked: 7 + 2 + 0 != 10"

    def test_totals(self):
        cm = make_metrics(necessary=10, unnec_failed=1, unnec_rar=2, unnec_grant=3)
        assert cm.unnecessary_total == 6
        assert cm.signals_total == 16

    def test_update_sums_counters_and_histograms(self):
        a = make_metrics(necessary=1, generated=2, delivered=2)
        a.ra_latency[6.5] = 2
        b = make_metrics(necessary=3, generated=1, delivered=1)
        b.ra_latency[6.5] = 1
        b.ra_latency[10.0] = 1
        a.update(b)
        assert a.necessary == 4
        assert a.generated == 3
        assert a.ra_latency == Counter({6.5: 3, 10.0: 1})


def small_report(seed: int, delivered: int) -> MetricsReport:
    rep = MetricsReport(duration_ms=100.0, seeds=(seed,))
    cm = rep.class_metrics("twostep_event")
    cm.generated = delivered
    for i in range(delivered):
        cm.add_ra_sample(6.5 + 0.5 * (i % 3))
    cm.necessary = 2 * delivered
    rep.populations = {"twostep_event": 5}
    return rep


class TestMergeReports:
    def test_merge_pools_everything(self):
        a = small_report(1, 4)
        b = small_report(2, 6)
        a.merge(b)
        assert a.seeds == (1, 2)
        assert a.duration_ms == 200.0
        assert a.classes["twostep_event"].delivered == 10
        assert a.classes["twostep_event"].necessary == 20

    def test_merge_rejects_population_mismatch(self):
        a = small_report(1, 4)
        b = small_report(2, 4)
        b.populations = {"twostep_event": 7}
        with pytest.raises(ValueError):
            a.merge(b)

    @given(sizes=st.lists(st.integers(min_value=0, max_value=20),
                          min_size=2, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_merge_is_order_independent(self, sizes):
        reports = [small_report(i, n) for i, n in enumerate(sizes)]

        def pooled(order):
            out = MetricsReport()
            for idx in order:
                out.merge(reports[idx])
            d = out.to_dict()
            d["seeds"] = sorted(d["seeds"])  # seed order reflects merge order
            return d

        forward = pooled(range(len(reports)))
        backward = pooled(reversed(range(len(reports))))
        assert forward == backward


class TestSlottedRecords:
    def test_real_report_survives_pickle_and_deepcopy(self):
        sc = Scenario(duration_ms=1_500.0, n_cr=8, estimator_mode="on",
                      detection="model", twostep_n_periodic=10, twostep_n_event=10,
                      twostep_period_ms=50.0, fourstep_n_ue=30, fourstep_rate_per_s=2.0)
        report = run_scenario(sc, seed=3)
        want = report.to_dict()
        assert report.period_estimates
        assert all(cm.delivered for cm in report.classes.values())
        for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
            assert twin.to_dict() == want
            for cm in twin.classes.values():
                assert type(cm) is ClassMetrics and not hasattr(cm, "__dict__")


class TestLoadAccounting:
    def test_rates_use_population_and_duration(self):
        rep = small_report(1, 10)
        out = load_accounting(rep)
        row = out["twostep_event"]
        assert row["necessary"] == 20
        assert row["signals_total"] == 20
        assert row["signals_per_ue_per_ms"] == pytest.approx(20 / (5 * 100.0))

    def test_zero_population_gives_zero_rate(self):
        rep = small_report(1, 0)
        rep.populations = {"twostep_event": 0}
        out = load_accounting(rep)
        assert out["twostep_event"]["signals_per_ue_per_ms"] == 0.0


class TestQuantileSummary:
    def test_contains_all_reliability_levels(self):
        cm = ClassMetrics()
        cm.generated = 100
        for _ in range(100):
            cm.add_ra_sample(6.5)
        out = quantile_summary(cm)
        for q in QUANTILES:
            assert out[f"q{q}"] == 6.5
        assert out["insufficient_samples"]  # 100 samples cannot resolve 1e-5

    def test_empty_class(self):
        assert quantile_summary(ClassMetrics()) == {"empty": True}
