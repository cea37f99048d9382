"""Latency and signaling-load accounting for simulation runs.

Latency samples live in value -> count histograms: every produced latency
is built from slot times on the ``core.TTI_GRID_MS`` grid, the fixed latency
budget and the scenario's uplink time, so it is exact and takes few distinct
values; histograms are lossless and keep full-scale runs (tens of millions
of packets) small. Reports merge associatively, which is how multi-seed
replications pool their samples.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

QUANTILES = (0.9, 0.99, 0.999, 0.9999, 0.99999)

# The per-class counters of ClassMetrics: signals by outcome, then packets
# by fate.  Every report lists them in these orders.
SIGNAL_COUNTERS = ("necessary", "unnec_failed", "unnec_rar", "unnec_grant")
PACKET_COUNTERS = ("generated", "delivered", "failed", "pending")


class ConservationError(AssertionError):
    """Generated packets do not equal delivered + failed + pending."""


@dataclass(frozen=True)
class QuantileEstimate:
    """An empirical quantile plus a resolution warning.

    ``insufficient_samples`` is set when fewer samples exist than the
    requested reliability can resolve (N < 1 / (1 - reliability)).
    """

    latency_ms: float
    insufficient_samples: bool


def satisfiable_latency(samples, reliability: float, failures: int = 0) -> QuantileEstimate:
    """Smallest latency bound met with probability >= ``reliability``.

    ``samples`` is an iterable of delivery latencies or a value -> count
    mapping. Failed deliveries count as infinite samples, so enough
    failures push the bound to +inf.
    """
    if not 0.0 < reliability < 1.0:
        raise ValueError("reliability must be in (0, 1)")
    if failures < 0:
        raise ValueError("failures must be >= 0")
    hist = samples if isinstance(samples, Counter) else Counter(samples)
    n_finite = sum(hist.values())
    n = n_finite + failures
    if n == 0:
        raise ValueError("satisfiable_latency needs at least one sample")
    # n < 1/(1-rel), in a scaling that avoids the division's rounding error
    insufficient = n * (1.0 - reliability) < 1.0 - 1e-9
    # smallest rank whose empirical probability reaches the target
    need = math.ceil(reliability * n - 1e-9)
    if need > n_finite:
        return QuantileEstimate(math.inf, insufficient)
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= need:
            return QuantileEstimate(float(value), insufficient)
    return QuantileEstimate(math.inf, insufficient)


def ecdf_points(samples, failures: int = 0):
    """(value, cumulative probability) pairs of the empirical CDF.

    Failures enter the denominator only, so the curve saturates below 1
    when deliveries failed.
    """
    hist = samples if isinstance(samples, Counter) else Counter(samples)
    n = sum(hist.values()) + failures
    points = []
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        points.append((float(value), seen / n))
    return points


@dataclass(slots=True)
class ClassMetrics:
    """Counters for one traffic class."""

    ra_latency: Counter = field(default_factory=Counter)
    connected_latency: Counter = field(default_factory=Counter)
    necessary: int = 0
    unnec_failed: int = 0
    unnec_rar: int = 0
    unnec_grant: int = 0
    generated: int = 0
    delivered: int = 0
    failed: int = 0
    pending: int = 0

    def add_ra_sample(self, latency_ms: float) -> None:
        self.ra_latency[latency_ms] += 1
        self.delivered += 1

    def add_connected_sample(self, latency_ms: float) -> None:
        self.connected_latency[latency_ms] += 1
        self.delivered += 1

    def all_latency(self) -> Counter:
        return self.ra_latency + self.connected_latency

    @property
    def unnecessary_total(self) -> int:
        return self.unnec_failed + self.unnec_rar + self.unnec_grant

    @property
    def signals_total(self) -> int:
        return self.necessary + self.unnecessary_total

    def check_conservation(self) -> None:
        if self.delivered + self.failed + self.pending != self.generated:
            raise ConservationError(
                f"packets leaked: {self.delivered} + {self.failed} + {self.pending} "
                f"!= {self.generated}"
            )

    def update(self, other: "ClassMetrics") -> None:
        self.ra_latency.update(other.ra_latency)
        self.connected_latency.update(other.connected_latency)
        for name in SIGNAL_COUNTERS + PACKET_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class MetricsReport:
    """Everything one simulation run (or a pooled set of runs) produced."""

    duration_ms: float = 0.0
    seeds: tuple[int, ...] = ()
    classes: dict[str, ClassMetrics] = field(default_factory=dict)
    populations: dict[str, int] = field(default_factory=dict)
    classification: Counter = field(default_factory=Counter)
    period_estimates: list[float] = field(default_factory=list)
    margin_estimates: list[float] = field(default_factory=list)
    registry_grew: bool = False

    def class_metrics(self, name: str) -> ClassMetrics:
        if name not in self.classes:
            self.classes[name] = ClassMetrics()
        return self.classes[name]

    def merge(self, other: "MetricsReport") -> None:
        """Pool another run into this report (associative)."""
        if self.populations and other.populations and \
                self.populations != other.populations:
            raise ValueError("cannot pool runs with different populations")
        self.duration_ms += other.duration_ms
        self.seeds = self.seeds + other.seeds
        for name, cm in other.classes.items():
            self.class_metrics(name).update(cm)
        if not self.populations:
            self.populations = dict(other.populations)
        self.classification.update(other.classification)
        self.period_estimates.extend(other.period_estimates)
        self.margin_estimates.extend(other.margin_estimates)
        self.registry_grew = self.registry_grew or other.registry_grew

    def check_conservation(self) -> None:
        for cm in self.classes.values():
            cm.check_conservation()

    def to_dict(self) -> dict:
        """Stable plain-dict form (sorted histograms) for serialization."""
        return {
            "duration_ms": self.duration_ms,
            "seeds": list(self.seeds),
            "populations": {k: self.populations[k] for k in sorted(self.populations)},
            "classes": {
                name: {
                    "ra_latency": {str(v): c for v, c in sorted(cm.ra_latency.items())},
                    "connected_latency": {
                        str(v): c for v, c in sorted(cm.connected_latency.items())
                    },
                    **{n: getattr(cm, n) for n in SIGNAL_COUNTERS + PACKET_COUNTERS},
                }
                for name, cm in sorted(self.classes.items())
            },
            "classification": {k: self.classification[k] for k in sorted(self.classification)},
            "period_estimates": list(self.period_estimates),
            "margin_estimates": list(self.margin_estimates),
            "registry_grew": self.registry_grew,
        }


def load_accounting(report: MetricsReport) -> dict:
    """Per-class signaling totals and per-device rates."""
    out = {}
    for name in sorted(report.classes):
        cm = report.classes[name]
        n_ue = report.populations.get(name, 0)
        denom = n_ue * report.duration_ms
        out[name] = {
            **{n: getattr(cm, n) for n in SIGNAL_COUNTERS},
            "unnecessary_total": cm.unnecessary_total,
            "signals_total": cm.signals_total,
            "signals_per_ue_per_ms": cm.signals_total / denom if denom else 0.0,
        }
    return out


def quantile_summary(cm: ClassMetrics) -> dict:
    """The standard reliability quantiles for one class."""
    pooled = cm.all_latency()
    out = {}
    if not pooled and cm.failed == 0:
        return {"empty": True}
    for q in QUANTILES:
        est = satisfiable_latency(pooled, q, failures=cm.failed)
        out[f"q{q}"] = est.latency_ms
        out.setdefault("insufficient_samples", est.insufficient_samples)
        out["insufficient_samples"] = out["insufficient_samples"] or est.insufficient_samples
    return out
