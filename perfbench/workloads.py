"""The three benchmark workloads: inputs from a seed, the timed body, checks.

Each workload object lives in one worker process.  ``setup`` imports the
package, generates and parses the inputs and runs a one-slot simulation or
a first solve; ``run`` is the timed body; ``checks`` judges the outputs
with arithmetic of its own rather than the package's ``assert``s, which
``python -O`` strips.  The package is reached only through its public
module attributes, so the traced pass can wrap exactly what callers use.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import random
import time
from statistics import fmean

from spans import patched, tail_quantile

CLASSES = ("twostep_periodic", "twostep_event", "fourstep")
# Lowest RA-delivery latency each procedure can produce (ms): the fixed
# message budget plus the uplink data, from the paper's latency table.
RA_FLOOR_MS = {"twostep_periodic": 6.5, "twostep_event": 6.5, "fourstep": 11.5}
EVENT_SHARES = (0.3, 0.5, 0.7)
SPLIT_POOL = 54
P_FAIL_MAX = 1e-7

# Functions the traced pass wraps: (module, attribute owner within it or
# None, attribute, span name).  Each is the attribute its caller looks up.
TRACED = (
    ("estimator", None, "observe_twostep_attempt", "estimator.observe_twostep_attempt"),
    ("estimator", None, "linear_regression", "estimator.linear_regression"),
    ("estimator", None, "margin_value", "estimator.margin_value"),
    ("estimator", None, "observe_uplink_packet", "estimator.observe_uplink_packet"),
    ("estimator", None, "classify_traffic_type", "estimator.classify_traffic_type"),
    ("simulator", None, "run_scenario", "simulator.run_scenario"),
    ("core", None, "next_tx_slot", "core.next_tx_slot"),
    ("protocol", None, "allocate_context_id", "protocol.allocate_context_id"),
    ("metrics", "ClassMetrics", "add_ra_sample", "metrics.add_ra_sample"),
    ("metrics", "ClassMetrics", "add_connected_sample", "metrics.add_connected_sample"),
    ("metrics", None, "quantile_summary", "metrics.quantile_summary"),
    ("metrics", "MetricsReport", "check_conservation", "metrics.check_conservation"),
    ("cli", None, "main", "cli.main"),
    ("cli", None, "simulation_summary", "cli.simulation_summary"),
    ("cli", None, "write_latency_ecdf", "cli.write_latency_ecdf"),
    ("cli", None, "write_json", "cli.write_json"),
    ("cli", None, "read_scenario", "scenario.read_scenario"),
    ("analysis", None, "optimize_preamble_split", "analysis.optimize_preamble_split"),
    ("analysis", None, "solve_fourstep", "analysis.solve_fourstep"),
    ("analysis", None, "collision_probability", "analysis.collision_probability"),
    ("analysis", None, "solve_twostep", "analysis.solve_twostep"),
    ("analysis", None, "twostep_detection_prob", "analysis.twostep_detection_prob"),
)

_SIM_SPANS = (
    "simulator.run_scenario", "core.next_tx_slot", "protocol.allocate_context_id",
    "estimator.observe_uplink_packet", "estimator.classify_traffic_type",
    "estimator.observe_twostep_attempt", "estimator.linear_regression",
    "estimator.margin_value", "metrics.add_ra_sample", "metrics.add_connected_sample",
    "metrics.check_conservation", "simulator.heappush", "simulator.heappop",
)


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    """Shared shape; subclasses fill in inputs, body and checks."""

    name = ""
    expected_spans: tuple[str, ...] = ()

    def __init__(self, seed: int, out_dir, rep: int = 0, traced: bool = False) -> None:
        self.out_dir = out_dir
        self.rep = rep
        self.traced = traced
        self.rng = random.Random(seed)

    def import_package(self) -> None:
        self.ralab = importlib.import_module("ralab")
        for mod in ("analysis", "cli", "core", "estimator", "metrics", "protocol",
                    "scenario", "simulator"):
            setattr(self, mod, importlib.import_module(f"ralab.{mod}"))

    def trace_targets(self):
        """(owner object, attribute, span name) for every traced function."""
        out = []
        for mod, owner, attr, span in TRACED:
            obj = getattr(self, mod)
            if owner is not None:
                obj = getattr(obj, owner)
            out.append((obj, attr, span))
        return out

    def samples(self, wall_s: float, outputs: dict) -> list[dict]:
        """The timed samples of one run, in wall seconds: here the whole run."""
        return [{"wall_s": wall_s, "items": outputs["items"]}]

    def versions(self) -> dict:
        import numpy
        import scipy
        return {"ralab": self.ralab.__version__, "ralab_file": self.ralab.__file__,
                "numpy": numpy.__version__, "scipy": scipy.__version__}


class _Simulation(Workload):
    """Common output handling of the two simulation workloads."""

    expected_spans = _SIM_SPANS
    n_seeds = 1
    sim_ms = 0.0

    def scenario_fields(self) -> dict:
        raise NotImplementedError

    def make_inputs(self) -> None:
        self.seeds = [self.rng.randrange(2 ** 32) for _ in range(self.n_seeds)]
        self.sc = self.scenario.Scenario(duration_ms=self.sim_ms, seed=self.seeds[0],
                                         **self.scenario_fields())

    def warm_up(self) -> None:
        one_slot = dataclasses.replace(self.sc, duration_ms=self.sc.t_tti_ms)
        self.simulator.run_scenario(one_slot)

    def pooled(self, reports):
        pooled = self.metrics.MetricsReport()
        for rep in reports:
            pooled.merge(rep)
        return pooled

    def q999(self, cm) -> float:
        """RA-delivery latency at 99.9 % of a class, failures as infinite."""
        return self.metrics.satisfiable_latency(cm.ra_latency, 0.999, cm.failed).latency_ms

    def outputs(self, reports) -> dict:
        """Digest, work count and simulated-fidelity figures of a run."""
        pooled = self.pooled(reports)
        classes = pooled.classes
        nec = sum(cm.necessary for cm in classes.values())
        unnec = sum(cm.unnecessary_total for cm in classes.values())
        grants_unnec = sum(cm.unnec_grant for cm in classes.values())
        grants_useful = sum(classes[c].necessary for c in CLASSES[:2]) // 2
        generated = sum(cm.generated for cm in classes.values())
        failed = sum(cm.failed for cm in classes.values())
        out = {
            "digests": {f"seed_{rep.seeds[0]}": _digest(rep.to_dict()) for rep in reports},
            "items": generated,
            "simulator.packets": generated,
            "simulator.slots": self.sc.duration_slots * len(reports),
            "simulator.signals_necessary": nec,
            "simulator.signals_unnecessary": unnec,
            "simulator.grant_useful_ratio": grants_useful / (grants_useful + grants_unnec)
            if grants_useful + grants_unnec else 0.0,
            "unnecessary_per_necessary": unnec / nec,
            "packet_fail_share": failed / generated,
        }
        for cls in CLASSES:
            short = cls.rsplit("_", 1)[-1]
            cm = classes[cls]
            n_ra = sum(cm.ra_latency.values())
            out[f"{short}_ra_samples"] = n_ra
            q999 = self.q999(cm) if n_ra else 0.0
            # an infinite tail fails the q999_resolved check; report it as 0
            out[f"{short}_q999_ms"] = q999 if math.isfinite(q999) else 0.0
        return out

    def sim_checks(self, reports) -> list[tuple[str, bool, str]]:
        pooled = self.pooled(reports)
        checks = []
        leaks = {
            cls: (cm.delivered, cm.failed, cm.pending, cm.generated)
            for cls, cm in pooled.classes.items()
            if cm.delivered + cm.failed + cm.pending != cm.generated
        }
        checks.append(("conservation", not leaks, f"leaks {leaks}"))
        below = {
            cls: min(cm.ra_latency) for cls, cm in pooled.classes.items()
            if cm.ra_latency and min(cm.ra_latency) < RA_FLOOR_MS[cls] - 1e-9
        }
        checks.append(("ra_latency_floor", not below, f"below floor {below}"))
        unresolved = {}
        for cls, cm in pooled.classes.items():
            n = sum(cm.ra_latency.values()) + cm.failed
            if cm.generated and (tail_quantile(n) or 0.0) < 0.999:
                unresolved[cls] = n
            elif cm.generated and math.isinf(self.q999(cm)):
                unresolved[cls] = "infinite"
        checks.append(("q999_resolved", not unresolved, f"unresolved {unresolved}"))
        return checks


class Mixed24k(_Simulation):
    """The full-scale 24 000-device mix, two seeds pooled through the CLI."""

    name = "mixed_24k"
    n_seeds = 2
    sim_ms = 4_000.0
    expected_spans = _SIM_SPANS + (
        "cli.main", "scenario.read_scenario", "cli.simulation_summary",
        "cli.write_latency_ecdf", "cli.write_json", "metrics.quantile_summary",
    )

    def scenario_fields(self) -> dict:
        return dict(n_cr=31, estimator_mode="on", detection="model",
                    twostep_n_periodic=300, twostep_n_event=700,
                    twostep_period_ms=50.0, twostep_event_rate_per_s=6.8,
                    fourstep_n_ue=23_000, fourstep_rate_per_s=0.5)

    def setup(self) -> None:
        self.import_package()
        self.make_inputs()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.scn_path = self.out_dir / f"{self.name}.scn"
        self.scn_path.write_text(self.scenario.emit_scenario(self.sc), encoding="utf-8")
        if self.scenario.read_scenario(self.scn_path) != self.sc:
            raise RuntimeError("scenario file does not parse back to its input")
        self.report_dir = self.out_dir / f"{self.name}-report"
        self.warm_up()

    def run(self):
        reports = []
        inner = self.simulator.run_scenario

        def capture(*args, **kwargs):
            rep = inner(*args, **kwargs)
            reports.append(rep)
            return rep

        argv = ["--mode", "simulate", "--scenario", str(self.scn_path),
                "--seed", *map(str, self.seeds), "--out", str(self.report_dir)]
        with patched([(self.simulator, "run_scenario", capture)]), \
                contextlib.redirect_stdout(io.StringIO()):
            code = self.cli.main(argv)
        return code, reports

    def outputs_of(self, result) -> dict:
        return self.outputs(result[1])

    def checks(self, result):
        code, reports = result
        checks = [("cli_exit_0", code == 0, f"exit code {code}")]
        if len(reports) != self.n_seeds:
            return checks + [("one_report_per_seed", False, f"{len(reports)} reports")]
        checks += self.sim_checks(reports)
        summary = json.loads((self.report_dir / "summary.json").read_text(encoding="utf-8"))
        pooled = self.pooled(reports)
        mismatch = {
            cls: row for cls, row in summary["classes"].items()
            if any(row[k] != getattr(pooled.classes[cls], k)
                   for k in ("generated", "delivered", "failed", "pending"))
        }
        checks.append(("cli_summary_matches_report", not mismatch, f"differs {mismatch}"))
        fp = self.cli.fourstep_params(self.sc)
        predicted = self.analysis.load_fourstep(self.analysis.solve_fourstep(fp))
        simulated = summary["load"]["fourstep"]["signals_per_ue_per_ms"]
        rel = abs(simulated - predicted) / predicted
        checks.append(("fourstep_load_vs_model", rel <= self.cli.VALIDATE_TOLERANCE,
                       f"simulated {simulated} predicted {predicted} rel {rel:.4g}"))
        return checks


class Periodic700(_Simulation):
    """The estimator-benefit population, one seed, straight into the simulator."""

    name = "periodic_700"
    sim_ms = 10_000.0

    def scenario_fields(self) -> dict:
        return dict(n_cr=54, estimator_mode="on", detection="model",
                    twostep_n_periodic=700, twostep_n_event=300,
                    twostep_period_ms=50.0, twostep_event_rate_per_s=6.8)

    def setup(self) -> None:
        self.import_package()
        self.make_inputs()
        self.warm_up()

    def run(self):
        return self.simulator.run_scenario(self.sc, self.seeds[0])

    def outputs_of(self, result) -> dict:
        return self.outputs([result])

    def checks(self, result):
        checks = self.sim_checks([result])
        cls = result.classification
        n_periodic, n_event = self.sc.twostep_n_periodic, self.sc.twostep_n_event
        checks.append(("periodic_classified_periodic",
                       cls["periodic_as_periodic"] == n_periodic, f"{dict(cls)}"))
        checks.append(("event_classified_event_99pct",
                       cls["event_as_event"] >= 0.99 * n_event, f"{dict(cls)}"))
        mean = fmean(result.period_estimates) if result.period_estimates else 0.0
        checks.append(("period_estimate_mean",
                       abs(mean - self.sc.twostep_period_ms) <= 0.2,
                       f"mean {mean} ms over {len(result.period_estimates)}"))
        return checks


class SplitSweep(Workload):
    """The preamble-split optimizer on the Table-IV populations."""

    name = "split_sweep"
    expected_spans = (
        "analysis.optimize_preamble_split", "analysis.solve_fourstep",
        "analysis.collision_probability", "analysis.solve_twostep",
        "analysis.twostep_detection_prob",
    )

    def setup(self) -> None:
        # The optimizer is deterministic; the seed only labels the run.  An
        # untraced repetition sweeps one event share, taking the shares in
        # turn, so a run samples the host at more points in time; a traced
        # one sweeps all three, so its span counts cover the whole sweep.
        self.import_package()
        a = self.analysis
        shares = EVENT_SHARES if self.traced else (EVENT_SHARES[self.rep % len(EVENT_SHARES)],)
        self.fourstep = a.FourStepParams(n_ue=23_000, rate_per_ms=0.5e-3, n_cb=SPLIT_POOL)
        self.twostep = {
            share: a.TwoStepParams(n_ue=1_000, n_event=int(share * 1_000),
                                   rate_per_ms=6.8e-3, t_p=3, n_cr=4)
            for share in shares
        }
        a.solve_fourstep(self.fourstep)
        a.solve_twostep(self.twostep[shares[0]])

    def run(self):
        out = {}
        self.share_s = []
        for share, tp in self.twostep.items():
            t0 = time.perf_counter()
            try:
                out[share] = self.analysis.optimize_preamble_split(
                    self.fourstep, tp, n_pool=SPLIT_POOL, p_fail_max=P_FAIL_MAX)
            except self.analysis.InfeasibleError as exc:
                out[share] = exc
            self.share_s.append(time.perf_counter() - t0)
        return out

    def samples(self, wall_s: float, outputs: dict) -> list[dict]:
        """One sample per event share: its sweep time and split points."""
        return [{"wall_s": t, "items": outputs["items"] // len(self.share_s)}
                for t in self.share_s]

    def outputs_of(self, result) -> dict:
        solved = {s: r for s, r in result.items() if not isinstance(r, Exception)}
        points = [p for r in solved.values() for p in r.points]
        out = {
            "digests": {f"share_{s}": _digest(repr(r)) for s, r in result.items()},
            "items": len(points),
            "analysis.feasible_ratio": sum(p.feasible for p in points) / len(points)
            if points else 0.0,
        }
        for share, r in result.items():
            out[f"best_n_cr.share_{share}"] = r.best_n_cr if share in solved else -1
        return out

    def checks(self, result):
        checks = []
        for share, r in sorted(result.items()):
            if isinstance(r, Exception):
                checks.append((f"feasible_split_{share}", False, str(r)))
                continue
            best = r.point(r.best_n_cr)
            checks.append((f"feasible_split_{share}", best.feasible,
                           f"n_cr* {r.best_n_cr}"))
            min_n_cb = min(p.n_cb for p in r.points if p.feasible)
            checks.append((f"boundary_n_cb_{share}", abs(min_n_cb - 18) <= 2,
                           f"min n_cb {min_n_cb} (want 18 +- 2)"))
        return checks


WORKLOADS = {cls.name: cls for cls in (Mixed24k, Periodic700, SplitSweep)}
