"""Command-line front end: simulate, analyze, optimize, validate.

Exit codes: 0 on success, 2 when a validation tolerance is missed, 1 for
scenario/argument parse errors, solver failures and a validation run too
short to expect one packet of a checked class.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path

from . import analysis, metrics, simulator
from .analysis import fourstep_params, twostep_params
from .scenario import Scenario, ScenarioError, apply_overrides, emit_scenario, read_scenario

VALIDATE_TOLERANCE = 0.10


class CliError(ValueError):
    """Bad command-line usage (mapped to exit code 1)."""


def fmt12(value: float) -> str:
    """A float at 12 significant digits (CSV cells, stdout)."""
    return format(float(value), ".12g")


def _json_ready(obj):
    """Round floats to 12 significant digits; make infinities JSON-safe."""
    if isinstance(obj, float):
        if math.isinf(obj) or math.isnan(obj):
            return str(obj)
        return float(fmt12(obj))
    if isinstance(obj, dict):
        return {key: _json_ready(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(val) for val in obj]
    return obj


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(_json_ready(payload), indent=2) + "\n", encoding="utf-8")


# ----------------------------------------------------------------------
# report files

def write_latency_ecdf(path: Path, report: metrics.MetricsReport) -> None:
    lines = ["class,latency_ms,cum_prob"]
    for name in sorted(report.classes):
        cm = report.classes[name]
        for value, prob in metrics.ecdf_points(cm.all_latency(), cm.failed):
            lines.append(f"{name},{fmt12(value)},{fmt12(prob)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_load_csv(path: Path, report: metrics.MetricsReport) -> None:
    lines = [",".join(("class",) + metrics.SIGNAL_COUNTERS)]
    for name in sorted(report.classes):
        cm = report.classes[name]
        counts = [str(getattr(cm, n)) for n in metrics.SIGNAL_COUNTERS]
        lines.append(",".join([name] + counts))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _class_summary(cm: metrics.ClassMetrics) -> dict:
    out = {n: getattr(cm, n) for n in metrics.PACKET_COUNTERS + metrics.SIGNAL_COUNTERS}
    if cm.delivered or cm.failed:
        out["quantiles"] = metrics.quantile_summary(cm)
    return out


def simulation_summary(report: metrics.MetricsReport, per_seed=()) -> dict:
    summary = {
        "duration_ms": report.duration_ms,
        "seeds": list(report.seeds),
        "classes": {name: _class_summary(cm) for name, cm in sorted(report.classes.items())},
        "load": metrics.load_accounting(report),
        "classification": {k: report.classification[k] for k in sorted(report.classification)},
        "registry_grew": report.registry_grew,
    }
    if report.period_estimates:
        n = len(report.period_estimates)
        mean = sum(report.period_estimates) / n
        var = sum((p - mean) ** 2 for p in report.period_estimates) / n
        summary["period_estimate_mean_ms"] = mean
        summary["period_estimate_variance"] = var
    if per_seed:
        summary["per_seed"] = [
            {
                "seed": rep.seeds[0],
                "classes": {
                    name: {"delivered": cm.delivered, "failed": cm.failed}
                    for name, cm in sorted(rep.classes.items())
                },
            }
            for rep in per_seed
        ]
    return summary


def write_run_report(out: Path, head: dict, pooled: metrics.MetricsReport,
                     per_seed=()) -> None:
    """Write ``latency_ecdf.csv``, ``load.csv`` and ``summary.json`` (the
    entries of ``head``, then :func:`simulation_summary`) into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    write_latency_ecdf(out / "latency_ecdf.csv", pooled)
    write_load_csv(out / "load.csv", pooled)
    write_json(out / "summary.json", {**head, **simulation_summary(pooled, per_seed)})


# ----------------------------------------------------------------------
# modes

def _mode_simulate(sc: Scenario, seeds: list[int], out: Path | None) -> int:
    pooled, per_seed = simulator.run_seeds(sc, seeds)
    if out is not None:
        write_run_report(out, {"mode": "simulate", "scenario": _scenario_dict(sc)},
                         pooled, per_seed)
    for name in sorted(pooled.classes):
        cm = pooled.classes[name]
        if cm.generated == 0:
            continue
        q = metrics.satisfiable_latency(cm.all_latency(), 0.99999, cm.failed) \
            if (cm.delivered or cm.failed) else None
        q_text = fmt12(q.latency_ms) if q is not None else "n/a"
        counts = " ".join(f"{n}={getattr(cm, n)}" for n in metrics.PACKET_COUNTERS)
        print(f"{name}: {counts} q99.999={q_text}")
    return 0


def _mode_analyze(sc: Scenario, out: Path | None) -> int:
    result: dict = {}
    fp = fourstep_params(sc)
    if fp is not None:
        sol = analysis.solve_fourstep(fp)
        result["fourstep"] = {
            "tau": sol.tau,
            "rho_col": sol.rho_col,
            "p_fail": analysis.failure_probability(sol),
            "load_per_ue_per_ms": analysis.load_fourstep(sol),
            "total_probability": sol.total_probability,
        }
    tp = twostep_params(sc)
    if tp is not None:
        sol = analysis.solve_twostep(tp)
        result["twostep"] = {
            "load_per_ue_per_ms": analysis.load_twostep(sol, tp),
            "total_probability": sol.total_probability,
        }
    if not result:
        raise CliError("analyze needs a non-empty device population")
    summary = {"mode": "analyze", "scenario": _scenario_dict(sc), **result}
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "summary.json", summary)
    for proc in ("fourstep", "twostep"):
        if proc in result:
            line = " ".join(f"{k}={fmt12(v)}" for k, v in result[proc].items())
            print(f"{proc}: {line}")
    return 0


def _mode_optimize(sc: Scenario, grid: tuple[int, int] | None, out: Path | None) -> int:
    fp = fourstep_params(sc)
    tp = twostep_params(sc)
    if fp is None and tp is None:
        raise CliError("optimize needs a non-empty device population")
    n_pool = sc.n_total - sc.n_cf
    kwargs = {}
    if grid is not None:
        if grid[1] > n_pool:
            raise CliError(
                f"--grid n_cr={grid[0]}..{grid[1]} exceeds the preamble pool "
                f"(n_total - n_cf = {n_pool})"
            )
        kwargs = {"n_cr_min": grid[0], "n_cr_max": grid[1]}
    result = analysis.optimize_preamble_split(fp, tp, n_pool=n_pool, **kwargs)
    best = result.point(result.best_n_cr)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        lines = ["n_cr,n_cb,feasible,p_fail,load_fourstep,load_twostep,objective"]
        for pt in result.points:
            lines.append(
                f"{pt.n_cr},{pt.n_cb},{int(pt.feasible)},{fmt12(pt.p_fail)},"
                f"{fmt12(pt.load_fourstep)},{fmt12(pt.load_twostep)},{fmt12(pt.objective)}"
            )
        (out / "split.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        write_json(out / "summary.json", {
            "mode": "optimize",
            "scenario": _scenario_dict(sc),
            "n_cr_star": result.best_n_cr,
            "n_cb_at_star": best.n_cb,
            "objective_at_star": best.objective,
            "p_fail_at_star": best.p_fail,
        })
    print(f"n_cr* = {result.best_n_cr}")
    print(
        f"n_cb = {best.n_cb} objective = {fmt12(best.objective)} "
        f"p_fail = {fmt12(best.p_fail)}"
    )
    return 0


def _mode_validate(sc: Scenario, seeds: list[int], out: Path | None) -> int:
    """Cross-check simulated per-device load against the stationary model."""
    fp = fourstep_params(sc)
    tp = twostep_params(sc)
    if fp is None and tp is None:
        raise CliError("validate needs a non-empty device population")
    per_ms = [("fourstep", fp.n_ue * fp.rate_per_ms)] if fp is not None else []
    if tp is not None:
        per_ms.append(("twostep_event", tp.n_event * tp.rate_per_ms))
    for name, rate in per_ms:
        expected = rate * sc.duration_ms * len(seeds)
        if expected < 1:
            # a relative error cannot resolve a load the run does not see
            raise CliError(f"validate expects {fmt12(expected)} {name} packets "
                           "over the run, fewer than 1")
    pooled, per_seed = simulator.run_seeds(sc, seeds)
    load = metrics.load_accounting(pooled)
    checks = []
    if fp is not None:
        predicted = analysis.load_fourstep(analysis.solve_fourstep(fp))
        checks.append(("fourstep", load["fourstep"]["signals_per_ue_per_ms"], predicted))
    if tp is not None:
        predicted = analysis.load_twostep(analysis.solve_twostep(tp), tp)
        checks.append(
            ("twostep_event", load["twostep_event"]["signals_per_ue_per_ms"], predicted)
        )
    all_ok = True
    results = []
    for name, simulated, predicted in checks:
        rel = abs(simulated - predicted) / predicted
        ok = rel <= VALIDATE_TOLERANCE
        all_ok = all_ok and ok
        results.append({
            "class": name, "simulated": simulated, "predicted": predicted,
            "rel_err": rel, "pass": ok,
        })
        print(
            f"{'PASS' if ok else 'FAIL'} {name}: simulated={fmt12(simulated)} "
            f"predicted={fmt12(predicted)} rel_err={fmt12(rel)}"
        )
    if out is not None:
        write_run_report(out, {"mode": "validate", "scenario": _scenario_dict(sc),
                               "tolerance": VALIDATE_TOLERANCE, "checks": results},
                         pooled, per_seed)
    return 0 if all_ok else 2


def _scenario_dict(sc: Scenario) -> dict:
    entries = {}
    for line in emit_scenario(sc).splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


# ----------------------------------------------------------------------
# argument handling

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1, not argparse's default 2
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ralab", description=__doc__)
    parser.add_argument("--mode", required=True,
                        choices=("simulate", "analyze", "optimize", "validate"))
    parser.add_argument("--scenario", type=Path, help="scenario file (defaults apply)")
    parser.add_argument("--seed", type=int, nargs="+",
                        help="one run per seed; results are pooled")
    parser.add_argument("--out", type=Path, help="directory for report files")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE", help="override a scenario key")
    parser.add_argument("--duration-ms", type=float, help="override the run length")
    parser.add_argument("--grid", help="optimizer sweep range, e.g. n_cr=2..36")
    return parser


def _parse_grid(text: str) -> tuple[int, int]:
    match = re.fullmatch(r"n_cr=(\d+)\.\.(\d+)", text.strip())
    if match is None:
        raise CliError(f"--grid expects n_cr=A..B, got {text!r}")
    lo, hi = int(match.group(1)), int(match.group(2))
    if lo > hi:
        raise CliError(f"--grid range is empty: {text!r}")
    return lo, hi


def prepare(argv):
    """Parse a command line and load what it describes, running nothing.

    Returns ``(args, scenario, seeds, grid)``: the scenario file (or the
    defaults) with every ``--set`` and ``--duration-ms`` applied, the seeds
    (the scenario's own when none are given) and the optimizer range.
    """
    args = _build_parser().parse_args(argv)
    sc = read_scenario(args.scenario) if args.scenario else Scenario()
    if args.overrides:
        sc = apply_overrides(sc, args.overrides)
    if args.duration_ms is not None:
        sc = apply_overrides(sc, [f"duration_ms={args.duration_ms!r}"])
    seeds = args.seed if args.seed else [sc.seed]
    for i, seed in enumerate(seeds):
        if not 0 <= seed < 2 ** 64:
            raise CliError(f"seed {seed} outside [0, 2^64)")
        if seed in seeds[:i]:
            # pooling one run twice would double every count
            raise CliError(f"seed {seed} given more than once")
    grid = _parse_grid(args.grid) if args.grid else None
    return args, sc, seeds, grid


def main(argv=None) -> int:
    try:
        args, sc, seeds, grid = prepare(argv)
        if args.mode == "simulate":
            return _mode_simulate(sc, seeds, args.out)
        if args.mode == "analyze":
            return _mode_analyze(sc, args.out)
        if args.mode == "optimize":
            return _mode_optimize(sc, grid, args.out)
        return _mode_validate(sc, seeds, args.out)
    except (CliError, ScenarioError, analysis.ModelInputError, analysis.SolverError,
            analysis.InfeasibleError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
