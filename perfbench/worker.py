"""One benchmark repetition in a fresh process.

Started by ``run.py`` as ``python3 perfbench/worker.py --workload W --seed N
--spawned T --result PATH --rep K [--trace RUN_ID]``.  Set-up time runs from
the parent's spawn timestamp ``T`` until the inputs are built and the first
one-slot run or solve is done, so it includes interpreter start and the
package import.  A host-speed probe (``pace.py``) runs from before the
heavy imports to the end of the timed run; set-up and run times are reported
both as wall seconds and scaled to the probe's reference speed.  The result
is written as JSON to ``PATH``.  An exception in set-up, run or checks is
recorded as one failed check, with its traceback, and the repetition then
reports no timings.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from pace import Probe

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"


def traced_figures(tracer, heap, scale: float) -> dict:
    """Per-layer figures from the spans of one traced run; span times are
    multiplied by ``scale``, the run's scaled over its wall seconds."""
    import numpy as np
    from spans import durations, layer_self_time, span_totals

    totals = span_totals(tracer.names, *tracer.arrays())
    layers = layer_self_time(totals)
    fig = {}
    for name, row in totals.items():
        fig[f"{name}.calls"] = row["calls"]
        fig[f"{name}.s"] = row["s"] * scale
    for layer in ("estimator", "simulator", "cli"):
        fig[f"{layer}.self_s"] = layers.get(layer, 0.0) * scale
    fig["simulator.heappush.calls"] = heap.pushes
    fig["simulator.heappop.calls"] = heap.pops
    solves = durations(tracer, "analysis.solve_fourstep") * (1e3 * scale)
    p50, p90 = (np.quantile(solves, (0.5, 0.9), method="inverted_cdf") if len(solves)
                else (0.0, 0.0))
    fig["analysis.solve_fourstep.p50_ms"] = float(p50)
    fig["analysis.solve_fourstep.p90_ms"] = float(p90)
    n_solves = totals["analysis.solve_fourstep"]["calls"]
    fig["analysis.collision_evals_per_solve"] = (
        totals["analysis.collision_probability"]["calls"] / n_solves if n_solves else 0.0)
    return fig


def measure(wl, spawned: float, trace_id: str | None, probe: Probe) -> dict:
    """Set up, run and check one workload; the repetition's result."""
    from spans import CountingHeapq, Tracer, patched

    wl.setup()
    setup_wall_s = time.time() - spawned
    # speed and probe time since the probe started, before the heavy imports
    setup_s, setup_speed = probe.scaled(setup_wall_s, (0, 0.0))

    tracer = heap = None
    replacements = []
    if trace_id is not None:
        tracer = Tracer(trace_id)
        heap = CountingHeapq()
        replacements = [(owner, attr, tracer.wrap(span, getattr(owner, attr)))
                        for owner, attr, span in wl.trace_targets()]
        replacements.append((wl.simulator, "heapq", heap))
    with patched(replacements):
        since = probe.mark()
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        result = wl.run()
        run_wall_s = time.perf_counter() - t0
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
    probe.stop()
    run_s, run_speed = probe.scaled(run_wall_s, since)
    scale = run_s / run_wall_s

    checks = wl.checks(result)
    outputs = wl.outputs_of(result)
    out = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "speed": {"setup": setup_speed, "run": run_speed},
        "samples": [{**smp, "run_s": smp["wall_s"] * scale}
                    for smp in wl.samples(run_wall_s, outputs)],
        "peak_rss_mb": usage1.ru_maxrss / 1024.0,
        # kernel time and page faults of the run, which the probe cannot see
        "run_sys_s": usage1.ru_stime - usage0.ru_stime,
        "run_minor_faults": usage1.ru_minflt - usage0.ru_minflt,
        "outputs": outputs,
        "workload_seeds": getattr(wl, "seeds", []),
        "versions": wl.versions(),
    }
    if tracer is not None:
        fig = traced_figures(tracer, heap, scale)
        for span in wl.expected_spans:
            calls = fig.get(f"{span}.calls", 0)
            checks.append((f"spans_recorded:{span}", calls > 0, f"{calls} calls"))
        out["layers"] = fig
        tracer.write(OUT / f"spans-{wl.name}.npz")
    out["checks"] = [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in checks]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--rep", type=int, default=0, help="repetition number")
    parser.add_argument("--trace", default=None, help="run id; traces this run")
    args = parser.parse_args(argv)

    # The heavy imports (numpy, then the package) are part of set-up, so
    # they come after the probe's start.
    probe = Probe().start()
    from workloads import WORKLOADS

    # the checkout's own sources, ahead of anything installed
    sys.path.insert(0, str(ROOT / "src"))
    wl = WORKLOADS[args.workload](args.seed, OUT, args.rep, args.trace is not None)
    try:
        out = measure(wl, args.spawned, args.trace, probe)
    except Exception:
        out = {"samples": [], "outputs": {"digests": {}},
               "checks": [{"name": "worker_raised", "ok": False,
                           "detail": traceback.format_exc()[-4000:]}]}
    finally:
        probe.stop()
    out["traced"] = args.trace is not None
    args.result.write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
