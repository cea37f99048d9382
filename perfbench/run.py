#!/usr/bin/env python3
"""ralab benchmark: three workloads, host-time metrics and a traced pass.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mixed_24k --seed 1 --seconds 40 --trace 0

Workloads (inputs generated from ``--seed``; see ``workloads.py``):

* ``mixed_24k``: 23 000 four-step devices at 0.5/s, 300 periodic two-step
  devices (50 ms) and 700 event two-step devices (6.8/s), ``n_cr=31``,
  estimator on; two seeds of 4 s simulated time pooled through
  ``ralab.cli.main --mode simulate``.
* ``periodic_700``: 700 periodic and 300 event two-step devices,
  ``n_cr=54``, estimator on; one seed of 10 s simulated time through
  ``ralab.simulator.run_scenario``.
* ``split_sweep``: ``ralab.analysis.optimize_preamble_split`` on the
  Table-IV populations at event shares 0.3, 0.5 and 0.7, pool 54,
  ``p_fail_max=1e-7``.

The load is a closed loop: one caller, one process at a time, no threads,
repetitions back to back.  Each repetition is a fresh worker process, so
every one pays and measures set-up (interpreter start, package import,
input generation and parsing, a one-slot run or first solve).  Repetitions
fill about ``--seconds`` of wall time, at least two of them.  Workers run
with a fixed glibc heap pad, so that no process pays page faults that only
its heap layout causes (see ``run_worker``).

``--trace 0`` reports the end-to-end metrics, all in host time: medians of
set-up seconds, run seconds, work items per second (simulated packets, or
split points solved on ``split_sweep``) and peak resident memory.  On
``split_sweep`` each event share is timed as its own sample, so ``run_s``
there is the sweep time per event share.  Set-up and run seconds are
scaled to a reference host speed by the probe in ``pace.py``, which times a
fixed kernel every 25 ms inside the worker: the speed a shared host gives
a process changes by up to a factor of two within seconds.  The kernel does
not use ``ralab``, so a change of the program moves scaled seconds as it
moves wall seconds.  The wall seconds and the speed factors are printed
too, and the metadata keeps them with the run's kernel time and page
faults.
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of ``BENCHMARK.json``: span counts and scaled host
seconds of each wrapped function, self time per layer, heap counts, the simulated
outputs (simulated time and signal counts, identical for a fixed seed) and
``trace.overhead_s``, the traced minus the untraced median run time.

Every output check counts as one operation; a failed check makes
``correct`` false without stopping the run.  An exception in a repetition
(the package's own ``assert``s included) is one failed check and ends the
run, which still prints its result.  The last stdout line is the
result object; the lines before it carry run metadata and every figure
with its unit.  Files land in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
import uuid
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
MIN_REPS = 2
WORKER_TIMEOUT_S = 150.0


def git_commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    # look for a repository at ROOT only, not in the directories above it
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_worker(workload: str, seed: int, rep: int, trace_id: str | None) -> dict:
    result = OUT / f"rep-{workload}-{os.getpid()}-{rep}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--result", str(result), "--rep", str(rep), "--spawned", repr(time.time())]
    if trace_id is not None:
        cmd += ["--trace", trace_id]
    # With glibc's default heap padding, whether numpy's temporaries (23 000
    # floats on split_sweep) are reused from the heap or trimmed away and
    # page-faulted in afresh on every call depends on the heap layout, which
    # the hash seed and the length of argv strings move.  About a third of
    # processes then spend a quarter more time on split_sweep.  A 16 MiB pad
    # at the top of the heap keeps every process on the first path.
    env = {**os.environ, "MALLOC_TOP_PAD_": str(16 << 20)}
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    try:
        return json.loads(result.read_text(encoding="utf-8"))
    finally:
        result.unlink()


def repetitions(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Run repetitions back to back for about ``seconds`` of wall time.

    A repetition starts while the run would end nearer to ``seconds`` with
    it than without it, judged by the wall time of the last repetition of
    the same kind; at least ``MIN_REPS`` run unless one raises, which ends
    the run.
    """
    run_id = uuid.uuid4().hex
    reps: list[dict] = []
    walls: dict[bool, float] = {}
    t0 = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        elapsed = time.perf_counter() - t0
        if len(reps) >= MIN_REPS and elapsed + walls.get(traced, 0.0) / 2 > seconds:
            return reps
        reps.append(run_worker(workload, seed, len(reps), run_id if traced else None))
        if not reps[-1]["samples"]:
            return reps
        walls[traced] = time.perf_counter() - t0 - elapsed


def operations(reps: list[dict]) -> list[dict]:
    """Every check of every repetition, plus one digest check for each
    repetition that repeats an earlier report: the same inputs must give
    bit-identical reports, traced or not."""
    ops = []
    seen: dict[str, str] = {}
    for i, rep in enumerate(reps):
        ops += [{**c, "rep": i} for c in rep["checks"]]
        digests = rep["outputs"]["digests"]
        differs = [k for k, d in digests.items() if seen.get(k, d) != d]
        if any(k in seen for k in digests):
            ops.append({"name": "traced_digest_equal" if rep["traced"] else "digest_repeat",
                        "ok": not differs, "detail": f"digests differ for {differs}",
                        "rep": i})
        for k, d in digests.items():
            seen.setdefault(k, d)
    return ops


def merged_outputs(reps: list[dict]) -> dict:
    """Outputs of all repetitions; on split_sweep each covers some shares."""
    out: dict = {}
    for rep in reps:
        for key, value in rep["outputs"].items():
            if key == "digests":
                out.setdefault(key, {}).update(value)
            else:
                out[key] = value
    return out


def run_samples(reps: list[dict]) -> list[dict]:
    return [s for r in reps for s in r["samples"]]


def end_to_end(reps: list[dict]) -> dict:
    samples = run_samples(reps)
    return {
        "setup_s": median(r["setup_s"] for r in reps),
        "run_s": median(s["run_s"] for s in samples),
        "items_per_s": median(s["items"] / s["run_s"] for s in samples),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
    }


def per_layer(plain: list[dict], traced: list[dict], names) -> dict:
    """Span figures (low median over traced repetitions, so counts stay
    whole), the simulated outputs, and the tracing overhead; a figure a
    workload does not produce reads 0."""
    fig = {k: median_low(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    fig.update((k, v) for k, v in merged_outputs(plain).items() if k != "digests")
    fig["trace.overhead_s"] = (median(s["run_s"] for s in run_samples(traced))
                               - median(s["run_s"] for s in run_samples(plain)))
    return {name: fig.get(name, 0) for name in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # exit through Python on SIGTERM, so the running worker is killed and
    # waited for on the way out
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "ralab" / "__init__.py").is_file():
        print(f"error: no ralab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    OUT.mkdir(exist_ok=True)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": sys.version.split()[0],
    }
    reps = repetitions(args.workload, args.seed, args.seconds, bool(args.trace))
    ops = operations(reps)
    failed = [op for op in ops if not op["ok"]]
    # a repetition that raised has no timings; it counts only as a failure
    done = [r for r in reps if r["samples"]]
    plain = [r for r in done if not r["traced"]]
    traced = [r for r in done if r["traced"]]
    if not plain or (args.trace and not traced):
        figures = {}  # nothing to measure; the failed check makes correct false
    elif args.trace:
        figures = per_layer(plain, traced, [m["name"] for m in declared])
    else:
        figures = end_to_end(plain)
    meta.update({
        "versions": done[0]["versions"] if done else {},
        "workload_seeds": done[0]["workload_seeds"] if done else [],
        "repetitions": len(plain),
        "traced_repetitions": len(traced),
        "operations": {"attempted": len(ops), "failed": len(failed)},
        "failed_checks": failed,
        "outputs": merged_outputs(plain),
        "run_s_samples": [s["run_s"] for s in run_samples(plain)],
        "run_wall_s_samples": [s["wall_s"] for s in run_samples(plain)],
        "setup_s_samples": [r["setup_s"] for r in plain],
        "setup_wall_s_samples": [r["setup_wall_s"] for r in plain],
        "speed_samples": [r["speed"] for r in plain],
        "run_sys_s_samples": [r["run_sys_s"] for r in plain],
        "run_minor_faults_samples": [r["run_minor_faults"] for r in plain],
    })
    metrics = {m["name"]: {"value": figures.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metadata": meta, "metrics": metrics}, indent=2), encoding="utf-8")
    print(json.dumps({"metadata": meta}))
    shown = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    if not args.trace:
        # more figures of an untraced run: its sample count, and the
        # simulated outputs, which are identical for a fixed seed
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        shown["run_s.samples"] = (len(meta["run_s_samples"]), "count")
        if plain:
            shown["run_wall_s"] = (median(meta["run_wall_s_samples"]), "s")
            shown["setup_wall_s"] = (median(meta["setup_wall_s_samples"]), "s")
            shown["host_speed"] = (median(r["speed"]["run"] for r in plain), "ratio")
        if "simulator.slots" in meta["outputs"]:
            shown["packets_per_s"] = (metrics["items_per_s"]["value"], "1/s")
        for key, value in meta["outputs"].items():
            if key in units or key.startswith("best_n_cr"):
                shown[key] = (value, units.get(key, "count"))
    for name, (value, unit) in shown.items():
        print(f"{args.workload} {name} = {value!r} {unit}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
