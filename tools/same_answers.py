#!/usr/bin/env python3
"""Same answers: hash every output of a fixed list of CLI runs.

Usage, from anywhere::

    python3 tools/same_answers.py --write MANIFEST [--root CHECKOUT]
    python3 tools/same_answers.py --check MANIFEST [--root CHECKOUT]

The command list covers every scenario in ``CHECKOUT/scenarios``:

* ``simulate --seed 1 2 --duration-ms 20000``, as given and again with
  ``--set traffic.twostep.period_ms=47`` (off the frame grid);
* ``analyze`` and ``optimize`` as given;
* ``simulate --seed 1 2 --duration-ms 500`` on ``full_scale.scn``, where
  most four-step devices first arrive past the horizon;
* ``validate`` on ``crossval_fourstep.scn``.

Each run gets its own ``--out`` directory and runs ``python -m ralab.cli``
on the checkout's own ``src/``, in a scratch directory that holds a copy of
the scenarios, so no output names a path of the checkout.  ``--write``
records each run's exit code and the sha256 of its stdout, its stderr and
every file under its ``--out`` directory.  ``--check`` runs the list
again and names every output whose hash differs from the manifest's, or
that only one side has; it exits 1 if any does, else 0.  Only the standard
library is used.  Exact hashes depend on the platform's libm and numpy
build, so compare manifests made on one host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIM_ARGS = ("--seed", "1", "2", "--duration-ms", "20000")
OFF_GRID = ("--set", "traffic.twostep.period_ms=47")
SHORT_ARGS = ("--seed", "1", "2", "--duration-ms", "500")


def commands(scenarios) -> list[tuple[str, list[str]]]:
    """(run name, CLI arguments) of every run, for the given scenario names
    (file names under ``scenarios/``)."""
    runs = []
    for name in sorted(scenarios):
        scn = ["--scenario", f"scenarios/{name}"]
        stem = Path(name).stem
        runs.append((f"simulate/{stem}", ["--mode", "simulate", *scn, *SIM_ARGS]))
        runs.append((f"simulate_47ms/{stem}",
                     ["--mode", "simulate", *scn, *SIM_ARGS, *OFF_GRID]))
        runs.append((f"analyze/{stem}", ["--mode", "analyze", *scn]))
        runs.append((f"optimize/{stem}", ["--mode", "optimize", *scn]))
        if stem == "full_scale":
            runs.append(("simulate/full_scale_short",
                         ["--mode", "simulate", *scn, *SHORT_ARGS]))
    runs.append(("validate/crossval_fourstep",
                 ["--mode", "validate", "--scenario", "scenarios/crossval_fourstep.scn"]))
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def hash_outputs(stdout: bytes, stderr: bytes, out_dir: Path) -> dict[str, str]:
    """sha256 of the streams and of every file under ``out_dir``, keyed by
    ``stdout``, ``stderr`` and ``out/<path relative to out_dir>``."""
    hashes = {"stdout": sha256(stdout), "stderr": sha256(stderr)}
    if out_dir.is_dir():
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            hashes[f"out/{path.relative_to(out_dir).as_posix()}"] = sha256(path.read_bytes())
    return hashes


def run_all(root: Path, work: Path) -> dict:
    """Run every command on ``root``'s sources inside ``work``; the manifest."""
    shutil.copytree(root / "scenarios", work / "scenarios")
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    runs = {}
    for name, args in commands(p.name for p in (root / "scenarios").glob("*.scn")):
        out_dir = work / "out" / name
        proc = subprocess.run(
            [sys.executable, "-m", "ralab.cli", *args, "--out", str(out_dir.relative_to(work))],
            cwd=work, env=env, capture_output=True, check=False,
        )
        runs[name] = {"argv": args, "exit": proc.returncode,
                      "outputs": hash_outputs(proc.stdout, proc.stderr, out_dir)}
        print(f"{name}: exit {proc.returncode}, {len(runs[name]['outputs'])} outputs",
              file=sys.stderr)
    return {"runs": runs}


def compare(expected: dict, actual: dict) -> list[str]:
    """Every ``<run>: <output>`` that differs between two manifests, an
    output or run that only one side has included."""
    diffs = []
    want, got = expected["runs"], actual["runs"]
    for name in sorted(want.keys() | got.keys()):
        if name not in got or name not in want:
            diffs.append(f"{name}: run only in the {'manifest' if name in want else 'check'}")
            continue
        a, b = want[name], got[name]
        if a["exit"] != b["exit"]:
            diffs.append(f"{name}: exit {a['exit']} != {b['exit']}")
        for key in sorted(a["outputs"].keys() | b["outputs"].keys()):
            if a["outputs"].get(key) != b["outputs"].get(key):
                diffs.append(f"{name}: {key}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", type=Path, metavar="MANIFEST")
    mode.add_argument("--check", type=Path, metavar="MANIFEST")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="checkout whose src/ and scenarios/ run (default: this one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same-answers-") as tmp:
        manifest = run_all(args.root.resolve(), Path(tmp))
    if args.write is not None:
        args.write.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
        return 0
    diffs = compare(json.loads(args.check.read_text(encoding="utf-8")), manifest)
    for line in diffs:
        print(f"differs: {line}")
    print(f"{len(manifest['runs'])} runs, {len(diffs)} differing outputs")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
