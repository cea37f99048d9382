#!/usr/bin/env python3
"""Cross-validate per-device signaling load: Monte Carlo vs stationary model.

Sweeps the four-step population over preamble splits and the two-step
event population over its default cell layout, printing relative errors.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ralab import analysis
from ralab.scenario import Scenario
from ralab.simulator import run_scenario


def fourstep_point(n_ue: int, n_cr: int, duration_ms: float, seed: int):
    sc = Scenario(duration_ms=duration_ms, n_cr=n_cr, detection="model",
                  fourstep_n_ue=n_ue, fourstep_rate_per_s=1.0)
    cm = run_scenario(sc, seed=seed).classes["fourstep"]
    simulated = cm.signals_total / (n_ue * duration_ms)
    predicted = analysis.load_fourstep(
        analysis.solve_fourstep(analysis.fourstep_params(sc)))
    return cm.generated, simulated, predicted


def twostep_point(n_ed: int, n_cr: int, duration_ms: float, seed: int):
    sc = Scenario(duration_ms=duration_ms, n_cr=n_cr, n_total=100,
                  estimator_mode="off", detection="model",
                  twostep_n_event=n_ed, twostep_event_rate_per_s=6.8)
    cm = run_scenario(sc, seed=seed).classes["twostep_event"]
    simulated = cm.signals_total / (n_ed * duration_ms)
    params = analysis.twostep_params(sc)
    predicted = analysis.load_twostep(analysis.solve_twostep(params), params)
    return cm.generated, simulated, predicted


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--packets", type=float, default=1e6,
                        help="minimum simulated packets per point")
    args = parser.parse_args()

    print("procedure  population  n_cr  packets    sim_load      model_load    rel_err")
    worst = 0.0
    for n_ue in (500, 1000):
        for n_cr in (20, 30, 36):
            duration = 1000.0 * args.packets / n_ue / 1.0
            t0 = time.time()
            generated, sim, ana = fourstep_point(n_ue, n_cr, duration, args.seed)
            rel = abs(sim - ana) / ana
            worst = max(worst, rel)
            print(f"four-step  {n_ue:>10}  {n_cr:>4}  {generated:>8}  "
                  f"{sim:.6e}  {ana:.6e}  {rel:7.2%}  ({time.time()-t0:.0f}s)")
    for n_ed in (30, 70):
        duration = 1000.0 * args.packets / n_ed / 6.8
        t0 = time.time()
        generated, sim, ana = twostep_point(n_ed, 4, duration, args.seed)
        rel = abs(sim - ana) / ana
        worst = max(worst, rel)
        print(f"two-step   {n_ed:>10}  {4:>4}  {generated:>8}  "
              f"{sim:.6e}  {ana:.6e}  {rel:7.2%}  ({time.time()-t0:.0f}s)")
    print(f"worst relative error: {worst:.2%}")
    return 0 if worst <= 0.10 else 2


if __name__ == "__main__":
    sys.exit(main())
