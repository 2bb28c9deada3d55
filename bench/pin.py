"""Regenerate bench/pinned.json from the current source tree.

Run from the repository root (about six minutes on two cores):

    PYTHONPATH=src OPENBLAS_NUM_THREADS=2 python3 bench/pin.py

Pins the table1-bundled rows (independent of the seed, which only moves
Krylov start vectors), the large-sector m_s = 0 sectors (the seed only draws
the spin-orbit couplings), the spin-orbit levels of large-sector for the
seeds in PINNED_SEEDS, and the small m_s = 0 sectors of soc-sweep.  Re-pin
only for a change that is meant to move these numbers, and say so in the
change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checker
import workloads

PINNED_SEEDS = range(10)
TABLE1_KEYS = ("cutoff", "convergence_history", "gamma1_mev", "gamma2_mev", "p_u", "p_g",
               "lambda_u0_mev", "lambda_g0_mev") + checker.SOC_KEYS
SECTOR_KEYS = ("cutoff", "gamma1_mev", "gamma2_mev", "p_u", "p_g")


def _run(op):
    out = op.run()
    errors = op.check(out)
    if errors:
        raise SystemExit(f"{op.key}: {errors}")
    return out


def main() -> int:
    work = Path(".bench_work") / "pin"
    shutil.rmtree(work, ignore_errors=True)
    checker._pins = {}  # check invariants only while pinning
    pinned: dict = {"table1-bundled": {}, "large-sector": {"seeds": {}}, "soc-sweep": {}}

    for op in workloads.Table1Bundled(0, work / "t1").ops():
        spectrum = _run(op)["spectrum"]
        pinned["table1-bundled"][op.key] = {
            "report": {k: spectrum["report"][k] for k in TABLE1_KEYS},
            **checker.sector_summary(spectrum),
        }
        print(op.key, "table1 pinned", file=sys.stderr)

    large = pinned["large-sector"]
    for seed in PINNED_SEEDS:
        large["seeds"][str(seed)] = {}
        for op in workloads.LargeSector(seed, work / f"ls{seed}").ops():
            spectrum = checker.read_spectrum(_run(op)["outdir"])
            fixed = {"report": {k: spectrum["report"][k] for k in SECTOR_KEYS},
                     **checker.sector_summary(spectrum)}
            if op.key in large:
                errors = checker.check_pinned(spectrum, large[op.key], calibrated=False)
                if errors:
                    raise SystemExit(f"large-sector {op.key} depends on the seed: {errors}")
            else:
                large[op.key] = fixed
            large["seeds"][str(seed)][op.key] = {
                "report": {k: spectrum["report"][k] for k in checker.SOC_KEYS},
                "energies_ms1": [lv["energy_mev"] for lv in spectrum["levels"]
                                 if lv["m_s"] == 1],
            }
            print(op.key, "large-sector seed", seed, "pinned", file=sys.stderr)

    sweep = workloads.SocSweep(0, work / "sweep")
    for defect, _ in sweep.cases:
        sol = workloads.analysis.solve_sector(
            workloads.params.pes_to_couplings(defect), defect.lambda_corr,
            workloads.SWEEP_CUTOFF, opts=sweep.opts,
        )
        pinned["soc-sweep"][defect.name] = {
            "labels": [s.irrep for s in sol.states],
            "energies": [float(f"{e:.10g}") for e in sol.energies],
        }

    checker.PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
