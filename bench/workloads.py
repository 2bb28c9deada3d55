"""Seeded inputs and operations of the four benchmark workloads.

A workload is built from a seed and a scratch directory; building it is the
set-up (inputs generated, written and parsed).  ``ops()`` then returns the
fixed list of operations that make up one pass.  Each operation runs the
package on the generated inputs only, and carries its own output check and
an output digest for the determinism check.

Package functions are always looked up as module attributes at call time,
so a traced run sees every call the benchmark makes.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import re
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import spinvibronic
from spinvibronic import analysis, cli, config, defaults, params, pes

import checker

# bare lambda_g0 (meV) that the bundled configs calibrate to at their
# converged cutoff; the spin-orbit grids and draws are placed relative to it
CALIBRATED_LAMBDA_G0 = {"SiV0": 1.803, "GeV0": 9.245, "SnV0": 24.44, "PbV0": 58.41}

LARGE_SECTOR_DEFECTS = ("SnV0", "PbV0")
LARGE_SECTOR_CUTOFF = 36  # dim 2812, above the bundled dense threshold of 1500
SWEEP_CUTOFF = 12  # dim 364
SWEEP_POINTS = 40
SWEEP_RATIO = 3.5
FIT_GUESSES = 16  # fits per defect and pass
FIT_NOISE_MEV = 0.05
FIT_GRID = np.linspace(-2.0, 3.2, 53)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` and ``digest`` are not."""

    key: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str]


def bundled_configs() -> list[Path]:
    return sorted((Path(spinvibronic.__file__).parent / "data" / "configs").glob("*.conf"))


def bytes_written(work: Path) -> int:
    """Size of the report files the last pass left under ``work/out``."""
    out = work / "out"
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) if out.is_dir() else 0


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p)
    return h.hexdigest()


def _quiet(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Table1Bundled:
    """``spinvib table1`` on copies of the bundled configs, one defect row per op."""

    name = "table1-bundled"

    def __init__(self, seed: int, work: Path):
        self.rows = []
        for src in bundled_configs():
            text, n = re.subn(r"(?m)^seed\s*=.*$", f"seed = {seed}", src.read_text())
            if n != 1:
                raise ValueError(f"{src.name}: expected one [solver] seed line")
            indir = work / "inputs" / src.stem
            indir.mkdir(parents=True, exist_ok=True)
            (indir / src.name).write_text(text)
            cfg = config.parse_config(indir / src.name)
            self.rows.append((cfg, indir, work / "out" / src.stem))

    def ops(self) -> list[Op]:
        return [self._op(*row) for row in self.rows]

    def _op(self, cfg, indir: Path, outdir: Path) -> Op:
        def run():
            # keep the full-precision report behind the 6-digit table1 row
            captured = []
            inner = cli.run_report

            def capture(*a, **kw):
                captured.append(inner(*a, **kw))
                return captured[-1]

            cli.run_report = capture
            try:
                rc = _quiet(["table1", str(indir), "--out", str(outdir)])
            finally:
                cli.run_report = inner
            report = captured[-1] if captured else None
            return {
                "exit_code": rc,
                "table1": checker.read_csv(outdir / "table1.csv"),
                "table1_bytes": (outdir / "table1.csv").read_bytes(),
                "spectrum": None if report is None else checker.spectrum_from_report(report),
            }

        def check(out):
            errors = [] if out["exit_code"] == 0 else [f"exit code {out['exit_code']}"]
            return errors + checker.check_table1(out, cfg.defect.name,
                                                 cfg.soc.target_lambda_eff_mev)

        def digest(out):
            return _sha(out["table1_bytes"], json.dumps(out["spectrum"], sort_keys=True).encode())

        return Op(cfg.defect.name, 1, run, check, digest)


class LargeSector:
    """``spinvib solve`` at a fixed large cutoff with seeded explicit spin-orbit."""

    name = "large-sector"

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.cases = []
        for src in bundled_configs():
            cp = configparser.ConfigParser()
            cp.read_string(src.read_text())
            defect = cp["defect"]["name"]
            if defect not in LARGE_SECTOR_DEFECTS:
                continue
            # narrow draws and the bundled solver seed keep the Krylov work
            # per run close to seed-independent
            lg = CALIBRATED_LAMBDA_G0[defect] * rng.uniform(0.9, 1.1)
            lu = lg * rng.uniform(3.3, 3.7)
            cp["solver"]["converge"] = "false"
            cp["solver"]["cutoff"] = str(LARGE_SECTOR_CUTOFF)
            cp["soc"] = {"mode": "explicit", "lambda_u0_mev": f"{lu:.6f}",
                         "lambda_g0_mev": f"{lg:.6f}"}
            path = work / "inputs" / f"{src.stem}.conf"
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w", encoding="utf-8") as fh:
                cp.write(fh)
            cfg = config.parse_config(path)
            self.cases.append((cfg, path, work / "out" / src.stem))

    def ops(self) -> list[Op]:
        return [self._op(*case) for case in self.cases]

    def _op(self, cfg, path: Path, outdir: Path) -> Op:
        def run():
            rc = _quiet(["solve", str(path), "--out", str(outdir)])
            return {"exit_code": rc, "outdir": outdir}

        def check(out):
            if out["exit_code"] != 0:
                return [f"exit code {out['exit_code']}"]
            spectrum = checker.read_spectrum(out["outdir"])
            return checker.check_large_sector(
                spectrum, cfg.defect.name, (cfg.soc.lambda_u0_mev, cfg.soc.lambda_g0_mev),
                self.seed,
            )

        def digest(out):
            return _sha(*((out["outdir"] / f).read_bytes() for f in checker.REPORT_FILES))

        return Op(cfg.defect.name, 1, run, check, digest)


class SocSweep:
    """lambda_eff response over a seeded spin-orbit grid, one small sector per defect."""

    name = "soc-sweep"

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.opts = analysis.SolverOptions(k=10, dense_threshold=1500, seed=seed)
        self.cases = []
        for name, d in defaults.DEFECTS.items():
            frac = 0.02 + 1.48 * (np.arange(SWEEP_POINTS)
                                  + rng.uniform(0.1, 0.9, SWEEP_POINTS)) / SWEEP_POINTS
            self.cases.append((d, CALIBRATED_LAMBDA_G0[name] * frac))

    def ops(self) -> list[Op]:
        return [self._op(d, grid) for d, grid in self.cases]

    def _op(self, defect, grid: np.ndarray) -> Op:
        def run():
            sol = analysis.solve_sector(
                params.pes_to_couplings(defect), defect.lambda_corr, SWEEP_CUTOFF,
                opts=self.opts,
            )
            levels = [analysis.soc_levels(sol, SWEEP_RATIO * s, s, self.opts) for s in grid]
            return {"sol": sol, "levels": levels}

        def check(out):
            return checker.check_sweep(
                out["sol"], grid, [lv.lambda_eff for lv in out["levels"]], SWEEP_RATIO,
                defect.name,
            )

        def digest(out):
            values = [out["sol"].energies] + [
                np.concatenate([[lv.lambda_eff, lv.gamma2_soc], lv.sector_energies[1]])
                for lv in out["levels"]
            ]
            return _sha(*(np.asarray(v, dtype=float).round(9).tobytes() for v in values))

        return Op(defect.name, len(grid), run, check, digest)


class PesFit:
    """Surface scan -> CSV -> ``fit_pes`` round trips with seeded noise and guesses."""

    name = "pes-fit"

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng(seed)
        self.cases = []
        (work / "scans").mkdir(parents=True, exist_ok=True)
        for name, d in defaults.DEFECTS.items():
            for j in range(FIT_GUESSES):
                jitter = lambda x: x * (1.0 + 0.1 * rng.uniform(-1.0, 1.0))  # noqa: E731
                guess = replace(
                    d,
                    hbar_omega_e=jitter(d.hbar_omega_e),
                    lambda_corr=jitter(d.lambda_corr),
                    e_jt=tuple(jitter(x) for x in d.e_jt),
                    delta_jt=tuple(jitter(x) for x in d.delta_jt),
                )
                noise = rng.normal(0.0, FIT_NOISE_MEV, (FIT_GRID.size, 4))
                self.cases.append((d, guess, noise, work / "scans" / f"{name}-{j}.csv"))

    def ops(self) -> list[Op]:
        return [self._op(*case) for case in self.cases]

    def _op(self, truth, guess, noise: np.ndarray, path: Path) -> Op:
        def run():
            curve = pes.adiabatic_surfaces(
                params.pes_to_couplings(truth), truth.lambda_corr, "e-raised", FIT_GRID
            )
            noisy = pes.PesCurve(qx=FIT_GRID, energies=np.sort(curve.energies, axis=1) + noise)
            pes.write_pes_csv(noisy, path)
            return pes.fit_pes(pes.read_pes_csv(path), guess)

        def check(fit):
            return checker.check_fit(fit, truth, FIT_NOISE_MEV)

        def digest(fit):
            p = fit.params
            values = [p.hbar_omega_e, p.lambda_corr, *p.e_jt, *p.delta_jt, fit.offset]
            return _sha(" ".join(f"{v:.9g}" for v in values).encode())

        return Op(path.stem, 1, run, check, digest)


WORKLOADS = {w.name: w for w in (Table1Bundled, LargeSector, SocSweep, PesFit)}
