"""Report assembly: one defect in, one structured result set out.

run_report drives the whole pipeline for a RunConfig: optional cutoff
convergence, the first- and second-order splittings, quenching factors,
spin-orbit observables (explicit couplings or calibrated to a target), state
tables and level-diagram data.  The cutoff sweep converges the gamma of the
model's own order, and that order is the sweep's solution or else one
solve_sector at the reported cutoff.  The other order gives only its gamma,
from analysis.block_minima: the lowest pair of each of its blocks cut to
the lowest k, the route the sweep confirms its cutoffs by.  So each
distinct sector is solved once, and only for the pairs the report reads.
write_all emits report.json and then every CSV file of REPORT_CSVS, in
deterministic JSON and CSV (fixed float formatting, no timestamps), so
identical configurations produce byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import (
    SectorSolution,
    SocLevels,
    SolverOptions,
    block_minima,
    calibrate_soc,
    converge_observable,
    reduction_factors,
    soc_levels,
    solution_gamma,
    solve_sector,
)
from .config import RunConfig, SOC_CALIBRATE, SOC_EXPLICIT
from .hamiltonian import SectorSpec
from .params import couplings_for_order
from .symmetry import composition_table_rows


@dataclass
class SpectrumReport:
    """Headline numbers plus the level tables backing them."""

    defect: str
    preset: str
    order: int
    cutoff: int
    coupling_strength: float
    gamma1: float
    gamma2: float
    p_u: float
    p_g: float
    soc: SocLevels | None = None  # None when spin-orbit is off
    zpl_baseline_ev: float | None = None
    convergence_history: list[tuple[int, float]] = field(default_factory=list)
    levels: list[dict] = field(default_factory=list)
    composition: list[dict] = field(default_factory=list)
    level_diagram: list[dict] = field(default_factory=list)

    def validate(self) -> None:
        """Sanity bounds that hold for any physical parameter set."""
        if not (0.0 <= self.p_u <= 1.0 and 0.0 <= self.p_g <= 1.0):
            raise ValueError(f"quenching factors outside [0, 1]: {self.p_u}, {self.p_g}")
        if self.coupling_strength <= 0:
            raise ValueError("coupling strength must be positive")
        # gamma2_soc comes from the model's own order, so it is bounded by that order's gamma
        gamma = self.gamma1 if self.order == 1 else self.gamma2
        if self.soc is not None and self.soc.gamma2_soc > gamma + self.soc.lambda_eff + 1e-9:
            raise ValueError("gamma2 with spin-orbit exceeds the triangle bound")

    def to_dict(self) -> dict:
        out = {
            "defect": self.defect,
            "preset": self.preset,
            "order": self.order,
            "cutoff": self.cutoff,
            "coupling_strength": _r(self.coupling_strength),
            "gamma1_mev": _r(self.gamma1),
            "gamma2_mev": _r(self.gamma2),
            "p_u": _r(self.p_u),
            "p_g": _r(self.p_g),
        }
        if self.convergence_history:
            out["convergence_history"] = [[n, _r(v)] for n, v in self.convergence_history]
        soc = self.soc
        if soc is not None:
            out.update(
                {
                    "lambda_u0_mev": _r(soc.lambda_u0),
                    "lambda_g0_mev": _r(soc.lambda_g0),
                    "lambda_eff_mev": _r(soc.lambda_eff),
                    "gamma2_soc_mev": _r(soc.gamma2_soc),
                    "gamma2_soc_ms0_mev": _r(soc.gamma2_soc_ms0),
                    "a2u_ms_split_mev": _r(soc.a2u_ms_split),
                    "zpl_shift_ev": _r(soc.zpl_shift_ev),
                }
            )
            if self.zpl_baseline_ev is not None:
                out["zpl_baseline_ev"] = _r(self.zpl_baseline_ev)
                out["zpl_with_soc_ev"] = _r(self.zpl_baseline_ev + soc.zpl_shift_ev)
        return out


def _r(x: float | None) -> float | None:
    """Round for stable serialization at the reported 10 significant digits."""
    return None if x is None else float(f"{x:.10g}")


def solver_options(cfg: RunConfig) -> SolverOptions:
    s = cfg.solver
    return SolverOptions(k=s.k, tol=s.residual_tol, seed=s.seed)


def _level_rows(sol: SectorSolution, soc: SocLevels | None) -> list[dict]:
    rows = []
    e0_global = float(sol.energies[0])
    if soc is not None:
        e0_global = min(e0_global, min(float(v[0]) for v in soc.sector_energies.values()))
    sectors = {0: sol.energies} if soc is None else soc.sector_energies
    for m_s in sorted(sectors):
        energies = sectors[m_s]
        for i, e in enumerate(energies):
            rows.append(
                {
                    "m_s": m_s,
                    "index": i,
                    "energy_mev": _r(float(e)),
                    "energy_rel_mev": _r(float(e) - e0_global),
                    "label": sol.states[i].irrep if m_s == 0 else "",
                }
            )
    return rows


def _diagram_rows(order: int, sol: SectorSolution, soc: SocLevels | None) -> list[dict]:
    """Level-diagram data: the lowest A2u singlet and Eu doublet per stage."""
    rows = []
    e_a2u = sol.lowest("A2u").energy
    e_eu = sol.lowest("Eu").energy
    stage = f"order{order}"
    rows.append({"stage": stage, "label": "A2u", "m_s": "", "energy_mev": _r(e_a2u)})
    rows.append({"stage": stage, "label": "Eu", "m_s": "", "energy_mev": _r(e_eu)})
    if soc is not None:
        rows.extend(
            [
                {"stage": "soc", "label": "A2u", "m_s": 0, "energy_mev": _r(e_a2u)},
                {"stage": "soc", "label": "Eu", "m_s": 0, "energy_mev": _r(e_eu)},
                {"stage": "soc", "label": "A2u", "m_s": 1, "energy_mev": _r(soc.e_a2u_soc)},
                {"stage": "soc", "label": "A2u", "m_s": -1, "energy_mev": _r(soc.e_a2u_soc)},
                {"stage": "soc", "label": "Eu-", "m_s": 1, "energy_mev": _r(soc.e_eu_lower_soc)},
                {"stage": "soc", "label": "Eu-", "m_s": -1, "energy_mev": _r(soc.e_eu_lower_soc)},
                {"stage": "soc", "label": "Eu+", "m_s": 1, "energy_mev": _r(soc.e_eu_upper_soc)},
                {"stage": "soc", "label": "Eu+", "m_s": -1, "energy_mev": _r(soc.e_eu_upper_soc)},
            ]
        )
    return rows


def run_report(cfg: RunConfig) -> SpectrumReport:
    """Execute the full analysis pipeline for one configuration."""
    opts = solver_options(cfg)
    s, defect, preset = cfg.solver, cfg.defect, cfg.model.preset
    order, other = cfg.model.order, 3 - cfg.model.order
    cutoff, history, sol = s.cutoff, [], None
    if s.converge:
        res = converge_observable(
            defect, order, rel_tol=s.converge_rel_tol, n_start=s.converge_n_start,
            n_step=s.converge_n_step, n_max=s.converge_n_max, preset=preset, opts=opts
        )
        cutoff, sol = res.cutoff, res.solution
        history = [(n, values["gamma"]) for n, values in res.history]

    # the other order gives only its gamma; the model's own order serves
    # gamma, p_u/p_g and spin-orbit
    spec = SectorSpec(couplings_for_order(defect, other), defect.lambda_corr, cutoff, preset)
    gammas = {other: solution_gamma(block_minima(spec, opts))}
    if sol is None:
        couplings = couplings_for_order(defect, order)
        sol = solve_sector(couplings, defect.lambda_corr, cutoff, preset, opts)
    gammas[order] = solution_gamma(sol)
    p_u, p_g = reduction_factors(sol)

    soc = None
    if cfg.soc.mode == SOC_EXPLICIT:
        soc = soc_levels(sol, cfg.soc.lambda_u0_mev, cfg.soc.lambda_g0_mev, opts)
    elif cfg.soc.mode == SOC_CALIBRATE:
        soc = calibrate_soc(sol, cfg.soc.target_lambda_eff_mev, ratio=cfg.soc.ratio, opts=opts)

    report = SpectrumReport(
        defect=defect.name,
        preset=preset,
        order=order,
        cutoff=cutoff,
        coupling_strength=defect.coupling_strength,
        gamma1=gammas[1],
        gamma2=gammas[2],
        p_u=p_u,
        p_g=p_g,
        soc=soc,
        zpl_baseline_ev=defect.zpl_baseline_ev,
        convergence_history=history,
        levels=_level_rows(sol, soc),
        composition=composition_table_rows(sol.states, sol.basis, defect.length_scale_angstrom()),
        level_diagram=_diagram_rows(order, sol, soc),
    )
    report.validate()
    return report


# --- writers ----------------------------------------------------------------


def write_csv(path: str | Path, rows: list[dict], columns: list[str], digits: int = 10) -> None:
    """One line per row; floats to digits significant digits, a missing or None cell empty."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            cells = []
            for col in columns:
                v = row.get(col)
                if v is None:
                    cells.append("")
                elif isinstance(v, float):
                    cells.append(f"{v:.{digits}g}")
                else:
                    cells.append(str(v))
            fh.write(",".join(cells) + "\n")


# each CSV file: the SpectrumReport rows it holds and its columns, in write order
REPORT_CSVS = {
    "levels.csv": ("levels", ["m_s", "index", "energy_mev", "energy_rel_mev", "label"]),
    "composition.csv": (
        "composition",
        [
            "energy_mev",
            "energy_rel_mev",
            "irrep",
            "displacement",
            "displacement_raw",
            "displacement_angstrom",
            "p_a1u",
            "p_a2u",
            "p_eu",
        ],
    ),
    "level_diagram.csv": ("level_diagram", ["stage", "label", "m_s", "energy_mev"]),
}


def write_all(report: SpectrumReport, outdir: str | Path) -> list[Path]:
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    p = outdir / "report.json"
    with open(p, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    written = [p]
    for name, (rows, columns) in REPORT_CSVS.items():
        p = outdir / name
        write_csv(p, getattr(report, rows), columns)
        written.append(p)
    return written
