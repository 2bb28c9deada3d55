"""Output checks for the benchmark workloads.

Two kinds of check run on every output:

* invariants that hold for any seed: A2u below Eu, Eu states in degenerate
  pairs, the reported gamma equal to the labelled level gap, Kramers-equal
  m_s = +/-1 levels, 0 <= p <= 1, |lambda_eff - target| < 1e-5 meV after
  calibration, a monotone lambda_eff(lambda) response and a surface fit that
  recovers its generating parameters;
* values pinned in ``pinned.json`` (written by ``pin.py``): seed-independent
  observables for every seed, and the spin-orbit-dependent ones of the
  large-sector workload for the seeds listed there.

Tolerances are loose enough for another eigensolver or root-finder run to
the same residual tolerance (eigenvalues to 1e-5 meV, quenching factors to
1e-6, calibrated couplings to 1e-3 relative) and tight enough to catch one
mislabelled state or a 1 % change in gamma.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from spinvibronic import analysis

REPORT_FILES = ("report.json", "levels.csv", "composition.csv", "level_diagram.csv")
PINNED_PATH = Path(__file__).with_name("pinned.json")

ENERGY_TOL_MEV = 1e-5
P_TOL = 1e-6
CALIBRATED_REL_TOL = 1e-3
CALIBRATED_ENERGY_TOL_MEV = 1e-3
LAMBDA_EFF_TARGET_TOL_MEV = 1e-5
FIRST_ORDER_REL_TOL = 1e-2
FIT_REL_TOL = 1e-3

# report values that move with the calibrated couplings
SOC_KEYS = ("lambda_eff_mev", "gamma2_soc_mev", "gamma2_soc_ms0_mev", "a2u_ms_split_mev",
            "zpl_shift_ev")

_pins: dict | None = None


def pins() -> dict:
    global _pins
    if _pins is None:
        _pins = json.loads(PINNED_PATH.read_text()) if PINNED_PATH.is_file() else {}
    return _pins


# --- normalized outputs -----------------------------------------------------


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _level(row: dict) -> dict:
    return {"m_s": int(row["m_s"]), "index": int(row["index"]),
            "energy_mev": float(row["energy_mev"]), "label": row["label"]}


def _composition(row: dict) -> dict:
    return {"irrep": row["irrep"], "energy_mev": float(row["energy_mev"]),
            **{k: float(row[k]) for k in ("p_a1u", "p_a2u", "p_eu")}}


def read_spectrum(outdir: Path) -> dict:
    """report.json, levels.csv, composition.csv and level_diagram.csv of one solve."""
    return {
        "report": json.loads((outdir / "report.json").read_text()),
        "levels": [_level(r) for r in read_csv(outdir / "levels.csv")],
        "composition": [_composition(r) for r in read_csv(outdir / "composition.csv")],
        "diagram": read_csv(outdir / "level_diagram.csv"),
    }


def spectrum_from_report(report) -> dict:
    """The same normalized form from an in-memory SpectrumReport."""
    rnd = lambda v: float(f"{v:.10g}") if isinstance(v, float) else v  # noqa: E731
    return {
        "report": report.to_dict(),
        "levels": [_level(r) for r in report.levels],
        "composition": [_composition({k: rnd(v) for k, v in r.items()})
                        for r in report.composition],
        "diagram": [{k: str(v) for k, v in r.items()} for r in report.level_diagram],
    }


def sector_summary(spectrum: dict) -> dict:
    """m_s = 0 labels and energies of a spectrum, the form pinned.json holds."""
    ms0 = [lv for lv in spectrum["levels"] if lv["m_s"] == 0]
    return {"labels": [lv["label"] for lv in ms0], "energies": [lv["energy_mev"] for lv in ms0]}


# --- invariants -------------------------------------------------------------


def check_labels(labels: list[str], energies: list[float]) -> list[str]:
    """A2u below Eu, and Eu states in adjacent degenerate pairs."""
    errors = []
    if "A2u" not in labels or "Eu" not in labels:
        return [f"no A2u or no Eu among the labels {labels}"]
    if energies[labels.index("A2u")] >= energies[labels.index("Eu")]:
        errors.append("lowest A2u is not below the lowest Eu")
    i = 0
    while i < len(labels):
        if labels[i] == "Eu":
            if i + 1 >= len(labels) or labels[i + 1] != "Eu":
                errors.append(f"Eu state {i} has no degenerate partner")
                i += 1
                continue
            if abs(energies[i + 1] - energies[i]) > ENERGY_TOL_MEV:
                errors.append(f"Eu pair {i},{i + 1} is split by {energies[i + 1] - energies[i]:g}")
            i += 2
        else:
            i += 1
    return errors


def check_spectrum(spectrum: dict) -> list[str]:
    """Seed-independent invariants of one solve's report files."""
    rep = spectrum["report"]
    errors = []
    for p in ("p_u", "p_g"):
        if not 0.0 <= rep[p] <= 1.0:
            errors.append(f"{p} = {rep[p]} outside [0, 1]")
    ms0 = sector_summary(spectrum)
    labels, energies = ms0["labels"], ms0["energies"]
    errors += check_labels(labels, energies)
    if not errors:
        gap = energies[labels.index("Eu")] - energies[labels.index("A2u")]
        gamma = rep[f"gamma{rep['order']}_mev"]
        if abs(gap - gamma) > ENERGY_TOL_MEV:
            errors.append(f"gamma{rep['order']} = {gamma} but the labelled gap is {gap}")
    if [c["irrep"] for c in spectrum["composition"]] != labels:
        errors.append("composition irreps differ from the m_s = 0 level labels")
    for c in spectrum["composition"]:
        if abs(c["p_a1u"] + c["p_a2u"] + c["p_eu"] - 1.0) > 1e-8:
            errors.append(f"composition of the {c['irrep']} state at {c['energy_mev']} "
                          "does not sum to 1")
            break
    plus = [lv["energy_mev"] for lv in spectrum["levels"] if lv["m_s"] == 1]
    minus = [lv["energy_mev"] for lv in spectrum["levels"] if lv["m_s"] == -1]
    if len(plus) != len(minus) or any(abs(a - b) > ENERGY_TOL_MEV for a, b in zip(plus, minus)):
        errors.append("m_s = +1 and m_s = -1 levels are not Kramers-equal")
    if "lambda_eff_mev" in rep:
        if rep["gamma2_soc_mev"] > rep["gamma2_mev"] + rep["lambda_eff_mev"] + 1e-9:
            errors.append("gamma2 with spin-orbit exceeds gamma2 + lambda_eff")
    diagram = {(r["stage"], r["label"], str(r["m_s"])): float(r["energy_mev"])
               for r in spectrum["diagram"]}
    stage = f"order{rep['order']}"
    if diagram.get((stage, "A2u", ""), 0.0) >= diagram.get((stage, "Eu", ""), 0.0):
        errors.append("level diagram puts A2u at or above Eu")
    return errors


def _close(key: str, got, want, calibrated: bool) -> bool:
    if key == "cutoff":
        return got == want
    if key == "convergence_history":
        return len(got) == len(want) and all(
            a[0] == b[0] and abs(a[1] - b[1]) <= ENERGY_TOL_MEV for a, b in zip(got, want)
        )
    if key in ("p_u", "p_g"):
        return abs(got - want) <= P_TOL
    if calibrated and key in ("lambda_u0_mev", "lambda_g0_mev"):
        return abs(got - want) <= CALIBRATED_REL_TOL * abs(want)
    tol = CALIBRATED_ENERGY_TOL_MEV if calibrated and key in SOC_KEYS else ENERGY_TOL_MEV
    if key.endswith("_ev"):
        tol /= 1000.0
    return abs(got - want) <= tol


def check_pinned(spectrum: dict, pinned: dict, calibrated: bool) -> list[str]:
    """Compare report values, m_s = 0 labels and energies with pinned ones."""
    errors = []
    rep = spectrum["report"]
    for key, want in pinned.get("report", {}).items():
        if key not in rep:
            errors.append(f"report has no {key}")
        elif not _close(key, rep[key], want, calibrated):
            errors.append(f"{key} = {rep[key]}, pinned {want}")
    ms0 = sector_summary(spectrum)
    if "labels" in pinned and ms0["labels"] != pinned["labels"]:
        errors.append(f"labels {ms0['labels']}, pinned {pinned['labels']}")
    if "energies" in pinned:
        got, want = np.array(ms0["energies"]), np.array(pinned["energies"])
        if got.shape != want.shape or np.abs(got - want).max() > ENERGY_TOL_MEV:
            errors.append("m_s = 0 energies differ from the pinned ones")
    if "energies_ms1" in pinned:
        got = np.array([lv["energy_mev"] for lv in spectrum["levels"] if lv["m_s"] == 1])
        want = np.array(pinned["energies_ms1"])
        if got.shape != want.shape or np.abs(got - want).max() > ENERGY_TOL_MEV:
            errors.append("m_s = +1 energies differ from the pinned ones")
    return errors


# --- per workload -----------------------------------------------------------


TABLE1_COLUMNS = {"gamma1": "gamma1_mev", "gamma2": "gamma2_mev", "p_u": "p_u", "p_g": "p_g",
                  "lambda_eff": "lambda_eff_mev", "zpl_shift_ev": "zpl_shift_ev"}


def check_table1(out: dict, defect: str, target: float) -> list[str]:
    """One `spinvib table1` row: the 6-digit CSV row and the report behind it."""
    rows = out["table1"]
    if len(rows) != 1 or rows[0]["defect"] != defect or rows[0]["status"] != "ok":
        return [f"table1.csv does not hold one ok row for {defect}: {rows}"]
    row = rows[0]
    pinned = pins().get("table1-bundled", {}).get(defect, {})
    spectrum = out["spectrum"]
    if spectrum is None:  # only the printed row is available
        return [f"{col} = {row[col]}, pinned {pinned['report'][key]}"
                for col, key in TABLE1_COLUMNS.items()
                if abs(float(row[col]) - pinned["report"][key])
                > 1e-5 * abs(pinned["report"][key])]
    rep = spectrum["report"]
    errors = [f"table1.csv {col} = {row[col]} but the report has {rep[key]}"
              for col, key in TABLE1_COLUMNS.items()
              if abs(float(row[col]) - rep[key]) > 1e-5 * abs(rep[key]) + 1e-12]
    if abs(rep["lambda_eff_mev"] - target) >= LAMBDA_EFF_TARGET_TOL_MEV:
        errors.append(f"calibrated lambda_eff {rep['lambda_eff_mev']} misses target {target}")
    return errors + check_spectrum(spectrum) + check_pinned(spectrum, pinned, calibrated=True)


def check_large_sector(spectrum: dict, defect: str, lambdas: tuple[float, float],
                       seed: int) -> list[str]:
    rep = spectrum["report"]
    errors = [f"{key} = {rep.get(key)} but the input was {want}"
              for key, want in zip(("lambda_u0_mev", "lambda_g0_mev"), lambdas)
              if abs(rep.get(key, math.inf) - want) > 1e-9 * abs(want)]
    pinned = pins().get("large-sector", {})
    errors += check_spectrum(spectrum)
    errors += check_pinned(spectrum, pinned.get(defect, {}), calibrated=False)
    seeded = pinned.get("seeds", {}).get(str(seed), {}).get(defect)
    if seeded is not None:
        errors += check_pinned(spectrum, seeded, calibrated=False)
    return errors


def check_sweep(sol, grid: np.ndarray, lambda_eff: list[float], ratio: float,
                defect: str) -> list[str]:
    """Monotone, first-order-consistent lambda_eff(lambda) and a sane m_s = 0 sector."""
    errors = []
    labels = [s.irrep for s in sol.states]
    energies = [float(e) for e in sol.energies]
    errors += check_labels(labels, energies)
    le = np.asarray(lambda_eff)
    if np.any(le <= 0.0) or np.any(np.diff(le) <= 0.0):
        errors.append(f"lambda_eff is not positive and increasing in lambda for {defect}")
    p_u, p_g = analysis.reduction_factors(sol)
    slope = ratio * p_u + p_g
    if abs(le[0] / grid[0] - slope) > FIRST_ORDER_REL_TOL * slope:
        errors.append(f"lambda_eff/lambda_g0 = {le[0] / grid[0]} at small coupling, "
                      f"first order gives {slope}")
    pinned = pins().get("soc-sweep", {}).get(defect)
    if pinned is not None:
        if labels != pinned["labels"]:
            errors.append(f"labels {labels}, pinned {pinned['labels']}")
        if np.abs(np.array(energies) - pinned["energies"]).max() > ENERGY_TOL_MEV:
            errors.append("m_s = 0 energies differ from the pinned ones")
    return errors


def check_fit(fit, truth, noise_mev: float) -> list[str]:
    """The fit recovers the generating parameters and leaves noise-sized residuals.

    Over 200 fits at 0.05 meV noise the largest parameter error was 0.05 meV,
    about seven standard errors inside the tolerance of 0.1 % plus half the
    noise amplitude.
    """
    errors = []
    got, want = fit.params, truth
    pairs = [("hbar_omega_e", got.hbar_omega_e, want.hbar_omega_e),
             ("lambda_corr", fit.lambda_corr, want.lambda_corr)]
    pairs += [(f"e_jt{i + 1}", got.e_jt[i], want.e_jt[i]) for i in range(2)]
    pairs += [(f"delta_jt{i + 1}", got.delta_jt[i], want.delta_jt[i]) for i in range(2)]
    for name, g, w in pairs:
        if abs(g - w) > FIT_REL_TOL * abs(w) + 0.5 * noise_mev:
            errors.append(f"fitted {name} = {g:g}, generated with {w:g}")
    rms = np.asarray(fit.rms_per_surface)
    if np.any(rms < 0.5 * noise_mev) or np.any(rms > 2.0 * noise_mev):
        errors.append(f"rms residuals {rms} do not match the {noise_mev} meV noise")
    return errors
