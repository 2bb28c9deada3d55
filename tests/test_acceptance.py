"""Acceptance suite: one test (or parametrized family) per exit criterion.

Each check prints a PASS/FAIL line with the measured numbers so a single run
documents the whole scorecard.  Shared solves are cached per session; the
full suite is sized for a laptop-class machine.
"""

from __future__ import annotations

import time
from functools import lru_cache

import numpy as np
import pytest

from spinvibronic import (
    IdentifiabilityError,
    SolverOptions,
    adiabatic_surfaces,
    assemble,
    calibrate_soc,
    fit_pes,
    pes_to_couplings,
    reduction_factors,
    soc_levels,
    soc_operators,
    solve_lowest,
    solve_sector,
)
from spinvibronic.analysis import converge_observable, solution_gamma
from spinvibronic.defaults import DEFECTS, LAMBDA_EFF_TARGETS_MEV
from spinvibronic.hamiltonian import PRESET_A_SPLIT, PRESET_E_RAISED, SectorSpec, adapted_basis
from spinvibronic.params import branch_minima_dimensionless
from spinvibronic.pes import PesCurve

from conftest import (
    adapted_unitary,
    c2prime_reflection,
    c3_rotation,
    cartesian_basis,
    gamma_splitting,
    second_order_shift,
    total_reflection,
    total_rotation,
)

OPTS = SolverOptions(k=10)

GAMMA_REF = {  # meV
    "SiV0": (7.18, 3.21),
    "GeV0": (7.59, 4.06),
    "SnV0": (8.96, 6.22),
    "PbV0": (10.4, 7.90),
}
P_REF = {
    "SiV0": (0.012, 0.012),
    "GeV0": (0.017, 0.012),
    "SnV0": (0.032, 0.023),
    "PbV0": (0.043, 0.040),
}
SOC_RATIO = 3.5  # transferred from the SnV0 sublevel-splitting calibration


def record(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:>2} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@lru_cache(maxsize=None)
def converged_gamma(name: str):
    """Convergence-driver result for gamma2 plus gamma1 at the same cutoff."""
    p = DEFECTS[name]
    t0 = time.time()
    res = converge_observable(p, 2, rel_tol=0.01, n_start=20, n_step=8, n_max=56, opts=OPTS)
    g1 = gamma_splitting(p, 1, res.cutoff, opts=OPTS)
    return {
        "cutoff": res.cutoff,
        "gamma2": solution_gamma(res.solution),
        "gamma1": g1,
        "seconds": time.time() - t0,
    }


@lru_cache(maxsize=None)
def labeled_sector(name: str, cutoff: int):
    p = DEFECTS[name]
    return solve_sector(pes_to_couplings(p), p.lambda_corr, cutoff, opts=OPTS)


@lru_cache(maxsize=None)
def quenching(name: str, cutoff: int = 24):
    return reduction_factors(labeled_sector(name, cutoff))


@lru_cache(maxsize=None)
def calibrated_levels(name: str, cutoff: int = 32):
    sol = labeled_sector(name, cutoff)
    target = LAMBDA_EFF_TARGETS_MEV[name]
    lev = calibrate_soc(sol, target, ratio=SOC_RATIO, opts=OPTS)
    return lev, lev.lambda_u0, lev.lambda_g0


# --- criterion 1 ------------------------------------------------------------


def gamma1_for_preset(preset: str) -> float:
    p = DEFECTS["SiV0"]
    res = converge_observable(
        p, 1, rel_tol=0.01, n_start=20, n_step=8, n_max=56, preset=preset, opts=OPTS
    )
    return solution_gamma(res.solution)


def test_criterion_1_default_preset_reproduces_siv0():
    t0 = time.time()
    value = gamma1_for_preset(PRESET_E_RAISED)
    dev = abs(value - 7.18) / 7.18
    ok = dev < 0.15
    record(
        1,
        "model selection: shipped default",
        ok,
        f"e-raised gamma1 = {value:.3f} meV vs 7.18, dev {dev * 100:.1f}% "
        f"(tol 15%), {time.time() - t0:.0f} s",
    )
    assert ok


def test_criterion_1_exactly_one_preset_matches():
    values = {p: gamma1_for_preset(p) for p in (PRESET_E_RAISED, PRESET_A_SPLIT)}
    passing = {p: v for p, v in values.items() if abs(v - 7.18) / 7.18 < 0.15}
    ok = len(passing) == 1
    record(
        1,
        "model selection: exactly one preset in band",
        ok,
        "; ".join(f"{p}: {v:.3f} meV ({abs(v - 7.18) / 7.18 * 100:.1f}%)" for p, v in values.items()),
    )
    # both presets land inside the generous 15 percent band (the correlation
    # term only weakly moves the tunneling splitting), so the strict
    # exactly-one requirement is not attainable; e-raised is selected as the
    # much closer match and shipped as the default
    assert ok, f"both presets within 15% of 7.18: {values}"


# --- criteria 2 and 3 --------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_criterion_2_gamma_reproduction(name):
    data = converged_gamma(name)
    ref1, ref2 = GAMMA_REF[name]
    dev1 = abs(data["gamma1"] - ref1) / ref1
    dev2 = abs(data["gamma2"] - ref2) / ref2
    ok = dev1 < 0.15 and dev2 < 0.25
    record(
        2,
        f"gamma {name}",
        ok,
        f"N={data['cutoff']}, gamma1 {data['gamma1']:.3f}/{ref1} ({dev1 * 100:.1f}%, tol 15%), "
        f"gamma2 {data['gamma2']:.3f}/{ref2} ({dev2 * 100:.1f}%, tol 25%), "
        f"{data['seconds']:.0f} s",
    )
    assert ok


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_criterion_3_ordering_and_labels(name):
    data = converged_gamma(name)
    sol = labeled_sector(name, max(data["cutoff"], 24))
    ordering = data["gamma2"] < data["gamma1"]
    lowest_label = sol.states[0].irrep
    # the second level: the states within 1e-6 meV of states[1]
    second_level = [s.irrep for s in sol.states[1:] if s.energy - sol.states[1].energy < 1e-6]
    labels_ok = lowest_label == "A2u" and second_level == ["Eu", "Eu"]
    ok = ordering and labels_ok
    record(
        3,
        f"ordering {name}",
        ok,
        f"gamma2 {data['gamma2']:.3f} < gamma1 {data['gamma1']:.3f}: {ordering}; "
        f"lowest {lowest_label}, second {second_level}",
    )
    assert ok


# --- criterion 4 --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DEFECTS))
@pytest.mark.parametrize("which", ["p_u", "p_g"])
def test_criterion_4_quenching(name, which):
    p_u, p_g = quenching(name)
    value = p_u if which == "p_u" else p_g
    ref = P_REF[name][0 if which == "p_u" else 1]
    ok = value < 0.05 and abs(value - ref) <= 0.01
    record(
        4,
        f"quenching {name} {which}",
        ok,
        f"{value:.4f} vs {ref} (tol +/-0.01, must be < 0.05)",
    )
    assert ok, f"{name} {which} = {value:.4f} vs reference {ref}"


# --- criterion 5 --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DEFECTS))
@pytest.mark.parametrize("branch", [0, 1])
def test_criterion_5_rho0_consistency(name, branch):
    p = DEFECTS[name]
    rho = branch_minima_dimensionless(pes_to_couplings(p))
    model = rho[branch] * p.length_scale_angstrom()
    ref = p.rho0_angstrom[branch]
    dev = abs(abs(model) - abs(ref)) / abs(ref)
    ok = dev < 0.02
    record(
        5,
        f"rho0 {name} branch {branch + 1}",
        ok,
        f"model {model:+.5f} A vs table {ref:+.3f} A, dev {dev * 100:.2f}% (tol 2%)",
    )
    # the three failing branch-2 values are tabulated with 1-2 significant
    # figures; the mapping itself is validated by the sub-percent agreement
    # of every branch-1 value
    assert ok, f"{name} branch {branch + 1}: {dev * 100:.2f}% > 2%"


# --- criterion 6 --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_criterion_6_soc_sector_structure(name):
    p = DEFECTS[name]
    c = pes_to_couplings(p)
    cutoff, lam = 16, 20.0
    basis = adapted_basis(cutoff)
    h0 = assemble(SectorSpec(couplings=c, lambda_corr=p.lambda_corr, cutoff=cutoff))
    s_u, s_g = soc_operators(basis)
    # the spin-orbit term vanishes at m_s = 0, whose sector is the real H0
    # itself; H0 + m_s lam (S_u + S_g) is the physical m_s sector
    lapack = h0.shape[0]
    sols = {
        m_s: solve_lowest(
            h0 if m_s == 0 else h0 + m_s * (lam * s_u + lam * s_g), k=10, dense_threshold=lapack,
            blocks=basis.sector_blocks(m_s),
        )
        for m_s in (-1, 0, 1)
    }
    ref = solve_lowest(h0, k=10, dense_threshold=lapack, blocks=basis.sector_blocks(0))
    d0 = np.abs(sols[0].eigenvalues - ref.eigenvalues).max()
    dpm = np.abs(sols[1].eigenvalues - sols[-1].eigenvalues).max()
    ok = d0 < 1e-10 and dpm < 1e-10
    record(
        6,
        f"spin-orbit sectors {name}",
        ok,
        f"|ms=0 - bare| {d0:.1e}, |ms=+1 - ms=-1| {dpm:.1e} (tol 1e-10); "
        f"Kramers pairs degenerate across sectors",
    )
    assert ok


# --- criterion 7 --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_criterion_7_ham_limit(name, request):
    cutoff = 20
    sol = labeled_sector(name, cutoff)
    p_u, p_g = reduction_factors(sol)
    lev = soc_levels(sol, 0.1, 0.1, OPTS)
    expected = 0.1 * (p_u + p_g)
    dev = abs(lev.lambda_eff - expected) / expected
    ok = dev < 0.01
    record(
        7,
        f"first-order quenching limit {name}",
        ok,
        f"splitting {lev.lambda_eff:.6f} vs p*lambda {expected:.6f} meV, dev {dev * 100:.2f}% (tol 1%)",
    )
    assert ok


# --- criterion 8 --------------------------------------------------------------


def test_criterion_8_snv0_a2u_sublevel_splitting():
    t0 = time.time()
    lev, lu, lg = calibrated_levels("SnV0")
    value = abs(lev.a2u_ms_split)
    ok = abs(value - 5.9) / 5.9 < 0.20
    record(
        8,
        "SnV0 A2u m_s splitting",
        ok,
        f"|{lev.a2u_ms_split:+.3f}| meV vs 5.9 (tol 20%); bare couplings "
        f"({lu:.1f}, {lg:.1f}) meV, {time.time() - t0:.0f} s",
    )
    assert ok


def test_criterion_8_pbv0_zpl_shift_and_coupling_sum():
    t0 = time.time()
    lev, lu, lg = calibrated_levels("PbV0")
    dev = abs(lev.zpl_shift_ev - (-0.046)) / 0.046
    ok = dev < 0.30 and (lu + lg) > 100.0
    record(
        8,
        "PbV0 transition shift and bare sum",
        ok,
        f"zpl shift {lev.zpl_shift_ev:+.4f} eV vs -0.046 (dev {dev * 100:.1f}%, tol 30%); "
        f"lambda_u0+lambda_g0 = {lu + lg:.1f} meV > 100, {time.time() - t0:.0f} s",
    )
    assert ok


def test_criterion_8_calibration_round_trip():
    lev, _, _ = calibrated_levels("SnV0")
    ok = abs(lev.lambda_eff - 3.15) < 1e-5
    record(8, "SnV0 calibration round trip", ok, f"lambda_eff {lev.lambda_eff:.6f} vs 3.15 (+/-1e-5)")
    assert ok


# --- criterion 9 --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_criterion_9_oracle_equivalence(name):
    p = DEFECTS[name]
    spec = SectorSpec(couplings=pes_to_couplings(p), lambda_corr=p.lambda_corr, cutoff=12)
    h = assemble(spec)
    blocks = adapted_basis(12).sector_blocks(0)
    dense = solve_lowest(h, k=8, dense_threshold=h.shape[0], blocks=blocks)
    lanczos = solve_lowest(h, k=8, dense_threshold=0, blocks=blocks)
    diff = np.abs(dense.eigenvalues - lanczos.eigenvalues).max()
    ok = diff < 1e-8
    record(9, f"iterative vs dense {name}", ok, f"max |dE| = {diff:.2e} meV (tol 1e-8), dim {h.shape[0]}")
    assert ok


# --- criterion 10 -------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_criterion_10_symmetry_commutators(name):
    p = DEFECTS[name]
    basis = adapted_basis(10)
    h = assemble(
        SectorSpec(couplings=pes_to_couplings(p), lambda_corr=p.lambda_corr, cutoff=10)
    ).toarray()
    scale = np.abs(h).max()
    # the Cartesian rotation and reflection in the adapted basis
    u, cart = adapted_unitary(basis), cartesian_basis(10)
    r3 = u.conj().T @ (total_rotation(c3_rotation(cart)) @ u)
    r2 = u.conj().T @ (total_reflection(c2prime_reflection(cart)) @ u)
    c3_norm = np.abs(h @ r3 - r3 @ h).max() / scale
    c2_norm = np.abs(h @ r2 - r2 @ h).max() / scale
    ok = c3_norm < 1e-10 and c2_norm < 1e-10
    record(
        10,
        f"symmetry commutators {name}",
        ok,
        f"[H,C3] {c3_norm:.1e}, [H,C2'] {c2_norm:.1e} relative (tol 1e-10)",
    )
    assert ok


# --- criterion 11 -------------------------------------------------------------


def test_criterion_11_fit_round_trip_and_identifiability():
    p = DEFECTS["SnV0"]
    c = pes_to_couplings(p)
    grid = np.linspace(-2.0, 3.2, 53)
    curve = adiabatic_surfaces(c, p.lambda_corr, PRESET_E_RAISED, grid)
    curve.energies = np.sort(curve.energies, axis=1)
    guess = pes_to_couplings(p)
    from spinvibronic.params import DefectParams

    start = DefectParams(
        name="SnV0", hbar_omega_e=80.0, lambda_corr=90.0, e_jt=(200.0, 12.0),
        delta_jt=(55.0, 0.2), rho0_angstrom=(0.15, -0.03),
    )
    fit = fit_pes(curve, start)
    rel = max(
        abs(fit.params.hbar_omega_e - p.hbar_omega_e) / p.hbar_omega_e,
        abs(fit.lambda_corr - p.lambda_corr) / p.lambda_corr,
        abs(fit.params.e_jt[0] - p.e_jt[0]) / p.e_jt[0],
        abs(fit.params.e_jt[1] - p.e_jt[1]) / p.e_jt[1],
        abs(fit.params.delta_jt[0] - p.delta_jt[0]) / p.delta_jt[0],
        abs(fit.params.delta_jt[1] - p.delta_jt[1]) / p.delta_jt[1],
    )
    round_trip_ok = rel < 1e-6

    one_sided = PesCurve(
        qx=grid[grid > 0], energies=curve.energies[grid > 0], qx_unit=curve.qx_unit
    )
    try:
        fit_pes(one_sided, start)
        identifiability_ok = False
    except IdentifiabilityError:
        identifiability_ok = True
    ok = round_trip_ok and identifiability_ok
    record(
        11,
        "surface fit",
        ok,
        f"noiseless recovery max rel err {rel:.2e} (tol 1e-6); "
        f"one-branch data rejected: {identifiability_ok}",
    )
    assert ok


# --- criterion 12 -------------------------------------------------------------


def test_criterion_12_second_order_shift():
    shift = second_order_shift(DEFECTS["SnV0"], cutoff=28, opts=OPTS)
    ok = 10.0 <= shift <= 30.0
    record(
        12,
        "SnV0 quadratic-term level shift",
        ok,
        f"{shift:+.2f} meV vs 20 +/- 10 (depth-preserving linear reference)",
    )
    assert ok
