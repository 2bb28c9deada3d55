"""Built-in parameter sets for the neutral group-IV split-vacancy centers.

These are the published first-principles surface parameters for the XV0
series (X = Si, Ge, Sn, Pb): effective mode quantum, correlation splitting,
well depths and warpings per interference branch, signed well positions, and
the no-coupling transition baseline.  They double as regression anchors for
the test suite; the reference observables the table1 command compares
against live in data/reference_values.csv.
"""

from __future__ import annotations

from .params import DefectParams

DEFECTS: dict[str, DefectParams] = {
    "SiV0": DefectParams(
        name="SiV0",
        hbar_omega_e=87.3,
        lambda_corr=81.6,
        e_jt=(258.0, 0.289),
        delta_jt=(82.2, 0.147),
        rho0_angstrom=(0.171, -0.006),
        zpl_baseline_ev=1.361,
    ),
    "GeV0": DefectParams(
        name="GeV0",
        hbar_omega_e=86.6,
        lambda_corr=86.4,
        e_jt=(244.0, 4.61),
        delta_jt=(75.5, 0.307),
        rho0_angstrom=(0.166, -0.022),
        zpl_baseline_ev=1.813,
    ),
    "SnV0": DefectParams(
        name="SnV0",
        hbar_omega_e=87.7,
        lambda_corr=98.2,
        e_jt=(217.0, 14.9),
        delta_jt=(63.5, 0.226),
        rho0_angstrom=(0.154, -0.038),
        zpl_baseline_ev=1.833,
    ),
    "PbV0": DefectParams(
        name="PbV0",
        hbar_omega_e=90.8,
        lambda_corr=112.5,
        e_jt=(200.0, 29.9),
        delta_jt=(64.5, 2.18),
        rho0_angstrom=(0.145, -0.051),
        zpl_baseline_ev=2.216,
    ),
}

# target splitting of the lowest Eu doublet into m_s = +/-1 Kramers pairs,
# used by the bundled configs to calibrate the bare spin-orbit constants
LAMBDA_EFF_TARGETS_MEV: dict[str, float] = {
    "SiV0": 0.089,
    "GeV0": 0.622,
    "SnV0": 3.15,
    "PbV0": 11.31,
}

