"""Irrep labels, electronic composition and displacement of vibronic states.

Every eigenvector the solver returns lies in one exact C2' block (see
eigensolver), so each state is labelled from its own vector.  With the
proper rotations of the defect, a 2*pi/3 rotation C3 and the C2' axis, such
a vector v has <v|C2'|v> = +1 or -1, and Re<v|C3|v> = 1 if it is an A state
and -1/2 if it is any vector of an E doublet.  An A state with C2' = +1 is
A1u and one with -1 is A2u; an E vector is Eu, and its C2' parity tells the
two partners of a doublet apart.  A vector that matches none of these within
tol is flagged mixed; from an exact block that happens only at an accidental
degeneracy of an A and an E level of the same C2' parity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .eigensolver import EigResult
from .hamiltonian import (
    CHANNELS,
    ELEC_DIM,
    symmetry_adapted_states,
    total_reflection,
    total_rotation,
)
from .oscillator import OscBasis, build_operators

LABEL_A1U = "A1u"
LABEL_A2U = "A2u"
LABEL_EU = "Eu"
LABEL_MIXED = "mixed"

CHARACTER_TOL = 0.05


@dataclass
class VibronicState:
    """One eigenstate with its symmetry and composition metadata.

    composition holds probabilities over the electronic channels
    (A1u, A2u, Eu) with the two Eu partners summed; displacement_raw is
    sqrt(<X^2 + Y^2>), displacement is the zero-point-subtracted
    sqrt(<X^2 + Y^2> - 1).  Both are kept because the distinction matters at
    small distortion and the data they are compared against does not say
    which estimator was used.
    """

    energy: float
    coefficients: np.ndarray
    irrep: str
    composition: dict[str, float]
    displacement: float
    displacement_raw: float


class SymmetryOperators:
    """Total-space symmetry operators and analysis matrices for one basis."""

    def __init__(self, basis: OscBasis):
        self.basis = basis
        ops = build_operators(basis)
        self.r_c3 = total_rotation(ops["C3"])
        self.r_c2 = total_reflection(ops["C2prime"])
        self.r2_total = sp.kron(ops["X2"] + ops["Y2"], sp.identity(ELEC_DIM), format="csr")


def character(vectors: np.ndarray, op: sp.spmatrix) -> float:
    """Real part of the trace of op projected onto the columns of vectors."""
    return float(np.real(np.einsum("ij,ij->", vectors.conj(), op @ vectors)))


def irrep_label(vector: np.ndarray, ops: SymmetryOperators, tol: float = CHARACTER_TOL) -> str:
    """Label one eigenvector by its C3 and C2' expectation values."""
    chi3 = character(vector[:, None], ops.r_c3)
    chi2 = character(vector[:, None], ops.r_c2)
    if abs(abs(chi2) - 1.0) < tol:
        if abs(chi3 - 1.0) < tol:
            return LABEL_A1U if chi2 > 0 else LABEL_A2U
        if abs(chi3 + 0.5) < tol:
            return LABEL_EU
    return LABEL_MIXED


def electronic_composition(vector: np.ndarray) -> dict[str, float]:
    """Probability in each electronic symmetry channel, Eu partners summed."""
    states = symmetry_adapted_states()
    coeff = vector.reshape(-1, ELEC_DIM) @ states.conj()
    weights = np.sum(np.abs(coeff) ** 2, axis=0)
    total = float(weights.sum())
    weights = weights / total
    return {
        "A1u": float(weights[CHANNELS.index("A1u")]),
        "A2u": float(weights[CHANNELS.index("A2u")]),
        "Eu": float(weights[CHANNELS.index("Eu1")] + weights[CHANNELS.index("Eu2")]),
    }


def mean_displacement(vector: np.ndarray, ops: SymmetryOperators) -> tuple[float, float]:
    """(zero-point-subtracted, raw) radial displacement estimators.

    <X^2 + Y^2> equals 1 in the undistorted ground state, so the subtracted
    estimator vanishes there while the raw square root reports 1.
    """
    r2 = float(np.real(np.vdot(vector, ops.r2_total @ vector)))
    return float(np.sqrt(max(r2 - 1.0, 0.0))), float(np.sqrt(max(r2, 0.0)))


def analyze_states(
    result: EigResult, ops: SymmetryOperators, tol: float = CHARACTER_TOL
) -> list[VibronicState]:
    """Label, decompose and measure every eigenstate of a real-sector solve."""
    states: list[VibronicState] = []
    for energy, v in zip(result.eigenvalues, result.eigenvectors.T):
        disp, disp_raw = mean_displacement(v, ops)
        states.append(
            VibronicState(
                energy=float(energy),
                coefficients=v,
                irrep=irrep_label(v, ops, tol),
                composition=electronic_composition(v),
                displacement=disp,
                displacement_raw=disp_raw,
            )
        )
    return states


def composition_table_rows(
    states: list[VibronicState], length_scale_angstrom: float
) -> list[dict[str, float | str]]:
    """Flat rows (displacement, energy, composition) for the states CSV."""
    rows = []
    for s in states:
        rows.append(
            {
                "energy_mev": s.energy,
                "energy_rel_mev": s.energy - states[0].energy,
                "irrep": s.irrep,
                "displacement": s.displacement,
                "displacement_raw": s.displacement_raw,
                "displacement_angstrom": s.displacement * length_scale_angstrom,
                "p_a1u": s.composition["A1u"],
                "p_a2u": s.composition["A2u"],
                "p_eu": s.composition["Eu"],
            }
        )
    return rows
