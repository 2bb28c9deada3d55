"""Irrep labels, electronic composition and displacement of vibronic states.

Labels are assigned from point-group characters: for a degeneracy cluster
{v_a}, chi(R) = trace of the cluster-projected symmetry operator R.  With the
proper rotations of the defect (a 2*pi/3 rotation and a C2' axis), singlet
clusters split into A1u (chi(C2') = +1) and A2u (-1), and doublets with
chi(C3) = -1 are Eu.  Characters are basis independent inside a cluster, so
the arbitrary mixing returned for degenerate eigenvectors is harmless.
Accidentally merged clusters (for example A1u + A2u pairs of the uncoupled
oscillator) are recognized by their composite characters and resolved by
diagonalizing the projected C2' operator; their vectors are rotated into that
eigenbasis, so each per-state label belongs to the vector it is attached to.
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
    cluster_index: int = 0


class SymmetryOperators:
    """Total-space symmetry operators and analysis matrices for one basis."""

    def __init__(self, basis: OscBasis):
        self.basis = basis
        ops = build_operators(basis)
        self.r_c3 = total_rotation(ops["C3"])
        self.r_c2 = total_reflection(ops["C2prime"])
        self.r2_total = sp.kron(ops["X2"] + ops["Y2"], sp.identity(ELEC_DIM), format="csr")
        # projector columns onto electronic symmetry channels
        self.channel_states = symmetry_adapted_states()


def cluster_characters(vectors: np.ndarray, op: sp.spmatrix) -> float:
    """Real part of the trace of the cluster-projected symmetry operator."""
    return float(np.real(np.einsum("ij,ij->", vectors.conj(), op @ vectors)))


def irrep_label(
    vectors: np.ndarray,
    ops: SymmetryOperators,
    tol: float = CHARACTER_TOL,
) -> tuple[str, list[str], np.ndarray]:
    """Label one degeneracy cluster (columns of `vectors`).

    Returns (cluster label, per-state labels, the vectors those labels belong
    to).  Composite clusters of two accidentally degenerate singlets are
    resolved through the projected C2' operator and come back rotated into
    its eigenbasis; every other cluster comes back as given.  Anything not
    matching an irrep character within tol is flagged as mixed.
    """
    d = vectors.shape[1]
    chi3 = cluster_characters(vectors, ops.r_c3)
    chi2 = cluster_characters(vectors, ops.r_c2)
    if d == 1:
        if abs(chi3 - 1.0) < tol:
            if abs(chi2 - 1.0) < tol:
                return LABEL_A1U, [LABEL_A1U], vectors
            if abs(chi2 + 1.0) < tol:
                return LABEL_A2U, [LABEL_A2U], vectors
        return LABEL_MIXED, [LABEL_MIXED], vectors
    if d == 2:
        if abs(chi3 + 1.0) < tol and abs(chi2) < tol:
            return LABEL_EU, [LABEL_EU, LABEL_EU], vectors
        if abs(chi3 - 2.0) < tol and abs(chi2) < tol:
            # accidental A1u + A2u pair: split along the C2' eigenvectors
            c2_block = vectors.conj().T @ (ops.r_c2 @ vectors)
            w, u = np.linalg.eigh(0.5 * (c2_block + c2_block.conj().T))
            labels = []
            for val in w:
                if abs(val - 1.0) < tol:
                    labels.append(LABEL_A1U)
                elif abs(val + 1.0) < tol:
                    labels.append(LABEL_A2U)
                else:
                    labels.append(LABEL_MIXED)
            return "A1u+A2u", labels, vectors @ u
    return LABEL_MIXED, [LABEL_MIXED] * d, vectors


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
    result: EigResult,
    clusters: list[list[int]],
    ops: SymmetryOperators,
    tol: float = CHARACTER_TOL,
) -> list[VibronicState]:
    """Label, decompose and measure every eigenstate of a real-sector solve."""
    states: list[VibronicState] = []
    for ci, cluster in enumerate(clusters):
        _, labels, vecs = irrep_label(result.eigenvectors[:, cluster], ops, tol=tol)
        for j, idx in enumerate(cluster):
            v = vecs[:, j]
            disp, disp_raw = mean_displacement(v, ops)
            states.append(
                VibronicState(
                    energy=float(result.eigenvalues[idx]),
                    coefficients=v,
                    irrep=labels[j],
                    composition=electronic_composition(v),
                    displacement=disp,
                    displacement_raw=disp_raw,
                    cluster_index=ci,
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
