"""Irrep labels of vibronic states, and the composition and displacement of the reported ones.

The symmetry-adapted basis of hamiltonian declares the blocks of every
sector, and the solver returns each pair with the block it was solved in
(see eigensolver).  The block names the irrep: the j = 1 and j = 2 blocks
hold the two partners of every Eu doublet, and the C2'-even and -odd j = 0
blocks hold the A1u and A2u states.  So each state is labelled from its
block index, with no tolerance and no look at its vector.  The electronic
composition and mean displacement are measured only for the states table
of a report (composition_table_rows), not for every solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigensolver import EigResult
from .hamiltonian import ELEC_DIM, AdaptedBasis


@dataclass
class VibronicState:
    """One eigenstate, labelled by the irrep of the basis block that holds it."""

    energy: float
    coefficients: np.ndarray
    block: int  # index into AdaptedBasis.blocks: j = 1, j = 2, A1u, A2u
    irrep: str


def electronic_composition(product: np.ndarray) -> dict[str, float]:
    """Probability in each electronic symmetry channel, Eu partners summed.

    product is a real vector over |n_+, n_-> (x) |e>; |e+ e+> and |e- e->
    are Eu, and the sum and difference of |e+ e-> and |e- e+> over sqrt(2)
    are A2u and A1u (see hamiltonian).
    """
    c = product.reshape(-1, ELEC_DIM)
    weights = {
        "A1u": 0.5 * np.sum((c[:, 2] - c[:, 1]) ** 2),
        "A2u": 0.5 * np.sum((c[:, 2] + c[:, 1]) ** 2),
        "Eu": np.sum(c[:, 0] ** 2) + np.sum(c[:, 3] ** 2),
    }
    total = sum(weights.values())
    return {name: float(w / total) for name, w in weights.items()}


def mean_displacement(product: np.ndarray, r2) -> tuple[float, float]:
    """(zero-point-subtracted, raw) radial displacement estimators.

    product is a real vector over |n_+, n_-> (x) |e> and r2 the oscillator
    operator X^2 + Y^2.  <X^2 + Y^2> equals 1 in the undistorted ground state,
    so the subtracted estimator vanishes there while the raw square root
    reports 1.
    """
    c = product.reshape(-1, ELEC_DIM)
    value = float(np.sum(c * (r2 @ c)))
    return float(np.sqrt(max(value - 1.0, 0.0))), float(np.sqrt(max(value, 0.0)))


def analyze_states(result: EigResult, basis: AdaptedBasis) -> list[VibronicState]:
    """Label every eigenstate of an m_s = 0 solve on basis's blocks.

    Each state is labelled from the basis block that holds its solve block.
    """
    lo, hi = np.array(result.ranges).T
    held = basis.block_at(lo)
    if np.any(basis.block_at(hi - 1) != held):
        raise ValueError(f"solve blocks {result.ranges} do not nest in the symmetry blocks")
    return [
        VibronicState(energy=float(e), coefficients=v, block=int(b), irrep=basis.blocks[b][0])
        for e, v, b in zip(result.eigenvalues, result.eigenvectors.T, held[result.block])
    ]


def composition_table_rows(
    states: list[VibronicState], basis: AdaptedBasis, length_scale_angstrom: float
) -> list[dict[str, float | str]]:
    """Flat rows (energy, irrep, displacement, composition) for the states CSV.

    The states are vectors over basis.  composition holds probabilities over
    the electronic channels (A1u, A2u, Eu) with the two Eu partners summed;
    displacement_raw is sqrt(<X^2 + Y^2>), displacement the zero-point-
    subtracted sqrt(<X^2 + Y^2> - 1).  Both are kept because the distinction
    matters at small distortion and the data they are compared against does
    not say which estimator was used.
    """
    r2 = basis.operators.r2
    products = basis.to_product(np.column_stack([s.coefficients for s in states]))
    rows = []
    for s, p in zip(states, products.T):
        disp, disp_raw = mean_displacement(p, r2)
        comp = electronic_composition(p)
        rows.append(
            {
                "energy_mev": s.energy,
                "energy_rel_mev": s.energy - states[0].energy,
                "irrep": s.irrep,
                "displacement": disp,
                "displacement_raw": disp_raw,
                "displacement_angstrom": disp * length_scale_angstrom,
                "p_a1u": comp["A1u"],
                "p_a2u": comp["A2u"],
                "p_eu": comp["Eu"],
            }
        )
    return rows
