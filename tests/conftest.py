from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp

from spinvibronic import (
    DEFECTS,
    SolverOptions,
    op_on_g,
    op_on_u,
    pes_to_couplings,
    solve_sector,
)
from spinvibronic.hamiltonian import total_reflection
from spinvibronic.oscillator import OscBasis, c2prime_reflection
from spinvibronic.pes import _dmat_dqx, _expect, classical_matrix

FAST_OPTS = SolverOptions(k=8, dense_threshold=4000)

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])


@pytest.fixture(scope="session")
def defects():
    return DEFECTS


@lru_cache(maxsize=None)
def cached_sector(name: str, cutoff: int, preset: str = "e-raised", k: int = 8):
    """Shared zero-spin-orbit solves; cached across the whole test session."""
    p = DEFECTS[name]
    opts = SolverOptions(k=k, dense_threshold=4000)
    return solve_sector(pes_to_couplings(p), p.lambda_corr, cutoff, preset, opts)


@pytest.fixture(scope="session")
def snv0_sector():
    return cached_sector("SnV0", 20)


# --- the physical spin-orbit sectors and their C2' phase gauge ---------------


def physical_soc_sector(h0: sp.csr_matrix, m_s: int, lam_u: float, lam_g: float) -> sp.csr_matrix:
    """The complex sector H0 + m_s (lam_u sy(u) + lam_g sy(g)) / 2, written out from sigma_y."""
    eye = sp.identity(h0.shape[0] // 4)
    s_u = sp.kron(eye, sp.csr_matrix(0.5 * op_on_u(SIGMA_Y)), format="csr")
    s_g = sp.kron(eye, sp.csr_matrix(0.5 * op_on_g(SIGMA_Y)), format="csr")
    return h0 + m_s * (lam_u * s_u + lam_g * s_g)


def c2prime_gauge(basis: OscBasis, m_s: int) -> np.ndarray:
    """Diagonal of D (1 on the C2' parity of index 0, i on the other), or of D^* for m_s = -1."""
    parity = total_reflection(c2prime_reflection(basis)).diagonal()
    d = np.where(parity == parity[0], 1.0 + 0j, 1j)
    return d if m_s > 0 else d.conj()


def gauged(h: sp.csr_matrix, d: np.ndarray) -> sp.csr_matrix:
    """D^* h D for diagonal D, entry by entry on h's own sparsity pattern."""
    data = np.repeat(d.conj(), np.diff(h.indptr)) * h.data * d[h.indices]
    return sp.csr_matrix((data, h.indices, h.indptr), shape=h.shape)


# --- surface oracle -------------------------------------------------------------


def lowest_surface_minimum(
    c, lambda_corr: float, preset: str, side: int, sheet: int = 0
) -> tuple[float, float]:
    """(position, depth) of a surface minimum on the requested side of Q_x = 0.

    sheet selects the surface by ascending energy order at the minimum
    (0 = lowest); depth is measured below the sheet's value at Q = 0.  Serves
    as the independent numerical oracle for the closed-form branch relations.
    """
    from scipy.optimize import brentq, minimize_scalar

    def sheet_energy(q: float) -> float:
        e = np.linalg.eigvalsh(classical_matrix(c, lambda_corr, preset, np.array([q]))[0])
        return float(e[sheet])

    def sheet_gradient(q: float) -> float:
        # Hellmann-Feynman derivative of the sheet along the Q_x axis
        qs = np.array([q])
        _, vecs = np.linalg.eigh(classical_matrix(c, lambda_corr, preset, qs))
        return float(_expect(vecs, _dmat_dqx(c, qs))[0, sheet])

    grid = side * np.linspace(1e-3, 6.0, 2400)
    values = np.linalg.eigvalsh(classical_matrix(c, lambda_corr, preset, grid))[:, sheet]
    i = int(np.argmin(values))
    if i in (0, grid.size - 1):
        return float(grid[i]), float(sheet_energy(0.0) - values[i])
    res = minimize_scalar(
        sheet_energy, bracket=(grid[i - 1], grid[i], grid[i + 1]), options={"xtol": 1e-12}
    )
    # polish the stationary point through the gradient, which crosses zero
    # steeply at the minimum and is computable to machine precision
    q_min = float(res.x)
    half_step = abs(grid[1] - grid[0])
    lo, hi = q_min - half_step, q_min + half_step
    if sheet_gradient(lo) * sheet_gradient(hi) < 0:
        q_min = brentq(sheet_gradient, lo, hi, xtol=1e-14, rtol=1e-15)
    return q_min, float(sheet_energy(0.0) - sheet_energy(q_min))
