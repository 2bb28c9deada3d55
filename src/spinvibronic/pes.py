"""Analytic adiabatic surfaces and parameter fitting against sampled surfaces.

The classical potential at mode coordinates (Q_x, Q_y) is the 4x4 electronic
matrix of the coupling Hamiltonian with the operators replaced by c-numbers,
plus the harmonic term (K/2)(Q_x^2 + Q_y^2) and the correlation splitting.
Its eigenvalues along the Q_y = 0 cut fully parameterize the model, which is
what makes fitting one-dimensional surface scans sufficient.

Surface columns are continued through the grid by eigenvector overlap rather
than by sorting, so degeneracy touchings at Q = 0 do not produce kinks.  The
reference level at Q = 0 is the last point of the same stacked eigensolve as
the grid.  The fit runs in (K, Lambda, F1, F2, G1, G2, offset) space, where
the feasible region is a plain box, and converts back to well depths and
warpings only at the end; a global energy offset of the samples is absorbed
by the nuisance parameter.  Its Jacobian is exact: the potential is linear in
every parameter but K of angstrom samples, so each derivative is the
Hellmann-Feynman expectation of a constant operator (Feynman, Phys. Rev. 56,
340 (1939)).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares, linear_sum_assignment

from .hamiltonian import (
    PRESET_E_RAISED,
    SIGMA_X,
    SIGMA_Z,
    build_correlation,
    op_on_g,
    op_on_u,
)
from .params import (
    Couplings,
    DefectParams,
    couplings_to_pes,
    dimensionless_length_scale,
    pes_to_couplings,
)

log = logging.getLogger("spinvibronic")

QX_UNIT_DIMENSIONLESS = "dimensionless"
QX_UNIT_ANGSTROM = "angstrom"

# least_squares evaluation budget of one fit
MAX_NFEV = 4000

# the four coupling operators on the electronic factor
_U_Z, _U_X = op_on_u(SIGMA_Z), op_on_u(SIGMA_X)
_G_Z, _G_X = op_on_g(SIGMA_Z), op_on_g(SIGMA_X)
_EYE = np.eye(4)


class PesFitError(RuntimeError):
    """Fit did not converge or the solution is not trustworthy."""


class IdentifiabilityError(PesFitError):
    """The sampled data cannot pin down all model parameters."""


@dataclass
class PesCurve:
    """Sampled or generated adiabatic surfaces along a 1D cut.

    energies has one row per grid point and four columns (meV); entries may
    be NaN for surfaces missing from external data.  Energies are referenced
    to the lowest electronic level at Q = 0.
    """

    qx: np.ndarray
    energies: np.ndarray
    qx_unit: str = QX_UNIT_DIMENSIONLESS

    def __post_init__(self):
        self.qx = np.asarray(self.qx, dtype=float)
        self.energies = np.asarray(self.energies, dtype=float)
        if self.energies.shape != (self.qx.size, 4):
            raise ValueError("energies must have shape (len(qx), 4)")
        if self.qx_unit not in (QX_UNIT_DIMENSIONLESS, QX_UNIT_ANGSTROM):
            raise ValueError(f"unknown qx unit {self.qx_unit!r}")


def classical_matrix(
    c: Couplings, lambda_corr: float, preset: str, qx: np.ndarray, qy: float | np.ndarray = 0.0
) -> np.ndarray:
    """Stacked 4x4 potential matrices over the grid (shape (n, 4, 4))."""
    qx = np.atleast_1d(np.asarray(qx, dtype=float))
    qy = np.broadcast_to(np.asarray(qy, dtype=float), qx.shape)
    w = build_correlation(lambda_corr, preset)
    harm = 0.5 * c.hbar_omega_e * (qx**2 + qy**2)
    z_u = c.f_u * qx + c.g_u * (qx**2 - qy**2)
    x_u = -c.f_u * qy + 2.0 * c.g_u * qx * qy
    z_g = c.f_g * qx + c.g_g * (qx**2 - qy**2)
    x_g = -c.f_g * qy + 2.0 * c.g_g * qx * qy
    return (
        harm[:, None, None] * _EYE
        + z_u[:, None, None] * _U_Z
        + x_u[:, None, None] * _U_X
        + z_g[:, None, None] * _G_Z
        + x_g[:, None, None] * _G_X
        + w
    )


def _dmat_dqx(c: Couplings, qx: np.ndarray) -> np.ndarray:
    """Stacked derivative of classical_matrix along Q_x on the Q_y = 0 cut."""
    return (
        (c.hbar_omega_e * qx)[:, None, None] * _EYE
        + (c.f_u + 2.0 * c.g_u * qx)[:, None, None] * _U_Z
        + (c.f_g + 2.0 * c.g_g * qx)[:, None, None] * _G_Z
    )


def _expect(vectors: np.ndarray, op: np.ndarray) -> np.ndarray:
    """<v_n|op|v_n> for every eigenvector column of a stack, shape (n, 4)."""
    return np.sum(vectors * (op @ vectors), axis=-2)


def _track_columns(energies: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Reorder eigenvalue columns for continuity via eigenvector overlap."""
    n = energies.shape[0]
    tracked = np.empty_like(energies)
    tracked[0] = energies[0]
    prev = vectors[0]
    for i in range(1, n):
        overlap = np.abs(prev.conj().T @ vectors[i])
        row, col = linear_sum_assignment(-overlap)
        order = np.empty(4, dtype=int)
        order[row] = col
        tracked[i] = energies[i][order]
        prev = vectors[i][:, order]
    return tracked


def adiabatic_surfaces(
    c: Couplings,
    lambda_corr: float,
    preset: str,
    qx_grid: np.ndarray,
    qy: float = 0.0,
) -> PesCurve:
    """Four adiabatic surfaces along a 1D cut, continued by overlap."""
    qx_grid = np.asarray(qx_grid, dtype=float)
    if not np.all(np.isfinite(qx_grid)):
        raise ValueError("grid must be finite")
    # Q = 0 rides along as the last point of the stack and sets the reference
    qy_grid = np.append(np.full(qx_grid.shape, float(qy)), 0.0)
    mats = classical_matrix(c, lambda_corr, preset, np.append(qx_grid, 0.0), qy_grid)
    energies, vectors = np.linalg.eigh(mats)
    tracked = _track_columns(energies[:-1], vectors[:-1]) - energies[-1, 0]
    return PesCurve(qx=qx_grid, energies=tracked, qx_unit=QX_UNIT_DIMENSIONLESS)


# --- CSV interface ---------------------------------------------------------


def write_pes_csv(curve: PesCurve, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# qx_unit={curve.qx_unit}\n")
        fh.write("qx,e1_mev,e2_mev,e3_mev,e4_mev\n")
        for q, row in zip(curve.qx, curve.energies):
            cells = [f"{q:.12g}"] + ["" if not np.isfinite(v) else f"{v:.12g}" for v in row]
            fh.write(",".join(cells) + "\n")


def read_pes_csv(path: str | Path) -> PesCurve:
    """Parse the surface-sample format; the unit header flag is mandatory."""
    qx_unit = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                flag = line.lstrip("#").strip()
                if flag.startswith("qx_unit="):
                    qx_unit = flag.split("=", 1)[1].strip()
                continue
            if line.lower().startswith("qx"):
                continue
            cells = line.split(",")
            if len(cells) != 5:
                raise ValueError(f"expected 5 comma-separated fields, got {line!r}")
            q = float(cells[0])
            vals = [float(v) if v.strip() != "" else math.nan for v in cells[1:]]
            rows.append([q] + vals)
    if qx_unit is None:
        raise ValueError("missing '# qx_unit=...' header; units are never guessed")
    data = np.array(rows, dtype=float)
    return PesCurve(qx=data[:, 0], energies=data[:, 1:], qx_unit=qx_unit)


# --- fitting ---------------------------------------------------------------


@dataclass
class PesFitResult:
    params: DefectParams
    couplings: Couplings
    lambda_corr: float
    offset: float
    rms_per_surface: np.ndarray
    cost_history: list[float]
    jacobian_singular_values: np.ndarray


def _theta_to_couplings(theta: np.ndarray) -> tuple[Couplings, float, float]:
    k, lam, f1, f2, g1, g2, offset = theta
    c = Couplings(
        f_u=0.5 * (f1 + f2),
        f_g=0.5 * (f1 - f2),
        g_u=0.5 * (g1 + g2),
        g_g=0.5 * (g1 - g2),
        hbar_omega_e=k,
    )
    return c, lam, offset


def _model_grid(theta: np.ndarray, qx_sample: np.ndarray, unit: str, mass_amu: float):
    """Couplings, lambda, offset and the dimensionless grid with Q = 0 appended."""
    c, lam, offset = _theta_to_couplings(theta)
    q = qx_sample
    if unit == QX_UNIT_ANGSTROM:
        q = qx_sample / dimensionless_length_scale(c.hbar_omega_e, mass_amu)
    return c, lam, offset, np.append(q, 0.0)


def _model_sorted(theta: np.ndarray, qx_sample: np.ndarray, unit: str, preset: str, mass_amu: float):
    c, lam, offset, q = _model_grid(theta, qx_sample, unit, mass_amu)
    e = np.linalg.eigvalsh(classical_matrix(c, lam, preset, q))
    return e[:-1] - e[-1, 0] + offset


def _model_jacobian(
    theta: np.ndarray, qx_sample: np.ndarray, unit: str, preset: str, mass_amu: float
) -> np.ndarray:
    """d(_model_sorted)/d(theta), shape (n, 4, 7), by Hellmann-Feynman.

    Each entry is <v_n|dM/dtheta|v_n> from one stacked eigh; dM/dtheta is a
    constant operator times q or q^2 (W(1) for lambda), and the Q = 0 row is
    subtracted as the reference.  Angstrom samples have q proportional to
    sqrt(K), which adds <v_n|dM/dq|v_n> q / (2K) to the K column.
    """
    c, lam, _, q = _model_grid(theta, qx_sample, unit, mass_amu)
    _, vecs = np.linalg.eigh(classical_matrix(c, lam, preset, q))
    z_u, z_g = _expect(vecs, _U_Z), _expect(vecs, _G_Z)
    lin, quad = 0.5 * q[:, None], 0.5 * q[:, None] ** 2
    jac = np.empty(q.shape + (4, 7))
    jac[..., 0] = quad
    if unit == QX_UNIT_ANGSTROM:
        jac[..., 0] += _expect(vecs, _dmat_dqx(c, q)) * lin / c.hbar_omega_e
    jac[..., 1] = _expect(vecs, build_correlation(1.0, preset))
    jac[..., 2] = lin * (z_u + z_g)
    jac[..., 3] = lin * (z_u - z_g)
    jac[..., 4] = quad * (z_u + z_g)
    jac[..., 5] = quad * (z_u - z_g)
    jac = jac[:-1] - jac[-1, 0]
    jac[..., 6] = 1.0
    return jac


def fit_pes(
    samples: PesCurve, initial: DefectParams, preset: str = PRESET_E_RAISED
) -> PesFitResult:
    """Nonlinear least squares of all four surfaces simultaneously.

    samples must cover both sides of Q_x = 0 with at least 20 points; missing
    entries (NaN) are masked.  The sorted model eigenvalues are matched
    positionally to the sample columns, which therefore must be in ascending
    energy order per point.  Angstrom samples are converted with the
    oscillator length of initial.effective_mass_amu, which the result keeps.
    Each model call is one stacked eigensolve over the grid with the Q = 0
    reference appended, and the Jacobian is the exact Hellmann-Feynman one of
    _model_jacobian, so its singular values show a rank-deficient fit as such
    (IdentifiabilityError).  One DEBUG record per
    fit goes to the "spinvibronic" logger.
    """
    mask = np.isfinite(samples.energies)
    n_pts = samples.qx.size
    if n_pts < 20:
        raise IdentifiabilityError(f"need at least 20 sample points, got {n_pts}")
    if not (np.any(samples.qx > 0) and np.any(samples.qx < 0)):
        raise IdentifiabilityError(
            "samples cover only one side of Q_x = 0: the side of the branch-2 "
            "minimum (sign of F2) is structurally unidentifiable from one-sided "
            "scans; provide points on both sides"
        )
    if not np.any(mask):
        raise IdentifiabilityError("all surface entries are missing")

    t0 = time.perf_counter()
    mass_amu = initial.effective_mass_amu
    c0 = pes_to_couplings(initial)
    theta0 = np.array(
        [c0.hbar_omega_e, initial.lambda_corr, c0.f1, c0.f2, c0.g1, c0.g2, 0.0]
    )
    cost_history: list[float] = []

    def residuals(theta):
        model = _model_sorted(theta, samples.qx, samples.qx_unit, preset, mass_amu)
        r = (model - samples.energies)[mask]
        cost_history.append(float(np.dot(r, r)))
        return r

    def jacobian(theta):
        return _model_jacobian(theta, samples.qx, samples.qx_unit, preset, mass_amu)[mask]

    lower = [1.0, -2000.0, -3000.0, -3000.0, -43.0, -43.0, -1e5]
    upper = [1000.0, 2000.0, 3000.0, 3000.0, 43.0, 43.0, 1e5]
    theta0 = np.clip(theta0, lower, upper)
    res = least_squares(
        residuals,
        theta0,
        jac=jacobian,
        bounds=(lower, upper),
        method="trf",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=MAX_NFEV,
    )
    if res.status <= 0:
        raise PesFitError(f"fit did not converge: {res.message}")

    svals = np.linalg.svd(res.jac, compute_uv=False)
    ratio = svals[-1] / svals[0] if svals[0] > 0 else 0.0
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "fit_pes: nfev=%d njev=%d cost=%.6e status=%d sv_ratio=%.3e seconds=%.6f",
            res.nfev, res.njev, res.cost, res.status, ratio, time.perf_counter() - t0,
        )
    if ratio < 1e-10:
        vt = np.linalg.svd(res.jac)[2]
        names = ["hbar_omega_e", "lambda", "F1", "F2", "G1", "G2", "offset"]
        null_dir = {n: round(float(x), 3) for n, x in zip(names, vt[-1])}
        raise IdentifiabilityError(
            f"rank-deficient fit Jacobian (singular values {svals}); "
            f"weakest direction {null_dir}"
        )

    theta = res.x.copy()
    # gauge normalization: joint (F, G) sign flips per branch are unphysical
    for fi, gi in ((2, 4), (3, 5)):
        if theta[gi] < 0.0:
            theta[gi] = -theta[gi]
            theta[fi] = -theta[fi]
    c_fit, lam_fit, offset = _theta_to_couplings(theta)
    params = replace(
        couplings_to_pes(c_fit, name=initial.name, effective_mass_amu=mass_amu),
        lambda_corr=lam_fit,
        zpl_baseline_ev=initial.zpl_baseline_ev,
    )
    model = _model_sorted(theta, samples.qx, samples.qx_unit, preset, mass_amu)
    rms = np.full(4, np.nan)
    for j in range(4):
        mj = mask[:, j]
        if np.any(mj):
            rms[j] = float(np.sqrt(np.mean((model[mj, j] - samples.energies[mj, j]) ** 2)))
    # monotone non-increasing cost over accepted steps is part of the solver
    # contract; the recorded history includes rejected trials, so only the
    # running minimum is reported
    accepted = list(np.minimum.accumulate(cost_history))
    return PesFitResult(
        params=params,
        couplings=c_fit,
        lambda_corr=lam_fit,
        offset=float(offset),
        rms_per_surface=rms,
        cost_history=accepted,
        jacobian_singular_values=svals,
    )
