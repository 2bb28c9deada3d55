"""Analytic adiabatic surfaces and parameter fitting against sampled surfaces.

The classical potential at mode coordinates (Q_x, Q_y) is the 4x4 electronic
matrix of the coupling Hamiltonian with the operators replaced by c-numbers,
plus the harmonic term (K/2)(Q_x^2 + Q_y^2) and the correlation splitting.
Its eigenvalues along the Q_y = 0 cut fully parameterize the model, which is
what makes fitting one-dimensional surface scans sufficient.

On the Q_y = 0 cut the potential is two 2x2 blocks, one per interference
branch b, so no surface needs an eigensolve: each surface is
E_b+/- = K q^2/2 + s_b lambda/2 +/- sqrt(u_b^2 + lambda^2/4) with
u_b = F_b q + G_b q^2, s_1 = +1 and s_2 = +1 (e-raised) or -1 (a-split).
adiabatic_surfaces returns one column per (branch, root) surface, ordered
by ascending energy at the first grid point (ties in branch, then -/+
order), so each column is one smooth surface across the grid.  At
lambda = 0 the blocks do not rotate and the two roots of a branch cross:
there the roots are taken with the signed u_b instead of its modulus.  The
reference level is the lowest level at Q = 0.

The fit runs in (K, lambda, F1, F2, G1/K, G2/K, offset) space, where the
feasible region is a plain box (|G_b/K| < 1/2 keeps the surfaces bounded at
any K), and converts back to well depths and warpings only at the end; a
global energy offset of the samples is absorbed by the nuisance parameter.
Its Jacobian is the exact derivative of the same closed form.

scipy.optimize is imported inside fit_pes, its only user, so importing the
package, solving and generating surfaces never load it.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .hamiltonian import PRESET_A_SPLIT, PRESET_E_RAISED
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

# sign s_b of the lambda/2 shift of branch b on the Q_y = 0 cut
_BRANCH_SIGNS = {PRESET_E_RAISED: np.array([1.0, 1.0]), PRESET_A_SPLIT: np.array([1.0, -1.0])}
# the -/+ root within each branch
_PM = np.array([-1.0, 1.0])
# [b, 1, b'] = 1 where b = b', broadcast over the -/+ axis
_BRANCH_EYE = np.eye(2)[:, None, :]


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


def adiabatic_surfaces(
    c: Couplings, lambda_corr: float, preset: str, qx_grid: np.ndarray
) -> PesCurve:
    """Four adiabatic surfaces along the Q_y = 0 cut, from the closed form of each branch.

    Column i is one (branch, -/+ root) surface over the whole grid; the
    columns are sorted by energy at the first grid point, a stable sort, so
    tied surfaces keep branch, then root order.  At lambda_corr = 0 each root
    follows the signed u_b, so the two surfaces of a branch cross where u_b
    changes sign.  Energies are referenced to the lowest level at Q = 0.
    """
    qx_grid = np.asarray(qx_grid, dtype=float)
    if not np.all(np.isfinite(qx_grid)):
        raise ValueError("grid must be finite")
    # Q = 0 rides along as the last point and sets the reference
    u, root, levels = _cut_levels(c, lambda_corr, preset, np.append(qx_grid, 0.0))
    if lambda_corr == 0.0:
        levels = levels + _PM * (u - root)[..., None]
    e = levels.reshape(-1, 4)
    order = np.argsort(e[0], kind="stable")
    return PesCurve(qx=qx_grid, energies=e[:-1, order] - e[-1].min(), qx_unit=QX_UNIT_DIMENSIONLESS)


# --- CSV interface ---------------------------------------------------------


def write_pes_csv(curve: PesCurve, path: str | Path) -> None:
    lines = [f"# qx_unit={curve.qx_unit}\n", "qx,e1_mev,e2_mev,e3_mev,e4_mev\n"]
    for q, row in zip(curve.qx.tolist(), curve.energies.tolist()):
        cells = [f"{q:.12g}"] + [f"{v:.12g}" if math.isfinite(v) else "" for v in row]
        lines.append(",".join(cells) + "\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))


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
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    data = np.array(rows, dtype=float)
    return PesCurve(qx=data[:, 0], energies=data[:, 1:], qx_unit=qx_unit)


# --- fitting ---------------------------------------------------------------


@dataclass
class PesFitResult:
    params: DefectParams
    lambda_corr: float
    offset: float
    rms_per_surface: np.ndarray
    cost_history: list[float]


def _theta_to_couplings(theta: np.ndarray) -> tuple[Couplings, float, float]:
    k, lam, f1, f2, gamma1, gamma2, offset = theta
    return Couplings.from_branches(f1, f2, gamma1 * k, gamma2 * k, k), lam, offset


def _model_grid(theta: np.ndarray, qx_sample: np.ndarray, unit: str, mass_amu: float):
    """Couplings, lambda, offset and the dimensionless grid with Q = 0 appended."""
    c, lam, offset = _theta_to_couplings(theta)
    q = qx_sample
    if unit == QX_UNIT_ANGSTROM:
        q = qx_sample / dimensionless_length_scale(c.hbar_omega_e, mass_amu)
    return c, lam, offset, np.append(q, 0.0)


def _branch_signs(preset: str) -> np.ndarray:
    if preset not in _BRANCH_SIGNS:
        raise ValueError(f"unknown correlation preset {preset!r}")
    return _BRANCH_SIGNS[preset]


def _cut_levels(c: Couplings, lam: float, preset: str, q: np.ndarray):
    """u_b, sqrt(u_b^2 + lambda^2/4) (shape (n, 2)) and the unsorted levels (n, 2, 2).

    The last axis of the levels holds the -/+ root of each branch.
    """
    qq = q[:, None]
    u = np.array([c.f1, c.f2]) * qq + np.array([c.g1, c.g2]) * qq**2
    root = np.sqrt(u**2 + 0.25 * lam**2)
    centre = 0.5 * c.hbar_omega_e * qq**2 + 0.5 * lam * _branch_signs(preset)
    return u, root, centre[..., None] + _PM * root[..., None]


def _sorted_levels(levels: np.ndarray, offset: float) -> np.ndarray:
    """Levels of _cut_levels sorted per sample point, minus the lowest Q = 0 level, plus offset."""
    e = levels.reshape(-1, 4)
    return np.sort(e[:-1], axis=1) - e[-1].min() + offset


def _model_sorted(theta: np.ndarray, qx_sample: np.ndarray, unit: str, preset: str, mass_amu: float):
    c, lam, offset, q = _model_grid(theta, qx_sample, unit, mass_amu)
    return _sorted_levels(_cut_levels(c, lam, preset, q)[2], offset)


def _model_jacobian(
    theta: np.ndarray,
    qx_sample: np.ndarray,
    unit: str,
    preset: str,
    mass_amu: float,
    cut: tuple | None = None,
) -> np.ndarray:
    """d(_model_sorted)/d(theta), shape (n, 4, 7), from the closed form of the cut.

    With w_b = u_b / sqrt(u_b^2 + lambda^2/4), taken as 0 where the root is 0,
    each level E = K q^2/2 + s_b lambda/2 +/- root has dE/dF_b = +/- w_b q,
    dE/d(G_b/K) = +/- w_b K q^2, dE/dlambda = s_b/2 +/- lambda/(4 root) and,
    at fixed G_b/K, dE/dK = q^2/2 +/- w_b (G_b/K) q^2.  Angstrom samples have
    q proportional to sqrt(K), which adds dE/dq q/(2K) to the K column.  Rows
    are sorted like the model's levels and the Q = 0 reference is subtracted.
    cut, when given, is _cut_levels at this theta and is used as it is.
    """
    c, lam, _, q = _model_grid(theta, qx_sample, unit, mass_amu)
    k = c.hbar_omega_e
    u, root, levels = _cut_levels(c, lam, preset, q) if cut is None else cut
    live = root > 0.0
    slope = _PM * np.divide(u, root, out=np.zeros_like(u), where=live)[..., None]
    dlam = _PM * np.divide(0.25 * lam, root, out=np.zeros_like(root), where=live)[..., None]
    g = np.array([c.g1, c.g2])
    q1, q2 = q[:, None, None], q[:, None, None] ** 2
    jac = np.zeros(levels.shape + (7,))
    jac[..., 0] = 0.5 * q2 + slope * (g / k)[:, None] * q2
    if unit == QX_UNIT_ANGSTROM:
        f = np.array([c.f1, c.f2])
        de_dq = k * q1 + slope * (f + 2.0 * g * q[:, None])[..., None]
        jac[..., 0] += de_dq * q1 / (2.0 * k)
    jac[..., 1] = 0.5 * _branch_signs(preset)[:, None] + dlam
    # F_b and G_b/K move only the levels of branch b
    jac[..., 2:4] = (slope * q1)[..., None] * _BRANCH_EYE
    jac[..., 4:6] = (slope * k * q2)[..., None] * _BRANCH_EYE
    levels, jac = levels.reshape(q.size, 4), jac.reshape(q.size, 4, 7)
    order = np.argsort(levels[:-1], axis=1)
    jac = np.take_along_axis(jac[:-1], order[..., None], axis=1) - jac[-1, np.argmin(levels[-1])]
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
    Each model call evaluates the closed-form levels of the Q_y = 0 cut over
    the grid with the Q = 0 reference appended, and the Jacobian is their
    exact derivative (_model_jacobian), so its singular values show a
    rank-deficient fit as such (IdentifiabilityError).  A Jacobian at the
    theta of the latest residual call reuses that call's levels.  The
    warpings are fitted as G_b/K in [-0.49, 0.49], inside the |G_b| < K/2
    bound that keeps the surfaces bounded.  One DEBUG record per fit goes to
    the "spinvibronic" logger.
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

    from scipy.optimize import least_squares

    t0 = time.perf_counter()
    mass_amu = initial.effective_mass_amu
    c0 = pes_to_couplings(initial)
    k0 = c0.hbar_omega_e
    theta0 = np.array([k0, initial.lambda_corr, c0.f1, c0.f2, c0.g1 / k0, c0.g2 / k0, 0.0])
    cost_history: list[float] = []
    # theta and _cut_levels of the latest residual call: least_squares asks
    # for most Jacobians at the point it has just evaluated
    last: list = [None, None]

    def residuals(theta):
        c, lam, offset, q = _model_grid(theta, samples.qx, samples.qx_unit, mass_amu)
        cut = _cut_levels(c, lam, preset, q)
        last[:] = theta.copy(), cut
        r = (_sorted_levels(cut[2], offset) - samples.energies)[mask]
        cost_history.append(float(np.dot(r, r)))
        return r

    def jacobian(theta):
        cut = last[1] if np.array_equal(theta, last[0]) else None
        return _model_jacobian(theta, samples.qx, samples.qx_unit, preset, mass_amu, cut)[mask]

    lower = [1.0, -2000.0, -3000.0, -3000.0, -0.49, -0.49, -1e5]
    upper = [1000.0, 2000.0, 3000.0, 3000.0, 0.49, 0.49, 1e5]
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
        names = ["hbar_omega_e", "lambda", "F1", "F2", "G1/K", "G2/K", "offset"]
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
        lambda_corr=lam_fit,
        offset=float(offset),
        rms_per_surface=rms,
        cost_history=accepted,
    )
