from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from spinvibronic import (
    DEFECTS,
    Couplings,
    EigResult,
    PRESET_A_SPLIT,
    PRESET_E_RAISED,
    SolverOptions,
    adapted_basis,
    analysis,
    couplings_for_order,
    op_on_g,
    op_on_u,
    pes_to_couplings,
    solution_gamma,
    solve_sector,
)
from spinvibronic.hamiltonian import E_RAISE, ELEC_DIM, circular_correlation
from spinvibronic.oscillator import build_basis, build_operators
from spinvibronic.pes import QX_UNIT_DIMENSIONLESS, PesCurve

FAST_OPTS = SolverOptions(k=8, dense_threshold=4000)

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])


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


def second_order_shift(defect, cutoff: int, opts: SolverOptions) -> float:
    """Level shift caused by the quadratic coupling terms at fixed well depth.

    Compares the lowest eigenstate of the full quadratic model against the
    linear reference F = sqrt(2 * E_JT * K), G = 0, which keeps each branch's
    stabilization energy; the warping stiffens the wells and pushes the low
    vibronic levels up by roughly 25 meV for the tabulated defects.
    """
    k = defect.hbar_omega_e
    f1 = math.sqrt(2.0 * defect.e_jt[0] * k)
    f2 = math.sqrt(2.0 * defect.e_jt[1] * k)
    if defect.rho0_angstrom is not None and defect.rho0_angstrom[1] < 0:
        f2 = -f2
    linear = Couplings.from_branches(f1, f2, 0.0, 0.0, k)
    e2 = solve_sector(pes_to_couplings(defect), defect.lambda_corr, cutoff, opts=opts).energies[0]
    e1 = solve_sector(linear, defect.lambda_corr, cutoff, opts=opts).energies[0]
    return float(e2 - e1)


def gamma_splitting(
    defect, order: int, cutoff: int, preset: str = PRESET_E_RAISED, opts=SolverOptions()
) -> float:
    """gamma of the opts.k-pair solve_sector: the oracle for analysis.block_minima's gamma."""
    couplings = couplings_for_order(defect, order)
    return solution_gamma(solve_sector(couplings, defect.lambda_corr, cutoff, preset, opts))


# --- sweep oracles: every cutoff solved in full ---------------------------------


def converge_observable_full(defect, order, rel_tol, n_start, n_step, n_max, preset, opts):
    """converge_observable with a full solve (opts.k pairs) at every cutoff.

    The oracle for the sweep that confirms each cutoff with one pair per block.
    """

    def solve_in_full(spec, opts, prev=None):
        return solve_sector(spec.couplings, spec.lambda_corr, spec.cutoff, spec.preset, opts)

    with mock.patch.object(analysis, "block_minima", solve_in_full):
        return analysis.converge_observable(
            defect, order, rel_tol, n_start, n_step, n_max, preset, opts
        )


def lowest_per_block_lapack(h: sp.csr_matrix, ranges, keep: int | None = None) -> EigResult:
    """The lowest pair of every block, each by LAPACK on the whole dense block, ascending.

    keep cuts the pairs to the lowest keep; None keeps all of them.
    """
    vals, vecs = np.empty(len(ranges)), np.zeros((h.shape[0], len(ranges)))
    for b, (lo, hi) in enumerate(ranges):
        w, v = scipy.linalg.eigh(h[lo:hi, lo:hi].toarray(), subset_by_index=[0, 0])
        vals[b], vecs[lo:hi, b] = w[0], v[:, 0]
    order = np.argsort(vals, kind="stable")[:keep]
    return EigResult(vals[order], vecs[:, order], np.zeros(order.size), tuple(ranges), order)


# --- product-basis reference: the kron-and-fold assembly ------------------------
#
# The sector built whole over the circular product basis |n_+, n_-> (x) |e>
# from the couplings, then folded into the adapted basis: the oracle for
# assemble's weighted sum of cached unit terms.


def build_pjt(spec, osc) -> sp.csr_matrix:
    """Electron-phonon interaction alone, in the product basis |n_+, n_-> (x) |e>."""
    c = spec.couplings
    ops = build_operators(osc)
    raise_u, raise_g = op_on_u(E_RAISE), op_on_g(E_RAISE)
    t = sp.kron(ops["Q+"], sp.csr_matrix(c.f_u * raise_u + c.f_g * raise_g), format="csr")
    t = t + sp.kron(ops["Q+2"], sp.csr_matrix(c.g_u * raise_u.T + c.g_g * raise_g.T), format="csr")
    return (t + t.T).tocsr()


def product_sector(spec, osc) -> sp.csr_matrix:
    """H_osc + W + pJT over the product basis."""
    osc_diag = spec.couplings.hbar_omega_e * (osc.n_plus + osc.n_minus + 1.0)
    h = sp.kron(sp.diags(osc_diag), sp.identity(ELEC_DIM), format="csr")
    w = circular_correlation(spec.lambda_corr, spec.preset)
    if np.any(w):
        h = h + sp.kron(sp.identity(osc.dim), sp.csr_matrix(w), format="csr")
    return (h + build_pjt(spec, osc)).tocsr()


def folded_sector(spec) -> sp.csr_matrix:
    """The spin-orbit-free sector of spec by kron and fold, in the adapted basis."""
    basis = adapted_basis(spec.cutoff)
    return basis.adapt(product_sector(spec, basis.osc))


# --- block oracle: the connected components of the sparsity pattern ------------


def connected_blocks(h: sp.csr_matrix) -> list[np.ndarray]:
    """Ascending index sets of the decoupled blocks of h, from its sparsity pattern alone.

    The oracle for the ranges AdaptedBasis.sector_blocks declares.
    """
    from scipy.sparse.csgraph import connected_components

    pattern = sp.csr_matrix((np.ones(h.nnz), h.indices, h.indptr), shape=h.shape)
    _, labels = connected_components(pattern, directed=False)
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.cumsum(np.bincount(labels))[:-1])


# --- Cartesian reference: the oracle for the symmetry-adapted assembly -------
#
# States |n_x, n_y> with n_x + n_y <= cutoff, shell-major with n_x minor, and
# the electronic states |u_x g_x>, |u_y g_x>, |u_x g_y>, |u_y g_y> (u fast).
# The sector is assembled from the Cartesian coupling operators, and the
# point-group operations are built from their own definitions.


@dataclass(frozen=True)
class CartesianBasis:
    cutoff: int
    n_x: np.ndarray
    n_y: np.ndarray

    @property
    def dim(self) -> int:
        return self.n_x.size


# electronic channel order of the Cartesian states
CHANNELS = ("A1u", "A2u", "Eu1", "Eu2")


def symmetry_adapted_states() -> np.ndarray:
    """Columns (A1u, A2u, Eu1, Eu2) over the Cartesian states |u_x g_x>, |u_y g_x>, |u_x g_y>, |u_y g_y>."""
    s = 1.0 / math.sqrt(2.0)
    a1u = np.array([0.0, -s, s, 0.0])  # (|xy> - |yx>)/sqrt(2), |xy> = e2
    a2u = np.array([s, 0.0, 0.0, s])
    eu1 = np.array([s, 0.0, 0.0, -s])
    eu2 = np.array([0.0, s, s, 0.0])
    return np.column_stack([a1u, a2u, eu1, eu2])


# projector onto each electronic channel, in CHANNELS order
CHANNEL_PROJECTORS = {
    name: np.outer(v, v) for name, v in zip(CHANNELS, symmetry_adapted_states().T)
}


def build_correlation(lambda_corr: float, preset: str = PRESET_E_RAISED) -> np.ndarray:
    """Static correlation term W over the Cartesian electronic states, real 4x4.

    e-raised: the Eu pair sits lambda_corr above the degenerate A1u/A2u pair.
    a-split:  the symmetric combination (|xx>+|yy>)/sqrt(2) (= A2u, strongly
    coupled) is raised by lambda_corr, the antisymmetric one lowered, with
    the Eu pair at zero.  The oracle for circular_correlation.
    """
    p = CHANNEL_PROJECTORS
    if preset == PRESET_E_RAISED:
        return lambda_corr * (p["Eu1"] + p["Eu2"])
    if preset == PRESET_A_SPLIT:
        return lambda_corr * p["A2u"] - lambda_corr * p["A1u"]
    raise ValueError(f"unknown correlation preset {preset!r}")


def cartesian_basis(cutoff: int) -> CartesianBasis:
    n_x = np.concatenate([np.arange(n + 1) for n in range(cutoff + 1)])
    n_y = np.concatenate([np.full(n + 1, n) - np.arange(n + 1) for n in range(cutoff + 1)])
    return CartesianBasis(cutoff, n_x, n_y)


def _cartesian_symmetric(basis: CartesianBasis, hops, diagonal=None) -> sp.csr_matrix:
    k = np.arange(basis.dim)
    rows, cols, vals = [], [], []
    if diagonal is not None:
        rows, cols, vals = [k], [k], [diagonal]
    for dnx, dny, amplitudes in hops:
        nx, ny = basis.n_x + dnx, basis.n_y + dny
        inside = (nx >= 0) & (ny >= 0) & (nx + ny <= basis.cutoff)
        n = nx[inside] + ny[inside]
        target = n * (n + 1) // 2 + nx[inside]
        rows += [target, k[inside]]
        cols += [k[inside], target]
        vals += [amplitudes[inside]] * 2
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
    ).tocsr()


def cartesian_operators(basis: CartesianBasis) -> dict[str, sp.csr_matrix]:
    """X, Y, X^2, Y^2 and XY from exact Cartesian ladder elements."""
    nx, ny = basis.n_x, basis.n_y
    return {
        "X": _cartesian_symmetric(basis, [(1, 0, np.sqrt(nx + 1) / math.sqrt(2.0))]),
        "Y": _cartesian_symmetric(basis, [(0, 1, np.sqrt(ny + 1) / math.sqrt(2.0))]),
        "X2": _cartesian_symmetric(basis, [(2, 0, np.sqrt((nx + 1) * (nx + 2)) / 2.0)], nx + 0.5),
        "Y2": _cartesian_symmetric(basis, [(0, 2, np.sqrt((ny + 1) * (ny + 2)) / 2.0)], ny + 0.5),
        "XY": _cartesian_symmetric(
            basis,
            [(1, 1, np.sqrt((nx + 1) * (ny + 1)) / 2.0), (1, -1, np.sqrt((nx + 1) * ny) / 2.0)],
        ),
    }


def c3_rotation(basis: CartesianBasis) -> sp.csr_matrix:
    """Rotation of the mode plane by 2*pi/3, exp(-i 2 pi/3 L), block diagonal in the shells.

    Within a shell L = X P_y - Y P_x is Hermitian tridiagonal with
    <n_x+1, n_y-1| L |n_x, n_y> = -i sqrt((n_x+1) n_y); the gauge diag(i**n_x)
    makes it real, and its integer eigenvalues are rounded before exponentiating.
    """
    blocks = []
    for n in range(basis.cutoff + 1):
        nx = np.arange(n + 1)
        s = np.sqrt((nx[:-1] + 1.0) * (n - nx[:-1]))
        ell, v = scipy.linalg.eigh_tridiagonal(np.zeros(n + 1), -s)
        u = (1j**nx)[:, None] * v
        block = (u * np.exp(-1j * (2.0 * np.pi / 3.0) * np.rint(ell))) @ u.conj().T
        assert np.max(np.abs(block.imag)) < 1e-12
        blocks.append(block.real)
    return sp.block_diag(blocks, format="csr")


def c2prime_reflection(basis: CartesianBasis) -> sp.csr_matrix:
    """Reflection (Q_x, Q_y) -> (Q_x, -Q_y): diagonal with (-1)**n_y."""
    return sp.diags(np.where(basis.n_y % 2 == 0, 1.0, -1.0)).tocsr()


def electronic_rotation() -> np.ndarray:
    """Rotation by 2*pi/3 applied to both doublets (real orthogonal 4x4)."""
    c, s = -0.5, math.sqrt(3.0) / 2.0
    r = np.array([[c, -s], [s, c]])
    return op_on_u(r) @ op_on_g(r)


def electronic_reflection() -> np.ndarray:
    """C2' on the electronic factor: diag(1,-1) on u, diag(-1,1) on g."""
    return op_on_u(np.diag([1.0, -1.0])) @ op_on_g(np.diag([-1.0, 1.0]))


def total_rotation(osc_c3: sp.spmatrix) -> sp.csr_matrix:
    """Simultaneous 2*pi/3 rotation of modes and both electronic doublets."""
    return sp.kron(osc_c3, sp.csr_matrix(electronic_rotation()), format="csr")


def total_reflection(osc_c2: sp.spmatrix) -> sp.csr_matrix:
    """Simultaneous C2' reflection of modes and electronic factor."""
    return sp.kron(osc_c2, sp.csr_matrix(electronic_reflection()), format="csr")


def cartesian_sector(spec, m_s: int = 0, lam_u: float = 0.0, lam_g: float = 0.0) -> sp.csr_matrix:
    """The physical sector over the Cartesian basis, complex for m_s = +/-1.

    H0 = K (n + 1) + f_u (X sz(u) - Y sx(u)) + f_g (X sz(g) - Y sx(g))
         + g_u ((X^2 - Y^2) sz(u) + 2 XY sx(u)) + g_g (same on g) + W,
    plus m_s (lam_u sy(u) + lam_g sy(g)) / 2.
    """
    basis = cartesian_basis(spec.cutoff)
    ops = cartesian_operators(basis)
    c = spec.couplings
    terms = [
        (sp.diags(c.hbar_omega_e * (basis.n_x + basis.n_y + 1.0)), np.eye(4)),
        (sp.identity(basis.dim), build_correlation(spec.lambda_corr, spec.preset)),
        (ops["X"], c.f_u * op_on_u(SIGMA_Z) + c.f_g * op_on_g(SIGMA_Z)),
        (ops["Y"], -c.f_u * op_on_u(SIGMA_X) - c.f_g * op_on_g(SIGMA_X)),
        (ops["X2"] - ops["Y2"], c.g_u * op_on_u(SIGMA_Z) + c.g_g * op_on_g(SIGMA_Z)),
        (ops["XY"], 2.0 * (c.g_u * op_on_u(SIGMA_X) + c.g_g * op_on_g(SIGMA_X))),
    ]
    h = sum(sp.kron(mode, sp.csr_matrix(elec), format="csr") for mode, elec in terms)
    if m_s:
        soc = 0.5 * m_s * (lam_u * op_on_u(SIGMA_Y) + lam_g * op_on_g(SIGMA_Y))
        h = h + sp.kron(sp.identity(basis.dim), sp.csr_matrix(soc), format="csr")
    return h.tocsr()


def circular_states(cutoff: int) -> np.ndarray:
    """Columns |n_+, n_-> of the package's oscillator basis over the Cartesian basis.

    |n_+, n_-> = a_+^dag |n_+ - 1, n_-> / sqrt(n_+) (or a_-^dag on n_- when
    n_+ = 0), with a_+/-^dag = (a_x^dag +/- i a_y^dag) / sqrt(2); raising
    operators never leave the truncated space, so the columns are exact.
    """
    cart = cartesian_basis(cutoff)
    ax = _cartesian_symmetric(cart, [(1, 0, np.sqrt(cart.n_x + 1.0))]).toarray()
    ay = _cartesian_symmetric(cart, [(0, 1, np.sqrt(cart.n_y + 1.0))]).toarray()
    ax_dag = np.tril(ax)  # the raising half: targets in the higher shell
    ay_dag = np.tril(ay)
    raise_p = (ax_dag + 1j * ay_dag) / math.sqrt(2.0)
    raise_m = (ax_dag - 1j * ay_dag) / math.sqrt(2.0)
    osc = build_basis(cutoff)
    u = np.zeros((cart.dim, osc.dim), dtype=complex)
    u[0, 0] = 1.0
    for k in range(1, osc.dim):
        npl, nmi = int(osc.n_plus[k]), int(osc.n_minus[k])
        if npl > 0:
            u[:, k] = raise_p @ u[:, osc.index(npl - 1, nmi)] / math.sqrt(npl)
        else:
            u[:, k] = raise_m @ u[:, osc.index(0, nmi - 1)] / math.sqrt(nmi)
    return u


# e_+/- = (x +/- i y)/sqrt(2) on each doublet, columns ordered e = 2*i_g + i_u
_E_PM = np.array([[1.0, 1.0], [1j, -1j]]) / math.sqrt(2.0)
ELECTRONIC_CIRCULAR = np.column_stack(
    [np.kron(_E_PM[:, i_g], _E_PM[:, i_u]) for i_g in (0, 1) for i_u in (0, 1)]
)


def c2prime_adapted(basis) -> sp.csr_matrix:
    """C2' over an AdaptedBasis from its block layout: j = 1 <-> j = 2 with -1, +1 on A1u, -1 on A2u."""
    (_, _, m1), _, (_, a1, a2), (_, _, end) = basis.blocks
    rows = np.concatenate([np.arange(m1, 2 * m1), np.arange(m1), np.arange(a1, end)])
    cols = np.concatenate([np.arange(m1), np.arange(m1, 2 * m1), np.arange(a1, end)])
    vals = np.concatenate([-np.ones(2 * m1), np.ones(a2 - a1), -np.ones(end - a2)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(end, end))


def adapted_unitary(basis) -> np.ndarray:
    """Columns: the adapted basis vectors of an AdaptedBasis over the Cartesian product basis."""
    return _adapted_unitary(basis.osc.cutoff)


@lru_cache(maxsize=None)
def _adapted_unitary(cutoff: int) -> np.ndarray:
    product = np.kron(circular_states(cutoff), ELECTRONIC_CIRCULAR)
    basis = adapted_basis(cutoff)
    return product @ basis.to_product(np.eye(basis.dim))


# --- surface oracle -------------------------------------------------------------
#
# The classical potential as stacked Cartesian 4x4 matrices, diagonalized
# point by point: the oracle for the closed-form surfaces of pes.

# the four coupling operators on the electronic factor
_U_Z, _U_X = op_on_u(SIGMA_Z), op_on_u(SIGMA_X)
_G_Z, _G_X = op_on_g(SIGMA_Z), op_on_g(SIGMA_X)
_EYE = np.eye(4)


def classical_matrix(c, lambda_corr: float, preset: str, qx: np.ndarray, qy=0.0) -> np.ndarray:
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


def _track_columns(energies: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """Reorder eigenvalue columns for continuity via eigenvector overlap."""
    from scipy.optimize import linear_sum_assignment

    tracked = np.empty_like(energies)
    tracked[0] = energies[0]
    prev = vectors[0]
    for i in range(1, energies.shape[0]):
        overlap = np.abs(prev.conj().T @ vectors[i])
        row, col = linear_sum_assignment(-overlap)
        order = np.empty(4, dtype=int)
        order[row] = col
        tracked[i] = energies[i][order]
        prev = vectors[i][:, order]
    return tracked


def tracked_surfaces(c, lambda_corr: float, preset: str, qx_grid: np.ndarray) -> PesCurve:
    """The four surfaces on the Q_y = 0 cut by stacked eigh, continued by eigenvector overlap.

    Columns start in ascending order at the first grid point; energies are
    referenced to the lowest level at Q = 0, the last point of the stack.
    """
    qx_grid = np.asarray(qx_grid, dtype=float)
    mats = classical_matrix(c, lambda_corr, preset, np.append(qx_grid, 0.0))
    energies, vectors = np.linalg.eigh(mats)
    tracked = _track_columns(energies[:-1], vectors[:-1]) - energies[-1, 0]
    return PesCurve(qx=qx_grid, energies=tracked, qx_unit=QX_UNIT_DIMENSIONLESS)



def _dmat_dqx(c, qx: np.ndarray) -> np.ndarray:
    """Stacked derivative of classical_matrix along Q_x on the Q_y = 0 cut."""
    return (
        (c.hbar_omega_e * qx)[:, None, None] * np.eye(4)
        + (c.f_u + 2.0 * c.g_u * qx)[:, None, None] * op_on_u(SIGMA_Z)
        + (c.f_g + 2.0 * c.g_g * qx)[:, None, None] * op_on_g(SIGMA_Z)
    )


def _expect(vectors: np.ndarray, op: np.ndarray) -> np.ndarray:
    """<v_n|op|v_n> for every eigenvector column of a stack, shape (n, 4)."""
    return np.sum(vectors * (op @ vectors), axis=-2)


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
