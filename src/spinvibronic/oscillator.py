"""Truncated two-dimensional harmonic-oscillator basis and mode operators.

States |n_x, n_y> with n_x + n_y <= cutoff are enumerated shell by shell
(ascending total quanta, then ascending n_x), giving dim = (N+1)(N+2)/2.
Position-type operators are assembled from exact ladder matrix elements, so
the only truncation effect is the missing coupling out of the top shells;
there are no O(1/N) artifacts from squaring truncated matrices.

The point-group operations on the mode plane are also provided: the rotation
by 2*pi/3, built per shell as the exponential of the in-shell
angular-momentum operator (diagonalized numerically, with its integer
eigenvalues restored exactly), and the reflection Q_y -> -Q_y, which is
diagonal with entries (-1)**n_y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# total spin-vibronic dimension 4*dim(basis) must stay below this by default
DEFAULT_DIM_BUDGET = 200_000

_SQRT2 = math.sqrt(2.0)


class BasisSizeError(ValueError):
    """Raised when a requested cutoff exceeds the matrix-size budget."""


@dataclass(frozen=True)
class OscBasis:
    """Index bookkeeping for the truncated |n_x, n_y> basis."""

    cutoff: int
    n_x: np.ndarray
    n_y: np.ndarray

    @property
    def dim(self) -> int:
        return self.n_x.size

    def index(self, nx: int, ny: int) -> int:
        """Position of |nx, ny> in the enumeration (shell-major, n_x minor)."""
        n = nx + ny
        if nx < 0 or ny < 0 or n > self.cutoff:
            raise IndexError(f"state ({nx}, {ny}) outside basis with cutoff {self.cutoff}")
        return n * (n + 1) // 2 + nx


def build_basis(cutoff: int, dim_budget: int = DEFAULT_DIM_BUDGET) -> OscBasis:
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    dim = (cutoff + 1) * (cutoff + 2) // 2
    if 4 * dim > dim_budget:
        raise BasisSizeError(
            f"cutoff {cutoff} gives spin-vibronic dimension {4 * dim} "
            f"exceeding the budget {dim_budget}"
        )
    n_x = np.concatenate([np.arange(n + 1) for n in range(cutoff + 1)])
    n_y = np.concatenate([np.full(n + 1, n) - np.arange(n + 1) for n in range(cutoff + 1)])
    return OscBasis(cutoff=cutoff, n_x=n_x, n_y=n_y)


def _symmetric(basis: OscBasis, hops, diagonal: np.ndarray | None = None) -> sp.csr_matrix:
    """Real symmetric operator from hopping terms and an optional diagonal.

    Each hop (dn_x, dn_y, amplitudes) gives <n_x + dn_x, n_y + dn_y| O |n_x, n_y>
    = amplitudes[k] for every state k whose target lies in the basis, and the
    transposed element with it.
    """
    k = np.arange(basis.dim)
    rows, cols, vals = [], [], []
    if diagonal is not None:
        rows.append(k)
        cols.append(k)
        vals.append(diagonal)
    for dnx, dny, amplitudes in hops:
        nx, ny = basis.n_x + dnx, basis.n_y + dny
        inside = (nx >= 0) & (ny >= 0) & (nx + ny <= basis.cutoff)
        n = nx[inside] + ny[inside]
        target = n * (n + 1) // 2 + nx[inside]
        v = amplitudes[inside]
        rows += [target, k[inside]]
        cols += [k[inside], target]
        vals += [v, v]
    m = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
    )
    return m.tocsr()


def position_operator(basis: OscBasis, axis: str) -> sp.csr_matrix:
    """X or Y, i.e. (a^dag + a)/sqrt(2) along the requested axis."""
    if axis == "x":
        hop = (1, 0, np.sqrt(basis.n_x + 1) / _SQRT2)
    elif axis == "y":
        hop = (0, 1, np.sqrt(basis.n_y + 1) / _SQRT2)
    else:
        raise ValueError("axis must be 'x' or 'y'")
    # raising elements <n+1|a^dag|n>; the lowering partners are their transposes
    return _symmetric(basis, [hop])


def quadratic_operators(basis: OscBasis) -> dict[str, sp.csr_matrix]:
    """X2, Y2 and XY from exact second-quantized matrix elements.

    X^2 = (a^dag^2 + a^2 + 2n + 1)/2 along each axis; XY factorizes into the
    two commuting single-axis ladder factors, one channel raising both quanta
    and one moving a quantum from y to x within the shell.
    """
    nx, ny = basis.n_x, basis.n_y
    return {
        "X2": _symmetric(basis, [(2, 0, np.sqrt((nx + 1) * (nx + 2)) / 2.0)], nx + 0.5),
        "Y2": _symmetric(basis, [(0, 2, np.sqrt((ny + 1) * (ny + 2)) / 2.0)], ny + 0.5),
        "XY": _symmetric(
            basis,
            [(1, 1, np.sqrt((nx + 1) * (ny + 1)) / 2.0), (1, -1, np.sqrt((nx + 1) * ny) / 2.0)],
        ),
    }


def c3_rotation(basis: OscBasis) -> sp.csr_matrix:
    """Rotation of the mode plane by 2*pi/3, block diagonal in total quanta.

    The rotation is exp(-i * 2*pi/3 * L) with L = X P_y - Y P_x the angular
    momentum, which conserves the total quanta n.  Within a shell L is the
    Hermitian tridiagonal matrix with <n_x+1, n_y-1| L |n_x, n_y> =
    -i sqrt((n_x+1) n_y).  The gauge D = diag(i**n_x) makes it real,
    L = D T D^dag with T tridiagonal and off-diagonal -sqrt((n_x+1) n_y), so
    the eigenvectors of L are D times those of T.  The eigenvalues are the
    integers ell = -n, -n+2, ..., n and are rounded before exponentiating, so
    the real orthogonal block is exact to machine precision at any shell.
    """
    blocks = []
    for n in range(basis.cutoff + 1):
        nx = np.arange(n + 1)
        s = np.sqrt((nx[:-1] + 1.0) * (n - nx[:-1]))
        # real tridiagonal solver: a dense complex eigh of these small blocks
        # stalls intermittently under multithreaded OpenBLAS
        ell, v = scipy.linalg.eigh_tridiagonal(np.zeros(n + 1), -s)
        u = (1j**nx)[:, None] * v
        block = (u * np.exp(-1j * (2.0 * np.pi / 3.0) * np.rint(ell))) @ u.conj().T
        if np.max(np.abs(block.imag)) > 1e-12:
            raise AssertionError("rotation block acquired a spurious imaginary part")
        blocks.append(block.real)
    return sp.block_diag(blocks, format="csr")


def c2prime_reflection(basis: OscBasis) -> sp.csr_matrix:
    """Reflection (Q_x, Q_y) -> (Q_x, -Q_y): diagonal with (-1)**n_y."""
    signs = np.where(basis.n_y % 2 == 0, 1.0, -1.0)
    return sp.diags(signs).tocsr()


def build_operators(basis: OscBasis) -> dict[str, sp.csr_matrix]:
    """All labeled mode operators used by the Hamiltonian and the analysis."""
    ops = {
        "X": position_operator(basis, "x"),
        "Y": position_operator(basis, "y"),
        "C3": c3_rotation(basis),
        "C2prime": c2prime_reflection(basis),
    }
    ops.update(quadratic_operators(basis))
    return ops
