"""Truncated two-dimensional harmonic-oscillator basis in circular quanta.

The circular ladder operators a_+/- = (a_x -/+ i a_y)/sqrt(2) carry angular
momentum +/-1, so |n_+, n_-> has angular momentum ell = n_+ - n_- about the
C3 axis.  States with n_+ + n_- <= cutoff are enumerated shell by shell
(ascending total quanta, then ascending n_+), giving dim = (N+1)(N+2)/2: the
same shells, and so the same truncated space, as the Cartesian |n_x, n_y>.

In this basis the complex mode coordinate Q_+ = X + iY = a_- + a_+^dag and
its square are real matrices, and Q_- = X - iY is the transpose of Q_+.
Every operator is assembled from exact ladder matrix elements, so the only
truncation effect is the missing coupling out of the top shells; there are
no O(1/N) artifacts from squaring truncated matrices.  The reflection
Q_y -> -Q_y swaps the two quanta, |n_+, n_-> -> |n_-, n_+>, and maps every
operator here to its transpose entry for entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# total spin-vibronic dimension 4*dim(basis) must stay below this
DIM_BUDGET = 200_000


class BasisSizeError(ValueError):
    """Raised when a requested cutoff exceeds the matrix-size budget."""


@dataclass(frozen=True)
class OscBasis:
    """Index bookkeeping for the truncated |n_+, n_-> basis."""

    cutoff: int
    n_plus: np.ndarray
    n_minus: np.ndarray

    @property
    def dim(self) -> int:
        return self.n_plus.size

    @property
    def ell(self) -> np.ndarray:
        """Vibrational angular momentum n_+ - n_- of each state."""
        return self.n_plus - self.n_minus

    def index(self, n_plus: int, n_minus: int) -> int:
        """Position of |n_plus, n_minus> in the enumeration (shell-major, n_+ minor)."""
        n = n_plus + n_minus
        if n_plus < 0 or n_minus < 0 or n > self.cutoff:
            raise IndexError(f"state ({n_plus}, {n_minus}) outside basis with cutoff {self.cutoff}")
        return n * (n + 1) // 2 + n_plus


def build_basis(cutoff: int) -> OscBasis:
    if cutoff < 0:
        raise ValueError("cutoff must be >= 0")
    dim = (cutoff + 1) * (cutoff + 2) // 2
    if 4 * dim > DIM_BUDGET:
        raise BasisSizeError(
            f"cutoff {cutoff} gives spin-vibronic dimension {4 * dim} "
            f"exceeding the budget {DIM_BUDGET}"
        )
    n_plus = np.concatenate([np.arange(n + 1) for n in range(cutoff + 1)])
    n_minus = np.concatenate([np.full(n + 1, n) - np.arange(n + 1) for n in range(cutoff + 1)])
    return OscBasis(cutoff=cutoff, n_plus=n_plus, n_minus=n_minus)


def _ladder(basis: OscBasis, hops) -> sp.csr_matrix:
    """Real operator from hopping terms.

    Each hop (dn_+, dn_-, amplitudes) gives <n_+ + dn_+, n_- + dn_-| O |n_+, n_->
    = amplitudes[k] for every state k whose target lies in the basis.
    """
    k = np.arange(basis.dim)
    rows, cols, vals = [], [], []
    for dnp, dnm, amplitudes in hops:
        n_plus, n_minus = basis.n_plus + dnp, basis.n_minus + dnm
        inside = (n_plus >= 0) & (n_minus >= 0) & (n_plus + n_minus <= basis.cutoff)
        n = n_plus[inside] + n_minus[inside]
        rows.append(n * (n + 1) // 2 + n_plus[inside])
        cols.append(k[inside])
        vals.append(amplitudes[inside])
    m = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(basis.dim, basis.dim),
    )
    return m.tocsr()


def build_operators(basis: OscBasis) -> dict[str, sp.csr_matrix]:
    """Q_+ = a_- + a_+^dag, its square, and R2 = X^2 + Y^2, as real CSR.

    Q_+^2 = a_-^2 + 2 a_+^dag a_- + a_+^dag^2 and
    R2 = (Q_+ Q_- + Q_- Q_+)/2 = n_+ + n_- + 1 + a_+ a_- + a_+^dag a_-^dag.
    Integer products stay exact before the square root, so the reflection
    partners of an entry are the same float.
    """
    n_plus, n_minus = basis.n_plus, basis.n_minus
    r2 = _ladder(basis, [(1, 1, np.sqrt((n_plus + 1.0) * (n_minus + 1)))])
    return {
        "Q+": _ladder(basis, [(1, 0, np.sqrt(n_plus + 1.0)), (0, -1, np.sqrt(n_minus * 1.0))]),
        "Q+2": _ladder(
            basis,
            [
                (2, 0, np.sqrt((n_plus + 1.0) * (n_plus + 2))),
                (0, -2, np.sqrt(n_minus * (n_minus - 1.0))),
                (1, -1, 2.0 * np.sqrt((n_plus + 1.0) * n_minus)),
            ],
        ),
        "R2": (r2 + r2.T + sp.diags(n_plus + n_minus + 1.0)).tocsr(),
    }
