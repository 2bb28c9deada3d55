"""Assembly of the spin-vibronic Hamiltonian over (electronic x oscillator) space.

Electronic basis: four hole configurations ordered with the u index fast,
e = 2*i_g + i_u, i.e. [ |u_x g_x>, |u_y g_x>, |u_x g_y>, |u_y g_y> ].
Operators written A (x) B act as <u'g'| A (x) B |ug> = A_{u'u} B_{g'g}.

Symmetry-adapted combinations (first label u, second g):

    |A2u>  = (|xx> + |yy>)/sqrt(2)
    |A1u>  = (|xy> - |yx>)/sqrt(2)
    |Eu,1> = (|xx> - |yy>)/sqrt(2)
    |Eu,2> = (|xy> + |yx>)/sqrt(2)

The A-state naming follows the C2' characters of the defect: the u orbitals
reflect like in-plane (x, y) functions, diag(1, -1), while the g orbitals
reflect like (xz, yz) functions, diag(-1, 1).  With those representation
matrices (|xx> + |yy>)/sqrt(2) is odd under C2' and therefore A2u; it is also
the combination driven by the strong constructive coupling f_u + f_g, which
is what puts the dark A2u vibronic level below the bright Eu doublet.

assemble builds the spin-orbit-free (m_s = 0) sector, a real symmetric matrix:

    H0 = hbar_omega_e (n_x + n_y + 1)
       + f_u (X sz(u) - Y sx(u)) + f_g (X sz(g) - Y sx(g))
       + g_u ((X^2 - Y^2) sz(u) + 2 X Y sx(u)) + g_g (same on g)
       + W(lambda_corr, preset)

with sz/sx the Pauli matrices on the named orbital doublet.  The longitudinal
spin-orbit term conserves m_s and is one added term per spin projection,
m_s (lambda_u0 sy(u) + lambda_g0 sy(g)) / 2.  That term is imaginary, but it
joins only states of opposite C2' parity, and H0 joins only states of equal
parity.  So the diagonal phases D = 1 on the C2' parity of index 0 and i on
the other turn the m_s = +1 sector into the real symmetric matrix

    D^* H(+1) D = H0 + lambda_u0 S_u + lambda_g0 S_g,
    S_u = 1/2 C2'_osc (x) sz(g) sx(u),   S_g = 1/2 C2'_osc (x) sz(u) sx(g),

with C2'_osc = diag((-1)**n_y) the mode reflection, and D^* does the same for
m_s = -1, D H(-1) D^* = the same matrix: Kramers degeneracy stated exactly.
soc_operators builds these S_u and S_g; their entries are oscillator-diagonal
and share no position with any entry of H0, so the sum adds nothing to H0's
entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .oscillator import (
    OscBasis,
    build_basis,
    c2prime_reflection,
    position_operator,
    quadratic_operators,
)
from .params import Couplings

ELEC_DIM = 4

PRESET_E_RAISED = "e-raised"
PRESET_A_SPLIT = "a-split"
PRESETS = (PRESET_E_RAISED, PRESET_A_SPLIT)

SIGMA_0 = np.eye(2)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]])

# electronic channel order used throughout the analysis
CHANNELS = ("A1u", "A2u", "Eu1", "Eu2")


def op_on_u(a: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator acting on the u doublet (fast index)."""
    return np.kron(SIGMA_0, a)


def op_on_g(b: np.ndarray) -> np.ndarray:
    """Embed a 2x2 operator acting on the g doublet (slow index)."""
    return np.kron(b, SIGMA_0)


def symmetry_adapted_states() -> np.ndarray:
    """Columns (A1u, A2u, Eu1, Eu2) in the product basis; orthogonal 4x4."""
    s = 1.0 / math.sqrt(2.0)
    a1u = np.array([0.0, -s, s, 0.0])  # (|xy> - |yx>)/sqrt(2), |xy> = e2
    a2u = np.array([s, 0.0, 0.0, s])
    eu1 = np.array([s, 0.0, 0.0, -s])
    eu2 = np.array([0.0, s, s, 0.0])
    return np.column_stack([a1u, a2u, eu1, eu2])


def electronic_rotation() -> np.ndarray:
    """Rotation by 2*pi/3 applied to both doublets (real orthogonal 4x4)."""
    c, s = -0.5, math.sqrt(3.0) / 2.0
    r = np.array([[c, -s], [s, c]])
    return op_on_u(r) @ op_on_g(r)


def electronic_reflection() -> np.ndarray:
    """C2' on the electronic factor: diag(1,-1) on u, diag(-1,1) on g."""
    return op_on_u(np.diag([1.0, -1.0])) @ op_on_g(np.diag([-1.0, 1.0]))


# projector onto each electronic channel, in CHANNELS order
CHANNEL_PROJECTORS = {
    name: np.outer(v, v) for name, v in zip(CHANNELS, symmetry_adapted_states().T)
}


@dataclass(frozen=True)
class SectorSpec:
    """Everything needed to assemble the spin-orbit-free sector."""

    couplings: Couplings
    lambda_corr: float
    cutoff: int = 20
    preset: str = PRESET_E_RAISED

    def __post_init__(self):
        if self.cutoff < 0:
            raise ValueError("cutoff must be >= 0")
        if self.preset not in PRESETS:
            raise ValueError(f"unknown correlation preset {self.preset!r}")


def build_correlation(lambda_corr: float, preset: str = PRESET_E_RAISED) -> np.ndarray:
    """Static correlation term W, diagonal in the symmetry-adapted basis.

    e-raised: the Eu pair sits lambda_corr above the degenerate A1u/A2u pair.
    a-split:  the symmetric combination (|xx>+|yy>)/sqrt(2) (= A2u, strongly
    coupled) is raised by lambda_corr, the antisymmetric one lowered, with
    the Eu pair at zero.

    e-raised is the shipped default: it reproduces the reported SiV0 lowest
    splitting and matches the surface structure at Q = 0, where the four
    adiabatic levels form two degenerate pairs separated by lambda_corr.
    """
    p = CHANNEL_PROJECTORS
    if preset == PRESET_E_RAISED:
        return lambda_corr * (p["Eu1"] + p["Eu2"])
    if preset == PRESET_A_SPLIT:
        return lambda_corr * p["A2u"] - lambda_corr * p["A1u"]
    raise ValueError(f"unknown correlation preset {preset!r}")


def soc_operators(basis: OscBasis) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """S_u and S_g, sigma_y / 2 on the u and g doublets in the C2' phase gauge, as real CSR.

    The m_s = +/-1 sectors are H0 + lambda_u0 S_u + lambda_g0 S_g (see the
    module docstring).  Doublet matrix elements of the same operators give the
    Ham reduction factors and the Hellmann-Feynman slope of a spin-orbit
    sector; their phase does not enter either.
    """
    c2 = c2prime_reflection(basis)
    s_u = sp.kron(c2, sp.csr_matrix(0.5 * op_on_g(SIGMA_Z) @ op_on_u(SIGMA_X)), format="csr")
    s_g = sp.kron(c2, sp.csr_matrix(0.5 * op_on_u(SIGMA_Z) @ op_on_g(SIGMA_X)), format="csr")
    return s_u, s_g


def _electronic_vertex_terms(c: Couplings):
    """(mode label, electronic 4x4) pairs of the electron-phonon interaction."""
    return [
        ("X", c.f_u * op_on_u(SIGMA_Z) + c.f_g * op_on_g(SIGMA_Z)),
        ("Y", -c.f_u * op_on_u(SIGMA_X) - c.f_g * op_on_g(SIGMA_X)),
        ("X2-Y2", c.g_u * op_on_u(SIGMA_Z) + c.g_g * op_on_g(SIGMA_Z)),
        ("2XY", 2.0 * (c.g_u * op_on_u(SIGMA_X) + c.g_g * op_on_g(SIGMA_X))),
    ]


def build_pjt(spec: SectorSpec, basis: OscBasis) -> sp.csr_matrix:
    """Electron-phonon interaction alone (no oscillator or W term)."""
    x = position_operator(basis, "x")
    y = position_operator(basis, "y")
    quad = quadratic_operators(basis)
    mode = {
        "X": x,
        "Y": y,
        "X2-Y2": quad["X2"] - quad["Y2"],
        "2XY": quad["XY"],
    }
    total = None
    for label, elec in _electronic_vertex_terms(spec.couplings):
        if not np.any(elec):
            continue
        term = sp.kron(mode[label], sp.csr_matrix(elec), format="csr")
        total = term if total is None else total + term
    if total is None:
        total = sp.csr_matrix((4 * basis.dim, 4 * basis.dim))
    return total


def assemble(spec: SectorSpec, basis: OscBasis | None = None) -> sp.csr_matrix:
    """Spin-orbit-free sector H_osc + W + pJT as one real CSR matrix."""
    if basis is None:
        basis = build_basis(spec.cutoff)
    k = spec.couplings.hbar_omega_e

    osc_diag = k * (basis.n_x + basis.n_y + 1).astype(float)
    h = sp.kron(sp.diags(osc_diag), sp.identity(ELEC_DIM), format="csr")

    w = build_correlation(spec.lambda_corr, spec.preset)
    if np.any(w):
        h = h + sp.kron(sp.identity(basis.dim), sp.csr_matrix(w), format="csr")
    return h + build_pjt(spec, basis)


def total_rotation(osc_c3: sp.spmatrix) -> sp.csr_matrix:
    """Simultaneous 2*pi/3 rotation of modes and both electronic doublets."""
    return sp.kron(osc_c3, sp.csr_matrix(electronic_rotation()), format="csr")


def total_reflection(osc_c2: sp.spmatrix) -> sp.csr_matrix:
    """Simultaneous C2' reflection of modes and electronic factor."""
    return sp.kron(osc_c2, sp.csr_matrix(electronic_reflection()), format="csr")
