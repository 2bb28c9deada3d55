"""Spin-vibronic level structure of dual Jahn-Teller color-center excited states.

The package builds truncated two-mode oscillator bases, assembles the
electron-phonon plus correlation plus longitudinal spin-orbit Hamiltonian
per spin projection in a C3 x C2' symmetry-adapted basis, diagonalizes the
sparse sectors block by block, labels the vibronic eigenstates by the irrep
of their block, and derives the reported observables:
singlet-doublet splittings, spin-orbit quenching factors, m_s-resolved level
shifts and transition-energy changes.
"""

from .analysis import (
    AnalysisError,
    ConvergenceError,
    SectorSolution,
    SolverOptions,
    calibrate_soc,
    converge_observable,
    reduction_factors,
    soc_levels,
    solution_gamma,
    solve_sector,
)
from .config import RunConfig, parse_config, parse_config_text, serialize_config
from .defaults import DEFECTS, LAMBDA_EFF_TARGETS_MEV
from .eigensolver import EigResult, SolverError, solve_lowest
from .hamiltonian import (
    PRESET_A_SPLIT,
    PRESET_E_RAISED,
    AdaptedBasis,
    SectorSpec,
    adapted_basis,
    assemble,
    op_on_g,
    op_on_u,
    soc_operators,
)
from .oscillator import OscBasis, build_basis, build_operators
from .params import (
    Couplings,
    DefectParams,
    ParameterError,
    couplings_for_order,
    couplings_to_pes,
    dimensionless_length_scale,
    first_order_couplings,
    pes_to_couplings,
)
from .pes import (
    IdentifiabilityError,
    PesCurve,
    PesFitError,
    adiabatic_surfaces,
    fit_pes,
    read_pes_csv,
    write_pes_csv,
)
from .reports import SpectrumReport, run_report

__version__ = "0.1.0"
