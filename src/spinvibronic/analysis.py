"""Headline observables of the coupled spin-vibronic problem.

Everything here reduces to solves of single m_s sectors: the splitting gamma
between the dark A2u singlet and the bright Eu doublet (at first or second
electron-phonon order), the quenching factors p_u / p_g of electronic
operators inside the Eu doublet, the effective spin-orbit splittings of the
m_s-resolved levels, and the inverse problem of calibrating bare spin-orbit
constants to a target Eu splitting.

Every sector is assembled in the symmetry-adapted basis of hamiltonian: the
m_s = 0 sector H0 is four real blocks (Eu from j = 1, Eu from j = 2, A1u,
A2u), and each m_s = +/-1 sector is H0 plus lambda_u0 S_u + lambda_g0 S_g,
three real blocks (j = 1, j = 2, j = 0), with S_u and S_g from
hamiltonian.soc_operators.  The same S_u and S_g give p_u / p_g and the
calibration slope.  The physical m_s = -1 sector is the m_s = +1 matrix in
the C2'-image basis, so m_s = -1 is taken from the m_s = +1 solve.

Every solve runs on the blocks the basis declares, and names each pair's
block.  The Eu-derived pair of the m_s = +1 sector is the lowest state of
its j = 1 block and of its j = 2 block, and the A2u-derived state the j = 0
state of largest overlap with the m_s = 0 A2u state; an overlap below 0.5
aborts the analysis rather than reporting a mislabeled level.  So
calibrate_soc takes its Newton steps on the two Eu blocks alone, by
eigensolver.lowest_per_block with each block started from its state of the
step before, and solves the whole sector once, at the calibrated couplings;
a zero target takes one Newton step, at zero coupling.
Every observable the reports read from a sector they do not otherwise use
is a block minimum, so one route, block_minima, solves such a sector as the
lowest pair of each block, cut to the lowest k.  converge_observable holds
every OBSERVABLES entry (gamma, p_u, p_g and e0) of the order it sweeps; it
solves the whole sector only at the cutoff it reports and confirms it at
the next cutoff by block_minima, each block started from its state at the
cutoff before.  A report sweeps the order it models and takes the other
order's gamma from block_minima, cold.  A sweep that reaches its last
cutoff unsettled raises ConvergenceError.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .eigensolver import DENSE_THRESHOLD_DEFAULT, EigResult, lowest_per_block, solve_lowest
from .hamiltonian import (
    LABEL_A2U,
    LABEL_EU,
    PRESET_E_RAISED,
    AdaptedBasis,
    SectorSpec,
    adapted_basis,
    assemble,
    soc_operators,
)
from .params import Couplings, DefectParams, couplings_for_order
from .symmetry import VibronicState, analyze_states

log = logging.getLogger("spinvibronic")


class AnalysisError(RuntimeError):
    """A solve produced a state structure the analysis cannot interpret."""


@dataclass(frozen=True)
class SolverOptions:
    k: int = 10
    tol: float = 1e-10
    seed: int = 0
    dense_threshold: int = DENSE_THRESHOLD_DEFAULT

    def solve(self, h: sp.csr_matrix, blocks: Sequence[tuple[int, int]] | None = None) -> EigResult:
        return solve_lowest(
            h,
            k=self.k,
            tol=self.tol,
            seed=self.seed,
            dense_threshold=self.dense_threshold,
            blocks=blocks,
        )


@dataclass
class SectorSolution:
    """One labeled zero-spin-orbit sector solve, with its assembled matrix h0."""

    spec: SectorSpec
    result: EigResult
    states: list[VibronicState]
    basis: AdaptedBasis
    h0: sp.csr_matrix

    def soc_sector(self, lambda_u0: float, lambda_g0: float) -> sp.csr_matrix:
        """The m_s = +/-1 sector, H0 + lambda_u0 S_u + lambda_g0 S_g, as one real symmetric matrix.

        It is the physical +1 sector, and the physical -1 sector H0 -
        lambda_u0 S_u - lambda_g0 S_g in the C2'-image basis (j = 1 and j = 2
        swapped, A2u signs flipped), so the one matrix is Kramers degeneracy
        stated exactly.  The m_s = 0 sector is h0.  Doublet overlaps and
        expectation values of S_u and S_g are read from its eigenvectors.
        """
        s_u, s_g = soc_operators(self.basis)
        return self.h0 + (lambda_u0 * s_u + lambda_g0 * s_g)

    @property
    def energies(self) -> np.ndarray:
        return self.result.eigenvalues

    def lowest(self, label: str) -> VibronicState:
        for s in self.states:
            if s.irrep == label:
                return s
        raise AnalysisError(f"no state labeled {label} among the lowest {len(self.states)}")

    def eu_doublet(self) -> tuple[np.ndarray, float]:
        """Eigenvector pair and energy of the lowest Eu doublet: the lowest j = 1 and j = 2 states."""
        pair = [next((s for s in self.states if s.block == b), None) for b in (0, 1)]
        for j, held in zip((1, 2), pair):
            if held is None:
                raise AnalysisError(f"no j = {j} Eu partner among the lowest {len(self.states)} states")
        return np.column_stack([s.coefficients for s in pair]), pair[0].energy

    @cached_property
    def quenching(self) -> tuple[float, float]:
        """(p_u, p_g) of the Eu doublet, computed once per solution (see reduction_factors)."""
        doublet, _ = self.eu_doublet()
        s_u, s_g = soc_operators(self.basis)
        u = doublet.conj().T @ (s_u @ doublet)
        v = doublet.conj().T @ (s_g @ doublet)
        p_u = float(np.max(np.linalg.eigvalsh(2.0 * u)))
        p_g = float(np.max(np.linalg.eigvalsh(2.0 * v)))
        return p_u, p_g


def solve_sector(
    couplings: Couplings,
    lambda_corr: float,
    cutoff: int,
    preset: str = PRESET_E_RAISED,
    opts: SolverOptions = SolverOptions(),
) -> SectorSolution:
    """Solve and label the spin-orbit-free sector at the given cutoff."""
    spec = SectorSpec(couplings=couplings, lambda_corr=lambda_corr, cutoff=cutoff, preset=preset)
    return _labelled(spec, opts.solve)


def _labelled(
    spec: SectorSpec, solve: Callable[[sp.csr_matrix, Sequence[tuple[int, int]]], EigResult]
) -> SectorSolution:
    """spec's sector solved by solve(h0, its declared blocks) and labelled."""
    basis = adapted_basis(spec.cutoff)
    h0 = assemble(spec)
    c = spec.couplings
    result = solve(h0, basis.sector_blocks(0, linear=c.g_u == c.g_g == 0.0))
    return SectorSolution(
        spec=spec, result=result, states=analyze_states(result, basis), basis=basis, h0=h0
    )


def block_minima(
    spec: SectorSpec, opts: SolverOptions, prev: SectorSolution | None = None
) -> SectorSolution:
    """spec's sector solved as the lowest pair of each declared block, cut to the lowest opts.k.

    The blocks are solved one pair each (eigensolver.lowest_per_block),
    merged, and cut to the lowest opts.k before labelling.  With prev, a
    solve of the same sector at a lower cutoff, each block starts from the
    lowest state prev holds in it, embedded exactly by AdaptedBasis.index_in.
    Without prev, and for a block prev holds no state of (a new J range, or
    one cut by prev's k), a block starts from the seeded vector.

    Every registered observable reads only block minima: the lowest state,
    the lowest Eu and A2u, and the Eu doublet.  Each ranks no lower among the
    block minima than among all states, so this fails only where the
    opts.k-pair solve_sector fails, and it gives the same observables to
    solver tolerance: over the four defects, orders 1 and 2 and cutoffs 20
    and 36, gamma differs from solve_sector's by at most 1.8e-12 meV (LAPACK
    and ARPACK runs for one pair and for several differ in the last bits).
    That can move a 10-digit report cell on a rounding edge:
    GeV0's gamma2 at cutoff 36 is 4.399330942499631 here and
    4.3993309425001 from solve_sector.
    """

    def solve(h0: sp.csr_matrix, blocks: Sequence[tuple[int, int]]) -> EigResult:
        starts: list[np.ndarray | None] = [None] * len(blocks)
        if prev is not None:
            at = prev.basis.index_in(adapted_basis(spec.cutoff))
            r, lows = prev.result, [lo for lo, _ in blocks]
            for b_prev, i in zip(*np.unique(r.block, return_index=True)):  # lowest pair of each block
                lo, hi = r.ranges[b_prev]
                b = int(np.searchsorted(lows, at[lo], side="right")) - 1
                start = starts[b] = np.zeros(blocks[b][1] - blocks[b][0])
                start[at[lo:hi] - blocks[b][0]] = r.eigenvectors[lo:hi, i]
        return lowest_per_block(
            h0, blocks, starts, opts.tol, opts.seed, opts.dense_threshold, opts.k
        )

    return _labelled(spec, solve)


def solution_gamma(sol: SectorSolution) -> float:
    """gamma of an already solved sector; fails loudly unless the lowest state is A-type."""
    lowest = sol.states[0]
    if lowest.irrep not in ("A1u", "A2u"):
        raise AnalysisError(
            f"lowest state is {lowest.irrep}, not an A-type singlet; "
            f"the model is misconfigured"
        )
    return sol.lowest(LABEL_EU).energy - sol.lowest(LABEL_A2U).energy


def reduction_factors(sol: SectorSolution) -> tuple[float, float]:
    """Quenching factors p_u, p_g of the orbital operators in the Eu doublet.

    The doublet-projected operators are traceless Hermitian 2x2 matrices with
    eigenvalues +/- p; the bare electronic doublet gives p = 1 and strong
    coupling drives p toward zero.  Computed on the first call for a
    solution and kept with it (SectorSolution.quenching).
    """
    return sol.quenching


@dataclass
class SocLevels:
    """Spin-orbit-resolved observables of one defect."""

    lambda_u0: float
    lambda_g0: float
    lambda_eff: float
    gamma2_soc: float
    gamma2_soc_ms0: float
    a2u_ms_split: float
    zpl_shift_ev: float
    e_a2u_soc: float
    e_eu_lower_soc: float
    e_eu_upper_soc: float
    sector_energies: dict[int, np.ndarray] = field(default_factory=dict)
    tracking_overlaps: dict[str, float] = field(default_factory=dict)


MIN_TRACKING_OVERLAP = 0.5


def _levels_from_solve(
    sol: SectorSolution,
    lambda_u0: float,
    lambda_g0: float,
    r_plus: EigResult,
    e_minus: np.ndarray | None = None,
) -> SocLevels:
    """Observables of an m_s = +1 solve on the blocks of sol.basis.sector_blocks(1).

    The Eu-derived pair is the lowest state of the j = 1 block and of the j = 2
    block, and the A2u-derived state the j = 0 state closest to sol's lowest
    A2u; each must keep an overlap of MIN_TRACKING_OVERLAP with its m_s = 0
    state.  m_s = 0 is the reference solve, and m_s = -1 repeats +1 unless its
    eigenvalues are given.  Logs one DEBUG record with the overlaps.
    """
    a2u_0 = sol.lowest(LABEL_A2U)
    e_a2u_0 = a2u_0.energy
    doublet, e_eu_0 = sol.eu_doublet()
    # the block of each pair: 0 (j = 1), 1 (j = 2) or 2 (j = 0, A1u and A2u)
    j = r_plus.block
    if not np.isin([0, 1, 2], j).all():
        raise AnalysisError(f"a j block has no state among the lowest {r_plus.k}; increase k")
    idx_eu = np.sort([np.argmax(j == 0), np.argmax(j == 1)])
    j0 = np.flatnonzero(j == 2)
    w_a2u = np.abs(a2u_0.coefficients.conj() @ r_plus.eigenvectors[:, j0]) ** 2
    w_eu = (np.abs(doublet.conj().T @ r_plus.eigenvectors[:, idx_eu]) ** 2).sum(axis=0)
    overlaps = {"a2u": float(w_a2u.max()), "eu_lower": float(w_eu.min())}
    e_a2u_soc = float(r_plus.eigenvalues[j0[np.argmax(w_a2u)]])
    e_eu_pair = r_plus.eigenvalues[idx_eu]
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "soc_levels: lambda_u0=%.9g lambda_g0=%.9g lambda_eff=%.9g "
            "overlap_a2u=%.6f overlap_eu_lower=%.6f",
            lambda_u0, lambda_g0, e_eu_pair[1] - e_eu_pair[0], *overlaps.values(),
        )
    if min(overlaps.values()) < MIN_TRACKING_OVERLAP:
        raise AnalysisError(
            f"state tracking across spin-orbit switch-on failed: overlaps {overlaps} "
            f"below {MIN_TRACKING_OVERLAP}; increase k or reduce the coupling"
        )

    sectors = {0: sol.result.eigenvalues.copy(), +1: r_plus.eigenvalues.copy()}
    sectors[-1] = (r_plus.eigenvalues if e_minus is None else e_minus).copy()

    e_eu_lowest_soc = min(float(e_eu_pair[0]), e_eu_0)  # m_s = 0 Eu stays at e_eu_0
    e_a2u_lowest_soc = min(e_a2u_soc, e_a2u_0)
    return SocLevels(
        lambda_u0=lambda_u0,
        lambda_g0=lambda_g0,
        lambda_eff=float(e_eu_pair[1] - e_eu_pair[0]),
        gamma2_soc=float(e_eu_lowest_soc - e_a2u_lowest_soc),
        gamma2_soc_ms0=float(e_eu_lowest_soc - e_a2u_0),
        a2u_ms_split=float(e_a2u_soc - e_a2u_0),
        zpl_shift_ev=float(e_eu_lowest_soc - e_eu_0) / 1000.0,  # meV to eV
        e_a2u_soc=e_a2u_soc,
        e_eu_lower_soc=float(e_eu_pair[0]),
        e_eu_upper_soc=float(e_eu_pair[1]),
        sector_energies=sectors,
        tracking_overlaps=overlaps,
    )


def soc_levels(
    sol: SectorSolution,
    lambda_u0: float,
    lambda_g0: float,
    opts: SolverOptions = SolverOptions(),
    solve_both_sectors: bool = False,
) -> SocLevels:
    """Spin-orbit observables from non-perturbative m_s = +/-1 solves.

    The m_s = 0 sector is unaffected by the longitudinal spin-orbit term (its
    Hamiltonian is identical to the zero-coupling one), so the m_s = 0 levels
    are taken from the reference solve.  m_s = -1 is the same real matrix as
    +1 (SectorSolution.soc_sector), so its levels are those of the +1 solve;
    solve_both_sectors solves it again all the same.  Bare splittings must be
    nonnegative.
    """
    if lambda_u0 < 0.0 or lambda_g0 < 0.0:
        raise ValueError(
            f"bare spin-orbit splittings must be nonnegative (got {lambda_u0}, {lambda_g0})"
        )
    h_soc = sol.soc_sector(lambda_u0, lambda_g0)
    blocks = sol.basis.sector_blocks(1)
    r_plus = opts.solve(h_soc, blocks)
    e_minus = None
    if solve_both_sectors:
        e_minus = opts.solve(h_soc, blocks).eigenvalues
    return _levels_from_solve(sol, lambda_u0, lambda_g0, r_plus, e_minus)


class CalibrationError(RuntimeError):
    """The Newton iteration of the calibration failed; carries its (s, lambda_eff) scan."""

    def __init__(self, message: str, scan: list[tuple[float, float]]):
        super().__init__(message + f"; scan: {scan}")
        self.scan = scan


def calibrate_soc(
    sol: SectorSolution,
    target_lambda_eff: float,
    ratio: float = 1.0,
    opts: SolverOptions = SolverOptions(),
) -> SocLevels:
    """Spin-orbit levels whose Eu splitting matches a target, at the calibrated couplings.

    Newton iteration in s with (lambda_u0, lambda_g0) = (ratio * s, s), started
    from the first-order guess s = target / (ratio * p_u + p_g) (Ham, Phys. Rev.
    138, A1727 (1965)).  In the m_s = +1 sector H0 + s dH/ds, dH/ds = ratio *
    S_u + S_g, the Eu-derived pair is the lowest state of the j = 1 block and
    the lowest state of the j = 2 block, so each step solves only those two
    blocks, one pair each (eigensolver.lowest_per_block), each started from
    its vector of the step before and the first from its m_s = 0 Eu partner.
    lambda_eff is the difference of the two block energies, and the slope
    d lambda_eff / ds the Hellmann-Feynman difference <Eu+| dH/ds |Eu+> -
    <Eu-| dH/ds |Eu-> (Feynman, Phys. Rev. 56, 340 (1939)).  Each block state
    must keep an overlap of at least MIN_TRACKING_OVERLAP with its m_s = 0
    partner.  Once lambda_eff is within 1e-7 meV of the target, the whole
    sector is solved once with opts and its levels are returned; that solve
    must itself track its states and meet the target to 1e-7 meV.  A zero
    target starts at s = 0, where the two Eu blocks are the same matrix (the
    second is reused, not solved), so its one step reads lambda_eff = 0
    exactly and the final solve is the zero-coupling sector.  A tracking
    breakdown (scanned as lambda_eff = nan), a non-positive slope, a step to
    s <= 0, a final solve that misses or 20 steps without convergence raise
    CalibrationError with the scan; a negative or nan target or ratio raises
    ValueError before any solve.
    """
    if not target_lambda_eff >= 0.0:  # nan included, as for ratio
        raise ValueError("target splitting must be nonnegative")
    if not ratio >= 0.0:
        raise ValueError(f"calibration ratio must be nonnegative (got {ratio})")
    p_u, p_g = reduction_factors(sol)
    s_u, s_g = soc_operators(sol.basis)
    dh_ds = ratio * s_u + s_g
    doublet, _ = sol.eu_doublet()
    # the j = 1 and j = 2 blocks lead the m_s = +1 sector: each step solves them alone
    blocks = sol.basis.sector_blocks(1)[:2]
    hi2 = blocks[1][1]
    h0, dh = sol.h0[:hi2, :hi2], dh_ds[:hi2, :hi2]
    parents = [doublet[lo:hi, j] for j, (lo, hi) in enumerate(blocks)]
    starts = list(parents)

    scan: list[tuple[float, float]] = []
    s = target_lambda_eff / max(ratio * p_u + p_g, 1e-12)
    for _ in range(20):
        pairs = lowest_per_block(
            h0 + s * dh, blocks, starts, opts.tol, opts.seed, opts.dense_threshold
        )
        # ascending: the lower Eu state, then the upper, each from its block j;
        # contiguous copies of the vectors, as strided views move the dot
        # products in their last bits
        energy = pairs.eigenvalues.tolist()
        d_energy, overlap = [], [0.0, 0.0]
        for v, j in zip(pairs.eigenvectors.T.copy(), pairs.block):
            lo, hi = blocks[j]
            starts[j] = v[lo:hi]
            d_energy.append(float(v[lo:hi] @ (dh @ v)[lo:hi]))
            overlap[j] = float(parents[j] @ v[lo:hi]) ** 2
        lambda_eff = energy[1] - energy[0]
        slope = d_energy[1] - d_energy[0]
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "calibrate_soc step: s=%.9g lambda_eff=%.9g slope=%.9g "
                "overlap_j1=%.6f overlap_j2=%.6f",
                s, lambda_eff, slope, *overlap,
            )
        if min(overlap) < MIN_TRACKING_OVERLAP:
            scan.append((s, float("nan")))
            raise CalibrationError(
                f"state tracking broke down at s={s:g} meV: Eu block overlaps "
                f"{overlap[0]:.3g}, {overlap[1]:.3g} below {MIN_TRACKING_OVERLAP}",
                scan,
            )
        scan.append((s, lambda_eff))
        miss = lambda_eff - target_lambda_eff
        if abs(miss) < 1e-7:
            try:
                final = opts.solve(sol.h0 + s * dh_ds, sol.basis.sector_blocks(1))
                levels = _levels_from_solve(sol, ratio * s, s, final)
            except AnalysisError as exc:
                raise CalibrationError(f"final solve at s={s:g} meV: {exc}", scan)
            if not abs(levels.lambda_eff - target_lambda_eff) < 1e-7:
                raise CalibrationError(
                    f"final solve at s={s:g} meV gives lambda_eff {levels.lambda_eff:.12g}, "
                    f"not within 1e-7 meV of the target",
                    scan,
                )
            return levels
        if not slope > 0.0:
            raise CalibrationError(f"spin-orbit response has slope {slope:g} at s={s:g} meV", scan)
        step = miss / slope
        if s - step <= 0.0:
            raise CalibrationError(f"Newton step from s={s:g} meV reaches s <= 0", scan)
        s -= step
    raise CalibrationError(f"no convergence to {target_lambda_eff:g} meV in 20 Newton steps", scan)


# the report quantities a cutoff sweep holds, each read from the sector of the
# order swept; gamma leads, as the reported value of each trace record
OBSERVABLES: dict[str, Callable[[SectorSolution], float]] = {
    "gamma": solution_gamma,
    "p_u": lambda sol: reduction_factors(sol)[0],
    "p_g": lambda sol: reduction_factors(sol)[1],
    "e0": lambda sol: float(sol.energies[0]),
}


class ConvergenceError(RuntimeError):
    """Cutoff sweep hit n_max before every observable settled."""

    def __init__(self, message: str, history: list[tuple[int, dict[str, float]]]):
        super().__init__(message)
        self.history = history


@dataclass
class ConvergenceResult:
    """The reported cutoff, each cutoff's observables, and the full solve at the cutoff."""

    cutoff: int
    history: list[tuple[int, dict[str, float]]]
    solution: SectorSolution


def converge_observable(
    defect: DefectParams,
    order: int,
    rel_tol: float = 0.01,
    n_start: int = 16,
    n_step: int = 8,
    n_max: int = 56,
    preset: str = PRESET_E_RAISED,
    opts: SolverOptions = SolverOptions(),
) -> ConvergenceResult:
    """Raise the cutoff from n_start in steps of n_step until every observable settles.

    Every OBSERVABLES entry (gamma, p_u, p_g and e0) is read from the sector
    of the given electron-phonon order.  The sweep stops at the first cutoff
    where each one agrees with the cutoff before, and reports the cutoff
    before (so every value is already converged at the reported cutoff); a
    sweep still unsettled at n_max raises ConvergenceError with the history.
    Each drift is held to rel_tol times the larger magnitude of its two
    values, but e0, an energy with no zero of its own, is held in meV: to
    rel_tol * max(|gamma|, |gamma before|) at the same two cutoffs.  A
    rel_tol that is not positive, n_step < 1 or a range of fewer than two
    cutoffs raises ValueError before any solve.  Each observable reads the
    lowest state of some block alone, so n_start is solved in full (opts.k
    pairs) and every later cutoff by block_minima, started from the cutoff
    before it.  The result carries the full solve at the reported cutoff:
    n_start's own, or one more solve once the sweep has settled past it.
    Only the previous and the current cutoff's solutions are alive during
    the sweep.

    Each cutoff logs one DEBUG record: n, the first observable's value, its
    drift from the cutoff before and the tolerance that drift is held to,
    then a name_drift and name_tol pair for every further observable; the
    first cutoff has no drift or tolerance yet and logs them as nan.
    """
    if not rel_tol > 0:  # nan included: no drift is held to it
        raise ValueError(f"rel_tol must be positive (got {rel_tol})")
    if n_step < 1:
        raise ValueError("n_step must be >= 1")
    if n_max < n_start + n_step:
        raise ValueError(
            f"a cutoff sweep needs two cutoffs: n_max={n_max} is below "
            f"n_start={n_start} + n_step={n_step}"
        )
    couplings = couplings_for_order(defect, order)
    history: list[tuple[int, dict[str, float]]] = []
    prev: SectorSolution | None = None
    before: dict[str, float] = {}
    nan = float("nan")
    for n in range(n_start, n_max + 1, n_step):
        if prev is None:
            sol = solve_sector(couplings, defect.lambda_corr, n, preset, opts)
        else:
            sol = block_minima(replace(prev.spec, cutoff=n), opts, prev)
        values = {name: float(read(sol)) for name, read in OBSERVABLES.items()}
        history.append((n, values))
        drifts = dict.fromkeys(values, (nan, nan))
        if before:
            for name, x in values.items():
                ref = "gamma" if name == "e0" else name  # e0 is held in meV, as gamma is
                tol = rel_tol * max(abs(values[ref]), abs(before[ref]), 1e-300)
                drifts[name] = (abs(x - before[name]), tol)
        if log.isEnabledFor(logging.DEBUG):
            (drift, tol), *_ = drifts.values()
            extra = "".join(
                f" {name}_drift={d:.3e} {name}_tol={t:.3e}"
                for name, (d, t) in list(drifts.items())[1:]
            )
            log.debug(
                "converge_cutoff: n=%d value=%.9g drift=%.3e tol=%.3e%s",
                n, next(iter(values.values())), drift, tol, extra,
            )
        # a nan drift is never settled, so the first cutoff never stops the sweep
        unsettled = [name for name, (d, t) in drifts.items() if not d <= t]
        if not unsettled:
            cutoff = history[-2][0]
            if cutoff == n_start:
                return ConvergenceResult(cutoff, history, prev)
            del prev, sol  # the sweep's solves go before the full one is made
            solution = solve_sector(couplings, defect.lambda_corr, cutoff, preset, opts)
            return ConvergenceResult(cutoff, history, solution)
        prev, before = sol, values
    raise ConvergenceError(
        f"observable did not converge to rel_tol={rel_tol:g} by cutoff {n_max} "
        f"(unsettled: {unsettled}); history: {history}",
        history=history,
    )
