import dataclasses
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinvibronic import (
    AnalysisError,
    SolverOptions,
    calibrate_soc,
    converge_observable,
    reduction_factors,
    soc_levels,
    soc_operators,
    solve_sector,
)
from spinvibronic import analysis
from spinvibronic.analysis import OBSERVABLES, CalibrationError, SectorSolution, solution_gamma
from spinvibronic.defaults import DEFECTS
from spinvibronic.eigensolver import _bound
from spinvibronic.hamiltonian import PRESETS, SectorSpec, adapted_basis
from spinvibronic.params import Couplings, DefectParams, couplings_for_order, pes_to_couplings
from spinvibronic.symmetry import analyze_states

from conftest import (
    cached_sector,
    converge_observable_full,
    gamma_splitting,
    lowest_per_block_lapack,
    second_order_shift,
)

OPTS = SolverOptions(k=8)


def test_gamma_siv0_both_orders():
    p = DEFECTS["SiV0"]
    g1 = gamma_splitting(p, 1, cutoff=24, opts=OPTS)
    g2 = gamma_splitting(p, 2, cutoff=24, opts=OPTS)
    assert g1 == pytest.approx(7.18, rel=0.15)
    assert g2 == pytest.approx(3.21, rel=0.25)
    assert g2 < g1


def test_gamma_uncoupled_equals_correlation_gap():
    p = DefectParams(name="flat", hbar_omega_e=87.7, lambda_corr=50.0,
                     e_jt=(0.0, 0.0), delta_jt=(0.0, 0.0))
    g = gamma_splitting(p, 2, cutoff=6, opts=OPTS)
    assert g == pytest.approx(50.0, abs=1e-8)


def test_reduction_factors_uncoupled_limit():
    c = Couplings(0.0, 0.0, 0.0, 0.0, 87.7)
    sol = solve_sector(c, 50.0, cutoff=6, opts=OPTS)
    p_u, p_g = reduction_factors(sol)
    assert p_u == pytest.approx(1.0, abs=1e-9)
    assert p_g == pytest.approx(1.0, abs=1e-9)


def test_reduction_factors_snv0_quenched():
    sol = cached_sector("SnV0", 24)
    p_u, p_g = reduction_factors(sol)
    assert p_u == pytest.approx(0.032, abs=0.005)
    assert 0.0 < p_g < 0.05


def test_reduction_factors_are_computed_once_per_solution(monkeypatch):
    # a sweep reads p_u and p_g at every cutoff, and the report reads
    # them again from the reported solution: one doublet projection serves all
    p = DEFECTS["SnV0"]
    sol = solve_sector(pes_to_couplings(p), p.lambda_corr, cutoff=8, opts=OPTS)
    calls = []
    eu_doublet = analysis.SectorSolution.eu_doublet
    monkeypatch.setattr(
        analysis.SectorSolution, "eu_doublet", lambda self: calls.append(1) or eu_doublet(self)
    )
    read = [OBSERVABLES[name](sol) for name in ("p_u", "p_g")]
    assert reduction_factors(sol) == tuple(read)
    assert len(calls) == 1


def test_soc_levels_zero_coupling_limits():
    # at zero coupling the m_s = +1 blocks hold the m_s = 0 states, solved on
    # other blocks and, at cutoff 36, by ARPACK where the reference took LAPACK;
    # each eigenpair has one value whatever its route, so the splittings are 0
    for name in sorted(DEFECTS):
        for cutoff in (12, 16, 20, 36):
            sol = cached_sector(name, cutoff)
            lev = soc_levels(sol, 0.0, 0.0, OPTS)
            assert (lev.a2u_ms_split, lev.lambda_eff, lev.zpl_shift_ev) == (0.0, 0.0, 0.0), (
                name, cutoff)
            g2 = sol.lowest("Eu").energy - sol.lowest("A2u").energy
            assert lev.gamma2_soc == pytest.approx(g2, abs=1e-9)


def test_soc_levels_rejects_negative_couplings():
    sol = cached_sector("SnV0", 8)
    for lam in ((-1.0, 1.0), (1.0, -1.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            soc_levels(sol, *lam, OPTS)


def test_ham_limit_small_coupling():
    sol = cached_sector("SnV0", 20)
    p_u, p_g = reduction_factors(sol)
    lev = soc_levels(sol, 0.1, 0.1, OPTS)
    assert lev.lambda_eff == pytest.approx(0.1 * (p_u + p_g), rel=0.01)


def test_soc_levels_without_a_j_block_among_the_lowest_k_raises():
    sol = cached_sector("SnV0", 12)
    with pytest.raises(AnalysisError, match="a j block has no state among the lowest 2"):
        soc_levels(sol, 30.0, 10.0, SolverOptions(k=2))


def test_soc_levels_tracking_breakdown_raises():
    # strong spin-orbit mixes the m_s = 0 states: overlaps a2u 0.58, eu_lower 0.42
    sol = cached_sector("SnV0", 12)
    with pytest.raises(AnalysisError, match="state tracking .* failed") as err:
        soc_levels(sol, 700.0, 200.0)
    assert "'eu_lower': 0.42" in str(err.value)


def test_soc_levels_logs_one_record_with_the_tracking_overlaps(caplog):
    sol = cached_sector("SnV0", 12)
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        lev = soc_levels(sol, 30.0, 10.0, OPTS)
    records = [r.getMessage() for r in caplog.records
               if r.name == "spinvibronic" and r.getMessage().startswith("soc_levels:")]
    assert len(records) == 1
    f = dict(item.split("=") for item in records[0].split(": ", 1)[1].split())
    assert (float(f["lambda_u0"]), float(f["lambda_g0"])) == (30.0, 10.0)
    assert float(f["lambda_eff"]) == pytest.approx(lev.lambda_eff, rel=1e-8)
    assert float(f["overlap_a2u"]) == pytest.approx(lev.tracking_overlaps["a2u"], abs=1e-6)
    assert float(f["overlap_eu_lower"]) == pytest.approx(lev.tracking_overlaps["eu_lower"], abs=1e-6)


def test_soc_sector_symmetries():
    sol = cached_sector("SnV0", 12)
    lev = soc_levels(sol, 20.0, 20.0, OPTS, solve_both_sectors=True)
    assert np.abs(lev.sector_energies[+1] - lev.sector_energies[-1]).max() < 1e-10
    assert np.abs(lev.sector_energies[0] - sol.energies).max() == 0.0


def test_soc_sector_is_one_real_matrix_for_both_spins():
    # m_s = +1 and -1 share H0 + lambda_u0 S_u + lambda_g0 S_g, built on the sector's own H0
    sol = cached_sector("SnV0", 8)
    h = sol.soc_sector(20.0, 5.0)
    assert h.dtype == np.float64
    s_u, s_g = soc_operators(sol.basis)
    assert (h != sol.h0 + (20.0 * s_u + 5.0 * s_g)).nnz == 0


def test_calibrate_round_trip():
    sol = cached_sector("SnV0", 16)
    cal = calibrate_soc(sol, 3.15, ratio=1.0, opts=OPTS)
    assert cal.lambda_u0 == pytest.approx(cal.lambda_g0)
    assert cal.lambda_eff == pytest.approx(3.15, abs=1e-5)
    # the returned levels are those of a fresh solve at the calibrated couplings
    lev = soc_levels(sol, cal.lambda_u0, cal.lambda_g0, OPTS)
    assert lev.lambda_eff == cal.lambda_eff
    assert np.array_equal(lev.sector_energies[+1], cal.sector_energies[+1])


def test_calibration_logs_one_record_per_newton_step(caplog):
    sol = cached_sector("SnV0", 16)
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        cal = calibrate_soc(sol, 3.15, ratio=3.5, opts=OPTS)
    messages = [r.getMessage() for r in caplog.records if r.name == "spinvibronic"]
    steps = [m for m in messages if m.startswith("calibrate_soc step:")]
    blocks = [m for m in messages if m.startswith("solve_lowest block:")]
    # one k = 1 pair of each Eu block per step, then one m_s = +1 solve of three blocks
    assert len(steps) >= 2 and len(blocks) == 2 * len(steps) + 3
    assert all(" k=1 " in m for m in blocks[:-3])
    fields = [dict(item.split("=") for item in m.split(": ", 1)[1].split()) for m in steps]
    assert all(float(f["slope"]) > 0.0 for f in fields)
    assert float(fields[-1]["s"]) == pytest.approx(cal.lambda_g0, rel=1e-8)
    assert float(fields[-1]["lambda_eff"]) == pytest.approx(cal.lambda_eff, rel=1e-8)


def test_calibration_steps_log_the_tracking_overlaps(caplog):
    sol = cached_sector("SnV0", 16)
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        cal = calibrate_soc(sol, 3.15, ratio=3.5, opts=OPTS)
    steps = [r.getMessage() for r in caplog.records
             if r.name == "spinvibronic" and r.getMessage().startswith("calibrate_soc step:")]
    fields = [dict(item.split("=") for item in m.split(": ", 1)[1].split()) for m in steps]
    for f in fields:
        assert 0.5 <= float(f["overlap_j1"]) <= 1.0 and 0.5 <= float(f["overlap_j2"]) <= 1.0
    # each Eu state lies in one block, so the full solve's Eu overlap is the smaller block overlap
    last = min(float(fields[-1]["overlap_j1"]), float(fields[-1]["overlap_j2"]))
    assert last == pytest.approx(cal.tracking_overlaps["eu_lower"], abs=1e-6)


def test_calibration_solves_the_full_sector_once(monkeypatch):
    sol = cached_sector("SnV0", 16)
    original, calls = analysis.solve_lowest, []

    def counting(h, *args, **kwargs):
        calls.append(h.shape)
        return original(h, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_lowest", counting)
    cal = calibrate_soc(sol, 3.15, ratio=3.5, opts=OPTS)
    assert calls == [sol.h0.shape]
    assert abs(cal.lambda_eff - 3.15) < 1e-7


def test_calibration_fails_when_the_final_solve_misses(monkeypatch):
    # a 1e-6 meV error in one Eu block energy moves the Newton root; the full
    # solve at that root misses the target and must not be returned
    sol = cached_sector("SnV0", 16)
    original, calls = analysis.lowest_per_block, []

    def shifted(h, blocks, starts, *args):
        pairs = original(h, blocks, starts, *args)
        calls.append(h.shape)
        pairs.eigenvalues = pairs.eigenvalues + 1e-6 * (pairs.block == 0)  # the j = 1 pair
        return pairs

    monkeypatch.setattr(analysis, "lowest_per_block", shifted)
    with pytest.raises(CalibrationError, match="final solve") as err:
        calibrate_soc(sol, 3.15, ratio=3.5, opts=OPTS)
    assert calls and abs(err.value.scan[-1][1] - 3.15) < 1e-7


def test_calibration_steps_below_the_warm_start_dim_go_to_lapack(caplog):
    # at cutoff 12 the j blocks are dim 121: a warm start does not pay for
    # ARPACK there, so every Newton step solves both Eu blocks by LAPACK
    sol = cached_sector("SnV0", 12)
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        cal = calibrate_soc(sol, 3.15, ratio=3.5, opts=OPTS)
    messages = [r.getMessage() for r in caplog.records if r.name == "spinvibronic"]
    steps = [m for m in messages if m.startswith("calibrate_soc step:")]
    blocks = [m for m in messages if m.startswith("solve_lowest block:")]
    assert len(steps) >= 2 and len(blocks) == 2 * len(steps) + 3
    assert all("dim=121 dtype=float64 path=dense k=1 " in m for m in blocks[:-3])
    assert abs(cal.lambda_eff - 3.15) < 1e-7


def test_calibrate_zero_target():
    sol = cached_sector("SnV0", 12)
    cal = calibrate_soc(sol, 0.0, opts=OPTS)
    assert (cal.lambda_u0, cal.lambda_g0) == (0.0, 0.0)
    assert cal.lambda_eff == 0.0
    lev = soc_levels(sol, 0.0, 0.0, OPTS)
    assert cal.gamma2_soc == lev.gamma2_soc


@pytest.mark.parametrize("cutoff", [20, 28])
@pytest.mark.parametrize("name", ["SnV0", "PbV0"])
def test_calibrate_zero_target_takes_one_warm_newton_step(caplog, name, cutoff):
    # the Eu blocks (308 at cutoff 20, 580 at 28) go to warm ARPACK from the
    # m_s = 0 partner; at s = 0 the j = 2 block is the j = 1 block, reused, so
    # the one step reads lambda_eff = 0 exactly
    opts = SolverOptions(k=10)
    sol = cached_sector(name, cutoff, k=10)
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        cal = calibrate_soc(sol, 0.0, ratio=3.5, opts=opts)
    steps = [r.getMessage() for r in caplog.records
             if r.name == "spinvibronic" and r.getMessage().startswith("calibrate_soc step:")]
    assert len(steps) == 1 and steps[0].startswith("calibrate_soc step: s=0 lambda_eff=0 ")
    assert cal.lambda_eff == 0.0
    lev = soc_levels(sol, 0.0, 0.0, opts)
    for f in dataclasses.fields(lev):
        mine, theirs = getattr(cal, f.name), getattr(lev, f.name)
        if f.name == "sector_energies":
            assert mine.keys() == theirs.keys()
            assert all(np.array_equal(mine[m], theirs[m]) for m in mine)
        else:
            assert mine == theirs, f.name


def test_calibrate_respects_ratio():
    sol = cached_sector("SnV0", 16)
    cal = calibrate_soc(sol, 1.0, ratio=2.5, opts=OPTS)
    assert cal.lambda_u0 == pytest.approx(2.5 * cal.lambda_g0, rel=1e-9)


@pytest.mark.parametrize(
    "target, ratio", [(3.15, -0.5), (3.15, float("nan")), (float("nan"), 1.0)]
)
def test_calibrate_rejects_a_negative_or_nan_ratio_or_target_up_front(monkeypatch, target, ratio):
    # a negative ratio used to start Newton from s = 3.15e12 and report a
    # tracking breakdown
    sol = cached_sector("SnV0", 12)

    def no_step(*args, **kwargs):
        raise AssertionError("calibration took a step")

    monkeypatch.setattr(analysis, "lowest_per_block", no_step)
    with pytest.raises(ValueError, match="must be nonnegative"):
        calibrate_soc(sol, target, ratio=ratio, opts=OPTS)


def test_calibrate_past_the_old_bracket_march():
    # a geometric bracket march overshoots this target into the region where
    # state tracking breaks down; Newton stays on the tracked branch
    sol = cached_sector("SnV0", 20, k=10)
    cal = calibrate_soc(sol, 20.0, ratio=3.5, opts=SolverOptions(k=10))
    assert abs(cal.lambda_eff - 20.0) < 1e-5
    assert min(cal.tracking_overlaps.values()) >= 0.5


def test_calibrate_out_of_reach_raises_with_scan():
    # the tracked Eu pair loses its identity before the splitting reaches 40 meV
    sol = cached_sector("PbV0", 20, k=10)
    with pytest.raises(CalibrationError) as err:
        calibrate_soc(sol, 40.0, ratio=3.5, opts=SolverOptions(k=10))
    assert err.value.scan and np.isnan(err.value.scan[-1][1])


def test_second_order_shift_snv0():
    shift = second_order_shift(DEFECTS["SnV0"], cutoff=24, opts=OPTS)
    assert shift == pytest.approx(20.0, abs=10.0)


def test_gamma_label_mismatch_raises():
    # under the a-split preset with zero couplings the lowest state is the
    # lowered antisymmetric singlet, which is A1u; the walk must still find
    # A2u above it, so force a failure by solving for too few states
    p = DefectParams(name="flat", hbar_omega_e=87.7, lambda_corr=50.0,
                     e_jt=(0.0, 0.0), delta_jt=(0.0, 0.0))
    tiny = SolverOptions(k=2)
    with pytest.raises(AnalysisError):
        gamma_splitting(p, 2, cutoff=6, preset="a-split", opts=tiny)


def test_converge_observable_gamma():
    # gamma2 settles from cutoff 12, but e0 moves by 0.097 meV from 12 to 18,
    # above gamma2's 0.035 meV tolerance, so the sweep reports cutoff 18
    res = converge_observable(
        DEFECTS["SiV0"], 2, rel_tol=0.01, n_start=12, n_step=6, n_max=36, opts=OPTS
    )
    assert res.cutoff == 18 and [n for n, _ in res.history] == [12, 18, 24]
    gamma = solution_gamma(res.solution)
    assert gamma == pytest.approx(res.history[1][1]["gamma"], rel=0, abs=1e-9)
    assert gamma == pytest.approx(3.43, abs=0.15)
    assert list(OBSERVABLES) == ["gamma", "p_u", "p_g", "e0"]


def test_converge_observable_waits_for_every_observable_of_its_order(caplog, monkeypatch):
    # SiV0 from cutoff 8 in steps of 4: between cutoffs 12 and 16, gamma2, p_u
    # and e0 move by 0.81%, 0.94% and 0.06%, and p_g by 0.97%, so a 0.96%
    # tolerance holds the sweep to cutoff 16 where gamma2 alone stops at 12.
    # e0 is held in meV, to the tolerance of gamma2 (0.033 meV at cutoff 16),
    # so its 0.096 meV drift there is unsettled too
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        res = converge_observable(
            DEFECTS["SiV0"], 2, rel_tol=0.0096, n_start=8, n_step=4, n_max=28, opts=OPTS
        )
    assert res.cutoff == 16 and [n for n, _ in res.history] == [8, 12, 16, 20]
    records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("converge_cutoff:")]
    assert len(records) == 4
    # the same sweep with gamma alone registered stops at 12
    monkeypatch.setattr(analysis, "OBSERVABLES", {"gamma": OBSERVABLES["gamma"]})
    alone = converge_observable(
        DEFECTS["SiV0"], 2, rel_tol=0.0096, n_start=8, n_step=4, n_max=28, opts=OPTS
    )
    assert alone.cutoff == 12
    assert alone.history == [(n, {"gamma": v["gamma"]}) for n, v in res.history[:3]]
    at_16 = dict(f.split("=") for f in records[2].split()[1:])
    assert set(at_16) == {"n", "value", "drift", "tol"} | {
        f"{name}_{kind}" for name in ("p_u", "p_g", "e0") for kind in ("drift", "tol")
    }
    unsettled = [
        name for name in ("", "p_u_", "p_g_", "e0_")
        if float(at_16[name + "drift"]) > float(at_16[name + "tol"])
    ]
    assert unsettled == ["p_g_", "e0_"]


@pytest.mark.parametrize(
    "name, order, sweep, cutoffs, reported",
    [
        ("SiV0", 2, dict(rel_tol=0.0096, n_start=8, n_step=4, n_max=28), [8, 12, 16, 20], 16),
        ("SnV0", 1, dict(rel_tol=0.004, n_start=4, n_step=4, n_max=28), [4, 8, 12, 16], 12),
    ],
    # each id names the gamma the sweep reports
    ids=["SiV0-gamma2-sweep0-cutoffs0-16", "SnV0-gamma1-sweep1-cutoffs1-12"],
)
def test_sweep_past_n_start_matches_the_full_solve_oracle(name, order, sweep, cutoffs, reported):
    # every cutoff after n_start is solved as one warm pair per block, and the
    # reported one in full once more at the end
    res = converge_observable(DEFECTS[name], order, opts=OPTS, **sweep)
    want = converge_observable_full(DEFECTS[name], order, preset="e-raised", opts=OPTS, **sweep)
    assert [n for n, _ in res.history] == [n for n, _ in want.history] == cutoffs
    assert res.cutoff == want.cutoff == reported
    for (_, got), (_, full) in zip(res.history, want.history):
        assert got == pytest.approx(full, rel=1e-11)
    assert res.solution.spec == want.solution.spec
    np.testing.assert_array_equal(res.solution.energies, want.solution.energies)
    np.testing.assert_array_equal(
        res.solution.result.eigenvectors, want.solution.result.eigenvectors
    )


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_confirming_pairs_match_a_full_lapack_solve(name, order, preset):
    # the bundled sweep: cutoff 20 in full, then cutoff 28 as the lowest pair of
    # each block (the J ranges at order 1), started from the cutoff-20 states
    # and cut to the lowest k
    p = DEFECTS[name]
    opts = SolverOptions()
    sol = solve_sector(couplings_for_order(p, order), p.lambda_corr, 20, preset, opts)
    pairs = analysis.block_minima(dataclasses.replace(sol.spec, cutoff=28), opts, sol)
    r = pairs.result
    assert r.ranges == pairs.basis.sector_blocks(0, linear=order == 1)
    # the lowest k of the block minima, block for block
    oracle = lowest_per_block_lapack(pairs.h0, r.ranges, keep=opts.k)
    assert r.k == min(opts.k, len(r.ranges))
    np.testing.assert_allclose(r.eigenvalues, oracle.eigenvalues, rtol=0, atol=1e-9)
    np.testing.assert_array_equal(r.block, oracle.block)
    full = SectorSolution(
        pairs.spec, oracle, analyze_states(oracle, pairs.basis), pairs.basis, pairs.h0
    )
    assert reduction_factors(pairs) == pytest.approx(reduction_factors(full), rel=0, abs=1e-9)
    for read in OBSERVABLES.values():
        assert read(pairs) == pytest.approx(read(full), rel=0, abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    f=st.tuples(*[st.floats(-200.0, 200.0)] * 2),
    g=st.tuples(*[st.floats(-0.24, 0.24)] * 2),
    lambda_corr=st.floats(0.0, 150.0),
    preset=st.sampled_from(PRESETS),
    order=st.sampled_from([1, 2]),
    n=st.integers(4, 12),
)
def test_block_minima_do_not_rise_with_the_cutoff(f, g, lambda_corr, preset, order, n):
    # Hylleraas-Undheim-MacDonald (MacDonald, Phys. Rev. 43, 830 (1933)): the
    # states of cutoff n embed exactly in cutoff n + 4 (index_in), so each
    # block of n is a principal submatrix of a block of n + 4, whose lowest
    # eigenvalue lies at or below the smaller one's.  The confirming solve of
    # the sweep, started from the states at n, must find it.  g is drawn in
    # units of hbar_omega_e, and is zero for the linear model
    c = Couplings(f[0], f[1], *(80.0 * x * (order == 2) for x in g), 80.0)
    # every block keeps its minimum: k is the number of blocks at n + 4
    k = len(adapted_basis(n + 4).sector_blocks(0, linear=c.g_u == c.g_g == 0.0))
    opts = SolverOptions(k=k)
    prev = analysis.block_minima(SectorSpec(c, lambda_corr, n, preset), opts)
    sol = analysis.block_minima(SectorSpec(c, lambda_corr, n + 4, preset), opts, prev)
    lows = [lo for lo, _ in sol.result.ranges]
    at = prev.basis.index_in(sol.basis)
    assert prev.result.k == len(prev.result.ranges) and sol.result.k == len(lows)
    for b_prev, e_prev in zip(prev.result.block, prev.energies):
        b = int(np.searchsorted(lows, at[prev.result.ranges[b_prev][0]], side="right")) - 1
        e = sol.energies[np.flatnonzero(sol.result.block == b)[0]]
        assert e <= e_prev + _bound(np.array([e, e_prev]))


@pytest.mark.parametrize("cutoff", [20, 36])
@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_linear_a1u_a2u_pair_comes_from_twin_j_blocks(caplog, name, cutoff):
    # in the linear model the A2u state's J block is an exact twin of the A1u
    # state's and is reused, not solved, so the pair's energies are bit-equal
    # and the stable block merge keeps A1u first
    p = DEFECTS[name]
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        sol = solve_sector(couplings_for_order(p, 1), p.lambda_corr, cutoff)
    assert [s.irrep for s in sol.states[5:7]] == ["A1u", "A2u"]
    assert sol.energies[5] == sol.energies[6]
    records = [m for m in caplog.messages if m.startswith("solve_lowest block:")]
    n_blocks = len(sol.basis.sector_blocks(0, linear=True))
    assert len(sol.result.ranges) == n_blocks
    # every J block is asked for two pairs; a solved block whose two pairs are
    # both kept is solved again at k = 10 (its twin takes that solve), in one
    # more record
    kept = np.bincount(sol.result.block, minlength=n_blocks)
    again = [b for b, (lo, hi) in enumerate(sol.result.ranges)
             if kept[b] == 2 < hi - lo and " path=reused " not in records[b]]
    assert again and len(records) == n_blocks + len(again)
    assert all(" k=10 " in m for m in records[n_blocks:])
    a1u, a2u = sol.result.block[5:7]
    assert " path=reused " not in records[a1u]
    assert " path=reused " in records[a2u] and records[a2u].endswith(f" reused_from={a1u}")
