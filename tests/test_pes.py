import logging
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize._numdiff import approx_derivative

from spinvibronic import (
    IdentifiabilityError,
    adiabatic_surfaces,
    fit_pes,
    pes_to_couplings,
    read_pes_csv,
    write_pes_csv,
)
from spinvibronic import pes
from spinvibronic.defaults import DEFECTS
from spinvibronic.params import Couplings, DefectParams, branch_minima_dimensionless
from spinvibronic.pes import PesCurve, _model_jacobian, _model_sorted

from conftest import classical_matrix, lowest_surface_minimum, tracked_surfaces


def sorted_curve(p, grid):
    curve = adiabatic_surfaces(pes_to_couplings(p), p.lambda_corr, "e-raised", grid)
    curve.energies = np.sort(curve.energies, axis=1)
    return curve


def test_zero_coupling_parabolas():
    c = Couplings(0.0, 0.0, 0.0, 0.0, 80.0)
    grid = np.linspace(-2.0, 2.0, 41)
    curve = adiabatic_surfaces(c, 60.0, "e-raised", grid)
    harm = 0.5 * 80.0 * grid**2
    expected = np.column_stack([harm, harm, harm + 60.0, harm + 60.0])
    assert np.abs(np.sort(curve.energies, axis=1) - expected).max() < 1e-10


def test_q0_levels_are_two_pairs():
    p = DEFECTS["SnV0"]
    curve = adiabatic_surfaces(pes_to_couplings(p), p.lambda_corr, "e-raised", np.array([0.0]))
    assert np.allclose(np.sort(curve.energies[0]), [0.0, 0.0, 98.2, 98.2], atol=1e-10)


def test_snv0_minima_depths_match_inputs_at_zero_correlation():
    # closed-form relations and numerical minima agree to high precision
    p = DEFECTS["SnV0"]
    c = pes_to_couplings(p)
    rho = branch_minima_dimensionless(c)
    q1, d1 = lowest_surface_minimum(c, 0.0, "e-raised", +1, sheet=0)
    assert q1 == pytest.approx(rho[0], rel=1e-10)
    assert d1 == pytest.approx(p.e_jt[0], rel=1e-10)
    q2, d2 = lowest_surface_minimum(c, 0.0, "e-raised", -1, sheet=1)
    assert q2 == pytest.approx(rho[1], rel=1e-8)
    assert d2 == pytest.approx(p.e_jt[1], rel=1e-10)


def test_threefold_symmetry_of_lowest_surface():
    # three equivalent wells at 120 degree separation, warping barrier between
    p = DEFECTS["SnV0"]
    c = pes_to_couplings(p)
    rho = np.linspace(0.1, 4.0, 600)
    depths = {}
    for phi_deg in (0, 120, 240, 60, 180, 300):
        phi = np.radians(phi_deg)
        qx, qy = rho * np.cos(phi), rho * np.sin(phi)
        e = np.linalg.eigvalsh(classical_matrix(c, 0.0, "e-raised", qx, qy))[:, 0]
        depths[phi_deg] = e.min()
    wells = [depths[a] for a in (0, 120, 240)]
    saddles = [depths[a] for a in (60, 180, 300)]
    assert np.ptp(wells) < 1e-8
    assert np.ptp(saddles) < 1e-8
    assert saddles[0] - wells[0] == pytest.approx(p.delta_jt[0], rel=1e-3)


def test_tracked_surfaces_are_smooth():
    p = DEFECTS["SnV0"]
    grid = np.linspace(-2.5, 3.2, 229)
    curve = adiabatic_surfaces(pes_to_couplings(p), p.lambda_corr, "e-raised", grid)
    # second differences stay bounded: no sorting swaps between neighbors
    d2 = np.abs(np.diff(curve.energies, n=2, axis=0)).max()
    assert d2 < 1.0


# the CLI default, the benchmark's fit grid, the CI scan grid and a descending grid
SURFACE_GRIDS = {
    "cli": np.linspace(-3.0, 3.5, 261),
    "fit": np.linspace(-2.0, 3.2, 53),
    "ci": np.linspace(-2.0, 3.4, 55),
    "descending": np.linspace(3.0, -2.5, 40),
}


@pytest.mark.parametrize("preset", ["e-raised", "a-split"])
@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_surfaces_match_the_tracked_eigensolve(name, preset):
    # the closed-form columns against the stacked eigh continued by
    # eigenvector overlap, column for column in the same order
    p = DEFECTS[name]
    c = pes_to_couplings(p)
    for lam in (p.lambda_corr, -40.0, 0.0):
        for grid in SURFACE_GRIDS.values():
            curve = adiabatic_surfaces(c, lam, preset, grid)
            oracle = tracked_surfaces(c, lam, preset, grid)
            assert np.array_equal(curve.qx, grid)
            assert np.abs(curve.energies - oracle.energies).max() < 1e-9


def test_surfaces_do_not_depend_on_the_grid_spacing():
    # at a small lambda the two surfaces of a branch come within lambda of
    # each other where u_b changes sign; every grid must still give the same
    # adiabatic columns (an eigenvector-overlap continuation jumps to the
    # diabatic continuation at a spacing-dependent point, 324 meV apart here)
    p = DEFECTS["SiV0"]
    c = pes_to_couplings(p)
    grid = np.linspace(-3.0, 3.5, 261)
    fine = adiabatic_surfaces(c, 0.3, "e-raised", grid)
    coarse = adiabatic_surfaces(c, 0.3, "e-raised", grid[::4])
    assert np.abs(fine.energies[::4] - coarse.energies).max() < 1e-9


def test_csv_round_trip(tmp_path):
    p = DEFECTS["GeV0"]
    curve = sorted_curve(p, np.linspace(-2.0, 3.0, 26))
    curve.energies[3, 2] = np.nan
    path = tmp_path / "surfaces.csv"
    write_pes_csv(curve, path)
    back = read_pes_csv(path)
    assert back.qx_unit == curve.qx_unit
    assert np.allclose(back.qx, curve.qx)
    mask = np.isfinite(curve.energies)
    assert np.array_equal(mask, np.isfinite(back.energies))
    assert np.allclose(back.energies[mask], curve.energies[mask])
    # the exact text: 12 significant digits, a blank cell for a missing
    # surface, "\n" line endings
    curve = PesCurve(
        qx=[-0.5, 0.0],
        energies=[[1.0 / 3.0, 2.5, np.nan, 1e-13], [0.0, -0.0, 98.2, 1234567.891234567]],
        qx_unit="angstrom",
    )
    write_pes_csv(curve, path)
    assert path.read_bytes() == (
        b"# qx_unit=angstrom\n"
        b"qx,e1_mev,e2_mev,e3_mev,e4_mev\n"
        b"-0.5,0.333333333333,2.5,,1e-13\n"
        b"0,0,-0,98.2,1234567.89123\n"
    )


@pytest.mark.parametrize(
    "row, shown",
    [("nan,1,2,3,4", "qx=nan"), ("-inf,1,2,3,4", "qx=-inf"), ("0.5,1,2,inf,4", "inf, 4.0]")],
)
def test_csv_rejects_a_non_finite_qx_or_an_infinite_energy(tmp_path, row, shown):
    # an empty or NaN cell marks a missing surface; anything else not finite
    # is rejected on reading, naming its sample, and never reaches a fit
    head = "# qx_unit=dimensionless\nqx,e1_mev,e2_mev,e3_mev,e4_mev\n0,1,2,3,4\n"
    path = tmp_path / "scan.csv"
    path.write_text(head + "1,,nan,3,4\n")
    assert np.isnan(read_pes_csv(path).energies[1, :2]).all()
    path.write_text(head + row + "\n1,,nan,3,4\n")
    with pytest.raises(ValueError, match=rf"sample 1 \(.*{re.escape(shown)}.*qx must be finite"):
        read_pes_csv(path)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_non_finite_grid_value_is_rejected_before_any_arithmetic(bad):
    # PesCurve's rule names the sample before numpy computes on the grid, so
    # no RuntimeWarning comes first, even where warnings are errors
    p = DEFECTS["SiV0"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"sample 1 \(qx={bad:g},.*qx must be finite"):
            adiabatic_surfaces(pes_to_couplings(p), p.lambda_corr, "e-raised", np.array([0.0, bad]))


def test_csv_requires_unit_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("qx,e1_mev,e2_mev,e3_mev,e4_mev\n0.0,1,2,3,4\n")
    with pytest.raises(ValueError, match="qx_unit"):
        read_pes_csv(path)


def test_csv_without_sample_rows_names_the_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("# qx_unit=dimensionless\nqx,e1_mev,e2_mev,e3_mev,e4_mev\n")
    with pytest.raises(ValueError, match="empty.csv: no sample rows"):
        read_pes_csv(path)


GUESS = DefectParams(name="SnV0", hbar_omega_e=80.0, lambda_corr=90.0,
                     e_jt=(200.0, 12.0), delta_jt=(55.0, 0.2),
                     rho0_angstrom=(0.15, -0.03))


def test_fit_noiseless_round_trip():
    p = DEFECTS["SnV0"]
    samples = sorted_curve(p, np.linspace(-2.0, 3.2, 53))
    fit = fit_pes(samples, GUESS)
    assert fit.params.hbar_omega_e == pytest.approx(p.hbar_omega_e, rel=1e-6)
    assert fit.lambda_corr == pytest.approx(p.lambda_corr, rel=1e-6)
    for i in range(2):
        assert fit.params.e_jt[i] == pytest.approx(p.e_jt[i], rel=1e-6)
        assert fit.params.delta_jt[i] == pytest.approx(p.delta_jt[i], rel=1e-6)
    assert np.nanmax(fit.rms_per_surface) < 1e-8


def test_fit_cost_offset_invariance():
    p = DEFECTS["SnV0"]
    samples = sorted_curve(p, np.linspace(-2.0, 3.2, 53))
    shifted = PesCurve(qx=samples.qx, energies=samples.energies + 500.0,
                       qx_unit=samples.qx_unit)
    fit = fit_pes(shifted, GUESS)
    assert fit.offset == pytest.approx(500.0, abs=1e-6)
    assert fit.params.e_jt[0] == pytest.approx(p.e_jt[0], rel=1e-6)


def test_fit_angstrom_units():
    p = DEFECTS["SnV0"]
    length = p.length_scale_angstrom()
    grid = np.linspace(-2.0, 3.2, 53)
    samples = sorted_curve(p, grid)
    ang = PesCurve(qx=grid * length, energies=samples.energies, qx_unit="angstrom")
    fit = fit_pes(ang, GUESS)
    assert fit.params.e_jt[0] == pytest.approx(p.e_jt[0], rel=1e-5)
    assert fit.params.hbar_omega_e == pytest.approx(p.hbar_omega_e, rel=1e-5)


def test_fit_masked_upper_surfaces():
    p = DEFECTS["SnV0"]
    samples = sorted_curve(p, np.linspace(-2.2, 3.2, 61))
    samples.energies[:, 3] = np.nan
    fit = fit_pes(samples, GUESS)
    assert fit.params.e_jt[0] == pytest.approx(p.e_jt[0], rel=1e-5)


def test_fit_one_sided_identifiability_failure():
    p = DEFECTS["SnV0"]
    samples = sorted_curve(p, np.linspace(0.05, 3.2, 40))
    with pytest.raises(IdentifiabilityError, match="branch-2"):
        fit_pes(samples, GUESS)


@pytest.mark.parametrize(
    "missing", [slice(1, 4), slice(0, 3)], ids=["e1-only", "e4-only"]
)
def test_fit_single_surface_is_rank_deficient(missing):
    # one surface cannot pin down the second branch; finite-difference noise
    # once lifted the two null singular values above the threshold
    p = DEFECTS["SnV0"]
    samples = sorted_curve(p, np.linspace(-2.0, 3.2, 41))
    samples.energies[:, missing] = np.nan
    guess = replace(p, hbar_omega_e=p.hbar_omega_e * 1.05)
    with pytest.raises(IdentifiabilityError, match="rank-deficient"):
        fit_pes(samples, guess)


@pytest.mark.parametrize("preset", ["e-raised", "a-split"])
@pytest.mark.parametrize("unit", ["dimensionless", "angstrom"])
@pytest.mark.parametrize("lam", [90.0, -60.0])
def test_model_jacobian_matches_finite_differences(preset, unit, lam):
    p = DEFECTS["SnV0"]
    c = pes_to_couplings(p)
    grid = np.linspace(-2.0, 3.2, 41)
    if unit == "angstrom":
        grid = grid * p.length_scale_angstrom()
    k = c.hbar_omega_e
    theta = np.array([k, lam, c.f1, c.f2, c.g1 / k, c.g2 / k, 3.0])
    numeric = approx_derivative(
        lambda t: _model_sorted(t, grid, unit, preset, 12.0).ravel(), theta, method="3-point"
    )
    exact = _model_jacobian(theta, grid, unit, preset, 12.0).reshape(-1, 7)
    assert np.abs(exact - numeric).max() < 1e-6 * np.abs(numeric).max()


@pytest.mark.parametrize("preset", ["e-raised", "a-split"])
@pytest.mark.parametrize("unit", ["dimensionless", "angstrom"])
@pytest.mark.parametrize("name", sorted(DEFECTS))
def test_closed_form_cut_matches_eigensolve(name, unit, preset):
    # the fit's closed-form levels against the 4x4 eigensolve they replace
    p = DEFECTS[name]
    c = pes_to_couplings(p)
    k = c.hbar_omega_e
    q = np.linspace(-2.5, 3.5, 61)
    grid = q * p.length_scale_angstrom() if unit == "angstrom" else q
    for lam in (p.lambda_corr, -40.0, 0.0):
        theta = np.array([k, lam, c.f1, c.f2, c.g1 / k, c.g2 / k, 0.0])
        model = _model_sorted(theta, grid, unit, preset, p.effective_mass_amu)
        e = np.linalg.eigvalsh(classical_matrix(c, lam, preset, np.append(q, 0.0)))
        assert np.abs(model - (e[:-1] - e[-1, 0])).max() < 1e-9


def test_model_jacobian_where_the_root_vanishes():
    # at lambda = 0 the two levels of a branch meet at Q = 0, where the +/-
    # term's derivative is taken as 0: the Jacobian stays finite, and the Q = 0
    # row equals the reference it is measured from
    p = DEFECTS["SnV0"]
    c = pes_to_couplings(p)
    k = c.hbar_omega_e
    theta = np.array([k, 0.0, c.f1, c.f2, c.g1 / k, c.g2 / k, 0.0])
    jac = _model_jacobian(theta, np.linspace(-2.0, 2.0, 21), "dimensionless", "e-raised", 12.0)
    assert np.all(np.isfinite(jac))
    assert np.abs(jac[10, :, :6]).max() < 1e-12


def test_fit_box_scales_with_k():
    # G1 = 22.2 meV is below K/2 = 30 meV but the fit must keep |G_b| < K/2
    # on the way; a fixed |G_b| <= 43 meV box let a trial step leave it
    sn = DEFECTS["SnV0"]
    truth = replace(sn, hbar_omega_e=60.0, e_jt=(200.0, sn.e_jt[1]),
                    delta_jt=(170.0, sn.delta_jt[1]))
    samples = sorted_curve(truth, np.linspace(-2.0, 3.2, 53))
    samples.energies += np.random.default_rng(1).normal(0.0, 0.05, samples.energies.shape)
    guess = replace(truth, lambda_corr=truth.lambda_corr * 1.09,
                    e_jt=(186.0, sn.e_jt[1]), delta_jt=(185.3, sn.delta_jt[1]))
    fit = fit_pes(samples, guess)
    assert fit.params.e_jt[0] == pytest.approx(200.0, rel=0.01)
    assert fit.params.hbar_omega_e == pytest.approx(60.0, rel=0.01)


def test_fit_logs_one_debug_record(caplog):
    p = DEFECTS["SnV0"]
    samples = sorted_curve(p, np.linspace(-2.0, 3.2, 53))
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        fit = fit_pes(samples, GUESS)
    messages = [r.getMessage() for r in caplog.records if r.name == "spinvibronic"]
    assert len(messages) == 1
    for field in ("nfev=", "njev=", "cost=", "status=", "sv_ratio=", "seconds="):
        assert field in messages[0]
    assert f"nfev={len(fit.cost_history)} " in messages[0]


def test_fit_jacobian_reuses_the_levels_of_the_residual_call(monkeypatch):
    # a Jacobian at the theta of the latest residual call takes that call's
    # levels instead of computing them again, and is the same to the bit
    p = DEFECTS["SnV0"]
    samples = sorted_curve(p, np.linspace(-2.0, 3.2, 53))
    mask = np.isfinite(samples.energies)
    calls = []
    cut_calls = []
    cut_levels, least_squares = pes._cut_levels, scipy.optimize.least_squares

    def counted_cut_levels(*args):
        cut_calls.append(args)
        return cut_levels(*args)

    def spied_least_squares(fun, x0, jac, **kwargs):
        def spied_fun(theta):
            calls.append(("fun", theta.copy(), None))
            return fun(theta)

        def spied_jac(theta):
            out = jac(theta)
            calls.append(("jac", theta.copy(), out))
            return out

        res = least_squares(spied_fun, x0, jac=spied_jac, **kwargs)
        calls.append(("end", None, len(cut_calls)))
        return res

    monkeypatch.setattr(pes, "_cut_levels", counted_cut_levels)
    monkeypatch.setattr(scipy.optimize, "least_squares", spied_least_squares)
    fit_pes(samples, GUESS)
    monkeypatch.undo()

    nfev = sum(kind == "fun" for kind, _, _ in calls)
    jacobians = [(theta, out) for kind, theta, out in calls if kind == "jac"]
    latest, fresh = None, 0
    for kind, theta, _ in calls[:-1]:
        if kind == "fun":
            latest = theta
        elif not np.array_equal(theta, latest):
            fresh += 1
    assert calls[-1][2] == nfev + fresh < nfev + len(jacobians)
    for theta, out in jacobians:
        expected = _model_jacobian(theta, samples.qx, samples.qx_unit, "e-raised", GUESS.effective_mass_amu)
        assert np.array_equal(out, expected[mask])


def test_fit_too_few_points():
    p = DEFECTS["SnV0"]
    samples = sorted_curve(p, np.linspace(-1.0, 1.0, 10))
    with pytest.raises(IdentifiabilityError, match="20"):
        fit_pes(samples, GUESS)


def test_fit_monotone_cost_contract():
    p = DEFECTS["SiV0"]
    samples = sorted_curve(p, np.linspace(-2.0, 3.4, 53))
    fit = fit_pes(samples, GUESS)
    assert all(b <= a + 1e-12 for a, b in zip(fit.cost_history, fit.cost_history[1:]))


def test_fit_noisy_recovery_monte_carlo():
    # 0.5 meV Gaussian noise: branch-1 depth recovered within 2 percent
    p = DEFECTS["SnV0"]
    clean = sorted_curve(p, np.linspace(-2.0, 3.2, 41))
    rng = np.random.default_rng(42)
    errors = []
    rms_values = []
    for _ in range(100):
        noisy = PesCurve(
            qx=clean.qx,
            energies=clean.energies + rng.normal(0.0, 0.5, clean.energies.shape),
            qx_unit=clean.qx_unit,
        )
        fit = fit_pes(noisy, GUESS)
        errors.append(abs(fit.params.e_jt[0] - p.e_jt[0]) / p.e_jt[0])
        rms_values.append(np.nanmean(fit.rms_per_surface))
    errors = np.array(errors)
    assert np.max(errors) < 0.02
    # residual report reflects the injected noise level
    assert np.mean(rms_values) == pytest.approx(0.5, rel=0.2)
