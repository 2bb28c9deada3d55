import dataclasses
import json
import logging
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinvibronic
from spinvibronic import adiabatic_surfaces, parse_config, pes_to_couplings, read_pes_csv, write_pes_csv
from spinvibronic import analysis, reports
from spinvibronic.cli import main
from spinvibronic.config import ModelConfig, OutputConfig, RunConfig, SocConfig, SolverConfig
from spinvibronic.hamiltonian import PRESETS, SectorSpec
from spinvibronic.defaults import DEFECTS
from spinvibronic.params import branch_minima_dimensionless, couplings_for_order
from spinvibronic.pes import PesCurve

from conftest import gamma_splitting

# small fixed cutoff and explicit spin-orbit couplings keep CLI runs fast
FAST_SOLVE = """
[defect]
name = SnV0
hbar_omega_e_mev = 87.7
lambda_mev = 98.2
e_jt1_mev = 217.0
e_jt2_mev = 14.9
delta_jt1_mev = 63.5
delta_jt2_mev = 0.226
rho0_1_angstrom = 0.154
rho0_2_angstrom = -0.038
zpl_baseline_ev = 1.833

[solver]
cutoff = 12
k = 8
seed = 0

[soc]
mode = explicit
lambda_u0_mev = 30.0
lambda_g0_mev = 10.0

[output]
directory = {out}
"""

FAST_OFF = FAST_SOLVE.replace(
    "mode = explicit\nlambda_u0_mev = 30.0\nlambda_g0_mev = 10.0", "mode = off"
)


FAST_CONVERGE_CALIBRATE = FAST_SOLVE.replace(
    "cutoff = 12",
    "converge = true\nconverge_n_start = 12\nconverge_n_step = 4\nconverge_rel_tol = 0.05",
).replace(
    "mode = explicit\nlambda_u0_mev = 30.0\nlambda_g0_mev = 10.0",
    "mode = calibrate\ntarget_lambda_eff_mev = 3.15\nratio = 3.5",
)


def write_config(tmp_path, text, name="run.conf", out="out"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / out))
    return path


def test_solve_outputs_and_determinism(tmp_path, capsys):
    cfg = write_config(tmp_path, FAST_SOLVE)
    assert main(["solve", str(cfg)]) == 0
    out = tmp_path / "out"
    report = json.loads((out / "report.json").read_text())
    assert report["defect"] == "SnV0"
    assert report["lambda_eff_mev"] > 0
    assert {"levels.csv", "composition.csv", "level_diagram.csv"} <= {
        p.name for p in out.glob("*.csv")
    }
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    assert main(["solve", str(cfg)]) == 0
    second = {p.name: p.read_bytes() for p in out.iterdir()}
    assert first == second


def test_reports_are_byte_identical_with_the_debug_log_on(tmp_path, caplog):
    cfg = write_config(tmp_path, FAST_SOLVE)
    out = tmp_path / "out"
    assert main(["solve", str(cfg)]) == 0
    quiet = {p.name: p.read_bytes() for p in out.iterdir()}
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        assert main(["solve", str(cfg)]) == 0
    assert [r for r in caplog.records if r.name == "spinvibronic"]
    assert {p.name: p.read_bytes() for p in out.iterdir()} == quiet


def test_retired_formats_key_warns_once_and_every_file_is_written(tmp_path, caplog, capsys):
    files = ["report.json", *reports.REPORT_CSVS]
    for value in ("json", "csv", "xml"):
        cfg = write_config(tmp_path, FAST_SOLVE + f"formats = {value}\n", f"{value}.conf", value)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="spinvibronic"):
            assert main(["solve", str(cfg)]) == 0
        assert [r.getMessage() for r in caplog.records] == [
            "config key 'formats' in [output] is retired and ignored"
        ]
        out = tmp_path / value
        assert capsys.readouterr().out.splitlines()[:-1] == [str(out / name) for name in files]
        assert sorted(p.name for p in out.iterdir()) == sorted(files)


def test_verbose_flag_traces_to_stderr_and_changes_no_report_byte(tmp_path, capsys):
    cfg = write_config(tmp_path, FAST_CONVERGE_CALIBRATE)
    out = tmp_path / "out"
    assert main(["solve", str(cfg)]) == 0
    quiet = {p.name: p.read_bytes() for p in out.iterdir()}
    assert "solve_lowest block:" not in capsys.readouterr().err
    assert main(["-v", "solve", str(cfg)]) == 0
    err = capsys.readouterr().err
    assert "solve_lowest block:" in err and "calibrate_soc step:" in err
    assert "path=lanczos k=1 " in err and " overlap_j1=" in err and " overlap_j2=" in err
    assert "converge_cutoff: n=12 " in err
    assert {p.name: p.read_bytes() for p in out.iterdir()} == quiet
    # the handler goes with the run
    assert main(["solve", str(cfg)]) == 0
    assert "solve_lowest block:" not in capsys.readouterr().err


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record):
        self.records.append(record)


def _report_bytes(cfg: RunConfig, outdir: Path, debug: bool) -> tuple[dict, int]:
    """(file name -> bytes, or the error text) of one run_report + write_all, and the records logged."""
    log = logging.getLogger("spinvibronic")
    handler, level = _Records(), log.level
    if debug:
        log.addHandler(handler)
        log.setLevel(logging.DEBUG)
    try:
        report = reports.run_report(dataclasses.replace(cfg, output=OutputConfig(str(outdir))))
        written = reports.write_all(report, outdir)
        return {p.name: p.read_bytes() for p in written}, len(handler.records)
    except (analysis.AnalysisError, ValueError) as exc:
        # an unconverged small cutoff may fail the report's sanity bounds;
        # then both runs must fail alike
        return {"error": repr(exc)}, len(handler.records)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


@settings(max_examples=25, deadline=None)
@given(
    defect=st.sampled_from(sorted(DEFECTS)),
    order=st.integers(1, 2),
    preset=st.sampled_from(PRESETS),
    cutoff=st.integers(4, 10),
    lam=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)),
)
def test_identical_configs_give_byte_identical_reports(defect, order, preset, cutoff, lam):
    cfg = RunConfig(
        defect=DEFECTS[defect],
        model=ModelConfig(preset=preset, order=order),
        solver=SolverConfig(cutoff=cutoff),
        soc=SocConfig(mode="explicit", lambda_u0_mev=lam[0], lambda_g0_mev=lam[1]),
    )
    with tempfile.TemporaryDirectory() as tmp:
        quiet, _ = _report_bytes(cfg, Path(tmp) / "quiet", debug=False)
        traced, records = _report_bytes(cfg, Path(tmp) / "traced", debug=True)
    assert records > 0
    assert traced == quiet


def _sector_dim(cutoff: int) -> int:
    return 2 * (cutoff + 1) * (cutoff + 2)


def _eu_dim(cutoff: int) -> int:
    """Dim of the j = 1 and j = 2 blocks, which lead an m_s = +1 sector."""
    return spinvibronic.adapted_basis(cutoff).sector_blocks(1)[1][1]


def _count_solves(monkeypatch, orders=None):
    """Record solve_sector as (args) or (order, cutoff), and the block solves by matrix dim.

    full holds (dim, k) of each solve_lowest call that analysis makes, and
    pairs the dim of each lowest_per_block call: a swept sector's, the
    report's other order's (both by analysis.block_minima), or the leading Eu
    sub-sector's for a calibration step.
    """
    calls, full, pairs = [], [], []
    solve_sector, solve_lowest = analysis.solve_sector, analysis.solve_lowest
    lowest_per_block = analysis.lowest_per_block

    def counting(*args, **kwargs):
        calls.append(args if orders is None else (orders[args[0]], args[2]))
        return solve_sector(*args, **kwargs)

    def counting_full(h, k, *args, **kwargs):
        full.append((h.shape[0], k))
        return solve_lowest(h, k, *args, **kwargs)

    def counting_pairs(h, *args, **kwargs):
        pairs.append(h.shape[0])
        return lowest_per_block(h, *args, **kwargs)

    monkeypatch.setattr(analysis, "solve_sector", counting)
    monkeypatch.setattr(reports, "solve_sector", counting)
    monkeypatch.setattr(analysis, "solve_lowest", counting_full)
    monkeypatch.setattr(analysis, "lowest_per_block", counting_pairs)
    return calls, full, pairs


def test_report_solves_its_own_order_once(tmp_path, monkeypatch):
    cfg = parse_config(write_config(tmp_path, FAST_SOLVE))
    assert not cfg.solver.converge
    calls, _, pairs = _count_solves(monkeypatch)
    report = reports.run_report(cfg)
    # one solve per order: the model's own order also serves p_u/p_g and
    # spin-orbit, and the other order gives only its gamma, from one pair per block
    assert len(calls) == 1 and pairs == [_sector_dim(12)]
    monkeypatch.undo()
    opts = reports.solver_options(cfg)
    _assert_report_gammas(report, cfg, 12, opts)

    # a converged, calibrated run: the sweep solves n_start = 12 in full,
    # confirms it at 16 with one pair per block, and hands back its n_start
    # solution; calibration reads its levels from one soc_levels call at the
    # calibrated couplings
    cfg = parse_config(write_config(tmp_path, FAST_CONVERGE_CALIBRATE, name="conv.conf"))
    calls, full, pairs = _count_solves(monkeypatch)
    soc_calls = []
    original_soc = analysis.soc_levels

    def counting_soc(*args, **kwargs):
        soc_calls.append(args)
        return original_soc(*args, **kwargs)

    monkeypatch.setattr(analysis, "soc_levels", counting_soc)
    monkeypatch.setattr(reports, "soc_levels", counting_soc)
    report = reports.run_report(cfg)
    assert [n for n, _ in report.convergence_history] == [12, 16] and report.cutoff == 12
    # n_start of the swept order 2 at cutoff 12; the report's order 1 is no solve_sector
    assert [args[2] for args in calls] == [12]
    # the sweep's one call on the cutoff-16 sector, the report's order 1 at
    # cutoff 12, one pair per block, then the calibration's Newton steps,
    # each on the two Eu blocks of cutoff 12 (121 each) alone
    assert pairs[:2] == [_sector_dim(16), _sector_dim(12)]
    assert len(pairs) > 3 and pairs[2:] == [_eu_dim(12)] * (len(pairs) - 2)
    # the confirming cutoff is never solved at k: every full solve is at cutoff 12
    assert {dim for dim, _ in full} == {_sector_dim(12)}
    assert [args[1:3] for args in soc_calls] == [(report.soc.lambda_u0, report.soc.lambda_g0)]
    assert report.soc.lambda_eff == pytest.approx(3.15, abs=1e-5)
    monkeypatch.undo()
    _assert_report_gammas(report, cfg, report.cutoff, opts)


def _assert_report_gammas(report, cfg, cutoff, opts):
    """The model's own gamma is the k-pair oracle's; the other order's is
    analysis.block_minima's, and the oracle's too, bit for bit."""
    own, other = cfg.model.order, 3 - cfg.model.order
    gammas = {1: report.gamma1, 2: report.gamma2}
    preset = cfg.model.preset
    assert gammas[own] == gamma_splitting(cfg.defect, own, cutoff, preset, opts)
    couplings = couplings_for_order(cfg.defect, other)
    spec = SectorSpec(couplings, cfg.defect.lambda_corr, cutoff, preset)
    assert gammas[other] == analysis.solution_gamma(analysis.block_minima(spec, opts))
    assert gammas[other] == gamma_splitting(cfg.defect, other, cutoff, preset, opts)


# the bundled configs (order 2) keep their ids; an order-1 model takes its
# order-2 gamma from cold ARPACK pairs, one per block
@pytest.mark.parametrize(
    "name, cutoff, order",
    [
        pytest.param(name, cutoff, order, id=f"{name}-{cutoff}" + ("-order1" if order == 1 else ""))
        for order in (2, 1)
        for cutoff in (20, 36)
        for name in ("siv0", "gev0", "snv0", "pbv0")
    ],
)
def test_other_order_gamma_matches_the_k_pair_oracle(name, cutoff, order):
    # the bundled configs at a fixed cutoff and order, as `solve --order
    # --cutoff` runs them (spin-orbit off: it reads only the model's own order)
    path = Path(spinvibronic.__file__).parent / "data" / "configs" / f"{name}.conf"
    cfg = parse_config(path)
    cfg = dataclasses.replace(
        cfg,
        model=dataclasses.replace(cfg.model, order=order),
        solver=dataclasses.replace(cfg.solver, cutoff=cutoff, converge=False),
        soc=SocConfig(),
    )
    report = reports.run_report(cfg)
    _assert_report_gammas(report, cfg, cutoff, reports.solver_options(cfg))


def _bundled_config(tmp_path, name, old, new):
    path = Path(spinvibronic.__file__).parent / "data" / "configs" / f"{name}.conf"
    text = path.read_text(encoding="utf-8")
    assert old in text
    out = tmp_path / f"{name}.conf"
    out.write_text(text.replace(old, new).replace("directory = out", f"directory = {tmp_path}"))
    return out


def test_order1_sweep_converges_the_linear_gamma(tmp_path, capsys, caplog, monkeypatch):
    # --order 1 on the order-2 SnV0 config sweeps the model it reports: its
    # trace and history are gamma1's, each record holds the linear model's
    # p_u, p_g and e0 too, and it settles at cutoff 20.
    # A converge_observable line left in the config is retired: one warning,
    # and the same report bytes
    warning = "config key 'converge_observable' in [solver] is retired and ignored"
    written = []
    runs = (("plain", "", []), ("retired", "converge_observable = gamma2\n", [warning]))
    for name, extra, warnings in runs:
        outdir = tmp_path / name
        outdir.mkdir()
        path = _bundled_config(outdir, "snv0", "converge = true\n", f"converge = true\n{extra}")
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="spinvibronic.config"):
            assert main(["-v", "solve", str(path), "--order", "1"]) == 0
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == warnings
        err = capsys.readouterr().err.splitlines()
        records = [line for line in err if "converge_cutoff: n=" in line]
        assert [line.split(" drift=")[0] for line in records] == [
            f"converge_cutoff: n={n} value=9.16249981" for n in (20, 28)
        ]
        for line in records:
            assert all(f" {name}_drift=" in line for name in ("p_u", "p_g", "e0"))
        report = json.loads((outdir / "report.json").read_text())
        assert report["order"] == 1 and report["cutoff"] == 20
        assert report["convergence_history"] == [[20, 9.162499813], [28, 9.162499809]]
        files = ["report.json", *reports.REPORT_CSVS]
        written.append([(outdir / f).read_bytes() for f in files])
    assert written[0] == written[1]

    # the linear model is solved in full at cutoff 20 and confirmed at 28 with
    # the lowest pair of each J range, which is never solved at k = 10; the
    # quadratic model gives only its gamma at cutoff 20, from one pair per block
    cfg = parse_config(tmp_path / "plain" / "snv0.conf")
    cfg = dataclasses.replace(cfg, model=dataclasses.replace(cfg.model, order=1))
    orders = {couplings_for_order(cfg.defect, o): o for o in (1, 2)}
    calls, full, pairs = _count_solves(monkeypatch, orders)
    report = reports.run_report(cfg)
    assert calls == [(1, 20)] and report.cutoff == 20
    # then the calibration's Newton steps, on the two Eu blocks of cutoff 20
    assert pairs[:2] == [_sector_dim(28), _sector_dim(20)]
    assert len(pairs) > 3 and pairs[2:] == [_eu_dim(20)] * (len(pairs) - 2)
    assert _sector_dim(28) not in {dim for dim, _ in full}
    monkeypatch.undo()
    _assert_report_gammas(report, cfg, 20, reports.solver_options(cfg))


@pytest.mark.parametrize("n_max", [10, 24])
def test_sweep_with_one_cutoff_is_a_configuration_error(tmp_path, capsys, n_max):
    # converge_n_start = 20 and converge_n_step = 8 need converge_n_max >= 28
    path = _bundled_config(tmp_path, "snv0", "converge_n_max = 56", f"converge_n_max = {n_max}")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"n_max={n_max}" in err


def test_order1_small_spin_orbit_passes_the_triangle_bound(tmp_path, capsys):
    # gamma2_soc comes from the order-1 model here, so the bound is the
    # order-1 gamma, not the order-2 one
    text = (
        FAST_SOLVE.replace("cutoff = 12", "cutoff = 20")
        .replace("lambda_u0_mev = 30.0", "lambda_u0_mev = 1.0")
        .replace("lambda_g0_mev = 10.0", "lambda_g0_mev = 1.0")
    )
    cfg = write_config(tmp_path, text)
    assert main(["solve", str(cfg), "--order", "1"]) == 0, capsys.readouterr().err
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["order"] == 1
    assert report["gamma2_soc_mev"] <= report["gamma1_mev"] + report["lambda_eff_mev"] + 1e-9


def test_spin_orbit_tracking_breakdown_is_a_solver_failure(tmp_path, capsys):
    # explicit couplings strong enough to mix the m_s = 0 states: soc_levels
    # raises AnalysisError, and solve exits 3
    text = FAST_SOLVE.replace("lambda_u0_mev = 30.0", "lambda_u0_mev = 700.0").replace(
        "lambda_g0_mev = 10.0", "lambda_g0_mev = 200.0"
    )
    assert main(["solve", str(write_config(tmp_path, text))]) == 3
    assert "state tracking across spin-orbit switch-on failed" in capsys.readouterr().err


def test_solve_soc_off_omits_soc_fields(tmp_path):
    cfg = write_config(tmp_path, FAST_OFF)
    assert main(["solve", str(cfg)]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert "lambda_eff_mev" not in report
    assert "gamma1_mev" in report and "gamma2_mev" in report


def test_solve_cutoff_and_out_overrides(tmp_path):
    cfg = write_config(tmp_path, FAST_OFF)
    outdir = tmp_path / "elsewhere"
    assert main(["solve", str(cfg), "--cutoff", "10", "--out", str(outdir)]) == 0
    report = json.loads((outdir / "report.json").read_text())
    assert report["cutoff"] == 10


def test_thread_limit_flag(tmp_path):
    # BLAS threads come from OPENBLAS_NUM_THREADS / OMP_NUM_THREADS; the CLI
    # has no thread flag
    cfg = write_config(tmp_path, FAST_OFF)
    with pytest.raises(SystemExit) as exc:
        main(["--threads", "1", "solve", str(cfg)])
    assert exc.value.code == 2


def test_output_env_override(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, FAST_OFF)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("SPINVIB_OUT", str(env_out))
    assert main(["solve", str(cfg)]) == 0
    assert (env_out / "report.json").exists()


def test_bad_config_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.conf"
    path.write_text("[defect]\nname = X\n")
    assert main(["solve", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_negative_coupling_exit_2_before_any_solve(tmp_path, capsys, monkeypatch):
    def no_solve(cfg):
        raise AssertionError("a config with a negative coupling reached the solver")

    monkeypatch.setattr("spinvibronic.cli.run_report", no_solve)
    cfg = write_config(tmp_path, FAST_SOLVE.replace("lambda_u0_mev = 30.0", "lambda_u0_mev = -5"))
    assert main(["solve", str(cfg)]) == 2
    assert "lambda_u0_mev" in capsys.readouterr().err


def test_surfaces_command(tmp_path):
    cfg = write_config(tmp_path, FAST_OFF)
    assert main(["surfaces", str(cfg), "--qmin", "-2", "--qmax", "3", "--points", "101"]) == 0
    curve = read_pes_csv(tmp_path / "out" / "surfaces.csv")
    assert curve.qx.size == 101
    i0 = int(np.argmin(np.abs(curve.qx)))
    assert np.allclose(np.sort(curve.energies[i0]), [0.0, 0.0, 98.2, 98.2], atol=1e-6)


def test_surfaces_rejects_a_non_finite_grid_end_by_its_flag(tmp_path):
    # linspace would spread --qmax inf into a grid of nan, with numpy's
    # RuntimeWarnings on stderr; the flag is checked as it is parsed instead
    cfg = write_config(tmp_path, FAST_OFF)
    env = dict(os.environ, PYTHONPATH=str(Path(spinvibronic.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-m", "spinvibronic.cli", "surfaces", str(cfg), "--qmax", "inf"],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 2
    assert "--qmax" in run.stderr and "RuntimeWarning" not in run.stderr
    assert not (tmp_path / "out").exists()


def test_surfaces_rejects_cutoff_and_order_which_fit_keeps(tmp_path):
    # the surfaces are classical and of the full quadratic model, so --order
    # and --cutoff would change nothing there; fit writes both into fitted.conf
    configs = Path(spinvibronic.__file__).parent / "data" / "configs"
    for flag in (["--order", "1"], ["--cutoff", "8"]):
        with pytest.raises(SystemExit) as exc:
            main(["surfaces", str(configs / "snv0.conf"), *flag, "--out", str(tmp_path / "s")])
        assert exc.value.code == 2
    assert not (tmp_path / "s").exists()
    scan = synth_csv(tmp_path, "SiV0")
    out = tmp_path / "fit"
    argv = ["fit", str(scan), str(configs / "siv0.conf"), "--cutoff", "8", "--out", str(out)]
    assert main(argv) == 0
    fitted = (out / "fitted.conf").read_text().splitlines()
    assert "cutoff = 8" in fitted and "converge = false" in fitted


def synth_csv(tmp_path, name="SiV0", qgrid=None, sort=True, missing=None):
    p = DEFECTS[name]
    grid = np.linspace(-2.2, 3.4, 47) if qgrid is None else qgrid
    curve = adiabatic_surfaces(pes_to_couplings(p), p.lambda_corr, "e-raised", grid)
    if sort:
        curve.energies = np.sort(curve.energies, axis=1)
    if missing is not None:
        curve.energies[:, missing] = np.nan
    path = tmp_path / "samples.csv"
    write_pes_csv(curve, path)
    return path


SIV0_GUESS = """
[defect]
name = SiV0
hbar_omega_e_mev = 85.0
lambda_mev = 78.0
e_jt1_mev = 240.0
e_jt2_mev = 0.35
delta_jt1_mev = 75.0
delta_jt2_mev = 0.12
rho0_1_angstrom = 0.17
rho0_2_angstrom = -0.006

[solver]
cutoff = 12

[output]
directory = {out}
"""


def test_fit_round_trip_via_cli(tmp_path):
    cfg = write_config(tmp_path, SIV0_GUESS)
    csv_path = synth_csv(tmp_path, "SiV0")
    assert main(["fit", str(csv_path), str(cfg)]) == 0
    fitted = parse_config(tmp_path / "out" / "fitted.conf")
    ref = DEFECTS["SiV0"]
    assert fitted.defect.e_jt[0] == pytest.approx(ref.e_jt[0], rel=1e-6)
    assert fitted.defect.hbar_omega_e == pytest.approx(ref.hbar_omega_e, rel=1e-6)


def test_fit_converts_angstrom_scans_with_the_configured_mass(tmp_path):
    # a noiseless angstrom scan of SnV0 at 28 amu; converting it at any other
    # mass scales the fitted hbar_omega_e by the square root of the mass ratio
    truth = dataclasses.replace(DEFECTS["SnV0"], effective_mass_amu=28.0)
    grid = np.linspace(-2.2, 3.4, 47)
    curve = adiabatic_surfaces(pes_to_couplings(truth), truth.lambda_corr, "e-raised", grid)
    length = truth.length_scale_angstrom()
    energies = np.sort(curve.energies, axis=1)
    samples = PesCurve(qx=grid * length, energies=energies, qx_unit="angstrom")
    csv_path = tmp_path / "samples.csv"
    write_pes_csv(samples, csv_path)
    cfg = write_config(
        tmp_path,
        FAST_OFF.replace("hbar_omega_e_mev = 87.7", "hbar_omega_e_mev = 92.085").replace(
            "zpl_baseline_ev = 1.833", "zpl_baseline_ev = 1.833\neffective_mass_amu = 28"
        ),
    )
    assert main(["fit", str(csv_path), str(cfg)]) == 0
    fitted = parse_config(tmp_path / "out" / "fitted.conf").defect
    assert fitted.effective_mass_amu == 28.0
    assert fitted.hbar_omega_e == pytest.approx(truth.hbar_omega_e, rel=1e-6)
    assert fitted.e_jt[0] == pytest.approx(truth.e_jt[0], rel=1e-6)
    rho = branch_minima_dimensionless(pes_to_couplings(truth))
    assert fitted.rho0_angstrom == pytest.approx((rho[0] * length, rho[1] * length), rel=1e-6)


def test_fit_one_branch_exit_3(tmp_path, capsys):
    cfg = write_config(tmp_path, FAST_OFF)
    csv_path = synth_csv(tmp_path, "SnV0", qgrid=np.linspace(0.1, 3.2, 40))
    assert main(["fit", str(csv_path), str(cfg)]) == 3
    assert "branch-2" in capsys.readouterr().err


def test_fit_rank_deficient_exit_3(tmp_path, capsys):
    # surfaces 2-4 missing: the second branch is not identifiable
    cfg = write_config(tmp_path, FAST_OFF.replace("hbar_omega_e_mev = 87.7", "hbar_omega_e_mev = 92.085"))
    csv_path = synth_csv(tmp_path, "SnV0", qgrid=np.linspace(-2.0, 3.2, 41), missing=slice(1, 4))
    assert main(["fit", str(csv_path), str(cfg)]) == 3
    assert "rank-deficient" in capsys.readouterr().err
    assert not (tmp_path / "out" / "fitted.conf").exists()


def test_fit_csv_without_sample_rows_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, SIV0_GUESS)
    csv_path = tmp_path / "header_only.csv"
    csv_path.write_text("# qx_unit=dimensionless\nqx,e1_mev,e2_mev,e3_mev,e4_mev\n")
    assert main(["fit", str(csv_path), str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "header_only.csv: no sample rows" in err
    assert not (tmp_path / "out" / "fitted.conf").exists()


# run in a fresh interpreter: which scipy modules the package has loaded
# after an import, a small solve and one fit
_LOADED_MODULES = """
import json, sys
import spinvibronic, spinvibronic.cli
from spinvibronic import DEFECTS, fit_pes, read_pes_csv

watched = ("scipy.optimize", "scipy.sparse.linalg", "scipy.sparse.csgraph")
loaded = {"import": [m for m in watched if m in sys.modules]}
assert spinvibronic.cli.main(["solve", sys.argv[1], "--cutoff", "8", "--out", sys.argv[2]]) == 0
loaded["solve"] = [m for m in watched if m in sys.modules]
assert spinvibronic.cli.main(["surfaces", sys.argv[1], "--out", sys.argv[2]]) == 0
loaded["surfaces"] = [m for m in watched if m in sys.modules]
fit_pes(read_pes_csv(sys.argv[3]), DEFECTS["SiV0"])
loaded["fit"] = [m for m in watched if m in sys.modules]
print(json.dumps(loaded))
"""


def test_import_and_solve_do_not_load_scipy_optimize(tmp_path):
    # scipy.optimize (which loads scipy.sparse.linalg) costs a fresh process
    # about 0.24 s and 19 MB; only fitting needs it.  A solve whose blocks all
    # go to LAPACK, spin-orbit sector included, loads neither scipy.sparse.linalg
    # nor scipy.sparse.csgraph
    cfg = write_config(tmp_path, FAST_SOLVE)
    csv_path = synth_csv(tmp_path, "SiV0")
    env = dict(os.environ, PYTHONPATH=str(Path(spinvibronic.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, str(cfg), str(tmp_path / "out"), str(csv_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    loaded = json.loads(run.stdout.splitlines()[-1])
    assert loaded["import"] == []
    assert loaded["solve"] == []
    assert "scipy.optimize" not in loaded["surfaces"]
    assert "scipy.optimize" in loaded["fit"]


def test_fitted_config_is_byte_identical_with_the_debug_log_on(tmp_path, caplog):
    cfg = write_config(tmp_path, SIV0_GUESS)
    csv_path = synth_csv(tmp_path, "SiV0")
    fitted = tmp_path / "out" / "fitted.conf"
    assert main(["fit", str(csv_path), str(cfg)]) == 0
    quiet = fitted.read_bytes()
    with caplog.at_level(logging.DEBUG, logger="spinvibronic"):
        assert main(["fit", str(csv_path), str(cfg)]) == 0
    assert any("fit_pes:" in r.getMessage() for r in caplog.records if r.name == "spinvibronic")
    assert fitted.read_bytes() == quiet


def test_table1_single_defect_and_corruption_flag(tmp_path, capsys):
    fast_table = FAST_SOLVE.replace("mode = explicit", "mode = calibrate") \
        .replace("lambda_u0_mev = 30.0\nlambda_g0_mev = 10.0",
                 "target_lambda_eff_mev = 3.15\nratio = 3.5") \
        .replace("cutoff = 12", "cutoff = 16")
    confdir = tmp_path / "configs"
    confdir.mkdir()
    (confdir / "snv0.conf").write_text(fast_table.format(out=tmp_path / "t1"))
    assert main(["table1", str(confdir)]) == 0
    table = (tmp_path / "t1" / "table1.csv").read_text().splitlines()
    assert len(table) == 2
    header = table[0].split(",")
    row = dict(zip(header, table[1].split(",")))
    assert row["defect"] == "SnV0"
    assert abs(float(row["gamma2_dev"])) < 0.25

    # corrupted correlation splitting must show up as a large deviation
    corrupted = fast_table.replace("lambda_mev = 98.2", "lambda_mev = 160.0")
    (confdir / "snv0.conf").write_text(corrupted.format(out=tmp_path / "t2"))
    assert main(["table1", str(confdir)]) == 0
    table = (tmp_path / "t2" / "table1.csv").read_text().splitlines()
    row = dict(zip(table[0].split(","), table[1].split(",")))
    assert abs(float(row["gamma2_dev"])) > 0.25


def test_table1_cells_are_the_values_report_json_writes(tmp_path):
    # the roundoff-level miss of a calibration must not reach table1, whose
    # cells would then depend on the BLAS thread count
    from spinvibronic.cli import TABLE1_KEYS

    calibrate = FAST_SOLVE.replace("mode = explicit", "mode = calibrate").replace(
        "lambda_u0_mev = 30.0\nlambda_g0_mev = 10.0", "target_lambda_eff_mev = 3.15\nratio = 3.5"
    )
    cfg = write_config(tmp_path, calibrate, name="snv0.conf")
    assert main(["table1", str(tmp_path)]) == 0
    assert main(["solve", str(cfg)]) == 0
    written = json.loads((tmp_path / "out" / "report.json").read_text())
    header, cells = (tmp_path / "out" / "table1.csv").read_text().splitlines()
    row = dict(zip(header.split(","), cells.split(",")))
    for q, key in TABLE1_KEYS.items():
        assert row[q] == f"{written[key]:.6g}"
    assert row["lambda_eff_dev"] == f"{(written['lambda_eff_mev'] - 3.15) / 3.15:.6g}"


def test_failed_table1_row_names_the_defect_and_the_stage(tmp_path, capsys, monkeypatch):
    def failing(cfg):
        raise analysis.CalibrationError("slope vanished", scan=[(1.0, 0.5)])

    monkeypatch.setattr("spinvibronic.cli.run_report", failing)
    confdir = tmp_path / "configs"
    confdir.mkdir()
    (confdir / "snv0.conf").write_text(FAST_SOLVE.format(out=tmp_path / "t1"))
    assert main(["table1", str(confdir)]) == 3
    err = capsys.readouterr().err
    assert "snv0.conf: SnV0 FAILED in spin-orbit calibration (slope vanished; scan: " in err
    table = (tmp_path / "t1" / "table1.csv").read_text().splitlines()
    assert table[1].startswith("SnV0,FAILED,")


UNSETTLED = FAST_OFF.replace(
    "cutoff = 12",
    "converge = true\nconverge_rel_tol = 1e-12\n"
    "converge_n_start = 4\nconverge_n_step = 2\nconverge_n_max = 8",
)


def test_unsettled_sweep_is_a_solver_failure(tmp_path, capsys):
    # no cutoff from 4 to 8 holds gamma2 to 1e-12, so the real sweep raises
    # ConvergenceError: solve exits 3, and table1 writes a FAILED row
    path = write_config(tmp_path, UNSETTLED)
    assert main(["solve", str(path)]) == 3
    assert "solver failure: observable did not converge to rel_tol=1e-12 by cutoff 8" in (
        capsys.readouterr().err
    )
    confdir = tmp_path / "configs"
    confdir.mkdir()
    (confdir / "snv0.conf").write_text(UNSETTLED.format(out=tmp_path / "t1"))
    assert main(["table1", str(confdir)]) == 3
    err = capsys.readouterr().err
    assert "snv0.conf: SnV0 FAILED in cutoff convergence (observable did not converge" in err
    table = (tmp_path / "t1" / "table1.csv").read_text().splitlines()
    assert table[1].startswith("SnV0,FAILED,")
