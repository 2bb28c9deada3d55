import dataclasses
import importlib.resources
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinvibronic import analysis, parse_config, parse_config_text, serialize_config
from spinvibronic.cli import main
from spinvibronic.config import (
    ConfigError,
    ModelConfig,
    OutputConfig,
    RunConfig,
    SocConfig,
    SolverConfig,
)
from spinvibronic.hamiltonian import PRESETS
from spinvibronic.defaults import DEFECTS, LAMBDA_EFF_TARGETS_MEV

MINIMAL = """
[defect]
name = SnV0
hbar_omega_e_mev = 87.7
lambda_mev = 98.2
e_jt1_mev = 217.0
e_jt2_mev = 14.9
delta_jt1_mev = 63.5
delta_jt2_mev = 0.226
"""


def test_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.defect.name == "SnV0"
    assert cfg.model.preset == "e-raised"
    assert cfg.model.order == 2
    assert cfg.soc.mode == "off"
    assert cfg.solver.cutoff == 36


def test_round_trip_identity():
    cfg = parse_config_text(MINIMAL + "\n[soc]\nmode = calibrate\ntarget_lambda_eff_mev = 3.15\nratio = 2\n")
    text = serialize_config(cfg)
    again = parse_config_text(text)
    assert again == cfg
    # serialization is stable too
    assert serialize_config(again) == text


def test_missing_defect_section():
    with pytest.raises(ConfigError, match="defect"):
        parse_config_text("[model]\npreset = e-raised\n")


def test_missing_required_key():
    with pytest.raises(ConfigError, match="e_jt1_mev"):
        parse_config_text("[defect]\nname = X\nhbar_omega_e_mev = 80\nlambda_mev = 90\n")


def test_invalid_preset_and_order():
    with pytest.raises(ConfigError, match="preset"):
        parse_config_text(MINIMAL + "\n[model]\npreset = nonsense\n")
    with pytest.raises(ConfigError, match="order"):
        parse_config_text(MINIMAL + "\n[model]\norder = 3\n")


def test_soc_mode_exclusivity():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\n[soc]\nmode = off\nlambda_u0_mev = 5\n")
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\n[soc]\nmode = explicit\nlambda_u0_mev = 5\n")
    with pytest.raises(ConfigError):
        parse_config_text(
            MINIMAL + "\n[soc]\nmode = explicit\nlambda_u0_mev = 5\nlambda_g0_mev = 5\n"
            "target_lambda_eff_mev = 3\n"
        )
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "\n[soc]\nmode = calibrate\n")
    cfg = parse_config_text(
        MINIMAL + "\n[soc]\nmode = explicit\nlambda_u0_mev = 5\nlambda_g0_mev = 2\n"
    )
    assert cfg.soc.lambda_u0_mev == 5.0


@pytest.mark.parametrize("key", ["lambda_u0_mev", "lambda_g0_mev"])
def test_negative_explicit_coupling_is_rejected_by_name(key):
    couplings = {"lambda_u0_mev": 5.0, "lambda_g0_mev": 2.0, key: -5.0}
    text = MINIMAL + "\n[soc]\nmode = explicit\n" + "".join(
        f"{k} = {v}\n" for k, v in couplings.items()
    )
    with pytest.raises(ConfigError, match=key):
        parse_config_text(text)


def test_defect_invariants_surface_as_config_errors():
    bad = MINIMAL.replace("delta_jt1_mev = 63.5", "delta_jt1_mev = 500.0")
    with pytest.raises(ConfigError, match="delta_jt"):
        parse_config_text(bad)


def test_nonexistent_file():
    with pytest.raises(ConfigError, match="does not exist"):
        parse_config("/nonexistent/path.conf")


def _bundled_text(name: str) -> str:
    return (
        importlib.resources.files("spinvibronic.data")
        .joinpath(f"configs/{name}.conf")
        .read_text(encoding="utf-8")
    )


@pytest.mark.parametrize("name", ["siv0", "gev0", "snv0", "pbv0"])
def test_bundled_configs_match_builtin_table(name):
    cfg = parse_config_text(_bundled_text(name))
    assert cfg.defect == DEFECTS[cfg.defect.name]
    assert cfg.soc.mode == "calibrate"
    assert cfg.soc.target_lambda_eff_mev == LAMBDA_EFF_TARGETS_MEV[cfg.defect.name]
    assert cfg.solver.converge


def test_misspelled_key_is_rejected_by_name(tmp_path, capsys):
    text = _bundled_text("snv0").replace("cutoff = 32", "cutof = 32")
    with pytest.raises(ConfigError, match="'cutof'"):
        parse_config_text(text)
    path = tmp_path / "snv0.conf"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert "'cutof'" in capsys.readouterr().err


def test_misspelled_section_is_rejected_by_name(tmp_path, capsys):
    text = MINIMAL + "\n[sovler]\ncutoff = 12\n"
    with pytest.raises(ConfigError, match="sovler"):
        parse_config_text(text)
    path = tmp_path / "run.conf"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert "sovler" in capsys.readouterr().err


def test_retired_key_warns_and_is_ignored(caplog):
    text = _bundled_text("snv0")
    lines = ("dense_threshold = 1500", "cluster_tol_mev = 1e-6", "converge_observable = gamma1",
             "residual_tol = 1e-8", "residual_tol = 0", "residual_tol = nan")
    for line in lines:
        old = text.replace("k = 10\n", f"k = 10\n{line}\n")
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="spinvibronic"):
            assert parse_config_text(old) == parse_config_text(text)
        assert [r.getMessage() for r in caplog.records] == [
            f"config key {line.split()[0]!r} in [solver] is retired and ignored"
        ]


# each invalid sweep range, with converge on and off: the key it names
@pytest.mark.parametrize("converge", ["true", "false"])
@pytest.mark.parametrize(
    "old, new, key",
    [
        ("converge_n_start = 20", "converge_n_start = -8", "converge_n_start=-8 must be >= 0"),
        ("converge_n_step = 8", "converge_n_step = 0", "converge_n_step=0 must be >= 1"),
        ("converge_n_max = 56", "converge_n_max = 24", "converge_n_max=24 must be >= 28"),
    ],
    ids=["n_start", "n_step", "n_max"],
)
def test_invalid_sweep_range_is_rejected_by_key_at_parse_time(
    tmp_path, capsys, monkeypatch, converge, old, new, key
):
    text = _bundled_text("snv0").replace(old, new)
    text = text.replace("converge = true", f"converge = {converge}")
    with pytest.raises(ConfigError, match=key):
        parse_config_text(text)

    def no_solve(*args, **kwargs):
        raise AssertionError("a config with an invalid sweep range reached the solver")

    monkeypatch.setattr(analysis, "solve_sector", no_solve)
    path = tmp_path / "snv0.conf"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and key in err


@pytest.mark.parametrize("value", ["-0.01", "0", "nan"])
def test_nonpositive_converge_rel_tol_is_rejected_before_any_solve(
    tmp_path, capsys, monkeypatch, value
):
    # no drift settles against a tolerance that is not positive, so such a
    # sweep could only run to converge_n_max and fail
    text = _bundled_text("snv0").replace("converge_rel_tol = 0.01", f"converge_rel_tol = {value}")
    with pytest.raises(ConfigError, match="converge_rel_tol must be positive"):
        parse_config_text(text)

    def no_solve(*args, **kwargs):
        raise AssertionError("a config with a nonpositive converge_rel_tol reached the solver")

    monkeypatch.setattr(analysis, "solve_sector", no_solve)
    path = tmp_path / "snv0.conf"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert "converge_rel_tol" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1e-10", "1e-8"])
def test_nonpositive_residual_tol_is_rejected_before_any_solve(tmp_path, caplog, value):
    # residual_tol is retired, not rejected: every ARPACK residual is held to
    # eigensolver.RESIDUAL_TOL, so a run that still sets it, to any value,
    # writes the plain run's bytes, with one warning
    text = _bundled_text("snv0")
    written = []
    for name, extra in (("plain", ""), ("old", f"residual_tol = {value}\n")):
        path = tmp_path / f"{name}.conf"
        path.write_text(text.replace("k = 10\n", f"k = 10\n{extra}"))
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="spinvibronic"):
            assert main(["solve", str(path), "--cutoff", "36", "--out", str(tmp_path / name)]) == 0
        assert [r.getMessage() for r in caplog.records] == (
            ["config key 'residual_tol' in [solver] is retired and ignored"] if extra else []
        )
        written.append({p.name: p.read_bytes() for p in (tmp_path / name).iterdir()})
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "old, new, message",
    [
        (
            "target_lambda_eff_mev = 3.15",
            "target_lambda_eff_mev = nan",
            "target_lambda_eff_mev must be finite",
        ),
        ("ratio = 3.5", "ratio = nan", "ratio must be finite"),
        ("hbar_omega_e_mev = 87.7", "hbar_omega_e_mev = nan", "hbar_omega_e_mev must be finite"),
        ("lambda_mev = 98.2", "lambda_mev = inf", "lambda_mev must be finite"),
        ("rho0_2_angstrom = -0.038", "rho0_2_angstrom = nan", "rho0_2_angstrom must be finite"),
        ("zpl_baseline_ev = 1.833", "zpl_baseline_ev = -inf", "zpl_baseline_ev must be finite"),
        (
            "mode = calibrate\ntarget_lambda_eff_mev = 3.15\n",
            "mode = explicit\nlambda_u0_mev = nan\nlambda_g0_mev = 1\n",
            "lambda_u0_mev must be finite",
        ),
        (
            "target_lambda_eff_mev = 3.15",
            "target_lambda_eff_mev = -1",
            "target_lambda_eff_mev must be nonnegative",
        ),
    ],
    ids=[
        "target-nan", "ratio-nan", "hbar_omega_e-nan", "lambda-inf",
        "rho0_2-nan", "zpl_baseline-minus-inf", "explicit-lambda_u0-nan", "target-negative",
    ],
)
def test_nonfinite_number_or_negative_target_is_rejected_before_any_solve(
    tmp_path, capsys, monkeypatch, old, new, message
):
    text = _bundled_text("snv0")
    assert old in text
    text = text.replace(old, new)
    if "explicit" in new:  # explicit mode takes no ratio
        text = text.replace("ratio = 3.5\n", "")
    with pytest.raises(ConfigError, match=message):
        parse_config_text(text)

    def no_solve(*args, **kwargs):
        raise AssertionError("a config with a non-finite number or a negative target was solved")

    monkeypatch.setattr(analysis, "solve_sector", no_solve)
    path = tmp_path / "snv0.conf"
    path.write_text(text)
    assert main(["solve", str(path)]) == 2
    assert message in capsys.readouterr().err


SNV0_CALIBRATE_SOC = "[soc]\nmode = calibrate\ntarget_lambda_eff_mev = 3.15\nratio = 3.5\n"

SNV0_SERIALIZED = f"""[defect]
name = SnV0
hbar_omega_e_mev = 87.7
lambda_mev = 98.2
e_jt1_mev = 217
e_jt2_mev = 14.9
delta_jt1_mev = 63.5
delta_jt2_mev = 0.226
rho0_1_angstrom = 0.154
rho0_2_angstrom = -0.038
zpl_baseline_ev = 1.833
effective_mass_amu = 12

[model]
preset = e-raised
order = 2

[solver]
cutoff = 32
k = 10
seed = 0
converge = true
converge_rel_tol = 0.01
converge_n_start = 20
converge_n_step = 8
converge_n_max = 56

{SNV0_CALIBRATE_SOC}
[output]
directory = out
"""


@pytest.mark.parametrize(
    "soc, written",
    [
        (SNV0_CALIBRATE_SOC, SNV0_CALIBRATE_SOC),
        # explicit mode writes its two couplings and no ratio
        (
            "[soc]\nmode = explicit\nlambda_u0_mev = 12.5\nlambda_g0_mev = 0\nratio = 1\n",
            "[soc]\nmode = explicit\nlambda_u0_mev = 12.5\nlambda_g0_mev = 0\n",
        ),
        ("[soc]\nmode = off\n", "[soc]\nmode = off\n"),
        ("", "[soc]\nmode = off\n"),
    ],
)
def test_serialized_text_is_pinned(soc, written):
    assert serialize_config(parse_config_text(_snv0_with_soc(soc))) == SNV0_SERIALIZED.replace(
        SNV0_CALIBRATE_SOC, written
    )


def _snv0_with_soc(soc: str) -> str:
    head, tail = _bundled_text("snv0").split("[soc]")
    return head + soc + "\n[output]" + tail.split("[output]")[1]


@pytest.mark.parametrize(
    "mode, soc",
    [
        ("explicit", "[soc]\nmode = explicit\nlambda_u0_mev = 12.5\nlambda_g0_mev = 0\nratio = 2\n"),
        ("off", "[soc]\nmode = off\nratio = 2\n"),
    ],
    ids=["explicit", "off"],
)
def test_ratio_outside_calibrate_mode_is_rejected(mode, soc):
    # serialize_config writes no ratio outside calibrate mode, so one that is
    # not the default would not round-trip
    with pytest.raises(ConfigError, match=f"soc mode = {mode} takes no ratio"):
        parse_config_text(_snv0_with_soc(soc))


@pytest.mark.parametrize(
    "given, missing", [("rho0_1_angstrom", "rho0_2_angstrom"), ("rho0_2_angstrom", "rho0_1_angstrom")]
)
def test_lone_rho0_key_requires_the_other(given, missing):
    with pytest.raises(ConfigError, match=f"missing required key '{missing}'"):
        parse_config_text(MINIMAL + f"{given} = 0.1\n")


@pytest.mark.parametrize(
    "line, message", [("k = ten", "'k': 'ten'"), ("converge = maybe", "'converge': 'maybe'")]
)
def test_bad_value_is_rejected_with_key_and_value(line, message):
    with pytest.raises(ConfigError, match=f"bad value for {message}"):
        parse_config_text(MINIMAL + f"\n[solver]\n{line}\n")


@pytest.mark.parametrize("word, value", [("yes", True), ("off", False), ("ON", True), ("0", False)])
def test_converge_reads_boolean_words(word, value):
    assert parse_config_text(MINIMAL + f"\n[solver]\nconverge = {word}\n").solver.converge is value


_decimal = st.floats(0.5, 500.0, allow_nan=False).map(lambda x: float(f"{x:.12g}"))

# the [soc] keys of each mode but ratio, which the round-trip test draws for every mode
_soc_keys = st.one_of(
    st.fixed_dictionaries({"mode": st.just("off")}),
    st.fixed_dictionaries(
        {"mode": st.just("explicit"), "lambda_u0_mev": _decimal, "lambda_g0_mev": _decimal}
    ),
    st.fixed_dictionaries({"mode": st.just("calibrate"), "target_lambda_eff_mev": _decimal}),
)

# valid sweep ranges only, two cutoffs at least: n_max >= n_start + n_step
_sweep_ranges = st.tuples(st.integers(0, 40), st.integers(1, 16), st.integers(0, 24)).map(
    lambda r: dict(converge_n_start=r[0], converge_n_step=r[1], converge_n_max=sum(r))
)

_configs = st.builds(
    lambda name, omega, lam, model, solver, output: RunConfig(
        defect=dataclasses.replace(DEFECTS[name], hbar_omega_e=omega, lambda_corr=lam),
        model=model,
        solver=solver,
        output=output,
    ),
    st.sampled_from(sorted(DEFECTS)),
    _decimal,
    _decimal,
    st.builds(ModelConfig, preset=st.sampled_from(PRESETS), order=st.sampled_from([1, 2])),
    st.builds(
        lambda sweep, **keys: SolverConfig(**keys, **sweep),
        _sweep_ranges,
        cutoff=st.integers(0, 60),
        k=st.integers(1, 40),
        seed=st.integers(0, 2**31),
        converge=st.booleans(),
        converge_rel_tol=_decimal,
    ),
    st.builds(
        OutputConfig,
        directory=st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True),
    ),
)


@settings(max_examples=60, deadline=None)
@given(
    cfg=_configs,
    soc=_soc_keys,
    ratio=st.one_of(st.just(1.0), _decimal),
    section=st.sampled_from(["defect", "model", "solver", "soc", "output"]),
    key=st.from_regex(r"x_[a-z0-9_]{0,12}", fullmatch=True),
)
def test_serialize_round_trip_and_unknown_key_rejection(cfg, soc, ratio, section, key):
    if soc["mode"] != "calibrate" and ratio != 1.0:
        with pytest.raises(ConfigError, match=f"soc mode = {soc['mode']} takes no ratio"):
            SocConfig(**soc, ratio=ratio)
        ratio = 1.0
    cfg = dataclasses.replace(cfg, soc=SocConfig(**soc, ratio=ratio))
    text = serialize_config(cfg)
    assert parse_config_text(text) == cfg
    injected = text.replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n")
    with pytest.raises(ConfigError, match=repr(key)):
        parse_config_text(injected)
