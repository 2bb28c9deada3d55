"""Run configuration: flat sectioned key = value files.

The format is plain INI (diffable, hand-editable).  All energies are meV
except the transition baseline, which is eV.  The [soc] section must select
exactly one of the three modes: off (or the section absent), explicit bare
couplings, or calibration against a target Eu doublet splitting.  Unknown
sections and keys are errors; retired keys are ignored with a warning.
"""

from __future__ import annotations

import configparser
import io
import logging
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import OBSERVABLES
from .hamiltonian import PRESETS, PRESET_E_RAISED
from .params import DefectParams, ParameterError

SOC_OFF = "off"
SOC_EXPLICIT = "explicit"
SOC_CALIBRATE = "calibrate"


class ConfigError(ValueError):
    """Configuration file is malformed or inconsistent."""


@dataclass(frozen=True)
class ModelConfig:
    preset: str = PRESET_E_RAISED
    order: int = 2

    def __post_init__(self):
        if self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}; choose from {PRESETS}")
        if self.order not in (1, 2):
            raise ConfigError(f"order must be 1 or 2 (got {self.order})")


@dataclass(frozen=True)
class SolverConfig:
    cutoff: int = 36
    k: int = 10
    residual_tol: float = 1e-10
    seed: int = 0
    converge: bool = False
    converge_observable: str = "gamma2"
    converge_rel_tol: float = 0.01
    converge_n_start: int = 16
    converge_n_step: int = 8
    converge_n_max: int = 56

    def __post_init__(self):
        if self.cutoff < 0 or self.k < 1:
            raise ConfigError("cutoff must be >= 0 and k >= 1")
        if self.converge_observable not in OBSERVABLES:
            raise ConfigError(
                f"unknown converge_observable {self.converge_observable!r}; "
                f"choose from {sorted(OBSERVABLES)}"
            )


@dataclass(frozen=True)
class SocConfig:
    mode: str = SOC_OFF
    lambda_u0_mev: float | None = None
    lambda_g0_mev: float | None = None
    target_lambda_eff_mev: float | None = None
    ratio: float = 1.0

    def __post_init__(self):
        if self.mode not in (SOC_OFF, SOC_EXPLICIT, SOC_CALIBRATE):
            raise ConfigError(f"soc mode must be off, explicit or calibrate (got {self.mode!r})")
        has_explicit = self.lambda_u0_mev is not None or self.lambda_g0_mev is not None
        has_target = self.target_lambda_eff_mev is not None
        if self.mode == SOC_OFF and (has_explicit or has_target):
            raise ConfigError("soc mode = off takes no coupling keys")
        if self.mode == SOC_EXPLICIT:
            if self.lambda_u0_mev is None or self.lambda_g0_mev is None:
                raise ConfigError("soc mode = explicit requires lambda_u0_mev and lambda_g0_mev")
            for key in ("lambda_u0_mev", "lambda_g0_mev"):
                if getattr(self, key) < 0:
                    raise ConfigError(f"{key} must be nonnegative (got {getattr(self, key)})")
            if has_target:
                raise ConfigError("soc mode = explicit conflicts with a calibration target")
        if self.mode == SOC_CALIBRATE:
            if not has_target:
                raise ConfigError("soc mode = calibrate requires target_lambda_eff_mev")
            if has_explicit:
                raise ConfigError("soc mode = calibrate conflicts with explicit couplings")
            if self.ratio <= 0:
                raise ConfigError("calibration ratio must be positive")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple[str, ...] = ("json", "csv")

    def __post_init__(self):
        for f in self.formats:
            if f not in ("json", "csv"):
                raise ConfigError(f"unknown output format {f!r}")


@dataclass(frozen=True)
class RunConfig:
    defect: DefectParams
    model: ModelConfig = field(default_factory=ModelConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    soc: SocConfig = field(default_factory=SocConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


# keys that older files may still carry; they are ignored with a warning
RETIRED_KEYS = {("solver", "dense_threshold"), ("solver", "cluster_tol_mev")}

log = logging.getLogger(__name__)


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def _get(section, key, cast, default=None, required=False):
    """Take a key out of its section; what is left over afterwards is unknown."""
    if key not in section:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    raw = section.pop(key).strip()
    try:
        if cast is bool:
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def parse_config(source: str | Path) -> RunConfig:
    """Load and validate a run configuration from a file path."""
    path = Path(source)
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    return parse_config_text(path.read_text(encoding="utf-8"))


def parse_config_text(text: str) -> RunConfig:
    """Parse and validate a configuration; unknown sections and keys are errors."""
    sections = _read_sections(text)
    if "defect" not in sections:
        raise ConfigError("missing [defect] section")
    d = sections.pop("defect")
    rho0 = None
    if "rho0_1_angstrom" in d or "rho0_2_angstrom" in d:
        rho0 = (
            _get(d, "rho0_1_angstrom", float, required=True),
            _get(d, "rho0_2_angstrom", float, required=True),
        )
    try:
        defect = DefectParams(
            name=_get(d, "name", str, required=True),
            hbar_omega_e=_get(d, "hbar_omega_e_mev", float, required=True),
            lambda_corr=_get(d, "lambda_mev", float, required=True),
            e_jt=(
                _get(d, "e_jt1_mev", float, required=True),
                _get(d, "e_jt2_mev", float, required=True),
            ),
            delta_jt=(
                _get(d, "delta_jt1_mev", float, required=True),
                _get(d, "delta_jt2_mev", float, required=True),
            ),
            rho0_angstrom=rho0,
            zpl_baseline_ev=_get(d, "zpl_baseline_ev", float),
            effective_mass_amu=_get(d, "effective_mass_amu", float, default=12.0),
        )
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc

    m = sections.pop("model", {})
    model = ModelConfig(
        preset=_get(m, "preset", str, default=PRESET_E_RAISED),
        order=_get(m, "order", int, default=2),
    )

    s = sections.pop("solver", {})
    solver = SolverConfig(
        cutoff=_get(s, "cutoff", int, default=36),
        k=_get(s, "k", int, default=10),
        residual_tol=_get(s, "residual_tol", float, default=1e-10),
        seed=_get(s, "seed", int, default=0),
        converge=_get(s, "converge", bool, default=False),
        converge_observable=_get(s, "converge_observable", str, default="gamma2"),
        converge_rel_tol=_get(s, "converge_rel_tol", float, default=0.01),
        converge_n_start=_get(s, "converge_n_start", int, default=16),
        converge_n_step=_get(s, "converge_n_step", int, default=8),
        converge_n_max=_get(s, "converge_n_max", int, default=56),
    )

    c = sections.pop("soc", {})
    soc = SocConfig(
        mode=_get(c, "mode", str, default=SOC_OFF),
        lambda_u0_mev=_get(c, "lambda_u0_mev", float),
        lambda_g0_mev=_get(c, "lambda_g0_mev", float),
        target_lambda_eff_mev=_get(c, "target_lambda_eff_mev", float),
        ratio=_get(c, "ratio", float, default=1.0),
    )

    o = sections.pop("output", {})
    formats = tuple(
        f.strip() for f in _get(o, "formats", str, default="json,csv").split(",") if f.strip()
    )
    output = OutputConfig(directory=_get(o, "directory", str, default="out"), formats=formats)

    if sections:
        raise ConfigError(f"unknown section [{next(iter(sections))}]")
    for name, section in (("defect", d), ("model", m), ("solver", s), ("soc", c), ("output", o)):
        for key in section:
            if (name, key) not in RETIRED_KEYS:
                raise ConfigError(f"unknown key {key!r} in [{name}]")
            log.warning("config key %r in [%s] is retired and ignored", key, name)
    return RunConfig(defect=defect, model=model, solver=solver, soc=soc, output=output)


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to the flat file format (parse round-trips)."""
    buf = io.StringIO()
    d = cfg.defect
    buf.write("[defect]\n")
    buf.write(f"name = {d.name}\n")
    buf.write(f"hbar_omega_e_mev = {d.hbar_omega_e:.12g}\n")
    buf.write(f"lambda_mev = {d.lambda_corr:.12g}\n")
    buf.write(f"e_jt1_mev = {d.e_jt[0]:.12g}\n")
    buf.write(f"e_jt2_mev = {d.e_jt[1]:.12g}\n")
    buf.write(f"delta_jt1_mev = {d.delta_jt[0]:.12g}\n")
    buf.write(f"delta_jt2_mev = {d.delta_jt[1]:.12g}\n")
    if d.rho0_angstrom is not None:
        buf.write(f"rho0_1_angstrom = {d.rho0_angstrom[0]:.12g}\n")
        buf.write(f"rho0_2_angstrom = {d.rho0_angstrom[1]:.12g}\n")
    if d.zpl_baseline_ev is not None:
        buf.write(f"zpl_baseline_ev = {d.zpl_baseline_ev:.12g}\n")
    buf.write(f"effective_mass_amu = {d.effective_mass_amu:.12g}\n")

    buf.write("\n[model]\n")
    buf.write(f"preset = {cfg.model.preset}\n")
    buf.write(f"order = {cfg.model.order}\n")

    s = cfg.solver
    buf.write("\n[solver]\n")
    buf.write(f"cutoff = {s.cutoff}\n")
    buf.write(f"k = {s.k}\n")
    buf.write(f"residual_tol = {s.residual_tol:.12g}\n")
    buf.write(f"seed = {s.seed}\n")
    buf.write(f"converge = {str(s.converge).lower()}\n")
    buf.write(f"converge_observable = {s.converge_observable}\n")
    buf.write(f"converge_rel_tol = {s.converge_rel_tol:.12g}\n")
    buf.write(f"converge_n_start = {s.converge_n_start}\n")
    buf.write(f"converge_n_step = {s.converge_n_step}\n")
    buf.write(f"converge_n_max = {s.converge_n_max}\n")

    c = cfg.soc
    buf.write("\n[soc]\n")
    buf.write(f"mode = {c.mode}\n")
    if c.mode == SOC_EXPLICIT:
        buf.write(f"lambda_u0_mev = {c.lambda_u0_mev:.12g}\n")
        buf.write(f"lambda_g0_mev = {c.lambda_g0_mev:.12g}\n")
    if c.mode == SOC_CALIBRATE:
        buf.write(f"target_lambda_eff_mev = {c.target_lambda_eff_mev:.12g}\n")
        buf.write(f"ratio = {c.ratio:.12g}\n")

    o = cfg.output
    buf.write("\n[output]\n")
    buf.write(f"directory = {o.directory}\n")
    buf.write(f"formats = {','.join(o.formats)}\n")
    return buf.getvalue()
