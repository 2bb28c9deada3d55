"""Run configuration: flat sectioned key = value files.

The format is plain INI (diffable, hand-editable).  All energies are meV
except the transition baseline, which is eV.  The [soc] section must select
exactly one of the three modes: off (or the section absent), explicit bare
couplings, or calibration against a target Eu doublet splitting.  Unknown
sections and keys are errors; retired keys are ignored with a warning.

The section dataclasses are the schema.  Each [model], [solver], [soc] and
[output] key is a field of ModelConfig, SolverConfig, SocConfig or
OutputConfig; the field's type is the key's cast (int, float, bool words or
str) and its default the key's default, and the dataclass rejects a bad
value by its key at parse time.  Each [defect] key is a DefectParams
field, or one branch of a pair field, under its own name or the one
DEFECT_KEYS gives it; SOC_MODE_KEYS names the keys each [soc] mode takes.
parse_config_text and serialize_config both walk the same fields, so each
key is stated once.
"""

from __future__ import annotations

import configparser
import logging
import math
from dataclasses import MISSING, dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import get_type_hints

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
    converge_rel_tol: float = 0.01
    converge_n_start: int = 16
    converge_n_step: int = 8
    converge_n_max: int = 56

    def __post_init__(self):
        # a sweep compares two cutoffs at least; its range is checked whether
        # or not converge is on
        least = {"cutoff": 0, "k": 1, "converge_n_start": 0, "converge_n_step": 1,
                 "converge_n_max": self.converge_n_start + self.converge_n_step}
        for key, low in least.items():
            if getattr(self, key) < low:
                raise ConfigError(f"{key}={getattr(self, key)} must be >= {low}")
        # ARPACK's residuals are held to residual_tol: none meets a bound of 0; a
        # nan falls through to the finiteness check of _build
        if self.residual_tol <= 0:
            raise ConfigError(f"residual_tol must be positive (got {self.residual_tol})")
        # a drift is never held to a tolerance that is not positive (nor to nan)
        if not self.converge_rel_tol > 0:
            raise ConfigError(f"converge_rel_tol must be positive (got {self.converge_rel_tol})")


# the keys each [soc] mode reads and writes besides `mode`
SOC_MODE_KEYS = {
    SOC_OFF: (),
    SOC_EXPLICIT: ("lambda_u0_mev", "lambda_g0_mev"),
    SOC_CALIBRATE: ("target_lambda_eff_mev", "ratio"),
}


@dataclass(frozen=True)
class SocConfig:
    mode: str = SOC_OFF
    lambda_u0_mev: float | None = None
    lambda_g0_mev: float | None = None
    target_lambda_eff_mev: float | None = None
    ratio: float = 1.0

    def __post_init__(self):
        if self.mode not in SOC_MODE_KEYS:
            raise ConfigError(f"soc mode must be off, explicit or calibrate (got {self.mode!r})")
        keys = SOC_MODE_KEYS[self.mode]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name in keys and value is None:
                raise ConfigError(f"soc mode = {self.mode} requires {f.name}")
            # a key of another mode is unset (None) or keeps its default (ratio)
            if f.name not in keys and value != f.default:
                raise ConfigError(f"soc mode = {self.mode} takes no {f.name}")
        if self.mode == SOC_CALIBRATE and self.ratio <= 0:
            raise ConfigError("calibration ratio must be positive")
        # the explicit couplings and the calibration target
        for key in keys:
            if getattr(self, key) < 0:
                raise ConfigError(f"{key} must be nonnegative (got {getattr(self, key)})")


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"


@dataclass(frozen=True)
class RunConfig:
    defect: DefectParams
    model: ModelConfig = field(default_factory=ModelConfig)
    solver: SolverConfig = field(default_factory=SolverConfig)
    soc: SocConfig = field(default_factory=SocConfig)
    output: OutputConfig = field(default_factory=OutputConfig)


# the [defect] keys of the DefectParams fields whose key is not the field name;
# a pair field has one key per branch
DEFECT_KEYS = {
    "hbar_omega_e": ("hbar_omega_e_mev",),
    "lambda_corr": ("lambda_mev",),
    "e_jt": ("e_jt1_mev", "e_jt2_mev"),
    "delta_jt": ("delta_jt1_mev", "delta_jt2_mev"),
    "rho0_angstrom": ("rho0_1_angstrom", "rho0_2_angstrom"),
}

# section name -> its dataclass, in file order
SECTIONS = get_type_hints(RunConfig)

# keys that older files may still carry; they are ignored with a warning
RETIRED_KEYS = {("solver", "dense_threshold"), ("solver", "cluster_tol_mev"),
                ("solver", "converge_observable"), ("output", "formats")}

log = logging.getLogger(__name__)


def _codec(hint):
    """(read a raw value, write a value) for a field type; float also covers the pairs."""
    if hint is bool:  # true/yes/1/on or false/no/0/off, any case
        states = configparser.ConfigParser.BOOLEAN_STATES
        return lambda raw: states[raw.lower()], lambda v: str(v).lower()
    if hint is int or hint is str:
        return hint, str
    return float, "{:.12g}".format


@cache
def _schema(cls) -> list:
    """(field, its keys, read, write) for each field of a section's dataclass."""
    hints = get_type_hints(cls)
    renamed = DEFECT_KEYS if cls is DefectParams else {}
    return [(f, renamed.get(f.name, (f.name,)), *_codec(hints[f.name])) for f in fields(cls)]


def _read_sections(text: str) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    return {name: dict(parser[name]) for name in parser.sections()}


def _take(section, key, read):
    """Take a key out of its section; what is left over afterwards is unknown."""
    if key not in section:
        raise ConfigError(f"missing required key {key!r}")
    raw = section.pop(key).strip()
    try:
        return read(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {raw!r}") from exc


def _build(cls, section):
    """A section's dataclass from its keys.

    A field is read when its dataclass gives it no default or when any of its
    keys is given; a pair field then needs both keys.  Every float key must
    be finite, which is checked after the dataclass's own checks, so theirs
    speak first.
    """
    kwargs, floats = {}, []
    for f, keys, read, _ in _schema(cls):
        if f.default is MISSING or any(key in section for key in keys):
            values = tuple(_take(section, key, read) for key in keys)
            kwargs[f.name] = values if len(keys) > 1 else values[0]
            if read is float:
                floats += zip(keys, values)
    obj = cls(**kwargs)
    for key, value in floats:
        if not math.isfinite(value):
            raise ConfigError(f"{key} must be finite (got {value})")
    return obj


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
    given = {name: sections.pop(name, {}) for name in SECTIONS}
    try:
        parts = {name: _build(cls, given[name]) for name, cls in SECTIONS.items()}
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc
    if sections:
        raise ConfigError(f"unknown section [{next(iter(sections))}]")
    for name, section in given.items():
        for key in section:
            if (name, key) not in RETIRED_KEYS:
                raise ConfigError(f"unknown key {key!r} in [{name}]")
            log.warning("config key %r in [%s] is retired and ignored", key, name)
    return RunConfig(**parts)


def serialize_config(cfg: RunConfig) -> str:
    """Render a RunConfig back to the flat file format (parse round-trips).

    Unset optional values are left out, and [soc] writes only its mode's keys.
    """
    blocks = []
    for name, cls in SECTIONS.items():
        obj = getattr(cfg, name)
        lines = [f"[{name}]"]
        for f, keys, _, write in _schema(cls):
            value = getattr(obj, f.name)
            if value is None or (
                cls is SocConfig and f.name != "mode" and f.name not in SOC_MODE_KEYS[obj.mode]
            ):
                continue
            values = value if len(keys) > 1 else (value,)
            lines += [f"{key} = {write(v)}" for key, v in zip(keys, values)]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
