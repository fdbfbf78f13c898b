"""Scenario files: flat typed key-value sections, strictly validated.

Unknown sections or keys are errors; every value is parsed by the declared
type of its key (`_parse_field`), and a float must be finite.
`Scenario.validate` refuses, before any work, every value a run cannot
honour: each rule applies through its owner (Grid's argument checks,
Dispersion, ScfConfig, EvolutionConfig, `step_count`), and the rules no
constructor holds are its own.  Every refusal names its field as
"[section] key".  The config hash is a SHA-256 over the canonicalized
section.key=value lines, so it changes iff any config field changes.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .containers import fmt17
from .diagnostics import PHASE_SAMPLE_COUNT
from .grids import Dispersion, Grid, PotentialSpec, gaussian_vhat, harmonic_trap
from .propagate import EvolutionConfig, step_count
from .scf import DENSE_SIZE_CAP, ScfConfig

__all__ = ["Scenario", "ScenarioError", "parse_scenario", "load_scenario"]


class ScenarioError(ValueError):
    pass


def _parse_bool(token: str) -> bool:
    low = token.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {token!r}")


def _parse_float(token: str) -> float:
    value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {token!r}")
    return value


def _parse_epsilon(token: str):
    if token.strip().lower() == "auto":
        return "auto"
    value = _parse_float(token)
    if value <= 0:
        raise ValueError("epsilon must be positive")
    return value


# section -> key -> (parser, required, default)
_SCHEMA = {
    "scenario": {
        "name": (str, True, None),
    },
    "grid": {
        "dim": (int, True, None),
        "points_per_dim": (int, True, None),
        "box_length": (_parse_float, True, None),
    },
    "model": {
        "n_particles": (int, True, None),
        "epsilon": (_parse_epsilon, False, "auto"),
        "dispersion": (str, False, "relativistic"),
        "m0": (_parse_float, False, 1.0),
    },
    "potential": {
        "kernel": (str, False, "none"),
        "coupling": (_parse_float, False, 1.0),
        "width": (_parse_float, False, 1.0),
        "trap": (str, False, "none"),
        "trap_strength": (_parse_float, False, 1.0),
    },
    "preparation": {
        "kind": (str, False, "fermi_sea"),
        "max_iterations": (int, False, 200),
        "mixing": (_parse_float, False, 0.5),
        "convergence_tol": (_parse_float, False, 1e-10),
        "boost_amplitude": (_parse_float, False, 0.5),
        "boost_mode": (int, False, 1),
    },
    "evolution": {
        "scheme": (str, False, "exponential_midpoint"),
        "dt": (_parse_float, True, None),
        "t_final": (_parse_float, True, None),
        "exchange_on": (_parse_bool, False, True),
        "reortho_every": (int, False, 10),
        "keep_trap": (_parse_bool, False, False),
    },
    "diagnostics": {
        "conservation": (int, False, 0),
        "commutators": (int, False, 0),
        "exp_bound": (int, False, 0),
        "exchange_bound": (int, False, 0),
        "kinetic_ratio": (int, False, 0),
        "checkpoint": (int, False, 0),
    },
}

_CHOICES = {
    ("potential", "kernel"): ("gaussian", "none"),
    ("potential", "trap"): ("harmonic", "none"),
    ("preparation", "kind"): ("scf", "fermi_sea", "boosted_fermi_sea"),
}


def value_token(value) -> str:
    """The text of a field value: a float at 17 digits, a bool as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt17(value)
    return str(value)


def _parse_field(section: str, key: str, token: str):
    """token parsed by the declared type of [section] key, refused as that field."""
    if key not in _SCHEMA.get(section, {}):
        raise ScenarioError(f"unknown key [{section}] {key}")
    try:
        return _SCHEMA[section][key][0](token)
    except ValueError as exc:
        raise ScenarioError(f"bad value for [{section}] {key}: {exc}") from exc


def _owned(section: str, build, *args):
    """build(*args), a ValueError from it refused as the [section] field it names."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ScenarioError(f"[{section}] {exc}") from None


@dataclass
class Scenario:
    """Validated scenario: plain typed fields mirroring the schema."""

    values: dict = field(default_factory=dict)

    def __getitem__(self, key: tuple) -> object:
        return self.values[key]

    @property
    def name(self) -> str:
        return self.values[("scenario", "name")]

    def epsilon(self) -> float:
        rule = self.values[("model", "epsilon")]
        if rule == "auto":
            n = self.values[("model", "n_particles")]
            dim = self.values[("grid", "dim")]
            return float(n) ** (-1.0 / dim)
        return rule

    def with_value(self, section: str, key: str, token: str) -> "Scenario":
        """A copy with one field replaced by a re-parsed token (sweep support)."""
        new_values = dict(self.values)
        new_values[(section, key)] = _parse_field(section, key, token)
        out = Scenario(values=new_values)
        out.validate()
        return out

    def canonical_lines(self) -> list[str]:
        return [f"{section}.{key}={value_token(value)}"
                for (section, key), value in sorted(self.values.items())]

    def config_hash(self) -> str:
        payload = "\n".join(self.canonical_lines()).encode()
        return hashlib.sha256(payload).hexdigest()

    def validate(self) -> None:
        v = self.values
        for (section, key), choices in _CHOICES.items():
            if v[(section, key)] not in choices:
                raise ScenarioError(
                    f"[{section}] {key} must be one of {choices}, got {v[(section, key)]!r}"
                )
        n_particles = v[("model", "n_particles")]
        if n_particles < 1:
            raise ScenarioError(f"[model] n_particles must be >= 1, got {n_particles}")
        dim, n = v[("grid", "dim")], v[("grid", "points_per_dim")]
        _owned("grid", Grid.check_args, dim, n, v[("grid", "box_length")], self.epsilon())
        size = n**dim
        if n_particles > size:
            raise ScenarioError(f"[model] n_particles must be at most the {size} grid "
                                f"points, got {n_particles}")
        kind = v[("preparation", "kind")]
        if kind == "boosted_fermi_sea" and v[("preparation", "boost_mode")] == 0:
            raise ScenarioError("[preparation] boost_mode must be nonzero for "
                                "kind=boosted_fermi_sea")
        dispersion = _owned("model", self.build_dispersion)
        _owned("preparation", self.build_scf_config)
        _owned("evolution", self.build_evolution_config, dispersion)
        _owned("evolution", step_count, 0.0, v[("evolution", "t_final")],
               v[("evolution", "dt")])
        for key in _SCHEMA["diagnostics"]:
            if v[("diagnostics", key)] < 0:
                raise ScenarioError(f"[diagnostics] {key} must be >= 0 (0 disables), "
                                    f"got {v[('diagnostics', key)]}")
        if v[("diagnostics", "exp_bound")] > 0 and n <= PHASE_SAMPLE_COUNT:
            raise ScenarioError(f"[diagnostics] exp_bound needs [grid] points_per_dim > "
                                f"{PHASE_SAMPLE_COUNT} for its {PHASE_SAMPLE_COUNT} phase "
                                f"samples, got {n}")
        if kind == "scf" and size > DENSE_SIZE_CAP:
            raise ScenarioError(f"[preparation] kind=scf needs a grid of at most "
                                f"{DENSE_SIZE_CAP} points (dense SCF), got {size}")

    # --- physics object construction -------------------------------------

    def build_grid(self) -> Grid:
        return Grid(
            self.values[("grid", "dim")],
            self.values[("grid", "points_per_dim")],
            self.values[("grid", "box_length")],
            self.epsilon(),
        )

    def build_dispersion(self) -> Dispersion:
        return Dispersion(self.values[("model", "dispersion")], self.values[("model", "m0")])

    def build_scf_config(self) -> ScfConfig:
        return ScfConfig(
            max_iterations=self.values[("preparation", "max_iterations")],
            mixing=self.values[("preparation", "mixing")],
            convergence_tol=self.values[("preparation", "convergence_tol")],
        )

    def build_evolution_config(self, dispersion: Dispersion) -> EvolutionConfig:
        return EvolutionConfig(
            dt=self.values[("evolution", "dt")],
            t_final=self.values[("evolution", "t_final")],
            scheme=self.values[("evolution", "scheme")],
            exchange_on=self.values[("evolution", "exchange_on")],
            dispersion=dispersion,
            reortho_every=self.values[("evolution", "reortho_every")],
            keep_trap=self.values[("evolution", "keep_trap")],
        )

    def build_potential(self, grid: Grid) -> PotentialSpec:
        kernel = self.values[("potential", "kernel")]
        if kernel == "gaussian":
            vhat = gaussian_vhat(grid, self.values[("potential", "width")])
        else:
            vhat = np.zeros(grid.shape)
        vext = None
        if self.values[("potential", "trap")] == "harmonic":
            vext = harmonic_trap(grid, self.values[("potential", "trap_strength")])
        return PotentialSpec(grid, vhat, vext=vext,
                             coupling=self.values[("potential", "coupling")])


def parse_scenario(text: str, source: str = "") -> Scenario:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=source or "<scenario>")
    except configparser.Error as exc:
        raise ScenarioError(f"scenario parse error: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ScenarioError(f"unknown section [{section}]")
        for key, raw in parser.items(section):
            values[(section, key)] = _parse_field(section, key, raw)
    for section, keys in _SCHEMA.items():
        for key, (_, required, default) in keys.items():
            if (section, key) in values:
                continue
            if required:
                raise ScenarioError(f"missing required field [{section}] {key}")
            values[(section, key)] = default
    scenario = Scenario(values=values)
    scenario.validate()
    return scenario


def load_scenario(path) -> Scenario:
    path = Path(path)
    return parse_scenario(path.read_text(), source=str(path))
