"""JSON model configuration consumed by the command-line interface.

A configuration document has the shape

    {
      "params": {"Lambda": 10, "mu": 0.2, "gamma1": 0.2,
                 "gamma2": 0.2, "alpha": 0.1, "delta": 0.1},
      "incidence": {"family": "power", "coefficients": {"k": 0.0008, "q": 2}},
      "solver": {"method": "rk45_adaptive", "step_or_tol": 1e-8, "t_end": 500}
    }

``solver`` is optional and may be given partially; unknown keys
anywhere are rejected, and missing required keys are reported by name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from numbers import Real

from .errors import ConfigError
from .incidence import IncidenceFunction, make_builtin
from .model import ModelParams
from .simulate import METHODS

_PARAM_KEYS = ("Lambda", "mu", "gamma1", "gamma2", "alpha", "delta")


@dataclass(frozen=True)
class SolverSettings:
    method: str = "rk45_adaptive"
    step_or_tol: float = 1e-8
    t_end: float = 500.0


@dataclass(frozen=True)
class ModelConfig:
    params: ModelParams
    family: str
    coefficients: dict
    solver: SolverSettings

    def incidence(self) -> IncidenceFunction:
        return make_builtin(self.family, self.coefficients)


def _reject_unknown(mapping: dict, allowed, where: str, source: str):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"{source}: unknown key(s) {sorted(unknown)} in {where}; "
                          f"allowed: {sorted(allowed)}")


def _number(mapping: dict, key: str, where: str, source: str) -> float:
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ConfigError(f"{source}: {where}.{key} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer too large for a float
        raise ConfigError(f"{source}: {where}.{key} is too large for a float") from None


def parse_config(doc, source: str = "<config>") -> ModelConfig:
    """Validate a parsed JSON document into a ModelConfig."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{source}: top level must be a JSON object")
    _reject_unknown(doc, ("params", "incidence", "solver"), "top level", source)

    if "params" not in doc or not isinstance(doc["params"], dict):
        raise ConfigError(f"{source}: missing required object 'params'")
    raw_params = doc["params"]
    _reject_unknown(raw_params, _PARAM_KEYS, "params", source)
    for key in _PARAM_KEYS:
        if key not in raw_params:
            raise ConfigError(f"{source}: params missing required key '{key}'")
    try:
        params = ModelParams(**{k: _number(raw_params, k, "params", source)
                                for k in _PARAM_KEYS})
    except ValueError as exc:
        raise ConfigError(f"{source}: invalid params: {exc}") from exc

    if "incidence" not in doc or not isinstance(doc["incidence"], dict):
        raise ConfigError(f"{source}: missing required object 'incidence'")
    raw_inc = doc["incidence"]
    _reject_unknown(raw_inc, ("family", "coefficients"), "incidence", source)
    family = raw_inc.get("family")
    if not isinstance(family, str):
        raise ConfigError(f"{source}: incidence.family must be a string")
    coefficients = raw_inc.get("coefficients", {})
    if not isinstance(coefficients, dict):
        raise ConfigError(f"{source}: incidence.coefficients must be an object")
    coefficients = {str(k): _number(coefficients, k, "incidence.coefficients", source)
                    for k in coefficients}
    try:
        make_builtin(family, coefficients)
    except ValueError as exc:
        raise ConfigError(f"{source}: invalid incidence: {exc}") from exc

    solver = SolverSettings()
    if "solver" in doc:
        raw = doc["solver"]
        if not isinstance(raw, dict):
            raise ConfigError(f"{source}: solver must be an object")
        _reject_unknown(raw, ("method", "step_or_tol", "t_end"), "solver", source)
        method = raw.get("method", solver.method)
        if method not in METHODS:
            raise ConfigError(f"{source}: solver.method must be one of "
                              f"{list(METHODS)}, got {method!r}")
        step_or_tol = (_number(raw, "step_or_tol", "solver", source)
                       if "step_or_tol" in raw else solver.step_or_tol)
        t_end = _number(raw, "t_end", "solver", source) if "t_end" in raw else solver.t_end
        if not (0.0 < step_or_tol < math.inf and 0.0 < t_end < math.inf):
            raise ConfigError(f"{source}: solver.step_or_tol and solver.t_end "
                              "must be positive and finite")
        solver = SolverSettings(method=method, step_or_tol=step_or_tol, t_end=t_end)

    return ModelConfig(params=params, family=family, coefficients=coefficients,
                       solver=solver)


def load_config(path) -> ModelConfig:
    """Read and validate a configuration file."""
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    return parse_config(doc, source=str(path))
