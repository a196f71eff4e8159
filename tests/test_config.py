import json
import math

import pytest

from sirskit.config import SolverSettings, load_config, parse_config
from sirskit.errors import ConfigError

from conftest import REF


def make_doc(**sections):
    doc = {"params": dict(REF),
           "incidence": {"family": "power", "coefficients": {"k": 0.0008, "q": 2}}}
    doc.update(sections)
    return doc


def rejects(doc, *named):
    with pytest.raises(ConfigError) as err:
        parse_config(doc, source="model.json")
    message = str(err.value)
    assert message.startswith("model.json: ")
    for text in named:
        assert text in message
    return message


def test_minimal_document_takes_defaults():
    cfg = parse_config(make_doc())
    assert cfg.params.as_dict() == REF
    assert cfg.family == "power"
    assert cfg.coefficients == {"k": 0.0008, "q": 2.0}
    assert cfg.solver == SolverSettings()


def test_full_document_round_trips(tmp_path):
    doc = make_doc(solver={"method": "rk4_fixed", "step_or_tol": 0.01, "t_end": 50})
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    cfg = load_config(path)
    assert cfg.solver == SolverSettings(method="rk4_fixed", step_or_tol=0.01, t_end=50.0)


def test_top_level_must_be_an_object():
    rejects([make_doc()], "top level must be a JSON object")


@pytest.mark.parametrize("section", ["params", "incidence"])
def test_missing_section(section):
    doc = make_doc()
    del doc[section]
    rejects(doc, f"missing required object '{section}'")


@pytest.mark.parametrize("key", ["Lambda", "mu", "delta"])
def test_missing_param(key):
    doc = make_doc()
    del doc["params"][key]
    rejects(doc, f"params missing required key '{key}'")


def test_missing_family():
    rejects(make_doc(incidence={"coefficients": {"beta": 0.5}}),
            "incidence.family must be a string")


# the certificate scans run at the library's fixed resolution, so a
# "scan" section is rejected like any other unknown key
@pytest.mark.parametrize("where, key", [
    (None, "colour"), ("params", "colour"), ("incidence", "colour"),
    ("solver", "colour"), (None, "scan"),
], ids=["None", "params", "incidence", "solver", "scan"])
def test_unknown_key_in_each_section(where, key):
    doc = make_doc(solver={})
    (doc if where is None else doc[where])[key] = 1
    rejects(doc, f"unknown key(s) ['{key}']",
            "top level" if where is None else f"in {where};")


def test_unknown_coefficient():
    rejects(make_doc(incidence={"family": "bilinear",
                                "coefficients": {"beta": 0.5, "gamma": 1}}),
            "invalid incidence")


@pytest.mark.parametrize("section, key", [
    ("params", "mu"),
    ("coefficients", "k"),
    ("solver", "t_end"),
    ("solver", "step_or_tol"),
])
def test_bool_is_not_a_number(section, key):
    doc = make_doc(solver={})
    target = doc["incidence"]["coefficients"] if section == "coefficients" else doc[section]
    target[key] = True
    rejects(doc, f".{key} must be a number, got True")


@pytest.mark.parametrize("section, key", [
    ("params", "Lambda"),
    ("coefficients", "k"),
    ("solver", "t_end"),
])
def test_integer_too_large_for_a_float(section, key):
    # json reads 1 followed by 400 zeros as an int that float() cannot take
    doc = make_doc(solver={})
    target = doc["incidence"]["coefficients"] if section == "coefficients" else doc[section]
    target[key] = 10 ** 400
    message = rejects(doc, f".{key} is too large for a float")
    assert "\n" not in message and "0" * 400 not in message


def test_string_is_not_a_number():
    doc = make_doc()
    doc["params"]["mu"] = "0.2"
    rejects(doc, "params.mu must be a number, got '0.2'")


def test_invalid_param_value():
    doc = make_doc()
    doc["params"]["mu"] = 0
    rejects(doc, "invalid params", "mu must be positive")


def test_unknown_method():
    rejects(make_doc(solver={"method": "euler"}),
            "solver.method must be one of ['rk4_fixed', 'rk45_adaptive']", "'euler'")


@pytest.mark.parametrize("key", ["t_end", "step_or_tol"])
@pytest.mark.parametrize("value", [0, -1.5])
def test_non_positive_solver_setting(key, value):
    rejects(make_doc(solver={key: value}), "must be positive")


@pytest.mark.parametrize("key", ["t_end", "step_or_tol"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_solver_setting(key, value):
    rejects(make_doc(solver={key: value}), "must be positive and finite")


@pytest.mark.parametrize("section", ["solver"])
def test_optional_section_must_be_an_object(section):
    rejects(make_doc(**{section: [1]}), f"{section} must be an object")


def test_unreadable_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.json")
