import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from sirskit import cli, simulate
from sirskit.cli import main
from sirskit.errors import BracketFailureError

REF_PARAMS = {"Lambda": 10, "mu": 0.2, "gamma1": 0.2, "gamma2": 0.2,
              "alpha": 0.1, "delta": 0.1}


def write_config(tmp_path, name="config.json", params=None, incidence=None, **extra):
    doc = {
        "params": params if params is not None else dict(REF_PARAMS),
        "incidence": incidence if incidence is not None else
        {"family": "power", "coefficients": {"k": 0.0008, "q": 2}},
    }
    doc.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def high_config(tmp_path):
    return write_config(tmp_path, "high.json")


@pytest.fixture
def low_config(tmp_path):
    return write_config(tmp_path, "low.json",
                        incidence={"family": "power",
                                   "coefficients": {"k": 0.0002, "q": 2}})


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_power_passes(capsys, high_config):
    code, out, _ = run_cli(capsys, "check", high_config)
    assert code == 0
    doc = json.loads(out)
    assert doc["h1_pass"] and doc["h2_pass"] and doc["h3_pass"]
    assert doc["violations"] == []


def test_check_ruan_fails_h3(capsys, tmp_path):
    cfg = write_config(tmp_path, "ruan.json",
                       incidence={"family": "ruan",
                                  "coefficients": {"beta": 0.5, "rho": 1}})
    code, out, _ = run_cli(capsys, "check", cfg)
    assert code == 2
    doc = json.loads(out)
    assert not doc["h3_pass"]
    assert any(v["hypothesis"] == "H3" for v in doc["violations"])


@pytest.mark.parametrize("incidence", [
    {"family": "saturated_in_I", "coefficients": {"beta": 0.04, "a": 20}},
    {"family": "saturated_in_I", "coefficients": {"beta": 0.04, "a": 2e4}},
    {"family": "psi_ratio", "coefficients": {"beta": 0.04, "a": 0.1, "b": 1e4}},
], ids=["a_S0_1e3", "a_S0_1e6", "b_S0sq_2.5e7"])
def test_check_strong_saturation_passes(capsys, tmp_path, incidence):
    # f/I tends to f1(S, 0) = beta*S > 0 however strongly f saturates in I
    code, out, _ = run_cli(capsys, "check", write_config(tmp_path, incidence=incidence))
    assert code == 0
    assert json.loads(out)["violations"] == []


def test_check_missing_param_exits_1(capsys, tmp_path):
    params = dict(REF_PARAMS)
    del params["mu"]
    cfg = write_config(tmp_path, "bad.json", params=params)
    code, _, err = run_cli(capsys, "check", cfg)
    assert code == 1
    assert "mu" in err


def test_check_unknown_key_exits_1(capsys, tmp_path):
    cfg = write_config(tmp_path, "extra.json", plotting={"dpi": 300})
    code, _, err = run_cli(capsys, "check", cfg)
    assert code == 1
    assert "plotting" in err


def test_check_coefficients_as_a_list_exits_1(capsys, tmp_path):
    cfg = write_config(tmp_path, "list.json",
                       incidence={"family": "bilinear", "coefficients": [0.5]})
    code, out, err = run_cli(capsys, "check", cfg)
    assert code == 1 and out == ""
    assert len(err.splitlines()) == 1
    assert err.endswith("incidence.coefficients must be an object\n")


def test_check_malformed_json_exits_1(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "check", path)
    assert code == 1


def test_integer_too_large_for_a_float_exits_1(capsys, tmp_path):
    path = write_config(tmp_path)
    path.write_text(path.read_text().replace('"Lambda": 10,', '"Lambda": 1' + "0" * 400 + ","))
    code, _, err = run_cli(capsys, "analyze", path)
    assert code == 1
    assert err == f"error: {path}: params.Lambda is too large for a float\n"


@pytest.mark.parametrize("solver, key", [({"method": "rk4_fixed"}, "step_or_tol"),
                                         ({"method": ["rk4_fixed"]}, "method")],
                         ids=["rk4-without-step", "method-not-a-string"])
@pytest.mark.parametrize("command", ["check", "analyze", "simulate", "sweep"])
def test_bad_solver_method_exits_1(capsys, tmp_path, solver, key, command):
    path = write_config(tmp_path, solver=solver)
    extra = {"simulate": ["--initial", "30,10,5", "--out", tmp_path / "traj.csv"],
             "sweep": ["--lattice", 3, "--out", tmp_path / "sweep"]}.get(command, [])
    code, out, err = run_cli(capsys, command, path, *extra)
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: solver.{key} ") and err.count("\n") == 1


def test_analyze_subcritical(capsys, low_config):
    code, out, _ = run_cli(capsys, "analyze", low_config)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["r0"] - 0.7143) <= 1e-4
    assert doc["beta"] == pytest.approx(0.01, rel=1e-9)
    assert doc["equilibria"]["endemic"] == []
    assert doc["certificate"] is None
    assert doc["dfe"] == {"S": 50.0, "I": 0.0, "R": 0.0}


def test_analyze_supercritical(capsys, high_config):
    code, out, _ = run_cli(capsys, "analyze", high_config)
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["r0"] - 2.8571) <= 1e-4
    endemic = doc["equilibria"]["endemic"]
    assert len(endemic) == 1
    state = endemic[0]["state"]
    assert abs(state["S"] - 29.5804) <= 1e-3
    assert abs(state["I"] - 9.4244) <= 1e-3
    assert abs(state["R"] - 6.2830) <= 1e-3
    cert = doc["certificate"]
    assert cert["granted"]
    assert cert["k1"] is not None
    assert cert["sup_h"] < cert["h_bound"]
    assert cert["dvdt_max"] < 0


@pytest.mark.parametrize("scale", [1e-7, 1e7])
def test_analyze_grants_at_rescaled_population(capsys, tmp_path, scale):
    # Lambda*s and k/s^2 rescale the population and keep R0 and S*/S0
    params = dict(REF_PARAMS, Lambda=REF_PARAMS["Lambda"] * scale)
    cfg = write_config(tmp_path, params=params,
                       incidence={"family": "power",
                                  "coefficients": {"k": 0.0008 / scale ** 2, "q": 2}})
    code, out, _ = run_cli(capsys, "analyze", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["granted"]
    state = doc["equilibria"]["endemic"][0]["state"]
    assert state["I"] / scale == pytest.approx(9.42443127, rel=1e-9)


def test_analyze_refused_certificate_exits_0(capsys, tmp_path):
    # f1 = beta*S/(1 + a*I) depends on I, so G is unbounded near S*; the
    # refusal is a result of the analysis, not a failure
    cfg = write_config(tmp_path, "saturated.json",
                       incidence={"family": "saturated_in_I",
                                  "coefficients": {"beta": 0.04, "a": 0.1}})
    code, out, _ = run_cli(capsys, "analyze", cfg)
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["granted"] is False
    assert cert["divergence_flag"] is True
    assert cert["k1"] is None
    assert cert["sup_h"] is None
    assert cert["exclusion"] == 0.005


def test_analyze_overflowing_k1_is_refused_exits_0(capsys, tmp_path):
    # G = beta = 1.1e-308 makes the closed-form k1 overflow: a valid model
    # whose certificate is refused, not an input error
    cfg = write_config(tmp_path, "huge.json",
                       params={"Lambda": 1e308, "mu": 1, "gamma1": 0, "gamma2": 1e-3,
                               "alpha": 0, "delta": 0},
                       incidence={"family": "bilinear", "coefficients": {"beta": 1.1e-308}})
    code, out, err = run_cli(capsys, "analyze", cfg)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["errors"] == []
    assert doc["r0"] == pytest.approx(1.0989, rel=1e-4)
    cert = doc["certificate"]
    assert cert["granted"] is False and cert["a1_pass"] is True
    assert cert["k1"] is None and cert["sup_h"] is None and cert["dvdt_max"] is None
    assert cert["divergence_flag"] is False


def test_analyze_equilibrium_failure_exits_3(capsys, monkeypatch, high_config):
    def failing(params, f):
        raise BracketFailureError("no sign change")

    monkeypatch.setattr(cli, "find_endemic", failing)
    code, out, _ = run_cli(capsys, "analyze", high_config)
    assert code == 3
    doc = json.loads(out)
    assert doc["errors"] == [{"stage": "equilibria", "type": "BracketFailureError",
                              "message": "no sign change"}]
    assert doc["equilibria"] is None and doc["certificate"] is None


@pytest.mark.parametrize("command", ["check", "analyze"])
def test_out_file_gets_what_stdout_would(capsys, high_config, tmp_path, command):
    _, printed, _ = run_cli(capsys, command, high_config)
    code, out, err = run_cli(capsys, command, high_config, "--out", tmp_path / "report.json")
    assert code == 0 and out == "" and err == ""
    assert (tmp_path / "report.json").read_text() == printed


def test_analyze_ruan_hypotheses_fail(capsys, tmp_path):
    cfg = write_config(tmp_path, "ruan.json",
                       incidence={"family": "ruan",
                                  "coefficients": {"beta": 0.5, "rho": 1}})
    code, out, _ = run_cli(capsys, "analyze", cfg)
    assert code == 2
    doc = json.loads(out)
    assert not doc["hypotheses"]["h3_pass"]
    assert doc["r0"] is None  # partial report


@pytest.mark.parametrize("gamma2", [0.0, 1e-320])
def test_analyze_gamma2_zero_is_degenerate(capsys, tmp_path, gamma2):
    # k2 = (2mu+alpha)/gamma2 is undefined, or overflows to inf, so no
    # certificate is issued
    params = dict(REF_PARAMS)
    params["gamma2"] = gamma2
    cfg = write_config(tmp_path, "sis.json", params=params)
    code, out, _ = run_cli(capsys, "analyze", cfg)
    assert code == 3
    doc = json.loads(out)
    assert doc["errors"][0]["type"] == "DegenerateParameterError"
    assert doc["certificate"] is None


def test_analyze_empty_dvdt_scan_is_degenerate(capsys, tmp_path):
    # at S0 = 5e-169 the squared distances of the dV/dt scan underflow to 0,
    # so no lattice point lies outside the ball around E1: a degenerate
    # model, not an input error
    scale = 1e-170
    params = dict(REF_PARAMS, Lambda=REF_PARAMS["Lambda"] * scale)
    cfg = write_config(tmp_path, params=params,
                       incidence={"family": "bilinear", "coefficients": {"beta": 0.04 / scale}})
    code, out, err = run_cli(capsys, "analyze", cfg)
    assert code == 3 and err == ""
    doc = json.loads(out)
    assert doc["certificate"] is None and doc["equilibria"]["endemic"]
    [error] = doc["errors"]
    assert error["stage"] == "certificate" and error["type"] == "DegenerateParameterError"
    assert "no lattice point" in error["message"] and "S0 = 5e-169" in error["message"]


def test_analyze_bilinear_at_threshold(capsys, tmp_path):
    # beta chosen so Lambda*beta == mu*outflow: R0 lands at 1 up to
    # round-off and the endemic list must stay empty
    cfg = write_config(tmp_path, "threshold.json",
                       incidence={"family": "bilinear",
                                  "coefficients": {"beta": 0.014}})
    code, out, _ = run_cli(capsys, "analyze", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["r0"] == pytest.approx(1.0, rel=1e-12)
    assert doc["equilibria"]["endemic"] == []


def test_analyze_just_above_threshold(capsys, tmp_path):
    # R0 = 1 + 1e-7: the endemic root lies below the usual bracket's lower
    # end 1e-9*I0 and is found by bisecting (0, 1e-9*I0)
    cfg = write_config(tmp_path, "near.json",
                       incidence={"family": "saturated_in_I",
                                  "coefficients": {"beta": 0.0140000014, "a": 10}})
    code, out, _ = run_cli(capsys, "analyze", cfg)
    assert code == 0
    doc = json.loads(out)
    assert doc["errors"] == []
    assert doc["r0"] == pytest.approx(1.0 + 1e-7, rel=1e-12)
    equilibria = doc["equilibria"]
    assert equilibria["bracket_log"] == [[0.0, 1e-9 * equilibria["i0"]]]
    assert 0.0 < equilibria["endemic"][0]["state"]["I"] < 1e-9 * equilibria["i0"]


def test_analyze_states_each_fact_once(capsys, high_config):
    _, out, _ = run_cli(capsys, "analyze", high_config)
    doc = json.loads(out)
    assert set(doc["equilibria"]) == {"i0", "endemic", "bracket_log"}
    for block in ("equilibria", "certificate"):
        assert not set(doc[block]) & set(doc), block
    # the (H3) limits are f1(S, 0) and the grid's step follows from s_max
    # and grid_n, so the hypothesis report lists neither
    _, checked, _ = run_cli(capsys, "check", high_config)
    for hypotheses in (doc["hypotheses"], json.loads(checked)):
        assert list(hypotheses) == ["h1_pass", "h2_pass", "h3_pass", "violations", "grid"]
        assert list(hypotheses["grid"]) == ["s_max", "grid_n"]


def test_analyze_deterministic_output(capsys, high_config):
    _, first, _ = run_cli(capsys, "analyze", high_config)
    _, second, _ = run_cli(capsys, "analyze", high_config)
    assert first == second


def test_analyze_roundtrip_precision(capsys, high_config):
    _, out, _ = run_cli(capsys, "analyze", high_config)
    doc = json.loads(out)
    # every float is written as its shortest round-trip repr
    from sirskit import ModelParams, make_builtin, r0
    expected = r0(ModelParams(**{k: float(v) for k, v in REF_PARAMS.items()}),
                  make_builtin("power", {"k": 0.0008, "q": 2.0}))
    assert doc["r0"] == expected
    # an integral float keeps its ".0" and reads back as a float
    assert type(doc["params"]["Lambda"]) is float
    assert type(doc["dfe"]["S"]) is float


def test_simulate_csv_and_summary(capsys, high_config, tmp_path):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "simulate", high_config,
                           "--initial", "30,10,5", "--t-end", 500,
                           "--out", out_csv)
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,S,I,R"
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == 500.0
    assert abs(last[1] - 29.5804) < 1e-2
    assert abs(last[2] - 9.4244) < 1e-2
    assert abs(last[3] - 6.2830) < 1e-2
    summary = json.loads(out)
    assert summary["distance"] < 1e-2
    assert summary["steps"] > 0


def test_simulate_from_dfe_constant(capsys, high_config, tmp_path):
    out_csv = tmp_path / "flat.csv"
    code, _, _ = run_cli(capsys, "simulate", high_config,
                         "--initial", "50,0,0", "--out", out_csv)
    assert code == 0
    rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
    assert np.max(np.abs(rows[:, 1:] - np.array([50.0, 0.0, 0.0]))) < 1e-9


def test_simulate_solver_error_leaves_no_csv(capsys, tmp_path):
    # ruan fails (H3), so attractor raises after the trajectory is computed
    cfg = write_config(tmp_path, "ruan.json",
                       incidence={"family": "ruan",
                                  "coefficients": {"beta": 0.5, "rho": 1}})
    out_csv = tmp_path / "traj.csv"
    code, out, err = run_cli(capsys, "simulate", cfg, "--initial", "30,10,5",
                             "--out", out_csv)
    assert code == 3 and out == ""
    assert err.startswith("error: HypothesisViolationError: ")
    assert not out_csv.exists()


def test_sweep_lattice_2(capsys, low_config, high_config, tmp_path):
    for cfg, sub in ((low_config, "low"), (high_config, "high")):
        out_dir = tmp_path / sub
        code, out, _ = run_cli(capsys, "sweep", cfg, "--lattice", 2,
                               "--out", out_dir)
        assert code == 0
        doc = json.loads(out)
        assert doc["converged_fraction"] == 1.0
        assert (out_dir / "report.json").read_text() == out
        for run in doc["runs"]:
            assert run["converged"]
            assert (out_dir / run["csv"]).exists()


def test_sweep_deterministic(capsys, high_config, tmp_path):
    outputs = []
    for sub in ("first", "second"):
        code, out, _ = run_cli(capsys, "sweep", high_config, "--lattice", 4,
                               "--out", tmp_path / sub)
        assert code == 0
        csvs = sorted((tmp_path / sub).glob("run_*.csv"))
        outputs.append((out, [path.name for path in csvs],
                        [path.read_bytes() for path in csvs]))
    assert outputs[0] == outputs[1]
    runs = json.loads(outputs[0][0])["runs"]
    assert len(runs) == len(outputs[0][1]) == 10
    assert all(run["error"] is None for run in runs)


def test_sweep_failed_runs_get_no_csv(capsys, monkeypatch, high_config, tmp_path):
    # about 120 steps reach t = 500; a budget of 20 fails every run
    monkeypatch.setattr(simulate, "_MAX_STEPS", 20)
    out_dir = tmp_path / "failed"
    code, out, _ = run_cli(capsys, "sweep", high_config, "--lattice", 3, "--out", out_dir)
    assert code == 2
    runs = json.loads(out)["runs"]
    assert runs and all(run["csv"] is None for run in runs)
    assert all(run["error"] == f"BlowUpError: {simulate._EXHAUSTED}" for run in runs)
    assert not list(out_dir.glob("run_*.csv"))


def test_sweep_insufficient_time_exits_2(capsys, high_config, tmp_path):
    code, out, _ = run_cli(capsys, "sweep", high_config, "--lattice", 2,
                           "--t-end", 0.001, "--out", tmp_path / "short")
    assert code == 2
    assert json.loads(out)["converged_fraction"] < 1.0


# Each bad value is rejected by the function that uses it, a bad command
# line by the parser and an unwritable output path by the OS; the CLI
# turns each into one "error:" line and exit code 1.  ``solver``, when
# given, replaces the config's section.  ``out_path`` is the --out path
# under tmp_path, "out" when None; "taken/run_001.csv" is a directory, so
# sweep cannot write its second CSV there.
@pytest.mark.parametrize("command, flags, solver, named, out_path", [
    ("analyze", ["--grid-n", 0], None, "unrecognized arguments: --grid-n 0", None),
    ("analyze", ["--grid-n", 1], None, "unrecognized arguments: --grid-n 1", None),
    ("analyze", ["--k2", 100], None, "unrecognized arguments: --k2 100", None),
    ("analyze", ["--k1", 7], None, "unrecognized arguments: --k1 7", None),
    ("sweep", ["--conv-tol", -1], None, "unrecognized arguments: --conv-tol -1", None),
    ("sweep", ["--conv-tol", 0], None, "unrecognized arguments: --conv-tol 0", None),
    ("sweep", ["--conv-tol", "nan"], None, "unrecognized arguments: --conv-tol nan", None),
    ("sweep", ["--lattice", 1], None, "got 1", None),
    ("sweep", ["--lattice", "abc"], None, "invalid int value: 'abc'", None),
    ("sweep", ["--lattice", 2, "--t-end", "inf"], None,
     "t_end must be positive and finite, got inf", None),
    ("simulate", [], None, "the following arguments are required: --initial", None),
    ("simulate", ["--initial", "60,0,0"], None, "sums to 60 > Lambda/mu", None),
    ("simulate", ["--initial", "30,-1,5"], None, "got -1.0", None),
    ("simulate", ["--initial", "1,2"], None, "got '1,2'", None),
    ("simulate", ["--initial", "30,10,5", "--t-end", "inf"], None,
     "t_end must be positive and finite, got inf", None),
    ("simulate", ["--initial", "30,10,5"], {"step_or_tol": math.inf},
     "solver.step_or_tol and solver.t_end must be positive and finite", None),
    ("sweep", [], None, "File exists", "high.json"),
    ("simulate", ["--initial", "30,10,5"], None, "No such file or directory",
     "missing/traj.csv"),
    ("sweep", ["--lattice", 3], None, "1 of 1 CSV writer processes failed", "taken"),
], ids=["analyze-grid-0", "analyze-grid-1", "analyze-k2", "analyze-k1",
        "sweep-conv-tol-negative", "sweep-conv-tol-0",
        "sweep-conv-tol-nan", "sweep-lattice-1", "sweep-lattice-abc",
        "sweep-t-end-inf", "simulate-no-initial", "simulate-outside-omega",
        "simulate-negative", "simulate-two-values", "simulate-t-end-inf",
        "config-step-or-tol-inf", "sweep-out-is-a-file", "simulate-out-dir-missing",
        "sweep-csv-writer-fails"])
def test_invalid_input_exits_1(capsys, monkeypatch, high_config, tmp_path, command, flags,
                               solver, named, out_path):
    # two CSV writers, so that sweep's run_001.csv falls to a forked child
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    (tmp_path / "taken" / "run_001.csv").mkdir(parents=True)
    config = high_config if solver is None else write_config(tmp_path, solver=solver)
    out_flag = [] if command == "analyze" else ["--out", tmp_path / (out_path or "out")]
    code, out, err = run_cli(capsys, command, config, *flags, *out_flag)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and named in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, flags", [
    ("check", []), ("analyze", []), ("simulate", ["--initial", "0,0,0"]), ("sweep", []),
])
@pytest.mark.parametrize("Lambda, mu", [(1e300, 1e-10), (1e-320, 1.0)],
                         ids=["s0-inf", "s0-subnormal"])
def test_s0_outside_float_range_exits_1(capsys, tmp_path, command, flags, Lambda, mu):
    # S0 = inf, or an S0 whose absolute tolerance underflows to 0
    cfg = write_config(tmp_path, params={**REF_PARAMS, "Lambda": Lambda, "mu": mu})
    out_flag = [] if command in ("check", "analyze") else ["--out", tmp_path / "out"]
    code, out, err = run_cli(capsys, command, cfg, *flags, *out_flag)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "Lambda/mu" in err


# 50**200 overflows a float at the initial state.  Fixed steps fail later:
# from (30, 10, 5) the first step of 10 reaches S < 0, where S**2.5 is
# complex, and from (10, 30, 5) a stage of the first step of 100 overflows S**3.
_OVERFLOWING = {"family": "power", "coefficients": {"k": 1e-300, "q": 200}}
_OFF_THE_REALS = {"family": "power", "coefficients": {"k": 0.0008 / 50 ** 0.5, "q": 2.5}}
_CUBIC = {"family": "power", "coefficients": {"k": 0.0008 / 50, "q": 3}}


@pytest.mark.parametrize("command, flags, incidence, solver, error", [
    ("simulate", ["--initial", "45,1,1", "--t-end", 10], _OVERFLOWING, None, "OverflowError"),
    ("sweep", ["--lattice", 2], _OVERFLOWING, None, "OverflowError"),
    ("simulate", ["--initial", "30,10,5", "--t-end", 500], _OFF_THE_REALS,
     {"method": "rk4_fixed", "step_or_tol": 10}, "BlowUpError"),
    ("simulate", ["--initial", "10,30,5", "--t-end", 500], _CUBIC,
     {"method": "rk4_fixed", "step_or_tol": 100}, "BlowUpError"),
], ids=["simulate-flags0", "sweep-flags1", "simulate-rk4-off-the-reals",
        "simulate-rk4-stage-overflow"])
def test_overflowing_incidence_exits_3(capsys, tmp_path, command, flags, incidence, solver,
                                       error):
    extra = {} if solver is None else {"solver": solver}
    cfg = write_config(tmp_path, incidence=incidence, **extra)
    code, out, err = run_cli(capsys, command, cfg, *flags, "--out", tmp_path / "out")
    assert code == 3
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {error}: ")


def test_fixed_step_over_budget_exits_3_at_once(capsys, tmp_path):
    cfg = write_config(tmp_path, solver={"method": "rk4_fixed", "step_or_tol": 1e-4,
                                         "t_end": 600})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", cfg, "--initial", "30,10,5",
                             "--out", tmp_path / "out.csv")
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert err == ("error: BlowUpError: rk4_fixed needs 6000000 steps of 0.0001 to t = 600, "
                   "over the step budget of 5000000\n")


def test_reproduce(capsys, tmp_path):
    out_dir = tmp_path / "repro"
    code, out, _ = run_cli(capsys, "reproduce", "--out", out_dir)
    assert code == 0
    summary = json.loads(out)
    assert summary["all_pass"]
    by_name = {check["quantity"]: check for check in summary["checks"]}
    assert abs(by_name["r0_subcritical"]["observed"] - 0.7143) <= 1e-4
    assert abs(by_name["r0_supercritical"]["observed"] - 2.8571) <= 1e-4
    assert by_name["h_max"]["observed"] < 0.12
    for name in ("analysis_subcritical.json", "analysis_supercritical.json",
                 "trajectory_subcritical.csv", "trajectory_supercritical.csv",
                 "h_of_u.csv", "summary.json"):
        assert (out_dir / name).exists(), name
    h_lines = (out_dir / "h_of_u.csv").read_text().splitlines()
    assert h_lines[0] == "u,h"
    assert len(h_lines) == 502  # header + 501 samples
    h_values = np.array([float(line.split(",")[1]) for line in h_lines[1:]])
    u_values = np.array([float(line.split(",")[0]) for line in h_lines[1:]])
    assert u_values[0] == 0.0 and u_values[-1] == 50.0
    assert h_values.max() < 0.12
    assert summary["checks"] == json.loads((out_dir / "summary.json").read_text())["checks"]


def test_module_entry_point(capsys, tmp_path, high_config):
    # ``python -m sirskit`` goes through run(), which exits with main's code
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def module(*argv):
        return subprocess.run([sys.executable, "-m", "sirskit", *map(str, argv)],
                              capture_output=True, text=True, env=env, check=False)

    out_dir = tmp_path / "repro"
    ran = module("reproduce", "--out", out_dir)
    assert ran.returncode == 0, ran.stderr
    code, out, _ = run_cli(capsys, "reproduce", "--out", out_dir)
    assert code == 0
    assert ran.stdout == out
    refused = module("sweep", high_config, "--t-end", "inf", "--out", tmp_path / "sweep")
    assert refused.returncode == 1
    assert refused.stdout == ""
    assert refused.stderr == "error: t_end must be positive and finite, got inf\n"


def test_reproduce_deterministic(capsys, tmp_path):
    _, first, _ = run_cli(capsys, "reproduce", "--out", tmp_path / "a")
    _, second, _ = run_cli(capsys, "reproduce", "--out", tmp_path / "b")
    assert first == second
    assert (tmp_path / "a" / "analysis_supercritical.json").read_text() == \
        (tmp_path / "b" / "analysis_supercritical.json").read_text()
