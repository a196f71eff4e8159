"""The benchmark's tracer wraps ``sirskit`` functions by name from outside
``src``, and its workloads check each op's output; renaming or dropping one
of those functions, or breaking an output a check relies on, must fail
here, not only in a benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from sirskit import cli, config

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(monkeypatch, name):
    # read perfbench/ only: no bytecode cache is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(monkeypatch, tmp_path):
    tracing = load_perfbench(monkeypatch, "tracing")
    originals = [(owner, attr, owner.__dict__.get(attr))
                 for owner, attr, _, _ in tracing._TARGETS]
    config = tmp_path / "model.json"
    config.write_text(json.dumps({
        "params": {"Lambda": 10, "mu": 0.2, "gamma1": 0.2, "gamma2": 0.2,
                   "alpha": 0.1, "delta": 0.1},
        "incidence": {"family": "power", "coefficients": {"k": 0.0008, "q": 2}}}))

    tracer = tracing.Tracer()
    tracer.install(counting=True)
    try:
        with tracer.op(0):
            code = cli.main(["simulate", str(config), "--initial", "30,10,5",
                             "--t-end", "5", "--out", str(tmp_path / "traj.csv")])
    finally:
        tracer.uninstall()

    assert code == cli.EXIT_OK
    names = {span[0] for span in tracer.spans}
    assert {"op", "config.load_config", "simulate.integrate_rk45",
            "simulate.to_csv", "simulate.attractor"} <= names
    assert tracer.counts["simulate.steps"] > 0
    assert tracer.counts["simulate.integrate_rk45.eval_f.calls"] > 0
    for owner, attr, original in originals:
        assert owner.__dict__.get(attr) is original


@pytest.mark.parametrize("name", ["reference", "basin_sweep", "long_horizon", "certify_fine"])
def test_workload_cycle_passes_its_checks(monkeypatch, tmp_path, name):
    # one whole cycle of inputs, plus the first input again so that the
    # byte-determinism check compares two ops
    workloads = load_perfbench(monkeypatch, "workloads")
    workload = workloads.WORKLOADS[name](1, tmp_path)
    workload.prepare()
    for index in range(workload.cycle + 1):
        out = tmp_path / f"op-{index}"
        out.mkdir()
        workload.check(index, workload.run_op(index, out), out)


def test_large_population_probe_certifies(monkeypatch):
    # the benchmark's large-population probe: the certify_fine op and its
    # check on the reference model at population scale 1e6 (Lambda = 1e7)
    workloads = load_perfbench(monkeypatch, "workloads")
    cfg = config.parse_config(workloads.scaled_power_doc(1e6))
    hyp, eq, cert = workloads.certify_op(cfg, 801, 121)
    workloads.check_certificate("power", 1e6, cfg.params, hyp, eq, cert)
