"""End-to-end acceptance suite.

Each test covers one numbered criterion at its stated tolerance and
prints a single pass/fail line (visible with ``pytest -s``; the -v
test listing carries the same information).
"""

import json
import time

import numpy as np
import pytest

from sirskit import (
    ModelParams,
    State,
    check_a1,
    check_a2,
    check_hypotheses,
    check_incidence_bound,
    default_k2,
    dfe_lyapunov_bound,
    dvdt_scan,
    find_endemic,
    find_k1,
    from_callables,
    integrate,
    make_builtin,
    pq_matrices,
    sweep,
    verify_equilibrium,
)
from sirskit.cli import main
from sirskit.simulate import conservation_check

from conftest import FAMILY_INSTANCES, HYPOTHESIS_FAMILIES, REF

REFERENCE_ENDEMIC = np.array([29.5804, 9.4244, 6.2830])


def _report(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture
def configs(tmp_path):
    paths = {}
    for name, k in (("low", 0.0002), ("high", 0.0008)):
        doc = {"params": dict(REF),
               "incidence": {"family": "power", "coefficients": {"k": k, "q": 2}}}
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc))
    return paths


def test_criterion_1_r0_reproduction(configs, capsys):
    start = time.perf_counter()
    observed = {}
    for name in ("low", "high"):
        code = main(["analyze", str(configs[name])])
        out = capsys.readouterr().out
        assert code == 0
        observed[name] = json.loads(out)["r0"]
    elapsed = time.perf_counter() - start
    ok = (abs(observed["low"] - 0.7143) <= 1e-4
          and abs(observed["high"] - 2.8571) <= 1e-4
          and elapsed < 1.0)
    _report("1 (R0 reproduction)", ok)


def test_criterion_2_endemic_equilibrium():
    p = ModelParams(**REF)
    f = make_builtin("power", {"k": 0.0008, "q": 2.0})
    start = time.perf_counter()
    report = find_endemic(p, f)
    elapsed = time.perf_counter() - start
    assert len(report.endemic) == 1
    state, _ = report.endemic[0]
    gap = np.max(np.abs(state.as_array() - REFERENCE_ENDEMIC))
    residual = verify_equilibrium(p, f, state)
    ok = gap <= 1e-3 and residual < 1e-8 and elapsed < 1.0
    _report("2 (endemic equilibrium)", ok)


def test_criterion_3_certificate_reproduction():
    p = ModelParams(**REF)
    f = make_builtin("power", {"k": 0.0008, "q": 2.0})
    start = time.perf_counter()
    eq = find_endemic(p, f).endemic[0][0]

    a1 = check_a1(p)
    left = (2 * p.mu + p.alpha) * (p.mu + p.delta)
    right = p.mu * p.gamma2
    assert a1.passed
    assert left == pytest.approx(0.15, abs=1e-12)
    assert right == pytest.approx(0.04, abs=1e-12)

    scan = check_a2(p, f, eq, 7.0, grid_n=201)
    assert scan.passed and scan.sup_h < 0.12

    # brute-force confirmation of the derived supremum at 1e5 points
    u = np.linspace(0.0, 50.0, 100001)
    u = u[np.abs(u - eq.S) > 1e-6]
    f1_star = f.eval_f1(eq.S, eq.I)
    brute = np.max((0.5 - 7.0 * (f.eval_f1(u, eq.I) - f1_star) / (u - eq.S)) ** 2)
    assert scan.sup_h == pytest.approx(float(brute), rel=1e-9)
    assert scan.sup_h == pytest.approx(0.1118, abs=1e-4)

    k2 = default_k2(p)
    assert k2 == pytest.approx(2.5, rel=1e-15)
    _, _, minors = pq_matrices(p, f, eq, 7.0, k2, scan.worst_point)
    assert minors[1] == pytest.approx(0.055, abs=1e-12)
    elapsed = time.perf_counter() - start
    _report("3 (certificate reproduction)", elapsed < 5.0)


def test_criterion_4_global_stability_sweeps(configs, capsys, tmp_path):
    p = ModelParams(**REF)
    f_low = make_builtin("power", {"k": 0.0002, "q": 2.0})
    f_high = make_builtin("power", {"k": 0.0008, "q": 2.0})
    start = time.perf_counter()

    # eight lattice initials inside Omega
    initials = [State(s, i, rv) for s in (10.0, 25.0)
                for i in (5.0, 15.0) for rv in (2.0, 10.0)]
    low = sweep(p, f_low, initials, 500.0, 1e-2)
    high = sweep(p, f_high, initials, 500.0, 1e-2)
    assert low.converged_fraction == 1.0
    assert np.max(np.abs(low.target.as_array() - np.array([50.0, 0.0, 0.0]))) == 0.0
    assert high.converged_fraction == 1.0
    assert np.max(np.abs(high.target.as_array() - REFERENCE_ENDEMIC)) < 1e-3

    # same statement through the CLI with an 8-per-axis candidate lattice
    for name in ("low", "high"):
        code = main(["sweep", str(configs[name]), "--lattice", "8",
                     "--t-end", "500", "--out", str(tmp_path / f"sweep_{name}")])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["converged_fraction"] == 1.0

    elapsed = time.perf_counter() - start
    _report("4 (global-stability sweeps)", elapsed < 30.0)


def test_criterion_5_property_suites():
    p = ModelParams(**REF)
    f_low = make_builtin("power", {"k": 0.0002, "q": 2.0})
    f_high = make_builtin("power", {"k": 0.0008, "q": 2.0})

    # Omega invariance and non-negativity on 100 random trajectories
    rng = np.random.default_rng(99)
    families = list(HYPOTHESIS_FAMILIES)
    for run in range(100):
        weights = rng.dirichlet(np.ones(4))
        s, i, rv = (rng.uniform(0.1, 1.0) * p.s0 * weights[:3]).tolist()
        f = make_builtin(families[run % 4], FAMILY_INSTANCES[families[run % 4]])
        traj = integrate(p, f, State(s, i, rv), 50.0, "rk45_adaptive", 1e-6)
        assert traj.states.min() >= -1e-6
        assert traj.states.sum(axis=1).max() <= \
            max(traj.states[0].sum(), p.s0) + 1e-6

    # incidence bound on a 100 x 100 grid for every family passing the
    # structural hypotheses
    for family in HYPOTHESIS_FAMILIES:
        f = make_builtin(family, FAMILY_INSTANCES[family])
        assert check_hypotheses(f, p.s0, grid_n=16).all_pass
        passed, slack = check_incidence_bound(f, p.Lambda, p.mu, grid_n=100)
        assert passed, f"{family}: {slack}"

    # dI/dt <= outflow*(R0 - 1)*I grid check, both regimes
    assert dfe_lyapunov_bound(p, f_low) <= 1e-10
    assert dfe_lyapunov_bound(p, f_high) <= 1e-10

    # product form vs expanded form of the rate inequality, 1000 draws
    rng = np.random.default_rng(5)
    for _ in range(1000):
        q = ModelParams(Lambda=rng.uniform(0.5, 50), mu=rng.uniform(0.01, 2),
                        gamma1=rng.uniform(0, 2), gamma2=rng.uniform(0, 2),
                        alpha=rng.uniform(0, 2), delta=rng.uniform(0, 2))
        result = check_a1(q)
        assert result.margin == pytest.approx(result.remark_value,
                                              rel=1e-12, abs=1e-12)

    # negative dV/dt maximum whenever the coupling bound passes
    eq = find_endemic(p, f_high).endemic[0][0]
    for k1 in (7.0, find_k1(p, f_high, eq)):
        assert check_a2(p, f_high, eq, k1).passed
        assert dvdt_scan(p, f_high, eq, k1, 2.5, grid_n=21) < 0.0

    # integrator convergence orders
    f_zero = from_callables(lambda S, I: 0.0 * S * I, f1=lambda S, I: 0.0 * S)
    errors = []
    for step in (0.2, 0.1):
        traj = integrate(p, f_zero, State(30, 10, 5), 10.0, "rk4_fixed", step)
        exact = 10.0 * np.exp(-p.infected_outflow * traj.times)
        errors.append(np.max(np.abs(traj.states[:, 1] - exact)))
    assert 12.0 <= errors[0] / errors[1] <= 20.0

    residuals = [conservation_check(
        integrate(p, f_high, State(30, 10, 5), 50.0, "rk4_fixed", step),
        p) for step in (0.02, 0.01)]
    assert 3.0 <= residuals[0] / residuals[1] <= 5.0

    _report("5 (property suites)", True)


def test_criterion_6_negative_controls():
    p = ModelParams(**REF)

    ruan = make_builtin("ruan", {"beta": 0.5, "rho": 1.0})
    assert not check_hypotheses(ruan, p.s0).h3_pass

    f_high = make_builtin("power", {"k": 0.0008, "q": 2.0})
    eq = find_endemic(p, f_high).endemic[0][0]
    assert not check_a2(p, f_high, eq, 0.0).passed

    f_sat = make_builtin("saturated_in_I", {"beta": 0.03, "a": 0.5})
    eq_sat = find_endemic(p, f_sat).endemic[0][0]
    assert check_a2(p, f_sat, eq_sat, 1.0).divergence_flag

    _report("6 (negative controls)", True)
