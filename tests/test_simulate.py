import dataclasses
import math
import time

import numpy as np
import pytest

import sirskit.simulate as simulate_mod
from sirskit import (
    BlowUpError,
    ModelParams,
    State,
    attractor,
    conservation_check,
    dfe,
    from_callables,
    integrate,
    make_builtin,
    omega_lattice,
    sweep,
)

from conftest import FAMILY_INSTANCES, HYPOTHESIS_FAMILIES, REF

REFERENCE_ENDEMIC = np.array([29.5804, 9.4244, 6.2830])


def zero_incidence():
    return from_callables(lambda S, I: 0.0 * S * I, f1=lambda S, I: 0.0 * S,
                          label="zero")


def counted_zero_incidence():
    calls = [0]

    def f(S, I):
        calls[0] += 1
        return 0.0 * S * I

    return from_callables(f, f1=lambda S, I: 0.0 * S, label="zero"), calls


def test_subcritical_converges_to_dfe(ref_params, low_incidence):
    traj = integrate(ref_params, low_incidence, State(30, 10, 5), 500.0,
                     "rk45_adaptive", 1e-8)
    assert np.max(np.abs(traj.states[-1] - np.array([50.0, 0.0, 0.0]))) < 1e-2


def test_supercritical_converges_to_endemic(ref_params, high_incidence):
    traj = integrate(ref_params, high_incidence, State(30, 10, 5), 500.0,
                     "rk45_adaptive", 1e-8)
    assert np.max(np.abs(traj.states[-1] - REFERENCE_ENDEMIC)) < 1e-2


def test_dfe_initial_stays_constant(ref_params, high_incidence):
    traj = integrate(ref_params, high_incidence, dfe(ref_params), 200.0,
                     "rk45_adaptive", 1e-8)
    assert np.max(np.abs(traj.states - np.array([50.0, 0.0, 0.0]))) < 1e-9


def test_times_strictly_increasing_and_stats(ref_params, high_incidence):
    traj = integrate(ref_params, high_incidence, State(30, 10, 5), 100.0)
    assert np.all(np.diff(traj.times) > 0)
    assert traj.step_stats.steps == len(traj.times) - 1
    assert traj.step_stats.rejected >= 0
    assert traj.step_stats.max_error > 0


def test_omega_invariance_100_random_trajectories():
    # random initial conditions and incidence families, all runs must
    # stay in Omega (tol 1e-6) and keep N below max(N 0, S0)
    rng = np.random.default_rng(2024)
    p = ModelParams(**REF)
    families = list(HYPOTHESIS_FAMILIES)
    for run in range(100):
        weights = rng.dirichlet(np.ones(4))
        scale = rng.uniform(0.1, 1.0)
        s, i, rv = (scale * p.s0 * weights[:3]).tolist()
        x0 = State(s, i, rv)
        f = make_builtin(families[run % len(families)],
                         FAMILY_INSTANCES[families[run % len(families)]])
        traj = integrate(p, f, x0, 50.0, "rk45_adaptive", 1e-6)
        n_tot = traj.states.sum(axis=1)
        assert traj.states.min() >= -1e-6
        assert n_tot.max() <= max(n_tot[0], p.s0) + 1e-6


def test_rk4_order_four_on_linear_decay(ref_params):
    # with f == 0 the infected class decays exactly exponentially
    c = ref_params.infected_outflow
    errors = []
    for step in (0.2, 0.1):
        f, calls = counted_zero_incidence()
        traj = integrate(ref_params, f, State(30, 10, 5), 10.0, "rk4_fixed", step)
        exact = 10.0 * np.exp(-c * traj.times)
        errors.append(np.max(np.abs(traj.states[:, 1] - exact)))
        assert calls[0] <= 4 * traj.step_stats.steps + 1
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0


@pytest.mark.parametrize("t_end, step", [(500.0, 0.01), (2.0, 1e-4), (1.0, 0.3),
                                          (123.456, 0.007)])
def test_rk4_fixed_grid(ref_params, monkeypatch, t_end, step):
    # keep every step so the grid itself is visible
    monkeypatch.setattr(simulate_mod, "_MAX_STORED", 10**6)
    traj = integrate(ref_params, zero_incidence(), State(30, 10, 5), t_end,
                     "rk4_fixed", step)
    assert traj.step_stats.steps == math.ceil(t_end / step - 1e-12)
    assert len(traj.times) == traj.step_stats.steps + 1
    assert traj.times[-1] == t_end
    widths = np.diff(traj.times)
    assert np.all(np.abs(widths[:-1] - step) <= 4 * np.spacing(t_end))
    assert 0.0 < widths[-1] <= step + 4 * np.spacing(t_end)


@pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
def test_rk45_accuracy_and_work_on_linear_decay(ref_params, tol):
    # with f == 0, I(t) = 10 exp(-c t); a wrong Dormand-Prince weight
    # shows up here as an error far above tol or as extra evaluations
    f, calls = counted_zero_incidence()
    traj = integrate(ref_params, f, State(30, 10, 5), 10.0, "rk45_adaptive", tol)
    exact = 10.0 * np.exp(-ref_params.infected_outflow * traj.times)
    assert np.max(np.abs(traj.states[:, 1] - exact)) <= 10 * tol
    stats = traj.step_stats
    assert calls[0] == 6 * (stats.steps + stats.rejected) + 1
    # a 4th-order error estimate needs O(tol^(-1/5)) steps
    assert stats.steps + stats.rejected <= 4 * tol ** -0.2


def test_conservation_residual_small(ref_params, high_incidence):
    traj = integrate(ref_params, high_incidence, State(30, 10, 5), 50.0,
                     "rk4_fixed", 0.01)
    assert conservation_check(traj, ref_params) < 1e-3


def test_conservation_residual_order_two(ref_params, high_incidence):
    residuals = []
    for step in (0.02, 0.01):
        traj = integrate(ref_params, high_incidence, State(30, 10, 5), 50.0,
                         "rk4_fixed", step)
        residuals.append(conservation_check(traj, ref_params))
    ratio = residuals[0] / residuals[1]
    assert 3.0 <= ratio <= 5.0


def test_conservation_constant_trajectory(ref_params, high_incidence):
    traj = integrate(ref_params, high_incidence, dfe(ref_params), 20.0,
                     "rk4_fixed", 0.1)
    assert conservation_check(traj, ref_params) < 1e-12


def test_conservation_short_trajectory_is_zero(ref_params, high_incidence):
    traj = integrate(ref_params, high_incidence, State(30, 10, 5), 0.01,
                     "rk4_fixed", 0.01)
    assert conservation_check(traj, ref_params) == 0.0


def test_infected_eventually_decreasing_when_subcritical(ref_params, low_incidence):
    for x0 in (State(30, 10, 5), State(5, 40, 5), State(0, 50, 0)):
        traj = integrate(ref_params, low_incidence, x0, 500.0,
                         "rk45_adaptive", 1e-8)
        infected = traj.states[:, 1]
        assert infected[-1] < 1e-2
        # non-increasing tail, up to the integrator's own noise floor
        tail = infected[3 * len(infected) // 4:]
        assert np.all(np.diff(tail) <= 1e-8)


def test_downsampling_caps_points(ref_params, high_incidence):
    traj = integrate(ref_params, high_incidence, State(30, 10, 5), 2.0,
                     "rk4_fixed", 1e-4)
    assert len(traj.times) <= 10_000
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 2.0
    assert np.all(np.diff(traj.times) > 0)


def test_integrate_input_validation(ref_params, high_incidence):
    with pytest.raises(ValueError):
        integrate(ref_params, high_incidence, State(40, 20, 10), 10.0)  # sum > S0
    with pytest.raises(ValueError):
        integrate(ref_params, high_incidence, State(30, 10, 5), -1.0)
    with pytest.raises(ValueError):
        integrate(ref_params, high_incidence, State(30, 10, 5), 10.0, "euler", 0.1)
    with pytest.raises(ValueError):
        integrate(ref_params, high_incidence, State(30, 10, 5), 10.0,
                  "rk4_fixed", 0.0)


def test_attractor_selection(ref_params, low_incidence, high_incidence):
    assert attractor(ref_params, low_incidence) == dfe(ref_params)
    target = attractor(ref_params, high_incidence)
    assert np.max(np.abs(target.as_array() - REFERENCE_ENDEMIC)) < 1e-3


def test_sweep_eight_initials_both_regimes(ref_params, low_incidence, high_incidence):
    initials = [State(s, i, rv) for s in (10.0, 25.0)
                for i in (5.0, 15.0) for rv in (2.0, 10.0)]
    low = sweep(ref_params, low_incidence, initials, 500.0, 1e-2)
    assert low.converged_fraction == 1.0
    assert low.target == dfe(ref_params)
    high = sweep(ref_params, high_incidence, initials, 500.0, 1e-2)
    assert high.converged_fraction == 1.0
    assert np.max(np.abs(high.target.as_array() - REFERENCE_ENDEMIC)) < 1e-3


def test_sweep_from_target_distance_zero(ref_params, high_incidence):
    target = attractor(ref_params, high_incidence)
    report = sweep(ref_params, high_incidence, [target], 1.0, 1e-2)
    assert report.converged_fraction == 1.0
    assert report.runs[0].distance < 1e-6


def test_sweep_insufficient_time(ref_params, high_incidence):
    report = sweep(ref_params, high_incidence, [State(5.0, 40.0, 5.0)], 1e-3, 1e-2)
    assert report.converged_fraction < 1.0


def nan_patch_incidence(in_patch):
    """k*I*S**2 that is NaN where ``in_patch(S, I)``; f1 stays clean, so R0
    and the endemic equilibrium come out as for the reference model."""
    return from_callables(
        lambda S, I: np.where(in_patch(S, I), np.nan, 0.0008 * I * S ** 2),
        f1=lambda S, I: 0.0008 * S ** 2 + 0.0 * I, label="nan-patch")


def test_non_finite_incidence_fails_fast(ref_params):
    # A NaN stage used to be rejected forever: NaN > 1.0 is False, so the
    # step-size underflow check never fired and the run spun to _MAX_STEPS.
    f = nan_patch_incidence(lambda S, I: S < 29.7)
    start = time.perf_counter()
    with pytest.raises(BlowUpError, match="step size underflow at t = 0.5"):
        integrate(ref_params, f, State(30.0, 10.0, 5.0), 500.0, "rk45_adaptive", 1e-8)
    assert time.perf_counter() - start < 1.0


def test_sweep_records_failures_without_aborting(ref_params):
    # (30, 10, 5) crosses the patch near t = 0.56; (30, 5, 5) never enters it.
    f = nan_patch_incidence(lambda S, I: (S < 29.7) & (I > 9.9))
    failing, converging = State(30.0, 10.0, 5.0), State(30.0, 5.0, 5.0)
    with pytest.raises(BlowUpError) as scalar:
        integrate(ref_params, f, failing, 500.0, "rk45_adaptive", 1e-8)
    report = sweep(ref_params, f, [failing, converging], 500.0, 1e-2)
    assert math.isinf(report.runs[0].distance)
    assert report.runs[0].final is None and report.runs[0].trajectory is None
    assert report.runs[0].error == f"BlowUpError: {scalar.value}"
    assert report.runs[1].error is None
    assert report.runs[1].distance < 1e-2
    assert report.converged_fraction == 0.5
    runs = report.as_dict()["runs"]
    assert [run["error"] for run in runs] == [report.runs[0].error, None]
    assert [run["distance"] for run in runs] == [None, report.runs[1].distance]


@pytest.mark.parametrize("k, initials", [
    (0.0002, "lattice"), (0.0008, "lattice"), (0.0008, "target"),
    (0.0008, [State(30.0, 10.0, 5.0)]), (0.0008, []),
], ids=["lattice6-subcritical", "lattice6-supercritical", "target", "single", "empty"])
def test_batched_sweep_matches_integrate(ref_params, k, initials):
    f = make_builtin("power", {"k": k, "q": 2.0})
    target = attractor(ref_params, f)
    if initials == "lattice":
        initials = omega_lattice(ref_params, 6, include_i_zero=(target.I == 0.0))
    elif initials == "target":
        initials = [target]
    report = sweep(ref_params, f, initials, 500.0, 1e-2)
    assert [run.initial for run in report.runs] == initials
    for run in report.runs:
        alone = integrate(ref_params, f, run.initial, 500.0, "rk45_adaptive", 1e-8)
        traj = run.trajectory
        assert run.error is None
        assert traj.step_stats[:2] == alone.step_stats[:2]
        assert len(traj.times) == len(alone.times)
        assert traj.times[0] == 0.0 and traj.times[-1] == 500.0
        assert tuple(traj.states[0]) == (run.initial.S, run.initial.I, run.initial.R)
        assert np.max(np.abs(traj.states - alone.states)) <= 1e-7
        assert np.max(np.abs(traj.times - alone.times)) <= 1e-6 * 500.0


@pytest.mark.parametrize("k", [0.0002, 0.0008], ids=["subcritical", "supercritical"])
def test_sweep_integrates_once(ref_params, k):
    f = make_builtin("power", {"k": k, "q": 2.0})
    initials = omega_lattice(ref_params, 6, include_i_zero=(attractor(ref_params, f).I == 0.0))
    points = [0]

    def counted(S, I):
        points[0] += max(np.size(S), np.size(I))
        return f.eval_f(S, I)

    report = sweep(ref_params, dataclasses.replace(f, eval_f=counted), initials, 500.0, 1e-2)
    # one stage evaluation to start each run and six per attempted step,
    # plus the attractor's residual check
    once = sum(6 * (run.trajectory.step_stats.steps + run.trajectory.step_stats.rejected) + 1
               for run in report.runs)
    assert points[0] <= once + 1


def test_omega_lattice(ref_params):
    assert len(omega_lattice(ref_params, 2)) == 4
    assert len(omega_lattice(ref_params, 2, include_i_zero=False)) == 1
    for point in omega_lattice(ref_params, 5):
        assert point.S + point.I + point.R <= ref_params.s0
    assert all(point.I > 0
               for point in omega_lattice(ref_params, 5, include_i_zero=False))
    with pytest.raises(ValueError):
        omega_lattice(ref_params, 1)


@pytest.mark.parametrize("include_i_zero", [True, False])
@pytest.mark.parametrize("n", [2, 5, 16])
def test_omega_lattice_matches_triple_loop(ref_params, n, include_i_zero):
    axis = np.linspace(0.0, ref_params.s0, n)
    expected = [State(float(s), float(i), float(r))
                for s in axis for i in axis for r in axis
                if (include_i_zero or i > 0.0) and s + i + r <= ref_params.s0]
    assert omega_lattice(ref_params, n, include_i_zero) == expected


def test_trajectory_csv_format(tmp_path, ref_params, high_incidence):
    traj = integrate(ref_params, high_incidence, State(30, 10, 5), 1.0,
                     "rk4_fixed", 0.5)
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,S,I,R"
    assert len(lines) == len(traj.times) + 1
    first = [float(v) for v in lines[1].split(",")]
    assert first == [0.0, 30.0, 10.0, 5.0]
    assert not lines[-1].endswith(",")
