import dataclasses
import functools
import inspect
import math
import os
import signal
import time
import traceback

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sirskit.simulate as simulate_mod
from sirskit import (
    BlowUpError,
    ModelParams,
    State,
    Trajectory,
    attractor,
    conservation_check,
    dfe,
    from_callables,
    integrate,
    make_builtin,
    omega_lattice,
    sweep,
)
from sirskit.incidence import _FAMILIES, formula
from sirskit.model import EQUATIONS, RATES, make_rhs, rates

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
    # At t_end = 2e5 the first step, t_end/1000, puts a trial stage where
    # ``S ** q`` overflows; that step must be rejected, not abort the run.
    for t_end in (500.0, 2e5):
        traj = integrate(ref_params, high_incidence, State(30, 10, 5), t_end,
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
        assert calls[0] == 4 * traj.step_stats.steps + 1
    ratio = errors[0] / errors[1]
    assert 12.0 <= ratio <= 20.0


def bilinear_rhs():
    """The reference model's right-hand side with bilinear incidence, which
    only multiplies and adds, so floats and arrays round alike."""
    return make_rhs(ModelParams(**REF), make_builtin("bilinear", {"beta": 0.04}))


def looped_sum(y, h, weights, ks):
    """y + h*(a0*k0 + a1*k1 + ...), summed from 0.0 over the nonzero
    weights in stage order."""
    d = (0.0, 0.0, 0.0)
    for a, k in zip(weights, ks):
        if a:
            d = tuple(dc + a * kc for dc, kc in zip(d, k))
    return tuple(yc + h * dc for yc, dc in zip(y, d))


state_component = st.floats(0.0, 50.0)
step_size = st.floats(1e-6, 2.0)


@pytest.mark.parametrize("method", sorted(simulate_mod.METHODS))
@given(y=st.tuples(state_component, state_component, state_component), h=step_size)
@settings(max_examples=40, deadline=None)
def test_stages_float_and_array_bit_identical(method, y, h):
    # The batch's stage function gives the same bits on floats and on
    # arrays, and one step of the compiled scalar loop, with the incidence
    # inline, gives the same new state and error.
    rhs = bilinear_rhs()
    stages = simulate_mod._stages(method)
    y_new, k_new, err = stages(rhs, y, h, rhs(*y))
    rows = tuple(np.array([v]) for v in y)
    a_new, ak_new, a_err = stages(rhs, rows, np.array([h]), rhs(*rows))
    floats = (*y_new, *k_new, *(err or ()))
    arrays = (*a_new, *ak_new, *(a_err or ()))
    assert [float(v[0]).hex() for v in arrays] == [v.hex() for v in floats]
    assert (err is None) == (simulate_mod.METHODS[method][1] is None)
    f_text, coefficients = formula(make_builtin("bilinear", {"beta": 0.04}).eval_f)
    loop = simulate_mod._compile(method, f_text, tuple(coefficients))
    # an infinite tolerance accepts the step; these bounds leave every state as it is
    control = (h, 1) if err is None else (math.inf, math.inf, h, h, h, 1)
    history, stats = loop(y, h, control, (0.0, -math.inf, math.inf),
                          **rates(ModelParams(**REF)), **coefficients)
    assert [v.hex() for v in history[4:]] == [v.hex() for v in (h, *y_new)]
    assert stats.max_error.hex() == max((0.0, *map(abs, err or ()))).hex()


@pytest.mark.parametrize("method", sorted(simulate_mod.METHODS))
@given(y=st.tuples(state_component, state_component, state_component), h=step_size)
@settings(max_examples=40, deadline=None)
def test_stages_match_tableau(method, y, h):
    # Every stage input, the new solution and the error estimate are
    # y + h*A^T k over the stage's own derivatives k: equal to the sum
    # looped over the weights in stage order, and to NumPy's sum within a
    # few ulps of the sum of the terms' magnitudes.
    rows, error = simulate_mod.METHODS[method]
    rhs = bilinear_rhs()
    inputs, outputs = [], []

    def recording(s, i, r):
        inputs.append((s, i, r))
        outputs.append(rhs(s, i, r))
        return outputs[-1]

    k0 = rhs(*y)
    y_new, k_new, err = simulate_mod._stages(method)(recording, y, h, k0)
    assert len(inputs) == len(rows)
    assert inputs[-1] == y_new and outputs[-1] is k_new
    ks = np.array([k0, *outputs])
    y_arr, eps = np.array(y), np.finfo(float).eps
    for row, stage in zip(rows, inputs):
        assert stage == looped_sum(y, h, row, ks.tolist())
        weights = np.array(row)
        scale = np.abs(y_arr) + h * (np.abs(weights) @ np.abs(ks[:len(row)]))
        expected = y_arr + h * (weights @ ks[:len(row)])
        assert np.all(np.abs(np.array(stage) - expected) <= 16 * eps * scale)
    if error is None:
        assert err is None
    else:
        assert err == looped_sum((0.0, 0.0, 0.0), h, error, ks.tolist())
        scale = h * (np.abs(error) @ np.abs(ks))
        assert np.all(np.abs(np.array(err) - h * (np.array(error) @ ks)) <= 16 * eps * scale)


S0 = ModelParams(**REF).s0
TOP = simulate_mod._bounds(ModelParams(**REF))[2]
near_zero = st.one_of(st.just(-0.0), st.floats(0.0, 2e-13 * S0))


@given(y=st.tuples(near_zero, near_zero, near_zero), big=st.floats(S0 * (1 - 1e-12), TOP),
       at=st.sampled_from([None, 0, 1, 2]))
@settings(max_examples=200, deadline=None)
def test_fast_accept_leaves_postprocess_nothing_to_do(y, big, at):
    # _run accepts a trial state without _postprocess when ``fast`` holds
    if at is not None:
        y = y[:at] + (big,) + y[at + 1:]
    s, i, r = y
    fast = 0.0 <= s and 0.0 <= i and 0.0 <= r and s + i + r <= TOP
    assume(fast)
    kept = simulate_mod._postprocess(y, 1.0, *simulate_mod._bounds(ModelParams(**REF)))
    assert [v.hex() for v in kept] == [v.hex() for v in y]


# Valid coefficients of every built-in family, q not only an integer.
FAMILY_COEFFICIENTS = {
    "bilinear": st.fixed_dictionaries({"beta": st.floats(1e-3, 0.1)}),
    "power": st.fixed_dictionaries({"k": st.floats(1e-5, 2e-3), "q": st.floats(0.5, 3.0)}),
    "saturated_in_I": st.fixed_dictionaries({"beta": st.floats(1e-3, 0.1),
                                             "a": st.floats(0.0, 2.0)}),
    "psi_ratio": st.fixed_dictionaries({"beta": st.floats(1e-3, 0.1), "a": st.floats(0.0, 2.0),
                                        "b": st.floats(0.0, 1.0)}),
    "ruan": st.fixed_dictionaries({"beta": st.floats(1e-4, 1e-2), "rho": st.floats(0.0, 1.0)}),
}
incidences = st.sampled_from(sorted(FAMILY_COEFFICIENTS)).flatmap(
    lambda family: FAMILY_COEFFICIENTS[family].map(lambda c: make_builtin(family, c)))


@st.composite
def omega_states(draw):
    s = draw(st.floats(0.0, S0))
    i = draw(st.floats(0.0, S0 - s))
    r = draw(st.floats(0.0, S0 - s - i))
    assume(s + i + r <= S0)
    return State(s, i, r)


def called(f):
    """``f`` with an ``eval_f`` that calls the family's own, so the
    integrator cannot inline it."""
    return dataclasses.replace(f, eval_f=lambda S, I: f.eval_f(S, I))


def bits(traj):
    return traj.times.tobytes(), traj.states.tobytes(), tuple(map(repr, traj.step_stats))


def outcome(run):
    """What ``run()`` returns, as ``bits`` of each trajectory, or the error
    it raises."""
    try:
        result = run()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(result, Trajectory):
        return bits(result)
    return result.as_dict(), [run.trajectory and bits(run.trajectory) for run in result.runs]


@pytest.mark.parametrize("method, step_or_tol, t_end", [
    ("rk4_fixed", st.sampled_from([0.05, 0.5, 2.0]), 20.0),
    ("rk45_adaptive", st.sampled_from([1e-6, 1e-8]), 50.0),
])
@given(data=st.data(), f=incidences, x0=omega_states())
@settings(max_examples=60, deadline=None)
def test_inline_incidence_bit_identical_to_called(method, step_or_tol, t_end, data, f, x0):
    # The loop inlines a family's own eval_f and calls any other; both
    # must step the same bits.  Every family's coefficient names, k among
    # them, meet the loop's own names here.
    p = ModelParams(**REF)
    h = data.draw(step_or_tol)
    assert formula(f.eval_f) is not None and formula(called(f).eval_f) is None
    inline = outcome(lambda: integrate(p, f, x0, t_end, method, h))
    assert inline == outcome(lambda: integrate(p, called(f), x0, t_end, method, h))


@given(f=incidences)
@settings(max_examples=20, deadline=None)
def test_sweep_inline_incidence_bit_identical_to_called(f):
    p = ModelParams(**REF)
    initials = omega_lattice(p, 4)
    inline = outcome(lambda: sweep(p, f, initials, 20.0, 0.5))
    assert inline == outcome(lambda: sweep(p, called(f), initials, 20.0, 0.5))


@pytest.mark.parametrize("wrap", ["replace", "from_callables", "wraps"])
@pytest.mark.parametrize("method, step_or_tol", [("rk4_fixed", 0.05), ("rk45_adaptive", 1e-8)])
def test_called_incidence_evaluated_once_per_stage(ref_params, high_incidence, wrap, method,
                                                   step_or_tol):
    calls = [0]

    def counted(S, I):
        calls[0] += 1
        return high_incidence.eval_f(S, I)

    if wrap == "wraps":  # copies the built function's attributes, but is not it
        counted = functools.wraps(high_incidence.eval_f)(counted)
    f = (from_callables(counted) if wrap == "from_callables"
         else dataclasses.replace(high_incidence, eval_f=counted))
    traj = integrate(ref_params, f, State(30, 10, 5), 50.0, method, step_or_tol)
    stats = traj.step_stats
    stages = 4 * stats.steps if method == "rk4_fixed" else 6 * (stats.steps + stats.rejected)
    assert calls[0] == stages + 1
    inline = integrate(ref_params, high_incidence, State(30, 10, 5), 50.0, method, step_or_tol)
    assert traj.states.tobytes() == inline.states.tobytes()


@pytest.mark.parametrize("method", sorted(simulate_mod.METHODS))
def test_power_models_share_one_compiled_loop(method):
    # Coefficients and rates enter the loop as values: two power models
    # with different k and population scale reuse one code object, and
    # neither's values are in its constants or its source.
    loops, values = [], []
    for scale in (1.0, 1e3):
        k = 0.0008 / math.sqrt(50.0) / scale ** 2.5
        p = ModelParams(**{**REF, "Lambda": REF["Lambda"] * scale})
        f = make_builtin("power", {"k": k, "q": 2.5})
        f_text, coefficients = formula(f.eval_f)
        assert coefficients == {"k": k, "q": 2.5}
        integrate(p, f, State(0.6 * p.s0, 0.2 * p.s0, 0.1 * p.s0), 10.0, method,
                  0.1 if method == "rk4_fixed" else 1e-8)
        if not loops:
            misses = simulate_mod._compile.cache_info().misses
        loops.append(simulate_mod._compile(method, f_text, tuple(coefficients)))
        values += [k, p.Lambda, p.s0]
    assert simulate_mod._compile.cache_info().misses == misses
    assert loops[0] is loops[1]
    source = inspect.getsource(loops[0])
    assert "fv = k * I * S ** q" in source
    for value in values + [2.5]:
        assert value not in loops[0].__code__.co_consts
        assert repr(value) not in source


_INCIDENCE_TEXTS = sorted({text for family in _FAMILIES.values() for text in family[:2]}
                          | {simulate_mod._CALL})


@pytest.mark.parametrize("f_text", _INCIDENCE_TEXTS)
@pytest.mark.parametrize("method", sorted(simulate_mod.METHODS))
def test_loop_source_writes_each_text_verbatim(method, f_text):
    # f and every equation appear as written, once per stage, once in the
    # head and once where a clamped state is re-evaluated
    n = len(simulate_mod.METHODS[method][0])
    lines = [line.strip() for line in simulate_mod._loop_source(method, f_text, ()).splitlines()]
    assert lines.count(f"fv = {f_text}") == n + 2
    for c, eq in zip("sir", EQUATIONS):
        assert lines.count(f"k0{c} = {eq}") == 2
        for m in range(1, n + 1):
            assert lines.count(f"k{m}{c} = {eq}") == 1


def _clashes(method, names):
    """The coefficient ``names`` that a rate or a name of the loop itself
    would shadow or be shadowed by."""
    code = simulate_mod._compile(method, "S * I", ()).__code__
    return set(names) & {*RATES, *code.co_varnames, *code.co_names}


# every family's f text and coefficient names, and the called incidence's
_COEFFICIENT_NAMES = {**{family: (f_text, positive + nonneg)
                         for family, (f_text, _, positive, nonneg, _) in _FAMILIES.items()},
                      "called": (simulate_mod._CALL, ("eval_f",))}


@pytest.mark.parametrize("f_text, names", _COEFFICIENT_NAMES.values(), ids=_COEFFICIENT_NAMES)
@pytest.mark.parametrize("method", sorted(simulate_mod.METHODS))
def test_coefficient_names_cannot_clash(method, f_text, names):
    # the texts enter the loop verbatim, so nothing but their names keeps a
    # coefficient apart from the rates and the loop's own locals and globals
    assert _clashes(method, names) == set()
    assert _clashes(method, ("h", *names)) == {"h"}
    loop = simulate_mod._compile(method, f_text, names)
    assert loop.__code__.co_varnames[4:4 + len(RATES) + len(names)] == (*RATES, *names)


def test_compiled_loop_lines_in_tracebacks(ref_params):
    def broken(S, I):
        raise ZeroDivisionError("broken incidence")

    with pytest.raises(ZeroDivisionError) as raised:
        integrate(ref_params, from_callables(broken), State(30, 10, 5), 1.0, "rk4_fixed", 0.1)
    assert "fv = eval_f(S, I)" in "".join(traceback.format_tb(raised.tb))


def test_adaptive_step_budget(ref_params, high_incidence, monkeypatch):
    # about 120 steps reach t = 500; a budget of 20 stops both engines
    monkeypatch.setattr(simulate_mod, "_MAX_STEPS", 20)
    with pytest.raises(BlowUpError, match="step budget exhausted"):
        integrate(ref_params, high_incidence, State(30, 10, 5), 500.0)
    report = sweep(ref_params, high_incidence, [State(30, 10, 5)], 500.0, 1e-2)
    assert report.runs[0].error == f"BlowUpError: {simulate_mod._EXHAUSTED}"


def test_fixed_step_over_budget_fails_before_stepping(ref_params, high_incidence, monkeypatch):
    start = time.perf_counter()
    with pytest.raises(BlowUpError, match="rk4_fixed needs 6000000 steps of 0.0001 to "
                                          "t = 600, over the step budget of 5000000"):
        integrate(ref_params, high_incidence, State(30, 10, 5), 600.0, "rk4_fixed", 1e-4)
    assert time.perf_counter() - start < 0.5
    # the budget itself is still allowed
    monkeypatch.setattr(simulate_mod, "_MAX_STEPS", 100)
    traj = integrate(ref_params, high_incidence, State(30, 10, 5), 1.0, "rk4_fixed", 0.01)
    assert traj.step_stats.steps == 100
    with pytest.raises(BlowUpError, match="needs 101 steps"):
        integrate(ref_params, high_incidence, State(30, 10, 5), 1.01, "rk4_fixed", 0.01)


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


# q = 2.5 with k = 0.0008/sqrt(50) keeps R0 at the reference value; to
# t_end = 1e4 trial stages leave Omega, where ``S ** q`` turns complex (the
# scalar loop) or nan (the batch), and both must reject the same steps.
@pytest.mark.parametrize("k, q, t_end, initials", [
    (0.0002, 2.0, 500.0, "lattice"), (0.0008, 2.0, 500.0, "lattice"),
    (0.0008, 2.0, 500.0, "target"), (0.0008, 2.0, 500.0, [State(30.0, 10.0, 5.0)]),
    (0.0008, 2.0, 500.0, []),
    (0.0008 / math.sqrt(50.0), 2.5, 1e4, [State(30.0, 10.0, 5.0)]),
], ids=["lattice6-subcritical", "lattice6-supercritical", "target", "single", "empty",
        "off-the-reals"])
def test_batched_sweep_matches_integrate(ref_params, k, q, t_end, initials):
    f = make_builtin("power", {"k": k, "q": q})
    target = attractor(ref_params, f)
    if initials == "lattice":
        initials = omega_lattice(ref_params, 6, include_i_zero=(target.I == 0.0))
    elif initials == "target":
        initials = [target]
    report = sweep(ref_params, f, initials, t_end, 1e-2)
    assert [run.initial for run in report.runs] == initials
    for run in report.runs:
        alone = integrate(ref_params, f, run.initial, t_end, "rk45_adaptive", 1e-8)
        traj = run.trajectory
        assert run.error is None
        assert traj.step_stats[:2] == alone.step_stats[:2]
        assert len(traj.times) == len(alone.times)
        assert traj.times[0] == 0.0 and traj.times[-1] == t_end
        assert tuple(traj.states[0]) == (run.initial.S, run.initial.I, run.initial.R)
        assert np.max(np.abs(traj.states - alone.states)) <= 1e-7
        assert np.max(np.abs(traj.times - alone.times)) <= 1e-6 * t_end


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


def _csv_jobs(ref_params, high_incidence, directory, count):
    directory.mkdir()
    initials = omega_lattice(ref_params, 4, include_i_zero=False)[:count]
    return [(directory / f"run_{index:03d}.csv",
             integrate(ref_params, high_incidence, initial, 5.0, "rk45_adaptive", 1e-8))
            for index, initial in enumerate(initials)]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [2, 3])
def test_write_trajectories_matches_serial_to_csv(tmp_path, monkeypatch, ref_params,
                                                  high_incidence, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    jobs = _csv_jobs(ref_params, high_incidence, tmp_path / "forked", 2 * cpus + 1)
    simulate_mod.write_trajectories(jobs)
    _assert_no_child_left()
    for path, traj in jobs:
        serial = tmp_path / "serial.csv"
        traj.to_csv(serial)
        assert path.read_bytes() == serial.read_bytes()


def test_write_trajectories_one_cpu_does_not_fork(tmp_path, monkeypatch, ref_params,
                                                  high_incidence):
    def no_fork():
        raise AssertionError("forked with one usable CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    jobs = _csv_jobs(ref_params, high_incidence, tmp_path / "out", 3)
    simulate_mod.write_trajectories(jobs)
    assert all(path.read_text().startswith("t,S,I,R\n") for path, _ in jobs)
    _assert_no_child_left()


@pytest.mark.parametrize("failing, raised", [
    (1, "1 of 1 CSV writer processes failed"),
    (0, "No such file or directory"),
], ids=["child", "parent"])
def test_write_trajectories_failure_raises_and_reaps(tmp_path, monkeypatch, ref_params,
                                                     high_incidence, failing, raised):
    # With two writers, job 1 falls to the forked child and job 0 to the caller.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    jobs = _csv_jobs(ref_params, high_incidence, tmp_path / "out", 4)
    jobs[failing] = (tmp_path / "missing" / "run.csv", jobs[failing][1])
    with pytest.raises(OSError, match=raised):
        simulate_mod.write_trajectories(jobs)
    _assert_no_child_left()


class _Interrupted(BaseException):
    pass


# An exception the handler raises inside os.fork's own hooks is only
# printed; the error filter makes that fail the test.
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("delay", [1e-5, 1e-4, 1e-3, 1e-2])
def test_write_trajectories_interrupted_reaps(tmp_path, monkeypatch, ref_params,
                                              high_incidence, delay):
    # a signal handler that raises, as a deadline does, at some point of the call
    def interrupt(signum, frame):
        raise _Interrupted()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    jobs = _csv_jobs(ref_params, high_incidence, tmp_path / "out", 9)
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, delay)
        simulate_mod.write_trajectories(jobs)
    except _Interrupted:
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    _assert_no_child_left()
