import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirskit import (
    BracketFailureError,
    IncidenceFunction,
    ModelParams,
    State,
    VerificationError,
    dfe,
    equilibrium_line,
    find_endemic,
    from_callables,
    i_axis_intercept,
    make_builtin,
    r0,
    verify_equilibrium,
)

from conftest import HYPOTHESIS_FAMILIES, REF

REFERENCE_ENDEMIC = (29.5804, 9.4244, 6.2830)


def test_line_intercepts(ref_params):
    assert equilibrium_line(ref_params, 0.0) == pytest.approx(50.0, rel=1e-15)
    # derived: I0 = Lambda / (mu + gamma2 + alpha - delta*gamma2/(mu+delta))
    expected_i0 = 10.0 / (0.2 + 0.2 + 0.1 - 0.1 * 0.2 / 0.3)
    assert i_axis_intercept(ref_params) == pytest.approx(expected_i0, rel=1e-12)
    assert expected_i0 == pytest.approx(23.0769, abs=1e-3)
    assert equilibrium_line(ref_params, i_axis_intercept(ref_params)) == \
        pytest.approx(0.0, abs=1e-12)


def test_line_through_reference_equilibrium(ref_params):
    assert equilibrium_line(ref_params, REFERENCE_ENDEMIC[1]) == \
        pytest.approx(REFERENCE_ENDEMIC[0], abs=1e-3)


def test_line_slope_negative_for_valid_params():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p = ModelParams(Lambda=rng.uniform(0.1, 50), mu=rng.uniform(0.01, 2),
                        gamma1=rng.uniform(0, 2), gamma2=rng.uniform(0, 2),
                        alpha=rng.uniform(0, 2), delta=rng.uniform(0, 2))
        assert equilibrium_line(p, 1.0) < equilibrium_line(p, 0.0)


def test_find_endemic_reference_case(ref_params, high_incidence):
    report = find_endemic(ref_params, high_incidence)
    assert len(report.endemic) == 1
    state, residual = report.endemic[0]
    gap = max(abs(state.S - REFERENCE_ENDEMIC[0]),
              abs(state.I - REFERENCE_ENDEMIC[1]),
              abs(state.R - REFERENCE_ENDEMIC[2]))
    assert gap <= 1e-3
    assert residual < 1e-7  # 10 * tol
    # the root sits on the line and on the level set f1 = outflow
    assert abs(state.S - equilibrium_line(ref_params, state.I)) < 1e-8
    assert high_incidence.eval_f1(state.S, state.I) == \
        pytest.approx(ref_params.infected_outflow, abs=1e-8)


def test_find_endemic_subcritical_empty(ref_params, low_incidence):
    report = find_endemic(ref_params, low_incidence)
    assert report.endemic == []
    assert report.r0 < 1


def test_find_endemic_bilinear_closed_form():
    # With gamma1 = gamma2 = alpha = delta = 0 the root is available in
    # closed form: S* = mu/beta, I* = Lambda*(1 - 1/R0)/mu, R* = 0.
    p = ModelParams(Lambda=10.0, mu=0.2, gamma1=0.0, gamma2=0.0, alpha=0.0, delta=0.0)
    target_r0 = 2.0
    beta = target_r0 * p.mu ** 2 / p.Lambda
    f = make_builtin("bilinear", {"beta": beta})
    assert r0(p, f) == pytest.approx(target_r0, rel=1e-12)
    report = find_endemic(p, f)
    assert len(report.endemic) == 1
    state, _ = report.endemic[0]
    assert state.S == pytest.approx(p.mu / beta, rel=1e-9)
    assert state.I == pytest.approx(p.Lambda * (1 - 1 / target_r0) / p.mu, rel=1e-9)
    assert state.R == 0.0


def test_verify_equilibrium(ref_params, high_incidence):
    assert verify_equilibrium(ref_params, high_incidence, dfe(ref_params)) < 1e-12
    assert verify_equilibrium(ref_params, high_incidence,
                              State(*REFERENCE_ENDEMIC)) < 2e-3
    assert verify_equilibrium(ref_params, high_incidence, State(1.0, 1.0, 1.0)) > 1.0


@pytest.mark.parametrize("family, make_coefs", [
    ("bilinear", lambda scale: {"beta": scale}),
    ("power", lambda scale: {"k": scale / 2500.0, "q": 2.0}),
    ("saturated_in_I", lambda scale: {"beta": scale, "a": 0.7}),
    ("psi_ratio", lambda scale: {"beta": scale, "a": 0.3, "b": 0.1}),
])
def test_no_endemic_when_r0_below_one(family, make_coefs):
    # Scale the leading coefficient so R0 lands at a chosen value <= 1;
    # for all these families beta from the small-I limit is linear in it.
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = ModelParams(Lambda=rng.uniform(1, 20), mu=rng.uniform(0.05, 1),
                        gamma1=rng.uniform(0, 1), gamma2=rng.uniform(0, 1),
                        alpha=rng.uniform(0, 1), delta=rng.uniform(0, 1))
        r0_target = rng.uniform(0.05, 1.0)
        # leading coefficient for which r0 == r0_target when f1(S0, 0) = coef*S0
        scale = r0_target * p.mu * p.infected_outflow / p.Lambda
        if family == "power":
            scale = r0_target * p.mu * p.infected_outflow / p.Lambda / p.s0 * 2500.0
        f = make_builtin(family, make_coefs(scale))
        report = find_endemic(p, f)
        assert report.r0 <= 1.0 + 1e-9
        assert report.endemic == []


def builtin_at_r0(family, p, target_r0, q, a_s0, b_s0):
    """A built-in of ``family`` with the given R0 at ``p``; a*S0 and b*S0**2
    are ``a_s0`` and ``b_s0``."""
    f1_s0 = target_r0 * p.infected_outflow  # f1(S0, 0), which sets R0
    return make_builtin(family, {
        "bilinear": {"beta": f1_s0 / p.s0},
        "power": {"k": f1_s0 / p.s0 ** q, "q": q},
        "saturated_in_I": {"beta": f1_s0 / p.s0, "a": a_s0 / p.s0},
        "psi_ratio": {"beta": f1_s0 / p.s0, "a": a_s0 / p.s0, "b": b_s0 / p.s0 ** 2},
    }[family])


@given(family=st.sampled_from(HYPOTHESIS_FAMILIES), lam=st.floats(1e-3, 1e4),
       mu=st.floats(0.01, 2.0), rates=st.tuples(*[st.floats(0.0, 2.0)] * 4),
       target_r0=st.floats(1.2, 5.0), q=st.floats(0.5, 4.0),
       a_s0=st.floats(0.0, 10.0), b_s0=st.floats(0.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_one_endemic_equilibrium_from_one_bracket(family, lam, mu, rates, target_r0, q,
                                                  a_s0, b_s0):
    # Under (H1)-(H2) g falls from outflow*(R0 - 1) at I = 0 to -outflow at
    # I0, so the ends of the bracket hold the one sign change.
    p = ModelParams(lam, mu, *rates)
    report = find_endemic(p, builtin_at_r0(family, p, target_r0, q, a_s0, b_s0))
    assert report.r0 == pytest.approx(target_r0, rel=1e-9)
    assert len(report.endemic) == 1
    i0 = i_axis_intercept(p)
    assert report.bracket_log == [(1e-9 * i0, i0 - 1e-9 * i0)]
    state, residual = report.endemic[0]
    assert 0.0 < state.I < i0
    assert residual < 1e-10 * p.Lambda


@given(family=st.sampled_from(HYPOTHESIS_FAMILIES), log_lam=st.floats(-3.0, 4.0),
       mu=st.floats(0.01, 2.0), rates=st.tuples(*[st.floats(0.0, 2.0)] * 4),
       log_excess=st.floats(-8.5, -3.0), q=st.floats(0.5, 4.0),
       a_s0=st.floats(0.0, 1000.0), b_s0=st.floats(0.0, 1000.0))
@settings(max_examples=200, deadline=None)
def test_endemic_equilibrium_just_above_threshold(family, log_lam, mu, rates, log_excess, q,
                                                  a_s0, b_s0):
    # With R0 - 1 small the root, near outflow*(R0 - 1)/|g'(0)|, can lie
    # below the usual bracket's lower end 1e-9*I0; it is then found in
    # (0, 1e-9*I0).
    p = ModelParams(10.0 ** log_lam, mu, *rates)
    report = find_endemic(p, builtin_at_r0(family, p, 1.0 + 10.0 ** log_excess, q, a_s0, b_s0))
    assert len(report.endemic) == 1
    i0 = i_axis_intercept(p)
    eps = 1e-9 * i0
    assert report.bracket_log in ([(eps, i0 - eps)], [(0.0, eps)])
    state, residual = report.endemic[0]
    assert 0.0 < state.I < i0
    assert residual < 1e-10 * p.Lambda


def test_bracket_failure_reports_g_at_both_ends(ref_params):
    # f1 constant above the outflow rate: R0 > 1 yet g never changes sign.
    c = 2.0 * ref_params.infected_outflow
    f = from_callables(lambda S, I: c * I + 0.0 * S, label="constant-f1")
    with pytest.raises(BracketFailureError) as excinfo:
        find_endemic(ref_params, f)
    i0 = i_axis_intercept(ref_params)
    g = f"{ref_params.infected_outflow:g}"  # g = c - outflow at every I
    assert str(excinfo.value) == (
        f"R0 = 2 > 1 but g does not fall from positive to negative across the bracket: "
        f"g({1e-9 * i0:g}) = {g}, g({i0 - 1e-9 * i0:g}) = {g}")


def test_inconsistent_f1_fails_verification(ref_params):
    # eval_f1 disagrees with eval_f, so the reconstructed root cannot be
    # a vector-field zero.
    f_true = make_builtin("power", {"k": 0.0008, "q": 2.0})
    f_bad = IncidenceFunction(
        eval_f=lambda S, I: 0.9 * f_true.eval_f(S, I),
        eval_f1=f_true.eval_f1,
        label="inconsistent")
    with pytest.raises(VerificationError):
        find_endemic(ref_params, f_bad)


def test_large_population_terminates():
    # The reference model at population scale 1e6 (Lambda*s, k/s^2):
    # bisection to adjacent doubles must stop, and the residual gate, which
    # scales with Lambda, must accept the equilibrium.  A hang fails here by
    # timeout.
    code = (
        "from sirskit import ModelParams, find_endemic, make_builtin\n"
        "p = ModelParams(Lambda=1e7, mu=0.2, gamma1=0.2, gamma2=0.2, alpha=0.1, delta=0.1)\n"
        "f = make_builtin('power', {'k': 0.0008 / 1e6 ** 2, 'q': 2.0})\n"
        "print(repr(find_endemic(p, f).endemic[0][0].I))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PATH": "", "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=30,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) / 1e6 == pytest.approx(9.42443127, rel=1e-9)
