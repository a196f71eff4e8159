import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

from conftest import REF

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
    report = find_endemic(ref_params, high_incidence, tol=1e-8)
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
    assert report.dfe == dfe(ref_params)


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


def test_monotone_bracket_refinement(ref_params, high_incidence):
    tol = 1e-10
    coarse = find_endemic(ref_params, high_incidence, tol=tol, n_brackets=256)
    fine = find_endemic(ref_params, high_incidence, tol=tol, n_brackets=512)
    assert len(coarse.endemic) == len(fine.endemic)
    for (a, _), (b, _) in zip(coarse.endemic, fine.endemic):
        assert abs(a.I - b.I) < tol


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


def test_bracket_failure_carries_samples(ref_params):
    # f1 constant above the outflow rate: R0 > 1 yet g never changes sign.
    c = 2.0 * ref_params.infected_outflow
    f = from_callables(lambda S, I: c * I + 0.0 * S, label="constant-f1")
    with pytest.raises(BracketFailureError) as excinfo:
        find_endemic(ref_params, f)
    samples = excinfo.value.samples
    assert len(samples) == 257
    assert all(g > 0 for _, g in samples)


def test_inconsistent_f1_fails_verification(ref_params):
    # eval_f1 disagrees with eval_f, so the reconstructed root cannot be
    # a vector-field zero.
    f_true = make_builtin("power", {"k": 0.0008, "q": 2.0})
    f_bad = IncidenceFunction(
        eval_f=lambda S, I: 0.9 * f_true.eval_f(S, I),
        eval_f1=f_true.eval_f1,
        partials=f_true.partials,
        label="inconsistent")
    with pytest.raises(VerificationError):
        find_endemic(ref_params, f_bad)


def test_s_star_curve(ref_params, low_incidence, high_incidence):
    high = find_endemic(ref_params, high_incidence)
    # the level-set intercept coincides with S* for I-independent f1
    assert high.s_star_curve == pytest.approx(high.endemic[0][0].S, abs=1e-3)
    low = find_endemic(ref_params, low_incidence)
    assert low.s_star_curve == pytest.approx((0.7 / 0.0002) ** 0.5, abs=1e-3)
    assert low.s_star_curve > ref_params.s0  # consistent with R0 < 1


def test_input_validation(ref_params, high_incidence):
    with pytest.raises(ValueError):
        find_endemic(ref_params, high_incidence, tol=0.0)
    with pytest.raises(ValueError):
        find_endemic(ref_params, high_incidence, n_brackets=8)


def test_large_population_terminates():
    # The reference model at population scale 1e6 (Lambda*s, k/s^2): the
    # spacing of doubles near I* ~ 9.4e6 exceeds tol = 1e-10, and bisection
    # must still stop.  A hang fails here by timeout.
    code = (
        "from sirskit import ModelParams, SirsKitError, find_endemic, make_builtin\n"
        "p = ModelParams(Lambda=1e7, mu=0.2, gamma1=0.2, gamma2=0.2, alpha=0.1, delta=0.1)\n"
        "f = make_builtin('power', {'k': 0.0008 / 1e6 ** 2, 'q': 2.0})\n"
        "try:\n"
        "    find_endemic(p, f)\n"
        "except SirsKitError:\n"
        "    pass\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {"PATH": "", "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env, timeout=30,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
