import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirskit import (
    EvaluationError,
    HypothesisViolationError,
    LimitConvergenceError,
    check_hypotheses,
    check_incidence_bound,
    compute_beta,
    from_callables,
    make_builtin,
    small_i_limit,
)
from sirskit.incidence import _FAMILIES, f1_of_s_only

from conftest import FAMILY_INSTANCES, HYPOTHESIS_FAMILIES, forwarding

positive_pop = st.floats(min_value=1e-6, max_value=50.0,
                         allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("family", sorted(FAMILY_INSTANCES))
@given(s=positive_pop, i=positive_pop)
@settings(max_examples=50, deadline=None)
def test_factorization(family, s, i):
    f = make_builtin(family, FAMILY_INSTANCES[family])
    fv = f.eval_f(s, i)
    assert abs(fv - i * f.eval_f1(s, i)) <= 1e-10 * max(1.0, abs(fv))


@pytest.mark.parametrize("family", sorted(FAMILY_INSTANCES))
def test_boundary_zeros_exact(family):
    f = make_builtin(family, FAMILY_INSTANCES[family])
    for v in (0.0, 1.0, 10.0, 50.0):
        assert f.eval_f(0.0, v) == 0.0
        assert f.eval_f(v, 0.0) == 0.0


def test_saturated_f1_value():
    f = make_builtin("saturated_in_I", {"beta": 0.5, "a": 1.0})
    assert f.eval_f1(2.0, 3.0) == pytest.approx(0.25, abs=1e-15)


def test_power_f1_at_equilibrium_scale():
    # 0.0008 * 29.5804^2 is the infected outflow rate 0.7 of the
    # reference parameters, and is independent of I for this family.
    f = make_builtin("power", {"k": 0.0008, "q": 2.0})
    for i in (0.0, 1.0, 9.4244):
        assert f.eval_f1(29.5804, i) == pytest.approx(0.7, abs=1e-3)


@pytest.mark.parametrize("family, coefficients", [
    ("bilinear", {"beta": 0.0}),
    ("bilinear", {"beta": -1.0}),
    ("power", {"k": -0.1, "q": 2.0}),
    ("power", {"k": 0.1, "q": 0.0}),
    ("saturated_in_I", {"beta": 1.0, "a": -0.5}),
    ("ruan", {"beta": 1.0, "rho": -1.0}),
])
def test_make_builtin_rejects_bad_coefficients(family, coefficients):
    with pytest.raises(ValueError):
        make_builtin(family, coefficients)


def test_make_builtin_rejects_unknown_family_and_keys():
    with pytest.raises(ValueError, match="unknown incidence family"):
        make_builtin("holling", {"beta": 1.0})
    with pytest.raises(ValueError, match="unknown coefficient"):
        make_builtin("bilinear", {"beta": 1.0, "rho": 2.0})
    with pytest.raises(ValueError, match="missing required coefficient"):
        make_builtin("power", {"q": 2.0})


def test_check_hypotheses_power_passes():
    report = check_hypotheses(make_builtin("power", {"k": 0.0002, "q": 2.0}), 50.0)
    assert report.all_pass
    assert report.violations == []


@given(k=st.floats(min_value=1e-6, max_value=10.0),
       q=st.floats(min_value=1.0, max_value=5.0))
@settings(max_examples=30, deadline=None)
def test_check_hypotheses_power_family_q_ge_1(k, q):
    report = check_hypotheses(make_builtin("power", {"k": k, "q": q}), 50.0, grid_n=16)
    assert report.all_pass


def test_ruan_fails_h3_with_zero_limits():
    report = check_hypotheses(make_builtin("ruan", {"beta": 0.5, "rho": 1.0}), 50.0)
    assert not report.h3_pass
    failed_h3 = {point[0] for hyp, point, _ in report.violations if hyp == "H3"}
    sampled = {s for s, _ in report.h3_limit_at}
    assert failed_h3 == sampled  # the limit degenerates at every S
    assert all(abs(limit) < 1e-6 for _, limit in report.h3_limit_at)


def test_bilinear_h3_limit_at_s_max():
    report = check_hypotheses(make_builtin("bilinear", {"beta": 1.0}), 1.0)
    assert report.all_pass
    s_last, limit = report.h3_limit_at[-1]
    assert s_last == 1.0
    assert limit == pytest.approx(1.0, abs=1e-9)


def test_ruan_h2_fails_within_first_grid_cell():
    # f1 = beta*S*I/(1 + rho*I^2) rises in I up to I = 1/sqrt(rho) = 0.5,
    # inside the first cell of the 64-grid (step 0.79); no interior
    # sample sees the rise, the quotient from the I = 0 row does
    report = check_hypotheses(make_builtin("ruan", {"beta": 0.01, "rho": 4.0}), 50.0)
    assert not report.h2_pass
    rising = [point for hyp, point, value in report.violations if hyp == "H2" and value > 0]
    assert rising and all(i == 0.0 for _, i in rising)


def test_violations_empty_iff_all_pass():
    good = check_hypotheses(make_builtin("power", {"k": 0.0008, "q": 2.0}), 50.0)
    bad = check_hypotheses(make_builtin("ruan", {"beta": 0.5, "rho": 1.0}), 50.0)
    assert good.all_pass and good.violations == []
    assert not bad.all_pass and bad.violations != []


def test_check_hypotheses_deterministic():
    f = make_builtin("saturated_in_I", {"beta": 0.1, "a": 2.0})
    assert check_hypotheses(f, 50.0) == check_hypotheses(f, 50.0)


def test_check_hypotheses_validates_inputs():
    f = make_builtin("bilinear", {"beta": 1.0})
    with pytest.raises(ValueError):
        check_hypotheses(f, -1.0)
    with pytest.raises(ValueError):
        check_hypotheses(f, 50.0, grid_n=4)


def test_non_finite_value_reports_point():
    f = from_callables(lambda S, I: np.where(S > 25.0, np.nan, S * I),
                       f1=lambda S, I: np.where(S > 25.0, np.nan, S + 0.0 * I))
    with pytest.raises(EvaluationError, match=r"\("):
        check_hypotheses(f, 50.0)


def brute_force_violations(f, s_max, grid_n=64, eps=1e-4):
    """check_hypotheses' violation list, one sample at a time."""
    axis = np.linspace(0.0, s_max, grid_n)
    step = axis[1]
    found = []
    for point in [(s, 0.0) for s in axis] + [(0.0, i) for i in axis]:
        value = float(f.eval_f(*point))
        if abs(value) > 1e-12:
            found.append(("H1", point, value))
    # neighbour quotients of f1, in S then in I, at the lower sample
    for di, dj, bad in ((1, 0, lambda v: v <= 1e-12), (0, 1, lambda v: v > 1e-12)):
        for j in range(grid_n - di):
            for k in range(grid_n - dj):
                s, i = float(axis[j]), float(axis[k])
                upper = float(f.eval_f1(float(axis[j + di]), float(axis[k + dj])))
                value = (upper - float(f.eval_f1(s, i))) / step
                if bad(value):
                    found.append(("H2", (s, i), value))
    for s in axis[1:]:
        limit, converged = small_i_limit(f.eval_f, float(s), eps)
        if not (converged and limit > 1e-12):
            found.append(("H3", (float(s), 0.0), limit))
    return found


@pytest.mark.parametrize("f", [
    make_builtin("ruan", FAMILY_INSTANCES["ruan"]),
    # f(S, 0) and f(0, I) nonzero, f1 decreasing in S and mostly increasing
    # in I, f/I unbounded as I -> 0: every list is non-empty
    from_callables(lambda S, I: I * (60.0 - S) * (1.0 + I / 100.0) + 0.01 * (S + I),
                   label="offset"),
], ids=["ruan", "offset"])
def test_violations_match_brute_force(f):
    report = check_hypotheses(f, 50.0)
    expected = brute_force_violations(f, 50.0)
    assert report.violations == expected
    failed = {hyp for hyp, _, _ in expected}
    assert (report.h1_pass, report.h2_pass, report.h3_pass) == tuple(
        hyp not in failed for hyp in ("H1", "H2", "H3"))


def test_compute_beta_power_values():
    assert compute_beta(make_builtin("power", {"k": 0.0008, "q": 2.0}),
                        10.0, 0.2) == pytest.approx(0.04, rel=1e-12)
    assert compute_beta(make_builtin("power", {"k": 0.0002, "q": 2.0}),
                        10.0, 0.2) == pytest.approx(0.01, rel=1e-12)


@given(beta0=st.floats(min_value=1e-4, max_value=10.0),
       lam=st.floats(min_value=0.5, max_value=100.0),
       mu=st.floats(min_value=0.01, max_value=2.0))
@settings(max_examples=50, deadline=None)
def test_compute_beta_bilinear_self_consistent(beta0, lam, mu):
    # df/dI at (S0, 0) is beta0*S0, so (mu/Lambda)*beta0*S0 == beta0.
    f = make_builtin("bilinear", {"beta": beta0})
    assert compute_beta(f, lam, mu) == pytest.approx(beta0, rel=1e-12)


def test_compute_beta_extrapolation_path():
    # No partials: force the Richardson route and compare against the
    # analytic value of the same functional form.
    f = from_callables(lambda S, I: 0.0008 * I * S ** 2)
    assert compute_beta(f, 10.0, 0.2) == pytest.approx(0.04, rel=1e-6)


def test_compute_beta_ruan_violates_h3():
    f = make_builtin("ruan", {"beta": 0.5, "rho": 1.0})
    with pytest.raises(HypothesisViolationError):
        compute_beta(f, 10.0, 0.2)


def test_compute_beta_nonconvergent_limit():
    # f/I oscillates as I -> 0+, so the extrapolants cannot settle.
    f = from_callables(lambda S, I: I * (1.0 + 0.5 * np.sin(1.0 / (I + 1e-30))) * S)
    with pytest.raises((LimitConvergenceError, HypothesisViolationError)):
        compute_beta(f, 10.0, 0.2)


def test_small_i_limit_flags():
    f = make_builtin("saturated_in_I", {"beta": 0.1, "a": 2.0})
    limit, converged = small_i_limit(f.eval_f, 30.0, 30.0 / 5e5)
    assert converged
    assert limit == pytest.approx(0.1 * 30.0, rel=1e-9)


def test_derived_f1_matches_ratio_and_limit():
    f = from_callables(lambda S, I: 0.0008 * I * S ** 2)
    assert f.eval_f1(10.0, 2.0) == pytest.approx(0.0008 * 100.0, rel=1e-12)
    assert f.eval_f1(10.0, 0.0) == pytest.approx(0.08, rel=1e-6)
    # the small-I step follows |S|; S = 0 gives no scale and still a value
    assert f.eval_f1(0.0, 0.0) == 0.0


def test_incidence_bound_power_tight_at_s0():
    passed, slack = check_incidence_bound(
        make_builtin("power", {"k": 0.0008, "q": 2.0}), 10.0, 0.2)
    assert passed
    # f1 does not depend on I, so the bound is attained along S = S0.
    assert abs(slack) <= 1e-12


def test_incidence_bound_saturated_passes():
    passed, slack = check_incidence_bound(
        make_builtin("saturated_in_I", {"beta": 0.1, "a": 2.0}), 10.0, 0.2)
    assert passed
    assert slack >= -1e-12


@pytest.mark.parametrize("family", HYPOTHESIS_FAMILIES)
def test_incidence_bound_all_passing_families(family):
    passed, slack = check_incidence_bound(
        make_builtin(family, FAMILY_INSTANCES[family]), 10.0, 0.2, grid_n=100)
    assert passed, f"{family}: min slack {slack}"


_S_ONLY = sorted(name for name, family in _FAMILIES.items() if family.f1_of_s_only)


def test_declared_f1_of_s_only_families():
    # a new family is scanned on the whole slope grid until it opts in
    assert _S_ONLY == ["bilinear", "power"]


@given(family=st.sampled_from(_S_ONLY), log_s=st.floats(-6.0, 6.0),
       strength=st.floats(1e-3, 1e3), q=st.floats(0.1, 4.0),
       fractions=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), max_size=20))
@settings(max_examples=100, deadline=None)
def test_f1_of_s_only_has_the_bits_of_v_zero(family, log_s, strength, q, fractions):
    # f1(u, v) has the bytes of f1(u, 0) on [0, S0]^2; as bytes, -0.0 != 0.0
    s0 = 50.0 * 10.0 ** log_s
    f = make_builtin(family, {"beta": strength / s0} if family == "bilinear"
                     else {"k": strength / s0 ** q, "q": q})
    assert f1_of_s_only(f.eval_f1)
    points = [(0.0, 0.5), (0.5, 0.0), (0.5, 1.0)] + fractions
    u = np.array([a for a, _ in points]) * s0
    v = np.array([b for _, b in points]) * s0
    assert np.asarray(f.eval_f1(u, v)).tobytes() == np.asarray(f.eval_f1(u, 0.0 * v)).tobytes()
    for a, b in zip(u.tolist(), v.tolist()):
        assert np.float64(f.eval_f1(a, b)).tobytes() == np.float64(f.eval_f1(a, 0.0)).tobytes()


@pytest.mark.parametrize("build", [
    forwarding,
    lambda f: from_callables(f.eval_f),
    lambda f: from_callables(f.eval_f, lambda S, I: 0.0008 * S ** 2 + 0.0 * I),
    lambda f: dataclasses.replace(f, eval_f1=functools.wraps(f.eval_f1)(
        lambda S, I: f.eval_f1(S, I))),
], ids=["forwarding", "derived", "user_f1", "wraps"])
def test_f1_of_s_only_recognises_only_the_built_function(build):
    f = make_builtin("power", {"k": 0.0008, "q": 2.0})
    assert f1_of_s_only(f.eval_f1)
    assert not f1_of_s_only(build(f).eval_f1)


def test_built_incidence_compares_and_hashes_by_identity():
    # f and f1 compare as the functions they are, not by their coefficients
    f, g = (make_builtin("power", {"k": 0.0008, "q": 2.0}) for _ in range(2))
    assert f != g and f.eval_f != g.eval_f and f.eval_f1 != g.eval_f1
    assert dataclasses.replace(f) == f
    assert hash(dataclasses.replace(f)) == hash(f)
    assert len({f, g, dataclasses.replace(f)}) == 2
