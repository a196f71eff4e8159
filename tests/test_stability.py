import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirskit import (
    DegenerateParameterError,
    EvaluationError,
    ModelParams,
    SingularPointError,
    State,
    certify,
    check_a1,
    check_a2,
    default_k2,
    dfe_lyapunov_bound,
    dvdt_at,
    dvdt_scan,
    find_endemic,
    find_k1,
    from_callables,
    lyapunov_v,
    make_builtin,
    pq_matrices,
    secant_slope,
    stability,
)
from sirskit.incidence import require_finite

from conftest import REF, forwarding


@pytest.fixture(scope="module")
def ref_p():
    return ModelParams(**REF)


@pytest.fixture(scope="module")
def f_high():
    return make_builtin("power", {"k": 0.0008, "q": 2.0})


@pytest.fixture(scope="module")
def eq_high(ref_p, f_high):
    return find_endemic(ref_p, f_high).endemic[0][0]


def _random_params(rng):
    return ModelParams(Lambda=rng.uniform(0.5, 50), mu=rng.uniform(0.01, 2),
                       gamma1=rng.uniform(0, 2), gamma2=rng.uniform(0, 2),
                       alpha=rng.uniform(0, 2), delta=rng.uniform(0, 2))


def test_check_a1_reference(ref_p):
    result = check_a1(ref_p)
    assert result.passed
    left = (2 * ref_p.mu + ref_p.alpha) * (ref_p.mu + ref_p.delta)
    right = ref_p.mu * ref_p.gamma2
    assert left == pytest.approx(0.15, abs=1e-12)
    assert right == pytest.approx(0.04, abs=1e-12)
    assert result.margin == pytest.approx(left - right, abs=1e-15)


def test_check_a1_equality_boundary():
    # alpha = delta = 0 and gamma2 = 2*mu collapses the margin to zero.
    p = ModelParams(Lambda=1.0, mu=0.2, gamma1=0.0, gamma2=0.4, alpha=0.0, delta=0.0)
    result = check_a1(p)
    assert not result.passed
    assert result.margin == pytest.approx(0.0, abs=1e-15)


def test_check_a1_arithmetic():
    p = ModelParams(Lambda=1.0, mu=0.1, gamma1=0.0, gamma2=0.1, alpha=0.0, delta=0.0)
    result = check_a1(p)
    assert result.passed
    assert result.margin == pytest.approx(0.02 - 0.01, abs=1e-15)


def test_a1_margin_matches_expanded_form():
    # 1000 draws: the product form and the expanded quadratic agree in
    # value and therefore in sign.
    rng = np.random.default_rng(42)
    for _ in range(1000):
        p = _random_params(rng)
        result = check_a1(p)
        assert result.margin == pytest.approx(result.remark_value, rel=1e-12, abs=1e-12)
        assert (result.margin > 0) == (result.remark_value > 0) or \
            abs(result.margin) < 1e-12


def test_secant_slope_reference_values(f_high, eq_high):
    # for f1 = k*S^2 the slope collapses to k*(u + S*)
    assert secant_slope(f_high, eq_high, 30.0, 1.0) == pytest.approx(0.047664, abs=1e-5)
    assert secant_slope(f_high, eq_high, 0.0, 5.0) == pytest.approx(0.023664, abs=1e-5)
    for u in (0.0, 10.0, 45.0):
        assert secant_slope(f_high, eq_high, u, 3.0) == \
            pytest.approx(0.0008 * (u + eq_high.S), rel=1e-9)


def test_secant_slope_bilinear_constant(ref_p):
    p = ModelParams(Lambda=10.0, mu=0.2, gamma1=0.0, gamma2=0.0, alpha=0.0, delta=0.0)
    f = make_builtin("bilinear", {"beta": 0.008})
    eq = find_endemic(p, f).endemic[0][0]
    for u, v in [(1.0, 2.0), (10.0, 0.0), (49.0, 30.0)]:
        assert secant_slope(f, eq, u, v) == pytest.approx(0.008, rel=1e-9)


def test_secant_slope_independent_of_v_for_power(f_high, eq_high, ref_p):
    v_ref = ref_p.Lambda / (2 * ref_p.mu)
    for u in np.linspace(0.0, 50.0, 21):
        if abs(u - eq_high.S) < 1e-6:
            continue
        base = secant_slope(f_high, eq_high, float(u), v_ref)
        for v in (0.0, 1.0, 17.3, 50.0):
            assert abs(secant_slope(f_high, eq_high, float(u), v) - base) < 1e-12


def test_secant_slope_singular_point(f_high, eq_high):
    with pytest.raises(SingularPointError):
        secant_slope(f_high, eq_high, eq_high.S, 1.0)
    with pytest.raises(SingularPointError):
        secant_slope(f_high, eq_high, np.array([1.0, eq_high.S]), np.ones(2))


def test_secant_slope_arrays_match_scalars(f_high, eq_high):
    u = np.array([0.0, 12.5, 33.0, 50.0])
    v = np.array([0.0, 4.0, 9.0, 1.0])
    g = secant_slope(f_high, eq_high, u, v)
    assert g.shape == u.shape
    assert list(g) == [secant_slope(f_high, eq_high, float(a), float(b))
                       for a, b in zip(u, v)]


def test_check_a2_reference_k1_7(ref_p, f_high, eq_high):
    scan = check_a2(ref_p, f_high, eq_high, 7.0, grid_n=201)
    assert scan.passed
    assert not scan.divergence_flag
    assert scan.sup_h < 0.12
    assert scan.h_bound == pytest.approx(0.12, abs=1e-12)
    # brute-force oracle: h evaluated directly at 1e5 points of [0, 50]
    u = np.linspace(0.0, 50.0, 100001)
    u = u[np.abs(u - eq_high.S) > 1e-6]
    f1_star = f_high.eval_f1(eq_high.S, eq_high.I)
    h = (0.5 - 7.0 * (0.0008 * u ** 2 - f1_star) / (u - eq_high.S)) ** 2
    assert scan.sup_h == pytest.approx(float(h.max()), rel=1e-9)
    assert scan.sup_h == pytest.approx(0.1117898, abs=1e-5)
    assert scan.worst_point[0] == 0.0  # supremum sits at u = 0


def test_check_a2_k1_zero_fails(ref_p, f_high, eq_high):
    scan = check_a2(ref_p, f_high, eq_high, 0.0)
    assert scan.sup_h == pytest.approx((2 * ref_p.mu + ref_p.alpha) ** 2, rel=1e-12)
    assert not scan.passed


@pytest.mark.parametrize("k1", [-1.0, math.nan, math.inf])
def test_check_a2_rejects_invalid_k1(ref_p, f_high, eq_high, k1):
    with pytest.raises(ValueError, match=f"^k1 must be non-negative and finite, got {k1}$"):
        check_a2(ref_p, f_high, eq_high, k1)


def test_check_a2_divergence_for_i_dependent_f1(ref_p):
    f = make_builtin("saturated_in_I", {"beta": 0.03, "a": 0.5})
    eq = find_endemic(ref_p, f).endemic[0][0]
    scan = check_a2(ref_p, f, eq, 1.0)
    assert scan.divergence_flag
    assert not scan.passed
    assert find_k1(ref_p, f, eq) is None


def test_divergence_flag_for_slight_i_dependence(ref_p):
    # f1 = beta*S/(1 + a*I) varies with I by about 4e-8 of itself at
    # u = S*, enough for G to be unbounded there
    f = make_builtin("saturated_in_I", {"beta": 0.04, "a": 1e-9})
    eq = find_endemic(ref_p, f).endemic[0][0]
    cert = certify(ref_p, f, eq)
    assert cert.divergence_flag
    assert cert.k1 is None and not cert.granted


def test_no_divergence_when_f1_depends_on_i_only_away_from_s_star(ref_p):
    # f1 = beta*u*(1 + c*(u - S*)^2*v) keeps E1 of the bilinear model and
    # gives the bounded slope G = beta*(1 + c*u*(u - S*)*v)
    beta, c = 0.04, 1e-6
    eq = find_endemic(ref_p, make_builtin("bilinear", {"beta": beta})).endemic[0][0]
    f = from_callables(lambda S, I: beta * S * I * (1.0 + c * (S - eq.S) ** 2 * I),
                       f1=lambda S, I: beta * S * (1.0 + c * (S - eq.S) ** 2 * I))
    cert = certify(ref_p, f, eq)
    assert not cert.divergence_flag
    assert cert.granted


def test_find_k1_reference(ref_p, f_high, eq_high):
    k1 = find_k1(ref_p, f_high, eq_high)
    assert k1 is not None
    assert check_a2(ref_p, f_high, eq_high, k1).passed
    # the specific choice 7 also passes
    assert check_a2(ref_p, f_high, eq_high, 7.0).passed


def test_find_k1_bilinear_closed_form():
    # constant slope G = beta makes h a single parabola with zero
    # minimum at k1 = (2mu + alpha)/beta
    p = ModelParams(Lambda=10.0, mu=0.2, gamma1=0.0, gamma2=0.0, alpha=0.0, delta=0.0)
    beta = 0.008
    f = make_builtin("bilinear", {"beta": beta})
    eq = find_endemic(p, f).endemic[0][0]
    k1 = find_k1(p, f, eq)
    assert k1 == pytest.approx((2 * p.mu + p.alpha) / beta, rel=1e-9)


@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_find_k1_power_closed_form_across_scales(scale):
    # f1 = k*S^2 gives G = k*(u + S*), ranging over [k*S*, k*(S0 + S*)],
    # so the optimum 2c/(Gmin + Gmax) is 2c/(k*(2S* + S0))
    p = ModelParams(**dict(REF, Lambda=REF["Lambda"] * scale))
    k = 0.0008 / scale ** 2
    f = make_builtin("power", {"k": k, "q": 2.0})
    eq = find_endemic(p, f).endemic[0][0]
    c = 2 * p.mu + p.alpha
    assert find_k1(p, f, eq) == pytest.approx(2 * c / (k * (2 * eq.S + p.s0)), rel=1e-9)


def test_find_k1_none_for_decreasing_f1(ref_p):
    # f1 decreasing in S makes every secant slope negative
    f = from_callables(lambda S, I: (60.0 - S) * I, f1=lambda S, I: 60.0 - S + 0.0 * I)
    assert find_k1(ref_p, f, State(25.0, 5.0, 2.0)) is None


def test_default_k2(ref_p):
    assert default_k2(ref_p) == pytest.approx(2.5, rel=1e-15)
    p = ModelParams(Lambda=10.0, mu=0.2, gamma1=0.2, gamma2=0.0, alpha=0.1, delta=0.1)
    with pytest.raises(DegenerateParameterError):
        default_k2(p)


def test_lyapunov_zero_at_equilibrium(eq_high):
    assert lyapunov_v(eq_high, 7.0, 2.5, eq_high) == 0.0


def test_lyapunov_closed_form_value():
    # direct evaluation: 0.5*(0+1+0)^2 + (1 - ln 2) + 0
    value = lyapunov_v(State(1, 1, 1), 1.0, 1.0, State(1, 2, 1))
    assert value == pytest.approx(1.5 - math.log(2.0), rel=1e-15)


@given(s=st.floats(0.1, 49.0), i=st.floats(0.01, 45.0), rv=st.floats(0.0, 45.0))
@settings(max_examples=100, deadline=None)
def test_lyapunov_positive_away_from_equilibrium(s, i, rv):
    eq = State(29.58, 9.42, 6.28)
    x = State(s, i, rv)
    value = lyapunov_v(eq, 7.0, 2.5, x)
    if (s, i, rv) == (eq.S, eq.I, eq.R):
        assert value == 0.0
    else:
        assert value > 0.0


def test_lyapunov_domain_error(eq_high):
    with pytest.raises(ValueError):
        lyapunov_v(eq_high, 7.0, 2.5, State(10.0, 0.0, 5.0))


def test_dvdt_scan_reference_negative(ref_p, f_high, eq_high):
    assert dvdt_scan(ref_p, f_high, eq_high, 7.0, 2.5, grid_n=41) < 0.0


def test_dvdt_vanishes_toward_equilibrium(ref_p, f_high, eq_high):
    for offset in (1e-3, 1e-4):
        x = State(eq_high.S + offset, eq_high.I + offset, eq_high.R - offset)
        assert abs(dvdt_at(ref_p, f_high, eq_high, 7.0, 2.5, x)) < 10.0 * offset ** 2 + 1e-12


def test_dvdt_positive_for_bad_k1(ref_p, f_high, eq_high):
    assert dvdt_scan(ref_p, f_high, eq_high, 1000.0, 2.5, grid_n=41) > 0.0


def test_dvdt_analytic_matches_finite_differences(ref_p, f_high, eq_high):
    # gradient of V by central differences, dotted with the field
    from sirskit import vector_field
    step = 1e-6 * ref_p.s0
    for x in (State(20.0, 5.0, 3.0), State(40.0, 2.0, 7.0), State(10.0, 30.0, 4.0)):
        field = vector_field(ref_p, f_high, x)
        grad = np.empty(3)
        for axis in range(3):
            delta = np.zeros(3)
            delta[axis] = step
            plus = State(*(x.as_array() + delta))
            minus = State(*(x.as_array() - delta))
            grad[axis] = (lyapunov_v(eq_high, 7.0, 2.5, plus)
                          - lyapunov_v(eq_high, 7.0, 2.5, minus)) / (2 * step)
        fd_value = float(grad @ field)
        assert dvdt_at(ref_p, f_high, eq_high, 7.0, 2.5, x) == \
            pytest.approx(fd_value, rel=1e-6, abs=1e-8)


def test_dvdt_gamma2_zero_requires_explicit_k2():
    p = ModelParams(Lambda=10.0, mu=0.2, gamma1=0.0, gamma2=0.0, alpha=0.0, delta=0.0)
    f = make_builtin("bilinear", {"beta": 0.008})
    eq = find_endemic(p, f).endemic[0][0]
    with pytest.raises(DegenerateParameterError):
        dvdt_scan(p, f, eq, 50.0)
    assert dvdt_scan(p, f, eq, 50.0, k2=2.0) < 0.0


@pytest.mark.parametrize("k2", [0.0, -1.0, math.inf, math.nan])
def test_dvdt_scan_rejects_k2_not_positive_and_finite(ref_p, f_high, eq_high, k2):
    # the column scan's exactness rests on dV/dt being concave in R, which needs k2 > 0
    with pytest.raises(ValueError, match="k2 must be positive and finite"):
        dvdt_scan(ref_p, f_high, eq_high, 7.0, k2)


def test_pq_matrices_reference(ref_p, f_high, eq_high):
    p_mat, q_mat, minors = pq_matrices(ref_p, f_high, eq_high, 7.0, 2.5, (0.0, 0.0))
    assert np.allclose(p_mat, [[0.1, 0.2], [0.2, 0.95]], atol=1e-12)
    assert minors[0] == pytest.approx(0.1, abs=1e-15)
    assert minors[1] == pytest.approx(0.055, abs=1e-12)  # det P
    # det Q = mu*(mu+alpha)/2 - h(0)/4 with h(0) ~ 0.1117898
    assert minors[3] == pytest.approx(0.03 - 0.1117898 / 4.0, abs=1e-5)
    assert minors[3] > 0
    assert np.allclose(q_mat, q_mat.T)


def test_pq_matrices_singular_sample(ref_p, f_high, eq_high):
    with pytest.raises(SingularPointError):
        pq_matrices(ref_p, f_high, eq_high, 7.0, 2.5, (eq_high.S, 1.0))


def test_det_p_positive_iff_a1():
    # at k2 = (2mu+alpha)/gamma2 the determinant of P carries the same
    # sign as the a1 margin
    rng = np.random.default_rng(3)
    checked = 0
    diag = make_builtin("bilinear", {"beta": 0.01})
    eq = State(1.0, 1.0, 1.0)
    while checked < 200:
        p = _random_params(rng)
        if p.gamma2 == 0:
            continue
        result = check_a1(p)
        if abs(result.margin) < 1e-12:
            continue
        _, _, minors = pq_matrices(p, diag, eq, 1.0, default_k2(p), (2.0, 1.0))
        assert (minors[1] > 0) == result.passed
        checked += 1


def test_dvdt_negative_whenever_a2_passes(ref_p, f_high, eq_high):
    cases = []
    cases.append((ref_p, f_high, eq_high, 7.0, 2.5))
    k1_found = find_k1(ref_p, f_high, eq_high)
    cases.append((ref_p, f_high, eq_high, k1_found, default_k2(ref_p)))
    p_sis = ModelParams(Lambda=10.0, mu=0.2, gamma1=0.0, gamma2=0.0,
                        alpha=0.0, delta=0.0)
    f_bil = make_builtin("bilinear", {"beta": 0.008})
    eq_sis = find_endemic(p_sis, f_bil).endemic[0][0]
    cases.append((p_sis, f_bil, eq_sis, find_k1(p_sis, f_bil, eq_sis), 2.0))
    for p, f, eq, k1, k2 in cases:
        assert check_a2(p, f, eq, k1).passed
        assert dvdt_scan(p, f, eq, k1, k2, grid_n=21) < 0.0


def test_dfe_lyapunov_bound(ref_p, f_high):
    f_low = make_builtin("power", {"k": 0.0002, "q": 2.0})
    # holds for R0 below and above 1; tight (gap 0) along S = S0
    for f in (f_low, f_high):
        gap = dfe_lyapunov_bound(ref_p, f)
        assert gap <= 1e-10
        assert gap >= -1e-10


def test_dfe_bound_forces_decrease_when_subcritical(ref_p):
    # every grid point with I > 0 has dI/dt < 0 when R0 < 1
    f_low = make_builtin("power", {"k": 0.0002, "q": 2.0})
    axis = np.linspace(0.0, ref_p.s0, 101)
    ss, ii = np.meshgrid(axis, axis[1:], indexing="ij")
    keep = ss + ii <= ref_p.s0
    di = f_low.eval_f(ss[keep], ii[keep]) - ref_p.infected_outflow * ii[keep]
    assert np.all(di < 0.0)


def test_certify_reference(ref_p, f_high, eq_high):
    cert = certify(ref_p, f_high, eq_high)
    assert cert.granted
    assert cert.a1_pass
    assert cert.k1 is not None and cert.k2 == pytest.approx(2.5)
    assert cert.sup_h < cert.h_bound
    assert not cert.divergence_flag
    assert cert.dvdt_max < 0
    # the minors the report leaves out follow from its fields
    worst = check_a2(ref_p, f_high, eq_high, cert.k1).worst_point
    _, _, minors = pq_matrices(ref_p, f_high, eq_high, cert.k1, cert.k2, worst)
    assert minors[0] == minors[2] == ref_p.mu / 2
    assert minors[1] == pytest.approx(0.055, abs=1e-12)
    assert minors[1] == pytest.approx(ref_p.mu * cert.a1_margin / (2 * ref_p.gamma2),
                                      rel=1e-12)
    assert minors[3] == pytest.approx((cert.h_bound - cert.sup_h) / 4, rel=1e-9)
    assert minors[3] == pytest.approx(0.016887, abs=1e-6)


# Built-ins whose f1 does not depend on I; the coefficient is solved from R0.
_FLAT_IN_I = ("bilinear", "power", "saturated_in_I", "psi_ratio")


@given(family=st.sampled_from(_FLAT_IN_I), log_s=st.floats(-6.0, 6.0),
       lam=st.floats(0.5, 50.0), mu=st.floats(0.01, 2.0), gamma1=st.floats(0.0, 2.0),
       gamma2=st.floats(0.01, 2.0), alpha=st.floats(0.0, 2.0), delta=st.floats(0.0, 2.0),
       r0_value=st.floats(1.2, 5.0), q=st.floats(0.5, 4.0),
       k1_decades=st.one_of(st.none(), st.floats(-3.0, 3.0)))
@settings(max_examples=100, deadline=None)
def test_granted_certificate_is_sound(family, log_s, lam, mu, gamma1, gamma2, alpha,
                                      delta, r0_value, q, k1_decades):
    # (a1) and (a2) at any k1 imply P and Q positive definite at the worst
    # slope sample and dV/dt < 0 on the scanned lattice, and a k1 passes
    # (a2) only when the closed form does; a granted certificate has
    # dV/dt < 0 there too, and a refusal implies nothing
    p = ModelParams(Lambda=lam * 10.0 ** log_s, mu=mu, gamma1=gamma1, gamma2=gamma2,
                    alpha=alpha, delta=delta)
    if family != "power":
        q = 1.0
    coefficient = r0_value * p.infected_outflow / p.s0 ** q
    f = make_builtin(family, {"k": coefficient, "q": q} if family == "power"
                     else {"beta": coefficient})
    eq = find_endemic(p, f).endemic[0][0]
    cert = certify(p, f, eq)
    if cert.granted:
        assert cert.dvdt_max < 0.0
    # k1 scales as the population: near the closed form, or within three
    # decades of S0 when there is none
    k1 = cert.k1 if cert.k1 is not None else p.s0
    if k1_decades is not None:
        k1 *= 10.0 ** k1_decades
    scan = check_a2(p, f, eq, k1)
    if scan.passed:
        assert cert.k1 is not None
    if check_a1(p).passed and scan.passed:
        k2 = default_k2(p)
        _, _, minors = pq_matrices(p, f, eq, k1, k2, scan.worst_point)
        assert minors[1] > 0.0
        assert minors[3] > 0.0
        assert dvdt_scan(p, f, eq, k1, k2) < 0.0


def test_certify_scans_slopes_once(ref_p, f_high, eq_high):
    # one scan evaluates f1 on at most the grid plus its v axis at u = S*
    sizes = []

    def counting_f1(S, I):
        sizes.append(np.broadcast(S, I).size)
        return f_high.eval_f1(S, I)

    f = dataclasses.replace(f_high, eval_f1=counting_f1)
    grid_n = 201
    assert certify(ref_p, f, eq_high, grid_n=grid_n).granted
    assert sum(n for n in sizes if n > 1) <= grid_n ** 2 + grid_n


_POWER_Q25 = make_builtin("power", {"k": 1.6e-4, "q": 2.5})


@pytest.mark.parametrize("f, most, least", [
    (make_builtin("power", {"k": 0.0008, "q": 2.0}), 801, 0),
    (_POWER_Q25, 801, 0),
    (make_builtin("bilinear", {"beta": 0.04}), 801, 0),
    (forwarding(_POWER_Q25), math.inf, 600_000),
    (make_builtin("saturated_in_I", {"beta": 0.03, "a": 0.5}), math.inf, 600_000),
], ids=["power_q2", "power_q2.5", "bilinear", "forwarded_power_q2.5", "saturated_in_I"])
def test_slope_scan_work_at_grid_801(monkeypatch, ref_p, f, most, least):
    # a built-in f1 of S alone is scanned at one v per u row; any other f1,
    # even one forwarding to such a built-in, on the whole grid
    eq = find_endemic(ref_p, f).endemic[0][0]
    checked = []

    def spy(values, what, s, i):
        if what == "secant slope":
            checked.append(np.size(values))
        return require_finite(values, what, s, i)

    monkeypatch.setattr(stability, "require_finite", spy)
    find_k1(ref_p, f, eq, grid_n=801)
    assert least <= sum(checked) <= most


def test_certify_divergent_family(ref_p):
    f = make_builtin("saturated_in_I", {"beta": 0.03, "a": 0.5})
    eq = find_endemic(ref_p, f).endemic[0][0]
    cert = certify(ref_p, f, eq)
    assert not cert.granted
    assert cert.k1 is None
    assert cert.divergence_flag
    assert cert.dvdt_max is None


@pytest.mark.parametrize("n, points", [(2, 1), (3, 4)])
def test_certify_counts_dvdt_points(ref_p, f_high, eq_high, n, points):
    # the lattice of Omega has one point with I > 0 at n = 2, (0, S0, 0),
    # and four at n = 3; none lies in the ball around E1
    cert = certify(ref_p, f_high, eq_high, dvdt_grid_n=n)
    assert cert.dvdt_points == points
    assert cert.as_dict()["dvdt_points"] == points


# NaN on S < 10, I > 5: inside Omega, away from (S0, 0) = (50, 0) where R0
# and the equilibrium's f1 are evaluated.
def _nan_patch(S, I):
    return np.where((S < 10.0) & (I > 5.0), np.nan, 0.0008 * I * S * S)


_SAMPLE = r"\(S, I\) = \(([^,]+), ([^)]+)\)"


@pytest.mark.parametrize("scan", [
    lambda p, f, eq: find_k1(p, f, eq),
    lambda p, f, eq: dvdt_scan(p, f, eq, 7.0, 2.5),
    lambda p, f, eq: dfe_lyapunov_bound(p, f),
], ids=["slope_scan", "dvdt_scan", "dfe_lyapunov_bound"])
def test_non_finite_scan_names_sample(ref_p, eq_high, scan):
    f = from_callables(_nan_patch, label="nan-patch")
    with pytest.raises(EvaluationError, match=_SAMPLE) as err:
        scan(ref_p, f, eq_high)
    s, i = map(float, re.search(_SAMPLE, str(err.value)).groups())
    assert s < 10.0 and i > 5.0


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("scan", [
    lambda p, f, eq, n: dvdt_scan(p, f, eq, 7.0, 2.5, grid_n=n),
    lambda p, f, eq, n: dfe_lyapunov_bound(p, f, grid_n=n),
    lambda p, f, eq, n: certify(p, f, eq, dvdt_grid_n=n),
    lambda p, f, eq, n: certify(p, f, eq, grid_n=n),
    lambda p, f, eq, n: check_a2(p, f, eq, 7.0, grid_n=n),
    lambda p, f, eq, n: find_k1(p, f, eq, grid_n=n),
], ids=["dvdt_scan", "dfe_lyapunov_bound", "certify_dvdt_grid", "certify_grid",
        "check_a2", "find_k1"])
def test_grid_below_two_points_is_rejected(ref_p, f_high, eq_high, scan, n):
    with pytest.raises(ValueError, match=rf"at least 2\b.*, got {n}$"):
        scan(ref_p, f_high, eq_high, n)

