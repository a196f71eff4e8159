import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirskit import (
    ModelParams,
    State,
    dfe,
    from_callables,
    make_builtin,
    r0,
    vector_field,
)
from sirskit.model import omega_grid

from conftest import FAMILY_INSTANCES, HYPOTHESIS_FAMILIES, REF


@pytest.mark.parametrize("field, value", [
    ("Lambda", 0.0), ("Lambda", -1.0), ("mu", 0.0), ("mu", -0.5),
    ("gamma1", -0.1), ("gamma2", -0.1), ("alpha", -0.1), ("delta", -0.1),
])
def test_params_validation(field, value):
    kwargs = dict(REF)
    kwargs[field] = value
    with pytest.raises(ValueError, match=field):
        ModelParams(**kwargs)


def test_params_accept_zero_transfer_rates():
    p = ModelParams(Lambda=10.0, mu=0.2, gamma1=0.0, gamma2=0.0, alpha=0.0, delta=0.0)
    assert p.infected_outflow == 0.2


def test_state_validation():
    with pytest.raises(ValueError):
        State(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        State(1.0, float("nan"), 0.0)


def test_vector_field_zero_at_dfe(ref_params, high_incidence):
    assert np.max(np.abs(vector_field(ref_params, high_incidence,
                                      dfe(ref_params)))) <= 1e-12


@pytest.mark.parametrize("family", HYPOTHESIS_FAMILIES)
def test_vector_field_zero_at_dfe_every_family(ref_params, family):
    f = make_builtin(family, FAMILY_INSTANCES[family])
    assert np.max(np.abs(vector_field(ref_params, f, dfe(ref_params)))) <= 1e-12


def test_vector_field_at_reference_endemic_point(ref_params, high_incidence):
    x = State(29.5804, 9.4244, 6.2830)
    assert np.max(np.abs(vector_field(ref_params, high_incidence, x))) < 1e-3


def test_vector_field_with_zero_incidence(ref_params):
    # f == 0 decouples the system; direct substitution at (0, 1, 0).
    f = from_callables(lambda S, I: 0.0 * S * I, f1=lambda S, I: 0.0 * S,
                       label="zero")
    out = vector_field(ref_params, f, State(0.0, 1.0, 0.0))
    p = ref_params
    assert out == pytest.approx([p.Lambda + p.gamma1, -p.infected_outflow, p.gamma2])


@pytest.mark.parametrize("family", sorted(FAMILY_INSTANCES))
@given(s=st.floats(0.0, 50.0), i=st.floats(0.0, 50.0), rv=st.floats(0.0, 50.0))
@settings(max_examples=50, deadline=None)
def test_component_sum_identity(family, s, i, rv):
    p = ModelParams(**REF)
    f = make_builtin(family, FAMILY_INSTANCES[family])
    total = float(np.sum(vector_field(p, f, State(s, i, rv))))
    expected = p.Lambda - p.mu * (s + i + rv) - p.alpha * i
    assert abs(total - expected) <= 1e-12


@pytest.mark.parametrize("lam, mu, expected", [
    (10.0, 0.2, 50.0),
    (0.3, 0.3, 1.0),
    (7.5, 0.3, 25.0),
])
def test_dfe(lam, mu, expected):
    p = ModelParams(Lambda=lam, mu=mu, gamma1=0.2, gamma2=0.2, alpha=0.1, delta=0.1)
    eq = dfe(p)
    assert (eq.S, eq.I, eq.R) == (pytest.approx(expected, rel=1e-15), 0.0, 0.0)


def test_r0_reference_values(ref_params, low_incidence, high_incidence):
    assert r0(ref_params, low_incidence) == pytest.approx(0.7143, abs=1e-4)
    assert r0(ref_params, high_incidence) == pytest.approx(2.8571, abs=1e-4)


def test_r0_threshold_value(ref_params):
    # beta chosen so Lambda*beta == mu*outflow gives exactly the threshold.
    beta = ref_params.mu * ref_params.infected_outflow / ref_params.Lambda
    f = make_builtin("bilinear", {"beta": beta})
    assert r0(ref_params, f) == pytest.approx(1.0, rel=1e-12)


def test_r0_monotonic_in_rates():
    # bilinear keeps beta fixed as the rates vary
    base = dict(REF)
    f = make_builtin("bilinear", {"beta": 0.05})
    r_base = r0(ModelParams(**base), f)
    assert r0(ModelParams(**base), make_builtin("bilinear", {"beta": 0.06})) > r_base
    for field in ("mu", "gamma1", "gamma2", "alpha"):
        bumped = dict(base)
        bumped[field] = base[field] + 0.05
        assert r0(ModelParams(**bumped), f) < r_base, field


@pytest.mark.parametrize("dims", [2, 3])
@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("n", [2, 3, 8, 41])
def test_omega_grid_matches_dense_mask(n, scale, dims):
    # the dense grid masked with a relative slack on S0: same values, same order
    p = ModelParams(**dict(REF, Lambda=REF["Lambda"] * scale))
    axis = np.linspace(0.0, p.s0, n)
    dense = np.meshgrid(*[axis] * dims, indexing="ij")
    keep = sum(dense) <= p.s0 * (1.0 + 1e-12)
    grid = omega_grid(p, n, dims=dims)
    assert len(grid) == dims
    for got, want in zip(grid, dense):
        assert got.tobytes() == want[keep].tobytes()
