import dataclasses

import pytest

from sirskit import ModelParams, make_builtin

# One parameter set used throughout: the bundled reference scenario.
REF = dict(Lambda=10.0, mu=0.2, gamma1=0.2, gamma2=0.2, alpha=0.1, delta=0.1)


@pytest.fixture
def ref_params():
    return ModelParams(**REF)


@pytest.fixture
def low_incidence():
    # power-law contact below the epidemic threshold (R0 < 1)
    return make_builtin("power", {"k": 0.0002, "q": 2.0})


@pytest.fixture
def high_incidence():
    # same family above the threshold (R0 > 1)
    return make_builtin("power", {"k": 0.0008, "q": 2.0})


# Representative instance of every built-in family.
FAMILY_INSTANCES = {
    "bilinear": {"beta": 0.5},
    "power": {"k": 0.0008, "q": 2.0},
    "saturated_in_I": {"beta": 0.1, "a": 2.0},
    "psi_ratio": {"beta": 0.1, "a": 1.0, "b": 0.5},
    "ruan": {"beta": 0.5, "rho": 1.0},
}

# Families satisfying all three structural hypotheses (ruan fails H2/H3).
HYPOTHESIS_FAMILIES = ("bilinear", "power", "saturated_in_I", "psi_ratio")


def forwarding(f):
    """``f`` with an f1 that calls f's own: the same values from a function
    that ``make_builtin`` did not build."""
    return dataclasses.replace(f, eval_f1=lambda S, I: f.eval_f1(S, I))
