"""The SIRS model with transfer from infected back to susceptible.

State variables are the susceptible, infected and recovered population
sizes (S, I, R).  The dynamics are

    dS/dt = Lambda - mu*S - f(S, I) + gamma1*I + delta*R
    dI/dt = f(S, I) - (mu + gamma1 + gamma2 + alpha)*I
    dR/dt = gamma2*I - (mu + delta)*R

with recruitment Lambda, natural death rate mu, infected-to-susceptible
transfer gamma1, infected-to-recovered transfer gamma2, disease-induced
death rate alpha and immunity loss rate delta.  Adding the equations
gives d(S+I+R)/dt = Lambda - mu*(S+I+R) - alpha*I, so the simplex

    Omega = {S, I, R >= 0, S + I + R <= Lambda/mu}

is positively invariant and attracts all non-negative solutions.  The
model fixes no population unit, so every tolerance on a population is a
constant times S0 = Lambda/mu and every one on a population rate is a
constant times Lambda: results are covariant under rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .incidence import IncidenceFunction, compute_beta, require_finite


@dataclass(frozen=True)
class ModelParams:
    """The six rates of the model.  Lambda and mu must be positive,
    the remaining rates non-negative."""

    Lambda: float
    mu: float
    gamma1: float
    gamma2: float
    alpha: float
    delta: float

    def __post_init__(self):
        for name in ("Lambda", "mu"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("gamma1", "gamma2", "alpha", "delta"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value}")

    @property
    def s0(self) -> float:
        """Susceptible population at the disease-free equilibrium, Lambda/mu."""
        return self.Lambda / self.mu

    @property
    def infected_outflow(self) -> float:
        """Total per-capita outflow rate from the infected class."""
        return self.mu + self.gamma1 + self.gamma2 + self.alpha

    def as_dict(self) -> dict:
        return {"Lambda": self.Lambda, "mu": self.mu, "gamma1": self.gamma1,
                "gamma2": self.gamma2, "alpha": self.alpha, "delta": self.delta}


@dataclass(frozen=True)
class State:
    """A point (S, I, R) with non-negative components."""

    S: float
    I: float
    R: float

    def __post_init__(self):
        for name in ("S", "I", "R"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, got {value}")

    def as_array(self) -> np.ndarray:
        return np.array([self.S, self.I, self.R], dtype=float)

    def as_dict(self) -> dict:
        return {"S": self.S, "I": self.I, "R": self.R}


def make_rhs(p: ModelParams, f: IncidenceFunction):
    """The model right-hand side as a closure ``rhs(S, I, R) -> (dS, dI, dR)``.

    Works on scalars (the integrators' inner loop) and on broadcastable
    arrays (the certificate scans) alike.
    """
    lam, mu, g1, g2, delta = p.Lambda, p.mu, p.gamma1, p.gamma2, p.delta
    outflow = p.infected_outflow
    mu_delta = mu + delta
    eval_f = f.eval_f

    def rhs(s, i, r):
        fv = eval_f(s, i)
        return (lam - mu * s - fv + g1 * i + delta * r,
                fv - outflow * i,
                g2 * i - mu_delta * r)

    return rhs


def vector_field(p: ModelParams, f: IncidenceFunction, x: State) -> np.ndarray:
    """Right-hand side of the model at ``x``.

    The component sum always equals Lambda - mu*(S+I+R) - alpha*I.
    """
    return require_finite(make_rhs(p, f)(x.S, x.I, x.R), "incidence", x.S, x.I)


def dfe(p: ModelParams) -> State:
    """Disease-free equilibrium (Lambda/mu, 0, 0)."""
    return State(p.s0, 0.0, 0.0)


def r0(p: ModelParams, f: IncidenceFunction) -> float:
    """Basic reproduction number Lambda*beta / (mu * infected outflow).

    The next-generation construction degenerates to scalars here: the
    new-infection block at the disease-free equilibrium is
    (Lambda/mu)*beta and the transition block is the infected outflow
    rate, so their ratio is the spectral radius.
    """
    beta = compute_beta(f, p.Lambda, p.mu)
    return p.Lambda * beta / (p.mu * p.infected_outflow)


def omega_grid(p: ModelParams, n: int, dims: int = 3):
    """The lattice points of Omega at spacing S0/(n-1), one array per axis.

    Returns (S, I, R) for ``dims=3`` or (S, I) for ``dims=2``: the points
    (a, b[, c]) * S0/(n-1) with integers a + b [+ c] <= n - 1, taken from
    ``linspace(0, S0, n)`` and listed in lexicographic order.  Only those
    points are built, never the n**dims cube.  Boundary points whose
    floating-point sum lands just above S0 are kept; callers needing exact
    membership filter on the sum.  Raises ValueError when n < 2.
    """
    if n < 2:
        raise ValueError(f"grid size must be at least 2 points per axis, got {n}")
    axis = np.linspace(0.0, p.s0, n)
    columns, room = [], np.array([n])
    for _ in range(dims):
        # point k of the lattice so far extends to room[k] points, its next
        # index running over 0..room[k]-1
        parent = np.repeat(np.arange(room.size), room)
        index = np.arange(parent.size) - (np.cumsum(room) - room)[parent]
        columns = [col[parent] for col in columns] + [index]
        room = room[parent] - index
    return tuple(axis[col] for col in columns)
