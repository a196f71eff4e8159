"""Endemic equilibria via a line-curve intersection in the (I, S) plane.

At any equilibrium with I > 0 the R balance forces
R = gamma2*I/(mu + delta); substituting into the S balance puts (I, S)
on the affine line

    S = Lambda/mu - (mu + gamma2 + alpha - delta*gamma2/(mu+delta)) * I / mu,

while the I balance requires f1(S, I) = mu + gamma1 + gamma2 + alpha.
Endemic equilibria are therefore roots of

    g(I) = f1(equilibrium_line(I), I) - infected_outflow

on (0, I0), where I0 is the line's I-axis intercept.  The solver scans
uniform subintervals for sign changes and bisects each to adjacent
doubles, then verifies every candidate as a root of the vector field.
It reports a list and does not assume uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailureError, VerificationError
from .incidence import IncidenceFunction
from .model import ModelParams, State, dfe, r0, vector_field


@dataclass(frozen=True)
class EquilibriumReport:
    """Disease-free and endemic equilibria with diagnostics.

    ``endemic`` holds (State, residual max-norm) pairs sorted by I.
    ``i0`` is the I-axis intercept of the equilibrium line.
    ``bracket_log`` lists the (I_lo, I_hi) subintervals where a sign
    change was found.
    """

    dfe: State
    endemic: list = field(default_factory=list)
    r0: float = 0.0
    i0: float = 0.0
    bracket_log: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "dfe": self.dfe.as_dict(),
            "r0": self.r0,
            "i0": self.i0,
            "endemic": [{"state": s.as_dict(), "residual": res} for s, res in self.endemic],
            "bracket_log": [[lo, hi] for lo, hi in self.bracket_log],
        }


def _line_slope_rate(p: ModelParams) -> float:
    """The positive rate multiplying I in the equilibrium line."""
    return p.mu + p.gamma2 + p.alpha - p.delta * p.gamma2 / (p.mu + p.delta)


def equilibrium_line(p: ModelParams, I) -> float:
    """S as a function of I along the S and R balance at equilibrium.

    The slope is always negative: (mu+gamma2+alpha)(mu+delta) exceeds
    delta*gamma2 for any valid parameters.
    """
    return p.s0 - _line_slope_rate(p) * I / p.mu


def i_axis_intercept(p: ModelParams) -> float:
    """Where the equilibrium line crosses S = 0."""
    return p.Lambda / _line_slope_rate(p)


def verify_equilibrium(p: ModelParams, f: IncidenceFunction, x: State) -> float:
    """Max-norm of the vector field at ``x``."""
    return float(np.max(np.abs(vector_field(p, f, x))))


# Uniform subintervals of (eps, I0 - eps) scanned for sign changes of g.
_N_BRACKETS = 256

# Halving reaches adjacent doubles within about 2,100 steps even across the
# whole exponent range, so the cap only guards against a runaway loop.
_BISECT_MAX_ITER = 2_200


def _bisect(g, lo: float, hi: float, g_lo: float) -> float:
    """Bisect a sign change of g down to adjacent doubles."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_lo > 0) == (g_mid > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _roots(g, grid: np.ndarray, values: np.ndarray) -> list:
    """(root, bracket) pairs of g in grid order, given its ``values`` on
    ``grid``: a sample where g is exactly zero is a root with bracket
    (x, x), and a sign change between adjacent samples is bisected."""
    grid, values = grid.tolist(), values.tolist()
    found = []
    for n, (x, v) in enumerate(zip(grid, values)):
        if v == 0.0:
            found.append((x, (x, x)))
        elif n + 1 < len(grid) and (v < 0.0 < values[n + 1] or v > 0.0 > values[n + 1]):
            found.append((_bisect(g, x, grid[n + 1], v), (x, grid[n + 1])))
    return found


def find_endemic(p: ModelParams, f: IncidenceFunction) -> EquilibriumReport:
    """Locate endemic equilibria and verify them against the vector field.

    Scans 256 uniform subintervals of (eps, I0 - eps) with
    eps = 1e-9*I0 for sign changes of g, bisects each bracket to
    adjacent doubles, reconstructs S from the equilibrium line
    and R = gamma2*I/(mu+delta), and requires the vector-field residual
    of every candidate to stay below 1e-10*Lambda.

    Raises BracketFailureError (carrying the 257 g samples) when R0 > 1
    but no sign change is found, and VerificationError when a candidate
    fails the residual check.
    """
    r0_value = r0(p, f)
    i0 = i_axis_intercept(p)
    outflow = p.infected_outflow

    def g(i):
        return float(f.eval_f1(equilibrium_line(p, i), i)) - outflow

    eps = 1e-9 * i0
    grid = np.linspace(eps, i0 - eps, _N_BRACKETS + 1)
    g_values = np.asarray(f.eval_f1(equilibrium_line(p, grid), grid), dtype=float) - outflow
    found = _roots(g, grid, g_values)

    # The failure guard needs R0 above 1 by more than round-off: at the
    # threshold itself the root merges with I = 0 and an empty result is
    # the correct answer, not a missed bracket.
    if r0_value > 1 + 1e-9 and not found:
        raise BracketFailureError(
            f"R0 = {r0_value:g} > 1 but no sign change in {_N_BRACKETS} brackets",
            samples=[(float(i), float(v)) for i, v in zip(grid, g_values)])

    gate = 1e-10 * p.Lambda
    endemic = []
    for i_star, _ in found:
        state = State(equilibrium_line(p, i_star), i_star,
                      p.gamma2 * i_star / (p.mu + p.delta))
        residual = verify_equilibrium(p, f, state)
        if residual >= gate:
            raise VerificationError(
                f"candidate at I = {i_star:.12g} has residual {residual:g} >= {gate:g}")
        endemic.append((state, residual))

    return EquilibriumReport(
        dfe=dfe(p),
        endemic=endemic,
        r0=r0_value,
        i0=i0,
        bracket_log=[bracket for _, bracket in found],
    )
