"""Endemic equilibria via a line-curve intersection in the (I, S) plane.

At any equilibrium with I > 0 the R balance forces
R = gamma2*I/(mu + delta); substituting into the S balance puts (I, S)
on the affine line

    S = Lambda/mu - (mu + gamma2 + alpha - delta*gamma2/(mu+delta)) * I / mu,

while the I balance requires f1(S, I) = mu + gamma1 + gamma2 + alpha.
Endemic equilibria are therefore roots of

    g(I) = f1(equilibrium_line(I), I) - infected_outflow

on (0, I0), where I0 is the line's I-axis intercept.  Under (H1) and
(H2) the root is unique (Korobeinikov & Maini, Math. Med. Biol. 22,
2005): along the line S falls as I rises, so f1 falls, and g is
strictly decreasing from g(0) = outflow*(R0 - 1) to g(I0) = -outflow.
The solver therefore evaluates g near the two ends of (0, I0), bisects
that one bracket to adjacent doubles when g changes sign across it,
and verifies the root against the vector field.  Just above R0 = 1 the
root can lie below the bracket's lower end 1e-9*I0; the solver then
bisects (0, 1e-9*I0) instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BracketFailureError, VerificationError
from .incidence import IncidenceFunction
from .model import ModelParams, State, r0, vector_field


@dataclass(frozen=True)
class EquilibriumReport:
    """The endemic equilibrium with diagnostics.

    ``endemic`` holds the one (State, residual max-norm) pair, or is
    empty.  ``i0`` is the I-axis intercept of the equilibrium line.
    ``bracket_log`` holds the (I_lo, I_hi) bracket that was bisected, or
    is empty.  ``as_dict`` leaves out ``r0``, which reports print at
    their top level.
    """

    r0: float
    i0: float
    endemic: list = field(default_factory=list)
    bracket_log: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
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


def find_endemic(p: ModelParams, f: IncidenceFunction) -> EquilibriumReport:
    """Locate the endemic equilibrium and verify it against the vector field.

    Evaluates g at the ends of the bracket (eps, I0 - eps), with
    eps = 1e-9*I0, and bisects it to adjacent doubles when g is positive
    at the lower end and negative at the upper one; when R0 > 1 but g is
    already non-positive at eps, it bisects (0, eps) instead.  S comes
    from the equilibrium line, R = gamma2*I/(mu+delta), and the
    vector-field residual must stay below 1e-10*Lambda.  Otherwise there
    is no endemic equilibrium.

    Precondition: f satisfies (H1) and (H2), under which the root is
    unique.  For any other f1 the result holds at most one root, and
    other roots may be missed.  ``attractor`` does not check the
    hypotheses, but every built-in family that passes ``compute_beta``
    satisfies them.

    Raises BracketFailureError, giving g at both ends, when R0 > 1 but
    neither bracket holds a root, and VerificationError when the root
    fails the residual check.
    """
    r0_value = r0(p, f)
    i0 = i_axis_intercept(p)
    outflow = p.infected_outflow
    s0, rate, mu, eval_f1 = p.s0, _line_slope_rate(p), p.mu, f.eval_f1

    def g(i):
        # f1 on equilibrium_line, with its terms bound once
        return float(eval_f1(s0 - rate * i / mu, i)) - outflow

    eps = 1e-9 * i0
    lo, hi = eps, i0 - eps
    g_lo, g_hi = g(lo), g(hi)
    if not g_lo > 0.0 > g_hi:
        # The failure guard needs R0 above 1 by more than round-off: at the
        # threshold itself the root merges with I = 0 and an empty result is
        # the correct answer, not a missed bracket.
        if not r0_value > 1 + 1e-9:
            return EquilibriumReport(r0=r0_value, i0=i0)
        # Just above the threshold the root, near outflow*(R0-1)/|g'(0)|, can be below eps.
        g_zero = g(0.0)
        if not g_zero > 0.0 >= g_lo:
            raise BracketFailureError(
                f"R0 = {r0_value:.12g} > 1 but g does not fall from positive to negative "
                f"across the bracket: g({lo:g}) = {g_lo:g}, g({hi:g}) = {g_hi:g}")
        lo, hi, g_lo = 0.0, eps, g_zero

    i_star = _bisect(g, lo, hi, g_lo)
    state = State(equilibrium_line(p, i_star), i_star, p.gamma2 * i_star / (p.mu + p.delta))
    residual = verify_equilibrium(p, f, state)
    gate = 1e-10 * p.Lambda
    if residual >= gate:
        raise VerificationError(
            f"candidate at I = {i_star:.12g} has residual {residual:g} >= {gate:g}")
    return EquilibriumReport(r0=r0_value, i0=i0, endemic=[(state, residual)],
                             bracket_log=[(lo, hi)])
