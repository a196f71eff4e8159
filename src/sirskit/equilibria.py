"""Endemic equilibria via a line-curve intersection in the (I, S) plane.

At any equilibrium with I > 0 the R balance forces
R = gamma2*I/(mu + delta); substituting into the S balance puts (I, S)
on the affine line

    S = Lambda/mu - (mu + gamma2 + alpha - delta*gamma2/(mu+delta)) * I / mu,

while the I balance requires f1(S, I) = mu + gamma1 + gamma2 + alpha.
Endemic equilibria are therefore roots of

    g(I) = f1(equilibrium_line(I), I) - infected_outflow

on (0, I0), where I0 is the line's I-axis intercept.  The solver scans
uniform subintervals for sign changes and bisects each, then verifies
every candidate as a root of the vector field.  It reports a list and
does not assume uniqueness.
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
    ``i0`` is the I-axis intercept of the equilibrium line and
    ``s_star_curve`` the S value where f1(S, 0+) meets the infected
    outflow rate, when such a value exists below 10*S0.  ``bracket_log``
    lists the (I_lo, I_hi) subintervals where a sign change was found.
    """

    dfe: State
    endemic: list = field(default_factory=list)
    r0: float = 0.0
    i0: float = 0.0
    s_star_curve: float | None = None
    bracket_log: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "dfe": self.dfe.as_dict(),
            "r0": self.r0,
            "i0": self.i0,
            "s_star_curve": self.s_star_curve,
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


def _bisect(g, lo: float, hi: float, g_lo: float, tol: float) -> float:
    """Bisect a sign change of g down to width ``tol``, or to adjacent
    doubles when ``tol`` is below their spacing."""
    for _ in range(_BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol or mid in (lo, hi):
            break
        g_mid = g(mid)
        if g_mid == 0.0:
            return mid
        if (g_lo > 0) == (g_mid > 0):
            lo, g_lo = mid, g_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _s_star_curve(p: ModelParams, f: IncidenceFunction) -> float | None:
    """S where f1(S, 0+) reaches the infected outflow rate, if any.

    Diagnostic only; evaluated at I = 1e-8 by coarse scan plus bisection
    over (0, 10*S0], returning None when no sign change exists there.
    """
    i_probe = 1e-8
    target = p.infected_outflow

    def g(s):
        return float(f.eval_f1(s, i_probe)) - target

    axis = np.linspace(1e-12 * p.s0, 10.0 * p.s0, 512)
    values = np.asarray(f.eval_f1(axis, i_probe + 0.0 * axis), dtype=float) - target
    signs = np.sign(values)
    for n in range(len(axis) - 1):
        if values[n] == 0.0:
            return float(axis[n])
        if signs[n] * signs[n + 1] < 0:
            return float(_bisect(g, float(axis[n]), float(axis[n + 1]),
                                 float(values[n]), 1e-10 * p.s0))
    return None


def find_endemic(p: ModelParams, f: IncidenceFunction, tol: float = 1e-10,
                 n_brackets: int = 256) -> EquilibriumReport:
    """Locate endemic equilibria and verify them against the vector field.

    Scans ``n_brackets`` uniform subintervals of (eps, I0 - eps) with
    eps = 1e-9*I0 for sign changes of g, bisects each bracket to an
    I-interval below ``tol`` (or to adjacent doubles, when those are
    farther apart), reconstructs S from the equilibrium line
    and R = gamma2*I/(mu+delta), and requires the vector-field residual
    of every candidate to stay below 10*tol.

    Raises BracketFailureError (carrying the g samples) when R0 > 1 but
    no sign change is found, and VerificationError when a candidate
    fails the residual check.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if n_brackets < 16:
        raise ValueError(f"n_brackets must be at least 16, got {n_brackets}")

    r0_value = r0(p, f)
    i0 = i_axis_intercept(p)
    outflow = p.infected_outflow

    def g(i):
        return float(f.eval_f1(equilibrium_line(p, i), i)) - outflow

    eps = 1e-9 * i0
    grid = np.linspace(eps, i0 - eps, n_brackets + 1)
    g_values = np.asarray(f.eval_f1(equilibrium_line(p, grid), grid), dtype=float) - outflow

    roots = []
    brackets = []
    for n in range(n_brackets):
        lo, hi = float(grid[n]), float(grid[n + 1])
        g_lo, g_hi = float(g_values[n]), float(g_values[n + 1])
        if g_lo == 0.0:
            roots.append(lo)
            brackets.append((lo, lo))
        elif g_lo * g_hi < 0:
            brackets.append((lo, hi))
            roots.append(_bisect(g, lo, hi, g_lo, tol))
    if g_values[-1] == 0.0:
        roots.append(float(grid[-1]))
        brackets.append((float(grid[-1]), float(grid[-1])))

    # The failure guard needs R0 above 1 by more than round-off: at the
    # threshold itself the root merges with I = 0 and an empty result is
    # the correct answer, not a missed bracket.
    if r0_value > 1 + 1e-9 and not roots:
        raise BracketFailureError(
            f"R0 = {r0_value:g} > 1 but no sign change in {n_brackets} brackets; "
            "raise n_brackets",
            samples=[(float(i), float(v)) for i, v in zip(grid, g_values)])

    endemic = []
    for i_star in sorted(roots):
        state = State(equilibrium_line(p, i_star), i_star,
                      p.gamma2 * i_star / (p.mu + p.delta))
        residual = verify_equilibrium(p, f, state)
        if residual >= 10.0 * tol:
            raise VerificationError(
                f"candidate at I = {i_star:.12g} has residual {residual:g} "
                f">= {10.0 * tol:g}")
        endemic.append((state, residual))

    # Bisection brackets are disjoint, so distinct roots cannot collide.
    for a, b in zip(endemic, endemic[1:]):
        assert b[0].I - a[0].I >= 10.0 * tol, "reported roots closer than 10*tol"

    return EquilibriumReport(
        dfe=dfe(p),
        endemic=endemic,
        r0=r0_value,
        i0=i0,
        s_star_curve=_s_star_curve(p, f),
        bracket_log=brackets,
    )
