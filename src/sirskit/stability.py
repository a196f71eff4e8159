"""Numerical global-stability certificates for both equilibria.

For the disease-free equilibrium the bound

    dI/dt <= (mu + gamma1 + gamma2 + alpha) * (R0 - 1) * I

is verified on a grid over the feasible region, which makes I a strict
Lyapunov-style decrease witness whenever R0 < 1.

For an endemic equilibrium E1 = (S*, I*, R*) the certificate uses the
function

    V(S, I, R) = (1/2)(S - S* + I - I* + R - R*)^2
                 + k1*(I - I* - I* * ln(I/I*))
                 + (k2/2)(R - R*)^2

whose derivative along trajectories is -w^T Q w - v^T P v with
w = (S - S*, I - I*), v = (S - S*, R - R*) and

    P = [[mu/2, mu], [mu, mu + k2*(mu+delta)]],
    Q = [[mu/2, (2mu + alpha - k1*G)/2], [(2mu + alpha - k1*G)/2, mu + alpha]],

where G(u, v) = (f1(u, v) - f1(S*, I*)) / (u - S*) is the secant slope
of the incidence factor.  Both matrices are positive definite when two
conditions hold:

    (a1)  (2mu + alpha)(mu + delta) > mu*gamma2, and
    (a2)  some k1 > 0 keeps h(u, v) = (2mu + alpha - k1*G(u, v))^2
          below 2mu*(mu + alpha) for all u != S* in [0, Lambda/mu].

k2 = (2mu + alpha)/gamma2 cancels the (I - I*)(R - R*) cross term and is
the default whenever gamma2 > 0.

With c = 2mu + alpha, h = (c - k1*G)^2 is convex in G, so over any set
of samples its supremum sits at the smallest or largest slope, Gmin or
Gmax.  Condition (a2) therefore only needs the slope range: the k1
minimising sup h is 2c/(Gmin + Gmax), where sup h = c^2 *
((Gmax - Gmin)/(Gmax + Gmin))^2, and no k1 > 0 can pass when
Gmin + Gmax <= 0.

Certificates here are grid-based confirmation, not interval proofs: the
slope range is taken over a grid plus refinement toward u = S*, and a
pass means "verified at the reported grid resolution".  When f1
genuinely depends on I the slope G blows up near u = S* and no k1 can
exist; the refinement surfaces that through ``divergence_flag``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateParameterError, EvaluationError, SingularPointError
from .incidence import IncidenceFunction
from .model import ModelParams, State, make_rhs, r0

_SINGULAR_TOL = 1e-12


class A1Check(NamedTuple):
    passed: bool
    margin: float
    remark_value: float


@dataclass(frozen=True)
class A2Scan:
    """Result of scanning h(u, v) over [0, Lambda/mu]^2."""

    sup_h: float
    h_bound: float
    passed: bool
    divergence_flag: bool
    worst_point: tuple[float, float]


@dataclass(frozen=True)
class CertificateReport:
    """Outcome of the endemic-stability certificate checks.

    Minor pairs hold the leading principal minors (top-left entry,
    determinant); ``q_minors`` is evaluated at the sample where h is
    largest.  ``dvdt_max`` is the largest sampled derivative of V
    outside a ball around the equilibrium and is negative whenever the
    certificate is sound.
    """

    a1_pass: bool
    a1_margin: float
    a1_remark_value: float
    k1: float | None
    k2: float | None
    sup_h: float
    h_bound: float
    divergence_flag: bool
    p_minors: tuple[float, float] | None
    q_minors: tuple[float, float] | None
    dvdt_max: float | None
    grid_n: int
    exclusion: float

    @property
    def granted(self) -> bool:
        return (self.a1_pass and self.k1 is not None
                and self.sup_h < self.h_bound and not self.divergence_flag)

    def as_dict(self) -> dict:
        return {
            "granted": self.granted,
            "a1_pass": self.a1_pass,
            "a1_margin": self.a1_margin,
            "a1_remark_value": self.a1_remark_value,
            "k1": self.k1,
            "k2": self.k2,
            "sup_h": self.sup_h,
            "h_bound": self.h_bound,
            "divergence_flag": self.divergence_flag,
            "p_minors": list(self.p_minors) if self.p_minors is not None else None,
            "q_minors": list(self.q_minors) if self.q_minors is not None else None,
            "dvdt_max": self.dvdt_max,
            "grid_n": self.grid_n,
            "exclusion": self.exclusion,
        }


def check_a1(p: ModelParams) -> A1Check:
    """Check (2mu+alpha)(mu+delta) > mu*gamma2.

    Returns the margin of that inequality together with its expanded
    form 2mu^2 + (alpha + 2delta - gamma2)*mu + alpha*delta; the two are
    algebraically identical, so their signs always agree.
    """
    margin = (2.0 * p.mu + p.alpha) * (p.mu + p.delta) - p.mu * p.gamma2
    remark = (2.0 * p.mu * p.mu
              + (p.alpha + 2.0 * p.delta - p.gamma2) * p.mu
              + p.alpha * p.delta)
    return A1Check(passed=margin > 0, margin=float(margin), remark_value=float(remark))


def secant_slope(f: IncidenceFunction, eq: State, u, v):
    """(f1(u, v) - f1(S*, I*)) / (u - S*), the slope G of the certificate.

    Accepts scalars (returning a float) or broadcastable arrays.  v = 0
    uses the continuous extension of f1.  Raises SingularPointError when
    any u is within 1e-12 of S*.
    """
    offset = np.asarray(u, dtype=float) - eq.S
    if np.any(np.abs(offset) < _SINGULAR_TOL):
        raise SingularPointError(f"secant slope undefined at u = S* = {eq.S:g}")
    f1_star = float(f.eval_f1(eq.S, eq.I))
    g = (np.asarray(f.eval_f1(u, v), dtype=float) - f1_star) / offset
    return float(g) if g.ndim == 0 else g


class _SlopeRange(NamedTuple):
    """Extremes of G over the scan samples and the (u, v) reaching each."""

    g_min: float
    g_max: float
    at_min: tuple[float, float]
    at_max: tuple[float, float]
    divergence_flag: bool


def _slope_range(f: IncidenceFunction, eq: State, s0: float,
                 grid_n: int, exclusion: float) -> _SlopeRange:
    """G over a grid_n x grid_n grid on [0, S0]^2 minus the strip
    |u - S*| < exclusion, plus spokes at offsets exclusion/{1, 4, 16}."""
    axis = np.linspace(0.0, s0, grid_n)
    uu, vv = np.meshgrid(axis, axis, indexing="ij")
    keep = np.abs(uu - eq.S) >= exclusion
    us, vs = [uu[keep]], [vv[keep]]
    offsets = (exclusion, exclusion / 4.0, exclusion / 16.0)
    for side in (1.0, -1.0):
        spoke = [eq.S + side * off for off in offsets]
        if all(0.0 <= u_val <= s0 for u_val in spoke):
            us += [u_val + 0.0 * axis for u_val in spoke]
            vs += [axis] * len(offsets)
    u_all, v_all = np.concatenate(us), np.concatenate(vs)
    g = secant_slope(f, eq, u_all, v_all)
    if not np.all(np.isfinite(g)):
        bad = int(np.flatnonzero(~np.isfinite(g))[0])
        raise EvaluationError(
            f"secant slope non-finite at (u, v) = ({u_all[bad]:g}, {v_all[bad]:g})")

    # Along each spoke removable singularities keep |G| bounded, genuine
    # ones grow ~1/offset: compare the innermost offset with the outermost.
    spokes = np.abs(g[us[0].size:]).reshape(-1, len(offsets), grid_n)
    divergence = bool(np.any(spokes[:, -1] > 10.0 * np.maximum(spokes[:, 0], _SINGULAR_TOL)))
    lo, hi = int(np.argmin(g)), int(np.argmax(g))
    return _SlopeRange(g_min=float(g[lo]), g_max=float(g[hi]),
                       at_min=(float(u_all[lo]), float(v_all[lo])),
                       at_max=(float(u_all[hi]), float(v_all[hi])),
                       divergence_flag=divergence)


def _a2_scan(p: ModelParams, slopes: _SlopeRange, k1: float) -> A2Scan:
    # h is convex in G and rounding is monotone, so the sampled supremum
    # of h is reached at Gmin or Gmax, bit for bit.
    h = (2.0 * p.mu + p.alpha - k1 * np.array([slopes.g_min, slopes.g_max])) ** 2
    worst = int(np.argmax(h))
    sup_h = float(h[worst])
    bound = 2.0 * p.mu * (p.mu + p.alpha)
    return A2Scan(
        sup_h=sup_h,
        h_bound=bound,
        passed=sup_h < bound and not slopes.divergence_flag,
        divergence_flag=slopes.divergence_flag,
        worst_point=(slopes.at_min, slopes.at_max)[worst],
    )


def _optimal_k1(p: ModelParams, slopes: _SlopeRange) -> float | None:
    total = slopes.g_min + slopes.g_max
    if total <= 0.0:
        return None
    k1 = 2.0 * (2.0 * p.mu + p.alpha) / total
    return k1 if _a2_scan(p, slopes, k1).passed else None


def check_a2(p: ModelParams, f: IncidenceFunction, eq: State, k1: float,
             grid_n: int = 201, exclusion: float | None = None) -> A2Scan:
    """Scan h(u, v) = (2mu + alpha - k1*G(u, v))^2 against 2mu*(mu+alpha).

    Takes the range of G on a grid_n x grid_n grid over [0, Lambda/mu]^2
    with the strip |u - S*| < exclusion removed, plus refinement spokes
    at offsets exclusion/{1, 4, 16} from S*; sup h is reached at one of
    its ends.  Passes when the supremum stays below the bound and |G|
    shows no divergent growth toward S*.
    """
    if k1 < 0:
        raise ValueError(f"k1 must be non-negative, got {k1}")
    if exclusion is None:
        exclusion = 1e-4 * p.s0
    return _a2_scan(p, _slope_range(f, eq, p.s0, grid_n, exclusion), k1)


def find_k1(p: ModelParams, f: IncidenceFunction, eq: State,
            grid_n: int = 201, exclusion: float | None = None) -> float | None:
    """The k1 minimising sup h over the scan samples, or None.

    That is k1 = 2(2mu+alpha)/(Gmin + Gmax), where both parabolas
    (2mu + alpha - k1*G)^2 at the slope extremes take equal values.  It
    is None when Gmin + Gmax <= 0 (no positive k1 lowers h below
    (2mu+alpha)^2), or when even this k1 fails condition (a2).  Absence
    of a valid k1 is a value, not an error.
    """
    if exclusion is None:
        exclusion = 1e-4 * p.s0
    return _optimal_k1(p, _slope_range(f, eq, p.s0, grid_n, exclusion))


def default_k2(p: ModelParams) -> float:
    """(2mu + alpha)/gamma2, the choice cancelling the I-R cross term."""
    if p.gamma2 == 0:
        raise DegenerateParameterError(
            "gamma2 = 0 leaves the default k2 undefined; pass k2 explicitly")
    return (2.0 * p.mu + p.alpha) / p.gamma2


def lyapunov_v(eq: State, k1: float, k2: float, x: State) -> float:
    """The certificate function V at ``x``; zero exactly at the equilibrium."""
    if x.I <= 0:
        raise ValueError(f"V requires I > 0, got I = {x.I}")
    if not (k1 > 0 and k2 > 0):
        raise ValueError("k1 and k2 must be positive")
    shift = (x.S - eq.S) + (x.I - eq.I) + (x.R - eq.R)
    log_term = x.I - eq.I - eq.I * math.log(x.I / eq.I)
    return 0.5 * shift * shift + k1 * log_term + 0.5 * k2 * (x.R - eq.R) ** 2


def _dvdt(eq: State, k1: float, k2: float, s, i, r, field):
    """dV/dt at (s, i, r), given the model right-hand side ``field`` there."""
    ds, di, dr = field
    shift = (s - eq.S) + (i - eq.I) + (r - eq.R)
    return (shift * (ds + di + dr)
            + k1 * (1.0 - eq.I / i) * di
            + k2 * (r - eq.R) * dr)


def dvdt_at(p: ModelParams, f: IncidenceFunction, eq: State,
            k1: float, k2: float, x: State) -> float:
    """Derivative of V along the flow at a single state (analytic gradient)."""
    if x.I <= 0:
        raise ValueError(f"dV/dt requires I > 0, got I = {x.I}")
    return float(_dvdt(eq, k1, k2, x.S, x.I, x.R, make_rhs(p, f)(x.S, x.I, x.R)))


def dvdt_scan(p: ModelParams, f: IncidenceFunction, eq: State, k1: float,
              k2: float | None = None, grid_n: int = 41,
              ball: float | None = None) -> float:
    """Maximum of dV/dt over a grid on Omega excluding a ball around eq.

    The gradient of V is taken analytically; finite differences of V are
    only a cross-check in the test suite.  A sound certificate makes the
    returned maximum negative.
    """
    k2_value = default_k2(p) if k2 is None else k2
    s0 = p.s0
    ball_radius = 1e-3 * s0 if ball is None else ball
    axis = np.linspace(0.0, s0, grid_n)
    ss, ii, rr = np.meshgrid(axis, axis, axis, indexing="ij")
    keep = (ss + ii + rr <= s0 * (1.0 + 1e-12)) & (ii > 0)
    keep &= ((ss - eq.S) ** 2 + (ii - eq.I) ** 2 + (rr - eq.R) ** 2) > ball_radius ** 2
    ss, ii, rr = ss[keep], ii[keep], rr[keep]

    field = make_rhs(p, f)(ss, ii, rr)
    if not np.all(np.isfinite(field[1])):
        raise EvaluationError("incidence non-finite on the dV/dt scan grid")
    return float(np.max(_dvdt(eq, k1, k2_value, ss, ii, rr, field)))


def pq_matrices(p: ModelParams, f: IncidenceFunction, eq: State,
                k1: float, k2: float, sample: tuple[float, float]):
    """The two quadratic-form matrices and their leading principal minors.

    Q depends on the sample (u, v) through the secant slope; P does not.
    Returns (P, Q, minors) with minors = (mu/2, det P, mu/2, det Q).
    """
    u, v = sample
    g = secant_slope(f, eq, u, v)
    off_q = 0.5 * (2.0 * p.mu + p.alpha - k1 * g)
    p_mat = np.array([[0.5 * p.mu, p.mu],
                      [p.mu, p.mu + k2 * (p.mu + p.delta)]])
    q_mat = np.array([[0.5 * p.mu, off_q],
                      [off_q, p.mu + p.alpha]])
    minors = (float(p_mat[0, 0]), float(np.linalg.det(p_mat)),
              float(q_mat[0, 0]), float(np.linalg.det(q_mat)))
    return p_mat, q_mat, minors


def dfe_lyapunov_bound(p: ModelParams, f: IncidenceFunction, grid_n: int = 201) -> float:
    """Worst gap of dI/dt <= infected_outflow * (R0 - 1) * I over Omega.

    Returns max over the grid of dI/dt minus the bound; the inequality
    holds (for any R0) when the result is at most 1e-10.  The gap
    reaches zero along S = S0 for f1 independent of I.
    """
    r0_value = r0(p, f)
    outflow = p.infected_outflow
    s0 = p.s0
    axis = np.linspace(0.0, s0, grid_n)
    ss, ii = np.meshgrid(axis, axis, indexing="ij")
    keep = ss + ii <= s0 * (1.0 + 1e-12)
    ss, ii = ss[keep], ii[keep]
    _, di, _ = make_rhs(p, f)(ss, ii, 0.0)
    if not np.all(np.isfinite(di)):
        raise EvaluationError("incidence non-finite on the bound-check grid")
    gap = di - outflow * (r0_value - 1.0) * ii
    return float(np.max(gap))


def certify(p: ModelParams, f: IncidenceFunction, eq: State,
            k1: float | None = None, k2: float | None = None,
            grid_n: int = 201, exclusion: float | None = None,
            dvdt_grid_n: int = 41, ball: float | None = None) -> CertificateReport:
    """Run the full endemic-certificate pipeline and assemble a report.

    ``k1`` and ``k2`` override the closed-form k1 and the default
    cancellation choice respectively.  With gamma2 = 0 an explicit k2 is
    required.  The slope range is computed once and serves both the k1
    choice and the (a2) scan.
    """
    if k1 is not None and k1 < 0:
        raise ValueError(f"k1 must be non-negative, got {k1}")
    if exclusion is None:
        exclusion = 1e-4 * p.s0
    a1 = check_a1(p)
    k2_value = float(k2 if k2 is not None else default_k2(p))
    slopes = _slope_range(f, eq, p.s0, grid_n, exclusion)
    k1_value = _optimal_k1(p, slopes) if k1 is None else float(k1)

    scan = _a2_scan(p, slopes, 0.0 if k1_value is None else k1_value)
    p_minors = q_minors = dvdt_max = None
    if k1_value is not None:
        _, _, minors = pq_matrices(p, f, eq, k1_value, k2_value, scan.worst_point)
        p_minors, q_minors = minors[:2], minors[2:]
        dvdt_max = dvdt_scan(p, f, eq, k1_value, k2_value, dvdt_grid_n, ball)
    return CertificateReport(
        a1_pass=a1.passed, a1_margin=a1.margin, a1_remark_value=a1.remark_value,
        k1=k1_value, k2=k2_value, sup_h=scan.sup_h, h_bound=scan.h_bound,
        divergence_flag=scan.divergence_flag, p_minors=p_minors, q_minors=q_minors,
        dvdt_max=dvdt_max, grid_n=grid_n, exclusion=exclusion)
