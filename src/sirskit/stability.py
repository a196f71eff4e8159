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

k2 = (2mu + alpha)/gamma2 is the only k2 that cancels the (I - I*)(R - R*)
cross term, so ``certify`` always uses it, and gamma2 = 0 gets no
certificate.  ``lyapunov_v``, ``dvdt_at``, ``dvdt_scan`` and
``pq_matrices`` evaluate V for any given k2.

With c = 2mu + alpha, h = (c - k1*G)^2 is convex in G, so over any set
of samples its supremum sits at the smallest or largest slope, Gmin or
Gmax.  Condition (a2) therefore only needs the slope range: the k1
minimising sup h is 2c/(Gmin + Gmax), where sup h = c^2 *
((Gmax - Gmin)/(Gmax + Gmin))^2, and no k1 > 0 can pass when
Gmin + Gmax <= 0.  No other k1 passes (a2) where that one fails, so
``certify`` always takes it.

Certificates here are grid-based confirmation, not interval proofs: the
slope range is taken over a grid that leaves out a thin strip around
u = S*, and a pass means "verified at the reported grid resolution".
G is unbounded near u = S*, and no k1 can exist, exactly when
f1(S*, v) != f1(S*, I*) for some v; ``divergence_flag`` reports that,
decided from f1(S*, .) on the grid's v axis.

The slope grid is evaluated in blocks of u rows, about ``_BLOCK`` points
each.  The dV/dt scan evaluates the field once per (S, I) of its lattice;
above it dV/dt is a quadratic in R with R^2 coefficient -(mu + k2*(mu +
delta)) < 0, so each column is taken at the two levels around its
vertex, and at every level only where the ball around E1 may cut it.
Every sample goes through the operations of a dense scan in the same
order, so the results keep their bits.  A built-in f1 that its family
declares a function of S alone (see ``incidence.f1_of_s_only``) gives G
the same bits at every v of a u row, so the slope scan takes each row
at v = 0 only: grid_n evaluations instead of grid_n**2, for the range,
the points and the errors of the whole grid.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateParameterError, SingularPointError
from .incidence import IncidenceFunction, f1_of_s_only, require_finite
from .model import ModelParams, State, make_rhs, omega_grid, omega_indices, r0


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

    ``granted`` is (a1) together with a closed-form k1 that passes (a2);
    ``k1`` is None exactly when no k1 passes, and then ``sup_h`` and
    ``dvdt_max`` are None too.  ``dvdt_max`` is the largest sampled
    derivative of V outside a ball around the equilibrium and is
    negative whenever the certificate is sound; ``dvdt_points`` is the
    number of lattice points it was taken over.  ``k2`` is always
    ``default_k2``.  The minors of P and Q follow from these fields:
    both top-left entries are mu/2, det P = mu*a1_margin/(2*gamma2) and
    det Q = (h_bound - sup_h)/4.
    """

    granted: bool
    a1_pass: bool
    a1_margin: float
    k1: float | None
    k2: float
    sup_h: float | None
    h_bound: float
    divergence_flag: bool
    dvdt_max: float | None
    dvdt_points: int
    grid_n: int
    exclusion: float

    def as_dict(self) -> dict:
        return asdict(self)


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
    any u is within 3.4e-14*S* of S* (1.0e-12 at the reference S* = 29.58).
    """
    offset = np.asarray(u, dtype=float) - eq.S
    if np.any(np.abs(offset) <= 3.4e-14 * eq.S):
        raise SingularPointError(f"secant slope undefined at u = S* = {eq.S:g}")
    f1_star = float(f.eval_f1(eq.S, eq.I))
    g = (np.asarray(f.eval_f1(u, v), dtype=float) - f1_star) / offset
    return float(g) if g.ndim == 0 else g


# Half-width of the strip |u - S*| < _STRIP * S0 that the slope grid leaves out.
_STRIP = 1e-4

# Points per block of the slope scan, which evaluates its grid a block at a time.
_BLOCK = 16384


class _SlopeRange(NamedTuple):
    """Extremes of G over the scan samples and the (u, v) reaching each."""

    g_min: float
    g_max: float
    at_min: tuple[float, float]
    at_max: tuple[float, float]
    divergence_flag: bool


def _slope_range(f: IncidenceFunction, eq: State, s0: float, grid_n: int) -> _SlopeRange:
    """G over a grid_n x grid_n grid on [0, S0]^2 minus the strip
    |u - S*| < 1e-4*S0, and whether G is unbounded near u = S*.

    The grid is taken in blocks of whole u rows, about ``_BLOCK`` points
    each, in row-major order; each extreme keeps its first sample in that
    order.  When f is a built-in whose f1 is a function of S alone
    (``incidence.f1_of_s_only``), each row is taken at v = 0 only: every
    v of a row gives G the same bits, so the first extreme of the grid
    sits at v = 0 of its row, and the range, its points and any error
    are those of the whole grid.  G is unbounded near u = S* exactly when
    f1(S*, v) differs from f1(S*, I*) for some v; that is decided on the
    grid's v axis, with differences within 1e-12*f1(S*, I*) counted as
    round-off (at E1 that is the infected outflow rate, a per-capita rate
    that rescaling leaves alone).  Raises ValueError when grid_n < 2."""
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    axis = np.linspace(0.0, s0, grid_n)
    rows = axis[np.abs(axis - eq.S) >= _STRIP * s0]
    columns = axis[:1] if f1_of_s_only(f.eval_f1) else axis
    f1_star = float(f.eval_f1(eq.S, eq.I))
    step = max(1, _BLOCK // columns.size)
    lo = hi = None
    # with every u in the strip, one empty block raises numpy's ValueError
    for start in range(0, max(rows.size, 1), step):
        # contiguous copies, laid out as the rows of a meshgrid, so that
        # f1 sees the same arrays, element for element, at any block size
        uu = np.repeat(rows[start:start + step], columns.size)
        vv = np.tile(columns, uu.size // columns.size)
        # secant_slope's operations, with its singular-point check left
        # out: the strip keeps every u far from S*
        g = (np.asarray(f.eval_f1(uu, vv), dtype=float) - f1_star) / (uu - eq.S)
        require_finite(g, "secant slope", uu, vv)
        k_lo, k_hi = int(np.argmin(g)), int(np.argmax(g))
        if lo is None or g[k_lo] < lo[0]:
            lo = (float(g[k_lo]), (float(uu[k_lo]), float(vv[k_lo])))
        if hi is None or g[k_hi] > hi[0]:
            hi = (float(g[k_hi]), (float(uu[k_hi]), float(vv[k_hi])))
    f1_column = require_finite(f.eval_f1(eq.S, axis), "incidence factor", eq.S, axis)
    divergence = bool(np.any(np.abs(f1_column - f1_star) > 1e-12 * abs(f1_star)))
    return _SlopeRange(g_min=lo[0], g_max=hi[0], at_min=lo[1], at_max=hi[1],
                       divergence_flag=divergence)


def _a2_scan(p: ModelParams, slopes: _SlopeRange, k1: float) -> A2Scan:
    if not 0.0 <= k1 < math.inf:
        raise ValueError(f"k1 must be non-negative and finite, got {k1}")
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
             grid_n: int = 201) -> A2Scan:
    """Scan h(u, v) = (2mu + alpha - k1*G(u, v))^2 against 2mu*(mu+alpha).

    Takes the range of G on a grid_n x grid_n grid over [0, Lambda/mu]^2
    with the strip |u - S*| < 1e-4*Lambda/mu removed, from its u axis
    alone when f1 is a built-in of S alone, which gives the grid's range
    bit for bit; sup h is reached at one of its ends.  Passes when the
    supremum stays below the bound and f1(S*, .) is constant on the
    grid's v axis, so that G stays bounded near S*.  Raises ValueError
    unless 0 <= k1 < inf, or when grid_n < 2.
    """
    return _a2_scan(p, _slope_range(f, eq, p.s0, grid_n), k1)


def find_k1(p: ModelParams, f: IncidenceFunction, eq: State,
            grid_n: int = 201) -> float | None:
    """The k1 minimising sup h over the scan samples, or None.

    That is k1 = 2(2mu+alpha)/(Gmin + Gmax), where both parabolas
    (2mu + alpha - k1*G)^2 at the slope extremes take equal values.  It
    is None when Gmin + Gmax <= 0 (no positive k1 lowers h below
    (2mu+alpha)^2), or when even this k1 fails condition (a2), which
    includes every f1 that varies with I at S*.  Absence of a valid k1
    is a value, not an error.  The slope range is that of ``check_a2``:
    grid_n points along u for a built-in f1 of S alone, with the bits of
    the grid_n x grid_n grid, and the whole grid for any other f1.
    """
    return _optimal_k1(p, _slope_range(f, eq, p.s0, grid_n))


def default_k2(p: ModelParams) -> float:
    """(2mu + alpha)/gamma2, the only k2 cancelling the I-R cross term."""
    k2 = (2.0 * p.mu + p.alpha) / p.gamma2 if p.gamma2 else math.nan
    if not 0.0 < k2 < math.inf:  # gamma2 = 0, or a ratio that overflows or underflows
        value = "undefined" if p.gamma2 == 0 else f"= {k2:g}"
        raise DegenerateParameterError(f"gamma2 = {p.gamma2:g} leaves k2 = (2mu+alpha)/gamma2 "
                                       f"{value}, so no endemic certificate exists")
    return k2


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


def _dvdt_samples(p: ModelParams, f: IncidenceFunction, eq: State, k1: float,
                  k2: float | None, grid_n: int) -> tuple[float, int]:
    """(max, count) of dV/dt over the points that ``dvdt_scan`` scans: the
    ``omega_grid`` lattice points (a, b, c)*h, h = S0/(n-1), with I > 0
    outside the ball.  Along a column of levels c, dV/dt is a quadratic in
    R with R^2 coefficient -(mu + k2*(mu + delta)) < 0, so a level two or
    more steps from the vertex is lower than the two around it by about
    2*(mu + k2*(mu + delta))*h^2, far above rounding.  Each sample takes
    the operations of ``_dvdt`` and ``make_rhs`` in order, so it has a
    dense scan's bits."""
    k2_value = default_k2(p) if k2 is None else k2
    if not 0.0 < k2_value < math.inf:
        raise ValueError(f"k2 must be positive and finite, got {k2_value}")
    if grid_n < 2:
        raise ValueError(f"grid size must be at least 2 points per axis, got {grid_n}")
    axis = np.linspace(0.0, p.s0, grid_n)
    a, b = omega_indices(grid_n, 2)
    ss, ii = axis[a], axis[b]
    r_off = axis - eq.R
    r_sq = r_off ** 2
    near = (ss - eq.S) ** 2 + (ii - eq.I) ** 2
    # the R term is monotone in c on either side of R*, and rounding keeps
    # that order, so a column keeps some c iff it keeps c = 0 or its top c
    radius_sq = (1e-3 * p.s0) ** 2
    top = grid_n - 1 - a - b
    keep = (ii > 0) & ((near + r_sq[0] > radius_sq) | (near + r_sq[top] > radius_sq))
    ss, ii, near, top = ss[keep], ii[keep], near[keep], top[keep]

    # each equation is affine in R with its R term last, so the field at
    # R = 0 is its (S, I) part plus or minus 0.0, which can differ from that
    # part only in the sign of a zero; adding a level's R term, delta*R or
    # -(mu + delta)*R, then rounds to the dense field's bits
    ds, di, dr = make_rhs(p, f)(ss, ii, 0.0)
    require_finite(di, "incidence", ss, ii)
    shift = (ss - eq.S) + (ii - eq.I)
    k1_term = k1 * (1.0 - eq.I / ii) * di

    def sample(column, level):
        dr_c = dr[column] - (p.mu + p.delta) * axis[level]
        return ((shift[column] + r_off[level])
                * ((ds[column] + p.delta * axis[level]) + di[column] + dr_c)
                + k1_term[column] + k2_value * r_off[level] * dr_c)

    # adding (R - R*)^2 >= 0 to near cannot bring it under the radius, so
    # only a column with near inside it can lose levels to the ball
    cut = np.flatnonzero(near <= radius_sq)
    rows, levels = np.nonzero((np.arange(grid_n) <= top[cut, None])
                              & (near[cut, None] + r_sq > radius_sq))
    dvdt = [sample(cut[rows], levels)]
    # every other column peaks at one of the two levels around its vertex,
    # weighed by 1/(1 + k2) and k2/(1 + k2) so that no k2 overflows it;
    # fmax and fmin clip the levels to the column, a NaN vertex to level 0
    whole = np.flatnonzero(near > radius_sq)
    u, w = 1.0 / (1.0 + k2_value), k2_value / (1.0 + k2_value)
    vertex = ((u * ((ds + di + dr) - p.mu * (shift - eq.R)) + w * (dr + (p.mu + p.delta) * eq.R))
              / (2.0 * (u * p.mu + w * (p.mu + p.delta))))
    below = np.floor(vertex / (p.s0 / (grid_n - 1)))[whole]
    for step in (0.0, 1.0):
        dvdt.append(sample(whole, np.fmin(np.fmax(below + step, 0.0), top[whole]).astype(np.intp)))
    # no point at all raises numpy's ValueError, as an empty scan did
    return float(np.max(np.concatenate(dvdt))), int(np.sum(top[whole] + 1)) + rows.size


def dvdt_scan(p: ModelParams, f: IncidenceFunction, eq: State, k1: float,
              k2: float | None = None, grid_n: int = 41) -> float:
    """Maximum of dV/dt over the ``omega_grid`` lattice of Omega with I > 0,
    outside the ball of radius 1e-3*S0 around eq.

    ``k2`` defaults to ``default_k2(p)``; with gamma2 = 0 it must be
    given, or DegenerateParameterError is raised.  The gradient of V is
    taken analytically; finite differences of V are only a cross-check
    in the test suite.  A sound certificate makes the returned maximum
    negative.  Raises ValueError when grid_n < 2 or k2 is not positive
    and finite, and EvaluationError naming the first (S, I) where the
    incidence is non-finite.
    """
    return _dvdt_samples(p, f, eq, k1, k2, grid_n)[0]


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

    Returns the max of dI/dt minus the bound over the two-dimensional
    ``omega_grid`` lattice {S + I <= S0} (R plays no part in dI/dt); the
    inequality holds (for any R0) when the result is at most 1e-11*Lambda,
    round-off at the scale of the model.  The gap reaches zero along
    S = S0 for f1 independent of I.  A non-finite incidence raises
    EvaluationError naming the first such (S, I), and grid_n < 2 raises
    ValueError.
    """
    r0_value = r0(p, f)
    ss, ii = omega_grid(p, grid_n, dims=2)
    _, di, _ = make_rhs(p, f)(ss, ii, 0.0)
    require_finite(di, "incidence", ss, ii)
    gap = di - p.infected_outflow * (r0_value - 1.0) * ii
    return float(np.max(gap))


def certify(p: ModelParams, f: IncidenceFunction, eq: State,
            grid_n: int = 201, dvdt_grid_n: int = 41) -> CertificateReport:
    """Run the full endemic-certificate pipeline and assemble a report.

    k1 is the closed form of ``find_k1``, which minimises sup h, so no
    other k1 passes (a2) where it fails.  k2 is always ``default_k2(p)``,
    the only value for which dV/dt splits into the P and Q forms, so
    gamma2 = 0 raises DegenerateParameterError.  The slope range and the
    divergence decision are computed once and serve both the k1 choice
    and the (a2) scan; the report's ``exclusion`` is the half-width
    1e-4*Lambda/mu of the strip around u = S* that the slope grid leaves
    out.
    """
    a1 = check_a1(p)
    k2 = default_k2(p)
    slopes = _slope_range(f, eq, p.s0, grid_n)
    k1 = _optimal_k1(p, slopes)
    scan = _a2_scan(p, slopes, 0.0 if k1 is None else k1)
    sup_h = dvdt_max = None
    dvdt_points = 0
    if k1 is not None:
        sup_h = scan.sup_h
        dvdt_max, dvdt_points = _dvdt_samples(p, f, eq, k1, k2, dvdt_grid_n)
    return CertificateReport(
        granted=a1.passed and k1 is not None, a1_pass=a1.passed, a1_margin=a1.margin,
        k1=k1, k2=k2, sup_h=sup_h, h_bound=scan.h_bound,
        divergence_flag=scan.divergence_flag, dvdt_max=dvdt_max,
        dvdt_points=dvdt_points, grid_n=grid_n, exclusion=_STRIP * p.s0)
