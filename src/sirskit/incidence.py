"""Incidence functions f(S, I) and their structural hypotheses.

An incidence function gives the rate of new infections as a function of
the susceptible and infected population sizes.  The toolkit works with
functions that factor through the number of infectives,

    f(S, I) = I * f1(S, I),

and checks three structural hypotheses on them:

    (H1) f(S, I) = I * f1(S, I) with f(0, I) = f(S, 0) = 0;
    (H2) f1 is strictly increasing in S and non-increasing in I;
    (H3) f(S, I) / I has a positive limit as I -> 0+ for every S > 0.

f1 at I = 0 always means the continuous extension, which coincides with
the partial derivative of f with respect to I along the S axis.  The
built-in families implement that extension analytically; an f1 derived
from a user-supplied f uses Richardson extrapolation of f(S, I)/I.  (H2)
is checked on f1's own values, by difference quotients between
neighbouring grid samples, so no family carries derivatives of f1.

Evaluation callables are expected to accept either Python floats or
numpy arrays (all built-ins do); grid scans rely on this.  So does the
f1 derived from a user-supplied f, which calls f once on the array of
entries with I > 0 and fills the entries with I <= 0 from one
array-valued small-I limit.

Each built-in family declares f and f1 as expression text in S, I and
its coefficients.  ``make_builtin`` compiles that text once per family
and binds the coefficients as values, so no coefficient is ever source
text.  f and f1 come back as instances of one private callable type that
keeps the text, the coefficients and, for f1, whether the family
declares it a function of S alone.  ``formula`` gives a built f's text,
which the integrator inlines into its compiled loop; ``f1_of_s_only``
recognises a built f1 of S alone, whose slope scan in ``stability``
needs one I per S.  Any other callable, even a wrapper of a built one,
is called as it stands.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .codegen import define
from .errors import EvaluationError, HypothesisViolationError, LimitConvergenceError

# Strictness threshold for sign checks on f1, a per-capita rate that does
# not change when the population is rescaled; values this close to zero
# are treated as zero to avoid floating-point false positives.
_ZERO_TOL = 1e-12

# Relative agreement required between successive Richardson extrapolants.
_LIMIT_RTOL = 1e-6


@dataclass(frozen=True)
class IncidenceFunction:
    """An incidence rate f(S, I) together with its factor f1 = f / I.

    ``f1_derived`` is true when ``eval_f1`` was derived from ``eval_f`` as
    f(S, I)/I, so that its value at I = 0 is an extrapolation rather than
    a closed form.  Instances are immutable and safe to share between
    threads.
    """

    eval_f: Callable
    eval_f1: Callable
    label: str
    f1_derived: bool = False


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of checking (H1)-(H3) on a sample grid.

    ``violations`` holds one entry per failing sample as a tuple of
    (hypothesis id, sample point, observed value); it is empty exactly
    when all three pass flags are true.  An H1 or H3 entry gives the
    failing sample and the value of f or of the small-I limit there.  An
    H2 entry gives the lower sample of a pair of grid neighbours, in S or
    in I, and the difference quotient of f1 between them.
    ``h3_limit_at`` records the extrapolated small-I limit of f/I at
    every sampled S > 0.  ``grid`` gives s_max, grid_n and eps; the
    sampled S and I are ``linspace(0, s_max, grid_n)``.
    """

    h1_pass: bool
    h2_pass: bool
    h3_pass: bool
    h3_limit_at: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    grid: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return self.h1_pass and self.h2_pass and self.h3_pass

    def as_dict(self) -> dict:
        return {
            "h1_pass": self.h1_pass,
            "h2_pass": self.h2_pass,
            "h3_pass": self.h3_pass,
            "h3_limit_at": [[float(s), float(v)] for s, v in self.h3_limit_at],
            "violations": [
                {"hypothesis": hyp, "point": [float(p[0]), float(p[1])], "value": float(v)}
                for hyp, p, v in self.violations
            ],
            "grid": self.grid,
        }


class _Family(NamedTuple):
    """A built-in family: f and f1 as expression text in S, I and the
    coefficients, its positive coefficients, its non-negative ones (default
    0), and whether f1 is a function of S alone, its value at every I the
    bits of its value at I = 0."""

    f: str
    f1: str
    positive: tuple
    nonneg: tuple
    f1_of_s_only: bool = False


_FAMILIES = {
    "bilinear": _Family("beta * S * I", "beta * S + 0.0 * I", ("beta",), (),
                        f1_of_s_only=True),
    "power": _Family("k * I * S ** q", "k * S ** q + 0.0 * I", ("k", "q"), (),
                     f1_of_s_only=True),
    "saturated_in_I": _Family("beta * S * I / (1.0 + a * I)", "beta * S / (1.0 + a * I)",
                              ("beta",), ("a",)),
    "psi_ratio": _Family("beta * S * I / (1.0 + a * I + b * I * I)",
                         "beta * S / (1.0 + a * I + b * I * I)", ("beta",), ("a", "b")),
    "ruan": _Family("beta * S * I * I / (1.0 + rho * I * I)",
                    "beta * S * I / (1.0 + rho * I * I)", ("beta",), ("rho",)),
}

@functools.cache
def _evaluator(text: str, names: tuple):
    """``factory(**coefficients)``, which returns ``lambda S, I: <text>``
    with the coefficients ``names`` bound as values, never as source."""
    source = f"def factory({', '.join(names)}):\n    return lambda S, I: {text}\n"
    return define(source, "factory", f"<sirskit incidence: {text}>")


class _Built:
    """f or f1 as ``make_builtin`` built it: calls ``lambda S, I: <text>``
    with ``coefficients`` bound, and records whether it is an f1 that
    depends on S alone.  Compared and hashed by identity, as a function."""

    __slots__ = ("_call", "text", "coefficients", "s_only")

    def __init__(self, text: str, names: tuple, coefficients: dict, s_only: bool = False):
        self._call = _evaluator(text, names)(**coefficients)
        self.text, self.coefficients, self.s_only = text, coefficients, s_only

    def __call__(self, S, I):
        return self._call(S, I)


def formula(eval_f):
    """``(f text, coefficients)`` when ``eval_f`` is a function
    ``make_builtin`` built from a family's text, else None: a wrapper or
    a replacement of it is called as it stands."""
    return (eval_f.text, eval_f.coefficients) if isinstance(eval_f, _Built) else None


def f1_of_s_only(eval_f1) -> bool:
    """Whether ``eval_f1`` is the f1 ``make_builtin`` built for a family
    whose f1 is a function of S alone; a wrapper or a replacement of it,
    even one forwarding to it, is not."""
    return isinstance(eval_f1, _Built) and eval_f1.s_only


def make_builtin(family: str, coefficients: Mapping[str, float]) -> IncidenceFunction:
    """Build one of the built-in incidence families.

    Families and coefficients:

    ==============  =================================  =========================
    family          f(S, I)                             coefficients
    ==============  =================================  =========================
    bilinear        beta*S*I                            beta > 0
    power           k*I*S**q                            k > 0, q > 0
    saturated_in_I  beta*S*I / (1 + a*I)                beta > 0, a >= 0
    psi_ratio       beta*S*I / (1 + a*I + b*I**2)       beta > 0, a, b >= 0
    ruan            beta*S*I**2 / (1 + rho*I**2)        beta > 0, rho >= 0
    ==============  =================================  =========================

    Non-negative coefficients may be omitted and default to 0.  Every
    built-in gives f1 in closed form, at I = 0 as well.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown incidence family {family!r}; "
                         f"expected one of {sorted(_FAMILIES)}")
    f_text, f1_text, positive, nonneg, s_only = _FAMILIES[family]
    known = set(positive) | set(nonneg)
    unknown = set(coefficients) - known
    if unknown:
        raise ValueError(f"{family}: unknown coefficient(s) {sorted(unknown)}; "
                         f"expected {sorted(known)}")
    coefs = {}
    for name in positive:
        if name not in coefficients:
            raise ValueError(f"{family}: missing required coefficient {name!r}")
        value = float(coefficients[name])
        if not np.isfinite(value) or value <= 0:
            raise ValueError(f"{family}: coefficient {name} must be positive, got {value}")
        coefs[name] = value
    for name in nonneg:
        value = float(coefficients.get(name, 0.0))
        if not np.isfinite(value) or value < 0:
            raise ValueError(f"{family}: coefficient {name} must be non-negative, got {value}")
        coefs[name] = value
    names = positive + nonneg
    return IncidenceFunction(
        eval_f=_Built(f_text, names, coefs),
        eval_f1=_Built(f1_text, names, coefs, s_only),
        label=f"{family}({', '.join(f'{name}={coefs[name]:g}' for name in names)})",
    )


def from_callables(f: Callable, f1: Callable | None = None,
                   label: str = "user") -> IncidenceFunction:
    """Wrap user-supplied callables as an IncidenceFunction.

    When ``f1`` is omitted it is derived as f(S, I)/I, with the value at
    I = 0 filled in by the extrapolated small-I limit.
    """
    return IncidenceFunction(eval_f=f, eval_f1=_ratio_f1(f) if f1 is None else f1,
                             label=label, f1_derived=f1 is None)


def _ratio_f1(f):
    def f1(S, I):
        s, i = np.broadcast_arrays(np.asarray(S, dtype=float), np.asarray(I, dtype=float))
        out = np.empty(s.shape)
        positive = i > 0.0
        out[positive] = f(s[positive], i[positive]) / i[positive]
        if not positive.all():
            # step |S|/5e5 per sample, which is compute_beta's S0/5e5 at
            # S = S0 and keeps f1 a function of (S, I) alone; at S = 0,
            # where (H1) makes the limit 0 at any step, it is 2e-6
            s_zero = np.abs(s[~positive])
            eps = np.where(s_zero > 0, s_zero, 1.0) / 5e5
            out[~positive] = small_i_limit(f, s[~positive], eps)[0]
        return float(out) if out.ndim == 0 else out

    return f1


def small_i_limit(f_eval: Callable, S, eps):
    """Richardson-extrapolated limit of f(S, I)/I as I -> 0+.

    Evaluates the ratio at eps, eps/2 and eps/4 and extrapolates twice.
    Callers derive eps from the population scale, such as S0/5e5; an
    array ``S`` may come with an array ``eps`` of the same shape.
    Returns (limit, converged) where ``converged`` means the two
    first-level extrapolants agree to 1e-6 relative.  A float ``S`` gives
    a float and a bool; an array ``S`` gives an array of limits and one of
    flags, from three calls of ``f_eval`` on the whole array.
    """
    v0 = f_eval(S, eps) / eps
    v1 = f_eval(S, eps / 2.0) / (eps / 2.0)
    v2 = f_eval(S, eps / 4.0) / (eps / 4.0)
    r1 = 2.0 * v1 - v0
    r2 = 2.0 * v2 - v1
    limit = (4.0 * r2 - r1) / 3.0
    scale = np.maximum(np.maximum(np.abs(r1), np.abs(r2)), _ZERO_TOL)
    converged = np.abs(r2 - r1) <= _LIMIT_RTOL * scale
    if np.ndim(S) == 0:
        return float(limit), bool(converged)
    return limit, converged


def require_finite(values, what: str, s, i):
    """``values`` as a float array, or EvaluationError naming the first
    non-finite entry by its sample (S, I); ``s`` and ``i`` broadcast
    against ``values``."""
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        s_at, i_at, _ = np.broadcast_arrays(s, i, values)
        k = bad[0]
        raise EvaluationError(
            f"{what} is non-finite at (S, I) = ({s_at.flat[k]:g}, {i_at.flat[k]:g})")
    return values


def _violations(hyp: str, bad, s, i, values) -> list:
    """(hyp, (S, I), value) for every flagged sample, in grid order."""
    bad, s, i, values = np.broadcast_arrays(bad, s, i, values)
    at = np.flatnonzero(bad)
    s, i, values = (a.ravel()[at].tolist() for a in (s, i, values))
    return [(hyp, point, value) for point, value in zip(zip(s, i), values)]


def check_hypotheses(f: IncidenceFunction, s_max: float,
                     grid_n: int = 64) -> HypothesisReport:
    """Check (H1)-(H3) for ``f`` on a grid over [0, s_max]^2.

    (H1) is tested on boundary samples.  (H2) is tested on f1's values
    on the full grid, boundaries included: the difference quotient
    between each pair of neighbouring samples, divided by the grid step,
    must be positive in S and non-positive in I.  (H3) is tested by
    extrapolating f(S, I)/I from I in {eps, eps/2, eps/4} at every
    sampled S > 0, with eps = s_max/5e5.  Values of f within
    2e-14*s_max of zero and difference quotients of f1 within
    5e-11/s_max count as zero (1e-12 at s_max = 50).  Violations are
    listed H1 on the S axis, H1 on the I axis, H2 in S, H2 in I, then H3,
    each in grid order.  Deterministic: identical inputs yield identical
    reports.
    """
    if not (s_max > 0):
        raise ValueError(f"s_max must be positive, got {s_max}")
    if grid_n < 8:
        raise ValueError(f"grid_n must be at least 8, got {grid_n}")

    eps = s_max / 5e5
    f_tol, slope_tol = 2e-14 * s_max, 5e-11 / s_max
    axis = np.linspace(0.0, s_max, grid_n)
    zero = 0.0 * axis

    # (H1): boundary identities.
    on_s_axis = require_finite(f.eval_f(axis, zero), "f(S, 0)", axis, 0.0)
    on_i_axis = require_finite(f.eval_f(zero, axis), "f(0, I)", 0.0, axis)
    violations = (_violations("H1", np.abs(on_s_axis) > f_tol, axis, 0.0, on_s_axis)
                  + _violations("H1", np.abs(on_i_axis) > f_tol, 0.0, axis, on_i_axis))

    # (H2): strict increase in S, non-increase in I, between neighbours;
    # each quotient is reported at the lower sample of its pair.
    su, iv = np.meshgrid(axis, axis, indexing="ij")
    f1 = require_finite(f.eval_f1(su, iv), "f1(S, I)", su, iv)
    step = axis[1]
    ds, di = np.diff(f1, axis=0) / step, np.diff(f1, axis=1) / step
    violations += (_violations("H2", ds <= slope_tol, su[:-1], iv[:-1], ds)
                   + _violations("H2", di > slope_tol, su[:, :-1], iv[:, :-1], di))

    # (H3): positive, Cauchy-convergent small-I limit at every S > 0.
    s_pos = axis[axis > 0]
    limits, converged = small_i_limit(f.eval_f, s_pos, eps)
    limits = require_finite(limits, "f(S, I)/I as I -> 0", s_pos, 0.0)
    violations += _violations("H3", ~(converged & (limits > _ZERO_TOL)), s_pos, 0.0, limits)

    failed = {hyp for hyp, _, _ in violations}
    return HypothesisReport(
        h1_pass="H1" not in failed,
        h2_pass="H2" not in failed,
        h3_pass="H3" not in failed,
        h3_limit_at=list(zip(s_pos.tolist(), limits.tolist())),
        violations=violations,
        grid={"s_max": float(s_max), "grid_n": int(grid_n), "eps": float(eps)},
    )


def compute_beta(f: IncidenceFunction, Lambda: float, mu: float) -> float:
    """Effective transmission coefficient (mu/Lambda) * df/dI at (S0, 0).

    S0 = Lambda/mu.  Uses f1(S0, 0) when f1 is given in closed form (a
    built-in or a user-supplied f1), otherwise Richardson extrapolation
    of f(S0, I)/I toward I = 0+ from I = S0/5e5.
    """
    if not (Lambda > 0 and mu > 0):
        raise ValueError("Lambda and mu must be positive")
    s0 = Lambda / mu
    if not f.f1_derived:
        slope = float(f.eval_f1(s0, 0.0))
    else:
        slope, converged = small_i_limit(f.eval_f, s0, s0 / 5e5)
        if slope <= _ZERO_TOL:
            raise HypothesisViolationError(
                f"limit of f(S0, I)/I at S0 = {s0:g} is {slope:g}, not positive; (H3) fails")
        if not converged:
            raise LimitConvergenceError(
                f"small-I extrapolation of f(S0, I)/I did not converge at S0 = {s0:g}")
    if slope <= 0:
        raise HypothesisViolationError(
            f"df/dI at (S0, 0) is {slope:g}, not positive; (H3) fails at S0 = {s0:g}")
    return (mu / Lambda) * slope


def check_incidence_bound(f: IncidenceFunction, Lambda: float, mu: float,
                          grid_n: int = 128):
    """Verify f(S, I) <= (Lambda/mu) * beta * I on a grid over [0, S0]^2.

    Returns (passed, min_slack) where slack is the pointwise margin
    (Lambda/mu)*beta*I - f(S, I); the bound passes when the minimum
    slack is at least -1e-13*Lambda, a rate at the scale of the model.
    For f1 independent of I the bound is tight along S = S0.
    """
    beta = compute_beta(f, Lambda, mu)
    s0 = Lambda / mu
    axis = np.linspace(0.0, s0, grid_n)
    su, iv = np.meshgrid(axis, axis, indexing="ij")
    fv = require_finite(f.eval_f(su, iv), "f(S, I)", su, iv)
    slack = s0 * beta * iv - fv
    return bool(slack.min() >= -1e-13 * Lambda), float(slack.min())
