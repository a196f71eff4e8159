"""Trajectory integration, convergence sweeps and conservation checks.

Two integrators are provided: classic fixed-step RK4 and an embedded
Dormand-Prince 4(5) pair with mixed absolute/relative error control.
Both enforce the model's invariants numerically: components are clamped
to zero only for round-off (within 1e-12 below zero), and a state that
leaves the feasible simplex by more than 1e-6 aborts the run, since the
model guarantees non-negativity and forward invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .equilibria import find_endemic
from .errors import BlowUpError, InvarianceViolationError, SirsKitError
from .incidence import IncidenceFunction
from .model import ModelParams, State, dfe, make_rhs, r0

_MAX_STORED = 10_000
_CLAMP = 1e-12
_OMEGA_SLACK = 1e-6

# Dormand-Prince 5(4) tableau; the last A row doubles as the 5th-order
# weights (FSAL), so stage 7 evaluates the accepted solution.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
          -92097 / 339200, 187 / 2100, 1 / 40)
_DP_ERR = tuple(b5 - b4 for b5, b4 in zip(_DP_A[-1] + (0.0,), _DP_B4))


class StepStats(NamedTuple):
    steps: int
    rejected: int
    max_error: float


@dataclass(frozen=True)
class Trajectory:
    """Stored solution samples of one integration run.

    ``states`` is an (n, 3) array aligned with ``times``; at most 10000
    points are kept, downsampled uniformly in time without interpolation.
    ``max_error`` in the stats is the largest per-step error estimate of
    the adaptive method (zero for fixed-step runs).
    """

    times: np.ndarray
    states: np.ndarray
    params_id: str
    step_stats: StepStats

    def state_at(self, index: int) -> State:
        s, i, r = self.states[index]
        # Stored values may carry round-off slightly below zero.
        return State(max(s, 0.0), max(i, 0.0), max(r, 0.0))

    @property
    def final_state(self) -> State:
        return self.state_at(-1)

    def to_csv(self, path) -> None:
        """Write the trajectory with header exactly ``t,S,I,R``."""
        with open(path, "w", newline="") as handle:
            handle.write("t,S,I,R\n")
            for t, (s, i, r) in zip(self.times, self.states):
                handle.write(f"{float(t)!r},{float(s)!r},{float(i)!r},{float(r)!r}\n")


@dataclass(frozen=True)
class SweepRun:
    initial: State
    final: State | None
    distance: float
    trajectory: Trajectory | None


@dataclass(frozen=True)
class SweepReport:
    """Convergence of many initial conditions toward one attractor."""

    target: State
    runs: list
    converged_fraction: float
    conv_tol: float

    def as_dict(self) -> dict:
        return {
            "target": self.target.as_dict(),
            "conv_tol": self.conv_tol,
            "converged_fraction": self.converged_fraction,
            "runs": [
                {
                    "initial": run.initial.as_dict(),
                    "final": run.final.as_dict() if run.final is not None else None,
                    "distance": run.distance if math.isfinite(run.distance) else None,
                    "converged": run.distance < self.conv_tol,
                }
                for run in self.runs
            ],
        }


def _postprocess(y, p: ModelParams, t: float):
    s, i, r = y
    if not (math.isfinite(s) and math.isfinite(i) and math.isfinite(r)):
        raise BlowUpError(f"state non-finite at t = {t:g}")
    if -_CLAMP <= s < 0.0:
        s = 0.0
    if -_CLAMP <= i < 0.0:
        i = 0.0
    if -_CLAMP <= r < 0.0:
        r = 0.0
    if (s < -_OMEGA_SLACK or i < -_OMEGA_SLACK or r < -_OMEGA_SLACK
            or s + i + r > p.s0 + _OMEGA_SLACK):
        raise InvarianceViolationError(
            f"state ({s:g}, {i:g}, {r:g}) left Omega at t = {t:g}")
    return (s, i, r)


def _combine(y, h, coefs, ks):
    return tuple(
        y[j] + h * math.fsum(a * ks[m][j] for m, a in enumerate(coefs))
        for j in range(3))


def _rk4(rhs, y0, t_end, step, p):
    # times come from k*step, not accumulation, so the grid stays uniform
    # to the ulp and no spurious sliver step appears at t_end
    n_steps = max(1, math.ceil(t_end / step - 1e-12))
    times, states = [0.0], [y0]
    y = y0
    for k in range(n_steps):
        t0 = k * step
        h = min(step, t_end - t0)
        t1 = t_end if k == n_steps - 1 else t0 + h
        k1 = rhs(*y)
        k2 = rhs(*(tuple(y[j] + 0.5 * h * k1[j] for j in range(3))))
        k3 = rhs(*(tuple(y[j] + 0.5 * h * k2[j] for j in range(3))))
        k4 = rhs(*(tuple(y[j] + h * k3[j] for j in range(3))))
        y = tuple(y[j] + (h / 6.0) * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j])
                  for j in range(3))
        y = _postprocess(y, p, t1)
        times.append(t1)
        states.append(y)
    return times, states, StepStats(steps=n_steps, rejected=0, max_error=0.0)


def _rk45(rhs, y0, t_end, tol, p):
    h_min, h_max = 1e-10, t_end / 10.0
    h = min(t_end / 1000.0, h_max)
    t, y = 0.0, y0
    k1 = rhs(*y)
    times, states = [0.0], [y0]
    steps = rejected = 0
    max_error = 0.0
    while t_end - t > 1e-14 * t_end:
        h = min(h, t_end - t)
        ks = [k1]
        for row in _DP_A:
            ks.append(rhs(*_combine(y, h, row, ks)))
        y_new = _combine(y, h, _DP_A[-1], ks)  # 5th-order solution (FSAL)
        err = tuple(h * math.fsum(e * ks[m][j] for m, e in enumerate(_DP_ERR))
                    for j in range(3))
        err_norm = max(
            abs(err[j]) / (tol + tol * max(abs(y[j]), abs(y_new[j])))
            for j in range(3))
        if err_norm <= 1.0:
            t += h
            processed = _postprocess(y_new, p, t)
            k1 = ks[6] if processed == y_new else rhs(*processed)
            y = processed
            times.append(t)
            states.append(y)
            steps += 1
            max_error = max(max_error, max(abs(e) for e in err))
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        else:
            rejected += 1
            factor = max(0.2, 0.9 * err_norm ** -0.2)
        h = min(h_max, max(h_min, h * factor))
        if h <= h_min and err_norm > 1.0:
            raise BlowUpError(f"step size underflow at t = {t:g}")
        if steps + rejected > 5_000_000:
            raise BlowUpError("step budget exhausted; integration is not progressing")
    return times, states, StepStats(steps=steps, rejected=rejected, max_error=max_error)


def _downsample(times, states):
    if len(times) <= _MAX_STORED:
        return np.asarray(times, dtype=float), np.asarray(states, dtype=float)
    t_arr = np.asarray(times, dtype=float)
    targets = np.linspace(t_arr[0], t_arr[-1], _MAX_STORED)
    idx = np.unique(np.clip(np.searchsorted(t_arr, targets), 0, len(t_arr) - 1))
    idx[0], idx[-1] = 0, len(t_arr) - 1
    return t_arr[idx], np.asarray(states, dtype=float)[idx]


def integrate(p: ModelParams, f: IncidenceFunction, x0: State, t_end: float,
              method: str = "rk45_adaptive", step_or_tol: float = 1e-8) -> Trajectory:
    """Integrate the model from ``x0`` up to ``t_end``.

    ``method`` is ``rk4_fixed`` (``step_or_tol`` is the step) or
    ``rk45_adaptive`` (``step_or_tol`` is both the absolute and relative
    error tolerance; the initial step is t_end/1000 and steps stay in
    [1e-10, t_end/10]).  The initial state must lie exactly in Omega.
    """
    if not (t_end > 0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not (step_or_tol > 0):
        raise ValueError(f"step_or_tol must be positive, got {step_or_tol}")
    if x0.S + x0.I + x0.R > p.s0:
        raise ValueError(
            f"initial state sums to {x0.S + x0.I + x0.R:g} > Lambda/mu = {p.s0:g}")
    rhs = make_rhs(p, f)
    y0 = (x0.S, x0.I, x0.R)
    if method == "rk4_fixed":
        times, states, stats = _rk4(rhs, y0, t_end, step_or_tol, p)
    elif method == "rk45_adaptive":
        times, states, stats = _rk45(rhs, y0, t_end, step_or_tol, p)
    else:
        raise ValueError(f"unknown method {method!r}; "
                         "expected 'rk4_fixed' or 'rk45_adaptive'")
    t_arr, y_arr = _downsample(times, states)
    params_id = (f"{f.label}|Lambda={p.Lambda:g},mu={p.mu:g},gamma1={p.gamma1:g},"
                 f"gamma2={p.gamma2:g},alpha={p.alpha:g},delta={p.delta:g}")
    return Trajectory(times=t_arr, states=y_arr, params_id=params_id, step_stats=stats)


def attractor(p: ModelParams, f: IncidenceFunction) -> State:
    """Predicted attractor: the endemic equilibrium when R0 > 1 and one
    exists, otherwise the disease-free equilibrium."""
    if r0(p, f) > 1:
        report = find_endemic(p, f)
        if report.endemic:
            return report.endemic[0][0]
    return dfe(p)


def sweep(p: ModelParams, f: IncidenceFunction, initials: Sequence[State],
          t_end: float, conv_tol: float) -> SweepReport:
    """Integrate every initial condition and measure distance to the attractor.

    Runs use the adaptive method at tolerance 1e-8.  A run that fails
    with a toolkit error is recorded with infinite distance instead of
    aborting the others; distances are max-norm at t_end.
    """
    target = attractor(p, f)
    target_arr = target.as_array()
    runs = []
    for x0 in initials:
        try:
            traj = integrate(p, f, x0, t_end, "rk45_adaptive", 1e-8)
        except SirsKitError:
            runs.append(SweepRun(initial=x0, final=None,
                                 distance=math.inf, trajectory=None))
            continue
        distance = float(np.max(np.abs(traj.states[-1] - target_arr)))
        runs.append(SweepRun(initial=x0, final=traj.final_state,
                             distance=distance, trajectory=traj))
    converged = sum(1 for run in runs if run.distance < conv_tol)
    return SweepReport(target=target, runs=runs,
                       converged_fraction=converged / len(runs) if runs else 0.0,
                       conv_tol=conv_tol)


def omega_lattice(p: ModelParams, n: int, include_i_zero: bool = True) -> list:
    """n x n x n candidate lattice over [0, Lambda/mu]^3, kept inside Omega.

    Membership is exact (tolerance 0) so every point satisfies the
    integrator's precondition; boundary triples whose floating-point sum
    lands just above Lambda/mu are dropped.  With ``include_i_zero``
    false the I = 0 plane is excluded, which is the right choice when
    the attractor is endemic.
    """
    if n < 2:
        raise ValueError(f"lattice size must be at least 2, got {n}")
    axis = np.linspace(0.0, p.s0, n)
    points = []
    for s in axis:
        for i in axis:
            if not include_i_zero and i == 0.0:
                continue
            for rv in axis:
                if s + i + rv <= p.s0:
                    points.append(State(float(s), float(i), float(rv)))
    return points


def conservation_check(traj: Trajectory, p: ModelParams,
                       f: IncidenceFunction) -> float:
    """Max residual of the total-population law along the trajectory.

    Compares the centred difference of N = S+I+R at interior stored
    points against Lambda - mu*N - alpha*I; the residual is O(step^2)
    for a fixed-step run storing every step.
    """
    if len(traj.times) < 3:
        return 0.0
    t = traj.times
    n_tot = traj.states.sum(axis=1)
    dn = (n_tot[2:] - n_tot[:-2]) / (t[2:] - t[:-2])
    rhs = p.Lambda - p.mu * n_tot[1:-1] - p.alpha * traj.states[1:-1, 1]
    return float(np.max(np.abs(dn - rhs)))
