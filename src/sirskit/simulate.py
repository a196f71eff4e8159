"""Trajectory integration, convergence sweeps and conservation checks.

One explicit Runge-Kutta engine steps two tableaux, both written in
first-same-as-last form: classic RK4 with a fixed step, and the embedded
Dormand-Prince 5(4) pair with mixed absolute/relative error control.
Every step enforces the model's invariants numerically: components are
clamped to zero only for round-off (within 2e-14*S0 below zero), and a
state that leaves the feasible simplex by more than 2e-8*S0 aborts the
run, since the model guarantees non-negativity and forward invariance.
At S0 = 50 those bounds are 1e-12 and 1e-6.

Every run keeps its accepted states as one history, a flat
``array('d')`` of (t, S, I, R) rows, which ``_trajectory`` downsamples.
``sweep`` steps all its initial states once, as one batch, one array row
each with its own step size, and appends that row's accepted steps to
its history in blocks.  ``integrate`` stays scalar: a batch of one pays
NumPy's per-call cost on every stage, 80 ms against 3.5 ms for the
scalar loop from (30, 10, 5) to t = 500 on the reference model (2-core
x86-64 VM, Python 3.11, NumPy 2.4); the batch breaks even near 16 rows.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .equilibria import find_endemic
from .errors import BlowUpError, InvarianceViolationError, SirsKitError
from .incidence import IncidenceFunction
from .model import ModelParams, State, dfe, make_rhs, omega_grid, r0

_MAX_STORED = 10_000
_MAX_STEPS = 5_000_000
_CLAMP = 2e-14  # times S0
_OMEGA_SLACK = 2e-8  # times S0
_ATOL = 2e-2  # absolute error tolerance, times S0 and the relative tolerance
_BATCH_ROWS = 32  # accepted states a batch row holds before they join its history
_UNDERFLOW = "step size underflow at t = {:g}"
_EXHAUSTED = "step budget exhausted; integration is not progressing"

# Explicit Runge-Kutta tableaux in first-same-as-last (FSAL) form: row m
# weights stages 0..m into the input of stage m+1, and the last row is the
# new solution, whose stage starts the next step.  A method with an error
# row (higher- minus lower-order weights) adapts its step; one without
# takes fixed steps.  ``step_or_tol`` is that step or the error tolerance.
METHODS = {
    "rk4_fixed": (((1 / 2,), (0.0, 1 / 2), (0.0, 0.0, 1.0),
                   (1 / 6, 1 / 3, 1 / 3, 1 / 6)), None),
    "rk45_adaptive": (  # Dormand-Prince 5(4)
        ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
        (35 / 384 - 5179 / 57600, 0.0, 500 / 1113 - 7571 / 16695,
         125 / 192 - 393 / 640, -2187 / 6784 + 92097 / 339200,
         11 / 84 - 187 / 2100, -1 / 40)),
}


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
        write_csv(path, "t,S,I,R", self.times, *self.states.T)


def write_csv(path, header: str, *columns) -> None:
    """Write equal-length float columns under ``header``, each value as
    its ``repr`` so that it reads back exactly."""
    rows = zip(*(np.asarray(column, dtype=float).tolist() for column in columns))
    with open(path, "w", newline="") as handle:
        handle.write(header + "\n")
        handle.writelines(",".join(map(repr, row)) + "\n" for row in rows)


@dataclass(frozen=True)
class SweepRun:
    """One sweep run; a failed one has ``error`` "<type>: <message>"."""

    initial: State
    final: State | None
    distance: float
    trajectory: Trajectory | None
    error: str | None = None


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
                    "error": run.error,
                }
                for run in self.runs
            ],
        }


def _bounds(p: ModelParams):
    """(clamp, low, top) for ``_postprocess``, worked out once per run."""
    return -_CLAMP * p.s0, -_OMEGA_SLACK * p.s0, p.s0 + _OMEGA_SLACK * p.s0


def _postprocess(y, t: float, clamp: float, low: float, top: float):
    s, i, r = y
    if not (math.isfinite(s) and math.isfinite(i) and math.isfinite(r)):
        raise BlowUpError(f"state non-finite at t = {t:g}")
    if clamp <= s < 0.0:
        s = 0.0
    if clamp <= i < 0.0:
        i = 0.0
    if clamp <= r < 0.0:
        r = 0.0
    if s < low or i < low or r < low or s + i + r > top:
        raise InvarianceViolationError(
            f"state ({s:g}, {i:g}, {r:g}) left Omega at t = {t:g}")
    return (s, i, r)


def _failure(y, t: float, bounds) -> SirsKitError:
    """The error ``_postprocess`` raises for a state it rejects."""
    try:
        _postprocess(y, t, *bounds)
    except SirsKitError as exc:
        return exc


def _combine(y, h, row, ks):
    """y + h * sum(a * k) over the nonzero weights a of ``row``.  The
    components are floats in the scalar loop and arrays in the batch."""
    ds = di = dr = 0.0
    for a, (k_s, k_i, k_r) in zip(row, ks):
        if a:
            ds += a * k_s
            di += a * k_i
            dr += a * k_r
    return (y[0] + h * ds, y[1] + h * di, y[2] + h * dr)


def _step_range(t_end: float):
    """Initial, smallest and largest step of the adaptive method."""
    return t_end / 1000.0, 1e-10, t_end / 10.0


def _next_step(h, err_norm, h_min, h_max, smaller=min, larger=max):
    """h scaled by 0.9*err_norm**(-1/5) clipped to [0.2, 5], kept in [h_min,
    h_max] (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  A zero norm
    counts as the least positive float.  The batch passes ``np.minimum``
    and ``np.maximum`` for ``smaller`` and ``larger``."""
    factor = smaller(5.0, larger(0.2, 0.9 * larger(err_norm, 5e-324) ** -0.2))
    return smaller(h_max, larger(h_min, h * factor))


def _run(rhs, y0, t_end, step_or_tol, p, tableau):
    rows, error = tableau
    if error:
        tol = step_or_tol
        atol = tol * (_ATOL * p.s0)
        h, h_min, h_max = _step_range(t_end)
    else:
        # times come from k*step, not accumulation, so the grid stays uniform
        # to the ulp and no spurious sliver step appears at t_end
        step = step_or_tol
        n_steps = max(1, math.ceil(t_end / step - 1e-12))
    clamp, low, top = _bounds(p)
    t, y, k1 = 0.0, y0, rhs(*y0)
    history = array("d", (0.0, *y0))  # flat (t, S, I, R) rows
    steps = rejected = 0
    max_error = 0.0
    while t_end - t > 1e-14 * t_end if error else steps < n_steps:
        if error:
            h = min(h, t_end - t)
        else:
            t = steps * step
            h = min(step, t_end - t)
        ks = [k1]
        for row in rows:
            y_new = _combine(y, h, row, ks)
            ks.append(rhs(*y_new))
        if error:
            err = _combine((0.0, 0.0, 0.0), h, error, ks)
            # a non-finite trial step is rejected as if its error were infinite
            if all(map(math.isfinite, err + y_new)):
                err_norm = max(abs(e) / (atol + tol * max(abs(a), abs(b)))
                               for e, a, b in zip(err, y, y_new))
            else:
                err_norm = math.inf
        if not error or err_norm <= 1.0:
            t = t + h if error or steps < n_steps - 1 else t_end
            y = _postprocess(y_new, t, clamp, low, top)
            k1 = ks[-1] if y == y_new else rhs(*y)
            history.extend((t, *y))
            steps += 1
            if error:
                max_error = max(max_error, *map(abs, err))
        else:
            rejected += 1
        if error:
            h = _next_step(h, err_norm, h_min, h_max)
            if h <= h_min and err_norm > 1.0:
                raise BlowUpError(_UNDERFLOW.format(t))
        if steps + rejected > _MAX_STEPS:
            raise BlowUpError(_EXHAUSTED)
    return history, StepStats(steps=steps, rejected=rejected, max_error=max_error)


def _run_batch(rhs, y0: np.ndarray, t_end: float, tol: float, p: ModelParams):
    """Dormand-Prince from every row of the (m, 3) array ``y0`` at once.

    Each row takes the steps ``_run`` takes from it alone, with its own
    time, step size, error norm, accept decision and step budget.  A row
    leaves the batch when it reaches ``t_end`` or fails.  Returns, per
    row, its history in ``_run``'s format and its StepStats or the
    SirsKitError that ended it.
    """
    rows, error = METHODS["rk45_adaptive"]
    h0, h_min, h_max = _step_range(t_end)
    atol = tol * (_ATOL * p.s0)
    bounds = clamp, low, top = _bounds(p)
    m = len(y0)
    histories = [array("d", (0.0, *x0)) for x0 in y0.tolist()]
    outcomes = [None] * m
    # Accepted states wait in ``pending`` and join their history a block at
    # a time: one append per accepted step, a Python call each, took a third
    # of a lattice-16 sweep and regrew every history 4 floats at a time.
    pending, held = np.empty((m, _BATCH_ROWS, 4)), np.zeros(m, dtype=int)
    idx, t, h = np.arange(m), np.zeros(m), np.full(m, h0)
    steps, rejected, max_error = np.zeros(m, dtype=int), np.zeros(m, dtype=int), np.zeros(m)
    y = tuple(y0.T.copy())
    # A row whose state turns non-finite must not stop the others.
    with np.errstate(all="ignore"):
        k1 = rhs(*y)
        while idx.size:
            h = np.minimum(h, t_end - t)
            ks = [k1]
            for row in rows:
                y_new = _combine(y, h, row, ks)
                ks.append(rhs(*y_new))
            err = _combine((0.0, 0.0, 0.0), h, error, ks)
            err_norm = np.maximum.reduce([np.abs(e) / (atol + tol * np.maximum(np.abs(a), np.abs(b)))
                                          for e, a, b in zip(err, y, y_new)])
            err_norm[~np.logical_and.reduce([np.isfinite(v) for v in err + y_new])] = np.inf
            accept = err_norm <= 1.0
            # _postprocess on arrays: clamp round-off below zero, then check Omega
            s, i, r = clamped = tuple(np.where((v < 0.0) & (v >= clamp), 0.0, v) for v in y_new)
            bad = accept & ~((s >= low) & (i >= low) & (r >= low) & (s + i + r <= top))
            good = accept & ~bad
            t = np.where(accept, t + h, t)
            y = tuple(np.where(good, c, v) for c, v in zip(clamped, y))
            k1 = tuple(np.where(good, k, v) for k, v in zip(ks[-1], k1))
            moved = good & ((s != y_new[0]) | (i != y_new[1]) | (r != y_new[2]))
            if moved.any():
                for k, k_new in zip(k1, rhs(*(v[moved] for v in y))):
                    k[moved] = k_new
            steps += accept
            rejected += ~accept
            stored = idx[good]
            pending[stored, held[stored]] = np.column_stack([v[good] for v in (t, *y)])
            held[stored] += 1
            for j in stored[held[stored] == _BATCH_ROWS].tolist():
                histories[j].frombytes(pending[j].tobytes())
                held[j] = 0
            max_error = np.where(accept, np.maximum(max_error, np.maximum.reduce(np.abs(err))),
                                 max_error)
            h = _next_step(h, err_norm, h_min, h_max, np.minimum, np.maximum)
            underflow = (h <= h_min) & (err_norm > 1.0)
            exhausted = steps + rejected > _MAX_STEPS
            leave = bad | underflow | exhausted | (t_end - t <= 1e-14 * t_end)
            if not leave.any():
                continue
            for j in np.flatnonzero(leave).tolist():
                histories[idx[j]].frombytes(pending[idx[j], :held[idx[j]]].tobytes())
                if bad[j]:
                    outcomes[idx[j]] = _failure(tuple(v[j] for v in y_new), float(t[j]), bounds)
                elif underflow[j]:
                    outcomes[idx[j]] = BlowUpError(_UNDERFLOW.format(float(t[j])))
                elif exhausted[j]:
                    outcomes[idx[j]] = BlowUpError(_EXHAUSTED)
                else:
                    outcomes[idx[j]] = StepStats(int(steps[j]), int(rejected[j]),
                                                 float(max_error[j]))
            stay = ~leave
            idx, t, h, steps, rejected, max_error = (
                v[stay] for v in (idx, t, h, steps, rejected, max_error))
            y, k1 = tuple(v[stay] for v in y), tuple(v[stay] for v in k1)
    return histories, outcomes


def _downsample(history):
    """Times and states of a history, a buffer of float (t, S, I, R) rows,
    at most ``_MAX_STORED`` rows picked uniformly in time.  Both are views
    of one (n, 4) array, the history itself when nothing is dropped."""
    data = np.frombuffer(history, dtype=float).reshape(-1, 4)
    if len(data) > _MAX_STORED:
        t_arr = data[:, 0]
        targets = np.linspace(t_arr[0], t_arr[-1], _MAX_STORED)
        idx = np.unique(np.clip(np.searchsorted(t_arr, targets), 0, len(t_arr) - 1))
        idx[0], idx[-1] = 0, len(t_arr) - 1
        data = data[idx]
    return data[:, 0], data[:, 1:]


def _trajectory(history, stats: StepStats) -> Trajectory:
    times, states = _downsample(history)
    return Trajectory(times=times, states=states, step_stats=stats)


def _check_run(p: ModelParams, initials, t_end: float, step_or_tol: float) -> None:
    if not (t_end > 0):
        raise ValueError(f"t_end must be positive, got {t_end}")
    if not (step_or_tol > 0):
        raise ValueError(f"step_or_tol must be positive, got {step_or_tol}")
    for x0 in initials:
        if x0.S + x0.I + x0.R > p.s0:
            raise ValueError(
                f"initial state sums to {x0.S + x0.I + x0.R:g} > Lambda/mu = {p.s0:g}")


def integrate(p: ModelParams, f: IncidenceFunction, x0: State, t_end: float,
              method: str = "rk45_adaptive", step_or_tol: float = 1e-8) -> Trajectory:
    """Integrate the model from ``x0`` up to ``t_end``.

    ``method`` is ``rk4_fixed`` (``step_or_tol`` is the step) or
    ``rk45_adaptive`` (``step_or_tol`` is the relative error tolerance
    and step_or_tol*2e-2*S0 the absolute one, so both scale with the
    population and agree at S0 = 50; the initial step is t_end/1000 and
    steps stay in [1e-10, t_end/10]).  The initial state must lie
    exactly in Omega.
    """
    _check_run(p, [x0], t_end, step_or_tol)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {list(METHODS)}")
    history, stats = _run(make_rhs(p, f), (x0.S, x0.I, x0.R), t_end,
                          step_or_tol, p, METHODS[method])
    return _trajectory(history, stats)


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

    Runs use the adaptive method at relative tolerance 1e-8 (absolute
    2e-10*S0, as in ``integrate``), with all initial states stepped
    once, as one batch; each run takes the steps ``integrate`` takes
    from its initial state and builds its trajectory from a history in
    the same format.  A run that fails with a toolkit error is recorded
    with infinite distance and its error instead of aborting the others;
    distances are max-norm at t_end.  Raises ValueError unless conv_tol
    is positive and finite.
    """
    tol = 1e-8
    _check_run(p, initials, t_end, tol)
    if not 0.0 < conv_tol < math.inf:
        raise ValueError(f"conv_tol must be positive and finite, got {conv_tol}")
    target = attractor(p, f)
    target_arr = target.as_array()
    rhs = make_rhs(p, f)
    y0 = np.array([(x0.S, x0.I, x0.R) for x0 in initials], dtype=float).reshape(-1, 3)
    histories, outcomes = _run_batch(rhs, y0, t_end, tol, p)
    runs = []
    for x0, history, outcome in zip(initials, histories, outcomes):
        if isinstance(outcome, SirsKitError):
            runs.append(SweepRun(initial=x0, final=None, distance=math.inf, trajectory=None,
                                 error=f"{type(outcome).__name__}: {outcome}"))
            continue
        traj = _trajectory(history, outcome)
        distance = float(np.max(np.abs(traj.states[-1] - target_arr)))
        runs.append(SweepRun(initial=x0, final=traj.final_state,
                             distance=distance, trajectory=traj))
    converged = sum(1 for run in runs if run.distance < conv_tol)
    return SweepReport(target=target, runs=runs,
                       converged_fraction=converged / len(runs) if runs else 0.0,
                       conv_tol=conv_tol)


def omega_lattice(p: ModelParams, n: int, include_i_zero: bool = True) -> list:
    """The ``omega_grid`` lattice of Omega at spacing Lambda/(mu*(n-1)), as States.

    Membership is exact (tolerance 0) so every point satisfies the
    integrator's precondition; boundary triples whose floating-point sum
    lands just above Lambda/mu are dropped.  With ``include_i_zero``
    false the I = 0 plane is excluded, which is the right choice when
    the attractor is endemic.  Points come in lexicographic (S, I, R)
    order.
    """
    ss, ii, rr = omega_grid(p, n)
    keep = (ss + ii + rr <= p.s0) & ((ii > 0.0) | include_i_zero)
    return [State(s, i, rv) for s, i, rv in zip(ss[keep].tolist(), ii[keep].tolist(),
                                                 rr[keep].tolist())]


def conservation_check(traj: Trajectory, p: ModelParams) -> float:
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
