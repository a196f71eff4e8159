"""Trajectory integration, convergence sweeps and conservation checks.

One explicit Runge-Kutta engine steps two tableaux, both written in
first-same-as-last form: classic RK4 with a fixed step, and the embedded
Dormand-Prince 5(4) pair with mixed absolute/relative error control.
``_compile`` writes the whole scalar loop of a method as Python source,
with the fixed or adaptive step logic chosen as it writes.  Every stage
computes its input in S, I and R, then evaluates a built-in family's
incidence text and the model's ``EQUATIONS`` there, both as written, so
a step calls nothing for the model.  Any other incidence callable is
called once per stage from the same loop.  Each loop compiles on first
use, once per method and incidence text; rates and coefficients are its
parameters.  The batch calls an array stage function written by the same
stage emitter.
Every step enforces the model's invariants numerically: components are
clamped to zero only for round-off (within 2e-14*S0 below zero), and a
state that leaves the feasible simplex by more than 2e-8*S0 aborts the
run, since the model guarantees non-negativity and forward invariance.
At S0 = 50 those bounds are 1e-12 and 1e-6.  ``_postprocess`` is that
rule, for every accepted state outside Omega in both integrators.

Every run keeps its accepted states as one history, a flat
``array('d')`` of (t, S, I, R) rows, which ``_trajectory`` downsamples.
``sweep`` steps all its initial states once, as one batch, one array row
each with its own step size, and appends that row's accepted steps to
its history in blocks.  ``integrate`` stays scalar: a batch of one pays
NumPy's per-call cost on every stage, about 45 ms against 1.6 ms for the
scalar loop from (30, 10, 5) to t = 500 on the reference model (2-core
x86-64 VM, Python 3.11, NumPy 2.4); the batch breaks even near 32 rows.

``sweep``'s CSVs are written by ``write_trajectories``, one forked
process per usable CPU, with no option to set: formatting the floats,
not integrating, is most of a large sweep's time.  Where ``os.fork`` is
missing, or only one CPU is usable, it writes them all in-process.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import signal
import sys
from array import array
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .codegen import define
from .equilibria import find_endemic
from .errors import BlowUpError, InvarianceViolationError, SirsKitError
from .incidence import IncidenceFunction, formula
from .model import (EQUATIONS, RATES, ModelParams, State, dfe, make_rhs, omega_grid, r0,
                    rates)

_MAX_STORED = 10_000
_MAX_STEPS = 5_000_000
_CLAMP = 2e-14  # times S0
_OMEGA_SLACK = 2e-8  # times S0
_ATOL = 2e-2  # absolute error tolerance, times S0 and the relative tolerance
_BATCH_ROWS = 32  # accepted states a batch row holds before they join its history
_NON_FINITE = "state non-finite at t = {:g}"
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

    @property
    def final_state(self) -> State:
        s, i, r = self.states[-1]
        # Stored values may carry round-off slightly below zero.
        return State(max(s, 0.0), max(i, 0.0), max(r, 0.0))

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


def write_trajectories(jobs: Sequence[tuple]) -> None:
    """Write each ``(path, trajectory)`` of ``jobs`` with ``to_csv``.

    With n = min(usable CPUs, len(jobs)) > 1, forked child w = 1..n-1
    writes ``jobs[w::n]`` from the memory it shares with the caller, and
    the caller writes ``jobs[0::n]``, then reaps them.  A child that
    fails prints one line on standard error; the call then raises
    ``OSError``.  If the caller itself raises, it kills and reaps its
    children first, so no process outlives the call.
    """
    n = max(1, min(_usable_cpus(), len(jobs))) if hasattr(os, "fork") else 1
    children = []
    try:
        for w in range(1, n):
            # no signal handler may raise between the fork and the append
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
            try:
                pid = os.fork()
                if pid == 0:
                    _write_share_and_exit(jobs[w::n], mask)
                children.append(pid)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for path, trajectory in jobs[0::n]:
            trajectory.to_csv(path)
        failed = 0
        while children:
            _, status = os.waitpid(children[-1], 0)
            children.pop()
            failed += os.waitstatus_to_exitcode(status) != 0
    finally:
        for pid in children:
            # a signal between a reap and its pop leaves a reaped pid here
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if failed:
        raise OSError(f"{failed} of {n - 1} CSV writer processes failed")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _write_share_and_exit(jobs, mask) -> None:
    """Forked child: restore the signal ``mask``, write ``jobs`` and leave
    with ``os._exit``, which neither flushes the parent's stdio buffers nor
    returns to the caller.  Any exception, an interrupt too, exits 1."""
    code = 1
    try:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        for path, trajectory in jobs:
            trajectory.to_csv(path)
        code = 0
    except BaseException as exc:
        line = f"sirskit: CSV writer {os.getpid()}: {type(exc).__name__}: {exc}\n"
        with contextlib.suppress(AttributeError, OSError):  # no stderr to write to
            os.write(sys.__stderr__.fileno(), line.encode(errors="replace"))
    finally:
        os._exit(code)


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
        raise BlowUpError(_NON_FINITE.format(t))
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


def _step_lines(rows, error, derivative):
    """Source lines of one step of the tableau ``(rows, error)`` from the
    state (s, i, r) whose derivative is (k0s, k0i, k0r).

    Row m = 1..n of the n rows gives the input (S, I, R) of stage m, at
    which ``derivative(f"k{m}")`` binds (k{m}s, k{m}i, k{m}r); after stage
    n, (S, I, R) is the new solution, whose derivative starts the next
    step.  With an error row, (es, ei, er) is the error estimate.  Each
    input is y + h*d, where d = 0.0 + a0*k0 and then d += a*k for each
    further nonzero weight a, in stage order; the error is 0.0 + h*d over
    the error row.  The weights enter as their ``repr``, so every float
    rounds as in that sum, and arrays accumulate in place.
    """
    lines = []

    def accumulate(weights):
        for c in "sir":
            terms = [f"{a!r} * k{j}{c}" for j, a in enumerate(weights) if a]
            lines.append(f"d{c} = 0.0 + {terms[0]}")
            lines.extend(f"d{c} += {term}" for term in terms[1:])

    for m, weights in enumerate(rows, 1):
        accumulate(weights)
        lines.extend(f"{c.upper()} = {c} + h * d{c}" for c in "sir")
        lines.extend(derivative(f"k{m}"))
    if error is not None:
        accumulate(error)
        lines.extend(f"e{c} = 0.0 + h * d{c}" for c in "sir")
    return lines


def _indent(lines, depth: int) -> str:
    return "".join("    " * depth + line + "\n" for line in lines)


@functools.cache
def _stages(method: str):
    """One step of ``method`` as one straight-line function, for the
    batch: ``stages(rhs, y, h, k)`` returns the new solution, ``rhs`` at
    it (the next step's first stage) and the error estimate, or None for
    a method without an error row.  ``y`` and ``k`` are (S, I, R) triples
    of floats or of arrays; ``rhs`` is called once per stage."""
    rows, error = METHODS[method]

    def call(k):
        return [f"{k} = rhs(S, I, R)", f"{k}s, {k}i, {k}r = {k}"]

    estimate = "None" if error is None else "(es, ei, er)"
    source = (f"def stages(rhs, y, h, k):\n"
              + _indent(["s, i, r = y", "k0s, k0i, k0r = k",
                         *_step_lines(rows, error, call),
                         f"return (S, I, R), k{len(rows)}, {estimate}"], 1))
    return define(source, "stages", f"<sirskit {method} stages>")


# The incidence text of the loop that calls ``eval_f`` itself.
_CALL = "eval_f(S, I)"


def _loop_source(method: str, f_text: str, names) -> str:
    """The source of ``_compile``'s loop for ``method``, ``f_text`` and
    the coefficient ``names``."""
    rows, error = METHODS[method]
    adaptive, n = error is not None, len(rows)

    def derivative(k):
        return [f"fv = {f_text}", *(f"{k}{c} = {eq}" for c, eq in zip("sir", EQUATIONS))]

    k_new = f"k{n}s, k{n}i, k{n}r"
    head = [("tol, atol, h, h_min, h_max, max_steps = control" if adaptive
             else "step, n_steps = control"),
            "clamp, low, top = bounds",
            "s, i, r = S, I, R = y0",
            *derivative("k0"),
            'history = array("d", (0.0, s, i, r))',
            "record = history.extend",
            "t, steps, rejected, max_error = 0.0, 0, 0, 0.0"]
    stages = ["try:", *(f"    {line}" for line in _step_lines(rows, error, derivative))]
    accept = ["try:",
              "    # a state inside Omega is what postprocess would return unchanged",
              "    if 0.0 <= S and 0.0 <= I and 0.0 <= R and S + I + R <= top:",
              f"        s, i, r, k0s, k0i, k0r = S, I, R, {k_new}",
              "    else:",
              "        s, i, r = S, I, R = postprocess((S, I, R), t, clamp, low, top)",
              *(f"        {line}" for line in derivative("k0")),
              "except TypeError:  # only a fixed step is accepted off the reals",
              "    raise BlowUpError(NON_FINITE.format(t)) from None",
              "record((t, s, i, r))",
              "steps += 1"]
    # A stage far outside Omega can overflow (OverflowError from ``float **
    # q``) or leave the reals (a negative base to a fractional power gives a
    # complex, which isfinite and ``<=`` reject with TypeError).  The adaptive
    # method then rejects the trial step as if its error were infinite, as
    # the batch does with inf and nan; the fixed-step method cannot, and
    # stops with BlowUpError.
    if adaptive:
        finite = " and ".join(f"isfinite({v})" for v in ("es", "ei", "er", "S", "I", "R"))
        norm = ", ".join(f"abs(e{c}) / (atol + tol * max(abs({c}), abs({c.upper()})))"
                         for c in "sir")
        loop = ["while t_end - t > 1e-14 * t_end:",
                "    rest = t_end - t",
                "    if rest < h:  # min(h, rest) without a call",
                "        h = rest",
                *(f"    {line}" for line in stages),
                f"        if {finite}:",
                f"            err_norm = max({norm})",
                "        else:",
                "            err_norm = inf",
                "    except (OverflowError, TypeError):",
                "        err_norm = inf",
                "    if err_norm <= 1.0:",
                "        t = t + h",
                *(f"        {line}" for line in accept),
                "        max_error = max(max_error, abs(es), abs(ei), abs(er))",
                "    else:",
                "        rejected += 1",
                "    h = next_step(h, err_norm, h_min, h_max)",
                "    if h <= h_min and err_norm > 1.0:",
                "        raise BlowUpError(UNDERFLOW.format(t))",
                "    if steps + rejected > max_steps:",
                "        raise BlowUpError(EXHAUSTED)"]
    else:
        # times come from k*step, not accumulation, so the grid stays uniform
        # to the ulp and no spurious sliver step appears at t_end; _run has
        # checked n_steps against the step budget
        loop = ["while steps < n_steps:",
                "    t = steps * step",
                "    rest = t_end - t",
                "    h = rest if rest < step else step",
                *(f"    {line}" for line in stages),
                "    except (OverflowError, TypeError):",
                "        raise BlowUpError(NON_FINITE.format(t + h)) from None",
                "    t = t + h if steps < n_steps - 1 else t_end",
                *(f"    {line}" for line in accept)]
    return (f"def loop(y0, t_end, control, bounds, {', '.join((*RATES, *names))}):\n"
            + _indent([*head, *loop, "return history, StepStats(steps, rejected, max_error)"], 1))


@functools.cache
def _compile(method: str, f_text: str, names: tuple):
    """The whole scalar integration loop of ``method`` for the incidence
    expression ``f_text`` in S, I and the coefficients ``names``, compiled
    on first use: ``loop(y0, t_end, control, bounds, **rates,
    **coefficients)`` returns the history and the StepStats of one run.

    ``control`` is (step, number of steps) for a fixed-step method and
    (tol, atol, h, h_min, h_max, step budget) for an adaptive one.  Every stage
    writes its input to S, I and R and evaluates ``f_text`` and the model's
    ``EQUATIONS`` there verbatim, so a step makes no Python call but those
    in ``f_text``.  The rates and coefficients are the loop's parameters,
    under their own names, so no value is ever part of the source.
    """
    namespace = {"array": array, "isfinite": math.isfinite, "inf": math.inf,
                 "postprocess": _postprocess, "next_step": _next_step,
                 "BlowUpError": BlowUpError, "StepStats": StepStats,
                 "NON_FINITE": _NON_FINITE, "UNDERFLOW": _UNDERFLOW, "EXHAUSTED": _EXHAUSTED}
    return define(_loop_source(method, f_text, names), "loop",
                  f"<sirskit {method} loop: {f_text}>", namespace)


def _step_range(t_end: float):
    """Initial, smallest and largest step of the adaptive method, each a
    multiple of t_end, so that a run with every rate multiplied by c and
    t_end divided by c takes the same steps (2e-13*t_end is 1e-10 at
    t_end = 500)."""
    return t_end / 1000.0, 2e-13 * t_end, t_end / 10.0


def _next_step(h, err_norm, h_min, h_max, smaller=min, larger=max):
    """h scaled by 0.9*err_norm**(-1/5) clipped to [0.2, 5], kept in [h_min,
    h_max] (Hairer, Norsett & Wanner, Solving ODEs I, II.4).  A zero norm
    counts as the least positive float.  The batch passes ``np.minimum``
    and ``np.maximum`` for ``smaller`` and ``larger``."""
    factor = smaller(5.0, larger(0.2, 0.9 * larger(err_norm, 5e-324) ** -0.2))
    return smaller(h_max, larger(h_min, h * factor))


def _run(p: ModelParams, f: IncidenceFunction, y0, t_end: float,
         step_or_tol: float, method: str):
    """History and StepStats of one scalar run, from ``_compile``'s loop.

    The loop inlines a built-in family's f when ``f.eval_f`` is the very
    function ``make_builtin`` built from its text; any other callable is
    called once per stage as ``eval_f(S, I)``.  A fixed-step run that
    needs more than ``_MAX_STEPS`` steps fails before it takes one.
    """
    if METHODS[method][1] is None:
        n_steps = max(1, math.ceil(t_end / step_or_tol - 1e-12))
        if n_steps > _MAX_STEPS:
            raise BlowUpError(f"{method} needs {n_steps} steps of {step_or_tol:g} "
                              f"to t = {t_end:g}, over the step budget of {_MAX_STEPS}")
        control = (step_or_tol, n_steps)
    else:
        control = (step_or_tol, step_or_tol * (_ATOL * p.s0), *_step_range(t_end), _MAX_STEPS)
    f_text, coefficients = formula(f.eval_f) or (_CALL, {"eval_f": f.eval_f})
    loop = _compile(method, f_text, tuple(coefficients))
    return loop(y0, t_end, control, _bounds(p), **rates(p), **coefficients)


def _run_batch(rhs, y0: np.ndarray, t_end: float, tol: float, p: ModelParams):
    """Dormand-Prince from every row of the (m, 3) array ``y0`` at once.

    Each row runs the tableau, step-size controller, checks and step
    budget of ``_run`` from it alone, with its own time, step size, error
    norm and accept decision, and the same operations in the same order.
    Only NumPy's rounding differs from the scalar loop's: NumPy computes
    an array's ``S ** 2.0`` as ``S * S`` and a fractional power with its
    own SIMD ``pow``, where a float goes through libm, and the two differ
    in the last bit on a few inputs in a hundred.  A row's states then
    differ from ``integrate``'s by rounding, and rarely an accept decision
    flips (from (30, 10, 5) to t_end = 2e5 on the reference model, 2681
    rejected steps against 2682).  ``_postprocess`` checks Omega, one row
    at a time on the accepted states outside it.  A row leaves the batch
    when it reaches ``t_end`` or fails.  Returns, per row, its history in
    ``_run``'s format and its StepStats or the SirsKitError that ended it.
    """
    stages = _stages("rk45_adaptive")
    h0, h_min, h_max = _step_range(t_end)
    atol = tol * (_ATOL * p.s0)
    bounds = _, _, top = _bounds(p)
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
            y_new, k_new, err = stages(rhs, y, h, k1)
            err_norm = np.maximum.reduce([np.abs(e) / (atol + tol * np.maximum(np.abs(a), np.abs(b)))
                                          for e, a, b in zip(err, y, y_new)])
            err_norm[~np.logical_and.reduce([np.isfinite(v) for v in err + y_new])] = np.inf
            accept = err_norm <= 1.0
            t = np.where(accept, t + h, t)
            # as in ``_run``'s loop, each accepted state outside Omega goes to _postprocess
            s, i, r = y_new
            off = accept & ~((0.0 <= s) & (0.0 <= i) & (0.0 <= r) & (s + i + r <= top))
            kept, failed = [], []
            for j in np.flatnonzero(off).tolist():
                try:
                    s[j], i[j], r[j] = _postprocess((s[j], i[j], r[j]), float(t[j]), *bounds)
                except SirsKitError as exc:
                    outcomes[idx[j]] = exc
                    failed.append(j)
                else:
                    kept.append(j)
            if kept:
                for k, k_kept in zip(k_new, rhs(s[kept], i[kept], r[kept])):
                    k[kept] = k_kept
            accept[failed] = False  # the row leaves below with its error
            y = tuple(np.where(accept, a, b) for a, b in zip(y_new, y))
            k1 = tuple(np.where(accept, a, b) for a, b in zip(k_new, k1))
            steps += accept
            rejected += ~accept
            stored = idx[accept]
            pending[stored, held[stored]] = np.column_stack([v[accept] for v in (t, *y)])
            held[stored] += 1
            for j in stored[held[stored] == _BATCH_ROWS].tolist():
                histories[j].frombytes(pending[j].tobytes())
                held[j] = 0
            max_error = np.where(accept, np.maximum(max_error, np.maximum.reduce(np.abs(err))),
                                 max_error)
            h = _next_step(h, err_norm, h_min, h_max, np.minimum, np.maximum)
            underflow = (h <= h_min) & (err_norm > 1.0)
            exhausted = steps + rejected > _MAX_STEPS
            leave = underflow | exhausted | (t_end - t <= 1e-14 * t_end)
            leave[failed] = True
            if not leave.any():
                continue
            for j in np.flatnonzero(leave).tolist():
                histories[idx[j]].frombytes(pending[idx[j], :held[idx[j]]].tobytes())
                if outcomes[idx[j]] is not None:  # _postprocess rejected its state
                    continue
                if underflow[j]:
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
    if not 0.0 < t_end < math.inf:
        raise ValueError(f"t_end must be positive and finite, got {t_end}")
    if not 0.0 < step_or_tol < math.inf:
        raise ValueError(f"step_or_tol must be positive and finite, got {step_or_tol}")
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
    steps stay in [2e-13*t_end, t_end/10], so rescaling time leaves the
    steps taken unchanged).  The initial state must lie exactly in Omega.
    """
    _check_run(p, [x0], t_end, step_or_tol)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {list(METHODS)}")
    history, stats = _run(p, f, (x0.S, x0.I, x0.R), t_end, step_or_tol, method)
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
    once, as one batch; each run takes ``integrate``'s steps from its
    initial state up to NumPy's rounding (see ``_run_batch``) and builds
    its trajectory from a history in the same format.  A run that fails
    with a toolkit error is recorded with infinite distance and its error
    instead of aborting the others; distances are max-norm at t_end.
    Raises ValueError unless conv_tol is positive and finite.
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
