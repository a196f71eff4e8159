"""Spans and work counters for the traced run, recorded from outside ``src``.

The tracer replaces public ``sirskit`` functions in the module namespaces
where their callers look them up (``sirskit.cli.certify``,
``sirskit.stability.find_k1``, ``Trajectory.to_csv``, ...), so spans nest
inside the real op.  A span records its name, start, end, parent and op id;
spans stay in memory until the run writes them out.  A layer's self time is
its span's duration minus the durations of its direct children.

Work counters come from a separate counting pass, because the counting
wrapper around ``IncidenceFunction.eval_f``/``eval_f1`` slows the scalar
integrator loops by a large factor.  That pass builds every incidence
function through a wrapped ``make_builtin`` and charges each call and each
evaluated element to the innermost open span.  Steps, rejected steps, CSV
rows and bytes, brackets and granted certificates come from the public
return values.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from sirskit import cli, config, equilibria, incidence, jsonio, simulate, stability

_INTEGRATE_PARAMS = inspect.signature(simulate.integrate)
_DVDT_PARAMS = inspect.signature(stability.dvdt_scan)


def _integrate_span(args, kwargs) -> str:
    bound = _INTEGRATE_PARAMS.bind(*args, **kwargs)
    bound.apply_defaults()
    return ("simulate.integrate_rk4" if bound.arguments["method"] == "rk4_fixed"
            else "simulate.integrate_rk45")


def _count_steps(counts, args, kwargs, traj):
    counts["simulate.steps"] += traj.step_stats.steps
    counts["simulate.rejected"] += traj.step_stats.rejected


def _count_csv(counts, args, kwargs, result):
    traj, path = args
    counts["simulate.csv_rows"] += len(traj.times)
    counts["simulate.csv_bytes"] += os.path.getsize(path)


def _count_dvdt_grid(counts, args, kwargs, result):
    bound = _DVDT_PARAMS.bind(*args, **kwargs)
    bound.apply_defaults()
    counts["stability.dvdt_grid_points"] += bound.arguments["grid_n"] ** 3


def _count_brackets(counts, args, kwargs, report):
    counts["equilibria.brackets"] += len(report.bracket_log)


def _count_granted(counts, args, kwargs, report):
    counts["stability.granted"] += int(report.granted)


def _count_json_bytes(counts, args, kwargs, text):
    counts["jsonio.bytes"] += len(text.encode())


# (namespace, attribute, span name or namer, result hook for the counting pass)
_TARGETS = (
    (cli, "load_config", "config.load_config", None),
    (config, "load_config", "config.load_config", None),
    (cli, "check_hypotheses", "incidence.check_hypotheses", None),
    (incidence, "check_hypotheses", "incidence.check_hypotheses", None),
    (cli, "find_endemic", "equilibria.find_endemic", _count_brackets),
    (simulate, "find_endemic", "equilibria.find_endemic", _count_brackets),
    (equilibria, "find_endemic", "equilibria.find_endemic", _count_brackets),
    (cli, "certify", "stability.certify", _count_granted),
    (stability, "certify", "stability.certify", _count_granted),
    (stability, "find_k1", "stability.find_k1", None),
    (stability, "check_a2", "stability.check_a2", None),
    (stability, "dvdt_scan", "stability.dvdt_scan", _count_dvdt_grid),
    (cli, "integrate", _integrate_span, _count_steps),
    (simulate, "integrate", _integrate_span, _count_steps),
    (cli, "attractor", "simulate.attractor", None),
    (simulate, "attractor", "simulate.attractor", None),
    (cli, "sweep", "simulate.sweep", None),
    (simulate, "sweep", "simulate.sweep", None),
    (simulate.Trajectory, "to_csv", "simulate.to_csv", _count_csv),
    (jsonio, "dumps", "jsonio.dumps", _count_json_bytes),
)

# Modules whose ``make_builtin`` builds the incidence functions of an op.
_BUILDERS = (cli, config)

ROOT = "op"


class Tracer:
    """In-memory spans of one run, and the counters of its counting pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counts = defaultdict(int)
        self.counting = False
        self.op_id = None
        self._stack = []
        self._saved = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id):
        """The root span of one op."""
        self.op_id = op_id
        index = self._open(ROOT)
        try:
            yield
        finally:
            self._close(index)
            self.op_id = None

    def _wrap(self, fn, name, hook):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if tracer.counting and hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counted(self, fn, kind: str):
        tracer = self

        def counted(S, I):
            layer = tracer.spans[tracer._stack[-1]][0] if tracer._stack else ROOT
            tracer.counts[f"{layer}.{kind}.calls"] += 1
            tracer.counts[f"{layer}.{kind}.elements"] += max(np.size(S), np.size(I))
            return fn(S, I)

        return counted

    def _counting_builder(self, make_builtin):
        def build(family, coefficients):
            f = make_builtin(family, coefficients)
            return dataclasses.replace(f, eval_f=self._counted(f.eval_f, "eval_f"),
                                       eval_f1=self._counted(f.eval_f1, "eval_f1"))

        return build

    # -- installing the wrappers -----------------------------------------

    def install(self, counting: bool = False) -> None:
        """Replace the traced functions; with ``counting`` also count work."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self.counting = counting
        wrapped = {}
        for owner, attr, name, hook in _TARGETS:
            original = owner.__dict__[attr]
            if id(original) not in wrapped:
                wrapped[id(original)] = self._wrap(original, name, hook)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])
        if counting:
            for owner in _BUILDERS:
                self._saved.append((owner, "make_builtin", owner.make_builtin))
                owner.make_builtin = self._counting_builder(owner.make_builtin)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.counting = False

    @contextmanager
    def installed(self, counting: bool = False):
        self.install(counting)
        try:
            yield self
        finally:
            self.uninstall()

    # -- reading the spans -----------------------------------------------

    def self_times(self):
        """Self time in seconds of every closed span, by span index."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - child[n]
                for n, (_, start, end, _, _) in enumerate(self.spans)]

    def as_records(self):
        return [{"name": name, "start": start, "end": end, "parent": parent, "op": op_id}
                for name, start, end, parent, op_id in self.spans]
