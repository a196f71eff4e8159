"""Per-layer metrics of the traced run.

The layers are the ``sirskit`` modules.  ``model`` and ``errors`` run only
inside other layers' spans and get no metrics of their own.  Times are self
times per op in ms; counts are per op and come from the counting pass.  A
layer idle in a workload reads 0.  Scaling rows and the large-population
probe are timed on the reference model, outside any op.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

from sirskit import SirsKitError, equilibria, simulate, stability
from workloads import CheckFailed, DeadlineExceeded, certify_op, check_certificate
from workloads import deadline, scaled_power_doc
from tracing import ROOT

# Span name -> metric; the metric is the span's self time per op.
TIMED = (
    "stability.find_k1", "stability.check_a2", "stability.dvdt_scan",
    "stability.certify", "simulate.integrate_rk45", "simulate.integrate_rk4",
    "simulate.sweep", "simulate.attractor", "simulate.to_csv",
    "equilibria.find_endemic", "incidence.check_hypotheses", "jsonio.dumps",
)
FIND_K1_GRIDS = (201, 401, 801)
DVDT_GRIDS = (41, 81, 121, 161)
SWEEP_LATTICES = (8, 16)
SCALING_REPEATS = 3
PROBE_SCALE = 1e6
PROBE_DEADLINE_S = 1.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_op(tracer, counts, traced_ops: int, counted_ops: int, via_cli: bool) -> dict:
    """Layer metrics as {name: (value, unit)} from the spans and counters."""
    self_ms = defaultdict(float)
    calls = defaultdict(int)
    load_config_ms = []
    for (name, _, _, _, op_id), own in zip(tracer.spans, tracer.self_times()):
        if name == "config.load_config":
            load_config_ms.append(1000.0 * own)
        if op_id is not None:
            self_ms[name] += 1000.0 * own
            calls[name] += 1

    metrics = {f"{name}_ms": (self_ms[name] / traced_ops, "ms") for name in TIMED}
    metrics["cli.self_ms"] = (self_ms[ROOT] / traced_ops if via_cli else 0.0, "ms")
    metrics["config.load_config_ms"] = (statistics.median(load_config_ms), "ms")
    metrics["equilibria.find_endemic_calls"] = (
        calls["equilibria.find_endemic"] / traced_ops, "count")

    def count(key: str) -> float:
        return counts[key] / counted_ops

    slope_points = sum(count(f"stability.{fn}.eval_f1.elements")
                       for fn in ("find_k1", "check_a2"))
    rhs_evals = sum(count(f"simulate.{fn}.eval_f.calls")
                    for fn in ("integrate_rk45", "integrate_rk4"))
    steps, rejected = count("simulate.steps"), count("simulate.rejected")
    grid, kept = count("stability.dvdt_grid_points"), count("stability.dvdt_scan.eval_f.elements")
    metrics.update({
        "stability.slope_points": (slope_points, "count"),
        "stability.dvdt_grid_points": (grid, "count"),
        "stability.dvdt_points": (kept, "count"),
        "stability.dvdt_keep_ratio": (_ratio(kept, grid), "ratio"),
        "stability.granted": (count("stability.granted"), "count"),
        "simulate.steps": (steps, "count"),
        "simulate.rejected": (rejected, "count"),
        "simulate.accept_ratio": (_ratio(steps, steps + rejected), "ratio"),
        "simulate.rhs_evals": (rhs_evals, "count"),
        "simulate.csv_rows": (count("simulate.csv_rows"), "count"),
        "simulate.csv_bytes": (count("simulate.csv_bytes"), "bytes"),
        "equilibria.g_evals": (count("equilibria.find_endemic.eval_f1.elements"), "count"),
        "equilibria.brackets": (count("equilibria.brackets"), "count"),
        "jsonio.bytes": (count("jsonio.bytes"), "bytes"),
    })
    return metrics


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(1000.0 * (time.perf_counter() - start))
    return statistics.median(times)


def scaling_rows(reference) -> dict:
    """find_k1, dvdt_scan and sweep times against their resolution, in ms."""
    params, f = reference.params, reference.incidence()
    eq = equilibria.find_endemic(params, f).endemic[0][0]
    k1 = stability.find_k1(params, f, eq)
    rows = {}
    for n in FIND_K1_GRIDS:
        rows[f"stability.find_k1_ms.n{n}"] = _median_ms(
            lambda: stability.find_k1(params, f, eq, grid_n=n), SCALING_REPEATS)
    for n in DVDT_GRIDS:
        rows[f"stability.dvdt_scan_ms.n{n}"] = _median_ms(
            lambda: stability.dvdt_scan(params, f, eq, k1, grid_n=n), SCALING_REPEATS)
    for n in SWEEP_LATTICES:
        initials = simulate.omega_lattice(params, n, include_i_zero=False)
        rows[f"simulate.sweep_ms.l{n}"] = _median_ms(
            lambda: simulate.sweep(params, f, initials, 500.0, 1e-2), 1)
    return {name: (value, "ms") for name, value in rows.items()}


def large_population_probe() -> dict:
    """The certify_fine op at population scale 1e6 (Lambda = 1e7).

    It is kept out of the timed loops, where every op must succeed: at
    this scale ``equilibria._bisect`` does not terminate.  The probe runs
    under its own deadline; ``_ok`` is 1 once it returns a correct result.
    """
    from sirskit.config import parse_config

    cfg = parse_config(scaled_power_doc(PROBE_SCALE))
    start = time.perf_counter()
    ok = 0
    try:
        with deadline(PROBE_DEADLINE_S):
            hyp, eq, cert = certify_op(cfg, 801, 121)
        check_certificate("power", PROBE_SCALE, cfg.params, hyp, eq, cert)
        ok = 1
    except (DeadlineExceeded, CheckFailed, SirsKitError):
        pass
    return {"equilibria.probe_s1e6_ms": (1000.0 * (time.perf_counter() - start), "ms"),
            "equilibria.probe_s1e6_ok": (ok, "count")}
