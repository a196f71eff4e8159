"""The certificate's scans against dense ones.

``dense_slope_range`` and ``dense_dvdt_samples`` are the scans as they
were written before the slope scan streamed and the dV/dt scan took two
levels a column: the slope range from one ``meshgrid`` and dV/dt from
the whole ``omega_grid`` lattice.  Patched into ``sirskit.stability``
they give the reference outcome of every public entry point, which the
scans must match bit for bit, errors included.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirskit import (EvaluationError, ModelParams, SirsKitError, State, certify, check_a2,
                     dvdt_scan, find_endemic, find_k1, from_callables, make_builtin, stability)
from sirskit.incidence import require_finite
from sirskit.model import make_rhs, omega_grid

from conftest import REF, forwarding


def dense_slope_range(f, eq, s0, grid_n):
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    axis = np.linspace(0.0, s0, grid_n)
    uu, vv = np.meshgrid(axis[np.abs(axis - eq.S) >= stability._STRIP * s0], axis,
                         indexing="ij")
    g = require_finite(stability.secant_slope(f, eq, uu, vv), "secant slope", uu, vv).ravel()
    f1_star = float(f.eval_f1(eq.S, eq.I))
    f1_column = require_finite(f.eval_f1(eq.S, axis), "incidence factor", eq.S, axis)
    divergence = bool(np.any(np.abs(f1_column - f1_star) > 1e-12 * abs(f1_star)))
    lo, hi = int(np.argmin(g)), int(np.argmax(g))
    return stability._SlopeRange(g_min=float(g[lo]), g_max=float(g[hi]),
                                 at_min=(float(uu.flat[lo]), float(vv.flat[lo])),
                                 at_max=(float(uu.flat[hi]), float(vv.flat[hi])),
                                 divergence_flag=divergence)


def dense_dvdt_samples(p, f, eq, k1, k2, grid_n):
    k2_value = stability.default_k2(p) if k2 is None else k2
    ss, ii, rr = omega_grid(p, grid_n)
    keep = (ii > 0) & (((ss - eq.S) ** 2 + (ii - eq.I) ** 2 + (rr - eq.R) ** 2)
                       > (1e-3 * p.s0) ** 2)
    ss, ii, rr = ss[keep], ii[keep], rr[keep]
    field = make_rhs(p, f)(ss, ii, rr)
    require_finite(field[1], "incidence", ss, ii)
    dvdt = stability._dvdt(eq, k1, k2_value, ss, ii, rr, field)
    return float(np.max(dvdt)), dvdt.size


def _bits(value):
    """``value`` with every float as its hex string, so -0.0 != 0.0."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(_bits(v) for v in value)
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return _bits(dataclasses.astuple(value))
    return value


def _outcome(call):
    try:
        return "returns", _bits(call())
    except Exception as exc:  # the reference's error is part of the outcome
        return "raises", type(exc), str(exc)


def _entry_points(p, f, eq, k1, grid_n, dvdt_grid_n, k2):
    # certify takes the closed-form k1 and default_k2; a given k1 reaches
    # the scans through check_a2 and dvdt_scan, and a given k2 through
    # dvdt_scan
    k1_scan = p.s0 if k1 is None else k1
    return {
        "certify": lambda: certify(p, f, eq, grid_n=grid_n,
                                   dvdt_grid_n=dvdt_grid_n).as_dict(),
        "find_k1": lambda: find_k1(p, f, eq, grid_n=grid_n),
        "check_a2": lambda: check_a2(p, f, eq, k1_scan, grid_n=grid_n),
        "dvdt_scan": lambda: dvdt_scan(p, f, eq, k1_scan, k2, grid_n=dvdt_grid_n),
    }


def _assert_matches_dense(p, f, eq, k1, grid_n, dvdt_grid_n, block=stability._BLOCK, k2=None):
    calls = _entry_points(p, f, eq, k1, grid_n, dvdt_grid_n, k2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "_BLOCK", block)
        streamed = {name: _outcome(call) for name, call in calls.items()}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(stability, "_slope_range", dense_slope_range)
        patch.setattr(stability, "_dvdt_samples", dense_dvdt_samples)
        dense = {name: _outcome(call) for name, call in calls.items()}
    assert streamed == dense
    return streamed


# label -> incidence at population scale s, with f1(s*S, s*I) the same at
# every s; the I-dependent ones are refused with divergence_flag
MODELS = {
    "bilinear": lambda s, x: make_builtin("bilinear", {"beta": 0.04 * x / s}),
    "power": lambda s, x: make_builtin("power", {"k": 0.0008 * x / s ** 2, "q": 2.0}),
    "power_q2.5": lambda s, x: make_builtin("power", {"k": 1.6e-4 * x / s ** 2.5, "q": 2.5}),
    "forwarded_power_q2.5": lambda s, x: forwarding(MODELS["power_q2.5"](s, x)),
    "saturated_in_I": lambda s, x: make_builtin("saturated_in_I",
                                                {"beta": 0.04 * x / s, "a": 0.1 * x / s}),
    "psi_ratio": lambda s, x: make_builtin("psi_ratio", {"beta": 0.04 * x / s, "a": 0.1 / s,
                                                         "b": 0.01 * x / s ** 2}),
    "ruan": lambda s, x: make_builtin("ruan", {"beta": 0.04 * x / s ** 2, "rho": 0.1 / s ** 2}),
    "derived_f1": lambda s, x: from_callables(
        lambda S, I: 1.6e-4 * x * I * (S / s) ** 2.5, label="derived"),
}


@given(label=st.sampled_from(sorted(MODELS)), log_s=st.floats(-6.0, 6.0),
       strength=st.floats(0.5, 3.0), mu=st.floats(0.05, 1.0), delta=st.floats(0.0, 1.0),
       where=st.sampled_from(["E1", "inside", "lattice"]),
       fractions=st.tuples(*[st.floats(0.0, 1.0)] * 3),
       k1=st.one_of(st.none(), st.floats(0.1, 100.0)),
       log_k2=st.one_of(st.none(), st.floats(-6.0, 4.0)),
       grid_n=st.integers(2, 120), dvdt_grid_n=st.integers(2, 125),
       block=st.one_of(st.just(stability._BLOCK), st.integers(1, 2000)))
@settings(max_examples=150, deadline=None)
def test_scans_match_dense_reference(label, log_s, strength, mu, delta, where, fractions,
                                     k1, log_k2, grid_n, dvdt_grid_n, block):
    # certify, find_k1, check_a2 and dvdt_scan give the dense scans' bits,
    # or raise what they raise, whatever the slope block size and k2: at
    # E1, at any state of Omega with I > 0, or at a dV/dt lattice point,
    # whose (S, I) column then lies partly in the ball
    s = 10.0 ** log_s
    p = ModelParams(**{**REF, "Lambda": REF["Lambda"] * s, "mu": mu, "delta": delta})
    f = MODELS[label](s, strength)
    fs, fi, fr = fractions
    eq = State(fs * p.s0 / 3.0, (0.01 + fi) * p.s0 / 3.03, fr * p.s0 / 3.0)
    if where == "E1":
        try:  # ruan has R0 = 0 and fails (H3)
            eq = find_endemic(p, f).endemic[0][0]
        except (SirsKitError, IndexError):
            pass
    elif where == "lattice":
        axis, top = np.linspace(0.0, p.s0, dvdt_grid_n), dvdt_grid_n - 1
        eq = State(float(axis[int(fs * top / 3)]), float(axis[1 + int(fi * (top - 1) / 3)]),
                   float(axis[int(fr * top / 3)]))
    _assert_matches_dense(p, f, eq, None if k1 is None else k1 * s,
                          grid_n, dvdt_grid_n, block, None if log_k2 is None else 10.0 ** log_k2)


@pytest.mark.parametrize("grid_n, dvdt_grid_n", [(201, 41), (801, 121)])
def test_reference_certificate_matches_dense_reference(grid_n, dvdt_grid_n):
    # several slope blocks, and the benchmark's certify_fine resolution
    p = ModelParams(**REF)
    f = make_builtin("power", {"k": 0.0008, "q": 2.0})
    eq = find_endemic(p, f).endemic[0][0]
    outcome = _assert_matches_dense(p, f, eq, None, grid_n, dvdt_grid_n)
    assert outcome["certify"][1]["granted"]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("k2", [5e307, 1e308])
def test_dvdt_scan_matches_dense_where_k2_overflows(k2):
    # 2*(mu + k2*(mu + delta)) and the samples far from each column's
    # vertex overflow, but the vertex does not, so dvdt_scan keeps the
    # dense maximum's bits (a finite one at 5e307, +inf at 1e308)
    p = ModelParams(**{**REF, "Lambda": 50.0, "mu": 1.0, "delta": 1.0})
    f = make_builtin("power", {"k": 0.004, "q": 2.0})
    eq = find_endemic(p, f).endemic[0][0]
    _assert_matches_dense(p, f, eq, 7.0, 5, 41, k2=k2)


def test_non_finite_only_inside_ball_is_not_evaluated():
    # E1 on the lattice face S + I = S0 with R* = 0: its (S, I) column has
    # the one point (S*, I*, 0), which lies in the ball, so f must never be
    # evaluated there
    p, n = ModelParams(**REF), 11
    eq = State(30.0, 20.0, 0.0)
    seen = []

    def f(S, I):
        seen.append(np.broadcast_arrays(S, I))
        return np.where((S == eq.S) & (I == eq.I), np.nan, 0.0008 * I * S * S)

    incidence = from_callables(f, f1=lambda S, I: 0.0008 * S * S + 0.0 * I, label="nan-at-E1")
    outcome = _assert_matches_dense(p, incidence, eq, 7.0, 201, n)
    assert outcome["dvdt_scan"][0] == "returns"
    assert outcome["certify"][1]["dvdt_points"] > 0
    assert not any(np.any((S == eq.S) & (I == eq.I)) for S, I in seen)


def test_non_finite_scan_names_the_dense_sample():
    # NaN on S < 10, I > 5: every scan names the sample a dense scan names
    p = ModelParams(**REF)
    eq = find_endemic(p, make_builtin("power", {"k": 0.0008, "q": 2.0})).endemic[0][0]
    f = from_callables(lambda S, I: np.where((S < 10.0) & (I > 5.0), np.nan,
                                             0.0008 * I * S * S))
    outcome = _assert_matches_dense(p, f, eq, 7.0, 201, 41)
    for name in ("certify", "find_k1", "check_a2", "dvdt_scan"):
        assert outcome[name][:2] == ("raises", EvaluationError)


@pytest.mark.parametrize("grid_n", [2, 3, 201])
def test_every_u_in_strip_raises_as_dense(monkeypatch, grid_n):
    # a strip wider than [0, S0] leaves no u to scan
    p = ModelParams(**REF)
    f = make_builtin("power", {"k": 0.0008, "q": 2.0})
    eq = find_endemic(p, f).endemic[0][0]
    monkeypatch.setattr(stability, "_STRIP", 2.0)
    outcome = _assert_matches_dense(p, f, eq, None, grid_n, 5)
    for name in ("certify", "find_k1", "check_a2"):
        assert outcome[name][:2] == ("raises", ValueError)


def test_certify_fine_memory_stays_small():
    # the dense scans peaked at 24.5 MB here; the slope scan holds one
    # block, and the dV/dt scan one (S, I) triangle and two levels a column
    p = ModelParams(**REF)
    f = make_builtin("power", {"k": 0.0008, "q": 2.0})
    eq = find_endemic(p, f).endemic[0][0]
    certify(p, f, eq, grid_n=5, dvdt_grid_n=5)
    tracemalloc.start()
    try:
        report = certify(p, f, eq, grid_n=801, dvdt_grid_n=121)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.granted and math.isfinite(report.dvdt_max)
    assert peak < 4_000_000
