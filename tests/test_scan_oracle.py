"""The certificate's scans against dense ones.

``dense_slope_range`` and ``dense_dvdt_samples`` are the scans as they
were written before the slope scan streamed and the dV/dt scan took two
levels a column: the slope range from one ``meshgrid`` and dV/dt from
the whole ``omega_grid`` lattice.  The slope range keeps two later
rules: it requires f1(S*, .) finite, and refuses one that varies,
before the grid; the dV/dt scan keeps one: a scan left with no point
raises DegenerateParameterError.  Patched into ``sirskit.stability``
they give the reference outcome of every public entry point, which the
scans must match bit for bit, errors included.

``column_dvdt_samples`` is the dV/dt scan as it was written when it first
took one (S, I) column at a time, with whole arrays over the columns.  It
is O(n^2), so it checks the scan at grids of about 1000, where the ball
around E1 spans several columns.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sirskit import (DegenerateParameterError, EvaluationError, ModelParams, SirsKitError,
                     State, certify, check_a2, dvdt_scan, find_endemic, find_k1,
                     from_callables, make_builtin, stability)
from sirskit.incidence import require_finite
from sirskit.model import make_rhs, omega_grid, omega_indices

from conftest import REF, forwarding


def dense_slope_range(f, eq, s0, grid_n):
    if grid_n < 2:
        raise ValueError(f"grid_n must be at least 2, got {grid_n}")
    axis = np.linspace(0.0, s0, grid_n)
    f1_star = float(f.eval_f1(eq.S, eq.I))
    # the documented early checks: f1(S*, .) must be finite, and one
    # that varies is refused before any slope is evaluated
    column = require_finite(f.eval_f1(eq.S, axis), "incidence factor", eq.S, axis)
    if np.any(np.abs(column - f1_star) > 1e-12 * abs(f1_star)):
        return stability._SlopeRange(math.nan, math.nan, (math.nan, math.nan),
                                     (math.nan, math.nan), True)
    uu, vv = np.meshgrid(axis[np.abs(axis - eq.S) >= stability._STRIP * s0], axis,
                         indexing="ij")
    g = require_finite(stability.secant_slope(f, eq, uu, vv), "secant slope", uu, vv).ravel()
    lo, hi = int(np.argmin(g)), int(np.argmax(g))
    return stability._SlopeRange(g_min=float(g[lo]), g_max=float(g[hi]),
                                 at_min=(float(uu.flat[lo]), float(vv.flat[lo])),
                                 at_max=(float(uu.flat[hi]), float(vv.flat[hi])),
                                 divergence_flag=False)


def dense_dvdt_samples(p, f, eq, k1, k2, grid_n):
    k2_value = stability.default_k2(p) if k2 is None else k2
    ss, ii, rr = omega_grid(p, grid_n)
    keep = (ii > 0) & (((ss - eq.S) ** 2 + (ii - eq.I) ** 2 + (rr - eq.R) ** 2)
                       > (1e-3 * p.s0) ** 2)
    ss, ii, rr = ss[keep], ii[keep], rr[keep]
    if not ss.size:
        raise _empty_scan(p)
    field = make_rhs(p, f)(ss, ii, rr)
    require_finite(field[1], "incidence", ss, ii)
    dvdt = stability._dvdt(eq, k1, k2_value, ss, ii, rr, field)
    return float(np.max(dvdt)), dvdt.size


def _empty_scan(p):
    return DegenerateParameterError(
        f"no lattice point of the dV/dt grid lies outside the ball of radius 1e-3*S0 "
        f"around E1 (S0 = {p.s0:g})")


def column_dvdt_samples(p, f, eq, k1, k2, grid_n):
    k2_value = stability.default_k2(p) if k2 is None else k2
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
    radius_sq = (1e-3 * p.s0) ** 2
    top = grid_n - 1 - a - b
    keep = (ii > 0) & ((near + r_sq[0] > radius_sq) | (near + r_sq[top] > radius_sq))
    ss, ii, near, top = ss[keep], ii[keep], near[keep], top[keep]
    ds, di, dr = make_rhs(p, f)(ss, ii, 0.0)
    require_finite(di, "incidence", ss, ii)
    shift = (ss - eq.S) + (ii - eq.I)
    k1_term = k1 * (1.0 - eq.I / ii) * di

    def sample(column, level):
        dr_c = dr[column] - (p.mu + p.delta) * axis[level]
        return ((shift[column] + r_off[level])
                * ((ds[column] + p.delta * axis[level]) + di[column] + dr_c)
                + k1_term[column] + k2_value * r_off[level] * dr_c)

    cut = np.flatnonzero(near <= radius_sq)
    rows, levels = np.nonzero((np.arange(grid_n) <= top[cut, None])
                              & (near[cut, None] + r_sq > radius_sq))
    dvdt = [sample(cut[rows], levels)]
    whole = np.flatnonzero(near > radius_sq)
    u, w = 1.0 / (1.0 + k2_value), k2_value / (1.0 + k2_value)
    vertex = ((u * ((ds + di + dr) - p.mu * (shift - eq.R)) + w * (dr + (p.mu + p.delta) * eq.R))
              / (2.0 * (u * p.mu + w * (p.mu + p.delta))))
    below = np.floor(vertex / (p.s0 / (grid_n - 1)))[whole]
    for step in (0.0, 1.0):
        dvdt.append(sample(whole, np.fmin(np.fmax(below + step, 0.0), top[whole]).astype(np.intp)))
    dvdt = np.concatenate(dvdt)
    if not dvdt.size:
        raise _empty_scan(p)
    return float(np.max(dvdt)), int(np.sum(top[whole] + 1)) + rows.size


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


def test_empty_scan_matches_dense_reference():
    # at S0 = 5e-169 the squared radius and every squared distance underflow
    # to 0, so no lattice point lies outside the ball: both scans name that
    s = 1e-170
    p = ModelParams(**{**REF, "Lambda": REF["Lambda"] * s})
    f = MODELS["bilinear"](s, 1.0)
    eq = find_endemic(p, f).endemic[0][0]
    outcome = _assert_matches_dense(p, f, eq, None, 41, 41)
    error = ("raises", DegenerateParameterError, str(_empty_scan(p)))
    assert outcome["certify"] == outcome["dvdt_scan"] == error


@given(dvdt_grid_n=st.integers(1001, 1201),
       where=st.sampled_from(["lattice", "corner", "E1", "face", "below_face", "E1_on_face"]),
       offset=st.floats(0.0, 1.0, exclude_max=True), log_k2=st.floats(-6.0, 4.0))
@example(1001, "lattice", 0.0, 0.0)
@example(1001, "corner", 0.0, -6.0)
@example(1101, "E1", 0.0, 4.0)
@example(1201, "face", 0.0, -2.0)
@example(1101, "below_face", 0.5, 2.0)
@example(1101, "E1_on_face", 0.0, 3.0)
@settings(max_examples=8, deadline=None)
def test_dvdt_scan_matches_column_scan_where_the_ball_spans_columns(dvdt_grid_n, where, offset,
                                                                    log_k2):
    # the radius 1e-3*S0 is 1.0-1.2 lattice spacings here, so the ball cuts
    # several (S, I) columns.  The state is E1 moved onto the lattice; the
    # lattice point (h, h, R) next to the column (0, h), which lies exactly
    # one radius away at grid 1001; E1 itself, between lattice points; a
    # point of the face S + I = S0 with R = 0, whose own column lies inside
    # the ball; or two spacings below that face with R in [0, 2h), whose
    # column may lie inside the ball while the next one is cut.  With
    # alpha = 0 and a small gamma2, E1 itself lies on the face
    # S + I + R = S0 with R* about one spacing; dV/dt peaks at the ball
    # there, so a cut column sampled at a level inside it moves the max
    p = ModelParams(**REF) if where != "E1_on_face" else ModelParams(
        **{**REF, "alpha": 0.0, "gamma2": 5e-4})
    f = MODELS["power"](1.0, 1.0)
    e1 = find_endemic(p, f).endemic[0][0]
    axis = np.linspace(0.0, p.s0, dvdt_grid_n)
    step, top = axis[1], dvdt_grid_n - 1
    i, j, k = (int(x / step) for x in (e1.S, e1.I, e1.R))
    eq = {"lattice": (axis[i], axis[j], axis[k]), "corner": (axis[1], axis[1], axis[k]),
          "E1": (e1.S, e1.I, e1.R), "E1_on_face": (e1.S, e1.I, e1.R),
          "face": (axis[i], axis[top - i], 0.0),
          "below_face": (axis[i], axis[top - 2 - i], 2.0 * offset * step)}[where]
    args = (p, f, State(*map(float, eq)), 7.0, 10.0 ** log_k2, dvdt_grid_n)
    outcome = _outcome(lambda: stability._dvdt_samples(*args))
    assert outcome[0] == "returns"
    assert outcome == _outcome(lambda: column_dvdt_samples(*args))


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


def test_non_finite_column_raises_before_any_slope():
    # f1 is NaN at S = S* for I > 25 and at (0, 25): the slope scan would
    # name (0, 25), but the column f1(S*, .) is checked first, on its own
    p = ModelParams(**REF)
    eq = find_endemic(p, make_builtin("power", {"k": 0.0008, "q": 2.0})).endemic[0][0]
    sizes = []

    def f1(S, I):
        S, I = np.broadcast_arrays(np.asarray(S, dtype=float), np.asarray(I, dtype=float))
        sizes.append(S.size)
        bad = ((S == eq.S) & (I > 25.0)) | ((S == 0.0) & (I == 25.0))
        return np.where(bad, np.nan, 0.0008 * S * S)

    f = from_callables(lambda S, I: I * f1(S, I), f1=f1, label="nan-column")
    outcome = _assert_matches_dense(p, f, eq, 7.0, 201, 5)
    for name in ("certify", "find_k1", "check_a2"):
        assert outcome[name] == ("raises", EvaluationError,
                                 "incidence factor is non-finite at (S, I) = (29.5804, 25.25)")
    sizes.clear()
    with pytest.raises(EvaluationError, match="incidence factor"):
        find_k1(p, f, eq, grid_n=201)
    assert sizes == [1, 201]  # f1(S*, I*), then the column: no slope


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


def test_dvdt_scan_working_set_per_column():
    # at most 14 float64 values per scanned (S, I) column: the scan holds a
    # few arrays over the columns, not one per intermediate (170 bytes a
    # column when every operation made a new array)
    p, n = ModelParams(**REF), 121
    f = make_builtin("power", {"k": 0.0008, "q": 2.0})
    eq = find_endemic(p, f).endemic[0][0]
    stability._dvdt_samples(p, f, eq, 7.0, None, n)
    tracemalloc.start()
    try:
        stability._dvdt_samples(p, f, eq, 7.0, None, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * 8 * (n * (n - 1) // 2)
