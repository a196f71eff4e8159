"""Results are covariant when the population is rescaled.

Scaling Lambda by s and each incidence coefficient so that f1(s*S, s*I)
stays the same function scales every population by s and leaves every
per-capita rate alone: R0, S*/S0, I*/S0, k1/s, the hypothesis flags and
the certificate's verdict must not depend on s.
"""

import functools
import io
import json
import math
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sirskit import (ModelParams, certify, check_hypotheses, find_endemic, from_callables,
                     make_builtin, omega_lattice, sweep)
from sirskit.cli import main

from conftest import REF

# family, and its coefficients at population scale s; f1 is the same at every s
SCALED = {
    "power": ("power", lambda s: {"k": 0.0008 / s ** 2, "q": 2.0}),
    "power_q3.3": ("power", lambda s: {"k": 2.0 / (50.0 * s) ** 3.3, "q": 3.3}),
    "bilinear": ("bilinear", lambda s: {"beta": 0.04 / s}),
    "saturated_in_I": ("saturated_in_I", lambda s: {"beta": 0.04 / s, "a": 0.1 / s}),
    "psi_ratio": ("psi_ratio", lambda s: {"beta": 0.04 / s, "a": 0.1 / s,
                                          "b": 0.01 / s ** 2}),
    "ruan": ("ruan", lambda s: {"beta": 0.04 / s ** 2, "rho": 0.1 / s ** 2}),
}


def scaled_model(label: str, s: float):
    family, coefficients = SCALED[label]
    p = ModelParams(**{**REF, "Lambda": REF["Lambda"] * s})
    return p, make_builtin(family, coefficients(s))


def analysis(label: str, s: float):
    """(exact, scaled, seconds): the scale-free verdicts, the ratios that
    must agree to rounding, and the time the pipeline took."""
    p, f = scaled_model(label, s)
    start = time.perf_counter()
    hyp = check_hypotheses(f, p.s0)
    exact, scaled = [hyp.h1_pass, hyp.h2_pass, hyp.h3_pass], []
    if hyp.all_pass:
        report = find_endemic(p, f)
        star = report.endemic[0][0]
        cert = certify(p, f, star)
        exact += [cert.granted, cert.divergence_flag, cert.k1 is None]
        scaled += [report.r0, star.S / p.s0, star.I / p.s0]
        if cert.k1 is not None:
            scaled.append(cert.k1 / s)
    return exact, scaled, time.perf_counter() - start


@given(label=st.sampled_from(sorted(SCALED)), log_s=st.floats(-8.0, 9.0))
@settings(max_examples=60, deadline=None)
def test_results_covariant_under_rescaling(label, log_s):
    exact, scaled, seconds = analysis(label, 10.0 ** log_s)
    exact_1, scaled_1, _ = analysis(label, 1.0)
    assert exact == exact_1
    assert len(scaled) == len(scaled_1)
    for value, reference in zip(scaled, scaled_1):
        assert math.isclose(value, reference, rel_tol=1e-9)
    assert seconds < 1.0


# 0, or a value in [1e-9, 1] in the units of the population at s = 1
_COEFFICIENT = st.one_of(st.just(0.0), st.floats(-9.0, 0.0).map(lambda e: 10.0 ** e))


@given(label=st.sampled_from(sorted(set(SCALED) - {"ruan"})), log_s=st.floats(-8.0, 9.0),
       a=_COEFFICIENT, b=_COEFFICIENT)
@settings(max_examples=60, deadline=None)
def test_divergence_flag_iff_f1_depends_on_i(label, log_s, a, b):
    # G is unbounded near S* exactly when f1(S*, .) varies, that is when
    # the built-in has a > 0 or b > 0 (ruan has no endemic equilibrium)
    s = 10.0 ** log_s
    family, coefficients = SCALED[label]
    c = coefficients(s)
    if "a" in c:
        c["a"] = a / s
    if "b" in c:
        c["b"] = b / s ** 2
    p = ModelParams(**{**REF, "Lambda": REF["Lambda"] * s})
    f = make_builtin(family, c)
    report = find_endemic(p, f)
    star = report.endemic[0][0]
    cert = certify(p, f, star)
    assert cert.divergence_flag == (c.get("a", 0.0) > 0 or c.get("b", 0.0) > 0)
    if cert.divergence_flag:
        assert cert.k1 is None and not cert.granted
    # the slope grid size changes only round-off: when f1 does not depend
    # on I the slope range is reached at u = 0 and u = S0, which every
    # grid contains (otherwise the certificate is refused at any size)
    cert_2 = certify(p, f, star, grid_n=2)
    assert (cert_2.granted, cert_2.divergence_flag) == (cert.granted, cert.divergence_flag)
    assert (cert_2.k1 is None) == (cert.k1 is None)
    if cert.k1 is not None:
        assert math.isclose(cert_2.k1, cert.k1, rel_tol=1e-11)


@given(label=st.sampled_from(["power", "saturated_in_I"]), log_s=st.floats(-8.0, 9.0))
@example(label="power", log_s=0.0)
@example(label="saturated_in_I", log_s=0.0)
@settings(max_examples=12, deadline=None)
def test_derived_f1_matches_builtin_at_every_scale(label, log_s):
    # f1 derived as f/I, with its I = 0 row extrapolated, passes the
    # hypotheses and gives the built-in's results at every scale
    p, builtin = scaled_model(label, 10.0 ** log_s)
    derived = from_callables(builtin.eval_f)
    hyp = check_hypotheses(derived, p.s0)
    assert (hyp.h1_pass, hyp.h2_pass, hyp.h3_pass) == (True, True, True)
    results = []
    for f in (builtin, derived):
        report = find_endemic(p, f)
        star = report.endemic[0][0]
        cert = certify(p, f, star)
        results.append(([report.r0, star.S / p.s0, star.I / p.s0],
                        (cert.granted, cert.divergence_flag)))
    (scaled_b, exact_b), (scaled_d, exact_d) = results
    assert exact_d == exact_b
    for value, reference in zip(scaled_d, scaled_b):
        assert math.isclose(value, reference, rel_tol=1e-10)


@pytest.mark.parametrize("s", [1e-8, 1e-7, 1e-6])
def test_sweep_covariant_at_small_populations(s):
    # the Dormand-Prince error floor scales with S0, so every run reaches
    # E1 as closely, relative to s, as at s = 1
    distances = []
    for scale in (1.0, s):
        p, f = scaled_model("power", scale)
        report = sweep(p, f, omega_lattice(p, 4, include_i_zero=False), 500.0, 1e-2 * scale)
        assert report.converged_fraction == 1.0
        distances.append(max(run.distance for run in report.runs) / scale)
    assert math.isclose(distances[1], distances[0], rel_tol=1e-4)


# JSON fields that hold a population, or lists of them; each divided by s
# must not depend on s
POPULATION_KEYS = {"S", "I", "R", "distance", "conv_tol", "i0", "exclusion", "s_max",
                   "bracket_log"}
FLAG_KEYS = {"granted", "converged", "h1_pass", "h2_pass", "h3_pass"}
S0_AT_1 = REF["Lambda"] / REF["mu"]


def json_leaves(doc, path=()):
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from json_leaves(value, path + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from json_leaves(value, path + (index,))
    else:
        yield path, doc


@functools.lru_cache(maxsize=None)
def cli_results(k: float, s: float):
    """(exit code, {path: leaf} of the stdout JSON) of each command on
    the reference model with power-law coefficient k, rescaled by s."""
    doc = {"params": {**REF, "Lambda": REF["Lambda"] * s},
           "incidence": {"family": "power", "coefficients": {"k": k / s ** 2, "q": 2}}}
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "model.json"
        config.write_text(json.dumps(doc))
        for argv in (["check", config], ["analyze", config],
                     ["simulate", config, "--initial", f"{30 * s},{10 * s},{5 * s}",
                      "--out", Path(tmp) / "traj.csv"],
                     ["sweep", config, "--lattice", 3, "--out", Path(tmp) / "sweep"]):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = main([str(arg) for arg in argv])
            results.append((code, dict(json_leaves(json.loads(out.getvalue())))))
    return results


@given(k=st.sampled_from([0.0002, 0.0008]), log_s=st.floats(-8.0, 9.0))
@example(k=0.0008, log_s=6.0)
@settings(max_examples=8, deadline=None)
def test_cli_covariant_under_rescaling(k, log_s):
    s = 10.0 ** log_s
    for (code, leaves), (code_1, leaves_1) in zip(cli_results(k, s), cli_results(k, 1.0)):
        assert code == code_1
        assert leaves.keys() == leaves_1.keys()
        for path, value in leaves.items():
            key = next(part for part in reversed(path) if isinstance(part, str))
            if key in POPULATION_KEYS:
                # Near the DFE I/s is round-off, about 6e-33.  A distance is a
                # difference that Dormand-Prince controls only to its relative
                # tolerance 1e-8: started at the DFE, where Lambda - mu*S0 is
                # 0 at s = 1 but one ulp off at most s, the steps grow until
                # that ulp has grown to about 1.5e-9*S0.
                abs_tol = 1e-8 * S0_AT_1 if key == "distance" else 1e-9
                assert math.isclose(value / s, leaves_1[path], rel_tol=1e-6,
                                    abs_tol=abs_tol), path
            elif key in FLAG_KEYS:
                assert value == leaves_1[path], path
