"""Results are covariant when the population is rescaled.

Scaling Lambda by s and each incidence coefficient so that f1(s*S, s*I)
stays the same function scales every population by s and leaves every
per-capita rate alone: R0, S*/S0, I*/S0, k1/s, the hypothesis flags and
the certificate's verdict must not depend on s.
"""

import math
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from sirskit import ModelParams, certify, check_hypotheses, find_endemic, make_builtin

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


def analysis(label: str, s: float):
    """(exact, scaled, seconds): the scale-free verdicts, the ratios that
    must agree to rounding, and the time the pipeline took."""
    family, coefficients = SCALED[label]
    p = ModelParams(**{**REF, "Lambda": REF["Lambda"] * s})
    f = make_builtin(family, coefficients(s))
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
