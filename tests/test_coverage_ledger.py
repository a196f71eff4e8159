"""The coverage ledger: which built-in models the certificate grants.

A fixed, seeded draw of built-in models that pass (H1)-(H3), over the
four families that do, their rates, q, the population scale and R0 in
(1.1, 16), is tabulated by family and verdict.  Each refusal gets one
cause, the first of: (a1) fails, G diverges near S* (an f1 that varies
with I there), or no k1 passes (a2).  Every grant must be sound, and the
grant count must not fall below ``GRANT_FLOOR``.  A change that moves
the count updates the floor and gives the table before and after;

    PYTHONPATH=src python tests/test_coverage_ledger.py

prints it.
"""

import collections

import numpy as np

from sirskit import (ModelParams, certify, check_hypotheses, find_endemic, make_builtin,
                     omega_lattice, sweep)

SEED = 11
MODELS = 400
GRANT_FLOOR = 178
SWEPT = 10
VERDICTS = ("granted", "(a1)", "divergence", "no k1")


def _draw(rng):
    """One model: (family, params, incidence)."""
    family = str(rng.choice(["bilinear", "power", "saturated_in_I", "psi_ratio"]))
    # rates log-uniform over [1e-3, 2], so that some fail (a1)
    mu, gamma1, gamma2, alpha, delta = (2.0 * 10.0 ** rng.uniform(-3.3, 0.0, size=5)).tolist()
    p = ModelParams(Lambda=rng.uniform(0.5, 50.0) * 10.0 ** rng.uniform(-4.0, 4.0),
                    mu=mu, gamma1=gamma1, gamma2=gamma2, alpha=alpha, delta=delta)
    r0_value = float(np.exp(rng.uniform(np.log(1.1), np.log(16.0))))
    q = rng.uniform(0.5, 4.0) if family == "power" else 1.0
    # f1(S0, 0) = R0 * outflow fixes the leading coefficient
    lead = r0_value * p.infected_outflow / p.s0 ** q
    if family == "power":
        coefficients = {"k": lead, "q": q}
    else:
        coefficients = {"beta": lead}
    # a per infective and b per infective squared, each zero a third of the time
    extra = {"saturated_in_I": ("a",), "psi_ratio": ("a", "b")}.get(family, ())
    for power, name in enumerate(extra, start=1):
        size = 10.0 ** rng.uniform(-3.0, 1.0) / p.s0 ** power
        coefficients[name] = size if rng.uniform() < 2.0 / 3.0 else 0.0
    return family, p, make_builtin(family, coefficients)


def _verdict(cert) -> str:
    if cert.granted:
        return "granted"
    if not cert.a1_pass:
        return "(a1)"
    return "divergence" if cert.divergence_flag else "no k1"


def ledger():
    """(table, grants): verdict counts per family, and the granted models
    as (params, incidence, certificate)."""
    rng = np.random.default_rng(SEED)
    table = collections.defaultdict(collections.Counter)
    grants = []
    for _ in range(MODELS):
        family, p, f = _draw(rng)
        assert check_hypotheses(f, p.s0).all_pass, f.label
        eq = find_endemic(p, f).endemic[0][0]
        cert = certify(p, f, eq)
        table[family][_verdict(cert)] += 1
        if cert.granted:
            grants.append((p, f, cert))
    return table, grants


def format_table(table) -> str:
    rows = [f"{'family':<16}" + "".join(f"{verdict:>12}" for verdict in VERDICTS)]
    total = collections.Counter()
    for family in sorted(table):
        total.update(table[family])
        rows.append(f"{family:<16}" + "".join(f"{table[family][c]:>12}" for c in VERDICTS))
    rows.append(f"{'all':<16}" + "".join(f"{total[c]:>12}" for c in VERDICTS))
    return "\n".join(rows)


def test_coverage_ledger():
    table, grants = ledger()
    assert sum(sum(row.values()) for row in table.values()) == MODELS
    assert len(grants) >= GRANT_FLOOR, format_table(table)
    for p, f, cert in grants:
        assert cert.dvdt_max < 0.0, f.label
    # a seeded few grants, swept from a lattice-3 start, end near E1
    rng = np.random.default_rng(SEED)
    for index in rng.choice(len(grants), size=min(SWEPT, len(grants)), replace=False):
        p, f, _ = grants[index]
        initials = omega_lattice(p, 3, include_i_zero=False)
        report = sweep(p, f, initials, 40.0 / p.mu, 2e-4 * p.s0)
        assert report.converged_fraction == 1.0, f.label


if __name__ == "__main__":
    print(format_table(ledger()[0]))
