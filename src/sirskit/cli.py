"""Command-line front end.

Subcommands: ``check`` (incidence hypotheses), ``analyze`` (R0,
equilibria, stability certificates), ``simulate`` (one trajectory to
CSV), ``sweep`` (lattice of initial conditions) and ``reproduce`` (run
the bundled reference scenario and verify its expected outputs).

Reports are deterministic JSON on standard output; ``--out`` redirects
to files.  ``analyze`` and ``reproduce`` run ``find_endemic`` and
``certify`` at their library defaults; the certificate always takes the
closed-form k1, which no other k1 improves on.  Exit codes: 0 success,
1 input error (a bad config, command line or flag value, or an
unwritable output path), 2 analysis-level failure (a failed hypothesis,
a sweep run that does not converge or a failed ``reproduce`` check), 3
internal solver error.  A refused certificate is a result, not a
failure: ``analyze`` reports it with ``"granted": false`` and exits 0.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import jsonio
from .config import load_config
from .equilibria import find_endemic
from .errors import ConfigError, SirsKitError
from .incidence import check_hypotheses, compute_beta, make_builtin
from .model import ModelParams, State, dfe
from .simulate import (attractor, integrate, omega_lattice, sweep, write_csv,
                       write_trajectories)
from .stability import certify, secant_slope

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_ANALYSIS = 2
EXIT_SOLVER = 3

# Bundled reference scenario: one parameter set with a power-law contact
# incidence, run at two transmission strengths (below and above the
# epidemic threshold), with known analysis targets.
_REFERENCE_PARAMS = {"Lambda": 10.0, "mu": 0.2, "gamma1": 0.2, "gamma2": 0.2,
                     "alpha": 0.1, "delta": 0.1}
_REFERENCE_CASES = {"subcritical": 0.0002, "supercritical": 0.0008}
_REFERENCE_TARGETS = {
    "r0": {"subcritical": 0.7143, "supercritical": 2.8571},
    "r0_tol": 1e-4,
    "endemic": (29.5804, 9.4244, 6.2830),
    "endemic_tol": 1e-3,
    "h_k1": 7.0,
    "h_bound": 0.12,
}


def _write_output(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _run_analysis(params: ModelParams, f):
    """Shared pipeline behind ``analyze`` and ``reproduce``.

    Returns (document, hypotheses_ok, equilibrium_report); the document's
    ``errors`` lists the stages that raised.
    """
    doc = {
        "params": params.as_dict(),
        "incidence": f.label,
        "hypotheses": None,
        "beta": None,
        "r0": None,
        "dfe": dfe(params).as_dict(),
        "equilibria": None,
        "certificate": None,
        "errors": [],
    }
    hyp = check_hypotheses(f, s_max=params.s0)
    doc["hypotheses"] = hyp.as_dict()
    if not hyp.all_pass:
        return doc, False, None

    errors = doc["errors"]
    eq_report = None
    try:
        doc["beta"] = compute_beta(f, params.Lambda, params.mu)
        eq_report = find_endemic(params, f)
        doc["r0"] = eq_report.r0
        doc["equilibria"] = eq_report.as_dict()
    except SirsKitError as exc:
        errors.append({"stage": "equilibria", "type": type(exc).__name__,
                       "message": str(exc)})
    if eq_report is not None and eq_report.r0 > 1 and eq_report.endemic:
        try:
            cert = certify(params, f, eq_report.endemic[0][0])
            doc["certificate"] = cert.as_dict()
        except SirsKitError as exc:
            errors.append({"stage": "certificate", "type": type(exc).__name__,
                           "message": str(exc)})
    return doc, True, eq_report


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    report = check_hypotheses(cfg.incidence(), s_max=cfg.params.s0)
    _write_output(jsonio.dumps(report.as_dict()), args.out)
    return EXIT_OK if report.all_pass else EXIT_ANALYSIS


def cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    doc, hyp_ok, _ = _run_analysis(cfg.params, cfg.incidence())
    _write_output(jsonio.dumps(doc), args.out)
    if not hyp_ok:
        return EXIT_ANALYSIS
    return EXIT_SOLVER if doc["errors"] else EXIT_OK


def _parse_initial(text: str) -> State:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"--initial expects 'S,I,R', got {text!r}")
    return State(*(float(part) for part in parts))


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    params, f = cfg.params, cfg.incidence()
    initial = _parse_initial(args.initial)
    t_end = args.t_end if args.t_end is not None else cfg.solver.t_end
    traj = integrate(params, f, initial, t_end,
                     cfg.solver.method, cfg.solver.step_or_tol)
    target = attractor(params, f)
    traj.to_csv(args.out)
    distance = float(np.max(np.abs(traj.states[-1] - target.as_array())))
    summary = {
        "final": traj.final_state.as_dict(),
        "target": target.as_dict(),
        "distance": distance,
        "steps": traj.step_stats.steps,
        "rejected": traj.step_stats.rejected,
        "max_error_estimate": traj.step_stats.max_error,
        "csv": str(args.out),
    }
    sys.stdout.write(jsonio.dumps(summary))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    params, f = cfg.params, cfg.incidence()
    target = attractor(params, f)
    initials = omega_lattice(params, args.lattice,
                             include_i_zero=(target.I == 0.0))
    t_end = args.t_end if args.t_end is not None else cfg.solver.t_end
    report = sweep(params, f, initials, t_end, 2e-4 * params.s0)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = report.as_dict()
    jobs = []
    for index, run in enumerate(report.runs):
        name = f"run_{index:03d}.csv"
        if run.trajectory is not None:
            jobs.append((out_dir / name, run.trajectory))
            doc["runs"][index]["csv"] = name
        else:
            doc["runs"][index]["csv"] = None
    write_trajectories(jobs)
    text = jsonio.dumps(doc)
    (out_dir / "report.json").write_text(text)
    sys.stdout.write(text)
    return EXIT_OK if report.converged_fraction == 1.0 else EXIT_ANALYSIS


def cmd_reproduce(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    params = ModelParams(**_REFERENCE_PARAMS)
    targets = _REFERENCE_TARGETS

    checks = []
    for name, k in _REFERENCE_CASES.items():
        f = make_builtin("power", {"k": k, "q": 2.0})
        doc, hyp_ok, eq_report = _run_analysis(params, f)
        (out_dir / f"analysis_{name}.json").write_text(jsonio.dumps(doc))
        if not hyp_ok or doc["errors"] or eq_report is None:
            print(f"error: reference analysis '{name}' failed", file=sys.stderr)
            return EXIT_SOLVER
        if name == "supercritical":
            sup_report, f_sup = eq_report, f
        traj = integrate(params, f, State(30.0, 10.0, 5.0), 500.0,
                         "rk45_adaptive", 1e-8)
        traj.to_csv(out_dir / f"trajectory_{name}.csv")
        expected_r0 = targets["r0"][name]
        checks.append({
            "quantity": f"r0_{name}",
            "expected": expected_r0,
            "observed": eq_report.r0,
            "tolerance": targets["r0_tol"],
            "pass": abs(eq_report.r0 - expected_r0) <= targets["r0_tol"],
        })

    eq = sup_report.endemic[0][0]
    expected_eq = targets["endemic"]
    eq_distance = max(abs(eq.S - expected_eq[0]), abs(eq.I - expected_eq[1]),
                      abs(eq.R - expected_eq[2]))
    checks.append({
        "quantity": "endemic_equilibrium_max_norm",
        "expected": list(expected_eq),
        "observed": [eq.S, eq.I, eq.R],
        "tolerance": targets["endemic_tol"],
        "pass": eq_distance <= targets["endemic_tol"],
    })

    # h(u) curve for the supercritical case at the fixed k1 above.
    u = np.linspace(0.0, params.s0, 501)
    slope = secant_slope(f_sup, eq, u, eq.I + 0.0 * u)
    h = (2.0 * params.mu + params.alpha - targets["h_k1"] * slope) ** 2
    write_csv(out_dir / "h_of_u.csv", "u,h", u, h)
    h_max = float(np.max(h))
    checks.append({
        "quantity": "h_max",
        "expected": targets["h_bound"],
        "observed": h_max,
        "comparison": "observed < expected",
        "pass": h_max < targets["h_bound"],
    })

    summary = {
        "checks": checks,
        "all_pass": all(check["pass"] for check in checks),
        "notes": "initial condition (30, 10, 5) and horizon t_end = 500 are toolkit defaults",
    }
    text = jsonio.dumps(summary)
    (out_dir / "summary.json").write_text(text)
    sys.stdout.write(text)
    failures = [check for check in checks if not check["pass"]]
    for check in failures:
        print(f"FAIL {check['quantity']}: expected {check['expected']}, "
              f"observed {check['observed']}", file=sys.stderr)
    return EXIT_ANALYSIS if failures else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ValueError, so that ``main`` turns
    it into one ``error:`` line and exit code 1 like any other input error."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sirskit",
        description="SIRS model analysis: R0, equilibria, stability "
                    "certificates and simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="validate the incidence hypotheses")
    check.add_argument("config", type=Path)
    check.add_argument("--out", type=Path, default=None)
    check.set_defaults(func=cmd_check)

    analyze = sub.add_parser("analyze",
                             help="R0, equilibria and stability certificate")
    analyze.add_argument("config", type=Path)
    analyze.add_argument("--out", type=Path, default=None)
    analyze.set_defaults(func=cmd_analyze)

    simulate = sub.add_parser("simulate", help="integrate one trajectory to CSV")
    simulate.add_argument("config", type=Path)
    simulate.add_argument("--initial", required=True, help="initial state 'S,I,R'")
    simulate.add_argument("--t-end", dest="t_end", type=float, default=None)
    simulate.add_argument("--out", type=Path, required=True, help="output CSV path")
    simulate.set_defaults(func=cmd_simulate)

    sweep_cmd = sub.add_parser(
        "sweep", help="convergence sweep over a lattice of initials",
        description="Of the config's solver section, sweep reads only t_end: every run "
                    "steps Dormand-Prince at relative tolerance 1e-8, whatever "
                    "solver.method and solver.step_or_tol say.")
    sweep_cmd.add_argument("config", type=Path)
    sweep_cmd.add_argument("--lattice", type=int, default=2,
                           help="lattice points per axis (candidates kept inside Omega)")
    sweep_cmd.add_argument("--t-end", dest="t_end", type=float, default=None)
    sweep_cmd.add_argument("--out", type=Path, required=True, help="output directory")
    sweep_cmd.set_defaults(func=cmd_sweep)

    reproduce = sub.add_parser(
        "reproduce",
        help="run the bundled reference scenario and verify expected outputs")
    reproduce.add_argument("--out", type=Path, required=True,
                           help="output directory")
    reproduce.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (SirsKitError, OverflowError) as exc:
        # an incidence value beyond the float range is a solver failure too
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
