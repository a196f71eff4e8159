"""The four benchmark workloads: their inputs, their op and its output check.

Every workload is one closed loop with one client: the next op starts only
after the previous one has returned and been checked.  A workload's inputs
come from its seed alone; the program under test receives only those
generated inputs.  Checks use tolerances, not golden digests, so that
round-off changes in trajectories stay allowed; byte-determinism is checked
between ops of one run that repeat the same input.

Import this module only after ``src`` is on ``sys.path``: it imports the
checkout's ``sirskit``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import signal
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

from sirskit import cli, config, equilibria, incidence, stability

# The bundled reference scenario (supercritical case).
BASE_PARAMS = {"Lambda": 10.0, "mu": 0.2, "gamma1": 0.2, "gamma2": 0.2,
               "alpha": 0.1, "delta": 0.1}
BASE_K = 0.0008
REFERENCE_DOC = {"params": BASE_PARAMS,
                 "incidence": {"family": "power",
                               "coefficients": {"k": BASE_K, "q": 2.0}}}

# Closed forms for the reference parameters (power q = 2 and bilinear share
# beta = 0.04 at the disease-free state): R0 = Lambda*beta/(mu*outflow);
# S* solves f1(S*) = outflow; for power f1 = k*S^2 the secant slope is
# k*(u + S*), so the optimal k1 = 2c/(k*(2S* + S0)) with c = 2mu + alpha;
# for bilinear the slope is beta and k1 = c/beta.
_OUTFLOW = (BASE_PARAMS["mu"] + BASE_PARAMS["gamma1"] + BASE_PARAMS["gamma2"]
            + BASE_PARAMS["alpha"])
_S0 = BASE_PARAMS["Lambda"] / BASE_PARAMS["mu"]
_C = 2.0 * BASE_PARAMS["mu"] + BASE_PARAMS["alpha"]
_BILINEAR_BETA = 0.04
R0_EXPECTED = BASE_PARAMS["Lambda"] * _BILINEAR_BETA / (BASE_PARAMS["mu"] * _OUTFLOW)
POWER_S_STAR_SHARE = math.sqrt(_OUTFLOW / BASE_K) / _S0
POWER_K1 = 2.0 * _C / (BASE_K * (2.0 * math.sqrt(_OUTFLOW / BASE_K) + _S0))
BILINEAR_S_STAR_SHARE = _OUTFLOW / _BILINEAR_BETA / _S0
BILINEAR_K1 = _C / _BILINEAR_BETA

REL_TOL = 1e-6
CONV_TOL = 1e-2


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


class DeadlineExceeded(BaseException):
    """Raised inside an op that ran past its deadline.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


@contextmanager
def deadline(seconds: float):
    """Interrupt the enclosed block with DeadlineExceeded after ``seconds``."""
    def expire(signum, frame):
        raise DeadlineExceeded()

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class CliResult(NamedTuple):
    code: int
    stdout: str


def run_cli(argv) -> CliResult:
    """``sirskit.cli.main(argv)`` with its standard streams captured."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main([str(arg) for arg in argv])
    return CliResult(code, out.getvalue())


def scaled_power_doc(scale: float) -> dict:
    """The reference model with the population rescaled by ``scale``.

    Lambda*s and k/s^2 keep R0 and S*/S0 fixed and make k1 scale with s.
    """
    return {"params": {**BASE_PARAMS, "Lambda": BASE_PARAMS["Lambda"] * scale},
            "incidence": {"family": "power",
                          "coefficients": {"k": BASE_K / scale ** 2, "q": 2.0}}}


def _close(observed, expected, what: str) -> None:
    if observed is None or not math.isclose(observed, expected, rel_tol=REL_TOL):
        raise CheckFailed(f"{what} = {observed!r}, expected {expected!r}")


class Workload:
    """Inputs and op of one workload; subclasses define ``run_op`` and ``check``."""

    name = ""
    # Wall-clock limit of one op, well above its usual latency: it turns a
    # hang into a failed op and keeps a run within its time limit.
    deadline_s = 0.0
    # The loop stops only after a whole cycle of inputs, so that workloads
    # whose inputs differ in cost measure the same mix in every run.
    cycle = 1
    # Whether the op is one ``sirskit.cli.main`` call.
    via_cli = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self._first = {}

    def prepare(self) -> None:
        """Generate the inputs from the seed and load the configurations.

        Every workload loads the reference configuration: it is the model
        of the traced run's scaling rows.
        """
        self.reference_path = self.work / "reference.json"
        self.reference = self.write_config(self.reference_path, REFERENCE_DOC)

    @staticmethod
    def write_config(path: Path, doc: dict):
        path.write_text(json.dumps(doc))
        return config.load_config(path)

    def run_op(self, index: int, out: Path):
        raise NotImplementedError

    def check(self, index: int, result, out: Path) -> None:
        """Raise CheckFailed when the op's output is wrong."""
        raise NotImplementedError

    def same_as_first(self, key, value, what: str) -> None:
        """Byte-determinism: an input seen before must give the same output."""
        first = self._first.setdefault(key, value)
        if value != first:
            raise CheckFailed(f"{what} differs from the first op on the same input")

    def expect_exit_zero(self, result: CliResult) -> dict:
        if result.code != 0:
            raise CheckFailed(f"exit code {result.code}")
        return json.loads(result.stdout)


class Reference(Workload):
    """``reproduce``: the paper's scenario, touching every layer lightly."""

    name = "reference"
    deadline_s = 5.0

    def run_op(self, index, out):
        return run_cli(["reproduce", "--out", out])

    def check(self, index, result, out):
        doc = self.expect_exit_zero(result)
        if doc["all_pass"] is not True:
            raise CheckFailed("reproduce reports all_pass = false")
        self.same_as_first(0, result.stdout, "stdout")


class BasinSweep(Workload):
    """``sweep --lattice 16``: 648 RK45 trajectories, integrator-bound."""

    name = "basin_sweep"
    deadline_s = 60.0
    runs = 648

    def run_op(self, index, out):
        return run_cli(["sweep", self.reference_path, "--lattice", 16, "--out", out])

    def check(self, index, result, out):
        doc = self.expect_exit_zero(result)
        if doc["converged_fraction"] != 1.0:
            raise CheckFailed(f"converged_fraction = {doc['converged_fraction']}")
        if len(doc["runs"]) != self.runs:
            raise CheckFailed(f"{len(doc['runs'])} runs, expected {self.runs}")
        digest = hashlib.sha256()
        for run in doc["runs"]:
            data = (out / run["csv"]).read_bytes()
            if not data.startswith(b"t,S,I,R\n"):
                raise CheckFailed(f"{run['csv']} header is not t,S,I,R")
            digest.update(data)
        self.same_as_first(0, (result.stdout, digest.digest()), "stdout or CSV")


class LongHorizon(Workload):
    """``simulate`` with fixed-step RK4, h = 0.01 to t = 500, 10k CSV rows."""

    name = "long_horizon"
    deadline_s = 10.0
    n_initials = 4
    rows = 10_000

    def prepare(self):
        super().prepare()
        doc = dict(REFERENCE_DOC, solver={"method": "rk4_fixed", "step_or_tol": 0.01,
                                           "t_end": 500.0})
        self.config_path = self.work / "long_horizon.json"
        self.write_config(self.config_path, doc)
        params = self.reference.params
        self.e1 = equilibria.find_endemic(params, self.reference.incidence()).endemic[0][0]
        rng = random.Random(self.seed)
        self.initials = []
        while len(self.initials) < self.n_initials:
            s = rng.uniform(0.0, params.s0 - 1.0)
            i = rng.uniform(1.0, params.s0 - s)
            r = rng.uniform(0.0, params.s0 - s - i)
            if s + i + r <= params.s0:
                self.initials.append((s, i, r))

    def run_op(self, index, out):
        s, i, r = self.initials[index % self.n_initials]
        return run_cli(["simulate", self.config_path, "--initial", f"{s!r},{i!r},{r!r}",
                        "--out", out / "trajectory.csv"])

    def check(self, index, result, out):
        doc = self.expect_exit_zero(result)
        final = doc["final"]
        distance = max(abs(final["S"] - self.e1.S), abs(final["I"] - self.e1.I),
                       abs(final["R"] - self.e1.R))
        if not distance <= CONV_TOL:
            raise CheckFailed(f"final state is {distance:g} from E1")
        data = (out / "trajectory.csv").read_bytes()
        rows = data.count(b"\n") - 1
        if not data.startswith(b"t,S,I,R\n") or rows != self.rows:
            raise CheckFailed(f"CSV holds {rows} rows, expected {self.rows}")
        del doc["csv"]  # the path differs between ops
        self.same_as_first(index % self.n_initials,
                           (json.dumps(doc), hashlib.sha256(data).digest()), "stdout or CSV")


class Model(NamedTuple):
    label: str
    scale: float
    config: object


class CertifyFine(Workload):
    """check_hypotheses -> find_endemic -> certify(grid 801, dV/dt grid 121).

    Power models at seeded population scales in [1e-4, 1e4], plus bilinear
    (granted) and saturated_in_I and psi_ratio (refused for a divergent
    secant slope), in a seeded order.  The public API is used because the
    CLI has no option for the dV/dt grid.
    """

    name = "certify_fine"
    deadline_s = 5.0
    via_cli = False
    n_scales = 8
    grid_n = 801
    dvdt_grid_n = 121
    fixed_models = (
        ("bilinear", {"family": "bilinear", "coefficients": {"beta": _BILINEAR_BETA}}),
        ("saturated_in_I", {"family": "saturated_in_I",
                            "coefficients": {"beta": _BILINEAR_BETA, "a": 0.1}}),
        ("psi_ratio", {"family": "psi_ratio",
                       "coefficients": {"beta": _BILINEAR_BETA, "a": 0.1, "b": 0.01}}),
    )

    def prepare(self):
        super().prepare()
        rng = random.Random(self.seed)
        specs = [("power", 10.0 ** rng.uniform(-4.0, 4.0)) for _ in range(self.n_scales)]
        specs += [(label, 1.0) for label, _ in self.fixed_models]
        rng.shuffle(specs)
        fixed = dict(self.fixed_models)
        self.models = []
        for n, (label, scale) in enumerate(specs):
            doc = (scaled_power_doc(scale) if label == "power"
                   else {"params": BASE_PARAMS, "incidence": fixed[label]})
            cfg = self.write_config(self.work / f"model_{n:02d}.json", doc)
            self.models.append(Model(label, scale, cfg))
        self.cycle = len(self.models)

    def run_op(self, index, out):
        return certify_op(self.models[index % self.cycle].config,
                          self.grid_n, self.dvdt_grid_n)

    def check(self, index, result, out):
        model = self.models[index % self.cycle]
        hyp, eq, cert = result
        check_certificate(model.label, model.scale, model.config.params, hyp, eq, cert)
        self.same_as_first(index % self.cycle,
                           json.dumps([hyp.as_dict(), eq.as_dict(), cert.as_dict()]),
                           "report")


def certify_op(cfg, grid_n: int, dvdt_grid_n: int):
    """One certify_fine op; module attributes are looked up at call time so
    that the traced run's wrappers see the calls."""
    params, f = cfg.params, cfg.incidence()
    hyp = incidence.check_hypotheses(f, s_max=params.s0)
    if not hyp.all_pass:
        return hyp, None, None
    eq = equilibria.find_endemic(params, f)
    if not eq.endemic:
        return hyp, eq, None
    cert = stability.certify(params, f, eq.endemic[0][0], grid_n=grid_n,
                             dvdt_grid_n=dvdt_grid_n)
    return hyp, eq, cert


def check_certificate(label, scale, params, hyp, eq, cert) -> None:
    """Granted or refused as expected per family; R0, S*/S0 and k1/s as the
    closed forms for the reference parameters give them."""
    if not hyp.all_pass or eq is None or cert is None:
        raise CheckFailed(f"{label}: hypotheses or endemic equilibrium missing")
    _close(eq.r0, R0_EXPECTED, f"{label} s={scale:g}: R0")
    share = eq.endemic[0][0].S / params.s0
    if label in ("power", "bilinear"):
        if not cert.granted:
            raise CheckFailed(f"{label} s={scale:g}: certificate refused")
        expected = (POWER_S_STAR_SHARE, POWER_K1) if label == "power" else (
            BILINEAR_S_STAR_SHARE, BILINEAR_K1)
        _close(share, expected[0], f"{label} s={scale:g}: S*/S0")
        _close(cert.k1 / scale, expected[1], f"{label} s={scale:g}: k1/s")
    elif cert.granted or not cert.divergence_flag:
        raise CheckFailed(f"{label}: expected a refusal with divergence_flag")


WORKLOADS = {cls.name: cls for cls in (Reference, BasinSweep, LongHorizon, CertifyFine)}
