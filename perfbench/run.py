#!/usr/bin/env python3
"""sirskit benchmark: one workload per process, closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload reference --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the loop runs untraced for ``--seconds`` and the last line
of standard output is a JSON object whose metrics are the end-to-end ones.
With ``--trace 1`` the run gives the per-layer metrics instead: half the time
untraced, half traced, then one counting pass, the scaling rows and the
large-population probe (see perfbench/README.md).  The line before the last
records the machine, the seed and the sample counts.  The benchmark writes
only under ``.perfbench/`` in the checkout.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads; setup children inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("reference", "basin_sweep", "long_horizon", "certify_fine")
SETUP_REPEATS = 11
SETUP_TIMEOUT_S = 60
# Percentiles are reported only with at least this many samples beyond them.
TAIL_SAMPLES = 10


def use_checkout_sources() -> None:
    """Import ``sirskit`` from this checkout's ``src``, or fail."""
    if not (SRC / "sirskit" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'sirskit'} not found; run from a full checkout")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def new_workload(name: str, seed: int):
    from workloads import WORKLOADS

    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    workload = WORKLOADS[name](seed, work)
    workload.prepare()
    return workload


# -- the loop ------------------------------------------------------------


class LoopResult:
    def __init__(self):
        self.latencies = []
        self.failed = 0
        self.errors = []
        self.wall_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def p50_ms(self) -> float:
        return 1000.0 * statistics.median(self.latencies)

    @property
    def p90_ms(self) -> float:
        return 1000.0 * statistics.quantiles(self.latencies, n=10, method="inclusive")[8]


def run_loop(workload, seconds: float, tracer=None, max_ops=None) -> LoopResult:
    """Closed loop with one client: each op is timed, then checked.

    The loop stops at the first whole cycle of inputs after ``seconds``, or
    after ``max_ops``.  An op fails on an exception, a failed check or a
    missed deadline; its time still counts in the loop's wall time.
    """
    from workloads import CheckFailed, DeadlineExceeded, deadline

    result = LoopResult()
    start = time.perf_counter()
    index = 0
    while True:
        out = Path(tempfile.mkdtemp(prefix="op-", dir=workload.work))
        error = None
        t0 = time.perf_counter()
        try:
            with deadline(workload.deadline_s):
                if tracer is None:
                    value = workload.run_op(index, out)
                else:
                    with tracer.op(index):
                        value = workload.run_op(index, out)
        except DeadlineExceeded:
            error = f"missed the {workload.deadline_s:g} s deadline"
        except Exception:
            error = traceback.format_exc(limit=3)
        result.latencies.append(time.perf_counter() - t0)
        if error is None:
            try:
                workload.check(index, value, out)
            except CheckFailed as exc:
                error = str(exc)
        shutil.rmtree(out)
        if error is not None:
            result.failed += 1
            result.errors.append(f"op {index}: {error}")
        index += 1
        if max_ops is not None and index >= max_ops:
            break
        if time.perf_counter() - start >= seconds and index % workload.cycle == 0:
            break
    result.wall_s = time.perf_counter() - start
    return result


# -- set-up time ----------------------------------------------------------


def setup_probe(name: str, seed: int) -> None:
    """Child process: time the import, the input generation and config loads."""
    t0 = time.perf_counter()
    use_checkout_sources()
    WORK.mkdir(exist_ok=True)
    workload = new_workload(name, seed)
    elapsed = time.perf_counter() - t0
    shutil.rmtree(workload.work)
    print(json.dumps({"setup_s": elapsed}))


def measure_setup(name: str, seed: int):
    """Set-up times of fresh processes, one after another."""
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        times.append(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"])
    return times


# -- reporting ------------------------------------------------------------


def machine_info(seed: int) -> dict:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "seed": seed,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def loop_info(loop: LoopResult) -> dict:
    info = {"ops": loop.attempted, "failed": loop.failed,
            "failed_share": loop.failed / loop.attempted,
            "loop_s": loop.wall_s, "op_ms_p50": loop.p50_ms}
    if loop.attempted * 0.1 >= TAIL_SAMPLES:
        info["op_ms_p90"] = loop.p90_ms
    if loop.errors:
        info["errors"] = loop.errors[:5]
    return info


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(name: str, seed: int, seconds: int):
    setup_times = measure_setup(name, seed)
    workload = new_workload(name, seed)
    try:
        loop = run_loop(workload, seconds)
    finally:
        shutil.rmtree(workload.work)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "ops_per_s": metric((loop.attempted - loop.failed) / loop.wall_s, "1/s"),
        "op_ms_p50": metric(loop.p50_ms, "ms"),
        "peak_rss_mb": metric(rss_kib / 1024.0, "MB"),
    }
    info = dict(machine_info(seed), workload=name, trace=0, setup_runs_s=setup_times,
                **loop_info(loop))
    return [loop], metrics, info


def traced(name: str, seed: int, seconds: int):
    use_checkout_sources()
    import layers
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        workload = new_workload(name, seed)
    try:
        plain = run_loop(workload, seconds / 2.0)
        with tracer.installed():
            spanned = run_loop(workload, seconds / 2.0, tracer=tracer)
        counter = Tracer()
        with counter.installed(counting=True):
            counted = run_loop(workload, 0.0, tracer=counter, max_ops=workload.cycle)
        metrics = layers.per_op(tracer, counter.counts, spanned.attempted,
                                counted.attempted, workload.via_cli)
        metrics["trace.overhead_ms"] = (spanned.p50_ms - plain.p50_ms, "ms")
        metrics.update(layers.scaling_rows(workload.reference))
        metrics.update(layers.large_population_probe())
    finally:
        shutil.rmtree(workload.work)
    trace_dir = WORK / "traces"
    trace_dir.mkdir(exist_ok=True)
    trace_file = trace_dir / f"{name}-seed{seed}.json"
    trace_file.write_text(json.dumps({"workload": name, "seed": seed,
                                      "spans": tracer.as_records(),
                                      "counts": dict(counter.counts)}))
    info = dict(machine_info(seed), workload=name, trace=1,
                untraced=loop_info(plain), traced=loop_info(spanned),
                counted=loop_info(counted), trace_file=str(trace_file.relative_to(ROOT)))
    loops = [plain, spanned, counted]
    return loops, {key: metric(value, unit) for key, (value, unit) in metrics.items()}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    use_checkout_sources()  # fail before any work in an incomplete checkout
    WORK.mkdir(exist_ok=True)
    run = traced if args.trace else end_to_end
    loops, metrics, info = run(args.workload, args.seed, args.seconds)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
