#!/usr/bin/env python3
"""Self-test of the benchmark.  Run from the root of a checkout:

    python3 perfbench/selftest.py [--seed N]

It checks that

- every workload's output check passes on the seed for one whole cycle of
  inputs;
- two counting passes over the same ops give identical counters;
- the metrics a run prints are exactly those named in BENCHMARK.json.

The large-population probe (Lambda = 1e7) is the one named exception: it
does not return at the parent commit, so its status is reported, not
required.  Exits 1 on the first failure.
"""

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

BENCHMARK = run.ROOT / "BENCHMARK.json"


def fail(message: str) -> None:
    print(f"FAIL {message}")
    sys.exit(1)


def check_workload(name: str, seed: int) -> None:
    from tracing import Tracer

    workload = run.new_workload(name, seed)
    try:
        loop = run.run_loop(workload, 0.0, max_ops=workload.cycle)
        if loop.failed:
            fail(f"{name}: {loop.errors}")
        passes = []
        for _ in range(2):
            counter = Tracer()
            with counter.installed(counting=True):
                counted = run.run_loop(workload, 0.0, tracer=counter, max_ops=workload.cycle)
            if counted.failed:
                fail(f"{name} counting pass: {counted.errors}")
            passes.append(dict(counter.counts))
        if passes[0] != passes[1]:
            changed = sorted(key for key in passes[0].keys() | passes[1].keys()
                             if passes[0].get(key) != passes[1].get(key))
            fail(f"{name}: counters differ between passes: {changed}")
        print(f"ok   {name}: {loop.attempted} ops checked, {len(passes[0])} counters repeat")
    finally:
        shutil.rmtree(workload.work)


def check_metric_names(seed: int) -> None:
    spec = json.loads(BENCHMARK.read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        child = subprocess.run(
            [sys.executable, str(Path(run.__file__).resolve()), "--workload", "reference",
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=True)
        result = json.loads(child.stdout.strip().splitlines()[-1])
        printed = {name: value["unit"] for name, value in result["metrics"].items()}
        named = {entry["name"]: entry["unit"] for entry in spec[key]}
        if printed != named:
            fail(f"--trace {trace} prints {sorted(printed.items())}, "
                 f"BENCHMARK.json names {sorted(named.items())}")
        if not result["correct"]:
            fail(f"--trace {trace} run reports correct = false")
        print(f"ok   --trace {trace}: the {len(printed)} {key} metrics match BENCHMARK.json")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    run.use_checkout_sources()
    run.WORK.mkdir(exist_ok=True)
    import layers

    for name in run.WORKLOAD_NAMES:
        check_workload(name, args.seed)
    probe = layers.large_population_probe()
    ok = probe["equilibria.probe_s1e6_ok"][0]
    print(f"info large-population probe: "
          f"{'returned a correct result' if ok else 'hit its deadline (known defect)'} "
          f"after {probe['equilibria.probe_s1e6_ms'][0]:.0f} ms")
    check_metric_names(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
