#!/usr/bin/env python3
"""Run perfbench in a parent and a change checkout, pair by pair, and
write the result lines and their summary as one ``BENCH_<pr>.json``.

    python3 tools/bench_pairs.py PARENT CHANGE --workload certify_fine:10 \\
        --workload reference:3 --seed-base 3400 --out BENCH_32.json

Pair k (from 1) of a workload runs ``perfbench/run.py --workload NAME --seed
SEED_BASE+k --seconds S --trace 0`` in both checkouts, the parent first when
k is odd, with S the ``run_seconds`` of ``BENCHMARK.json``.  Every run gets
its own empty ``PYTHONPYCACHEPREFIX`` and ``PYTHONDONTWRITEBYTECODE=1``, so no
run reads or writes bytecode in either checkout, and every module is compiled
from source in every process on both sides.  Nothing in either checkout is
deleted.

For each workload and end-to-end metric of ``BENCHMARK.json`` the summary
gives both sides' medians, quartiles (numpy's linear ones), interquartile
range and min/max, the change's median relative to the parent's, and in how
many pairs the change read better (ties count for neither side).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TREES = ("parent", "change")


def workload_pairs(text: str):
    name, _, pairs = text.partition(":")
    if not name or not pairs.isdigit() or int(pairs) < 1:
        raise argparse.ArgumentTypeError(f"expected NAME:PAIRS, got {text!r}")
    return name, int(pairs)


def commit_of(checkout: Path):
    head = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return head.stdout.strip() if head.returncode == 0 else None


def run_once(checkout: Path, command: list) -> tuple:
    """The info and result lines of one perfbench run in ``checkout``."""
    with tempfile.TemporaryDirectory(prefix="pycache-") as prefix:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, *command[1:]], cwd=checkout, env=env,
                              capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} failed in {checkout}:\n{done.stderr}")
    info, result = done.stdout.strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def spread(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "quartiles": [round(float(q1), 4),
                                                              round(float(q3), 4)],
            "iqr": round(float(q3 - q1), 4),
            "min_max": [round(float(min(values)), 4), round(float(max(values)), 4)]}


def summarise(runs: list, pairs: int, metrics: list) -> dict:
    by_tree = {tree: sorted((r for r in runs if r["tree"] == tree), key=lambda r: r["pair"])
               for tree in TREES}
    summary = {"pairs": pairs, "failed_ops": {tree: sum(r["result"]["failed"]
                                                        for r in by_tree[tree])
                                              for tree in TREES}}
    for metric in metrics:
        values = {tree: [r["result"]["metrics"][metric["name"]]["value"] for r in by_tree[tree]]
                  for tree in TREES}
        sign = 1.0 if metric["better"] == "higher" else -1.0
        entry = {"unit": metric["unit"], "better": metric["better"]}
        for tree in TREES:
            entry.update({f"{tree}_{key}": value for key, value in spread(values[tree]).items()})
        entry["relative_change"] = round(entry["change_median"] / entry["parent_median"] - 1.0, 4)
        entry["change_better_pairs"] = sum(sign * (c - p) > 0 for p, c in
                                           zip(values["parent"], values["change"]))
        summary[metric["name"]] = entry
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", type=workload_pairs, action="append", required=True,
                        metavar="NAME:PAIRS")
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs, summary = [], {}
    for name, pairs in args.workload:
        for pair in range(1, pairs + 1):
            seed = args.seed_base + pair
            command = ["python3", "perfbench/run.py", "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
            for tree in TREES if pair % 2 else TREES[::-1]:
                info, result = run_once(checkouts[tree], command)
                runs.append({"workload": name, "tree": tree, "pair": pair, "seed": seed,
                             "trace": 0, "command": " ".join(command), "info": info,
                             "result": result})
                print(f"{name} pair {pair} {tree}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()),
                    file=sys.stderr, flush=True)
        summary[name] = summarise([r for r in runs if r["workload"] == name], pairs,
                                  benchmark["end_to_end"])
    args.out.write_text(json.dumps({
        "what": "perfbench/run.py result lines of a parent and a change checkout, written by "
                "tools/bench_pairs.py: pair k of a workload uses seed seed_base+k on both "
                "sides and runs the parent first when k is odd; each run has its own empty "
                "PYTHONPYCACHEPREFIX and PYTHONDONTWRITEBYTECODE=1.",
        "commits": {tree: commit_of(checkouts[tree]) for tree in TREES},
        "seed_base": args.seed_base, "run_seconds": seconds,
        "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
