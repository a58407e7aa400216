#!/usr/bin/env python3
"""Check that the benchmark is steady: run one workload on several seeds and
report each metric's median and spread.

    python3 perfbench/spread.py --workload fleet [--runs 10] [--first-seed 1]
        [--trace 0|1]

The spread is the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. For each
end-to-end metric it is compared with the bound in BENCHMARK.json: a
benchmark is steady when every spread except that of setup_s stays below a
third of its metric's bound. Run it from the repository root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        run = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(bench["run_seconds"]), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True)
        lines = run.stdout.strip().splitlines()
        if run.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {run.returncode}\n{run.stderr}")
        result = json.loads(lines[-1])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    worst = "steady"
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name) if args.trace == "0" else None
        verdict = ""
        if bound is not None and name != "setup_s":
            if not spread < bound:
                verdict, worst = "OVER BOUND", "not steady"
            elif not spread < bound / 3:
                verdict = "above bound/3"
                worst = "marginal" if worst == "steady" else worst
        print(f"{name:30s} median {med:14.6g} {units[name]:10s} "
              f"spread {spread:7.4f} bound {bound}  {verdict}")
    print(f"{args.workload}: {worst}")


if __name__ == "__main__":
    main()
