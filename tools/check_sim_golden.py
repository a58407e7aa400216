#!/usr/bin/env python3
"""Check a perfbench result line against the committed simulated-results golden.

    python3 tools/check_sim_golden.py --golden tests/golden/perfbench_seed42.json \
        --workload fleet RESULT

RESULT is a file holding the stdout of

    python3 perfbench/run.py --workload fleet --seed 42 --seconds S --trace 0

whose last non-empty line is the benchmark's JSON result object. Simulated
metrics (every sim_*, alarm_correct_frac, data_intact_frac) are a pure
function of the seed, so a change that is meant to alter only the
simulator's cost must reproduce them: integers exactly, other numbers to a
relative tolerance of 1e-9. Exit status 0 when every golden metric matches,
1 on any mismatch or missing metric, 2 on unusable input.
"""
import argparse
import json
import math
import sys

REL_TOL = 1e-9


def fail(message):
    print(f"check_sim_golden: {message}", file=sys.stderr)
    sys.exit(2)


def last_json_line(path):
    try:
        with open(path, encoding="utf-8") as f:
            lines = [line.strip() for line in f if line.strip()]
    except OSError as e:
        fail(f"cannot read {path}: {e}")
    if not lines:
        fail(f"{path} is empty")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"last line of {path} is not JSON: {e}")


def matches(expected, actual):
    if isinstance(expected, int) and isinstance(actual, int):
        return expected == actual
    return math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=0.0)


def compare(golden, result):
    """Return one message per golden metric the result does not reproduce."""
    metrics = result.get("metrics", {})
    problems = []
    for name, expected in sorted(golden.items()):
        if name not in metrics:
            problems.append(f"{name}: missing from the result")
            continue
        actual = metrics[name].get("value")
        if not isinstance(actual, (int, float)) or not matches(expected,
                                                                actual):
            problems.append(f"{name}: golden {expected!r}, got {actual!r}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--golden", required=True,
                        help="golden JSON file (tests/golden/...)")
    parser.add_argument("--workload", required=True,
                        help="workload name, a key of the golden file")
    parser.add_argument("result", help="file holding perfbench/run.py stdout")
    args = parser.parse_args()

    try:
        with open(args.golden, encoding="utf-8") as f:
            golden = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {args.golden}: {e}")
    expected = golden.get("workloads", {}).get(args.workload)
    if not expected:
        fail(f"{args.golden} has no metrics for workload {args.workload!r}")

    problems = compare(expected, last_json_line(args.result))
    if problems:
        print(f"check_sim_golden: {args.workload}: simulated results moved "
              f"({len(problems)} of {len(expected)} metrics):")
        for p in problems:
            print(f"  {p}")
        sys.exit(1)
    print(f"check_sim_golden: {args.workload}: all {len(expected)} simulated "
          f"metrics match {args.golden}")


if __name__ == "__main__":
    main()
