#!/usr/bin/env python3
"""Run one workload of the LLVA toolchain benchmark.

From the repository root:

    python3 perfbench/run.py --workload cold-start --seed 1 --seconds 10 \\
        --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
The exit status is 0 only when every operation matched the oracle and
every run-level check passed.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no repro package under " + SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import harness

    if args.workload not in harness.WORKLOADS:
        parser.error("unknown workload %r (choose from %s)" % (
            args.workload, ", ".join(harness.WORKLOADS)))
    try:
        result = harness.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except harness.SetupError as error:
        print("perfbench: set-up failed: %s" % error, file=sys.stderr)
        return 1
    width = max(len(name) for name in result["metrics"])
    for name, metric in result["metrics"].items():
        print("%-*s %14.6g %s" % (width, name, metric["value"],
                                  metric["unit"]), file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
