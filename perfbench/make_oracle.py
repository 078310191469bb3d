#!/usr/bin/env python3
"""Regenerate perfbench/oracle.json, the benchmark's expected results.

For every suite program at every scale the benchmark runs, the oracle
holds the return value, output and exit status of the *reference*
interpreter on the unoptimised (``-O0``) module, so neither the
optimiser nor any fast engine checks itself.  Takes about a minute:

    python3 perfbench/make_oracle.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from harness import ALL, ORACLE_PATH, SCALES  # noqa: E402
from repro.benchsuite import load_workload  # noqa: E402
from repro.execution import Interpreter  # noqa: E402
from repro.minic import compile_source  # noqa: E402


def main() -> None:
    scales = {}
    for scale in SCALES:
        rows = scales[repr(scale)] = {}
        for name in ALL:
            module = compile_source(load_workload(name, scale).source, name,
                                    optimization_level=0)
            result = Interpreter(module, engine="reference").run("main")
            rows[name] = {"return_value": result.return_value,
                          "output": result.output,
                          "exit_status": result.exit_status}
            print("%-8s %-5s %r" % (name, scale, result.return_value),
                  file=sys.stderr)
    document = {"engine": "reference", "optimization_level": 0,
                "scales": scales}
    with open(ORACLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
