"""Perf-regression guard: compare a fresh fastpath_bench JSON against
the committed baseline.

Usage::

    python benchmarks/compare_bench.py NEW.json \
        [--baseline BENCH_tierjit.json] [--tolerance 0.15] \
        [--metric speedup|vector_geomean]

The comparison is restricted to the programs present in *both* files
(CI runs the quick subset against the committed full-suite baseline)
and gates on the geomean of the per-program speedups: a geomean more
than ``tolerance`` below the baseline's fails the run (exit 1), more
than ``tolerance`` above it prints a warning suggesting a baseline
refresh (exit 0 — improvements never break CI), and any engine
divergence fails immediately.  Wall-clock speedups are only comparable
at matching workload scales, so a scale mismatch is an error, not a
noisy pass.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

DEFAULT_BASELINE = "BENCH_tierjit.json"
DEFAULT_TOLERANCE = 0.15


def _rows(document):
    return {row["program"]: row for row in document.get("programs", [])}


def _geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


#: Gate metric -> the per-program row key its geomean is taken over.
_METRIC_ROW_KEYS = {
    "speedup": "speedup",
    "vector_geomean": "vector_speedup",
}


def compare(current: dict, baseline: dict,
            tolerance: float = DEFAULT_TOLERANCE, out=sys.stdout,
            metric: str = "speedup") -> int:
    row_key = _METRIC_ROW_KEYS[metric]
    if current.get("diverged"):
        out.write("FAIL: the candidate run diverged between engines\n")
        return 1
    current_rows = _rows(current)
    baseline_rows = _rows(baseline)
    common = sorted(name for name in set(current_rows)
                    & set(baseline_rows)
                    if current_rows[name].get(row_key)
                    and baseline_rows[name].get(row_key))
    if not common:
        out.write("FAIL: no programs in common with the baseline "
                  "(comparing {0!r})\n".format(row_key))
        return 1
    mismatched = [name for name in common
                  if current_rows[name].get("scale")
                  != baseline_rows[name].get("scale")]
    if mismatched:
        out.write("FAIL: workload scale differs from the baseline for "
                  "{0} — speedups are not comparable (rerun with "
                  "--scale {1})\n".format(
                      ", ".join(mismatched),
                      baseline_rows[mismatched[0]].get("scale")))
        return 1

    out.write("{0:<12} {1:>10} {2:>10} {3:>8}\n".format(
        "program", "baseline", "current", "ratio"))
    for name in common:
        base = baseline_rows[name][row_key]
        cur = current_rows[name][row_key]
        out.write("{0:<12} {1:>9.2f}x {2:>9.2f}x {3:>8.3f}\n".format(
            name, base, cur, cur / base))
    baseline_geomean = _geomean(
        [baseline_rows[n][row_key] for n in common])
    current_geomean = _geomean(
        [current_rows[n][row_key] for n in common])
    ratio = current_geomean / baseline_geomean
    out.write("{0} geomean ({1} programs): baseline {2:.3f}x, current "
              "{3:.3f}x, ratio {4:.3f} (tolerance {5:.0%})\n".format(
                  row_key, len(common), baseline_geomean,
                  current_geomean, ratio, tolerance))

    if ratio < 1.0 - tolerance:
        out.write("FAIL: speedup regressed more than {0:.0%} against "
                  "the committed baseline\n".format(tolerance))
        return 1
    if ratio > 1.0 + tolerance:
        out.write("WARN: speedup improved more than {0:.0%} — "
                  "consider refreshing the committed baseline\n"
                  .format(tolerance))
        return 0
    out.write("OK: within tolerance\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Gate a fastpath_bench JSON against the committed "
                    "baseline (fail on regression, warn on "
                    "improvement).")
    parser.add_argument("current", help="fresh bench JSON to check")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="committed baseline JSON "
                             "(default: %(default)s)")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="allowed geomean drop, as a fraction "
                             "(default: %(default)s)")
    parser.add_argument("--metric", default="speedup",
                        choices=sorted(_METRIC_ROW_KEYS),
                        help="which per-program geomean to gate on: "
                             "'speedup' (fast engine vs reference) or "
                             "'vector_geomean' (--vectorize A/B, "
                             "against BENCH_vector.json)")
    args = parser.parse_args(argv)
    with open(args.current) as handle:
        current = json.load(handle)
    with open(args.baseline) as handle:
        baseline = json.load(handle)
    return compare(current, baseline, args.tolerance, metric=args.metric)


if __name__ == "__main__":
    sys.exit(main())
