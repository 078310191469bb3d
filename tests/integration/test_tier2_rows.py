"""The tiered engine's counts, pinned row by row.

Each of the 17 Table 2 programs is built at scale 0.01 with ``-O2`` and
launched twice on one LLEE with tier 2 on at the default threshold, as
perfbench's launch phases run it: a cold launch, then a relaunch of the
resident executable.  The architectural steps, the steps run in tier-2
code, the calls into tier-2 code and the functions compiled must equal
the row in ``ROWS``.  A change to how calls reach tier-2 code (the
driver, promotion counting, the step budget) that moves any count shows
here.

To regenerate the table after a deliberate change to the promotion
policy or the tier-2 code generator, run this file from the repository
root and replace ``ROWS`` with what it prints::

    PYTHONPATH=src python tests/integration/test_tier2_rows.py
"""

import functools

import pytest

from repro.benchsuite import SUITE_ORDER, load_workload
from repro.bitcode import write_module
from repro.llee import LLEE
from repro.minic import compile_source
from repro.targets import make_target

SCALE = 0.01

#: program -> per launch (cold, then relaunch): (steps, tier2_steps,
#: tier2_calls, tier2_functions_compiled).
ROWS = {
    'anagram': ((825, 45, 5, 1), (825, 189, 21, 1)),
    'ks': ((189, 0, 0, 0), (189, 0, 0, 0)),
    'ft': ((588, 0, 0, 0), (588, 0, 0, 0)),
    'yacr2': ((354, 0, 0, 0), (354, 0, 0, 0)),
    'bc': ((194688, 120943, 12, 2), (194688, 192894, 36, 4)),
    'art': ((85148, 441, 49, 1), (85148, 16853, 66, 2)),
    'equake': ((256, 0, 0, 0), (256, 0, 0, 0)),
    'mcf': ((9088, 252, 28, 1), (9088, 852, 56, 2)),
    'bzip2': ((85752, 50340, 175, 3), (85752, 58542, 226, 5)),
    'gzip': ((43262, 4289, 276, 5), (43262, 5537, 356, 5)),
    'parser': ((50951, 21422, 1130, 5), (50951, 25854, 1223, 7)),
    'ammp': ((340, 0, 0, 0), (340, 0, 0, 0)),
    'vpr': ((793, 0, 0, 0), (793, 0, 0, 0)),
    'twolf': ((2570, 27, 3, 1), (2570, 1403, 43, 4)),
    'crafty': ((78181, 70054, 998, 8), (78181, 78085, 1127, 9)),
    'vortex': ((965, 126, 14, 1), (965, 312, 36, 2)),
    'gap': ((706, 55, 11, 1), (706, 151, 31, 2)),
}


@functools.lru_cache(maxsize=None)
def _bitcode(name: str) -> bytes:
    module = compile_source(load_workload(name, SCALE).source, name,
                            optimization_level=2)
    return write_module(module)


def _row(name: str) -> tuple:
    llee = LLEE(make_target("x86"))
    row = []
    for _ in range(2):
        report = llee.run_interpreted(_bitcode(name), engine="fast",
                                      tier2=True)
        row.append((report.steps, report.tier2_steps, report.tier2_calls,
                    report.tier2_functions_compiled))
    return tuple(row)


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_row_matches_pinned_counts(name):
    assert _row(name) == ROWS[name]


def test_table_covers_the_suite():
    assert list(ROWS) == list(SUITE_ORDER)


if __name__ == "__main__":
    print("ROWS = {")
    for program in SUITE_ORDER:
        print("    {0!r}: {1!r},".format(program, _row(program)))
    print("}")
