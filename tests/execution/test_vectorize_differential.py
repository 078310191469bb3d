"""``--vectorize`` differential conformance: vectorized builds of every
benchsuite workload (and hand-written vector kernels) must be
observationally identical to the reference interpreter on every tier —
fast engine, and tier 2 forced and at the default threshold (the
numeric rows and one kernel also under llva-san) — and the vectorized
module must agree with the scalar build
on everything a program can observe (return value, output, exit
status; step counts legitimately shrink)."""

import pytest

from test_fastpath_differential import (
    CONFIGS,
    FAST,
    REFERENCE,
    TIER2_FORCED,
    _outcome,
    run_both,
    run_both_sanitized,
)

from repro.benchsuite import SUITE_ORDER, load_workload
from repro.minic import compile_source

SCALE = 0.05

#: The numeric rows BENCH_vector.json reports on; art is the one with
#: bit-exactly vectorizable loops, the others pin the "vectorize is a
#: no-op here" contract.
NUMERIC_ROWS = ("art", "equake", "ammp", "ft")


def _vector_module(name, scale=SCALE):
    workload = load_workload(name, scale)
    return compile_source(workload.source, name,
                          optimization_level=2, vectorize=True)


def _scalar_module(name, scale=SCALE):
    workload = load_workload(name, scale)
    return compile_source(workload.source, name, optimization_level=2)


class TestBenchsuiteVectorized:
    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_workload_fast_and_tier2(self, name):
        """All 17 workloads compiled with --vectorize: reference, fast,
        and forced tier 2 agree byte for byte (including steps)."""
        module = _vector_module(name)
        reference = _outcome(module)
        assert reference[0] == "ok"
        assert _outcome(module, FAST) == reference
        assert _outcome(module, TIER2_FORCED) == reference

    @pytest.mark.parametrize("name", SUITE_ORDER)
    def test_workload_matches_scalar_build(self, name):
        """The vectorized build must be indistinguishable from the
        scalar one to the program itself: same return value, output,
        and exit status (steps may shrink — that is the payoff)."""
        vector = _outcome(_vector_module(name))
        scalar = _outcome(_scalar_module(name))
        assert vector[0] == scalar[0] == "ok"
        # (kind, return_value, output, steps, exit_status)
        assert vector[1] == scalar[1]
        assert vector[2] == scalar[2]
        assert vector[4] == scalar[4]
        assert vector[3] <= scalar[3]


class TestNumericRowsFullLadder:
    @pytest.mark.parametrize("name", NUMERIC_ROWS)
    def test_every_config(self, name):
        """The BENCH_vector.json rows under every configuration."""
        outcomes = {}
        for config in CONFIGS:
            module = _vector_module(name)
            outcomes[config] = _outcome(module, config)
        for config in outcomes:
            assert outcomes[config] == outcomes[REFERENCE], config
        assert outcomes[REFERENCE][0] == "ok"


_VEC_HEADER = """
target pointersize = 64
target endian = little
"""

#: All nine vector opcodes in one kernel over a global array, with a
#: remainder-carrying reduction — every configuration must agree.
_KERNEL_ASM = _VEC_HEADER + """
%data = global [8 x double] [ double 1.5, double 2.5, double -3.0,
        double 4.0, double 0.25, double -1.0, double 8.0, double 0.5 ]
int %main() {
entry:
        %p = getelementptr [8 x double]* %data, long 0, long 0
        %q = getelementptr [8 x double]* %data, long 0, long 4
        %a = vload <4 x double>, double* %p
        %b = vload <4 x double>, double* %q
        %s = vadd <4 x double> %a, %b
        %d = vsub <4 x double> %a, %b
        %m = vmul <4 x double> %s, %d
        %c = vsplat <4 x double> 2.0
        %t = vmul <4 x double> %m, %c
        vstore <4 x double> %t, double* %p
        %r0 = vreduce.add double 0.0, <4 x double> %t
        %r1 = vreduce.min double %r0, <4 x double> %b
        %r2 = vreduce.max double %r1, <4 x double> %a
        %w = cast double %r2 to int
        ret int %w
}
"""

#: Integer lanes wrap exactly like scalar !ee arithmetic.
_INT_WRAP_ASM = _VEC_HEADER + """
%nums = global [4 x int] [ int 2147483647, int -2147483648,
        int 123456789, int -987654321 ]
int %main() {
entry:
        %p = getelementptr [4 x int]* %nums, long 0, long 0
        %a = vload <4 x int>, int* %p
        %two = vsplat <4 x int> 2
        %dbl = vmul <4 x int> %a, %two
        %sum = vadd <4 x int> %dbl, %a
        vstore <4 x int> %sum, int* %p
        %r = vreduce.add int 7, <4 x int> %sum
        ret int %r
}
"""

#: An out-of-range vload: the delivered memory fault (trap number and
#: step count) must be identical everywhere — including through the
#: bulk-transfer fast paths, which replay lane by lane on fault to
#: recover the exact faulting-lane address.
_FAULT_ASM = _VEC_HEADER + """
%edge = global [2 x double] [ double 1.0, double 2.0 ]
int %main() {
entry:
        %p = getelementptr [2 x double]* %edge, long 0, long 0
        %a = vload <4 x double>, double* %p
        %r = vreduce.add double 0.0, <4 x double> %a
        %w = cast double %r to int
        ret int %w
}
"""


class TestVectorKernelsEveryConfig:
    def test_all_opcodes_kernel(self):
        outcome = run_both(_KERNEL_ASM)
        assert outcome[0] == "ok"

    def test_integer_lanes_wrap(self):
        outcome = run_both(_INT_WRAP_ASM)
        assert outcome[0] == "ok"
        # 2*INT_MAX wraps, +INT_MAX wraps again: the scalar wrap chain.
        assert outcome[1] is not None

    def test_vector_fault_is_identical_everywhere(self):
        outcome = run_both(_FAULT_ASM)
        assert outcome[0] == "trap"

    def test_kernel_sanitized(self):
        outcome = run_both_sanitized(_KERNEL_ASM)
        assert outcome[0] == "ok"
