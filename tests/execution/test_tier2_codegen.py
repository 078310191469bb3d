"""Tier-2 code generation at the source level.

A constant nonzero divisor drops the divide-by-zero check (and the
unsigned forms become plain ``//``/``%``), and a constant in-range
shift amount drops the mask.  The generated source is inspected
directly, and a program covering every const-divisor shape over
dividends that include INT_MIN and INT_MAX is differenced against the
reference interpreter on the fast engine and on forced tier 2.
"""

import re

from repro.asm import parse_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.tier2 import generate_source
from repro.ir import verify_module


def _module(source):
    module = parse_module(source)
    verify_module(module)
    return module


def _reference_outcome(source):
    interpreter = Interpreter(_module(source))
    try:
        result = interpreter.run("main", [])
    except ExecutionTrap as trap:
        return ("trap", trap.trap_number, interpreter.steps)
    return ("ok", result.return_value, result.output, result.steps,
            result.exit_status)


def _fast_outcome(source, **settings):
    module = _module(source)
    interpreter = Interpreter(module, engine="fast", **settings)
    try:
        result = interpreter.run("main", [])
    except ExecutionTrap as trap:
        return ("trap", trap.trap_number, interpreter.steps), interpreter
    return ("ok", result.return_value, result.output, result.steps,
            result.exit_status), interpreter


def _tier2_source(asm):
    module = _module(asm)
    source, _refs, _slots = generate_source(
        module.functions["main"], module.target_data)
    return source


def _zero_checks(source):
    """Count emitted divisor zero checks.  The checked division path
    tests a value temp (``if __tN == 0:``); block dispatch arms also
    contain ``== 0`` (``if __blk == 0:``), so a plain substring match
    would misfire."""
    return len(re.findall(r"__t\d+ == 0", source))


class TestConstDivisorCodegen:
    """Micro-optimizations at the tier-2 source level: a constant
    nonzero divisor needs no zero check (and unsigned forms are plain
    ``//``/``%``); a constant in-range shift amount needs no mask."""

    def test_unsigned_const_div_is_plain_floordiv(self):
        source = _tier2_source("""
        uint %main() {
        entry:
                %x = add uint 1234, 0
                %r = div uint %x, 7
                ret uint %r
        }
        """)
        assert "// 7" in source
        assert "('trap'" not in source

    def test_unsigned_const_rem_is_plain_mod(self):
        source = _tier2_source("""
        uint %main() {
        entry:
                %x = add uint 1234, 0
                %r = rem uint %x, 7
                ret uint %r
        }
        """)
        assert "% 7" in source
        assert "('trap'" not in source

    def test_signed_const_div_skips_zero_check(self):
        source = _tier2_source("""
        int %main() {
        entry:
                %x = add int -1234, 0
                %r = div int %x, 7
                ret int %r
        }
        """)
        assert _zero_checks(source) == 0
        assert "('trap'" not in source
        assert "abs(" in source

    def test_signed_div_by_minus_one_keeps_checked_path(self):
        # INT_MIN / -1 is the one overflowing division; the generic
        # checked path must survive.
        source = _tier2_source("""
        int %main() {
        entry:
                %x = add int -1234, 0
                %r = div int %x, -1
                ret int %r
        }
        """)
        assert _zero_checks(source) == 1

    def test_signed_rem_by_minus_one_takes_const_path(self):
        # rem by -1 cannot overflow (the result is always 0-ish small)
        # so it does qualify for the unchecked path.
        source = _tier2_source("""
        int %main() {
        entry:
                %x = add int -1234, 0
                %r = rem int %x, -1
                ret int %r
        }
        """)
        assert "('trap'" not in source

    def test_div_by_const_zero_keeps_checked_path(self):
        source = _tier2_source("""
        int %main() {
        entry:
                %x = add int 5, 0
                %r = div int %x, 0 !ee(false)
                ret int %r
        }
        """)
        assert _zero_checks(source) == 1

    def test_const_shift_amount_drops_mask(self):
        source = _tier2_source("""
        int %main() {
        entry:
                %x = add int 5, 0
                %r = shl int %x, ubyte 3
                ret int %r
        }
        """)
        assert "<< 3" in source
        assert "& 31" not in source

    def test_variable_shift_amount_keeps_mask(self):
        source = _tier2_source("""
        int %main() {
        entry:
                %x = add int 5, 0
                %amt = add ubyte 3, 0
                %r = shl int %x, ubyte %amt
                ret int %r
        }
        """)
        assert "& 31" in source


# Every signed/unsigned const-divisor shape over a range of dividends
# that includes INT_MIN and INT_MAX, differenced against the oracle on
# both the fast engine and the tier-2 translator.
CONST_DIVREM_DIFF = """
int %divsum(int %a) {
entry:
        %q1 = div int %a, 7
        %q2 = div int %a, -7
        %q3 = div int %a, -1 !ee(false)
        %r1 = rem int %a, 7
        %r2 = rem int %a, -3
        %r3 = rem int %a, -1
        %u = cast int %a to uint
        %qu = div uint %u, 7
        %ru = rem uint %u, 9
        %s1 = add int %q1, %q2
        %s2 = add int %r1, %r2
        %s3 = add int %s1, %s2
        %s4 = add int %s3, %r3
        %su = add uint %qu, %ru
        %si = cast uint %su to int
        %s5 = add int %s4, %si
        ret int %s5
}
int %main() {
entry:
        %vmin = call int %divsum(int -2147483648)
        %vmax = call int %divsum(int 2147483647)
        %seed = add int %vmin, %vmax
        br label %loop
loop:
        %i = phi int [-12, %entry], [%next, %loop]
        %acc = phi int [%seed, %entry], [%accn, %loop]
        %v = call int %divsum(int %i)
        %accn = add int %acc, %v
        %next = add int %i, 1
        %cmp = setlt int %next, 13
        br bool %cmp, label %loop, label %exit
exit:
        ret int %accn
}
"""


class TestConstDivremDifferential:
    def test_fast_engine_matches_reference(self):
        reference = _reference_outcome(CONST_DIVREM_DIFF)
        assert reference[0] == "ok"
        fast, _interp = _fast_outcome(CONST_DIVREM_DIFF)
        assert fast == reference

    def test_tier2_forced_matches_reference(self):
        reference = _reference_outcome(CONST_DIVREM_DIFF)
        fast, interpreter = _fast_outcome(
            CONST_DIVREM_DIFF, tier2=True, tier2_threshold=0)
        assert fast == reference
        assert interpreter.tier2.stats.functions_compiled > 0

    def test_divsum_tier2_source_has_single_checked_division(self):
        # Only div by -1 (INT_MIN overflow) should keep the checked
        # path; the other seven divisions all use the unchecked
        # constant path.
        module = _module(CONST_DIVREM_DIFF)
        source, _refs, _slots = generate_source(
            module.functions["divsum"], module.target_data)
        assert _zero_checks(source) == 1


class TestMemoryAccessCodegen:
    """A scalar load or store is one ``__ld``/``__st`` call with a codec
    constant, and the prologue binds only the helpers the body uses."""

    def test_load_and_store_call_the_typed_path(self):
        source = _tier2_source("""
int %main() {
entry:
        %p = alloca short
        store short -2, short* %p
        %v = load short* %p
        %w = cast short %v to int
        ret int %w
}
""")
        assert "__st(r0, __le_ushort, 65534)" in source
        assert re.search(r"r1 = __ld\(r0, __le_short\)", source)
        prologue = source.split("while True:")[0]
        assert "__ld = __mem.load" in prologue
        assert "__st = __mem.store" in prologue
        for helper in ("__rb", "__wb", "__fb"):
            assert helper not in source

    def test_a_body_without_memory_binds_no_helper(self):
        source = _tier2_source("""
int %main() {
entry:
        %a = add int 2, 3
        ret int %a
}
""")
        assert "__mem" not in source
