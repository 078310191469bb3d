"""Tier-2 code generation at the source level.

A constant nonzero divisor drops the divide-by-zero check (and the
unsigned forms become plain ``//``/``%``), and a constant in-range
shift amount drops the mask.  A block with one incoming edge runs in
place, the others dispatch through a balanced ``__blk < k`` test, a
load or store through a global tests the global arena's bounds before
its codec call, a cast that cannot change its value is a copy, and a
budget check is one line.  The generated source is inspected
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
    tests a value temp (``if __tN == 0:``); a plain ``== 0`` substring
    match would also count other comparisons with zero."""
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


class TestBlockLayoutCodegen:
    """A block with one incoming edge runs at the end of that edge; the
    entry and the blocks with several dispatch through a balanced test
    on ``__blk``."""

    DIAMOND = """
int %main(int %x) {
entry:
        %c = setlt int %x, 0
        br bool %c, label %neg, label %pos
neg:
        %n = sub int 0, %x
        br label %join
pos:
        br label %join
join:
        %r = phi int [ %n, %neg ], [ %x, %pos ]
        ret int %r
}
"""

    def test_one_way_blocks_run_in_place(self):
        source = _tier2_source(self.DIAMOND)
        # Two arms (entry, join): one test, and both edges into join
        # dispatch to arm 1.
        assert source.count("if __blk < ") == 1
        assert source.count("__blk = 1") == 2
        assert "__blk ==" not in source
        assert "else:" not in source

    def test_dispatching_arm_goes_under_the_if(self):
        source = _tier2_source("""
int %main(int %x) {
entry:
        br label %loop
loop:
        %i = phi int [ 0, %entry ], [ %j, %loop ]
        %j = add int %i, 1
        %c = setlt int %j, %x
        br bool %c, label %loop, label %done
done:
        ret int %j
}
""")
        # The back edge dispatches under the ``if``; ``done`` runs in
        # place after it at the same depth.
        lines = source.splitlines()
        test = next(i for i, line in enumerate(lines)
                    if line.strip() == "if r3:")
        ret = next(i for i, line in enumerate(lines)
                   if "return r2" in line)
        indent = len(lines[test]) - len(lines[test].lstrip())
        assert len(lines[ret]) - len(lines[ret].lstrip()) == indent

    def test_balanced_dispatch(self):
        # b1..b7 and out each have two or more incoming edge slots (b0
        # has one and runs in place): with the entry, nine arms, each
        # at most ceil(log2(9)) = 4 tests away.
        blocks = ["entry:\n        br bool %c, label %b0, label %b1"]
        for k in range(8):
            nxt = "%b{0}".format(k + 1) if k < 7 else "%out"
            blocks.append("b{0}:\n        br bool %c, label {1}, "
                          "label {1}".format(k, nxt))
        blocks.append("out:\n        ret int 0")
        source = _tier2_source(
            "int %main(bool %c) {\n" + "\n".join(blocks) + "\n}\n")
        assert source.count("if __blk < ") == 8
        depth = max(len(line) - len(line.lstrip())
                    for line in source.splitlines()
                    if line.strip().startswith("if __blk < "))
        loop = next(line for line in source.splitlines()
                    if line.strip() == "while True:")
        assert (depth - (len(loop) - len(loop.lstrip()))) // 4 <= 4

    def test_budget_check_is_one_line(self):
        source = _tier2_source(self.DIAMOND)
        assert "if __steps > __ms: raise __limit(st, __steps)" in source
        assert "StepLimitExceeded" not in source


class TestGlobalAccessCodegen:
    """A load or store through a global, or a ``getelementptr`` of one,
    tests the global arena's bounds, then makes one codec call on the
    arena; any other address, and an address that fails the test, takes
    ``__ld``/``__st``."""

    SOURCE = """
%g = global [4 x int] zeroinitializer
%s = global short 0
int %main(long %i) {
entry:
        %p = getelementptr [4 x int]* %g, long 0, long %i
        store int 5, int* %p
        %v = load int* %p
        %w = load short* %s
        %a = alloca int
        store int %v, int* %a
        %u = load int* %a
        ret int %u
}
"""

    def test_global_accesses_take_the_arena(self):
        source = _tier2_source(self.SOURCE)
        assert "if 65536 <= r1 and r1 + 4 <= __ge:" in source
        assert "__le_uint.pack_into(__ga, r1 - 65536, 5)" in source
        assert "r2 = __le_int.unpack_from(__ga, r1 - 65536)[0]" in source
        assert "if 65536 <= __g1 and __g1 + 2 <= __ge:" in source
        assert "r3 = __le_short.unpack_from(__ga, __g1 - 65536)[0]" \
            in source
        # The else arms keep the checked path for every global access.
        assert source.count("__ld(r1, __le_int)") == 1
        assert source.count("__st(r1, __le_uint, 5)") == 1
        prologue = source.split("def __tier2")[0]
        assert "__ga = __mem.global_arena" in prologue
        assert "__ge = __mem.global_end" in prologue

    def test_stack_accesses_keep_the_typed_path(self):
        source = _tier2_source(self.SOURCE)
        assert re.search(r"__st\(r4, __le_uint, \(r2\) & 4294967295\)",
                         source)
        assert "r5 = __ld(r4, __le_int)" in source
        assert "(__ga, r4" not in source


class TestCastCodegen:
    """A cast whose result is its operand's value is a copy; any other
    integer cast masks and sign-folds."""

    def test_value_preserving_casts_are_copies(self):
        source = _tier2_source("""
long %main(int %i, ubyte %b, int* %p) {
entry:
        %w = cast int %i to long
        %x = cast ubyte %b to short
        %y = cast ubyte %b to uint
        %q = cast int* %p to sbyte*
        %s = cast sbyte* %q to long
        %t = add long %w, %s
        %u = cast short %x to long
        %v = cast uint %y to long
        %z = add long %u, %v
        %r = add long %t, %z
        ret long %r
}
""")
        for line in ("r3 = r0", "r4 = r1", "r5 = r1", "r6 = r2",
                     "r9 = r4", "r10 = r5"):
            assert "    " + line + "\n" in source, line

    def test_value_changing_casts_wrap(self):
        source = _tier2_source("""
ulong %main(int %i, long %l) {
entry:
        %n = cast long %l to int
        %u = cast int %i to ulong
        %s = cast int %i to uint
        %a = cast int %n to ulong
        %b = cast uint %s to ulong
        %c = add ulong %u, %a
        %r = add ulong %c, %b
        ret ulong %r
}
""")
        assert "r2 = (((r1) & 4294967295) ^ 2147483648) - 2147483648" \
            in source
        assert "r3 = (r0) & 18446744073709551615" in source
        assert "r4 = (r0) & 4294967295" in source
        assert "r6 = r4" in source
