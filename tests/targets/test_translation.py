"""Translator tests: lowering, calling conventions, differential
execution against the interpreter on both targets."""

import pytest

from helpers import build_factorial, build_loop_sum
from repro.asm import parse_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.machine_sim import MachineSimulator
from repro.ir import print_module, verify_module
from repro.llee.jit import FunctionJIT
from repro.targets import (
    FunctionLowering,
    make_target,
    translate_module,
    verify_native_module,
)
from repro.targets.machine import Imm, LabelRef, Semantics

TARGETS = ("x86", "sparc")


def _differential(source_or_module, entry="main", args=(),
                  targets=TARGETS):
    if isinstance(source_or_module, str):
        module = parse_module(source_or_module)
    else:
        module = source_or_module
    verify_module(module)
    expected = Interpreter(module).run(entry, args)
    for target_name in targets:
        native = translate_module(module, make_target(target_name))
        verify_native_module(native)
        simulator = MachineSimulator(native, module)
        value, _status = simulator.run(entry, args)
        assert value == expected.return_value, (
            target_name, value, expected.return_value)
        assert simulator.output_text() == expected.output, target_name
    return expected


class TestDifferential:
    def test_factorial(self):
        _differential(build_factorial())

    def test_loops_arrays_phis(self):
        _differential(build_loop_sum(30))

    def test_float_math(self):
        _differential("""
        declare void %print_double(double)
        double %main() {
        entry:
                %a = add double 1.25, 2.5
                %b = mul double %a, %a
                %c = div double %b, 3.0
                %d = sub double %c, 0.125
                call void %print_double(double %d)
                ret double %d
        }
        """)

    def test_many_arguments_spill_to_stack(self):
        """More args than any register convention holds: exercises both
        PUSH-based passing and the callee's incoming-slot reads."""
        _differential("""
        int %sum8(int %a, int %b, int %c, int %d,
                  int %e, int %f, int %g, int %h) {
        entry:
                %s1 = add int %a, %b
                %s2 = add int %s1, %c
                %s3 = add int %s2, %d
                %s4 = add int %s3, %e
                %s5 = add int %s4, %f
                %s6 = add int %s5, %g
                %s7 = add int %s6, %h
                ret int %s7
        }
        int %main() {
        entry:
                %r = call int %sum8(int 1, int 2, int 3, int 4,
                                    int 5, int 6, int 7, int 8)
                ret int %r
        }
        """)

    def test_indirect_calls_through_table(self):
        _differential("""
        %ops = constant [2 x int (int)*] [ int (int)* %double_it,
                                           int (int)* %negate ]
        int %double_it(int %x) {
        entry:
                %r = mul int %x, 2
                ret int %r
        }
        int %negate(int %x) {
        entry:
                %r = sub int 0, %x
                ret int %r
        }
        int %main() {
        entry:
                %p0 = getelementptr [2 x int (int)*]* %ops, long 0, long 0
                %f0 = load int (int)** %p0
                %p1 = getelementptr [2 x int (int)*]* %ops, long 0, long 1
                %f1 = load int (int)** %p1
                %a = call int %f0(int 21)
                %b = call int %f1(int 2)
                %r = add int %a, %b
                ret int %r
        }
        """)

    def test_invoke_unwind_native(self):
        _differential("""
        int %thrower(int %x) {
        entry:
                %bad = setgt int %x, 5
                br bool %bad, label %t, label %f
        t:
                unwind
        f:
                ret int %x
        }
        int %main() {
        entry:
                %a = invoke int %thrower(int 3) to label %ok1
                      unwind label %h1
        ok1:
                %b = invoke int %thrower(int 9) to label %ok2
                      unwind label %h2
        ok2:
                ret int 0
        h1:
                ret int -1
        h2:
                %r = add int %a, 100
                ret int %r
        }
        """)

    def test_recursion_and_globals(self):
        _differential("""
        %depth_seen = global int 0
        int %probe(int %n) {
        entry:
                %cur = load int* %depth_seen
                %more = setgt int %n, %cur
                br bool %more, label %bump, label %go
        bump:
                store int %n, int* %depth_seen
                br label %go
        go:
                %z = seteq int %n, 0
                br bool %z, label %stop, label %rec
        stop:
                ret int 0
        rec:
                %m = sub int %n, 1
                %r = call int %probe(int %m)
                ret int %r
        }
        int %main() {
        entry:
                %x = call int %probe(int 40)
                %d = load int* %depth_seen
                ret int %d
        }
        """)

    def test_dynamic_alloca(self):
        _differential("""
        int %main() {
        entry:
                %n = add uint 6, 0
                %buf = alloca int, uint %n
                %p2 = getelementptr int* %buf, long 2
                store int 55, int* %p2
                %v = load int* %p2
                ret int %v
        }
        """)

    def test_masked_exceptions_native(self):
        """The ExceptionsEnabled contract holds in translated code."""
        _differential("""
        int %main() {
        entry:
                %q = div int 5, 0 !ee(false)
                %p = cast ulong 64 to int*
                %v = load int* %p !ee(false)
                %r = add int %q, %v
                ret int %r
        }
        """)

    def test_enabled_trap_propagates_native(self):
        module = parse_module("""
        int %main() {
        entry:
                %q = div int 5, 0
                ret int %q
        }
        """)
        for target_name in TARGETS:
            native = translate_module(module, make_target(target_name))
            simulator = MachineSimulator(native, module)
            with pytest.raises(ExecutionTrap):
                simulator.run("main")

    def test_both_endiannesses_execute_same_program(self):
        source = """
        int %main() {
        entry:
                %slot = alloca uint
                store uint 305419896, uint* %slot
                %bytes = cast uint* %slot to ubyte*
                %b0 = load ubyte* %bytes
                %r = cast ubyte %b0 to int
                ret int %r
        }
        """
        module = parse_module(source)
        x86 = translate_module(module, make_target("x86"))
        x86_sim = MachineSimulator(x86, module)
        assert x86_sim.run("main")[0] == 0x78  # little-endian
        module_be = parse_module("target endian = big\n" + source)
        sparc = translate_module(module_be, make_target("sparc"))
        sparc_sim = MachineSimulator(sparc, module_be)
        assert sparc_sim.run("main")[0] == 0x12  # big-endian


class TestLoweringDetails:
    def test_split_critical_edges(self):
        """The phi copy for the critical edge entry->merge goes in a
        forwarding machine block before ``merge``; the LLVA function
        keeps its three blocks."""
        module = parse_module("""
        int %f(bool %c) {
        entry:
                br bool %c, label %merge, label %side
        side:
                br label %merge
        merge:
                %v = phi int [ 1, %entry ], [ 2, %side ]
                ret int %v
        }
        """)
        before = print_module(module)
        f = module.get_function("f")
        machine = FunctionLowering(f, make_target("x86")).lower()
        assert [block.name for block in machine.blocks] \
            == ["entry", "side", "entry.merge.crit", "merge"]
        jcc, jmp = machine.blocks[0].instructions[-2:]
        assert jcc.operands[1] == LabelRef("entry.merge.crit")
        assert jmp.operands[0] == LabelRef("side")
        copy, forward = machine.blocks[2].instructions
        assert copy.semantics == Semantics.MOV \
            and copy.operands[1] == Imm(1)
        assert forward.semantics == Semantics.JMP \
            and forward.operands[0] == LabelRef("merge")
        assert print_module(module) == before
        assert [_differential(module, "f", [c]).return_value
                for c in (True, False)] == [1, 2]

    def test_both_arms_to_one_block_get_a_forwarding_block_each(self):
        """Both slots of ``br`` name ``join``: each edge is split, and
        the second forwarding block's name takes a ``.1``."""
        module = parse_module("""
        int %f(bool %c) {
        entry:
                br bool %c, label %join, label %join
        join:
                %v = phi int [ 7, %entry ]
                ret int %v
        }
        """)
        before = print_module(module)
        machine = FunctionLowering(module.get_function("f"),
                                   make_target("sparc")).lower()
        assert [block.name for block in machine.blocks] \
            == ["entry", "entry.join.crit", "entry.join.crit.1", "join"]
        for block in machine.blocks[1:3]:
            assert [instr.operands[-1] for instr in block.instructions] \
                == [Imm(7), LabelRef("join")]
        assert print_module(module) == before
        assert _differential(module, "f", [True]).return_value == 7

    def test_mbr_and_invoke_edges_carry_their_phi_copies(self):
        """Every label slot of ``mbr`` (two cases share one) and both
        edges of ``invoke`` feed phis over critical edges; each edge
        must deliver its own value on both targets."""
        module = parse_module("""
        int %thrower(int %x) {
        entry:
                %bad = setgt int %x, 5
                br bool %bad, label %t, label %f
        t:
                unwind
        f:
                ret int %x
        }
        int %pick(int %x) {
        entry:
                mbr int %x, label %join, [ int 1, label %join ],
                    [ int 2, label %two ], [ int 3, label %join ]
        two:
                br label %join
        join:
                %v = phi int [ 7, %entry ], [ 20, %two ]
                %w = invoke int %thrower(int %x) to label %done
                      unwind label %done
        done:
                %r = phi int [ %v, %join ]
                ret int %r
        }
        """)
        before = print_module(module)
        for x in (0, 1, 2, 3, 9):
            _differential(module, "pick", [x])
        assert print_module(module) == before

    def test_static_allocas_are_frame_slots(self):
        """Section 3.2: 'the translator preallocates all fixed-size
        alloca objects in the function's stack frame' — so no ADJSP
        appears for them."""
        module = parse_module("""
        int %f() {
        entry:
                %a = alloca int
                %b = alloca [10 x double]
                store int 1, int* %a
                %v = load int* %a
                ret int %v
        }
        """)
        machine = make_target("x86").translate_function(
            module.get_function("f"))
        assert machine.frame_size >= 4 + 80
        semantics = [i.semantics for i in machine.instructions()]
        assert Semantics.ADJSP not in semantics

    def test_dynamic_alloca_adjusts_sp(self):
        module = parse_module("""
        int* %f(uint %n) {
        entry:
                %a = alloca int, uint %n
                ret int* %a
        }
        """)
        machine = make_target("x86").translate_function(
            module.get_function("f"))
        semantics = [i.semantics for i in machine.instructions()]
        assert Semantics.ADJSP in semantics

    def test_phi_becomes_predecessor_copies(self):
        """Section 3.1: 'the translator eliminates the φ-nodes by
        introducing copy operations into predecessor basic blocks'."""
        module = build_loop_sum(5)
        machine = make_target("sparc").translate_function(
            module.get_function("main"))
        movs = [i for i in machine.instructions()
                if i.semantics == Semantics.MOV]
        assert movs  # the loop phis turned into copies

    def test_x86_folds_memory_operands(self):
        module = build_factorial()
        machine = make_target("x86").translate_function(
            module.get_function("fac"))
        from repro.targets.machine import Mem
        folded = [
            i for i in machine.instructions()
            if i.semantics in (Semantics.ALU, Semantics.CMP)
            and any(isinstance(op, Mem) for op in i.operands)
        ]
        assert folded, "x86 should fold stack slots into ALU operands"

    def test_sparc_has_no_alu_memory_operands(self):
        module = build_factorial()
        machine = make_target("sparc").translate_function(
            module.get_function("fac"))
        from repro.targets.machine import Mem
        for instr in machine.instructions():
            if instr.semantics == Semantics.ALU:
                assert not any(isinstance(op, Mem)
                               for op in instr.operands), instr

    def test_sparc_delay_slots(self):
        module = build_factorial()
        machine = make_target("sparc").translate_function(
            module.get_function("fac"))
        instructions = list(machine.instructions())
        for index, instr in enumerate(instructions):
            if instr.semantics in (Semantics.JCC, Semantics.CALL):
                assert instructions[index + 1].mnemonic == "nop", instr

    def test_fixed_vs_variable_encoding(self):
        module = build_factorial()
        sparc = make_target("sparc").translate_function(
            module.get_function("fac"))
        assert sparc.code_size() == 4 * sparc.num_instructions()
        x86 = make_target("x86").translate_function(
            module.get_function("fac"))
        sizes = {make_target("x86").encoded_size(i)
                 for i in x86.instructions()}
        assert len(sizes) > 1  # variable-length


class TestNativeSerialization:
    def test_round_trip_and_execute(self):
        from repro.targets import deserialize_native, serialize_native

        module = build_factorial()
        target = make_target("x86")
        native = translate_module(module, target)
        data = serialize_native(native)
        restored = deserialize_native(data, target)
        assert restored.num_instructions() == native.num_instructions()
        simulator = MachineSimulator(restored, module)
        assert simulator.run("main")[0] == 3628800

    def test_wrong_target_rejected(self):
        from repro.targets import deserialize_native, serialize_native

        module = build_factorial()
        native = translate_module(module, make_target("x86"))
        data = serialize_native(native)
        with pytest.raises(ValueError):
            deserialize_native(data, make_target("sparc"))

    #: (function, the immediate it returns, its move's ``ee`` attr):
    #: values that compare equal but are not the same value.
    IMMEDIATES = (
        ("one_int", 1, 1),
        ("one_float", 1.0, True),
        ("one_bool", True, 1.0),
        ("zero", 0.0, 0),
        ("negative_zero", -0.0, False),
        ("nan", float("nan"), -0.0),
        ("zero_again", 0.0, 0.0),
    )

    @pytest.mark.parametrize("target_name", TARGETS)
    def test_loader_keeps_equal_values_apart(self, target_name):
        """The loader shares each distinct record once per module, so
        it must not take 1.0 or true for 1, or -0.0 for 0.0."""
        import math

        from repro.ir import types
        from repro.targets import (NativeModule, deserialize_native,
                                   serialize_native)
        from repro.targets.machine import (Imm, MachineFunction,
                                           MachineInstr, PhysReg)

        target = make_target(target_name)
        native = NativeModule(target, "immediates")
        for name, value, ee in self.IMMEDIATES:
            machine = MachineFunction(name, target)
            block = machine.add_block("entry")
            block.append(MachineInstr(
                "mov", Semantics.MOV,
                [PhysReg(target.return_reg), Imm(value)],
                value_type=types.DOUBLE, ee=ee))
            block.append(MachineInstr("ret", Semantics.RET))
            native.add_function(machine)
        data = serialize_native(native)
        restored = deserialize_native(data, target)
        assert serialize_native(restored) == data
        module = parse_module("\n".join(
            "double %{0}() {{\nentry:\n ret double 0.0\n}}".format(name)
            for name, _value, _ee in self.IMMEDIATES))
        returned = {name: MachineSimulator(restored, module).run(name)[0]
                    for name, _value, _ee in self.IMMEDIATES}
        assert type(returned["one_int"]) is int
        assert type(returned["one_float"]) is float
        assert returned["one_bool"] is True
        assert returned["one_int"] == returned["one_float"] == 1
        assert math.copysign(1.0, returned["zero"]) == 1.0
        assert math.copysign(1.0, returned["negative_zero"]) == -1.0
        assert math.copysign(1.0, returned["zero_again"]) == 1.0
        assert math.isnan(returned["nan"])
        attrs = [f.blocks[0].instructions[0].attrs["ee"]
                 for f in restored.functions.values()]
        assert [(type(a), repr(a)) for a in attrs] \
            == [(type(ee), repr(ee)) for _n, _v, ee in self.IMMEDIATES]


class TestJITLaziness:
    def test_untranslated_functions_resolve_on_demand(self):
        module = build_factorial()
        target = make_target("sparc")
        jit = FunctionJIT(module, target)
        from repro.targets import NativeModule

        native = NativeModule(target, module.name)
        simulator = MachineSimulator(native, module,
                                     resolver=jit.translate)
        value, _ = simulator.run("main")
        assert value == 3628800
        assert jit.stats.functions_translated == 2  # main + fac
