"""Machine-simulator internals: cycle model, frames, argument slots."""

import pytest

from repro.asm import parse_module
from repro.execution import ExecutionTrap, Interpreter
from repro.execution.machine_sim import CYCLES, MachineSimulator
from repro.ir import verify_module
from repro.targets import make_target, translate_module
from repro.targets.machine import Semantics


def _simulate(source: str, target_name="x86", entry="main", args=()):
    module = parse_module(source)
    verify_module(module)
    native = translate_module(module, make_target(target_name))
    simulator = MachineSimulator(native, module)
    value, status = simulator.run(entry, args)
    return simulator, value


class TestCycleModel:
    def test_loads_cost_more_than_moves(self):
        assert CYCLES[Semantics.LOAD] > CYCLES[Semantics.MOV]
        assert CYCLES[Semantics.CALL] > CYCLES[Semantics.JMP]

    def test_cycles_scale_with_work(self):
        template = """
        int %main() {{
        entry:
                br label %loop
        loop:
                %i = phi int [ 0, %entry ], [ %i2, %loop ]
                %i2 = add int %i, 1
                %c = setlt int %i2, {0}
                br bool %c, label %loop, label %done
        done:
                ret int %i2
        }}
        """
        short_sim, _ = _simulate(template.format(10))
        long_sim, _ = _simulate(template.format(100))
        assert long_sim.cycles > short_sim.cycles * 5

    def test_division_is_expensive(self):
        div_sim, _ = _simulate("""
        int %main() {
        entry:
                %a = div int 1000, 7
                ret int %a
        }
        """)
        add_sim, _ = _simulate("""
        int %main() {
        entry:
                %a = add int 1000, 7
                ret int %a
        }
        """)
        assert div_sim.cycles > add_sim.cycles

    def test_deterministic_cycles(self):
        source = """
        int %main() {
        entry:
                %a = mul int 6, 7
                ret int %a
        }
        """
        first, _ = _simulate(source)
        second, _ = _simulate(source)
        assert first.cycles == second.cycles

    def test_cycle_budget(self):
        module = parse_module("""
        int %main() {
        entry:
                br label %spin
        spin:
                br label %spin
        }
        """)
        native = translate_module(module, make_target("x86"))
        simulator = MachineSimulator(native, module, max_cycles=5000)
        with pytest.raises(ExecutionTrap):
            simulator.run("main")

    def test_cycle_budget_exact_boundary(self):
        """A budget of N means N cycles may be *spent*: a run costing
        exactly N completes, a budget of N-1 traps, and the trapped
        simulator never charges past its budget."""
        source = """
        int %main() {
        entry:
                %a = mul int 6, 7
                %b = add int %a, 1
                ret int %b
        }
        """
        full, _ = _simulate(source)
        total = full.cycles

        module = parse_module(source)
        verify_module(module)
        native = translate_module(module, make_target("x86"))
        exact = MachineSimulator(native, module, max_cycles=total)
        value, _status = exact.run("main")
        assert value == 43
        assert exact.cycles == total

        short = MachineSimulator(native, module, max_cycles=total - 1)
        with pytest.raises(ExecutionTrap):
            short.run("main")
        assert short.cycles <= total - 1


class TestTrapDetailParity:
    """Simulator faults carry the same kind + detail strings as the
    interpreter engines, so trap reports are byte-identical whether a
    program faults in tier 1, tier 2, tier 3, or under --target."""

    DIV = """
    int %main() {
    entry:
            %q = div int 9, 0
            ret int %q
    }
    """
    OVERFLOW = """
    int %main() {
    entry:
            %r = add int 2147483647, 1 !ee(true)
            ret int %r
    }
    """

    def _interpreter_trap(self, source):
        module = parse_module(source)
        verify_module(module)
        with pytest.raises(ExecutionTrap) as info:
            Interpreter(module).run("main", [])
        return info.value

    def _simulator_trap(self, source, target_name):
        module = parse_module(source)
        verify_module(module)
        native = translate_module(module, make_target(target_name))
        simulator = MachineSimulator(native, module)
        with pytest.raises(ExecutionTrap) as info:
            simulator.run("main")
        return info.value

    @pytest.mark.parametrize("target", ("x86", "sparc"))
    @pytest.mark.parametrize("source", (DIV, OVERFLOW),
                             ids=("div", "overflow"))
    def test_fault_reports_identical(self, source, target):
        expected = self._interpreter_trap(source)
        got = self._simulator_trap(source, target)
        assert got.trap_number == expected.trap_number
        assert got.detail == expected.detail
        assert str(got) == str(expected)


class TestFramesAndArguments:
    def test_frame_isolation_across_recursion(self):
        """Each frame's slots are private: recursion over locals."""
        source = """
        int %sum_to(int %n) {
        entry:
                %slot = alloca int
                store int %n, int* %slot
                %z = seteq int %n, 0
                br bool %z, label %stop, label %rec
        stop:
                ret int 0
        rec:
                %m = sub int %n, 1
                %rest = call int %sum_to(int %m)
                %mine = load int* %slot
                %r = add int %mine, %rest
                ret int %r
        }
        """
        for target_name in ("x86", "sparc"):
            simulator, value = _simulate(source, target_name, "sum_to",
                                         [10])
            assert value == 55, target_name

    def test_run_arguments_cross_both_conventions(self):
        source = """
        int %pick(int %a, int %b, int %c, int %d, int %e, int %f,
                  int %g, int %h, int %i) {
        entry:
                %x = sub int %i, %a
                ret int %x
        }
        """
        args = [10, 0, 0, 0, 0, 0, 0, 0, 99]
        for target_name in ("x86", "sparc"):
            _sim, value = _simulate(source, target_name, "pick", args)
            assert value == 89, target_name

    def test_negative_arguments_through_stack_slots(self):
        """Stack argument slots are signed-widened consistently — the
        big-endian SPARC path is the regression risk here."""
        source = """
        long %tail(long %a, long %b, long %c, long %d, long %e,
                   long %f, long %g, long %h) {
        entry:
                %x = add long %g, %h
                ret long %x
        }
        """
        args = [0, 0, 0, 0, 0, 0, -1000000, 7]
        for target_name in ("x86", "sparc"):
            _sim, value = _simulate(source, target_name, "tail", args)
            assert value == -999993, target_name

    def test_instruction_counter(self):
        simulator, _ = _simulate("""
        int %main() {
        entry:
                ret int 0
        }
        """)
        assert simulator.instructions_executed >= 2  # mov + ret


class TestInstrCostMemo:
    LOOP = """
    int %main() {
    entry:
            br label %loop
    loop:
            %i = phi int [0, %entry], [%next, %loop]
            %next = add int %i, 1
            %done = setge int %next, 300
            br bool %done, label %exit, label %loop
    exit:
            ret int %next
    }
    """

    def test_cost_memoized_on_instruction(self, monkeypatch):
        """The cycle cost is worked out once per decoded instruction and
        kept in its op, ``(cost, run, *operands)`` — no opcode
        re-dispatch per executed cycle."""
        from repro.execution import machine_sim
        from repro.execution.machine_sim import instr_cost
        from repro.targets.machine import MachineInstr

        instr = MachineInstr("addl", Semantics.ALU, [])
        assert instr_cost(instr) > 0
        costed = []

        def counting(instr):
            costed.append(instr)
            return instr_cost(instr)
        monkeypatch.setattr(machine_sim, "instr_cost", counting)
        for target_name in ("x86", "sparc"):
            del costed[:]
            simulator, value = _simulate(self.LOOP, target_name)
            assert value == 300
            assert len(costed) == len(set(map(id, costed)))
            assert simulator.instructions_executed > 50 * len(costed)

    def test_fresh_instruction_has_no_cost(self):
        """Instructions carry no cost: it lives in the decoded code, so
        building or loading machine code never pays for it."""
        from repro.targets.machine import MachineInstr

        assert not hasattr(MachineInstr("nop", Semantics.NOP), "cost")


class TestFrameEntryHoisting:
    """The simulator reads the machine-function attributes it needs
    once per function; the step loop must never chase
    ``<machine function>.<attr>`` per executed instruction."""

    LOOP = """
    int %spin(int %n) {
    entry:
            br label %loop
    loop:
            %i = phi int [0, %entry], [%next, %loop]
            %next = add int %i, 1
            %done = setge int %next, %n
            br bool %done, label %exit, label %loop
    exit:
            ret int %next
    }
    int %main() {
    entry:
            %a = call int %spin(int 200)
            %b = call int %spin(int 200)
            %r = add int %a, %b
            ret int %r
    }
    """

    class _CountingMachine:
        """Attribute-access-counting proxy around a MachineFunction."""

        def __init__(self, machine):
            object.__setattr__(self, "_machine", machine)
            object.__setattr__(self, "reads", {})

        def __getattr__(self, name):
            reads = object.__getattribute__(self, "reads")
            reads[name] = reads.get(name, 0) + 1
            return getattr(object.__getattribute__(self, "_machine"),
                           name)

    def test_no_per_step_machine_attribute_chasing(self):
        module = parse_module(self.LOOP)
        verify_module(module)
        native = translate_module(module, make_target("x86"))
        counting = self._CountingMachine(native.functions["spin"])
        native.functions["spin"] = counting
        simulator = MachineSimulator(native, module)
        value, _status = simulator.run("main")
        assert value == 400
        # %spin executes ~1200 instructions across two activations;
        # machine-function attribute reads must scale with the two
        # frame entries (plus the per-call SMC staleness check), not
        # with the step count.
        assert simulator.instructions_executed > 1000
        reads = counting.reads
        assert reads.get("blocks", 0) <= 6, reads
        assert reads.get("frame_size", 0) <= 6, reads


class TestStaleTranslationDetection:
    def test_smc_version_mismatch_forces_retranslation(self):
        module = parse_module("""
        int %f() {
        entry:
                ret int 1
        }
        int %g() {
        entry:
                ret int 2
        }
        int %main() {
        entry:
                %r = call int %f()
                ret int %r
        }
        """)
        from repro.llee.jit import FunctionJIT
        from repro.targets import NativeModule

        target = make_target("x86")
        jit = FunctionJIT(module, target)
        native = jit.translate_all()
        # Host-side SMC between runs.
        module.get_function("f").replace_body_from(
            module.get_function("g"))
        simulator = MachineSimulator(native, module,
                                     resolver=jit.translate)
        value, _ = simulator.run("main")
        assert value == 2  # stale translation detected, retranslated


def _translated(source: str, target_name: str):
    module = parse_module(source)
    verify_module(module)
    return module, translate_module(module, make_target(target_name))


TARGETS = ("x86", "sparc")


class TestDecodedLoopContract:
    """The decoded loop keeps the contract of the loop it replaced:
    the figures pinned here were read from that loop."""

    STRAIGHT = """
    int %main() {
    entry:
            %a = mul int 6, 7
            %b = add int %a, 1
            %c = mul int %b, 3
            %d = sub int %c, 2
            %e = div int %d, 5
            ret int %e
    }
    """

    @pytest.mark.parametrize("target_name,budget,cycles,executed", [
        ("x86", 29, 28, 12), ("x86", 19, 19, 8),
        ("sparc", 19, 14, 10), ("sparc", 12, 12, 8),
    ])
    def test_budget_runs_out_inside_a_block(self, target_name, budget,
                                            cycles, executed):
        module, native = _translated(self.STRAIGHT, target_name)
        assert len(native.functions["main"].blocks) == 1
        simulator = MachineSimulator(native, module, max_cycles=budget)
        with pytest.raises(ExecutionTrap) as info:
            simulator.run("main")
        assert info.value.detail == "cycle budget exhausted"
        assert (simulator.cycles, simulator.instructions_executed) \
            == (cycles, executed)

    @pytest.mark.parametrize("target_name", TARGETS)
    def test_masked_faults(self, target_name):
        """``!ee(false)``: a faulting load yields zero and a faulting
        store is dropped; neither traps."""
        module, native = _translated("""
        int %main() {
        entry:
                %p = cast ulong 64 to int*
                %v = load int* %p !ee(false)
                store int 5, int* %p !ee(false)
                %r = add int %v, 7
                ret int %r
        }
        """, target_name)
        simulator = MachineSimulator(native, module)
        assert simulator.run("main") == (7, 0)

    @pytest.mark.parametrize("target_name", TARGETS)
    def test_fell_off_the_end_of_a_block(self, target_name):
        module, native = _translated("""
        int %main() {
        entry:
                ret int 0
        }
        """, target_name)
        last = native.functions["main"].blocks[-1]
        last.instructions = [instr for instr in last.instructions
                             if instr.semantics != Semantics.RET]
        simulator = MachineSimulator(native, module)
        with pytest.raises(ExecutionTrap) as info:
            simulator.run("main")
        assert info.value.detail == \
            "fell off the end of block {0} in main".format(last.name)

    @staticmethod
    def _malformed(kind: str, target_name: str):
        from repro.targets.machine import (LabelRef, MachineInstr, PhysReg,
                                           SymRef)
        from repro.ir import types

        return {
            "label": MachineInstr("jmp", Semantics.JMP,
                                  [LabelRef("nowhere")]),
            "semantics": MachineInstr("bogus", "bogus"),
            "symbol": MachineInstr(
                "movl", Semantics.MOV,
                [PhysReg(make_target(target_name).return_reg),
                 SymRef("missing")], value_type=types.INT),
        }[kind]

    FAULTS = {
        "label": (ExecutionTrap, "jump to unknown label nowhere"),
        "semantics": (ExecutionTrap, "unknown semantics 'bogus'"),
        "symbol": (KeyError, "no symbol 'missing' in image"),
    }

    @pytest.mark.parametrize("kind", sorted(FAULTS))
    @pytest.mark.parametrize("target_name", TARGETS)
    def test_malformed_instruction_faults_only_when_run(self, target_name,
                                                        kind):
        source = """
        int %main() {
        entry:
                ret int 7
        }
        """
        module, native = _translated(source, target_name)
        # After the return: decoded with its block, never executed.
        block = native.functions["main"].blocks[-1]
        block.append(self._malformed(kind, target_name))
        assert MachineSimulator(native, module).run("main") == (7, 0)
        # First in the block: it runs, and faults as it always did.
        block.instructions.insert(0, block.instructions.pop())
        error, message = self.FAULTS[kind]
        with pytest.raises(error) as info:
            MachineSimulator(native, module).run("main")
        assert message in str(info.value)

    SMC = """
    declare void %llva.smc.replace(sbyte*, sbyte*)
    int %f() {
    entry:
            %old = cast int ()* %f to sbyte*
            %new = cast int ()* %g to sbyte*
            call void %llva.smc.replace(sbyte* %old, sbyte* %new)
            ret int 1
    }
    int %g() {
    entry:
            ret int 2
    }
    int %main() {
    entry:
            %a = call int %f()
            %b = call int %f()
            %tens = mul int %a, 10
            %r = add int %tens, %b
            ret int %r
    }
    """

    @pytest.mark.parametrize("target_name", TARGETS)
    def test_smc_replace_during_a_run(self, target_name):
        """The active frame finishes the code it started with (1); the
        next call runs the new translation (2)."""
        from repro.bitcode import write_module
        from repro.llee import LLEE

        assert Interpreter(parse_module(self.SMC)).run("main") \
            .return_value == 12
        code = write_module(parse_module(self.SMC))
        report = LLEE(make_target(target_name)).run_executable(code)
        assert report.return_value == 12
        assert report.functions_jitted == 3  # main, f, f's new body
