"""Interned constants keep no use lists; global symbols keep theirs.

``const_int`` and the other interned constants are shared by every
module in the process.  If they recorded their uses, every module ever
built would stay reachable from the intern tables, and use-list walks
would grow with the age of the process.
"""

import gc
import weakref

import pytest

from repro.asm import parse_module
from repro.benchsuite import load_workload
from repro.bitcode import read_module, write_module
from repro.ir import IRBuilder, Module, instructions as insts, types
from repro.ir.values import FALSE, TRUE, const_int, const_null, \
    const_undef, const_zero
from repro.llee.jit import FunctionJIT
from repro.minic import compile_source
from repro.targets import make_target
from repro.transforms import GlobalOptimizer


@pytest.fixture(scope="module")
def ft_source():
    # ft uses bool true and bool false as well as integer constants.
    return load_workload("ft", 0.01).source


def _collected(make_module):
    ref = weakref.ref(make_module())
    gc.collect()
    return ref() is None


class TestDroppedModulesAreCollected:
    def test_compiled_module(self, ft_source):
        assert _collected(lambda: compile_source(
            ft_source, "ft", optimization_level=2))

    def test_read_module(self, ft_source):
        object_code = write_module(compile_source(
            ft_source, "ft", optimization_level=2))
        assert _collected(lambda: read_module(object_code))

    def test_module_after_native_translation(self, ft_source):
        def translated():
            module = compile_source(ft_source, "ft", optimization_level=2)
            FunctionJIT(module, make_target("x86")).translate_all()
            return module

        assert _collected(translated)


class TestInternedConstants:
    def test_no_uses_after_building_a_program(self, ft_source):
        module = compile_source(ft_source, "ft", optimization_level=2)
        operands = {id(op) for f in module.functions.values()
                    for inst in f.instructions() for op in inst.operands}
        assert id(const_int(types.INT, 0)) in operands
        assert id(TRUE) in operands and id(FALSE) in operands
        for constant in (const_int(types.INT, 0), TRUE, FALSE,
                         const_null(types.pointer_to(types.INT)),
                         const_undef(types.INT),
                         const_zero(types.array_of(types.INT, 2))):
            assert constant.uses == []
            assert not constant.has_uses()

    def test_replace_all_uses_with_is_rejected(self):
        module = Module("m")
        f = module.create_function("main", types.function_of(types.INT, []))
        b = IRBuilder(f.add_block("entry"))
        constant = const_int(types.INT, 40775)
        total = b.add(constant, const_int(types.INT, 1))
        b.ret(total)
        with pytest.raises(TypeError):
            constant.replace_all_uses_with(const_int(types.INT, 2))
        assert total.operand(0) is constant


class TestGlobalSymbolsKeepUses:
    SOURCE = """
    internal int %helper(int %x) {
    entry:
            %r = add int %x, 1
            ret int %r
    }
    int %main() {
    entry:
            %a = call int %helper(int 1)
            %b = call int %helper(int %a)
            ret int %b
    }
    """

    def test_function_lists_its_call_sites(self):
        module = parse_module(self.SOURCE)
        helper = module.get_function("helper")
        calls = [inst for inst in module.get_function("main").instructions()
                 if isinstance(inst, insts.CallInst)]
        assert [use.user for use in helper.uses] == calls
        assert all(use.index == 0 for use in helper.uses)

    def test_globalopt_deletes_helper_once_uncalled(self):
        module = parse_module(self.SOURCE)
        GlobalOptimizer().run_module(module)
        assert "helper" in module.functions
        main = module.get_function("main")
        a, b = [inst for inst in main.instructions()
                if isinstance(inst, insts.CallInst)]
        b.replace_all_uses_with(const_int(types.INT, 0))
        b.erase()
        a.erase()
        GlobalOptimizer().run_module(module)
        assert "helper" not in module.functions
