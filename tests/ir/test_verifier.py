"""Verifier tests: every structural rule must be enforced."""

import pytest

from repro.ir import IRBuilder, Module, types, verify_module
from repro.ir import instructions as insts
from repro.ir.values import const_bool, const_int
from repro.ir.verifier import VerificationError


def _module_with_main():
    module = Module("v")
    f = module.create_function("main", types.function_of(types.INT, []))
    return module, f


def _expect_error(module, fragment):
    with pytest.raises(VerificationError) as info:
        verify_module(module)
    assert fragment in str(info.value), str(info.value)


class TestBlockRules:
    def test_missing_terminator(self):
        module, f = _module_with_main()
        block = f.add_block("entry")
        b = IRBuilder(block)
        b.add(const_int(types.INT, 1), const_int(types.INT, 2))
        _expect_error(module, "does not end in a terminator")

    def test_empty_block(self):
        module, f = _module_with_main()
        entry = f.add_block("entry")
        IRBuilder(entry).ret(const_int(types.INT, 0))
        f.add_block("empty")
        _expect_error(module, "empty block")

    def test_terminator_mid_block(self):
        module, f = _module_with_main()
        entry = f.add_block("entry")
        ret1 = insts.RetInst(const_int(types.INT, 1))
        ret2 = insts.RetInst(const_int(types.INT, 2))
        entry.instructions.extend([ret1, ret2])
        ret1.parent = entry
        ret2.parent = entry
        _expect_error(module, "terminator in mid-block")

    def test_body_required(self):
        # A function without blocks is a declaration to verify_module,
        # but verifying it directly demands a body.
        from repro.ir import verify_function
        module, f = _module_with_main()
        with pytest.raises(VerificationError) as info:
            verify_function(f)
        assert "no basic blocks" in str(info.value)

    def test_entry_with_predecessor(self):
        module, f = _module_with_main()
        entry = f.add_block("entry")
        other = f.add_block("other")
        b = IRBuilder(entry)
        b.br(other)
        b.set_block(other)
        b.br(entry)
        _expect_error(module, "entry block has predecessors")


class TestReturnRules:
    def test_ret_type_mismatch(self):
        module, f = _module_with_main()
        entry = f.add_block("entry")
        IRBuilder(entry).ret(const_int(types.LONG, 0))
        _expect_error(module, "ret type")

    def test_ret_void_in_valued_function(self):
        module, f = _module_with_main()
        entry = f.add_block("entry")
        IRBuilder(entry).ret()
        _expect_error(module, "ret void in non-void")


class TestPhiRules:
    def test_phi_incoming_must_match_predecessors(self):
        module, f = _module_with_main()
        entry = f.add_block("entry")
        merge = f.add_block("merge")
        b = IRBuilder(entry)
        b.br(merge)
        b.set_block(merge)
        phi = b.phi(types.INT)  # no incoming at all
        b.ret(phi)
        _expect_error(module, "phi")

    def test_phi_after_non_phi(self):
        module, f = _module_with_main()
        entry = f.add_block("entry")
        b = IRBuilder(entry)
        v = b.add(const_int(types.INT, 1), const_int(types.INT, 2))
        phi = insts.PhiInst(types.INT)
        entry.instructions.append(phi)
        phi.parent = entry
        b.ret(v)
        _expect_error(module, "phi after non-phi")


class TestSSARules:
    def test_use_before_def_in_block(self):
        module, f = _module_with_main()
        entry = f.add_block("entry")
        b = IRBuilder(entry)
        one = const_int(types.INT, 1)
        first = insts.AddInst(one, one, "first")
        second = insts.AddInst(one, one, "second")
        # first uses second, but second comes later.
        entry.append(first)
        entry.append(second)
        first.set_operand(0, second)
        b.set_block(entry)
        b.ret(first)
        _expect_error(module, "SSA violation")

    def test_use_not_dominated_across_blocks(self):
        module, f = _module_with_main()
        entry = f.add_block("entry")
        left = f.add_block("left")
        right = f.add_block("right")
        merge = f.add_block("merge")
        b = IRBuilder(entry)
        b.cond_br(const_bool(True), left, right)
        b.set_block(left)
        lv = b.add(const_int(types.INT, 1), const_int(types.INT, 2))
        b.br(merge)
        b.set_block(right)
        b.br(merge)
        b.set_block(merge)
        b.ret(lv)  # lv does not dominate merge
        _expect_error(module, "SSA violation")

    def test_valid_module_verifies(self):
        module, f = _module_with_main()
        entry = f.add_block("entry")
        IRBuilder(entry).ret(const_int(types.INT, 0))
        verify_module(module)  # should not raise


class TestUseChainChecks:
    def test_corrupted_use_list_detected(self):
        module, f = _module_with_main()
        entry = f.add_block("entry")
        b = IRBuilder(entry)
        v = b.add(const_int(types.INT, 1), const_int(types.INT, 2))
        w = b.mul(v, const_int(types.INT, 3))
        b.ret(v)
        ret = entry.terminator
        # Corrupt: bypass set_operand.  The new operand must be a value
        # that records uses; interned constants keep no use list.
        ret._operands[0] = w
        _expect_error(module, "missing from use list")

    def test_corrupted_global_use_list_detected(self):
        module, f = _module_with_main()
        signature = types.function_of(types.INT, [])
        g = module.create_function("g", signature)
        h = module.create_function("h", signature)
        entry = f.add_block("entry")
        b = IRBuilder(entry)
        call = b.call(g)
        b.ret(call)
        # Corrupt: swap the callee without set_operand.  Functions are
        # constants, but global symbols keep their uses.
        call._operands[0] = h
        _expect_error(module, "missing from use list")
