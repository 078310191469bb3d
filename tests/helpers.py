"""Shared module-building helpers for the test suite."""

from __future__ import annotations

from typing import Tuple

from repro.ir import IRBuilder, Module, types
from repro.ir.module import Function
from repro.ir.values import const_fp, const_int, const_null


#: LLVA assembly: ``main(n)`` replaces ``f`` by ``g`` with
#: ``llva.smc.replace`` before calling it when n != 0, so it returns 3
#: for n == 0 and 100 otherwise, and traps for n == 2 once it has
#: replaced ``f``.
SMC_PROGRAM = """
declare void %llva.smc.replace(sbyte*, sbyte*)
int %f(int %x) {
entry:
        %r = add int %x, 1
        ret int %r
}
int %g(int %x) {
entry:
        %r = mul int %x, 50
        ret int %r
}
int %main(int %n) {
entry:
        %swap = setne int %n, 0
        br bool %swap, label %replace, label %call
replace:
        %old = cast int (int)* %f to sbyte*
        %new = cast int (int)* %g to sbyte*
        call void %llva.smc.replace(sbyte* %old, sbyte* %new)
        %d = sub int %n, 2
        %q = div int 7, %d
        br label %call
call:
        %r = call int %f(int 2)
        ret int %r
}
"""


def build_factorial(module_name: str = "fact") -> Module:
    """``fac(n)``: recursive factorial, plus ``main`` returning fac(10)."""
    module = Module(module_name)
    int_t = types.INT
    fac = module.create_function(
        "fac", types.function_of(int_t, [int_t]), ["n"])
    entry = fac.add_block("entry")
    base = fac.add_block("base")
    rec = fac.add_block("rec")
    builder = IRBuilder(entry)
    is_base = builder.setle(fac.args[0], const_int(int_t, 1))
    builder.cond_br(is_base, base, rec)
    builder.set_block(base)
    builder.ret(const_int(int_t, 1))
    builder.set_block(rec)
    n_minus_1 = builder.sub(fac.args[0], const_int(int_t, 1))
    recursive = builder.call(fac, [n_minus_1])
    product = builder.mul(fac.args[0], recursive)
    builder.ret(product)

    main = module.create_function("main", types.function_of(int_t, []))
    main_entry = main.add_block("entry")
    builder.set_block(main_entry)
    result = builder.call(fac, [const_int(int_t, 10)])
    builder.ret(result)
    return module


def build_loop_sum(limit: int = 10, module_name: str = "loopsum") -> Module:
    """``main`` sums 0..limit-1 with a phi-carried loop and array stores."""
    module = Module(module_name)
    int_t = types.INT
    array_t = types.array_of(int_t, limit)
    main = module.create_function("main", types.function_of(int_t, []))
    entry = main.add_block("entry")
    loop = main.add_block("loop")
    done = main.add_block("done")
    builder = IRBuilder(entry)
    array = builder.alloca(array_t, name="a")
    builder.br(loop)
    builder.set_block(loop)
    index = builder.phi(int_t, name="i")
    total = builder.phi(int_t, name="s")
    index.add_incoming(const_int(int_t, 0), entry)
    total.add_incoming(const_int(int_t, 0), entry)
    index_long = builder.cast(index, types.LONG)
    slot = builder.gep(array, [const_int(types.LONG, 0), index_long])
    builder.store(index, slot)
    loaded = builder.load(slot)
    new_total = builder.add(total, loaded)
    new_index = builder.add(index, const_int(int_t, 1))
    index.add_incoming(new_index, loop)
    total.add_incoming(new_total, loop)
    more = builder.setlt(new_index, const_int(int_t, limit))
    builder.cond_br(more, loop, done)
    builder.set_block(done)
    builder.ret(new_total)
    return module


def build_quadtree_module() -> Tuple[Module, Function]:
    """The paper's Figure 2 function, built programmatically."""
    module = Module("fig2")
    quadtree = types.named_struct("struct.QuadTree")
    qt_ptr = types.pointer_to(quadtree)
    quadtree.set_body([types.DOUBLE, types.array_of(qt_ptr, 4)])
    module.add_named_type("struct.QuadTree", quadtree)
    double_ptr = types.pointer_to(types.DOUBLE)
    fn_type = types.function_of(types.VOID, [qt_ptr, double_ptr])
    function = module.create_function(
        "Sum3rdChildren", fn_type, ["T", "Result"])
    t_arg, result_arg = function.args

    entry = function.add_block("entry")
    else_block = function.add_block("else")
    endif = function.add_block("endif")
    builder = IRBuilder(entry)
    slot = builder.alloca(types.DOUBLE, name="V")
    is_null = builder.seteq(t_arg, const_null(qt_ptr))
    builder.cond_br(is_null, endif, else_block)

    builder.set_block(else_block)
    child_ptr = builder.gep_const(t_arg, 0, 1, 3, name="tmp.1")
    child = builder.load(child_ptr, name="Child3")
    builder.call(function, [child, slot])
    child_sum = builder.load(slot)
    data_ptr = builder.gep_const(t_arg, 0, 0, name="tmp.3")
    data = builder.load(data_ptr)
    total = builder.add(child_sum, data, name="Ret.0")
    builder.br(endif)

    builder.set_block(endif)
    merged = builder.phi(
        types.DOUBLE,
        [(total, else_block), (const_fp(types.DOUBLE, 0.0), entry)],
        name="Ret.1")
    builder.store(merged, result_arg)
    builder.ret()
    return module, function
