"""The LLVA module verifier.

The V-ISA has "strict type rules" (Section 3.1); the instruction
constructors enforce the local ones, and this verifier checks the global
structural invariants that constructors cannot see:

* every basic block ends in exactly one terminator, with no terminator in
  the middle;
* phi nodes appear only at the head of a block and have exactly one
  incoming entry per CFG predecessor;
* SSA dominance — every use is dominated by its definition;
* returns match the function signature;
* def-use chains are internally consistent (a safety net for transforms).

Translators run the verifier on input object code before generating native
code; the test suite runs it after every transformation.
"""

from __future__ import annotations

from typing import List, Set

from repro.ir import instructions as insts
from repro.ir import types
from repro.ir.cfg import DominatorTree, reachable_blocks
from repro.ir.module import BasicBlock, Function, GlobalValue, Module
from repro.ir.printer import format_instruction
from repro.ir.values import Argument, Constant, User, Value


class VerificationError(Exception):
    """Raised when a module violates a structural V-ISA rule."""

    def __init__(self, errors: List[str]):
        super().__init__("\n".join(errors))
        self.errors = errors


def verify_module(module: Module) -> None:
    """Verify *module*, raising :class:`VerificationError` on failure."""
    errors: List[str] = []
    for function in module.functions.values():
        if function.is_declaration:
            continue
        _verify_function(function, errors)
    if errors:
        raise VerificationError(errors)


def verify_function(function: Function) -> None:
    """Verify a single function definition."""
    errors: List[str] = []
    _verify_function(function, errors)
    if errors:
        raise VerificationError(errors)


def _verify_function(function: Function, errors: List[str]) -> None:
    prefix = "function %{0}: ".format(function.name)

    if not function.blocks:
        errors.append(prefix + "definition with no basic blocks")
        return

    entry = function.entry_block
    if entry.predecessors():
        errors.append(prefix + "entry block has predecessors")

    for block in function.blocks:
        _verify_block(function, block, errors, prefix)

    # SSA dominance over the reachable subgraph.
    domtree = DominatorTree(function)
    reachable: Set[int] = {id(b) for b in reachable_blocks(function)}
    for block in function.blocks:
        if id(block) not in reachable:
            continue
        for inst in block.instructions:
            _verify_ssa_uses(function, inst, domtree, reachable,
                             errors, prefix)


def _verify_block(function: Function, block: BasicBlock,
                  errors: List[str], prefix: str) -> None:
    where = prefix + "block %{0}: ".format(block.name)
    if block.parent is not function:
        errors.append(where + "bad parent link")
    if not block.instructions:
        errors.append(where + "empty block")
        return
    if not block.instructions[-1].is_terminator:
        errors.append(where + "does not end in a terminator")
    seen_non_phi = False
    for index, inst in enumerate(block.instructions):
        is_last = index == len(block.instructions) - 1
        if inst.is_terminator and not is_last:
            errors.append(where + "terminator in mid-block: {0}"
                          .format(format_instruction(inst)))
        if inst.parent is not block:
            errors.append(where + "bad instruction parent link")
        if isinstance(inst, insts.PhiInst):
            if seen_non_phi:
                errors.append(where + "phi after non-phi instruction")
            _verify_phi(block, inst, errors, where)
        else:
            seen_non_phi = True
        if isinstance(inst, insts.RetInst):
            _verify_ret(function, inst, errors, where)
        _verify_use_chains(inst, errors, where)


def _verify_phi(block: BasicBlock, phi: insts.PhiInst,
                errors: List[str], where: str) -> None:
    preds = block.predecessors()
    incoming_blocks = [b for _v, b in phi.incoming()]
    if len(incoming_blocks) != len(set(id(b) for b in incoming_blocks)):
        errors.append(where + "phi has duplicate incoming blocks")
    pred_ids = {id(p) for p in preds}
    incoming_ids = {id(b) for b in incoming_blocks}
    if pred_ids != incoming_ids:
        errors.append(
            where + "phi %{0} incoming blocks {1} do not match "
            "predecessors {2}".format(
                phi.name,
                sorted(b.name or "?" for b in incoming_blocks),
                sorted(p.name or "?" for p in preds)))


def _verify_ret(function: Function, ret: insts.RetInst,
                errors: List[str], where: str) -> None:
    expected = function.return_type
    value = ret.return_value
    if expected.is_void:
        if value is not None:
            errors.append(where + "ret with value in void function")
    elif value is None:
        errors.append(where + "ret void in non-void function")
    elif value.type is not expected:
        errors.append(where + "ret type {0}, function returns {1}"
                      .format(value.type, expected))


def _verify_use_chains(inst: insts.Instruction, errors: List[str],
                       where: str) -> None:
    for index, operand in enumerate(inst.operands):
        if not operand.records_uses:
            continue
        for use in operand.uses:
            if use.user is inst and use.index == index:
                break
        else:
            errors.append(
                where + "operand {0} of '{1}' missing from use list"
                .format(index, format_instruction(inst)))


def _verify_ssa_uses(function: Function, inst: insts.Instruction,
                     domtree: DominatorTree, reachable: Set[int],
                     errors: List[str], prefix: str) -> None:
    for index, operand in enumerate(inst.operands):
        if isinstance(operand, (Constant, GlobalValue, BasicBlock)):
            continue
        if isinstance(operand, Argument):
            if operand.function is not function:
                errors.append(
                    prefix + "use of argument %{0} from another function"
                    .format(operand.name))
            continue
        if isinstance(operand, insts.Instruction):
            def_block = operand.parent
            if def_block is None or def_block.parent is not function:
                errors.append(
                    prefix + "use of instruction from another function "
                    "in '{0}'".format(format_instruction(inst)))
                continue
            if id(def_block) not in reachable:
                # Uses of unreachable definitions are themselves only
                # legal from unreachable code, which we skipped.
                errors.append(
                    prefix + "reachable use of unreachable definition "
                    "%{0}".format(operand.name))
                continue
            if operand.type.is_vector and def_block is not inst.parent:
                # Vector registers are block-local by construction: they
                # cannot cross phis, and keeping them out of cross-block
                # liveness means no engine (trap-handler register
                # snapshots, native register allocation) ever has to
                # spill one.
                errors.append(
                    prefix + "vector value %{0} used outside its "
                    "defining block in '{1}'".format(
                        operand.name, format_instruction(inst)))
            if not domtree.instruction_dominates(operand, inst, index):
                errors.append(
                    prefix + "SSA violation: %{0} does not dominate its "
                    "use in '{1}'".format(operand.name,
                                          format_instruction(inst)))
        else:
            errors.append(
                prefix + "unexpected operand kind {0!r}".format(operand))
