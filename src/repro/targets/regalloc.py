"""Register allocation for the machine layer.

Two allocators, reproducing the paper's asymmetry between its back ends
(Section 5.2):

* :class:`SpillAllAllocator` — "virtually no optimization and very
  simple register allocation resulting in significant spill code": every
  virtual register lives in a stack slot; each instruction loads its
  operands into scratch registers and stores its result back.  This is
  the x86 back end's allocator and the source of its instruction-count
  inflation.

* :class:`LinearScanAllocator` — Poletto-Sarkar linear scan over live
  intervals (extended across loop back edges via a machine-level
  liveness fixpoint).  Intervals spanning calls prefer callee-saved
  registers; used callee-saved registers are saved/restored in the
  prologue/epilogue, the "register saves and restores" verbosity of
  native code.  This is the SPARC back end's allocator.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.ir import types
from repro.targets.machine import (
    Imm,
    LabelRef,
    MachineBasicBlock,
    MachineError,
    MachineFunction,
    MachineInstr,
    Mem,
    PhysReg,
    Semantics,
    SymRef,
    VirtualReg,
)

#: Semantics whose first operand is a definition.
_DEF0 = {Semantics.MOV, Semantics.ALU, Semantics.CMP, Semantics.LOAD,
         Semantics.LEA, Semantics.POP, Semantics.CVT}


def instr_defs_uses(instr: MachineInstr
                    ) -> Tuple[List[int], List[int]]:
    """Operand indices that are (defined, used) by *instr*.

    Memory operands are always uses of their base/index registers, even
    in operand slot 0.
    """
    defs: List[int] = []
    uses: List[int] = []
    if instr.semantics == Semantics.VLOAD:
        # Every lane operand is a definition; the trailing address Mem
        # is a use.  (VSTORE needs no arm: all its operands are uses,
        # which is the default below.)
        for index, operand in enumerate(instr.operands):
            if isinstance(operand, Mem):
                uses.append(index)
            elif isinstance(operand, (VirtualReg, PhysReg)):
                defs.append(index)
        return defs, uses
    for index, operand in enumerate(instr.operands):
        if isinstance(operand, Mem):
            uses.append(index)
        elif isinstance(operand, (VirtualReg, PhysReg)):
            if index == 0 and instr.semantics in _DEF0:
                defs.append(index)
            else:
                uses.append(index)
    return defs, uses


class AllocationError(MachineError):
    pass


# ---------------------------------------------------------------------------
# Spill-everything
# ---------------------------------------------------------------------------

class SpillAllAllocator:
    """Every vreg gets a frame slot; scratch registers do the work."""

    name = "spill-all"

    def __init__(self):
        self._slots: Dict[int, int] = {}

    def slot_of(self, machine: MachineFunction, reg: VirtualReg) -> int:
        offset = self._slots.get(reg.index)
        if offset is None:
            offset = machine.frame_size
            machine.frame_size += 8
            self._slots[reg.index] = offset
        return offset

    def run(self, machine: MachineFunction) -> None:
        target = machine.target

        def slot_of(reg: VirtualReg) -> int:
            return self.slot_of(machine, reg)

        for block in machine.blocks:
            rewritten: List[MachineInstr] = []
            for instr in block.instructions:
                scratch_pool = {"int": list(target.scratch_gprs),
                                "float": list(target.scratch_fprs)}
                assigned: Dict[int, PhysReg] = {}

                def scratch_for(reg: VirtualReg) -> PhysReg:
                    existing = assigned.get(reg.index)
                    if existing is not None:
                        return existing
                    pool_key = "float" if reg.type.is_floating_point \
                        else "int"
                    pool = scratch_pool[pool_key]
                    if not pool:
                        raise AllocationError(
                            "out of scratch registers in {0!r}"
                            .format(instr))
                    phys = PhysReg(pool.pop(0),
                                   is_float=pool_key == "float")
                    assigned[reg.index] = phys
                    return phys

                if instr.semantics in (Semantics.VLOAD,
                                       Semantics.VSTORE):
                    # One atomic vector op can name more lanes than
                    # there are scratch registers: bind each lane vreg
                    # straight to its frame slot (the executor reads/
                    # writes lane slots directly) and only scratch the
                    # address registers.
                    lane_loads: List[MachineInstr] = []
                    for index, operand in enumerate(instr.operands):
                        if isinstance(operand, VirtualReg):
                            instr.operands[index] = Mem(
                                base=_fp(), offset=slot_of(operand))
                        elif isinstance(operand, Mem):
                            for attr in ("base", "index"):
                                reg = getattr(operand, attr)
                                if isinstance(reg, VirtualReg):
                                    phys = scratch_for(reg)
                                    lane_loads.append(_reload(
                                        phys, slot_of(reg), reg.type))
                                    setattr(operand, attr, phys)
                    rewritten.extend(lane_loads)
                    rewritten.append(instr)
                    continue
                defs, uses = instr_defs_uses(instr)
                loads: List[MachineInstr] = []
                stores: List[MachineInstr] = []
                # Rewrite uses: reload from the slot.
                for index in uses:
                    operand = instr.operands[index]
                    if isinstance(operand, VirtualReg):
                        phys = scratch_for(operand)
                        loads.append(_reload(phys, slot_of(operand),
                                             operand.type))
                        instr.operands[index] = phys
                    elif isinstance(operand, Mem):
                        operand_base = operand.base
                        if isinstance(operand_base, VirtualReg):
                            phys = scratch_for(operand_base)
                            loads.append(_reload(
                                phys, slot_of(operand_base),
                                operand_base.type))
                            operand.base = phys
                        operand_index = operand.index
                        if isinstance(operand_index, VirtualReg):
                            phys = scratch_for(operand_index)
                            loads.append(_reload(
                                phys, slot_of(operand_index),
                                operand_index.type))
                            operand.index = phys
                # Rewrite the def: compute into scratch, spill to slot.
                for index in defs:
                    operand = instr.operands[index]
                    if isinstance(operand, VirtualReg):
                        phys = scratch_for(operand)
                        stores.append(_spill(phys, slot_of(operand),
                                             operand.type))
                        instr.operands[index] = phys
                rewritten.extend(loads)
                rewritten.append(instr)
                rewritten.extend(stores)
            block.instructions = rewritten


def _reload(phys: PhysReg, offset: int, type_: types.Type) -> MachineInstr:
    return MachineInstr("reload", Semantics.LOAD,
                        [phys, Mem(base=_fp(), offset=offset)],
                        value_type=_slot_type(type_), ee=False)


def _spill(phys: PhysReg, offset: int, type_: types.Type) -> MachineInstr:
    return MachineInstr("spill", Semantics.STORE,
                        [phys, Mem(base=_fp(), offset=offset)],
                        value_type=_slot_type(type_), ee=False)


from repro.targets.machine import spill_slot_type as _slot_type


def _fp() -> PhysReg:
    from repro.targets.codegen import FRAME_POINTER
    return FRAME_POINTER


# ---------------------------------------------------------------------------
# Linear scan
# ---------------------------------------------------------------------------

class _Interval:
    __slots__ = ("reg", "start", "end", "crosses_call", "phys", "slot")

    def __init__(self, reg: VirtualReg):
        self.reg = reg
        self.start = -1
        self.end = -1
        self.crosses_call = False
        self.phys: Optional[PhysReg] = None
        self.slot: Optional[int] = None

    def extend(self, index: int) -> None:
        if self.start < 0 or index < self.start:
            self.start = index
        if index > self.end:
            self.end = index


class LinearScanAllocator:
    """Poletto-Sarkar linear scan with call-aware register classes."""

    name = "linear-scan"

    def run(self, machine: MachineFunction) -> None:
        order, positions = self._linearize(machine)
        live_in, live_out = self._block_liveness(machine)
        intervals = self._build_intervals(machine, order, live_in,
                                          live_out)
        self._mark_call_crossings(machine, intervals, live_out)
        used_callee_saved = self._allocate(machine, intervals)
        self._rewrite(machine, intervals)
        self._save_restore(machine, used_callee_saved)

    # -- linearization -----------------------------------------------------------

    def _linearize(self, machine: MachineFunction):
        order: List[MachineInstr] = []
        positions: Dict[int, int] = {}
        for block in machine.blocks:
            for instr in block.instructions:
                positions[id(instr)] = len(order)
                order.append(instr)
        return order, positions

    # -- liveness-extended intervals ------------------------------------------------

    def _build_intervals(self, machine: MachineFunction,
                         order: Sequence[MachineInstr],
                         live_in: Dict[str, Set[int]],
                         live_out: Dict[str, Set[int]]
                         ) -> List[_Interval]:
        intervals: Dict[int, _Interval] = {}

        def interval(reg: VirtualReg) -> _Interval:
            entry = intervals.get(reg.index)
            if entry is None:
                entry = intervals[reg.index] = _Interval(reg)
            return entry

        # Block boundaries in the linear order.
        block_ranges: Dict[str, Tuple[int, int]] = {}
        cursor = 0
        for block in machine.blocks:
            block_ranges[block.name] = (cursor,
                                        cursor + len(block.instructions))
            cursor += len(block.instructions)

        # Local first-def / last-use positions.
        for index, instr in enumerate(order):
            defs, uses = instr_defs_uses(instr)
            for op_index in uses:
                operand = instr.operands[op_index]
                if isinstance(operand, VirtualReg):
                    interval(operand).extend(index)
                elif isinstance(operand, Mem):
                    if isinstance(operand.base, VirtualReg):
                        interval(operand.base).extend(index)
                    if isinstance(operand.index, VirtualReg):
                        interval(operand.index).extend(index)
            for op_index in defs:
                operand = instr.operands[op_index]
                if isinstance(operand, VirtualReg):
                    interval(operand).extend(index)

        # Machine-level liveness fixpoint to extend across back edges.
        for block in machine.blocks:
            start, end = block_ranges[block.name]
            if end == start:
                continue
            for reg_index in live_out.get(block.name, ()):
                if reg_index in intervals:
                    intervals[reg_index].extend(end - 1)
            for reg_index in live_in.get(block.name, ()):
                if reg_index in intervals:
                    intervals[reg_index].extend(start)
        return sorted(intervals.values(), key=lambda iv: iv.start)

    def _block_liveness(self, machine: MachineFunction):
        successors: Dict[str, List[str]] = {}
        blocks_by_name = {block.name: block for block in machine.blocks}
        for block in machine.blocks:
            outs: List[str] = []
            for instr in block.instructions:
                for operand in instr.operands:
                    if isinstance(operand, LabelRef) \
                            and operand.name in blocks_by_name:
                        outs.append(operand.name)
                unwind = instr.attrs.get("unwind")
                if unwind and unwind in blocks_by_name:
                    outs.append(unwind)
            successors[block.name] = outs
        gen: Dict[str, Set[int]] = {}
        kill: Dict[str, Set[int]] = {}
        for block in machine.blocks:
            block_gen: Set[int] = set()
            block_kill: Set[int] = set()
            for instr in block.instructions:
                defs, uses = instr_defs_uses(instr)
                for op_index in uses:
                    operand = instr.operands[op_index]
                    for reg in _operand_vregs(operand):
                        if reg.index not in block_kill:
                            block_gen.add(reg.index)
                for op_index in defs:
                    operand = instr.operands[op_index]
                    if isinstance(operand, VirtualReg):
                        block_kill.add(operand.index)
            gen[block.name] = block_gen
            kill[block.name] = block_kill
        live_in: Dict[str, Set[int]] = {b.name: set()
                                        for b in machine.blocks}
        live_out: Dict[str, Set[int]] = {b.name: set()
                                         for b in machine.blocks}
        changed = True
        while changed:
            changed = False
            for block in reversed(machine.blocks):
                name = block.name
                out: Set[int] = set()
                for successor in successors[name]:
                    out |= live_in[successor]
                new_in = gen[name] | (out - kill[name])
                if out != live_out[name] or new_in != live_in[name]:
                    live_out[name] = out
                    live_in[name] = new_in
                    changed = True
        return live_in, live_out

    def _mark_call_crossings(self, machine: MachineFunction,
                             intervals: List[_Interval],
                             live_out: Dict[str, Set[int]]) -> None:
        """Mark every interval live across any CALL.

        Computed per block with a backwards live-set walk — linear
        positions alone are unsound because layout order is not
        execution order (a value can cross a call through a back
        edge whose blocks are laid out after its last linear use).
        """
        by_index = {interval.reg.index: interval
                    for interval in intervals}
        for block in machine.blocks:
            live: Set[int] = set(live_out.get(block.name, ()))
            for instr in reversed(block.instructions):
                defs, uses = instr_defs_uses(instr)
                for op_index in defs:
                    operand = instr.operands[op_index]
                    if isinstance(operand, VirtualReg):
                        live.discard(operand.index)
                if instr.semantics == Semantics.CALL:
                    for reg_index in live:
                        interval = by_index.get(reg_index)
                        if interval is not None:
                            interval.crosses_call = True
                for op_index in uses:
                    operand = instr.operands[op_index]
                    for reg in _operand_vregs(operand):
                        live.add(reg.index)

    # -- allocation --------------------------------------------------------------------

    def _allocate(self, machine: MachineFunction,
                  intervals: List[_Interval]) -> List[str]:
        target = machine.target
        callee_saved = set(target.callee_saved)
        free_int = [name for name in target.gpr_names]
        free_float = [name for name in target.fpr_names]
        active: List[_Interval] = []
        used_callee_saved: Set[str] = set()

        def free_list(interval: _Interval) -> List[str]:
            return free_float if interval.reg.type.is_floating_point \
                else free_int

        def pick(interval: _Interval) -> Optional[str]:
            pool = free_list(interval)
            if interval.crosses_call:
                for name in pool:
                    if name in callee_saved:
                        return name
                return None  # caller-saved would be clobbered: spill
            for name in pool:
                if name not in callee_saved:
                    return name
            return pool[0] if pool else None

        for interval in intervals:
            # Expire finished intervals.
            for finished in [a for a in active if a.end < interval.start]:
                active.remove(finished)
                if finished.phys is not None:
                    free_list(finished).append(finished.phys.name)
            choice = pick(interval)
            if choice is None:
                self._spill_one(machine, interval, active, free_list)
                continue
            free_list(interval).remove(choice)
            interval.phys = PhysReg(
                choice, interval.reg.type.is_floating_point)
            if choice in callee_saved:
                used_callee_saved.add(choice)
            active.append(interval)
        return sorted(used_callee_saved)

    def _spill_one(self, machine: MachineFunction, interval: _Interval,
                   active: List[_Interval], free_list) -> None:
        """Spill either this interval or the active one ending last."""
        candidates = [a for a in active
                      if a.phys is not None
                      and a.reg.type.is_floating_point
                      == interval.reg.type.is_floating_point
                      and (a.crosses_call or not interval.crosses_call)]
        victim = max(candidates, key=lambda a: a.end, default=None)
        if victim is not None and victim.end > interval.end \
                and not interval.crosses_call:
            interval.phys = victim.phys
            victim.phys = None
            victim.slot = machine.frame_size
            machine.frame_size += 8
            active.remove(victim)
            active.append(interval)
        else:
            interval.slot = machine.frame_size
            machine.frame_size += 8

    # -- rewriting ---------------------------------------------------------------------

    def _rewrite(self, machine: MachineFunction,
                 intervals: List[_Interval]) -> None:
        assignment: Dict[int, _Interval] = {
            interval.reg.index: interval for interval in intervals}
        scratch = list(machine.target.scratch_gprs)
        scratch_float = list(machine.target.scratch_fprs)
        for block in machine.blocks:
            rewritten: List[MachineInstr] = []
            for instr in block.instructions:
                loads: List[MachineInstr] = []
                stores: List[MachineInstr] = []
                pool = {"int": list(scratch), "float": list(scratch_float)}
                local: Dict[int, PhysReg] = {}

                def resolve(reg: VirtualReg, is_def: bool) -> PhysReg:
                    interval = assignment[reg.index]
                    if interval.phys is not None:
                        return interval.phys
                    phys = local.get(reg.index)
                    if phys is None:
                        key = "float" if reg.type.is_floating_point \
                            else "int"
                        if not pool[key]:
                            raise AllocationError(
                                "out of scratch registers")
                        phys = PhysReg(pool[key].pop(0), key == "float")
                        local[reg.index] = phys
                    if is_def:
                        stores.append(_spill(phys, interval.slot,
                                             reg.type))
                    else:
                        loads.append(_reload(phys, interval.slot,
                                             reg.type))
                    return phys

                if instr.semantics in (Semantics.VLOAD,
                                       Semantics.VSTORE):
                    # Lane operands of the atomic vector ops never go
                    # through scratch staging: allocated lanes become
                    # their physical register, spilled lanes bind to
                    # their frame slot directly (one vector op can name
                    # more lanes than the scratch pool holds).
                    for index, operand in enumerate(instr.operands):
                        if isinstance(operand, VirtualReg):
                            interval = assignment[operand.index]
                            if interval.phys is not None:
                                instr.operands[index] = interval.phys
                            else:
                                instr.operands[index] = Mem(
                                    base=_fp(), offset=interval.slot)
                        elif isinstance(operand, Mem):
                            if isinstance(operand.base, VirtualReg):
                                operand.base = resolve(operand.base,
                                                       False)
                            if isinstance(operand.index, VirtualReg):
                                operand.index = resolve(operand.index,
                                                        False)
                    rewritten.extend(loads)
                    rewritten.append(instr)
                    continue
                defs, uses = instr_defs_uses(instr)
                for index in uses:
                    operand = instr.operands[index]
                    if isinstance(operand, VirtualReg):
                        instr.operands[index] = resolve(operand, False)
                    elif isinstance(operand, Mem):
                        if isinstance(operand.base, VirtualReg):
                            operand.base = resolve(operand.base, False)
                        if isinstance(operand.index, VirtualReg):
                            operand.index = resolve(operand.index, False)
                for index in defs:
                    operand = instr.operands[index]
                    if isinstance(operand, VirtualReg):
                        instr.operands[index] = resolve(operand, True)
                rewritten.extend(loads)
                rewritten.append(instr)
                rewritten.extend(stores)
            block.instructions = rewritten

    # -- prologue/epilogue --------------------------------------------------------------

    def _save_restore(self, machine: MachineFunction,
                      used_callee_saved: List[str]) -> None:
        if not used_callee_saved or not machine.blocks:
            return
        entry = machine.blocks[0]
        saves = [MachineInstr("save", Semantics.PUSH,
                              [PhysReg(name)], value_type=types.ULONG)
                 for name in used_callee_saved]
        entry.instructions[0:0] = saves
        for block in machine.blocks:
            for index, instr in enumerate(list(block.instructions)):
                if instr.semantics == Semantics.RET:
                    restores = [
                        MachineInstr("restore", Semantics.POP,
                                     [PhysReg(name)],
                                     value_type=types.ULONG)
                        for name in reversed(used_callee_saved)]
                    position = block.instructions.index(instr)
                    block.instructions[position:position] = restores


def _operand_vregs(operand):
    if isinstance(operand, VirtualReg):
        yield operand
    elif isinstance(operand, Mem):
        if isinstance(operand.base, VirtualReg):
            yield operand.base
        if isinstance(operand.index, VirtualReg):
            yield operand.index
