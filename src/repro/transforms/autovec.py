"""Loop autovectorization onto the V-ISA vector extension.

Recognizes the canonical counted innermost loop the front-end emits —
a header of phis plus ``setlt``/``br`` and a single body/latch block of
contiguous loads, element-wise arithmetic, contiguous stores, and
single-``add`` reductions — and rewrites it to process ``LANES``
iterations per trip through ``vload``/``vadd``/``vmul``/``vstore``/
``vreduce``, keeping the original loop as the scalar epilogue for the
remainder.

Bit-exactness is the contract: every transformation here must preserve
the scalar loop's results to the last bit on every tier.  Three rules
make that work:

* Reductions use ``vreduce`` with the running accumulator as the
  explicit init operand, so the fold order — ``((acc + v0) + v1) + ...``
  — is exactly the order the scalar loop used.  Two chained reduction
  updates in one iteration interleave lanes in scalar order, which no
  pair of vector folds can reproduce, so chains are rejected.
* The vector body emits its memory operations in the scalar body's
  program order, and every pair of accesses is either provably disjoint
  (alias analysis), or the *same* pointer value (same lane, same
  address, order preserved).  Anything else is rejected as a potential
  cross-lane dependence.
* Integer lanes wrap silently, exactly like the scalar ops they
  replace; the ``i + LANES <= n`` guard is computed in the induction
  variable's own (signed) type, so an overflowing bound falls back to
  the scalar epilogue instead of misbehaving.

Rejection reasons (surfaced as ``vec.loops_rejected{reason=...}`` and in
``autovec.loop`` trace events; see docs/PERFORMANCE.md):

=================  ======================================================
``not-counted``    no recognizable induction variable / trip count
``multi-block``    body is not a single block (calls, ifs, inner loops)
``no-preheader``   header lacks a unique out-of-loop predecessor
``non-unit-stride`` induction steps by something other than +1 / ``lt``
``unsigned-iv``    unsigned induction (guard arithmetic could wrap up)
``header-code``    header computes more than phis + exit test
``reduction``      accumulator phi not a single in-order ``add`` update
``iv-use``         induction value consumed as data, not as an address
``non-contiguous`` load/store not stride-1 in the induction variable
``unsupported-op`` body op with no vector form (div, call, compare, ...)
``may-alias``      a store might overlap another access's stream
=================  ======================================================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro import observe
from repro.analysis.alias import AliasAnalysis, AliasResult
from repro.analysis.loops import Loop, LoopInfo, TripCount
from repro.ir import instructions as insts
from repro.ir import types
from repro.ir.module import BasicBlock, Function
from repro.ir.values import Value, const_int
from repro.transforms.pass_manager import FunctionPass

#: Lanes per vector trip.  Four doubles is the paper-era SIMD width
#: (SSE2 128-bit × 2); every supported element type uses the same count
#: so one guard covers all streams in the loop.
VECTOR_LANES = 4

_VBINARY_FOR = {
    "add": insts.VAddInst,
    "sub": insts.VSubInst,
    "mul": insts.VMulInst,
}


class _Reduction:
    """One accumulator: ``%acc = phi [init, pre], [%next, body]`` with
    ``%next = add %acc, <lane value>`` as its only in-loop use."""

    def __init__(self, phi: insts.PhiInst, update: insts.AddInst,
                 init: Value):
        self.phi = phi
        self.update = update
        self.init = init


class _Plan:
    """Everything the rewrite needs, gathered before mutating."""

    def __init__(self, loop: Loop, trip: TripCount,
                 preheader: BasicBlock, body: BasicBlock):
        self.loop = loop
        self.trip = trip
        self.preheader = preheader
        self.body = body
        #: id(body inst) -> classification tag
        self.roles: Dict[int, str] = {}
        #: id(reduction update add) -> _Reduction
        self.reductions: Dict[int, _Reduction] = {}
        #: body instructions producing one value per lane
        self.lanewise: Dict[int, insts.Instruction] = {}
        #: contiguous geps: id -> (invariant prefix indices, iv cast)
        self.streams: Dict[int, insts.GetElementPtrInst] = {}


class LoopAutovectorizer(FunctionPass):
    """``--vectorize``: rewrite counted loops to the vector subset."""

    name = "autovec"

    def __init__(self, lanes: int = VECTOR_LANES,
                 alias_analysis: Optional[AliasAnalysis] = None):
        if not 2 <= lanes <= types.MAX_VECTOR_LANES:
            raise ValueError("lanes must be in [2, {0}], got {1}".format(
                types.MAX_VECTOR_LANES, lanes))
        self.lanes = lanes
        self.alias = alias_analysis or AliasAnalysis()

    def run(self, function: Function) -> bool:
        loop_info = LoopInfo(function)
        changed = False
        observing = observe.enabled()
        for loop in loop_info.all_loops():
            if loop.children:
                continue  # only innermost loops
            outcome = self._plan(loop)
            if isinstance(outcome, str):
                observe.counter("vec.loops_rejected", 1, reason=outcome)
                if observing:
                    observe.event("autovec.loop", function=function.name,
                                  header=loop.header.name,
                                  vectorized=False, reason=outcome)
                continue
            self._rewrite(function, outcome)
            observe.counter("vec.loops_vectorized", 1,
                            function=function.name)
            if observing:
                observe.event("autovec.loop", function=function.name,
                              header=loop.header.name, vectorized=True,
                              lanes=self.lanes)
            changed = True
        return changed

    # -- matching ----------------------------------------------------------

    def _plan(self, loop: Loop) -> Union[_Plan, str]:
        trip = loop.trip_count()
        if trip is None:
            return "not-counted"
        if trip.relation != "lt" or trip.induction.stride != 1:
            return "non-unit-stride"
        if not trip.induction.phi.type.is_signed:
            return "unsigned-iv"
        if len(loop.blocks) != 2:
            return "multi-block"
        preheader = loop.preheader()
        if preheader is None:
            return "no-preheader"
        body = next(b for b in loop.blocks if b is not loop.header)
        terminator = body.terminator if body.has_terminator() else None
        if not (isinstance(terminator, insts.BranchInst)
                and not terminator.is_conditional):
            return "multi-block"

        plan = _Plan(loop, trip, preheader, body)
        reason = self._classify_header(plan)
        if reason is None:
            reason = self._classify_body(plan)
        if reason is None:
            reason = self._check_dependences(plan)
        return plan if reason is None else reason

    def _classify_header(self, plan: _Plan) -> Optional[str]:
        header = plan.loop.header
        iv_phi = plan.trip.induction.phi
        for inst in header.instructions:
            if isinstance(inst, insts.PhiInst):
                if inst is iv_phi:
                    continue
                reason = self._classify_reduction(plan, inst)
                if reason is not None:
                    return reason
            elif inst is plan.trip.compare or inst.is_terminator:
                continue
            else:
                return "header-code"
        return None

    def _classify_reduction(self, plan: _Plan,
                            phi: insts.PhiInst) -> Optional[str]:
        loop = plan.loop
        if not phi.type.is_arithmetic or phi.num_incoming != 2:
            return "reduction"
        init = phi.incoming_for_block(plan.preheader)
        update = None
        for value, pred in phi.incoming():
            if loop.contains(pred):
                update = value
        if init is None or update is None:
            return "reduction"
        # The only in-order fold vreduce can replay is a single
        # ``add %acc, %lane`` per iteration, used by nothing but the phi.
        if not (isinstance(update, insts.AddInst)
                and update.parent is plan.body
                and update.lhs is phi):
            return "reduction"
        for user in update.users():
            if user is not phi:
                return "reduction"
        for user in phi.users():
            if user is update:
                continue
            if isinstance(user, insts.Instruction) \
                    and user.parent is not None \
                    and loop.contains(user.parent):
                return "reduction"
        plan.reductions[id(update)] = _Reduction(phi, update, init)
        plan.roles[id(update)] = "reduction"
        return None

    def _classify_body(self, plan: _Plan) -> Optional[str]:
        loop = plan.loop
        induction = plan.trip.induction
        iv_casts: List[insts.CastInst] = []
        for inst in plan.body.instructions:
            if id(inst) in plan.roles:
                if plan.roles[id(inst)] == "reduction":
                    reduction = plan.reductions[id(inst)]
                    reason = self._lane_operand_ok(plan, reduction.update.rhs)
                    if reason is not None:
                        return reason
                continue
            if inst is induction.step:
                # ``i + 1`` is replaced by ``i + LANES``; any other use
                # of the incremented value would observe a lane index.
                for user in inst.users():
                    if user is not induction.phi:
                        return "iv-use"
                plan.roles[id(inst)] = "iv-step"
            elif isinstance(inst, insts.CastInst):
                if not (inst.value is induction.phi
                        and inst.type is types.LONG):
                    return "unsupported-op"
                iv_casts.append(inst)
                plan.roles[id(inst)] = "iv-cast"
            elif isinstance(inst, insts.GetElementPtrInst):
                reason = self._classify_gep(plan, inst, iv_casts)
                if reason is not None:
                    return reason
            elif isinstance(inst, insts.LoadInst):
                if plan.roles.get(id(inst.pointer)) != "stream":
                    return "non-contiguous"
                plan.roles[id(inst)] = "lane"
                plan.lanewise[id(inst)] = inst
            elif isinstance(inst, insts.StoreInst):
                if plan.roles.get(id(inst.pointer)) != "stream":
                    return "non-contiguous"
                reason = self._lane_operand_ok(plan, inst.value)
                if reason is not None:
                    return reason
                plan.roles[id(inst)] = "store"
            elif isinstance(inst, (insts.AddInst, insts.SubInst,
                                   insts.MulInst)) \
                    and not isinstance(inst, insts.VectorBinaryInst):
                for operand in (inst.lhs, inst.rhs):
                    reason = self._lane_operand_ok(plan, operand)
                    if reason is not None:
                        return reason
                plan.roles[id(inst)] = "lane"
                plan.lanewise[id(inst)] = inst
            elif inst.is_terminator:
                continue
            else:
                return "unsupported-op"
        # Address casts may only feed contiguous geps.
        for cast in iv_casts:
            for user in cast.users():
                if plan.roles.get(id(user)) != "stream":
                    return "iv-use"
        # Lane values must stay inside the loop (SSA dominance already
        # keeps them out of other blocks; reductions/stores consume them).
        return None

    def _classify_gep(self, plan: _Plan, gep: insts.GetElementPtrInst,
                      iv_casts: List[insts.CastInst]) -> Optional[str]:
        loop = plan.loop
        if not loop.is_invariant(gep.pointer):
            return "non-contiguous"
        indices = gep.indices
        last = indices[-1]
        if not (isinstance(last, insts.CastInst) and last in iv_casts):
            return "non-contiguous"
        for index in indices[:-1]:
            if not loop.is_invariant(index):
                return "non-contiguous"
        element = gep.type.pointee
        if not element.is_arithmetic:
            return "unsupported-op"
        plan.roles[id(gep)] = "stream"
        plan.streams[id(gep)] = gep
        return None

    def _lane_operand_ok(self, plan: _Plan, value: Value) -> Optional[str]:
        """A vector-arithmetic operand: a lane value computed in the
        body, or a loop-invariant scalar (splattable)."""
        if id(value) in plan.lanewise:
            return None
        if plan.loop.is_invariant(value):
            return None
        if isinstance(value, insts.PhiInst):
            phi = value
            if phi is plan.trip.induction.phi:
                return "iv-use"
            return "reduction"  # chained / re-read accumulator
        return "unsupported-op"

    def _check_dependences(self, plan: _Plan) -> Optional[str]:
        accesses: List[Tuple[insts.Instruction, Value, bool]] = []
        for inst in plan.body.instructions:
            if isinstance(inst, insts.LoadInst):
                accesses.append((inst, inst.pointer, False))
            elif isinstance(inst, insts.StoreInst):
                accesses.append((inst, inst.pointer, True))
        for index, (_, pointer_a, is_store_a) in enumerate(accesses):
            for _, pointer_b, is_store_b in accesses[index + 1:]:
                if not (is_store_a or is_store_b):
                    continue
                if pointer_a is pointer_b:
                    # Same SSA pointer: same address in the same lane,
                    # and the vector body preserves program order.
                    continue
                if self.alias.alias(pointer_a, pointer_b) \
                        != AliasResult.NO_ALIAS:
                    return "may-alias"
        return None

    # -- rewriting ---------------------------------------------------------

    def _rewrite(self, function: Function, plan: _Plan) -> None:
        loop, trip = plan.loop, plan.trip
        header = loop.header
        induction = trip.induction
        iv_type = induction.phi.type
        lanes = self.lanes

        vec_cond = function.add_block(header.name + ".vec.cond",
                                      before=header)
        vec_body = function.add_block(header.name + ".vec.body",
                                      before=header)

        # vec.cond: widened induction/accumulator phis plus the
        # ``i + LANES <= bound`` guard (signed wrap exits to the scalar
        # epilogue, never into out-of-range lanes).
        # Names may be absent (bitcode strips them) — fall back like
        # the body rewriter below does.
        iv_name = induction.phi.name or "iv"
        iv_vec = insts.PhiInst(iv_type, name=iv_name + ".vec")
        vec_cond.append(iv_vec)
        iv_vec.add_incoming(induction.init, plan.preheader)
        acc_vecs: Dict[int, insts.PhiInst] = {}
        for reduction in plan.reductions.values():
            acc = insts.PhiInst(reduction.phi.type,
                                name=(reduction.phi.name or "acc") + ".vec")
            vec_cond.append(acc)
            acc.add_incoming(reduction.init, plan.preheader)
            acc_vecs[id(reduction.update)] = acc
        iv_next = insts.AddInst(iv_vec, const_int(iv_type, lanes),
                                name=iv_name + ".vec.next")
        vec_cond.append(iv_next)
        guard = insts.SetLeInst(iv_next, trip.bound,
                                name=header.name + ".vec.guard")
        vec_cond.append(guard)
        vec_cond.append(insts.BranchInst(condition=guard,
                                         if_true=vec_body,
                                         if_false=header))
        iv_vec.add_incoming(iv_next, vec_body)

        # vec.body: the scalar body replayed lane-parallel, one vector
        # instruction per scalar one, in the original program order.
        mapped: Dict[int, Value] = {}
        splats: Dict[Tuple[int, int], Value] = {}

        def lane_value(value: Value,
                       vector_type: types.VectorType) -> Value:
            if id(value) in mapped:
                return mapped[id(value)]
            key = (id(value), id(vector_type))
            if key not in splats:
                splat = insts.VSplatInst(vector_type, value)
                vec_body.append(splat)
                splats[key] = splat
            return splats[key]

        for inst in plan.body.instructions:
            role = plan.roles.get(id(inst))
            if role == "iv-step" or inst.is_terminator:
                continue
            if role == "iv-cast":
                clone = insts.CastInst(iv_vec, types.LONG,
                                       name=(inst.name or "iv") + ".vec")
                vec_body.append(clone)
                mapped[id(inst)] = clone
            elif role == "stream":
                gep = plan.streams[id(inst)]
                indices = list(gep.indices)
                indices[-1] = mapped[id(indices[-1])]
                clone = insts.GetElementPtrInst(
                    gep.pointer, indices, name=(gep.name or "p") + ".vec")
                vec_body.append(clone)
                mapped[id(inst)] = clone
            elif isinstance(inst, insts.LoadInst):
                vector_type = types.vector_of(inst.type, lanes)
                vload = insts.VLoadInst(vector_type,
                                        mapped[id(inst.pointer)],
                                        name=(inst.name or "v") + ".vec")
                vec_body.append(vload)
                mapped[id(inst)] = vload
            elif role == "reduction":
                reduction = plan.reductions[id(inst)]
                vector_type = types.vector_of(inst.type, lanes)
                folded = insts.VReduceAddInst(
                    acc_vecs[id(inst)],
                    lane_value(inst.rhs, vector_type),
                    name=(inst.name or "acc") + ".vec")
                vec_body.append(folded)
                acc_vecs[id(inst)].add_incoming(folded, vec_body)
            elif isinstance(inst, insts.StoreInst):
                vector_type = types.vector_of(inst.value.type, lanes)
                vec_body.append(insts.VStoreInst(
                    lane_value(inst.value, vector_type),
                    mapped[id(inst.pointer)]))
            else:  # lane-wise add/sub/mul
                vector_type = types.vector_of(inst.type, lanes)
                clone = _VBINARY_FOR[inst.opcode](
                    lane_value(inst.lhs, vector_type),
                    lane_value(inst.rhs, vector_type),
                    name=(inst.name or "t") + ".vec")
                vec_body.append(clone)
                mapped[id(inst)] = clone
        vec_body.append(insts.BranchInst(target=vec_cond))

        # Rewire: preheader enters the vector loop; the scalar loop
        # becomes the epilogue, resuming from the vector loop's state.
        induction.phi.remove_incoming(plan.preheader)
        induction.phi.add_incoming(iv_vec, vec_cond)
        for reduction in plan.reductions.values():
            reduction.phi.remove_incoming(plan.preheader)
            reduction.phi.add_incoming(acc_vecs[id(reduction.update)],
                                       vec_cond)
        terminator = plan.preheader.terminator
        for index, operand in enumerate(terminator.operands):
            if operand is header:
                terminator.set_operand(index, vec_cond)
