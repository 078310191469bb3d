"""Modules, functions, basic blocks, and globals.

A :class:`Module` is one unit of virtual object code: global variables,
functions, named types, and the V-ABI configuration flags (pointer size and
endianness) that Section 3.2 requires to be "encoded in the object file".

Each :class:`Function` is a list of :class:`BasicBlock`\\ s; each basic
block is a list of instructions ending in exactly one control-flow
instruction that explicitly names its successors — the explicit CFG the
paper calls "another crucial feature of LLVA" (Section 3.1).  Basic blocks
are themselves values of type ``label`` so that branch targets participate
in ordinary def-use chains, which makes predecessor queries and CFG
rewrites uniform with the rest of SSA.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.ir import types
from repro.ir.instructions import Instruction, PhiInst
from repro.ir.types import Endianness, TargetData, Type
from repro.ir.values import Argument, Constant, Value


class BasicBlock(Value):
    """A straight-line sequence of instructions with one terminator."""

    __slots__ = ("instructions", "parent")

    def __init__(self, name: str):
        super().__init__(types.LABEL, name)
        self.instructions: List[Instruction] = []
        self.parent: Optional["Function"] = None

    # -- structure ---------------------------------------------------------

    def append(self, inst: Instruction) -> Instruction:
        """Append *inst*; a terminator must come last and be unique."""
        if self.has_terminator():
            raise ValueError(
                "block {0} already has a terminator".format(self.ref()))
        self.instructions.append(inst)
        inst.parent = self
        return inst

    def insert_before(self, position: Instruction,
                      inst: Instruction) -> Instruction:
        index = self.instructions.index(position)
        self.instructions.insert(index, inst)
        inst.parent = self
        return inst

    def insert_front(self, inst: Instruction) -> Instruction:
        self.instructions.insert(0, inst)
        inst.parent = self
        return inst

    def remove(self, inst: Instruction) -> None:
        self.instructions.remove(inst)
        inst.parent = None

    def has_terminator(self) -> bool:
        return bool(self.instructions) and self.instructions[-1].is_terminator

    @property
    def terminator(self) -> Instruction:
        if not self.has_terminator():
            raise ValueError(
                "block {0} has no terminator".format(self.ref()))
        return self.instructions[-1]

    # -- CFG ---------------------------------------------------------------

    def successors(self) -> Tuple["BasicBlock", ...]:
        if not self.has_terminator():
            return ()
        return self.terminator.successors()  # type: ignore[return-value]

    def predecessors(self) -> List["BasicBlock"]:
        """Blocks whose terminator targets this block.

        Derived from the use list: every use of a block by a terminator is
        a CFG edge (phi uses are skipped).  A predecessor with multiple
        edges to this block (e.g. both arms of a conditional branch)
        appears once.
        """
        preds: List[BasicBlock] = []
        seen = set()
        for use in self.uses:
            user = use.user
            if (isinstance(user, Instruction) and user.is_terminator
                    and user.parent is not None):
                block = user.parent
                if id(block) not in seen:
                    seen.add(id(block))
                    preds.append(block)
        return preds

    def phis(self) -> List[PhiInst]:
        out: List[PhiInst] = []
        for inst in self.instructions:
            if isinstance(inst, PhiInst):
                out.append(inst)
            else:
                break
        return out

    def first_non_phi_index(self) -> int:
        return len(self.phis())

    # -- misc ----------------------------------------------------------------

    def erase_from_parent(self) -> None:
        """Remove this block from its function, detaching instructions."""
        for inst in list(self.instructions):
            inst.erase()
        if self.parent is not None:
            self.parent.blocks.remove(self)
            self.parent = None

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)


class GlobalValue(Constant):
    """Base for module-level symbols: functions and global variables.

    Global symbols are values of pointer type — taking the "value" of a
    function or global in an operand position means taking its address,
    which is a link-time constant (so globals may appear inside constant
    initializers, e.g. function-pointer tables).
    """

    __slots__ = ("parent", "internal")

    # Unlike literal constants, a symbol belongs to one module, and the
    # call graph, inliner and global optimiser walk its uses.
    records_uses = True

    def __init__(self, type_: Type, name: str, internal: bool = False):
        super().__init__(type_, name)
        self.parent: Optional["Module"] = None
        #: "internal" linkage: not visible outside the module, eligible
        #: for dead-global elimination after linking.
        self.internal = internal

    def literal(self) -> str:
        return "%{0}".format(self.name)

    def ref(self) -> str:
        return "{0} %{1}".format(self.type, self.name)


class GlobalVariable(GlobalValue):
    """A global data object.  Its value is the *address* of the data."""

    __slots__ = ("value_type", "initializer", "is_constant")

    def __init__(self, value_type: Type, name: str,
                 initializer: Optional[Constant] = None,
                 is_constant: bool = False, internal: bool = False):
        super().__init__(types.pointer_to(value_type), name, internal)
        if initializer is not None:
            _check_initializer_type(value_type, initializer, name)
        self.value_type = value_type
        self.initializer = initializer
        self.is_constant = is_constant

    @property
    def is_declaration(self) -> bool:
        return self.initializer is None


def _check_initializer_type(value_type: Type, initializer: Constant,
                            name: str) -> None:
    from repro.ir.values import ConstantZero, UndefValue

    if isinstance(initializer, (ConstantZero, UndefValue)):
        return  # typed by the slot they fill
    if initializer.type is not value_type:
        raise types.LlvaTypeError(
            "initializer for %{0} has type {1}, global is {2}"
            .format(name, initializer.type, value_type))


class Function(GlobalValue):
    """An LLVA function: arguments plus a CFG of basic blocks."""

    __slots__ = ("function_type", "args", "blocks", "smc_version",
                 "is_intrinsic", "_cached_num_instructions")

    def __init__(self, function_type: types.FunctionType, name: str,
                 arg_names: Optional[Sequence[str]] = None,
                 internal: bool = False):
        super().__init__(types.pointer_to(function_type), name, internal)
        self.function_type = function_type
        if arg_names is None:
            arg_names = ["arg{0}".format(i)
                         for i in range(len(function_type.params))]
        if len(arg_names) != len(function_type.params):
            raise ValueError("argument name count mismatch")
        self.args: List[Argument] = []
        for index, (param, arg_name) in enumerate(
                zip(function_type.params, arg_names)):
            arg = Argument(param, arg_name, index)
            arg.function = self
            self.args.append(arg)
        self.blocks: List[BasicBlock] = []
        #: Bumped by the SMC intrinsics (Section 3.4): the translator
        #: invalidates cached native code whose version is stale.
        self.smc_version = 0
        #: Intrinsic functions are implemented by the translator itself
        #: (Section 3.5) and never have LLVA bodies.
        self.is_intrinsic = name.startswith("llva.")
        #: (smc_version, block count, instruction count) memo for
        #: :meth:`cached_num_instructions`.
        self._cached_num_instructions: Optional[Tuple[int, int, int]] = None

    @property
    def return_type(self) -> Type:
        return self.function_type.return_type

    @property
    def is_declaration(self) -> bool:
        return not self.blocks

    @property
    def entry_block(self) -> BasicBlock:
        if not self.blocks:
            raise ValueError(
                "function {0} has no body".format(self.name))
        return self.blocks[0]

    def add_block(self, name: str,
                  before: Optional[BasicBlock] = None) -> BasicBlock:
        block = BasicBlock(self._unique_block_name(name))
        block.parent = self
        if before is None:
            self.blocks.append(block)
        else:
            self.blocks.insert(self.blocks.index(before), block)
        return block

    def _unique_block_name(self, name: str) -> str:
        existing = {b.name for b in self.blocks}
        if name not in existing:
            return name
        counter = 1
        while "{0}.{1}".format(name, counter) in existing:
            counter += 1
        return "{0}.{1}".format(name, counter)

    def instructions(self) -> Iterator[Instruction]:
        """Iterate every instruction in block order."""
        for block in self.blocks:
            yield from block.instructions

    def num_instructions(self) -> int:
        return sum(len(block) for block in self.blocks)

    def cached_num_instructions(self) -> int:
        """:meth:`num_instructions` memoized on ``(smc_version,
        len(blocks))``.

        The hot consumers (JIT translation stats, fast-engine decode)
        re-query the count for every translation of the same function;
        an SMC replacement bumps ``smc_version`` and transforms that
        restructure the CFG change the block count, so either key
        change invalidates the memo.  Passes that rewrite instructions
        *within* existing blocks must reset ``_cached_num_instructions``
        explicitly (see ``llee/pgo.py``).
        """
        key = (self.smc_version, len(self.blocks))
        cached = self._cached_num_instructions
        if cached is not None and cached[:2] == key:
            return cached[2]
        count = self.num_instructions()
        self._cached_num_instructions = key + (count,)
        return count

    def replace_body_from(self, donor: "Function") -> None:
        """Self-modifying code support (Section 3.4).

        Atomically replace this function's body with *donor*'s (which must
        have an identical signature), bumping ``smc_version`` so that
        cached translations are invalidated.  Per the paper's SMC rule,
        only *future invocations* observe the new body; active invocations
        of the old body run to completion (the execution engines snapshot
        the block list at call entry).
        """
        if donor.function_type is not self.function_type:
            raise types.LlvaTypeError(
                "SMC replacement signature mismatch: {0} vs {1}"
                .format(donor.function_type, self.function_type))
        for block in self.blocks:
            block.parent = None
        self.blocks = donor.blocks
        for block in self.blocks:
            block.parent = self
        # Donor argument values flow into the new body; adopt them.
        old_args = self.args
        self.args = donor.args
        for arg in self.args:
            arg.function = self
        donor.blocks = []
        donor.args = old_args
        donor._cached_num_instructions = None
        self.smc_version += 1

    def __iter__(self) -> Iterator[BasicBlock]:
        return iter(self.blocks)


class Module:
    """One virtual object code unit."""

    def __init__(self, name: str = "module",
                 pointer_size: int = 8,
                 endianness: str = Endianness.LITTLE):
        self.name = name
        #: V-ABI configuration flags, "encoded in the object file so that
        #: ... the translator for a different hardware I-ISA can correctly
        #: execute the object code" (Section 3.2).
        self.pointer_size = pointer_size
        self.endianness = endianness
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        #: Named struct types, for printing (%struct.QuadTree = type {...}).
        self.named_types: Dict[str, types.StructType] = {}

    @property
    def target_data(self) -> TargetData:
        return TargetData(self.pointer_size, self.endianness)

    # -- symbol management ---------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions or function.name in self.globals:
            raise ValueError(
                "duplicate symbol {0!r} in module".format(function.name))
        function.parent = self
        self.functions[function.name] = function
        return function

    def create_function(self, name: str, function_type: types.FunctionType,
                        arg_names: Optional[Sequence[str]] = None,
                        internal: bool = False) -> Function:
        return self.add_function(
            Function(function_type, name, arg_names, internal))

    def get_function(self, name: str) -> Function:
        return self.functions[name]

    def get_or_declare_function(
            self, name: str,
            function_type: types.FunctionType) -> Function:
        existing = self.functions.get(name)
        if existing is not None:
            if existing.function_type is not function_type:
                raise types.LlvaTypeError(
                    "conflicting declarations for {0!r}".format(name))
            return existing
        return self.create_function(name, function_type)

    def remove_function(self, function: Function) -> None:
        del self.functions[function.name]
        function.parent = None

    def add_global(self, variable: GlobalVariable) -> GlobalVariable:
        if variable.name in self.globals or variable.name in self.functions:
            raise ValueError(
                "duplicate symbol {0!r} in module".format(variable.name))
        variable.parent = self
        self.globals[variable.name] = variable
        return variable

    def create_global(self, name: str, value_type: Type,
                      initializer: Optional[Constant] = None,
                      is_constant: bool = False,
                      internal: bool = False) -> GlobalVariable:
        return self.add_global(GlobalVariable(
            value_type, name, initializer, is_constant, internal))

    def remove_global(self, variable: GlobalVariable) -> None:
        del self.globals[variable.name]
        variable.parent = None

    def add_named_type(self, name: str,
                       struct: types.StructType) -> types.StructType:
        self.named_types[name] = struct
        return struct

    # -- queries -------------------------------------------------------------

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions.values() if not f.is_declaration]

    def num_instructions(self) -> int:
        """Total LLVA instruction count (the "#LLVA Inst." column of
        Table 2)."""
        return sum(f.num_instructions() for f in self.functions.values())

    def __repr__(self) -> str:
        return "<Module {0!r}: {1} functions, {2} globals>".format(
            self.name, len(self.functions), len(self.globals))
