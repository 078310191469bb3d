"""Runtime events shared by the interpreter and the machine simulator.

Section 3.3's exception model in executable form:

* Each instruction defines a set of possible exception conditions.
* Delivered exceptions are *precise* with respect to visible LLVA state.
* The per-instruction ``ExceptionsEnabled`` attribute masks delivery
  statically; ``llva.exceptions.set`` masks it dynamically.

Exceptions that reach the top of the LLVA stack without a registered trap
handler escape to the host as :class:`ExecutionTrap`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro import observe


class TrapKind:
    """Architectural trap numbers for the V-ABI."""

    MEMORY_FAULT = 1
    DIVIDE_BY_ZERO = 2
    INTEGER_OVERFLOW = 3
    STACK_OVERFLOW = 4
    PRIVILEGE_VIOLATION = 5
    SOFTWARE_TRAP = 6
    UNALIGNED_ACCESS = 7

    NAMES: Dict[int, str] = {
        1: "memory-fault",
        2: "divide-by-zero",
        3: "integer-overflow",
        4: "stack-overflow",
        5: "privilege-violation",
        6: "software-trap",
        7: "unaligned-access",
    }

    #: Exception-condition strings (Instruction.possible_exceptions) to
    #: trap numbers.
    BY_CONDITION: Dict[str, int] = {
        "memory-fault": 1,
        "divide-by-zero": 2,
        "integer-overflow": 3,
        "stack-overflow": 4,
    }


class ExecutionTrap(Exception):
    """A precise LLVA exception that was not handled by any trap handler."""

    #: Diagnostic traps (sanitizer reports) override this so the engines
    #: deliver them even when the faulting instruction's
    #: ExceptionsEnabled bit is cleared.
    unmaskable = False

    def __init__(self, trap_number: int, detail: str = "",
                 address: Optional[int] = None):
        name = TrapKind.NAMES.get(trap_number, "trap")
        message = "{0} (trap {1})".format(name, trap_number)
        if detail:
            message += ": " + detail
        super().__init__(message)
        self.trap_number = trap_number
        self.detail = detail
        self.address = address


class UnwindSignal(Exception):
    """Control transfer raised by the ``unwind`` instruction.

    Propagates through ``call`` frames and is caught by the dynamically
    nearest ``invoke``, which resumes at its unwind destination
    (Section 3.1's portable stack-unwinding mechanism).
    """


class ExitRequest(Exception):
    """Raised by the runtime ``exit`` routine to stop the program."""

    def __init__(self, status: int):
        super().__init__("exit({0})".format(status))
        self.status = status


def note_unhandled(engine: str, trap_number: int, detail: str) -> None:
    """Record a trap that no handler takes: one ``trap.unhandled``
    event, and the tail of the event ring on stderr (once per
    tracer)."""
    if observe.enabled():
        observe.event("trap.unhandled", engine=engine, trap=trap_number,
                      detail=detail)
        observe.autodump("unhandled trap {0}".format(trap_number))
