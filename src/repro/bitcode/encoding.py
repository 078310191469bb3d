"""Primitive encodings for LLVA virtual object code.

Section 3.1: "To support an infinite register set, we use a self-extending
instruction encoding, but define a fixed-size 32-bit format to hold small
instructions for compactness and translator efficiency."

The concrete scheme here:

* **Short form** — one big-endian ``uint32``, so that the form marker
  is the first byte of the stream, where the decoder peeks for it::

      bit 31      = 0  (short-form marker)
      bit 30      = ExceptionsEnabled differs from the opcode default
      bits 24-29  = opcode (6 bits: 64 fit; the table has 37, Table 1's
                    28 plus the 9 of the vector extension)
      bits 18-23  = result type index (6 bits)
      bits  9-17  = operand 1 value id (9 bits; 0x1FF = absent)
      bits  0-8   = operand 0 value id (9 bits; 0x1FF = absent)

  Usable whenever an instruction has at most two operands, a small type
  index, and small operand ids — which covers the bulk of real code and
  is what makes virtual object code smaller than native code (Table 2).

* **Long form** — the self-extension escape: a marker byte ``0x80 |
  flags`` followed by opcode byte, then VBR-coded type index, operand
  count, and operand ids.

* **VBR** — LEB128 variable-byte encoding for unsigned ints, with zigzag
  for signed values.
"""

from __future__ import annotations

import struct
from typing import List, Tuple

SHORT_ABSENT = 0x1FF
SHORT_MAX_OPERAND = 0x1FE
SHORT_MAX_TYPE = 0x3F
LONG_MARKER = 0x80


class BitcodeError(Exception):
    """Malformed virtual object code."""


# ---------------------------------------------------------------------------
# Byte streams
# ---------------------------------------------------------------------------

class Writer:
    """An append-only byte buffer with the primitive encoders."""

    def __init__(self):
        self._chunks: List[bytes] = []
        #: Short/long instruction form counters (the compactness ablation).
        self.short_instructions = 0
        self.long_instructions = 0

    def getvalue(self) -> bytes:
        return b"".join(self._chunks)

    def raw(self, data: bytes) -> None:
        self._chunks.append(data)

    def u8(self, value: int) -> None:
        self._chunks.append(bytes((value & 0xFF,)))

    def u32(self, value: int) -> None:
        self._chunks.append(struct.pack("<I", value & 0xFFFFFFFF))

    def f64(self, value: float) -> None:
        self._chunks.append(struct.pack("<d", value))

    def vbr(self, value: int) -> None:
        """LEB128 unsigned."""
        if value < 0:
            raise BitcodeError("vbr of negative value")
        out = bytearray()
        while True:
            byte = value & 0x7F
            value >>= 7
            if value:
                out.append(byte | 0x80)
            else:
                out.append(byte)
                break
        self._chunks.append(bytes(out))

    def svbr(self, value: int) -> None:
        """Zigzag-coded signed VBR."""
        self.vbr((value << 1) ^ (value >> 63) if value < 0
                 else (value << 1))

    def string(self, text: str) -> None:
        data = text.encode("utf-8")
        self.vbr(len(data))
        self.raw(data)

    # -- instruction forms ------------------------------------------------------

    def short_instruction(self, opcode_index: int, ee_flag: bool,
                          type_index: int, operands: Tuple[int, ...]
                          ) -> None:
        word = 0
        if ee_flag:
            word |= 1 << 30
        word |= (opcode_index & 0x3F) << 24
        word |= (type_index & 0x3F) << 18
        op0 = operands[0] if len(operands) > 0 else SHORT_ABSENT
        op1 = operands[1] if len(operands) > 1 else SHORT_ABSENT
        word |= (op1 & 0x1FF) << 9
        word |= op0 & 0x1FF
        # Big-endian, so the form marker (bit 31) is in the first byte of
        # the stream, where the decoder peeks for it.
        self.raw(struct.pack(">I", word))
        self.short_instructions += 1

    def long_instruction(self, opcode_index: int, ee_flag: bool,
                         type_index: int, operands: Tuple[int, ...]
                         ) -> None:
        self.u8(LONG_MARKER | (1 if ee_flag else 0))
        self.u8(opcode_index)
        self.vbr(type_index)
        self.vbr(len(operands))
        for operand in operands:
            self.vbr(operand)
        self.long_instructions += 1

    #: Ablation knob: force every instruction into the long form to
    #: measure what the fixed 32-bit short format buys (Section 3.1).
    force_long_form = False

    def instruction(self, opcode_index: int, ee_flag: bool,
                    type_index: int, operands: Tuple[int, ...]) -> None:
        """Emit in short form when it fits, long form otherwise."""
        if (not self.force_long_form
                and len(operands) <= 2 and type_index <= SHORT_MAX_TYPE
                and all(op <= SHORT_MAX_OPERAND for op in operands)):
            self.short_instruction(opcode_index, ee_flag, type_index,
                                   operands)
        else:
            self.long_instruction(opcode_index, ee_flag, type_index,
                                  operands)


class Reader:
    """Sequential decoder over a bytes object."""

    def __init__(self, data: bytes):
        self.data = data
        self.position = 0

    def eof(self) -> bool:
        return self.position >= len(self.data)

    def raw(self, size: int) -> bytes:
        if self.position + size > len(self.data):
            raise BitcodeError("truncated object code")
        out = self.data[self.position:self.position + size]
        self.position += size
        return out

    def u8(self) -> int:
        return self.raw(1)[0]

    def peek_u8(self) -> int:
        if self.position >= len(self.data):
            raise BitcodeError("truncated object code")
        return self.data[self.position]

    def u32(self) -> int:
        return struct.unpack("<I", self.raw(4))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.raw(8))[0]

    def vbr(self) -> int:
        result = 0
        shift = 0
        while True:
            byte = self.u8()
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return result
            shift += 7
            if shift > 70:
                raise BitcodeError("runaway vbr")

    def svbr(self) -> int:
        raw = self.vbr()
        return (raw >> 1) ^ -(raw & 1)

    def string(self) -> str:
        length = self.vbr()
        return self.raw(length).decode("utf-8")

    def instruction(self) -> Tuple[int, bool, int, Tuple[int, ...]]:
        """Decode one instruction: (opcode_index, ee_flag, type_index,
        operand ids)."""
        marker = self.peek_u8()
        if marker & LONG_MARKER:
            self.u8()
            ee_flag = bool(marker & 1)
            opcode_index = self.u8()
            type_index = self.vbr()
            count = self.vbr()
            operands = tuple(self.vbr() for _ in range(count))
            return opcode_index, ee_flag, type_index, operands
        word = struct.unpack(">I", self.raw(4))[0]
        ee_flag = bool(word & (1 << 30))
        opcode_index = (word >> 24) & 0x3F
        type_index = (word >> 18) & 0x3F
        op0 = word & 0x1FF
        op1 = (word >> 9) & 0x1FF
        operands: Tuple[int, ...]
        if op0 == SHORT_ABSENT:
            operands = ()
        elif op1 == SHORT_ABSENT:
            operands = (op0,)
        else:
            operands = (op0, op1)
        return opcode_index, ee_flag, type_index, operands
