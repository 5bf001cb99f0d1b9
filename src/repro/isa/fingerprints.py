"""Reunion fingerprints.

Reunion compresses the results of an instruction interval -- register
outputs, branch targets, store addresses and values -- into a small hash (the
*fingerprint*) that the vocal and mute cores exchange and compare before
retirement.  :class:`FingerprintUnit` reproduces that behaviour functionally:
it accumulates per-instruction results and emits a fingerprint every
``interval`` instructions (or on demand, e.g. before a serialising
instruction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.isa.instructions import Instruction

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF


def fingerprint_of(values: List[int]) -> int:
    """Hash a list of integers into a 64-bit fingerprint (FNV-1a style)."""
    acc = _FNV_OFFSET
    for value in values:
        acc ^= value & _MASK64
        acc = (acc * _FNV_PRIME) & _MASK64
    return acc


def instruction_token(iclass_value: int, result: int, store_address: int) -> int:
    """The per-instruction fingerprint input token.

    A stable mix of the instruction class, result value, and store address --
    the same outputs the paper says a fingerprint captures ("all outputs,
    branch targets, and store addresses and values").  ``store_address`` must
    be 0 for anything that is not a store with a data address.  (Python's
    hash of small ints is deterministic, so no per-process salting can creep
    in here.)
    """
    return (
        iclass_value * 0x9E3779B1 ^ result * 0x85EBCA77 ^ store_address
    ) & _MASK64


@dataclass
class Fingerprint:
    """One emitted fingerprint of an interval's instructions."""

    value: int


@dataclass
class FingerprintUnit:
    """Accumulates instruction results and emits interval fingerprints.

    Parameters
    ----------
    interval:
        Number of instructions summarised by one fingerprint (the paper and
        the Reunion proposal leave this as a design parameter; the default of
        16 matches :class:`repro.config.system.ReunionConfig`).
    """

    interval: int = 16
    _pending: List[int] = field(default_factory=list, init=False)

    def observe(self, instruction: Instruction) -> Optional[Fingerprint]:
        """Record one committed instruction; return a fingerprint if due.

        The fingerprint input mixes the instruction class, result value, and
        store address -- see :func:`instruction_token`.  The timing model's
        hot path appends the same tokens to ``_pending`` inline.
        """
        token = instruction_token(
            instruction.iclass.value,
            instruction.result,
            instruction.address if instruction.is_store and instruction.address else 0,
        )
        self._pending.append(token)
        if len(self._pending) >= self.interval:
            return self.flush()
        return None

    def flush(self) -> Optional[Fingerprint]:
        """Emit a fingerprint for any pending instructions (or ``None``)."""
        if not self._pending:
            return None
        fingerprint = Fingerprint(value=fingerprint_of(self._pending))
        self._pending.clear()
        return fingerprint

    @property
    def pending_count(self) -> int:
        """Number of instructions accumulated since the last fingerprint."""
        return len(self._pending)
