"""Reunion DMR pairing and fingerprint comparison.

:class:`ReunionPair` binds a vocal and a mute core into one logical
processor.  Functionally it maintains one fingerprint unit per core, feeds
both with the results of each committed instruction (the fault injector may
perturb one side), and compares the fingerprints when an interval completes.
A mismatch is *detection*: the pair squashes, resynchronises through the
serial request path, and re-executes -- modelled as a fixed recovery penalty.

A key property the paper relies on (Section 3.5) is that Reunion lets *any*
core act as vocal or mute for any other core, which is what makes MMM-TP's
dynamic pairing practical; the pair object is therefore cheap to create and
discard as the hardware scheduler re-forms pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.config.system import ReunionConfig
from repro.errors import SchedulingError
from repro.isa.fingerprints import FingerprintUnit
from repro.isa.instructions import Instruction


@dataclass(frozen=True)
class CheckOutcome:
    """Result of comparing one pair of fingerprints."""

    matched: bool
    penalty_cycles: int


class ReunionPair:
    """A vocal/mute pair redundantly executing one VCPU.

    The timing model feeds the fingerprint units only while a fault hook is
    attached.  Without one both units would receive the same token for every
    instruction, so every comparison would match and cost nothing;
    ``CoreTimingModel.run_quantum_reference`` feeds them anyway, as the
    check that skipping them is exact.  Either loop synchronises the pair
    before each serialising instruction and when the quantum ends, so no
    interval goes uncompared, and logs every mismatch as ``DMR_DETECTED``.
    """

    def __init__(
        self,
        vocal_core_id: int,
        mute_core_id: int,
        config: ReunionConfig,
    ) -> None:
        if vocal_core_id == mute_core_id:
            raise SchedulingError("a DMR pair needs two distinct cores")
        self.vocal_core_id = vocal_core_id
        self.mute_core_id = mute_core_id
        self.config = config
        self.vocal_unit = FingerprintUnit(interval=config.fingerprint_interval)
        self.mute_unit = FingerprintUnit(interval=config.fingerprint_interval)

    def observe_commit(
        self,
        instruction: Instruction,
        vocal_corrupted: bool = False,
        mute_corrupted: bool = False,
    ) -> Optional[CheckOutcome]:
        """Feed one committed instruction into both fingerprint units.

        ``vocal_corrupted`` / ``mute_corrupted`` model a hardware fault that
        changed that core's architectural result for this instruction.  When
        the fingerprint interval completes, the fingerprints are compared and
        a :class:`CheckOutcome` is returned (``None`` mid-interval).
        """
        mute_view = instruction
        if vocal_corrupted or mute_corrupted:
            # Perturb the affected side's result so the fingerprints diverge.
            mute_view = Instruction(
                iclass=instruction.iclass,
                privilege=instruction.privilege,
                address=instruction.address,
                result=instruction.result ^ (0x1 if mute_corrupted else 0x0),
                is_shared=instruction.is_shared,
            )
            vocal_view = Instruction(
                iclass=instruction.iclass,
                privilege=instruction.privilege,
                address=instruction.address,
                result=instruction.result ^ (0x2 if vocal_corrupted else 0x0),
                is_shared=instruction.is_shared,
            )
        else:
            vocal_view = instruction

        vocal_fp = self.vocal_unit.observe(vocal_view)
        mute_fp = self.mute_unit.observe(mute_view)
        if vocal_fp is None and mute_fp is None:
            return None
        # Both units share the same interval, so they emit together.
        if vocal_fp is None or mute_fp is None:
            # Defensive: force the lagging unit to emit so the pair stays in
            # lock step (can only happen if a caller mixed streams).
            vocal_fp = vocal_fp or self.vocal_unit.flush()
            mute_fp = mute_fp or self.mute_unit.flush()
        return self._compare(vocal_fp, mute_fp)

    def synchronize(self) -> Optional[CheckOutcome]:
        """Force a fingerprint comparison for any partial interval.

        Used before serialising instructions and when a quantum ends, where
        the pair must agree on architected state before proceeding.
        """
        vocal_fp = self.vocal_unit.flush()
        mute_fp = self.mute_unit.flush()
        if vocal_fp is None and mute_fp is None:
            return None
        if vocal_fp is None or mute_fp is None:
            return CheckOutcome(
                matched=False, penalty_cycles=self.config.recovery_penalty_cycles
            )
        return self._compare(vocal_fp, mute_fp)

    def _compare(self, vocal_fp, mute_fp) -> CheckOutcome:
        if vocal_fp.value == mute_fp.value:
            return CheckOutcome(matched=True, penalty_cycles=0)
        return CheckOutcome(
            matched=False, penalty_cycles=self.config.recovery_penalty_cycles
        )

    @property
    def cores(self) -> tuple[int, int]:
        """``(vocal, mute)`` core identifiers."""
        return (self.vocal_core_id, self.mute_core_id)
