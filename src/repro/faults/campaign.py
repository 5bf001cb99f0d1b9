"""Fault-injection coverage campaigns.

A campaign answers the qualitative protection questions of Sections 2.1 and
3.4 of the paper by injecting individual faults into the *real* protection
components and classifying what happens:

* execution faults on a DMR pair are detected by fingerprint comparison;
* store-address faults in performance mode are blocked by the PAB (and
  silently corrupt reliable memory when the PAB is disabled);
* privileged-register corruption in performance mode is caught by the
  Enter-DMR verification step;
* faults whose effect stays within the performance application's own memory
  are *contained* -- exactly the trade-off a performance application accepts.

The campaign is decomposed into independent *trials*: every trial is fully
identified by ``(configuration, fault site, seed, trial index)`` and draws
its randomness from an rng forked from exactly that identity
(:func:`trial_rng`), so its outcome does not depend on which other trials
ran, in which order, or in which process.  A trial ends in one
:class:`~repro.faults.outcomes.FaultOutcome`.  The ``faults`` job kind of
:mod:`repro.faults.cells` counts the outcomes of one contiguous run of
trials per cell, while :meth:`FaultInjectionCampaign.run` remains the inline
driver for small interactive studies; both count the same trials alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.addresses import AddressSpaceLayout
from repro.common.rng import DeterministicRng
from repro.config.system import ReunionConfig, SystemConfig
from repro.dmr.reunion import ReunionPair
from repro.errors import FaultInjectionError
from repro.faults.outcomes import CoverageReport, FaultOutcome
from repro.isa.instructions import Instruction, InstructionClass, PrivilegeLevel
from repro.isa.registers import ArchitecturalState
from repro.protection.pab import ProtectionAssistanceBuffer
from repro.protection.pat import ProtectionAssistanceTable


@dataclass(frozen=True)
class CampaignConfiguration:
    """Which protection mechanisms are active for a set of trials."""

    name: str
    dmr_active: bool
    pab_active: bool
    #: Whether Enter-DMR verification of privileged registers happens (it
    #: always does in an MMM; disabling it models a naive design that simply
    #: turns DMR off and on).
    transition_verification: bool = True


#: The three configurations the paper implicitly compares: a traditional DMR
#: machine, an MMM with its protection mechanisms, and a naive design that
#: turns DMR off without adding any protection.
DEFAULT_CONFIGURATIONS: Sequence[CampaignConfiguration] = (
    CampaignConfiguration(name="always-dmr", dmr_active=True, pab_active=False),
    CampaignConfiguration(name="mmm", dmr_active=False, pab_active=True),
    CampaignConfiguration(
        name="naive-mode-switch",
        dmr_active=False,
        pab_active=False,
        transition_verification=False,
    ),
)

#: Belt-and-braces design point: DMR *and* the PAB active at once (the MMM
#: hardware supports it; the paper argues it is redundant).  Part of the
#: extended fault-space sweep.
PAB_WITH_DMR = CampaignConfiguration(name="dmr-plus-pab", dmr_active=True, pab_active=True)

#: The extended configuration set swept by the fault-space studies.
SWEEP_CONFIGURATIONS: Sequence[CampaignConfiguration] = (
    *DEFAULT_CONFIGURATIONS,
    PAB_WITH_DMR,
)

#: The fault-site trial families of the campaign, in presentation order.
#: Each name keys one trial routine of :class:`FaultInjectionCampaign`.
TRIAL_SITES: Tuple[str, ...] = (
    "execution-result",
    "store-reliable",
    "store-performance",
    "privileged-register",
)


def trial_rng(seed: int, configuration: str, site: str, index: int) -> DeterministicRng:
    """The rng of one trial, derived from the trial's full identity.

    Forking from ``(seed, configuration, site, index)`` -- never from a
    shared sequential stream -- is what makes trial outcomes independent of
    how trials are grouped into cells and of the order cells execute in.
    """
    return DeterministicRng(seed).fork(f"fault-campaign/{configuration}/{site}/{index}")


class FaultInjectionCampaign:
    """Runs functional fault-injection trials against the protection stack."""

    def __init__(self, config: SystemConfig, seed: int = 0) -> None:
        self.config = config
        self.seed = seed
        self.layout = AddressSpaceLayout(num_vms=2)
        self.pat = ProtectionAssistanceTable(
            physical_memory_bytes=self.layout.total_bytes,
            page_size=config.pab.page_bytes,
            backing_region=self.layout.pat_region(),
        )
        # VM 0 is the reliable guest: its memory (and the VMM structures) are
        # reliable-only; VM 1 is the performance guest.
        self.pat.mark_reliable_region(self.layout.vm_region(0))
        self.pat.mark_reliable_region(self.layout.scratchpad_region())
        self.pat.mark_reliable_region(self.layout.pat_region())

    # ------------------------------------------------------------------ #
    # Individual trials
    # ------------------------------------------------------------------ #

    def _reliable_address(self, rng: DeterministicRng) -> int:
        region = self.layout.user_region(0)
        return rng.sample_address(region.base, region.size, 64)

    def _performance_address(self, rng: DeterministicRng) -> int:
        region = self.layout.user_region(1)
        return rng.sample_address(region.base, region.size, 64)

    @staticmethod
    def _masked_by_rate(rng: DeterministicRng, fault_rate: float) -> bool:
        """Whether rate scaling decides the fault never strikes."""
        return fault_rate < 1.0 and not rng.chance(fault_rate)

    def _store_allowed(self, target: int) -> bool:
        """Whether the PAB's physical-address permission check lets a
        performance-mode store to ``target`` through."""
        pab = ProtectionAssistanceBuffer(
            config=self.config.pab, pat=self.pat, core_id=0, hierarchy=None
        )
        return pab.check_store(target).allowed

    def _trial_execution_fault(
        self,
        configuration: CampaignConfiguration,
        rng: DeterministicRng,
        fault_rate: float,
    ) -> FaultOutcome:
        if self._masked_by_rate(rng, fault_rate):
            return FaultOutcome.MASKED
        if not configuration.dmr_active:
            # Without redundancy the corrupted result lands in the performance
            # application's own state: tolerated, but only within its domain.
            return FaultOutcome.CONTAINED_TO_PERFORMANCE_DOMAIN
        pair = ReunionPair(
            vocal_core_id=0,
            mute_core_id=1,
            config=ReunionConfig(fingerprint_interval=4),
        )
        for index in range(8):
            instruction = Instruction(
                iclass=InstructionClass.ALU,
                privilege=PrivilegeLevel.USER,
                result=rng.randint(0, 0xFFFF),
            )
            check = pair.observe_commit(instruction, mute_corrupted=(index == 2))
            if check is not None and not check.matched:
                return FaultOutcome.DETECTED_DMR
        return FaultOutcome.MASKED

    def _trial_store_address_fault(
        self,
        configuration: CampaignConfiguration,
        rng: DeterministicRng,
        fault_rate: float,
    ) -> FaultOutcome:
        target = self._reliable_address(rng)
        if self._masked_by_rate(rng, fault_rate):
            return FaultOutcome.MASKED
        if configuration.dmr_active:
            # The corrupted address differs between vocal and mute, so the
            # store's fingerprint mismatches before it can retire.
            return FaultOutcome.DETECTED_DMR
        if configuration.pab_active and not self._store_allowed(target):
            return FaultOutcome.DETECTED_PAB
        # No check on the store path stopped it.
        return FaultOutcome.SILENT_CORRUPTION

    def _trial_store_within_domain(
        self,
        configuration: CampaignConfiguration,
        rng: DeterministicRng,
        fault_rate: float,
    ) -> FaultOutcome:
        target = self._performance_address(rng)
        if self._masked_by_rate(rng, fault_rate):
            return FaultOutcome.MASKED
        if configuration.dmr_active:
            return FaultOutcome.DETECTED_DMR
        if configuration.pab_active and not self._store_allowed(target):
            return FaultOutcome.DETECTED_PAB
        # The corrupted store stays inside the performance VM's memory.
        return FaultOutcome.CONTAINED_TO_PERFORMANCE_DOMAIN

    def _trial_privileged_register_fault(
        self,
        configuration: CampaignConfiguration,
        rng: DeterministicRng,
        fault_rate: float,
    ) -> FaultOutcome:
        if self._masked_by_rate(rng, fault_rate):
            return FaultOutcome.MASKED
        if configuration.dmr_active:
            # Register writes are fingerprinted.
            return FaultOutcome.DETECTED_DMR
        if not configuration.transition_verification:
            # Nothing verifies the registers when the core re-enters DMR.
            return FaultOutcome.SILENT_CORRUPTION
        live = ArchitecturalState()
        redundant = live.copy()
        live.privileged["tba"] ^= 0x40
        ok, _ = live.verify_privileged_against(redundant)
        return FaultOutcome.MASKED if ok else FaultOutcome.DETECTED_TRANSITION

    # ------------------------------------------------------------------ #
    # Campaign driver
    # ------------------------------------------------------------------ #

    def run_trial(
        self,
        configuration: CampaignConfiguration,
        site: str,
        index: int,
        fault_rate: float = 1.0,
    ) -> FaultOutcome:
        """Run the ``index``-th trial of one (configuration, site) family.

        Deterministic in ``(seed, configuration, site, index, fault_rate)``
        alone -- see :func:`trial_rng`.
        """
        try:
            handler = _TRIAL_HANDLERS[site]
        except KeyError:
            known = ", ".join(TRIAL_SITES)
            raise FaultInjectionError(
                f"unknown fault-trial site {site!r} (known sites: {known})"
            ) from None
        rng = trial_rng(self.seed, configuration.name, site, index)
        return handler(self, configuration, rng, fault_rate)

    def run(
        self,
        trials_per_site: int = 25,
        configurations: Sequence[CampaignConfiguration] = DEFAULT_CONFIGURATIONS,
        fault_rate: float = 1.0,
    ) -> List[CoverageReport]:
        """Run ``trials_per_site`` trials of every fault class per configuration."""
        if trials_per_site < 1:
            raise FaultInjectionError("trials_per_site must be at least 1")
        reports: List[CoverageReport] = []
        for configuration in configurations:
            report = CoverageReport(configuration=configuration.name)
            report.counts.update(
                self.run_trial(configuration, site, index, fault_rate)
                for site in TRIAL_SITES
                for index in range(trials_per_site)
            )
            reports.append(report)
        return reports


#: Trial routine per fault site; keys are the :data:`TRIAL_SITES` names.
_TRIAL_HANDLERS: Dict[str, object] = {
    "execution-result": FaultInjectionCampaign._trial_execution_fault,
    "store-reliable": FaultInjectionCampaign._trial_store_address_fault,
    "store-performance": FaultInjectionCampaign._trial_store_within_domain,
    "privileged-register": FaultInjectionCampaign._trial_privileged_register_fault,
}
