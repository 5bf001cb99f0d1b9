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
ran, in which order, or in which process.  :func:`run_trial_chunk` is the
picklable unit of work the experiment engine executes -- see
:mod:`repro.faults.cells` for the ``faults`` job kind built on top --
while :meth:`FaultInjectionCampaign.run` remains the inline convenience
driver for small interactive studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.common.addresses import AddressSpaceLayout
from repro.common.rng import DeterministicRng
from repro.config.system import ReunionConfig, SystemConfig
from repro.dmr.reunion import ReunionPair
from repro.errors import FaultInjectionError
from repro.faults.models import FaultSite, FaultSpec, FaultType
from repro.faults.outcomes import CoverageReport, FaultOutcome, TrialRecord
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
    def _masked_by_rate(
        rng: DeterministicRng, fault_rate: float, spec: FaultSpec,
        configuration: CampaignConfiguration,
    ) -> TrialRecord | None:
        """A MASKED record when rate scaling decides the fault never strikes."""
        if fault_rate >= 1.0 or rng.chance(fault_rate):
            return None
        return TrialRecord(
            spec=spec,
            outcome=FaultOutcome.MASKED,
            configuration=configuration.name,
            detail="fault did not strike at this fault-rate scale",
        )

    def _trial_execution_fault(
        self,
        configuration: CampaignConfiguration,
        rng: DeterministicRng,
        fault_rate: float = 1.0,
    ) -> TrialRecord:
        spec = FaultSpec(site=FaultSite.EXECUTION_RESULT, fault_type=FaultType.TRANSIENT)
        masked = self._masked_by_rate(rng, fault_rate, spec, configuration)
        if masked is not None:
            return masked
        if not configuration.dmr_active:
            # Without redundancy the corrupted result lands in the performance
            # application's own state: tolerated, but only within its domain.
            return TrialRecord(
                spec=spec,
                outcome=FaultOutcome.CONTAINED_TO_PERFORMANCE_DOMAIN,
                configuration=configuration.name,
                detail="no redundancy: corruption confined to the faulty application",
            )
        pair = ReunionPair(
            vocal_core_id=0,
            mute_core_id=1,
            config=ReunionConfig(fingerprint_interval=4),
        )
        outcome = FaultOutcome.MASKED
        for seq in range(8):
            instruction = Instruction(
                seq=seq,
                iclass=InstructionClass.ALU,
                privilege=PrivilegeLevel.USER,
                result=rng.randint(0, 0xFFFF),
            )
            check = pair.observe_commit(instruction, mute_corrupted=(seq == 2))
            if check is not None and not check.matched:
                outcome = FaultOutcome.DETECTED_DMR
                break
        return TrialRecord(
            spec=spec,
            outcome=outcome,
            configuration=configuration.name,
            detail="fingerprint comparison",
        )

    def _trial_store_address_fault(
        self,
        configuration: CampaignConfiguration,
        rng: DeterministicRng,
        fault_rate: float = 1.0,
    ) -> TrialRecord:
        target = self._reliable_address(rng)
        spec = FaultSpec(
            site=FaultSite.STORE_ADDRESS_PATH,
            fault_type=FaultType.TRANSIENT,
            target_address=target,
        ).validate()
        masked = self._masked_by_rate(rng, fault_rate, spec, configuration)
        if masked is not None:
            return masked
        if configuration.dmr_active:
            # The corrupted address differs between vocal and mute, so the
            # store's fingerprint mismatches before it can retire.
            return TrialRecord(
                spec=spec,
                outcome=FaultOutcome.DETECTED_DMR,
                configuration=configuration.name,
                detail="store address diverges the fingerprints",
            )
        if configuration.pab_active:
            pab = ProtectionAssistanceBuffer(
                config=self.config.pab, pat=self.pat, core_id=0, hierarchy=None
            )
            check = pab.check_store(target)
            outcome = (
                FaultOutcome.DETECTED_PAB if not check.allowed else FaultOutcome.SILENT_CORRUPTION
            )
            return TrialRecord(
                spec=spec,
                outcome=outcome,
                configuration=configuration.name,
                detail="PAB physical-address permission check",
            )
        return TrialRecord(
            spec=spec,
            outcome=FaultOutcome.SILENT_CORRUPTION,
            configuration=configuration.name,
            detail="no redundant permission check on the store path",
        )

    def _trial_store_within_domain(
        self,
        configuration: CampaignConfiguration,
        rng: DeterministicRng,
        fault_rate: float = 1.0,
    ) -> TrialRecord:
        target = self._performance_address(rng)
        spec = FaultSpec(
            site=FaultSite.STORE_ADDRESS_PATH,
            fault_type=FaultType.TRANSIENT,
            target_address=target,
        ).validate()
        masked = self._masked_by_rate(rng, fault_rate, spec, configuration)
        if masked is not None:
            return masked
        if configuration.dmr_active:
            return TrialRecord(
                spec=spec,
                outcome=FaultOutcome.DETECTED_DMR,
                configuration=configuration.name,
                detail="store address diverges the fingerprints",
            )
        if configuration.pab_active:
            pab = ProtectionAssistanceBuffer(
                config=self.config.pab, pat=self.pat, core_id=0, hierarchy=None
            )
            check = pab.check_store(target)
            outcome = (
                FaultOutcome.CONTAINED_TO_PERFORMANCE_DOMAIN
                if check.allowed
                else FaultOutcome.DETECTED_PAB
            )
            return TrialRecord(
                spec=spec,
                outcome=outcome,
                configuration=configuration.name,
                detail="corrupted store stays inside the performance VM's memory",
            )
        return TrialRecord(
            spec=spec,
            outcome=FaultOutcome.CONTAINED_TO_PERFORMANCE_DOMAIN,
            configuration=configuration.name,
            detail="corrupted store stays inside the performance VM's memory",
        )

    def _trial_privileged_register_fault(
        self,
        configuration: CampaignConfiguration,
        rng: DeterministicRng,
        fault_rate: float = 1.0,
    ) -> TrialRecord:
        spec = FaultSpec(
            site=FaultSite.PRIVILEGED_REGISTER,
            fault_type=FaultType.TRANSIENT,
            register_name="tba",
        ).validate()
        masked = self._masked_by_rate(rng, fault_rate, spec, configuration)
        if masked is not None:
            return masked
        if configuration.dmr_active:
            return TrialRecord(
                spec=spec,
                outcome=FaultOutcome.DETECTED_DMR,
                configuration=configuration.name,
                detail="register writes are fingerprinted",
            )
        live = ArchitecturalState()
        redundant = live.copy()
        live.privileged["tba"] ^= 0x40
        if configuration.transition_verification:
            ok, mismatches = live.verify_privileged_against(redundant)
            outcome = (
                FaultOutcome.DETECTED_TRANSITION if not ok else FaultOutcome.MASKED
            )
            detail = f"Enter-DMR verification mismatches: {', '.join(mismatches)}"
        else:
            outcome = FaultOutcome.SILENT_CORRUPTION
            detail = "no verification when re-entering DMR"
        return TrialRecord(
            spec=spec, outcome=outcome, configuration=configuration.name, detail=detail
        )

    # ------------------------------------------------------------------ #
    # Campaign driver
    # ------------------------------------------------------------------ #

    def run_trial(
        self,
        configuration: CampaignConfiguration,
        site: str,
        index: int,
        fault_rate: float = 1.0,
    ) -> TrialRecord:
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
            for site in TRIAL_SITES:
                for index in range(trials_per_site):
                    report.record(self.run_trial(configuration, site, index, fault_rate))
            reports.append(report)
        return reports


#: Trial routine per fault site; keys are the :data:`TRIAL_SITES` names.
_TRIAL_HANDLERS: Dict[str, object] = {
    "execution-result": FaultInjectionCampaign._trial_execution_fault,
    "store-reliable": FaultInjectionCampaign._trial_store_address_fault,
    "store-performance": FaultInjectionCampaign._trial_store_within_domain,
    "privileged-register": FaultInjectionCampaign._trial_privileged_register_fault,
}


def run_trial_chunk(
    config: SystemConfig,
    configuration: CampaignConfiguration,
    site: str,
    seed: int,
    first_trial: int,
    trials: int,
    fault_rate: float = 1.0,
) -> List[TrialRecord]:
    """Run one contiguous chunk of a (configuration, site, seed) trial family.

    This is the picklable unit of work behind the ``faults`` job kind: a
    process-pool worker rebuilds the (cheap) campaign context and runs trials
    ``first_trial .. first_trial + trials - 1``.  Because every trial's rng
    comes from :func:`trial_rng`, the concatenation of any chunking of the
    same family is identical to running it in one piece.
    """
    if trials < 1:
        raise FaultInjectionError("a trial chunk needs at least one trial")
    campaign = FaultInjectionCampaign(config=config, seed=seed)
    return [
        campaign.run_trial(configuration, site, index, fault_rate)
        for index in range(first_trial, first_trial + trials)
    ]
