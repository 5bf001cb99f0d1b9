"""Seeded generation of random-but-valid dynamic scenarios.

A fuzz *scenario* is everything one simulation cell needs: a roster of
:class:`~repro.core.machine.VmSpec` guests, a mapping policy, a (total,
warmup) horizon and an ordered :class:`~repro.sim.timeline.Timeline`
drawing from all seven event kinds.
Scenarios are random but *valid by construction*: the generator walks the
timeline in cycle order with a model of the machine's lifecycle state (which
VMs are active, which cores are retired) and only emits events the machine's
guards accept at that point -- a ``VmDeparted`` never drains the last active
VM, a ``CoreFailed`` never retires the pool below three healthy cores, a
``CoreRepaired`` always names a retired core.  The model is prefix-closed,
so the events beyond the run's horizon (deliberately generated to exercise
the pending-event ledger) would also apply cleanly if the horizon grew.

``PERFORMANCE_USER_ONLY`` is deliberately absent from the generated mode
pool: a user-only VCPU switches modes at every OS entry and exit, which
needs a reserved partner core, so on any mixed-mode policy except MMM-IPC it
is a configuration error, and drawing it would fuzz the *configuration
validator* rather than the lifecycle machinery.

All randomness flows through identity-derived
:class:`~repro.common.rng.DeterministicRng` forks, so a scenario is a pure
function of ``(settings, profile, case, seed)``: cells stay cacheable and
byte-identical across backends and job chunking.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Set, Tuple

from repro.common.rng import DeterministicRng
from repro.core.machine import VmSpec
from repro.errors import ExperimentError
from repro.sim.settings import ExperimentSettings
from repro.sim.timeline import (
    CoreFailed,
    CoreRepaired,
    FaultRateBurst,
    PolicyChanged,
    ReliabilityModeChanged,
    Timeline,
    TimelineEvent,
    VmArrived,
    VmDeparted,
)
from repro.virt.vcpu import ReliabilityMode

__all__ = [
    "FUZZ_PROFILES",
    "PROFILE_NAMES",
    "FuzzProfile",
    "FuzzScenario",
    "generate_scenario",
    "parse_case_id",
]

#: Policies a scenario may start under or hot-swap to mid-run.
POLICY_POOL: Tuple[str, ...] = (
    "no-dmr",
    "dmr-base",
    "mmm-ipc",
    "mmm-tp",
)

#: Reliability modes the generator draws (see the module docstring for why
#: ``PERFORMANCE_USER_ONLY`` is excluded).
MODE_POOL: Tuple[str, ...] = ("RELIABLE", "PERFORMANCE")


@dataclass(frozen=True)
class FuzzProfile:
    """A named weighting over the seven timeline event kinds."""

    name: str
    #: Event kind (the :attr:`TimelineEvent.KIND` tag) to relative weight.
    #: Kinds that are infeasible in the current lifecycle state are simply
    #: excluded from the draw; the weights renormalise over what remains.
    weights: Mapping[str, float]


#: The built-in generator profiles, keyed by name.
FUZZ_PROFILES: Dict[str, FuzzProfile] = {
    profile.name: profile
    for profile in (
        FuzzProfile(
            name="churn-heavy",
            weights={
                "vm-arrived": 4.0,
                "vm-departed": 4.0,
                "reliability-mode-changed": 2.0,
                "policy-changed": 1.0,
                "core-failed": 0.5,
                "core-repaired": 0.5,
                "fault-rate-burst": 0.5,
            },
        ),
        FuzzProfile(
            name="failure-heavy",
            weights={
                "core-failed": 4.0,
                "core-repaired": 2.0,
                "fault-rate-burst": 2.0,
                "policy-changed": 1.0,
                "reliability-mode-changed": 1.0,
                "vm-arrived": 0.5,
                "vm-departed": 0.5,
            },
        ),
        FuzzProfile(
            name="mixed",
            weights={
                "core-failed": 1.0,
                "core-repaired": 1.0,
                "vm-arrived": 1.0,
                "vm-departed": 1.0,
                "policy-changed": 1.0,
                "reliability-mode-changed": 1.0,
                "fault-rate-burst": 1.0,
            },
        ),
    )
}

#: Profile names in presentation order.
PROFILE_NAMES: Tuple[str, ...] = tuple(FUZZ_PROFILES)


@dataclass(frozen=True)
class FuzzScenario:
    """One generated scenario: everything a fuzz cell simulates.

    The scenario's canonical JSON form (:meth:`to_json`) is folded into the
    job params, so the cell's cache key -- and therefore the cached result
    -- changes whenever the generator does.
    """

    profile: str
    case: int
    seed: int
    policy: str
    total_cycles: int
    warmup_cycles: int
    #: The guests, at unit phase and footprint scale: the machine applies
    #: the settings' scales (see ``scenario_machine``).
    roster: Tuple[VmSpec, ...]
    timeline: Timeline

    @property
    def case_id(self) -> str:
        """The replayable identity, ``profile:case:seed``."""
        return f"{self.profile}:{self.case}:{self.seed}"

    def to_json(self) -> str:
        """Canonical JSON form: compact separators, sorted keys."""
        payload = {
            "profile": self.profile,
            "case": self.case,
            "seed": self.seed,
            "policy": self.policy,
            "total_cycles": self.total_cycles,
            "warmup_cycles": self.warmup_cycles,
            "roster": [
                {
                    "name": vm.name,
                    "workload": vm.workload,
                    "vcpus": vm.num_vcpus,
                    "mode": vm.reliability.name,
                    "present_at_start": vm.present_at_start,
                }
                for vm in self.roster
            ],
            "timeline": self.timeline.to_dicts(),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, serialized: str) -> "FuzzScenario":
        """Rebuild a scenario from its canonical JSON form."""
        try:
            payload = json.loads(serialized)
        except json.JSONDecodeError as error:
            raise ExperimentError(f"malformed fuzz scenario: {error}") from None
        if not isinstance(payload, dict):
            raise ExperimentError("a serialized fuzz scenario must be a JSON object")
        try:
            return cls(
                profile=str(payload["profile"]),
                case=int(payload["case"]),
                seed=int(payload["seed"]),
                policy=str(payload["policy"]),
                total_cycles=int(payload["total_cycles"]),
                warmup_cycles=int(payload["warmup_cycles"]),
                roster=tuple(
                    VmSpec(
                        name=str(entry["name"]),
                        workload=str(entry["workload"]),
                        num_vcpus=int(entry["vcpus"]),
                        reliability=ReliabilityMode[str(entry["mode"])],
                        present_at_start=bool(entry["present_at_start"]),
                    )
                    for entry in payload["roster"]
                ),
                timeline=Timeline.from_dicts(payload["timeline"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ExperimentError(f"malformed fuzz scenario: {error!r}") from None


def parse_case_id(case_id: str) -> Tuple[str, int, int]:
    """Split a ``profile:case:seed`` case id, validating each part."""
    parts = case_id.split(":")
    if len(parts) != 3:
        raise ExperimentError(
            f"malformed case id {case_id!r} (expected 'profile:case:seed')"
        )
    profile, case_text, seed_text = parts
    if profile not in FUZZ_PROFILES:
        known = ", ".join(PROFILE_NAMES)
        raise ExperimentError(
            f"unknown fuzz profile {profile!r} in case id (known: {known})"
        )
    try:
        case = int(case_text)
        seed = int(seed_text)
    except ValueError:
        raise ExperimentError(
            f"malformed case id {case_id!r}: case and seed must be integers"
        ) from None
    if case < 0 or seed < 0:
        raise ExperimentError(
            f"malformed case id {case_id!r}: case and seed must be non-negative"
        )
    return profile, case, seed


# ===================================================================== #
# Generation
# ===================================================================== #


class _LifecycleModel:
    """The generator's model of the machine state as events apply in order."""

    def __init__(self, roster: Tuple[VmSpec, ...], num_cores: int) -> None:
        self.active: Set[str] = {vm.name for vm in roster if vm.present_at_start}
        self.inactive: Set[str] = {vm.name for vm in roster if not vm.present_at_start}
        self.retired: Set[int] = set()
        self.num_cores = num_cores

    def feasible_kinds(self) -> List[str]:
        kinds = ["policy-changed", "reliability-mode-changed", "fault-rate-burst"]
        if self.inactive:
            kinds.append("vm-arrived")
        if len(self.active) >= 2:
            kinds.append("vm-departed")
        # Keep a margin above the machine's last-healthy-core guard so a
        # DMR pair can still form on the survivors.
        if self.num_cores - len(self.retired) >= 3:
            kinds.append("core-failed")
        if self.retired:
            kinds.append("core-repaired")
        return kinds


def _draw_event(
    kind: str,
    cycle: int,
    model: _LifecycleModel,
    roster: Tuple[VmSpec, ...],
    rng: DeterministicRng,
) -> TimelineEvent:
    """Build one valid event of the chosen kind and update the model."""
    if kind == "vm-arrived":
        name = rng.choice(sorted(model.inactive))
        model.inactive.discard(name)
        model.active.add(name)
        return VmArrived(cycle=cycle, vm_name=name)
    if kind == "vm-departed":
        name = rng.choice(sorted(model.active))
        model.active.discard(name)
        model.inactive.add(name)
        return VmDeparted(cycle=cycle, vm_name=name)
    if kind == "core-failed":
        healthy = sorted(set(range(model.num_cores)) - model.retired)
        core = rng.choice(healthy)
        model.retired.add(core)
        return CoreFailed(cycle=cycle, core_id=core)
    if kind == "core-repaired":
        core = rng.choice(sorted(model.retired))
        model.retired.discard(core)
        return CoreRepaired(cycle=cycle, core_id=core)
    if kind == "policy-changed":
        return PolicyChanged(cycle=cycle, policy=rng.choice(POLICY_POOL))
    if kind == "reliability-mode-changed":
        vm = rng.choice([vm.name for vm in roster])
        return ReliabilityModeChanged(cycle=cycle, vm_name=vm, mode=rng.choice(MODE_POOL))
    if kind == "fault-rate-burst":
        return FaultRateBurst(
            cycle=cycle,
            scale=round(rng.uniform(1.5, 8.0), 4),
            duration_cycles=rng.randint(500, 5_000),
        )
    raise ExperimentError(f"the fuzz generator cannot draw event kind {kind!r}")


def generate_scenario(
    settings: ExperimentSettings, profile: str, case: int, seed: int
) -> FuzzScenario:
    """Generate one random-but-valid scenario, deterministically.

    Pure function of ``(settings, profile, case, seed)``: every random draw
    comes from a CRC-forked stream derived from the case identity, so two
    processes (or two backends) always generate byte-identical scenarios.
    """
    try:
        spec = FUZZ_PROFILES[profile]
    except KeyError:
        known = ", ".join(PROFILE_NAMES)
        raise ExperimentError(
            f"unknown fuzz profile {profile!r} (known: {known})"
        ) from None
    root = DeterministicRng(seed).fork(f"fuzz:{profile}:{case}")

    horizon_rng = root.fork("horizon")
    total = horizon_rng.randint(
        max(2_000, settings.total_cycles // 4), settings.total_cycles
    )
    warmup = horizon_rng.randint(0, settings.warmup_cycles)

    policy_rng = root.fork("policy")
    policy = policy_rng.choice(POLICY_POOL)

    roster_rng = root.fork("roster")
    workloads = settings.workloads or ("apache",)
    roster = tuple(
        VmSpec(
            name=f"fuzz{index}",
            workload=roster_rng.choice(workloads),
            num_vcpus=roster_rng.randint(1, 3),
            reliability=ReliabilityMode[roster_rng.choice(MODE_POOL)],
            # The machine needs at least one VM in the gang schedule at
            # cycle 0, so the first roster slot is always present.
            present_at_start=index == 0 or roster_rng.chance(0.6),
        )
        for index in range(roster_rng.randint(2, 4))
    )

    timeline_rng = root.fork("timeline")
    end = warmup + total
    count = timeline_rng.randint(2, 10)
    # Up to 20% of the window beyond the horizon: pending events exercise
    # the applied/pending ledger without ever being applied.
    cycles = sorted(timeline_rng.randint(0, int(end * 1.2)) for _ in range(count))
    model = _LifecycleModel(roster, settings.config().num_cores)
    events: List[TimelineEvent] = []
    for cycle in cycles:
        kinds = model.feasible_kinds()
        weights = [spec.weights.get(kind, 0.0) for kind in kinds]
        if sum(weights) <= 0.0:
            weights = [1.0] * len(kinds)
        kind = timeline_rng.weighted_choice(kinds, weights)
        events.append(_draw_event(kind, cycle, model, roster, timeline_rng))

    return FuzzScenario(
        profile=profile,
        case=case,
        seed=seed,
        policy=policy,
        total_cycles=total,
        warmup_cycles=warmup,
        roster=roster,
        timeline=Timeline.of(*events),
    )
