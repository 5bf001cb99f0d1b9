"""High-level façade: build and run a Mixed-Mode Multicore in a few lines.

:class:`MixedModeMulticore` is the recommended public entry point of the
library.  It wraps the machine builder and the simulator behind a small API::

    from repro import MixedModeMulticore, ReliabilityMode

    system = MixedModeMulticore.consolidated_server(
        reliable_workload="oltp",
        performance_workload="apache",
        policy="mmm-tp",
    )
    result = system.run(total_cycles=40_000, warmup_cycles=10_000)
    print(result.vm("performance").throughput(result.total_cycles))

Class methods cover the three system shapes the paper discusses: a
consolidated server with one reliable and one performance guest VM (Figure
2), a single-OS desktop mixing a reliable and a performance application
(Figure 1), and the single-workload baselines used for the DMR overhead
study (Figure 5).
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.config.presets import paper_system_config
from repro.config.system import SystemConfig
from repro.core.machine import MixedModeMachine, VmSpec
from repro.core.policies import MappingPolicy
from repro.faults.injector import FaultRates
from repro.sim.results import SimulationResult
from repro.sim.settings import paper_transition_cost_scale
from repro.sim.simulator import SimulationOptions, Simulator
from repro.virt.vcpu import ReliabilityMode


class MixedModeMulticore:
    """A mixed-mode multicore system: configuration, machine, and runner."""

    def __init__(
        self,
        vm_specs: Sequence[VmSpec],
        policy: Union[str, MappingPolicy] = "mmm-tp",
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        fault_rates: Optional[FaultRates] = None,
    ) -> None:
        self.config = (config or paper_system_config()).validate()
        self.machine = MixedModeMachine(
            config=self.config,
            vm_specs=vm_specs,
            policy=policy,
            seed=seed,
            fault_rates=fault_rates,
        )

    # ------------------------------------------------------------------ #
    # Common system shapes
    # ------------------------------------------------------------------ #

    @classmethod
    def consolidated_server(
        cls,
        reliable_workload: str = "oltp",
        performance_workload: str = "apache",
        policy: Union[str, MappingPolicy] = "mmm-tp",
        reliable_vcpus: int = 8,
        performance_vcpus: Optional[int] = None,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        phase_scale: float = 0.02,
        footprint_scale: float = 1.0,
        fault_rates: Optional[FaultRates] = None,
    ) -> "MixedModeMulticore":
        """A consolidated server with one reliable and one performance guest VM.

        This mirrors the paper's evaluation setup: the reliable VM exposes 8
        VCPUs (always DMR); the performance VM exposes 8 VCPUs under DMR-base
        and MMM-IPC, or 16 VCPUs under MMM-TP (to use all cores
        independently).  ``performance_vcpus`` overrides the default.
        """
        resolved_config = (config or paper_system_config()).validate()
        policy_name = policy if isinstance(policy, str) else policy.name
        if performance_vcpus is None:
            performance_vcpus = (
                resolved_config.num_cores
                if policy_name == "mmm-tp"
                else resolved_config.num_cores // 2
            )
        specs = [
            VmSpec(
                name="reliable",
                workload=reliable_workload,
                num_vcpus=reliable_vcpus,
                reliability=ReliabilityMode.RELIABLE,
                phase_scale=phase_scale,
                footprint_scale=footprint_scale,
            ),
            VmSpec(
                name="performance",
                workload=performance_workload,
                num_vcpus=performance_vcpus,
                reliability=ReliabilityMode.PERFORMANCE,
                phase_scale=phase_scale,
                footprint_scale=footprint_scale,
            ),
        ]
        return cls(
            vm_specs=specs, policy=policy, config=resolved_config, seed=seed,
            fault_rates=fault_rates,
        )

    @classmethod
    def single_os_desktop(
        cls,
        reliable_workload: str = "oltp",
        performance_workload: str = "apache",
        vcpus_per_application: int = 2,
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        phase_scale: float = 0.02,
        footprint_scale: float = 1.0,
        fault_rates: Optional[FaultRates] = None,
    ) -> "MixedModeMulticore":
        """A single-OS system mixing a reliable and a performance application.

        The performance application uses ``PERFORMANCE_USER_ONLY`` mode: its
        user code runs without DMR, but every system call, page fault or
        interrupt escalates back to reliable mode (the OS is the most
        privileged software and must always be protected).  The MMM-IPC
        policy is used because it statically reserves a partner core for each
        VCPU, which is what makes the frequent transitions cheap.
        """
        specs = [
            VmSpec(
                name="reliable-app",
                workload=reliable_workload,
                num_vcpus=vcpus_per_application,
                reliability=ReliabilityMode.RELIABLE,
                phase_scale=phase_scale,
                footprint_scale=footprint_scale,
            ),
            VmSpec(
                name="performance-app",
                workload=performance_workload,
                num_vcpus=vcpus_per_application,
                reliability=ReliabilityMode.PERFORMANCE_USER_ONLY,
                phase_scale=phase_scale,
                footprint_scale=footprint_scale,
            ),
        ]
        return cls(
            vm_specs=specs, policy="mmm-ipc", config=config, seed=seed,
            fault_rates=fault_rates,
        )

    @classmethod
    def baseline(
        cls,
        workload: str,
        num_vcpus: int,
        policy: Union[str, MappingPolicy],
        config: Optional[SystemConfig] = None,
        seed: int = 0,
        phase_scale: float = 0.02,
        footprint_scale: float = 1.0,
    ) -> "MixedModeMulticore":
        """A single-workload machine for the DMR overhead baselines (Figure 5)."""
        specs = [
            VmSpec(
                name="baseline",
                workload=workload,
                num_vcpus=num_vcpus,
                reliability=ReliabilityMode.RELIABLE,
                phase_scale=phase_scale,
                footprint_scale=footprint_scale,
            )
        ]
        return cls(vm_specs=specs, policy=policy, config=config, seed=seed)

    # ------------------------------------------------------------------ #
    # Running
    # ------------------------------------------------------------------ #

    def simulator(self, options: Optional[SimulationOptions] = None) -> Simulator:
        """Create a simulator bound to this system's machine."""
        return self.machine.simulator(options)

    def run(
        self,
        total_cycles: int = 40_000,
        warmup_cycles: int = 10_000,
        quantum_cycles: Optional[int] = None,
        transition_cost_scale: Optional[float] = None,
        fine_grained_switching: bool = True,
    ) -> SimulationResult:
        """Simulate the system and return its results.

        ``transition_cost_scale`` defaults to the ratio of the configured
        timeslice to the paper's 1 ms timeslice, preserving the paper's
        amortisation of consolidated-server mode switches.
        """
        if transition_cost_scale is None:
            transition_cost_scale = paper_transition_cost_scale(
                self.config.virtualization.timeslice_cycles
            )
        options = SimulationOptions(
            total_cycles=total_cycles,
            warmup_cycles=warmup_cycles,
            quantum_cycles=quantum_cycles,
            transition_cost_scale=transition_cost_scale,
            fine_grained_switching=fine_grained_switching,
        )
        return self.simulator(options).run()

    # ------------------------------------------------------------------ #
    # Convenience accessors
    # ------------------------------------------------------------------ #

    @property
    def policy_name(self) -> str:
        """Name of the mapping policy in use."""
        return self.machine.policy.name
