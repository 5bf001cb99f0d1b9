"""Guest virtual machines.

In the consolidated-server experiments each guest VM (its OS plus its
applications) is treated as a single entity with one reliability requirement:
a *reliable* VM runs all of its VCPUs under DMR, a *performance* VM runs them
without DMR (its guest OS included -- a fault inside a performance VM cannot
affect the reliable VMs, so the paper does not protect guest OSes).  In the
single-OS experiments there is exactly one "VM" whose OS is the most
privileged software and therefore always reliable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.errors import ConfigurationError
from repro.virt.vcpu import ReliabilityMode, VirtualCPU


@dataclass
class GuestVM:
    """One guest virtual machine and its VCPUs."""

    vm_id: int
    name: str
    reliability: ReliabilityMode
    workload_name: str
    vcpus: List[VirtualCPU] = field(default_factory=list)
    #: Whether the VM currently participates in the gang schedule.  Deferred
    #: VMs (``VmSpec.present_at_start=False``) start inactive and are
    #: admitted by a ``VmArrived`` timeline event; ``VmDeparted`` drains an
    #: active VM.  An inactive VM keeps its VCPUs and their accumulated
    #: counters -- work done before a departure stays in the results.
    active: bool = True

    def add_vcpu(self, vcpu: VirtualCPU) -> None:
        """Attach a VCPU to this VM (it inherits the VM's reliability mode)."""
        if vcpu.vm_id != self.vm_id:
            raise ConfigurationError(
                f"VCPU {vcpu.vcpu_id} belongs to VM {vcpu.vm_id}, not VM {self.vm_id}"
            )
        vcpu.mode_register = self.reliability
        self.vcpus.append(vcpu)

    @property
    def is_reliable(self) -> bool:
        """True when the VM requires DMR for all of its execution."""
        return self.reliability is ReliabilityMode.RELIABLE
