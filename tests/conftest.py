"""Shared fixtures for the test suite.

Everything uses the small 4-core configuration (or a 16-core evaluation
configuration scaled far down) so the whole suite runs in seconds while
exercising the same code paths as the full-size experiments.
"""

from __future__ import annotations

import pytest

from repro.common.addresses import AddressSpaceLayout
from repro.common.rng import DeterministicRng
from repro.config.presets import (
    evaluation_system_config,
    paper_system_config,
    small_system_config,
)
from repro.core.machine import MixedModeMachine, VmSpec
from repro.mem.hierarchy import MemoryHierarchy
from repro.virt.vcpu import ReliabilityMode
from repro.workloads.generator import SyntheticWorkload
from repro.workloads.profiles import get_profile


@pytest.fixture
def small_config():
    """The 4-core test configuration."""
    return small_system_config()


@pytest.fixture
def paper_config():
    """The full 16-core paper configuration (used sparingly)."""
    return paper_system_config()


@pytest.fixture
def eval_config():
    """A heavily scaled 16-core evaluation configuration for fast runs."""
    return evaluation_system_config(capacity_scale=16, timeslice_cycles=6_000)


@pytest.fixture
def layout():
    """A small two-VM physical address-space layout."""
    return AddressSpaceLayout(vm_memory_bytes=2 * 1024 * 1024, num_vms=2)


@pytest.fixture
def rng():
    """A deterministic random source."""
    return DeterministicRng(seed=1234)


@pytest.fixture
def hierarchy(small_config):
    """A memory hierarchy for the small configuration."""
    return MemoryHierarchy(small_config)


@pytest.fixture
def apache_profile():
    """The apache workload profile."""
    return get_profile("apache")


def make_workload(layout, name="apache", vm_id=0, vcpu_index=0, num_vcpus=2,
                  seed=7, phase_scale=0.002):
    """Create a small synthetic workload bound to ``layout``."""
    return SyntheticWorkload(
        profile=get_profile(name),
        layout=layout,
        vm_id=vm_id,
        vcpu_index=vcpu_index,
        num_vcpus=num_vcpus,
        seed=seed,
        phase_scale=phase_scale,
    )


@pytest.fixture
def workload(layout):
    """A small apache workload stream."""
    return make_workload(layout)


def make_small_machine(
    config,
    policy="mmm-tp",
    reliable_vcpus=1,
    performance_vcpus=2,
    workload="apache",
    performance_mode=ReliabilityMode.PERFORMANCE,
    seed=3,
    fault_rates=None,
):
    """Build a tiny two-VM machine on the given configuration."""
    specs = [
        VmSpec(
            name="reliable",
            workload=workload,
            num_vcpus=reliable_vcpus,
            reliability=ReliabilityMode.RELIABLE,
            phase_scale=0.003,
            footprint_scale=0.1,
        ),
        VmSpec(
            name="performance",
            workload=workload,
            num_vcpus=performance_vcpus,
            reliability=performance_mode,
            phase_scale=0.003,
            footprint_scale=0.1,
        ),
    ]
    return MixedModeMachine(
        config=config, vm_specs=specs, policy=policy, seed=seed, fault_rates=fault_rates
    )


@pytest.fixture
def small_machine(small_config):
    """A tiny two-VM MMM-TP machine on the 4-core configuration."""
    return make_small_machine(small_config)


def hierarchy_state(hierarchy: MemoryHierarchy):
    """Everything a later access can observe, in comparable form."""
    caches = []
    for cache in hierarchy._caches():
        caches.append(
            (
                [
                    (
                        index,
                        [
                            (line.line_addr, line.state, line.dirty, line.coherent, line.last_touch)
                            for line in cache_set.values()
                        ],
                    )
                    for index, cache_set in cache._sets.items()
                ],
                sorted(cache._lines),
                cache._touch_counter,
            )
        )
        # The flat map must mirror the sets, object for object.
        assert all(
            cache._lines[line.line_addr] is line for line in cache.lines()
        ), cache.config.name
        assert len(cache._lines) == sum(len(s) for s in cache._sets.values())
    directory = hierarchy.directory
    interconnect = hierarchy.interconnect
    return (
        caches,
        [(line, entry.owner, sorted(entry.sharers)) for line, entry in directory._entries.items()],
        list(hierarchy._counts.items()),
        list(interconnect._counts.items()),
        list(hierarchy.memory._counts.items()),
        (
            interconnect._window_cycles,
            interconnect._window_offchip_bytes,
            interconnect._window_capacity,
        ),
    )
