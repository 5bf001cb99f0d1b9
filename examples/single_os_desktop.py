#!/usr/bin/env python3
"""A single-OS desktop mixing a media and a finance application (Figure 1).

The paper's motivating desktop scenario: the user runs a fault-tolerant media
/ web application that wants performance, and a personal-finance application
whose data integrity matters.  On a Mixed-Mode Multicore the finance
application (and the operating system) run under DMR while the media
application's *user* code runs at full speed; every system call, page fault
or interrupt escalates the media application's core pair back to reliable
mode, because the OS is the most privileged software and must always be
protected (Section 3.4.2).

This example uses the MMM-IPC policy with fine-grained mode switching, so you
can see how often the transitions happen and what they cost (Tables 1 and 2
of the paper study exactly these quantities).

Run with::

    python examples/single_os_desktop.py
"""

from __future__ import annotations

from repro import MixedModeMulticore
from repro.config.presets import evaluation_system_config

CONFIG = evaluation_system_config(capacity_scale=8, timeslice_cycles=25_000)


def main() -> None:
    system = MixedModeMulticore.single_os_desktop(
        reliable_workload="oltp",      # stands in for the personal-finance app
        performance_workload="apache",  # stands in for the media/web app
        vcpus_per_application=4,
        config=CONFIG,
        phase_scale=0.01,
        footprint_scale=1 / 8,
    )
    print("Simulating the single-OS desktop (MMM-IPC, fine-grained switching)...")
    result = system.run(total_cycles=75_000, warmup_cycles=25_000)

    cycles = result.total_cycles
    finance = result.vm("reliable-app")
    media = result.vm("performance-app")

    print()
    print(f"{'application':18s}{'mode':>24s}{'user IPC':>10s}{'throughput':>12s}")
    print(f"{'finance (reliable)':18s}{'always DMR':>24s}"
          f"{finance.average_user_ipc(cycles):10.4f}{finance.throughput(cycles):12.4f}")
    print(f"{'media (performance)':18s}{'DMR only inside the OS':>24s}"
          f"{media.average_user_ipc(cycles):10.4f}{media.throughput(cycles):12.4f}")

    switches = sum(vcpu.mode_switches for vcpu in media.vcpus)
    switch_cycles = sum(vcpu.mode_switch_cycles for vcpu in media.vcpus)
    media_cycles = sum(vcpu.active_cycles for vcpu in media.vcpus)
    overhead = switch_cycles / (media_cycles + switch_cycles) * 100 if media_cycles else 0.0

    print()
    print(f"Mode switches triggered by the media application entering/leaving the OS: {switches}")
    print(f"Average Enter DMR cost: {result.average_enter_dmr_cycles:.0f} cycles; "
          f"Leave DMR cost: {result.average_leave_dmr_cycles:.0f} cycles")
    print(f"Time the media application spent switching modes: {overhead:.2f}% "
          "(scaled run; see the single-os case of benchmarks/bench_paper.py for the "
          "full-size estimate, which the paper puts at ~8% for Apache and <5% otherwise)")
    print(f"Silent corruptions of reliable state: {result.silent_corruptions()}")


if __name__ == "__main__":
    main()
