"""Fault-campaign cells: the ``faults`` job kind of the experiment engine.

This module is the glue between the fault-injection campaign
(:mod:`repro.faults.campaign`) and the experiment engine
(:mod:`repro.sim.jobs` / :mod:`repro.sim.runner`):

* :func:`fault_campaign_jobs` enumerates one picklable
  :class:`~repro.sim.jobs.ExperimentJob` per ``(configuration, fault site,
  seed, trials chunk)`` cell;
* :func:`execute_fault_cell` (registered as the ``faults`` kind) runs one
  chunk of trials on the paper's machine and returns its outcome counts, a
  flat ``{outcome name: count}`` mapping, as the cell's metrics;
* :func:`assemble_campaign_reports` adds any mix of fresh and cached cell
  counts into per-configuration (and per-seed)
  :class:`~repro.faults.outcomes.CoverageReport` values, so serial,
  parallel and warm-cache runs assemble identical reports.

It lives apart from :mod:`repro.faults.campaign` (and is imported by the
``repro`` package *after* the simulator) so the campaign itself stays free
of engine imports; the import also doubles as the registration side effect
process-pool workers rely on.

At the experiment layer, the campaign is declared as the ``faults``
:class:`~repro.sim.specs.ExperimentSpec` (see :mod:`repro.sim.specs`),
whose ``--sweep-rates`` option turns the coverage comparison into the
fault-space sweep.  The spec's frame carries the aggregate coverage
columns; callers that need the outcome counts behind them run
``experiment("faults").execute(...)`` and pass the run's ``jobs`` and
``results`` to :func:`assemble_campaign_reports`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.config.presets import paper_system_config
from repro.errors import FaultInjectionError
from repro.faults.campaign import (
    DEFAULT_CONFIGURATIONS,
    TRIAL_SITES,
    CampaignConfiguration,
    FaultInjectionCampaign,
)
from repro.faults.outcomes import CoverageReport
from repro.sim.jobs import ExperimentJob, register_job_kind

#: Trials grouped into one cell: small enough to fan a campaign out across
#: workers, large enough to amortise the per-cell campaign construction.
DEFAULT_TRIALS_PER_CELL = 25


def fault_campaign_jobs(
    trials_per_site: int,
    configurations: Sequence[CampaignConfiguration] = DEFAULT_CONFIGURATIONS,
    seeds: Sequence[int] = (0,),
    fault_rate: float = 1.0,
    trials_per_cell: int = DEFAULT_TRIALS_PER_CELL,
) -> List[ExperimentJob]:
    """Every (configuration, fault-site, seed, trials-chunk) campaign cell.

    The chunking (``trials_per_cell``) shapes the cells but not the results:
    trial outcomes depend only on the trial's own identity, so re-chunking a
    sweep changes its cache keys, never its assembled report.
    """
    if trials_per_site < 1:
        raise FaultInjectionError("trials_per_site must be at least 1")
    if trials_per_cell < 1:
        raise FaultInjectionError("trials_per_cell must be at least 1")
    if not seeds:
        raise FaultInjectionError("a fault campaign needs at least one seed")
    # A duplicated seed would enumerate duplicate cells and double-count
    # their trials in the assembled reports.
    seeds = tuple(dict.fromkeys(seeds))
    jobs: List[ExperimentJob] = []
    for configuration in configurations:
        for site in TRIAL_SITES:
            for seed in seeds:
                for first_trial in range(0, trials_per_site, trials_per_cell):
                    trials = min(trials_per_cell, trials_per_site - first_trial)
                    jobs.append(
                        ExperimentJob(
                            kind="faults",
                            workload=site,
                            variant=configuration.name,
                            seed=seed,
                            params=(
                                ("dmr_active", configuration.dmr_active),
                                ("fault_rate", float(fault_rate)),
                                ("first_trial", first_trial),
                                ("pab_active", configuration.pab_active),
                                ("transition_verification", configuration.transition_verification),
                                ("trials", trials),
                            ),
                        )
                    )
    return jobs


@register_job_kind("faults")
def execute_fault_cell(job: ExperimentJob) -> Dict[str, int]:
    """Run one campaign cell and count its trials' outcomes by name.

    Module-level (and registered at import time) so process-pool workers can
    execute fault cells exactly like simulation cells.
    """
    configuration = CampaignConfiguration(
        name=job.variant,
        dmr_active=bool(job.param("dmr_active")),
        pab_active=bool(job.param("pab_active")),
        transition_verification=bool(job.param("transition_verification")),
    )
    campaign = FaultInjectionCampaign(config=paper_system_config(), seed=job.seed)
    first = int(job.param("first_trial"))
    fault_rate = float(job.param("fault_rate"))
    outcomes = Counter(
        campaign.run_trial(configuration, job.workload, index, fault_rate).name
        for index in range(first, first + int(job.param("trials")))
    )
    return dict(outcomes)


def assemble_campaign_reports(
    jobs: Sequence[ExperimentJob],
    results: Mapping[ExperimentJob, Mapping[str, int]],
) -> Tuple[Dict[str, CoverageReport], Dict[Tuple[str, int], CoverageReport]]:
    """Both views of a campaign batch in one pass: merged and per-seed.

    Returns ``(by_configuration, by_configuration_and_seed)``, each keyed
    in the order the cells were *enumerated*, never the order they
    executed.  The per-seed view feeds the multi-seed confidence intervals
    of the ``faults`` spec's frame.
    """
    merged: Dict[str, CoverageReport] = {}
    per_seed: Dict[Tuple[str, int], CoverageReport] = {}
    for job in jobs:
        if job.kind != "faults":
            continue
        counts = results[job]
        merged.setdefault(job.variant, CoverageReport(configuration=job.variant)).add(counts)
        per_seed.setdefault(
            (job.variant, job.seed), CoverageReport(configuration=job.variant)
        ).add(counts)
    return merged, per_seed
