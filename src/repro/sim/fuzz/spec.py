"""The always-on ``fuzz`` experiment spec.

Registers the fuzz campaign in the central ``EXPERIMENTS`` registry, so
``repro fuzz --cases N --profile mixed --seeds ...`` runs through every
engine backend, the campaign joins ``run-all`` / ``export`` / ``diff``
documents, and ``repro list`` shows the profiles axis -- all without
touching the CLI beyond the ``--reproduce`` replay path.  ``--cases`` and
``--profile`` set the ``fuzz_cases`` and ``fuzz_profiles`` settings fields,
which size the campaign on every path.
"""

from __future__ import annotations

import argparse
from typing import Tuple

from repro.sim.frames import FrameView, MetricColumn, MetricSchema
from repro.sim.fuzz.cells import fuzz_jobs, fuzz_samples, oracle_metric_names
from repro.sim.fuzz.generate import PROFILE_NAMES
from repro.sim.specs import (
    ExperimentSpec,
    SpecOption,
    SpecRequest,
    parse_positive_int,
    register_experiment,
)

__all__ = ["parse_profile_list"]


def parse_profile_list(value: str) -> Tuple[str, ...]:
    """A comma list of fuzz profile names, validated against the built-ins."""
    names = tuple(
        dict.fromkeys(part.strip() for part in value.split(",") if part.strip())
    )
    if not names:
        raise argparse.ArgumentTypeError("needs at least one profile name")
    unknown = [name for name in names if name not in PROFILE_NAMES]
    if unknown:
        known = ", ".join(PROFILE_NAMES)
        raise argparse.ArgumentTypeError(
            f"unknown profile(s) {', '.join(unknown)} (known: {known})"
        )
    return names


def _count_metric(name: str, label: str) -> MetricColumn:
    return MetricColumn(
        name, dtype="int", aggregate="sum", label=label, fmt="{:d}"
    )


def _fuzz_schema(request: SpecRequest) -> MetricSchema:
    planted = bool(request.option("planted"))
    oracle_columns = tuple(
        _count_metric(name, name[len("viol_"):].replace("_", "-"))
        for name in oracle_metric_names(planted=planted)
    )
    return MetricSchema(
        keys=("profile",),
        metrics=(
            _count_metric("cases", "cases"),
            _count_metric("events", "events generated"),
            _count_metric("events_applied", "events applied"),
            _count_metric("violations", "violations"),
            _count_metric("shrink_steps", "shrink steps"),
        )
        + oracle_columns,
        views=(
            FrameView(
                title=(
                    f"Fuzz campaign: {request.settings.fuzz_cases} cases per "
                    "(profile, seed), invariant oracles on every run"
                ),
                metrics=(
                    "cases",
                    "events",
                    "events_applied",
                    "violations",
                    "shrink_steps",
                ),
            ),
            FrameView(
                title="Violations by oracle",
                metrics=tuple(column.name for column in oracle_columns),
            ),
        ),
    )


register_experiment(
    ExperimentSpec(
        name="fuzz",
        title="property-based scenario fuzzing with invariant oracles",
        enumerate_jobs=lambda request: fuzz_jobs(
            request.settings, planted=bool(request.option("planted"))
        ),
        schema=_fuzz_schema,
        cell_samples=lambda request, jobs, results: fuzz_samples(
            request, jobs, results
        ),
        options=(
            SpecOption(
                name="fuzz_cases",
                flag="--cases",
                parse=parse_positive_int,
                metavar="N",
                help="scenarios per (profile, seed) (default: the settings')",
            ),
            SpecOption(
                name="fuzz_profiles",
                flag="--profile",
                parse=parse_profile_list,
                metavar="P1,P2,...",
                help=(
                    "generator profiles to sweep, e.g. 'mixed' or "
                    "'churn-heavy,failure-heavy' (default: the settings')"
                ),
            ),
            SpecOption(
                name="planted",
                flag="--planted",
                is_flag=True,
                help=(
                    "also run the deliberately false planted oracle (no VM "
                    "may arrive mid-run) -- exercises the shrinker end to end"
                ),
            ),
            SpecOption(
                name="reproduce",
                flag="--reproduce",
                metavar="CASE_ID",
                help=(
                    "replay one case (profile:case:seed) verbosely instead "
                    "of running the campaign; exits 1 if it breaches an "
                    "oracle, 2 on an unknown case id"
                ),
            ),
        ),
    )
)
