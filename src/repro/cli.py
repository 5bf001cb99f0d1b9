"""Command-line interface for the reproduction.

Five groups of subcommands:

* ``run`` simulates one mixed-mode system (a consolidated server or a
  single-OS desktop) and prints a per-VM summary -- the quickest way to see
  the MMM trade-off without writing any code;
* one subcommand per *registered experiment spec*: the parsers are generated
  from the central ``EXPERIMENTS`` registry of :mod:`repro.sim.specs`
  (``figure5``, ``figure6``, ``pab``, ``table1``, ``table2``, ``single-os``,
  ``ablation``, ``faults``, ... -- run ``repro list`` to see them all), plus
  ``run-all``, which runs every registered spec as one batch.  Registering
  a new spec adds its subcommand, flags and help text with no CLI change;
* results plumbing: every spec's results are a schema-driven
  ``ResultFrame`` (:mod:`repro.sim.frames`); ``run-all --json`` writes the
  canonical multi-frame document (settings embedded), ``repro export
  --format csv|json`` exports frames for downstream analysis, and ``repro
  diff <baseline.json>`` re-runs a baseline's evaluation and exits non-zero
  on metric drift beyond ``--rtol``/``--atol``;
* housekeeping: ``list`` prints the spec registry, ``list-workloads`` the
  calibrated workload profiles, and ``cache stats`` / ``cache clear`` /
  ``cache prune`` inspect and maintain the on-disk result cache (one
  SQLite file, :mod:`repro.sim.store`): stats includes the schema-version
  breakdown after a format bump;
* distributed runs: ``serve`` starts the HTTP coordinator, ``worker``
  attaches a pull-based worker to it, and any experiment subcommand
  distributes its cells with ``--coordinator URL`` (see
  :mod:`repro.sim.distributed`).

The experiment subcommands share the experiment-engine flags, which also
choose how a batch runs: serially by default, on a local process pool with
``--jobs N``, or on a worker fleet with ``--coordinator URL``.  ``--seeds``
widens or narrows the seed sweep, and results are cached on disk
(``.repro-cache`` by default) so a re-run only executes changed cells;
``--no-cache`` forces fresh runs and ``--cache-dir`` relocates the cache.
``--json`` renders the result as the spec's uniform JSON document instead
of tables.  Every engine-backed invocation ends with a one-line cache
effectiveness summary (``N executed, M from cache, K memoized``).

Examples::

    python -m repro list
    python -m repro run --policy mmm-tp --reliable oltp --performance apache
    python -m repro figure6 --workloads apache oltp --jobs 4
    python -m repro faults --trials 200 --seeds 8 --jobs 4
    python -m repro run-all --quick --jobs 4
    python -m repro run-all --quick --json > baseline.json
    python -m repro diff baseline.json
    python -m repro export --format csv --experiments figure5
    python -m repro cache stats
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Mapping, Optional, Sequence

from repro.analysis.tables import TextTable
from repro.config.presets import evaluation_system_config
from repro.core.mmm import MixedModeMulticore
from repro.core.policies import available_policies
from repro.errors import ExperimentError
from repro.sim.experiments import (
    ExperimentSettings,
    collect_frames,
    run_all_experiments,
    run_all_spec_names,
)
from repro.sim.frames import (
    diff_documents,
    document_frames,
    frames_document,
    frames_to_csv,
)
from repro.sim.jobs import registered_job_kinds
from repro.sim.runner import (
    CacheKindStats,
    ExperimentRunner,
    ResultCache,
    default_cache_dir,
)
from repro.sim.specs import (
    EXPERIMENTS,
    ExperimentSpec,
    SpecRun,
    jsonify,
    parse_positive_int,
    parse_seed_list,
)
from repro.workloads.profiles import PAPER_WORKLOAD_NAMES, PAPER_WORKLOADS


def _runner_from_args(args: argparse.Namespace) -> ExperimentRunner:
    """Build the experiment runner the engine flags describe: the worker
    fleet behind ``--coordinator``, else serial or a ``--jobs`` pool."""
    backend = None
    if args.coordinator:
        from repro.sim.distributed.backend import DistributedBackend

        backend = DistributedBackend(args.coordinator)
    return ExperimentRunner(
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        backend=backend,
    )


def _print_engine_stats(runner: ExperimentRunner, to_stderr: bool = False) -> None:
    """Account for how the batch was served (cache effectiveness, timing).

    Two lines: the human-readable summary (stderr when stdout carries a
    machine-readable document, e.g. ``--json``/``export``/``diff``), and a
    machine-readable ``engine-stats:`` JSON line that always goes to stderr
    so scripts and benchmarks can scrape per-phase timing from any
    invocation without disturbing redirected output.
    """
    stream = sys.stderr if to_stderr else sys.stdout
    print(file=stream)
    print(
        f"experiment engine: {runner.stats.summary()} "
        f"(backend: {runner.backend.name}, workers: {runner.jobs})",
        file=stream,
    )
    stats = runner.stats.to_dict()
    stats["backend"] = runner.backend.name
    stats["workers"] = runner.jobs
    print(f"engine-stats: {json.dumps(stats, sort_keys=True)}", file=sys.stderr)


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    """The experiment-engine flags shared by every cell-shaped subcommand."""
    parser.add_argument(
        "--jobs",
        type=parse_positive_int,
        default=1,
        metavar="N",
        help="run experiment cells across N workers (default: 1, serial)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="do not read or write the on-disk result cache",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="result cache location (default: .repro-cache, or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--coordinator",
        default=None,
        metavar="URL",
        help=(
            "run the cells on the worker fleet of the coordinator at URL "
            "(start one with `repro serve`)"
        ),
    )


def _add_sweep_arguments(
    parser: argparse.ArgumentParser,
    spec: Optional[ExperimentSpec] = None,
    json_flag: bool = True,
) -> None:
    """The settings-sweep flags (from spec metadata when one is given)."""
    if spec is None or spec.takes_workloads:
        parser.add_argument(
            "--workloads",
            nargs="+",
            choices=PAPER_WORKLOAD_NAMES,
            help="restrict the experiment to these workloads (default: all six)",
        )
        parser.add_argument(
            "--quick",
            action="store_true",
            help="use the heavily scaled quick settings (smoke test, not meaningful numbers)",
        )
    parser.add_argument(
        "--seeds",
        type=parse_seed_list,
        default=None,
        metavar="LIST|N",
        help=(
            "seeds to sweep: a comma list ('0,1,2') or a count N meaning seeds "
            "0..N-1 (default: the settings' ten-seed sweep; cells are cached, "
            "so larger sweeps only pay for the new seeds)"
        ),
    )
    _add_engine_arguments(parser)
    # --json prints the machine-readable document: the spec's uniform
    # document on a spec subcommand, the canonical multi-frame results
    # document (the `repro diff` baseline format) on run-all.
    # `repro export` has --format instead, so it opts out.
    if json_flag:
        parser.add_argument(
            "--json",
            action="store_true",
            help=(
                "print the spec's uniform JSON document instead of tables"
                if spec is not None
                else "print the canonical results document (a `repro diff` baseline)"
            ),
        )


def _settings_from_args(args: argparse.Namespace) -> ExperimentSettings:
    settings = (
        ExperimentSettings.quick()
        if getattr(args, "quick", False)
        else ExperimentSettings()
    )
    if getattr(args, "workloads", None):
        settings = settings.with_workloads(tuple(args.workloads))
    if getattr(args, "seeds", None):
        settings = settings.with_seeds(args.seeds)
    return settings


def _announce_dropped_seeds(spec: ExperimentSpec, args: argparse.Namespace) -> None:
    """Single-seed measurements say so out loud when a sweep was requested,
    rather than silently dropping seeds."""
    seeds = getattr(args, "seeds", None)
    if not spec.multi_seed and seeds and len(seeds) > 1:
        print(
            f"note: this measurement uses a single seed; taking seed "
            f"{seeds[0]} from --seeds"
        )


def _execute_and_print(
    spec: ExperimentSpec,
    args: argparse.Namespace,
    settings: ExperimentSettings,
    runner: ExperimentRunner,
) -> SpecRun:
    """Run ``spec`` as the parsed flags ask and print its frame as a table,
    or under ``--json`` as the spec's uniform document with its grid."""
    options = {option.name: getattr(args, option.name) for option in spec.options}
    request = spec.request(
        settings,
        explicit_workloads=bool(getattr(args, "workloads", None)),
        **options,
    )
    run = spec.execute(runner=runner, request=request)
    frame = run.frame()
    if args.json:
        document = spec.to_json(frame)
        document["grid"] = jsonify(
            {name: list(values) for name, values in spec.grid(request).axes}
        )
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(frame.to_table())
    return run


def _run_spec(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    """Generic handler behind every registry-generated subcommand."""
    runner = _runner_from_args(args)
    _announce_dropped_seeds(spec, args)
    _execute_and_print(spec, args, _settings_from_args(args), runner)
    _print_engine_stats(runner, to_stderr=args.json)
    return 0


def _run_fuzz(spec: ExperimentSpec, args: argparse.Namespace) -> int:
    """The fuzz campaign's handler: replay one case, or run and gate.

    Unlike the generic spec handler, a campaign that breached any oracle
    exits 1 after printing the shrunk reproductions, and ``--reproduce``
    replays a single case verbosely (exit 2 on an unknown case id).
    """
    from repro.sim.fuzz.cells import reproduce_case

    settings = _settings_from_args(args)
    if getattr(args, "reproduce", None):
        try:
            return reproduce_case(
                settings, args.reproduce, planted=bool(getattr(args, "planted", False))
            )
        except ExperimentError as error:
            print(f"cannot reproduce: {error}", file=sys.stderr)
            return 2
    runner = _runner_from_args(args)
    run = _execute_and_print(spec, args, settings, runner)
    failing = [
        (job, metrics)
        for job, metrics in run.results.items()
        if int(metrics.get("violations", 0) or 0)
    ]
    stream = sys.stderr if args.json else sys.stdout
    for job, metrics in failing:
        print(
            f"\ncase {metrics.get('case_id', job.label)}: "
            f"{metrics.get('violations')} violation(s), shrunk in "
            f"{metrics.get('shrink_steps')} step(s):",
            file=stream,
        )
        print(str(metrics.get("repro", "")), file=stream)
    _print_engine_stats(runner, to_stderr=args.json)
    return 1 if failing else 0


def _add_spec_subcommands(subparsers) -> None:
    """One subcommand per registered spec, generated from its metadata."""
    for spec in EXPERIMENTS.values():
        sub = subparsers.add_parser(spec.name, help=spec.title)
        _add_sweep_arguments(sub, spec)
        for option in spec.options:
            if option.is_flag:
                sub.add_argument(option.flag, action="store_true", help=option.help)
            else:
                sub.add_argument(
                    option.flag,
                    type=option.parse,
                    default=option.default,
                    metavar=option.metavar,
                    help=option.help,
                )
        # The fuzz campaign gates on violations and replays cases, which
        # the generic handler has no notion of.
        handler = _run_fuzz if spec.name == "fuzz" else _run_spec
        sub.set_defaults(
            handler=lambda args, spec=spec, handler=handler: handler(spec, args)
        )


def _cmd_list(args: argparse.Namespace) -> int:
    """Print the experiment-spec registry (names, families, grids)."""
    if getattr(args, "json", False):
        specs = []
        for name, spec in EXPERIMENTS.items():
            request = spec.request()
            grid = spec.grid(request)
            specs.append(
                {
                    "name": name,
                    "title": spec.title,
                    "family": spec.family,
                    "axes": {
                        axis: [jsonify(value) for value in values]
                        for axis, values in grid.axes
                    },
                    "cells": grid.size(),
                    "job_kinds": sorted(
                        {job.kind for job in spec.enumerate_jobs(request)}
                    ),
                    "options": [option.flag for option in spec.options],
                    "run_all_group": spec.run_all_group,
                }
            )
        document = {
            "registered_job_kinds": list(registered_job_kinds()),
            "specs": specs,
        }
        print(json.dumps(document, indent=2, sort_keys=True))
        return 0
    table = TextTable(
        ["experiment", "family", "grid", "cells", "description"],
        title="Registered experiment specs (run with `repro <experiment>`)",
    )
    for name, spec in EXPERIMENTS.items():
        grid = spec.grid(spec.request())
        table.add_row(
            [name, spec.family, grid.describe(), grid.size(), spec.title]
        )
    print(table.render())
    return 0


def _cmd_list_workloads(_: argparse.Namespace) -> int:
    table = TextTable(
        ["name", "description", "user phase (instr)", "OS phase (instr)"],
        title="Calibrated workload profiles (see repro.workloads.profiles)",
    )
    for name, profile in PAPER_WORKLOADS.items():
        table.add_row(
            [
                name,
                profile.description,
                profile.mean_user_phase_instructions,
                profile.mean_os_phase_instructions,
            ]
        )
    print(table.render())
    return 0


def _human_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB"):
        if value < 1024:
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"


def _cache_from_args(args: argparse.Namespace) -> ResultCache:
    """The result cache at ``--cache-dir``, or at the default location."""
    return ResultCache(default_cache_dir() if args.cache_dir is None else args.cache_dir)


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    cache = _cache_from_args(args)
    stats = cache.stats()
    if not stats:
        print(f"result cache at {cache.directory}: no entries")
        return 0
    table = TextTable(
        ["kind", "entries", "live", "versions"],
        title=(
            f"Result cache at {cache.path} "
            f"({_human_bytes(cache.path.stat().st_size)})"
        ),
    )
    total = CacheKindStats(kind="total")
    for kind_stats in stats.values():
        table.add_row(
            [
                kind_stats.kind,
                kind_stats.entries,
                _human_bytes(kind_stats.bytes),
                kind_stats.version_summary(),
            ]
        )
        total.entries += kind_stats.entries
        total.bytes += kind_stats.bytes
        for version, count in kind_stats.versions.items():
            total.versions[version] = total.versions.get(version, 0) + count
    table.add_row(
        [
            total.kind,
            total.entries,
            _human_bytes(total.bytes),
            total.version_summary(),
        ]
    )
    print(table.render())
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    cache = _cache_from_args(args)
    try:
        removed = cache.clear(kind=args.kind)
    except ExperimentError as error:
        print(f"cannot clear the cache: {error}", file=sys.stderr)
        return 2
    what = f"{args.kind!r} entries" if args.kind else "entries"
    print(f"removed {removed} cached {what} from {cache.directory}")
    return 0


_DURATION_UNITS = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0, "w": 604800.0}
_SIZE_UNITS = {"k": 1024, "m": 1024**2, "g": 1024**3}


def _parse_amount(
    value: str, units: Mapping[str, float], what: str, forms: str
) -> float:
    """A finite, non-negative number, optionally scaled by a suffix in ``units``."""
    text = value.strip().lower()
    scale = 1.0
    if text and text[-1] in units:
        scale = units[text[-1]]
        text = text[:-1]
    try:
        amount = float(text) * scale
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {what} like {forms}") from None
    if not math.isfinite(amount) or amount < 0:
        raise argparse.ArgumentTypeError(f"{what} must be finite and non-negative")
    return amount


def parse_duration(value: str) -> float:
    """``--max-age`` values: plain seconds or a suffixed ``30m``/``12h``/``7d``."""
    return _parse_amount(
        value, _DURATION_UNITS, "a duration", "'3600', '30m', '12h' or '7d'"
    )


def parse_size(value: str) -> int:
    """``--max-bytes`` values: plain bytes or a suffixed ``512k``/``100m``/``2g``."""
    return int(
        _parse_amount(value, _SIZE_UNITS, "a size", "'1048576', '512k', '100m' or '2g'")
    )


def parse_tolerance(value: str) -> float:
    """``--rtol``/``--atol`` values: a plain finite, non-negative number."""
    return _parse_amount(value, {}, "a tolerance", "'1e-9' or '0.01'")


def _cmd_cache_prune(args: argparse.Namespace) -> int:
    """Garbage-collect the result cache by age and/or total size."""
    if args.max_age is None and args.max_bytes is None:
        print(
            "cache prune needs at least one limit: --max-age and/or --max-bytes",
            file=sys.stderr,
        )
        return 2
    cache = _cache_from_args(args)
    result = cache.prune(max_age_seconds=args.max_age, max_bytes=args.max_bytes)
    print(f"result cache at {cache.directory}: {result.summary()}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the distributed coordinator daemon until interrupted."""
    from repro.sim.distributed.coordinator import CoordinatorServer

    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    server = CoordinatorServer(
        host=args.host,
        port=args.port,
        cache_dir=cache_dir,
        lease_seconds=args.lease_seconds,
        quiet=not args.verbose,
    )
    print(f"coordinator listening on {server.url}", flush=True)
    print(
        f"  shared cache: {cache_dir if cache_dir is not None else 'disabled'}; "
        f"lease timeout: {args.lease_seconds:g}s",
        flush=True,
    )
    print(
        f"  attach workers with: repro worker --coordinator {server.url}",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """Run one pull-based worker loop against a coordinator."""
    from repro.sim.distributed.worker import run_worker

    stats = run_worker(
        args.coordinator,
        jobs=args.jobs,
        worker_id=args.id,
        poll_seconds=args.poll,
        max_batches=args.max_batches,
        max_idle_seconds=args.max_idle,
        announce=lambda message: print(message, file=sys.stderr, flush=True),
    )
    print(f"worker finished: {stats.summary()}", file=sys.stderr)
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config = evaluation_system_config(
        capacity_scale=args.capacity_scale, timeslice_cycles=args.timeslice
    )
    common = dict(
        reliable_workload=args.reliable,
        performance_workload=args.performance,
        config=config,
        seed=args.seed,
        phase_scale=args.phase_scale,
        footprint_scale=1.0 / args.capacity_scale,
    )
    if args.single_os:
        system = MixedModeMulticore.single_os_desktop(
            vcpus_per_application=args.reliable_vcpus, **common
        )
    else:
        system = MixedModeMulticore.consolidated_server(
            policy=args.policy, reliable_vcpus=args.reliable_vcpus, **common
        )
    result = system.run(total_cycles=args.cycles, warmup_cycles=args.warmup)

    table = TextTable(
        ["guest VM", "VCPUs", "per-thread user IPC", "throughput", "mode switches"],
        title=f"policy={system.policy_name}  cycles={result.total_cycles}",
    )
    for vm in result.vm_results:
        table.add_row(
            [
                vm.name,
                vm.num_vcpus,
                vm.average_user_ipc(result.total_cycles),
                vm.throughput(result.total_cycles),
                sum(v.mode_switches for v in vm.vcpus),
            ]
        )
    print(table.render())
    print(f"overall throughput: {result.overall_throughput():.4f} user instructions/cycle")
    print(f"mode transitions:   {result.transitions}")
    print(f"protection events:  {result.violation_counts or 'none'}")
    print(f"silent corruptions: {result.silent_corruptions()}")
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    runner = _runner_from_args(args)
    everything = run_all_experiments(
        _settings_from_args(args),
        runner=runner,
        include_switching=not args.skip_switching,
        include_ablation=not args.skip_ablation,
        include_faults=not args.skip_faults,
    )
    if args.json:
        # The canonical results document: frames keyed by experiment, with
        # the settings embedded so `repro diff <file>` can re-run it.
        print(json.dumps(everything.to_document(), indent=2, sort_keys=True))
    else:
        print(everything.render())
    _print_engine_stats(runner, to_stderr=args.json)
    return 0


def _frame_names_from_args(args: argparse.Namespace) -> list:
    """The spec names an export covers: ``--experiments`` or the run-all set."""
    if getattr(args, "experiments", None):
        unknown = [name for name in args.experiments if name not in EXPERIMENTS]
        if unknown:
            raise ExperimentError(
                f"unknown experiments {unknown} (see `repro list`)"
            )
        return list(args.experiments)
    return run_all_spec_names(
        group
        for group in ("switching", "ablation", "faults")
        if getattr(args, f"skip_{group}")
    )


def _write_output(text: str, output: Optional[str]) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _cmd_export(args: argparse.Namespace) -> int:
    """Run the selected experiments (warm-cache friendly) and export frames."""
    runner = _runner_from_args(args)
    try:
        names = _frame_names_from_args(args)
        frames = collect_frames(_settings_from_args(args), names, runner=runner)
    except ExperimentError as error:
        print(f"cannot export: {error}", file=sys.stderr)
        return 2
    if args.format == "json":
        from dataclasses import asdict

        document = frames_document(frames, settings=asdict(_settings_from_args(args)))
        text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    elif len(frames) == 1:
        # A single experiment exports in its schema's wide CSV shape...
        (frame,) = frames.values()
        text = frame.to_csv()
    else:
        # ...while a mixed export uses the uniform tidy (long) shape.
        text = frames_to_csv(frames)
    _write_output(text, args.output)
    _print_engine_stats(runner, to_stderr=True)
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    """Re-run a baseline document's evaluation and compare within tolerance."""
    runner = _runner_from_args(args)
    try:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"cannot read baseline {args.baseline!r}: {error}", file=sys.stderr)
        return 2
    try:
        baseline = document_frames(payload)
    except ExperimentError as error:
        print(f"not a results document: {error}", file=sys.stderr)
        return 2

    try:
        settings = ExperimentSettings.from_dict(payload.get("settings") or {})
    except (ExperimentError, TypeError, ValueError) as error:
        print(f"baseline has malformed settings: {error}", file=sys.stderr)
        return 2

    # The baseline's frames define the comparison scope (partial baselines,
    # e.g. from `repro export --experiments`, are legitimate).  A baseline
    # frame this build can no longer reproduce -- its spec was deleted or
    # renamed -- is therefore *drift*, not a skip: silently passing would
    # let a vanished experiment through the gate.
    from repro.sim.frames import FrameDrift

    drifts = []
    known = []
    for name in baseline:
        if name not in EXPERIMENTS:
            drifts.append(
                FrameDrift(
                    frame=name,
                    kind="missing-frame",
                    detail="baseline experiment has no registered schema spec",
                )
            )
        else:
            known.append(name)
    try:
        current = collect_frames(settings, known, runner=runner)
    except (ExperimentError, TypeError, ValueError) as error:
        print(f"cannot re-run baseline evaluation: {error}", file=sys.stderr)
        return 2
    drifts += diff_documents(
        {name: baseline[name] for name in known},
        current,
        rel_tol=args.rtol,
        abs_tol=args.atol,
    )
    if drifts:
        print(f"results drifted from {args.baseline} ({len(drifts)} difference(s)):")
        for drift in drifts:
            print(f"  {drift}")
        _print_engine_stats(runner, to_stderr=True)
        return 1
    print(
        f"results match {args.baseline} "
        f"({len(known)} frame(s), rtol={args.rtol:g}, atol={args.atol:g})"
    )
    _print_engine_stats(runner, to_stderr=True)
    return 0


def _load_document(path: str):
    """Read one results document's frames, or None after printing why not."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"cannot read document {path!r}: {error}", file=sys.stderr)
        return None
    try:
        return document_frames(payload)
    except ExperimentError as error:
        print(f"{path!r} is not a results document: {error}", file=sys.stderr)
        return None


def _cmd_compare(args: argparse.Namespace) -> int:
    """Compare two results documents frame by frame, without re-running."""
    baseline = _load_document(args.baseline)
    current = _load_document(args.current)
    if baseline is None or current is None:
        return 2
    drifts = diff_documents(
        baseline, current, rel_tol=args.rtol, abs_tol=args.atol
    )
    by_frame: dict = {}
    for drift in drifts:
        by_frame.setdefault(drift.frame, []).append(drift)
    table = TextTable(
        ["experiment", "status", "differences"],
        title=f"compare: {args.baseline} vs {args.current}",
    )
    for name in sorted(set(baseline) | set(current)):
        frame_drifts = by_frame.get(name, [])
        status = "differs" if frame_drifts else "match"
        table.add_row([name, status, len(frame_drifts)])
    print(table.render())
    if drifts:
        print(f"{len(drifts)} difference(s):")
        for drift in drifts:
            print(f"  {drift}")
        return 1
    print(
        f"documents match ({len(baseline)} frame(s), "
        f"rtol={args.rtol:g}, atol={args.atol:g})"
    )
    return 0


def _add_tolerance_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``--rtol``/``--atol`` flags of ``diff`` and ``compare``."""
    parser.add_argument(
        "--rtol",
        type=parse_tolerance,
        default=1e-9,
        metavar="R",
        help="relative tolerance for numeric comparisons (default: 1e-9)",
    )
    parser.add_argument(
        "--atol",
        type=parse_tolerance,
        default=1e-12,
        metavar="A",
        help="absolute tolerance for numeric comparisons (default: 1e-12)",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser.

    The experiment subcommands are *generated* from the ``EXPERIMENTS``
    registry -- adding a spec adds its subcommand; nothing here names an
    individual experiment.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Mixed-Mode Multicore Reliability' (ASPLOS 2009).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list the registered experiment specs"
    )
    list_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the registry as JSON (spec names, axes, job kinds)",
    )
    list_parser.set_defaults(handler=_cmd_list)

    list_workloads_parser = subparsers.add_parser(
        "list-workloads", help="list the calibrated workload profiles"
    )
    list_workloads_parser.set_defaults(handler=_cmd_list_workloads)

    run_parser = subparsers.add_parser(
        "run", help="simulate one mixed-mode system and print a per-VM summary"
    )
    run_parser.add_argument("--policy", default="mmm-tp", choices=available_policies())
    run_parser.add_argument("--reliable", default="oltp", choices=PAPER_WORKLOAD_NAMES)
    run_parser.add_argument("--performance", default="apache", choices=PAPER_WORKLOAD_NAMES)
    run_parser.add_argument("--reliable-vcpus", type=int, default=8)
    run_parser.add_argument("--cycles", type=int, default=60_000)
    run_parser.add_argument("--warmup", type=int, default=15_000)
    run_parser.add_argument("--timeslice", type=int, default=25_000)
    run_parser.add_argument("--capacity-scale", type=int, default=8)
    run_parser.add_argument("--phase-scale", type=float, default=0.01)
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--single-os",
        action="store_true",
        help="simulate the single-OS desktop (MMM-IPC, fine-grained switching) instead",
    )
    run_parser.set_defaults(handler=_cmd_run)

    _add_spec_subcommands(subparsers)

    run_all_parser = subparsers.add_parser(
        "run-all", help="run every registered experiment as one (parallel) job batch"
    )
    _add_sweep_arguments(run_all_parser)
    run_all_parser.add_argument("--skip-switching", action="store_true")
    run_all_parser.add_argument("--skip-ablation", action="store_true")
    run_all_parser.add_argument("--skip-faults", action="store_true")
    run_all_parser.set_defaults(handler=_cmd_run_all)

    export_parser = subparsers.add_parser(
        "export",
        help="run experiments and export their result frames as CSV or JSON",
    )
    _add_sweep_arguments(export_parser, json_flag=False)
    export_parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default="json",
        help="export format (default: json, the canonical frames document)",
    )
    export_parser.add_argument(
        "--experiments",
        nargs="+",
        metavar="NAME",
        help="restrict the export to these registered specs (default: the run-all set)",
    )
    export_parser.add_argument(
        "--output",
        "-o",
        default=None,
        metavar="FILE",
        help="write to FILE instead of stdout",
    )
    export_parser.add_argument("--skip-switching", action="store_true")
    export_parser.add_argument("--skip-ablation", action="store_true")
    export_parser.add_argument("--skip-faults", action="store_true")
    export_parser.set_defaults(handler=_cmd_export)

    diff_parser = subparsers.add_parser(
        "diff",
        help=(
            "re-run a baseline results document (repro run-all --json) and "
            "fail on metric drift"
        ),
    )
    diff_parser.add_argument(
        "baseline",
        help="baseline document written by `repro run-all --json` or `repro export`",
    )
    _add_tolerance_arguments(diff_parser)
    _add_engine_arguments(diff_parser)
    diff_parser.set_defaults(handler=_cmd_diff)

    compare_parser = subparsers.add_parser(
        "compare",
        help=(
            "compare two results documents frame by frame (no re-run; "
            "exit 1 on drift)"
        ),
    )
    compare_parser.add_argument(
        "baseline", help="baseline document (`repro run-all --json` output)"
    )
    compare_parser.add_argument(
        "current", help="document to compare against the baseline"
    )
    _add_tolerance_arguments(compare_parser)
    compare_parser.set_defaults(handler=_cmd_compare)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or prune the on-disk result cache"
    )
    cache_subparsers = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_stats = cache_subparsers.add_parser(
        "stats", help="per-kind entry counts and sizes"
    )
    cache_stats.set_defaults(handler=_cmd_cache_stats)
    cache_clear = cache_subparsers.add_parser(
        "clear",
        help=(
            "delete cached results (e.g. entries left stale by a code change); "
            "--kind prunes one job kind only"
        ),
    )
    cache_clear.add_argument(
        "--kind",
        default=None,
        metavar="KIND",
        help="only clear this job kind's entries (default: everything)",
    )
    cache_clear.set_defaults(handler=_cmd_cache_clear)
    cache_prune = cache_subparsers.add_parser(
        "prune",
        help=(
            "garbage-collect the cache: drop entries older than --max-age, "
            "then evict oldest-first until the cache fits --max-bytes"
        ),
    )
    cache_prune.add_argument(
        "--max-age",
        type=parse_duration,
        default=None,
        metavar="AGE",
        help="drop entries older than AGE (seconds, or suffixed: 30m, 12h, 7d)",
    )
    cache_prune.add_argument(
        "--max-bytes",
        type=parse_size,
        default=None,
        metavar="SIZE",
        help="evict oldest entries until the cache fits SIZE (bytes, or 512k/100m/2g)",
    )
    cache_prune.set_defaults(handler=_cmd_cache_prune)
    for sub in (cache_stats, cache_clear, cache_prune):
        sub.add_argument(
            "--cache-dir",
            default=None,
            metavar="DIR",
            help="result cache location (default: .repro-cache, or $REPRO_CACHE_DIR)",
        )

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "run the distributed coordinator: queues submitted cells, leases "
            "them to workers and collects their results over HTTP"
        ),
    )
    serve_parser.add_argument("--host", default="127.0.0.1", metavar="ADDR")
    serve_parser.add_argument(
        "--port",
        type=int,
        default=8765,
        metavar="PORT",
        help="listening port (default: 8765; 0 picks a free port)",
    )
    serve_parser.add_argument(
        "--lease-seconds",
        type=float,
        default=60.0,
        metavar="S",
        help="re-queue a leased chunk after S seconds without a report (default: 60)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "shared result cache backing the coordinator's dedupe "
            "(default: .repro-cache, or $REPRO_CACHE_DIR)"
        ),
    )
    serve_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without an on-disk cache (results live in memory only)",
    )
    serve_parser.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    serve_parser.set_defaults(handler=_cmd_serve)

    worker_parser = subparsers.add_parser(
        "worker",
        help=(
            "run a pull-based worker: lease cell chunks from a coordinator, "
            "execute them locally, report metrics back"
        ),
    )
    worker_parser.add_argument(
        "--coordinator",
        required=True,
        metavar="URL",
        help="coordinator URL (printed by `repro serve`)",
    )
    worker_parser.add_argument(
        "--jobs",
        type=parse_positive_int,
        default=1,
        metavar="N",
        help="local parallelism: execute each leased chunk across N processes",
    )
    worker_parser.add_argument(
        "--id",
        default=None,
        metavar="NAME",
        help="worker identity in coordinator stats (default: host:pid)",
    )
    worker_parser.add_argument(
        "--poll",
        type=float,
        default=0.5,
        metavar="S",
        help="seconds between lease polls when the queue is empty (default: 0.5)",
    )
    worker_parser.add_argument(
        "--max-idle",
        type=float,
        default=None,
        metavar="S",
        help="exit after the queue stays empty for S seconds (default: poll forever)",
    )
    worker_parser.add_argument(
        "--max-batches",
        type=parse_positive_int,
        default=None,
        metavar="N",
        help="exit after completing N leases (mostly for tests)",
    )
    worker_parser.set_defaults(handler=_cmd_worker)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except KeyboardInterrupt:
        # Long-lived subcommands (serve, worker) stop with Ctrl-C.
        return 130


if __name__ == "__main__":
    sys.exit(main())
