"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep every CLI invocation's result cache inside the test's tmp dir."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path / "cache"


def cached_entries(cache_dir, kind):
    """Entry count for one kind, read through a fresh cache instance."""
    from repro.sim.runner import ResultCache

    stats = ResultCache(cache_dir).stats().get(kind)
    return stats.entries if stats is not None else 0


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    for command in (
        "run", "figure5", "figure6", "table1", "table2", "faults", "run-all",
        "list", "cache",
    ):
        assert command in out


def test_subcommands_are_generated_from_the_registry(capsys):
    # Every registered spec is a subcommand with the shared engine flags --
    # the CLI has no hand-written per-experiment parser blocks left.
    from repro.sim.specs import EXPERIMENTS

    parser = build_parser()
    for name, spec in EXPERIMENTS.items():
        args = parser.parse_args([name, "--jobs", "2", "--seeds", "1", "--no-cache"])
        assert args.command == name
        assert args.jobs == 2
        for option in spec.options:
            assert hasattr(args, option.name)


def test_list_enumerates_every_registered_spec(capsys):
    from repro.sim.specs import EXPERIMENTS

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name, spec in EXPERIMENTS.items():
        assert name in out
        assert spec.family in out
    assert "workload" in out  # grid axes are shown


def test_command_is_required():
    with pytest.raises(SystemExit):
        main([])


def test_list_workloads_prints_all_six(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("apache", "oltp", "pgoltp", "pmake", "pgbench", "zeus"):
        assert name in out


def test_run_consolidated_server_summary(capsys):
    exit_code = main(
        [
            "run",
            "--policy", "mmm-tp",
            "--reliable", "oltp",
            "--performance", "apache",
            "--reliable-vcpus", "2",
            "--cycles", "8000",
            "--warmup", "2000",
            "--timeslice", "4000",
            "--capacity-scale", "16",
            "--phase-scale", "0.004",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "reliable" in out and "performance" in out
    assert "overall throughput" in out
    assert "silent corruptions: 0" in out


def test_run_single_os_desktop(capsys):
    exit_code = main(
        [
            "run",
            "--single-os",
            "--reliable-vcpus", "1",
            "--cycles", "8000",
            "--warmup", "2000",
            "--timeslice", "4000",
            "--capacity-scale", "16",
            "--phase-scale", "0.004",
        ]
    )
    assert exit_code == 0
    out = capsys.readouterr().out
    assert "mmm-ipc" in out


def test_figure5_quick_subset(capsys, isolated_cache):
    assert main(["figure5", "--quick", "--workloads", "apache"]) == 0
    out = capsys.readouterr().out
    assert "Figure 5(a)" in out
    assert "Figure 5(b)" in out
    assert "apache" in out
    # Every engine-backed command reports its cache effectiveness.
    assert "experiment engine: 3 executed, 0 from cache, 0 memoized" in out
    # The engine cached every cell on disk (in the result store).
    assert cached_entries(isolated_cache, "figure5") == 3


def test_figure5_seed_sweep_multiplies_cells(capsys, isolated_cache):
    assert main(["figure5", "--quick", "--workloads", "apache", "--seeds", "0,1"]) == 0
    out = capsys.readouterr().out
    assert "experiment engine: 6 executed" in out
    assert cached_entries(isolated_cache, "figure5") == 6


def test_figure5_no_cache_leaves_no_files(capsys, isolated_cache):
    assert main(["figure5", "--quick", "--workloads", "apache", "--no-cache"]) == 0
    assert "Figure 5(a)" in capsys.readouterr().out
    assert not isolated_cache.exists()


@pytest.mark.slow
def test_run_all_quick(capsys, tmp_path):
    argv = [
        "run-all", "--quick", "--workloads", "apache", "--jobs", "2",
        "--cache-dir", str(tmp_path / "explicit"),
        "--skip-switching", "--skip-faults",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Figure 5(a)" in out
    assert "Figure 6(b)" in out
    assert "experiment engine:" in out
    assert "0 from cache" in out

    # A warm re-run against the same cache directory simulates nothing.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "0 executed" in out


def test_jobs_selects_the_process_backend(capsys):
    import json

    assert main(["figure5", "--quick", "--no-cache", "--jobs", "2"]) == 0
    (line,) = [
        line for line in capsys.readouterr().err.splitlines()
        if line.startswith("engine-stats: ")
    ]
    stats = json.loads(line[len("engine-stats: "):])
    assert stats["backend"] == "process" and stats["workers"] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["figure5", "--backend", "serial"],
        ["run-all", "--quick", "--backend", "thread"],
        ["report", "--quick"],
    ],
)
def test_removed_backend_flag_and_report_alias_exit_2(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2


def test_json_output_is_the_spec_document(capsys):
    import json

    assert main(
        ["figure5", "--quick", "--workloads", "apache", "--no-cache", "--json"]
    ) == 0
    captured = capsys.readouterr()
    # stdout is a clean, redirectable document; engine stats go to stderr.
    document = json.loads(captured.out)
    assert "experiment engine:" in captured.err
    assert document["experiment"] == "figure5"
    assert document["grid"]["workload"] == ["apache"]
    assert document["result"]["rows"][0]["workload"] == "apache"


def test_cache_stats_and_clear_by_kind(capsys, isolated_cache):
    assert main(["figure5", "--quick", "--workloads", "apache"]) == 0
    assert main(["faults", "--trials", "2", "--seeds", "1"]) == 0
    capsys.readouterr()

    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "figure5" in out and "faults" in out and "total" in out

    assert main(["cache", "clear", "--kind", "figure5"]) == 0
    assert "removed 3 cached 'figure5' entries" in capsys.readouterr().out
    assert cached_entries(isolated_cache, "figure5") == 0
    assert cached_entries(isolated_cache, "faults") > 0

    assert main(["cache", "clear"]) == 0
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    assert "no entries" in capsys.readouterr().out


def test_cache_stats_reports_schema_version_breakdown(capsys, isolated_cache):
    import json
    import sqlite3
    import zlib
    from contextlib import closing

    from repro.sim.store import DATABASE_NAME

    assert main(["figure5", "--quick", "--workloads", "apache"]) == 0
    # Plant a version-2 row next to the fresh ones: it must show up in the
    # breakdown even though loads treat it as a miss.
    stale = json.dumps(
        {"schema": 2, "key": "deadbeef", "kind": "figure5", "ts": 0.0,
         "metrics": {"user_ipc": 1.0}}
    )
    with closing(sqlite3.connect(isolated_cache / DATABASE_NAME)) as connection:
        with connection:
            connection.execute(
                "INSERT INTO results VALUES (?, ?, ?, ?, ?, ?)",
                ("deadbeef", "figure5", 2, 0.0,
                 zlib.crc32(stale.encode("utf-8")), stale),
            )
    capsys.readouterr()
    assert main(["cache", "stats"]) == 0
    out = capsys.readouterr().out
    assert "versions" in out
    assert "v2:1 v3:3" in out


@pytest.mark.parametrize("kind", ["..", "absolute"])
def test_cache_clear_refuses_a_kind_outside_the_cache(capsys, tmp_path, kind):
    # A kind names one directory under the cache root.  ".." or an absolute
    # path would aim clear at the cache's parent -- here a directory that
    # also holds a baseline document and an unrelated segments/ folder.
    from repro.sim.jobs import ExperimentJob
    from repro.sim.runner import ResultCache

    cache_dir = tmp_path / "cache"
    job = ExperimentJob(kind="figure5", workload="apache")
    ResultCache(cache_dir).store(job, {"m": 1.0})
    baseline = tmp_path / "baseline.json"
    baseline.write_text("{}", encoding="utf-8")
    bystander = tmp_path / "segments" / "notes.txt"
    bystander.parent.mkdir()
    bystander.write_text("keep me", encoding="utf-8")

    target = str(tmp_path) if kind == "absolute" else kind
    assert main(["cache", "clear", "--kind", target, "--cache-dir", str(cache_dir)]) == 2
    captured = capsys.readouterr()
    assert "invalid job kind" in captured.err and "removed" not in captured.out
    assert baseline.exists() and bystander.exists()
    assert ResultCache(cache_dir).load(job) == {"m": 1.0}


def test_faults_subcommand(capsys):
    assert main(["faults", "--trials", "5", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    assert "always-dmr" in out
    assert "naive-mode-switch" in out
    assert "experiment engine:" in out


def test_faults_parallel_matches_serial_and_warm_cache(capsys, isolated_cache):
    argv = ["faults", "--trials", "4", "--seeds", "2", "--jobs", "2"]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "0 from cache" in cold

    # A second run serves every campaign cell from the cache, with an
    # identical coverage table.
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "0 executed" in warm
    assert cold.split("experiment engine:")[0] == warm.split("experiment engine:")[0]


def test_faults_rate_sweep_and_extra_configurations(capsys):
    argv = [
        "faults", "--trials", "4", "--seeds", "1", "--no-cache",
        "--sweep-rates", "0.5,1.0", "--all-configurations",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Fault-space sweep" in out
    assert "dmr-plus-pab" in out
    assert "rate 0.5" in out and "rate 1" in out


def test_rejects_unknown_workload():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure5", "--workloads", "speccpu"])


def test_rejects_unknown_policy():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--policy", "tmr"])


def test_rejects_nonpositive_jobs():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure5", "--jobs", "0"])


@pytest.mark.parametrize("bad", ["", "0", "x", "1,x", ","])
def test_rejects_malformed_seed_lists(bad):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["figure5", "--seeds", bad])


@pytest.mark.parametrize("bad", ["0", "-1,1", "1.5", "x", "nan", "0.5,nan"])
def test_rejects_malformed_rate_sweeps(bad):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["faults", "--sweep-rates", bad])


def test_seed_list_and_count_forms():
    parser = build_parser()
    assert parser.parse_args(["figure5", "--seeds", "3"]).seeds == (0, 1, 2)
    assert parser.parse_args(["figure5", "--seeds", "4,7"]).seeds == (4, 7)
    # Duplicate seeds would double-count cells in a sweep; they are dropped.
    assert parser.parse_args(["figure5", "--seeds", "4,4,7"]).seeds == (4, 7)


def test_single_seed_measurements_announce_dropped_seeds(capsys):
    assert main(["table2", "--workloads", "apache", "--seeds", "5,6"]) == 0
    out = capsys.readouterr().out
    assert "note: this measurement uses a single seed; taking seed 5" in out
    assert "Table 2" in out


def test_engine_stats_stderr_line_is_machine_readable(capsys, isolated_cache):
    import json

    assert main(["figure5", "--quick", "--workloads", "apache", "--seeds", "1"]) == 0
    captured = capsys.readouterr()
    stats_lines = [
        line for line in captured.err.splitlines() if line.startswith("engine-stats: ")
    ]
    assert len(stats_lines) == 1
    stats = json.loads(stats_lines[0][len("engine-stats: "):])
    assert stats["executed"] > 0
    assert stats["backend"] == "serial" and stats["workers"] == 1
    assert stats["wall_seconds"] > 0
    assert "execute" in stats["phases"] and "enumerate" in stats["phases"]
    # The human summary carries the same timing suffix.
    assert "s wall (" in captured.out


def test_cache_prune_requires_a_limit(capsys, isolated_cache):
    assert main(["cache", "prune"]) == 2
    assert "--max-age" in capsys.readouterr().err


def test_cache_prune_by_age_and_size(capsys, isolated_cache):
    # Populate the cache, then prune with limits that keep everything...
    assert main(["figure5", "--quick", "--workloads", "apache", "--seeds", "1"]) == 0
    capsys.readouterr()
    assert main(["cache", "prune", "--max-age", "7d", "--max-bytes", "1g"]) == 0
    out = capsys.readouterr().out
    assert "pruned 0 entries" in out
    # ...then with a zero age horizon that removes everything.
    assert main(["cache", "prune", "--max-age", "0s"]) == 0
    out = capsys.readouterr().out
    assert "kept 0 entries" in out
    # A warm re-run is gone: the next run executes again.
    assert main(["figure5", "--quick", "--workloads", "apache", "--seeds", "1"]) == 0
    assert "0 from cache" in capsys.readouterr().out


def test_cache_compact_subcommand_is_removed(capsys):
    # The store reuses the space of replaced rows itself, and clear and
    # prune vacuum the file, so there is nothing left to compact.
    with pytest.raises(SystemExit) as exit_info:
        main(["cache", "compact"])
    assert exit_info.value.code == 2
    assert "invalid choice: 'compact'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["compare", "a.json", "a.json", "--atol", "-1"],
        ["compare", "a.json", "a.json", "--rtol", "inf"],
        ["compare", "a.json", "a.json", "--rtol", "nan"],
        ["diff", "baseline.json", "--rtol", "-1"],
        ["cache", "prune", "--max-bytes", "inf"],
        ["cache", "prune", "--max-bytes", "1e300g"],
        ["cache", "prune", "--max-age", "nan"],
        ["cache", "prune", "--max-age", "inf"],
    ],
    ids=[
        "compare-negative-atol",
        "compare-infinite-rtol",
        "compare-nan-rtol",
        "diff-negative-rtol",
        "prune-infinite-max-bytes",
        "prune-overflowing-max-bytes",
        "prune-nan-max-age",
        "prune-infinite-max-age",
    ],
)
def test_out_of_range_numbers_are_refused_at_parse_time(capsys, argv):
    # Each is refused by argparse (exit 2, usage error) before any document
    # is read, any evaluation re-runs or any cache entry is touched.
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "must be finite and non-negative" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,seconds",
    [("45", 45.0), ("30m", 1800.0), ("12h", 43200.0), ("7d", 604800.0), ("1w", 604800.0)],
)
def test_parse_duration_forms(text, seconds):
    from repro.cli import parse_duration

    assert parse_duration(text) == seconds


@pytest.mark.parametrize(
    "text,size",
    [("1048576", 1048576), ("512k", 524288), ("100m", 104857600), ("2g", 2147483648)],
)
def test_parse_size_forms(text, size):
    from repro.cli import parse_size

    assert parse_size(text) == size


@pytest.mark.parametrize("bad", ["", "x", "3q", "-5"])
def test_parse_duration_rejects_garbage(bad):
    import argparse

    from repro.cli import parse_duration

    with pytest.raises(argparse.ArgumentTypeError):
        parse_duration(bad)


def test_serve_and_worker_subcommands_parse():
    parser = build_parser()
    serve = parser.parse_args(["serve", "--port", "0", "--lease-seconds", "30"])
    assert serve.command == "serve" and serve.lease_seconds == 30.0
    worker = parser.parse_args(
        ["worker", "--coordinator", "http://127.0.0.1:1", "--jobs", "2"]
    )
    assert worker.command == "worker"
    assert worker.coordinator == "http://127.0.0.1:1" and worker.jobs == 2


def test_run_accepts_the_distributed_backend_flags():
    from repro.cli import _runner_from_args
    from repro.sim.distributed import DistributedBackend

    parser = build_parser()
    args = parser.parse_args(
        ["run-all", "--quick", "--jobs", "2", "--coordinator", "http://127.0.0.1:1"]
    )
    assert args.coordinator == "http://127.0.0.1:1"
    # --coordinator alone selects the fleet, whatever --jobs says.
    backend = _runner_from_args(args).backend
    assert isinstance(backend, DistributedBackend)
    assert backend.coordinator == "http://127.0.0.1:1"
