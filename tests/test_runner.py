"""Tests for the experiment engine: jobs, cache, runner, determinism.

The engine's contract has three legs, each asserted here:

* **identity** -- a job's cache key is a deterministic digest of everything
  that influences its result, and of nothing else (restricting a sweep's
  workload selection must not invalidate cached cells);
* **determinism** -- a cell produces byte-identical serialized results
  whether it runs in-process, in a process-pool worker, serially or in a
  multi-worker batch (this is what makes the cache sound);
* **incrementality** -- a warm cache re-run executes zero simulation jobs.
"""

from __future__ import annotations

import dataclasses
import json
import sqlite3
import zlib
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import replace
from typing import Union

import pytest

import repro.sim.jobs as jobs_module

from repro.errors import ExperimentError
from repro.sim.experiments import (
    ExperimentSettings,
    figure5_jobs,
    figure6_jobs,
    pab_jobs,
    run_all_experiments,
    run_all_spec_names,
    switch_overhead_jobs,
    window_ablation_jobs,
)
from repro.sim.jobs import (
    CACHE_SCHEMA_VERSION,
    ExperimentJob,
    execute_job,
    register_job_kind,
    registered_job_kinds,
    simulate_cell,
)
from repro.sim.runner import (
    ExperimentRunner,
    ResultCache,
    RunnerBackend,
    SerialBackend,
    default_runner,
    set_default_runner,
    using_runner,
)
from repro.sim.specs import experiment
from repro.sim.store import DATABASE_NAME

QUICK = ExperimentSettings.quick().with_workloads(("apache",))


def quick_job(variant: str = "no-dmr", seed: int = 0) -> ExperimentJob:
    return ExperimentJob(
        kind="figure5", workload="apache", variant=variant, seed=seed,
        settings=QUICK.cell_settings(),
    )


def record_payload(job: ExperimentJob, **fields: object) -> str:
    """A well-formed record text for ``job``, with ``fields`` overridden."""
    record = {
        "schema": CACHE_SCHEMA_VERSION,
        "key": job.cache_key(),
        "metrics": {"user_ipc": 0.25},
    }
    record.update(fields)
    return json.dumps(record, sort_keys=True)


def plant_row(cache_dir, job: ExperimentJob, payload: Union[str, bytes]) -> None:
    """Make ``job``'s row carry ``payload``, with a CRC that matches it.

    A ``str`` lands as SQLite text, ``bytes`` as a blob.  Only record
    validation stands between whatever the payload says and a hit.
    """
    ResultCache(cache_dir).store(job, {})
    raw = payload.encode("utf-8") if isinstance(payload, str) else payload
    with closing(sqlite3.connect(cache_dir / DATABASE_NAME)) as connection:
        with connection:
            connection.execute(
                "UPDATE results SET crc = ?, record = ? WHERE key = ?",
                (zlib.crc32(raw), payload, job.cache_key()),
            )


def assert_miss_then_store_wins(cache_dir, job: ExperimentJob) -> None:
    """``job`` loads as a miss, and storing it makes the new record the hit."""
    cache = ResultCache(cache_dir)
    assert cache.load(job) is None
    cache.store(job, {"user_ipc": 0.5})
    assert cache.load(job) == {"user_ipc": 0.5}
    assert ResultCache(cache_dir).load(job) == {"user_ipc": 0.5}


class TestJobModel:
    def test_cache_key_is_stable(self):
        assert quick_job().cache_key() == quick_job().cache_key()

    def test_cache_key_distinguishes_every_identity_field(self):
        baseline = quick_job()
        different = [
            quick_job(variant="reunion"),
            quick_job(seed=1),
            replace(baseline, kind="figure6"),
            replace(baseline, workload="pmake"),
            replace(baseline, settings=replace(QUICK.cell_settings(), total_cycles=999)),
            replace(baseline, params=(("x", 1),)),
        ]
        keys = {job.cache_key() for job in different}
        assert baseline.cache_key() not in keys
        assert len(keys) == len(different)

    def test_workload_selection_does_not_leak_into_cell_identity(self):
        # A sweep restricted to one workload reuses the cells of the full
        # sweep: the enumerators normalise the selection away.
        wide = ExperimentSettings.quick()  # apache + pmake
        narrow = wide.with_workloads(("apache",))
        assert set(figure5_jobs(narrow)) <= set(figure5_jobs(wide))
        assert set(figure6_jobs(narrow)) <= set(figure6_jobs(wide))
        assert set(pab_jobs(narrow)) <= set(pab_jobs(wide))
        assert set(window_ablation_jobs(narrow)) <= set(window_ablation_jobs(wide))

    def test_cache_key_digests_the_simulating_code(self, monkeypatch):
        # Any edit to the package must invalidate cached cells, so results
        # simulated by different code are never served as current.
        import repro.sim.jobs as jobs_module

        before = quick_job().cache_key()
        monkeypatch.setattr(jobs_module, "_CODE_FINGERPRINT", "different-code")
        assert quick_job().cache_key() != before

    def test_jobs_are_hashable_and_picklable(self):
        import pickle

        job = quick_job()
        assert pickle.loads(pickle.dumps(job)) == job
        assert len({job, quick_job()}) == 1

    def test_a_job_holds_what_its_cell_varies_in(self):
        # A machine preset every cell of a kind shares is the executor's,
        # never a field of the job.
        assert [field.name for field in dataclasses.fields(ExperimentJob)] == [
            "kind", "workload", "variant", "seed", "settings", "params",
        ]

    def test_table1_jobs_carry_cell_settings(self):
        settings = replace(QUICK, switch_transitions=2, switch_warmup_cycles=500)
        (job,) = switch_overhead_jobs(settings.with_seeds((3, 4)))
        assert (job.kind, job.workload, job.seed) == ("table1", "apache", 3)
        assert job.settings == settings.cell_settings()
        assert job.params == ()
        assert job.param("missing", 42) == 42

    def test_table1_measures_the_settings_transition_count(self, monkeypatch):
        from repro.core.transitions import ModeTransitionEngine

        measured = []
        enter_dmr = ModeTransitionEngine.enter_dmr

        def counting_enter_dmr(self, *args, **kwargs):
            measured.append(kwargs["current_cycle"])
            return enter_dmr(self, *args, **kwargs)

        monkeypatch.setattr(ModeTransitionEngine, "enter_dmr", counting_enter_dmr)
        settings = ExperimentSettings().with_workloads(("apache",))
        (job,) = switch_overhead_jobs(replace(settings, switch_transitions=2))
        metrics = execute_job(job)
        assert measured == [0, 1]
        assert set(metrics) == {"enter_dmr_cycles", "leave_dmr_cycles"}

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ExperimentError, match="registered kinds"):
            execute_job(replace(quick_job(), kind="figure7"))

    def test_settings_driven_kinds_require_settings(self):
        with pytest.raises(ExperimentError):
            simulate_cell(replace(quick_job(), settings=None))


class TestJobKindRegistry:
    def test_every_builtin_kind_is_registered(self):
        # Importing the package registers the simulation kinds *and* the
        # fault-campaign kind (repro.faults.cells) -- the same chain a
        # process-pool worker follows when it unpickles execute_job.
        assert set(registered_job_kinds()) >= {
            "figure5", "figure6", "pab", "ablation", "table1", "table2", "faults",
        }

    def test_registered_kind_dispatches(self):
        def fake(job):
            return {"answer": 42.0}

        register_job_kind("registry-test", fake)
        try:
            assert execute_job(replace(quick_job(), kind="registry-test")) == {
                "answer": 42.0
            }
        finally:
            del jobs_module._EXECUTORS["registry-test"]

    def test_decorator_form_and_duplicate_rejection(self):
        @register_job_kind("registry-dup")
        def first(job):
            return {}

        try:
            # Re-registering the same function is a harmless no-op...
            register_job_kind("registry-dup", first)
            # ...but a different executor must be explicit about replacing.
            with pytest.raises(ExperimentError):
                register_job_kind("registry-dup", lambda job: {})
            register_job_kind("registry-dup", lambda job: {"v": 1.0}, replace=True)
        finally:
            del jobs_module._EXECUTORS["registry-dup"]

    def test_module_reload_reregistration_is_harmless(self):
        # Reloading a registering module creates new function objects with
        # the same module/qualname; that must not raise.
        import importlib

        import repro.faults.cells as cells_module

        before = jobs_module._EXECUTORS["faults"]
        importlib.reload(cells_module)
        assert jobs_module._EXECUTORS["faults"] is not before
        assert "faults" in registered_job_kinds()


class TestResultCache:
    def test_store_and_load_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = quick_job()
        assert cache.load(job) is None
        cache.store(job, {"user_ipc": 0.5, "throughput": 1.25})
        assert cache.load(job) == {"user_ipc": 0.5, "throughput": 1.25}
        # The result lands in the database file.
        assert (tmp_path / DATABASE_NAME).is_file()

    @pytest.mark.parametrize(
        "garbage",
        [
            "",                         # empty record text
            '{"schema": 1, "key": ',    # truncated mid-write
            "null",                     # valid JSON, wrong shape
            "[1, 2, 3]",                # valid JSON, wrong shape
            b"\xff\xfe garbage bytes",  # undecodable, stored as a blob
        ],
    )
    def test_truncated_or_malformed_entries_never_raise(self, tmp_path, garbage):
        # A row whose CRC checks out can still carry a payload that is not
        # a record object (a writer bug, a hand edit): it must read as a
        # miss that the re-run simply supersedes, never as an error.
        job = quick_job()
        plant_row(tmp_path, job, garbage)
        assert_miss_then_store_wins(tmp_path, job)

    def test_non_dict_metrics_is_a_miss(self, tmp_path):
        # Schema and key check out, but the metrics payload is garbage.
        job = quick_job()
        plant_row(tmp_path, job, record_payload(job, metrics=7))
        assert_miss_then_store_wins(tmp_path, job)

    def test_key_mismatch_is_a_miss(self, tmp_path):
        # The row under this key holds a record of a different cell.
        job, other = quick_job(), quick_job(variant="reunion")
        plant_row(tmp_path, job, record_payload(other))
        assert_miss_then_store_wins(tmp_path, job)

    def test_stale_schema_is_a_miss(self, tmp_path):
        # A record written under an older cache schema version.
        job = quick_job()
        plant_row(tmp_path, job, record_payload(job, schema=CACHE_SCHEMA_VERSION - 1))
        assert_miss_then_store_wins(tmp_path, job)

    def test_well_formed_planted_record_is_a_hit(self, tmp_path):
        # The control for the cases above: the same planting, valid fields.
        job = quick_job()
        plant_row(tmp_path, job, record_payload(job))
        assert ResultCache(tmp_path).load(job) == {"user_ipc": 0.25}

    @pytest.mark.parametrize("kind", ["", ".", "..", "a/b", "/abs"])
    def test_kind_must_be_one_plain_name(self, tmp_path, kind):
        # Kinds arrive from outside the program (`cache clear --kind`,
        # coordinator submissions); anything but one plain name is refused
        # before the store touches the disk.
        cache = ResultCache(tmp_path / "cache")
        job = ExperimentJob(kind=kind, workload="w")
        with pytest.raises(ExperimentError, match="invalid job kind"):
            cache.clear(kind=kind)
        with pytest.raises(ExperimentError, match="invalid job kind"):
            cache.load(job)
        with pytest.raises(ExperimentError, match="invalid job kind"):
            cache.store(job, {"m": 1.0})
        assert not list(tmp_path.iterdir())

    def test_clear_removes_every_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(quick_job(), {"a": 1.0})
        cache.store(quick_job(variant="reunion"), {"a": 2.0})
        assert cache.clear() == 2
        assert cache.load(quick_job()) is None

    def test_clear_by_kind_prunes_only_that_kind(self, tmp_path):
        cache = ResultCache(tmp_path)
        figure5 = quick_job()
        figure6 = replace(quick_job(), kind="figure6")
        cache.store(figure5, {"a": 1.0})
        cache.store(figure6, {"b": 2.0})
        assert cache.clear(kind="figure5") == 1
        assert cache.load(figure5) is None
        assert cache.load(figure6) == {"b": 2.0}
        assert cache.clear(kind="no-such-kind") == 0

    def test_stats_reports_entries_and_bytes_per_kind(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.stats() == {}
        cache.store(quick_job(), {"a": 1.0})
        cache.store(quick_job(variant="reunion"), {"a": 2.0})
        cache.store(replace(quick_job(), kind="figure6"), {"b": 3.0})
        stats = cache.stats()
        assert set(stats) == set(cache.kinds()) == {"figure5", "figure6"}
        assert stats["figure5"].entries == 2
        assert stats["figure6"].entries == 1
        for kind_stats in stats.values():
            assert kind_stats.bytes > 0

    def test_store_leaves_no_temporary_files(self, tmp_path):
        # A committed transaction removes its rollback journal: only the
        # database file remains.
        cache = ResultCache(tmp_path)
        job = quick_job()
        cache.store(job, {"a": 1.0})
        cache.flush()
        assert [p.name for p in tmp_path.rglob("*")] == [DATABASE_NAME]
        assert cache.load(job) == {"a": 1.0}


class TestRunner:
    def test_rejects_zero_workers(self):
        with pytest.raises(ExperimentError):
            ExperimentRunner(jobs=0)

    def test_batches_deduplicate_and_memoize(self):
        calls = []

        def fake(job):
            calls.append(job)
            return {"value": float(len(calls))}

        runner = ExperimentRunner(jobs=1, use_cache=False, executor=fake)
        a, b = quick_job(), quick_job(variant="reunion")
        results = runner.run_jobs([a, a, b])
        assert len(calls) == 2
        assert results[a] == {"value": 1.0}
        assert results[b] == {"value": 2.0}
        assert runner.stats.executed == 2
        assert runner.stats.memoized == 1
        # A later batch reuses the runner's memo without re-executing.
        assert runner.run_job(a) == {"value": 1.0}
        assert runner.stats.executed == 2

    def test_on_disk_cache_survives_runner_restarts(self, tmp_path):
        calls = []

        def fake(job):
            calls.append(job)
            return {"value": 7.0}

        first = ExperimentRunner(jobs=1, cache_dir=tmp_path, executor=fake)
        first.run_job(quick_job())
        assert first.stats.executed == 1

        second = ExperimentRunner(jobs=1, cache_dir=tmp_path, executor=fake)
        assert second.run_job(quick_job()) == {"value": 7.0}
        assert second.stats.executed == 0
        assert second.stats.cached == 1
        assert len(calls) == 1

    def test_results_are_cached_as_cells_complete(self, tmp_path):
        # An interrupted batch keeps every finished cell: the re-run only
        # executes what is missing.
        def flaky(job):
            if job.variant == "reunion":
                raise RuntimeError("boom")
            return {"value": 1.0}

        broken = ExperimentRunner(jobs=1, cache_dir=tmp_path, executor=flaky)
        with pytest.raises(RuntimeError):
            broken.run_jobs([quick_job(), quick_job(variant="reunion")])
        assert broken.stats.executed == 1

        resumed = ExperimentRunner(jobs=1, cache_dir=tmp_path, executor=flaky)
        assert resumed.run_job(quick_job()) == {"value": 1.0}
        assert resumed.stats.cached == 1
        assert resumed.stats.executed == 0

    def test_backend_defaults_follow_worker_count(self):
        assert ExperimentRunner(jobs=1, use_cache=False).backend.name == "serial"
        assert ExperimentRunner(jobs=2, use_cache=False).backend.name == "process"

    def test_backend_chosen_by_name(self):
        runner = ExperimentRunner(jobs=1, use_cache=False, backend="process")
        assert runner.backend.name == "process"
        # An instance is accepted as-is, too.
        serial = SerialBackend()
        assert ExperimentRunner(use_cache=False, backend=serial).backend is serial

    def test_unknown_backend_is_rejected(self):
        # Any other name, "thread" included, is refused with the two
        # accepted names.
        for name in ("quantum", "thread"):
            with pytest.raises(ExperimentError, match="'serial' or 'process'"):
                ExperimentRunner(jobs=2, use_cache=False, backend=name)

    def test_custom_backend_plugs_in(self):
        # The seam the distributed backend uses: any instance mapping
        # pending cells to (job, metrics) pairs works.
        class RecordingBackend(RunnerBackend):
            name = "recording"

            def __init__(self):
                self.batches = []

            def execute(self, executor, pending, workers):
                self.batches.append(len(pending))
                for job in pending:
                    yield job, executor(job)

        backend = RecordingBackend()
        runner = ExperimentRunner(
            jobs=4, use_cache=False, executor=lambda job: {"v": 1.0},
            backend=backend,
        )
        batch = [quick_job(seed=seed) for seed in range(3)]
        assert len(runner.run_jobs(batch)) == 3
        # Single-cell batches reach the backend too: a remote-only backend
        # must never be silently bypassed in favour of local execution.
        runner.run_job(quick_job(seed=99))
        assert backend.batches == [3, 1]

    def test_default_runner_installation(self):
        fallback = default_runner()
        assert fallback.jobs == 1 and fallback.cache is None
        custom = ExperimentRunner(jobs=1, use_cache=False)
        with using_runner(custom) as installed:
            assert installed is custom
            assert default_runner() is custom
        assert default_runner() is not custom
        set_default_runner(None)


def serialized(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


class TestDeterminism:
    """Same seed, same cell => byte-identical results, however it runs."""

    def test_pool_worker_matches_in_process_run(self):
        job = quick_job(variant="reunion")
        local = simulate_cell(job)
        with ProcessPoolExecutor(max_workers=1) as pool:
            remote = pool.submit(simulate_cell, job).result()
        assert serialized(local) == serialized(remote)

    def test_repeated_simulations_are_reproducible(self):
        job = quick_job()
        assert serialized(simulate_cell(job)) == serialized(simulate_cell(job))


@pytest.mark.slow
class TestSpecReproducibility:
    """Two fresh runners running one spec produce byte-identical frames --
    the contract the cache key relies on."""

    NAMES = ("figure5", "figure6", "pab", "ablation", "table1", "table2", "single-os")

    @pytest.mark.parametrize("name", NAMES)
    def test_two_fresh_runners_agree(self, name):
        def run():
            frame = experiment(name).run(
                QUICK, runner=ExperimentRunner(jobs=1, use_cache=False)
            )
            return json.dumps(frame.to_json(), sort_keys=True)

        assert run() == run()


@pytest.mark.slow
class TestRunAllParity:
    """The acceptance contract: ``run-all --jobs 4`` equals the serial path,
    and a warm cache re-run executes zero simulation jobs."""

    def test_parallel_matches_serial_and_warm_cache_runs_nothing(self, tmp_path):
        settings = QUICK
        serial = ExperimentRunner(jobs=1, cache_dir=tmp_path / "serial")
        parallel = ExperimentRunner(jobs=4, cache_dir=tmp_path / "parallel")

        one = run_all_experiments(settings, runner=serial)
        four = run_all_experiments(settings, runner=parallel)
        assert serial.stats.executed == parallel.stats.executed > 0
        # Every spec in the batch: both backends, byte for byte.
        assert json.dumps(one.to_document(), sort_keys=True) == json.dumps(
            four.to_document(), sort_keys=True
        )
        assert one.render() == four.render()

        # Re-running against the serial runner's cache simulates nothing --
        # including the fault-campaign cells, which ride the same batch.
        assert one.frame("faults").rows
        warm = ExperimentRunner(jobs=4, cache_dir=tmp_path / "serial")
        again = run_all_experiments(settings, runner=warm)
        assert warm.stats.executed == 0
        assert warm.stats.cached == serial.stats.executed
        assert again.to_document() == one.to_document()
        assert again.render() == one.render()

    def test_sections_cover_every_experiment(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        result = run_all_experiments(QUICK, runner=runner)
        report = result.render()
        for marker in ("Figure 5(a)", "Figure 5(b)", "Figure 6(a)", "Figure 6(b)",
                       "PAB", "Table 1", "Table 2", "Single-OS", "window size",
                       "Fault-injection coverage"):
            assert marker in report
        assert result.frame("single-os").rows and result.frame("ablation").rows
        faults = result.frame("faults")
        assert faults.value("coverage", configuration="always-dmr").mean == 1.0

    def test_report_without_switching_and_ablation_keeps_the_core_sections(
        self, tmp_path
    ):
        report = run_all_experiments(
            ExperimentSettings.quick(),
            runner=ExperimentRunner(jobs=1, cache_dir=tmp_path),
            names=run_all_spec_names(("switching", "ablation")),
        ).render()
        for marker in ("Figure 5(a)", "Figure 5(b)", "Figure 6(a)", "Figure 6(b)",
                       "PAB", "Fault-injection coverage"):
            assert marker in report
        for marker in ("Table 1", "Table 2", "Single-OS", "window size"):
            assert marker not in report


class TestAdaptiveChunking:
    """The chunker shared by the process backend and distributed leases."""

    def test_small_batches_stay_fine_grained(self):
        from repro.sim.runner import adaptive_chunk_size

        # Few cells per worker slot: one cell per round, best load balance.
        assert adaptive_chunk_size(1, 4) == 1
        assert adaptive_chunk_size(8, 4) == 1
        assert adaptive_chunk_size(0, 4) == 1

    def test_large_batches_amortise_per_round_overhead(self):
        from repro.sim.runner import MAX_CHUNK_SIZE, adaptive_chunk_size

        assert adaptive_chunk_size(64, 4) == 4
        # The cap bounds lease loss when a worker dies mid-chunk.
        assert adaptive_chunk_size(10_000, 2) == MAX_CHUNK_SIZE
        assert adaptive_chunk_size(100, 0) == MAX_CHUNK_SIZE

    def test_chunks_cover_the_batch_in_order(self):
        from repro.sim.runner import adaptive_chunks

        batch = [quick_job(seed=seed) for seed in range(11)]
        chunks = list(adaptive_chunks(batch, 2))
        assert [job for chunk in chunks for job in chunk] == batch
        assert all(chunks)  # no empty chunk
        sizes = {len(chunk) for chunk in chunks}
        assert len(sizes) <= 2  # equal-sized except possibly the tail

    def test_chunked_process_pool_matches_serial(self, tmp_path):
        batch = figure5_jobs(QUICK)
        serial = ExperimentRunner(jobs=1).run_jobs(batch)
        pooled = ExperimentRunner(jobs=2).run_jobs(batch)
        assert json.dumps(
            {job.cache_key(): serial[job] for job in batch}, sort_keys=True
        ) == json.dumps(
            {job.cache_key(): pooled[job] for job in batch}, sort_keys=True
        )


class TestRunnerStatsTiming:
    """Per-phase wall-clock accounting on RunnerStats."""

    def test_phases_accumulate_and_reenter(self):
        from repro.sim.runner import RunnerStats

        stats = RunnerStats()
        with stats.phase("execute"):
            pass
        with stats.phase("execute"):
            pass
        with stats.phase("assemble"):
            pass
        assert set(stats.phase_seconds) == {"execute", "assemble"}
        assert stats.wall_seconds == pytest.approx(
            sum(stats.phase_seconds.values())
        )

    def test_summary_keeps_the_historical_prefix(self):
        from repro.sim.runner import RunnerStats

        stats = RunnerStats(executed=3, cached=1, memoized=2)
        assert stats.summary() == "3 executed, 1 from cache, 2 memoized"
        with stats.phase("execute"):
            pass
        timed = stats.summary()
        assert timed.startswith("3 executed, 1 from cache, 2 memoized | ")
        assert "wall (execute " in timed

    def test_to_dict_is_json_safe(self):
        from repro.sim.runner import RunnerStats

        stats = RunnerStats(executed=2, cached=1)
        with stats.phase("cache-hit"):
            pass
        payload = json.loads(json.dumps(stats.to_dict()))
        assert payload["executed"] == 2
        assert payload["total"] == 3
        assert "cache-hit" in payload["phases"]
        assert payload["wall_seconds"] >= 0.0

    def test_runner_records_the_standard_phases(self, tmp_path):
        runner = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        runner.run_jobs([quick_job()])
        assert "cache-hit" in runner.stats.phase_seconds
        assert "execute" in runner.stats.phase_seconds
        # A warm re-run probes the cache but executes nothing new.
        warm = ExperimentRunner(jobs=1, cache_dir=tmp_path)
        warm.run_jobs([quick_job()])
        assert "execute" not in warm.stats.phase_seconds


class TestCachePrune:
    """`repro cache prune`: age- and size-bounded garbage collection."""

    def _fill(self, cache, count):
        jobs = [quick_job(seed=seed) for seed in range(count)]
        for seed, job in enumerate(jobs):
            cache.store(job, {"m": seed})
        return jobs

    def test_age_limit_removes_only_stale_entries(self, tmp_path):
        # Ages come from the record timestamps, which follow the injected
        # clock: seed 0 is stored two hours before the rest.
        ticks = {"now": 1_000_000.0}
        cache = ResultCache(tmp_path, clock=lambda: ticks["now"])
        jobs = [quick_job(seed=seed) for seed in range(3)]
        cache.store(jobs[0], {"m": 0})
        ticks["now"] += 7200
        for seed, job in enumerate(jobs[1:], start=1):
            cache.store(job, {"m": seed})
        result = cache.prune(max_age_seconds=3600, now=ticks["now"])
        assert result.removed_entries == 1
        assert result.kept_entries == 2
        assert cache.load(jobs[0]) is None
        assert cache.load(jobs[1]) is not None

    def test_size_limit_evicts_oldest_first(self, tmp_path):
        ticks = {"now": 1_000_000.0}
        cache = ResultCache(tmp_path, clock=lambda: ticks["now"])
        jobs = [quick_job(seed=seed) for seed in range(4)]
        # Make ages distinct and increasing with seed (seed 0 is oldest).
        for seed, job in enumerate(jobs):
            cache.store(job, {"m": seed})
            ticks["now"] += 100.0
        # All four records have the same size, so half the live bytes is
        # exactly the budget for the two newest entries.
        keep_two = cache.stats()["figure5"].bytes // 2
        result = cache.prune(max_bytes=keep_two, now=ticks["now"])
        assert result.removed_entries == 2
        assert cache.load(jobs[0]) is None and cache.load(jobs[1]) is None
        assert cache.load(jobs[2]) is not None and cache.load(jobs[3]) is not None
        assert result.kept_bytes <= keep_two
        # The evicted rows are gone for a fresh instance too.
        rescan = ResultCache(tmp_path)
        assert rescan.load(jobs[0]) is None
        assert rescan.load(jobs[3]) is not None

    def test_noop_pass_counts_the_inventory(self, tmp_path):
        cache = ResultCache(tmp_path)
        self._fill(cache, 2)
        result = cache.prune()
        assert result.removed_entries == 0
        assert result.kept_entries == 2
        assert "pruned 0 entries" in result.summary()

    def test_pruning_a_missing_directory_is_a_noop(self, tmp_path):
        result = ResultCache(tmp_path / "never-created").prune(max_age_seconds=1)
        assert result.removed_entries == 0 and result.kept_entries == 0
