"""Tests for the SQLite result store (`repro.sim.store`).

Four legs:

* **records** -- a record holds only what a load reads, and every row is
  checked on read: a row whose CRC no longer matches its text is a miss the
  next store replaces, and a probe of more keys than SQLite's historic
  999-parameter limit returns every hit;
* **sharing** -- a fresh instance reads what another stored, two instances
  or two processes storing into one directory at once both land, and the
  last write of a key wins;
* **crash safety** -- a run killed inside a store transaction keeps every
  committed cell and re-executes only the one in flight; a damaged
  database file reads as misses, is moved aside, and the rerun fills a
  fresh file;
* **parity** -- the same sweep produces byte-identical result frames
  across the {serial, process, distributed} backends, cold and warm.
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import pytest

from repro.sim.distributed import CoordinatorServer, DistributedBackend, run_worker
from repro.sim.experiments import figure5_jobs
from repro.sim.jobs import CACHE_SCHEMA_VERSION, ExperimentJob, code_fingerprint
from repro.sim.runner import ExperimentRunner
from repro.sim.settings import ExperimentSettings
from repro.sim.store import DATABASE_NAME, ResultCache

QUICK = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0,))
SRC = str(Path(__file__).resolve().parent.parent / "src")


def quick_job(variant: str = "no-dmr", seed: int = 0) -> ExperimentJob:
    return ExperimentJob(
        kind="figure5", workload="apache", variant=variant, seed=seed,
        settings=QUICK.cell_settings(),
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def fake_executor(job: ExperimentJob) -> dict:
    return {"m": float(job.seed)}


# ===================================================================== #
# Record checks
# ===================================================================== #


class TestRecords:
    @pytest.mark.parametrize(
        "tamper",
        [
            # Still a valid record, so only the CRC can tell.
            "replace(record, '\"m\":1.0', '\"m\":2.0')",
            # Invalid UTF-8 inside a text value: a miss, never a decode error.
            "CAST(replace(CAST(record AS BLOB), X'7B', X'FF') AS TEXT)",
        ],
        ids=["edited-metric", "invalid-utf8"],
    )
    def test_crc_mismatch_is_a_miss_and_the_next_store_wins(self, tmp_path, tamper):
        cache = ResultCache(tmp_path)
        cache.store(quick_job(), {"m": 1.0})
        with closing(sqlite3.connect(tmp_path / DATABASE_NAME)) as connection:
            with connection:
                connection.execute(f"UPDATE results SET record = {tamper}")
        assert ResultCache(tmp_path).load(quick_job()) is None
        cache.store(quick_job(), {"m": 3.0})
        assert ResultCache(tmp_path).load(quick_job()) == {"m": 3.0}

    def test_probe_of_1218_keys_returns_every_hit(self, tmp_path, monkeypatch):
        # A default `run-all` probes 1,218 keys in one load_many, and SQLite
        # builds before 3.32 take at most 999 parameters per statement.
        # Python 3.11+ can impose that limit on a newer build.
        connect = sqlite3.connect

        def connect_with_historic_limit(*args, **kwargs):
            connection = connect(*args, **kwargs)
            connection.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 999)
            return connection

        if hasattr(sqlite3.Connection, "setlimit"):
            monkeypatch.setattr(sqlite3, "connect", connect_with_historic_limit)
        jobs = [quick_job(seed=seed) for seed in range(1218)]
        ResultCache(tmp_path).store_many([(job, fake_executor(job)) for job in jobs])
        hits = ResultCache(tmp_path).load_many(jobs)
        assert len(hits) == len(jobs)
        assert all(hits[job] == {"m": float(job.seed)} for job in jobs)

    def test_a_record_holds_what_a_load_reads(self, tmp_path):
        # The kind and the timestamp are table columns, and the cell's
        # description is digested into its key: the record carries neither.
        job = quick_job()
        ResultCache(tmp_path).store_many([(job, {"m": 1.0})])
        with closing(sqlite3.connect(tmp_path / DATABASE_NAME)) as connection:
            (kind, text), = connection.execute("SELECT kind, record FROM results")
        assert kind == "figure5"
        assert json.loads(text) == {
            "schema": CACHE_SCHEMA_VERSION,
            "key": job.cache_key(),
            "metrics": {"m": 1.0},
        }


# ===================================================================== #
# One database shared by instances and processes
# ===================================================================== #


# Each child script takes the test process's code_fingerprint() as its last
# argument and keys its cells with it, so the keys match the test's even when
# a source file changes while the suite runs.
_WRITER_CHILD = """\
import os, sys, time

import repro.sim.jobs
from repro.sim.jobs import ExperimentJob
from repro.sim.settings import ExperimentSettings
from repro.sim.store import ResultCache

cache_dir, first = sys.argv[1], int(sys.argv[2])
repro.sim.jobs._CODE_FINGERPRINT = sys.argv[3]
settings = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0,))
cache = ResultCache(cache_dir)
open(os.path.join(cache_dir, f"ready-{first}"), "w").close()
deadline = time.monotonic() + 60
while not os.path.exists(os.path.join(cache_dir, "go")):
    if time.monotonic() > deadline:
        sys.exit("never told to go")
    time.sleep(0.005)
for seed in range(first, first + 40):
    job = ExperimentJob(kind="figure5", workload="apache", variant="no-dmr",
                        seed=seed, settings=settings.cell_settings())
    cache.store(job, {"m": float(seed)})
"""


class TestSharing:
    def test_fresh_instance_reads_what_another_stored(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.store(quick_job(), {"m": 1.0})
        writer.flush()
        assert ResultCache(tmp_path).load(quick_job()) == {"m": 1.0}

    def test_two_instances_writing_one_directory_both_land(self, tmp_path):
        one, two = ResultCache(tmp_path), ResultCache(tmp_path)
        one.store(quick_job(seed=0), {"m": 0.0})
        two.store(quick_job(seed=1), {"m": 1.0})
        reader = ResultCache(tmp_path)
        assert reader.load(quick_job(seed=0)) == {"m": 0.0}
        assert reader.load(quick_job(seed=1)) == {"m": 1.0}

    def test_last_write_wins_on_duplicate_keys(self, tmp_path):
        ticks = {"now": 1_000_000.0}
        cache = ResultCache(tmp_path, clock=lambda: ticks["now"])
        cache.store(quick_job(), {"m": 1.0})
        ticks["now"] += 10.0
        cache.store(quick_job(), {"m": 2.0})
        assert cache.load(quick_job()) == {"m": 2.0}
        assert ResultCache(tmp_path).load(quick_job()) == {"m": 2.0}
        assert cache.stats()["figure5"].entries == 1

    def test_two_processes_storing_at_once_both_land(self, tmp_path):
        # Both writers start storing together, one transaction per cell, so
        # their commits interleave and each must wait out the other's locks.
        writers = [
            subprocess.Popen(
                [
                    sys.executable, "-c", _WRITER_CHILD, str(tmp_path), str(first),
                    code_fingerprint(),
                ],
                env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            )
            for first in (0, 1000)
        ]
        try:
            deadline = time.monotonic() + 60
            while not all((tmp_path / f"ready-{first}").exists() for first in (0, 1000)):
                assert time.monotonic() < deadline, "the writers never started"
                time.sleep(0.01)
            (tmp_path / "go").touch()
            for writer in writers:
                _, stderr = writer.communicate(timeout=120)
                assert writer.returncode == 0, stderr.decode()
        finally:
            for writer in writers:
                if writer.poll() is None:
                    writer.kill()
                    writer.wait()
        jobs = [quick_job(seed=seed) for seed in (*range(40), *range(1000, 1040))]
        hits = ResultCache(tmp_path).load_many(jobs)
        assert len(hits) == 80
        assert all(hits[job] == {"m": float(job.seed)} for job in jobs)


# ===================================================================== #
# Crash safety
# ===================================================================== #


_CRASH_CHILD = """\
import os, sqlite3, sys

import repro.sim.jobs
from repro.sim.experiments import figure5_jobs
from repro.sim.runner import ExperimentRunner
from repro.sim.settings import ExperimentSettings

# Die inside the transaction that stores the third cell: after its row is
# written, before its COMMIT runs.
connect, inserts = sqlite3.connect, []


def trace(statement):
    if statement.startswith("INSERT"):
        inserts.append(statement)
    elif statement == "COMMIT" and len(inserts) == 3:
        print("killed inside the third store", flush=True)
        os._exit(1)


def traced_connect(*args, **kwargs):
    connection = connect(*args, **kwargs)
    connection.set_trace_callback(trace)
    return connection


sqlite3.connect = traced_connect
repro.sim.jobs._CODE_FINGERPRINT = sys.argv[2]
settings = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0,))
runner = ExperimentRunner(jobs=1, cache_dir=sys.argv[1])
for job in figure5_jobs(settings):  # one batch, so one store transaction, per cell
    runner.run_jobs([job])
"""


class TestCrashSafety:
    def test_run_killed_inside_a_transaction_recovers_on_rerun(self, tmp_path):
        cache_dir = tmp_path / "cache"
        child = subprocess.run(
            [sys.executable, "-c", _CRASH_CHILD, str(cache_dir), code_fingerprint()],
            env=child_env(), capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 1, child.stderr
        assert "killed inside the third store" in child.stdout

        # The two committed cells survive; the one in flight rolled back.
        stats = ResultCache(cache_dir).stats()["figure5"]
        assert stats.entries == 2

        # The next run re-executes only the lost cell...
        rerun = ExperimentRunner(jobs=1, cache_dir=cache_dir)
        rerun.run_jobs(figure5_jobs(QUICK))
        assert rerun.stats.executed == 1
        assert rerun.stats.cached == 2

        # ...after which the cache is whole again.
        warm = ExperimentRunner(jobs=1, cache_dir=cache_dir)
        warm.run_jobs(figure5_jobs(QUICK))
        assert warm.stats.executed == 0
        assert warm.stats.cached == 3

    @pytest.mark.parametrize("damage", ["garbage", "truncated"])
    def test_damaged_file_reads_as_misses_and_the_rerun_refills_it(
        self, tmp_path, damage
    ):
        jobs = [quick_job(seed=seed) for seed in range(40)]
        ExperimentRunner(jobs=1, cache_dir=tmp_path, executor=fake_executor).run_jobs(jobs)
        database = tmp_path / DATABASE_NAME
        if damage == "garbage":
            database.write_bytes(b"not a database " * 1000)
        else:
            # What a copy or a full disk can leave: the last page is gone.
            database.write_bytes(database.read_bytes()[:-4096])

        assert ResultCache(tmp_path).load_many(jobs) == {}
        assert (tmp_path / (DATABASE_NAME + ".damaged")).is_file()
        assert not database.exists()

        rerun = ExperimentRunner(jobs=1, cache_dir=tmp_path, executor=fake_executor)
        rerun.run_jobs(jobs)
        assert rerun.stats.executed == len(jobs)
        warm = ExperimentRunner(jobs=1, cache_dir=tmp_path, executor=fake_executor)
        warm.run_jobs(jobs)
        assert warm.stats.executed == 0
        assert ResultCache(tmp_path).stats()["figure5"].entries == len(jobs)


# ===================================================================== #
# Backend parity
# ===================================================================== #


def _run_once(backend: str, cache) -> str:
    """One cold sweep through `backend` against `cache`; the document."""
    jobs = figure5_jobs(QUICK)
    if backend == "distributed":
        server = CoordinatorServer(port=0).start()
        try:
            worker = threading.Thread(
                target=run_worker, args=(server.url,),
                kwargs={"poll_seconds": 0.05, "max_idle_seconds": 2.0},
                daemon=True,
            )
            worker.start()
            runner = ExperimentRunner(
                jobs=2, cache=cache,
                backend=DistributedBackend(server.url, poll_seconds=2.0),
            )
            results = runner.run_jobs(jobs)
            worker.join(timeout=30)
        finally:
            server.stop()
    else:
        runner = ExperimentRunner(jobs=1 if backend == "serial" else 2,
                                  backend=backend, cache=cache)
        results = runner.run_jobs(jobs)
    assert runner.stats.executed == len(jobs)
    return json.dumps(
        {job.cache_key(): results[job] for job in jobs}, sort_keys=True
    )


@pytest.mark.slow
class TestBackendParity:
    def test_frames_byte_identical_across_backends(self, tmp_path):
        documents = {}
        for backend in ("serial", "process", "distributed"):
            directory = tmp_path / backend
            documents[backend] = _run_once(backend, ResultCache(directory))
            # A warm pass from a fresh instance serves every cell from disk
            # and reproduces the document byte for byte.
            warm = ExperimentRunner(jobs=1, cache=ResultCache(directory))
            results = warm.run_jobs(figure5_jobs(QUICK))
            assert warm.stats.executed == 0
            assert warm.stats.cached == len(results)
            warm_doc = json.dumps(
                {job.cache_key(): results[job] for job in figure5_jobs(QUICK)},
                sort_keys=True,
            )
            assert warm_doc == documents[backend]
        assert len(set(documents.values())) == 1, sorted(documents)
