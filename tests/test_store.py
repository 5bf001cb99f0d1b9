"""Tests for the packed segment store (`repro.sim.store`).

Four legs:

* **framing** -- every record carries a length/CRC header; the segment
  scanner recovers exactly the complete, uncorrupted prefix and stops at
  the first torn frame, whatever byte the truncation lands on;
* **manifest** -- a fresh process adopts the manifest when it matches the
  segments, rescans unvouched tails, and distrusts (fully rescans) any
  segment shorter than its vouched length; concurrent writers never share
  a segment file;
* **crash safety** -- a process-backend run killed mid-append leaves a
  cache the next run can use: the torn tail reads as a miss, `stats`
  never raises, and only the torn cell re-executes;
* **parity** -- the same sweep produces byte-identical result frames
  across the {serial, process, distributed} backends, cold and warm.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.sim.distributed import CoordinatorServer, DistributedBackend, run_worker
from repro.sim.experiments import figure5_jobs
from repro.sim.jobs import CACHE_SCHEMA_VERSION, ExperimentJob
from repro.sim.runner import ExperimentRunner
from repro.sim.settings import ExperimentSettings
from repro.sim.store import (
    MANIFEST_NAME,
    SEGMENT_DIR_NAME,
    ResultCache,
    _scan_segment,
)

QUICK = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0,))


def quick_job(variant: str = "no-dmr", seed: int = 0) -> ExperimentJob:
    return ExperimentJob(
        kind="figure5", workload="apache", variant=variant, seed=seed,
        settings=QUICK.cell_settings(),
    )


def segment_files(directory: Path, kind: str = "figure5"):
    return sorted((directory / kind / SEGMENT_DIR_NAME).glob("seg-*.seg"))


def segment_bytes(directory: Path, kind: str = "figure5") -> bytes:
    return b"".join(path.read_bytes() for path in segment_files(directory, kind))


# ===================================================================== #
# Framing
# ===================================================================== #


class TestFraming:
    def test_scan_recovers_every_stored_record(self, tmp_path):
        cache = ResultCache(tmp_path)
        for seed in range(3):
            cache.store(quick_job(seed=seed), {"m": float(seed)})
        cache.flush()
        data = segment_bytes(tmp_path)
        records, clean_offset = _scan_segment(data, 0)
        assert len(records) == 3
        assert clean_offset == len(data)
        for _offset, _length, payload in records:
            assert payload["schema"] == CACHE_SCHEMA_VERSION
            assert payload["kind"] == "figure5"

    def test_scan_stops_at_any_truncation_point(self, tmp_path):
        # However many bytes a crash chops off the tail, the scanner must
        # keep every complete frame before the tear and nothing after it.
        cache = ResultCache(tmp_path)
        cache.store(quick_job(seed=0), {"m": 0.0})
        cache.flush()
        first = len(segment_bytes(tmp_path))
        cache.store(quick_job(seed=1), {"m": 1.0})
        cache.flush()
        data = segment_bytes(tmp_path)
        assert len(data) > first
        for cut in range(first, len(data)):
            records, clean_offset = _scan_segment(data[:cut], 0)
            assert len(records) == 1, f"cut at {cut} bytes"
            assert clean_offset == first
        records, _ = _scan_segment(data, 0)
        assert len(records) == 2

    def test_scan_rejects_corrupted_payload_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.store(quick_job(seed=0), {"m": 0.0})
        cache.store(quick_job(seed=1), {"m": 1.0})
        cache.flush()
        data = bytearray(segment_bytes(tmp_path))
        data[len(data) // 2] ^= 0xFF  # flip one byte inside a payload
        records, _ = _scan_segment(bytes(data), 0)
        assert len(records) < 2  # the CRC rejects the damaged frame


# ===================================================================== #
# Manifest and segments
# ===================================================================== #


class TestManifest:
    def test_fresh_instance_loads_via_manifest(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.store(quick_job(), {"m": 1.0})
        writer.flush()
        assert (tmp_path / "figure5" / SEGMENT_DIR_NAME / MANIFEST_NAME).exists()
        assert ResultCache(tmp_path).load(quick_job()) == {"m": 1.0}

    def test_missing_manifest_rebuilds_by_scanning_segments(self, tmp_path):
        writer = ResultCache(tmp_path)
        writer.store(quick_job(), {"m": 1.0})
        writer.flush()
        (tmp_path / "figure5" / SEGMENT_DIR_NAME / MANIFEST_NAME).unlink()
        assert ResultCache(tmp_path).load(quick_job()) == {"m": 1.0}

    def test_unpublished_tail_is_recovered_by_scan(self, tmp_path):
        # Records appended after the last manifest publish live in the
        # unvouched tail; a fresh instance finds them by scanning.
        writer = ResultCache(tmp_path)
        writer.store(quick_job(seed=0), {"m": 0.0})
        writer.flush()
        writer.store(quick_job(seed=1), {"m": 1.0})  # fsynced, not published
        reader = ResultCache(tmp_path)
        assert reader.load(quick_job(seed=0)) == {"m": 0.0}
        assert reader.load(quick_job(seed=1)) == {"m": 1.0}

    def test_truncated_below_vouched_length_is_distrusted(self, tmp_path):
        # When a segment is shorter than the manifest vouches, the whole
        # segment is rescanned from zero: complete frames before the tear
        # survive, the torn record is a miss, and stats never raises.
        writer = ResultCache(tmp_path)
        writer.store(quick_job(seed=0), {"m": 0.0})
        writer.store(quick_job(seed=1), {"m": 1.0})
        writer.flush()
        segment = segment_files(tmp_path)[0]
        segment.write_bytes(segment.read_bytes()[:-9])
        reader = ResultCache(tmp_path)
        assert reader.load(quick_job(seed=0)) == {"m": 0.0}
        assert reader.load(quick_job(seed=1)) is None
        stats = reader.stats()["figure5"]
        assert stats.entries == 1

    def test_concurrent_writers_never_share_a_segment(self, tmp_path):
        # Two cache instances appending to the same directory claim
        # separate segment files; a third instance sees both streams.
        one, two = ResultCache(tmp_path), ResultCache(tmp_path)
        one.store(quick_job(seed=0), {"m": 0.0})
        two.store(quick_job(seed=1), {"m": 1.0})
        one.flush()
        two.flush()
        assert len(segment_files(tmp_path)) == 2
        reader = ResultCache(tmp_path)
        assert reader.load(quick_job(seed=0)) == {"m": 0.0}
        assert reader.load(quick_job(seed=1)) == {"m": 1.0}

    def test_last_write_wins_on_duplicate_keys(self, tmp_path):
        ticks = {"now": 1_000_000.0}
        cache = ResultCache(tmp_path, clock=lambda: ticks["now"])
        cache.store(quick_job(), {"m": 1.0})
        ticks["now"] += 10.0
        cache.store(quick_job(), {"m": 2.0})
        cache.flush()
        assert cache.load(quick_job()) == {"m": 2.0}
        # A rebuild-by-scan resolves the duplicate the same way.
        (tmp_path / "figure5" / SEGMENT_DIR_NAME / MANIFEST_NAME).unlink()
        assert ResultCache(tmp_path).load(quick_job()) == {"m": 2.0}

    def test_compact_drops_superseded_records(self, tmp_path):
        cache = ResultCache(tmp_path)
        for value in range(5):
            cache.store(quick_job(), {"m": float(value)})
        cache.flush()
        before = sum(path.stat().st_size for path in segment_files(tmp_path))
        result = cache.compact()
        after = sum(path.stat().st_size for path in segment_files(tmp_path))
        assert result.entries == 1
        assert result.reclaimed_bytes > 0
        assert after < before  # four superseded records physically gone
        assert cache.load(quick_job()) == {"m": 4.0}
        assert ResultCache(tmp_path).load(quick_job()) == {"m": 4.0}


# ===================================================================== #
# Crash safety (process-backend run killed mid-append)
# ===================================================================== #


_CRASH_CHILD = """\
import glob, os, sys

from repro.sim.experiments import figure5_jobs
from repro.sim.runner import ExperimentRunner
from repro.sim.settings import ExperimentSettings

cache_dir = sys.argv[1]
settings = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0,))
runner = ExperimentRunner(jobs=2, backend="process", cache_dir=cache_dir)
runner.run_jobs(figure5_jobs(settings))
print("executed", runner.stats.executed, flush=True)

# Simulate the kill landing mid-append: chop bytes off the newest
# segment's tail (a torn final frame), then die without any cleanup.
pattern = os.path.join(cache_dir, "figure5", "segments", "seg-*.seg")
segment = sorted(glob.glob(pattern), key=os.path.getmtime)[-1]
data = open(segment, "rb").read()
open(segment, "wb").write(data[:-9])
os._exit(1)
"""


class TestCrashSafety:
    def test_killed_process_backend_run_recovers_on_rerun(self, tmp_path):
        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        child = subprocess.run(
            [sys.executable, "-c", _CRASH_CHILD, str(cache_dir)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 1, child.stderr
        assert "executed 3" in child.stdout

        # The torn tail is detected by the CRC scan: stats never raises
        # and exactly one cell (the torn one) is gone.
        stats = ResultCache(cache_dir).stats()["figure5"]
        assert stats.entries == 2

        # The next run re-executes only the torn cell...
        rerun = ExperimentRunner(jobs=1, cache_dir=cache_dir)
        rerun.run_jobs(figure5_jobs(QUICK))
        assert rerun.stats.executed == 1
        assert rerun.stats.cached == 2

        # ...after which the cache is whole again.
        warm = ExperimentRunner(jobs=1, cache_dir=cache_dir)
        warm.run_jobs(figure5_jobs(QUICK))
        assert warm.stats.executed == 0
        assert warm.stats.cached == 3


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
