"""Tests for the distributed runner: wire format, coordinator, recovery.

Four legs:

* **wire fidelity** -- an :class:`ExperimentJob` survives the JSON wire
  format exactly: equality, cache key and all (settings, params);
* **job board** -- submit/lease/complete/collect semantics, cache-key
  dedupe across clients, the code-fingerprint handshake, and lease-expiry
  re-queue under an injected clock (no sleeping);
* **recovery** -- a worker killed mid-lease never loses the batch: the
  chunk re-queues, a surviving worker finishes it, results stay
  byte-identical and the re-queue is visible in coordinator stats;
* **parity** -- `serial == distributed`, byte-identical result documents,
  through the real HTTP server with real simulation cells;
* **refusals** -- a malformed request is an HTTP 400 naming the bad field,
  never a 500.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ExperimentError
from repro.sim.distributed import (
    Coordinator,
    CoordinatorClient,
    CoordinatorServer,
    DistributedBackend,
    ProtocolError,
    run_worker,
)
from repro.faults.cells import fault_campaign_jobs
from repro.sim.experiments import degradation_jobs, figure5_jobs
from repro.sim.jobs import ExperimentJob, code_fingerprint, register_job_kind
from repro.sim.runner import ExperimentRunner, ResultCache
from repro.sim.settings import ExperimentSettings

QUICK = ExperimentSettings.quick().with_workloads(("apache",)).with_seeds((0,))


# A trivial job kind so the job-board tests don't pay for simulation.
@register_job_kind("disttest")
def _execute_disttest(job: ExperimentJob):
    return {"value": job.seed * 10, "site": job.workload}


def stub_job(seed: int = 0) -> ExperimentJob:
    return ExperimentJob(kind="disttest", workload="w", seed=seed)


def stub_batch(count: int):
    return [stub_job(seed) for seed in range(count)]


class FakeClock:
    """A hand-advanced monotonic clock for lease-expiry tests."""

    def __init__(self) -> None:
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ===================================================================== #
# Wire format
# ===================================================================== #


class TestWireFormat:
    def _jobs_of_every_shape(self):
        jobs = figure5_jobs(QUICK)  # settings-carrying cells
        jobs += degradation_jobs(QUICK, (2,))  # settings + params cells
        jobs += fault_campaign_jobs(trials_per_site=1, seeds=(1,))  # params cells
        jobs.append(stub_job(3))  # bare cell
        return jobs

    def test_wire_round_trip_preserves_identity(self):
        for job in self._jobs_of_every_shape():
            clone = ExperimentJob.from_wire(job.to_wire())
            assert clone == job
            assert clone.cache_key() == job.cache_key()

    def test_json_round_trip_preserves_identity(self):
        # The wire payload must survive actual JSON serialization, not just
        # a dict copy: tuples, enums and nested dataclasses all flatten.
        for job in self._jobs_of_every_shape():
            payload = json.loads(json.dumps(job.to_wire()))
            clone = ExperimentJob.from_wire(payload)
            assert clone == job
            assert clone.cache_key() == job.cache_key()

    def test_from_wire_rejects_tampered_payloads(self):
        payload = quick_figure5_job().to_wire()
        payload["seed"] = 99  # description no longer matches the key
        with pytest.raises(ExperimentError, match="different repro code|corrupted"):
            ExperimentJob.from_wire(payload)


def quick_figure5_job() -> ExperimentJob:
    return figure5_jobs(QUICK)[0]


# ===================================================================== #
# The job board (no HTTP, injected clock)
# ===================================================================== #


class TestCoordinator:
    def test_submit_lease_complete_collect(self):
        coordinator = Coordinator()
        batch = stub_batch(3)
        fingerprint = code_fingerprint()
        reply = coordinator.submit([job.to_wire() for job in batch], fingerprint)
        assert reply["queued"] == 3

        lease = coordinator.lease("w1", fingerprint)
        leased = [ExperimentJob.from_wire(payload) for payload in lease["jobs"]]
        assert leased  # adaptive chunk: at least one cell
        coordinator.complete(
            lease["lease"],
            "w1",
            [
                {"key": job.cache_key(), "metrics": _execute_disttest(job)}
                for job in leased
            ],
        )
        done = coordinator.collect([job.cache_key() for job in leased], timeout=0)
        assert len(done["results"]) == len(leased)
        assert done["failures"] == []
        by_key = {item["key"]: item["metrics"] for item in done["results"]}
        for job in leased:
            assert by_key[job.cache_key()] == _execute_disttest(job)

    def test_submit_dedupes_by_cache_key(self):
        coordinator = Coordinator()
        batch = stub_batch(4)
        payloads = [job.to_wire() for job in batch]
        fingerprint = code_fingerprint()
        assert coordinator.submit(payloads, fingerprint)["queued"] == 4
        second = coordinator.submit(payloads, fingerprint)
        assert second["queued"] == 0
        assert second["deduped"] == 4
        # The queue still holds each cell once.
        assert coordinator.stats()["jobs"]["pending"] == 4

    def test_coordinator_cache_serves_submitted_cells(self, tmp_path):
        cache = ResultCache(tmp_path)
        job = stub_job(7)
        cache.store(job, _execute_disttest(job))
        coordinator = Coordinator(cache=cache)
        reply = coordinator.submit([job.to_wire()], code_fingerprint())
        assert reply["cache_hit"] == 1
        done = coordinator.collect([job.cache_key()], timeout=0)
        assert done["results"][0]["metrics"] == _execute_disttest(job)
        # Nothing pends: the cache was the dedupe point.
        assert coordinator.stats()["jobs"]["pending"] == 0

    def test_completed_cells_land_in_the_shared_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        coordinator = Coordinator(cache=cache)
        job = stub_job(5)
        fingerprint = code_fingerprint()
        coordinator.submit([job.to_wire()], fingerprint)
        lease = coordinator.lease("w1", fingerprint)
        coordinator.complete(
            lease["lease"],
            "w1",
            [{"key": job.cache_key(), "metrics": _execute_disttest(job)}],
        )
        # A plain local runner now hits the same cache entry.
        assert cache.load(job) == _execute_disttest(job)

    def test_fingerprint_mismatch_is_refused(self):
        coordinator = Coordinator()
        with pytest.raises(ProtocolError) as excinfo:
            coordinator.submit([stub_job().to_wire()], "other-code")
        assert excinfo.value.status == 409
        with pytest.raises(ProtocolError):
            coordinator.lease("w1", "other-code")

    def test_expired_lease_requeues_for_the_next_worker(self):
        clock = FakeClock()
        coordinator = Coordinator(lease_seconds=30.0, clock=clock)
        batch = stub_batch(2)
        fingerprint = code_fingerprint()
        coordinator.submit([job.to_wire() for job in batch], fingerprint)

        first = coordinator.lease("victim", fingerprint)
        assert first["jobs"]  # the victim holds a chunk...
        clock.advance(31.0)  # ...and is never heard from again

        second = coordinator.lease("survivor", fingerprint)
        recovered = {payload["key"] for payload in second["jobs"]}
        assert recovered & {payload["key"] for payload in first["jobs"]}
        stats = coordinator.stats()
        assert stats["requeues"] >= 1

    def test_late_completion_from_expired_lease_still_lands(self):
        clock = FakeClock()
        coordinator = Coordinator(lease_seconds=30.0, clock=clock)
        job = stub_job()
        fingerprint = code_fingerprint()
        coordinator.submit([job.to_wire()], fingerprint)
        lease = coordinator.lease("slow", fingerprint)
        clock.advance(31.0)
        # The lease expired (requeue), but nobody else finished the cell:
        # the slow worker's report is still accepted.
        reply = coordinator.complete(
            lease["lease"],
            "slow",
            [{"key": job.cache_key(), "metrics": _execute_disttest(job)}],
        )
        assert reply["accepted"] == 1
        done = coordinator.collect([job.cache_key()], timeout=0)
        assert done["results"]

    def test_duplicate_completion_is_counted_not_applied(self):
        coordinator = Coordinator()
        job = stub_job()
        fingerprint = code_fingerprint()
        coordinator.submit([job.to_wire()], fingerprint)
        lease = coordinator.lease("w1", fingerprint)
        report = [{"key": job.cache_key(), "metrics": _execute_disttest(job)}]
        assert coordinator.complete(lease["lease"], "w1", report)["accepted"] == 1
        again = coordinator.complete(lease["lease"], "w1", report)
        assert again["accepted"] == 0
        assert again["duplicates"] == 1

    def test_reported_failures_surface_through_collect(self):
        coordinator = Coordinator()
        job = stub_job()
        fingerprint = code_fingerprint()
        coordinator.submit([job.to_wire()], fingerprint)
        lease = coordinator.lease("w1", fingerprint)
        coordinator.complete(
            lease["lease"],
            "w1",
            [],
            [{"key": job.cache_key(), "error": "boom"}],
        )
        done = coordinator.collect([job.cache_key()], timeout=0)
        assert done["failures"] == [{"key": job.cache_key(), "error": "boom"}]


# ===================================================================== #
# HTTP end-to-end: parity, recovery, refusals
# ===================================================================== #


def start_worker_thread(url: str, **kwargs) -> threading.Thread:
    kwargs.setdefault("poll_seconds", 0.05)
    kwargs.setdefault("max_idle_seconds", 2.0)
    thread = threading.Thread(target=run_worker, args=(url,), kwargs=kwargs, daemon=True)
    thread.start()
    return thread


class TestEndToEnd:
    def test_distributed_matches_serial_byte_identically(self):
        jobs = figure5_jobs(QUICK)
        serial = ExperimentRunner(jobs=1, use_cache=False).run_jobs(jobs)

        server = CoordinatorServer(port=0).start()
        try:
            worker = start_worker_thread(server.url)
            runner = ExperimentRunner(
                jobs=2,
                use_cache=False,
                backend=DistributedBackend(server.url, poll_seconds=2.0),
            )
            distributed = runner.run_jobs(jobs)
            worker.join(timeout=30)
        finally:
            server.stop()

        assert runner.stats.executed == len(jobs)
        assert json.dumps(
            {job.cache_key(): serial[job] for job in jobs}, sort_keys=True
        ) == json.dumps(
            {job.cache_key(): distributed[job] for job in jobs}, sort_keys=True
        )

    def test_worker_killed_mid_lease_never_loses_the_batch(self):
        # The victim worker leases a chunk and dies (never reports); the
        # short lease expires, the chunk re-queues, and a surviving worker
        # finishes the batch with byte-identical results.
        jobs = figure5_jobs(QUICK)
        serial = ExperimentRunner(jobs=1, use_cache=False).run_jobs(jobs)

        server = CoordinatorServer(port=0, lease_seconds=0.5).start()
        try:
            client = CoordinatorClient(server.url)
            backend = DistributedBackend(server.url, poll_seconds=1.0)
            runner = ExperimentRunner(jobs=2, use_cache=False, backend=backend)

            results = {}
            collector = threading.Thread(
                target=lambda: results.update(runner.run_jobs(jobs)), daemon=True
            )
            collector.start()

            # Act as the doomed worker: grab a lease, then vanish.
            victim = None
            for _ in range(100):
                victim = client.lease("victim", code_fingerprint())
                if victim["jobs"]:
                    break
                threading.Event().wait(0.05)
            assert victim is not None and victim["jobs"], "victim never got a lease"

            survivor = start_worker_thread(server.url, worker_id="survivor")
            collector.join(timeout=60)
            assert not collector.is_alive(), "batch never completed after the kill"
            survivor.join(timeout=30)

            stats = client.stats()
            assert stats["requeues"] >= 1, stats
        finally:
            server.stop()

        assert json.dumps(
            {job.cache_key(): serial[job] for job in jobs}, sort_keys=True
        ) == json.dumps(
            {job.cache_key(): results[job] for job in jobs}, sort_keys=True
        )

    def test_concurrent_clients_share_overlapping_work(self):
        batch = stub_batch(6)
        server = CoordinatorServer(port=0).start()
        try:
            worker = start_worker_thread(server.url, max_idle_seconds=2.0)
            backend_a = DistributedBackend(server.url, poll_seconds=1.0)
            backend_b = DistributedBackend(server.url, poll_seconds=1.0)
            runner_a = ExperimentRunner(jobs=2, use_cache=False, backend=backend_a)
            runner_b = ExperimentRunner(jobs=2, use_cache=False, backend=backend_b)

            results_b = {}
            thread_b = threading.Thread(
                target=lambda: results_b.update(runner_b.run_jobs(batch)), daemon=True
            )
            results_a = runner_a.run_jobs(batch)
            thread_b.start()
            thread_b.join(timeout=30)
            assert not thread_b.is_alive()
            worker.join(timeout=30)

            stats = CoordinatorClient(server.url).stats()
            # Each cell was executed once, not once per client.
            assert stats["completed"] == len(batch)
            assert stats["deduped"] >= len(batch)
        finally:
            server.stop()
        assert results_a == results_b

    def test_submitted_kind_outside_the_cache_is_refused(self, tmp_path):
        # A kind names one directory under the shared cache, so a crafted
        # kind must be refused before the store turns it into a path.
        server = CoordinatorServer(port=0, cache_dir=tmp_path / "cache").start()
        try:
            client = CoordinatorClient(server.url)
            for kind in ("..", str(tmp_path), "a/b"):
                job = ExperimentJob(kind=kind, workload="w")
                with pytest.raises(ProtocolError, match="invalid job kind") as excinfo:
                    client.submit_jobs([job.to_wire()], code_fingerprint())
                assert excinfo.value.status == 400
        finally:
            server.stop()
        assert not list(tmp_path.iterdir())

    def test_unknown_run_and_endpoint_are_404(self):
        server = CoordinatorServer(port=0).start()
        try:
            client = CoordinatorClient(server.url)
            with pytest.raises(ProtocolError) as excinfo:
                client.call("GET", "/no-such-endpoint")
            assert excinfo.value.status == 404
        finally:
            server.stop()


def _wire_without(field: str) -> dict:
    payload = stub_job().to_wire()
    del payload[field]
    return payload


@pytest.mark.parametrize(
    "path, body, named",
    [
        ("/jobs/lease", {"worker": "w", "max_jobs": "x"}, "'max_jobs'"),
        ("/jobs/collect", {"keys": [], "timeout": "soon"}, "'timeout'"),
        ("/jobs/submit", {"jobs": [_wire_without("kind")]}, "'kind'"),
        ("/jobs/submit", {"jobs": [{**stub_job().to_wire(), "seed": "x"}]}, "'seed'"),
        ("/jobs/submit", {"jobs": [3]}, "must be an object"),
        ("/jobs/submit", {"jobs": [_wire_without("key")]}, "'key'"),
        ("/jobs/complete", {"lease": "l", "results": [3]}, "'results'"),
    ],
    ids=["lease-max-jobs", "collect-timeout", "submit-no-kind", "submit-bad-seed",
         "submit-non-object", "submit-no-key", "complete-non-object"],
)
def test_malformed_requests_are_refused_with_400_naming_the_field(path, body, named):
    server = CoordinatorServer(port=0).start()
    try:
        client = CoordinatorClient(server.url)
        with pytest.raises(ProtocolError) as excinfo:
            client.call("POST", path, {**body, "fingerprint": code_fingerprint()})
        assert excinfo.value.status == 400
        assert named in str(excinfo.value)
        # The refusal left nothing on the board.
        assert client.stats()["jobs"] == {
            "pending": 0, "leased": 0, "done": 0, "failed": 0
        }
    finally:
        server.stop()


# ===================================================================== #
# Backend plumbing
# ===================================================================== #


class TestBackendPlumbing:
    def test_unreachable_coordinator_is_a_protocol_error(self):
        backend = DistributedBackend("http://127.0.0.1:9", poll_seconds=0.1)
        runner = ExperimentRunner(jobs=1, use_cache=False, backend=backend)
        with pytest.raises(ProtocolError, match="cannot reach coordinator"):
            runner.run_jobs([stub_job()])

    def test_worker_reports_cell_failures_not_crashes(self):
        # A cell whose executor raises costs exactly that cell: the worker
        # reports the error and the client surfaces it as ExperimentError.
        bad = ExperimentJob(kind="disttest-broken", workload="w")
        server = CoordinatorServer(port=0).start()
        try:
            worker = start_worker_thread(server.url, max_idle_seconds=2.0)
            backend = DistributedBackend(server.url, poll_seconds=1.0)
            runner = ExperimentRunner(jobs=1, use_cache=False, backend=backend)
            with pytest.raises(ExperimentError, match="workers failed"):
                runner.run_jobs([bad])
            worker.join(timeout=30)
        finally:
            server.stop()
