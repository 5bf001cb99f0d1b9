"""The pull-based worker loop behind ``repro worker``.

A worker needs nothing but the coordinator URL: it leases a chunk of
wire-format cells, rebuilds them into :class:`~repro.sim.jobs.ExperimentJob`
values (verifying each embedded cache key -- the code-skew guard), executes
them through the same local backends the engine uses (serial with one
worker slot, a process pool with more), and reports per-cell metrics or
errors back.  Crashing mid-lease is safe by design: the coordinator
re-queues the chunk when the lease expires.
"""

from __future__ import annotations

import os
import socket
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.sim.distributed.protocol import CoordinatorClient, job_failure, job_result
from repro.sim.jobs import ExperimentJob, code_fingerprint, execute_job
from repro.sim.runner import MAX_CHUNK_SIZE, ProcessBackend, SerialBackend


def _execute_capture(job: ExperimentJob) -> Dict[str, object]:
    """Run one cell, capturing failure per cell (module-level: must pickle).

    A raising cell must cost the worker exactly that cell, not the whole
    leased chunk, so the executor returns an envelope instead of raising
    across the pool boundary.
    """
    try:
        return {"metrics": execute_job(job)}
    except Exception as error:  # noqa: BLE001 - reported to the coordinator
        return {"error": f"{type(error).__name__}: {error}"}


def default_worker_id() -> str:
    """A human-traceable worker identity: ``host:pid``."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass
class WorkerStats:
    """What one worker loop did before returning."""

    batches: int = 0
    executed: int = 0
    failed: int = 0
    #: Lease polls that came back empty.
    idle_polls: int = 0

    def summary(self) -> str:
        return (
            f"{self.executed} executed, {self.failed} failed, "
            f"{self.batches} leases, {self.idle_polls} idle polls"
        )


def run_worker(
    coordinator: str,
    jobs: int = 1,
    worker_id: Optional[str] = None,
    poll_seconds: float = 0.5,
    max_batches: Optional[int] = None,
    max_idle_seconds: Optional[float] = None,
    announce: Optional[Callable[[str], None]] = None,
) -> WorkerStats:
    """Lease, execute and report until told (or allowed) to stop.

    ``jobs`` is the worker's local parallelism: 1 executes leased chunks
    serially, more fans them out over a process pool.  ``max_batches``
    bounds the loop for tests; ``max_idle_seconds`` lets a fleet drain
    itself once the queue stays empty that long (default: poll forever,
    the daemon behaviour).  Returns the loop's :class:`WorkerStats`.
    """
    client = CoordinatorClient(coordinator)
    identity = worker_id or default_worker_id()
    fingerprint = code_fingerprint()
    backend = SerialBackend() if jobs <= 1 else ProcessBackend()
    stats = WorkerStats()
    say = announce or (lambda message: None)
    idle_since: Optional[float] = None

    say(f"worker {identity}: polling {coordinator} ({jobs} local slot(s))")
    while max_batches is None or stats.batches < max_batches:
        reply = client.lease(
            identity, fingerprint, max_jobs=max(jobs, 1) * MAX_CHUNK_SIZE
        )
        payloads = reply.get("jobs") or []
        if not payloads:
            stats.idle_polls += 1
            now = time.monotonic()
            if idle_since is None:
                idle_since = now
            if (
                max_idle_seconds is not None
                and now - idle_since >= max_idle_seconds
            ):
                say(f"worker {identity}: idle for {max_idle_seconds}s, draining")
                break
            time.sleep(poll_seconds)
            continue
        idle_since = None
        lease = str(reply.get("lease"))
        batch = [ExperimentJob.from_wire(payload) for payload in payloads]
        stats.batches += 1
        say(f"worker {identity}: leased {len(batch)} cell(s)")
        results: List[Dict[str, object]] = []
        failures: List[Dict[str, object]] = []
        for job, envelope in backend.execute(_execute_capture, batch, jobs):
            metrics = envelope.get("metrics")
            if isinstance(metrics, dict):
                results.append(job_result(job.cache_key(), metrics))
            else:
                failures.append(
                    job_failure(job.cache_key(), str(envelope.get("error")))
                )
        stats.executed += len(results)
        stats.failed += len(failures)
        client.complete(lease, identity, results, failures)
    say(f"worker {identity}: done ({stats.summary()})")
    return stats


__all__ = [
    "WorkerStats",
    "default_worker_id",
    "run_worker",
]
