"""The coordinator: an in-memory job board behind a stdlib HTTP server.

:class:`Coordinator` owns the state -- submitted cells keyed by their
content-addressed cache key, a FIFO of pending keys and active leases --
and exposes one method per protocol endpoint.  It knows cells, not
experiments: clients enumerate and assemble (``repro run-all
--coordinator URL``), the board only queues, leases and collects.
:class:`CoordinatorServer` wraps it in a
:class:`http.server.ThreadingHTTPServer`, one thread per request, with all
state guarded by a single lock/condition pair.

Design points:

* **Dedupe by cache key.**  A cell's key digests its full description plus
  the package sources, so two clients submitting overlapping grids are
  funnelled into one execution; the coordinator's optional on-disk
  :class:`~repro.sim.store.ResultCache` extends the dedupe across
  coordinator restarts and makes results visible to plain local runs.
  Submissions probe the cache in one batched query, and each completed
  lease chunk lands in one transaction.
* **Lazy lease expiry.**  No background reaper thread: every mutating or
  polling call first re-queues the leases whose deadline passed (front of
  the queue, so recovered work runs next).  A killed worker therefore
  never loses a batch -- its chunk re-queues after ``lease_seconds``.
* **Late completion is welcome.**  A worker that reports after its lease
  expired still lands results for cells nobody else finished first; the
  duplicate executions of re-queued cells are idempotent (deterministic
  seeds) and simply counted.
* **Code-fingerprint handshake.**  Clients and workers send their
  :func:`~repro.sim.jobs.code_fingerprint`; a mismatch is refused with
  HTTP 409, because mixing results from different code versions would
  poison the shared cache.
* **Malformed requests are refusals.**  Every request field is decoded
  where it arrives, and a bad one is refused with HTTP 400 naming it; a
  500 means a fault in the coordinator itself.
* **Injectable clock.**  ``Coordinator(clock=...)`` lets the lease-expiry
  tests advance time without sleeping.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Deque, Dict, List, Mapping, Optional, Sequence, Union

from repro.errors import ExperimentError
from repro.sim.distributed.protocol import (
    DEFAULT_COLLECT_SECONDS,
    DEFAULT_LEASE_SECONDS,
    PROTOCOL_VERSION,
    ProtocolError,
    string_list,
)
from repro.sim.jobs import ExperimentJob, code_fingerprint
from repro.sim.runner import Metrics, adaptive_chunk_size
from repro.sim.store import COMPACT_SEPARATORS, ResultCache

#: Workers idle longer than this stop counting toward lease-chunk sizing.
WORKER_HORIZON_SECONDS = 300.0

#: Hard cap on one ``/jobs/collect`` long poll; clients re-poll.
MAX_COLLECT_SECONDS = 60.0


class Conflict(ProtocolError):
    """A refusal mapped to HTTP 409 (code-fingerprint skew)."""

    def __init__(self, message: str) -> None:
        super().__init__(message, status=409)


class NotFound(ProtocolError):
    """An unknown resource, mapped to HTTP 404."""

    def __init__(self, message: str) -> None:
        super().__init__(message, status=404)


@dataclass
class JobRecord:
    """One submitted cell's lifecycle on the job board."""

    job: ExperimentJob
    key: str
    status: str = "pending"  # pending | leased | done | failed
    metrics: Optional[Metrics] = None
    error: Optional[str] = None
    lease: Optional[str] = None
    deadline: float = 0.0


class Coordinator:
    """The job board: submit, lease, complete and collect."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.cache = cache
        self.lease_seconds = lease_seconds
        self.clock = clock
        self.fingerprint = code_fingerprint()
        self._lock = threading.Lock()
        self._completed = threading.Condition(self._lock)
        self._records: Dict[str, JobRecord] = {}
        self._queue: Deque[str] = deque()
        self._workers: Dict[str, float] = {}
        self._counters: Dict[str, int] = {
            "submitted": 0,
            "deduped": 0,
            "cache_hits": 0,
            "leases_granted": 0,
            "completed": 0,
            "late_completions": 0,
            "failed": 0,
            "requeues": 0,
        }

    # ------------------------------------------------------------------ #
    # Internals (called with the lock held)
    # ------------------------------------------------------------------ #

    def _check_fingerprint(self, claimed: object) -> None:
        if claimed is not None and claimed != self.fingerprint:
            raise Conflict(
                "code fingerprint mismatch: this coordinator runs different "
                "repro code than the caller; executing its cells would poison "
                "the shared result cache"
            )

    def _expire_leases(self, now: float) -> None:
        """Re-queue every leased cell whose deadline passed (lazy reaper)."""
        for record in self._records.values():
            if record.status == "leased" and record.deadline <= now:
                record.status = "pending"
                record.lease = None
                # Front of the queue: recovered work should run next, so a
                # killed worker delays its chunk by one lease window at most.
                self._queue.appendleft(record.key)
                self._counters["requeues"] += 1

    def _probe_cache(
        self, keyed: Mapping[ExperimentJob, str]
    ) -> Dict[ExperimentJob, Metrics]:
        """One batched cache probe for every cell not already on the board."""
        if self.cache is None:
            return {}
        unknown = [job for job, key in keyed.items() if key not in self._records]
        if not unknown:
            return {}
        return self.cache.load_many(unknown)

    def _enqueue(self, job: ExperimentJob, key: str, hit: Optional[Metrics]) -> str:
        """Admit one cell; returns ``queued``/``deduped``/``cache_hit``/``done``."""
        record = self._records.get(key)
        if record is not None:
            self._counters["deduped"] += 1
            return "done" if record.status in ("done", "failed") else "deduped"
        record = JobRecord(job=job, key=key)
        if hit is not None:
            record.status = "done"
            record.metrics = hit
            self._records[key] = record
            self._counters["cache_hits"] += 1
            return "cache_hit"
        self._records[key] = record
        self._queue.append(key)
        self._counters["submitted"] += 1
        return "queued"

    def _finish(self, record: JobRecord, metrics: Metrics) -> None:
        record.status = "done"
        record.metrics = metrics
        record.lease = None
        self._counters["completed"] += 1

    def _store_finished(self, finished: Sequence[JobRecord]) -> None:
        """Land a completed chunk in the shared cache in one transaction.

        The chunk has committed when this returns, so a coordinator killed
        between chunks never loses results.
        """
        if self.cache is None or not finished:
            return
        self.cache.store_many([(record.job, record.metrics or {}) for record in finished])

    # ------------------------------------------------------------------ #
    # Protocol endpoints
    # ------------------------------------------------------------------ #

    def submit(
        self, payloads: Sequence[Mapping[str, object]], fingerprint: object
    ) -> Dict[str, object]:
        """``POST /jobs/submit``: admit wire-format cells, deduped by key."""
        self._check_fingerprint(fingerprint)
        # Rebuild outside the lock: `from_wire` verifies each key, which
        # costs one digest per cell.
        jobs = [ExperimentJob.from_wire(payload) for payload in payloads]
        keyed = {job: job.cache_key() for job in jobs}
        outcomes = {"queued": 0, "deduped": 0, "cache_hit": 0, "done": 0}
        with self._completed:
            now = self.clock()
            self._expire_leases(now)
            cache_hits = self._probe_cache(keyed)
            for job in jobs:
                outcomes[self._enqueue(job, keyed[job], cache_hits.get(job))] += 1
            if outcomes["cache_hit"] or outcomes["done"]:
                self._completed.notify_all()
        return {"protocol": PROTOCOL_VERSION, **outcomes}

    def lease(
        self,
        worker: str,
        fingerprint: object,
        max_jobs: Optional[int] = None,
    ) -> Dict[str, object]:
        """``POST /jobs/lease``: hand a pending chunk to a worker."""
        self._check_fingerprint(fingerprint)
        with self._lock:
            now = self.clock()
            self._expire_leases(now)
            self._workers[worker] = now
            active = sum(
                1
                for seen in self._workers.values()
                if now - seen <= WORKER_HORIZON_SECONDS
            )
            chunk = adaptive_chunk_size(len(self._queue), max(1, active))
            if max_jobs is not None:
                chunk = max(1, min(chunk, max_jobs))
            leased: List[JobRecord] = []
            lease_id = uuid.uuid4().hex
            while self._queue and len(leased) < chunk:
                record = self._records[self._queue.popleft()]
                if record.status != "pending":
                    continue
                record.status = "leased"
                record.lease = lease_id
                record.deadline = now + self.lease_seconds
                leased.append(record)
            if leased:
                self._counters["leases_granted"] += 1
            pending = len(self._queue)
        return {
            "protocol": PROTOCOL_VERSION,
            "lease": lease_id if leased else None,
            "lease_seconds": self.lease_seconds,
            "jobs": [record.job.to_wire() for record in leased],
            "pending": pending,
        }

    def complete(
        self,
        lease: object,
        worker: object,
        results: Sequence[Mapping[str, object]],
        failures: Sequence[Mapping[str, object]] = (),
    ) -> Dict[str, object]:
        """``POST /jobs/complete``: land a lease's outcomes.

        Partial reports are fine (the rest of the lease expires and
        re-queues), and late reports from an expired lease still count for
        cells nobody finished first.
        """
        accepted = duplicates = unknown = 0
        with self._completed:
            now = self.clock()
            self._expire_leases(now)
            if worker is not None:
                self._workers[str(worker)] = now
            finished: List[JobRecord] = []
            for item in results:
                key = str(item.get("key"))
                metrics = item.get("metrics")
                record = self._records.get(key)
                if record is None or not isinstance(metrics, dict):
                    unknown += 1
                    continue
                if record.status in ("done", "failed"):
                    duplicates += 1
                    continue
                if record.lease is not None and record.lease != lease:
                    self._counters["late_completions"] += 1
                self._finish(record, metrics)
                finished.append(record)
                accepted += 1
            # One batched cache append for the whole reported chunk.
            self._store_finished(finished)
            for item in failures:
                key = str(item.get("key"))
                record = self._records.get(key)
                if record is None:
                    unknown += 1
                    continue
                if record.status in ("done", "failed"):
                    duplicates += 1
                    continue
                record.status = "failed"
                record.error = str(item.get("error") or "worker reported failure")
                record.lease = None
                self._counters["failed"] += 1
            if accepted or failures:
                self._completed.notify_all()
        return {
            "protocol": PROTOCOL_VERSION,
            "accepted": accepted,
            "duplicates": duplicates,
            "unknown": unknown,
        }

    def collect(
        self, keys: Sequence[str], timeout: float = DEFAULT_COLLECT_SECONDS
    ) -> Dict[str, object]:
        """``POST /jobs/collect``: long-poll for finished cells among ``keys``."""
        deadline = self.clock() + max(0.0, min(timeout, MAX_COLLECT_SECONDS))
        wanted = [str(key) for key in keys]
        with self._completed:
            while True:
                now = self.clock()
                self._expire_leases(now)
                results = []
                failures = []
                pending = 0
                for key in wanted:
                    record = self._records.get(key)
                    if record is None:
                        pending += 1
                    elif record.status == "done":
                        results.append({"key": key, "metrics": record.metrics})
                    elif record.status == "failed":
                        failures.append({"key": key, "error": record.error})
                    else:
                        pending += 1
                remaining = deadline - now
                if results or failures or remaining <= 0:
                    return {
                        "protocol": PROTOCOL_VERSION,
                        "results": results,
                        "failures": failures,
                        "pending": pending,
                    }
                # Bounded wait: a monotonic test clock never advances inside
                # wait(), so always wake at least every second to re-check.
                self._completed.wait(min(remaining, 1.0))

    def stats(self) -> Dict[str, object]:
        """``GET /stats``: the job-board counters and queue shape."""
        with self._lock:
            now = self.clock()
            self._expire_leases(now)
            by_status = {"pending": 0, "leased": 0, "done": 0, "failed": 0}
            for record in self._records.values():
                by_status[record.status] += 1
            return {
                "protocol": PROTOCOL_VERSION,
                "fingerprint": self.fingerprint,
                "jobs": by_status,
                "queue": len(self._queue),
                "workers": len(self._workers),
                **dict(self._counters),
            }

    def health(self) -> Dict[str, object]:
        """``GET /health``: liveness probe."""
        return {"protocol": PROTOCOL_VERSION, "ok": True}


# ---------------------------------------------------------------------- #
# HTTP front end
# ---------------------------------------------------------------------- #


def _number(
    body: Mapping[str, object],
    name: str,
    convert: Callable[[object], float],
    default: Optional[float],
) -> Optional[float]:
    """An optional numeric request field; a malformed one is refused (400)."""
    value = body.get(name)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ProtocolError(
            f"request field {name!r} must be a number, not {value!r}", status=400
        ) from None


def _objects(body: Mapping[str, object], name: str) -> List[Mapping[str, object]]:
    """An optional request field holding a list of objects (400 otherwise)."""
    value = body.get(name)
    if value is None:
        return []
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise ProtocolError(
            f"request field {name!r} must be a list of objects", status=400
        )
    return value


class _CoordinatorHandler(BaseHTTPRequestHandler):
    """Routes protocol endpoints onto the coordinator's methods."""

    #: Injected by :class:`CoordinatorServer`.
    coordinator: Coordinator
    quiet: bool = True

    # Workers hold keep-alive connections across long polls.
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if not self.quiet:
            super().log_message(format, *args)

    def _reply(self, status: int, payload: Mapping[str, object]) -> None:
        # Compact separators: response bodies carry whole result chunks,
        # and the default separators' whitespace is pure wire overhead.
        body = json.dumps(payload, separators=COMPACT_SEPARATORS).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return {}
        try:
            payload = json.loads(self.rfile.read(length).decode("utf-8"))
        except ValueError:
            raise ProtocolError("request body is not valid JSON", status=400) from None
        if not isinstance(payload, dict):
            raise ProtocolError("request body must be a JSON object", status=400)
        return payload

    def _dispatch(self, method: str) -> None:
        try:
            payload = self._handle(method)
        except ProtocolError as error:
            self._reply(error.status or 400, {"error": str(error)})
        except ExperimentError as error:
            self._reply(400, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 - never kill the server thread
            self._reply(500, {"error": f"{type(error).__name__}: {error}"})
        else:
            self._reply(200, payload)

    def _handle(self, method: str) -> Dict[str, object]:
        coordinator = self.coordinator
        path = self.path.rstrip("/")
        if method == "GET":
            if path == "/health":
                return coordinator.health()
            if path == "/stats":
                return coordinator.stats()
            raise NotFound(f"no such endpoint: GET {self.path}")
        body = self._body()
        if path == "/jobs/submit":
            jobs = body.get("jobs")
            if not isinstance(jobs, list):
                raise ProtocolError("submit needs a 'jobs' list", status=400)
            return coordinator.submit(jobs, body.get("fingerprint"))
        if path == "/jobs/lease":
            return coordinator.lease(
                str(body.get("worker") or "anonymous"),
                body.get("fingerprint"),
                _number(body, "max_jobs", int, None),
            )
        if path == "/jobs/complete":
            return coordinator.complete(
                body.get("lease"),
                body.get("worker"),
                _objects(body, "results"),
                _objects(body, "failures"),
            )
        if path == "/jobs/collect":
            return coordinator.collect(
                string_list(body.get("keys")),
                _number(body, "timeout", float, DEFAULT_COLLECT_SECONDS),
            )
        raise NotFound(f"no such endpoint: POST {self.path}")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")


class CoordinatorServer:
    """A coordinator bound to a listening :class:`ThreadingHTTPServer`.

    Usable blocking (``serve_forever``, the ``repro serve`` daemon) or in a
    background thread (``start``/``stop``, tests and the example script).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[Union[str, Path]] = None,
        lease_seconds: float = DEFAULT_LEASE_SECONDS,
        coordinator: Optional[Coordinator] = None,
        quiet: bool = True,
    ) -> None:
        if coordinator is None:
            cache = ResultCache(cache_dir) if cache_dir is not None else None
            coordinator = Coordinator(cache=cache, lease_seconds=lease_seconds)
        self.coordinator = coordinator
        handler = type(
            "BoundCoordinatorHandler",
            (_CoordinatorHandler,),
            {"coordinator": coordinator, "quiet": quiet},
        )
        self.server = ThreadingHTTPServer((host, port), handler)
        self.server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def url(self) -> str:
        host, port = self.server.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "CoordinatorServer":
        """Serve requests on a daemon thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve requests on the calling thread until interrupted."""
        self.server.serve_forever(poll_interval=0.1)

    def stop(self) -> None:
        """Shut the listener down and join the serving thread."""
        self.server.shutdown()
        self.server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
