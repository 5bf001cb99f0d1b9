"""JSON-over-HTTP wire calls shared by coordinator, workers and clients.

The protocol is deliberately small: every call is a single HTTP request
with an optional JSON body and a JSON reply.  ``POST`` endpoints mutate the
job board, ``GET`` endpoints read it.  Errors come back as a JSON object
with an ``error`` field; the client raises them as :class:`ProtocolError`
carrying the HTTP status, so callers can distinguish a retryable outage
from a hard refusal (``400`` for a malformed request, naming the bad
field; ``409`` for a code-fingerprint mismatch).

Endpoints (all rooted at the coordinator URL):

=======================  ====================================================
``POST /jobs/submit``    enqueue wire-format cells (deduped by cache key)
``POST /jobs/lease``     lease a chunk of pending cells to a worker
``POST /jobs/complete``  report a lease's metrics (partial/late accepted)
``POST /jobs/collect``   long-poll for completed cells among given keys
``GET  /stats``          job-board counters (pending/leased/done/requeues...)
``GET  /health``         liveness probe
=======================  ====================================================
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from typing import Dict, List, Mapping, Optional, Sequence

from repro.errors import ExperimentError

#: Bumped on incompatible wire changes; both ends refuse a mismatch.
PROTOCOL_VERSION = 1

#: How long a leased chunk may stay unreported before it re-queues.
DEFAULT_LEASE_SECONDS = 60.0

#: Default long-poll window of ``POST /jobs/collect``.
DEFAULT_COLLECT_SECONDS = 10.0


class ProtocolError(ExperimentError):
    """An HTTP-level refusal from the coordinator (carries the status)."""

    def __init__(self, message: str, status: int = 0) -> None:
        super().__init__(message)
        self.status = status


class CoordinatorClient:
    """Thin JSON-over-HTTP client for one coordinator URL."""

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #

    def call(
        self,
        method: str,
        path: str,
        payload: Optional[Mapping[str, object]] = None,
        timeout: Optional[float] = None,
    ) -> Dict[str, object]:
        """One request/reply round trip; JSON both ways."""
        body = None
        headers = {"Accept": "application/json"}
        if payload is not None:
            # Compact separators: submit/complete bodies carry whole job
            # chunks, and the default separators' whitespace is pure wire
            # overhead (~3% on wire-format cells, ~25% on result chunks).
            body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            f"{self.url}{path}", data=body, headers=headers, method=method
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout if timeout is None else timeout
            ) as response:
                return self._decode(response.read(), response.status)
        except urllib.error.HTTPError as error:
            message = f"coordinator refused {method} {path}: HTTP {error.code}"
            try:
                detail = json.loads(error.read().decode("utf-8"))
                if isinstance(detail, dict) and detail.get("error"):
                    message = str(detail["error"])
            except (ValueError, OSError):
                pass
            raise ProtocolError(message, status=error.code) from None
        except (urllib.error.URLError, OSError) as error:
            raise ProtocolError(
                f"cannot reach coordinator at {self.url}: {error}"
            ) from None

    @staticmethod
    def _decode(raw: bytes, status: int) -> Dict[str, object]:
        try:
            payload = json.loads(raw.decode("utf-8"))
        except ValueError:
            raise ProtocolError(
                f"coordinator sent a non-JSON reply (HTTP {status})", status=status
            ) from None
        if not isinstance(payload, dict):
            raise ProtocolError(
                f"coordinator sent a non-object reply (HTTP {status})", status=status
            )
        return payload

    # ------------------------------------------------------------------ #
    # Job-board calls
    # ------------------------------------------------------------------ #

    def submit_jobs(
        self, payloads: Sequence[Mapping[str, object]], fingerprint: str
    ) -> Dict[str, object]:
        """Enqueue wire-format cells; returns accepted/cached/shared counts."""
        return self.call(
            "POST",
            "/jobs/submit",
            {
                "protocol": PROTOCOL_VERSION,
                "fingerprint": fingerprint,
                "jobs": list(payloads),
            },
        )

    def lease(
        self, worker: str, fingerprint: str, max_jobs: Optional[int] = None
    ) -> Dict[str, object]:
        """Lease a chunk of pending cells (empty ``jobs`` when idle)."""
        return self.call(
            "POST",
            "/jobs/lease",
            {
                "protocol": PROTOCOL_VERSION,
                "fingerprint": fingerprint,
                "worker": worker,
                "max_jobs": max_jobs,
            },
        )

    def complete(
        self,
        lease: str,
        worker: str,
        results: Sequence[Mapping[str, object]],
        failures: Sequence[Mapping[str, object]] = (),
    ) -> Dict[str, object]:
        """Report a lease's outcomes (``results``/``failures`` by key)."""
        return self.call(
            "POST",
            "/jobs/complete",
            {
                "protocol": PROTOCOL_VERSION,
                "lease": lease,
                "worker": worker,
                "results": list(results),
                "failures": list(failures),
            },
        )

    def collect(
        self, keys: Sequence[str], timeout: float = DEFAULT_COLLECT_SECONDS
    ) -> Dict[str, object]:
        """Long-poll for completed cells among ``keys``."""
        return self.call(
            "POST",
            "/jobs/collect",
            {"protocol": PROTOCOL_VERSION, "keys": list(keys), "timeout": timeout},
            # The HTTP timeout must outlive the server-side long poll.
            timeout=timeout + 30.0,
        )

    def stats(self) -> Dict[str, object]:
        """The coordinator's job-board counters."""
        return self.call("GET", "/stats")

    def health(self) -> Dict[str, object]:
        """Liveness probe."""
        return self.call("GET", "/health")


def job_result(key: str, metrics: Mapping[str, object]) -> Dict[str, object]:
    """One completed cell as shipped in ``POST /jobs/complete``."""
    return {"key": key, "metrics": dict(metrics)}


def job_failure(key: str, error: str) -> Dict[str, object]:
    """One failed cell as shipped in ``POST /jobs/complete``."""
    return {"key": key, "error": error}


def string_list(value: object) -> List[str]:
    """Coerce a JSON payload field into a list of strings (defensively)."""
    if not isinstance(value, list):
        return []
    return [str(item) for item in value]
