"""The client-side ``distributed`` :class:`~repro.sim.runner.RunnerBackend`.

This is the piece that makes distribution invisible to the engine: the
runner hands the backend its pending cells exactly as it would hand them to
a process pool, and the backend ships their wire descriptions to the
coordinator, long-polls for completions, and yields ``(job, metrics)``
pairs in arrival order.  Caching, memoisation, stats and frame assembly all
stay on the client, untouched -- and because metrics survive the JSON round
trip byte-identically, so do the assembled documents.

The CLI builds one from ``--coordinator URL``; library callers pass
``ExperimentRunner(backend=DistributedBackend(url))``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ExperimentError
from repro.sim.distributed.protocol import CoordinatorClient
from repro.sim.jobs import ExperimentJob, code_fingerprint
from repro.sim.runner import JobExecutor, Metrics, RunnerBackend


class DistributedBackend(RunnerBackend):
    """Execute pending cells through a coordinator and its worker fleet."""

    name = "distributed"

    def __init__(self, coordinator: str, poll_seconds: float = 10.0) -> None:
        self.coordinator = coordinator
        self.poll_seconds = poll_seconds

    def execute(
        self,
        executor: JobExecutor,
        pending: Sequence[ExperimentJob],
        workers: int,
    ) -> Iterable[Tuple[ExperimentJob, Metrics]]:
        # ``executor`` is intentionally unused: remote workers run the cell
        # through their own (identical, fingerprint-checked) job registry.
        client = CoordinatorClient(self.coordinator)
        by_key: Dict[str, ExperimentJob] = {
            job.cache_key(): job for job in pending
        }
        client.submit_jobs(
            [job.to_wire() for job in pending], fingerprint=code_fingerprint()
        )
        awaiting = set(by_key)
        while awaiting:
            reply = client.collect(sorted(awaiting), timeout=self.poll_seconds)
            failures: List[str] = []
            for item in reply.get("failures") or []:
                key = str(item.get("key"))
                if key in awaiting:
                    awaiting.discard(key)
                    failures.append(
                        f"{by_key[key].label}: {item.get('error') or 'unknown error'}"
                    )
            if failures:
                raise ExperimentError(
                    "distributed workers failed "
                    f"{len(failures)} cell(s): " + "; ".join(sorted(failures))
                )
            for item in reply.get("results") or []:
                key = str(item.get("key"))
                metrics = item.get("metrics")
                if key in awaiting and isinstance(metrics, dict):
                    awaiting.discard(key)
                    yield by_key[key], metrics


__all__ = ["DistributedBackend"]
