"""Distributed execution of experiment cells over plain HTTP.

The package implements the ``distributed`` runner backend, the third way a
batch runs (after serial and the local process pool):

* :mod:`repro.sim.distributed.coordinator` -- the in-memory job board and
  its stdlib :class:`http.server.ThreadingHTTPServer` front end.  Clients
  submit wire-format :class:`~repro.sim.jobs.ExperimentJob` descriptions;
  pull-based workers lease them in adaptive chunks (the same chunker the
  ``process`` backend uses per IPC round) and report metrics back.  Leases
  expire and re-queue automatically, so a killed worker never loses a
  batch, and the coordinator dedupes by content-addressed cache key --
  concurrent clients submitting overlapping grids share work for free.
* :mod:`repro.sim.distributed.worker` -- the ``repro worker`` loop: lease,
  execute locally (serial or a process pool), complete, repeat.
* :mod:`repro.sim.distributed.backend` -- the client-side
  :class:`~repro.sim.runner.RunnerBackend` that makes all of this
  transparent to the engine: ``--coordinator URL`` and nothing else
  changes, so ``repro run-all --coordinator URL --json`` prints the same
  document as a local run.
* :mod:`repro.sim.distributed.protocol` -- the JSON-over-HTTP wire calls
  shared by all three.

Everything is standard library only (``http.server``, ``urllib``,
``threading``, ``json``); determinism is inherited from the jobs
themselves -- every cell is a seeded plain-value description, and metrics
survive a JSON round trip byte-identically, so serial, process and
distributed runs of the same grid produce identical result documents.
"""

from repro.sim.distributed.backend import DistributedBackend
from repro.sim.distributed.coordinator import Coordinator, CoordinatorServer
from repro.sim.distributed.protocol import CoordinatorClient, ProtocolError
from repro.sim.distributed.worker import WorkerStats, run_worker

__all__ = [
    "Coordinator",
    "CoordinatorClient",
    "CoordinatorServer",
    "DistributedBackend",
    "ProtocolError",
    "WorkerStats",
    "run_worker",
]
