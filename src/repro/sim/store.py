"""The on-disk result store: one SQLite table.

The experiment engine persists one JSON record per finished cell.
:class:`ResultCache` keeps them in ``<cache_dir>/results.sqlite3``, one row
per cache key: the key, the job kind, the record's schema version, its
timestamp, the CRC32 of the record text and the record text itself.  The
record holds what a load reads, as compact JSON: ``{"schema", "key",
"metrics"}``; the kind and the timestamp are table columns, and the cell's
description is digested into its key.  SQLite from the standard library
supplies atomic transactions, locking between processes and crash
recovery:

* each :meth:`ResultCache.store_many` chunk is one transaction, so a killed
  run keeps every committed chunk and loses only the chunk in flight;
* each public call opens and closes its own connection, so no connection
  crosses a process pool's fork and no two coordinator request threads
  share one; concurrent runs on one directory wait up to
  :data:`BUSY_TIMEOUT_SECONDS` for each other's commits;
* the rollback journal and the ``synchronous`` setting stay at SQLite's
  durable defaults.

Every read checks each row: the stored CRC32 against the text (SQLite keeps
no checksums of its own), then the record's schema version, key and
metrics.  A row that fails any check is a miss, which the next store
replaces.  A file SQLite refuses as damaged is moved aside to
``results.sqlite3.damaged``: reads then miss and the run fills a fresh file.

A job kind must be one plain name, checked before anything touches the
disk, because kinds arrive from outside the program (``repro cache clear
--kind`` and coordinator submissions).  :mod:`repro.sim.runner` re-exports
:class:`ResultCache` and the cache report types.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
import zlib
from contextlib import closing, suppress
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar, Union

from repro.errors import ExperimentError
from repro.sim.jobs import CACHE_SCHEMA_VERSION, ExperimentJob

#: A cell result: a flat mapping of metric name to JSON scalar.  Simulation
#: cells return numbers, a fault-campaign cell its outcome counts, a fuzz
#: cell also its case id and repro line; a ``json`` round trip reproduces
#: every value exactly.
Metrics = Dict[str, Union[None, bool, int, float, str]]

#: Environment variable overriding the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Compact JSON separators for every persisted/wire payload: cache records
#: carry no humans-read-this requirement, and the whitespace of the default
#: separators is pure size overhead (measured ~25% on quick-grid cells).
COMPACT_SEPARATORS = (",", ":")

#: The database file inside the cache directory.
DATABASE_NAME = "results.sqlite3"

#: Seconds a connection waits for another process's transaction to end.
BUSY_TIMEOUT_SECONDS = 60.0

#: Keys per probe query, under SQLite's historic 999-parameter limit.
_PROBE_CHUNK = 900

_CREATE_TABLE = """CREATE TABLE IF NOT EXISTS results (
    key TEXT PRIMARY KEY,
    kind TEXT NOT NULL,
    version INTEGER NOT NULL,
    ts REAL NOT NULL,
    crc INTEGER NOT NULL,
    record TEXT NOT NULL
)"""

_T = TypeVar("_T")


def default_cache_dir() -> Path:
    """The on-disk cache location used when none is given explicitly."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


def _check_kind(kind: str) -> None:
    """Refuse a job kind that is not exactly one plain name."""
    if kind in ("", ".", "..") or Path(kind).name != kind:
        raise ExperimentError(f"invalid job kind {kind!r}: a kind is one plain name")


def _row_metrics(key: str, crc: object, text: object) -> Optional[Metrics]:
    """Validate one stored row into metrics; ``None`` is a miss.

    ``text`` is the record's raw UTF-8 bytes, so a row damaged into invalid
    UTF-8 fails the CRC or the decode instead of raising.
    """
    if not isinstance(text, bytes) or zlib.crc32(text) != crc:
        return None
    try:
        record = json.loads(text)
    except ValueError:
        return None
    if not isinstance(record, dict):
        return None
    if record.get("schema") != CACHE_SCHEMA_VERSION or record.get("key") != key:
        return None
    metrics = record.get("metrics")
    return metrics if isinstance(metrics, dict) else None


class ResultCache:
    """SQLite result store keyed by job cache keys.

    See the module docstring for the format.  Single-cell
    :meth:`load`/:meth:`store` remain for convenience; the runner and the
    distributed coordinator use the batched :meth:`load_many` and
    :meth:`store_many`.

    ``clock`` is injectable so prune-by-age tests control record ages
    without sleeping.
    """

    def __init__(
        self, directory: Union[str, Path], *, clock: Callable[[], float] = time.time
    ) -> None:
        self.directory = Path(directory)
        self.path = self.directory / DATABASE_NAME
        self._clock = clock

    # -- plumbing ------------------------------------------------------- #

    def _connect(self) -> sqlite3.Connection:
        # isolation_level=None: transactions are begun explicitly below.
        return sqlite3.connect(self.path, timeout=BUSY_TIMEOUT_SECONDS, isolation_level=None)

    def _transaction(
        self,
        operation: Callable[[sqlite3.Connection], _T],
        *,
        write: bool = False,
        create: bool = False,
    ) -> Optional[_T]:
        """Run ``operation`` in one transaction on a fresh connection.

        Returns ``None`` without touching the disk when there is no
        database and ``create`` is false.  A write takes the write lock up
        front (``BEGIN IMMEDIATE``); a read sees one consistent snapshot.
        A database SQLite refuses as damaged is moved aside: a read then
        returns ``None`` and a write runs once more, on a fresh file.
        """
        try:
            return self._attempt(operation, write, create)
        except sqlite3.DatabaseError as error:
            # sqlite3 raises a plain DatabaseError, not one of its
            # subclasses, for a damaged file (SQLITE_CORRUPT, SQLITE_NOTADB).
            if type(error) is not sqlite3.DatabaseError:
                raise
        self._set_aside()
        return self._attempt(operation, write, create) if write else None

    def _attempt(
        self, operation: Callable[[sqlite3.Connection], _T], write: bool, create: bool
    ) -> Optional[_T]:
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)
        elif not self.path.exists():
            return None
        with closing(self._connect()) as connection:
            connection.execute("BEGIN IMMEDIATE" if write else "BEGIN")
            with connection:  # commits, or rolls back on an error
                connection.execute(_CREATE_TABLE)
                return operation(connection)

    def _set_aside(self) -> None:
        """Move a damaged database (and its journal) out of the way."""
        damaged = self.path.with_name(DATABASE_NAME + ".damaged")
        for suffix in ("", "-journal"):
            with suppress(FileNotFoundError):
                os.replace(f"{self.path}{suffix}", f"{damaged}{suffix}")

    def _vacuum(self) -> None:
        """Give the space of deleted rows back to the file system."""
        with closing(self._connect()) as connection:
            connection.execute("VACUUM")

    # -- loads ---------------------------------------------------------- #

    def load(self, job: ExperimentJob) -> Optional[Metrics]:
        """Return the cached metrics for ``job``, or ``None`` on a miss."""
        return self.load_many([job]).get(job)

    def load_many(self, jobs: Sequence[ExperimentJob]) -> Dict[ExperimentJob, Metrics]:
        """Probe a whole batch; returns ``{job: metrics}`` for the hits.

        One query per :data:`_PROBE_CHUNK` keys, all in one read
        transaction.  Corrupt or incompatible rows are misses, never errors.
        """
        for job in jobs:
            _check_kind(job.kind)
        by_key = {job.cache_key(): job for job in jobs}
        keys = list(by_key)
        if not keys:
            return {}

        def probe(connection: sqlite3.Connection) -> List[Tuple[Any, ...]]:
            rows: List[Tuple[Any, ...]] = []
            for start in range(0, len(keys), _PROBE_CHUNK):
                chunk = keys[start : start + _PROBE_CHUNK]
                rows += connection.execute(
                    "SELECT key, crc, CAST(record AS BLOB) FROM results"
                    " WHERE typeof(record) = 'text' AND key IN"
                    f" ({','.join('?' * len(chunk))})",
                    chunk,
                ).fetchall()
            return rows

        hits: Dict[ExperimentJob, Metrics] = {}
        for key, crc, text in self._transaction(probe) or ():
            metrics = _row_metrics(key, crc, text)
            if metrics is not None:
                hits[by_key[key]] = metrics
        return hits

    # -- stores --------------------------------------------------------- #

    def store(self, job: ExperimentJob, metrics: Metrics) -> None:
        """Persist one cell's metrics (one transaction)."""
        self.store_many([(job, metrics)])

    def store_many(self, items: Sequence[Tuple[ExperimentJob, Metrics]]) -> None:
        """Persist a chunk of results in one transaction; a key's newest row wins."""
        now = self._clock()
        rows: List[Tuple[str, str, int, float, int, str]] = []
        for job, metrics in items:
            _check_kind(job.kind)
            key = job.cache_key()
            text = json.dumps(
                {"schema": CACHE_SCHEMA_VERSION, "key": key, "metrics": metrics},
                sort_keys=True,
                separators=COMPACT_SEPARATORS,
            )
            crc = zlib.crc32(text.encode("utf-8"))
            rows.append((key, job.kind, CACHE_SCHEMA_VERSION, now, crc, text))
        if rows:
            self._transaction(
                lambda connection: connection.executemany(
                    "INSERT OR REPLACE INTO results VALUES (?, ?, ?, ?, ?, ?)", rows
                ),
                write=True,
                create=True,
            )

    def flush(self) -> None:
        """Publish pending writes: there are none left to publish.

        Every :meth:`store_many` has committed by the time it returns.  The
        runner still calls this and perfbench's layer tracer still wraps it;
        both go when the benchmark's definition next changes.
        """

    # -- inventory ------------------------------------------------------ #

    def kinds(self) -> Tuple[str, ...]:
        """The job kinds with at least one entry on disk, sorted."""
        rows = self._transaction(
            lambda connection: connection.execute(
                "SELECT DISTINCT kind FROM results ORDER BY kind"
            ).fetchall()
        )
        return tuple(kind for (kind,) in rows or ())

    def stats(self) -> Dict[str, "CacheKindStats"]:
        """Per-kind entry counts, live record bytes and schema-version mix.

        Versions are the rows' own: a stale-version row is counted under
        its version although it loads as a miss.
        """
        rows = self._transaction(
            lambda connection: connection.execute(
                "SELECT kind, version, COUNT(*), SUM(LENGTH(CAST(record AS BLOB)))"
                " FROM results GROUP BY kind, version ORDER BY kind, version"
            ).fetchall()
        )
        report: Dict[str, CacheKindStats] = {}
        for kind, version, entries, size in rows or ():
            stats = report.setdefault(kind, CacheKindStats(kind=kind))
            stats.entries += entries
            stats.bytes += size or 0
            stats.versions[str(version)] = entries
        return report

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete cached entries; return how many entries were removed."""
        if kind is not None:
            _check_kind(kind)
        removed = self._transaction(
            lambda connection: connection.execute(
                "DELETE FROM results WHERE ? IS NULL OR kind = ?", (kind, kind)
            ).rowcount,
            write=True,
        )
        if removed:
            self._vacuum()
        return removed or 0

    def prune(
        self,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> "CachePruneResult":
        """Garbage-collect by age and/or total *live* size.

        Ages come from each row's stored timestamp, and the ``max_bytes``
        budget counts live record bytes.  Both evict oldest first, so the
        evicted rows are a prefix of the rows in timestamp order.
        """
        if now is None:
            now = self._clock()
        items: List[Tuple[float, int, str]] = self._transaction(
            lambda connection: connection.execute(
                "SELECT ts, LENGTH(CAST(record AS BLOB)), key FROM results ORDER BY ts"
            ).fetchall()
        ) or []
        cut = 0
        if max_age_seconds is not None:
            while cut < len(items) and now - items[cut][0] > max_age_seconds:
                cut += 1
        if max_bytes is not None:
            total = sum(item[1] for item in items[cut:])
            while total > max_bytes and cut < len(items):
                total -= items[cut][1]
                cut += 1
        doomed, survivors = items[:cut], items[cut:]
        if doomed:
            self._transaction(
                lambda connection: connection.executemany(
                    "DELETE FROM results WHERE key = ?", [(key,) for *_, key in doomed]
                ),
                write=True,
            )
            self._vacuum()
        return CachePruneResult(
            removed_entries=len(doomed),
            removed_bytes=sum(item[1] for item in doomed),
            kept_entries=len(survivors),
            kept_bytes=sum(item[1] for item in survivors),
        )


@dataclass
class CachePruneResult:
    """What a cache ``prune`` removed and what survived."""

    removed_entries: int = 0
    removed_bytes: int = 0
    kept_entries: int = 0
    kept_bytes: int = 0

    def summary(self) -> str:
        """One-line human-readable account of the GC pass."""
        return (
            f"pruned {self.removed_entries} entries ({self.removed_bytes} bytes); "
            f"kept {self.kept_entries} entries ({self.kept_bytes} bytes)"
        )


@dataclass
class CacheKindStats:
    """One job kind's share of the on-disk result cache."""

    kind: str
    entries: int = 0
    #: Live record bytes.
    bytes: int = 0
    #: Entry counts per recorded cache schema version.
    versions: Dict[str, int] = dataclass_field(default_factory=dict)

    def version_summary(self) -> str:
        """Compact ``v1:3 v2:12`` rendering of the version mix."""
        return " ".join(
            f"v{version}:{count}" for version, count in sorted(self.versions.items())
        )
