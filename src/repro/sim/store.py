"""The on-disk result store: packed, CRC-framed segment files.

The experiment engine persists one JSON record per finished cell.
:class:`ResultCache` appends records to size-bounded *segment files* under
``<cache_dir>/<kind>/segments/``, each record framed with a length/CRC32
header so a torn tail from a killed writer is detected and cleanly
ignored.  A per-kind *manifest* (``segments/manifest.json``) maps ``key ->
(segment, offset, length, version, ts)`` and is loaded once per process; if
it is missing or stale the index is rebuilt by scanning the segments'
unvouched tails.  Batched APIs (:meth:`ResultCache.load_many`,
:meth:`ResultCache.store_many`) cost one append and one ``fsync`` per
*chunk*, not per cell -- the storage analogue of the engine's batched
execute path.

Concurrent-writer safety: every writer appends only to segment files it
created itself (``seg-<pid>-<n>.seg``, opened with ``O_EXCL``), so two
processes never interleave records; the manifest is published atomically
(tmp + fsync + rename) and only ever vouches for bytes the publisher
fsynced, so a reader that loses the manifest race merely re-scans a
tail.  Manifest publication is deferred (:meth:`ResultCache.flush`, plus
every :data:`PUBLISH_EVERY` records) because an unpublished record is
still durable -- the rebuild scan finds it.

A job kind names a directory directly under the cache root, so a kind
that is not exactly one plain path component is rejected before it
becomes a path.  :mod:`repro.sim.runner` re-exports :class:`ResultCache`
and the cache report types.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import zlib
from dataclasses import dataclass, field as dataclass_field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import ExperimentError
from repro.sim.jobs import CACHE_SCHEMA_VERSION, ExperimentJob

#: A cell result: metric name to JSON-serializable value.  Simulation cells
#: return plain floats; other registered kinds may return nested structures
#: (fault-campaign cells return their serialized trial records), as long as
#: a ``json`` round trip reproduces the value exactly.  The alias is not
#: recursive, so ``typing.get_type_hints`` resolves it in any module.
JsonValue = Union[None, bool, int, float, str, List[Any], Dict[str, Any]]
Metrics = Dict[str, JsonValue]

#: Environment variable overriding the default on-disk cache location.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Default on-disk cache location (relative to the working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Compact JSON separators for every persisted/wire payload: cache records
#: carry no humans-read-this requirement, and the whitespace of the default
#: separators is pure size overhead (measured ~25% on quick-grid cells).
COMPACT_SEPARATORS = (",", ":")

#: Sub-directory of a kind directory holding its segment files + manifest.
SEGMENT_DIR_NAME = "segments"

#: The per-kind index file, inside the segment directory.
MANIFEST_NAME = "manifest.json"

#: Bump when the manifest JSON shape changes; unknown formats are rebuilt.
MANIFEST_FORMAT = 1

#: Roll to a new segment file once the active one exceeds this.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

#: Publish the manifest at least every this-many appended records even if
#: nobody calls :meth:`ResultCache.flush` (bounds the rebuild-scan cost of
#: a crashed long run).
PUBLISH_EVERY = 512

#: ``b"%08x %08x\n"`` -- payload length, CRC32, newline.
_HEADER_LENGTH = 18


def default_cache_dir() -> Path:
    """The on-disk cache location used when none is given explicitly."""
    return Path(os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR))


# ---------------------------------------------------------------------- #
# Record framing
# ---------------------------------------------------------------------- #


def _frame_record(payload: bytes) -> bytes:
    """Wrap one compact-JSON payload in the segment record frame."""
    header = b"%08x %08x\n" % (len(payload), zlib.crc32(payload) & 0xFFFFFFFF)
    return header + payload + b"\n"


def _decode_frame(blob: bytes) -> Optional[Dict[str, object]]:
    """Parse one framed record; ``None`` for any torn or corrupt frame."""
    if len(blob) < _HEADER_LENGTH + 1 or blob[8:9] != b" " or blob[17:18] != b"\n":
        return None
    try:
        length = int(blob[0:8], 16)
        crc = int(blob[9:17], 16)
    except ValueError:
        return None
    if len(blob) != _HEADER_LENGTH + length + 1 or blob[-1:] != b"\n":
        return None
    payload = blob[_HEADER_LENGTH:-1]
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        return None
    try:
        record = json.loads(payload.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    return record if isinstance(record, dict) else None


def _scan_segment(
    data: bytes, start: int
) -> Tuple[List[Tuple[int, int, Dict[str, object]]], int]:
    """Walk intact records from ``start``; stop at the first torn frame.

    Returns ``([(offset, length, record), ...], clean_offset)`` where
    ``clean_offset`` is the end of the last intact record -- everything
    beyond it is a torn tail (a writer killed mid-append) and simply does
    not exist as far as the index is concerned.
    """
    records: List[Tuple[int, int, Dict[str, object]]] = []
    offset = max(0, start)
    size = len(data)
    while offset + _HEADER_LENGTH <= size:
        header = data[offset : offset + _HEADER_LENGTH]
        if header[8:9] != b" " or header[17:18] != b"\n":
            break
        try:
            length = int(header[0:8], 16)
            crc = int(header[9:17], 16)
        except ValueError:
            break
        end = offset + _HEADER_LENGTH + length + 1
        if end > size or data[end - 1 : end] != b"\n":
            break
        payload = data[offset + _HEADER_LENGTH : end - 1]
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            record = None
        if isinstance(record, dict):
            records.append((offset, end - offset, record))
        offset = end
    return records, offset


class _IndexEntry(NamedTuple):
    """Where one key's current record lives, plus its stats metadata."""

    segment: str
    offset: int
    length: int
    version: str
    ts: float


def _record_metrics(record: Optional[Mapping[str, object]], key: str) -> Optional[Metrics]:
    """Validate one packed record into metrics; ``None`` is a miss."""
    if not isinstance(record, Mapping):
        return None
    if record.get("schema") != CACHE_SCHEMA_VERSION:
        return None
    if record.get("key") != key:
        return None
    metrics = record.get("metrics")
    if not isinstance(metrics, dict):
        return None
    return metrics


# ---------------------------------------------------------------------- #
# Per-kind segment store
# ---------------------------------------------------------------------- #


class _KindStore:
    """One job kind's segments, manifest and index."""

    def __init__(self, root: Path, kind: str, max_segment_bytes: int) -> None:
        self.kind = kind
        self.directory = root / kind
        self.segment_dir = self.directory / SEGMENT_DIR_NAME
        self.manifest_path = self.segment_dir / MANIFEST_NAME
        self.max_segment_bytes = max_segment_bytes
        self._index: Optional[Dict[str, _IndexEntry]] = None
        #: Per segment, how many bytes are known-intact (own fsynced writes,
        #: or cleanly scanned).  The manifest never vouches beyond these.
        self._scanned: Dict[str, int] = {}
        self._writer_name: Optional[str] = None
        self._handle = None
        self._dirty = 0

    # -- index ---------------------------------------------------------- #

    def index(self) -> Dict[str, _IndexEntry]:
        """The in-memory key index, loaded (or rebuilt) on first use."""
        if self._index is None:
            self._load_index()
        assert self._index is not None
        return self._index

    def _read_manifest(self) -> Optional[Dict[str, object]]:
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
            return None
        return manifest

    def _load_index(self) -> None:
        index: Dict[str, _IndexEntry] = {}
        scanned: Dict[str, int] = {}
        dirty = False
        manifest = self._read_manifest() or {}
        vouched = manifest.get("segments")
        vouched = vouched if isinstance(vouched, dict) else {}
        entries = manifest.get("entries")
        entries = entries if isinstance(entries, dict) else {}

        on_disk: Dict[str, int] = {}
        if self.segment_dir.is_dir():
            for path in self.segment_dir.glob("seg-*.seg"):
                try:
                    on_disk[path.name] = path.stat().st_size
                except OSError:
                    continue

        # A segment the manifest never saw -- or one shorter than the bytes
        # the manifest vouches for (truncated after publication) -- gets a
        # full rescan; nothing the manifest says about it can be trusted.
        distrusted: Set[str] = set()
        for name, size in on_disk.items():
            claimed = vouched.get(name)
            if isinstance(claimed, int) and 0 <= claimed <= size:
                scanned[name] = claimed
            else:
                scanned[name] = 0
                distrusted.add(name)
                dirty = True

        for key, value in entries.items():
            if not (isinstance(value, (list, tuple)) and len(value) == 5):
                dirty = True
                continue
            segment, offset, length, version, ts = value
            if (
                not isinstance(segment, str)
                or segment not in on_disk
                or segment in distrusted
                or not isinstance(offset, int)
                or not isinstance(length, int)
                or offset + length > scanned.get(segment, 0)
            ):
                dirty = True
                continue
            index[str(key)] = _IndexEntry(
                segment, offset, length, str(version), float(ts or 0.0)
            )

        # Scan every unvouched tail: records appended after the last
        # publication (or whole segments after a lost manifest).  The scan
        # stops at the first torn frame, which is exactly the CRC-guarded
        # crash-recovery contract.
        for name in sorted(on_disk):
            start = scanned[name]
            if on_disk[name] <= start:
                continue
            try:
                data = (self.segment_dir / name).read_bytes()
            except OSError:
                continue
            records, clean = _scan_segment(data, start)
            for offset, length, record in records:
                key = record.get("key")
                if not isinstance(key, str):
                    continue
                entry = _IndexEntry(
                    name,
                    offset,
                    length,
                    str(record.get("schema", "?")),
                    float(record.get("ts") or 0.0),
                )
                previous = index.get(key)
                if previous is None or entry.ts >= previous.ts:
                    index[key] = entry
            if records or clean != start:
                dirty = True
            scanned[name] = clean

        self._index = index
        self._scanned = scanned
        if dirty:
            # Something the manifest did not know; republishing on the next
            # flush saves the next process the rescan.
            self._dirty = max(self._dirty, 1)

    # -- writing -------------------------------------------------------- #

    def _open_writer(self):
        """The active append handle, allocating a fresh segment if needed.

        Writers never append to a segment they did not create (a previous
        crash may have left a torn tail that would make later records
        unreachable by scan), so segment names are claimed with ``O_EXCL``.
        """
        if self._handle is not None:
            return self._writer_name, self._handle
        self.segment_dir.mkdir(parents=True, exist_ok=True)
        pid = os.getpid()
        serial = 0
        while True:
            name = f"seg-{pid}-{serial:04d}.seg"
            try:
                handle = open(self.segment_dir / name, "xb")
            except FileExistsError:
                serial += 1
                continue
            self._writer_name = name
            self._handle = handle
            self._scanned.setdefault(name, 0)
            return name, handle

    def _roll(self) -> None:
        """Close the active segment; the next append opens a fresh one."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None

    def append(self, records: Sequence[Tuple[str, Dict[str, object]]]) -> None:
        """Append framed records -- one buffered write + one fsync total."""
        items = []
        for key, record in records:
            payload = json.dumps(
                record, sort_keys=True, separators=COMPACT_SEPARATORS
            ).encode("utf-8")
            items.append(
                (
                    key,
                    _frame_record(payload),
                    str(record.get("schema", "?")),
                    float(record.get("ts") or 0.0),
                )
            )
        self._append_blobs(items)

    def _append_blobs(self, items: Sequence[Tuple[str, bytes, str, float]]) -> None:
        if not items:
            return
        index = self.index()
        name, handle = self._open_writer()
        offset = self._scanned.get(name, 0)
        pending: List[bytes] = []

        def drain() -> None:
            if pending:
                handle.write(b"".join(pending))
                handle.flush()
                os.fsync(handle.fileno())
                pending.clear()

        for key, blob, version, ts in items:
            if offset > 0 and offset + len(blob) > self.max_segment_bytes:
                drain()
                self._scanned[name] = offset
                self._roll()
                name, handle = self._open_writer()
                offset = self._scanned.get(name, 0)
            index[key] = _IndexEntry(name, offset, len(blob), version, ts)
            pending.append(blob)
            offset += len(blob)
        drain()
        self._scanned[name] = offset
        self._dirty += len(items)
        if self._dirty >= PUBLISH_EVERY:
            self.publish()

    def publish(self) -> None:
        """Atomically write the manifest, if anything changed since last time."""
        if self._dirty == 0 or self._index is None:
            return
        self.segment_dir.mkdir(parents=True, exist_ok=True)
        manifest = {
            "format": MANIFEST_FORMAT,
            "schema": CACHE_SCHEMA_VERSION,
            "segments": dict(sorted(self._scanned.items())),
            "entries": {
                key: list(entry) for key, entry in sorted(self._index.items())
            },
        }
        tmp = self.manifest_path.with_suffix(f".{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(manifest, handle, separators=COMPACT_SEPARATORS)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, self.manifest_path)
        finally:
            tmp.unlink(missing_ok=True)
        self._dirty = 0

    # -- reading -------------------------------------------------------- #

    #: Probing this many keys in one segment switches from seek-per-record
    #: to one bulk read of the whole segment (warm sweeps touch most of it
    #: anyway, and one big read beats thousands of seek+read round trips).
    _BULK_READ_THRESHOLD = 32

    def _fetch(
        self, keys: Iterable[str]
    ) -> Dict[str, Tuple[bytes, Dict[str, object]]]:
        """``{key: (raw frame, decoded record)}`` for intact indexed keys.

        One open per touched segment; each frame is CRC-checked and decoded
        exactly once.  An index entry whose frame fails validation (external
        damage) is forgotten so the cell re-executes.
        """
        index = self.index()
        by_segment: Dict[str, List[Tuple[str, _IndexEntry]]] = {}
        for key in keys:
            entry = index.get(key)
            if entry is not None:
                by_segment.setdefault(entry.segment, []).append((key, entry))
        found: Dict[str, Tuple[bytes, Dict[str, object]]] = {}
        for segment, pairs in by_segment.items():
            pairs.sort(key=lambda pair: pair[1].offset)
            try:
                with open(self.segment_dir / segment, "rb") as handle:
                    if len(pairs) >= self._BULK_READ_THRESHOLD:
                        data = handle.read()
                        blobs = [
                            data[entry.offset : entry.offset + entry.length]
                            for _, entry in pairs
                        ]
                    else:
                        blobs = []
                        for _, entry in pairs:
                            handle.seek(entry.offset)
                            blobs.append(handle.read(entry.length))
            except OSError:
                continue
            for (key, entry), blob in zip(pairs, blobs):
                record = _decode_frame(blob)
                if record is None:
                    index.pop(key, None)
                    self._dirty = max(self._dirty, 1)
                    continue
                found[key] = (blob, record)
        return found

    def _read_blobs(self, keys: Iterable[str]) -> Dict[str, bytes]:
        """Raw validated frames for ``keys`` (compaction copies these)."""
        return {key: blob for key, (blob, _) in self._fetch(keys).items()}

    def get_many(self, keys: Iterable[str]) -> Dict[str, Dict[str, object]]:
        """Decoded records for every indexed, intact key among ``keys``."""
        return {key: record for key, (_, record) in self._fetch(keys).items()}

    # -- maintenance ---------------------------------------------------- #

    def segment_names(self) -> List[str]:
        if not self.segment_dir.is_dir():
            return []
        return sorted(path.name for path in self.segment_dir.glob("seg-*.seg"))

    def segment_bytes(self) -> int:
        total = 0
        for name in self.segment_names():
            try:
                total += (self.segment_dir / name).stat().st_size
            except OSError:
                continue
        try:
            total += self.manifest_path.stat().st_size
        except OSError:
            pass
        return total

    def compact(self) -> Tuple[int, int, int]:
        """Rewrite live records into fresh segments, drop the old ones.

        Frames are copied verbatim (same CRC, version and timestamp), so
        compaction never rewrites a record's identity -- it only sheds the
        dead bytes of superseded and pruned records.  Returns ``(entries,
        bytes_before, bytes_after)`` over the segment files.
        """
        index = self.index()
        old_names = self.segment_names()
        bytes_before = self.segment_bytes()
        blobs = self._read_blobs(list(index))
        keep = [
            (key, blobs[key], index[key].version, index[key].ts)
            for key in sorted(blobs)
        ]
        self._roll()
        self._index = {}
        self._scanned = {}
        if keep:
            self._append_blobs(keep)
        self._roll()
        self._dirty = max(self._dirty, 1)
        # Publish before deleting: a crash in between leaves orphan old
        # segments whose records are identical to the kept copies, so a
        # rebuild scan merely re-finds the same data.
        self.publish()
        for name in old_names:
            (self.segment_dir / name).unlink(missing_ok=True)
        return len(keep), bytes_before, self.segment_bytes()

    def drop_all(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = len(self.index())
        self._roll()
        if self.segment_dir.is_dir():
            shutil.rmtree(self.segment_dir, ignore_errors=True)
        self._index = {}
        self._scanned = {}
        self._dirty = 0
        try:
            self.directory.rmdir()
        except OSError:
            pass
        return removed


# ---------------------------------------------------------------------- #
# The packed segment store
# ---------------------------------------------------------------------- #


class ResultCache:
    """Packed segment-file result store keyed by job cache keys.

    See the module docstring for the format.  Single-cell
    :meth:`load`/:meth:`store` remain for convenience; the runner and the
    distributed coordinator use the batched :meth:`load_many` and
    :meth:`store_many`.

    ``clock`` is injectable so prune-by-age tests control record ages
    without sleeping.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.directory = Path(directory)
        self.max_segment_bytes = max_segment_bytes
        self._clock = clock
        self._stores: Dict[str, _KindStore] = {}

    # -- plumbing ------------------------------------------------------- #

    def _kind(self, kind: str) -> _KindStore:
        store = self._stores.get(kind)
        if store is None:
            # The kind becomes a directory under the root: anything but one
            # plain path component (an absolute path, "..", "a/b") would
            # point the store -- and clear's rmtree -- outside the cache.
            if kind in ("", ".", "..") or Path(kind).name != kind:
                raise ExperimentError(
                    f"invalid job kind {kind!r}: a kind is one plain name"
                )
            store = _KindStore(self.directory, kind, self.max_segment_bytes)
            self._stores[kind] = store
        return store

    def _kind_names(self) -> List[str]:
        names = set(self._stores)
        if self.directory.is_dir():
            for child in self.directory.iterdir():
                if child.is_dir():
                    names.add(child.name)
        return sorted(names)

    # -- loads ---------------------------------------------------------- #

    def load(self, job: ExperimentJob) -> Optional[Metrics]:
        """Return the cached metrics for ``job``, or ``None`` on a miss."""
        return self.load_many([job]).get(job)

    def load_many(self, jobs: Sequence[ExperimentJob]) -> Dict[ExperimentJob, Metrics]:
        """Probe a whole batch; returns ``{job: metrics}`` for the hits.

        One index lookup per cell and one file open per touched segment.
        Corrupt or incompatible records are misses, never errors: torn
        segment tails are excluded by the CRC scan at index build, and a
        record damaged after indexing fails frame validation at read.
        """
        by_kind: Dict[str, List[Tuple[ExperimentJob, str]]] = {}
        for job in jobs:
            by_kind.setdefault(job.kind, []).append((job, job.cache_key()))
        hits: Dict[ExperimentJob, Metrics] = {}
        for kind, keyed in by_kind.items():
            records = self._kind(kind).get_many(key for _, key in keyed)
            for job, key in keyed:
                metrics = _record_metrics(records.get(key), key)
                if metrics is not None:
                    hits[job] = metrics
        return hits

    # -- stores --------------------------------------------------------- #

    def store(self, job: ExperimentJob, metrics: Metrics) -> None:
        """Persist one cell's metrics (one record append + fsync)."""
        self.store_many([(job, metrics)])

    def store_many(self, items: Sequence[Tuple[ExperimentJob, Metrics]]) -> None:
        """Persist a chunk of results: one append + one fsync per kind."""
        now = self._clock()
        by_kind: Dict[str, List[Tuple[str, Dict[str, object]]]] = {}
        for job, metrics in items:
            key = job.cache_key()
            record = {
                "schema": CACHE_SCHEMA_VERSION,
                "key": key,
                "kind": job.kind,
                "ts": now,
                "job": job.to_dict(),
                "metrics": metrics,
            }
            by_kind.setdefault(job.kind, []).append((key, record))
        for kind, records in by_kind.items():
            self._kind(kind).append(records)

    def flush(self) -> None:
        """Publish every dirty manifest (records are already durable)."""
        for store in self._stores.values():
            store.publish()

    # -- inventory ------------------------------------------------------ #

    def kinds(self) -> Tuple[str, ...]:
        """The job kinds with at least one entry on disk, sorted."""
        return tuple(
            kind
            for kind in self._kind_names()
            if self._kind(kind).index()
        )

    def stats(self) -> Dict[str, "CacheKindStats"]:
        """Per-kind entry counts, sizes and schema-version mix.

        Served from the in-memory index -- no per-entry file reads.
        ``bytes`` counts *live* record bytes; ``disk_bytes`` the segment
        files as stored (the gap is what ``cache compact`` reclaims).  A
        torn in-flight segment tail is excluded by the CRC scan, so a
        mid-write record never shows up at all.  Versions are the records'
        own ``schema`` fields: a stale-version record is counted under its
        version although it loads as a miss.
        """
        report: Dict[str, CacheKindStats] = {}
        for kind in self._kind_names():
            store = self._kind(kind)
            index = store.index()
            if not index:
                continue
            stats = CacheKindStats(kind=kind)
            for entry in index.values():
                stats.entries += 1
                stats.bytes += entry.length
                stats.versions[entry.version] = stats.versions.get(entry.version, 0) + 1
            stats.segments = len(store.segment_names())
            stats.disk_bytes = store.segment_bytes()
            report[kind] = stats
        return report

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete cached entries; return how many entries were removed."""
        removed = 0
        for name in [kind] if kind is not None else self._kind_names():
            removed += self._kind(name).drop_all()
        return removed

    def prune(
        self,
        max_age_seconds: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> "CachePruneResult":
        """Garbage-collect by age and/or total *live* size.

        Ages come from each record's stored timestamp (segment file mtimes
        mean nothing: every record in a segment shares them), and the
        ``max_bytes`` budget counts live record bytes, not segment file
        sizes -- then a compaction pass physically drops the evicted
        records, both so the bytes are actually reclaimed and because a
        record left in a segment would be resurrected by the next manifest
        rebuild scan.
        """
        result = CachePruneResult()
        if now is None:
            now = self._clock()
        items: List[Tuple[float, int, str, str]] = []
        for kind in self._kind_names():
            for key, entry in self._kind(kind).index().items():
                items.append((entry.ts, entry.length, kind, key))
        items.sort(key=lambda item: item[0])
        doomed: List[Tuple[float, int, str, str]] = []
        survivors: List[Tuple[float, int, str, str]] = []
        for item in items:
            if max_age_seconds is not None and now - item[0] > max_age_seconds:
                doomed.append(item)
            else:
                survivors.append(item)
        if max_bytes is not None:
            total = sum(item[1] for item in survivors)
            cut = 0
            while total > max_bytes and cut < len(survivors):
                doomed.append(survivors[cut])
                total -= survivors[cut][1]
                cut += 1
            survivors = survivors[cut:]
        touched_kinds: Set[str] = set()
        for _, size, kind, key in doomed:
            self._kind(kind).index().pop(key, None)
            touched_kinds.add(kind)
            result.removed_entries += 1
            result.removed_bytes += size
        for kind in touched_kinds:
            self._kind(kind).compact()
        result.kept_entries = len(survivors)
        result.kept_bytes = sum(item[1] for item in survivors)
        return result

    def compact(self) -> "CacheCompactResult":
        """Rewrite every kind's live records into fresh minimal segments."""
        result = CacheCompactResult()
        for kind in self._kind_names():
            store = self._kind(kind)
            if not store.index() and not store.segment_names():
                continue
            entries, before, after = store.compact()
            result.kinds += 1
            result.entries += entries
            result.reclaimed_bytes += max(0, before - after)
        return result


# ---------------------------------------------------------------------- #
# Report dataclasses
# ---------------------------------------------------------------------- #


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
class CacheCompactResult:
    """What :meth:`ResultCache.compact` rewrote and reclaimed."""

    kinds: int = 0
    entries: int = 0
    reclaimed_bytes: int = 0

    def summary(self) -> str:
        return (
            f"compacted {self.entries} entries across {self.kinds} kinds; "
            f"reclaimed {self.reclaimed_bytes} bytes"
        )


@dataclass
class CacheKindStats:
    """One job kind's share of the on-disk result cache."""

    kind: str
    entries: int = 0
    #: Live record bytes.
    bytes: int = 0
    #: Bytes actually occupied on disk (segments + manifest); the gap over
    #: :attr:`bytes` is what ``compact`` reclaims.
    disk_bytes: int = 0
    #: Segment files backing the kind.
    segments: int = 0
    #: Entry counts per recorded cache schema version.
    versions: Dict[str, int] = dataclass_field(default_factory=dict)

    def version_summary(self) -> str:
        """Compact ``v1:3 v2:12`` rendering of the version mix."""
        return " ".join(
            f"v{version}:{count}" for version, count in sorted(self.versions.items())
        )
