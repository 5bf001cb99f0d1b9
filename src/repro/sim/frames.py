"""Typed, schema-driven result frames: the uniform results layer.

Every evaluation of the reproduction shares one shape -- a few *key* axes
(workload, configuration, failed-core count, ...) crossed with a set of
*metric* columns aggregated over seeds.  :class:`MetricSchema` declares that
shape once per experiment -- key columns, metric columns with a dtype, unit
and aggregation rule -- and :meth:`ResultFrame.assemble` is the one generic
fold from the runner's raw ``(key, metrics)`` samples into an aggregated
frame, using the confidence intervals of :mod:`repro.common.stats` in a
single place instead of one hand-written loop per experiment family.

Everything downstream is *generated* from the schema:

* :meth:`ResultFrame.to_table` renders the frame as plain-text tables (the
  schema's :class:`FrameView` declarations reproduce the paper's pivoted,
  normalised presentation; without views a flat table is emitted);
* :meth:`ResultFrame.to_json` / :meth:`ResultFrame.from_json` are the
  canonical, byte-stable serialization -- what ``repro run-all --json``
  emits and ``repro diff`` consumes;
* :meth:`ResultFrame.to_csv` (and :func:`frames_to_csv` for several frames
  at once) export the same data for downstream analysis;
* :func:`diff_frames` / :func:`diff_documents` compare two runs with
  numeric tolerances, which is what lets CI machine-check the evaluation
  against a committed baseline.

The frame layer is deliberately independent of the experiment machinery: it
imports only the stats helpers and the table renderer, so it can be unit
tested (``tests/test_frames.py``) without running a single simulation.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.tables import TextTable
from repro.common.stats import ConfidenceInterval, confidence_interval_95, left_sum, mean
from repro.errors import ExperimentError

__all__ = [
    "FRAME_SCHEMA_VERSION",
    "REL_TOL",
    "ABS_TOL",
    "AGGREGATES",
    "DTYPES",
    "MetricColumn",
    "FrameView",
    "MetricSchema",
    "ResultFrame",
    "FrameDrift",
    "diff_frames",
    "diff_documents",
    "frames_document",
    "document_frames",
    "frames_to_csv",
]

#: Version of the frame serialization format.  Bump on incompatible changes
#: to :meth:`ResultFrame.to_json`; ``repro diff`` refuses mismatched
#: baselines instead of mis-reading them.
FRAME_SCHEMA_VERSION = 1

#: The ``"fidelity"`` value every serialized frame and every document's
#: settings mapping carries.  There is one timing model, so the field says
#: nothing; it is kept so that version-1 documents keep their bytes, and
#: goes with the next :data:`FRAME_SCHEMA_VERSION` bump.
_FIDELITY = "accurate"

#: How a metric column folds its per-cell samples into one frame cell.
AGGREGATES = ("mean_ci", "mean", "sum", "last", "derive")

#: Scalar types a column may carry.
DTYPES = ("float", "int", "str")

#: One frame cell: a scalar, or a :class:`ConfidenceInterval` for
#: ``mean_ci`` columns.
CellValue = Union[None, bool, int, float, str, ConfidenceInterval]


# ===================================================================== #
# Schema declarations
# ===================================================================== #


@dataclass(frozen=True)
class MetricColumn:
    """One metric column of a :class:`MetricSchema`."""

    #: Column name; matches the metric key in the runner's sample dicts.
    name: str
    #: Scalar type of the (aggregated) values.
    dtype: str = "float"
    #: Physical unit for presentation ("cycles", "instr/cycle", "").
    unit: str = ""
    #: Aggregation rule over the samples of one key group: ``mean_ci``
    #: (mean with 95% CI), ``mean``, ``sum``, ``last`` (single-sample
    #: measurements), or ``derive`` (computed from the aggregated row).
    aggregate: str = "mean_ci"
    #: Display label for generated tables (defaults to the name).
    label: str = ""
    #: Optional format string applied to numeric cells in tables.
    fmt: Optional[str] = None
    #: For ``derive`` columns: row dict in, derived value out.  Not
    #: serialized -- deserialized frames carry the materialized values.
    derive: Optional[Callable[[Mapping[str, CellValue]], CellValue]] = None

    def __post_init__(self) -> None:
        if self.aggregate not in AGGREGATES:
            raise ExperimentError(
                f"metric {self.name!r}: unknown aggregate {self.aggregate!r} "
                f"(expected one of {', '.join(AGGREGATES)})"
            )
        if self.dtype not in DTYPES:
            raise ExperimentError(
                f"metric {self.name!r}: unknown dtype {self.dtype!r} "
                f"(expected one of {', '.join(DTYPES)})"
            )

    @property
    def display(self) -> str:
        """The table header for this column."""
        return self.label or self.name

    def to_dict(self) -> Dict[str, object]:
        """Declarative JSON description (the ``derive`` callable is not
        serializable and is represented only by its aggregation rule)."""
        return {
            "name": self.name,
            "dtype": self.dtype,
            "unit": self.unit,
            "aggregate": self.aggregate,
            "label": self.label,
            "fmt": self.fmt,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MetricColumn":
        return cls(
            name=str(payload["name"]),
            dtype=str(payload.get("dtype", "float")),
            unit=str(payload.get("unit", "")),
            aggregate=str(payload.get("aggregate", "mean_ci")),
            label=str(payload.get("label", "")),
            fmt=payload.get("fmt"),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class FrameView:
    """One generated table of a frame (the paper's presentation shapes).

    Without a ``pivot`` the view is a flat table: key columns followed by
    the selected metric columns.  With a ``pivot`` the named key column is
    spread across the header (workloads down the side, configurations
    across the top) showing one metric -- or several, each as its own
    labelled series row -- optionally normalised to one pivot value.
    """

    title: str
    #: Metric columns shown, in order.
    metrics: Tuple[str, ...]
    #: Key column spread across the table header.
    pivot: Optional[str] = None
    #: Pivot value whose mean normalises each row (means only; skipped
    #: when the value is absent from the frame, e.g. a restricted sweep).
    normalize_to: Optional[object] = None
    #: Display labels of the metric series under a multi-metric pivot.
    series_labels: Tuple[str, ...] = ()
    #: Header of the series-label column under a multi-metric pivot.
    series_column: str = "series"
    #: Pivot-value header: a format string (``"rate {:g}"``) or a callable;
    #: callables are presentation-only and are not serialized.
    pivot_header: Union[None, str, Callable[[object], str]] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "title": self.title,
            "metrics": list(self.metrics),
            "pivot": self.pivot,
            "normalize_to": self.normalize_to,
            "series_labels": list(self.series_labels),
            "series_column": self.series_column,
            "pivot_header": self.pivot_header if isinstance(self.pivot_header, str) else None,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "FrameView":
        return cls(
            title=str(payload["title"]),
            metrics=tuple(str(m) for m in payload.get("metrics", ())),
            pivot=payload.get("pivot"),  # type: ignore[arg-type]
            normalize_to=payload.get("normalize_to"),
            series_labels=tuple(str(s) for s in payload.get("series_labels", ())),
            series_column=str(payload.get("series_column", "series")),
            pivot_header=payload.get("pivot_header"),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class MetricSchema:
    """The declared shape of one experiment's results.

    ``keys`` name the grid axes a frame row is identified by (the seed axis
    is aggregated over and never appears); ``metrics`` declare the value
    columns; ``views`` the generated table presentations.
    """

    keys: Tuple[str, ...]
    metrics: Tuple[MetricColumn, ...]
    views: Tuple[FrameView, ...] = ()

    def __post_init__(self) -> None:
        names = [column.name for column in self.metrics]
        if len(set(names)) != len(names):
            raise ExperimentError(f"duplicate metric columns in schema: {names}")
        overlap = set(self.keys) & set(names)
        if overlap:
            raise ExperimentError(
                f"columns {sorted(overlap)} are declared as both key and metric"
            )
        for view in self.views:
            missing = [m for m in view.metrics if m not in names]
            if missing:
                raise ExperimentError(
                    f"view {view.title!r} references unknown metrics {missing}"
                )
            if view.pivot is not None and view.pivot not in self.keys:
                raise ExperimentError(
                    f"view {view.title!r} pivots on unknown key {view.pivot!r}"
                )
            if view.series_labels and len(view.series_labels) != len(view.metrics):
                raise ExperimentError(
                    f"view {view.title!r}: series_labels must match metrics"
                )

    def metric(self, name: str) -> MetricColumn:
        """One metric column by name."""
        for column in self.metrics:
            if column.name == name:
                return column
        raise ExperimentError(f"schema has no metric column named {name!r}")

    def metric_names(self) -> Tuple[str, ...]:
        return tuple(column.name for column in self.metrics)

    def to_dict(self) -> Dict[str, object]:
        return {
            "keys": list(self.keys),
            "metrics": [column.to_dict() for column in self.metrics],
            "views": [view.to_dict() for view in self.views],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "MetricSchema":
        return cls(
            keys=tuple(str(k) for k in payload.get("keys", ())),
            metrics=tuple(
                MetricColumn.from_dict(m) for m in payload.get("metrics", ())
            ),
            views=tuple(FrameView.from_dict(v) for v in payload.get("views", ())),
        )


# ===================================================================== #
# The frame
# ===================================================================== #


@dataclass
class ResultFrame:
    """An aggregated, schema-typed result table.

    Each row maps every key column to its scalar value and every metric
    column to its aggregated cell (a scalar, or a
    :class:`~repro.common.stats.ConfidenceInterval` for ``mean_ci``
    columns).  Row order is the first-seen sample order, which the
    assembler inherits from job enumeration order -- so frames are
    deterministic and byte-stable across runner backends.
    """

    name: str
    title: str
    schema: MetricSchema
    rows: List[Dict[str, CellValue]] = field(default_factory=list)

    # ------------------------------------------------------------------ #
    # Assembly (the one generic fold over runner output)
    # ------------------------------------------------------------------ #

    @classmethod
    def assemble(
        cls,
        schema: MetricSchema,
        samples: Iterable[Tuple[Tuple[object, ...], Mapping[str, object]]],
        *,
        name: str,
        title: str = "",
    ) -> "ResultFrame":
        """Fold ``(key tuple, values)`` samples into an aggregated frame.

        Samples are grouped by key tuple in first-seen order; each group is
        traversed **once**, batching every metric's sample list in a single
        pass, and then aggregated per the schema's rules.  A sample may
        carry only a subset of the metrics (the single-OS study merges two
        measurement kinds into one row); missing metrics simply contribute
        no sample.  ``derive`` columns are computed last, from the
        aggregated row.
        """
        groups: Dict[Tuple[object, ...], Dict[str, List[object]]] = {}
        metric_names = schema.metric_names()
        for key, values in samples:
            if len(key) != len(schema.keys):
                raise ExperimentError(
                    f"sample key {key!r} does not match schema keys {schema.keys!r}"
                )
            group = groups.get(key)
            if group is None:
                group = groups[key] = {}
            # One pass per sample: append to every present metric's batch.
            for metric in metric_names:
                if metric in values:
                    group.setdefault(metric, []).append(values[metric])

        frame = cls(name=name, title=title, schema=schema)
        for key, batches in groups.items():
            row: Dict[str, CellValue] = dict(zip(schema.keys, key))
            derived: List[MetricColumn] = []
            for column in schema.metrics:
                if column.aggregate == "derive":
                    derived.append(column)
                    continue
                row[column.name] = _aggregate(column, batches.get(column.name, []))
            for column in derived:
                if column.derive is None:
                    raise ExperimentError(
                        f"derive column {column.name!r} has no derive callable"
                    )
                row[column.name] = column.derive(row)
            frame.rows.append(row)
        return frame

    # ------------------------------------------------------------------ #
    # Lookup helpers
    # ------------------------------------------------------------------ #

    def key_of(self, row: Mapping[str, CellValue]) -> Tuple[object, ...]:
        """A row's key tuple, in schema key order."""
        return tuple(row[key] for key in self.schema.keys)

    def axis_values(self, key: str) -> Tuple[object, ...]:
        """Ordered distinct values of one key column."""
        if key not in self.schema.keys:
            raise ExperimentError(f"frame {self.name!r} has no key column {key!r}")
        return tuple(dict.fromkeys(row[key] for row in self.rows))

    def select(self, **keys: object) -> List[Dict[str, CellValue]]:
        """Rows whose key columns match every given value."""
        return [
            row
            for row in self.rows
            if all(row.get(name) == value for name, value in keys.items())
        ]

    def value(self, metric: str, **keys: object) -> CellValue:
        """The single cell of ``metric`` at the given key coordinates."""
        self.schema.metric(metric)  # unknown names raise ExperimentError
        matches = self.select(**keys)
        if len(matches) != 1:
            raise ExperimentError(
                f"frame {self.name!r}: {len(matches)} rows match {keys!r} "
                "(expected exactly one)"
            )
        return matches[0][metric]

    def mean_of(self, metric: str, **keys: object) -> float:
        """The numeric mean of one cell (CI cells collapse to their mean)."""
        return _numeric(self.value(metric, **keys))

    # ------------------------------------------------------------------ #
    # Generated rendering
    # ------------------------------------------------------------------ #

    def to_table(self) -> str:
        """Every generated table of this frame, joined for printing."""
        views = self.schema.views or (
            FrameView(title=self.title or self.name, metrics=self.schema.metric_names()),
        )
        return "\n\n".join(self._render_view(view) for view in views)

    def _render_view(self, view: FrameView) -> str:
        if view.pivot is None:
            return self._render_flat(view)
        return self._render_pivot(view)

    def _render_flat(self, view: FrameView) -> str:
        columns = [self.schema.metric(name) for name in view.metrics]
        table = TextTable(
            [*self.schema.keys, *[_header(column) for column in columns]],
            title=view.title,
        )
        for row in self.rows:
            cells: List[object] = [row[key] for key in self.schema.keys]
            cells += [_cell_text(column, row[column.name]) for column in columns]
            table.add_row(cells)
        return table.render()

    def _render_pivot(self, view: FrameView) -> str:
        pivot_values = self.axis_values(view.pivot)
        row_keys = [key for key in self.schema.keys if key != view.pivot]
        groups: Dict[Tuple[object, ...], Dict[object, Dict[str, CellValue]]] = {}
        for row in self.rows:
            group_key = tuple(row[key] for key in row_keys)
            groups.setdefault(group_key, {})[row[view.pivot]] = row

        headers = [str(_pivot_header(view, value)) for value in pivot_values]
        multi = len(view.metrics) > 1
        rows: List[List[object]] = []
        unnormalised = False
        for group_key, by_pivot in groups.items():
            for index, metric in enumerate(view.metrics):
                column = self.schema.metric(metric)
                # None is preserved (absent row / missing metric renders
                # "-"), never coerced to 0 -- a zero cell is data, a hole
                # is not.
                values: Dict[object, Optional[float]] = {}
                for pivot, row in by_pivot.items():
                    cell = row.get(metric)
                    values[pivot] = None if cell is None else _numeric(cell)
                raw_row = False
                if view.normalize_to is not None:
                    baseline = values.get(view.normalize_to)
                    if baseline:
                        values = {
                            p: (None if v is None else v / baseline)
                            for p, v in values.items()
                        }
                    else:
                        # No usable baseline in this group (restricted
                        # sweep, or a zero cell): showing raw numbers is
                        # better than hiding them, but the row must say
                        # they are NOT the normalised ratios the title
                        # promises.  The marker is per row -- other groups
                        # may normalise fine.
                        raw_row = unnormalised = True
                label = (
                    view.series_labels[index]
                    if index < len(view.series_labels)
                    else column.display
                )
                cells: List[object] = list(group_key)
                if raw_row and cells:
                    cells[0] = f"{cells[0]} *"
                if multi:
                    cells.append(label)
                for pivot in pivot_values:
                    value = values.get(pivot)
                    if value is None:
                        cells.append("-")
                    elif column.fmt and view.normalize_to is None:
                        cells.append(column.fmt.format(value))
                    else:
                        cells.append(value)
                rows.append(cells)
        title = view.title
        if unnormalised:
            title += (
                f" [* rows NOT normalised: baseline {view.normalize_to!r} unavailable]"
            )
        table = TextTable(
            [*row_keys, *([view.series_column] if multi else []), *headers],
            title=title,
        )
        for cells in rows:
            table.add_row(cells)
        return table.render()

    # ------------------------------------------------------------------ #
    # Canonical serialization and export
    # ------------------------------------------------------------------ #

    def to_json(self) -> Dict[str, object]:
        """The canonical JSON-safe document of this frame.

        Byte-stable: ``ResultFrame.from_json(frame.to_json()).to_json()``
        serializes identically (asserted by the round-trip tests).
        """
        return {
            "frame_version": FRAME_SCHEMA_VERSION,
            "name": self.name,
            "title": self.title,
            "schema": self.schema.to_dict(),
            "rows": [
                {
                    column: _cell_to_json(value)
                    for column, value in row.items()
                }
                for row in self.rows
            ],
            "fidelity": _FIDELITY,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "ResultFrame":
        """Rebuild a frame from :meth:`to_json` output.

        A structurally malformed payload raises :class:`ExperimentError`
        (never a bare ``KeyError``/``TypeError``), so callers like
        ``repro diff`` can distinguish bad input from real drift.
        """
        version = payload.get("frame_version")
        if version != FRAME_SCHEMA_VERSION:
            raise ExperimentError(
                f"unsupported frame version {version!r} "
                f"(this build reads version {FRAME_SCHEMA_VERSION})"
            )
        schema_payload = payload.get("schema")
        if not isinstance(schema_payload, Mapping):
            raise ExperimentError("frame payload has no 'schema' mapping")
        try:
            schema = MetricSchema.from_dict(schema_payload)
        except (KeyError, TypeError, ValueError) as error:
            raise ExperimentError(f"malformed frame schema: {error}") from None
        frame = cls(
            name=str(payload.get("name", "")),
            title=str(payload.get("title", "")),
            schema=schema,
        )
        rows_payload = payload.get("rows", ())
        if not isinstance(rows_payload, Sequence) or isinstance(rows_payload, (str, bytes)):
            raise ExperimentError("frame payload has no 'rows' list")
        for row_payload in rows_payload:
            if not isinstance(row_payload, Mapping):
                raise ExperimentError("frame row is not an object")
            row: Dict[str, CellValue] = {}
            for column, value in row_payload.items():
                row[column] = _cell_from_json(value)
            frame.rows.append(row)
        return frame

    def to_csv(self) -> str:
        """A CSV rendering generated from the schema (wide format).

        ``mean_ci`` columns expand to ``<name>_mean``, ``<name>_ci95`` and
        ``<name>_n``; every other column is one field.
        """
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        header: List[str] = list(self.schema.keys)
        for column in self.schema.metrics:
            if column.aggregate == "mean_ci":
                header += [f"{column.name}_mean", f"{column.name}_ci95", f"{column.name}_n"]
            else:
                header.append(column.name)
        writer.writerow(header)
        for row in self.rows:
            cells: List[object] = [row[key] for key in self.schema.keys]
            for column in self.schema.metrics:
                value = row.get(column.name)
                if column.aggregate == "mean_ci":
                    ci = value if isinstance(value, ConfidenceInterval) else None
                    cells += (
                        [ci.mean, ci.half_width, ci.count]
                        if ci is not None
                        else ["", "", ""]
                    )
                else:
                    cells.append("" if value is None else value)
            writer.writerow(cells)
        return buffer.getvalue()


# ===================================================================== #
# Aggregation and cell plumbing
# ===================================================================== #


def _aggregate(column: MetricColumn, batch: Sequence[object]) -> CellValue:
    """Fold one metric's sample batch per its aggregation rule."""
    if column.aggregate == "mean_ci":
        return confidence_interval_95(float(v) for v in batch)
    if column.aggregate == "mean":
        return mean(float(v) for v in batch)
    if column.aggregate == "sum":
        total = left_sum(batch)
        return int(total) if column.dtype == "int" else total
    if column.aggregate == "last":
        return batch[-1] if batch else None
    raise ExperimentError(f"unknown aggregate {column.aggregate!r}")


def _numeric(value: CellValue) -> float:
    """Collapse a cell to its numeric value (CI cells to their mean)."""
    if isinstance(value, ConfidenceInterval):
        return value.mean
    if value is None:
        return 0.0
    return float(value)  # type: ignore[arg-type]


def _header(column: MetricColumn) -> str:
    return f"{column.display} ({column.unit})" if column.unit else column.display


def _cell_text(column: MetricColumn, value: CellValue) -> object:
    if value is None:
        return "-"
    if isinstance(value, ConfidenceInterval):
        return column.fmt.format(value.mean) if column.fmt else str(value)
    if column.fmt and isinstance(value, (int, float)) and not isinstance(value, bool):
        return column.fmt.format(value)
    return value


def _pivot_header(view: FrameView, value: object) -> str:
    if callable(view.pivot_header):
        return view.pivot_header(value)
    if isinstance(view.pivot_header, str):
        return view.pivot_header.format(value)
    return str(value)


def _cell_to_json(value: CellValue) -> object:
    if isinstance(value, ConfidenceInterval):
        return {
            "mean": value.mean,
            "half_width": value.half_width,
            "count": value.count,
        }
    return value


def _cell_from_json(value: object) -> CellValue:
    if isinstance(value, Mapping) and set(value) == {"mean", "half_width", "count"}:
        return ConfidenceInterval(
            mean=float(value["mean"]),
            half_width=float(value["half_width"]),
            count=int(value["count"]),
        )
    return value  # type: ignore[return-value]


# ===================================================================== #
# Baseline diffing
# ===================================================================== #


@dataclass(frozen=True)
class FrameDrift:
    """One difference between a baseline frame and a current frame."""

    frame: str
    kind: str  # missing-frame / extra-frame / schema-mismatch /
    #           missing-row / extra-row / value-drift
    detail: str

    def __str__(self) -> str:
        return f"[{self.frame}] {self.kind}: {self.detail}"


#: Two numeric cells match when ``math.isclose`` at these tolerances; the
#: one comparison ``repro diff`` and ``repro compare`` make.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def _close(baseline: float, current: float) -> bool:
    return math.isclose(baseline, current, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def _cells_close(baseline: CellValue, current: CellValue) -> bool:
    if isinstance(baseline, ConfidenceInterval) or isinstance(
        current, ConfidenceInterval
    ):
        if not (
            isinstance(baseline, ConfidenceInterval)
            and isinstance(current, ConfidenceInterval)
        ):
            return False
        return (
            baseline.count == current.count
            and _close(baseline.mean, current.mean)
            and _close(baseline.half_width, current.half_width)
        )
    if isinstance(baseline, bool) or isinstance(current, bool):
        return baseline == current
    if isinstance(baseline, (int, float)) and isinstance(current, (int, float)):
        return _close(float(baseline), float(current))
    return baseline == current


def diff_frames(baseline: ResultFrame, current: ResultFrame) -> List[FrameDrift]:
    """Compare two frames of the same experiment, within tolerances.

    Reports schema mismatches, rows present on only one side, and every
    metric cell whose values differ by more than :data:`REL_TOL` and
    :data:`ABS_TOL`.
    Returns an empty list when the frames agree.
    """
    drifts: List[FrameDrift] = []
    if baseline.schema.keys != current.schema.keys or set(
        baseline.schema.metric_names()
    ) != set(current.schema.metric_names()):
        drifts.append(
            FrameDrift(
                frame=baseline.name,
                kind="schema-mismatch",
                detail=(
                    f"baseline {baseline.schema.keys}/{baseline.schema.metric_names()} "
                    f"vs current {current.schema.keys}/{current.schema.metric_names()}"
                ),
            )
        )
        return drifts

    current_rows = {current.key_of(row): row for row in current.rows}
    seen = set()
    for row in baseline.rows:
        key = baseline.key_of(row)
        label = "/".join(f"{k}={v}" for k, v in zip(baseline.schema.keys, key))
        other = current_rows.get(key)
        if other is None:
            drifts.append(
                FrameDrift(frame=baseline.name, kind="missing-row", detail=label)
            )
            continue
        seen.add(key)
        for metric in baseline.schema.metric_names():
            if not _cells_close(row.get(metric), other.get(metric)):
                drifts.append(
                    FrameDrift(
                        frame=baseline.name,
                        kind="value-drift",
                        detail=(
                            f"{label} {metric}: baseline={row.get(metric)} "
                            f"current={other.get(metric)}"
                        ),
                    )
                )
    for key in current_rows:
        if key not in seen:
            label = "/".join(f"{k}={v}" for k, v in zip(current.schema.keys, key))
            drifts.append(
                FrameDrift(frame=baseline.name, kind="extra-row", detail=label)
            )
    return drifts


def diff_documents(
    baseline: Mapping[str, ResultFrame], current: Mapping[str, ResultFrame]
) -> List[FrameDrift]:
    """Compare two ``{experiment: frame}`` documents frame by frame."""
    drifts: List[FrameDrift] = []
    for name, frame in baseline.items():
        if name not in current:
            drifts.append(
                FrameDrift(frame=name, kind="missing-frame", detail="not in current run")
            )
            continue
        drifts += diff_frames(frame, current[name])
    for name in current:
        if name not in baseline:
            drifts.append(
                FrameDrift(frame=name, kind="extra-frame", detail="not in baseline")
            )
    return drifts


# ===================================================================== #
# Multi-frame documents and export
# ===================================================================== #

#: Document tag of the canonical multi-frame serialization.
DOCUMENT_FORMAT = "repro-results"


def frames_document(
    frames: Mapping[str, ResultFrame],
    settings: Optional[Mapping[str, object]] = None,
) -> Dict[str, object]:
    """The canonical JSON document of a whole run (``run-all --json``).

    ``settings`` (a plain JSON-safe mapping, typically
    ``dataclasses.asdict(ExperimentSettings)``) is embedded so that
    ``repro diff`` can re-run the exact same evaluation.  ``run-all
    --json`` (local or with ``--coordinator``), ``export --format json``
    and ``perfbench`` all build their document here.
    """
    return {
        "format": DOCUMENT_FORMAT,
        "frame_version": FRAME_SCHEMA_VERSION,
        "settings": (
            {**settings, "fidelity": _FIDELITY} if settings is not None else None
        ),
        "frames": {name: frame.to_json() for name, frame in frames.items()},
    }


def document_frames(payload: Mapping[str, object]) -> Dict[str, ResultFrame]:
    """Rebuild the ``{experiment: frame}`` mapping of a document."""
    if payload.get("format") != DOCUMENT_FORMAT:
        raise ExperimentError(
            f"not a {DOCUMENT_FORMAT} document (format={payload.get('format')!r})"
        )
    frames_payload = payload.get("frames")
    if not isinstance(frames_payload, Mapping):
        raise ExperimentError("document has no 'frames' mapping")
    return {
        str(name): ResultFrame.from_json(frame)
        for name, frame in frames_payload.items()
    }


def frames_to_csv(frames: Mapping[str, ResultFrame]) -> str:
    """Export several frames as one tidy (long-format) CSV stream.

    Uniform columns whatever the mix of schemas: the experiment name, the
    row's key coordinates (``axis=value`` pairs joined with ``;``), the
    metric, its unit and aggregation rule, and the value (mean, CI
    half-width and sample count for ``mean_ci`` cells).
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["experiment", "key", "metric", "unit", "aggregate", "value", "ci95", "n"]
    )
    for name, frame in frames.items():
        for row in frame.rows:
            key = ";".join(
                f"{axis}={row[axis]}" for axis in frame.schema.keys
            )
            for column in frame.schema.metrics:
                value = row.get(column.name)
                if isinstance(value, ConfidenceInterval):
                    cells = [value.mean, value.half_width, value.count]
                else:
                    cells = ["" if value is None else value, "", ""]
                writer.writerow(
                    [name, key, column.name, column.unit, column.aggregate, *cells]
                )
    return buffer.getvalue()
