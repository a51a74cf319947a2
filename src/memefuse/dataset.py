"""Loading, validation, summarizing and splitting of meme records.

The annotation file is CSV or JSON-lines.  Column names and the
raw-label -> class mapping are not hard-coded: both come from a schema
config (JSON), because the source labels carry more levels than the
classifier's classes and the collapse belongs in reviewable config.

A command that needs one part of a split holds only that part's
records: ``count_records`` checks and counts every row, splitting
``range(n)`` deals out the part's data-row positions, and
``records_at`` reads the file again and builds the records at them.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from . import TASKS, TASK_CLASSES


class SchemaError(ValueError):
    """The file or schema config does not match the declared layout."""


class RowError(ValueError):
    """A single row is malformed; carries the 0-based data row index."""

    def __init__(self, row_index: int, message: str):
        super().__init__(f"row {row_index}: {message}")
        self.row_index = row_index


LOGICAL_COLUMNS = ("id", "text") + TASKS


def _strings(value, where: str) -> dict:
    """``value`` itself when it is a mapping of strings to strings."""
    if not isinstance(value, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in value.items()):
        raise SchemaError(f"schema {where} must be an object of strings, got {value!r}")
    return value


DEFAULT_COLUMNS = {
    "id": "image_name",
    "text": "text",
    "humor": "humour",
    "sarcasm": "sarcasm",
    "motivation": "motivational",
    "sentiment": "overall_sentiment",
}


@dataclass(frozen=True)
class MemeRecord:
    id: str
    text: str
    labels: dict[str, str]  # task -> class, collapsed through the schema's tables


@dataclass
class DatasetSplit:
    train: list  # the split's items: records, or the positions of a range
    test: list


@dataclass
class Schema:
    """Column remapping plus the per-task raw-label -> class tables.

    ``labels[task]`` is ordered; summaries print raw levels in this
    order, so the config also fixes presentation.
    """

    columns: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_COLUMNS))
    labels: dict[str, dict[str, str]] = field(default_factory=dict)

    def __post_init__(self):
        missing = [c for c in LOGICAL_COLUMNS if c not in self.columns]
        if missing:
            raise SchemaError(f"schema lacks column mapping for {missing}")
        if not isinstance(self.labels, dict):
            raise SchemaError(f"schema labels must be an object, got {self.labels!r}")
        for task in TASKS:
            if task not in self.labels:
                raise SchemaError(f"schema lacks label mapping for task {task!r}")
            for raw, mapped in _strings(self.labels[task], f"labels.{task}").items():
                if mapped not in TASK_CLASSES[task]:
                    raise SchemaError(
                        f"label table {task!r} maps {raw!r} to unknown class {mapped!r}"
                    )

    @classmethod
    def from_json(cls, path: str | Path) -> "Schema":
        with open(path, encoding="utf-8-sig") as fh:
            try:
                spec = json.load(fh)
            except (ValueError, RecursionError) as exc:
                raise SchemaError(f"{path}: schema is not JSON ({exc})") from exc
        if not isinstance(spec, dict):
            raise SchemaError(f"schema top level must be an object, got {spec!r}")
        columns = dict(DEFAULT_COLUMNS)
        columns.update(_strings(spec.get("columns", {}), "columns"))
        return cls(columns=columns, labels=spec.get("labels", {}))


def _iter_rows(path: str | Path, schema: Schema) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield (row_index, logical-column dict) for every data row.

    Checks the physical header once; a missing declared column raises
    SchemaError naming the column.
    """
    path = Path(path)
    if path.suffix.lower() in (".jsonl", ".json", ".ndjson"):
        yield from _iter_jsonl(path, schema)
        return
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
        except csv.Error as exc:
            raise SchemaError(f"unreadable CSV header: {exc}") from exc
        # a repeated name reads its last column, csv.DictReader's rule
        position = {name: at for at, name in enumerate(header)}
        picks = []
        for logical in LOGICAL_COLUMNS:
            actual = schema.columns[logical]
            if actual not in position:
                raise SchemaError(f"file is missing declared column {actual!r}")
            picks.append((logical, position[actual]))
        width = max(at for _, at in picks) + 1
        rows = filter(None, reader)  # blank lines are skipped and not counted
        for index in itertools.count():
            try:
                row = next(rows)
            except StopIteration:
                return
            except csv.Error as exc:  # e.g. a field over the csv module's size limit
                raise RowError(index, f"unreadable CSV row: {exc}") from exc
            if len(row) >= width:
                yield index, {logical: row[at] for logical, at in picks}
            else:  # a short row's absent columns read as missing JSON keys do
                present = {name: row[at] for name, at in position.items() if at < len(row)}
                yield index, _pick_row(index, present, schema)


def _iter_jsonl(path: Path, schema: Schema) -> Iterator[tuple[int, dict[str, str]]]:
    with open(path, encoding="utf-8-sig") as fh:
        for index, line in enumerate(ln for ln in fh if ln.strip()):
            try:
                row = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise RowError(index, f"invalid JSON: {exc}") from exc
            if not isinstance(row, dict):
                raise RowError(index, "expected a JSON object")
            for logical in LOGICAL_COLUMNS:
                actual = schema.columns[logical]
                if actual not in row and logical != "text":
                    raise SchemaError(f"file is missing declared column {actual!r}")
            yield index, _pick_row(index, row, schema)


def _pick_row(index: int, row: dict, schema: Schema) -> dict[str, str]:
    out = {}
    for logical in LOGICAL_COLUMNS:
        value = row.get(schema.columns[logical])
        if value is None:
            if logical == "text":
                value = ""
            else:
                raise RowError(index, f"missing value for column {schema.columns[logical]!r}")
        out[logical] = str(value)
    return out


def _checked_rows(path: str | Path, schema: Schema) -> Iterator[tuple[int, dict[str, str]]]:
    """Yield (row_index, logical-column dict) for every data row that has a
    non-empty, unique id and a raw label in its task's table for every task;
    the first row that does not raises RowError with its index."""
    seen: set[str] = set()
    for index, row in _iter_rows(path, schema):
        rid = row["id"]
        if not rid:
            raise RowError(index, "empty id")
        if rid in seen:
            raise RowError(index, f"duplicate id {rid!r}")
        seen.add(rid)
        for task in TASKS:
            if row[task] not in schema.labels[task]:
                raise RowError(index, f"unmappable {task} label {row[task]!r}")
        yield index, row


def _record(row: dict[str, str], schema: Schema) -> MemeRecord:
    labels = {task: schema.labels[task][row[task]] for task in TASKS}
    return MemeRecord(id=row["id"], text=row["text"], labels=labels)


def load_dataset(path: str | Path, schema: Schema) -> list[MemeRecord]:
    """Read the annotation file into validated records.

    Raw labels are collapsed through the schema's label tables; a raw
    value absent from its table fails with the offending row index.
    """
    return [_record(row, schema) for _, row in _checked_rows(path, schema)]


def count_records(path: str | Path, schema: Schema) -> int:
    """The number of data rows, every row checked as load_dataset checks it."""
    return sum(1 for _ in _checked_rows(path, schema))


def records_at(path: str | Path, schema: Schema, positions: Sequence[int],
               rows: int) -> list[MemeRecord]:
    """The records at 0-based data-row ``positions``, in that order.

    The file is read and checked once more, and the records of the other
    rows are never built, so a caller that keeps part of a file holds only
    that part.  ``rows`` is the count an earlier read found
    (``count_records``), which ``positions`` were drawn from: a read that
    finds another count, or a row that no longer passes the checks, means
    the file changed in between, and raises ValueError.
    """
    slots = {at: i for i, at in enumerate(positions)}
    records: list = [None] * len(slots)
    found = 0
    try:
        for index, row in _checked_rows(path, schema):
            found = index + 1
            if index in slots:
                records[slots[index]] = _record(row, schema)
    except (SchemaError, RowError) as exc:
        raise ValueError(f"{path} changed while it was read: {exc}") from exc
    if found != rows:
        raise ValueError(f"{path} changed while it was read: {rows} data rows, "
                         f"then {found}")
    return records


def raw_tallies(path: str | Path, schema: Schema) -> dict[str, dict[str, int]]:
    """{task: {raw level: count}} of the source labels, tasks in TASKS order
    and levels in schema order, from one pass over the file.

    This is the presentation the source table uses (raw levels, before
    the collapse), so summaries of the annotation file can be compared
    against it level by level.  Rows get load_dataset's checks, so one
    pass both validates the file and counts it: every row counts once in
    each task.
    """
    tallies = {task: {raw: 0 for raw in schema.labels[task]} for task in TASKS}
    n = 0
    for _, row in _checked_rows(path, schema):
        for task, counts in tallies.items():
            counts[row[task]] += 1
        n += 1
    if n == 0:
        raise ValueError("raw distribution of an empty file is undefined")
    return tallies


def split(records: Sequence, ratio: float, seed: int) -> DatasetSplit:
    """Seeded uniform shuffle, then cut at floor(ratio * n).

    Deterministic for a fixed seed; both splits keep the shuffled order.
    Only the count decides the order, so splitting ``range(n)`` deals out
    the data-row positions of an n-record split (``records_at`` builds the
    records at them).  numpy is imported here, where the permutation is
    drawn, so loading and counting records need no numpy.
    """
    import numpy as np

    if not 0.0 < ratio < 1.0:
        raise ValueError(f"split ratio must lie in (0, 1), got {ratio}")
    if len(records) < 2:
        raise ValueError("need at least 2 records to split")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(records))
    cut = math.floor(ratio * len(records))
    shuffled = [records[i] for i in order]
    return DatasetSplit(train=shuffled[:cut], test=shuffled[cut:])
