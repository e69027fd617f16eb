"""Task/job data model, CSV ingestion and stratified splitting.

Tasks arrive as one CSV row per task (submission-time metadata only; class
labels come from the targets and the bins, never from this file); job
profiles arrive in a second CSV keyed by TASK_ID. Malformed rows are collected
into a parse report instead of being silently dropped, so operational exports
with a few bad lines still load.
"""

from __future__ import annotations

import csv
import math
import sys
from collections import deque
from dataclasses import dataclass, field, fields
from itertools import chain, compress, islice, repeat
from pathlib import Path
from typing import ClassVar, Iterator, Mapping, Optional, Sequence, TextIO, get_type_hints

import numpy as np

# Each record format is its column table (record field -> CSV column, in
# field order) plus the field types of its dataclass; the CSV readers and
# writers here and the /predict request in ``service`` are driven by them.
TASK_COLUMNS = {
    "task_id": "TASK_ID",
    "processing_type": "PROCESSINGTYPE",
    "framework": "FRAMEWORK",
    "core_count": "NCORE",
    "n_input": "NINPUT",
    "n_files": "NFILES",
    "n_events": "NEVENTS",
}
JOB_COLUMNS = {
    "task_id": "TASK_ID",
    "max_pss": "MAXPSS_MB",
    "start_time": "STARTTIME",
    "end_time": "ENDTIME",
    "core_power": "COREPOWER",
    "n_events_job": "NEVENTS_JOB",
    "input_bytes": "INPUT_BYTES",
    "output_bytes": "OUTPUT_BYTES",
    "core_count": "CORECOUNT",
    "is_scout": "IS_SCOUT",
}


class SchemaError(ValueError):
    """The file is missing a mandatory column, or an all-or-nothing file holds a bad value."""


@dataclass(frozen=True, slots=True)
class TaskRecord:
    """Submission-time metadata for one task; these are the model inputs."""

    task_id: str
    processing_type: str
    framework: str
    core_count: int
    n_input: int
    n_files: int
    n_events: int

    def validate(self) -> Optional[str]:
        """Return an invariant-violation message, or None if the record is sound."""
        if self.core_count < 1:
            return "core_count must be >= 1"
        for name in ("n_input", "n_files", "n_events"):
            if getattr(self, name) < 0:
                return f"{name} must be non-negative"
        if self.n_input > 0 and self.n_files < self.n_input:
            return "n_files must be >= n_input when n_input > 0"
        return None


# the model inputs: the string features other than the id, then the integer ones
_TASK_TYPES = get_type_hints(TaskRecord)
CATEGORICAL_FEATURES = tuple(f for f in TASK_COLUMNS if _TASK_TYPES[f] is str and f != "task_id")
NUMERIC_FEATURES = tuple(f for f in TASK_COLUMNS if _TASK_TYPES[f] is int)


@dataclass(frozen=True, slots=True)
class JobProfile:
    """Post-execution measurements of one job."""

    task_id: str
    max_pss: float          # MB, peak resident set size
    start_time: float       # seconds since epoch
    end_time: float
    core_power: float       # HS06 per core
    n_events_job: int
    input_bytes: float
    output_bytes: float
    core_count: int
    is_scout: bool

    def validate(self) -> Optional[str]:
        if self.end_time < self.start_time:
            return "end_time must be >= start_time"
        if self.max_pss < 0:
            return "max_pss must be non-negative"
        if self.n_events_job < 0:
            return "n_events_job must be non-negative"
        if self.core_power <= 0:
            return "core_power must be positive"
        if self.core_count < 1:
            return "core_count must be >= 1"
        return None


@dataclass(frozen=True)
class RowError:
    row_index: int      # 0-based data-row index (header excluded)
    kind: str           # "non-numeric" (non-finite too) | "invariant" | "duplicate-id" | "missing-value"
    message: str


@dataclass
class ParseReport:
    n_rows: int = 0
    n_parsed: int = 0
    errors: list[RowError] = field(default_factory=list)

    @property
    def n_rejected(self) -> int:
        return len(self.errors)


@dataclass
class Dataset:
    """Parsed task records with optional class labels.

    ``labels`` maps a target name to an int array aligned with ``records``.
    """

    records: list[TaskRecord]
    labels: dict[str, np.ndarray] = field(default_factory=dict)
    report: Optional[ParseReport] = None

    def __len__(self) -> int:
        return len(self.records)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = list(indices)
        return Dataset(
            records=[self.records[i] for i in idx],
            labels={k: v[idx] for k, v in self.labels.items()},
        )

    def with_labels(self, labels: Mapping[str, np.ndarray]) -> "Dataset":
        merged = dict(self.labels)
        for name, values in labels.items():
            arr = np.asarray(values, dtype=np.int64)
            if arr.shape != (len(self.records),):
                raise ValueError(f"label column {name} must have one entry per record")
            merged[name] = arr
        return Dataset(records=self.records, labels=merged)


class CellError(ValueError):
    """A cell that does not parse as its field's type; ``kind`` is its RowError kind."""

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


def _parse_int(raw: Optional[str], column: str) -> int:
    if raw is None or raw.strip() == "":
        raise CellError("missing-value", f"missing value in column {column}")
    try:
        value = float(raw)
    except ValueError:
        raise CellError("non-numeric", f"non-numeric value {raw!r} in column {column}") from None
    if not math.isfinite(value) or value != int(value):
        raise CellError("non-numeric", f"non-numeric value {raw!r} in column {column} (integer expected)")
    return int(value)


def _parse_float(raw: Optional[str], column: str) -> float:
    if raw is None or raw.strip() == "":
        raise CellError("missing-value", f"missing value in column {column}")
    try:
        value = float(raw)
    except ValueError:
        raise CellError("non-numeric", f"non-numeric value {raw!r} in column {column}") from None
    if not math.isfinite(value):
        raise CellError("non-numeric", f"non-finite value {raw!r} in column {column}")
    return value


# how a CSV value becomes a field value, by the field's type; strings are
# interned, so a value repeated across rows and files (a task id in every job
# row, a categorical value in every task row) is kept once
_PARSERS = {
    str: lambda raw, column: sys.intern((raw or "").strip()),
    int: _parse_int,
    float: _parse_float,
    bool: lambda raw, column: (raw or "").strip().lower() in ("1", "true", "yes"),
}
# how a field value is written; other types are written as they are
_FORMATS = {float: lambda v: repr(float(v)), bool: int}
# the data lines that the CSV reader splits and converts at a time
CSV_BLOCK_LINES = 1024
# CSVs are read as UTF-8, after a byte-order mark if there is one, and written as UTF-8
CSV_ENCODING = "utf-8-sig"


def _parse_id(raw: Optional[str], column: str) -> str:
    """A task id: a string that is not empty once stripped."""
    value = _PARSERS[str](raw, column)
    if not value:
        raise CellError("missing-value", f"missing value in column {column}")
    return value


def _blocks(fh: TextIO, width: int) -> Iterator[Sequence[Sequence[Optional[str]]]]:
    """The data rows after the header, a block at a time, as ``width`` columns.

    A block without a quote, a lone carriage return or a NUL (which
    ``csv.reader`` refuses before Python 3.11), whose non-blank lines each hold
    ``width`` fields, is split on commas. Any other block goes through
    ``csv.reader``, and from the first quote on (a quoted field can span lines)
    so does the rest of the file. Either way a block's cells are those that one
    ``csv.reader`` over the file gives, without its blank rows.
    """
    limit = csv.field_size_limit()
    while lines := list(islice(fh, CSV_BLOCK_LINES)):
        text = "".join(lines).replace("\r\n", "\n")
        if '"' in text:
            yield from _transposed(csv.reader(chain(lines, fh)), width)
            return
        rows = [line for line in text.split("\n") if line]
        if not rows:
            continue
        # a line longer than the field size limit keeps csv.reader's error
        if ("\r" in text or "\0" in text or max(map(len, rows)) > limit
                or set(map(str.count, rows, repeat(","))) != {width - 1}):
            yield from _transposed(csv.reader(lines), width)
        else:
            cells = ",".join(rows).split(",")
            yield [cells[pos::width] for pos in range(width)]


def _transposed(reader: Iterator[list[str]], width: int) -> Iterator[list[tuple[Optional[str], ...]]]:
    """A ``csv.reader``'s non-blank rows, CSV_BLOCK_LINES at a time, as columns; a short row reads None past its end."""
    while block := list(islice(reader, CSV_BLOCK_LINES)):
        rows = [cells + [None] * (width - len(cells)) for cells in block if cells]
        if rows:
            yield list(zip(*rows))


def _convert(cells: Sequence[Optional[str]], parse, column: str, failed: dict[int, CellError]) -> list:
    """One column's values by ``parse``; a row whose cell fails goes into ``failed`` unless it is there already.

    The column converts in one pass: a numeric one by ``float`` with one
    finite check (and an integral one for integers), any other through a
    table of each distinct cell's value. A numeric column with at most half
    as many distinct cells as cells converts only its distinct cells and
    reads them through such a table too, so its rows share those values. If
    that pass fails, each cell is parsed on its own, so ``parse`` alone
    decides a cell's value and error.
    """
    try:
        if parse is _parse_float or parse is _parse_int:
            distinct = list(set(cells))
            shared = 2 * len(distinct) <= len(cells)
            values = list(map(float, distinct if shared else cells))
            arr = np.array(values)
            if np.isfinite(arr).all() and (parse is _parse_float or (np.trunc(arr) == arr).all()):
                if parse is _parse_int:
                    values = list(map(int, values))
                if not shared:
                    return values
                table = dict(zip(distinct, values))
                return list(map(table.__getitem__, cells))
        else:
            table = {raw: parse(raw, column) for raw in set(cells)}
            return list(map(table.__getitem__, cells))
    except (ValueError, TypeError):    # a CellError is a ValueError
        pass
    values = [None] * len(cells)
    for j, raw in enumerate(cells):
        try:
            values[j] = parse(raw, column)
        except CellError as exc:
            failed.setdefault(j, exc)
    return values


def _read_csv(fh: TextIO, record_type: type, columns: Mapping[str, str],
              report: ParseReport) -> Iterator[tuple[list[int], list]]:
    """An open CSV's rows, a block at a time, as (row indices, records), once its header is checked.

    A row that does not parse by field type or validate goes to ``report``,
    with the error of its first failing column in field order; a block's
    failed rows are reported before the block is yielded. Blank lines are not
    rows; a missing trailing field is a missing value; extra fields are
    ignored; a repeated column name reads its last column; an empty task id is
    a missing value. A file that ``csv`` cannot read is a SchemaError.

    ``record_type`` is a slotted dataclass. A block's records are made
    empty and then filled a field at a time, by mapping the field's slot
    descriptor over its column; this skips the frozen ``__init__`` and its
    ``object.__setattr__`` per field and row, and gives records equal to
    ``record_type(*values)``.
    """
    try:
        header = next(csv.reader(fh), None)
        if header is None:
            raise SchemaError(f"{fh.name}: empty file, header row required")
        position = {name: i for i, name in enumerate(header)}
        missing = [col for col in columns.values() if col not in position]
        if missing:
            raise SchemaError(f"{fh.name}: missing mandatory column(s) {', '.join(missing)}")
        types = get_type_hints(record_type)
        plan = [(position[columns[f.name]], _parse_id if f.name == "task_id" else _PARSERS[types[f.name]],
                 columns[f.name]) for f in fields(record_type)]
        setters = [vars(record_type)[f.name].__set__ for f in fields(record_type)]
        for cells in _blocks(fh, len(header)):
            first, n = report.n_rows, len(cells[0])
            report.n_rows += n
            failed: dict[int, CellError] = {}
            values = [_convert(cells[pos], parse, col, failed) for pos, parse, col in plan]
            errors = {j: RowError(first + j, exc.kind, str(exc)) for j, exc in failed.items()}
            kept = [j for j in range(n) if j not in errors]
            if errors:
                values = [[column[j] for j in kept] for column in values]
            records = list(map(object.__new__, repeat(record_type, len(kept))))
            for setter, column in zip(setters, values):
                deque(map(setter, records, column), maxlen=0)
            for j, problem in zip(kept, map(record_type.validate, records)):
                if problem is not None:
                    errors[j] = RowError(first + j, "invariant", problem)
            report.errors += [errors[j] for j in sorted(errors)]
            ok = [j not in errors for j in kept]
            yield [first + j for j in compress(kept, ok)], list(compress(records, ok))
    except csv.Error as exc:
        raise SchemaError(f"{fh.name}: {exc}") from None


def _write_csv(path: str | Path, record_type: type, columns: Mapping[str, str], records: Sequence) -> None:
    """One row per record, each value written by its field type."""
    types = get_type_hints(record_type)
    plan = [(f, _FORMATS.get(types[f], lambda v: v)) for f in columns]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns.values())
        writer.writerows([fmt(getattr(rec, f)) for f, fmt in plan] for rec in records)


def parse_task_csv(path: str | Path) -> Dataset:
    """Parse a task CSV into an unlabelled Dataset, collecting malformed rows in the report.

    The first row of a task id wins; later ones are duplicate-id errors.
    """
    report = ParseReport()
    records: list[TaskRecord] = []
    seen_ids: set[str] = set()
    with Path(path).open(newline="", encoding=CSV_ENCODING) as fh:
        for index, block in _read_csv(fh, TaskRecord, TASK_COLUMNS, report):
            for i, record in zip(index, block):
                if record.task_id in seen_ids:
                    report.errors.append(RowError(i, "duplicate-id", f"duplicate task_id {record.task_id}"))
                    continue
                seen_ids.add(record.task_id)
                records.append(record)
    # the reader reports a block's failed rows before it yields the block
    report.errors.sort(key=lambda error: error.row_index)
    report.n_parsed = len(records)
    return Dataset(records=records, report=report)


def write_task_csv(dataset: Dataset, path: str | Path) -> None:
    """Inverse of parse_task_csv: the records' input columns, without labels."""
    _write_csv(path, TaskRecord, TASK_COLUMNS, dataset.records)


def parse_job_csv(path: str | Path) -> tuple[list[JobProfile], ParseReport]:
    """Parse the auxiliary job-profile CSV."""
    report = ParseReport()
    with Path(path).open(newline="", encoding=CSV_ENCODING) as fh:
        jobs = [job for _, block in _read_csv(fh, JobProfile, JOB_COLUMNS, report) for job in block]
    report.n_parsed = len(jobs)
    return jobs, report


def write_job_csv(jobs: Sequence[JobProfile], path: str | Path) -> None:
    _write_csv(path, JobProfile, JOB_COLUMNS, jobs)


def group_by_task(jobs: Sequence[JobProfile]) -> dict[str, list[JobProfile]]:
    """Task id -> that task's jobs, in input order."""
    by_task: dict[str, list[JobProfile]] = {}
    for job in jobs:
        by_task.setdefault(job.task_id, []).append(job)
    return by_task


@dataclass(frozen=True)
class SplitSpec:
    """Three-way split configuration: (train, val) carved out of the 85% pool."""

    seed: int = 0
    train_val_fraction: ClassVar[float] = 0.85
    test_fraction: ClassVar[float] = 0.15
    stratify_on: ClassVar[str] = "RAMCOUNT"
    val_fraction_of_train_val: ClassVar[float] = 0.15


@dataclass
class SplitResult:
    train: Dataset
    val: Dataset
    test: Dataset
    used_random_fallback: bool = False

    def __iter__(self):
        return iter((self.train, self.val, self.test))


def _allocate(n: int, fractions: Sequence[float]) -> list[int]:
    """Largest-remainder apportionment of n items over the given fractions."""
    exact = [n * f for f in fractions]
    counts = [int(np.floor(e)) for e in exact]
    shortfall = n - sum(counts)
    remainders = sorted(range(len(fractions)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in remainders[:shortfall]:
        counts[i] += 1
    return counts


def stratified_split(dataset: Dataset, spec: SplitSpec) -> SplitResult:
    """Deterministic stratified train/val/test split on one target's labels.

    Records are sorted by task_id before shuffling so the split does not
    depend on input ordering. Classes with fewer than 3 members trigger a
    plain random split, flagged on the result.
    """
    if len(dataset) == 0:
        raise ValueError("cannot split an empty dataset")
    if spec.stratify_on not in dataset.labels:
        raise ValueError(f"dataset has no labels for {spec.stratify_on!r}")

    labels = dataset.labels[spec.stratify_on]
    if (labels < 0).any():
        raise ValueError(f"{spec.stratify_on!r} labels contain unknown entries (-1)")
    order = sorted(range(len(dataset)), key=lambda i: dataset.records[i].task_id)
    rng = np.random.default_rng(spec.seed)

    fractions = (
        spec.train_val_fraction * (1.0 - spec.val_fraction_of_train_val),
        spec.train_val_fraction * spec.val_fraction_of_train_val,
        spec.test_fraction,
    )

    classes, class_counts = np.unique(labels, return_counts=True)
    fallback = bool((class_counts < 3).any())
    # the random fallback is the same loop over one stratum holding every record
    strata = [order] if fallback else [[i for i in order if labels[i] == c] for c in classes]

    splits: tuple[list[int], list[int], list[int]] = ([], [], [])
    for members in strata:
        members = [members[i] for i in rng.permutation(len(members))]
        counts = _allocate(len(members), fractions)
        start = 0
        for bucket, count in zip(splits, counts):
            bucket.extend(members[start:start + count])
            start += count

    train_idx, val_idx, test_idx = (sorted(s) for s in splits)
    return SplitResult(
        train=dataset.subset(train_idx),
        val=dataset.subset(val_idx),
        test=dataset.subset(test_idx),
        used_random_fallback=fallback,
    )
