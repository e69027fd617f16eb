"""Task/job data model, CSV ingestion and stratified splitting.

Tasks arrive as one CSV row per task (submission-time metadata, optionally
pre-assigned class labels); job profiles arrive in a second CSV keyed by
TASK_ID. Malformed rows are collected into a parse report instead of being
silently dropped, so operational exports with a few bad lines still load.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Optional, Sequence

import numpy as np

from .discretize import TARGET_NAMES

UNKNOWN_INDEX = 0
UNKNOWN_TOKEN = "<UNK>"

TASK_COLUMNS = {
    "task_id": "TASK_ID",
    "processing_type": "PROCESSINGTYPE",
    "framework": "FRAMEWORK",
    "core_count": "NCORE",
    "n_input": "NINPUT",
    "n_files": "NFILES",
    "n_events": "NEVENTS",
}
CLASS_COLUMNS = {target: f"{target}_CLASS" for target in TARGET_NAMES}
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

CATEGORICAL_FEATURES = ("processing_type", "framework")
NUMERIC_FEATURES = ("core_count", "n_input", "n_files", "n_events")


class SchemaError(ValueError):
    """The file is missing a mandatory column, or an all-or-nothing file holds a bad value."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
        return None


@dataclass(frozen=True)
class RowError:
    row_index: int      # 0-based data-row index (header excluded)
    kind: str           # "non-numeric" | "invariant" | "duplicate-id" | "missing-value"
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
    """Parsed task records with optional class labels and categorical vocabularies.

    ``labels`` maps a target name to an int array aligned with ``records``
    (-1 where the label is unknown). Vocabularies reserve index 0 for
    unseen tokens; known tokens are numbered from 1 in sorted order.
    """

    records: list[TaskRecord]
    vocabularies: dict[str, dict[str, int]]
    labels: dict[str, np.ndarray] = field(default_factory=dict)
    report: Optional[ParseReport] = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TaskRecord]:
        return iter(self.records)

    def subset(self, indices: Sequence[int]) -> "Dataset":
        idx = list(indices)
        return Dataset(
            records=[self.records[i] for i in idx],
            vocabularies=self.vocabularies,
            labels={k: v[idx] for k, v in self.labels.items()},
        )

    def with_labels(self, labels: Mapping[str, np.ndarray]) -> "Dataset":
        merged = dict(self.labels)
        for name, values in labels.items():
            arr = np.asarray(values, dtype=np.int64)
            if arr.shape != (len(self.records),):
                raise ValueError(f"label column {name} must have one entry per record")
            merged[name] = arr
        return Dataset(records=self.records, vocabularies=self.vocabularies, labels=merged)


def build_vocabularies(records: Sequence[TaskRecord]) -> dict[str, dict[str, int]]:
    """Token -> index maps with index 0 reserved for out-of-vocabulary tokens."""
    vocabs: dict[str, dict[str, int]] = {}
    for feature in CATEGORICAL_FEATURES:
        tokens = sorted({getattr(r, feature) for r in records})
        vocabs[feature] = {UNKNOWN_TOKEN: UNKNOWN_INDEX}
        for i, tok in enumerate(tokens, start=1):
            vocabs[feature][tok] = i
    return vocabs


def _require_columns(header: Sequence[str], wanted: Mapping[str, str], path: Path) -> None:
    missing = [col for col in wanted.values() if col not in header]
    if missing:
        raise SchemaError(f"{path}: missing mandatory column(s) {', '.join(missing)}")


def _parse_int(raw: Optional[str], column: str) -> int:
    if raw is None or raw.strip() == "":
        raise ValueError(f"missing value in column {column}")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"non-numeric value {raw!r} in column {column}") from None
    if not np.isfinite(value) or value != int(value):
        raise ValueError(f"non-numeric value {raw!r} in column {column} (integer expected)")
    return int(value)


def _parse_float(raw: Optional[str], column: str) -> float:
    if raw is None or raw.strip() == "":
        raise ValueError(f"missing value in column {column}")
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"non-numeric value {raw!r} in column {column}") from None
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {raw!r} in column {column}")
    return value


def parse_task_csv(path: str | Path) -> Dataset:
    """Parse a task CSV into a Dataset, collecting malformed rows in the report.

    Class-label columns are read when present.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, header row required")
        _require_columns(reader.fieldnames, TASK_COLUMNS, path)
        present_class_cols = {
            target: col for target, col in CLASS_COLUMNS.items()
            if col in reader.fieldnames
        }

        report = ParseReport()
        records: list[TaskRecord] = []
        labels: dict[str, list[int]] = {t: [] for t in present_class_cols}
        seen_ids: set[str] = set()

        for i, row in enumerate(reader):
            report.n_rows += 1
            try:
                record = TaskRecord(
                    task_id=(row["TASK_ID"] or "").strip(),
                    processing_type=(row["PROCESSINGTYPE"] or "").strip(),
                    framework=(row["FRAMEWORK"] or "").strip(),
                    core_count=_parse_int(row["NCORE"], "NCORE"),
                    n_input=_parse_int(row["NINPUT"], "NINPUT"),
                    n_files=_parse_int(row["NFILES"], "NFILES"),
                    n_events=_parse_int(row["NEVENTS"], "NEVENTS"),
                )
                row_labels = {
                    t: (_parse_int(row[col], col) if row[col] not in ("", None) else -1)
                    for t, col in present_class_cols.items()
                }
            except ValueError as exc:
                kind = "non-numeric" if "non-numeric" in str(exc) else "missing-value"
                report.errors.append(RowError(i, kind, str(exc)))
                continue

            problem = record.validate()
            if problem is not None:
                report.errors.append(RowError(i, "invariant", problem))
                continue
            if record.task_id in seen_ids:
                report.errors.append(RowError(i, "duplicate-id", f"duplicate task_id {record.task_id}"))
                continue

            seen_ids.add(record.task_id)
            records.append(record)
            for t in present_class_cols:
                labels[t].append(row_labels[t])
            report.n_parsed += 1

    dataset = Dataset(records=records, vocabularies=build_vocabularies(records), report=report)
    if present_class_cols:
        dataset = dataset.with_labels(
            {t: np.asarray(vals, dtype=np.int64) for t, vals in labels.items()}
        )
        dataset.report = report
    return dataset


def write_task_csv(dataset: Dataset, path: str | Path) -> None:
    """Inverse of parse_task_csv; label columns are written when present."""
    path = Path(path)
    label_targets = [t for t in CLASS_COLUMNS if t in dataset.labels]
    header = list(TASK_COLUMNS.values()) + [CLASS_COLUMNS[t] for t in label_targets]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i, rec in enumerate(dataset.records):
            row = [rec.task_id, rec.processing_type, rec.framework,
                   rec.core_count, rec.n_input, rec.n_files, rec.n_events]
            row += [int(dataset.labels[t][i]) for t in label_targets]
            writer.writerow(row)


def parse_job_csv(path: str | Path) -> tuple[list[JobProfile], ParseReport]:
    """Parse the auxiliary job-profile CSV."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise SchemaError(f"{path}: empty file, header row required")
        _require_columns(reader.fieldnames, JOB_COLUMNS, path)

        report = ParseReport()
        jobs: list[JobProfile] = []
        for i, row in enumerate(reader):
            report.n_rows += 1
            try:
                job = JobProfile(
                    task_id=(row["TASK_ID"] or "").strip(),
                    max_pss=_parse_float(row["MAXPSS_MB"], "MAXPSS_MB"),
                    start_time=_parse_float(row["STARTTIME"], "STARTTIME"),
                    end_time=_parse_float(row["ENDTIME"], "ENDTIME"),
                    core_power=_parse_float(row["COREPOWER"], "COREPOWER"),
                    n_events_job=_parse_int(row["NEVENTS_JOB"], "NEVENTS_JOB"),
                    input_bytes=_parse_float(row["INPUT_BYTES"], "INPUT_BYTES"),
                    output_bytes=_parse_float(row["OUTPUT_BYTES"], "OUTPUT_BYTES"),
                    core_count=_parse_int(row["CORECOUNT"], "CORECOUNT"),
                    is_scout=(row["IS_SCOUT"] or "").strip().lower() in ("1", "true", "yes"),
                )
            except ValueError as exc:
                kind = "non-numeric" if "non-numeric" in str(exc) else "missing-value"
                report.errors.append(RowError(i, kind, str(exc)))
                continue
            problem = job.validate()
            if problem is not None:
                report.errors.append(RowError(i, "invariant", problem))
                continue
            jobs.append(job)
            report.n_parsed += 1
    return jobs, report


def write_job_csv(jobs: Sequence[JobProfile], path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(JOB_COLUMNS.values()))
        for j in jobs:
            writer.writerow([
                j.task_id, repr(float(j.max_pss)), repr(float(j.start_time)),
                repr(float(j.end_time)), repr(float(j.core_power)), j.n_events_job,
                repr(float(j.input_bytes)), repr(float(j.output_bytes)),
                j.core_count, int(j.is_scout),
            ])


@dataclass(frozen=True)
class SplitSpec:
    """Three-way split configuration: (train, val) carved out of the 85% pool."""

    train_val_fraction: float = 0.85
    test_fraction: float = 0.15
    val_fraction_of_train_val: float = 0.15
    seed: int = 0
    stratify_on: str = "RAMCOUNT"

    def __post_init__(self) -> None:
        for frac in (self.train_val_fraction, self.test_fraction, self.val_fraction_of_train_val):
            if not 0.0 < frac < 1.0:
                raise ValueError("split fractions must lie in (0, 1)")
        if abs(self.train_val_fraction + self.test_fraction - 1.0) > 1e-9:
            raise ValueError("train_val_fraction + test_fraction must equal 1")


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
