"""CSV parsing, round-trips and stratified splitting."""

import csv
import gc
import pickle
import random
import re
import tracemalloc
from dataclasses import FrozenInstanceError, fields, replace
from typing import get_type_hints

import numpy as np
import pytest

from respred import ingest
from respred.discretize import TARGET_NAMES
from respred.simsynth import GeneratorSpec, generate
from respred.ingest import (
    JOB_COLUMNS,
    TASK_COLUMNS,
    CellError,
    Dataset,
    JobProfile,
    ParseReport,
    RowError,
    SchemaError,
    SplitSpec,
    TaskRecord,
    parse_job_csv,
    parse_task_csv,
    stratified_split,
    write_job_csv,
    write_task_csv,
)

HEADER = "TASK_ID,PROCESSINGTYPE,FRAMEWORK,NCORE,NINPUT,NFILES,NEVENTS"


def write(tmp_path, body, name="tasks.csv"):
    path = tmp_path / name
    path.write_text(body)
    return path


def test_parse_empty_file_valid_header(tmp_path):
    ds = parse_task_csv(write(tmp_path, HEADER + "\n"))
    assert len(ds) == 0
    assert (ds.report.n_rows, ds.report.n_rejected) == (0, 0)


def test_parse_rejects_non_numeric_row(tmp_path):
    path = write(tmp_path, HEADER + "\n"
                 "t1,sim,Athena,abc,1,2,100\n"
                 "t2,sim,Athena,2,1,2,100\n")
    ds = parse_task_csv(path)
    assert len(ds) == 1
    assert ds.report.n_rejected == 1
    err = ds.report.errors[0]
    assert err.kind == "non-numeric"
    assert err.row_index == 0


def test_parse_missing_column_raises(tmp_path):
    path = write(tmp_path, "TASK_ID,PROCESSINGTYPE,FRAMEWORK,NCORE,NINPUT,NFILES\n")
    with pytest.raises(SchemaError, match="NEVENTS"):
        parse_task_csv(path)


def test_parse_missing_file():
    with pytest.raises(FileNotFoundError):
        parse_task_csv("/nonexistent/tasks.csv")


def test_parse_invariant_violations_collected(tmp_path):
    path = write(tmp_path, HEADER + "\n"
                 "t1,sim,Athena,0,1,2,100\n"     # core_count < 1
                 "t2,sim,Athena,1,5,2,100\n"     # n_files < n_input
                 "t3,sim,Athena,1,1,2,100\n"
                 "t3,sim,Athena,1,1,2,100\n")    # duplicate id
    ds = parse_task_csv(path)
    assert len(ds) == 1
    kinds = sorted(e.kind for e in ds.report.errors)
    assert kinds == ["duplicate-id", "invariant", "invariant"]


def test_parse_ignores_class_columns(tmp_path):
    # labels come from the targets and the bins, so a class column is an extra column
    path = write(tmp_path, HEADER + ",RAMCOUNT_CLASS,CPUTIME_CLASS\n"
                 "t1,sim,Athena,1,1,2,100,x,2\n"
                 "t2,sim,Athena,1,1,2,100,2.5,\n"
                 "t3,sim,Athena,1,1,2,100,,\n"
                 "t4,sim,Athena,1,1,2,100\n")
    ds = parse_task_csv(path)
    assert [r.task_id for r in ds.records] == ["t1", "t2", "t3", "t4"]
    assert ds.report.n_rejected == 0
    assert ds.labels == {}


def test_parse_job_core_count_below_one_is_invariant(tmp_path):
    header = ",".join(JOB_COLUMNS.values())
    path = write(tmp_path, header + "\n"
                 "t1,100.0,0.0,10.0,10.0,5,1.0,1.0,0,1\n"
                 "t2,100.0,0.0,10.0,10.0,5,1.0,1.0,1,1\n"
                 "t3,100.0,20.0,10.0,10.0,5,1.0,1.0,-2,1\n", name="jobs.csv")
    jobs, report = parse_job_csv(path)
    assert [j.task_id for j in jobs] == ["t2"]
    # the earlier invariants keep their messages
    assert report.errors == [RowError(0, "invariant", "core_count must be >= 1"),
                             RowError(2, "invariant", "end_time must be >= start_time")]


def test_task_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    records = [
        TaskRecord(
            task_id=f"t{i}",
            processing_type=rng.choice(["sim", "reco", "deriv"]),
            framework=rng.choice(["A", "B"]),
            core_count=int(rng.integers(1, 16)),
            n_input=int(rng.integers(0, 50)),
            n_files=int(rng.integers(50, 500)),
            n_events=int(rng.integers(1, 10**6)),
        )
        for i in range(40)
    ]
    ds = Dataset(records=records).with_labels({"RAMCOUNT": rng.integers(0, 4, size=40)})
    path = tmp_path / "rt.csv"
    write_task_csv(ds, path)
    assert path.read_text().splitlines()[0] == HEADER     # labels are not written
    back = parse_task_csv(path)
    assert back.records == ds.records
    assert back.labels == {}


def test_job_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    jobs = [
        JobProfile(
            task_id=f"t{i % 5}",
            max_pss=float(rng.uniform(100, 64000)),
            start_time=float(rng.uniform(0, 1e6)),
            end_time=float(rng.uniform(1e6, 2e6)),
            core_power=float(rng.uniform(5, 30)),
            n_events_job=int(rng.integers(1, 10**4)),
            input_bytes=float(rng.uniform(0, 1e12)),
            output_bytes=float(rng.uniform(0, 1e12)),
            core_count=int(rng.integers(1, 16)),
            is_scout=bool(rng.integers(0, 2)),
        )
        for i in range(30)
    ]
    path = tmp_path / "jobs.csv"
    write_job_csv(jobs, path)
    back, report = parse_job_csv(path)
    assert back == jobs
    assert report.n_rejected == 0


def test_parsed_strings_are_kept_once_per_value(tmp_path):
    types = ("simul", "recon", "deriv", "merge", "evgen")
    body = "".join(f"task{i:04d},{types[i % 5]},Athena,1,1,2,100\n" for i in range(200))
    tasks = parse_task_csv(write(tmp_path, HEADER + "\n" + body))
    assert len(tasks) == 200
    assert len({id(r.processing_type) for r in tasks.records}) == 5
    assert len({id(r.framework) for r in tasks.records}) == 1

    header = ",".join(JOB_COLUMNS.values())
    job = "task0007,2000.0,0.0,10.0,10.0,100,0.0,0.0,1,0\n"
    jobs, report = parse_job_csv(write(tmp_path, header + "\n" + job + job, name="jobs.csv"))
    assert report.n_rejected == 0
    assert jobs[0].task_id is jobs[1].task_id is tasks.records[7].task_id


def test_repeated_numeric_cells_are_kept_once_per_value(tmp_path):
    header = ",".join(JOB_COLUMNS.values())
    body = "".join(f"t{i},{1000 + i}.5,0.0,10.0,11.75,{400 + i % 2},0.0,0.0,8,0\n" for i in range(100))
    jobs, report = parse_job_csv(write(tmp_path, header + "\n" + body, name="jobs.csv"))
    assert report.n_rejected == 0
    assert len({id(j.core_power) for j in jobs}) == 1 and jobs[0].core_power == 11.75
    assert len({id(j.n_events_job) for j in jobs}) == 2 and {j.n_events_job for j in jobs} == {400, 401}
    assert type(jobs[0].n_events_job) is int
    assert [j.max_pss for j in jobs] == [1000.5 + i for i in range(100)]


# --- parsed rows: slotted frozen records

def assert_sound_rows(rows, record_type):
    """Each row is a frozen, hashable, picklable record equal to the one its values construct."""
    for row in rows:
        assert type(row) is record_type and not hasattr(row, "__dict__")
        built = record_type(*[getattr(row, f.name) for f in fields(record_type)])
        assert row == built and hash(row) == hash(built)
        assert pickle.loads(pickle.dumps(row, pickle.HIGHEST_PROTOCOL)) == row
        assert replace(row) == row and replace(row, task_id="other").task_id == "other"
        with pytest.raises(FrozenInstanceError):
            row.task_id = "other"


@pytest.fixture(scope="module")
def synthetic_csvs(tmp_path_factory):
    synth = generate(GeneratorSpec(seed=5, n_tasks=300))
    folder = tmp_path_factory.mktemp("synthetic")
    write_task_csv(synth.dataset, folder / "tasks.csv")
    write_job_csv(synth.jobs, folder / "jobs.csv")
    return synth, folder


def test_rows_of_a_synthetic_file_are_sound(synthetic_csvs):
    synth, folder = synthetic_csvs
    tasks = parse_task_csv(folder / "tasks.csv")
    jobs, report = parse_job_csv(folder / "jobs.csv")
    assert tasks.records == synth.dataset.records and jobs == synth.jobs and report.n_rejected == 0
    assert_sound_rows(tasks.records, TaskRecord)
    assert_sound_rows(jobs, JobProfile)


def test_parsed_job_rows_are_small(synthetic_csvs):
    # about 250 bytes a job, list slot and its own floats included; dict-backed rows took about 350
    _, folder = synthetic_csvs
    parse_job_csv(folder / "jobs.csv")
    gc.collect()
    tracemalloc.start()
    try:
        jobs, _ = parse_job_csv(folder / "jobs.csv")
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(jobs) > 2000
    assert retained / len(jobs) <= 280


# --- reader behaviour a csv.DictReader gave and the column-table reader keeps

def test_parse_skips_blank_lines_without_counting_them(tmp_path):
    path = write(tmp_path, HEADER + "\n\n"
                 "t1,sim,Athena,1,1,2,100\n\n\n"
                 "t2,sim,Athena,abc,1,2,100\n")
    ds = parse_task_csv(path)
    assert [r.task_id for r in ds.records] == ["t1"]
    assert (ds.report.n_rows, ds.report.n_parsed) == (2, 1)
    assert [(e.row_index, e.kind) for e in ds.report.errors] == [(1, "non-numeric")]


def test_parse_short_row_is_missing_value_naming_first_missing_column(tmp_path):
    path = write(tmp_path, HEADER + "\n"
                 "t1,sim,Athena,1,1\n")
    ds = parse_task_csv(path)
    assert len(ds) == 0
    (err,) = ds.report.errors
    assert err.kind == "missing-value"
    assert "NFILES" in err.message and "NEVENTS" not in err.message


def test_parse_ignores_extra_fields(tmp_path):
    path = write(tmp_path, HEADER + "\n"
                 "t1,sim,Athena,1,1,2,100,surplus,9\n")
    ds = parse_task_csv(path)
    assert ds.records == [TaskRecord("t1", "sim", "Athena", 1, 1, 2, 100)]
    assert ds.report.n_rejected == 0


def test_parse_repeated_column_reads_its_last_occurrence(tmp_path):
    path = write(tmp_path, "NCORE," + HEADER + ",NEVENTS\n"
                 "9,t1,sim,Athena,1,1,2,100,7\n"
                 "9,t2,sim,Athena,1,1,2,100\n")
    ds = parse_task_csv(path)
    assert ds.records == [TaskRecord("t1", "sim", "Athena", 1, 1, 2, 7)]
    # in a short row the last NEVENTS is missing, whatever the first holds
    assert [(e.row_index, e.kind) for e in ds.report.errors] == [(1, "missing-value")]


def test_parse_job_short_and_blank_rows(tmp_path):
    header = ",".join(JOB_COLUMNS.values())
    path = write(tmp_path, header + "\n\n"
                 "t1,100.0,0.0,10.0,10.0,5,1.0,1.0,1,yes,extra\n"
                 "t1,100.0,0.0,10.0,10.0,5,1.0,1.0\n", name="jobs.csv")
    jobs, report = parse_job_csv(path)
    assert [j.is_scout for j in jobs] == [True]
    assert (report.n_rows, report.n_parsed) == (2, 1)
    (err,) = report.errors
    assert (err.row_index, err.kind) == (1, "missing-value") and "CORECOUNT" in err.message


def test_parse_job_non_finite_value_is_non_numeric(tmp_path):
    header = ",".join(JOB_COLUMNS.values())
    path = write(tmp_path, header + "\n"
                 "t1,inf,0.0,10.0,10.0,5,1.0,1.0,1,yes\n", name="jobs.csv")
    jobs, report = parse_job_csv(path)
    assert jobs == []
    (err,) = report.errors
    assert (err.row_index, err.kind) == (0, "non-numeric")
    assert err.message == "non-finite value 'inf' in column MAXPSS_MB"


def test_parse_empty_task_id_is_missing_value(tmp_path):
    path = write(tmp_path, HEADER + "\n"
                 ",sim,Athena,1,1,2,100\n"
                 "t1,sim,Athena,1,1,2,100\n"
                 "   ,sim,Athena,1,1,2,100\n")
    ds = parse_task_csv(path)
    assert [r.task_id for r in ds.records] == ["t1"]
    assert ds.report.errors == [RowError(0, "missing-value", "missing value in column TASK_ID"),
                                RowError(2, "missing-value", "missing value in column TASK_ID")]


def test_parse_job_empty_task_id_is_missing_value(tmp_path):
    header = ",".join(JOB_COLUMNS.values())
    path = write(tmp_path, header + "\n"
                 " ,100.0,0.0,10.0,10.0,5,1.0,1.0,1,0\n"
                 "t1,100.0,0.0,10.0,10.0,5,1.0,1.0,1,0\n", name="jobs.csv")
    jobs, report = parse_job_csv(path)
    assert [j.task_id for j in jobs] == ["t1"]
    assert report.errors == [RowError(0, "missing-value", "missing value in column TASK_ID")]


def test_parse_reads_utf8_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "tasks.csv"
    path.write_bytes(("\ufeff" + HEADER + "\r\nt1,simulación,Athena,1,1,2,100\r\n").encode("utf-8"))
    ds = parse_task_csv(path)
    assert ds.records == [TaskRecord("t1", "simulación", "Athena", 1, 1, 2, 100)]
    header = ",".join(JOB_COLUMNS.values())
    path = tmp_path / "jobs.csv"
    path.write_bytes(("\ufeff" + header + "\nt1,100.0,0.0,10.0,10.0,5,1.0,1.0,1,0\n").encode("utf-8"))
    jobs, report = parse_job_csv(path)
    assert [j.task_id for j in jobs] == ["t1"] and report.n_rejected == 0


def test_written_csv_is_utf8(tmp_path):
    records = [TaskRecord("t1", "simulación", "Athéna", 1, 1, 2, 100)]
    path = tmp_path / "tasks.csv"
    write_task_csv(Dataset(records=records), path)
    assert "simulación,Athéna".encode("utf-8") in path.read_bytes()
    assert parse_task_csv(path).records == records


def test_parse_field_over_the_csv_size_limit_is_a_schema_error_naming_the_file(tmp_path):
    header = ",".join(JOB_COLUMNS.values())
    long_id = "t" * (csv.field_size_limit() + 1)
    path = write(tmp_path, header + "\n" + long_id + ",100.0,0.0,10.0,10.0,5,1.0,1.0,1,0\n", name="jobs.csv")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: field larger than field limit"):
        parse_job_csv(path)
    # in the header too
    path = write(tmp_path, long_id + "," + HEADER + "\n")
    with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: field larger than field limit"):
        parse_task_csv(path)


# --- the block reader against a per-row reference reader

def reference_rows(path, record_type, columns):
    """The per-row csv.reader loop the block reader replaced, with an empty task id a missing value.

    Returns the parsed (row index, record) rows and the report.
    """
    def parse_id(raw, column):
        value = ingest._PARSERS[str](raw, column)
        if not value:
            raise CellError("missing-value", f"missing value in column {column}")
        return value

    report = ParseReport()
    parsed = []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        position = {name: i for i, name in enumerate(header)}
        types = get_type_hints(record_type)
        plan = [(position[columns[f.name]], parse_id if f.name == "task_id" else ingest._PARSERS[types[f.name]],
                 columns[f.name]) for f in fields(record_type)]
        for cells in reader:
            if not cells:
                continue
            i = report.n_rows
            report.n_rows += 1
            if len(cells) < len(header):
                cells += [None] * (len(header) - len(cells))
            try:
                record = record_type(*[parse(cells[pos], col) for pos, parse, col in plan])
            except CellError as exc:
                report.errors.append(RowError(i, exc.kind, str(exc)))
                continue
            problem = record.validate()
            if problem is not None:
                report.errors.append(RowError(i, "invariant", problem))
                continue
            parsed.append((i, record))
    return parsed, report


def reference_task_csv(path):
    parsed, report = reference_rows(path, TaskRecord, TASK_COLUMNS)
    records, seen = [], set()
    for i, record in parsed:
        if record.task_id in seen:
            report.errors.append(RowError(i, "duplicate-id", f"duplicate task_id {record.task_id}"))
            continue
        seen.add(record.task_id)
        records.append(record)
    report.errors.sort(key=lambda error: error.row_index)
    report.n_parsed = len(records)
    return records, report


def reference_job_csv(path):
    parsed, report = reference_rows(path, JobProfile, JOB_COLUMNS)
    report.n_parsed = len(parsed)
    return [job for _, job in parsed], report


# the class-label columns that task CSVs once carried; the reader ignores them
CLASS_COLUMNS = [f"{target}_CLASS" for target in TARGET_NAMES]

# cells by kind: ones that parse, and ones that fail or break an invariant
GOOD_CELLS = {
    "id": ["t1", "t2", "t3", "t4", " t5 ", "t6"],
    "str": ["sim", "reco", " Athena ", "", "x y"],
    "int": ["1", "2", "4", "16", "3.0", "1e3", " 7 ", "1_000"],
    "float": ["0.0", "10.0", "12.5", "1e6", " 3.25 ", "1_000.5"],
    "bool": ["0", "1", "yes", "no", " TRUE ", "false", ""],
    "class": ["0", "1", "3", ""],
}
BAD_CELLS = {
    "id": ["", "   "],
    "str": [""],
    "int": ["0", "-1", "2.5", "nan", "inf", "1e400", "abc", ""],
    "float": ["-1.5", "nan", "inf", "-inf", "1e400", "x", ""],
    "bool": ["2"],
    "class": [" ", "2.5", "x"],
}
ODD_CELLS = ['"5"', '"a,b"', '"2\n1"', '"t\r\n7"', '""', "a\x00b", 'x"y']


def fuzzed_csv(rng, record_type, columns, class_columns):
    """A CSV text: shuffled, repeated and extra columns; short, long and blank rows; odd cells and line ends.

    Each of ``class_columns`` is there with a chance of 0.7, as an extra column of class-label cells.
    """
    types = get_type_hints(record_type)
    kinds = {col: "id" if name == "task_id" else types[name].__name__ for name, col in columns.items()}
    kinds.update({col: "class" for col in class_columns if rng.random() < 0.7})
    header = list(kinds)
    rng.shuffle(header)
    if rng.random() < 0.3:
        repeated = rng.choice(header)
        header.insert(rng.randrange(len(header) + 1), repeated)
    if rng.random() < 0.3:
        header.insert(rng.randrange(len(header) + 1), "EXTRA")
    odd = rng.random() < 0.3
    crlf = rng.random()
    lines = [",".join(header)]
    for _ in range(rng.randrange(0, 16)):
        if rng.random() < 0.08:
            lines.append("")
            continue
        cells = [rng.choice((BAD_CELLS if rng.random() < 0.03 else GOOD_CELLS)[kinds[col]])
                 if col in kinds else str(rng.randrange(9)) for col in header]
        if odd and rng.random() < 0.3:
            cells[rng.randrange(len(cells))] = rng.choice(ODD_CELLS)
        if rng.random() < 0.05:
            cells = cells[:rng.randrange(len(cells))]
        elif rng.random() < 0.05:
            cells += ["9"] * rng.randrange(1, 3)
        lines.append(",".join(cells))
    ends = ["\r\n" if rng.random() < crlf else "\n" for _ in lines]
    if odd and rng.random() < 0.3:
        ends[rng.randrange(len(ends))] = "\r"
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if rng.random() < 0.9 else text.rstrip("\r\n")


def typed(records):
    return [[(type(v), v) for v in (getattr(r, f.name) for f in fields(r))] for r in records]


def parsed_or_error(parse, path):
    try:
        return parse(path)
    except csv.Error as exc:     # the reference reader, on a NUL before Python 3.11
        return f"{path}: {exc}"
    except SchemaError as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_block_reader_matches_per_row_reader(tmp_path, monkeypatch, seed):
    monkeypatch.setattr(ingest, "CSV_BLOCK_LINES", 3)
    rng = random.Random(seed)
    path = tmp_path / "fuzzed.csv"
    for _ in range(25):
        path.write_bytes(fuzzed_csv(rng, TaskRecord, TASK_COLUMNS, CLASS_COLUMNS).encode("utf-8"))
        expected = parsed_or_error(reference_task_csv, path)
        got = parsed_or_error(parse_task_csv, path)
        if isinstance(expected, str):
            assert got == expected
        else:
            records, report = expected
            assert typed(got.records) == typed(records)
            assert got.labels == {}
            assert got.report == report
            assert_sound_rows(got.records, TaskRecord)

        path.write_bytes(fuzzed_csv(rng, JobProfile, JOB_COLUMNS, ()).encode("utf-8"))
        expected = parsed_or_error(reference_job_csv, path)
        got = parsed_or_error(parse_job_csv, path)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert typed(got[0]) == typed(expected[0])
            assert got[1] == expected[1]
            assert_sound_rows(got[0], JobProfile)


# --- stratified splitting

def labeled_dataset(class_sizes, seed=0):
    rng = np.random.default_rng(seed)
    records, labels = [], []
    i = 0
    for cls, size in enumerate(class_sizes):
        for _ in range(size):
            records.append(TaskRecord(
                task_id=f"t{i:05d}", processing_type="sim", framework="A",
                core_count=1, n_input=1, n_files=int(rng.integers(1, 50)),
                n_events=int(rng.integers(1, 1000)),
            ))
            labels.append(cls)
            i += 1
    return Dataset(records=records).with_labels({"RAMCOUNT": np.asarray(labels)})


def test_split_proportional_counts():
    ds = labeled_dataset([60, 40])
    result = stratified_split(ds, SplitSpec(seed=3))
    test_labels = result.test.labels["RAMCOUNT"]
    assert abs((test_labels == 0).sum() - 9) <= 1
    assert abs((test_labels == 1).sum() - 6) <= 1
    assert not result.used_random_fallback


def test_split_single_class():
    ds = labeled_dataset([10])
    result = stratified_split(ds, SplitSpec(seed=1))
    assert len(result.test) in (1, 2)
    assert set(result.test.labels["RAMCOUNT"]) <= {0}


def test_split_disjoint_and_covering():
    ds = labeled_dataset([50, 30, 20])
    result = stratified_split(ds, SplitSpec(seed=5))
    ids = [r.task_id for part in result for r in part.records]
    assert len(ids) == len(ds)
    assert len(set(ids)) == len(ds)


def test_split_deterministic():
    ds = labeled_dataset([50, 30, 20])
    a = stratified_split(ds, SplitSpec(seed=42))
    b = stratified_split(ds, SplitSpec(seed=42))
    for part_a, part_b in zip(a, b):
        assert [r.task_id for r in part_a.records] == [r.task_id for r in part_b.records]


def test_split_independent_of_record_order():
    ds = labeled_dataset([50, 30, 20])
    perm = np.random.default_rng(9).permutation(len(ds))
    shuffled = ds.subset(list(perm))
    a = stratified_split(ds, SplitSpec(seed=7))
    b = stratified_split(shuffled, SplitSpec(seed=7))
    for part_a, part_b in zip(a, b):
        assert sorted(r.task_id for r in part_a.records) == sorted(r.task_id for r in part_b.records)


def test_split_class_balance_invariant():
    ds = labeled_dataset([200, 120, 80, 40])
    result = stratified_split(ds, SplitSpec(seed=2))
    labels_all = ds.labels["RAMCOUNT"]
    for part in result:
        part_labels = part.labels["RAMCOUNT"]
        for c in range(4):
            frac_part = (part_labels == c).mean()
            frac_all = (labels_all == c).mean()
            assert abs(frac_part - frac_all) <= 1.0 / len(part_labels) + 1e-12


def test_split_small_class_falls_back_to_random():
    ds = labeled_dataset([50, 2])
    result = stratified_split(ds, SplitSpec(seed=0))
    assert result.used_random_fallback


def test_split_empty_rejected():
    ds = Dataset(records=[])
    with pytest.raises(ValueError):
        stratified_split(ds, SplitSpec())
