"""CSV parsing, round-trips and stratified splitting."""

import numpy as np
import pytest

from respred.ingest import (
    JOB_COLUMNS,
    Dataset,
    SchemaError,
    SplitSpec,
    TaskRecord,
    build_vocabularies,
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


def test_parse_vocabulary_counts(tmp_path):
    path = write(tmp_path, HEADER + "\n"
                 "t1,sim,Athena,1,1,2,100\n"
                 "t2,sim,AthSim,2,1,2,100\n"
                 "t3,reco,Athena,4,1,2,100\n")
    ds = parse_task_csv(path)
    assert len(ds) == 3
    assert len(ds.vocabularies["framework"]) == 3     # UNKNOWN + 2
    assert len(ds.vocabularies["processing_type"]) == 3
    assert ds.vocabularies["framework"]["<UNK>"] == 0
    assert sorted(ds.vocabularies["framework"].values()) == [0, 1, 2]


def test_parse_empty_file_valid_header(tmp_path):
    ds = parse_task_csv(write(tmp_path, HEADER + "\n"))
    assert len(ds) == 0
    assert all(len(v) == 1 for v in ds.vocabularies.values())


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


def test_parse_reads_class_columns(tmp_path):
    path = write(tmp_path, HEADER + ",RAMCOUNT_CLASS,CPUTIME_CLASS,IOINTENSITY_CLASS,WALLTIME_CLASS\n"
                 "t1,sim,Athena,1,1,2,100,2,4,1,0\n")
    ds = parse_task_csv(path)
    assert ds.labels["RAMCOUNT"][0] == 2
    assert ds.labels["CPUTIME"][0] == 4
    assert ds.labels["IOINTENSITY"][0] == 1
    assert ds.labels["WALLTIME"][0] == 0


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
    ds = Dataset(records=records, vocabularies=build_vocabularies(records))
    ds = ds.with_labels({"RAMCOUNT": rng.integers(0, 4, size=40)})
    path = tmp_path / "rt.csv"
    write_task_csv(ds, path)
    back = parse_task_csv(path)
    assert back.records == ds.records
    assert back.vocabularies == ds.vocabularies
    assert np.array_equal(back.labels["RAMCOUNT"], ds.labels["RAMCOUNT"])


def test_job_csv_round_trip(tmp_path):
    from respred.ingest import JobProfile
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


def test_parse_short_row_leaves_class_label_unknown(tmp_path):
    path = write(tmp_path, HEADER + ",RAMCOUNT_CLASS\n"
                 "t1,sim,Athena,1,1,2,100\n")
    assert parse_task_csv(path).labels["RAMCOUNT"].tolist() == [-1]


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
    ds = Dataset(records=records, vocabularies=build_vocabularies(records))
    return ds.with_labels({"RAMCOUNT": np.asarray(labels)})


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
    ds = Dataset(records=[], vocabularies={})
    with pytest.raises(ValueError):
        stratified_split(ds, SplitSpec())


def test_split_fractions_validated():
    with pytest.raises(ValueError):
        SplitSpec(train_val_fraction=0.8, test_fraction=0.15)
