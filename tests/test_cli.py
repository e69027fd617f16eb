"""End-to-end CLI behavior: subcommands, exit codes, file outputs."""

import json

import numpy as np
import pytest

from respred.cli import main


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """synth -> derive -> train once; several commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--out", str(root), "--n-tasks", "1500", "--seed", "3"]) == 0
    assert main([
        "derive", "--jobs", str(root / "jobs.csv"), "--out", str(root / "derived.csv"),
    ]) == 0
    assert main([
        "train", "--data", str(root / "tasks.csv"), "--targets", str(root / "targets.csv"),
        "--out", str(root / "artifact.rpa"),
        "--learning-rate", "2e-3", "--batch-size", "64", "--max-epochs", "20",
        "--hidden", "32,16,8", "--seed", "1",
    ]) == 0
    return root


def test_synth_outputs_exist(workdir):
    for name in ("tasks.csv", "jobs.csv", "targets.csv"):
        assert (workdir / name).exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_train_missing_data_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["train", "--targets", "x.csv", "--out", "y"])
    assert err.value.code == 2


def test_missing_input_file_exits_2(tmp_path):
    code = main(["derive", "--jobs", str(tmp_path / "absent.csv"), "--out", str(tmp_path / "o.csv")])
    assert code == 2


@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_train_bad_target_value_exits_2_naming_row_and_column(workdir, tmp_path, capsys, bad):
    lines = (workdir / "targets.csv").read_text().splitlines()
    header = lines[0].split(",")
    row = lines[3].split(",")
    row[header.index("RAMCOUNT")] = bad
    lines[3] = ",".join(row)
    targets = tmp_path / "targets.csv"
    targets.write_text("\n".join(lines) + "\n")
    code = main([
        "train", "--data", str(workdir / "tasks.csv"), "--targets", str(targets),
        "--out", str(tmp_path / "artifact.rpa"), "--max-epochs", "1", "--hidden", "4,3,2",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert str(targets) in err and "line 4" in err and "RAMCOUNT" in err and repr(bad) in err


def _train_on_targets(workdir, tmp_path, lines):
    targets = tmp_path / "targets.csv"
    targets.write_text("\n".join(lines) + "\n")
    code = main([
        "train", "--data", str(workdir / "tasks.csv"), "--targets", str(targets),
        "--out", str(tmp_path / "artifact.rpa"), "--max-epochs", "1", "--hidden", "4,3,2",
    ])
    return code, targets


def test_train_reads_a_target_id_as_the_task_csv_does(workdir, tmp_path, capsys):
    lines = (workdir / "targets.csv").read_text().splitlines()
    lines[1] = " " + lines[1].replace(",", " ,", 1)
    code, _ = _train_on_targets(workdir, tmp_path, lines)
    assert code == 0, capsys.readouterr().err


def test_train_refuses_an_empty_target_id_naming_its_line(workdir, tmp_path, capsys):
    lines = (workdir / "targets.csv").read_text().splitlines()
    lines.insert(3, "  " + lines[3][lines[3].index(","):])
    code, targets = _train_on_targets(workdir, tmp_path, lines)
    assert code == 2
    err = capsys.readouterr().err
    assert f"{targets} line 4: missing value in column TASK_ID" in err


def test_train_refuses_a_repeated_target_id_naming_its_line(workdir, tmp_path, capsys):
    lines = (workdir / "targets.csv").read_text().splitlines()
    lines.append(lines[2])
    code, targets = _train_on_targets(workdir, tmp_path, lines)
    assert code == 2
    task_id = lines[2].split(",")[0]
    assert capsys.readouterr().err == f"error: {targets} line {len(lines)}: duplicate TASK_ID {task_id}\n"


@pytest.mark.parametrize("where", ["header", "row"])
def test_train_targets_field_over_the_csv_size_limit_exits_2_naming_the_file(workdir, tmp_path, capsys, where):
    lines = (workdir / "targets.csv").read_text().splitlines()
    if where == "header":
        lines[0] += "," + "x" * 200_000
    else:
        lines[1] = "t" * 200_000 + lines[1][lines[1].index(","):]
    code, targets = _train_on_targets(workdir, tmp_path, lines)
    assert code == 2
    assert capsys.readouterr().err == f"error: {targets}: field larger than field limit (131072)\n"


def test_train_task_without_a_target_row_exits_2(workdir, tmp_path, capsys):
    lines = (workdir / "targets.csv").read_text().splitlines()
    task_id = lines.pop(1).split(",")[0]
    code, _ = _train_on_targets(workdir, tmp_path, lines)
    assert code == 2
    assert capsys.readouterr().err == f"error: 1 task(s) lack target rows, first: {task_id}\n"


@pytest.mark.parametrize("flag, value", [
    ("--hidden", "0"),
    ("--hidden", "abc"),
    ("--hidden", "64,"),
    ("--learning-rate", "nan"),
    ("--learning-rate", "0"),
    ("--batch-size", "-5"),
    ("--batch-size", "0"),
    ("--batch-size", "abc"),
    ("--max-epochs", "0"),
    ("--patience", "-1"),
    ("--patience", "0"),
])
def test_train_refuses_a_bad_flag_before_reading_any_csv(tmp_path, capsys, flag, value):
    # the CSVs do not exist: reading them would be a returned 2, not the parser's exit
    with pytest.raises(SystemExit) as err:
        main(["train", "--data", str(tmp_path / "absent.csv"), "--targets", str(tmp_path / "absent.csv"),
              "--out", str(tmp_path / "artifact.rpa"), flag, value])
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("command, flag, value", [
    ("derive", "--margin", "nan"),
    ("derive", "--margin", "-1"),
    ("derive", "--min-ram", "inf"),
    ("simulate", "--ml-latency", "nan"),
    ("simulate", "--ml-latency", "inf"),
    ("simulate", "--ml-latency", "-1"),
    ("synth", "--n-tasks", "-5"),
    ("synth", "--seed", "-1"),
    ("simulate", "--seed", "-1"),
    ("train", "--seed", "-1"),
])
def test_a_bad_numeric_flag_exits_2_from_the_parser(tmp_path, capsys, command, flag, value):
    # the inputs do not exist: reading them would be a returned 2, not the parser's exit
    absent = str(tmp_path / "absent.csv")
    required = {
        "derive": ["--jobs", absent, "--out", str(tmp_path / "derived.csv")],
        "simulate": ["--mode", "ml", "--tasks", absent, "--targets", absent, "--model-dir", absent],
        "synth": ["--out", str(tmp_path / "synth")],
        "train": ["--data", absent, "--targets", absent, "--out", str(tmp_path / "artifact.rpa")],
    }[command]
    with pytest.raises(SystemExit) as err:
        main([command, *required, flag, value])
    assert err.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err.splitlines()[-1]
    assert not (tmp_path / "synth").exists()


def command_args(workdir, tmp_path, command):
    """Flags that run command on the module's files, writing into tmp_path."""
    return {
        "train": {"--data": str(workdir / "tasks.csv"), "--targets": str(workdir / "targets.csv"),
                  "--out": str(tmp_path / "artifact.rpa"), "--max-epochs": "1", "--hidden": "4,3,2"},
        "derive": {"--jobs": str(workdir / "jobs.csv"), "--out": str(tmp_path / "derived.csv")},
        "evaluate": {"--artifact": str(workdir / "artifact.rpa"), "--data": str(workdir / "tasks.csv"),
                     "--targets": str(workdir / "targets.csv"), "--report-out": str(tmp_path / "report.json")},
        "predict": {"--artifact": str(workdir / "artifact.rpa"), "--data": str(workdir / "tasks.csv"),
                    "--out": str(tmp_path / "predictions.csv")},
        "simulate": {"--mode": "ml", "--tasks": str(workdir / "tasks.csv"), "--targets": str(workdir / "targets.csv"),
                     "--model-dir": str(workdir / "artifact.rpa"), "--report-out": str(tmp_path / "sim.json")},
        "serve": {"--artifact": str(workdir / "artifact.rpa"), "--feedback-log": str(tmp_path / "fb.jsonl")},
    }[command]


@pytest.mark.parametrize("command, flag", [
    ("train", "--data"),
    ("train", "--out"),
    ("derive", "--jobs"),
    ("derive", "--out"),
    ("evaluate", "--report-out"),
    ("predict", "--out"),
    ("simulate", "--report-out"),
    ("serve", "--feedback-log"),
])
def test_a_directory_given_for_a_file_exits_2_in_one_line(workdir, tmp_path, capsys, monkeypatch, command, flag):
    from respred import service

    def serve_forever(svc, bind):
        raise AssertionError("served with a feedback log that is a directory")

    monkeypatch.setattr(service, "serve_forever", serve_forever)
    args = command_args(workdir, tmp_path, command)
    args[flag] = str(tmp_path)
    code = main([command, *(item for pair in args.items() for item in pair)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(tmp_path) in err


def _forbid_work(monkeypatch):
    from respred import ingest, pipeline, service

    def work(*args, **kwargs):
        raise AssertionError("work began before the output paths were checked")

    for module, name in ((pipeline, "train_all"), (ingest, "parse_task_csv"), (ingest, "parse_job_csv"),
                         (service, "load_artifact")):
        monkeypatch.setattr(module, name, work)


@pytest.mark.parametrize("command, flag", [
    ("train", "--out"),
    ("derive", "--out"),
    ("evaluate", "--report-out"),
    ("predict", "--out"),
    ("simulate", "--report-out"),
])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_unwritable_output_path_exits_2_before_any_work(workdir, tmp_path, capsys, monkeypatch,
                                                           command, flag, where):
    _forbid_work(monkeypatch)
    args = command_args(workdir, tmp_path, command)
    args[flag] = str(tmp_path / "absent" / "out.file") if where == "missing directory" else str(tmp_path)
    code = main([command, *(item for pair in args.items() for item in pair)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert args[flag] in err


def test_evaluate_writes_reports(workdir, capsys):
    report_path = workdir / "report.json"
    curves = workdir / "curves"
    code = main([
        "evaluate", "--artifact", str(workdir / "artifact.rpa"),
        "--data", str(workdir / "tasks.csv"), "--targets", str(workdir / "targets.csv"),
        "--report-out", str(report_path), "--curves-dir", str(curves),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "exact-match accuracy" in out
    assert "average pipeline accuracy" in out
    doc = json.loads(report_path.read_text())
    assert set(doc["models"]) == {"RAMCOUNT", "CPUTIME", "IOINTENSITY", "WALLTIME"}
    for t in doc["models"]:
        assert (curves / f"roc_{t}.csv").exists()
        assert (curves / f"pr_{t}.csv").exists()


def test_evaluate_perfect_predictions_shows_ones(workdir, tmp_path, capsys):
    # evaluating against classes defined by the artifact's own bins on the
    # training targets: per-class metrics are bounded by model quality, so
    # instead check report internals on a self-consistent fabricated case
    from respred import service
    from respred.pipeline import evaluate_models, label_dataset, render_report
    from respred.ingest import parse_task_csv
    from respred.cli import _read_targets_csv, _aligned_targets

    artifact = service.load_artifact(workdir / "artifact.rpa")
    dataset = parse_task_csv(workdir / "tasks.csv")
    values = _aligned_targets(dataset, _read_targets_csv(workdir / "targets.csv"))
    bins = {t: artifact.models[t].bins for t in artifact.models}
    labeled = label_dataset(dataset, values, bins)
    report = evaluate_models(artifact.models, labeled)
    text = render_report(report)
    assert "RAMCOUNT" in text and "at least 4/4" in text


def test_predict_batch(workdir):
    out = workdir / "preds.csv"
    code = main([
        "predict", "--artifact", str(workdir / "artifact.rpa"),
        "--data", str(workdir / "tasks.csv"), "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "TASK_ID,RAMCOUNT_CLASS,CPUTIME_CLASS,IOINTENSITY_CLASS,WALLTIME_CLASS"
    assert len(lines) == 1501


def test_predict_single_document(workdir, capsys):
    features = json.dumps({
        "PROCESSINGTYPE": "simulation", "FRAMEWORK": "FastSim", "NCORE": 1,
        "NINPUT": 4, "NFILES": 40, "NEVENTS": 20000,
    })
    code = main(["predict", "--artifact", str(workdir / "artifact.rpa"), "--features", features])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc["predictions"]) == {"RAMCOUNT", "CPUTIME", "IOINTENSITY", "WALLTIME"}


@pytest.mark.parametrize("features", ["{not json", "5",
                                      pytest.param("[" * 20_000 + "]" * 20_000, id="nested-20000-deep")])
def test_predict_bad_features_exits_2_naming_the_flag(workdir, capsys, features):
    code = main(["predict", "--artifact", str(workdir / "artifact.rpa"), "--features", features])
    assert code == 2
    assert "--features" in capsys.readouterr().err


def test_predict_without_inputs_exits_2(workdir):
    with pytest.raises(SystemExit) as err:
        main(["predict", "--artifact", str(workdir / "artifact.rpa")])
    assert err.value.code == 2


def test_evaluate_curves_dir_that_is_a_file_exits_2_before_any_work(workdir, tmp_path, capsys, monkeypatch):
    _forbid_work(monkeypatch)
    args = command_args(workdir, tmp_path, "evaluate")
    args["--curves-dir"] = str(tmp_path / "curves")
    (tmp_path / "curves").write_text("")
    code = main(["evaluate", *(item for pair in args.items() for item in pair)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and str(tmp_path / "curves") in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("report", ["sim.txt", "sim.json"])
def test_simulate_report_whose_summary_cannot_be_written_exits_2_before_any_work(workdir, tmp_path, capsys,
                                                                                 monkeypatch, report):
    # a report ending in .txt would be overwritten by its own summary; beside sim.json, sim.txt is a directory
    _forbid_work(monkeypatch)
    if report == "sim.json":
        (tmp_path / "sim.txt").mkdir()
    args = command_args(workdir, tmp_path, "simulate")
    args["--report-out"] = str(tmp_path / report)
    code = main(["simulate", *(item for pair in args.items() for item in pair)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(tmp_path / "sim.txt") in err
    assert not (tmp_path / "sim.json").exists()


def test_simulate_both_modes(workdir):
    report_path = workdir / "sim.json"
    code = main([
        "simulate", "--mode", "both",
        "--tasks", str(workdir / "tasks.csv"), "--targets", str(workdir / "targets.csv"),
        "--jobs", str(workdir / "jobs.csv"), "--model-dir", str(workdir / "artifact.rpa"),
        "--seed", "2", "--report-out", str(report_path),
    ])
    assert code == 0
    doc = json.loads(report_path.read_text())
    assert doc["scout"]["mean_turnaround_hours"] > doc["ml"]["mean_turnaround_hours"]
    assert report_path.with_suffix(".txt").exists()


@pytest.mark.parametrize("mode", ["both", "scout", "ml"])
def test_simulate_header_only_tasks_exits_1_in_one_line(workdir, tmp_path, capsys, mode):
    tasks = tmp_path / "tasks.csv"
    tasks.write_text((workdir / "tasks.csv").read_text().splitlines()[0] + "\n")
    code = main([
        "simulate", "--mode", mode,
        "--tasks", str(tasks), "--targets", str(workdir / "targets.csv"),
        "--jobs", str(workdir / "jobs.csv"), "--model-dir", str(workdir / "artifact.rpa"),
    ])
    err = capsys.readouterr().err
    assert code == 1
    assert err.count("\n") == 1 and "empty task population" in err


def test_simulate_scout_requires_jobs(workdir):
    with pytest.raises(SystemExit) as err:
        main([
            "simulate", "--mode", "scout",
            "--tasks", str(workdir / "tasks.csv"), "--targets", str(workdir / "targets.csv"),
            "--model-dir", str(workdir / "artifact.rpa"),
        ])
    assert err.value.code == 2


def test_serve_subcommand_end_to_end(workdir):
    import json as _json
    import socket
    import subprocess
    import sys
    import time
    import urllib.request

    from respred.service import load_artifact, predict_request

    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]

    proc = subprocess.Popen(
        [sys.executable, "-m", "respred", "serve",
         "--artifact", str(workdir / "artifact.rpa"), "--bind", f"127.0.0.1:{port}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        base = f"http://127.0.0.1:{port}"
        for _ in range(100):
            try:
                with urllib.request.urlopen(base + "/health", timeout=1) as resp:
                    if resp.status == 200:
                        break
            except OSError:
                time.sleep(0.1)
        else:
            raise AssertionError("server did not come up")

        doc = {
            "PROCESSINGTYPE": "simulation", "FRAMEWORK": "FastSim", "NCORE": 1,
            "NINPUT": 4, "NFILES": 40, "NEVENTS": 20000,
        }
        req = urllib.request.Request(
            base + "/predict", data=_json.dumps(doc).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as resp:
            via_http = _json.loads(resp.read().decode())

        artifact = load_artifact(workdir / "artifact.rpa")
        in_process = predict_request(artifact, doc)
        via_http.pop("inference_seconds")
        in_process.pop("inference_seconds")
        assert via_http == in_process
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


@pytest.mark.parametrize("bad_line", ["{}", '{"task_id": "a", "pred',
                                      pytest.param("[" * 20_000 + "]" * 20_000, id="nested-20000-deep")])
def test_serve_refuses_a_corrupt_feedback_log_in_one_line(workdir, tmp_path, capsys, monkeypatch, bad_line):
    from respred import service

    def serve_forever(svc, bind):
        raise AssertionError("served despite a corrupt feedback log")

    monkeypatch.setattr(service, "serve_forever", serve_forever)
    log_path = tmp_path / "fb.jsonl"
    log_path.write_text(bad_line + "\n")
    code = main([
        "serve", "--artifact", str(workdir / "artifact.rpa"), "--feedback-log", str(log_path),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"{log_path} line 1" in err


def test_serve_refuses_a_feedback_log_it_cannot_open_in_one_line(workdir, tmp_path, capsys, monkeypatch):
    from respred import service

    def serve_forever(svc, bind):
        raise AssertionError("served with a feedback log that cannot be written")

    monkeypatch.setattr(service, "serve_forever", serve_forever)
    log_path = tmp_path / "absent" / "fb.jsonl"
    code = main([
        "serve", "--artifact", str(workdir / "artifact.rpa"), "--feedback-log", str(log_path),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert str(log_path) in err


def test_derived_targets_close_to_synth_truth(workdir):
    from respred.cli import _read_targets_csv
    truth = _read_targets_csv(workdir / "targets.csv")
    derived = _read_targets_csv(workdir / "derived.csv")
    assert set(derived) == set(truth)
    ratios = [derived[t]["RAMCOUNT"] / truth[t]["RAMCOUNT"] for t in truth]
    assert np.median(np.abs(np.log(ratios))) < 0.3


JOBS_HEADER = "TASK_ID,MAXPSS_MB,STARTTIME,ENDTIME,COREPOWER,NEVENTS_JOB,INPUT_BYTES,OUTPUT_BYTES,CORECOUNT,IS_SCOUT"


def test_derive_rejects_a_job_with_core_count_below_one_as_a_row(tmp_path, capsys):
    jobs = tmp_path / "jobs.csv"
    jobs.write_text(JOBS_HEADER + "\n"
                    "t1,2000.0,0.0,3600.0,10.0,100,1e9,1e8,1,1\n"
                    "t2,2000.0,0.0,3600.0,10.0,100,1e9,1e8,0,1\n")
    out = tmp_path / "targets.csv"
    assert main(["derive", "--jobs", str(jobs), "--out", str(out)]) == 0
    assert capsys.readouterr().err == "warning: rejected 1/2 job rows\n"
    assert [line.split(",")[0] for line in out.read_text().splitlines()] == ["TASK_ID", "t1"]


def test_field_over_the_csv_size_limit_exits_2_naming_the_file(tmp_path, capsys):
    jobs = tmp_path / "jobs.csv"
    jobs.write_text(JOBS_HEADER + "\n" + "t" * 200_000 + ",2000.0,0.0,3600.0,10.0,100,1e9,1e8,1,1\n")
    assert main(["derive", "--jobs", str(jobs), "--out", str(tmp_path / "targets.csv")]) == 2
    assert capsys.readouterr().err == f"error: {jobs}: field larger than field limit (131072)\n"


@pytest.mark.parametrize("command", ["train", "evaluate", "predict", "simulate"])
def test_rejected_task_rows_are_reported(workdir, tmp_path, capsys, command):
    tasks = tmp_path / "tasks.csv"
    tasks.write_text((workdir / "tasks.csv").read_text() + "bad,sim,Athena,abc,1,2,100\n")
    jobs = tmp_path / "jobs.csv"
    jobs.write_text((workdir / "jobs.csv").read_text() + "bad,2000.0,0.0,3600.0,10.0,100,1e9,1e8,0,1\n")
    n_jobs = len(jobs.read_text().splitlines()) - 1
    data = ["--data", str(tasks)]
    labeled = [*data, "--targets", str(workdir / "targets.csv")]
    artifact = str(workdir / "artifact.rpa")
    argv = {
        "train": ["train", *labeled, "--out", str(tmp_path / "a.rpa"), "--max-epochs", "1", "--hidden", "4,3,2"],
        "evaluate": ["evaluate", "--artifact", artifact, *labeled],
        "predict": ["predict", "--artifact", artifact, *data, "--out", str(tmp_path / "preds.csv")],
        "simulate": ["simulate", "--mode", "both", "--tasks", str(tasks), "--targets", str(workdir / "targets.csv"),
                     "--jobs", str(jobs), "--model-dir", artifact],
    }[command]
    assert main(argv) == 0
    expected = "warning: rejected 1/1501 task rows\n"
    if command == "simulate":
        expected += f"warning: rejected 1/{n_jobs} job rows\n"
    assert capsys.readouterr().err == expected
