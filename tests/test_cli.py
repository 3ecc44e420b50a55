import contextlib
import csv
import io
import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcl import data as dataio
from fedcl.cli import main

CONFIG = """
[experiment]
rounds = 2
batch_size = 16
seed = 5

[suite]
synthetic_n = 200
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "bench.ini"
    path.write_text(CONFIG)
    return str(path)


@pytest.fixture
def csv_without_label(tmp_path):
    """A dataset CSV whose header lacks label_vacuuming."""
    path = tmp_path / "nolabel.csv"
    main(["synth", "--out", str(path), "--n", "120"])
    path.write_text(path.read_text().replace("label_vacuuming", "label_hoovering"))
    return str(path)


class TestSynth:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = str(tmp_path / "data.csv")
        assert main(["synth", "--out", out, "--n", "50", "--seed", "7"]) == 0
        ds = dataio.load_csv(out)
        assert len(ds) == 50
        assert "wrote 50 samples" in capsys.readouterr().out

    @pytest.mark.parametrize("option, value, reason", [
        ("--n", "0", "n must be >= 1, got 0"),
        ("--noise-std", "-1", "noise_std must be finite and >= 0, got -1.0"),  # once no noise, exit 0
        ("--noise-std", "nan", "noise_std must be finite and >= 0, got nan"),
        ("--noise-std", "inf", "noise_std must be finite and >= 0, got inf"),  # once labels 1 or 5
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ], ids=["n-0", "noise-std--1", "noise-std-nan", "noise-std-inf", "seed--1"])
    def test_invalid_option_exits_2_with_the_reason(self, tmp_path, capsys, option, value,
                                                    reason):
        out = tmp_path / "data.csv"
        assert main(["synth", "--out", str(out), option, value]) == 2
        assert capsys.readouterr().err == f"invalid synth option: {reason}\n"
        assert not out.exists()

    @pytest.mark.parametrize("out", ["missing/data.csv", "."])
    def test_unwritable_out_exits_1_with_the_reason(self, tmp_path, capsys, out):
        path = str(tmp_path / out)
        assert main(["synth", "--out", path, "--n", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot write {path}: ")
        assert not (tmp_path / "missing").exists()


class TestRun:
    def test_run_and_table(self, config_path, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        assert main(["run", "--config", config_path, "--out", out_dir]) == 0
        assert "1 run(s) completed" in capsys.readouterr().out
        assert main(["table", "--out", out_dir]) == 0
        assert "| Method |" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[experiment]\nclients = banana\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "invalid config" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, value", [
        ("experiment", "mu", "-1"),
        ("experiment", "gamma_online", "2"),
        ("experiment", "mix_ratio", "2"),
        ("experiment", "si_xi", "0"),
        ("experiment", "penalty_lambda", "-1"),
        ("experiment", "distill_weight", "3"),
        ("experiment", "hidden_activation", "tanh"),
        ("experiment", "server_optimizer", "rmsprop"),
        ("experiment", "server_learning_rate", "-0.1"),
        ("experiment", "buffer_capacity", "0"),
        ("experiment", "fisher_samples", "0"),
        ("experiment", "augment_sigma", "-0.01"),
        ("experiment", "rounds_per_task", "0"),
        ("experiment", "rounds_per_task", "-1"),
        ("experiment", "seed", "-1"),
        ("suite", "synthetic_n", "0"),
        ("suite", "synthetic_noise", "-0.1"),
        ("suite", "synthetic_noise", "nan"),  # once a noiseless dataset
        # NaN once passed these range checks, and the first four changed
        # what a run computes without an error
        ("experiment", "mu", "nan"),
        ("experiment", "penalty_lambda", "nan"),
        ("experiment", "augment_sigma", "nan"),
        ("experiment", "server_learning_rate", "nan"),
        ("experiment", "learning_rate", "nan"),
        ("experiment", "si_xi", "nan"),
        # inf once passed them too: the first five failed after training
        # started, SI trained with no penalty and every label was 1 or 5
        ("experiment", "learning_rate", "inf"),
        ("experiment", "mu", "inf"),
        ("experiment", "server_learning_rate", "inf"),
        ("experiment", "augment_sigma", "inf"),
        ("experiment", "penalty_lambda", "inf"),
        ("experiment", "si_xi", "inf"),
        ("suite", "synthetic_noise", "inf"),
    ])
    def test_out_of_range_value_exits_2_naming_the_key(self, tmp_path, capsys,
                                                       section, key, value):
        path = tmp_path / "bad.ini"
        path.write_text(f"[{section}]\n{key} = {value}\n")
        out_dir = tmp_path / "r"
        assert main(["run", "--config", str(path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid config: ") and f"{section}.{key}:" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("content, problem", [
        (b"[experiment]\nrounds = 2\nrounds = 3\n", "invalid config: "),
        (b"[experiment]\nrounds = 2\n[experiment]\nseed = 1\n", "invalid config: "),
        (b"rounds = 2\n", "invalid config: "),
        (b"[experiment]\nrounds\n", "invalid config: "),
        (b"[experiment]\nrounds = 2 ; caf\xe9\n", "invalid config: "),
        # read literally: no interpolation, so the dataset path is what it says
        (b"[suite]\ndataset = my%data.csv\n", "invalid dataset: "),
    ], ids=["duplicate-key", "duplicate-section", "no-section-header", "no-equals",
            "not-utf8", "percent"])
    def test_malformed_ini_exits_2(self, tmp_path, capsys, content, problem):
        path = tmp_path / "bad.ini"
        path.write_bytes(content)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(problem) and "Traceback" not in err
        if b"%" in content:
            assert "my%data.csv" in err

    def test_failed_experiment_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bench.ini"
        path.write_text(CONFIG + "\n[sweep]\nclients = 500\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
        assert "FAILED" in capsys.readouterr().err

    def test_a_test_set_under_two_rows_fails_naming_it(self, tmp_path, capsys):
        path = tmp_path / "tiny.ini"
        path.write_text("[experiment]\nclients = 1\n\n[suite]\nsynthetic_n = 4\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "r")]) == 1
        assert "test set too small to evaluate: 1 row(s)" in capsys.readouterr().err

    def test_out_dir_from_environment(self, config_path, tmp_path, monkeypatch):
        out_dir = str(tmp_path / "env_results")
        monkeypatch.setenv("FEDCL_OUT", out_dir)
        assert main(["run", "--config", config_path]) == 0
        assert os.path.isdir(out_dir)

    def test_seed_override_reports_the_runs_it_wrote(self, tmp_path, capsys):
        path = tmp_path / "bench.ini"
        path.write_text(CONFIG + "\n[sweep]\nseeds = 1, 2\n")
        out_dir = tmp_path / "results"
        assert main(["run", "--config", str(path), "--out", str(out_dir),
                     "--seed", "9"]) == 0
        assert "1 run(s) completed" in capsys.readouterr().out
        run_dirs = [p for p in out_dir.iterdir() if p.is_dir()]
        assert len(run_dirs) == 1
        snapshot = json.loads((run_dirs[0] / "config.json").read_text())
        assert snapshot["config"]["seed"] == 9

    def test_data_csv_override(self, config_path, tmp_path):
        csv_path = str(tmp_path / "data.csv")
        main(["synth", "--out", csv_path, "--n", "120"])
        out_dir = str(tmp_path / "results")
        assert main(["run", "--config", config_path, "--data", csv_path,
                     "--out", out_dir]) == 0

    def test_missing_data_file_exits_2(self, config_path, tmp_path, capsys):
        missing = str(tmp_path / "missing.csv")
        assert main(["run", "--config", config_path, "--data", missing,
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid dataset: ") and missing in err

    def test_missing_label_column_exits_2(self, config_path, csv_without_label, tmp_path, capsys):
        capsys.readouterr()
        assert main(["run", "--config", config_path, "--data", csv_without_label,
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid dataset: ") and "label_vacuuming" in err
        assert not (tmp_path / "r").exists()


class TestTable:
    def test_empty_store_exits_1(self, tmp_path, capsys):
        assert main(["table", "--out", str(tmp_path / "nothing")]) == 1
        assert "empty" in capsys.readouterr().err

    def test_failed_runs_are_named(self, tmp_path, capsys):
        # 500 clients leave the 2-client run's shards; its run fails alone
        path = tmp_path / "bench.ini"
        path.write_text(CONFIG + "\n[sweep]\nclients = 2, 500\n")
        out_dir = str(tmp_path / "r")
        assert main(["run", "--config", str(path), "--out", out_dir]) == 1
        (failed,) = [name.removesuffix(".failed.txt") for name in os.listdir(out_dir)
                     if name.endswith(".failed.txt")]
        error = (tmp_path / "r" / f"{failed}.failed.txt").read_text().splitlines()[-1]
        capsys.readouterr()
        assert main(["table", "--out", out_dir]) == 0
        markdown = capsys.readouterr().out
        assert markdown.endswith(f"## Failed runs\n\n- `{failed}`: {error}\n")
        assert main(["table", "--out", out_dir, "--format", "csv"]) == 0
        assert failed not in capsys.readouterr().out
        # with no completed run the table exits 1, naming the failed run
        completed = next(p for p in (tmp_path / "r").iterdir() if p.is_dir())
        shutil.rmtree(completed)
        for fmt in ("markdown", "csv"):
            assert main(["table", "--out", out_dir, "--format", fmt]) == 1
            captured = capsys.readouterr()
            assert failed in captured.err and not captured.out

    @pytest.mark.parametrize("command", ["table", "verify"])
    def test_missing_directory_exits_1_and_stays_missing(self, config_path, tmp_path, capsys,
                                                         command):
        out_dir = tmp_path / "typo"
        config = ["--config", config_path] if command == "verify" else []
        assert main([command, "--out", str(out_dir)] + config) == 1
        assert str(out_dir) in capsys.readouterr().err
        assert not out_dir.exists()

    def test_incomplete_run_directory_exits_1(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "results"
        main(["run", "--config", config_path, "--out", str(out_dir)])
        run_dir = next(p for p in out_dir.iterdir() if p.is_dir())
        (run_dir / "rounds.csv").unlink()
        capsys.readouterr()
        assert main(["table", "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert str(run_dir) in err and "rounds.csv" in err

    def test_run_directory_without_config_exits_1(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "results"
        for seed in ("1", "2"):
            main(["run", "--config", config_path, "--out", str(out_dir), "--seed", seed])
        run_dir = sorted(p for p in out_dir.iterdir() if p.is_dir())[0]
        (run_dir / "config.json").unlink()
        capsys.readouterr()
        assert main(["table", "--out", str(out_dir)]) == 1
        assert str(run_dir) in capsys.readouterr().err
        assert main(["verify", "--config", config_path, "--out", str(out_dir)]) == 1
        assert str(run_dir) in capsys.readouterr().err

    def test_csv_format(self, config_path, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        main(["run", "--config", config_path, "--out", out_dir])
        capsys.readouterr()
        assert main(["table", "--out", out_dir, "--format", "csv"]) == 0
        assert capsys.readouterr().out.startswith("Method,")


class TestVerify:
    def test_verify_ok(self, config_path, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        main(["run", "--config", config_path, "--out", out_dir])
        assert main(["verify", "--config", config_path, "--out", out_dir]) == 0
        assert "verified bit-identical" in capsys.readouterr().out

    def test_verify_reruns_a_shared_task_1_sweep_alone(self, tmp_path, capsys):
        # the five CL methods train task 1 once in the suite; each re-run
        # alone trains its own and must match bit for bit
        config_path = tmp_path / "fcl.ini"
        config_path.write_text(CONFIG.replace("[suite]", "clients = 3\n\n[sweep]\n"
                                              "cl_methods = ewc, ewc_online, si, mas, nr\n\n"
                                              "[suite]"))
        out_dir = str(tmp_path / "results")
        assert main(["run", "--config", str(config_path), "--out", out_dir]) == 0
        assert main(["verify", "--config", str(config_path), "--out", out_dir]) == 0
        assert "5 run(s) verified bit-identical" in capsys.readouterr().out

    def test_verify_detects_tampering(self, config_path, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        main(["run", "--config", config_path, "--out", out_dir])
        run_dir = next(p for p in (tmp_path / "results").iterdir() if p.is_dir())
        report = run_dir / "report.json"
        doc = json.loads(report.read_text())
        doc["final"]["avg_mse"] += 1.0
        report.write_text(json.dumps(doc))
        assert main(["verify", "--config", config_path, "--out", out_dir]) == 1
        assert "REPRODUCIBILITY VIOLATION" in capsys.readouterr().err

    def test_verify_detects_an_edited_middle_round(self, tmp_path, capsys):
        config_path = tmp_path / "bench.ini"
        config_path.write_text(CONFIG.replace("rounds = 2", "rounds = 3"))
        out_dir = tmp_path / "results"
        main(["run", "--config", str(config_path), "--out", str(out_dir)])
        rounds_csv = next(p for p in out_dir.iterdir() if p.is_dir()) / "rounds.csv"
        with open(rounds_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        rows[1]["avg_mse"] = repr(float(rows[1]["avg_mse"]) * (1 + 1e-15))
        with open(rounds_csv, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        capsys.readouterr()
        assert main(["verify", "--config", str(config_path), "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert "REPRODUCIBILITY VIOLATION" in err
        assert f"round {rows[1]['round']}: avg_mse" in err
        assert err.count("REPRODUCIBILITY VIOLATION") == 1

    def test_verify_detects_an_edited_params_hash(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "results"
        main(["run", "--config", config_path, "--out", str(out_dir)])
        run_dir = next(p for p in out_dir.iterdir() if p.is_dir())
        report = run_dir / "report.json"
        doc = json.loads(report.read_text())
        digest = doc["final_params_sha256"]
        doc["final_params_sha256"] = ("1" if digest[0] == "0" else "0") + digest[1:]
        report.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["verify", "--config", config_path, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert err.count("REPRODUCIBILITY VIOLATION") == 1
        assert f"REPRODUCIBILITY VIOLATION {run_dir.name}: final_params_sha256" in err

    def test_verify_accepts_a_run_stored_without_the_params_hash(self, config_path, tmp_path,
                                                                  capsys):
        # a run written before reports carried the hash verifies on its floats
        out_dir = tmp_path / "results"
        main(["run", "--config", config_path, "--out", str(out_dir)])
        report = next(p for p in out_dir.iterdir() if p.is_dir()) / "report.json"
        doc = json.loads(report.read_text())
        del doc["final_params_sha256"]
        report.write_text(json.dumps(doc))
        assert main(["verify", "--config", config_path, "--out", str(out_dir)]) == 0
        doc["final"]["avg_mse"] += 1.0
        report.write_text(json.dumps(doc))
        assert main(["verify", "--config", config_path, "--out", str(out_dir)]) == 1

    def test_verify_missing_data_file_exits_2(self, config_path, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        main(["run", "--config", config_path, "--out", out_dir])
        capsys.readouterr()
        missing = str(tmp_path / "missing.csv")
        assert main(["verify", "--data", missing, "--out", out_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid dataset: ") and missing in err

    def test_verify_missing_label_column_exits_2(self, config_path, csv_without_label,
                                                  tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        main(["run", "--config", config_path, "--out", out_dir])
        capsys.readouterr()
        assert main(["verify", "--config", config_path, "--data", csv_without_label,
                     "--out", out_dir]) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid dataset: ") and "label_vacuuming" in err

    def test_verify_without_dataset_source_exits_2(self, config_path, tmp_path, capsys):
        out_dir = str(tmp_path / "results")
        main(["run", "--config", config_path, "--out", out_dir])
        capsys.readouterr()
        assert main(["verify", "--out", out_dir]) == 2

    def test_verify_incomplete_run_directory_exits_1(self, config_path, tmp_path, capsys):
        out_dir = tmp_path / "results"
        main(["run", "--config", config_path, "--out", str(out_dir)])
        run_dir = next(p for p in out_dir.iterdir() if p.is_dir())
        (run_dir / "report.json").unlink()
        capsys.readouterr()
        assert main(["verify", "--config", config_path, "--out", str(out_dir)]) == 1
        err = capsys.readouterr().err
        assert str(run_dir) in err and "report.json" in err

    def test_verify_empty_store_exits_1(self, config_path, tmp_path):
        assert main(["verify", "--config", config_path,
                     "--out", str(tmp_path / "nothing")]) == 1


# keys of each run file that every complete run has, as paths into the file
_REQUIRED = {
    "config.json": ["run_id", "config", "config.clients", "config.rounds", "config.cl_method"],
    "report.json": ["final", "after_task", "final.avg_mse", "final.avg_pcc",
                    "after_task.0", "after_task.0.avg_rmse"],
    "rounds.csv": ["round", "avg_mse", "avg_rmse", "avg_pcc", "mean_client_train_loss"],
}


def _delete_key(name: str, text: str, key: str) -> str:
    """The run file's text without ``key``: a JSON key, or a CSV column."""
    if name == "rounds.csv":
        rows = list(csv.reader(io.StringIO(text, newline="")))
        drop = rows[0].index(key)
        out = io.StringIO(newline="")
        csv.writer(out).writerows([r[:drop] + r[drop + 1:] for r in rows])
        return out.getvalue()
    obj = json.loads(text)
    *parents, last = key.split(".")
    inner = obj
    for part in parents:
        inner = inner[part]
    del inner[last]
    return json.dumps(obj, indent=2)


@pytest.fixture(scope="module")
def stored_runs(tmp_path_factory):
    """(config path, results directory) of an FL and an FCL run."""
    root = tmp_path_factory.mktemp("stored")
    path = root / "bench.ini"
    path.write_text(CONFIG + "\n[sweep]\ncl_methods = none, nr\n")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(path), "--out", str(root / "results")]) == 0
    return str(path), str(root / "results")


class TestCorruptRunDirectory:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_exits_1_naming_the_run_and_file(self, stored_runs, data):
        config_path, results = stored_runs
        run = data.draw(st.sampled_from(sorted(os.listdir(results))), label="run")
        name = data.draw(st.sampled_from(sorted(_REQUIRED)), label="file")
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "results")
            shutil.copytree(results, out)
            path = os.path.join(out, run, name)
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            if data.draw(st.booleans(), label="cut"):
                text = text[:data.draw(st.integers(0, len(text) - 1), label="offset")]
            else:
                text = _delete_key(name, text, data.draw(st.sampled_from(_REQUIRED[name]),
                                                         label="deleted key"))
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            for command in (["table"], ["verify", "--config", config_path]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    assert main(command + ["--out", out]) == 1
                message = err.getvalue()
                assert os.path.join(out, run) in message and name in message, message
                assert "Traceback" not in message
