import configparser
import csv
import hashlib
import json
import os
import re
import shutil
import tempfile
import textwrap
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcl import config as fconfig
from fedcl import continual as cl
from fedcl import data as dataio
from fedcl import nn
from fedcl import strategies as fed
from fedcl.config import (EXPERIMENT_SCHEMA, BenchmarkSuite, ConfigError, ExperimentSpec,
                          parse_config)
from fedcl.store import (IncompleteRunError, ResultsStore, emit_table, execute_experiment,
                         run_suite, verify_store)


def write_config(tmp_path, text, name="bench.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL = """
[experiment]
clients = 2
rounds = 2
batch_size = 16
seed = 3
"""

SWEEP = """
[experiment]
rounds = 2
batch_size = 16

[sweep]
strategies = fedavg, fedprox
clients = 2, 3
augmentation = false, true
seeds = 1, 2

[suite]
synthetic_n = 200
"""


class TestParseConfig:
    def test_minimal(self, tmp_path):
        suite = parse_config(write_config(tmp_path, MINIMAL))
        assert isinstance(suite, BenchmarkSuite)
        assert len(suite.experiments) == 1
        cfg = suite.experiments[0].build()
        assert cfg.n_clients == 2 and cfg.n_rounds == 2 and cfg.seed == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(str(tmp_path / "nope.ini"))

    def test_unknown_key_names_path(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nclinets = 2\n")
        with pytest.raises(ConfigError, match="experiment.clinets"):
            parse_config(path)

    def test_unknown_section(self, tmp_path):
        path = write_config(tmp_path, "[experiments]\nclients = 2\n")
        with pytest.raises(ConfigError, match=r"\[experiments\]"):
            parse_config(path)

    def test_bad_type_names_path(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nclients = two\n")
        with pytest.raises(ConfigError, match="experiment.clients"):
            parse_config(path)

    def test_bad_strategy(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nstrategy = fedmagic\n")
        with pytest.raises(ConfigError, match="strategy"):
            parse_config(path)

    def test_sweep_cartesian_product(self, tmp_path):
        suite = parse_config(write_config(tmp_path, SWEEP))
        # 2 strategies x 2 client counts x 2 augmentation x 2 seeds
        assert len(suite.experiments) == 16
        ids = {spec.run_id() for spec in suite.experiments}
        assert len(ids) == 16

    def test_seed_override_collapses_seeds_sweep(self, tmp_path):
        suite = parse_config(write_config(tmp_path, SWEEP), seed=9)
        assert len(suite.experiments) == 8
        assert {spec.values["seed"] for spec in suite.experiments} == {9}
        assert len({spec.run_id() for spec in suite.experiments}) == 8

    def test_fcl_sweep_forced_to_fedavg_and_deduped(self, tmp_path):
        text = """
[experiment]
rounds = 2

[sweep]
strategies = fedavg, fedprox
cl_methods = ewc, nr
"""
        suite = parse_config(write_config(tmp_path, text))
        # the two strategies collapse for each FCL method
        assert len(suite.experiments) == 2
        assert all(s.values["strategy"] == "fedavg" for s in suite.experiments)

    def test_suite_section(self, tmp_path):
        text = MINIMAL + "\n[suite]\nsynthetic_n = 123\nsynthetic_noise = 0.2\n"
        suite = parse_config(write_config(tmp_path, text))
        assert suite.suite.synthetic_n == 123
        assert suite.suite.synthetic_noise == 0.2

    def test_inline_comments_ignored(self, tmp_path):
        path = write_config(tmp_path, "[experiment]\nclients = 4 ; four shards\n")
        suite = parse_config(path)
        assert suite.experiments[0].values["clients"] == 4


class TestRunId:
    def test_deterministic(self, tmp_path):
        a = parse_config(write_config(tmp_path, MINIMAL)).experiments[0]
        b = parse_config(write_config(tmp_path, MINIMAL, "again.ini")).experiments[0]
        assert a.run_id() == b.run_id()
        assert len(a.run_id()) == 12

    def test_sensitive_to_any_value(self, tmp_path):
        base = parse_config(write_config(tmp_path, MINIMAL)).experiments[0]
        bumped = ExperimentSpec(dict(base.values, seed=4))
        assert base.run_id() != bumped.run_id()

    def test_pinned(self, tmp_path):
        # a run id names a stored directory, so it must not move
        assert parse_config(write_config(tmp_path, MINIMAL)).experiments[0].run_id() \
            == "27b9f7665d42"
        empty = parse_config(write_config(tmp_path, "[experiment]\n", "empty.ini"))
        assert empty.experiments[0].run_id() == "5ce924aaaaae"


# one strategy of valid values per [experiment] key
VALID = {
    "clients": st.integers(1, 10**6),
    "rounds": st.integers(1, 10**6),
    "local_epochs": st.integers(1, 100),
    "batch_size": st.integers(2, 4096),
    "seed": st.integers(0, 2**32 - 1),
    "learning_rate": st.floats(0.0, 10.0),
    "client_optimizer": st.sampled_from(nn.OPTIMIZERS),
    "hidden_activation": st.sampled_from(nn.HIDDEN_ACTIVATIONS),
    "augmentation": st.booleans(),
    "augment_sigma": st.floats(0.0, 10.0),
    "strategy": st.sampled_from(fed.STRATEGIES),
    "mu": st.floats(0.0, 10.0),
    "server_optimizer": st.sampled_from(nn.OPTIMIZERS),
    "server_learning_rate": st.floats(0.0, 10.0),
    "distill_weight": st.floats(0.0, 1.0),
    "weighted_aggregation": st.booleans(),
    "cl_method": st.sampled_from(cl.CL_METHODS),
    "rounds_per_task": st.none() | st.integers(1, 10**6),
    "penalty_lambda": st.none() | st.floats(0.0, 1e4),
    "gamma_online": st.floats(0.0, 1.0, exclude_min=True),
    "fisher_samples": st.integers(1, 1000),
    "si_xi": st.floats(0.0, 10.0, exclude_min=True),
    "buffer_capacity": st.integers(1, 10**6),
    "mix_ratio": st.floats(0.0, 1.0),
}


def ini_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


class TestSchema:
    def test_keys(self):
        assert len(EXPERIMENT_SCHEMA) == 24 and set(VALID) == set(EXPERIMENT_SCHEMA)

    def test_docstring_lists_every_key_with_its_default(self, tmp_path):
        block = fconfig.__doc__.split("    [experiment]\n", 1)[1].split("\n\n", 1)[0]
        text = "[experiment]\n" + textwrap.dedent(block)
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        parser.read_string(text)
        assert list(parser["experiment"]) == list(EXPERIMENT_SCHEMA)
        values = parse_config(write_config(tmp_path, text)).experiments[0].values
        assert values == {key: default for key, (_, _, default) in EXPERIMENT_SCHEMA.items()}

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_valid_values_round_trip(self, data):
        values = {key: data.draw(strategy, label=key) for key, strategy in VALID.items()}
        if values["cl_method"] != "none":
            values["strategy"] = "fedavg"  # FCL adapts fedavg only
        text = "[experiment]\n" + "".join(f"{k} = {ini_text(v)}\n" for k, v in values.items())
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "bench.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            (spec,) = parse_config(path).experiments
        assert spec.values == values
        assert {k: type(v) for k, v in spec.values.items()} == {k: type(v) for k, v in values.items()}
        assert spec.run_id() == ExperimentSpec(values).run_id()


SMALL_SUITE = """
[experiment]
rounds = 2
batch_size = 16
seed = 5
{extra}
[sweep]
strategies = fedavg, fedprox

[suite]
synthetic_n = 200
"""


@pytest.fixture
def small_suite(tmp_path):
    return parse_config(write_config(tmp_path, SMALL_SUITE.format(extra="")))


@pytest.fixture
def dataset():
    ds, _ = dataio.synthetic_generate(200, seed=0, noise_std=0.1)
    return ds


class TestStore:
    def test_round_trip(self, small_suite, dataset, tmp_path):
        store, failures = run_suite(small_suite, dataset, str(tmp_path / "out"))
        assert failures == []
        records = store.list_runs()
        assert len(records) == 2
        for record in records:
            assert record.report["final"]["avg_mse"] > 0
            assert len(record.rounds) == 2
            assert record.values["rounds"] == 2

    def test_load_preserves_exact_metrics(self, small_suite, dataset, tmp_path):
        store, _ = run_suite(small_suite, dataset, str(tmp_path / "out"))
        spec = small_suite.experiments[0]
        result = execute_experiment(spec, dataset)
        loaded = store.load_run(spec.run_id())
        assert loaded.report["final"]["avg_mse"] == result.final_report.avg_mse

    def test_fcl_report_has_after_task_stages(self, dataset, tmp_path):
        text = "[experiment]\nrounds = 2\ncl_method = nr\n"
        suite = parse_config(write_config(tmp_path, text))
        store, failures = run_suite(suite, dataset, str(tmp_path / "out"))
        assert failures == []
        record = store.list_runs()[0]
        assert set(record.report["after_task"]) == {"0", "1"}

    def test_incomplete_run_directory_named(self, small_suite, dataset, tmp_path):
        store, _ = run_suite(small_suite, dataset, str(tmp_path / "out"))
        rid = small_suite.experiments[0].run_id()
        os.remove(os.path.join(store.run_dir(rid), "rounds.csv"))
        with pytest.raises(IncompleteRunError, match="rounds.csv") as info:
            store.load_run(rid)
        assert isinstance(info.value, ValueError)
        assert store.run_dir(rid) in str(info.value)

    def test_run_directory_without_config_named(self, small_suite, dataset, tmp_path):
        store, _ = run_suite(small_suite, dataset, str(tmp_path / "out"))
        (tmp_path / "out" / "spans.tsv").write_text("index\n")  # plain files are not runs
        assert len(store.list_runs()) == 2
        rid = small_suite.experiments[1].run_id()
        os.remove(os.path.join(store.run_dir(rid), "config.json"))
        with pytest.raises(IncompleteRunError, match="config.json") as info:
            store.list_runs()
        assert store.run_dir(rid) in str(info.value)

    def test_rounds_csv_has_phase_columns(self, small_suite, dataset, tmp_path):
        store, _ = run_suite(small_suite, dataset, str(tmp_path / "out"))
        phases = ["local_train_time", "consolidate_time", "aggregate_time", "evaluate_time"]
        for record in store.list_runs():
            for row in record.rounds:
                assert list(row)[-5:] == ["wall_time"] + phases
                for name in phases:
                    assert len(row[name].split(".")[1]) == 4
                assert row["consolidate_time"] == "0.0000"

    def test_failed_write_leaves_no_run_directory(self, small_suite, dataset, tmp_path,
                                                  monkeypatch):
        out = tmp_path / "out"
        store, _ = run_suite(small_suite, dataset, str(out))
        earlier = sorted(os.listdir(out))
        real_dump = json.dump

        def dump(obj, fh, **kw):
            if os.path.basename(fh.name) == "report.json":
                raise OSError("disk full")
            real_dump(obj, fh, **kw)

        monkeypatch.setattr(json, "dump", dump)
        other = parse_config(write_config(tmp_path, SMALL_SUITE.format(extra="clients = 3"),
                                          "other.ini"))
        _, failures = run_suite(other, dataset, str(out))
        assert len(failures) == 2 and all("disk full" in msg for _, msg in failures)
        # a failed rewrite keeps the earlier run as it was
        with pytest.raises(OSError, match="disk full"):
            store.write_run(small_suite.experiments[0],
                            execute_experiment(small_suite.experiments[0], dataset))
        assert sorted(os.listdir(out)) == earlier
        assert [r.run_id for r in store.list_runs()] == earlier

    def test_rewrite_replaces_the_run_directory(self, small_suite, dataset, tmp_path):
        store, _ = run_suite(small_suite, dataset, str(tmp_path / "out"))
        spec = small_suite.experiments[0]
        stale = os.path.join(store.run_dir(spec.run_id()), "stale.txt")
        open(stale, "w").close()
        store.write_run(spec, execute_experiment(spec, dataset))
        assert not os.path.exists(stale)
        assert sorted(os.listdir(store.run_dir(spec.run_id()))) == [
            "config.json", "report.json", "rounds.csv"]
        assert len(store.list_runs()) == 2
        os.mkdir(tmp_path / "out" / ".hidden")  # e.g. a killed write's temporary directory
        assert len(store.list_runs()) == 2

    def test_rewrite_stopped_between_its_moves_keeps_the_run(self, small_suite, dataset,
                                                             tmp_path, monkeypatch):
        # a rewrite killed after the earlier run stepped aside, before the new
        # one moved in, leaves the run only under its hidden .old name
        store, _ = run_suite(small_suite, dataset, str(tmp_path / "out"))
        spec = small_suite.experiments[0]
        before = store.load_run(spec.run_id())
        real_replace = os.replace
        moves = []

        def replace(src, dst):
            moves.append(dst)
            if len(moves) == 2:
                raise KeyboardInterrupt("killed")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        with pytest.raises(KeyboardInterrupt):
            store.write_run(spec, execute_experiment(spec, dataset))
        monkeypatch.setattr(os, "replace", real_replace)
        assert not os.path.exists(store.run_dir(spec.run_id()))
        records = {r.run_id: r for r in store.list_runs()}
        assert sorted(records) == sorted(s.run_id() for s in small_suite.experiments)
        assert records[spec.run_id()].report == before.report
        assert sorted(os.listdir(tmp_path / "out")) == sorted(records)

    def test_report_carries_the_final_params_hash(self, small_suite, dataset, tmp_path):
        store, _ = run_suite(small_suite, dataset, str(tmp_path / "out"))
        for spec in small_suite.experiments:
            params = execute_experiment(spec, dataset).final_params
            assert (store.load_run(spec.run_id()).report["final_params_sha256"]
                    == hashlib.sha256(params.tobytes()).hexdigest())

    def test_failures_do_not_stop_suite(self, dataset, tmp_path):
        text = """
[experiment]
rounds = 2
batch_size = 16

[sweep]
clients = 2, 500
"""
        suite = parse_config(write_config(tmp_path, text))
        store, failures = run_suite(suite, dataset, str(tmp_path / "out"))
        assert len(failures) == 1  # 500 clients cannot shard 150 training rows
        assert len(store.list_runs()) == 1

    def test_verify_clean_then_tampered(self, small_suite, dataset, tmp_path):
        store, _ = run_suite(small_suite, dataset, str(tmp_path / "out"))
        assert verify_store(store, dataset) == []
        rid = small_suite.experiments[0].run_id()
        report_path = tmp_path / "out" / rid / "report.json"
        doc = json.loads(report_path.read_text())
        doc["final"]["avg_mse"] += 1.0
        report_path.write_text(json.dumps(doc))
        violations = verify_store(store, dataset)
        assert violations and violations[0][0] == rid


def _set_cell(row: int, column: int, value: str):
    def edit(rows):
        rows[row][column] = value
    return edit


def _set_config(key: str, value):
    def edit(snapshot):
        snapshot["config"][key] = value
        return snapshot
    return edit


@pytest.fixture(scope="module")
def stored_run(tmp_path_factory):
    """The results directory of one stored 2-round FL run (seed 5)."""
    root = tmp_path_factory.mktemp("stored")
    suite = parse_config(write_config(root, MINIMAL.replace("seed = 3", "seed = 5")))
    ds, _ = dataio.synthetic_generate(200, seed=0, noise_std=0.1)
    _, failures = run_suite(suite, ds, str(root / "out"))
    assert failures == []
    return str(root / "out")


class TestCorruptRunFiles:
    """One fixed case for each check of ``load_run`` that cutting a file or
    deleting a key does not reach, each named exactly. rounds.csv's row i is
    ``rows[i]``, its header ``rows[0]``: round, task, avg_mse, avg_rmse,
    avg_pcc, ..."""

    @pytest.mark.parametrize("name, edit, problem", [
        ("rounds.csv", lambda rows: rows[1].append("0.5"),
         "row 1 has more fields than the header"),
        ("rounds.csv", lambda rows: rows[2].pop(), "row 2 has fewer fields than the header"),
        ("rounds.csv", _set_cell(2, 0, "5"), "row 2: round '5', expected 1"),
        ("rounds.csv", _set_cell(1, 4, "high"), "row 1: avg_pcc 'high' is not a number"),
        ("rounds.csv", lambda rows: rows.pop(), "1 rounds, the run's config has 2"),
        ("config.json", _set_config("clients", 0),
         "invalid config: experiment.clients: must be >= 1, got 0"),
        ("config.json", lambda snapshot: [snapshot], "the file is not a JSON object"),
        ("report.json", lambda report: list(report), "the file is not a JSON object"),
        # whole files whose config is not the run the directory names
        ("config.json", _set_config("seed", 7),
         r"config's run id '[0-9a-f]{12}' is not the directory's name"),
        ("config.json", lambda snapshot: {**snapshot, "run_id": "0" * 12},
         "run_id '000000000000' is not the directory's name"),
    ], ids=["more-fields", "fewer-fields", "round-counter", "non-numeric", "too-few-rows",
            "invalid-config", "config-not-object", "report-not-object", "reseeded",
            "other-run-id"])
    def test_load_names_the_run_file_and_problem(self, stored_run, tmp_path, name, edit,
                                                 problem):
        out = str(tmp_path / "out")
        shutil.copytree(stored_run, out)
        (run_id,) = os.listdir(out)
        path = os.path.join(out, run_id, name)
        if name == "rounds.csv":
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            edit(rows)
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
        else:
            with open(path, encoding="utf-8") as fh:
                obj = edit(json.load(fh))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        with pytest.raises(IncompleteRunError) as info:
            ResultsStore(out).list_runs()
        prefix = re.escape(f"corrupt run directory {os.path.join(out, run_id)}: {name}: ")
        assert re.fullmatch(prefix + problem, str(info.value)), str(info.value)

    def test_a_renamed_run_directory_is_named(self, stored_run, tmp_path):
        out = str(tmp_path / "out")
        shutil.copytree(stored_run, out)
        (run_id,) = os.listdir(out)
        os.rename(os.path.join(out, run_id), os.path.join(out, "f" * 12))
        with pytest.raises(IncompleteRunError) as info:
            ResultsStore(out).list_runs()
        assert str(info.value) == (f"corrupt run directory {os.path.join(out, 'f' * 12)}: "
                                   f"config.json: run_id {run_id!r} is not the directory's name")


class TestSuiteMemory:
    # traced peak of the 1-client suite below, above the loaded dataset:
    # 8.0 MB, one copy of the rows (5.92 MB) and the temporaries of the
    # largest pass, the 15,000-row loss pass; the rows were held three times
    # (14.4 MB) when the split and the partition each kept a copy
    PASS_ALLOWANCE = 3_000_000  # bytes

    def test_a_suite_holds_one_copy_of_the_rows(self, tmp_path):
        ds, _ = dataio.synthetic_generate(20_000, seed=0, noise_std=0.1)
        suite = parse_config(write_config(tmp_path, "[experiment]\nclients = 1\nrounds = 1\n"))
        rows = ds.features.nbytes + ds.labels.nbytes
        tracemalloc.start()
        try:
            _, failures = run_suite(suite, ds, str(tmp_path / "out"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert failures == []
        assert peak < rows + self.PASS_ALLOWANCE


class TestEmitTable:
    def test_markdown_marks_best_and_second(self, dataset, tmp_path):
        # a proximal term strong enough that the two strategies differ in
        # the table's 3 decimals
        suite = parse_config(write_config(tmp_path, SMALL_SUITE.format(extra="mu = 1.0")))
        store, _ = run_suite(suite, dataset, str(tmp_path / "out"))
        doc = emit_table(store, "markdown")
        assert "## Federated Learning" in doc
        assert "**" in doc and "[" in doc  # best bolded, runner-up bracketed
        assert "fedavg" in doc and "fedprox" in doc

    def test_csv_parses_back(self, small_suite, dataset, tmp_path):
        store, _ = run_suite(small_suite, dataset, str(tmp_path / "out"))
        doc = emit_table(store, "csv")
        lines = [l for l in doc.strip().splitlines() if l]
        header = lines[0].split(",")
        assert header[0] == "Method"
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == len(header)
            for cell in cells[1:]:
                float(cell)  # every metric cell is numeric

    def test_three_decimals(self, small_suite, dataset, tmp_path):
        store, _ = run_suite(small_suite, dataset, str(tmp_path / "out"))
        doc = emit_table(store, "csv")
        cell = doc.strip().splitlines()[1].split(",")[1]
        assert len(cell.split(".")[1]) == 3

    def test_runs_that_differ_in_other_keys_keep_their_own_rows(self, dataset, tmp_path):
        # three seeds of one strategy are three runs: each is a row of its
        # own, labelled by the key that tells it apart
        suite = parse_config(write_config(tmp_path, SMALL_SUITE.format(extra="").replace(
            "strategies = fedavg, fedprox", "seeds = 1, 2, 3")))
        store, _ = run_suite(suite, dataset, str(tmp_path / "out"))
        assert len(store.list_runs()) == 3
        rows = emit_table(store, "csv").strip().splitlines()[1:]
        assert sorted(row.split(",")[0] for row in rows) == [
            "fedavg seed=1", "fedavg seed=2", "fedavg seed=3"]
        finals = {r.values["seed"]: r.report["final"] for r in store.list_runs()}
        for row in rows:
            seed = int(row.split(",")[0].rpartition("=")[2])
            assert row.split(",")[1:] == [f"{finals[seed][key]:.3f}"
                                          for key in ("avg_mse", "avg_rmse", "avg_pcc")]

    def test_empty_store_rejected(self, tmp_path):
        store = ResultsStore(str(tmp_path / "empty"))
        with pytest.raises(ValueError):
            emit_table(store)

    def test_unknown_format_rejected(self, small_suite, dataset, tmp_path):
        store, _ = run_suite(small_suite, dataset, str(tmp_path / "out"))
        with pytest.raises(ValueError):
            emit_table(store, "html")
