"""The benchmark (perfbench/) traces fedcl through names it looks up at run
time. These tests fail when fedcl renames or removes one of them."""

import dataclasses
import importlib
import importlib.util
import inspect
import math
import pathlib
import sys

import numpy as np
import pytest

from fedcl import data as dataio
from fedcl import nn
from fedcl import store
from fedcl.config import parse_config
from fedcl.continual import PenaltyConfig
from fedcl.orchestrator import ExperimentConfig, run_fcl, run_group
from fedcl.strategies import StrategyConfig

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    missing = []
    for layer, quals in tracing.LAYERS.items():
        module = importlib.import_module(f"fedcl.{layer}")
        for qual in quals:
            owner = module
            for part in qual.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{qual}")
    assert not missing


def test_backward_arguments_the_row_counter_reads():
    # nn.backward.train_rows counts len(batch) at index 1 when mode, at
    # index 4 and "train" by default, is "train"; a ragged step's counts
    # come after mode, and its batch holds the real rows alone
    params = inspect.signature(nn.backward).parameters
    names = list(params)
    assert names[1] == "batch" and names[4] == "mode" and names[5] == "counts"
    assert params["mode"].default == "train" and params["counts"].default is None


@pytest.mark.parametrize("method", ["ewc", "mas", "nr"])
def test_consolidation_adds_no_training_rows(method, monkeypatch):
    # nn.backward.train_rows, the numerator of train_samples_per_s, counts
    # train-mode rows; consolidation must take its gradients in eval mode
    calls = []
    original = nn.backward

    def recording(*args, **kwargs):
        mode = args[4] if len(args) > 4 else kwargs.get("mode", "train")
        calls.append((sys._getframe(1).f_globals["__name__"], mode))
        return original(*args, **kwargs)

    monkeypatch.setattr(nn, "backward", recording)
    ds, _ = dataio.synthetic_two_task(200, seed=0, noise_std=0.05)
    train, test = dataio.train_test_split(ds, 0.75, seed=0)
    run_fcl(ExperimentConfig(n_clients=2, n_rounds=2, batch_size=16, cl_method=method),
            train, test)
    assert ("fedcl.orchestrator", "train") in calls
    if method == "ewc":  # the Fisher diagonal's backward is seen
        assert ("fedcl.continual", "eval") in calls
    assert ("fedcl.continual", "train") not in calls


def record_train_rows(monkeypatch, ragged: list | None = None) -> list[int]:
    """The row count of every train-mode nn.backward call, as the benchmark
    counts it (len of the positional batch), after checking that the batch
    is a 2-D client-major array: the same number of rows for each model,
    or, in a ragged step, the rows its counts give, at least 2 a model. The
    counts of each ragged step go to ``ragged``."""
    rows = []
    original = nn.backward

    def recording(model, batch, target, extra_penalty_grad=None, mode="train", counts=None):
        if mode == "train":
            models = 1 if model.params.ndim == 1 else model.params.shape[0]
            assert batch.ndim == 2 and batch.shape[1] == nn.IN_DIM
            assert target.shape == (len(batch), nn.OUT_DIM)
            if counts is None:
                assert len(batch) % models == 0
            else:
                assert len(counts) == models and min(counts) >= 2
                assert sum(counts) == len(batch)
                if ragged is not None:
                    ragged.append(list(counts))
            rows.append(len(batch))
        return original(model, batch, target, extra_penalty_grad, mode, counts)

    monkeypatch.setattr(nn, "backward", recording)
    return rows


def plain_epoch_rows(n: int, batch_size: int) -> int:
    """Rows one epoch of plain minibatches trains: all but a trailing single."""
    return n - 1 if n % min(batch_size, n) == 1 else n


@pytest.mark.parametrize("batch_size", [16, 17])
def test_train_rows_are_the_rows_trained_in_a_group(batch_size, monkeypatch):
    # nn.backward.train_rows, the numerator of train_samples_per_s, must count
    # each trained row once: a FedAvg and a FedDistill member train as one
    # stack (FedDistill's teachers train the same rows in it, a round ahead
    # of their students, and round 0 alone first); 120-row shards
    # end in a ragged batch of 8 rows at 16, and in a dropped single row at 17
    ds, _ = dataio.synthetic_two_task(240, seed=0, noise_std=0.05)
    train, test = dataio.train_test_split(ds, 0.75, seed=0)
    fedavg = ExperimentConfig(n_clients=3, n_rounds=2, local_epochs=2, batch_size=batch_size)
    distill = dataclasses.replace(fedavg, strategy=StrategyConfig("feddistill", distill_weight=0.5))
    rows = record_train_rows(monkeypatch)
    run_group([fedavg, distill], train, test, continual=False)
    shards = [p.shard for p in dataio.partition_clients(train, 3, fedavg.seed)]
    per_member = 2 * 2 * sum(plain_epoch_rows(len(s), batch_size) for s in shards)
    assert sum(rows) == 3 * per_member  # FedAvg's students, FedDistill's students and teachers


def test_train_rows_are_the_rows_trained_with_replay(monkeypatch):
    # an NR client's task-2 batches mix n_new shard rows with n_buf replayed rows
    ds, _ = dataio.synthetic_two_task(240, seed=0, noise_std=0.05)
    train, test = dataio.train_test_split(ds, 0.75, seed=0)
    cfg = ExperimentConfig(n_clients=2, n_rounds=2, batch_size=16, cl_method="nr",
                           penalty=PenaltyConfig(buffer_capacity=50, mix_ratio=0.5))
    rows = record_train_rows(monkeypatch)
    run_fcl(cfg, train, test)
    splits = [dataio.split_tasks(p.shard) for p in dataio.partition_clients(train, 2, cfg.seed)]
    task1 = sum(plain_epoch_rows(len(s.task1), 16) for s in splits)
    task2 = 0
    for s in splits:
        n = len(s.task2)
        n_buf = math.floor(0.5 * min(16, n))
        task2 += n + n_buf * math.ceil(n / (min(16, n) - n_buf))
    assert sum(rows) == 2 * (task1 + task2)


def test_train_rows_are_the_rows_trained_in_a_ragged_step(monkeypatch):
    # an EWC and an SI member of 3 clients fork from one task-1 lead; their
    # task-2 shards have distinct sizes, so their last batches step as
    # ragged steps, padded inside nn.backward, where pad rows must not count
    ds, _ = dataio.synthetic_two_task(240, seed=0, noise_std=0.05)
    train, test = dataio.train_test_split(ds, 0.75, seed=0)
    ewc = ExperimentConfig(n_clients=3, n_rounds=2, local_epochs=2, batch_size=16,
                           cl_method="ewc")
    ragged = []
    rows = record_train_rows(monkeypatch, ragged)
    run_group([ewc, dataclasses.replace(ewc, cl_method="si")], train, test, continual=True)
    splits = [dataio.split_tasks(p.shard) for p in dataio.partition_clients(train, 3, ewc.seed)]
    task2 = [len(s.task2) for s in splits]
    assert len(set(task2)) == 3 and ragged  # the tails did step ragged
    task1 = sum(plain_epoch_rows(len(s.task1), 16) for s in splits)
    # task 1 once, by the lead; task 2 once per member
    assert sum(rows) == 2 * 2 * (task1 + 2 * sum(plain_epoch_rows(n, 16) for n in task2))


def test_run_suite_executes_each_experiment_once_in_suite_order(tmp_path, monkeypatch):
    # the benchmark's traced process records each run's final_params digest
    # from store.execute_experiment: call_args[0].run_id() and
    # result.final_params, so run_suite must call it once per experiment,
    # in suite order, with the spec first, and get that experiment's result
    path = tmp_path / "suite.ini"
    path.write_text("""
[experiment]
rounds = 2
batch_size = 16

[sweep]
strategies = fedavg, fedprox
cl_methods = none, nr
clients = 2, 3

[suite]
synthetic_n = 200
""")
    suite = parse_config(str(path))
    dataset, _ = dataio.synthetic_generate(200, seed=1, noise_std=0.1)
    calls = []
    original = store.execute_experiment

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(store, "execute_experiment", recording)
    _, failures = store.run_suite(suite, dataset, str(tmp_path / "out"))
    assert not failures
    assert len(calls) == len(suite.experiments) == 6
    for (args, result), spec in zip(calls, suite.experiments):
        assert args[0] is spec
        alone = original(spec, dataset)
        assert np.array_equal(result.final_params, alone.final_params)
        assert result.round_logs[-1].report.avg_mse == alone.round_logs[-1].report.avg_mse
