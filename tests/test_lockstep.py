"""Lockstep groups: experiments of one shape train as one client cohort, and
each must compute exactly the bits it computes alone (acceptance criterion
9's form, one level up: experiments instead of clients)."""

import dataclasses
import hashlib

import numpy as np
import pytest

import fedcl.orchestrator as orch
from fedcl import continual as cl
from fedcl import data as dataio
from fedcl import strategies as fed
from fedcl import store
from fedcl.config import BenchmarkSuite, ExperimentSpec, parse_config

GRID = """
[experiment]
rounds = 2
batch_size = 32
seed = 42
{extra}

[sweep]
{sweep}
clients = 2, 10
augmentation = false, true

[suite]
synthetic_n = 400
"""

MIXED = """
[experiment]
rounds = 2
batch_size = 16
local_epochs = 2
client_optimizer = sgd
learning_rate = 0.01
hidden_activation = relu
clients = 2
seed = 9

[sweep]
{sweep}

[suite]
synthetic_n = 300
"""


def suite_of(tmp_path, text, name):
    path = tmp_path / name
    path.write_text(text)
    return parse_config(str(path))


def digest(result):
    return (hashlib.sha256(result.final_params.tobytes()).hexdigest(),
            [repr(log.report.avg_mse) for log in result.round_logs],
            [log.client_train_losses for log in result.round_logs])


def run_grouped(suite, dataset, out_dir, monkeypatch):
    """run_suite, keeping the result execute_experiment hands back for each
    experiment, and the members of every local_train cohort."""
    results, cohorts = {}, []
    execute, train = store.execute_experiment, orch.local_train

    def recording_execute(spec, *args, **kwargs):
        results[spec.run_id()] = execute(spec, *args, **kwargs)
        return results[spec.run_id()]

    def recording_train(clients, *args):
        cohorts.append({id(c.member) for c in clients})
        return train(clients, *args)

    with monkeypatch.context() as patch:
        patch.setattr(store, "execute_experiment", recording_execute)
        patch.setattr(orch, "local_train", recording_train)
        _, failures = store.run_suite(suite, dataset, out_dir)
    return results, failures, cohorts


@pytest.mark.parametrize("cap", [orch.COHORT_CAP, 3])
@pytest.mark.parametrize("sweep", [
    "strategies = fedavg, fedbn, fedprox, fedopt, feddistill",
    "cl_methods = ewc, ewc_online, si, mas, nr",
], ids=["fl_grid", "fcl_grid"])
def test_grouped_suite_equals_experiments_run_alone(sweep, cap, tmp_path, monkeypatch):
    suite = suite_of(tmp_path, GRID.format(sweep=sweep, extra=""), "grid.ini")
    dataset, _ = dataio.synthetic_generate(400, seed=3, noise_std=0.1)
    monkeypatch.setattr(store, "GROUP_CLIENTS", 20)
    groups = {id(g): g for g in store.group_suite(suite.experiments, dataset).values()}
    # a 2-client cell is one group; a 10-client cell, at most 20 clients each
    assert sorted(len(g.specs) for g in groups.values()) == [1, 1, 2, 2, 2, 2, 5, 5]
    monkeypatch.setattr(orch, "COHORT_CAP", cap)
    grouped, failures, cohorts = run_grouped(suite, dataset, str(tmp_path / "out"), monkeypatch)
    assert not failures
    assert max(len(members) for members in cohorts) > 1  # cohorts mix experiments
    for spec in suite.experiments:
        alone = store.execute_experiment(spec, dataset)
        assert digest(grouped[spec.run_id()]) == digest(alone), spec.values


def test_mixed_group_equals_experiments_run_alone(tmp_path, monkeypatch):
    # SGD, relu, 2 local epochs; FedProx and FedDistill at two strengths
    # each beside FedBN and FedOpt, and the CL methods with NR, whose replay
    # batches have their own row counts. FCL runs only FedAvg, so the FL
    # and FCL members form two groups of the same settings.
    fl = suite_of(tmp_path, MIXED.format(
        sweep="strategies = fedavg, fedprox, fedbn, feddistill, fedopt"), "fl.ini")
    fcl = suite_of(tmp_path, MIXED.format(
        sweep="cl_methods = ewc, ewc_online, si, mas, nr"), "fcl.ini")
    prox, distill = (next(s for s in fl.experiments if s.values["strategy"] == kind)
                     for kind in ("fedprox", "feddistill"))
    experiments = fl.experiments + [ExperimentSpec(dict(prox.values, mu=0.5)),
                                    ExperimentSpec(dict(distill.values, distill_weight=0.25))
                                    ] + fcl.experiments
    suite = BenchmarkSuite(experiments, fl.suite)
    dataset, _ = dataio.synthetic_generate(300, seed=4, noise_std=0.1)
    groups = store.group_suite(suite.experiments, dataset)
    assert sorted(len(g.specs) for g in {id(g): g for g in groups.values()}.values()) == [5, 7]
    grouped, failures, cohorts = run_grouped(suite, dataset, str(tmp_path / "out"), monkeypatch)
    assert not failures
    assert max(len(members) for members in cohorts) >= 3
    for spec in suite.experiments:
        assert digest(grouped[spec.run_id()]) == digest(store.execute_experiment(spec, dataset))


def test_a_diverging_member_fails_alone(tmp_path, monkeypatch):
    # with SGD, FedProx at mu 1000 overshoots and its gradient overflows in
    # round 1, inside steps it shares with the other members' rows
    suite = suite_of(tmp_path, """
[experiment]
rounds = 3
batch_size = 16
clients = 2
client_optimizer = sgd
learning_rate = 0.05
mu = 1000

[sweep]
strategies = fedavg, fedprox, fedbn, feddistill

[suite]
synthetic_n = 200
""", "diverge.ini")
    dataset, _ = dataio.synthetic_generate(200, seed=0, noise_std=0.1)
    diverging = next(s for s in suite.experiments if s.values["strategy"] == "fedprox")
    with np.errstate(all="ignore"):
        with pytest.raises(orch.ExperimentError) as alone:
            store.execute_experiment(diverging, dataset)
        grouped, failures, cohorts = run_grouped(suite, dataset, str(tmp_path / "out"),
                                                 monkeypatch)
    assert str(alone.value).startswith("client ")
    assert "failed in round 1: epoch 0 batch" in str(alone.value)
    assert failures == [(diverging.run_id(), str(alone.value))]
    assert max(len(members) for members in cohorts) == 4
    others = [s for s in suite.experiments if s is not diverging]
    assert sorted(grouped) == sorted(s.run_id() for s in others)
    for spec in others:
        assert digest(grouped[spec.run_id()]) == digest(store.execute_experiment(spec, dataset))


def test_a_spec_listed_twice_runs_twice(tmp_path):
    suite = suite_of(tmp_path, MIXED.format(sweep="strategies = fedavg, fedprox"), "twice.ini")
    suite = BenchmarkSuite(suite.experiments + suite.experiments[:1], suite.suite)
    dataset, _ = dataio.synthetic_generate(300, seed=4, noise_std=0.1)
    _, failures = store.run_suite(suite, dataset, str(tmp_path / "out"))
    assert not failures


def test_group_key_is_every_field_but_the_members_own():
    # a member's strategy, CL method and penalty options ride on its
    # clients; any other field, also one added later, splits groups
    base = orch.ExperimentConfig()
    own = {"strategy": fed.StrategyConfig("fedprox", mu=0.5), "cl_method": "ewc",
           "penalty": cl.PenaltyConfig(lambda_=3.0, gamma_online=0.5)}
    choices = {"client_optimizer": "sgd", "hidden_activation": "relu"}
    for f in dataclasses.fields(orch.ExperimentConfig):
        value = getattr(base, f.name)
        if f.name in own:
            changed = own[f.name]
        elif isinstance(value, bool):
            changed = not value
        elif isinstance(value, (int, float)):
            changed = value + 1
        elif value is None:
            changed = 3
        else:
            changed = choices[f.name]
        key = orch.group_key(dataclasses.replace(base, **{f.name: changed}))
        assert (key == orch.group_key(base)) == (f.name in own), f.name
