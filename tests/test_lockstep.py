"""Lockstep groups: experiments of one shape train as one client cohort, and
each must compute exactly the bits it computes alone (acceptance criterion
9's form, one level up: experiments instead of clients)."""

import dataclasses
import hashlib
import itertools
import math
import re
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedcl.orchestrator as orch
from fedcl import continual as cl
from fedcl import data as dataio
from fedcl import nn
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


class Cohort(NamedTuple):
    task_index: int
    round_index: int
    members: set     # id() of the Member of each client
    clients: int
    chunk: int       # its chunk: the count of chunks started by its call


def run_grouped(suite, dataset, out_dir, monkeypatch):
    """run_suite, keeping the result execute_experiment hands back for each
    experiment, and every local_train cohort."""
    results, cohorts, chunks = {}, [], [0]
    execute, train, lockstep = store.execute_experiment, orch.local_train, orch._lockstep

    def recording_execute(spec, *args, **kwargs):
        results[spec.run_id()] = execute(spec, *args, **kwargs)
        return results[spec.run_id()]

    def recording_train(clients, task_index, round_index, stacks=None):
        cohorts.append(Cohort(task_index, round_index, {id(c.member) for c in clients},
                              len(clients), chunks[0]))
        return train(clients, task_index, round_index, stacks)

    def counting_lockstep(*args, **kwargs):
        chunks[0] += 1
        return lockstep(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(store, "execute_experiment", recording_execute)
        patch.setattr(orch, "local_train", recording_train)
        patch.setattr(orch, "_lockstep", counting_lockstep)
        _, failures = store.run_suite(suite, dataset, out_dir)
    return results, failures, cohorts


def record_shapes(monkeypatch) -> list[int]:
    """The member count of each shape the suite's stream trains, as it
    calls group_outcomes."""
    sizes, outcomes = [], store.group_outcomes

    def recording(configs, *args, **kwargs):
        sizes.append(len(configs))
        return outcomes(configs, *args, **kwargs)

    monkeypatch.setattr(store, "group_outcomes", recording)
    return sizes


@pytest.mark.parametrize("group_clients", [20, 10, 3])
@pytest.mark.parametrize("sweep, chunk_members", [
    # FL members never fork: at 20 clients a 2-client cell trains its
    # members at once and a 10-client cell 2, 2 and 1 at a time; at 10 the
    # 10-client cell trains one at a time, and at 3 every member trains
    # alone, a 10-client one as one stack of more clients than the cap
    ("strategies = fedavg, fedbn, fedprox, fedopt, feddistill",
     {20: [1, 2, 5], 10: [1, 5], 3: [1]}),
    # EWC-Online is EWC's twin, so 4 distinct members train; 1 is the lead
    ("cl_methods = ewc, ewc_online, si, mas, nr", {20: [1, 2, 4], 10: [1, 4], 3: [1]}),
], ids=["fl_grid", "fcl_grid"])
def test_grouped_suite_equals_experiments_run_alone(sweep, chunk_members, group_clients,
                                                    tmp_path, monkeypatch):
    suite = suite_of(tmp_path, GRID.format(sweep=sweep, extra=""), "grid.ini")
    dataset, _ = dataio.synthetic_generate(400, seed=3, noise_std=0.1)
    shapes = record_shapes(monkeypatch)
    monkeypatch.setattr(orch, "GROUP_CLIENTS", group_clients)
    grouped, failures, cohorts = run_grouped(suite, dataset, str(tmp_path / "out"), monkeypatch)
    assert sorted(shapes) == [5, 5, 5, 5]  # one per shape
    assert not failures
    # each round of a chunk is one local_train call, of at most
    # GROUP_CLIENTS clients unless one member alone has more
    assert len({(c.chunk, c.task_index, c.round_index) for c in cohorts}) == len(cohorts)
    assert all(c.clients <= group_clients or len(c.members) == 1 for c in cohorts)
    assert sorted({len(c.members) for c in cohorts}) == chunk_members[group_clients]
    for spec in suite.experiments:
        alone = store.execute_experiment(spec, dataset)
        assert digest(grouped[spec.run_id()]) == digest(alone), spec.values


def test_mixed_group_equals_experiments_run_alone(tmp_path, monkeypatch):
    # SGD, relu, 2 local epochs; FedProx and FedDistill at two strengths
    # each beside FedBN and FedOpt, and the CL methods with NR, whose replay
    # batches have their own row counts. FCL runs only FedAvg, so the FL
    # and FCL members form two groups of the same settings. A third group,
    # the FL members in reverse order at another seed, starts with FedOpt.
    fl = suite_of(tmp_path, MIXED.format(
        sweep="strategies = fedavg, fedprox, fedbn, feddistill, fedopt"), "fl.ini")
    fcl = suite_of(tmp_path, MIXED.format(
        sweep="cl_methods = ewc, ewc_online, si, mas, nr"), "fcl.ini")
    prox, distill = (next(s for s in fl.experiments if s.values["strategy"] == kind)
                     for kind in ("fedprox", "feddistill"))
    experiments = fl.experiments + [ExperimentSpec(dict(prox.values, mu=0.5)),
                                    ExperimentSpec(dict(distill.values, distill_weight=0.25))
                                    ] + fcl.experiments + [
        ExperimentSpec(dict(s.values, seed=10)) for s in reversed(fl.experiments)]
    suite = BenchmarkSuite(experiments, fl.suite)
    dataset, _ = dataio.synthetic_generate(300, seed=4, noise_std=0.1)
    shapes = record_shapes(monkeypatch)
    assert suite.experiments[-5].values["strategy"] == "fedopt"
    grouped, failures, cohorts = run_grouped(suite, dataset, str(tmp_path / "out"), monkeypatch)
    assert sorted(shapes) == [5, 5, 7]
    assert not failures
    assert max(len(c.members) for c in cohorts) >= 3
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
    assert max(len(c.members) for c in cohorts) == 4
    others = [s for s in suite.experiments if s is not diverging]
    assert sorted(grouped) == sorted(s.run_id() for s in others)
    for spec in others:
        assert digest(grouped[spec.run_id()]) == digest(store.execute_experiment(spec, dataset))


def test_fl_members_never_fork(tmp_path, monkeypatch):
    # every FL member trains from round 0 in its chunk, so a 2-client group
    # of the five strategies makes one local_train call a round, of all of
    # them, and none before
    suite = suite_of(tmp_path, MIXED.format(
        sweep="strategies = fedavg, fedbn, fedprox, fedopt, feddistill"), "fl.ini")
    dataset, _ = dataio.synthetic_generate(300, seed=4, noise_std=0.1)
    grouped, failures, cohorts = run_grouped(suite, dataset, str(tmp_path / "out"), monkeypatch)
    assert not failures
    assert [(c.round_index, len(c.members), c.clients) for c in cohorts] == [(0, 5, 10),
                                                                            (1, 5, 10)]
    for spec in suite.experiments:
        assert digest(grouped[spec.run_id()]) == digest(store.execute_experiment(spec, dataset))


def test_a_lead_is_let_go_as_its_last_member_forks(monkeypatch):
    # 10 clients a member: the chunks are EWC and SI, then MAS and NR. The
    # lead, the SI member's run and the group's first, is gone once NR, the
    # share's last member, forks as its chunk starts, before that chunk's
    # first local training
    configs = [orch.ExperimentConfig(n_clients=10, n_rounds=2, seed=42, cl_method=method)
               for method in ("ewc", "si", "mas", "nr")]
    dataset, _ = dataio.synthetic_generate(400, seed=3, noise_std=0.1)
    train, test = dataio.train_test_split(dataset, 0.75, 42)
    runs, seen, init, local_train = [], [], orch._Run.__init__, orch.local_train

    def recording_init(self, config, *args, **kwargs):
        init(self, config, *args, **kwargs)
        runs.append((weakref.ref(self), config.cl_method))

    def checking_train(clients, *args, **kwargs):
        if not seen and any(c.member.config.cl_method == "mas" for c in clients):
            seen.append(runs[0][0]() is None)
        return local_train(clients, *args, **kwargs)

    monkeypatch.setattr(orch._Run, "__init__", recording_init)
    monkeypatch.setattr(orch, "local_train", checking_train)
    outcomes = orch.run_group(configs, train, test, continual=True)
    assert not any(isinstance(outcome, Exception) for outcome in outcomes)
    assert runs[0][1] == "si"
    assert seen == [True]


def test_a_group_wide_error_leaves_each_member_its_own_traceback(tmp_path):
    # no circle rows: every client's task-1 shard is empty, which stops the
    # whole group before it trains
    suite = suite_of(tmp_path, MIXED.format(sweep="cl_methods = ewc, si, nr"), "nocircle.ini")
    dataset, _ = dataio.synthetic_generate(300, seed=4, noise_std=0.1)
    dataset.features[:, 0] = 0.0
    out = tmp_path / "out"
    _, failures = store.run_suite(suite, dataset, str(out))
    assert [m for _, m in failures] == ["client 0: task 1 shard is empty"] * 3
    texts = [(out / f"{run_id}.failed.txt").read_text() for run_id, _ in failures]
    assert texts[0] == texts[1] == texts[2]
    assert texts[0].count(", in execute_experiment\n") == 1


def test_a_cohort_wide_error_gives_each_member_its_own(monkeypatch):
    def failing_train(clients, task_index, round_index, stacks=None):
        raise RuntimeError("the cohort failed")

    configs = [orch.ExperimentConfig(n_clients=2, n_rounds=2, strategy=fed.StrategyConfig(kind))
               for kind in ("fedavg", "fedprox", "feddistill")]
    dataset, _ = dataio.synthetic_generate(200, seed=1, noise_std=0.1)
    train, test = dataio.train_test_split(dataset, 0.75, configs[0].seed)
    monkeypatch.setattr(orch, "local_train", failing_train)
    outcomes = orch.run_group(configs, train, test, continual=False)
    assert all(isinstance(o, RuntimeError) and str(o) == "the cohort failed" for o in outcomes)
    assert len({id(o) for o in outcomes}) == 3


def test_a_failure_in_finish_round_stops_only_its_own_run(monkeypatch):
    # the FedProx member's aggregation fails in round 1, after the chunk's
    # shared training: it stops with that very error and aggregates no more,
    # and the members it trained beside compute the bits they compute alone
    configs = [orch.ExperimentConfig(n_clients=3, n_rounds=3, batch_size=16,
                                     strategy=fed.StrategyConfig(kind))
               for kind in ("fedavg", "fedprox", "fedopt")]
    dataset, _ = dataio.synthetic_generate(300, seed=1, noise_std=0.1)
    train, test = dataio.train_test_split(dataset, 0.75, configs[0].seed)
    alone = [orch.run_fl(config, train, test) for config in configs]
    aggregate, error, calls = orch._aggregate, RuntimeError("aggregation failed"), []

    def failing_aggregate(global_params, updates, config, server_opt):
        calls.append(config.strategy.kind)
        if config is configs[1] and calls.count("fedprox") == 2:
            raise error
        return aggregate(global_params, updates, config, server_opt)

    monkeypatch.setattr(orch, "_aggregate", failing_aggregate)
    outcomes = orch.run_group(configs, train, test, continual=False)
    assert outcomes[1] is error
    assert calls == ["fedavg", "fedprox", "fedopt"] * 2 + ["fedavg", "fedopt"]
    for i in (0, 2):
        assert digest(outcomes[i]) == digest(alone[i]), configs[i].strategy.kind


def test_a_spec_listed_twice_trains_once(tmp_path, monkeypatch):
    # the second listing is a trajectory twin of the first in its shape:
    # the suite trains what it trains with the spec listed once, and
    # writes the twin's run
    once = suite_of(tmp_path, MIXED.format(sweep="strategies = fedavg, fedprox"), "twice.ini")
    twice = BenchmarkSuite(once.experiments + once.experiments[:1], once.suite)
    dataset, _ = dataio.synthetic_generate(300, seed=4, noise_std=0.1)
    trained = []
    for name, suite in (("once", once), ("twice", twice)):
        grouped, failures, cohorts = run_grouped(suite, dataset, str(tmp_path / name),
                                                 monkeypatch)
        assert not failures
        trained.append([(c.task_index, c.round_index, c.clients) for c in cohorts])
    assert trained[0] == trained[1]
    assert sorted(p.name for p in (tmp_path / "twice").iterdir()) == sorted(
        s.run_id() for s in once.experiments)
    spec = twice.experiments[-1]
    assert digest(grouped[spec.run_id()]) == digest(store.execute_experiment(spec, dataset))


def test_a_shape_that_fails_midway_keeps_what_it_handed_out(tmp_path, monkeypatch):
    # group_outcomes hands out one member's result, then stops: that member
    # is written, and each later member fails with its own copy of the error
    suite = suite_of(tmp_path, MIXED.format(sweep="strategies = fedavg, fedprox, feddistill"),
                     "midway.ini")
    dataset, _ = dataio.synthetic_generate(300, seed=4, noise_std=0.1)
    handed, errors = [], []
    outcomes, execute = store.group_outcomes, store.execute_experiment

    def failing_outcomes(*args, **kwargs):
        first = next(outcomes(*args, **kwargs))
        handed.append(suite.experiments[first[0]])
        yield first
        raise RuntimeError("the shape failed")

    def recording_execute(spec, dataset, outcome=None):
        if isinstance(outcome, Exception):
            errors.append(outcome)
        return execute(spec, dataset, outcome)

    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr(store, "group_outcomes", failing_outcomes)
        patch.setattr(store, "execute_experiment", recording_execute)
        results, failures = store.run_suite(suite, dataset, str(out))
        # the stream hands out each member once
        assert sorted(p for p, _ in store._stream(suite.experiments, dataset)) == [0, 1, 2]
    first = handed[0]
    later = [s for s in suite.experiments if s is not first]
    assert failures == [(s.run_id(), "the shape failed") for s in later]
    assert len(errors) == 2 and errors[0] is not errors[1]
    assert all(isinstance(e, RuntimeError) for e in errors)
    assert [r.run_id for r in results.list_runs()] == [first.run_id()]
    stored = results.load_run(first.run_id()).report["final_params_sha256"]
    params = store.execute_experiment(first, dataset).final_params
    assert stored == hashlib.sha256(params.tobytes()).hexdigest()


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


FCL10 = """
[experiment]
rounds = 3
rounds_per_task = {rounds_per_task}
batch_size = 32
clients = 10
seed = 42
{extra}

[sweep]
cl_methods = ewc, ewc_online, si, mas, nr

[suite]
synthetic_n = 400
"""


@pytest.mark.parametrize("group_clients", [20, 10, 3])
def test_fcl_task_1_trains_once_per_shape(group_clients, tmp_path, monkeypatch):
    # nothing in task 1 reads the CL method, so one FedAvg run trains it,
    # one local_train call a round, and every member forks from it at the
    # task-1 consolidation
    suite = suite_of(tmp_path, FCL10.format(rounds_per_task=2, extra=""), "fcl10.ini")
    dataset, _ = dataio.synthetic_generate(400, seed=3, noise_std=0.1)
    monkeypatch.setattr(orch, "GROUP_CLIENTS", group_clients)
    grouped, failures, cohorts = run_grouped(suite, dataset, str(tmp_path / "out"), monkeypatch)
    assert not failures
    assert [(c.round_index, c.clients) for c in cohorts if c.task_index == 0] == [(0, 10), (1, 10)]
    # task 2 trains the 4 distinct members (EWC-Online is EWC's twin) in
    # chunks of at most GROUP_CLIENTS clients, or of one member that has
    # more, each chunk one call a round
    task_2 = [c for c in cohorts if c.task_index == 1]
    per_chunk = max(1, group_clients // 10)
    assert len(task_2) == 2 * math.ceil(4 / per_chunk)
    assert all(len(c.members) == per_chunk for c in task_2)
    assert sum(c.clients for c in task_2) == 2 * 4 * 10
    for spec in suite.experiments:
        assert digest(grouped[spec.run_id()]) == digest(store.execute_experiment(spec, dataset))


def test_members_of_other_options_fork_from_their_share(tmp_path, monkeypatch):
    # the CL options act from the fork on, so they share task 1; the
    # aggregation weighting changes task 1 itself, so it makes a second share
    base = suite_of(tmp_path, MIXED.format(sweep="cl_methods = ewc, si, nr"), "opts.ini")
    ewc, si, nr = base.experiments
    variants = [dict(ewc.values, fisher_samples=3), dict(si.values, si_xi=0.5),
                dict(nr.values, buffer_capacity=20),
                dict(ewc.values, weighted_aggregation=True),
                dict(si.values, weighted_aggregation=True)]
    suite = BenchmarkSuite(base.experiments + [ExperimentSpec(v) for v in variants], base.suite)
    dataset, _ = dataio.synthetic_generate(300, seed=4, noise_std=0.1)
    grouped, failures, cohorts = run_grouped(suite, dataset, str(tmp_path / "out"), monkeypatch)
    assert not failures
    # two shares of 2 clients, 2 task-1 rounds each
    assert sum(c.clients for c in cohorts if c.task_index == 0) == 2 * 2 * 2
    digests = {}
    for spec in suite.experiments:
        digests[spec.run_id()] = digest(store.execute_experiment(spec, dataset))
        assert digest(grouped[spec.run_id()]) == digests[spec.run_id()], spec.values
    assert len({d[0] for d in digests.values()}) == len(suite.experiments)


@pytest.mark.parametrize("rounds_per_task", [2, 3])
def test_a_diverging_task_1_fails_every_member_alone(rounds_per_task, tmp_path, monkeypatch):
    # SGD at a huge learning rate overflows in round 1, in task 1, which
    # the five members share: in its last round (2 rounds per task) or
    # before it (3). Each member reports the error it gets when it runs alone.
    suite = suite_of(tmp_path, FCL10.format(
        rounds_per_task=rounds_per_task,
        extra="client_optimizer = sgd\nlearning_rate = 1e100"), "diverge.ini")
    dataset, _ = dataio.synthetic_generate(400, seed=3, noise_std=0.1)
    alone = []
    with np.errstate(all="ignore"):
        for spec in suite.experiments:
            with pytest.raises(orch.ExperimentError) as error:
                store.execute_experiment(spec, dataset)
            alone.append((spec.run_id(), str(error.value)))
        grouped, failures, cohorts = run_grouped(suite, dataset, str(tmp_path / "out"),
                                                 monkeypatch)
        configs = [spec.build() for spec in suite.experiments]
        train, test = dataio.train_test_split(dataset, 0.75, configs[0].seed)
        outcomes = orch.run_group(configs, train, test, continual=True)
    assert not grouped
    assert failures == alone
    assert "failed in round 1: epoch 0 batch 0: NaN or inf" in alone[0][1]
    # the shared task 1 trained rounds 0 and 1, once each, then stopped
    assert [(c.task_index, c.round_index) for c in cohorts] == [(0, 0), (0, 1)]
    assert len({id(o) for o in outcomes}) == 5
    for outcome, (_, message) in zip(outcomes, alone):
        assert isinstance(outcome, orch.ExperimentError) and str(outcome) == message
        assert isinstance(outcome.__cause__, ValueError)


def test_results_are_written_as_their_chunk_finishes(tmp_path, monkeypatch):
    # a 10-client FL cell trains its 5 members in chunks of 2, 2 and 1; each
    # chunk's runs are written, and let go, before the next chunk trains
    suite = suite_of(tmp_path, """
[experiment]
rounds = 2
clients = 10

[sweep]
strategies = fedavg, fedbn, fedprox, fedopt, feddistill

[suite]
synthetic_n = 400
""", "cell.ini")
    dataset, _ = dataio.synthetic_generate(400, seed=3, noise_std=0.1)
    events, written = [], []
    write, train = store.ResultsStore.write_run, orch.local_train

    def recording_write(self, spec, result):
        events.append("write")
        written.append(weakref.ref(result))
        return write(self, spec, result)

    def recording_train(clients, task_index, round_index, stacks=None):
        events.append("train")
        assert all(ref() is None for ref in written)  # earlier chunks' results are freed
        return train(clients, task_index, round_index, stacks)

    monkeypatch.setattr(orch, "GROUP_CLIENTS", 20)
    monkeypatch.setattr(store.ResultsStore, "write_run", recording_write)
    monkeypatch.setattr(orch, "local_train", recording_train)
    _, failures = store.run_suite(suite, dataset, str(tmp_path / "out"))
    assert not failures
    runs = [(kind, len(list(same))) for kind, same in itertools.groupby(events)]
    assert [kind for kind, _ in runs] == ["train", "write"] * 3
    assert [n for kind, n in runs if kind == "write"] == [2, 2, 1]


def test_a_rounds_updates_are_let_go_before_the_next_round_trains(tmp_path, monkeypatch):
    # each client update holds a copy of its parameters; once every run has
    # aggregated them, none may stay alive while the next round's steps run
    suite = suite_of(tmp_path, """
[experiment]
rounds = 3
clients = 2

[sweep]
strategies = fedavg, fedbn, fedprox

[suite]
synthetic_n = 200
""", "rounds.ini")
    dataset, _ = dataio.synthetic_generate(200, seed=3, noise_std=0.1)
    updates, current, checked = [], [None], []
    train, backward = orch.local_train, nn.backward

    def recording_train(clients, task_index, round_index, stacks=None):
        current[0] = round_index
        result = train(clients, task_index, round_index, stacks)
        updates.extend((round_index, weakref.ref(u.params)) for u in result[0])
        return result

    def checking_backward(*args, **kwargs):
        mode = args[4] if len(args) > 4 else kwargs.get("mode", "train")
        if current[0] not in checked and mode == "train":
            checked.append(current[0])  # the round's first train-mode backward
            assert all(ref() is None for r, ref in updates if r < current[0])
        return backward(*args, **kwargs)

    monkeypatch.setattr(orch, "local_train", recording_train)
    monkeypatch.setattr(nn, "backward", checking_backward)
    _, failures = store.run_suite(suite, dataset, str(tmp_path / "out"))
    assert not failures
    assert checked == [0, 1, 2] and len(updates) == 3 * 3 * 2


TRAJECTORY_OPTIONS = {  # a value other than the default for every option
    "mu": 0.5, "server_optimizer": "sgd", "server_learning_rate": 0.02,
    "distill_weight": 0.25, "weighted_aggregation": True,
    "lambda_": 3.0, "gamma_online": 0.5, "fisher_samples": 9, "xi": 0.2,
    "buffer_capacity": 999, "mix_ratio": 0.25,
}
READS = {  # what each strategy kind and CL method reads
    "fedavg": {"weighted_aggregation"}, "fedbn": {"weighted_aggregation"},
    "fedprox": {"mu", "weighted_aggregation"},
    "fedopt": {"server_optimizer", "server_learning_rate", "weighted_aggregation"},
    "feddistill": {"distill_weight", "weighted_aggregation"},
    "none": set(), "ewc": {"lambda_", "fisher_samples"},
    # gamma_online acts from a second consolidation on; FCL has one
    "ewc_online": {"lambda_", "fisher_samples"}, "si": {"lambda_", "xi"},
    "mas": {"lambda_"}, "nr": {"buffer_capacity", "mix_ratio"},
}


@pytest.mark.parametrize("kind, method", [(kind, "none") for kind in fed.STRATEGIES] + [
    ("fedavg", method) for method in cl.CL_METHODS if method != "none"])
def test_trajectory_key_is_what_the_strategy_and_method_read(kind, method):
    base = orch.ExperimentConfig(strategy=fed.StrategyConfig(kind), cl_method=method)
    reads = READS[kind] | READS[method]
    for name, value in TRAJECTORY_OPTIONS.items():
        part = "strategy" if hasattr(base.strategy, name) else "penalty"
        changed = dataclasses.replace(
            base, **{part: dataclasses.replace(getattr(base, part), **{name: value})})
        same = orch.trajectory_key(changed) == orch.trajectory_key(base)
        assert same == (name not in reads), name


def test_trajectory_key_takes_the_effective_lambda_and_ewc_online_as_ewc():
    def key(method, lambda_=None, **penalty):
        return orch.trajectory_key(orch.ExperimentConfig(
            cl_method=method, penalty=cl.PenaltyConfig(lambda_=lambda_, **penalty)))

    for method in ("ewc", "ewc_online", "si", "mas"):
        assert key(method) == key(method, cl.DEFAULT_LAMBDAS[method])
    assert key("ewc_online", gamma_online=0.5) == key("ewc")
    assert key("ewc_online", 3.0) == key("ewc", 3.0) != key("ewc")
    # no other equivalence: FedProx at mu 0 is not FedAvg, EWC at lambda 0 not MAS
    assert key("ewc", 0.0) != key("mas", 0.0)
    prox = orch.ExperimentConfig(strategy=fed.StrategyConfig("fedprox", mu=0.0))
    assert orch.trajectory_key(prox) != orch.trajectory_key(orch.ExperimentConfig())


@st.composite
def twin_configs(draw):
    """Two configs of 2 clients and 2 rounds with equal trajectory keys: the
    second draws every option anew, then takes the first's read options (and
    lambda_ as given or as its effective value)."""
    method = draw(st.sampled_from(cl.CL_METHODS))
    kind = "fedavg" if method != "none" else draw(st.sampled_from(fed.STRATEGIES))

    def options(method):
        strategy = fed.StrategyConfig(
            kind, mu=draw(st.sampled_from([0.0, 0.01, 0.5])),
            server_optimizer=draw(st.sampled_from(["adam", "sgd"])),
            server_learning_rate=draw(st.sampled_from([0.01, 0.1])),
            distill_weight=draw(st.sampled_from([0.0, 0.5, 1.0])),
            weighted_aggregation=draw(st.booleans()))
        penalty = cl.PenaltyConfig(
            lambda_=draw(st.sampled_from([None, 1.0, 3.0, 100.0])),
            gamma_online=draw(st.sampled_from([0.5, 1.0])),
            fisher_samples=draw(st.sampled_from([2, 8])), xi=draw(st.sampled_from([0.1, 0.5])),
            buffer_capacity=draw(st.sampled_from([20, 1000])),
            mix_ratio=draw(st.sampled_from([0.25, 0.5])))
        return orch.ExperimentConfig(n_clients=2, n_rounds=2, batch_size=16, seed=5,
                                     strategy=strategy, cl_method=method, penalty=penalty)

    a = options(method)
    twin = draw(st.sampled_from(["ewc", "ewc_online"])) if method.startswith("ewc") else method
    b = options(twin)
    reads = READS[kind] | READS[method]
    lambda_ = draw(st.sampled_from([a.penalty.lambda_,
                                    a.penalty.effective_lambda(method)]))
    b.strategy = dataclasses.replace(b.strategy, **{
        n: getattr(a.strategy, n) for n in reads if hasattr(a.strategy, n)})
    b.penalty = dataclasses.replace(b.penalty, **{
        n: lambda_ if n == "lambda_" else getattr(a.penalty, n)
        for n in reads if hasattr(a.penalty, n)})
    return a, b


@settings(max_examples=25, deadline=None)
@given(twin_configs())
def test_configs_of_equal_trajectory_keys_compute_equal_bits(twins):
    a, b = twins
    assert orch.trajectory_key(a) == orch.trajectory_key(b)
    dataset, _ = dataio.synthetic_generate(200, seed=1, noise_std=0.1)
    train, test = dataio.train_test_split(dataset, 0.75, a.seed)
    run = orch.run_fcl if a.cl_method != "none" else orch.run_fl
    assert digest(run(a, train, test))[:2] == digest(run(b, train, test))[:2]


def test_a_failing_representative_gives_each_twin_its_own_error(tmp_path):
    # EWC-Online and a second EWC of another gamma_online are twins of EWC,
    # which diverges in task 2 at lambda 1e300
    base = orch.ExperimentConfig(n_clients=2, n_rounds=2, batch_size=16, seed=5,
                                 client_optimizer="sgd", learning_rate=0.01, cl_method="ewc",
                                 penalty=cl.PenaltyConfig(lambda_=1e300))
    configs = [base, dataclasses.replace(base, cl_method="ewc_online"),
               dataclasses.replace(base, cl_method="nr"),
               dataclasses.replace(base, penalty=cl.PenaltyConfig(lambda_=1e300,
                                                                  gamma_online=0.5))]
    dataset, _ = dataio.synthetic_generate(300, seed=4, noise_std=0.1)
    train, test = dataio.train_test_split(dataset, 0.75, base.seed)
    with np.errstate(all="ignore"):
        alone = [orch.run_group([c], train, test, continual=True)[0] for c in configs]
        outcomes = orch.run_group(configs, train, test, continual=True)
    twins = [outcomes[i] for i in (0, 1, 3)]
    assert all(isinstance(e, orch.ExperimentError) for e in twins)
    assert len({id(e) for e in twins}) == 3
    for i in (0, 1, 3):
        assert str(outcomes[i]) == str(alone[i]) and "failed in round 2" in str(alone[i])
        assert isinstance(outcomes[i].__cause__, ValueError)
    assert digest(outcomes[2]) == digest(alone[2])  # NR is no twin, and reads no lambda


def test_a_failed_run_leaves_its_traceback(tmp_path):
    suite = suite_of(tmp_path, FCL10.format(
        rounds_per_task=2, extra="client_optimizer = sgd\nlearning_rate = 1e100"), "diverge.ini")
    dataset, _ = dataio.synthetic_generate(400, seed=3, noise_std=0.1)
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        results, failures = store.run_suite(suite, dataset, str(out))
    assert len(failures) == 5 and not results.list_runs()
    for run_id, message in failures:
        text = (out / f"{run_id}.failed.txt").read_text()
        assert text.startswith("Traceback (most recent call last):")
        assert "ValueError: NaN or inf in gradients" in text  # the cause, then the error
        assert "The above exception was the direct cause of the following exception" in text
        assert text.endswith(f"ExperimentError: {message}\n")
    # a later successful run of that id removes its traceback
    spec = suite.experiments[0]
    results.write_run(spec, store.execute_experiment(
        ExperimentSpec(dict(spec.values, learning_rate=0.001)), dataset))
    assert not (out / f"{spec.run_id()}.failed.txt").exists()
    assert [r.run_id for r in results.list_runs()] == [spec.run_id()]
    assert len(list(out.glob("*.failed.txt"))) == 4


def test_one_shape_trains_at_a_time(tmp_path, monkeypatch):
    # the sweep interleaves the four shapes (clients x augmentation) in
    # suite order, and a 10-client shape trains in two chunks; each group
    # still trains to its end before the next starts, so one group's shards
    # and client state are alive at a time
    suite = suite_of(tmp_path, GRID.format(sweep="strategies = fedavg, fedbn, fedprox",
                                           extra=""), "shapes.ini")
    dataset, _ = dataio.synthetic_generate(400, seed=3, noise_std=0.1)

    def shape(values):
        return values["clients"], values["augmentation"]

    assert len(list(itertools.groupby(map(shape, (s.values for s in suite.experiments))))) == 12
    trained, train = [], orch.local_train

    def recording_train(clients, task_index, round_index, stacks=None):
        cfg = clients[0].member.config
        trained.append((cfg.n_clients, cfg.augmentation))
        return train(clients, task_index, round_index, stacks)

    monkeypatch.setattr(orch, "GROUP_CLIENTS", 20)
    monkeypatch.setattr(orch, "local_train", recording_train)
    _, failures = store.run_suite(suite, dataset, str(tmp_path / "out"))
    assert not failures
    assert len(list(itertools.groupby(trained))) == 4


def test_a_cohort_is_stacked_once_per_task(monkeypatch):
    # each cohort builds its stack, and the row models of its clients and
    # runs, in the first round it trains together; later rounds find it, so
    # a run of 6 rounds builds no model in local_train that one of 2 does
    # not, and every client's parameters are a row of its cohort's stack.
    # Every member trains from round 0 in the chunk, so its cohorts are
    # stacked in round 0.
    dataset, _ = dataio.synthetic_generate(400, seed=3, noise_std=0.1)
    train, test = dataio.train_test_split(dataset, 0.75, 42)
    built, inside = [0], [False]
    init, local_train = orch.nn.MlpModel.__init__, orch.local_train
    trained: dict[int, set] = {}  # round -> ids of the clients (and teachers) trained in it

    def counting_init(self, *args, **kwargs):
        built[0] += inside[0]
        init(self, *args, **kwargs)

    def checking_train(clients, task_index, round_index, stacks):
        # the chunk's stacks are those its last round trained, if any
        assert {id(c) for s in stacks.values() for c in s.clients} <= trained.get(
            round_index - 1, set())
        inside[0] = True
        try:
            result = local_train(clients, task_index, round_index, stacks)
        finally:
            inside[0] = False
        # one call trains the whole chunk as one student stack (and one of
        # its FedDistill teachers, clients of their own), and keeps exactly those
        teachers = [c.teacher for c in clients if c.teacher is not None]
        trained[round_index] = set(map(id, clients + teachers))
        assert sorted(teacher for teacher, *_ in stacks) == [False] + [True] * bool(teachers)
        for (teacher, *_), s in stacks.items():
            assert sorted(map(id, s.clients)) == sorted(map(id, teachers if teacher else clients))
        (stack,) = [s for (teacher, *_), s in stacks.items() if not teacher]
        for c in clients:  # its model is a row of the chunk's student stack
            assert np.shares_memory(c.model.params, stack.params)
        return result

    monkeypatch.setattr(orch.nn.MlpModel, "__init__", counting_init)
    monkeypatch.setattr(orch, "local_train", checking_train)
    counts = []
    for n_rounds in (2, 6):
        configs = [orch.ExperimentConfig(n_clients=10, n_rounds=n_rounds, seed=42,
                                         strategy=fed.StrategyConfig(kind))
                   for kind in ("fedavg", "fedprox", "feddistill")]
        built[0], trained = 0, {}
        outcomes = orch.run_group(configs, train, test, continual=False)
        for outcome in outcomes:
            if isinstance(outcome, Exception):  # e.g. a failed check above
                raise outcome
        counts.append(built[0])
    assert counts[0] == counts[1] > 0
    # the kept stacks took each round's FedProx anchor and teachers
    for config, outcome in zip(configs, outcomes):
        assert digest(outcome) == digest(orch.run_fl(config, train, test)), config.strategy.kind


def test_survivors_are_restacked_after_a_member_fails_in_task_2(tmp_path, monkeypatch):
    # with SGD, EWC at lambda 1e300 overflows in task 2, in the stack it
    # shares with SI, MAS and NR; the later rounds of the task hold only the
    # survivors, stacked afresh from their row views of the first round's
    # stack, and each survivor computes the bits it computes alone
    base = suite_of(tmp_path, MIXED.format(sweep="cl_methods = ewc, si, mas, nr")
                    .replace("rounds = 2", "rounds = 3"), "restack.ini")
    ewc = base.experiments[0]
    diverging = ExperimentSpec(dict(ewc.values, penalty_lambda=1e300))
    suite = BenchmarkSuite([diverging] + base.experiments[1:], base.suite)
    dataset, _ = dataio.synthetic_generate(300, seed=4, noise_std=0.1)
    with np.errstate(all="ignore"):
        with pytest.raises(orch.ExperimentError) as alone:
            store.execute_experiment(diverging, dataset)
        grouped, failures, cohorts = run_grouped(suite, dataset, str(tmp_path / "out"),
                                                 monkeypatch)
    assert failures == [(diverging.run_id(), str(alone.value))]
    # task 2 is rounds 3 to 5; EWC fails inside round 3, after its first step
    assert "failed in round 3: epoch 0 batch 1: NaN or inf" in str(alone.value)
    assert [(c.round_index, len(c.members), c.clients) for c in cohorts
            if c.task_index == 1] == [(3, 4, 8), (4, 3, 6), (5, 3, 6)]
    for spec in base.experiments[1:]:
        assert digest(grouped[spec.run_id()]) == digest(store.execute_experiment(spec, dataset))


def test_a_failed_teacher_leaves_its_students_rows_to_sit_out_the_round(monkeypatch):
    # a NaN written into one FedDistill member's teacher row in round 1
    # stops that member with a teacher error; its clients keep their rows
    # in the round's student stack, where they are skipped, and every other
    # member, the other FedDistill one included, computes the bits it
    # computes alone
    dataset, _ = dataio.synthetic_generate(517, seed=5, noise_std=0.1)
    train, test = dataio.train_test_split(dataset, 0.75, 42)
    strategies = [fed.StrategyConfig("fedavg"), fed.StrategyConfig("fedprox", mu=0.1),
                  fed.StrategyConfig("feddistill", distill_weight=0.5),
                  fed.StrategyConfig("feddistill", distill_weight=0.25)]
    configs = [orch.ExperimentConfig(n_clients=5, n_rounds=3, batch_size=16, strategy=s)
               for s in strategies]
    epochs, students = orch._train_epochs, []

    def poisoning_epochs(stack, task_index, round_index):
        if stack.teacher and round_index == 1:
            (k, *_) = [k for k, c in enumerate(stack.clients) if c.member.config is configs[3]]
            stack.params[k, 0] = np.nan
        epochs(stack, task_index, round_index)
        if not stack.teacher:
            held = [c for c in stack.clients if c.member.config is configs[3]]
            students.append((round_index, stack.failed, len(held)))
            for c in held if round_index == 1 else ():  # its rows took no step
                assert np.array_equal(c.model.params, c.member.global_params)

    monkeypatch.setattr(orch, "_train_epochs", poisoning_epochs)
    with np.errstate(invalid="ignore"):
        outcomes = orch.run_group(configs, train, test, continual=False)
    monkeypatch.undo()
    assert isinstance(outcomes[3], orch.ExperimentError)
    assert re.match(r"client \d failed in round 1: teacher epoch 0 batch \d+: ", str(outcomes[3]))
    # each round is one student stack: round 1's holds the failed member's
    # five rows, marked failed, and round 2's is stacked without them
    assert students == [(0, False, 5), (1, True, 5), (2, False, 0)]
    for config, outcome in zip(configs[:3], outcomes):
        assert digest(outcome) == digest(orch.run_fl(config, train, test)), config.strategy
