import hashlib
import itertools
import math
import re

import numpy as np
import pytest

import fedcl.orchestrator as orch
from fedcl import continual as cl
from fedcl import data as dataio
from fedcl import nn
from fedcl import strategies as fed
from fedcl.orchestrator import (ExperimentConfig, ExperimentError, derive_seed, evaluate,
                                run_fcl, run_fl)


def synth(n=400, seed=0, noise=0.1):
    ds, coeffs = dataio.synthetic_generate(n, seed=seed, noise_std=noise)
    train, test = dataio.train_test_split(ds, 0.75, seed=seed)
    return train, test, coeffs


def two_task(n_per_task=300, seed=0):
    ds, _ = dataio.synthetic_two_task(n_per_task, seed=seed, noise_std=0.05)
    return dataio.train_test_split(ds, 0.75, seed=seed)


def config(**kw):
    defaults = dict(n_clients=2, n_rounds=3, local_epochs=1, batch_size=16, seed=7)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def train_in_chunks(monkeypatch, size):
    """Make every round train its clients as cohorts of at most ``size``."""
    original = orch.local_train

    def chunked(clients, *args):
        updates, losses = [], []
        for i in range(0, len(clients), size):
            u, l = original(clients[i:i + size], *args)
            updates += u
            losses += l
        return updates, losses

    monkeypatch.setattr(orch, "local_train", chunked)


def logs_equal(a, b):
    if len(a) != len(b):
        return False
    for la, lb in zip(a, b):
        if not np.array_equal(la.report.per_action_mse, lb.report.per_action_mse):
            return False
        if la.report.avg_pcc != lb.report.avg_pcc and not (
                np.isnan(la.report.avg_pcc) and np.isnan(lb.report.avg_pcc)):
            return False
        if la.client_train_losses != lb.client_train_losses:
            return False
    return True


class TestRunFl:
    def test_rejects_invalid_rounds(self):
        with pytest.raises(ValueError):
            config(n_rounds=0)

    def test_single_client_equals_centralized(self):
        train, test, _ = synth()
        cfg = config(n_clients=1, n_rounds=1, client_optimizer="sgd", learning_rate=0.01)
        result = run_fl(cfg, train, test)

        # centralized reference: same init, same batch stream, one epoch of SGD
        model = nn.MlpModel()
        model.init_params(np.random.default_rng([cfg.seed, 100]))
        opt = nn.Optimizer("sgd", 0.01)
        shard = dataio.partition_clients(train, 1, cfg.seed)[0].shard
        bseed = derive_seed(cfg.seed, 21, 0, 0, 0)
        for bx, by in dataio.minibatches(shard, 16, bseed, 0):
            g = nn.backward(model, bx, by)
            nn.inject_params(model, opt.step(nn.extract_params(model), g))
        assert np.array_equal(result.final_params, nn.extract_params(model))

    def test_single_client_adam_state_carries_over_rounds(self):
        # one client's Adam moments and step count persist from round to
        # round, as one optimizer stepping straight through would
        train, test, _ = synth()
        cfg = config(n_clients=1, n_rounds=2)
        result = run_fl(cfg, train, test)
        model = nn.MlpModel()
        model.init_params(np.random.default_rng([cfg.seed, 100]))
        opt = nn.Optimizer("adam", cfg.learning_rate)
        shard = dataio.partition_clients(train, 1, cfg.seed)[0].shard
        for r in range(2):
            for bx, by in dataio.minibatches(shard, 16, derive_seed(cfg.seed, 21, 0, 0, r), 0):
                model.params[...] = opt.step(model.params, nn.backward(model, bx, by))
        assert np.array_equal(result.final_params, model.params)

    def test_deterministic_rerun(self):
        train, test, _ = synth()
        cfg = config()
        a = run_fl(cfg, train, test)
        b = run_fl(config(), train, test)
        assert logs_equal(a.round_logs, b.round_logs)
        assert np.array_equal(a.final_params, b.final_params)

    @pytest.mark.parametrize("chunk", [4, 8])
    def test_worker_pool_invariance(self, chunk, monkeypatch):
        # results do not depend on how a round's clients are grouped into
        # stacked cohorts: one client at a time against cohorts of 4 and 8
        train, test, _ = synth()
        with monkeypatch.context() as patch:
            train_in_chunks(patch, 1)
            serial = run_fl(config(n_clients=8), train, test)
        train_in_chunks(monkeypatch, chunk)
        stacked = run_fl(config(n_clients=8), train, test)
        assert np.array_equal(serial.final_params, stacked.final_params)
        assert logs_equal(serial.round_logs, stacked.round_logs)

    def test_zero_learning_rate_sgd_keeps_broadcast(self):
        train, test, _ = synth()
        cfg = config(client_optimizer="sgd", learning_rate=0.0, n_rounds=1)
        result = run_fl(cfg, train, test)
        template = nn.MlpModel()
        template.init_params(np.random.default_rng([cfg.seed, 100]))
        init = nn.extract_params(template)
        mask = ~nn.running_stat_mask()  # BN running stats still drift in forward
        assert np.array_equal(result.final_params[mask], init[mask])

    def test_a_test_set_under_two_rows_is_rejected_before_training(self, monkeypatch):
        # 4 rows split 3 and 1: one test row gives no PCC, so the run stops
        # before round 0 trains, naming the test set and its row count
        trained = []
        monkeypatch.setattr(orch, "local_train", lambda *args: trained.append(args))
        ds, _ = dataio.synthetic_generate(4, seed=0)
        with pytest.raises(ExperimentError, match=r"test set too small to evaluate: 1 row"):
            run_fl(config(n_clients=1), *dataio.train_test_split(ds, 0.75, seed=0))
        assert trained == []

    def test_client_failure_names_client_and_round(self):
        train, test, _ = synth(n=40)
        cfg = config(n_clients=2, n_rounds=1)
        bad = dataio.Dataset(np.zeros((1, 29)), np.full((1, 8), 3.0))
        parts = dataio.partition_clients(train, 2, cfg.seed)
        member = orch.Member(cfg, np.zeros(nn.PARAM_COUNT))
        client = orch.ClientState(1, bad, nn.MlpModel(), nn.Optimizer("sgd", 0.1), member)
        assert orch.local_train([client], 0, 0) == ([None], [None])
        assert isinstance(member.error, ExperimentError)
        assert "client 1" in str(member.error)
        _ = parts

    def test_non_finite_gradient_names_client_round_and_step(self):
        cfg = config(n_clients=1, n_rounds=1)
        features = np.zeros((4, 29))
        features[2, 3] = np.inf
        shard = dataio.Dataset(features, np.full((4, 8), 3.0))
        member = orch.Member(cfg, np.zeros(nn.PARAM_COUNT))
        client = orch.ClientState(0, shard, nn.MlpModel(), nn.Optimizer("adam", 0.1), member)
        with np.errstate(invalid="ignore"):
            orch.local_train([client], 0, 3)
        assert isinstance(member.error, ExperimentError)
        assert re.search(r"client 0 failed in round 3: epoch 0 batch 0: NaN or inf",
                         str(member.error))

    def test_a_client_with_two_loss_terms_is_an_error(self):
        # no config builds one (SI needs fedavg), but local_train is public:
        # a FedProx client given an SI path integral by hand is named
        train, _, _ = synth()
        cfg = config(strategy=fed.StrategyConfig("fedprox", mu=0.1))
        member = orch.Member(cfg, np.zeros(nn.PARAM_COUNT))
        parts = dataio.partition_clients(train, cfg.n_clients, cfg.seed)
        clients = orch._build_clients(member, [p.shard for p in parts])
        clients[1].si_acc = cl.SiAccumulator(member.global_params.copy())
        with pytest.raises(ValueError, match=r"^client 1 trains with more than one loss term"):
            orch.local_train(clients, 0, 0)

    def test_update_is_not_aliased_to_the_client_model(self):
        # a round-r update must survive the same client training in round r+1
        train, _, _ = synth()
        cfg = config()
        parts = dataio.partition_clients(train, cfg.n_clients, cfg.seed)
        template = nn.MlpModel()
        template.init_params(np.random.default_rng([cfg.seed, 100]))
        member = orch.Member(cfg, nn.extract_params(template))
        clients = orch._build_clients(member, [p.shard for p in parts])
        (first,), _ = orch.local_train([clients[0]], 0, 0)
        kept = first.params.copy()
        member.global_params = first.params
        (second,), _ = orch.local_train([clients[0]], 0, 1)
        assert np.array_equal(first.params, kept)
        assert not np.array_equal(second.params, kept)
        for update in (first, second):
            assert not np.shares_memory(update.params, clients[0].model.params)

    def test_a_lone_client_reads_its_shard_in_place(self):
        # a one-client stack takes its batches from the shard itself, so a
        # central run holds no second copy of its training rows
        train, _, _ = synth()
        cfg = config(n_clients=1)
        template = nn.MlpModel()
        template.init_params(np.random.default_rng([cfg.seed, 100]))
        (client,) = orch._build_clients(orch.Member(cfg, nn.extract_params(template)), [train])
        stacks = {}
        orch.local_train([client], 0, 0, stacks)
        (stack,) = stacks.values()
        features, labels, _ = stack.sources
        assert np.shares_memory(features, train.features)
        assert np.shares_memory(labels, train.labels)

    def test_losses_equal_each_clients_own(self):
        # a cohort of shards of several sizes, with a run of equal shards of
        # more rows (5 x 300) than one stacked loss pass takes, a FedDistill
        # member, and a member that failed before the round
        ds, _ = dataio.synthetic_generate(3000, seed=3, noise_std=0.1)
        shards, start = [], 0
        for n in [300, 300, 300, 123, 300, 57, 300, 300, 90, 90]:
            shards.append(dataio.Dataset(ds.features[start:start + n],
                                         ds.labels[start:start + n]))
            start += n
        template = nn.MlpModel()
        template.init_params(np.random.default_rng(11))
        clients = []
        for kind, part in (("fedavg", shards[:4]), ("feddistill", shards[4:8]),
                           ("fedprox", shards[8:])):
            cfg = config(strategy=fed.StrategyConfig(kind, mu=0.1, distill_weight=0.5),
                         batch_size=32, client_optimizer="adam", learning_rate=0.01)
            member = orch.Member(cfg, nn.extract_params(template))
            clients += orch._build_clients(member, part)
        failed = clients[-1].member
        failed.error = ExperimentError("failed before the round")
        order = [clients[k] for k in (5, 0, 8, 3, 1, 6, 9, 2, 4, 7)]
        updates, losses = orch.local_train(order, 0, 0)
        for c, update, loss in zip(order, updates, losses):
            if c.member is failed:
                assert update is None and loss is None
                continue
            own = nn.mse_loss(c.model.forward(c.shard.features, mode="eval"), c.shard.labels)
            assert loss == own[0]
            assert np.array_equal(update.params, c.model.params)

    def test_descent_direction(self, rng):
        # a tiny SGD step on one batch reduces that batch's train-mode loss
        for _ in range(50):
            m = nn.MlpModel()
            m.init_params(rng)
            x = rng.uniform(0, 1, size=(16, 29))
            y = rng.uniform(1, 5, size=(16, 8))
            probe = m.clone()
            pred, _ = probe._forward_cached(x, "train")
            before = nn.mse_loss(pred, y)[0]
            g = nn.backward(m, x, y)
            stepped = nn.MlpModel()
            nn.inject_params(stepped, nn.extract_params(m) - 1e-5 * g)
            pred2, _ = stepped._forward_cached(x, "train")
            after = nn.mse_loss(pred2, y)[0]
            assert after < before


PHASES = ("local_train_time", "consolidate_time", "aggregate_time", "evaluate_time")


def check_phase_times(logs, consolidating_rounds):
    for log in logs:
        phases = [getattr(log, name) for name in PHASES]
        assert all(t >= 0.0 for t in phases)
        assert sum(phases) <= log.wall_time
        if log.round_index in consolidating_rounds:
            assert log.consolidate_time > 0.0
        else:
            assert log.consolidate_time == 0.0


class TestPhaseTimes:
    def test_fl_rounds_do_not_consolidate(self):
        train, test, _ = synth()
        check_phase_times(run_fl(config(), train, test).round_logs, set())

    @pytest.mark.parametrize("method", ["none", "mas", "nr"])
    def test_fcl_consolidates_only_in_task_1s_last_round(self, method):
        # no task follows task 2, so its last round consolidates nothing
        train, test = two_task()
        result = run_fcl(config(cl_method=method, rounds_per_task=2), train, test)
        assert [log.task_index for log in result.round_logs] == [0, 0, 1, 1]
        check_phase_times(result.round_logs, set() if method == "none" else {1})
        assert result.round_logs[-1].consolidate_time == 0.0


class TestStrategyEquivalences:
    def test_fedprox_mu_zero_is_fedavg(self):
        train, test, _ = synth()
        a = run_fl(config(strategy=fed.StrategyConfig("fedavg")), train, test)
        b = run_fl(config(strategy=fed.StrategyConfig("fedprox", mu=0.0)), train, test)
        assert np.array_equal(a.final_params, b.final_params)

    def test_fedopt_sgd_lr1_is_fedavg(self):
        train, test, _ = synth()
        a = run_fl(config(strategy=fed.StrategyConfig("fedavg"), client_optimizer="sgd"),
                   train, test)
        b = run_fl(config(strategy=fed.StrategyConfig("fedopt", server_optimizer="sgd",
                                                      server_learning_rate=1.0),
                          client_optimizer="sgd"), train, test)
        assert np.array_equal(a.final_params, b.final_params)

    def test_feddistill_weight_zero_is_fedavg(self):
        train, test, _ = synth()
        a = run_fl(config(strategy=fed.StrategyConfig("fedavg")), train, test)
        b = run_fl(config(strategy=fed.StrategyConfig("feddistill", distill_weight=0.0)),
                   train, test)
        assert np.array_equal(a.final_params, b.final_params)

    def test_feddistill_teacher_never_aggregated(self):
        train, test, _ = synth()
        cfg = config(strategy=fed.StrategyConfig("feddistill", distill_weight=0.5),
                     n_rounds=2)
        parts = dataio.partition_clients(train, cfg.n_clients, cfg.seed)
        template = nn.MlpModel()
        template.init_params(np.random.default_rng([cfg.seed, 100]))
        member = orch.Member(cfg, nn.extract_params(template))
        clients = orch._build_clients(member, [p.shard for p in parts])
        for r in range(2):
            updates, _ = orch.local_train(clients, 0, r)
            member.global_params = fed.fedavg_aggregate(updates)
        for c in clients:
            assert not np.array_equal(nn.extract_params(c.teacher.model), member.global_params)

    def test_fedprox_large_mu_contracts(self):
        # one local epoch with an enormous proximal term barely moves the
        # parameters relative to the unconstrained epoch
        ds, _ = dataio.synthetic_generate(2500, seed=5, noise_std=0.1)
        template = nn.MlpModel()
        template.init_params(np.random.default_rng([9, 100]))
        start = nn.extract_params(template)
        mask = ~nn.running_stat_mask()
        disp = {}
        with np.errstate(all="ignore"):
            for mu in (0.0, 1e6):
                cfg = config(n_clients=1, n_rounds=1, seed=9, batch_size=32,
                             strategy=fed.StrategyConfig("fedprox", mu=mu))
                model = nn.MlpModel()
                nn.inject_params(model, start)
                client = orch.ClientState(0, ds, model, nn.Optimizer("adam", 1e-3),
                                          orch.Member(cfg, start))
                (upd,), _ = orch.local_train([client], 0, 0)
                disp[mu] = np.linalg.norm(upd.params[mask] - start[mask])
        assert disp[1e6] <= 1e-3 * disp[0.0]

    def test_fedprox_leaves_running_statistics_to_batchnorm(self):
        # the running statistics are not optimized: a weak proximal term
        # must not step them (Adam is nearly scale-free, so an unmasked
        # gradient well above its epsilon moves them by about the learning
        # rate, 1e-3, whatever mu is)
        train, test, _ = synth()
        a = run_fl(config(strategy=fed.StrategyConfig("fedavg"), n_rounds=2), train, test)
        b = run_fl(config(strategy=fed.StrategyConfig("fedprox", mu=1e-5), n_rounds=2),
                   train, test)
        running = nn.running_stat_mask()
        assert np.max(np.abs(a.final_params - b.final_params)[running]) <= 1e-6

    def test_fedbn_keeps_bn_local(self):
        train, test, _ = synth()
        cfg = config(strategy=fed.StrategyConfig("fedbn"), n_rounds=2)
        result = run_fl(cfg, train, test)
        assert result.final_params.shape == (nn.PARAM_COUNT,)


class TestEvaluate:
    def test_batch_size_invariance(self, rng):
        m = nn.MlpModel()
        m.init_params(rng)
        m.forward(rng.uniform(0, 1, size=(64, 29)), mode="train")  # non-trivial BN stats
        params = nn.extract_params(m)
        ds, _ = dataio.synthetic_generate(250, seed=3)
        full = evaluate(params, ds)
        probe = nn.MlpModel()
        nn.inject_params(probe, params)
        chunks = [probe.forward(ds.features[i:i + 16], mode="eval") for i in range(0, 250, 16)]
        from fedcl.metrics import compute_report
        chunked = compute_report(np.vstack(chunks), ds.labels)
        assert np.array_equal(full.per_action_mse, chunked.per_action_mse)
        assert full.avg_pcc == chunked.avg_pcc

    def test_a_long_test_set_gives_the_report_of_one_pass(self, rng):
        m = nn.MlpModel("relu")
        m.init_params(rng)
        m.forward(rng.uniform(0, 1, size=(64, 29)), mode="train")  # non-trivial BN stats
        ds, _ = dataio.synthetic_generate(3 * orch.LOSS_PASS_ROWS + 1, seed=4)
        chunked = evaluate(nn.extract_params(m), ds, "relu")
        from fedcl.metrics import compute_report
        whole = compute_report(m.forward(ds.features, mode="eval"), ds.labels)
        for name, value in vars(whole).items():
            assert np.array_equal(getattr(chunked, name), value, equal_nan=True), name

    def test_empty_test_set_rejected(self, rng):
        ds, _ = dataio.synthetic_generate(10, seed=1)
        with pytest.raises(ValueError):
            evaluate(np.zeros(nn.PARAM_COUNT), ds.subset(np.array([], dtype=int)))

    @pytest.mark.parametrize("continual", [False, True])
    def test_each_run_keeps_one_evaluation_model(self, monkeypatch, continual):
        # the models finish_round builds do not grow with the rounds it finishes
        built, inside = [0], [False]
        finish, init = orch._Run.finish_round, nn.MlpModel.__init__

        def counted_finish(self, *args):
            inside[0] = True
            try:
                finish(self, *args)
            finally:
                inside[0] = False

        def counted_init(self, *args, **kw):
            built[0] += inside[0]
            init(self, *args, **kw)

        monkeypatch.setattr(orch._Run, "finish_round", counted_finish)
        monkeypatch.setattr(nn.MlpModel, "__init__", counted_init)
        counts = []
        for rounds in (2, 5):
            built[0] = 0
            if continual:
                run_fcl(config(cl_method="ewc", n_rounds=rounds), *two_task(100))
            else:
                run_fl(config(n_rounds=rounds), *synth()[:2])
            counts.append(built[0])
        assert counts[0] == counts[1]


class TestShardLosses:
    """The post-round loss pass: each client's loss is its own eval loss on
    its whole shard, whatever the shard sizes of the rows around it."""

    @staticmethod
    def own_loss(c):
        return nn.mse_loss(c.model.forward(c.shard.features, mode="eval"), c.shard.labels)[0]

    @staticmethod
    def count_eval_forwards(monkeypatch):
        count, forward = [0], nn.MlpModel.forward

        def counted(self, batch, mode="eval"):
            count[0] += mode == "eval"
            return forward(self, batch, mode)

        monkeypatch.setattr(nn.MlpModel, "forward", counted)
        return count

    # task 2's shard sizes of an NR member's 5 clients, then an EWC member's
    TASK_2_SIZES = [23, 41, 57, 66, 80, 29, 35, 50, 61, 74]

    def task_2_cohort(self, **kw) -> list:
        """An NR and an EWC member of 5 clients each, through task 1 and its
        consolidation, holding task-2 shards of 10 distinct sizes; the NR
        clients replay."""
        ds, _ = dataio.synthetic_two_task(500, seed=5, noise_std=0.1)
        sizes = [30, 34, 38, 42, 46] * 2 + self.TASK_2_SIZES
        cuts = np.cumsum([0] + sizes)
        shards = [ds.subset(np.arange(cuts[k], cuts[k + 1])) for k in range(20)]
        task1, task2 = shards[:10], shards[10:]
        template = nn.MlpModel()
        template.init_params(np.random.default_rng(3))
        clients = []
        for k, method in enumerate(("nr", "ewc")):
            member = orch.Member(config(n_clients=5, cl_method=method, batch_size=16, **kw),
                                 nn.extract_params(template))
            clients += orch._build_clients(member, task1[5 * k:5 * k + 5])
        orch.local_train(clients, 0, 0)
        for c, shard in zip(clients, task2):
            orch._consolidate(c, 0)
            c.shard = shard
            # fresh, as every client's optimizer is when its run walks task 2
            c.optimizer = nn.Optimizer(c.optimizer.kind, c.optimizer.learning_rate)
        assert all(orch._replays(c) == (c.member.config.cl_method == "nr") for c in clients)
        return clients

    def test_task_2_cohort_of_distinct_sizes_takes_one_pass(self, monkeypatch):
        clients = self.task_2_cohort()
        forwards = self.count_eval_forwards(monkeypatch)
        _, losses = orch.local_train(clients, 1, 1)
        padded = len(clients) * max(self.TASK_2_SIZES)
        assert forwards[0] <= -(-padded // orch.LOSS_PASS_ROWS)
        for c, loss in zip(clients, losses):
            assert loss == self.own_loss(c)

    def test_task_2_cohort_of_distinct_sizes_steps_once_per_batch_index(self, monkeypatch):
        # each member's rows are one block, sorted by shard size, so at step j
        # the rows that have a j-th batch are one run per block, whatever
        # their batches' row counts: one backward and one optimizer step each
        clients = self.task_2_cohort(local_epochs=2)
        calls, backward, step = [], nn.backward, nn.Optimizer.step

        def counted(model, *args, **kwargs):
            if (args[3:4] or [kwargs.get("mode", "train")])[0] == "train":
                calls.append(1 if model.params.ndim == 1 else len(model.params))
            return backward(model, *args, **kwargs)

        def stepped(self, params, grads, out=None):
            calls.append("step")
            return step(self, params, grads, out)

        monkeypatch.setattr(nn, "backward", counted)
        monkeypatch.setattr(nn.Optimizer, "step", stepped)
        orch.local_train(clients, 1, 1)
        # batches per client, in row order (the replaying NR block last, each
        # block by shard size): EWC's plain 16-row batches, a trailing single
        # row dropped, then NR's 8 new rows a batch beside 8 replayed ones
        batches = ([n // 16 + (n % 16 >= 2) for n in self.TASK_2_SIZES[5:]]
                   + [math.ceil(n / 8) for n in self.TASK_2_SIZES[:5]])
        assert batches == [2, 3, 4, 4, 5, 3, 6, 8, 9, 10]
        # the maximal runs of rows that have a j-th batch: one for j < 3, two
        # for j = 3 and 4 (EWC's tail and NR's), then NR's alone
        runs = sum(len([has for has, _ in itertools.groupby(b > j for b in batches) if has])
                   for j in range(max(batches)))
        assert runs == 3 + 2 * 2 + 5
        assert len(calls) == 2 * (2 * runs)  # 2 epochs, a backward and a step each
        assert [c for c in calls if c != "step"] == [c for c in calls[::2]]
        # every client steps once per batch it has
        assert sum(calls[::2]) == 2 * sum(batches)

    def test_a_lone_large_shard_passes_in_chunks(self, monkeypatch):
        shard = dataio.synthetic_generate(2 * orch.LOSS_PASS_ROWS + 1, seed=7)[0]
        template = nn.MlpModel()
        template.init_params(np.random.default_rng(8))
        (client,) = orch._build_clients(orch.Member(config(n_clients=1, batch_size=256),
                                                    nn.extract_params(template)), [shard])
        rows, forward = [], nn.MlpModel.forward

        def recorded(self, batch, mode="eval"):
            if mode == "eval":
                rows.append(len(batch))
            return forward(self, batch, mode)

        monkeypatch.setattr(nn.MlpModel, "forward", recorded)
        _, (loss,) = orch.local_train([client], 0, 0)
        assert rows == [orch.LOSS_PASS_ROWS, orch.LOSS_PASS_ROWS + 1]
        monkeypatch.undo()
        assert loss == self.own_loss(client)

    def test_member_failing_mid_round(self):
        # three members whose shards interleave by size; B fails at its
        # last batch of round 1, and the survivors' losses stay their own in
        # that round, where B's rows are skipped, and in the next, where the
        # survivors are stacked afresh
        ds, _ = dataio.synthetic_generate(300, seed=6, noise_std=0.1)
        sizes = {"A": [20, 33, 47], "B": [26, 40], "C": [29, 52]}
        cuts = np.cumsum([0] + sum(sizes.values(), []))
        shards = [ds.subset(np.arange(cuts[k], cuts[k + 1])) for k in range(len(cuts) - 1)]
        template = nn.MlpModel()
        template.init_params(np.random.default_rng(4))
        stacks, members, clients = {}, {}, []
        for name, strategy in (("A", fed.StrategyConfig()), ("B", fed.StrategyConfig()),
                               ("C", fed.StrategyConfig("fedprox", mu=0.1))):
            members[name] = orch.Member(config(n_clients=len(sizes[name]), batch_size=8,
                                               strategy=strategy),
                                        nn.extract_params(template))
            part, shards = shards[:len(sizes[name])], shards[len(sizes[name]):]
            clients += orch._build_clients(members[name], part)
        failing = next(c for c in clients if c.member is members["B"] and len(c.shard) == 40)
        cfg = members["B"].config
        batches = dataio.minibatch_indices(40, 8, derive_seed(cfg.seed, 21, 1, 0, 1), 0)
        kept = None
        for r in range(3):
            if r == 1:  # the stack kept from round 0 takes its batches from its own table
                k = next(k for k, c in enumerate(kept.clients) if c is failing)
                features, _, offsets = kept.sources
                features[offsets[k][0] + batches[-1][0], 5] = np.inf
            live = [c for c in clients if c.member.error is None]
            with np.errstate(invalid="ignore", over="ignore"):
                _, losses = orch.local_train(clients, 0, r, stacks)
            # local_train keeps only the stack it trained: round 1 finds
            # round 0's, and round 2 stacks the survivors afresh
            (stack,) = stacks.values()
            assert sorted(map(id, stack.clients)) == sorted(map(id, live))
            assert (stack is kept) == (r == 1)
            kept = stack
            if r >= 1:
                assert re.match(rf"client 1 failed in round 1: epoch 0 batch {len(batches) - 1}",
                                str(members["B"].error))
            for c, loss in zip(clients, losses):
                if r >= 1 and c.member is members["B"]:
                    assert loss is None
                else:
                    assert loss == self.own_loss(c), (r, c.client_id)


class TestChunkedForward:
    """A single model forwards more than ``LOSS_PASS_ROWS`` rows in chunks
    of at most that many, a one-row tail folded into the chunk before it,
    and every row keeps the bits of one large pass."""

    @pytest.mark.parametrize("n, chunks", [
        (1025, [1025]),
        (2049, [1024, 1025]),
        (3073, [1024, 1024, 1025]),
        (15000, [1024] * 14 + [664]),
    ])
    @pytest.mark.parametrize("activation", ["identity", "relu"])
    def test_chunks_give_the_bits_of_one_pass(self, n, chunks, activation, monkeypatch):
        assert orch.LOSS_PASS_ROWS == 1024  # the chunk sizes above
        rng = np.random.default_rng(n)
        model = nn.MlpModel(activation)
        model.init_params(rng)
        model.forward(rng.uniform(0, 1, size=(64, 29)), mode="train")  # non-trivial BN stats
        features = rng.uniform(0, 1, size=(n + 5, 29))
        rows = rng.permutation(n + 5)[:n]
        whole = model.forward(features[:n], mode="eval")
        gathered = model.forward(features[rows], mode="eval")
        sizes, forward = [], nn.MlpModel.forward

        def recorded(self, batch, mode="eval"):
            sizes.append(len(batch))
            return forward(self, batch, mode)

        monkeypatch.setattr(nn.MlpModel, "forward", recorded)
        by_slice = orch._predictions(model, features[:n])
        by_index = orch._predictions(model, features.take(rows, axis=0))
        assert sizes == chunks * 2
        assert np.array_equal(by_slice.view(np.int64), whole.view(np.int64))
        assert np.array_equal(by_index.view(np.int64), gathered.view(np.int64))


class TestRunFcl:
    def test_requires_fedavg(self):
        train, test = two_task()
        cfg = config(cl_method="none", strategy=fed.StrategyConfig("fedopt"))
        with pytest.raises(ValueError):
            run_fcl(cfg, train, test)

    @pytest.mark.parametrize("rounds", [0, -1])
    def test_rounds_per_task_below_one_rejected(self, rounds):
        # 0 once ran n_rounds per task, and -1 failed mid-run
        with pytest.raises(ValueError, match="rounds_per_task must be >= 1"):
            config(cl_method="ewc", rounds_per_task=rounds)

    def test_rounds_per_task_sets_each_tasks_rounds(self):
        train, test = two_task()
        result = run_fcl(config(cl_method="ewc", n_rounds=3, rounds_per_task=1), train, test)
        assert [log.task_index for log in result.round_logs] == [0, 1]

    def test_task_sequencing_and_eval_sets(self, monkeypatch):
        train, test = two_task()
        calls = []
        original = orch.evaluate

        def record(params, eval_set, *args):
            calls.append((params.copy(), eval_set))
            return original(params, eval_set, *args)

        monkeypatch.setattr(orch, "evaluate", record)
        result = run_fcl(config(cl_method="ewc", n_rounds=2), train, test)
        tasks = [log.task_index for log in result.round_logs]
        assert tasks == [0, 0, 1, 1]
        assert len(calls) == len(result.round_logs)
        assert np.array_equal(calls[-1][0], result.final_params)
        # task-1 rounds are evaluated on the circle-only subset, task-2
        # rounds on the full test set
        circle_test = dataio.split_tasks(test).task1
        assert 0 < len(circle_test) < len(test)
        for log, (params, eval_set) in zip(result.round_logs, calls):
            expected = circle_test if log.task_index == 0 else test
            assert np.array_equal(eval_set.features, expected.features)
            assert np.array_equal(eval_set.labels, expected.labels)
            rep = original(params, expected)
            assert np.array_equal(rep.per_action_mse, log.report.per_action_mse)

    def test_lambda_zero_matches_unregularized(self):
        train, test = two_task()
        for method in ("ewc", "ewc_online", "si", "mas"):
            a = run_fcl(config(cl_method=method, n_rounds=2,
                               penalty=cl.PenaltyConfig(lambda_=0.0)), train, test)
            b = run_fcl(config(cl_method="none", n_rounds=2), train, test)
            assert np.array_equal(a.final_params, b.final_params), method

    def test_importance_computed_before_final_aggregation(self, monkeypatch):
        # each client's importance comes from its local model after task 1's
        # last training, not from the aggregate: a shape's lead finishes that
        # round, aggregating and evaluating each task-1 round once for the
        # shape, and each fork's clients, copies of the lead's, consolidate
        # on their own, once each, on the lead client's trained parameters
        train, test = two_task()
        local_train, consolidate = orch.local_train, orch._consolidate
        aggregate, evaluate_ = orch._aggregate, orch.evaluate
        for rounds_per_task in (1, 3):
            configs = [config(cl_method=method, n_rounds=2, rounds_per_task=rounds_per_task)
                       for method in ("ewc", "si", "mas", "nr")]
            trained, consolidated, aggregates, evaluated, task = {}, [], [], [], [None]

            def recording_train(clients, task_index, round_index, stacks=None):
                task[0] = task_index
                updates, losses = local_train(clients, task_index, round_index, stacks)
                if task_index == 0:  # the last task-1 round's wins
                    trained.update({u.client_id: u.params.copy() for u in updates})
                return updates, losses

            def recording_consolidate(client, task_index):
                consolidated.append((client.member.config.cl_method, client.client_id,
                                     client.model.params.copy()))
                return consolidate(client, task_index)

            def recording_aggregate(*args):
                params = aggregate(*args)
                if task[0] == 0:
                    aggregates.append(params)
                return params

            def recording_evaluate(*args):
                if task[0] == 0:
                    evaluated.append(args[1])
                return evaluate_(*args)

            with monkeypatch.context() as patch:
                patch.setattr(orch, "local_train", recording_train)
                patch.setattr(orch, "_consolidate", recording_consolidate)
                patch.setattr(orch, "_aggregate", recording_aggregate)
                patch.setattr(orch, "evaluate", recording_evaluate)
                outcomes = orch.run_group(configs, train, test, continual=True)
            assert not any(isinstance(o, Exception) for o in outcomes)
            assert len(aggregates) == len(evaluated) == rounds_per_task
            assert sorted((m, cid) for m, cid, _ in consolidated) == sorted(
                itertools.product(("ewc", "mas", "nr", "si"), (0, 1)))
            for _, cid, params in consolidated:
                assert np.array_equal(params, trained[cid])
                assert not np.array_equal(params, aggregates[-1])
            # each fork's last task-1 log is its own, with its consolidation's seconds
            logs = [o.round_logs[rounds_per_task - 1] for o in outcomes]
            assert len({id(log) for log in logs}) == len(logs)
            for log in logs:
                assert log.task_index == 0 and log.consolidate_time > 0.0
                assert log.wall_time > log.local_train_time + log.consolidate_time

    def test_si_accumulates_only_in_task_1(self, monkeypatch):
        # the path integral of task 2 would only feed a third task's penalty
        train, test = two_task()
        task, tasks = [], []
        train_round, accumulate = orch.local_train, cl.si_accumulate

        def recording_train(clients, task_index, round_index, stacks=None):
            task[:] = [task_index]
            return train_round(clients, task_index, round_index, stacks)

        def recording_accumulate(*args):
            tasks.append(task[0])
            return accumulate(*args)

        monkeypatch.setattr(orch, "local_train", recording_train)
        monkeypatch.setattr(cl, "si_accumulate", recording_accumulate)
        run_fcl(config(cl_method="si", n_rounds=3), train, test)
        assert tasks and set(tasks) == {0}

    def test_ewc_online_is_ewc_over_two_tasks(self):
        # the running Fisher decays only from a third task on
        train, test = two_task()
        digests = set()
        for method, gamma in (("ewc", 1.0), ("ewc_online", 1.0), ("ewc_online", 0.3)):
            result = run_fcl(config(cl_method=method, n_rounds=2,
                                    penalty=cl.PenaltyConfig(gamma_online=gamma)), train, test)
            digests.add((hashlib.sha256(result.final_params.tobytes()).hexdigest(),
                         tuple(repr(log.report.avg_mse) for log in result.round_logs)))
        assert len(digests) == 1

    def test_determinism_with_workers(self, monkeypatch):
        # one client at a time against one stacked cohort
        train, test = two_task()
        with monkeypatch.context() as patch:
            train_in_chunks(patch, 1)
            a = run_fcl(config(cl_method="nr", n_rounds=2, n_clients=2), train, test)
        b = run_fcl(config(cl_method="nr", n_rounds=2, n_clients=2), train, test)
        assert np.array_equal(a.final_params, b.final_params)

    def test_data_isolation(self, monkeypatch):
        train, test = two_task()
        cfg = config(cl_method="none", n_rounds=2, n_clients=3)
        seen = {}
        original = orch.local_train

        def audit(clients, task_index, round_index, stacks=None):
            for client in clients:
                seen.setdefault(client.client_id, set()).add(id(client.shard))
            return original(clients, task_index, round_index, stacks)

        monkeypatch.setattr(orch, "local_train", audit)
        run_fcl(cfg, train, test)
        all_ids = [sid for ids in seen.values() for sid in ids]
        # every client only ever sees its own per-task shards, and no shard
        # object is shared between clients
        assert len(all_ids) == len(set(all_ids))
        assert all(len(ids) == 2 for ids in seen.values())  # one shard per task

    def test_empty_task_shard_rejected(self):
        ds, _ = dataio.synthetic_generate(60, seed=2, flag_value=1.0)  # circle only
        train, test = dataio.train_test_split(ds, 0.75, seed=2)
        with pytest.raises(ExperimentError):
            run_fcl(config(cl_method="ewc", n_rounds=1), train, test)


class TestFclForgetting:
    def fit_two_tasks(self, method, lambda_=None, seed=11):
        ds, _ = dataio.synthetic_two_task(400, seed=3, noise_std=0.2)
        train, test = dataio.train_test_split(ds, 0.75, seed=3)
        cfg = config(cl_method=method, n_rounds=15, local_epochs=2, n_clients=2,
                     seed=seed, batch_size=32, learning_rate=1e-2,
                     penalty=cl.PenaltyConfig(lambda_=lambda_))
        result = run_fcl(cfg, train, test)
        circle_test = dataio.split_tasks(test).task1
        end_task1 = [l for l in result.round_logs if l.task_index == 0][-1].report.avg_mse
        task1_after = evaluate(result.final_params, circle_test).avg_mse
        return end_task1, task1_after

    def test_baseline_forgets(self):
        end_task1, base_after = self.fit_two_tasks("none")
        assert base_after > end_task1 + 0.01  # task 2 degrades task-1 loss

    def test_ewc_retains_task1_at_least_as_well_as_baseline(self):
        _, base_after = self.fit_two_tasks("none")
        _, ewc_after = self.fit_two_tasks("ewc")
        assert ewc_after <= base_after + 1e-3

    def test_replay_beats_baseline(self):
        _, base_after = self.fit_two_tasks("none")
        _, nr_after = self.fit_two_tasks("nr")
        assert nr_after < base_after


class TestStackedEngine:
    SIZES = [23, 37, 38, 50]  # batch 16: ragged last batches, 2 to 4 steps

    def shards(self):
        ds, _ = dataio.synthetic_two_task(100, seed=4, noise_std=0.1)
        cuts = np.cumsum([0] + self.SIZES)
        return [ds.subset(np.arange(cuts[k], cuts[k + 1])) for k in range(len(self.SIZES))]

    def train(self, cfg, cohorts):
        template = nn.MlpModel(cfg.hidden_activation)
        template.init_params(np.random.default_rng([cfg.seed, 100]))
        clients = orch._build_clients(orch.Member(cfg, nn.extract_params(template)),
                                      self.shards())
        out = {}
        for task in (0, 1):
            for r in range(2):
                for cohort in cohorts:
                    updates, losses = orch.local_train([clients[i] for i in cohort], task,
                                                       2 * task + r)
                    for u, loss in zip(updates, losses):
                        out[(task, r, u.client_id)] = (u.params, loss)
            if task == 0 and cfg.cl_method != "none":  # as run_fcl: task 1 only
                for c in clients:
                    orch._consolidate(c, task)
        return out, clients

    @pytest.mark.parametrize("kw", [
        dict(strategy=fed.StrategyConfig("feddistill")),
        dict(strategy=fed.StrategyConfig("fedprox", mu=0.1)),
        dict(strategy=fed.StrategyConfig("fedbn"), client_optimizer="sgd", learning_rate=0.01),
        dict(cl_method="si"),
        dict(cl_method="ewc", hidden_activation="relu"),
        dict(cl_method="nr"),
    ])
    def test_ragged_cohort_equals_clients_trained_one_at_a_time(self, kw):
        cfg = config(n_clients=4, local_epochs=2, **kw)
        alone, alone_clients = self.train(cfg, [[0], [1], [2], [3]])
        # a cohort in another order than its shard sizes
        stacked, stacked_clients = self.train(cfg, [[3, 1, 0, 2]])
        assert alone.keys() == stacked.keys()
        for key, (params, loss) in alone.items():
            assert np.array_equal(stacked[key][0], params), key
            assert stacked[key][1] == loss, key
        for a, b in zip(alone_clients, stacked_clients):
            assert a.optimizer.step_count == b.optimizer.step_count
            assert (a.optimizer.m is None) == (b.optimizer.m is None)
            if a.optimizer.m is not None:
                assert np.array_equal(a.optimizer.m, b.optimizer.m)
                assert np.array_equal(a.optimizer.v, b.optimizer.v)

    def test_a_member_failing_in_a_ragged_step_leaves_the_others_their_own_bits(self):
        # rows by shard size 23 (A), 37 (B), 38, 45 (C), 50 (A), batch 16: B's
        # second batch holds an inf, so its row fails inside the ragged step
        # j = 1 (7, 16, 16, 16, 16 rows); from j = 2 on, C's and A's rows
        # step around it on their own slices of each ragged batch
        sizes = {"A": [23, 50], "B": [37], "C": [38, 45]}

        def build():
            ds, _ = dataio.synthetic_generate(300, seed=6, noise_std=0.1)
            cuts = np.cumsum([0] + sum(sizes.values(), []))
            shards = [ds.subset(np.arange(cuts[k], cuts[k + 1])) for k in range(5)]
            cfg = config(n_clients=1, local_epochs=2)
            bad = dataio.minibatch_indices(37, 16, derive_seed(cfg.seed, 21, 0, 0, 0), 0)[1][0]
            shards[2].features[bad, 5] = np.inf
            template = nn.MlpModel()
            template.init_params(np.random.default_rng(4))
            members = {}
            for name in sizes:
                part, shards = shards[:len(sizes[name])], shards[len(sizes[name]):]
                member = orch.Member(config(n_clients=len(part), local_epochs=2),
                                     nn.extract_params(template))
                members[name] = (member, orch._build_clients(member, part))
            return members

        together = build()
        with np.errstate(invalid="ignore"):
            updates, _ = orch.local_train(sum((c for _, c in together.values()), []), 0, 0)
        alone = build()
        for name, (member, clients) in alone.items():
            with np.errstate(invalid="ignore"):
                mine = orch.local_train(clients, 0, 0)[0]
            theirs, updates = updates[:len(clients)], updates[len(clients):]
            if name == "B":
                assert theirs == mine == [None]
                assert re.match(r"client 0 failed in round 0: epoch 0 batch 1: NaN or inf",
                                str(together["B"][0].error))
                continue
            for u, own in zip(theirs, mine):
                assert np.array_equal(u.params, own.params), name

    def test_non_finite_gradient_names_the_client_of_its_row(self):
        cfg = config(n_clients=3, n_rounds=1)
        ds, _ = dataio.synthetic_generate(120, seed=2)
        shards = [ds.subset(np.arange(40 * k, 40 * (k + 1))) for k in range(3)]
        row = 17
        shards[2].features[row, 5] = np.inf
        # the batch holding that row, in client 2's stream of round 0
        seed = derive_seed(cfg.seed, 21, 2, 0, 0)
        batch = next(b for b, idx in enumerate(dataio.minibatch_indices(40, 16, seed, 0))
                     if row in idx)
        member = orch.Member(cfg, np.zeros(nn.PARAM_COUNT))
        clients = orch._build_clients(member, shards)
        with np.errstate(invalid="ignore"):
            orch.local_train(clients, 0, 0)
        assert isinstance(member.error, ExperimentError)
        assert re.match(rf"client 2 failed in round 0: epoch 0 batch {batch}: NaN or inf",
                        str(member.error))
