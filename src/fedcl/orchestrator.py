"""Experiment driver: round loops, client local training, aggregation
barriers, continual-learning task sequencing, and evaluation scheduling.

Local training is client-stacked: ``local_train`` gathers a round's cohort
of clients into (C, P) arrays (parameters, optimizer state, SI path
integrals, CL anchors), takes each step of every client whose batch has the
same row count with one ``nn.backward`` and one ``Optimizer.step`` on views
of their rows, and writes the state back to each ``ClientState``.

Determinism: every random draw comes from a stream derived from
(seed, purpose, client, task, round, ...) via numpy's SeedSequence, and
model k of a stack computes exactly the bits it would compute alone, so
results are bit-identical however the clients of a round are grouped into
cohorts.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from . import continual as cl
from . import data as dataio
from . import nn
from . import strategies as fed
from .metrics import MetricsReport, compute_report


def derive_seed(*key) -> int:
    """Deterministic sub-seed from a tuple of non-negative ints."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


class ExperimentError(RuntimeError):
    """A client or round failed; carries client/round context in the message."""


@dataclass
class ExperimentConfig:
    n_clients: int = 2
    n_rounds: int = 10
    local_epochs: int = 1
    batch_size: int = 32
    seed: int = 42
    learning_rate: float = 1e-3
    client_optimizer: str = "adam"
    strategy: fed.StrategyConfig = field(default_factory=fed.StrategyConfig)
    cl_method: str = "none"
    penalty: cl.PenaltyConfig = field(default_factory=cl.PenaltyConfig)
    augmentation: bool = False
    augment_sigma: float = 0.01
    hidden_activation: str = "identity"
    rounds_per_task: int | None = None  # FCL; defaults to n_rounds

    # each message starts with the field's name, which config.py maps to its INI key
    def __post_init__(self):
        if self.n_clients < 1:
            raise ValueError(f"n_clients must be >= 1, got {self.n_clients}")
        if self.n_rounds < 1:
            raise ValueError(f"n_rounds must be >= 1, got {self.n_rounds}")
        if self.local_epochs < 1:
            raise ValueError(f"local_epochs must be >= 1, got {self.local_epochs}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.learning_rate < 0.0:
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.client_optimizer not in nn.OPTIMIZERS:
            raise ValueError(f"client_optimizer must be one of {', '.join(nn.OPTIMIZERS)}, "
                             f"got {self.client_optimizer!r}")
        if self.hidden_activation not in nn.HIDDEN_ACTIVATIONS:
            raise ValueError(f"hidden_activation must be one of "
                             f"{', '.join(nn.HIDDEN_ACTIVATIONS)}, got {self.hidden_activation!r}")
        if self.augment_sigma < 0.0:
            raise ValueError(f"augment_sigma must be >= 0, got {self.augment_sigma}")
        if self.cl_method not in cl.CL_METHODS:
            raise ValueError(f"cl_method must be one of {', '.join(cl.CL_METHODS)}, "
                             f"got {self.cl_method!r}")
        if self.cl_method != "none" and self.strategy.kind != "fedavg":
            raise ValueError(f"cl_method {self.cl_method!r} combines only with strategy "
                             f"fedavg, got {self.strategy.kind!r}")
        if self.rounds_per_task is not None and self.rounds_per_task < 1:
            raise ValueError(f"rounds_per_task must be >= 1, got {self.rounds_per_task}")


@dataclass
class RoundLog:
    round_index: int
    task_index: int
    report: MetricsReport
    client_train_losses: list[float]
    wall_time: float
    # seconds of each phase of the round; consolidate is 0 except in an FCL
    # task's last round
    local_train_time: float = 0.0
    consolidate_time: float = 0.0
    aggregate_time: float = 0.0
    evaluate_time: float = 0.0


@dataclass
class RunResult:
    round_logs: list[RoundLog]
    final_params: np.ndarray
    events: list[tuple]

    @property
    def final_report(self) -> MetricsReport:
        return self.round_logs[-1].report


@dataclass
class ClientState:
    client_id: int
    shard: dataio.Dataset
    model: nn.MlpModel
    optimizer: nn.Optimizer
    teacher_model: nn.MlpModel | None = None
    teacher_optimizer: nn.Optimizer | None = None
    anchors: list[cl.AnchorParams] = field(default_factory=list)
    importances: list[np.ndarray] = field(default_factory=list)
    running_fisher: np.ndarray | None = None
    si_acc: cl.SiAccumulator | None = None
    buffer: cl.ReplayBuffer | None = None


_BN_MASK = nn.bn_mask()


def evaluate(params: np.ndarray, test_set: dataio.Dataset,
             hidden_activation: str = "identity") -> MetricsReport:
    """Single eval-mode pass of the aggregated model over the test set."""
    if len(test_set) == 0:
        raise ValueError("empty test set")
    model = nn.MlpModel(hidden_activation)
    nn.inject_params(model, params)
    pred = model.forward(test_set.features, mode="eval")
    return compute_report(pred, test_set.labels)


@dataclass
class _Rows:
    """Views of rows lo:hi of a ``_Stack``, stepped together in place. A
    single row is a plain one-model view: (P,) parameters, 2-D batches."""
    theta: np.ndarray
    model: nn.MlpModel
    optimizer: nn.Optimizer
    si_acc: cl.SiAccumulator | None
    anchors: list[cl.AnchorParams]
    importances: list[np.ndarray]


class _Stack:
    """One round's training state of a cohort of models, stacked: row k of
    every array belongs to the k-th model, its optimizer and SI
    accumulator, which ``unstack`` writes back to. A cohort of one is not
    copied: its only rows are the model's own state, stepped in place."""

    def __init__(self, models: list[nn.MlpModel], optimizers: list[nn.Optimizer],
                 si_accs: list[cl.SiAccumulator] | None = None,
                 anchors: list[list[cl.AnchorParams]] | None = None,
                 importances: list[list[np.ndarray]] | None = None):
        self._models, self._optimizers, self._si_accs = models, optimizers, si_accs
        self.hidden_activation = models[0].hidden_activation
        self._rows: dict[tuple[int, int], _Rows] = {}
        if len(models) == 1:
            self.params = models[0].params
            self._rows[(0, 1)] = _Rows(self.params, models[0], optimizers[0],
                                       si_accs[0] if si_accs else None,
                                       anchors[0] if anchors else [],
                                       importances[0] if importances else [])
            return
        self.params = np.stack([m.params for m in models])
        self.optimizer = nn.Optimizer.stack(optimizers, self.params)
        self.si_acc = None
        if si_accs:
            self.si_acc = cl.SiAccumulator(np.stack([a.theta_at_task_start for a in si_accs]),
                                           np.stack([a.omega_running for a in si_accs]),
                                           si_accs[0].xi)
        self.anchors = [cl.AnchorParams(np.stack([a[i].theta_star for a in anchors]),
                                        anchors[0][i].task_id)
                        for i in range(len(anchors[0]))] if anchors else []
        self.importances = [np.stack([imp[i] for imp in importances])
                            for i in range(len(importances[0]))] if importances else []

    def rows(self, lo: int, hi: int) -> _Rows:
        rows = self._rows.get((lo, hi))
        if rows is None:
            sel = lo if hi - lo == 1 else slice(lo, hi)
            theta = self.params[sel]
            acc = self.si_acc
            rows = _Rows(theta, nn.MlpModel(self.hidden_activation, theta),
                         self.optimizer.rows(sel),
                         None if acc is None else cl.SiAccumulator(
                             acc.theta_at_task_start[sel], acc.omega_running[sel], acc.xi),
                         [cl.AnchorParams(a.theta_star[sel], a.task_id) for a in self.anchors],
                         [imp[sel] for imp in self.importances])
            self._rows[(lo, hi)] = rows
        return rows

    def unstack(self) -> None:
        if len(self._models) == 1:
            return
        for model, row in zip(self._models, self.params):
            model.params[...] = row
        self.optimizer.unstack(self._optimizers)
        if self.si_acc is not None:
            for acc, row in zip(self._si_accs, self.si_acc.omega_running):
                acc.omega_running = row


def _schedule(plans: list[list[tuple]]) -> list[tuple[int, int, int]]:
    """(step j, lo, hi) for every run of adjacent rows lo:hi whose j-th
    batches have the same row count; plans[k][j] is row k's j-th batch as
    (new-shard indices, buffer positions or None)."""
    sizes = [[len(new) + (0 if buf is None else len(buf)) for new, buf in plan]
             for plan in plans]
    if len(plans) == 1:
        return [(j, 0, 1) for j in range(len(plans[0]))]
    schedule = []
    for j, column in enumerate(itertools.zip_longest(*sizes, fillvalue=0)):
        lo = 0
        for rows, run in itertools.groupby(column):
            hi = lo + len(tuple(run))
            if rows:
                schedule.append((j, lo, hi))
            lo = hi
    return schedule


def _epoch_batches(client: ClientState, config: ExperimentConfig, seed: int, epoch: int,
                   replay: bool) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """One client's batches of an epoch, as (shard row indices, replay
    buffer positions or None)."""
    # small shards (e.g. task splits at 10 clients) cap the batch size
    batch_size = min(config.batch_size, len(client.shard))
    if replay and client.buffer is not None and len(client.buffer) > 0:
        return cl.nr_mixed_indices(client.buffer, len(client.shard), batch_size,
                                   config.penalty.mix_ratio, seed, epoch)
    return [(idx, None) for idx in
            dataio.minibatch_indices(len(client.shard), batch_size, seed, epoch)]


def _train_epochs(stack: _Stack, members: list[ClientState], purpose: int, replay: bool,
                  loss_terms, config: ExperimentConfig, task_index: int, round_index: int,
                  label: str) -> None:
    """Every local epoch of a stack, each client's batches drawn from its
    ``purpose`` stream; ``loss_terms(lo, hi, rows, x, y)`` gives a run's
    (target, penalty gradient or None)."""
    seeds = [derive_seed(config.seed, purpose, c.client_id, task_index, round_index)
             for c in members]
    for epoch in range(config.local_epochs):
        plans = [_epoch_batches(c, config, seed, epoch, replay)
                 for c, seed in zip(members, seeds)]
        for j, lo, hi in _schedule(plans):
            rows = stack.rows(lo, hi)
            if hi - lo == 1:
                x, y = cl.mixed_batch_rows(members[lo].buffer, members[lo].shard, *plans[lo][j])
            else:
                xs, ys = zip(*(cl.mixed_batch_rows(members[k].buffer, members[k].shard,
                                                   *plans[k][j]) for k in range(lo, hi)))
                x, y = np.concatenate(xs), np.concatenate(ys)
            g = None
            try:
                target, penalty_grad = loss_terms(lo, hi, rows, x, y)
                g = nn.backward(rows.model, x, target, penalty_grad)
                stepped = rows.optimizer.step(rows.theta, g)
                if rows.si_acc is not None:
                    cl.si_accumulate(rows.si_acc, g, stepped - rows.theta)
                rows.theta[...] = stepped
            except ValueError as exc:
                bad = lo
                if g is not None:  # the first row whose gradient is not finite
                    bad += int(np.argmin(np.isfinite(g).reshape(hi - lo, -1).all(axis=1)))
                raise ExperimentError(
                    f"client {members[bad].client_id} failed in round {round_index}: "
                    f"{label}epoch {epoch} batch {j}: {exc}") from exc


def local_train(clients: list[ClientState], global_params: np.ndarray, config: ExperimentConfig,
                task_index: int, round_index: int) -> tuple[list[fed.ClientUpdate], list[float]]:
    """One round of local training for a cohort of clients, trained as one
    stack: broadcast, local epochs with strategy/CL loss terms, and the
    resulting updates. Returns (updates, post-training shard losses), in the
    order of ``clients``."""
    cfg = config
    strat = cfg.strategy
    for c in clients:
        if len(c.shard) < 2:
            raise ExperimentError(f"client {c.client_id} failed in round {round_index}: "
                                  "shard too small to train on")
    # rows follow shard size, so that clients whose batches have equal row
    # counts are adjacent and step as one run, also in a ragged last batch
    members = sorted(clients, key=lambda c: len(c.shard))

    # FedDistill: the personalised teachers train on the raw shards first
    teacher = None
    if strat.kind == "feddistill":
        teacher = _Stack([c.teacher_model for c in members],
                         [c.teacher_optimizer for c in members])
        _train_epochs(teacher, members, 20, False, lambda lo, hi, rows, x, y: (y, None),
                      cfg, task_index, round_index, "teacher ")
        teacher.unstack()

    lam = cfg.penalty.effective_lambda(cfg.cl_method)
    penalized = (cfg.cl_method in ("ewc", "ewc_online", "si", "mas")
                 and task_index > 0 and lam > 0.0 and all(c.anchors for c in members))
    si_accs = ([c.si_acc for c in members]
               if cfg.cl_method == "si" and all(c.si_acc is not None for c in members) else None)
    student = _Stack([c.model for c in members], [c.optimizer for c in members], si_accs,
                     [c.anchors for c in members] if penalized else None,
                     [c.importances for c in members] if penalized else None)
    if strat.kind == "fedbn":
        student.params[..., ~_BN_MASK] = global_params[~_BN_MASK]
    else:
        student.params[...] = global_params

    def loss_terms(lo, hi, rows, x, y):
        target = y
        if teacher is not None and strat.distill_weight > 0.0:
            tpred = teacher.rows(lo, hi).model.forward(x, mode="eval")
            target = fed.distill_target(y, tpred, strat.distill_weight)
        penalty_grad = None
        if strat.kind == "fedprox" and strat.mu > 0.0:
            _, penalty_grad = fed.fedprox_penalty(rows.theta, global_params, strat.mu)
            penalty_grad *= cl.PENALIZED_MASK
        if penalized:
            _, pg = cl.quadratic_penalty(rows.theta, rows.anchors, rows.importances, lam)
            penalty_grad = pg if penalty_grad is None else penalty_grad + pg
        return target, penalty_grad

    _train_epochs(student, members, 21, cfg.cl_method == "nr" and task_index > 0,
                  loss_terms, cfg, task_index, round_index, "")
    student.unstack()

    updates, losses = [], []
    for c in clients:
        pred = c.model.forward(c.shard.features, mode="eval")
        updates.append(fed.ClientUpdate(c.client_id, nn.extract_params(c.model), len(c.shard)))
        losses.append(nn.mse_loss(pred, c.shard.labels)[0])
    return updates, losses


def _consolidate(client: ClientState, config: ExperimentConfig, task_index: int) -> None:
    """Record CL state from the local model after the task's final local
    training and before the subsequent aggregation."""
    cfg = config
    theta = nn.extract_params(client.model)
    fseed = derive_seed(cfg.seed, 22, client.client_id, task_index)
    method = cfg.cl_method
    if method == "ewc":
        fisher = cl.compute_fisher(client.model, client.shard, cfg.penalty.fisher_samples,
                                   fseed, cfg.batch_size)
        client.anchors.append(cl.AnchorParams(theta, task_index))
        client.importances.append(fisher)
    elif method == "ewc_online":
        fisher = cl.compute_fisher(client.model, client.shard, cfg.penalty.fisher_samples,
                                   fseed, cfg.batch_size)
        client.running_fisher = cl.ewc_online_update(client.running_fisher, fisher,
                                                     cfg.penalty.gamma_online)
        client.anchors = [cl.AnchorParams(theta, task_index)]
        client.importances = [client.running_fisher]
    elif method == "si":
        omega = cl.si_consolidate(client.si_acc, theta)
        client.anchors.append(cl.AnchorParams(theta, task_index))
        client.importances.append(omega)
    elif method == "mas":
        omega = cl.mas_importance(client.model, client.shard.features, fseed)
        client.anchors.append(cl.AnchorParams(theta, task_index))
        client.importances.append(omega)
    elif method == "nr":
        cl.nr_store(client.buffer, client.shard)


def _build_clients(config: ExperimentConfig, shards: list[dataio.Dataset],
                   global_params: np.ndarray) -> list[ClientState]:
    clients = []
    for cid, shard in enumerate(shards):
        model = nn.MlpModel(config.hidden_activation)
        nn.inject_params(model, global_params)
        state = ClientState(
            client_id=cid,
            shard=shard,
            model=model,
            optimizer=nn.Optimizer(config.client_optimizer, config.learning_rate),
        )
        if config.strategy.kind == "feddistill":
            state.teacher_model = nn.MlpModel(config.hidden_activation)
            nn.inject_params(state.teacher_model, global_params)
            state.teacher_optimizer = nn.Optimizer(config.client_optimizer, config.learning_rate)
        if config.cl_method == "si":
            state.si_acc = cl.SiAccumulator(global_params.copy(), xi=config.penalty.xi)
        if config.cl_method == "nr":
            state.buffer = cl.ReplayBuffer(config.penalty.buffer_capacity,
                                           seed=derive_seed(config.seed, 23, cid))
        clients.append(state)
    return clients


def _aggregate(global_params: np.ndarray, updates: list[fed.ClientUpdate],
               config: ExperimentConfig, server_opt: nn.Optimizer | None) -> np.ndarray:
    strat = config.strategy
    weighted = strat.weighted_aggregation
    if strat.kind == "fedbn":
        return fed.fedbn_aggregate(updates, _BN_MASK, weighted).eval_params
    if strat.kind == "fedopt":
        return fed.fedopt_server_step(global_params, updates, server_opt, weighted)
    return fed.fedavg_aggregate(updates, weighted)


def run_fl(config: ExperimentConfig, train: dataio.Dataset, test: dataio.Dataset) -> RunResult:
    """Plain federated round loop (no task sequencing)."""
    if config.cl_method != "none":
        raise ValueError("run_fl requires cl_method == 'none'; use run_fcl")
    if config.augmentation:
        train = dataio.augment(train, config.augment_sigma, derive_seed(config.seed, 24))
    parts = dataio.partition_clients(train, config.n_clients, config.seed)

    template = nn.MlpModel(config.hidden_activation)
    template.init_params(np.random.default_rng([config.seed, 100]))
    global_params = nn.extract_params(template)
    clients = _build_clients(config, [p.shard for p in parts], global_params)
    server_opt = (nn.Optimizer(config.strategy.server_optimizer,
                               config.strategy.server_learning_rate)
                  if config.strategy.kind == "fedopt" else None)

    logs: list[RoundLog] = []
    events: list[tuple] = []
    for r in range(config.n_rounds):
        t0 = time.perf_counter()
        updates, losses = local_train(clients, global_params, config, 0, r)
        t1 = time.perf_counter()
        global_params = _aggregate(global_params, updates, config, server_opt)
        t2 = time.perf_counter()
        report = evaluate(global_params, test, config.hidden_activation)
        t3 = time.perf_counter()
        events.extend(("local_train", c.client_id, 0, r) for c in clients)
        events.append(("aggregate", 0, r))
        logs.append(RoundLog(r, 0, report, losses, t3 - t0, local_train_time=t1 - t0,
                             aggregate_time=t2 - t1, evaluate_time=t3 - t2))
    return RunResult(logs, global_params, events)


def run_fcl(config: ExperimentConfig, train: dataio.Dataset, test: dataio.Dataset,
            rounds_per_task: list[int] | None = None) -> RunResult:
    """Sequential two-task (circle then arrow) federated loop with the
    configured continual-learning mechanism. cl_method 'none' runs the
    unregularized sequential baseline.

    ``rounds_per_task`` lists the rounds of each task in order; it defaults
    to ``config.rounds_per_task`` (else ``config.n_rounds``) for both tasks.

    Evaluation after task-1 rounds uses the circle-only test subset; task-2
    rounds are evaluated on the full test set. Augmentation, when enabled,
    is applied per task shard (task membership is decided on clean flags).
    """
    if config.strategy.kind != "fedavg":
        raise ValueError("run_fcl adapts fedavg only")
    if rounds_per_task is None:
        rounds_per_task = [config.n_rounds if config.rounds_per_task is None
                           else config.rounds_per_task] * 2
    parts = dataio.partition_clients(train, config.n_clients, config.seed)
    client_tasks = []
    for p in parts:
        split = dataio.split_tasks(p.shard)
        for t_idx, t_ds in enumerate((split.task1, split.task2)):
            if len(t_ds) == 0:
                raise ExperimentError(f"client {p.client_id}: task {t_idx + 1} shard is empty")
        client_tasks.append((split.task1, split.task2))
    test_split = dataio.split_tasks(test)
    eval_sets = [test_split.task1, test]
    if len(test_split.task1) < 2:
        raise ExperimentError("circle test subset too small to evaluate")

    template = nn.MlpModel(config.hidden_activation)
    template.init_params(np.random.default_rng([config.seed, 100]))
    global_params = nn.extract_params(template)
    clients = _build_clients(config, [t[0] for t in client_tasks], global_params)

    logs: list[RoundLog] = []
    events: list[tuple] = []
    round_counter = 0
    for task_index, n_rounds in enumerate(rounds_per_task):
        for c in clients:
            shard = client_tasks[c.client_id][task_index]
            if config.augmentation:
                shard = dataio.augment(shard, config.augment_sigma,
                                       derive_seed(config.seed, 25, c.client_id, task_index))
            c.shard = shard
            if task_index > 0:
                c.optimizer.reset()
        for r in range(n_rounds):
            t0 = time.perf_counter()
            updates, losses = local_train(clients, global_params, config,
                                          task_index, round_counter)
            t1 = t2 = time.perf_counter()
            consolidating = r == n_rounds - 1 and config.cl_method != "none"
            if consolidating:
                for c in clients:
                    _consolidate(c, config, task_index)
                t2 = time.perf_counter()
            global_params = _aggregate(global_params, updates, config, None)
            t3 = time.perf_counter()
            report = evaluate(global_params, eval_sets[task_index], config.hidden_activation)
            t4 = time.perf_counter()
            events.extend(("local_train", c.client_id, task_index, round_counter)
                          for c in clients)
            if consolidating:
                events.extend(("importance", c.client_id, task_index, round_counter)
                              for c in clients)
            events.append(("aggregate", task_index, round_counter))
            logs.append(RoundLog(round_counter, task_index, report, losses, t4 - t0,
                                 local_train_time=t1 - t0, consolidate_time=t2 - t1,
                                 aggregate_time=t3 - t2, evaluate_time=t4 - t3))
            round_counter += 1
    return RunResult(logs, global_params, events)
