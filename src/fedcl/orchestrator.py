"""Experiment driver: round loops, client local training, aggregation
barriers, continual-learning task sequencing, and evaluation scheduling.

Determinism: every random draw comes from a stream derived from
(seed, purpose, client, task, round, ...) via numpy's SeedSequence, so
results are bit-identical regardless of how many worker threads run the
clients.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
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
    persist_client_optimizer: bool = True
    reset_optimizer_at_task: bool = True
    rounds_per_task: int | None = None  # FCL; defaults to n_rounds

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.n_clients < 1:
            raise ValueError("n_clients must be >= 1")
        if self.n_rounds < 1:
            raise ValueError("n_rounds must be >= 1")
        if self.local_epochs < 1:
            raise ValueError("local_epochs must be >= 1")
        if self.batch_size < 2:
            raise ValueError("batch_size must be >= 2")
        if self.learning_rate < 0.0:
            raise ValueError("learning_rate must be nonnegative")
        if self.client_optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown client optimizer {self.client_optimizer!r}")
        if self.cl_method not in cl.CL_METHODS:
            raise ValueError(f"unknown cl_method {self.cl_method!r}")
        if self.cl_method != "none" and self.strategy.kind != "fedavg":
            raise ValueError("continual-learning methods are only combined with fedavg")


@dataclass
class RoundLog:
    round_index: int
    task_index: int
    report: MetricsReport
    client_train_losses: list[float]
    wall_time: float


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


def _broadcast(client: ClientState, global_params: np.ndarray, strategy_kind: str) -> None:
    if strategy_kind == "fedbn":
        client.model.params[~_BN_MASK] = global_params[~_BN_MASK]
    else:
        nn.inject_params(client.model, global_params)


def local_train(client: ClientState, global_params: np.ndarray, config: ExperimentConfig,
                task_index: int, round_index: int) -> tuple[fed.ClientUpdate, float]:
    """One client's round: broadcast, local epochs with strategy/CL loss
    terms, and the resulting update. Returns (update, post-training shard loss)."""
    if len(client.shard) < 2:
        raise ExperimentError(f"client {client.client_id}: shard too small to train on")
    cfg = config
    strat = cfg.strategy
    # small shards (e.g. task splits at 10 clients) cap the batch size
    batch_size = min(cfg.batch_size, len(client.shard))
    _broadcast(client, global_params, strat.kind)
    if not cfg.persist_client_optimizer:
        client.optimizer.reset()
    omega_t = global_params.copy()

    lam = cfg.penalty.effective_lambda(cfg.cl_method)
    penalized = (cfg.cl_method in ("ewc", "ewc_online", "si", "mas")
                 and task_index > 0 and lam > 0.0 and client.anchors)
    use_replay = (cfg.cl_method == "nr" and task_index > 0
                  and client.buffer is not None and len(client.buffer) > 0)

    # FedDistill: the personalised teacher trains on the raw shard first
    if strat.kind == "feddistill":
        tseed = derive_seed(cfg.seed, 20, client.client_id, task_index, round_index)
        teacher = client.teacher_model.params
        for epoch in range(cfg.local_epochs):
            for b, (bx, by) in enumerate(dataio.minibatches(client.shard, batch_size,
                                                            tseed, epoch)):
                try:
                    g = nn.backward(client.teacher_model, bx, by)
                    teacher[...] = client.teacher_optimizer.step(teacher, g)
                except ValueError as exc:
                    raise ExperimentError(f"teacher epoch {epoch} batch {b}: {exc}") from exc

    # the model's own parameter vector: every read and write below goes
    # through it, in place
    theta = client.model.params
    bseed = derive_seed(cfg.seed, 21, client.client_id, task_index, round_index)
    for epoch in range(cfg.local_epochs):
        if use_replay:
            batches = cl.nr_mixed_batches(client.buffer, client.shard, batch_size,
                                          cfg.penalty.mix_ratio, bseed, epoch)
        else:
            batches = dataio.minibatches(client.shard, batch_size, bseed, epoch)
        for b, (bx, by) in enumerate(batches):
            try:
                target = by
                if strat.kind == "feddistill" and strat.distill_weight > 0.0:
                    tpred = client.teacher_model.forward(bx, mode="eval")
                    target = fed.distill_target(by, tpred, strat.distill_weight)
                penalty_grad = None
                if strat.kind == "fedprox" and strat.mu > 0.0:
                    _, penalty_grad = fed.fedprox_penalty(theta, omega_t, strat.mu)
                if penalized:
                    _, pg = cl.quadratic_penalty(theta, client.anchors, client.importances, lam)
                    penalty_grad = pg if penalty_grad is None else penalty_grad + pg
                g = nn.backward(client.model, bx, target, penalty_grad)
                stepped = client.optimizer.step(theta, g)
                if cfg.cl_method == "si" and client.si_acc is not None:
                    cl.si_accumulate(client.si_acc, g, stepped - theta)
                theta[...] = stepped
            except ValueError as exc:
                raise ExperimentError(f"epoch {epoch} batch {b}: {exc}") from exc

    params = nn.extract_params(client.model)
    pred = client.model.forward(client.shard.features, mode="eval")
    train_loss, _ = nn.mse_loss(pred, client.shard.labels)
    return fed.ClientUpdate(client.client_id, params, len(client.shard)), train_loss


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
        cl.nr_store(client.buffer, client.shard, fseed)


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


def _collect_updates(clients: list[ClientState], global_params: np.ndarray,
                     config: ExperimentConfig, task_index: int, round_index: int,
                     n_workers: int) -> tuple[list[fed.ClientUpdate], list[float]]:
    def work(client):
        try:
            return local_train(client, global_params, config, task_index, round_index)
        except Exception as exc:
            raise ExperimentError(
                f"client {client.client_id} failed in round {round_index}: {exc}") from exc

    if n_workers <= 1:
        results = [work(c) for c in clients]
    else:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(work, clients))
    updates = [r[0] for r in results]
    losses = [r[1] for r in results]
    return updates, losses


def _aggregate(global_params: np.ndarray, updates: list[fed.ClientUpdate],
               config: ExperimentConfig, server_opt: nn.Optimizer | None) -> np.ndarray:
    strat = config.strategy
    weighted = strat.weighted_aggregation
    if strat.kind == "fedbn":
        return fed.fedbn_aggregate(updates, _BN_MASK, weighted).eval_params
    if strat.kind == "fedopt":
        return fed.fedopt_server_step(global_params, updates, server_opt, weighted)
    return fed.fedavg_aggregate(updates, weighted)


def run_fl(config: ExperimentConfig, train: dataio.Dataset, test: dataio.Dataset,
           n_workers: int = 1) -> RunResult:
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
        updates, losses = _collect_updates(clients, global_params, config, 0, r, n_workers)
        for c in clients:
            events.append(("local_train", c.client_id, 0, r))
        global_params = _aggregate(global_params, updates, config, server_opt)
        events.append(("aggregate", 0, r))
        report = evaluate(global_params, test, config.hidden_activation)
        logs.append(RoundLog(r, 0, report, losses, time.perf_counter() - t0))
    return RunResult(logs, global_params, events)


@dataclass
class FclSchedule:
    rounds_per_task: list[int]

    @classmethod
    def default(cls, config: ExperimentConfig) -> "FclSchedule":
        per_task = config.rounds_per_task or config.n_rounds
        return cls([per_task, per_task])


def run_fcl(config: ExperimentConfig, train: dataio.Dataset, test: dataio.Dataset,
            schedule: FclSchedule | None = None, n_workers: int = 1) -> RunResult:
    """Sequential two-task (circle then arrow) federated loop with the
    configured continual-learning mechanism. cl_method 'none' runs the
    unregularized sequential baseline.

    Evaluation after task-1 rounds uses the circle-only test subset; task-2
    rounds are evaluated on the full test set. Augmentation, when enabled,
    is applied per task shard (task membership is decided on clean flags).
    """
    if config.strategy.kind != "fedavg":
        raise ValueError("run_fcl adapts fedavg only")
    schedule = schedule or FclSchedule.default(config)
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
    for task_index, n_rounds in enumerate(schedule.rounds_per_task):
        for c in clients:
            shard = client_tasks[c.client_id][task_index]
            if config.augmentation:
                shard = dataio.augment(shard, config.augment_sigma,
                                       derive_seed(config.seed, 25, c.client_id, task_index))
            c.shard = shard
            if task_index > 0 and config.reset_optimizer_at_task:
                c.optimizer.reset()
        for r in range(n_rounds):
            t0 = time.perf_counter()
            updates, losses = _collect_updates(clients, global_params, config,
                                               task_index, round_counter, n_workers)
            for c in clients:
                events.append(("local_train", c.client_id, task_index, round_counter))
            if r == n_rounds - 1 and config.cl_method != "none":
                for c in clients:
                    _consolidate(c, config, task_index)
                    events.append(("importance", c.client_id, task_index, round_counter))
            global_params = _aggregate(global_params, updates, config, None)
            events.append(("aggregate", task_index, round_counter))
            report = evaluate(global_params, eval_sets[task_index], config.hidden_activation)
            logs.append(RoundLog(round_counter, task_index, report, losses,
                                 time.perf_counter() - t0))
            round_counter += 1
    return RunResult(logs, global_params, events)
