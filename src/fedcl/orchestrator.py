"""Experiment driver: round loops, client local training, aggregation
barriers, continual-learning task sequencing, and evaluation scheduling.

Experiments train in lockstep groups. ``run_group`` advances experiments
that share a ``group_key`` (and so their shards and every minibatch draw)
round by round, in chunks of members with at most ``GROUP_CLIENTS``
clients (a member with more trains alone): each member is a ``_Run``, and
each round the clients of all members of a chunk train as one cohort in
one ``local_train`` call; then each member consolidates, aggregates and
evaluates on its own. ``run_fl`` and ``run_fcl`` run a group of one. FCL
is two tasks, circle then arrow; the last round of task 1 consolidates
each client's CL state, and task 2 trains against it.
FCL members compute the same bits up to task 1's last local training,
the fork round, as no CL method acts in task 1, so a group trains that
prefix once, as one lead run, before any chunk trains; FL members share
nothing. Each FCL member forks from its lead as its chunk starts
(``_fork``), finishes the fork round itself, takes task 2's shards and
trains task 2 with its chunk. So a walk of rounds (``_lockstep``) covers
one task: a lead's task 1 up to the fork round's training, an FL chunk's
one task or an FCL chunk's task 2. Experiments of one
``trajectory_key`` (options their strategy and CL method never read
aside, and EWC-Online, whose decay acts from a second consolidation on,
as EWC) compute the same bits, so a group trains each key once and hands
its result to every such twin.

Local training is client-stacked: ``local_train`` gathers a cohort of
clients into (C, P) arrays (parameters, optimizer state, SI path
integrals) once per task, with one copy of its clients' shards, and from
then on each client's state is row views of its cohort's stack
(``_Stack``), kept from round to round while the cohort trains
together. It takes step j of every run of adjacent clients that have a
j-th batch, whatever their batches' row counts (``_schedule``; the
shorter ones are padded inside ``nn.backward``), with one ``nn.backward``
and one ``Optimizer.step`` on views of their rows, so nothing is written
back;
each client's loss on its shard after the round comes from a stacked eval
pass over adjacent rows of any shard sizes, each shard padded to the
pass's largest and the padding left out of its loss. What a client's
training adds to the data loss (at most one of NR replay, SI's path
integral, a quadratic penalty and a FedDistill teacher) comes from its
``Member`` and its own state, so one cohort may mix the clients of
several experiments. A stack's rows are sorted by that term
(``_cohort_order``), so each term covers one block of adjacent rows and
a run of rows reads its share of the term as a slice; a FedDistill
teacher is a client of its own (``ClientState.teacher``), the teachers
are a stack of their own, in the order of their students' block, and a
run reads them in place. The quadratic penalty is one (lambda, anchor,
importance) triple: FedProx's proximal term is (mu, the round's global
parameters, a unit importance on the optimized slots), and EWC,
EWC-Online, SI and MAS give, in task 2, (lambda, the parameters at the
end of task 1, their importance map).

Determinism: every random draw comes from a stream derived from
(seed, purpose, client, task, round, ...) via numpy's SeedSequence, and
model k of a stack computes exactly the bits it would compute alone, so
results are bit-identical however experiments are grouped into chunks.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, fields

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
        if not 0.0 <= self.learning_rate < math.inf:  # NaN included
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if self.client_optimizer not in nn.OPTIMIZERS:
            raise ValueError(f"client_optimizer must be one of {', '.join(nn.OPTIMIZERS)}, "
                             f"got {self.client_optimizer!r}")
        if self.hidden_activation not in nn.HIDDEN_ACTIVATIONS:
            raise ValueError(f"hidden_activation must be one of "
                             f"{', '.join(nn.HIDDEN_ACTIVATIONS)}, got {self.hidden_activation!r}")
        if not 0.0 <= self.augment_sigma < math.inf:
            raise ValueError(f"augment_sigma must be finite and >= 0, got {self.augment_sigma}")
        if self.cl_method not in cl.CL_METHODS:
            raise ValueError(f"cl_method must be one of {', '.join(cl.CL_METHODS)}, "
                             f"got {self.cl_method!r}")
        if self.cl_method != "none" and self.strategy.kind != "fedavg":
            raise ValueError(f"cl_method {self.cl_method!r} combines only with strategy "
                             f"fedavg, got {self.strategy.kind!r}")
        if self.rounds_per_task is not None and self.rounds_per_task < 1:
            raise ValueError(f"rounds_per_task must be >= 1, got {self.rounds_per_task}")

    @property
    def task_rounds(self) -> int:
        """The rounds of each FCL task: ``rounds_per_task``, else ``n_rounds``."""
        return self.n_rounds if self.rounds_per_task is None else self.rounds_per_task


@dataclass
class RoundLog:
    round_index: int
    task_index: int
    report: MetricsReport
    client_train_losses: list[float]
    wall_time: float
    # seconds of each phase of the round; consolidate is 0 except in the
    # last round of FCL's task 1. The clients of a chunk of members train
    # together, so local_train_time is the chunk's shared training seconds;
    # a fork's rounds up to its fork round (see ``_fork``) hold its lead's,
    # which trains alone. A twin (see ``trajectory_key``) has every log,
    # timings included, of the run it shares its results with.
    local_train_time: float = 0.0
    consolidate_time: float = 0.0
    aggregate_time: float = 0.0
    evaluate_time: float = 0.0


@dataclass
class RunResult:
    round_logs: list[RoundLog]
    final_params: np.ndarray

    @property
    def final_report(self) -> MetricsReport:
        return self.round_logs[-1].report


# The most padded shard rows (rows of the pass times its largest shard) one
# stacked eval forward of ``_shard_losses`` takes, and the most rows of one
# forward of a single model: a larger shard passes alone, and it and a
# larger test set go through ``_predictions`` in chunks of at most this many
# rows (one more where a one-row tail is folded in), so a pass's
# temporaries are bounded whatever the data. Set by measurement
# (``perfbench/run.py --workload fl_grid --seconds 8``, 2-core Xeon), when a
# pass took equal-size shards only: a 2-client cell stacks up to ten
# 750-row shards, and with no cap the peak resident memory
# rose 7% over the per-client loss (40.4 to 43.3 MB); with caps of 4,096,
# 2,048 and 1,024 rows it rose 2.5%, 0.6% and not measurably, with wall
# times within the noise of one run each.
LOSS_PASS_ROWS = 1024


def group_key(config: ExperimentConfig) -> tuple:
    """Experiments whose configs have the same key (and that are all FL or
    all FCL) can train in lockstep as one group. The key is every field but
    the strategy, CL method and penalty options, which ride on each
    client's ``Member``: the shards, task split, round schedule and
    minibatch draws follow from the others, and a stacked optimizer steps
    every row with one kind and learning rate. A field added later splits
    groups unless it is left out here."""
    return tuple(getattr(config, f.name) for f in fields(config)
                 if f.name not in ("strategy", "cl_method", "penalty"))


# the options each strategy kind (besides weighted_aggregation, which every
# aggregate reads) and each CL method reads
_STRATEGY_READS = {"fedavg": (), "fedbn": (), "fedprox": ("mu",),
                   "fedopt": ("server_optimizer", "server_learning_rate"),
                   "feddistill": ("distill_weight",)}
_PENALTY_READS = {"none": (), "ewc": ("lambda_", "fisher_samples"), "si": ("lambda_", "xi"),
                  "mas": ("lambda_",), "nr": ("buffer_capacity", "mix_ratio")}


def trajectory_key(config: ExperimentConfig) -> ExperimentConfig:
    """The config with every strategy and penalty option that its strategy
    kind and CL method never read reset to its default, ``lambda_`` made
    the effective lambda, and EWC-Online made EWC: its decay acts from a
    second consolidation on, and FCL has one, so over FCL's two tasks it
    computes EWC's bits. Experiments of equal keys compute the same bits,
    and ``run_group`` trains each key once."""
    method = "ewc" if config.cl_method == "ewc_online" else config.cl_method
    strat, pen = config.strategy, config.penalty
    strategy = fed.StrategyConfig(strat.kind, weighted_aggregation=strat.weighted_aggregation,
                                  **{n: getattr(strat, n) for n in _STRATEGY_READS[strat.kind]})
    kept = {n: getattr(pen, n) for n in _PENALTY_READS[method]}
    if "lambda_" in kept:
        kept["lambda_"] = pen.effective_lambda(config.cl_method)
    return dataclasses.replace(config, strategy=strategy, cl_method=method,
                               penalty=cl.PenaltyConfig(**kept))


@dataclass
class Member:
    """One experiment as its clients see it: its config, the global
    parameters broadcast to them this round (FedProx's anchor), and the
    error that stopped it. Every loss term a client trains with comes from
    its member and its own ``ClientState``, so one cohort may mix the
    clients of several experiments."""
    config: ExperimentConfig
    global_params: np.ndarray
    error: Exception | None = None


@dataclass
class ClientState:
    """One client of a member. While its cohort trains together in a task,
    ``model``, ``optimizer`` and the SI path integral
    ``si_acc.omega_running`` are views of the client's row of the cohort's
    stack (``_Stack``). A FedDistill teacher is a client of its own, of the
    same id, shard and member, with no loss term, stacked with the other
    teachers. Which task a client trains in shows in its own state: an
    anchor or a filled replay buffer exists only after task 1's
    consolidation."""
    client_id: int
    shard: dataio.Dataset
    model: nn.MlpModel
    optimizer: nn.Optimizer
    member: Member
    teacher: ClientState | None = None  # FedDistill with a nonzero weight
    # EWC, EWC-Online, SI and MAS: the parameters at the end of task 1 and
    # their importance map, which the task-2 penalty pulls towards
    anchor: np.ndarray | None = None
    importance: np.ndarray | None = None
    si_acc: cl.SiAccumulator | None = None
    buffer: cl.ReplayBuffer | None = None


_BN_MASK = nn.bn_mask()
# FedProx's importance: every optimized slot weighs 1, so its quadratic
# penalty is the proximal term mu/2 * ||theta - anchor||^2 on those slots
_UNIT_IMPORTANCE = cl.PENALIZED_MASK.astype(np.float64)


def evaluate(params: np.ndarray, test_set: dataio.Dataset, hidden_activation: str = "identity",
             model: nn.MlpModel | None = None) -> MetricsReport:
    """Single eval-mode pass of the aggregated model over the test set.
    ``model``, a single model of ``hidden_activation`` (a run's own), takes
    the parameters in place of a fresh model."""
    if len(test_set) == 0:
        raise ValueError("empty test set")
    if model is None:
        model = nn.MlpModel(hidden_activation)
    nn.inject_params(model, params)
    return compute_report(_predictions(model, test_set.features), test_set.labels)


def _predictions(model: nn.MlpModel, x: np.ndarray) -> np.ndarray:
    """The eval predictions of ``model`` for the rows ``x``, as one array.
    More than ``LOSS_PASS_ROWS`` rows, which only a single model's pass has
    (``_loss_passes`` keeps a stack's within that, and gives a single
    model's rows as a slice, so they are a view), are forwarded in chunks
    of at most that many, written into the array, a one-row tail folded
    into the chunk before it: numpy takes a matrix-vector path for a single
    row, which changes its bits, while chunks of two rows or more give each
    row the bits of one large pass (``TestChunkedForward`` in
    ``tests/test_orchestrator.py`` checks this on the build it runs on)."""
    n = len(x)
    if n <= LOSS_PASS_ROWS:
        return model.forward(x, mode="eval")
    starts = list(range(0, n - 1, LOSS_PASS_ROWS))  # no chunk starts at the last row
    pred = np.empty((n, nn.OUT_DIM))
    for a, b in zip(starts, starts[1:] + [n]):
        pred[a:b] = model.forward(x[a:b], mode="eval")
    return pred


@dataclass
class _Rows:
    """Views of rows lo:hi of a ``_Stack``, stepped together in place
    (``model.params``), and the loss terms of the clients on them. A single
    row is a plain one-model view: (P,) parameters, 2-D batches.

    Each loss term covers the rows ``sel`` of the run, a slice
    (``slice(None)`` for a single row), and holds one value per covered
    row, a view of the stack's values stacked like the rows (a plain value
    for a single row)."""
    model: nn.MlpModel
    optimizer: nn.Optimizer
    si: tuple | None = None       # SI: (sel, accumulator of the path integrals)
    penalty: tuple | None = None  # (sel, lambda, anchor, importance)
    distill: tuple | None = None  # FedDistill: (sel, teachers' model, weight)


class _Stack:
    """The training state of a cohort of clients for a task, stacked: row k
    of every array belongs to the k-th client's model and optimizer. A
    FedDistill teacher is a client of its own, so a stack of teachers is
    built like any other; ``teacher`` only makes its clients draw from the
    teacher stream and name their errors so (``_train_epochs``).
    Building it copies the clients' state into the stack once and rebinds
    each client's model, optimizer and SI path integral to views of its
    row, so the steps train the clients' own state and nothing is written
    back; it also copies its clients' shards and replay buffers, once, into
    the table its batches are taken from (``sources``; see ``_sources``).
    ``local_train`` keeps a stack, its row views (``rows``, ``model``) and
    its loss terms while the cohort trains together in the task, and
    ``refresh`` brings in FedProx's anchor, the one term value that changes
    from round to round.

    A student stack's rows are in ``_cohort_order``, so each loss term
    covers one block a:b of them, and it is kept as (a, b, its values
    stacked over the block): a run of rows takes the slice of the block it
    overlaps as views. The FedDistill teachers are ``teachers``, the stack
    of the clients with teachers, whose rows follow the block's order and
    have finished the round's training when the students step. The plan of
    its post-round loss passes (``_loss_passes``: the rows of each pass,
    their source rows and shard sizes) is built once too, and again only in
    a round in which a member with rows here failed."""

    def __init__(self, clients: list[ClientState], teachers: "_Stack | None" = None,
                 teacher: bool = False):
        self.clients, self.teachers, self.teacher = clients, teachers, teacher
        self.failed = False  # whether a member with rows here has failed this round
        self.passes = None   # ``_loss_passes``, on first use
        self.hidden_activation = clients[0].model.hidden_activation
        self.params = np.stack([c.model.params for c in clients])
        self.optimizer = nn.Optimizer.stack([c.optimizer for c in clients], self.params)
        self._models = {}  # (lo, hi) -> the model of rows lo:hi
        for k, c in enumerate(clients):
            c.model = self._models[k, k + 1] = nn.MlpModel(self.hidden_activation, self.params[k])
            c.optimizer = self.optimizer.rows(k)
        # a task's shards and replay buffers stay as they are
        self.sources = _sources(clients, [_replays(c) for c in clients])
        self._rows: dict[tuple[int, int], _Rows] = {}
        self._terms: dict[str, tuple] = {}  # loss term -> (a, b, *its values over rows a:b)
        self._anchored: list[tuple[np.ndarray, Member]] = []  # FedProx: (anchor row, member)
        self._stack_terms()

    def _stack_terms(self) -> None:
        clients = self.clients
        penalties = [_penalty(c) for c in clients]
        if si := _block([c.si_acc is not None for c in clients]):
            a, b = si
            omega = np.stack([c.si_acc.omega_running for c in clients[a:b]])
            for c, row in zip(clients[a:b], omega):
                c.si_acc.omega_running = row
            self._terms["si"] = (a, b, omega)
        if penalized := _block([term is not None for term in penalties]):
            a, b = penalized
            lambdas, anchors, importances = map(np.stack, zip(*penalties[a:b]))
            self._terms["penalty"] = (a, b, lambdas, anchors, importances)
            self._anchored = [(anchor, c.member) for c, anchor in zip(clients[a:b], anchors)
                              if c.member.config.strategy.kind == "fedprox"]
        if distilled := _block([c.teacher is not None for c in clients]):
            a, b = distilled
            self._terms["distill"] = (a, b, np.array(
                [c.member.config.strategy.distill_weight for c in clients[a:b]])[:, None, None])

    def refresh(self) -> None:
        """Bring in FedProx's anchor, the round's global parameters."""
        for anchor, member in self._anchored:
            anchor[...] = member.global_params

    def model(self, lo: int, hi: int) -> nn.MlpModel:
        """The model of rows lo:hi, a view built once; row k's is the k-th
        client's model."""
        model = self._models.get((lo, hi))
        if model is None:
            model = self._models[(lo, hi)] = nn.MlpModel(self.hidden_activation,
                                                         self.params[lo:hi])
        return model

    def rows(self, lo: int, hi: int) -> _Rows:
        """The views of rows lo:hi, built once. A term kept over rows a:b
        covers their rows max(a, lo):min(b, hi), if any."""
        rows = self._rows.get((lo, hi))
        if rows is not None:
            return rows
        one = hi - lo == 1
        rows = self._rows[(lo, hi)] = _Rows(self.model(lo, hi),
                                            self.optimizer.rows(lo if one else slice(lo, hi)))
        for name, (a, b, *values) in self._terms.items():
            i, j = max(a, lo), min(b, hi)
            if i < j:
                part = i - a if one else slice(i - a, j - a)
                term = [slice(None) if one else slice(i - lo, j - lo), *(v[part] for v in values)]
                if name == "si":  # only the path integral is stepped; the task's start is not read
                    term[1] = cl.SiAccumulator(None, term[1])
                if name == "distill":
                    term.insert(1, self.teachers.model(i - a, j - a))
                setattr(rows, name, tuple(term))
        return rows


def _block(flags: list[bool]) -> tuple[int, int] | None:
    """The rows a:b whose flags are set, adjacent in ``_cohort_order``, or
    None when none is."""
    rows = [k for k, flag in enumerate(flags) if flag]
    return (rows[0], rows[-1] + 1) if rows else None


def _penalty(client: ClientState) -> tuple | None:
    """The client's quadratic penalty this round as (lambda, anchor,
    importance), or None when it trains without one: FedProx's proximal
    term towards the round's global parameters, or, in task 2 (once task
    1's consolidation set the anchor), the CL penalty (EWC, EWC-Online, SI,
    MAS) towards the end of task 1."""
    cfg = client.member.config
    if cfg.strategy.kind == "fedprox" and cfg.strategy.mu > 0.0:
        return cfg.strategy.mu, client.member.global_params, _UNIT_IMPORTANCE
    if client.anchor is None:
        return None
    lam = cfg.penalty.effective_lambda(cfg.cl_method)
    return (lam, client.anchor, client.importance) if lam > 0.0 else None


def _replays(client: ClientState) -> bool:
    """Whether the client mixes replayed rows into its batches: in task 2,
    once task 1's consolidation has filled its buffer."""
    return client.buffer is not None and len(client.buffer) > 0


def _cohort_order(clients: list[ClientState]) -> list[ClientState]:
    """The rows of a cohort, sorted by the terms their clients train with
    (NR replay, SI's path integral, a quadratic penalty, a FedDistill
    teacher), then by shard size. So each term covers one block of
    adjacent rows, and within a block the clients that have a j-th batch
    are adjacent, so they step as one run (``_schedule``). The sort is
    stable, so each member's clients stay in order. A
    client with more than one term is an error: no config builds one."""
    def key(c: ClientState) -> tuple:
        terms = (_replays(c), c.si_acc is not None, _penalty(c) is not None,
                 c.teacher is not None)
        if sum(terms) > 1:
            raise ValueError(f"client {c.client_id} trains with more than one loss term")
        return (*terms, len(c.shard))
    return sorted(clients, key=key)


def _schedule(plans: list[list[tuple]]) -> list[tuple[int, int, int]]:
    """(step j, lo, hi) for every maximal run of adjacent rows lo:hi that
    have a j-th batch, whatever its row count; plans[k] is row k's batches.
    A row with no j-th batch takes no step. The rows of a loss-term block
    are sorted by shard size (``_cohort_order``), so those that have a j-th
    batch are one run per block."""
    lengths = [len(plan) for plan in plans]
    if len(plans) == 1:
        return [(j, 0, 1) for j in range(lengths[0])]
    schedule = []
    for j in range(max(lengths)):
        lo = 0
        for has, run in itertools.groupby(lengths, key=j.__lt__):
            hi = lo + len(tuple(run))
            if has:
                schedule.append((j, lo, hi))
            lo = hi
    return schedule


def _epoch_batches(client: ClientState, purpose: int, task_index: int, round_index: int,
                   epoch: int, drawn: dict) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """One client's batches of an epoch from its ``purpose`` stream, as
    (shard row indices, replay buffer positions or None). A plain draw
    depends only on its key, so it is kept in ``drawn``, the stack's draws
    of the epoch, and the clients of one client id in a stack draw it once."""
    cfg, n = client.member.config, len(client.shard)
    # small shards (e.g. task splits at 10 clients) cap the batch size
    batch_size = min(cfg.batch_size, n)
    if _replays(client):
        stream = derive_seed(cfg.seed, purpose, client.client_id, task_index, round_index)
        return cl.nr_mixed_indices(client.buffer, n, batch_size, cfg.penalty.mix_ratio,
                                   stream, epoch)
    key = (cfg.seed, purpose, client.client_id, task_index, round_index, n, batch_size, epoch)
    if key not in drawn:
        stream = derive_seed(cfg.seed, purpose, client.client_id, task_index, round_index)
        batches = dataio.minibatch_indices(n, batch_size, stream, epoch)
        drawn[key] = [(idx, None) for idx in batches]
    return drawn[key]


def _fail(stack: _Stack, failing: list[ClientState], context: tuple, j: int,
          exc: Exception) -> None:
    """Stop the members of the failing clients, each with its first error,
    naming the client, round and step; ``context`` is (round, label, epoch)."""
    round_index, label, epoch = context
    stack.failed = True
    for c in failing:
        if c.member.error is None:
            error = ExperimentError(f"client {c.client_id} failed in round {round_index}: "
                                    f"{label}epoch {epoch} batch {j}: {exc}")
            error.__cause__ = exc
            c.member.error = error


def _live_runs(clients: list[ClientState], lo: int, hi: int):
    """The maximal runs a:b inside lo:hi of rows whose member has not failed."""
    a = lo
    for k in range(lo, hi + 1):
        if k == hi or clients[k].member.error is not None:
            if k > a:
                yield a, k
            a = k + 1


def _sources(clients: list[ClientState], replays: list[bool]) -> tuple:
    """(features, labels, offsets) of the rows a stack's batches are taken
    from; offsets[k] is where client k's shard and, when it replays, its
    buffer rows start. Each distinct shard and replay buffer is copied once,
    when the stack is built (the clients of one client id in a group share
    their shard); a lone block, such as a one-client stack's shard, is read
    in place."""
    blocks, offsets, starts, pos = [], [], {}, 0
    for c, replay in zip(clients, replays):
        own = (c.shard, c.buffer) if replay else (c.shard,)
        for block in own:
            if id(block) not in starts:
                starts[id(block)] = pos
                blocks.append(block)
                pos += len(block)
        offsets.append(tuple(starts[id(block)] for block in own))
    if len(blocks) == 1:
        return blocks[0].features, blocks[0].labels, offsets
    return (np.concatenate([b.features for b in blocks]),
            np.concatenate([b.labels for b in blocks]), offsets)


def _epoch_index(offsets: list, plans: list, schedule: list) -> tuple:
    """The source rows of every batch of an epoch, as one index array in
    schedule order: the rows of entry (j, lo, hi) are the client-major
    batch of rows lo:hi at step j, each client's new-shard rows then its
    buffer rows, of any count. Returns (index, the edges of each entry):
    client lo + i's rows of an entry are index[edges[i]:edges[i + 1]]."""
    pieces, shifts, sizes, bounds, start = [], [], [], [], 0
    for j, lo, hi in schedule:
        edges = [start]
        for k in range(lo, hi):
            for idx, shift in zip(plans[k][j], offsets[k]):
                if idx is not None:
                    pieces.append(idx)
                    shifts.append(shift)
                    sizes.append(len(idx))
                    start += len(idx)
            edges.append(start)
        bounds.append(edges)
    index = np.concatenate(pieces)
    if any(shifts):
        index += np.repeat(shifts, sizes)
    return index, bounds


def _counts(edges: list) -> list | None:
    """The row count of each client between adjacent ``edges``, or None
    when they are all equal."""
    counts = [e - s for s, e in zip(edges, edges[1:])]
    return None if min(counts) == max(counts) else counts


def _loss_gradient(rows: _Rows, x: np.ndarray, y: np.ndarray, k: int,
                   counts: list | None) -> np.ndarray:
    """The gradient of rows' loss on a client-major batch of k clients,
    ``counts`` rows each in a ragged step (else None: equal counts): the
    data loss against the labels, or the distillation target of the rows
    with teachers, plus each row's quadratic penalty. The teachers of a
    ragged step forward its rows padded as ``nn.backward`` pads them."""
    target = y
    if rows.distill is not None:
        sel, teacher, weight = rows.distill
        if counts is None:
            xs, target = x.reshape(k, -1, nn.IN_DIM), y.reshape(k, -1, nn.OUT_DIM).copy()
        else:
            (xs, keep), (target, _) = nn.pad_rows(x, counts), nn.pad_rows(y, counts)
        tpred = teacher.forward(xs[sel].reshape(-1, nn.IN_DIM), mode="eval")
        target[sel] = fed.distill_target(target[sel], tpred.reshape(target[sel].shape), weight)
        target = target.reshape(y.shape) if counts is None else target[keep]
    g = nn.backward(rows.model, x, target, None, "train", counts)
    if rows.penalty is not None:
        sel, lam, anchor, importance = rows.penalty
        g[sel] += cl.quadratic_penalty_grad(rows.model.params[sel], anchor, importance, lam)
    return g


def _apply(rows: _Rows, g: np.ndarray) -> None:
    theta = rows.model.params
    if rows.si is None:  # nothing reads the old parameters: step them in place
        rows.optimizer.step(theta, g, out=theta)
        return
    stepped = rows.optimizer.step(theta, g)
    sel, acc = rows.si
    cl.si_accumulate(acc, g[sel], (stepped - theta)[sel])
    theta[...] = stepped


def _step(stack: _Stack, x: np.ndarray, y: np.ndarray, j: int, lo: int, hi: int,
          counts: list | None, context: tuple) -> None:
    """Step rows lo:hi of a stack on their client-major j-th batches
    ``x`` and ``y``, as one ragged step when ``counts`` gives each row's
    row count (``_counts``). A step that fails stops the members of its
    failing rows; every other row is stepped from the gradient already
    computed, since its forward has already moved its BatchNorm running
    statistics."""
    clients, k = stack.clients, hi - lo
    rows = stack.rows(lo, hi)
    try:
        g = _loss_gradient(rows, x, y, k, counts)
    except ValueError as exc:
        _fail(stack, clients[lo:hi], context, j, exc)
        return
    try:
        _apply(rows, g)
    except ValueError as exc:  # a row's gradient is not finite
        finite = np.isfinite(g).reshape(k, -1).all(axis=1)
        _fail(stack, [clients[lo + i] for i in np.flatnonzero(~finite)], context, j, exc)
        for a, b in _live_runs(clients, lo, hi):
            _apply(stack.rows(a, b), g[a - lo] if b - a == 1 else g[a - lo:b - lo])


def _train_epochs(stack: _Stack, task_index: int, round_index: int) -> None:
    """Every local epoch of a stack, each client's batches drawn from its
    teacher stream (purpose 20) in a teacher stack, else from its training
    stream (21), mixed with its replay buffer when it replays. Step j of an
    epoch is one ``nn.backward`` and one ``Optimizer.step`` per run of
    ``_schedule``, all the adjacent rows that have a j-th batch, padded
    inside ``nn.backward`` when their row counts differ; a step gathers its
    run's client-major batch with one ``take`` per array. The rows of a
    member that has failed, before the call or in it, sit out every
    remaining step, and the live rows around them step as runs of their
    own, on their own slices of the batch."""
    clients = stack.clients
    purpose, label = (20, "teacher ") if stack.teacher else (21, "")
    stack.failed = any(c.member.error is not None for c in clients)
    features, labels, offsets = stack.sources
    for epoch in range(clients[0].member.config.local_epochs):
        drawn: dict = {}
        plans = [_epoch_batches(c, purpose, task_index, round_index, epoch, drawn)
                 for c in clients]
        schedule = _schedule(plans)
        index, bounds = _epoch_index(offsets, plans, schedule)
        context = (round_index, label, epoch)
        for (j, lo, hi), edges in zip(schedule, bounds):
            for a, b in (_live_runs(clients, lo, hi) if stack.failed else ((lo, hi),)):
                part = edges[a - lo:b - lo + 1]
                rows = index[part[0]:part[-1]]
                _step(stack, features.take(rows, axis=0), labels.take(rows, axis=0),
                      j, a, b, None if b - a == 1 else _counts(part), context)


def local_train(clients: list[ClientState], task_index: int, round_index: int,
                stacks: dict | None = None
                ) -> tuple[list[fed.ClientUpdate | None], list[float | None]]:
    """One round of local training for a cohort of clients, trained as one
    stack; the clients may belong to several members. Each client takes its
    member's global parameters (FedBN: all but the BatchNorm slots), trains
    its local epochs with its own loss terms, and gives an update. Returns
    (updates, post-training shard losses) in the order of ``clients``; the
    losses come from stacked eval passes over adjacent rows of any shard
    sizes, each shard padded to the pass's largest, at most
    ``LOSS_PASS_ROWS`` padded rows a pass (``_shard_losses``). The stack's
    rows are in ``_cohort_order``, so each loss term covers one block of
    them; a client with more than one term is a ValueError.

    The stacks (the teachers' and the students') are kept in ``stacks``,
    keyed by (teacher or not, task, the ids of their clients in order),
    which the call leaves holding exactly the stacks it trained. A cohort
    that trains together again in the next round of the task finds its
    stack, and its clients' state still row views of it: only FedProx's
    anchor is refreshed (``_Stack.refresh``). A cohort whose key changed,
    in a new task or when a member failed, is stacked afresh from its
    clients' current state, and the stack it leaves is let go. With
    ``stacks`` None the stacks last this call.

    A failure stops the member of the failing client, not the cohort: the
    error, naming client, round and step, becomes its ``Member.error``, and
    every client of a failed member gets None for both. A member whose
    teacher fails keeps its rows in the student stack, where they sit out
    the round's steps as a member's rows do after a failed step."""
    for c in clients:
        if c.member.error is None and len(c.shard) < 2:
            c.member.error = ExperimentError(f"client {c.client_id} failed in round "
                                             f"{round_index}: shard too small to train on")
    live = _cohort_order([c for c in clients if c.member.error is None])
    if len({c.member.config.local_epochs for c in live}) > 1:
        raise ValueError("the clients of a cohort must train the same number of local epochs")
    stacks = {} if stacks is None else stacks
    earlier = stacks.copy()
    stacks.clear()  # to hold the stacks this call trains

    # FedDistill: the personalised teachers train on the raw shards first
    teachers = student = None
    if distilling := [c.teacher for c in live if c.teacher is not None]:
        teachers = _cohort_stack(earlier, stacks, distilling, task_index, teacher=True)
        _train_epochs(teachers, task_index, round_index)

    if live:
        for c in live:
            if c.member.config.strategy.kind == "fedbn":
                c.model.params[~_BN_MASK] = c.member.global_params[~_BN_MASK]
            else:
                c.model.params[...] = c.member.global_params
        student = _cohort_stack(earlier, stacks, live, task_index, teachers)
        _train_epochs(student, task_index, round_index)

    losses = {} if student is None else _shard_losses(student)
    updates = {id(c): fed.ClientUpdate(c.client_id, nn.extract_params(c.model), len(c.shard))
               for c in clients if c.member.error is None}
    return [updates.get(id(c)) for c in clients], [losses.get(id(c)) for c in clients]


def _cohort_stack(earlier: dict, stacks: dict, clients: list[ClientState], task_index: int,
                  teachers: _Stack | None = None, teacher: bool = False) -> _Stack:
    """The clients' stack from ``earlier``, the last round's stacks,
    refreshed, or a new one; either way entered in ``stacks``."""
    key = (teacher, task_index, *map(id, clients))
    stack = earlier.get(key)
    if stack is None:
        stack = _Stack(clients, teachers, teacher)
    else:
        stack.refresh()
    stacks[key] = stack
    return stack


def _shard_losses(stack: _Stack) -> dict[int, float]:
    """id(client) -> the loss of its model's eval predictions on its shard,
    for each client of the stack whose member has not failed. Each pass of
    ``_loss_passes`` gathers its rows' shards, each padded to the pass's
    largest, with one ``take`` per array (views, when the pass's rows are
    a slice, as a lone shard's always are), and goes through one eval forward
    of the stack's model of those rows (a lone large shard through chunks
    of ``LOSS_PASS_ROWS`` rows) and one ``nn.mse_loss`` call, which
    leaves the padded rows out of each model's sum. Model k of a stack
    computes the bits it would compute alone, so each loss is the client's
    own."""
    if stack.passes is None or stack.failed:
        stack.passes = _loss_passes(stack)
    features, labels, _ = stack.sources
    clients, losses = stack.clients, {}
    for lo, hi, rows, counts in stack.passes:
        if isinstance(rows, slice):
            x, y = features[rows], labels[rows]
        else:
            x, y = features.take(rows, axis=0), labels.take(rows, axis=0)
        pred = _predictions(stack.model(lo, hi), x).reshape(hi - lo, -1, nn.OUT_DIM)
        scalar, _ = nn.mse_loss(pred, y.reshape(pred.shape), counts)
        losses.update(zip(map(id, clients[lo:hi]), scalar.tolist()))
    return losses


def _loss_passes(stack: _Stack) -> list[tuple]:
    """The eval passes of ``_shard_losses`` over the rows of live members,
    as (lo, hi, source rows, shard sizes). Each run of such rows is cut into
    passes of adjacent rows whose padded size (rows times the largest shard
    of the pass) is at most ``LOSS_PASS_ROWS``; a larger shard passes alone,
    forwarded in chunks (``_predictions``).
    The source rows index ``stack.sources``: each row's shard, padded with
    repeats of its last row, or a slice when the shards are consecutive
    equal-size rows of one table, as a pass of one row always is."""
    clients, offsets = stack.clients, stack.sources[2]
    sizes = [len(c.shard) for c in clients]
    passes = []
    for a, b in _live_runs(clients, 0, len(clients)):
        lo = a
        while lo < b:
            hi, n = lo + 1, sizes[lo]
            while hi < b and (hi + 1 - lo) * max(n, sizes[hi]) <= LOSS_PASS_ROWS:
                n = max(n, sizes[hi])
                hi += 1
            counts = np.array(sizes[lo:hi])
            starts = [offsets[k][0] for k in range(lo, hi)]
            first, end = starts[0], starts[0] + n * (hi - lo)
            if (counts == n).all() and starts == list(range(first, end, n)):
                rows = slice(first, end)
            else:
                rows = (np.minimum(np.arange(n), counts[:, None] - 1)
                        + np.array(starts)[:, None]).ravel()
            passes.append((lo, hi, rows, counts))
            lo = hi
    return passes


def _consolidate(client: ClientState, task_index: int) -> None:
    """Record CL state from the local model after the task's final local
    training and before the subsequent aggregation: the replay buffer, or
    the anchor and importance map of the next task's penalty."""
    cfg = client.member.config
    method = cfg.cl_method
    if method == "nr":
        cl.nr_store(client.buffer, client.shard)
        return
    theta = nn.extract_params(client.model)
    fseed = derive_seed(cfg.seed, 22, client.client_id, task_index)
    if method in ("ewc", "ewc_online"):
        fisher = cl.compute_fisher(client.model, client.shard, cfg.penalty.fisher_samples,
                                   fseed, cfg.batch_size)
        client.importance = (fisher if method == "ewc" else cl.ewc_online_update(
            client.importance, fisher, cfg.penalty.gamma_online))
    elif method == "si":
        client.importance = cl.si_consolidate(client.si_acc, theta)
        client.si_acc = None  # no later task reads a task-2 path integral
    elif method == "mas":
        client.importance = cl.mas_importance(client.model, client.shard.features, fseed)
    client.anchor = theta


def _build_clients(member: Member, shards: list[dataio.Dataset]) -> list[ClientState]:
    """The member's clients, each starting from its global parameters, and
    each FedDistill client's teacher, a client of its own built alike."""
    config = member.config

    def client(cid: int, shard: dataio.Dataset) -> ClientState:
        model = nn.MlpModel(config.hidden_activation)
        nn.inject_params(model, member.global_params)
        return ClientState(cid, shard, model,
                           nn.Optimizer(config.client_optimizer, config.learning_rate), member)

    clients = []
    for cid, shard in enumerate(shards):
        state = client(cid, shard)
        # a teacher of weight 0 would train without reaching any target
        if config.strategy.kind == "feddistill" and config.strategy.distill_weight > 0.0:
            state.teacher = client(cid, shard)
        if config.cl_method == "si":
            state.si_acc = cl.SiAccumulator(member.global_params.copy(), xi=config.penalty.xi)
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


@dataclass
class _Task:
    shards: list[dataio.Dataset]  # client k's shard, shared by every member of a group
    eval_set: dataio.Dataset
    n_rounds: int


def _fl_tasks(config: ExperimentConfig, dataset: dataio.Dataset,
              split: tuple[np.ndarray, np.ndarray]) -> list[_Task]:
    """Plain FL is one task: the training set of ``split``, the (train
    rows, test rows) of ``dataset``, partitioned, and its test set. The
    shards and the test set are slices of one copy of their rows, taken in
    partition order; with augmentation, the shards are slices of one
    shuffled copy of the augmented training set."""
    train_rows, test_rows = split
    if len(test_rows) < 2:
        raise ExperimentError(f"test set too small to evaluate: {len(test_rows)} row(s), "
                              f"evaluation needs 2")
    if config.augmentation:
        train = dataio.augment(dataset.subset(train_rows), config.augment_sigma,
                               derive_seed(config.seed, 24))
        shards = [p.shard for p in dataio.partition_clients(train, config.n_clients, config.seed)]
        test = dataset.subset(test_rows)
    else:
        pieces = [train_rows[rows] for rows in
                  dataio.partition_indices(len(train_rows), config.n_clients, config.seed)]
        *shards, test = dataio.take_rows(dataset, pieces + [test_rows])
    return [_Task(shards, test, config.n_rounds)]


def _fcl_tasks(config: ExperimentConfig, dataset: dataio.Dataset,
               split: tuple[np.ndarray, np.ndarray]) -> list[_Task]:
    """FCL's two tasks, circle then arrow, of ``config.task_rounds`` rounds
    each, from ``split``, the (train rows, test rows) of ``dataset``: each
    client's shard of the training set split by the context flag, augmented
    per task shard (task membership is decided on clean flags); task-1
    rounds evaluate on the circle test subset, task-2 rounds on the full
    test set. The task shards and both test sets are slices of one copy of
    their rows."""
    train_rows, test_rows = split
    flags = dataset.features[:, 0]
    pieces: tuple[list, list] = ([], [])  # task -> each client's rows
    for cid, rows in enumerate(dataio.partition_indices(len(train_rows), config.n_clients,
                                                        config.seed)):
        rows = train_rows[rows]
        for t_idx, task_rows in enumerate(dataio.task_indices(flags[rows])):
            if len(task_rows) == 0:
                raise ExperimentError(f"client {cid}: task {t_idx + 1} shard is empty")
            pieces[t_idx].append(rows[task_rows])
    circle = test_rows[dataio.task_indices(flags[test_rows])[0]]
    if len(circle) < 2:
        raise ExperimentError(f"circle test subset too small to evaluate: {len(circle)} "
                              f"row(s), evaluation needs 2")
    *shards, circle_test, test = dataio.take_rows(dataset, [*pieces[0], *pieces[1], circle,
                                                            test_rows])
    tasks = []
    for task_index, eval_set in enumerate((circle_test, test)):
        task_shards = shards[task_index * config.n_clients:(task_index + 1) * config.n_clients]
        if config.augmentation:
            task_shards = [dataio.augment(shard, config.augment_sigma,
                                          derive_seed(config.seed, 25, cid, task_index))
                           for cid, shard in enumerate(task_shards)]
        tasks.append(_Task(task_shards, eval_set, config.task_rounds))
    return tasks


class _Run:
    """One experiment between rounds: its member, clients, FedOpt server
    optimizer, round logs and the model it evaluates each round's global
    parameters with. ``_lockstep`` trains the clients of the runs of a chunk
    together and then lets each finish the round on its own."""

    def __init__(self, config: ExperimentConfig, shards: list[dataio.Dataset]):
        self.model = nn.MlpModel(config.hidden_activation)
        self.model.init_params(np.random.default_rng([config.seed, 100]))
        self.member = Member(config, nn.extract_params(self.model))
        self.clients = _build_clients(self.member, shards)
        self.server_opt = (nn.Optimizer(config.strategy.server_optimizer,
                                        config.strategy.server_learning_rate)
                           if config.strategy.kind == "fedopt" else None)
        self.logs: list[RoundLog] = []

    def finish_round(self, task_index: int, round_index: int, consolidate: bool, task: _Task,
                     trained: dict, train_s: float) -> None:
        """Consolidate (when ``consolidate``: the last round of a task that
        another follows), aggregate and evaluate, from the (update, loss) of
        each client of this round in ``trained`` (keyed by the client's
        ``id``), trained in ``train_s`` seconds shared by the chunk. A run
        already stopped does nothing, and an error here stops only this run."""
        if self.member.error is not None:
            return
        cfg = self.member.config
        t1 = t2 = time.perf_counter()
        try:
            updates, losses = zip(*(trained[id(c)] for c in self.clients))
            if consolidate and cfg.cl_method != "none":
                for c in self.clients:
                    _consolidate(c, task_index)
                t2 = time.perf_counter()
            self.member.global_params = _aggregate(self.member.global_params, list(updates),
                                                   cfg, self.server_opt)
            t3 = time.perf_counter()
            report = evaluate(self.member.global_params, task.eval_set, cfg.hidden_activation,
                              self.model)
        except Exception as exc:
            self.member.error = exc
            return
        t4 = time.perf_counter()
        self.logs.append(RoundLog(round_index, task_index, report, list(losses),
                                  train_s + (t4 - t1), local_train_time=train_s,
                                  consolidate_time=t2 - t1, aggregate_time=t3 - t2,
                                  evaluate_time=t4 - t3))


# The most clients whose state ``run_group`` holds at once for the members
# that train together, and so the most clients one ``local_train`` call
# stacks; a member that has more trains alone, as one stack of all its
# clients. Every member's clients keep their models, optimizer moments and
# CL anchors until its last round, and a round's training step temporaries
# grow with the stack, so memory grows with the members of a chunk. At 20, a
# 10-client cell of the benchmark grid trains in chunks of 2, 2 and 1
# members, and a 2-client cell all at once. Measured with ``perfbench/child.py
# --mode timed`` (2-core Xeon, medians of 3 processes), the peak resident
# memory is 4% above that of training each member alone (fl_grid 40.1 to
# 41.7 MB, fcl_grid 40.6 to 42.4 MB); all members at once cost 15% and 12%.
GROUP_CLIENTS = 20


def _train_round(runs: list[_Run], task_index: int, round_index: int,
                 stacks: dict) -> tuple[dict, float]:
    """One round of local training for the clients of ``runs``, as one
    ``local_train`` call that keeps its stacks in ``stacks``. Returns
    id(client) -> (update, loss) and the seconds it took. An error that
    stops the call stops each member with its own copy."""
    cohort = [c for run in runs for c in run.clients]
    t0 = time.perf_counter()
    try:
        trained = dict(zip(map(id, cohort),
                           zip(*local_train(cohort, task_index, round_index, stacks))))
    except Exception as exc:
        trained = {}
        for c in cohort:
            c.member.error = c.member.error or own_copy(exc)
    return trained, time.perf_counter() - t0


def own_copy(error: Exception) -> Exception:
    """An error as one more member's own: the same type, message, cause and
    traceback. Made before the error is raised again, which adds to its
    traceback."""
    own = copy.copy(error)
    own.__cause__ = error.__cause__
    return own.with_traceback(error.__traceback__)


def _fork(lead: _Run, training: tuple[dict, float] | None, config: ExperimentConfig,
          tasks: list[_Task]) -> _Run:
    """A member that goes on from its share's lead, which has trained up to
    the local training of the fork round, the last of task 1, and gave
    ``training``. It copies the lead's round logs, global parameters, client
    parameters and SI path integrals, keeps its own server optimizer, replay
    buffers and SI damping, finishes the fork round itself, consolidating
    on task 1's shards, and then takes task 2's shards. Its optimizers have
    never stepped, so task 2 starts them fresh. A member of a failed lead
    gets its own copy of the lead's error."""
    first, second = tasks
    run = _Run(config, first.shards)
    if lead.member.error is not None:
        run.member.error = own_copy(lead.member.error)
        return run
    trained, train_s = training
    run.logs = list(lead.logs)
    run.member.global_params = lead.member.global_params.copy()
    for c, own in zip(run.clients, lead.clients):
        c.model.params[...] = own.model.params
        if c.si_acc is not None:
            c.si_acc.omega_running[...] = own.si_acc.omega_running
    run.finish_round(0, first.n_rounds - 1, True, first,
                     {id(c): trained[id(own)] for c, own in zip(run.clients, lead.clients)},
                     train_s)
    for c, shard in zip(run.clients, second.shards):
        c.shard = shard
    return run


def _lockstep(runs: list[_Run], task_index: int, task: _Task, first: int,
              stop: int | None = None) -> tuple[dict, float] | None:
    """Walk the rounds of one task, ``task``, whose first round is global
    round ``first``, for runs whose clients hold the task's shards and
    whose optimizers have never stepped. Each round trains the clients of
    every run that has not failed in one ``local_train`` call, and then
    each run finishes the round on its own, and the round's updates are let
    go before the next round trains. No walk finishes a round that
    consolidates: a lead's walk of task 1 ends at global round ``stop``,
    the fork round, after its local training, and returns that training
    (``_train_round``), or None when every run has failed before it; each
    fork finishes the round itself (``_fork``)."""
    stacks: dict = {}  # the stacks the last round trained (``local_train``)
    for p in range(first, first + task.n_rounds):
        going = [run for run in runs if run.member.error is None]
        if not going:
            return None
        trained, train_s = _train_round(going, task_index, p, stacks)
        if p == stop:
            return trained, train_s
        for run in going:
            run.finish_round(task_index, p, False, task, trained, train_s)
        del trained  # each client's update: not held while the next round trains


def group_outcomes(configs: list[ExperimentConfig], dataset: dataio.Dataset,
                   split: tuple[np.ndarray, np.ndarray],
                   continual: bool) -> Iterator[tuple[int, RunResult | Exception]]:
    """``run_group``'s work as it finishes, on the training and test sets
    of ``split``, the (train rows, test rows) of ``dataset``: (position in
    ``configs``, result or exception) of each member, in chunk order, each
    member's twins right after it. The group's shards and test sets are
    slices of one copy of their rows (``_fl_tasks``, ``_fcl_tasks``), taken
    before any member trains. A caller that takes each chunk's outcomes
    before asking for more holds one chunk's client state at a time,
    besides the leads that members of later chunks fork from.

    The distinct members, one per ``trajectory_key``, train in config order,
    in chunks of at most ``GROUP_CLIENTS`` clients. FCL members of one
    canonical ``StrategyConfig`` compute the same bits up to task 1's last
    local training, the fork round, as nothing in task 1 reads the CL
    method or its options (``weighted_aggregation`` changes task 1's
    aggregate), so they form a share. Before the first chunk, each share's
    lead trains that prefix once (``_lockstep`` with ``stop``); each chunk
    then starts its runs, each forked from its share's lead (``_fork``),
    and walks task 2, and a lead is let go as its last member forks. FL
    members share nothing and walk their one task in their own chunk."""
    if len({group_key(c) for c in configs}) != 1:
        raise ValueError("the experiments of a group must have the same group_key")
    for cfg in configs:
        if continual and cfg.strategy.kind != "fedavg":
            raise ValueError("run_fcl adapts fedavg only")
        if not continual and cfg.cl_method != "none":
            raise ValueError("run_fl requires cl_method == 'none'; use run_fcl")
    twins: dict[tuple, list[int]] = {}  # trajectory key -> positions, representative first
    for i, cfg in enumerate(configs):
        twins.setdefault(dataclasses.astuple(trajectory_key(cfg)), []).append(i)
    same = list(twins.values())
    distinct = [configs[s[0]] for s in same]
    tasks = (_fcl_tasks if continual else _fl_tasks)(distinct[0], dataset, split)
    del dataset, split  # the tasks hold the rows they read
    shared: dict[tuple, list[int]] = {}  # FCL: share key -> its members
    for d, cfg in enumerate(distinct if continual else ()):
        shared.setdefault(dataclasses.astuple(trajectory_key(cfg).strategy), []).append(d)
    leads: dict[int, tuple] = {}  # member -> its share's lead and its training, until it forks
    for members in shared.values():
        # nothing before the fork round's aggregation reads the lead's CL method, so the lead
        # is a member's run: an SI member's, if any, whose path integral runs from round 0 on
        si = [d for d in members if distinct[d].cl_method == "si"]
        lead = _Run(distinct[(si or members)[0]], tasks[0].shards)
        training = _lockstep([lead], 0, tasks[0], 0, stop=tasks[0].n_rounds - 1)
        leads.update(dict.fromkeys(members, (lead, training)))
        del lead  # held by ``leads`` alone, so let go as its last member forks
    last = len(tasks) - 1  # the task a chunk walks: FL's one task, FCL's task 2
    size = max(1, GROUP_CLIENTS // distinct[0].n_clients)  # one member when it alone has more
    for lo in range(0, len(distinct), size):
        chunk = range(lo, min(lo + size, len(distinct)))
        runs = [_fork(*leads.pop(d), distinct[d], tasks) if d in leads
                else _Run(distinct[d], tasks[0].shards) for d in chunk]
        _lockstep(runs, last, tasks[last], last * tasks[0].n_rounds)
        for d, run in zip(chunk, runs):
            outcome = run.member.error or RunResult(run.logs, run.member.global_params)
            yield from [(i, own_copy(outcome) if k and isinstance(outcome, Exception)
                         else outcome) for k, i in enumerate(same[d])]
        del runs, run, outcome  # not held while the next chunk trains


def run_group(configs: list[ExperimentConfig], train: dataio.Dataset, test: dataio.Dataset,
              continual: bool) -> list[RunResult | Exception]:
    """Run experiments of one ``group_key``, FL (``continual`` false) or
    FCL, sharing the shards and every minibatch draw. Experiments of one
    ``trajectory_key`` compute the same bits, so each key trains once, as
    its first experiment (the representative), and every twin gets the
    representative's result (round timings included) or its own copy of the
    representative's error. ``group_outcomes`` says which members train
    together, in chunks, and which fork from a shared lead.

    Returns, in the order of ``configs``, each member's result or the
    exception that stopped it; a member that fails does not stop the rest.
    Each member computes the bits it would compute alone."""
    n = len(train)
    outcomes = dict(group_outcomes(configs, dataio.concat(train, test),
                                   (np.arange(n), np.arange(n, n + len(test))), continual))
    return [outcomes[i] for i in range(len(configs))]


def _alone(outcomes: list[RunResult | Exception]) -> RunResult:
    (outcome,) = outcomes
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_fl(config: ExperimentConfig, train: dataio.Dataset, test: dataio.Dataset) -> RunResult:
    """Plain federated round loop (no task sequencing): a group of one."""
    return _alone(run_group([config], train, test, continual=False))


def run_fcl(config: ExperimentConfig, train: dataio.Dataset, test: dataio.Dataset) -> RunResult:
    """Sequential two-task (circle then arrow) federated loop with the
    configured continual-learning mechanism, a group of one. cl_method
    'none' runs the unregularized sequential baseline.

    Each task trains ``config.rounds_per_task`` rounds (``config.n_rounds``
    when unset). The last round of task 1 consolidates each client's CL
    state (its anchor and importance map, or its replay buffer) before
    aggregating; task 2 trains against it and consolidates nothing, so
    EWC-Online equals EWC here whatever ``gamma_online`` is, and
    ``run_group`` trains the two once, as whichever comes first, when both
    are in a group. Task 1 is plain FedAvg for every method (SI only records
    its path integral), which is why ``run_group`` can train it once for
    many methods: alone, it trains it once for this one, through the same
    lead-and-fork path.

    Evaluation after task-1 rounds uses the circle-only test subset; task-2
    rounds are evaluated on the full test set. Augmentation, when enabled,
    is applied per task shard (task membership is decided on clean flags).
    """
    return _alone(run_group([config], train, test, continual=True))
