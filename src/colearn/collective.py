"""The collective-training engine.

Each iteration is round-synchronous: every agent predicts on the current
shared batch with its pre-round parameters, the predictions are exchanged
and fused with row-stochastic weights into per-agent proxy labels, and each
agent takes one update step on the batch under its own proxies. Scores
(and with them the weight matrix) refresh every score_refresh_period
iterations; every review_period iterations an agent runs one supervised
epoch over its private training set.

Agents only ever exchange prediction vectors: fusion consumes RoundMessage
values and a weight row, never another agent's parameters or data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _kernels as kernels
from .data import Partition, shuffled_batches
from .graph import GraphSchedule, build_weight_matrix_log, graph_at, n_nodes, schedule_round
from .learner import Learner, accuracy, apply_update, grad, train_epochs
from .seeding import rng_for, subseed


@dataclass
class AgentState:
    """One agent: its learner plus its current performance score.

    The score exp(gamma * accuracy) is held in log space so that extreme
    sharpening exponents cannot overflow; `score` exposes the plain value.
    """

    id: int
    learner: Learner
    log_score: float = 0.0
    last_accuracy: float = 0.0

    @property
    def score(self) -> float:
        return float(np.exp(self.log_score))


@dataclass(frozen=True)
class RoundMessage:
    """What an agent broadcasts in a round: predictions for the shared batch."""

    sender: int
    predictions: np.ndarray  # (batch, num_classes)


@dataclass(frozen=True)
class ScheduleConfig:
    """Timing and fusion knobs for a collective run.

    score_refresh_period / review_period accept a single int or one value
    per agent.
    """

    score_refresh_period: int | tuple[int, ...]
    review_period: int | tuple[int, ...]
    gamma: float
    collective_batch: int = 10
    train_batch: int = 10
    epochs_over_shared: int = 3

    def __post_init__(self):
        for name in ("score_refresh_period", "review_period"):
            value = getattr(self, name)
            values = (value,) if isinstance(value, int) else tuple(value)
            if any(v < 1 for v in values):
                raise ValueError(f"{name} must be >= 1, got {value}")
            object.__setattr__(self, name, value if isinstance(value, int) else values)
        if self.gamma < 0.0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.collective_batch < 1 or self.train_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        if self.epochs_over_shared < 1:
            raise ValueError(f"epochs_over_shared must be >= 1, got {self.epochs_over_shared}")

    def _per_agent(self, value, n: int) -> tuple[int, ...]:
        if isinstance(value, int):
            return (value,) * n
        if len(value) != n:
            raise ValueError(f"expected {n} per-agent periods, got {len(value)}")
        return value

    def refresh_periods(self, n: int) -> tuple[int, ...]:
        return self._per_agent(self.score_refresh_period, n)

    def review_periods(self, n: int) -> tuple[int, ...]:
        return self._per_agent(self.review_period, n)


@dataclass(frozen=True)
class MetricsRecord:
    run: int
    iteration: int
    agent: int
    arch: str
    test_accuracy: float
    val_accuracy: float
    proxy_match_rate: float | None  # None outside collective training


@dataclass
class RunResult:
    records: list[MetricsRecord]
    stats: dict = field(default_factory=dict)


def fuse_and_label(messages: Sequence[RoundMessage], weight_row: np.ndarray) -> np.ndarray:
    """One agent's labeling step: weighted average of the received
    predictions, then argmax per sample.

    This is the entire interface an agent has to its neighbors: prediction
    vectors and scalar weights, nothing else.
    """
    order = sorted(range(len(messages)), key=lambda idx: messages[idx].sender)
    stacked = np.ascontiguousarray(
        np.stack([messages[idx].predictions for idx in order])
    )
    w = np.ascontiguousarray(np.asarray([weight_row[messages[idx].sender] for idx in order]))
    fused = kernels.fuse_rows(stacked, w)
    if not np.all(np.isfinite(fused)):
        raise ValueError("fused predictions must be finite")
    return kernels.argmax_rows(fused)


def refresh_scores(
    agents: Sequence[AgentState],
    validation_sets: Sequence,
    gamma: float,
    indices: Sequence[int] | None = None,
) -> None:
    """Re-measure validation accuracy and set score = exp(gamma * accuracy)."""
    if gamma < 0.0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    for i in range(len(agents)) if indices is None else indices:
        acc = agents[i].learner.accuracy(validation_sets[i])
        agents[i].last_accuracy = acc
        agents[i].log_score = gamma * acc


def collective_round(
    agents: Sequence[AgentState],
    weights: np.ndarray,
    batch_features: np.ndarray,
    grad_buf: np.ndarray | None = None,
) -> list[np.ndarray]:
    """One synchronous round: predict, fuse into proxy labels, update.

    Every agent predicts with its pre-round parameters; no agent sees a
    neighbor's post-update state within the round. Returns each agent's
    proxy labels for the batch.

    `grad_buf` is a flat scratch vector at least as long as the largest
    agent's parameters; each agent's gradient is written into its head and
    consumed by the update before the next agent's. Without it one is
    allocated for the round.
    """
    n = len(agents)
    if weights.shape != (n, n):
        raise ValueError(f"weight matrix shape {weights.shape} does not match {n} agents")
    num_classes = agents[0].learner.arch.num_classes
    if any(a.learner.arch.num_classes != num_classes for a in agents):
        raise ValueError("all agents must share the same number of classes")

    messages = [
        RoundMessage(sender=a.id, predictions=a.learner.predict_proba(batch_features))
        for a in agents
    ]
    labels = [fuse_and_label(messages, weights[i]) for i in range(n)]
    if grad_buf is None:
        grad_buf = _grad_buffer(agents)
    for i, agent in enumerate(agents):
        learner = agent.learner
        g = grad(learner.arch, learner.params, batch_features, labels[i],
                 out=grad_buf[: learner.params.size])
        apply_update(learner.rule, learner.params, g)
    return labels


def _grad_buffer(agents: Sequence[AgentState]) -> np.ndarray:
    return np.empty(max(a.learner.params.size for a in agents))


def review_step(agent: AgentState, train_set, batch_size: int, seed,
                grad_buf: np.ndarray | None = None) -> None:
    """One supervised epoch over the agent's private training set, keeping
    the agent's update-rule state. `grad_buf` is as in collective_round."""
    learner = agent.learner
    train_epochs(
        learner.arch, learner.params, learner.rule,
        train_set, batch_size, epochs=1, seed=seed, grad_buf=grad_buf,
    )


def _emit(
    records: list[MetricsRecord],
    on_record: Callable[[MetricsRecord], None] | None,
    rec: MetricsRecord,
) -> None:
    records.append(rec)
    if on_record is not None:
        on_record(rec)


def run_collective(
    agents: Sequence[AgentState],
    partition: Partition,
    schedule: GraphSchedule,
    config: ScheduleConfig,
    seed: int,
    *,
    run_index: int = 0,
    metric_stride: int = 100,
    max_iterations: int | None = None,
    on_record: Callable[[MetricsRecord], None] | None = None,
) -> RunResult:
    """Run the full collective-training phase over the shared pool.

    Deterministic given (agents' initial state, partition, schedule, config,
    seed). Emits a metrics record per agent at iteration 0, at every
    metric_stride iterations, and at the final iteration.
    """
    n = len(agents)
    if n != partition.n_agents:
        raise ValueError(f"{n} agents but partition holds {partition.n_agents}")
    if n != n_nodes(schedule):
        raise ValueError(f"{n} agents but graph schedule has {n_nodes(schedule)} nodes")
    if sorted(a.id for a in agents) != list(range(n)):
        raise ValueError("agent ids must be exactly 0..n-1")
    if metric_stride < 1:
        raise ValueError("metric_stride must be >= 1")

    refresh_at = config.refresh_periods(n)
    review_at = config.review_periods(n)
    source_x = partition.source_features
    shared_idx = partition.shared_indices
    true_labels = partition.shared_true_labels

    n_batches = -(-shared_idx.size // config.collective_batch)
    total = config.epochs_over_shared * n_batches
    if max_iterations is not None:
        total = min(total, max_iterations)

    stats = {
        "iterations": 0,
        "score_refresh_events": 0,
        "weight_rebuilds": 0,
        "reviews": 0,
        "review_iterations": [],
    }
    records: list[MetricsRecord] = []
    proxy_hits = np.zeros(n, dtype=np.int64)
    proxy_seen = 0
    # one gradient buffer for the whole run, shared by the agents' rounds and
    # reviews in turn
    grad_buf = _grad_buffer(agents)

    def check_finite(k: int) -> None:
        for a in agents:
            if not np.all(np.isfinite(a.learner.params)):
                raise RuntimeError(
                    f"non-finite parameters for agent {a.id} at iteration {k}"
                )

    def emit_metrics(k: int) -> None:
        nonlocal proxy_seen
        check_finite(k)
        for i, a in enumerate(agents):
            rate = None if proxy_seen == 0 else proxy_hits[i] / proxy_seen
            _emit(records, on_record, MetricsRecord(
                run=run_index,
                iteration=k,
                agent=a.id,
                arch=a.learner.arch.kind,
                test_accuracy=a.learner.accuracy(partition.test),
                val_accuracy=a.learner.accuracy(partition.val[i]),
                proxy_match_rate=rate,
            ))
        proxy_hits[:] = 0
        proxy_seen = 0

    # Scores must be valid before the first round; measure them right after
    # self-training, then build the initial weight matrix.
    refresh_scores(agents, partition.val, config.gamma)
    current_round = schedule_round(schedule, 0)
    graph = graph_at(schedule, 0)
    weights = build_weight_matrix_log(graph, np.array([a.log_score for a in agents]))
    emit_metrics(0)

    k = 0
    done = False
    for epoch in range(config.epochs_over_shared):
        if done:
            break
        order = shuffled_batches(
            shared_idx.size, config.collective_batch, rng_for(seed, "shared-order", epoch)
        )
        for idx in order:
            k += 1
            if k > total:
                done = True
                break

            due = [i for i in range(n) if k % refresh_at[i] == 0]
            if due:
                refresh_scores(agents, partition.val, config.gamma, indices=due)
                stats["score_refresh_events"] += 1
            rnd = schedule_round(schedule, k)
            if due or rnd != current_round:
                if rnd != current_round:
                    current_round = rnd
                    graph = graph_at(schedule, k)
                weights = build_weight_matrix_log(
                    graph, np.array([a.log_score for a in agents])
                )
                stats["weight_rebuilds"] += 1

            # gather the batch's pool rows from the source; the pool is never copied whole
            batch_x = source_x[shared_idx[idx]]
            labels = collective_round(agents, weights, batch_x, grad_buf)

            truth = true_labels[idx]
            for i in range(n):
                proxy_hits[i] += int((labels[i] == truth).sum())
            proxy_seen += idx.shape[0]

            for i in range(n):
                if k % review_at[i] == 0:
                    review_step(
                        agents[i], partition.train[i], config.train_batch,
                        subseed(seed, "review", k), grad_buf,
                    )
                    stats["reviews"] += 1
                    stats["review_iterations"].append((k, i))

            if k % metric_stride == 0 or k == total:
                emit_metrics(k)

    stats["iterations"] = min(k, total)
    return RunResult(records=records, stats=stats)
