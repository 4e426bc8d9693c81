"""The collective-training engine.

Each iteration is round-synchronous: every agent predicts on the current
shared batch with its pre-round parameters (`forward`), the predictions are
exchanged and fused with row-stochastic weights into per-agent proxy labels
(`fuse_and_label`), and each agent takes one update step on the batch under
its own proxies (`train_step`). An agent runs its layers once per round: the
update takes the gradient of the proxy labels through the activations of the
forward pass that made its predictions. The first scores are the
validation accuracies recorded at iteration 0, right after self-training.
The periods come from the run's CollectiveSpec: every score_refresh_period
iterations all scores (and with them the weight matrix) refresh, and every
review_period iterations each agent runs one supervised epoch over its
private training set.

A run spreads its agents' independent work over a `parallel.AgentPool`:
every forward pass, every update, every review epoch and every validation
measurement is one agent's task, and test-set evaluation runs chunk by
chunk. Tasks start largest agent first, so that a large agent does not run
alone at the end of a phase. Fusion runs on the calling thread between the
two halves of a round, as one pass for all agents. Each agent's arithmetic
is the same at any pool size and in any task order, so are the results.

Agents only ever exchange prediction vectors: fusion consumes the round's
predictions, stacked in agent order, and the weights, never another agent's
parameters or data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import _kernels as kernels
from .config import CollectiveSpec
from .data import Partition, decode, epoch_batches
from .graph import GraphSchedule, build_weight_matrix_log, graph_at, schedule_round
from .learner import Learner, accuracy, forward, train_epochs, train_step
from .parallel import AgentPool
from .seeding import subseed


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
class RunOutput:
    """One run's result: its metrics records and, for CL, its collective
    iteration count (`stats["iterations"]`; `stats` is empty outside CL).
    Every mode takes each agent's last record after that agent's last
    update, so the final accuracies and the architectures are read from
    those records, in agent order."""

    run_index: int
    records: list[MetricsRecord]
    stats: dict = field(default_factory=dict)

    def _last(self) -> list[MetricsRecord]:
        last = {r.agent: r for r in self.records}
        return [last[agent] for agent in sorted(last)]

    @property
    def final_test(self) -> list[float]:
        return [r.test_accuracy for r in self._last()]

    @property
    def arch_kinds(self) -> list[str]:
        return [r.arch for r in self._last()]


def fuse_and_label(predictions: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every receiver's labeling step at once: receiver i takes the average
    of the round's predictions, `predictions` (senders, batch, classes) in
    agent order, weighted by row i of `weights` (receivers x senders), then
    the argmax per sample. Returns (receivers, batch) labels; one receiver's
    are those of its row, `weights[i:i + 1]`.

    This is the entire interface an agent has to its neighbors: prediction
    vectors and scalar weights, nothing else.
    """
    return kernels.argmax_rows(kernels.fuse_rows(predictions, weights))


def _at(k: int) -> str:
    return f"at iteration {k}"


def _val_accuracy(agents: Sequence[Learner], vals: Sequence, pool: AgentPool,
                  k: int) -> list[float]:
    return pool.each(lambda a, val: accuracy([(a.arch, a.params)], eval_set=val)[0], agents,
                     vals, where=_at(k))


def refresh_scores(
    agents: Sequence[Learner],
    validation_sets: Sequence,
    gamma: float,
    pool: AgentPool,
    k: int,
) -> np.ndarray:
    """Each agent's log score, gamma times its validation accuracy: the
    score exp(gamma * accuracy) is held in log space so that extreme
    sharpening exponents cannot overflow. The agents measure side by side
    on `pool`; a failure names the agent and iteration `k`."""
    return gamma * np.array(_val_accuracy(agents, validation_sets, pool, k))


def measure(agents: Sequence[Learner], vals: Sequence, test, k: int, run_index: int,
            pool: AgentPool | None = None, proxy_rates=None) -> list[MetricsRecord]:
    """Each agent's metrics record at iteration (or update) `k`: its test
    accuracy, from one `accuracy` call for all, its accuracy on its set in
    `vals`, and its rate in `proxy_rates` (None without). Non-finite
    parameters raise a RuntimeError naming the agent and `k`."""
    for a in agents:
        # min and max propagate NaN and +-inf, and allocate no mask
        if not (np.isfinite(a.params.min()) and np.isfinite(a.params.max())):
            raise RuntimeError(f"non-finite parameters for agent {a.id} at iteration {k}")
    pool = pool or AgentPool()
    # one decode of each test chunk, scored by every agent
    tests = accuracy([(a.arch, a.params) for a in agents], eval_set=test, pool=pool)
    val_accs = _val_accuracy(agents, vals, pool, k)
    rates = [None] * len(agents) if proxy_rates is None else proxy_rates
    return [MetricsRecord(run=run_index, iteration=k, agent=a.id, arch=a.arch.kind,
                          test_accuracy=t, val_accuracy=v, proxy_match_rate=r)
            for a, t, v, r in zip(agents, tests, val_accs, rates)]


def collective_round(
    agents: Sequence[Learner],
    weights: np.ndarray,
    batch_features: np.ndarray,
    pool: AgentPool,
    k: int,
) -> np.ndarray:
    """One synchronous round: predict, fuse into proxy labels, update.

    Every agent predicts with its pre-round parameters; no agent sees a
    neighbor's post-update state within the round. Each agent's update
    takes the gradient of its proxy labels through the forward pass that
    made its predictions. Returns each agent's proxy labels for the batch,
    one row per agent.

    The agents' forward passes run side by side on `pool`, then fusion
    runs on the calling thread for all agents at once, on their predictions
    stacked in agent order, then the agents' `train_step`s run side by
    side. A failure names the agent and iteration `k`. The agents and
    `weights` are as `run_collective` checked and built them: agents in id
    order sharing one class count, and an n x n weight matrix.
    """
    passes = pool.each(lambda a: forward(a.arch, a.params, batch_features), agents, where=_at(k))
    labels = fuse_and_label(np.stack([probs for _, probs in passes]), weights)
    pool.each(lambda a, passed, proxy: train_step(a.arch, a.params, a.rule, *passed, proxy),
              agents, passes, labels, where=_at(k))
    return labels


# only forwards to train_epochs; perfbench traces it as collective.review_s (ROADMAP item 5)
def review_step(agent: Learner, train_set, batch_size: int, seed) -> None:
    """One supervised epoch over the agent's private training set, keeping
    the agent's Adam state."""
    train_epochs(agent.arch, agent.params, agent.rule, train_set, batch_size, epochs=1,
                 seed=seed)


def run_collective(
    agents: Sequence[Learner],
    partition: Partition,
    schedule: GraphSchedule,
    spec: CollectiveSpec,
    seed: int,
    *,
    train_batch: int = 10,
    run_index: int = 0,
    metric_stride: int = 100,
    max_iterations: int | None = None,
) -> RunOutput:
    """Run the full collective-training phase over the shared pool.

    Deterministic given (agents' initial state, partition, schedule, spec,
    seed). Iteration k trains on batch k of the pool's "shared-order"
    `epoch_batches`, reviews on minibatches of train_batch private samples.
    Emits a metrics record per agent at iteration 0, at every metric_stride
    iterations, and at the final iteration; the first scores are iteration
    0's recorded validation accuracies.
    """
    n = len(agents)
    if n != partition.n_agents:
        raise ValueError(f"{n} agents but partition holds {partition.n_agents}")
    if n != schedule.n:
        raise ValueError(f"{n} agents but graph schedule has {schedule.n} nodes")
    # weight rows, scores and the round's stacked predictions are indexed by list position
    for i, a in enumerate(agents):
        if a.id != i:
            raise ValueError(f"agent ids must be 0..n-1 in list order: agents[{i}] has id {a.id}")
    if len({a.arch.num_classes for a in agents}) > 1:
        raise ValueError("all agents must share the same number of classes")

    source_x = partition.source_features
    shared_idx = partition.shared_indices
    true_labels = partition.shared_true_labels

    records: list[MetricsRecord] = []
    proxy_hits = np.zeros(n, dtype=np.int64)
    proxy_seen = 0

    def emit_metrics(k: int) -> None:
        nonlocal proxy_seen
        rates = None if proxy_seen == 0 else proxy_hits / proxy_seen
        records.extend(measure(agents, partition.val, partition.test, k, run_index, pool, rates))
        proxy_hits[:] = 0
        proxy_seen = 0

    # the run's threads: opened here and joined before the run returns
    with AgentPool.for_agents(agents) as pool:
        # the first scores are the validation accuracies that iteration 0's
        # records measure right after self-training
        emit_metrics(0)
        log_scores = spec.gamma * np.array([r.val_accuracy for r in records])
        weights = build_weight_matrix_log(graph_at(schedule, 0), log_scores)

        k = 0
        for k, idx in enumerate(epoch_batches(shared_idx.size, spec.batch_size,
                                              spec.epochs_over_shared, seed, "shared-order",
                                              max_iterations), 1):
            refresh = k % spec.score_refresh_period == 0
            if refresh:
                log_scores = refresh_scores(agents, partition.val, spec.gamma, pool, k)
            if refresh or schedule_round(schedule, k) != schedule_round(schedule, k - 1):
                weights = build_weight_matrix_log(graph_at(schedule, k), log_scores)

            # gather and decode the batch's rows; the shared pool is never copied whole
            batch_x = decode(source_x[shared_idx[idx]])
            labels = collective_round(agents, weights, batch_x, pool, k)

            proxy_hits += (labels == true_labels[idx]).sum(axis=1)
            proxy_seen += idx.shape[0]

            if k % spec.review_period == 0:
                # one seed for every agent's review epoch
                review_seed = subseed(seed, "review", k)
                pool.each(lambda a, train: review_step(a, train, train_batch, review_seed),
                          agents, partition.train, where=_at(k))

            if k % metric_stride == 0:
                emit_metrics(k)
        if k % metric_stride:
            emit_metrics(k)

    # perfbench checks each CL run's iteration count against its config
    return RunOutput(run_index, records, {"iterations": k})
