"""Experiment orchestration: single runs, Monte Carlo replication, the
cooperative-vs-baseline comparison protocol, and metric persistence.

Modes: CL self-trains each agent on its private set and then runs the
collective phase over the shared pool; ST stops after self-training
(the non-cooperative baseline); FS trains every architecture on the full
labeled corpus (the fully-supervised ceiling).
"""

from __future__ import annotations

import csv
import functools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence
from xml.sax.saxutils import escape

import numpy as np

from .collective import AgentState, MetricsRecord, RunResult, ScheduleConfig, run_collective
from .config import ExperimentConfig, SynthSpec
from .data import Dataset, Partition, load_idx, make_partition, synth_blobs, write_manifest
from .graph import DirectedGraph, ErdosRenyiSchedule, GraphSchedule, StaticSchedule
from .learner import Adam, Architecture, Learner, Sgd, train_epochs
from .seeding import rng_for, subseed

CSV_HEADER = ("run", "iter", "agent", "arch", "test_acc", "val_acc", "proxy_correct")
ARCH_ORDER = ("HL2", "HL1", "SHL")


@dataclass(frozen=True)
class SummaryRow:
    """Final test accuracy statistics for one (mode, architecture) cell."""

    mode: str
    arch: str
    mean: float
    std: float  # unbiased; defined as 0.0 for a single sample
    n: int


@dataclass
class RunOutput:
    run_index: int
    records: list[MetricsRecord]
    arch_kinds: list[str]
    final_test: list[float]
    stats: dict


# --- dataset plumbing --------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _load_corpus(spec, master_seed: int) -> tuple[Dataset, Dataset]:
    if isinstance(spec, SynthSpec):
        source = synth_blobs(
            spec.n_per_class, spec.num_classes, spec.dim, spec.separation,
            subseed(master_seed, "synth-corpus"),
        )
        test = synth_blobs(
            spec.test_n_per_class, spec.num_classes, spec.dim, spec.separation,
            subseed(master_seed, "synth-test"),
        )
        return source, test
    source = load_idx(spec.train_images, spec.train_labels)
    test = load_idx(spec.test_images, spec.test_labels)
    return source, test


def build_schedule(config: ExperimentConfig) -> GraphSchedule:
    g = config.graph
    if g.kind == "complete":
        return StaticSchedule(DirectedGraph.complete(config.n_agents))
    if g.kind == "edges":
        return StaticSchedule(DirectedGraph.from_edges(config.n_agents, g.edges))
    return ErdosRenyiSchedule(
        n=config.n_agents, p=g.p, period=g.period,
        seed=subseed(config.master_seed, "graph-schedule"),
    )


def resolve_architectures(config: ExperimentConfig, run_index: int) -> list[str]:
    if config.architectures:
        return list(config.architectures)
    kinds = []
    for kind, count in config.architecture_mix:
        kinds.extend([kind] * count)
    rng_for(config.master_seed, run_index, "arch-assign").shuffle(kinds)
    return kinds


def _make_rule(config: ExperimentConfig):
    t = config.training
    if t.update_rule == "sgd":
        return Sgd(alpha=t.alpha)
    return Adam(alpha=t.alpha, beta1=t.beta1, beta2=t.beta2, eps=t.eps)


def _make_agents(config: ExperimentConfig, run_index: int, input_dim: int,
                 num_classes: int) -> list[AgentState]:
    agents = []
    for i, kind in enumerate(resolve_architectures(config, run_index)):
        arch = Architecture(kind=kind, input_dim=input_dim, num_classes=num_classes)
        learner = Learner.create(
            arch, seed=subseed(config.master_seed, run_index, "agent-init", i),
            rule=_make_rule(config),
        )
        agents.append(AgentState(id=i, learner=learner))
    return agents


# --- baseline training with a metrics trace ----------------------------------


def _train_traced(
    agent: AgentState,
    train_set: Dataset,
    partition: Partition,
    batch_size: int,
    epochs: int,
    seed: int,
    run_index: int,
    metric_stride: int,
    max_updates: int | None = None,
) -> list[MetricsRecord]:
    """Mini-batch training that emits the same record schema as the
    collective engine, with iteration = update-step count."""
    learner = agent.learner
    records = []

    def emit(step: int) -> None:
        records.append(MetricsRecord(
            run=run_index, iteration=step, agent=agent.id, arch=learner.arch.kind,
            test_accuracy=learner.accuracy(partition.test),
            val_accuracy=learner.accuracy(partition.val[agent.id]),
            proxy_match_rate=None,
        ))

    n_batches = -(-train_set.m // batch_size)
    total = epochs * n_batches
    if max_updates is not None:
        total = min(total, max_updates)

    def on_step(step: int) -> None:
        if step % metric_stride == 0 or step == total:
            emit(step)

    emit(0)
    train_epochs(
        learner.arch, learner.params, learner.rule, train_set, batch_size, epochs, seed,
        max_updates=max_updates, on_step=on_step,
    )
    return records


# --- run execution ------------------------------------------------------------


def run_mode(
    config: ExperimentConfig,
    run_index: int = 0,
    manifest_path=None,
) -> RunOutput:
    """Execute one run of the configured mode; deterministic in
    (config, run_index)."""
    source, test = _load_corpus(config.dataset, config.master_seed)
    partition = make_partition(
        source, config.n_agents, config.train_size, config.val_size,
        seed=subseed(config.master_seed, run_index, "partition"), test=test,
        common_val=config.common_val,
    )
    if manifest_path is not None:
        write_manifest(partition, manifest_path)
    agents = _make_agents(config, run_index, source.d, source.num_classes)

    records: list[MetricsRecord] = []
    stats: dict = {}
    t = config.training

    if config.mode == "FS":
        labeled_corpus = source
        for agent in agents:
            records.extend(_train_traced(
                agent, labeled_corpus, partition, t.batch_size, t.fs_epochs,
                seed=subseed(config.master_seed, run_index, "fs-train", agent.id),
                run_index=run_index, metric_stride=config.metric_stride,
                max_updates=config.max_iterations,
            ))
    elif config.mode == "ST":
        for agent in agents:
            records.extend(_train_traced(
                agent, partition.train[agent.id], partition, t.batch_size,
                t.self_train_epochs,
                seed=subseed(config.master_seed, run_index, "self-train", agent.id),
                run_index=run_index, metric_stride=config.metric_stride,
                max_updates=config.max_iterations,
            ))
    else:  # CL
        for agent in agents:
            agent.learner.train(
                partition.train[agent.id], t.batch_size, t.self_train_epochs,
                seed=subseed(config.master_seed, run_index, "self-train", agent.id),
            )
        schedule_config = ScheduleConfig(
            score_refresh_period=config.collective.score_refresh_period,
            review_period=config.collective.review_period,
            gamma=config.collective.gamma,
            collective_batch=config.collective.batch_size,
            train_batch=t.batch_size,
            epochs_over_shared=config.collective.epochs_over_shared,
        )
        result: RunResult = run_collective(
            agents, partition, build_schedule(config), schedule_config,
            seed=subseed(config.master_seed, run_index, "collective"),
            run_index=run_index, metric_stride=config.metric_stride,
            max_iterations=config.max_iterations,
        )
        records.extend(result.records)
        stats = result.stats

    # Every mode's last record per agent is taken after its last update
    # (CL at k == total, ST/FS at step == total), so it already holds the
    # final test accuracy of the final parameters.
    last_test = {r.agent: r.test_accuracy for r in records}
    return RunOutput(
        run_index=run_index,
        records=records,
        arch_kinds=[a.learner.arch.kind for a in agents],
        final_test=[last_test[a.id] for a in agents],
        stats=stats,
    )


def _run_for_pool(args) -> RunOutput:
    config, run_index, manifest_path = args
    try:
        return run_mode(config, run_index, manifest_path)
    except Exception as e:
        raise RuntimeError(
            f"run {run_index} (master seed {config.master_seed}) failed: {e}"
        ) from e


def montecarlo(
    config: ExperimentConfig,
    jobs: int = 1,
    manifest_dir=None,
) -> tuple[list[SummaryRow], list[RunOutput]]:
    """Independent runs with fresh partitions and initializations; the
    summary is deterministic and independent of execution order."""
    runs = config.montecarlo_runs
    tasks = []
    for r in range(runs):
        manifest_path = None
        if manifest_dir is not None:
            manifest_path = Path(manifest_dir) / f"run_{r:03d}.txt"
        tasks.append((config, r, manifest_path))
    if jobs > 1 and runs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, runs)) as pool:
            outputs = list(pool.map(_run_for_pool, tasks))
    else:
        outputs = [_run_for_pool(task) for task in tasks]
    outputs.sort(key=lambda o: o.run_index)
    return summarize(config.mode, outputs), outputs


def summarize(mode: str, outputs: Sequence[RunOutput]) -> list[SummaryRow]:
    """Per-architecture mean/std of final test accuracy, pooled over runs
    and same-architecture agents."""
    by_arch: dict[str, list[float]] = {}
    for out in sorted(outputs, key=lambda o: o.run_index):
        for kind, acc in zip(out.arch_kinds, out.final_test):
            by_arch.setdefault(kind, []).append(acc)
    rows = []
    for kind in ARCH_ORDER:
        if kind not in by_arch:
            continue
        vals = np.asarray(by_arch[kind])
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        rows.append(SummaryRow(mode=mode, arch=kind, mean=float(vals.mean()),
                               std=std, n=int(vals.size)))
    return rows


def format_summary(rows: Sequence[SummaryRow]) -> str:
    lines = [f"{'mode':<6}{'arch':<6}{'mean':>10}{'std':>10}{'n':>6}"]
    single = any(r.n == 1 for r in rows)
    for r in rows:
        lines.append(f"{r.mode:<6}{r.arch:<6}{r.mean:>10.4f}{r.std:>10.4f}{r.n:>6}")
    if single:
        lines.append("note: std reported as 0 for single-sample cells")
    return "\n".join(lines)


# --- metric persistence -------------------------------------------------------


def emit_csv(records: Sequence[MetricsRecord], path) -> None:
    """Write records with the fixed schema; floats at 6 decimals, LF endings."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(",".join(CSV_HEADER) + "\n")
        for r in records:
            proxy = "" if r.proxy_match_rate is None else f"{r.proxy_match_rate:.6f}"
            f.write(
                f"{r.run},{r.iteration},{r.agent},{r.arch},"
                f"{r.test_accuracy:.6f},{r.val_accuracy:.6f},{proxy}\n"
            )


def read_csv(path) -> list[MetricsRecord]:
    records = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.reader(f)
        header = next(reader)
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            records.append(MetricsRecord(
                run=int(row[0]), iteration=int(row[1]), agent=int(row[2]), arch=row[3],
                test_accuracy=float(row[4]), val_accuracy=float(row[5]),
                proxy_match_rate=None if row[6] == "" else float(row[6]),
            ))
    return records


# --- SVG plotting ---------------------------------------------------------------

_PANEL_W = 300
_PANEL_H = 220
_MARGIN = 48
_GAP = 24


def emit_plot(records: Sequence[MetricsRecord], path) -> None:
    """Render per-architecture accuracy traces: mean line plus a band of
    two standard deviations, one panel per architecture, as standalone SVG."""
    if not records:
        raise ValueError("cannot plot an empty record stream")
    by_arch: dict[str, dict[int, list[float]]] = {}
    for r in records:
        by_arch.setdefault(r.arch, {}).setdefault(r.iteration, []).append(r.test_accuracy)
    kinds = [k for k in ARCH_ORDER if k in by_arch] + sorted(
        k for k in by_arch if k not in ARCH_ORDER
    )

    width = _MARGIN * 2 + len(kinds) * _PANEL_W + (len(kinds) - 1) * _GAP
    height = _MARGIN * 2 + _PANEL_H
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    for p, kind in enumerate(kinds):
        x0 = _MARGIN + p * (_PANEL_W + _GAP)
        parts.append(_render_panel(kind, by_arch[kind], x0, _MARGIN))
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(parts) + "\n")


def _render_panel(kind: str, series: dict[int, list[float]], x0: int, y0: int) -> str:
    iters = sorted(series)
    means, highs, lows = [], [], []
    for it in iters:
        vals = np.asarray(series[it])
        mean = float(vals.mean())
        std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
        means.append(mean)
        highs.append(min(1.0, mean + 2.0 * std))
        lows.append(max(0.0, mean - 2.0 * std))

    lo_x, hi_x = iters[0], iters[-1]
    span = max(hi_x - lo_x, 1)

    def px(it: int) -> float:
        return x0 + (it - lo_x) / span * _PANEL_W

    def py(acc: float) -> float:
        return y0 + (1.0 - acc) * _PANEL_H

    band_pts = [f"{px(it):.2f},{py(h):.2f}" for it, h in zip(iters, highs)]
    band_pts += [f"{px(it):.2f},{py(l):.2f}" for it, l in zip(reversed(iters), reversed(lows))]
    line_pts = " ".join(f"{px(it):.2f},{py(m):.2f}" for it, m in zip(iters, means))

    tick_labels = []
    for acc in (0.0, 0.5, 1.0):
        y = py(acc)
        tick_labels.append(
            f'<line x1="{x0 - 4}" y1="{y:.2f}" x2="{x0}" y2="{y:.2f}" stroke="black"/>'
            f'<text x="{x0 - 8}" y="{y + 4:.2f}" font-size="10" text-anchor="end">{acc:g}</text>'
        )
    return "\n".join([
        f'<g>',
        f'<rect x="{x0}" y="{y0}" width="{_PANEL_W}" height="{_PANEL_H}" '
        f'fill="none" stroke="black"/>',
        f'<text x="{x0 + _PANEL_W / 2:.2f}" y="{y0 - 8}" font-size="12" '
        f'text-anchor="middle">{escape(kind)}</text>',
        f'<polygon points="{" ".join(band_pts)}" fill="#9ecae1" fill-opacity="0.5" '
        f'stroke="none"/>',
        f'<polyline points="{line_pts}" fill="none" stroke="#08519c" stroke-width="1.5"/>',
        *tick_labels,
        f'<text x="{x0 + _PANEL_W / 2:.2f}" y="{y0 + _PANEL_H + 28}" font-size="10" '
        f'text-anchor="middle">iteration ({iters[0]}..{iters[-1]})</text>',
        f'</g>',
    ])
