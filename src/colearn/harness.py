"""Experiment orchestration: single runs, Monte Carlo replication, the
cooperative-vs-baseline comparison protocol, and metric persistence.

Modes: CL self-trains each agent on its private set and then runs the
collective phase over the shared pool; ST stops after self-training
(the non-cooperative baseline); FS trains every architecture on the full
labeled corpus (the fully-supervised ceiling).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import html
import io
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .collective import MetricsRecord, RunOutput, measure, run_collective
from .config import ConfigError, ExperimentConfig, SynthSpec
from .data import (
    Dataset, IdxFormatError, Partition, idx_count, load_idx_corpus, make_partition, synth_blobs,
    write_manifest,
)
from .graph import GraphSchedule
from .learner import Adam, Architecture, Learner, train_epochs
from .parallel import AgentPool, share_cores
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


# --- dataset plumbing --------------------------------------------------------


def _load_corpus(spec, master_seed: int) -> tuple[Dataset, Dataset]:
    """The (source, test) pair a config trains on, built once per process.

    Blobs are drawn from the master seed; an IDX corpus does not depend on
    it, so it is cached on its files alone and a seed sweep reads it once.
    The key holds each file's size and modification time, so files
    rewritten at the same paths are read again.
    """
    if isinstance(spec, SynthSpec):
        return _corpus(spec, master_seed)
    return _corpus(spec, tuple(_file_stamp(path) for path in dataclasses.astuple(spec)))


def _file_stamp(path) -> tuple[int, int] | None:
    # a missing file gets no stamp; load_idx then raises its own error
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_size, st.st_mtime_ns


@functools.lru_cache(maxsize=4)
def _corpus(spec, key) -> tuple[Dataset, Dataset]:
    # key: the master seed for blobs, the files' stamps for an IDX corpus
    if isinstance(spec, SynthSpec):
        source = synth_blobs(
            spec.n_per_class, spec.num_classes, spec.dim, spec.separation,
            subseed(key, "synth-corpus"),
        )
        test = synth_blobs(
            spec.test_n_per_class, spec.num_classes, spec.dim, spec.separation,
            subseed(key, "synth-test"),
        )
        return source, test
    return load_idx_corpus(spec.train_images, spec.train_labels, spec.test_images,
                           spec.test_labels)


# clearing drops every cached corpus, so a pool worker loads its own
_load_corpus.cache_clear = _corpus.cache_clear


def corpus_size(spec) -> int:
    """The sample count of the source corpus `spec` names, without loading
    it: the blobs' count, or the count in the IDX images header."""
    if isinstance(spec, SynthSpec):
        return spec.n_per_class * spec.num_classes
    return idx_count(spec.train_images)


def check_partition(config: ExperimentConfig, m: int) -> None:
    """Raise a ConfigError, naming the partition fields, unless the
    partition fits a corpus of m samples and, in CL, leaves a shared pool."""
    val_blocks = 1 if config.common_val else config.n_agents
    needed = config.n_agents * config.train_size + val_blocks * config.val_size
    if needed > m or (config.mode == "CL" and needed == m):
        raise ConfigError(
            f"partition.train_size, partition.val_size: {config.n_agents} agents x "
            f"{config.train_size} train + {val_blocks} x {config.val_size} val "
            + (f"need {needed} samples, but the corpus has only {m}" if needed > m else
               f"use all {m} samples, leaving CL no shared pool"))


def build_schedule(config: ExperimentConfig) -> GraphSchedule:
    return GraphSchedule(config.graph, config.n_agents,
                         subseed(config.master_seed, "graph-schedule"))


def resolve_architectures(config: ExperimentConfig, run_index: int) -> list[str]:
    if config.architectures:
        return list(config.architectures)
    kinds = []
    for kind, count in config.architecture_mix:
        kinds.extend([kind] * count)
    rng_for(config.master_seed, run_index, "arch-assign").shuffle(kinds)
    return kinds


@dataclass(frozen=True)
class AgentSpec:
    """An agent of a run before its `Learner` is built: its architecture,
    by which the agent pool sizes and orders tasks, and its id."""

    arch: Architecture
    id: int


def _make_agent(config: ExperimentConfig, run_index: int, spec: AgentSpec) -> Learner:
    """The agent `spec` names, its parameters drawn from its own seed, so
    that agents may be built in any order."""
    t = config.training
    return Learner.create(
        spec.arch, seed=subseed(config.master_seed, run_index, "agent-init", spec.id),
        rule=Adam(alpha=t.alpha, beta1=t.beta1, beta2=t.beta2, eps=t.eps), id=spec.id,
    )


# --- baseline training with a metrics trace ----------------------------------


def _train_traced(spec: AgentSpec, config: ExperimentConfig, source: Dataset,
                  partition: Partition, run_index: int) -> list[MetricsRecord]:
    """Build the agent `spec` names and train it alone as `config.mode` does
    (ST on its private set, FS on the whole labeled corpus), with the
    collective engine's metrics records, the iteration being the update
    count: at 0, at every metric_stride updates and after the last update.
    The agent lives only as long as this call."""
    agent = _make_agent(config, run_index, spec)
    t = config.training
    if config.mode == "FS":
        train_set, epochs, stream = source, t.fs_epochs, "fs-train"
    else:
        train_set, epochs, stream = partition.train[agent.id], t.self_train_epochs, "self-train"
    records = []

    def emit(step: int) -> None:
        records.extend(measure([agent], [partition.val[agent.id]], partition.test, step,
                               run_index))

    def on_step(step: int) -> None:
        if step % config.metric_stride == 0:
            emit(step)

    emit(0)
    steps = train_epochs(
        agent.arch, agent.params, agent.rule, train_set, t.batch_size, epochs,
        subseed(config.master_seed, run_index, stream, agent.id),
        max_updates=config.max_iterations, on_step=on_step,
    )
    if steps % config.metric_stride:
        emit(steps)
    return records


# --- run execution ------------------------------------------------------------


def run_mode(
    config: ExperimentConfig,
    run_index: int = 0,
    manifest_path=None,
) -> RunOutput:
    """Execute one run of the configured mode; deterministic in
    (config, run_index).

    ST and FS build each agent inside its own training task and drop it when
    the task returns (`_train_traced`), so a process holds no more baseline
    agents (parameters and Adam moments) than its pool has threads. CL
    builds every agent first, as its collective phase needs them all."""
    source, test = _load_corpus(config.dataset, config.master_seed)
    # checked before self-training, which would run in vain
    check_partition(config, source.m)
    partition = make_partition(
        source, config.n_agents, config.train_size, config.val_size,
        seed=subseed(config.master_seed, run_index, "partition"), test=test,
        common_val=config.common_val,
    )
    if manifest_path is not None:
        write_manifest(partition, manifest_path)
    specs = [AgentSpec(Architecture(kind, source.d, source.num_classes), i)
             for i, kind in enumerate(resolve_architectures(config, run_index))]
    t = config.training

    if config.mode in ("FS", "ST"):
        with AgentPool.for_agents(specs) as pool:
            traces = pool.each(lambda s: _train_traced(s, config, source, partition, run_index),
                               specs, where="in training")
        return RunOutput(run_index, [r for trace in traces for r in trace])
    agents = [_make_agent(config, run_index, spec) for spec in specs]
    with AgentPool.for_agents(agents) as pool:
        pool.each(
            lambda a: a.train(
                partition.train[a.id], t.batch_size, t.self_train_epochs,
                seed=subseed(config.master_seed, run_index, "self-train", a.id),
            ),
            agents, where="in self-training",
        )
    return run_collective(
        agents, partition, build_schedule(config), config.collective,
        seed=subseed(config.master_seed, run_index, "collective"),
        train_batch=t.batch_size, run_index=run_index, metric_stride=config.metric_stride,
        max_iterations=config.max_iterations,
    )


def input_error(e: BaseException | None) -> ConfigError | IdxFormatError | None:
    """The ConfigError or IdxFormatError that `e` is, or was raised from
    (as by `AgentPool.each`), if any: a fault of a run's configuration or
    data, on which the CLI exits 1 wherever in the run it was raised."""
    while e is not None and not isinstance(e, (ConfigError, IdxFormatError)):
        e = e.__cause__
    return e


def _run_for_pool(args) -> RunOutput:
    config, run_index, manifest_path = args
    try:
        return run_mode(config, run_index, manifest_path)
    except Exception as e:
        # a config or data error keeps its class, which a worker process
        # passes on where it would drop the cause, so the CLI exits 1
        cause = input_error(e)
        kind = RuntimeError if cause is None else type(cause)
        raise kind(f"run {run_index} (master seed {config.master_seed}) failed: {e}") from e


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
        workers = min(jobs, runs)
        # each worker runs its agents on its share of the cores
        with ProcessPoolExecutor(max_workers=workers, initializer=share_cores,
                                 initargs=(workers,)) as pool:
            outputs = list(pool.map(_run_for_pool, tasks))
    else:
        outputs = [_run_for_pool(task) for task in tasks]
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


def write_results(out, mode: str, outputs: Sequence[RunOutput]) -> str:
    """Write the runs' `metrics.csv` and `summary.txt` into the directory
    `out`, as every command does; returns the summary text."""
    emit_csv([r for o in outputs for r in o.records], Path(out) / "metrics.csv")
    text = format_summary(summarize(mode, outputs))
    (Path(out) / "summary.txt").write_text(text + "\n", encoding="utf-8")
    return text


def read_csv(path) -> list[MetricsRecord]:
    """The records of a metrics CSV in `emit_csv`'s schema; a malformed file,
    or a rate outside [0, 1], raises a ConfigError naming the path and line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        line = raw.count(b"\n", 0, e.start) + 1
        raise ConfigError(f"{path}:{line}: not UTF-8: byte 0x{raw[e.start]:02x}") from None
    records = []
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or tuple(header) != CSV_HEADER:
        raise ConfigError(f"{path}:1: expected the CSV header {','.join(CSV_HEADER)}, "
                          f"got {header}")
    for row in reader:
        try:
            run, iteration, agent, arch, test, val, proxy = row
            rates = {"test_acc": float(test), "val_acc": float(val),
                     "proxy_correct": None if proxy == "" else float(proxy)}
            for name, rate in rates.items():
                if rate is not None and not 0.0 <= rate <= 1.0:  # NaN fails too
                    raise ValueError(f"{name} must lie in [0, 1], got {rate}")
            records.append(MetricsRecord(
                run=int(run), iteration=int(iteration), agent=int(agent), arch=arch,
                test_accuracy=rates["test_acc"], val_accuracy=rates["val_acc"],
                proxy_match_rate=rates["proxy_correct"],
            ))
        except ValueError as e:
            raise ConfigError(f"{path}:{reader.line_num}: {e}") from None
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
        f'text-anchor="middle">{html.escape(kind, quote=False)}</text>',
        f'<polygon points="{" ".join(band_pts)}" fill="#9ecae1" fill-opacity="0.5" '
        f'stroke="none"/>',
        f'<polyline points="{line_pts}" fill="none" stroke="#08519c" stroke-width="1.5"/>',
        *tick_labels,
        f'<text x="{x0 + _PANEL_W / 2:.2f}" y="{y0 + _PANEL_H + 28}" font-size="10" '
        f'text-anchor="middle">iteration ({iters[0]}..{iters[-1]})</text>',
        f'</g>',
    ])
