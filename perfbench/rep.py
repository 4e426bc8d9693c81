"""One repetition of a workload, in a fresh process.

Usage: python3 perfbench/rep.py SPEC.json

SPEC (written by run.py) names the checkout root, the workload, the
stand-in directory, an output directory, whether to trace every layer and
whether to stop after set-up. The repetition

1. sets up: imports colearn from the checkout's ``src``, parses the configs
   and builds the corpus, which a Monte Carlo pays once per process;
2. runs each config through ``colearn.harness.montecarlo``;
3. writes each config's metrics.csv, checks the outputs, and writes
   ``rep.json`` into the output directory.

A fresh process per repetition matters: the harness caches the corpus and
``ru_maxrss`` only ever rises, so in-process repeats would hide both set-up
time and peak memory.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import struct
import sys
import time
from pathlib import Path


def _build_corpus(harness, config) -> None:
    """Warm the harness's corpus cache as a Monte Carlo's first run would.
    Without that cache (a later refactor may remove it), the first run pays
    the load and set-up covers the import and the parse only."""
    load = getattr(harness, "_load_corpus", None)
    if load is None:
        print("note: harness._load_corpus is absent; set-up excludes the corpus")
        return
    load(config.dataset, config.master_seed)


def _source_size(config) -> int:
    """Labeled corpus size, read from the config or the IDX header."""
    spec = config.dataset
    if hasattr(spec, "n_per_class"):
        return spec.n_per_class * spec.num_classes
    with open(spec.train_images, "rb") as f:
        return struct.unpack(">ii", f.read(8))[1]


def _expected_iterations(config, source_m: int) -> int:
    """The engine's iteration count for a CL run, computed independently."""
    blocks = 1 if config.common_val else config.n_agents
    shared = source_m - config.n_agents * config.train_size - blocks * config.val_size
    total = config.collective.epochs_over_shared * -(-shared // config.collective.batch_size)
    return total if config.max_iterations is None else min(total, config.max_iterations)


def _expected_updates(config, source_m: int) -> int:
    """Update steps per agent of an ST or FS run."""
    t = config.training
    m, epochs = (source_m, t.fs_epochs) if config.mode == "FS" else (config.train_size,
                                                                      t.self_train_epochs)
    total = epochs * -(-m // t.batch_size)
    return total if config.max_iterations is None else min(total, config.max_iterations)


def _is_acc(x) -> bool:
    x = float(x)
    return math.isfinite(x) and 0.0 <= x <= 1.0


def check_run(config, output, source_m: int) -> list[str]:
    """Problems with one run's output: iteration count and accuracy range."""
    problems = []
    run = output.run_index
    if config.mode == "CL":
        want = _expected_iterations(config, source_m)
        got = output.stats.get("iterations")
        last = max(r.iteration for r in output.records)
        if got != want or last != want:
            problems.append(f"run {run}: {got} iterations (last record {last}), expected {want}")
    else:
        want = _expected_updates(config, source_m)
        for agent in range(config.n_agents):
            last = max(r.iteration for r in output.records if r.agent == agent)
            if last != want:
                problems.append(f"run {run} agent {agent}: {last} updates, expected {want}")
    for r in output.records:
        values = [r.test_accuracy, r.val_accuracy]
        if r.proxy_match_rate is not None:
            values.append(r.proxy_match_rate)
        if not all(_is_acc(v) for v in values):
            problems.append(f"run {run} iter {r.iteration} agent {r.agent}: accuracy {values}")
    if not all(_is_acc(a) for a in output.final_test):
        problems.append(f"run {run}: final test accuracy {output.final_test}")
    return problems


def check_round_trip(harness, records, path: Path) -> list[tuple[int, str]]:
    """Write records with emit_csv, read them back with read_csv, compare."""
    harness.emit_csv(records, path)
    back = harness.read_csv(path)
    if len(back) != len(records):
        return [(-1, f"{path.name}: {len(back)} records read back, {len(records)} written")]
    problems = []
    for a, b in zip(records, back):
        same = (
            (a.run, a.iteration, a.agent, a.arch) == (b.run, b.iteration, b.agent, b.arch)
            and abs(a.test_accuracy - b.test_accuracy) <= 5e-7
            and abs(a.val_accuracy - b.val_accuracy) <= 5e-7
            and (a.proxy_match_rate is None) == (b.proxy_match_rate is None)
            and (a.proxy_match_rate is None or abs(a.proxy_match_rate - b.proxy_match_rate) <= 5e-7)
        )
        if not same:
            problems.append((a.run, f"{path.name}: round trip changed {a} into {b}"))
    return problems


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    t0 = time.perf_counter()
    root = Path(spec["root"])
    out_dir = Path(spec["out_dir"])
    sys.path.insert(0, str(root / "src"))
    import colearn
    from colearn import harness

    if Path(colearn.__file__).resolve().parent != (root / "src" / "colearn").resolve():
        raise SystemExit(f"colearn imported from {colearn.__file__}, not the checkout")
    import tracer as tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[spec["workload"]]
    configs = workload.load(colearn, root, Path(spec["data_dir"]))
    tracer = tracing.Tracer(out_dir, full=spec["traced"])
    tracer.install()
    start = time.perf_counter()
    _build_corpus(harness, configs[0])
    corpus_s = time.perf_counter() - start
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s, "pid": os.getpid()}
    if spec["setup_only"]:
        (out_dir / "rep.json").write_text(json.dumps(result))
        return 0
    clear_cache = getattr(getattr(harness, "_load_corpus", None), "cache_clear", None)
    if workload.jobs > 1 and clear_cache is not None:
        # Like `colearn montecarlo --jobs N`: every worker loads its own corpus.
        clear_cache()
    source_m = _source_size(configs[0])

    problems: list[tuple[str, str]] = []  # (config#run, message)
    configs_out = []
    iterations = updates = 0
    final_test, proxy, final_val = [], [], []
    walls, process_s = [], 0.0  # Monte Carlo wall time; process-seconds it held
    for name, config in zip(workload.configs, configs):
        start = time.perf_counter()
        _, outputs = harness.montecarlo(config, jobs=workload.jobs)
        walls.append(time.perf_counter() - start)
        process_s += min(workload.jobs, len(outputs)) * walls[-1]
        records = [r for o in outputs for r in o.records]
        for output in outputs:
            key = f"{name}#{output.run_index}"
            problems += [(key, p) for p in check_run(config, output, source_m)]
            final_test += output.final_test
            iterations += output.stats.get("iterations", 0)
            for agent in range(config.n_agents):
                last = max((r for r in output.records if r.agent == agent),
                           key=lambda r: r.iteration)
                final_val.append(last.val_accuracy)
                if config.mode != "CL":
                    updates += last.iteration
        proxy += [r.proxy_match_rate for r in records if r.proxy_match_rate is not None]
        csv_path = out_dir / f"{Path(name).stem}.csv"
        problems += [(f"{name}#{run}", p)
                     for run, p in check_round_trip(harness, records, csv_path)]
        configs_out.append({
            "config": name, "runs": len(outputs), "wall_s": walls[-1], "csv": csv_path.name,
            "sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest(),
        })
    tracer.flush()
    spans = tracing.merge_span_files(out_dir, os.getpid())
    who = resource.RUSAGE_CHILDREN if workload.jobs > 1 else resource.RUSAGE_SELF
    result.update({
        # the timed region: corpus build plus the Monte Carlo calls, and the
        # process-seconds spans there could cover
        "region_wall_s": corpus_s + sum(walls),
        "capacity_s": corpus_s + process_s,
        "configs": configs_out,
        "runs": sum(c["runs"] for c in configs_out),
        "failed_runs": sorted({key for key, _ in problems}),
        "problems": [p for _, p in problems],
        "run_s": spans["samples"]["harness.run"],
        "collective_s": spans["samples"]["collective.run"],
        "iterations": iterations,
        "updates": updates,
        "final_test": final_test,
        # CL: consensus-label accuracy; ST/FS agents label alone, so their
        # proxy is their own prediction, measured on held-out validation data.
        "proxy": proxy if proxy else final_val,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "pool_idle_s": process_s - spans["worker_busy_s"] if workload.jobs > 1 else 0.0,
        "spans": spans,
        "absent": tracer.absent,
    })
    (out_dir / "rep.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
