"""Per-layer timing of colearn, installed from outside the package.

The tracer replaces public functions of colearn's modules with timing
wrappers. A function is usually bound under several names (``grad`` lives in
``colearn.learner``, ``colearn.collective``, ``colearn.harness`` and the
package itself), so every binding of the same object is replaced. A target
that no longer exists is recorded as absent, so the benchmark keeps running
after a refactor removes or renames it.

Each wrapper records a span. Spans nest on a stack: a span's self time is
its duration minus the time of the spans it contains. The tracer keeps
aggregates per metric in memory and writes them to ``spans-<pid>.json`` in
its output directory. Forked pool workers inherit the wrappers; a worker
starts its own aggregates and writes its file each time its outermost span
ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from pathlib import Path

# stem, self-time metric, call-count metric, module, attribute. A stem names
# one layer entry; two targets may share a stem and its time.
TARGETS = (
    ("data.load_idx", "data.load_idx_s", "data.load_idx_calls", "colearn.data", "load_idx"),
    ("data.synth_blobs", "data.synth_blobs_s", "data.synth_blobs_calls",
     "colearn.data", "synth_blobs"),
    ("data.make_partition", "data.make_partition_s", "data.make_partition_calls",
     "colearn.data", "make_partition"),
    ("learner.init", "learner.init_s", "learner.init_calls", "colearn.learner", "init_params"),
    ("learner.predict", "learner.predict_s", "learner.predict_calls",
     "colearn.learner", "forward"),
    ("learner.grad", "learner.grad_s", "learner.grad_calls", "colearn.learner", "grad"),
    ("learner.update", "learner.update_s", "learner.update_calls",
     "colearn.learner", "apply_update"),
    ("learner.eval", "learner.eval_s", "learner.eval_calls", "colearn.learner", "accuracy"),
    ("learner.self_train", "learner.self_train_s", "learner.self_train_calls",
     "colearn.learner", "Learner.train"),
    ("collective.run", "collective.run_self_s", "collective.runs",
     "colearn.collective", "run_collective"),
    ("collective.round", "collective.round_self_s", "collective.rounds",
     "colearn.collective", "collective_round"),
    ("collective.fuse", "collective.fuse_s", "collective.fuse_calls",
     "colearn.collective", "fuse_and_label"),
    ("collective.refresh", "collective.refresh_s", "collective.refresh_calls",
     "colearn.collective", "refresh_scores"),
    ("collective.review", "collective.review_s", "collective.reviews",
     "colearn.collective", "review_step"),
    ("graph.weights", "graph.weights_s", "graph.weight_rebuilds",
     "colearn.graph", "build_weight_matrix_log"),
    ("graph.weights", "graph.weights_s", "graph.graph_draws", "colearn.graph", "graph_at"),
    ("harness.run", "harness.run_self_s", "harness.runs", "colearn.harness", "run_mode"),
    ("harness.train_traced", "harness.train_traced_s", "harness.train_traced_calls",
     "colearn.harness", "_train_traced"),
)

# Stems timed in every run, traced or not: a handful of calls per Monte Carlo
# run, from which the end-to-end metrics take per-run wall time.
E2E_STEMS = ("harness.run", "collective.run")

# Minimum memory traffic of one optimizer step, in passes over the parameter
# vector of 8-byte floats: Adam reads theta, g, m, v and writes theta, m, v.
UPDATE_PASSES = {"Adam": 7, "Sgd": 3}


def _eval_rows(args, kwargs) -> int:
    eval_set = args[2] if len(args) > 2 else kwargs.get("eval_set")
    rows = getattr(eval_set, "m", None)
    if rows is None:
        try:
            rows = len(eval_set[0])
        except (TypeError, IndexError):
            rows = 0
    return int(rows)


def _update_bytes(args, kwargs) -> int:
    rule = args[0] if args else kwargs.get("rule")
    theta = args[1] if len(args) > 1 else kwargs.get("theta")
    passes = UPDATE_PASSES.get(type(rule).__name__, 0)
    return passes * 8 * int(getattr(theta, "size", 0))


# Extra per-call amounts: counter name and how to compute it from the call.
AMOUNTS = {
    "learner.eval": ("learner.eval_samples", _eval_rows),
    "learner.update": ("learner.update_bytes", _update_bytes),
}


class Tracer:
    """Span stack and per-metric aggregates for one process."""

    def __init__(self, out_dir: Path, full: bool):
        self.out_dir = Path(out_dir)
        self.full = full
        self.absent: list[str] = []
        self.owner_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.stack: list[float] = []  # child time accumulated per open span
        self.total: dict[str, float] = {}  # inclusive seconds per stem
        self.self_s: dict[str, float] = {}  # self seconds per time metric
        self.counts: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {s: [] for s in E2E_STEMS}

    # --- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target; record the ones that cannot be found."""
        for stem, time_name, count_name, module_name, attr in TARGETS:
            if not self.full and stem not in E2E_STEMS:
                continue
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            owner, _, name = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            fn = getattr(holder, name, None) if holder is not None else None
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(stem, time_name, count_name, fn)
            if owner:
                setattr(holder, name, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "colearn" and not mod_name.startswith("colearn."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def _wrap(self, stem: str, time_name: str, count_name: str, fn):
        amount = AMOUNTS.get(stem)
        keep_samples = stem in E2E_STEMS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                self._reset()
            self.stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                child = self.stack.pop()
                if self.stack:
                    self.stack[-1] += duration
                self.total[stem] = self.total.get(stem, 0.0) + duration
                self.self_s[time_name] = self.self_s.get(time_name, 0.0) + duration - child
                self.counts[count_name] = self.counts.get(count_name, 0) + 1
                if amount is not None:
                    name, measure = amount
                    self.counts[name] = self.counts.get(name, 0) + measure(args, kwargs)
                if keep_samples:
                    self.samples[stem].append(duration)
                if not self.stack and self.pid != self.owner_pid:
                    self.flush()

        return wrapper

    # --- output ----------------------------------------------------------

    def flush(self) -> None:
        path = self.out_dir / f"spans-{self.pid}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({
            "pid": self.pid, "total": self.total, "self": self.self_s,
            "counts": self.counts, "samples": self.samples,
        }))
        os.replace(tmp, path)


def merge_span_files(out_dir: Path, owner_pid: int) -> dict:
    """Sum the aggregates written by every process. ``worker_busy_s`` is the
    time worker processes (all but ``owner_pid``) spent inside spans."""
    merged = {"total": {}, "self": {}, "counts": {},
              "samples": {s: [] for s in E2E_STEMS}, "worker_busy_s": 0.0}
    for path in sorted(Path(out_dir).glob("spans-*.json")):
        data = json.loads(path.read_text())
        for key in ("total", "self", "counts"):
            for name, value in data[key].items():
                merged[key][name] = merged[key].get(name, 0) + value
        for stem, values in data["samples"].items():
            merged["samples"].setdefault(stem, []).extend(values)
        if data["pid"] != owner_pid:
            merged["worker_busy_s"] += sum(data["self"].values())
    return merged
