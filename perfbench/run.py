"""End-to-end benchmark of colearn.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads are listed in ``workloads.py`` and BENCHMARK.json. An
invocation generates its inputs from the seed (the IDX stand-in corpus for
the stand-in workloads), outside every timed region, then runs repetitions
of the workload, each in a fresh process (``rep.py``):

* ``--trace 0`` repeats the workload, untraced, for at least S seconds, adds
  set-up-only processes until set-up has been timed three times, and reports
  the end-to-end metrics;
* ``--trace 1`` runs the workload once untraced and once with every layer
  traced, and reports the per-layer metrics plus the tracing overhead.

Every repetition's outputs are checked (iteration counts, accuracy ranges,
the metrics.csv round trip); repetitions of one config within an invocation
must write byte-identical metrics.csv files. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. The full record, with the environment, goes to
``.perfbench_work/<invocation>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170.0  # an invocation must end within 180 s
SETUP_SAMPLES = 3  # set-up timings per invocation, from repetitions or set-up-only runs
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def blas_env(jobs: int) -> dict:
    """Pin BLAS threads so that processes x threads <= usable cores: all of
    them for a single process, as a user's default run has, and an equal
    share for each pool worker."""
    threads = str(max(1, cpu_count() // jobs))
    return {name: threads for name in BLAS_VARS}


def environment(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as e:  # noqa: BLE001 - the record notes what it could not read
        blas = {"error": repr(e)}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "os_cpu_count": os.cpu_count(),
        "usable_cpus": cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "git_commit": commit,
    }


class Invocation:
    """One benchmark invocation: its directory, repetitions and failures."""

    def __init__(self, args):
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.start = time.perf_counter()
        self.dir = ROOT / ".perfbench_work" / (
            f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
        )
        self.data_dir = self.dir / "data"
        self.reps: list[dict] = []
        self.setup_samples: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.runs_per_rep = None
        self.processes = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def generate_inputs(self) -> None:
        if not self.workload.standin:
            return
        sys.path.insert(0, str(ROOT / "src"))
        from colearn.data import write_idx
        from standin import write_standin

        write_standin(self.data_dir, self.args.seed, write_idx)

    def repetition(self, traced: bool = False, setup_only: bool = False) -> dict | None:
        """Run rep.py in a fresh process; returns its record or None."""
        self.processes += 1
        out_dir = self.dir / f"rep{self.processes:02d}"
        out_dir.mkdir(parents=True)
        spec = {
            "root": str(ROOT), "workload": self.args.workload,
            "data_dir": str(self.data_dir), "out_dir": str(out_dir),
            "traced": traced, "setup_only": setup_only,
        }
        (out_dir / "spec.json").write_text(json.dumps(spec))
        env = dict(os.environ, **blas_env(self.workload.jobs))
        env.pop("PYTHONPATH", None)
        log = out_dir / "log.txt"
        with open(log, "w") as f:
            # Its own process group, so that a timeout also ends pool workers.
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "rep.py"), str(out_dir / "spec.json")],
                stdout=f, stderr=subprocess.STDOUT, env=env, cwd=ROOT,
                start_new_session=True,
            )
            try:
                code = proc.wait(timeout=max(1.0, DEADLINE_S - self.elapsed()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                code = "timeout"
        result_path = out_dir / "rep.json"
        if code != 0 or not result_path.is_file():
            tail = log.read_text(errors="replace")[-2000:]
            self.problems.append(f"{out_dir.name}: exit {code}\n{tail}")
            print(f"repetition {out_dir.name} failed (exit {code}):\n{tail}", file=sys.stderr)
            if not setup_only:
                self.attempted += self.runs_per_rep or 1
                self.failed += self.runs_per_rep or 1
            return None
        rec = json.loads(result_path.read_text())
        rec["traced"] = traced
        if not traced:
            self.setup_samples.append(rec["setup_s"])
        if setup_only:
            return rec
        self.runs_per_rep = rec["runs"]
        self.attempted += rec["runs"]
        self.failed += len(rec["failed_runs"])
        self.problems += rec["problems"]
        self.reps.append(rec)
        return rec

    def check_identical(self) -> None:
        """Every repetition must write byte-identical metrics.csv files."""
        if len(self.reps) < 2:
            return
        first = {c["config"]: c["sha256"] for c in self.reps[0]["configs"]}
        for rec in self.reps[1:]:
            bad = [c["config"] for c in rec["configs"] if first.get(c["config"]) != c["sha256"]]
            if bad:
                self.problems.append(f"metrics.csv differs between repetitions: {bad}")
                self.failed += rec["runs"]


def end_to_end(inv: Invocation) -> dict:
    reps = inv.reps
    run_s = [s for r in reps for s in r["run_s"]]
    if all(r["iterations"] for r in reps):  # CL: collective iterations in run_collective
        iters = sum(r["iterations"] for r in reps) / sum(sum(r["collective_s"]) for r in reps)
    else:  # ST/FS: update steps per second of run
        iters = sum(r["updates"] for r in reps) / sum(sum(r["run_s"]) for r in reps)
    accs = [a for r in reps for a in r["final_test"]]
    proxy = [p for r in reps for p in r["proxy"]]
    return {
        "setup_s": (statistics.median(inv.setup_samples), "s"),
        "run_s": (statistics.median(run_s), "s"),
        "iter_per_s": (iters, "1/s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
        "final_test_acc": (statistics.fmean(accs), "fraction"),
        "proxy_label_acc": (statistics.fmean(proxy), "fraction"),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    spans = traced["spans"]
    wall = traced["region_wall_s"]
    capacity = traced["capacity_s"]
    metrics = {}
    stems = {}
    for stem, time_name, count_name, _, _ in TARGETS:
        stems.setdefault(stem, time_name)
        metrics[count_name] = (spans["counts"].get(count_name, 0), "count")
    for stem, time_name in stems.items():
        self_s = spans["self"].get(time_name, 0.0)
        metrics[time_name] = (self_s, "s")
        metrics[f"{stem}_total_s"] = (spans["total"].get(stem, 0.0), "s")
        metrics[f"{stem}_share"] = (self_s / capacity, "fraction")
    self_sum = sum(spans["self"].values())
    metrics.update({
        "learner.eval_samples": (spans["counts"].get("learner.eval_samples", 0), "count"),
        "learner.update_bytes": (spans["counts"].get("learner.update_bytes", 0), "B-computed"),
        "harness.pool_idle_s": (traced["pool_idle_s"], "s"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced["region_wall_s"], "s"),
        "trace.overhead_s": (wall - untraced["region_wall_s"], "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.coverage": (self_sum / capacity, "fraction"),
        "trace.absent_targets": (len(traced["absent"]), "count"),
    })
    return metrics


def run(args) -> int:
    if not (ROOT / "src" / "colearn" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no colearn checkout (src/colearn, configs)", file=sys.stderr)
        return 2
    inv = Invocation(args)
    inv.dir.mkdir(parents=True)
    try:
        inv.generate_inputs()
        inv.start = time.perf_counter()  # the measured period starts here
        if args.trace:
            untraced = inv.repetition()
            traced = inv.repetition(traced=True) if untraced else None
            if not (untraced and traced):
                return 2
            inv.check_identical()
            metrics = per_layer(untraced, traced)
            absent = traced["absent"]
        else:
            while not inv.reps or inv.elapsed() < args.seconds:
                if inv.repetition() is None:
                    break
            while inv.reps and len(inv.setup_samples) < SETUP_SAMPLES:
                if inv.repetition(setup_only=True) is None:
                    break
            if not inv.reps or len(inv.setup_samples) == 0:
                return 2
            inv.check_identical()
            metrics = end_to_end(inv)
            absent = []
    finally:
        shutil.rmtree(inv.data_dir, ignore_errors=True)

    run_s = sorted(s for r in inv.reps for s in r["run_s"])
    record = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "environment": environment(args.seed),
        "blas_threads_per_process": blas_env(inv.workload.jobs)[BLAS_VARS[0]],
        "repetitions": len(inv.reps), "setup_samples": inv.setup_samples,
        # The high percentile is recorded, not gated: on a shared two-core
        # machine the slowest runs follow its slow spells more than the program.
        "run_s_samples": run_s,
        "run_s_p90": run_s[min(len(run_s) - 1, int(0.9 * len(run_s)))],
        "metrics_csv_sha256": {c["config"]: c["sha256"] for c in inv.reps[0]["configs"]},
        "absent": absent, "problems": inv.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (inv.dir / "result.json").write_text(json.dumps(record, indent=1))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>16.6g} {unit}")
    for name in absent:
        print(f"absent: {name}")
    for problem in inv.problems:
        print(f"problem: {problem}")
    print(f"run_s p90 {record['run_s_p90']:.4f} s, max {run_s[-1]:.4f} s, "
          f"over {len(run_s)} runs in {len(inv.reps)} repetitions; "
          f"set-up samples {len(inv.setup_samples)}; "
          f"failure_rate {inv.failed / max(inv.attempted, 1):.4f} "
          f"({inv.failed} of {inv.attempted} runs)")
    print(f"metrics.csv sha256 {record['metrics_csv_sha256']}")
    print("environment " + json.dumps(record["environment"]))
    print(json.dumps({
        "correct": inv.failed == 0 and not inv.problems,
        "attempted": inv.attempted,
        "failed": min(inv.failed, inv.attempted),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(run(parse_args(sys.argv[1:])))
