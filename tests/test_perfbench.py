"""The benchmark's view of the package: every perfbench workload loads
through the top-level exports, its configs carry the fields that
perfbench/rep.py reads, and its tracer times every phase of a run. A
trimmed export, a renamed config field or a phase that bypasses its traced
function then fails here rather than in a benchmark run."""

import json
import os
import subprocess
import sys

import pytest

import colearn
from colearn import harness

from conftest import REPO_ROOT, blob_config

PERFBENCH = REPO_ROOT / "perfbench"


def _workloads() -> dict:
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads.WORKLOADS


def test_every_workload_loads_with_the_fields_rep_reads(tmp_path):
    workloads = _workloads()
    assert workloads
    for name, workload in workloads.items():
        configs = workload.load(colearn, REPO_ROOT, tmp_path)
        assert len(configs) == len(workload.configs), name
        for config in configs:
            for key, value in workload.overrides.items():
                assert colearn.override(config, key, value) == config, (name, key)
            assert config.mode in ("CL", "ST", "FS")
            assert config.collective.batch_size >= 1
            assert config.collective.epochs_over_shared >= 1
            assert config.training.fs_epochs >= 1
            assert config.training.self_train_epochs >= 0
            assert config.training.batch_size >= 1
            assert isinstance(config.common_val, bool)
            assert config.max_iterations is None or config.max_iterations >= 1
            assert min(config.n_agents, config.train_size, config.val_size) >= 1
            assert isinstance(config.master_seed, int)
            spec = config.dataset
            if workload.standin:
                assert spec.train_images.startswith(str(tmp_path)), name
            else:
                assert spec.n_per_class * spec.num_classes >= 1
    for attr in ("montecarlo", "emit_csv", "read_csv", "_load_corpus"):
        assert callable(getattr(harness, attr)), attr


@pytest.mark.parametrize("mode", ["CL", "ST"])
def test_montecarlo_returns_what_rep_reads(mode):
    # rep.py unpacks `_, outputs = harness.montecarlo(...)` and reads each
    # output's run index, records, stats and final test accuracies
    config = blob_config(mode=mode, runs=2, n_per_class=60, train_size=10, val_size=10,
                         self_train_epochs=2, metric_stride=10, max_iterations=20,
                         architectures=("HL1", "SHL"))
    result = harness.montecarlo(config)
    assert isinstance(result, tuple) and len(result) == 2
    _, outputs = result
    assert [o.run_index for o in outputs] == [0, 1]
    for output in outputs:
        assert output.records and isinstance(output.stats, dict)
        assert {r.run for r in output.records} == {output.run_index}
        if mode == "CL":
            assert output.stats["iterations"] == output.records[-1].iteration
        last = [max((r for r in output.records if r.agent == agent), key=lambda r: r.iteration)
                for agent in range(config.n_agents)]
        assert output.final_test == [r.test_accuracy for r in last]


# A blob CL run traced with every perfbench target, on the calling thread so
# that the tracer's one span stack sees every call; prints what it counted.
TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from colearn import harness, parallel
from conftest import blob_config
import tracer

trace = tracer.Tracer(sys.argv[3], full=True)
trace.install()
parallel.share_cores(parallel.usable_cores())
config = blob_config(mode="CL", n_per_class=60, train_size=20, val_size=10,
                     self_train_epochs=3, score_refresh_period=10, review_period=20,
                     epochs_over_shared=1, metric_stride=10, architectures=("HL1", "SHL"))
out = harness.run_mode(config, 0)
test_rows = config.dataset.test_n_per_class * config.dataset.num_classes
print(json.dumps({"absent": trace.absent, "counts": trace.counts, "stats": out.stats,
                  "records": len(out.records), "test_rows": test_rows,
                  "val_rows": config.val_size}))
"""


def test_tracer_sees_every_phase(tmp_path):
    # in a subprocess, so that no timing wrapper leaks into other tests
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(REPO_ROOT / "tests"), str(PERFBENCH),
         str(tmp_path)],
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    got = json.loads(done.stdout.splitlines()[-1])
    stats = got["stats"]

    def count(name: str) -> int:  # a target never called has no count
        return got["counts"].get(name, 0)

    n, iterations, reviews = 2, stats["iterations"], stats["reviews"]
    refreshes, emissions = count("collective.refresh_calls"), got["records"] // n
    assert got["absent"] == []
    # iteration 0's records give the first scores: a refresh runs only every 10
    assert reviews >= 1 and refreshes == iterations // 10
    assert count("collective.fuse_calls") == count("collective.rounds") == iterations
    # 2 minibatches per epoch over 20 private samples: 3 self-training
    # epochs and each review epoch; one step per agent per round
    steps = n * 3 * 2 + n * iterations + reviews * 2
    assert (count("learner.predict_calls") == count("learner.grad_calls")
            == count("learner.update_calls") == steps)
    # each refresh and each emission measures every agent's validation
    # accuracy; each emission also scores all agents on the test set at once
    assert count("learner.eval_calls") == n * (refreshes + emissions) + emissions
    assert count("learner.eval_samples") == (emissions * got["test_rows"]
                                             + n * (refreshes + emissions) * got["val_rows"])
