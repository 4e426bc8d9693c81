"""The benchmark's view of the package: every perfbench workload loads
through the top-level exports, and its configs carry the fields that
perfbench/rep.py reads. A trimmed export or a renamed config field then
fails here rather than in a benchmark run."""

import sys

import colearn
from colearn import harness

from conftest import REPO_ROOT

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
