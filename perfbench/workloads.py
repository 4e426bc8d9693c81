"""The benchmark's workloads: which shipped configs run, with which caps.

The stand-in workloads read a corpus generated from the benchmark's
``--seed`` (see ``standin.py``). Every config keeps its shipped master seed,
so ``desk-blobs``, which runs its config as shipped, has the same inputs for
every seed and its accuracy figures repeat exactly. Caps are applied with
``colearn.config.override`` so the shipped YAML files stay the single source
of every other setting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from standin import IDX_NAMES

IDX_FIELDS = ("train_images", "train_labels", "test_images", "test_labels")


@dataclass(frozen=True)
class Workload:
    configs: tuple[str, ...]  # file names under configs/
    jobs: int  # worker processes passed to montecarlo
    standin: bool  # reads the generated IDX stand-in
    overrides: dict = field(default_factory=dict)

    def load(self, colearn, root: Path, data_dir: Path) -> list:
        """Parse each config and apply the caps and stand-in paths."""
        out = []
        for name in self.configs:
            config = colearn.load_config(root / "configs" / name)
            settings = dict(self.overrides)
            if self.standin:
                settings.update(
                    (key, str(data_dir / file)) for key, file in zip(IDX_FIELDS, IDX_NAMES)
                )
            for key, value in settings.items():
                config = colearn.override(config, key, value)
            out.append(config)
        return out


# Why each workload is there is recorded in BENCHMARK.json and README.md.
# Self-training epochs are cut so that the collective phase does most of the
# work; iteration caps keep a run within the benchmark's time budget while
# still reaching the periodic events (table1: one review at 300; large-net: a
# score refresh at 100 and a review at 200).
WORKLOADS = {
    "desk-blobs": Workload(configs=("desk_blobs_cl.yaml",), jobs=1, standin=False),
    "table1-standin": Workload(
        configs=("table1_cl.yaml",), jobs=1, standin=True,
        overrides={"montecarlo_runs": 1, "self_train_epochs": 2, "max_iterations": 300},
    ),
    "large-net-standin": Workload(
        configs=("large_network.yaml",), jobs=1, standin=True,
        overrides={"montecarlo_runs": 1, "self_train_epochs": 1, "max_iterations": 200,
                   "metric_stride": 200},
    ),
    "baselines-jobs2": Workload(
        configs=("table1_st.yaml", "table1_fs.yaml"), jobs=2, standin=True,
        overrides={"montecarlo_runs": 2, "max_iterations": 200},
    ),
}
