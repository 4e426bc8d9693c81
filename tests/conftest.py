"""Shared fixtures: IDX file builders, blob experiment configs, the forced
numpy Adam step, the forced float64 evaluation, the collective engine's
recorded reviews and weight builds, the optional Fashion-MNIST directory
for dataset-gated tests, and the loss and prediction helpers that only
tests use."""

from __future__ import annotations

import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from colearn import _kernels, collective, learner
from colearn.cli import FMNIST_NAMES
from colearn.config import (
    CollectiveSpec,
    ExperimentConfig,
    GraphSpec,
    SynthSpec,
    TrainingSpec,
)
from colearn.data import write_idx
from colearn.learner import Architecture, Learner, _check_labels, forward
from colearn.seeding import rng_for

REPO_ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = REPO_ROOT / "configs"


# one misspelled key for each mapping of a config file: the top level, then
# each section
MISSPELLED_KEYS = [
    ("", "montecarlo_run"), ("partition", "trian_size"), ("agents", "cuont"),
    ("dataset", "seperation"), ("graph", "perod"), ("training", "aplha"),
    ("collective", "gama"),
]


def with_key(text: str, section: str, key: str) -> tuple[str, str]:
    """The config YAML `text` with `key: 5` added to `section`, or to the top
    level when `section` is empty, and the path an error should name."""
    if not section:
        return f"{key}: 5\n{text}", key
    header = f"\n{section}:\n"
    assert header in text
    return text.replace(header, f"{header}  {key}: 5\n", 1), f"{section}.{key}"


def fashion_mnist_dir() -> Path | None:
    """Directory with the real Fashion-MNIST IDX files, if present."""
    candidates = []
    env = os.environ.get("COLEARN_FMNIST_DIR")
    if env:
        candidates.append(Path(env))
    candidates.append(REPO_ROOT / "data" / "fashion-mnist")
    for cand in candidates:
        if all((cand / name).is_file() for name in FMNIST_NAMES):
            return cand
    return None


requires_fmnist = pytest.mark.skipif(
    fashion_mnist_dir() is None,
    reason="Fashion-MNIST IDX files not available (set COLEARN_FMNIST_DIR "
    "or place them under data/fashion-mnist/; see README)",
)


@pytest.fixture
def numpy_adam(monkeypatch):
    """Every Adam step of the test runs the numpy step, as in a process where
    the C step could not be built."""
    monkeypatch.setattr(_kernels, "_adam", (None, "numpy (forced by a test)"))


@pytest.fixture
def float64_eval(monkeypatch):
    """Every row of every evaluation in the test is taken by a float64 pass
    over the row alone, as if no bound proved any row's argmax."""
    monkeypatch.setattr(learner, "_certain", lambda logits, bound: (
        _kernels.argmax_rows(logits), np.zeros(logits.shape[0], dtype=bool)))


@pytest.fixture
def engine_calls(monkeypatch):
    """The collective engine's work as it runs: `reviews` gets an (agent id,
    seed) pair per review epoch and `builds` counts the weight-matrix
    builds, the initial build included. Review epochs run on pool threads,
    so compare `reviews` sorted, not in call order."""
    calls = SimpleNamespace(reviews=[], builds=0)
    review, build = collective.review_step, collective.build_weight_matrix_log

    def reviewing(agent, train_set, batch_size, seed):
        calls.reviews.append((agent.id, seed))
        review(agent, train_set, batch_size, seed)

    def building(graph, log_scores):
        calls.builds += 1
        return build(graph, log_scores)

    monkeypatch.setattr(collective, "review_step", reviewing)
    monkeypatch.setattr(collective, "build_weight_matrix_log", building)
    return calls


# Probabilities are clamped here before log, so that a confident wrong
# prediction gives a large finite loss instead of inf.
PROB_FLOOR = 1e-12


def loss(arch: Architecture, theta: np.ndarray, x, y) -> float:
    """Mean cross-entropy of labels `y` over the batch `x`."""
    labels = _check_labels(arch, y)
    picked = forward(arch, theta, x)[1][np.arange(labels.shape[0]), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def predict_proba(agent: Learner, x) -> np.ndarray:
    """An agent's class probabilities for one sample or a batch."""
    x = np.asarray(x)
    probs = forward(agent.arch, agent.params, np.atleast_2d(x))[1]
    return probs[0] if x.ndim == 1 else probs


@pytest.fixture
def idx_pair_factory(tmp_path):
    """Write (images, labels) uint8 arrays as an IDX pair in tmp_path."""

    def build(images: np.ndarray, labels: np.ndarray, prefix: str = "set"):
        images_path = tmp_path / f"{prefix}-images-idx3-ubyte"
        labels_path = tmp_path / f"{prefix}-labels-idx1-ubyte"
        write_idx(images, labels, images_path, labels_path)
        return images_path, labels_path

    return build


def synthetic_idx_dataset(dirpath: Path, m_train: int = 12600, m_test: int = 1000,
                          seed: int = 99) -> None:
    """A Fashion-MNIST-shaped stand-in: 28x28 uint8 images in 10 loose
    Gaussian classes, written in the exact IDX wire format."""
    rng = rng_for(seed, "idx-standin")

    def render(count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, 10, size=count)
        base = rng.integers(0, 40, size=(10, 28, 28))
        imgs = np.empty((count, 28, 28), dtype=np.uint8)
        for c in range(10):
            mask = labels == c
            n = int(mask.sum())
            noise = rng.normal(0.0, 25.0, size=(n, 28, 28))
            block = base[c] + noise
            block[:, c * 2 : c * 2 + 6, 4:24] += 120.0
            imgs[mask] = np.clip(block, 0, 255).astype(np.uint8)
        return imgs, labels.astype(np.uint8)

    dirpath.mkdir(parents=True, exist_ok=True)
    train_imgs, train_labels = render(m_train)
    test_imgs, test_labels = render(m_test)
    write_idx(train_imgs, train_labels, dirpath / FMNIST_NAMES[0], dirpath / FMNIST_NAMES[1])
    write_idx(test_imgs, test_labels, dirpath / FMNIST_NAMES[2], dirpath / FMNIST_NAMES[3])


def blob_config(
    mode: str = "CL",
    runs: int = 1,
    seed: int = 2024,
    n_per_class: int = 1048,
    num_classes: int = 5,
    dim: int = 20,
    separation: float = 2.0,
    train_size: int = 30,
    val_size: int = 30,
    self_train_epochs: int = 400,
    alpha: float = 3e-3,
    gamma: float = 1.0,
    score_refresh_period: int = 50,
    review_period: int = 50,
    epochs_over_shared: int = 2,
    metric_stride: int = 100,
    architectures: tuple[str, ...] = ("HL1", "HL1", "SHL", "SHL"),
    max_iterations: int | None = None,
) -> ExperimentConfig:
    return ExperimentConfig(
        mode=mode,
        architectures=architectures,
        architecture_mix=(),
        train_size=train_size,
        val_size=val_size,
        common_val=False,
        dataset=SynthSpec(
            n_per_class=n_per_class, num_classes=num_classes, dim=dim,
            separation=separation, test_n_per_class=200,
        ),
        graph=GraphSpec(kind="complete"),
        training=TrainingSpec(
            alpha=alpha, batch_size=10,
            self_train_epochs=self_train_epochs, fs_epochs=5,
        ),
        collective=CollectiveSpec(
            gamma=gamma, score_refresh_period=score_refresh_period,
            review_period=review_period, batch_size=10,
            epochs_over_shared=epochs_over_shared,
        ),
        montecarlo_runs=runs,
        master_seed=seed,
        metric_stride=metric_stride,
        max_iterations=max_iterations,
    )
