"""Pixel bytes decoded per batch give the same bits as a float64 corpus.

An IDX corpus is held as its uint8 bytes and decoded where a matmul
consumes it: in the training loop, in the evaluation loop and in the
collective engine's batch gather. Each test below runs once on the corpus
as loaded and once on its float64 decode, and asserts bit-for-bit equal
results, so dropping any one of the three decode calls fails here.
"""

from __future__ import annotations

import numpy as np
import pytest

from colearn import collective
from colearn.collective import run_collective
from colearn.config import CollectiveSpec, GraphSpec
from colearn.data import Dataset, decode, load_idx, make_partition
from colearn.graph import GraphSchedule
from colearn.learner import (
    Adam, Architecture, Learner, accuracy, init_params, train_epochs,
)

from conftest import FMNIST_NAMES, every_row, synthetic_idx_dataset

# longer than eight 512-row evaluation chunks
M_SOURCE = 4300
ROUND = collective.collective_round


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """{"bytes": (source, test) as loaded, "floats": the same, decoded}."""
    data_dir = tmp_path_factory.mktemp("idx")
    synthetic_idx_dataset(data_dir, m_train=M_SOURCE, m_test=300, seed=21)
    paths = [data_dir / name for name in FMNIST_NAMES]
    loaded = (load_idx(paths[0], paths[1]), load_idx(paths[2], paths[3]))
    assert all(ds.features.dtype == np.uint8 for ds in loaded)
    decoded = tuple(Dataset(decode(every_row(ds.features)), ds.labels, ds.num_classes)
                    for ds in loaded)
    return {"bytes": loaded, "floats": decoded}


def _train(source: Dataset) -> tuple[np.ndarray, Adam]:
    arch = Architecture("HL1", 784, 10, hidden=(12,))
    theta = init_params(arch, seed=3)
    rule = Adam(alpha=0.01)
    train_epochs(arch, theta, rule, source.subset(np.arange(300)), batch_size=10,
                 epochs=2, seed=4)
    return theta, rule


def test_train_epochs_same_bits(corpora):
    got, want = _train(corpora["bytes"][0]), _train(corpora["floats"][0])
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1]._m.tobytes() == want[1]._m.tobytes()
    assert got[1]._v.tobytes() == want[1]._v.tobytes()


def test_accuracy_same_over_several_chunks(corpora):
    models = []
    for i, (kind, hidden) in enumerate([("SHL", ()), ("HL1", (12,)), ("HL2", (10, 8))]):
        arch = Architecture(kind, 784, 10, hidden=hidden)
        theta = init_params(arch, seed=5 + i)
        # output biases of the logits' scale, so that scoring undecoded bytes
        # (255 times the values) ranks the classes differently
        theta[-10:] = np.random.default_rng(6 + i).normal(0.0, 3.0, size=10)
        models.append((arch, theta))
    got = [accuracy([model], corpora["bytes"][0])[0] for model in models]
    want = [accuracy([model], corpora["floats"][0])[0] for model in models]
    assert got == want
    assert len(set(got)) == len(models)  # a mix-up of models would show
    # scoring every model on each decoded chunk gives each its own accuracy
    for source in (corpora["bytes"][0], corpora["floats"][0]):
        assert accuracy(models, source) == got


def _collective(source: Dataset, test: Dataset, monkeypatch):
    part = make_partition(source, 3, 40, 30, seed=7, test=test)
    kinds = [("SHL", ()), ("HL1", (10,)), ("HL2", (10, 8))]
    agents = [
        Learner.create(Architecture(kind, 784, 10, hidden=hidden), seed=10 + i,
                       rule=Adam(alpha=0.01), id=i)
        for i, (kind, hidden) in enumerate(kinds)
    ]
    proxies = []

    def spy(agents, weights, batch_features, *args):
        labels = ROUND(agents, weights, batch_features, *args)
        proxies.append(np.stack(labels))
        return labels

    monkeypatch.setattr(collective, "collective_round", spy)
    config = CollectiveSpec(score_refresh_period=9, review_period=25, gamma=2.0,
                            batch_size=10, epochs_over_shared=1)
    result = run_collective(agents, part, GraphSchedule(GraphSpec(), 3, seed=0), config,
                            seed=8, metric_stride=20, max_iterations=50)
    params = [a.params.tobytes() for a in agents]
    return result.records, np.stack(proxies), params


def test_run_collective_same_bits(corpora, monkeypatch):
    records, proxies, params = _collective(*corpora["bytes"], monkeypatch)
    want_records, want_proxies, want_params = _collective(*corpora["floats"], monkeypatch)
    assert proxies.shape == (50, 3, 10)
    assert records == want_records
    assert proxies.tobytes() == want_proxies.tobytes()
    assert params == want_params
