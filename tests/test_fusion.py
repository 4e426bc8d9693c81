"""Fusion of a whole round in one pass against the per-agent fusion it
replaced, over generated rounds (needs hypothesis)."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from colearn import _kernels as kernels
from colearn.collective import fuse_and_label
from colearn.graph import DirectedGraph, build_weight_matrix_log


def _fuse_one_agent(predictions, weight_row):
    """The per-agent fusion the batched pass replaced, transcribed: for
    senders in ascending id order, out += w[sender] * predictions[sender]."""
    out = np.zeros(predictions.shape[1:])
    for sender, preds in enumerate(predictions):
        out += weight_row[sender] * preds
    return out


@st.composite
def fusion_rounds(draw):
    """A round's predictions, in agent order, and a weight matrix: random,
    one-hot or tied predictions; row-stochastic weights with zero entries,
    one-hot rows, or log-space weights from scores exp(1000 * accuracy) with
    accuracies at and just below 1.0."""
    n = draw(st.integers(1, 6))
    batch = draw(st.integers(1, 4))
    classes = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["random", "one-hot", "ties"]))
    if kind == "random":
        preds = rng.random((n, batch, classes))
        preds /= preds.sum(axis=2, keepdims=True)
    elif kind == "one-hot":
        preds = np.eye(classes)[rng.integers(0, classes, (n, batch))]
    else:  # few distinct values, so fused classes tie exactly
        preds = rng.choice([0.0, 0.25, 0.5], (n, batch, classes))
    weighting = draw(st.sampled_from(["zeros", "one-hot", "log-space"]))
    if weighting == "zeros":
        w = rng.random((n, n)) * (rng.random((n, n)) < 0.5)
        w[np.arange(n), np.arange(n)] += 0.1
        w /= w.sum(axis=1, keepdims=True)
    elif weighting == "one-hot":
        w = np.eye(n)[rng.integers(0, n, n)]
    else:
        edges = [(j, i) for i in range(n) for j in range(n) if i != j and rng.random() < 0.6]
        accuracy = 1.0 - rng.integers(0, 3, n) / 1000.0
        w = build_weight_matrix_log(DirectedGraph.from_edges(n, edges), 1000.0 * accuracy)
    return preds, w


@settings(max_examples=200, deadline=None)
@given(fusion_rounds())
def test_batched_matches_per_agent_fusion(round_):
    preds, w = round_
    fused = kernels.fuse_rows(preds, w)
    labels = fuse_and_label(preds, w)
    assert labels.shape == (w.shape[0], preds.shape[1])
    for i in range(w.shape[0]):
        want = _fuse_one_agent(preds, w[i])
        assert fused[i].tobytes() == want.tobytes()
        assert labels[i].tobytes() == np.argmax(want, axis=1).tobytes()
        assert labels[i].tobytes() == fuse_and_label(preds, w[i:i + 1])[0].tobytes()
