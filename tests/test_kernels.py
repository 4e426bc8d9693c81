"""Numerical behavior of the hot kernels."""

import tracemalloc

import numpy as np
import pytest

from colearn import _kernels as kernels


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def test_argmax_tie_break_lowest_index():
    mat = np.array([[0.5, 0.5, 0.1], [0.2, 0.3, 0.3], [1.0, 1.0, 1.0]])
    assert kernels.argmax_rows(mat).tolist() == [0, 1, 0]


def test_xent_clamps_zero_probability():
    probs = np.array([[1.0, 0.0]])
    labels = np.array([1], dtype=np.int64)
    assert kernels.xent_mean(probs, labels) == pytest.approx(-np.log(kernels.PROB_FLOOR))


def test_relu_dlogits_and_fuse_by_hand():
    z = np.array([[-1.0, 0.0, 2.5]])
    act = kernels.relu(z)
    assert act.tolist() == [[0.0, 0.0, 2.5]]
    assert kernels.relu_grad(np.array([[4.0, 5.0, 6.0]]), act).tolist() == [[0.0, 0.0, 6.0]]
    probs = np.array([[0.25, 0.75], [0.5, 0.5]])
    # (p - onehot(y)) / batch
    assert kernels.dlogits(probs, np.array([1, 0])).tolist() == [[0.125, -0.125], [-0.25, 0.25]]
    stacked = np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[0.5, 0.5]]])
    assert kernels.fuse_rows(stacked, np.array([0.5, 0.25, 0.25])).tolist() == [[0.625, 0.375]]


def test_softmax_is_stable_at_large_logits():
    probs = kernels.softmax_rows(np.array([[1000.0, 0.0], [-1000.0, -1002.0]]))
    assert np.all(np.isfinite(probs))
    assert np.allclose(probs.sum(axis=1), 1.0)


# --- the optimizer steps against their textbook expressions ------------------


def _adam_textbook(theta, grad, m, v, step, alpha, beta1, beta2, eps):
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * (grad * grad)
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    theta -= alpha * (m / bc1) / (np.sqrt(v / bc2) + eps)


# below one block, exactly one block, and a ragged multi-block tail
STEP_SIZES = [1, 1000, kernels._BLOCK, 2 * kernels._BLOCK + 123]


@pytest.mark.parametrize("n", STEP_SIZES)
def test_numpy_adam_step_is_textbook_bit_for_bit(n, rng):
    theta = rng.standard_normal(n)
    t_ref, m_ref, v_ref = theta.copy(), np.zeros(n), np.zeros(n)
    t, m, v = theta.copy(), np.zeros(n), np.zeros(n)
    for step in range(1, 5):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, size=n)
        _adam_textbook(t_ref, g, m_ref, v_ref, step, 3e-3, 0.9, 0.999, 1e-8)
        kernels.adam_step(t, g, m, v, step, 3e-3, 0.9, 0.999, 1e-8)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(m, m_ref)
        assert np.array_equal(v, v_ref)


@pytest.mark.parametrize("n", STEP_SIZES)
def test_numpy_sgd_step_is_textbook_bit_for_bit(n, rng):
    theta = rng.standard_normal(n)
    ref, got = theta.copy(), theta.copy()
    for _ in range(3):
        g = rng.standard_normal(n)
        ref -= 0.05 * g
        kernels.sgd_step(got, g, 0.05)
        assert np.array_equal(ref, got)


@pytest.mark.parametrize("name", ["adam_step", "sgd_step"])
def test_numpy_optimizer_step_allocates_nothing_parameter_sized(name):
    impl = getattr(kernels, name)
    n = 1_000_003
    theta, g, m, v = np.ones(n), np.full(n, 0.5), np.zeros(n), np.zeros(n)
    args = (theta, g, m, v, 1, 1e-3, 0.9, 0.999, 1e-8) if name == "adam_step" else (theta, g, 1e-3)
    # the first step of a thread allocates the block-sized scratch it reuses
    impl(*args)
    tracemalloc.start()
    try:
        impl(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # one parameter-sized float64 temporary is 8 MB
