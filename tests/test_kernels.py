"""Backend equivalence and numerical behavior of the hot kernels."""

import tracemalloc

import numpy as np
import pytest

from colearn import _kernels as kernels

HAVE_NUMBA = "numba" in kernels.available_backends()
needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba backend unavailable")


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def _impls(name):
    np_impl = kernels.backend_impls("numpy")[name]
    nb_impl = kernels.backend_impls("numba")[name]
    return np_impl, nb_impl


def test_backend_selection_roundtrip():
    original = kernels.active_backend()
    try:
        kernels.set_backend("numpy")
        assert kernels.active_backend() == "numpy"
        if HAVE_NUMBA:
            kernels.set_backend("numba")
            assert kernels.active_backend() == "numba"
    finally:
        kernels.set_backend(original)
    with pytest.raises(ValueError):
        kernels.set_backend("fortran")


@needs_numba
def test_relu_and_grad_match(rng):
    z = rng.standard_normal((17, 23))
    up = rng.standard_normal((17, 23))
    np_relu, nb_relu = _impls("relu")
    assert np.array_equal(np_relu(z), nb_relu(z))
    act = np_relu(z)
    np_rg, nb_rg = _impls("relu_grad")
    assert np.array_equal(np_rg(up, act), nb_rg(up, act))


@needs_numba
def test_softmax_and_xent_match(rng):
    logits = rng.standard_normal((31, 10)) * 15.0
    labels = rng.integers(0, 10, size=31)
    np_sm, nb_sm = _impls("softmax_rows")
    p_np, p_nb = np_sm(logits), nb_sm(logits)
    # summation order differs between the paths; agreement is to rounding
    assert np.allclose(p_np, p_nb, rtol=1e-12, atol=1e-15)
    np_xe, nb_xe = _impls("xent_mean")
    assert np_xe(p_np, labels) == pytest.approx(nb_xe(p_np, labels), rel=1e-12)


@needs_numba
def test_dlogits_match(rng):
    probs = kernels.backend_impls("numpy")["softmax_rows"](rng.standard_normal((12, 7)))
    labels = rng.integers(0, 7, size=12)
    np_dl, nb_dl = _impls("dlogits")
    assert np.array_equal(np_dl(probs, labels), nb_dl(probs, labels))


@needs_numba
def test_optimizer_steps_match(rng):
    theta = rng.standard_normal(5000)
    g = rng.standard_normal(5000)
    np_sgd, nb_sgd = _impls("sgd_step")
    t1, t2 = theta.copy(), theta.copy()
    np_sgd(t1, g, 0.05)
    nb_sgd(t2, g, 0.05)
    assert np.array_equal(t1, t2)

    np_adam, nb_adam = _impls("adam_step")
    t1, t2 = theta.copy(), theta.copy()
    m1, v1, m2, v2 = (np.zeros(5000) for _ in range(4))
    for step in (1, 2, 3):
        np_adam(t1, g, m1, v1, step, 1e-3, 0.9, 0.999, 1e-8)
        nb_adam(t2, g, m2, v2, step, 1e-3, 0.9, 0.999, 1e-8)
    assert np.allclose(t1, t2, rtol=1e-15, atol=0)
    assert np.allclose(m1, m2, rtol=1e-15, atol=0)


@needs_numba
def test_fuse_and_argmax_match(rng):
    stacked = rng.random((9, 14, 6))
    w = rng.random(9)
    np_fuse, nb_fuse = _impls("fuse_rows")
    assert np.allclose(np_fuse(stacked, w), nb_fuse(stacked, w), rtol=1e-14, atol=0)
    mat = rng.standard_normal((40, 8))
    mat[5] = mat[5, 0]  # force a full-row tie
    np_am, nb_am = _impls("argmax_rows")
    assert np.array_equal(np_am(mat), nb_am(mat))
    assert np_am(mat)[5] == 0


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_argmax_tie_break_lowest_index(backend):
    impl = kernels.backend_impls(backend)["argmax_rows"]
    mat = np.array([[0.5, 0.5, 0.1], [0.2, 0.3, 0.3], [1.0, 1.0, 1.0]])
    assert impl(mat).tolist() == [0, 1, 0]


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_xent_clamps_zero_probability(backend):
    impl = kernels.backend_impls(backend)["xent_mean"]
    probs = np.array([[1.0, 0.0]])
    labels = np.array([1], dtype=np.int64)
    assert impl(probs, labels) == pytest.approx(-np.log(kernels.PROB_FLOOR))


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_softmax_is_stable_at_large_logits(backend):
    impl = kernels.backend_impls(backend)["softmax_rows"]
    probs = impl(np.array([[1000.0, 0.0], [-1000.0, -1002.0]]))
    assert np.all(np.isfinite(probs))
    assert np.allclose(probs.sum(axis=1), 1.0)


# --- the numpy optimizer steps against their textbook expressions ------------


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
    adam = kernels.backend_impls("numpy")["adam_step"]
    theta = rng.standard_normal(n)
    t_ref, m_ref, v_ref = theta.copy(), np.zeros(n), np.zeros(n)
    t, m, v = theta.copy(), np.zeros(n), np.zeros(n)
    for step in range(1, 5):
        g = rng.standard_normal(n) * 10.0 ** rng.integers(-6, 3, size=n)
        _adam_textbook(t_ref, g, m_ref, v_ref, step, 3e-3, 0.9, 0.999, 1e-8)
        adam(t, g, m, v, step, 3e-3, 0.9, 0.999, 1e-8)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(m, m_ref)
        assert np.array_equal(v, v_ref)


@pytest.mark.parametrize("n", STEP_SIZES)
def test_numpy_sgd_step_is_textbook_bit_for_bit(n, rng):
    sgd = kernels.backend_impls("numpy")["sgd_step"]
    theta = rng.standard_normal(n)
    ref, got = theta.copy(), theta.copy()
    for _ in range(3):
        g = rng.standard_normal(n)
        ref -= 0.05 * g
        sgd(got, g, 0.05)
        assert np.array_equal(ref, got)


@pytest.mark.parametrize("name", ["adam_step", "sgd_step"])
def test_numpy_optimizer_step_allocates_nothing_parameter_sized(name):
    impl = kernels.backend_impls("numpy")[name]
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
