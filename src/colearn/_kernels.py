"""Hot numeric kernels with a numba-compiled path and a pure-numpy fallback.

Layer matmuls go through BLAS on both paths; the kernels here cover the
elementwise-heavy work (activations, softmax cross-entropy, optimizer steps,
prediction fusion) where loop fusion pays off at small batch sizes.

The numpy optimizer steps (SGD, Adam) update their arrays in place and walk
the parameter vector in cache-sized blocks, writing every intermediate into
a small reused scratch buffer instead of allocating parameter-sized
temporaries. Each element still goes through the same correctly rounded
operations in the same order as the textbook one-line expression, so the
results are bit for bit those of that expression.

Backend selection: the environment variable COLEARN_NUMBA set to one of
"0", "false", "off", "no" forces the numpy path; the default is numba
whenever it imports. `set_backend()` switches at runtime. All kernels
expect C-contiguous float64 arrays (labels int64); reductions accumulate in
a fixed order, so results are reproducible within a backend.
"""

from __future__ import annotations

import os
import threading

import numpy as np

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised only without numba
    NUMBA_AVAILABLE = False

# Probabilities are clamped here before log to avoid -inf loss on confident
# wrong predictions.
PROB_FLOOR = 1e-12

# Elements per block of the numpy optimizer steps: 512 KB per float64 array,
# so a block's operands stay in a 2 MB L2 cache between ufunc calls.
_BLOCK = 65536

# Per-thread scratch of the optimizer steps: two block-sized rows, allocated
# on a thread's first step and reused by all its later ones. Per thread, so
# that steps running in different threads never share it.
_scratch = threading.local()


# ---------------------------------------------------------------------------
# pure numpy implementations
# ---------------------------------------------------------------------------


def _relu_numpy(z):
    return np.maximum(z, 0.0)


def _relu_grad_numpy(upstream, activated):
    # activated = relu(z), so activated > 0 iff z > 0
    return np.where(activated > 0.0, upstream, 0.0)


def _softmax_rows_numpy(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=1, keepdims=True)
    return shifted


def _xent_mean_numpy(probs, labels):
    picked = probs[np.arange(labels.shape[0]), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def _dlogits_numpy(probs, labels):
    # gradient of mean cross-entropy w.r.t. logits: (p - onehot(y)) / batch
    b = labels.shape[0]
    d = probs.copy()
    d[np.arange(b), labels] -= 1.0
    d /= b
    return d


def _scratch_rows(dtype):
    buf = getattr(_scratch, "rows", None)
    if buf is None or buf.dtype != dtype:
        buf = _scratch.rows = np.empty((2, _BLOCK), dtype)
    return buf


def _sgd_step_numpy(theta, grad, alpha):
    # theta -= alpha * grad, one block at a time
    n = theta.shape[0]
    tmp = _scratch_rows(theta.dtype)[0]
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        t = tmp[: e - s]
        np.multiply(alpha, grad[s:e], out=t)
        theta[s:e] -= t


def _adam_step_numpy(theta, grad, m, v, step, alpha, beta1, beta2, eps):
    # theta -= alpha * (m / bc1) / (np.sqrt(v / bc2) + eps) after the moment
    # updates, one block at a time. Each element meets the same operations in
    # the same order as in that one-line expression, which keeps the bits.
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    n = theta.shape[0]
    rows = _scratch_rows(theta.dtype)
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        num, den = rows[0, : e - s], rows[1, : e - s]
        g, mb, vb = grad[s:e], m[s:e], v[s:e]
        mb *= beta1
        np.multiply(1.0 - beta1, g, out=num)
        mb += num
        np.square(g, out=num)  # g * g, through the faster one-input loop
        np.multiply(1.0 - beta2, num, out=num)
        vb *= beta2
        vb += num
        np.divide(mb, bc1, out=num)
        np.multiply(alpha, num, out=num)
        np.divide(vb, bc2, out=den)
        np.sqrt(den, out=den)
        den += eps
        num /= den
        theta[s:e] -= num


def _fuse_rows_numpy(stacked, weights):
    # weighted sum over senders, ascending sender index (fixed order)
    out = np.zeros((stacked.shape[1], stacked.shape[2]))
    for j in range(stacked.shape[0]):
        out += weights[j] * stacked[j]
    return out


def _argmax_rows_numpy(mat):
    # np.argmax returns the first maximum: lowest-index tie-break
    return np.argmax(mat, axis=1)


_NUMPY_IMPLS = {
    "relu": _relu_numpy,
    "relu_grad": _relu_grad_numpy,
    "softmax_rows": _softmax_rows_numpy,
    "xent_mean": _xent_mean_numpy,
    "dlogits": _dlogits_numpy,
    "sgd_step": _sgd_step_numpy,
    "adam_step": _adam_step_numpy,
    "fuse_rows": _fuse_rows_numpy,
    "argmax_rows": _argmax_rows_numpy,
}


# ---------------------------------------------------------------------------
# numba implementations
# ---------------------------------------------------------------------------

if NUMBA_AVAILABLE:

    @njit(cache=True)
    def _relu_nb(z):
        out = np.empty_like(z)
        for i in range(z.shape[0]):
            for j in range(z.shape[1]):
                v = z[i, j]
                out[i, j] = v if v > 0.0 else 0.0
        return out

    @njit(cache=True)
    def _relu_grad_nb(upstream, activated):
        out = np.empty_like(upstream)
        for i in range(upstream.shape[0]):
            for j in range(upstream.shape[1]):
                out[i, j] = upstream[i, j] if activated[i, j] > 0.0 else 0.0
        return out

    @njit(cache=True)
    def _softmax_rows_nb(logits):
        out = np.empty_like(logits)
        for i in range(logits.shape[0]):
            hi = logits[i, 0]
            for j in range(1, logits.shape[1]):
                if logits[i, j] > hi:
                    hi = logits[i, j]
            total = 0.0
            for j in range(logits.shape[1]):
                e = np.exp(logits[i, j] - hi)
                out[i, j] = e
                total += e
            for j in range(logits.shape[1]):
                out[i, j] /= total
        return out

    @njit(cache=True)
    def _xent_mean_nb(probs, labels):
        total = 0.0
        for i in range(labels.shape[0]):
            p = probs[i, labels[i]]
            if p < PROB_FLOOR:
                p = PROB_FLOOR
            total += -np.log(p)
        return total / labels.shape[0]

    @njit(cache=True)
    def _dlogits_nb(probs, labels):
        b = labels.shape[0]
        out = np.empty_like(probs)
        for i in range(b):
            for j in range(probs.shape[1]):
                d = probs[i, j]
                if j == labels[i]:
                    d -= 1.0
                out[i, j] = d / b
        return out

    @njit(cache=True)
    def _sgd_step_nb(theta, grad, alpha):
        for i in range(theta.shape[0]):
            theta[i] -= alpha * grad[i]

    @njit(cache=True)
    def _adam_step_nb(theta, grad, m, v, step, alpha, beta1, beta2, eps):
        bc1 = 1.0 - beta1**step
        bc2 = 1.0 - beta2**step
        for i in range(theta.shape[0]):
            m[i] = beta1 * m[i] + (1.0 - beta1) * grad[i]
            v[i] = beta2 * v[i] + (1.0 - beta2) * (grad[i] * grad[i])
            theta[i] -= alpha * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)

    @njit(cache=True)
    def _fuse_rows_nb(stacked, weights):
        out = np.zeros((stacked.shape[1], stacked.shape[2]))
        for j in range(stacked.shape[0]):
            w = weights[j]
            for r in range(stacked.shape[1]):
                for c in range(stacked.shape[2]):
                    out[r, c] += w * stacked[j, r, c]
        return out

    @njit(cache=True)
    def _argmax_rows_nb(mat):
        out = np.empty(mat.shape[0], dtype=np.int64)
        for i in range(mat.shape[0]):
            best = 0
            hi = mat[i, 0]
            for j in range(1, mat.shape[1]):
                if mat[i, j] > hi:  # strict: first maximum wins
                    hi = mat[i, j]
                    best = j
            out[i] = best
        return out

    _NUMBA_IMPLS = {
        "relu": _relu_nb,
        "relu_grad": _relu_grad_nb,
        "softmax_rows": _softmax_rows_nb,
        "xent_mean": _xent_mean_nb,
        "dlogits": _dlogits_nb,
        "sgd_step": _sgd_step_nb,
        "adam_step": _adam_step_nb,
        "fuse_rows": _fuse_rows_nb,
        "argmax_rows": _argmax_rows_nb,
    }
else:
    _NUMBA_IMPLS = None


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

_BACKENDS = {"numpy": _NUMPY_IMPLS}
if _NUMBA_IMPLS is not None:
    _BACKENDS["numba"] = _NUMBA_IMPLS

_active = dict(_NUMPY_IMPLS)
_active_name = "numpy"


def available_backends() -> tuple[str, ...]:
    return tuple(sorted(_BACKENDS))


def active_backend() -> str:
    return _active_name


def set_backend(name: str) -> None:
    """Route all kernel calls through the named backend ("numpy"/"numba")."""
    global _active, _active_name
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; available: {available_backends()}")
    _active = dict(_BACKENDS[name])
    _active_name = name


def backend_impls(name: str) -> dict:
    """Direct access to one backend's kernel table (used by the kernel tests)."""
    if name not in _BACKENDS:
        raise ValueError(f"unknown backend {name!r}; available: {available_backends()}")
    return dict(_BACKENDS[name])


def _env_wants_numba() -> bool:
    flag = os.environ.get("COLEARN_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


if NUMBA_AVAILABLE and _env_wants_numba():
    set_backend("numba")


# ---------------------------------------------------------------------------
# public kernel surface (dispatches through the active backend)
# ---------------------------------------------------------------------------


def relu(z: np.ndarray) -> np.ndarray:
    return _active["relu"](z)


def relu_grad(upstream: np.ndarray, activated: np.ndarray) -> np.ndarray:
    return _active["relu_grad"](upstream, activated)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    return _active["softmax_rows"](logits)


def xent_mean(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(_active["xent_mean"](probs, labels))


def dlogits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    return _active["dlogits"](probs, labels)


def sgd_step(theta: np.ndarray, grad: np.ndarray, alpha: float) -> None:
    _active["sgd_step"](theta, grad, alpha)


def adam_step(theta, grad, m, v, step, alpha, beta1, beta2, eps) -> None:
    _active["adam_step"](theta, grad, m, v, step, alpha, beta1, beta2, eps)


def fuse_rows(stacked: np.ndarray, weights: np.ndarray) -> np.ndarray:
    return _active["fuse_rows"](stacked, weights)


def argmax_rows(mat: np.ndarray) -> np.ndarray:
    return _active["argmax_rows"](mat)
