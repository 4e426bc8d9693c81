"""Hot numeric kernels, in plain numpy.

Layer matmuls go through BLAS; the kernels here cover the elementwise-heavy
work: activations, softmax cross-entropy, optimizer steps and prediction
fusion.

The optimizer steps (SGD, Adam) update their arrays in place and walk the
parameter vector in cache-sized blocks, writing every intermediate into a
small reused scratch buffer instead of allocating parameter-sized
temporaries. Each element still goes through the same correctly rounded
operations in the same order as the textbook one-line expression, so the
results are bit for bit those of that expression.

All kernels expect C-contiguous float64 arrays (labels int64); reductions
accumulate in a fixed order, so results are reproducible run to run.
"""

from __future__ import annotations

import threading

import numpy as np

# Probabilities are clamped here before log to avoid -inf loss on confident
# wrong predictions.
PROB_FLOOR = 1e-12

# Elements per block of the optimizer steps: 512 KB per float64 array, so a
# block's operands stay in a 2 MB L2 cache between ufunc calls.
_BLOCK = 65536

# Per-thread scratch of the optimizer steps: two block-sized rows, allocated
# on a thread's first step and reused by all its later ones. Per thread, so
# that steps running in different threads never share it.
_scratch = threading.local()


def relu(z: np.ndarray) -> np.ndarray:
    # in place: callers pass a fresh pre-activation that nothing else holds
    return np.maximum(z, 0.0, out=z)


def relu_grad(upstream: np.ndarray, activated: np.ndarray) -> np.ndarray:
    # activated = relu(z), so activated > 0 iff z > 0
    return np.where(activated > 0.0, upstream, 0.0)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=1, keepdims=True)
    return shifted


def xent_mean(probs: np.ndarray, labels: np.ndarray) -> float:
    picked = probs[np.arange(labels.shape[0]), labels]
    return float(-np.log(np.maximum(picked, PROB_FLOOR)).mean())


def dlogits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
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


def sgd_step(theta: np.ndarray, grad: np.ndarray, alpha: float) -> None:
    # theta -= alpha * grad, one block at a time
    n = theta.shape[0]
    tmp = _scratch_rows(theta.dtype)[0]
    for s in range(0, n, _BLOCK):
        e = min(s + _BLOCK, n)
        t = tmp[: e - s]
        np.multiply(alpha, grad[s:e], out=t)
        theta[s:e] -= t


def adam_step(theta, grad, m, v, step, alpha, beta1, beta2, eps) -> None:
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


def fuse_rows(stacked: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # weighted sum over senders, ascending sender index (fixed order)
    out = np.zeros((stacked.shape[1], stacked.shape[2]))
    for j in range(stacked.shape[0]):
        out += weights[j] * stacked[j]
    return out


def argmax_rows(mat: np.ndarray) -> np.ndarray:
    # np.argmax returns the first maximum: lowest-index tie-break
    return np.argmax(mat, axis=1)
