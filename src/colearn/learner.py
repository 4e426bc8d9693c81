"""Agent-local classifiers: fully-connected softmax networks with exact
backpropagation and pluggable update rules.

Three architectures are supported: SHL (no hidden layer), HL1 (one ReLU
hidden layer of 300 units) and HL2 (two ReLU hidden layers of 500 and 300
units). Parameters live in one flat float64 vector; per-layer weight
matrices and bias vectors are zero-copy views into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from . import _kernels as kernels
from .data import Dataset, shuffled_batches
from .seeding import rng_for

STANDARD_HIDDEN = {"SHL": (), "HL1": (300,), "HL2": (500, 300)}


@dataclass(frozen=True)
class Architecture:
    """Network shape. `hidden` defaults to the standard widths for `kind`;
    tests may override it to keep gradient checks small."""

    kind: str
    input_dim: int
    num_classes: int
    hidden: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in STANDARD_HIDDEN:
            raise ValueError(
                f"unknown architecture kind {self.kind!r}; "
                f"expected one of {sorted(STANDARD_HIDDEN)}"
            )
        if self.input_dim < 1 or self.num_classes < 1:
            raise ValueError("input_dim and num_classes must be >= 1")
        hidden = STANDARD_HIDDEN[self.kind] if self.hidden is None else tuple(self.hidden)
        if any(h < 1 for h in hidden):
            raise ValueError(f"hidden widths must be >= 1, got {hidden}")
        object.__setattr__(self, "hidden", hidden)

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.num_classes)


def param_count(arch: Architecture) -> int:
    dims = arch.layer_dims
    return sum((dims[l] + 1) * dims[l + 1] for l in range(len(dims) - 1))


def param_views(arch: Architecture, theta: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W, b) views into the flat parameter vector (no copies)."""
    if theta.shape != (param_count(arch),):
        raise ValueError(
            f"parameter vector has shape {theta.shape}, expected ({param_count(arch)},)"
        )
    dims = arch.layer_dims
    views = []
    off = 0
    for l in range(len(dims) - 1):
        din, dout = dims[l], dims[l + 1]
        w = theta[off : off + din * dout].reshape(din, dout)
        off += din * dout
        b = theta[off : off + dout]
        off += dout
        views.append((w, b))
    return views


def init_params(arch: Architecture, seed: int) -> np.ndarray:
    """He-uniform hidden layers, Glorot-uniform output layer, zero biases."""
    theta = np.zeros(param_count(arch))
    rng = rng_for(seed, "param-init")
    layers = param_views(arch, theta)
    for l, (w, _) in enumerate(layers):
        din, dout = w.shape
        if l < len(layers) - 1:
            limit = np.sqrt(6.0 / din)
        else:
            limit = np.sqrt(6.0 / (din + dout))
        w[:] = rng.uniform(-limit, limit, size=w.shape)
    return theta


def _as_matrix(x) -> tuple[np.ndarray, bool]:
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    if x.ndim == 1:
        return x.reshape(1, -1), True
    if x.ndim == 2:
        return x, False
    raise ValueError(f"inputs must be 1-D or 2-D, got shape {x.shape}")


def _logits(arch: Architecture, theta: np.ndarray, x_mat: np.ndarray) -> np.ndarray:
    layers = param_views(arch, theta)
    act = x_mat
    for w, b in layers[:-1]:
        act = kernels.relu(act @ w + b)
    w, b = layers[-1]
    return act @ w + b


def forward(arch: Architecture, theta: np.ndarray, x) -> np.ndarray:
    """Class-probability vector(s) for one sample or a batch."""
    x_mat, single = _as_matrix(x)
    if x_mat.shape[1] != arch.input_dim:
        raise ValueError(f"input dimension {x_mat.shape[1]} != {arch.input_dim}")
    probs = kernels.softmax_rows(_logits(arch, theta, x_mat))
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("non-finite activations in forward pass")
    return probs[0] if single else probs


def _check_labels(arch: Architecture, y) -> np.ndarray:
    y = np.ascontiguousarray(np.asarray(y, dtype=np.int64))
    if y.size and (y.min() < 0 or y.max() >= arch.num_classes):
        raise ValueError(f"labels must lie in [0, {arch.num_classes})")
    return y


def loss(arch: Architecture, theta: np.ndarray, x, y) -> float:
    """Mean cross-entropy over the batch."""
    x_mat, _ = _as_matrix(x)
    y = _check_labels(arch, y)
    probs = kernels.softmax_rows(_logits(arch, theta, x_mat))
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("non-finite activations in forward pass")
    return kernels.xent_mean(probs, y)


def grad(arch: Architecture, theta: np.ndarray, x, y, out: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of the mean cross-entropy loss, as a flat vector.

    With `out` (a flat buffer shaped like theta) the gradient is written
    there and `out` is returned; otherwise a new vector is allocated.
    """
    x_mat, _ = _as_matrix(x)
    y = _check_labels(arch, y)
    layers = param_views(arch, theta)

    acts = [x_mat]
    for w, b in layers[:-1]:
        acts.append(kernels.relu(acts[-1] @ w + b))
    w_out, b_out = layers[-1]
    probs = kernels.softmax_rows(acts[-1] @ w_out + b_out)
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("non-finite activations in forward pass")

    g = np.empty_like(theta) if out is None else out
    gviews = param_views(arch, g)
    delta = kernels.dlogits(probs, y)
    for l in range(len(layers) - 1, -1, -1):
        gw, gb = gviews[l]
        np.matmul(acts[l].T, delta, out=gw)
        np.sum(delta, axis=0, out=gb)
        if l > 0:
            delta = kernels.relu_grad(delta @ layers[l][0].T, acts[l])
    return g


@dataclass
class Sgd:
    """Plain stochastic gradient descent with a fixed step size."""

    alpha: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError(f"step size must be positive, got {self.alpha}")

    def apply(self, theta: np.ndarray, g: np.ndarray) -> None:
        kernels.sgd_step(theta, g, self.alpha)


@dataclass
class Adam:
    """Adam with bias correction; moment state is owned per instance and
    persists for the lifetime of the agent."""

    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _m: np.ndarray | None = field(default=None, repr=False)
    _v: np.ndarray | None = field(default=None, repr=False)
    _steps: int = field(default=0, repr=False)

    def __post_init__(self):
        if self.alpha <= 0.0 or self.eps <= 0.0:
            raise ValueError("alpha and eps must be positive")
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in (0, 1)")

    def apply(self, theta: np.ndarray, g: np.ndarray) -> None:
        if self._m is None:
            self._m = np.zeros_like(theta)
            self._v = np.zeros_like(theta)
        if self._m.shape != theta.shape:
            raise ValueError("update-rule state does not match parameter shape")
        self._steps += 1
        kernels.adam_step(
            theta, g, self._m, self._v, self._steps,
            self.alpha, self.beta1, self.beta2, self.eps,
        )


UpdateRule = Union[Sgd, Adam]


def apply_update(rule: UpdateRule, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Advance theta in place by one step of the rule; returns theta."""
    if theta.shape != g.shape:
        raise ValueError(f"gradient shape {g.shape} does not match params {theta.shape}")
    rule.apply(theta, g)
    return theta


def _as_xy(train_set) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(train_set, Dataset):
        if train_set.labels is None:
            raise ValueError("training set must be labeled")
        return train_set.features, train_set.labels
    x, y = train_set
    return np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.int64)


def train_epochs(
    arch: Architecture,
    theta: np.ndarray,
    rule: UpdateRule,
    train_set,
    batch_size: int,
    epochs: int,
    seed: int,
    *,
    max_updates: int | None = None,
    on_step: Callable[[int], None] | None = None,
    grad_buf: np.ndarray | None = None,
) -> np.ndarray:
    """Shuffled mini-batch passes over a labeled set; updates theta in place.

    This is the one supervised training loop: self-training, the baselines
    and the review epochs of the collective phase all run through it.
    `train_set` is a labeled Dataset or an (X, y) pair. With epochs=0 or
    max_updates=0 the parameters are returned unchanged; otherwise training
    stops after `max_updates` steps when given. `on_step(step)` is called
    after each update with the 1-based step count. `grad_buf`, a flat
    scratch at least as long as theta, receives each gradient in its head;
    without it one is allocated for the call.
    """
    if epochs < 0:
        raise ValueError(f"epochs must be >= 0, got {epochs}")
    if max_updates is not None and max_updates < 0:
        raise ValueError(f"max_updates must be >= 0, got {max_updates}")
    x, y = _as_xy(train_set)
    g = np.empty_like(theta) if grad_buf is None else grad_buf[: theta.size]
    step = 0
    for e in range(epochs):
        for idx in shuffled_batches(x.shape[0], batch_size, rng_for(seed, "train-epoch", e)):
            if step == max_updates:
                return theta
            grad(arch, theta, x[idx], y[idx], out=g)
            apply_update(rule, theta, g)
            step += 1
            if on_step is not None:
                on_step(step)
    return theta


def accuracy(arch: Architecture, theta: np.ndarray, eval_set, chunk: int = 4096) -> float:
    """Fraction of samples whose argmax prediction matches the label.

    Argmax ties break toward the lowest class index. Evaluation is chunked
    so large test sets do not allocate the full logits matrix at once.
    """
    x, y = _as_xy(eval_set)
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate accuracy on an empty set")
    correct = 0
    for s in range(0, x.shape[0], chunk):
        logits = _logits(arch, theta, np.ascontiguousarray(x[s : s + chunk]))
        correct += int((kernels.argmax_rows(logits) == y[s : s + chunk]).sum())
    return correct / x.shape[0]


@dataclass
class Learner:
    """An agent's classifier: architecture, flat parameters, update rule."""

    arch: Architecture
    params: np.ndarray
    rule: UpdateRule

    @classmethod
    def create(cls, arch: Architecture, seed: int, rule: UpdateRule | None = None) -> "Learner":
        return cls(arch=arch, params=init_params(arch, seed), rule=rule or Adam())

    def predict_proba(self, x) -> np.ndarray:
        return forward(self.arch, self.params, x)

    def loss(self, x, y) -> float:
        return loss(self.arch, self.params, x, y)

    def train(self, train_set, batch_size: int, epochs: int, seed: int) -> None:
        train_epochs(self.arch, self.params, self.rule, train_set, batch_size, epochs, seed)

    def accuracy(self, eval_set) -> float:
        return accuracy(self.arch, self.params, eval_set)

