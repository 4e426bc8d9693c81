"""Agent-local classifiers: fully-connected softmax networks with exact
backpropagation and pluggable update rules.

Three architectures are supported: SHL (no hidden layer), HL1 (one ReLU
hidden layer of 300 units) and HL2 (two ReLU hidden layers of 500 and 300
units). Parameters live in one flat float64 vector; per-layer weight
matrices and bias vectors are zero-copy views into it.

There is one layer loop, `_activations`: prediction, gradient and
evaluation all run through it. A gradient is a `forward_pass` plus
`backprop` through that pass's activations, so a caller that has already
predicted on a batch backpropagates from the same pass.

Evaluation counts the rows whose argmax logit of a float64 pass over their
EVAL_CHUNK chunk matches the label, but mostly computes in float32: each
chunk is scored in float32 first, with a proven bound on each logit's
distance from exact arithmetic on the float64 inputs and parameters
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, section 3.1).
A row whose top logit beats every other by more than their bounds is
counted from the float32 pass; the rows left open are scored again in
float64 under the same kind of bound, and only a row still open there (a
near tie, or a non-finite value) is settled by the float64 pass over its
whole chunk. The counts are those of that chunk pass on every row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from . import _kernels as kernels
from .data import Dataset, as_features, decode, shuffled_batches
from .parallel import AgentPool
from .seeding import rng_for

STANDARD_HIDDEN = {"SHL": (), "HL1": (300,), "HL2": (500, 300)}
# Rows per evaluation chunk. The float64 pass that settles near ties runs
# over a whole chunk, and its bits may depend on the chunk's rows, so the
# chunk is fixed; the float32 screening and the float64 rescoring give the
# same counts at any chunk size.
EVAL_CHUNK = 1024


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
    views, off = [], 0
    for din, dout in zip(dims, dims[1:]):
        w = theta[off : off + din * dout].reshape(din, dout)
        b = theta[off + din * dout : off + (din + 1) * dout]
        off += (din + 1) * dout
        views.append((w, b))
    return views


def init_params(arch: Architecture, seed: int) -> np.ndarray:
    """He-uniform hidden layers, Glorot-uniform output layer, zero biases."""
    theta = np.zeros(param_count(arch))
    rng = rng_for(seed, "param-init")
    layers = param_views(arch, theta)
    for l, (w, _) in enumerate(layers):
        din, dout = w.shape
        limit = np.sqrt(6.0 / din) if l < len(layers) - 1 else np.sqrt(6.0 / (din + dout))
        w[:] = rng.uniform(-limit, limit, size=w.shape)
    return theta


def _as_matrix(x) -> np.ndarray:
    x = np.asarray(x)
    if x.dtype == np.uint8:
        raise TypeError(
            "inputs are uint8 pixel bytes; scale them with colearn.data.decode first"
        )
    x = np.ascontiguousarray(x, dtype=np.float64)
    if x.ndim not in (1, 2):
        raise ValueError(f"inputs must be 1-D or 2-D, got shape {x.shape}")
    return np.atleast_2d(x)


def _activations(arch: Architecture, theta: np.ndarray, x_mat: np.ndarray) -> list[np.ndarray]:
    """The one layer loop: each layer's input, then the output logits, in
    x_mat's dtype (float64, or float32 with the parameters rounded to it)."""
    if x_mat.shape[1] != arch.input_dim:
        raise ValueError(f"input dimension {x_mat.shape[1]} != {arch.input_dim}")
    layers = param_views(arch, theta)
    acts = [x_mat]
    for l, (w, b) in enumerate(layers):
        z = acts[-1] @ w.astype(x_mat.dtype, copy=False)
        # in place: one new array per layer, with the bits of `acts[-1] @ w + b`
        z += b.astype(x_mat.dtype, copy=False)
        acts.append(kernels.relu(z) if l < len(layers) - 1 else z)
    return acts


def forward_pass(arch: Architecture, theta: np.ndarray, x) -> tuple[list[np.ndarray], np.ndarray]:
    """One forward pass over a batch: its activations (each layer's input,
    then the logits) and its class probabilities. `backprop` takes both, so
    one pass serves a prediction and the gradient step that follows it."""
    acts = _activations(arch, theta, _as_matrix(x))
    probs = kernels.softmax_rows(acts[-1])
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("non-finite activations in forward pass")
    return acts, probs


def forward(arch: Architecture, theta: np.ndarray, x) -> np.ndarray:
    """Class-probability vector(s) for one sample or a batch."""
    probs = forward_pass(arch, theta, x)[1]
    return probs[0] if np.ndim(x) == 1 else probs


def _check_labels(arch: Architecture, y) -> np.ndarray:
    y = np.ascontiguousarray(np.asarray(y, dtype=np.int64))
    if y.size and (y.min() < 0 or y.max() >= arch.num_classes):
        raise ValueError(f"labels must lie in [0, {arch.num_classes})")
    return y


def backprop(arch: Architecture, theta: np.ndarray, acts: list[np.ndarray], probs: np.ndarray,
             y, out: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of the mean cross-entropy of labels `y`, as a flat
    vector, backpropagated through a `forward_pass` at these parameters.

    With `out` (a flat buffer shaped like theta) the gradient is written
    there and `out` is returned; otherwise a new vector is allocated.
    """
    y = _check_labels(arch, y)
    layers = param_views(arch, theta)
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


def grad(arch: Architecture, theta: np.ndarray, x, y, out: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of the mean cross-entropy loss on a batch: one forward
    pass and its `backprop` (`out` as there)."""
    return backprop(arch, theta, *forward_pass(arch, theta, x), y, out)


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
            self._m, self._v = np.zeros_like(theta), np.zeros_like(theta)
        if self._m.shape != theta.shape:
            raise ValueError("update-rule state does not match parameter shape")
        self._steps += 1
        kernels.adam_step(theta, g, self._m, self._v, self._steps,
                          self.alpha, self.beta1, self.beta2, self.eps)


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
    return as_features(x), np.asarray(y, dtype=np.int64)


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
    `train_set` is a labeled Dataset or an (X, y) pair; uint8 features are
    decoded one minibatch at a time. With epochs=0 or max_updates=0 the
    parameters are returned unchanged; otherwise training stops after
    `max_updates` steps when given. `on_step(step)` is called
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
            grad(arch, theta, decode(x[idx]), y[idx], out=g)
            apply_update(rule, theta, g)
            step += 1
            if on_step is not None:
                on_step(step)
    return theta


def _gamma(n: int, u: float) -> float:
    """gamma_n = nu / (1 - nu): the relative error bound of an n-term dot
    product or sum computed in unit roundoff u, in any order."""
    return n * u / (1.0 - n * u)


def _norm_up(sq, n: int, dtype=np.float64):
    """Upper bounds on the 2-norms of n-element vectors whose sums of squares
    were computed in `dtype` as `sq`: the factor covers the rounding of the
    squares and the sum, and of the float64 root and this expression; the
    added term covers squares that underflowed."""
    finfo = np.finfo(dtype)
    return ((np.sqrt(np.asarray(sq, dtype=np.float64)) + np.sqrt(n * float(finfo.tiny)))
            * (1.0 + 2.0 * _gamma(n + 2, float(finfo.eps) / 2.0)))


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Upper bounds on the 2-norm of each row of `a`, summed in its dtype."""
    return _norm_up(np.einsum("ij,ij->i", a, a), a.shape[1], a.dtype)


def _weight_norms(arch: Architecture, theta: np.ndarray) -> list[tuple]:
    """Per layer, upper bounds on the 2-norm of each weight column, the
    Frobenius norm of the weights and the 2-norm of the bias, and |bias|."""
    norms = []
    for w, b in param_views(arch, theta):
        n, dout = w.shape
        col = np.einsum("ij,ij->j", w, w)
        norms.append((_norm_up(col, n), _norm_up(col.sum(), (n + 1) * dout),
                      _norm_up(b @ b, dout), np.abs(b)))
    return norms


def _logit_bound(acts: list[np.ndarray], norms: list[tuple], t_in: np.ndarray) -> np.ndarray:
    """Per row and class, a bound on the distance between the logits of an
    `_activations` pass, `acts[-1]`, and those of exact arithmetic on the
    float64 inputs and parameters, for a pass in float64 or in float32.

    `norms` are the model's `_weight_norms`, `t_in` the `_row_norms` of
    `acts[0]`. Per layer, with unit roundoff u, fan-in n, input row â with
    error at most eps in 2-norm, and eta the dtype's smallest normal number
    (more than any error of an underflow), each output j of `â @ W + b`
    computed as `fl(fl(â @ Ŵ) + b̂)` is within

        ((gamma_n + 2u)|â| + (1 + 2u) eps) |W_j| + u|b_j| + u/(1-u) |ẑ_j|
            + eta (2 sqrt(n) (|â| + eps) + n + 1)

    of exact: the dot product's rounding, the input's error, the rounding of
    W and b to the dtype, the bias add, and underflow. ReLU is 1-Lipschitz,
    so the next layer's eps is the 2-norm of these bounds over j, where
    u/(1-u) |ẑ_j| is at most 2u (|â| |W_j| + |b_j|) plus the underflow term
    (for fan-ins below 1 / (3u)). A float32 input is the rounded float64
    one, so eps starts at u(1 + 2u)|x̂| plus sqrt(n) eta for inputs that
    underflow; a float64 input is exact. Norms are `_norm_up` bounds.

    None of this holds where the pass overflowed, so a row gets an infinite
    bound unless at every layer (|â| + 1) max_j |W_j| + max |b| is below a
    quarter of the dtype's largest number: then no weight, partial sum or
    output can have overflowed.
    """
    finfo = np.finfo(acts[-1].dtype)
    u, tiny = float(finfo.eps) / 2.0, float(finfo.tiny)
    n = acts[0].shape[1]
    eps = 0.0 if finfo.dtype == np.float64 else u * (1.0 + 2.0 * u) * t_in + np.sqrt(n) * tiny
    safe = np.ones(acts[0].shape[0], dtype=bool)
    for l, (col, frob, bnorm, babs) in enumerate(norms):
        n = acts[l].shape[1]
        t = t_in if l == 0 else _row_norms(acts[l])
        safe &= (t + 1.0) * col.max() + babs.max() < float(finfo.max) / 4.0
        k = (_gamma(n, u) + 2.0 * u) * t + (1.0 + 2.0 * u) * eps
        under = tiny * (2.0 * np.sqrt(n) * (t + eps) + n + 1)
        if l < len(norms) - 1:
            eps = (k * frob + u * bnorm + 2.0 * u * (t * frob + bnorm)
                   + 2.0 * np.sqrt(col.size) * under)
    bound = (k[:, None] * col + u * babs + u / (1.0 - u) * np.abs(acts[-1], dtype=np.float64)
             + under[:, None])
    bound[~safe] = np.inf
    return bound


def _certain(logits: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argmax, and whether the bounds prove it: the top logit
    minus its bound beats every other logit plus its bound. The bounds are
    inflated by 2^-20, more than the error of the float64 chunk pass
    relative to a float32 bound (below 2^-29) and than the bounds' own
    rounding, and by 2^-40 |logit| for the rounding of this comparison. A
    row with a non-finite logit or bound is never certain."""
    z = logits.astype(np.float64)
    margin = bound * (1.0 + 2.0**-20) + 2.0**-40 * np.abs(z)
    top = kernels.argmax_rows(z)
    rows = np.arange(z.shape[0])
    low = z[rows, top] - margin[rows, top]
    high = z + margin
    high[rows, top] = -np.inf
    return top, (low > high.max(axis=1)) & np.isfinite(margin).all(axis=1)


def _screen(arch: Architecture, theta: np.ndarray, norms: list[tuple], x_mat: np.ndarray,
            t_in: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """`_certain` of one pass over `x_mat` in its dtype, with the bound
    scaled by `slack`."""
    with np.errstate(all="ignore"):  # an overflow or NaN leaves its row open
        acts = _activations(arch, theta, x_mat)
        return _certain(acts[-1], slack * _logit_bound(acts, norms, t_in))


def accuracies(models: Sequence[tuple[Architecture, np.ndarray]], eval_set,
               pool: AgentPool | None = None) -> list[float]:
    """Accuracy of each `(arch, theta)` in `models` on one labeled set: the
    fraction of samples whose argmax logit (lowest index on ties) of the
    float64 pass over their EVAL_CHUNK chunk matches the label.

    Each chunk is decoded to float32 once and scored by every model in
    float32; a row is counted from there when its bound proves its argmax.
    A model's open rows are scored again in float64, where the bound is
    doubled, as the chunk pass carries one of its own; the rows open there
    take the chunk pass's argmax. With a pool, chunks run side by side; the
    chunks are the same at any pool size, so the counts are too."""
    x, y = _as_xy(eval_set)
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate accuracy on an empty set")
    pool = pool or AgentPool()
    norms = pool.map(lambda model: _weight_norms(*model), models)

    def correct(s: int) -> list[int]:
        rows, labels = x[s : s + EVAL_CHUNK], y[s : s + EVAL_CHUNK]
        x32 = np.ascontiguousarray(decode(rows, np.float32))
        t32 = _row_norms(x32)
        chunk = []  # the chunk pass's float64 decode, once a row needs it
        counts = []
        for (arch, theta), norm in zip(models, norms):
            pred, certain = _screen(arch, theta, norm, x32, t32, 1.0)
            open_rows = np.flatnonzero(~certain)
            if open_rows.size:
                x64 = np.ascontiguousarray(decode(rows[open_rows]))
                pred[open_rows], certain = _screen(arch, theta, norm, x64, _row_norms(x64), 2.0)
                ties = open_rows[~certain]
                if ties.size:
                    if not chunk:
                        chunk.append(np.ascontiguousarray(decode(rows)))
                    pred[ties] = kernels.argmax_rows(_activations(arch, theta, chunk[0])[-1])[ties]
            counts.append(int((pred == labels).sum()))
        return counts

    per_chunk = pool.map(correct, range(0, x.shape[0], EVAL_CHUNK))
    return [sum(counts) / x.shape[0] for counts in zip(*per_chunk)]


def accuracy(arch: Architecture, theta: np.ndarray, eval_set) -> float:
    """`accuracies` of the one model `(arch, theta)`."""
    return accuracies([(arch, theta)], eval_set)[0]


@dataclass
class Learner:
    """An agent's classifier: architecture, flat parameters, update rule."""

    arch: Architecture
    params: np.ndarray
    rule: UpdateRule

    @classmethod
    def create(cls, arch: Architecture, seed: int, rule: UpdateRule | None = None) -> "Learner":
        return cls(arch=arch, params=init_params(arch, seed), rule=rule or Adam())

    def train(self, train_set, batch_size: int, epochs: int, seed: int) -> None:
        train_epochs(self.arch, self.params, self.rule, train_set, batch_size, epochs, seed)

    def accuracy(self, eval_set) -> float:
        return accuracy(self.arch, self.params, eval_set)

