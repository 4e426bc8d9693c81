"""Agent-local classifiers: fully-connected softmax networks with exact
gradients, trained with Adam.

Three architectures are supported: SHL (no hidden layer), HL1 (one ReLU
hidden layer of 300 units) and HL2 (two ReLU hidden layers of 500 and 300
units). Parameters live in one flat float64 vector; per-layer weight
matrices and bias vectors are zero-copy views into it.

There is one function per phase, which self-training, the collective
rounds, reviews, score refreshes and the baselines all call: `forward`
predicts, `grad` takes the gradient back through that pass's activations,
`apply_update` takes the Adam step and `accuracy` evaluates. Every update
is one `train_step`: `grad` into the calling thread's scratch, then
`apply_update`. Prediction, gradient and evaluation run through the one
layer loop, `_activations`.

Evaluation counts the rows whose argmax logit of a float64 pass over the
row alone matches the label, but mostly computes in float32: each
EVAL_CHUNK chunk is scored in float32 first, with a proven bound on each
logit's distance from exact arithmetic on the float64 inputs and parameters
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, section 3.1).
Each layer's bound is in two parts: the fresh error of its own rounding, and
the error of its input carried through its weights. Where one hidden layer
carries its error into another, and the set spans more than one chunk, the
carried part goes through a proven upper bound on the weights' spectral norm
(`_spectral_norm`, its products' rounding bounded as in section 3.5); every
other part uses column and Frobenius norms.
A row whose top logit beats every other by more than their bounds is
counted from the float32 pass; the rows left open are scored again in
float64 under the same kind of bound, and only a row still open there (a
near tie, or a non-finite value) is settled by that row's own float64 pass.
The counts are those of the row pass on every row: they depend only on the
row, the parameters and the BLAS kernel, not on the chunk size.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import _kernels as kernels
from .data import Dataset, decode, epoch_batches
from .parallel import AgentPool
from .seeding import rng_for

STANDARD_HIDDEN = {"SHL": (), "HL1": (300,), "HL2": (500, 300)}
# Rows per evaluation chunk: a speed setting only, as the counts are the same
# at any chunk size.
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
    if x.ndim != 2:
        raise ValueError(f"inputs must be a 2-D batch, got shape {x.shape}")
    return np.ascontiguousarray(x, dtype=np.float64)


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


def forward(arch: Architecture, theta: np.ndarray, x) -> tuple[list[np.ndarray], np.ndarray]:
    """One forward pass over a batch: its activations (each layer's input,
    then the logits) and its class probabilities. `grad` takes both, so one
    pass serves a prediction and the gradient step that follows it."""
    acts = _activations(arch, theta, _as_matrix(x))
    probs = kernels.softmax_rows(acts[-1])
    if not np.all(np.isfinite(probs)):
        raise FloatingPointError("non-finite activations in forward pass")
    return acts, probs


def _check_labels(arch: Architecture, y) -> np.ndarray:
    y = np.ascontiguousarray(np.asarray(y, dtype=np.int64))
    if y.size and (y.min() < 0 or y.max() >= arch.num_classes):
        raise ValueError(f"labels must lie in [0, {arch.num_classes})")
    return y


def grad(arch: Architecture, theta: np.ndarray, acts: list[np.ndarray], probs: np.ndarray,
         y, out: np.ndarray | None = None) -> np.ndarray:
    """Exact gradient of the mean cross-entropy of labels `y`, as a flat
    vector, taken back through a `forward` pass at these parameters.

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


@dataclass
class Adam:
    """Adam with bias correction: its hyperparameters, and moment state that
    is owned per instance and persists for the lifetime of the agent.
    `apply_update` takes its steps."""

    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    _m: np.ndarray | None = field(default=None, repr=False)
    _v: np.ndarray | None = field(default=None, repr=False)
    _steps: int = field(default=0, repr=False)


def apply_update(rule: Adam, theta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Advance theta in place by one Adam step of `rule`, allocating its
    moments on the first; returns theta."""
    # the state changes only once adam_step has checked every array
    m, v = ((np.zeros_like(theta), np.zeros_like(theta)) if rule._m is None
            else (rule._m, rule._v))
    kernels.adam_step(theta, g, m, v, rule._steps + 1,
                      rule.alpha, rule.beta1, rule.beta2, rule.eps)
    rule._m, rule._v, rule._steps = m, v, rule._steps + 1
    return theta


# Each thread's gradient scratch, as long as the largest model it has stepped.
_scratch = threading.local()


def train_step(arch: Architecture, theta: np.ndarray, rule: Adam, acts: list[np.ndarray],
               probs: np.ndarray, y) -> np.ndarray:
    """One update: the `grad` of labels `y` back through a `forward` pass at
    theta, written into the calling thread's scratch, then `apply_update`
    with `rule`; returns theta."""
    buf = getattr(_scratch, "grad", None)
    if buf is None or buf.size < theta.size:
        buf = _scratch.grad = np.empty(theta.size)
    return apply_update(rule, theta, grad(arch, theta, acts, probs, y, out=buf[: theta.size]))


def train_epochs(
    arch: Architecture,
    theta: np.ndarray,
    rule: Adam,
    train_set: Dataset,
    batch_size: int,
    epochs: int,
    seed: int,
    *,
    max_updates: int | None = None,
    on_step: Callable[[int], None] | None = None,
) -> int:
    """Shuffled mini-batch passes over a labeled set, the `epoch_batches`
    stream "train-epoch" capped at `max_updates`; updates theta in place and
    returns the number of updates taken.

    This is the one supervised training loop: self-training, the baselines
    and the review epochs of the collective phase all run through it.
    uint8 features are decoded one minibatch at a time. `on_step(k)` is
    called after each update with the 1-based update count.
    """
    x, y = train_set.features, train_set.labels
    k = 0
    for k, idx in enumerate(
            epoch_batches(x.shape[0], batch_size, epochs, seed, "train-epoch", max_updates), 1):
        train_step(arch, theta, rule, *forward(arch, theta, decode(x[idx])), y[idx])
        if on_step is not None:
            on_step(k)
    return k


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


def _spectral_norm(w: np.ndarray) -> float:
    """A proven upper bound on the spectral norm ‖w‖₂, or inf where a product
    is not finite.

    w is scaled by the power of two 2^-e that puts its largest |entry| in
    [1/2, 1), which is exact but for entries that fall below the normal range.
    With G the Gram matrix of the scaled w on its smaller side, ‖w‖₂^8 is
    2^8e ‖G^4‖₂ ≤ 2^8e ‖G^4‖_F, and G^4 is G squared twice. A product of
    p x q by q x r rounds by at most gamma_q ‖A‖_F ‖B‖_F in Frobenius norm
    (Higham 2002, section 3.5), plus q sqrt(pr) times the smallest normal
    number for underflow, and an error D in a factor adds D (2‖Ĝ‖_F + D) to
    its square. The eighth root of ‖Ĝ^4‖_F plus these errors is taken by
    three square roots, raised by 2^-48 for the rounding of this arithmetic
    and of the scaled entries (the scaled norms are at least 2^-8), and
    scaled back, with the smallest normal number added in case that rounds.
    """
    u, tiny = float(np.finfo(np.float64).eps) / 2.0, float(np.finfo(np.float64).tiny)
    with np.errstate(all="ignore"):  # a NaN or overflow gives inf below
        e = int(np.frexp(np.abs(w).max())[1])
        a = np.ldexp(w, -e)
        if a.shape[0] < a.shape[1]:
            a = a.T
        n, m = a.shape
        f = _norm_up(np.vdot(a, a), a.size)
        err = _gamma(n, u) * f * f + n * m * tiny
        g = a.T @ a
        for _ in range(2):
            f = _norm_up(np.vdot(g, g), g.size)
            err = _gamma(m, u) * f * f + m * m * tiny + err * (2.0 * f + err)
            g = g @ g
        top = _norm_up(np.vdot(g, g), g.size) + err
    if not np.isfinite(top):
        return np.inf
    return float(np.ldexp(np.sqrt(np.sqrt(np.sqrt(top))) * (1.0 + 2.0**-48), e)) + tiny


def _weight_norms(arch: Architecture, theta: np.ndarray, spectral: bool = True) -> list[tuple]:
    """Per layer, upper bounds on the 2-norm of each weight column, the
    Frobenius norm of the weights, their spectral norm and the 2-norm of the
    bias, and |bias|.

    The spectral norm bounds only the error a layer's input carries through
    it. It is min(`_spectral_norm`, Frobenius) for the layers between two
    hidden layers, when `spectral` is set, and the Frobenius norm elsewhere:
    a float32 input's rounding is all that the first layer carries, far
    below its fresh error, and the output layer's error is bounded per
    column. `accuracy` sets `spectral` for sets longer than one EVAL_CHUNK;
    on one chunk the Gram products cost more than the rescoring they spare.
    """
    layers = param_views(arch, theta)
    norms = []
    for l, (w, b) in enumerate(layers):
        n, dout = w.shape
        col = np.einsum("ij,ij->j", w, w)
        frob = _norm_up(col.sum(), (n + 1) * dout)
        sigma = min(frob, _spectral_norm(w)) if spectral and 0 < l < len(layers) - 1 else frob
        norms.append((_norm_up(col, n), frob, sigma, _norm_up(b @ b, dout), np.abs(b)))
    return norms


def _logit_bound(acts: list[np.ndarray], norms: list[tuple], t_in: np.ndarray) -> np.ndarray:
    """Per row and class, a bound on the distance between the logits of an
    `_activations` pass, `acts[-1]`, and those of exact arithmetic on the
    float64 inputs and parameters, for a pass in float64 or in float32.

    `norms` are the model's `_weight_norms`, `t_in` the `_row_norms` of
    `acts[0]`. Per layer, with unit roundoff u, fan-in n, input row â with
    error e = â - a of 2-norm at most eps, and eta the dtype's smallest
    normal number (more than any error of an underflow), each output j of
    `â @ W + b` computed as `fl(fl(â @ Ŵ) + b̂)` is within

        ((gamma_n + 2u)|â| + (1 + 2u) eps) |W_j| + u|b_j| + u/(1-u) |ẑ_j|
            + eta (2 sqrt(n) (|â| + eps) + n + 1)

    of exact: the dot product's rounding, the input's error, the rounding of
    W and b to the dtype, the bias add, and underflow. ReLU is 1-Lipschitz,
    so the next layer's eps bounds the 2-norm of these errors over j, in two
    parts. The fresh part, every term but the input's error, is the 2-norm
    of its per-column bounds, which takes ‖W‖_F in place of |W_j|; there
    u/(1-u) |ẑ_j| is at most 2u (|â| |W_j| + |b_j|) plus the underflow term
    (for fan-ins below 1 / (3u)). The carried part is eᵀŴ, whose 2-norm is
    at most eps (σ̄ + u ‖W‖_F), σ̄ being the spectral-norm bound of
    `_weight_norms` and u ‖W‖_F bounding ‖Ŵ - W‖₂. So

        eps' = (gamma_n + 2u)|â| ‖W‖_F + eps (σ̄ + u ‖W‖_F) + u ‖b‖
            + 2u (|â| ‖W‖_F + ‖b‖) + 2 sqrt(outputs) eta (2 sqrt(n) (|â| + eps) + n + 1).

    A float32 input is the rounded float64 one, so eps starts at
    u(1 + 2u)|x̂| plus sqrt(n) eta for inputs that underflow; a float64 input
    is exact. Norms are `_norm_up` bounds.

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
    for l, (col, frob, sigma, bnorm, babs) in enumerate(norms):
        n = acts[l].shape[1]
        t = t_in if l == 0 else _row_norms(acts[l])
        safe &= (t + 1.0) * col.max() + babs.max() < float(finfo.max) / 4.0
        fresh = (_gamma(n, u) + 2.0 * u) * t
        k = fresh + (1.0 + 2.0 * u) * eps
        under = tiny * (2.0 * np.sqrt(n) * (t + eps) + n + 1)
        if l < len(norms) - 1:
            eps = (fresh * frob + eps * (sigma + u * frob) + u * bnorm
                   + 2.0 * u * (t * frob + bnorm) + 2.0 * np.sqrt(col.size) * under)
    bound = (k[:, None] * col + u * babs + u / (1.0 - u) * np.abs(acts[-1], dtype=np.float64)
             + under[:, None])
    bound[~safe] = np.inf
    return bound


def _certain(logits: np.ndarray, bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's argmax, and whether the bounds prove it: the top logit
    minus its bound beats every other logit plus its bound. The bounds are
    inflated by 2^-20, more than the error of the float64 row pass
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


def accuracy(models: Sequence[tuple[Architecture, np.ndarray]], eval_set: Dataset,
               pool: AgentPool | None = None) -> list[float]:
    """Accuracy of each `(arch, theta)` in `models` on one labeled set: the
    fraction of samples whose argmax logit (lowest index on ties) of a
    float64 pass over the sample alone matches the label.

    Each EVAL_CHUNK chunk is decoded to float32 once and scored by every
    model in float32; a row is counted from there when its bound proves its
    argmax. A model's open rows are scored again in float64, where the bound
    is doubled, as the row pass carries one of its own; the rows open there
    take the row pass's argmax. With a pool, chunks run side by side; no
    count depends on the chunks or the pool size."""
    x, y = eval_set.features, eval_set.labels
    if x.shape[0] == 0:
        raise ValueError("cannot evaluate accuracy on an empty set")
    pool = pool or AgentPool()
    norms = pool.map(lambda model: _weight_norms(*model, x.shape[0] > EVAL_CHUNK), models)

    def correct(s: int) -> list[int]:
        rows, labels = x[s : s + EVAL_CHUNK], y[s : s + EVAL_CHUNK]
        x32 = np.ascontiguousarray(decode(rows, np.float32))
        t32 = _row_norms(x32)
        counts = []
        for (arch, theta), norm in zip(models, norms):
            pred, certain = _screen(arch, theta, norm, x32, t32, 1.0)
            open_rows = np.flatnonzero(~certain)
            if open_rows.size:
                x64 = np.ascontiguousarray(decode(rows[open_rows]))
                pred[open_rows], certain = _screen(arch, theta, norm, x64, _row_norms(x64), 2.0)
                for i in np.flatnonzero(~certain):  # the row pass
                    z = _activations(arch, theta, x64[i : i + 1])[-1]
                    pred[open_rows[i]] = kernels.argmax_rows(z)[0]
            counts.append(int((pred == labels).sum()))
        return counts

    per_chunk = pool.map(correct, range(0, x.shape[0], EVAL_CHUNK))
    return [sum(counts) / x.shape[0] for counts in zip(*per_chunk)]


@dataclass
class Learner:
    """An agent: its classifier's architecture, flat parameters and Adam
    state, and its id, the agent's row in weight matrices and metrics."""

    arch: Architecture
    params: np.ndarray
    rule: Adam
    id: int = 0

    @classmethod
    def create(cls, arch: Architecture, seed: int, rule: Adam | None = None,
               id: int = 0) -> "Learner":
        return cls(arch=arch, params=init_params(arch, seed), rule=rule or Adam(), id=id)

    def train(self, train_set: Dataset, batch_size: int, epochs: int, seed: int) -> None:
        train_epochs(self.arch, self.params, self.rule, train_set, batch_size, epochs, seed)

