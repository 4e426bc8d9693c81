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
is one `train_step`: `grad` into the calling thread's workspace, then
`apply_update`. Every pass runs through the one layer loop, `_layer_loop`,
but for the first layer of an evaluation screen (`_screens`), which runs on
AMX tiles or in row blocks. Each thread has one workspace, a buffer grown
to the largest request and then reused: it holds a step's gradient, and
everything one model's evaluation screen writes.

Evaluation counts the rows whose argmax logit of a float64 pass over the
row alone matches the label, but mostly computes in float32: each
EVAL_CHUNK chunk is screened in float32 first, with a proven bound on each
logit's distance from exact arithmetic on the float64 inputs and parameters
(Higham, Accuracy and Stability of Numerical Algorithms, 2002, section 3.1).
Each layer's bound is in two parts: the fresh error of its own rounding, and
the error of its input carried through its weights. Where one hidden layer
carries its error into another, and the set spans more than one chunk, the
carried part goes through a proven upper bound on the weights' spectral norm
(`_spectral_norm`, its products' rounding bounded as in section 3.5); every
other part uses column and Frobenius norms. Where the rows are pixel bytes
and the CPU has AMX, the first layer runs on int8 tiles instead: the bytes
times three int8 limbs of W/255, summed exactly in int32 and rounded once
(`kernels.first_layer`; Ozaki, Ogita, Oishi and Rump, Numer. Algorithms 59,
2012), whose error is that of the limbs' split.
A row whose top logit beats every other by more than their bounds is
counted from the float32 pass; the rows left open are scored again in
float64 under the same kind of bound, and only a row still open there (a
near tie, or a non-finite value) is settled by that row's own float64 pass.
The counts are those of the row pass on every row: they depend only on the
row, the parameters and the BLAS kernel, not on the chunk size or on which
first layer ran.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from . import _kernels as kernels
from .data import Dataset, IdxRows, decode, epoch_batches
from .parallel import AgentPool
from .seeding import rng_for

STANDARD_HIDDEN = {"SHL": (), "HL1": (300,), "HL2": (500, 300)}
# Rows per evaluation chunk: a speed and memory setting only, as the counts
# are the same at any chunk size. At 512 an HL2 on 784 pixel bytes takes
# 4.0 MB of its thread's workspace to screen on AMX (5.0 MB in float32),
# about the 4.4 MB that the model's gradient takes there.
EVAL_CHUNK = 512
# Rows of a chunk decoded to float32 at a time, where the first layer runs
# in float32: each block goes through layer 1 before the next is decoded, so
# the decode takes half a chunk's room. On one thread of a 2-core x86-64
# guest (OpenBLAS), an HL2's layer-1 sgemm ran about 4% slower in 256-row
# blocks than in one 512-row call, and 10% slower in 128-row ones.
DECODE_ROWS = 256
# Pool tasks per pool thread in an evaluation, each a contiguous block of
# chunks, so that no thread waits long on the last task; one task on one
# thread, which then prepares each model once.
EVAL_TASKS_PER_THREAD = 2
# Open rows per float64 rescoring, at most
RESCORE_ROWS = 128


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

    @property
    def size(self) -> int:
        """The parameter count, `param_count(self)`: the length of a flat
        parameter vector, known before one is built."""
        return param_count(self)


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


# Each thread's scratch bytes: one buffer, grown to the largest request and
# then reused (`_take`). A `train_step` writes its gradient at the front, and
# an evaluation screen (`_screens`) one model's prepared weights, then each
# chunk's rows and activations.
_scratch = threading.local()
# bytes: each region of the workspace starts on a cache line
_ALIGN = 64


def _span(specs) -> int:
    """Bytes that arrays of these (shape, dtype) take one after another in
    the workspace."""
    return sum(-(-math.prod(shape) * np.dtype(dtype).itemsize // _ALIGN) * _ALIGN
               for shape, dtype in specs)


def _take(specs, start: int = 0) -> list[np.ndarray]:
    """C-contiguous arrays of these (shape, dtype), one after another in the
    calling thread's workspace from byte `start` on. The workspace is
    replaced by a larger one only when it is too short, so what it held
    before is the caller's to overwrite; arrays taken earlier stay valid."""
    buf, end = getattr(_scratch, "buf", None), start + _span(specs)
    if buf is None or buf.size < end:
        buf = _scratch.buf = np.empty(end, dtype=np.uint8)
    views = []
    for shape, dtype in specs:
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        views.append(buf[start : start + nbytes].view(dtype).reshape(shape))
        start += _span([(shape, dtype)])
    return views


def _layer_loop(acts: list, layers, outs=None) -> list[np.ndarray]:
    """The one layer loop: appends to `acts`, whose last entry is the input
    of the first of `layers`, each layer's output, the logits last, in the
    dtype of the layers' (w, b). Each layer writes into its entry of
    `outs`, where given, and allocates otherwise. Returns `acts`."""
    for l, (w, b) in enumerate(layers):
        z = np.matmul(acts[-1], w, out=None if outs is None else outs[l])
        # in place: the bits of `acts[-1] @ w + b`
        z += b
        acts.append(kernels.relu(z) if l < len(layers) - 1 else z)
    return acts


def _activations(arch: Architecture, theta: np.ndarray, x_mat: np.ndarray) -> list[np.ndarray]:
    """A float64 pass over x_mat: each layer's input, then the output
    logits, in new arrays."""
    if x_mat.shape[1] != arch.input_dim:
        raise ValueError(f"input dimension {x_mat.shape[1]} != {arch.input_dim}")
    return _layer_loop([x_mat], param_views(arch, theta))


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


def train_step(arch: Architecture, theta: np.ndarray, rule: Adam, acts: list[np.ndarray],
               probs: np.ndarray, y) -> np.ndarray:
    """One update: the `grad` of labels `y` back through a `forward` pass at
    theta, written into the calling thread's workspace, then `apply_update`
    with `rule`; returns theta."""
    g, = _take([(theta.shape, np.float64)])
    return apply_update(rule, theta, grad(arch, theta, acts, probs, y, out=g))


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
        # the largest |entry| without an |w| array; NaN and inf propagate
        e = int(np.frexp(np.maximum(w.max(), -w.min()))[1])
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


# float64's unit roundoff
_U64 = 2.0**-53
# |r_kj| / s_j for the rest r of a weight's int8 limbs (`kernels.pack_limbs`):
# 2^-15, and 2^-30 of that for the bits of V = W/255 and of V/s_j that fall
# below the normal range, at most 2^-52 s_j as s_j is normal
_LIMB_REST = 2.0**-15 * (1.0 + 2.0**-30)


def _logit_bound(acts: list[np.ndarray], norms: list[tuple], t_in: np.ndarray,
                 limbs: tuple | None = None) -> np.ndarray:
    """Per row and class, a bound on the distance between the logits of a
    pass, `acts[-1]`, and those of exact arithmetic on the float64 inputs and
    parameters, for a pass in float64 or in float32, its first layer on int8
    limbs where `limbs` is given.

    `norms` are the model's `_weight_norms`, `t_in` a bound on each input
    row's 2-norm. Per layer, with unit roundoff u, fan-in n, input row â with
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

    On int8 limbs (`limbs` = (each row's byte sum S, each column's scale
    s_j), `t_in` bounding |b/255| from the exact sum of squares), the first
    layer takes pixel bytes b, not a rounded input, so eps starts at 0, and
    its product p_j = sum_k b_k q_kj, q_kj the limbs' value, is exact. With
    |q_kj - W_kj/255| at most rho s_j + u64 |W_kj|/255 (rho = `_LIMB_REST`,
    u64 float64's unit roundoff, for the split and for V = fl(W/255)), and
    the float64 input b/255 off by at most u64 b/255, p_j is within
    rho s_j S + 2 u64 |b/255| |W_j| of exact, so |p_j| is at most
    (1 + u64)|b/255| |W_j| + rho s_j S. Rounding p_j to float32, casting b_j
    and adding it then give

        (1 + u) rho s_j S + (u + 3 u64) |b/255| |W_j| + u|b_j| + u/(1-u) |ẑ_j| + 2 eta,

    and through a hidden layer, with u/(1-u)|ẑ_j| at most 2u(|p_j| + |b_j|)
    plus eta, the 2-norm over j

        eps' = (1 + 3u) rho S ‖s‖ + (3u + 3 u64) |b/255| ‖W‖_F + 3u ‖b‖
            + 2 sqrt(outputs) eta (2 sqrt(n) |b/255| + n + 1).

    None of this holds where the pass overflowed, so a row gets an infinite
    bound unless at every layer (|â| + 1) max_j |W_j| + max |b| is below a
    quarter of the dtype's largest number: then no weight, partial sum or
    output can have overflowed.
    """
    finfo = np.finfo(acts[-1].dtype)
    u, tiny = float(finfo.eps) / 2.0, float(finfo.tiny)
    n = acts[0].shape[1]
    eps = (0.0 if finfo.dtype == np.float64 or limbs is not None
           else u * (1.0 + 2.0 * u) * t_in + np.sqrt(n) * tiny)
    safe = np.ones(acts[0].shape[0], dtype=bool)
    first = 0.0  # the limbs' rest, where the first layer is the last
    for l, (col, frob, sigma, bnorm, babs) in enumerate(norms):
        n = acts[l].shape[1]
        t = t_in if l == 0 else _row_norms(acts[l])
        safe &= (t + 1.0) * col.max() + babs.max() < float(finfo.max) / 4.0
        under = tiny * (2.0 * np.sqrt(n) * (t + eps) + n + 1)
        hidden = l < len(norms) - 1
        if l == 0 and limbs is not None:
            sums, scales = limbs
            k = (u + 3.0 * _U64) * t
            if hidden:
                eps = ((1.0 + 3.0 * u) * _LIMB_REST * sums * _norm_up(scales @ scales, scales.size)
                       + (3.0 * u + 3.0 * _U64) * t * frob + 3.0 * u * bnorm
                       + 2.0 * np.sqrt(col.size) * under)
            else:
                first = (1.0 + u) * _LIMB_REST * sums[:, None] * scales
            continue
        fresh = (_gamma(n, u) + 2.0 * u) * t
        k = fresh + (1.0 + 2.0 * u) * eps
        if hidden:
            eps = (fresh * frob + eps * (sigma + u * frob) + u * bnorm
                   + 2.0 * u * (t * frob + bnorm) + 2.0 * np.sqrt(col.size) * under)
    bound = (k[:, None] * col + first + u * babs
             + u / (1.0 - u) * np.abs(acts[-1], dtype=np.float64) + under[:, None])
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


def _on_limbs(x) -> bool:
    """Whether the first layers of a screen of the rows `x` may run on int8
    limbs: the rows are pixel bytes, at most LIMB_FAN_IN of them, so that no
    limb's sum overflows int32, and this process runs AMX."""
    return x.dtype == np.uint8 and x.shape[1] <= kernels.LIMB_FAN_IN and kernels.amx_ready()


def _screen_specs(arch: Architecture, rows: int, limbs: bool, pixels: bool) -> list[tuple]:
    """The workspace of one model's screen of chunks of up to `rows` rows:
    with `limbs`, the first layer's packed limbs and scales; the float32
    weights and biases, the first layer's weights only without limbs; the
    chunk's bytes, where the set holds pixel bytes; without limbs the
    float32 decode of DECODE_ROWS rows; and each layer's output."""
    d, dims = arch.input_dim, arch.layer_dims
    specs = ([((kernels.limb_bytes(d, dims[1]),), np.int8), ((dims[1],), np.float64)]
             if limbs else [])
    specs.append(((param_count(arch) - (d * dims[1] if limbs else 0),), np.float32))
    specs += [((rows, d), np.uint8)] if pixels else []
    specs += [] if limbs else [((min(rows, DECODE_ROWS), d), np.float32)]
    return specs + [((rows, dout), np.float32) for dout in dims[1:]]


def _cast(region: np.ndarray, arrays) -> list[np.ndarray]:
    """float32 copies of `arrays`, one after another in `region`."""
    views, off = [], 0
    for a in arrays:
        views.append(region[off : off + a.size].reshape(a.shape))
        np.copyto(views[-1], a, casting="same_kind")
        off += a.size
    return views


def _screens(arch: Architecture, theta: np.ndarray, norms: list[tuple], x,
             starts: Sequence[int], stats: np.ndarray | None, fill: bool) -> Iterator[tuple]:
    """One model's float32 screen of the consecutive EVAL_CHUNK chunks of
    the rows `x` that start at `starts`: per chunk, its start, its
    activations (the chunk's rows, then each layer's output) and their
    `_logit_bound`.

    `stats` is None, or, where `_on_limbs(x)`, a (2, rows) float64 array
    for the chunks' rows: each row's byte sum and a bound on its 2-norm
    as decoded, which the screen writes where `fill` and reads otherwise,
    so that the first model of a pool task sums each chunk's bytes for
    every model. The model is prepared once, in the calling thread's
    workspace after `stats`. The first layer runs on int8 limbs
    (`kernels.first_layer`) where `stats` is given and the layer's weights
    pack (they are finite, and each nonzero column's scale is a normal
    number): its weights are packed and each chunk's bytes go to the tiles
    as they are. Otherwise every layer is cast to float32, and each chunk
    decoded to float32 DECODE_ROWS rows at a time, each block taken
    through the first layer before the next. Each chunk is read again for
    each model (about 0.03 ms for 512 rows of 784 bytes on a 2-core x86-64
    guest, 1-2% of an HL1 or HL2 screen), and its rows and activations
    written after the weights, where they stay until the next chunk."""
    m, d = x.shape
    rows, pixels = min(EVAL_CHUNK, m), x.dtype == np.uint8
    layers = param_views(arch, theta)
    front = 0 if stats is None else _span([(stats.shape, stats.dtype)])
    limbs = stats is not None
    if limbs:
        packed, scales, cast, raw, *outs = _take(_screen_specs(arch, rows, True, True), front)
        limbs = kernels.pack_limbs(layers[0][0], packed, scales)
    if limbs:
        b1, *weights = _cast(cast, [layers[0][1], *(a for layer in layers[1:] for a in layer)])
    else:
        cast, *regions = _take(_screen_specs(arch, rows, False, pixels), front)
        w1, b1, *weights = _cast(cast, [a for layer in layers for a in layer])
        raw = regions.pop(0) if pixels else None
        scratch, *outs = regions
    weights = list(zip(weights[::2], weights[1::2]))
    for s in starts:
        n = min(EVAL_CHUNK, m - s)
        if pixels:
            chunk = raw[:n]
            if isinstance(x, IdxRows):
                x.read(s, chunk)
            else:
                np.copyto(chunk, x[s : s + n])
        else:
            chunk = x[s : s + n]
        out = [o[:n] for o in outs]
        with np.errstate(all="ignore"):  # an overflow or NaN leaves its row open
            if stats is not None:
                sums, t_in = stats[:, s - starts[0] : s - starts[0] + n]
                if fill:
                    kernels.byte_sums(chunk, sums, t_in)
                    t_in[:] = _norm_up(t_in / 65025.0, d)
            if limbs:
                z = kernels.first_layer(chunk, packed, scales, out=out[0])
                limb = (sums, scales)
            else:
                z, t_in, limb = out[0], np.empty(n), None
                for r in range(0, n, DECODE_ROWS):
                    block = slice(r, min(r + DECODE_ROWS, n))
                    x32 = decode(chunk[block], np.float32, out=scratch[: block.stop - r])
                    np.matmul(x32, w1, out=z[block])
                    t_in[block] = _row_norms(x32)
            z += b1
            acts = _layer_loop([chunk, kernels.relu(z) if weights else z], weights, out[1:])
            bound = _logit_bound(acts, norms, t_in, limb)
        yield s, acts, bound


def _rescore(arch: Architecture, theta: np.ndarray, norms: list[tuple], x, y,
             rows: list) -> int:
    """How many of the rows of `x` at `rows` the model labels as `y` does:
    their argmax from one float64 pass, where its bound, doubled as the row
    pass carries one of its own, proves it, else from the row pass."""
    rows = np.asarray(rows)
    x64 = np.ascontiguousarray(decode(x[rows]))
    with np.errstate(all="ignore"):  # an overflow or NaN leaves its row open
        acts = _activations(arch, theta, x64)
        pred, certain = _certain(acts[-1], 2.0 * _logit_bound(acts, norms, _row_norms(x64)))
    for i in np.flatnonzero(~certain):  # the row pass
        pred[i] = kernels.argmax_rows(_activations(arch, theta, x64[i : i + 1])[-1])[0]
    return int(np.count_nonzero(pred == y[rows]))


def _count(arch: Architecture, theta: np.ndarray, norms: list[tuple], x, y,
           starts: Sequence[int], stats: np.ndarray | None, fill: bool) -> int:
    """How many rows of the chunks at `starts` the model labels as `y`
    does: the rows its float32 screen (`_screens`, which takes `stats` and
    `fill`) proves, and the open ones from
    `_rescore`, RESCORE_ROWS at a time, their rows read again by index. The
    float64 passes allocate their arrays, so the screen's workspace stays
    as it is while they run."""
    correct, open_rows = 0, []

    def rescore(least: int) -> int:
        # the open rows, RESCORE_ROWS at a time, while at least `least` are open
        done = 0
        while len(open_rows) >= least:
            done += _rescore(arch, theta, norms, x, y, open_rows[:RESCORE_ROWS])
            del open_rows[:RESCORE_ROWS]
        return done

    for s, acts, bound in _screens(arch, theta, norms, x, starts, stats, fill):
        with np.errstate(invalid="ignore"):
            pred, certain = _certain(acts[-1], bound)
        correct += int(np.count_nonzero((pred == y[s : s + pred.size]) & certain))
        open_rows.extend(s + np.flatnonzero(~certain))
        correct += rescore(RESCORE_ROWS)
    return correct + rescore(1)


def accuracy(models: Sequence[tuple[Architecture, np.ndarray]], eval_set: Dataset,
               pool: AgentPool | None = None) -> list[float]:
    """Accuracy of each `(arch, theta)` in `models` on one labeled set: the
    fraction of samples whose argmax logit (lowest index on ties) of a
    float64 pass over the sample alone matches the label.

    Each pool task takes a contiguous block of EVAL_CHUNK chunks, the whole
    set with a one-thread pool, and screens them with one model after
    another (`_count`), so that each model's weights are packed or cast
    once per task; on int8 limbs, the rows' byte sums are taken once per
    task too. A task first grows its thread's workspace to the largest
    model's screen, after the block's byte sums, or `train_step` gradient,
    so that it grows once, not model by model or again at the next update:
    each growth leaves the process's peak memory higher. No count depends
    on the chunks, the blocks or the pool size."""
    x, y = eval_set.features, eval_set.labels
    m = x.shape[0]
    if m == 0:
        raise ValueError("cannot evaluate accuracy on an empty set")
    pool = pool or AgentPool()
    norms = pool.map(lambda model: _weight_norms(*model, m > EVAL_CHUNK), models)
    starts = range(0, m, EVAL_CHUNK)
    per = -(-len(starts) // (1 if pool.size == 1 else EVAL_TASKS_PER_THREAD * pool.size))
    blocks = [starts[i : i + per] for i in range(0, len(starts), per)]
    rows, limbs, pixels = min(EVAL_CHUNK, m), _on_limbs(x), x.dtype == np.uint8
    front = _span([((2, min(per * EVAL_CHUNK, m)), np.float64)]) if limbs else 0
    largest = max(max(front + _span(_screen_specs(arch, rows, limbs, pixels)),
                      _span([((arch.size,), np.float64)])) for arch in {arch for arch, _ in models})

    def correct(block) -> list[int]:
        _take([((largest,), np.uint8)])
        stats = (_take([((2, min(block[-1] + EVAL_CHUNK, m) - block[0]), np.float64)])[0]
                 if limbs else None)
        return [_count(arch, theta, norm, x, y, block, stats, i == 0)
                for i, ((arch, theta), norm) in enumerate(zip(models, norms))]

    per_block = pool.map(correct, blocks)
    return [sum(counts) / m for counts in zip(*per_block)]


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

    # only forwards to train_epochs; perfbench traces it as learner.self_train_s (ROADMAP item 5)
    def train(self, train_set: Dataset, batch_size: int, epochs: int, seed: int) -> None:
        train_epochs(self.arch, self.params, self.rule, train_set, batch_size, epochs, seed)

