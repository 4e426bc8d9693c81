"""Hot numeric kernels: numpy, plus one fused C loop for the Adam step.

Layer matmuls go through BLAS; the kernels here cover the elementwise-heavy
work: activations, softmax cross-entropy, the Adam step and prediction
fusion.

The Adam step folds its bias corrections into the step size and epsilon
(Kingma & Ba, Adam, ICLR 2015, section 2), so each element takes one
divide and one square root, and runs in C where it can. `_adam.c`, shipped
in this package, is compiled on the first Adam step of a process with the
compiler Python reports (`sysconfig` CC, else `cc`) and the flags in
`ADAM_CFLAGS`, cached under `$XDG_CACHE_HOME/colearn` (else
`~/.cache/colearn`) keyed by the source, the command and the machine type,
and loaded with ctypes. Every source and toolchain keeps its own library:
one is built only where it is missing, and none is ever deleted. Its one
pass over the parameters replaces the 12 ufunc passes of the numpy step,
and a ctypes call releases the interpreter lock, so the agent pool's
threads run whole Adam steps side by side. Where no compiler or cache
works, a `RuntimeWarning` says why and the numpy step runs instead;
`adam_kernel()` names the step this process runs. Both give the same bits
on any CPU.

The numpy Adam step, the fallback, updates its arrays in place and walks
the parameter vector in cache-sized blocks, writing every intermediate into
a small reused scratch buffer instead of allocating parameter-sized
temporaries. Each element still goes through the same correctly rounded
operations in the same order as the one-line folded expression, so the
results are bit for bit those of that expression.

All kernels expect C-contiguous float64 arrays (labels int64); reductions
accumulate in a fixed order, so results are reproducible run to run.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import threading
import warnings
from importlib import resources
from pathlib import Path

import numpy as np

# Elements per block of the numpy Adam step: 512 KB per float64 array, so a
# block's operands stay in a 2 MB L2 cache between ufunc calls.
_BLOCK = 65536

# Per-thread scratch of the numpy Adam step: two block-sized rows, allocated
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


def dlogits(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    # gradient of mean cross-entropy w.r.t. logits: (p - onehot(y)) / batch
    b = labels.shape[0]
    d = probs.copy()
    d[np.arange(b), labels] -= 1.0
    d /= b
    return d


def adam_step(theta, grad, m, v, step, alpha, beta1, beta2, eps) -> None:
    """One Adam step, in place: the moment updates, then theta -= alpha_t *
    m / (sqrt(v) + eps_t), with the bias corrections folded into alpha_t =
    alpha * sqrt(1 - beta2**step) / (1 - beta1**step) and eps_t = eps *
    sqrt(1 - beta2**step). Runs the fused C loop where it could be built,
    else the blocked numpy step; both give the bits of that expression.

    The four arrays must be 1-D, C-contiguous float64 of one length, and
    theta, m and v writeable: the C loop trusts its pointers, so anything
    else raises ValueError here instead of corrupting memory there."""
    _check_adam_arrays(theta, grad, m, v)
    root = math.sqrt(1.0 - beta2**step)
    alpha_t = alpha * root / (1.0 - beta1**step)
    eps_t = eps * root
    native = _adam_choice()[0]
    if native is None:
        _adam_numpy(theta, grad, m, v, alpha_t, beta1, beta2, eps_t)
    else:
        native(theta.ctypes.data, grad.ctypes.data, m.ctypes.data, v.ctypes.data,
               theta.shape[0], alpha_t, beta1, beta2, eps_t)


def _check_adam_arrays(theta, grad, m, v) -> None:
    for name, a in {"theta": theta, "grad": grad, "m": m, "v": v}.items():
        if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.ndim == 1
                and a.flags.c_contiguous):
            raise ValueError(f"adam_step: {name} must be a 1-D C-contiguous float64 array")
        if a.shape != theta.shape:
            raise ValueError(f"adam_step: {name} has {a.shape[0]} elements, "
                             f"theta has {theta.shape[0]}")
        if name != "grad" and not a.flags.writeable:
            raise ValueError(f"adam_step: {name} is read-only")


def _adam_numpy(theta, grad, m, v, alpha_t, beta1, beta2, eps_t) -> None:
    # theta -= alpha_t * m / (np.sqrt(v) + eps_t) after the moment updates,
    # one block at a time. Each element meets the same operations in the same
    # order as in that one-line expression, which keeps the bits.
    n = theta.shape[0]
    rows = getattr(_scratch, "rows", None)
    if rows is None:
        rows = _scratch.rows = np.empty((2, _BLOCK))
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
        np.multiply(alpha_t, mb, out=num)
        np.sqrt(vb, out=den)
        den += eps_t
        num /= den
        theta[s:e] -= num


# --- the fused C Adam step, built on first use --------------------------------

# -O3 vectorizes the loop (-O2 does not). -ffp-contract=off keeps the compiler
# from fusing a multiply and an add into one differently rounded operation,
# which would change the bits wherever the CPU has FMA. No -march: the cache
# is keyed by machine type only, so the library must load on any CPU of it.
ADAM_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")

# (C step or None, description) once resolved; guarded by _adam_lock
_adam: tuple | None = None
_adam_lock = threading.Lock()


def adam_kernel() -> str:
    """Which Adam step this process runs: "native (<library>)" or "numpy
    (<why the C step is unavailable>)". Builds the C step if no step has
    been chosen yet."""
    return _adam_choice()[1]


def _adam_choice() -> tuple:
    """(the C step, description), or (None, description) where it cannot be
    built or loaded; chosen once per process, on first use."""
    global _adam
    if _adam is None:
        with _adam_lock:
            if _adam is None:
                _adam = _load_adam()
    return _adam


def _load_adam() -> tuple:
    try:
        lib = _build_adam()
        step = ctypes.CDLL(str(lib)).colearn_adam_step
    except subprocess.CalledProcessError as e:
        return _fallback(f"{shlex.join(e.cmd)} failed: {(e.stderr or '').strip()[-500:]}")
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        return _fallback(f"{type(e).__name__}: {e}")
    step.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_size_t] + [ctypes.c_double] * 4
    step.restype = None
    return step, f"native ({lib})"


def _fallback(reason: str) -> tuple:
    warnings.warn(f"colearn: the C Adam step is unavailable, running the numpy step "
                  f"({reason})", RuntimeWarning)
    return None, f"numpy ({reason})"


def _compiler() -> list[str]:
    """The compiler Python was built with, if it is on PATH, else cc."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return cc if cc and shutil.which(cc[0]) else ["cc"]


def _build_adam() -> Path:
    """The path of the compiled C step, compiling it into the cache if it is
    not there yet. Processes that race here each compile to their own
    temporary name and rename it into place, so none loads a partial file.

    A library is named adam-<toolchain key>-<source key>.so, the toolchain
    key hashing the command and the machine type. Every source and
    toolchain keeps its own library: a build deletes nothing but its own
    temporary file."""
    source = resources.files(__package__).joinpath("_adam.c")
    command = [*_compiler(), *ADAM_CFLAGS]
    toolchain = hashlib.sha256(b"\0".join(
        (shlex.join(command).encode(), platform.machine().encode()))).hexdigest()[:12]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "colearn"
    lib = cache / f"adam-{toolchain}-{hashlib.sha256(source.read_bytes()).hexdigest()[:12]}.so"
    if not lib.exists():
        cache.mkdir(parents=True, exist_ok=True)
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            with resources.as_file(source) as path:
                subprocess.run([*command, "-o", str(tmp), str(path)], check=True,
                               capture_output=True, text=True, timeout=300)
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
    return lib


def fuse_rows(stacked: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Every receiver's fused predictions at once: out[r] is the sum over
    senders j of weights[r, j] * stacked[j]. `stacked` is (senders, batch,
    classes) and `weights` (receivers, senders). Senders are added in
    ascending order, zero weights included, so each element meets the same
    multiplies and adds in the same order for any number of receivers."""
    out = np.zeros((weights.shape[0], *stacked.shape[1:]))
    term = np.empty_like(out)
    for j in range(stacked.shape[0]):
        np.multiply(weights[:, j, None, None], stacked[j], out=term)
        out += term
    return out


def argmax_rows(mat: np.ndarray) -> np.ndarray:
    # np.argmax returns the first maximum: lowest-index tie-break
    return np.argmax(mat, axis=-1)
