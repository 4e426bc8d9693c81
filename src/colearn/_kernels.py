"""Hot numeric kernels: numpy, plus one fused C loop for the Adam step.

Layer matmuls go through BLAS; the kernels here cover the elementwise-heavy
work: activations, softmax cross-entropy, optimizer steps and prediction
fusion.

The Adam step runs in C where it can. `_adam.c`, shipped in this package, is
compiled on the first Adam step of a process with the compiler Python
reports (`sysconfig` CC, else `cc`) and the flags in `ADAM_CFLAGS`, cached
under `$XDG_CACHE_HOME/colearn` (else `~/.cache/colearn`) keyed by the
source, the command and the machine type, and loaded with ctypes. Each use
of a cached library touches it, and a build deletes the libraries its
compiler and machine built from other sources that have gone unused for
`STALE_AFTER_S`, so two sources used in turn keep one library each.
Its one pass over the parameters replaces the 14 ufunc passes of the numpy
step, and a ctypes call releases the interpreter lock, so the agent pool's
threads run whole Adam steps side by side. The library holds two loops:
an AVX2+FMA one without the bias corrections' divides, which runs where the
CPU has those instructions, and the portable one. Where no compiler or
cache works, a `RuntimeWarning` says why and the numpy step runs instead;
`adam_kernel()` names the step and the loop this process runs. All give the
same bits.

The numpy optimizer steps (SGD, and Adam's fallback) update their arrays in
place and walk the parameter vector in cache-sized blocks, writing every
intermediate into a small reused scratch buffer instead of allocating
parameter-sized temporaries. Each element still goes through the same
correctly rounded operations in the same order as the textbook one-line
expression, so the results are bit for bit those of that expression.

All kernels expect C-contiguous float64 arrays (labels int64); reductions
accumulate in a fixed order, so results are reproducible run to run.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shlex
import shutil
import subprocess
import sysconfig
import threading
import time
import warnings
from importlib import resources
from pathlib import Path

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
    """One Adam step, in place: the moment updates, then theta -= alpha *
    (m / bc1) / (sqrt(v / bc2) + eps). Runs the fused C loop where it could
    be built, else the blocked numpy step; both give the textbook bits.

    The four arrays must be 1-D, C-contiguous float64 of one length, and
    theta, m and v writeable: the C loop trusts its pointers, so anything
    else raises ValueError here instead of corrupting memory there."""
    _check_adam_arrays(theta, grad, m, v)
    bc1 = 1.0 - beta1**step
    bc2 = 1.0 - beta2**step
    native = _adam_choice()[0]
    if native is None:
        _adam_numpy(theta, grad, m, v, alpha, beta1, beta2, eps, bc1, bc2)
    else:
        native(theta.ctypes.data, grad.ctypes.data, m.ctypes.data, v.ctypes.data,
               theta.shape[0], alpha, beta1, beta2, eps, bc1, bc2)


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


def _adam_numpy(theta, grad, m, v, alpha, beta1, beta2, eps, bc1, bc2) -> None:
    # theta -= alpha * (m / bc1) / (np.sqrt(v / bc2) + eps) after the moment
    # updates, one block at a time. Each element meets the same operations in
    # the same order as in that one-line expression, which keeps the bits.
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


# --- the fused C Adam step, built on first use --------------------------------

# -O3 vectorizes the loop (-O2 does not). -ffp-contract=off keeps the compiler
# from fusing a multiply and an add into one differently rounded operation,
# which would change the bits wherever the CPU has FMA; the FMA loop states
# its own fused operations. No -march: the cache is keyed by machine type
# only, so the library must load on any CPU of it, and the FMA loop takes its
# instructions from a target attribute and runs only where the CPU has them.
ADAM_CFLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")

# A build deletes its toolchain's libraries of other sources that have gone
# unused this long (a week).
STALE_AFTER_S = 7 * 24 * 3600

# (C step or None, description) once resolved; guarded by _adam_lock
_adam: tuple | None = None
_adam_lock = threading.Lock()


def adam_kernel() -> str:
    """Which Adam step this process runs: "native fma (<library>)",
    "native portable (<library>)" or "numpy (<why the C step is
    unavailable>)". Builds the C step if no step has been chosen yet."""
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
        try:
            library = ctypes.CDLL(str(lib))
        except OSError:
            if lib.exists():
                raise
            # a build of another source deleted it after it was found
            lib = _build_adam()
            library = ctypes.CDLL(str(lib))
        loop = "fma" if library.colearn_adam_has_fma() else "portable"
        step = _c_loop(library, loop)
    except subprocess.CalledProcessError as e:
        return _fallback(f"{shlex.join(e.cmd)} failed: {(e.stderr or '').strip()[-500:]}")
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        return _fallback(f"{type(e).__name__}: {e}")
    return step, f"native {loop} ({lib})"


def _c_loop(library: ctypes.CDLL, loop: str):
    """The library's `loop` ("fma" or "portable") as a callable C step."""
    step = getattr(library, f"colearn_adam_step_{loop}")
    step.argtypes = [ctypes.c_void_p] * 4 + [ctypes.c_size_t] + [ctypes.c_double] * 6
    step.restype = None
    return step


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
    key hashing the command and the machine type. Finding the library in
    the cache touches it. A build deletes the libraries of its toolchain
    built from other sources that have gone unused for `STALE_AFTER_S`;
    those of other compilers or machines sharing the cache stay."""
    source = resources.files(__package__).joinpath("_adam.c")
    command = [*_compiler(), *ADAM_CFLAGS]
    toolchain = hashlib.sha256(b"\0".join(
        (shlex.join(command).encode(), platform.machine().encode()))).hexdigest()[:12]
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "colearn"
    lib = cache / f"adam-{toolchain}-{hashlib.sha256(source.read_bytes()).hexdigest()[:12]}.so"
    if lib.exists():
        try:
            os.utime(lib)  # used now: other sources' builds keep it
        except OSError:
            pass
    else:
        cache.mkdir(parents=True, exist_ok=True)
        tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
        try:
            with resources.as_file(source) as path:
                subprocess.run([*command, "-o", str(tmp), str(path)], check=True,
                               capture_output=True, text=True, timeout=300)
            os.replace(tmp, lib)
        finally:
            tmp.unlink(missing_ok=True)
        # another process's build in progress is a .tmp file and stays
        unused_since = time.time() - STALE_AFTER_S
        for stale in cache.glob(f"adam-{toolchain}-*.so"):
            if stale != lib:
                try:
                    if stale.stat().st_mtime < unused_since:
                        stale.unlink()
                except OSError:
                    pass
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
