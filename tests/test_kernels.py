"""Numerical behavior of the hot kernels, and how the C Adam step is built,
cached and checked."""

import math
import os
import platform
import shutil
import subprocess
import sys
import threading
import time
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from colearn import _kernels as kernels

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def rng():
    return np.random.default_rng(123)


def test_argmax_tie_break_lowest_index():
    mat = np.array([[0.5, 0.5, 0.1], [0.2, 0.3, 0.3], [1.0, 1.0, 1.0]])
    assert kernels.argmax_rows(mat).tolist() == [0, 1, 0]


def test_relu_dlogits_and_fuse_by_hand():
    z = np.array([[-1.0, 0.0, 2.5]])
    act = kernels.relu(z)
    assert act.tolist() == [[0.0, 0.0, 2.5]]
    assert kernels.relu_grad(np.array([[4.0, 5.0, 6.0]]), act).tolist() == [[0.0, 0.0, 6.0]]
    probs = np.array([[0.25, 0.75], [0.5, 0.5]])
    # (p - onehot(y)) / batch
    assert kernels.dlogits(probs, np.array([1, 0])).tolist() == [[0.125, -0.125], [-0.25, 0.25]]
    stacked = np.array([[[1.0, 0.0]], [[0.0, 1.0]], [[0.5, 0.5]]])
    weights = np.array([[0.5, 0.25, 0.25], [0.0, 0.0, 1.0]])
    assert kernels.fuse_rows(stacked, weights).tolist() == [[[0.625, 0.375]], [[0.5, 0.5]]]


def test_softmax_is_stable_at_large_logits():
    probs = kernels.softmax_rows(np.array([[1000.0, 0.0], [-1000.0, -1002.0]]))
    assert np.all(np.isfinite(probs))
    assert np.allclose(probs.sum(axis=1), 1.0)


# --- exp ----------------------------------------------------------------------

# np.linspace's arguments for 1.1 million points of exp's domain, about 1.05
# million of them with normal results
EXP_GRID = (-745.0, 0.0, 1_100_001)


def test_exp_is_within_1_5_ulp_of_a_long_double_exp():
    if np.finfo(np.longdouble).nmant <= np.finfo(np.float64).nmant:
        pytest.skip("long double is float64 here: no wider exp to compare with")
    x = np.linspace(*EXP_GRID)
    y = kernels.exp(x)
    exact = np.exp(x.astype(np.longdouble))
    normal = y >= np.finfo(np.float64).tiny
    ulps = np.abs(y.astype(np.longdouble) - exact) / np.spacing(exact.astype(np.float64))
    assert normal.sum() >= 10**6 and ulps[normal].max() <= 1.5


@pytest.mark.filterwarnings("error")
def test_exp_at_the_edges_of_its_domain():
    y = kernels.exp(np.array([0.0, -0.0, -745.0, -746.0, -1e300, -np.inf, np.nan]))
    assert y[:2].tolist() == [1.0, 1.0] and 0.0 < y[2] < 1e-320
    assert y[3:6].tolist() == [0.0, 0.0, 0.0] and np.isnan(y[6])


def test_exp_bits_do_not_depend_on_numpys_simd_loops():
    # the same bits with and without numpy's AVX-512, AVX2 and FMA loops,
    # where numpy's own exp changes its bits without the AVX-512 one
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("the numpy features named here are x86-64's")
    script = ("import hashlib, numpy as np; from colearn._kernels import exp; "
              f"print(hashlib.sha256(exp(np.linspace{EXP_GRID}).tobytes()).hexdigest())")
    digests = set()
    for disabled in ("", "X86_V4 AVX512_ICL AVX512_SPR X86_V3 AVX2 FMA3"):
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": disabled,
               "PYTHONPATH": str(ROOT / "src")}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout)
    assert len(digests) == 1


# --- the optimizer steps against their textbook expressions ------------------


def _adam_textbook(theta, grad, m, v, step, alpha, beta1, beta2, eps):
    # the bias corrections folded into the step size and epsilon
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * (grad * grad)
    root = math.sqrt(1.0 - beta2**step)
    theta -= (alpha * root / (1.0 - beta1**step)) * m / (np.sqrt(v) + eps * root)


# one element, a thousand, a power of two and an odd length past it
STEP_SIZES = [1, 1000, 65536, 131195]

# by step 400, 1 - 0.9**step rounds to 1.0; by step 40,000, 1 - 0.999**step does
ADAM_STEPS = (1, 2, 3, 4, 400, 40_000)

# every bias correction up to the step where both have reached 1.0
EVERY_STEP = (*range(1, 401), 40_000)

# (beta1, beta2): the defaults, and a pair whose corrections differ from theirs
BETAS = [(0.9, 0.999), (0.8, 0.99999)]


def _step_inputs(n, rng):
    """A gradient and Adam moments m and v where about a third of the
    elements hold values at the edges of the float64 range: +0 and -0,
    subnormals, magnitudes around 2^-900 and 2^900 and beyond them. At those
    elements the gradient is a signed zero, so that the values reach the
    update as they are, and theta is to be set to a signed zero, so that
    any bit of the update shows in it; they are returned as the mask.
    Elsewhere gradient magnitudes run from 1e-8 to 1e2, about one in ten
    exactly zero."""
    g = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 3, size=n)
    g[rng.random(n) < 0.1] = 0.0
    m = rng.standard_normal(n) * 1e-3
    v = rng.random(n) * 1e-6
    special = rng.random(n) < 0.35
    k = int(special.sum())
    exponents = rng.choice(np.array([
        -1074, -1060, -1040, -1023,          # subnormals
        -1022, -960, -920, -901, -900, -899, -880,
        880, 899, 900, 901, 920, 960, 1000,
    ]), size=k)
    mantissas = rng.uniform(1.0, 2.0, size=k)
    mantissas[rng.random(k) < 0.2] = 1.0  # exact powers of two
    mantissas[rng.random(k) < 0.1] = 0.0  # zeros
    values = np.ldexp(mantissas, exponents)
    sign = np.where(rng.random(k) < 0.5, -1.0, 1.0)
    m[special] = sign * values
    v[special] = rng.permutation(values)
    g[special] = np.where(rng.random(k) < 0.5, -0.0, 0.0)
    return special, g, m, v


def _same_bytes(a, b) -> bool:
    # unlike np.array_equal, tells -0.0 from +0.0 and matches equal NaNs
    return np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _adam_matches_textbook(n, rng, steps=ADAM_STEPS, betas=BETAS[0]):
    """Chains Adam steps from the same theta under the textbook expression
    and under kernels.adam_step, with fresh inputs at each step, and
    compares every array byte for byte."""
    beta1, beta2 = betas
    theta = rng.standard_normal(n)
    t_ref, t = theta.copy(), theta.copy()
    for step in steps:
        special, g, m_ref, v_ref = _step_inputs(n, rng)
        m, v = m_ref.copy(), v_ref.copy()
        t_ref[special] = t[special] = np.where(rng.random(int(special.sum())) < 0.5, -0.0, 0.0)
        with np.errstate(over="ignore", under="ignore"):
            _adam_textbook(t_ref, g, m_ref, v_ref, step, 3e-3, beta1, beta2, 1e-8)
        kernels.adam_step(t, g, m, v, step, 3e-3, beta1, beta2, 1e-8)
        assert _same_bytes(m, m_ref), f"m differs at step {step}"
        assert _same_bytes(v, v_ref), f"v differs at step {step}"
        assert _same_bytes(t, t_ref), f"theta differs at step {step}"


# the C step must build wherever a compiler is on PATH
needs_compiler = pytest.mark.skipif(shutil.which(kernels._compiler()[0]) is None,
                                    reason="no C compiler on PATH: Adam runs the numpy step")


@pytest.fixture(scope="session")
def built_adam(tmp_path_factory):
    """The C step, built once into a cache of its own, so that the tests do
    not depend on the user's cache, and the library's path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        patch.setattr(kernels, "_adam", None)
        choice = kernels._adam_choice()
        return choice, None if choice[0] is None else kernels._build_adam()


@pytest.fixture
def native_adam(built_adam, monkeypatch):
    choice, _ = built_adam
    assert choice[0] is not None, choice[1]
    monkeypatch.setattr(kernels, "_adam", choice)


def _has_avx2_fma() -> bool:
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        from numpy.core._multiarray_umath import __cpu_features__ as features
    return bool(features.get("AVX2") and features.get("FMA3"))


@pytest.fixture(scope="session")
def fma_adam(tmp_path_factory):
    """The C step built as the package builds it, but with AVX2 and FMA
    instructions open to the compiler, in a cache of its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("fma-cache")))
        patch.setattr(kernels, "ADAM_CFLAGS", (*kernels.ADAM_CFLAGS, "-mavx2", "-mfma"))
        return kernels._load_adam()


@pytest.fixture(params=["fma", "portable"])
def c_loop(request, built_adam, monkeypatch):
    """Every Adam step of the test runs the C loop built with FMA open to
    the compiler, where this CPU has AVX2 and FMA, or as the package builds
    it for any CPU of the machine type. -ffp-contract=off must keep both to
    the same bits."""
    if request.param == "fma":
        if platform.machine() not in ("x86_64", "AMD64") or not _has_avx2_fma():
            pytest.skip("this CPU lacks AVX2 or FMA")
        choice = request.getfixturevalue("fma_adam")
    else:
        choice = built_adam[0]
    assert choice[0] is not None, choice[1]
    monkeypatch.setattr(kernels, "_adam", choice)


@pytest.fixture
def fresh_adam(monkeypatch, tmp_path):
    """No Adam step chosen yet in this process, and an empty cache."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernels, "_adam", None)
    return tmp_path / "cache" / "colearn"


@pytest.mark.parametrize("n", STEP_SIZES)
def test_numpy_adam_step_is_textbook_bit_for_bit(n, rng, numpy_adam):
    _adam_matches_textbook(n, rng)


@pytest.mark.parametrize("betas", BETAS)
def test_numpy_adam_step_every_bias_correction(betas, rng, numpy_adam):
    _adam_matches_textbook(37, rng, EVERY_STEP, betas)


@needs_compiler
@pytest.mark.parametrize("n", STEP_SIZES)
def test_native_adam_step_is_textbook_bit_for_bit(n, rng, native_adam):
    _adam_matches_textbook(n, rng)


@needs_compiler
@pytest.mark.parametrize("betas", BETAS)
def test_c_adam_loop_every_bias_correction(betas, rng, c_loop):
    # 37 elements: an odd count, so the vectorized loop has a scalar tail
    _adam_matches_textbook(37, rng, EVERY_STEP, betas)


@needs_compiler
def test_adam_kernel_names_the_loop(built_adam):
    choice, lib = built_adam
    assert choice[1] == f"native ({lib})"


@pytest.mark.parametrize("betas", BETAS)
def test_folded_update_is_near_the_bias_corrected_one(betas, rng):
    # the folded update lies within 16 * 2^-53 of its magnitude of alpha *
    # (m / bc1) / (sqrt(v / bc2) + eps), on normal-range moments and
    # gradients whose sqrt(v) runs from far below eps to far above it
    beta1, beta2 = betas
    n, alpha, eps = 100_000, 3e-3, 1e-8
    for step in ADAM_STEPS:
        g = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 2, size=n)
        m = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 0, size=n)
        v = 10.0 ** rng.uniform(-24, 0, size=n)
        theta = np.zeros(n)
        kernels.adam_step(theta, g, m, v, step, alpha, beta1, beta2, eps)
        update = -theta
        bc1, bc2 = 1.0 - beta1**step, 1.0 - beta2**step
        corrected = alpha * (m / bc1) / (np.sqrt(v / bc2) + eps)
        assert np.all(np.abs(update - corrected) <= 16 * 2.0**-53 * np.abs(corrected)), (
            f"step {step}: worst {np.max(np.abs(update / corrected - 1.0)) * 2**53:.1f} * 2^-53")


def _bad(n, which):
    theta, g, m, v = np.ones(n), np.full(n, 0.5), np.zeros(n), np.zeros(n)
    if which == "float32":
        g = g.astype(np.float32)
    elif which == "non-contiguous":
        g = np.full(2 * n, 0.5)[::2]
    elif which == "mismatched length":
        m = np.zeros(n + 1)
    elif which == "read-only":
        v.flags.writeable = False
    elif which == "2-D":
        theta, g, m, v = (a.reshape(2, n // 2) for a in (theta, g, m, v))
    return theta, g, m, v


@needs_compiler
@pytest.mark.parametrize(
    "which", ["float32", "non-contiguous", "mismatched length", "read-only", "2-D"])
def test_adam_step_rejects_what_the_c_step_cannot_take(which, native_adam):
    theta, g, m, v = _bad(1000, which)
    before = [a.copy() for a in (theta, m, v)]
    with pytest.raises(ValueError, match="adam_step"):
        kernels.adam_step(theta, g, m, v, 1, 1e-3, 0.9, 0.999, 1e-8)
    assert all(np.array_equal(a, b) for a, b in zip((theta, m, v), before))


@pytest.mark.parametrize("broken", ["missing compiler", "failing compiler", "unwritable cache"])
def test_adam_falls_back_to_numpy_without_a_build(broken, fresh_adam, monkeypatch, tmp_path,
                                                  rng):
    if broken == "missing compiler":
        # neither the compiler Python names nor cc is on PATH
        monkeypatch.setattr(kernels.sysconfig, "get_config_var", lambda name: "no-such-cc")
        monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    elif broken == "failing compiler":
        cc = tmp_path / "cc"
        cc.write_text("#!/bin/sh\necho 'cc: internal error' >&2\nexit 1\n")
        cc.chmod(0o755)
        monkeypatch.setattr(kernels.sysconfig, "get_config_var", lambda name: str(cc))
    else:
        (tmp_path / "cache").write_text("a file where the cache directory should be")
    with pytest.warns(RuntimeWarning, match="running the numpy step"):
        _adam_matches_textbook(1000, rng)
    assert kernels.adam_kernel().startswith("numpy (")
    if broken == "failing compiler":
        assert "cc: internal error" in kernels.adam_kernel()
    assert not list(tmp_path.rglob("adam-*"))


@needs_compiler
def test_concurrent_first_use_builds_once(fresh_adam, monkeypatch):
    runs, run = [], subprocess.run
    monkeypatch.setattr(kernels.subprocess, "run",
                        lambda *args, **kwargs: runs.append(args) or run(*args, **kwargs))
    n, threads = 5000, 4
    start = threading.Barrier(threads)
    theta = np.random.default_rng(1).standard_normal(n)
    g = np.linspace(-1.0, 1.0, n)
    results = [None] * threads

    def first_step(i):
        t, m, v = theta.copy(), np.zeros(n), np.zeros(n)
        start.wait(timeout=30)
        kernels.adam_step(t, g, m, v, 1, 1e-3, 0.9, 0.999, 1e-8)
        results[i] = t

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=first_step, args=(i,)) for i in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert len(runs) == 1
    assert kernels.adam_kernel().startswith("native ")
    assert [p.suffix for p in fresh_adam.iterdir()] == [".so"]
    ref = theta.copy()
    _adam_textbook(ref, g, np.zeros(n), np.zeros(n), 1, 1e-3, 0.9, 0.999, 1e-8)
    assert all(np.array_equal(r, ref) for r in results)


def _toolchain(lib):
    """The toolchain key of a cached library's name, adam-<toolchain>-<source>.so."""
    return lib.name.split("-")[1]


@needs_compiler
def test_build_deletes_nothing(fresh_adam):
    # learn this toolchain's key from one build, then build again in an
    # emptied cache that holds other libraries and another process's build
    toolchain = _toolchain(kernels._build_adam())
    shutil.rmtree(fresh_adam)
    fresh_adam.mkdir(parents=True)
    older = fresh_adam / f"adam-{toolchain}-{'0' * 12}.so"
    older.write_bytes(b"a library of another source, last used a year ago")
    building = fresh_adam / f"adam-{toolchain}-{'1' * 12}.so.4242.tmp"
    building.write_bytes(b"another process's build in progress")
    other = fresh_adam / f"adam-{'f' * 12}-{'0' * 12}.so"
    other.write_bytes(b"a library of another compiler or machine")
    a_year_ago = time.time() - 365 * 24 * 3600
    for path in (older, building, other):
        os.utime(path, (a_year_ago, a_year_ago))
    assert kernels.adam_kernel().startswith("native ")
    lib = kernels._build_adam()
    assert sorted(p.name for p in fresh_adam.iterdir()) == sorted(
        [lib.name, older.name, building.name, other.name])


@needs_compiler
def test_two_sources_used_in_turn_compile_once_each(fresh_adam, monkeypatch, tmp_path):
    # two checkouts whose _adam.c differ share one cache, as alternating
    # benchmark runs of two versions do; the package's source is looked up
    # in whichever is in use
    shipped = resources.files("colearn").joinpath("_adam.c").read_text()
    sources = []
    for name, text in (("a", shipped), ("b", shipped + "/* another version */\n")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "_adam.c").write_text(text)
        sources.append(tmp_path / name)
    runs, run = [], subprocess.run
    monkeypatch.setattr(kernels.subprocess, "run",
                        lambda *args, **kwargs: runs.append(args) or run(*args, **kwargs))
    libs = []
    for source in sources * 3:
        monkeypatch.setattr(kernels.resources, "files", lambda package, source=source: source)
        libs.append(kernels._build_adam())
    assert len(runs) == 2
    assert len(set(libs)) == 2 and all(lib.exists() for lib in libs)


@needs_compiler
def test_build_keeps_other_compilers_libraries(fresh_adam, monkeypatch):
    # two compilers share one cache: neither build deletes the other's library
    built = kernels._build_adam()
    monkeypatch.setattr(kernels, "ADAM_CFLAGS", (*kernels.ADAM_CFLAGS, "-DOTHER_COMPILER"))
    other = kernels._build_adam()
    assert _toolchain(other) != _toolchain(built)
    assert built.exists() and other.exists()


@needs_compiler
def test_second_process_reuses_the_cached_library(tmp_path):
    # each process reports its Adam step and how many commands it ran to get it
    script = (
        "import subprocess\n"
        "from colearn import _kernels\n"
        "runs, run = [], subprocess.run\n"
        "subprocess.run = lambda *a, **k: runs.append(a) or run(*a, **k)\n"
        "print(_kernels.adam_kernel())\n"
        "print(len(runs))\n"
    )
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=str(ROOT / "src"))
    outputs = []
    for _ in range(2):
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split("\n")[:2])
    (first, built), (second, rebuilt) = outputs
    assert first.startswith("native ") and first == second
    assert first.split(" (", 1)[1].startswith(str(tmp_path / "colearn"))
    assert (built, rebuilt) == ("1", "0")


def test_adam_source_ships_as_package_data(tmp_path):
    # build the package from a copy of the project, as an install does, and
    # look the source up in the built copy
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copytree(ROOT / "src" / "colearn", tmp_path / "src" / "colearn",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-c", "import setuptools; setuptools.setup()", "build",
         "--build-lib", "lib"], cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    found = subprocess.run(
        [sys.executable, "-c", "from importlib import resources; "
         "print(resources.files('colearn').joinpath('_adam.c').read_text())"],
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(tmp_path / "lib")),
        capture_output=True, text=True, timeout=300,
    )
    assert found.returncode == 0, found.stderr
    assert found.stdout.strip() == (ROOT / "src" / "colearn" / "_adam.c").read_text().strip()


# --- the first layer on AMX int8 limbs -----------------------------------------

needs_amx = pytest.mark.skipif(not kernels.amx_ready(),
                               reason=f"no AMX int8 limbs here: {kernels._amx_choice()[1]}")


def _unpacked(packed, d, n):
    """The limbs (3 x d x n int64) from their B tiles: per block of 16
    columns, block of 64 inputs and limb, tile row r holds the limbs of
    inputs 4r .. 4r + 3 of each column c in bytes 4c .. 4c + 3."""
    kb, nb = -(-d // 64), -(-n // 16)
    tiles = packed.reshape(nb, kb, 3, 16, 16, 4)  # column block, input block, limb, r, c, i
    limbs = tiles.transpose(2, 1, 3, 5, 0, 4).reshape(3, kb * 64, nb * 16)
    assert not limbs[:, d:].any() and not limbs[:, :, n:].any()  # the padding is zero
    return limbs[:, :d, :n].astype(np.int64)


def _tiles(limbs):
    """`_unpacked`'s inverse: the B tiles of limbs (3 x d x n)."""
    _, d, n = limbs.shape
    kb, nb = -(-d // 64), -(-n // 16)
    padded = np.zeros((3, kb * 64, nb * 16), dtype=np.int8)
    padded[:, :d, :n] = limbs
    return np.ascontiguousarray(padded.reshape(3, kb, 16, 4, nb, 16).transpose(4, 1, 0, 2, 5, 3)
                                .reshape(-1))


def _packed(w):
    packed = np.empty(kernels.limb_bytes(*w.shape), dtype=np.int8)
    scales = np.empty(w.shape[1])
    assert kernels.pack_limbs(w, packed, scales)
    return packed, scales, _unpacked(packed, *w.shape)


def _edge_weights(d, n, rng):
    """d x n weights: random columns, then an all-zero column, one whose
    largest |W / 255| is exactly 127 * 2^e, one of +-max weights, and one
    whose limbs reach +-127 and +-64."""
    w = rng.standard_normal((d, n)) * 10.0 ** rng.uniform(-3, 1, size=n)
    s = 2.0**-9
    special = [np.zeros(d), np.where(np.arange(d) % 2, 1.0, 0.25) * 255 * 127 * s,
               np.where(np.arange(d) % 2, 1.0, -1.0) * 0.7,
               255 * s * np.resize([127.0, -127.0, 0.5, -0.5, 2.0**-8, -2.0**-8, 1.5], d)]
    for j, column in enumerate(special[: n]):
        w[:, j] = column
    return w


# (rows, inputs, outputs): rows and outputs that are not multiples of 16, and
# inputs that are not multiples of 64
LIMB_SHAPES = [(1, 1, 1), (17, 70, 17), (33, 784, 10), (16, 64, 16), (50, 130, 33), (7, 5, 4)]


@needs_amx
@pytest.mark.parametrize("d, n", sorted({(d, n) for _, d, n in LIMB_SHAPES}))
def test_packed_limbs_rebuild_the_weights(d, n):
    # V = fl(W / 255) within 2^-15 s_j of s_j (q1 + 2^-7 q2 + 2^-14 q3), with
    # |q1| <= 127 and |q2|, |q3| <= 64, and s_j the least power of two with
    # max |V_j| <= 127 s_j (the least normal number for a zero column)
    w = _edge_weights(d, n, np.random.default_rng(d * 100 + n))
    _, scales, (q1, q2, q3) = _packed(w)
    v = w / 255.0
    assert np.abs(q1).max() <= 127 and max(np.abs(q2).max(), np.abs(q3).max()) <= 64
    rebuilt = scales * (q1 + q2 * 2.0**-7 + q3 * 2.0**-14)
    assert np.all(np.abs(rebuilt - v) <= 2.0**-15 * scales)
    top = np.abs(v).max(axis=0)
    assert np.all(np.frexp(scales)[0] == 0.5)  # powers of two
    assert np.all((top <= 127 * scales) & ((top > 63.5 * scales) | (top == 0)))
    assert np.all(scales[top == 0] == np.finfo(np.float64).tiny)
    if n >= 2:
        assert np.abs(q1[:, 1]).max() == 127 and np.all(rebuilt[:, 1] == v[:, 1])
    if n >= 4:
        assert {127, -127, 64, -64} <= set(q1[:, 3]) | set(q2[:, 3]) | set(q3[:, 3])


@needs_amx
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e-305], ids=["nan", "inf", "-inf",
                                                                      "subnormal-scale"])
def test_weights_that_do_not_pack(bad):
    w = np.random.default_rng(1).standard_normal((20, 3))
    if bad == 1e-305:
        w[:, 1] = bad  # |W / 255| below 127 times the least normal number
    else:
        w[4, 2] = bad
    packed = np.empty(kernels.limb_bytes(20, 3), dtype=np.int8)
    assert not kernels.pack_limbs(w, packed, np.empty(3))


def _limb_rows(m, d, rng):
    """m rows of d random bytes, the first all 255s and the second all 0s."""
    rows = rng.integers(0, 256, size=(m, d), dtype=np.uint8)
    rows[0] = 255
    rows[1:2] = 0
    return rows


@needs_amx
@pytest.mark.parametrize("m, d, n", LIMB_SHAPES)
def test_limb_sums_are_exact(m, d, n):
    # each limb's int32 sums are those of int64 arithmetic: the kernel runs
    # on one limb at a time, the others zero and every s_j 1, so that each
    # output is 2^-7l A_l, exact in float32 while |A_l| < 2^24
    rng = np.random.default_rng(m + d + n)
    _, _, limbs = _packed(_edge_weights(d, n, rng))
    rows = _limb_rows(m, d, rng)
    want = np.einsum("ik,lkj->lij", rows.astype(np.int64), limbs)
    assert np.abs(want).max() < 2**24
    for l in range(3):
        alone = np.zeros_like(limbs)
        alone[l] = limbs[l]
        out = kernels.first_layer(rows, _tiles(alone), np.ones(n), out=np.empty((m, n), np.float32))
        assert np.array_equal(np.ldexp(out.astype(np.float64), 7 * l), want[l])


@needs_amx
@pytest.mark.parametrize("m, d, n", LIMB_SHAPES)
def test_first_layer_is_the_limb_sums_rounded_once(m, d, n):
    # s_j (A0 + 2^-7 A1 + 2^-14 A2), exact in float64, rounded once to float32
    rng = np.random.default_rng(m * d * n)
    packed, scales, limbs = _packed(_edge_weights(d, n, rng))
    rows = _limb_rows(m, d, rng)
    a0, a1, a2 = np.einsum("ik,lkj->lij", rows.astype(np.int64), limbs)
    want = (scales * ((a0 + a1 * 2.0**-7) + a2 * 2.0**-14)).astype(np.float32)
    got = kernels.first_layer(rows, packed, scales, out=np.empty((m, n), dtype=np.float32))
    assert got.tobytes() == want.tobytes()


@needs_amx
@pytest.mark.parametrize("m, d", [(1, 1), (17, 70), (40, 784), (3, 66311)])
def test_byte_sums_are_exact(m, d):
    rows = _limb_rows(m, d, np.random.default_rng(d))
    sums, squares = np.empty((2, m))
    kernels.byte_sums(rows, sums, squares)
    wide = rows.astype(np.int64)
    assert sums.tolist() == wide.sum(axis=1).tolist()
    assert squares.tolist() == (wide * wide).sum(axis=1).tolist()


def test_adam_kernel_names_the_first_layer():
    choice = kernels._amx_choice()
    assert kernels.adam_kernel().endswith(f"; first layer {choice[1]}")
    assert choice[1].startswith("AMX int8 (" if choice[0] is not None else "float32 (")
