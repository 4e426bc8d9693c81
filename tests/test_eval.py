"""Test-set evaluation: float32 screening under a proven error bound, its
first layer on AMX int8 limbs or in float32, the float64 rescoring of open
rows, and the float64 row pass that settles near ties, against an oracle
that scores every row with its row pass. The checks of counts and bounds
run on each first layer this process can run (`first_layers`)."""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from colearn import _kernels as kernels  # noqa: E402
from colearn import learner  # noqa: E402
from colearn.data import Dataset, decode, load_idx, write_idx  # noqa: E402
from colearn.learner import (  # noqa: E402
    EVAL_CHUNK,
    Architecture,
    _activations,
    _certain,
    _norm_up,
    _row_norms,
    _spectral_norm,
    _weight_norms,
    accuracy,
    init_params,
    param_count,
    param_views,
)
from colearn.parallel import AgentPool  # noqa: E402

from conftest import every_row, first_layer, first_layers  # noqa: E402


def row_argmax(arch, theta, x):
    """Every row's argmax from a float64 pass over that row alone."""
    x64 = np.ascontiguousarray(decode(every_row(x)))
    return np.array([kernels.argmax_rows(_activations(arch, theta, x64[i : i + 1])[-1])[0]
                     for i in range(x.shape[0])], dtype=np.int64)


def oracle_accuracies(models, eval_set):
    """Evaluation by its definition, with no screening: every row scored by
    each model's float64 pass over that row alone."""
    x, y = eval_set.features, eval_set.labels
    return [int((row_argmax(arch, theta, x) == y).sum()) / x.shape[0] for arch, theta in models]


def assert_oracle_counts(models, x, seed=0):
    """Each model alone, labeled with its own row-pass argmax, scores 1.0,
    so one row counted differently shows; all models together on random
    labels match the oracle. At pool sizes 1 and 2, on each first layer."""
    num_classes = models[0][0].num_classes
    y = np.random.default_rng(seed).integers(0, num_classes, size=x.shape[0])
    owns = [Dataset(x, row_argmax(arch, theta, x), num_classes) for arch, theta in models]
    labeled = Dataset(x, y, num_classes)
    oracle = oracle_accuracies(models, labeled)
    for path, size in [(path, size) for path in first_layers() for size in (1, 2)]:
        with first_layer(path), AgentPool(size) as pool:
            for model, own in zip(models, owns):
                assert accuracy([model], own, pool) == [1.0], path
            assert accuracy(models, labeled, pool) == oracle, path


def shl(weights, bias) -> tuple[Architecture, np.ndarray]:
    """An SHL model with these (input_dim, classes) weights and bias."""
    w = np.asarray(weights, dtype=np.float64)
    arch = Architecture("SHL", w.shape[0], w.shape[1])
    theta = np.zeros(param_count(arch))
    (w_view, b_view), = param_views(arch, theta)
    w_view[:], b_view[:] = w, bias
    return arch, theta


def net(kind, input_dim, classes, seed, scale=1.0):
    """A small net of `kind`; "HL2-rank1" is an HL2 whose middle layer is
    rank one, so that its spectral norm is its Frobenius norm, and
    "HL2-biased" an HL2 with weights scaled by a further 2^-20 and positive
    biases, near 1e3 at the output, so that the biases' terms lead its
    bound."""
    hidden = {"SHL": (), "HL1": (6,), "HL2": (7, 5), "HL2-rank1": (12, 9),
              "HL2-biased": (7, 5)}[kind]
    arch = Architecture(kind.split("-")[0], input_dim, classes, hidden)
    theta = init_params(arch, seed) * scale
    if kind == "HL2-rank1":
        w = param_views(arch, theta)[1][0]
        w[:] = np.outer(w[:, 0], np.sign(w[0]))
    if kind == "HL2-biased":
        rng = np.random.default_rng(seed)
        for l, (w, b) in enumerate(param_views(arch, theta)):
            w *= 2.0**-20
            b[:] = rng.uniform(0.5, 1.0, size=b.shape) * (1e3 if l == 2 else 1.0)
    return arch, theta


# --- the counts ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["SHL", "HL1", "HL2"]), input_dim=st.integers(1, 9),
       classes=st.integers(1, 5), rows=st.integers(1, 60), seed=st.integers(0, 10**6),
       pixels=st.booleans(), grid=st.booleans())
def test_counts_equal_the_float64_row_pass(kind, input_dim, classes, rows, seed, pixels,
                                           grid):
    rng = np.random.default_rng(seed)
    models = [net(kind, input_dim, classes, seed), net("SHL", input_dim, classes, seed + 1)]
    if grid:
        # weights on a coarse grid: exact and near ties are common
        models = [(arch, np.round(theta * 4.0) / 4.0) for arch, theta in models]
    x = (rng.integers(0, 256, size=(rows, input_dim), dtype=np.uint8) if pixels
         else rng.standard_normal((rows, input_dim)))
    assert_oracle_counts(models, x, seed)


def exact_ties():
    """An HL1 model whose classes 1 and 2 tie on every row, and its rows."""
    arch, theta = net("HL1", 5, 4, seed=3)
    w, b = param_views(arch, theta)[-1]
    w[:, 2], b[2] = w[:, 1], b[1]
    x = np.random.default_rng(0).integers(0, 256, size=(300, 5), dtype=np.uint8)
    return [(arch, theta)], x


def near_ties():
    """Class 1 beats class 0 by about 1e-12 of the logits where the second
    feature is positive: float32 sees a tie, float64 does not; every third
    row is an exact tie."""
    x = np.abs(np.random.default_rng(1).standard_normal((200, 2)))
    x[::3, 1] = 0.0
    return [shl([[1.0, 1.0], [0.0, 1e-12]], [0.0, 0.0])], x


def all_rows_open():
    """Every row an exact tie, so every row of every chunk stays open, over
    more rows than two chunks."""
    x = np.random.default_rng(5).integers(0, 256, size=(2 * EVAL_CHUNK + 5, 3), dtype=np.uint8)
    return [shl([[1.0, 1.0, 0.0]] * 3, [0.5, 0.5, 0.0])], x


def test_exact_ties_from_duplicated_output_columns():
    assert_oracle_counts(*exact_ties())


def test_near_ties_below_float32_resolution():
    assert_oracle_counts(*near_ties())


@pytest.mark.filterwarnings("error")  # the float32 pass's overflows are its own
@pytest.mark.parametrize("scale", [1e30, 1e-40], ids=["float32-overflow", "subnormal"])
def test_weights_at_the_edges_of_float32(scale):
    x = np.random.default_rng(2).integers(0, 256, size=(200, 6), dtype=np.uint8)
    models = [net(kind, 6, 3, seed=5, scale=scale) for kind in ("SHL", "HL1", "HL2")]
    assert_oracle_counts(models, x)


def test_features_that_underflow_float32():
    # the float32 decode is all zeros; the float64 logits are not
    x = np.full((20, 2), 1e-46)
    x[::2, 1] = 3e-46
    assert_oracle_counts([shl([[1e30, 0.0], [0.0, 4e29]], [0.0, 1e-20])], x)


def test_nan_parameters():
    arch, theta = net("HL2", 4, 3, seed=7)
    theta[5] = np.nan
    other = net("SHL", 4, 3, seed=8)
    x = np.random.default_rng(3).standard_normal((50, 4))
    assert_oracle_counts([(arch, theta), other], x)


def test_coherent_rounding():
    # input, weight and product all round up by about half a float32 unit:
    # the float32 logit of class 0 exceeds class 1's, the exact one does not
    near_up = 1.0 + 2.0**-24 + 2.0**-40
    x = np.full((3, 1), near_up)
    assert_oracle_counts([shl([[near_up, 0.0]], [0.0, 1.0 + 1.2 * 2.0**-23])], x)


def test_ragged_last_chunk():
    # longer than a chunk, so the HL2 net's bound carries its spectral norm
    x = np.random.default_rng(4).integers(0, 256, size=(EVAL_CHUNK + 37, 8), dtype=np.uint8)
    assert_oracle_counts([net("HL1", 8, 4, seed=9), net("SHL", 8, 4, seed=10),
                          net("HL2", 8, 4, seed=11)], x)


def test_idx_rows_are_scored_as_their_bytes(tmp_path):
    # an IDX set's chunks are read from its file into each thread's buffer,
    # the ragged last one too
    x = np.random.default_rng(4).integers(0, 256, size=(EVAL_CHUNK + 37, 8), dtype=np.uint8)
    write_idx(x.reshape(-1, 8, 1), np.zeros(len(x)), tmp_path / "i", tmp_path / "l")
    rows = load_idx(tmp_path / "i", tmp_path / "l").features
    assert_oracle_counts([net("HL1", 8, 4, seed=9), net("HL2", 8, 4, seed=11)], rows)


def test_more_open_rows_than_a_chunk():
    assert_oracle_counts(*all_rows_open())


@pytest.mark.parametrize("case", [exact_ties, near_ties, all_rows_open])
def test_counts_do_not_depend_on_the_chunk_size(case, monkeypatch):
    # the same counts on random labels in 7-row chunks as in EVAL_CHUNK-row
    # ones (512) on each first layer, and still the row pass's on every row
    models, x = case()
    classes = models[0][0].num_classes
    labeled = Dataset(x, np.random.default_rng(6).integers(0, classes, size=x.shape[0]), classes)
    for path in first_layers():
        with first_layer(path):
            monkeypatch.setattr(learner, "EVAL_CHUNK", EVAL_CHUNK)
            at_eval_chunk = accuracy(models, labeled)
            monkeypatch.setattr(learner, "EVAL_CHUNK", 7)
            assert accuracy(models, labeled) == at_eval_chunk, path
    assert_oracle_counts(models, x)


def test_same_shape_models_each_get_their_own_float32_weights():
    # two HL1 models of one shape scored in one call, as a CL run's two HL1
    # agents are: each count is that of a call of the model alone
    x = np.random.default_rng(8).standard_normal((2 * EVAL_CHUNK + 5, 8))
    models = [net("HL1", 8, 4, seed=seed) for seed in (21, 22)]
    assert models[0][0] == models[1][0]
    labeled = Dataset(x, row_argmax(*models[1], x), 4)
    alone = [accuracy([model], labeled)[0] for model in models]
    assert alone[0] < alone[1] == 1.0
    for size in (1, 2):
        with AgentPool(size) as pool:
            assert accuracy(models, labeled, pool) == alone


def screen_pass(arch, theta, x, spectral=True):
    """The activations and bound of one screen of `x`, a single chunk."""
    stats = np.empty((2, len(x))) if learner._on_limbs(x) else None
    return next(learner._screens(arch, theta, _weight_norms(arch, theta, spectral), x, [0],
                                 stats, True))[1:]


def test_a_float32_pass_keeps_each_layer_apart():
    # each layer's float32 output, written into the workspace, is still that
    # layer's product of the one before once the pass is done, on each
    # first layer
    arch, theta = net("HL2", 8, 4, seed=12)
    x = np.random.default_rng(9).integers(0, 256, size=(40, 8), dtype=np.uint8)
    layers = param_views(arch, theta)
    for path in first_layers():
        with first_layer(path):
            acts, _ = screen_pass(arch, theta, x)
        for l, (w, b) in enumerate(layers):
            a = decode(x) if l == 0 else acts[l]
            z = a @ w.astype(a.dtype) + b.astype(a.dtype)
            want = np.maximum(z, 0.0) if l < len(layers) - 1 else z
            np.testing.assert_allclose(acts[l + 1], want, rtol=1e-5, atol=1e-6, err_msg=path)


def test_an_evaluation_chunk_allocates_nothing(tmp_path):
    # after a warm call on a fresh thread, a call over three chunks of an IDX
    # set takes every chunk's rows, their float32 decode or byte sums, the
    # packed or cast weights and the activations from the thread's
    # workspace: its peak stays below the float32 rows of one chunk, on
    # each first layer
    d = 784
    rng = np.random.default_rng(10)
    x = rng.integers(0, 256, size=(3 * EVAL_CHUNK, d), dtype=np.uint8)
    write_idx(x.reshape(-1, 28, 28), rng.integers(0, 10, size=len(x)),
              tmp_path / "i", tmp_path / "l")
    test = load_idx(tmp_path / "i", tmp_path / "l")
    arch = Architecture("HL1", d, 10)
    model = (arch, init_params(arch, seed=3))

    def peak() -> int:
        accuracy([model], test)
        tracemalloc.start()
        try:
            accuracy([model], test)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for path in first_layers():
        with first_layer(path), ThreadPoolExecutor(1) as thread:
            assert thread.submit(peak).result() < EVAL_CHUNK * d * 4, path


def test_a_float32_first_layer_decodes_half_a_chunk_at_a_time(monkeypatch):
    # where the first layer runs in float32, each chunk is decoded in blocks
    # of at most half a chunk, every row once, and counted as its row pass
    blocks = []
    decode32 = learner.decode
    monkeypatch.setattr(learner, "decode", lambda x, dtype=np.float64, out=None: (
        blocks.append(len(x)) if dtype == np.float32 else None) or decode32(x, dtype, out))
    model = net("HL1", 8, 4, seed=33)
    x = np.random.default_rng(15).integers(0, 256, size=(2 * EVAL_CHUNK + 3, 8), dtype=np.uint8)
    labeled = Dataset(x, np.random.default_rng(16).integers(0, 4, size=x.shape[0]), 4)
    with first_layer("float32"):
        assert accuracy([model], labeled) == oracle_accuracies([model], labeled)
    assert sum(blocks) == x.shape[0] and 2 * max(blocks) <= EVAL_CHUNK


def test_pixel_sets_take_the_limbs_where_they_run(monkeypatch):
    # every model's chunks go to the AMX kernel where it runs, and none
    # where the first layer is float32; each chunk's bytes are summed once,
    # for every model of its pool task; the counts are the row pass's
    calls, summed = [], []
    kernel, sums = kernels.first_layer, kernels.byte_sums
    monkeypatch.setattr(kernels, "first_layer",
                        lambda rows, *args, **kw: calls.append(len(rows)) or kernel(rows, *args, **kw))
    monkeypatch.setattr(kernels, "byte_sums",
                        lambda rows, *args: summed.append(len(rows)) or sums(rows, *args))
    models = [net(kind, 8, 4, seed=30) for kind in ("SHL", "HL1", "HL2")]
    x = np.random.default_rng(11).integers(0, 256, size=(EVAL_CHUNK + 3, 8), dtype=np.uint8)
    labeled = Dataset(x, np.random.default_rng(12).integers(0, 4, size=x.shape[0]), 4)
    oracle = oracle_accuracies(models, labeled)
    for path in first_layers():
        for size in (1, 2):
            calls.clear()
            summed.clear()
            with first_layer(path), AgentPool(size) as pool:
                assert accuracy(models, labeled, pool) == oracle, (path, size)
            amx = path == "amx"
            assert sorted(calls) == sorted([EVAL_CHUNK, 3] * 3 if amx else []), (path, size)
            assert sorted(summed) == ([3, EVAL_CHUNK] if amx else []), (path, size)


@pytest.mark.parametrize("bad", ["nan", "inf", "subnormal-scale"])
def test_a_model_whose_first_layer_does_not_pack_falls_back_alone(bad, monkeypatch):
    # a NaN or an inf weight, or a column whose largest weight / 255 is
    # below 127 times the least normal number: that model's first layer
    # runs in float32, the other's on its limbs where they run, and each
    # counts as its row pass does
    arch, theta = net("HL1", 6, 3, seed=31)
    w = param_views(arch, theta)[0][0]
    w[2, 1] = {"nan": np.nan, "inf": np.inf}.get(bad, 0.0)
    if bad == "subnormal-scale":
        w[:, 1] = 1e-305
    packed = []
    pack = kernels.pack_limbs
    monkeypatch.setattr(kernels, "pack_limbs", lambda *args: packed.append(pack(*args)) or
                        packed[-1])
    x = np.random.default_rng(13).integers(0, 256, size=(60, 6), dtype=np.uint8)
    assert_oracle_counts([(arch, theta), net("HL1", 6, 3, seed=32)], x)
    assert set(packed) == ({False, True} if "amx" in first_layers() else set())


def test_fan_ins_past_the_int32_limit_take_float32():
    # 66,312 bytes of 255 against limbs of 127 sum past 2^31: the first
    # layer takes float32 there, and every row counts as its row pass does
    d = kernels.LIMB_FAN_IN + 1
    assert d * 255 * 127 >= 2**31
    w = np.zeros((d, 2))
    w[:, 0], w[:, 1] = 255 * 127 * 2.0**-20, 255 * 63 * 2.0**-20
    x = np.random.default_rng(14).integers(0, 256, size=(16, d), dtype=np.uint8)
    x[::2] = 255
    assert_oracle_counts([shl(w, [0.0, 0.0])], x)


def test_each_tier_is_reached(monkeypatch):
    # rows of class 2 are proven in float32, rows where class 1 leads class 0
    # by 1e-10 only in float64, and exact ties of 0 and 1 by their row passes
    model = shl([[1.0, 1.0, 0.0], [0.0, 1e-10, 0.0], [0.0, 0.0, 4.0]], [0.0, 0.0, 0.0])
    x = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]] * 10)
    passes = []

    def spy(acts, layers, outs=None):
        passes.append((acts[-1].dtype.name, acts[-1].shape[0]))  # the pass's first input
        return layer_loop(acts, layers, outs)

    layer_loop = learner._layer_loop
    monkeypatch.setattr(learner, "_layer_loop", spy)
    assert accuracy([model], Dataset(x, [2, 1, 0] * 10, 3)) == [1.0]
    assert passes == [("float32", 30), ("float64", 20)] + [("float64", 1)] * 10


def test_float64_eval_fixture_takes_every_row_from_the_row_pass(float64_eval, monkeypatch):
    model = net("HL1", 4, 3, seed=11)
    x = np.random.default_rng(6).standard_normal((40, 4))
    labeled = Dataset(x, row_argmax(*model, x), 3)
    passes = []
    layer_loop = learner._layer_loop
    monkeypatch.setattr(learner, "_layer_loop", lambda acts, layers, outs=None: passes.append(
        (acts[-1].dtype.name, acts[-1].shape[0])) or layer_loop(acts, layers, outs))
    assert accuracy([model], labeled) == [1.0]
    assert passes == [("float32", 40), ("float64", 40)] + [("float64", 1)] * 40


# --- the bound ----------------------------------------------------------------

def _fractions(a: np.ndarray) -> np.ndarray:
    return np.array([Fraction(float(v)) for v in a.ravel()], dtype=object).reshape(a.shape)


def exact_logits(arch, theta, x64):
    """Logits in exact rational arithmetic on the float64 inputs and
    parameters."""
    a = _fractions(x64)
    layers = param_views(arch, theta)
    for l, (w, b) in enumerate(layers):
        z = a @ _fractions(w) + _fractions(b)
        a = np.where(z > 0, z, Fraction(0)) if l < len(layers) - 1 else z
    return a


def _pass(arch, theta, x, dtype, spectral=True):
    """One pass in `dtype` and its `_logit_bound`, with the spectral-norm
    bound whatever the set's size unless `spectral` is off: in float64 the
    rescoring's `_activations`, in float32 the screen's, whose first layer
    is on int8 limbs where `x` holds bytes and the limbs run."""
    if dtype == np.float32:
        return screen_pass(arch, theta, x, spectral)
    x_mat = np.ascontiguousarray(decode(x))
    with np.errstate(all="ignore"):
        acts = _activations(arch, theta, x_mat)
        return acts, learner._logit_bound(acts, _weight_norms(arch, theta, spectral),
                                          _row_norms(x_mat))


def _near_rounding_midpoints(a: np.ndarray) -> np.ndarray:
    """|a| moved to just below the midpoint between float32 neighbours, so
    that rounding to float32 errs by nearly half a unit, upwards."""
    base = np.abs(a).astype(np.float32)
    return base.astype(np.float64) + 0.4999 * np.spacing(base).astype(np.float64)


def assert_bound_covers_exact(arch, theta, x):
    """Every finite bound covers its logit's distance from exact arithmetic,
    in float64 and in float32 on each first layer."""
    z = exact_logits(arch, theta, decode(x))
    for path, dtype in [(path, np.float32) for path in first_layers()] + [("", np.float64)]:
        with first_layer(path):
            acts, bound = _pass(arch, theta, x, dtype)
        for (i, j), b in np.ndenumerate(bound):
            if np.isfinite(b) and np.isfinite(acts[-1][i, j]):
                assert abs(Fraction(float(acts[-1][i, j])) - z[i, j]) <= Fraction(float(b)), (
                    path, np.dtype(dtype).name, i, j)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["SHL", "HL1", "HL2", "HL2-rank1", "HL2-biased"]),
       input_dim=st.integers(1, 6),
       classes=st.integers(1, 4), seed=st.integers(0, 10**6),
       scale=st.sampled_from([1e-40, 1e-3, 1.0, 1e3, 1e30]),
       features=st.sampled_from(["pixels", "normal", "tiny", "huge", "midpoints"]))
def test_bound_covers_exact_arithmetic(kind, input_dim, classes, seed, scale, features):
    rng = np.random.default_rng(seed)
    arch, theta = net(kind, input_dim, classes, seed, scale)
    shape = (5, input_dim)
    if features == "pixels":
        x = rng.integers(0, 256, size=shape, dtype=np.uint8)
    elif features == "midpoints":
        x = _near_rounding_midpoints(rng.standard_normal(shape))
        theta = _near_rounding_midpoints(theta) * np.sign(theta)
    else:
        x = rng.standard_normal(shape) * {"normal": 1.0, "tiny": 1e-46, "huge": 1e30}[features]
    assert_bound_covers_exact(arch, theta, x)


def coherent_rounding():
    """An SHL case where every rounding of the float32 pass errs by nearly
    half a unit upwards."""
    near_up = 1.0 + 2.0**-24 + 2.0**-40
    return (*shl([[near_up]], [0.0]), np.array([[near_up]]))


def hl2_midpoints():
    """An HL2 case with inputs and parameters just below float32 rounding
    midpoints; its errors come to more than 2^-10 of its bound."""
    rng = np.random.default_rng(3)
    arch, theta = net("HL2", 6, 4, seed=3)
    x = _near_rounding_midpoints(rng.standard_normal((5, 6)))
    return arch, _near_rounding_midpoints(theta) * np.sign(theta), x


def limbs_rest():
    """An SHL case whose limbs each fall short of their weight by nearly
    2^-15 s_j, on rows of 255s: on int8 limbs, the limbs' rest is about
    twice the rest of its bound."""
    scale = 2.0**-10
    w = np.zeros((64, 2))
    w[:, 0] = 255 * scale * (127 - 0.99 * 2.0**-15)
    return (*shl(w, [0.0, 0.0]), np.full((3, 64), 255, dtype=np.uint8))


def test_bound_covers_coherent_rounding():
    assert_bound_covers_exact(*coherent_rounding())


def test_bound_covers_the_limbs_rest():
    assert_bound_covers_exact(*limbs_rest())


@pytest.mark.parametrize("case", [coherent_rounding, hl2_midpoints])
def test_a_bound_2_pow_10_too_small_fails_the_exact_check(case, monkeypatch):
    # the exact check passes on each case, and fails on the bound scaled by 2^-10
    assert_bound_covers_exact(*case())
    bound = learner._logit_bound
    monkeypatch.setattr(learner, "_logit_bound", lambda *args: bound(*args) * 2.0**-10)
    with pytest.raises(AssertionError):
        assert_bound_covers_exact(*case())


def spectral_bound(w):
    """σ̄ as `_spectral_norm`'s docstring states it, without its rounding
    terms: ‖(WᵀW)⁴‖_F^(1/8)."""
    return np.linalg.norm(np.linalg.matrix_power(w.T @ w, 4)) ** 0.125


def limb_scales(w):
    """Each column's s_j as `_adam.c` states it: the least power of two with
    max_k |fl(W_kj / 255)| at most 127 s_j, the least normal number for a
    zero column."""
    v = np.abs(w / 255.0).max(axis=0)
    e = np.frexp(v)[1] - 7
    e = np.where(v > 127.0 * np.ldexp(1.0, e), e + 1, e)
    return np.where(v > 0, np.ldexp(1.0, e), np.finfo(np.float64).tiny)


def documented_bound(acts, arch, theta, spectral=True, own_norms=False, limbs=False):
    """The bound `_logit_bound`'s docstring states, from exact norms, or with
    `own_norms` from the code's own `_norm_up` bounds on them (`_row_norms`
    and `_weight_norms`), which leaves only the rounding of the bound's own
    arithmetic between the two. With `limbs` the pass took its first layer
    on int8 limbs of the pixel bytes `acts[0]`; otherwise its input was
    `acts[0]` decoded to the pass's dtype."""
    finfo = np.finfo(acts[-1].dtype)
    u, eta, u64 = float(finfo.eps) / 2, float(finfo.tiny), 2.0**-53
    norms = _weight_norms(arch, theta, spectral) if own_norms else None

    def row_norms(a):
        return _row_norms(a) if own_norms else np.linalg.norm(a.astype(np.float64), axis=1)

    n = acts[0].shape[1]
    if limbs:
        pixels = acts[0].astype(np.float64)
        sums, scales = pixels.sum(axis=1), limb_scales(param_views(arch, theta)[0][0])
        t = (_norm_up((pixels * pixels).sum(axis=1) / 65025.0, n) if own_norms
             else np.linalg.norm(pixels, axis=1) / 255)
        s_norm = _norm_up(scales @ scales, scales.size) if own_norms else np.linalg.norm(scales)
        eps = np.zeros_like(t)
    else:
        x0 = decode(acts[0], finfo.dtype)
        t = row_norms(x0)
        eps = (u * (1 + 2 * u) * t + np.sqrt(n) * eta if finfo.dtype == np.float32
               else np.zeros_like(t))
    first = 0.0
    layers = param_views(arch, theta)
    for l, (w, b) in enumerate(layers):
        n = w.shape[0]
        if l > 0:
            t = row_norms(acts[l])
        if own_norms:
            col, frob, sigma, bnorm, _ = norms[l]
        else:
            col, frob, bnorm = np.linalg.norm(w, axis=0), np.linalg.norm(w), np.linalg.norm(b)
            sigma = min(spectral_bound(w), frob) if spectral and 0 < l < len(layers) - 1 else frob
        under = eta * (2 * np.sqrt(n) * (t + eps) + n + 1)
        hidden = l < len(layers) - 1
        if l == 0 and limbs:
            rest = 2.0**-15 * (1 + 2.0**-30)
            k = (u + 3 * u64) * t
            if hidden:
                eps = ((1 + 3 * u) * rest * sums * s_norm + (3 * u + 3 * u64) * t * frob
                       + 3 * u * bnorm + 2 * np.sqrt(w.shape[1]) * under)
            else:
                first = (1 + u) * rest * sums[:, None] * scales
            continue
        k = (n * u / (1 - n * u) + 2 * u) * t + (1 + 2 * u) * eps
        if hidden:
            fresh = (n * u / (1 - n * u) + 2 * u) * t * frob
            eps = (fresh + eps * (sigma + u * frob) + u * bnorm + 2 * u * (t * frob + bnorm)
                   + 2 * np.sqrt(w.shape[1]) * under)
    return (k[:, None] * col + first + u * np.abs(b)
            + u / (1 - u) * np.abs(acts[-1].astype(np.float64)) + under[:, None])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["SHL", "HL2", "HL2-biased"])
def test_bound_is_the_documented_one(kind, dtype):
    # at least the stated bound from exact norms (every term of it, the
    # float32 input's rounding included), and above it only by the
    # rounding-up of the norms; within 2^-40 either way of the stated bound
    # from the code's own norms, so that a dropped term as small as the
    # float32 u ‖W‖_F times the carried error shows; with and without the
    # spectral-norm bound; in float32, on each first layer
    arch, theta = net(kind, 6, 4, seed=12)
    x = np.random.default_rng(7).integers(0, 256, size=(9, 6), dtype=np.uint8)
    for path, spectral in [(path, s) for path in first_layers() for s in (True, False)]:
        with first_layer(path):
            acts, bound = _pass(arch, theta, x, dtype, spectral)
        limbs = dtype == np.float32 and path == "amx"
        ratio = bound / documented_bound(acts, arch, theta, spectral, limbs=limbs)
        assert np.all(ratio >= 1 - 2.0**-40) and np.all(ratio <= 1 + 2.0**-16), spectral
        ratio = bound / documented_bound(acts, arch, theta, spectral, own_norms=True, limbs=limbs)
        assert np.all(np.abs(ratio - 1) <= 2.0**-40), spectral


def test_overflowing_rows_get_no_finite_bound():
    arch, theta = net("HL1", 3, 2, seed=13, scale=1e25)
    x = np.array([[1.0, 1.0, 1.0], [1e-30, 0.0, 0.0]])
    _, bound = _pass(arch, theta, x, np.float32)
    assert np.all(np.isinf(bound[0])) and np.all(np.isfinite(bound[1]))


@pytest.mark.parametrize("share", [0.3, 0.6, 0.9])
def test_rows_past_a_quarter_of_the_largest_float_get_no_finite_bound(share):
    # (|x| + 1) max_j |W_j| + max |b| at `share` of the largest float64: the
    # pass is finite, but the guard must still give up on the row
    big = float(np.sqrt(share * np.finfo(np.float64).max))
    arch, theta = shl([[big, 1.0]], [0.0, 1.0])
    acts, bound = _pass(arch, theta, np.array([[big], [1.0]]), np.float64)
    assert np.all(np.isfinite(acts[-1])) and np.all(np.isinf(bound[0]))
    assert np.all(np.isfinite(bound[1]))


@pytest.mark.parametrize("dtype, entry", [(np.float64, 1e-200), (np.float32, 1e-30)])
def test_row_norms_cover_squares_that_underflow(dtype, entry):
    # every square underflows to 0 in `dtype`, yet the bound covers the norm
    a = np.full((2, 5), entry, dtype=dtype)
    a[1, ::2] = 0.0
    for row, bound in zip(a, _row_norms(a)):
        assert Fraction(float(bound)) ** 2 >= sum(Fraction(float(v)) ** 2 for v in row)


# --- the spectral-norm bound --------------------------------------------------

def _is_spectral_bound(s: float, w: np.ndarray) -> bool:
    """Whether s² I - WᵀW is positive semidefinite in exact arithmetic, on
    W's smaller side, by LDLᵀ elimination: every pivot is at least 0, and a
    zero pivot's row beyond it is zero."""
    small = _fractions(w if w.shape[0] <= w.shape[1] else w.T)
    gram = small @ small.T
    a = [[Fraction(s) ** 2 * (i == j) - gram[i, j] for j in range(len(gram))]
         for i in range(len(gram))]
    for k, row in enumerate(a):
        if row[k] < 0 or (row[k] == 0 and any(row[k + 1:])):
            return False
        if row[k]:
            for below in a[k + 1:]:
                f = below[k] / row[k]
                below[k + 1:] = [v - f * r for v, r in zip(below[k + 1:], row[k + 1:])]
    return True


def _spectral_cases():
    rng = np.random.default_rng(8)
    single = np.zeros((4, 3))
    single[2, 1] = -3.5
    hadamard = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]], float)
    return {
        "rank-one": np.outer(rng.standard_normal(12), rng.standard_normal(9)),
        "single-entry": single,
        "orthogonal-columns": np.vstack([hadamard, hadamard]) * [0.5, 3.0, 1.25, 3.0],
        "tall": rng.standard_normal((9, 4)),
        "wide": rng.standard_normal((3, 8)),
        "zero": np.zeros((5, 3)),
        "1e-160": rng.standard_normal((6, 4)) * 1e-160,
        "1e150": rng.standard_normal((4, 6)) * 1e150,
    }


@pytest.mark.parametrize("name", list(_spectral_cases()))
def test_spectral_norm_bounds_the_largest_singular_value(name):
    # σ̄ bounds ‖W‖₂ in exact arithmetic, and is within its (rank)^(1/8)
    # factor of it; at rank one that factor is 1, so a hair less is no bound
    w = _spectral_cases()[name]
    sigma = _spectral_norm(w)
    assert _is_spectral_bound(sigma, w)
    rank = 1 if name in ("rank-one", "single-entry") else min(w.shape)
    assert sigma <= np.linalg.norm(w, 2) * rank**0.125 * (1 + 2.0**-40) or not w.any()
    if rank == 1:
        assert not _is_spectral_bound(sigma * (1 - 2.0**-30), w)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_non_finite_weights_give_no_finite_spectral_norm_or_bound(bad):
    arch, theta = net("HL2", 4, 3, seed=14)
    w = param_views(arch, theta)[1][0]
    w[2, 1] = bad
    assert _spectral_norm(w) == np.inf
    x = np.random.default_rng(9).integers(0, 256, size=(6, 4), dtype=np.uint8)
    for dtype in (np.float32, np.float64):
        assert not np.isfinite(_pass(arch, theta, x, dtype)[1]).any()


# --- certainty ----------------------------------------------------------------

def test_certain_needs_a_margin_beyond_the_bounds():
    # class 1 leads by the two bounds plus `excess` of them: within 2^-20 of
    # the bounds the float64 row pass (off by up to 2^-29 of a float32
    # bound) and the bounds' own rounding could still reorder the row
    bound = np.ones((1, 2))

    def certain(excess):
        return bool(_certain(np.array([[0.0, 2.0 * (1.0 + excess)]]), bound)[1][0])

    assert not certain(2.0**-21)
    assert certain(2.0**-18)


def test_certain_rows_and_argmax():
    logits = np.array([[0.0, 5.0, 1.0], [3.0, 3.0, 0.0], [np.nan, 0.0, 1.0],
                       [np.inf, 0.0, 0.0], [2.0, 0.0, 0.0]], dtype=np.float32)
    bound = np.full((5, 3), 0.5)
    bound[4, 1] = np.inf
    with np.errstate(invalid="ignore"):
        top, certain = _certain(logits, bound)
    assert top.tolist()[:2] == [1, 0] and top[4] == 0
    assert certain.tolist() == [True, False, False, False, False]
