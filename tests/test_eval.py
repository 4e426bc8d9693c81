"""Test-set evaluation: float32 screening under a proven error bound, the
float64 rescoring of open rows, and the float64 chunk pass that settles near
ties, against an oracle that scores every row with the chunk pass."""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from colearn import _kernels as kernels  # noqa: E402
from colearn import learner  # noqa: E402
from colearn.data import decode  # noqa: E402
from colearn.learner import (  # noqa: E402
    EVAL_CHUNK,
    Architecture,
    _activations,
    _as_xy,
    _certain,
    _logit_bound,
    _row_norms,
    _weight_norms,
    accuracies,
    init_params,
    param_count,
    param_views,
)
from colearn.parallel import AgentPool  # noqa: E402


def oracle_accuracies(models, eval_set, pool=None):
    """Evaluation as it was before float32 screening: each chunk decoded to
    float64 once and scored by every model's float64 pass."""
    x, y = _as_xy(eval_set)

    def correct(s):
        x_chunk = np.ascontiguousarray(decode(x[s : s + EVAL_CHUNK]))
        return [int((kernels.argmax_rows(_activations(arch, theta, x_chunk)[-1])
                     == y[s : s + EVAL_CHUNK]).sum()) for arch, theta in models]

    per_chunk = (pool or AgentPool()).map(correct, range(0, x.shape[0], EVAL_CHUNK))
    return [sum(counts) / x.shape[0] for counts in zip(*per_chunk)]


def chunk_argmax(arch, theta, x):
    """Every row's argmax from the float64 pass over its chunk."""
    return np.concatenate([
        kernels.argmax_rows(_activations(
            arch, theta, np.ascontiguousarray(decode(x[s : s + EVAL_CHUNK])))[-1])
        for s in range(0, x.shape[0], EVAL_CHUNK)])


def assert_oracle_counts(models, x, seed=0):
    """Each model alone, labeled with its own chunk-pass argmax, scores 1.0,
    so one row counted differently shows; all models together on random
    labels match the oracle. At pool sizes 1 and 2."""
    num_classes = models[0][0].num_classes
    y = np.random.default_rng(seed).integers(0, num_classes, size=x.shape[0])
    for size in (1, 2):
        with AgentPool(size) as pool:
            for arch, theta in models:
                assert accuracies([(arch, theta)], (x, chunk_argmax(arch, theta, x)), pool) == [1.0]
            assert accuracies(models, (x, y), pool) == oracle_accuracies(models, (x, y))


def shl(weights, bias) -> tuple[Architecture, np.ndarray]:
    """An SHL model with these (input_dim, classes) weights and bias."""
    w = np.asarray(weights, dtype=np.float64)
    arch = Architecture("SHL", w.shape[0], w.shape[1])
    theta = np.zeros(param_count(arch))
    (w_view, b_view), = param_views(arch, theta)
    w_view[:], b_view[:] = w, bias
    return arch, theta


def net(kind, input_dim, classes, seed, scale=1.0):
    hidden = {"SHL": (), "HL1": (6,), "HL2": (7, 5)}[kind]
    arch = Architecture(kind, input_dim, classes, hidden)
    return arch, init_params(arch, seed) * scale


# --- the counts ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["SHL", "HL1", "HL2"]), input_dim=st.integers(1, 9),
       classes=st.integers(1, 5), rows=st.integers(1, 60), seed=st.integers(0, 10**6),
       pixels=st.booleans(), grid=st.booleans())
def test_counts_equal_the_float64_chunk_pass(kind, input_dim, classes, rows, seed, pixels,
                                             grid):
    rng = np.random.default_rng(seed)
    models = [net(kind, input_dim, classes, seed), net("SHL", input_dim, classes, seed + 1)]
    if grid:
        # weights on a coarse grid: exact and near ties are common
        models = [(arch, np.round(theta * 4.0) / 4.0) for arch, theta in models]
    x = (rng.integers(0, 256, size=(rows, input_dim), dtype=np.uint8) if pixels
         else rng.standard_normal((rows, input_dim)))
    assert_oracle_counts(models, x, seed)


def test_exact_ties_from_duplicated_output_columns():
    arch, theta = net("HL1", 5, 4, seed=3)
    w, b = param_views(arch, theta)[-1]
    w[:, 2], b[2] = w[:, 1], b[1]  # classes 1 and 2 tie on every row
    x = np.random.default_rng(0).integers(0, 256, size=(300, 5), dtype=np.uint8)
    assert_oracle_counts([(arch, theta)], x)


def test_near_ties_below_float32_resolution():
    # class 1 beats class 0 by about 1e-12 of the logits where the second
    # feature is positive: float32 sees a tie, float64 does not
    x = np.abs(np.random.default_rng(1).standard_normal((200, 2)))
    x[::3, 1] = 0.0  # exact ties
    assert_oracle_counts([shl([[1.0, 1.0], [0.0, 1e-12]], [0.0, 0.0])], x)


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
    x = np.random.default_rng(4).integers(0, 256, size=(EVAL_CHUNK + 37, 8), dtype=np.uint8)
    assert_oracle_counts([net("HL1", 8, 4, seed=9), net("SHL", 8, 4, seed=10)], x)


def test_more_open_rows_than_a_chunk():
    # every row is an exact tie, so every row of every chunk stays open
    arch, theta = shl([[1.0, 1.0, 0.0]] * 3, [0.5, 0.5, 0.0])
    x = np.random.default_rng(5).integers(0, 256, size=(2 * EVAL_CHUNK + 5, 3), dtype=np.uint8)
    assert_oracle_counts([(arch, theta)], x)


def test_each_tier_is_reached(monkeypatch):
    # rows of class 2 are proven in float32, rows where class 1 leads class 0
    # by 1e-10 only in float64, and exact ties of 0 and 1 by the chunk pass
    model = shl([[1.0, 1.0, 0.0], [0.0, 1e-10, 0.0], [0.0, 0.0, 4.0]], [0.0, 0.0, 0.0])
    x = np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.0], [1.0, 0.0, 0.0]] * 10)
    passes = []

    def spy(arch, theta, x_mat):
        passes.append((x_mat.dtype.name, x_mat.shape[0]))
        return activations(arch, theta, x_mat)

    activations = learner._activations
    monkeypatch.setattr(learner, "_activations", spy)
    assert accuracies([model], (x, [2, 1, 0] * 10)) == [1.0]
    assert passes == [("float32", 30), ("float64", 20), ("float64", 30)]


def test_float64_eval_fixture_takes_every_row_from_the_chunk_pass(float64_eval, monkeypatch):
    passes = []
    activations = learner._activations
    monkeypatch.setattr(learner, "_activations", lambda arch, theta, x_mat: passes.append(
        (x_mat.dtype.name, x_mat.shape[0])) or activations(arch, theta, x_mat))
    model = net("HL1", 4, 3, seed=11)
    x = np.random.default_rng(6).standard_normal((40, 4))
    assert accuracies([model], (x, chunk_argmax(*model, x))) == [1.0]
    assert passes == [("float32", 40), ("float64", 40), ("float64", 40)]


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


def _pass(arch, theta, x, dtype):
    """One `_activations` pass in `dtype` and its `_logit_bound`."""
    x_mat = np.ascontiguousarray(decode(x, dtype))
    with np.errstate(all="ignore"):
        acts = _activations(arch, theta, x_mat)
        return acts, _logit_bound(acts, _weight_norms(arch, theta), _row_norms(x_mat))


def _near_rounding_midpoints(a: np.ndarray) -> np.ndarray:
    """|a| moved to just below the midpoint between float32 neighbours, so
    that rounding to float32 errs by nearly half a unit, upwards."""
    base = np.abs(a).astype(np.float32)
    return base.astype(np.float64) + 0.4999 * np.spacing(base).astype(np.float64)


def assert_bound_covers_exact(arch, theta, x):
    z = exact_logits(arch, theta, decode(x))
    for dtype in (np.float32, np.float64):
        acts, bound = _pass(arch, theta, x, dtype)
        for (i, j), b in np.ndenumerate(bound):
            if np.isfinite(b) and np.isfinite(acts[-1][i, j]):
                assert abs(Fraction(float(acts[-1][i, j])) - z[i, j]) <= Fraction(float(b)), (
                    np.dtype(dtype).name, i, j)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["SHL", "HL1", "HL2"]), input_dim=st.integers(1, 6),
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


def test_bound_covers_coherent_rounding():
    # every rounding of the float32 pass errs by nearly half a unit upwards
    near_up = 1.0 + 2.0**-24 + 2.0**-40
    arch, theta = shl([[near_up]], [0.0])
    assert_bound_covers_exact(arch, theta, np.array([[near_up]]))


def documented_bound(acts, arch, theta):
    """The bound `_logit_bound`'s docstring states, from exact norms."""
    finfo = np.finfo(acts[-1].dtype)
    u, eta = float(finfo.eps) / 2, float(finfo.tiny)
    t = np.linalg.norm(acts[0].astype(np.float64), axis=1)
    n = acts[0].shape[1]
    eps = (u * (1 + 2 * u) * t + np.sqrt(n) * eta if finfo.dtype == np.float32
           else np.zeros_like(t))
    layers = param_views(arch, theta)
    for l, (w, b) in enumerate(layers):
        n = w.shape[0]
        t = np.linalg.norm(acts[l].astype(np.float64), axis=1)
        col = np.linalg.norm(w, axis=0)
        k = (n * u / (1 - n * u) + 2 * u) * t + (1 + 2 * u) * eps
        under = eta * (2 * np.sqrt(n) * (t + eps) + n + 1)
        if l < len(layers) - 1:
            frob, bnorm = np.linalg.norm(w), np.linalg.norm(b)
            eps = (k * frob + u * bnorm + 2 * u * (t * frob + bnorm)
                   + 2 * np.sqrt(w.shape[1]) * under)
    return (k[:, None] * col + u * np.abs(b) + u / (1 - u) * np.abs(acts[-1].astype(np.float64))
            + under[:, None])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", ["SHL", "HL2"])
def test_bound_is_the_documented_one(kind, dtype):
    # at least the stated bound (every term of it, the float32 input's
    # rounding included), and above it only by the rounding-up of the norms
    arch, theta = net(kind, 6, 4, seed=12)
    x = np.random.default_rng(7).integers(0, 256, size=(9, 6), dtype=np.uint8)
    acts, bound = _pass(arch, theta, x, dtype)
    ratio = bound / documented_bound(acts, arch, theta)
    assert np.all(ratio >= 1 - 2.0**-40) and np.all(ratio <= 1 + 2.0**-16)


def test_overflowing_rows_get_no_finite_bound():
    arch, theta = net("HL1", 3, 2, seed=13, scale=1e25)
    x = np.array([[1.0, 1.0, 1.0], [1e-30, 0.0, 0.0]])
    _, bound = _pass(arch, theta, x, np.float32)
    assert np.all(np.isinf(bound[0])) and np.all(np.isfinite(bound[1]))


# --- certainty ----------------------------------------------------------------

def test_certain_needs_a_margin_beyond_the_bounds():
    # class 1 leads by the two bounds plus `excess` of them: within 2^-20 of
    # the bounds the float64 chunk pass (off by up to 2^-29 of a float32
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
