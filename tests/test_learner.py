"""Forward/loss/gradient correctness, the Adam step, and training loops."""

import tracemalloc

import numpy as np
import pytest

from colearn.config import TrainingSpec
from colearn.data import Dataset, shuffled_batches, synth_blobs
from colearn.learner import (
    EVAL_CHUNK,
    Adam,
    Architecture,
    Learner,
    accuracy,
    apply_update,
    forward,
    grad,
    init_params,
    param_count,
    param_views,
    train_epochs,
)
from colearn.seeding import rng_for

from conftest import PROB_FLOOR, loss

SMALL_ARCHS = [
    Architecture("SHL", input_dim=7, num_classes=4),
    Architecture("HL1", input_dim=7, num_classes=4, hidden=(6,)),
    Architecture("HL2", input_dim=7, num_classes=4, hidden=(6, 5)),
]


class TestArchitecture:
    def test_standard_widths(self):
        assert Architecture("SHL", 784, 10).hidden == ()
        assert Architecture("HL1", 784, 10).hidden == (300,)
        assert Architecture("HL2", 784, 10).hidden == (500, 300)

    def test_param_counts(self):
        assert param_count(Architecture("SHL", 784, 10)) == 785 * 10
        assert param_count(Architecture("HL1", 784, 10)) == 785 * 300 + 301 * 10
        assert param_count(Architecture("HL2", 784, 10)) == (
            785 * 500 + 501 * 300 + 301 * 10
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown architecture"):
            Architecture("CNN", 784, 10)

    @pytest.mark.parametrize("args, message", [
        (("SHL", 0, 10), "input_dim and num_classes must be >= 1"),
        (("SHL", 784, 0), "input_dim and num_classes must be >= 1"),
        (("HL2", 784, 10, (500, 0)), r"hidden widths must be >= 1, got \(500, 0\)"),
    ])
    def test_sizes_below_one_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            Architecture(*args)

    def test_views_share_storage(self):
        arch = SMALL_ARCHS[1]
        theta = init_params(arch, seed=0)
        (w0, b0), _ = param_views(arch, theta)
        w0[0, 0] = 123.0
        assert theta[0] == 123.0
        assert b0.shape == (6,)


class TestInit:
    def test_biases_zero_and_weights_bounded(self):
        arch = Architecture("HL2", 20, 5, hidden=(8, 6))
        theta = init_params(arch, seed=3)
        views = param_views(arch, theta)
        for l, (w, b) in enumerate(views):
            assert np.all(b == 0.0)
            din, dout = w.shape
            limit = np.sqrt(6.0 / din) if l < len(views) - 1 else np.sqrt(6.0 / (din + dout))
            assert np.all(np.abs(w) <= limit)
            assert np.any(w != 0.0)

    def test_seeded(self):
        arch = SMALL_ARCHS[2]
        assert np.array_equal(init_params(arch, 5), init_params(arch, 5))
        assert not np.array_equal(init_params(arch, 5), init_params(arch, 6))


class TestForward:
    def test_zero_params_give_uniform(self):
        arch = Architecture("SHL", 784, 10)
        theta = np.zeros(param_count(arch))
        p = forward(arch, theta, np.random.default_rng(0).random((1, 784)))[1]
        assert np.allclose(p, 0.1)

    def test_zero_hidden_weights_pass_only_bias(self):
        arch = Architecture("HL1", 7, 4, hidden=(6,))
        theta = np.zeros(param_count(arch))
        _, (w_out, b_out) = param_views(arch, theta)
        b_out[:] = [0.3, -1.2, 2.0, 0.0]
        expected = np.exp(b_out - b_out.max())
        expected /= expected.sum()
        for x in np.random.default_rng(1).random((5, 7)):
            assert np.allclose(forward(arch, theta, x[None])[1], expected)

    @pytest.mark.parametrize("arch", SMALL_ARCHS, ids=lambda a: a.kind)
    def test_outputs_are_probability_vectors(self, arch):
        rng = rng_for(2, "fwd", arch.kind)
        theta = init_params(arch, seed=4)
        probs = forward(arch, theta, rng.standard_normal((40, arch.input_dim)))[1]
        assert probs.shape == (40, arch.num_classes)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_dimension_mismatch_rejected(self):
        arch = SMALL_ARCHS[0]
        with pytest.raises(ValueError, match="dimension"):
            forward(arch, np.zeros(param_count(arch)), np.zeros((1, 5)))

    def test_one_sample_needs_a_batch_axis(self):
        arch = SMALL_ARCHS[0]
        with pytest.raises(ValueError, match="2-D batch"):
            forward(arch, np.zeros(param_count(arch)), np.zeros(7))


@pytest.mark.parametrize("call", [
    lambda arch, theta, x, y: forward(arch, theta, x),
    lambda arch, theta, x, y: grad(arch, theta, *forward(arch, theta, x), y),
    lambda arch, theta, x, y: loss(arch, theta, x, y),
], ids=["forward", "grad", "loss"])
def test_pixel_bytes_rejected_before_any_matmul(call):
    # uint8 features are bytes standing for byte / 255; computing on 0..255
    # would train silently on the wrong scale
    arch = SMALL_ARCHS[1]
    x = np.arange(14, dtype=np.uint8).reshape(2, 7)
    with pytest.raises(TypeError, match="decode"):
        call(arch, init_params(arch, seed=0), x, np.array([0, 1]))


class TestLoss:
    def test_confident_correct_is_near_zero(self):
        arch = Architecture("SHL", 3, 2)
        theta = np.zeros(param_count(arch))
        _, = param_views(arch, theta)[:1]
        w, b = param_views(arch, theta)[0]
        b[:] = [50.0, -50.0]
        assert loss(arch, theta, np.zeros((1, 3)), [0]) < 1e-6

    def test_confident_wrong_is_clamped(self):
        # the label's probability underflows to zero: the loss stays finite
        arch = Architecture("SHL", 3, 2)
        theta = np.zeros(param_count(arch))
        param_views(arch, theta)[0][1][:] = [1000.0, -1000.0]
        assert loss(arch, theta, np.zeros((1, 3)), [1]) == pytest.approx(-np.log(PROB_FLOOR))

    def test_uniform_prediction_is_log_c(self):
        arch = Architecture("SHL", 5, 10)
        theta = np.zeros(param_count(arch))
        x = np.zeros((4, 5))
        assert loss(arch, theta, x, [0, 3, 5, 9]) == pytest.approx(np.log(10.0), abs=1e-12)


U = 2.0**-53  # float64 unit roundoff
EXP_ERR = 8 * U  # numpy's exp, taken to be within 4 ulp of exact


def _gamma(n: int) -> float:
    # a sum of n products, in any order, is within gamma_n of exact relative
    # to the sum of their magnitudes (Higham 2002, section 3.1)
    return n * U / (1 - n * U)


def _grad_bound(arch, theta, x, y) -> np.ndarray:
    """Per element, a bound on the distance of the gradient `grad` computes
    on batch x and labels y from the exact gradient, to first order in U and
    then doubled to cover the higher-order terms.

    Each value computed from inputs within e of exact is bounded in turn.
    A layer's output, fl(fl(a W) + b) over fan-in n, is within
    gamma_{n+1} (|a| |W| + |b|) + e |W|; ReLU passes that on where no
    pre-activation lies within its bound of zero (asserted), so it keeps
    the exact units. Softmax moves by at most half the largest logit error
    (its Jacobian's rows sum to at most 1/2 in magnitude), and evaluating it
    adds a relative 2 U (max |shifted logit|) + 2 EXP_ERR + gamma_c. The
    subtraction of the label's 1 adds U |p - onehot|, the divide by the
    batch size b U |delta|. Each backward product, over b rows for a weight
    gradient or a bias sum and over fan-out n for the back-propagated delta,
    adds gamma of its length times the product of magnitudes, and carries
    both operands' errors: e_a |delta| + |a| e_delta.
    """
    y = np.asarray(y)
    b = x.shape[0]
    layers = param_views(arch, theta)
    acts, errs = [x], [np.zeros_like(x)]
    for l, (w, bias) in enumerate(layers):
        a, e = acts[-1], errs[-1]
        z = a @ w + bias
        err = _gamma(w.shape[0] + 1) * ((np.abs(a) + e) @ np.abs(w) + np.abs(bias)) + e @ np.abs(w)
        if l < len(layers) - 1:
            assert np.all(np.abs(z) > 2 * err), "a pre-activation too close to zero"
            z, err = np.maximum(z, 0.0), np.where(z > 0, err, 0.0)
        acts.append(z)
        errs.append(err)
    shifted = acts[-1] - acts[-1].max(axis=1, keepdims=True)
    p = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    p_err = (0.5 * errs[-1].max(axis=1, keepdims=True)
             + p * (2 * U * np.abs(shifted).max(axis=1, keepdims=True) + 2 * EXP_ERR
                    + _gamma(p.shape[1])))
    onehot = np.eye(p.shape[1])[y]
    delta = (p - onehot) / b
    d_err = (p_err + U * np.abs(p - onehot)) / b + U * np.abs(delta)
    out = np.empty_like(theta)
    for l in range(len(layers) - 1, -1, -1):
        w = layers[l][0]
        a, e = np.abs(acts[l]), errs[l]
        gw, gb = param_views(arch, out)[l]
        gw[:] = _gamma(b) * a.T @ np.abs(delta) + e.T @ np.abs(delta) + a.T @ d_err
        gb[:] = _gamma(b) * np.abs(delta).sum(axis=0) + d_err.sum(axis=0)
        if l > 0:
            live = acts[l] > 0
            d_err = np.where(live, _gamma(w.shape[1]) * np.abs(delta) @ np.abs(w.T)
                             + d_err @ np.abs(w.T), 0.0)
            delta = np.where(live, delta @ w.T, 0.0)
    return 2 * out


class TestGrad:
    @pytest.mark.parametrize("label", [-1, 4])
    def test_label_outside_the_classes_rejected(self, label):
        arch = Architecture("SHL", 6, 4)
        theta = np.zeros(param_count(arch))
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 4\)"):
            grad(arch, theta, *forward(arch, theta, np.ones((1, 6))), [label])

    def test_closed_form_output_layer_at_zero(self):
        # at zero params: p = uniform, dW = x outer (p - onehot), db = p - onehot
        arch = Architecture("SHL", 6, 4)
        theta = np.zeros(param_count(arch))
        x = np.arange(1.0, 7.0)
        y = 2
        g = grad(arch, theta, *forward(arch, theta, x[None]), [y])
        gw, gb = param_views(arch, g)[0]
        delta = np.full(4, 0.25)
        delta[y] -= 1.0
        assert np.allclose(gw, np.outer(x, delta))
        assert np.allclose(gb, delta)

    @pytest.mark.parametrize("arch", SMALL_ARCHS, ids=lambda a: a.kind)
    def test_matches_central_finite_differences(self, arch):
        rng = rng_for(4, "fd", arch.kind)
        theta = init_params(arch, seed=12)
        x = rng.standard_normal((6, arch.input_dim))
        y = rng.integers(0, arch.num_classes, size=6)
        g = grad(arch, theta, *forward(arch, theta, x), y)
        coords = rng.choice(theta.size, size=min(60, theta.size), replace=False)
        h = 1e-5
        for c in coords:
            bump = theta.copy()
            bump[c] += h
            up = loss(arch, bump, x, y)
            bump[c] -= 2 * h
            down = loss(arch, bump, x, y)
            fd = (up - down) / (2 * h)
            denom = max(abs(g[c]), abs(fd), 1e-8)
            assert abs(g[c] - fd) / denom < 1e-4, f"coord {c}"

    def test_duplicated_sample_equals_single(self):
        # In exact arithmetic the mean gradient over a row taken twice is the
        # row's gradient. Computed, each lies within its _grad_bound of that
        # exact value, whichever order BLAS sums the products in; a gradient
        # summed over the batch instead of averaged is twice off.
        arch = SMALL_ARCHS[1]
        theta = init_params(arch, seed=1)
        x = rng_for(5, "dup").standard_normal(arch.input_dim)
        single = grad(arch, theta, *forward(arch, theta, x.reshape(1, -1)), [1])
        double = grad(arch, theta, *forward(arch, theta, np.stack([x, x])), [1, 1])
        bound = (_grad_bound(arch, theta, x.reshape(1, -1), [1])
                 + _grad_bound(arch, theta, np.stack([x, x]), [1, 1]))
        assert np.all(np.abs(single - double) <= bound)
        assert bound.max() < 1e-12 * np.abs(single).max()  # a bound that can fail

    @pytest.mark.parametrize("arch", SMALL_ARCHS, ids=lambda a: a.kind)
    def test_out_buffer(self, arch):
        theta = init_params(arch, seed=3)
        rng = rng_for(6, "out", arch.kind)
        x = rng.standard_normal((5, arch.input_dim))
        y = rng.integers(0, arch.num_classes, size=5)
        passed = forward(arch, theta, x)
        buf = np.full_like(theta, np.nan)
        assert grad(arch, theta, *passed, y, out=buf) is buf
        assert np.array_equal(buf, grad(arch, theta, *passed, y))
        for size in (theta.size - 1, theta.size + 1):
            with pytest.raises(ValueError):
                grad(arch, theta, *passed, y, out=np.empty(size))


class TestApplyUpdate:
    def test_adam_first_step_closed_form(self):
        # constant positive gradient c: step 1 moves by -alpha * c / (c + eps)
        c, alpha, eps = 3.7, 1e-3, 1e-8
        rule = Adam(alpha=alpha, eps=eps)
        theta = np.zeros(5)
        assert apply_update(rule, theta, np.full(5, c)) is theta  # in place
        assert np.allclose(theta, -alpha * c / (c + eps), rtol=1e-12)

    def test_adam_zero_grad_identity_from_rest(self):
        rule = Adam()
        theta = np.array([1.0, -2.0, 0.5])
        before = theta.copy()
        for _ in range(3):
            apply_update(rule, theta, np.zeros(3))
        assert np.array_equal(theta, before)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_update(Adam(), np.zeros(3), np.zeros(4))

    def test_rejected_step_leaves_state(self):
        # adam_step's array checks are the one guard: a call they reject
        # makes no state and advances no step, first step or later
        rule, theta = Adam(), np.zeros(3)
        bad = (np.ones(4), np.ones(3, dtype=np.float32), np.ones(6)[::2])
        for g in bad:
            with pytest.raises(ValueError):
                apply_update(rule, theta, g)
        assert rule._steps == 0 and rule._m is None and rule._v is None
        apply_update(rule, theta, np.ones(3))
        m, v = rule._m.copy(), rule._v.copy()
        for t, g in [(theta, b) for b in bad] + [(np.zeros(4), np.ones(4))]:
            with pytest.raises(ValueError):
                apply_update(rule, t, g)
        assert rule._steps == 1
        assert np.array_equal(rule._m, m) and np.array_equal(rule._v, v)

    def test_hyperparameter_validation(self):
        # TrainingSpec is the one check of the hyperparameters every Adam is built from
        with pytest.raises(ValueError, match=r"training\.beta1: must lie in \(0, 1\)"):
            TrainingSpec(beta1=1.0)


class TestTrainEpochs:
    def test_zero_epochs_unchanged(self):
        arch = SMALL_ARCHS[0]
        theta = init_params(arch, seed=2)
        before = theta.copy()
        ds = synth_blobs(5, 4, 7, 1.0, seed=0)
        rule, steps = Adam(), []
        for kw in ({"epochs": 0}, {"epochs": 3, "max_updates": 0}):
            assert train_epochs(arch, theta, rule, ds, batch_size=2, seed=0,
                                on_step=steps.append, **kw) == 0
        assert np.array_equal(theta, before)
        assert steps == [] and rule._steps == 0

    def test_update_cap_crosses_epoch_boundary(self):
        # 10 samples in batches of 4: 3 steps per epoch, so a cap of 5 stops
        # two steps into the second epoch
        arch = SMALL_ARCHS[1]
        ds = synth_blobs(5, 2, 7, 1.0, seed=0)
        theta = init_params(arch, seed=3)
        rule, steps = Adam(alpha=1e-2), []
        taken = train_epochs(arch, theta, rule, ds, batch_size=4, epochs=4, seed=8,
                             max_updates=5, on_step=steps.append)
        assert taken == 5 and steps == [1, 2, 3, 4, 5] and rule._steps == 5

        ref, ref_rule = init_params(arch, seed=3), Adam(alpha=1e-2)
        batches = [idx for e in range(2)
                   for idx in shuffled_batches(10, 4, rng_for(8, "train-epoch", e))][:5]
        for idx in batches:
            g = grad(arch, ref, *forward(arch, ref, ds.features[idx]), ds.labels[idx])
            apply_update(ref_rule, ref, g)
        assert np.array_equal(theta, ref)

    def test_separable_blobs_reach_high_train_accuracy(self):
        ds = synth_blobs(20, 3, 5, 100.0, seed=7)
        arch = Architecture("SHL", 5, 3)
        theta = init_params(arch, seed=0)
        train_epochs(arch, theta, Adam(alpha=0.1), ds, batch_size=10, epochs=20, seed=1)
        assert accuracy([(arch, theta)], ds)[0] >= 0.99

    def test_loss_decreases_on_average(self):
        drops = []
        for seed in range(5):
            ds = synth_blobs(20, 3, 5, 3.0, seed=seed)
            arch = Architecture("HL1", 5, 3, hidden=(8,))
            theta = init_params(arch, seed=seed)
            before = loss(arch, theta, ds.features, ds.labels)
            train_epochs(arch, theta, Adam(alpha=1e-2), ds, batch_size=10, epochs=5, seed=seed)
            drops.append(before - loss(arch, theta, ds.features, ds.labels))
        assert np.mean(drops) > 0.0

    def test_bitwise_deterministic(self):
        ds = synth_blobs(15, 3, 6, 2.0, seed=3)
        arch = Architecture("HL1", 6, 3, hidden=(5,))
        results = []
        for _ in range(2):
            theta = init_params(arch, seed=9)
            train_epochs(arch, theta, Adam(alpha=1e-3), ds, batch_size=4, epochs=3, seed=21)
            results.append(theta)
        assert np.array_equal(results[0], results[1])

    def test_second_call_allocates_nothing_parameter_sized(self):
        # a thread's first steps allocate the workspace and the Adam
        # moments that its later steps reuse
        ds = synth_blobs(4, 10, 100, 2.0, seed=5)
        arch = Architecture("HL1", 100, 10, hidden=(2000,))
        theta, rule = init_params(arch, seed=4), Adam()
        train_epochs(arch, theta, rule, ds, batch_size=4, epochs=1, seed=0)
        tracemalloc.start()
        try:
            train_epochs(arch, theta, rule, ds, batch_size=4, epochs=1, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < theta.nbytes // 4  # one gradient is theta.nbytes, 1.8 MB


class TestAccuracy:
    def test_all_correct(self):
        ds = synth_blobs(10, 2, 3, 100.0, seed=0)
        arch = Architecture("SHL", 3, 2)
        theta = init_params(arch, seed=0)
        train_epochs(arch, theta, Adam(alpha=0.1), ds, batch_size=5, epochs=10, seed=0)
        assert accuracy([(arch, theta)], ds)[0] == 1.0

    def test_uniform_predictor_scores_class_zero_frequency(self):
        # zero params -> uniform output -> tie-break always picks class 0
        arch = Architecture("SHL", 4, 10)
        theta = np.zeros(param_count(arch))
        rng = rng_for(6, "acc")
        labels = rng.integers(0, 10, size=200)
        x = rng.standard_normal((200, 4))
        expected = (labels == 0).mean()
        assert accuracy([(arch, theta)], Dataset(x, labels, 10))[0] == pytest.approx(expected)

    def test_matches_per_sample_recount(self):
        # more rows than one evaluation chunk, so a ragged second chunk counts too
        arch = SMALL_ARCHS[2]
        theta = init_params(arch, seed=5)
        rng = rng_for(7, "recount")
        m = EVAL_CHUNK + 57
        x = rng.standard_normal((m, arch.input_dim))
        y = rng.integers(0, arch.num_classes, size=m)
        recount = np.mean([
            int(np.argmax(forward(arch, theta, xi[None])[1]) == yi) for xi, yi in zip(x, y)
        ])
        assert (accuracy([(arch, theta)], Dataset(x, y, arch.num_classes))[0]
                == pytest.approx(recount))

    def test_ranks_by_logits_not_probabilities(self):
        # class 1's logit is above class 0's by less than softmax resolves:
        # exp(-1e-20) rounds to 1, so the probabilities tie and their argmax
        # would pick class 0
        arch = Architecture("SHL", 4, 3)
        theta = np.zeros(param_count(arch))
        param_views(arch, theta)[0][1][:] = [0.0, 1e-20, -1.0]
        x = rng_for(8, "logit-rank").standard_normal((6, 4))
        probs = forward(arch, theta, x)[1]
        assert np.array_equal(probs[:, 0], probs[:, 1])
        assert accuracy([(arch, theta)], Dataset(x, np.ones(6, dtype=int), 3)) == [1.0]

    def test_empty_set_rejected(self):
        arch = SMALL_ARCHS[0]
        with pytest.raises(ValueError):
            accuracy([(arch, np.zeros(param_count(arch)))],
                     Dataset(np.zeros((0, 7)), np.zeros(0, dtype=int), arch.num_classes))


def test_learner_facade_trains():
    ds = synth_blobs(20, 3, 5, 5.0, seed=2)
    learner = Learner.create(Architecture("HL1", 5, 3, hidden=(6,)), seed=1, rule=Adam(alpha=0.01))
    learner.train(ds, batch_size=10, epochs=30, seed=4)
    assert accuracy([(learner.arch, learner.params)], ds)[0] >= 0.95
