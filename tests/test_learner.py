"""Forward/loss/gradient correctness, update rules, and training loops."""

import numpy as np
import pytest

from colearn.data import shuffled_batches, synth_blobs
from colearn.learner import (
    EVAL_CHUNK,
    Adam,
    Architecture,
    Learner,
    Sgd,
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

from conftest import loss

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
        p = forward(arch, theta, np.random.default_rng(0).random(784))
        assert np.allclose(p, 0.1)

    def test_zero_hidden_weights_pass_only_bias(self):
        arch = Architecture("HL1", 7, 4, hidden=(6,))
        theta = np.zeros(param_count(arch))
        _, (w_out, b_out) = param_views(arch, theta)
        b_out[:] = [0.3, -1.2, 2.0, 0.0]
        expected = np.exp(b_out - b_out.max())
        expected /= expected.sum()
        for x in np.random.default_rng(1).random((5, 7)):
            assert np.allclose(forward(arch, theta, x), expected)

    @pytest.mark.parametrize("arch", SMALL_ARCHS, ids=lambda a: a.kind)
    def test_outputs_are_probability_vectors(self, arch):
        rng = rng_for(2, "fwd", arch.kind)
        theta = init_params(arch, seed=4)
        probs = forward(arch, theta, rng.standard_normal((40, arch.input_dim)))
        assert probs.shape == (40, arch.num_classes)
        assert np.all(probs > 0.0) and np.all(probs < 1.0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_dimension_mismatch_rejected(self):
        arch = SMALL_ARCHS[0]
        with pytest.raises(ValueError, match="dimension"):
            forward(arch, np.zeros(param_count(arch)), np.zeros(5))


@pytest.mark.parametrize("call", [
    lambda arch, theta, x, y: forward(arch, theta, x),
    lambda arch, theta, x, y: grad(arch, theta, x, y),
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

    def test_uniform_prediction_is_log_c(self):
        arch = Architecture("SHL", 5, 10)
        theta = np.zeros(param_count(arch))
        x = np.zeros((4, 5))
        assert loss(arch, theta, x, [0, 3, 5, 9]) == pytest.approx(np.log(10.0), abs=1e-12)

    @pytest.mark.parametrize("arch", SMALL_ARCHS, ids=lambda a: a.kind)
    def test_matches_direct_recomputation(self, arch):
        rng = rng_for(3, "loss", arch.kind)
        theta = init_params(arch, seed=8)
        x = rng.standard_normal((9, arch.input_dim))
        y = rng.integers(0, arch.num_classes, size=9)
        probs = forward(arch, theta, x)
        expected = -np.mean(np.log(np.maximum(probs[np.arange(9), y], 1e-12)))
        assert loss(arch, theta, x, y) == pytest.approx(expected, rel=1e-12)


class TestGrad:
    def test_closed_form_output_layer_at_zero(self):
        # at zero params: p = uniform, dW = x outer (p - onehot), db = p - onehot
        arch = Architecture("SHL", 6, 4)
        theta = np.zeros(param_count(arch))
        x = np.arange(1.0, 7.0)
        y = 2
        g = grad(arch, theta, x, [y])
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
        g = grad(arch, theta, x, y)
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
        arch = SMALL_ARCHS[1]
        theta = init_params(arch, seed=1)
        x = rng_for(5, "dup").standard_normal(arch.input_dim)
        single = grad(arch, theta, x.reshape(1, -1), [1])
        double = grad(arch, theta, np.stack([x, x]), [1, 1])
        assert np.allclose(single, double, rtol=1e-15, atol=1e-18)

    @pytest.mark.parametrize("arch", SMALL_ARCHS, ids=lambda a: a.kind)
    def test_out_buffer(self, arch):
        theta = init_params(arch, seed=3)
        rng = rng_for(6, "out", arch.kind)
        x = rng.standard_normal((5, arch.input_dim))
        y = rng.integers(0, arch.num_classes, size=5)
        buf = np.full_like(theta, np.nan)
        assert grad(arch, theta, x, y, out=buf) is buf
        assert np.array_equal(buf, grad(arch, theta, x, y))
        for size in (theta.size - 1, theta.size + 1):
            with pytest.raises(ValueError):
                grad(arch, theta, x, y, out=np.empty(size))


class TestApplyUpdate:
    def test_sgd_exact_step(self):
        theta = np.array([1.0, 1.0])
        g = np.array([1.0, -1.0])
        out = apply_update(Sgd(alpha=0.1), theta, g)
        assert np.allclose(out, [0.9, 1.1])
        assert np.array_equal(out, np.ones(2) - 0.1 * g)
        assert out is theta  # in-place

    def test_sgd_zero_grad_identity(self):
        theta = np.array([2.0, -3.0])
        before = theta.copy()
        apply_update(Sgd(alpha=0.5), theta, np.zeros(2))
        assert np.array_equal(theta, before)

    def test_adam_first_step_closed_form(self):
        # constant positive gradient c: step 1 moves by -alpha * c / (c + eps)
        c, alpha, eps = 3.7, 1e-3, 1e-8
        rule = Adam(alpha=alpha, eps=eps)
        theta = np.zeros(5)
        apply_update(rule, theta, np.full(5, c))
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
            apply_update(Sgd(alpha=0.1), np.zeros(3), np.zeros(4))

    def test_hyperparameter_validation(self):
        with pytest.raises(ValueError):
            Sgd(alpha=0.0)
        with pytest.raises(ValueError):
            Adam(beta1=1.0)


class TestTrainEpochs:
    def test_zero_epochs_unchanged(self):
        arch = SMALL_ARCHS[0]
        theta = init_params(arch, seed=2)
        before = theta.copy()
        ds = synth_blobs(5, 4, 7, 1.0, seed=0)
        rule, steps = Adam(), []
        for kw in ({"epochs": 0}, {"epochs": 3, "max_updates": 0}):
            train_epochs(arch, theta, rule, ds, batch_size=2, seed=0, on_step=steps.append, **kw)
        assert np.array_equal(theta, before)
        assert steps == [] and rule._steps == 0

    def test_update_cap_crosses_epoch_boundary(self):
        # 10 samples in batches of 4: 3 steps per epoch, so a cap of 5 stops
        # two steps into the second epoch
        arch = SMALL_ARCHS[1]
        ds = synth_blobs(5, 2, 7, 1.0, seed=0)
        theta = init_params(arch, seed=3)
        rule, steps = Adam(alpha=1e-2), []
        train_epochs(arch, theta, rule, ds, batch_size=4, epochs=4, seed=8,
                     max_updates=5, on_step=steps.append)
        assert steps == [1, 2, 3, 4, 5] and rule._steps == 5

        ref, ref_rule = init_params(arch, seed=3), Adam(alpha=1e-2)
        batches = [idx for e in range(2)
                   for idx in shuffled_batches(10, 4, rng_for(8, "train-epoch", e))][:5]
        for idx in batches:
            apply_update(ref_rule, ref, grad(arch, ref, ds.features[idx], ds.labels[idx]))
        assert np.array_equal(theta, ref)

    def test_separable_blobs_reach_high_train_accuracy(self):
        ds = synth_blobs(20, 3, 5, 100.0, seed=7)
        arch = Architecture("SHL", 5, 3)
        theta = init_params(arch, seed=0)
        train_epochs(arch, theta, Sgd(0.1), ds, batch_size=10, epochs=20, seed=1)
        assert accuracy(arch, theta, ds) >= 0.99

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


class TestAccuracy:
    def test_all_correct(self):
        ds = synth_blobs(10, 2, 3, 100.0, seed=0)
        arch = Architecture("SHL", 3, 2)
        theta = init_params(arch, seed=0)
        train_epochs(arch, theta, Sgd(0.1), ds, batch_size=5, epochs=10, seed=0)
        assert accuracy(arch, theta, ds) == 1.0

    def test_uniform_predictor_scores_class_zero_frequency(self):
        # zero params -> uniform output -> tie-break always picks class 0
        arch = Architecture("SHL", 4, 10)
        theta = np.zeros(param_count(arch))
        rng = rng_for(6, "acc")
        labels = rng.integers(0, 10, size=200)
        x = rng.standard_normal((200, 4))
        expected = (labels == 0).mean()
        assert accuracy(arch, theta, (x, labels)) == pytest.approx(expected)

    def test_matches_per_sample_recount(self):
        # more rows than one evaluation chunk, so a ragged second chunk counts too
        arch = SMALL_ARCHS[2]
        theta = init_params(arch, seed=5)
        rng = rng_for(7, "recount")
        m = EVAL_CHUNK + 57
        x = rng.standard_normal((m, arch.input_dim))
        y = rng.integers(0, arch.num_classes, size=m)
        recount = np.mean([
            int(np.argmax(forward(arch, theta, xi)) == yi) for xi, yi in zip(x, y)
        ])
        assert accuracy(arch, theta, (x, y)) == pytest.approx(recount)

    def test_ranks_by_logits_not_probabilities(self):
        # class 1's logit is above class 0's by less than softmax resolves:
        # exp(-1e-20) rounds to 1, so the probabilities tie and their argmax
        # would pick class 0
        arch = Architecture("SHL", 4, 3)
        theta = np.zeros(param_count(arch))
        param_views(arch, theta)[0][1][:] = [0.0, 1e-20, -1.0]
        x = rng_for(8, "logit-rank").standard_normal((6, 4))
        probs = forward(arch, theta, x)
        assert np.array_equal(probs[:, 0], probs[:, 1])
        assert accuracy(arch, theta, (x, np.ones(6, dtype=int))) == 1.0

    def test_empty_set_rejected(self):
        arch = SMALL_ARCHS[0]
        with pytest.raises(ValueError):
            accuracy(arch, np.zeros(param_count(arch)), (np.zeros((0, 7)), np.zeros(0, dtype=int)))


def test_learner_facade_trains():
    ds = synth_blobs(20, 3, 5, 5.0, seed=2)
    learner = Learner.create(Architecture("HL1", 5, 3, hidden=(6,)), seed=1, rule=Adam(alpha=0.01))
    learner.train(ds, batch_size=10, epochs=30, seed=4)
    assert learner.accuracy(ds) >= 0.95
