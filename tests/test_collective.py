"""Labeling, score refresh, round semantics, review scheduling, and the
full engine loop."""

import inspect
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from colearn import _kernels as kernels
from colearn import collective, learner as learner_module
from colearn.collective import (
    collective_round,
    fuse_and_label,
    measure,
    refresh_scores,
    review_step,
    run_collective,
)
from colearn.config import CollectiveSpec, GraphSpec
from colearn.data import Dataset, Partition, make_partition, shuffled_batches, synth_blobs
from colearn.graph import DirectedGraph, GraphSchedule, build_weight_matrix_log
from colearn.learner import (
    Adam, Architecture, Learner, accuracy, apply_update, forward, grad, param_count, param_views,
)
from colearn.parallel import AgentPool
from colearn.seeding import rng_for, subseed

from conftest import predict_proba


def constant_predictor(num_classes: int, winner: int, input_dim: int = 4, id: int = 0) -> Learner:
    """SHL that predicts `winner` with probability exactly 1 (the other
    logits underflow to zero in the softmax)."""
    arch = Architecture("SHL", input_dim, num_classes)
    theta = np.zeros(param_count(arch))
    _, b = param_views(arch, theta)[0]
    b[winner] = 1000.0
    return Learner(arch=arch, params=theta, rule=Adam(), id=id)


def fixed_vector_predictor(probs: list[float], input_dim: int = 4, id: int = 0) -> Learner:
    """SHL whose output on x=0 is softmax(log p) = p for a normalized p."""
    arch = Architecture("SHL", input_dim, len(probs))
    theta = np.zeros(param_count(arch))
    _, b = param_views(arch, theta)[0]
    b[:] = np.log(probs)
    return Learner(arch=arch, params=theta, rule=Adam(), id=id)


def labeled(features: np.ndarray, labels: list[int], num_classes: int) -> Dataset:
    return Dataset(features, np.asarray(labels), num_classes)


class TestRefreshScores:
    def test_gamma_zero_gives_unit_scores(self):
        agents = [
            constant_predictor(3, 0, id=0),
            constant_predictor(3, 1, id=1),
        ]
        vals = [
            labeled(np.zeros((4, 4)), [0, 0, 1, 2], 3),
            labeled(np.zeros((4, 4)), [0, 0, 1, 2], 3),
        ]
        assert np.exp(refresh_scores(agents, vals, 0.0, AgentPool(), 0)).tolist() == [1.0, 1.0]
        # at gamma 1 the log scores are the validation accuracies
        assert refresh_scores(agents, vals, 1.0, AgentPool(), 0).tolist() == [0.5, 0.25]

    def test_gamma_one_exact_exponentials(self):
        agents = [
            constant_predictor(2, 0, id=0),
            constant_predictor(2, 0, id=1),
        ]
        vals = [
            labeled(np.zeros((10, 4)), [0] * 5 + [1] * 5, 2),   # accuracy 0.5
            labeled(np.zeros((10, 4)), [0] * 7 + [1] * 3, 2),   # accuracy 0.7
        ]
        scores = np.exp(refresh_scores(agents, vals, 1.0, AgentPool(), 0))
        assert scores == pytest.approx([1.64872, 2.01375], abs=1e-5)

    def test_large_gamma_weight_ratio(self):
        # accuracies 0.80 vs 0.81 at gamma=100: score ratio is e
        agents = [
            constant_predictor(2, 0, id=0),
            constant_predictor(2, 0, id=1),
        ]
        vals = [
            labeled(np.zeros((100, 4)), [0] * 80 + [1] * 20, 2),
            labeled(np.zeros((100, 4)), [0] * 81 + [1] * 19, 2),
        ]
        log_scores = refresh_scores(agents, vals, 100.0, AgentPool(), 0)
        scores = np.exp(log_scores)
        assert scores[1] / scores[0] == pytest.approx(np.e, rel=1e-9)
        w = build_weight_matrix_log(DirectedGraph.complete(2), log_scores)
        assert w[0, 1] / w[0, 0] == pytest.approx(np.e, rel=1e-9)

    def test_extreme_gamma_does_not_overflow(self):
        agents = [
            constant_predictor(2, 0, id=0),
            constant_predictor(2, 0, id=1),
        ]
        vals = [
            labeled(np.zeros((10, 4)), [0] * 8 + [1] * 2, 2),   # accuracy 0.8
            labeled(np.zeros((10, 4)), [0] * 9 + [1] * 1, 2),   # accuracy 0.9
        ]
        w = build_weight_matrix_log(DirectedGraph.complete(2),
                                    refresh_scores(agents, vals, 1000.0, AgentPool(), 0))
        assert np.all(np.isfinite(w))
        assert np.allclose(w.sum(axis=1), 1.0)
        # exp(1000*(0.8-0.9)) = e^-100: the better agent dominates both rows
        assert w[0, 1] == pytest.approx(1.0, abs=1e-40)
        assert w[0, 0] == pytest.approx(np.exp(-100.0), rel=1e-9)


class TestFuseAndLabel:
    def test_hand_computed_two_agents(self):
        batch = np.zeros((1, 4))
        a = fixed_vector_predictor([0.9, 0.1])
        b = fixed_vector_predictor([0.2, 0.8])
        preds = np.stack([predict_proba(a, batch), predict_proba(b, batch)])
        w = np.array([[0.5, 0.5], [0.5, 0.5]])
        fused = kernels.fuse_rows(preds, w)
        assert np.allclose(fused, [[[0.55, 0.45]], [[0.55, 0.45]]], atol=1e-9)
        assert fuse_and_label(preds, w[0:1])[0].tolist() == [0]
        assert fuse_and_label(preds, w[1:2])[0].tolist() == [0]

    def test_positive_scaling_invariance(self):
        rng = rng_for(2, "scale-invariance")
        preds = rng.random((4, 8, 5))
        w = rng.random((1, 4))
        w /= w.sum()
        assert np.array_equal(fuse_and_label(preds, w), fuse_and_label(37.5 * preds, w))

    def test_fused_values_are_convex_combinations(self):
        rng = rng_for(3, "convexity")
        preds = rng.random((6, 10, 4))
        w = rng.random(6)
        w /= w.sum()
        fused = kernels.fuse_rows(preds, w[None, :])[0]
        assert np.all(fused <= preds.max(axis=0) + 1e-12)
        assert np.all(fused >= preds.min(axis=0) - 1e-12)


class TestCollectiveRound:
    def test_single_agent_reduces_to_pseudo_labeling(self):
        ds = synth_blobs(30, 3, 4, 8.0, seed=0)
        learner = Learner.create(Architecture("SHL", 4, 3), seed=1, rule=Adam(alpha=0.01))
        learner.train(ds, batch_size=10, epochs=30, seed=2)
        batch = ds.features[:7]
        expected = np.argmax(predict_proba(learner, batch), axis=1)
        labels = collective_round([learner], np.array([[1.0]]), batch, AgentPool(), 1)
        assert np.array_equal(labels[0], expected)

    def test_identical_predictions_ignore_weights(self):
        batch = np.zeros((3, 4))
        agents = [fixed_vector_predictor([0.1, 0.6, 0.3], id=i) for i in range(3)]
        rng = rng_for(4, "row-stochastic")
        w = rng.random((3, 3))
        w /= w.sum(axis=1, keepdims=True)
        labels = collective_round(agents, w, batch, AgentPool(), 1)
        for lab in labels:
            assert lab.tolist() == [1, 1, 1]

    def test_updates_use_pre_round_predictions(self):
        # both agents receive the same fused labels computed before any update
        batch = np.zeros((1, 4))
        a = fixed_vector_predictor([0.9, 0.1])
        b = fixed_vector_predictor([0.2, 0.8], id=1)
        agents = [a, b]
        pre_a = predict_proba(a, batch).copy()
        pre_b = predict_proba(b, batch).copy()
        w = np.full((2, 2), 0.5)
        labels = collective_round(agents, w, batch, AgentPool(), 1)
        manual = np.argmax(0.5 * pre_a + 0.5 * pre_b, axis=1)
        assert np.array_equal(labels[0], manual)
        assert np.array_equal(labels[1], manual)

    def test_shared_grad_buffer_matches_fresh_allocation(self):
        # agents of different sizes take turns in the pool threads' buffers
        # over two rounds
        batch = rng_for(8, "shared-buf").standard_normal((5, 4))

        def make_agents():
            return [
                Learner.create(Architecture(kind, 4, 3), seed=i, id=i)
                for i, kind in enumerate(("SHL", "HL2", "HL1"))
            ]

        for size in (1, 2):
            fresh, shared = make_agents(), make_agents()
            w = np.full((3, 3), 1.0 / 3.0)
            with AgentPool(size) as pool:
                for _ in range(2):
                    expected = collective_round(fresh, w, batch, AgentPool(), 1)
                    labels = collective_round(shared, w, batch, pool, 1)
                    for a, b, la, lb in zip(fresh, shared, expected, labels):
                        assert np.array_equal(la, lb)
                        assert np.array_equal(a.params, b.params)

    def test_one_pass_round_matches_two_pass_reference(self):
        # the round as it ran before one forward pass served both halves:
        # every agent predicts, then each gradient runs the layers again
        def two_pass_round(agents, weights, batch, grad_buf):
            preds = np.stack([predict_proba(a, batch) for a in agents])
            labels = [fuse_and_label(preds, weights[i:i + 1])[0] for i in range(len(agents))]
            for agent, lab in zip(agents, labels):
                g = grad(agent.arch, agent.params, *forward(agent.arch, agent.params, batch), lab,
                         out=grad_buf[: agent.params.size])
                apply_update(agent.rule, agent.params, g)
            return labels

        def make_agents():
            kinds = [("SHL", None), ("HL1", None), ("HL2", (10, 8))]
            return [
                Learner.create(Architecture(kind, 12, 4, hidden=hidden), seed=20 + i,
                               rule=Adam(alpha=0.01), id=i)
                for i, (kind, hidden) in enumerate(kinds)
            ]

        rng = rng_for(9, "one-pass")
        batch = rng.standard_normal((7, 12))  # shorter than a collective batch of 10
        w = rng.random((3, 3))
        w /= w.sum(axis=1, keepdims=True)
        got, want = make_agents(), make_agents()
        want_buf = np.empty(max(a.params.size for a in want))
        with AgentPool(1) as pool:
            for _ in range(2):
                labels = collective_round(got, w, batch, pool, 1)
                expected = two_pass_round(want, w, batch, want_buf)
                assert np.stack(labels).tobytes() == np.stack(expected).tobytes()
        for a, b in zip(got, want):
            assert a.rule._steps == b.rule._steps == 2
            assert a.params.tobytes() == b.params.tobytes()
            assert a.rule._m.tobytes() == b.rule._m.tobytes()
            assert a.rule._v.tobytes() == b.rule._v.tobytes()

    def test_privacy_boundary_is_structural(self, monkeypatch):
        # what crosses between agents is the round's prediction vectors,
        # stacked in agent order, and scalar weights: nothing else
        assert list(inspect.signature(fuse_and_label).parameters) == ["predictions", "weights"]
        batch = rng_for(10, "privacy").standard_normal((5, 4))
        # agents of different sizes, so the pool starts them out of agent order
        agents = [Learner.create(Architecture(kind, 4, 3), seed=30 + i, id=i)
                  for i, kind in enumerate(("SHL", "HL2", "HL1"))]
        want = np.stack([forward(a.arch, a.params, batch)[1] for a in agents])
        w = np.full((3, 3), 1.0 / 3.0)
        calls = []

        def recording(predictions, weights):
            calls.append((predictions.copy(), weights))
            return fuse_and_label(predictions, weights)

        monkeypatch.setattr(collective, "fuse_and_label", recording)
        with AgentPool(2) as pool:
            collective_round(agents, w, batch, pool, 1)
        assert len(calls) == 1
        predictions, weights = calls[0]
        assert weights is w
        assert predictions.dtype == np.float64 and predictions.shape == want.shape
        assert predictions.tobytes() == want.tobytes()


class TestReviewStep:
    def test_exact_fit_is_fixed_point(self):
        # logit gap large enough that softmax underflows to exact one-hot
        learner = constant_predictor(3, winner=0)
        train = labeled(rng_for(5, "review").random((12, 4)), [0] * 12, 3)
        before = learner.params.copy()
        review_step(learner, train, batch_size=4, seed=0)
        assert np.array_equal(learner.params, before)

    def test_run_buffer_keeps_bits(self):
        # two reviews and an accuracy call on a fresh thread, and on one whose
        # workspace is larger than the model and full of 0xFF bytes (NaN as
        # float64 and as float32)
        ds = synth_blobs(12, 3, 5, 2.0, seed=4)
        arch = Architecture("HL1", 5, 3, hidden=(6,))

        def reviews(scratch):
            if scratch is not None:
                learner_module._scratch.buf = scratch
            learner = Learner.create(arch, seed=2, rule=Adam(alpha=1e-2))
            for r in range(2):
                review_step(learner, ds, batch_size=5, seed=r)
            acc = accuracy([(arch, learner.params)], ds)
            if scratch is not None:
                assert learner_module._scratch.buf is scratch  # reused, not replaced
            return learner.params, learner.rule._m, learner.rule._v, learner.rule._steps, acc

        results = []
        for scratch in (None, np.full(8 * param_count(arch) + 4096, 0xFF, dtype=np.uint8)):
            with ThreadPoolExecutor(1) as thread:
                results.append(thread.submit(reviews, scratch).result())
        assert results[0][3] == results[1][3] == 16
        assert results[0][4] == results[1][4]
        for a, b in zip(results[0][:3], results[1][:3]):
            assert np.array_equal(a, b)

    def test_review_recovers_from_label_corruption(self):
        ds = synth_blobs(30, 3, 5, 100.0, seed=6)
        learner = Learner.create(Architecture("SHL", 5, 3), seed=3, rule=Adam(alpha=0.1))
        learner.train(ds, batch_size=10, epochs=20, seed=1)

        def score() -> float:
            return accuracy([(learner.arch, learner.params)], ds)[0]

        baseline = score()
        assert baseline >= 0.99
        # corrupt: several epochs against rotated labels
        wrong = Dataset(ds.features, (ds.labels + 1) % 3, 3)
        learner.train(wrong, batch_size=10, epochs=3, seed=2)
        assert score() < baseline
        for r in range(3):
            review_step(learner, ds, batch_size=10, seed=10 + r)
            if score() >= baseline:
                break
        assert score() >= baseline


def single_agent_partition(m_shared_class: int = 200, seed: int = 0) -> Partition:
    source = synth_blobs(m_shared_class, 3, 4, 6.0, seed=seed)
    test = synth_blobs(40, 3, 4, 6.0, seed=seed + 1)
    return make_partition(source, 1, 30, 20, seed=seed, test=test)


class TestEngine:
    def test_review_and_refresh_schedule(self, monkeypatch, engine_calls):
        refreshed_at = []
        measure_scores = collective.refresh_scores

        def recording(agents, vals, gamma, pool=None, k=None):
            refreshed_at.append(k)
            return measure_scores(agents, vals, gamma, pool, k)

        monkeypatch.setattr(collective, "refresh_scores", recording)
        # 3000 shared samples, batch 10, 3 epochs -> exactly 900 iterations
        source = synth_blobs(1020, 3, 4, 6.0, seed=0)
        test = synth_blobs(40, 3, 4, 6.0, seed=1)
        part = make_partition(source, 1, 30, 30, seed=0, test=test)
        assert part.shared_indices.size == 3000
        agent = Learner.create(Architecture("SHL", 4, 3), seed=2, id=0)
        config = CollectiveSpec(
            score_refresh_period=100, review_period=300, gamma=1.0,
            batch_size=10, epochs_over_shared=3,
        )
        result = run_collective(
            [agent], part, GraphSchedule(GraphSpec(), 1, seed=0), config,
            seed=3, metric_stride=450,
        )
        assert result.stats["iterations"] == 900
        # a review's seed names its iteration
        assert sorted(engine_calls.reviews) == sorted(
            (0, subseed(3, "review", k)) for k in (300, 600, 900))
        # the first scores come from iteration 0's records, so no refresh
        # runs there; the weights are built once at the start and rebuilt at
        # each of the 900 / 100 refreshes
        assert refreshed_at == list(range(100, 901, 100))
        assert engine_calls.builds == 1 + 9

    def test_every_agent_reviews_in_agent_order(self, engine_calls):
        source = synth_blobs(120, 3, 4, 5.0, seed=40)
        test = synth_blobs(30, 3, 4, 5.0, seed=41)
        part = make_partition(source, 2, 20, 10, seed=42, test=test)
        agents = [
            Learner.create(Architecture("SHL", 4, 3), seed=50 + i, id=i)
            for i in range(2)
        ]
        config = CollectiveSpec(
            score_refresh_period=1000, review_period=10, gamma=0.0,
            batch_size=10, epochs_over_shared=1,
        )
        result = run_collective(
            agents, part, GraphSchedule(GraphSpec(), 2, seed=0), config,
            seed=51, metric_stride=100,
        )
        assert result.stats["iterations"] == 30
        # both agents review at each period, with one seed for the iteration
        assert sorted(engine_calls.reviews) == sorted(
            (i, subseed(51, "review", k)) for k in (10, 20, 30) for i in (0, 1))

    def test_batches_are_gathered_source_rows(self, monkeypatch):
        source = synth_blobs(60, 3, 4, 6.0, seed=12)
        part = make_partition(source, 2, 20, 10, seed=13, test=synth_blobs(10, 3, 4, 6.0, 14))
        seen = []
        round_fn = collective.collective_round

        def spy(agents, weights, batch_features, *args):
            seen.append(batch_features.copy())
            return round_fn(agents, weights, batch_features, *args)

        monkeypatch.setattr(collective, "collective_round", spy)
        agents = [
            Learner.create(Architecture("SHL", 4, 3), seed=i, id=i)
            for i in range(2)
        ]
        config = CollectiveSpec(score_refresh_period=5, review_period=7, gamma=1.0,
                                batch_size=10, epochs_over_shared=2)
        run_collective(agents, part, GraphSchedule(GraphSpec(), 2, seed=0), config,
                       seed=15, metric_stride=100)
        order = [idx for e in range(2) for idx in shuffled_batches(
            part.shared_indices.size, 10, rng_for(15, "shared-order", e))]
        assert len(seen) == len(order) == 2 * 12
        for got, idx in zip(seen, order):
            want = source.features[part.shared_indices[idx]]
            assert got.tobytes() == want.tobytes()

    def test_metric_records_structure(self):
        part = single_agent_partition()
        agent = Learner.create(Architecture("SHL", 4, 3), seed=2, id=0)
        config = CollectiveSpec(
            score_refresh_period=10, review_period=25, gamma=1.0,
            batch_size=10, epochs_over_shared=1,
        )
        result = run_collective(
            [agent], part, GraphSchedule(GraphSpec(), 1, seed=0), config,
            seed=3, metric_stride=20,
        )
        iters = [r.iteration for r in result.records]
        assert iters[0] == 0
        assert iters[-1] == result.stats["iterations"]
        assert result.records[0].proxy_match_rate is None
        for rec in result.records[1:]:
            assert 0.0 <= rec.proxy_match_rate <= 1.0
            assert 0.0 <= rec.test_accuracy <= 1.0

    def test_symmetric_agents_stay_bitwise_identical(self):
        # identical data, identical initialization, gamma=0: perfect symmetry
        train = synth_blobs(20, 3, 4, 4.0, seed=10)
        val = synth_blobs(10, 3, 4, 4.0, seed=11)
        pool = synth_blobs(100, 3, 4, 4.0, seed=12)
        test = synth_blobs(20, 3, 4, 4.0, seed=13)
        part = Partition(
            train=(train, train), val=(val, val),
            source_features=pool.features, shared_true_labels=pool.labels,
            test=test,
            train_indices=(np.arange(train.m),) * 2,
            val_indices=(np.arange(val.m),) * 2,
            shared_indices=np.arange(pool.m),
        )
        agents = [
            Learner.create(Architecture("HL1", 4, 3, hidden=(5,)), seed=42, rule=Adam(), id=i)
            for i in range(2)
        ]
        assert np.array_equal(agents[0].params, agents[1].params)
        config = CollectiveSpec(
            score_refresh_period=7, review_period=13, gamma=0.0,
            batch_size=10, epochs_over_shared=2,
        )
        run_collective(
            agents, part, GraphSchedule(GraphSpec(), 2, seed=0), config, seed=5,
            metric_stride=30,
        )
        assert np.array_equal(agents[0].params, agents[1].params)

    def test_full_run_determinism(self):
        def one_run():
            part = single_agent_partition(seed=3)
            agents = [
                Learner.create(Architecture("SHL", 4, 3), seed=7, id=0),
            ]
            config = CollectiveSpec(
                score_refresh_period=11, review_period=17, gamma=2.0,
                batch_size=10, epochs_over_shared=2,
            )
            return run_collective(
                agents, part, GraphSchedule(GraphSpec(), 1, seed=0), config,
                seed=9, metric_stride=25,
            )

        a, b = one_run(), one_run()
        assert a.records == b.records
        assert a.stats == b.stats

    def test_time_varying_schedule_rebuilds_weights(self, engine_calls):
        source = synth_blobs(200, 3, 4, 5.0, seed=20)
        test = synth_blobs(30, 3, 4, 5.0, seed=21)
        part = make_partition(source, 3, 20, 10, seed=22, test=test)
        agents = [
            Learner.create(Architecture("SHL", 4, 3), seed=30 + i, id=i)
            for i in range(3)
        ]
        config = CollectiveSpec(
            score_refresh_period=1000, review_period=1000, gamma=1.0,
            batch_size=10, epochs_over_shared=1,
        )
        schedule = GraphSchedule(GraphSpec("erdos-renyi", p=0.6, period=5), 3, seed=8)
        result = run_collective(agents, part, schedule, config, seed=31, metric_stride=100)
        iters = result.stats["iterations"]
        # graph round changes every 5 iterations; each change rebuilds the
        # weights built at the start
        assert engine_calls.builds == iters // 5 + 1

    def test_max_iterations_cap(self):
        part = single_agent_partition(seed=4)
        agent = Learner.create(Architecture("SHL", 4, 3), seed=2, id=0)
        config = CollectiveSpec(
            score_refresh_period=10, review_period=20, gamma=1.0,
            batch_size=10, epochs_over_shared=3,
        )
        result = run_collective(
            [agent], part, GraphSchedule(GraphSpec(), 1, seed=0), config,
            seed=3, metric_stride=10, max_iterations=35,
        )
        assert result.stats["iterations"] == 35
        assert result.records[-1].iteration == 35

    def test_aborts_on_non_finite_params(self):
        part = single_agent_partition(seed=5)
        agent = Learner.create(Architecture("SHL", 4, 3), seed=2, id=0)
        agent.params[:] = np.nan
        config = CollectiveSpec(
            score_refresh_period=10, review_period=20, gamma=1.0,
            batch_size=10, epochs_over_shared=1,
        )
        with pytest.raises(RuntimeError, match=r"agent 0 at iteration \d+"):
            run_collective(
                [agent], part, GraphSchedule(GraphSpec(), 1, seed=0), config,
                seed=3, metric_stride=10,
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
    def test_measure_rejects_one_non_finite_parameter(self, bad):
        part = single_agent_partition(seed=5)
        agents = [Learner.create(Architecture("SHL", 4, 3), seed=2, id=i) for i in range(2)]
        agents[1].params[3] = bad
        with pytest.raises(RuntimeError, match=r"^non-finite parameters for agent 1 at iteration 7$"):
            measure(agents, [part.val[0]] * 2, part.test, 7, 0)

    def test_agents_out_of_id_order_rejected(self):
        source = synth_blobs(60, 3, 4, 6.0, seed=7)
        part = make_partition(source, 3, 10, 10, seed=7, test=synth_blobs(10, 3, 4, 6.0, seed=8))
        agents = [constant_predictor(3, i, id=i) for i in (2, 0, 1)]
        with pytest.raises(ValueError, match=r"agents\[0\] has id 2"):
            run_collective(agents, part, GraphSchedule(GraphSpec("edges", edges=()), 3, seed=0),
                           CollectiveSpec(gamma=1.0), seed=0)

    def test_class_count_mismatch_rejected(self):
        source = synth_blobs(60, 3, 4, 6.0, seed=7)
        part = make_partition(source, 2, 10, 10, seed=7, test=synth_blobs(10, 3, 4, 6.0, seed=8))
        agents = [
            fixed_vector_predictor([0.5, 0.5], id=0),
            fixed_vector_predictor([0.3, 0.3, 0.4], id=1),
        ]
        with pytest.raises(ValueError, match="classes"):
            run_collective(agents, part, GraphSchedule(GraphSpec(), 2, seed=0),
                           CollectiveSpec(gamma=1.0), seed=0)

    @pytest.mark.parametrize("part_agents, graph_nodes, message", [
        (2, 1, "1 agents but partition holds 2"),
        (1, 2, "1 agents but graph schedule has 2 nodes"),
    ])
    def test_agent_count_mismatch_rejected(self, part_agents, graph_nodes, message):
        source = synth_blobs(60, 3, 4, 6.0, seed=7)
        part = make_partition(source, part_agents, 10, 10, seed=7,
                              test=synth_blobs(10, 3, 4, 6.0, seed=8))
        agent = Learner.create(Architecture("SHL", 4, 3), seed=2, id=0)
        with pytest.raises(ValueError, match=message):
            run_collective([agent], part, GraphSchedule(GraphSpec(), graph_nodes, seed=0),
                           CollectiveSpec(gamma=1.0), seed=0)

    def test_agent_id_and_size_validation(self):
        part = single_agent_partition(seed=6)
        agent = Learner.create(Architecture("SHL", 4, 3), seed=2, id=1)
        config = CollectiveSpec(
            score_refresh_period=10, review_period=20, gamma=1.0,
        )
        with pytest.raises(ValueError, match="agent ids"):
            run_collective(
                [agent], part, GraphSchedule(GraphSpec(), 1, seed=0), config, seed=0
            )
