"""Acceptance gate: one test per criterion, each printing a pass line with
the measured values.

Criteria needing the real Fashion-MNIST files skip (with instructions) when
the dataset is absent; everything else runs on synthetic data. Run with

    pytest tests/test_acceptance.py -v -s
"""

import numpy as np
import pytest

from colearn.collective import fuse_and_label
from colearn.config import load_config, override
from colearn.graph import DirectedGraph, build_weight_matrix_log
from colearn.harness import montecarlo, run_mode, summarize
from colearn.learner import Architecture, grad, init_params, forward
from colearn.seeding import rng_for, subseed

from conftest import (
    CONFIG_DIR,
    loss,
    blob_config,
    fashion_mnist_dir,
    requires_fmnist,
    synthetic_idx_dataset,
)
from test_graph import closure_connected, random_graph

def _fmnist_config(name: str, **overrides):
    config = load_config(CONFIG_DIR / name)
    data_dir = fashion_mnist_dir()
    config = override(config, "train_images", str(data_dir / "train-images-idx3-ubyte"))
    config = override(config, "train_labels", str(data_dir / "train-labels-idx1-ubyte"))
    config = override(config, "test_images", str(data_dir / "t10k-images-idx3-ubyte"))
    config = override(config, "test_labels", str(data_dir / "t10k-labels-idx1-ubyte"))
    for key, value in overrides.items():
        config = override(config, key, value)
    return config


def _pooled_final(outputs) -> float:
    return float(np.mean([a for o in outputs for a in o.final_test]))


class TestCriterion1Properties:
    """Property suite: no dataset, fast."""

    def test_row_stochasticity_within_1e9(self):
        rng = rng_for(101, "acc-weights")
        worst = 0.0
        for _ in range(300):
            n = int(rng.integers(1, 16))
            g = random_graph(n, float(rng.random()), rng)
            w = build_weight_matrix_log(g, rng.uniform(0, 8, size=n))
            worst = max(worst, float(np.abs(w.sum(axis=1) - 1.0).max()))
            assert np.all(w >= 0.0) and np.all(np.diag(w) > 0.0)
        assert worst <= 1e-9
        print(f"\nACCEPTANCE 1a row-stochasticity: PASS (max deviation {worst:.2e})")

    def test_connectivity_oracle_agreement(self):
        rng = rng_for(102, "acc-oracle")
        cases = 0
        from colearn.graph import is_strongly_connected
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            g = random_graph(n, float(rng.random()), rng)
            assert is_strongly_connected(g) == closure_connected(g)
            cases += 1
        print(f"ACCEPTANCE 1b connectivity oracle: PASS ({cases} cases, n <= 8)")

    def test_gradient_matches_finite_differences(self):
        rng = rng_for(103, "acc-fd")
        worst = 0.0
        for arch in (
            Architecture("SHL", 9, 5),
            Architecture("HL1", 9, 5, hidden=(7,)),
            Architecture("HL2", 9, 5, hidden=(7, 6)),
        ):
            theta = init_params(arch, seed=17)
            x = rng.standard_normal((5, 9))
            y = rng.integers(0, 5, size=5)
            g = grad(arch, theta, *forward(arch, theta, x), y)
            for c in rng.choice(theta.size, size=min(60, theta.size), replace=False):
                h = 1e-5
                bump = theta.copy()
                bump[c] += h
                up = loss(arch, bump, x, y)
                bump[c] -= 2 * h
                down = loss(arch, bump, x, y)
                fd = (up - down) / (2 * h)
                rel = abs(g[c] - fd) / max(abs(g[c]), abs(fd), 1e-8)
                worst = max(worst, rel)
                assert rel < 1e-4
        print(f"ACCEPTANCE 1c gradient vs finite differences: PASS (worst rel {worst:.2e})")

    def test_softmax_normalization(self):
        rng = rng_for(104, "acc-softmax")
        arch = Architecture("HL1", 12, 6, hidden=(9,))
        theta = init_params(arch, seed=3)
        probs = forward(arch, theta, rng.standard_normal((200, 12)) * 30.0)[1]
        assert np.all(probs >= 0.0)
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-6
        print("ACCEPTANCE 1d softmax normalization: PASS")

    def test_labeling_argmax_invariance(self):
        rng = rng_for(105, "acc-lbl")
        preds = rng.random((5, 20, 7))
        w = rng.random((1, 5))
        w /= w.sum()
        base = fuse_and_label(preds, w)
        for scale in (1e-6, 0.5, 3.0, 1e6):
            assert np.array_equal(base, fuse_and_label(scale * preds, w))
        print("ACCEPTANCE 1e labeling argmax invariance: PASS")

    def test_full_run_determinism_on_blobs(self):
        config = blob_config(runs=1, n_per_class=80, train_size=10, val_size=10,
                             self_train_epochs=3, metric_stride=10, max_iterations=40)
        a = run_mode(config, 0)
        b = run_mode(config, 0)
        assert a.records == b.records
        assert a.final_test == b.final_test
        print("ACCEPTANCE 1f full-run determinism: PASS")


class TestCriterion2SyntheticBenefit:
    def test_collective_beats_self_training_by_3pts(self):
        base = load_config(CONFIG_DIR / "desk_blobs_cl.yaml")
        assert base.montecarlo_runs == 5
        _, cl_outputs = montecarlo(base)
        _, st_outputs = montecarlo(override(base, "mode", "ST"))
        cl, st = _pooled_final(cl_outputs), _pooled_final(st_outputs)
        gap = cl - st
        assert gap >= 0.03, f"CL {cl:.4f} vs ST {st:.4f}: gap {gap:+.4f} < 0.03"
        print(f"\nACCEPTANCE 2 synthetic benefit: PASS (CL {cl:.4f} vs ST {st:.4f}, "
              f"gap {gap:+.4f} >= 0.03)")


@requires_fmnist
class TestCriterion3FashionMnistOrdering:
    def test_cl_beats_st_per_architecture(self):
        cl_config = _fmnist_config("table1_cl.yaml", montecarlo_runs=5, metric_stride=2000)
        st_config = _fmnist_config("table1_st.yaml", montecarlo_runs=5, metric_stride=2000)
        cl_rows, _ = montecarlo(cl_config)
        st_rows, _ = montecarlo(st_config)
        st_by_arch = {r.arch: r for r in st_rows}
        print()
        for row in cl_rows:
            st_row = st_by_arch[row.arch]
            gap = row.mean - st_row.mean
            print(f"ACCEPTANCE 3 {row.arch}: CL {row.mean:.4f} vs ST {st_row.mean:.4f} "
                  f"(gap {gap:+.4f}; reference CL 0.806-0.815, ST 0.750-0.773)")
            assert gap >= 0.02, f"{row.arch}: gap {gap:+.4f} < 0.02"
        print("ACCEPTANCE 3 dataset ordering: PASS")


@requires_fmnist
class TestCriterion4GammaSweep:
    def test_moderate_gamma_beats_extreme_and_zero_declines(self):
        base = _fmnist_config("fig_gamma_500.yaml", montecarlo_runs=3, metric_stride=500)
        finals = {}
        traces = {}
        for gamma in (0.0, 1.0, 10.0, 100.0, 1000.0):
            _, outputs = montecarlo(override(base, "gamma", gamma))
            finals[gamma] = _pooled_final(outputs)
            records = [r for o in outputs for r in o.records]
            by_iter = {}
            for r in records:
                by_iter.setdefault(r.iteration, []).append(r.test_accuracy)
            traces[gamma] = {k: float(np.mean(v)) for k, v in sorted(by_iter.items())}
        print()
        for gamma, value in finals.items():
            print(f"ACCEPTANCE 4 gamma={gamma:g}: final mean {value:.4f}")
        for gamma in (1.0, 10.0, 100.0):
            assert finals[gamma] - finals[1000.0] >= 0.02, (
                f"gamma={gamma:g} ({finals[gamma]:.4f}) does not beat "
                f"gamma=1000 ({finals[1000.0]:.4f}) by 0.02"
            )
        trace0 = traces[0.0]
        peak = max(trace0.values())
        final0 = trace0[max(trace0)]
        assert peak - final0 >= 0.01, (
            f"gamma=0 trace peak {peak:.4f} vs final {final0:.4f}: no decline"
        )
        print("ACCEPTANCE 4 gamma sweep: PASS")


@requires_fmnist
class TestCriterion5ReviewFrequency:
    def test_frequent_review_beats_rare(self):
        base = _fmnist_config("fig_review_period.yaml", montecarlo_runs=3,
                              metric_stride=2000)
        _, frequent = montecarlo(override(base, "review_period", 200))
        _, rare = montecarlo(override(base, "review_period", 5000))
        f, r = _pooled_final(frequent), _pooled_final(rare)
        gap = f - r
        print(f"\nACCEPTANCE 5 review frequency: period 200 {f:.4f} vs 5000 {r:.4f} "
              f"(gap {gap:+.4f})")
        assert gap >= 0.02
        print("ACCEPTANCE 5 review frequency: PASS")


@pytest.fixture(scope="module")
def standin_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("idx-standin")
    synthetic_idx_dataset(d, m_train=15000, m_test=1000)
    return d


class TestCriterion6PresetsAndSmoke:
    def test_all_presets_parse(self):
        presets = sorted(CONFIG_DIR.glob("*.yaml"))
        assert len(presets) == 9
        for path in presets:
            config = load_config(path)
            assert config.n_agents >= 1, path.name
        print(f"\nACCEPTANCE 6a presets parse: PASS ({len(presets)} configs)")

    def _smoked(self, name: str, standin_dir, **overrides):
        config = load_config(CONFIG_DIR / name)
        config = override(config, "train_images", str(standin_dir / "train-images-idx3-ubyte"))
        config = override(config, "train_labels", str(standin_dir / "train-labels-idx1-ubyte"))
        config = override(config, "test_images", str(standin_dir / "t10k-images-idx3-ubyte"))
        config = override(config, "test_labels", str(standin_dir / "t10k-labels-idx1-ubyte"))
        config = override(config, "montecarlo_runs", 1)
        for key, value in overrides.items():
            config = override(config, key, value)
        return run_mode(config, 0)

    def test_smoke_table1_collective(self, standin_dir):
        out = self._smoked("table1_cl.yaml", standin_dir,
                           self_train_epochs=1, max_iterations=200, metric_stride=100)
        assert out.stats["iterations"] == 200
        assert out.records[-1].iteration == 200
        assert all(np.isfinite(a) for a in out.final_test)
        print("\nACCEPTANCE 6b table1 collective smoke: PASS (200 iterations)")

    def test_smoke_large_time_varying_network(self, standin_dir, engine_calls):
        out = self._smoked("large_network.yaml", standin_dir,
                           self_train_epochs=1, max_iterations=200, metric_stride=100)
        assert out.stats["iterations"] == 200
        assert len(out.arch_kinds) == 30
        assert sorted(set(out.arch_kinds)) == ["HL1", "HL2", "SHL"]
        # time-varying graph: weights built at the start and rebuilt at each
        # 10-iteration round change, k = 10, ..., 200
        assert engine_calls.builds == 1 + 20
        # review_period 200: every agent reviews once, all with one seed
        seed = subseed(subseed(7401, 0, "collective"), "review", 200)
        assert sorted(engine_calls.reviews) == [(i, seed) for i in range(30)]
        print("ACCEPTANCE 6c 30-agent time-varying smoke: PASS (200 iterations)")

    def test_smoke_baselines(self, standin_dir):
        st = self._smoked("table1_st.yaml", standin_dir, self_train_epochs=5,
                          metric_stride=100)
        assert st.records[-1].iteration >= 200
        fs = self._smoked("table1_fs.yaml", standin_dir, max_iterations=250,
                          metric_stride=100)
        assert fs.records[-1].iteration == 250
        print("ACCEPTANCE 6d baseline smokes: PASS (ST and FS presets)")
