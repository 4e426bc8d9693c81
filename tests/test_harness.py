"""Config parsing/validation, mode orchestration, Monte Carlo aggregation,
and metric persistence."""

import dataclasses
import os
import re
import weakref
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from colearn import data, harness, learner, parallel
from colearn.collective import MetricsRecord
from colearn.config import (
    CollectiveSpec, ConfigError, ExperimentConfig, GraphSpec, IdxSpec, SynthSpec, load_config,
    override, parse_config,
)
from colearn.data import IdxFormatError, load_idx
from colearn.harness import (
    build_schedule,
    check_partition,
    emit_csv,
    emit_plot,
    format_summary,
    montecarlo,
    read_csv,
    resolve_architectures,
    run_mode,
    summarize,
)
from colearn.graph import DirectedGraph, graph_at, schedule_round
from colearn.seeding import subseed

from conftest import (
    FMNIST_NAMES, MISSPELLED_KEYS, TINY_CONFIG, blob_config, every_row, synthetic_idx_dataset,
    with_key,
)


class TestConfigLoading:
    def test_valid_yaml(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG)
        config = load_config(path)
        assert config.mode == "CL"
        assert config.n_agents == 2
        assert config.architectures == ("HL1", "SHL")
        assert config.collective.gamma == 1.0
        assert config.dataset.n_per_class == 60

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    @pytest.mark.parametrize("line, again", [("mode: CL", "mode: ST"),
                                             ("  gamma: 1.0", "  gamma: 50.0")],
                             ids=["top-level", "in-a-section"])
    def test_duplicate_key_rejected(self, tmp_path, line, again):
        # yaml keeps the last of two equal keys; a config naming one twice is
        # as ambiguous as a misspelled key, so it fails naming the line
        lines = TINY_CONFIG.splitlines(keepends=True)
        at = lines.index(line + "\n") + 1
        lines.insert(at, again + "\n")
        path = tmp_path / "exp.yaml"
        path.write_text("".join(lines))
        key = again.split(":")[0].strip()
        with pytest.raises(ConfigError,
                           match=rf"^{re.escape(str(path))}:{at + 1}: duplicate key '{key}'$"):
            load_config(path)

    def test_merged_key_may_be_overridden(self, tmp_path):
        # a key that overrides one merged in with `<<` is no duplicate
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace("  gamma: 1.0\n", "  <<: {gamma: 5.0}\n  gamma: 1.0\n"))
        assert load_config(path).collective.gamma == 1.0

    def test_error_names_missing_field(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace("  train_size: 10\n", ""))
        with pytest.raises(ConfigError, match="partition.train_size"):
            load_config(path)

    def test_error_names_bad_architecture(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace("[HL1, SHL]", "[HL1, CNN]"))
        with pytest.raises(ConfigError, match=r"agents.architectures\[1\].*CNN"):
            load_config(path)

    def test_error_names_bad_mode(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace("mode: CL", "mode: FEDAVG"))
        with pytest.raises(ConfigError, match="mode"):
            load_config(path)

    def test_agent_count_mismatch(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace(
            "agents:\n  architectures: [HL1, SHL]",
            "agents:\n  count: 3\n  architectures: [HL1, SHL]",
        ))
        with pytest.raises(ConfigError, match="agents.count"):
            load_config(path)

    def test_mix_agents(self):
        raw = {
            "mode": "CL",
            "agents": {"mix": {"HL1": 2, "SHL": 1}},
            "partition": {"train_size": 5, "val_size": 5},
            "dataset": {"kind": "synth", "n_per_class": 50, "num_classes": 2,
                        "dim": 4, "separation": 1.0, "test_n_per_class": 10},
        }
        config = parse_config(raw)
        assert config.n_agents == 3
        assert config.architecture_mix == (("HL1", 2), ("SHL", 1))
        kinds = resolve_architectures(config, run_index=0)
        assert sorted(kinds) == ["HL1", "HL1", "SHL"]
        assert resolve_architectures(config, 0) == resolve_architectures(config, 0)

    def test_edges_graph_validation(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace(
            "graph:\n  kind: complete",
            "graph:\n  kind: edges\n  edges: [[0, 5]]",
        ))
        with pytest.raises(ConfigError, match=r"graph.edges\[0\]"):
            load_config(path)

    @pytest.mark.parametrize("section, key", MISSPELLED_KEYS)
    def test_misspelled_key_rejected(self, tmp_path, section, key):
        text, name = with_key(TINY_CONFIG, section, key)
        path = tmp_path / "exp.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(name)}: unknown field; expected"):
            load_config(path)

    def test_erdos_renyi_requires_p(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace(
            "graph:\n  kind: complete", "graph:\n  kind: erdos-renyi\n  period: 7",
        ))
        with pytest.raises(ConfigError, match="graph.p: missing required field"):
            load_config(path)
        with pytest.raises(ConfigError, match="graph.p"):
            GraphSpec(kind="erdos-renyi")

    @pytest.mark.parametrize("graph, field", [
        ("kind: complete\n  p: 0.5", "graph.p"),
        ("kind: complete\n  period: 5", "graph.period"),
        ("kind: complete\n  edges: [[0, 1]]", "graph.edges"),
        ("kind: edges\n  edges: [[0, 1]]\n  period: 5", "graph.period"),
        ("kind: erdos-renyi\n  p: 0.5\n  edges: [[0, 1]]", "graph.edges"),
    ])
    def test_graph_field_its_kind_never_reads_rejected(self, tmp_path, graph, field):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace("graph:\n  kind: complete", f"graph:\n  {graph}"))
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: not read by a '"):
            load_config(path)

    def test_erdos_renyi_ranges_checked(self):
        # graph_at takes p and period as checked here, naming the field
        for fields, message in ((dict(p=1.5), "graph.p: must be <= 1"),
                                (dict(p=-0.1), "graph.p: must be >= 0"),
                                (dict(p=0.5, period=0), "graph.period: must be >= 1")):
            with pytest.raises(ConfigError, match=re.escape(message)):
                GraphSpec(kind="erdos-renyi", **fields)

    def test_no_agents_rejected(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace("  architectures: [HL1, SHL]", "  architectures: []"))
        with pytest.raises(ConfigError, match="agents: exactly one of"):
            load_config(path)

    def test_erdos_renyi_period_defaults_to_10(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace(
            "graph:\n  kind: complete", "graph:\n  kind: erdos-renyi\n  p: 0.4"))
        assert load_config(path).graph.period == 10
        assert GraphSpec(kind="erdos-renyi", p=0.4) == load_config(path).graph
        assert GraphSpec().period is None

    def test_agent_count_follows_the_agents(self, tmp_path):
        assert "n_agents" not in {f.name for f in dataclasses.fields(ExperimentConfig)}
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace(
            "agents:\n  architectures: [HL1, SHL]",
            "agents:\n  count: 2\n  architectures: [HL1, SHL]",
        ))
        assert load_config(path).n_agents == 2

    def test_common_val_parsed(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace(
            "partition:\n  train_size: 10",
            "partition:\n  common_val: true\n  train_size: 10",
        ))
        assert load_config(path).common_val is True
        path.write_text(TINY_CONFIG)
        assert load_config(path).common_val is False

    def test_erdos_renyi_schedule_built(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace(
            "graph:\n  kind: complete",
            "graph:\n  kind: erdos-renyi\n  p: 0.4\n  period: 7",
        ))
        config = load_config(path)
        sched = build_schedule(config)
        assert sched.spec is config.graph and sched.n == 2
        assert sched.seed == subseed(config.master_seed, "graph-schedule")
        assert [schedule_round(sched, k) for k in (0, 6, 7, 20)] == [0, 0, 1, 2]

    def test_complete_schedule_built(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG)
        sched = build_schedule(load_config(path))
        assert schedule_round(sched, 500) == 0
        assert graph_at(sched, 500) == DirectedGraph.complete(2)  # both directions


class TestOverride:
    def test_shorthand(self):
        config = blob_config()
        assert override(config, "gamma", 7.5).collective.gamma == 7.5
        assert override(config, "train_size", 99).train_size == 99
        assert override(config, "mode", "ST").mode == "ST"

    def test_dotted_path(self):
        config = blob_config()
        assert override(config, "training.alpha", 0.5).training.alpha == 0.5

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="no such config"):
            override(blob_config(), "bogus_knob", 1)

    @pytest.mark.parametrize("name, error", [
        ("mode.x", "no such config section: mode$"),
        ("collective.gamma.x", "no such config section: collective.gamma$"),
        ("collective.gama", "no such config field: collective.gama$"),
    ])
    def test_error_names_the_dotted_path(self, name, error):
        with pytest.raises(ConfigError, match=error):
            override(blob_config(), name, 1)

    def test_original_unchanged(self):
        config = blob_config()
        override(config, "gamma", 123.0)
        assert config.collective.gamma != 123.0

    def test_choice_fields_checked(self):
        config = blob_config()
        with pytest.raises(ConfigError, match="mode"):
            override(config, "mode", "st")
        with pytest.raises(ConfigError, match="graph.kind"):
            override(config, "graph.kind", "Complete")

    def test_value_of_wrong_type_rejected(self):
        config = blob_config()
        for name, value in (("common_val", "False"), ("common_val", 0), ("gamma", "abc"),
                            ("gamma", True), ("train_size", True), ("train_size", 2.5),
                            ("mode", 1)):
            with pytest.raises(ConfigError, match=name):
                override(config, name, value)
        # numbers still convert where no value is lost
        gamma = override(config, "gamma", 3).collective.gamma
        assert gamma == 3.0 and type(gamma) is float
        train_size = override(config, "train_size", 20.0).train_size
        assert train_size == 20 and type(train_size) is int
        assert override(config, "common_val", True).common_val is True

    def test_max_iterations_zero_means_uncapped(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(TINY_CONFIG.replace("max_iterations: 20", "max_iterations: 0"))
        from_yaml = load_config(path)
        assert from_yaml.max_iterations is None
        path.write_text(TINY_CONFIG.replace("max_iterations: 20", "max_iterations: 40"))
        capped = load_config(path)
        assert capped.max_iterations == 40
        assert override(capped, "max_iterations", 0) == from_yaml
        with pytest.raises(ConfigError, match="max_iterations"):
            override(capped, "max_iterations", -1)

    def test_graph_field_its_kind_never_reads_rejected(self):
        complete = blob_config()
        for name, value in (("p", 0.5), ("period", 5), ("graph.edges", [[0, 1]])):
            field = "graph." + name.split(".")[-1]
            with pytest.raises(ConfigError, match=rf"{field}: not read by a 'complete' graph"):
                override(complete, name, value)
        er = override(complete, "graph", GraphSpec(kind="erdos-renyi", p=0.4))
        assert override(er, "period", 5).graph == GraphSpec(kind="erdos-renyi", p=0.4, period=5)
        with pytest.raises(ConfigError, match="graph.p: not read by a 'complete' graph"):
            override(er, "graph.kind", "complete")

    def test_adam_hyperparameters_checked(self):
        # Adam takes its hyperparameters as checked here, naming the field
        config = blob_config()
        for name, value in (("beta1", 1.5), ("beta1", 1.0), ("beta1", 0.0), ("beta2", -1.0),
                            ("beta2", 1.0), ("eps", 0.0), ("eps", -1e-8), ("eps", float("nan")),
                            ("alpha", 0.0), ("alpha", -1e-3)):
            with pytest.raises(ConfigError, match=rf"training\.{name}: must"):
                override(config, f"training.{name}", value)

    @pytest.mark.parametrize("mode", ["CL", "ST", "FS"])
    def test_metric_stride_checked(self, mode):
        with pytest.raises(ConfigError, match="metric_stride: must be >= 1"):
            override(blob_config(mode=mode), "metric_stride", 0)

    def test_master_seed_checked(self):
        # every stream derives from it, and SeedSequence takes no negative word
        with pytest.raises(ConfigError, match="master_seed: must be >= 0"):
            override(blob_config(), "master_seed", -1)

    def test_synth_sizes_checked(self):
        # synth_blobs takes its sizes as checked here, naming the field
        for name, value, minimum in (("n_per_class", 0, 1), ("num_classes", 1, 2), ("dim", 0, 1),
                                     ("test_n_per_class", 0, 1)):
            sizes = {**dict(n_per_class=2, num_classes=2, dim=2, test_n_per_class=2), name: value}
            with pytest.raises(ConfigError, match=rf"dataset\.{name}: must be >= {minimum}"):
                SynthSpec(separation=1.0, **sizes)

    def test_partition_checked(self):
        # make_partition takes its sizes as checked here: 4 agents x (20 train
        # + 10 val) need 120 samples
        config = blob_config(train_size=20, val_size=10)
        with pytest.raises(ConfigError, match="need 120 samples, but the corpus has only 100"):
            check_partition(config, 100)
        for name in ("train_size", "val_size"):
            with pytest.raises(ConfigError, match=rf"partition\.{name}: must be >= 1"):
                override(config, name, 0)


class TestCollectiveSpec:
    def test_validation(self):
        with pytest.raises(ConfigError, match="collective.score_refresh_period"):
            CollectiveSpec(score_refresh_period=0, review_period=1, gamma=1.0)
        with pytest.raises(ConfigError, match="collective.gamma"):
            CollectiveSpec(score_refresh_period=1, review_period=1, gamma=-0.5)
        for name in ("review_period", "batch_size", "epochs_over_shared"):
            with pytest.raises(ConfigError, match=f"collective.{name}: must be >= 1"):
                CollectiveSpec(**{name: 0})
        with pytest.raises(ConfigError, match="collective.review_period"):
            override(blob_config(), "review_period", 0)
        assert type(CollectiveSpec(gamma=2).gamma) is float


class TestRunMode:
    def test_st_zero_epochs_is_passthrough(self):
        config = blob_config(mode="ST", self_train_epochs=0, n_per_class=80,
                             train_size=10, val_size=10)
        out = run_mode(config, 0)
        first = [r for r in out.records if r.iteration == 0]
        assert [r.test_accuracy for r in first] == out.final_test

    def test_cl_without_a_shared_pool_fails_before_self_training(self, monkeypatch):
        # 2 agents x (20 train + 5 val) take all 50 samples
        config = blob_config(n_per_class=10, train_size=20, val_size=5, self_train_epochs=2,
                             architectures=("SHL", "SHL"))
        monkeypatch.setattr(harness.Learner, "train",
                            lambda *args, **kwargs: pytest.fail("self-training started"))
        with pytest.raises(ConfigError, match=r"^partition\.train_size, partition\.val_size: "
                                              r"2 agents x 20 train \+ 2 x 5 val use all 50 "):
            run_mode(config, 0)
        # the baselines read no pool
        monkeypatch.undo()
        assert len(run_mode(override(config, "mode", "ST"), 0).final_test) == 2

    @pytest.mark.parametrize("mode, settings, updates", [
        ("CL", {"max_iterations": 20}, 20),
        ("CL", {"max_iterations": 0}, 44),  # 0 is uncapped: 2 epochs of 22 batches
        ("ST", {}, 3),
        ("ST", {"self_train_epochs": 0}, 0),
        ("FS", {"max_iterations": 30}, 30),
        ("FS", {"max_iterations": 0}, 150),  # uncapped: 5 epochs of 30 batches
    ])
    def test_final_test_is_last_record_of_final_params(self, monkeypatch, mode, settings,
                                                        updates):
        made = []
        make_agent = harness._make_agent

        def capture(*args):
            made.append(make_agent(*args))
            return made[-1]

        monkeypatch.setattr(harness, "_make_agent", capture)
        kw = dict(n_per_class=60, train_size=10, val_size=10, self_train_epochs=3,
                  metric_stride=7)
        config = blob_config(mode=mode, **{**kw, **settings})
        out = run_mode(config, 0)
        made.sort(key=lambda a: a.id)
        last = {r.agent: r for r in out.records}
        assert out.final_test == [last[a.id].test_accuracy for a in made]
        # ... and that record measured the agent's final parameters
        test = harness._load_corpus(config.dataset, config.master_seed)[1]
        assert out.final_test == [learner.accuracy([(a.arch, a.params)], test)[0] for a in made]
        assert all(r.iteration == updates for r in last.values())

    @pytest.mark.parametrize("mode", ["ST", "FS"])
    def test_baseline_holds_one_agent_at_a_time(self, monkeypatch, mode):
        # on one thread, each agent lives only for its own training task
        monkeypatch.setattr(parallel, "max_pool_size", lambda: 1)
        built = live = peak = 0

        def dropped():
            nonlocal live
            live -= 1

        class Counted(learner.Learner):
            def __init__(self, *args, **kwargs):
                nonlocal built, live, peak
                super().__init__(*args, **kwargs)
                built, live = built + 1, live + 1
                peak = max(peak, live)
                weakref.finalize(self, dropped)

        monkeypatch.setattr(harness, "Learner", Counted)
        config = blob_config(mode=mode, n_per_class=60, train_size=10, val_size=10,
                             self_train_epochs=2, max_iterations=5,
                             architectures=("HL1", "SHL", "HL1"))
        assert len(run_mode(config, 0).final_test) == 3
        assert (built, peak, live) == (3, 1, 0)

    @pytest.mark.parametrize("mode", ["ST", "FS"])
    def test_diverged_baseline_names_agent_and_update(self, monkeypatch, mode):
        # agent 1 (the SHL) has NaN parameters after its fifth update, a
        # multiple of the stride: the record taken there fails, naming both
        shl_size = learner.param_count(learner.Architecture("SHL", 20, 5))
        apply_update = learner.apply_update

        def diverge(rule, theta, g):
            apply_update(rule, theta, g)
            if rule._steps == 5 and theta.size == shl_size:
                theta[0] = np.nan
            return theta

        monkeypatch.setattr(learner, "apply_update", diverge)
        config = blob_config(mode=mode, n_per_class=60, train_size=50, val_size=10,
                             self_train_epochs=3, metric_stride=5, max_iterations=10,
                             architectures=("HL1", "SHL"))
        with pytest.raises(RuntimeError, match=r"^agent 1 in training: RuntimeError: "
                                               r"non-finite parameters for agent 1 at iteration 5$"):
            run_mode(config, 0)

    def test_fs_reaches_ceiling_on_separable_data(self):
        config = blob_config(
            mode="FS", n_per_class=120, num_classes=3, dim=8, separation=100.0,
            train_size=10, val_size=10, self_train_epochs=1, alpha=0.01,
            architectures=("HL2", "HL1", "SHL"), metric_stride=200,
        )
        out = run_mode(config, 0)
        assert all(acc >= 0.99 for acc in out.final_test)

    def test_cl_runs_and_records_proxies(self):
        config = blob_config(
            runs=1, n_per_class=60, train_size=10, val_size=10,
            self_train_epochs=5, metric_stride=10, max_iterations=20,
        )
        out = run_mode(config, 0)
        assert out.stats["iterations"] == 20
        proxied = [r for r in out.records if r.proxy_match_rate is not None]
        assert proxied

    def test_manifest_written(self, tmp_path):
        config = blob_config(mode="ST", n_per_class=60, train_size=10, val_size=10,
                             self_train_epochs=1)
        run_mode(config, 0, manifest_path=tmp_path / "m.txt")
        assert (tmp_path / "m.txt").read_text().startswith("agents 4")


class TestCorpusCache:
    def test_idx_corpus_read_once_across_seeds(self, tmp_path, monkeypatch):
        synthetic_idx_dataset(tmp_path, m_train=200, m_test=50, seed=3)
        spec = IdxSpec(*(str(tmp_path / name) for name in FMNIST_NAMES))
        calls = []
        load_idx = data.load_idx

        def counted(*args):
            calls.append(args)
            return load_idx(*args)

        monkeypatch.setattr(data, "load_idx", counted)
        configs = [
            dataclasses.replace(
                blob_config(mode="ST", seed=seed, train_size=10, val_size=10,
                            self_train_epochs=1, architectures=("SHL",)),
                dataset=spec,
            )
            for seed in (1, 2)
        ]
        corpora = []
        for config in configs:
            run_mode(config, 0)
            corpora.append(harness._load_corpus(config.dataset, config.master_seed))
        assert len(calls) == 2  # the train pair and the test pair, once
        assert all(a is b for a, b in zip(*corpora))

    @pytest.mark.parametrize("m_train", [200, 150], ids=["same-size", "new-size"])
    def test_rewritten_files_are_read_again(self, tmp_path, m_train):
        synthetic_idx_dataset(tmp_path, m_train=200, m_test=50, seed=3)
        spec = IdxSpec(*(str(tmp_path / name) for name in FMNIST_NAMES))
        old = harness._load_corpus(spec, 1)
        mtimes = [os.stat(path).st_mtime_ns for path in dataclasses.astuple(spec)]
        synthetic_idx_dataset(tmp_path, m_train=m_train, m_test=50, seed=4)
        if m_train == 200:
            # same sizes, so only the modification time tells the files apart;
            # move it a second on, as a rewrite within one tick of the file
            # system clock could leave it as it was
            for path, ns in zip(dataclasses.astuple(spec), mtimes):
                os.utime(path, ns=(ns + 10**9, ns + 10**9))
        new = harness._load_corpus(spec, 1)
        want = load_idx(spec.train_images, spec.train_labels)
        assert new[0].m == m_train
        assert np.array_equal(every_row(new[0].features), every_row(want.features))
        # the old rows were rewritten in place under their open files
        for old_set, path in zip(old, (spec.train_images, spec.test_images)):
            with pytest.raises(IdxFormatError, match=re.escape(path)):
                old_set.features[np.arange(50)]
        want_test = load_idx(spec.test_images, spec.test_labels)
        assert every_row(new[1].features).tobytes() == every_row(want_test.features).tobytes()

    def test_missing_file_fails_as_load_idx_does(self, tmp_path):
        synthetic_idx_dataset(tmp_path, m_train=200, m_test=50, seed=3)
        (tmp_path / FMNIST_NAMES[2]).unlink()
        spec = IdxSpec(*(str(tmp_path / name) for name in FMNIST_NAMES))
        with pytest.raises(IdxFormatError) as got:
            harness._load_corpus(spec, 1)
        with pytest.raises(IdxFormatError) as want:
            load_idx(spec.test_images, spec.test_labels)
        assert str(got.value) == str(want.value)

    def test_cache_clear_reads_the_files_again(self, tmp_path, monkeypatch):
        # a benchmark clears the cache so that pool workers load their own corpus
        synthetic_idx_dataset(tmp_path, m_train=200, m_test=50, seed=3)
        spec = IdxSpec(*(str(tmp_path / name) for name in FMNIST_NAMES))
        calls = []
        load_idx = data.load_idx
        monkeypatch.setattr(data, "load_idx", lambda *args: calls.append(args) or load_idx(*args))
        first = harness._load_corpus(spec, 1)
        assert harness._load_corpus(spec, 1) is first and len(calls) == 2
        harness._load_corpus.cache_clear()
        again = harness._load_corpus(spec, 1)
        assert again is not first and len(calls) == 4
        assert np.array_equal(every_row(again[0].features), every_row(first[0].features))

    def test_blobs_follow_the_seed(self):
        spec = blob_config().dataset
        a, b = (harness._load_corpus(spec, seed)[0] for seed in (1, 2))
        assert not np.array_equal(a.features, b.features)


class TestMontecarlo:
    def test_single_run_summary_flags_zero_std(self):
        config = blob_config(mode="ST", runs=1, n_per_class=60, train_size=10,
                             val_size=10, self_train_epochs=1,
                             architectures=("HL1", "SHL"))
        rows, outputs = montecarlo(config)
        assert all(r.n == 1 for r in rows)
        assert all(r.std == 0.0 for r in rows)
        assert all(r.mean == a for r, a in zip(rows, outputs[0].final_test))
        assert "single-sample" in format_summary(rows)

    def test_identical_seed_identical_summary(self, tmp_path):
        config = blob_config(mode="ST", runs=2, n_per_class=60, train_size=10,
                             val_size=10, self_train_epochs=2)
        rows_a, outs_a = montecarlo(config)
        rows_b, outs_b = montecarlo(config)
        assert rows_a == rows_b
        emit_csv([r for o in outs_a for r in o.records], tmp_path / "a.csv")
        emit_csv([r for o in outs_b for r in o.records], tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_parallel_equals_serial(self):
        config = blob_config(mode="ST", runs=2, n_per_class=60, train_size=10,
                             val_size=10, self_train_epochs=2)
        rows_serial, _ = montecarlo(config, jobs=1)
        rows_parallel, _ = montecarlo(config, jobs=2)
        assert rows_serial == rows_parallel

    def test_failed_run_reports_run_and_seed(self, monkeypatch):
        # partitioning is infeasible for this corpus: the failure must name
        # the run and the master seed, and stay a config error
        config = blob_config(mode="ST", runs=1, seed=31337, n_per_class=10,
                             train_size=400, val_size=10)
        with pytest.raises(ConfigError, match=r"run 0 \(master seed 31337\) failed: partition"):
            montecarlo(config)

        # any other failure is a runtime error, naming them too
        def fail(*args):
            raise FloatingPointError("non-finite activations in forward pass")

        monkeypatch.setattr(harness, "run_mode", fail)
        with pytest.raises(RuntimeError, match=r"run 0 \(master seed 31337\) failed: non-finite"):
            montecarlo(config)

    def test_common_val_flag_flows_through(self, tmp_path):
        config = blob_config(mode="ST", runs=1, n_per_class=60, train_size=10,
                             val_size=10, self_train_epochs=1)
        config = dataclasses.replace(config, common_val=True)
        out = run_mode(config, 0, manifest_path=tmp_path / "m.txt")
        lines = (tmp_path / "m.txt").read_text().splitlines()
        val_lines = [ln for ln in lines if ln.startswith("val ")]
        assert len(set(val_lines)) == 1  # every agent scored on the same block

    def test_accuracy_rises_with_train_set_size(self):
        # cooperative runs at three labeled-set sizes: more private data,
        # higher final accuracy
        means = []
        for ts in (10, 30, 100):
            config = blob_config(
                mode="CL", runs=5, seed=777, train_size=ts, val_size=30,
                self_train_epochs=100, epochs_over_shared=1, metric_stride=5000,
            )
            _, outs = montecarlo(config, jobs=2)
            means.append(np.mean([a for o in outs for a in o.final_test]))
        assert means[0] < means[1] < means[2]

    @pytest.mark.parametrize("corpus", ["blobs", "idx"])
    def test_st_last_record_is_cl_iteration_0(self, corpus, tmp_path):
        # a CL run self-trains each agent on the streams ST trains it on, so
        # ST's final accuracies are CL's at iteration 0; neither config sets
        # max_iterations, which caps ST's self-training and not CL's
        if corpus == "blobs":
            config = blob_config(mode="CL", runs=2, n_per_class=100, self_train_epochs=20,
                                 epochs_over_shared=1, metric_stride=50)
        else:
            synthetic_idx_dataset(tmp_path, m_train=400, m_test=100, seed=5)
            config = dataclasses.replace(
                blob_config(mode="CL", runs=2, self_train_epochs=5, epochs_over_shared=1,
                            metric_stride=50, architectures=("SHL", "HL1", "SHL")),
                dataset=IdxSpec(*(str(tmp_path / name) for name in FMNIST_NAMES)))
        _, cl = montecarlo(config)
        _, st = montecarlo(dataclasses.replace(config, mode="ST"))
        for cl_out, st_out in zip(cl, st, strict=True):
            st_last = {r.agent: (r.test_accuracy, r.val_accuracy) for r in st_out.records}
            cl_first = {r.agent: (r.test_accuracy, r.val_accuracy)
                        for r in cl_out.records if r.iteration == 0}
            assert st_last == cl_first
            assert len(cl_first) == len(config.architectures)

    def test_summarize_pools_same_arch_agents(self):
        config = blob_config(mode="ST", runs=2, n_per_class=60, train_size=10,
                             val_size=10, self_train_epochs=1,
                             architectures=("HL1", "HL1", "SHL", "SHL"))
        rows, outputs = montecarlo(config)
        by_arch = {r.arch: r for r in rows}
        assert by_arch["HL1"].n == 4  # 2 agents x 2 runs
        assert by_arch["SHL"].n == 4
        pooled = [a for o in outputs for k, a in zip(o.arch_kinds, o.final_test) if k == "HL1"]
        assert by_arch["HL1"].mean == pytest.approx(np.mean(pooled))
        assert by_arch["HL1"].std == pytest.approx(np.std(pooled, ddof=1))


def sample_records():
    return [
        MetricsRecord(run=0, iteration=0, agent=0, arch="HL1",
                      test_accuracy=0.5, val_accuracy=0.25, proxy_match_rate=None),
        MetricsRecord(run=0, iteration=100, agent=0, arch="HL1",
                      test_accuracy=0.625, val_accuracy=0.75, proxy_match_rate=0.875),
    ]


class TestCsv:
    def test_empty_stream_header_only(self, tmp_path):
        emit_csv([], tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_text() == \
            "run,iter,agent,arch,test_acc,val_acc,proxy_correct\n"

    def test_two_records_three_lines(self, tmp_path):
        emit_csv(sample_records(), tmp_path / "m.csv")
        text = (tmp_path / "m.csv").read_text()
        lines = text.split("\n")
        assert len(lines) == 4 and lines[3] == ""
        assert lines[1] == "0,0,0,HL1,0.500000,0.250000,"
        assert lines[2] == "0,100,0,HL1,0.625000,0.750000,0.875000"

    def test_roundtrip(self, tmp_path):
        emit_csv(sample_records(), tmp_path / "m.csv")
        back = read_csv(tmp_path / "m.csv")
        assert back == sample_records()
        emit_csv(back, tmp_path / "again.csv")
        assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()

    def test_lf_line_endings(self, tmp_path):
        emit_csv(sample_records(), tmp_path / "m.csv")
        raw = (tmp_path / "m.csv").read_bytes()
        assert b"\r" not in raw


class TestPlot:
    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_plot([], tmp_path / "p.svg")

    def test_single_run_band_collapses_to_line(self, tmp_path):
        emit_plot(sample_records(), tmp_path / "p.svg")
        root = ET.parse(tmp_path / "p.svg").getroot()
        polygons = root.findall(".//{http://www.w3.org/2000/svg}polygon")
        polylines = root.findall(".//{http://www.w3.org/2000/svg}polyline")
        assert len(polygons) == 1 and len(polylines) == 1
        band = polygons[0].get("points").split()
        line = polylines[0].get("points").split()
        assert band[: len(line)] == line  # upper edge == mean line when std=0

    def test_constant_half_accuracy_sits_mid_axis(self, tmp_path):
        records = [
            MetricsRecord(run=0, iteration=k, agent=0, arch="SHL",
                          test_accuracy=0.5, val_accuracy=0.5, proxy_match_rate=None)
            for k in (0, 50, 100)
        ]
        emit_plot(records, tmp_path / "p.svg")
        root = ET.parse(tmp_path / "p.svg").getroot()
        line = root.findall(".//{http://www.w3.org/2000/svg}polyline")[0]
        ys = {float(pt.split(",")[1]) for pt in line.get("points").split()}
        assert len(ys) == 1
        # panel spans y=48..268, so accuracy 0.5 renders at y=158
        assert ys.pop() == pytest.approx(48 + 0.5 * 220)

    def test_multi_arch_panels_and_wellformed_xml(self, tmp_path):
        records = []
        for run in range(3):
            for arch, agent in (("HL2", 0), ("HL1", 1), ("SHL", 2)):
                for k in (0, 10, 20):
                    acc = 0.3 + 0.1 * run + (0.01 * k if arch != "SHL" else 0.0)
                    records.append(MetricsRecord(
                        run=run, iteration=k, agent=agent, arch=arch,
                        test_accuracy=min(acc, 1.0), val_accuracy=0.5,
                        proxy_match_rate=0.5,
                    ))
        emit_plot(records, tmp_path / "p.svg")
        root = ET.parse(tmp_path / "p.svg").getroot()  # raises if malformed
        assert len(root.findall(".//{http://www.w3.org/2000/svg}polyline")) == 3
        text = (tmp_path / "p.svg").read_text()
        assert text.index("HL2") < text.index("HL1") < text.index("SHL")

    def test_arch_name_is_escaped(self, tmp_path):
        records = [dataclasses.replace(r, arch="a&<b>") for r in sample_records()]
        emit_plot(records, tmp_path / "p.svg")
        text = (tmp_path / "p.svg").read_text()
        assert ">a&amp;&lt;b&gt;</text>" in text and "a&<b>" not in text


def test_summary_ordering_and_modes():
    outputs_rows = summarize("ST", [])
    assert outputs_rows == []
    rows = summarize("CL", [
        dataclasses.replace(
            montecarlo(blob_config(mode="ST", runs=1, n_per_class=60, train_size=10,
                                   val_size=10, self_train_epochs=0))[1][0],
        )
    ])
    assert all(r.mode == "CL" for r in rows)
    assert [r.arch for r in rows] == ["HL1", "SHL"]
