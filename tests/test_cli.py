"""Command-line surface: exit codes, output files, and formats."""

import os
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml

from colearn import cli, collective, harness
from colearn.cli import main
from colearn.data import write_idx

from conftest import (
    FMNIST_NAMES, MISSPELLED_KEYS, TINY_CONFIG, synthetic_idx_dataset, with_key,
)


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY_CONFIG)
    return path


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("run", "montecarlo", "sweep", "graph-dump", "data-check", "plot"):
        assert cmd in out


def test_unknown_flag_rejected(tiny_config):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(tiny_config), "--frobnicate"])
    assert exc.value.code == 2


def test_run_missing_config_exits_1(tmp_path, capsys):
    missing = tmp_path / "absent.yaml"
    code = main(["run", str(missing)])
    assert code == 1
    assert f"config file not found: {missing}" in capsys.readouterr().err


def test_run_writes_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", str(tiny_config), "--out", str(out)])
    assert code == 0
    for name in ("metrics.csv", "plot.svg", "summary.txt", "manifest.txt"):
        assert (out / name).is_file(), name
    stdout = capsys.readouterr().out
    assert "mean" in stdout


def test_montecarlo_writes_outputs(tiny_config, tmp_path):
    out = tmp_path / "mc"
    code = main(["montecarlo", str(tiny_config), "--out", str(out)])
    assert code == 0
    assert (out / "metrics.csv").is_file()
    assert (out / "manifests" / "run_000.txt").is_file()


@pytest.mark.parametrize("command", ["montecarlo", "sweep --param gamma --values 1"],
                         ids=lambda command: command.split()[0])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_exits_1(tiny_config, tmp_path, capsys, command, jobs):
    name, *rest = command.split()
    code = main([name, str(tiny_config), *rest, "--jobs", jobs, "--out", str(tmp_path / "out")])
    assert code == 1
    assert f"--jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("metrics.csv"))


def test_sweep_emits_one_table_per_value(tiny_config, tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main([
        "sweep", str(tiny_config), "--param", "gamma",
        "--values", "0,1,10,100,1000", "--out", str(out),
    ])
    assert code == 0
    stdout = capsys.readouterr().out
    assert stdout.count("== gamma =") == 5
    for value in (0, 1, 10, 100, 1000):
        assert (out / f"gamma_{value}" / "summary.txt").is_file()


def test_run_montecarlo_and_sweep_write_the_same_files(tiny_config, tmp_path, capsys):
    # tiny_config is one run at gamma 1.0, so the three commands run one experiment
    run, mc, sweep = tmp_path / "run", tmp_path / "mc", tmp_path / "sweep"
    assert main(["run", str(tiny_config), "--out", str(run)]) == 0
    assert main(["montecarlo", str(tiny_config), "--out", str(mc)]) == 0
    capsys.readouterr()
    assert main(["sweep", str(tiny_config), "--param", "gamma", "--values", "1",
                 "--out", str(sweep)]) == 0
    summary = (run / "summary.txt").read_text()
    assert capsys.readouterr().out == f"== gamma = 1\n{summary}"
    for name in ("metrics.csv", "summary.txt"):
        want = (run / name).read_bytes()
        assert (mc / name).read_bytes() == want, name
        assert (sweep / "gamma_1" / name).read_bytes() == want, name
    assert (mc / "plot.svg").read_bytes() == (run / "plot.svg").read_bytes()
    assert not list(sweep.rglob("plot.svg"))


@pytest.mark.parametrize("values", ["0.1,0.10", "1,1.0", "2,1,2"])
def test_sweep_duplicate_values_exit_1(tiny_config, tmp_path, capsys, values):
    # equal values would run one experiment twice, into one directory or two
    out = tmp_path / "s"
    code = main(["sweep", str(tiny_config), "--param", "gamma", "--values", values,
                 "--out", str(out)])
    assert code == 1
    assert "--values" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_unknown_param_exits_1(tiny_config, tmp_path, capsys):
    code = main(["sweep", str(tiny_config), "--param", "nonsense", "--values", "1,2",
                 "--out", str(tmp_path / "s")])
    assert code == 1
    assert "no such config field: nonsense" in capsys.readouterr().err


@pytest.mark.parametrize("param, values, field", [
    ("review_period", "2,0", "collective.review_period"),
    ("mode", "st", "mode"),
    ("common_val", "False", "common_val"),
    ("n_agents", "3", "n_agents"),
    # a complete graph reads no p: each value would run the same experiment
    ("p", "0.1,0.5", "graph.p: not read by a 'complete' graph"),
    ("training.beta1", "0.9,1.5", "training.beta1"),
    ("training.eps", "1e-8,0", "training.eps"),
    ("gamma", "1,nan", "collective.gamma"),
    ("alpha", "inf", "training.alpha"),
    pytest.param("alpha", "0.01,1" + "0" * 400, "training.alpha: must be finite",
                 id="alpha-1e400-training.alpha"),
])
def test_sweep_checks_every_value_before_any_run(tiny_config, tmp_path, capsys, param,
                                                 values, field):
    code = main(["sweep", str(tiny_config), "--param", param, "--values", values,
                 "--out", str(tmp_path / "s")])
    assert code == 1
    assert field in capsys.readouterr().err
    assert not list(tmp_path.rglob("metrics.csv"))


@pytest.mark.parametrize("section, key", MISSPELLED_KEYS)
def test_run_misspelled_key_exits_1(tmp_path, capsys, section, key):
    text, name = with_key(TINY_CONFIG, section, key)
    config = tmp_path / "typo.yaml"
    config.write_text(text)
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {name}: unknown field; expected")
    assert not list(tmp_path.rglob("metrics.csv"))


def test_run_removed_update_rule_exits_1(tmp_path, capsys):
    # Adam is the one update rule: a config still choosing one names a field
    # that no longer exists
    config = tmp_path / "rule.yaml"
    config.write_text(TINY_CONFIG.replace("training:\n", "training:\n  update_rule: adam\n"))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "training.update_rule: unknown field" in capsys.readouterr().err


def test_run_non_finite_yaml_value_exits_1(tmp_path, capsys):
    config = tmp_path / "nan.yaml"
    config.write_text(TINY_CONFIG.replace("gamma: 1.0", "gamma: .nan"))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "collective.gamma: must be finite, got nan" in capsys.readouterr().err
    assert not list(tmp_path.rglob("metrics.csv"))


RUN = "run {config} --out {out}"


@pytest.mark.parametrize("command, old, new, error", [
    pytest.param(RUN, "mode: CL", "mode: [CL", "bad.yaml: invalid YAML", id="invalid-yaml"),
    pytest.param(RUN, "graph:\n  kind: complete", "graph: 3", "graph: expected a mapping",
                 id="graph-not-mapping"),
    pytest.param(RUN, "[HL1, SHL]", "HL1", "agents.architectures: expected a list",
                 id="architectures-not-list"),
    pytest.param(RUN, "architectures: [HL1, SHL]", "mix: {HL1: 1, 1: 1}",
                 "agents.mix: expected a string, got 1", id="mix-key-not-string"),
    pytest.param(RUN, "train_size: 10", "train_size: ten",
                 "partition.train_size: expected an integer", id="train_size-not-int"),
    pytest.param(RUN, "gamma: 1.0", "gamma: high", "collective.gamma: expected a number",
                 id="gamma-not-number"),
    pytest.param(RUN, "mode: CL", "mode: 3", "mode: expected a string", id="mode-not-string"),
    pytest.param(RUN, "val_size: 10", "val_size: 10\n  common_val: 3",
                 "partition.common_val: expected a boolean", id="common_val-not-bool"),
    pytest.param(RUN, "kind: complete", "kind: edges", "graph.edges: missing required field",
                 id="edges-missing"),
    pytest.param(RUN, "kind: complete", "kind: edges\n  edges: 3",
                 "graph.edges: expected a list", id="edges-not-list"),
    pytest.param(RUN, "kind: complete", "kind: edges\n  edges: [[0, 1, 2]]",
                 "graph.edges[0]: expected a [from, to] pair", id="edges-triple"),
    pytest.param("sweep {config} --param gamma --values , --out {out}", None, None,
                 "--values: expected at least one value", id="sweep-no-values"),
    pytest.param("data-check {config} {config}", None, None,
                 "data-check: expected a dataset directory", id="data-check-two-paths"),
])
def test_bad_input_exits_1_naming_the_field(tmp_path, capsys, command, old, new, error):
    text = TINY_CONFIG
    if old is not None:
        assert old in text
        text = text.replace(old, new, 1)
    config = tmp_path / "bad.yaml"
    config.write_text(text)
    argv = command.format(config=config, out=tmp_path / "out").split()
    assert main(argv) == 1
    assert error in capsys.readouterr().err
    assert not list(tmp_path.rglob("metrics.csv"))


def test_runtime_failure_exits_2(tiny_config, tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("engine failed")

    monkeypatch.setattr(cli, "run_mode", fail)
    assert main(["run", str(tiny_config), "--out", str(tmp_path / "out")]) == 2
    assert "error: engine failed" in capsys.readouterr().err


HUGE = "1" + "0" * 400  # an integer beyond float range


def test_run_huge_integer_yaml_value_exits_1(tmp_path, capsys):
    config = tmp_path / "huge.yaml"
    config.write_text(TINY_CONFIG.replace("alpha: 0.003", f"alpha: {HUGE}"))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    assert "training.alpha: must be finite" in capsys.readouterr().err
    assert not list(tmp_path.rglob("metrics.csv"))


def _idx_config(tmp_path, data) -> Path:
    raw = yaml.safe_load(TINY_CONFIG)
    keys = ("train_images", "train_labels", "test_images", "test_labels")
    raw["dataset"] = {"kind": "fashion-mnist",
                      **{key: str(data / name) for key, name in zip(keys, FMNIST_NAMES)}}
    config = tmp_path / "idx.yaml"
    config.write_text(yaml.safe_dump(raw))
    return config


@pytest.mark.parametrize("corpus", ["blobs", "idx"])
def test_sweep_checks_partition_before_any_run(tiny_config, tmp_path, capsys, corpus):
    # 2 agents x (100 train + 10 val) = 220 samples of the 180 either corpus
    # has; the run at train_size 10 would fit, but none starts
    config = tiny_config
    if corpus == "idx":
        synthetic_idx_dataset(tmp_path / "data", m_train=180, m_test=20)
        config = _idx_config(tmp_path, tmp_path / "data")
    code = main(["sweep", str(config), "--param", "train_size", "--values", "10,100",
                 "--out", str(tmp_path / "s")])
    assert code == 1
    assert ("partition.train_size, partition.val_size: 2 agents x 100 train + 2 x 10 val "
            "need 220 samples, but the corpus has only 180") in capsys.readouterr().err
    assert not (tmp_path / "s" / "train_size_10").exists()


def test_sweep_bad_idx_header_exits_1(tmp_path, capsys):
    synthetic_idx_dataset(tmp_path / "data", m_train=60, m_test=20)
    images = tmp_path / "data" / FMNIST_NAMES[0]
    images.write_bytes(b"\0\0\x08\x01" + images.read_bytes()[4:])  # a labels magic number
    code = main(["sweep", str(_idx_config(tmp_path, tmp_path / "data")), "--param", "gamma",
                 "--values", "1,2", "--out", str(tmp_path / "s")])
    assert code == 1
    assert "wrong magic number 0x00000801" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("mode", ["CL", "ST"])
def test_run_partition_larger_than_corpus_exits_1(tmp_path, capsys, mode):
    # 2 agents x (100 train + 10 val) = 220 samples of the 180 the corpus has
    config = tmp_path / "big.yaml"
    config.write_text(TINY_CONFIG.replace("mode: CL", f"mode: {mode}")
                      .replace("train_size: 10", "train_size: 100"))
    assert main(["run", str(config), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "partition.train_size, partition.val_size" in err
    assert "need 220 samples, but the corpus has only 180" in err


@pytest.mark.parametrize("runs, jobs", [(1, "1"), (2, "2")])
def test_montecarlo_no_shared_pool_exits_1(tmp_path, capsys, runs, jobs):
    # 2 agents x (80 train + 10 val) take all 180 samples; in a worker
    # process too, the error keeps its class and the exit code of `run`
    config = tmp_path / "full.yaml"
    config.write_text(TINY_CONFIG.replace("train_size: 10", "train_size: 80")
                      .replace("montecarlo_runs: 1", f"montecarlo_runs: {runs}"))
    code = main(["montecarlo", str(config), "--jobs", jobs, "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "run 0 (master seed 3) failed: partition.train_size" in err
    assert "leaving CL no shared pool" in err


def test_montecarlo_truncated_idx_exits_1(tmp_path, capsys):
    data = tmp_path / "data"
    synthetic_idx_dataset(data, m_train=60, m_test=20)
    images = data / FMNIST_NAMES[0]
    images.write_bytes(images.read_bytes()[:-100])
    code = main(["montecarlo", str(_idx_config(tmp_path, data)), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "truncated file" in capsys.readouterr().err


@pytest.mark.parametrize("command, mode, jobs", [
    ("montecarlo", "ST", 1), ("montecarlo", "FS", 1), ("montecarlo", "CL", 1),
    ("montecarlo", "ST", 2), ("run", "ST", 1),
])
def test_test_images_rewritten_during_a_run_exit_1(tmp_path, capsys, monkeypatch, command,
                                                   mode, jobs):
    # every emission reads the test rows from their file, in ST and FS
    # inside an agent's pool task: a file changed under the run is a data
    # error in every mode, in a --jobs worker too
    data = tmp_path / "data"
    synthetic_idx_dataset(data, m_train=60, m_test=20)
    images = data / FMNIST_NAMES[2]
    measure = collective.measure

    def rewrite_then_measure(*args, **kwargs):
        # an in-place rewrite moves the modification time on; moving it a
        # second is one whatever the file system clock's tick, and leaves
        # the bytes whole for a worker loading them meanwhile
        st = os.stat(images)
        os.utime(images, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
        return measure(*args, **kwargs)

    monkeypatch.setattr(collective, "measure", rewrite_then_measure)
    monkeypatch.setattr(harness, "measure", rewrite_then_measure)
    config = _idx_config(tmp_path, data)
    config.write_text(config.read_text().replace("mode: CL", f"mode: {mode}")
                      .replace("montecarlo_runs: 1", f"montecarlo_runs: {jobs}"))
    more = ["--jobs", str(jobs)] if command == "montecarlo" else []
    code = main([command, str(config), "--out", str(tmp_path / "out"), *more])
    assert code == 1
    assert f"{images}: file changed since it was loaded" in capsys.readouterr().err


def test_graph_dump_static(tiny_config, capsys):
    code = main(["graph-dump", str(tiny_config), "--iter", "0"])
    assert code == 0
    out = capsys.readouterr().out.strip().split("\n")
    assert out == ["0 1", "1 0"]


def test_graph_dump_negative_iter_exits_1(tiny_config, capsys):
    # graph_at takes its iteration as checked here
    assert main(["graph-dump", str(tiny_config), "--iter", "-1"]) == 1
    assert "--iter: must be >= 0" in capsys.readouterr().err


def test_graph_dump_er_changes_between_rounds(tmp_path, capsys):
    config = tmp_path / "er.yaml"
    config.write_text(TINY_CONFIG.replace(
        "graph:\n  kind: complete",
        "graph:\n  kind: erdos-renyi\n  p: 0.5\n  period: 10",
    ).replace("architectures: [HL1, SHL]", "architectures: [HL1, SHL, SHL, SHL, SHL]")
     .replace("train_size: 10", "train_size: 5").replace("val_size: 10", "val_size: 5"))
    assert main(["graph-dump", str(config), "--iter", "0"]) == 0
    first = capsys.readouterr().out
    assert main(["graph-dump", str(config), "--iter", "5"]) == 0
    same_round = capsys.readouterr().out
    assert main(["graph-dump", str(config), "--iter", "10"]) == 0
    next_round = capsys.readouterr().out
    assert first == same_round
    assert first != next_round
    for line in first.strip().split("\n"):
        j, i = line.split()
        assert j != i


def test_data_check_counts(tmp_path, capsys):
    rng = np.random.default_rng(0)
    names = ["train-images-idx3-ubyte", "train-labels-idx1-ubyte",
             "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    write_idx(rng.integers(0, 255, (50, 28, 28)).astype(np.uint8),
              rng.integers(0, 10, 50).astype(np.uint8),
              tmp_path / names[0], tmp_path / names[1])
    write_idx(rng.integers(0, 255, (20, 28, 28)).astype(np.uint8),
              rng.integers(0, 10, 20).astype(np.uint8),
              tmp_path / names[2], tmp_path / names[3])
    code = main(["data-check", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "50 train / 20 test"
    # same result with the four files listed explicitly
    code = main(["data-check"] + [str(tmp_path / n) for n in names])
    assert code == 0


def test_data_check_bad_magic_exits_1(tmp_path, capsys):
    bad = tmp_path / "train-images-idx3-ubyte"
    bad.write_bytes(b"\x00\x00\x08\x01" + b"\x00" * 16)
    names = ["train-labels-idx1-ubyte", "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"]
    for n in names:
        (tmp_path / n).write_bytes(b"")
    code = main(["data-check", str(tmp_path)])
    assert code == 1
    assert "magic" in capsys.readouterr().err


def _spoil(data: Path, case: str) -> list[Path]:
    """Write a 60/20-image corpus to `data` with one fault; returns the files
    an error about it must name."""
    synthetic_idx_dataset(data, m_train=60, m_test=20)
    paths = [data / name for name in FMNIST_NAMES]
    labels = np.arange(20, dtype=np.uint8) % 10
    if case == "missing":
        paths[0].unlink()
        return [paths[0]]
    if case == "label-10":
        raw = bytearray(paths[1].read_bytes())
        raw[8 + 7] = 10  # the eighth training label
        paths[1].write_bytes(bytes(raw))
        return [paths[1]]
    if case == "negative-count":
        raw = bytearray(paths[0].read_bytes())
        raw[4:8] = (-1).to_bytes(4, "big", signed=True)
        paths[0].write_bytes(bytes(raw))
        return [paths[0]]
    if case == "huge-header":
        # 2^31 - 1 images of 32768 x 32768 pixels claimed, 60 of 28 x 28 held
        raw = bytearray(paths[0].read_bytes())
        raw[4:16] = struct.pack(">iii", 2**31 - 1, 32768, 32768)
        paths[0].write_bytes(bytes(raw))
        return [paths[0]]
    if case == "no-columns":
        write_idx(np.zeros((60, 28, 0), np.uint8), np.arange(60, dtype=np.uint8) % 10,
                  paths[0], paths[1])
        return [paths[0]]
    images = np.zeros((20, 20, 20) if case == "test-20x20" else (0, 28, 28), np.uint8)
    write_idx(images, labels[: len(images)], paths[2], paths[3])
    return [paths[2], paths[0]]


@pytest.mark.parametrize("case", ["missing", "label-10", "negative-count", "huge-header",
                                  "no-columns", "test-20x20", "no-test-images"])
def test_bad_idx_corpus_exits_1_naming_the_file(tmp_path, capsys, monkeypatch, case):
    named = _spoil(tmp_path / "data", case)
    assert main(["data-check", str(tmp_path / "data")]) == 1
    err = capsys.readouterr().err
    assert all(str(path) in err for path in named), err
    # `run` fails the same way before self-training starts
    monkeypatch.setattr(harness.Learner, "train",
                        lambda *args, **kwargs: pytest.fail("self-training started"))
    out = tmp_path / "out"
    assert main(["run", str(_idx_config(tmp_path, tmp_path / "data")), "--out", str(out)]) == 1
    assert capsys.readouterr().err == err
    assert not (out / "metrics.csv").exists()


def test_plot_command_roundtrip(tiny_config, tmp_path):
    out = tmp_path / "out"
    assert main(["run", str(tiny_config), "--out", str(out)]) == 0
    svg = tmp_path / "replot.svg"
    assert main(["plot", str(out / "metrics.csv"), str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_plot_missing_csv_exits_1(tmp_path, capsys):
    code = main(["plot", str(tmp_path / "no.csv"), str(tmp_path / "o.svg")])
    assert code == 1


HEADER = "run,iter,agent,arch,test_acc,val_acc,proxy_correct\n"


@pytest.mark.parametrize("text, where, message", [
    (HEADER, 2, "no records after the header"),
    ("run,iteration,agent\n0,0,0\n", 1, "expected the CSV header"),
    (HEADER + "0,0,0,SHL,0.5,0.5,\n0,10,0,SHL\n", 3, "not enough values to unpack"),
    (HEADER + "0,0,0,SHL,high,0.5,\n", 2, "could not convert string to float: 'high'"),
    ((HEADER + "0,0,0,SHL,0.5,0.5,\n").encode() + b"\xff\xfe\n", 3, "not UTF-8: byte 0xff"),
    (HEADER + "0,0,0,SHL,0.5,0.5,\n0,10,0,SHL,nan,0.5,0.5\n", 3,
     "test_acc must lie in [0, 1], got nan"),
    (HEADER + "0,0,0,SHL,inf,0.5,\n", 2, "test_acc must lie in [0, 1], got inf"),
    (HEADER + "0,0,0,SHL,1.7,0.5,\n", 2, "test_acc must lie in [0, 1], got 1.7"),
    (HEADER + "0,0,0,SHL,0.5,-3,\n", 2, "val_acc must lie in [0, 1], got -3.0"),
    (HEADER + "0,0,0,SHL,0.5,0.5,\n0,10,0,SHL,0.5,0.5,-inf\n", 3,
     "proxy_correct must lie in [0, 1], got -inf"),
], ids=["header-only", "wrong-header", "short-row", "non-numeric-test-acc", "non-utf8",
        "nan-test-acc", "inf-test-acc", "test-acc-above-1", "negative-val-acc",
        "negative-proxy"])
def test_plot_bad_csv_exits_1_naming_the_line(tmp_path, capsys, text, where, message):
    csv_path = tmp_path / "m.csv"
    csv_path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["plot", str(csv_path), str(tmp_path / "o.svg")]) == 1
    err = capsys.readouterr().err
    assert f"{csv_path}:{where}: " in err and message in err
    assert not (tmp_path / "o.svg").exists()
