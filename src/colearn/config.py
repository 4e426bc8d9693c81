"""Experiment configuration: YAML loading, validation, and overrides.

Every validation failure names the offending field so a bad config is
diagnosable from the error alone. Each spec checks its own fields when it is
built, so a value set by an override is checked exactly as one read from
YAML.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import yaml

from .learner import STANDARD_HIDDEN

MODES = ("CL", "ST", "FS")
GRAPH_KINDS = ("complete", "edges", "erdos-renyi")
ARCHITECTURES = tuple(sorted(STANDARD_HIDDEN))
SECTIONS = ("agents", "partition", "dataset", "graph", "training", "collective")
PARTITION = ("train_size", "val_size", "common_val")  # ExperimentConfig fields set there


class ConfigError(ValueError):
    """Configuration failed validation; the message names the field."""


@dataclass(frozen=True)
class SynthSpec:
    n_per_class: int
    num_classes: int
    dim: int
    separation: float
    test_n_per_class: int

    def __post_init__(self):
        _check(self, "dataset.", ints=(("n_per_class", 1), ("num_classes", 2), ("dim", 1),
                                       ("test_n_per_class", 1)), floats=(("separation", 0.0),))


@dataclass(frozen=True)
class IdxSpec:
    train_images: str
    train_labels: str
    test_images: str
    test_labels: str

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _as_str(getattr(self, f.name), f"dataset.{f.name}")


DATASETS = {"synth": SynthSpec, "fashion-mnist": IdxSpec}


@dataclass(frozen=True)
class GraphSpec:
    """Who hears whom: every agent (complete), the listed [from, to] pairs
    (edges), or a directed Erdos-Renyi graph with edge probability p,
    redrawn every `period` iterations (10 when left out). A kind takes only
    the fields it reads, so a value that would change nothing is an error;
    `edges` and `p` are required by their kinds."""

    kind: str = "complete"  # complete | edges | erdos-renyi
    edges: tuple[tuple[int, int], ...] | None = None
    p: float | None = None
    period: int | None = None

    def __post_init__(self):
        _as_str(self.kind, "graph.kind", GRAPH_KINDS)
        reads = {"complete": (), "edges": ("edges",), "erdos-renyi": ("p", "period")}[self.kind]
        for name in ("edges", "p", "period"):
            if name not in reads and getattr(self, name) is not None:
                raise ConfigError(f"graph.{name}: not read by a {self.kind!r} graph")
        if self.kind == "edges":
            if self.edges is None:
                raise ConfigError("graph.edges: missing required field")
            object.__setattr__(self, "edges", _edges(self.edges))
        if self.kind == "erdos-renyi":
            if self.p is None:
                raise ConfigError("graph.p: missing required field")
            if self.period is None:
                object.__setattr__(self, "period", 10)
            _check(self, "graph.", ints=(("period", 1),), floats=(("p", 0.0),))
            if self.p > 1.0:
                raise ConfigError(f"graph.p: must be <= 1, got {self.p}")


def _edges(raw) -> tuple[tuple[int, int], ...]:
    if not isinstance(raw, (list, tuple)):
        raise ConfigError("graph.edges: expected a list of [from, to] pairs")
    for idx, pair in enumerate(raw):
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
            raise ConfigError(f"graph.edges[{idx}]: expected a [from, to] pair")
    return tuple((_as_int(j, f"graph.edges[{idx}][0]", 0), _as_int(i, f"graph.edges[{idx}][1]", 0))
                 for idx, (j, i) in enumerate(raw))


@dataclass(frozen=True)
class TrainingSpec:
    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 10
    self_train_epochs: int = 30
    fs_epochs: int = 3

    def __post_init__(self):
        _check(self, "training.",
               ints=(("batch_size", 1), ("self_train_epochs", 0), ("fs_epochs", 1)),
               floats=(("alpha", None), ("beta1", None), ("beta2", None), ("eps", None)))
        # the ranges Adam needs, so that a bad value fails here, naming its field
        for name in ("alpha", "eps"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"training.{name}: must be positive, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):
            if not 0 < getattr(self, name) < 1:
                raise ConfigError(f"training.{name}: must lie in (0, 1), got {getattr(self, name)}")


@dataclass(frozen=True)
class CollectiveSpec:
    """The collective phase: scores are exp(gamma * val_acc), refreshed with
    the weights every score_refresh_period iterations; every agent reviews
    its private set every review_period iterations."""

    gamma: float = 100.0
    score_refresh_period: int = 100
    review_period: int = 300
    batch_size: int = 10
    epochs_over_shared: int = 3

    def __post_init__(self):
        _check(self, "collective.", floats=(("gamma", 0.0),), ints=(
            ("score_refresh_period", 1), ("review_period", 1), ("batch_size", 1),
            ("epochs_over_shared", 1)))


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    mode: str
    architectures: tuple[str, ...]  # explicit per-agent list, or ()
    architecture_mix: tuple[tuple[str, int], ...]  # (kind, count) pairs, or ()
    train_size: int
    val_size: int
    common_val: bool = False  # one shared validation block instead of per-agent sets
    dataset: SynthSpec | IdxSpec
    graph: GraphSpec
    training: TrainingSpec
    collective: CollectiveSpec
    montecarlo_runs: int = 1
    master_seed: int = 0
    metric_stride: int = 100
    max_iterations: int | None = None  # None (or 0 on input) runs uncapped

    def __post_init__(self):
        _as_str(self.mode, "mode", MODES)
        if bool(self.architectures) == bool(self.architecture_mix):
            raise ConfigError("agents: exactly one of 'architectures' or 'mix' is required")
        for i, kind in enumerate(self.architectures):
            _as_str(kind, f"agents.architectures[{i}]", ARCHITECTURES)
        for kind, count in self.architecture_mix:
            _as_int(count, f"agents.mix.{_as_str(kind, 'agents.mix', ARCHITECTURES)}", 1)
        if not isinstance(self.common_val, bool):
            raise ConfigError(f"partition.common_val: expected a boolean, got {self.common_val!r}")
        _check(self, "partition.", ints=(("train_size", 1), ("val_size", 1)))
        _check(self, "", ints=(("montecarlo_runs", 1), ("master_seed", 0), ("metric_stride", 1)))
        if self.max_iterations is not None:
            object.__setattr__(self, "max_iterations",
                               _as_int(self.max_iterations, "max_iterations", 0) or None)
        for idx, pair in enumerate(self.graph.edges or ()):
            if max(pair) >= self.n_agents:
                raise ConfigError(
                    f"graph.edges[{idx}]: node out of range for {self.n_agents} agents")

    @property
    def n_agents(self) -> int:
        """The number of agents the architectures or the mix give."""
        return len(self.architectures) or sum(count for _, count in self.architecture_mix)


def _expect_map(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_float(value, path: str, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        raise ConfigError(f"{path}: must be finite, got an integer beyond float range") from None
    if not math.isfinite(value):
        raise ConfigError(f"{path}: must be finite, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: expected one of {list(choices)}, got {value!r}")
    return value


def _check(spec, prefix: str, ints=(), floats=()) -> None:
    """Check a frozen spec's numeric fields, each given as (name, minimum),
    and store the float ones as float. Errors name prefix + field."""
    for name, minimum in ints:
        _as_int(getattr(spec, name), prefix + name, minimum)
    for name, minimum in floats:
        object.__setattr__(spec, name, _as_float(getattr(spec, name), prefix + name, minimum))


def _known(d: dict, names, path: str) -> dict:
    """`d`, once each of its keys is one of `names`."""
    for key in d:
        if key not in names:
            raise ConfigError(f"{_at(path, key)}: unknown field; expected one of {list(names)}")
    return d


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _keys(mapping, path: str, fields, other=()) -> dict:
    """The YAML mapping at `path` less the `other` keys read elsewhere, once
    each of its keys names one of the dataclass `fields` or `other` and each
    field without a default is present."""
    d = _known(_expect_map(mapping, path), [f.name for f in fields] + list(other), path)
    for f in fields:
        if f.name not in d and f.default is dataclasses.MISSING:
            raise ConfigError(f"{_at(path, f.name)}: missing required field")
    return {key: value for key, value in d.items() if key not in other}


def _spec(cls, mapping, path: str, other=()):
    """`cls` built from the YAML mapping at `path`: a field the mapping
    leaves out takes its dataclass default. The spec checks its own values."""
    return cls(**_keys(mapping, path, dataclasses.fields(cls), other))


def parse_config(raw) -> ExperimentConfig:
    raw = _expect_map(raw, "config")
    agents = _known(_expect_map(raw.get("agents"), "agents"), ("architectures", "mix", "count"),
                    "agents")
    explicit = agents.get("architectures") or []
    if not isinstance(explicit, list):
        raise ConfigError("agents.architectures: expected a list")
    dataset = _expect_map(raw.get("dataset"), "dataset")
    kind = _as_str(dataset.get("kind"), "dataset.kind", tuple(DATASETS))
    given = dict(
        architectures=tuple(explicit),
        architecture_mix=tuple(sorted(_expect_map(agents.get("mix"), "agents.mix").items())),
        dataset=_spec(DATASETS[kind], dataset, "dataset", other=("kind",)),
        graph=_spec(GraphSpec, raw.get("graph"), "graph"),
        training=_spec(TrainingSpec, raw.get("training"), "training"),
        collective=_spec(CollectiveSpec, raw.get("collective"), "collective"),
    )
    # the top level's own fields, some of them written under `partition`
    own = [f for f in dataclasses.fields(ExperimentConfig) if f.name not in given]
    config = ExperimentConfig(
        **_keys(raw, "", [f for f in own if f.name not in PARTITION], SECTIONS),
        **_keys(raw.get("partition"), "partition", [f for f in own if f.name in PARTITION]),
        **given,
    )
    # agents.count only checks the number the architectures or the mix give
    count = agents.get("count")
    if count is not None and _as_int(count, "agents.count", 1) != config.n_agents:
        raise ConfigError(
            f"agents.count: {count} does not match the {config.n_agents} agents listed")
    return config


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that rejects a key given twice in one mapping, where
    yaml's own would silently keep the last."""

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # a merge key (`<<`) is no key of its own; a key may override a merged one
            if (not isinstance(key_node, yaml.ScalarNode)
                    or key_node.tag == "tag:yaml.org,2002:merge"):
                continue
            key = self.construct_object(key_node)
            if key in seen:
                mark = key_node.start_mark
                raise ConfigError(f"{mark.name}:{mark.line + 1}: duplicate key {key!r}")
            seen.add(key)
        return super().construct_mapping(node, deep)


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = yaml.load(f, Loader=_UniqueKeyLoader)
        except yaml.YAMLError as e:
            raise ConfigError(f"{path}: invalid YAML: {e}") from e
    return parse_config(raw)


# Shorthand names usable in sweeps and CLI overrides, mapped to field paths; a
# top-level field's name is its own path.
OVERRIDE_PATHS = {
    "gamma": ("collective", "gamma"),
    "score_refresh_period": ("collective", "score_refresh_period"),
    "review_period": ("collective", "review_period"),
    "epochs_over_shared": ("collective", "epochs_over_shared"),
    "collective_batch": ("collective", "batch_size"),
    "alpha": ("training", "alpha"),
    "self_train_epochs": ("training", "self_train_epochs"),
    "fs_epochs": ("training", "fs_epochs"),
    "batch_size": ("training", "batch_size"),
    "separation": ("dataset", "separation"),
    "p": ("graph", "p"),
    "period": ("graph", "period"),
    "train_images": ("dataset", "train_images"),
    "train_labels": ("dataset", "train_labels"),
    "test_images": ("dataset", "test_images"),
    "test_labels": ("dataset", "test_labels"),
}


def override(config: ExperimentConfig, name: str, value) -> ExperimentConfig:
    """Return a copy of the config with one named parameter replaced.

    `name` is either a shorthand (e.g. "gamma") or a dotted field path
    (e.g. "collective.gamma").
    """
    path = OVERRIDE_PATHS.get(name, tuple(name.split(".")))
    try:
        return _replace_path(config, path, value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"cannot override {name!r}: {e}") from e


def _replace_path(obj, path: tuple[str, ...], value, walked: tuple[str, ...] = ()):
    """`obj` with the field at `path` replaced; errors name the dotted path
    from the config, `walked` being the part above `obj`."""
    if not dataclasses.is_dataclass(obj):
        raise ConfigError(f"no such config section: {'.'.join(walked)}")
    names = {f.name for f in dataclasses.fields(obj)}
    if path[0] not in names:
        raise ConfigError(f"no such config field: {'.'.join(walked + path[:1])}")
    if len(path) == 1:
        current = getattr(obj, path[0])
        if current is not None:
            value = _like(current, value)
        # replace() runs the spec's checks on the new value
        return dataclasses.replace(obj, **{path[0]: value})
    child = _replace_path(getattr(obj, path[0]), path[1:], value, walked + path[:1])
    return dataclasses.replace(obj, **{path[0]: child})


def _like(current, value):
    """`value` as the type of the field's current value. An int stands in
    for a float and an integral float narrows to an int; nothing else
    converts, and a bool never stands in for a number or the other way
    round."""
    wrong = ConfigError(f"expected {type(current).__name__}, got {value!r}")
    if isinstance(current, bool) != isinstance(value, bool):
        raise wrong
    if isinstance(current, float) and isinstance(value, int):
        return value  # the spec's own check makes it a float, naming the field
    if isinstance(current, int) and isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, type(current)):
        raise wrong
    return value
