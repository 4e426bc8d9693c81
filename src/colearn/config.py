"""Experiment configuration: YAML loading, validation, and overrides.

Every validation failure names the offending field so a bad config is
diagnosable from the error alone. Each spec checks its own fields when it is
built, so a value set by an override is checked exactly as one read from
YAML.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import yaml

from .learner import STANDARD_HIDDEN

MODES = ("CL", "ST", "FS")
GRAPH_KINDS = ("complete", "edges", "erdos-renyi")


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


@dataclass(frozen=True)
class GraphSpec:
    kind: str  # complete | edges | erdos-renyi
    edges: tuple[tuple[int, int], ...] = ()
    p: float = 0.1
    period: int = 10

    def __post_init__(self):
        _as_str(self.kind, "graph.kind", GRAPH_KINDS)
        _check(self, "graph.", ints=(("period", 1),), floats=(("p", 0.0),))
        if self.p > 1.0:
            raise ConfigError(f"graph.p: must be <= 1, got {self.p}")


@dataclass(frozen=True)
class TrainingSpec:
    update_rule: str = "adam"  # adam | sgd
    alpha: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    batch_size: int = 10
    self_train_epochs: int = 30
    fs_epochs: int = 3

    def __post_init__(self):
        _as_str(self.update_rule, "training.update_rule", ("adam", "sgd"))
        _check(self, "training.",
               ints=(("batch_size", 1), ("self_train_epochs", 0), ("fs_epochs", 1)),
               floats=(("alpha", None), ("beta1", None), ("beta2", None), ("eps", None)))
        if self.alpha <= 0:
            raise ConfigError(f"training.alpha: must be positive, got {self.alpha}")


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


@dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    n_agents: int
    architectures: tuple[str, ...]  # explicit per-agent list, or ()
    architecture_mix: tuple[tuple[str, int], ...]  # (kind, count) pairs, or ()
    train_size: int
    val_size: int
    common_val: bool  # one shared validation block instead of per-agent sets
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
        if not isinstance(self.common_val, bool):
            raise ConfigError(f"partition.common_val: expected a boolean, got {self.common_val!r}")
        _check(self, "partition.", ints=(("train_size", 1), ("val_size", 1)))
        _check(self, "", ints=(("montecarlo_runs", 1), ("master_seed", 0), ("metric_stride", 1)))
        if self.max_iterations is not None:
            object.__setattr__(self, "max_iterations",
                               _as_int(self.max_iterations, "max_iterations", 0) or None)
        # n_agents follows from the architectures; an override may not move it alone
        if self.architectures:
            want = len(self.architectures)
            what = f"{want} listed architectures"
        else:
            want = sum(count for _, count in self.architecture_mix)
            what = f"mix total {want}"
        if _as_int(self.n_agents, "agents.count", 1) != want:
            raise ConfigError(f"agents.count: {self.n_agents} does not match {what}")


def _expect_map(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(value).__name__}")
    return value


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return d[key]


def _as_int(value, path: str, minimum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _as_float(value, path: str, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    value = float(value)
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


def _spec(cls, d: dict, path: str):
    """Build a spec from the keys of a YAML mapping that name its fields; a
    field without a default is required. The spec checks its own values."""
    return cls(**{f.name: _get(d, f.name, path) for f in dataclasses.fields(cls)
                  if f.name in d or f.default is dataclasses.MISSING})


def _arch_kind(value, path: str) -> str:
    kind = _as_str(value, path)
    if kind not in STANDARD_HIDDEN:
        raise ConfigError(
            f"{path}: unknown architecture {kind!r}; expected one of {sorted(STANDARD_HIDDEN)}"
        )
    return kind


def _parse_dataset(raw: dict) -> SynthSpec | IdxSpec:
    d = _expect_map(raw, "dataset")
    kind = _as_str(_get(d, "kind", "dataset"), "dataset.kind", ("synth", "fashion-mnist"))
    return _spec(SynthSpec if kind == "synth" else IdxSpec, d, "dataset")


def _parse_graph(raw, n_agents: int) -> GraphSpec:
    d = _expect_map(raw, "graph")
    kind = _get(d, "kind", "graph", required=False, default="complete")
    if kind == "edges":
        raw_edges = _get(d, "edges", "graph")
        if not isinstance(raw_edges, list):
            raise ConfigError("graph.edges: expected a list of [from, to] pairs")
        edges = []
        for idx, pair in enumerate(raw_edges):
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError(f"graph.edges[{idx}]: expected a [from, to] pair")
            j = _as_int(pair[0], f"graph.edges[{idx}][0]", 0)
            i = _as_int(pair[1], f"graph.edges[{idx}][1]", 0)
            if j >= n_agents or i >= n_agents:
                raise ConfigError(f"graph.edges[{idx}]: node out of range for {n_agents} agents")
            edges.append((j, i))
        return GraphSpec(kind=kind, edges=tuple(edges))
    if kind == "erdos-renyi":
        return GraphSpec(kind=kind, p=_get(d, "p", "graph"),
                         period=_get(d, "period", "graph", required=False, default=10))
    return GraphSpec(kind=kind)  # complete, or rejected there


def _parse_agents(raw: dict) -> tuple[int, tuple[str, ...], tuple[tuple[str, int], ...]]:
    # the declared count is checked against the architectures in ExperimentConfig
    d = _expect_map(raw, "agents")
    explicit = _get(d, "architectures", "agents", required=False)
    mix = _get(d, "mix", "agents", required=False)
    if (explicit is None) == (mix is None):
        raise ConfigError("agents: exactly one of 'architectures' or 'mix' is required")
    if explicit is not None:
        if not isinstance(explicit, list) or not explicit:
            raise ConfigError("agents.architectures: expected a non-empty list")
        kinds = tuple(
            _arch_kind(a, f"agents.architectures[{i}]") for i, a in enumerate(explicit)
        )
        return _get(d, "count", "agents", required=False, default=len(kinds)), kinds, ()
    mix = _expect_map(mix, "agents.mix")
    pairs = tuple((_arch_kind(kind, "agents.mix"), _as_int(mix[kind], f"agents.mix.{kind}", 1))
                  for kind in sorted(mix))
    total = sum(count for _, count in pairs)
    return _get(d, "count", "agents", required=False, default=total), (), pairs


def parse_config(raw: dict) -> ExperimentConfig:
    raw = _expect_map(raw, "config")
    n_agents, archs, mix = _parse_agents(_get(raw, "agents", "config"))
    listed = len(archs) or sum(count for _, count in mix)
    part = _expect_map(_get(raw, "partition", "config"), "partition")
    tr = _expect_map(_get(raw, "training", "config", required=False), "training")
    co = _expect_map(_get(raw, "collective", "config", required=False), "collective")
    return ExperimentConfig(
        mode=_get(raw, "mode", "config"),
        n_agents=n_agents,
        architectures=archs,
        architecture_mix=mix,
        train_size=_get(part, "train_size", "partition"),
        val_size=_get(part, "val_size", "partition"),
        common_val=_get(part, "common_val", "partition", required=False, default=False),
        dataset=_parse_dataset(_get(raw, "dataset", "config")),
        graph=_parse_graph(_get(raw, "graph", "config", required=False), listed),
        training=_spec(TrainingSpec, tr, "training"),
        collective=_spec(CollectiveSpec, co, "collective"),
        montecarlo_runs=_get(raw, "montecarlo_runs", "config", required=False, default=1),
        master_seed=_get(raw, "master_seed", "config", required=False, default=0),
        metric_stride=_get(raw, "metric_stride", "config", required=False, default=100),
        max_iterations=_get(raw, "max_iterations", "config", required=False),
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = yaml.safe_load(f)
        except yaml.YAMLError as e:
            raise ConfigError(f"{path}: invalid YAML: {e}") from e
    return parse_config(raw)


# Shorthand names usable in sweeps and CLI overrides, mapped to field paths.
OVERRIDE_PATHS = {
    "mode": ("mode",),
    "gamma": ("collective", "gamma"),
    "score_refresh_period": ("collective", "score_refresh_period"),
    "review_period": ("collective", "review_period"),
    "epochs_over_shared": ("collective", "epochs_over_shared"),
    "collective_batch": ("collective", "batch_size"),
    "train_size": ("train_size",),
    "val_size": ("val_size",),
    "alpha": ("training", "alpha"),
    "self_train_epochs": ("training", "self_train_epochs"),
    "fs_epochs": ("training", "fs_epochs"),
    "batch_size": ("training", "batch_size"),
    "separation": ("dataset", "separation"),
    "p": ("graph", "p"),
    "period": ("graph", "period"),
    "montecarlo_runs": ("montecarlo_runs",),
    "master_seed": ("master_seed",),
    "metric_stride": ("metric_stride",),
    "max_iterations": ("max_iterations",),
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


def _replace_path(obj, path: tuple[str, ...], value):
    if not dataclasses.is_dataclass(obj):
        raise ConfigError(f"no such config section: {'.'.join(path)}")
    names = {f.name for f in dataclasses.fields(obj)}
    if path[0] not in names:
        raise ConfigError(f"no such config field: {path[0]}")
    if len(path) == 1:
        current = getattr(obj, path[0])
        if current is not None:
            value = _like(current, value)
        # replace() runs the spec's checks on the new value
        return dataclasses.replace(obj, **{path[0]: value})
    child = _replace_path(getattr(obj, path[0]), path[1:], value)
    return dataclasses.replace(obj, **{path[0]: child})


def _like(current, value):
    """`value` as the type of the field's current value. An int widens to a
    float and an integral float narrows to an int; nothing else converts,
    and a bool never stands in for a number or the other way round."""
    wrong = ConfigError(f"expected {type(current).__name__}, got {value!r}")
    if isinstance(current, bool) != isinstance(value, bool):
        raise wrong
    if isinstance(current, float) and isinstance(value, int):
        return float(value)
    if isinstance(current, int) and isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, type(current)):
        raise wrong
    return value
