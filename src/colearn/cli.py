"""Command-line entry point: experiments, sweeps, and data tooling."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config, override
from .data import IdxFormatError, load_idx_corpus
from .graph import format_edge_list, graph_at
from .harness import (
    build_schedule, check_partition, corpus_size, emit_plot, montecarlo, read_csv, run_mode,
    write_results,
)

FMNIST_NAMES = (
    "train-images-idx3-ubyte", "train-labels-idx1-ubyte",
    "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte",
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colearn",
        description="Multi-agent consensus-labeling experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a single run of a config")
    p.add_argument("config", type=Path)
    p.add_argument("--out", type=Path, default=None, help="output directory")

    p = sub.add_parser("montecarlo", help="execute all configured runs")
    p.add_argument("config", type=Path)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    p = sub.add_parser("sweep", help="repeat the Monte Carlo over parameter values")
    p.add_argument("config", type=Path)
    p.add_argument("--param", required=True, help="parameter name, e.g. gamma")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--jobs", type=int, default=1)

    p = sub.add_parser("graph-dump", help="print one round's edge list")
    p.add_argument("config", type=Path)
    p.add_argument("--iter", type=int, default=0, dest="iteration")

    p = sub.add_parser("data-check", help="validate IDX dataset files")
    p.add_argument("paths", nargs="+", type=Path,
                   help="a dataset directory or 4 files: train/test images+labels")

    p = sub.add_parser("plot", help="render a metrics CSV as an SVG chart")
    p.add_argument("csv", type=Path)
    p.add_argument("svg", type=Path)
    return parser


def _parse_value(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _out_dir(args, suffix: str = "") -> Path:
    out = args.out if args.out is not None else Path("results") / args.config.stem
    out = out / suffix if suffix else out
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_run(args) -> int:
    config = load_config(args.config)
    out = _out_dir(args)
    output = run_mode(config, run_index=0, manifest_path=out / "manifest.txt")
    text = write_results(out, config.mode, [output])
    emit_plot(output.records, out / "plot.svg")
    print(text)
    print(f"wrote {out}/metrics.csv, plot.svg, summary.txt, manifest.txt")
    return 0


def _check_jobs(args) -> None:
    if args.jobs < 1:
        raise ConfigError(f"--jobs: must be >= 1, got {args.jobs}")


def _cmd_montecarlo(args) -> int:
    _check_jobs(args)
    config = load_config(args.config)
    out = _out_dir(args)
    manifest_dir = out / "manifests"
    manifest_dir.mkdir(exist_ok=True)
    _, outputs = montecarlo(config, jobs=args.jobs, manifest_dir=manifest_dir)
    text = write_results(out, config.mode, outputs)
    emit_plot([r for o in outputs for r in o.records], out / "plot.svg")
    print(text)
    print(f"wrote {out}/metrics.csv, plot.svg, summary.txt, manifests/")
    return 0


def _cmd_sweep(args) -> int:
    _check_jobs(args)
    base = load_config(args.config)
    texts = [v.strip() for v in args.values.split(",") if v.strip() != ""]
    if not texts:
        raise ConfigError("--values: expected at least one value")
    values = [_parse_value(text) for text in texts]
    # every value, and its partition against its corpus, is checked before
    # the first run starts
    configs = [override(base, args.param, value) for value in values]
    for i, config in enumerate(configs):
        if config in configs[:i]:
            raise ConfigError(f"--values: {texts[configs.index(config)]} and {texts[i]} "
                              "run the same experiment")
        check_partition(config, corpus_size(config.dataset))
    out = _out_dir(args)
    for value, config in zip(values, configs):
        sub = out / f"{args.param}_{value}"
        sub.mkdir(parents=True, exist_ok=True)
        _, outputs = montecarlo(config, jobs=args.jobs)
        text = write_results(sub, config.mode, outputs)
        print(f"== {args.param} = {value}")
        print(text)
    return 0


def _cmd_graph_dump(args) -> int:
    config = load_config(args.config)
    if args.iteration < 0:
        raise ConfigError("--iter: must be >= 0")
    g = graph_at(build_schedule(config), args.iteration)
    text = format_edge_list(g)
    if text:
        print(text)
    return 0


def _cmd_data_check(args) -> int:
    paths = args.paths
    if len(paths) == 1 and not paths[0].is_file():
        paths = [paths[0] / name for name in FMNIST_NAMES]
    if len(paths) != 4:
        raise ConfigError(
            "data-check: expected a dataset directory or exactly 4 paths "
            "(train images, train labels, test images, test labels)"
        )
    train, test = load_idx_corpus(*paths)
    print(f"{train.m} train / {test.m} test")
    return 0


def _cmd_plot(args) -> int:
    if not args.csv.is_file():
        raise ConfigError(f"plot: file not found: {args.csv}")
    records = read_csv(args.csv)
    if not records:
        raise ConfigError(f"plot: {args.csv}:2: no records after the header")
    emit_plot(records, args.svg)
    print(f"wrote {args.svg}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "montecarlo": _cmd_montecarlo,
    "sweep": _cmd_sweep,
    "graph-dump": _cmd_graph_dump,
    "data-check": _cmd_data_check,
    "plot": _cmd_plot,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, IdxFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # noqa: BLE001 - runtime failures map to exit 2
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
