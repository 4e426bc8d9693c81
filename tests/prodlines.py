"""List the statements of src/colearn that the command line never runs.

The script writes tiny capped variants of the shipped configs into a
temporary directory: CL on a complete graph, a `mix` on an Erdos-Renyi
graph with one common validation block, an `edges` graph, and ST and FS
on blobs and on a small Fashion-MNIST-shaped IDX stand-in. It runs
`colearn.cli.main` in this process for `run`, `montecarlo` (`--jobs 1` and
`--jobs 2`), `sweep`, `graph-dump`, `data-check` and `plot` over them, and
records every line run in this process and in its threads
(`sys.settrace`, `threading.settrace`). The worker processes of
`montecarlo --jobs 2` are not traced. It prints each statement that holds
code and never ran, by module and function, then the counts:

    python tests/prodlines.py

It is a script, not a test module, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

import yaml

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "colearn"

# run, stride and period caps shared by the blob variants
BLOBS = {
    "montecarlo_runs": 2, "metric_stride": 10, "max_iterations": 20,
    "dataset": {"kind": "synth", "n_per_class": 40, "num_classes": 5, "dim": 20,
                "separation": 2.0, "test_n_per_class": 10},
    "partition": {"train_size": 10, "val_size": 10},
    "training": {"alpha": 0.003, "batch_size": 10, "self_train_epochs": 2, "fs_epochs": 2},
    "collective": {"gamma": 1.0, "score_refresh_period": 10, "review_period": 15,
                   "batch_size": 10, "epochs_over_shared": 1},
}
# the same for the IDX variants, whose agents keep their shipped architectures
IDX = {
    "montecarlo_runs": 1, "metric_stride": 5, "max_iterations": 12,
    "partition": {"train_size": 20, "val_size": 10},
    "training": {"self_train_epochs": 1, "fs_epochs": 1},
    "collective": {"score_refresh_period": 5, "review_period": 6},
}


class LineTracer:
    """Records the lines run in files under `root`, on the calling thread
    and on the threads started while it is active (a context manager)."""

    def __init__(self, root: Path):
        self.root = os.path.realpath(root) + os.sep
        self.lines: dict[str, set[int]] = {}
        self._wanted: dict[str, bool] = {}

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._wanted:
            self._wanted[name] = os.path.realpath(name).startswith(self.root)
        if not self._wanted[name]:
            return None
        lines = self.lines.setdefault(os.path.realpath(name), set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    def __enter__(self) -> "LineTracer":
        self._previous = sys.gettrace(), threading.gettrace()
        threading.settrace(self._call)
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous[0])
        threading.settrace(self._previous[1])


def _code_lines(code) -> set[int]:
    """The lines that `code` and the code objects nested in it hold code on."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _header(stmt: ast.stmt) -> set[int]:
    """A statement's own lines: its decorators and all of a simple
    statement, up to the first body statement of a compound one."""
    start = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
    body = getattr(stmt, "body", None)
    end = max(stmt.lineno, body[0].lineno - 1) if body else stmt.end_lineno
    return set(range(start, end + 1))


def never_run(source: str, ran: set[int]) -> tuple[int, list[tuple[str, int, str]]]:
    """The number of statements in the module `source` that hold code, and
    (function, line, text) of each of them none of whose lines is in `ran`.
    The function is a dotted name such as `Class.method`, or `<module>`."""
    code = _code_lines(compile(source, "<source>", "exec"))
    text = source.splitlines()
    statements, missed = 0, []

    def visit(node: ast.AST, scope: str) -> None:
        nonlocal statements
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, ast.stmt):
                own = _header(child) & code
                statements += bool(own)
                if own and not own & ran:
                    missed.append((scope, child.lineno, text[child.lineno - 1].strip()))
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            visit(child, inner)

    visit(ast.parse(source), "<module>")  # in source order
    return statements, missed


def report(package: Path, lines: dict[str, set[int]]) -> str:
    """The statements of each module in `package` that never ran under
    `lines` (LineTracer.lines), by module and function, then the counts."""
    out, counts = [], []
    total = total_missed = raises = 0
    for path in sorted(package.glob("*.py")):
        statements, missed = never_run(path.read_text(encoding="utf-8"),
                                       lines.get(os.path.realpath(path), set()))
        total += statements
        total_missed += len(missed)
        raises += sum(text.startswith("raise") for _, _, text in missed)
        counts.append(f"{len(missed):6d} of {statements:5d}  {path.name}")
        if missed:
            out.append(path.name)
        scope = None
        for where, lineno, text in missed:
            if where != scope:
                out.append(f"  {where}")
                scope = where
            out.append(f"    {lineno}: {text}")
    counts.append(f"{total_missed:6d} of {total:5d}  total never ran "
                  f"({raises} raise, {total_missed - raises} other)")
    return "\n".join(out + [""] + counts)


def _variant(tmp: Path, name: str, shipped: str, caps: dict, **changes) -> Path:
    """The shipped config `shipped` with the sections in `caps` and then
    `changes` merged in, written to tmp/name.yaml."""
    raw = yaml.safe_load((REPO / "configs" / shipped).read_text(encoding="utf-8"))
    for section, value in [*caps.items(), *changes.items()]:
        if isinstance(value, dict) and isinstance(raw.get(section), dict):
            raw[section] = {**raw[section], **value}
        else:
            raw[section] = value
    path = tmp / f"{name}.yaml"
    path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return path


def _commands(tmp: Path) -> list[list[str]]:
    """The CLI invocations, over configs and an IDX stand-in written to `tmp`."""
    conftest = importlib.import_module("conftest")  # needs colearn: import it traced
    idx_dir = tmp / "idx"
    conftest.synthetic_idx_dataset(idx_dir, m_train=400, m_test=1100)
    idx = {"dataset": {"kind": "fashion-mnist", **{
        key: str(idx_dir / name) for key, name in zip(
            ("train_images", "train_labels", "test_images", "test_labels"),
            conftest.FMNIST_NAMES)}}}
    cl = _variant(tmp, "cl_complete", "desk_blobs_cl.yaml", BLOBS)
    edges = _variant(tmp, "cl_edges", "desk_blobs_cl.yaml", BLOBS,
                     graph={"kind": "edges", "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]})
    mix = _variant(tmp, "cl_mix_er", "large_network.yaml", {**IDX, **idx},
                   agents={"count": 4, "mix": {"HL2": 1, "HL1": 2, "SHL": 1}},
                   partition={**IDX["partition"], "common_val": True},
                   graph={"kind": "erdos-renyi", "p": 0.5, "period": 4})
    st, fs = (_variant(tmp, f"{mode.lower()}_blobs", "desk_blobs_cl.yaml", BLOBS, mode=mode)
              for mode in ("ST", "FS"))
    st_idx, fs_idx = (_variant(tmp, f"{mode.lower()}_idx", f"table1_{mode.lower()}.yaml",
                               {**IDX, **idx}) for mode in ("ST", "FS"))
    out = tmp / "out"
    return [
        ["run", str(cl), "--out", str(out / "run")],
        ["montecarlo", str(mix), "--out", str(out / "mix"), "--jobs", "1"],
        ["montecarlo", str(st), "--out", str(out / "st"), "--jobs", "2"],
        ["montecarlo", str(fs), "--out", str(out / "fs"), "--jobs", "1"],
        ["montecarlo", str(st_idx), "--out", str(out / "st_idx"), "--jobs", "1"],
        ["sweep", str(edges), "--param", "gamma", "--values", "1,2", "--out",
         str(out / "sweep")],
        ["sweep", str(fs_idx), "--param", "fs_epochs", "--values", "1,2", "--out",
         str(out / "sweep_idx")],
        ["graph-dump", str(mix), "--iter", "5"],
        ["graph-dump", str(edges)],
        ["data-check", str(idx_dir)],
        ["plot", str(out / "run" / "metrics.csv"), str(out / "plot.svg")],
    ]


def main() -> int:
    sys.path.insert(0, str(PACKAGE.parent))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp, LineTracer(PACKAGE) as tracer:
        cli = importlib.import_module("colearn.cli")
        for argv in _commands(Path(tmp)):
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            if status != 0:
                print(f"colearn {' '.join(argv)} exited {status}", file=sys.stderr)
                return 1
    print(f"statements of {PACKAGE.relative_to(REPO)} that never ran in this process or its "
          "threads; the worker processes of montecarlo --jobs 2 are not traced\n")
    print(report(PACKAGE, tracer.lines))
    print(f"\ntraced in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
