"""Apply each catalogued mutant to a copy of the repository and run its tests.

A mutant is one textual edit: in one file, text that occurs there exactly
once is replaced. Each catalogue entry names the edit and the tests expected
to kill it, and marks a known survivor: a mutant that no test kills yet. For
each entry the script copies the working tree's `src/` and `tests/` (with
`configs/`, `perfbench/` and `pyproject.toml`, which the tests read) into a
temporary directory, applies the edit there, and runs the entry's tests with
`pytest -x`. It prints, per mutant, the test that killed it or that it
survived, then the counts:

    python tests/mutants.py            # the whole catalogue
    python tests/mutants.py NAME ...   # only the named mutants

It exits 1 when a mutant not marked as a survivor survives, when a marked
survivor is killed, or when a run neither passes nor fails. It is a script,
not a test module, so pytest does not collect it; `tests/test_mutants.py`
checks that the catalogue matches the source and the tests.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "perfbench", "pyproject.toml")
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the repository root
    survivor: bool = False  # known: none of `tests` kills it yet


COLLECTIVE = "src/colearn/collective.py"
LEARNER = "src/colearn/learner.py"
ENGINE = "tests/test_collective.py::TestEngine::"
# the tests that watch the collective schedule: reviews, refreshes, weight builds
SCHEDULE_TESTS = (
    ENGINE + "test_review_and_refresh_schedule",
    ENGINE + "test_every_agent_reviews_in_agent_order",
    ENGINE + "test_time_varying_schedule_rebuilds_weights",
    "tests/test_parallel.py::test_results_do_not_depend_on_pool_size",
    "tests/test_parallel.py::test_results_do_not_depend_on_task_order",
    "tests/test_perfbench.py::test_tracer_sees_every_phase",
    "tests/test_acceptance.py::TestCriterion6PresetsAndSmoke::"
    "test_smoke_large_time_varying_network",
)
EVAL = "tests/test_eval.py"
KERNELS = "tests/test_kernels.py::"
NUMPY_ADAM_TESTS = (KERNELS + "test_numpy_adam_step_is_textbook_bit_for_bit",
                    KERNELS + "test_numpy_adam_step_every_bias_correction")

CATALOGUE = (
    # the collective schedule
    Mutant("review-only-agent-0", COLLECTIVE,
           "agents, partition.train, where=_at(k))",
           "agents[:1], partition.train[:1], where=_at(k))", SCHEDULE_TESTS),
    Mutant("rebuild-skipped", COLLECTIVE,
           "weights = build_weight_matrix_log(graph_at(schedule, k), log_scores)",
           "pass", SCHEDULE_TESTS),
    Mutant("review-one-late", COLLECTIVE,
           "if k % spec.review_period == 0:",
           "if k > 1 and (k - 1) % spec.review_period == 0:", SCHEDULE_TESTS),
    Mutant("refresh-one-late", COLLECTIVE,
           "refresh = k % spec.score_refresh_period == 0",
           "refresh = k > 1 and (k - 1) % spec.score_refresh_period == 0", SCHEDULE_TESTS),
    Mutant("round-change-ignored", COLLECTIVE,
           "if refresh or schedule_round(schedule, k) != schedule_round(schedule, k - 1):",
           "if refresh:", SCHEDULE_TESTS),
    # weights, fusion and batches
    Mutant("weights-shifted-by-global-max", "src/colearn/graph.py",
           "exp(log_scores[nbrs] - log_scores[nbrs].max())",
           "exp(log_scores[nbrs] - log_scores.max())",
           ("tests/test_graph.py::TestWeightMatrix::test_pinned_bits_at_30_agents",)),
    Mutant("fuse-senders-reversed", "src/colearn/_kernels.py",
           "for j in range(stacked.shape[0]):",
           "for j in reversed(range(stacked.shape[0])):",
           ("tests/test_fusion.py::test_batched_matches_per_agent_fusion",)),
    Mutant("epoch-cap-off-by-one", "src/colearn/data.py",
           "zip(range(cap), batches)", "zip(range(cap + 1), batches)",
           ("tests/test_data.py::TestEpochBatches::test_chains_epochs_and_stops_at_cap",
            ENGINE + "test_max_iterations_cap")),
    # the evaluation bound's proof terms
    Mutant("bound-drops-u-babs", LEARNER,
           "k[:, None] * col + u * babs + u / (1.0 - u)", "k[:, None] * col + u / (1.0 - u)",
           (EVAL,)),
    Mutant("spectral-drops-2^-48", LEARNER,
           "np.sqrt(np.sqrt(np.sqrt(top))) * (1.0 + 2.0**-48)", "np.sqrt(np.sqrt(np.sqrt(top)))",
           (EVAL,), survivor=True),
    Mutant("norm-up-drops-underflow", LEARNER,
           "(np.sqrt(np.asarray(sq, dtype=np.float64)) + np.sqrt(n * float(finfo.tiny)))",
           "np.sqrt(np.asarray(sq, dtype=np.float64))", (EVAL,)),
    Mutant("overflow-guard-max-times-4", LEARNER,
           "< float(finfo.max) / 4.0", "< float(finfo.max) * 4.0", (EVAL,)),
    Mutant("rescoring-slack-1", LEARNER,
           "x64, _row_norms(x64), 2.0)", "x64, _row_norms(x64), 1.0)", (EVAL,), survivor=True),
    Mutant("spectral-drops-err-squared", LEARNER,
           "err * (2.0 * f + err)", "err * 2.0 * f", (EVAL,), survivor=True),
    Mutant("bound-drops-2u-fresh", LEARNER,
           "+ 2.0 * u * (t * frob + bnorm) ", "", (EVAL,)),
    Mutant("certain-drops-2^-20", LEARNER,
           "margin = bound * (1.0 + 2.0**-20) +", "margin = bound +", (EVAL,)),
    Mutant("carried-drops-u-frob", LEARNER,
           "eps * (sigma + u * frob)", "eps * sigma", (EVAL,)),
    # the numpy Adam step's operation order
    Mutant("numpy-adam-reassociated", "src/colearn/_kernels.py",
           "(alpha_t * m) / (np.sqrt(v) + eps_t)", "alpha_t * (m / (np.sqrt(v) + eps_t))",
           NUMPY_ADAM_TESTS),
    Mutant("numpy-adam-eps-under-sqrt", "src/colearn/_kernels.py",
           "np.sqrt(v) + eps_t", "np.sqrt(v + eps_t)", NUMPY_ADAM_TESTS),
    # the agent pool's size rule
    Mutant("pool-rule-flipped", "src/colearn/parallel.py",
           "< THREADED_PARAMS:", ">= THREADED_PARAMS:",
           ("tests/test_parallel.py::TestPoolSize",
            "tests/test_parallel.py::test_results_do_not_depend_on_pool_size")),
)


def _copy(dest: Path) -> None:
    for name in COPIED:
        src = REPO / name
        if src.is_dir():
            shutil.copytree(src, dest / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(src, dest / name)


def apply(mutant: Mutant, root: Path) -> None:
    """Make the mutant's edit under `root`; its old text must occur once."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: old text occurs {found} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> tuple[str, str]:
    """('killed', test), ('survived', '') or ('error', what) for one mutant."""
    with tempfile.TemporaryDirectory(prefix="colearn-mutant-") as tmp:
        root = Path(tmp)
        _copy(root)
        apply(mutant, root)
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        try:
            done = subprocess.run(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                 *mutant.tests], cwd=root, env=env, capture_output=True, text=True,
                timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return "error", f"timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return "survived", ""
    failed = [line.split()[1] for line in done.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if done.returncode == 1 and failed:
        return "killed", failed[0]
    return "error", f"pytest exit {done.returncode}: {done.stdout.strip().splitlines()[-1:]}"


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in CATALOGUE}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {list(by_name)}", file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or list(CATALOGUE)
    tally = {"killed": 0, "survived": 0, "error": 0}
    unexpected = 0
    start = time.perf_counter()
    for m in chosen:
        t0 = time.perf_counter()
        outcome, detail = run(m)
        tally[outcome] += 1
        expected = "survived" if m.survivor else "killed"
        note = "" if outcome == expected else "   UNEXPECTED"
        unexpected += outcome != expected
        mark = " (known survivor)" if m.survivor else ""
        print(f"{outcome:9s} {m.name}{mark}  {detail}  [{time.perf_counter() - t0:.1f} s]{note}",
              flush=True)
    print(f"{tally['killed']} killed, {tally['survived']} survived, {tally['error']} errors "
          f"of {len(chosen)} in {time.perf_counter() - start:.0f} s; {unexpected} unexpected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
