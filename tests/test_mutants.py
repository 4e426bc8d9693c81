"""The mutant catalogue of `tests/mutants.py` matches the source and the tests."""

import os
import subprocess
import sys

import pytest

from conftest import REPO_ROOT
from mutants import CATALOGUE

IDS = [m.name for m in CATALOGUE]


@pytest.fixture(scope="module")
def collected() -> set[str]:
    """The node ids of every test in the files the catalogue names."""
    files = sorted({test.split("::")[0] for m in CATALOGUE for test in m.tests})
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
         *files], cwd=REPO_ROOT, env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return {line for line in done.stdout.splitlines() if "::" in line}


def test_names_are_unique():
    assert len(set(IDS)) == len(IDS)


@pytest.mark.parametrize("mutant", CATALOGUE, ids=IDS)
def test_old_text_occurs_once(mutant):
    assert mutant.old != mutant.new
    assert (REPO_ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.old) == 1


@pytest.mark.parametrize("mutant", CATALOGUE, ids=IDS)
def test_named_tests_exist(mutant, collected):
    # a node id names a test, a parametrized test's cases, a class or a file
    for test in mutant.tests:
        assert any(node == test or node.startswith((test + "::", test + "["))
                   for node in collected), test
