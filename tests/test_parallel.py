"""One BLAS thread per process, and agents side by side on a thread pool:
the pool's size rule, that results do not depend on it, and that a failure
inside a pool task names its agent and iteration."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from colearn import collective, harness, parallel
from colearn.collective import collective_round, run_collective
from colearn.config import CollectiveSpec, GraphSpec
from colearn.data import make_partition, synth_blobs
from colearn.graph import GraphSchedule
from colearn.learner import Adam, Architecture, Learner
from colearn.parallel import AgentPool
from colearn.seeding import rng_for

from conftest import blob_config


def _cores(monkeypatch, n: int) -> None:
    monkeypatch.setattr(parallel, "usable_cores", lambda: n)


def _threaded(monkeypatch, cores: int) -> None:
    """`cores` usable cores, and pools that open threads for agents of any
    size, so that blob-scale runs still run on more than one thread."""
    _cores(monkeypatch, cores)
    monkeypatch.setattr(parallel, "THREADED_PARAMS", 0)


def _sized(params: int, n: int = 30) -> list:
    """n stand-ins for agents of `params` parameters: what the pool's size
    rule reads of an agent."""
    theta = np.empty(params)
    return [SimpleNamespace(params=theta) for _ in range(n)]


LARGE = _sized(parallel.THREADED_PARAMS)


def test_blas_pinned_to_one_thread():
    if parallel.blas_threads() is None:
        pytest.skip("no OpenBLAS thread-count calls in this numpy")
    assert parallel.blas_threads() == 1


def test_blas_kernel_follows_forced_coretype():
    if parallel.blas_kernel() is None:
        pytest.skip("no OpenBLAS get-corename call in this numpy")
    # Haswell's kernel runs on any CPU with AVX2 and FMA
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            flags = f.read().split()
    except OSError:
        pytest.skip("no /proc/cpuinfo to read the CPU's flags from")
    if not {"avx2", "fma"} <= set(flags):
        pytest.skip("this CPU has no AVX2 and FMA")
    src = Path(parallel.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", "from colearn import parallel; print(parallel.blas_kernel())"],
        env={**os.environ, "OPENBLAS_CORETYPE": "Haswell", "PYTHONPATH": str(src)},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "Haswell"


class TestPoolSize:
    def test_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="pool size must be >= 1, got 0"):
            AgentPool(0)

    def test_min_of_agents_and_cores(self, monkeypatch):
        monkeypatch.setattr(parallel, "_calls", (None, None))  # as if pinned
        _cores(monkeypatch, 4)
        assert AgentPool.for_agents(LARGE[:3]).size == 3
        assert AgentPool.for_agents(LARGE).size == 4
        _cores(monkeypatch, 1)
        assert AgentPool.for_agents(LARGE).size == 1

    def test_one_thread_unless_an_agent_reaches_the_threshold(self, monkeypatch):
        monkeypatch.setattr(parallel, "_calls", (None, None))
        _cores(monkeypatch, 4)
        small = _sized(parallel.THREADED_PARAMS - 1)
        assert AgentPool.for_agents(small).size == 1
        assert AgentPool.for_agents(small[:3] + LARGE[:1]).size == 4

    def test_montecarlo_workers_divide_the_cores(self, monkeypatch):
        monkeypatch.setattr(parallel, "_calls", (None, None))
        monkeypatch.setattr(parallel, "_processes", 1)
        _cores(monkeypatch, 5)
        parallel.share_cores(2)
        assert AgentPool.for_agents(LARGE).size == 2
        parallel.share_cores(8)
        assert AgentPool.for_agents(LARGE).size == 1

    def test_serial_where_blas_is_not_pinned(self, monkeypatch):
        monkeypatch.setattr(parallel, "_calls", None)
        _cores(monkeypatch, 8)
        assert AgentPool.for_agents(LARGE).size == 1
        assert parallel.blas_threads() is None


def test_pool_threads_end_with_the_pool():
    with AgentPool(3) as pool:
        assert pool.map(lambda x: x * x, range(10)) == [x * x for x in range(10)]
    alive = [t for t in threading.enumerate() if t.name.startswith("colearn-agent")]
    assert alive == []


def _five_agent_run(monkeypatch, cores: int, order=None):
    """A 5-agent blob CL run with a review at iteration 20; its records, its
    agents' final parameters and the threads that ran forward passes. With
    `order`, a function of the agents, tasks start in its order instead of
    largest agent first."""
    _threaded(monkeypatch, cores)
    reviewed = []
    review = collective.review_step

    def reviewing(agent, *args):
        reviewed.append(agent.id)
        review(agent, *args)

    monkeypatch.setattr(collective, "review_step", reviewing)
    if order is not None:
        monkeypatch.setattr(parallel, "largest_first", order)
    threads = set()
    forward = collective.forward

    def spy(*args):
        threads.add(threading.current_thread().name)
        return forward(*args)

    monkeypatch.setattr(collective, "forward", spy)
    config = blob_config(
        mode="CL", n_per_class=80, train_size=12, val_size=12, self_train_epochs=3,
        score_refresh_period=10, review_period=20, epochs_over_shared=1, metric_stride=10,
        architectures=("HL1", "SHL", "HL1", "SHL", "HL1"),
    )
    agents = []
    make_agents = harness._make_agents

    def capture(*args):
        made = make_agents(*args)
        agents.extend(made)
        return made

    monkeypatch.setattr(harness, "_make_agents", capture)
    out = harness.run_mode(config, 0)
    assert sorted(reviewed) == list(range(5)) and out.stats["iterations"] == 28
    return out.records, [a.params.tobytes() for a in agents], threads


def test_results_do_not_depend_on_pool_size(monkeypatch):
    if parallel.blas_threads() is None:
        pytest.skip("agents run serially where BLAS is not pinned")
    records, params, threads = _five_agent_run(monkeypatch, 1)
    assert threads == {threading.main_thread().name}
    got_records, got_params, got_threads = _five_agent_run(monkeypatch, 3)
    assert all(name.startswith("colearn-agent") for name in got_threads)
    assert len(got_threads) > 1
    assert got_records == records
    assert got_params == params


def test_results_do_not_depend_on_task_order(monkeypatch):
    if parallel.blas_threads() is None:
        pytest.skip("agents run serially where BLAS is not pinned")
    records, params, _ = _five_agent_run(monkeypatch, 2)
    for order in (lambda agents: list(range(len(agents))),
                  lambda agents: list(range(len(agents)))[::-1]):
        got_records, got_params, _ = _five_agent_run(monkeypatch, 2, order)
        assert got_records == records
        assert got_params == params


def _agents(kinds, input_dim=4, num_classes=3):
    return [Learner.create(Architecture(kind, input_dim, num_classes), seed=90 + i, id=i)
            for i, kind in enumerate(kinds)]


def test_largest_agents_first_ties_by_id():
    agents = _agents(["SHL", "HL2", "HL1", "HL2", "SHL", "HL1"])
    assert parallel.largest_first(agents) == [1, 3, 2, 5, 0, 4]


def test_pool_starts_the_largest_agents_first(monkeypatch):
    agents = _agents(["SHL", "HL2", "HL1", "HL2"])
    submitted = []
    with AgentPool(2) as pool:
        submit = pool._executor.submit
        monkeypatch.setattr(pool._executor, "submit",
                            lambda fn, *args: submitted.append(args[0].id) or submit(fn, *args))
        got = pool.each(lambda agent, x: (agent.id, x), agents, "abcd", where="")
    assert submitted == [1, 3, 2, 0]
    assert got == [(0, "a"), (1, "b"), (2, "c"), (3, "d")]  # results in agent order


def test_stress_more_threads_than_cores():
    # eight threads on this machine's cores, switching as often as the
    # interpreter allows: a buffer shared between two threads would mix
    # two agents' gradients and change their parameters
    rng = rng_for(60, "stress")
    batch = rng.standard_normal((10, 6))
    w = rng.random((8, 8))
    w /= w.sum(axis=1, keepdims=True)

    def agents():
        return [Learner.create(
            Architecture(("SHL", "HL1", "HL2")[i % 3], 6, 4, hidden=(8,) * (i % 3)),
            seed=70 + i, rule=Adam(alpha=0.01), id=i) for i in range(8)]

    serial, threaded = agents(), agents()
    with AgentPool(1) as pool:
        want = [collective_round(serial, w, batch, pool, k) for k in range(1, 31)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with AgentPool(8) as pool:
            got = [collective_round(threaded, w, batch, pool, k) for k in range(1, 31)]
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(np.stack([np.stack(r) for r in got]),
                          np.stack([np.stack(r) for r in want]))
    for a, b in zip(threaded, serial):
        assert a.params.tobytes() == b.params.tobytes()


@pytest.mark.parametrize("cores", [1, 2])
def test_failure_names_agent_and_iteration(monkeypatch, cores):
    _threaded(monkeypatch, cores)
    source = synth_blobs(60, 3, 4, 6.0, seed=80)
    part = make_partition(source, 3, 10, 10, seed=81, test=synth_blobs(10, 3, 4, 6.0, 82))
    agents = [Learner.create(Architecture("SHL", 4, 3), seed=83 + i, id=i)
              for i in range(3)]
    calls = 0
    round_fn = collective.collective_round

    def poison(agents, *args):
        # agent 1's parameters turn NaN just before the fifth round
        nonlocal calls
        calls += 1
        if calls == 5:
            agents[1].params[:] = np.nan
        return round_fn(agents, *args)

    monkeypatch.setattr(collective, "collective_round", poison)
    config = CollectiveSpec(score_refresh_period=100, review_period=100, gamma=1.0,
                            batch_size=10, epochs_over_shared=1)
    with pytest.raises(RuntimeError, match=r"^agent 1 at iteration 5: FloatingPointError: "
                                            r"non-finite activations") as got:
        run_collective(agents, part, GraphSchedule(GraphSpec(), 3, seed=0), config,
                       seed=84, metric_stride=100)
    assert isinstance(got.value.__cause__, FloatingPointError)


@pytest.mark.parametrize("cores", [1, 2])
def test_two_failures_name_the_lower_agent_id(monkeypatch, cores):
    # agents 1 and 3 turn NaN in the same round; agent 3, an HL1, is larger
    # than agent 1, an SHL, so its forward pass starts first
    _threaded(monkeypatch, cores)
    source = synth_blobs(60, 3, 4, 6.0, seed=85)
    part = make_partition(source, 4, 10, 10, seed=86, test=synth_blobs(10, 3, 4, 6.0, 87))
    agents = _agents(["SHL", "SHL", "SHL", "HL1"])
    assert parallel.largest_first(agents)[0] == 3
    round_fn = collective.collective_round

    def poison(agents, weights, batch, pool=None, k=None):
        if k == 2:
            for i in (1, 3):
                agents[i].params[:] = np.nan
        return round_fn(agents, weights, batch, pool, k)

    monkeypatch.setattr(collective, "collective_round", poison)
    config = CollectiveSpec(score_refresh_period=100, review_period=100, gamma=1.0,
                            batch_size=10, epochs_over_shared=1)
    with pytest.raises(RuntimeError, match=r"^agent 1 at iteration 2: FloatingPointError"):
        run_collective(agents, part, GraphSchedule(GraphSpec(), 4, seed=0), config,
                       seed=88, metric_stride=100)


def test_run_failure_names_run_agent_and_iteration(monkeypatch):
    config = blob_config(mode="CL", runs=1, seed=4242, n_per_class=40, train_size=10,
                         val_size=10, self_train_epochs=1, epochs_over_shared=1)
    round_fn = collective.collective_round

    def poison(agents, weights, batch, pool=None, k=None):
        if k == 3:
            agents[2].params[:] = np.nan
        return round_fn(agents, weights, batch, pool, k)

    monkeypatch.setattr(collective, "collective_round", poison)
    with pytest.raises(RuntimeError, match=r"run 0 \(master seed 4242\) failed: "
                                            r"agent 2 at iteration 3: FloatingPointError"):
        harness.montecarlo(config)


def test_montecarlo_workers_share_the_cores(monkeypatch):
    # forked workers inherit both patches; each reports the pool it may open
    _cores(monkeypatch, 4)
    run_mode = harness.run_mode

    def report_pool(*args):
        output = run_mode(*args)
        output.stats["pool"] = AgentPool.for_agents(LARGE).size
        return output

    monkeypatch.setattr(harness, "run_mode", report_pool)
    config = blob_config(mode="ST", runs=2, n_per_class=40, train_size=10, val_size=10,
                         self_train_epochs=1)
    want = 1 if parallel.blas_threads() is None else 4
    for jobs in (1, 2):
        _, outputs = harness.montecarlo(config, jobs=jobs)
        assert [o.stats["pool"] for o in outputs] == [want // jobs or 1] * 2
