"""Where a run's work executes: one BLAS thread per process, and the agents
of a run side by side on threads.

A BLAS product splits its work between its threads, and different splits
round differently, so the bits of every matmul depend on the BLAS thread
count. Importing this module therefore pins the OpenBLAS that numpy loaded
to one thread, through the library's own set-threads call: the library reads
its environment variables only when it loads, and a parent process may have
set them to anything. Where no such call is found, BLAS keeps its threads and
agents run one after another.

Parallelism comes from the agents instead. An `AgentPool` runs each agent's
independent work (its `forward` pass, its `train_step`, its review epoch,
its validation `accuracy`) as one task on a thread, and test-set `accuracy`
one chunk per task; numpy releases the interpreter lock inside BLAS and
ufunc loops, and ctypes for the whole of the C Adam step (`_kernels`), so
the tasks overlap, where the agents are large enough to pay for a thread
(`AgentPool`). A pool starts a phase's agent tasks largest agent first,
so that no large task starts last and runs alone. Each agent's arithmetic
stays sequential and single-threaded, so the bits depend on neither thread
count nor task order. `colearn montecarlo --jobs N` divides the usable
cores between its N worker processes.
"""

from __future__ import annotations

import ctypes
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

# (prefix, suffix) of OpenBLAS's exported names: numpy's bundled build
# exports them with both, a system build with a plain prefix
_NAMINGS = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))


def _find_thread_calls():
    """The (set, get) thread-count calls of the OpenBLAS this process has
    loaded and its get-corename call (None where not exported), or None.
    Loaded libraries are read from /proc/self/maps."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as f:
            paths = {line.split(maxsplit=5)[-1].strip() for line in f if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _NAMINGS:
            set_threads, get_threads, corename = (
                getattr(lib, f"{prefix}{call}{suffix}", None)
                for call in ("set_num_threads", "get_num_threads", "get_corename"))
            if set_threads is not None and get_threads is not None:
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                if corename is not None:
                    corename.argtypes, corename.restype = [], ctypes.c_char_p
                return set_threads, get_threads, corename
    return None


_calls = _find_thread_calls()
if _calls is not None:
    _calls[0](1)

# Worker processes of one Monte Carlo that share this machine's cores; set
# in each pool worker by `share_cores`, 1 in every other process.
_processes = 1


def blas_threads() -> int | None:
    """OpenBLAS's thread count, read back from the library; None where its
    thread-count calls were not found."""
    return None if _calls is None else int(_calls[1]())


def blas_kernel() -> str | None:
    """The name of the kernel OpenBLAS chose for this CPU when it loaded (or
    the one OPENBLAS_CORETYPE forced), e.g. "SkylakeX"; None where its
    get-corename call was not found."""
    corename = None if _calls is None else _calls[2]
    return None if corename is None else corename().decode()


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def share_cores(processes: int) -> None:
    """Declare this process one of `processes` that divide the usable cores
    (a Monte Carlo pool worker calls it once, when it starts)."""
    global _processes
    _processes = max(1, processes)


def max_pool_size() -> int:
    """Threads a run of this process may use: its share of the usable cores,
    or 1 where BLAS could not be pinned."""
    if _calls is None:
        return 1
    return max(1, usable_cores() // _processes)


def largest_first(agents: Sequence) -> list[int]:
    """Positions of `agents` by parameter count, largest first, ties by id:
    the order in which `AgentPool.each` starts their tasks."""
    return sorted(range(len(agents)),
                  key=lambda i: (-agents[i].params.size, agents[i].id))


# Parameters the largest agent of a run must have for its pool to open more
# than one thread; see `AgentPool`.
THREADED_PARAMS = 100_000


class AgentPool:
    """Runs a run's independent tasks side by side on `size` threads. With
    size 1 every task runs on the calling thread.

    `for_agents` opens threads only for a run whose largest agent has at
    least `THREADED_PARAMS` parameters. A smaller agent's task is tens of
    microseconds of numpy calls that hold the interpreter lock, so a second
    thread only adds handoffs. Measured once, on a 2-core x86-64 guest
    (OpenBLAS SkylakeX, the C Adam step): a collective round of 4 HL1
    agents with 10 classes, batch 10, took these times as long on 2
    threads as on 1, by input width (parameters), medians of 3 or 5 runs of
    300 rounds: 20 (9k) 1.31, 80 (27k) 1.80, 200 (63k) 1.14, 280 (87k)
    1.04, 360 (111k) 0.96, 440 (135k) 0.84, 520 (159k) 0.77, 784 (239k)
    0.66. `desk_blobs_cl.yaml`'s largest agent has 7,805 parameters, the
    Table 1 and large-network agents up to 545,810.

    Open one for a phase of a run and close it before that phase returns
    (it is a context manager): a process forked later then inherits no pool
    threads. A CL run opens two, one in `harness.run_mode` for self-training
    and one in `collective.run_collective`. Self-training stays outside
    `run_collective` because perfbench's `iter_per_s` divides the collective
    iterations by the time spent inside `run_collective`. No task may wait on
    another task of the same pool.
    """

    def __init__(self, size: int = 1):
        if size < 1:
            raise ValueError(f"pool size must be >= 1, got {size}")
        self.size = size
        self._executor = (ThreadPoolExecutor(size, thread_name_prefix="colearn-agent")
                          if size > 1 else None)

    @classmethod
    def for_agents(cls, agents: Sequence) -> "AgentPool":
        """A pool for a run of `agents`: no more threads than agents, and
        one thread where no agent has `THREADED_PARAMS` parameters."""
        if max(a.params.size for a in agents) < THREADED_PARAMS:
            return cls(1)
        return cls(min(len(agents), max_pool_size()))

    def __enter__(self) -> "AgentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._executor is not None:
            # queued tasks of a map that failed or was interrupted never start
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None

    def map(self, fn: Callable, *iterables) -> list:
        """[fn(*args) for args in zip(*iterables)], side by side; results
        in input order. The first failure in input order is raised."""
        if self._executor is None:
            return list(map(fn, *iterables))
        return list(self._executor.map(fn, *iterables))

    def each(self, fn: Callable, agents: Sequence, *more, where: str) -> list:
        """`map` over agents (and, item by item, `more`): fn(agent, ...),
        started by `largest_first`; results in agent order. A failure is
        re-raised as a RuntimeError naming the agent and `where` the run
        was, e.g. "at iteration 40"; of several, the first in agent order."""
        def task(agent, *args):
            try:
                return fn(agent, *args)
            except Exception as e:
                name = f"agent {agent.id} {where}".rstrip()
                raise RuntimeError(f"{name}: {type(e).__name__}: {e}") from e

        if self._executor is None:
            return list(map(task, agents, *more))
        tasks = list(zip(agents, *more))
        futures = [None] * len(tasks)
        for i in largest_first(agents):
            futures[i] = self._executor.submit(task, *tasks[i])
        try:
            return [f.result() for f in futures]
        finally:
            # after a failure, tasks that have not started never do
            for f in futures:
                f.cancel()
