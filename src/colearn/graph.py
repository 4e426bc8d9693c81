"""Time-varying directed communication graphs and mixing-weight matrices.

Graphs are immutable; self-loops are implicit (every node always receives
its own message) and generators never emit explicit (i, i) edges. Random
schedules derive each round's graph from (seed, round index), so any round
can be generated without replaying history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .seeding import rng_for


@dataclass(frozen=True)
class DirectedGraph:
    """Directed graph on nodes 0..n-1; edge (j, i) means j sends to i."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        clean = set()
        for j, i in self.edges:
            j, i = int(j), int(i)
            if not (0 <= j < self.n and 0 <= i < self.n):
                raise ValueError(f"edge ({j}, {i}) out of range for n={self.n}")
            if j != i:  # self-loops are implicit, never stored
                clean.add((j, i))
        object.__setattr__(self, "edges", frozenset(clean))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        return cls(n=n, edges=frozenset((int(j), int(i)) for j, i in edges))

    @classmethod
    def complete(cls, n: int) -> "DirectedGraph":
        return cls.from_edges(n, ((j, i) for j in range(n) for i in range(n) if j != i))

    @classmethod
    def empty(cls, n: int) -> "DirectedGraph":
        return cls(n=n, edges=frozenset())


@dataclass(frozen=True)
class StaticSchedule:
    """Same graph at every iteration."""

    base: DirectedGraph


@dataclass(frozen=True)
class ErdosRenyiSchedule:
    """A fresh Erdos-Renyi directed graph every `period` iterations.

    Each ordered pair (j, i), j != i, is an edge independently with
    probability p. The graph for round r = k // period is a pure function
    of (seed, r).
    """

    n: int
    p: float
    period: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be >= 1, got {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"edge probability must be in [0, 1], got {self.p}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")


GraphSchedule = Union[StaticSchedule, ErdosRenyiSchedule]


def schedule_round(schedule: GraphSchedule, k: int) -> int:
    """Index of the graph in force at iteration k (constant for static)."""
    if k < 0:
        raise ValueError(f"iteration index must be >= 0, got {k}")
    if isinstance(schedule, ErdosRenyiSchedule):
        return k // schedule.period
    return 0


def graph_at(schedule: GraphSchedule, k: int) -> DirectedGraph:
    """Graph at iteration k: a pure function of (schedule, k)."""
    rnd = schedule_round(schedule, k)
    if isinstance(schedule, StaticSchedule):
        return schedule.base
    rng = rng_for(schedule.seed, "er-round", rnd)
    mask = rng.random((schedule.n, schedule.n)) < schedule.p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return DirectedGraph.from_edges(schedule.n, zip(src.tolist(), dst.tolist()))


def n_nodes(schedule: GraphSchedule) -> int:
    if isinstance(schedule, StaticSchedule):
        return schedule.base.n
    return schedule.n


def in_neighbors(g: DirectedGraph, i: int) -> set[int]:
    """Senders into node i, always including i itself."""
    if not 0 <= i < g.n:
        raise IndexError(f"node {i} out of range for n={g.n}")
    nbrs = {j for (j, dst) in g.edges if dst == i}
    nbrs.add(i)
    return nbrs


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every node reaches every other along directed edges."""
    if g.n == 1:
        return True
    fwd: list[list[int]] = [[] for _ in range(g.n)]
    rev: list[list[int]] = [[] for _ in range(g.n)]
    for j, i in g.edges:
        fwd[j].append(i)
        rev[i].append(j)
    return _reaches_all(fwd, g.n) and _reaches_all(rev, g.n)


def _reaches_all(adj: list[list[int]], n: int) -> bool:
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = 1
                count += 1
                stack.append(v)
    return count == n


def union_graph(graphs: Iterable[DirectedGraph]) -> DirectedGraph:
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("all graphs must share the same node count")
    edges: set[tuple[int, int]] = set()
    for g in graphs:
        edges |= g.edges
    return DirectedGraph(n=n, edges=frozenset(edges))


def is_jointly_strongly_connected(schedule: GraphSchedule, k0: int, window: int) -> bool:
    """Strong connectivity of the edge-union of graphs at k0..k0+window."""
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    seen_rounds: set[int] = set()
    graphs = []
    for k in range(k0, k0 + window + 1):
        rnd = schedule_round(schedule, k)
        if rnd in seen_rounds:
            continue
        seen_rounds.add(rnd)
        graphs.append(graph_at(schedule, k))
    return is_strongly_connected(union_graph(graphs))


def build_weight_matrix(g: DirectedGraph, scores: np.ndarray) -> np.ndarray:
    """Row-stochastic mixing matrix from per-node performance scores.

    Row i distributes weight over i's in-neighborhood (self included)
    proportionally to each sender's score: w_ij = s_j / sum_{m in N_i} s_m.
    Scores must be positive and finite.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (g.n,):
        raise ValueError(f"expected {g.n} scores, got shape {scores.shape}")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if np.any(scores <= 0.0):
        raise ValueError("scores must be positive")
    w = np.zeros((g.n, g.n))
    for i in range(g.n):
        nbrs = sorted(in_neighbors(g, i))
        denom = scores[nbrs].sum()
        w[i, nbrs] = scores[nbrs] / denom
    return w


def build_weight_matrix_log(g: DirectedGraph, log_scores: np.ndarray) -> np.ndarray:
    """As build_weight_matrix for scores given in log space.

    Each row is shifted by its in-neighborhood maximum before
    exponentiating, so the exact same ratios survive log-scores far
    beyond the float range of exp (score sharpening with large exponents
    would otherwise overflow).
    """
    log_scores = np.asarray(log_scores, dtype=np.float64)
    if log_scores.shape != (g.n,):
        raise ValueError(f"expected {g.n} scores, got shape {log_scores.shape}")
    if not np.all(np.isfinite(log_scores)):
        raise ValueError("scores must be finite")
    w = np.zeros((g.n, g.n))
    for i in range(g.n):
        nbrs = sorted(in_neighbors(g, i))
        shifted = np.exp(log_scores[nbrs] - log_scores[nbrs].max())
        w[i, nbrs] = shifted / shifted.sum()
    return w


def check_weight_matrix(w: np.ndarray, g: DirectedGraph, tol: float = 1e-9) -> None:
    """Raise unless w satisfies the mixing-matrix invariants for g."""
    if w.shape != (g.n, g.n):
        raise ValueError(f"shape {w.shape} does not match n={g.n}")
    if np.any(w < 0.0):
        raise ValueError("negative entry")
    if np.any(np.diag(w) <= 0.0):
        raise ValueError("diagonal entry not positive")
    rows = w.sum(axis=1)
    if np.any(np.abs(rows - 1.0) > tol):
        raise ValueError(f"row sums deviate from 1 by {np.abs(rows - 1.0).max():g}")
    for i in range(g.n):
        nbrs = in_neighbors(g, i)
        for j in range(g.n):
            if (w[i, j] > 0.0) != (j in nbrs):
                raise ValueError(f"sparsity mismatch at ({i}, {j})")


def format_edge_list(g: DirectedGraph) -> str:
    """One "j i" line per edge (j sends to i), sorted; self-loops omitted."""
    return "\n".join(f"{j} {i}" for j, i in sorted(g.edges))
