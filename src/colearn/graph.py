"""Time-varying directed communication graphs and mixing-weight matrices.

A graph is held as its receive matrix: `hears[i, j]` is True when node i
receives node j's messages. Every node always receives its own message, so
the diagonal is always True. Graphs are read-only. A run's schedule is its
config's GraphSpec, checked there and read here as it is; an Erdos-Renyi
round's graph is drawn from (seed, round index), so any round can be
generated without replaying history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .config import GraphSpec
from .seeding import rng_for


@dataclass(frozen=True, eq=False)
class DirectedGraph:
    """Directed graph on nodes 0..n-1: `hears[i, j]` is True when j sends to
    i. The matrix is a read-only copy with a True diagonal."""

    hears: np.ndarray

    def __post_init__(self):
        hears = np.array(self.hears, dtype=bool)
        if hears.ndim != 2 or hears.shape[0] != hears.shape[1] or hears.shape[0] < 1:
            raise ValueError(f"expected a square matrix on >= 1 nodes, got shape {hears.shape}")
        np.fill_diagonal(hears, True)
        hears.flags.writeable = False
        object.__setattr__(self, "hears", hears)

    @property
    def n(self) -> int:
        return self.hears.shape[0]

    def __eq__(self, other) -> bool:
        return isinstance(other, DirectedGraph) and np.array_equal(self.hears, other.hears)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DirectedGraph":
        """The graph on n nodes whose edge (j, i) means j sends to i."""
        pairs = np.array([(int(j), int(i)) for j, i in edges], dtype=np.int64).reshape(-1, 2)
        bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
        if bad.any():
            j, i = pairs[bad][0]
            raise ValueError(f"edge ({j}, {i}) out of range for n={n}")
        hears = np.zeros((n, n), dtype=bool)
        hears[pairs[:, 1], pairs[:, 0]] = True
        return cls(hears)

    @classmethod
    def complete(cls, n: int) -> "DirectedGraph":
        return cls(np.ones((n, n), dtype=bool))


@dataclass(frozen=True)
class GraphSchedule:
    """The graph in force at each iteration of a run on n agents, as `spec`
    describes it: one complete or edge-list graph throughout, or an
    Erdos-Renyi graph redrawn every `spec.period` iterations, in which each
    ordered pair (j, i), j != i, is an edge independently with probability
    `spec.p`. Round r = k // period's graph is a pure function of (seed, r).
    """

    spec: GraphSpec
    n: int
    seed: int


def schedule_round(schedule: GraphSchedule, k: int) -> int:
    """Index of the graph in force at iteration k >= 0 (0 for a static graph)."""
    if schedule.spec.kind == "erdos-renyi":
        return k // schedule.spec.period
    return 0


def graph_at(schedule: GraphSchedule, k: int) -> DirectedGraph:
    """Graph at iteration k: a pure function of (schedule, k)."""
    spec, n = schedule.spec, schedule.n
    if spec.kind == "complete":
        return DirectedGraph.complete(n)
    if spec.kind == "edges":
        return DirectedGraph.from_edges(n, spec.edges)
    rng = rng_for(schedule.seed, "er-round", schedule_round(schedule, k))
    # mask[j, i]: j sends to i; the drawn diagonal is overwritten
    mask = rng.random((n, n)) < spec.p
    return DirectedGraph(mask.T)


def is_strongly_connected(g: DirectedGraph) -> bool:
    """True iff every node reaches every other along directed edges."""
    return _reaches_all(g.hears.T) and _reaches_all(g.hears)


def _reaches_all(step: np.ndarray) -> bool:
    """Whether node 0 reaches every node, where step[u, v] is an edge u -> v
    (and step[u, u] is True)."""
    seen = frontier = step[0]
    while frontier.any():
        frontier = step[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return bool(seen.all())


def union_graph(graphs: Iterable[DirectedGraph]) -> DirectedGraph:
    graphs = list(graphs)
    if not graphs:
        raise ValueError("need at least one graph")
    n = graphs[0].n
    if any(g.n != n for g in graphs):
        raise ValueError("all graphs must share the same node count")
    return DirectedGraph(np.logical_or.reduce([g.hears for g in graphs]))


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


def build_weight_matrix_log(g: DirectedGraph, log_scores: np.ndarray) -> np.ndarray:
    """Row-stochastic mixing matrix from per-node log performance scores.

    Row i distributes weight over i's in-neighborhood (self included) in
    proportion to each sender's score: w_ij = exp(l_j) / sum_{m in N_i}
    exp(l_m). Each row is shifted by its in-neighborhood maximum before
    exponentiating, so the same ratios survive log-scores far beyond the
    float range of exp (score sharpening with large exponents would
    otherwise overflow). Log-scores must be finite.
    """
    log_scores = np.asarray(log_scores, dtype=np.float64)
    if log_scores.shape != (g.n,):
        raise ValueError(f"expected {g.n} scores, got shape {log_scores.shape}")
    if not np.all(np.isfinite(log_scores)):
        raise ValueError("scores must be finite")
    w = np.zeros((g.n, g.n))
    for i in range(g.n):
        # one row at a time: numpy sums 8 or more elements of a 2-D row sum
        # in another order, and the bits would change
        nbrs = g.hears[i]
        shifted = np.exp(log_scores[nbrs] - log_scores[nbrs].max())
        w[i, nbrs] = shifted / shifted.sum()
    return w


def format_edge_list(g: DirectedGraph) -> str:
    """One "j i" line per edge (j sends to i), sorted; self-loops omitted."""
    sends = g.hears.T & ~np.eye(g.n, dtype=bool)
    return "\n".join(f"{j} {i}" for j, i in np.argwhere(sends))
