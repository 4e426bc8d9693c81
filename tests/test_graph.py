"""Graph generation, connectivity checks, and weight-matrix invariants."""

import hashlib

import numpy as np
import pytest

from colearn.config import GraphSpec
from colearn.graph import (
    DirectedGraph,
    GraphSchedule,
    build_weight_matrix_log,
    format_edge_list,
    graph_at,
    is_jointly_strongly_connected,
    is_strongly_connected,
    union_graph,
)
from colearn.seeding import rng_for, subseed

# sha256 of test_pinned_bits_at_30_agents' weight matrices
WEIGHT_PIN = "1bff8c8e793aea7778f8671f0112b25f4843eb915559bd17558eb3f30b73d1b4"


def closure_connected(g: DirectedGraph) -> bool:
    """Brute-force oracle: transitive closure via repeated boolean products."""
    a = g.hears.T  # a[j, i]: j sends to i
    reach = a.copy()
    for _ in range(g.n):
        reach = reach | (reach @ a)
    return bool(reach.all())


def random_graph(n: int, p: float, rng) -> DirectedGraph:
    mask = rng.random((n, n)) < p  # mask[j, i]: j sends to i
    return DirectedGraph(mask.T)


def erdos_renyi(n: int, p: float, period: int, seed: int) -> GraphSchedule:
    return GraphSchedule(GraphSpec("erdos-renyi", p=p, period=period), n, seed)


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
    mismatch = np.argwhere((w > 0.0) != g.hears)
    if mismatch.size:
        raise ValueError(f"sparsity mismatch at {tuple(mismatch[0])}")


class TestGraphAt:
    def test_static_schedule_is_constant(self):
        sched = GraphSchedule(GraphSpec(), 4, seed=0)
        assert graph_at(sched, 0) == graph_at(sched, 1234) == DirectedGraph.complete(4)
        sched = GraphSchedule(GraphSpec("edges", edges=((0, 1), (2, 1))), 3, seed=0)
        assert graph_at(sched, 0) == graph_at(sched, 99) == DirectedGraph.from_edges(
            3, [(0, 1), (2, 1)])

    def test_same_round_same_edges(self):
        sched = erdos_renyi(12, 0.3, 10, 5)
        assert graph_at(sched, 3) == graph_at(sched, 7)
        assert graph_at(sched, 0) == graph_at(sched, 9)

    def test_is_pure_function(self):
        sched = erdos_renyi(12, 0.3, 10, 5)
        for k in (0, 10, 25, 999):
            assert graph_at(sched, k) == graph_at(sched, k)

    def test_rounds_differ(self):
        sched = erdos_renyi(12, 0.3, 10, 5)
        assert graph_at(sched, 0) != graph_at(sched, 10)

    def test_expected_edge_count(self):
        # p * n * (n-1) = 0.1 * 30 * 29 = 87 directed edges on average
        sched = erdos_renyi(30, 0.1, 10, 42)
        counts = [graph_at(sched, k * 10).hears.sum() - 30 for k in range(1000)]
        assert np.mean(counts) == pytest.approx(87.0, rel=0.05)

    def test_never_emits_self_loops(self):
        # self-loops are implicit: every node hears itself, no edge lists one
        sched = erdos_renyi(8, 0.9, 1, 0)
        for k in range(20):
            g = graph_at(sched, k)
            assert g.hears.diagonal().all()
            edges = [line.split() for line in format_edge_list(g).split("\n")]
            assert all(j != i for j, i in edges)


class TestHears:
    def test_self_loop_only(self):
        assert np.flatnonzero(DirectedGraph.from_edges(4, ()).hears[2]).tolist() == [2]

    def test_senders_into_node(self):
        g = DirectedGraph.from_edges(3, [(0, 2), (1, 2)])
        assert np.flatnonzero(g.hears[2]).tolist() == [0, 1, 2]
        assert np.flatnonzero(g.hears[0]).tolist() == [0]

    def test_complete_graph(self):
        assert np.flatnonzero(DirectedGraph.complete(4).hears[0]).tolist() == [0, 1, 2, 3]

    def test_read_only_copy(self):
        mask = np.zeros((3, 3), dtype=bool)
        g = DirectedGraph(mask)
        mask[1, 0] = True
        assert not g.hears[1, 0] and not mask[0, 0]
        with pytest.raises(ValueError):
            g.hears[1, 0] = True


class TestStrongConnectivity:
    def test_directed_cycle(self):
        g = DirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert is_strongly_connected(g)

    def test_out_star_is_not(self):
        g = DirectedGraph.from_edges(3, [(0, 1), (0, 2)])
        assert not is_strongly_connected(g)

    def test_single_node(self):
        assert is_strongly_connected(DirectedGraph.from_edges(1, ()))

    def test_agrees_with_closure_oracle_small(self):
        rng = rng_for(7, "oracle-small")
        for case in range(1000):
            n = int(rng.integers(1, 9))
            g = random_graph(n, float(rng.random()), rng)
            assert is_strongly_connected(g) == closure_connected(g), f"case {case}"

    def test_agrees_with_closure_oracle_30_nodes(self):
        rng = rng_for(11, "oracle-large")
        agree = sum(
            is_strongly_connected(g) == closure_connected(g)
            for g in (random_graph(30, 0.08, rng) for _ in range(100))
        )
        assert agree == 100


class TestJointConnectivity:
    def test_static_complete_any_window(self):
        sched = GraphSchedule(GraphSpec(), 5, seed=0)
        assert is_jointly_strongly_connected(sched, 0, 0)
        assert is_jointly_strongly_connected(sched, 17, 40)

    def test_alternating_graphs_union_cycle(self):
        # a sparse graph redrawn every iteration: a window is jointly strongly
        # connected exactly when the union of its iterations' graphs is, and
        # that union can be connected while none of its graphs is alone
        sched = erdos_renyi(6, 0.15, 1, 5)
        outcomes, union_only = [], False
        for k0 in range(0, 60, 3):
            for window in (0, 1, 2, 4, 8):
                graphs = [graph_at(sched, k) for k in range(k0, k0 + window + 1)]
                expected = is_strongly_connected(union_graph(graphs))
                assert is_jointly_strongly_connected(sched, k0, window) == expected
                outcomes.append(expected)
                union_only |= expected and not any(map(is_strongly_connected, graphs))
        assert union_only and not all(outcomes)

    def test_static_single_edge_never(self):
        sched = GraphSchedule(GraphSpec("edges", edges=((0, 1),)), 2, seed=0)
        assert not is_jointly_strongly_connected(sched, 0, 0)
        assert not is_jointly_strongly_connected(sched, 0, 50)

    def test_sparse_random_windows_mostly_connected(self):
        # seed-pinned statistical check: unions over 31 iterations (4 rounds)
        sched = erdos_renyi(30, 0.1, 10, 42)
        ok = sum(
            is_jointly_strongly_connected(sched, k0, 30)
            for k0 in range(0, 200 * 30, 30)
        )
        assert ok >= 0.99 * 200

    def test_union_graph_requires_matching_sizes(self):
        with pytest.raises(ValueError):
            union_graph([DirectedGraph.from_edges(2, ()), DirectedGraph.from_edges(3, ())])


def plain_weights(g: DirectedGraph, scores: np.ndarray) -> np.ndarray:
    """Reference: w_ij = s_j / sum of s_m over i's in-neighborhood, by loops."""
    w = np.zeros((g.n, g.n))
    for i in range(g.n):
        nbrs = np.flatnonzero(g.hears[i])
        total = sum(scores[m] for m in nbrs)
        for j in nbrs:
            w[i, j] = scores[j] / total
    return w


class TestWeightMatrix:
    def test_uniform_scores_complete_graph(self):
        w = build_weight_matrix_log(DirectedGraph.complete(4), np.zeros(4))
        assert np.allclose(w, 0.25, rtol=0.0, atol=1e-15)

    def test_two_node_proportional(self):
        w = build_weight_matrix_log(DirectedGraph.complete(2), np.log([1.0, 3.0]))
        assert np.allclose(w, [[0.25, 0.75], [0.25, 0.75]], rtol=0.0, atol=1e-15)

    def test_star_into_node_zero(self):
        g = DirectedGraph.from_edges(3, [(1, 0), (2, 0)])
        w = build_weight_matrix_log(g, np.log([2.0, 3.0, 5.0]))
        assert np.allclose(w[0], [0.2, 0.3, 0.5], rtol=0.0, atol=1e-15)
        assert w[1].tolist() == [0.0, 1.0, 0.0]
        assert w[2].tolist() == [0.0, 0.0, 1.0]
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)

    def test_invariants_on_random_graphs(self):
        rng = rng_for(3, "wm-invariants")
        for _ in range(200):
            n = int(rng.integers(1, 12))
            g = random_graph(n, float(rng.random()), rng)
            w = build_weight_matrix_log(g, rng.uniform(0.0, 5.0, size=n))
            check_weight_matrix(w, g, tol=1e-9)

    def test_log_variant_matches_plain(self):
        rng = rng_for(4, "wm-log")
        for _ in range(50):
            n = int(rng.integers(1, 10))
            g = random_graph(n, float(rng.random()), rng)
            log_scores = rng.uniform(0.0, 6.0, size=n)
            plain = plain_weights(g, np.exp(log_scores))
            stable = build_weight_matrix_log(g, log_scores)
            assert np.allclose(plain, stable, rtol=1e-12, atol=1e-15)
            check_weight_matrix(stable, g, tol=1e-9)

    def test_log_variant_survives_huge_exponents(self):
        g = DirectedGraph.complete(3)
        w = build_weight_matrix_log(g, np.array([800.0, 810.0, 805.0]))
        assert np.all(np.isfinite(w))
        assert np.allclose(w.sum(axis=1), 1.0)
        assert w[0, 1] > w[0, 2] > w[0, 0]

    def test_pinned_bits_at_30_agents(self):
        # rows of 8 or more in-neighbours, which no golden case (at most 4
        # agents) reaches: the complete graph and large_network.yaml's
        # Erdos-Renyi rounds 0-19, with scores gamma * accuracy at gamma 10.
        # No BLAS kernel and no numpy SIMD loop moves these bits.
        schedule = erdos_renyi(30, 0.1, 10, subseed(7401, "graph-schedule"))
        graphs = [DirectedGraph.complete(30)] + [graph_at(schedule, 10 * r) for r in range(20)]
        assert max(g.hears.sum(axis=1).max() for g in graphs[1:]) >= 8
        rng = rng_for(18, "weight-pin")
        digest = hashlib.sha256()
        for g in graphs:
            w = build_weight_matrix_log(g, 10.0 * rng.uniform(0.7, 0.99, size=30))
            digest.update(w.tobytes())
        assert digest.hexdigest() == WEIGHT_PIN

    def test_rejects_bad_scores(self):
        g = DirectedGraph.complete(3)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                build_weight_matrix_log(g, np.array([1.0, bad, 1.0]))
        with pytest.raises(ValueError, match="expected 3 scores"):
            build_weight_matrix_log(g, np.zeros(2))
        with pytest.raises(ValueError, match="expected 3 scores"):
            build_weight_matrix_log(g, np.zeros((3, 1)))


def test_explicit_self_loops_are_dropped():
    g = DirectedGraph.from_edges(3, [(0, 0), (0, 1)])
    assert g == DirectedGraph.from_edges(3, [(0, 1)])
    assert format_edge_list(g) == "0 1"


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        DirectedGraph.from_edges(2, [(0, 2)])


def test_format_edge_list_sorted():
    g = DirectedGraph.from_edges(3, [(2, 1), (0, 1)])
    assert format_edge_list(g) == "0 1\n2 1"
