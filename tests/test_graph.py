"""Graph generation, connectivity checks, and weight-matrix invariants."""

import numpy as np
import pytest

from colearn.graph import (
    DirectedGraph,
    ErdosRenyiSchedule,
    StaticSchedule,
    build_weight_matrix,
    build_weight_matrix_log,
    check_weight_matrix,
    format_edge_list,
    graph_at,
    in_neighbors,
    is_jointly_strongly_connected,
    is_strongly_connected,
    union_graph,
)
from colearn.seeding import rng_for


def closure_connected(g: DirectedGraph) -> bool:
    """Brute-force oracle: transitive closure via repeated boolean products."""
    a = np.eye(g.n, dtype=bool)
    for j, i in g.edges:
        a[j, i] = True
    reach = a.copy()
    for _ in range(g.n):
        reach = reach | (reach @ a)
    return bool(reach.all())


def random_graph(n: int, p: float, rng) -> DirectedGraph:
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    src, dst = np.nonzero(mask)
    return DirectedGraph.from_edges(n, zip(src.tolist(), dst.tolist()))


class TestGraphAt:
    def test_static_schedule_is_constant(self):
        sched = StaticSchedule(DirectedGraph.complete(4))
        assert graph_at(sched, 0) == graph_at(sched, 1234) == sched.base

    def test_same_round_same_edges(self):
        sched = ErdosRenyiSchedule(n=12, p=0.3, period=10, seed=5)
        assert graph_at(sched, 3).edges == graph_at(sched, 7).edges
        assert graph_at(sched, 0).edges == graph_at(sched, 9).edges

    def test_is_pure_function(self):
        sched = ErdosRenyiSchedule(n=12, p=0.3, period=10, seed=5)
        for k in (0, 10, 25, 999):
            assert graph_at(sched, k).edges == graph_at(sched, k).edges

    def test_rounds_differ(self):
        sched = ErdosRenyiSchedule(n=12, p=0.3, period=10, seed=5)
        assert graph_at(sched, 0).edges != graph_at(sched, 10).edges

    def test_expected_edge_count(self):
        # p * n * (n-1) = 0.1 * 30 * 29 = 87 directed edges on average
        sched = ErdosRenyiSchedule(n=30, p=0.1, period=10, seed=42)
        counts = [len(graph_at(sched, k * 10).edges) for k in range(1000)]
        assert np.mean(counts) == pytest.approx(87.0, rel=0.05)

    def test_never_emits_self_loops(self):
        sched = ErdosRenyiSchedule(n=8, p=0.9, period=1, seed=0)
        for k in range(20):
            assert all(j != i for j, i in graph_at(sched, k).edges)

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            graph_at(StaticSchedule(DirectedGraph.complete(3)), -1)


class TestInNeighbors:
    def test_self_loop_only(self):
        assert in_neighbors(DirectedGraph.empty(4), 2) == {2}

    def test_senders_into_node(self):
        g = DirectedGraph.from_edges(3, [(0, 2), (1, 2)])
        assert in_neighbors(g, 2) == {0, 1, 2}
        assert in_neighbors(g, 0) == {0}

    def test_complete_graph(self):
        assert in_neighbors(DirectedGraph.complete(4), 0) == {0, 1, 2, 3}

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            in_neighbors(DirectedGraph.complete(4), 4)


class TestStrongConnectivity:
    def test_directed_cycle(self):
        g = DirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert is_strongly_connected(g)

    def test_out_star_is_not(self):
        g = DirectedGraph.from_edges(3, [(0, 1), (0, 2)])
        assert not is_strongly_connected(g)

    def test_single_node(self):
        assert is_strongly_connected(DirectedGraph.empty(1))

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
        sched = StaticSchedule(DirectedGraph.complete(5))
        assert is_jointly_strongly_connected(sched, 0, 0)
        assert is_jointly_strongly_connected(sched, 17, 40)

    def test_alternating_graphs_union_cycle(self):
        # a sparse graph redrawn every iteration: a window is jointly strongly
        # connected exactly when the union of its iterations' graphs is, and
        # that union can be connected while none of its graphs is alone
        sched = ErdosRenyiSchedule(n=6, p=0.15, period=1, seed=5)
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
        sched = StaticSchedule(DirectedGraph.from_edges(2, [(0, 1)]))
        assert not is_jointly_strongly_connected(sched, 0, 0)
        assert not is_jointly_strongly_connected(sched, 0, 50)

    def test_sparse_random_windows_mostly_connected(self):
        # seed-pinned statistical check: unions over 31 iterations (4 rounds)
        sched = ErdosRenyiSchedule(n=30, p=0.1, period=10, seed=42)
        ok = sum(
            is_jointly_strongly_connected(sched, k0, 30)
            for k0 in range(0, 200 * 30, 30)
        )
        assert ok >= 0.99 * 200

    def test_union_graph_requires_matching_sizes(self):
        with pytest.raises(ValueError):
            union_graph([DirectedGraph.empty(2), DirectedGraph.empty(3)])


class TestWeightMatrix:
    def test_uniform_scores_complete_graph(self):
        w = build_weight_matrix(DirectedGraph.complete(4), np.ones(4))
        assert np.allclose(w, 0.25)

    def test_two_node_proportional(self):
        w = build_weight_matrix(DirectedGraph.complete(2), np.array([1.0, 3.0]))
        assert np.allclose(w, [[0.25, 0.75], [0.25, 0.75]])

    def test_star_into_node_zero(self):
        g = DirectedGraph.from_edges(3, [(1, 0), (2, 0)])
        w = build_weight_matrix(g, np.array([2.0, 3.0, 5.0]))
        assert np.allclose(w[0], [0.2, 0.3, 0.5])
        assert np.allclose(w[1], [0.0, 1.0, 0.0])
        assert np.allclose(w[2], [0.0, 0.0, 1.0])
        assert np.allclose(w.sum(axis=1), 1.0)

    def test_invariants_on_random_graphs(self):
        rng = rng_for(3, "wm-invariants")
        for _ in range(200):
            n = int(rng.integers(1, 12))
            g = random_graph(n, float(rng.random()), rng)
            scores = np.exp(rng.uniform(0.0, 5.0, size=n))
            w = build_weight_matrix(g, scores)
            check_weight_matrix(w, g, tol=1e-9)

    def test_log_variant_matches_plain(self):
        rng = rng_for(4, "wm-log")
        for _ in range(50):
            n = int(rng.integers(1, 10))
            g = random_graph(n, float(rng.random()), rng)
            log_scores = rng.uniform(0.0, 6.0, size=n)
            plain = build_weight_matrix(g, np.exp(log_scores))
            stable = build_weight_matrix_log(g, log_scores)
            assert np.allclose(plain, stable, rtol=1e-12, atol=1e-15)
            check_weight_matrix(stable, g, tol=1e-9)

    def test_log_variant_survives_huge_exponents(self):
        g = DirectedGraph.complete(3)
        w = build_weight_matrix_log(g, np.array([800.0, 810.0, 805.0]))
        assert np.all(np.isfinite(w))
        assert np.allclose(w.sum(axis=1), 1.0)
        assert w[0, 1] > w[0, 2] > w[0, 0]

    def test_rejects_bad_scores(self):
        g = DirectedGraph.complete(3)
        with pytest.raises(ValueError):
            build_weight_matrix(g, np.array([1.0, np.nan, 1.0]))
        with pytest.raises(ValueError):
            build_weight_matrix(g, np.array([1.0, np.inf, 1.0]))
        with pytest.raises(ValueError):
            build_weight_matrix(g, np.array([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            build_weight_matrix(g, np.ones(2))


def test_explicit_self_loops_are_dropped():
    g = DirectedGraph.from_edges(3, [(0, 0), (0, 1)])
    assert g.edges == frozenset({(0, 1)})


def test_edge_out_of_range_rejected():
    with pytest.raises(ValueError):
        DirectedGraph.from_edges(2, [(0, 2)])


def test_format_edge_list_sorted():
    g = DirectedGraph.from_edges(3, [(2, 1), (0, 1)])
    assert format_edge_list(g) == "0 1\n2 1"
