"""Graph builders, Hall decomposition, exact expansion, metrics, cut oracle."""

import numpy as np
import pytest

from spexp import (
    build_complete,
    build_cycle,
    build_hypercube,
    cut_oracle_l1,
    decompose_permutations,
    edge_expansion_bruteforce,
    metric_ratio,
    minimize_coordinate,
    random_regular,
    shortest_path_metric,
    tuple_from_permutations,
)
from spexp.errors import (
    DisconnectedGraph,
    InstanceTooLarge,
    InvalidDimension,
    InvalidExponent,
    InvalidParameters,
    NotRegular,
)
from spexp.graphs import RegularGraph, is_connected, metric_ratio_parts


def _rebuild_adjacency(perms, n):
    a = np.zeros((n, n), dtype=np.int64)
    for perm in perms:
        for j, i in enumerate(perm):
            a[i, j] += 1
    return a


def test_build_cycle_adjacency():
    g = build_cycle(4)
    expected = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        expected[i, (i + 1) % 4] = 1
        expected[i, (i - 1) % 4] = 1
    np.testing.assert_array_equal(g.adjacency, expected)
    assert g.d == 2


def test_build_cycle_rejects_small():
    with pytest.raises(InvalidParameters):
        build_cycle(2)


def test_build_complete():
    g = build_complete(4)
    assert g.d == 3
    assert g.edge_count() == 6
    np.testing.assert_array_equal(np.diag(g.adjacency), 0)


def test_build_hypercube():
    g = build_hypercube(3)
    assert g.n == 8 and g.d == 3
    assert np.all(g.adjacency.sum(axis=1) == 3)
    assert g.edge_count() == 12


def test_random_regular_row_sums():
    g = random_regular(10, 4, seed=5)
    assert np.all(g.adjacency.sum(axis=1) == 4)
    assert np.all(g.adjacency.sum(axis=0) == 4)
    assert np.array_equal(g.adjacency, g.adjacency.T)


def test_random_regular_odd_degree_and_loopfree():
    g = random_regular(12, 5, seed=8, allow_loops=False)
    assert np.all(g.adjacency.sum(axis=1) == 5)
    assert np.trace(g.adjacency) == 0
    h = random_regular(9, 3, seed=8)  # odd n, odd d needs loops
    assert np.all(h.adjacency.sum(axis=1) == 3)


def test_regular_graph_rejects_bad_sums():
    a = np.array([[0, 1], [1, 1]])
    with pytest.raises(NotRegular):
        RegularGraph(2, 1, a, symmetric=True)


def test_decompose_cycle_reconstructs():
    g = build_cycle(4)
    perms = decompose_permutations(g)
    assert len(perms) == 2
    np.testing.assert_array_equal(_rebuild_adjacency(perms, 4), g.adjacency)


def test_decompose_triangle_into_three_cycles():
    g = build_complete(3)
    perms = decompose_permutations(g)
    assert len(perms) == 2
    np.testing.assert_array_equal(_rebuild_adjacency(perms, 3), g.adjacency)
    for perm in perms:  # no fixed points possible on a loop-free graph
        assert all(perm[j] != j for j in range(3))


def test_decompose_random_regular_at_scale():
    g = random_regular(50, 6, seed=2)
    perms = decompose_permutations(g)
    assert len(perms) == 6
    np.testing.assert_array_equal(_rebuild_adjacency(perms, 50), g.adjacency)


def test_decompose_reconstruction_sweep():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(6, 60))
        d = int(rng.integers(2, 9))
        g = random_regular(n, d, seed=int(rng.integers(0, 2**31)), symmetric=bool(rng.integers(0, 2)))
        perms = decompose_permutations(g)
        np.testing.assert_array_equal(_rebuild_adjacency(perms, n), g.adjacency)


def test_edge_expansion_cycle8():
    value, witness = edge_expansion_bruteforce(build_cycle(8))
    assert value == pytest.approx(0.25, abs=0)
    assert witness == [0, 1, 2, 3]


def test_edge_expansion_k4():
    value, witness = edge_expansion_bruteforce(build_complete(4))
    assert value == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert len(witness) == 2


def test_edge_expansion_hypercube():
    value, witness = edge_expansion_bruteforce(build_hypercube(3))
    assert value == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert len(witness) == 4


def test_edge_expansion_too_large():
    with pytest.raises(InstanceTooLarge):
        edge_expansion_bruteforce(random_regular(30, 4, seed=1))


def test_exact_sweeps_reject_one_vertex():
    g = random_regular(1, 2, seed=0)  # one vertex carrying two loops
    for sweep in (edge_expansion_bruteforce, cut_oracle_l1):
        with pytest.raises(InvalidDimension):
            sweep(g)


def test_shortest_path_metric_values():
    rho = shortest_path_metric(build_cycle(8))
    assert rho.dist[0, 4] == 4.0
    rho_k4 = shortest_path_metric(build_complete(4))
    assert rho_k4.dist[0, 3] == 1.0
    rho_q3 = shortest_path_metric(build_hypercube(3))
    assert rho_q3.dist[0b000, 0b111] == 3.0
    np.testing.assert_array_equal(rho.dist, rho.dist.T)
    np.testing.assert_array_equal(np.diag(rho.dist), 0.0)


def test_shortest_path_metric_disconnected():
    a = np.zeros((4, 4), dtype=np.int64)
    a[0, 1] = a[1, 0] = 1
    a[2, 3] = a[3, 2] = 1
    g = RegularGraph(4, 1, a, symmetric=True)
    with pytest.raises(DisconnectedGraph):
        shortest_path_metric(g)
    assert not is_connected(g)


def test_metric_triangle_inequality_spot_check():
    rng = np.random.default_rng(4)
    for g in (build_cycle(9), build_hypercube(3), random_regular(12, 4, seed=3)):
        if not is_connected(g):
            continue
        rho = shortest_path_metric(g).dist
        for _ in range(50):
            i, j, k = rng.integers(0, g.n, size=3)
            assert rho[i, j] <= rho[i, k] + rho[k, j]


def test_metric_ratio_cycle8():
    # BFS oracle: ordered-pair distance sum on C_8 is 8 * 16 = 128
    g = build_cycle(8)
    rho = shortest_path_metric(g)
    assert rho.dist.sum() == 128.0
    num, den = metric_ratio_parts(g, rho, 1.0)
    assert num == 1.0
    assert metric_ratio(g, rho, 1.0) == pytest.approx(0.5, abs=1e-15)


def test_metric_ratio_hypercube():
    g = build_hypercube(3)
    rho = shortest_path_metric(g)
    assert rho.dist.sum() == 96.0  # 8 vertices x sum 12 each
    num, _ = metric_ratio_parts(g, rho, 1.0)
    assert num == 1.0
    assert metric_ratio(g, rho, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_metric_ratio_complete_any_p():
    g = build_complete(4)
    rho = shortest_path_metric(g)
    for p in (1.0, 2.0, 3.0):
        assert metric_ratio(g, rho, p) == pytest.approx((4.0 / 3.0) ** (1.0 / p), abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.5, float("nan"), float("inf")])
def test_metric_ratio_rejects_bad_exponent(p):
    g = build_cycle(6)
    rho = shortest_path_metric(g)
    with pytest.raises(InvalidExponent):
        metric_ratio_parts(g, rho, p)
    with pytest.raises(InvalidExponent):
        metric_ratio(g, rho, p)


def test_cut_oracle_values():
    v_c4, w_c4 = cut_oracle_l1(build_cycle(4))
    assert v_c4 == pytest.approx(1.0, abs=0)
    v_k4, _ = cut_oracle_l1(build_complete(4))
    assert v_k4 == pytest.approx(4.0 / 3.0, abs=1e-15)
    v_c8, w_c8 = cut_oracle_l1(build_cycle(8))
    assert v_c8 == pytest.approx(0.5, abs=0)
    assert w_c8 == [0, 1, 2, 3]


def test_cut_oracle_dominates_edge_expansion_loopfree():
    # eq-style comparison of the two exact oracles on loop-free instances
    graphs = [build_cycle(5), build_cycle(8), build_complete(5), build_hypercube(3)]
    rng = np.random.default_rng(55)
    for _ in range(10):
        n = int(rng.integers(4, 11))
        d = int(rng.integers(2, 5))
        if (n * d) % 2 == 1:
            d += 1
        g = random_regular(n, d, seed=int(rng.integers(0, 2**31)), allow_loops=False)
        if is_connected(g):
            graphs.append(g)
    for g in graphs:
        h_l1, _ = cut_oracle_l1(g)
        h, _ = edge_expansion_bruteforce(g)
        assert h_l1 >= h - 1e-12


def test_pipeline_consistency_graph_to_tuple():
    # graph -> permutations -> tuple -> coordinate minimum == brute force
    for g in (build_cycle(8), build_complete(4), build_hypercube(3)):
        perms = decompose_permutations(g)
        t = tuple_from_permutations(perms)
        h, _ = edge_expansion_bruteforce(g)
        est_q = minimize_coordinate(t, 2.0, mode="Q")
        est_sp = minimize_coordinate(t, 2.0, mode="sp")
        assert abs(est_q.value - h) <= 1e-12
        assert abs(est_sp.value - h) <= 1e-12
