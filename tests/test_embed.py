"""Embedding ratios, distortion reports, and the expansion estimators."""

import numpy as np
import pytest

from spexp import (
    OptimizerConfig,
    VertexEmbedding,
    build_complete,
    build_cycle,
    build_hypercube,
    cut_oracle_l1,
    distortion,
    distortion_lower_bound,
    edge_expansion_bruteforce,
    embedding_ratio,
    l2_expansion_oracle,
    lp_expansion_estimate,
    metric_ratio,
    random_regular,
    shortest_path_metric,
    sp_expansion_estimate,
)
from spexp import embed
from spexp.embed import TARGET_LP, TARGET_SP
from spexp.graphs import metric_ratio_parts
from spexp.errors import DegenerateEmbedding, InvalidExponent, InvalidParameters, ShapeMismatch


def _random_lp_embedding(rng, n, m, p):
    return VertexEmbedding([rng.standard_normal(m) for _ in range(n)], TARGET_LP, p)


def _random_sp_embedding(rng, n, m, p):
    return VertexEmbedding([rng.standard_normal((m, m)) for _ in range(n)], TARGET_SP, p)


def test_complete_graph_ratio_is_constant():
    # edge sum is (n-1)/n^2 of the ordered pair sum on K_n, for any images:
    # 100 random embeddings across both targets and several exponents
    g = build_complete(4)
    rng = np.random.default_rng(1)
    count = 0
    while count < 100:
        for p in (1.0, 1.7, 2.0, 3.0):
            for maker in (_random_lp_embedding, _random_sp_embedding):
                f = maker(rng, 4, 3, p)
                assert embedding_ratio(g, f) == pytest.approx(
                    (4.0 / 3.0) ** (1.0 / p), rel=1e-12
                )
                count += 1


def test_square_corners_embedding_of_c4():
    corners = [np.array(v, dtype=float) for v in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    f = VertexEmbedding(corners, TARGET_LP, 1.0)
    assert embedding_ratio(build_cycle(4), f) == pytest.approx(1.0, abs=1e-13)


def test_one_hot_embedding_matches_distance_matrix_recomputation():
    # independent oracle: assemble the ratio from the pairwise distance matrix
    g = build_cycle(8)
    f = VertexEmbedding([np.eye(8)[i] for i in range(8)], TARGET_LP, 2.0)
    dist = np.zeros((8, 8))
    for i in range(8):
        for j in range(8):
            dist[i, j] = np.linalg.norm(np.eye(8)[i] - np.eye(8)[j])
    num = sum(
        dist[i, j] ** 2 * g.adjacency[i, j] for i in range(8) for j in range(i + 1, 8)
    ) / g.edge_count()
    den = (dist**2).sum() / 64.0
    assert embedding_ratio(g, f) == pytest.approx((num / den) ** 0.5, rel=1e-12)


def test_embedding_images_are_one_owned_array():
    rng = np.random.default_rng(2)
    for target, shape in ((TARGET_LP, (5, 3)), (TARGET_SP, (5, 3, 3))):
        x = rng.standard_normal(shape)
        for images in (x, list(x)):
            f = VertexEmbedding(images, target, 2.0)
            assert isinstance(f.images, np.ndarray) and f.images.shape == shape
            assert (f.n, f.m) == (5, 3)
            np.testing.assert_array_equal(f.images, x)
            assert not np.shares_memory(f.images, x)
    with pytest.raises(ShapeMismatch):
        VertexEmbedding([np.zeros(2), np.zeros(3)], TARGET_LP, 1.0)
    with pytest.raises(ShapeMismatch):
        VertexEmbedding([np.zeros((2, 2)), np.zeros((3, 3))], TARGET_SP, 1.0)
    for target, images in ((TARGET_LP, np.zeros((4, 2, 2))), (TARGET_SP, np.zeros((4, 2, 3)))):
        with pytest.raises(ShapeMismatch):
            VertexEmbedding(images, target, 1.0)
    with pytest.raises(InvalidParameters):
        VertexEmbedding([], TARGET_LP, 1.0)


def test_embedding_ratio_rejects_constant_map():
    g = build_cycle(4)
    f = VertexEmbedding([np.zeros(2)] * 4, TARGET_LP, 1.0)
    with pytest.raises(DegenerateEmbedding):
        embedding_ratio(g, f)
    for target, shape in ((TARGET_LP, (4, 0)), (TARGET_SP, (4, 0, 0))):  # images of no entries
        with pytest.raises(DegenerateEmbedding):
            embedding_ratio(g, VertexEmbedding(np.zeros(shape), target, 1.0))


@pytest.mark.parametrize("shape", [(7, 7), (8, 9), (64,)])
def test_metric_of_the_wrong_shape_is_refused(shape):
    g = build_cycle(8)
    f = VertexEmbedding(np.arange(8.0)[:, None], TARGET_LP, 1.0)
    with pytest.raises(ShapeMismatch):
        metric_ratio(g, np.ones(shape), 1.0)
    with pytest.raises(ShapeMismatch):
        distortion(f, np.ones(shape))


def test_embedding_ratio_rejects_size_mismatch():
    g = build_cycle(4)
    f = VertexEmbedding([np.zeros(2)] * 5, TARGET_LP, 1.0)
    with pytest.raises(ShapeMismatch):
        embedding_ratio(g, f)


def test_distortion_isometric_square():
    rho = shortest_path_metric(build_cycle(4))
    corners = [np.array(v, dtype=float) for v in [(0, 0), (1, 0), (1, 1), (0, 1)]]
    report = distortion(VertexEmbedding(corners, TARGET_LP, 1.0), rho)
    assert report.D == pytest.approx(1.0, abs=1e-12)
    scaled = [17.0 * c for c in corners]
    report_scaled = distortion(VertexEmbedding(scaled, TARGET_LP, 1.0), rho)
    assert report_scaled.D == pytest.approx(report.D, rel=1e-12)


def test_distortion_reports_coincident_images():
    rho = shortest_path_metric(build_cycle(4))
    f = VertexEmbedding([np.array([v], dtype=float) for v in (0, 1, 2, 1)], TARGET_LP, 1.0)
    report = distortion(f, rho)
    assert report.infinite
    assert report.D == np.inf
    assert report.offending_pair == (1, 3)


def test_distortion_times_metric_ratio_dominates_embedding_ratio():
    # finite transfer bound: R_f <= D * R_rho
    rng = np.random.default_rng(3)
    for g in (build_cycle(6), build_hypercube(3), build_complete(5)):
        rho = shortest_path_metric(g)
        for p in (1.0, 2.0):
            for _ in range(10):
                f = _random_lp_embedding(rng, g.n, 4, p)
                report = distortion(f, rho)
                if not np.isfinite(report.D):
                    continue
                r_f = embedding_ratio(g, f)
                r_rho = metric_ratio(g, rho, p)
                assert r_f <= report.D * r_rho + 1e-9


FAST = OptimizerConfig(restarts=4, max_iters=200, seed=0)


@pytest.mark.parametrize(
    "bad",
    [
        {"restarts": 1.5},
        {"restarts": True},
        {"max_iters": 0},
        {"seed": 2.5},
        {"restarts": -1},
        {"seed": -1},
    ],
)
def test_optimizer_config_refuses_bad_counts(bad):
    with pytest.raises(InvalidParameters):
        OptimizerConfig(**bad)


def test_optimizer_config_stores_integral_values_as_ints():
    cfg = OptimizerConfig(restarts=np.int64(2), max_iters=3.0, seed=np.int32(1))
    assert [type(v) for v in (cfg.restarts, cfg.max_iters, cfg.seed)] == [int] * 3


def test_lp_estimate_c4_p1():
    est = lp_expansion_estimate(build_cycle(4), 1.0, 4, FAST)
    assert 1.0 - 1e-9 <= est.value <= 1.15


def test_lp_estimate_c4_p2():
    est = lp_expansion_estimate(build_cycle(4), 2.0, 4, FAST)
    assert 1.0 - 1e-9 <= est.value <= 1.05


def test_lp_estimate_k5_constant():
    for p in (1.0, 2.0, 3.0):
        est = lp_expansion_estimate(build_complete(5), p, 3, FAST)
        assert est.value == pytest.approx((5.0 / 4.0) ** (1.0 / p), abs=1e-6)


@pytest.mark.parametrize("p", [0.5, float("nan"), float("inf")])
def test_lp_estimate_rejects_bad_exponent(p):
    with pytest.raises(InvalidExponent):
        lp_expansion_estimate(build_cycle(4), p, 2, FAST)


def test_lp_estimate_never_beats_oracles():
    for g in (build_cycle(5), build_cycle(8), build_hypercube(3), build_complete(6)):
        h1, _ = cut_oracle_l1(g)
        est1 = lp_expansion_estimate(g, 1.0, 4, FAST)
        assert est1.value >= h1 - 1e-9
        h2 = l2_expansion_oracle(g)
        est2 = lp_expansion_estimate(g, 2.0, 4, FAST)
        assert est2.value >= h2 - 1e-9


def test_lp_witness_consistency():
    g = build_hypercube(3)
    est = lp_expansion_estimate(g, 1.5, 4, FAST)
    assert embedding_ratio(g, est.witness) == pytest.approx(est.value, rel=1e-9)


def test_sp_estimate_k4_constant():
    for p in (1.5, 2.0):
        est = sp_expansion_estimate(build_complete(4), p, 3, FAST)
        assert est.value == pytest.approx((4.0 / 3.0) ** (1.0 / p), abs=1e-6)


def test_sp_estimate_c4_p2_matches_l2():
    est = sp_expansion_estimate(build_cycle(4), 2.0, 3, FAST)
    assert abs(est.value - 1.0) <= 0.05


def test_sp_estimate_bounded_by_lp_estimate():
    # diagonal matrices embed l_p isometrically into the Schatten-p class
    for g in (build_cycle(6), build_hypercube(2)):
        lp_est = lp_expansion_estimate(g, 1.5, 3, FAST)
        sp_est = sp_expansion_estimate(g, 1.5, 3, FAST)
        assert sp_est.value <= lp_est.value + 1e-6


def test_sp_witness_consistency():
    g = build_cycle(5)
    est = sp_expansion_estimate(g, 2.0, 3, FAST)
    assert embedding_ratio(g, est.witness) == pytest.approx(est.value, rel=1e-9)


def test_distortion_lower_bound_exact_cases():
    c8 = build_cycle(8)
    h1, _ = cut_oracle_l1(c8)
    assert h1 == pytest.approx(0.5, abs=0)
    assert distortion_lower_bound(c8, 1.0, h1) == pytest.approx(1.0, abs=1e-12)

    k4 = build_complete(4)
    h1_k4, _ = cut_oracle_l1(k4)
    assert h1_k4 == pytest.approx(4.0 / 3.0, abs=1e-15)
    assert distortion_lower_bound(k4, 1.0, h1_k4) == pytest.approx(1.0, abs=1e-12)


# each quantity counts undirected edges: on a directed graph it read only the
# adjacency above the diagonal, so it depended on the vertex labels
_NEED_SYMMETRIC = {
    "edge_expansion_bruteforce": edge_expansion_bruteforce,
    "cut_oracle_l1": cut_oracle_l1,
    "metric_ratio_parts": lambda g: metric_ratio_parts(g, shortest_path_metric(g), 2.0),
    "metric_ratio": lambda g: metric_ratio(g, shortest_path_metric(g), 2.0),
    "distortion_lower_bound": lambda g: distortion_lower_bound(g, 2.0, 0.5),
    "embedding_ratio": lambda g: embedding_ratio(
        g, VertexEmbedding(np.arange(g.n, dtype=float)[:, None], TARGET_LP, 2.0)
    ),
    "l2_expansion_oracle": l2_expansion_oracle,
    "lp_expansion_estimate": lambda g: lp_expansion_estimate(g, 2.0, 3),
    "sp_expansion_estimate": lambda g: sp_expansion_estimate(g, 2.0, 2),
}


@pytest.mark.parametrize("name", sorted(_NEED_SYMMETRIC))
def test_directed_graphs_are_refused(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a descent ran on a directed graph")

    monkeypatch.setattr(embed, "descend", refuse)
    g = random_regular(10, 3, 2, symmetric=False, allow_loops=False)
    with pytest.raises(InvalidParameters, match="needs a symmetric graph"):
        _NEED_SYMMETRIC[name](g)
