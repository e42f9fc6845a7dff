"""Subspace minimization: coordinate sweep, random sampling, Riemannian descent."""

import numpy as np
import pytest

from spexp import (
    BistochasticTuple,
    SearchConfig,
    build_cycle,
    Subspace,
    expansion_ratio_sp,
    minimize_coordinate,
    minimize_random,
    minimize_riemannian,
    objective_and_gradient,
    random_unitary_tuple,
)
from spexp.errors import (
    InstanceTooLarge,
    InvalidParameters,
    NonSmoothConfiguration,
    NumericalFailure,
)
from spexp import embed, search
from spexp.linalg import haar_isometry, haar_unitary, substream

from util import coord, cycle_tuple, finite_difference_gradient, identity_tuple


def test_coordinate_cycle8_contiguous_arc():
    est = minimize_coordinate(cycle_tuple(8), 2.0, mode="sp")
    assert est.value == pytest.approx(0.25, abs=0)
    assert est.subset == [0, 1, 2, 3]
    assert est.k == 4


def test_coordinate_k4_matching_tuple():
    # three perfect matchings of K_4 as permutations
    perms = [[1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    from spexp import tuple_from_permutations

    t = tuple_from_permutations(perms)
    est = minimize_coordinate(t, 2.0, mode="sp")
    assert est.value == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert len(est.subset) == 2


def test_coordinate_identity_tuple_first_singleton():
    est = minimize_coordinate(identity_tuple(6, 2), 2.0, mode="sp")
    assert est.value == 0.0
    assert est.subset == [0]


def test_coordinate_rejects_large_instances():
    with pytest.raises(InstanceTooLarge):
        minimize_coordinate(identity_tuple(25, 1), 2.0)


def test_coordinate_rejects_unknown_mode():
    with pytest.raises(InvalidParameters):
        minimize_coordinate(cycle_tuple(6), 2.0, mode="foo")


def test_coordinate_witness_recompute():
    t = random_unitary_tuple(6, 2, seed=10)
    est = minimize_coordinate(t, 3.0, mode="sp")
    recomputed = expansion_ratio_sp(t, est.witness, 3.0).value
    assert abs(recomputed - est.value) <= 1e-9 * max(1.0, est.value)


def test_random_identity_tuple_zero():
    cfg = SearchConfig(k=2, samples=10, seed=1)
    est = minimize_random(identity_tuple(6, 2), 2.0, cfg)
    assert est.value == pytest.approx(0.0, abs=1e-12)


def test_random_witness_consistency():
    t = cycle_tuple(4)
    cfg = SearchConfig(k=2, samples=50, seed=3)
    est = minimize_random(t, 2.0, cfg)
    assert est.value >= 0.0
    recomputed = expansion_ratio_sp(t, est.witness, 2.0).value
    assert abs(recomputed - est.value) <= 1e-9 * max(1.0, est.value)


def test_random_prefix_nested_sampling_monotone():
    t = random_unitary_tuple(8, 2, seed=6)
    small = SearchConfig(k=2, samples=100, seed=9)
    large = SearchConfig(k=2, samples=1000, seed=9)
    v_small = minimize_random(t, 2.0, small).value
    v_large = minimize_random(t, 2.0, large).value
    assert v_large <= v_small


def test_random_determinism():
    t = random_unitary_tuple(6, 3, seed=0)
    cfg = SearchConfig(samples=25, seed=11)
    a = minimize_random(t, 1.5, cfg)
    b = minimize_random(t, 1.5, cfg)
    assert a.value == b.value
    assert np.array_equal(a.witness.basis, b.witness.basis)


def test_objective_identity_tuple_smoothing_floor():
    t = identity_tuple(5, 2)
    q = Subspace(haar_isometry(5, 2, seed=4))
    eps = 1e-6
    value, grad = objective_and_gradient(t, q, 1.5, eps)
    assert value <= 2 * 5 * eps ** 0.75 + 1e-15
    assert np.all(np.isfinite(grad))


def test_objective_rejects_nonsmooth_configuration():
    t = identity_tuple(4, 1)
    q = Subspace(haar_isometry(4, 2, seed=1))
    with pytest.raises(NonSmoothConfiguration):
        objective_and_gradient(t, q, 1.5, 0.0)


def test_objective_smoothing_bias_bound():
    # |smoothed - unsmoothed numerator| <= d * n * eps^(p/2) for p <= 2
    rng = np.random.default_rng(14)
    t = BistochasticTuple(tuple(haar_unitary(6, rng) for _ in range(3)))
    v = Subspace(haar_isometry(6, 2, rng))
    for p in (1.2, 2.0):
        eps = 1e-8
        smoothed, _ = objective_and_gradient(t, v, p, eps)
        exact = expansion_ratio_sp(t, v, p).numerator
        assert abs(smoothed - exact) <= 3 * 6 * eps ** (p / 2.0) + 1e-12


def test_gradient_matches_finite_differences_p2():
    rng = np.random.default_rng(15)
    for _ in range(5):
        t = BistochasticTuple(tuple(haar_unitary(6, rng) for _ in range(2)))
        q = haar_isometry(6, 2, rng)
        value, grad = objective_and_gradient(t, q, 2.0, 0.0)
        fd = finite_difference_gradient(
            lambda m: objective_and_gradient(t, m, 2.0, 0.0)[0], q, h=1e-5
        )
        rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
        assert rel <= 1e-5


def test_gradient_matches_finite_differences_p15():
    rng = np.random.default_rng(16)
    for _ in range(5):
        t = BistochasticTuple(tuple(haar_unitary(5, rng) for _ in range(2)))
        q = haar_isometry(5, 2, rng)
        value, grad = objective_and_gradient(t, q, 1.5, 1e-8)
        fd = finite_difference_gradient(
            lambda m: objective_and_gradient(t, m, 1.5, 1e-8)[0], q, h=1e-5
        )
        rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
        assert rel <= 1e-4


def test_riemannian_identity_tuple_zero():
    cfg = SearchConfig(k=2, restarts=2, max_iters=50, seed=5)
    est = minimize_riemannian(identity_tuple(6, 2), 2.0, cfg)
    assert est.value <= 1e-9


def test_riemannian_cycle_beats_coordinate_witness():
    cfg = SearchConfig(k=2, restarts=8, max_iters=150, seed=6)
    est = minimize_riemannian(cycle_tuple(4), 2.0, cfg)
    assert est.value <= 0.5 + 1e-6


def _descent_traces(objective, max_iters):
    """Objective traces of the shared descent engine on each of its callers."""
    if objective == "riemannian":
        # the four restarts minimize_riemannian runs at k=2, seed=7, as one stack
        t = random_unitary_tuple(8, 2, seed=8)
        q0 = np.stack([haar_isometry(8, 2, substream(7, 2, r)) for r in range(4)])
        return search._descend_subspace(t, q0, 2.0, max_iters, 2, range(4))[1]
    target, shape = {
        "lp": (embed.TARGET_LP, (8, 3)),
        "sp": (embed.TARGET_SP, (8, 2, 2)),
    }[objective]
    rng = np.random.default_rng(7)
    x = np.stack([rng.standard_normal(shape) for _ in range(3)])
    return embed._descend_embedding(build_cycle(8), x, 1.5, max_iters, target)[1]


@pytest.mark.parametrize("objective", ["riemannian", "lp", "sp"])
@pytest.mark.parametrize("max_iters", [3, 80])
def test_descent_traces_nonincreasing(objective, max_iters):
    traces = _descent_traces(objective, max_iters)
    assert traces
    assert len(traces) == (4 if objective == "riemannian" else 3)
    for trace in traces:
        assert 1 <= len(trace) <= max_iters + 1
        assert all(b <= a + 1e-15 for a, b in zip(trace, trace[1:]))


def test_riemannian_witness_recompute():
    cfg = SearchConfig(k=2, restarts=3, max_iters=80, seed=9)
    t = random_unitary_tuple(6, 2, seed=20)
    est = minimize_riemannian(t, 1.5, cfg)
    recomputed = expansion_ratio_sp(t, est.witness, 1.5).value
    assert abs(recomputed - est.value) <= 1e-9 * max(1.0, est.value)


def test_estimate_expansion_dispatch():
    # each strategy is the function called; the default k=None sweeps every k
    t = cycle_tuple(8)
    est = minimize_coordinate(t, 2.0, mode="sp")
    assert est.value == pytest.approx(0.25, abs=0)

    riem_cfg = SearchConfig(restarts=16, max_iters=120, seed=1)
    est_r = minimize_riemannian(t, 2.0, riem_cfg)
    assert est_r.value <= 0.25 + 1e-6

    ident = minimize_random(identity_tuple(4, 2), 2.0, SearchConfig(samples=5, seed=0))
    assert ident.value == pytest.approx(0.0, abs=1e-12)


def test_transfer_inequalities_over_shared_candidates_random():
    # both minimize over the identical candidate list (same seed/samples), so
    # the per-subspace norm comparisons transfer to the minima
    t = random_unitary_tuple(8, 3, seed=41)
    cfg = SearchConfig(samples=40, seed=5)
    for p_exp, q_exp in ((4.0, 2.0), (3.0, 1.5), (2.0, 1.0)):
        est_p = minimize_random(t, p_exp, cfg).value
        est_q = minimize_random(t, q_exp, cfg).value
        assert est_p <= t.d ** ((p_exp - q_exp) / 2.0) * est_q + 1e-9
        assert est_q <= est_p ** (q_exp / p_exp) + 1e-9


def test_transfer_inequalities_over_shared_candidates_coordinate():
    t = random_unitary_tuple(8, 2, seed=42)
    for p_exp, q_exp in ((4.0, 2.0), (2.5, 1.0)):
        est_p = minimize_coordinate(t, p_exp, mode="sp").value
        est_q = minimize_coordinate(t, q_exp, mode="sp").value
        assert est_p <= t.d ** ((p_exp - q_exp) / 2.0) * est_q + 1e-9
        assert est_q <= est_p ** (q_exp / p_exp) + 1e-9


def test_search_config_validation():
    for k in (0, -1, "all", "2", 2.5, True):
        with pytest.raises(InvalidParameters):
            SearchConfig(k=k)
    assert SearchConfig().dims(7) == [1, 2, 3]
    assert SearchConfig(k=None).dims(6) == [1, 2, 3]
    assert SearchConfig(k=2).dims(6) == [2]
    assert SearchConfig(k=np.int64(3)).dims(6) == [3]
    with pytest.raises(InvalidParameters):
        SearchConfig(samples=0)
    # counts and seeds are integers, never truncated or read from booleans
    for bad in ({"max_iters": 2.5}, {"samples": True}, {"samples": 2.5}, {"restarts": True},
                {"seed": 1.9}, {"seed": "1"}, {"seed": -1}, {"max_iters": float("inf")}):
        with pytest.raises(InvalidParameters):
            SearchConfig(**bad)
    cfg = SearchConfig(k=2.0, samples=np.int64(3), restarts=4.0, max_iters=np.int32(5), seed=6.0)
    values = (cfg.k, cfg.samples, cfg.restarts, cfg.max_iters, cfg.seed)
    assert values == (2, 3, 4, 5, 6) and {type(v) for v in values} == {int}
    t = random_unitary_tuple(6, 2, seed=1)
    used = minimize_random(t, 2.0, SearchConfig(k=2, samples=np.int64(3))).samples_used
    assert used == 3 and type(used) is int


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid:RuntimeWarning")
def test_riemannian_overflowing_objective_names_the_restart():
    t = BistochasticTuple(random_unitary_tuple(8, 2, 1).matrices * 1e160)
    with pytest.raises(NumericalFailure, match="k=2,r=0"):
        minimize_riemannian(t, 3.0, SearchConfig(k=2, restarts=2, max_iters=5))


def test_riemannian_determinism():
    t = random_unitary_tuple(6, 2, seed=33)
    cfg = SearchConfig(k=2, restarts=3, max_iters=60, seed=12)
    a = minimize_riemannian(t, 2.0, cfg)
    b = minimize_riemannian(t, 2.0, cfg)
    assert a.value == b.value
    assert np.array_equal(a.witness.basis, b.witness.basis)


@pytest.mark.parametrize("field", ["k", "samples", "restarts", "max_iters"])
def test_search_config_counts_name_their_field(field):
    with pytest.raises(InvalidParameters, match=f"^{field} must be an integer >= 1, got 0$"):
        SearchConfig(**{field: 0})
    with pytest.raises(InvalidParameters, match="^seed must be a non-negative integer, got -1$"):
        SearchConfig(seed=-1)
