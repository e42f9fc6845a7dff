"""The lock-step descent engine against the one-start loop in util.py: every
start of a stack ends at the point, with the trace, that a descent from it
alone reaches, bit for bit; and the stacked random candidates give the
value and witness of scoring them one at a time."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spexp import Subspace, embed, expansion_ratio_sp, minimize_random, minimize_riemannian
from spexp import linalg, lp_expansion_estimate, random_regular, random_unitary_tuple, search
from spexp import sp_expansion_estimate
from spexp.errors import NumericalFailure
from spexp.embed import TARGET_LP, TARGET_SP, OptimizerConfig
from spexp.linalg import haar_isometry, substream
from spexp.search import SearchConfig, descend

from util import (
    reference_best_of_starts,
    reference_descend,
    reference_embedding_descent,
    reference_random_search,
    reference_subspace_descent,
)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

# A toy objective on R^4 for the engine alone: sum_a C[a] y[a]^2. Column 0
# carries a tag the objective ignores: +1 descends along the gradient, -1
# climbs, so no step of that start is ever accepted. The retraction refuses
# trial points outside a ball, which forces backtracking.
C = np.array([0.0, 1.0, 3.0, 10.0])
RADIUS = 10.0


def _toy_value(y):
    return (C * y**2).sum(axis=-1)


def _toy_direction(y):
    d = y[..., :1] * (2.0 * C * y)
    return d, (d**2).sum(axis=-1)


def _toy_feasible(y):
    return np.sqrt((y[..., 1:] ** 2).sum(axis=-1)) <= RADIUS


def _toy_evaluate(y):
    return (_toy_value(y), *_toy_direction(y))


def _toy_stack(x, max_iters):
    return descend(
        x, _toy_evaluate(x), _toy_evaluate, lambda y: (y.copy(), _toy_feasible(y)),
        initial_step=1.0, grad_tol=1e-9, max_iters=max_iters,
    )


def _toy_solo(x, max_iters):
    def slope_at(y):
        d, g2 = _toy_direction(y)
        return lambda: (d, float(g2))

    def evaluate(y):
        return float(_toy_value(y)), slope_at(y)

    return reference_descend(
        x, float(_toy_value(x)), slope_at(x), evaluate,
        lambda y: y if _toy_feasible(y) else None,
        initial_step=1.0, grad_tol=1e-9, max_iters=max_iters,
    )


def _assert_solo(x_fin, traces, solo):
    """Each start's final point and trace equal its solo run; returns the
    solo stop reasons."""
    assert len(traces) == len(solo)
    for got_x, got_trace, (want_x, want_trace, _) in zip(x_fin, traces, solo):
        assert np.array_equal(got_x, want_x)
        assert got_trace == want_trace
    return [reason for _, _, reason in solo]


def test_lockstep_starts_that_stop_for_different_reasons():
    x = np.array([
        [1.0, 0.0, 0.0, 0.0],  # at the minimum: gradient tolerance at once
        [-1.0, 2.0, 1.0, 0.5],  # climbs: no step accepted
        [1.0, 2.0, 1.0, 0.5],  # descends: retraction refusals, then max_iters
        [1.0, 0.0, 1e-12, 0.0],  # near the minimum: gradient tolerance later
        [1.0, 3.0, -2.0, 1.0],
    ])
    x_fin, traces = _toy_stack(x, 6)
    reasons = _assert_solo(x_fin, traces, [_toy_solo(row, 6) for row in x])
    assert reasons == ["grad_tol", "no_step", "max_iters", "grad_tol", "max_iters"]
    assert np.array_equal(x_fin[:2], x[:2]) and traces[1] == [_toy_value(x[1])]


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 30), st.integers(0, 2**31 - 1))
def test_lockstep_toy_descents_equal_solo_runs(starts, max_iters, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((starts, 4)) * rng.choice([1e-6, 1.0, 4.0], (starts, 1))
    x[:, 0] = rng.choice([-1.0, 1.0], starts)
    x_fin, traces = _toy_stack(x, max_iters)
    _assert_solo(x_fin, traces, [_toy_solo(row, max_iters) for row in x])


def test_descend_refuses_a_non_finite_trial_value():
    x = np.array([[1.0, 2.0, 1.0, 0.5]])

    def evaluate(y):
        return (np.full(len(y), np.inf), *_toy_direction(y))

    with pytest.raises(NumericalFailure, match="non-finite objective during line search"):
        descend(x, _toy_evaluate(x), evaluate, lambda y: (y, np.ones(len(y), dtype=bool)),
                initial_step=1.0, grad_tol=1e-9, max_iters=5)


def _embedding_starts(g, target, m, p):
    """The normalized starts of an estimate and one start of coincident
    images, which normalization drops."""
    cfg = OptimizerConfig(restarts=2, seed=5)
    inits = embed._lp_init_points(g, m, cfg)
    if target == TARGET_SP:
        rng = np.random.default_rng(9)
        inits = [rng.standard_normal((g.n, m, m)) for _ in range(3)]
    inits.insert(2, np.ones_like(inits[0]))
    x, ok = embed._normalize(np.array(inits), p, embed._POWERS[target])
    assert ok.tolist() == [True, True, False] + [True] * (len(inits) - 3)
    return x[ok]


@pytest.mark.parametrize("entries", [None, 450, 60])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
@pytest.mark.parametrize("target", [TARGET_LP, TARGET_SP])
def test_embedding_stacks_equal_solo_descents(monkeypatch, target, p, entries):
    # entries=450: blocks of two starts; entries=60: one start and a few rows
    if entries is not None:
        monkeypatch.setattr(embed, "_PAIR_ENTRIES", entries)
    g = random_regular(10, 4, 3)
    x = _embedding_starts(g, target, 2, p)
    x_fin, traces = embed._descend_embedding(g, x, p, 12, target)
    _assert_solo(x_fin, traces, [reference_embedding_descent(g, s, p, 12, target) for s in x])


def test_embedding_stack_whose_starts_stop_for_different_reasons():
    # at p = 2 the spectral start of m = 1 is stationary, one sweep-cut start
    # runs out of steps, and the others reach max_iters
    g = random_regular(10, 4, 3)
    x = _embedding_starts(g, TARGET_LP, 1, 2.0)
    x_fin, traces = embed._descend_embedding(g, x, 2.0, 300, TARGET_LP)
    solo = [reference_embedding_descent(g, s, 2.0, 300, TARGET_LP) for s in x]
    reasons = _assert_solo(x_fin, traces, solo)
    assert reasons[:3] == ["grad_tol", "max_iters", "no_step"]


def test_best_of_starts_counts_only_the_starts_it_descends():
    g = random_regular(10, 4, 3)
    rng = np.random.default_rng(2)
    inits = [rng.standard_normal((10, 2)), np.zeros((10, 2)), rng.standard_normal((10, 2))]
    est = embed._best_of_starts(g, inits, 1.5, OptimizerConfig(max_iters=5), TARGET_LP)
    assert est.starts == 2 and est.iterations <= 10


def test_best_of_starts_refuses_when_every_start_coincides():
    g = random_regular(10, 4, 3)
    inits = [np.ones((10, 2)), np.zeros((10, 2)), np.full((10, 2), -3.0)]
    with pytest.raises(NumericalFailure, match="no usable starting point"):
        embed._best_of_starts(g, inits, 1.5, OptimizerConfig(max_iters=5), TARGET_LP)


def _assert_same_estimate(got, want):
    assert repr(got.value) == repr(want.value)
    assert np.array_equal(got.witness.images, want.witness.images)
    assert (got.starts, got.iterations) == (want.starts, want.iterations)


@pytest.mark.parametrize("split", [None, "rows", "starts"])
@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("target", [TARGET_LP, TARGET_SP])
def test_best_of_starts_equals_scoring_one_candidate_at_a_time(monkeypatch, target, m, split):
    g = random_regular(10, 4, 3)
    cfg = OptimizerConfig(restarts=2, max_iters=15, seed=5)
    inits = embed._lp_init_points(g, m, cfg)
    if target == TARGET_SP:
        rng = np.random.default_rng(9)
        inits = [rng.standard_normal((g.n, m, m)) for _ in range(3)]
    inits.insert(1, np.ones_like(inits[0]))  # dropped by normalization
    size = inits[0].size  # the entries of one start
    # rows: blocks of three rows of one start; starts: blocks of three whole starts
    if split is not None:
        monkeypatch.setattr(embed, "_PAIR_ENTRIES", 3 * size * (g.n if split == "starts" else 1))
    got = embed._best_of_starts(g, inits, 1.5, cfg, target)
    _assert_same_estimate(got, reference_best_of_starts(g, inits, 1.5, cfg, target))
    assert got.starts == len(inits) - 1
    assert (got.witness.target, got.witness.p) == (target, 1.5)


@pytest.mark.parametrize("target", [TARGET_LP, TARGET_SP])
def test_best_of_starts_earlier_of_equal_starts_wins(target):
    # -a ties a at every candidate: it has the same pair powers, and its
    # descent is the negated descent of a, so the start given first wins
    g = random_regular(10, 4, 3)
    a = np.random.default_rng(4).standard_normal((10, 2) if target == TARGET_LP else (10, 2, 2))
    cfg = OptimizerConfig(max_iters=10)
    first = embed._best_of_starts(g, [a, -a], 1.5, cfg, target)
    second = embed._best_of_starts(g, [-a, a], 1.5, cfg, target)
    _assert_same_estimate(first, reference_best_of_starts(g, [a, -a], 1.5, cfg, target))
    assert repr(first.value) == repr(second.value)
    assert np.array_equal(first.witness.images, -second.witness.images)
    assert not np.array_equal(first.witness.images, second.witness.images)


@pytest.mark.parametrize(
    "estimate, passes", [(lp_expansion_estimate, 1), (sp_expansion_estimate, 2)]
)
def test_an_estimate_scores_its_candidates_in_one_pass_and_wraps_only_the_winner(
    monkeypatch, estimate, passes
):
    # sp_expansion_estimate runs the l_p estimate first: two passes, two winners
    calls = {"_pair_powers": 0, "VertexEmbedding": 0}

    def counting(name):
        inner = getattr(embed, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(embed, name, wrapper)

    counting("_pair_powers")
    counting("VertexEmbedding")
    est = estimate(random_regular(10, 4, 3), 1.5, 2, OptimizerConfig(restarts=3, max_iters=5))
    assert calls == {"_pair_powers": passes, "VertexEmbedding": passes}
    assert est.starts > 1


@pytest.mark.parametrize("entries", [None, 100])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_riemannian_stacks_equal_solo_descents(monkeypatch, p, entries):
    # entries=100: the estimate descends its restarts in stacks of two
    if entries is not None:
        monkeypatch.setattr(linalg, "BATCH_ENTRIES", entries)
    t = random_unitary_tuple(8, 3, seed=5)
    cfg = SearchConfig(k=2, restarts=4, max_iters=12, seed=4)
    q0 = np.stack([haar_isometry(8, 2, substream(cfg.seed, 2, r)) for r in range(4)])
    q_fin, traces = search._descend_subspace(t, q0, p, cfg.max_iters, 2, range(4))
    solo = [reference_subspace_descent(t, q, p, search.EPSILON, cfg.max_iters) for q in q0]
    _assert_solo(q_fin, traces, solo)
    # the estimate keeps the first of the smallest exact ratios
    est = minimize_riemannian(t, p, cfg)
    values = [expansion_ratio_sp(t, Subspace(q), p).value for q, _, _ in solo]
    best = int(np.argmin(values))
    assert est.value == values[best] and np.array_equal(est.witness.basis, solo[best][0])
    assert est.iterations == sum(len(trace) - 1 for _, trace, _ in solo)


@pytest.mark.parametrize("entries", [None, 1, 150])
@pytest.mark.parametrize("k", [None, 2])
def test_random_candidate_stacks_equal_one_at_a_time(monkeypatch, k, entries):
    # entries=1: one candidate a stack; entries=150: stacks of one to three
    if entries is not None:
        monkeypatch.setattr(linalg, "BATCH_ENTRIES", entries)
    t = random_unitary_tuple(8, 3, seed=11)
    cfg = SearchConfig(k=k, samples=7, seed=2)
    for p in (1.5, 2.0, 3.0):
        est = minimize_random(t, p, cfg)
        value, best_k, basis = reference_random_search(t, p, cfg)
        assert (est.value, est.k) == (value, best_k)
        assert np.array_equal(est.witness.basis, basis)


def test_riemannian_makes_one_objective_call_per_round(monkeypatch):
    # the objective sees each stack of restarts once, then in every
    # line-search round each retracted trial row, accepted or not, once;
    # every call smooths with the one constant the embeddings use too
    seen, tried, smoothing = [], [], set()
    objective, retract = search.objective_and_gradient, search.orthonormalize

    def counted_objective(t, q, p, epsilon):
        seen.append(len(q))
        smoothing.add(epsilon)
        return objective(t, q, p, epsilon)

    def counted_retract(y):
        tried.append(len(y))
        return retract(y)

    monkeypatch.setattr(search, "objective_and_gradient", counted_objective)
    monkeypatch.setattr(search, "orthonormalize", counted_retract)
    cfg = SearchConfig(restarts=3, max_iters=30, seed=5)
    est = minimize_riemannian(random_unitary_tuple(8, 3, seed=2), 1.5, cfg)
    stacks = len(cfg.dims(8))
    assert len(seen) == stacks + len(tried)
    assert sum(seen) == stacks * cfg.restarts + sum(tried)
    assert sum(tried) > est.iterations  # some trial rows were rejected
    assert smoothing == {search.EPSILON} and embed.EPSILON is search.EPSILON
