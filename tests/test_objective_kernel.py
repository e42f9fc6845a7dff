"""The batched k x k Riemannian objective against the per-matrix n x n
reference: the same value and the same tangent-projected gradient at
orthonormal bases, on Haar and permutation tuples; its gradient against
finite differences at general bases; and the reported value of a Riemannian
run recomputed at its witness."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spexp import (
    SearchConfig,
    Subspace,
    expansion_ratio_sp,
    minimize_riemannian,
    random_unitary_tuple,
    tuple_from_permutations,
)
from spexp.errors import InvalidParameters
from spexp.search import _smoothed_objective, objective_and_gradient

from util import finite_difference_gradient, reference_objective_and_gradient, tangent_part

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2**31 - 1)


@st.composite
def tuples(draw, n_min, n_max, d_max):
    n = draw(st.integers(n_min, n_max))
    d = draw(st.integers(1, d_max))
    seed = draw(SEEDS)
    if draw(st.booleans()):
        return random_unitary_tuple(n, d, seed)
    rng = np.random.default_rng(seed)
    return tuple_from_permutations([rng.permutation(n).tolist() for _ in range(d)])


@st.composite
def exponents(draw):
    """(p, epsilon): p in [1, 4] with epsilon 1e-10 or 1e-8, or epsilon 0 at p >= 2."""
    p = draw(st.floats(1.0, 4.0))
    choices = [1e-10, 1e-8] + ([0.0] if p >= 2 else [])
    return p, draw(st.sampled_from(choices))


def _assert_close(x, ref, base, t, p, eps):
    """|x - ref| <= base |ref|, plus the reference's own rounding: its n - k
    null eigenvalues of M M* come out as noise of order n u instead of 0, and
    the smoothing weights (lambda + eps)^(p/2 - 1) amplify that noise for
    p < 2 (by up to 1e5 at p = 1, eps = 1e-10). The k x k kernel has no such
    eigenvalues; at p = 1, eps = 1e-10 its value agrees with the singular
    values of the compressed restriction to about 3e-16 relative, where the
    reference is off by up to about 8e-11."""
    noise = t.d * t.n * np.finfo(float).eps * (eps ** (p / 2.0 - 1.0) if p < 2 else 1.0)
    size = np.linalg.norm(ref)
    assert np.linalg.norm(x - ref) <= base * size + noise * max(1.0, size)


@SETTINGS
@given(tuples(4, 64, 4), exponents(), st.data())
def test_kernel_matches_per_matrix_reference(t, exponent, data):
    p, eps = exponent
    q = Subspace.haar(t.n, data.draw(st.integers(1, t.n // 2)), data.draw(SEEDS)).basis
    ref_value, ref_grad = reference_objective_and_gradient(t, q, p, eps)
    value, grad = objective_and_gradient(t, q, p, eps)
    _assert_close(value, ref_value, 1e-11, t, p, eps)
    _assert_close(tangent_part(q, grad), tangent_part(q, ref_grad), 1e-10, t, p, eps)
    assert _smoothed_objective(t, q, p, eps, False) == value


@settings(max_examples=20, deadline=None, derandomize=True)
@given(tuples(4, 8, 3), st.sampled_from([(2.0, 0.0), (1.5, 1e-8), (3.0, 1e-10)]), st.data())
def test_gradient_exact_off_manifold(t, exponent, data):
    # the formula extends F to every n x k matrix; its gradient terms in Q* Y
    # vanish at orthonormal Q, so only a general Q exercises them
    p, eps = exponent
    rng = np.random.default_rng(data.draw(SEEDS))
    k = data.draw(st.integers(1, t.n // 2))
    q = rng.standard_normal((t.n, k)) + 1j * rng.standard_normal((t.n, k))
    _, grad = objective_and_gradient(t, q, p, eps)
    fd = finite_difference_gradient(lambda m: objective_and_gradient(t, m, p, eps)[0], q)
    assert np.linalg.norm(grad - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(tuples(4, 24, 3), st.floats(1.0, 4.0), st.data())
def test_riemannian_value_is_ratio_at_witness(t, p, data):
    cfg = SearchConfig(
        strategy="riemannian",
        k=data.draw(st.integers(1, t.n // 2)),
        restarts=2,
        max_iters=10,
        seed=data.draw(SEEDS),
    )
    est = minimize_riemannian(t, p, cfg)
    assert est.value == expansion_ratio_sp(t, est.witness, p).value


@pytest.mark.parametrize("epsilon", [-1.0, float("nan"), float("inf")])
def test_objective_rejects_bad_epsilon(epsilon):
    t = random_unitary_tuple(4, 2, 0)
    with pytest.raises(InvalidParameters):
        objective_and_gradient(t, np.eye(4, 2), 2.0, epsilon)
