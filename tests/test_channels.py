"""Bistochastic tuples, restrictions, and the per-subspace expansion ratios."""

import numpy as np
import pytest

from spexp import (
    BistochasticTuple,
    Subspace,
    expansion_ratio_dim,
    expansion_ratio_sp,
    quantum_edge_ratio,
    random_unitary_tuple,
    restriction_singular_values,
    tuple_from_permutations,
    validate_bistochastic,
)
from spexp.errors import (
    DimensionTooLarge,
    InvalidMatrix,
    InvalidPermutation,
    ShapeMismatch,
)
from spexp.channels import check_orthonormal, check_permutation
from spexp.linalg import haar_isometry, haar_unitary

from util import coord, cycle_tuple, identity_tuple, reference_restriction, shift_matrix


def test_validate_identity_tuple_exact():
    t = identity_tuple(4, 3)
    report = validate_bistochastic(t)
    assert report.passed
    assert report.left_deviation == 0.0
    assert report.right_deviation == 0.0


def test_validate_haar_tuple():
    t = random_unitary_tuple(6, 4, seed=5)
    report = validate_bistochastic(t)
    assert max(report.left_deviation, report.right_deviation) <= 1e-10 * t.d * np.sqrt(t.n)


def test_validate_rejects_scaled_identity():
    t = BistochasticTuple((np.eye(3), 2.0 * np.eye(3)))
    assert not validate_bistochastic(t).passed


def test_validate_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        BistochasticTuple((np.eye(3), np.eye(4)))


def test_restrict_identity_vanishes():
    v = coord(4, [0, 2])
    np.testing.assert_allclose(reference_restriction(np.eye(4), v), 0.0, atol=1e-14)


def test_restrict_cycle_shift_blocks():
    # direct matrix product oracle: P S (Id - P) for the 4-cycle shift
    v = coord(4, [0, 1])
    s = shift_matrix(4)
    r = reference_restriction(s, v)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3] = 1.0
    np.testing.assert_allclose(r, expected, atol=1e-14)
    r3 = reference_restriction(np.linalg.matrix_power(s, 3), v)
    expected3 = np.zeros((4, 4), dtype=complex)
    expected3[1, 2] = 1.0
    np.testing.assert_allclose(r3, expected3, atol=1e-14)


def test_restriction_singular_values_match_full_restriction():
    # compressed-row path vs SVD of the full n x n restriction
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(4, 12))
        k = int(rng.integers(1, n // 2 + 1))
        b = haar_unitary(n, rng)
        v = Subspace(haar_isometry(n, k, rng))
        compact = restriction_singular_values(b, v)
        full = np.linalg.svd(reference_restriction(b, v), compute_uv=False)
        np.testing.assert_allclose(np.sort(compact)[::-1][:k], full[:k], atol=1e-12)
        assert np.all(full[k:] <= 1e-12)


def test_sp_ratio_identity_tuple_zero():
    t = identity_tuple(6, 2)
    v = coord(6, [1, 4])
    for p in (1.0, 2.0, 3.5):
        assert expansion_ratio_sp(t, v, p).value == pytest.approx(0.0, abs=1e-14)


def test_sp_ratio_cycle_half_for_all_p():
    t = cycle_tuple(4)
    v = coord(4, [0, 1])
    for p in (1, 2, 3, 4):
        r = expansion_ratio_sp(t, v, p)
        assert r.value == pytest.approx(0.5, abs=1e-12)
        assert r.numerator == pytest.approx(2.0, abs=1e-12)
        assert r.denominator == 4.0


def test_sp_ratio_matches_independent_svd_pipeline():
    # oracle: Schatten powers of the full restriction, summed independently
    t = random_unitary_tuple(8, 2, seed=3)
    v = Subspace(haar_isometry(8, 2, seed=4))
    for p in (1.0, 2.0, 3.0):
        expected = sum(
            np.sum(np.linalg.svd(reference_restriction(b, v), compute_uv=False) ** p)
            for b in t.matrices
        ) / (2 * 2)
        got = expansion_ratio_sp(t, v, p).value
        assert abs(got - expected) <= 1e-10 * max(1.0, expected)


def test_sp_ratio_dimension_guard():
    t = cycle_tuple(4)
    with pytest.raises(DimensionTooLarge):
        expansion_ratio_sp(t, coord(4, [0, 1, 2]), 2)


def test_dim_ratio_identity_zero_and_cycle_half():
    assert expansion_ratio_dim(identity_tuple(4, 2), coord(4, [0])).value == 0.0
    r = expansion_ratio_dim(cycle_tuple(4), coord(4, [0, 1]))
    assert r.value == pytest.approx(0.5, abs=1e-14)
    assert r.numerator == 2.0


def test_dim_ratio_haar_rank_one_restrictions():
    t = random_unitary_tuple(8, 3, seed=12)
    v = Subspace(haar_isometry(8, 1, seed=13))
    r = expansion_ratio_dim(t, v)
    assert r.value == pytest.approx(1.0, abs=1e-14)
    for b in t.matrices:
        s = restriction_singular_values(b, v)
        assert s[0] > 1e-8 * np.sqrt(3)


def test_quantum_edge_ratio_identity_zero():
    assert quantum_edge_ratio(identity_tuple(5, 2), coord(5, [0, 1])).value == 0.0


def test_quantum_edge_ratio_counts_cycle_boundary():
    # |boundary({0,1})| = 2 on the 4-cycle, d|W| = 4
    r = quantum_edge_ratio(cycle_tuple(4), coord(4, [0, 1]))
    assert r.value == pytest.approx(2.0 / 4.0, abs=1e-12)


def test_quantum_edge_equals_schatten_two():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n = int(rng.integers(4, 12))
        d = int(rng.integers(1, 5))
        t = BistochasticTuple(tuple(haar_unitary(n, rng) for _ in range(d)))
        k = int(rng.integers(1, n // 2 + 1))
        v = Subspace(haar_isometry(n, k, rng))
        a = quantum_edge_ratio(t, v).value
        b = expansion_ratio_sp(t, v, 2.0).value
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def test_tuple_from_permutations_builds_cycle_shifts():
    t = tuple_from_permutations([[1, 2, 3, 0], [3, 0, 1, 2]])
    s = shift_matrix(4)
    np.testing.assert_allclose(t.matrices[0], s, atol=0)
    np.testing.assert_allclose(t.matrices[1], s.conj().T, atol=0)
    assert validate_bistochastic(t).left_deviation == 0.0


def test_tuple_from_identity_permutations():
    t = tuple_from_permutations([[0, 1, 2]] * 3)
    for b in t.matrices:
        np.testing.assert_allclose(b, np.eye(3), atol=0)


def test_tuple_entrywise_sum_is_adjacency():
    perms = [[1, 2, 3, 0], [3, 0, 1, 2], [2, 3, 0, 1]]
    t = tuple_from_permutations(perms)
    total = sum(b.real for b in t.matrices)
    expected = np.zeros((4, 4))
    for perm in perms:
        for j, i in enumerate(perm):
            expected[i, j] += 1
    np.testing.assert_allclose(total, expected, atol=0)
    assert np.all(total.sum(axis=0) == 3) and np.all(total.sum(axis=1) == 3)


def test_tuple_from_permutations_rejects_non_bijection():
    with pytest.raises(InvalidPermutation):
        tuple_from_permutations([[0, 0, 1]])


@pytest.mark.parametrize("perm", [[0.5, 1, 2], [True, 0, 2], ["a", 1, 2], ["0", 1, 2], [0, 1, 2e30]])
def test_check_permutation_refuses_non_integral_entries(perm):
    # a cast would read 0.5 as 0 and True as 1, and crash on "a" and 2e30
    with pytest.raises(InvalidPermutation, match="must be integers"):
        check_permutation(perm, 3)
    with pytest.raises(InvalidPermutation):
        tuple_from_permutations([perm])


def test_check_permutation_accepts_integral_floats_and_refuses_nesting():
    assert check_permutation([2.0, 0, np.int32(1)], 3) == [2, 0, 1]
    assert check_permutation(np.array([1, 0]), 2) == [1, 0]
    with pytest.raises(InvalidPermutation):
        check_permutation([[0, 1], [2, 3]], 4)


def test_random_unitary_tuple_scalars_and_reproducibility():
    t = random_unitary_tuple(1, 2, seed=2)
    for b in t.matrices:
        assert abs(abs(b[0, 0]) - 1.0) <= 1e-12
    t1 = random_unitary_tuple(8, 3, seed=1)
    report = validate_bistochastic(t1)
    assert max(report.left_deviation, report.right_deviation) <= 1e-10 * t1.d * np.sqrt(t1.n)
    t2 = random_unitary_tuple(8, 3, seed=1)
    for a, b in zip(t1.matrices, t2.matrices):
        assert np.array_equal(a, b)


def test_subspace_rejects_non_orthonormal_basis():
    with pytest.raises(InvalidMatrix):
        Subspace(np.array([[1.0], [1.0]]))


def test_check_orthonormal_checks_every_basis_of_a_stack():
    stack = np.stack([haar_isometry(6, 2, seed) for seed in range(4)])
    check_orthonormal(stack)
    stack[2, 0, 0] += 1e-6
    with pytest.raises(InvalidMatrix):
        check_orthonormal(stack)


# --- invariants -------------------------------------------------------------


def _random_instance(rng):
    n = int(rng.integers(4, 13))
    d = int(rng.integers(1, 5))
    t = BistochasticTuple(tuple(haar_unitary(n, rng) for _ in range(d)))
    k = int(rng.integers(1, n // 2 + 1))
    v = Subspace(haar_isometry(n, k, rng))
    return t, v


def test_singular_values_bounded_by_sqrt_d():
    rng = np.random.default_rng(99)
    for _ in range(100):
        t, v = _random_instance(rng)
        for b in t.matrices:
            s = restriction_singular_values(b, v)
            assert s[0] <= np.sqrt(t.d) + 1e-8


def test_pointwise_norm_comparison_inequalities():
    # per-subspace forms: ratio_p <= d^((p-q)/2) ratio_q  and
    # ratio_q <= ratio_p^(q/p), both for p >= q >= 1
    rng = np.random.default_rng(101)
    for _ in range(100):
        t, v = _random_instance(rng)
        q_exp, p_exp = sorted(rng.uniform(1.0, 6.0, 2))
        rp = expansion_ratio_sp(t, v, p_exp).value
        rq = expansion_ratio_sp(t, v, q_exp).value
        assert rp <= t.d ** ((p_exp - q_exp) / 2.0) * rq + 1e-9
        assert rq <= rp ** (q_exp / p_exp) + 1e-9


def test_pointwise_rank_relation():
    rng = np.random.default_rng(103)
    for _ in range(100):
        t, v = _random_instance(rng)
        p = float(rng.uniform(1.0, 6.0))
        lhs = expansion_ratio_sp(t, v, p).value
        rhs = t.d ** (p / 2.0) * expansion_ratio_dim(t, v).value
        assert lhs <= rhs + 1e-9


def test_conjugation_covariance():
    rng = np.random.default_rng(107)
    for _ in range(20):
        t, v = _random_instance(rng)
        u = haar_unitary(t.n, rng)
        t_conj = BistochasticTuple(tuple(u @ b @ u.conj().T for b in t.matrices))
        v_conj = Subspace(u @ v.basis)
        p = float(rng.uniform(1.0, 5.0))
        a = expansion_ratio_sp(t, v, p).value
        b = expansion_ratio_sp(t_conj, v_conj, p).value
        assert abs(a - b) <= 1e-9 * max(1.0, abs(a))
