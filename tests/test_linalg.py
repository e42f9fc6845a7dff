"""Factorizations, Schatten norms, and random orthonormal objects."""

import numpy as np
import pytest

from spexp import (
    haar_unitary,
    orthonormalize,
    schatten_norm,
    schatten_norm_pow,
    singular_values,
    svd,
)
from spexp.errors import InvalidDimension, InvalidExponent, InvalidMatrix, RankDeficient
from spexp.linalg import haar_isometry

from util import random_complex


def test_svd_diagonal_values_sorted():
    spec = svd(np.diag([3.0, 4.0]))
    np.testing.assert_allclose(spec.values, [4.0, 3.0])


def test_svd_zero_matrix():
    spec = svd(np.zeros((3, 3)))
    np.testing.assert_allclose(spec.values, [0.0, 0.0, 0.0])


def test_svd_permutation_matrix_is_unitary():
    spec = svd(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(spec.values, [1.0, 1.0])


def test_svd_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        svd(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        svd(np.array([[np.inf + 0j, 0.0], [0.0, 1.0]]))


def test_svd_reconstruction_residual_bound():
    # contract: ||M - U diag(s) W*||_F <= 1e-10 * max(1, s_max), orthonormal factors
    rng = np.random.default_rng(42)
    for _ in range(1000):
        rows = int(rng.integers(1, 65))
        cols = int(rng.integers(1, 65))
        m = random_complex(rng, rows, cols) * float(rng.uniform(0.1, 10.0))
        spec = svd(m)
        smax = spec.values[0] if spec.values.size else 0.0
        recon = spec.left @ np.diag(spec.values) @ spec.right.conj().T
        assert np.linalg.norm(m - recon) <= 1e-10 * max(1.0, smax)
        k = spec.values.size
        assert np.linalg.norm(spec.left.conj().T @ spec.left - np.eye(k)) <= 1e-10 * max(1.0, smax)
        assert np.linalg.norm(spec.right.conj().T @ spec.right - np.eye(k)) <= 1e-10 * max(1.0, smax)
        assert np.all(np.diff(spec.values) <= 0) and np.all(spec.values >= 0)


def test_schatten_diagonal_p1_p2():
    m = np.diag([3.0, 4.0])
    assert schatten_norm(m, 1) == pytest.approx(7.0, abs=1e-12)
    assert schatten_norm(m, 2) == pytest.approx(5.0, abs=1e-12)


def test_schatten_2_matches_entrywise_frobenius():
    # independent oracle: the Frobenius norm computed entrywise
    rng = np.random.default_rng(7)
    for _ in range(100):
        n = int(rng.integers(1, 20))
        m = random_complex(rng, n, int(rng.integers(1, 20)))
        fro = float(np.sqrt(np.sum(np.abs(m) ** 2)))
        assert abs(schatten_norm(m, 2) - fro) <= 1e-10 * max(1.0, fro)


def test_schatten_rejects_p_below_one():
    with pytest.raises(InvalidExponent):
        schatten_norm(np.eye(2), 0.5)
    with pytest.raises(InvalidExponent):
        schatten_norm_pow(np.eye(2), 0.999)


def test_schatten_pow_monotone_when_sigma_at_most_one():
    # sigma <= 1 implies sigma^p <= sigma^q for p >= q
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(2, 12))
        m = random_complex(rng, n, n)
        m = m / singular_values(m)[0]  # scale so sigma_max = 1
        p, q = sorted(rng.uniform(1.0, 6.0, 2))[::-1]
        assert schatten_norm_pow(m, p) <= schatten_norm_pow(m, q) + 1e-12


def test_schatten_unitary_invariance():
    rng = np.random.default_rng(13)
    for trial in range(50):
        n = int(rng.integers(2, 16))
        m = random_complex(rng, n, n)
        u = haar_unitary(n, rng)
        w = haar_unitary(n, rng)
        p = float(rng.uniform(1.0, 5.0))
        a = schatten_norm(u @ m @ w, p)
        b = schatten_norm(m, p)
        assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_haar_unitary_scalar_has_unit_modulus():
    u = haar_unitary(1, seed=3)
    assert abs(abs(u[0, 0]) - 1.0) <= 1e-12


def test_haar_unitary_unitarity():
    u = haar_unitary(8, seed=7)
    assert np.linalg.norm(u.conj().T @ u - np.eye(8)) <= 1e-10


def test_haar_unitary_deterministic_and_distinct():
    a = haar_unitary(6, seed=123)
    b = haar_unitary(6, seed=123)
    assert np.array_equal(a, b)
    for s in range(100):
        u1 = haar_unitary(6, seed=s)
        u2 = haar_unitary(6, seed=s + 1000)
        assert np.linalg.norm(u1 - u2) > 0.1


def single_qr_isometry(n, k, seed):
    """Haar isometry with one 2-D QR per draw, the pre-batching code."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    z = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r).copy()
    d[np.abs(d) == 0] = 1.0
    return q * (d / np.abs(d))


@pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
def test_haar_bits_match_single_qr(n):
    for k in sorted({1, max(1, n // 2), n}):
        for seed in (0, 7, 2**40):
            assert haar_isometry(n, k, seed).tobytes() == single_qr_isometry(n, k, seed).tobytes()
        # a shared Generator is consumed draw after draw, as before
        mine, ref = np.random.default_rng(11), np.random.default_rng(11)
        for _ in range(3):
            assert haar_isometry(n, k, mine).tobytes() == single_qr_isometry(n, k, ref).tobytes()
    for seed in (3, np.random.default_rng(3)):
        twin = seed if isinstance(seed, int) else np.random.default_rng(3)
        assert haar_unitary(n, seed).tobytes() == single_qr_isometry(n, n, twin).tobytes()


def test_haar_unitary_rejects_zero_dimension():
    with pytest.raises(InvalidDimension):
        haar_unitary(0, seed=1)


def test_orthonormalize_preserves_span_of_orthonormal_input():
    rng = np.random.default_rng(5)
    a = haar_unitary(6, rng)[:, :3]
    q = orthonormalize(a)
    np.testing.assert_allclose(q @ q.conj().T, a @ a.conj().T, atol=1e-10)


def test_orthonormalize_single_column_up_to_phase():
    q = orthonormalize(np.array([[2.0], [0.0]]))
    assert abs(abs(q[0, 0]) - 1.0) <= 1e-12
    assert abs(q[1, 0]) <= 1e-12


def test_orthonormalize_gaussian_residual():
    rng = np.random.default_rng(17)
    a = random_complex(rng, 6, 3)
    q = orthonormalize(a)
    assert np.linalg.norm(q.conj().T @ q - np.eye(3)) <= 1e-12
    assert np.linalg.norm(a - q @ (q.conj().T @ a)) <= 1e-10


def test_orthonormalize_rejects_rank_deficient():
    a = np.ones((4, 2), dtype=complex)
    with pytest.raises(RankDeficient):
        orthonormalize(a)
