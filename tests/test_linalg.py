"""Input validation and random orthonormal objects."""

import numpy as np
import pytest

from spexp import haar_unitary, orthonormalize
from spexp.errors import InvalidDimension, InvalidMatrix, RankDeficient
from spexp import linalg
from spexp.linalg import as_matrix, batches, haar_isometry

from util import random_complex


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(InvalidMatrix):
        as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidMatrix):
        as_matrix(np.array([[np.inf + 0j, 0.0], [0.0, 1.0]]))


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


@pytest.mark.parametrize("budget", [1, 7, 1 << 18])
def test_batches_cover_every_item_once_in_order(monkeypatch, budget):
    # an item larger than the budget is a run of its own; count 0 gives none
    monkeypatch.setattr(linalg, "BATCH_ENTRIES", budget)
    assert batches(0, 3) == []
    for count in (1, 5, 12):
        for each in (1, 3, 7, 10):
            runs = batches(count, each)
            assert [i for run in runs for i in run] == list(range(count))
            assert all(len(run) == 1 or len(run) * each <= budget for run in runs)
            assert all(len(run) == max(1, budget // each) for run in runs[:-1])
