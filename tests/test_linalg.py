"""Input validation and random orthonormal objects."""

import numpy as np
import pytest

from spexp import Subspace, haar_unitary, orthonormalize, random_unitary_tuple
from spexp.errors import InvalidDimension, InvalidMatrix, InvalidParameters, RankDeficient
from spexp import linalg
from spexp.linalg import as_count, as_matrix, batches, haar_isometry, substream

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


@pytest.mark.parametrize(
    "x, match",
    [
        (True, "must be integers, got bool"),
        (2.5, "must be integers, got 2.5"),
        (-1, "must be a non-negative integer, got -1"),
        (2**63, "must be integers of 64 bits"),
        (None, "must be integers, got NoneType"),
        ("3", "must be integers, got str"),
        ([3], "must be a non-negative integer, got \\[3\\]"),
    ],
)
def test_as_count_refuses(x, match):
    with pytest.raises(InvalidParameters, match=f"^count {match}"):
        as_count(x, "count")


def test_as_count_reads_integral_values_as_ints():
    for x in (3, 3.0, np.int64(3), np.uint8(3), np.float32(3.0), np.array(3)):
        assert type(as_count(x, "count")) is int and as_count(x, "count") == 3
    assert as_count(2**63 - 1, "count") == 2**63 - 1
    assert as_count(0, "count") == 0


def test_as_count_minimum_and_error_class():
    assert as_count(1, "d", 1) == 1
    for x in (0, np.int64(0), 0.0):
        with pytest.raises(InvalidParameters, match=r"^d must be an integer >= 1, got"):
            as_count(x, "d", 1)
    # no minimum: any 64-bit integer, still no fraction or boolean
    assert as_count(-(2**63), "n", None) == -(2**63)
    assert as_count(-5.0, "n", None) == -5
    for x in (-(2**63) - 1, 0.5, False):
        with pytest.raises(InvalidParameters, match="^n must be integers"):
            as_count(x, "n", None)
    with pytest.raises(InvalidDimension, match="^n must be a non-negative integer"):
        as_count(-1, "n", error=InvalidDimension)


@pytest.mark.parametrize("seed, key", [(1.5, ()), (True, (3,)), (1, (0.5,)), (1, (False,)),
                                       (-1, ()), (1, (-2,)), (2**63, ())])
def test_substream_refuses_seeds_and_keys_a_cast_would_change(seed, key):
    with pytest.raises(InvalidParameters):
        substream(seed, *key)


def test_substream_and_draws_read_integral_seeds_exactly():
    ref = substream(4, 2).standard_normal(3)
    for seed, key in ((4.0, 2), (np.int64(4), np.int32(2)), (4, 2.0)):
        assert np.array_equal(substream(seed, key).standard_normal(3), ref)
    # int() would read 1.5 and True as seed 1
    for seed in (1.5, True, 2**63):
        with pytest.raises(InvalidParameters, match="^seed must be"):
            random_unitary_tuple(4, 2, seed)
        with pytest.raises(InvalidParameters, match="^seed must be"):
            haar_unitary(3, seed)


@pytest.mark.parametrize("indices", [[0.5], [True], [1, 2.5], ["1"], [None]])
def test_coordinate_subspace_refuses_non_integral_indices(indices):
    # int() would read [0.5] and [True] as e_0 and e_1
    with pytest.raises(InvalidDimension, match="^indices must be integers"):
        Subspace.coordinate(4, indices)


def test_coordinate_subspace_reads_integral_indices():
    ref = Subspace.coordinate(4, [1, 3]).basis
    for indices in ([1.0, 3], np.array([3, 1]), [np.int64(1), np.int32(3)], (3, 1)):
        assert np.array_equal(Subspace.coordinate(4, indices).basis, ref)
