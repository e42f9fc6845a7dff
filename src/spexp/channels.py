"""Bistochastic matrix tuples, subspaces, and per-subspace expansion ratios.

A bistochastic tuple B = (B_1, ..., B_d) of n x n matrices satisfies
sum_i B_i* B_i = sum_i B_i B_i* = d * Id. The three per-subspace ratios
implemented here share the denominator d * dim(V) and differ in how they
aggregate the restriction P_V B_i (Id - P_V):

* Schatten ratio  : sum_i ||restriction||_{S_p}^p
* dimension ratio : sum_i rank(restriction)
* boundary ratio  : <Id - P_V, sum_i B_i P_V B_i*>  (unnormalized sum, which
  makes it coincide with the Schatten-2 ratio on bistochastic tuples and
  with |boundary(W)| / (d |W|) on coordinate subspaces of permutation tuples)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLarge,
    InvalidDimension,
    InvalidMatrix,
    InvalidPermutation,
    ShapeMismatch,
)
from .linalg import _check_exponent, as_integers, as_matrix, haar_isometry, haar_unitary, substream

BISTOCH_TOL = 1e-9
RANK_TOL = 1e-8
ORTHONORMAL_TOL = 1e-10


@dataclass(frozen=True)
class BistochasticTuple:
    """d matrices of size n x n, held as one read-only (d, n, n) array."""

    matrices: np.ndarray

    def __post_init__(self):
        mats = tuple(as_matrix(m, "tuple member") for m in self.matrices)
        if not mats:
            raise InvalidDimension("a tuple needs at least one matrix")
        n = mats[0].shape[0]
        for m in mats:
            if m.shape != (n, n):
                raise ShapeMismatch(
                    f"all members must be {n}x{n}, got {m.shape[0]}x{m.shape[1]}"
                )
        stack = np.stack(mats)
        stack.setflags(write=False)
        object.__setattr__(self, "matrices", stack)

    @property
    def n(self) -> int:
        return self.matrices.shape[1]

    @property
    def d(self) -> int:
        return self.matrices.shape[0]


def check_orthonormal(q: np.ndarray):
    """Raise InvalidMatrix unless each n x k basis of a (..., n, k) stack has
    ||Q*Q - Id||_F <= ORTHONORMAL_TOL * max(1, sqrt(k))."""
    k = q.shape[-1]
    dev = q.conj().swapaxes(-1, -2) @ q - np.eye(k)
    if max(map(np.linalg.norm, dev.reshape(-1, k, k))) > ORTHONORMAL_TOL * max(1.0, np.sqrt(k)):
        raise InvalidMatrix("basis columns are not orthonormal")


@dataclass(frozen=True)
class Subspace:
    """Subspace of C^n held as an n x k orthonormal basis."""

    basis: np.ndarray

    def __post_init__(self):
        q = as_matrix(self.basis, "basis")
        n, k = q.shape
        if k < 1:
            raise InvalidDimension("subspace dimension must be >= 1")
        if k > n:
            raise InvalidDimension(f"subspace dimension {k} exceeds ambient {n}")
        check_orthonormal(q)
        q.setflags(write=False)
        object.__setattr__(self, "basis", q)

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def coordinate(cls, n: int, indices) -> "Subspace":
        """Span of the canonical basis vectors listed in ``indices`` (0-based)."""
        idx = sorted(int(i) for i in indices)
        if len(set(idx)) != len(idx) or (idx and (idx[0] < 0 or idx[-1] >= n)):
            raise InvalidDimension(f"indices must be distinct members of range({n})")
        q = np.zeros((n, len(idx)), dtype=np.complex128)
        for col, i in enumerate(idx):
            q[i, col] = 1.0
        return cls(q)

    @classmethod
    def haar(cls, n: int, k: int, seed) -> "Subspace":
        return cls(haar_isometry(n, k, seed))


@dataclass
class RatioValue:
    """An expansion ratio together with its numerator and denominator."""

    value: float
    numerator: float
    denominator: float
    p: object  # float exponent, or the markers "dim" / "Q"


@dataclass
class ValidationReport:
    passed: bool
    left_deviation: float  # ||sum B_i* B_i - d Id||_F
    right_deviation: float  # ||sum B_i B_i* - d Id||_F


def validate_bistochastic(t: BistochasticTuple) -> ValidationReport:
    """Check sum B_i* B_i = sum B_i B_i* = d * Id within BISTOCH_TOL * d * sqrt(n)."""
    n, d = t.n, t.d
    left = np.zeros((n, n), dtype=np.complex128)
    right = np.zeros((n, n), dtype=np.complex128)
    for b in t.matrices:
        left += b.conj().T @ b
        right += b @ b.conj().T
    target = d * np.eye(n)
    dev_l = float(np.linalg.norm(left - target))
    dev_r = float(np.linalg.norm(right - target))
    bound = BISTOCH_TOL * d * np.sqrt(n)
    return ValidationReport(dev_l <= bound and dev_r <= bound, dev_l, dev_r)


def restriction_singular_values(b, v: Subspace) -> np.ndarray:
    """Singular values of the restriction of one n x n matrix, or of each
    matrix of a (d, n, n) stack, as a (k,) or (d, k) array.

    P_V B (Id - P_V) = Q (Q* B (Id - QQ*)) and left-multiplying by an isometry
    preserves singular values, so the k x n compressed row block suffices;
    a stack is compressed and decomposed in one batched call each.
    """
    bm = np.asarray(b, dtype=np.complex128)
    if bm.ndim not in (2, 3) or not np.all(np.isfinite(bm)):
        raise InvalidMatrix(f"restriction input must be finite and 2-D or 3-D, got ndim={bm.ndim}")
    if bm.shape[-2:] != (v.n, v.n):
        raise ShapeMismatch(f"matrix must be {v.n}x{v.n}, got {bm.shape}")
    return restriction_spectra(bm, v.basis)


def restriction_spectra(b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Singular values of Q* B (Id - QQ*) for a (..., n, n) stack of matrices
    and a stack of n x k bases that broadcasts against it, unchecked; each
    matrix pair gets the bits it gets alone."""
    qh = np.swapaxes(q.conj(), -1, -2)
    row = qh @ b
    row = row - (row @ q) @ qh
    return np.linalg.svd(row, compute_uv=False)


def sp_numerator(s, p: float):
    """sum_i sum_l s[..., i, l]^p of a (..., d, r) spectrum: the per-matrix
    sums are added one after another in matrix order (cumsum; np.sum would
    pair them). A (d, r) spectrum gives a float, a stack an array."""
    total = np.cumsum(np.sum(s**p, axis=-1), axis=-1)[..., -1]
    return float(total) if total.ndim == 0 else total


def rank_numerator(s):
    """Number of entries of each (d, r) spectrum of a (..., d, r) stack above
    ``RANK_TOL * sqrt(d)`` (a restriction's singular values are bounded by
    sqrt(d)). A (d, r) spectrum gives an int, a stack an array."""
    count = np.count_nonzero(s > _rank_threshold(s.shape[-2]), axis=(-2, -1))
    return int(count) if s.ndim == 2 else count


def _rank_threshold(d: int) -> float:
    """RANK_TOL * sqrt(d), the level above which a singular value counts."""
    return RANK_TOL * np.sqrt(d)


def _check_pair(t: BistochasticTuple, v: Subspace):
    if v.n != t.n:
        raise ShapeMismatch(f"subspace lives in C^{v.n}, tuple in C^{t.n}")
    if v.k > v.n // 2:
        raise DimensionTooLarge(f"subspace dimension {v.k} exceeds floor(n/2) = {v.n // 2}")


def expansion_ratio_sp(t: BistochasticTuple, v: Subspace, p: float) -> RatioValue:
    """Schatten-p ratio sum_i ||P_V B_i (Id-P_V)||_{S_p}^p / (d dim V)."""
    _check_pair(t, v)
    p = _check_exponent(p)
    num = sp_numerator(restriction_singular_values(t.matrices, v), p)
    den = float(t.d * v.k)
    return RatioValue(num / den, num, den, p)


def expansion_ratio_dim(t: BistochasticTuple, v: Subspace) -> RatioValue:
    """Rank ratio sum_i rank(P_V B_i (Id-P_V)) / (d dim V), with numerical
    rank as in ``rank_numerator``."""
    _check_pair(t, v)
    num = rank_numerator(restriction_singular_values(t.matrices, v))
    den = float(t.d * v.k)
    return RatioValue(num / den, float(num), den, "dim")


def quantum_edge_ratio(t: BistochasticTuple, v: Subspace) -> RatioValue:
    """Boundary ratio <Id - P_V, sum_i B_i P_V B_i*> / (d dim V).

    Uses the unnormalized Kraus sum; on bistochastic tuples this equals the
    Schatten-2 ratio, and on coordinate subspaces of permutation tuples it
    counts boundary edges.
    """
    _check_pair(t, v)
    q = v.basis
    num = 0.0
    for b in t.matrices:
        bq = b @ q
        # ||(Id - P) B Q||_F^2 = Tr[(Id-P) B P B*]; manifestly nonnegative
        num += float(np.linalg.norm(bq - q @ (q.conj().T @ bq)) ** 2)
    den = float(t.d * v.k)
    return RatioValue(num / den, num, den, "Q")


def check_permutation(perm, n: int) -> list:
    p = as_integers(perm, "permutation entries", InvalidPermutation)
    if p.shape != (n,) or sorted(p.tolist()) != list(range(n)):
        raise InvalidPermutation(f"not a bijection on range({n}): {perm}")
    return p.tolist()


def tuple_from_permutations(perms) -> BistochasticTuple:
    """0/1 tuple with matrix columns sent to rows by each permutation.

    Entry [perm[j], j] = 1, so the entrywise sum over the tuple is the
    d-regular adjacency count matrix of the underlying multigraph.
    """
    perms = list(perms)
    if not perms:
        raise InvalidDimension("need at least one permutation")
    n = len(perms[0])
    mats = []
    for perm in perms:
        p = check_permutation(perm, n)
        m = np.zeros((n, n), dtype=np.complex128)
        m[p, np.arange(n)] = 1.0
        mats.append(m)
    return BistochasticTuple(tuple(mats))


def random_unitary_tuple(n: int, d: int, seed) -> BistochasticTuple:
    """d independent Haar unitaries; bistochastic because each is unitary."""
    if n < 1 or d < 1:
        raise InvalidDimension(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if isinstance(seed, np.random.Generator):
        mats = tuple(haar_unitary(n, seed) for _ in range(d))
    else:
        mats = tuple(haar_unitary(n, substream(seed, i)) for i in range(d))
    return BistochasticTuple(mats)
