"""Dense complex linear algebra shared by every other module.

Matrices are numpy arrays of complex128; the helpers here add the input
validation, the Schatten norms, and the seeded random orthonormal objects
(Haar unitaries and isometries) that the expansion machinery is built on.

RNG convention used across the package: every randomized operation takes an
integer seed (or an already-constructed ``numpy.random.Generator``), and
independent substreams are derived with ``substream(seed, *key)`` so that
candidate evaluations are reproducible independently of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDimension, InvalidExponent, InvalidMatrix, InvalidParameters
from .errors import RankDeficient

SVD_TOL = 1e-10
RANK_TOL = 1e-12


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce input to a finite 2-D complex128 array.

    Raises InvalidMatrix for wrong dimensionality or NaN/Inf entries.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise InvalidMatrix(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidMatrix(f"{name} contains NaN or Inf entries")
    return a


def _check_seed(seed):
    """numpy seeds only from non-negative integers."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise InvalidParameters(f"seed must be a non-negative integer, got {seed}")
    return seed


def as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_check_seed(seed))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic child stream for (seed, key...); order-independent."""
    return np.random.default_rng([_check_seed(int(seed)), *[int(k) for k in key]])


@dataclass
class SingularSpectrum:
    """Singular values (nonincreasing, >= 0) with optional factors.

    When factors are kept, ``matrix = left @ diag(values) @ right.conj().T``.
    """

    values: np.ndarray
    left: np.ndarray | None = None
    right: np.ndarray | None = None


def svd(m, compute_vectors: bool = True) -> SingularSpectrum:
    """Singular value decomposition of a dense complex matrix.

    The contract is the reconstruction residual
    ``||M - U diag(s) W*||_F <= SVD_TOL * max(1, s_max)``, not any
    particular algorithm.
    """
    a = as_matrix(m)
    if compute_vectors:
        u, s, vh = np.linalg.svd(a, full_matrices=False)
        return SingularSpectrum(values=s, left=u, right=vh.conj().T)
    return SingularSpectrum(values=np.linalg.svd(a, compute_uv=False))


def singular_values(m) -> np.ndarray:
    return svd(m, compute_vectors=False).values


def _check_exponent(p: float) -> float:
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise InvalidExponent(f"exponent must lie in [1, inf), got {p}")
    return p


def schatten_norm_pow(m, p: float) -> float:
    """Sum of p-th powers of singular values (the expansion numerator form)."""
    p = _check_exponent(p)
    s = singular_values(m)
    return float(np.sum(s**p))


def schatten_norm(m, p: float) -> float:
    """Schatten-p norm: the l_p norm of the singular values."""
    p = _check_exponent(p)
    return schatten_norm_pow(m, p) ** (1.0 / p)


def haar_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed n x n unitary."""
    return haar_isometry(n, n, seed)


def haar_isometry(n: int, k: int, seed) -> np.ndarray:
    """n x k matrix with orthonormal columns, Haar on the Stiefel manifold: the
    QR factor of a Ginibre sample with the R-diagonal phases folded back in."""
    if n < 1 or k < 1:
        raise InvalidDimension(f"isometry dims must be >= 1, got n={n}, k={k}")
    if k > n:
        raise InvalidDimension(f"need k <= n, got k={k}, n={n}")
    return _phase_fixed_qr(_ginibre(as_rng(seed), (n, k)))


def _ginibre(rng: np.random.Generator, shape: tuple) -> np.ndarray:
    """Standard complex Gaussian (..., n, k) stack. Each n x k matrix draws its
    real part, then its imaginary part, in stack order, so a stack of m
    matrices consumes the stream as m single draws would."""
    g = rng.standard_normal((*shape[:-2], 2, *shape[-2:]))
    z = np.empty(shape, dtype=np.complex128)
    z.real, z.imag = g[..., 0, :, :], g[..., 1, :, :]
    z /= np.sqrt(2.0)
    return z


def _phase_fixed_qr(z: np.ndarray) -> np.ndarray:
    """Q factor of each n x k matrix of a (..., n, k) stack, each column
    multiplied by the phase of its R-diagonal entry; one batched QR, with
    the bits of a QR per matrix."""
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[np.abs(d) == 0] = 1.0  # zero pivots occur with probability zero
    q *= (d / np.abs(d))[..., None, :]
    return q


def orthonormalize(a, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Orthonormal basis Q of span(A) with Q*Q = Id.

    Raises RankDeficient when the smallest singular value of A falls below
    ``rank_tol`` relative to the largest.
    """
    a = as_matrix(a, "basis candidate")
    if a.shape[1] == 0:
        raise RankDeficient("cannot orthonormalize an empty basis")
    s = np.linalg.svd(a, compute_uv=False)
    if s[-1] <= rank_tol * max(1.0, float(s[0])):
        raise RankDeficient(
            f"smallest singular value {s[-1]:.3e} below rank tolerance"
        )
    q, _ = np.linalg.qr(a)
    return q
