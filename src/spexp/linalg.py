"""Dense complex linear algebra shared by every other module.

Matrices are numpy arrays of complex128; the helpers here add the input
validation and the seeded random orthonormal objects (Haar unitaries and
isometries) that the expansion machinery is built on.

RNG convention used across the package: every randomized operation takes an
integer seed (or an already-constructed ``numpy.random.Generator``), and
independent substreams are derived with ``substream(seed, *key)`` so that
candidate evaluations are reproducible independently of evaluation order.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidDimension, InvalidExponent, InvalidMatrix, InvalidParameters
from .errors import RankDeficient

ORTHONORMALIZE_TOL = 1e-12
# complex entries (4 MiB) per batched LAPACK call or block of drawn instances;
# the items of a whole class at once would not fit (the |W| = 12 blocks of a
# coordinate sweep at n = 24, d = 4: 25 GB)
BATCH_ENTRIES = 1 << 18


def batches(count: int, each: int) -> list:
    """Consecutive runs of the items 0..count - 1, ``each`` entries an item,
    holding at most BATCH_ENTRIES entries a run, or one item when it alone
    holds more. LAPACK decomposes each matrix of a stack on its own, so no
    value depends on the runs."""
    step = max(1, BATCH_ENTRIES // each)
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


def as_matrix(m, name: str = "matrix", ndims=(2,)) -> np.ndarray:
    """Coerce input to a finite complex128 array whose ndim is in ``ndims``.

    Raises InvalidMatrix for wrong dimensionality or NaN/Inf entries.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim not in ndims:
        raise InvalidMatrix(f"{name} must be {'-D or '.join(map(str, ndims))}-D, got ndim={a.ndim}")
    if a.size and not np.all(np.isfinite(a)):
        raise InvalidMatrix(f"{name} contains NaN or Inf entries")
    return a


def _check_numbers(items, name: str, error=InvalidParameters, what: str = "numbers"):
    """One pass over the types of a flat iterable: booleans, strings, None and
    lists raise ``error``, where a float cast would read "1" or true as a
    number or a nested list as its entries."""
    for k in set(map(type, items)):
        if issubclass(k, (bool, np.bool_)) or not issubclass(k, (int, float, np.integer, np.floating)):
            raise error(f"{name} must be {what}, got {k.__name__}")


def as_numbers(x, name: str, error=InvalidParameters, what: str = "numbers") -> np.ndarray:
    """x as an object array, after ``_check_numbers`` of its entries."""
    a = np.asarray(x, dtype=object)
    _check_numbers(a.flat, name, error, what)
    return a


def as_integers(x, name: str, error=InvalidParameters) -> np.ndarray:
    """int64 array of counts or indices. Integral floats such as 2.0 pass;
    booleans, fractions, NaN/Inf, strings and values beyond 64 bits raise
    ``error``, where a plain cast would truncate or crash."""
    if isinstance(x, np.ndarray) and x.dtype.kind in "iu":
        return np.asarray(x, dtype=np.int64)
    a = as_numbers(x, name, error, "integers")
    try:
        b = a.astype(np.int64)
    except (OverflowError, ValueError) as exc:  # beyond 64 bits, NaN or Inf
        raise error(f"{name} must be integers of 64 bits: {exc}") from exc
    if not (a == b).all():
        raise error(f"{name} must be integers, got {a[a != b].flat[0]!r}")
    return b


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


def _check_exponent(p: float) -> float:
    p = float(p)
    if not np.isfinite(p) or p < 1.0:
        raise InvalidExponent(f"exponent must lie in [1, inf), got {p}")
    return p


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


def orthonormalize(a) -> np.ndarray:
    """Orthonormal basis Q of span(A) with Q*Q = Id, for an n x k matrix or
    each of an (S, n, k) stack (batched, with the bits of a call per matrix).

    Raises RankDeficient when the smallest singular value of a matrix falls
    below ``ORTHONORMALIZE_TOL`` relative to its largest.
    """
    a = as_matrix(a, "basis candidate", (2, 3))
    if a.shape[-1] == 0:
        raise RankDeficient("cannot orthonormalize an empty basis")
    s = np.linalg.svd(a, compute_uv=False)
    if np.any(s[..., -1] <= ORTHONORMALIZE_TOL * np.maximum(1.0, s[..., 0])):
        raise RankDeficient(
            f"smallest singular value {np.min(s[..., -1]):.3e} below rank tolerance"
        )
    q, _ = np.linalg.qr(a)
    return q
