"""Subspace minimization of the expansion ratios.

Three strategies approximate the minimum over subspaces V with
dim V <= floor(n/2); each is one function, and the estimate it returns names
it (``ExpansionEstimate.strategy``):

* ``minimize_coordinate`` (``coordinate-exhaustive``) — exact over subspaces
  spanned by canonical basis vectors (recovers classical edge expansion on
  permutation tuples);
* ``minimize_random`` (``random-sample``) — Haar-random subspaces with
  prefix-nested substreams, so larger sample counts only extend the
  candidate list;
* ``minimize_riemannian`` (``riemannian``) — multi-restart projected-gradient
  descent on the manifold of orthonormal n x k bases with backtracking line
  search and re-orthonormalization as the retraction.

``SearchConfig.k`` fixes the subspace dimension of the two continuous
strategies; None sweeps every k = 1..floor(n/2).

Every returned value is the exactly recomputable (unsmoothed) ratio at its
witness; the search never reports an unattained value.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import RANK_TOL, BistochasticTuple, Subspace, _rank_threshold, check_orthonormal
from .channels import rank_numerator, restriction_spectra, sp_numerator
from .errors import (
    DimensionTooLarge,
    InvalidDimension,
    InvalidParameters,
    NonSmoothConfiguration,
    NumericalFailure,
)
from .graphs import _lex_min, _subset_boundaries
from .linalg import _check_exponent, _check_seed, _ginibre, _phase_fixed_qr, as_integers, as_matrix
from .linalg import orthonormalize, substream

# not called here; bound because bench/tracing.py wraps them by attribute
from .channels import expansion_ratio_sp  # noqa: F401
from .linalg import haar_isometry  # noqa: F401

MIN_STEP = 1e-14
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5

# complex entries (128 KiB) per batched SVD block of the coordinate sweep, or
# one subset when its blocks alone are larger; the blocks of a whole size class
# would not fit (|W| = 12 at n = 24, d = 4: 25 GB)
_BLOCK_ENTRIES = 1 << 13
# complex entries of restriction rows per stack of random candidates or restarts
_CANDIDATE_ENTRIES = 1 << 18


@dataclass
class SearchConfig:
    k: int | None = None  # target dimension, or None for the 1..floor(n/2) sweep
    samples: int = 100
    restarts: int = 8
    max_iters: int = 200
    epsilon: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.k is not None:
            self.k = int(as_integers(self.k, "k"))
        for name in ("samples", "restarts", "max_iters", "seed"):
            setattr(self, name, int(as_integers(getattr(self, name), name)))
        _check_seed(self.seed)
        if self.k is not None and self.k < 1:
            raise InvalidParameters(f"k must be an integer >= 1 or None, got {self.k!r}")
        if self.samples < 1 or self.restarts < 1 or self.max_iters < 1:
            raise InvalidParameters("counts must be >= 1")
        if not (np.isfinite(self.epsilon) and self.epsilon >= 0):
            raise InvalidParameters(
                f"smoothing epsilon must be finite and >= 0, got {self.epsilon}"
            )

    def dims(self, n: int) -> list:
        if n < 2:
            raise InvalidDimension(f"no admissible subspace dimension for n={n}")
        if self.k is None:
            return list(range(1, n // 2 + 1))
        if self.k > n // 2:
            raise DimensionTooLarge(f"k={self.k} exceeds floor(n/2)={n // 2}")
        return [int(self.k)]


@dataclass
class ExpansionEstimate:
    """A minimization result: the value and the witness achieving it."""

    value: float
    witness: Subspace
    k: int
    p: object
    strategy: str
    subset: list | None = None  # vertex subset, coordinate strategy only
    samples_used: int = 0
    iterations: int = 0


def minimize_coordinate(
    t: BistochasticTuple, p: float, mode: str = "sp", rank_tol: float = RANK_TOL
) -> ExpansionEstimate:
    """Exact minimum over coordinate subspaces with 1 <= |W| <= floor(n/2).

    On permutation tuples (every mode) this equals the multigraph's edge
    expansion. The restriction of B to a coordinate projector pair is the
    B[W, complement] block. Mode Q sums its squared entries, the subset
    kernel's boundary of the summed |B_i|^2. When every B_i is a 0/1 partial
    permutation (entries of absolute value 0 or 1, at most one nonzero per
    row and per column), each block's nonzero singular values are its ones,
    so modes sp and dim count them on the same kernel: the weight leaving W,
    which is the weight entering W of the transposed count matrix. Any other
    tuple takes the singular values of each block, with one batched SVD per
    subset size in blocks of at most _BLOCK_ENTRIES complex entries (LAPACK
    decomposes each matrix of a block on its own, so the values do not
    depend on the blocking). Each ratio is one division by d |W|, so integer
    counts compare exactly as in cut_oracle_l1; ties go to the
    lexicographically smallest vertex subset.
    """
    if mode not in ("sp", "dim", "Q"):
        raise InvalidParameters(f"unknown coordinate mode {mode!r}")
    n, d = t.n, t.d
    a = np.abs(t.matrices)
    if mode == "Q":
        weight = np.sum(a**2, axis=0)
    elif mode == "sp":
        p = _check_exponent(p)
        weight = np.sum(a, axis=0).T  # |b|^p = |b| on 0/1 entries
    else:
        weight = np.sum(a > _rank_threshold(rank_tol, d), axis=0).T
    masks, sizes, num = _subset_boundaries(weight)
    # 0/1 entries, at most one nonzero per column (sum over rows) and per row
    counted = np.all((a == 0) | (a == 1)) and np.all(a.sum(1) <= 1) and np.all(a.sum(2) <= 1)
    if mode != "Q" and not counted:
        num = np.full(len(masks), np.nan)  # a subset the sweep skips shows as NaN
        for k in range(1, n // 2 + 1):
            of_size = np.flatnonzero(sizes == k)
            step = max(1, _BLOCK_ENTRIES // (d * k * (n - k)))
            for lo in range(0, len(of_size), step):
                chunk = of_size[lo : lo + step]
                s = np.linalg.svd(_blocks(t.matrices, masks[chunk], k), compute_uv=False)
                num[chunk] = sp_numerator(s, p) if mode == "sp" else rank_numerator(s, rank_tol)
    value, subset = _lex_min(masks, num / (d * sizes))
    return ExpansionEstimate(
        value=value, witness=Subspace.coordinate(n, subset), k=len(subset),
        p=p if mode == "sp" else mode, strategy="coordinate-exhaustive",
        subset=subset, samples_used=len(masks),
    )


def _blocks(matrices, masks, k):
    """The (S, d, k, n - k) stack of B_i[W, complement] blocks of S masks of
    size k, rows and columns each in ascending vertex order."""
    n = matrices.shape[-1]
    outside = ((masks[:, None] >> np.arange(n)) & 1) ^ 1
    order = np.argsort(outside, axis=1, kind="stable")  # members first
    rows, cols = order[:, :k], order[:, k:]
    return matrices[:, rows[:, :, None], cols[:, None, :]].swapaxes(0, 1)


def minimize_random(t: BistochasticTuple, p: float, cfg: SearchConfig) -> ExpansionEstimate:
    """Minimum of the Schatten ratio over Haar-random k-dim subspaces.

    Candidate j of dimension k draws from substream (seed, k, j): the first
    ``samples`` candidates of a larger run are identical to a smaller run, so
    the minimum is monotone in the sample count. Candidates go in ``_stacks``.
    """
    p = _check_exponent(p)

    def candidates(k):
        return (_haar_stack(t.n, k, cfg.seed, js) for js in _stacks(t, k, cfg.samples))

    value, k, witness = _best_candidate(t, p, cfg, candidates)
    return ExpansionEstimate(
        value=value, witness=witness, k=k, p=p, strategy="random-sample",
        samples_used=len(cfg.dims(t.n)) * cfg.samples,
    )


def _stacks(t, k, count):
    """Ranges of the indices 0..count - 1 of k-dim candidates or restarts, each
    holding about _CANDIDATE_ENTRIES entries of restriction rows (d k n each)."""
    step = max(1, _CANDIDATE_ENTRIES // (t.d * k * t.n))
    return [range(lo, min(lo + step, count)) for lo in range(0, count, step)]


def _haar_stack(n, k, seed, indices):
    """haar_isometry(n, k, substream(seed, k, j)) for j in indices, stacked by one QR."""
    return _phase_fixed_qr(np.stack([_ginibre(substream(seed, k, j), (n, k)) for j in indices]))


def _best_candidate(t, p, cfg, candidates):
    """Smallest (ratio, k, index) over the (S, n, k) basis stacks candidates(k)
    yields in index order, each checked and scored with one restriction
    spectrum, for every k of the sweep; returns (value, k, witness)."""
    best = None  # (value, k, basis)
    for k in cfg.dims(t.n):
        for q in candidates(k):
            check_orthonormal(q)
            values = sp_numerator(restriction_spectra(t.matrices, q[:, None]), p) / float(t.d * k)
            j = int(np.argmin(values))
            if best is None or values[j] < best[0]:
                best = (float(values[j]), k, q[j])
    value, k, q = best
    return value, k, Subspace(q.copy())


def objective_and_gradient(t: BistochasticTuple, q, p: float, epsilon: float):
    """Smoothed Schatten numerator and its Euclidean gradient in the basis.

    With W_i = B_i* Q, Z_i = (Id - QQ*) W_i and the k x k Gram matrix
    G_i = Z_i* Z_i, F(Q) = sum_i [sum_l (lambda_l(G_i) + epsilon)^(p/2)
    + (n - k) epsilon^(p/2)]. At an orthonormal Q this sums
    (sigma^2 + epsilon)^(p/2) over all n singular values of P B_i (Id - P),
    P = QQ*; the formula extends F smoothly to every n x k matrix for
    epsilon > 0 (and for epsilon = 0 when p >= 2). The gradient is the Riesz
    representer of dF under Re Tr[A* B] at any Q, so its entrywise real/imag
    parts match central finite differences directly. An (S, n, k) stack gives
    (S,) values and (S, n, k) gradients, each basis the bits it gets alone,
    at O(d n^2 k) per basis.
    """
    p = _check_exponent(p)
    epsilon = float(epsilon)
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise InvalidParameters(f"smoothing epsilon must be finite and >= 0, got {epsilon}")
    if epsilon == 0.0 and p < 2:
        raise NonSmoothConfiguration(
            "epsilon = 0 makes the Schatten-p objective nonsmooth for p < 2"
        )
    qm = q.basis if isinstance(q, Subspace) else as_matrix(q, "basis", (2, 3))
    n, k = qm.shape[-2:]
    if (t.n, t.n) != (n, n):
        raise InvalidParameters(f"basis rows {n} do not match tuple size {t.n}")
    qm = qm[..., None, :, :]  # one basis against every matrix of the tuple
    qh = _adj(qm)
    w = _adj(qh @ t.matrices)
    s_adj = qh @ w  # S_i* for S_i = Q* B_i Q
    z = w - qm @ s_adj
    lam, u = np.linalg.eigh(_adj(z) @ z)
    lam = np.clip(lam, 0.0, None) + epsilon
    # per-matrix terms added in matrix order, as sp_numerator does
    per_matrix = np.sum(lam ** (p / 2.0), axis=-1) + (n - k) * epsilon ** (p / 2.0)
    value = np.cumsum(per_matrix, axis=-1)[..., -1]
    y = p * ((z @ u) * lam[..., None, :] ** (p / 2.0 - 1.0)) @ _adj(u)  # dF = Re Tr[Y* dZ]
    qhy = qh @ y
    grad = t.matrices @ (y - qm @ qhy) - y @ _adj(s_adj) - w @ _adj(qhy)
    return (float(value) if value.ndim == 0 else value), grad.sum(axis=-3)


def _adj(a):
    return np.swapaxes(a, -1, -2).conj()


def descend(x, first, evaluate, retract, initial_step, grad_tol, max_iters):
    """Projected-gradient descent with Armijo backtracking and a retraction,
    in lock-step over an (S, ...) stack of starts: each round retracts and
    evaluates every start still running at once. ``evaluate(y)`` gives, at
    every row of a stack of points, the value, the descent direction and its
    squared norm; ``first`` is its result at x. ``retract(y)`` gives the
    retracted stack and a flag per row it could map.
    Per start, trial steps begin at its last accepted step doubled, capped at
    ``initial_step``, and halve until the Armijo condition holds; a start
    stops when its direction norm is below ``grad_tol`` (relative to max(1,
    |value|)), when no step above MIN_STEP is accepted, or after
    ``max_iters`` accepted steps, just as a descent from it alone would.
    Returns the final points and, per start, the values at accepted points.
    """

    def steep(rows):  # not "<=", so that a NaN direction fails in the line search
        return ~(np.sqrt(gnorm2[rows]) <= grad_tol * np.fmax(1.0, np.abs(value[rows])))

    x = np.array(x)
    value, direction, gnorm2 = (np.array(a) for a in first)
    traces = [[v] for v in value.tolist()]
    trial = np.full(len(x), float(initial_step))
    iters = np.zeros(len(x), dtype=np.int64)
    running = steep(slice(None))
    shape = (-1,) + (1,) * (x.ndim - 1)
    while running.any():
        live = np.flatnonzero(running)
        y, ok = retract(x[live] - trial[live].reshape(shape) * direction[live])
        y, tried = y[ok], live[ok]
        v, y_direction, y_gnorm2 = evaluate(y)
        if not np.all(np.isfinite(v)):
            raise NumericalFailure("non-finite objective during line search")
        accept = v <= value[tried] - ARMIJO_C1 * trial[tried] * gnorm2[tried]
        won = tried[accept]
        accepted_step = trial[won]
        trial[live] *= BACKTRACK
        running[live] = trial[live] > MIN_STEP
        trial[won] = np.minimum(2.0 * accepted_step, initial_step)
        x[won], value[won] = y[accept], v[accept]
        direction[won], gnorm2[won] = y_direction[accept], y_gnorm2[accept]
        for i, vi in zip(won.tolist(), v[accept].tolist()):
            traces[i].append(vi)
        iters[won] += 1
        running[won] = (iters[won] < max_iters) & steep(won)
    return x, traces


def _descend_subspace(t, q0, p, epsilon, max_iters, k, restarts):
    """Lock-step Riemannian descent from the stack q0 of the k-dim restarts
    numbered ``restarts``; returns (final bases, objective traces)."""

    def evaluate(qm):
        value, grad = objective_and_gradient(t, qm, p, epsilon)
        qhg = _adj(qm) @ grad  # tangent projection of the gradient
        xi = grad - qm @ ((qhg + _adj(qhg)) / 2.0)
        # the norm per basis keeps the bits of np.linalg.norm
        return value, xi, np.array([float(np.linalg.norm(r) ** 2) for r in xi])

    first = evaluate(q0)
    bad = np.flatnonzero(~np.isfinite(first[0]))
    if bad.size:
        raise NumericalFailure(f"non-finite objective at restart k={k},r={restarts[bad[0]]}")
    # no retraction fails: Q*(Q - s X) = Id - s Q*X, Q*X skew-Hermitian
    return descend(
        q0, first, evaluate, lambda y: (orthonormalize(y), np.ones(len(y), dtype=bool)),
        initial_step=1.0, grad_tol=1e-8, max_iters=max_iters,
    )


def minimize_riemannian(t: BistochasticTuple, p: float, cfg: SearchConfig) -> ExpansionEstimate:
    """Multi-restart Riemannian descent, the restarts of each k as one
    lock-step stack; reports the unsmoothed ratio at the best final witness."""
    p = _check_exponent(p)
    iterations = 0

    def restarts(k):
        nonlocal iterations
        for rs in _stacks(t, k, cfg.restarts):
            q0 = _haar_stack(t.n, k, cfg.seed, rs)
            qm, traces = _descend_subspace(t, q0, p, cfg.epsilon, cfg.max_iters, k, rs)
            iterations += sum(len(trace) - 1 for trace in traces)
            yield qm

    value, k, witness = _best_candidate(t, p, cfg, restarts)
    return ExpansionEstimate(
        value=value, witness=witness, k=k, p=p, strategy="riemannian", iterations=iterations
    )
