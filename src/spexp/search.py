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

from .channels import (
    RANK_TOL,
    BistochasticTuple,
    Subspace,
    expansion_ratio_sp,
    rank_numerator,
    sp_numerator,
)
from .errors import (
    DimensionTooLarge,
    InvalidDimension,
    InvalidParameters,
    NonSmoothConfiguration,
    NumericalFailure,
    RankDeficient,
)
from .graphs import _lex_min, _subset_boundaries
from .linalg import _check_exponent, as_matrix, haar_isometry, orthonormalize, substream

MIN_STEP = 1e-14
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5

# complex entries (128 KiB) per batched SVD block of the coordinate sweep, or
# one subset when its blocks alone are larger; the blocks of a whole size class
# would not fit (|W| = 12 at n = 24, d = 4: 25 GB)
_BLOCK_ENTRIES = 1 << 13


@dataclass
class SearchConfig:
    k: int | None = None  # target dimension, or None for the 1..floor(n/2) sweep
    samples: int = 100
    restarts: int = 8
    max_iters: int = 200
    epsilon: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.k is not None and (
            not isinstance(self.k, (int, np.integer)) or isinstance(self.k, bool) or self.k < 1
        ):
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

    On permutation tuples (modes sp and Q) this equals the multigraph's edge
    expansion. The restriction of B to a coordinate projector pair is the
    B[W, complement] block: mode Q sums its squared entries (the subset
    kernel's boundary), modes sp and dim take its singular values, with one
    batched SVD per subset size in blocks of at most _BLOCK_ENTRIES complex
    entries (LAPACK decomposes each matrix of a block on its own, so the
    values do not depend on the blocking). Each ratio is one division by
    d |W|, so integer counts compare exactly as in cut_oracle_l1; ties go to
    the lexicographically smallest vertex subset.
    """
    if mode not in ("sp", "dim", "Q"):
        raise InvalidParameters(f"unknown coordinate mode {mode!r}")
    n, d = t.n, t.d
    if mode == "sp":
        p = _check_exponent(p)
    masks, sizes, num = _subset_boundaries(np.sum(np.abs(t.matrices) ** 2, axis=0))
    if mode != "Q":
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
    the minimum is monotone in the sample count.
    """
    p = _check_exponent(p)
    n = t.n

    def sample(k, j):
        return Subspace(haar_isometry(n, k, substream(cfg.seed, k, j)))

    value, k, witness = _best_candidate(t, p, cfg, cfg.samples, sample)
    return ExpansionEstimate(
        value=value, witness=witness, k=k, p=p, strategy="random-sample",
        samples_used=len(cfg.dims(n)) * cfg.samples,
    )


def _best_candidate(t, p, cfg, count, candidate):
    """Smallest (ratio, k, index) over candidate(k, index) for every k of the
    sweep and index < count; returns (value, k, witness)."""
    best = None  # ((value, k, index), witness)
    for k in cfg.dims(t.n):
        for j in range(count):
            v = candidate(k, j)
            key = (expansion_ratio_sp(t, v, p).value, k, j)
            if best is None or key < best[0]:
                best = (key, v)
    (value, k, _), witness = best
    return value, k, witness


def objective_and_gradient(t: BistochasticTuple, q, p: float, epsilon: float):
    """Smoothed Schatten numerator and its Euclidean gradient in the basis.

    With W_i = B_i* Q, Z_i = (Id - QQ*) W_i and the k x k Gram matrix
    G_i = Z_i* Z_i, F(Q) = sum_i [sum_l (lambda_l(G_i) + epsilon)^(p/2)
    + (n - k) epsilon^(p/2)]. At an orthonormal Q this sums
    (sigma^2 + epsilon)^(p/2) over all n singular values of P B_i (Id - P),
    P = QQ*; the formula extends F smoothly to every n x k matrix for
    epsilon > 0 (and for epsilon = 0 when p >= 2). The gradient is the Riesz
    representer of dF under Re Tr[A* B] at any Q, so its entrywise real/imag
    parts match central finite differences directly.
    """
    p = _check_exponent(p)
    epsilon = float(epsilon)
    if not (np.isfinite(epsilon) and epsilon >= 0):
        raise InvalidParameters(f"smoothing epsilon must be finite and >= 0, got {epsilon}")
    if epsilon == 0.0 and p < 2:
        raise NonSmoothConfiguration(
            "epsilon = 0 makes the Schatten-p objective nonsmooth for p < 2"
        )
    qm = q.basis if isinstance(q, Subspace) else as_matrix(q, "basis")
    n = qm.shape[0]
    if (t.n, t.n) != (n, n):
        raise InvalidParameters(f"basis rows {n} do not match tuple size {t.n}")
    return _smoothed_objective(t, qm, p, epsilon, True)


def _adj(a):
    return np.swapaxes(a, -1, -2).conj()


def _smoothed_objective(t, qm, p, epsilon, need_grad):
    """F(Q) of ``objective_and_gradient`` on the whole (d, n, n) stack at
    O(d n^2 k); returns the value, or (value, gradient) with ``need_grad``."""
    n, k = qm.shape
    qh = qm.conj().T
    w = _adj(qh @ t.matrices)
    s_adj = qh @ w  # S_i* for S_i = Q* B_i Q
    z = w - qm @ s_adj
    lam, u = np.linalg.eigh(_adj(z) @ z)
    lam = np.clip(lam, 0.0, None) + epsilon
    # per-matrix terms added in matrix order, as sp_numerator does
    per_matrix = np.sum(lam ** (p / 2.0), axis=-1) + (n - k) * epsilon ** (p / 2.0)
    value = float(np.cumsum(per_matrix)[-1])
    if not need_grad:
        return value
    y = p * ((z @ u) * lam[:, None, :] ** (p / 2.0 - 1.0)) @ _adj(u)  # dF = Re Tr[Y* dZ]
    qhy = qh @ y
    grad = t.matrices @ (y - qm @ qhy) - y @ _adj(s_adj) - w @ _adj(qhy)
    return value, grad.sum(axis=0)


def descend(x, value, slope, evaluate, retract, initial_step, grad_tol, max_iters):
    """Projected-gradient descent with Armijo backtracking and a retraction.

    ``slope()`` gives the descent direction at x and its squared norm;
    ``evaluate(y)`` gives the objective at a trial point y and the slope
    there, which is only called if y is accepted; ``retract(y)`` maps a
    step back onto the feasible set, or gives None when it cannot. Trial
    steps start at the last accepted step doubled, capped at
    ``initial_step``, and halve until the Armijo condition holds. The descent
    stops when the direction norm is below ``grad_tol`` (relative to max(1,
    |value|)), when no step is accepted, or after ``max_iters`` accepted
    steps. Returns the final point and the values at every accepted point.
    """
    trace = [value]
    step = initial_step
    for _ in range(max_iters):
        direction, gnorm2 = slope()
        if np.sqrt(gnorm2) <= grad_tol * max(1.0, abs(value)):
            break
        s = step
        while s > MIN_STEP:
            y = retract(x - s * direction)
            if y is not None:
                v, y_slope = evaluate(y)
                if not np.isfinite(v):
                    raise NumericalFailure("non-finite objective during line search")
                if v <= value - ARMIJO_C1 * s * gnorm2:
                    break
            s *= BACKTRACK
        else:
            break
        x, value, slope = y, v, y_slope
        step = min(2.0 * s, initial_step)
        trace.append(value)
    return x, trace


def _descend_subspace(t, q0, p, epsilon, max_iters, restart_tag):
    """One Riemannian descent from the basis q0; returns (final basis,
    objective trace)."""
    value, grad = objective_and_gradient(t, q0, p, epsilon)
    if not np.isfinite(value):
        raise NumericalFailure(f"non-finite objective at restart {restart_tag}")

    def tangent(qm, grad):
        # tangent projection on the orthonormal-basis manifold
        qhg = qm.conj().T @ grad
        xi = grad - qm @ ((qhg + qhg.conj().T) / 2.0)
        return xi, float(np.linalg.norm(xi) ** 2)

    def evaluate(qm):
        def slope():
            return tangent(qm, objective_and_gradient(t, qm, p, epsilon)[1])

        return _smoothed_objective(t, qm, p, epsilon, False), slope

    def retract(y):
        try:
            return orthonormalize(y)
        except RankDeficient:
            return None

    return descend(
        q0, value, lambda: tangent(q0, grad), evaluate, retract,
        initial_step=1.0, grad_tol=1e-8, max_iters=max_iters,
    )


def minimize_riemannian(t: BistochasticTuple, p: float, cfg: SearchConfig) -> ExpansionEstimate:
    """Multi-restart Riemannian descent; reports the unsmoothed ratio at the
    best final witness."""
    p = _check_exponent(p)
    n = t.n
    iterations = 0

    def restart(k, r):
        nonlocal iterations
        q0 = haar_isometry(n, k, substream(cfg.seed, k, r))
        qm, trace = _descend_subspace(t, q0, p, cfg.epsilon, cfg.max_iters, f"k={k},r={r}")
        iterations += len(trace) - 1
        return Subspace(qm)

    value, k, witness = _best_candidate(t, p, cfg, cfg.restarts, restart)
    return ExpansionEstimate(
        value=value, witness=witness, k=k, p=p, strategy="riemannian", iterations=iterations
    )

