"""Embedding-based graph expansion: the edge/pair ratio over vertex maps into
l_p vectors or Schatten-p matrices, distortion audits, and the finite
distortion lower bound (expansion estimate divided by the metric ratio).

The estimators are upper bounds by construction: every reported value is the
exact (unsmoothed) ratio recomputed at the returned witness. Minimization
runs projected gradient descent on the quotient (the ratio is invariant under
translation and scaling, so iterates are recentered and rescaled to a unit
pair-average) from a mix of spectral, sweep-cut and random starting points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEmbedding,
    InvalidParameters,
    NumericalFailure,
    ShapeMismatch,
)
from .graphs import RegularGraph, _check_symmetric, _cut_ratio, _edge_pair_averages, is_connected
from .graphs import metric_ratio, shortest_path_metric
from .linalg import _check_exponent, _check_seed, as_integers, substream
from .search import EPSILON, descend

TARGET_LP = "vector-lp"
TARGET_SP = "matrix-sp"
SWEEP_CUTS = 3  # best Fiedler prefix cuts used as starting points


@dataclass
class VertexEmbedding:
    """Images of the n vertices as one array of the object's own: (n, m)
    vectors (vector-lp) or (n, m, m) square matrices (matrix-sp). A list of
    images of one shape is stacked."""

    images: np.ndarray
    target: str
    p: float

    def __post_init__(self):
        if self.target not in (TARGET_LP, TARGET_SP):
            raise InvalidParameters(f"unknown target {self.target!r}")
        self.p = _check_exponent(self.p)
        try:
            x = np.array(self.images)
        except ValueError as exc:  # images of different shapes
            raise ShapeMismatch(f"images must all share one shape: {exc}") from exc
        if x.shape[:1] == (0,):
            raise InvalidParameters("embedding needs at least one image")
        want_ndim = 2 if self.target == TARGET_LP else 3
        if x.ndim != want_ndim or (want_ndim == 3 and x.shape[1] != x.shape[2]):
            raise ShapeMismatch("images must all share one shape: vectors or square matrices")
        if not np.all(np.isfinite(x)):
            raise InvalidParameters("images must be finite")
        self.images = x

    @property
    def n(self) -> int:
        return len(self.images)

    @property
    def m(self) -> int:
        return self.images.shape[1]


_PAIR_ENTRIES = 1 << 22  # difference entries per pair block


def _pair_blocks(x):
    """(a, b, lo, hi, x[a:b, lo:hi, None] - x[a:b, None, :]) over an (S, n,
    *image_shape) stack: rows lo:hi of one start hold about _PAIR_ENTRIES
    entries (its row blocks alone), starts a:b as many as stay within that."""
    size = max(1, x[:1].size)  # the entries of one start
    rows = min(x.shape[1], max(1, _PAIR_ENTRIES // size))
    starts = max(1, _PAIR_ENTRIES // (rows * size))
    for a in range(0, len(x), starts):
        b = min(a + starts, len(x))
        for lo in range(0, x.shape[1], rows):
            hi = min(lo + rows, x.shape[1])
            yield a, b, lo, hi, x[a:b, lo:hi, None] - x[a:b, None, :]


# Each target contributes two functions of a (..., rows, n, *image_shape)
# difference block of rows lo:lo + rows. Both return per-pair terms along a
# last axis of length m; a pair's value is the sum of its terms.
#   smoothed(diff, lo, p, eps) -> (terms of the smoothed ||diff||^p, the
#                                  gradient of their sum with respect to diff)
#   powers(diff, lo, p)        -> terms of the exact ||diff||^p


def _lp_smoothed(diff, lo, p, eps):
    sq = diff**2 + eps
    return sq ** (p / 2.0), p * diff * sq ** (p / 2.0 - 1.0)


def _lp_powers(diff, lo, p):
    return np.abs(diff) ** p


@functools.lru_cache(maxsize=64)
def _pair_halves(lo, rows, n):
    """Block indices of rows lo:lo + rows, diagonal left out: the pairs (i, j)
    decomposed (j > i or j outside the block), and the pairs lo <= j < i with
    the position of (j, i), mirrored from it (-D: same Gram and S_p, -grad)."""
    i, j = np.meshgrid(np.arange(lo, lo + rows), np.arange(n), indexing="ij")
    own, mirror = (j > i) | (j < lo), (j >= lo) & (j < i)
    return i[own] - lo, j[own], i[mirror] - lo, j[mirror], j[mirror] - lo, i[mirror]


def _sp_smoothed(diff, lo, p, eps):
    """Terms (lambda + eps)^(p/2) over the eigenvalues lambda of D D^T, and the
    gradient p (D D^T + eps)^(p/2 - 1) D, by one eigh per decomposed pair."""
    r, c, mr, mc, sr, sc = _pair_halves(lo, *diff.shape[-4:-2])
    d = diff[..., r, c, :, :]
    lam, u = np.linalg.eigh(d @ d.swapaxes(-1, -2))
    lam = np.clip(lam, 0.0, None) + eps
    h = (u * (lam ** (p / 2.0 - 1.0))[..., None, :]) @ u.swapaxes(-1, -2)
    phi, psi = np.zeros(diff.shape[:-1]), np.zeros(diff.shape)
    phi[..., r, c, :], psi[..., r, c, :, :] = lam ** (p / 2.0), p * (h @ d)
    phi[..., mr, mc, :], psi[..., mr, mc, :, :] = phi[..., sr, sc, :], -psi[..., sr, sc, :, :]
    return phi, psi


def _sp_powers(diff, lo, p):
    r, c, mr, mc, sr, sc = _pair_halves(lo, *diff.shape[-4:-2])
    out = np.zeros(diff.shape[:-1])
    out[..., r, c, :] = np.linalg.svd(diff[..., r, c, :, :], compute_uv=False) ** p
    out[..., mr, mc, :] = out[..., sr, sc, :]
    return out


_SMOOTHED = {TARGET_LP: _lp_smoothed, TARGET_SP: _sp_smoothed}
_POWERS = {TARGET_LP: _lp_powers, TARGET_SP: _sp_powers}


def _pair_powers(x, target, p) -> np.ndarray:
    """(S, n, n) matrices of ||x[s, i] - x[s, j]||^p over all ordered pairs of
    each start of an (S, n, *image_shape) stack."""
    out = np.empty((len(x), x.shape[1], x.shape[1]))
    for a, b, lo, hi, diff in _pair_blocks(x):
        out[a:b, lo:hi] = _POWERS[target](diff, lo, p).sum(axis=-1)
    return out


def _exact_ratios(g, x, target, p) -> list:
    """The exact embedding_ratio of each start of an (S, n, *image_shape) stack."""
    ratios = []
    for powers in _pair_powers(x, target, p):
        num, den = _edge_pair_averages(g, powers)
        if den <= 0:
            raise DegenerateEmbedding("all images coincide; ratio undefined")
        ratios.append((num / den) ** (1.0 / p))  # a Python float power, as _normalize takes
    return ratios


def embedding_ratio(g: RegularGraph, f: VertexEmbedding) -> float:
    """((1/|E|) sum_E d_f^p / (1/n^2) sum_{i,j} d_f^p)^(1/p) with d_f the
    target-norm distance between images."""
    _check_symmetric(g, "embedding ratio")
    if f.n != g.n:
        raise ShapeMismatch(f"embedding has {f.n} images, graph has {g.n} vertices")
    return _exact_ratios(g, f.images[None], f.target, f.p)[0]


# ---------------------------------------------------------------------------
# Distortion
# ---------------------------------------------------------------------------


@dataclass
class DistortionReport:
    """Distortion D = expansion * contraction; D = 1 means scaled isometry.

    ``infinite`` flags coincident images for metrically distinct points; the
    offending pair is reported rather than raised.
    """

    D: float
    expansion: float
    contraction: float
    expansion_pair: tuple | None
    contraction_pair: tuple | None
    infinite: bool = False
    offending_pair: tuple | None = None


def distortion(f: VertexEmbedding, rho: np.ndarray) -> DistortionReport:
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (f.n, f.n):
        raise ShapeMismatch(f"embedding has {f.n} images, metric has shape {rho.shape}")
    i, j = np.triu_indices(f.n, k=1)
    r = rho[i, j]
    keep = r > 0
    i, j, r = i[keep], j[keep], r[keep]
    delta = (_pair_powers(f.images[None], f.target, f.p)[0] ** (1.0 / f.p))[i, j]
    # row-major (i, j) order: the first coincident pair, the first strict maxima
    zero = np.flatnonzero(delta == 0.0)
    if zero.size:
        return DistortionReport(
            D=float("inf"),
            expansion=float("inf"),
            contraction=float("inf"),
            expansion_pair=None,
            contraction_pair=None,
            infinite=True,
            offending_pair=(int(i[zero[0]]), int(j[zero[0]])),
        )
    if not r.size:
        return DistortionReport(0.0, 0.0, 0.0, None, None)
    stretch = delta / r
    shrink = r / delta
    e, c = int(np.argmax(stretch)), int(np.argmax(shrink))
    return DistortionReport(
        D=float(stretch[e] * shrink[c]),
        expansion=float(stretch[e]),
        contraction=float(shrink[c]),
        expansion_pair=(int(i[e]), int(j[e])),
        contraction_pair=(int(i[c]), int(j[c])),
    )


# ---------------------------------------------------------------------------
# Estimators
# ---------------------------------------------------------------------------


@dataclass
class OptimizerConfig:
    restarts: int = 6
    max_iters: int = 300
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iters", "seed"):
            setattr(self, name, int(as_integers(getattr(self, name), name)))
        _check_seed(self.seed)
        if self.restarts < 0 or self.max_iters < 1:
            raise InvalidParameters("need restarts >= 0 and max_iters >= 1")


@dataclass
class EmbedEstimate:
    value: float
    witness: VertexEmbedding
    starts: int = 0
    iterations: int = 0


def _laplacian(g: RegularGraph) -> np.ndarray:
    a = g.adjacency.astype(np.float64)
    return np.diag(a.sum(axis=1)) - a


def l2_expansion_oracle(g: RegularGraph) -> float:
    """Exact l2 value sqrt(n * lambda_2 / (2|E|)): the ratio minimum is a
    Rayleigh quotient of the Laplacian on centered vectors."""
    _check_symmetric(g, "l2 oracle")
    if not is_connected(g):
        raise InvalidParameters("l2 oracle needs a connected graph")
    lam = np.linalg.eigvalsh(_laplacian(g))
    return float(np.sqrt(g.n * lam[1] / (2.0 * g.edge_count())))


def _sweep_cut_sets(g: RegularGraph, fiedler: np.ndarray) -> list:
    """The SWEEP_CUTS best prefix cuts of the Fiedler order by exact l1 cut ratio."""
    order = np.argsort(fiedler, kind="stable")
    sizes = np.arange(1, g.n)
    # the edge count inside prefix t is a corner sum of the reordered adjacency
    inside = np.cumsum(np.cumsum(g.adjacency[np.ix_(order, order)], axis=0), axis=1)
    boundary = g.d * sizes - inside[sizes - 1, sizes - 1]
    values = _cut_ratio(boundary, sizes, g.n, g.edge_count())
    scored = sorted((v, sorted(order[:t].tolist())) for v, t in zip(values.tolist(), sizes))
    return [s for _, s in scored[:SWEEP_CUTS]]


def _lp_init_points(g: RegularGraph, m: int, cfg: OptimizerConfig) -> list:
    n = g.n
    inits = []
    lam, vec = np.linalg.eigh(_laplacian(g))
    spectral = np.zeros((n, m))
    take = min(m, n - 1)
    spectral[:, :take] = vec[:, 1 : 1 + take]
    inits.append(spectral)
    for s in _sweep_cut_sets(g, vec[:, 1]):
        x = np.zeros((n, m))
        x[s, 0] = 1.0
        inits.append(x)
    for r in range(cfg.restarts):
        rng = substream(cfg.seed, 7, r)
        inits.append(rng.standard_normal((n, m)))
    return inits


def _parts(x, w_edges, p, eps, n2, edge_count, smoothed):
    """Smoothed (num, den, grad_num, grad_den) of the quotient objective at
    each start of an (S, n, *image_shape) stack."""
    num, den = np.zeros(len(x)), np.zeros(len(x))
    gnum, gden = np.zeros_like(x), np.zeros_like(x)
    for a, b, lo, hi, diff in _pair_blocks(x):
        phi, psi = smoothed(diff, lo, p, eps)
        t = phi.sum(axis=-1)
        t[:, np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        num[a:b] += (w_edges[lo:hi] * t).reshape(b - a, -1).sum(axis=1)
        den[a:b] += t.reshape(b - a, -1).sum(axis=1)
        gnum[a:b, lo:hi] = np.einsum("ij,sij...->si...", w_edges[lo:hi], psi)
        gden[a:b, lo:hi] = 2.0 * psi.sum(axis=2)
    return num / (2.0 * edge_count), den / n2, gnum / edge_count, gden / n2


def _normalize(x, p, powers):
    """Center each start of an (S, n, *image_shape) stack and scale it to a
    unit pair average of ||x[i] - x[j]||^p; returns the stack and a flag per
    start, False where all its images coincide."""
    x = x - x.mean(axis=1, keepdims=True)
    total = np.zeros(len(x))
    for a, b, lo, _, diff in _pair_blocks(x):
        total[a:b] += powers(diff, lo, p).reshape(b - a, -1).sum(axis=1)
    den = total / x.shape[1] ** 2
    # the power of a Python float, per start: a numpy array power rounds differently
    scale = [float(d) ** (-1.0 / p) if d > 0 else 0.0 for d in den]
    return x * np.reshape(scale, (-1,) + (1,) * (x.ndim - 1)), den > 0


def _descend_embedding(g, x, p, max_iters, target):
    """Lock-step descent on the smoothed quotient ratio from the normalized
    (S, n, *image_shape) stack x; returns (final images, objective traces)."""
    smoothed, powers = _SMOOTHED[target], _POWERS[target]
    # loops weigh pairs i = i, whose terms are zero
    w = g.adjacency.astype(np.float64)
    edge_count = float(g.edge_count())
    shape = (-1,) + (1,) * (x.ndim - 1)

    def evaluate(x):
        num, den, gnum, gden = _parts(x, w, p, EPSILON, g.n * g.n, edge_count, smoothed)
        value = num / den
        grad = (gnum - value.reshape(shape) * gden) / den.reshape(shape)
        return value, grad, (grad**2).reshape(len(grad), -1).sum(axis=1)

    return descend(
        x, evaluate(x), evaluate, lambda y: _normalize(y, p, powers),
        initial_step=0.5, grad_tol=1e-9, max_iters=max_iters,
    )


def _best_of_starts(g, inits, p, cfg, target) -> EmbedEstimate:
    """Normalize the starts, descend from all in lock-step, and keep the
    smallest exact ratio (normalized starts included; earlier wins ties)."""
    x, ok = _normalize(np.array(inits, dtype=np.float64), p, _POWERS[target])
    x = x[ok]
    if not len(x):
        raise NumericalFailure("no usable starting point")
    x_fin, traces = _descend_embedding(g, x, p, cfg.max_iters, target)
    # normalized start 0, its end, start 1, its end, ...
    candidates = np.stack([x, x_fin], axis=1).reshape((-1,) + x.shape[1:])
    ratios = _exact_ratios(g, candidates, target, p)
    best = int(np.argmin(ratios))  # the first of equal minima: earlier wins ties
    witness = VertexEmbedding(candidates[best], target, p)
    iterations = sum(len(trace) - 1 for trace in traces)
    return EmbedEstimate(ratios[best], witness, starts=len(x), iterations=iterations)


def lp_expansion_estimate(
    g: RegularGraph, p: float, m: int, cfg: OptimizerConfig | None = None
) -> EmbedEstimate:
    """Upper bound on the l_p expansion via multi-restart projected gradient
    over maps [n] -> R^m (spectral, sweep-cut and Gaussian starts)."""
    cfg = cfg or OptimizerConfig()
    _check_symmetric(g, "estimator")
    if g.n < 2:
        raise InvalidParameters(f"estimator needs n >= 2 vertices, got n={g.n}")
    if m < 1:
        raise InvalidParameters("target dimension m must be >= 1")
    if not is_connected(g):
        raise InvalidParameters("estimator needs a connected graph")
    p = _check_exponent(p)
    inits = _lp_init_points(g, m, cfg)
    return _best_of_starts(g, inits, p, cfg, TARGET_LP)


# ---------------------------------------------------------------------------
# Schatten-p target
# ---------------------------------------------------------------------------


def sp_expansion_estimate(
    g: RegularGraph, p: float, m: int, cfg: OptimizerConfig | None = None
) -> EmbedEstimate:
    """Upper bound on the Schatten-p expansion over maps [n] -> m x m
    matrices.

    The diagonal lift of the l_p witness is always a starting point (l_p
    embeds isometrically into the Schatten-p class via diagonal matrices), so
    the estimate never exceeds the l_p estimate.
    """
    cfg = cfg or OptimizerConfig()
    lp_result = lp_expansion_estimate(g, p, m, cfg)  # also rejects bad g, p and m
    p = float(p)
    n = g.n
    diag_lift = np.zeros((n, m, m))
    diag_lift[:, np.arange(m), np.arange(m)] = lp_result.witness.images
    inits = [diag_lift]
    for r in range(cfg.restarts):
        rng = substream(cfg.seed, 11, r)
        inits.append(rng.standard_normal((n, m, m)))
    return _best_of_starts(g, inits, p, cfg, TARGET_SP)


def distortion_lower_bound(g: RegularGraph, p: float, h_est: float) -> float:
    """Finite distortion bound h_est / R_rho(G, shortest-path metric, p).

    Valid whenever h_est is a true lower bound on the l_p expansion (cut
    oracle at p = 1, Laplacian oracle at p = 2); heuristic otherwise.
    """
    r = metric_ratio(g, shortest_path_metric(g), p)
    return float(h_est) / r
